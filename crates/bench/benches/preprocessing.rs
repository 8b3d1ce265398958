//! P3 (§III-E): preprocessing costs and the binning ablation.
//!
//! Measures the per-stage cost of the workflow front end — CSV parsing,
//! the scheduler/monitoring join, equal-frequency vs equal-width binning,
//! and full transaction encoding.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use irma_bench::bench_bundle;
use irma_core::Trace;
use irma_data::{inner_join, read_csv_str, write_csv_string};
use irma_obs::Metrics;
use irma_prep::{encode, BinEdges, BinningScheme, FeatureSpec};

fn csv_round_trip(c: &mut Criterion) {
    let bundle = bench_bundle(Trace::SuperCloud, 20_000);
    let text = write_csv_string(&bundle.scheduler);
    let mut group = c.benchmark_group("prep/csv");
    group.sample_size(10);
    group.bench_function("write_20k", |b| {
        b.iter(|| black_box(write_csv_string(&bundle.scheduler)).len())
    });
    group.bench_function("read_20k", |b| {
        b.iter(|| black_box(read_csv_str(&text)).unwrap().n_rows())
    });
    group.finish();
}

fn join_cost(c: &mut Criterion) {
    let bundle = bench_bundle(Trace::Pai, 40_000);
    let mut group = c.benchmark_group("prep/join");
    group.sample_size(10);
    group.bench_function("inner_join_40k", |b| {
        b.iter(|| {
            black_box(inner_join(&bundle.scheduler, &bundle.monitoring, "job_id"))
                .unwrap()
                .n_rows()
        })
    });
    group.finish();
}

fn binning_schemes(c: &mut Criterion) {
    // Long-tailed runtimes: the distribution where the paper says
    // equal-width fails.
    let bundle = bench_bundle(Trace::Pai, 40_000);
    let merged = bundle.merged();
    let col = merged.column("runtime_s").expect("runtime column");
    let values: Vec<f64> = (0..merged.n_rows())
        .filter_map(|i| col.numeric(i))
        .collect();
    let mut group = c.benchmark_group("prep/binning");
    for (label, scheme) in [
        ("equal_frequency", BinningScheme::EqualFrequency),
        ("equal_width", BinningScheme::EqualWidth),
    ] {
        group.bench_with_input(BenchmarkId::new(label, values.len()), &scheme, |b, &s| {
            b.iter(|| {
                let edges = BinEdges::fit(&values, 4, s).expect("non-empty");
                let hist = edges.histogram(&values);
                black_box(hist)
            })
        });
    }
    group.finish();
}

fn full_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("prep/encode");
    group.sample_size(10);
    for trace in Trace::ALL {
        let bundle = bench_bundle(trace, 20_000);
        let merged = bundle.merged();
        let spec = trace.spec();
        group.bench_with_input(
            BenchmarkId::new("encode_20k", trace.name()),
            &merged,
            |b, m| b.iter(|| black_box(encode(m, &spec, &Metrics::disabled())).db.len()),
        );
    }
    group.finish();
}

fn encode_equal_width_ablation(c: &mut Criterion) {
    let bundle = bench_bundle(Trace::Pai, 20_000);
    let merged = bundle.merged();
    let mut group = c.benchmark_group("prep/encode_ablation");
    group.sample_size(10);
    for (label, scheme) in [
        ("equal_frequency", BinningScheme::EqualFrequency),
        ("equal_width", BinningScheme::EqualWidth),
    ] {
        let mut spec = Trace::Pai.spec();
        for feature in &mut spec.features {
            if let FeatureSpec::Numeric { scheme: s, .. } = feature {
                *s = scheme;
            }
        }
        group.bench_function(label, |b| {
            b.iter(|| {
                black_box(encode(&merged, &spec, &Metrics::disabled()))
                    .db
                    .total_items()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    csv_round_trip,
    join_cost,
    binning_schemes,
    full_encode,
    encode_equal_width_ablation
);
criterion_main!(benches);
