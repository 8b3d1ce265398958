//! One bench per paper artifact: the cost of regenerating each table and
//! figure end to end (trace preparation excluded — it is the shared
//! fixture; each measurement covers exactly the computation that artifact
//! adds on top of the prepared traces).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use irma_core::experiments::{
    ablation_binning, ablation_pruning, failure_tables, fig1, fig2, fig3, fig4, fig5, misc_tables,
    table1, underutilization_tables,
};
use irma_core::{prepare_all, AnalysisConfig, ExperimentScale, TraceAnalysis};

fn prepared() -> Vec<TraceAnalysis> {
    let scale = ExperimentScale {
        pai_jobs: 20_000,
        supercloud_jobs: 8_000,
        philly_jobs: 8_000,
        seed: 0xbe7c,
    };
    prepare_all(&scale, &AnalysisConfig::default())
        .expect("synthetic traces analyse")
        .into()
}

fn artifacts(c: &mut Criterion) {
    let traces = prepared();
    let mut group = c.benchmark_group("paper");
    group.sample_size(10);

    group.bench_function("table1_overview", |b| {
        b.iter(|| black_box(table1(&traces)).rows.len())
    });
    group.bench_function("fig1_support_sweep", |b| {
        b.iter(|| {
            black_box(fig1(&traces, &[0.05, 0.1, 0.2, 0.5]))
                .series
                .len()
        })
    });
    group.bench_function("fig2_rule_boxplots", |b| {
        b.iter(|| black_box(fig2(&traces)).rows.len())
    });
    group.bench_function("fig3_pruning_scatter", |b| {
        b.iter(|| black_box(fig3(&traces)).after)
    });
    group.bench_function("fig4_sm_cdf", |b| {
        b.iter(|| black_box(fig4(&traces)).rows.len())
    });
    group.bench_function("fig5_exit_status", |b| {
        b.iter(|| black_box(fig5(&traces)).rows.len())
    });
    group.bench_function("tables2_3_4_underutilization", |b| {
        b.iter(|| black_box(underutilization_tables(&traces)).len())
    });
    group.bench_function("tables5_6_7_failures", |b| {
        b.iter(|| black_box(failure_tables(&traces)).len())
    });
    group.bench_function("table8_misc", |b| {
        b.iter(|| black_box(misc_tables(&traces).expect("model subset")).len())
    });
    group.bench_function("ablation_binning", |b| {
        b.iter(|| {
            black_box(ablation_binning(&traces).expect("pai re-analysis"))
                .rows
                .len()
        })
    });
    group.bench_function("ablation_pruning", |b| {
        b.iter(|| black_box(ablation_pruning(&traces)).rows.len())
    });
    group.finish();
}

fn end_to_end(c: &mut Criterion) {
    // The whole workflow including trace generation, at a smaller scale.
    let mut group = c.benchmark_group("paper/end_to_end");
    group.sample_size(10);
    group.bench_function("prepare_all_small", |b| {
        b.iter(|| {
            let scale = ExperimentScale {
                pai_jobs: 5_000,
                supercloud_jobs: 2_000,
                philly_jobs: 2_000,
                seed: 0xbe7c,
            };
            let traces = prepare_all(&scale, &AnalysisConfig::default());
            black_box(traces.expect("synthetic traces analyse")).len()
        })
    });
    group.finish();
}

criterion_group!(benches, artifacts, end_to_end);
criterion_main!(benches);
