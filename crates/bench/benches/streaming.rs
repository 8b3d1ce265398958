//! Streaming and condensation benches: sliding-window push throughput,
//! drift evaluation, on-demand window re-mining (Eclat over the window's
//! snapshot), the daemon's per-arrival re-mine at its default window,
//! top-k dynamic-support mining, and closed/maximal condensation cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use irma_bench::bench_encoded;
use irma_core::Trace;
use irma_mine::{
    closed_itemsets, fpgrowth, maximal_itemsets, mine_top_k, BudgetGuard, FrequentItemsets,
    MinerConfig, SlidingWindowMiner, TransactionDb,
};
use irma_obs::Metrics;

/// Batch FP-Growth, unbudgeted and unobserved.
fn batch(db: &TransactionDb, config: &MinerConfig) -> FrequentItemsets {
    fpgrowth(db, config, &Metrics::disabled(), &BudgetGuard::unlimited()).expect("valid config")
}

fn window_ops(c: &mut Criterion) {
    let encoded = bench_encoded(Trace::SuperCloud, 20_000);
    let txns: Vec<Vec<u32>> = (0..encoded.db.len())
        .map(|i| encoded.db.transaction(i).to_vec())
        .collect();
    let mut group = c.benchmark_group("stream");
    group.sample_size(10);

    group.bench_function("push_20k_window_4k", |b| {
        b.iter(|| {
            let mut miner = SlidingWindowMiner::new(4_096, MinerConfig::with_min_support(0.05));
            for txn in &txns {
                miner.push(txn.iter().copied());
            }
            black_box(miner.len())
        })
    });

    let config = MinerConfig::with_min_support(0.05);
    let mut filled = SlidingWindowMiner::new(4_096, config.clone());
    for txn in &txns {
        filled.push(txn.iter().copied());
    }
    let mine = |miner: &mut SlidingWindowMiner| {
        miner
            .mine(&config, &BudgetGuard::unlimited())
            .expect("unlimited budget")
            .len()
    };
    let mut baseline = filled.clone();
    mine(&mut baseline);
    group.bench_function("drift_eval", |b| b.iter(|| black_box(baseline.drift())));
    group.bench_function("remine_window_4k", |b| {
        b.iter(|| black_box(mine(&mut filled.clone())))
    });

    // The `irma watch` hot path at the daemon's default window: one
    // arrival, then a re-mine (snapshot plus Eclat).
    let mut window = SlidingWindowMiner::new(2_000, config.clone());
    for txn in txns.iter().take(4_000) {
        window.push(txn.iter().copied());
    }
    let mut next = 0usize;
    group.bench_function("arrival_mine_2k", |b| {
        b.iter(|| {
            window.push(txns[next % txns.len()].iter().copied());
            next += 1;
            black_box(mine(&mut window))
        })
    });
    group.finish();
}

fn top_k_and_condense(c: &mut Criterion) {
    let db = irma_bench::bench_db(30_000);
    let mut group = c.benchmark_group("condense");
    group.sample_size(10);
    for &k in &[10usize, 100, 1_000] {
        group.bench_with_input(BenchmarkId::new("mine_top_k", k), &k, |b, &k| {
            b.iter(|| black_box(mine_top_k(&db, k, 5, batch)).len())
        });
    }
    let frequent = batch(&db, &MinerConfig::with_min_support(0.05));
    group.bench_function("closed_itemsets", |b| {
        b.iter(|| black_box(closed_itemsets(&frequent)).len())
    });
    group.bench_function("maximal_itemsets", |b| {
        b.iter(|| black_box(maximal_itemsets(&frequent)).len())
    });
    group.finish();
}

criterion_group!(benches, window_ops, top_k_and_condense);
criterion_main!(benches);
