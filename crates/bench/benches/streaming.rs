//! Streaming benches: sliding-window push throughput, drift evaluation,
//! on-demand window re-mining (Eclat over the window's snapshot) and the
//! daemon's per-arrival re-mine at its default window.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use irma_bench::bench_encoded;
use irma_core::Trace;
use irma_mine::{BudgetGuard, MinerConfig, SlidingWindowMiner};

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

criterion_group!(benches, window_ops);
criterion_main!(benches);
