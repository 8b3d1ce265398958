//! P1 (§III-C): FP-Growth vs Apriori vs Eclat.
//!
//! The paper adopts FP-Growth because Apriori's candidate generation has
//! "exponential runtime and memory requirements when the database is
//! large". This bench sweeps the support threshold and the database size
//! on the encoded PAI workload; the expected shape is FP-Growth ~flat in
//! support with Apriori degrading sharply as support drops (more and
//! longer candidates), with the crossover visible at high support where
//! Apriori's simple counting wins on tiny candidate sets.
//!
//! Every miner runs on a 1-wide pool, so these sweeps time the miners
//! sequentially; `mining.rs` has the width grid.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::OnceLock;

use irma_bench::bench_db;
use irma_mine::{Algorithm, MinerConfig, TransactionDb};
use rayon::{ThreadPool, ThreadPoolBuilder};

/// Runs `algorithm` unbudgeted and unobserved on a 1-wide pool; returns
/// the itemset count.
fn mine(algorithm: Algorithm, db: &TransactionDb, config: &MinerConfig) -> usize {
    static SEQUENTIAL: OnceLock<ThreadPool> = OnceLock::new();
    let pool = SEQUENTIAL.get_or_init(|| {
        ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("build rayon pool")
    });
    pool.install(|| algorithm.mine(db, config))
        .expect("valid config")
        .len()
}

fn support_sweep(c: &mut Criterion) {
    let db = bench_db(30_000);
    let mut group = c.benchmark_group("miners/support_sweep");
    group.sample_size(10);
    for &min_support in &[0.3, 0.15, 0.05, 0.02] {
        let config = MinerConfig {
            min_support,
            max_len: 5,
        };
        group.bench_with_input(
            BenchmarkId::new("fpgrowth", min_support),
            &config,
            |b, cfg| b.iter(|| black_box(mine(Algorithm::FpGrowth, &db, cfg))),
        );
        group.bench_with_input(
            BenchmarkId::new("apriori", min_support),
            &config,
            |b, cfg| b.iter(|| black_box(mine(Algorithm::Apriori, &db, cfg))),
        );
        group.bench_with_input(BenchmarkId::new("eclat", min_support), &config, |b, cfg| {
            b.iter(|| black_box(mine(Algorithm::Eclat, &db, cfg)))
        });
    }
    group.finish();
}

fn size_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("miners/size_sweep");
    group.sample_size(10);
    for &n_jobs in &[5_000usize, 20_000, 60_000] {
        let db = bench_db(n_jobs);
        let config = MinerConfig {
            min_support: 0.05,
            max_len: 5,
        };
        group.bench_with_input(BenchmarkId::new("fpgrowth", n_jobs), &db, |b, db| {
            b.iter(|| black_box(mine(Algorithm::FpGrowth, db, &config)))
        });
        group.bench_with_input(BenchmarkId::new("apriori", n_jobs), &db, |b, db| {
            b.iter(|| black_box(mine(Algorithm::Apriori, db, &config)))
        });
        group.bench_with_input(BenchmarkId::new("eclat", n_jobs), &db, |b, db| {
            b.iter(|| black_box(mine(Algorithm::Eclat, db, &config)))
        });
    }
    group.finish();
}

fn max_len_sweep(c: &mut Criterion) {
    // The paper caps itemsets at length 5 (§III-D); this shows what the
    // cap buys.
    let db = bench_db(30_000);
    let mut group = c.benchmark_group("miners/max_len_sweep");
    group.sample_size(10);
    for &max_len in &[2usize, 3, 5, 8] {
        let config = MinerConfig {
            min_support: 0.05,
            max_len,
        };
        group.bench_with_input(BenchmarkId::new("fpgrowth", max_len), &config, |b, cfg| {
            b.iter(|| black_box(mine(Algorithm::FpGrowth, &db, cfg)))
        });
    }
    group.finish();
}

criterion_group!(benches, support_sweep, size_sweep, max_len_sweep);
criterion_main!(benches);
