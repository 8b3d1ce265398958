//! P1 (§III-C): FP-Growth vs Apriori vs Eclat.
//!
//! The paper adopts FP-Growth because Apriori's candidate generation has
//! "exponential runtime and memory requirements when the database is
//! large". This bench sweeps the support threshold and the database size
//! on the encoded PAI workload; the expected shape is FP-Growth ~flat in
//! support with Apriori degrading sharply as support drops (more and
//! longer candidates), with the crossover visible at high support where
//! Apriori's simple counting wins on tiny candidate sets.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use irma_bench::bench_db;
use irma_mine::{Algorithm, BudgetGuard, MinerConfig, TransactionDb};
use irma_obs::Metrics;

/// Runs `algorithm` unbudgeted and unobserved; returns the itemset count.
fn mine(algorithm: Algorithm, db: &TransactionDb, config: &MinerConfig) -> usize {
    algorithm
        .mine(db, config, &Metrics::disabled(), &BudgetGuard::unlimited())
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
            parallel: false,
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
            parallel: false,
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
            parallel: false,
        };
        group.bench_with_input(BenchmarkId::new("fpgrowth", max_len), &config, |b, cfg| {
            b.iter(|| black_box(mine(Algorithm::FpGrowth, &db, cfg)))
        });
    }
    group.finish();
}

criterion_group!(benches, support_sweep, size_sweep, max_len_sweep);
criterion_main!(benches);
