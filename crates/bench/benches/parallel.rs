//! P2: rayon scaling of parallel FP-Growth.
//!
//! The top level of the FP-Growth recursion partitions the header table
//! across workers (each item's conditional subtree is independent). This
//! bench pins rayon pools of 1 / 2 / 4 / all cores and compares against
//! the sequential path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use irma_bench::bench_db;
use irma_mine::{fpgrowth, BudgetGuard, MinerConfig};
use irma_obs::Metrics;

fn thread_sweep(c: &mut Criterion) {
    let db = bench_db(60_000);
    let config = MinerConfig {
        min_support: 0.02,
        max_len: 5,
        parallel: true,
    };
    let mut group = c.benchmark_group("parallel/fpgrowth_threads");
    group.sample_size(10);

    let sequential = MinerConfig {
        parallel: false,
        ..config.clone()
    };
    group.bench_function("sequential", |b| {
        b.iter(|| {
            black_box(
                fpgrowth(
                    &db,
                    &sequential,
                    &Metrics::disabled(),
                    &BudgetGuard::unlimited(),
                )
                .unwrap(),
            )
            .len()
        })
    });

    let max_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut sweep: Vec<usize> = [1usize, 2, 4, max_threads]
        .into_iter()
        .filter(|&t| t <= max_threads.max(4))
        .collect();
    sweep.sort_unstable();
    sweep.dedup();
    for threads in sweep {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("build rayon pool");
        group.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, _| {
            b.iter(|| {
                pool.install(|| {
                    black_box(
                        fpgrowth(
                            &db,
                            &config,
                            &Metrics::disabled(),
                            &BudgetGuard::unlimited(),
                        )
                        .unwrap(),
                    )
                    .len()
                })
            })
        });
    }
    group.finish();
}

criterion_group!(benches, thread_sweep);
criterion_main!(benches);
