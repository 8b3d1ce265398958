//! P4 (§III-D): rule generation and keyword pruning costs.
//!
//! Measures rule generation from the mined lattice, the four-condition
//! pruning pass, and the sensitivity of pruning cost to the C margins.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use irma_bench::bench_encoded;
use irma_core::Trace;
use irma_mine::{fpgrowth, FrequentItemsets, MinerConfig};
use irma_obs::{Metrics, Provenance};
use irma_rules::{generate_rules, prune_rules, PruneParams, Rule, RuleConfig};

/// The 5%-support FP-Growth family, unbudgeted and unobserved.
fn mined(db: &irma_mine::TransactionDb) -> FrequentItemsets {
    let config = MinerConfig::with_min_support(0.05);
    fpgrowth(db, &config).expect("valid config")
}

fn generate(frequent: &FrequentItemsets, min_lift: f64) -> Vec<Rule> {
    let config = RuleConfig::with_min_lift(min_lift);
    generate_rules(frequent, &config, &Metrics::disabled())
}

fn rule_generation(c: &mut Criterion) {
    let encoded = bench_encoded(Trace::Pai, 30_000);
    let frequent = mined(&encoded.db);
    let mut group = c.benchmark_group("rules/generation");
    group.sample_size(10);
    for &min_lift in &[1.0, 1.5, 2.0] {
        group.bench_with_input(
            BenchmarkId::new("min_lift", min_lift),
            &min_lift,
            |b, &lift| b.iter(|| black_box(generate(&frequent, lift)).len()),
        );
    }
    group.finish();
}

fn keyword_pruning(c: &mut Criterion) {
    let encoded = bench_encoded(Trace::Pai, 30_000);
    let frequent = mined(&encoded.db);
    let rules = generate(&frequent, 1.5);
    let keyword = encoded.item("SM Util = 0%");
    let mut group = c.benchmark_group("rules/pruning");
    group.sample_size(10);
    for &c_margin in &[1.0, 1.5, 2.0] {
        let params = PruneParams {
            c_lift: c_margin,
            c_supp: c_margin,
        };
        group.bench_with_input(BenchmarkId::new("c_margin", c_margin), &params, |b, p| {
            b.iter(|| {
                let (metrics, provenance) = (Metrics::disabled(), Provenance::disabled());
                let outcome = prune_rules(&rules, keyword, p, &metrics, &provenance);
                black_box(outcome.expect("margins >= 1")).kept.len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, rule_generation, keyword_pruning);
criterion_main!(benches);
