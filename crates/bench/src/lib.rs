//! # irma-bench — benchmark harness
//!
//! Criterion benches (`benches/`) cover the paper's performance claims
//! (P1: FP-Growth vs Apriori vs Eclat, P2: parallel scaling) and per-stage
//! costs (preprocessing, pruning), plus one bench per paper table/figure
//! (`paper_artifacts`). The `experiments` binary
//! (`cargo run -p irma-bench --bin experiments --release`) regenerates the
//! rendered tables and figures themselves.
//!
//! Shared fixtures live here so every bench measures the same workloads.

use irma_core::{pai_spec, philly_spec, supercloud_spec, Metrics};
use irma_mine::{ItemId, Itemset, TransactionDb};
use irma_prep::{encode, Encoded, EncoderSpec};
use irma_rules::Rule;
use irma_synth::{pai, philly, supercloud, TraceBundle, TraceConfig};

/// Deterministic seed shared by all benches.
pub const BENCH_SEED: u64 = 0xbe7c;

/// Generates a trace bundle for benching (monitor samples capped low; the
/// reductions are statistically converged well before the cap).
pub fn bench_bundle(name: &str, n_jobs: usize) -> TraceBundle {
    let config = TraceConfig {
        n_jobs,
        seed: BENCH_SEED,
        max_monitor_samples: 64,
    };
    match name {
        "pai" => pai(&config),
        "supercloud" => supercloud(&config),
        "philly" => philly(&config),
        other => panic!("unknown trace `{other}`"),
    }
}

/// The encoder spec for a trace name.
pub fn bench_spec(name: &str) -> EncoderSpec {
    match name {
        "pai" => pai_spec(),
        "supercloud" => supercloud_spec(),
        "philly" => philly_spec(),
        other => panic!("unknown trace `{other}`"),
    }
}

/// Generates and encodes a trace in one step.
pub fn bench_encoded(name: &str, n_jobs: usize) -> Encoded {
    let bundle = bench_bundle(name, n_jobs);
    encode(&bundle.merged(), &bench_spec(name), &Metrics::disabled())
}

/// The encoded PAI transaction database (the paper's largest workload).
pub fn bench_db(n_jobs: usize) -> TransactionDb {
    bench_encoded("pai", n_jobs).db
}

/// The analysis keyword every synthetic [`bench_rules`] rule involves.
pub const BENCH_RULES_KEYWORD: ItemId = 0;

/// SplitMix64 — the same tiny deterministic generator the synth crate
/// seeds from, inlined so rule-set generation has zero dependencies.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic synthetic rule set for the rules-stage benchmark
/// (`benches/rules.rs`), shaped to stress exactly what the pruning stage
/// iterates over:
///
/// * ~75% *cause* rules — consequent is `{K}` or `{K, ctx}` over 8
///   context items, so conditions 1/4 see 9 large equal-consequent
///   groups (what the flat path pairs quadratically);
/// * ~25% *characteristic* rules — the mirror image for conditions 2/3;
/// * varying sides are **family-structured**: each rule draws its
///   antecedent (cause) or consequent (characteristic) from one of
///   `n / 256` disjoint 12-item blocks, a shared base item plus up to 3
///   extensions — so proper nesting is dense *within* a family and
///   impossible across families, the regime where trie walks stay
///   localized while all-pairs comparison does not.
///
/// Metrics are quantized draws, so kept/pruned counts are exact,
/// machine-independent constants the benchmark schema can gate on.
pub fn bench_rules(n: usize) -> Vec<Rule> {
    const KEYWORD: ItemId = BENCH_RULES_KEYWORD;
    const N_CTX: u64 = 8; // context items 1..=8
    const FIRST_BLOCK: u32 = 9;
    const BLOCK: u32 = 12; // base item + 11 extension slots
    let families = (n / 256).max(1) as u64;
    let mut state = BENCH_SEED ^ (n as u64).wrapping_mul(0x5851_f42d_4c95_7f2d);
    let mut rules = Vec::with_capacity(n);
    for _ in 0..n {
        let draw = splitmix64(&mut state);
        let base = FIRST_BLOCK + (splitmix64(&mut state) % families) as u32 * BLOCK;
        let mut varying: Vec<ItemId> = vec![base];
        for _ in 0..(draw % 4) {
            varying.push(base + 1 + (splitmix64(&mut state) % 11) as u32);
        }
        varying.sort_unstable();
        varying.dedup();
        let shared: Vec<ItemId> = match (draw >> 8) % (N_CTX + 1) {
            0 => vec![KEYWORD],
            ctx => vec![KEYWORD, ctx as u32],
        };
        let (antecedent, consequent) = if (draw >> 16).is_multiple_of(4) {
            // Characteristic rule: keyword on the antecedent side.
            (shared, varying)
        } else {
            // Cause rule: keyword on the consequent side.
            (varying, shared)
        };
        let support = 0.05 + ((draw >> 24) % 1000) as f64 / 2000.0;
        let lift = 1.0 + ((draw >> 40) % 640) as f64 / 64.0;
        rules.push(Rule {
            antecedent: Itemset::from_items(antecedent),
            consequent: Itemset::from_items(consequent),
            support_count: (support * 1_000_000.0) as u64,
            support,
            confidence: 0.5,
            lift,
        });
    }
    rules
}
