//! Soak target: the three miners under sustained randomized load.
//!
//! Reuses the `irma-check` differential-harness generators — the same
//! strategies the property suites shrink over — but drives them directly
//! through the proptest shim's [`TestRng`] instead of the `proptest!`
//! macro, so this run is a pure timed loop: no corpus replay, no
//! shrinking, no per-case overhead beyond the miners themselves.
//!
//! Each case samples a random database and a random miner config, runs
//! FP-Growth, Apriori, and Eclat on it, and cross-checks that all three
//! report the same number of frequent itemsets (a cheap differential
//! guard — if a soak run ever trips it, feed the seed to the proper
//! property suite for shrinking). Per-algorithm wall time accumulates
//! across cases.
//!
//! Knobs (environment variables):
//!
//! * `SOAK_CASES` — number of random cases (default 200);
//! * `SOAK_SEED`  — base seed, for reproducing a specific run (default
//!   `0x50a4`).

use std::hint::black_box;
use std::time::{Duration, Instant};

use irma_check::generators::{arb_miner_config, arb_transaction_db};
use irma_mine::Algorithm;
use proptest::{Strategy, TestRng};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let cases = env_u64("SOAK_CASES", 200) as usize;
    let seed = env_u64("SOAK_SEED", 0x50a4);

    // Slightly larger universe than the oracle-backed property suites use
    // (no 2^items brute-force here), still small enough that Apriori's
    // candidate explosion stays bounded.
    let db_strategy = arb_transaction_db(12, 400);
    let config_strategy = arb_miner_config();

    let mut rng = TestRng::new(seed);
    let mut totals = [Duration::ZERO; 3];
    let mut itemsets_total = 0u64;
    let mut mismatches = 0usize;

    let start = Instant::now();
    for case in 0..cases {
        let db = db_strategy.generate(&mut rng);
        let config = config_strategy.generate(&mut rng);

        let mut counts = [0usize; 3];
        for (slot, algorithm) in Algorithm::all().into_iter().enumerate() {
            let t = Instant::now();
            let frequent = algorithm
                .mine(&db, &config)
                .expect("generated configs are valid");
            totals[slot] += t.elapsed();
            counts[slot] = black_box(frequent.len());
        }
        itemsets_total += counts[0] as u64;
        if counts[1] != counts[0] || counts[2] != counts[0] {
            mismatches += 1;
            eprintln!(
                "MISMATCH case {case}: fpgrowth={} apriori={} eclat={} \
                 (seed {seed}, min_support {:.2}, max_len {}, {} txns)",
                counts[0],
                counts[1],
                counts[2],
                config.min_support,
                config.max_len,
                db.len()
            );
        }
    }
    let wall = start.elapsed();

    println!("soak: {cases} randomized cases, seed {seed:#x}");
    for (slot, algorithm) in Algorithm::all().into_iter().enumerate() {
        let total = totals[slot];
        println!(
            "  {:<9} {:8.1} ms total  ({:7.1} µs/case)",
            algorithm.name(),
            total.as_secs_f64() * 1e3,
            total.as_secs_f64() * 1e6 / cases as f64
        );
    }
    println!(
        "  {itemsets_total} frequent itemsets mined, wall {:.1} s",
        wall.as_secs_f64()
    );
    if mismatches > 0 {
        println!("FAIL — {mismatches} differential mismatch(es), see stderr");
        std::process::exit(1);
    }
    println!("PASS — all miners agreed on every case");
}
