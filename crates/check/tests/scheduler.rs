//! Scheduler determinism suite: the work-stealing pool must be invisible
//! in every observable output.
//!
//! Work stealing makes *execution order* nondeterministic by design;
//! these properties pin down what has to stay deterministic anyway:
//!
//! * every miner's `FrequentItemsets` is byte-identical at pool widths
//!   1, 2, and 8 — and under fuzzed steal orders (seeded victim jitter
//!   via `ThreadPoolBuilder::steal_jitter`), because subtree results are
//!   merged in rank order, never in completion order;
//! * a forced budget trip fails with the same `MineError` variant at
//!   every width (the trip predicate depends only on width-independent
//!   emit counts, not on which worker emitted);
//! * an injected worker panic surfaces as `Err(MineError::WorkerPanic)`
//!   at every width — contained per rank, never unwinding through the
//!   pool or poisoning sibling subtrees;
//! * the lock-free Chase-Lev deque under the pool never loses or
//!   duplicates a task under fuzzed concurrent push/pop/steal
//!   interleavings at widths up to 8 (one owner + up to 7 thieves);
//! * the SIMD-chunked AND+popcount kernel Eclat's dense path uses is
//!   byte-identical to the scalar word loop on fuzzed bitsets, including
//!   tail lengths not divisible by the 4-word chunk.
//!
//! Case count and seeding follow the harness defaults (256 cases,
//! `PROPTEST_CASES` / `PROPTEST_SEED` overridable, corpus replay on).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Once;

use proptest::prelude::*;

use irma_check::fault::FaultRng;
use irma_check::generators::{arb_miner_config, arb_transaction_db};
use irma_mine::{
    Algorithm, BudgetBreach, BudgetGuard, ExecBudget, FrequentItemsets, MineError, MinerConfig,
    TransactionDb,
};
use irma_obs::Metrics;
use rayon::deque::{ChaseLev, Steal};
use rayon::ThreadPoolBuilder;

/// Non-zero while a mining run with an injected fault is in flight:
/// panics raised there are contained on purpose and should not spray
/// backtraces over the test output. Panics outside — real assertion
/// failures — still print. (Same idiom as the chaos suite.)
static CONTAINED: AtomicUsize = AtomicUsize::new(0);

fn quiet_panics() {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if CONTAINED.load(Ordering::SeqCst) == 0 {
                previous(info);
            }
        }));
    });
}

struct ContainedRegion;

impl ContainedRegion {
    fn enter() -> ContainedRegion {
        CONTAINED.fetch_add(1, Ordering::SeqCst);
        ContainedRegion
    }
}

impl Drop for ContainedRegion {
    fn drop(&mut self) {
        CONTAINED.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Runs one miner on a fresh pool of the given width and steal-jitter
/// seed. Building a pool per run also exercises spawn/shutdown churn.
fn mine_on(
    algorithm: Algorithm,
    db: &TransactionDb,
    config: &MinerConfig,
    budget: &ExecBudget,
    width: usize,
    jitter: u64,
) -> Result<FrequentItemsets, MineError> {
    let pool = ThreadPoolBuilder::new()
        .num_threads(width)
        .steal_jitter(jitter)
        .build()
        .expect("pool builds");
    pool.install(|| algorithm.mine(db, config, &Metrics::disabled(), &BudgetGuard::new(budget)))
}

/// Collapses an outcome to its observable kind. `Ok` payloads are
/// compared byte-for-byte separately; error *payloads* (emit counter
/// snapshots, panic text) may legitimately vary with scheduling — the
/// variant may not.
fn outcome_kind(result: &Result<FrequentItemsets, MineError>) -> &'static str {
    match result {
        Ok(_) => "ok",
        Err(MineError::InvalidConfig(_)) => "invalid_config",
        Err(MineError::Budget(BudgetBreach::Itemsets { .. })) => "budget.itemsets",
        Err(MineError::Budget(BudgetBreach::TreeMemory { .. })) => "budget.tree_memory",
        Err(MineError::Budget(BudgetBreach::Deadline { .. })) => "budget.deadline",
        Err(MineError::Budget(BudgetBreach::Cancelled)) => "budget.cancelled",
        Err(MineError::WorkerPanic { .. }) => "worker_panic",
    }
}

proptest! {
    #![proptest_config(irma_check::config())]

    #[test]
    fn miners_are_width_invariant(
        db in arb_transaction_db(8, 40),
        mut config in arb_miner_config(),
        jitter_seed in any::<u64>(),
    ) {
        config.parallel = true;
        let mut rng = FaultRng::new(jitter_seed);
        let unlimited = ExecBudget::unlimited();
        for algorithm in Algorithm::all() {
            let reference = mine_on(algorithm, &db, &config, &unlimited, 1, 0)
                .expect("unlimited mine succeeds");
            for width in [2usize, 8] {
                let jitter = rng.next_u64();
                let result = mine_on(algorithm, &db, &config, &unlimited, width, jitter)
                    .expect("unlimited mine succeeds");
                prop_assert_eq!(
                    result.as_slice(),
                    reference.as_slice(),
                    "{} diverges at width {} (jitter seed {:#x})",
                    algorithm.name(),
                    width,
                    jitter
                );
            }
        }
    }

    #[test]
    fn steal_order_never_leaks_into_results(
        db in arb_transaction_db(10, 60),
        mut config in arb_miner_config(),
        fuzz_seed in any::<u64>(),
    ) {
        config.parallel = true;
        let unlimited = ExecBudget::unlimited();
        let reference = mine_on(Algorithm::FpGrowth, &db, &config, &unlimited, 1, 0)
            .expect("sequential mine succeeds");
        // Several independent jitter streams on the widest pool: victim
        // choice and steal timing differ per seed, output must not.
        let mut rng = FaultRng::new(fuzz_seed);
        for _ in 0..4 {
            let jitter = rng.next_u64();
            let fuzzed = mine_on(Algorithm::FpGrowth, &db, &config, &unlimited, 8, jitter)
                .expect("parallel mine succeeds");
            prop_assert_eq!(
                fuzzed.as_slice(),
                reference.as_slice(),
                "steal order leaked (jitter seed {:#x})",
                jitter
            );
        }
    }

    #[test]
    fn budget_trips_have_width_invariant_type(
        db in arb_transaction_db(8, 40),
        mut config in arb_miner_config(),
        cap in 1u64..24,
        jitter_seed in any::<u64>(),
    ) {
        config.parallel = true;
        let budget = ExecBudget {
            max_itemsets: Some(cap),
            ..ExecBudget::unlimited()
        };
        let mut rng = FaultRng::new(jitter_seed);
        for algorithm in Algorithm::all() {
            let reference = mine_on(algorithm, &db, &config, &budget, 1, 0);
            for width in [2usize, 8] {
                let result = mine_on(algorithm, &db, &config, &budget, width, rng.next_u64());
                prop_assert_eq!(
                    outcome_kind(&result),
                    outcome_kind(&reference),
                    "{} outcome kind diverges at width {}",
                    algorithm.name(),
                    width
                );
                if let (Ok(expected), Ok(got)) = (&reference, &result) {
                    prop_assert_eq!(got.as_slice(), expected.as_slice());
                }
            }
        }
    }

    #[test]
    fn worker_panics_are_typed_at_every_width(
        db in arb_transaction_db(8, 40),
        mut config in arb_miner_config(),
        jitter_seed in any::<u64>(),
    ) {
        quiet_panics();
        config.parallel = true;
        // Panic on the very first emitted itemset: any input with at
        // least one frequent itemset must trip it, on whichever worker
        // happens to emit first.
        let poisoned = ExecBudget {
            panic_after_emits: Some(1),
            ..ExecBudget::unlimited()
        };
        let baseline = mine_on(
            Algorithm::FpGrowth,
            &db,
            &config,
            &ExecBudget::unlimited(),
            1,
            0,
        )
        .expect("unlimited mine succeeds");
        let mut rng = FaultRng::new(jitter_seed);
        for width in [1usize, 2, 8] {
            let _region = ContainedRegion::enter();
            let result = mine_on(
                Algorithm::FpGrowth,
                &db,
                &config,
                &poisoned,
                width,
                rng.next_u64(),
            );
            if baseline.as_slice().is_empty() {
                // Nothing is ever emitted, so the injection never fires.
                prop_assert!(result.is_ok(), "no emits, yet width {} failed", width);
            } else {
                match &result {
                    Err(MineError::WorkerPanic { message }) => prop_assert!(
                        message.contains("injected"),
                        "panic payload lost at width {}: {}",
                        width,
                        message
                    ),
                    other => prop_assert!(
                        false,
                        "width {}: expected WorkerPanic, got {:?}",
                        width,
                        other
                    ),
                }
            }
        }
    }

    /// Fuzzed-interleaving stress for the lock-free deque itself: one
    /// owner pushes `n_items` distinct values (popping a fuzzed fraction
    /// back LIFO as it goes, then draining), while up to 7 concurrent
    /// thieves steal FIFO. Every value must be observed exactly once
    /// across the owner and all thieves — a lost task would hang the
    /// pool, a duplicated one would double-execute a job.
    #[test]
    fn chase_lev_tasks_are_observed_exactly_once(
        n_items in 1usize..1200,
        n_thieves in 1usize..8,
        seed in any::<u64>(),
    ) {
        let deque = ChaseLev::<usize>::new();
        let done = AtomicBool::new(false);
        let mut rng = FaultRng::new(seed);
        let mut taken: Vec<usize> = Vec::new();
        let thief_hauls: Vec<Vec<usize>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n_thieves)
                .map(|_| {
                    let (deque, done) = (&deque, &done);
                    s.spawn(move || {
                        let mut haul = Vec::new();
                        loop {
                            match deque.steal() {
                                Steal::Success(v) => haul.push(v),
                                Steal::Retry => std::thread::yield_now(),
                                Steal::Empty => {
                                    if done.load(Ordering::Acquire) {
                                        break;
                                    }
                                    std::thread::yield_now();
                                }
                            }
                        }
                        haul
                    })
                })
                .collect();
            for v in 0..n_items {
                deque.push(v);
                if rng.next_u64().is_multiple_of(4) {
                    if let Some(got) = deque.pop() {
                        taken.push(got);
                    }
                }
            }
            while let Some(got) = deque.pop() {
                taken.push(got);
            }
            done.store(true, Ordering::Release);
            handles
                .into_iter()
                .map(|h| h.join().expect("thief thread panicked"))
                .collect()
        });
        let mut seen = vec![0u32; n_items];
        for &v in taken.iter().chain(thief_hauls.iter().flatten()) {
            prop_assert!(v < n_items, "value {} was never pushed", v);
            seen[v] += 1;
        }
        for (v, &count) in seen.iter().enumerate() {
            prop_assert_eq!(
                count, 1,
                "value {} observed {} times (owner took {}, thieves took {:?})",
                v, count, taken.len(),
                thief_hauls.iter().map(Vec::len).collect::<Vec<_>>()
            );
        }
    }

    /// Differential check for Eclat's dense-path kernel: the u64×4
    /// chunked AND+popcount must match the scalar word loop bit-for-bit
    /// on arbitrary bitsets — lengths 0..67 cover every tail residue
    /// mod 4 and mismatched operand lengths.
    #[test]
    fn simd_and_popcount_matches_scalar(
        a in proptest::collection::vec(any::<u64>(), 0..67),
        b in proptest::collection::vec(any::<u64>(), 0..67),
    ) {
        let chunked = irma_mine::simd::and_popcount(&a, &b);
        let scalar = irma_mine::simd::and_popcount_scalar(&a, &b);
        prop_assert_eq!(chunked, scalar);
    }
}
