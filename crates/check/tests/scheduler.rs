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
//! * a forced budget trip fails Eclat, the one budgeted miner, with the
//!   same `MineError` at every width (the trip predicate depends only on
//!   width-independent emit counts, and a breach records only the cap,
//!   not which worker crossed it);
//! * an injected worker panic surfaces as `Err(MineError::WorkerPanic)`
//!   at every width in Eclat — contained per top-level item, never
//!   unwinding through the pool or poisoning sibling subtrees;
//! * the lock-free Chase-Lev deque under the pool never loses or
//!   duplicates a task under fuzzed concurrent push/pop/steal
//!   interleavings at widths up to 8 (one owner + up to 7 thieves);
//! * the SIMD-chunked AND+popcount kernel Eclat's dense path uses is
//!   byte-identical to the scalar word loop on fuzzed bitsets, and the
//!   store-free count kernel of its last level returns the same count,
//!   including tail lengths not divisible by the 4-word chunk.
//!
//! Case count and seeding follow the harness defaults (256 cases,
//! `PROPTEST_CASES` / `PROPTEST_SEED` overridable, corpus replay on).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Once;

use proptest::prelude::*;

use irma_check::fault::FaultRng;
use irma_check::generators::{arb_miner_config, arb_transaction_db};
use irma_mine::{
    eclat, Algorithm, BudgetGuard, ExecBudget, FrequentItemsets, MineError, MinerConfig,
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

/// Runs `f` on a fresh pool of the given width and steal-jitter seed.
/// Building a pool per run also exercises spawn/shutdown churn.
fn on_pool<R: Send>(width: usize, jitter: u64, f: impl FnOnce() -> R + Send) -> R {
    ThreadPoolBuilder::new()
        .num_threads(width)
        .steal_jitter(jitter)
        .build()
        .expect("pool builds")
        .install(f)
}

/// Runs one miner unbudgeted on a fresh pool.
fn mine_on(
    algorithm: Algorithm,
    db: &TransactionDb,
    config: &MinerConfig,
    width: usize,
    jitter: u64,
) -> FrequentItemsets {
    on_pool(width, jitter, || algorithm.mine(db, config)).expect("valid config")
}

/// Runs Eclat under `budget` on a fresh pool.
fn eclat_on(
    db: &TransactionDb,
    config: &MinerConfig,
    budget: &ExecBudget,
    width: usize,
    jitter: u64,
) -> Result<FrequentItemsets, MineError> {
    on_pool(width, jitter, || {
        eclat(db, config, &Metrics::disabled(), &BudgetGuard::new(budget))
    })
}

proptest! {
    #![proptest_config(irma_check::config())]

    #[test]
    fn miners_are_width_invariant(
        db in arb_transaction_db(8, 40),
        config in arb_miner_config(),
        jitter_seed in any::<u64>(),
    ) {
        let mut rng = FaultRng::new(jitter_seed);
        for algorithm in Algorithm::all() {
            let reference = mine_on(algorithm, &db, &config, 1, 0);
            for width in [2usize, 8] {
                let jitter = rng.next_u64();
                let result = mine_on(algorithm, &db, &config, width, jitter);
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
        config in arb_miner_config(),
        fuzz_seed in any::<u64>(),
    ) {
        let mut rng = FaultRng::new(fuzz_seed);
        for algorithm in Algorithm::all() {
            let reference = mine_on(algorithm, &db, &config, 1, 0);
            // Several independent jitter streams on the widest pool:
            // victim choice and steal timing differ per seed, output
            // must not.
            for _ in 0..4 {
                let jitter = rng.next_u64();
                let fuzzed = mine_on(algorithm, &db, &config, 8, jitter);
                prop_assert_eq!(
                    fuzzed.as_slice(),
                    reference.as_slice(),
                    "{} steal order leaked (jitter seed {:#x})",
                    algorithm.name(),
                    jitter
                );
            }
        }
    }

    #[test]
    fn budget_trips_have_width_invariant_type(
        db in arb_transaction_db(8, 40),
        config in arb_miner_config(),
        cap in 1u64..24,
        jitter_seed in any::<u64>(),
    ) {
        let budget = ExecBudget {
            max_itemsets: Some(cap),
            ..ExecBudget::unlimited()
        };
        let mut rng = FaultRng::new(jitter_seed);
        let outcome = |width, jitter| {
            eclat_on(&db, &config, &budget, width, jitter).map(|f| f.as_slice().to_vec())
        };
        let reference = outcome(1, 0);
        for width in [2usize, 8] {
            let result = outcome(width, rng.next_u64());
            prop_assert_eq!(&result, &reference, "outcome diverges at width {}", width);
        }
    }

    #[test]
    fn worker_panics_are_typed_at_every_width(
        db in arb_transaction_db(8, 40),
        config in arb_miner_config(),
        jitter_seed in any::<u64>(),
    ) {
        quiet_panics();
        // Panic on the very first emitted itemset: any input with at
        // least one frequent itemset must trip it, on whichever worker
        // happens to emit first.
        let poisoned = ExecBudget {
            panic_after_emits: Some(1),
            ..ExecBudget::unlimited()
        };
        let mut rng = FaultRng::new(jitter_seed);
        let baseline = mine_on(Algorithm::Eclat, &db, &config, 1, 0);
        for width in [1usize, 2, 8] {
            let _region = ContainedRegion::enter();
            let result = eclat_on(&db, &config, &poisoned, width, rng.next_u64());
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
        let mut words = vec![0u64; a.len().min(b.len())];
        let count = irma_mine::simd::and_popcount(&a, &b, &mut words);
        let scalar = irma_mine::simd::and_popcount_scalar(&a, &b);
        prop_assert_eq!((words, count), scalar);
    }

    /// The last level's store-free kernel: `and_count` must return the
    /// count `and_popcount` computes while storing, at every length in
    /// 0..67 (every tail of 1–3 words past the 4-word chunks) and on
    /// mismatched operand lengths.
    #[test]
    fn simd_and_count_matches_and_popcount(
        a in proptest::collection::vec(any::<u64>(), 0..67),
        b in proptest::collection::vec(any::<u64>(), 0..67),
    ) {
        let mut words = vec![0u64; a.len().min(b.len())];
        let stored = irma_mine::simd::and_popcount(&a, &b, &mut words);
        prop_assert_eq!(irma_mine::simd::and_count(&a, &b), stored);
    }
}
