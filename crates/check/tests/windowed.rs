//! Windowed differential suite: `SlidingWindowMiner`, which keeps its
//! window as a deque with incremental item counts and mines it with
//! Eclat, against batch FP-Growth on the materialized window, under
//! fuzzed arrival/eviction/mine schedules.
//!
//! Three contracts:
//!
//! * mining the window is **byte-identical** to batch FP-Growth over the
//!   same window — a cross-miner check — at mining-pool widths 1, 2, and
//!   8, with re-mines interleaved anywhere in the schedule;
//! * the window's snapshot always holds exactly the last `capacity`
//!   canonical transactions in arrival order, empty ones included, and
//!   eviction counting stays exact under fuzzed capacities
//!   (`evictions = pushes - capacity` once the window fills);
//! * the incrementally-cached drift equals a from-scratch recomputation
//!   after any push/evict/mine interleaving.

use std::collections::VecDeque;

use proptest::prelude::*;

use irma_check::generators::arb_miner_config;
use irma_mine::{fpgrowth, BudgetGuard, FrequentItemsets, ItemId, MinerConfig, SlidingWindowMiner};
use irma_obs::Metrics;

/// Re-mines the window unbudgeted; returns it with the batch mine of the
/// same window's snapshot.
fn mine_both(
    miner: &mut SlidingWindowMiner,
    config: &MinerConfig,
) -> (FrequentItemsets, FrequentItemsets) {
    let streamed = miner.mine(config, &BudgetGuard::unlimited()).unwrap();
    let batch = fpgrowth(&miner.snapshot(), config).unwrap();
    (streamed, batch)
}

/// A fuzzed arrival schedule: transactions over a small item universe,
/// with `mine_every` marking where re-mines interleave.
fn arb_schedule() -> impl Strategy<Value = (Vec<Vec<ItemId>>, usize)> {
    (
        proptest::collection::vec(proptest::collection::vec(0u32..8, 0..6), 1..80),
        1usize..20,
    )
}

/// Canonicalizes a transaction the way `SlidingWindowMiner::push` does.
fn canonical(txn: &[ItemId]) -> Vec<ItemId> {
    let mut t = txn.to_vec();
    t.sort_unstable();
    t.dedup();
    t
}

/// Reference drift: L1 distance between the window's current item
/// frequencies and the baseline's, over the union of items.
fn reference_drift(
    window: &VecDeque<Vec<ItemId>>,
    baseline: &Option<(usize, Vec<u64>)>,
    n_items: usize,
) -> f64 {
    let Some((base_n, base)) = baseline else {
        return f64::INFINITY;
    };
    let mut counts = vec![0u64; n_items];
    for txn in window {
        for &item in txn {
            counts[item as usize] += 1;
        }
    }
    let n = window.len().max(1) as f64;
    let bn = (*base_n).max(1) as f64;
    (0..n_items)
        .map(|i| {
            let now = counts[i] as f64 / n;
            let then = base.get(i).copied().unwrap_or(0) as f64 / bn;
            (now - then).abs()
        })
        .sum()
}

proptest! {
    #![proptest_config(irma_check::config())]

    #[test]
    fn incremental_window_mines_identically_to_batch_at_widths_1_2_8(
        (txns, mine_every) in arb_schedule(),
        capacity in 1usize..40,
        config in arb_miner_config(),
    ) {
        for width in [1usize, 2, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(width)
                .build()
                .expect("pool");
            pool.install(|| {
                let mut miner = SlidingWindowMiner::new(capacity, config.clone());
                for (i, txn) in txns.iter().enumerate() {
                    miner.push(txn.iter().copied());
                    // Interleave re-mines mid-schedule: every mine commits
                    // a drift baseline and must leave the window and its
                    // counts consistent for the pushes and evictions that
                    // follow.
                    if i % mine_every == 0 {
                        let (streamed, batch) = mine_both(&mut miner, &config);
                        prop_assert_eq!(
                            streamed.as_slice(),
                            batch.as_slice(),
                            "width {} diverged at arrival {}",
                            width,
                            i
                        );
                    }
                }
                let (streamed, batch) = mine_both(&mut miner, &config);
                prop_assert_eq!(
                    streamed.as_slice(),
                    batch.as_slice(),
                    "width {} diverged on the final window",
                    width
                );
                Ok(())
            })?;
        }
    }

    #[test]
    fn window_multiset_and_eviction_counts_stay_exact(
        txns in proptest::collection::vec(
            proptest::collection::vec(0u32..8, 0..6),
            1..80,
        ),
        capacity in 1usize..20,
    ) {
        // Reference window, maintained by the same push/evict schedule
        // the miner runs internally.
        let mut reference: VecDeque<Vec<ItemId>> = VecDeque::new();
        let metrics = Metrics::enabled();
        let mut miner =
            SlidingWindowMiner::new(capacity, irma_mine::MinerConfig::with_min_support(0.5))
                .with_metrics(metrics.clone());
        for txn in &txns {
            if reference.len() == capacity {
                reference.pop_front();
            }
            reference.push_back(canonical(txn));
            miner.push(txn.iter().copied());
        }
        // The snapshot holds exactly the window, in arrival order, with
        // empty transactions kept (they count toward the support
        // denominator).
        let snapshot = miner.snapshot();
        let window: Vec<Vec<ItemId>> = snapshot.iter().map(<[ItemId]>::to_vec).collect();
        let expected: Vec<Vec<ItemId>> = reference.iter().cloned().collect();
        prop_assert_eq!(window, expected);
        // Every transaction beyond capacity evicted exactly one.
        let expected_evictions = txns.len().saturating_sub(capacity) as u64;
        let evictions = metrics
            .snapshot()
            .counters
            .iter()
            .find(|(name, _)| name == "stream.evictions")
            .map(|&(_, v)| v)
            .unwrap_or(0);
        prop_assert_eq!(evictions, expected_evictions);
        prop_assert_eq!(miner.len(), reference.len());
    }

    #[test]
    fn incremental_drift_equals_recomputed_drift(
        // Each op is a push, optionally followed by one or two re-mines
        // (op tag 1/2), so baselines are committed at fuzzed points —
        // including back-to-back mines on an unchanged window.
        ops in proptest::collection::vec(
            (proptest::collection::vec(0u32..8, 0..6), 0u8..4),
            1..80,
        ),
        capacity in 1usize..20,
    ) {
        let config = MinerConfig::with_min_support(0.3);
        let mut miner = SlidingWindowMiner::new(capacity, config.clone());
        let mut reference: VecDeque<Vec<ItemId>> = VecDeque::new();
        let mut baseline: Option<(usize, Vec<u64>)> = None;
        let check = |miner: &SlidingWindowMiner,
                         reference: &VecDeque<Vec<ItemId>>,
                         baseline: &Option<(usize, Vec<u64>)>|
         -> Result<(), TestCaseError> {
            let expected = reference_drift(reference, baseline, 8);
            let actual = miner.drift();
            if expected.is_infinite() {
                prop_assert!(actual.is_infinite());
            } else {
                prop_assert!(
                    (actual - expected).abs() < 1e-9,
                    "cached drift {} != recomputed {}",
                    actual,
                    expected
                );
            }
            Ok(())
        };
        for (txn, tag) in &ops {
            miner.push(txn.iter().copied());
            if reference.len() == capacity {
                reference.pop_front();
            }
            reference.push_back(canonical(txn));
            check(&miner, &reference, &baseline)?;
            for _ in 0..(*tag).min(2) {
                miner.mine(&config, &BudgetGuard::unlimited()).unwrap();
                let mut counts = vec![0u64; 8];
                for txn in &reference {
                    for &item in txn {
                        counts[item as usize] += 1;
                    }
                }
                baseline = Some((reference.len(), counts));
                check(&miner, &reference, &baseline)?;
            }
        }
    }
}
