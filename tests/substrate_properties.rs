//! Property tests for the substrates: scheduler simulator invariants,
//! sliding-window/batch mining agreement, and closed-itemset losslessness
//! on random databases.

use proptest::prelude::*;

use irma::mine::{
    closed_itemsets, fpgrowth, maximal_itemsets, support_from_closed, BudgetGuard,
    FrequentItemsets, MinerConfig, SlidingWindowMiner, TransactionDb,
};
use irma::obs::Metrics;
use irma::synth::sched::{simulate_queue, GpuPool, SchedRequest};

/// FP-Growth at `min_support`, unbudgeted and unobserved.
fn mine(db: &TransactionDb, min_support: f64) -> FrequentItemsets {
    let config = MinerConfig::with_min_support(min_support);
    fpgrowth(db, &config, &Metrics::disabled(), &BudgetGuard::unlimited()).unwrap()
}

fn arb_requests(max_pool: usize) -> impl Strategy<Value = Vec<SchedRequest>> {
    prop::collection::vec(
        (0..max_pool, 0.0f64..10_000.0, 1.0f64..5_000.0, 1u64..6).prop_map(
            |(pool, arrival_s, service_s, gpus)| SchedRequest {
                pool,
                arrival_s,
                service_s,
                gpus,
            },
        ),
        1..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn queue_waits_nonnegative_and_finite(reqs in arb_requests(2)) {
        let pools = vec![
            GpuPool { name: "a".into(), capacity: 4 },
            GpuPool { name: "b".into(), capacity: 2 },
        ];
        let waits = simulate_queue(&pools, &reqs);
        prop_assert_eq!(waits.len(), reqs.len());
        for &w in &waits {
            prop_assert!(w.is_finite() && w >= 0.0);
        }
    }

    #[test]
    fn infinite_capacity_means_no_waiting(reqs in arb_requests(1)) {
        let pools = vec![GpuPool { name: "big".into(), capacity: 1_000_000 }];
        let waits = simulate_queue(&pools, &reqs);
        prop_assert!(waits.iter().all(|&w| w == 0.0));
    }

    #[test]
    fn fcfs_starts_in_arrival_order_per_pool(reqs in arb_requests(1)) {
        // Strict FCFS with head-of-line blocking: start times within a
        // pool are non-decreasing in arrival order.
        let pools = vec![GpuPool { name: "p".into(), capacity: 3 }];
        let waits = simulate_queue(&pools, &reqs);
        let mut order: Vec<usize> = (0..reqs.len()).collect();
        order.sort_by(|&a, &b| reqs[a].arrival_s.total_cmp(&reqs[b].arrival_s));
        let starts: Vec<f64> = order
            .iter()
            .map(|&i| reqs[i].arrival_s + waits[i])
            .collect();
        for w in starts.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-9, "starts out of order: {starts:?}");
        }
    }

    #[test]
    fn more_capacity_never_increases_total_wait(reqs in arb_requests(1)) {
        let wait_sum = |capacity: u64| -> f64 {
            let pools = vec![GpuPool { name: "p".into(), capacity }];
            simulate_queue(&pools, &reqs).iter().sum()
        };
        // Strict FCFS is not work-conserving pairwise, but doubling
        // capacity several times must eventually reach zero waiting.
        prop_assert!(wait_sum(1_000_000) <= wait_sum(2) + 1e-9);
        prop_assert_eq!(wait_sum(1_000_000), 0.0);
    }

    #[test]
    fn sliding_window_matches_batch(
        txns in prop::collection::vec(prop::collection::vec(0u32..6, 0..5), 1..50),
        capacity in 1usize..20,
    ) {
        let config = MinerConfig::with_min_support(0.3);
        let mut miner = SlidingWindowMiner::new(capacity, config.clone());
        for txn in &txns {
            miner.push(txn.iter().copied());
        }
        let streamed = miner.mine(&config, &BudgetGuard::unlimited()).unwrap();
        let window: Vec<Vec<u32>> = txns
            .iter()
            .rev()
            .take(capacity)
            .rev()
            .cloned()
            .collect();
        let batch_db = TransactionDb::from_transactions(window)
            .with_universe(miner.snapshot().n_items());
        let batch = mine(&batch_db, 0.3);
        prop_assert_eq!(streamed.as_slice(), batch.as_slice());
    }

    #[test]
    fn closure_is_lossless_on_random_dbs(
        txns in prop::collection::vec(prop::collection::vec(0u32..7, 0..6), 1..40),
        min_support in 0.1f64..0.9,
    ) {
        let db = TransactionDb::from_transactions(txns);
        let frequent = mine(&db, min_support);
        let closed = closed_itemsets(&frequent);
        let maximal = maximal_itemsets(&frequent);
        prop_assert!(maximal.len() <= closed.len());
        prop_assert!(closed.len() <= frequent.len());
        for m in &maximal {
            prop_assert!(closed.contains(m));
        }
        for (set, count) in frequent.iter() {
            prop_assert_eq!(support_from_closed(&closed, set), Some(*count));
        }
    }
}
