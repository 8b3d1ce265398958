//! Budget integration tests: all three miners honour the same
//! `ExecBudget` contract — unlimited guards agree bit-for-bit across
//! miners and through the `Algorithm` dispatch, itemset, tree-memory and
//! zero-deadline caps surface as typed breaches at pool widths 1 and 2,
//! and an injected worker panic in FP-Growth's or Eclat's recursion is
//! contained into `MineError::WorkerPanic`.

use std::time::Duration;

use irma_mine::{
    apriori, eclat, fpgrowth, Algorithm, BudgetBreach, BudgetGuard, ExecBudget, MineError,
    MinerConfig, TransactionDb,
};
use irma_obs::Metrics;

fn textbook_db() -> TransactionDb {
    TransactionDb::from_transactions(vec![
        vec![0, 1],
        vec![1, 2, 3],
        vec![0, 2, 3, 4],
        vec![0, 3, 4],
        vec![0, 1, 2],
        vec![0, 1, 2, 3],
        vec![0],
        vec![0, 1, 2],
        vec![0, 1, 3],
        vec![1, 2, 4],
    ])
}

fn config() -> MinerConfig {
    MinerConfig::with_min_support(0.1)
}

/// Runs `f` on a fresh pool of `width` workers.
fn on_pool<R>(width: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(width)
        .build()
        .unwrap()
        .install(f)
}

#[test]
fn unlimited_guard_miners_agree() {
    let db = textbook_db();
    let cfg = config();
    let guard = BudgetGuard::unlimited();
    let f = fpgrowth(&db, &cfg, &Metrics::disabled(), &guard).unwrap();
    let a = apriori(&db, &cfg, &guard).unwrap();
    assert_eq!(f.as_slice(), a.as_slice());
    let e = eclat(&db, &cfg, &Metrics::disabled(), &guard).unwrap();
    assert_eq!(f.as_slice(), e.as_slice());
    for algorithm in Algorithm::all() {
        let dispatched = algorithm
            .mine(&db, &cfg, &Metrics::disabled(), &guard)
            .unwrap();
        assert_eq!(f.as_slice(), dispatched.as_slice(), "{}", algorithm.name());
    }
}

#[test]
fn itemset_cap_trips_every_miner() {
    let db = textbook_db();
    let budget = ExecBudget {
        max_itemsets: Some(3),
        ..ExecBudget::default()
    };
    for algorithm in Algorithm::all() {
        for width in [1, 2] {
            let guard = BudgetGuard::new(&budget);
            let err = on_pool(width, || {
                algorithm.mine(&db, &config(), &Metrics::disabled(), &guard)
            })
            .unwrap_err();
            match err {
                MineError::Budget(BudgetBreach::Itemsets { cap: 3 }) => {}
                other => panic!("{}: expected itemset breach, got {other}", algorithm.name()),
            }
        }
    }
}

#[test]
fn zero_deadline_trips_every_miner() {
    let db = textbook_db();
    let budget = ExecBudget {
        deadline: Some(Duration::ZERO),
        ..ExecBudget::default()
    };
    for algorithm in Algorithm::all() {
        let guard = BudgetGuard::new(&budget);
        let err = algorithm
            .mine(&db, &config(), &Metrics::disabled(), &guard)
            .unwrap_err();
        assert!(
            matches!(err, MineError::Budget(BudgetBreach::Deadline { .. })),
            "{}: expected deadline breach, got {err}",
            algorithm.name()
        );
    }
}

#[test]
fn tiny_tree_memory_cap_trips_every_miner() {
    let db = textbook_db();
    let budget = ExecBudget {
        max_tree_bytes: Some(1),
        ..ExecBudget::default()
    };
    for algorithm in Algorithm::all() {
        for width in [1, 2] {
            let guard = BudgetGuard::new(&budget);
            let err = on_pool(width, || {
                algorithm.mine(&db, &config(), &Metrics::disabled(), &guard)
            })
            .unwrap_err();
            assert!(
                matches!(err, MineError::Budget(BudgetBreach::TreeMemory { cap: 1 })),
                "{}: expected tree-memory breach, got {err}",
                algorithm.name()
            );
        }
    }
}

#[test]
fn injected_worker_panic_is_contained_in_parallel_miners() {
    let db = textbook_db();
    let budget = ExecBudget {
        panic_after_emits: Some(2),
        ..ExecBudget::default()
    };
    for algorithm in [Algorithm::FpGrowth, Algorithm::Eclat] {
        let guard = BudgetGuard::new(&budget);
        let err = algorithm
            .mine(&db, &config(), &Metrics::disabled(), &guard)
            .unwrap_err();
        match err {
            MineError::WorkerPanic { message } => assert!(
                message.contains("injected"),
                "{}: unexpected payload: {message}",
                algorithm.name()
            ),
            other => panic!("{}: expected WorkerPanic, got {other}", algorithm.name()),
        }
    }
}

#[test]
fn cancelled_token_stops_all_miners() {
    let db = textbook_db();
    for algorithm in Algorithm::all() {
        let guard = BudgetGuard::unlimited();
        // An unlimited guard's token can still be cancelled externally.
        let guard = BudgetGuard::with_token(&ExecBudget::default(), guard.token().clone());
        guard.token().cancel();
        let err = algorithm
            .mine(&db, &config(), &Metrics::disabled(), &guard)
            .unwrap_err();
        assert!(
            matches!(err, MineError::Budget(BudgetBreach::Cancelled)),
            "{}: expected cancellation, got {err}",
            algorithm.name()
        );
    }
}

#[test]
fn generous_budget_changes_nothing() {
    let db = textbook_db();
    let budget = ExecBudget {
        max_itemsets: Some(1_000_000),
        max_tree_bytes: Some(1 << 30),
        deadline: Some(Duration::from_secs(3600)),
        panic_after_emits: None,
    };
    for algorithm in Algorithm::all() {
        let guard = BudgetGuard::new(&budget);
        let bounded = algorithm
            .mine(&db, &config(), &Metrics::disabled(), &guard)
            .unwrap();
        let free = algorithm
            .mine(
                &db,
                &config(),
                &Metrics::disabled(),
                &BudgetGuard::unlimited(),
            )
            .unwrap();
        assert_eq!(bounded.as_slice(), free.as_slice(), "{}", algorithm.name());
    }
}
