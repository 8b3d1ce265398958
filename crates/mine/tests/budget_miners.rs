//! Budget integration tests for the pipeline's miner: Eclat honours the
//! `ExecBudget` contract at pool widths 1 and 2 — itemset, tree-memory
//! and zero-deadline caps and a cancelled token surface as typed
//! breaches, and a generous budget changes nothing. (The injected worker
//! panic and the exact tree-byte charge are `eclat.rs` unit tests.)

use std::time::Duration;

use irma_mine::{
    eclat, BudgetBreach, BudgetGuard, ExecBudget, FrequentItemsets, MineError, MinerConfig,
    TransactionDb,
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

/// Runs Eclat over the textbook database under `guard` on a fresh pool
/// of `width` workers.
fn mine_at(width: usize, guard: &BudgetGuard) -> Result<FrequentItemsets, MineError> {
    let db = textbook_db();
    let config = MinerConfig::with_min_support(0.1);
    rayon::ThreadPoolBuilder::new()
        .num_threads(width)
        .build()
        .unwrap()
        .install(|| eclat(&db, &config, &Metrics::disabled(), guard))
}

/// Asserts that `budget` trips Eclat with `expected` at widths 1 and 2.
fn assert_breach(budget: &ExecBudget, expected: impl Fn(&BudgetBreach) -> bool) {
    for width in [1, 2] {
        match mine_at(width, &BudgetGuard::new(budget)) {
            Err(MineError::Budget(breach)) if expected(&breach) => {}
            other => panic!("width {width}: unexpected result {other:?}"),
        }
    }
}

#[test]
fn itemset_cap_trips_eclat() {
    let budget = ExecBudget {
        max_itemsets: Some(3),
        ..ExecBudget::default()
    };
    assert_breach(&budget, |b| matches!(b, BudgetBreach::Itemsets { cap: 3 }));
}

#[test]
fn zero_deadline_trips_eclat() {
    let budget = ExecBudget {
        deadline: Some(Duration::ZERO),
        ..ExecBudget::default()
    };
    assert_breach(&budget, |b| matches!(b, BudgetBreach::Deadline { .. }));
}

#[test]
fn tiny_tree_memory_cap_trips_eclat() {
    let budget = ExecBudget {
        max_tree_bytes: Some(1),
        ..ExecBudget::default()
    };
    assert_breach(&budget, |b| {
        matches!(b, BudgetBreach::TreeMemory { cap: 1 })
    });
}

#[test]
fn cancelled_token_stops_eclat() {
    for width in [1, 2] {
        // An unlimited guard's token can still be cancelled externally.
        let guard = BudgetGuard::unlimited();
        let guard = BudgetGuard::with_token(&ExecBudget::default(), guard.token().clone());
        guard.token().cancel();
        let err = mine_at(width, &guard).unwrap_err();
        assert!(
            matches!(err, MineError::Budget(BudgetBreach::Cancelled)),
            "width {width}: expected cancellation, got {err}"
        );
    }
}

#[test]
fn generous_budget_changes_nothing() {
    let budget = ExecBudget {
        max_itemsets: Some(1_000_000),
        max_tree_bytes: Some(1 << 30),
        deadline: Some(Duration::from_secs(3600)),
        panic_after_emits: None,
    };
    for width in [1, 2] {
        let bounded = mine_at(width, &BudgetGuard::new(&budget)).unwrap();
        let free = mine_at(width, &BudgetGuard::unlimited()).unwrap();
        assert_eq!(bounded.as_slice(), free.as_slice(), "width {width}");
    }
}
