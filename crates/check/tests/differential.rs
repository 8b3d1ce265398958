//! Differential properties: FP-Growth ≡ Apriori ≡ Eclat ≡ sliding-window
//! miner ≡ brute-force oracle, on itemsets *and* counts.

use proptest::prelude::*;

use irma_check::generators::{arb_exact_threshold_case, arb_miner_config, arb_transaction_db};
use irma_check::oracle;
use irma_mine::{
    Algorithm, BudgetGuard, FrequentItemsets, Itemset, MinerConfig, SlidingWindowMiner,
    TransactionDb,
};
use irma_obs::Metrics;

/// Runs `algorithm` unbudgeted and unobserved.
fn mine(algorithm: Algorithm, db: &TransactionDb, config: &MinerConfig) -> FrequentItemsets {
    algorithm
        .mine(db, config, &Metrics::disabled(), &BudgetGuard::unlimited())
        .expect("valid config")
}

proptest! {
    #![proptest_config(irma_check::config())]

    #[test]
    fn fpgrowth_matches_oracle(db in arb_transaction_db(8, 40), config in arb_miner_config()) {
        let fast = mine(Algorithm::FpGrowth, &db, &config);
        let reference = oracle::frequent_itemsets(&db, &config);
        prop_assert_eq!(fast.as_slice(), reference.as_slice());
    }

    #[test]
    fn all_algorithms_agree(db in arb_transaction_db(10, 60), config in arb_miner_config()) {
        let reference = mine(Algorithm::FpGrowth, &db, &config);
        for algorithm in Algorithm::all() {
            let result = mine(algorithm, &db, &config);
            prop_assert_eq!(
                result.as_slice(),
                reference.as_slice(),
                "{} disagrees with FP-Growth",
                algorithm.name()
            );
        }
    }

    #[test]
    fn stream_mine_matches_batch_and_oracle(
        txns in proptest::collection::vec(
            proptest::collection::vec(0u32..8, 0..10),
            1..60,
        ),
        capacity in 1usize..40,
        config in arb_miner_config(),
    ) {
        let mut miner = SlidingWindowMiner::new(capacity, config.clone());
        for txn in txns {
            miner.push(txn);
        }
        let streamed = miner.mine(&config, &BudgetGuard::unlimited()).unwrap();
        let window = miner.snapshot();
        let batch = mine(Algorithm::FpGrowth, &window, &config);
        prop_assert_eq!(streamed.as_slice(), batch.as_slice());
        let reference = oracle::frequent_itemsets(&window, &config);
        prop_assert_eq!(streamed.as_slice(), reference.as_slice());
    }

    #[test]
    fn parallel_equals_sequential(
        db in arb_transaction_db(10, 60),
        mut config in arb_miner_config(),
    ) {
        config.parallel = false;
        let sequential = mine(Algorithm::FpGrowth, &db, &config);
        config.parallel = true;
        let parallel = mine(Algorithm::FpGrowth, &db, &config);
        prop_assert_eq!(sequential.as_slice(), parallel.as_slice());
    }

    #[test]
    fn exact_threshold_item_is_frequent(
        (db, config, expected_count) in arb_exact_threshold_case(),
    ) {
        // Item 0 occurs in exactly ceil(min_support × n) transactions:
        // "support ≥ threshold" must include it. The pre-fix float
        // min_count excluded it on 290 (pct, n) grid points.
        for algorithm in Algorithm::all() {
            let frequent = mine(algorithm, &db, &config);
            prop_assert_eq!(
                frequent.count(&Itemset::singleton(0)),
                Some(expected_count),
                "{} dropped the threshold-sitting item (min_support {}, n {})",
                algorithm.name(),
                config.min_support,
                db.len()
            );
        }
    }

    #[test]
    fn stream_hot_items_match_threshold_semantics(
        (db, config, expected_count) in arb_exact_threshold_case(),
    ) {
        // hot_items goes through the same min_count and must keep the
        // threshold-sitting item; its count matches the oracle's.
        let mut miner = SlidingWindowMiner::new(db.len(), config);
        for txn in db.iter() {
            miner.push(txn.iter().copied());
        }
        prop_assert!(miner.hot_items().contains(&0));
        prop_assert_eq!(miner.item_count(0), expected_count);
    }
}

/// Oracle self-check outside the proptest loop: counts reported by the
/// miners equal a from-scratch scan even when `with_universe` padded the
/// item space.
#[test]
fn counts_survive_universe_padding() {
    let db = TransactionDb::from_transactions(vec![vec![0u32, 1], vec![0]]).with_universe(6);
    let config = MinerConfig::with_min_support(0.5);
    let frequent = mine(Algorithm::FpGrowth, &db, &config);
    let reference = oracle::frequent_itemsets(&db, &config);
    assert_eq!(frequent.as_slice(), reference.as_slice());
}
