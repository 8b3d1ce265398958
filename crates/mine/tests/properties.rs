//! Property tests: the three miners are interchangeable, and their output
//! matches a brute-force oracle on small universes.

use proptest::prelude::*;

use irma_mine::{Algorithm, BudgetGuard, FrequentItemsets, Itemset, MinerConfig, TransactionDb};
use irma_obs::Metrics;

/// Runs `algorithm` unbudgeted and unobserved.
fn mine(algorithm: Algorithm, db: &TransactionDb, config: &MinerConfig) -> FrequentItemsets {
    algorithm
        .mine(db, config, &Metrics::disabled(), &BudgetGuard::unlimited())
        .expect("valid config")
}

/// Random database over a small item universe (so brute force stays cheap).
fn arb_db(max_items: u32, max_txns: usize) -> impl Strategy<Value = TransactionDb> {
    prop::collection::vec(
        prop::collection::vec(0..max_items, 0..(max_items as usize + 2)),
        1..max_txns,
    )
    .prop_map(TransactionDb::from_transactions)
}

fn arb_config() -> impl Strategy<Value = MinerConfig> {
    (0.05f64..=1.0, 1usize..=5, any::<bool>()).prop_map(|(min_support, max_len, parallel)| {
        MinerConfig {
            min_support,
            max_len,
            parallel,
        }
    })
}

/// Brute-force frequent itemsets over a universe of <= 16 items.
fn brute_force(db: &TransactionDb, config: &MinerConfig) -> Vec<(Itemset, u64)> {
    let n = db.n_items();
    assert!(n <= 16, "brute force oracle limited to 16 items");
    let min_count = config.min_count(db.len());
    let mut out = Vec::new();
    for mask in 1u32..(1 << n) {
        if (mask.count_ones() as usize) > config.max_len {
            continue;
        }
        let set = Itemset::from_items((0..n as u32).filter(|&i| mask & (1 << i) != 0));
        let count = db.support_count(&set);
        if count >= min_count {
            out.push((set, count));
        }
    }
    out.sort_unstable_by(|a, b| a.0.len().cmp(&b.0.len()).then_with(|| a.0.cmp(&b.0)));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fpgrowth_matches_brute_force(db in arb_db(8, 40), config in arb_config()) {
        let fi = mine(Algorithm::FpGrowth, &db, &config);
        let expected = brute_force(&db, &config);
        prop_assert_eq!(fi.as_slice(), expected.as_slice());
    }

    #[test]
    fn miners_agree(db in arb_db(10, 60), config in arb_config()) {
        let f = mine(Algorithm::FpGrowth, &db, &config);
        let a = mine(Algorithm::Apriori, &db, &config);
        let e = mine(Algorithm::Eclat, &db, &config);
        prop_assert_eq!(f.as_slice(), a.as_slice());
        prop_assert_eq!(f.as_slice(), e.as_slice());
    }

    #[test]
    fn parallel_equals_sequential(db in arb_db(10, 60), mut config in arb_config()) {
        config.parallel = false;
        let seq = mine(Algorithm::FpGrowth, &db, &config);
        config.parallel = true;
        let par = mine(Algorithm::FpGrowth, &db, &config);
        prop_assert_eq!(seq.as_slice(), par.as_slice());
    }

    #[test]
    fn supports_are_exact(db in arb_db(8, 40), config in arb_config()) {
        let fi = mine(Algorithm::FpGrowth, &db, &config);
        for (set, count) in fi.iter() {
            prop_assert_eq!(*count, db.support_count(set));
            prop_assert!(*count >= config.min_count(db.len()));
            prop_assert!(set.len() <= config.max_len);
        }
    }

    #[test]
    fn downward_closure_holds(db in arb_db(8, 40), config in arb_config()) {
        // Every non-empty subset of a frequent itemset is frequent.
        let fi = mine(Algorithm::FpGrowth, &db, &config);
        for (set, _) in fi.iter() {
            for sub in set.proper_subsets() {
                prop_assert!(
                    fi.count(&sub).is_some(),
                    "subset {} of frequent {} missing", sub, set
                );
            }
        }
    }
}
