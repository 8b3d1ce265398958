//! Rule-metric invariants: every generated rule's stored metrics must be
//! re-derivable from raw database counts, sides must be disjoint and
//! non-empty, and downward closure must hold across the backing family.

use proptest::prelude::*;

use irma_check::generators::arb_transaction_db;
use irma_mine::{fpgrowth, BudgetGuard, FrequentItemsets, MinerConfig, TransactionDb};
use irma_obs::{Metrics, Provenance};
use irma_rules::{generate_rules, Rule, RuleConfig};

fn arb_rule_config() -> impl Strategy<Value = RuleConfig> {
    (0.0f64..3.0, 0.0f64..1.0, 0.0f64..0.2).prop_map(|(min_lift, min_confidence, min_support)| {
        RuleConfig {
            min_lift,
            min_confidence,
            min_support,
        }
    })
}

/// Low-threshold miner config so the rule lattice is well populated.
fn mine_config() -> MinerConfig {
    MinerConfig {
        min_support: 0.05,
        max_len: 4,
        parallel: false,
    }
}

/// The low-threshold family of `db`, unbudgeted.
fn mined(db: &TransactionDb) -> FrequentItemsets {
    fpgrowth(
        db,
        &mine_config(),
        &Metrics::disabled(),
        &BudgetGuard::unlimited(),
    )
    .unwrap()
}

fn generate(frequent: &FrequentItemsets, config: &RuleConfig) -> Vec<Rule> {
    generate_rules(
        frequent,
        config,
        &Metrics::disabled(),
        &Provenance::disabled(),
    )
}

fn recompute_metrics(db: &TransactionDb, rule: &Rule) -> (u64, f64, f64, f64) {
    let n = db.len().max(1) as f64;
    let xy = db.support_count(&rule.itemset());
    let x = db.support_count(&rule.antecedent);
    let y = db.support_count(&rule.consequent);
    let support = xy as f64 / n;
    let confidence = if x == 0 { 0.0 } else { xy as f64 / x as f64 };
    let supp_y = y as f64 / n;
    let lift = if supp_y == 0.0 {
        0.0
    } else {
        confidence / supp_y
    };
    (xy, support, confidence, lift)
}

proptest! {
    #![proptest_config(irma_check::config())]

    #[test]
    fn metrics_rederive_from_counts(
        db in arb_transaction_db(8, 50),
        config in arb_rule_config(),
    ) {
        let frequent = mined(&db);
        let rules = generate(&frequent, &config);
        for rule in &rules {
            let (xy, support, confidence, lift) = recompute_metrics(&db, rule);
            prop_assert_eq!(rule.support_count, xy, "{}", rule);
            prop_assert_eq!(rule.support, support, "{}", rule);
            prop_assert_eq!(rule.confidence, confidence, "{}", rule);
            prop_assert_eq!(rule.lift, lift, "{}", rule);
        }
    }

    #[test]
    fn sides_disjoint_nonempty_and_thresholds_respected(
        db in arb_transaction_db(8, 50),
        config in arb_rule_config(),
    ) {
        let frequent = mined(&db);
        for rule in generate(&frequent, &config) {
            prop_assert!(!rule.antecedent.is_empty());
            prop_assert!(!rule.consequent.is_empty());
            prop_assert!(rule.antecedent.is_disjoint_from(&rule.consequent));
            prop_assert!(rule.lift >= config.min_lift);
            prop_assert!(rule.confidence >= config.min_confidence);
            prop_assert!(rule.support >= config.min_support);
        }
    }

    #[test]
    fn downward_closure_resolves_every_side(
        db in arb_transaction_db(8, 50),
    ) {
        // Every rule's whole itemset and both sides must be present in
        // the frequent family (this is what lets generate_rules resolve
        // counts without database rescans).
        let frequent = mined(&db);
        for rule in generate(&frequent, &RuleConfig::with_min_lift(0.0)) {
            prop_assert!(frequent.count(&rule.itemset()).is_some());
            prop_assert!(frequent.count(&rule.antecedent).is_some());
            prop_assert!(frequent.count(&rule.consequent).is_some());
        }
        // And the family itself is downward closed.
        for (set, _) in frequent.iter() {
            for sub in set.proper_subsets() {
                prop_assert!(
                    frequent.count(&sub).is_some(),
                    "subset {} of frequent {} missing", sub, set
                );
            }
        }
    }

    #[test]
    fn derived_metrics_are_consistent(
        db in arb_transaction_db(8, 50),
    ) {
        let n = db.len().max(1) as f64;
        let frequent = mined(&db);
        for rule in generate(&frequent, &RuleConfig::with_min_lift(0.0)) {
            let x = db.support_count(&rule.antecedent) as f64 / n;
            let y = db.support_count(&rule.consequent) as f64 / n;
            // antecedent/consequent supports are recovered from the stored
            // ratios, so allow for float round-trip error.
            prop_assert!((rule.antecedent_support() - x).abs() < 1e-9, "{}", rule);
            if rule.lift > 0.0 {
                prop_assert!((rule.consequent_support() - y).abs() < 1e-9, "{}", rule);
            }
            let leverage = rule.leverage();
            prop_assert!((-0.25..=0.25).contains(&leverage), "{}: leverage {}", rule, leverage);
            prop_assert!((leverage - (rule.support - x * y)).abs() < 1e-9, "{}", rule);
            prop_assert!(rule.conviction() >= 0.0, "{}", rule);
        }
    }
}
