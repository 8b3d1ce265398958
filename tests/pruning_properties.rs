//! Property tests on the rule-generation + pruning invariants, using
//! randomly generated transaction databases so the rules carry real,
//! internally consistent metrics.

use proptest::prelude::*;

use irma::mine::{fpgrowth, ItemId, Itemset, MinerConfig, TransactionDb};
use irma::obs::{Metrics, Provenance};
use irma::rules::{
    generate_rules, prune_rules, KeywordAnalysis, PruneOutcome, PruneParams, Rule, RuleConfig,
    RuleRole,
};

fn arb_db() -> impl Strategy<Value = TransactionDb> {
    prop::collection::vec(prop::collection::vec(0u32..8, 0..8), 20..120)
        .prop_map(|txns| TransactionDb::from_transactions(txns).with_universe(8))
}

fn rules_of(db: &TransactionDb, min_lift: f64) -> Vec<Rule> {
    let metrics = Metrics::disabled();
    let config = MinerConfig::with_min_support(0.05);
    let frequent = fpgrowth(db, &config).unwrap();
    generate_rules(&frequent, &RuleConfig::with_min_lift(min_lift), &metrics)
}

/// Prunes for `keyword` without observability.
fn prune(rules: &[Rule], keyword: ItemId, params: &PruneParams) -> PruneOutcome {
    prune_rules(
        rules,
        keyword,
        params,
        &Metrics::disabled(),
        &Provenance::disabled(),
    )
    .expect("valid margins")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rule_metrics_consistent_with_db(db in arb_db()) {
        let rules = rules_of(&db, 1.0);
        let n = db.len() as f64;
        for rule in &rules {
            let xy = db.support_count(&rule.itemset()) as f64;
            let x = db.support_count(&rule.antecedent) as f64;
            let y = db.support_count(&rule.consequent) as f64;
            prop_assert!((rule.support - xy / n).abs() < 1e-9);
            prop_assert!((rule.confidence - xy / x).abs() < 1e-9);
            prop_assert!((rule.lift - (xy / x) / (y / n)).abs() < 1e-9);
        }
    }

    #[test]
    fn kept_plus_pruned_equals_relevant(db in arb_db(), keyword in 0u32..8) {
        let rules = rules_of(&db, 1.0);
        let out = prune(&rules, keyword as ItemId, &PruneParams::default());
        let relevant = rules
            .iter()
            .filter(|r| r.contains(keyword))
            .count();
        prop_assert_eq!(out.kept.len() + out.pruned.len(), relevant);
        // No rule appears in both lists.
        for kept in &out.kept {
            prop_assert!(!out.pruned.iter().any(|p| p.rule == *kept));
        }
        // Every kept rule contains the keyword.
        for kept in &out.kept {
            prop_assert!(kept.contains(keyword));
        }
    }

    #[test]
    fn pruning_is_idempotent(db in arb_db(), keyword in 0u32..8) {
        let rules = rules_of(&db, 1.0);
        let params = PruneParams::default();
        let once = prune(&rules, keyword as ItemId, &params);
        let twice = prune(&once.kept, keyword as ItemId, &params);
        prop_assert_eq!(&once.kept, &twice.kept, "second pass pruned more");
        prop_assert!(twice.pruned.is_empty());
    }

    #[test]
    fn pruning_is_deterministic(db in arb_db(), keyword in 0u32..8) {
        let rules = rules_of(&db, 1.0);
        let a = prune(&rules, keyword as ItemId, &PruneParams::default());
        let mut shuffled = rules.clone();
        shuffled.reverse();
        let b = prune(&shuffled, keyword as ItemId, &PruneParams::default());
        prop_assert_eq!(a.kept, b.kept, "input order changed the outcome");
    }

    #[test]
    fn higher_lift_floor_never_adds_rules(db in arb_db()) {
        let low = rules_of(&db, 1.0);
        let high = rules_of(&db, 2.0);
        prop_assert!(high.len() <= low.len());
        for rule in &high {
            prop_assert!(low.contains(rule));
        }
    }

    #[test]
    fn keyword_analysis_partitions_by_role(db in arb_db(), keyword in 0u32..8) {
        let rules = rules_of(&db, 1.0);
        let analysis = KeywordAnalysis::run(
            &rules,
            keyword as ItemId,
            &PruneParams::default(),
            &Metrics::disabled(),
            &Provenance::disabled(),
        )
        .unwrap();
        for rule in &analysis.causes {
            prop_assert_eq!(rule.role(keyword as ItemId), RuleRole::Cause);
        }
        for rule in &analysis.characteristics {
            prop_assert_eq!(rule.role(keyword as ItemId), RuleRole::Characteristic);
        }
        prop_assert_eq!(
            analysis.n_kept(),
            analysis.causes.len() + analysis.characteristics.len()
        );
    }

    #[test]
    fn rule_sides_partition_their_itemset(db in arb_db()) {
        let rules = rules_of(&db, 1.0);
        for rule in &rules {
            let union = rule.antecedent.union(&rule.consequent);
            prop_assert_eq!(union.len(), rule.len());
            prop_assert!(rule.antecedent.is_disjoint_from(&rule.consequent));
            prop_assert!(rule.itemset() == union);
            prop_assert!(rule.itemset().len() <= 5, "max itemset length");
            let _ = Itemset::from_items(rule.itemset().items().iter().copied());
        }
    }
}
