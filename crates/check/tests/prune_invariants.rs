//! Pruning invariants: marking semantics make the outcome independent of
//! input order, keyword-free rules never participate, and kept + pruned
//! partition the keyword-relevant input.

use proptest::prelude::*;

use irma_check::generators::{arb_transaction_db, shuffled};
use irma_mine::{fpgrowth, ItemId, MinerConfig};
use irma_obs::{Metrics, Provenance};
use irma_rules::{
    generate_rules, prune_rules, PruneOutcome, PruneParams, Rule, RuleConfig, RuleRole,
};

fn arb_prune_params() -> impl Strategy<Value = PruneParams> {
    (1.0f64..3.0, 1.0f64..3.0).prop_map(|(c_lift, c_supp)| PruneParams { c_lift, c_supp })
}

/// Rules mined from a random database at permissive thresholds, so the
/// lattice contains the nested families pruning operates on.
fn rules_from(db: &irma_mine::TransactionDb) -> Vec<Rule> {
    let config = MinerConfig {
        min_support: 0.05,
        max_len: 4,
    };
    let metrics = Metrics::disabled();
    let frequent = fpgrowth(db, &config).unwrap();
    generate_rules(&frequent, &RuleConfig::with_min_lift(0.0), &metrics)
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
    .expect("margins drawn >= 1")
}

proptest! {
    #![proptest_config(irma_check::config())]

    #[test]
    fn outcome_is_order_independent(
        db in arb_transaction_db(7, 50),
        keyword in 0u32..7,
        params in arb_prune_params(),
        draws in proptest::collection::vec(proptest::any::<u64>(), 1..32),
    ) {
        let rules = rules_from(&db);
        let baseline = prune(&rules, keyword as ItemId, &params);
        let permuted = prune(&shuffled(&rules, &draws), keyword as ItemId, &params);
        prop_assert_eq!(&baseline.kept, &permuted.kept);
        prop_assert_eq!(&baseline.pruned, &permuted.pruned);
    }

    #[test]
    fn kept_and_pruned_partition_relevant_rules(
        db in arb_transaction_db(7, 50),
        keyword in 0u32..7,
        params in arb_prune_params(),
    ) {
        let rules = rules_from(&db);
        let keyword = keyword as ItemId;
        let relevant = rules
            .iter()
            .filter(|r| r.role(keyword) != RuleRole::Unrelated)
            .count();
        let outcome = prune(&rules, keyword, &params);
        prop_assert_eq!(outcome.total(), relevant);
        // Every reported rule (kept or pruned) involves the keyword, and
        // no rule appears on both sides.
        for rule in &outcome.kept {
            prop_assert!(rule.role(keyword) != RuleRole::Unrelated, "{}", rule);
        }
        for record in &outcome.pruned {
            prop_assert!(record.rule.role(keyword) != RuleRole::Unrelated, "{}", record.rule);
            prop_assert!(
                !outcome.kept.contains(&record.rule),
                "{} both kept and pruned", record.rule
            );
        }
    }

    #[test]
    fn dominators_come_from_the_input(
        db in arb_transaction_db(7, 50),
        keyword in 0u32..7,
        params in arb_prune_params(),
    ) {
        // Each prune record points at a rule that actually exists in the
        // keyword-relevant input ("exists two rules" semantics: the
        // dominator may itself have been pruned, but never invented).
        let rules = rules_from(&db);
        let outcome = prune(&rules, keyword as ItemId, &params);
        for record in &outcome.pruned {
            let (ante, cons) = &record.dominated_by;
            prop_assert!(
                rules
                    .iter()
                    .any(|r| &r.antecedent == ante && &r.consequent == cons),
                "dominator {} => {} not in input", ante, cons
            );
        }
    }

    #[test]
    fn outcome_is_deterministic(
        db in arb_transaction_db(7, 50),
        keyword in 0u32..7,
        params in arb_prune_params(),
    ) {
        // The implementation groups candidate pairs through a HashMap; the
        // canonical sorts must fully mask its iteration order, making two
        // runs byte-identical (kept order, pruned order, and provenance).
        //
        // Note: kept-set *size* is deliberately not asserted monotone in
        // the margins — the harness disproved that hypothesis: growing
        // C_lift can flip which rule of a nested pair loses (condition 1
        // prunes the long rule where the support branch would have pruned
        // the short one), and via marking chains that can leave MORE rules
        // alive, not fewer.
        let rules = rules_from(&db);
        let first = prune(&rules, keyword as ItemId, &params);
        let second = prune(&rules, keyword as ItemId, &params);
        prop_assert_eq!(&first.kept, &second.kept);
        prop_assert_eq!(&first.pruned, &second.pruned);
    }
}
