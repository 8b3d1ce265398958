//! Rule generation from the frequent-itemset lattice.
//!
//! Every frequent itemset Z of length >= 2 yields candidate rules X => Z\X
//! for each non-empty proper subset X of Z. Because every subset of a
//! frequent itemset is itself frequent (downward closure), all three counts
//! a rule needs — σ(Z), σ(X), σ(Z\X) — resolve with O(1) lookups into the
//! mined family; no database rescans. Itemsets are processed in parallel
//! with rayon (each is independent).

use irma_obs::{GenFilter, Metrics, Provenance};
use rayon::prelude::*;

use irma_mine::FrequentItemsets;

use crate::rule::Rule;

/// Thresholds applied at rule-generation time.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleConfig {
    /// Minimum lift for a rule to be kept. The paper uses 1.5 — "50% more
    /// likely to appear together than expected under independence" (§III-D).
    pub min_lift: f64,
    /// Optional minimum confidence (the paper relies on lift alone; case
    /// studies report confidence but do not threshold it).
    pub min_confidence: f64,
    /// Optional minimum support for the whole rule.
    pub min_support: f64,
}

impl Default for RuleConfig {
    fn default() -> RuleConfig {
        RuleConfig {
            min_lift: 1.5,
            min_confidence: 0.0,
            min_support: 0.0,
        }
    }
}

impl RuleConfig {
    /// Config with only a lift floor.
    pub fn with_min_lift(min_lift: f64) -> RuleConfig {
        RuleConfig {
            min_lift,
            ..RuleConfig::default()
        }
    }
}

/// Generates all rules meeting `config` from a mined itemset family.
///
/// Output is deterministic: sorted by antecedent, then consequent. Emits
/// a `rules.generate` stage event (itemsets in, rule-bearing itemsets,
/// rules out) into `metrics`, and records every candidate rule in
/// `provenance` — either as a survivor or tagged with the first threshold
/// (`lift`, `confidence`, `support`) that dropped it.
pub fn generate_rules(
    frequent: &FrequentItemsets,
    config: &RuleConfig,
    metrics: &Metrics,
    provenance: &Provenance,
) -> Vec<Rule> {
    let mut span = metrics.span("rules.generate");
    let rules = generate_rules_inner(frequent, config, provenance);
    span.field("itemsets_in", frequent.len() as u64);
    span.field(
        "candidate_itemsets",
        frequent.iter().filter(|(s, _)| s.len() >= 2).count() as u64,
    );
    span.field("rules_out", rules.len() as u64);
    rules
}

/// Which generation threshold (if any) rejects `rule`, checked in the
/// order the filter short-circuits.
fn gen_filter(rule: &Rule, config: &RuleConfig) -> Option<GenFilter> {
    if rule.lift < config.min_lift {
        Some(GenFilter {
            metric: "lift",
            value: rule.lift,
            threshold: config.min_lift,
        })
    } else if rule.confidence < config.min_confidence {
        Some(GenFilter {
            metric: "confidence",
            value: rule.confidence,
            threshold: config.min_confidence,
        })
    } else if rule.support < config.min_support {
        Some(GenFilter {
            metric: "support",
            value: rule.support,
            threshold: config.min_support,
        })
    } else {
        None
    }
}

fn generate_rules_inner(
    frequent: &FrequentItemsets,
    config: &RuleConfig,
    provenance: &Provenance,
) -> Vec<Rule> {
    let n = frequent.n_transactions();
    let mut rules: Vec<Rule> = frequent
        .as_slice()
        .par_iter()
        .filter(|(set, _)| set.len() >= 2)
        .flat_map_iter(|(set, xy_count)| {
            let mut local = Vec::new();
            for antecedent in set.proper_subsets() {
                let consequent = set.difference(&antecedent);
                let x_count = frequent
                    .count(&antecedent)
                    .expect("downward closure: antecedent must be frequent");
                let y_count = frequent
                    .count(&consequent)
                    .expect("downward closure: consequent must be frequent");
                let rule =
                    Rule::from_counts(antecedent, consequent, *xy_count, x_count, y_count, n);
                let filtered = gen_filter(&rule, config);
                if provenance.is_enabled() {
                    provenance.record_candidate(rule.provenance_info(), filtered);
                }
                if filtered.is_none() {
                    local.push(rule);
                }
            }
            local
        })
        .collect();
    rules.sort_unstable_by(|a, b| {
        a.antecedent
            .cmp(&b.antecedent)
            .then_with(|| a.consequent.cmp(&b.consequent))
    });
    rules
}

#[cfg(test)]
mod tests {
    use super::*;
    use irma_mine::{fpgrowth, BudgetGuard, MinerConfig, TransactionDb};

    /// 0 and 1 co-occur strongly; 2 is independent noise.
    fn db() -> TransactionDb {
        let mut txns = Vec::new();
        for i in 0..40 {
            if i < 16 {
                txns.push(vec![0, 1]); // joint
            } else if i < 24 {
                txns.push(vec![0]);
            } else if i < 28 {
                txns.push(vec![1]);
            } else {
                txns.push(vec![2]);
            }
        }
        TransactionDb::from_transactions(txns)
    }

    fn mined() -> FrequentItemsets {
        let config = MinerConfig::with_min_support(0.05);
        fpgrowth(
            &db(),
            &config,
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

    #[test]
    fn generates_both_directions() {
        let rules = generate(&mined(), &RuleConfig::with_min_lift(1.0));
        // {0}=>{1} and {1}=>{0} both pass lift >= 1.
        assert!(rules.iter().any(|r| r.antecedent.items() == [0]));
        assert!(rules.iter().any(|r| r.antecedent.items() == [1]));
    }

    #[test]
    fn metrics_are_exact() {
        let rules = generate(&mined(), &RuleConfig::with_min_lift(0.0));
        let r = rules
            .iter()
            .find(|r| r.antecedent.items() == [0] && r.consequent.items() == [1])
            .expect("rule {0}=>{1}");
        // sigma(01)=16, sigma(0)=24, sigma(1)=20, N=40.
        assert!((r.support - 0.4).abs() < 1e-12);
        assert!((r.confidence - 16.0 / 24.0).abs() < 1e-12);
        assert!((r.lift - (16.0 / 24.0) / 0.5).abs() < 1e-12);
    }

    #[test]
    fn lift_threshold_filters() {
        // Both {0}=>{1} and {1}=>{0} have lift 4/3; a threshold between
        // passes them, a higher one removes them.
        let all = generate(&mined(), &RuleConfig::with_min_lift(1.3));
        assert_eq!(all.len(), 2);
        assert!(all.iter().all(|r| r.lift >= 1.3));
        let strict = generate(&mined(), &RuleConfig::with_min_lift(1.34));
        assert!(strict.is_empty());
    }

    #[test]
    fn confidence_threshold_filters() {
        let config = RuleConfig {
            min_lift: 0.0,
            min_confidence: 0.7,
            min_support: 0.0,
        };
        let rules = generate(&mined(), &config);
        assert!(rules.iter().all(|r| r.confidence >= 0.7));
        assert!(!rules.is_empty());
    }

    #[test]
    fn sides_always_disjoint_and_nonempty() {
        let rules = generate(&mined(), &RuleConfig::with_min_lift(0.0));
        for r in &rules {
            assert!(!r.antecedent.is_empty());
            assert!(!r.consequent.is_empty());
            assert!(r.antecedent.is_disjoint_from(&r.consequent));
        }
    }

    #[test]
    fn deterministic_order() {
        let a = generate(&mined(), &RuleConfig::with_min_lift(0.0));
        let b = generate(&mined(), &RuleConfig::with_min_lift(0.0));
        assert_eq!(a, b);
    }
}
