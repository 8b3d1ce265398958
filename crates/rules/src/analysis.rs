//! Keyword analysis: the paper's reporting unit (§IV-A).
//!
//! For one keyword (e.g. `SM Util = 0%` or `Failed`) the analysis splits
//! surviving rules into *cause* rules (keyword in the consequent, labelled
//! C1, C2, ... in the paper's tables) and *characteristic* rules (keyword
//! in the antecedent, labelled A1, A2, ...), each sorted by descending
//! confidence then lift, matching how the paper's tables are ordered.

use irma_mine::{ItemCatalog, ItemId};
use irma_obs::{Metrics, Provenance};

use crate::prune::{prune_rules, InvalidPruneParams, PruneOutcome, PruneParams};
use crate::rule::{Rule, RuleRole};

/// The pruned, classified rule set for one analysis keyword.
#[derive(Debug, Clone, Default)]
pub struct KeywordAnalysis {
    /// Rules with the keyword in the consequent ("why does this happen").
    pub causes: Vec<Rule>,
    /// Rules with the keyword in the antecedent ("what else do these jobs
    /// look like").
    pub characteristics: Vec<Rule>,
    /// The prune outcome: every removed rule with its dominator (for
    /// before/after diagnostics) and, when provenance was enabled, the
    /// run's decision log.
    pub outcome: PruneOutcome,
}

impl KeywordAnalysis {
    /// Runs keyword filtering + the four pruning conditions over `rules`,
    /// reporting the pruning stage into `metrics`; an enabled
    /// `provenance` keeps the decision log in `outcome.log` (see
    /// [`prune_rules`]).
    pub fn run(
        rules: &[Rule],
        keyword: ItemId,
        params: &PruneParams,
        metrics: &Metrics,
        provenance: &Provenance,
    ) -> Result<KeywordAnalysis, InvalidPruneParams> {
        let outcome = prune_rules(rules, keyword, params, metrics, provenance)?;
        let mut causes = Vec::new();
        let mut characteristics = Vec::new();
        for rule in &outcome.kept {
            match rule.role(keyword) {
                RuleRole::Cause => causes.push(rule.clone()),
                RuleRole::Characteristic => characteristics.push(rule.clone()),
                RuleRole::Unrelated => unreachable!("prune_rules drops unrelated rules"),
            }
        }
        causes.sort_by(Rule::cmp_by_strength);
        characteristics.sort_by(Rule::cmp_by_strength);
        Ok(KeywordAnalysis {
            causes,
            characteristics,
            outcome,
        })
    }

    /// Number of rules surviving pruning.
    pub fn n_kept(&self) -> usize {
        self.causes.len() + self.characteristics.len()
    }

    /// Number of keyword-relevant rules before pruning.
    pub fn n_before(&self) -> usize {
        self.outcome.total()
    }

    /// Renders the analysis as the paper's table layout: `C1..Cn` cause
    /// rows then `A1..An` characteristic rows, with supp/conf/lift.
    pub fn render(&self, catalog: &ItemCatalog, keyword: ItemId, top: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "keyword: {} ({} rules kept of {})\n",
            catalog.label(keyword),
            self.n_kept(),
            self.n_before()
        ));
        for (prefix, rules) in [("C", &self.causes), ("A", &self.characteristics)] {
            for (i, rule) in rules.iter().take(top).enumerate() {
                out.push_str(&format!("{}{}: {}\n", prefix, i + 1, rule.render(catalog)));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irma_mine::Itemset;

    const KW: ItemId = 5;

    /// Keyword analysis for [`KW`] with default margins, unobserved.
    fn run(rules: &[Rule]) -> KeywordAnalysis {
        KeywordAnalysis::run(
            rules,
            KW,
            &PruneParams::default(),
            &Metrics::disabled(),
            &Provenance::disabled(),
        )
        .unwrap()
    }

    fn mk(ante: &[ItemId], cons: &[ItemId], conf: f64, lift: f64) -> Rule {
        Rule {
            antecedent: Itemset::from_items(ante.iter().copied()),
            consequent: Itemset::from_items(cons.iter().copied()),
            support_count: 100,
            support: 0.1,
            confidence: conf,
            lift,
        }
    }

    #[test]
    fn splits_causes_and_characteristics() {
        let rules = vec![
            mk(&[1], &[KW], 0.9, 2.0),
            mk(&[KW], &[2], 0.8, 3.0),
            mk(&[1], &[2], 0.7, 4.0), // unrelated: dropped
        ];
        let analysis = run(&rules);
        assert_eq!(analysis.causes.len(), 1);
        assert_eq!(analysis.characteristics.len(), 1);
        assert_eq!(analysis.n_kept(), 2);
        assert_eq!(analysis.n_before(), 2);
    }

    #[test]
    fn sorted_by_confidence_then_lift() {
        let rules = vec![
            mk(&[1], &[KW], 0.7, 9.0),
            mk(&[2], &[KW], 0.9, 1.6),
            mk(&[3], &[KW], 0.7, 2.0),
        ];
        let analysis = run(&rules);
        let confs: Vec<f64> = analysis.causes.iter().map(|r| r.confidence).collect();
        assert_eq!(confs, vec![0.9, 0.7, 0.7]);
        // Tie on confidence broken by lift.
        assert!(analysis.causes[1].lift > analysis.causes[2].lift);
    }

    #[test]
    fn render_labels_rows() {
        let mut cat = ItemCatalog::new();
        for label in ["a", "b", "c", "d", "e", "Failed"] {
            cat.intern(label);
        }
        let rules = vec![mk(&[1], &[KW], 0.9, 2.0), mk(&[KW], &[2], 0.8, 3.0)];
        let analysis = run(&rules);
        let text = analysis.render(&cat, KW, 10);
        assert!(text.contains("C1: {b} => {Failed}"), "{text}");
        assert!(text.contains("A1: {Failed} => {c}"), "{text}");
    }
}
