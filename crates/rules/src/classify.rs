//! Rule-based classification.
//!
//! The paper's PAI takeaway (§IV-C): "the presence of multiple strong
//! rules indicates that a simple rule-based or tree-based classifier will
//! suffice for prediction of job failures". This module is that
//! classifier: cause rules (keyword in the consequent) become an ordered
//! rule list; a job is scored by the best-confidence rule whose antecedent
//! it satisfies. Unlike a black-box model, every positive prediction
//! carries the rule that fired — the interpretability property the paper
//! is about.

use irma_mine::{is_sorted_subset, ItemId, TransactionDb};

use crate::rule::{Rule, RuleRole};

/// An ordered-rule-list classifier for one keyword.
#[derive(Debug, Clone)]
pub struct RuleClassifier {
    keyword: ItemId,
    /// Cause rules sorted by descending confidence (then lift).
    rules: Vec<Rule>,
}

impl RuleClassifier {
    /// Builds a classifier from generated rules.
    ///
    /// Keeps rules with the keyword in the consequent and confidence at
    /// least `min_confidence`; callers usually pass the *pruned* keyword
    /// rule set so the list stays small and readable.
    pub fn train(rules: &[Rule], keyword: ItemId, min_confidence: f64) -> RuleClassifier {
        let mut selected: Vec<Rule> = rules
            .iter()
            .filter(|r| r.role(keyword) == RuleRole::Cause && r.confidence >= min_confidence)
            .cloned()
            .collect();
        selected.sort_by(Rule::cmp_by_strength);
        RuleClassifier {
            keyword,
            rules: selected,
        }
    }

    /// The keyword this classifier predicts.
    pub fn keyword(&self) -> ItemId {
        self.keyword
    }

    /// The ordered rule list.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// The highest-confidence rule whose antecedent is contained in the
    /// (sorted) transaction — the *explanation* for a positive prediction.
    pub fn matching_rule(&self, txn: &[ItemId]) -> Option<&Rule> {
        debug_assert!(txn.windows(2).all(|w| w[0] < w[1]), "txn must be sorted");
        self.rules
            .iter()
            .find(|r| is_sorted_subset(r.antecedent.items(), txn))
    }

    /// Confidence of the best matching rule, or 0.0 when none fires.
    pub fn score(&self, txn: &[ItemId]) -> f64 {
        self.matching_rule(txn).map_or(0.0, |r| r.confidence)
    }

    /// Positive iff some rule with confidence >= `threshold` fires.
    pub fn predict(&self, txn: &[ItemId], threshold: f64) -> bool {
        self.score(txn) >= threshold
    }

    /// Evaluates on a labelled database: the ground truth for each
    /// transaction is whether it contains the keyword item; the keyword
    /// itself never participates in matching (cause-rule antecedents are
    /// disjoint from it by construction).
    pub fn evaluate(&self, db: &TransactionDb, threshold: f64) -> Evaluation {
        let mut eval = Evaluation::default();
        for txn in db.iter() {
            let truth = txn.binary_search(&self.keyword).is_ok();
            let predicted = self.predict(txn, threshold);
            match (predicted, truth) {
                (true, true) => eval.tp += 1,
                (true, false) => eval.fp += 1,
                (false, true) => eval.fn_ += 1,
                (false, false) => eval.tn += 1,
            }
        }
        eval
    }
}

/// Confusion-matrix summary of a classifier run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Evaluation {
    /// True positives.
    pub tp: usize,
    /// False positives.
    pub fp: usize,
    /// True negatives.
    pub tn: usize,
    /// False negatives.
    pub fn_: usize,
}

impl Evaluation {
    /// Total evaluated transactions.
    pub fn total(&self) -> usize {
        self.tp + self.fp + self.tn + self.fn_
    }

    /// Precision: TP / (TP + FP); 0 when nothing was predicted positive.
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            0.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    /// Recall: TP / (TP + FN); 0 when there are no positives.
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            0.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }

    /// F1 score (harmonic mean of precision and recall).
    pub fn f1(&self) -> f64 {
        let (p, r) = (self.precision(), self.recall());
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Accuracy.
    pub fn accuracy(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            (self.tp + self.tn) as f64 / self.total() as f64
        }
    }

    /// Share of ground-truth positives (the majority-baseline reference).
    pub fn base_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            (self.tp + self.fn_) as f64 / self.total() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irma_mine::Itemset;

    const KW: ItemId = 9;

    fn mk(ante: &[ItemId], cons: &[ItemId], conf: f64, lift: f64) -> Rule {
        Rule {
            antecedent: Itemset::from_items(ante.iter().copied()),
            consequent: Itemset::from_items(cons.iter().copied()),
            support_count: 50,
            support: 0.1,
            confidence: conf,
            lift,
        }
    }

    fn classifier() -> RuleClassifier {
        let rules = vec![
            mk(&[1], &[KW], 0.9, 3.0),
            mk(&[2, 3], &[KW], 0.7, 2.0),
            mk(&[KW], &[4], 0.99, 5.0), // characteristic: must be ignored
            mk(&[5], &[6], 0.99, 5.0),  // unrelated: must be ignored
            mk(&[4], &[KW], 0.4, 1.6),  // below min_confidence
        ];
        RuleClassifier::train(&rules, KW, 0.5)
    }

    #[test]
    fn training_selects_cause_rules_only() {
        let c = classifier();
        assert_eq!(c.rules().len(), 2);
        assert!(c.rules().iter().all(|r| r.consequent.contains(KW)));
        // Sorted by confidence.
        assert!(c.rules()[0].confidence >= c.rules()[1].confidence);
    }

    #[test]
    fn matching_prefers_highest_confidence() {
        let c = classifier();
        // txn satisfies both rules; the 0.9 one should explain.
        let r = c.matching_rule(&[1, 2, 3]).expect("match");
        assert!((r.confidence - 0.9).abs() < 1e-12);
        assert_eq!(c.score(&[2, 3]), 0.7);
        assert_eq!(c.score(&[2]), 0.0);
    }

    #[test]
    fn predict_thresholds() {
        let c = classifier();
        assert!(c.predict(&[1], 0.8));
        assert!(!c.predict(&[2, 3], 0.8));
        assert!(c.predict(&[2, 3], 0.6));
    }

    #[test]
    fn evaluation_confusion_matrix() {
        let c = classifier();
        let db = TransactionDb::from_transactions(vec![
            vec![1, KW],    // predicted + true  -> TP
            vec![1],        // predicted, false  -> FP
            vec![7, KW],    // not predicted, true -> FN
            vec![7],        // negative          -> TN
            vec![2, 3, KW], // predicted + true  -> TP
        ]);
        let e = c.evaluate(&db, 0.5);
        assert_eq!((e.tp, e.fp, e.fn_, e.tn), (2, 1, 1, 1));
        assert!((e.precision() - 2.0 / 3.0).abs() < 1e-12);
        assert!((e.recall() - 2.0 / 3.0).abs() < 1e-12);
        assert!((e.base_rate() - 0.6).abs() < 1e-12);
        assert!(e.f1() > 0.6);
        assert_eq!(e.total(), 5);
    }

    #[test]
    fn empty_evaluation_is_safe() {
        let e = Evaluation::default();
        assert_eq!(e.precision(), 0.0);
        assert_eq!(e.recall(), 0.0);
        assert_eq!(e.f1(), 0.0);
        assert_eq!(e.accuracy(), 0.0);
    }
}
