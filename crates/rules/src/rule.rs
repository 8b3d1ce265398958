//! Association rules and their quality metrics.

use std::cmp::Ordering;
use std::fmt;

use irma_mine::{ItemCatalog, ItemId, Itemset};

/// An association rule `antecedent => consequent` with its metrics.
///
/// Metrics follow §III-B of the paper:
/// * `support`    — P(X, Y), fraction of transactions containing both sides;
/// * `confidence` — P(Y | X);
/// * `lift`       — P(X, Y) / (P(X) · P(Y)); 1.0 means independence.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Left-hand side X (never empty, disjoint from `consequent`).
    pub antecedent: Itemset,
    /// Right-hand side Y (never empty).
    pub consequent: Itemset,
    /// Absolute transaction count of X ∪ Y.
    pub support_count: u64,
    /// supp(X ⇒ Y) ∈ [0, 1].
    pub support: f64,
    /// conf(X ⇒ Y) ∈ [0, 1].
    pub confidence: f64,
    /// lift(X ⇒ Y) ∈ [0, ∞).
    pub lift: f64,
}

impl Rule {
    /// Computes a rule's metrics from raw counts.
    ///
    /// `xy_count`, `x_count`, `y_count` are the support counts of X ∪ Y,
    /// X, and Y respectively over `n_transactions` transactions.
    pub fn from_counts(
        antecedent: Itemset,
        consequent: Itemset,
        xy_count: u64,
        x_count: u64,
        y_count: u64,
        n_transactions: usize,
    ) -> Rule {
        debug_assert!(!antecedent.is_empty() && !consequent.is_empty());
        debug_assert!(antecedent.is_disjoint_from(&consequent));
        debug_assert!(xy_count <= x_count && xy_count <= y_count);
        let n = n_transactions.max(1) as f64;
        let support = xy_count as f64 / n;
        let confidence = if x_count == 0 {
            0.0
        } else {
            xy_count as f64 / x_count as f64
        };
        let supp_y = y_count as f64 / n;
        let lift = if supp_y == 0.0 {
            0.0
        } else {
            confidence / supp_y
        };
        Rule {
            antecedent,
            consequent,
            support_count: xy_count,
            support,
            confidence,
            lift,
        }
    }

    /// The full itemset X ∪ Y this rule was generated from.
    pub fn itemset(&self) -> Itemset {
        self.antecedent.union(&self.consequent)
    }

    /// Support of the antecedent alone, `P(X)`, recovered from the stored
    /// metrics (`supp / conf`).
    pub fn antecedent_support(&self) -> f64 {
        if self.confidence == 0.0 {
            0.0
        } else {
            self.support / self.confidence
        }
    }

    /// Support of the consequent alone, `P(Y)`, recovered from the stored
    /// metrics (`conf / lift`).
    pub fn consequent_support(&self) -> f64 {
        if self.lift == 0.0 {
            0.0
        } else {
            self.confidence / self.lift
        }
    }

    /// Leverage (a.k.a. Piatetsky-Shapiro): `P(X,Y) - P(X)·P(Y)`, the
    /// absolute co-occurrence excess over independence, in `[-0.25, 0.25]`.
    ///
    /// Complements lift: lift is a *ratio* and explodes on rare itemsets;
    /// leverage weights the same dependence by how much traffic it covers.
    pub fn leverage(&self) -> f64 {
        if self.lift == 0.0 {
            0.0
        } else {
            self.support * (1.0 - 1.0 / self.lift)
        }
    }

    /// Conviction: `(1 - P(Y)) / (1 - conf)`, in `[0, ∞]`.
    ///
    /// Measures how much more often X would occur without Y if they were
    /// independent; 1.0 means independence, `inf` means the rule never
    /// misfires (confidence 1).
    pub fn conviction(&self) -> f64 {
        let supp_y = self.consequent_support();
        if self.confidence >= 1.0 {
            f64::INFINITY
        } else {
            (1.0 - supp_y) / (1.0 - self.confidence)
        }
    }

    /// Total number of items across both sides.
    pub fn len(&self) -> usize {
        self.antecedent.len() + self.consequent.len()
    }

    /// Rules are never empty; provided for clippy symmetry.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// True when `item` appears on either side.
    pub fn contains(&self, item: ItemId) -> bool {
        self.antecedent.contains(item) || self.consequent.contains(item)
    }

    /// Renders the rule with human-readable labels.
    pub fn render(&self, catalog: &ItemCatalog) -> String {
        format!(
            "{} => {}  (supp={:.2}, conf={:.2}, lift={:.2})",
            catalog.render(&self.antecedent),
            catalog.render(&self.consequent),
            self.support,
            self.confidence,
            self.lift
        )
    }

    /// Canonical ordering key: by antecedent, then consequent.
    pub fn key(&self) -> (Itemset, Itemset) {
        (self.antecedent.clone(), self.consequent.clone())
    }

    /// Descending lift, ties in [`Rule::key`] order: the order of every
    /// "top rules by lift" listing.
    pub fn cmp_by_lift(&self, other: &Rule) -> Ordering {
        other
            .lift
            .total_cmp(&self.lift)
            .then_with(|| self.cmp_key(other))
    }

    /// Descending confidence, then descending lift, ties in
    /// [`Rule::key`] order: the order of the paper's keyword tables.
    pub fn cmp_by_strength(&self, other: &Rule) -> Ordering {
        other
            .confidence
            .total_cmp(&self.confidence)
            .then_with(|| self.cmp_by_lift(other))
    }

    /// [`Rule::key`] order without cloning either side.
    fn cmp_key(&self, other: &Rule) -> Ordering {
        self.antecedent
            .cmp(&other.antecedent)
            .then_with(|| self.consequent.cmp(&other.consequent))
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} => {} (supp={:.3}, conf={:.3}, lift={:.3})",
            self.antecedent, self.consequent, self.support, self.confidence, self.lift
        )
    }
}

/// Which side of a rule a keyword occupies (§IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleRole {
    /// Keyword in the consequent: the rule explains *causes* of the keyword.
    Cause,
    /// Keyword in the antecedent: the rule lists *characteristics* of jobs
    /// showing the keyword.
    Characteristic,
    /// Keyword on both sides cannot happen (sides are disjoint); keyword on
    /// neither side means the rule is irrelevant to the analysis.
    Unrelated,
}

impl Rule {
    /// Classifies the rule relative to an analysis keyword.
    pub fn role(&self, keyword: ItemId) -> RuleRole {
        if self.consequent.contains(keyword) {
            RuleRole::Cause
        } else if self.antecedent.contains(keyword) {
            RuleRole::Characteristic
        } else {
            RuleRole::Unrelated
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule() -> Rule {
        Rule::from_counts(
            Itemset::from_items([0]),
            Itemset::from_items([1]),
            20,
            25,
            40,
            100,
        )
    }

    #[test]
    fn metrics_from_counts() {
        let r = rule();
        assert!((r.support - 0.20).abs() < 1e-12);
        assert!((r.confidence - 0.80).abs() < 1e-12);
        assert!((r.lift - 2.0).abs() < 1e-12);
        assert_eq!(r.support_count, 20);
    }

    #[test]
    fn lift_one_means_independence() {
        // P(X)=0.5, P(Y)=0.4, P(XY)=0.2 => independent.
        let r = Rule::from_counts(
            Itemset::from_items([0]),
            Itemset::from_items([1]),
            20,
            50,
            40,
            100,
        );
        assert!((r.lift - 1.0).abs() < 1e-12);
    }

    #[test]
    fn derived_supports_recovered() {
        let r = rule(); // sigma: XY=20, X=25, Y=40, N=100
        assert!((r.antecedent_support() - 0.25).abs() < 1e-12);
        assert!((r.consequent_support() - 0.40).abs() < 1e-12);
    }

    #[test]
    fn leverage_matches_definition() {
        let r = rule();
        // P(XY) - P(X)P(Y) = 0.20 - 0.25*0.40 = 0.10.
        assert!((r.leverage() - 0.10).abs() < 1e-12);
        // Independent rule has zero leverage.
        let indep = Rule::from_counts(
            Itemset::from_items([0]),
            Itemset::from_items([1]),
            20,
            50,
            40,
            100,
        );
        assert!(indep.leverage().abs() < 1e-12);
    }

    #[test]
    fn conviction_matches_definition() {
        let r = rule();
        // (1 - 0.4) / (1 - 0.8) = 3.0.
        assert!((r.conviction() - 3.0).abs() < 1e-12);
        // Perfect confidence -> infinite conviction.
        let perfect = Rule::from_counts(
            Itemset::from_items([0]),
            Itemset::from_items([1]),
            25,
            25,
            40,
            100,
        );
        assert!(perfect.conviction().is_infinite());
    }

    #[test]
    fn role_classification() {
        let r = rule();
        assert_eq!(r.role(1), RuleRole::Cause);
        assert_eq!(r.role(0), RuleRole::Characteristic);
        assert_eq!(r.role(7), RuleRole::Unrelated);
    }

    #[test]
    fn itemset_union_and_contains() {
        let r = rule();
        assert_eq!(r.itemset(), Itemset::from_items([0, 1]));
        assert!(r.contains(0));
        assert!(r.contains(1));
        assert!(!r.contains(2));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn render_with_catalog() {
        let mut cat = ItemCatalog::new();
        cat.intern("CPU Util = Bin1");
        cat.intern("SM Util = 0%");
        let r = rule();
        let s = r.render(&cat);
        assert!(s.contains("{CPU Util = Bin1} => {SM Util = 0%}"), "{s}");
    }
}
