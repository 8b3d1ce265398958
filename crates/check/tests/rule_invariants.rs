//! Rule-metric invariants: every generated rule's stored metrics must be
//! re-derivable from raw database counts, sides must be disjoint and
//! non-empty, downward closure must hold across the backing family, and
//! an analysis resolves exactly its own rules by key.

use std::collections::HashSet;

use proptest::collection::vec;
use proptest::prelude::*;

use irma_check::generators::arb_transaction_db;
use irma_core::{try_analyze, Analysis, AnalysisConfig};
use irma_data::read_csv_str;
use irma_mine::{fpgrowth, FrequentItemsets, MinerConfig, TransactionDb};
use irma_obs::Metrics;
use irma_prep::{EncoderSpec, FeatureSpec};
use irma_rules::{generate_rules, Rule, RuleConfig};

fn arb_rule_config() -> impl Strategy<Value = RuleConfig> {
    (0.0f64..3.0, 0.0f64..1.0).prop_map(|(min_lift, min_confidence)| RuleConfig {
        min_lift,
        min_confidence,
    })
}

/// Low-threshold miner config so the rule lattice is well populated.
fn mine_config() -> MinerConfig {
    MinerConfig {
        min_support: 0.05,
        max_len: 4,
    }
}

/// The low-threshold family of `db`, unbudgeted.
fn mined(db: &TransactionDb) -> FrequentItemsets {
    fpgrowth(db, &mine_config()).unwrap()
}

fn generate(frequent: &FrequentItemsets, config: &RuleConfig) -> Vec<Rule> {
    generate_rules(frequent, config, &Metrics::disabled())
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

/// A categorical table of `rows` (one small alphabet per column) as CSV,
/// with the all-categorical spec that encodes it.
fn categorical_table(rows: &[(u8, u8, u8, u8)]) -> (String, EncoderSpec) {
    let mut csv = String::from("a,b,c,d\n");
    for &(a, b, c, d) in rows {
        csv.push_str(&format!("a{a},b{b},c{c},d{d}\n"));
    }
    let spec = EncoderSpec::new(
        ["a", "b", "c", "d"]
            .map(|column| FeatureSpec::categorical(column, column))
            .to_vec(),
    );
    (csv, spec)
}

/// `find_rule` answers every generated rule with itself and every
/// candidate generation dropped with `None`, over rules held strictly
/// increasing by `(antecedent, consequent)`.
fn lookups_match_the_rule_set(analysis: &Analysis) -> Result<(), TestCaseError> {
    let key = |rule: &Rule| (rule.antecedent.clone(), rule.consequent.clone());
    for pair in analysis.rules.windows(2) {
        prop_assert!(key(&pair[0]) < key(&pair[1]), "{} !< {}", pair[0], pair[1]);
    }
    for rule in &analysis.rules {
        let found = analysis.find_rule(rule.antecedent.items(), rule.consequent.items());
        prop_assert_eq!(found, Some(rule));
    }
    // With zero confidence and support floors, the lift floor is the
    // only filter: every candidate missing from `rules` is one it dropped.
    let kept: HashSet<_> = analysis.rules.iter().map(key).collect();
    for (set, _) in analysis.frequent.iter().filter(|(set, _)| set.len() >= 2) {
        for antecedent in set.proper_subsets() {
            let consequent = set.difference(&antecedent);
            if !kept.contains(&(antecedent.clone(), consequent.clone())) {
                let found = analysis.find_rule(antecedent.items(), consequent.items());
                prop_assert!(
                    found.is_none(),
                    "dropped {} => {} found",
                    antecedent,
                    consequent
                );
            }
        }
    }
    Ok(())
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
        // A rule's support is its itemset's: the miner's floor bounds it.
        let min_count = mine_config().min_count(db.len());
        for rule in generate(&frequent, &config) {
            prop_assert!(!rule.antecedent.is_empty());
            prop_assert!(!rule.consequent.is_empty());
            prop_assert!(rule.antecedent.is_disjoint_from(&rule.consequent));
            prop_assert!(rule.lift >= config.min_lift);
            prop_assert!(rule.confidence >= config.min_confidence);
            prop_assert!(rule.support_count >= min_count);
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

    #[test]
    fn find_rule_resolves_exactly_the_generated_rules(
        rows in vec((0..3u8, 0..3u8, 0..4u8, 0..2u8), 20..120),
    ) {
        let (csv, spec) = categorical_table(&rows);
        let frame = read_csv_str(&csv).expect("generated CSV parses");
        let mut config = AnalysisConfig::default();
        config.rules.min_lift = 1.2;
        let full = try_analyze(&frame, &spec, &config).expect("unbudgeted analysis");
        prop_assert!(full.degradation.is_none());
        lookups_match_the_rule_set(&full)?;
        // A cap below the full family makes the ladder relax the support
        // (`--budget-itemsets`); a relaxed result must hold the same way.
        // The prevalence cut can leave nothing to mine, and then no cap
        // trips.
        if full.frequent.is_empty() {
            return Ok(());
        }
        config.budget.max_itemsets = Some(full.frequent.len() as u64 / 2);
        if let Ok(degraded) = try_analyze(&frame, &spec, &config) {
            prop_assert!(degraded.degradation.is_some());
            lookups_match_the_rule_set(&degraded)?;
        }
    }
}
