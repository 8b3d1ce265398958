//! Trie-vs-flat pruning differential suite.
//!
//! The trie-driven `prune_rules` promises a *byte-identical*
//! output contract to the flat all-pairs implementation it replaced —
//! same kept rules, same `PruneRecord` sequence, same provenance records
//! — at any rayon pool width. This suite pits it against the preserved
//! oracle ([`irma_check::flat_prune`]) on mined and synthetic rule sets
//! at widths 1/2/8, checks the raw trie walks against brute-force subset
//! scans, and pins the non-monotone `C_lift` counterexample from the
//! `provenance_fixture` suite at both margins.

use proptest::prelude::*;
use rayon::ThreadPoolBuilder;

use irma_check::flat_prune::flat_prune_rules;
use irma_check::generators::arb_transaction_db;
use irma_mine::{
    fpgrowth, is_sorted_subset, BudgetGuard, FrequentItemsets, ItemId, Itemset, MinerConfig,
    TransactionDb,
};
use irma_obs::{Metrics, Provenance};
use irma_rules::{generate_rules, prune_rules, PruneParams, Rule, RuleConfig, RuleTrie};

/// The pool widths every equivalence case runs at (the determinism claim:
/// group parallelism must not leak into the output).
const WIDTHS: [usize; 3] = [1, 2, 8];

fn arb_prune_params() -> impl Strategy<Value = PruneParams> {
    (1.0f64..3.0, 1.0f64..3.0).prop_map(|(c_lift, c_supp)| PruneParams { c_lift, c_supp })
}

/// Asserts trie prune ≡ flat prune byte-identically at every width.
fn assert_equivalent(
    rules: &[Rule],
    keyword: ItemId,
    params: &PruneParams,
) -> Result<(), TestCaseError> {
    let flat_provenance = Provenance::enabled();
    let expected = flat_prune_rules(rules, keyword, params, &flat_provenance);
    let expected_records = flat_provenance.records();
    for &width in &WIDTHS {
        let pool = ThreadPoolBuilder::new()
            .num_threads(width)
            .build()
            .expect("pool");
        let trie_provenance = Provenance::enabled();
        let actual = pool.install(|| {
            prune_rules(
                rules,
                keyword,
                params,
                &Metrics::disabled(),
                &trie_provenance,
            )
        });
        let actual = actual.expect("margins drawn >= 1");
        prop_assert_eq!(&expected.kept, &actual.kept, "kept set at width {}", width);
        prop_assert_eq!(
            &expected.pruned,
            &actual.pruned,
            "PruneRecord sequence at width {}",
            width
        );
        prop_assert_eq!(
            &expected_records,
            &trie_provenance.records(),
            "provenance records at width {}",
            width
        );
    }
    Ok(())
}

/// Mines `db` unbudgeted and generates its rules, both unobserved.
fn mine_rules(db: &TransactionDb, config: &MinerConfig, rules: &RuleConfig) -> Vec<Rule> {
    let metrics = Metrics::disabled();
    let frequent: FrequentItemsets =
        fpgrowth(db, config, &metrics, &BudgetGuard::unlimited()).expect("valid config");
    generate_rules(&frequent, rules, &metrics, &Provenance::disabled())
}

/// Rules mined from a random database at permissive thresholds, so the
/// lattice contains the nested families pruning operates on.
fn rules_from(db: &TransactionDb) -> Vec<Rule> {
    let config = MinerConfig {
        min_support: 0.05,
        max_len: 4,
        parallel: false,
    };
    mine_rules(db, &config, &RuleConfig::with_min_lift(0.0))
}

/// Synthetic rules straight from bitmask draws: both sides over a 6-item
/// universe (so nesting is common), quantized metrics (so comparisons hit
/// both margins of every branch).
fn arb_synthetic_rules() -> impl Strategy<Value = Vec<Rule>> {
    proptest::collection::vec((1u32..64, 1u32..64, 1u32..=20, 1u32..=40), 0..24).prop_map(|draws| {
        draws
            .into_iter()
            .filter_map(|(ante_mask, cons_mask, supp_q, lift_q)| {
                let cons_mask = cons_mask & !ante_mask;
                if cons_mask == 0 {
                    return None;
                }
                let items = |mask: u32| (0..6).filter(move |bit| mask & (1 << bit) != 0);
                let support = f64::from(supp_q) / 20.0;
                Some(Rule {
                    antecedent: Itemset::from_items(items(ante_mask)),
                    consequent: Itemset::from_items(items(cons_mask)),
                    support_count: u64::from(supp_q) * 50,
                    support,
                    confidence: support.sqrt(),
                    lift: f64::from(lift_q) / 8.0,
                })
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(irma_check::config())]

    #[test]
    fn mined_rules_prune_identically(
        db in arb_transaction_db(7, 50),
        keyword in 0u32..7,
        params in arb_prune_params(),
    ) {
        let rules = rules_from(&db);
        assert_equivalent(&rules, keyword as ItemId, &params)?;
    }

    #[test]
    fn synthetic_nested_families_prune_identically(
        rules in arb_synthetic_rules(),
        keyword in 0u32..6,
        params in arb_prune_params(),
    ) {
        assert_equivalent(&rules, keyword as ItemId, &params)?;
    }

    #[test]
    fn trie_walks_match_brute_force_subset_scans(
        masks in proptest::collection::vec(1u32..4096, 1..40),
        query_mask in 1u32..4096,
    ) {
        let side = |mask: u32| -> Vec<ItemId> {
            (0..12).filter(|bit| mask & (1 << bit) != 0).collect()
        };
        let sides: Vec<Vec<ItemId>> = masks.iter().map(|&m| side(m)).collect();
        let trie = RuleTrie::from_sides(sides.iter().map(|s| s.as_slice()));
        let query = side(query_mask);

        let mut subs = Vec::new();
        let mut sups = Vec::new();
        trie.proper_subsets_of(&query, &mut subs);
        trie.proper_supersets_of(&query, &mut sups);
        subs.sort_unstable();
        sups.sort_unstable();

        let expect = |keep: &dyn Fn(&[ItemId]) -> bool| -> Vec<u32> {
            sides
                .iter()
                .enumerate()
                .filter(|(_, s)| keep(s))
                .map(|(i, _)| i as u32)
                .collect()
        };
        let expected_subs =
            expect(&|s| s.len() < query.len() && is_sorted_subset(s, &query));
        let expected_sups =
            expect(&|s| s.len() > query.len() && is_sorted_subset(&query, s));
        prop_assert_eq!(subs, expected_subs);
        prop_assert_eq!(sups, expected_sups);
    }
}

/// The `provenance_fixture` counterexample: pruning is not monotone in
/// `C_lift` — raising the margin from 1.0 to 1.5 flips which rule wins a
/// condition-1 comparison and *changes* (not merely grows) the kept set.
/// Both margins must still be byte-identical between trie and flat.
#[test]
fn pinned_c_lift_counterexample_is_identical_at_both_margins() {
    const A: u32 = 0;
    const B: u32 = 1;
    const K: u32 = 2;
    let mut txns: Vec<Vec<u32>> = vec![vec![], vec![], vec![A], vec![A, B]];
    txns.extend(std::iter::repeat_n(vec![B, K], 2));
    txns.extend(std::iter::repeat_n(vec![A, B, K], 4));
    let db = TransactionDb::from_transactions(txns);
    let rules = mine_rules(
        &db,
        &MinerConfig {
            min_support: 0.05,
            max_len: 3,
            parallel: false,
        },
        &RuleConfig {
            min_lift: 1.0,
            min_confidence: 0.0,
            min_support: 0.0,
        },
    );

    for c_lift in [1.0, 1.5] {
        let params = PruneParams {
            c_lift,
            c_supp: 1.5,
        };
        assert_equivalent(&rules, K, &params).unwrap();
    }

    // And the flip itself still happens through the trie path: at the
    // tight margin only R3 `{b} => {K}` survives as a cause; relaxing the
    // margin resurrects R1 `{a} => {K}`.
    let kept_antecedents = |c_lift: f64| -> Vec<Vec<u32>> {
        let outcome = prune_rules(
            &rules,
            K,
            &PruneParams {
                c_lift,
                c_supp: 1.5,
            },
            &Metrics::disabled(),
            &Provenance::disabled(),
        )
        .unwrap();
        let mut antecedents: Vec<Vec<u32>> = outcome
            .kept
            .iter()
            .filter(|r| r.consequent.contains(K))
            .map(|r| r.antecedent.items().to_vec())
            .collect();
        antecedents.sort();
        antecedents
    };
    assert_eq!(kept_antecedents(1.0), vec![vec![B]]);
    assert_eq!(kept_antecedents(1.5), vec![vec![A], vec![B]]);
}
