//! Deterministic provenance fixture: the ROADMAP's non-monotone `C_lift`
//! counterexample, rendered as a readable marking chain.
//!
//! Pruning is *not* monotone in the lift margin: raising `C_lift` makes
//! condition 1's lift branch harder to trigger, which can flip who wins a
//! pairwise comparison and thereby change — not merely shrink or grow —
//! the surviving rule set. This fixture pins the smallest database we
//! know of that exhibits the flip and checks that the provenance recorder
//! tells the story correctly at both margins.
//!
//! Items `a = 0`, `b = 1`, keyword `K = 2`; ten transactions
//! `2×{}, 1×{a}, 1×{a,b}, 2×{b,K}, 4×{a,b,K}`. The three cause rules:
//!
//! | rule            | support | confidence | lift  |
//! |-----------------|---------|------------|-------|
//! | R1 `{a} => {K}`   | 0.4   | 0.667      | 1.111 |
//! | R2 `{a,b} => {K}` | 0.4   | 0.800      | 1.333 |
//! | R3 `{b} => {K}`   | 0.6   | 0.857      | 1.429 |
//!
//! With `C_supp = 1.5` fixed:
//!
//! * `C_lift = 1.0`: R3's lift beats R2 with margin (R2 pruned by R3),
//!   and R2's equal support kills R1 on the support branch — kept causes
//!   `{R3}`.
//! * `C_lift = 1.5`: R3's lift no longer clears the margin over R2, but
//!   the *short* rule R1 now wins the general/specific comparison against
//!   R2 on the lift branch (`1.5 × 1.111 > 1.333`) — the winner flips,
//!   and the kept causes are `{R1, R3}`.

use irma_mine::{Algorithm, BudgetGuard, MinerConfig, TransactionDb};
use irma_obs::{Metrics, Provenance, PruneRole};
use irma_rules::{generate_rules, KeywordAnalysis, PruneParams, RuleConfig};

const A: u32 = 0;
const B: u32 = 1;
const K: u32 = 2;

fn fixture_db() -> TransactionDb {
    let mut txns: Vec<Vec<u32>> = vec![vec![], vec![], vec![A]];
    txns.push(vec![A, B]);
    txns.extend(std::iter::repeat_n(vec![B, K], 2));
    txns.extend(std::iter::repeat_n(vec![A, B, K], 4));
    TransactionDb::from_transactions(txns)
}

fn label(id: u32) -> String {
    match id {
        A => "a".to_string(),
        B => "b".to_string(),
        K => "K".to_string(),
        other => format!("item{other}"),
    }
}

/// Mines the fixture and runs the keyword analysis at the given lift
/// margin, returning the provenance and the kept cause antecedents.
fn run_at(c_lift: f64) -> (Provenance, Vec<Vec<u32>>) {
    let db = fixture_db();
    let metrics = Metrics::disabled();
    let frequent = Algorithm::FpGrowth
        .mine(
            &db,
            &MinerConfig {
                min_support: 0.05,
                max_len: 3,
                parallel: false,
            },
            &metrics,
            &BudgetGuard::unlimited(),
        )
        .unwrap();
    let config = RuleConfig {
        min_lift: 1.0,
        min_confidence: 0.0,
        min_support: 0.0,
    };
    let provenance = Provenance::enabled();
    let rules = generate_rules(&frequent, &config, &metrics, &provenance);
    let analysis = KeywordAnalysis::run(
        &rules,
        K,
        &PruneParams {
            c_lift,
            c_supp: 1.5,
        },
        &metrics,
        &provenance,
    )
    .unwrap();
    let mut antecedents: Vec<Vec<u32>> = analysis
        .causes
        .iter()
        .map(|r| r.antecedent.items().to_vec())
        .collect();
    antecedents.sort();
    (provenance, antecedents)
}

#[test]
fn tight_margin_keeps_only_the_strongest_cause() {
    let (provenance, causes) = run_at(1.0);
    assert_eq!(causes, vec![vec![B]], "only R3 survives at C_lift=1.0");

    // R1 {a}=>{K} dies on the support branch against the equal-support,
    // higher-lift specialization R2.
    let r1 = provenance.get(&[A], &[K]).expect("R1 recorded");
    let kill = r1.killed_by().expect("R1 was pruned");
    assert_eq!(kill.condition, 1);
    assert_eq!(kill.branch, "support");
    assert_eq!(kill.opponent, (vec![A, B], vec![K]));

    // R2 {a,b}=>{K} dies on the lift branch against R3.
    let r2 = provenance.get(&[A, B], &[K]).expect("R2 recorded");
    let kill = r2.killed_by().expect("R2 was pruned");
    assert_eq!(kill.condition, 1);
    assert_eq!(kill.branch, "lift");
    assert_eq!(kill.opponent, (vec![B], vec![K]));

    let r3 = provenance.get(&[B], &[K]).expect("R3 recorded");
    assert_eq!(r3.kept, Some(true));
    assert!(r3.killed_by().is_none());
}

#[test]
fn loose_margin_flips_the_condition1_winner() {
    let (provenance, causes) = run_at(1.5);
    assert_eq!(
        causes,
        vec![vec![A], vec![B]],
        "R1 *reappears* at the looser margin — pruning is not monotone in C_lift"
    );

    // The same pair (R1, R2) is decided the other way around: the short
    // general rule R1 is now the winner, via the lift branch.
    let r2 = provenance.get(&[A, B], &[K]).expect("R2 recorded");
    let kill = r2.killed_by().expect("R2 was pruned");
    assert_eq!(kill.condition, 1);
    assert_eq!(kill.branch, "lift");
    assert_eq!(kill.opponent, (vec![A], vec![K]), "winner flipped to R1");

    let r1 = provenance.get(&[A], &[K]).expect("R1 recorded");
    assert_eq!(r1.kept, Some(true));
    let win = r1
        .steps
        .iter()
        .find(|s| s.role == PruneRole::Winner && s.opponent == (vec![A, B], vec![K]))
        .expect("R1 records its win over R2");
    assert_eq!(win.branch, "lift");
}

#[test]
fn explain_renders_the_chain_at_both_margins() {
    // At the tight margin, explaining R1 walks the chain: R1 lost to R2,
    // and R2's own fate is a loss to R3, which was kept.
    let (provenance, _) = run_at(1.0);
    let text = provenance
        .render_explain(&[A], &[K], &label)
        .expect("R1 has a record");
    assert!(text.contains("LOST to {a, b} => {K}"), "{text}");
    assert!(text.contains("the winner's own fate:"), "{text}");
    assert!(text.contains("LOST to {b} => {K}"), "{text}");
    assert!(text.contains("verdict: KEPT"), "{text}");
    assert!(text.contains("condition 1 (support branch"), "{text}");

    // At the loose margin the flip is visible in the rendered chain: R2's
    // killer is now R1 (whose own verdict is KEPT), while R3's later win
    // over the already-dead R2 renders as an echo edge, not the cause.
    let (provenance, _) = run_at(1.5);
    let text = provenance
        .render_explain(&[A, B], &[K], &label)
        .expect("R2 has a record");
    assert!(text.contains("LOST to {a} => {K}"), "{text}");
    assert!(text.contains("the winner's own fate:"), "{text}");
    assert!(text.contains("verdict: KEPT"), "{text}");
    assert!(
        text.contains("PRUNED by condition 1 (winner: {a} => {K})"),
        "{text}"
    );
    assert!(
        text.contains("LOST to {b} => {K}") && text.contains("[already dead]"),
        "marking semantics: R3's win over the dead R2 stays visible as an echo edge\n{text}"
    );
}
