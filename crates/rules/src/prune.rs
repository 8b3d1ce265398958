//! Keyword-centric rule pruning (§III-D, Conditions 1–4).
//!
//! After lift filtering, the rule set still contains families of
//! near-duplicate rules that differ only by adding items to one side. The
//! paper defines four conditional filters keyed on (1) which side holds the
//! analysis *keyword* and (2) which side the two rules differ on. Two
//! relaxation parameters `C_lift, C_supp >= 1` (both 1.5 in the paper)
//! control how aggressively the shorter/longer rule wins.
//!
//! Pruning uses *marking* semantics, the literal reading of the paper's
//! "when there exist two rules ... prune": every relevant pair is
//! evaluated against the original rule set and losers are marked, so a
//! rule dominated by an (itself dominated) rule is still removed. This
//! makes the outcome order-independent and deterministic.
//!
//! ## Execution strategy
//!
//! Conditions 1/4 compare rules sharing a consequent, 2/3 rules sharing
//! an antecedent — and within a group only *properly nested* varying
//! sides ever interact. Instead of testing all `O(g²)` pairs per group,
//! each grouping finds exactly the nested pairs by subset lookup
//! ([`group_pairs`]): per group, a map from each varying side to the
//! members holding it, then, per member, one lookup of each proper subset
//! of its varying side — sets the itemset lattice already produced, so
//! `generate_rules` enumerated the same `2^k` subsets per rule. Each hit
//! is one (short, long) pair, found once, from the longer rule. The two
//! conditions of a grouping reuse the same pair list. Groups partition
//! the rules, so they are evaluated in parallel through the rayon shim;
//! each group's verdicts are buffered ([`PairEvent`]) and replayed
//! sequentially in canonical group order, which keeps the kept set, the
//! `PruneRecord` sequence, and the decision log ([`PruneLog`])
//! byte-identical to the flat all-pairs implementation (retained in
//! `irma-check` as the differential oracle) at any pool width. The
//! keyword-relevant rules are borrowed, never cloned: only kept rules
//! and `PruneRecord`s own copies. With provenance enabled, the replayed
//! decisions *are* the log: index-keyed edges, no rule keys cloned, no
//! text rendered.

use std::collections::{HashMap, HashSet};
use std::fmt;

use irma_mine::{ItemId, Itemset};
use irma_obs::{Metrics, Provenance};
use rayon::prelude::*;

use crate::explain::{PruneEdge, PruneLog};
use crate::rule::{Rule, RuleRole};

/// Relaxation parameters for the four pruning conditions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PruneParams {
    /// Margin multiplier for lift comparisons (`>= 1`).
    pub c_lift: f64,
    /// Margin multiplier for support comparisons (`>= 1`).
    pub c_supp: f64,
}

impl Default for PruneParams {
    fn default() -> PruneParams {
        // The paper sets both to 1.5 for all three traces.
        PruneParams {
            c_lift: 1.5,
            c_supp: 1.5,
        }
    }
}

impl PruneParams {
    /// Validates that both margins are at least 1.
    pub fn validate(&self) -> Result<(), InvalidPruneParams> {
        // `>= 1.0` is false for NaN, so negating it rejects NaN margins
        // alongside sub-1 ones.
        let below = |x: f64| {
            !matches!(
                x.partial_cmp(&1.0),
                Some(std::cmp::Ordering::Greater | std::cmp::Ordering::Equal)
            )
        };
        if below(self.c_lift) || below(self.c_supp) {
            return Err(InvalidPruneParams {
                c_lift: self.c_lift,
                c_supp: self.c_supp,
            });
        }
        Ok(())
    }
}

/// Rejected pruning margins: `C_lift` and `C_supp` must both be `>= 1`
/// (NaN margins are rejected too). Routed through
/// `PipelineError::Rules` by the fallible pipeline entry points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvalidPruneParams {
    /// The rejected lift margin.
    pub c_lift: f64,
    /// The rejected support margin.
    pub c_supp: f64,
}

impl fmt::Display for InvalidPruneParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "C_lift and C_supp must be >= 1 (got {}, {})",
            self.c_lift, self.c_supp
        )
    }
}

impl std::error::Error for InvalidPruneParams {}

/// Which of the paper's four conditions removed a rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PruneCondition {
    /// Cause analysis, antecedents nested (keyword in consequent).
    Condition1,
    /// Characteristic analysis, consequents nested (keyword in antecedent).
    Condition2,
    /// Cause analysis, consequents nested (keyword in both consequents).
    Condition3,
    /// Characteristic analysis, antecedents nested (keyword in both
    /// antecedents).
    Condition4,
}

/// A pruned rule together with the condition and the surviving rule that
/// dominated it (kept for Fig.-3-style before/after diagnostics).
#[derive(Debug, Clone, PartialEq)]
pub struct PruneRecord {
    /// The rule that was removed.
    pub rule: Rule,
    /// The condition that fired.
    pub condition: PruneCondition,
    /// Key (antecedent, consequent) of the rule that dominated it.
    pub dominated_by: (Itemset, Itemset),
}

/// Result of keyword filtering + pruning.
#[derive(Debug, Clone, Default)]
pub struct PruneOutcome {
    /// Rules that survived all four conditions, in canonical order.
    pub kept: Vec<Rule>,
    /// Rules removed, with the rule that dominated each.
    pub pruned: Vec<PruneRecord>,
    /// Every pairwise decision of the run, present iff provenance was
    /// enabled; [`Explainer`](crate::Explainer) renders it on demand.
    pub log: Option<PruneLog>,
}

impl PruneOutcome {
    /// Rules considered before pruning (kept + pruned).
    pub fn total(&self) -> usize {
        self.kept.len() + self.pruned.len()
    }

    /// How many rules each condition removed.
    pub fn pruned_by_condition(&self, condition: PruneCondition) -> usize {
        self.pruned
            .iter()
            .filter(|record| record.condition == condition)
            .count()
    }
}

impl PruneCondition {
    /// All four conditions, in the order they are applied.
    pub fn all() -> [PruneCondition; 4] {
        [
            PruneCondition::Condition1,
            PruneCondition::Condition2,
            PruneCondition::Condition3,
            PruneCondition::Condition4,
        ]
    }

    /// Stable metric-name suffix (`condition1` ... `condition4`).
    pub fn metric_name(self) -> &'static str {
        match self {
            PruneCondition::Condition1 => "condition1",
            PruneCondition::Condition2 => "condition2",
            PruneCondition::Condition3 => "condition3",
            PruneCondition::Condition4 => "condition4",
        }
    }

    /// The paper's condition number (1–4).
    pub fn number(self) -> u8 {
        match self {
            PruneCondition::Condition1 => 1,
            PruneCondition::Condition2 => 2,
            PruneCondition::Condition3 => 3,
            PruneCondition::Condition4 => 4,
        }
    }
}

/// Applies the four pruning conditions to `rules` for one `keyword`.
///
/// Only rules that contain the keyword on either side participate; the
/// paper discards keyword-free rules from the analysis entirely, and so do
/// we (they are not reported in `pruned` either).
///
/// Emits a `rules.prune` stage event (keyword-relevant rules in, kept,
/// and per-condition prune counts) and bumps one `prune.condition<N>`
/// counter per removed rule. With `provenance` enabled the outcome also
/// carries a [`PruneLog`]: every pairwise winner/loser edge (including
/// marking-chain echoes on already-dead rules), the branch and margin that
/// decided it, undecided comparisons, and each relevant rule's final
/// verdict, keyed by position among the keyword-relevant rules (each
/// mapped to its index in `rules`). Invalid margins return
/// [`InvalidPruneParams`] (`irma_core::try_analyze` validates them up
/// front and maps the error into `PipelineError::Rules`).
pub fn prune_rules(
    rules: &[Rule],
    keyword: ItemId,
    params: &PruneParams,
    metrics: &Metrics,
    provenance: &Provenance,
) -> Result<PruneOutcome, InvalidPruneParams> {
    params.validate()?;
    let mut span = metrics.span("rules.prune");
    let outcome = prune_rules_inner(rules, keyword, params, provenance.is_enabled());
    span.field("rules_in", outcome.total() as u64);
    span.field("kept", outcome.kept.len() as u64);
    for condition in PruneCondition::all() {
        let removed = outcome.pruned_by_condition(condition) as u64;
        span.field(&format!("pruned_{}", condition.metric_name()), removed);
        if removed > 0 {
            metrics.incr(&format!("prune.{}", condition.metric_name()), removed);
        }
    }
    Ok(outcome)
}

fn prune_rules_inner(
    rules: &[Rule],
    keyword: ItemId,
    params: &PruneParams,
    record: bool,
) -> PruneOutcome {
    let order = relevant_order(rules, keyword);
    let relevant: Vec<&Rule> = order.iter().map(|&i| &rules[i as usize]).collect();

    // Nested-pair discovery depends only on the grouping, not on the
    // condition, so each plan is built once and shared by its two
    // conditions (1/4 share the consequent grouping, 2/3 the antecedent
    // grouping).
    let by_consequent = group_pairs(&relevant, true);
    let by_antecedent = group_pairs(&relevant, false);

    let mut alive = vec![true; relevant.len()];
    let mut pruned: Vec<PruneRecord> = Vec::new();
    let mut edges: Vec<PruneEdge> = Vec::new();
    let mut undecided = vec![0u32; if record { relevant.len() } else { 0 }];

    for condition in PruneCondition::all() {
        let plan = match condition {
            PruneCondition::Condition1 | PruneCondition::Condition4 => &by_consequent,
            PruneCondition::Condition2 | PruneCondition::Condition3 => &by_antecedent,
        };
        let outcomes: Vec<Vec<PairEvent>> = plan
            .par_iter()
            .map(|pairs| {
                evaluate_group(condition, &relevant, keyword, params, pairs, &alive, record)
            })
            .collect();
        // Replay in canonical group order: the output is independent of
        // pool width and steal order.
        for event in outcomes.into_iter().flatten() {
            match event {
                PairEvent::Decision(edge) => edges.push(edge),
                PairEvent::Death { loser, winner } => {
                    alive[loser as usize] = false;
                    pruned.push(PruneRecord {
                        rule: relevant[loser as usize].clone(),
                        condition,
                        dominated_by: relevant[winner as usize].key(),
                    });
                }
                PairEvent::Undecided { short, long } => {
                    undecided[short as usize] += 1;
                    undecided[long as usize] += 1;
                }
            }
        }
    }

    let log = record.then(|| PruneLog::new(*params, order, edges, undecided, alive.clone()));

    let kept: Vec<Rule> = relevant
        .into_iter()
        .zip(alive)
        .filter(|&(_, is_alive)| is_alive)
        .map(|(rule, _)| rule.clone())
        .collect();
    PruneOutcome { kept, pruned, log }
}

/// The keyword-relevant rules of `rules` as indices, in canonical
/// `(antecedent, consequent)` order: the position space of the run.
fn relevant_order(rules: &[Rule], keyword: ItemId) -> Vec<u32> {
    let mut order: Vec<u32> = (0..rules.len() as u32)
        .filter(|&i| rules[i as usize].role(keyword) != RuleRole::Unrelated)
        .collect();
    order.sort_unstable_by(|&a, &b| {
        let (a, b) = (&rules[a as usize], &rules[b as usize]);
        a.antecedent
            .cmp(&b.antecedent)
            .then_with(|| a.consequent.cmp(&b.consequent))
    });
    order
}

/// Splits a rule into (shared key, varying side) for one grouping:
/// conditions 1/4 compare rules with equal consequents and nested
/// antecedents, conditions 2/3 the mirror image.
fn split(rule: &Rule, by_consequent: bool) -> (&Itemset, &Itemset) {
    if by_consequent {
        (&rule.consequent, &rule.antecedent)
    } else {
        (&rule.antecedent, &rule.consequent)
    }
}

/// One properly nested pair: `short`'s varying side is strictly contained
/// in `long`'s. Indices point into the sorted `relevant` slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct NestedPair {
    short: u32,
    long: u32,
}

/// The comparison schedule for one grouping: per group (in canonical
/// key order), exactly the nested pairs a condition can compare, in the
/// flat oracle's `(i asc, j > i asc)` enumeration order.
fn group_pairs(rules: &[&Rule], by_consequent: bool) -> Vec<Vec<NestedPair>> {
    let mut by_key: HashMap<&Itemset, Vec<u32>> = HashMap::new();
    for (i, rule) in rules.iter().enumerate() {
        by_key
            .entry(split(rule, by_consequent).0)
            .or_default()
            .push(i as u32);
    }
    let mut ordered: Vec<(&Itemset, Vec<u32>)> = by_key.into_iter().collect();
    ordered.sort_unstable_by(|a, b| a.0.cmp(b.0));
    ordered
        .par_iter()
        .map(|(_, members)| {
            let sides: Vec<(u32, &[ItemId])> = members
                .iter()
                .map(|&i| (i, split(rules[i as usize], by_consequent).1.items()))
                .collect();
            nested_pairs(&sides)
        })
        .collect()
}

/// Finds a group's nested pairs by subset lookup. `members` holds each
/// member's index with its varying side, in ascending index order. Every
/// proper subset of a member's side (the empty one included, which only a
/// hand-built rule can hold) is looked up among the members' sides; each
/// hit pairs that shorter member with the longer one. Equal sides are not
/// proper subsets, so duplicates never pair.
///
/// # Panics
///
/// On a varying side of 64 or more items: its subsets cannot be counted
/// in a 64-bit mask. The lattice never produces one (`generate_rules`
/// enumerates the same subsets); only rules built by hand can.
fn nested_pairs(members: &[(u32, &[ItemId])]) -> Vec<NestedPair> {
    if members.len() < 2 {
        return Vec::new();
    }
    let mut by_side: HashMap<&[ItemId], Vec<u32>> = HashMap::new();
    for &(i, side) in members {
        by_side.entry(side).or_default().push(i);
    }
    let mut pairs = Vec::new();
    let mut subset: Vec<ItemId> = Vec::new();
    for &(long, side) in members {
        assert!(
            side.len() < 64,
            "prune_rules: a varying rule side of {} items is too long for subset lookup (max 63)",
            side.len()
        );
        let full = (1u64 << side.len()) - 1;
        for mask in 0..full {
            subset.clear();
            subset.extend(
                side.iter()
                    .enumerate()
                    .filter(|&(bit, _)| mask >> bit & 1 == 1)
                    .map(|(_, &item)| item),
            );
            if let Some(shorts) = by_side.get(subset.as_slice()) {
                pairs.extend(shorts.iter().map(|&short| NestedPair { short, long }));
            }
        }
    }
    // The flat oracle visits each unordered pair once, lower index first.
    pairs.sort_unstable_by_key(|pair| (pair.short.min(pair.long), pair.short.max(pair.long)));
    pairs
}

/// One buffered verdict from a group's evaluation, replayed sequentially.
#[derive(Debug)]
enum PairEvent {
    /// A condition fired (echo edges included). Only emitted when the
    /// decision log is kept.
    Decision(PruneEdge),
    /// The loser was still alive: mark it dead and emit a `PruneRecord`.
    Death { loser: u32, winner: u32 },
    /// The condition applied but neither branch fired. Only emitted when
    /// the decision log is kept.
    Undecided { short: u32, long: u32 },
}

/// Runs one condition over one group's nested pairs against a snapshot of
/// the condition-start liveness. A rule can only be killed by a member of
/// its own group (for this condition), so the group-local `dead` overlay
/// reproduces the flat oracle's in-place `alive` mutations exactly.
fn evaluate_group(
    condition: PruneCondition,
    rules: &[&Rule],
    keyword: ItemId,
    params: &PruneParams,
    pairs: &[NestedPair],
    alive: &[bool],
    record: bool,
) -> Vec<PairEvent> {
    let mut events = Vec::new();
    let mut dead: HashSet<u32> = HashSet::new();
    for &NestedPair { short, long } in pairs {
        match decide(
            condition,
            rules[short as usize],
            rules[long as usize],
            keyword,
            params,
        ) {
            Verdict::Prune(decision) => {
                let (loser, winner) = if decision.loser == Loser::Short {
                    (short, long)
                } else {
                    (long, short)
                };
                let loser_alive = alive[loser as usize] && !dead.contains(&loser);
                if record {
                    events.push(PairEvent::Decision(PruneEdge {
                        winner,
                        loser,
                        condition: condition.number(),
                        branch: decision.branch,
                        margin: decision.margin,
                        effective: loser_alive,
                    }));
                }
                // Marking semantics: the winner prunes even if it was
                // itself pruned earlier; record each loss once.
                if loser_alive {
                    dead.insert(loser);
                    events.push(PairEvent::Death { loser, winner });
                }
            }
            Verdict::Undecided => {
                if record {
                    events.push(PairEvent::Undecided { short, long });
                }
            }
            Verdict::NotApplicable => {}
        }
    }
    events
}

/// Which of the nested pair a condition removes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loser {
    /// The rule with the smaller varying side.
    Short,
    /// The rule with the larger varying side.
    Long,
}

/// A firing condition: who loses, decided by which comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Decision {
    loser: Loser,
    /// The comparison that decided: `"lift"`, `"support"`, or
    /// `"lift+support"` (condition 2's two-part short-rule branch).
    branch: &'static str,
    /// The relaxation margin the branch applied (`C_lift`, or `C_supp`
    /// for condition 1's support branch).
    margin: f64,
}

/// Outcome of evaluating one condition for a nested pair.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Verdict {
    /// The condition's keyword placement doesn't match this pair.
    NotApplicable,
    /// The condition applies but neither branch fired; both rules stay.
    Undecided,
    /// One rule is pruned.
    Prune(Decision),
}

/// Evaluates one condition for a nested pair.
fn decide(
    condition: PruneCondition,
    short: &Rule,
    long: &Rule,
    keyword: ItemId,
    params: &PruneParams,
) -> Verdict {
    let (c_lift, c_supp) = (params.c_lift, params.c_supp);
    let prune = |loser, branch, margin| {
        Verdict::Prune(Decision {
            loser,
            branch,
            margin,
        })
    };
    match condition {
        // Cause analysis: same consequent Y with K in Y; antecedents nested.
        PruneCondition::Condition1 => {
            if !short.consequent.contains(keyword) {
                return Verdict::NotApplicable;
            }
            if c_lift * short.lift >= long.lift {
                prune(Loser::Long, "lift", c_lift)
            } else if c_supp * long.support >= short.support {
                prune(Loser::Short, "support", c_supp)
            } else {
                Verdict::Undecided
            }
        }
        // Characteristic analysis: same antecedent X with K in X;
        // consequents nested.
        PruneCondition::Condition2 => {
            if !short.antecedent.contains(keyword) {
                return Verdict::NotApplicable;
            }
            if c_lift * long.lift >= short.lift && c_supp * long.support >= short.support {
                prune(Loser::Short, "lift+support", c_lift)
            } else if c_lift * long.lift < short.lift {
                prune(Loser::Long, "lift", c_lift)
            } else {
                Verdict::Undecided
            }
        }
        // Cause analysis: same antecedent; K in both nested consequents.
        PruneCondition::Condition3 => {
            if !(short.consequent.contains(keyword) && long.consequent.contains(keyword)) {
                return Verdict::NotApplicable;
            }
            if c_lift * short.lift >= long.lift {
                prune(Loser::Long, "lift", c_lift)
            } else {
                Verdict::Undecided
            }
        }
        // Characteristic analysis: same consequent; K in both nested
        // antecedents.
        PruneCondition::Condition4 => {
            if !(short.antecedent.contains(keyword) && long.antecedent.contains(keyword)) {
                return Verdict::NotApplicable;
            }
            if c_lift * short.lift >= long.lift {
                prune(Loser::Long, "lift", c_lift)
            } else {
                Verdict::Undecided
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irma_mine::Itemset;

    /// Builds a rule with explicit metrics (counts chosen to match).
    fn mk(ante: &[ItemId], cons: &[ItemId], support: f64, lift: f64) -> Rule {
        Rule {
            antecedent: Itemset::from_items(ante.iter().copied()),
            consequent: Itemset::from_items(cons.iter().copied()),
            support_count: (support * 1000.0) as u64,
            support,
            confidence: 0.5,
            lift,
        }
    }

    const KW: ItemId = 9; // the analysis keyword

    /// Prunes for [`KW`] without observability.
    fn prune(rules: &[Rule], params: &PruneParams) -> PruneOutcome {
        prune_rules(
            rules,
            KW,
            params,
            &Metrics::disabled(),
            &Provenance::disabled(),
        )
        .unwrap()
    }

    #[test]
    fn condition1_prunes_longer_when_short_lift_comparable() {
        // R1: {user A} => {fail}; R2: {user A, type B} => {fail}.
        let r1 = mk(&[1], &[KW], 0.2, 3.0);
        let r2 = mk(&[1, 2], &[KW], 0.1, 3.5);
        let out = prune(&[r1.clone(), r2.clone()], &PruneParams::default());
        // 1.5 * 3.0 >= 3.5 -> prune the longer rule.
        assert_eq!(out.kept, vec![r1]);
        assert_eq!(out.pruned.len(), 1);
        assert_eq!(out.pruned[0].condition, PruneCondition::Condition1);
        assert_eq!(out.pruned[0].rule, r2);
    }

    #[test]
    fn condition1_prunes_shorter_when_long_wins_on_lift_and_support() {
        // Long rule has clearly higher lift and similar support.
        let r1 = mk(&[1], &[KW], 0.2, 2.0);
        let r2 = mk(&[1, 2], &[KW], 0.18, 3.5);
        let out = prune(&[r1.clone(), r2.clone()], &PruneParams::default());
        // 1.5*2.0 = 3.0 < 3.5, and 1.5*0.18 >= 0.2 -> prune shorter.
        assert_eq!(out.kept, vec![r2]);
        assert_eq!(out.pruned[0].rule, r1);
    }

    #[test]
    fn condition1_keeps_both_when_neither_dominates() {
        // Long has much higher lift but much lower support.
        let r1 = mk(&[1], &[KW], 0.5, 2.0);
        let r2 = mk(&[1, 2], &[KW], 0.05, 3.5);
        let out = prune(&[r1, r2], &PruneParams::default());
        assert_eq!(out.kept.len(), 2);
        assert!(out.pruned.is_empty());
    }

    #[test]
    fn condition2_prefers_more_specific_consequent() {
        // {fail} => {short}; {fail} => {short, clusterC} with similar
        // metrics: keep the longer (more informative) consequent.
        let r1 = mk(&[KW], &[1], 0.2, 3.0);
        let r2 = mk(&[KW], &[1, 2], 0.18, 2.8);
        let out = prune(&[r1.clone(), r2.clone()], &PruneParams::default());
        assert_eq!(out.kept, vec![r2]);
        assert_eq!(out.pruned[0].condition, PruneCondition::Condition2);
    }

    #[test]
    fn condition2_keeps_shorter_when_lift_gap_large() {
        let r1 = mk(&[KW], &[1], 0.2, 6.0);
        let r2 = mk(&[KW], &[1, 2], 0.18, 2.0);
        let out = prune(&[r1.clone(), r2.clone()], &PruneParams::default());
        // 1.5*2.0 < 6.0 -> prune the longer rule.
        assert_eq!(out.kept, vec![r1]);
        assert_eq!(out.pruned[0].rule, r2);
    }

    #[test]
    fn condition3_prefers_concise_consequent_for_cause() {
        // {user A} => {fail}; {user A} => {fail, clusterC}.
        let r1 = mk(&[1], &[KW], 0.2, 3.0);
        let r2 = mk(&[1], &[KW, 2], 0.15, 3.2);
        let out = prune(&[r1.clone(), r2.clone()], &PruneParams::default());
        assert_eq!(out.kept, vec![r1]);
        assert_eq!(out.pruned[0].condition, PruneCondition::Condition3);
    }

    #[test]
    fn condition3_keeps_longer_when_its_lift_is_much_higher() {
        let r1 = mk(&[1], &[KW], 0.2, 1.6);
        let r2 = mk(&[1], &[KW, 2], 0.15, 3.0);
        let out = prune(&[r1, r2], &PruneParams::default());
        // 1.5*1.6 = 2.4 < 3.0: condition 3 does not fire...
        // but condition 2 does not apply (keyword not in antecedent), so
        // both survive.
        assert_eq!(out.kept.len(), 2);
    }

    #[test]
    fn condition4_prunes_longer_antecedent_with_keyword() {
        // {fail} => {short}; {fail, clusterC} => {short}.
        let r1 = mk(&[KW], &[1], 0.2, 3.0);
        let r2 = mk(&[KW, 2], &[1], 0.1, 2.9);
        let out = prune(&[r1.clone(), r2.clone()], &PruneParams::default());
        assert_eq!(out.kept, vec![r1]);
        assert_eq!(out.pruned[0].condition, PruneCondition::Condition4);
    }

    #[test]
    fn keyword_free_rules_are_dropped_silently() {
        let r1 = mk(&[1], &[2], 0.2, 3.0);
        let out = prune(&[r1], &PruneParams::default());
        assert!(out.kept.is_empty());
        assert!(out.pruned.is_empty());
    }

    #[test]
    fn marking_semantics_chain() {
        // r3's antecedent nests r2's which nests r1's; r1 kills r2, and
        // neither r1 nor r2 dominates r3 (its lift is far higher without
        // comparable support), so r3 survives.
        let r1 = mk(&[1], &[KW], 0.3, 3.0);
        let r2 = mk(&[1, 2], &[KW], 0.2, 3.1);
        let r3 = mk(&[1, 2, 3], &[KW], 0.1, 10.0);
        let out = prune(&[r1.clone(), r2, r3.clone()], &PruneParams::default());
        assert_eq!(out.kept, vec![r1, r3]);
        assert_eq!(out.pruned.len(), 1);
    }

    #[test]
    fn dominated_rule_still_prunes() {
        // r1 kills r2 on lift; r2 (though dead) still dominates r3 whose
        // lift is within margin of r2's — "exists two rules" semantics.
        let r1 = mk(&[1], &[KW], 0.30, 5.0);
        let r2 = mk(&[1, 2], &[KW], 0.20, 5.5);
        let r3 = mk(&[1, 2, 3], &[KW], 0.18, 5.6);
        let out = prune(&[r1.clone(), r2, r3], &PruneParams::default());
        // 1.5*5.0 >= 5.5 kills r2; 1.5*5.5 >= 5.6 kills r3 (via r2);
        // also 1.5*5.0 >= 5.6 kills r3 via r1 directly.
        assert_eq!(out.kept, vec![r1]);
        assert_eq!(out.pruned.len(), 2);
    }

    #[test]
    fn duplicate_rules_are_not_nested_pairs() {
        // Equal varying sides are not proper subsets of each other, so
        // exact duplicates pass through untouched.
        let r1 = mk(&[1, 2], &[KW], 0.2, 3.0);
        let out = prune(&[r1.clone(), r1.clone()], &PruneParams::default());
        assert_eq!(out.kept, vec![r1.clone(), r1]);
        assert!(out.pruned.is_empty());
    }

    /// The side a 12-bit mask names: item `b` is in it iff bit `b` is set.
    fn side_of(mask: u32) -> Vec<ItemId> {
        (0..12).filter(|bit| mask & (1 << bit) != 0).collect()
    }

    proptest::proptest! {
        #[test]
        fn subset_lookup_matches_all_pairs_nested_scan(
            masks in proptest::collection::vec(0u32..4096, 0..40),
        ) {
            let sides: Vec<Vec<ItemId>> = masks.iter().map(|&m| side_of(m)).collect();
            let members: Vec<(u32, &[ItemId])> = sides
                .iter()
                .enumerate()
                .map(|(i, side)| (i as u32, side.as_slice()))
                .collect();
            let proper = |a: &[ItemId], b: &[ItemId]| {
                a.len() < b.len() && irma_mine::is_sorted_subset(a, b)
            };
            let mut expected = Vec::new();
            for i in 0..sides.len() {
                for j in i + 1..sides.len() {
                    let (i, j) = (i as u32, j as u32);
                    if proper(&sides[i as usize], &sides[j as usize]) {
                        expected.push(NestedPair { short: i, long: j });
                    } else if proper(&sides[j as usize], &sides[i as usize]) {
                        expected.push(NestedPair { short: j, long: i });
                    }
                }
            }
            proptest::prop_assert_eq!(nested_pairs(&members), expected);
        }
    }

    #[test]
    #[should_panic(expected = "too long for subset lookup")]
    fn a_64_item_varying_side_panics_instead_of_skipping_pairs() {
        let long: Vec<ItemId> = (0..64).collect();
        let short = mk(&long[..1], &[KW], 0.2, 3.0);
        let long = mk(&long, &[KW], 0.1, 3.5);
        prune(&[short, long], &PruneParams::default());
    }

    #[test]
    fn metrics_record_per_condition_counts() {
        // Condition 1 removes one rule (see the first test above) and
        // condition 4 removes one from an unrelated family.
        let r1 = mk(&[1], &[KW], 0.2, 3.0);
        let r2 = mk(&[1, 2], &[KW], 0.1, 3.5);
        let r3 = mk(&[KW], &[3], 0.2, 3.0);
        let r4 = mk(&[KW, 2], &[3], 0.1, 2.9);
        let metrics = Metrics::enabled();
        let outcome = prune_rules(
            &[r1, r2, r3, r4],
            KW,
            &PruneParams::default(),
            &metrics,
            &Provenance::disabled(),
        )
        .unwrap();
        assert_eq!(outcome.pruned_by_condition(PruneCondition::Condition1), 1);
        assert_eq!(outcome.pruned_by_condition(PruneCondition::Condition4), 1);
        let snap = metrics.snapshot();
        assert!(snap.counters.contains(&("prune.condition1".to_string(), 1)));
        assert!(snap.counters.contains(&("prune.condition4".to_string(), 1)));
        let event = snap.stage("rules.prune").expect("prune event");
        assert_eq!(event.field("rules_in"), Some(4));
        assert_eq!(event.field("kept"), Some(2));
        assert_eq!(event.field("pruned_condition1"), Some(1));
        assert_eq!(event.field("pruned_condition2"), Some(0));
    }

    #[test]
    fn provenance_logs_decisions_and_verdicts() {
        // Same family as `dominated_rule_still_prunes`: r1 kills r2, dead
        // r2 still dominates r3 (an echo edge), r1 also kills r3 first.
        let r1 = mk(&[1], &[KW], 0.30, 5.0);
        let r2 = mk(&[1, 2], &[KW], 0.20, 5.5);
        let r3 = mk(&[1, 2, 3], &[KW], 0.18, 5.6);
        let unrelated = mk(&[4], &[5], 0.5, 2.0);
        // Out of canonical order, with a keyword-free rule in between, so
        // the relevant-to-rules index map is exercised.
        let rules = [r3.clone(), unrelated, r1.clone(), r2.clone()];
        let out = prune_rules(
            &rules,
            KW,
            &PruneParams::default(),
            &Metrics::disabled(),
            &Provenance::enabled(),
        )
        .unwrap();
        assert_eq!(out.kept, vec![r1]);
        let log = out.log.expect("provenance enabled");
        // Positions follow canonical order: r1, r2, r3.
        assert_eq!(log.relevant(), &[2, 3, 0]);
        assert!(log.kept(0));
        assert!(log.killed_by(0).is_none());
        assert_eq!(log.edges_of(0).count(), 2); // beat r2 and r3

        assert!(!log.kept(2));
        // Killed by r1 (pair order reaches (r1, r3) before (r2, r3)); the
        // r2 edge is an echo on an already-dead rule.
        assert_eq!(log.killed_by(2).unwrap().winner, 0);
        let echo = log
            .edges_of(2)
            .find(|e| e.winner == 1)
            .expect("echo edge from dead r2 logged");
        assert!(!echo.effective);
        assert_eq!((echo.condition, echo.branch), (1, "lift"));
    }

    #[test]
    fn disabled_provenance_does_not_change_outcome() {
        let r1 = mk(&[1], &[KW], 0.2, 3.0);
        let r2 = mk(&[1, 2], &[KW], 0.1, 3.5);
        let plain = prune(&[r1.clone(), r2.clone()], &PruneParams::default());
        let traced = prune_rules(
            &[r1, r2],
            KW,
            &PruneParams::default(),
            &Metrics::disabled(),
            &Provenance::enabled(),
        )
        .unwrap();
        assert_eq!(plain.kept, traced.kept);
        assert_eq!(plain.pruned, traced.pruned);
        assert!(plain.log.is_none() && traced.log.is_some());
    }

    #[test]
    fn invalid_params_rejected_with_typed_error() {
        let params = PruneParams {
            c_lift: 0.5,
            c_supp: 1.5,
        };
        let error = params.validate().unwrap_err();
        assert_eq!(error.c_lift, 0.5);
        assert_eq!(error.c_supp, 1.5);
        assert!(error.to_string().contains(">= 1"), "{error}");
        // NaN margins cannot sneak past the comparison either.
        let nan = PruneParams {
            c_lift: f64::NAN,
            c_supp: 1.5,
        };
        assert!(nan.validate().is_err());
    }

    #[test]
    fn prune_returns_typed_error_instead_of_panicking() {
        let r1 = mk(&[1], &[KW], 0.2, 3.0);
        let params = PruneParams {
            c_lift: 1.5,
            c_supp: 0.0,
        };
        let error = prune_rules(
            &[r1],
            KW,
            &params,
            &Metrics::disabled(),
            &Provenance::disabled(),
        )
        .unwrap_err();
        assert_eq!(error.c_supp, 0.0);
    }

    #[test]
    fn large_c_prunes_more() {
        let r1 = mk(&[1], &[KW], 0.2, 2.0);
        let r2 = mk(&[1, 2], &[KW], 0.1, 3.5);
        let loose = prune(
            &[r1.clone(), r2.clone()],
            &PruneParams {
                c_lift: 2.0,
                c_supp: 1.0,
            },
        );
        // 2.0*2.0 >= 3.5 -> longer pruned.
        assert_eq!(loose.kept.len(), 1);
        let tight = prune(
            &[r1, r2],
            &PruneParams {
                c_lift: 1.0,
                c_supp: 1.0,
            },
        );
        // 1.0*2.0 < 3.5 and 1.0*0.1 < 0.2 -> both stay.
        assert_eq!(tight.kept.len(), 2);
    }
}
