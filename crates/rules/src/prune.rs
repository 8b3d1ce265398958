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
//! each grouping builds one [`RuleTrie`] per group over the varying side
//! and discovers exactly the nested pairs with subset/superset walks
//! ([`GroupPlan`]); the two conditions of a grouping then reuse the same
//! pair list. Groups partition the rules, so they are evaluated in
//! parallel through the rayon shim; each group's verdicts are buffered
//! ([`PairEvent`]) and replayed sequentially in canonical group order,
//! which keeps the kept set, the `PruneRecord` sequence, and the
//! provenance chains byte-identical to the flat all-pairs implementation
//! (retained in `irma-check` as the differential oracle) at any pool
//! width.

use std::collections::{HashMap, HashSet};
use std::fmt;

use irma_mine::{ItemId, Itemset};
use irma_obs::{Metrics, Provenance};
use rayon::prelude::*;

use crate::rule::{Rule, RuleRole};
use crate::trie::RuleTrie;

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
    /// Rules removed, with provenance.
    pub pruned: Vec<PruneRecord>,
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
/// counter per removed rule. Every pairwise winner/loser edge (including
/// marking-chain echoes on already-dead rules), the branch and margin that
/// decided it, undecided comparisons, and each relevant rule's final
/// verdict land in `provenance`. Invalid margins return
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
    let outcome = prune_rules_inner(rules, keyword, params, provenance);
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
    provenance: &Provenance,
) -> PruneOutcome {
    let mut relevant: Vec<Rule> = rules
        .iter()
        .filter(|r| r.role(keyword) != RuleRole::Unrelated)
        .cloned()
        .collect();
    relevant.sort_unstable_by(|a, b| {
        a.antecedent
            .cmp(&b.antecedent)
            .then_with(|| a.consequent.cmp(&b.consequent))
    });

    // Nested-pair discovery depends only on the grouping, not on the
    // condition, so each plan is built once and shared by its two
    // conditions (1/4 share the consequent grouping, 2/3 the antecedent
    // grouping).
    let by_consequent = GroupPlan::build(&relevant, Grouping::ByConsequent);
    let by_antecedent = GroupPlan::build(&relevant, Grouping::ByAntecedent);

    let mut alive = vec![true; relevant.len()];
    let mut pruned: Vec<PruneRecord> = Vec::new();

    for condition in PruneCondition::all() {
        let plan = match condition {
            PruneCondition::Condition1 | PruneCondition::Condition4 => &by_consequent,
            PruneCondition::Condition2 | PruneCondition::Condition3 => &by_antecedent,
        };
        apply_condition(
            condition,
            &relevant,
            keyword,
            params,
            plan,
            &mut alive,
            &mut pruned,
            provenance,
        );
    }

    if provenance.is_enabled() {
        for (rule, &is_alive) in relevant.iter().zip(&alive) {
            provenance.mark_kept(&rule.provenance_info(), is_alive);
        }
    }

    // Move the survivors out of `relevant` instead of cloning them a
    // second time: each kept rule is cloned exactly once, when the
    // keyword filter built `relevant`.
    let kept: Vec<Rule> = relevant
        .into_iter()
        .zip(alive)
        .filter(|&(_, is_alive)| is_alive)
        .map(|(rule, _)| rule)
        .collect();
    PruneOutcome { kept, pruned }
}

/// Which side two rules of a group share (the other side varies).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Grouping {
    /// Equal consequents, nested antecedents (conditions 1 and 4).
    ByConsequent,
    /// Equal antecedents, nested consequents (conditions 2 and 3).
    ByAntecedent,
}

impl Grouping {
    fn key(self, rule: &Rule) -> &Itemset {
        match self {
            Grouping::ByConsequent => &rule.consequent,
            Grouping::ByAntecedent => &rule.antecedent,
        }
    }

    fn varying(self, rule: &Rule) -> &Itemset {
        match self {
            Grouping::ByConsequent => &rule.antecedent,
            Grouping::ByAntecedent => &rule.consequent,
        }
    }
}

/// One properly nested pair: `short`'s varying side is strictly contained
/// in `long`'s. Indices point into the sorted `relevant` slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct NestedPair {
    short: u32,
    long: u32,
}

/// The pre-computed comparison schedule for one grouping: per group (in
/// canonical key order), exactly the nested pairs a condition can
/// compare, in the flat oracle's `(i asc, j > i asc)` enumeration order.
#[derive(Debug)]
struct GroupPlan {
    groups: Vec<Vec<NestedPair>>,
}

impl GroupPlan {
    fn build(rules: &[Rule], grouping: Grouping) -> GroupPlan {
        let mut by_key: HashMap<&Itemset, Vec<u32>> = HashMap::new();
        for (i, rule) in rules.iter().enumerate() {
            by_key.entry(grouping.key(rule)).or_default().push(i as u32);
        }
        let mut ordered: Vec<(&Itemset, Vec<u32>)> = by_key.into_iter().collect();
        ordered.sort_unstable_by(|a, b| a.0.cmp(b.0));
        let members: Vec<Vec<u32>> = ordered.into_iter().map(|(_, m)| m).collect();
        let groups: Vec<Vec<NestedPair>> = members
            .par_iter()
            .map(|members| nested_pairs(rules, members, grouping))
            .collect();
        GroupPlan { groups }
    }
}

/// Discovers a group's nested pairs via trie walks instead of all-pairs
/// subset tests: one shared-prefix trie over the members' varying sides,
/// then per anchor one subset walk + one superset walk, keeping only
/// later members so each unordered pair surfaces exactly once, at the
/// anchor position the flat oracle would visit it.
fn nested_pairs(rules: &[Rule], members: &[u32], grouping: Grouping) -> Vec<NestedPair> {
    if members.len() < 2 {
        return Vec::new();
    }
    let trie = RuleTrie::from_sides(
        members
            .iter()
            .map(|&i| grouping.varying(&rules[i as usize]).items()),
    );
    let mut pairs = Vec::new();
    let mut subs: Vec<u32> = Vec::new();
    let mut sups: Vec<u32> = Vec::new();
    // (position, partner-is-superset) — sorted so partners come in the
    // oracle's ascending-j order.
    let mut partners: Vec<(u32, bool)> = Vec::new();
    for (pos, &i) in members.iter().enumerate() {
        let query = grouping.varying(&rules[i as usize]).items();
        subs.clear();
        sups.clear();
        partners.clear();
        trie.proper_subsets_of(query, &mut subs);
        trie.proper_supersets_of(query, &mut sups);
        let pos = pos as u32;
        partners.extend(subs.iter().filter(|&&p| p > pos).map(|&p| (p, false)));
        partners.extend(sups.iter().filter(|&&p| p > pos).map(|&p| (p, true)));
        partners.sort_unstable();
        for &(p, partner_is_superset) in &partners {
            let j = members[p as usize];
            pairs.push(if partner_is_superset {
                NestedPair { short: i, long: j }
            } else {
                NestedPair { short: j, long: i }
            });
        }
    }
    pairs
}

/// One buffered verdict from a group's evaluation, replayed sequentially.
#[derive(Debug)]
enum PairEvent {
    /// A condition fired; recorded in provenance (echo edges included).
    /// Only emitted when a provenance recorder is attached.
    Decision {
        winner: u32,
        loser: u32,
        branch: &'static str,
        margin: f64,
        detail: String,
        effective: bool,
    },
    /// The loser was still alive: mark it dead and emit a `PruneRecord`.
    Death { loser: u32, winner: u32 },
    /// The condition applied but neither branch fired. Only emitted when
    /// a provenance recorder is attached.
    Undecided { short: u32, long: u32 },
}

/// Evaluates one condition over a pre-computed group plan.
///
/// Groups partition the rules of a grouping, so their evaluations are
/// independent and run in parallel; the buffered events are then replayed
/// in canonical group order, making the output independent of pool width
/// and steal order.
#[allow(clippy::too_many_arguments)]
fn apply_condition(
    condition: PruneCondition,
    rules: &[Rule],
    keyword: ItemId,
    params: &PruneParams,
    plan: &GroupPlan,
    alive: &mut [bool],
    pruned: &mut Vec<PruneRecord>,
    provenance: &Provenance,
) {
    let record = provenance.is_enabled();
    let snapshot: &[bool] = alive;
    let outcomes: Vec<Vec<PairEvent>> = plan
        .groups
        .par_iter()
        .map(|pairs| evaluate_group(condition, rules, keyword, params, pairs, snapshot, record))
        .collect();
    for events in outcomes {
        for event in events {
            match event {
                PairEvent::Decision {
                    winner,
                    loser,
                    branch,
                    margin,
                    detail,
                    effective,
                } => {
                    provenance.record_decision(
                        condition.number(),
                        branch,
                        margin,
                        &detail,
                        &rules[winner as usize].provenance_info(),
                        &rules[loser as usize].provenance_info(),
                        effective,
                    );
                }
                PairEvent::Death { loser, winner } => {
                    alive[loser as usize] = false;
                    pruned.push(PruneRecord {
                        rule: rules[loser as usize].clone(),
                        condition,
                        dominated_by: rules[winner as usize].key(),
                    });
                }
                PairEvent::Undecided { short, long } => {
                    provenance.record_undecided(
                        &rules[short as usize].provenance_info(),
                        &rules[long as usize].provenance_info(),
                    );
                }
            }
        }
    }
}

/// Runs one condition over one group's nested pairs against a snapshot of
/// the condition-start liveness. A rule can only be killed by a member of
/// its own group (for this condition), so the group-local `dead` overlay
/// reproduces the flat oracle's in-place `alive` mutations exactly.
fn evaluate_group(
    condition: PruneCondition,
    rules: &[Rule],
    keyword: ItemId,
    params: &PruneParams,
    pairs: &[NestedPair],
    alive: &[bool],
    record: bool,
) -> Vec<PairEvent> {
    let mut events = Vec::new();
    let mut dead: HashSet<u32> = HashSet::new();
    for &NestedPair { short, long } in pairs {
        let (short_rule, long_rule) = (&rules[short as usize], &rules[long as usize]);
        match decide(condition, short_rule, long_rule, keyword, params) {
            Verdict::Prune(decision) => {
                let (loser, winner) = if decision.loser == Loser::Short {
                    (short, long)
                } else {
                    (long, short)
                };
                let loser_alive = alive[loser as usize] && !dead.contains(&loser);
                if record {
                    events.push(PairEvent::Decision {
                        winner,
                        loser,
                        branch: decision.branch,
                        margin: decision.margin,
                        detail: render_detail(condition, &decision, short_rule, long_rule, params),
                        effective: loser_alive,
                    });
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

/// Renders the comparison a firing decision actually evaluated, for
/// provenance traces (only built when a recorder is attached).
fn render_detail(
    condition: PruneCondition,
    decision: &Decision,
    short: &Rule,
    long: &Rule,
    params: &PruneParams,
) -> String {
    let (c_lift, c_supp) = (params.c_lift, params.c_supp);
    match (condition, decision.branch) {
        // Condition 2 short-rule branch: long covers short on both axes.
        (PruneCondition::Condition2, "lift+support") => format!(
            "C_lift x lift(long) = {:.2} x {:.4} = {:.4} >= lift(short) = {:.4} and \
             C_supp x supp(long) = {:.2} x {:.4} = {:.4} >= supp(short) = {:.4}",
            c_lift,
            long.lift,
            c_lift * long.lift,
            short.lift,
            c_supp,
            long.support,
            c_supp * long.support,
            short.support
        ),
        // Condition 2 long-rule branch: even relaxed, long falls short.
        (PruneCondition::Condition2, _) => format!(
            "C_lift x lift(long) = {:.2} x {:.4} = {:.4} < lift(short) = {:.4}",
            c_lift,
            long.lift,
            c_lift * long.lift,
            short.lift
        ),
        // Condition 1 support branch: the long rule keeps enough support.
        (PruneCondition::Condition1, "support") => format!(
            "C_supp x supp(long) = {:.2} x {:.4} = {:.4} >= supp(short) = {:.4}",
            c_supp,
            long.support,
            c_supp * long.support,
            short.support
        ),
        // Conditions 1/3/4 lift branch: the short rule's lift, relaxed,
        // covers the long rule's.
        (_, _) => format!(
            "C_lift x lift(short) = {:.2} x {:.4} = {:.4} >= lift(long) = {:.4}",
            c_lift,
            short.lift,
            c_lift * short.lift,
            long.lift
        ),
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
    fn provenance_records_decisions_and_verdicts() {
        // Same family as `dominated_rule_still_prunes`: r1 kills r2, dead
        // r2 still dominates r3 (an echo edge), r1 also kills r3 first.
        let r1 = mk(&[1], &[KW], 0.30, 5.0);
        let r2 = mk(&[1, 2], &[KW], 0.20, 5.5);
        let r3 = mk(&[1, 2, 3], &[KW], 0.18, 5.6);
        let provenance = Provenance::enabled();
        let out = prune_rules(
            &[r1.clone(), r2.clone(), r3.clone()],
            KW,
            &PruneParams::default(),
            &Metrics::disabled(),
            &provenance,
        )
        .unwrap();
        assert_eq!(out.kept, vec![r1]);

        let rec1 = provenance.get(&[1], &[KW]).unwrap();
        assert_eq!(rec1.kept, Some(true));
        assert!(rec1.killed_by().is_none());
        assert_eq!(rec1.steps.len(), 2); // beat r2 and r3

        let rec3 = provenance.get(&[1, 2, 3], &[KW]).unwrap();
        assert_eq!(rec3.kept, Some(false));
        // Killed by r1 (pair order reaches (r1, r3) before (r2, r3)); the
        // r2 edge is an echo on an already-dead rule.
        assert_eq!(rec3.killed_by().unwrap().opponent, (vec![1], vec![KW]));
        let echo = rec3
            .steps
            .iter()
            .find(|s| s.opponent == (vec![1, 2], vec![KW]))
            .expect("echo edge from dead r2 recorded");
        assert!(!echo.effective);
        assert!(echo.detail.contains("C_lift"), "{}", echo.detail);
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
