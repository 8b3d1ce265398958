//! The flat all-pairs pruning oracle.
//!
//! This is the pre-trie `prune_rules_inner` implementation, preserved
//! verbatim (modulo using `irma_rules`' public types) as the differential
//! oracle for the trie-driven prune: same keyword filter, same canonical
//! sort, same per-group `(i asc, j > i asc)` pair enumeration with inline
//! proper-subset tests, same marking semantics and provenance calls. The
//! `rule_trie` suite asserts `irma_rules::prune_rules` matches
//! this function byte-for-byte — kept set, `PruneRecord` sequence, and
//! provenance records — at every pool width.

use std::collections::HashMap;

use irma_mine::{ItemId, Itemset};
use irma_obs::Provenance;
use irma_rules::{PruneCondition, PruneOutcome, PruneParams, PruneRecord, Rule, RuleRole};

/// Prunes `rules` for `keyword` with the flat all-pairs reference
/// implementation. A test oracle: it panics on invalid `params` where
/// [`irma_rules::prune_rules`] returns an error.
pub fn flat_prune_rules(
    rules: &[Rule],
    keyword: ItemId,
    params: &PruneParams,
    provenance: &Provenance,
) -> PruneOutcome {
    params.validate().expect("invalid prune params");

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

    let mut alive = vec![true; relevant.len()];
    let mut pruned: Vec<PruneRecord> = Vec::new();

    for condition in PruneCondition::all() {
        apply_condition(
            condition,
            &relevant,
            keyword,
            params,
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

    let kept: Vec<Rule> = relevant
        .iter()
        .zip(&alive)
        .filter(|(_, &a)| a)
        .map(|(r, _)| r.clone())
        .collect();
    PruneOutcome { kept, pruned }
}

/// Groups rule indices by a side and applies one condition within groups.
#[allow(clippy::too_many_arguments)]
fn apply_condition(
    condition: PruneCondition,
    rules: &[Rule],
    keyword: ItemId,
    params: &PruneParams,
    alive: &mut [bool],
    pruned: &mut Vec<PruneRecord>,
    provenance: &Provenance,
) {
    // Conditions 1 and 4 compare rules sharing a consequent; 2 and 3 share
    // an antecedent.
    let group_by_consequent = matches!(
        condition,
        PruneCondition::Condition1 | PruneCondition::Condition4
    );
    let mut groups: HashMap<&Itemset, Vec<usize>> = HashMap::new();
    for (i, rule) in rules.iter().enumerate() {
        let key = if group_by_consequent {
            &rule.consequent
        } else {
            &rule.antecedent
        };
        groups.entry(key).or_default().push(i);
    }
    let mut ordered_groups: Vec<(&Itemset, Vec<usize>)> = groups.into_iter().collect();
    ordered_groups.sort_unstable_by(|a, b| a.0.cmp(b.0));

    for (_, members) in ordered_groups {
        for (a_pos, &i) in members.iter().enumerate() {
            for &j in &members[a_pos + 1..] {
                // Establish nesting: `short` has the varying side strictly
                // contained in `long`'s.
                let (short, long) = if group_by_consequent {
                    if rules[i]
                        .antecedent
                        .is_proper_subset_of(&rules[j].antecedent)
                    {
                        (i, j)
                    } else if rules[j]
                        .antecedent
                        .is_proper_subset_of(&rules[i].antecedent)
                    {
                        (j, i)
                    } else {
                        continue;
                    }
                } else if rules[i]
                    .consequent
                    .is_proper_subset_of(&rules[j].consequent)
                {
                    (i, j)
                } else if rules[j]
                    .consequent
                    .is_proper_subset_of(&rules[i].consequent)
                {
                    (j, i)
                } else {
                    continue;
                };

                match decide(condition, &rules[short], &rules[long], keyword, params) {
                    Verdict::Prune(decision) => {
                        let (loser_idx, winner_idx) = if decision.loser == Loser::Short {
                            (short, long)
                        } else {
                            (long, short)
                        };
                        if provenance.is_enabled() {
                            provenance.record_decision(
                                condition.number(),
                                decision.branch,
                                decision.margin,
                                &render_detail(
                                    condition,
                                    &decision,
                                    &rules[short],
                                    &rules[long],
                                    params,
                                ),
                                &rules[winner_idx].provenance_info(),
                                &rules[loser_idx].provenance_info(),
                                alive[loser_idx],
                            );
                        }
                        // Marking semantics: the winner prunes even if it was
                        // itself pruned earlier; record each loss once.
                        if alive[loser_idx] {
                            alive[loser_idx] = false;
                            pruned.push(PruneRecord {
                                rule: rules[loser_idx].clone(),
                                condition,
                                dominated_by: rules[winner_idx].key(),
                            });
                        }
                    }
                    Verdict::Undecided => {
                        if provenance.is_enabled() {
                            provenance.record_undecided(
                                &rules[short].provenance_info(),
                                &rules[long].provenance_info(),
                            );
                        }
                    }
                    Verdict::NotApplicable => {}
                }
            }
        }
    }
}

/// Which of the nested pair a condition removes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loser {
    Short,
    Long,
}

/// A firing condition: who loses, decided by which comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Decision {
    loser: Loser,
    branch: &'static str,
    margin: f64,
}

/// Outcome of evaluating one condition for a nested pair.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Verdict {
    NotApplicable,
    Undecided,
    Prune(Decision),
}

/// Evaluates one condition for a nested pair (the paper's branch order).
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

/// Renders the comparison a firing decision actually evaluated (must stay
/// character-identical to `irma_rules`' private `render_detail`).
fn render_detail(
    condition: PruneCondition,
    decision: &Decision,
    short: &Rule,
    long: &Rule,
    params: &PruneParams,
) -> String {
    let (c_lift, c_supp) = (params.c_lift, params.c_supp);
    match (condition, decision.branch) {
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
        (PruneCondition::Condition2, _) => format!(
            "C_lift x lift(long) = {:.2} x {:.4} = {:.4} < lift(short) = {:.4}",
            c_lift,
            long.lift,
            c_lift * long.lift,
            short.lift
        ),
        (PruneCondition::Condition1, "support") => format!(
            "C_supp x supp(long) = {:.2} x {:.4} = {:.4} >= supp(short) = {:.4}",
            c_supp,
            long.support,
            c_supp * long.support,
            short.support
        ),
        (_, _) => format!(
            "C_lift x lift(short) = {:.2} x {:.4} = {:.4} >= lift(long) = {:.4}",
            c_lift,
            short.lift,
            c_lift * short.lift,
            long.lift
        ),
    }
}
