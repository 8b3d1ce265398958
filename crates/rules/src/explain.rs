//! Rule provenance, recomputed on demand ("why did rule X survive pruning
//! while rule Y died?").
//!
//! Nothing is recorded at generation time: a candidate's verdict is a pure
//! function of σ(Z), σ(X), σ(Z\X), n and the [`RuleConfig`], so the
//! [`Explainer`] recomputes it from the [`FrequentItemsets`] with the same
//! code [`generate_rules`](crate::generate_rules) runs, bit for bit. A
//! keyword prune with provenance enabled keeps its replayed pairwise
//! decisions as a [`PruneLog`]: `u32` positions, a branch name and a
//! margin per edge, no rule keys and no rendered text. The comparison
//! text is rendered from the two rules and the [`PruneParams`] only when
//! somebody asks.
//!
//! Pruning uses *marking* semantics (a rule dominated by an itself-dead
//! rule is still removed), which makes chains the interesting case: the
//! log keeps **every** winner/loser edge — including kills of
//! already-dead rules (`effective: false`) — so [`Explainer::explain`]
//! can walk the full chain, e.g. "A lost to B, and B itself lost to C".
//!
//! Rules are rendered through a `labeler` closure mapping an item id to
//! its human label, so one log serves any catalog.

use std::borrow::Cow;

use irma_mine::{FrequentItemsets, ItemId, Itemset};
use irma_obs::{json_escape, json_f64, Metrics};

use crate::generate::{candidate, gen_filter, GenFilter, RuleConfig};
use crate::prune::PruneParams;
use crate::rule::Rule;

/// One pairwise pruning decision. Both rules are positions in
/// [`PruneLog::relevant`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PruneEdge {
    /// The rule that dominated.
    pub winner: u32,
    /// The rule that was removed (or would have been, were it alive).
    pub loser: u32,
    /// Paper condition number (1–4).
    pub condition: u8,
    /// Which comparison decided: `"lift"`, `"support"`, or
    /// `"lift+support"` (condition 2's two-part short-rule branch).
    pub branch: &'static str,
    /// The relaxation margin (`C_lift` or `C_supp`) the branch applied.
    pub margin: f64,
    /// Whether the loser was still alive when the decision fired. A
    /// `false` here is a marking-chain echo: the loser was already dead,
    /// but the edge still documents domination.
    pub effective: bool,
}

impl PruneEdge {
    /// The nested pair as `(short, long)`: the two support branches remove
    /// the shorter rule, every lift branch the longer one.
    fn short_long(&self) -> (u32, u32) {
        if matches!(self.branch, "support" | "lift+support") {
            (self.loser, self.winner)
        } else {
            (self.winner, self.loser)
        }
    }
}

/// The decision log of one keyword prune, frozen when the run ends.
///
/// `relevant` maps each keyword-relevant rule, in canonical
/// `(antecedent, consequent)` order, to its index in the `rules` slice
/// the prune ran over; edges, undecided counts and verdicts are keyed by
/// that position. A per-position CSR of edge ids lets one explanation
/// walk only its own chain.
#[derive(Debug, Clone, PartialEq)]
pub struct PruneLog {
    params: PruneParams,
    relevant: Vec<u32>,
    edges: Vec<PruneEdge>,
    undecided: Vec<u32>,
    kept: Vec<bool>,
    /// `edge_ids[offsets[p]..offsets[p + 1]]`: the edges position `p`
    /// took part in, in evaluation order.
    offsets: Vec<u32>,
    edge_ids: Vec<u32>,
}

impl PruneLog {
    /// Freezes a run's decisions: `edges` in evaluation order, and one
    /// undecided count and one final verdict per `relevant` position.
    pub fn new(
        params: PruneParams,
        relevant: Vec<u32>,
        edges: Vec<PruneEdge>,
        undecided: Vec<u32>,
        kept: Vec<bool>,
    ) -> PruneLog {
        assert!(undecided.len() == relevant.len() && kept.len() == relevant.len());
        // Counting sort of (position, edge id) pairs: count, prefix-sum,
        // then place ids in evaluation order.
        let ends = || {
            edges
                .iter()
                .flat_map(|e| [e.winner as usize, e.loser as usize])
        };
        let mut offsets = vec![0u32; relevant.len() + 1];
        ends().for_each(|p| offsets[p + 1] += 1);
        (1..offsets.len()).for_each(|p| offsets[p] += offsets[p - 1]);
        let mut fill = offsets.clone();
        let mut edge_ids = vec![0u32; 2 * edges.len()];
        for (slot, p) in ends().enumerate() {
            edge_ids[fill[p] as usize] = (slot / 2) as u32;
            fill[p] += 1;
        }
        PruneLog {
            params,
            relevant,
            edges,
            undecided,
            kept,
            offsets,
            edge_ids,
        }
    }

    /// The margins the run used.
    pub fn params(&self) -> &PruneParams {
        &self.params
    }

    /// Position → index into the pruned `rules` slice.
    pub fn relevant(&self) -> &[u32] {
        &self.relevant
    }

    /// Every decision, in evaluation order.
    pub fn edges(&self) -> &[PruneEdge] {
        &self.edges
    }

    /// The decisions `position` took part in, in evaluation order.
    pub fn edges_of(&self, position: usize) -> impl Iterator<Item = &PruneEdge> + '_ {
        let ids =
            &self.edge_ids[self.offsets[position] as usize..self.offsets[position + 1] as usize];
        ids.iter().map(|&id| &self.edges[id as usize])
    }

    /// Comparisons against `position` that decided nothing.
    pub fn undecided(&self, position: usize) -> u32 {
        self.undecided[position]
    }

    /// Whether `position` survived the run.
    pub fn kept(&self, position: usize) -> bool {
        self.kept[position]
    }

    /// The first effective losing decision of `position`, if it was pruned.
    pub fn killed_by(&self, position: usize) -> Option<&PruneEdge> {
        self.edges_of(position)
            .find(|edge| edge.loser as usize == position && edge.effective)
    }
}

/// A rule's identity as raw sorted item ids.
type Key<'k> = (&'k [ItemId], &'k [ItemId]);

/// What is known about one rule: its metrics, its generation verdict, and
/// its position in the prune log.
struct Record<'a> {
    rule: Cow<'a, Rule>,
    filtered: Option<GenFilter>,
    position: Option<usize>,
}

/// Renders explanations from what a run already holds: the mined family
/// plus the generation thresholds (candidate verdicts), and optionally
/// one keyword prune's log over the rules it pruned.
#[derive(Debug, Clone, Copy)]
pub struct Explainer<'a> {
    generation: Option<(&'a FrequentItemsets, &'a RuleConfig)>,
    prune: Option<(&'a [Rule], &'a PruneLog)>,
}

impl<'a> Explainer<'a> {
    /// An explainer over a mined family and its generation thresholds
    /// and/or a prune log with the `rules` slice that prune ran over.
    pub fn new(
        generation: Option<(&'a FrequentItemsets, &'a RuleConfig)>,
        prune: Option<(&'a [Rule], &'a PruneLog)>,
    ) -> Explainer<'a> {
        Explainer { generation, prune }
    }

    /// Renders the decision path for one rule as human-readable text,
    /// following winner edges through marking chains (a winner that was
    /// itself pruned gets its own indented explanation, recursively).
    /// Emits a `rules.explain` span with the edges visited and the chain
    /// depth reached.
    ///
    /// Returns `None` when the rule was never a candidate and never
    /// pruned.
    pub fn explain(
        &self,
        antecedent: &[ItemId],
        consequent: &[ItemId],
        labeler: &dyn Fn(ItemId) -> String,
        metrics: &Metrics,
    ) -> Option<String> {
        let mut span = metrics.span("rules.explain");
        let key = (antecedent, consequent);
        let record = self.record(key)?;
        let mut walk = Walk {
            out: String::new(),
            visited: Vec::new(),
            edges: 0,
            depth: 0,
        };
        self.render_chain(key, record, labeler, 0, &mut walk);
        span.field("edges_visited", walk.edges);
        span.field("chain_depth", walk.depth);
        Some(walk.out)
    }

    /// Serializes every rule's record as one JSON object per line (JSONL),
    /// sorted by rule key, ids and labels both included: every candidate
    /// of the mined family plus every rule the prune saw. Schema
    /// documented in DESIGN.md §4.
    pub fn to_jsonl(&self, labeler: &dyn Fn(ItemId) -> String) -> String {
        let mut keys: Vec<(Vec<ItemId>, Vec<ItemId>)> = Vec::new();
        if let Some((frequent, _)) = self.generation {
            for (set, _) in frequent.iter().filter(|(set, _)| set.len() >= 2) {
                for antecedent in set.proper_subsets() {
                    let consequent = set.difference(&antecedent);
                    keys.push((antecedent.items().to_vec(), consequent.items().to_vec()));
                }
            }
        }
        if let Some((rules, log)) = self.prune {
            keys.extend(log.relevant.iter().map(|&i| {
                let (antecedent, consequent) = key_of(&rules[i as usize]);
                (antecedent.to_vec(), consequent.to_vec())
            }));
        }
        keys.sort_unstable();
        keys.dedup();
        let mut out = String::new();
        for (antecedent, consequent) in &keys {
            let key = (antecedent.as_slice(), consequent.as_slice());
            let record = self.record(key).expect("every listed key resolves");
            out.push_str(&self.record_to_json(key, &record, labeler));
            out.push('\n');
        }
        out
    }

    /// Resolves a key: recomputed as a candidate when its itemset is
    /// frequent, located in the prune log by binary search over the
    /// canonically ordered relevant rules.
    fn record(&self, key: Key<'_>) -> Option<Record<'a>> {
        let (antecedent, consequent) = key;
        let candidate = self.generation.and_then(|(frequent, config)| {
            let x = Itemset::from_items(antecedent.iter().copied());
            let y = Itemset::from_items(consequent.iter().copied());
            if x.items() != antecedent
                || y.items() != consequent
                || x.is_empty()
                || y.is_empty()
                || !x.is_disjoint_from(&y)
            {
                return None;
            }
            let xy_count = frequent.count(&x.union(&y))?;
            let rule = candidate(frequent, x, y, xy_count);
            Some((gen_filter(&rule, config), rule))
        });
        let position = self.prune.and_then(|(rules, log)| {
            let key_at = |&i: &u32| key_of(&rules[i as usize]);
            let first = log.relevant.partition_point(|i| key_at(i) < key);
            let found = log.relevant.get(first).is_some_and(|i| key_at(i) == key);
            found.then_some(first)
        });
        match candidate {
            Some((filtered, rule)) => Some(Record {
                rule: Cow::Owned(rule),
                filtered,
                position,
            }),
            None => position.map(|p| Record {
                rule: Cow::Borrowed(self.rule_at(p as u32)),
                filtered: None,
                position,
            }),
        }
    }

    /// The rule at log position `position`.
    fn rule_at(&self, position: u32) -> &'a Rule {
        let (rules, log) = self.prune.expect("a prune log is attached");
        &rules[log.relevant[position as usize] as usize]
    }

    /// Whether `position` won `edge`, and the other rule's key.
    fn opponent(&self, edge: &PruneEdge, position: usize) -> (bool, Key<'a>) {
        let won = edge.winner as usize == position;
        let other = if won { edge.loser } else { edge.winner };
        (won, key_of(self.rule_at(other)))
    }

    /// Renders the comparison a firing decision actually evaluated.
    fn detail(&self, edge: &PruneEdge) -> String {
        let (_, log) = self.prune.expect("a prune log is attached");
        let (c_lift, c_supp) = (log.params.c_lift, log.params.c_supp);
        let (short, long) = edge.short_long();
        let (short, long) = (("short", self.rule_at(short)), ("long", self.rule_at(long)));
        let lift = |(a, x): (&str, &Rule), op: &str, (b, y): (&str, &Rule)| {
            format!(
                "C_lift x lift({a}) = {c_lift:.2} x {:.4} = {:.4} {op} lift({b}) = {:.4}",
                x.lift,
                c_lift * x.lift,
                y.lift
            )
        };
        let supp = || {
            format!(
                "C_supp x supp(long) = {c_supp:.2} x {:.4} = {:.4} >= supp(short) = {:.4}",
                long.1.support,
                c_supp * long.1.support,
                short.1.support
            )
        };
        match (edge.condition, edge.branch) {
            // Condition 2 short-rule branch: long covers short on both axes.
            (2, "lift+support") => format!("{} and {}", lift(long, ">=", short), supp()),
            // Condition 2 long-rule branch: even relaxed, long falls short.
            (2, _) => lift(long, "<", short),
            // Condition 1 support branch: the long rule keeps enough support.
            (1, "support") => supp(),
            // Conditions 1/3/4 lift branch: the short rule's lift, relaxed,
            // covers the long rule's.
            _ => lift(short, ">=", long),
        }
    }

    /// Renders one rule's record at `depth`, then recurses into the winner
    /// of its fatal decision (marking chains). `walk.visited` guards
    /// against cycles, which cannot arise from the pruner but are cheap to
    /// rule out.
    fn render_chain<'k>(
        &'k self,
        key: Key<'k>,
        record: Record<'k>,
        labeler: &dyn Fn(ItemId) -> String,
        depth: usize,
        walk: &mut Walk<'k>,
    ) {
        const MAX_DEPTH: usize = 8;
        // A strong short rule can beat hundreds of longer ones; cap the win
        // listing (losses are always shown — they are the interesting part).
        const MAX_WINS: usize = 12;
        walk.depth = walk.depth.max(depth as u64 / 2);
        let pad = "  ".repeat(depth);
        let rule = &record.rule;
        walk.out.push_str(&format!(
            "{pad}rule {}\n{pad}  supp={:.4} conf={:.4} lift={:.4} (count={})\n",
            render_key(key, labeler),
            rule.support,
            rule.confidence,
            rule.lift,
            rule.support_count
        ));
        if let Some(filter) = &record.filtered {
            walk.out.push_str(&format!(
                "{pad}  generation: dropped — {} {:.4} below threshold {:.4}\n",
                filter.metric, filter.value, filter.threshold
            ));
        }
        let (Some(position), Some((_, log))) = (record.position, self.prune) else {
            if record.filtered.is_some() {
                walk.out
                    .push_str(&format!("{pad}  verdict: never reached pruning\n"));
            } else {
                walk.out.push_str(&format!(
                    "{pad}  verdict: not part of this keyword analysis\n"
                ));
            }
            return;
        };
        let mut wins = 0usize;
        for edge in log.edges_of(position) {
            walk.edges += 1;
            let (won, opponent) = self.opponent(edge, position);
            wins += usize::from(won);
            if won && wins > MAX_WINS {
                continue;
            }
            let role = if won { "beat" } else { "LOST to" };
            let echo = if edge.effective {
                ""
            } else {
                " [already dead]"
            };
            walk.out.push_str(&format!(
                "{pad}  condition {} ({} branch, C={:.2}): {role} {} — {}{echo}\n",
                edge.condition,
                edge.branch,
                edge.margin,
                render_key(opponent, labeler),
                self.detail(edge),
            ));
        }
        if wins > MAX_WINS {
            walk.out.push_str(&format!(
                "{pad}  ... and {} more win(s) not shown\n",
                wins - MAX_WINS
            ));
        }
        let undecided = log.undecided(position);
        if undecided > 0 {
            walk.out.push_str(&format!(
                "{pad}  {undecided} pairwise comparison(s) decided nothing\n"
            ));
        }
        if log.kept(position) {
            walk.out.push_str(&format!("{pad}  verdict: KEPT\n"));
            return;
        }
        let Some(fatal) = log.killed_by(position) else {
            walk.out.push_str(&format!("{pad}  verdict: PRUNED\n"));
            return;
        };
        let winner = key_of(self.rule_at(fatal.winner));
        walk.out.push_str(&format!(
            "{pad}  verdict: PRUNED by condition {} (winner: {})\n",
            fatal.condition,
            render_key(winner, labeler)
        ));
        // Marking chains: explain the winner's own fate, which may itself
        // be "pruned" — that is exactly the chain operators need to see.
        walk.visited.push(key);
        if depth < MAX_DEPTH && !walk.visited.contains(&winner) {
            walk.out
                .push_str(&format!("{pad}  the winner's own fate:\n"));
            let record = self.record(winner).expect("a logged winner resolves");
            self.render_chain(winner, record, labeler, depth + 2, walk);
        }
    }

    fn record_to_json(
        &self,
        key: Key<'_>,
        record: &Record<'_>,
        labeler: &dyn Fn(ItemId) -> String,
    ) -> String {
        let rule = &record.rule;
        let (ante_ids, ante_labels) = json_items(key.0, labeler);
        let (cons_ids, cons_labels) = json_items(key.1, labeler);
        let mut out = format!(
            "{{\"antecedent\":{ante_ids},\"consequent\":{cons_ids},\
             \"antecedent_labels\":{ante_labels},\"consequent_labels\":{cons_labels},\
             \"support_count\":{},\"support\":{},\"confidence\":{},\"lift\":{}",
            rule.support_count,
            json_f64(rule.support),
            json_f64(rule.confidence),
            json_f64(rule.lift),
        );
        match &record.filtered {
            Some(f) => out.push_str(&format!(
                ",\"filtered\":{{\"metric\":\"{}\",\"value\":{},\"threshold\":{}}}",
                f.metric,
                json_f64(f.value),
                json_f64(f.threshold)
            )),
            None => out.push_str(",\"filtered\":null"),
        }
        out.push_str(",\"steps\":[");
        let (mut undecided, mut kept) = (0, "null");
        if let (Some(position), Some((_, log))) = (record.position, self.prune) {
            for (i, edge) in log.edges_of(position).enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let (won, (op_ante, op_cons)) = self.opponent(edge, position);
                let role = if won { "winner" } else { "loser" };
                out.push_str(&format!(
                    "{{\"condition\":{},\"role\":\"{role}\",\"opponent\":{{\"antecedent\":{},\"consequent\":{}}},\
                     \"branch\":\"{}\",\"margin\":{},\"detail\":\"{}\",\"effective\":{}}}",
                    edge.condition,
                    json_items(op_ante, labeler).0,
                    json_items(op_cons, labeler).0,
                    edge.branch,
                    json_f64(edge.margin),
                    json_escape(&self.detail(edge)),
                    edge.effective
                ));
            }
            undecided = log.undecided(position);
            kept = if log.kept(position) { "true" } else { "false" };
        }
        out.push_str(&format!(
            "],\"undecided_comparisons\":{undecided},\"kept\":{kept}}}"
        ));
        out
    }
}

/// Render state threaded through one explanation.
struct Walk<'k> {
    out: String,
    visited: Vec<Key<'k>>,
    edges: u64,
    depth: u64,
}

fn key_of(rule: &Rule) -> Key<'_> {
    (rule.antecedent.items(), rule.consequent.items())
}

fn render_key(key: Key<'_>, labeler: &dyn Fn(ItemId) -> String) -> String {
    let side = |items: &[ItemId]| {
        items
            .iter()
            .map(|&i| labeler(i))
            .collect::<Vec<_>>()
            .join(", ")
    };
    format!("{{{}}} => {{{}}}", side(key.0), side(key.1))
}

fn json_items(items: &[ItemId], labeler: &dyn Fn(ItemId) -> String) -> (String, String) {
    let ids = items
        .iter()
        .map(|i| i.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let labels = items
        .iter()
        .map(|&i| format!("\"{}\"", json_escape(&labeler(i))))
        .collect::<Vec<_>>()
        .join(",");
    (format!("[{ids}]"), format!("[{labels}]"))
}
