//! Differential tests for on-demand provenance: [`Explainer`] renders
//! explanations and the JSONL export from the mined family and an
//! index-keyed prune log. The recorder it replaced logged every decision
//! as it happened into a `BTreeMap` keyed by rule, with the comparison
//! text rendered up front. That recorder and its renderer are kept below,
//! test-only, as the oracle, fed the generation candidates and the flat
//! all-pairs prune's decisions exactly as the old pipeline fed them.
//! Every explanation (every candidate key plus random non-candidates) and
//! the whole export must match byte for byte, with the fast path run at
//! pool widths 1/2/8.

use proptest::collection::vec;
use proptest::prelude::*;
use rayon::ThreadPoolBuilder;

use irma_check::flat_prune::flat_prune_rules;
use irma_check::generators::arb_transaction_db;
use irma_mine::{fpgrowth, FrequentItemsets, ItemId, MinerConfig};
use irma_obs::{Metrics, Provenance};
use irma_rules::{
    generate_rules, prune_rules, Explainer, PruneCondition, PruneParams, Rule, RuleConfig,
};

/// The previous recorder: one record per rule key, decisions pushed on
/// both participants as they happen, comparison text rendered eagerly.
mod oracle {
    use std::collections::BTreeMap;

    use irma_mine::FrequentItemsets;
    use irma_obs::{json_escape, json_f64};
    use irma_rules::{PruneLog, PruneParams, Rule, RuleConfig};

    /// A rule's identity: sorted antecedent and consequent item ids.
    pub type RuleKey = (Vec<u32>, Vec<u32>);

    /// The metric inputs of one rule.
    #[derive(Debug, Clone, PartialEq)]
    pub struct RuleInfo {
        pub antecedent: Vec<u32>,
        pub consequent: Vec<u32>,
        pub support_count: u64,
        pub support: f64,
        pub confidence: f64,
        pub lift: f64,
    }

    impl RuleInfo {
        fn of(rule: &Rule) -> RuleInfo {
            RuleInfo {
                antecedent: rule.antecedent.items().to_vec(),
                consequent: rule.consequent.items().to_vec(),
                support_count: rule.support_count,
                support: rule.support,
                confidence: rule.confidence,
                lift: rule.lift,
            }
        }

        fn key(&self) -> RuleKey {
            (self.antecedent.clone(), self.consequent.clone())
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct GenFilter {
        pub metric: &'static str,
        pub value: f64,
        pub threshold: f64,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum PruneRole {
        Winner,
        Loser,
    }

    #[derive(Debug, Clone, PartialEq)]
    pub struct PruneStep {
        pub condition: u8,
        pub role: PruneRole,
        pub opponent: RuleKey,
        pub branch: &'static str,
        pub margin: f64,
        pub detail: String,
        pub effective: bool,
    }

    #[derive(Debug, Clone, PartialEq)]
    pub struct RuleProvenance {
        pub info: RuleInfo,
        pub filtered: Option<GenFilter>,
        pub steps: Vec<PruneStep>,
        pub undecided_comparisons: u64,
        pub kept: Option<bool>,
    }

    impl RuleProvenance {
        fn new(info: RuleInfo) -> RuleProvenance {
            RuleProvenance {
                info,
                filtered: None,
                steps: Vec::new(),
                undecided_comparisons: 0,
                kept: None,
            }
        }

        fn killed_by(&self) -> Option<&PruneStep> {
            self.steps
                .iter()
                .find(|s| s.role == PruneRole::Loser && s.effective)
        }
    }

    #[derive(Debug, Default)]
    pub struct Recorder {
        pub map: BTreeMap<RuleKey, RuleProvenance>,
    }

    fn gen_filter(rule: &Rule, config: &RuleConfig) -> Option<GenFilter> {
        if rule.lift < config.min_lift {
            Some(GenFilter {
                metric: "lift",
                value: rule.lift,
                threshold: config.min_lift,
            })
        } else if rule.confidence < config.min_confidence {
            Some(GenFilter {
                metric: "confidence",
                value: rule.confidence,
                threshold: config.min_confidence,
            })
        } else {
            None
        }
    }

    fn render_detail(
        condition: u8,
        branch: &str,
        short: &Rule,
        long: &Rule,
        params: &PruneParams,
    ) -> String {
        let (c_lift, c_supp) = (params.c_lift, params.c_supp);
        match (condition, branch) {
            (2, "lift+support") => format!(
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
            (2, _) => format!(
                "C_lift x lift(long) = {:.2} x {:.4} = {:.4} < lift(short) = {:.4}",
                c_lift,
                long.lift,
                c_lift * long.lift,
                short.lift
            ),
            (1, "support") => format!(
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

    impl Recorder {
        pub fn record_candidate(&mut self, info: RuleInfo, filtered: Option<GenFilter>) {
            let entry = self
                .map
                .entry(info.key())
                .or_insert_with(|| RuleProvenance::new(info));
            entry.filtered = filtered;
        }

        #[allow(clippy::too_many_arguments)]
        pub fn record_decision(
            &mut self,
            condition: u8,
            branch: &'static str,
            margin: f64,
            detail: &str,
            winner: &RuleInfo,
            loser: &RuleInfo,
            effective: bool,
        ) {
            let mut push = |me: &RuleInfo, role: PruneRole, opponent: &RuleInfo| {
                self.map
                    .entry(me.key())
                    .or_insert_with(|| RuleProvenance::new(me.clone()))
                    .steps
                    .push(PruneStep {
                        condition,
                        role,
                        opponent: opponent.key(),
                        branch,
                        margin,
                        detail: detail.to_string(),
                        effective,
                    });
            };
            push(winner, PruneRole::Winner, loser);
            push(loser, PruneRole::Loser, winner);
        }

        pub fn record_undecided(&mut self, info: &RuleInfo, count: u64) {
            self.map
                .entry(info.key())
                .or_insert_with(|| RuleProvenance::new(info.clone()))
                .undecided_comparisons += count;
        }

        pub fn mark_kept(&mut self, info: &RuleInfo, kept: bool) {
            self.map
                .entry(info.key())
                .or_insert_with(|| RuleProvenance::new(info.clone()))
                .kept = Some(kept);
        }

        /// What the old `generate_rules` recorded: every candidate of
        /// every frequent itemset, survivor or filtered.
        pub fn record_generation(&mut self, frequent: &FrequentItemsets, config: &RuleConfig) {
            let n = frequent.n_transactions();
            for (set, xy_count) in frequent.iter().filter(|(set, _)| set.len() >= 2) {
                for antecedent in set.proper_subsets() {
                    let consequent = set.difference(&antecedent);
                    let x_count = frequent.count(&antecedent).unwrap();
                    let y_count = frequent.count(&consequent).unwrap();
                    let rule =
                        Rule::from_counts(antecedent, consequent, *xy_count, x_count, y_count, n);
                    self.record_candidate(RuleInfo::of(&rule), gen_filter(&rule, config));
                }
            }
        }

        /// What the old prune recorded, decision by decision: the short
        /// rule of each pair is the one whose varying side nests in the
        /// other's (antecedents for conditions 1/4, consequents for 2/3).
        pub fn record_prune(&mut self, rules: &[Rule], log: &PruneLog) {
            let rule_at = |p: u32| &rules[log.relevant()[p as usize] as usize];
            for edge in log.edges() {
                let (winner, loser) = (rule_at(edge.winner), rule_at(edge.loser));
                let winner_is_short = if matches!(edge.condition, 1 | 4) {
                    winner.antecedent.is_proper_subset_of(&loser.antecedent)
                } else {
                    winner.consequent.is_proper_subset_of(&loser.consequent)
                };
                let (short, long) = if winner_is_short {
                    (winner, loser)
                } else {
                    (loser, winner)
                };
                let detail = render_detail(edge.condition, edge.branch, short, long, log.params());
                self.record_decision(
                    edge.condition,
                    edge.branch,
                    edge.margin,
                    &detail,
                    &RuleInfo::of(winner),
                    &RuleInfo::of(loser),
                    edge.effective,
                );
            }
            for p in 0..log.relevant().len() {
                let info = RuleInfo::of(rule_at(p as u32));
                let undecided = log.undecided(p);
                if undecided > 0 {
                    self.record_undecided(&info, u64::from(undecided));
                }
                self.mark_kept(&info, log.kept(p));
            }
        }

        pub fn to_jsonl(&self, labeler: &dyn Fn(u32) -> String) -> String {
            let mut out = String::new();
            for record in self.map.values() {
                out.push_str(&record_to_json(record, labeler));
                out.push('\n');
            }
            out
        }

        pub fn render_explain(
            &self,
            antecedent: &[u32],
            consequent: &[u32],
            labeler: &dyn Fn(u32) -> String,
        ) -> Option<String> {
            let key = (antecedent.to_vec(), consequent.to_vec());
            self.map.get(&key)?;
            let mut out = String::new();
            let mut visited = Vec::new();
            render_chain(&self.map, &key, labeler, 0, &mut visited, &mut out);
            Some(out)
        }
    }

    fn render_key(key: &RuleKey, labeler: &dyn Fn(u32) -> String) -> String {
        let side = |items: &[u32]| {
            items
                .iter()
                .map(|&i| labeler(i))
                .collect::<Vec<_>>()
                .join(", ")
        };
        format!("{{{}}} => {{{}}}", side(&key.0), side(&key.1))
    }

    fn render_chain(
        map: &BTreeMap<RuleKey, RuleProvenance>,
        key: &RuleKey,
        labeler: &dyn Fn(u32) -> String,
        depth: usize,
        visited: &mut Vec<RuleKey>,
        out: &mut String,
    ) {
        const MAX_DEPTH: usize = 8;
        let pad = "  ".repeat(depth);
        let Some(record) = map.get(key) else {
            out.push_str(&format!(
                "{pad}{} (no recorded decisions)\n",
                render_key(key, labeler)
            ));
            return;
        };
        let info = &record.info;
        out.push_str(&format!(
            "{pad}rule {}\n{pad}  supp={:.4} conf={:.4} lift={:.4} (count={})\n",
            render_key(key, labeler),
            info.support,
            info.confidence,
            info.lift,
            info.support_count
        ));
        if let Some(filter) = &record.filtered {
            out.push_str(&format!(
                "{pad}  generation: dropped — {} {:.4} below threshold {:.4}\n",
                filter.metric, filter.value, filter.threshold
            ));
        }
        const MAX_WINS: usize = 12;
        let mut wins_shown = 0usize;
        let mut wins_suppressed = 0usize;
        for step in &record.steps {
            if step.role == PruneRole::Winner {
                wins_shown += 1;
                if wins_shown > MAX_WINS {
                    wins_suppressed += 1;
                    continue;
                }
            }
            let role = match step.role {
                PruneRole::Winner => "beat",
                PruneRole::Loser => "LOST to",
            };
            let echo = if step.effective {
                ""
            } else {
                " [already dead]"
            };
            out.push_str(&format!(
                "{pad}  condition {} ({} branch, C={:.2}): {role} {} — {}{echo}\n",
                step.condition,
                step.branch,
                step.margin,
                render_key(&step.opponent, labeler),
                step.detail,
            ));
        }
        if wins_suppressed > 0 {
            out.push_str(&format!(
                "{pad}  ... and {wins_suppressed} more win(s) not shown\n"
            ));
        }
        if record.undecided_comparisons > 0 {
            out.push_str(&format!(
                "{pad}  {} pairwise comparison(s) decided nothing\n",
                record.undecided_comparisons
            ));
        }
        match record.kept {
            Some(true) => out.push_str(&format!("{pad}  verdict: KEPT\n")),
            Some(false) => {
                if let Some(fatal) = record.killed_by() {
                    out.push_str(&format!(
                        "{pad}  verdict: PRUNED by condition {} (winner: {})\n",
                        fatal.condition,
                        render_key(&fatal.opponent, labeler)
                    ));
                    if depth < MAX_DEPTH && !visited.contains(&fatal.opponent) {
                        visited.push(key.clone());
                        let winner = fatal.opponent.clone();
                        if !visited.contains(&winner) {
                            out.push_str(&format!("{pad}  the winner's own fate:\n"));
                            render_chain(map, &winner, labeler, depth + 2, visited, out);
                        }
                    }
                } else {
                    out.push_str(&format!("{pad}  verdict: PRUNED\n"));
                }
            }
            None => {
                if record.filtered.is_some() {
                    out.push_str(&format!("{pad}  verdict: never reached pruning\n"));
                } else {
                    out.push_str(&format!(
                        "{pad}  verdict: not part of this keyword analysis\n"
                    ));
                }
            }
        }
    }

    fn json_items(items: &[u32], labeler: &dyn Fn(u32) -> String) -> (String, String) {
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

    fn record_to_json(record: &RuleProvenance, labeler: &dyn Fn(u32) -> String) -> String {
        let info = &record.info;
        let (ante_ids, ante_labels) = json_items(&info.antecedent, labeler);
        let (cons_ids, cons_labels) = json_items(&info.consequent, labeler);
        let mut out = format!(
            "{{\"antecedent\":{ante_ids},\"consequent\":{cons_ids},\
             \"antecedent_labels\":{ante_labels},\"consequent_labels\":{cons_labels},\
             \"support_count\":{},\"support\":{},\"confidence\":{},\"lift\":{}",
            info.support_count,
            json_f64(info.support),
            json_f64(info.confidence),
            json_f64(info.lift),
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
        for (i, step) in record.steps.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let (op_ante, _) = json_items(&step.opponent.0, labeler);
            let (op_cons, _) = json_items(&step.opponent.1, labeler);
            out.push_str(&format!(
                "{{\"condition\":{},\"role\":\"{}\",\"opponent\":{{\"antecedent\":{op_ante},\"consequent\":{op_cons}}},\
                 \"branch\":\"{}\",\"margin\":{},\"detail\":\"{}\",\"effective\":{}}}",
                step.condition,
                match step.role {
                    PruneRole::Winner => "winner",
                    PruneRole::Loser => "loser",
                },
                step.branch,
                json_f64(step.margin),
                json_escape(&step.detail),
                step.effective
            ));
        }
        out.push_str(&format!(
            "],\"undecided_comparisons\":{},\"kept\":{}}}",
            record.undecided_comparisons,
            match record.kept {
                Some(true) => "true",
                Some(false) => "false",
                None => "null",
            }
        ));
        out
    }
}

/// The pool widths the fast path runs at.
const WIDTHS: [usize; 3] = [1, 2, 8];

fn label(id: ItemId) -> String {
    format!("item {id}")
}

/// Mines `db` unbudgeted at a permissive support, so the lattice holds
/// the nested families pruning works on.
fn mine(db: &irma_mine::TransactionDb) -> FrequentItemsets {
    let config = MinerConfig {
        min_support: 0.05,
        max_len: 4,
    };
    fpgrowth(db, &config).expect("valid config")
}

/// The oracle's record of one generation plus one keyword prune.
fn oracle_for(
    frequent: &FrequentItemsets,
    config: &RuleConfig,
    rules: &[Rule],
    keyword: ItemId,
    params: &PruneParams,
) -> oracle::Recorder {
    let mut recorder = oracle::Recorder::default();
    recorder.record_generation(frequent, config);
    let flat = flat_prune_rules(rules, keyword, params, &Provenance::enabled());
    recorder.record_prune(rules, flat.log.as_ref().expect("provenance enabled"));
    recorder
}

fn arb_rule_config() -> impl Strategy<Value = RuleConfig> {
    (0.5f64..2.0, 0u32..=4).prop_map(|(min_lift, conf_q)| RuleConfig {
        min_lift,
        min_confidence: f64::from(conf_q) * 0.2,
    })
}

proptest! {
    #![proptest_config(irma_check::config())]

    #[test]
    fn explanations_and_export_match_the_recorder(
        db in arb_transaction_db(7, 50),
        keyword in 0u32..7,
        c_lift in 1.0f64..3.0,
        c_supp in 1.0f64..3.0,
        config in arb_rule_config(),
        probes in vec((vec(0u32..8, 0..4), vec(0u32..8, 0..4)), 0..12),
    ) {
        let params = PruneParams { c_lift, c_supp };
        let frequent = mine(&db);
        let expected = {
            let rules = generate_rules(&frequent, &config, &Metrics::disabled());
            oracle_for(&frequent, &config, &rules, keyword, &params)
        };
        let expected_jsonl = expected.to_jsonl(&label);
        for &width in &WIDTHS {
            let pool = ThreadPoolBuilder::new().num_threads(width).build().expect("pool");
            let (rules, outcome) = pool.install(|| {
                let rules = generate_rules(&frequent, &config, &Metrics::disabled());
                let outcome = prune_rules(
                    &rules,
                    keyword,
                    &params,
                    &Metrics::disabled(),
                    &Provenance::enabled(),
                )
                .expect("margins drawn >= 1");
                (rules, outcome)
            });
            let log = outcome.log.as_ref().expect("provenance enabled");
            let explainer = Explainer::new(Some((&frequent, &config)), Some((&rules, log)));
            let explain = |ante: &[u32], cons: &[u32]| {
                explainer.explain(ante, cons, &label, &Metrics::disabled())
            };
            for (ante, cons) in expected.map.keys() {
                prop_assert_eq!(
                    explain(ante, cons),
                    expected.render_explain(ante, cons, &label),
                    "explain {:?} => {:?} at width {}",
                    ante,
                    cons,
                    width
                );
            }
            // Random keys, unsorted and overlapping ones included: most
            // were never candidates and must stay unexplained.
            for (ante, cons) in &probes {
                prop_assert_eq!(
                    explain(ante, cons),
                    expected.render_explain(ante, cons, &label),
                    "probe {:?} => {:?} at width {}",
                    ante,
                    cons,
                    width
                );
            }
            prop_assert_eq!(&explainer.to_jsonl(&label), &expected_jsonl, "JSONL at width {}", width);
        }
    }

    #[test]
    fn generation_only_explanations_match_the_recorder(
        db in arb_transaction_db(6, 40),
        config in arb_rule_config(),
    ) {
        // An analysis with no keyword run: every candidate is explained
        // from the itemset counts alone.
        let frequent = mine(&db);
        let mut expected = oracle::Recorder::default();
        expected.record_generation(&frequent, &config);
        let explainer = Explainer::new(Some((&frequent, &config)), None);
        for (ante, cons) in expected.map.keys() {
            prop_assert_eq!(
                explainer.explain(ante, cons, &label, &Metrics::disabled()),
                expected.render_explain(ante, cons, &label)
            );
        }
        prop_assert_eq!(explainer.to_jsonl(&label), expected.to_jsonl(&label));
    }
}

/// Every condition and branch shows up across the property cases only by
/// chance; this pins a prune-only log (no generation record) where all
/// four conditions fire, against the oracle.
#[test]
fn prune_only_log_matches_the_recorder_on_every_condition() {
    let mk = |ante: &[u32], cons: &[u32], support: f64, lift: f64| Rule {
        antecedent: irma_mine::Itemset::from_items(ante.iter().copied()),
        consequent: irma_mine::Itemset::from_items(cons.iter().copied()),
        support_count: (support * 1000.0) as u64,
        support,
        confidence: 0.5,
        lift,
    };
    const K: u32 = 9;
    let rules = vec![
        mk(&[1], &[K], 0.2, 3.0),
        mk(&[1, 2], &[K], 0.1, 3.5),
        mk(&[1], &[K, 2], 0.15, 3.2),
        mk(&[K], &[3], 0.2, 3.0),
        mk(&[K], &[3, 4], 0.18, 2.8),
        mk(&[K, 2], &[3], 0.1, 2.9),
        mk(&[5], &[K], 0.5, 2.0),
        mk(&[5, 6], &[K], 0.05, 3.5),
        mk(&[1], &[7], 0.3, 4.0),
    ];
    let params = PruneParams::default();
    let outcome = prune_rules(
        &rules,
        K,
        &params,
        &Metrics::disabled(),
        &Provenance::enabled(),
    )
    .unwrap();
    for condition in PruneCondition::all() {
        assert!(outcome.pruned_by_condition(condition) > 0, "{condition:?}");
    }
    let log = outcome.log.as_ref().unwrap();
    let mut expected = oracle::Recorder::default();
    expected.record_prune(&rules, log);
    let explainer = Explainer::new(None, Some((&rules, log)));
    for (ante, cons) in expected.map.keys() {
        assert_eq!(
            explainer.explain(ante, cons, &label, &Metrics::disabled()),
            expected.render_explain(ante, cons, &label)
        );
    }
    assert!(explainer
        .explain(&[1], &[7], &label, &Metrics::disabled())
        .is_none());
    assert_eq!(explainer.to_jsonl(&label), expected.to_jsonl(&label));
}
