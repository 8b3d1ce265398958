//! The end-to-end analysis workflow (§III): its configuration and result.
//!
//! `merged frame -> encode -> mine -> rules` runs in one call
//! ([`crate::try_analyze`]), with the paper's defaults (5% support, max
//! itemset length 5, lift >= 1.5, `C_lift = C_supp = 1.5`) baked into
//! [`AnalysisConfig::default`]; keyword analyses are then cheap queries
//! against the shared rule set, exactly the "all high-quality rules in a
//! single execution" design §V highlights.

use irma_mine::{ExecBudget, FrequentItemsets, ItemId, MinerConfig};
use irma_obs::{Metrics, Provenance};
use irma_prep::Encoded;
use irma_rules::{Explainer, KeywordAnalysis, PruneLog, PruneParams, Rule, RuleConfig};

/// Every knob of the paper's workflow.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AnalysisConfig {
    /// Support threshold and itemset-length cap for the miner
    /// ([`irma_mine::eclat`]).
    pub miner: MinerConfig,
    /// Lift (and optional confidence/support) floors for rule generation.
    pub rules: RuleConfig,
    /// The four pruning conditions' relaxation margins.
    pub prune: PruneParams,
    /// Execution budget (itemsets, estimated tree memory, wall-clock
    /// deadline), enforced by [`crate::try_analyze`] and its traced
    /// variants. Unlimited by default, the paper's unbounded offline
    /// behaviour.
    pub budget: ExecBudget,
}

/// The output of one full workflow run over a merged trace frame.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Encoded transactions + item catalog + preprocessing report.
    pub encoded: Encoded,
    /// Mined frequent-itemset family.
    pub frequent: FrequentItemsets,
    /// All rules passing the generation thresholds (pre-pruning), sorted
    /// by `(antecedent, consequent)`.
    pub rules: Vec<Rule>,
    /// The configuration that produced this analysis (with the miner
    /// knobs actually used — relaxed ones if the degradation ladder ran).
    pub config: AnalysisConfig,
    /// Present iff the degradation ladder relaxed the mining knobs to fit
    /// [`AnalysisConfig::budget`]; `None` for full-fidelity results.
    pub degradation: Option<crate::fault::Degradation>,
}

impl Analysis {
    /// Id of an item label, if it survived encoding.
    pub fn item(&self, label: &str) -> Option<ItemId> {
        self.encoded.catalog.id(label)
    }

    /// Runs the keyword filtering + pruning stage for one item label.
    ///
    /// Returns `None` when the label does not exist in the catalog (never
    /// emitted, or dropped by the prevalence cut).
    pub fn keyword(&self, label: &str) -> Option<KeywordAnalysis> {
        self.keyword_traced(label, &Metrics::disabled(), &Provenance::disabled())
    }

    /// [`Analysis::keyword`] with observability: the pruning stage emits a
    /// `rules.prune` event with per-condition counts into `metrics`, and an
    /// enabled `provenance` keeps the run's decision log in the result's
    /// `outcome.log` (see [`irma_rules::prune_rules`]), ready for
    /// [`Analysis::explainer`]. Every `Analysis` is built by
    /// [`crate::try_analyze_traced_hooked`], which validates `config.prune`
    /// up front, so pruning here cannot fail on its margins.
    pub fn keyword_traced(
        &self,
        label: &str,
        metrics: &Metrics,
        provenance: &Provenance,
    ) -> Option<KeywordAnalysis> {
        let id = self.item(label)?;
        let analysis =
            KeywordAnalysis::run(&self.rules, id, &self.config.prune, metrics, provenance)
                .expect("prune params validated when the analysis was built");
        Some(analysis)
    }

    /// Renders a keyword analysis as the paper's C/A table, reporting the
    /// pruning stage into `metrics` (see [`Analysis::keyword_traced`]).
    pub fn render_keyword_with(&self, label: &str, top: usize, metrics: &Metrics) -> String {
        match self.keyword_traced(label, metrics, &Provenance::disabled()) {
            Some(analysis) => {
                let id = self.item(label).expect("keyword checked above");
                analysis.render(&self.encoded.catalog, id, top)
            }
            None => format!("keyword: {label} (item not present)\n"),
        }
    }

    /// Explains this analysis's rules on demand: generation verdicts
    /// recomputed from `frequent`, plus the decisions of one keyword run
    /// over `rules` when its `prune` log is given.
    pub fn explainer<'a>(&'a self, prune: Option<&'a PruneLog>) -> Explainer<'a> {
        Explainer::new(
            Some((&self.frequent, &self.config.rules)),
            prune.map(|log| (self.rules.as_slice(), log)),
        )
    }

    /// Number of transactions analysed.
    pub fn n_jobs(&self) -> usize {
        self.encoded.db.len()
    }

    /// Resolves one rule by exact `(antecedent, consequent)` item ids
    /// (see [`irma_rules::find_rule`]). Both sides must be sorted
    /// ascending (the canonical [`irma_mine::Itemset`] order).
    pub fn find_rule(&self, antecedent: &[ItemId], consequent: &[ItemId]) -> Option<&Rule> {
        irma_rules::find_rule(&self.rules, antecedent, consequent)
    }

    /// Suggests analysis keywords: items ranked by the strongest rule
    /// that involves them (descending max lift, then max confidence).
    ///
    /// The paper assumes the operator already knows their keyword ("job
    /// failure", "SM Util = 0%"); this helper surfaces which items the
    /// mined rules actually say something interesting about, so a first
    /// look at an unfamiliar trace starts from evidence instead of
    /// guesses. Items with no rule at all are omitted.
    pub fn suggest_keywords(&self, top: usize) -> Vec<(String, f64, f64)> {
        let n_items = self.encoded.catalog.len();
        let mut best = vec![(0.0f64, 0.0f64); n_items];
        for rule in &self.rules {
            for &item in rule
                .antecedent
                .items()
                .iter()
                .chain(rule.consequent.items())
            {
                let entry = &mut best[item as usize];
                if rule.lift > entry.0 || (rule.lift == entry.0 && rule.confidence > entry.1) {
                    *entry = (rule.lift, rule.confidence.max(entry.1));
                }
            }
        }
        let mut ranked: Vec<(String, f64, f64)> = best
            .into_iter()
            .enumerate()
            .filter(|(_, (lift, _))| *lift > 0.0)
            .map(|(item, (lift, conf))| {
                (
                    self.encoded
                        .catalog
                        .label(item as irma_mine::ItemId)
                        .to_string(),
                    lift,
                    conf,
                )
            })
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| b.2.total_cmp(&a.2)));
        ranked.truncate(top);
        ranked
    }

    /// A preprocessing + mining summary: counts, detected spikes, fitted
    /// bin edges, and prevalence-dropped items — what an operator checks
    /// before trusting the rules.
    pub fn summary(&self) -> String {
        let report = &self.encoded.report;
        let mut out = format!(
            "jobs: {}  items: {} (of {} before the {:.0}% prevalence cut)\n\
             frequent itemsets: {} (min support {:.0}%, max length {})\n\
             rules: {} (min lift {:.2})\n",
            self.n_jobs(),
            self.encoded.catalog.len(),
            report.n_items_before_drop,
            100.0 * report.drop_prevalence,
            self.frequent.len(),
            self.config.miner.min_support * 100.0,
            self.config.miner.max_len,
            self.rules.len(),
            self.config.rules.min_lift,
        );
        if !report.dropped.is_empty() {
            out.push_str("dropped (too prevalent):\n");
            for (label, share) in &report.dropped {
                out.push_str(&format!("  {label} ({:.0}% of jobs)\n", share * 100.0));
            }
        }
        let mut fits: Vec<(&String, &irma_prep::NumericFit)> = report.numeric_fits.iter().collect();
        fits.sort_by_key(|(name, _)| (*name).clone());
        for (column, fit) in fits {
            let edges = fit
                .edges
                .as_ref()
                .map(|e| {
                    e.edges()
                        .iter()
                        .map(|x| format!("{x:.3}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                })
                .unwrap_or_else(|| "(no residual values)".to_string());
            match fit.spike_value {
                Some(spike) => out.push_str(&format!(
                    "  {column}: spike at {spike} (Std), bin edges [{edges}]\n"
                )),
                None => out.push_str(&format!("  {column}: bin edges [{edges}]\n")),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{try_analyze, try_analyze_traced};
    use irma_data::read_csv_str;
    use irma_prep::{FeatureSpec, ZeroBin};

    fn tiny_analysis() -> Analysis {
        tiny_analysis_with_cut(0.8)
    }

    fn tiny_analysis_with_cut(drop_prevalence: f64) -> Analysis {
        // 20 jobs; short runtime strongly implies idle GPU.
        let mut csv = String::from("runtime,sm\n");
        for i in 0..20 {
            let (rt, sm) = if i < 8 {
                (10.0 + i as f64, 0.0)
            } else if i < 10 {
                (15.0, 60.0)
            } else {
                (5_000.0 + i as f64, if i % 4 == 0 { 0.0 } else { 70.0 })
            };
            csv.push_str(&format!("{rt},{sm}\n"));
        }
        let frame = read_csv_str(&csv).unwrap();
        let mut spec = irma_prep::EncoderSpec::new(vec![
            FeatureSpec::numeric("runtime", "Runtime"),
            FeatureSpec::numeric_zero("sm", "SM Util", ZeroBin::percent()),
        ]);
        spec.drop_prevalence = drop_prevalence;
        let mut config = AnalysisConfig::default();
        config.rules.min_lift = 1.2;
        try_analyze(&frame, &spec, &config).unwrap()
    }

    #[test]
    fn pipeline_produces_rules() {
        let analysis = tiny_analysis();
        assert!(analysis.n_jobs() == 20);
        assert!(!analysis.frequent.is_empty());
        assert!(!analysis.rules.is_empty());
    }

    #[test]
    fn keyword_analysis_finds_idle_cause() {
        let analysis = tiny_analysis();
        let kw = analysis.keyword("SM Util = 0%").expect("keyword exists");
        assert!(
            kw.causes.iter().any(|r| r.antecedent.len() == 1
                && analysis.encoded.catalog.label(r.antecedent.items()[0]) == "Runtime = Bin1"),
            "expected short runtime as an idle-GPU cause"
        );
    }

    #[test]
    fn unknown_keyword_is_none() {
        let analysis = tiny_analysis();
        assert!(analysis.keyword("No Such Item").is_none());
        let text = analysis.render_keyword_with("No Such Item", 5, &Metrics::disabled());
        assert!(text.contains("not present"));
    }

    #[test]
    fn suggest_keywords_ranks_by_lift() {
        let analysis = tiny_analysis();
        let suggestions = analysis.suggest_keywords(10);
        assert!(!suggestions.is_empty());
        // Descending lift.
        for w in suggestions.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        // The idle-GPU item participates in the strongest rules of this
        // toy dataset, so it must be suggested.
        assert!(
            suggestions
                .iter()
                .any(|(label, _, _)| label == "SM Util = 0%"),
            "{suggestions:?}"
        );
        assert_eq!(analysis.suggest_keywords(1).len(), 1);
    }

    #[test]
    fn summary_mentions_key_facts() {
        let analysis = tiny_analysis();
        let text = analysis.summary();
        assert!(text.contains("jobs: 20"), "{text}");
        assert!(text.contains("frequent itemsets:"), "{text}");
        assert!(text.contains("runtime: bin edges"), "{text}");
        assert!(text.contains("sm:"), "{text}");
        assert!(text.contains("before the 80% prevalence cut"), "{text}");
    }

    /// The header names the cut the encoder applied, not the default.
    #[test]
    fn summary_reports_the_applied_prevalence_cut() {
        let analysis = tiny_analysis_with_cut(0.3);
        let report = &analysis.encoded.report;
        assert_eq!(report.drop_prevalence, 0.3);
        // `SM Util = 0%` covers 10 of the 20 jobs.
        assert!(!report.dropped.is_empty(), "{report:?}");
        assert!(report.dropped.iter().all(|(_, share)| *share > 0.3));
        let text = analysis.summary();
        assert!(text.contains("before the 30% prevalence cut"), "{text}");
        assert!(text.contains("SM Util = 0% (50% of jobs)"), "{text}");
    }

    #[test]
    fn every_stage_emits_a_trace_event() {
        let mut csv = String::from("runtime,sm\n");
        for i in 0..20 {
            let (rt, sm) = if i < 8 { (10.0, 0.0) } else { (5_000.0, 70.0) };
            csv.push_str(&format!("{},{}\n", rt + i as f64, sm));
        }
        let frame = read_csv_str(&csv).unwrap();
        let spec = irma_prep::EncoderSpec::new(vec![
            FeatureSpec::numeric("runtime", "Runtime"),
            FeatureSpec::numeric_zero("sm", "SM Util", ZeroBin::percent()),
        ]);
        let mut config = AnalysisConfig::default();
        config.rules.min_lift = 1.2;
        let metrics = Metrics::enabled();
        let analysis =
            try_analyze_traced(&frame, &spec, &config, &metrics, &Provenance::disabled()).unwrap();
        let _ = analysis.keyword_traced("SM Util = 0%", &metrics, &Provenance::disabled());
        let snap = metrics.snapshot();
        for stage in [
            "core.analyze",
            "prep.fit",
            "prep.transform",
            "mine.tree_build",
            "mine.mine",
            "rules.generate",
            "rules.prune",
        ] {
            assert!(snap.stage(stage).is_some(), "missing stage event {stage}");
        }
        // Pipeline stages nest under the core.analyze root span.
        let root = snap.stage("core.analyze").unwrap();
        assert_eq!(root.parent, None);
        for stage in ["prep.fit", "mine.mine", "rules.generate"] {
            assert_eq!(
                snap.stage(stage).unwrap().parent,
                Some(root.id),
                "{stage} should nest under core.analyze"
            );
        }
        assert_eq!(
            snap.stage("prep.transform")
                .unwrap()
                .field("transactions_out"),
            Some(20)
        );
        assert_eq!(
            snap.stage("rules.generate").unwrap().field("rules_out"),
            Some(analysis.rules.len() as u64)
        );
        // The JSON export of a real run is structurally sound.
        let json = snap.to_json();
        assert!(json.contains("\"stage\": \"mine.tree_build\""), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn traced_run_explains_kept_and_filtered_rules() {
        let mut csv = String::from("runtime,sm\n");
        for i in 0..20 {
            let (rt, sm) = if i < 8 { (10.0, 0.0) } else { (5_000.0, 70.0) };
            csv.push_str(&format!("{},{}\n", rt + i as f64, sm));
        }
        let frame = read_csv_str(&csv).unwrap();
        let spec = irma_prep::EncoderSpec::new(vec![
            FeatureSpec::numeric("runtime", "Runtime"),
            FeatureSpec::numeric_zero("sm", "SM Util", ZeroBin::percent()),
        ]);
        let mut config = AnalysisConfig::default();
        config.rules.min_lift = 1.2;
        let provenance = Provenance::enabled();
        let analysis =
            try_analyze_traced(&frame, &spec, &config, &Metrics::disabled(), &provenance).unwrap();
        let kw = analysis
            .keyword_traced("SM Util = 0%", &Metrics::disabled(), &provenance)
            .unwrap();
        assert!(!kw.causes.is_empty());
        // Every kept cause rule has a KEPT verdict in its explanation.
        let labeler = |id: u32| analysis.encoded.catalog.label(id).to_string();
        let explainer = analysis.explainer(kw.outcome.log.as_ref());
        let metrics = Metrics::enabled();
        for rule in &kw.causes {
            let text = explainer
                .explain(
                    rule.antecedent.items(),
                    rule.consequent.items(),
                    &labeler,
                    &metrics,
                )
                .expect("kept rule is explained");
            assert!(text.contains("verdict: KEPT"), "{text}");
        }
        assert!(metrics.snapshot().stage("rules.explain").is_some());
        // Candidate rules below the lift floor are explained as filtered.
        let jsonl = explainer.to_jsonl(&labeler);
        assert!(jsonl.contains("\"filtered\":{") || jsonl.contains("\"kept\":false"));
    }
}
