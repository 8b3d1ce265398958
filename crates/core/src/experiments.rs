//! Reproduction of every table and figure in the paper's evaluation.
//!
//! One function per artifact; each returns a typed result with a
//! `render()` method printing the same rows/series the paper reports.
//! DESIGN.md §4 maps the artifacts to these functions; EXPERIMENTS.md
//! records paper-vs-measured values.

use irma_mine::{fpgrowth, BudgetGuard, MinerConfig};
use irma_obs::{Metrics, Provenance};
use irma_prep::BinningScheme;
use irma_rules::{KeywordAnalysis, PruneParams, Rule};

use crate::fault::{try_analyze, PipelineError};
use crate::report::{bar_chart, box_line, cdf_sketch, TextTable};
use crate::specs::{pai_spec, KW_FAILED, KW_KILLED, KW_MULTI_GPU, KW_SM_ZERO};
use crate::stats::{BoxStats, Cdf};
use crate::traces::TraceAnalysis;

/// Table I: overview of the (generated) traces.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// Rows of (trace, jobs, users, zero-SM share, failed share).
    pub rows: Vec<(String, usize, usize, f64, f64)>,
}

/// Builds Table I from prepared traces.
pub fn table1(traces: &[TraceAnalysis]) -> Table1 {
    let rows = traces
        .iter()
        .map(|t| {
            let users = t
                .merged
                .column("user")
                .ok()
                .and_then(|c| c.as_strs().map(|s| s.cardinality()))
                .unwrap_or(0);
            (
                t.name.to_string(),
                t.bundle.n_jobs(),
                users,
                zero_sm_share(t),
                failed_share(t),
            )
        })
        .collect();
    Table1 { rows }
}

impl Table1 {
    /// Renders the overview table.
    pub fn render(&self) -> String {
        let mut table = TextTable::new(["Trace", "Jobs", "Users", "0% SM share", "Failed share"]);
        for (name, jobs, users, zero, failed) in &self.rows {
            table.row([
                name.clone(),
                jobs.to_string(),
                users.to_string(),
                format!("{:.1}%", zero * 100.0),
                format!("{:.1}%", failed * 100.0),
            ]);
        }
        format!("== Table I: trace overview ==\n{}", table.render())
    }
}

/// Share of jobs with ~0% mean SM utilization.
pub fn zero_sm_share(t: &TraceAnalysis) -> f64 {
    let col = t.merged.column("sm_util").expect("sm_util present");
    let n = t.merged.n_rows();
    (0..n)
        .filter(|&i| col.numeric(i).is_some_and(|v| v <= 1.0))
        .count() as f64
        / n.max(1) as f64
}

/// Share of jobs whose status item equals the failure keyword.
pub fn failed_share(t: &TraceAnalysis) -> f64 {
    let col = t
        .merged
        .column("status")
        .expect("status present")
        .as_strs()
        .expect("status is categorical");
    let n = t.merged.n_rows();
    (0..n)
        .filter(|&i| matches!(col.get(i), Some("Failed") | Some("failed")))
        .count() as f64
        / n.max(1) as f64
}

/// Fig. 1: number of frequent itemsets vs minimum support.
#[derive(Debug, Clone)]
pub struct Fig1 {
    /// Support levels swept.
    pub supports: Vec<f64>,
    /// Per trace: `(name, counts aligned with supports)`.
    pub series: Vec<(String, Vec<usize>)>,
}

/// Sweeps the support threshold and counts frequent itemsets per trace.
pub fn fig1(traces: &[TraceAnalysis], supports: &[f64]) -> Fig1 {
    let series = traces
        .iter()
        .map(|t| {
            let counts = supports
                .iter()
                .map(|&s| {
                    let config = MinerConfig {
                        min_support: s,
                        ..t.analysis.config.miner.clone()
                    };
                    let guard = BudgetGuard::unlimited();
                    fpgrowth(
                        &t.analysis.encoded.db,
                        &config,
                        &Metrics::disabled(),
                        &guard,
                    )
                    .expect("the analysis' miner config with a sweep support in (0, 1]")
                    .len()
                })
                .collect();
            (t.name.to_string(), counts)
        })
        .collect();
    Fig1 {
        supports: supports.to_vec(),
        series,
    }
}

impl Fig1 {
    /// Renders the sweep as a table (traces x supports).
    pub fn render(&self) -> String {
        let mut header = vec!["Trace".to_string()];
        header.extend(self.supports.iter().map(|s| format!("supp>={s:.2}")));
        let mut table = TextTable::new(header);
        for (name, counts) in &self.series {
            let mut row = vec![name.clone()];
            row.extend(counts.iter().map(|c| c.to_string()));
            table.row(row);
        }
        format!(
            "== Fig. 1: frequent itemsets vs minimum support ==\n{}",
            table.render()
        )
    }
}

/// Fig. 2: distribution of confidence and lift of keyword rules per trace.
#[derive(Debug, Clone)]
pub struct Fig2 {
    /// Per trace: `(name, confidence stats, lift stats)` over the pruned
    /// GPU-underutilization rule set.
    pub rows: Vec<(String, Option<BoxStats>, Option<BoxStats>)>,
}

/// Builds Fig. 2 from the `SM Util = 0%` keyword analysis of each trace.
pub fn fig2(traces: &[TraceAnalysis]) -> Fig2 {
    let rows = traces
        .iter()
        .map(|t| {
            let (conf, lift) = match t.analysis.keyword(KW_SM_ZERO) {
                Some(kw) => {
                    let kept: Vec<&Rule> =
                        kw.causes.iter().chain(kw.characteristics.iter()).collect();
                    let confs: Vec<f64> = kept.iter().map(|r| r.confidence).collect();
                    let lifts: Vec<f64> = kept.iter().map(|r| r.lift).collect();
                    (BoxStats::new(&confs), BoxStats::new(&lifts))
                }
                None => (None, None),
            };
            (t.name.to_string(), conf, lift)
        })
        .collect();
    Fig2 { rows }
}

impl Fig2 {
    /// Renders both box plots.
    pub fn render(&self) -> String {
        let mut out = String::from("== Fig. 2: rule confidence & lift per trace ==\n");
        for (metric, pick) in [("confidence", 0usize), ("lift", 1usize)] {
            out.push_str(&format!("-- {metric} --\n"));
            let (lo, hi) = if pick == 0 { (0.0, 1.0) } else { (1.0, 12.0) };
            for (name, conf, lift) in &self.rows {
                let stats = if pick == 0 { conf } else { lift };
                match stats {
                    Some(s) => out.push_str(&format!(
                        "{name:<11} [{}] min={:.2} q1={:.2} med={:.2} q3={:.2} max={:.2} (n={})\n",
                        box_line(s, lo, hi, 40),
                        s.min,
                        s.q1,
                        s.median,
                        s.q3,
                        s.max,
                        s.n
                    )),
                    None => out.push_str(&format!("{name:<11} (no rules)\n")),
                }
            }
        }
        out
    }
}

/// Fig. 3: effect of pruning on the PAI GPU-underutilization rule set.
#[derive(Debug, Clone)]
pub struct Fig3 {
    /// Keyword-relevant rules before pruning.
    pub before: usize,
    /// Rules surviving the four conditions.
    pub after: usize,
    /// `(lift band label, before count, after count)`.
    pub bands: Vec<(String, usize, usize)>,
}

/// Builds Fig. 3 from the PAI trace (first element with name "pai").
pub fn fig3(traces: &[TraceAnalysis]) -> Fig3 {
    let pai = traces
        .iter()
        .find(|t| t.name == "pai")
        .expect("fig3 needs the pai trace");
    let kw = pai
        .analysis
        .keyword(KW_SM_ZERO)
        .expect("SM Util = 0% item present in pai");
    let kept: Vec<&Rule> = kw.causes.iter().chain(kw.characteristics.iter()).collect();
    let removed: Vec<&Rule> = kw.outcome.pruned.iter().map(|p| &p.rule).collect();
    let edges = [1.5, 2.0, 3.0, 5.0, f64::INFINITY];
    let mut bands = Vec::new();
    let mut lo = 0.0f64;
    for &hi in &edges {
        let label = if hi.is_infinite() {
            format!("lift >= {lo:.1}")
        } else {
            format!("lift [{lo:.1}, {hi:.1})")
        };
        let count = |rules: &[&Rule]| rules.iter().filter(|r| r.lift >= lo && r.lift < hi).count();
        let after = count(&kept);
        let before = after + count(&removed);
        bands.push((label, before, after));
        lo = hi;
    }
    Fig3 {
        before: kw.n_before(),
        after: kw.n_kept(),
        bands,
    }
}

impl Fig3 {
    /// Renders the before/after summary.
    pub fn render(&self) -> String {
        let mut table = TextTable::new(["Lift band", "Before pruning", "After pruning"]);
        for (label, before, after) in &self.bands {
            table.row([label.clone(), before.to_string(), after.to_string()]);
        }
        format!(
            "== Fig. 3: PAI rule pruning (keyword `{KW_SM_ZERO}`) ==\ntotal: {} -> {} rules ({:.1}x reduction)\n{}",
            self.before,
            self.after,
            self.before as f64 / self.after.max(1) as f64,
            table.render()
        )
    }
}

/// Fig. 4: CDF of mean GPU SM utilization per trace.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// Per trace: `(name, zero share, CDF)`.
    pub rows: Vec<(String, f64, Cdf)>,
}

/// Builds Fig. 4.
pub fn fig4(traces: &[TraceAnalysis]) -> Fig4 {
    let rows = traces
        .iter()
        .map(|t| {
            let col = t.merged.column("sm_util").expect("sm_util present");
            let values: Vec<f64> = (0..t.merged.n_rows())
                .filter_map(|i| col.numeric(i))
                .collect();
            (t.name.to_string(), zero_sm_share(t), Cdf::new(&values))
        })
        .collect();
    Fig4 { rows }
}

impl Fig4 {
    /// Renders zero shares plus a CDF sketch per trace.
    pub fn render(&self) -> String {
        let mut out = String::from("== Fig. 4: CDF of GPU SM utilization ==\n");
        for (name, zero, cdf) in &self.rows {
            out.push_str(&format!("{name}: {:.1}% of jobs at ~0% SM\n", zero * 100.0));
            out.push_str(&cdf_sketch(cdf, name));
        }
        out
    }
}

/// Fig. 5: job exit status distribution per trace.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// Per trace: `(name, Vec<(status, share)>)`.
    pub rows: Vec<(String, Vec<(String, f64)>)>,
}

/// Builds Fig. 5 from the raw status column.
pub fn fig5(traces: &[TraceAnalysis]) -> Fig5 {
    let rows = traces
        .iter()
        .map(|t| {
            let counts = t.merged.value_counts("status").expect("status present");
            let total: usize = counts.iter().map(|(_, c)| c).sum();
            let shares = counts
                .into_iter()
                .map(|(status, c)| (status, c as f64 / total.max(1) as f64))
                .collect();
            (t.name.to_string(), shares)
        })
        .collect();
    Fig5 { rows }
}

impl Fig5 {
    /// Renders one bar chart per trace.
    pub fn render(&self) -> String {
        let mut out = String::from("== Fig. 5: job exit status ==\n");
        for (name, shares) in &self.rows {
            out.push_str(&format!("-- {name} --\n"));
            out.push_str(&bar_chart(shares, 40));
        }
        out
    }
}

/// A rendered rule table (Tables II–VIII share this shape).
#[derive(Debug, Clone)]
pub struct RuleTable {
    /// Table title.
    pub title: String,
    /// The keyword analysed.
    pub keyword: String,
    /// The keyword analysis (pruned C/A rules).
    pub analysis: Option<KeywordAnalysis>,
    /// Rendered rows: `(tag, antecedent, consequent, supp, conf, lift)`.
    pub rows: Vec<(String, String, String, f64, f64, f64)>,
}

/// Builds a rule table for one keyword of one trace.
pub fn rule_table(t: &TraceAnalysis, title: &str, keyword: &str, top: usize) -> RuleTable {
    let analysis = t.analysis.keyword(keyword);
    let mut rows = Vec::new();
    if let Some(kw) = &analysis {
        let catalog = &t.analysis.encoded.catalog;
        for (prefix, rules) in [("C", &kw.causes), ("A", &kw.characteristics)] {
            for (i, rule) in rules.iter().take(top).enumerate() {
                rows.push((
                    format!("{prefix}{}", i + 1),
                    catalog.render(&rule.antecedent),
                    catalog.render(&rule.consequent),
                    rule.support,
                    rule.confidence,
                    rule.lift,
                ));
            }
        }
    }
    RuleTable {
        title: title.to_string(),
        keyword: keyword.to_string(),
        analysis,
        rows,
    }
}

impl RuleTable {
    /// Renders in the paper's table layout.
    pub fn render(&self) -> String {
        let mut table = TextTable::new(["", "Antecedent", "Consequent", "Supp.", "Conf.", "Lift"]);
        for (tag, ante, cons, supp, conf, lift) in &self.rows {
            table.row([
                tag.clone(),
                ante.clone(),
                cons.clone(),
                format!("{supp:.2}"),
                format!("{conf:.2}"),
                format!("{lift:.2}"),
            ]);
        }
        let counts = match &self.analysis {
            Some(kw) => format!("({} kept of {} keyword rules)", kw.n_kept(), kw.n_before()),
            None => "(keyword item not present)".to_string(),
        };
        format!(
            "== {} == keyword `{}` {}\n{}",
            self.title,
            self.keyword,
            counts,
            table.render()
        )
    }
}

/// Tables II / III / IV: GPU-underutilization rules per trace.
pub fn underutilization_tables(traces: &[TraceAnalysis]) -> Vec<RuleTable> {
    let titles = [
        ("pai", "Table II: GPU underutilization rules (PAI)"),
        (
            "supercloud",
            "Table III: GPU underutilization rules (SuperCloud)",
        ),
        ("philly", "Table IV: GPU underutilization rules (Philly)"),
    ];
    titles
        .iter()
        .filter_map(|(name, title)| {
            traces
                .iter()
                .find(|t| t.name == *name)
                .map(|t| rule_table(t, title, KW_SM_ZERO, 5))
        })
        .collect()
}

/// Tables V / VI / VII: job-failure rules per trace.
pub fn failure_tables(traces: &[TraceAnalysis]) -> Vec<RuleTable> {
    let titles = [
        ("pai", "Table V: job failure rules (PAI)"),
        ("supercloud", "Table VI: job failure rules (SuperCloud)"),
        ("philly", "Table VII: job failure rules (Philly)"),
    ];
    titles
        .iter()
        .filter_map(|(name, title)| {
            traces
                .iter()
                .find(|t| t.name == *name)
                .map(|t| rule_table(t, title, KW_FAILED, 6))
        })
        .collect()
}

/// Table VIII: trace-specific rules. PAI3/PAI4 re-run the pipeline on
/// the model-labelled subset, which can fail like any analysis.
pub fn misc_tables(traces: &[TraceAnalysis]) -> Result<Vec<RuleTable>, PipelineError> {
    let mut out = Vec::new();
    if let Some(pai_t) = traces.iter().find(|t| t.name == "pai") {
        out.push(rule_table(
            pai_t,
            "Table VIII (PAI1/PAI2): queue wait by GPU type",
            "GPU Type = T4",
            3,
        ));
        out.push(rule_table(
            pai_t,
            "Table VIII (PAI2): non-T4 queue wait",
            "GPU Type = NonT4",
            3,
        ));
        // PAI3/PAI4 mine the model-labelled subset only (the paper filters
        // rows whose model is NaN before this analysis).
        let model_col = pai_t.merged.column("model").expect("model present");
        let labelled = pai_t.merged.filter(|i| !model_col.get(i).is_null());
        let model_analysis = try_analyze(&labelled, &pai_spec(), &pai_t.analysis.config)?;
        let fake = TraceAnalysis {
            name: "pai",
            bundle: pai_t.bundle.clone(),
            merged: labelled,
            analysis: model_analysis,
        };
        out.push(rule_table(
            &fake,
            "Table VIII (PAI3): recommender workloads",
            "Model = RecSys",
            3,
        ));
        out.push(rule_table(
            &fake,
            "Table VIII (PAI4): NLP workloads",
            "Model = NLP",
            3,
        ));
    }
    if let Some(sc) = traces.iter().find(|t| t.name == "supercloud") {
        out.push(rule_table(
            sc,
            "Table VIII (CIR1): killed jobs (SuperCloud)",
            KW_KILLED,
            3,
        ));
    }
    if let Some(ph) = traces.iter().find(|t| t.name == "philly") {
        out.push(rule_table(
            ph,
            "Table VIII (PHI1): multi-GPU jobs (Philly)",
            KW_MULTI_GPU,
            3,
        ));
    }
    Ok(out)
}

/// Ablation (§III-E): equal-frequency vs equal-width binning on PAI.
#[derive(Debug, Clone)]
pub struct BinningAblation {
    /// `(scheme name, itemsets, rules, keyword rules kept)`.
    pub rows: Vec<(String, usize, usize, usize)>,
}

/// Runs the binning ablation on the PAI trace.
pub fn ablation_binning(traces: &[TraceAnalysis]) -> Result<BinningAblation, PipelineError> {
    let pai_t = traces
        .iter()
        .find(|t| t.name == "pai")
        .expect("binning ablation needs pai");
    let mut rows = Vec::new();
    for (label, scheme) in [
        ("equal-frequency", BinningScheme::EqualFrequency),
        ("equal-width", BinningScheme::EqualWidth),
    ] {
        let mut spec = pai_spec();
        for feature in &mut spec.features {
            if let irma_prep::FeatureSpec::Numeric { scheme: s, .. } = feature {
                *s = scheme;
            }
        }
        let analysis = try_analyze(&pai_t.merged, &spec, &pai_t.analysis.config)?;
        let kept = analysis
            .keyword(KW_SM_ZERO)
            .map(|kw| kw.n_kept())
            .unwrap_or(0);
        rows.push((
            label.to_string(),
            analysis.frequent.len(),
            analysis.rules.len(),
            kept,
        ));
    }
    Ok(BinningAblation { rows })
}

impl BinningAblation {
    /// Renders the comparison.
    pub fn render(&self) -> String {
        let mut table = TextTable::new(["Binning", "Itemsets", "Rules", "Keyword rules kept"]);
        for (name, itemsets, rules, kept) in &self.rows {
            table.row([
                name.clone(),
                itemsets.to_string(),
                rules.to_string(),
                kept.to_string(),
            ]);
        }
        format!("== Ablation: binning scheme (PAI) ==\n{}", table.render())
    }
}

/// Ablation (§III-E): number of bins vs rule quality.
///
/// The paper: "If the bin size is too small, the generated rules would
/// have low support. If the bin size is too large, the rules would have
/// low confidence and lift. We find the bin size of a quarter works
/// well." This sweep reproduces that trade-off.
#[derive(Debug, Clone)]
pub struct BinCountAblation {
    /// `(n_bins, itemsets, keyword rules kept, median support, median lift)`.
    pub rows: Vec<(usize, usize, usize, f64, f64)>,
}

/// Runs the bin-count sweep on the PAI trace.
pub fn ablation_bin_count(traces: &[TraceAnalysis]) -> Result<BinCountAblation, PipelineError> {
    let pai_t = traces
        .iter()
        .find(|t| t.name == "pai")
        .expect("bin-count ablation needs pai");
    let mut rows = Vec::new();
    for n_bins in [2usize, 4, 8, 16] {
        let mut spec = pai_spec();
        for feature in &mut spec.features {
            if let irma_prep::FeatureSpec::Numeric { n_bins: n, .. } = feature {
                *n = n_bins;
            }
        }
        let analysis = try_analyze(&pai_t.merged, &spec, &pai_t.analysis.config)?;
        let kw = analysis.keyword(KW_SM_ZERO);
        let kept: Vec<&Rule> = kw
            .iter()
            .flat_map(|k| k.causes.iter().chain(k.characteristics.iter()))
            .collect();
        let median = |mut xs: Vec<f64>| -> f64 {
            if xs.is_empty() {
                return 0.0;
            }
            xs.sort_by(f64::total_cmp);
            xs[xs.len() / 2]
        };
        rows.push((
            n_bins,
            analysis.frequent.len(),
            kept.len(),
            median(kept.iter().map(|r| r.support).collect()),
            median(kept.iter().map(|r| r.lift).collect()),
        ));
    }
    Ok(BinCountAblation { rows })
}

impl BinCountAblation {
    /// Renders the sweep.
    pub fn render(&self) -> String {
        let mut table = TextTable::new([
            "Bins",
            "Itemsets",
            "Keyword rules",
            "Median supp",
            "Median lift",
        ]);
        for (n_bins, itemsets, kept, supp, lift) in &self.rows {
            table.row([
                n_bins.to_string(),
                itemsets.to_string(),
                kept.to_string(),
                format!("{supp:.3}"),
                format!("{lift:.2}"),
            ]);
        }
        format!(
            "== Ablation: bin count (PAI; paper picks quartiles) ==\n{}",
            table.render()
        )
    }
}

/// Cross-trace rule-family overlap (§IV-A/IV-B): which pruned
/// GPU-underutilization rules appear, by label identity, in more than one
/// trace.
#[derive(Debug, Clone)]
pub struct CrossTraceOverlap {
    /// Pairwise `(left, right, common, only_left, only_right, jaccard)`.
    pub pairs: Vec<(String, String, usize, usize, usize, f64)>,
    /// Rendered rules found in *all* traces' kept sets.
    pub universal: Vec<String>,
}

/// Compares each pair of traces' pruned `SM Util = 0%` rules.
pub fn cross_trace_overlap(traces: &[TraceAnalysis]) -> CrossTraceOverlap {
    use irma_rules::{compare_rules, label_rules};
    let kept: Vec<(String, Vec<Rule>, &irma_mine::ItemCatalog)> = traces
        .iter()
        .map(|t| {
            let rules = t
                .analysis
                .keyword(KW_SM_ZERO)
                .map(|k| k.outcome.kept)
                .unwrap_or_default();
            (t.name.to_string(), rules, &t.analysis.encoded.catalog)
        })
        .collect();
    let mut pairs = Vec::new();
    for i in 0..kept.len() {
        for j in (i + 1)..kept.len() {
            let cmp = compare_rules(&kept[i].1, kept[i].2, &kept[j].1, kept[j].2);
            pairs.push((
                kept[i].0.clone(),
                kept[j].0.clone(),
                cmp.common.len(),
                cmp.only_left.len(),
                cmp.only_right.len(),
                cmp.jaccard(),
            ));
        }
    }
    // Rules appearing in every trace.
    let mut universal = Vec::new();
    if kept.len() >= 2 {
        let first = label_rules(&kept[0].1, kept[0].2);
        'outer: for rule in first {
            for (_, rules, catalog) in &kept[1..] {
                let labeled = label_rules(rules, catalog);
                if !labeled
                    .iter()
                    .any(|r| r.antecedent == rule.antecedent && r.consequent == rule.consequent)
                {
                    continue 'outer;
                }
            }
            universal.push(rule.render());
        }
    }
    CrossTraceOverlap { pairs, universal }
}

impl CrossTraceOverlap {
    /// Renders the pairwise overlap table plus universal rules.
    pub fn render(&self) -> String {
        let mut table = TextTable::new([
            "Left",
            "Right",
            "Common",
            "Only left",
            "Only right",
            "Jaccard",
        ]);
        for (l, r, common, ol, or, j) in &self.pairs {
            table.row([
                l.clone(),
                r.clone(),
                common.to_string(),
                ol.to_string(),
                or.to_string(),
                format!("{j:.3}"),
            ]);
        }
        let mut out = format!(
            "== Cross-trace rule overlap (keyword `{KW_SM_ZERO}`) ==\n{}",
            table.render()
        );
        out.push_str(&format!(
            "rules kept in all {} traces: {}\n",
            self.pairs.len().min(3),
            self.universal.len()
        ));
        for rule in self.universal.iter().take(5) {
            out.push_str(&format!("  {rule}\n"));
        }
        out
    }
}

/// Ablation (§III-D): pruning aggressiveness vs rule count.
#[derive(Debug, Clone)]
pub struct PruningAblation {
    /// `(C value, kept for SM keyword, kept for Failed keyword)`; C = 1.0
    /// row approximates "minimal margins", larger C prunes more.
    pub rows: Vec<(f64, usize, usize)>,
    /// Keyword-relevant rule counts before pruning (SM, Failed).
    pub before: (usize, usize),
}

/// Runs the pruning ablation on the PAI trace.
pub fn ablation_pruning(traces: &[TraceAnalysis]) -> PruningAblation {
    let pai_t = traces
        .iter()
        .find(|t| t.name == "pai")
        .expect("pruning ablation needs pai");
    let analysis = &pai_t.analysis;
    let kw_for = |label: &str, c: f64| {
        let id = analysis.item(label).expect("keyword present");
        let params = PruneParams {
            c_lift: c,
            c_supp: c,
        };
        KeywordAnalysis::run(
            &analysis.rules,
            id,
            &params,
            &Metrics::disabled(),
            &Provenance::disabled(),
        )
        .expect("sweep margins are >= 1")
    };
    let before = (
        kw_for(KW_SM_ZERO, 1.0).n_before(),
        kw_for(KW_FAILED, 1.0).n_before(),
    );
    let rows = [1.0, 1.25, 1.5, 2.0, 3.0]
        .iter()
        .map(|&c| {
            (
                c,
                kw_for(KW_SM_ZERO, c).n_kept(),
                kw_for(KW_FAILED, c).n_kept(),
            )
        })
        .collect();
    PruningAblation { rows, before }
}

impl PruningAblation {
    /// Renders the sweep.
    pub fn render(&self) -> String {
        let mut table = TextTable::new(["C_lift = C_supp", "SM kept", "Failed kept"]);
        for (c, sm, failed) in &self.rows {
            table.row([format!("{c:.2}"), sm.to_string(), failed.to_string()]);
        }
        format!(
            "== Ablation: pruning margins (PAI; before pruning: SM={}, Failed={}) ==\n{}",
            self.before.0,
            self.before.1,
            table.render()
        )
    }
}

/// Runs every artifact and concatenates the rendered output in paper order.
pub fn run_all(traces: &[TraceAnalysis]) -> Result<String, PipelineError> {
    let mut out = String::new();
    out.push_str(&table1(traces).render());
    out.push('\n');
    out.push_str(&fig1(traces, &[0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5]).render());
    out.push('\n');
    out.push_str(&fig2(traces).render());
    out.push('\n');
    out.push_str(&fig3(traces).render());
    out.push('\n');
    out.push_str(&fig4(traces).render());
    out.push('\n');
    out.push_str(&fig5(traces).render());
    out.push('\n');
    for table in underutilization_tables(traces) {
        out.push_str(&table.render());
        out.push('\n');
    }
    for table in failure_tables(traces) {
        out.push_str(&table.render());
        out.push('\n');
    }
    for table in misc_tables(traces)? {
        out.push_str(&table.render());
        out.push('\n');
    }
    out.push_str(&ablation_binning(traces)?.render());
    out.push('\n');
    out.push_str(&ablation_bin_count(traces)?.render());
    out.push('\n');
    out.push_str(&ablation_pruning(traces).render());
    out.push('\n');
    out.push_str(&cross_trace_overlap(traces).render());
    out.push('\n');
    out.push_str(&crate::predict::prediction_experiment(traces, 0.8).render());
    out.push('\n');
    out.push_str("== Operator insights (top rules, rendered) ==\n");
    for t in traces {
        out.push_str(&format!("-- {} --\n", t.name));
        out.push_str(&crate::insights::insight_report(&t.analysis, KW_SM_ZERO, 3));
        out.push_str(&crate::insights::insight_report(&t.analysis, KW_FAILED, 3));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traces::{prepare_all, ExperimentScale};
    use crate::workflow::AnalysisConfig;

    fn traces() -> [TraceAnalysis; 3] {
        prepare_all(&ExperimentScale::tiny(), &AnalysisConfig::default()).unwrap()
    }

    #[test]
    fn full_run_produces_all_sections() {
        let traces = traces();
        let text = run_all(&traces).unwrap();
        for section in [
            "Table I",
            "Fig. 1",
            "Fig. 2",
            "Fig. 3",
            "Fig. 4",
            "Fig. 5",
            "Table II",
            "Table III",
            "Table IV",
            "Table V",
            "Table VI",
            "Table VII",
            "Table VIII",
            "Ablation: binning",
            "Ablation: pruning",
        ] {
            assert!(text.contains(section), "missing section {section}");
        }
    }

    #[test]
    fn fig1_counts_decrease_with_support() {
        let traces = traces();
        let f = fig1(&traces, &[0.05, 0.2, 0.5]);
        for (name, counts) in &f.series {
            assert!(
                counts.windows(2).all(|w| w[0] >= w[1]),
                "{name}: {counts:?} not monotone"
            );
            assert!(counts[0] > 0, "{name}: nothing mined at 5%");
        }
        // PAI has the most features/entries -> the most itemsets (paper
        // ordering PAI >> SuperCloud, Philly).
        let get = |n: &str| {
            f.series
                .iter()
                .find(|(name, _)| name == n)
                .map(|(_, c)| c[0])
                .unwrap()
        };
        assert!(get("pai") > get("philly"));
    }

    #[test]
    fn fig3_pruning_reduces_rules() {
        let traces = traces();
        let f = fig3(&traces);
        assert!(f.before > f.after);
        assert!(f.after > 0);
        for (_, before, after) in &f.bands {
            assert!(before >= after);
        }
    }

    #[test]
    fn fig4_zero_shares_ordered_like_paper() {
        let traces = traces();
        let f = fig4(&traces);
        let share = |n: &str| {
            f.rows
                .iter()
                .find(|(name, _, _)| name == n)
                .map(|(_, z, _)| *z)
                .unwrap()
        };
        // Paper: PAI 46% > Philly 35% > SuperCloud 10%.
        assert!(share("pai") > share("philly"));
        assert!(share("philly") > share("supercloud"));
    }

    #[test]
    fn fig5_killed_only_in_sc_and_philly() {
        let traces = traces();
        let f = fig5(&traces);
        let statuses = |n: &str| -> Vec<String> {
            f.rows
                .iter()
                .find(|(name, _)| name == n)
                .map(|(_, s)| s.iter().map(|(st, _)| st.clone()).collect())
                .unwrap()
        };
        assert!(!statuses("pai")
            .iter()
            .any(|s| s.to_lowercase().contains("kill")));
        assert!(statuses("supercloud").iter().any(|s| s == "killed"));
        assert!(statuses("philly").iter().any(|s| s == "Killed"));
    }

    #[test]
    fn bin_count_tradeoff_shape() {
        let traces = traces();
        let ab = ablation_bin_count(&traces).unwrap();
        assert_eq!(ab.rows.len(), 4);
        // The paper's trade-off at a fixed support threshold: thin bins
        // have low per-item support (fewer frequent itemsets, lower rule
        // support), coarse bins wash out associations (lower lift).
        let by_bins: std::collections::HashMap<usize, (f64, f64)> = ab
            .rows
            .iter()
            .map(|&(n, _, _, supp, lift)| (n, (supp, lift)))
            .collect();
        assert!(
            by_bins[&16].0 <= by_bins[&2].0 + 1e-9,
            "median support should shrink with more bins: {:?}",
            ab.rows
        );
        assert!(
            by_bins[&16].1 >= by_bins[&2].1 - 1e-9,
            "median lift should grow with more bins: {:?}",
            ab.rows
        );
    }

    #[test]
    fn cross_trace_overlap_reports_pairs() {
        let traces = traces();
        let overlap = cross_trace_overlap(&traces);
        assert_eq!(overlap.pairs.len(), 3);
        for (_, _, _, _, _, j) in &overlap.pairs {
            assert!((0.0..=1.0).contains(j));
        }
        // Trace-specific items (GPU Power, Min SM Util, Freq Group) make
        // cross-trace families mostly disjoint — exactly the paper's
        // "system-specific insights" point.
        assert!(overlap.pairs.iter().all(|p| p.5 < 0.5));
    }

    #[test]
    fn rule_tables_have_rows() {
        let traces = traces();
        for table in underutilization_tables(&traces) {
            assert!(!table.rows.is_empty(), "{}: no rules survived", table.title);
        }
        for table in failure_tables(&traces) {
            assert!(!table.rows.is_empty(), "{}: no rules survived", table.title);
        }
    }
}
