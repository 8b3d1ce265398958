//! Acceptance tests for the paper-shape criteria in DESIGN.md §5: the
//! reproduced tables and figures must match the paper's qualitative
//! results (who wins, orderings, factor-level magnitudes), not its exact
//! numbers.

use irma::core::experiments::{
    failed_share, fig1, fig3, fig4, fig5, misc_tables, rule_table, zero_sm_share,
};
use irma::core::{
    prepare_all, AnalysisConfig, ExperimentScale, TraceAnalysis, KW_FAILED, KW_SM_ZERO,
};
use irma::rules::RuleRole;

fn traces() -> [TraceAnalysis; 3] {
    let scale = ExperimentScale {
        pai_jobs: 8_000,
        supercloud_jobs: 4_000,
        philly_jobs: 4_000,
        seed: 0xdcc0,
    };
    prepare_all(&scale, &AnalysisConfig::default()).expect("synthetic traces analyse")
}

fn by_name<'a>(traces: &'a [TraceAnalysis], name: &str) -> &'a TraceAnalysis {
    traces
        .iter()
        .find(|t| t.trace.name() == name)
        .expect("trace")
}

#[test]
fn fig4_zero_sm_shares_match_paper_bands() {
    let traces = traces();
    // Paper: 46% / 10% / 35%.
    let pai = zero_sm_share(by_name(&traces, "pai"));
    let sc = zero_sm_share(by_name(&traces, "supercloud"));
    let ph = zero_sm_share(by_name(&traces, "philly"));
    assert!((0.36..=0.56).contains(&pai), "pai {pai}");
    assert!((0.05..=0.18).contains(&sc), "supercloud {sc}");
    assert!((0.25..=0.45).contains(&ph), "philly {ph}");
    assert!(pai > ph && ph > sc, "ordering must be PAI > Philly > SC");
    // And fig4 itself reports the same shares.
    let f = fig4(&traces);
    for (name, zero, cdf) in &f.rows {
        assert!(*zero > 0.0 && !cdf.is_empty(), "{name} empty");
    }
}

#[test]
fn fig5_failure_exceeds_13pct_everywhere_pai_highest() {
    let traces = traces();
    let shares: Vec<(String, f64)> = traces
        .iter()
        .map(|t| (t.trace.name().to_string(), failed_share(t)))
        .collect();
    for (name, share) in &shares {
        assert!(*share > 0.13, "{name} failed share {share}");
    }
    let pai = shares.iter().find(|(n, _)| n == "pai").unwrap().1;
    assert!(
        shares.iter().all(|(n, s)| n == "pai" || *s < pai),
        "PAI must have the highest failure rate: {shares:?}"
    );
    // Killed label exists only in SuperCloud and Philly.
    let f = fig5(&traces);
    let has_killed = |name: &str| {
        f.rows
            .iter()
            .find(|(n, _)| n == name)
            .unwrap()
            .1
            .iter()
            .any(|(s, _)| s.to_lowercase().contains("kill"))
    };
    assert!(!has_killed("pai"));
    assert!(has_killed("supercloud"));
    assert!(has_killed("philly"));
}

#[test]
fn fig1_itemset_counts_ordered_and_monotone() {
    let traces = traces();
    let f = fig1(&traces, &[0.05, 0.1, 0.3]);
    let at_5pct = |name: &str| {
        f.series
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c[0])
            .unwrap()
    };
    // Paper Fig. 1: PAI has by far the most itemsets; all > 0 at 5%.
    assert!(at_5pct("pai") > 2 * at_5pct("philly"));
    assert!(at_5pct("supercloud") > at_5pct("philly"));
    for (_, counts) in &f.series {
        assert!(counts.windows(2).all(|w| w[0] >= w[1]));
    }
}

#[test]
fn fig3_pruning_reduces_by_large_factor() {
    let traces = traces();
    let f = fig3(&traces);
    assert!(
        f.before as f64 / f.after.max(1) as f64 >= 4.0,
        "pruning reduced {} -> {} (< 4x)",
        f.before,
        f.after
    );
}

#[test]
fn table2_pai_underutilization_rule_families() {
    let traces = traces();
    let pai = by_name(&traces, "pai");
    let kw = pai.analysis.keyword(KW_SM_ZERO).expect("keyword");
    let catalog = &pai.analysis.encoded.catalog;
    let cause_antecedents: Vec<String> = kw
        .causes
        .iter()
        .map(|r| catalog.render(&r.antecedent))
        .collect();
    // Paper Table II cause families: low GPU request / low memory used /
    // low CPU + short runtime style antecedents.
    for needle in ["GMem Used", "Memory Used = Bin1"] {
        assert!(
            cause_antecedents.iter().any(|a| a.contains(needle)),
            "no cause rule mentioning {needle}: {cause_antecedents:?}"
        );
    }
    // Characteristic rules bind idle jobs to the low-customization
    // submission profile (std requests / unspecified GPU / Tensorflow /
    // frequent user).
    let characteristic_text: String = kw
        .characteristics
        .iter()
        .map(|r| {
            format!(
                "{} => {}\n",
                catalog.render(&r.antecedent),
                catalog.render(&r.consequent)
            )
        })
        .collect();
    for needle in ["Freq User", "GPU Type = None"] {
        assert!(
            characteristic_text.contains(needle),
            "characteristics never mention {needle}:\n{characteristic_text}"
        );
    }
}

#[test]
fn table5_pai_failure_rules_have_high_confidence() {
    let traces = traces();
    let pai = by_name(&traces, "pai");
    let kw = pai.analysis.keyword(KW_FAILED).expect("keyword");
    // Paper: multiple strong (conf ~0.9) submission-time failure
    // predictors exist in PAI — "a simple rule-based classifier suffices".
    let strong = kw.causes.iter().filter(|r| r.confidence >= 0.85).count();
    assert!(strong >= 3, "only {strong} high-confidence failure causes");
    // Freq Group–based rules are among them (Table V C1-C3).
    let catalog = &pai.analysis.encoded.catalog;
    assert!(kw
        .causes
        .iter()
        .any(|r| catalog.render(&r.antecedent).contains("Freq Group") && r.confidence > 0.8));
}

#[test]
fn table7_philly_multi_gpu_and_new_users_fail_more() {
    let traces = traces();
    let ph = by_name(&traces, "philly");
    let kw = ph.analysis.keyword(KW_FAILED).expect("keyword");
    let catalog = &ph.analysis.encoded.catalog;
    // Paper Table VII: lift ~2.5 for both Multi-GPU and New User causes.
    // Depending on pruning those antecedents may appear in cause or
    // characteristic direction; check the full kept set.
    let all: Vec<_> = kw.causes.iter().chain(kw.characteristics.iter()).collect();
    let mentions = |needle: &str| {
        all.iter().any(|r| {
            (catalog.render(&r.antecedent).contains(needle)
                || catalog.render(&r.consequent).contains(needle))
                && r.lift >= 1.5
        })
    };
    assert!(mentions("Multi-GPU"), "no multi-GPU failure rule");
    assert!(mentions("New User"), "no new-user failure rule");
    // Long-running failures exist (Table VII A2: Failed => Runtime Bin4).
    assert!(
        kw.characteristics.iter().any(|r| {
            r.role(ph.analysis.item(KW_FAILED).unwrap()) == RuleRole::Characteristic
                && catalog.render(&r.consequent).contains("Runtime = Bin4")
        }),
        "no long-runtime failure characteristic"
    );
}

#[test]
fn table8_queue_rules_opposite_for_t4_and_non_t4() {
    let traces = traces();
    let pai = by_name(&traces, "pai");
    let catalog = &pai.analysis.encoded.catalog;
    let consequent_text = |keyword: &str| -> String {
        pai.analysis
            .keyword(keyword)
            .map(|kw| {
                kw.characteristics
                    .iter()
                    .map(|r| catalog.render(&r.consequent))
                    .collect::<Vec<_>>()
                    .join("\n")
            })
            .unwrap_or_default()
    };
    let t4 = consequent_text("GPU Type = T4");
    let non_t4 = consequent_text("GPU Type = NonT4");
    // Paper PAI1/PAI2: T4 jobs wait the least, non-T4 the most.
    assert!(t4.contains("Queue = Bin1"), "T4 characteristics:\n{t4}");
    assert!(
        non_t4.contains("Queue = Bin4"),
        "NonT4 characteristics:\n{non_t4}"
    );
    assert!(!t4.contains("Queue = Bin4"));
}

#[test]
fn table8_misc_rule_sections_present() {
    let traces = traces();
    let tables = misc_tables(&traces).expect("model-subset analysis");
    assert!(tables.len() >= 5, "expected all Table VIII sections");
    for table in &tables {
        assert!(!table.rows.is_empty(), "{} produced no rules", table.title);
    }
}

#[test]
fn rule_table_top_parameter_caps_rows() {
    let traces = traces();
    let pai = by_name(&traces, "pai");
    let t = rule_table(pai, "t", KW_SM_ZERO, 2);
    let causes = t
        .rows
        .iter()
        .filter(|(tag, ..)| tag.starts_with('C'))
        .count();
    let chars = t
        .rows
        .iter()
        .filter(|(tag, ..)| tag.starts_with('A'))
        .count();
    assert!(causes <= 2 && chars <= 2);
}
