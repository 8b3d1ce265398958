//! End-to-end integration: generate a trace, round-trip it through CSV
//! files on disk, re-join, and mine — the full operator workflow across
//! every crate boundary.

use irma::core::{
    pai_spec, philly_spec, supercloud_spec, try_analyze, try_analyze_traced, AnalysisConfig,
    Metrics, Provenance, KW_FAILED, KW_SM_ZERO,
};
use irma::data::{inner_join, read_csv_path, read_csv_str, write_csv_path, write_csv_string};
use irma::rules::Rule;
use irma::synth::{pai, philly, supercloud, TraceConfig};

#[test]
fn csv_round_trip_preserves_analysis() {
    let config = TraceConfig {
        n_jobs: 3_000,
        seed: 77,
        max_monitor_samples: 32,
    };
    let bundle = supercloud(&config);

    // Analysis directly from the in-memory merge.
    let direct = try_analyze(
        &bundle.merged(),
        &supercloud_spec(),
        &AnalysisConfig::default(),
    )
    .expect("clean synthetic input");

    // Analysis after writing both collection-level files to disk and
    // reading them back.
    let dir = std::env::temp_dir().join(format!("irma_e2e_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sched_path = dir.join("scheduler.csv");
    let mon_path = dir.join("monitoring.csv");
    write_csv_path(&bundle.scheduler, &sched_path).unwrap();
    write_csv_path(&bundle.monitoring, &mon_path).unwrap();
    let sched = read_csv_path(&sched_path).unwrap();
    let mon = read_csv_path(&mon_path).unwrap();
    let merged = inner_join(&sched, &mon, "job_id").unwrap();
    let from_disk = try_analyze(&merged, &supercloud_spec(), &AnalysisConfig::default())
        .expect("round-tripped input");
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(direct.n_jobs(), from_disk.n_jobs());
    assert_eq!(
        direct.encoded.catalog.len(),
        from_disk.encoded.catalog.len()
    );
    assert_eq!(direct.frequent.len(), from_disk.frequent.len());
    assert_eq!(direct.rules.len(), from_disk.rules.len());

    // The flagship keyword analysis is identical rule-for-rule.
    let a = direct.keyword(KW_SM_ZERO).unwrap();
    let b = from_disk.keyword(KW_SM_ZERO).unwrap();
    assert_eq!(a.causes.len(), b.causes.len());
    assert_eq!(a.characteristics.len(), b.characteristics.len());
    for (x, y) in a.causes.iter().zip(&b.causes) {
        assert_eq!(x.antecedent, y.antecedent);
        assert_eq!(x.consequent, y.consequent);
        assert!((x.lift - y.lift).abs() < 1e-9);
    }
}

#[test]
fn same_seed_same_rules_different_seed_different_trace() {
    let mk = |seed| {
        let bundle = supercloud(&TraceConfig {
            n_jobs: 1_500,
            seed,
            max_monitor_samples: 32,
        });
        try_analyze(
            &bundle.merged(),
            &supercloud_spec(),
            &AnalysisConfig::default(),
        )
        .expect("clean synthetic input")
    };
    let a = mk(1);
    let b = mk(1);
    let c = mk(2);
    assert_eq!(a.rules.len(), b.rules.len());
    assert_eq!(a.frequent.len(), b.frequent.len());
    // Different seeds shuffle supports; identical rule sets would signal a
    // seeding bug.
    assert!(
        a.frequent.len() != c.frequent.len() || a.rules.len() != c.rules.len() || {
            let ra = &a.rules[0];
            let rc = &c.rules[0];
            (ra.support - rc.support).abs() > 1e-12
        },
        "seeds 1 and 2 produced identical analyses"
    );
}

/// FNV-1a over the pipeline's rendered output: stable across Rust
/// releases (unlike `DefaultHasher`), so the pinned value below only
/// moves when the output does.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Golden output of a fixed-seed PAI analysis: the full rule list (with
/// exact metric bits), the two paper keyword tables, and the provenance
/// explanation of the first pruned `Failed` rule. Any change to encoding,
/// mining, rule generation, pruning, rendering or provenance moves the
/// digest; a refactor that claims byte-identical output must keep it.
#[test]
fn pai_analysis_output_is_pinned() {
    let bundle = pai(&TraceConfig {
        n_jobs: 4_000,
        seed: 2024,
        max_monitor_samples: 32,
    });
    let analysis = try_analyze_traced(
        &bundle.merged(),
        &pai_spec(),
        &AnalysisConfig::default(),
        &Metrics::disabled(),
        &Provenance::disabled(),
    )
    .expect("clean synthetic input");
    let catalog = &analysis.encoded.catalog;

    let mut rule_text = String::new();
    for rule in &analysis.rules {
        rule_text.push_str(&format!(
            "{} | {} {:016x} {:016x} {:016x}\n",
            rule.render(catalog),
            rule.support_count,
            rule.support.to_bits(),
            rule.confidence.to_bits(),
            rule.lift.to_bits(),
        ));
    }
    let mut tables = String::new();
    for label in [KW_FAILED, KW_SM_ZERO] {
        tables.push_str(&analysis.render_keyword_with(label, 10, &Metrics::disabled()));
    }
    let failed = analysis
        .keyword_traced(KW_FAILED, &Metrics::disabled(), &Provenance::enabled())
        .expect("Failed is a PAI item");
    let record = failed.outcome.pruned.first().expect("a pruned Failed rule");
    let labeler = |id: u32| catalog.label(id).to_string();
    let explain = analysis
        .explainer(failed.outcome.log.as_ref())
        .explain(
            record.rule.antecedent.items(),
            record.rule.consequent.items(),
            &labeler,
            &Metrics::disabled(),
        )
        .expect("pruned rule is explained");

    assert!(explain.contains("verdict: PRUNED"), "{explain}");
    assert_eq!(
        (
            analysis.rules.len(),
            fnv1a(&rule_text),
            fnv1a(&tables),
            fnv1a(&explain)
        ),
        (
            109_044,
            17_992_727_435_083_748_305,
            6_630_595_333_397_597_649,
            9_189_223_870_671_931_006
        ),
        "golden output changed; keyword tables:\n{tables}"
    );
}

/// Golden provenance of the same fixed-seed PAI analysis and its `Failed`
/// keyword run: the full JSONL export, and the explanations of a kept
/// rule, a rule pruned through a marking chain (its winner was pruned
/// too), the smallest-key candidate the lift floor dropped, and a
/// generated rule outside the keyword analysis. The digests were recorded
/// from the recorder that logged every decision as it happened; the
/// on-demand renderer must reproduce them byte for byte.
#[test]
fn pai_provenance_export_is_pinned() {
    let bundle = pai(&TraceConfig {
        n_jobs: 4_000,
        seed: 2024,
        max_monitor_samples: 32,
    });
    let analysis = try_analyze(&bundle.merged(), &pai_spec(), &AnalysisConfig::default())
        .expect("clean synthetic input");
    let failed = analysis
        .keyword_traced(KW_FAILED, &Metrics::disabled(), &Provenance::enabled())
        .expect("Failed is a PAI item");
    let catalog = &analysis.encoded.catalog;
    let labeler = |id: u32| catalog.label(id).to_string();
    let explainer = analysis.explainer(failed.outcome.log.as_ref());
    let failed_id = analysis.item(KW_FAILED).expect("Failed is a PAI item");

    let kept = failed.causes[0].clone();
    let dead: std::collections::HashSet<_> =
        failed.outcome.pruned.iter().map(|r| r.rule.key()).collect();
    let chained = failed
        .outcome
        .pruned
        .iter()
        .find(|r| dead.contains(&r.dominated_by))
        .expect("a marking chain")
        .rule
        .clone();
    let frequent = &analysis.frequent;
    let mut filtered: Option<Rule> = None;
    for (set, count) in frequent.iter().filter(|(s, _)| s.len() >= 2) {
        for ante in set.proper_subsets() {
            let cons = set.difference(&ante);
            let rule = Rule::from_counts(
                ante.clone(),
                cons.clone(),
                *count,
                frequent.count(&ante).unwrap(),
                frequent.count(&cons).unwrap(),
                frequent.n_transactions(),
            );
            if rule.lift < analysis.config.rules.min_lift
                && filtered.as_ref().is_none_or(|f| rule.key() < f.key())
            {
                filtered = Some(rule);
            }
        }
    }
    let filtered = filtered.expect("a candidate below the lift floor");
    let outside = analysis
        .rules
        .iter()
        .find(|r| !r.contains(failed_id))
        .expect("a rule without Failed")
        .clone();

    let explain = |rule: &Rule| {
        explainer
            .explain(
                rule.antecedent.items(),
                rule.consequent.items(),
                &labeler,
                &Metrics::disabled(),
            )
            .expect("every case was a candidate")
    };
    let texts = [&kept, &chained, &filtered, &outside].map(explain);
    assert!(texts[0].contains("verdict: KEPT"), "{}", texts[0]);
    assert!(texts[1].contains("the winner's own fate:"), "{}", texts[1]);
    assert!(texts[2].contains("generation: dropped"), "{}", texts[2]);
    assert!(
        texts[3].contains("not part of this keyword analysis"),
        "{}",
        texts[3]
    );
    // A rule whose itemset is not frequent was never a candidate.
    assert!(explainer
        .explain(&[failed_id], &[failed_id], &labeler, &Metrics::disabled())
        .is_none());

    let jsonl = explainer.to_jsonl(&labeler);
    assert_eq!(
        (
            jsonl.lines().count(),
            jsonl.len(),
            fnv1a(&jsonl),
            texts.map(|t| fnv1a(&t))
        ),
        (
            125_630,
            75_653_395,
            15_046_154_233_038_547_356,
            [
                15_300_895_501_240_129_666,
                9_189_223_870_671_931_006,
                16_934_280_941_534_897_131,
                18_110_657_304_877_376_691
            ]
        ),
        "golden provenance changed"
    );
}

/// Digest of an encoding: catalog labels in id order, then every
/// transaction's item ids (the CSR rows), one line each.
fn encoding_digest(encoded: &irma::prep::Encoded) -> (usize, usize, u64) {
    let mut text = encoded.catalog.labels().join("\n");
    for t in encoded.db.iter() {
        text.push('\n');
        for id in t {
            text.push_str(&format!("{id} "));
        }
    }
    (
        encoded.catalog.len(),
        encoded.db.total_items(),
        fnv1a(&text),
    )
}

/// Writes a bundle's two files as CSV text, reads them back, re-joins
/// and encodes: the whole ingest path from bytes to transactions.
fn encode_through_csv(
    bundle: &irma::synth::TraceBundle,
    spec: &irma::prep::EncoderSpec,
) -> irma::prep::Encoded {
    let sched = read_csv_str(&write_csv_string(&bundle.scheduler)).expect("scheduler CSV");
    let mon = read_csv_str(&write_csv_string(&bundle.monitoring)).expect("monitoring CSV");
    let merged = inner_join(&sched, &mon, "job_id").expect("join on job_id");
    irma::prep::encode(&merged, spec, &Metrics::disabled())
}

/// Golden encoding of a fixed-seed SuperCloud trace after a CSV round
/// trip: any change to the CSV reader or writer, the join or the
/// encoder that moves a label, an item id or a transaction moves it.
#[test]
fn supercloud_encoding_is_pinned() {
    let bundle = supercloud(&TraceConfig {
        n_jobs: 3_000,
        seed: 2024,
        max_monitor_samples: 32,
    });
    let digest = encoding_digest(&encode_through_csv(&bundle, &supercloud_spec()));
    assert_eq!(
        digest,
        (47, 34_931, 15_267_156_007_425_662_303),
        "golden SuperCloud encoding changed"
    );
}

/// Golden encoding of a fixed-seed Philly trace, as above.
#[test]
fn philly_encoding_is_pinned() {
    let bundle = philly(&TraceConfig {
        n_jobs: 3_000,
        seed: 2024,
        max_monitor_samples: 32,
    });
    let digest = encoding_digest(&encode_through_csv(&bundle, &philly_spec()));
    assert_eq!(
        digest,
        (48, 28_278, 1_894_120_271_969_336_726),
        "golden Philly encoding changed"
    );
}

/// A rule keyed by its labels, with its exact counts and metric bits.
type LabeledRule = (Vec<String>, Vec<String>, u64, u64, u64);

fn labeled(rule: &Rule, catalog: &irma::mine::ItemCatalog) -> LabeledRule {
    let labels = |set: &irma::mine::Itemset| {
        let mut out: Vec<String> = set
            .items()
            .iter()
            .map(|&id| catalog.label(id).to_string())
            .collect();
        out.sort();
        out
    };
    (
        labels(&rule.antecedent),
        labels(&rule.consequent),
        rule.support_count,
        rule.confidence.to_bits(),
        rule.lift.to_bits(),
    )
}

fn labeled_set<'a>(
    rules: impl IntoIterator<Item = &'a Rule>,
    catalog: &irma::mine::ItemCatalog,
) -> std::collections::BTreeSet<LabeledRule> {
    rules.into_iter().map(|r| labeled(r, catalog)).collect()
}

/// Metamorphic check: the analysis is a function of the *set* of jobs,
/// not of their row order. Permuting the merged frame's rows must leave
/// the itemset count, the rule set (with exact support counts,
/// confidence and lift) and each keyword's kept rules equal, compared by
/// label. Item ids are not compared: they follow first appearance in the
/// rows, so they (and the render order among exactly tied rules) move.
#[test]
fn row_permutation_leaves_the_analysis_unchanged() {
    let config = TraceConfig {
        n_jobs: 5_000,
        seed: 31,
        max_monitor_samples: 32,
    };
    let traces = [
        ("pai", pai(&config).merged(), pai_spec()),
        ("philly", philly(&config).merged(), philly_spec()),
        (
            "supercloud",
            supercloud(&config).merged(),
            supercloud_spec(),
        ),
    ];
    for (name, frame, spec) in traces {
        // Seeded Fisher-Yates over the row indices (SplitMix64 steps).
        let mut order: Vec<usize> = (0..frame.n_rows()).collect();
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        for i in (1..order.len()).rev() {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            order.swap(i, ((z ^ (z >> 31)) % (i as u64 + 1)) as usize);
        }
        let permuted = frame.take(&order);
        let run = |frame| {
            try_analyze(frame, &spec, &AnalysisConfig::default()).expect("clean synthetic input")
        };
        let (a, b) = (run(&frame), run(&permuted));
        let (ca, cb) = (&a.encoded.catalog, &b.encoded.catalog);

        assert_eq!(a.frequent.len(), b.frequent.len(), "{name}: itemset count");
        assert_eq!(a.rules.len(), b.rules.len(), "{name}: rule count");
        assert!(
            labeled_set(&a.rules, ca) == labeled_set(&b.rules, cb),
            "{name}: rule sets differ"
        );
        let mut keywords = 0;
        for label in [KW_FAILED, KW_SM_ZERO] {
            let (Some(ka), Some(kb)) = (a.keyword(label), b.keyword(label)) else {
                assert!(a.item(label).is_none() && b.item(label).is_none());
                continue;
            };
            keywords += 1;
            assert_eq!(
                labeled_set(&ka.causes, ca),
                labeled_set(&kb.causes, cb),
                "{name}: `{label}` kept causes"
            );
            assert_eq!(
                labeled_set(&ka.characteristics, ca),
                labeled_set(&kb.characteristics, cb),
                "{name}: `{label}` kept characteristics"
            );
        }
        assert!(keywords > 0, "{name}: no paper keyword present");
    }
}
