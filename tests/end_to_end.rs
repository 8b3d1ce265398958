//! End-to-end integration: generate a trace, round-trip it through CSV
//! files on disk, re-join, and mine — the full operator workflow across
//! every crate boundary.

use irma::core::{
    pai_spec, philly_spec, supercloud_spec, try_analyze, try_analyze_traced, AnalysisConfig,
    Metrics, Provenance, KW_FAILED, KW_SM_ZERO,
};
use irma::data::{inner_join, read_csv_path, read_csv_str, write_csv_path, write_csv_string};
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
    let provenance = Provenance::enabled();
    let analysis = try_analyze_traced(
        &bundle.merged(),
        &pai_spec(),
        &AnalysisConfig::default(),
        &Metrics::disabled(),
        &provenance,
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
        .keyword_traced(KW_FAILED, &Metrics::disabled(), &provenance)
        .expect("Failed is a PAI item");
    let record = failed.outcome.pruned.first().expect("a pruned Failed rule");
    let labeler = |id: u32| catalog.label(id).to_string();
    let explain = provenance
        .render_explain(
            record.rule.antecedent.items(),
            record.rule.consequent.items(),
            &labeler,
        )
        .expect("pruned rule is recorded");

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
