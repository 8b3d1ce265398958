//! Quickstart: mine interpretable rules from a tiny job log in ~40 lines.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Walks the whole workflow on an inline CSV: parse -> encode -> mine ->
//! generate rules -> keyword analysis, printing the cause/characteristic
//! tables for job failures, then re-runs with an observability sink (the
//! library form of the CLI's `--metrics` / `--verbose-stages` flags).

use irma::core::{
    try_analyze, try_analyze_traced, AnalysisConfig, Metrics, PipelineError, Provenance,
};
use irma::data::read_csv_str;
use irma::prep::{EncoderSpec, FeatureSpec, ZeroBin};

fn main() -> Result<(), PipelineError> {
    // A miniature scheduler log: short-runtime idle jobs from `eve` fail.
    let mut csv = String::from("job_id,user,runtime_s,sm_util,status\n");
    for i in 0..400 {
        let row = match i % 8 {
            // eve's debug jobs: idle GPU, short runtime, mostly failing.
            0 | 1 => format!(
                "{i},eve,{},0.0,{}",
                30 + i % 60,
                if i % 8 == 0 { "Failed" } else { "Pass" }
            ),
            // healthy training jobs from everyone else.
            2..=4 => format!("{i},ada,{},{}.5,Pass", 4000 + i, 60 + (i % 30)),
            5 | 6 => format!("{i},bob,{},{}.0,Pass", 2000 + i, 40 + (i % 40)),
            // occasional long-running failures.
            _ => format!("{i},ada,{},55.0,Failed", 90_000 + i),
        };
        csv.push_str(&row);
        csv.push('\n');
    }
    let frame = read_csv_str(&csv).expect("inline CSV is well-formed");

    // Describe how columns become items (§III-E of the paper).
    let spec = EncoderSpec::new(vec![
        FeatureSpec::numeric("runtime_s", "Runtime"),
        FeatureSpec::numeric_zero("sm_util", "SM Util", ZeroBin::percent()),
        FeatureSpec::frequency("user", "Freq User", "New User"),
        FeatureSpec::categorical_remap("status", "", [("Failed", "Failed"), ("Pass", "Pass")]),
    ]);

    // Paper defaults: 5% support, itemsets up to length 5, lift >= 1.5,
    // pruning margins C_lift = C_supp = 1.5. Every failure (a spec naming
    // a missing column, an exhausted budget) comes back as a typed,
    // stage-tagged `PipelineError` instead of a panic.
    let analysis = try_analyze(&frame, &spec, &AnalysisConfig::default())?;

    println!(
        "{} jobs -> {} items -> {} frequent itemsets -> {} rules\n",
        analysis.n_jobs(),
        analysis.encoded.catalog.len(),
        analysis.frequent.len(),
        analysis.rules.len()
    );

    // Why do jobs fail, and what else do failed jobs look like?
    let quiet = Metrics::disabled();
    println!("{}", analysis.render_keyword_with("Failed", 5, &quiet));
    // Same question for idle GPUs.
    println!(
        "{}",
        analysis.render_keyword_with("SM Util = 0%", 5, &quiet)
    );

    // The same run with per-stage observability: every pipeline stage
    // records wall time and cardinalities into a `Metrics` sink. This is
    // what `irma analyze --metrics out.json --verbose-stages true` uses;
    // `Metrics::disabled()` makes it all a no-op.
    let metrics = Metrics::enabled();
    let config = AnalysisConfig::default();
    try_analyze_traced(&frame, &spec, &config, &metrics, &Provenance::disabled())?;
    let snapshot = metrics.snapshot();
    println!("per-stage trace:\n{}", snapshot.render_table());
    // `snapshot.to_json()` yields the same data as a machine-readable
    // snapshot — write it wherever `--metrics <path>` would.
    println!("JSON snapshot is {} bytes", snapshot.to_json().len());
    Ok(())
}
