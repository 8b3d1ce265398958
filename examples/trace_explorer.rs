//! Trace explorer: generate a trace to CSV files, re-load them, and mine
//! an ad-hoc keyword — the workflow a system operator would run on their
//! own logs.
//!
//! ```text
//! cargo run --release --example trace_explorer -- <pai|supercloud|philly> \
//!     [keyword] [n_jobs] [out_dir]
//! ```
//!
//! Example:
//! ```text
//! cargo run --release --example trace_explorer -- supercloud "Job Killed" 20000 /tmp/sc
//! ```

use std::path::PathBuf;

use irma::core::{try_analyze, AnalysisConfig, Metrics, PipelineError, Trace};
use irma::data::{inner_join, read_csv_path, write_csv_path};
use irma::synth::TraceConfig;

fn main() -> Result<(), PipelineError> {
    let mut args = std::env::args().skip(1);
    let trace = args.next().unwrap_or_else(|| "supercloud".to_string());
    let keyword = args.next().unwrap_or_else(|| "SM Util = 0%".to_string());
    let n_jobs: usize = args
        .next()
        .map(|a| a.parse().expect("numeric job count"))
        .unwrap_or(20_000);
    let out_dir: PathBuf = args
        .next()
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);

    let profile: Trace = trace.parse().unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2);
    });
    let bundle = profile.generate(&TraceConfig::with_jobs(n_jobs));

    // Persist the two collection-level files, exactly how production
    // monitoring hands them to an operator...
    std::fs::create_dir_all(&out_dir).expect("create output dir");
    let sched_path = out_dir.join(format!("{trace}_scheduler.csv"));
    let mon_path = out_dir.join(format!("{trace}_monitoring.csv"));
    write_csv_path(&bundle.scheduler, &sched_path).expect("write scheduler csv");
    write_csv_path(&bundle.monitoring, &mon_path).expect("write monitoring csv");
    eprintln!("wrote {} and {}", sched_path.display(), mon_path.display());

    // ...then run the paper's workflow from the files on disk.
    let scheduler = read_csv_path(&sched_path).expect("read scheduler csv");
    let monitoring = read_csv_path(&mon_path).expect("read monitoring csv");
    let merged = inner_join(&scheduler, &monitoring, "job_id").expect("join on job_id");
    let analysis = try_analyze(&merged, &profile.spec(), &AnalysisConfig::default())?;

    eprintln!(
        "{} jobs, {} items, {} frequent itemsets, {} rules",
        analysis.n_jobs(),
        analysis.encoded.catalog.len(),
        analysis.frequent.len(),
        analysis.rules.len()
    );
    let rendered = analysis.render_keyword_with(&keyword, 8, &Metrics::disabled());
    println!("{rendered}");

    // Rank other keywords by the strongest rule involving them, so the
    // next question starts from evidence.
    println!("strongest keywords to explore next (max lift / conf of any rule):");
    for (label, lift, conf) in analysis.suggest_keywords(10) {
        println!("  {label:<28} lift {lift:>5.2}  conf {conf:>4.2}");
    }
    let mut labels: Vec<&String> = analysis.encoded.catalog.labels().iter().collect();
    labels.sort();
    println!("all items ({}):", labels.len());
    for chunk in labels.chunks(4) {
        let row: Vec<String> = chunk.iter().map(|l| format!("{l:<28}")).collect();
        println!("  {}", row.join(""));
    }
    Ok(())
}
