//! Regenerates every table and figure of the paper in one run.
//!
//! ```text
//! cargo run -p irma-bench --bin experiments --release [-- [pai_jobs] [sc_jobs] [philly_jobs] [seed]]
//! ```
//!
//! Defaults to a scale that keeps the full run under a minute in release
//! mode while preserving the paper's relative trace sizes (PAI ~8.5x the
//! others). Output sections follow the paper's order; EXPERIMENTS.md
//! records the paper-vs-measured comparison for each artifact.

use std::time::Instant;

use irma_core::experiments::run_all;
use irma_core::{prepare_all, AnalysisConfig, ExperimentScale};

fn main() {
    let args: Vec<usize> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("numeric argument"))
        .collect();
    let mut scale = ExperimentScale::default();
    if let Some(&n) = args.first() {
        scale.pai_jobs = n;
    }
    if let Some(&n) = args.get(1) {
        scale.supercloud_jobs = n;
    }
    if let Some(&n) = args.get(2) {
        scale.philly_jobs = n;
    }
    if let Some(&s) = args.get(3) {
        scale.seed = s as u64;
    }

    eprintln!(
        "generating traces: pai={} supercloud={} philly={} (seed {:#x})",
        scale.pai_jobs, scale.supercloud_jobs, scale.philly_jobs, scale.seed
    );
    let t0 = Instant::now();
    let traces = match prepare_all(&scale, &AnalysisConfig::default()) {
        Ok(traces) => traces,
        Err(error) => {
            eprintln!(
                "preparing traces failed in the {} stage: {error}",
                error.stage()
            );
            std::process::exit(5);
        }
    };
    eprintln!("prepared in {:.1}s", t0.elapsed().as_secs_f64());
    for t in &traces {
        eprintln!(
            "  {}: {} jobs, {} items, {} frequent itemsets, {} rules",
            t.trace.name(),
            t.analysis.n_jobs(),
            t.analysis.encoded.catalog.len(),
            t.analysis.frequent.len(),
            t.analysis.rules.len()
        );
    }
    let t1 = Instant::now();
    match run_all(&traces) {
        Ok(text) => println!("{text}"),
        Err(error) => {
            eprintln!("experiments failed in the {} stage: {error}", error.stage());
            std::process::exit(5);
        }
    }
    eprintln!("experiments rendered in {:.1}s", t1.elapsed().as_secs_f64());
}
