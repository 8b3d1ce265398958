//! Case study §IV-C: why do jobs fail?
//!
//! ```text
//! cargo run --release --example job_failure [-- <jobs_per_trace>]
//! ```
//!
//! Reproduces Fig. 5 (exit status distribution) and Tables V–VII (the
//! job-failure rules of PAI, SuperCloud, and Philly).

use irma::core::experiments::{failure_tables, fig5};
use irma::core::{prepare_all, AnalysisConfig, ExperimentScale, PipelineError};

fn main() -> Result<(), PipelineError> {
    let n: usize = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("numeric job count"))
        .unwrap_or(20_000);
    let scale = ExperimentScale {
        pai_jobs: n,
        supercloud_jobs: n / 2,
        philly_jobs: n / 2,
        seed: 0xdcc0,
    };
    eprintln!("preparing traces ({n} PAI jobs)...");
    let traces = prepare_all(&scale, &AnalysisConfig::default())?;

    println!("{}", fig5(&traces).render());
    for table in failure_tables(&traces) {
        println!("{}", table.render());
    }

    println!("Takeaway (paper §IV-C): PAI failures are predictable from");
    println!("submission-time features (simple rule/tree classifiers suffice);");
    println!("SuperCloud/Philly failures correlate with users and multi-GPU");
    println!("gang scheduling — screen distributed jobs on a few nodes first.");
    Ok(())
}
