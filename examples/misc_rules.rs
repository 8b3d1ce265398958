//! Case study §IV-D: trace-specific rules (Table VIII).
//!
//! ```text
//! cargo run --release --example misc_rules [-- <jobs_per_trace>]
//! ```
//!
//! Queue waits by GPU type (PAI1/PAI2), workload-specific placement
//! (PAI3/PAI4), new users killing jobs on SuperCloud (CIR1), and
//! long-running multi-GPU jobs on Philly (PHI1).

use irma::core::experiments::misc_tables;
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

    for table in misc_tables(&traces)? {
        println!("{}", table.render());
    }

    println!("Takeaways (paper §IV-D): T4s queue far less than P100/V100");
    println!("despite a 1:3.5 inventory ratio — rebalance heterogeneous");
    println!("clusters; RecSys favours T4 with parallel tasks, NLP pairs");
    println!("high SM with idle CPUs; schedulers should expect multi-GPU");
    println!("jobs to run long (bad fit for shortest-job-first).");
    Ok(())
}
