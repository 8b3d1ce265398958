//! Case study §IV-B: why do jobs underutilize the GPU?
//!
//! ```text
//! cargo run --release --example gpu_underutilization [-- <jobs_per_trace>]
//! ```
//!
//! Reproduces Fig. 4 (CDF of SM utilization) and Tables II–IV (the
//! GPU-underutilization rules of PAI, SuperCloud, and Philly).

use irma::core::experiments::{fig4, underutilization_tables};
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

    println!("{}", fig4(&traces).render());
    for table in underutilization_tables(&traces) {
        println!("{}", table.render());
    }

    println!("Takeaway (paper §IV-B): low CPU utilization and short runtime");
    println!("flag debug/exploratory runs in every trace; route them to a");
    println!("lower-tier pool or GPU-sharing (MPS / MIG) instead of full GPUs.");
    Ok(())
}
