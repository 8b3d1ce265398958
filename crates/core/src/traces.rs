//! One-call preparation of a trace: generate -> merge -> analyze.

use irma_data::Frame;
use irma_prep::EncoderSpec;
use irma_synth::{pai, philly, supercloud, TraceBundle, TraceConfig};

use crate::fault::{try_analyze, PipelineError};
use crate::specs::{pai_spec, philly_spec, supercloud_spec};
use crate::workflow::{Analysis, AnalysisConfig};

/// A fully prepared trace: the generated bundle, the merged frame, and the
/// completed workflow run.
#[derive(Debug, Clone)]
pub struct TraceAnalysis {
    /// Trace name (`"pai"`, `"supercloud"`, `"philly"`).
    pub name: &'static str,
    /// The generated scheduler + monitoring files.
    pub bundle: TraceBundle,
    /// The joined per-job frame.
    pub merged: Frame,
    /// The workflow output (encoded transactions, itemsets, rules).
    pub analysis: Analysis,
}

/// Job counts and seed for a full three-trace experiment run.
///
/// Defaults reproduce the paper's *relative* scale (PAI ~8.5x the others)
/// at a size that runs in seconds; pass larger counts for full-scale runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentScale {
    /// PAI job count.
    pub pai_jobs: usize,
    /// SuperCloud job count.
    pub supercloud_jobs: usize,
    /// Philly job count.
    pub philly_jobs: usize,
    /// Shared RNG seed.
    pub seed: u64,
}

impl Default for ExperimentScale {
    fn default() -> ExperimentScale {
        ExperimentScale {
            pai_jobs: 85_000,
            supercloud_jobs: 10_000,
            philly_jobs: 10_000,
            seed: 0xdcc0,
        }
    }
}

impl ExperimentScale {
    /// A scale small enough for debug-build tests.
    pub fn tiny() -> ExperimentScale {
        ExperimentScale {
            pai_jobs: 8_000,
            supercloud_jobs: 4_000,
            philly_jobs: 4_000,
            seed: 0xdcc0,
        }
    }
}

/// Generates one trace by name, with its feature specification.
pub(crate) fn generate(name: &str, trace_config: &TraceConfig) -> (TraceBundle, EncoderSpec) {
    match name {
        "pai" => (pai(trace_config), pai_spec()),
        "supercloud" => (supercloud(trace_config), supercloud_spec()),
        "philly" => (philly(trace_config), philly_spec()),
        other => panic!("unknown trace `{other}`"),
    }
}

/// Generates and analyses one trace by name.
pub fn prepare(
    name: &str,
    trace_config: &TraceConfig,
    analysis_config: &AnalysisConfig,
) -> Result<TraceAnalysis, PipelineError> {
    let (bundle, spec) = generate(name, trace_config);
    let merged = bundle.merged();
    let analysis = try_analyze(&merged, &spec, analysis_config)?;
    Ok(TraceAnalysis {
        name: bundle.name,
        bundle,
        merged,
        analysis,
    })
}

/// Prepares all three traces at the given scale.
pub fn prepare_all(
    scale: &ExperimentScale,
    config: &AnalysisConfig,
) -> Result<[TraceAnalysis; 3], PipelineError> {
    let make = |name: &str, n: usize| {
        prepare(
            name,
            &TraceConfig {
                n_jobs: n,
                seed: scale.seed,
                max_monitor_samples: 128,
            },
            config,
        )
    };
    Ok([
        make("pai", scale.pai_jobs)?,
        make("supercloud", scale.supercloud_jobs)?,
        make("philly", scale.philly_jobs)?,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_runs_all_traces() {
        let tc = TraceConfig {
            n_jobs: 2_000,
            seed: 5,
            max_monitor_samples: 32,
        };
        let ac = AnalysisConfig::default();
        for name in ["pai", "supercloud", "philly"] {
            let t = prepare(name, &tc, &ac).unwrap();
            assert_eq!(t.name, name);
            assert_eq!(t.analysis.n_jobs(), 2_000);
            assert!(!t.analysis.frequent.is_empty(), "{name}: no itemsets");
            assert!(!t.analysis.rules.is_empty(), "{name}: no rules");
        }
    }

    #[test]
    #[should_panic(expected = "unknown trace")]
    fn unknown_trace_panics() {
        let _ = prepare(
            "helios",
            &TraceConfig::with_jobs(10),
            &AnalysisConfig::default(),
        );
    }
}
