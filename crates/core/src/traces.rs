//! One-call preparation of a trace: generate -> merge -> analyze.

use std::str::FromStr;

use irma_data::Frame;
use irma_prep::EncoderSpec;
use irma_synth::{pai, philly, supercloud, TraceBundle, TraceConfig};

use crate::fault::{try_analyze, PipelineError};
use crate::specs::{pai_spec, philly_spec, supercloud_spec};
use crate::workflow::{Analysis, AnalysisConfig};

/// One of the paper's three trace profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trace {
    /// Alibaba PAI.
    Pai,
    /// MIT SuperCloud.
    SuperCloud,
    /// Microsoft Philly.
    Philly,
}

impl Trace {
    /// Every profile, in the paper's order.
    pub const ALL: [Trace; 3] = [Trace::Pai, Trace::SuperCloud, Trace::Philly];

    /// The profile's name (`"pai"`, `"supercloud"`, `"philly"`).
    pub fn name(self) -> &'static str {
        match self {
            Trace::Pai => "pai",
            Trace::SuperCloud => "supercloud",
            Trace::Philly => "philly",
        }
    }

    /// The profile's §III-E feature specification.
    pub fn spec(self) -> EncoderSpec {
        match self {
            Trace::Pai => pai_spec(),
            Trace::SuperCloud => supercloud_spec(),
            Trace::Philly => philly_spec(),
        }
    }

    /// Generates the profile's scheduler and monitoring files.
    pub fn generate(self, config: &TraceConfig) -> TraceBundle {
        match self {
            Trace::Pai => pai(config),
            Trace::SuperCloud => supercloud(config),
            Trace::Philly => philly(config),
        }
    }
}

impl FromStr for Trace {
    type Err = String;

    fn from_str(name: &str) -> Result<Trace, String> {
        Trace::ALL
            .into_iter()
            .find(|trace| trace.name() == name)
            .ok_or_else(|| format!("unknown trace `{name}` (expected pai|supercloud|philly)"))
    }
}

/// A fully prepared trace: the generated bundle, the merged frame, and the
/// completed workflow run.
#[derive(Debug, Clone)]
pub struct TraceAnalysis {
    /// The trace profile.
    pub trace: Trace,
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

/// Generates and analyses one trace.
pub fn prepare(
    trace: Trace,
    trace_config: &TraceConfig,
    analysis_config: &AnalysisConfig,
) -> Result<TraceAnalysis, PipelineError> {
    let bundle = trace.generate(trace_config);
    let merged = bundle.merged();
    let analysis = try_analyze(&merged, &trace.spec(), analysis_config)?;
    Ok(TraceAnalysis {
        trace,
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
    let make = |trace: Trace, n: usize| {
        prepare(
            trace,
            &TraceConfig {
                n_jobs: n,
                seed: scale.seed,
                max_monitor_samples: 128,
            },
            config,
        )
    };
    Ok([
        make(Trace::Pai, scale.pai_jobs)?,
        make(Trace::SuperCloud, scale.supercloud_jobs)?,
        make(Trace::Philly, scale.philly_jobs)?,
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
        for trace in Trace::ALL {
            let t = prepare(trace, &tc, &ac).unwrap();
            assert_eq!(t.trace, trace);
            assert_eq!(t.analysis.n_jobs(), 2_000);
            assert!(!t.analysis.frequent.is_empty(), "{trace:?}: no itemsets");
            assert!(!t.analysis.rules.is_empty(), "{trace:?}: no rules");
        }
    }

    #[test]
    fn trace_names_round_trip_and_unknown_names_are_rejected() {
        for trace in Trace::ALL {
            assert_eq!(trace.name().parse(), Ok(trace));
        }
        assert_eq!(
            "helios".parse::<Trace>(),
            Err("unknown trace `helios` (expected pai|supercloud|philly)".to_string())
        );
        assert!("PAI".parse::<Trace>().is_err());
    }
}
