//! # irma-core — the IRMA analysis workflow
//!
//! End-to-end reproduction of the paper's interpretable-analysis pipeline:
//! generate (or load) a trace, merge its collection-level files, encode
//! transactions ([`irma_prep`]), mine frequent itemsets ([`irma_mine`]),
//! generate and prune rules ([`irma_rules`]), and render the case-study
//! tables.
//!
//! * [`fault`] / [`workflow`] — [`try_analyze`] and its traced variants
//!   over [`AnalysisConfig`] / [`Analysis`], the single-call pipeline with
//!   the paper's default thresholds;
//! * [`specs`] — the per-trace §III-E feature specifications;
//! * [`traces`] — the [`Trace`] profiles and one-call trace preparation
//!   ([`prepare`], [`prepare_all`]);
//! * [`experiments`] — one function per paper table and figure;
//! * [`stats`] / [`report`] — CDFs, box stats, and text rendering;
//! * [`watch`] — [`watch_feed`], the `irma watch` daemon: every feed
//!   line reaches a sliding window over a bounded blocking channel, and
//!   each emission climbs the same budget ladder as [`try_analyze`].
//!
//! ```no_run
//! use irma_core::{pai_spec, try_analyze, AnalysisConfig, Metrics};
//! use irma_synth::{pai, TraceConfig};
//!
//! let bundle = pai(&TraceConfig::with_jobs(50_000));
//! match try_analyze(&bundle.merged(), &pai_spec(), &AnalysisConfig::default()) {
//!     Ok(analysis) => {
//!         println!("{}", analysis.render_keyword_with("SM Util = 0%", 5, &Metrics::disabled()))
//!     }
//!     Err(error) => eprintln!("analysis failed in the {} stage: {error}", error.stage()),
//! }
//! ```

#![warn(missing_docs)]

pub mod chrome_trace;
pub mod experiments;
pub mod export;
pub mod fault;
pub mod fingerprint;
pub mod insights;
pub mod predict;
pub mod report;
pub mod sched;
pub mod specs;
pub mod stats;
pub mod traces;
pub mod watch;
pub mod workflow;

pub use chrome_trace::chrome_trace;
pub use fault::{
    try_analyze, try_analyze_traced, try_analyze_traced_hooked, Degradation, DegradationStep,
    PipelineError, StageHooks, MAX_DEGRADATION_RETRIES,
};
pub use fingerprint::{config_cache_key, dataset_fingerprint};
pub use predict::{
    failure_prediction, prediction_experiment, PredictionExperiment, PredictionResult,
};
pub use sched::{record_sched_snapshot, record_sched_stats, sched_stats_to_obs};
pub use specs::{
    pai_spec, philly_spec, supercloud_spec, KW_FAILED, KW_KILLED, KW_MULTI_GPU, KW_SM_ZERO,
};
pub use traces::{prepare, prepare_all, ExperimentScale, Trace, TraceAnalysis};
pub use watch::{watch_feed, Emission, WatchConfig, WatchSummary};
pub use workflow::{Analysis, AnalysisConfig};

// Budget types and observability handles, re-exported so workflow
// callers need not depend on `irma-mine`/`irma-obs` directly.
pub use irma_mine::{BudgetBreach, CancelToken, ExecBudget};
pub use irma_obs::{EventSink, Metrics, Provenance, Snapshot};
