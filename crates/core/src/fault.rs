//! The pipeline's entry points: the paper's workflow, made safe to run
//! behind a service.
//!
//! * [`try_analyze`] / [`try_analyze_traced`] — encode, mine, generate;
//!   every stage runs under `catch_unwind` and every failure comes back
//!   as a stage-tagged [`PipelineError`] instead of unwinding the caller;
//! * an execution budget ([`irma_mine::ExecBudget`], carried on
//!   [`AnalysisConfig::budget`]) bounding mined itemsets, estimated
//!   miner index memory, and wall-clock time via a cooperative
//!   [`irma_mine::CancelToken`] checked inside all three miners'
//!   recursions;
//! * a **degradation ladder**: when mining breaches the budget the
//!   workflow retries with the paper's own knobs turned the cheap way —
//!   min-support doubled, max itemset length decremented — and the
//!   resulting [`Analysis`] carries a [`Degradation`] report (also
//!   flagged in the obs snapshot via [`irma_obs::Metrics::mark_degraded`])
//!   so a best-effort answer can never masquerade as a complete one.
//!
//! The deadline covers **one climb of the ladder**: retries share the
//! first attempt's [`irma_mine::CancelToken`], so retrying never wins
//! back already-spent wall-clock time and a tiny `--deadline` exhausts
//! the ladder deterministically instead of looping. A batch run climbs
//! the ladder once; `irma watch` climbs it once per emission, so each
//! emission gets the whole deadline.
//!
//! [`StageHooks`] exists for the fault-injection harness in
//! `irma-check`: it fires a callback at each stage entry *inside* that
//! stage's `catch_unwind`, so an injected panic exercises exactly the
//! containment path a real bug would.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use irma_data::Frame;
use irma_mine::{
    eclat, BudgetBreach, BudgetGuard, ExecBudget, FrequentItemsets, MineError, MinerConfig,
};
use irma_obs::{Metrics, Provenance};
use irma_prep::{encode, EncoderSpec};
use irma_rules::generate_rules;

use crate::workflow::{Analysis, AnalysisConfig};

/// Maximum number of ladder retries after the initial attempt.
pub const MAX_DEGRADATION_RETRIES: usize = 3;

/// A typed, stage-tagged pipeline failure: every way [`try_analyze`] can
/// not produce an [`Analysis`], none of which unwinds the caller.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// The input text could not be parsed into a [`Frame`].
    Parse(String),
    /// The encode stage panicked (e.g. a spec names a missing column).
    Encode(String),
    /// The mine stage failed: invalid miner config, or a panic the
    /// per-stage `catch_unwind` contained.
    Mine(String),
    /// The rule-generation stage panicked.
    Rules(String),
    /// The execution budget was breached and the degradation ladder ran
    /// out of knobs to relax (or of retries).
    BudgetExceeded {
        /// The breach that ended the final attempt.
        breach: BudgetBreach,
        /// Total attempts made (initial + retries).
        attempts: u32,
    },
    /// A parallel worker panicked; the panic was contained (per top-level
    /// item in Eclat, per stage otherwise) instead of aborting the process.
    WorkerPanic {
        /// Pipeline stage the worker belonged to.
        stage: &'static str,
        /// Rendered panic payload.
        message: String,
    },
}

impl PipelineError {
    /// Short stage tag (`parse`, `encode`, `mine`, `rules`, `budget`,
    /// `worker_panic`) for logs and exit-code mapping.
    pub fn stage(&self) -> &'static str {
        match self {
            PipelineError::Parse(_) => "parse",
            PipelineError::Encode(_) => "encode",
            PipelineError::Mine(_) => "mine",
            PipelineError::Rules(_) => "rules",
            PipelineError::BudgetExceeded { .. } => "budget",
            PipelineError::WorkerPanic { .. } => "worker_panic",
        }
    }
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Parse(msg) => write!(f, "parse error: {msg}"),
            PipelineError::Encode(msg) => write!(f, "encode stage failed: {msg}"),
            PipelineError::Mine(msg) => write!(f, "mine stage failed: {msg}"),
            PipelineError::Rules(msg) => write!(f, "rules stage failed: {msg}"),
            PipelineError::BudgetExceeded { breach, attempts } => {
                write!(f, "budget exceeded after {attempts} attempt(s): {breach}")
            }
            PipelineError::WorkerPanic { stage, message } => {
                write!(f, "worker panicked in {stage} stage: {message}")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// One rung of the degradation ladder: the budget breach that failed an
/// attempt, and the knobs that attempt ran with.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationStep {
    /// Why the attempt was abandoned.
    pub breach: BudgetBreach,
    /// The min-support the failed attempt used.
    pub failed_min_support: f64,
    /// The max itemset length the failed attempt used.
    pub failed_max_len: usize,
}

/// The record a degraded [`Analysis`] always carries: every failed
/// attempt plus the relaxed knobs that finally fit the budget. Presence
/// of this record is the contract — a budget-laddered answer is never
/// silently complete.
#[derive(Debug, Clone, PartialEq)]
pub struct Degradation {
    /// Failed attempts, in order.
    pub steps: Vec<DegradationStep>,
    /// Min-support of the successful attempt.
    pub final_min_support: f64,
    /// Max itemset length of the successful attempt.
    pub final_max_len: usize,
}

impl Degradation {
    /// Total attempts made, counting the successful one.
    pub fn attempts(&self) -> usize {
        self.steps.len() + 1
    }
}

/// A shared stage-entry callback (receives the stage name).
type StageHook = Arc<dyn Fn(&str) + Send + Sync>;

/// Test-only seams for the fault-injection harness: a callback fired at
/// each stage entry (`encode`, `mine`, `rules`), *inside* that stage's
/// `catch_unwind`. Production callers use [`StageHooks::default`], which
/// fires nothing.
#[derive(Clone, Default)]
pub struct StageHooks {
    on_stage: Option<StageHook>,
}

impl std::fmt::Debug for StageHooks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StageHooks")
            .field("on_stage", &self.on_stage.is_some())
            .finish()
    }
}

impl StageHooks {
    /// A hook invoked with the stage name at each stage entry. Panicking
    /// from the hook simulates a bug inside that stage.
    pub fn on_stage(hook: impl Fn(&str) + Send + Sync + 'static) -> StageHooks {
        StageHooks {
            on_stage: Some(Arc::new(hook)),
        }
    }

    fn fire(&self, stage: &str) {
        if let Some(hook) = &self.on_stage {
            hook(stage);
        }
    }
}

/// Maps a contained stage panic to its typed error. A payload from the
/// thread-pool join ("parallel worker panicked") means the panic started
/// on a worker thread, which gets the dedicated variant.
fn panic_to_error(stage: &'static str, payload: Box<dyn std::any::Any + Send>) -> PipelineError {
    let message = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    };
    if message.contains("parallel worker panicked") {
        return PipelineError::WorkerPanic { stage, message };
    }
    match stage {
        "encode" => PipelineError::Encode(message),
        "mine" => PipelineError::Mine(message),
        _ => PipelineError::Rules(message),
    }
}

/// A successful climb of the degradation ladder.
pub(crate) struct Climbed {
    /// What the successful attempt mined.
    pub frequent: FrequentItemsets,
    /// The knobs the successful attempt ran with.
    pub knobs: MinerConfig,
    /// Failed attempts, in order (empty when the first attempt fit).
    pub steps: Vec<DegradationStep>,
}

/// The degradation ladder, shared by the batch pipeline and every `irma
/// watch` emission: mines with `attempt` from `base`'s knobs under a fresh
/// [`BudgetGuard`] per rung, and on a budget breach retries with the
/// paper's own knobs turned the cheap way — min-support doubled, max
/// itemset length decremented — at most [`MAX_DEGRADATION_RETRIES`]
/// times. The guards share one token minted here, so `budget.deadline`
/// bounds the whole climb. A panic inside an attempt is contained and
/// typed as a mine-stage failure. Each failed rung counts one
/// `core.degradation_steps`; a success after one marks `metrics`
/// degraded.
pub(crate) fn climb_ladder(
    base: &MinerConfig,
    budget: &ExecBudget,
    metrics: &Metrics,
    mut attempt: impl FnMut(&MinerConfig, &BudgetGuard) -> Result<FrequentItemsets, MineError>,
) -> Result<Climbed, PipelineError> {
    let climb = BudgetGuard::new(budget);
    let mut knobs = base.clone();
    let mut steps: Vec<DegradationStep> = Vec::new();
    loop {
        let guard = climb.renew(budget);
        let outcome = catch_unwind(AssertUnwindSafe(|| attempt(&knobs, &guard)))
            .map_err(|payload| panic_to_error("mine", payload))?;
        match outcome {
            Ok(frequent) => {
                if !steps.is_empty() {
                    metrics.mark_degraded();
                }
                return Ok(Climbed {
                    frequent,
                    knobs,
                    steps,
                });
            }
            Err(MineError::InvalidConfig(msg)) => {
                return Err(PipelineError::Mine(format!("invalid miner config: {msg}")));
            }
            Err(MineError::WorkerPanic { message }) => {
                return Err(PipelineError::WorkerPanic {
                    stage: "mine",
                    message,
                });
            }
            Err(MineError::Budget(breach)) => {
                steps.push(DegradationStep {
                    breach: breach.clone(),
                    failed_min_support: knobs.min_support,
                    failed_max_len: knobs.max_len,
                });
                metrics.incr("core.degradation_steps", 1);
                // Doubling min-support shrinks the frequent family
                // geometrically; dropping max_len caps enumeration depth.
                let next_support = (knobs.min_support * 2.0).min(1.0);
                let next_len = knobs.max_len.saturating_sub(1).max(1);
                let knobs_changed = next_support > knobs.min_support || next_len < knobs.max_len;
                if !knobs_changed || steps.len() > MAX_DEGRADATION_RETRIES {
                    return Err(PipelineError::BudgetExceeded {
                        breach,
                        attempts: steps.len() as u32,
                    });
                }
                knobs.min_support = next_support;
                knobs.max_len = next_len;
            }
        }
    }
}

/// Runs encode -> mine -> generate over a merged per-job frame. Returns
/// a typed [`PipelineError`] instead of panicking, enforces
/// [`AnalysisConfig::budget`], and retries over the degradation ladder on
/// budget breaches.
pub fn try_analyze(
    frame: &Frame,
    spec: &EncoderSpec,
    config: &AnalysisConfig,
) -> Result<Analysis, PipelineError> {
    try_analyze_traced_hooked(
        frame,
        spec,
        config,
        &Metrics::disabled(),
        &StageHooks::default(),
    )
}

/// [`try_analyze`] with observability: every pipeline stage (`prep.fit`,
/// `prep.transform`, `mine.tree_build`/`mine.mine`, `rules.generate`)
/// emits a [`irma_obs::StageEvent`] into `metrics`
/// under one `core.analyze` root span. A degraded success marks the
/// metrics registry ([`Metrics::mark_degraded`]) and counts ladder steps
/// under `core.degradation_steps`.
///
/// The provenance handle records nothing here: generation verdicts are
/// recomputed on demand ([`Analysis::explainer`]), and only
/// [`Analysis::keyword_traced`] keeps a decision log.
pub fn try_analyze_traced(
    frame: &Frame,
    spec: &EncoderSpec,
    config: &AnalysisConfig,
    metrics: &Metrics,
    _provenance: &Provenance,
) -> Result<Analysis, PipelineError> {
    try_analyze_traced_hooked(frame, spec, config, metrics, &StageHooks::default())
}

/// [`try_analyze_traced`] with fault-injection seams; see [`StageHooks`].
pub fn try_analyze_traced_hooked(
    frame: &Frame,
    spec: &EncoderSpec,
    config: &AnalysisConfig,
    metrics: &Metrics,
    hooks: &StageHooks,
) -> Result<Analysis, PipelineError> {
    let mut root = metrics.span("core.analyze");

    // Validate the pruning margins up front: keyword pruning runs as a
    // later query against the returned `Analysis`, whose keyword methods
    // return `Option` and rely on this check instead of an error path.
    if let Err(error) = config.prune.validate() {
        return Err(PipelineError::Rules(format!(
            "invalid prune params: {error}"
        )));
    }

    // Encode once — its cost does not depend on the mining knobs, so the
    // ladder never needs to redo it.
    let encoded = catch_unwind(AssertUnwindSafe(|| {
        hooks.fire("encode");
        encode(frame, spec, metrics)
    }))
    .map_err(|payload| panic_to_error("encode", payload))?;

    let Climbed {
        frequent,
        knobs: miner,
        steps,
    } = climb_ladder(&config.miner, &config.budget, metrics, |knobs, guard| {
        hooks.fire("mine");
        eclat(&encoded.db, knobs, metrics, guard)
    })?;
    let rules = catch_unwind(AssertUnwindSafe(|| {
        hooks.fire("rules");
        generate_rules(&frequent, &config.rules, metrics)
    }))
    .map_err(|payload| panic_to_error("rules", payload))?;

    let degradation = (!steps.is_empty()).then_some(Degradation {
        steps,
        final_min_support: miner.min_support,
        final_max_len: miner.max_len,
    });

    root.field("jobs", encoded.db.len() as u64);
    root.field("rules", rules.len() as u64);
    if let Some(d) = &degradation {
        root.field("degradation_steps", d.steps.len() as u64);
    }
    Ok(Analysis {
        encoded,
        frequent,
        rules,
        config: AnalysisConfig {
            miner,
            ..config.clone()
        },
        degradation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use irma_data::read_csv_str;
    use irma_mine::ExecBudget;
    use irma_prep::{FeatureSpec, ZeroBin};
    use std::sync::Once;
    use std::time::Duration;

    /// The contained-panic tests would spray backtraces over test output;
    /// silence the default hook once for this binary.
    fn quiet_panics() {
        static QUIET: Once = Once::new();
        QUIET.call_once(|| {
            let previous = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let payload_is_injected = info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|s| s.contains("injected"))
                    || info
                        .payload()
                        .downcast_ref::<String>()
                        .is_some_and(|s| s.contains("injected"));
                if !payload_is_injected {
                    previous(info);
                }
            }));
        });
    }

    fn tiny_frame() -> (Frame, EncoderSpec) {
        let mut csv = String::from("runtime,sm\n");
        for i in 0..20 {
            let (rt, sm) = if i < 8 { (10.0, 0.0) } else { (5_000.0, 70.0) };
            csv.push_str(&format!("{},{}\n", rt + i as f64, sm));
        }
        let frame = read_csv_str(&csv).unwrap();
        let spec = EncoderSpec::new(vec![
            FeatureSpec::numeric("runtime", "Runtime"),
            FeatureSpec::numeric_zero("sm", "SM Util", ZeroBin::percent()),
        ]);
        (frame, spec)
    }

    fn base_config() -> AnalysisConfig {
        let mut config = AnalysisConfig::default();
        config.rules.min_lift = 1.2;
        config
    }

    #[test]
    fn itemset_budget_trips_then_ladder_recovers() {
        let (frame, spec) = tiny_frame();
        let mut config = base_config();
        config.miner.min_support = 0.05;
        config.budget = ExecBudget {
            max_itemsets: Some(10),
            ..ExecBudget::default()
        };
        let metrics = Metrics::enabled();
        let analysis =
            try_analyze_traced(&frame, &spec, &config, &metrics, &Provenance::disabled())
                .expect("ladder should recover");
        let degradation = analysis.degradation.as_ref().expect("degradation recorded");
        assert!(!degradation.steps.is_empty());
        assert!(degradation.final_min_support > 0.05);
        assert!(matches!(
            degradation.steps[0].breach,
            BudgetBreach::Itemsets { cap: 10, .. }
        ));
        // The effective knobs land in the analysis config too.
        assert_eq!(
            analysis.config.miner.min_support,
            degradation.final_min_support
        );
        // And the obs snapshot flags the run.
        let snap = metrics.snapshot();
        assert!(snap.degraded);
        assert!(snap
            .counters
            .iter()
            .any(|(name, v)| name == "core.degradation_steps" && *v > 0));
    }

    #[test]
    fn zero_deadline_exhausts_the_ladder() {
        let (frame, spec) = tiny_frame();
        let mut config = base_config();
        config.budget = ExecBudget {
            deadline: Some(Duration::ZERO),
            ..ExecBudget::default()
        };
        let err = try_analyze(&frame, &spec, &config).unwrap_err();
        match err {
            PipelineError::BudgetExceeded { breach, attempts } => {
                assert!(matches!(breach, BudgetBreach::Deadline { .. }));
                assert_eq!(attempts as usize, MAX_DEGRADATION_RETRIES + 1);
            }
            other => panic!("expected BudgetExceeded, got {other}"),
        }
    }

    #[test]
    fn missing_column_is_an_encode_error_not_a_panic() {
        quiet_panics();
        let (frame, _) = tiny_frame();
        let spec = EncoderSpec::new(vec![FeatureSpec::numeric("no_such_column", "X")]);
        let err = try_analyze(&frame, &spec, &base_config()).unwrap_err();
        assert_eq!(err.stage(), "encode");
    }

    #[test]
    fn injected_stage_panics_are_typed() {
        quiet_panics();
        let (frame, spec) = tiny_frame();
        let config = base_config();
        for (stage, expected) in [("encode", "encode"), ("mine", "mine"), ("rules", "rules")] {
            let hooks = StageHooks::on_stage(move |s: &str| {
                if s == stage {
                    panic!("injected {stage} failure");
                }
            });
            let err =
                try_analyze_traced_hooked(&frame, &spec, &config, &Metrics::disabled(), &hooks)
                    .unwrap_err();
            assert_eq!(err.stage(), expected, "{err}");
            assert!(err.to_string().contains("injected"), "{err}");
        }
    }

    #[test]
    fn worker_panic_is_contained_and_attributed() {
        quiet_panics();
        let (frame, spec) = tiny_frame();
        let mut config = base_config();
        config.budget = ExecBudget {
            panic_after_emits: Some(1),
            ..ExecBudget::default()
        };
        let err = try_analyze(&frame, &spec, &config).unwrap_err();
        match err {
            PipelineError::WorkerPanic { stage, message } => {
                assert_eq!(stage, "mine");
                assert!(message.contains("injected"), "{message}");
            }
            other => panic!("expected WorkerPanic, got {other}"),
        }
    }

    #[test]
    fn invalid_miner_config_is_a_mine_error() {
        let (frame, spec) = tiny_frame();
        let mut config = base_config();
        config.miner.min_support = -0.5;
        let err = try_analyze(&frame, &spec, &config).unwrap_err();
        assert_eq!(err.stage(), "mine");
    }

    #[test]
    fn invalid_prune_params_are_a_rules_error() {
        let (frame, spec) = tiny_frame();
        let mut config = base_config();
        config.prune.c_lift = 0.5;
        let err = try_analyze(&frame, &spec, &config).unwrap_err();
        assert_eq!(err.stage(), "rules");
        assert!(err.to_string().contains(">= 1"), "{err}");
    }

    #[test]
    fn error_display_is_informative() {
        let err = PipelineError::BudgetExceeded {
            breach: BudgetBreach::Itemsets { cap: 10 },
            attempts: 4,
        };
        let text = err.to_string();
        assert!(text.contains("4 attempt"), "{text}");
        assert!(text.contains("cap 10"), "{text}");
    }
}
