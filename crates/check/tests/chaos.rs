//! Chaos suite: the fault-tolerance contract of `irma_core::try_analyze`.
//!
//! Seeded [`FaultPlan`]s throw corrupted input, injected stage panics,
//! forced budget trips, and failing trace-log writers at the fallible
//! pipeline — in isolation and in combination — and the suite asserts:
//!
//! * **no panic ever escapes** the `try_*` entry points (checked with a
//!   top-level `catch_unwind` around every run);
//! * every failure is a typed, stage-tagged `PipelineError`;
//! * a budget-tripped run that still succeeds **always** carries a
//!   `Degradation` record and marks the obs snapshot degraded;
//! * trace-log write failures degrade the snapshot but never fail the
//!   analysis;
//! * un-faulted plans produce results byte-identical to a plain, unhooked
//!   `try_analyze`;
//! * the streaming side holds the same line: a budget-tripped
//!   `SlidingWindowMiner::mine` never moves the drift baseline, and
//!   `irma_core::watch_feed` survives garbled input, budget trips, and a
//!   broken trace sink thrown at it simultaneously.
//!
//! The base seed is perturbed by `PROPTEST_SEED` (same knob as the rest
//! of the harness) so CI pins one stream and soak runs can explore.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Once;

use std::io::Cursor;

use irma_check::fault::{
    base_csv, base_spec, failing_event_sink, BudgetFault, FaultPlan, InputFault,
};
use irma_core::{
    try_analyze, try_analyze_traced_hooked, watch_feed, Analysis, AnalysisConfig, BudgetBreach,
    Metrics, PipelineError, WatchConfig,
};
use irma_data::read_csv_str;
use irma_mine::{BudgetGuard, ExecBudget, SlidingWindowMiner};
use irma_obs::Snapshot;

/// Non-zero while a plan is being executed: panics raised in there are
/// injected (or contained) on purpose and should not spray backtraces.
/// Panics outside — real test-assertion failures — still print.
static CONTAINED: AtomicUsize = AtomicUsize::new(0);

fn quiet_panics() {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if CONTAINED.load(Ordering::SeqCst) == 0 {
                previous(info);
            }
        }));
    });
}

/// RAII depth marker for [`CONTAINED`] — decrements even when a panic
/// unwinds through the marked region.
struct ContainedRegion;

impl ContainedRegion {
    fn enter() -> ContainedRegion {
        CONTAINED.fetch_add(1, Ordering::SeqCst);
        ContainedRegion
    }
}

impl Drop for ContainedRegion {
    fn drop(&mut self) {
        CONTAINED.fetch_sub(1, Ordering::SeqCst);
    }
}

fn base_seed() -> u64 {
    std::env::var("PROPTEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20260805)
}

fn chaos_config(plan: &FaultPlan) -> AnalysisConfig {
    let mut config = AnalysisConfig::default();
    config.rules.min_lift = 1.2;
    config.budget = plan.exec_budget();
    config
}

/// Runs one plan end to end and returns the outcome plus the obs
/// snapshot taken after the run.
fn run_plan(plan: &FaultPlan) -> (Result<Analysis, PipelineError>, Snapshot) {
    let csv = plan.apply_to_csv(&base_csv(plan.seed, 40));
    let mut metrics = Metrics::enabled();
    if plan.failing_sink {
        // A zero byte budget: every event write fails, so any run that
        // reaches the pipeline at all must notice the loss.
        metrics = metrics.with_event_sink(failing_event_sink(0));
    }
    let config = chaos_config(plan);
    let _region = ContainedRegion::enter();
    let result = match read_csv_str(&csv) {
        Err(e) => Err(PipelineError::Parse(e.to_string())),
        Ok(frame) => plan.pool().install(|| {
            try_analyze_traced_hooked(&frame, &base_spec(), &config, &metrics, &plan.stage_hooks())
        }),
    };
    let snapshot = metrics.snapshot();
    (result, snapshot)
}

const KNOWN_STAGES: [&str; 6] = ["parse", "encode", "mine", "rules", "budget", "worker_panic"];

#[test]
fn no_panic_escapes_and_every_failure_is_typed() {
    quiet_panics();
    let base = base_seed();
    for offset in 0..128 {
        let plan = FaultPlan::from_seed(base.wrapping_add(offset));
        let outcome = catch_unwind(AssertUnwindSafe(|| run_plan(&plan)));
        let (result, snapshot) = match outcome {
            Ok(pair) => pair,
            Err(_) => panic!("panic escaped try_analyze for plan {plan:?}"),
        };
        match &result {
            Ok(analysis) => {
                // A degraded success is never silent, in either channel.
                if analysis.degradation.is_some() {
                    assert!(snapshot.degraded, "unflagged degraded result: {plan:?}");
                }
            }
            Err(err) => {
                assert!(
                    KNOWN_STAGES.contains(&err.stage()),
                    "unknown stage tag {} for plan {plan:?}",
                    err.stage()
                );
                // Display must render without panicking and carry text.
                assert!(!err.to_string().is_empty());
            }
        }
        if plan.failing_sink && !matches!(result, Err(PipelineError::Parse(_))) {
            // Any run that gets past parsing opens the root span, whose
            // event already hits the broken writer — so the run must be
            // flagged regardless of its outcome. A parse failure never
            // reaches the pipeline, so no event was ever attempted.
            assert!(snapshot.degraded, "failing sink left no mark: {plan:?}");
        }
    }
}

#[test]
fn clean_plans_match_the_unhooked_pipeline_exactly() {
    quiet_panics();
    let base = base_seed();
    for offset in 0..16 {
        let plan = FaultPlan::clean(base.wrapping_add(offset));
        let (result, snapshot) = run_plan(&plan);
        let fallible = result.expect("clean plan must succeed");
        assert!(fallible.degradation.is_none());
        assert!(!snapshot.degraded);

        let csv = base_csv(plan.seed, 40);
        let frame = read_csv_str(&csv).expect("clean base csv parses");
        let plain = try_analyze(&frame, &base_spec(), &chaos_config(&plan))
            .expect("clean plan must succeed unhooked");
        assert_eq!(fallible.rules, plain.rules);
        assert_eq!(fallible.frequent.as_slice(), plain.frequent.as_slice());
        assert_eq!(fallible.summary(), plain.summary());
    }
}

#[test]
fn nan_inf_cells_are_absorbed_not_fatal() {
    quiet_panics();
    let base = base_seed();
    for offset in 0..24 {
        let plan = FaultPlan {
            input: Some(InputFault::NanInf),
            ..FaultPlan::clean(base.wrapping_add(offset))
        };
        let (result, _) = run_plan(&plan);
        // The lossy value parser maps NaN to null and preprocessing
        // filters non-finite samples, so poisoned cells thin the data
        // but never fail the run.
        result.unwrap_or_else(|e| panic!("NaN/Inf corruption failed the run: {e} ({plan:?})"));
    }
}

#[test]
fn truncated_or_garbled_input_parses_or_fails_typed() {
    quiet_panics();
    let base = base_seed();
    for offset in 0..48 {
        for fault in [InputFault::Truncate, InputFault::Garble] {
            let plan = FaultPlan {
                input: Some(fault),
                ..FaultPlan::clean(base.wrapping_add(offset))
            };
            let outcome = catch_unwind(AssertUnwindSafe(|| run_plan(&plan)));
            let (result, _) = outcome.unwrap_or_else(|_| panic!("panic escaped: {plan:?}"));
            if let Err(err) = result {
                assert!(
                    matches!(err, PipelineError::Parse(_) | PipelineError::Encode(_)),
                    "input corruption must fail in parse/encode, got {err} ({plan:?})"
                );
            }
        }
    }
}

#[test]
fn budget_tripped_successes_always_carry_degradation() {
    quiet_panics();
    let base = base_seed();
    for cap in 1..=16 {
        let plan = FaultPlan {
            budget: Some(BudgetFault::ItemsetCap(cap)),
            ..FaultPlan::clean(base.wrapping_add(cap))
        };
        let (result, snapshot) = run_plan(&plan);
        match result {
            Ok(analysis) => {
                let degradation = analysis
                    .degradation
                    .as_ref()
                    .unwrap_or_else(|| panic!("cap {cap} run succeeded without a record"));
                assert!(!degradation.steps.is_empty());
                assert!(snapshot.degraded);
                assert!(snapshot
                    .counters
                    .iter()
                    .any(|(name, v)| name == "core.degradation_steps" && *v > 0));
                // The relaxed knobs must actually be relaxed.
                let default = AnalysisConfig::default();
                assert!(
                    degradation.final_min_support > default.miner.min_support
                        || degradation.final_max_len < default.miner.max_len
                );
            }
            Err(PipelineError::BudgetExceeded { breach, attempts }) => {
                assert!(matches!(breach, BudgetBreach::Itemsets { .. }));
                assert!(attempts >= 1);
            }
            Err(other) => panic!("cap {cap}: unexpected error {other}"),
        }
    }
}

#[test]
fn zero_deadline_exhausts_the_ladder_deterministically() {
    quiet_panics();
    let plan = FaultPlan {
        budget: Some(BudgetFault::ZeroDeadline),
        ..FaultPlan::clean(base_seed())
    };
    let (result, _) = run_plan(&plan);
    match result {
        Err(PipelineError::BudgetExceeded { breach, attempts }) => {
            assert!(matches!(breach, BudgetBreach::Deadline { .. }));
            // Retries share the run-wide token, so a zero deadline runs
            // the whole ladder and fails every rung.
            assert_eq!(attempts as usize, irma_core::MAX_DEGRADATION_RETRIES + 1);
        }
        other => panic!("expected deadline exhaustion, got {other:?}"),
    }
}

#[test]
fn injected_stage_panics_come_back_stage_tagged() {
    quiet_panics();
    for stage in ["encode", "mine", "rules"] {
        let plan = FaultPlan {
            stage_panic: Some(stage),
            ..FaultPlan::clean(base_seed())
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| run_plan(&plan)));
        let (result, _) = outcome.unwrap_or_else(|_| panic!("{stage} panic escaped"));
        let err = result.expect_err("injected stage panic must fail the run");
        assert_eq!(err.stage(), stage, "{err}");
        assert!(err.to_string().contains("injected"), "{err}");
    }
}

#[test]
fn poisoned_workers_are_contained_per_rank() {
    quiet_panics();
    let plan = FaultPlan {
        budget: Some(BudgetFault::WorkerPanic(1)),
        width: 2,
        ..FaultPlan::clean(base_seed())
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| run_plan(&plan)));
    let (result, _) = outcome.expect("worker panic escaped the pipeline");
    match result {
        Err(PipelineError::WorkerPanic { stage, message }) => {
            assert_eq!(stage, "mine");
            assert!(message.contains("injected"), "{message}");
        }
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
}

#[test]
fn budget_trip_leaves_the_streaming_baseline_untouched() {
    quiet_panics();
    let config = irma_mine::MinerConfig::with_min_support(0.2);
    let mut miner = SlidingWindowMiner::new(64, config.clone());
    for i in 0..32u32 {
        miner.push([i % 4, 4 + i % 2]);
    }
    // A successful mine commits the drift baseline for the first regime.
    miner
        .mine(&config, &BudgetGuard::unlimited())
        .expect("unbudgeted mine");
    // Shift the regime so the window has drifted well away from it.
    for i in 0..32u32 {
        miner.push([6, 7 - i % 2]);
    }
    let drift_before = miner.drift();
    assert!(drift_before > 0.5, "regime shift must register as drift");
    // A one-itemset cap can never fit this window: the attempt must fail
    // *without* committing a new baseline — otherwise the next drift
    // check would silently compare against a regime that was never mined.
    let tight = BudgetGuard::new(&ExecBudget {
        max_itemsets: Some(1),
        ..ExecBudget::default()
    });
    let region = ContainedRegion::enter();
    let err = miner.mine(&config, &tight);
    drop(region);
    assert!(err.is_err(), "one itemset can never fit this window");
    assert_eq!(
        miner.drift(),
        drift_before,
        "failed mine must not move the drift baseline"
    );
    // The miner is still healthy: an unlimited re-mine succeeds and only
    // *then* does the baseline advance.
    let frequent = miner
        .mine(&config, &BudgetGuard::unlimited())
        .expect("recovers");
    assert!(!frequent.as_slice().is_empty());
    assert!(miner.drift() < drift_before);
}

#[test]
fn watch_daemon_survives_garbled_feed_budget_trips_and_broken_sink() {
    quiet_panics();
    // Garbled lines, a pattern dense enough to trip a small itemset cap,
    // and an event sink that rejects every write — all at once.
    let mut feed = String::new();
    for i in 0..200u32 {
        feed.push_str(&format!("{},{},12\n", i % 8, 8 + i % 4));
        if i % 9 == 0 {
            feed.push_str("not,a,number\n");
        }
        if i % 17 == 0 {
            feed.push_str("4,\n");
        }
    }
    let metrics = Metrics::enabled().with_event_sink(failing_event_sink(0));
    let config = WatchConfig {
        window: 32,
        warmup: 8,
        cadence: 16,
        drift_threshold: f64::INFINITY,
        budget: ExecBudget {
            max_itemsets: Some(4),
            ..ExecBudget::default()
        },
        ..WatchConfig::default()
    };
    let region = ContainedRegion::enter();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        watch_feed(Cursor::new(feed), &config, &metrics, |_| {})
    }));
    drop(region);
    let summary = outcome.expect("watch daemon must not panic under combined faults");
    assert_eq!(summary.garbled_lines, 23 + 12, "every bad line counted");
    assert_eq!(summary.arrivals, 200, "every valid line admitted");
    assert!(summary.emissions >= 1, "daemon kept emitting: {summary:?}");
    assert!(
        summary.degraded_emissions >= 1 || summary.failed_emissions >= 1,
        "itemset cap must surface as degradation or failure: {summary:?}"
    );
    let snapshot = metrics.snapshot();
    assert!(snapshot.degraded, "broken sink must flag the snapshot");
    assert!(metrics.trace_log_write_errors() > 0);
}

#[test]
fn failing_sink_degrades_but_never_fails_the_analysis() {
    quiet_panics();
    let plan = FaultPlan {
        failing_sink: true,
        ..FaultPlan::clean(base_seed())
    };
    let (result, snapshot) = run_plan(&plan);
    let analysis = result.expect("a broken trace log must not fail the run");
    assert!(analysis.degradation.is_none(), "no knobs were relaxed");
    assert!(snapshot.degraded, "lossy trace log must flag the snapshot");
    let write_errors = snapshot
        .counters
        .iter()
        .find(|(name, _)| name == "trace_log_write_errors_total")
        .map(|(_, v)| *v)
        .expect("write-error counter must surface in the snapshot");
    assert!(write_errors > 0);
}
