//! Overhead of the `irma-obs` instrumentation on the end-to-end workflow.
//!
//! The observability layer must be effectively free when nobody asked for
//! metrics: a disabled [`Metrics`] handle reduces every call to a single
//! `Option` check and never touches the clock. This bench runs the full
//! PAI-profile pipeline (generate → encode → mine → generate rules →
//! prune) with a disabled sink and with an enabled sink, interleaved, and
//! compares the medians. The enabled sink does strictly more work than
//! the disabled one (clock reads, mutex locks, event pushes), so its
//! overhead over the disabled baseline bounds the instrumentation cost
//! from above. The acceptance bar is <2% median overhead.
//!
//! The same bar applies to the execution-budget guard: the fallible
//! pipeline with every cap armed (itemsets, tree bytes, a generous
//! deadline) does one atomic `fetch_add` per emission plus a strided
//! clock read, and must also stay within 2% of the unbudgeted baseline.
//!
//! And to the pool's scheduler telemetry: a width-4 pool with per-worker
//! counters on (the default) runs the same end-to-end pipeline as one
//! built with `telemetry(false)` — the counters are relaxed increments
//! on cache-line-padded per-worker slots, so counters-on must stay
//! within 2% of counters-off.
//!
//! Plain `Instant` timing rather than criterion: the unit of work is a
//! multi-second end-to-end run, so a handful of interleaved samples and a
//! median are more informative than criterion's statistics on 10+ warm
//! iterations.

use std::hint::black_box;
use std::time::{Duration, Instant};

use irma_core::{
    pai_spec, try_analyze, try_analyze_traced, Analysis, AnalysisConfig, EventSink, ExecBudget,
    Metrics, Provenance,
};
use irma_synth::{pai, TraceConfig};

const SAMPLES: usize = 7;
const VARIANTS: usize = 6;

/// Pool width for the scheduler-telemetry variants: wide enough that
/// steals and parks actually happen, narrow enough for CI runners.
const SCHED_WIDTH: usize = 4;

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn main() {
    let config = TraceConfig {
        n_jobs: 20_000,
        seed: 0xdcc0,
        max_monitor_samples: 128,
    };
    let merged = pai(&config).merged();
    let spec = pai_spec();
    let analysis_config = AnalysisConfig::default();
    // Every cap armed but none close to tripping: the steady-state cost
    // of guarded mining, not the cost of degrading.
    let budgeted_config = AnalysisConfig {
        budget: ExecBudget {
            max_itemsets: Some(u64::MAX / 2),
            max_tree_bytes: Some(u64::MAX / 2),
            deadline: Some(Duration::from_secs(3600)),
            panic_after_emits: None,
        },
        ..AnalysisConfig::default()
    };

    // The unbudgeted pipeline, reporting into `metrics`.
    let analyze = |metrics: &Metrics| -> Analysis {
        try_analyze_traced(
            &merged,
            &spec,
            &analysis_config,
            metrics,
            &Provenance::disabled(),
        )
        .expect("clean synthetic trace")
    };

    // Warm-up: page in the trace and populate allocator caches.
    let warm = analyze(&Metrics::disabled());
    println!(
        "warm-up: {} itemsets, {} rules",
        warm.frequent.len(),
        warm.rules.len()
    );

    // Variant 0: disabled handle (baseline, the gated comparison).
    // Variant 1: enabled registry, no event sink (gated, <2%).
    // Variant 2: enabled registry streaming JSONL to a null writer —
    //            informational only; it measures event serialization
    //            without charging the bench for filesystem throughput.
    // Variant 3: fallible pipeline, all budget caps armed, metrics
    //            disabled (gated, <2% — the cost of the guard itself).
    // Variant 4: width-4 pool, scheduler counters off (baseline for 5).
    // Variant 5: width-4 pool, scheduler counters on (gated, <2% over 4).
    let mut samples_ms: [Vec<f64>; VARIANTS] = std::array::from_fn(|_| Vec::with_capacity(SAMPLES));
    for round in 0..SAMPLES {
        // Rotate the starting variant so drift (thermal, cache, allocator
        // state) hits all variants equally.
        for slot in 0..VARIANTS {
            let variant = (round + slot) % VARIANTS;
            let start;
            let n_rules = match variant {
                3 => {
                    start = Instant::now();
                    let analysis = try_analyze(&merged, &spec, &budgeted_config)
                        .expect("generous budget cannot trip");
                    assert!(analysis.degradation.is_none());
                    analysis.rules.len()
                }
                4 | 5 => {
                    // Pool construction stays outside the timed region:
                    // the question is steady-state counter cost on the
                    // fork/steal hot path, not spawn cost.
                    let pool = rayon::ThreadPoolBuilder::new()
                        .num_threads(SCHED_WIDTH)
                        .telemetry(variant == 5)
                        .build()
                        .expect("pool builds");
                    let metrics = Metrics::disabled();
                    start = Instant::now();
                    let analysis = pool.install(|| analyze(&metrics));
                    // Counters exist exactly when telemetry is on, so the
                    // two variants really do differ only in counting.
                    assert_eq!(pool.sched_stats().workers.is_empty(), variant == 4);
                    analysis.rules.len()
                }
                _ => {
                    let metrics = match variant {
                        0 => Metrics::disabled(),
                        1 => Metrics::enabled(),
                        _ => Metrics::enabled()
                            .with_event_sink(EventSink::from_writer(Box::new(std::io::sink()))),
                    };
                    start = Instant::now();
                    let analysis = analyze(&metrics);
                    analysis.rules.len()
                }
            };
            let elapsed = start.elapsed().as_secs_f64() * 1e3;
            black_box(n_rules);
            samples_ms[variant].push(elapsed);
        }
    }

    let disabled = median(&mut samples_ms[0]);
    let enabled = median(&mut samples_ms[1]);
    let streaming = median(&mut samples_ms[2]);
    let budgeted = median(&mut samples_ms[3]);
    let sched_off = median(&mut samples_ms[4]);
    let sched_on = median(&mut samples_ms[5]);
    let overhead = (enabled / disabled - 1.0) * 100.0;
    let streaming_overhead = (streaming / disabled - 1.0) * 100.0;
    let budget_overhead = (budgeted / disabled - 1.0) * 100.0;
    let sched_overhead = (sched_on / sched_off - 1.0) * 100.0;
    println!(
        "pai end-to-end, {} jobs, median of {SAMPLES}:",
        config.n_jobs
    );
    println!("  disabled sink:  {disabled:9.1} ms  (baseline)");
    println!("  enabled sink:   {enabled:9.1} ms  ({overhead:+.2}%)");
    println!("  streaming sink: {streaming:9.1} ms  ({streaming_overhead:+.2}%, informational)");
    println!("  budget guard:   {budgeted:9.1} ms  ({budget_overhead:+.2}%)");
    println!("  sched counters off (width {SCHED_WIDTH}): {sched_off:9.1} ms  (baseline)");
    println!(
        "  sched counters on  (width {SCHED_WIDTH}): {sched_on:9.1} ms  ({sched_overhead:+.2}%)"
    );
    println!(
        "instrumentation overhead {overhead:+.2}% — {}",
        if overhead < 2.0 {
            "PASS (<2%)"
        } else {
            "FAIL (>=2%)"
        }
    );
    println!(
        "budget-guard overhead {budget_overhead:+.2}% — {}",
        if budget_overhead < 2.0 {
            "PASS (<2%)"
        } else {
            "FAIL (>=2%)"
        }
    );
    println!(
        "scheduler-telemetry overhead {sched_overhead:+.2}% — {}",
        if sched_overhead < 2.0 {
            "PASS (<2%)"
        } else {
            "FAIL (>=2%)"
        }
    );
}
