//! # irma-obs — pipeline observability
//!
//! A lightweight metrics layer the IRMA crates thread through the
//! `encode -> mine -> rules` pipeline:
//!
//! * [`Metrics`] — a registry of monotonic counters, last-write gauges,
//!   and bounded log2-bucketed timer histograms ([`Histogram`]: O(1)
//!   record, fixed memory, exact count/sum/max, bucket-boundary p50/p95
//!   estimates);
//! * [`Metrics::span`] — an RAII [`StageSpan`] that times one pipeline
//!   stage and, on drop, appends a structured [`StageEvent`] (stage name,
//!   wall time, input/output cardinalities) to the pipeline trace;
//! * [`Snapshot`] — a point-in-time copy with a hand-rolled JSON exporter
//!   ([`Snapshot::to_json`]) and a human summary table
//!   ([`Snapshot::render_table`]) for the CLI's `--metrics` /
//!   `--verbose-stages` flags.
//!
//! [`Snapshot::to_openmetrics`] renders the same snapshot as an
//! OpenMetrics exposition. This crate only formats; serving it over HTTP
//! (`irma watch --listen`, `irma serve`) is `irma_serve::http`'s job.
//!
//! Three extensions layer on top of the flat registry:
//!
//! * **Hierarchical spans** — every span carries an id and an optional
//!   parent (implicit: the innermost still-open span on this registry;
//!   explicit: [`StageSpan::child`] for parallel fan-out, where "last
//!   open" is ambiguous across threads), so traces nest
//!   (`core.analyze` > `mine.mine`).
//! * **Streaming event log** — [`Metrics::with_event_sink`] attaches an
//!   [`EventSink`] that writes `span_open` / `span_close` / `counter`
//!   JSONL lines *live* (see [`event`](EventSink) docs for the schema),
//!   so long runs can be tailed instead of snapshotted post-mortem.
//! * **[`Provenance`]** — the switch that makes a keyword prune keep its
//!   index-keyed decision log, from which `irma_rules::Explainer` renders
//!   the CLI `explain` subcommand and `GET /v1/explain` on demand.
//!
//! The default sink is **disabled**: [`Metrics::default`] carries no
//! allocation and every method is a branch on `None`, so instrumented
//! library code pays nothing when nobody asked for metrics. Cloning a
//! [`Metrics`] shares the underlying sink, which is how one registry
//! observes every stage of a run (including rayon-parallel ones — the
//! sink is `Send + Sync`).
//!
//! ```
//! use irma_obs::Metrics;
//!
//! let metrics = Metrics::enabled();
//! {
//!     let mut span = metrics.span("mine.tree_build");
//!     span.field("transactions_in", 850_000);
//! } // drop records the wall time + one StageEvent
//! metrics.incr("prune.condition1", 3);
//! let snapshot = metrics.snapshot();
//! assert_eq!(snapshot.stages[0].stage, "mine.tree_build");
//! assert!(snapshot.to_json().contains("\"prune.condition1\": 3"));
//! ```

#![warn(missing_docs)]

mod event;
mod histogram;
mod json;
mod openmetrics;
mod provenance;

pub use event::EventSink;
pub use histogram::{Histogram, HISTOGRAM_BUCKETS};
pub use json::{escape as json_escape, f64_value as json_f64};
pub use provenance::Provenance;

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// One structured event per pipeline stage: what ran, for how long, and
/// the cardinalities that flowed through it (transactions in, itemsets
/// out, rules pruned per condition, ...).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageEvent {
    /// Registry-unique span id (1-based, in open order).
    pub id: u64,
    /// The enclosing span's id, or `None` for a root span. Implicitly the
    /// innermost span still open when this one opened; explicitly set by
    /// [`StageSpan::child`].
    pub parent: Option<u64>,
    /// Stage name, dot-namespaced by crate (`prep.fit`, `mine.mine`, ...).
    pub stage: String,
    /// Wall-clock time spent inside the stage's span.
    pub wall: Duration,
    /// Named cardinalities, in the order the stage reported them.
    pub fields: Vec<(String, u64)>,
}

impl StageEvent {
    /// Looks up a cardinality by name.
    pub fn field(&self, name: &str) -> Option<u64> {
        self.fields.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// How many closed-span events a registry keeps for [`Snapshot::stages`]:
/// the most recent ones, so a long-running server or watch daemon holds
/// (and snapshots) a bounded trace. The JSONL sink and the per-stage
/// timers still see every span.
pub const MAX_STAGE_EVENTS: usize = 4096;

/// Everything a recording sink accumulates.
#[derive(Debug)]
struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    timers: BTreeMap<String, Histogram>,
    /// Last scheduler-counter snapshot pushed via [`Metrics::set_sched`]
    /// (last-write-wins, like a gauge).
    sched: Option<SchedStats>,
    /// The most recent [`MAX_STAGE_EVENTS`] closed spans.
    stages: VecDeque<StageEvent>,
    /// Closed spans evicted from `stages` to respect the cap.
    stages_dropped: u64,
    /// Last span id handed out (ids are 1-based so `parent: 0` never
    /// appears in a trace).
    next_span: u64,
    /// Stack of currently open span ids; the top is the implicit parent
    /// for the next `span()` call on this registry.
    open_spans: Vec<u64>,
    /// Monotonic event sequence number for the JSONL log.
    seq: u64,
    /// Registry creation time; event `offset_us` values are relative to
    /// this, so readers never depend on wall-clock timestamps.
    start: Instant,
    /// Random id distinguishing this run's events in a shared trace file.
    run_id: String,
    /// Optional live JSONL event log.
    sink: Option<EventSink>,
    /// Event-log lines that failed to write (disk full, broken pipe).
    /// Nonzero means the JSONL trace is incomplete, so the snapshot is
    /// flagged degraded.
    write_errors: u64,
    /// Set by [`Metrics::mark_degraded`]: the run completed, but only
    /// after the degradation ladder relaxed its mining knobs.
    degraded: bool,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            timers: BTreeMap::new(),
            sched: None,
            stages: VecDeque::new(),
            stages_dropped: 0,
            next_span: 0,
            open_spans: Vec::new(),
            seq: 0,
            start: Instant::now(),
            run_id: event::fresh_run_id(),
            sink: None,
            write_errors: 0,
            degraded: false,
        }
    }
}

impl Registry {
    /// Writes one event line to the attached sink, if any, stamping the
    /// shared envelope (`event`, `run`, `seq`, `offset_us`).
    fn emit_event(&mut self, kind: &str, body: &str) {
        if self.sink.is_none() {
            return;
        }
        let seq = self.seq;
        self.seq += 1;
        let offset_us = self.start.elapsed().as_micros() as u64;
        let line = format!(
            "{{\"event\":\"{kind}\",\"run\":\"{}\",\"seq\":{seq},\"offset_us\":{offset_us},{body}}}",
            self.run_id
        );
        if let Some(sink) = self.sink.as_mut() {
            if !sink.emit(&line) {
                self.write_errors += 1;
            }
        }
    }
}

/// A cloneable handle to a metrics sink; the pipeline's instrumentation
/// point.
///
/// The default handle is a **no-op**: nothing is allocated and every
/// method returns after one `Option` check, so library code can take
/// `&Metrics` unconditionally. [`Metrics::enabled`] creates a recording
/// sink shared by all clones of the handle.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    sink: Option<Arc<Mutex<Registry>>>,
}

impl Metrics {
    /// A recording sink.
    pub fn enabled() -> Metrics {
        Metrics {
            sink: Some(Arc::new(Mutex::new(Registry::default()))),
        }
    }

    /// The no-op sink (same as [`Metrics::default`]).
    pub fn disabled() -> Metrics {
        Metrics::default()
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    fn lock(&self) -> Option<MutexGuard<'_, Registry>> {
        // A poisoned registry still holds consistent counters; keep
        // recording rather than losing the whole run's metrics.
        self.sink
            .as_ref()
            .map(|sink| sink.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Attaches a live JSONL event log to this handle's registry,
    /// enabling the handle first if it was disabled. All clones share the
    /// sink; events start flowing immediately.
    pub fn with_event_sink(self, sink: EventSink) -> Metrics {
        let metrics = if self.is_enabled() {
            self
        } else {
            Metrics::enabled()
        };
        if let Some(mut reg) = metrics.lock() {
            reg.sink = Some(sink);
        }
        metrics
    }

    /// The registry's run id (stamped on every event line); empty on a
    /// disabled handle.
    pub fn run_id(&self) -> String {
        self.lock()
            .map(|reg| reg.run_id.clone())
            .unwrap_or_default()
    }

    /// Adds `by` to a monotonic counter.
    pub fn incr(&self, name: &str, by: u64) {
        if let Some(mut reg) = self.lock() {
            let total = {
                let slot = reg.counters.entry(name.to_string()).or_insert(0);
                *slot += by;
                *slot
            };
            reg.emit_event(
                "counter",
                &format!(
                    "\"name\":\"{}\",\"by\":{by},\"total\":{total}",
                    json::escape(name)
                ),
            );
        }
    }

    /// Sets a last-write-wins gauge.
    pub fn gauge(&self, name: &str, value: f64) {
        if let Some(mut reg) = self.lock() {
            reg.gauges.insert(name.to_string(), value);
        }
    }

    /// Records one duration sample into a bounded [`Histogram`] timer.
    /// O(1); a timer's memory never grows with sample count.
    pub fn record(&self, name: &str, sample: Duration) {
        if let Some(mut reg) = self.lock() {
            reg.timers
                .entry(name.to_string())
                .or_default()
                .record(sample);
        }
    }

    /// Replaces the scheduler-counter snapshot carried by the next
    /// [`Metrics::snapshot`] (last-write-wins, like a gauge — callers
    /// push a fresh [`SchedStats`] right before snapshotting).
    pub fn set_sched(&self, sched: SchedStats) {
        if let Some(mut reg) = self.lock() {
            reg.sched = Some(sched);
        }
    }

    /// Opens an RAII span for one pipeline stage. Dropping the span
    /// records its wall time under the timer `stage` and appends a
    /// [`StageEvent`] carrying every [`StageSpan::field`] set meanwhile.
    ///
    /// The span's parent is the innermost span still open on this
    /// registry, which is right for single-threaded nesting; spans opened
    /// from parallel workers should use [`StageSpan::child`] instead.
    ///
    /// On a disabled handle the span is inert (no clock read).
    pub fn span(&self, stage: &str) -> StageSpan {
        self.span_with_parent(stage, None)
    }

    fn span_with_parent(&self, stage: &str, explicit_parent: Option<u64>) -> StageSpan {
        let Some(mut reg) = self.lock() else {
            return StageSpan { state: None };
        };
        reg.next_span += 1;
        let id = reg.next_span;
        let parent = explicit_parent.or_else(|| reg.open_spans.last().copied());
        reg.open_spans.push(id);
        reg.emit_event(
            "span_open",
            &format!(
                "\"span\":{id},\"parent\":{},\"stage\":\"{}\"",
                parent.map_or("null".to_string(), |p| p.to_string()),
                json::escape(stage)
            ),
        );
        drop(reg);
        StageSpan {
            state: Some(SpanState {
                metrics: self.clone(),
                stage: stage.to_string(),
                start: Instant::now(),
                fields: Vec::new(),
                id,
                parent,
            }),
        }
    }

    /// Flags this run as degraded: it completed, but only after the
    /// degradation ladder relaxed its mining knobs (or some other
    /// best-effort fallback fired). Sticky for the registry's lifetime so
    /// a degraded answer can never be mistaken for a full-fidelity one.
    pub fn mark_degraded(&self) {
        if let Some(mut reg) = self.lock() {
            reg.degraded = true;
        }
    }

    /// Number of JSONL trace lines that failed to write (0 on a disabled
    /// handle or when no event sink is attached).
    pub fn trace_log_write_errors(&self) -> u64 {
        self.lock().map(|reg| reg.write_errors).unwrap_or(0)
    }

    /// Whether the snapshot would carry `degraded: true` — either
    /// [`Metrics::mark_degraded`] was called or event-log writes failed.
    pub fn is_degraded(&self) -> bool {
        self.lock()
            .map(|reg| reg.degraded || reg.write_errors > 0)
            .unwrap_or(false)
    }

    /// A point-in-time copy of everything recorded so far. Empty (but
    /// valid) on a disabled handle.
    pub fn snapshot(&self) -> Snapshot {
        let Some(reg) = self.lock() else {
            return Snapshot::default();
        };
        let mut counters = reg.counters.clone();
        if reg.write_errors > 0 {
            // Materialized on demand so the common error-free run keeps
            // its counter list (and the tests pinning it) unchanged.
            counters.insert("trace_log_write_errors_total".to_string(), reg.write_errors);
        }
        Snapshot {
            counters: counters.into_iter().collect(),
            gauges: reg.gauges.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            timers: reg
                .timers
                .iter()
                .map(|(name, hist)| TimerStats::from_histogram(name.clone(), hist))
                .collect(),
            sched: reg.sched.clone(),
            stages: reg.stages.iter().cloned().collect(),
            stages_dropped: reg.stages_dropped,
            run_id: reg.run_id.clone(),
            degraded: reg.degraded || reg.write_errors > 0,
        }
    }
}

struct SpanState {
    metrics: Metrics,
    stage: String,
    start: Instant,
    fields: Vec<(String, u64)>,
    id: u64,
    parent: Option<u64>,
}

impl std::fmt::Debug for SpanState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanState")
            .field("stage", &self.stage)
            .field("fields", &self.fields)
            .finish_non_exhaustive()
    }
}

/// RAII timer for one pipeline stage; see [`Metrics::span`].
#[derive(Debug)]
#[must_use = "a span records on drop; binding it to `_` drops immediately"]
pub struct StageSpan {
    state: Option<SpanState>,
}

impl StageSpan {
    /// Attaches a named cardinality to the stage's [`StageEvent`]
    /// (no-op on a disabled handle).
    pub fn field(&mut self, name: &str, value: u64) {
        if let Some(state) = &mut self.state {
            state.fields.push((name.to_string(), value));
        }
    }

    /// Opens a child span with `self` as its explicit parent. Use this
    /// from parallel workers, where the registry's "innermost open span"
    /// is ambiguous across threads (inert when `self` is inert).
    pub fn child(&self, stage: &str) -> StageSpan {
        match &self.state {
            Some(state) => state.metrics.span_with_parent(stage, Some(state.id)),
            None => StageSpan { state: None },
        }
    }
}

impl Drop for StageSpan {
    fn drop(&mut self) {
        let Some(SpanState {
            metrics,
            stage,
            start,
            fields,
            id,
            parent,
        }) = self.state.take()
        else {
            return;
        };
        let wall = start.elapsed();
        let Some(mut reg) = metrics.lock() else {
            return;
        };
        if let Some(pos) = reg.open_spans.iter().rposition(|&open| open == id) {
            reg.open_spans.remove(pos);
        }
        let fields_json = fields
            .iter()
            .map(|(name, value)| format!("\"{}\":{value}", json::escape(name)))
            .collect::<Vec<_>>()
            .join(",");
        reg.emit_event(
            "span_close",
            &format!(
                "\"span\":{id},\"stage\":\"{}\",\"wall_us\":{},\"fields\":{{{fields_json}}}",
                json::escape(&stage),
                wall.as_micros()
            ),
        );
        reg.timers.entry(stage.clone()).or_default().record(wall);
        if reg.stages.len() == MAX_STAGE_EVENTS {
            reg.stages.pop_front();
            reg.stages_dropped += 1;
        }
        reg.stages.push_back(StageEvent {
            id,
            parent,
            stage,
            wall,
            fields,
        });
    }
}

/// Summary statistics for one timer, computed from its bounded
/// [`Histogram`]. Count, total and max are exact; p50/p95 are
/// bucket-boundary estimates (the inclusive upper bound of the log2
/// bucket holding the nearest-rank sample, so never below the exact
/// value and never a full power-of-two boundary above it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimerStats {
    /// Timer name.
    pub name: String,
    /// Number of samples recorded (exact).
    pub count: usize,
    /// Sum of all samples (exact).
    pub total: Duration,
    /// Median estimate (upper bound of the nearest-rank sample's bucket).
    pub p50: Duration,
    /// 95th-percentile estimate (same bucket-boundary scheme).
    pub p95: Duration,
    /// Largest sample (exact).
    pub max: Duration,
    /// Cumulative histogram buckets, trimmed to the populated range:
    /// `(inclusive upper bound, samples at or below it)`. The implicit
    /// final `+Inf` bucket equals `count`.
    pub buckets: Vec<(Duration, u64)>,
}

impl TimerStats {
    fn from_histogram(name: String, hist: &Histogram) -> TimerStats {
        TimerStats {
            name,
            count: hist.count() as usize,
            total: hist.sum(),
            p50: hist.quantile_estimate(0.50),
            p95: hist.quantile_estimate(0.95),
            max: hist.max(),
            buckets: hist.cumulative_buckets(),
        }
    }
}

/// One worker's scheduler counters, as surfaced through the snapshot
/// (`irma_sched_*` families with a `worker` label in OpenMetrics). The
/// producer is the work-stealing runtime; `irma-obs` only carries the
/// numbers, so this crate stays dependency-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedWorker {
    /// Worker index (the `worker` label value).
    pub worker: usize,
    /// Jobs this worker executed.
    pub jobs_executed: u64,
    /// Jobs pushed onto this worker's own deque.
    pub local_pushes: u64,
    /// Steal probes that took an element.
    pub steal_successes: u64,
    /// Steal probes that found the victim empty.
    pub steal_empty: u64,
    /// Steal probes that lost a race and re-probed.
    pub steal_retries: u64,
    /// Jobs taken from the shared injector.
    pub injector_pops: u64,
    /// Idle episodes that reached the scheduler's sleep call.
    pub parks: u64,
    /// Parks that actually blocked and were woken.
    pub wakes: u64,
    /// Maximum depth this worker's deque reached.
    pub deque_high_water: u64,
}

impl SchedWorker {
    /// Total steal probes: successes + empty + retries.
    pub fn steal_attempts(&self) -> u64 {
        self.steal_successes + self.steal_empty + self.steal_retries
    }
}

/// A point-in-time scheduler-counter snapshot ([`Metrics::set_sched`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SchedStats {
    /// Jobs pushed onto the shared injector (external submissions; not
    /// attributable to a worker).
    pub injector_pushes: u64,
    /// Per-worker counters.
    pub workers: Vec<SchedWorker>,
}

/// A point-in-time copy of a [`Metrics`] sink; see [`Metrics::snapshot`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Monotonic counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauges, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Timer statistics, sorted by name.
    pub timers: Vec<TimerStats>,
    /// Scheduler counters, when the caller pushed a snapshot via
    /// [`Metrics::set_sched`] (`None` otherwise).
    pub sched: Option<SchedStats>,
    /// Pipeline trace: one [`StageEvent`] per completed span, in
    /// completion order — the most recent [`MAX_STAGE_EVENTS`] of them.
    pub stages: Vec<StageEvent>,
    /// Completed spans older than the kept `stages`, dropped to bound
    /// the registry.
    pub stages_dropped: u64,
    /// The registry's run id (ties the snapshot to its JSONL trace);
    /// empty for a default/disabled snapshot.
    pub run_id: String,
    /// True when this run's answer is best-effort: the degradation
    /// ladder relaxed the mining knobs, or trace-log writes failed (see
    /// the `trace_log_write_errors_total` counter).
    pub degraded: bool,
}

impl Snapshot {
    /// The first stage event with this name, if any stage recorded it.
    pub fn stage(&self, name: &str) -> Option<&StageEvent> {
        self.stages.iter().find(|e| e.stage == name)
    }

    /// Serializes the snapshot as a JSON object (see `json.rs` for the
    /// schema, mirrored in DESIGN.md).
    pub fn to_json(&self) -> String {
        json::snapshot_to_json(self)
    }

    /// Serializes counters/gauges/timers in OpenMetrics text format
    /// (`# TYPE` lines, `_total` counters, `_seconds` summaries, terminal
    /// `# EOF`); see `openmetrics.rs` for the mapping, mirrored in
    /// DESIGN.md.
    pub fn to_openmetrics(&self) -> String {
        openmetrics::snapshot_to_openmetrics(self)
    }

    /// Span nesting depth of one stage event (0 for roots), following
    /// parent links through the snapshot's trace.
    fn stage_depth(&self, event: &StageEvent) -> usize {
        let mut depth = 0;
        let mut parent = event.parent;
        while let Some(id) = parent {
            depth += 1;
            if depth >= 16 {
                break; // cycles cannot arise, but stay defensive
            }
            parent = self
                .stages
                .iter()
                .find(|e| e.id == id)
                .and_then(|e| e.parent);
        }
        depth
    }

    /// Renders the pipeline trace plus counters as an aligned,
    /// human-readable table (the CLI's `--verbose-stages` output); nested
    /// spans indent under their parent.
    pub fn render_table(&self) -> String {
        let mut out = String::from("stage                        wall          details\n");
        for event in &self.stages {
            let fields = event
                .fields
                .iter()
                .map(|(name, value)| format!("{name}={value}"))
                .collect::<Vec<_>>()
                .join(" ");
            let name = format!("{}{}", "  ".repeat(self.stage_depth(event)), event.stage);
            out.push_str(&format!(
                "{:<28} {:>10}    {}\n",
                name,
                format_duration(event.wall),
                fields
            ));
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, value) in &self.counters {
                out.push_str(&format!("  {name} = {value}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, value) in &self.gauges {
                out.push_str(&format!("  {name} = {value:.4}\n"));
            }
        }
        if self.degraded {
            out.push_str(
                "DEGRADED: best-effort result (relaxed knobs or trace-log write errors)\n",
            );
        }
        out
    }
}

fn format_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos >= 1_000_000_000 {
        format!("{:.3} s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.3} ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.3} µs", nanos as f64 / 1e3)
    } else {
        format!("{nanos} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let metrics = Metrics::default();
        assert!(!metrics.is_enabled());
        metrics.incr("c", 5);
        metrics.gauge("g", 1.5);
        metrics.record("t", Duration::from_millis(3));
        let mut span = metrics.span("stage");
        span.field("n", 7);
        drop(span);
        assert_eq!(metrics.snapshot(), Snapshot::default());
    }

    #[test]
    fn counters_accumulate_and_sort() {
        let metrics = Metrics::enabled();
        metrics.incr("b", 1);
        metrics.incr("a", 2);
        metrics.incr("b", 3);
        let snap = metrics.snapshot();
        assert_eq!(
            snap.counters,
            vec![("a".to_string(), 2), ("b".to_string(), 4)]
        );
    }

    #[test]
    fn gauges_last_write_wins() {
        let metrics = Metrics::enabled();
        metrics.gauge("drift", 0.2);
        metrics.gauge("drift", 0.9);
        assert_eq!(metrics.snapshot().gauges, vec![("drift".to_string(), 0.9)]);
    }

    #[test]
    fn timer_percentiles_bucket_boundary_estimates() {
        let metrics = Metrics::enabled();
        for ms in 1..=100u64 {
            metrics.record("t", Duration::from_millis(ms));
        }
        let snap = metrics.snapshot();
        let t = &snap.timers[0];
        assert_eq!(t.count, 100);
        // Exact nearest-rank p50 is 50 ms (5e7 ns, in bucket (2^25, 2^26]),
        // so the bucket-boundary estimate is 2^26 ns; p95's exact 95 ms
        // lands in (2^26, 2^27].
        assert_eq!(t.p50, Duration::from_nanos(1 << 26));
        assert_eq!(t.p95, Duration::from_nanos(1 << 27));
        // Estimates bound the exact values from above, within one bucket.
        assert!(t.p50 >= Duration::from_millis(50) && t.p50 < Duration::from_millis(100));
        assert!(t.p95 >= Duration::from_millis(95) && t.p95 < Duration::from_millis(190));
        // Count, max and total stay exact.
        assert_eq!(t.max, Duration::from_millis(100));
        assert_eq!(t.total, Duration::from_millis(5050));
        // The cumulative buckets end at the bucket holding the max, with
        // the full count.
        let last = t.buckets.last().expect("populated buckets");
        assert_eq!(last.1, 100);
        assert!(last.0 >= t.max);
    }

    #[test]
    fn single_sample_percentiles() {
        let metrics = Metrics::enabled();
        metrics.record("t", Duration::from_millis(7));
        let snap = metrics.snapshot();
        // 7 ms = 7e6 ns lands in (2^22, 2^23]; both quantile estimates
        // are that bucket's upper bound.
        assert_eq!(snap.timers[0].p50, Duration::from_nanos(1 << 23));
        assert_eq!(snap.timers[0].p95, Duration::from_nanos(1 << 23));
        assert_eq!(snap.timers[0].max, Duration::from_millis(7));
    }

    #[test]
    fn set_sched_last_write_wins_and_lands_in_snapshot() {
        let metrics = Metrics::enabled();
        assert_eq!(metrics.snapshot().sched, None);
        metrics.set_sched(SchedStats {
            injector_pushes: 1,
            workers: vec![SchedWorker::default()],
        });
        metrics.set_sched(SchedStats {
            injector_pushes: 2,
            workers: vec![
                SchedWorker {
                    worker: 0,
                    jobs_executed: 5,
                    steal_successes: 1,
                    steal_empty: 2,
                    steal_retries: 3,
                    ..SchedWorker::default()
                },
                SchedWorker {
                    worker: 1,
                    ..SchedWorker::default()
                },
            ],
        });
        let sched = metrics.snapshot().sched.expect("sched snapshot");
        assert_eq!(sched.injector_pushes, 2);
        assert_eq!(sched.workers.len(), 2);
        assert_eq!(sched.workers[0].steal_attempts(), 6);
        // Disabled handles ignore the push.
        let disabled = Metrics::disabled();
        disabled.set_sched(SchedStats::default());
        assert_eq!(disabled.snapshot().sched, None);
    }

    #[test]
    fn span_emits_event_and_timer() {
        let metrics = Metrics::enabled();
        {
            let mut span = metrics.span("mine.tree_build");
            span.field("transactions_in", 42);
            span.field("frequent_items", 9);
        }
        let snap = metrics.snapshot();
        let event = snap.stage("mine.tree_build").expect("event recorded");
        assert_eq!(event.field("transactions_in"), Some(42));
        assert_eq!(event.field("frequent_items"), Some(9));
        assert_eq!(event.field("nope"), None);
        assert!(snap.timers.iter().any(|t| t.name == "mine.tree_build"));
    }

    #[test]
    fn clones_share_one_sink() {
        let metrics = Metrics::enabled();
        let clone = metrics.clone();
        clone.incr("shared", 1);
        metrics.incr("shared", 1);
        assert_eq!(metrics.snapshot().counters[0].1, 2);
    }

    #[test]
    fn spans_record_in_completion_order() {
        let metrics = Metrics::enabled();
        let outer = metrics.span("outer");
        let inner = metrics.span("inner");
        drop(inner);
        drop(outer);
        let snapshot = metrics.snapshot();
        let names: Vec<&str> = snapshot.stages.iter().map(|e| e.stage.as_str()).collect();
        assert_eq!(names, vec!["inner", "outer"]);
    }

    #[test]
    fn nested_spans_get_implicit_parents() {
        let metrics = Metrics::enabled();
        let outer = metrics.span("outer");
        let inner = metrics.span("inner");
        drop(inner);
        drop(outer);
        let snapshot = metrics.snapshot();
        let outer = snapshot.stage("outer").unwrap();
        let inner = snapshot.stage("inner").unwrap();
        assert_eq!(outer.parent, None);
        assert_eq!(inner.parent, Some(outer.id));
        assert!(inner.id > outer.id);
    }

    #[test]
    fn stage_trace_keeps_the_most_recent_events_and_counts_the_rest() {
        let (sink, buffer) = EventSink::shared_buffer();
        let metrics = Metrics::enabled().with_event_sink(sink);
        let extra = 10;
        for i in 0..MAX_STAGE_EVENTS + extra {
            let mut span = metrics.span("round");
            span.field("i", i as u64);
        }
        let snapshot = metrics.snapshot();
        assert_eq!(snapshot.stages.len(), MAX_STAGE_EVENTS);
        assert_eq!(snapshot.stages_dropped, extra as u64);
        // The oldest events went; the rest stay in completion order.
        let kept: Vec<u64> = snapshot
            .stages
            .iter()
            .map(|e| e.field("i").unwrap())
            .collect();
        let expected: Vec<u64> = (extra..MAX_STAGE_EVENTS + extra)
            .map(|i| i as u64)
            .collect();
        assert_eq!(kept, expected);
        assert!(snapshot
            .to_json()
            .contains(&format!("\"stages_dropped\": {extra}")));
        // The timers and the JSONL log still see every span.
        assert_eq!(snapshot.timers[0].count, MAX_STAGE_EVENTS + extra);
        let log = String::from_utf8(buffer.lock().unwrap().clone()).unwrap();
        let closes = log.matches("\"event\":\"span_close\"").count();
        assert_eq!(closes, MAX_STAGE_EVENTS + extra);
    }

    #[test]
    fn sibling_after_drop_is_not_a_child() {
        let metrics = Metrics::enabled();
        drop(metrics.span("first"));
        drop(metrics.span("second"));
        let snapshot = metrics.snapshot();
        assert_eq!(snapshot.stage("second").unwrap().parent, None);
    }

    #[test]
    fn child_spans_carry_explicit_parent_across_threads() {
        let metrics = Metrics::enabled();
        {
            let span = metrics.span("mine.mine");
            std::thread::scope(|scope| {
                for _ in 0..3 {
                    let span = &span;
                    scope.spawn(move || {
                        let mut child = span.child("mine.conditional_tree");
                        child.field("item", 1);
                    });
                }
            });
        }
        let snapshot = metrics.snapshot();
        let parent_id = snapshot.stage("mine.mine").unwrap().id;
        let children: Vec<_> = snapshot
            .stages
            .iter()
            .filter(|e| e.stage == "mine.conditional_tree")
            .collect();
        assert_eq!(children.len(), 3);
        assert!(children.iter().all(|c| c.parent == Some(parent_id)));
    }

    #[test]
    fn render_table_indents_children() {
        let metrics = Metrics::enabled();
        {
            let outer = metrics.span("outer");
            drop(outer.child("inner"));
        }
        let table = metrics.snapshot().render_table();
        assert!(table.contains("\n  inner"), "{table}");
    }

    #[test]
    fn event_sink_streams_span_and_counter_lines() {
        let (sink, buffer) = EventSink::shared_buffer();
        let metrics = Metrics::enabled().with_event_sink(sink);
        {
            let mut span = metrics.span("prep.fit");
            span.field("rows_in", 20);
            metrics.incr("hits", 2);
            metrics.incr("hits", 3);
        }
        let text = String::from_utf8(buffer.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "{text}");
        let run = metrics.run_id();
        assert!(!run.is_empty());
        assert!(
            lines[0].contains("\"event\":\"span_open\"")
                && lines[0].contains("\"span\":1,\"parent\":null,\"stage\":\"prep.fit\""),
            "{text}"
        );
        assert!(
            lines[1].contains("\"event\":\"counter\"")
                && lines[1].contains("\"name\":\"hits\",\"by\":2,\"total\":2"),
            "{text}"
        );
        assert!(lines[2].contains("\"total\":5"), "{text}");
        assert!(
            lines[3].contains("\"event\":\"span_close\"")
                && lines[3].contains("\"fields\":{\"rows_in\":20}"),
            "{text}"
        );
        for (i, line) in lines.iter().enumerate() {
            assert!(line.contains(&format!("\"seq\":{i}")), "{text}");
            assert!(line.contains(&format!("\"run\":\"{run}\"")), "{text}");
            assert_eq!(line.matches('{').count(), line.matches('}').count());
        }
    }

    #[test]
    fn with_event_sink_enables_a_disabled_handle() {
        let (sink, buffer) = EventSink::shared_buffer();
        let metrics = Metrics::disabled().with_event_sink(sink);
        assert!(metrics.is_enabled());
        metrics.incr("c", 1);
        assert!(!buffer.lock().unwrap().is_empty());
    }

    #[test]
    fn failing_sink_counts_write_errors_and_flags_degraded() {
        struct Broken;
        impl std::io::Write for Broken {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let metrics = Metrics::enabled().with_event_sink(EventSink::from_writer(Box::new(Broken)));
        metrics.incr("hits", 1);
        drop(metrics.span("stage"));
        // One counter event + span_open + span_close, all failed.
        assert_eq!(metrics.trace_log_write_errors(), 3);
        assert!(metrics.is_degraded());
        let snap = metrics.snapshot();
        assert!(snap.degraded);
        assert!(snap
            .counters
            .iter()
            .any(|(name, v)| name == "trace_log_write_errors_total" && *v == 3));
        assert!(
            snap.render_table().contains("DEGRADED"),
            "{}",
            snap.render_table()
        );
    }

    #[test]
    fn healthy_sink_reports_no_write_errors() {
        let (sink, _buffer) = EventSink::shared_buffer();
        let metrics = Metrics::enabled().with_event_sink(sink);
        metrics.incr("hits", 1);
        assert_eq!(metrics.trace_log_write_errors(), 0);
        assert!(!metrics.is_degraded());
        let snap = metrics.snapshot();
        assert!(!snap.degraded);
        assert!(snap
            .counters
            .iter()
            .all(|(name, _)| name != "trace_log_write_errors_total"));
    }

    #[test]
    fn mark_degraded_is_sticky_and_lands_in_snapshot() {
        let metrics = Metrics::enabled();
        assert!(!metrics.is_degraded());
        metrics.mark_degraded();
        assert!(metrics.is_degraded());
        assert!(metrics.snapshot().degraded);
        // A disabled handle silently ignores the mark.
        let disabled = Metrics::disabled();
        disabled.mark_degraded();
        assert!(!disabled.is_degraded());
    }

    #[test]
    fn snapshot_carries_run_id() {
        let metrics = Metrics::enabled();
        assert_eq!(metrics.snapshot().run_id, metrics.run_id());
        assert_eq!(Metrics::disabled().snapshot().run_id, "");
    }

    #[test]
    fn sink_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Metrics>();
    }

    #[test]
    fn concurrent_increments_all_land() {
        let metrics = Metrics::enabled();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let handle = metrics.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        handle.incr("hits", 1);
                    }
                });
            }
        });
        assert_eq!(
            metrics.snapshot().counters,
            vec![("hits".to_string(), 4000)]
        );
    }
}
