//! `irma watch` — the long-running streaming analysis daemon.
//!
//! [`watch_feed`] wires the whole streaming story together: a producer
//! thread parses trace records from any [`BufRead`] feed and hands them
//! through a bounded lock-free [`SpscRing`] to the mining loop, which
//! keeps a [`SlidingWindowMiner`]'s item counts and drift current
//! (O(|txn|) per arrival) and, whenever window drift crosses a threshold
//! or a cadence of arrivals elapses, mines the window with Eclat and
//! re-emits failure rules plus an OpenMetrics-ready snapshot.
//!
//! Two mechanisms keep the daemon healthy when reality misbehaves:
//!
//! * **Backpressure + adaptive sampling.** The ring is bounded; when the
//!   producer outruns the miner it first spins (counted as
//!   `watch.backpressure_waits`), and the [`AdaptiveSampler`] degrades
//!   the admission rate (keep every k-th record, k doubling while ring
//!   occupancy stays above its high watermark) so a sustained burst
//!   costs bounded staleness instead of unbounded memory. Every dropped
//!   record is counted (`watch.sampled_out`) — degradation is always
//!   visible, never silent.
//! * **Budgeted mining with the degradation ladder.** Every re-mine runs
//!   under an [`ExecBudget`] through [`SlidingWindowMiner::mine`],
//!   wrapped in the same relax-and-retry ladder the batch pipeline uses
//!   (double `min_support`, shrink `max_len`, at most
//!   [`MAX_DEGRADATION_RETRIES`] rungs). A poisoned window — budget
//!   breach, even a worker panic — costs one failed emission
//!   (`watch.emission_failures`), never the process.
//!
//! Garbled feed lines are counted (`watch.garbled_lines`) and skipped;
//! trace-log write failures are already absorbed and counted by the
//! metrics registry. The daemon's only unrecoverable input is EOF.

use std::cell::{Cell, UnsafeCell};
use std::io::BufRead;
use std::mem::MaybeUninit;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use irma_mine::{
    BudgetGuard, ExecBudget, FrequentItemsets, ItemId, MineError, MinerConfig, SlidingWindowMiner,
};
use irma_obs::{Metrics, Provenance};
use irma_rules::{
    generate_rules, InvalidPruneParams, KeywordAnalysis, PruneParams, Rule, RuleConfig,
};

use crate::fault::{panic_message, MAX_DEGRADATION_RETRIES};

/// Arrivals the mining loop waits after a failed emission before
/// re-arming the triggers, so a window that keeps tripping the ladder
/// does not re-run it on every arrival.
const FAILURE_COOLDOWN: usize = 64;

// ---------------------------------------------------------------------
// SPSC ring buffer
// ---------------------------------------------------------------------

/// A cache-line-aligned atomic so the producer's tail and the consumer's
/// head never share a line (classic false-sharing hazard in SPSC rings).
#[repr(align(64))]
struct PaddedAtomicUsize(AtomicUsize);

/// A bounded single-producer single-consumer ring buffer.
///
/// Indices grow monotonically (wrapping `usize` arithmetic) and are
/// masked into the power-of-two slot array, so `tail - head` is always
/// the live element count. The producer owns `tail` (stores with
/// `Release` after writing the slot), the consumer owns `head` (stores
/// with `Release` after reading the slot out); each side `Acquire`-loads
/// the other's index, which is exactly the synchronizes-with edge that
/// publishes slot contents across the threads.
pub struct SpscRing<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    /// Next index to pop (consumer-owned).
    head: PaddedAtomicUsize,
    /// Next index to push (producer-owned).
    tail: PaddedAtomicUsize,
}

// SAFETY: the ring hands each value from exactly one thread to exactly
// one other thread (the head/tail protocol above guarantees a slot is
// never read and written concurrently), so sharing the ring is sound
// whenever moving `T` between threads is.
unsafe impl<T: Send> Send for SpscRing<T> {}
unsafe impl<T: Send> Sync for SpscRing<T> {}

impl<T> SpscRing<T> {
    /// A ring holding at least `capacity` elements (rounded up to the
    /// next power of two, minimum 2).
    pub fn with_capacity(capacity: usize) -> SpscRing<T> {
        let capacity = capacity.max(2).next_power_of_two();
        let slots = (0..capacity)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        SpscRing {
            slots,
            mask: capacity - 1,
            head: PaddedAtomicUsize(AtomicUsize::new(0)),
            tail: PaddedAtomicUsize(AtomicUsize::new(0)),
        }
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Current element count (racy by nature; exact when called from
    /// either endpoint thread between its own operations).
    pub fn len(&self) -> usize {
        self.tail
            .0
            .load(Ordering::Acquire)
            .wrapping_sub(self.head.0.load(Ordering::Acquire))
    }

    /// Whether the ring is currently empty (racy, like [`SpscRing::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Producer side: appends `value`, or returns it back when the ring
    /// is full. Must only be called from one thread at a time.
    pub fn push(&self, value: T) -> Result<(), T> {
        let tail = self.tail.0.load(Ordering::Relaxed);
        let head = self.head.0.load(Ordering::Acquire);
        if tail.wrapping_sub(head) == self.slots.len() {
            return Err(value);
        }
        // SAFETY: `tail - head < capacity`, so this slot is not live and
        // the consumer will not touch it until the Release store below.
        unsafe { (*self.slots[tail & self.mask].get()).write(value) };
        self.tail.0.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Consumer side: removes the oldest element, if any. Must only be
    /// called from one thread at a time.
    pub fn pop(&self) -> Option<T> {
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        // SAFETY: `head < tail` means this slot holds an initialized
        // value the producer published with its Release store, and the
        // producer will not overwrite it until the Release store below.
        let value = unsafe { (*self.slots[head & self.mask].get()).assume_init_read() };
        self.head.0.store(head.wrapping_add(1), Ordering::Release);
        Some(value)
    }
}

impl<T> Drop for SpscRing<T> {
    fn drop(&mut self) {
        // Undrained elements still own resources; pop them so they drop.
        while self.pop().is_some() {}
    }
}

// ---------------------------------------------------------------------
// Adaptive sampler
// ---------------------------------------------------------------------

/// Deterministic keep-every-k admission control for the feed producer.
///
/// While ring occupancy sits above the high watermark the keep interval
/// doubles (admit 1 in 2, 1 in 4, ...); once occupancy falls below the
/// low watermark it halves back toward admitting everything. Watermarks
/// are only consulted every [`AdaptiveSampler::ADJUST_STRIDE`] arrivals
/// so a single occupancy spike cannot slam the rate to the floor.
/// Admission is `tick % keep_every == 0` — deterministic, so tests and
/// replays see identical drop schedules for identical load patterns.
#[derive(Debug)]
pub struct AdaptiveSampler {
    keep_every: u32,
    tick: u64,
}

impl AdaptiveSampler {
    /// Arrivals between watermark checks.
    pub const ADJUST_STRIDE: u64 = 32;
    /// Ceiling on the keep interval (1 in 65536 records).
    pub const MAX_KEEP_EVERY: u32 = 1 << 16;
    /// Occupancy above which the sampler degrades.
    pub const HIGH_WATERMARK: f64 = 0.75;
    /// Occupancy below which the sampler recovers.
    pub const LOW_WATERMARK: f64 = 0.25;

    /// A sampler that starts by admitting everything.
    pub fn new() -> AdaptiveSampler {
        AdaptiveSampler {
            keep_every: 1,
            tick: 0,
        }
    }

    /// Current keep interval (1 = no sampling).
    pub fn keep_every(&self) -> u32 {
        self.keep_every
    }

    /// Decides whether the next record is admitted, given current ring
    /// occupancy in `[0, 1]`.
    pub fn admit(&mut self, occupancy: f64) -> bool {
        if self.tick.is_multiple_of(AdaptiveSampler::ADJUST_STRIDE) {
            if occupancy > AdaptiveSampler::HIGH_WATERMARK
                && self.keep_every < AdaptiveSampler::MAX_KEEP_EVERY
            {
                self.keep_every <<= 1;
            } else if occupancy < AdaptiveSampler::LOW_WATERMARK && self.keep_every > 1 {
                self.keep_every >>= 1;
            }
        }
        let admitted = self.tick.is_multiple_of(u64::from(self.keep_every));
        self.tick = self.tick.wrapping_add(1);
        admitted
    }
}

impl Default for AdaptiveSampler {
    fn default() -> AdaptiveSampler {
        AdaptiveSampler::new()
    }
}

// ---------------------------------------------------------------------
// Configuration and outputs
// ---------------------------------------------------------------------

/// Tuning for one [`watch_feed`] run.
#[derive(Debug, Clone)]
pub struct WatchConfig {
    /// Sliding-window capacity (transactions).
    pub window: usize,
    /// Mining thresholds each emission starts from (the ladder relaxes a
    /// copy; the configured values are restored for the next emission).
    pub miner: MinerConfig,
    /// Rule-generation thresholds.
    pub rules: RuleConfig,
    /// Keyword-pruning parameters (used when [`WatchConfig::keyword`] is set).
    pub prune: PruneParams,
    /// Execution budget each mining attempt runs under.
    pub budget: ExecBudget,
    /// Window L1 drift (vs. the last mined baseline) that triggers a
    /// re-emission.
    pub drift_threshold: f64,
    /// Re-emit after this many arrivals even without drift (0 disables
    /// the cadence trigger; drift alone then drives emissions).
    pub cadence: usize,
    /// Skip triggers until the window holds at least this many
    /// transactions (clamped to the window capacity).
    pub warmup: usize,
    /// Stop after this many admitted arrivals (`None` = run to EOF).
    pub max_arrivals: Option<u64>,
    /// When set, emissions carry the keyword's pruned cause rules;
    /// otherwise the top rules by lift.
    pub keyword: Option<ItemId>,
    /// Rules carried per emission.
    pub top: usize,
    /// Feed ring capacity (rounded up to a power of two).
    pub ring_capacity: usize,
    /// Cooperative shutdown flag (e.g. set from a SIGTERM handler). When
    /// it flips to `true` the mining loop stops admitting arrivals,
    /// flushes a final emission, and returns — even if the feed producer
    /// is still blocked reading a quiet source.
    pub shutdown: Option<Arc<AtomicBool>>,
}

impl Default for WatchConfig {
    fn default() -> WatchConfig {
        WatchConfig {
            window: 2_000,
            miner: MinerConfig::default(),
            rules: RuleConfig::with_min_lift(1.5),
            prune: PruneParams::default(),
            budget: ExecBudget::default(),
            drift_threshold: 0.35,
            cadence: 1_000,
            warmup: 256,
            max_arrivals: None,
            keyword: None,
            top: 5,
            ring_capacity: 1_024,
            shutdown: None,
        }
    }
}

/// One re-emission from the mining loop.
#[derive(Debug, Clone)]
pub struct Emission {
    /// 1-based emission sequence number.
    pub seq: u64,
    /// Admitted arrivals processed when this emission fired.
    pub arrivals: u64,
    /// Window length at emission time.
    pub window: usize,
    /// Drift vs. the previous baseline at emission time (infinite for
    /// the first emission).
    pub drift: f64,
    /// Ladder rungs this emission needed (0 = mined within budget at the
    /// configured thresholds).
    pub degradation_steps: usize,
    /// The selected rules (keyword causes, or top by lift).
    pub rules: Vec<Rule>,
}

/// End-of-run accounting for one [`watch_feed`] call.
#[derive(Debug, Clone, Default)]
pub struct WatchSummary {
    /// Transactions admitted into the window.
    pub arrivals: u64,
    /// Successful rule re-emissions.
    pub emissions: u64,
    /// Emissions abandoned after the ladder was exhausted (or a worker
    /// panicked); the daemon kept running.
    pub failed_emissions: u64,
    /// Successful emissions that needed at least one ladder rung.
    pub degraded_emissions: u64,
    /// Feed lines that failed to parse and were skipped.
    pub garbled_lines: u64,
    /// Records dropped by the adaptive sampler under load.
    pub sampled_out: u64,
    /// Producer spins while the ring was full.
    pub backpressure_waits: u64,
    /// Window length when the feed ended.
    pub final_window: usize,
    /// Human-readable reason for the most recent failed emission.
    pub last_error: Option<String>,
}

/// Parses one feed line: comma-separated decimal item ids. Returns
/// `None` for anything else (the caller counts it as garbled).
fn parse_line(line: &str) -> Option<Vec<ItemId>> {
    let mut txn = Vec::new();
    for token in line.split(',') {
        txn.push(token.trim().parse::<ItemId>().ok()?);
    }
    Some(txn)
}

/// One budgeted mine through the degradation ladder: retry with relaxed
/// thresholds on budget breaches, contain worker panics, give up after
/// [`MAX_DEGRADATION_RETRIES`] rungs. Returns the itemsets plus the
/// number of rungs taken, or a description of why mining was abandoned.
fn laddered_mine(
    miner: &mut SlidingWindowMiner,
    base: &MinerConfig,
    budget: &ExecBudget,
    run_guard: &BudgetGuard,
    metrics: &Metrics,
) -> Result<(FrequentItemsets, usize), String> {
    let mut knobs = base.clone();
    let mut steps = 0usize;
    loop {
        let guard = run_guard.renew(budget);
        // Eclat returns a panic in its per-item work as `WorkerPanic`;
        // the outer `catch_unwind` guards the rest of the re-mine (the
        // window snapshot, the span bookkeeping) and reports the same way.
        let outcome = catch_unwind(AssertUnwindSafe(|| miner.mine(&knobs, &guard))).unwrap_or_else(
            |payload| {
                Err(MineError::WorkerPanic {
                    message: panic_message(payload),
                })
            },
        );
        match outcome {
            Ok(frequent) => {
                if steps > 0 {
                    metrics.mark_degraded();
                }
                return Ok((frequent, steps));
            }
            Err(MineError::Budget(breach)) => {
                steps += 1;
                metrics.incr("core.degradation_steps", 1);
                let next_support = (knobs.min_support * 2.0).min(1.0);
                let next_len = knobs.max_len.saturating_sub(1).max(1);
                let knobs_changed = next_support > knobs.min_support || next_len < knobs.max_len;
                if !knobs_changed || steps > MAX_DEGRADATION_RETRIES {
                    return Err(format!(
                        "budget exhausted after {steps} degradation step(s): {breach:?}"
                    ));
                }
                knobs.min_support = next_support;
                knobs.max_len = next_len;
            }
            Err(MineError::WorkerPanic { message }) => {
                return Err(format!("mining worker panicked: {message}"));
            }
            Err(err) => return Err(format!("mining failed: {err:?}")),
        }
    }
}

/// Keyword causes when a keyword is configured, otherwise the top rules
/// by lift; always at most `config.top`, deterministically ordered.
fn select_rules(
    rules: Vec<Rule>,
    config: &WatchConfig,
    metrics: &Metrics,
) -> Result<Vec<Rule>, InvalidPruneParams> {
    let mut kept = match config.keyword {
        Some(keyword) => {
            let provenance = Provenance::disabled();
            KeywordAnalysis::run(&rules, keyword, &config.prune, metrics, &provenance)?.causes
        }
        None => rules,
    };
    kept.sort_by(|a, b| {
        b.lift
            .total_cmp(&a.lift)
            .then_with(|| a.antecedent.items().cmp(b.antecedent.items()))
            .then_with(|| a.consequent.items().cmp(b.consequent.items()))
    });
    kept.truncate(config.top);
    Ok(kept)
}

/// Feed-side state shared between the producer thread and the mining
/// loop. `Arc`-held (not scope-borrowed) so the mining loop can return
/// on a shutdown request even while the producer is still blocked
/// reading a quiet feed — the straggler exits on its next line (or EOF)
/// when it observes `consumer_stopped`, and the `Arc` keeps this state
/// alive until then.
struct FeedShared {
    ring: SpscRing<Vec<ItemId>>,
    producer_done: AtomicBool,
    consumer_stopped: AtomicBool,
    garbled: AtomicU64,
    sampled_out: AtomicU64,
    backpressure_waits: AtomicU64,
}

/// Runs the streaming daemon over `feed` until EOF (or
/// [`WatchConfig::max_arrivals`], or [`WatchConfig::shutdown`] flips),
/// invoking `on_emit` for every successful re-emission. See the module
/// docs for the architecture; this function never panics on bad input —
/// garbled lines, budget trips, and worker panics all degrade into
/// counters.
pub fn watch_feed<R, F>(
    feed: R,
    config: &WatchConfig,
    metrics: &Metrics,
    mut on_emit: F,
) -> WatchSummary
where
    R: BufRead + Send + 'static,
    F: FnMut(&Emission),
{
    let started = Instant::now();
    let last_emission: Cell<Option<Instant>> = Cell::new(None);
    let warmup = config.warmup.clamp(1, config.window);
    let shared = Arc::new(FeedShared {
        ring: SpscRing::with_capacity(config.ring_capacity),
        producer_done: AtomicBool::new(false),
        consumer_stopped: AtomicBool::new(false),
        garbled: AtomicU64::new(0),
        sampled_out: AtomicU64::new(0),
        backpressure_waits: AtomicU64::new(0),
    });
    let shutdown_requested = || {
        config
            .shutdown
            .as_ref()
            .is_some_and(|f| f.load(Ordering::Relaxed))
    };

    let mut summary = WatchSummary::default();

    let producer = {
        let shared = Arc::clone(&shared);
        let metrics = metrics.clone();
        std::thread::Builder::new()
            .name("irma-watch-feed".to_string())
            .spawn(move || {
                let mut sampler = AdaptiveSampler::new();
                let mut last_keep_every = sampler.keep_every();
                'feed: for line in feed.lines() {
                    if shared.consumer_stopped.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(line) = line else {
                        // An I/O error mid-feed is indistinguishable from
                        // a truncated record: count it, stop reading.
                        shared.garbled.fetch_add(1, Ordering::Relaxed);
                        break;
                    };
                    let line = line.trim();
                    if line.is_empty() {
                        continue;
                    }
                    let Some(txn) = parse_line(line) else {
                        shared.garbled.fetch_add(1, Ordering::Relaxed);
                        continue;
                    };
                    let occupancy = shared.ring.len() as f64 / shared.ring.capacity() as f64;
                    if !sampler.admit(occupancy) {
                        shared.sampled_out.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    if sampler.keep_every() != last_keep_every {
                        last_keep_every = sampler.keep_every();
                        metrics.gauge("watch.sample_keep_every", f64::from(last_keep_every));
                    }
                    let mut pending = txn;
                    loop {
                        match shared.ring.push(pending) {
                            Ok(()) => break,
                            Err(back) => {
                                if shared.consumer_stopped.load(Ordering::Relaxed) {
                                    break 'feed;
                                }
                                pending = back;
                                shared.backpressure_waits.fetch_add(1, Ordering::Relaxed);
                                std::thread::yield_now();
                            }
                        }
                    }
                }
                shared.producer_done.store(true, Ordering::Release);
            })
            .expect("spawning watch feed producer")
    };

    {
        let mut miner = SlidingWindowMiner::new(config.window, config.miner.clone())
            .with_metrics(metrics.clone());
        let first_guard = BudgetGuard::new(&config.budget);
        let mut since_emit = 0usize;
        let mut cooldown = 0usize;

        let mut emit = |miner: &mut SlidingWindowMiner,
                        summary: &mut WatchSummary,
                        since_emit: &mut usize,
                        cooldown: &mut usize,
                        drift: f64| {
            let selected =
                laddered_mine(miner, &config.miner, &config.budget, &first_guard, metrics)
                    .and_then(|(frequent, steps)| {
                        let rules = generate_rules(&frequent, &config.rules, metrics);
                        let rules = select_rules(rules, config, metrics)
                            .map_err(|error| format!("invalid prune params: {error}"))?;
                        Ok((rules, steps))
                    });
            match selected {
                Ok((rules, steps)) => {
                    summary.emissions += 1;
                    if steps > 0 {
                        summary.degraded_emissions += 1;
                    }
                    *since_emit = 0;
                    last_emission.set(Some(Instant::now()));
                    metrics.incr("watch.emissions", 1);
                    metrics.gauge(
                        "watch.window_fill",
                        miner.len() as f64 / config.window as f64,
                    );
                    metrics.gauge("watch.uptime_seconds", started.elapsed().as_secs_f64());
                    metrics.gauge("watch.last_emission_age_seconds", 0.0);
                    // Scheduler counters from whichever pool serves this
                    // loop (the installed one under `install`, the global
                    // registry otherwise).
                    crate::sched::record_sched_stats(metrics);
                    on_emit(&Emission {
                        seq: summary.emissions,
                        arrivals: summary.arrivals,
                        window: miner.len(),
                        drift,
                        degradation_steps: steps,
                        rules,
                    });
                }
                Err(reason) => {
                    summary.failed_emissions += 1;
                    summary.last_error = Some(reason);
                    *since_emit = 0;
                    *cooldown = FAILURE_COOLDOWN;
                    metrics.incr("watch.emission_failures", 1);
                    metrics.gauge("watch.uptime_seconds", started.elapsed().as_secs_f64());
                }
            }
        };

        'mine: loop {
            let txn = loop {
                if let Some(txn) = shared.ring.pop() {
                    break txn;
                }
                if shutdown_requested() {
                    shared.consumer_stopped.store(true, Ordering::Relaxed);
                    break 'mine;
                }
                if shared.producer_done.load(Ordering::Acquire) {
                    // `producer_done` is stored after the final push, so
                    // one more pop after observing it drains stragglers.
                    match shared.ring.pop() {
                        Some(txn) => break txn,
                        None => break 'mine,
                    }
                }
                std::thread::yield_now();
            };
            miner.push(txn);
            summary.arrivals += 1;
            since_emit += 1;
            cooldown = cooldown.saturating_sub(1);
            if shutdown_requested() {
                shared.consumer_stopped.store(true, Ordering::Relaxed);
                break;
            }
            if let Some(max) = config.max_arrivals {
                if summary.arrivals >= max {
                    shared.consumer_stopped.store(true, Ordering::Relaxed);
                    break;
                }
            }
            if miner.len() < warmup || cooldown > 0 {
                continue;
            }
            let drift = miner.drift();
            let cadence_due = config.cadence > 0 && since_emit >= config.cadence;
            if drift >= config.drift_threshold || cadence_due {
                emit(
                    &mut miner,
                    &mut summary,
                    &mut since_emit,
                    &mut cooldown,
                    drift,
                );
            }
        }
        // Final flush: whatever arrived since the last emission still
        // deserves one report before the daemon exits.
        if since_emit > 0 && !miner.is_empty() {
            let drift = miner.drift();
            emit(
                &mut miner,
                &mut summary,
                &mut since_emit,
                &mut cooldown,
                drift,
            );
        }
        summary.final_window = miner.len();
    }

    // Join the producer when it has finished (the common EOF path, where
    // the counters below are then exact). After a shutdown request it
    // gets a short grace period to notice `consumer_stopped`; a producer
    // still blocked on a quiet feed is left detached — it exits on its
    // next line or EOF, and the `Arc` keeps the shared state alive.
    let grace = Instant::now();
    while !shared.producer_done.load(Ordering::Acquire)
        && grace.elapsed() < Duration::from_millis(200)
    {
        std::thread::yield_now();
    }
    if shared.producer_done.load(Ordering::Acquire) {
        let _ = producer.join();
    }

    // Final health gauges: how long the daemon ran and how stale its
    // last report was at shutdown (a live scrape endpoint recomputes
    // these from wall clocks; the snapshot file keeps the exit values).
    metrics.gauge("watch.uptime_seconds", started.elapsed().as_secs_f64());
    if let Some(at) = last_emission.get() {
        metrics.gauge(
            "watch.last_emission_age_seconds",
            at.elapsed().as_secs_f64(),
        );
    }

    summary.garbled_lines = shared.garbled.load(Ordering::Relaxed);
    summary.sampled_out = shared.sampled_out.load(Ordering::Relaxed);
    summary.backpressure_waits = shared.backpressure_waits.load(Ordering::Relaxed);
    if summary.arrivals > 0 {
        metrics.incr("watch.arrivals", summary.arrivals);
    }
    if summary.garbled_lines > 0 {
        metrics.incr("watch.garbled_lines", summary.garbled_lines);
    }
    if summary.sampled_out > 0 {
        metrics.incr("watch.sampled_out", summary.sampled_out);
    }
    if summary.backpressure_waits > 0 {
        metrics.incr("watch.backpressure_waits", summary.backpressure_waits);
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use std::sync::Once;

    /// Silences the default panic hook for the chaos harness's injected
    /// panics (payloads containing "injected") so intentional faults do
    /// not spray backtraces over test output.
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

    fn counter(metrics: &Metrics, name: &str) -> u64 {
        metrics
            .snapshot()
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    fn feed_of(txns: &[&[ItemId]]) -> Cursor<String> {
        let text = txns
            .iter()
            .map(|t| t.iter().map(u32::to_string).collect::<Vec<_>>().join(","))
            .collect::<Vec<_>>()
            .join("\n");
        Cursor::new(text)
    }

    /// Two alternating regimes with lift structure: rule {0}=>{1} (and
    /// {2}=>{3}) has confidence 1.0 over support 0.5, i.e. lift 2.0.
    fn two_regime_feed(n: usize) -> Cursor<String> {
        let txns: Vec<&[ItemId]> = (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    &[0u32, 1][..]
                } else {
                    &[2u32, 3][..]
                }
            })
            .collect();
        feed_of(&txns)
    }

    #[test]
    fn ring_roundtrips_in_order() {
        let ring = SpscRing::with_capacity(4);
        assert!(ring.is_empty());
        for i in 0..4 {
            ring.push(i).unwrap();
        }
        assert_eq!(ring.push(99), Err(99), "full ring must reject");
        for i in 0..4 {
            assert_eq!(ring.pop(), Some(i));
        }
        assert_eq!(ring.pop(), None);
    }

    #[test]
    fn ring_transfers_every_element_across_threads() {
        let ring: SpscRing<u64> = SpscRing::with_capacity(8);
        let n = 10_000u64;
        let received = std::thread::scope(|scope| {
            let producer = {
                let ring = &ring;
                scope.spawn(move || {
                    for i in 0..n {
                        let mut v = i;
                        while let Err(back) = ring.push(v) {
                            v = back;
                            std::thread::yield_now();
                        }
                    }
                })
            };
            let mut received = Vec::with_capacity(n as usize);
            while received.len() < n as usize {
                match ring.pop() {
                    Some(v) => received.push(v),
                    None => std::thread::yield_now(),
                }
            }
            producer.join().unwrap();
            received
        });
        assert_eq!(received, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn ring_drop_releases_undrained_elements() {
        let token = std::sync::Arc::new(());
        {
            let ring = SpscRing::with_capacity(8);
            for _ in 0..5 {
                ring.push(std::sync::Arc::clone(&token)).unwrap();
            }
            assert_eq!(std::sync::Arc::strong_count(&token), 6);
        }
        assert_eq!(std::sync::Arc::strong_count(&token), 1);
    }

    #[test]
    fn sampler_admits_everything_when_idle() {
        let mut sampler = AdaptiveSampler::new();
        for _ in 0..1_000 {
            assert!(sampler.admit(0.0));
        }
        assert_eq!(sampler.keep_every(), 1);
    }

    #[test]
    fn sampler_degrades_under_pressure_and_recovers() {
        let mut sampler = AdaptiveSampler::new();
        let mut admitted = 0usize;
        for _ in 0..4 * AdaptiveSampler::ADJUST_STRIDE as usize {
            if sampler.admit(0.95) {
                admitted += 1;
            }
        }
        assert!(sampler.keep_every() >= 8, "sustained pressure must degrade");
        assert!(
            admitted < 3 * AdaptiveSampler::ADJUST_STRIDE as usize,
            "degraded sampler must drop records"
        );
        for _ in 0..20 * AdaptiveSampler::ADJUST_STRIDE as usize {
            sampler.admit(0.0);
        }
        assert_eq!(sampler.keep_every(), 1, "idle ring must recover");
    }

    #[test]
    fn cadence_schedule_re_emits() {
        let config = WatchConfig {
            window: 16,
            warmup: 4,
            cadence: 8,
            drift_threshold: f64::INFINITY,
            ..WatchConfig::default()
        };
        let mut emissions = Vec::new();
        let summary = watch_feed(
            two_regime_feed(40),
            &config,
            &Metrics::disabled(),
            |e: &Emission| emissions.push((e.seq, e.arrivals, e.rules.len())),
        );
        assert_eq!(summary.arrivals, 40);
        assert_eq!(summary.garbled_lines, 0);
        assert_eq!(summary.failed_emissions, 0);
        // Bootstrap emission at warmup (drift starts infinite), cadence-8
        // re-emissions after it, and a final flush for the tail.
        assert_eq!(summary.emissions, 6);
        assert_eq!(
            emissions.iter().map(|&(_, a, _)| a).collect::<Vec<_>>(),
            vec![4, 12, 20, 28, 36, 40]
        );
        // The alternating regimes carry lift-2.0 rules.
        assert!(emissions.iter().any(|&(_, _, n)| n > 0));
    }

    #[test]
    fn health_gauges_land_in_the_snapshot() {
        let config = WatchConfig {
            window: 16,
            warmup: 4,
            cadence: 8,
            drift_threshold: f64::INFINITY,
            ..WatchConfig::default()
        };
        let metrics = Metrics::enabled();
        let summary = watch_feed(two_regime_feed(40), &config, &metrics, |_| ());
        assert!(summary.emissions > 0);
        let snapshot = metrics.snapshot();
        let gauge = |name: &str| {
            snapshot
                .gauges
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
        };
        let uptime = gauge("watch.uptime_seconds").expect("uptime gauge");
        assert!(uptime >= 0.0 && uptime.is_finite());
        let age = gauge("watch.last_emission_age_seconds").expect("age gauge");
        // The final flush emits last, so the shutdown age is tiny but
        // never negative; it can only trail the daemon's uptime.
        assert!((0.0..=uptime).contains(&age), "age {age}, uptime {uptime}");
    }

    #[test]
    fn drift_trigger_fires_on_regime_change() {
        let config = WatchConfig {
            window: 32,
            warmup: 8,
            cadence: 0,
            drift_threshold: 0.4,
            ..WatchConfig::default()
        };
        let txns: Vec<&[ItemId]> = (0..64)
            .map(|i| {
                if i < 32 {
                    &[0u32, 1][..]
                } else {
                    &[2u32, 3][..]
                }
            })
            .collect();
        let mut drifts = Vec::new();
        let summary = watch_feed(
            feed_of(&txns),
            &config,
            &Metrics::disabled(),
            |e: &Emission| drifts.push(e.drift),
        );
        // First emission as soon as warmup fills (drift starts infinite),
        // then the regime flip drives drift past the threshold again.
        assert!(summary.emissions >= 2, "summary: {summary:?}");
        assert!(drifts[0].is_infinite());
        assert!(drifts[1..].iter().any(|d| *d >= 0.4));
    }

    #[test]
    fn garbled_lines_are_counted_not_fatal() {
        let feed = Cursor::new("0,1\nnot,numbers\n2,3\n\n4,\n0,1\n");
        let config = WatchConfig {
            window: 8,
            warmup: 1,
            cadence: 2,
            drift_threshold: f64::INFINITY,
            ..WatchConfig::default()
        };
        let summary = watch_feed(feed, &config, &Metrics::disabled(), |_| {});
        assert_eq!(summary.garbled_lines, 2, "summary: {summary:?}");
        assert_eq!(summary.arrivals, 3);
        assert!(summary.emissions >= 1);
    }

    #[test]
    fn max_arrivals_bounds_an_unbounded_feed() {
        let config = WatchConfig {
            window: 16,
            warmup: 4,
            cadence: 64,
            drift_threshold: f64::INFINITY,
            max_arrivals: Some(200),
            ..WatchConfig::default()
        };
        let summary = watch_feed(
            two_regime_feed(100_000),
            &config,
            &Metrics::disabled(),
            |_| {},
        );
        assert_eq!(summary.arrivals, 200);
    }

    #[test]
    fn shutdown_flag_stops_a_blocked_feed_and_flushes() {
        // A reader that yields a few records and then blocks forever —
        // the shape of a quiet stdin. Without the detached producer the
        // daemon could never return: joining the producer would wait on
        // a read that never completes.
        struct QuietFeed {
            lines: Vec<u8>,
            served: usize,
            unblock: Arc<AtomicBool>,
        }
        impl std::io::Read for QuietFeed {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.served < self.lines.len() {
                    let n = buf.len().min(self.lines.len() - self.served);
                    buf[..n].copy_from_slice(&self.lines[self.served..self.served + n]);
                    self.served += n;
                    return Ok(n);
                }
                while !self.unblock.load(Ordering::Relaxed) {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                Ok(0)
            }
        }
        let unblock = Arc::new(AtomicBool::new(false));
        let feed = std::io::BufReader::new(QuietFeed {
            lines: b"0,1\n2,3\n0,1\n2,3\n0,1\n2,3\n0,1\n2,3\n".to_vec(),
            served: 0,
            unblock: Arc::clone(&unblock),
        });
        let shutdown = Arc::new(AtomicBool::new(false));
        let config = WatchConfig {
            window: 16,
            warmup: 4,
            cadence: 0,
            drift_threshold: f64::INFINITY,
            shutdown: Some(Arc::clone(&shutdown)),
            ..WatchConfig::default()
        };
        let trigger = Arc::clone(&shutdown);
        let stopper = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(100));
            trigger.store(true, Ordering::Relaxed);
        });
        let mut emitted_at = Vec::new();
        let summary = watch_feed(feed, &config, &Metrics::disabled(), |e: &Emission| {
            emitted_at.push(e.arrivals)
        });
        stopper.join().unwrap();
        // All buffered records were consumed and the shutdown still got
        // its final flush emission over the full window.
        assert_eq!(summary.arrivals, 8, "summary: {summary:?}");
        assert_eq!(emitted_at.last(), Some(&8), "emissions: {emitted_at:?}");
        assert_eq!(summary.final_window, 8);
        unblock.store(true, Ordering::Relaxed);
    }

    #[test]
    fn budget_trip_degrades_instead_of_dying() {
        // Window items: one always-on item (12), four at 0.25, eight at
        // 0.125. min_support 0.05 finds far more than 4 itemsets, so the
        // cap trips; the ladder doubles support until only {12} survives.
        let txns: Vec<Vec<ItemId>> = (0..64u32).map(|i| vec![i % 8, 8 + i % 4, 12]).collect();
        let refs: Vec<&[ItemId]> = txns.iter().map(Vec::as_slice).collect();
        let config = WatchConfig {
            window: 32,
            warmup: 16,
            cadence: 16,
            drift_threshold: f64::INFINITY,
            miner: MinerConfig {
                min_support: 0.05,
                ..MinerConfig::default()
            },
            budget: ExecBudget {
                max_itemsets: Some(4),
                ..ExecBudget::default()
            },
            ..WatchConfig::default()
        };
        let metrics = Metrics::enabled();
        let mut steps_seen = Vec::new();
        let summary = watch_feed(feed_of(&refs), &config, &metrics, |e: &Emission| {
            steps_seen.push(e.degradation_steps)
        });
        assert!(summary.emissions >= 1, "summary: {summary:?}");
        assert_eq!(summary.failed_emissions, 0, "summary: {summary:?}");
        assert!(summary.degraded_emissions >= 1);
        assert!(steps_seen.iter().any(|&s| s > 0));
        assert!(metrics.is_degraded());
        assert!(counter(&metrics, "core.degradation_steps") > 0);
    }

    #[test]
    fn exhausted_ladder_fails_the_emission_not_the_process() {
        // Both items appear in every transaction, so even support 1.0 /
        // max_len 1 yields two itemsets — the cap of 1 can never be met
        // and every rung of the ladder trips.
        let config = WatchConfig {
            window: 8,
            warmup: 4,
            cadence: 4,
            drift_threshold: f64::INFINITY,
            budget: ExecBudget {
                max_itemsets: Some(1),
                ..ExecBudget::default()
            },
            ..WatchConfig::default()
        };
        let txns: Vec<&[ItemId]> = (0..16).map(|_| &[0u32, 1][..]).collect();
        let metrics = Metrics::enabled();
        let summary = watch_feed(feed_of(&txns), &config, &metrics, |_| {
            panic!("no emission should succeed")
        });
        assert_eq!(summary.emissions, 0);
        assert!(summary.failed_emissions >= 1, "summary: {summary:?}");
        assert!(summary
            .last_error
            .as_deref()
            .is_some_and(|e| e.contains("budget exhausted")));
        assert!(counter(&metrics, "watch.emission_failures") > 0);
    }

    #[test]
    fn injected_worker_panic_is_contained() {
        quiet_panics();
        let config = WatchConfig {
            window: 8,
            warmup: 4,
            cadence: 4,
            drift_threshold: f64::INFINITY,
            miner: MinerConfig {
                parallel: false,
                ..MinerConfig::default()
            },
            budget: ExecBudget {
                panic_after_emits: Some(1),
                ..ExecBudget::default()
            },
            ..WatchConfig::default()
        };
        let summary = watch_feed(two_regime_feed(16), &config, &Metrics::disabled(), |_| {});
        assert_eq!(summary.emissions, 0);
        assert!(summary.failed_emissions >= 1, "summary: {summary:?}");
        assert!(summary
            .last_error
            .as_deref()
            .is_some_and(|e| e.contains("panicked")));
    }

    #[test]
    fn failing_trace_writer_degrades_but_daemon_survives() {
        struct Broken;
        impl std::io::Write for Broken {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let metrics =
            Metrics::enabled().with_event_sink(irma_obs::EventSink::from_writer(Box::new(Broken)));
        let config = WatchConfig {
            window: 16,
            warmup: 4,
            cadence: 8,
            drift_threshold: f64::INFINITY,
            ..WatchConfig::default()
        };
        let summary = watch_feed(two_regime_feed(40), &config, &metrics, |_| {});
        assert_eq!(summary.emissions, 6);
        assert!(metrics.trace_log_write_errors() > 0);
        assert!(metrics.is_degraded());
    }

    #[test]
    fn keyword_filter_keeps_only_cause_rules() {
        // Item 1 is the "failure" keyword; {0}=>{1} is its cause rule.
        let config = WatchConfig {
            window: 16,
            warmup: 4,
            cadence: 8,
            drift_threshold: f64::INFINITY,
            keyword: Some(1),
            rules: RuleConfig::with_min_lift(1.5),
            ..WatchConfig::default()
        };
        let mut all_rules = Vec::new();
        let summary = watch_feed(
            two_regime_feed(40),
            &config,
            &Metrics::disabled(),
            |e: &Emission| all_rules.extend(e.rules.iter().cloned()),
        );
        assert!(summary.emissions >= 1);
        assert!(!all_rules.is_empty());
        for rule in &all_rules {
            assert!(
                rule.consequent.items().contains(&1),
                "non-cause rule leaked through the keyword filter: {rule:?}"
            );
        }
    }

    #[test]
    fn invalid_prune_margins_fail_emissions_not_the_daemon() {
        let config = WatchConfig {
            window: 16,
            warmup: 4,
            cadence: 8,
            drift_threshold: f64::INFINITY,
            keyword: Some(1),
            prune: PruneParams {
                c_lift: 0.5,
                c_supp: 1.5,
            },
            ..WatchConfig::default()
        };
        let summary = watch_feed(two_regime_feed(40), &config, &Metrics::disabled(), |_| {
            panic!("no emission can succeed with invalid margins")
        });
        assert_eq!(summary.emissions, 0);
        assert!(summary.failed_emissions >= 1);
        let error = summary.last_error.expect("failure recorded");
        assert!(error.contains("invalid prune params"), "{error}");
    }
}
