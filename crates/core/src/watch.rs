//! `irma watch` — the long-running streaming analysis daemon.
//!
//! [`watch_feed`] wires the whole streaming story together: a reader
//! thread parses trace records from any [`BufRead`] feed and hands every
//! one, in order, through a bounded blocking channel to the mining loop,
//! which keeps a [`SlidingWindowMiner`]'s item counts and drift current
//! (O(|txn|) per arrival) and, whenever window drift crosses a threshold
//! or a cadence of arrivals elapses, mines the window with Eclat and
//! re-emits failure rules plus an OpenMetrics-ready snapshot.
//!
//! * **Backpressure, never sampling.** The channel holds 1,024 records;
//!   when the reader outruns the miner it counts one
//!   `watch.backpressure_waits` and blocks until a slot frees. Every
//!   parsed line is admitted, so the emissions depend only on the feed
//!   and the configuration, never on thread timing. Both sides block
//!   while the feed is quiet; neither spins.
//! * **Budgeted mining through the batch ladder.** Every emission climbs
//!   the same relax-and-retry ladder as `irma analyze` (double
//!   `min_support`, shrink `max_len`, at most
//!   [`crate::MAX_DEGRADATION_RETRIES`] rungs) under a budget of its own,
//!   so [`ExecBudget::deadline`] bounds each emission. A poisoned window
//!   — budget breach, even a worker panic — costs one failed emission
//!   (`watch.emission_failures`), never the process.
//!
//! Garbled feed lines are counted (`watch.garbled_lines`) and skipped;
//! trace-log write failures are already absorbed and counted by the
//! metrics registry. The daemon's only unrecoverable input is EOF.

use std::io::BufRead;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use irma_mine::{ExecBudget, ItemId, MinerConfig, SlidingWindowMiner};
use irma_obs::{Metrics, Provenance};
use irma_rules::{
    generate_rules, InvalidPruneParams, KeywordAnalysis, PruneParams, Rule, RuleConfig,
};

use crate::fault::{climb_ladder, PipelineError};

/// Parsed feed records the channel between the feed reader and the
/// mining loop holds before the reader blocks.
const FEED_CAPACITY: usize = 1_024;

/// How long the mining loop waits for a record before it re-checks
/// [`WatchConfig::shutdown`].
const SHUTDOWN_POLL: Duration = Duration::from_millis(50);

/// Arrivals the mining loop waits after a failed emission before
/// re-arming the triggers, so a window that keeps tripping the ladder
/// does not re-run it on every arrival.
const FAILURE_COOLDOWN: usize = 64;

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
    /// Execution budget of each emission's ladder climb.
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
    /// Cooperative shutdown flag (e.g. set from a SIGTERM handler). When
    /// it flips to `true` the mining loop stops admitting arrivals,
    /// flushes a final emission, and returns — even if the feed reader
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
    /// Times the feed reader found the channel full and had to block.
    pub backpressure_waits: u64,
    /// Window length when the feed ended.
    pub final_window: usize,
    /// The [`PipelineError`] text of the most recent failed emission.
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
    kept.sort_by(Rule::cmp_by_lift);
    kept.truncate(config.top);
    Ok(kept)
}

/// The feed reader's counters. `Arc`-held because the mining loop may
/// return on a shutdown request while the reader is still blocked on a
/// quiet feed; the straggler exits on its next line (or EOF), when its
/// send finds the channel closed.
#[derive(Default)]
struct FeedCounters {
    garbled: AtomicU64,
    backpressure_waits: AtomicU64,
}

/// The feed reader: parses `feed` line by line and sends every record
/// to the mining loop, in order. Returns at EOF, on a read error
/// (counted as one garbled line), or once the mining loop has dropped
/// its end of the channel.
fn read_feed(feed: impl BufRead, records: SyncSender<Vec<ItemId>>, counters: &FeedCounters) {
    for line in feed.lines() {
        let Ok(line) = line else {
            // An I/O error mid-feed is indistinguishable from a
            // truncated record: count it, stop reading.
            counters.garbled.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Some(txn) = parse_line(line) else {
            counters.garbled.fetch_add(1, Ordering::Relaxed);
            continue;
        };
        let sent = match records.try_send(txn) {
            Ok(()) => true,
            Err(TrySendError::Full(txn)) => {
                counters.backpressure_waits.fetch_add(1, Ordering::Relaxed);
                records.send(txn).is_ok()
            }
            Err(TrySendError::Disconnected(_)) => false,
        };
        if !sent {
            return;
        }
    }
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
    let mut last_emission: Option<Instant> = None;
    let warmup = config.warmup.clamp(1, config.window);
    let shutdown_requested = || {
        config
            .shutdown
            .as_ref()
            .is_some_and(|f| f.load(Ordering::Relaxed))
    };

    let (sender, records) = sync_channel(FEED_CAPACITY);
    let counters = Arc::new(FeedCounters::default());
    let reader = {
        let counters = Arc::clone(&counters);
        std::thread::Builder::new()
            .name("irma-watch-feed".to_string())
            .spawn(move || read_feed(feed, sender, &counters))
            .expect("spawning watch feed reader")
    };

    let mut summary = WatchSummary::default();
    let mut miner =
        SlidingWindowMiner::new(config.window, config.miner.clone()).with_metrics(metrics.clone());

    // Mines the window and reports one emission; returns whether it
    // succeeded.
    let mut emit = |miner: &mut SlidingWindowMiner, summary: &mut WatchSummary, drift: f64| {
        let selected = climb_ladder(&config.miner, &config.budget, metrics, |knobs, guard| {
            miner.mine(knobs, guard)
        })
        .and_then(|climbed| {
            let rules = generate_rules(&climbed.frequent, &config.rules, metrics);
            let rules = select_rules(rules, config, metrics)
                .map_err(|error| PipelineError::Rules(format!("invalid prune params: {error}")))?;
            Ok((rules, climbed.steps.len()))
        });
        metrics.gauge("watch.uptime_seconds", started.elapsed().as_secs_f64());
        match selected {
            Ok((rules, steps)) => {
                summary.emissions += 1;
                if steps > 0 {
                    summary.degraded_emissions += 1;
                }
                last_emission = Some(Instant::now());
                metrics.incr("watch.emissions", 1);
                metrics.gauge(
                    "watch.window_fill",
                    miner.len() as f64 / config.window as f64,
                );
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
                true
            }
            Err(error) => {
                summary.failed_emissions += 1;
                summary.last_error = Some(error.to_string());
                metrics.incr("watch.emission_failures", 1);
                false
            }
        }
    };

    let mut since_emit = 0usize;
    let mut cooldown = 0usize;
    let fed_to_eof = loop {
        let txn = match records.recv_timeout(SHUTDOWN_POLL) {
            Ok(txn) => txn,
            Err(RecvTimeoutError::Disconnected) => break true,
            Err(RecvTimeoutError::Timeout) if shutdown_requested() => break false,
            Err(RecvTimeoutError::Timeout) => continue,
        };
        miner.push(txn);
        summary.arrivals += 1;
        since_emit += 1;
        cooldown = cooldown.saturating_sub(1);
        if shutdown_requested()
            || config
                .max_arrivals
                .is_some_and(|max| summary.arrivals >= max)
        {
            break false;
        }
        if miner.len() < warmup || cooldown > 0 {
            continue;
        }
        let drift = miner.drift();
        let cadence_due = config.cadence > 0 && since_emit >= config.cadence;
        if drift >= config.drift_threshold || cadence_due {
            if !emit(&mut miner, &mut summary, drift) {
                cooldown = FAILURE_COOLDOWN;
            }
            since_emit = 0;
        }
    };
    // Closing the channel stops a reader that is still sending; one
    // blocked on a quiet feed stays detached until its next line or EOF.
    drop(records);
    if fed_to_eof {
        let _ = reader.join();
    }

    // Final flush: whatever arrived since the last emission still
    // deserves one report before the daemon exits.
    if since_emit > 0 && !miner.is_empty() {
        let drift = miner.drift();
        emit(&mut miner, &mut summary, drift);
    }
    summary.final_window = miner.len();

    // Final health gauges: how long the daemon ran and how stale its
    // last report was at shutdown (a live scrape endpoint recomputes
    // these from wall clocks; the snapshot file keeps the exit values).
    metrics.gauge("watch.uptime_seconds", started.elapsed().as_secs_f64());
    if let Some(at) = last_emission {
        metrics.gauge(
            "watch.last_emission_age_seconds",
            at.elapsed().as_secs_f64(),
        );
    }

    summary.garbled_lines = counters.garbled.load(Ordering::Relaxed);
    summary.backpressure_waits = counters.backpressure_waits.load(Ordering::Relaxed);
    if summary.arrivals > 0 {
        metrics.incr("watch.arrivals", summary.arrivals);
    }
    if summary.garbled_lines > 0 {
        metrics.incr("watch.garbled_lines", summary.garbled_lines);
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

    /// A reader that serves one line per `read` call, sleeping `pace`
    /// before each: the shape of a live feed trickling in.
    struct PacedFeed {
        lines: std::vec::IntoIter<String>,
        pace: Duration,
    }

    impl std::io::Read for PacedFeed {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let Some(line) = self.lines.next() else {
                return Ok(0);
            };
            std::thread::sleep(self.pace);
            assert!(line.len() <= buf.len(), "feed line longer than the buffer");
            buf[..line.len()].copy_from_slice(line.as_bytes());
            Ok(line.len())
        }
    }

    #[test]
    fn a_slow_consumer_blocks_the_reader_instead_of_dropping_lines() {
        let lines = 20 * FEED_CAPACITY;
        let config = WatchConfig {
            window: 64,
            warmup: 16,
            cadence: 2 * FEED_CAPACITY,
            drift_threshold: f64::INFINITY,
            ..WatchConfig::default()
        };
        let mut emissions = 0u64;
        let summary = watch_feed(
            two_regime_feed(lines),
            &config,
            &Metrics::disabled(),
            |_: &Emission| {
                emissions += 1;
                std::thread::sleep(Duration::from_millis(20));
            },
        );
        assert_eq!(summary.arrivals, lines as u64, "summary: {summary:?}");
        assert_eq!(summary.emissions, emissions);
    }

    #[test]
    fn the_deadline_bounds_each_emission_not_the_daemon() {
        // 200 lines at ~1 ms each outlast the 50 ms deadline several
        // times over; each emission mines a 32-record window in far less.
        let config = WatchConfig {
            window: 32,
            warmup: 8,
            cadence: 16,
            drift_threshold: f64::INFINITY,
            budget: ExecBudget {
                deadline: Some(Duration::from_millis(50)),
                ..ExecBudget::default()
            },
            ..WatchConfig::default()
        };
        let feed = PacedFeed {
            lines: (0..200)
                .map(|i| if i % 2 == 0 { "0,1\n" } else { "2,3\n" }.to_string())
                .collect::<Vec<_>>()
                .into_iter(),
            pace: Duration::from_millis(1),
        };
        let started = Instant::now();
        let summary = watch_feed(
            std::io::BufReader::new(feed),
            &config,
            &Metrics::disabled(),
            |_| {},
        );
        assert!(started.elapsed() > Duration::from_millis(100));
        assert_eq!(summary.arrivals, 200);
        assert_eq!(summary.failed_emissions, 0, "summary: {summary:?}");
        assert_eq!(summary.emissions, 13, "summary: {summary:?}");
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
        let error = summary.last_error.expect("failure recorded");
        assert!(error.starts_with("budget exceeded after "), "{error}");
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
            budget: ExecBudget {
                panic_after_emits: Some(1),
                ..ExecBudget::default()
            },
            ..WatchConfig::default()
        };
        let summary = watch_feed(two_regime_feed(16), &config, &Metrics::disabled(), |_| {});
        assert_eq!(summary.emissions, 0);
        assert!(summary.failed_emissions >= 1, "summary: {summary:?}");
        let error = summary.last_error.expect("failure recorded");
        assert!(
            error.starts_with("worker panicked in mine stage: "),
            "{error}"
        );
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
        assert!(
            error.starts_with("rules stage failed: invalid prune params"),
            "{error}"
        );
    }
}
