//! End-to-end benchmark for the IRMA workspace.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <batch_pai|serve_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The process re-runs its own binary as a child that does the measured
//! work and streams results back line by line (see `child`). A crash in
//! the child therefore costs only the operation it interrupted: this
//! process counts it as failed, with its signal, and still prints the
//! report. The last line of stdout is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the human-readable report, tail
//! percentiles included, goes to stderr. See `e2ebench/README.md`.

mod alloc;
mod batch;
mod child;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const WORKLOADS: [&str; 2] = ["batch_pai", "serve_mix"];

/// A run must end well within three minutes: a child still busy this
/// long after the run started is killed and its operation counted failed.
const HARD_LIMIT: Duration = Duration::from_secs(165);

/// A child silent this long has stalled: every set-up step, reference
/// and pass reports within a few seconds, so it is killed and its
/// operation counted failed rather than left to run into `HARD_LIMIT`.
const STALL_LIMIT: Duration = Duration::from_secs(30);

/// Children a run may start: the first, plus one to carry on after each
/// crash while at least a quarter of the measuring time is left. A child
/// that carries on sets up once; only the first child's set-ups are timed
/// several times.
const MAX_CHILDREN: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in the child process: where batch CSVs go.
    data_dir: Option<PathBuf>,
    /// Set in the child process: timed set-ups before measuring.
    setups: usize,
}

/// Set-ups the first child times; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        data_dir: None,
        setups: SETUP_REPEATS,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1 (got `{other}`)")),
                }
            }
            "--data-dir" => args.data_dir = Some(PathBuf::from(value()?)),
            "--setups" => args.setups = value()?.parse().map_err(|e| format!("--setups: {e}"))?,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} (got `{}`)",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("e2ebench: {message}");
            eprintln!(
                "usage: e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    match &args.data_dir {
        Some(dir) => run_child(&args, dir),
        None => run_parent(&args),
    }
}

fn run_child(args: &Args, dir: &Path) {
    let plan = child::Plan {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        setups: args.setups,
    };
    match args.workload.as_str() {
        "batch_pai" => batch::run(dir, &plan),
        _ => serve::run(&plan),
    }
}

/// Everything the children reported.
#[derive(Default)]
struct Record {
    setups: Vec<f64>,
    samples: BTreeMap<String, Vec<f64>>,
    ok: u64,
    failed: u64,
    wrong: u64,
    notes: Vec<String>,
}

impl Record {
    fn take(&mut self, line: &str) {
        let mut words = line.splitn(3, ' ');
        match (words.next(), words.next(), words.next()) {
            (Some("setup"), Some(v), None) => self.setups.extend(v.parse::<f64>().ok()),
            (Some("sample"), Some(name), Some(v)) => {
                if let Ok(v) = v.parse::<f64>() {
                    self.samples.entry(name.to_string()).or_default().push(v);
                }
            }
            (Some("op"), Some("ok"), _) => self.ok += 1,
            (Some("op"), Some("fail"), detail) => {
                self.failed += 1;
                self.notes.push(format!("failed: {}", detail.unwrap_or("")));
            }
            (Some("op"), Some("wrong"), detail) => {
                self.wrong += 1;
                self.notes.push(format!("WRONG: {}", detail.unwrap_or("")));
            }
            (Some("info"), _, _) => self.notes.push(line[5..].to_string()),
            _ => {}
        }
    }

    fn values(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile, `q` in (0, 1].
fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let v = sorted(values);
    let rank = ((q * v.len() as f64).ceil() as usize).max(1);
    v.get(rank - 1).copied()
}

/// How one child ended.
enum Ended {
    Finished,
    /// The child died; the description names the signal or exit code.
    Crashed(String),
}

fn describe(status: ExitStatus) -> String {
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt;
        if let Some(signal) = status.signal() {
            let name = match signal {
                4 => " (SIGILL)",
                6 => " (SIGABRT)",
                7 => " (SIGBUS)",
                9 => " (SIGKILL)",
                11 => " (SIGSEGV)",
                _ => "",
            };
            return format!("killed by signal {signal}{name}");
        }
    }
    format!("exited with {status}")
}

/// Runs one child for `seconds` of measuring after `setups` set-ups,
/// feeding its lines into `record`. Returns how it ended and how long it
/// measured.
fn run_one_child(
    args: &Args,
    seconds: f64,
    setups: usize,
    dir: &Path,
    record: &mut Record,
    run_start: Instant,
) -> (Ended, f64) {
    let exe = std::env::current_exe().expect("locating the benchmark binary");
    let spawned = Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .args(["--setups", &setups.to_string()])
        .arg("--data-dir")
        .arg(dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn();
    let mut child = match spawned {
        Ok(child) => child,
        Err(error) => return (Ended::Crashed(format!("could not start: {error}")), 0.0),
    };
    let stdout = child.stdout.take().expect("child stdout is piped");
    let (tx, rx) = mpsc::channel::<String>();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    let mut measuring_since: Option<Instant> = None;
    let mut last_line = Instant::now();
    let mut killed = None;
    loop {
        match rx.recv_timeout(Duration::from_millis(200)) {
            Ok(line) => {
                last_line = Instant::now();
                if line == "measure" {
                    measuring_since = Some(last_line);
                }
                record.take(&line);
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if killed.is_none() {
                    if run_start.elapsed() > HARD_LIMIT {
                        killed = Some(format!("timed out after {HARD_LIMIT:?}"));
                    } else if last_line.elapsed() > STALL_LIMIT {
                        killed = Some(format!("stalled: no output for {STALL_LIMIT:?}"));
                    }
                    if killed.is_some() {
                        let _ = child.kill();
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    let status = child.wait().expect("waiting for the child");
    reader.join().expect("child reader thread");
    let measured = measuring_since.map_or(0.0, |t| t.elapsed().as_secs_f64());
    if let Some(why) = killed {
        return (Ended::Crashed(why), measured);
    }
    if status.success() {
        (Ended::Finished, measured)
    } else {
        (Ended::Crashed(describe(status)), measured)
    }
}

fn run_parent(args: &Args) {
    let run_start = Instant::now();
    let dir = PathBuf::from(".bench_data").join(format!("run-{}", std::process::id()));
    let mut record = Record::default();
    let mut left = args.seconds;
    let mut crashes = 0;
    for _ in 0..MAX_CHILDREN {
        let setups = if crashes == 0 { SETUP_REPEATS } else { 1 };
        let (ended, measured) = run_one_child(args, left, setups, &dir, &mut record, run_start);
        let Ended::Crashed(why) = ended else { break };
        // The operation in flight is lost; it is counted, never re-run.
        crashes += 1;
        record.failed += 1;
        record.notes.push(format!(
            "failed: child {why}; its operation in flight is lost"
        ));
        left -= measured;
        if left < args.seconds / 4.0 || run_start.elapsed() > HARD_LIMIT / 2 {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".bench_data");
    report(args, &record, crashes);
}

/// End-to-end metrics: (name, unit, value). Every workload reports the
/// same names; `pass_s` is the median time of that workload's pass (see
/// `pass_series`).
fn end_to_end(workload: &str, record: &Record) -> Vec<(&'static str, &'static str, Option<f64>)> {
    vec![
        ("setup_s", "s", median(&record.setups)),
        ("peak_heap_mb", "MB", median(record.values("peak_heap_mb"))),
        ("pass_s", "s", median(record.values(pass_series(workload)))),
    ]
}

/// Per-layer metrics of the traced run, in `BENCHMARK.json` order. A
/// layer that does no work on a workload (or a run cut short before it
/// did) reads 0.
const PER_LAYER: [(&str, &str); 50] = [
    ("data.parse_s", "s"),
    ("data.parse_mb_per_s", "MB/s"),
    ("data.join_s", "s"),
    ("prep.fit_s", "s"),
    ("prep.transform_s", "s"),
    ("mine.tree_build_s", "s"),
    ("mine.mine_s", "s"),
    ("mine.itemsets", "count"),
    ("rules.generate_s", "s"),
    ("rules.generated", "count"),
    ("rules.trie_build_s", "s"),
    ("rules.prune_p50_ms", "ms"),
    ("rules.prune_p90_ms", "ms"),
    ("rules.kept", "count"),
    ("rules.pruned", "count"),
    ("core.render_ms", "ms"),
    ("serve.cold_p50_ms", "ms"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.explain_p50_ms", "ms"),
    ("serve.cold.connect_ms", "ms"),
    ("serve.cold.send_ms", "ms"),
    ("serve.cold.wait_ms", "ms"),
    ("serve.cold.recv_ms", "ms"),
    ("serve.hit.connect_ms", "ms"),
    ("serve.hit.send_ms", "ms"),
    ("serve.hit.wait_ms", "ms"),
    ("serve.hit.recv_ms", "ms"),
    ("serve.explain.connect_ms", "ms"),
    ("serve.explain.send_ms", "ms"),
    ("serve.explain.wait_ms", "ms"),
    ("serve.explain.recv_ms", "ms"),
    ("serve.cold.pipeline_s", "s"),
    ("serve.cold.other_s", "s"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.rejected", "count"),
    ("alloc.data_mb", "MB"),
    ("alloc.prep_mb", "MB"),
    ("alloc.mine_mb", "MB"),
    ("alloc.rules_mb", "MB"),
    ("alloc.serve_mb", "MB"),
    ("heap.data_peak_mb", "MB"),
    ("heap.prep_peak_mb", "MB"),
    ("heap.mine_peak_mb", "MB"),
    ("heap.rules_peak_mb", "MB"),
    ("sched.jobs", "count"),
    ("sched.steals", "count"),
    ("sched.parks", "count"),
    ("coverage_pct", "%"),
    ("obs.trace_overhead_pct", "%"),
];

/// The series of untraced pass times behind `pass_s`, which the tracing
/// overhead is also measured on: a batch pass or a serve round.
fn pass_series(workload: &str) -> &'static str {
    match workload {
        "batch_pai" => "batch_s",
        _ => "round_s",
    }
}

fn per_layer(workload: &str, record: &Record) -> Vec<(&'static str, &'static str, Option<f64>)> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "rules.prune_p50_ms" => percentile(record.values("rules.prune_ms"), 0.5),
                "rules.prune_p90_ms" => percentile(record.values("rules.prune_ms"), 0.9),
                "serve.cold_p50_ms" => median(record.values("cold_ms")),
                "serve.hit_p50_ms" => median(record.values("hit_ms")),
                "serve.explain_p50_ms" => median(record.values("explain_ms")),
                "obs.trace_overhead_pct" => {
                    let series = pass_series(workload);
                    let traced = median(record.values(&format!("traced.{series}")));
                    let plain = median(record.values(series));
                    traced.zip(plain).map(|(t, p)| 100.0 * (t - p) / p)
                }
                _ => median(record.values(name)),
            };
            (name, unit, value.filter(|v| v.is_finite()).or(Some(0.0)))
        })
        .collect()
}

/// Median and tail of one timing series, with its sample count.
fn tails(record: &Record, name: &str) -> Option<String> {
    let values = record.values(name);
    let n = values.len();
    let p50 = median(values)?;
    let tail = |q: f64| {
        let beyond = (n as f64 * (1.0 - q)).floor() as usize;
        format!(
            "p{:.0}={:.4} ({beyond} beyond)",
            q * 100.0,
            percentile(values, q).unwrap_or(f64::NAN)
        )
    };
    Some(format!(
        "{name}: n={n} p50={p50:.4} {} {}",
        tail(0.9),
        tail(0.99)
    ))
}

fn report(args: &Args, record: &Record, crashes: usize) {
    let metrics = if args.trace {
        per_layer(&args.workload, record)
    } else {
        end_to_end(&args.workload, record)
    };
    let attempted = record.ok + record.failed + record.wrong;
    let correct = record.wrong == 0 && record.ok > 0;

    eprintln!(
        "== {} seed={} seconds={} trace={} ==",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for note in &record.notes {
        eprintln!("  {note}");
    }
    eprintln!(
        "  setup_s: n={} values={:?}",
        record.setups.len(),
        record.setups
    );
    for name in [
        "batch_s",
        "cold_ms",
        "hit_ms",
        "explain_ms",
        "round_s",
    ] {
        if let Some(line) = tails(record, name) {
            eprintln!("  {line}");
        }
    }
    if args.trace && args.workload == "batch_pai" {
        let coverage = median(record.values("coverage_pct")).unwrap_or(0.0);
        if coverage < 95.0 {
            eprintln!(
                "  FLAG: per-layer self-times cover only {coverage:.1}% of the pass wall (< 95%)"
            );
        }
    }
    eprintln!(
        "  attempted={attempted} ok={} failed={} wrong={} crashes={crashes} correct={correct}",
        record.ok, record.failed, record.wrong
    );

    let body = metrics
        .iter()
        .filter_map(|(name, unit, value)| {
            let value = value.filter(|v| v.is_finite())?;
            Some(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ))
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        attempted, record.failed
    );
}
