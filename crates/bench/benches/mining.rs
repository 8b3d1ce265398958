//! Tracked mining baseline: wall time, throughput, and thread scaling
//! per (scale × miner × pool width), emitted as machine-readable JSON.
//!
//! Unlike the criterion benches (relative, per-PR exploration), this one
//! produces the *committed* baseline `BENCH_6.json` that
//! `scripts/check_bench.py` gates CI against: itemset counts must match
//! exactly (machine-independent correctness), wall times within a
//! tolerance (machine-dependent, and only compared against a baseline
//! recorded on a host with the same core count).
//!
//! Schema v2: the document records `host_cores` (so the checker can
//! refuse cross-host wall comparisons and arm the speedup gate), the
//! `miners` list (so the checker can derive the full expected
//! scale × miner × threads grid), and every cell that was *not* measured
//! gets an explicit `skipped` record with a reason — a missing cell with
//! no skip record is a checker failure, not something to silently ignore.
//!
//! Knobs (all environment variables):
//!
//! * `IRMA_BENCH_SCALES`  — comma-separated job counts
//!   (default `10000,100000,850000`; 850k is the paper's PAI scale);
//! * `IRMA_BENCH_THREADS` — comma-separated pool widths (default `1,2,4`);
//! * `IRMA_BENCH_OUT`     — output path (default `BENCH_6.json`);
//! * `IRMA_BENCH_APRIORI_CAP` — largest scale Apriori runs at (default
//!   `100000`): the level-wise baseline is inherently slower than
//!   FP-Growth (that gap is the paper's point), so the largest scale's
//!   reps are declared-skipped by default rather than burned.
//!
//! Run with `cargo bench -p irma-bench --bench mining`.

use std::fmt::Write as _;
use std::time::Instant;

use irma_bench::{bench_db, BENCH_SEED};
use irma_mine::{Algorithm, MinerConfig, TransactionDb};

struct Measurement {
    scale: usize,
    miner: &'static str,
    threads: usize,
    reps: u32,
    best_wall_s: f64,
    itemsets: u64,
    /// `Some(reason)` marks a declared-skipped cell; the measurement
    /// fields are meaningless and the JSON row carries only the reason.
    skipped: Option<String>,
}

fn env_list(name: &str, default: &[usize]) -> Vec<usize> {
    match std::env::var(name) {
        Ok(raw) => raw
            .split(',')
            .map(|tok| {
                tok.trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("{name}: bad entry `{tok}`"))
            })
            .collect(),
        Err(_) => default.to_vec(),
    }
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .map(|raw| raw.parse().unwrap_or_else(|_| panic!("{name}: bad value")))
        .unwrap_or(default)
}

/// Reps scale inversely with run length so cheap configs get tight
/// minima and expensive ones stay tractable; the min discards warmup.
fn reps_for(first_run: f64) -> u32 {
    if first_run < 0.05 {
        15
    } else if first_run < 0.5 {
        7
    } else if first_run < 5.0 {
        3
    } else {
        2
    }
}

fn measure(db: &TransactionDb, algorithm: Algorithm, threads: usize) -> (f64, u64, u32) {
    let config = MinerConfig {
        min_support: 0.02,
        max_len: 5,
    };
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("build pool");
    let time_one = || {
        let t0 = Instant::now();
        let frequent = pool
            .install(|| algorithm.mine(db, &config))
            .expect("valid config");
        (t0.elapsed().as_secs_f64(), frequent.len() as u64)
    };
    let (first, itemsets) = time_one();
    let reps = reps_for(first);
    let mut best = first;
    for _ in 1..reps {
        let (wall, n) = time_one();
        assert_eq!(n, itemsets, "nondeterministic itemset count");
        best = best.min(wall);
    }
    (best, itemsets, reps)
}

fn render_json(
    scales: &[usize],
    threads: &[usize],
    host_cores: usize,
    rows: &[Measurement],
) -> String {
    let list = |xs: &[usize]| {
        xs.iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    };
    let miners = Algorithm::all()
        .iter()
        .map(|a| format!("\"{}\"", a.name()))
        .collect::<Vec<_>>()
        .join(", ");
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"irma-bench/mining/v2\",\n");
    let _ = writeln!(out, "  \"seed\": {BENCH_SEED},");
    let _ = writeln!(out, "  \"host_cores\": {host_cores},");
    out.push_str("  \"miner_config\": { \"min_support\": 0.02, \"max_len\": 5 },\n");
    let _ = writeln!(out, "  \"scales\": [{}],", list(scales));
    let _ = writeln!(out, "  \"miners\": [{miners}],");
    let _ = writeln!(out, "  \"threads\": [{}],", list(threads));
    out.push_str("  \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        if let Some(reason) = &row.skipped {
            let _ = write!(
                out,
                "    {{ \"scale\": {}, \"miner\": \"{}\", \"threads\": {}, \
                 \"skipped\": \"{}\" }}",
                row.scale, row.miner, row.threads, reason,
            );
        } else {
            let per_s = row.itemsets as f64 / row.best_wall_s;
            // Speedup vs this (scale, miner)'s own 1-thread best, when present.
            let speedup = rows
                .iter()
                .find(|r| {
                    r.scale == row.scale
                        && r.miner == row.miner
                        && r.threads == 1
                        && r.skipped.is_none()
                })
                .map(|base| base.best_wall_s / row.best_wall_s);
            let _ = write!(
                out,
                "    {{ \"scale\": {}, \"miner\": \"{}\", \"threads\": {}, \
                 \"reps\": {}, \"best_wall_s\": {:.6}, \"itemsets\": {}, \
                 \"itemsets_per_s\": {:.1}, \"speedup_vs_1t\": {} }}",
                row.scale,
                row.miner,
                row.threads,
                row.reps,
                row.best_wall_s,
                row.itemsets,
                per_s,
                speedup.map_or("null".to_string(), |s| format!("{s:.3}")),
            );
        }
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let scales = env_list("IRMA_BENCH_SCALES", &[10_000, 100_000, 850_000]);
    let threads = env_list("IRMA_BENCH_THREADS", &[1, 2, 4]);
    let apriori_cap = env_usize("IRMA_BENCH_APRIORI_CAP", 100_000);
    let out_path = std::env::var("IRMA_BENCH_OUT").unwrap_or_else(|_| "BENCH_6.json".to_string());
    // Cargo runs bench binaries with CWD = the package dir; anchor
    // relative outputs at the workspace root where the committed
    // baseline (and CI's gate step) expect them.
    let out_path = if std::path::Path::new(&out_path).is_absolute() {
        std::path::PathBuf::from(out_path)
    } else {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(out_path)
    };
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut rows = Vec::new();
    for &scale in &scales {
        eprintln!("generating PAI trace at {scale} jobs...");
        let db = bench_db(scale);
        for algorithm in Algorithm::all() {
            if algorithm == Algorithm::Apriori && scale > apriori_cap {
                let reason = format!(
                    "scale {scale} exceeds IRMA_BENCH_APRIORI_CAP {apriori_cap} \
                     (level-wise baseline; gap vs FP-Growth is the paper's point)"
                );
                eprintln!("  skipping apriori at {scale} jobs: {reason}");
                for &width in &threads {
                    rows.push(Measurement {
                        scale,
                        miner: algorithm.name(),
                        threads: width,
                        reps: 0,
                        best_wall_s: 0.0,
                        itemsets: 0,
                        skipped: Some(reason.clone()),
                    });
                }
                continue;
            }
            for &width in &threads {
                let (best, itemsets, reps) = measure(&db, algorithm, width);
                eprintln!(
                    "  {:>8} jobs | {:<8} | {} thread(s): {:>10.4}s  \
                     ({} itemsets, best of {})",
                    scale,
                    algorithm.name(),
                    width,
                    best,
                    itemsets,
                    reps
                );
                rows.push(Measurement {
                    scale,
                    miner: algorithm.name(),
                    threads: width,
                    reps,
                    best_wall_s: best,
                    itemsets,
                    skipped: None,
                });
            }
        }
    }

    let json = render_json(&scales, &threads, host_cores, &rows);
    std::fs::write(&out_path, &json)
        .unwrap_or_else(|e| panic!("writing {}: {e}", out_path.display()));
    eprintln!("wrote {}", out_path.display());
}
