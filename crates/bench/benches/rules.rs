//! Tracked rules-stage baseline: keyword pruning wall time for the
//! production implementation (`subset`: nested pairs found by subset
//! lookup) vs the flat all-pairs oracle, per
//! (scale × impl × pool width), emitted as machine-readable JSON.
//!
//! Like `mining.rs` (schema v2), this produces the *committed* baseline
//! `BENCH_10.json` that `scripts/check_bench.py` gates CI against under
//! the `irma-bench/rules/v1` schema: kept/pruned counts must match
//! exactly (machine-independent correctness — the synthetic rule set is
//! a deterministic function of scale), wall times within a tolerance on
//! same-core-count hosts, and `subset` must beat the flat path by the
//! speedup floor *within the same document* (both cells measured on one
//! host, so the gate is machine-independent too).
//!
//! Knobs (all environment variables):
//!
//! * `IRMA_BENCH_RULES_SCALES`   — comma-separated rule counts
//!   (default `10000,100000,500000`);
//! * `IRMA_BENCH_RULES_THREADS`  — comma-separated pool widths
//!   (default `1,4`; only the subset path parallelizes);
//! * `IRMA_BENCH_RULES_OUT`      — output path (default `BENCH_10.json`);
//! * `IRMA_BENCH_RULES_FLAT_CAP` — largest scale the flat oracle runs at
//!   (default `100000`): all-pairs at 500k rules is the quadratic blowup
//!   subset lookup avoids, so those reps are declared-skipped, not burned.
//!
//! Run with `cargo bench -p irma-bench --bench rules`.

use std::fmt::Write as _;
use std::time::Instant;

use irma_bench::{bench_rules, BENCH_RULES_KEYWORD, BENCH_SEED};
use irma_check::flat_prune::flat_prune_rules;
use irma_obs::{Metrics, Provenance};
use irma_rules::{prune_rules, PruneParams, Rule};

struct Measurement {
    scale: usize,
    implementation: &'static str,
    threads: usize,
    reps: u32,
    best_wall_s: f64,
    kept: u64,
    pruned: u64,
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

fn measure(rules: &[Rule], implementation: &'static str, threads: usize) -> (f64, u64, u64, u32) {
    let params = PruneParams::default();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("build pool");
    let time_one = || {
        let t0 = Instant::now();
        let outcome = match implementation {
            "flat" => {
                flat_prune_rules(rules, BENCH_RULES_KEYWORD, &params, &Provenance::disabled())
            }
            "subset" => pool
                .install(|| {
                    prune_rules(
                        rules,
                        BENCH_RULES_KEYWORD,
                        &params,
                        &Metrics::disabled(),
                        &Provenance::disabled(),
                    )
                })
                .expect("default margins are valid"),
            other => panic!("unknown impl `{other}`"),
        };
        (
            t0.elapsed().as_secs_f64(),
            outcome.kept.len() as u64,
            outcome.pruned.len() as u64,
        )
    };
    let (first, kept, pruned) = time_one();
    let reps = reps_for(first);
    let mut best = first;
    for _ in 1..reps {
        let (wall, k, p) = time_one();
        assert_eq!((k, p), (kept, pruned), "nondeterministic prune outcome");
        best = best.min(wall);
    }
    (best, kept, pruned, reps)
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
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"irma-bench/rules/v1\",\n");
    let _ = writeln!(out, "  \"seed\": {BENCH_SEED},");
    let _ = writeln!(out, "  \"host_cores\": {host_cores},");
    let _ = writeln!(out, "  \"keyword\": {BENCH_RULES_KEYWORD},");
    out.push_str("  \"prune_params\": { \"c_lift\": 1.5, \"c_supp\": 1.5 },\n");
    let _ = writeln!(out, "  \"scales\": [{}],", list(scales));
    out.push_str("  \"impls\": [\"flat\", \"subset\"],\n");
    let _ = writeln!(out, "  \"threads\": [{}],", list(threads));
    out.push_str("  \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        if let Some(reason) = &row.skipped {
            let _ = write!(
                out,
                "    {{ \"scale\": {}, \"impl\": \"{}\", \"threads\": {}, \
                 \"skipped\": \"{}\" }}",
                row.scale, row.implementation, row.threads, reason,
            );
        } else {
            let rules_per_s = row.scale as f64 / row.best_wall_s;
            // Subset speedup vs this scale's 1-thread flat best, when
            // measured: the within-document number the checker's floor
            // gates on.
            let speedup_vs_flat = if row.implementation == "subset" {
                rows.iter()
                    .find(|r| {
                        r.scale == row.scale
                            && r.implementation == "flat"
                            && r.threads == 1
                            && r.skipped.is_none()
                    })
                    .map(|base| base.best_wall_s / row.best_wall_s)
            } else {
                None
            };
            let _ = write!(
                out,
                "    {{ \"scale\": {}, \"impl\": \"{}\", \"threads\": {}, \
                 \"reps\": {}, \"best_wall_s\": {:.6}, \"kept\": {}, \"pruned\": {}, \
                 \"rules_per_s\": {:.1}, \"speedup_vs_flat\": {} }}",
                row.scale,
                row.implementation,
                row.threads,
                row.reps,
                row.best_wall_s,
                row.kept,
                row.pruned,
                rules_per_s,
                speedup_vs_flat.map_or("null".to_string(), |s| format!("{s:.3}")),
            );
        }
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let scales = env_list("IRMA_BENCH_RULES_SCALES", &[10_000, 100_000, 500_000]);
    let threads = env_list("IRMA_BENCH_RULES_THREADS", &[1, 4]);
    let flat_cap = env_usize("IRMA_BENCH_RULES_FLAT_CAP", 100_000);
    let out_path =
        std::env::var("IRMA_BENCH_RULES_OUT").unwrap_or_else(|_| "BENCH_10.json".to_string());
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
        eprintln!("generating synthetic rule set at {scale} rules...");
        let rules = bench_rules(scale);
        for implementation in ["flat", "subset"] {
            for &width in &threads {
                let skip_reason = if implementation == "flat" && width != 1 {
                    Some("flat path is single-threaded".to_string())
                } else if implementation == "flat" && scale > flat_cap {
                    Some(format!(
                        "scale {scale} exceeds IRMA_BENCH_RULES_FLAT_CAP {flat_cap} \
                         (all-pairs baseline; the quadratic blowup is what subset lookup avoids)"
                    ))
                } else {
                    None
                };
                if let Some(reason) = skip_reason {
                    eprintln!("  skipping {implementation} at {scale}x{width}: {reason}");
                    rows.push(Measurement {
                        scale,
                        implementation,
                        threads: width,
                        reps: 0,
                        best_wall_s: 0.0,
                        kept: 0,
                        pruned: 0,
                        skipped: Some(reason),
                    });
                    continue;
                }
                let (best, kept, pruned, reps) = measure(&rules, implementation, width);
                eprintln!(
                    "  {:>8} rules | {:<4} | {} thread(s): {:>10.4}s  \
                     ({} kept, {} pruned, best of {})",
                    scale, implementation, width, best, kept, pruned, reps
                );
                rows.push(Measurement {
                    scale,
                    implementation,
                    threads: width,
                    reps,
                    best_wall_s: best,
                    kept,
                    pruned,
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
