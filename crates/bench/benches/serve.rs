//! Tracked HTTP-serving baseline: closed-loop concurrent load against an
//! in-process `irma-serve` server, emitted as machine-readable JSON.
//!
//! Like `mining.rs`, this produces a *committed* baseline —
//! `BENCH_9.json` — that `scripts/check_bench.py` gates CI against. The
//! grid is `clients × mode × path`:
//!
//! * **mode** `healthy` runs with the default execution budget, so every
//!   analysis completes un-degraded; `degraded` caps `max_itemsets` low
//!   enough that every cold analysis walks the degradation ladder and
//!   answers `200` with `degraded:true` — the row measures the cost of
//!   the relax-and-retry rungs plus the fact that degraded results are
//!   never cached.
//! * **path** `cold` gives every request a unique dataset (one extra CSV
//!   row stamped from a global counter) so each one misses the result
//!   cache and mines from scratch; `cache_hit` replays one fixed body
//!   after a single warm-up request, so the server answers from the LRU
//!   (on the degraded server the "hit" path still re-mines every time —
//!   that non-caching penalty is exactly what the cell documents).
//!
//! Each client is closed-loop (next request only after the previous
//! response), so `rps` reflects end-to-end latency, not an open-loop
//! arrival fantasy. Correctness is host-independent: every request in a
//! measured cell must come back `200` (`ok == requests`); throughput and
//! p95 latency are compared same-host only, like mining wall times.
//!
//! Knobs (all environment variables):
//!
//! * `IRMA_SERVE_CLIENTS`  — comma-separated client counts (default `1,2,4`);
//! * `IRMA_SERVE_REQUESTS` — requests per client per cell (default `12`);
//! * `IRMA_SERVE_OUT`      — output path (default `BENCH_9.json`);
//! * `IRMA_SERVE_DEGRADED_CAP` — itemset cap for the degraded server
//!   (default `0` = auto: a quarter of the healthy probe's count).
//!
//! On a 1-core host the multi-client cells are declared-skipped: a
//! closed-loop concurrency measurement needs real parallelism to mean
//! anything, and a silent absence is indistinguishable from a forgotten
//! cell.
//!
//! Run with `cargo bench -p irma-bench --bench serve`.

use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use irma_obs::Metrics;
use irma_serve::http::Limits;
use irma_serve::{AdmissionConfig, ServeConfig, Server};

const MODES: &[&str] = &["healthy", "degraded"];
const PATHS: &[&str] = &["cold", "cache_hit"];
const QUERY: &str = "?min_support=0.1&top=5";

/// Stamps unique trailing rows onto cold-path bodies; global so bodies
/// stay unique across cells, paths, and reps.
static UNIQUE: AtomicUsize = AtomicUsize::new(0);

struct Measurement {
    clients: usize,
    mode: &'static str,
    path: &'static str,
    reps: u32,
    requests: usize,
    ok: usize,
    best_wall_s: f64,
    rps: f64,
    p95_ms: f64,
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

/// The shared base dataset: a deterministic 96-row GPU-job table whose
/// three columns give the miner a non-trivial but sub-second workload.
fn base_csv() -> String {
    let mut csv = String::from("gpu_util,mem_util,state\n");
    for i in 0..96usize {
        let (util, mem, state) = if i % 3 == 0 {
            (0, (i * 5) % 20, "Failed")
        } else {
            (85 + (i % 13), 40 + (i * 7) % 50, "Succeeded")
        };
        let _ = writeln!(csv, "{util},{mem},{state}");
    }
    csv
}

/// One raw HTTP exchange; the server closes after each response, so a
/// read-to-end is a full response.
fn post(addr: SocketAddr, tenant: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to bench server");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set timeout");
    let request = format!(
        "POST /v1/analyze{QUERY} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\
         x-irma-tenant: {tenant}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("write request");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("read response (raise the timeout if mining is this slow)");
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    (status, response)
}

fn json_u64_field(body: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let start = body.find(&needle)? + needle.len();
    let digits: String = body[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

fn start_server(workers: usize, budget_cap: Option<u64>) -> Server {
    let config = ServeConfig {
        limits: Limits {
            workers,
            queue_depth: 64,
            ..Limits::default()
        },
        cache_entries: 512,
        // The bench measures the pipeline, not the rate limiter: a bucket
        // this deep never sheds closed-loop traffic.
        admission: AdmissionConfig {
            rate_per_sec: 1.0e6,
            burst: 1.0e6,
            ..AdmissionConfig::default()
        },
        default_budget: irma_core::ExecBudget {
            max_itemsets: budget_cap,
            ..irma_core::ExecBudget::default()
        },
        ..ServeConfig::default()
    };
    Server::start("127.0.0.1:0", config, Metrics::enabled()).expect("bind bench server")
}

/// One timed pass of a cell: `clients` closed-loop threads, `requests`
/// each. Returns (wall seconds, 200-count, all latencies in ms).
fn run_pass(
    addr: SocketAddr,
    clients: usize,
    requests: usize,
    path: &str,
    base: &str,
) -> (f64, usize, Vec<f64>) {
    let barrier = Barrier::new(clients + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let tenant = format!("bench-{c}");
                    let mut ok = 0usize;
                    let mut latencies = Vec::with_capacity(requests);
                    barrier.wait();
                    for _ in 0..requests {
                        let body = if path == "cold" {
                            // `k / 100` shifts the second column on each wrap
                            // of the first, so 10,000 stamps stay distinct.
                            let k = UNIQUE.fetch_add(1, Ordering::Relaxed);
                            format!("{base}{},{},Succeeded\n", k % 100, (k * 7 + k / 100) % 100)
                        } else {
                            base.to_string()
                        };
                        let t0 = Instant::now();
                        let (status, _) = post(addr, &tenant, &body);
                        latencies.push(t0.elapsed().as_secs_f64() * 1e3);
                        if status == 200 {
                            ok += 1;
                        }
                    }
                    (ok, latencies)
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        let mut ok = 0;
        let mut latencies = Vec::with_capacity(clients * requests);
        for handle in handles {
            let (n, mut lats) = handle.join().expect("client thread");
            ok += n;
            latencies.append(&mut lats);
        }
        (t0.elapsed().as_secs_f64(), ok, latencies)
    })
}

fn p95(latencies: &mut [f64]) -> f64 {
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    if latencies.is_empty() {
        return 0.0;
    }
    let rank = ((latencies.len() as f64) * 0.95).ceil() as usize;
    latencies[rank.saturating_sub(1).min(latencies.len() - 1)]
}

fn reps_for(first_wall: f64) -> u32 {
    if first_wall < 0.5 {
        5
    } else if first_wall < 2.0 {
        3
    } else {
        2
    }
}

fn measure(
    addr: SocketAddr,
    clients: usize,
    mode: &'static str,
    path: &'static str,
    requests: usize,
    base: &str,
) -> Measurement {
    // Warm the cache-hit path once so the first timed request already
    // hits (on the degraded server this merely primes nothing, by
    // design — degraded results are not cached).
    if path == "cache_hit" {
        let (status, response) = post(addr, "bench-warm", base);
        assert_eq!(status, 200, "cache warm-up failed: {response}");
    }
    let (first_wall, first_ok, mut first_lats) = run_pass(addr, clients, requests, path, base);
    let total = clients * requests;
    assert_eq!(
        first_ok, total,
        "{mode}/{path} @ {clients} client(s): {first_ok}/{total} requests returned 200"
    );
    let reps = reps_for(first_wall);
    let mut best_wall = first_wall;
    let mut best_p95 = p95(&mut first_lats);
    for _ in 1..reps {
        let (wall, ok, mut lats) = run_pass(addr, clients, requests, path, base);
        assert_eq!(ok, total, "{mode}/{path} @ {clients}: rep lost requests");
        if wall < best_wall {
            best_wall = wall;
            best_p95 = p95(&mut lats);
        }
    }
    Measurement {
        clients,
        mode,
        path,
        reps,
        requests: total,
        ok: total,
        best_wall_s: best_wall,
        rps: total as f64 / best_wall,
        p95_ms: best_p95,
        skipped: None,
    }
}

fn render_json(
    clients: &[usize],
    requests: usize,
    degraded_cap: u64,
    host_cores: usize,
    rows: &[Measurement],
) -> String {
    let list = |xs: &[usize]| {
        xs.iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    };
    let names = |xs: &[&str]| {
        xs.iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"irma-bench/serve/v1\",\n");
    let _ = writeln!(out, "  \"host_cores\": {host_cores},");
    let _ = writeln!(out, "  \"requests_per_client\": {requests},");
    let _ = writeln!(out, "  \"degraded_cap\": {degraded_cap},");
    let _ = writeln!(out, "  \"clients\": [{}],", list(clients));
    let _ = writeln!(out, "  \"modes\": [{}],", names(MODES));
    let _ = writeln!(out, "  \"paths\": [{}],", names(PATHS));
    out.push_str("  \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        if let Some(reason) = &row.skipped {
            let _ = write!(
                out,
                "    {{ \"clients\": {}, \"mode\": \"{}\", \"path\": \"{}\", \
                 \"skipped\": \"{}\" }}",
                row.clients, row.mode, row.path, reason,
            );
        } else {
            let _ = write!(
                out,
                "    {{ \"clients\": {}, \"mode\": \"{}\", \"path\": \"{}\", \
                 \"reps\": {}, \"requests\": {}, \"ok\": {}, \
                 \"best_wall_s\": {:.6}, \"rps\": {:.1}, \"p95_ms\": {:.3} }}",
                row.clients,
                row.mode,
                row.path,
                row.reps,
                row.requests,
                row.ok,
                row.best_wall_s,
                row.rps,
                row.p95_ms,
            );
        }
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let clients = env_list("IRMA_SERVE_CLIENTS", &[1, 2, 4]);
    let requests = env_usize("IRMA_SERVE_REQUESTS", 12);
    let cap_override = env_usize("IRMA_SERVE_DEGRADED_CAP", 0) as u64;
    let out_path = std::env::var("IRMA_SERVE_OUT").unwrap_or_else(|_| "BENCH_9.json".to_string());
    let out_path = if std::path::Path::new(&out_path).is_absolute() {
        std::path::PathBuf::from(out_path)
    } else {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(out_path)
    };
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let max_clients = clients.iter().copied().max().unwrap_or(1).max(2);
    let base = base_csv();

    let healthy = start_server(max_clients, None);
    // Probe the healthy server once: asserts the workload mines clean and
    // yields the itemset count the degraded cap is derived from.
    let (status, response) = post(healthy.local_addr(), "bench-probe", &base);
    assert_eq!(status, 200, "healthy probe failed: {response}");
    assert!(
        response.contains("\"degraded\":false"),
        "healthy probe unexpectedly degraded: {response}"
    );
    let itemsets = json_u64_field(&response, "frequent_itemsets")
        .expect("healthy probe response lacks frequent_itemsets");
    let degraded_cap = if cap_override > 0 {
        cap_override
    } else {
        (itemsets / 4).max(2)
    };
    eprintln!("healthy probe: {itemsets} itemsets; degraded cap {degraded_cap}");

    let degraded = start_server(max_clients, Some(degraded_cap));
    let (status, response) = post(degraded.local_addr(), "bench-probe", &base);
    assert_eq!(
        status, 200,
        "degraded probe failed (the ladder exhausted? raise IRMA_SERVE_DEGRADED_CAP): {response}"
    );
    assert!(
        response.contains("\"degraded\":true"),
        "cap {degraded_cap} did not trip the ladder; lower IRMA_SERVE_DEGRADED_CAP: {response}"
    );

    let mut rows = Vec::new();
    for &n in &clients {
        for &mode in MODES {
            let addr = if mode == "healthy" {
                healthy.local_addr()
            } else {
                degraded.local_addr()
            };
            for &path in PATHS {
                if host_cores == 1 && n > 1 {
                    let reason = format!(
                        "host reports 1 core; {n}-client closed-loop concurrency \
                         cannot be demonstrated here"
                    );
                    eprintln!("  skipping {mode}/{path} @ {n} client(s): {reason}");
                    rows.push(Measurement {
                        clients: n,
                        mode,
                        path,
                        reps: 0,
                        requests: 0,
                        ok: 0,
                        best_wall_s: 0.0,
                        rps: 0.0,
                        p95_ms: 0.0,
                        skipped: Some(reason),
                    });
                    continue;
                }
                let row = measure(addr, n, mode, path, requests, &base);
                eprintln!(
                    "  {n} client(s) | {mode:<8} | {path:<9}: {:>8.1} req/s, \
                     p95 {:>7.3} ms (best of {})",
                    row.rps, row.p95_ms, row.reps
                );
                rows.push(row);
            }
        }
    }

    healthy.shutdown();
    degraded.shutdown();

    let json = render_json(&clients, requests, degraded_cap, host_cores, &rows);
    std::fs::write(&out_path, &json)
        .unwrap_or_else(|e| panic!("writing {}: {e}", out_path.display()));
    eprintln!("wrote {}", out_path.display());
}
