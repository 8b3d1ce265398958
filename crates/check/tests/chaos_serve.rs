//! Chaos suite for the `irma-serve` HTTP layer.
//!
//! Both daemons serve on the same `irma_serve::http::Transport`: the
//! analyze app (`irma serve`) and a GET-only `/metrics` + `/healthz`
//! handler shaped like `irma watch --listen`. The seeded socket faults
//! and the slow-loris case run against both.
//!
//! The contract under test: whatever a client does at the socket level —
//! slow-loris dribbles, mid-body disconnects, abandoned reads, binary
//! garbage, oversized bodies and heads — the server answers with a
//! documented status or drops the connection cleanly. It never panics,
//! never wedges a worker slot, and after the storm its active-connection
//! count returns to zero and healthy tenants are still served.
//!
//! The combined run layers three failure sources at once (socket chaos,
//! a budget-tripping tenant, an injected worker panic) and checks the
//! healthy tenant's requests keep succeeding throughout.

use std::io::{BufRead, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Once};
use std::time::Duration;

use irma_check::fault::{run_socket_fault, SocketFault, SocketOutcome};
use irma_obs::Metrics;
use irma_serve::http::{Limits, Load, Reply, RequestHead, Transport};
use irma_serve::{AdmissionConfig, ServeConfig, Server};

/// Statuses the HTTP↔error table in DESIGN.md §11 documents. Anything
/// else coming back from the server is a contract violation.
const DOCUMENTED: &[u16] = &[200, 400, 404, 405, 411, 413, 422, 429, 431, 500, 503, 504];

/// Statuses a GET-only scrape handler can produce: its routes, 404/405,
/// and the transport's own 431 and 503.
const SCRAPE_DOCUMENTED: &[u16] = &[200, 404, 405, 431, 503];

/// Suppresses backtrace spray from panics whose payload says they were
/// injected on purpose; real assertion failures still print.
fn quiet_panics() {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains("injected"))
                || info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|m| m.contains("injected"));
            if !injected {
                previous(info);
            }
        }));
    });
}

fn chaos_server() -> Server {
    let config = ServeConfig {
        limits: Limits {
            workers: 3,
            queue_depth: 16,
            read_timeout: Duration::from_secs(2),
        },
        max_body_bytes: 1024,
        allow_fault_injection: true,
        admission: AdmissionConfig {
            // Generous bucket so the chaos volume itself is not shed;
            // the breaker tests configure their own tenants.
            rate_per_sec: 500.0,
            burst: 200.0,
            ..AdmissionConfig::default()
        },
        ..ServeConfig::default()
    };
    Server::start("127.0.0.1:0", config, Metrics::enabled()).expect("bind chaos server")
}

const CSV: &str = "gpu_util,state\n0,Failed\n0,Failed\n0,Failed\n95,Succeeded\n90,Succeeded\n92,Succeeded\n0,Failed\n91,Succeeded\n";

fn request(addr: SocketAddr, raw: &str) -> Option<String> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .ok()?;
    stream.write_all(raw.as_bytes()).ok()?;
    let mut response = String::new();
    stream.read_to_string(&mut response).ok()?;
    Some(response)
}

fn analyze(addr: SocketAddr, query: &str, headers: &str, body: &str) -> Option<String> {
    request(
        addr,
        &format!(
            "POST /v1/analyze{query} HTTP/1.1\r\nhost: chaos\r\ncontent-length: {}\r\n{headers}\r\n{body}",
            body.len()
        ),
    )
}

fn status_of(response: &str) -> u16 {
    response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Polls until the active-connection count returns to zero (rejector
/// threads and drops settle asynchronously).
fn assert_drains_to_zero(active: impl Fn() -> usize) {
    for _ in 0..100 {
        if active() == 0 {
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("active connections stuck at {} after chaos", active());
}

/// The shape of the `irma watch --listen` handler: GET-only `/metrics`
/// and `/healthz`, 404 for every other route.
fn scrape_handler(head: &RequestHead, _body: &mut dyn BufRead) -> Option<Reply> {
    let route = head.route();
    if route != "/metrics" && route != "/healthz" {
        return Some(Reply::error(404, "Not Found", "unknown route", "watch"));
    }
    if head.method != "GET" {
        return Some(
            Reply::error(405, "Method Not Allowed", "use GET", "watch").with_header("Allow", "GET"),
        );
    }
    Some(Reply::json(200, "OK", "{\"status\":\"ok\"}\n".to_string()))
}

/// A GET-only transport with the watch endpoint's limits, plus its load.
fn scrape_transport() -> (Transport, Arc<Load>) {
    let load = Arc::new(Load::default());
    let limits = Limits {
        workers: 2,
        queue_depth: 8,
        read_timeout: Duration::from_secs(2),
    };
    let transport = Transport::start(
        "127.0.0.1:0",
        limits,
        Metrics::enabled(),
        Arc::clone(&load),
        scrape_handler,
    )
    .expect("bind scrape transport");
    (transport, load)
}

/// Runs every seeded socket fault against `addr`; each must come back
/// with a status from `documented` or a clean drop.
fn run_every_seeded_fault(addr: SocketAddr, documented: &[u16]) {
    for seed in 0..48 {
        let fault = SocketFault::from_seed(seed);
        let outcome = run_socket_fault(addr, &fault);
        match outcome {
            SocketOutcome::Status(status) => assert!(
                documented.contains(&status),
                "seed {seed}: fault {fault:?} got undocumented status {status}"
            ),
            SocketOutcome::Dropped => {}
            SocketOutcome::ConnectFailed => {
                panic!("seed {seed}: fault {fault:?} could not even connect")
            }
        }
    }
}

/// More concurrent slow clients than workers: each dribbles a partial
/// head and hangs up. The read deadline bounds every slot.
fn run_lorises(addr: SocketAddr) {
    let lorises: Vec<_> = (0..6)
        .map(|i| {
            std::thread::spawn(move || {
                run_socket_fault(
                    addr,
                    &SocketFault::SlowLoris {
                        chunk: 2,
                        pause_ms: 30,
                        rounds: 4,
                    },
                );
                i
            })
        })
        .collect();
    for handle in lorises {
        handle.join().expect("loris thread");
    }
}

#[test]
fn every_socket_fault_yields_documented_status_or_clean_drop() {
    quiet_panics();
    let server = chaos_server();
    let addr = server.local_addr();
    run_every_seeded_fault(addr, DOCUMENTED);
    assert_drains_to_zero(|| server.active_connections());
    // The server is still healthy after the storm.
    let health = request(addr, "GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n").expect("healthz");
    assert_eq!(status_of(&health), 200, "got: {health}");
    server.shutdown();
}

#[test]
fn every_socket_fault_against_the_scrape_transport() {
    let (transport, load) = scrape_transport();
    let addr = transport.local_addr();
    run_every_seeded_fault(addr, SCRAPE_DOCUMENTED);
    assert_drains_to_zero(|| load.active());
    let health = request(addr, "GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n").expect("healthz");
    assert_eq!(status_of(&health), 200, "got: {health}");
    // The analysis API is not routed on a scrape port.
    let analyze = analyze(addr, "", "", CSV).expect("analyze on scrape port");
    assert_eq!(status_of(&analyze), 404, "got: {analyze}");
    transport.shutdown();
}

#[test]
fn slow_loris_cannot_wedge_the_scrape_transport() {
    let (transport, load) = scrape_transport();
    let addr = transport.local_addr();
    run_lorises(addr);
    assert_drains_to_zero(|| load.active());
    let metrics = request(addr, "GET /metrics HTTP/1.1\r\nhost: t\r\n\r\n").expect("metrics");
    assert_eq!(status_of(&metrics), 200, "got: {metrics}");
    transport.shutdown();
}

#[test]
fn oversized_faults_get_their_specific_statuses() {
    quiet_panics();
    let server = chaos_server();
    let addr = server.local_addr();
    // Body past the 1 KiB cap → 413 from the declared length.
    let body = run_socket_fault(addr, &SocketFault::OversizedBody { bytes: 4096 });
    assert_eq!(body, SocketOutcome::Status(413));
    // Head past the 8 KiB cap → 431, not a reset.
    let head = run_socket_fault(addr, &SocketFault::OversizedHead { padding: 10 * 1024 });
    assert_eq!(head, SocketOutcome::Status(431));
    // Binary junk where the request line belongs → 4xx or clean drop,
    // never a hang or a 5xx (the server did nothing wrong).
    let junk = run_socket_fault(addr, &SocketFault::GarbageRequestLine { len: 256 });
    match junk {
        SocketOutcome::Status(status) => {
            assert!((400..500).contains(&status), "garbage got {status}")
        }
        SocketOutcome::Dropped => {}
        SocketOutcome::ConnectFailed => panic!("garbage fault could not connect"),
    }
    assert_drains_to_zero(|| server.active_connections());
    server.shutdown();
}

#[test]
fn slow_loris_cannot_wedge_the_worker_pool() {
    quiet_panics();
    let server = chaos_server();
    let addr = server.local_addr();
    run_lorises(addr);
    assert_drains_to_zero(|| server.active_connections());
    // Real work still flows afterwards.
    let ok = analyze(addr, "?min_support=0.2", "", CSV).expect("analyze after loris");
    assert_eq!(status_of(&ok), 200, "got: {ok}");
    server.shutdown();
}

#[test]
fn combined_chaos_budget_trips_and_panics_spare_healthy_tenants() {
    quiet_panics();
    let server = chaos_server();
    let addr = server.local_addr();
    let healthy_ok = AtomicUsize::new(0);
    let healthy_total = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        // Socket chaos: a stream of misbehaving clients.
        scope.spawn(|| {
            for seed in 100..130 {
                let fault = SocketFault::from_seed(seed);
                let outcome = run_socket_fault(addr, &fault);
                if let SocketOutcome::Status(status) = outcome {
                    assert!(
                        DOCUMENTED.contains(&status),
                        "combined run: {fault:?} got undocumented {status}"
                    );
                }
            }
        });
        // A tenant that keeps tripping its budget (zero deadline → 504s,
        // then the circuit breaker sheds it with 429s).
        scope.spawn(|| {
            for _ in 0..8 {
                if let Some(response) = analyze(
                    addr,
                    "",
                    "x-irma-tenant: doomed\r\nx-irma-timeout-ms: 0\r\n",
                    CSV,
                ) {
                    let status = status_of(&response);
                    assert!(
                        status == 504 || status == 429,
                        "doomed tenant expected 504/429, got {status}: {response}"
                    );
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        // A tenant whose requests inject worker panics mid-mining. Its
        // min_support is unique to this tenant: the cache key excludes
        // the budget (and so the panic_after knob), so sharing a config
        // with the healthy tenant would serve the saboteur a cached 200
        // before the injection could fire.
        scope.spawn(|| {
            for _ in 0..4 {
                if let Some(response) = analyze(
                    addr,
                    "?panic_after=1&min_support=0.21",
                    "x-irma-tenant: saboteur\r\n",
                    CSV,
                ) {
                    let status = status_of(&response);
                    // 500 (contained panic) until the breaker opens, 429 after.
                    assert!(
                        status == 500 || status == 429,
                        "saboteur expected 500/429, got {status}: {response}"
                    );
                }
                std::thread::sleep(Duration::from_millis(30));
            }
        });
        // The healthy tenant, running throughout the storm.
        scope.spawn(|| {
            for i in 0..12 {
                healthy_total.fetch_add(1, Ordering::Relaxed);
                // Vary min_support across a few values so both cold and
                // cache-hit paths run under chaos.
                let query = match i % 3 {
                    0 => "?min_support=0.2",
                    1 => "?min_support=0.25",
                    _ => "?min_support=0.3",
                };
                if let Some(response) = analyze(addr, query, "x-irma-tenant: steady\r\n", CSV) {
                    if status_of(&response) == 200 {
                        assert!(
                            response.contains("\"degraded\":false"),
                            "healthy tenant saw a degraded result: {response}"
                        );
                        healthy_ok.fetch_add(1, Ordering::Relaxed);
                    }
                }
                std::thread::sleep(Duration::from_millis(25));
            }
        });
    });

    let ok = healthy_ok.load(Ordering::Relaxed);
    let total = healthy_total.load(Ordering::Relaxed);
    assert!(
        ok == total && total > 0,
        "healthy tenant: only {ok}/{total} requests succeeded under chaos"
    );
    assert_drains_to_zero(|| server.active_connections());
    // Post-storm: the server still mines, and the metrics endpoint
    // still scrapes.
    let after = analyze(addr, "?min_support=0.2", "x-irma-tenant: steady\r\n", CSV)
        .expect("post-chaos analyze");
    assert_eq!(status_of(&after), 200);
    let metrics = request(addr, "GET /metrics HTTP/1.1\r\nhost: t\r\n\r\n").expect("metrics");
    assert!(metrics.contains("# EOF"));
    server.shutdown();
}

#[test]
fn degraded_analyses_are_200_with_a_degradation_record() {
    quiet_panics();
    // A tiny itemset budget forces the degradation ladder on every cold
    // analysis; the contract is 200 + degraded:true + the full record,
    // mirroring CLI exit code 4.
    let config = ServeConfig {
        default_budget: irma_core::ExecBudget {
            max_itemsets: Some(2),
            ..irma_core::ExecBudget::default()
        },
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config, Metrics::enabled()).expect("bind");
    let addr = server.local_addr();
    let response = analyze(addr, "?min_support=0.2", "", CSV).expect("degraded analyze");
    let status = status_of(&response);
    if status == 200 {
        assert!(
            response.contains("\"degraded\":true"),
            "budget-capped 200 must say degraded: {response}"
        );
        assert!(
            response.contains("\"degradation\":{") && response.contains("\"steps\":["),
            "degraded response must carry the Degradation record: {response}"
        );
        // Degraded results are never cached: replaying must re-mine.
        assert!(response.contains("\"cached\":false"));
        assert_eq!(server.cache_entries(), 0);
    } else {
        // The ladder can also exhaust outright on a cap this tight.
        assert_eq!(
            status, 503,
            "expected degraded 200 or exhausted 503: {response}"
        );
    }
    server.shutdown();
}
