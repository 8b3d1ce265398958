//! Multi-tenant rule-serving HTTP API for IRMA.
//!
//! `irma-serve` turns the batch pipeline into a long-lived service:
//! `POST /v1/analyze` accepts a CSV body (or an `fp:<fingerprint>`
//! replay token) and returns mined association rules as JSON;
//! `GET /v1/explain/{rule}` answers "why did this rule survive pruning",
//! recomputed from the cached analysis; `GET /metrics` and `GET /healthz`
//! expose the runtime counters from `irma-obs`.
//!
//! The crate also owns the workspace's only HTTP code: [`http`] holds the
//! request framing and the route-agnostic [`http::Transport`] that both
//! `irma serve` ([`Server`]) and `irma watch --listen` run on.
//!
//! The robustness story reuses the fault-tolerance machinery the CLI
//! already has, mapped onto HTTP:
//!
//! - **Admission** — per-tenant token bucket plus a consecutive-failure
//!   circuit breaker ([`admission`]). Over-rate or cooling-down tenants
//!   get `429` with `Retry-After`; they never reach the miner.
//! - **Bounded queue** — the transport feeds accepted sockets to a fixed
//!   worker pool through a bounded queue. When it fills, connections are
//!   answered `503` by a capped pool of short-lived rejector threads;
//!   past that cap they are dropped. Load never spawns unbounded threads.
//! - **Budgets** — every analysis runs under an [`irma_core::ExecBudget`]
//!   with a deadline from the client's `x-irma-timeout-ms` header
//!   (clamped to a server maximum). The degradation ladder applies:
//!   a degraded success is `200` with `degraded:true`, mirroring CLI
//!   exit code 4; exhaustion is `503`/`504`.
//! - **Containment** — each request runs under `catch_unwind`; a
//!   handler panic poisons one response (`500`), never a worker or the
//!   server.
//! - **Caching** — full-fidelity results are cached in an LRU keyed by
//!   *(dataset fingerprint, normalized config)* ([`cache`]), which also
//!   backs the explain endpoint.
//! - **Shutdown** — [`Server::shutdown`] stops accepting, lets workers
//!   drain queued connections, and joins every thread.

#![warn(missing_docs)]

use std::collections::HashMap;
use std::net::ToSocketAddrs;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use irma_core::ExecBudget;
use irma_obs::Metrics;

pub mod admission;
mod api;
pub mod cache;
pub mod http;

pub use admission::{AdmissionConfig, Admit, TenantState};
pub use cache::{CacheEntry, ResultCache};

use crate::http::{Limits, Load, Transport};

/// Content type for `GET /metrics` (OpenMetrics text format).
pub const OPENMETRICS_CONTENT_TYPE: &str =
    "application/openmetrics-text; version=1.0.0; charset=utf-8";

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Transport limits: HTTP worker threads (each runs one request at a
    /// time; the mining inside a request still uses the work-stealing
    /// pool), bounded queue depth (503 beyond it) and the socket
    /// read/write timeout.
    pub limits: Limits,
    /// Largest accepted request body, in bytes (413 past this).
    pub max_body_bytes: usize,
    /// Per-tenant rate limiting and circuit-breaker knobs.
    pub admission: AdmissionConfig,
    /// Result-cache capacity (entries).
    pub cache_entries: usize,
    /// Baseline budget applied to every analysis (deadline is replaced
    /// per-request).
    pub default_budget: ExecBudget,
    /// Deadline when the client sends no `x-irma-timeout-ms` header.
    pub default_deadline: Duration,
    /// Hard cap on client-requested deadlines.
    pub max_deadline: Duration,
    /// Honor the `panic_after` chaos query parameter. Test harnesses
    /// only; keep `false` in production.
    pub allow_fault_injection: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            limits: Limits::default(),
            max_body_bytes: 4 * 1024 * 1024,
            admission: AdmissionConfig::default(),
            cache_entries: 64,
            default_budget: ExecBudget::default(),
            default_deadline: Duration::from_secs(5),
            max_deadline: Duration::from_secs(30),
            allow_fault_injection: false,
        }
    }
}

/// State the analyze handlers share across worker threads.
pub(crate) struct Shared {
    pub(crate) config: ServeConfig,
    pub(crate) metrics: Metrics,
    pub(crate) load: Arc<Load>,
    pub(crate) tenants: Mutex<HashMap<String, TenantState>>,
    pub(crate) cache: Mutex<ResultCache>,
    pub(crate) started: Instant,
}

impl Shared {
    /// Runs the tenant's admission check, creating state on first sight.
    pub(crate) fn admit(&self, tenant: &str) -> Admit {
        let now = Instant::now();
        let Ok(mut tenants) = self.tenants.lock() else {
            return Admit::Ok;
        };
        let state = tenants
            .entry(tenant.to_string())
            .or_insert_with(|| TenantState::new(&self.config.admission, now));
        state.admit(&self.config.admission, now)
    }

    /// Feeds a request outcome back into the tenant's circuit breaker.
    pub(crate) fn record_outcome(&self, tenant: &str, server_failure: bool) {
        let now = Instant::now();
        if let Ok(mut tenants) = self.tenants.lock() {
            if let Some(state) = tenants.get_mut(tenant) {
                state.record_outcome(server_failure, &self.config.admission, now);
            }
        }
    }

    /// Refreshes the point-in-time gauges before a metrics scrape.
    pub(crate) fn refresh_gauges(&self) {
        self.load.record_gauges(&self.metrics);
        self.metrics.gauge(
            "serve.cache_entries",
            self.cache.lock().map(|c| c.len()).unwrap_or(0) as f64,
        );
        self.metrics
            .gauge("serve.uptime_seconds", self.started.elapsed().as_secs_f64());
    }
}

/// The running analysis service: the analyze handlers on an
/// [`http::Transport`]. Dropping it (or calling [`Server::shutdown`])
/// stops the accept loop, drains queued connections, and joins every
/// thread.
pub struct Server {
    transport: Transport,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds `addr` and starts the accept loop plus the worker pool.
    /// Pass port 0 to bind an ephemeral port; read it back with
    /// [`Server::local_addr`]. Fails if binding fails or a thread cannot
    /// be spawned.
    pub fn start<A: ToSocketAddrs>(
        addr: A,
        config: ServeConfig,
        metrics: Metrics,
    ) -> std::io::Result<Server> {
        let load = Arc::new(Load::default());
        let limits = config.limits;
        let shared = Arc::new(Shared {
            cache: Mutex::new(ResultCache::new(config.cache_entries)),
            config,
            metrics: metrics.clone(),
            load: Arc::clone(&load),
            tenants: Mutex::new(HashMap::new()),
            started: Instant::now(),
        });
        let app = Arc::clone(&shared);
        let transport = Transport::start(addr, limits, metrics, load, move |head, body| {
            api::route(&app, head, body)
        })?;
        Ok(Server { transport, shared })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.transport.local_addr()
    }

    /// Connections currently queued or being handled.
    pub fn active_connections(&self) -> usize {
        self.shared.load.active()
    }

    /// Entries currently held by the result cache.
    pub fn cache_entries(&self) -> usize {
        self.shared.cache.lock().map(|c| c.len()).unwrap_or(0)
    }

    /// Stops accepting, drains queued connections, joins all threads.
    pub fn shutdown(self) {
        self.transport.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::json_escape;
    use irma_core::AnalysisConfig;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    /// Suppresses the backtrace spray from deliberately injected panics
    /// (the `panic_after` chaos path) without hiding real failures.
    fn quiet_panics() {
        use std::sync::Once;
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

    fn start_test_server(config: ServeConfig) -> Server {
        Server::start("127.0.0.1:0", config, Metrics::enabled()).expect("bind test server")
    }

    fn send_request(addr: std::net::SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(request.as_bytes()).expect("write request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        response
    }

    fn post_analyze(addr: std::net::SocketAddr, query: &str, headers: &str, body: &str) -> String {
        send_request(
            addr,
            &format!(
                "POST /v1/analyze{query} HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n{headers}\r\n{body}",
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

    const CSV: &str = "gpu_util,state\n0,Failed\n0,Failed\n0,Failed\n95,Succeeded\n90,Succeeded\n92,Succeeded\n0,Failed\n91,Succeeded\n";

    #[test]
    fn healthz_and_metrics_respond() {
        let server = start_test_server(ServeConfig::default());
        let addr = server.local_addr();
        let health = send_request(addr, "GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n");
        assert!(health.starts_with("HTTP/1.1 200"), "got: {health}");
        assert!(health.contains("\"status\":\"ok\""));
        let metrics = send_request(addr, "GET /metrics HTTP/1.1\r\nhost: t\r\n\r\n");
        assert!(metrics.starts_with("HTTP/1.1 200"));
        assert!(metrics.contains("application/openmetrics-text"));
        assert!(metrics.contains("# EOF"));
        server.shutdown();
    }

    #[test]
    fn analyze_mines_rules_then_serves_from_cache() {
        let server = start_test_server(ServeConfig::default());
        let addr = server.local_addr();
        let cold = post_analyze(addr, "?min_support=0.2", "", CSV);
        assert!(cold.starts_with("HTTP/1.1 200"), "got: {cold}");
        assert!(cold.contains("\"cached\":false"));
        assert!(cold.contains("\"degraded\":false"));
        assert!(cold.contains("\"fingerprint\":\""));
        let warm = post_analyze(addr, "?min_support=0.2", "", CSV);
        assert!(warm.contains("\"cached\":true"), "got: {warm}");
        // A different config key misses the cache.
        let other = post_analyze(addr, "?min_support=0.3", "", CSV);
        assert!(other.contains("\"cached\":false"));
        assert_eq!(server.cache_entries(), 2);
        server.shutdown();
    }

    #[test]
    fn fingerprint_replay_and_explain_work_from_cache() {
        let server = start_test_server(ServeConfig::default());
        let addr = server.local_addr();
        let cold = post_analyze(addr, "?min_support=0.2", "", CSV);
        let fp = cold
            .split("\"fingerprint\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .expect("fingerprint in response")
            .to_string();
        // Replay by fingerprint instead of re-uploading the CSV.
        let replay = post_analyze(addr, "?min_support=0.2", "", &format!("fp:{fp}"));
        assert!(replay.contains("\"cached\":true"), "got: {replay}");
        // Unknown fingerprint is a clean 404.
        let miss = post_analyze(addr, "?min_support=0.2", "", "fp:0000000000000000");
        assert_eq!(status_of(&miss), 404);
        // Explain a rule that the analysis actually produced.
        let spec = cold
            .split("\"spec\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .expect("at least one rule in response")
            .to_string();
        let encoded: String = spec
            .chars()
            .map(|c| match c {
                ' ' => "%20".to_string(),
                '=' => "%3D".to_string(),
                '>' => "%3E".to_string(),
                ',' => "%2C".to_string(),
                c => c.to_string(),
            })
            .collect();
        let explain = send_request(
            addr,
            &format!("GET /v1/explain/{encoded}?fp={fp} HTTP/1.1\r\nhost: t\r\n\r\n"),
        );
        assert!(explain.starts_with("HTTP/1.1 200"), "got: {explain}");
        assert!(explain.contains("\"explanation\":\""));
        // A made-up rule over cached data is 404, not 500.
        let bogus = send_request(
            addr,
            &format!(
                "GET /v1/explain/nope%20%3D%3E%20also_nope?fp={fp} HTTP/1.1\r\nhost: t\r\n\r\n"
            ),
        );
        assert_eq!(status_of(&bogus), 404);
        server.shutdown();
    }

    /// A merged PAI trace as one CSV body.
    fn pai_csv(jobs: usize) -> String {
        let bundle = irma_core::Trace::Pai.generate(&irma_synth::TraceConfig::with_jobs(jobs));
        irma_data::write_csv_string(&bundle.merged())
    }

    /// The `"key":<number>` value of a JSON response.
    fn json_count(response: &str, key: &str) -> usize {
        response
            .split(&format!("\"{key}\":"))
            .nth(1)
            .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
            .and_then(|digits| digits.parse().ok())
            .unwrap_or_else(|| panic!("`{key}` in response: {response}"))
    }

    #[test]
    fn trace_spec_is_part_of_the_cache_key() {
        let csv = pai_csv(2_000);
        let frame = irma_data::read_csv_str(&csv).unwrap();
        let pai_items = irma_prep::encode(&frame, &irma_core::pai_spec(), &Metrics::disabled())
            .catalog
            .len();
        let server = start_test_server(ServeConfig::default());
        let addr = server.local_addr();
        let inferred = post_analyze(addr, "?min_support=0.1&top=5", "", &csv);
        assert!(inferred.contains("\"cached\":false"), "got: {inferred}");
        assert_ne!(json_count(&inferred, "items"), pai_items);
        // Only `trace=` differs: a different encoder spec, so a miss.
        let pai = post_analyze(addr, "?min_support=0.1&top=5&trace=pai", "", &csv);
        assert!(pai.contains("\"cached\":false"), "got: {pai}");
        assert_eq!(json_count(&pai, "items"), pai_items);
        assert_eq!(server.cache_entries(), 2);
        server.shutdown();
    }

    #[test]
    fn explain_resolves_to_the_entry_last_served() {
        let csv = pai_csv(2_000);
        let server = start_test_server(ServeConfig::default());
        let addr = server.local_addr();
        let pai_query = format!("?trace=pai&keyword={}", encode_spec(irma_core::KW_FAILED));
        let cold = post_analyze(addr, &pai_query, "", &csv);
        assert!(cold.contains("\"cached\":false"), "got: {cold}");
        let inferred = post_analyze(addr, "", "", &csv);
        assert!(inferred.contains("\"cached\":false"), "got: {inferred}");
        let hit = post_analyze(addr, &pai_query, "", &csv);
        assert!(hit.contains("\"cached\":true"), "got: {hit}");
        let fp = hit
            .split("\"fingerprint\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .expect("fingerprint in response");
        let specs: Vec<&str> = hit
            .split("\"spec\":\"")
            .skip(1)
            .filter_map(|rest| rest.split('"').next())
            .collect();
        assert!(!specs.is_empty(), "got: {hit}");
        for spec in specs {
            let explain = send_request(
                addr,
                &format!(
                    "GET /v1/explain/{}?fp={fp} HTTP/1.1\r\nhost: t\r\n\r\n",
                    encode_spec(spec)
                ),
            );
            assert_eq!(status_of(&explain), 200, "{spec}: {explain}");
        }
        server.shutdown();
    }

    /// Percent-encodes a rule spec for the explain route.
    fn encode_spec(spec: &str) -> String {
        spec.bytes()
            .map(|b| match b {
                b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' => (b as char).to_string(),
                _ => format!("%{b:02X}"),
            })
            .collect()
    }

    /// A small mixed dataset: failures cluster on low GPU use and one
    /// queue, so there are rules with and without the keyword, and
    /// candidates the lift floor drops.
    fn explain_csv() -> String {
        let mut csv = String::from("gpu_util,queue,state\n");
        for i in 0..60u32 {
            let failed = i % 3 == 0 || i % 7 == 0;
            let gpu = if failed { i % 20 } else { 40 + (i * 13) % 60 };
            let queue = ["a", "b", "c"][((i / 2 + u32::from(failed)) % 3) as usize];
            let state = if failed { "Failed" } else { "Succeeded" };
            csv.push_str(&format!("{gpu},{queue},{state}\n"));
        }
        csv
    }

    #[test]
    fn explain_matches_the_in_process_render() {
        let csv = explain_csv();
        let frame = irma_data::read_csv_str(&csv).unwrap();
        let mut config = AnalysisConfig::default();
        config.miner.min_support = 0.1;
        let analysis =
            irma_core::try_analyze(&frame, &crate::api::infer_spec(&frame), &config).unwrap();
        let catalog = &analysis.encoded.catalog;
        let labeler = |id: u32| catalog.label(id).to_string();
        let keyword = catalog
            .labels()
            .iter()
            .find(|label| label.contains("Failed"))
            .expect("a Failed item")
            .clone();
        let keyword_id = catalog.id(&keyword).unwrap();
        let run = analysis
            .keyword_traced(
                &keyword,
                &Metrics::disabled(),
                &irma_core::Provenance::enabled(),
            )
            .unwrap();
        let spec = |ante: &[u32], cons: &[u32]| {
            let side = |ids: &[u32]| {
                ids.iter()
                    .map(|&id| labeler(id))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            format!("{} => {}", side(ante), side(cons))
        };
        // A candidate the lift floor dropped, and a generated rule that
        // does not mention the keyword.
        let frequent = &analysis.frequent;
        let filtered = frequent
            .iter()
            .filter(|(set, _)| set.len() >= 2)
            .flat_map(|(set, _)| {
                set.proper_subsets()
                    .into_iter()
                    .map(move |ante| (set.difference(&ante), ante))
            })
            .find(|(cons, ante)| analysis.find_rule(ante.items(), cons.items()).is_none())
            .map(|(cons, ante)| (ante.items().to_vec(), cons.items().to_vec()))
            .expect("a filtered candidate");
        let outside = analysis
            .rules
            .iter()
            .find(|rule| !rule.contains(keyword_id))
            .map(|rule| {
                (
                    rule.antecedent.items().to_vec(),
                    rule.consequent.items().to_vec(),
                )
            })
            .expect("a rule without the keyword");

        let server = start_test_server(ServeConfig::default());
        let addr = server.local_addr();
        let explain_over = |fp: &str, (ante, cons): &(Vec<u32>, Vec<u32>)| {
            let path = encode_spec(&spec(ante, cons));
            send_request(
                addr,
                &format!("GET /v1/explain/{path}?fp={fp} HTTP/1.1\r\nhost: t\r\n\r\n"),
            )
        };
        let fingerprint = |response: &str| {
            response
                .split("\"fingerprint\":\"")
                .nth(1)
                .and_then(|rest| rest.split('"').next())
                .expect("fingerprint in response")
                .to_string()
        };
        let in_process = |explainer: &irma_rules::Explainer,
                          (ante, cons): &(Vec<u32>, Vec<u32>)| {
            let text = explainer
                .explain(ante, cons, &labeler, &Metrics::disabled())
                .expect("a candidate is explainable");
            format!("\"explanation\":\"{}\"", json_escape(&text))
        };

        let query = format!("?min_support=0.1&keyword={}", encode_spec(&keyword));
        let cold = post_analyze(addr, &query, "", &csv);
        assert!(cold.starts_with("HTTP/1.1 200"), "got: {cold}");
        let fp = fingerprint(&cold);
        let with_keyword = analysis.explainer(run.outcome.log.as_ref());
        let response = explain_over(&fp, &filtered);
        assert_eq!(status_of(&response), 200, "got: {response}");
        assert!(response.contains("\"metrics\":null"), "got: {response}");
        assert!(response.contains("generation: dropped"), "got: {response}");
        assert!(
            response.contains(&in_process(&with_keyword, &filtered)),
            "got: {response}"
        );
        let response = explain_over(&fp, &outside);
        assert_eq!(status_of(&response), 200, "got: {response}");
        assert!(
            response.contains("not part of this keyword analysis"),
            "got: {response}"
        );
        assert!(
            response.contains(&in_process(&with_keyword, &outside)),
            "got: {response}"
        );

        // Without `keyword=` the cache entry holds no prune log: even a
        // keyword rule is explained from generation alone.
        let kept = run.causes.first().expect("a kept cause");
        let kept = (
            kept.antecedent.items().to_vec(),
            kept.consequent.items().to_vec(),
        );
        let cold = post_analyze(addr, "?min_support=0.1", "", &csv);
        assert!(cold.contains("\"cached\":false"), "got: {cold}");
        let response = explain_over(&fingerprint(&cold), &kept);
        assert_eq!(status_of(&response), 200, "got: {response}");
        assert!(
            response.contains("not part of this keyword analysis"),
            "got: {response}"
        );
        assert!(
            response.contains(&in_process(&analysis.explainer(None), &kept)),
            "got: {response}"
        );
        server.shutdown();
    }

    #[test]
    fn malformed_requests_get_typed_errors() {
        let server = start_test_server(ServeConfig {
            max_body_bytes: 1024,
            ..ServeConfig::default()
        });
        let addr = server.local_addr();
        // Missing Content-Length.
        let no_len = send_request(addr, "POST /v1/analyze HTTP/1.1\r\nhost: t\r\n\r\n");
        assert_eq!(status_of(&no_len), 411);
        // Oversized declared body.
        let big = send_request(
            addr,
            "POST /v1/analyze HTTP/1.1\r\nhost: t\r\ncontent-length: 9999999\r\n\r\n",
        );
        assert_eq!(status_of(&big), 413);
        // Garbage CSV is a 400 from the parse stage.
        let garbage = post_analyze(addr, "", "", "a,b\n1\n2,3,4\n");
        assert_eq!(status_of(&garbage), 400, "got: {garbage}");
        assert!(garbage.contains("\"stage\":"));
        // A malformed knob is caught before any work happens.
        let bad_support = post_analyze(addr, "?min_support=bogus", "", CSV);
        assert_eq!(status_of(&bad_support), 400);
        assert!(
            bad_support.contains("\"stage\":\"serve\""),
            "got: {bad_support}"
        );
        // So is a key no analyze knob answers to, misspelt or retired.
        for (query, key) in [
            ("?min_suport=0.5", "min_suport"),
            ("?algorithm=fpgrowth", "algorithm"),
        ] {
            let unknown = post_analyze(addr, query, "", CSV);
            assert_eq!(status_of(&unknown), 400, "got: {unknown}");
            assert!(unknown.contains("\"stage\":\"serve\""), "got: {unknown}");
            assert!(
                unknown.contains(&format!("unknown query parameter `{key}`")),
                "got: {unknown}"
            );
        }
        let bad_trace = post_analyze(addr, "?trace=helios", "", CSV);
        assert_eq!(status_of(&bad_trace), 400);
        assert!(
            bad_trace.contains("unknown trace `helios` (pai|supercloud|philly)"),
            "got: {bad_trace}"
        );
        // Unknown route and wrong method are typed too.
        let lost = send_request(addr, "GET /nope HTTP/1.1\r\nhost: t\r\n\r\n");
        assert_eq!(status_of(&lost), 404);
        // Every 405 names the allowed method (RFC 9110 §15.5.6).
        let wrong = send_request(addr, "GET /v1/analyze HTTP/1.1\r\nhost: t\r\n\r\n");
        assert_eq!(status_of(&wrong), 405);
        assert!(wrong.contains("\r\nAllow: POST\r\n"), "got: {wrong}");
        for route in ["/v1/explain/a%20%3D%3E%20b", "/healthz", "/metrics"] {
            let wrong = send_request(addr, &format!("DELETE {route} HTTP/1.1\r\nhost: t\r\n\r\n"));
            assert_eq!(status_of(&wrong), 405, "got: {wrong}");
            assert!(wrong.contains("\r\nAllow: GET\r\n"), "got: {wrong}");
        }
        server.shutdown();
    }

    #[test]
    fn zero_deadline_budget_exhausts_with_504() {
        let server = start_test_server(ServeConfig::default());
        let addr = server.local_addr();
        let response = post_analyze(addr, "", "x-irma-timeout-ms: 0\r\n", CSV);
        assert_eq!(status_of(&response), 504, "got: {response}");
        assert!(response.contains("budget exhausted"));
        server.shutdown();
    }

    #[test]
    fn rate_limited_tenant_gets_429_with_retry_after() {
        let server = start_test_server(ServeConfig {
            admission: AdmissionConfig {
                rate_per_sec: 0.5,
                burst: 2.0,
                ..AdmissionConfig::default()
            },
            ..ServeConfig::default()
        });
        let addr = server.local_addr();
        let tenant = "x-irma-tenant: hog\r\n";
        for _ in 0..2 {
            let ok = post_analyze(addr, "?min_support=0.2", tenant, CSV);
            assert_eq!(status_of(&ok), 200);
        }
        let limited = post_analyze(addr, "?min_support=0.2", tenant, CSV);
        assert_eq!(status_of(&limited), 429, "got: {limited}");
        assert!(limited.to_lowercase().contains("retry-after:"));
        // A different tenant is unaffected.
        let other = post_analyze(addr, "?min_support=0.2", "x-irma-tenant: calm\r\n", CSV);
        assert_eq!(status_of(&other), 200);
        server.shutdown();
    }

    #[test]
    fn repeated_server_failures_open_the_tenant_breaker() {
        let server = start_test_server(ServeConfig {
            admission: AdmissionConfig {
                breaker_threshold: 2,
                breaker_cooldown: Duration::from_secs(60),
                ..AdmissionConfig::default()
            },
            ..ServeConfig::default()
        });
        let addr = server.local_addr();
        let tenant = "x-irma-tenant: unlucky\r\nx-irma-timeout-ms: 0\r\n";
        for _ in 0..2 {
            let timed_out = post_analyze(addr, "", tenant, CSV);
            assert_eq!(status_of(&timed_out), 504);
        }
        // Third request trips the breaker before any mining happens.
        let shed = post_analyze(addr, "", tenant, CSV);
        assert_eq!(status_of(&shed), 429, "got: {shed}");
        assert!(shed.contains("cooling down"));
        // Healthy tenants keep working while the breaker is open.
        let healthy = post_analyze(addr, "?min_support=0.2", "x-irma-tenant: fine\r\n", CSV);
        assert_eq!(status_of(&healthy), 200);
        server.shutdown();
    }

    #[test]
    fn worker_panic_is_contained_to_one_response() {
        quiet_panics();
        let server = start_test_server(ServeConfig {
            allow_fault_injection: true,
            ..ServeConfig::default()
        });
        let addr = server.local_addr();
        let hit = post_analyze(addr, "?panic_after=1&min_support=0.2", "", CSV);
        assert_eq!(status_of(&hit), 500, "got: {hit}");
        // The worker that absorbed the panic still serves the next one.
        let next = post_analyze(addr, "?min_support=0.2", "", CSV);
        assert_eq!(status_of(&next), 200, "got: {next}");
        assert_eq!(server.active_connections(), 0);
        server.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_connections() {
        let server = start_test_server(ServeConfig::default());
        let addr = server.local_addr();
        // Park a request, then shut down; the drain must answer it.
        let handle = std::thread::spawn(move || {
            send_request(addr, "GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n")
        });
        std::thread::sleep(Duration::from_millis(50));
        server.shutdown();
        let response = handle.join().expect("client thread");
        assert!(response.starts_with("HTTP/1.1 200"), "got: {response}");
    }

    #[test]
    fn oversized_head_gets_431_through_the_full_stack() {
        let server = start_test_server(ServeConfig::default());
        let addr = server.local_addr();
        let padding = "x".repeat(10 * 1024);
        let response = send_request(
            addr,
            &format!("GET /healthz HTTP/1.1\r\nhost: t\r\nx-pad: {padding}\r\n\r\n"),
        );
        assert!(response.starts_with("HTTP/1.1 431"), "got: {response}");
        server.shutdown();
    }
}
