//! `serve_mix`: `irma serve` under one closed-loop client. Each round
//! starts a server with `ServeConfig::default()` and runs a fixed script
//! over `BODIES` distinct request bodies: per body one cold
//! `POST /v1/analyze`, then `HITS` cache-hit re-posts and one
//! `GET /v1/explain` per returned rule, in seeded order.
//!
//! A cold entry holds the whole analysis plus its provenance (about
//! 125 MB at this size), so a round keeps `BODIES` well below the
//! 64-entry cache and a fresh server per round starts from an empty
//! cache: every round caches the same entries and peak heap repeats.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use irma_core::{pai_spec, try_analyze, Analysis, AnalysisConfig};
use irma_data::{read_csv_str, write_csv_string};
use irma_mine::ItemCatalog;
use irma_obs::Metrics;
use irma_rules::Rule;
use irma_serve::{ServeConfig, Server};
use irma_synth::{pai, TraceConfig};

use crate::alloc::{Attribution, Layer};
use crate::child::{
    self, info, op_fail, op_ok, op_wrong, sample, sample_ms, sample_secs, Digest, Plan, Rng,
};
use crate::trace::{emit_heap, emit_prunes, traced_metrics, Sched, Stages};

pub const JOBS: usize = 20_000;
/// Distinct bodies per round: row permutations of one trace.
const BODIES: usize = 3;
/// Cache-hit re-posts per body.
const HITS: usize = 4;
/// Tenants the requests rotate over. Each sees at most one request in
/// `TENANTS`, far below the default 20 requests/s bucket.
const TENANTS: usize = 16;
const ANALYZE: &str = "/v1/analyze?trace=pai&keyword=Failed";
/// Rules per list in the payload (the server's default `top`).
const TOP: usize = 10;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Cold,
    Hit,
    Explain,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Cold => "cold",
            Kind::Hit => "hit",
            Kind::Explain => "explain",
        }
    }
}

/// One response, with the client-side phases of its request: connect,
/// send, wait for the first response byte, read the rest.
struct Reply {
    status: u16,
    body: String,
    phases: [Duration; 4],
}

impl Reply {
    fn total(&self) -> Duration {
        self.phases.iter().sum()
    }
}

fn request(addr: SocketAddr, head: &str, body: &[u8]) -> std::io::Result<Reply> {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let connected = Instant::now();
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;
    let sent = Instant::now();
    let mut response = Vec::with_capacity(64 * 1024);
    let mut chunk = [0u8; 64 * 1024];
    let first = stream.read(&mut chunk)?;
    let waited = Instant::now();
    response.extend_from_slice(&chunk[..first]);
    stream.read_to_end(&mut response)?;
    let done = Instant::now();

    let text = String::from_utf8_lossy(&response);
    let status = text
        .split(' ')
        .nth(1)
        .and_then(|code| code.parse().ok())
        .unwrap_or(0);
    let body = text
        .split_once("\r\n\r\n")
        .map_or("", |(_, body)| body)
        .to_string();
    Ok(Reply {
        status,
        body,
        phases: [
            connected - start,
            sent - connected,
            waited - sent,
            done - waited,
        ],
    })
}

fn post_head(tenant: usize, len: usize) -> String {
    format!(
        "POST {ANALYZE} HTTP/1.1\r\nHost: localhost\r\nx-irma-tenant: bench-{}\r\n\
         Content-Length: {len}\r\n\r\n",
        tenant % TENANTS
    )
}

fn explain_head(spec: &str, fingerprint: &str) -> String {
    let encoded: String = spec
        .bytes()
        .map(|b| match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' => (b as char).to_string(),
            _ => format!("%{b:02X}"),
        })
        .collect();
    format!("GET /v1/explain/{encoded}?fp={fingerprint} HTTP/1.1\r\nHost: localhost\r\n\r\n")
}

fn json_field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let start = body.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &body[start..];
    let end = rest.find([',', '}', ']'])?;
    Some(rest[..end].trim_matches('"'))
}

/// Every `"spec":"..."` string in a payload, in order.
fn specs(body: &str) -> Vec<String> {
    body.split("\"spec\":\"")
        .skip(1)
        .filter_map(|rest| rest.find('"').map(|end| rest[..end].replace("\\\\", "\\")))
        .collect()
}

/// The payload as every cold request of any body must return it: the
/// `cached` flag dropped and the body's fingerprint blanked.
fn normalize(body: &str) -> Option<String> {
    let fingerprint = json_field(body, "fingerprint")?;
    let rest = body.split_once(',')?.1;
    Some(rest.replacen(fingerprint, "", 1))
}

fn spec_of(rule: &Rule, catalog: &ItemCatalog) -> String {
    let side = |items: &[u32]| {
        items
            .iter()
            .map(|&id| catalog.label(id))
            .collect::<Vec<_>>()
            .join(", ")
    };
    format!(
        "{} => {}",
        side(rule.antecedent.items()),
        side(rule.consequent.items())
    )
}

/// The strongest `TOP` rules by lift, ties broken by sorted sides: the
/// order the payload lists them in.
fn top_specs(rules: &[Rule], catalog: &ItemCatalog) -> Vec<String> {
    let mut sorted: Vec<&Rule> = rules.iter().collect();
    sorted.sort_by(|a, b| {
        b.lift
            .total_cmp(&a.lift)
            .then_with(|| a.antecedent.items().cmp(b.antecedent.items()))
            .then_with(|| a.consequent.items().cmp(b.consequent.items()))
    });
    sorted
        .iter()
        .take(TOP)
        .map(|r| spec_of(r, catalog))
        .collect()
}

/// What a cold payload must report, from `try_analyze` in process.
fn expected(analysis: &Analysis) -> String {
    let catalog = &analysis.encoded.catalog;
    let causes = analysis.keyword("Failed").map_or(Vec::new(), |k| k.causes);
    format!(
        "jobs={} items={} frequent_itemsets={} rules_total={} specs={:?}",
        analysis.n_jobs(),
        catalog.len(),
        analysis.frequent.len(),
        analysis.rules.len(),
        [
            top_specs(&analysis.rules, catalog),
            top_specs(&causes, catalog)
        ]
        .concat()
    )
}

/// The same summary, read back from a payload.
fn reported(body: &str) -> String {
    format!("{} specs={:?}", reported_counts(body), specs(body))
}

fn reported_counts(body: &str) -> String {
    let field = |key| json_field(body, key).unwrap_or("?");
    format!(
        "jobs={} items={} frequent_itemsets={} rules_total={}",
        field("jobs"),
        field("items"),
        field("frequent_itemsets"),
        field("rules_total"),
    )
}

/// The client side of a script: tenant rotation and request timing.
struct Client {
    addr: SocketAddr,
    tenant: usize,
    traced: bool,
    /// Client-observed totals of the round's cold requests.
    colds: Vec<Duration>,
    /// Sum of every request's client-observed time.
    busy: Duration,
}

impl Client {
    fn send(&mut self, kind: Kind, head: &str, body: &[u8]) -> Option<Reply> {
        let reply = match request(self.addr, head, body) {
            Ok(reply) => reply,
            Err(error) => {
                op_fail(&format!("{} request: {error}", kind.name()));
                return None;
            }
        };
        let total = reply.total();
        self.busy += total;
        if kind == Kind::Cold {
            self.colds.push(total);
        }
        if self.traced {
            for (phase, d) in ["connect", "send", "wait", "recv"].iter().zip(reply.phases) {
                sample_ms(&format!("serve.{}.{phase}_ms", kind.name()), d);
            }
        } else {
            sample_ms(&format!("{}_ms", kind.name()), total);
        }
        if reply.status != 200 {
            op_fail(&format!("{} answered {}", kind.name(), reply.status));
            return None;
        }
        Some(reply)
    }

    fn post(&mut self, kind: Kind, body: &str) -> Option<Reply> {
        self.tenant += 1;
        self.send(kind, &post_head(self.tenant, body.len()), body.as_bytes())
    }
}

enum Step {
    Hit,
    Explain(String),
}

/// Each listed rule once, sorted.
fn unique(mut specs: Vec<String>) -> Vec<String> {
    specs.sort();
    specs.dedup();
    specs
}

/// Runs the script for one body, reporting every request as an
/// operation. `expected` is the body's in-process analysis summary.
fn run_body(client: &mut Client, body: &str, expected: &str, rng: &mut Rng) {
    let Some(cold) = client.post(Kind::Cold, body) else {
        return;
    };
    let payload = normalize(&cold.body);
    if !cold.body.starts_with("{\"cached\":false,") || reported(&cold.body) != expected {
        return op_wrong("cold payload differs from the in-process analysis");
    }
    op_ok();
    let fingerprint = json_field(&cold.body, "fingerprint")
        .unwrap_or("")
        .to_string();
    let mut steps: Vec<Step> = (0..HITS).map(|_| Step::Hit).collect();
    steps.extend(unique(specs(&cold.body)).into_iter().map(Step::Explain));
    rng.shuffle(&mut steps);
    for step in steps {
        match step {
            Step::Hit => {
                let Some(hit) = client.post(Kind::Hit, body) else {
                    continue;
                };
                if hit.body.starts_with("{\"cached\":true,") && normalize(&hit.body) == payload {
                    op_ok();
                } else {
                    op_wrong("cache hit differs from the cold payload");
                }
            }
            Step::Explain(spec) => {
                let head = explain_head(&spec, &fingerprint);
                let Some(explain) = client.send(Kind::Explain, &head, &[]) else {
                    continue;
                };
                if explain.body.contains("\"metrics\":{") {
                    op_ok();
                } else {
                    op_wrong(&format!("explain of `{spec}` has no rule metrics"));
                }
            }
        }
    }
}

fn start(metrics: Metrics) -> Server {
    Server::start("127.0.0.1:0", ServeConfig::default(), metrics).expect("binding a local port")
}

pub fn run(plan: &Plan) {
    let seed = plan.seed;
    let (bodies, warm) = child::setup(plan, || {
        let merged = pai(&TraceConfig::with_jobs(JOBS).seeded(child::DATA_SEED)).merged();
        let mut rng = Rng::new(seed);
        let bodies: Vec<String> = (0..BODIES)
            .map(|_| write_csv_string(&merged.take(&rng.permutation(JOBS))))
            .collect();
        let server = start(Metrics::disabled());
        let warm = request(
            server.local_addr(),
            &post_head(0, bodies[0].len()),
            bodies[0].as_bytes(),
        )
        .expect("warm-up request");
        server.shutdown();
        (bodies, warm.body)
    });

    // Reference: each body analysed in process; the warm-up answer must
    // match the first.
    let expected: Vec<String> = bodies
        .iter()
        .map(|body| {
            let frame = read_csv_str(body).expect("parsing a generated body");
            let analysis = try_analyze(&frame, &pai_spec(), &AnalysisConfig::default())
                .expect("in-process analysis");
            expected(&analysis)
        })
        .collect();
    assert_eq!(
        reported(&warm),
        expected[0],
        "server and in-process analysis differ"
    );
    let mut listed = specs(&warm);
    let n_explain = unique(listed.clone()).len();
    listed.sort();
    let mut digest = Digest::new();
    digest.add(listed.join("\n").as_bytes());
    info(&format!(
        "reference {} listed_rules={} | body={} bytes, requests per round={}",
        reported_counts(&warm),
        digest.hex(),
        bodies[0].len(),
        BODIES * (1 + HITS + n_explain)
    ));

    let mut rng = Rng::new(seed ^ 0x5e7e);
    child::measure(plan, 3, |_, traced| {
        let attribution = traced.then(Attribution::new);
        let metrics = attribution
            .as_ref()
            .map_or_else(Metrics::disabled, traced_metrics);
        let sched = Sched::now();
        let round = Instant::now();
        let serve_span = attribution.as_ref().map(|a| a.open(Layer::Serve));
        let server = start(metrics.clone());
        let mut client = Client {
            addr: server.local_addr(),
            tenant: 0,
            traced,
            colds: Vec::new(),
            busy: Duration::ZERO,
        };
        for b in rng.permutation(BODIES) {
            run_body(&mut client, &bodies[b], &expected[b], &mut rng);
        }
        server.shutdown();
        if let (Some(a), Some(id)) = (&attribution, serve_span) {
            a.close(id);
        }
        let wall = round.elapsed();

        if !traced {
            sample_secs("round_s", wall);
            return;
        }
        sample_secs("traced.round_s", wall);
        let snapshot = metrics.snapshot();
        let counter = |prefix: &str| {
            snapshot
                .counters
                .iter()
                .filter(|(name, _)| name.starts_with(prefix))
                .map(|(_, n)| *n)
                .sum::<u64>() as f64
        };
        sample("serve.cache_hits", counter("serve.cache_hits"));
        sample("serve.cache_misses", counter("serve.cache_misses"));
        sample("serve.rejected", counter("serve.rejected"));
        let stages = Stages(snapshot.stages);
        let prunes = stages.prunes();
        for ((analyze, prune), cold) in stages.analyses().iter().zip(&prunes).zip(&client.colds) {
            analyze.emit();
            let pipeline = analyze.wall + prune.0;
            sample_secs("serve.cold.pipeline_s", pipeline);
            sample_secs("serve.cold.other_s", cold.saturating_sub(pipeline));
        }
        emit_prunes(&prunes);
        sample(
            "coverage_pct",
            100.0 * client.busy.as_secs_f64() / wall.as_secs_f64(),
        );
        emit_heap(attribution.as_ref().expect("traced round"));
        sched.emit_since();
    });
}
