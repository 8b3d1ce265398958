//! Request routing and the analyze/explain handlers.
//!
//! Every [`PipelineError`] maps to a documented status (the table lives
//! in DESIGN.md §11 and must stay in sync with [`status_for`]):
//!
//! | error | status |
//! |---|---|
//! | `Parse` | 400 |
//! | `Mine` (invalid miner config) | 400 |
//! | `Encode` | 422 |
//! | `BudgetExceeded` (deadline) | 504 |
//! | `BudgetExceeded` (other) | 503 + `Retry-After` |
//! | `Mine` (contained panic) | 500 |
//! | `Rules` / `WorkerPanic` | 500 |
//!
//! A degraded-but-successful analysis is **200** with `degraded:true`
//! and the full `Degradation` record — the HTTP mirror of CLI exit
//! code 4.

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use irma_core::{
    config_cache_key, dataset_fingerprint, pai_spec, philly_spec, supercloud_spec,
    try_analyze_traced, Analysis, AnalysisConfig, BudgetBreach, PipelineError, Provenance,
};
use irma_data::DType;
use irma_mine::Algorithm;
use irma_obs::serve::{read_head, write_response, write_too_large, HeadError, RequestHead};
use irma_prep::{EncoderSpec, FeatureSpec};
use irma_rules::Rule;

use crate::admission::Admit;
use crate::cache::CacheEntry;
use crate::http::{json_error, json_escape, parse_query, percent_decode, query_get, read_body};
use crate::{Shared, OPENMETRICS_CONTENT_TYPE};

/// One computed response, ready to write.
struct Reply {
    status: u16,
    reason: &'static str,
    content_type: &'static str,
    retry_after: Option<u64>,
    body: String,
}

impl Reply {
    fn json(status: u16, reason: &'static str, body: String) -> Reply {
        Reply {
            status,
            reason,
            content_type: "application/json",
            retry_after: None,
            body,
        }
    }

    fn error(status: u16, reason: &'static str, message: &str, stage: &str) -> Reply {
        Reply::json(status, reason, json_error(message, stage))
    }

    fn with_retry_after(mut self, secs: u64) -> Reply {
        self.retry_after = Some(secs);
        self
    }
}

/// Serves one connection end to end: head, route, body, response.
/// Called on an HTTP worker thread; the caller wraps it in
/// `catch_unwind` so a handler panic costs this response, not the
/// worker.
pub(crate) fn handle(shared: &Shared, stream: &mut TcpStream) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let head = match read_head(&mut reader) {
        Ok(head) => head,
        Err(HeadError::TooLarge) => {
            shared.metrics.incr("serve.rejected_head", 1);
            write_too_large(stream);
            return;
        }
        Err(HeadError::Closed) => {
            shared.metrics.incr("serve.dropped_connections", 1);
            return;
        }
    };
    shared.metrics.incr("serve.requests", 1);
    let reply = route(shared, &head, &mut reader);
    let Some(reply) = reply else {
        // Mid-body disconnect or stall: nobody left to answer.
        shared.metrics.incr("serve.dropped_connections", 1);
        return;
    };
    let class = match reply.status {
        200..=299 => "serve.responses_2xx",
        400..=499 => "serve.responses_4xx",
        _ => "serve.responses_5xx",
    };
    shared.metrics.incr(class, 1);
    let retry = reply
        .retry_after
        .map(|secs| [("Retry-After", secs.to_string())]);
    write_response(
        stream,
        reply.status,
        reply.reason,
        reply.content_type,
        retry.as_ref().map_or(&[][..], |h| &h[..]),
        &reply.body,
    );
}

/// Maps `(method, path)` to a handler. `None` from a handler means the
/// connection died mid-request and must be dropped without a response.
fn route<R: BufRead>(shared: &Shared, head: &RequestHead, reader: &mut R) -> Option<Reply> {
    let path = head.route().to_string();
    match (head.method.as_str(), path.as_str()) {
        ("GET", "/healthz") => Some(handle_healthz(shared)),
        ("GET", "/metrics") => Some(handle_metrics(shared)),
        ("POST", "/v1/analyze") => handle_analyze(shared, head, reader),
        (_, "/v1/analyze") => Some(Reply::error(
            405,
            "Method Not Allowed",
            "analyze is POST-only",
            "serve",
        )),
        ("GET", p) if p.starts_with("/v1/explain/") => Some(handle_explain(shared, head)),
        (_, p) if p.starts_with("/v1/explain/") || p == "/healthz" || p == "/metrics" => Some(
            Reply::error(405, "Method Not Allowed", "use GET for this route", "serve"),
        ),
        _ => Some(Reply::error(404, "Not Found", "unknown route", "serve")),
    }
}

fn handle_healthz(shared: &Shared) -> Reply {
    let body = format!(
        "{{\"status\":\"ok\",\"uptime_seconds\":{:.3},\"active_connections\":{},\"queue_depth\":{},\"cache_entries\":{},\"degraded\":{}}}\n",
        shared.started.elapsed().as_secs_f64(),
        shared.active.load(std::sync::atomic::Ordering::Acquire),
        shared.queue.lock().map(|q| q.len()).unwrap_or(0),
        shared.cache.lock().map(|c| c.len()).unwrap_or(0),
        shared.metrics.is_degraded(),
    );
    Reply::json(200, "OK", body)
}

fn handle_metrics(shared: &Shared) -> Reply {
    shared.refresh_gauges();
    Reply {
        status: 200,
        reason: "OK",
        content_type: OPENMETRICS_CONTENT_TYPE,
        retry_after: None,
        body: shared.metrics.snapshot().to_openmetrics(),
    }
}

/// Parsed analyze-request knobs (query string + headers).
struct AnalyzeParams {
    config: AnalysisConfig,
    trace: Option<String>,
    keyword: Option<String>,
    top: usize,
}

fn parse_analyze_params(shared: &Shared, head: &RequestHead) -> Result<AnalyzeParams, Reply> {
    let bad = |message: String| Reply::error(400, "Bad Request", &message, "serve");
    let pairs = parse_query(head.query().unwrap_or(""));
    let mut config = AnalysisConfig::default();
    if let Some(name) = query_get(&pairs, "algorithm") {
        config.algorithm = Algorithm::all()
            .into_iter()
            .find(|a| a.name() == name)
            .ok_or_else(|| {
                bad(format!(
                    "unknown algorithm `{name}` (fpgrowth|apriori|eclat)"
                ))
            })?;
    }
    if let Some(raw) = query_get(&pairs, "min_support") {
        let value: f64 = raw
            .parse()
            .map_err(|_| bad(format!("min_support must be a number (got `{raw}`)")))?;
        if !(value > 0.0 && value <= 1.0) {
            return Err(bad(format!("min_support must be in (0, 1] (got {value})")));
        }
        config.miner.min_support = value;
    }
    if let Some(raw) = query_get(&pairs, "max_len") {
        let value: usize = raw
            .parse()
            .map_err(|_| bad(format!("max_len must be a positive integer (got `{raw}`)")))?;
        if value == 0 {
            return Err(bad("max_len must be at least 1".to_string()));
        }
        config.miner.max_len = value;
    }
    if let Some(raw) = query_get(&pairs, "min_lift") {
        config.rules.min_lift = raw
            .parse()
            .map_err(|_| bad(format!("min_lift must be a number (got `{raw}`)")))?;
    }
    if let Some(raw) = query_get(&pairs, "min_confidence") {
        config.rules.min_confidence = raw
            .parse()
            .map_err(|_| bad(format!("min_confidence must be a number (got `{raw}`)")))?;
    }
    let trace = match query_get(&pairs, "trace") {
        Some(name) => {
            if !["pai", "supercloud", "philly"].contains(&name) {
                return Err(bad(format!(
                    "unknown trace `{name}` (pai|supercloud|philly)"
                )));
            }
            Some(name.to_string())
        }
        None => None,
    };
    let keyword = query_get(&pairs, "keyword").map(str::to_string);
    let top = match query_get(&pairs, "top") {
        Some(raw) => raw
            .parse::<usize>()
            .ok()
            .filter(|&t| t >= 1)
            .ok_or_else(|| bad(format!("top must be a positive integer (got `{raw}`)")))?,
        None => 10,
    };

    // Budget: the server's caps plus a deadline from the client's
    // timeout header, clamped to the server maximum.
    config.budget = shared.config.default_budget.clone();
    let deadline = match head.header("x-irma-timeout-ms") {
        Some(raw) => {
            let ms: u64 = raw.parse().map_err(|_| {
                bad(format!(
                    "x-irma-timeout-ms must be milliseconds (got `{raw}`)"
                ))
            })?;
            Duration::from_millis(ms).min(shared.config.max_deadline)
        }
        None => shared.config.default_deadline,
    };
    config.budget.deadline = Some(deadline);
    // Chaos-only: inject a worker panic after N itemset emissions. Only
    // honored when the server was built with fault injection enabled
    // (the chaos harness); production servers ignore the parameter.
    if shared.config.allow_fault_injection {
        if let Some(raw) = query_get(&pairs, "panic_after") {
            config.budget.panic_after_emits = raw.parse().ok();
        }
    }
    Ok(AnalyzeParams {
        config,
        trace,
        keyword,
        top,
    })
}

/// Infers an encoder spec from CSV column types: numeric columns get the
/// paper's 4-bin equal-frequency treatment, everything else is
/// categorical. Good enough for ad-hoc datasets; the `trace` query
/// parameter selects a hand-tuned spec instead.
fn infer_spec(frame: &irma_data::Frame) -> EncoderSpec {
    let features = frame
        .names()
        .iter()
        .zip(frame.columns())
        .map(|(name, column)| match column.dtype() {
            DType::Int | DType::Float => FeatureSpec::numeric(name, name),
            DType::Str | DType::Bool => FeatureSpec::categorical(name, name),
        })
        .collect();
    EncoderSpec::new(features)
}

fn spec_for_trace(trace: &str) -> EncoderSpec {
    match trace {
        "pai" => pai_spec(),
        "supercloud" => supercloud_spec(),
        "philly" => philly_spec(),
        other => unreachable!("trace validated at parse time: {other}"),
    }
}

/// Maps a typed pipeline failure to its documented status.
fn status_for(error: &PipelineError) -> Reply {
    let stage = error.stage();
    match error {
        PipelineError::Parse(message) => Reply::error(400, "Bad Request", message, stage),
        PipelineError::Encode(message) => Reply::error(422, "Unprocessable Entity", message, stage),
        PipelineError::Mine(message) if message.contains("invalid miner config") => {
            Reply::error(400, "Bad Request", message, stage)
        }
        PipelineError::Mine(message) | PipelineError::Rules(message) => {
            Reply::error(500, "Internal Server Error", message, stage)
        }
        PipelineError::BudgetExceeded { breach, attempts } => {
            let message = format!(
                "budget exhausted after {attempts} attempt(s): {breach:?}; \
                 relax thresholds or raise x-irma-timeout-ms"
            );
            match breach {
                BudgetBreach::Deadline { .. } => {
                    Reply::error(504, "Gateway Timeout", &message, stage)
                }
                _ => Reply::error(503, "Service Unavailable", &message, stage).with_retry_after(1),
            }
        }
        PipelineError::WorkerPanic { message, .. } => Reply::error(
            500,
            "Internal Server Error",
            &format!("a mining worker panicked (contained): {message}"),
            stage,
        ),
    }
}

fn handle_analyze<R: BufRead>(
    shared: &Shared,
    head: &RequestHead,
    reader: &mut R,
) -> Option<Reply> {
    // Content-Length is mandatory: the server refuses to guess body
    // boundaries (no chunked encoding in this hand-rolled core).
    let Some(raw_len) = head.header("content-length") else {
        return Some(Reply::error(
            411,
            "Length Required",
            "analyze requires a Content-Length header",
            "serve",
        ));
    };
    let Ok(len) = raw_len.parse::<usize>() else {
        return Some(Reply::error(
            400,
            "Bad Request",
            &format!("invalid Content-Length `{raw_len}`"),
            "serve",
        ));
    };
    if len > shared.config.max_body_bytes {
        return Some(Reply::error(
            413,
            "Content Too Large",
            &format!(
                "body of {len} bytes exceeds the {} byte cap",
                shared.config.max_body_bytes
            ),
            "serve",
        ));
    }
    if len == 0 {
        return Some(Reply::error(
            400,
            "Bad Request",
            "empty body: send CSV text or `fp:<fingerprint>`",
            "serve",
        ));
    }
    let body = match read_body(reader, len) {
        Ok(body) => body,
        Err(_) => return None,
    };
    let Ok(text) = String::from_utf8(body) else {
        return Some(Reply::error(
            400,
            "Bad Request",
            "body is not valid UTF-8",
            "serve",
        ));
    };

    // Admission: tenant identified by header, token bucket + breaker.
    let tenant: String = head
        .header("x-irma-tenant")
        .unwrap_or("anonymous")
        .chars()
        .take(64)
        .collect();
    match shared.admit(&tenant) {
        Admit::Ok => {}
        Admit::RateLimited(secs) => {
            shared.metrics.incr("serve.rejected_rate", 1);
            return Some(
                Reply::error(
                    429,
                    "Too Many Requests",
                    &format!("tenant `{tenant}` is over its request rate"),
                    "serve",
                )
                .with_retry_after(secs),
            );
        }
        Admit::BreakerOpen(secs) => {
            shared.metrics.incr("serve.rejected_breaker", 1);
            return Some(
                Reply::error(
                    429,
                    "Too Many Requests",
                    &format!(
                        "tenant `{tenant}` is cooling down after repeated server-side failures"
                    ),
                    "serve",
                )
                .with_retry_after(secs),
            );
        }
    }

    let params = match parse_analyze_params(shared, head) {
        Ok(params) => params,
        Err(reply) => return Some(reply),
    };
    let config_key = config_cache_key(&params.config, params.keyword.as_deref(), params.top);

    // `fp:<hex>` body: replay a cached dataset without re-uploading.
    let trimmed = text.trim();
    if let Some(fp) = trimmed.strip_prefix("fp:") {
        let fp = fp.trim();
        let hit = shared
            .cache
            .lock()
            .ok()
            .and_then(|mut cache| cache.get(fp, &config_key));
        return Some(match hit {
            Some(entry) => {
                shared.metrics.incr("serve.cache_hits", 1);
                Reply::json(
                    200,
                    "OK",
                    format!("{{\"cached\":true,{}}}\n", entry.payload),
                )
            }
            None => Reply::error(
                404,
                "Not Found",
                &format!("fingerprint `{fp}` is not cached under this config; POST the CSV body"),
                "serve",
            ),
        });
    }

    let fp = dataset_fingerprint(text.as_bytes());
    if let Some(entry) = shared
        .cache
        .lock()
        .ok()
        .and_then(|mut cache| cache.get(&fp, &config_key))
    {
        shared.metrics.incr("serve.cache_hits", 1);
        return Some(Reply::json(
            200,
            "OK",
            format!("{{\"cached\":true,{}}}\n", entry.payload),
        ));
    }
    shared.metrics.incr("serve.cache_misses", 1);

    // Cold path: parse, pick a spec, mine under the tenant's budget.
    let reply = run_analysis(shared, &text, &fp, &params, &config_key);
    shared.record_outcome(&tenant, reply.status >= 500);
    Some(reply)
}

fn run_analysis(
    shared: &Shared,
    csv: &str,
    fp: &str,
    params: &AnalyzeParams,
    config_key: &str,
) -> Reply {
    let frame = match irma_data::read_csv_str(csv) {
        Ok(frame) => frame,
        Err(error) => {
            return status_for(&PipelineError::Parse(error.to_string()));
        }
    };
    let spec = match &params.trace {
        Some(trace) => spec_for_trace(trace),
        None => infer_spec(&frame),
    };
    let provenance = Provenance::enabled();
    let result = catch_unwind(AssertUnwindSafe(|| {
        try_analyze_traced(&frame, &spec, &params.config, &shared.metrics, &provenance)
    }));
    let analysis = match result {
        Ok(Ok(analysis)) => analysis,
        Ok(Err(error)) => return status_for(&error),
        Err(_) => {
            // try_analyze_traced contains stage panics itself; this is
            // the belt-and-braces for anything that leaks past it.
            return Reply::error(
                500,
                "Internal Server Error",
                "analysis panicked; the panic was contained",
                "serve",
            );
        }
    };
    let payload = render_payload(shared, &analysis, fp, params, &provenance);
    let reply = Reply::json(200, "OK", format!("{{\"cached\":false,{payload}}}\n"));
    // The analysis is dropped right after this: move what explain needs
    // into the cache entry instead of cloning it.
    if analysis.degradation.is_none() {
        let entry = CacheEntry {
            payload,
            catalog: analysis.encoded.catalog,
            provenance,
            rules: analysis.rules,
            trie: analysis.rule_trie,
        };
        if let Ok(mut cache) = shared.cache.lock() {
            cache.insert(fp, config_key, entry);
        }
    }
    reply
}

fn render_rule(rule: &Rule, catalog: &irma_mine::ItemCatalog) -> String {
    let labels = |items: &[u32]| {
        items
            .iter()
            .map(|&id| format!("\"{}\"", json_escape(catalog.label(id))))
            .collect::<Vec<_>>()
            .join(",")
    };
    let spec = format!(
        "{} => {}",
        rule.antecedent
            .items()
            .iter()
            .map(|&id| catalog.label(id).to_string())
            .collect::<Vec<_>>()
            .join(", "),
        rule.consequent
            .items()
            .iter()
            .map(|&id| catalog.label(id).to_string())
            .collect::<Vec<_>>()
            .join(", "),
    );
    format!(
        "{{\"antecedent\":[{}],\"consequent\":[{}],\"spec\":\"{}\",\"support\":{},\"confidence\":{},\"lift\":{}}}",
        labels(rule.antecedent.items()),
        labels(rule.consequent.items()),
        json_escape(&spec),
        rule.support,
        rule.confidence,
        rule.lift,
    )
}

fn top_rules(rules: &[Rule], top: usize) -> Vec<&Rule> {
    let mut sorted: Vec<&Rule> = rules.iter().collect();
    sorted.sort_by(|a, b| {
        b.lift
            .total_cmp(&a.lift)
            .then_with(|| a.antecedent.items().cmp(b.antecedent.items()))
            .then_with(|| a.consequent.items().cmp(b.consequent.items()))
    });
    sorted.truncate(top);
    sorted
}

/// Renders the response payload (everything except the `cached` flag,
/// which differs between the cold and cache-hit paths).
fn render_payload(
    shared: &Shared,
    analysis: &Analysis,
    fp: &str,
    params: &AnalyzeParams,
    provenance: &Provenance,
) -> String {
    let catalog = &analysis.encoded.catalog;
    let rules_json = top_rules(&analysis.rules, params.top)
        .iter()
        .map(|rule| render_rule(rule, catalog))
        .collect::<Vec<_>>()
        .join(",");
    let degradation = match &analysis.degradation {
        None => "null".to_string(),
        Some(record) => {
            let steps = record
                .steps
                .iter()
                .map(|step| {
                    format!(
                        "{{\"breach\":\"{:?}\",\"min_support\":{},\"max_len\":{}}}",
                        step.breach, step.failed_min_support, step.failed_max_len
                    )
                })
                .collect::<Vec<_>>()
                .join(",");
            format!(
                "{{\"attempts\":{},\"final_min_support\":{},\"final_max_len\":{},\"steps\":[{steps}]}}",
                record.attempts(),
                record.final_min_support,
                record.final_max_len,
            )
        }
    };
    let keyword_json = match &params.keyword {
        None => String::new(),
        Some(label) => {
            let causes = analysis
                .keyword_traced(label, &shared.metrics, provenance)
                .map(|ka| ka.causes);
            match causes {
                None => format!(
                    ",\"keyword\":{{\"label\":\"{}\",\"present\":false,\"causes\":[]}}",
                    json_escape(label)
                ),
                Some(causes) => {
                    let causes_json = top_rules(&causes, params.top)
                        .iter()
                        .map(|rule| render_rule(rule, catalog))
                        .collect::<Vec<_>>()
                        .join(",");
                    format!(
                        ",\"keyword\":{{\"label\":\"{}\",\"present\":true,\"causes\":[{causes_json}]}}",
                        json_escape(label)
                    )
                }
            }
        }
    };
    format!(
        "\"fingerprint\":\"{fp}\",\"degraded\":{},\"degradation\":{degradation},\"jobs\":{},\"items\":{},\"frequent_itemsets\":{},\"rules_total\":{},\"rules\":[{rules_json}]{keyword_json}",
        analysis.degradation.is_some(),
        analysis.n_jobs(),
        catalog.len(),
        analysis.frequent.len(),
        analysis.rules.len(),
    )
}

fn handle_explain(shared: &Shared, head: &RequestHead) -> Reply {
    let rule_spec = percent_decode(
        head.route()
            .strip_prefix("/v1/explain/")
            .unwrap_or_default(),
    );
    let pairs = parse_query(head.query().unwrap_or(""));
    let Some(fp) = query_get(&pairs, "fp") else {
        return Reply::error(
            400,
            "Bad Request",
            "explain requires ?fp=<fingerprint> from a prior analyze response",
            "serve",
        );
    };
    let entry = shared
        .cache
        .lock()
        .ok()
        .and_then(|mut cache| cache.latest_for_fp(fp));
    let Some(entry) = entry else {
        return Reply::error(
            404,
            "Not Found",
            &format!("fingerprint `{fp}` is not cached; POST /v1/analyze first"),
            "serve",
        );
    };
    let Some((lhs, rhs)) = rule_spec.split_once("=>") else {
        return Reply::error(
            400,
            "Bad Request",
            "rule must look like `A, B => C` (URL-encoded)",
            "serve",
        );
    };
    let side = |s: &str| -> Result<Vec<u32>, String> {
        let labels: Vec<&str> = s
            .split(',')
            .map(str::trim)
            .filter(|label| !label.is_empty())
            .collect();
        if labels.is_empty() {
            return Err("rule needs labels on both sides of `=>`".to_string());
        }
        let mut ids = Vec::with_capacity(labels.len());
        for label in labels {
            match entry.catalog.id(label) {
                Some(id) => ids.push(id),
                None => return Err(format!("unknown item label `{label}`")),
            }
        }
        ids.sort_unstable();
        Ok(ids)
    };
    let (ante, cons) = match (side(lhs), side(rhs)) {
        (Ok(a), Ok(c)) => (a, c),
        (Err(message), _) | (_, Err(message)) => {
            return Reply::error(404, "Not Found", &message, "serve");
        }
    };
    let labeler = |id: u32| entry.catalog.label(id).to_string();
    // Rule metrics resolve via the cached trie index (no linear scan of
    // the flat rule export). A provenance chain can exist for a candidate
    // that the generation thresholds later dropped, so this is `null`able.
    let metrics_json = match entry.find_rule(&ante, &cons) {
        Some(rule) => render_rule(rule, &entry.catalog),
        None => "null".to_string(),
    };
    match entry.provenance.render_explain(&ante, &cons, &labeler) {
        Some(explanation) => Reply::json(
            200,
            "OK",
            format!(
                "{{\"rule\":\"{}\",\"fingerprint\":\"{}\",\"metrics\":{},\"explanation\":\"{}\"}}\n",
                json_escape(rule_spec.trim()),
                json_escape(fp),
                metrics_json,
                json_escape(&explanation)
            ),
        ),
        None => Reply::error(
            404,
            "Not Found",
            "rule was never a candidate in this analysis (check labels and thresholds)",
            "serve",
        ),
    }
}

/// Over-capacity path (bounded queue full): drain the head, answer 503
/// with `Retry-After`, close. Oversized heads still earn their 431.
pub(crate) fn reject(stream: TcpStream) {
    let mut stream = stream;
    match read_head(&mut BufReader::new(&stream)) {
        Ok(_) => write_response(
            &mut stream,
            503,
            "Service Unavailable",
            "application/json",
            &[("Retry-After", "1".to_string())],
            &json_error("request queue is full", "serve"),
        ),
        Err(HeadError::TooLarge) => write_too_large(&mut stream),
        Err(HeadError::Closed) => {}
    }
}
