//! `irma` — the command-line front end of the IRMA workflow.
//!
//! See [`args::USAGE`] (or run `irma help`) for the grammar. Every
//! subcommand is deterministic per `--seed`.

mod args;
mod signals;

use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use args::{parse, Command, MetricsFormat, USAGE};
use irma_core::experiments::run_all;
use irma_core::export::export_all;
use irma_core::insights::insight_report;
use irma_core::{
    failure_prediction, pai_spec, philly_spec, prepare, prepare_all, supercloud_spec,
    try_analyze_traced, AnalysisConfig, EventSink, ExecBudget, ExperimentScale, Metrics,
    PipelineError, Provenance,
};
use irma_core::{watch_feed, Emission, WatchConfig, KW_FAILED};
use irma_mine::{ItemCatalog, MinerConfig};
use irma_obs::serve::{ScrapeHandler, ScrapeResponse, ScrapeServer};
use irma_prep::fit;
use irma_rules::{Rule, RuleConfig};
use irma_synth::{pai, philly, read_merged_csv_dir, supercloud, TraceConfig};

/// How a successful subcommand finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// Full-fidelity result — exit code 0.
    Success,
    /// The degradation ladder relaxed the mining knobs — exit code 4, so
    /// scripts can tell a best-effort answer from a complete one.
    Degraded,
}

/// Why a subcommand failed.
#[derive(Debug)]
enum Failure {
    /// IO problems, unknown keywords, ... — exit code 1.
    Runtime(String),
    /// A typed pipeline failure from the fault-tolerant entry points —
    /// exit code 5 (never a panic/abort, i.e. never 101).
    Pipeline(PipelineError),
}

impl From<String> for Failure {
    fn from(message: String) -> Failure {
        Failure::Runtime(message)
    }
}

fn spec_for(trace: &str) -> irma_prep::EncoderSpec {
    match trace {
        "pai" => pai_spec(),
        "supercloud" => supercloud_spec(),
        "philly" => philly_spec(),
        other => unreachable!("trace validated by parser: {other}"),
    }
}

fn generate_bundle(trace: &str, jobs: usize, seed: u64) -> irma_synth::TraceBundle {
    let config = TraceConfig {
        n_jobs: jobs,
        seed,
        max_monitor_samples: 128,
    };
    match trace {
        "pai" => pai(&config),
        "supercloud" => supercloud(&config),
        "philly" => philly(&config),
        other => unreachable!("trace validated by parser: {other}"),
    }
}

/// Splits `"A, B => C"` into antecedent and consequent label lists.
fn parse_rule_spec(rule: &str) -> Result<(Vec<String>, Vec<String>), String> {
    let (lhs, rhs) = rule
        .split_once("=>")
        .ok_or_else(|| format!("--rule must contain `=>` (got `{rule}`)"))?;
    let side = |s: &str| -> Vec<String> {
        s.split(',')
            .map(|label| label.trim().to_string())
            .filter(|label| !label.is_empty())
            .collect()
    };
    let (ante, cons) = (side(lhs), side(rhs));
    if ante.is_empty() || cons.is_empty() {
        return Err(format!(
            "--rule needs labels on both sides of `=>` (got `{rule}`)"
        ));
    }
    Ok((ante, cons))
}

/// Builds the synthetic two-regime feed for `irma watch <trace>`: a
/// normal-load stretch, then a failure wave (failures plus every 4th
/// healthy job from a second seed), both encoded with the preparation
/// frozen on the normal regime. Returns the feed as comma-separated
/// item-id lines plus the catalog for rendering rules.
fn synthetic_watch_feed(trace: &str, jobs: usize, seed: u64) -> (String, ItemCatalog) {
    let normal_frame = generate_bundle(trace, jobs, seed).merged();
    let fitted = fit(&normal_frame, &spec_for(trace));
    let normal_db = fitted.transform(&normal_frame);

    let wave_frame = generate_bundle(trace, jobs.saturating_mul(2), seed.wrapping_add(1)).merged();
    let wave_db = fitted.transform(&wave_frame);
    let failed_item = fitted.catalog().id(KW_FAILED);

    let mut lines = String::new();
    let mut push_txn = |txn: &[u32]| {
        let mut first = true;
        for item in txn {
            if !first {
                lines.push(',');
            }
            first = false;
            lines.push_str(&item.to_string());
        }
        lines.push('\n');
    };
    for i in 0..normal_db.len() {
        push_txn(normal_db.transaction(i));
    }
    for i in 0..wave_db.len() {
        let txn = wave_db.transaction(i);
        let is_failure = failed_item.is_some_and(|f| txn.binary_search(&f).is_ok());
        if is_failure || i % 4 == 0 {
            push_txn(txn);
        }
    }
    (lines, fitted.catalog().clone())
}

/// The Content-Type a Prometheus-style scraper expects for OpenMetrics.
const OPENMETRICS_CONTENT_TYPE: &str = "application/openmetrics-text; version=1.0.0; charset=utf-8";

/// Shared liveness state between the watch loop and the `/healthz`
/// handler: when the daemon started and (as microseconds since then)
/// when it last emitted. `u64::MAX` means no emission yet.
struct WatchHealth {
    started: Instant,
    last_emission_micros: AtomicU64,
}

impl WatchHealth {
    fn new() -> WatchHealth {
        WatchHealth {
            started: Instant::now(),
            last_emission_micros: AtomicU64::new(u64::MAX),
        }
    }

    fn uptime_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Stamps "an emission just happened" (called from `on_emit`).
    fn mark_emission(&self) {
        let micros = u64::try_from(self.started.elapsed().as_micros()).unwrap_or(u64::MAX - 1);
        self.last_emission_micros
            .store(micros.min(u64::MAX - 1), Ordering::Relaxed);
    }

    /// Seconds since the last emission; `None` before the first one.
    fn last_emission_age_seconds(&self) -> Option<f64> {
        let at = self.last_emission_micros.load(Ordering::Relaxed);
        if at == u64::MAX {
            return None;
        }
        let now = u64::try_from(self.started.elapsed().as_micros()).unwrap_or(u64::MAX);
        Some(now.saturating_sub(at) as f64 / 1e6)
    }

    /// The `/healthz` JSON document.
    fn to_json(&self, degraded: bool) -> String {
        let age = match self.last_emission_age_seconds() {
            Some(age) => format!("{age:.6}"),
            None => "null".to_string(),
        };
        format!(
            "{{\"status\":\"ok\",\"uptime_seconds\":{:.6},\"degraded\":{},\
             \"last_emission_age_seconds\":{}}}\n",
            self.uptime_seconds(),
            degraded,
            age
        )
    }
}

fn render_watch_rule(rule: &Rule, catalog: Option<&ItemCatalog>) -> String {
    match catalog {
        Some(catalog) => rule.render(catalog),
        None => format!(
            "{:?} => {:?}  (supp={:.2}, conf={:.2}, lift={:.2})",
            rule.antecedent.items(),
            rule.consequent.items(),
            rule.support,
            rule.confidence,
            rule.lift
        ),
    }
}

fn run(command: Command) -> Result<Outcome, Failure> {
    match command {
        Command::Help => {
            print!("{USAGE}");
            Ok(Outcome::Success)
        }
        Command::Generate {
            trace,
            jobs,
            seed,
            out,
        } => {
            let bundle = generate_bundle(&trace, jobs, seed);
            let (sched, mon) = bundle
                .write_csv_dir(Path::new(&out))
                .map_err(|e| e.to_string())?;
            println!("wrote {}", sched.display());
            println!("wrote {}", mon.display());
            Ok(Outcome::Success)
        }
        Command::Analyze {
            trace,
            keyword,
            jobs,
            seed,
            top,
            dir,
            insights,
            metrics: metrics_path,
            metrics_format,
            verbose_stages,
            trace_log,
            budget_itemsets,
            budget_tree_mb,
            deadline,
            threads,
        } => {
            // The sink stays a no-op unless somebody asked for output.
            // It exists before the read so that ingest is attributed too.
            let mut metrics = if metrics_path.is_some() || verbose_stages {
                Metrics::enabled()
            } else {
                Metrics::disabled()
            };
            if let Some(path) = &trace_log {
                let sink = EventSink::create(Path::new(path))
                    .map_err(|e| format!("creating trace log {path}: {e}"))?;
                metrics = metrics.with_event_sink(sink);
                eprintln!("streaming trace events to {path}");
            }
            let merged = match dir {
                Some(dir) => read_merged_csv_dir(Path::new(&dir), &trace, &metrics)
                    .map_err(|e| format!("reading trace CSVs: {e}"))?,
                None => generate_bundle(&trace, jobs, seed).merged(),
            };
            let config = AnalysisConfig {
                budget: ExecBudget {
                    max_itemsets: budget_itemsets,
                    max_tree_bytes: budget_tree_mb.map(|mb| mb.saturating_mul(1 << 20)),
                    deadline,
                    panic_after_emits: None,
                },
                ..AnalysisConfig::default()
            };
            let run_analysis = || {
                let result = try_analyze_traced(
                    &merged,
                    &spec_for(&trace),
                    &config,
                    &metrics,
                    &Provenance::disabled(),
                );
                // Inside `install`, so this reads the pool that actually
                // mined (the global registry when --threads is absent).
                irma_core::record_sched_stats(&metrics);
                result
            };
            // --threads pins the work-stealing pool width; otherwise the
            // global registry (one worker per core) serves the run.
            let analysis = match threads {
                Some(n) => rayon::ThreadPoolBuilder::new()
                    .num_threads(n)
                    .build()
                    .map_err(|e| format!("building {n}-thread mining pool: {e}"))?
                    .install(run_analysis),
                None => run_analysis(),
            }
            .map_err(Failure::Pipeline)?;
            if let Some(degradation) = &analysis.degradation {
                eprintln!(
                    "warning: degraded result — budget breached {} time(s) \
                     ({}); final knobs: min_support={:.4}, max_len={}",
                    degradation.steps.len(),
                    degradation.steps[0].breach,
                    degradation.final_min_support,
                    degradation.final_max_len,
                );
            }
            eprintln!("{}", analysis.summary());
            print!("{}", analysis.render_keyword_with(&keyword, top, &metrics));
            if insights {
                print!("{}", insight_report(&analysis, &keyword, top));
            }
            if metrics.is_enabled() {
                let snapshot = metrics.snapshot();
                if verbose_stages {
                    eprint!("{}", snapshot.render_table());
                }
                if let Some(path) = metrics_path {
                    let rendered = match metrics_format {
                        MetricsFormat::Json => snapshot.to_json(),
                        MetricsFormat::OpenMetrics => snapshot.to_openmetrics(),
                        MetricsFormat::Table => snapshot.render_table(),
                    };
                    std::fs::write(&path, rendered)
                        .map_err(|e| format!("writing metrics to {path}: {e}"))?;
                    eprintln!("wrote metrics {path}");
                }
            }
            if analysis.degradation.is_some() {
                Ok(Outcome::Degraded)
            } else {
                Ok(Outcome::Success)
            }
        }
        Command::Explain {
            trace,
            rule,
            keyword,
            jobs,
            seed,
            dir,
            provenance: provenance_path,
            c_lift,
            c_supp,
        } => {
            let metrics = Metrics::disabled();
            let merged = match dir {
                Some(dir) => read_merged_csv_dir(Path::new(&dir), &trace, &metrics)
                    .map_err(|e| format!("reading trace CSVs: {e}"))?,
                None => generate_bundle(&trace, jobs, seed).merged(),
            };
            let (ante_labels, cons_labels) = parse_rule_spec(&rule)?;
            let keyword = keyword.unwrap_or_else(|| cons_labels[0].clone());

            let mut config = AnalysisConfig::default();
            if let Some(c) = c_lift {
                config.prune.c_lift = c;
            }
            if let Some(c) = c_supp {
                config.prune.c_supp = c;
            }
            config.prune.validate().map_err(|e| e.to_string())?;

            let provenance = Provenance::enabled();
            let analysis =
                try_analyze_traced(&merged, &spec_for(&trace), &config, &metrics, &provenance)
                    .map_err(Failure::Pipeline)?;
            analysis
                .keyword_traced(&keyword, &metrics, &provenance)
                .ok_or_else(|| format!("keyword `{keyword}` is not an item of this trace"))?;

            let resolve = |labels: &[String]| -> Result<Vec<u32>, String> {
                let mut ids = labels
                    .iter()
                    .map(|label| {
                        analysis.item(label).ok_or_else(|| {
                            format!(
                                "`{label}` is not an item of this trace (never emitted, or \
                                 dropped by the prevalence cut)"
                            )
                        })
                    })
                    .collect::<Result<Vec<u32>, String>>()?;
                ids.sort_unstable();
                Ok(ids)
            };
            let ante = resolve(&ante_labels)?;
            let cons = resolve(&cons_labels)?;

            let labeler = |id: u32| analysis.encoded.catalog.label(id).to_string();
            println!(
                "trace: {trace}  keyword: {keyword}  C_lift={:.2}  C_supp={:.2}",
                config.prune.c_lift, config.prune.c_supp
            );
            // Resolve the generated rule (if any) via a trie walk rather
            // than scanning the flat export.
            if let Some(rule) = analysis.find_rule(&ante, &cons) {
                println!(
                    "rule: supp={:.4}  conf={:.4}  lift={:.4}",
                    rule.support, rule.confidence, rule.lift
                );
            }
            match provenance.render_explain(&ante, &cons, &labeler) {
                Some(text) => print!("{text}"),
                None => println!(
                    "rule was never a candidate: its itemset is not frequent at the \
                     configured support threshold"
                ),
            }
            if let Some(path) = provenance_path {
                std::fs::write(&path, provenance.to_jsonl(&labeler))
                    .map_err(|e| format!("writing provenance to {path}: {e}"))?;
                eprintln!("wrote provenance {path}");
            }
            Ok(Outcome::Success)
        }
        Command::Experiments {
            pai,
            supercloud,
            philly,
            seed,
            export,
        } => {
            let scale = ExperimentScale {
                pai_jobs: pai,
                supercloud_jobs: supercloud,
                philly_jobs: philly,
                seed,
            };
            let traces =
                prepare_all(&scale, &AnalysisConfig::default()).map_err(Failure::Pipeline)?;
            println!("{}", run_all(&traces).map_err(Failure::Pipeline)?);
            if let Some(dir) = export {
                let files = export_all(&traces, Path::new(&dir)).map_err(|e| e.to_string())?;
                eprintln!("exported {} CSV files to {dir}", files.len());
            }
            Ok(Outcome::Success)
        }
        Command::Watch {
            trace,
            feed,
            jobs,
            seed,
            window,
            warmup,
            drift_threshold,
            cadence,
            max_arrivals,
            min_support,
            min_lift,
            keyword,
            top,
            metrics: metrics_path,
            metrics_format,
            listen,
            trace_log,
            budget_itemsets,
            budget_tree_mb,
            deadline,
            threads,
        } => {
            // Handlers go in before feed setup: synthesizing a large
            // trace can take seconds, and a SIGTERM landing in that
            // window must still drain instead of hitting the default
            // disposition.
            let shutdown = signals::install();

            // --listen implies live metrics: the scrape endpoint serves
            // the same registry the snapshot file would.
            let mut metrics = if metrics_path.is_some() || listen.is_some() {
                Metrics::enabled()
            } else {
                Metrics::disabled()
            };
            if let Some(path) = &trace_log {
                let sink = EventSink::create(Path::new(path))
                    .map_err(|e| format!("creating trace log {path}: {e}"))?;
                metrics = metrics.with_event_sink(sink);
                eprintln!("streaming trace events to {path}");
            }

            // Feed + (for the synthetic mode) a catalog for rendering.
            let (reader, catalog): (Box<dyn std::io::BufRead + Send>, Option<ItemCatalog>) =
                match (&feed, &trace) {
                    (Some(src), _) if src == "-" => {
                        (Box::new(std::io::BufReader::new(std::io::stdin())), None)
                    }
                    (Some(src), _) => {
                        let file = std::fs::File::open(src)
                            .map_err(|e| format!("opening feed {src}: {e}"))?;
                        (Box::new(std::io::BufReader::new(file)), None)
                    }
                    (None, Some(trace)) => {
                        let (lines, catalog) = synthetic_watch_feed(trace, jobs, seed);
                        (Box::new(std::io::Cursor::new(lines)), Some(catalog))
                    }
                    (None, None) => unreachable!("parser enforces a trace or --feed"),
                };

            // Keyword: a label looked up in the synthetic catalog, or a
            // raw item id for external feeds (which carry no labels).
            let keyword_item = match (&catalog, keyword) {
                (Some(catalog), Some(label)) => Some(
                    catalog
                        .id(&label)
                        .ok_or_else(|| format!("keyword `{label}` is not an item of this trace"))?,
                ),
                (Some(catalog), None) => {
                    let failed = catalog.id(KW_FAILED);
                    if failed.is_none() {
                        eprintln!(
                            "note: trace has no `{KW_FAILED}` item; emitting top rules by lift"
                        );
                    }
                    failed
                }
                (None, Some(raw)) => Some(raw.parse::<u32>().map_err(|_| {
                    format!("--feed mode has no labels; --keyword must be an item id (got `{raw}`)")
                })?),
                (None, None) => None,
            };

            let config = WatchConfig {
                shutdown: Some(shutdown),
                window,
                warmup: warmup.unwrap_or_else(|| (window / 2).max(1)),
                miner: MinerConfig {
                    min_support,
                    ..MinerConfig::default()
                },
                rules: RuleConfig::with_min_lift(min_lift),
                budget: ExecBudget {
                    max_itemsets: budget_itemsets,
                    max_tree_bytes: budget_tree_mb.map(|mb| mb.saturating_mul(1 << 20)),
                    deadline,
                    panic_after_emits: None,
                },
                drift_threshold,
                cadence,
                max_arrivals,
                keyword: keyword_item,
                top,
                ..WatchConfig::default()
            };

            let write_metrics = |metrics: &Metrics| {
                if let Some(path) = &metrics_path {
                    let snapshot = metrics.snapshot();
                    let rendered = match metrics_format {
                        MetricsFormat::Json => snapshot.to_json(),
                        MetricsFormat::OpenMetrics => snapshot.to_openmetrics(),
                        MetricsFormat::Table => snapshot.render_table(),
                    };
                    // Snapshot writes are best-effort, like the trace
                    // log: a full disk must not kill the daemon.
                    if let Err(e) = std::fs::write(path, rendered) {
                        eprintln!("warning: writing metrics to {path}: {e}");
                    }
                }
            };

            // The pool is built up front (rather than inline at install
            // time) so the scrape handler below — which runs on its own
            // connection thread, outside any pool — can still read this
            // pool's scheduler counters.
            let pool = threads
                .map(|n| {
                    rayon::ThreadPoolBuilder::new()
                        .num_threads(n)
                        .build()
                        .map(Arc::new)
                        .map_err(|e| format!("building {n}-thread mining pool: {e}"))
                })
                .transpose()?;

            let health = Arc::new(WatchHealth::new());
            let _server = match &listen {
                Some(addr) => {
                    let handler: ScrapeHandler = {
                        let metrics = metrics.clone();
                        let health = Arc::clone(&health);
                        let pool = pool.clone();
                        Arc::new(move |path: &str| match path {
                            "/metrics" => {
                                let sched = match &pool {
                                    Some(pool) => pool.sched_stats(),
                                    // No --threads: the daemon mines on
                                    // the global registry.
                                    None => rayon::sched_stats(),
                                };
                                irma_core::record_sched_snapshot(&metrics, &sched);
                                metrics.gauge("watch.uptime_seconds", health.uptime_seconds());
                                if let Some(age) = health.last_emission_age_seconds() {
                                    metrics.gauge("watch.last_emission_age_seconds", age);
                                }
                                Some(ScrapeResponse {
                                    content_type: OPENMETRICS_CONTENT_TYPE,
                                    body: metrics.snapshot().to_openmetrics(),
                                })
                            }
                            "/healthz" => Some(ScrapeResponse {
                                content_type: "application/json",
                                body: health.to_json(metrics.is_degraded()),
                            }),
                            _ => None,
                        })
                    };
                    let server = ScrapeServer::start(addr.as_str(), handler)
                        .map_err(|e| format!("binding scrape endpoint {addr}: {e}"))?;
                    // CI and scripts parse this line for the ephemeral
                    // port; keep its shape stable.
                    eprintln!("listening on http://{}", server.local_addr());
                    Some(server)
                }
                None => None,
            };

            let on_emit = |e: &Emission| {
                health.mark_emission();
                let drift = if e.drift.is_finite() {
                    format!("{:.3}", e.drift)
                } else {
                    "inf".to_string()
                };
                let degraded = if e.degradation_steps > 0 {
                    format!(" [degraded: {} ladder step(s)]", e.degradation_steps)
                } else {
                    String::new()
                };
                println!(
                    "emission {:>3} @ arrival {:>7}: window {} drift {} | {} rule(s){}",
                    e.seq,
                    e.arrivals,
                    e.window,
                    drift,
                    e.rules.len(),
                    degraded
                );
                for rule in &e.rules {
                    println!("    {}", render_watch_rule(rule, catalog.as_ref()));
                }
                write_metrics(&metrics);
            };

            let run_daemon = || watch_feed(reader, &config, &metrics, on_emit);
            let summary = match &pool {
                Some(pool) => pool.install(run_daemon),
                None => run_daemon(),
            };

            write_metrics(&metrics);
            if let Some(error) = &summary.last_error {
                eprintln!("warning: last failed emission: {error}");
            }
            eprintln!(
                "watch done: {} arrivals, {} emission(s) ({} degraded, {} failed), \
                 {} garbled line(s), {} sampled out, {} backpressure wait(s), final window {}",
                summary.arrivals,
                summary.emissions,
                summary.degraded_emissions,
                summary.failed_emissions,
                summary.garbled_lines,
                summary.sampled_out,
                summary.backpressure_waits,
                summary.final_window,
            );
            if summary.degraded_emissions > 0
                || summary.failed_emissions > 0
                || metrics.is_degraded()
            {
                Ok(Outcome::Degraded)
            } else {
                Ok(Outcome::Success)
            }
        }
        Command::Serve {
            listen,
            workers,
            queue_depth,
            cache_entries,
            budget_itemsets,
            budget_tree_mb,
            default_deadline,
            max_deadline,
            threads,
        } => {
            let shutdown = signals::install();
            let metrics = Metrics::enabled();
            let config = irma_serve::ServeConfig {
                workers,
                queue_depth,
                cache_entries,
                default_budget: ExecBudget {
                    max_itemsets: budget_itemsets,
                    max_tree_bytes: budget_tree_mb.map(|mb| mb.saturating_mul(1 << 20)),
                    deadline: None,
                    panic_after_emits: None,
                },
                default_deadline,
                max_deadline,
                ..irma_serve::ServeConfig::default()
            };
            // --threads pins the mining pool the request handlers mine
            // on; otherwise the global registry (one worker per core)
            // serves every request.
            let pool = threads
                .map(|n| {
                    rayon::ThreadPoolBuilder::new()
                        .num_threads(n)
                        .build()
                        .map_err(|e| format!("building {n}-thread mining pool: {e}"))
                })
                .transpose()?;
            let serve = || -> Result<(), String> {
                let server = irma_serve::Server::start(listen.as_str(), config, metrics.clone())
                    .map_err(|e| format!("binding serve endpoint {listen}: {e}"))?;
                // CI and scripts parse this line for the ephemeral
                // port; keep its shape stable (same as `watch --listen`).
                eprintln!("listening on http://{}", server.local_addr());
                while !shutdown.load(Ordering::Relaxed) {
                    std::thread::sleep(std::time::Duration::from_millis(100));
                }
                eprintln!("shutdown signal received; draining in-flight requests");
                server.shutdown();
                Ok(())
            };
            match pool {
                Some(pool) => pool.install(serve)?,
                None => serve()?,
            }
            eprintln!("serve done");
            Ok(Outcome::Success)
        }
        Command::Trace { input, out } => {
            let jsonl = if input == "-" {
                let mut text = String::new();
                std::io::Read::read_to_string(&mut std::io::stdin(), &mut text)
                    .map_err(|e| format!("reading stdin: {e}"))?;
                text
            } else {
                std::fs::read_to_string(&input)
                    .map_err(|e| format!("reading trace log {input}: {e}"))?
            };
            let rendered =
                irma_core::chrome_trace(&jsonl).map_err(|e| format!("converting {input}: {e}"))?;
            match out {
                Some(path) => {
                    std::fs::write(&path, rendered)
                        .map_err(|e| format!("writing chrome trace to {path}: {e}"))?;
                    eprintln!("wrote chrome trace {path}");
                }
                None => print!("{rendered}"),
            }
            Ok(Outcome::Success)
        }
        Command::Predict {
            trace,
            jobs,
            threshold,
            seed,
        } => {
            let t = prepare(
                &trace,
                &TraceConfig {
                    n_jobs: jobs,
                    seed,
                    max_monitor_samples: 128,
                },
                &AnalysisConfig::default(),
            )
            .map_err(Failure::Pipeline)?;
            let result = failure_prediction(&t, jobs / 2, seed ^ 0xfeed, threshold);
            let e = &result.eval;
            println!(
                "{trace}: {} rules @ conf>={threshold:.2} | precision={:.3} recall={:.3} f1={:.3} accuracy={:.3} (base rate {:.3})",
                result.n_rules,
                e.precision(),
                e.recall(),
                e.f1(),
                e.accuracy(),
                e.base_rate()
            );
            Ok(Outcome::Success)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse(&argv) {
        Ok(command) => match run(command) {
            Ok(Outcome::Success) => ExitCode::SUCCESS,
            Ok(Outcome::Degraded) => ExitCode::from(4),
            Err(Failure::Runtime(message)) => {
                eprintln!("error: {message}");
                ExitCode::FAILURE
            }
            Err(Failure::Pipeline(err)) => {
                eprintln!("pipeline error [{}]: {err}", err.stage());
                ExitCode::from(5)
            }
        },
        Err(err) => {
            eprintln!("error: {err}\n");
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
