//! Hand-rolled argument parsing for the `irma` binary.
//!
//! Kept dependency-free (no clap) per the workspace's from-scratch policy;
//! the grammar is small enough that a flag map suffices.

use std::collections::HashMap;
use std::time::Duration;

/// Output format for the `--metrics` snapshot file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricsFormat {
    /// Hand-rolled JSON object (the default; schema in DESIGN.md §4).
    #[default]
    Json,
    /// OpenMetrics text exposition (`# TYPE` lines, `# EOF` terminator).
    OpenMetrics,
    /// The human-readable stage table.
    Table,
}

impl std::str::FromStr for MetricsFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<MetricsFormat, String> {
        match s {
            "json" => Ok(MetricsFormat::Json),
            "openmetrics" => Ok(MetricsFormat::OpenMetrics),
            "table" => Ok(MetricsFormat::Table),
            other => Err(format!(
                "unknown metrics format `{other}` (expected json|openmetrics|table)"
            )),
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `irma generate <trace> [--jobs N] [--seed S] [--out DIR]`
    Generate {
        /// Trace profile name.
        trace: String,
        /// Jobs to generate.
        jobs: usize,
        /// RNG seed.
        seed: u64,
        /// Output directory for the CSV pair.
        out: String,
    },
    /// `irma analyze <trace> [--keyword K] [--jobs N] [--seed S] [--top N]
    ///  [--dir DIR]` — `--dir` re-reads CSVs written by `generate`.
    Analyze {
        /// Trace profile name.
        trace: String,
        /// Analysis keyword (item label).
        keyword: String,
        /// Jobs to generate when `--dir` is absent.
        jobs: usize,
        /// RNG seed.
        seed: u64,
        /// Rows per table section.
        top: usize,
        /// Optional directory holding `<trace>_scheduler.csv` etc.
        dir: Option<String>,
        /// Also print natural-language insights.
        insights: bool,
        /// Optional path for a metrics snapshot of the run.
        metrics: Option<String>,
        /// Format of the `--metrics` snapshot file.
        metrics_format: MetricsFormat,
        /// Also print the per-stage timing/cardinality table.
        verbose_stages: bool,
        /// Optional path for a live JSONL trace of span/counter events.
        trace_log: Option<String>,
        /// Cap on mined itemsets before the degradation ladder kicks in.
        budget_itemsets: Option<u64>,
        /// Cap on estimated FP-tree memory, in MiB.
        budget_tree_mb: Option<u64>,
        /// Wall-clock deadline for the whole mining run (e.g. `250ms`).
        deadline: Option<Duration>,
        /// Worker threads for the mining pool (default: one per core).
        threads: Option<usize>,
    },
    /// `irma explain <trace> --rule "A, B => C" [--keyword K] [--jobs N]
    ///  [--seed S] [--dir DIR] [--provenance FILE] [--c-lift X]
    ///  [--c-supp Y]` — replay the generation/pruning decision path for
    /// one rule.
    Explain {
        /// Trace profile name.
        trace: String,
        /// The rule to explain: comma-separated antecedent labels, `=>`,
        /// comma-separated consequent labels.
        rule: String,
        /// Analysis keyword (defaults to the rule's first consequent
        /// label).
        keyword: Option<String>,
        /// Jobs to generate when `--dir` is absent.
        jobs: usize,
        /// RNG seed.
        seed: u64,
        /// Optional directory holding `<trace>_scheduler.csv` etc.
        dir: Option<String>,
        /// Optional path for the full provenance JSONL dump.
        provenance: Option<String>,
        /// Override for the `C_lift` pruning margin.
        c_lift: Option<f64>,
        /// Override for the `C_supp` pruning margin.
        c_supp: Option<f64>,
    },
    /// `irma experiments [--pai N] [--supercloud N] [--philly N] [--seed S]
    ///  [--export DIR]`
    Experiments {
        /// PAI job count.
        pai: usize,
        /// SuperCloud job count.
        supercloud: usize,
        /// Philly job count.
        philly: usize,
        /// RNG seed.
        seed: u64,
        /// Optional directory for per-artifact CSV export.
        export: Option<String>,
    },
    /// `irma watch [<trace>] [--feed FILE|-] [--window N] [--cadence N]
    ///  [--drift-threshold X] ...` — the long-running streaming daemon.
    Watch {
        /// Trace profile for the synthetic two-regime feed (and for
        /// keyword/label rendering). `None` only with `--feed`.
        trace: Option<String>,
        /// Feed source: a path of comma-separated item-id lines, or `-`
        /// for stdin. Absent = generate the synthetic feed from `trace`.
        feed: Option<String>,
        /// Jobs per synthetic regime.
        jobs: usize,
        /// RNG seed for the synthetic feed.
        seed: u64,
        /// Sliding-window capacity (transactions).
        window: usize,
        /// Skip re-emissions until the window holds this many
        /// transactions (default: half the window).
        warmup: Option<usize>,
        /// Window drift (L1 vs. last mined baseline) that triggers a
        /// re-emission.
        drift_threshold: f64,
        /// Re-emit after this many arrivals even without drift
        /// (0 disables the cadence trigger).
        cadence: usize,
        /// Stop after this many admitted arrivals (default: run to EOF).
        max_arrivals: Option<u64>,
        /// Minimum support for windowed mining.
        min_support: f64,
        /// Minimum lift for emitted rules.
        min_lift: f64,
        /// Keyword label whose cause rules each emission carries
        /// (synthetic mode only; default: the trace's failure keyword).
        keyword: Option<String>,
        /// Rules carried per emission.
        top: usize,
        /// Optional path for a metrics snapshot, rewritten per emission.
        metrics: Option<String>,
        /// Format of the `--metrics` snapshot file.
        metrics_format: MetricsFormat,
        /// Optional address (`HOST:PORT`, port 0 for ephemeral) for the
        /// embedded `/metrics` + `/healthz` scrape endpoint.
        listen: Option<String>,
        /// Optional path for a live JSONL trace of span/counter events.
        trace_log: Option<String>,
        /// Cap on mined itemsets per emission before the ladder kicks in.
        budget_itemsets: Option<u64>,
        /// Cap on estimated FP-tree memory per emission, in MiB.
        budget_tree_mb: Option<u64>,
        /// Wall-clock deadline per mining attempt (e.g. `250ms`).
        deadline: Option<Duration>,
        /// Worker threads for the mining pool (default: one per core).
        threads: Option<usize>,
    },
    /// `irma serve [--listen ADDR] [--workers N] [--queue-depth N]
    ///  [--cache-entries N] [--budget-itemsets N] [--budget-tree-mb N]
    ///  [--default-deadline DUR] [--max-deadline DUR] [--threads N]` —
    /// the multi-tenant rule-serving HTTP API.
    Serve {
        /// Bind address (`HOST:PORT`, port 0 for ephemeral).
        listen: String,
        /// HTTP worker threads.
        workers: usize,
        /// Bounded connection-queue depth (503 past it).
        queue_depth: usize,
        /// Result-cache capacity, in entries.
        cache_entries: usize,
        /// Cap on mined itemsets per request before the ladder kicks in.
        budget_itemsets: Option<u64>,
        /// Cap on estimated FP-tree memory per request, in MiB.
        budget_tree_mb: Option<u64>,
        /// Deadline when the client sends no `x-irma-timeout-ms` header.
        default_deadline: Duration,
        /// Hard cap on client-requested deadlines.
        max_deadline: Duration,
        /// Worker threads for the mining pool (default: one per core).
        threads: Option<usize>,
    },
    /// `irma trace <input.jsonl|-> [--out FILE]` — convert a JSONL trace
    /// log (`--trace-log` output) into Chrome `trace_event` JSON for
    /// chrome://tracing / Perfetto.
    Trace {
        /// The JSONL trace log, or `-` for stdin.
        input: String,
        /// Output path; stdout when absent.
        out: Option<String>,
    },
    /// `irma predict <trace> [--jobs N] [--threshold T] [--seed S]`
    Predict {
        /// Trace profile name.
        trace: String,
        /// Training job count (held-out gets half).
        jobs: usize,
        /// Positive-prediction confidence threshold.
        threshold: f64,
        /// RNG seed.
        seed: u64,
    },
    /// `irma help` or no/unknown arguments.
    Help,
}

/// Parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

const TRACES: [&str; 3] = ["pai", "supercloud", "philly"];

/// Splits `args` into positionals and `--flag value` pairs.
fn split_flags(args: &[String]) -> Result<(Vec<String>, HashMap<String, String>), ParseError> {
    let mut positional = Vec::new();
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        if let Some(name) = arg.strip_prefix("--") {
            let value = args
                .get(i + 1)
                .ok_or_else(|| ParseError(format!("flag --{name} needs a value")))?;
            flags.insert(name.to_string(), value.clone());
            i += 2;
        } else {
            positional.push(arg.clone());
            i += 1;
        }
    }
    Ok((positional, flags))
}

fn get_parse<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, ParseError> {
    match flags.get(name) {
        Some(raw) => raw
            .parse()
            .map_err(|_| ParseError(format!("invalid value for --{name}: `{raw}`"))),
        None => Ok(default),
    }
}

/// Parses a human-friendly duration: an integer immediately followed by
/// a unit (`us`, `ms`, `s`, `m`), e.g. `500us`, `250ms`, `2s`, `5m`.
pub fn parse_duration(raw: &str) -> Result<Duration, String> {
    let raw = raw.trim();
    let split = raw
        .find(|c: char| !c.is_ascii_digit())
        .ok_or_else(|| format!("duration `{raw}` is missing a unit (us|ms|s|m)"))?;
    let (digits, unit) = raw.split_at(split);
    let value: u64 = digits
        .parse()
        .map_err(|_| format!("duration `{raw}` needs an integer before the unit"))?;
    match unit {
        "us" => Ok(Duration::from_micros(value)),
        "ms" => Ok(Duration::from_millis(value)),
        "s" => Ok(Duration::from_secs(value)),
        "m" => Ok(Duration::from_secs(value * 60)),
        other => Err(format!(
            "unknown duration unit `{other}` in `{raw}` (expected us|ms|s|m)"
        )),
    }
}

fn known_flags(flags: &HashMap<String, String>, allowed: &[&str]) -> Result<(), ParseError> {
    for key in flags.keys() {
        if !allowed.contains(&key.as_str()) {
            return Err(ParseError(format!("unknown flag --{key}")));
        }
    }
    Ok(())
}

fn trace_arg(positional: &[String]) -> Result<String, ParseError> {
    let trace = positional
        .first()
        .ok_or_else(|| ParseError("missing trace name (pai|supercloud|philly)".to_string()))?;
    if !TRACES.contains(&trace.as_str()) {
        return Err(ParseError(format!(
            "unknown trace `{trace}` (expected pai|supercloud|philly)"
        )));
    }
    Ok(trace.clone())
}

/// Parses the full argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let Some(subcommand) = args.first() else {
        return Ok(Command::Help);
    };
    let rest = &args[1..];
    match subcommand.as_str() {
        "generate" => {
            let (positional, flags) = split_flags(rest)?;
            known_flags(&flags, &["jobs", "seed", "out"])?;
            Ok(Command::Generate {
                trace: trace_arg(&positional)?,
                jobs: get_parse(&flags, "jobs", 20_000)?,
                seed: get_parse(&flags, "seed", 0xdcc0)?,
                out: flags.get("out").cloned().unwrap_or_else(|| ".".to_string()),
            })
        }
        "analyze" => {
            let (positional, flags) = split_flags(rest)?;
            known_flags(
                &flags,
                &[
                    "keyword",
                    "jobs",
                    "seed",
                    "top",
                    "dir",
                    "insights",
                    "metrics",
                    "metrics-format",
                    "verbose-stages",
                    "trace-log",
                    "budget-itemsets",
                    "budget-tree-mb",
                    "deadline",
                    "threads",
                ],
            )?;
            Ok(Command::Analyze {
                trace: trace_arg(&positional)?,
                keyword: flags
                    .get("keyword")
                    .cloned()
                    .unwrap_or_else(|| "SM Util = 0%".to_string()),
                jobs: get_parse(&flags, "jobs", 20_000)?,
                seed: get_parse(&flags, "seed", 0xdcc0)?,
                top: get_parse(&flags, "top", 6)?,
                dir: flags.get("dir").cloned(),
                insights: get_parse(&flags, "insights", false)?,
                metrics: flags.get("metrics").cloned(),
                metrics_format: get_parse(&flags, "metrics-format", MetricsFormat::Json)?,
                verbose_stages: get_parse(&flags, "verbose-stages", false)?,
                trace_log: flags.get("trace-log").cloned(),
                budget_itemsets: flags
                    .get("budget-itemsets")
                    .map(|raw| {
                        raw.parse().map_err(|_| {
                            ParseError(format!("invalid value for --budget-itemsets: `{raw}`"))
                        })
                    })
                    .transpose()?,
                budget_tree_mb: flags
                    .get("budget-tree-mb")
                    .map(|raw| {
                        raw.parse().map_err(|_| {
                            ParseError(format!("invalid value for --budget-tree-mb: `{raw}`"))
                        })
                    })
                    .transpose()?,
                deadline: flags
                    .get("deadline")
                    .map(|raw| {
                        parse_duration(raw)
                            .map_err(|e| ParseError(format!("invalid --deadline: {e}")))
                    })
                    .transpose()?,
                threads: flags
                    .get("threads")
                    .map(|raw| match raw.parse() {
                        Ok(n) if n >= 1 => Ok(n),
                        _ => Err(ParseError(format!(
                            "invalid value for --threads: `{raw}` (need an integer >= 1)"
                        ))),
                    })
                    .transpose()?,
            })
        }
        "explain" => {
            let (positional, flags) = split_flags(rest)?;
            known_flags(
                &flags,
                &[
                    "rule",
                    "keyword",
                    "jobs",
                    "seed",
                    "dir",
                    "provenance",
                    "c-lift",
                    "c-supp",
                ],
            )?;
            let rule = flags
                .get("rule")
                .cloned()
                .ok_or_else(|| ParseError("explain needs --rule \"A, B => C\"".to_string()))?;
            if !rule.contains("=>") {
                return Err(ParseError(format!(
                    "--rule must contain `=>` separating antecedent and consequent (got `{rule}`)"
                )));
            }
            Ok(Command::Explain {
                trace: trace_arg(&positional)?,
                rule,
                keyword: flags.get("keyword").cloned(),
                jobs: get_parse(&flags, "jobs", 20_000)?,
                seed: get_parse(&flags, "seed", 0xdcc0)?,
                dir: flags.get("dir").cloned(),
                provenance: flags.get("provenance").cloned(),
                c_lift: flags
                    .get("c-lift")
                    .map(|raw| {
                        raw.parse()
                            .map_err(|_| ParseError(format!("invalid value for --c-lift: `{raw}`")))
                    })
                    .transpose()?,
                c_supp: flags
                    .get("c-supp")
                    .map(|raw| {
                        raw.parse()
                            .map_err(|_| ParseError(format!("invalid value for --c-supp: `{raw}`")))
                    })
                    .transpose()?,
            })
        }
        "experiments" => {
            let (positional, flags) = split_flags(rest)?;
            if !positional.is_empty() {
                return Err(ParseError(format!(
                    "unexpected argument `{}`",
                    positional[0]
                )));
            }
            known_flags(&flags, &["pai", "supercloud", "philly", "seed", "export"])?;
            Ok(Command::Experiments {
                pai: get_parse(&flags, "pai", 40_000)?,
                supercloud: get_parse(&flags, "supercloud", 8_000)?,
                philly: get_parse(&flags, "philly", 8_000)?,
                seed: get_parse(&flags, "seed", 0xdcc0)?,
                export: flags.get("export").cloned(),
            })
        }
        "watch" => {
            let (positional, flags) = split_flags(rest)?;
            known_flags(
                &flags,
                &[
                    "feed",
                    "jobs",
                    "seed",
                    "window",
                    "warmup",
                    "drift-threshold",
                    "cadence",
                    "max-arrivals",
                    "min-support",
                    "min-lift",
                    "keyword",
                    "top",
                    "metrics",
                    "metrics-format",
                    "listen",
                    "trace-log",
                    "budget-itemsets",
                    "budget-tree-mb",
                    "deadline",
                    "threads",
                ],
            )?;
            let feed = flags.get("feed").cloned();
            let trace = if positional.is_empty() {
                if feed.is_none() {
                    return Err(ParseError(
                        "watch needs a trace (pai|supercloud|philly) or --feed FILE|-".to_string(),
                    ));
                }
                None
            } else {
                Some(trace_arg(&positional)?)
            };
            Ok(Command::Watch {
                trace,
                feed,
                jobs: get_parse(&flags, "jobs", 6_000)?,
                seed: get_parse(&flags, "seed", 0x57)?,
                window: match get_parse(&flags, "window", 2_000)? {
                    0 => return Err(ParseError("--window must be >= 1".to_string())),
                    n => n,
                },
                warmup: flags
                    .get("warmup")
                    .map(|raw| {
                        raw.parse()
                            .map_err(|_| ParseError(format!("invalid value for --warmup: `{raw}`")))
                    })
                    .transpose()?,
                drift_threshold: get_parse(&flags, "drift-threshold", 0.35)?,
                cadence: get_parse(&flags, "cadence", 2_000)?,
                max_arrivals: flags
                    .get("max-arrivals")
                    .map(|raw| {
                        raw.parse().map_err(|_| {
                            ParseError(format!("invalid value for --max-arrivals: `{raw}`"))
                        })
                    })
                    .transpose()?,
                min_support: get_parse(&flags, "min-support", 0.05)?,
                min_lift: get_parse(&flags, "min-lift", 1.5)?,
                keyword: flags.get("keyword").cloned(),
                top: get_parse(&flags, "top", 5)?,
                metrics: flags.get("metrics").cloned(),
                metrics_format: get_parse(&flags, "metrics-format", MetricsFormat::Json)?,
                listen: match flags.get("listen") {
                    Some(raw) if raw.contains(':') => Some(raw.clone()),
                    Some(raw) => {
                        return Err(ParseError(format!(
                            "invalid value for --listen: `{raw}` (need HOST:PORT, \
                             e.g. 127.0.0.1:9184 or 127.0.0.1:0 for an ephemeral port)"
                        )))
                    }
                    None => None,
                },
                trace_log: flags.get("trace-log").cloned(),
                budget_itemsets: flags
                    .get("budget-itemsets")
                    .map(|raw| {
                        raw.parse().map_err(|_| {
                            ParseError(format!("invalid value for --budget-itemsets: `{raw}`"))
                        })
                    })
                    .transpose()?,
                budget_tree_mb: flags
                    .get("budget-tree-mb")
                    .map(|raw| {
                        raw.parse().map_err(|_| {
                            ParseError(format!("invalid value for --budget-tree-mb: `{raw}`"))
                        })
                    })
                    .transpose()?,
                deadline: flags
                    .get("deadline")
                    .map(|raw| {
                        parse_duration(raw)
                            .map_err(|e| ParseError(format!("invalid --deadline: {e}")))
                    })
                    .transpose()?,
                threads: flags
                    .get("threads")
                    .map(|raw| match raw.parse() {
                        Ok(n) if n >= 1 => Ok(n),
                        _ => Err(ParseError(format!(
                            "invalid value for --threads: `{raw}` (need an integer >= 1)"
                        ))),
                    })
                    .transpose()?,
            })
        }
        "serve" => {
            let (positional, flags) = split_flags(rest)?;
            if !positional.is_empty() {
                return Err(ParseError(format!(
                    "unexpected argument `{}`",
                    positional[0]
                )));
            }
            known_flags(
                &flags,
                &[
                    "listen",
                    "workers",
                    "queue-depth",
                    "cache-entries",
                    "budget-itemsets",
                    "budget-tree-mb",
                    "default-deadline",
                    "max-deadline",
                    "threads",
                ],
            )?;
            let listen = match flags.get("listen") {
                Some(raw) if raw.contains(':') => raw.clone(),
                Some(raw) => {
                    return Err(ParseError(format!(
                        "invalid value for --listen: `{raw}` (need HOST:PORT, \
                         e.g. 127.0.0.1:9185 or 127.0.0.1:0 for an ephemeral port)"
                    )))
                }
                None => "127.0.0.1:9185".to_string(),
            };
            Ok(Command::Serve {
                listen,
                workers: match get_parse(&flags, "workers", 2)? {
                    0 => return Err(ParseError("--workers must be >= 1".to_string())),
                    n => n,
                },
                queue_depth: match get_parse(&flags, "queue-depth", 32)? {
                    0 => return Err(ParseError("--queue-depth must be >= 1".to_string())),
                    n => n,
                },
                cache_entries: get_parse(&flags, "cache-entries", 64)?,
                budget_itemsets: flags
                    .get("budget-itemsets")
                    .map(|raw| {
                        raw.parse().map_err(|_| {
                            ParseError(format!("invalid value for --budget-itemsets: `{raw}`"))
                        })
                    })
                    .transpose()?,
                budget_tree_mb: flags
                    .get("budget-tree-mb")
                    .map(|raw| {
                        raw.parse().map_err(|_| {
                            ParseError(format!("invalid value for --budget-tree-mb: `{raw}`"))
                        })
                    })
                    .transpose()?,
                default_deadline: match flags.get("default-deadline") {
                    Some(raw) => parse_duration(raw)
                        .map_err(|e| ParseError(format!("invalid --default-deadline: {e}")))?,
                    None => Duration::from_secs(5),
                },
                max_deadline: match flags.get("max-deadline") {
                    Some(raw) => parse_duration(raw)
                        .map_err(|e| ParseError(format!("invalid --max-deadline: {e}")))?,
                    None => Duration::from_secs(30),
                },
                threads: flags
                    .get("threads")
                    .map(|raw| match raw.parse() {
                        Ok(n) if n >= 1 => Ok(n),
                        _ => Err(ParseError(format!(
                            "invalid value for --threads: `{raw}` (need an integer >= 1)"
                        ))),
                    })
                    .transpose()?,
            })
        }
        "trace" => {
            let (positional, flags) = split_flags(rest)?;
            known_flags(&flags, &["out"])?;
            let input = match positional.as_slice() {
                [input] => input.clone(),
                [] => {
                    return Err(ParseError(
                        "trace needs an input JSONL log (or - for stdin)".to_string(),
                    ))
                }
                [_, extra, ..] => return Err(ParseError(format!("unexpected argument `{extra}`"))),
            };
            Ok(Command::Trace {
                input,
                out: flags.get("out").cloned(),
            })
        }
        "predict" => {
            let (positional, flags) = split_flags(rest)?;
            known_flags(&flags, &["jobs", "threshold", "seed"])?;
            Ok(Command::Predict {
                trace: trace_arg(&positional)?,
                jobs: get_parse(&flags, "jobs", 20_000)?,
                threshold: get_parse(&flags, "threshold", 0.8)?,
                seed: get_parse(&flags, "seed", 0xdcc0)?,
            })
        }
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(ParseError(format!("unknown subcommand `{other}`"))),
    }
}

/// The help text.
pub const USAGE: &str = "\
irma — interpretable rule mining for GPU cluster traces (IPPS'24 reproduction)

USAGE:
  irma generate <trace> [--jobs N] [--seed S] [--out DIR]
      Generate a synthetic trace and write its scheduler/monitoring CSVs.
  irma analyze <trace> [--keyword K] [--jobs N] [--seed S] [--top N]
               [--dir DIR] [--insights true] [--metrics FILE]
               [--metrics-format json|openmetrics|table]
               [--verbose-stages true] [--trace-log FILE]
               [--budget-itemsets N] [--budget-tree-mb N] [--deadline DUR]
               [--threads N]
      Run the full workflow and print the keyword's cause/characteristic
      rules. With --dir, read CSVs previously written by `generate`.
      --metrics writes a snapshot of per-stage timers, cardinalities, and
      per-condition prune counts (JSON by default; --metrics-format
      switches to OpenMetrics exposition or the stage table);
      --verbose-stages prints the stage table on stderr; --trace-log
      streams span_open/span_close/counter events as JSONL while the run
      executes (tail -f friendly).
      --budget-itemsets / --budget-tree-mb / --deadline bound the run
      (DUR like 500us, 250ms, 2s, 5m). On a breach the workflow retries
      with raised min-support and lowered max itemset length and flags
      the result as degraded (exit code 4); if the ladder runs out, the
      run fails with a typed error (exit code 5) instead of aborting.
      --threads pins the mining work-stealing pool to N workers
      (default: one per core); --threads 1 forces fully sequential
      mining, useful for timing baselines and deterministic profiles.

EXIT CODES:
  0  success
  1  runtime error (IO, bad keyword, ...)
  2  usage error
  4  degraded success: budgets forced relaxed mining knobs; stderr and
     the metrics snapshot carry the degradation report
  5  pipeline error: typed stage failure (parse|encode|mine|rules|
     budget|worker_panic)
  irma explain <trace> --rule \"A, B => C\" [--keyword K] [--jobs N]
               [--seed S] [--dir DIR] [--provenance FILE]
               [--c-lift X] [--c-supp Y]
      Replay the decision path for one rule: its support/confidence/lift
      inputs, the generation threshold or pruning condition that killed
      it (winner/loser edges, including marking chains), or why it
      survived. --keyword defaults to the rule's first consequent label;
      --provenance dumps every rule's record as JSONL.
  irma experiments [--pai N] [--supercloud N] [--philly N] [--seed S]
                   [--export DIR]
      Regenerate every paper table and figure (optionally exporting the
      underlying data as CSVs).
  irma watch [<trace>] [--feed FILE|-] [--jobs N] [--seed S] [--window N]
             [--warmup N] [--drift-threshold X] [--cadence N]
             [--max-arrivals N] [--min-support X] [--min-lift X]
             [--keyword K] [--top N] [--metrics FILE]
             [--metrics-format json|openmetrics|table] [--listen ADDR]
             [--trace-log FILE] [--budget-itemsets N] [--budget-tree-mb N]
             [--deadline DUR] [--threads N]
      Run the streaming daemon: ingest trace records continuously, keep
      the FP-tree of the last --window transactions incrementally
      up to date, and re-emit the keyword's failure rules whenever window
      drift crosses --drift-threshold or --cadence arrivals elapse.
      Without --feed, a synthetic two-regime feed (normal load, then a
      failure wave) is generated from <trace>; with --feed, records are
      read as comma-separated item-id lines from FILE (or stdin with -).
      Ingestion runs through a bounded ring buffer: if the feed outruns
      mining, the producer first waits (backpressure) and then an
      adaptive sampler thins admissions — both are counted and exposed
      in the metrics snapshot, which --metrics rewrites on every
      emission. Budgets behave as in `analyze`, per emission: breaches
      climb the degradation ladder, and an exhausted ladder (or a worker
      panic) fails that emission only — the daemon itself keeps running
      (exit code 4 flags any degraded or failed emission at shutdown).
      --listen HOST:PORT (port 0 picks an ephemeral one, printed on
      stderr) embeds a scrape endpoint for the lifetime of the daemon:
      GET /metrics serves the live snapshot as OpenMetrics — counters,
      gauges, le-bucketed timer histograms, and the irma_sched_* pool
      scheduler families — and GET /healthz serves a small JSON health
      document (uptime, degraded flag, seconds since the last emission).
      --listen implies metrics collection even without --metrics.
  irma serve [--listen ADDR] [--workers N] [--queue-depth N]
             [--cache-entries N] [--budget-itemsets N] [--budget-tree-mb N]
             [--default-deadline DUR] [--max-deadline DUR] [--threads N]
      Run the multi-tenant rule-serving HTTP API (default
      127.0.0.1:9185; port 0 picks an ephemeral one, printed on stderr).
      POST /v1/analyze takes a CSV body (or `fp:<fingerprint>` to replay
      a cached dataset) plus query parameters (trace=, algorithm=,
      min_support=, max_len=, min_lift=, min_confidence=, keyword=,
      top=) and returns mined rules as JSON; GET /v1/explain/{rule}?fp=F
      explains one rule from cached provenance; GET /metrics and
      GET /healthz expose the runtime counters. Tenants identify with
      the x-irma-tenant header (default `anonymous`): each gets a
      token-bucket rate limit and a failure circuit breaker (429 +
      Retry-After when over). Analyses run under the same budgets as
      `analyze`, with a per-request deadline from x-irma-timeout-ms
      (clamped to --max-deadline): a degraded success is HTTP 200 with
      degraded:true — the HTTP mirror of exit code 4 — and budget
      exhaustion is 503/504. Full-fidelity results are cached (LRU,
      --cache-entries) keyed by dataset fingerprint + normalized config.
      SIGTERM/SIGINT drain in-flight requests and exit 0.
  irma trace <input.jsonl|-> [--out FILE]
      Convert a JSONL trace log (the --trace-log output of analyze or
      watch) into Chrome trace_event JSON: spans become slices on
      per-worker lanes, counters become counter tracks, one process per
      run id. Open the result in chrome://tracing or ui.perfetto.dev.
      Writes to stdout unless --out is given.
  irma predict <trace> [--jobs N] [--threshold T] [--seed S]
      Train the rule-list failure classifier and evaluate it held-out.
  irma help
      Show this message.

Traces: pai | supercloud | philly
";

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_generate() {
        let cmd = parse(&argv("generate pai --jobs 500 --seed 7 --out /tmp/x")).unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                trace: "pai".to_string(),
                jobs: 500,
                seed: 7,
                out: "/tmp/x".to_string(),
            }
        );
    }

    #[test]
    fn parses_analyze_defaults() {
        let cmd = parse(&argv("analyze supercloud")).unwrap();
        match cmd {
            Command::Analyze {
                trace,
                keyword,
                top,
                dir,
                insights,
                ..
            } => {
                assert_eq!(trace, "supercloud");
                assert_eq!(keyword, "SM Util = 0%");
                assert_eq!(top, 6);
                assert_eq!(dir, None);
                assert!(!insights);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn keyword_containing_spaces_survives() {
        let args = vec![
            "analyze".to_string(),
            "philly".to_string(),
            "--keyword".to_string(),
            "Job Killed".to_string(),
        ];
        match parse(&args).unwrap() {
            Command::Analyze { keyword, .. } => assert_eq!(keyword, "Job Killed"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_metrics_flags() {
        let cmd = parse(&argv(
            "analyze pai --metrics /tmp/m.json --verbose-stages true",
        ))
        .unwrap();
        match cmd {
            Command::Analyze {
                metrics,
                verbose_stages,
                ..
            } => {
                assert_eq!(metrics.as_deref(), Some("/tmp/m.json"));
                assert!(verbose_stages);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Defaults: no snapshot, no table.
        match parse(&argv("analyze pai")).unwrap() {
            Command::Analyze {
                metrics,
                verbose_stages,
                ..
            } => {
                assert_eq!(metrics, None);
                assert!(!verbose_stages);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_trace_log_and_metrics_format() {
        let cmd = parse(&argv(
            "analyze pai --metrics /tmp/m.om --metrics-format openmetrics --trace-log /tmp/t.jsonl",
        ))
        .unwrap();
        match cmd {
            Command::Analyze {
                metrics,
                metrics_format,
                trace_log,
                ..
            } => {
                assert_eq!(metrics.as_deref(), Some("/tmp/m.om"));
                assert_eq!(metrics_format, MetricsFormat::OpenMetrics);
                assert_eq!(trace_log.as_deref(), Some("/tmp/t.jsonl"));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("analyze pai --metrics-format yaml")).is_err());
    }

    #[test]
    fn parses_explain() {
        let args = vec![
            "explain".to_string(),
            "pai".to_string(),
            "--rule".to_string(),
            "Runtime = Bin1 => SM Util = 0%".to_string(),
            "--c-lift".to_string(),
            "1.0".to_string(),
        ];
        match parse(&args).unwrap() {
            Command::Explain {
                trace,
                rule,
                keyword,
                c_lift,
                c_supp,
                ..
            } => {
                assert_eq!(trace, "pai");
                assert_eq!(rule, "Runtime = Bin1 => SM Util = 0%");
                assert_eq!(keyword, None);
                assert_eq!(c_lift, Some(1.0));
                assert_eq!(c_supp, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        // --rule is mandatory and must contain `=>`.
        assert!(parse(&argv("explain pai")).is_err());
        let bad = vec![
            "explain".to_string(),
            "pai".to_string(),
            "--rule".to_string(),
            "no arrow here".to_string(),
        ];
        assert!(parse(&bad).is_err());
    }

    #[test]
    fn parses_budget_flags() {
        let cmd = parse(&argv(
            "analyze pai --budget-itemsets 5000 --budget-tree-mb 64 --deadline 250ms",
        ))
        .unwrap();
        match cmd {
            Command::Analyze {
                budget_itemsets,
                budget_tree_mb,
                deadline,
                ..
            } => {
                assert_eq!(budget_itemsets, Some(5000));
                assert_eq!(budget_tree_mb, Some(64));
                assert_eq!(deadline, Some(Duration::from_millis(250)));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Defaults: unlimited.
        match parse(&argv("analyze pai")).unwrap() {
            Command::Analyze {
                budget_itemsets,
                budget_tree_mb,
                deadline,
                ..
            } => {
                assert_eq!(budget_itemsets, None);
                assert_eq!(budget_tree_mb, None);
                assert_eq!(deadline, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("analyze pai --deadline fast")).is_err());
        assert!(parse(&argv("analyze pai --budget-itemsets many")).is_err());
    }

    #[test]
    fn parses_threads_flag() {
        match parse(&argv("analyze pai --threads 4")).unwrap() {
            Command::Analyze { threads, .. } => assert_eq!(threads, Some(4)),
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv("analyze pai")).unwrap() {
            Command::Analyze { threads, .. } => assert_eq!(threads, None),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("analyze pai --threads 0")).is_err());
        assert!(parse(&argv("analyze pai --threads lots")).is_err());
    }

    #[test]
    fn duration_grammar() {
        assert_eq!(parse_duration("500us"), Ok(Duration::from_micros(500)));
        assert_eq!(parse_duration("1ms"), Ok(Duration::from_millis(1)));
        assert_eq!(parse_duration("2s"), Ok(Duration::from_secs(2)));
        assert_eq!(parse_duration("5m"), Ok(Duration::from_secs(300)));
        assert!(parse_duration("").is_err());
        assert!(parse_duration("12").is_err());
        assert!(parse_duration("ms").is_err());
        assert!(parse_duration("1h").is_err());
        assert!(parse_duration("-5s").is_err());
    }

    #[test]
    fn usage_documents_exit_codes_and_budgets() {
        assert!(USAGE.contains("--deadline"));
        assert!(USAGE.contains("EXIT CODES"));
        assert!(USAGE.contains("4  degraded success"));
    }

    #[test]
    fn rejects_unknown_trace_and_flags() {
        assert!(parse(&argv("generate helios")).is_err());
        assert!(parse(&argv("generate pai --bogus 1")).is_err());
        assert!(parse(&argv("generate pai --jobs")).is_err());
        assert!(parse(&argv("generate pai --jobs abc")).is_err());
        assert!(parse(&argv("frobnicate")).is_err());
    }

    #[test]
    fn empty_and_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn parses_watch_with_defaults() {
        match parse(&argv("watch supercloud")).unwrap() {
            Command::Watch {
                trace,
                feed,
                window,
                warmup,
                cadence,
                max_arrivals,
                keyword,
                ..
            } => {
                assert_eq!(trace.as_deref(), Some("supercloud"));
                assert_eq!(feed, None);
                assert_eq!(window, 2_000);
                assert_eq!(warmup, None);
                assert_eq!(cadence, 2_000);
                assert_eq!(max_arrivals, None);
                assert_eq!(keyword, None);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_watch_feed_and_tuning() {
        let cmd = parse(&argv(
            "watch --feed - --window 512 --warmup 64 --drift-threshold 0.5 \
             --cadence 100 --max-arrivals 5000 --budget-itemsets 100 --deadline 2s",
        ))
        .unwrap();
        match cmd {
            Command::Watch {
                trace,
                feed,
                window,
                warmup,
                drift_threshold,
                cadence,
                max_arrivals,
                budget_itemsets,
                deadline,
                ..
            } => {
                assert_eq!(trace, None);
                assert_eq!(feed.as_deref(), Some("-"));
                assert_eq!(window, 512);
                assert_eq!(warmup, Some(64));
                assert!((drift_threshold - 0.5).abs() < 1e-12);
                assert_eq!(cadence, 100);
                assert_eq!(max_arrivals, Some(5_000));
                assert_eq!(budget_itemsets, Some(100));
                assert_eq!(deadline, Some(Duration::from_secs(2)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_watch_listen() {
        match parse(&argv("watch pai --listen 127.0.0.1:0")).unwrap() {
            Command::Watch { listen, .. } => assert_eq!(listen.as_deref(), Some("127.0.0.1:0")),
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv("watch pai")).unwrap() {
            Command::Watch { listen, .. } => assert_eq!(listen, None),
            other => panic!("unexpected {other:?}"),
        }
        // An address without a port cannot be bound — reject it early.
        assert!(parse(&argv("watch pai --listen localhost")).is_err());
    }

    #[test]
    fn watch_requires_trace_or_feed() {
        assert!(parse(&argv("watch")).is_err());
        assert!(parse(&argv("watch helios")).is_err());
        assert!(parse(&argv("watch pai --window 0")).is_err());
        assert!(parse(&argv("watch pai --bogus 1")).is_err());
        assert!(parse(&argv("watch --feed feed.txt")).is_ok());
    }

    #[test]
    fn parses_serve_with_defaults() {
        match parse(&argv("serve")).unwrap() {
            Command::Serve {
                listen,
                workers,
                queue_depth,
                cache_entries,
                budget_itemsets,
                default_deadline,
                max_deadline,
                threads,
                ..
            } => {
                assert_eq!(listen, "127.0.0.1:9185");
                assert_eq!(workers, 2);
                assert_eq!(queue_depth, 32);
                assert_eq!(cache_entries, 64);
                assert_eq!(budget_itemsets, None);
                assert_eq!(default_deadline, Duration::from_secs(5));
                assert_eq!(max_deadline, Duration::from_secs(30));
                assert_eq!(threads, None);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_serve_tuning() {
        let cmd = parse(&argv(
            "serve --listen 127.0.0.1:0 --workers 4 --queue-depth 8 \
             --cache-entries 16 --budget-itemsets 100000 --max-deadline 10s",
        ))
        .unwrap();
        match cmd {
            Command::Serve {
                listen,
                workers,
                queue_depth,
                cache_entries,
                budget_itemsets,
                max_deadline,
                ..
            } => {
                assert_eq!(listen, "127.0.0.1:0");
                assert_eq!(workers, 4);
                assert_eq!(queue_depth, 8);
                assert_eq!(cache_entries, 16);
                assert_eq!(budget_itemsets, Some(100_000));
                assert_eq!(max_deadline, Duration::from_secs(10));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("serve --listen noport")).is_err());
        assert!(parse(&argv("serve --workers 0")).is_err());
        assert!(parse(&argv("serve --queue-depth 0")).is_err());
        assert!(parse(&argv("serve stray")).is_err());
        assert!(parse(&argv("serve --bogus 1")).is_err());
    }

    #[test]
    fn usage_documents_serve() {
        assert!(USAGE.contains("irma serve"));
        assert!(USAGE.contains("x-irma-tenant"));
        assert!(USAGE.contains("x-irma-timeout-ms"));
    }

    #[test]
    fn parses_trace_subcommand() {
        assert_eq!(
            parse(&argv("trace /tmp/run.jsonl")).unwrap(),
            Command::Trace {
                input: "/tmp/run.jsonl".to_string(),
                out: None,
            }
        );
        assert_eq!(
            parse(&argv("trace - --out /tmp/chrome.json")).unwrap(),
            Command::Trace {
                input: "-".to_string(),
                out: Some("/tmp/chrome.json".to_string()),
            }
        );
        assert!(parse(&argv("trace")).is_err());
        assert!(parse(&argv("trace a.jsonl b.jsonl")).is_err());
        assert!(parse(&argv("trace a.jsonl --bogus 1")).is_err());
    }

    #[test]
    fn parses_experiments_and_predict() {
        let cmd = parse(&argv("experiments --pai 100 --export /tmp/e")).unwrap();
        match cmd {
            Command::Experiments { pai, export, .. } => {
                assert_eq!(pai, 100);
                assert_eq!(export.as_deref(), Some("/tmp/e"));
            }
            other => panic!("unexpected {other:?}"),
        }
        let cmd = parse(&argv("predict pai --threshold 0.6")).unwrap();
        match cmd {
            Command::Predict { threshold, .. } => assert!((threshold - 0.6).abs() < 1e-12),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("experiments stray")).is_err());
    }
}
