//! Argument parsing for the `irma` binary, kept dependency-free (no clap).
//!
//! One flag table per subcommand (`SUBCOMMANDS`) drives the parser and the [`USAGE`] synopses.

use std::collections::HashMap;
use std::fmt::Display;
use std::str::FromStr;
use std::sync::LazyLock;
use std::time::Duration;

use irma_core::{Snapshot, Trace};

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

impl FromStr for MetricsFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<MetricsFormat, String> {
        match s {
            "json" => Ok(MetricsFormat::Json),
            "openmetrics" => Ok(MetricsFormat::OpenMetrics),
            "table" => Ok(MetricsFormat::Table),
            _ => Err("expected json|openmetrics|table".to_string()),
        }
    }
}

impl MetricsFormat {
    /// Renders `snapshot` in this format.
    pub fn render(self, snapshot: &Snapshot) -> String {
        match self {
            MetricsFormat::Json => snapshot.to_json(),
            MetricsFormat::OpenMetrics => snapshot.to_openmetrics(),
            MetricsFormat::Table => snapshot.render_table(),
        }
    }
}

/// The telemetry flags: `--metrics FILE`, `--metrics-format F` and
/// `--trace-log FILE`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Telemetry {
    /// Optional path for a metrics snapshot of the run.
    pub metrics: Option<String>,
    /// Format of the `--metrics` snapshot file.
    pub metrics_format: MetricsFormat,
    /// Optional path for a live JSONL trace of span/counter events.
    pub trace_log: Option<String>,
}

/// The budget flags: `--budget-itemsets N`, `--budget-tree-mb N` and
/// `--deadline DUR`. `serve` takes no `--deadline` (its deadlines come
/// per request), so its `deadline` is always `None`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Budget {
    /// Cap on mined itemsets per run before the degradation ladder kicks in.
    pub itemsets: Option<u64>,
    /// Cap on the miner's index memory per run (FP-tree arenas or
    /// tid-sets), in MiB.
    pub tree_mb: Option<u64>,
    /// Wall-clock deadline per mining run (e.g. `250ms`).
    pub deadline: Option<Duration>,
}

/// An `explain --rule "A, B => C"` argument: the labels on each side.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleSpec {
    /// Antecedent labels, in the order given.
    pub antecedent: Vec<String>,
    /// Consequent labels, in the order given.
    pub consequent: Vec<String>,
}

impl FromStr for RuleSpec {
    type Err = String;

    fn from_str(rule: &str) -> Result<RuleSpec, String> {
        let (lhs, rhs) = rule
            .split_once("=>")
            .ok_or("need `=>` between antecedent and consequent")?;
        let labels = |side: &str| -> Vec<String> {
            side.split(',')
                .map(str::trim)
                .filter(|label| !label.is_empty())
                .map(String::from)
                .collect()
        };
        let (antecedent, consequent) = (labels(lhs), labels(rhs));
        if antecedent.is_empty() || consequent.is_empty() {
            return Err("need labels on both sides of `=>`".to_string());
        }
        Ok(RuleSpec {
            antecedent,
            consequent,
        })
    }
}

/// A rule equals any text that parses to it.
impl PartialEq<&str> for RuleSpec {
    fn eq(&self, text: &&str) -> bool {
        text.parse::<RuleSpec>().as_ref() == Ok(self)
    }
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `irma generate`: write a synthetic trace's CSV pair.
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
    /// `irma analyze`: the full workflow; `--dir` re-reads CSVs written by
    /// `generate`.
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
        /// Also print the per-stage timing/cardinality table.
        verbose_stages: bool,
        /// Metrics snapshot and trace log of the run.
        telemetry: Telemetry,
        /// Mining budget for the whole run.
        budget: Budget,
        /// Worker threads for the pass's pool (default: one per core).
        threads: Option<usize>,
    },
    /// `irma explain`: replay the generation/pruning decision path for one
    /// rule.
    Explain {
        /// Trace profile name.
        trace: String,
        /// The rule to explain.
        rule: RuleSpec,
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
    /// `irma experiments`: every paper table and figure.
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
    /// `irma watch`: the long-running streaming daemon.
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
        /// Metrics snapshot (rewritten per emission) and trace log.
        telemetry: Telemetry,
        /// Optional address (`HOST:PORT`, port 0 for ephemeral) for the
        /// embedded `/metrics` + `/healthz` scrape endpoint.
        listen: Option<String>,
        /// Mining budget per emission.
        budget: Budget,
        /// Worker threads for the mining pool (default: one per core).
        threads: Option<usize>,
    },
    /// `irma serve`: the multi-tenant rule-serving HTTP API.
    Serve {
        /// Bind address (`HOST:PORT`, port 0 for ephemeral).
        listen: String,
        /// HTTP worker threads.
        workers: usize,
        /// Bounded connection-queue depth (503 past it).
        queue_depth: usize,
        /// Result-cache capacity, in entries.
        cache_entries: usize,
        /// Mining budget per request (no deadline: see below).
        budget: Budget,
        /// Deadline when the client sends no `x-irma-timeout-ms` header.
        default_deadline: Duration,
        /// Hard cap on client-requested deadlines.
        max_deadline: Duration,
        /// Worker threads for the mining pool (default: one per core).
        threads: Option<usize>,
    },
    /// `irma trace`: convert a JSONL trace log (`--trace-log` output) into
    /// Chrome `trace_event` JSON for chrome://tracing / Perfetto.
    Trace {
        /// The JSONL trace log, or `-` for stdin.
        input: String,
        /// Output path; stdout when absent.
        out: Option<String>,
    },
    /// `irma predict`: train and evaluate the rule-list failure classifier.
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
    /// `irma help` or no arguments.
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

/// Parses a human-friendly duration: an integer immediately followed by
/// a unit (`us`, `ms`, `s`, `m`), e.g. `500us`, `250ms`, `2s`, `5m`.
pub fn parse_duration(raw: &str) -> Result<Duration, String> {
    let raw = raw.trim();
    let split = raw
        .find(|c: char| !c.is_ascii_digit())
        .ok_or("missing a unit (us|ms|s|m)")?;
    let (digits, unit) = raw.split_at(split);
    let value: u64 = digits
        .parse()
        .map_err(|_| "need an integer before the unit")?;
    match unit {
        "us" => Ok(Duration::from_micros(value)),
        "ms" => Ok(Duration::from_millis(value)),
        "s" => Ok(Duration::from_secs(value)),
        "m" => Ok(Duration::from_secs(value * 60)),
        other => Err(format!("unknown unit `{other}` (expected us|ms|s|m)")),
    }
}

/// A `--name METAVAR` flag. The synopsis brackets it unless it is
/// required.
#[derive(Debug, Clone, Copy)]
struct Flag {
    name: &'static str,
    metavar: &'static str,
    required: bool,
}

const fn flag(name: &'static str, metavar: &'static str) -> Flag {
    Flag {
        name,
        metavar,
        required: false,
    }
}

const BUDGET_ITEMSETS: Flag = flag("budget-itemsets", "N");
const BUDGET_TREE_MB: Flag = flag("budget-tree-mb", "N");
const C_LIFT: Flag = flag("c-lift", "X");
const C_SUPP: Flag = flag("c-supp", "Y");
const CACHE_ENTRIES: Flag = flag("cache-entries", "N");
const CADENCE: Flag = flag("cadence", "N");
const DEADLINE: Flag = flag("deadline", "DUR");
const DEFAULT_DEADLINE: Flag = flag("default-deadline", "DUR");
const DIR: Flag = flag("dir", "DIR");
const DRIFT_THRESHOLD: Flag = flag("drift-threshold", "X");
const EXPORT: Flag = flag("export", "DIR");
const FEED: Flag = flag("feed", "FILE|-");
const INSIGHTS: Flag = flag("insights", "true");
const JOBS: Flag = flag("jobs", "N");
const KEYWORD: Flag = flag("keyword", "K");
const LISTEN: Flag = flag("listen", "ADDR");
const MAX_ARRIVALS: Flag = flag("max-arrivals", "N");
const MAX_DEADLINE: Flag = flag("max-deadline", "DUR");
const METRICS: Flag = flag("metrics", "FILE");
const METRICS_FORMAT: Flag = flag("metrics-format", "json|openmetrics|table");
const MIN_LIFT: Flag = flag("min-lift", "X");
const MIN_SUPPORT: Flag = flag("min-support", "X");
const OUT_DIR: Flag = flag("out", "DIR");
const OUT_FILE: Flag = Flag {
    metavar: "FILE",
    ..OUT_DIR
};
const PAI: Flag = flag("pai", "N");
const PHILLY: Flag = flag("philly", "N");
const PROVENANCE: Flag = flag("provenance", "FILE");
const QUEUE_DEPTH: Flag = flag("queue-depth", "N");
const RULE: Flag = Flag {
    required: true,
    ..flag("rule", "\"A, B => C\"")
};
const SEED: Flag = flag("seed", "S");
const SUPERCLOUD: Flag = flag("supercloud", "N");
const THREADS: Flag = flag("threads", "N");
const THRESHOLD: Flag = flag("threshold", "T");
const TOP: Flag = flag("top", "N");
const TRACE_LOG: Flag = flag("trace-log", "FILE");
const VERBOSE_STAGES: Flag = flag("verbose-stages", "true");
const WARMUP: Flag = flag("warmup", "N");
const WINDOW: Flag = flag("window", "N");
const WORKERS: Flag = flag("workers", "N");

/// The flag groups several subcommands share.
const TELEMETRY: &[Flag] = &[METRICS, METRICS_FORMAT, TRACE_LOG];
const BUDGET_CAPS: &[Flag] = &[BUDGET_ITEMSETS, BUDGET_TREE_MB];

/// One subcommand's arguments: its positionals and the values of the
/// flags its table declares.
struct Args<'a> {
    positional: Vec<&'a str>,
    values: HashMap<&'static str, &'a str>,
}

impl<'a> Args<'a> {
    /// Splits `args` into positionals and `--flag value` pairs, rejecting
    /// any flag `subcommand` does not declare. A repeated flag keeps its
    /// last value.
    fn new(subcommand: &Subcommand, args: &'a [String]) -> Result<Args<'a>, ParseError> {
        let mut positional = Vec::new();
        let mut values = HashMap::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let Some(name) = arg.strip_prefix("--") else {
                positional.push(arg.as_str());
                continue;
            };
            let value = args
                .next()
                .ok_or_else(|| ParseError(format!("flag --{name} needs a value")))?;
            let flag = subcommand
                .flags()
                .find(|flag| flag.name == name)
                .ok_or_else(|| ParseError(format!("unknown flag --{name}")))?;
            values.insert(flag.name, value.as_str());
        }
        Ok(Args { positional, values })
    }

    /// The flag's value run through `parse`, if given. A failure names
    /// the flag, the value and what `parse` found wrong with it.
    fn value<T>(
        &self,
        flag: Flag,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<Option<T>, ParseError> {
        let Some(raw) = self.values.get(flag.name) else {
            return Ok(None);
        };
        parse(raw)
            .map(Some)
            .map_err(|why| ParseError(format!("invalid value for --{}: `{raw}`: {why}", flag.name)))
    }

    /// The flag's value, if given.
    fn opt<T: FromStr<Err: Display>>(&self, flag: Flag) -> Result<Option<T>, ParseError> {
        self.value(flag, |raw| raw.parse().map_err(|e: T::Err| e.to_string()))
    }

    /// The flag's value, or `default` when it is absent.
    fn get<T: FromStr<Err: Display>>(&self, flag: Flag, default: T) -> Result<T, ParseError> {
        Ok(self.opt(flag)?.unwrap_or(default))
    }

    /// An integer that must be >= 1, if given.
    fn count(&self, flag: Flag) -> Result<Option<usize>, ParseError> {
        self.value(flag, |raw| {
            raw.parse()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| "need an integer >= 1".to_string())
        })
    }

    /// A `HOST:PORT` bind address, if given: without a port it could not
    /// be bound.
    fn address(&self, flag: Flag) -> Result<Option<String>, ParseError> {
        self.value(flag, |raw| match raw.contains(':') {
            true => Ok(raw.to_string()),
            false => Err("need HOST:PORT (port 0 picks an ephemeral one)".to_string()),
        })
    }

    /// The only positional, which must name a trace profile.
    fn trace(&self) -> Result<String, ParseError> {
        let name = self
            .positional
            .first()
            .ok_or_else(|| ParseError("missing trace name (pai|supercloud|philly)".to_string()))?;
        name.parse::<Trace>().map_err(ParseError)?;
        self.at_most(1)?;
        Ok(name.to_string())
    }

    /// Rejects positionals past the first `n`.
    fn at_most(&self, n: usize) -> Result<(), ParseError> {
        match self.positional.get(n) {
            Some(extra) => Err(ParseError(format!("unexpected argument `{extra}`"))),
            None => Ok(()),
        }
    }

    fn telemetry(&self) -> Result<Telemetry, ParseError> {
        Ok(Telemetry {
            metrics: self.opt(METRICS)?,
            metrics_format: self.get(METRICS_FORMAT, MetricsFormat::Json)?,
            trace_log: self.opt(TRACE_LOG)?,
        })
    }

    fn budget(&self) -> Result<Budget, ParseError> {
        Ok(Budget {
            itemsets: self.opt(BUDGET_ITEMSETS)?,
            tree_mb: self.opt(BUDGET_TREE_MB)?,
            deadline: self.value(DEADLINE, parse_duration)?,
        })
    }
}

/// One subcommand's positionals and flag table: the parser checks
/// arguments against it and [`USAGE`] renders its synopsis from it.
struct Subcommand {
    name: &'static str,
    /// The positionals as the synopsis shows them.
    args: &'static str,
    /// Flag groups, in synopsis order.
    flags: &'static [&'static [Flag]],
}

impl Subcommand {
    fn flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.flags.iter().copied().flatten()
    }

    /// `  irma NAME ARGS [--flag METAVAR] ...`, wrapped at 77 columns with
    /// continuation lines aligned after the name.
    fn synopsis(&self) -> String {
        let head = format!("  irma {}", self.name);
        let flags = self.flags().map(|flag| match flag.required {
            true => format!("--{} {}", flag.name, flag.metavar),
            false => format!("[--{} {}]", flag.name, flag.metavar),
        });
        let args = (!self.args.is_empty()).then(|| self.args.to_string());
        let mut synopsis = String::new();
        let mut line = head.clone();
        for word in args.into_iter().chain(flags) {
            if line.len() > head.len() && line.len() + 1 + word.len() > 77 {
                synopsis = synopsis + &line + "\n";
                line = " ".repeat(head.len());
            }
            line = line + " " + &word;
        }
        synopsis + &line + "\n"
    }
}

/// Every subcommand but `help`, which takes no arguments.
const SUBCOMMANDS: &[Subcommand] = &[
    Subcommand {
        name: "generate",
        args: "<trace>",
        flags: &[&[JOBS, SEED, OUT_DIR]],
    },
    Subcommand {
        name: "analyze",
        args: "<trace>",
        flags: &[
            &[KEYWORD, JOBS, SEED, TOP, DIR, INSIGHTS, VERBOSE_STAGES],
            TELEMETRY,
            BUDGET_CAPS,
            &[DEADLINE, THREADS],
        ],
    },
    Subcommand {
        name: "explain",
        args: "<trace>",
        flags: &[&[RULE, KEYWORD, JOBS, SEED, DIR, PROVENANCE, C_LIFT, C_SUPP]],
    },
    Subcommand {
        name: "experiments",
        args: "",
        flags: &[&[PAI, SUPERCLOUD, PHILLY, SEED, EXPORT]],
    },
    Subcommand {
        name: "watch",
        args: "[<trace>]",
        flags: &[
            &[
                FEED,
                JOBS,
                SEED,
                WINDOW,
                WARMUP,
                DRIFT_THRESHOLD,
                CADENCE,
                MAX_ARRIVALS,
                MIN_SUPPORT,
                MIN_LIFT,
                KEYWORD,
                TOP,
                LISTEN,
            ],
            TELEMETRY,
            BUDGET_CAPS,
            &[DEADLINE, THREADS],
        ],
    },
    Subcommand {
        name: "serve",
        args: "",
        flags: &[
            &[LISTEN, WORKERS, QUEUE_DEPTH, CACHE_ENTRIES],
            BUDGET_CAPS,
            &[DEFAULT_DEADLINE, MAX_DEADLINE, THREADS],
        ],
    },
    Subcommand {
        name: "trace",
        args: "<input.jsonl|->",
        flags: &[&[OUT_FILE]],
    },
    Subcommand {
        name: "predict",
        args: "<trace>",
        flags: &[&[JOBS, THRESHOLD, SEED]],
    },
];

/// Parses the full argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let Some((name, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        return Ok(Command::Help);
    }
    let subcommand = SUBCOMMANDS
        .iter()
        .find(|subcommand| subcommand.name == name)
        .ok_or_else(|| ParseError(format!("unknown subcommand `{name}`")))?;
    let a = Args::new(subcommand, rest)?;
    match subcommand.name {
        "generate" => Ok(Command::Generate {
            trace: a.trace()?,
            jobs: a.get(JOBS, 20_000)?,
            seed: a.get(SEED, 0xdcc0)?,
            out: a.get(OUT_DIR, ".".to_string())?,
        }),
        "analyze" => Ok(Command::Analyze {
            trace: a.trace()?,
            keyword: a.get(KEYWORD, "SM Util = 0%".to_string())?,
            jobs: a.get(JOBS, 20_000)?,
            seed: a.get(SEED, 0xdcc0)?,
            top: a.get(TOP, 6)?,
            dir: a.opt(DIR)?,
            insights: a.get(INSIGHTS, false)?,
            verbose_stages: a.get(VERBOSE_STAGES, false)?,
            telemetry: a.telemetry()?,
            budget: a.budget()?,
            threads: a.count(THREADS)?,
        }),
        "explain" => {
            let rule = a
                .opt(RULE)?
                .ok_or_else(|| ParseError("explain needs --rule \"A, B => C\"".to_string()))?;
            Ok(Command::Explain {
                trace: a.trace()?,
                rule,
                keyword: a.opt(KEYWORD)?,
                jobs: a.get(JOBS, 20_000)?,
                seed: a.get(SEED, 0xdcc0)?,
                dir: a.opt(DIR)?,
                provenance: a.opt(PROVENANCE)?,
                c_lift: a.opt(C_LIFT)?,
                c_supp: a.opt(C_SUPP)?,
            })
        }
        "experiments" => {
            a.at_most(0)?;
            Ok(Command::Experiments {
                pai: a.get(PAI, 40_000)?,
                supercloud: a.get(SUPERCLOUD, 8_000)?,
                philly: a.get(PHILLY, 8_000)?,
                seed: a.get(SEED, 0xdcc0)?,
                export: a.opt(EXPORT)?,
            })
        }
        "watch" => {
            let feed = a.opt(FEED)?;
            let trace = match a.positional.is_empty() {
                false => Some(a.trace()?),
                true if feed.is_some() => None,
                true => {
                    return Err(ParseError(
                        "watch needs a trace (pai|supercloud|philly) or --feed FILE|-".to_string(),
                    ))
                }
            };
            Ok(Command::Watch {
                trace,
                feed,
                jobs: a.get(JOBS, 6_000)?,
                seed: a.get(SEED, 0x57)?,
                window: a.count(WINDOW)?.unwrap_or(2_000),
                warmup: a.opt(WARMUP)?,
                drift_threshold: a.get(DRIFT_THRESHOLD, 0.35)?,
                cadence: a.get(CADENCE, 2_000)?,
                max_arrivals: a.opt(MAX_ARRIVALS)?,
                min_support: a.get(MIN_SUPPORT, 0.05)?,
                min_lift: a.get(MIN_LIFT, 1.5)?,
                keyword: a.opt(KEYWORD)?,
                top: a.get(TOP, 5)?,
                telemetry: a.telemetry()?,
                listen: a.address(LISTEN)?,
                budget: a.budget()?,
                threads: a.count(THREADS)?,
            })
        }
        "serve" => {
            a.at_most(0)?;
            Ok(Command::Serve {
                listen: a
                    .address(LISTEN)?
                    .unwrap_or_else(|| "127.0.0.1:9185".to_string()),
                workers: a.count(WORKERS)?.unwrap_or(2),
                queue_depth: a.count(QUEUE_DEPTH)?.unwrap_or(32),
                cache_entries: a.get(CACHE_ENTRIES, 64)?,
                budget: a.budget()?,
                default_deadline: a
                    .value(DEFAULT_DEADLINE, parse_duration)?
                    .unwrap_or(Duration::from_secs(5)),
                max_deadline: a
                    .value(MAX_DEADLINE, parse_duration)?
                    .unwrap_or(Duration::from_secs(30)),
                threads: a.count(THREADS)?,
            })
        }
        "trace" => {
            a.at_most(1)?;
            let input = a.positional.first().ok_or_else(|| {
                ParseError("trace needs an input JSONL log (or - for stdin)".to_string())
            })?;
            Ok(Command::Trace {
                input: input.to_string(),
                out: a.opt(OUT_FILE)?,
            })
        }
        "predict" => Ok(Command::Predict {
            trace: a.trace()?,
            jobs: a.get(JOBS, 20_000)?,
            threshold: a.get(THRESHOLD, 0.8)?,
            seed: a.get(SEED, 0xdcc0)?,
        }),
        other => unreachable!("subcommand `{other}` has no parser"),
    }
}

/// The help text, with a `{name}` line where each subcommand's synopsis
/// goes.
const HELP: &str = "\
irma — interpretable rule mining for GPU cluster traces (IPPS'24 reproduction)

USAGE:
{generate}
      Generate a synthetic trace and write its scheduler/monitoring CSVs.
{analyze}
      Run the full workflow and print the keyword's cause/characteristic
      rules. With --dir, read CSVs previously written by `generate`.
      --metrics writes a snapshot of per-stage timers, cardinalities, and
      per-condition prune counts (JSON by default; --metrics-format
      switches to OpenMetrics exposition or the stage table);
      --verbose-stages prints the stage table on stderr; --trace-log
      streams span_open/span_close/counter events as JSONL while the run
      executes (tail -f friendly).
      --budget-itemsets / --budget-tree-mb / --deadline bound the run:
      mined itemsets, miner index memory in MiB (FP-tree arenas or
      tid-sets) and wall time (DUR like 500us, 250ms, 2s, 5m). On a
      breach the workflow retries with raised min-support and lowered
      max itemset length and flags the result as degraded (exit code
      4); if the ladder runs out, the run fails with a typed error
      (exit code 5) instead of aborting.
      --threads pins the work-stealing pool to N workers for the whole
      pass, from CSV parse to the rendered tables (default: one per
      core); --threads 1 runs it fully sequentially, useful for timing
      baselines and deterministic profiles. Output never depends on N.
{explain}
      Replay the decision path for one rule: its support/confidence/lift
      inputs, the generation threshold or pruning condition that killed
      it (winner/loser edges, including marking chains), or why it
      survived. --keyword defaults to the rule's first consequent label;
      --provenance dumps every rule's record as JSONL.
{experiments}
      Regenerate every paper table and figure (optionally exporting the
      underlying data as CSVs).
{watch}
      Run the streaming daemon: ingest trace records continuously into a
      window of the last --window transactions, and whenever window
      drift crosses --drift-threshold or --cadence arrivals elapse, mine
      the window (Eclat, as in `analyze`) and re-emit the keyword's
      failure rules.
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
{serve}
      Run the multi-tenant rule-serving HTTP API (default
      127.0.0.1:9185; port 0 picks an ephemeral one, printed on stderr).
      POST /v1/analyze takes a CSV body (or `fp:<fingerprint>` to replay
      a cached dataset) plus query parameters (trace=, algorithm=,
      min_support=, max_len=, min_lift=, min_confidence=, keyword=,
      top=) and returns mined rules as JSON; GET /v1/explain/{rule}?fp=F
      explains one rule from the cached analysis; GET /metrics and
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
{trace}
      Convert a JSONL trace log (the --trace-log output of analyze or
      watch) into Chrome trace_event JSON: spans become slices on
      per-worker lanes, counters become counter tracks, one process per
      run id. Open the result in chrome://tracing or ui.perfetto.dev.
      Writes to stdout unless --out is given.
{predict}
      Train the rule-list failure classifier and evaluate it held-out.
  irma help
      Show this message.

EXIT CODES:
  0  success
  1  runtime error (IO, bad keyword, ...)
  2  usage error
  4  degraded success: budgets forced relaxed mining knobs; stderr and
     the metrics snapshot carry the degradation report
  5  pipeline error: typed stage failure (parse|encode|mine|rules|
     budget|worker_panic)

Traces: pai | supercloud | philly
";

/// The help text, each synopsis rendered from its subcommand's flag table.
pub static USAGE: LazyLock<String> = LazyLock::new(|| {
    SUBCOMMANDS
        .iter()
        .fold(HELP.to_string(), |help, subcommand| {
            help.replace(
                &format!("{{{}}}\n", subcommand.name),
                &subcommand.synopsis(),
            )
        })
});

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
                telemetry: Telemetry { metrics, .. },
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
                telemetry: Telemetry { metrics, .. },
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
                telemetry:
                    Telemetry {
                        metrics,
                        metrics_format,
                        trace_log,
                    },
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
                budget:
                    Budget {
                        itemsets: budget_itemsets,
                        tree_mb: budget_tree_mb,
                        deadline,
                    },
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
                budget:
                    Budget {
                        itemsets: budget_itemsets,
                        tree_mb: budget_tree_mb,
                        deadline,
                    },
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
        let rejected = [
            ("frobnicate", "unknown subcommand `frobnicate`"),
            ("generate", "missing trace name (pai|supercloud|philly)"),
            (
                "generate helios",
                "unknown trace `helios` (expected pai|supercloud|philly)",
            ),
            ("generate pai --bogus 1", "unknown flag --bogus"),
            ("generate pai --jobs", "flag --jobs needs a value"),
            (
                "generate pai --jobs abc",
                "invalid value for --jobs: `abc`: invalid digit found in string",
            ),
            (
                "analyze pai --insights yes",
                "invalid value for --insights: `yes`: provided string was not `true` or `false`",
            ),
            (
                "analyze pai --metrics-format yaml",
                "invalid value for --metrics-format: `yaml`: expected json|openmetrics|table",
            ),
            (
                "analyze pai --deadline fast",
                "invalid value for --deadline: `fast`: need an integer before the unit",
            ),
            (
                "analyze pai --deadline 12",
                "invalid value for --deadline: `12`: missing a unit (us|ms|s|m)",
            ),
            (
                "analyze pai --deadline 5h",
                "invalid value for --deadline: `5h`: unknown unit `h` (expected us|ms|s|m)",
            ),
            (
                "analyze pai --threads 0",
                "invalid value for --threads: `0`: need an integer >= 1",
            ),
            (
                "watch pai --window 0",
                "invalid value for --window: `0`: need an integer >= 1",
            ),
            (
                "watch",
                "watch needs a trace (pai|supercloud|philly) or --feed FILE|-",
            ),
            (
                "serve --listen noport",
                "invalid value for --listen: `noport`: need HOST:PORT (port 0 picks an ephemeral one)",
            ),
            (
                "serve --workers 0",
                "invalid value for --workers: `0`: need an integer >= 1",
            ),
            ("serve stray", "unexpected argument `stray`"),
            ("explain pai", "explain needs --rule \"A, B => C\""),
            (
                "explain pai --rule no-arrow",
                "invalid value for --rule: `no-arrow`: need `=>` between antecedent and consequent",
            ),
            (
                "explain pai --rule =>SM",
                "invalid value for --rule: `=>SM`: need labels on both sides of `=>`",
            ),
            ("experiments stray", "unexpected argument `stray`"),
            ("trace", "trace needs an input JSONL log (or - for stdin)"),
            ("trace a.jsonl b.jsonl", "unexpected argument `b.jsonl`"),
            ("generate pai supercloud", "unexpected argument `supercloud`"),
            ("analyze pai extra", "unexpected argument `extra`"),
            ("explain pai extra --rule A=>B", "unexpected argument `extra`"),
            ("predict philly pai", "unexpected argument `pai`"),
            ("watch pai extra", "unexpected argument `extra`"),
            (
                "predict pai --threshold high",
                "invalid value for --threshold: `high`: invalid float literal",
            ),
        ];
        for (args, message) in rejected {
            assert_eq!(
                parse(&argv(args)),
                Err(ParseError(message.to_string())),
                "{args}"
            );
        }
    }

    /// The flags each subcommand accepted before the flag table existed.
    const ACCEPTED: [(&str, &[&str]); 8] = [
        ("generate", &["jobs", "seed", "out"]),
        (
            "analyze",
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
        ),
        (
            "explain",
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
        ),
        (
            "experiments",
            &["pai", "supercloud", "philly", "seed", "export"],
        ),
        (
            "watch",
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
        ),
        (
            "serve",
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
        ),
        ("trace", &["out"]),
        ("predict", &["jobs", "threshold", "seed"]),
    ];

    #[test]
    fn every_declared_flag_is_read_documented_and_accepted_as_before() {
        // A value unlike every default, so a flag the parser ignores shows.
        let sample = |flag: &str| match flag {
            "rule" => "A => B",
            "metrics-format" => "table",
            "insights" | "verbose-stages" => "true",
            "listen" => "127.0.0.1:0",
            "deadline" | "default-deadline" | "max-deadline" => "7ms",
            "drift-threshold" | "min-support" | "min-lift" | "c-lift" | "c-supp" | "threshold" => {
                "0.25"
            }
            _ => "3",
        };
        assert_eq!(SUBCOMMANDS.len(), ACCEPTED.len());
        for (name, accepted) in ACCEPTED {
            let subcommand = SUBCOMMANDS.iter().find(|s| s.name == name).unwrap();
            let mut declared: Vec<&str> = subcommand.flags().map(|flag| flag.name).collect();
            let mut accepted = accepted.to_vec();
            declared.sort_unstable();
            accepted.sort_unstable();
            assert_eq!(declared, accepted, "{name}");

            let base = match name {
                "explain" => "explain pai --rule X=>Y".to_string(),
                "experiments" | "serve" => name.to_string(),
                "trace" => "trace run.jsonl".to_string(),
                _ => format!("{name} pai"),
            };
            let defaults = parse(&argv(&base)).unwrap();
            let synopsis = subcommand.synopsis();
            assert!(USAGE.contains(&synopsis), "{name}");
            for flag in subcommand.flags() {
                let mut args = argv(&base);
                args.extend([format!("--{}", flag.name), sample(flag.name).to_string()]);
                let parsed = parse(&args).unwrap_or_else(|e| panic!("{name} --{}: {e}", flag.name));
                assert_ne!(parsed, defaults, "{name} ignores --{}", flag.name);
                assert!(
                    synopsis.contains(&format!("--{} ", flag.name)),
                    "{name} --{}",
                    flag.name
                );
            }
        }
        // Every placeholder got its synopsis, and the exit codes follow
        // the command list.
        assert!(!USAGE.lines().any(|line| line.starts_with('{')));
        assert!(USAGE.find("  irma help").unwrap() < USAGE.find("EXIT CODES:").unwrap());
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
                budget:
                    Budget {
                        itemsets: budget_itemsets,
                        deadline,
                        ..
                    },
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
                budget:
                    Budget {
                        itemsets: budget_itemsets,
                        ..
                    },
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
                budget:
                    Budget {
                        itemsets: budget_itemsets,
                        ..
                    },
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
