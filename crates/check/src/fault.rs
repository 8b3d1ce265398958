//! Deterministic fault-injection plans for the chaos property suite.
//!
//! A [`FaultPlan`] is a seeded description of everything that can go
//! wrong around one `irma_core::try_analyze` run: corrupted CSV input
//! (truncation, garbled bytes, NaN/Inf cells), an injected panic inside
//! a pipeline stage (via [`irma_core::StageHooks`]), a forced budget
//! trip (via [`irma_core::ExecBudget`], including the poisoned-worker
//! injection), and a trace-log sink whose writer starts failing
//! mid-run. Everything derives from a single `u64` seed through a local
//! SplitMix64, so a failing chaos case is reproducible from its seed
//! alone — no `rand` dependency, no global state.
//!
//! The plans themselves know nothing about assertions; the property
//! suite in `tests/chaos.rs` drives them and checks the fault-tolerance
//! contract (no panic escapes, every failure is typed, degraded results
//! always say so).

use std::io::{self, Write};
use std::sync::OnceLock;

use irma_core::{ExecBudget, StageHooks};
use irma_obs::EventSink;
use irma_prep::{EncoderSpec, FeatureSpec, ZeroBin};
use std::time::Duration;

/// A tiny deterministic RNG (SplitMix64). Good enough statistical
/// quality for fuzzing decisions, trivially seedable, and — unlike the
/// proptest strategies — usable outside a property-runner context.
#[derive(Debug, Clone)]
pub struct FaultRng {
    state: u64,
}

impl FaultRng {
    /// A generator whose whole stream is determined by `seed`.
    pub fn new(seed: u64) -> FaultRng {
        FaultRng { state: seed }
    }

    /// The next raw draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A draw uniform in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// True with probability `percent / 100`.
    pub fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// How a plan corrupts the raw CSV text before parsing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputFault {
    /// Cut the text off at a random byte offset (mid-row, mid-field).
    Truncate,
    /// Overwrite a few random bytes with CSV-hostile junk (quotes,
    /// commas, control characters).
    Garble,
    /// Replace random numeric cells in data rows with `NaN`/`inf`
    /// tokens. The lossy value parser and the preprocessing non-finite
    /// filter are supposed to absorb these without failing.
    NanInf,
}

/// Which execution-budget trip a plan forces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetFault {
    /// A small itemset cap — trips mining, exercising the ladder.
    ItemsetCap(u64),
    /// A tiny estimated-tree-memory cap (FP-Growth only trips it).
    TreeByteCap(u64),
    /// A zero wall-clock deadline — deterministically exhausts the
    /// ladder (retries share the run-wide token).
    ZeroDeadline,
    /// Panic inside the mining recursion after this many emitted
    /// itemsets (the poisoned-worker injection).
    WorkerPanic(u64),
}

/// One seeded chaos scenario. Faults compose: a plan may corrupt the
/// input *and* cap the budget *and* break the trace-log writer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The seed every decision below was derived from.
    pub seed: u64,
    /// Input-text corruption, if any.
    pub input: Option<InputFault>,
    /// Stage to panic at entry (`"encode"`, `"mine"`, or `"rules"`).
    pub stage_panic: Option<&'static str>,
    /// Forced budget trip, if any.
    pub budget: Option<BudgetFault>,
    /// Whether the trace-log sink's writer fails after a few bytes.
    pub failing_sink: bool,
    /// Width of the pool the pipeline runs on: 1 or 2 (see
    /// [`FaultPlan::pool`]).
    pub width: usize,
}

/// A pool width of 1 or 2, drawn as one 50% chance.
fn draw_width(rng: &mut FaultRng) -> usize {
    if rng.chance(50) {
        2
    } else {
        1
    }
}

impl FaultPlan {
    /// A plan that injects nothing — the differential baseline.
    pub fn clean(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            width: draw_width(&mut FaultRng::new(seed)),
            ..FaultPlan::default()
        }
    }

    /// Derives a full plan from `seed`. Roughly half of all seeds carry
    /// at least one fault in each dimension, and combinations are
    /// common on purpose: the contract must hold for overlapping
    /// failures, not just isolated ones.
    pub fn from_seed(seed: u64) -> FaultPlan {
        let mut rng = FaultRng::new(seed);
        let width = draw_width(&mut rng);
        let input = if rng.chance(40) {
            Some(match rng.below(3) {
                0 => InputFault::Truncate,
                1 => InputFault::Garble,
                _ => InputFault::NanInf,
            })
        } else {
            None
        };
        let stage_panic = if rng.chance(15) {
            Some(match rng.below(3) {
                0 => "encode",
                1 => "mine",
                _ => "rules",
            })
        } else {
            None
        };
        let budget = if rng.chance(35) {
            Some(match rng.below(4) {
                0 => BudgetFault::ItemsetCap(1 + rng.below(12)),
                1 => BudgetFault::TreeByteCap(1 + rng.below(256)),
                2 => BudgetFault::ZeroDeadline,
                _ => BudgetFault::WorkerPanic(1 + rng.below(4)),
            })
        } else {
            None
        };
        let failing_sink = rng.chance(30);
        FaultPlan {
            seed,
            input,
            stage_panic,
            budget,
            failing_sink,
            width,
        }
    }

    /// The pool of [`FaultPlan::width`] workers to run the plan on. The
    /// 1- and 2-wide pools are built once and shared by every plan.
    pub fn pool(&self) -> &'static rayon::ThreadPool {
        static POOLS: OnceLock<[rayon::ThreadPool; 2]> = OnceLock::new();
        let pools = POOLS.get_or_init(|| {
            [1, 2].map(|width| {
                rayon::ThreadPoolBuilder::new()
                    .num_threads(width)
                    .build()
                    .expect("chaos pool")
            })
        });
        &pools[usize::from(self.width > 1)]
    }

    /// Whether this plan injects nothing at all.
    pub fn is_clean(&self) -> bool {
        self.input.is_none()
            && self.stage_panic.is_none()
            && self.budget.is_none()
            && !self.failing_sink
    }

    /// Applies the plan's input fault to `csv`, deterministically from
    /// the plan seed. Clean plans return the text unchanged.
    pub fn apply_to_csv(&self, csv: &str) -> String {
        let mut rng = FaultRng::new(self.seed ^ 0xc5a1_1ed0);
        match self.input {
            None => csv.to_string(),
            Some(InputFault::Truncate) => {
                if csv.is_empty() {
                    return String::new();
                }
                let mut cut = rng.below(csv.len() as u64) as usize;
                while !csv.is_char_boundary(cut) {
                    cut -= 1;
                }
                csv[..cut].to_string()
            }
            Some(InputFault::Garble) => {
                const JUNK: &[u8] = b"\"',;\x00\x01%$@~\\";
                let mut bytes = csv.as_bytes().to_vec();
                if bytes.is_empty() {
                    return String::new();
                }
                let hits = 1 + rng.below(4) as usize;
                for _ in 0..hits {
                    let at = rng.below(bytes.len() as u64) as usize;
                    bytes[at] = JUNK[rng.below(JUNK.len() as u64) as usize];
                }
                // JUNK is pure ASCII, so overwriting single bytes of a
                // UTF-8 ASCII document keeps it valid UTF-8.
                String::from_utf8_lossy(&bytes).into_owned()
            }
            Some(InputFault::NanInf) => {
                const TOKENS: [&str; 4] = ["NaN", "nan", "inf", "-inf"];
                let mut out = String::with_capacity(csv.len());
                for (i, line) in csv.lines().enumerate() {
                    // Never corrupt the header: the contract for NaN/Inf
                    // is "absorbed by the value parser", not "missing
                    // column".
                    if i == 0 || line.is_empty() || !rng.chance(40) {
                        out.push_str(line);
                    } else {
                        let fields: Vec<&str> = line.split(',').collect();
                        let victim = rng.below(fields.len() as u64) as usize;
                        let token = TOKENS[rng.below(TOKENS.len() as u64) as usize];
                        for (j, field) in fields.iter().enumerate() {
                            if j > 0 {
                                out.push(',');
                            }
                            out.push_str(if j == victim { token } else { field });
                        }
                    }
                    out.push('\n');
                }
                out
            }
        }
    }

    /// The execution budget this plan forces (unlimited when no budget
    /// fault is planned).
    pub fn exec_budget(&self) -> ExecBudget {
        match self.budget {
            None => ExecBudget::unlimited(),
            Some(BudgetFault::ItemsetCap(cap)) => ExecBudget {
                max_itemsets: Some(cap),
                ..ExecBudget::default()
            },
            Some(BudgetFault::TreeByteCap(cap)) => ExecBudget {
                max_tree_bytes: Some(cap),
                ..ExecBudget::default()
            },
            Some(BudgetFault::ZeroDeadline) => ExecBudget {
                deadline: Some(Duration::ZERO),
                ..ExecBudget::default()
            },
            Some(BudgetFault::WorkerPanic(after)) => ExecBudget {
                panic_after_emits: Some(after),
                ..ExecBudget::default()
            },
        }
    }

    /// Stage hooks that panic on entry to the planned stage (and fire
    /// nothing when no stage panic is planned).
    pub fn stage_hooks(&self) -> StageHooks {
        match self.stage_panic {
            None => StageHooks::default(),
            Some(stage) => StageHooks::on_stage(move |s: &str| {
                if s == stage {
                    panic!("injected {stage} fault");
                }
            }),
        }
    }
}

/// An `io::Write` that accepts `budget` bytes and then fails every
/// write — the trace-log equivalent of a full disk. `flush` always
/// succeeds so each failure is attributed to exactly one event write.
#[derive(Debug)]
pub struct FailingWriter {
    budget: usize,
    written: usize,
}

impl FailingWriter {
    /// A writer that fails once `budget` bytes have been accepted.
    pub fn after_bytes(budget: usize) -> FailingWriter {
        FailingWriter { budget, written: 0 }
    }
}

impl Write for FailingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.written + buf.len() > self.budget {
            return Err(io::Error::other("injected sink failure (disk full)"));
        }
        self.written += buf.len();
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// An [`EventSink`] over a [`FailingWriter`].
pub fn failing_event_sink(after_bytes: usize) -> EventSink {
    EventSink::from_writer(Box::new(FailingWriter::after_bytes(after_bytes)))
}

/// A small seeded trace CSV: two behavioural clusters (short idle jobs
/// vs long busy ones) plus per-row jitter, so every un-faulted run
/// mines a non-trivial frequent family and at least one rule.
pub fn base_csv(seed: u64, rows: usize) -> String {
    let mut rng = FaultRng::new(seed ^ 0x0ba5_ec5f);
    let mut csv = String::from("runtime,sm\n");
    for i in 0..rows {
        let idle = i % 5 < 2;
        let jitter = rng.below(100) as f64 / 10.0;
        let (runtime, sm) = if idle {
            (10.0 + jitter, 0.0)
        } else {
            (5_000.0 + jitter * 40.0, 60.0 + rng.below(30) as f64)
        };
        csv.push_str(&format!("{runtime},{sm}\n"));
    }
    csv
}

/// The encoder spec matching [`base_csv`].
pub fn base_spec() -> EncoderSpec {
    EncoderSpec::new(vec![
        FeatureSpec::numeric("runtime", "Runtime"),
        FeatureSpec::numeric_zero("sm", "SM Util", ZeroBin::percent()),
    ])
}

/// A socket-level client misbehaviour for chaos-testing an HTTP server.
///
/// Each variant is one way a real network peer goes wrong. The drivers
/// ([`run_socket_fault`]) execute them against a live address and report
/// what came back; they know nothing about the server under test, so the
/// suite in `tests/chaos_serve.rs` owns all assertions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SocketFault {
    /// Dribble a request head a few bytes at a time with pauses, then
    /// hang up before finishing it (the slow-loris shape, bounded).
    SlowLoris {
        /// Bytes sent per dribble.
        chunk: usize,
        /// Pause between dribbles, in milliseconds.
        pause_ms: u64,
        /// Dribbles before hanging up.
        rounds: usize,
    },
    /// Declare a `Content-Length` and disconnect mid-body.
    MidBodyDisconnect {
        /// Declared body length.
        declared: usize,
        /// Bytes actually sent before the hangup.
        sent: usize,
    },
    /// Send a valid request but read only a prefix of the response and
    /// slam the connection shut.
    PartialResponseRead {
        /// Response bytes to read before closing.
        read_bytes: usize,
    },
    /// Send seeded binary junk where a request line belongs.
    GarbageRequestLine {
        /// Junk length in bytes.
        len: usize,
    },
    /// POST a body larger than the server's configured cap (the body is
    /// fully sent; the server should answer 413 from the declared
    /// length without reading it all).
    OversizedBody {
        /// Body size to declare and send.
        bytes: usize,
    },
    /// Send a request head past the 8 KiB cap (expects 431 back).
    OversizedHead {
        /// Padding-header value length.
        padding: usize,
    },
}

impl SocketFault {
    /// Derives one socket fault from a seed, covering every variant
    /// across consecutive seeds.
    pub fn from_seed(seed: u64) -> SocketFault {
        let mut rng = FaultRng::new(seed ^ 0x50c4_e7fa);
        match rng.below(6) {
            0 => SocketFault::SlowLoris {
                chunk: 1 + rng.below(4) as usize,
                pause_ms: 5 + rng.below(20),
                rounds: 2 + rng.below(4) as usize,
            },
            1 => SocketFault::MidBodyDisconnect {
                declared: 256 + rng.below(1024) as usize,
                sent: rng.below(128) as usize,
            },
            2 => SocketFault::PartialResponseRead {
                read_bytes: 1 + rng.below(16) as usize,
            },
            3 => SocketFault::GarbageRequestLine {
                len: 1 + rng.below(512) as usize,
            },
            4 => SocketFault::OversizedBody {
                bytes: 2048 + rng.below(2048) as usize,
            },
            _ => SocketFault::OversizedHead {
                padding: 9 * 1024 + rng.below(4096) as usize,
            },
        }
    }
}

/// What a socket-fault driver observed from the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SocketOutcome {
    /// The server answered with this HTTP status.
    Status(u16),
    /// The connection closed with no (parseable) status — fine for
    /// faults where the client hung up first.
    Dropped,
    /// The connection could not even be established.
    ConnectFailed,
}

fn parse_status(response: &[u8]) -> Option<u16> {
    let text = std::str::from_utf8(response.get(..response.len().min(64))?).ok()?;
    let mut words = text.split_whitespace();
    if !words.next()?.starts_with("HTTP/1.") {
        return None;
    }
    words.next()?.parse().ok()
}

fn read_status(stream: &mut std::net::TcpStream) -> SocketOutcome {
    use std::io::Read;
    let mut buf = Vec::new();
    match stream.read_to_end(&mut buf) {
        Ok(_) | Err(_) => {}
    }
    match parse_status(&buf) {
        Some(status) => SocketOutcome::Status(status),
        None => SocketOutcome::Dropped,
    }
}

/// Executes one [`SocketFault`] against a live server and reports what
/// came back. Every driver bounds its own runtime (socket timeouts plus
/// finite writes), so a wedged server shows up as a test timeout at the
/// suite level, not a hang here.
pub fn run_socket_fault(addr: std::net::SocketAddr, fault: &SocketFault) -> SocketOutcome {
    use std::io::{Read, Write};
    use std::net::TcpStream;

    let Ok(mut stream) = TcpStream::connect(addr) else {
        return SocketOutcome::ConnectFailed;
    };
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    match fault {
        SocketFault::SlowLoris {
            chunk,
            pause_ms,
            rounds,
        } => {
            let head = b"POST /v1/analyze HTTP/1.1\r\nhost: chaos\r\ncontent-length: 64\r\n";
            let mut sent = 0;
            for _ in 0..*rounds {
                if sent >= head.len() {
                    break;
                }
                let end = (sent + chunk).min(head.len());
                if stream.write_all(&head[sent..end]).is_err() {
                    return SocketOutcome::Dropped;
                }
                sent = end;
                std::thread::sleep(Duration::from_millis(*pause_ms));
            }
            // Hang up with the head unfinished.
            SocketOutcome::Dropped
        }
        SocketFault::MidBodyDisconnect { declared, sent } => {
            let head = format!(
                "POST /v1/analyze HTTP/1.1\r\nhost: chaos\r\ncontent-length: {declared}\r\n\r\n"
            );
            if stream.write_all(head.as_bytes()).is_err() {
                return SocketOutcome::Dropped;
            }
            let body = vec![b'x'; (*sent).min(*declared)];
            let _ = stream.write_all(&body);
            // Close with the body short; the server must drop cleanly.
            SocketOutcome::Dropped
        }
        SocketFault::PartialResponseRead { read_bytes } => {
            if stream
                .write_all(b"GET /healthz HTTP/1.1\r\nhost: chaos\r\n\r\n")
                .is_err()
            {
                return SocketOutcome::Dropped;
            }
            let mut buf = vec![0u8; *read_bytes];
            let _ = stream.read_exact(&mut buf);
            // Drop with (most of) the response unread.
            SocketOutcome::Dropped
        }
        SocketFault::GarbageRequestLine { len } => {
            let mut rng = FaultRng::new(*len as u64 ^ 0x6a5b);
            let junk: Vec<u8> = (0..*len).map(|_| (rng.below(256)) as u8).collect();
            if stream.write_all(&junk).is_err() {
                return SocketOutcome::Dropped;
            }
            if stream.write_all(b"\r\n\r\n").is_err() {
                return SocketOutcome::Dropped;
            }
            let _ = stream.shutdown(std::net::Shutdown::Write);
            read_status(&mut stream)
        }
        SocketFault::OversizedBody { bytes } => {
            let head = format!(
                "POST /v1/analyze HTTP/1.1\r\nhost: chaos\r\ncontent-length: {bytes}\r\n\r\n"
            );
            if stream.write_all(head.as_bytes()).is_err() {
                return SocketOutcome::Dropped;
            }
            let body = vec![b'a'; *bytes];
            let _ = stream.write_all(&body);
            let _ = stream.shutdown(std::net::Shutdown::Write);
            read_status(&mut stream)
        }
        SocketFault::OversizedHead { padding } => {
            let head = format!(
                "GET /healthz HTTP/1.1\r\nhost: chaos\r\nx-pad: {}\r\n\r\n",
                "p".repeat(*padding)
            );
            if stream.write_all(head.as_bytes()).is_err() {
                return SocketOutcome::Dropped;
            }
            read_status(&mut stream)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_per_seed() {
        for seed in 0..200 {
            assert_eq!(FaultPlan::from_seed(seed), FaultPlan::from_seed(seed));
        }
        let csv = base_csv(7, 30);
        let plan = FaultPlan {
            input: Some(InputFault::Garble),
            ..FaultPlan::from_seed(9)
        };
        assert_eq!(plan.apply_to_csv(&csv), plan.apply_to_csv(&csv));
    }

    #[test]
    fn seeds_cover_every_fault_dimension() {
        let plans: Vec<FaultPlan> = (0..500).map(FaultPlan::from_seed).collect();
        assert!(plans.iter().any(|p| p.input == Some(InputFault::Truncate)));
        assert!(plans.iter().any(|p| p.input == Some(InputFault::Garble)));
        assert!(plans.iter().any(|p| p.input == Some(InputFault::NanInf)));
        assert!(plans.iter().any(|p| p.stage_panic == Some("encode")));
        assert!(plans.iter().any(|p| p.stage_panic == Some("mine")));
        assert!(plans.iter().any(|p| p.stage_panic == Some("rules")));
        assert!(plans
            .iter()
            .any(|p| matches!(p.budget, Some(BudgetFault::ItemsetCap(_)))));
        assert!(plans
            .iter()
            .any(|p| matches!(p.budget, Some(BudgetFault::ZeroDeadline))));
        assert!(plans
            .iter()
            .any(|p| matches!(p.budget, Some(BudgetFault::WorkerPanic(_)))));
        assert!(plans.iter().any(|p| p.failing_sink));
        assert!(plans.iter().any(|p| p.is_clean()));
    }

    #[test]
    fn clean_plans_leave_the_text_alone() {
        let csv = base_csv(1, 25);
        assert_eq!(FaultPlan::clean(1).apply_to_csv(&csv), csv);
    }

    #[test]
    fn truncation_shortens_and_stays_utf8() {
        let csv = base_csv(2, 25);
        let plan = FaultPlan {
            input: Some(InputFault::Truncate),
            ..FaultPlan::clean(2)
        };
        let cut = plan.apply_to_csv(&csv);
        assert!(cut.len() < csv.len());
    }

    #[test]
    fn nan_inf_corruption_spares_the_header() {
        let csv = base_csv(3, 40);
        let plan = FaultPlan {
            input: Some(InputFault::NanInf),
            ..FaultPlan::clean(3)
        };
        let poisoned = plan.apply_to_csv(&csv);
        assert!(poisoned.starts_with("runtime,sm\n"));
        let lowered = poisoned.to_lowercase();
        assert!(lowered.contains("nan") || lowered.contains("inf"));
    }

    #[test]
    fn failing_writer_fails_past_its_byte_budget() {
        let mut w = FailingWriter::after_bytes(4);
        assert_eq!(w.write(b"ab").unwrap(), 2);
        assert_eq!(w.write(b"cd").unwrap(), 2);
        assert!(w.write(b"e").is_err());
        assert!(w.flush().is_ok());
    }

    #[test]
    fn socket_faults_cover_every_variant_and_stay_deterministic() {
        let faults: Vec<SocketFault> = (0..200).map(SocketFault::from_seed).collect();
        assert!(faults
            .iter()
            .any(|f| matches!(f, SocketFault::SlowLoris { .. })));
        assert!(faults
            .iter()
            .any(|f| matches!(f, SocketFault::MidBodyDisconnect { .. })));
        assert!(faults
            .iter()
            .any(|f| matches!(f, SocketFault::PartialResponseRead { .. })));
        assert!(faults
            .iter()
            .any(|f| matches!(f, SocketFault::GarbageRequestLine { .. })));
        assert!(faults
            .iter()
            .any(|f| matches!(f, SocketFault::OversizedBody { .. })));
        assert!(faults
            .iter()
            .any(|f| matches!(f, SocketFault::OversizedHead { .. })));
        for seed in 0..50 {
            assert_eq!(SocketFault::from_seed(seed), SocketFault::from_seed(seed));
        }
    }

    #[test]
    fn status_parser_reads_the_first_line_only() {
        assert_eq!(
            parse_status(b"HTTP/1.1 503 Service Unavailable\r\n"),
            Some(503)
        );
        assert_eq!(parse_status(b"HTTP/1.0 200 OK\r\nbody"), Some(200));
        assert_eq!(parse_status(b"not http at all"), None);
        assert_eq!(parse_status(b""), None);
    }

    #[test]
    fn exec_budget_maps_each_fault() {
        assert!(FaultPlan::clean(0).exec_budget().is_unlimited());
        let cap = FaultPlan {
            budget: Some(BudgetFault::ItemsetCap(3)),
            ..FaultPlan::clean(0)
        };
        assert_eq!(cap.exec_budget().max_itemsets, Some(3));
        let dl = FaultPlan {
            budget: Some(BudgetFault::ZeroDeadline),
            ..FaultPlan::clean(0)
        };
        assert_eq!(dl.exec_budget().deadline, Some(Duration::ZERO));
    }
}
