//! Resource budgets and cooperative cancellation for the miners.
//!
//! The paper's workflow is a one-shot offline analysis, but behind a
//! service a pathological low-support configuration lets itemset
//! enumeration blow past any memory or time bound (Fast Dimensional
//! Analysis bounds mining work with adaptive support thresholds for
//! exactly this reason). This module provides the primitives the
//! fault-tolerant pipeline entry points build on:
//!
//! * [`ExecBudget`] — declarative caps: mined itemsets, estimated FP-tree
//!   arena bytes, and a wall-clock deadline;
//! * [`CancelToken`] — a shared flag + deadline the miner recursions poll
//!   cooperatively (an expired deadline and an explicit [`CancelToken::cancel`]
//!   look the same to the mining loop);
//! * [`BudgetGuard`] — one attempt's runtime state: atomic itemset/tree
//!   counters bound to a token. Attempts of a degradation ladder each get
//!   a fresh guard ([`BudgetGuard::renew`]) sharing the run-wide token, so
//!   retries reset the counters but never win back spent wall-clock time;
//! * [`BudgetBreach`] / [`MineError`] — what a tripped budget or a
//!   poisoned worker turns into instead of an abort.
//!
//! Checks are designed to stay off the hot path's critical ns: counter
//! charges are single `fetch_add`s, and the clock is only read every
//! [`CHECK_STRIDE`] checkpoints.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many cooperative checkpoints pass between wall-clock reads. The
/// recursions checkpoint at least once per conditional tree / DFS node,
/// so a stride of 64 bounds deadline-detection latency to well under a
/// millisecond of mining work while keeping `Instant::now` off the hot
/// path.
const CHECK_STRIDE: u64 = 64;

/// Declarative resource caps for one pipeline run. `None` everywhere
/// (the default) means unlimited — the guard then never reads the clock.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecBudget {
    /// Maximum number of itemsets a miner may emit before tripping.
    pub max_itemsets: Option<u64>,
    /// Maximum estimated FP-tree arena bytes (cumulative over all trees
    /// built during the attempt — an upper bound on peak tree memory).
    pub max_tree_bytes: Option<u64>,
    /// Wall-clock deadline for the whole run (all ladder attempts share
    /// it: retrying never wins back time already spent).
    pub deadline: Option<Duration>,
    /// Deterministic fault injection for the chaos harness: panic inside
    /// the mining recursion once this many itemsets have been emitted,
    /// simulating a poisoned worker. Never set outside tests.
    pub panic_after_emits: Option<u64>,
}

impl ExecBudget {
    /// No caps at all (same as `default`).
    pub fn unlimited() -> ExecBudget {
        ExecBudget::default()
    }

    /// Whether every cap is absent.
    pub fn is_unlimited(&self) -> bool {
        self.max_itemsets.is_none()
            && self.max_tree_bytes.is_none()
            && self.deadline.is_none()
            && self.panic_after_emits.is_none()
    }
}

/// Which budget cap a mining attempt ran into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BudgetBreach {
    /// The itemset cap tripped.
    Itemsets {
        /// Itemsets emitted when the cap tripped.
        emitted: u64,
        /// The configured cap.
        cap: u64,
    },
    /// The estimated FP-tree memory cap tripped.
    TreeMemory {
        /// Estimated cumulative tree bytes when the cap tripped.
        estimated: u64,
        /// The configured cap.
        cap: u64,
    },
    /// The wall-clock deadline passed.
    Deadline {
        /// The configured deadline.
        budget: Duration,
    },
    /// The run was cancelled via [`CancelToken::cancel`].
    Cancelled,
}

impl std::fmt::Display for BudgetBreach {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetBreach::Itemsets { emitted, cap } => {
                write!(f, "itemset budget exceeded ({emitted} emitted, cap {cap})")
            }
            BudgetBreach::TreeMemory { estimated, cap } => write!(
                f,
                "estimated tree memory exceeded ({estimated} bytes, cap {cap})"
            ),
            BudgetBreach::Deadline { budget } => {
                write!(f, "deadline exceeded ({budget:?} wall-clock budget)")
            }
            BudgetBreach::Cancelled => write!(f, "run cancelled"),
        }
    }
}

/// A typed mining failure: what [`crate::Algorithm::mine`] and the
/// miner entry points return instead of panicking/aborting.
#[derive(Debug, Clone, PartialEq)]
pub enum MineError {
    /// The [`crate::MinerConfig`] failed validation.
    InvalidConfig(String),
    /// A resource budget tripped mid-mine.
    Budget(BudgetBreach),
    /// A parallel worker panicked; the panic was contained per-rank.
    WorkerPanic {
        /// Rendered panic payload (best effort).
        message: String,
    },
}

impl std::fmt::Display for MineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MineError::InvalidConfig(msg) => write!(f, "invalid miner config: {msg}"),
            MineError::Budget(breach) => write!(f, "{breach}"),
            MineError::WorkerPanic { message } => {
                write!(f, "mining worker panicked: {message}")
            }
        }
    }
}

impl std::error::Error for MineError {}

impl From<BudgetBreach> for MineError {
    fn from(breach: BudgetBreach) -> MineError {
        MineError::Budget(breach)
    }
}

#[derive(Debug)]
struct TokenState {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

/// A shared cooperative-cancellation handle. Clones observe the same
/// flag; the miner recursions poll it via their [`BudgetGuard`].
#[derive(Debug, Clone)]
pub struct CancelToken {
    state: Arc<TokenState>,
}

impl Default for CancelToken {
    fn default() -> CancelToken {
        CancelToken::new()
    }
}

impl CancelToken {
    /// A token with no deadline; trips only on [`CancelToken::cancel`].
    pub fn new() -> CancelToken {
        CancelToken {
            state: Arc::new(TokenState {
                cancelled: AtomicBool::new(false),
                deadline: None,
            }),
        }
    }

    /// A token that additionally trips once `budget` wall-clock time has
    /// elapsed from now.
    pub fn with_deadline(budget: Duration) -> CancelToken {
        CancelToken {
            state: Arc::new(TokenState {
                cancelled: AtomicBool::new(false),
                deadline: Instant::now().checked_add(budget),
            }),
        }
    }

    /// Requests cancellation; every clone observes it at its next poll.
    pub fn cancel(&self) {
        self.state.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether the flag is set (does not consult the deadline).
    pub fn is_cancelled(&self) -> bool {
        self.state.cancelled.load(Ordering::Relaxed)
    }

    /// Polls flag + deadline. Reading the clock is the caller's cost;
    /// [`BudgetGuard::checkpoint`] strides these calls.
    fn check(&self, budget: Duration) -> Result<(), BudgetBreach> {
        if self.is_cancelled() {
            return Err(BudgetBreach::Cancelled);
        }
        if let Some(deadline) = self.state.deadline {
            if Instant::now() >= deadline {
                return Err(BudgetBreach::Deadline { budget });
            }
        }
        Ok(())
    }
}

/// One mining attempt's live budget state. Shared by reference across
/// rayon workers (all counters are atomic).
#[derive(Debug)]
pub struct BudgetGuard {
    token: CancelToken,
    /// The declared deadline, echoed into `Deadline` breaches.
    deadline_budget: Duration,
    has_deadline: bool,
    max_itemsets: Option<u64>,
    max_tree_bytes: Option<u64>,
    panic_after_emits: Option<u64>,
    emitted: AtomicU64,
    tree_bytes: AtomicU64,
}

thread_local! {
    /// Checkpoint counter for clock-read striding. Thread-local rather
    /// than a field: under the work-stealing pool every worker in a
    /// steal tree checkpoints against the same shared guard, and a
    /// shared atomic counter would bounce its cache line between cores
    /// on every recursion step. Per-thread counting preserves the
    /// invariant that matters — each thread reads the clock at most once
    /// per [`CHECK_STRIDE`] of its own checkpoints, starting with its
    /// first.
    static TICKS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl Default for BudgetGuard {
    fn default() -> BudgetGuard {
        BudgetGuard::unlimited()
    }
}

impl BudgetGuard {
    /// A guard for one attempt of `budget`, minting a fresh token (and
    /// deadline) now.
    pub fn new(budget: &ExecBudget) -> BudgetGuard {
        let token = match budget.deadline {
            Some(d) => CancelToken::with_deadline(d),
            None => CancelToken::new(),
        };
        BudgetGuard::with_token(budget, token)
    }

    /// A guard polling an existing `token` — the degradation ladder's
    /// entry point: the token (and its deadline) is minted once per run,
    /// the counters once per attempt.
    pub fn with_token(budget: &ExecBudget, token: CancelToken) -> BudgetGuard {
        BudgetGuard {
            token,
            deadline_budget: budget.deadline.unwrap_or(Duration::ZERO),
            has_deadline: budget.deadline.is_some(),
            max_itemsets: budget.max_itemsets,
            max_tree_bytes: budget.max_tree_bytes,
            panic_after_emits: budget.panic_after_emits,
            emitted: AtomicU64::new(0),
            tree_bytes: AtomicU64::new(0),
        }
    }

    /// A guard that never trips (all checks reduce to `None` branches).
    pub fn unlimited() -> BudgetGuard {
        BudgetGuard::with_token(&ExecBudget::unlimited(), CancelToken::new())
    }

    /// Fresh counters for a retry, sharing the run-wide token/deadline.
    pub fn renew(&self, budget: &ExecBudget) -> BudgetGuard {
        BudgetGuard::with_token(budget, self.token.clone())
    }

    /// The token this guard polls (clone it to cancel from outside).
    pub fn token(&self) -> &CancelToken {
        &self.token
    }

    /// Itemsets emitted so far in this attempt.
    pub fn emitted(&self) -> u64 {
        self.emitted.load(Ordering::Relaxed)
    }

    /// Cooperative poll: cancellation flag always, wall clock every 64
    /// calls. Call once per recursion step.
    pub fn checkpoint(&self) -> Result<(), BudgetBreach> {
        if self.token.is_cancelled() {
            return Err(BudgetBreach::Cancelled);
        }
        if !self.has_deadline {
            return Ok(());
        }
        let tick = TICKS.with(|t| {
            let tick = t.get();
            t.set(tick.wrapping_add(1));
            tick
        });
        if tick.is_multiple_of(CHECK_STRIDE) {
            self.token.check(self.deadline_budget)?;
        }
        Ok(())
    }

    /// Unstrided poll (always reads the clock when a deadline is set).
    /// For coarse-grained call sites — e.g. once per Apriori level —
    /// where striding would delay detection by whole levels.
    pub fn checkpoint_now(&self) -> Result<(), BudgetBreach> {
        if self.token.is_cancelled() {
            return Err(BudgetBreach::Cancelled);
        }
        if self.has_deadline {
            self.token.check(self.deadline_budget)?;
        }
        Ok(())
    }

    /// Charges `n` emitted itemsets against the cap.
    pub fn charge_itemsets(&self, n: u64) -> Result<(), BudgetBreach> {
        if self.max_itemsets.is_none() && self.panic_after_emits.is_none() {
            return Ok(());
        }
        let emitted = self.emitted.fetch_add(n, Ordering::Relaxed) + n;
        if let Some(at) = self.panic_after_emits {
            // Fault injection (chaos harness): simulate a worker poisoned
            // mid-recursion. Trips at most once per attempt.
            if emitted >= at && emitted - n < at {
                panic!("injected worker panic after {at} itemsets");
            }
        }
        if let Some(cap) = self.max_itemsets {
            if emitted > cap {
                return Err(BudgetBreach::Itemsets { emitted, cap });
            }
        }
        Ok(())
    }

    /// Charges an FP-tree's estimated arena footprint against the cap.
    pub fn charge_tree_bytes(&self, bytes: u64) -> Result<(), BudgetBreach> {
        let Some(cap) = self.max_tree_bytes else {
            return Ok(());
        };
        let estimated = self.tree_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        if estimated > cap {
            return Err(BudgetBreach::TreeMemory { estimated, cap });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_guard_never_trips() {
        let guard = BudgetGuard::unlimited();
        for _ in 0..1000 {
            guard.checkpoint().unwrap();
            guard.charge_itemsets(1_000_000).unwrap();
            guard.charge_tree_bytes(u64::MAX / 4).unwrap();
        }
        // The itemset counter is not even maintained without a cap.
        assert_eq!(guard.emitted(), 0);
    }

    #[test]
    fn itemset_cap_trips_past_cap_not_at_it() {
        let budget = ExecBudget {
            max_itemsets: Some(10),
            ..ExecBudget::default()
        };
        let guard = BudgetGuard::new(&budget);
        guard.charge_itemsets(10).unwrap();
        let err = guard.charge_itemsets(1).unwrap_err();
        assert_eq!(
            err,
            BudgetBreach::Itemsets {
                emitted: 11,
                cap: 10
            }
        );
    }

    #[test]
    fn tree_cap_is_cumulative() {
        let budget = ExecBudget {
            max_tree_bytes: Some(100),
            ..ExecBudget::default()
        };
        let guard = BudgetGuard::new(&budget);
        guard.charge_tree_bytes(60).unwrap();
        assert!(matches!(
            guard.charge_tree_bytes(60),
            Err(BudgetBreach::TreeMemory {
                estimated: 120,
                cap: 100
            })
        ));
    }

    #[test]
    fn zero_deadline_trips_on_first_strided_check() {
        let budget = ExecBudget {
            deadline: Some(Duration::ZERO),
            ..ExecBudget::default()
        };
        let guard = BudgetGuard::new(&budget);
        // Tick 0 always reads the clock.
        assert!(matches!(
            guard.checkpoint(),
            Err(BudgetBreach::Deadline { .. })
        ));
    }

    #[test]
    fn generous_deadline_does_not_trip() {
        let budget = ExecBudget {
            deadline: Some(Duration::from_secs(3600)),
            ..ExecBudget::default()
        };
        let guard = BudgetGuard::new(&budget);
        for _ in 0..500 {
            guard.checkpoint().unwrap();
        }
    }

    #[test]
    fn cancel_observed_by_all_clones_immediately() {
        let budget = ExecBudget::unlimited();
        let guard = BudgetGuard::new(&budget);
        let token = guard.token().clone();
        std::thread::scope(|scope| {
            scope.spawn(move || token.cancel());
        });
        assert_eq!(guard.checkpoint(), Err(BudgetBreach::Cancelled));
    }

    #[test]
    fn renew_resets_counters_but_keeps_the_token() {
        let budget = ExecBudget {
            max_itemsets: Some(5),
            ..ExecBudget::default()
        };
        let first = BudgetGuard::new(&budget);
        first.charge_itemsets(6).unwrap_err();
        let second = first.renew(&budget);
        assert_eq!(second.emitted(), 0);
        second.charge_itemsets(5).unwrap();
        // Cancellation crosses renewals: the token is shared.
        first.token().cancel();
        assert_eq!(second.checkpoint(), Err(BudgetBreach::Cancelled));
    }

    #[test]
    fn injected_panic_fires_exactly_once_at_threshold() {
        let budget = ExecBudget {
            panic_after_emits: Some(3),
            ..ExecBudget::default()
        };
        let guard = BudgetGuard::new(&budget);
        guard.charge_itemsets(2).unwrap();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            guard.charge_itemsets(2).unwrap();
        }));
        assert!(panicked.is_err());
        // Past the threshold the injection stays quiet.
        guard.charge_itemsets(10).unwrap();
    }

    #[test]
    fn breach_messages_render() {
        let text = format!(
            "{} | {} | {} | {}",
            BudgetBreach::Itemsets {
                emitted: 11,
                cap: 10
            },
            BudgetBreach::TreeMemory {
                estimated: 200,
                cap: 100
            },
            BudgetBreach::Deadline {
                budget: Duration::from_millis(1)
            },
            BudgetBreach::Cancelled,
        );
        assert!(text.contains("itemset budget exceeded (11 emitted, cap 10)"));
        assert!(text.contains("estimated tree memory exceeded (200 bytes, cap 100)"));
        assert!(text.contains("deadline exceeded"));
        assert!(text.contains("cancelled"));
        let err: MineError = BudgetBreach::Cancelled.into();
        assert!(err.to_string().contains("cancelled"));
    }

    #[test]
    fn unlimited_budget_reports_itself() {
        assert!(ExecBudget::unlimited().is_unlimited());
        assert!(!ExecBudget {
            max_itemsets: Some(1),
            ..ExecBudget::default()
        }
        .is_unlimited());
    }
}
