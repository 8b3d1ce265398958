//! The work-stealing scheduler behind the rayon shim.
//!
//! Each `Registry` owns `width - 1 >= 1` worker OS threads (a width-1
//! registry runs everything inline and spawns nothing). Every worker has
//! its own lock-free [`ChaseLev`] deque of pending jobs; a worker pushes
//! and pops at the *bottom* of its own deque (LIFO, so the hottest, most
//! cache-local work runs first) and steals from the *top* of a victim's
//! deque or from the shared injector (FIFO, so thieves take the oldest —
//! largest — pending subtree). This is the classic Blumofe–Leiserson
//! discipline rayon itself uses, with the same deque rayon uses: the
//! owner's push/pop are plain loads and stores (one CAS only when racing
//! a thief for the last element), so the `join` fast path — push, run
//! left, pop right back — never takes a lock.
//!
//! The sole fork primitive is [`join`]: it pushes the right-hand closure
//! as a stealable job, runs the left-hand closure inline, and then
//! either pops the right job back (nobody stole it — the common, fast
//! path) or *works while waiting*: executing other pending jobs until
//! the thief finishes. Panics in either closure are captured and
//! re-thrown on the joining thread, so a panic anywhere in a steal tree
//! surfaces exactly where sequential code would have raised it — which
//! is what lets the miners keep their per-rank `catch_unwind`
//! attribution no matter which worker actually ran the subtree.
//!
//! Idle workers sleep on an `EventCounter` (eventcount protocol):
//! every producer bumps an epoch before checking for sleepers, and a
//! worker re-validates its pre-scan epoch snapshot after registering as
//! a sleeper, so wakeups cannot be lost and there is no polling timeout
//! — sleepers neither spin nor add wake latency.
//!
//! For deterministic steal-order fuzzing, a registry can be built with a
//! jitter seed ([`crate::ThreadPoolBuilder::steal_jitter`]): workers
//! then derive a per-thread SplitMix64 stream that perturbs victim
//! order and injects yields, exploring different interleavings while
//! the seed pins each run's decisions.

use std::cell::{Cell, RefCell, UnsafeCell};
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;

use crate::deque::{ChaseLev, FlatWords, Steal};

/// A type-erased pointer to a [`StackJob`] pinned on some stack frame.
///
/// Safety contract: the frame that created the job blocks (working or
/// parked) until the job's `done` flag is set, so the pointee outlives
/// every access through this reference.
#[derive(Clone, Copy)]
pub(crate) struct JobRef {
    data: *const (),
    execute: unsafe fn(*const ()),
}

// Safety: see the contract on the struct — JobRefs only travel between
// threads while the owning frame keeps the pointee alive.
unsafe impl Send for JobRef {}

impl JobRef {
    /// Runs the job. Must be called at most once per underlying job.
    unsafe fn run(self) {
        (self.execute)(self.data)
    }
}

impl FlatWords for JobRef {
    fn to_words(self) -> [usize; 2] {
        [self.data as usize, self.execute as usize]
    }

    fn from_words(words: [usize; 2]) -> JobRef {
        JobRef {
            data: words[0] as *const (),
            // Safety: `words[1]` was produced by `to_words` from a live
            // fn pointer of exactly this type.
            execute: unsafe { std::mem::transmute::<usize, unsafe fn(*const ())>(words[1]) },
        }
    }
}

/// A job whose closure and result slot live in the spawning stack frame.
///
/// The owner may return — freeing the job — the moment it observes
/// `done`, so the executor's `Release` store of `done` is its last access
/// to the job.
struct StackJob<F, R> {
    f: UnsafeCell<Option<F>>,
    result: UnsafeCell<Option<thread::Result<R>>>,
    done: AtomicBool,
    /// The off-pool owner parked in [`StackJob::wait_parked`], unparked on
    /// completion; `None` for worker owners, which spin-steal instead.
    owner: Option<thread::Thread>,
}

impl<F, R> StackJob<F, R>
where
    F: FnOnce() -> R + Send,
    R: Send,
{
    fn new(f: F, owner: Option<thread::Thread>) -> StackJob<F, R> {
        StackJob {
            f: UnsafeCell::new(Some(f)),
            result: UnsafeCell::new(None),
            done: AtomicBool::new(false),
            owner,
        }
    }

    fn as_job_ref(&self) -> JobRef {
        JobRef {
            data: self as *const StackJob<F, R> as *const (),
            execute: Self::execute_erased,
        }
    }

    /// # Safety
    /// `data` must point at a live `StackJob<F, R>` not yet executed.
    unsafe fn execute_erased(data: *const ()) {
        let job = &*(data as *const StackJob<F, R>);
        let f = (*job.f.get()).take().expect("job executed twice");
        let result = std::panic::catch_unwind(AssertUnwindSafe(f));
        *job.result.get() = Some(result);
        // Clone the owner handle first: once `done` is visible the owner
        // may free the job, so the store must be the last access to it.
        let owner = job.owner.clone();
        job.done.store(true, Ordering::Release);
        if let Some(thread) = owner {
            thread.unpark();
        }
    }

    fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Blocks the off-pool owner until the job completes. An unpark that
    /// lands before `park` leaves a token, so no wakeup is lost; the loop
    /// absorbs spurious wakeups.
    fn wait_parked(&self) {
        while !self.is_done() {
            thread::park();
        }
    }

    /// Takes the closure's result. Only valid after `is_done()`.
    fn take_result(&self) -> thread::Result<R> {
        unsafe { (*self.result.get()).take().expect("result taken twice") }
    }
}

/// Eventcount: the lost-wakeup-free sleep protocol for idle workers.
///
/// Producers *publish* work in two steps: bump the epoch, then notify if
/// anyone is registered as sleeping. Workers snapshot the epoch *before*
/// scanning for work and go to sleep only if the epoch is still at the
/// snapshot *after* registering as a sleeper (registration before the
/// re-check is what closes the race — see [`EventCounter::sleep`]).
/// The result: no 50 ms poll timeout, no spinning, and a push-to-wake
/// latency of one `notify_one`.
struct EventCounter {
    /// Bumped on every publish; compared against pre-scan snapshots.
    epoch: AtomicU64,
    /// Registered sleepers; read lock-free by producers to skip the
    /// mutex on the (common) nobody-asleep path.
    sleepers: AtomicUsize,
    /// Guards the condvar; holds no data.
    mutex: Mutex<()>,
    condvar: Condvar,
}

impl EventCounter {
    fn new() -> EventCounter {
        EventCounter {
            epoch: AtomicU64::new(0),
            sleepers: AtomicUsize::new(0),
            mutex: Mutex::new(()),
            condvar: Condvar::new(),
        }
    }

    /// Epoch snapshot; take one *before* scanning for work.
    fn snapshot(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Publishes new work: any worker that scanned before this call and
    /// found nothing will either see the bumped epoch when it tries to
    /// sleep, or is already registered and gets notified.
    fn publish(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            // Lock so the notify cannot slide between a sleeper's epoch
            // re-check and its wait.
            let _guard = self.mutex.lock().expect("eventcount lock");
            self.condvar.notify_one();
        }
    }

    /// Like [`EventCounter::publish`] but wakes everyone (shutdown).
    fn publish_all(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        let _guard = self.mutex.lock().expect("eventcount lock");
        self.condvar.notify_all();
    }

    /// Sleeps until the next publish, unless one happened since
    /// `snapshot` was taken — then returns immediately so the caller
    /// rescans. Returns whether it actually blocked on the condvar
    /// (telemetry: parks that waited vs parks aborted by the re-check).
    ///
    /// Registration order matters: `sleepers` is incremented *before*
    /// the epoch re-check. A producer that bumps the epoch after our
    /// re-check therefore observes `sleepers > 0` and notifies; a
    /// producer that bumped before is caught by the re-check. Either
    /// way the wakeup cannot be lost.
    fn sleep(&self, snapshot: u64) -> bool {
        let guard = self.mutex.lock().expect("eventcount lock");
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let waited = if self.epoch.load(Ordering::SeqCst) == snapshot {
            // Spurious wakeups are fine: the caller loops and rescans.
            let _guard = self.condvar.wait(guard).expect("eventcount wait");
            true
        } else {
            false
        };
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        waited
    }
}

/// Per-worker scheduler counters, one cache line each so a worker's
/// relaxed increments never contend with its neighbours' (no false
/// sharing on the hot fork path). All fields are monotone counters
/// except `deque_high_water`, a monotone running maximum written only by
/// the owning worker.
#[repr(align(128))]
struct WorkerStats {
    jobs_executed: AtomicU64,
    local_pushes: AtomicU64,
    steal_successes: AtomicU64,
    steal_empty: AtomicU64,
    steal_retries: AtomicU64,
    injector_pops: AtomicU64,
    parks: AtomicU64,
    wakes: AtomicU64,
    deque_high_water: AtomicU64,
}

impl WorkerStats {
    fn new() -> WorkerStats {
        WorkerStats {
            jobs_executed: AtomicU64::new(0),
            local_pushes: AtomicU64::new(0),
            steal_successes: AtomicU64::new(0),
            steal_empty: AtomicU64::new(0),
            steal_retries: AtomicU64::new(0),
            injector_pops: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            wakes: AtomicU64::new(0),
            deque_high_water: AtomicU64::new(0),
        }
    }
}

/// Point-in-time copy of one worker's scheduler counters.
///
/// Counter semantics:
/// * `jobs_executed` — jobs this worker ran (counted immediately before
///   execution, so by the time a parallel operation completes every one
///   of its jobs has been counted);
/// * `local_pushes` — jobs pushed onto this worker's own deque (`join`
///   right-hand sides);
/// * `steal_successes` / `steal_empty` / `steal_retries` — per-victim
///   probe outcomes (one of the three per probe; attempts are their sum);
/// * `injector_pops` — jobs taken from the shared injector;
/// * `parks` — idle episodes that reached the eventcount sleep call;
/// * `wakes` — the subset of parks that actually blocked on the condvar
///   and were woken (`parks - wakes` = sleeps aborted by the epoch
///   re-check, i.e. lost-wakeup near-misses);
/// * `deque_high_water` — deepest this worker's own deque has been.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerSchedStats {
    /// Jobs this worker executed.
    pub jobs_executed: u64,
    /// Jobs pushed onto this worker's own deque.
    pub local_pushes: u64,
    /// Steal probes that took an element.
    pub steal_successes: u64,
    /// Steal probes that found the victim empty.
    pub steal_empty: u64,
    /// Steal probes that lost a race and re-probed.
    pub steal_retries: u64,
    /// Jobs taken from the shared injector.
    pub injector_pops: u64,
    /// Idle episodes that reached the sleep call.
    pub parks: u64,
    /// Parks that actually blocked and were woken.
    pub wakes: u64,
    /// Maximum depth of this worker's own deque.
    pub deque_high_water: u64,
}

impl WorkerSchedStats {
    /// Total steal probes: successes + empty + retries.
    pub fn steal_attempts(&self) -> u64 {
        self.steal_successes + self.steal_empty + self.steal_retries
    }
}

/// Point-in-time snapshot of a pool's scheduler counters
/// ([`crate::ThreadPool::sched_stats`] / [`crate::sched_stats`]).
///
/// A sequential (width ≤ 1) or telemetry-disabled pool reports an empty
/// `workers` list. Between parallel operations the counters conserve
/// work: [`SchedSnapshot::jobs_executed`] equals
/// [`SchedSnapshot::jobs_submitted`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SchedSnapshot {
    /// Jobs pushed onto the shared injector (external submissions).
    pub injector_pushes: u64,
    /// Per-worker counters; index = worker id.
    pub workers: Vec<WorkerSchedStats>,
}

impl SchedSnapshot {
    /// Jobs executed across all workers.
    pub fn jobs_executed(&self) -> u64 {
        self.workers.iter().map(|w| w.jobs_executed).sum()
    }

    /// Jobs submitted: injector pushes plus every worker's local pushes.
    pub fn jobs_submitted(&self) -> u64 {
        self.injector_pushes + self.workers.iter().map(|w| w.local_pushes).sum::<u64>()
    }
}

struct Shared {
    /// One lock-free deque per worker; index = worker id. Only worker
    /// `i` may `push`/`pop` deque `i` (the Chase–Lev owner contract);
    /// everyone may `steal`.
    deques: Vec<ChaseLev<JobRef>>,
    /// Jobs injected from outside the pool (FIFO). External submissions
    /// are rare (one per `in_worker` migration), so a mutex-guarded
    /// queue is fine here; the hot fork path never touches it.
    injector: Mutex<VecDeque<JobRef>>,
    sleep: EventCounter,
    terminate: AtomicBool,
    /// Steal-order fuzzing seed; 0 disables jitter.
    jitter: u64,
    /// Per-worker telemetry; empty when telemetry is disabled (so the
    /// hot-path gate is a slice bounds check, not a branch on a flag).
    stats: Box<[WorkerStats]>,
    /// External submissions; counted here (not per worker) because the
    /// pushing thread is outside the pool.
    injector_pushes: AtomicU64,
}

impl Shared {
    /// Worker `index`'s telemetry counters; `None` when telemetry is
    /// disabled (the `stats` slice is then empty).
    #[inline]
    fn stat(&self, index: usize) -> Option<&WorkerStats> {
        self.stats.get(index)
    }

    /// Records `index` running a job. Counted *before* execution so that
    /// when a parallel operation completes (every job's `done` flag set,
    /// inside execution) all of its jobs are already counted — that is
    /// what makes executed == submitted hold between operations.
    #[inline]
    fn count_executed(&self, index: usize) {
        if let Some(s) = self.stat(index) {
            s.jobs_executed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Pops the bottom of worker `index`'s own deque (LIFO). Must only
    /// be called from worker `index` itself.
    fn pop_local(&self, index: usize) -> Option<JobRef> {
        self.deques[index].pop()
    }

    /// Pushes onto worker `index`'s own deque (stealable) and publishes.
    /// Must only be called from worker `index` itself.
    fn push_local(&self, index: usize, job: JobRef) {
        self.deques[index].push(job);
        if let Some(s) = self.stat(index) {
            s.local_pushes.fetch_add(1, Ordering::Relaxed);
            // Owner-only writer, so a load + plain store is a race-free
            // running maximum (no RMW on the fork hot path).
            let depth = self.deques[index].len() as u64;
            if depth > s.deque_high_water.load(Ordering::Relaxed) {
                s.deque_high_water.store(depth, Ordering::Relaxed);
            }
        }
        self.sleep.publish();
    }

    /// Steals the front of any queue: the injector first, then victim
    /// deques starting at `start` (FIFO — thieves take the oldest job,
    /// which by the splitting discipline is the largest pending chunk).
    /// A lost steal race (`Steal::Retry`) re-probes the same victim:
    /// contention means the deque is non-empty, so it is the best victim
    /// we know of.
    fn steal(&self, thief: usize, start: usize) -> Option<JobRef> {
        if let Some(job) = self.injector.lock().expect("injector lock").pop_front() {
            if let Some(s) = self.stat(thief) {
                s.injector_pops.fetch_add(1, Ordering::Relaxed);
            }
            return Some(job);
        }
        let n = self.deques.len();
        for offset in 0..n {
            let victim = (start + offset) % n;
            if victim == thief {
                continue;
            }
            loop {
                match self.deques[victim].steal() {
                    Steal::Success(job) => {
                        if let Some(s) = self.stat(thief) {
                            s.steal_successes.fetch_add(1, Ordering::Relaxed);
                        }
                        return Some(job);
                    }
                    Steal::Retry => {
                        if let Some(s) = self.stat(thief) {
                            s.steal_retries.fetch_add(1, Ordering::Relaxed);
                        }
                        continue;
                    }
                    Steal::Empty => {
                        if let Some(s) = self.stat(thief) {
                            s.steal_empty.fetch_add(1, Ordering::Relaxed);
                        }
                        break;
                    }
                }
            }
        }
        None
    }

    fn push_injected(&self, job: JobRef) {
        if !self.stats.is_empty() {
            self.injector_pushes.fetch_add(1, Ordering::Relaxed);
        }
        self.injector.lock().expect("injector lock").push_back(job);
        self.sleep.publish();
    }
}

/// Thread-local identity of a pool worker.
struct WorkerCtx {
    shared: Arc<Shared>,
    index: usize,
    /// Per-worker SplitMix64 state for steal-order jitter (0 = off).
    rng: Cell<u64>,
}

impl WorkerCtx {
    /// Next jitter draw; advances a SplitMix64 stream.
    fn jitter_draw(&self) -> u64 {
        let mut state = self.rng.get().wrapping_add(0x9e37_79b9_7f4a_7c15);
        self.rng.set(state);
        state = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        state = (state ^ (state >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        state ^ (state >> 31)
    }

    /// Victim scan start: round-robin normally, randomized under jitter.
    fn steal_start(&self) -> usize {
        let n = self.shared.deques.len();
        if self.shared.jitter != 0 {
            // Occasionally yield first so another thread's steal can win
            // the race — this is what actually permutes steal order on a
            // machine with fewer cores than workers.
            if self.jitter_draw().is_multiple_of(4) {
                thread::yield_now();
            }
            (self.jitter_draw() as usize) % n.max(1)
        } else {
            (self.index + 1) % n.max(1)
        }
    }
}

thread_local! {
    static WORKER: RefCell<Option<WorkerCtx>> = const { RefCell::new(None) };
}

/// Runs `f` with the current thread's worker context, if it is a pool
/// worker thread.
fn with_worker<R>(f: impl FnOnce(Option<&WorkerCtx>) -> R) -> R {
    WORKER.with(|cell| f(cell.borrow().as_ref()))
}

fn worker_main(shared: Arc<Shared>, index: usize, registry: Arc<Registry>) {
    WORKER.with(|cell| {
        *cell.borrow_mut() = Some(WorkerCtx {
            shared: Arc::clone(&shared),
            index,
            rng: Cell::new(shared.jitter ^ (index as u64).wrapping_mul(0x9e37_79b9)),
        });
    });
    // Parallel operations started *from* this worker (nested collects)
    // should split to this pool's width.
    crate::set_current_registry(Some(registry));
    loop {
        // The epoch snapshot must precede the work scan: a publish that
        // lands between scan and sleep then moves the epoch past the
        // snapshot and `sleep` returns immediately.
        let snapshot = shared.sleep.snapshot();
        let found = with_worker(|ctx| {
            let ctx = ctx.expect("worker context set above");
            let start = ctx.steal_start();
            shared
                .pop_local(index)
                .or_else(|| shared.steal(index, start))
        });
        if let Some(job) = found {
            shared.count_executed(index);
            unsafe { job.run() };
            continue;
        }
        if shared.terminate.load(Ordering::Acquire) {
            break;
        }
        if let Some(s) = shared.stat(index) {
            s.parks.fetch_add(1, Ordering::Relaxed);
        }
        if shared.sleep.sleep(snapshot) {
            if let Some(s) = shared.stat(index) {
                s.wakes.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// A work-stealing thread pool. `width` is the number of threads that
/// cooperate on parallel operations (the pool spawns `width` workers;
/// callers from outside park while workers run).
pub(crate) struct Registry {
    shared: Arc<Shared>,
    width: usize,
    /// Joined on drop so `ThreadPool` teardown is deterministic.
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("width", &self.width)
            .finish_non_exhaustive()
    }
}

impl Registry {
    /// Builds a registry of `width` cooperating threads. Width 0/1 is a
    /// sequential registry: no threads are spawned and every operation
    /// runs inline on the caller. `telemetry` controls whether the
    /// per-worker scheduler counters are maintained.
    pub(crate) fn new(width: usize, jitter: u64, telemetry: bool) -> Arc<Registry> {
        let width = width.max(1);
        let spawn = if width > 1 { width } else { 0 };
        let tracked = if telemetry { spawn } else { 0 };
        let shared = Arc::new(Shared {
            deques: (0..spawn).map(|_| ChaseLev::new()).collect(),
            injector: Mutex::new(VecDeque::new()),
            sleep: EventCounter::new(),
            terminate: AtomicBool::new(false),
            jitter,
            stats: (0..tracked).map(|_| WorkerStats::new()).collect(),
            injector_pushes: AtomicU64::new(0),
        });
        let registry = Arc::new(Registry {
            shared: Arc::clone(&shared),
            width,
            workers: Mutex::new(Vec::new()),
        });
        let mut handles = Vec::with_capacity(spawn);
        for index in 0..spawn {
            let shared = Arc::clone(&shared);
            let registry_ref = Arc::clone(&registry);
            handles.push(
                thread::Builder::new()
                    .name(format!("irma-steal-{index}"))
                    .spawn(move || worker_main(shared, index, registry_ref))
                    .expect("spawn pool worker"),
            );
        }
        *registry.workers.lock().expect("workers lock") = handles;
        registry
    }

    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// Snapshots the scheduler counters (relaxed loads; each worker's
    /// counters are individually coherent, cross-worker totals are exact
    /// whenever the pool is quiescent between parallel operations).
    pub(crate) fn sched_stats(&self) -> SchedSnapshot {
        SchedSnapshot {
            injector_pushes: self.shared.injector_pushes.load(Ordering::Relaxed),
            workers: self
                .shared
                .stats
                .iter()
                .map(|s| WorkerSchedStats {
                    jobs_executed: s.jobs_executed.load(Ordering::Relaxed),
                    local_pushes: s.local_pushes.load(Ordering::Relaxed),
                    steal_successes: s.steal_successes.load(Ordering::Relaxed),
                    steal_empty: s.steal_empty.load(Ordering::Relaxed),
                    steal_retries: s.steal_retries.load(Ordering::Relaxed),
                    injector_pops: s.injector_pops.load(Ordering::Relaxed),
                    parks: s.parks.load(Ordering::Relaxed),
                    wakes: s.wakes.load(Ordering::Relaxed),
                    deque_high_water: s.deque_high_water.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }

    /// Runs `op` on a pool worker and blocks until it completes. If the
    /// current thread already is a worker of this pool — or the pool is
    /// sequential — `op` runs inline.
    pub(crate) fn in_worker<Op, R>(&self, op: Op) -> R
    where
        Op: FnOnce() -> R + Send,
        R: Send,
    {
        if self.width <= 1 {
            return op();
        }
        let inline =
            with_worker(|ctx| ctx.is_some_and(|ctx| Arc::ptr_eq(&ctx.shared, &self.shared)));
        if inline {
            return op();
        }
        let job = StackJob::new(op, Some(thread::current()));
        self.shared.push_injected(job.as_job_ref());
        job.wait_parked();
        match job.take_result() {
            Ok(value) => value,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }

    /// Terminates and joins all workers. Idempotent. Called explicitly
    /// from `ThreadPool::drop` because workers hold an `Arc<Registry>`
    /// in their thread-locals — the registry's own `Drop` can therefore
    /// only run after the workers have already exited.
    pub(crate) fn shutdown(&self) {
        self.shared.terminate.store(true, Ordering::Release);
        self.shared.sleep.publish_all();
        let handles: Vec<_> = self
            .workers
            .lock()
            .expect("workers lock")
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for Registry {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The process-global registry used outside any [`crate::ThreadPool`].
pub(crate) fn global_registry() -> &'static Arc<Registry> {
    static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let width = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Registry::new(width, 0, true)
    })
}

/// Index of the current pool worker thread (`None` off-pool). Mirrors
/// `rayon::current_thread_index`; the miners use it to attribute spans
/// and scratch arenas to workers.
pub fn current_thread_index() -> Option<usize> {
    with_worker(|ctx| ctx.map(|ctx| ctx.index))
}

/// Potentially-parallel fork-join: runs both closures, `a` inline and
/// `b` either popped back LIFO (not stolen) or on whichever worker stole
/// it. Outside a pool worker this runs `a` then `b` sequentially.
///
/// Panic semantics match rayon: if either closure panics, the panic is
/// re-raised here on the joining thread *after* both closures have
/// stopped running, preferring `a`'s panic when both fail.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let on_worker = with_worker(|ctx| ctx.map(|ctx| (Arc::clone(&ctx.shared), ctx.index)));
    match on_worker {
        Some((shared, index)) => join_on_worker(&shared, index, a, b),
        None => {
            let registry = crate::current_registry();
            if registry.width() <= 1 {
                // Sequential degenerate case: plain calls, natural panic
                // propagation.
                let ra = a();
                let rb = b();
                (ra, rb)
            } else {
                // Migrate into the pool so the fork actually forks.
                let registry = Arc::clone(&registry);
                registry.in_worker(move || join(a, b))
            }
        }
    }
}

fn join_on_worker<A, B, RA, RB>(shared: &Arc<Shared>, index: usize, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let job_b = StackJob::new(b, None);
    shared.push_local(index, job_b.as_job_ref());

    let ra = std::panic::catch_unwind(AssertUnwindSafe(a));

    // Work while waiting: until our b is done (inline pop or a thief's
    // completion), keep executing whatever is pending. Executing jobs
    // from enclosing frames here is safe — they are independent by
    // construction and their owners wait on `done` flags exactly like
    // we do.
    while !job_b.is_done() {
        let next = with_worker(|ctx| {
            let ctx = ctx.expect("join_on_worker runs on a worker");
            let start = ctx.steal_start();
            shared
                .pop_local(index)
                .or_else(|| shared.steal(index, start))
        });
        match next {
            Some(job) => {
                shared.count_executed(index);
                unsafe { job.run() }
            }
            None => thread::yield_now(),
        }
    }
    let rb = job_b.take_result();

    match (ra, rb) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(payload), _) => std::panic::resume_unwind(payload),
        (_, Err(payload)) => std::panic::resume_unwind(payload),
    }
}

#[cfg(test)]
mod tests {
    use crate::ThreadPoolBuilder;

    fn fib(n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        let (a, b) = crate::join(|| fib(n - 1), || fib(n - 2));
        a + b
    }

    #[test]
    fn counters_conserve_work_between_operations() {
        let pool = ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .expect("pool builds");
        for round in 0..3 {
            assert_eq!(pool.install(|| fib(16)), 987);
            let stats = pool.sched_stats();
            assert_eq!(stats.workers.len(), 4);
            assert_eq!(
                stats.jobs_executed(),
                stats.jobs_submitted(),
                "round {round}: executed != submitted"
            );
        }
        let stats = pool.sched_stats();
        assert!(stats.jobs_executed() > 0, "fib(16) forks at least once");
        assert!(
            stats.injector_pushes > 0,
            "install migrates via the injector"
        );
        assert!(
            stats.workers.iter().any(|w| w.deque_high_water > 0),
            "some worker's deque held pending work"
        );
        for w in &stats.workers {
            assert!(w.wakes <= w.parks, "a wake implies a park");
            assert_eq!(
                w.steal_attempts(),
                w.steal_successes + w.steal_empty + w.steal_retries
            );
        }
    }

    /// Off-pool owners park in `in_worker` while a worker runs their job;
    /// the executor must not touch the job once `done` is visible, or a
    /// woken owner frees it under the executor's feet. Several external
    /// callers hammering a narrow jittered pool keep that window hot.
    #[test]
    fn parked_owners_survive_concurrent_completion() {
        let pool = ThreadPoolBuilder::new()
            .num_threads(2)
            .steal_jitter(0x5eed)
            .build()
            .expect("pool builds");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..300 {
                        assert_eq!(pool.install(|| fib(10)), 55);
                    }
                });
            }
        });
    }

    #[test]
    fn telemetry_off_reports_no_workers() {
        let pool = ThreadPoolBuilder::new()
            .num_threads(4)
            .telemetry(false)
            .build()
            .expect("pool builds");
        assert_eq!(pool.install(|| fib(12)), 144);
        let stats = pool.sched_stats();
        assert!(stats.workers.is_empty());
        assert_eq!(stats.injector_pushes, 0);
        assert_eq!(stats.jobs_executed(), 0);
    }

    #[test]
    fn sequential_pool_snapshot_is_empty() {
        let pool = ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("pool builds");
        assert_eq!(pool.install(|| fib(10)), 55);
        assert!(pool.sched_stats().workers.is_empty());
    }
}
