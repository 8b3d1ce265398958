//! Heap accounting: a counting `GlobalAlloc` over `System`, plus the
//! per-layer attribution the traced run builds on top of it.
//!
//! The counters are process-wide statistics that publish no other data,
//! so every access is `Relaxed`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

/// Live heap bytes right now.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// Highest `LIVE` since [`reset_peak`].
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Highest `LIVE` since the attribution's last checkpoint.
static WINDOW_PEAK: AtomicUsize = AtomicUsize::new(0);
/// Bytes ever allocated (growth only; a shrinking realloc adds nothing).
static TOTAL: AtomicU64 = AtomicU64::new(0);

/// `System` with the counters above.
pub struct Counting;

fn grow(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Relaxed) + bytes;
    TOTAL.fetch_add(bytes as u64, Relaxed);
    if now > PEAK.load(Relaxed) {
        PEAK.fetch_max(now, Relaxed);
    }
    if now > WINDOW_PEAK.load(Relaxed) {
        WINDOW_PEAK.fetch_max(now, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are only
// bookkeeping and never influence the returned pointers.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded with the caller's (valid, non-zero) layout.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's `realloc` contract is forwarded unchanged.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            let old = layout.size();
            if new_size > old {
                grow(new_size - old);
            } else {
                LIVE.fetch_sub(old - new_size, Relaxed);
            }
        }
        new
    }
}

/// Bytes in a megabyte as reported (MiB).
pub const MB: f64 = 1024.0 * 1024.0;

/// Restarts the peak at the current live heap.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Highest live heap, in MB, since [`reset_peak`].
pub fn peak_mb() -> f64 {
    PEAK.load(Relaxed) as f64 / MB
}

/// The layers heap use is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Data,
    Prep,
    Mine,
    Rules,
    Serve,
    Other,
}

impl Layer {
    pub const REPORTED: [Layer; 5] = [
        Layer::Data,
        Layer::Prep,
        Layer::Mine,
        Layer::Rules,
        Layer::Serve,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Data => "data",
            Layer::Prep => "prep",
            Layer::Mine => "mine",
            Layer::Rules => "rules",
            Layer::Serve => "serve",
            Layer::Other => "other",
        }
    }

    /// The layer a program span belongs to. `core.analyze`'s self time is
    /// the rule-trie build, so it counts as `rules`.
    fn of_stage(stage: &str) -> Layer {
        match stage.split('.').next() {
            Some("data") => Layer::Data,
            Some("prep") => Layer::Prep,
            Some("mine") => Layer::Mine,
            Some("rules") | Some("core") => Layer::Rules,
            Some("serve") => Layer::Serve,
            _ => Layer::Other,
        }
    }
}

/// Bytes allocated and peak live heap per layer over one traced pass.
#[derive(Debug, Default)]
struct AttrState {
    /// Open spans, innermost last: (span id, layer).
    open: Vec<(u64, Layer)>,
    /// Id for the next benchmark-side span.
    next_own: u64,
    last_total: u64,
    bytes: [u64; 6],
    peak: [usize; 6],
}

impl AttrState {
    /// Charges everything allocated since the last checkpoint to the
    /// innermost open span, and the window's peak to every open span.
    fn checkpoint(&mut self) {
        let total = TOTAL.load(Relaxed);
        let innermost = self.open.last().map_or(Layer::Other, |&(_, l)| l);
        self.bytes[innermost as usize] += total.saturating_sub(self.last_total);
        self.last_total = total;
        let window = WINDOW_PEAK.swap(LIVE.load(Relaxed), Relaxed);
        for &(_, layer) in &self.open {
            let slot = &mut self.peak[layer as usize];
            *slot = (*slot).max(window);
        }
    }
}

/// Attributes heap use to layers by the spans open at the time: the
/// program's own spans (fed through [`Attribution::sink`]) and the
/// benchmark's spans around public calls that have none
/// ([`Attribution::open`]).
#[derive(Debug, Clone)]
pub struct Attribution {
    state: Arc<Mutex<AttrState>>,
}

/// Span ids for the benchmark's own spans, far above the registry's.
const OWN_SPAN_BASE: u64 = 1 << 62;

impl Attribution {
    pub fn new() -> Attribution {
        let state = AttrState {
            next_own: OWN_SPAN_BASE,
            last_total: TOTAL.load(Relaxed),
            ..AttrState::default()
        };
        WINDOW_PEAK.store(LIVE.load(Relaxed), Relaxed);
        Attribution {
            state: Arc::new(Mutex::new(state)),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, AttrState> {
        self.state.lock().expect("attribution lock poisoned")
    }

    /// Opens a benchmark-side span for `layer`; close it with
    /// [`Attribution::close`].
    pub fn open(&self, layer: Layer) -> u64 {
        let mut state = self.lock();
        state.checkpoint();
        let id = state.next_own;
        state.next_own += 1;
        state.open.push((id, layer));
        id
    }

    pub fn close(&self, id: u64) {
        let mut state = self.lock();
        state.checkpoint();
        if let Some(pos) = state.open.iter().rposition(|&(open, _)| open == id) {
            state.open.remove(pos);
        }
    }

    /// Runs `f` inside a benchmark-side span for `layer`.
    pub fn around<T>(&self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let id = self.open(layer);
        let out = f();
        self.close(id);
        out
    }

    /// MB allocated and peak live MB per reported layer so far.
    pub fn totals(&self) -> Vec<(Layer, f64, f64)> {
        let mut state = self.lock();
        state.checkpoint();
        Layer::REPORTED
            .iter()
            .map(|&l| {
                (
                    l,
                    state.bytes[l as usize] as f64 / MB,
                    state.peak[l as usize] as f64 / MB,
                )
            })
            .collect()
    }

    /// An event-log writer that follows the program's span open/close
    /// events (see `irma_obs::EventSink`).
    pub fn sink(&self) -> irma_obs::EventSink {
        irma_obs::EventSink::from_writer(Box::new(SpanFollower {
            attribution: self.clone(),
            line: Vec::new(),
        }))
    }
}

/// Reads the JSONL span events the registry emits and mirrors each
/// open/close into the attribution.
struct SpanFollower {
    attribution: Attribution,
    line: Vec<u8>,
}

fn json_u64(line: &str, key: &str) -> Option<u64> {
    let start = line.find(key)? + key.len();
    let digits: String = line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

fn json_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(key)? + key.len();
    let len = line[start..].find('"')?;
    Some(&line[start..start + len])
}

impl SpanFollower {
    fn event(&self, line: &str) {
        let Some(id) = json_u64(line, "\"span\":") else {
            return;
        };
        if line.contains("\"event\":\"span_open\"") {
            let layer = Layer::of_stage(json_str(line, "\"stage\":\"").unwrap_or(""));
            let mut state = self.attribution.lock();
            state.checkpoint();
            state.open.push((id, layer));
        } else if line.contains("\"event\":\"span_close\"") {
            self.attribution.close(id);
        }
    }
}

impl Write for SpanFollower {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        for &byte in buf {
            if byte == b'\n' {
                let line = String::from_utf8_lossy(&self.line).into_owned();
                self.event(&line);
                self.line.clear();
            } else {
                self.line.push(byte);
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}
