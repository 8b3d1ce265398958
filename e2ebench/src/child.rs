//! The measuring side: runs one workload and streams its results to the
//! parent process as lines on stdout, flushed one by one, so a crash
//! loses only the operation it interrupted.
//!
//! Line protocol (one record per line, space-separated):
//!
//! * `setup <seconds>` — one timed set-up;
//! * `measure` — the measured phase starts;
//! * `sample <name> <value>` — one sample of a named quantity;
//! * `op ok|fail|wrong <detail>` — one finished operation;
//! * `info <text>` — a line for the human-readable report.

use std::io::Write;
use std::time::{Duration, Instant};

use irma_mine::ItemCatalog;
use irma_rules::Rule;

use crate::alloc;

/// What one child process runs.
pub struct Plan {
    pub seed: u64,
    /// Measuring time left for this child.
    pub seconds: f64,
    pub trace: bool,
    /// Timed set-ups before measuring: several in the first child, whose
    /// median is `setup_s`; one in a child that carries on after a crash.
    pub setups: usize,
}

/// Fixed seed of the synthetic trace content. The run seed never changes
/// what is generated, only the order of rows and requests.
pub const DATA_SEED: u64 = 0x1b2d_2024;

/// Rows rendered per keyword table (the CLI's `--top`).
pub const TOP: usize = 50;

/// The paper's two analysis keywords.
pub const PAPER_KEYWORDS: [&str; 2] = ["Failed", "SM Util = 0%"];

pub fn emit(line: &str) {
    let mut out = std::io::stdout().lock();
    // A closed pipe means the parent is gone; nothing is left to report to.
    let _ = writeln!(out, "{line}").and_then(|_| out.flush());
}

pub fn sample(name: &str, value: f64) {
    emit(&format!("sample {name} {value}"));
}

pub fn sample_secs(name: &str, d: Duration) {
    sample(name, d.as_secs_f64());
}

pub fn sample_ms(name: &str, d: Duration) {
    sample(name, d.as_secs_f64() * 1e3);
}

pub fn op_ok() {
    emit("op ok");
}

pub fn op_fail(detail: &str) {
    emit(&format!("op fail {detail}"));
}

pub fn op_wrong(detail: &str) {
    emit(&format!("op wrong {detail}"));
}

pub fn info(text: &str) {
    emit(&format!("info {text}"));
}

/// Times `plan.setups` set-ups and keeps the last one's state.
pub fn setup<T>(plan: &Plan, mut build: impl FnMut() -> T) -> T {
    let mut state = None;
    for _ in 0..plan.setups.max(1) {
        drop(state.take());
        let start = Instant::now();
        let built = build();
        emit(&format!("setup {}", start.elapsed().as_secs_f64()));
        state = Some(built);
    }
    state.expect("at least one set-up ran")
}

/// Runs passes until `plan.seconds` have passed (and at least `min_passes`).
/// With `trace` on, passes alternate untraced and traced, so the traced
/// run also measures its own overhead. Each pass's peak heap is one
/// sample: a pass's peak depends on how its parallel work interleaves, so
/// the run reports their median rather than a single maximum.
pub fn measure(plan: &Plan, min_passes: usize, mut pass: impl FnMut(usize, bool)) {
    emit("measure");
    let start = Instant::now();
    let mut i = 0;
    while i < min_passes || start.elapsed().as_secs_f64() < plan.seconds {
        alloc::reset_peak();
        pass(i, plan.trace && i % 2 == 1);
        sample("peak_heap_mb", alloc::peak_mb());
        i += 1;
    }
}

/// SplitMix64: a small seeded generator for permutations and samples.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// A uniformly random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        self.shuffle(&mut order);
        order
    }
}

/// FNV-1a, to fingerprint rendered output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Adds a rule set to `digest` in a form that does not depend on item
/// ids, which follow the order items first appear in the rows: each rule
/// as sorted labels per side plus its exact measures, rules sorted.
pub fn add_rules(digest: &mut Digest, rules: &[Rule], catalog: &ItemCatalog) {
    let side = |items: &[u32]| {
        let mut labels: Vec<&str> = items.iter().map(|&id| catalog.label(id)).collect();
        labels.sort_unstable();
        labels.join(",")
    };
    let mut lines: Vec<String> = rules
        .iter()
        .map(|r| {
            format!(
                "{}=>{} {:?} {:?} {:?}\n",
                side(r.antecedent.items()),
                side(r.consequent.items()),
                r.support,
                r.confidence,
                r.lift
            )
        })
        .collect();
    lines.sort_unstable();
    for line in lines {
        digest.add(line.as_bytes());
    }
}

/// Checks one pass's fingerprint against the set-up reference and
/// reports the operation.
pub fn check_op(what: &str, got: &str, want: &str) {
    if got == want {
        op_ok();
    } else {
        op_wrong(&format!("{what}: got {got}, want {want}"));
    }
}
