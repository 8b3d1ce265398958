//! Shrinkable input generators shared by the differential suites.
//!
//! All strategies bottom out in the proptest shim's recorded choice
//! sequence, so a failing case shrinks toward fewer transactions, fewer
//! items, smaller values, and threshold boundaries automatically.

use proptest::collection::vec;
use proptest::option;
use proptest::prelude::*;
use proptest::string::string_regex;

use irma_data::{Column, Frame};
use irma_mine::{MinerConfig, TransactionDb};

/// Random database over a small item universe (so brute force stays
/// cheap: the oracle enumerates `2^max_items` masks).
pub fn arb_transaction_db(max_items: u32, max_txns: usize) -> impl Strategy<Value = TransactionDb> {
    vec(vec(0..max_items, 0..(max_items as usize + 2)), 1..max_txns)
        .prop_map(TransactionDb::from_transactions)
}

/// Miner config over the full parameter space the workspace uses:
/// percentage-grid support thresholds (what the paper writes: 5%, 7%, …),
/// and itemset length caps 1–5.
pub fn arb_miner_config() -> impl Strategy<Value = MinerConfig> {
    (1..=100u64, 1usize..=5).prop_map(|(pct, max_len)| MinerConfig {
        min_support: pct as f64 / 100.0,
        max_len,
    })
}

/// A boundary case for the support threshold: item 0 occurs in *exactly*
/// `ceil(pct/100 × n)` of the `n` transactions, i.e. precisely at the
/// configured minimum. Returns `(db, config, expected_count)`; a correct
/// miner must report `{0}` as frequent with that exact count. This is the
/// input family on which the pre-fix `MinerConfig::min_count` float
/// off-by-one excluded threshold-sitting items.
pub fn arb_exact_threshold_case() -> impl Strategy<Value = (TransactionDb, MinerConfig, u64)> {
    (1..=100u64, 1..=200usize).prop_map(|(pct, n)| {
        let at_threshold = (pct as usize * n).div_ceil(100).max(1);
        let txns: Vec<Vec<u32>> = (0..n)
            .map(|i| {
                if i < at_threshold {
                    vec![0, 1]
                } else {
                    vec![1]
                }
            })
            .collect();
        let config = MinerConfig {
            min_support: pct as f64 / 100.0,
            max_len: 2,
        };
        (
            TransactionDb::from_transactions(txns),
            config,
            at_threshold as u64,
        )
    })
}

/// Deterministic Fisher–Yates shuffle of `items` driven by `draws`
/// (consumed cyclically). Used to probe order-independence properties
/// without needing a length-dependent strategy.
pub fn shuffled<T: Clone>(items: &[T], draws: &[u64]) -> Vec<T> {
    let mut out: Vec<T> = items.to_vec();
    if draws.is_empty() {
        return out;
    }
    for i in (1..out.len()).rev() {
        let j = (draws[i % draws.len()] % (i as u64 + 1)) as usize;
        out.swap(i, j);
    }
    out
}

/// Strings that survive CSV type inference unchanged: non-empty, no
/// digits, none of the null/bool literals, but exercising the quoting
/// path (commas, quotes, embedded newlines).
pub fn arb_safe_string() -> impl Strategy<Value = String> {
    string_regex("[xyz ,\"\n#|;-]{1,12}")
        .expect("valid regex")
        .prop_filter("no blank-only cells (trim-ambiguous)", |s| {
            !s.trim().is_empty()
        })
}

/// A frame with int, float, and string columns (nullable cells) whose
/// values survive CSV write → read unchanged up to numeric re-typing.
pub fn arb_frame() -> impl Strategy<Value = Frame> {
    (1..30usize).prop_flat_map(|n| {
        (
            vec(option::of(any::<i64>()), n),
            vec(option::of(-1.0e12f64..1.0e12), n),
            vec(option::of(arb_safe_string()), n),
        )
            .prop_map(|(ints, floats, strs)| {
                let mut frame = Frame::new();
                frame
                    .add_column("ints", Column::from_opt_ints(ints))
                    .unwrap();
                frame
                    .add_column("floats", Column::from_opt_floats(floats))
                    .unwrap();
                frame
                    .add_column(
                        "strs",
                        Column::from_opt_strs(strs.iter().map(|o| o.as_deref())),
                    )
                    .unwrap();
                frame
            })
    })
}
