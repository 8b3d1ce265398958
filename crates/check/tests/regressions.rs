//! Deterministic locks on previously found bugs, phrased through the
//! public cross-crate surfaces (the per-crate unit suites hold the
//! narrower versions). Each test here failed on the pre-fix code.

use irma_data::parse_records;
use irma_mine::{fpgrowth, BudgetGuard, Itemset, MinerConfig, SlidingWindowMiner};
use irma_prep::{BinEdges, BinningScheme};

/// `0.07 × 100 == 7.000000000000001`: the pre-fix ceil returned 8 and the
/// seven jobs sitting exactly at the 7% threshold vanished from the
/// frequent family — and from `hot_items`, which shares `min_count`.
#[test]
fn threshold_sitting_items_survive_the_float_ceil() {
    let config = MinerConfig {
        min_support: 0.07,
        max_len: 2,
    };
    let txns: Vec<Vec<u32>> = (0..100)
        .map(|i| if i < 7 { vec![0, 1] } else { vec![1] })
        .collect();

    let db = irma_mine::TransactionDb::from_transactions(txns.clone());
    let frequent = fpgrowth(&db, &config).unwrap();
    assert_eq!(frequent.count(&Itemset::singleton(0)), Some(7));

    let mut miner = SlidingWindowMiner::new(100, config.clone());
    for txn in txns {
        miner.push(txn);
    }
    assert!(miner.hot_items().contains(&0), "hot_items dropped item 0");
    let windowed = miner.mine(&config, &BudgetGuard::unlimited()).unwrap();
    assert_eq!(windowed.count(&Itemset::singleton(0)), Some(7));
}

/// A quoted CRLF kept its stray `\r` pre-fix; and a final record whose
/// only field was a quoted empty string was silently dropped.
#[test]
fn csv_quoted_crlf_and_final_record_edges() {
    let records = parse_records("a\r\n\"x\r\ny\"\r\n").unwrap();
    assert_eq!(records[1], vec!["x\ny"]);

    let records = parse_records("a\n\"\"").unwrap();
    assert_eq!(records.len(), 2, "final quoted-empty record dropped");
}

/// A NaN sentinel in a trace column corrupted every bin edge in release
/// builds pre-hardening (only a debug_assert guarded the sort).
#[test]
fn nan_sentinels_do_not_corrupt_bin_edges() {
    let clean: Vec<f64> = (0..100).map(f64::from).collect();
    let mut dirty = clean.clone();
    dirty.insert(50, f64::NAN);
    let expect = BinEdges::fit(&clean, 4, BinningScheme::EqualFrequency).unwrap();
    let got = BinEdges::fit(&dirty, 4, BinningScheme::EqualFrequency).unwrap();
    assert_eq!(got, expect);
}
