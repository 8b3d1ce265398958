//! The batch encoder slots the training frame once and shares the slots
//! between the fit's prevalence count and the transform; `fit` followed
//! by `transform` slots the frame twice. Both must encode alike: the same
//! catalog labels in id order, the same report and the same
//! transactions, on pools of width 1, 2 and 8.

use proptest::collection::vec;
use proptest::prelude::*;
use rayon::ThreadPoolBuilder;

use irma_data::{Column, Frame};
use irma_mine::TransactionDb;
use irma_obs::Metrics;
use irma_prep::{encode, fit, EncoderSpec, FeatureSpec, SpikeBin, ZeroBin};

const WIDTHS: [usize; 3] = [1, 2, 8];

/// One row's picks: utilisation, CPU request, user, status, exit
/// reason, GPU count.
type Row = (usize, usize, usize, usize, usize, usize);

/// A frame whose features cover every slot kind: a zero-inflated float
/// column with nulls, a spiked int column, a skewed user column, a GPU
/// count flag, and two categorical columns that both emit the bare label
/// `Failed`, sometimes in the same row.
fn frame(rows: &[Row]) -> Frame {
    const USERS: [&str; 8] = [
        "alice", "alice", "alice", "bob", "carol", "dave", "erin", "fay",
    ];
    const STATUS: [Option<&str>; 4] = [Some("Pass"), Some("Failed"), Some("Killed"), None];
    const EXIT: [Option<&str>; 4] = [Some("Failed"), Some("OOM"), None, Some("Timeout")];
    let util = rows.iter().map(|r| match r.0 {
        0 => None,
        1 => Some(0.0),
        2 => Some(0.5),
        k => Some(k as f64 * 17.5),
    });
    let cpus = rows
        .iter()
        .map(|r| if r.1 == 0 { 600 } else { r.1 as i64 * 100 });
    let mut frame = Frame::new();
    let columns = [
        ("util", Column::from_opt_floats(util)),
        ("cpus", Column::from_ints(cpus)),
        ("user", Column::from_strs(rows.iter().map(|r| USERS[r.2]))),
        (
            "status",
            Column::from_opt_strs(rows.iter().map(|r| STATUS[r.3])),
        ),
        (
            "exit",
            Column::from_opt_strs(rows.iter().map(|r| EXIT[r.4])),
        ),
        ("gpus", Column::from_ints(rows.iter().map(|r| r.5 as i64))),
    ];
    for (name, column) in columns {
        frame.add_column(name, column).expect("unique names");
    }
    frame
}

fn spec(drop_prevalence: f64) -> EncoderSpec {
    EncoderSpec {
        drop_prevalence,
        ..EncoderSpec::new(vec![
            FeatureSpec::numeric_zero("util", "SM Util", ZeroBin::percent()),
            FeatureSpec::Numeric {
                column: "cpus".to_string(),
                display: "CPU Request".to_string(),
                n_bins: 4,
                scheme: Default::default(),
                zero: None,
                spike: Some(SpikeBin {
                    min_share: 0.3,
                    label: "Std".to_string(),
                }),
            },
            FeatureSpec::frequency("user", "Freq User", "New User"),
            FeatureSpec::flag("gpus", "Multi-GPU", 1.0),
            FeatureSpec::categorical("status", ""),
            FeatureSpec::categorical_remap("exit", "", [("OOM", "Failed")]),
        ])
    }
}

fn transactions(db: &TransactionDb) -> Vec<Vec<u32>> {
    (0..db.len()).map(|r| db.transaction(r).to_vec()).collect()
}

proptest! {
    #![proptest_config(irma_check::config())]

    #[test]
    fn encode_equals_fit_then_transform(
        rows in vec((0..7usize, 0..5usize, 0..8usize, 0..4usize, 0..4usize, 0..4usize), 0..80),
        drop_prevalence in 0.2f64..1.0,
    ) {
        let frame = frame(&rows);
        let spec = spec(drop_prevalence);
        for width in WIDTHS {
            let pool = ThreadPoolBuilder::new().num_threads(width).build().expect("pool");
            let (encoded, fitted, db) = pool.install(|| {
                let fitted = fit(&frame, &spec);
                let db = fitted.transform(&frame);
                (encode(&frame, &spec, &Metrics::disabled()), fitted, db)
            });
            prop_assert_eq!(encoded.catalog.labels(), fitted.catalog().labels(), "width {}", width);
            prop_assert_eq!(&encoded.report, fitted.report(), "width {}", width);
            prop_assert_eq!(encoded.db.n_items(), db.n_items(), "width {}", width);
            prop_assert_eq!(transactions(&encoded.db), transactions(&db), "width {}", width);
        }
    }
}

#[test]
fn shared_labels_count_every_emission_and_dedup_per_row() {
    // Rows 0 and 1 emit `Failed` from both status and exit (`OOM` remaps
    // to it): the item appears once in each row's transaction, but its
    // prevalence counts four emissions over six rows.
    let mut rows = vec![(3, 1, 0, 1, 0, 1), (4, 2, 3, 1, 1, 1)];
    rows.extend([(5, 3, 4, 0, 2, 2); 4]);
    let kept = encode(&frame(&rows), &spec(0.9), &Metrics::disabled());
    let failed = kept.item("Failed");
    for row in 0..2 {
        let t = kept.db.transaction(row);
        assert_eq!(t.iter().filter(|&&i| i == failed).count(), 1, "row {row}");
    }
    let cut = encode(&frame(&rows), &spec(0.6), &Metrics::disabled());
    assert!(cut.catalog.id("Failed").is_none());
    let share = cut
        .report
        .dropped
        .iter()
        .find(|(label, _)| label == "Failed");
    assert_eq!(share.map(|(_, share)| *share), Some(4.0 / 6.0));
}
