//! Transaction encoding: merged frame -> `TransactionDb` + item catalog.
//!
//! Encoding is split into **fit** and **transform** so that a preparation
//! fitted on one trace (bin edges, spike values, frequency classes, the
//! prevalence-dropped item set) can be applied unchanged to held-out data
//! — required by the rule-based failure predictor, which must not re-fit
//! its bins on the jobs it is evaluated on.
//!
//! [`fit`] makes two passes over the training frame:
//!
//! 1. per numeric feature: collect finite values, detect the spike value,
//!    fit bin edges on the residual distribution; per id feature: compute
//!    head/tail frequency classes;
//! 2. emit item labels per row, then drop items whose prevalence exceeds
//!    the cut-off (§III-E) and freeze the surviving [`ItemCatalog`].
//!
//! [`FittedEncoder::transform`] replays the same label emission against
//! the frozen catalog: labels that were dropped at fit time (or never
//! seen) emit nothing. Null cells never emit an item.

use std::collections::{HashMap, HashSet};

use irma_data::Frame;
use irma_mine::{ItemCatalog, ItemId, TransactionDb};
use irma_obs::Metrics;

use crate::binning::{detect_spike, BinEdges};
use crate::spec::{EncoderSpec, FeatureSpec};

/// Fit state for one numeric feature.
#[derive(Debug, Clone)]
pub struct NumericFit {
    /// Display name of the feature.
    pub display: String,
    /// Detected standard/default value, if any.
    pub spike_value: Option<f64>,
    /// Edges fitted on values outside the zero and spike bins.
    pub edges: Option<BinEdges>,
}

/// Frequency-class assignment for one id column.
#[derive(Debug, Clone, Default)]
pub struct FrequencyFit {
    /// Most-active members covering the head share of rows.
    pub head: HashSet<String>,
    /// Least-active members covering the tail share of rows.
    pub tail: HashSet<String>,
}

/// What the encoder did — kept for reports and ablation benches.
#[derive(Debug, Clone, Default)]
pub struct EncodeReport {
    /// Per numeric column: the fit.
    pub numeric_fits: HashMap<String, NumericFit>,
    /// Item labels dropped by the prevalence cut-off, with their share.
    pub dropped: Vec<(String, f64)>,
    /// Item count before the prevalence cut.
    pub n_items_before_drop: usize,
}

/// A frozen preparation: everything needed to encode new frames with the
/// training-time vocabulary.
#[derive(Debug, Clone)]
pub struct FittedEncoder {
    spec: EncoderSpec,
    numeric_fits: HashMap<String, NumericFit>,
    frequency_fits: HashMap<String, FrequencyFit>,
    catalog: ItemCatalog,
    report: EncodeReport,
}

/// The encoded mining input.
#[derive(Debug, Clone)]
pub struct Encoded {
    /// One transaction per frame row.
    pub db: TransactionDb,
    /// Item id <-> label mapping.
    pub catalog: ItemCatalog,
    /// Fit + drop diagnostics.
    pub report: EncodeReport,
}

impl Encoded {
    /// Convenience: id of a label, panicking with a readable message.
    pub fn item(&self, label: &str) -> ItemId {
        self.catalog
            .id(label)
            .unwrap_or_else(|| panic!("item `{label}` not present (dropped or never emitted?)"))
    }
}

fn fit_frequency(frame: &Frame, column: &str, head_share: f64, tail_share: f64) -> FrequencyFit {
    let counts = frame
        .value_counts(column)
        .expect("frequency feature requires a string column");
    let total: usize = counts.iter().map(|(_, c)| c).sum();
    let mut fit = FrequencyFit::default();
    if total == 0 {
        return fit;
    }
    let mut cum = 0usize;
    for (value, count) in &counts {
        cum += count;
        fit.head.insert(value.clone());
        if cum as f64 / total as f64 >= head_share {
            break;
        }
    }
    let mut back = 0usize;
    for (value, count) in counts.iter().rev() {
        back += count;
        fit.tail.insert(value.clone());
        if back as f64 / total as f64 >= tail_share {
            break;
        }
    }
    // A value cannot be both head and tail; head wins (it is by
    // construction more active).
    for v in &fit.head {
        fit.tail.remove(v);
    }
    fit
}

/// Emits each row's item labels for one feature via `sink(row, label)`.
fn emit_feature<F: FnMut(usize, &str)>(
    frame: &Frame,
    feature: &FeatureSpec,
    numeric_fits: &HashMap<String, NumericFit>,
    frequency_fits: &HashMap<String, FrequencyFit>,
    mut sink: F,
) {
    let n_rows = frame.n_rows();
    match feature {
        FeatureSpec::Numeric { column, zero, .. } => {
            let fit = &numeric_fits[column];
            let Ok(col) = frame.column(column) else {
                panic!("missing numeric column `{column}`")
            };
            for r in 0..n_rows {
                let Some(v) = col.numeric(r).filter(|v| v.is_finite()) else {
                    continue;
                };
                if let Some(z) = zero.as_ref().filter(|z| v <= z.threshold) {
                    sink(r, &format!("{} = {}", fit.display, z.label));
                } else if fit.spike_value == Some(v) {
                    sink(r, &format!("{} = Std", fit.display));
                } else if let Some(edges) = &fit.edges {
                    sink(r, &format!("{} = Bin{}", fit.display, edges.assign(v) + 1));
                }
            }
        }
        FeatureSpec::Categorical {
            column,
            display,
            remap,
            skip,
        } => {
            let storage = frame
                .column(column)
                .unwrap_or_else(|_| panic!("missing categorical column `{column}`"))
                .as_strs()
                .unwrap_or_else(|| panic!("column `{column}` is not categorical"));
            for r in 0..n_rows {
                let Some(raw) = storage.get(r) else { continue };
                let value = remap.get(raw).map(String::as_str).unwrap_or(raw);
                if skip.iter().any(|s| s == value) {
                    continue;
                }
                // An empty display name yields bare value labels
                // ("Failed") matching how the paper names status items.
                if display.is_empty() {
                    sink(r, value);
                } else {
                    sink(r, &format!("{display} = {value}"));
                }
            }
        }
        FeatureSpec::FrequencyClass {
            column,
            head_label,
            tail_label,
            ..
        } => {
            let fit = &frequency_fits[column];
            let storage = frame
                .column(column)
                .unwrap_or_else(|_| panic!("missing frequency column `{column}`"))
                .as_strs()
                .unwrap_or_else(|| panic!("column `{column}` is not categorical"));
            for r in 0..n_rows {
                let Some(value) = storage.get(r) else {
                    continue;
                };
                if fit.head.contains(value) {
                    sink(r, head_label);
                } else if fit.tail.contains(value) {
                    sink(r, tail_label);
                }
            }
        }
        FeatureSpec::Flag {
            column,
            label,
            greater_than,
        } => {
            let col = frame
                .column(column)
                .unwrap_or_else(|_| panic!("missing flag column `{column}`"));
            for r in 0..n_rows {
                if col.numeric(r).is_some_and(|v| v > *greater_than) {
                    sink(r, label);
                }
            }
        }
    }
}

/// Fits the §III-E preprocessing on a training frame.
pub fn fit(frame: &Frame, spec: &EncoderSpec) -> FittedEncoder {
    let n_rows = frame.n_rows();

    // ---- pass 1: per-feature fits ----
    let mut numeric_fits: HashMap<String, NumericFit> = HashMap::new();
    let mut frequency_fits: HashMap<String, FrequencyFit> = HashMap::new();
    for feature in &spec.features {
        match feature {
            FeatureSpec::Numeric {
                column,
                display,
                n_bins,
                scheme,
                zero,
                spike,
            } => {
                let col = frame
                    .column(column)
                    .unwrap_or_else(|_| panic!("missing numeric column `{column}`"));
                let mut values: Vec<f64> = (0..n_rows)
                    .filter_map(|r| col.numeric(r))
                    .filter(|v| v.is_finite())
                    .collect();
                if let Some(z) = zero {
                    values.retain(|&v| v > z.threshold);
                }
                let spike_value = spike
                    .as_ref()
                    .and_then(|s| detect_spike(&values, s.min_share));
                if let Some(sv) = spike_value {
                    values.retain(|&v| v != sv);
                }
                let edges = BinEdges::fit(&values, *n_bins, *scheme);
                numeric_fits.insert(
                    column.clone(),
                    NumericFit {
                        display: display.clone(),
                        spike_value,
                        edges,
                    },
                );
            }
            FeatureSpec::FrequencyClass {
                column,
                head_share,
                tail_share,
                ..
            } => {
                frequency_fits.insert(
                    column.clone(),
                    fit_frequency(frame, column, *head_share, *tail_share),
                );
            }
            _ => {}
        }
    }

    // ---- pass 2: emit training labels, apply the prevalence cut ----
    let mut prelim = ItemCatalog::new();
    let mut counts: Vec<usize> = Vec::new();
    for feature in &spec.features {
        emit_feature(
            frame,
            feature,
            &numeric_fits,
            &frequency_fits,
            |_, label| {
                let id = prelim.intern(label) as usize;
                if id >= counts.len() {
                    counts.resize(id + 1, 0);
                }
                counts[id] += 1;
            },
        );
    }

    let mut dropped = Vec::new();
    let mut catalog = ItemCatalog::new();
    for (id, label) in prelim.labels().iter().enumerate() {
        let share = counts[id] as f64 / n_rows.max(1) as f64;
        if share > spec.drop_prevalence {
            dropped.push((label.clone(), share));
        } else {
            catalog.intern(label);
        }
    }

    FittedEncoder {
        spec: spec.clone(),
        numeric_fits,
        frequency_fits,
        catalog,
        report: EncodeReport {
            numeric_fits: HashMap::new(), // filled below (shared clone)
            dropped,
            n_items_before_drop: prelim.len(),
        },
    }
    .with_report_fits()
}

impl FittedEncoder {
    fn with_report_fits(mut self) -> FittedEncoder {
        self.report.numeric_fits = self.numeric_fits.clone();
        self
    }

    /// The frozen item vocabulary.
    pub fn catalog(&self) -> &ItemCatalog {
        &self.catalog
    }

    /// The fit diagnostics.
    pub fn report(&self) -> &EncodeReport {
        &self.report
    }

    /// Encodes any frame with the training-time vocabulary. Labels that
    /// were dropped (or never seen) at fit time emit nothing.
    pub fn transform(&self, frame: &Frame) -> TransactionDb {
        let mut rows: Vec<Vec<ItemId>> = vec![Vec::new(); frame.n_rows()];
        for feature in &self.spec.features {
            emit_feature(
                frame,
                feature,
                &self.numeric_fits,
                &self.frequency_fits,
                |r, label| {
                    if let Some(id) = self.catalog.id(label) {
                        rows[r].push(id);
                    }
                },
            );
        }
        TransactionDb::from_transactions(rows).with_universe(self.catalog.len().max(1))
    }
}

/// Fit + transform in one call (the batch workflow's entry point). Emits
/// `prep.fit` and `prep.transform` stage events (row/transaction
/// cardinalities, bins fitted, skewed items dropped by the prevalence
/// cut) into `metrics`.
pub fn encode(frame: &Frame, spec: &EncoderSpec, metrics: &Metrics) -> Encoded {
    let mut span = metrics.span("prep.fit");
    let fitted = fit(frame, spec);
    span.field("rows_in", frame.n_rows() as u64);
    span.field(
        "bins_fitted",
        fitted
            .numeric_fits
            .values()
            .filter(|f| f.edges.is_some())
            .count() as u64,
    );
    span.field(
        "spike_columns",
        fitted
            .numeric_fits
            .values()
            .filter(|f| f.spike_value.is_some())
            .count() as u64,
    );
    span.field(
        "items_before_drop",
        fitted.report.n_items_before_drop as u64,
    );
    span.field(
        "items_dropped_prevalence",
        fitted.report.dropped.len() as u64,
    );
    span.field("items_out", fitted.catalog.len() as u64);
    drop(span);

    let mut span = metrics.span("prep.transform");
    let db = fitted.transform(frame);
    span.field("transactions_out", db.len() as u64);
    span.field(
        "items_emitted",
        (0..db.len()).map(|r| db.transaction(r).len() as u64).sum(),
    );
    drop(span);

    Encoded {
        db,
        catalog: fitted.catalog,
        report: fitted.report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{SpikeBin, ZeroBin};
    use irma_data::read_csv_str;
    use irma_mine::Itemset;

    fn frame() -> Frame {
        // 8 rows: sm_util zero-inflated; cpus spiked at 600; user skewed.
        read_csv_str(concat!(
            "job_id,sm_util,cpus,user,gpus,status\n",
            "0,0.0,600,alice,1,Pass\n",
            "1,0.5,600,alice,1,Pass\n",
            "2,40.0,600,alice,2,Pass\n",
            "3,55.0,600,alice,1,Pass\n",
            "4,62.0,100,bob,1,Failed\n",
            "5,70.0,200,carol,4,Pass\n",
            "6,88.0,300,dave,1,Pass\n",
            "7,95.0,400,erin,1,Pass\n",
        ))
        .unwrap()
    }

    fn spec() -> EncoderSpec {
        EncoderSpec::new(vec![
            FeatureSpec::numeric_zero("sm_util", "SM Util", ZeroBin::percent()),
            FeatureSpec::Numeric {
                column: "cpus".to_string(),
                display: "CPU Request".to_string(),
                n_bins: 4,
                scheme: Default::default(),
                zero: None,
                spike: Some(SpikeBin {
                    min_share: 0.4,
                    label: "Std".to_string(),
                }),
            },
            FeatureSpec::frequency("user", "Freq User", "New User"),
            FeatureSpec::flag("gpus", "Multi-GPU", 1.0),
            FeatureSpec::categorical("status", "Status"),
        ])
    }

    #[test]
    fn zero_bin_emitted() {
        let enc = encode(&frame(), &spec(), &Metrics::disabled());
        let id = enc.item("SM Util = 0%");
        assert_eq!(
            enc.db.support_count(&Itemset::singleton(id)),
            2,
            "rows 0 and 1 are in the zero bin"
        );
    }

    #[test]
    fn spike_becomes_std_item() {
        let enc = encode(&frame(), &spec(), &Metrics::disabled());
        let id = enc.item("CPU Request = Std");
        assert_eq!(enc.db.support_count(&Itemset::singleton(id)), 4);
        let fit = &enc.report.numeric_fits["cpus"];
        assert_eq!(fit.spike_value, Some(600.0));
    }

    #[test]
    fn residual_values_binned() {
        let enc = encode(&frame(), &spec(), &Metrics::disabled());
        // Non-std cpus: 100,200,300,400 -> one per quartile.
        for bin in 1..=4 {
            let id = enc.item(&format!("CPU Request = Bin{bin}"));
            assert_eq!(
                enc.db.support_count(&Itemset::singleton(id)),
                1,
                "bin {bin}"
            );
        }
    }

    #[test]
    fn frequency_classes() {
        let enc = encode(&frame(), &spec(), &Metrics::disabled());
        // alice = 4/8 submissions -> head; singles form the tail.
        let freq = enc.item("Freq User");
        let new = enc.item("New User");
        assert_eq!(enc.db.support_count(&Itemset::singleton(freq)), 4);
        assert!(enc.db.support_count(&Itemset::singleton(new)) >= 2);
    }

    #[test]
    fn flag_items() {
        let enc = encode(&frame(), &spec(), &Metrics::disabled());
        let id = enc.item("Multi-GPU");
        assert_eq!(enc.db.support_count(&Itemset::singleton(id)), 2);
    }

    #[test]
    fn prevalence_drop_removes_dominant_items() {
        let enc = encode(&frame(), &spec(), &Metrics::disabled());
        // "Status = Pass" covers 7/8 = 87.5% > 80% -> dropped.
        assert!(enc.catalog.id("Status = Pass").is_none());
        assert!(enc.catalog.id("Status = Failed").is_some());
        assert!(enc
            .report
            .dropped
            .iter()
            .any(|(label, share)| label == "Status = Pass" && *share > 0.8));
    }

    #[test]
    fn null_cells_emit_no_item() {
        let frame = read_csv_str("job_id,sm_util\n0,\n1,50.0\n").unwrap();
        let spec = EncoderSpec::new(vec![FeatureSpec::numeric("sm_util", "SM Util")]);
        let enc = encode(&frame, &spec, &Metrics::disabled());
        assert_eq!(enc.db.transaction(0), &[] as &[u32]);
        assert_eq!(enc.db.transaction(1).len(), 1);
    }

    #[test]
    fn remap_aggregates_values() {
        let frame = read_csv_str("job_id,model\n0,resnet\n1,vgg\n2,bert\n3,\n").unwrap();
        let spec = EncoderSpec::new(vec![FeatureSpec::categorical_remap(
            "model",
            "Model",
            [("resnet", "CV"), ("vgg", "CV"), ("bert", "NLP")],
        )]);
        let enc = encode(&frame, &spec, &Metrics::disabled());
        let cv = enc.item("Model = CV");
        assert_eq!(enc.db.support_count(&Itemset::singleton(cv)), 2);
        assert!(enc.catalog.id("Model = resnet").is_none());
        assert_eq!(enc.db.transaction(3), &[] as &[u32]);
    }

    #[test]
    fn transactions_align_with_rows() {
        let enc = encode(&frame(), &spec(), &Metrics::disabled());
        assert_eq!(enc.db.len(), 8);
        // Row 0: zero SM + std cpu + freq user + status Pass(dropped).
        let t0: Vec<&str> = enc
            .db
            .transaction(0)
            .iter()
            .map(|&i| enc.catalog.label(i))
            .collect();
        assert!(t0.contains(&"SM Util = 0%"));
        assert!(t0.contains(&"CPU Request = Std"));
        assert!(t0.contains(&"Freq User"));
        assert!(!t0.iter().any(|l| l.starts_with("Status")));
    }

    #[test]
    fn transform_reuses_training_fit() {
        let fitted = fit(&frame(), &spec());
        // Held-out rows: values chosen so re-fitting would bin them
        // differently than the training fit does.
        let heldout = read_csv_str(concat!(
            "job_id,sm_util,cpus,user,gpus,status\n",
            "0,0.0,600,alice,1,Pass\n",
            "1,99.0,50,mallory,8,Failed\n",
        ))
        .unwrap();
        let db = fitted.transform(&heldout);
        assert_eq!(db.len(), 2);
        let labels = |r: usize| -> Vec<&str> {
            db.transaction(r)
                .iter()
                .map(|&i| fitted.catalog().label(i))
                .collect()
        };
        // Row 0 replays the training encoding.
        assert!(labels(0).contains(&"SM Util = 0%"));
        assert!(labels(0).contains(&"CPU Request = Std"));
        assert!(labels(0).contains(&"Freq User"));
        // Row 1: cpus=50 is below every training edge -> Bin1; mallory is
        // unknown -> no frequency item; "Status = Pass" stays dropped.
        assert!(labels(1).contains(&"CPU Request = Bin1"));
        assert!(!labels(1).iter().any(|l| l.contains("User")));
        assert!(labels(1).contains(&"Status = Failed"));
        assert!(!labels(0).iter().any(|l| l.ends_with("Pass")));
    }

    #[test]
    #[should_panic(expected = "missing numeric column")]
    fn missing_column_panics_with_context() {
        let frame = read_csv_str("a\n1\n").unwrap();
        let spec = EncoderSpec::new(vec![FeatureSpec::numeric("nope", "Nope")]);
        let _ = encode(&frame, &spec, &Metrics::disabled());
    }

    #[test]
    #[should_panic(expected = "is not categorical")]
    fn numeric_column_rejected_for_categorical_spec() {
        let frame = read_csv_str("a\n1\n2\n").unwrap();
        let spec = EncoderSpec::new(vec![FeatureSpec::categorical("a", "A")]);
        let _ = encode(&frame, &spec, &Metrics::disabled());
    }

    #[test]
    fn item_lookup_panics_readably() {
        let frame = read_csv_str("a\n1\n2\n").unwrap();
        let spec = EncoderSpec::new(vec![FeatureSpec::numeric("a", "A")]);
        let enc = encode(&frame, &spec, &Metrics::disabled());
        let err = std::panic::catch_unwind(|| enc.item("Ghost Item")).unwrap_err();
        let message = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(message.contains("Ghost Item"), "{message}");
    }

    #[test]
    fn encode_emits_stage_events() {
        let metrics = Metrics::enabled();
        let enc = encode(&frame(), &spec(), &metrics);
        let snap = metrics.snapshot();
        let fit_event = snap.stage("prep.fit").expect("prep.fit event");
        assert_eq!(fit_event.field("rows_in"), Some(8));
        assert!(fit_event.field("items_dropped_prevalence").unwrap() >= 1);
        assert_eq!(fit_event.field("items_out"), Some(enc.catalog.len() as u64));
        let transform_event = snap.stage("prep.transform").expect("prep.transform event");
        assert_eq!(transform_event.field("transactions_out"), Some(8));
        // A disabled registry records nothing and returns the same data.
        let plain = encode(&frame(), &spec(), &Metrics::disabled());
        assert_eq!(plain.db.len(), enc.db.len());
    }

    #[test]
    fn fit_then_transform_equals_encode() {
        let enc = encode(&frame(), &spec(), &Metrics::disabled());
        let fitted = fit(&frame(), &spec());
        let db = fitted.transform(&frame());
        assert_eq!(enc.db.len(), db.len());
        for r in 0..db.len() {
            assert_eq!(enc.db.transaction(r), db.transaction(r), "row {r}");
        }
    }
}
