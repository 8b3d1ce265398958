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
//!
//! Emission works on slots, not strings: each feature maps a row to a
//! small integer (zero bin, `Std` or bin *k*; a dictionary code; a head,
//! tail or flag class) whose label is formatted once per feature and
//! looked up once, the first time the row scan meets the slot. Labels
//! therefore intern in the same (feature, row) first-appearance order as
//! a per-row emission would, and every other row is integer work.

use std::collections::{HashMap, HashSet};

use irma_data::{Frame, StrStorage};
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

/// A row that emits no item. Equal to the null dictionary code, so a
/// string column's codes are its slots as they are.
const NO_ITEM: u32 = u32::MAX;

/// One feature's rows mapped to small slots, where every row in a slot
/// emits the same item: a numeric feature's zero bin, `Std` or bin *k*; a
/// categorical column's dictionary code; a head, tail or flag class.
struct Slots {
    /// Slot per row, [`NO_ITEM`] where the row emits nothing.
    rows: Vec<u32>,
    /// Item label per slot, `None` where the slot emits nothing.
    labels: Vec<Option<String>>,
}

fn str_column<'a>(frame: &'a Frame, column: &str, kind: &str) -> &'a StrStorage {
    frame
        .column(column)
        .unwrap_or_else(|_| panic!("missing {kind} column `{column}`"))
        .as_strs()
        .unwrap_or_else(|| panic!("column `{column}` is not categorical"))
}

/// Slots every row of `frame` for `feature`. Null cells never emit an
/// item.
fn slots(
    frame: &Frame,
    feature: &FeatureSpec,
    numeric_fits: &HashMap<String, NumericFit>,
    frequency_fits: &HashMap<String, FrequencyFit>,
) -> Slots {
    let n_rows = frame.n_rows();
    match feature {
        FeatureSpec::Numeric { column, zero, .. } => {
            let fit = &numeric_fits[column];
            let Ok(col) = frame.column(column) else {
                panic!("missing numeric column `{column}`")
            };
            // Slot 0 is the zero bin, 1 the spike, `2 + k` bin `k`.
            let rows = (0..n_rows)
                .map(|r| match col.numeric(r).filter(|v| v.is_finite()) {
                    None => NO_ITEM,
                    Some(v) if zero.as_ref().is_some_and(|z| v <= z.threshold) => 0,
                    Some(v) if fit.spike_value == Some(v) => 1,
                    Some(v) => fit
                        .edges
                        .as_ref()
                        .map_or(NO_ITEM, |edges| 2 + edges.assign(v) as u32),
                })
                .collect();
            let display = &fit.display;
            let n_bins = fit.edges.as_ref().map_or(0, BinEdges::n_bins);
            let labels = [
                zero.as_ref().map(|z| format!("{display} = {}", z.label)),
                Some(format!("{display} = Std")),
            ]
            .into_iter()
            .chain((1..=n_bins).map(|bin| Some(format!("{display} = Bin{bin}"))))
            .collect();
            Slots { rows, labels }
        }
        FeatureSpec::Categorical {
            column,
            display,
            remap,
            skip,
        } => {
            let storage = str_column(frame, column, "categorical");
            let labels = storage
                .dict()
                .iter()
                .map(|raw| {
                    let value = remap.get(raw).unwrap_or(raw);
                    if skip.contains(value) {
                        None
                    } else if display.is_empty() {
                        // An empty display name yields bare value labels
                        // ("Failed") matching how the paper names status items.
                        Some(value.clone())
                    } else {
                        Some(format!("{display} = {value}"))
                    }
                })
                .collect();
            Slots {
                rows: storage.codes().to_vec(),
                labels,
            }
        }
        FeatureSpec::FrequencyClass {
            column,
            head_label,
            tail_label,
            ..
        } => {
            let fit = &frequency_fits[column];
            let storage = str_column(frame, column, "frequency");
            let class: Vec<u32> = storage
                .dict()
                .iter()
                .map(|value| {
                    if fit.head.contains(value) {
                        0
                    } else if fit.tail.contains(value) {
                        1
                    } else {
                        NO_ITEM
                    }
                })
                .collect();
            let rows = storage
                .codes()
                .iter()
                .map(|&code| class.get(code as usize).copied().unwrap_or(NO_ITEM))
                .collect();
            let labels = vec![Some(head_label.clone()), Some(tail_label.clone())];
            Slots { rows, labels }
        }
        FeatureSpec::Flag {
            column,
            label,
            greater_than,
        } => {
            let col = frame
                .column(column)
                .unwrap_or_else(|_| panic!("missing flag column `{column}`"));
            let rows = (0..n_rows)
                .map(|r| {
                    if col.numeric(r).is_some_and(|v| v > *greater_than) {
                        0
                    } else {
                        NO_ITEM
                    }
                })
                .collect();
            Slots {
                rows,
                labels: vec![Some(label.clone())],
            }
        }
    }
}

impl Slots {
    /// Resolves each row's slot to an item id ([`NO_ITEM`] for none). A
    /// slot's label goes to `item` once, the first time the row scan
    /// meets it, so items are met in (feature, row) first-appearance
    /// order.
    fn resolve(&self, mut item: impl FnMut(&str) -> Option<ItemId>) -> Vec<ItemId> {
        let mut ids: Vec<Option<ItemId>> = vec![None; self.labels.len()];
        self.rows
            .iter()
            .map(|&slot| match ids.get_mut(slot as usize) {
                None => NO_ITEM,
                Some(id) => *id.get_or_insert_with(|| {
                    self.labels[slot as usize]
                        .as_deref()
                        .and_then(&mut item)
                        .unwrap_or(NO_ITEM)
                }),
            })
            .collect()
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
        let ids = slots(frame, feature, &numeric_fits, &frequency_fits)
            .resolve(|label| Some(prelim.intern(label)));
        counts.resize(prelim.len(), 0);
        for id in ids.into_iter().filter(|&id| id != NO_ITEM) {
            counts[id as usize] += 1;
        }
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
        let per_feature: Vec<Vec<ItemId>> = self
            .spec
            .features
            .iter()
            .map(|feature| {
                slots(frame, feature, &self.numeric_fits, &self.frequency_fits)
                    .resolve(|label| self.catalog.id(label))
            })
            .collect();
        let rows = (0..frame.n_rows()).map(|r| {
            per_feature
                .iter()
                .map(move |ids| ids[r])
                .filter(|&id| id != NO_ITEM)
        });
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
