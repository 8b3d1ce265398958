//! Feature specifications: how each trace column becomes items.
//!
//! One [`FeatureSpec`] per analysed column describes the transformation
//! from raw values to transaction items, following §III-E:
//! numeric columns get quartile bins with optional zero / "standard value"
//! special bins; categorical columns get `Display = value` items with
//! optional value aggregation (e.g. `resnet`/`vgg`/`inception` -> `CV`);
//! skewed id columns (users, job groups) get frequency-class items
//! (`Freq User` / `New User`); threshold flags produce single items
//! (`Multi-GPU`, `Num Attempts > 1`).

use std::collections::HashMap;

use crate::binning::BinningScheme;

/// Special handling of a zero-inflated numeric feature.
#[derive(Debug, Clone, PartialEq)]
pub struct ZeroBin {
    /// Values `<= threshold` fall into the zero bin instead of quartiles.
    pub threshold: f64,
    /// Suffix label, e.g. `"0%"` producing `"SM Util = 0%"`.
    pub label: String,
}

impl ZeroBin {
    /// Zero bin for percentage features (`<= 1%` counts as zero — a GPU
    /// sampled at sub-percent mean utilization did no useful work).
    pub fn percent() -> ZeroBin {
        ZeroBin {
            threshold: 1.0,
            label: "0%".to_string(),
        }
    }

    /// Zero bin for byte-quantity features (`"0GB"`).
    pub fn gigabytes() -> ZeroBin {
        ZeroBin {
            threshold: 0.0,
            label: "0GB".to_string(),
        }
    }
}

/// Detection of a "standard request" spike (e.g. PAI's 600-core default).
#[derive(Debug, Clone, PartialEq)]
pub struct SpikeBin {
    /// Minimum share of values equal to the modal value to treat it as a
    /// standard/default (the paper observes ~50% for PAI CPU requests).
    pub min_share: f64,
    /// Suffix label, e.g. `"Std"` producing `"CPU Request = Std"`.
    pub label: String,
}

impl Default for SpikeBin {
    fn default() -> SpikeBin {
        SpikeBin {
            min_share: 0.3,
            label: "Std".to_string(),
        }
    }
}

/// Transformation of one column into items.
#[derive(Debug, Clone, PartialEq)]
pub enum FeatureSpec {
    /// Continuous feature -> quartile bins (+ special bins).
    Numeric {
        /// Source column name.
        column: String,
        /// Display name used in item labels (`"SM Util"`).
        display: String,
        /// Number of bins (the paper uses 4).
        n_bins: usize,
        /// Equal-frequency (default) or equal-width.
        scheme: BinningScheme,
        /// Optional zero-inflation handling.
        zero: Option<ZeroBin>,
        /// Optional default-value spike handling.
        spike: Option<SpikeBin>,
    },
    /// Categorical feature -> one item per (possibly remapped) value.
    Categorical {
        /// Source column name.
        column: String,
        /// Display name used in item labels (`"GPU Type"`).
        display: String,
        /// Value remapping applied before item construction
        /// (`"resnet" -> "CV"`, `"P100" -> "NonT4"`).
        remap: HashMap<String, String>,
        /// Values that produce no item at all (e.g. the overwhelming
        /// default exit status when it should not dominate the itemsets).
        skip: Vec<String>,
    },
    /// Skewed identifier -> head/tail frequency-class items.
    FrequencyClass {
        /// Source column name.
        column: String,
        /// Item emitted for members of the most-active set covering
        /// `head_share` of rows (`"Freq User"`).
        head_label: String,
        /// Item emitted for members of the least-active set covering
        /// `tail_share` of rows (`"New User"`).
        tail_label: String,
        /// Traffic fraction defining the head (paper: 0.25).
        head_share: f64,
        /// Traffic fraction defining the tail (paper: 0.25).
        tail_share: f64,
    },
    /// Numeric threshold flag -> a single item when the predicate holds.
    Flag {
        /// Source column name.
        column: String,
        /// Item label (`"Multi-GPU"`).
        label: String,
        /// Emit the item when `value > threshold`.
        greater_than: f64,
    },
}

impl FeatureSpec {
    /// Quartile-binned numeric feature with no special bins.
    pub fn numeric(column: &str, display: &str) -> FeatureSpec {
        FeatureSpec::Numeric {
            column: column.to_string(),
            display: display.to_string(),
            n_bins: 4,
            scheme: BinningScheme::EqualFrequency,
            zero: None,
            spike: None,
        }
    }

    /// Numeric feature with a zero bin.
    pub fn numeric_zero(column: &str, display: &str, zero: ZeroBin) -> FeatureSpec {
        match Self::numeric(column, display) {
            FeatureSpec::Numeric {
                column,
                display,
                n_bins,
                scheme,
                spike,
                ..
            } => FeatureSpec::Numeric {
                column,
                display,
                n_bins,
                scheme,
                zero: Some(zero),
                spike,
            },
            _ => unreachable!(),
        }
    }

    /// Plain categorical feature.
    pub fn categorical(column: &str, display: &str) -> FeatureSpec {
        FeatureSpec::Categorical {
            column: column.to_string(),
            display: display.to_string(),
            remap: HashMap::new(),
            skip: Vec::new(),
        }
    }

    /// Categorical feature with value aggregation.
    pub fn categorical_remap<const N: usize>(
        column: &str,
        display: &str,
        pairs: [(&str, &str); N],
    ) -> FeatureSpec {
        FeatureSpec::Categorical {
            column: column.to_string(),
            display: display.to_string(),
            remap: pairs
                .iter()
                .map(|&(from, to)| (from.to_string(), to.to_string()))
                .collect(),
            skip: Vec::new(),
        }
    }

    /// Frequency-class feature with the paper's 25% / 25% split.
    pub fn frequency(column: &str, head_label: &str, tail_label: &str) -> FeatureSpec {
        FeatureSpec::FrequencyClass {
            column: column.to_string(),
            head_label: head_label.to_string(),
            tail_label: tail_label.to_string(),
            head_share: 0.25,
            tail_share: 0.25,
        }
    }

    /// Threshold flag feature.
    pub fn flag(column: &str, label: &str, greater_than: f64) -> FeatureSpec {
        FeatureSpec::Flag {
            column: column.to_string(),
            label: label.to_string(),
            greater_than,
        }
    }

    /// The source column this spec reads.
    pub fn column(&self) -> &str {
        match self {
            FeatureSpec::Numeric { column, .. }
            | FeatureSpec::Categorical { column, .. }
            | FeatureSpec::FrequencyClass { column, .. }
            | FeatureSpec::Flag { column, .. } => column,
        }
    }
}

/// The full encoder configuration: the feature list plus global knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct EncoderSpec {
    /// One entry per analysed column.
    pub features: Vec<FeatureSpec>,
    /// Items present in more than this fraction of jobs are dropped
    /// (§III-E: the paper drops items present in > 80% of jobs).
    pub drop_prevalence: f64,
}

impl EncoderSpec {
    /// Builds a spec with the paper's 80% prevalence cut-off.
    pub fn new(features: Vec<FeatureSpec>) -> EncoderSpec {
        EncoderSpec {
            features,
            drop_prevalence: 0.8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_produce_expected_variants() {
        let spec = FeatureSpec::numeric_zero("sm_util", "SM Util", ZeroBin::percent());
        match &spec {
            FeatureSpec::Numeric { zero: Some(z), .. } => {
                assert_eq!(z.threshold, 1.0);
                assert_eq!(z.label, "0%");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(spec.column(), "sm_util");

        let cat =
            FeatureSpec::categorical_remap("model", "Model", [("resnet", "CV"), ("bert", "NLP")]);
        match cat {
            FeatureSpec::Categorical { remap, .. } => {
                assert_eq!(remap.get("resnet").map(String::as_str), Some("CV"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn default_prevalence_cutoff() {
        let spec = EncoderSpec::new(vec![]);
        assert_eq!(spec.drop_prevalence, 0.8);
    }
}
