//! # irma-prep — trace preprocessing (§III-E)
//!
//! Turns a merged per-job frame into the one-hot transaction database the
//! miners consume:
//!
//! * [`BinEdges`] — equal-frequency (and, for the paper's negative result,
//!   equal-width) discretization of continuous features;
//! * zero bins (`SM Util = 0%`, `GMem Used = 0GB`) and default-request
//!   spike bins (`CPU Request = Std`) via [`detect_spike`];
//! * categorical aggregation (`resnet`/`vgg`/`inception` -> `CV`) and
//!   frequency classes over skewed id columns (`Freq User` / `New User`,
//!   head and tail each covering 25% of submissions);
//! * the >80%-prevalence item drop that keeps trivially common items from
//!   flooding the itemsets.
//!
//! ```
//! use irma_data::read_csv_str;
//! use irma_obs::Metrics;
//! use irma_prep::{encode, EncoderSpec, FeatureSpec, ZeroBin};
//!
//! let frame = read_csv_str("sm\n0.0\n0.2\n80.0\n40.0\n95.0\n").unwrap();
//! let spec = EncoderSpec::new(vec![FeatureSpec::numeric_zero(
//!     "sm", "SM Util", ZeroBin::percent(),
//! )]);
//! let enc = encode(&frame, &spec, &Metrics::disabled());
//! assert!(enc.catalog.id("SM Util = 0%").is_some());
//! ```

#![warn(missing_docs)]

mod binning;
mod encode;
mod spec;

pub use binning::{detect_spike, quantile_sorted, try_quantile_sorted, BinEdges, BinningScheme};
pub use encode::{encode, fit, EncodeReport, Encoded, FittedEncoder, FrequencyFit, NumericFit};
pub use spec::{EncoderSpec, FeatureSpec, SpikeBin, ZeroBin};
