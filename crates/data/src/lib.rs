//! # irma-data — trace data model
//!
//! Column-oriented tables, hand-rolled CSV I/O, and key joins for
//! the IRMA reproduction of *Interpretable Analysis of Production GPU
//! Clusters Monitoring Data via Association Rule Mining* (IPPS'24).
//!
//! Production GPU-cluster traces arrive as several CSV files per system —
//! a scheduler-level job log plus node-level monitoring reductions. This
//! crate provides exactly the substrate the paper's preprocessing step
//! needs: parse each file ([`read_csv_path`]) and merge everything into
//! one per-job [`Frame`] ([`inner_join`]).
//!
//! ```
//! use irma_data::{read_csv_str, inner_join};
//!
//! let sched = read_csv_str("job_id,user,status\n1,alice,pass\n2,bob,fail\n").unwrap();
//! let gpu = read_csv_str("job_id,sm_util\n1,0.0\n2,92.5\n").unwrap();
//! let merged = inner_join(&sched, &gpu, "job_id").unwrap();
//! assert_eq!(merged.n_rows(), 2);
//! assert_eq!(merged.names(), &["job_id", "user", "status", "sm_util"]);
//! ```

#![warn(missing_docs)]
// The parse path is fed raw production CSV text: every failure
// must come back as a typed `DataError`, never a panic. Tests are
// exempt — an `unwrap` there is an assertion.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod column;
mod csv;
mod error;
mod frame;
mod join;
mod value;

pub use column::{Column, DType, StrStorage};
pub use csv::{
    parse_records, read_csv, read_csv_path, read_csv_str, write_csv, write_csv_path,
    write_csv_string,
};
pub use error::{DataError, Result};
pub use frame::Frame;
pub use join::inner_join;
pub use value::Value;
