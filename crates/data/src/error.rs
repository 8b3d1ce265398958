//! Error types for the data layer.

use std::fmt;

/// Errors produced by frame construction, CSV parsing, and joins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataError {
    /// A column name was referenced that does not exist in the frame.
    UnknownColumn(String),
    /// Two columns (or a column and the frame) disagree on row count.
    LengthMismatch {
        /// Name of the offending column.
        column: String,
        /// Length the frame expected.
        expected: usize,
        /// Length that was provided.
        actual: usize,
    },
    /// A value of the wrong type was pushed into a typed column.
    TypeMismatch {
        /// Column that rejected the value.
        column: String,
        /// Data type of the column.
        expected: &'static str,
        /// Description of the offending value.
        actual: String,
    },
    /// A column with the same name was added twice.
    DuplicateColumn(String),
    /// CSV text could not be parsed.
    Csv {
        /// 1-based line where the error occurred.
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// An I/O error occurred while reading or writing CSV.
    Io(String),
    /// A join key was invalid (missing column, unjoinable type, ...).
    Join(String),
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::UnknownColumn(name) => write!(f, "unknown column `{name}`"),
            DataError::LengthMismatch {
                column,
                expected,
                actual,
            } => write!(
                f,
                "column `{column}` has {actual} rows, frame expects {expected}"
            ),
            DataError::TypeMismatch {
                column,
                expected,
                actual,
            } => write!(
                f,
                "column `{column}` holds {expected} values, got `{actual}`"
            ),
            DataError::DuplicateColumn(name) => write!(f, "duplicate column `{name}`"),
            DataError::Csv { line, message } => {
                write!(f, "csv parse error at line {line}: {message}")
            }
            DataError::Io(msg) => write!(f, "io error: {msg}"),
            DataError::Join(msg) => write!(f, "join error: {msg}"),
        }
    }
}

impl std::error::Error for DataError {}

impl From<std::io::Error> for DataError {
    fn from(err: std::io::Error) -> Self {
        DataError::Io(err.to_string())
    }
}

/// Convenience alias used throughout the data layer.
pub type Result<T> = std::result::Result<T, DataError>;
