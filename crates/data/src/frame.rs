//! A minimal column-oriented table ("frame").
//!
//! The trace pipeline works with one frame per log source (scheduler log,
//! node monitoring reductions, ...) and a merged frame after the join step.
//! This is deliberately a small fraction of a dataframe library: exactly the
//! operations the paper's preprocessing needs (row append, column append,
//! filtering, sorting, joins) and nothing speculative.

use std::collections::HashMap;

use crate::column::{Column, DType};
use crate::error::{DataError, Result};
use crate::value::Value;

/// A named collection of equal-length typed columns.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Frame {
    names: Vec<String>,
    columns: Vec<Column>,
    index: HashMap<String, usize>,
}

impl Frame {
    /// Creates an empty frame with no columns.
    pub fn new() -> Frame {
        Frame::default()
    }

    /// Creates a frame with the given empty columns.
    pub fn with_schema<I>(fields: I) -> Result<Frame>
    where
        I: IntoIterator<Item = (String, DType)>,
    {
        let mut frame = Frame::new();
        for (name, dtype) in fields {
            frame.add_column(&name, Column::empty(dtype))?;
        }
        Ok(frame)
    }

    /// Number of rows (0 for a frame with no columns).
    pub fn n_rows(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// Column names in insertion order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// True when the frame holds a column with this name.
    pub fn has_column(&self, name: &str) -> bool {
        self.index.contains_key(name)
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Result<usize> {
        self.index
            .get(name)
            .copied()
            .ok_or_else(|| DataError::UnknownColumn(name.to_string()))
    }

    /// Borrow a column by name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        Ok(&self.columns[self.column_index(name)?])
    }

    /// All columns, parallel to [`Frame::names`].
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Adds a fully materialized column; must match the frame's row count
    /// unless the frame is still empty of columns.
    pub fn add_column(&mut self, name: &str, column: Column) -> Result<()> {
        if self.index.contains_key(name) {
            return Err(DataError::DuplicateColumn(name.to_string()));
        }
        if !self.columns.is_empty() && column.len() != self.n_rows() {
            return Err(DataError::LengthMismatch {
                column: name.to_string(),
                expected: self.n_rows(),
                actual: column.len(),
            });
        }
        self.index.insert(name.to_string(), self.columns.len());
        self.names.push(name.to_string());
        self.columns.push(column);
        Ok(())
    }

    /// Appends one row given as dynamic values, one per column in order.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(DataError::LengthMismatch {
                column: "<row>".to_string(),
                expected: self.columns.len(),
                actual: row.len(),
            });
        }
        // Validate types before mutating so a failed push leaves the frame
        // rectangular.
        for ((name, col), value) in self.names.iter().zip(&self.columns).zip(&row) {
            if !value.is_null() {
                let ok = matches!(
                    (col.dtype(), value),
                    (DType::Int, Value::Int(_))
                        | (DType::Float, Value::Float(_))
                        | (DType::Float, Value::Int(_))
                        | (DType::Str, Value::Str(_))
                        | (DType::Bool, Value::Bool(_))
                );
                if !ok {
                    return Err(DataError::TypeMismatch {
                        column: name.clone(),
                        expected: col.dtype().name(),
                        actual: format!("{} ({})", value, value.type_name()),
                    });
                }
            }
        }
        for ((name, col), value) in self.names.iter().zip(self.columns.iter_mut()).zip(row) {
            col.push_value(name, value)?;
        }
        Ok(())
    }

    /// The cell at (`row`, `column`) as a dynamic value.
    pub fn get(&self, row: usize, column: &str) -> Result<Value> {
        Ok(self.column(column)?.get(row))
    }

    /// A new frame holding only rows where `predicate` returns true.
    pub fn filter<F: FnMut(usize) -> bool>(&self, mut predicate: F) -> Frame {
        let indices: Vec<usize> = (0..self.n_rows()).filter(|&i| predicate(i)).collect();
        self.take(&indices)
    }

    /// Materializes the given row indices (allowing repeats / reorders).
    pub fn take(&self, indices: &[usize]) -> Frame {
        // Built field-by-field rather than via `add_column` so copying a
        // valid frame is infallible by construction: names stay unique
        // and every taken column has `indices.len()` rows.
        Frame {
            names: self.names.clone(),
            columns: self.columns.iter().map(|col| col.take(indices)).collect(),
            index: self.index.clone(),
        }
    }

    /// Counts occurrences of each distinct non-null value of a string column.
    pub fn value_counts(&self, column: &str) -> Result<Vec<(String, usize)>> {
        let raw = self.column(column)?;
        let col = raw.as_strs().ok_or_else(|| DataError::TypeMismatch {
            column: column.to_string(),
            expected: "str",
            actual: raw.dtype().name().to_string(),
        })?;
        let mut counts = vec![0usize; col.cardinality()];
        for &code in col.codes() {
            if code != u32::MAX {
                counts[code as usize] += 1;
            }
        }
        let mut out: Vec<(String, usize)> = col
            .dict()
            .iter()
            .zip(counts)
            .map(|(v, c)| (v.clone(), c))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        Ok(out)
    }

    /// A new frame with rows sorted by one column (stable sort on
    /// [`Value::total_cmp`]; nulls first when ascending).
    pub fn sort_by(&self, column: &str, ascending: bool) -> Result<Frame> {
        let col = self.column(column)?;
        let mut indices: Vec<usize> = (0..self.n_rows()).collect();
        indices.sort_by(|&a, &b| {
            let ord = col.cmp_rows(a, b);
            if ascending {
                ord
            } else {
                ord.reverse()
            }
        });
        Ok(self.take(&indices))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Frame {
        let mut f = Frame::with_schema([
            ("job_id".to_string(), DType::Int),
            ("user".to_string(), DType::Str),
            ("sm_util".to_string(), DType::Float),
        ])
        .unwrap();
        f.push_row(vec![Value::Int(1), "alice".into(), Value::Float(0.0)])
            .unwrap();
        f.push_row(vec![Value::Int(2), "bob".into(), Value::Float(55.5)])
            .unwrap();
        f.push_row(vec![Value::Int(3), "alice".into(), Value::Null])
            .unwrap();
        f
    }

    #[test]
    fn push_and_get() {
        let f = sample();
        assert_eq!(f.n_rows(), 3);
        assert_eq!(f.n_cols(), 3);
        assert_eq!(f.get(1, "user").unwrap(), Value::Str("bob".into()));
        assert_eq!(f.get(2, "sm_util").unwrap(), Value::Null);
    }

    #[test]
    fn push_row_wrong_arity() {
        let mut f = sample();
        let err = f.push_row(vec![Value::Int(9)]).unwrap_err();
        assert!(matches!(err, DataError::LengthMismatch { .. }));
        assert_eq!(f.n_rows(), 3);
    }

    #[test]
    fn push_row_type_error_leaves_frame_rectangular() {
        let mut f = sample();
        let err = f
            .push_row(vec![Value::Int(9), Value::Int(7), Value::Float(0.0)])
            .unwrap_err();
        assert!(matches!(err, DataError::TypeMismatch { .. }));
        assert_eq!(f.n_rows(), 3);
        for col in f.columns() {
            assert_eq!(col.len(), 3);
        }
    }

    #[test]
    fn filter_selects_rows() {
        let f = sample();
        let g = f.filter(|i| f.get(i, "user").unwrap().as_str() == Some("alice"));
        assert_eq!(g.n_rows(), 2);
        assert_eq!(g.get(0, "job_id").unwrap(), Value::Int(1));
        assert_eq!(g.get(1, "job_id").unwrap(), Value::Int(3));
    }

    #[test]
    fn value_counts_sorted_desc() {
        let f = sample();
        let counts = f.value_counts("user").unwrap();
        assert_eq!(
            counts,
            vec![("alice".to_string(), 2), ("bob".to_string(), 1)]
        );
    }

    #[test]
    fn duplicate_column_rejected() {
        let mut f = sample();
        let err = f
            .add_column("user", Column::from_ints([1, 2, 3]))
            .unwrap_err();
        assert!(matches!(err, DataError::DuplicateColumn(_)));
    }

    #[test]
    fn sort_by_orders_rows() {
        let f = sample();
        let asc = f.sort_by("sm_util", true).unwrap();
        // Null first, then 0.0, then 55.5.
        assert_eq!(asc.get(0, "sm_util").unwrap(), Value::Null);
        assert_eq!(asc.get(1, "sm_util").unwrap(), Value::Float(0.0));
        assert_eq!(asc.get(2, "sm_util").unwrap(), Value::Float(55.5));
        let desc = f.sort_by("job_id", false).unwrap();
        assert_eq!(desc.get(0, "job_id").unwrap(), Value::Int(3));
        assert!(f.sort_by("missing", true).is_err());
    }
}
