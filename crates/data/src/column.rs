//! Dense typed columns.
//!
//! Each column stores one attribute for every job record. Numeric columns
//! are plain `Vec`s with a validity bitmap folded into `Option`-free storage
//! (a separate null mask would complicate every kernel for no gain at the
//! scales involved); string columns are dictionary-encoded so that
//! categorical attributes with thousands of repeated values (user ids, GPU
//! types, frameworks) cost four bytes per row.

use std::collections::HashMap;

use crate::error::{DataError, Result};
use crate::value::Value;

/// Data type tag for a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// 64-bit signed integers.
    Int,
    /// 64-bit floats.
    Float,
    /// Dictionary-encoded UTF-8 strings.
    Str,
    /// Booleans.
    Bool,
}

impl DType {
    /// Human-readable name used in error messages.
    pub fn name(self) -> &'static str {
        match self {
            DType::Int => "int",
            DType::Float => "float",
            DType::Str => "str",
            DType::Bool => "bool",
        }
    }
}

/// Sentinel dictionary code representing a null string cell.
const STR_NULL: u32 = u32::MAX;

/// Dictionary-encoded string storage.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StrStorage {
    /// Per-row dictionary codes; [`STR_NULL`] marks nulls.
    codes: Vec<u32>,
    /// Distinct values, indexed by code.
    dict: Vec<String>,
    /// Reverse lookup for interning.
    lookup: HashMap<String, u32>,
}

impl StrStorage {
    /// Empty storage with room for `rows` codes.
    pub(crate) fn with_capacity(rows: usize) -> StrStorage {
        StrStorage {
            codes: Vec::with_capacity(rows),
            ..StrStorage::default()
        }
    }

    /// Interns `value` and returns its code.
    pub fn intern(&mut self, value: &str) -> u32 {
        if let Some(&code) = self.lookup.get(value) {
            return code;
        }
        let code = self.dict.len() as u32;
        assert!(code != STR_NULL, "string dictionary overflow");
        self.dict.push(value.to_string());
        self.lookup.insert(value.to_string(), code);
        code
    }

    /// The code of `value`, if it was interned.
    pub(crate) fn code(&self, value: &str) -> Option<u32> {
        self.lookup.get(value).copied()
    }

    /// Appends a value (or null).
    pub fn push(&mut self, value: Option<&str>) {
        let code = match value {
            Some(v) => self.intern(v),
            None => STR_NULL,
        };
        self.codes.push(code);
    }

    /// The string at `row`, or `None` for null.
    pub fn get(&self, row: usize) -> Option<&str> {
        let code = self.codes[row];
        if code == STR_NULL {
            None
        } else {
            Some(&self.dict[code as usize])
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Number of distinct non-null values seen so far.
    pub fn cardinality(&self) -> usize {
        self.dict.len()
    }

    /// Raw per-row codes (null = `u32::MAX`); used by group-by kernels.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Dictionary slice, indexed by code.
    pub fn dict(&self) -> &[String] {
        &self.dict
    }
}

/// A single typed column of values.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Integer column; `None` marks nulls.
    Int(Vec<Option<i64>>),
    /// Float column; nulls are stored as `None` (NaN is a legal value).
    Float(Vec<Option<f64>>),
    /// Dictionary-encoded string column.
    Str(StrStorage),
    /// Boolean column.
    Bool(Vec<Option<bool>>),
}

impl Column {
    /// Creates an empty column of the given type.
    pub fn empty(dtype: DType) -> Column {
        match dtype {
            DType::Int => Column::Int(Vec::new()),
            DType::Float => Column::Float(Vec::new()),
            DType::Str => Column::Str(StrStorage::default()),
            DType::Bool => Column::Bool(Vec::new()),
        }
    }

    /// Creates an empty column with capacity for `cap` rows.
    pub fn with_capacity(dtype: DType, cap: usize) -> Column {
        match dtype {
            DType::Int => Column::Int(Vec::with_capacity(cap)),
            DType::Float => Column::Float(Vec::with_capacity(cap)),
            DType::Str => Column::Str(StrStorage::with_capacity(cap)),
            DType::Bool => Column::Bool(Vec::with_capacity(cap)),
        }
    }

    /// Builds an int column from an iterator.
    pub fn from_ints<I: IntoIterator<Item = i64>>(values: I) -> Column {
        Column::Int(values.into_iter().map(Some).collect())
    }

    /// Builds a float column from an iterator.
    pub fn from_floats<I: IntoIterator<Item = f64>>(values: I) -> Column {
        Column::Float(values.into_iter().map(Some).collect())
    }

    /// Builds a string column from an iterator.
    pub fn from_strs<'a, I: IntoIterator<Item = &'a str>>(values: I) -> Column {
        let mut st = StrStorage::default();
        for v in values {
            st.push(Some(v));
        }
        Column::Str(st)
    }

    /// Builds an int column with nulls.
    pub fn from_opt_ints<I: IntoIterator<Item = Option<i64>>>(values: I) -> Column {
        Column::Int(values.into_iter().collect())
    }

    /// Builds a float column with nulls.
    pub fn from_opt_floats<I: IntoIterator<Item = Option<f64>>>(values: I) -> Column {
        Column::Float(values.into_iter().collect())
    }

    /// Builds a string column with nulls.
    pub fn from_opt_strs<'a, I: IntoIterator<Item = Option<&'a str>>>(values: I) -> Column {
        let mut st = StrStorage::default();
        for v in values {
            st.push(v);
        }
        Column::Str(st)
    }

    /// The column's data type tag.
    pub fn dtype(&self) -> DType {
        match self {
            Column::Int(_) => DType::Int,
            Column::Float(_) => DType::Float,
            Column::Str(_) => DType::Str,
            Column::Bool(_) => DType::Bool,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Str(v) => v.len(),
            Column::Bool(v) => v.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cell at `row` as a dynamic [`Value`].
    pub fn get(&self, row: usize) -> Value {
        match self {
            Column::Int(v) => v[row].map(Value::Int).unwrap_or(Value::Null),
            Column::Float(v) => v[row].map(Value::Float).unwrap_or(Value::Null),
            Column::Str(v) => v
                .get(row)
                .map(|s| Value::Str(s.to_string()))
                .unwrap_or(Value::Null),
            Column::Bool(v) => v[row].map(Value::Bool).unwrap_or(Value::Null),
        }
    }

    /// Compares two rows in [`Value::total_cmp`] order straight from the
    /// typed storage, without building a [`Value`]: `Option`'s order puts
    /// nulls first, as `total_cmp` does.
    pub fn cmp_rows(&self, a: usize, b: usize) -> std::cmp::Ordering {
        match self {
            Column::Int(v) => v[a].cmp(&v[b]),
            Column::Float(v) => match (v[a], v[b]) {
                (Some(x), Some(y)) => x.total_cmp(&y),
                (x, y) => x.is_some().cmp(&y.is_some()),
            },
            Column::Str(v) => v.get(a).cmp(&v.get(b)),
            Column::Bool(v) => v[a].cmp(&v[b]),
        }
    }

    /// Appends a dynamic value, coercing `Int -> Float` where needed.
    ///
    /// The `column` name is only used for error reporting.
    pub fn push_value(&mut self, column: &str, value: Value) -> Result<()> {
        let mismatch = |col: &Column, v: &Value| DataError::TypeMismatch {
            column: column.to_string(),
            expected: col.dtype().name(),
            actual: format!("{} ({})", v, v.type_name()),
        };
        match (&mut *self, value) {
            (_, Value::Null) => self.push_null(),
            (Column::Int(v), Value::Int(x)) => v.push(Some(x)),
            (Column::Float(v), Value::Float(x)) => v.push(Some(x)),
            (Column::Float(v), Value::Int(x)) => v.push(Some(x as f64)),
            (Column::Str(v), Value::Str(x)) => v.push(Some(&x)),
            (Column::Bool(v), Value::Bool(x)) => v.push(Some(x)),
            (col, v) => return Err(mismatch(col, &v)),
        }
        Ok(())
    }

    /// Appends a null cell.
    pub fn push_null(&mut self) {
        match self {
            Column::Int(v) => v.push(None),
            Column::Float(v) => v.push(None),
            Column::Str(v) => v.push(None),
            Column::Bool(v) => v.push(None),
        }
    }

    /// Typed view of a string column.
    pub fn as_strs(&self) -> Option<&StrStorage> {
        match self {
            Column::Str(v) => Some(v),
            _ => None,
        }
    }

    /// Numeric view: yields `Some(f64)` per row for Int and Float columns.
    ///
    /// Returns `None` for non-numeric columns.
    pub fn numeric(&self, row: usize) -> Option<f64> {
        match self {
            Column::Int(v) => v[row].map(|x| x as f64),
            Column::Float(v) => v[row],
            _ => None,
        }
    }

    /// Materializes the rows given by `indices` (allowing repeats and
    /// reorders) into a new column.
    ///
    /// A string column remaps its codes through a dense table instead of
    /// re-interning every cell, so each distinct value is copied once and
    /// the new dictionary keeps first-appearance order in the output.
    pub fn take(&self, indices: &[usize]) -> Column {
        match self {
            Column::Int(v) => Column::Int(indices.iter().map(|&i| v[i]).collect()),
            Column::Float(v) => Column::Float(indices.iter().map(|&i| v[i]).collect()),
            Column::Bool(v) => Column::Bool(indices.iter().map(|&i| v[i]).collect()),
            Column::Str(v) => {
                let mut out = StrStorage::with_capacity(indices.len());
                let mut remap = vec![STR_NULL; v.dict.len()];
                for &i in indices {
                    let mut code = v.codes[i];
                    if code != STR_NULL {
                        let new = &mut remap[code as usize];
                        if *new == STR_NULL {
                            *new = out.intern(&v.dict[code as usize]);
                        }
                        code = *new;
                    }
                    out.codes.push(code);
                }
                Column::Str(out)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn str_storage_interns() {
        let mut st = StrStorage::default();
        st.push(Some("a"));
        st.push(Some("b"));
        st.push(Some("a"));
        st.push(None);
        assert_eq!(st.len(), 4);
        assert_eq!(st.cardinality(), 2);
        assert_eq!(st.get(0), Some("a"));
        assert_eq!(st.get(2), Some("a"));
        assert_eq!(st.get(3), None);
        assert_eq!(st.codes()[0], st.codes()[2]);
    }

    #[test]
    fn push_value_coerces_int_to_float() {
        let mut col = Column::empty(DType::Float);
        col.push_value("x", Value::Int(3)).unwrap();
        col.push_value("x", Value::Float(1.5)).unwrap();
        assert_eq!(col.get(0), Value::Float(3.0));
        assert_eq!(col.get(1), Value::Float(1.5));
    }

    #[test]
    fn push_value_rejects_mismatch() {
        let mut col = Column::empty(DType::Int);
        let err = col
            .push_value("gpus", Value::Str("eight".into()))
            .unwrap_err();
        assert!(matches!(err, DataError::TypeMismatch { .. }));
    }

    #[test]
    fn null_handling() {
        let mut col = Column::empty(DType::Int);
        col.push_value("x", Value::Null).unwrap();
        col.push_value("x", Value::Int(1)).unwrap();
        assert_eq!(col.get(0), Value::Null);
        assert_eq!(col.get(1), Value::Int(1));
    }

    #[test]
    fn take_reorders_and_repeats() {
        let col = Column::from_strs(["x", "y", "z"]);
        let taken = col.take(&[2, 0, 2]);
        let st = taken.as_strs().unwrap();
        assert_eq!(st.get(0), Some("z"));
        assert_eq!(st.get(1), Some("x"));
        assert_eq!(st.get(2), Some("z"));
    }

    #[test]
    fn numeric_view_widens_ints() {
        let col = Column::from_ints([1, 2]);
        assert_eq!(col.numeric(1), Some(2.0));
        let s = Column::from_strs(["a"]);
        assert_eq!(s.numeric(0), None);
    }
}
