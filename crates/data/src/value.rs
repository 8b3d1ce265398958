//! Dynamically typed cell values.
//!
//! A [`Value`] is the unit of data exchanged at row-at-a-time frame
//! boundaries (row construction, cell access, derived columns). Inside a
//! [`crate::Column`] values are stored in dense typed vectors, and the CSV
//! reader and the joins move cells between typed storage directly, so the
//! enum never sits in a hot loop.

use std::cmp::Ordering;
use std::fmt;

/// A single dynamically typed cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Missing / not-a-value. CSV empty fields parse to `Null`.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string (categorical attributes, user ids, ...).
    Str(String),
    /// Boolean flag.
    Bool(bool),
}

impl Value {
    /// Returns `true` for [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Float payload; integers are widened so numeric columns interoperate.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// String payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(v) => Some(v),
            _ => None,
        }
    }

    /// Boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// Name of the payload type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "str",
            Value::Bool(_) => "bool",
        }
    }

    /// Parse a CSV field into the most specific value type.
    ///
    /// Empty fields and the literals `NaN`/`nan`/`null`/`NA` become `Null`;
    /// `true`/`false` become `Bool`; otherwise integers are tried before
    /// floats, and anything left is a string.
    pub fn parse_lossy(field: &str) -> Value {
        match Cell::classify(field) {
            Cell::Null => Value::Null,
            Cell::Bool(b) => Value::Bool(b),
            Cell::Int(i) => Value::Int(i),
            Cell::Float(f) => Value::Float(f),
            Cell::Text => Value::Str(field.to_string()),
        }
    }

    /// Total order used by sorts: Null < Bool < Int/Float < Str, with
    /// numerics compared cross-type and NaN sorted last among floats.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        fn rank(v: &Value) -> u8 {
            match v {
                Null => 0,
                Bool(_) => 1,
                Int(_) | Float(_) => 2,
                Str(_) => 3,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

/// What a CSV field means under [`Value::parse_lossy`]'s rules, decided
/// without allocating: a text field stays in its source buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Cell {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Text,
}

impl Cell {
    pub(crate) fn classify(field: &str) -> Cell {
        match field {
            "" | "null" | "NULL" | "NaN" | "nan" | "NA" | "na" => Cell::Null,
            "true" | "TRUE" | "True" => Cell::Bool(true),
            "false" | "FALSE" | "False" => Cell::Bool(false),
            _ => {
                if let Ok(i) = field.parse::<i64>() {
                    Cell::Int(i)
                } else if let Ok(f) = field.parse::<f64>() {
                    Cell::Float(f)
                } else {
                    Cell::Text
                }
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => Ok(()),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_lossy_types() {
        assert_eq!(Value::parse_lossy(""), Value::Null);
        assert_eq!(Value::parse_lossy("NaN"), Value::Null);
        assert_eq!(Value::parse_lossy("42"), Value::Int(42));
        assert_eq!(Value::parse_lossy("-7"), Value::Int(-7));
        assert_eq!(Value::parse_lossy("3.5"), Value::Float(3.5));
        assert_eq!(Value::parse_lossy("true"), Value::Bool(true));
        assert_eq!(Value::parse_lossy("v100"), Value::Str("v100".into()));
    }

    #[test]
    fn parse_lossy_prefers_int_over_float() {
        assert_eq!(Value::parse_lossy("100"), Value::Int(100));
        assert_eq!(Value::parse_lossy("100.0"), Value::Float(100.0));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(3).as_float(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_int(), None);
        assert_eq!(Value::Str("x".into()).as_str(), Some("x"));
        assert!(Value::Null.is_null());
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
    }

    #[test]
    fn total_cmp_cross_numeric() {
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.5)), Ordering::Less);
        assert_eq!(Value::Float(3.0).total_cmp(&Value::Int(3)), Ordering::Equal);
        assert_eq!(Value::Null.total_cmp(&Value::Int(0)), Ordering::Less);
        assert_eq!(
            Value::Str("a".into()).total_cmp(&Value::Int(9)),
            Ordering::Greater
        );
    }

    #[test]
    fn display_roundtrips_through_parse() {
        for v in [Value::Int(17), Value::Float(2.25), Value::Bool(false)] {
            assert_eq!(Value::parse_lossy(&v.to_string()), v);
        }
    }
}
