//! Differential tests for the trace ingest path: the byte-level CSV
//! reader (on pools of width 1, 2 and 8, so in 1, 2 and 8 chunks),
//! the typed CSV writer, and the dictionary-code joins and takes, each
//! against the cell-at-a-time implementation it replaced. That
//! implementation is kept below, test-only, as the oracle: frames must be
//! equal (dictionary order included) and errors must match in `Display`,
//! line number included.

use std::sync::OnceLock;

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::string::string_regex;

use irma_check::generators::arb_frame;
use irma_data::{
    inner_join, parse_records, read_csv_str, write_csv_string, Column, DType, Frame, Value,
};
use rayon::{ThreadPool, ThreadPoolBuilder};

/// The previous reader, writer, join and take, cell by cell through
/// `String`s and [`Value`]s.
mod oracle {
    use std::collections::HashMap;

    use irma_data::{Column, DType, DataError, Frame, Result, Value};

    fn csv_error(line: usize, message: &str) -> DataError {
        DataError::Csv {
            line,
            message: message.to_string(),
        }
    }

    pub fn parse_lossy(field: &str) -> Value {
        if field.is_empty() {
            return Value::Null;
        }
        match field {
            "null" | "NULL" | "NaN" | "nan" | "NA" | "na" => return Value::Null,
            "true" | "TRUE" | "True" => return Value::Bool(true),
            "false" | "FALSE" | "False" => return Value::Bool(false),
            _ => {}
        }
        if let Ok(i) = field.parse::<i64>() {
            return Value::Int(i);
        }
        if let Ok(f) = field.parse::<f64>() {
            return Value::Float(f);
        }
        Value::Str(field.to_string())
    }

    pub fn parse_records(text: &str) -> Result<Vec<Vec<String>>> {
        let mut records = Vec::new();
        let mut fields: Vec<String> = Vec::new();
        let mut field = String::new();
        let mut in_quotes = false;
        let mut field_quoted = false;
        let mut line = 1usize;
        let mut chars = text.chars().peekable();
        let mut seen_any = false;

        while let Some(c) = chars.next() {
            seen_any = true;
            if in_quotes {
                match c {
                    '"' => {
                        if chars.peek() == Some(&'"') {
                            chars.next();
                            field.push('"');
                        } else {
                            in_quotes = false;
                        }
                    }
                    '\n' => {
                        line += 1;
                        field.push('\n');
                    }
                    '\r' if chars.peek() == Some(&'\n') => {
                        chars.next();
                        line += 1;
                        field.push('\n');
                    }
                    other => field.push(other),
                }
                continue;
            }
            match c {
                '"' => {
                    if !field.is_empty() {
                        return Err(csv_error(line, "quote inside unquoted field"));
                    }
                    in_quotes = true;
                    field_quoted = true;
                }
                ',' => {
                    fields.push(std::mem::take(&mut field));
                    field_quoted = false;
                }
                '\r' => {
                    if chars.peek() == Some(&'\n') {
                        continue;
                    }
                    return Err(csv_error(line, "bare carriage return"));
                }
                '\n' => {
                    fields.push(std::mem::take(&mut field));
                    records.push(std::mem::take(&mut fields));
                    field_quoted = false;
                    line += 1;
                }
                other => field.push(other),
            }
        }
        if in_quotes {
            return Err(csv_error(line, "unterminated quoted field"));
        }
        if seen_any && (!field.is_empty() || !fields.is_empty() || field_quoted) {
            fields.push(field);
            records.push(fields);
        }
        Ok(records)
    }

    fn infer_dtype<'a, I: Iterator<Item = &'a Value>>(values: I) -> DType {
        let mut seen_int = false;
        let mut seen_float = false;
        let mut seen_bool = false;
        for v in values {
            match v {
                Value::Null => {}
                Value::Int(_) => seen_int = true,
                Value::Float(_) => seen_float = true,
                Value::Bool(_) => seen_bool = true,
                Value::Str(_) => return DType::Str,
            }
        }
        match (seen_bool, seen_int, seen_float) {
            (true, false, false) => DType::Bool,
            (false, _, true) => DType::Float,
            (false, true, false) => DType::Int,
            _ => DType::Str,
        }
    }

    fn coerce(value: &Value, dtype: DType, raw: &str) -> Value {
        match (value, dtype) {
            (Value::Null, _) => Value::Null,
            (Value::Int(v), DType::Float) => Value::Float(*v as f64),
            (v, DType::Str) if !matches!(v, Value::Str(_)) => Value::Str(raw.to_string()),
            (v, _) => v.clone(),
        }
    }

    pub fn read_csv_str(text: &str) -> Result<Frame> {
        let records = parse_records(text)?;
        let mut iter = records.into_iter();
        let header = iter.next().ok_or(csv_error(1, "missing header row"))?;
        let rows: Vec<Vec<String>> = iter.collect();
        for (i, row) in rows.iter().enumerate() {
            if row.len() != header.len() {
                return Err(csv_error(
                    i + 2,
                    &format!("expected {} fields, found {}", header.len(), row.len()),
                ));
            }
        }
        let parsed: Vec<Vec<Value>> = rows
            .iter()
            .map(|row| row.iter().map(|f| parse_lossy(f)).collect())
            .collect();
        let mut frame = Frame::new();
        for (c, name) in header.iter().enumerate() {
            let dtype = infer_dtype(parsed.iter().map(|row| &row[c]));
            let mut col = Column::with_capacity(dtype, parsed.len());
            for (r, row) in parsed.iter().enumerate() {
                let v = coerce(&row[c], dtype, &rows[r][c]);
                col.push_value(name, v)
                    .map_err(|e| csv_error(r + 2, &e.to_string()))?;
            }
            frame.add_column(name, col)?;
        }
        Ok(frame)
    }

    fn escape_field(field: &str) -> String {
        if field.contains(',')
            || field.contains('"')
            || field.contains('\n')
            || field.contains('\r')
        {
            let mut out = String::with_capacity(field.len() + 2);
            out.push('"');
            for c in field.chars() {
                if c == '"' {
                    out.push('"');
                }
                out.push(c);
            }
            out.push('"');
            out
        } else {
            field.to_string()
        }
    }

    pub fn write_csv_string(frame: &Frame) -> String {
        let mut out = String::new();
        let header: Vec<String> = frame.names().iter().map(|n| escape_field(n)).collect();
        out.push_str(&header.join(","));
        out.push('\n');
        for row in 0..frame.n_rows() {
            let mut first = true;
            for col in frame.columns() {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&escape_field(&col.get(row).to_string()));
            }
            out.push('\n');
        }
        out
    }

    /// Re-pushes every cell, so a string column re-interns in row order.
    pub fn take_column(col: &Column, rows: &[usize]) -> Column {
        let mut out = Column::with_capacity(col.dtype(), rows.len());
        for &r in rows {
            out.push_value("", col.get(r)).expect("same dtype");
        }
        out
    }

    pub fn take(frame: &Frame, indices: &[usize]) -> Frame {
        let mut out = Frame::new();
        for (name, col) in frame.names().iter().zip(frame.columns()) {
            out.add_column(name, take_column(col, indices))
                .expect("unique names, equal lengths");
        }
        out
    }

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    enum Key {
        Int(i64),
        Str(String),
        Bool(bool),
    }

    fn key_at(col: &Column, row: usize) -> Result<Option<Key>> {
        Ok(match col {
            Column::Int(v) => v[row].map(Key::Int),
            Column::Str(v) => v.get(row).map(|s| Key::Str(s.to_string())),
            Column::Bool(v) => v[row].map(Key::Bool),
            Column::Float(_) => {
                return Err(DataError::Join("cannot join on a float column".to_string()))
            }
        })
    }

    pub fn join(left: &Frame, right: &Frame, key: &str) -> Result<Frame> {
        let right_key = right.column(key)?;
        let mut index: HashMap<Key, Vec<usize>> = HashMap::new();
        for row in 0..right.n_rows() {
            if let Some(k) = key_at(right_key, row)? {
                index.entry(k).or_default().push(row);
            }
        }
        let left_key = left.column(key)?;
        let mut left_rows = Vec::new();
        let mut right_rows = Vec::new();
        for row in 0..left.n_rows() {
            if let Some(matches) = key_at(left_key, row)?.and_then(|k| index.get(&k)) {
                for &r in matches {
                    left_rows.push(row);
                    right_rows.push(r);
                }
            }
        }
        let mut out = take(left, &left_rows);
        for (name, col) in right.names().iter().zip(right.columns()) {
            if name == key {
                continue;
            }
            let out_name = if out.has_column(name) {
                format!("{name}_right")
            } else {
                name.clone()
            };
            out.add_column(&out_name, take_column(col, &right_rows))?;
        }
        Ok(out)
    }
}

/// Frame equality that also holds for NaN cells: float columns compare
/// bit patterns, every other column (string dictionaries included)
/// compares with `==`.
fn frames_eq(a: &Frame, b: &Frame) -> bool {
    a.names() == b.names()
        && a.columns().iter().zip(b.columns()).all(|pair| match pair {
            (Column::Float(x), Column::Float(y)) => {
                let bits =
                    |v: &[Option<f64>]| v.iter().map(|f| f.map(f64::to_bits)).collect::<Vec<_>>();
                bits(x) == bits(y)
            }
            (x, y) => x == y,
        })
}

/// Compares two outcomes: equal values under `eq`, or errors with equal
/// `Display`.
fn same<T: std::fmt::Debug>(
    fast: irma_data::Result<T>,
    slow: irma_data::Result<T>,
    eq: impl Fn(&T, &T) -> bool,
) -> Result<(), TestCaseError> {
    match (fast, slow) {
        (Ok(a), Ok(b)) if eq(&a, &b) => Ok(()),
        (Err(a), Err(b)) => {
            prop_assert_eq!(a.to_string(), b.to_string());
            Ok(())
        }
        (a, b) => Err(TestCaseError::fail(format!(
            "outcomes differ: {a:?} vs oracle {b:?}"
        ))),
    }
}

/// Pools of width 1, 2 and 8, built once for every case.
fn pools() -> &'static [ThreadPool] {
    static POOLS: OnceLock<[ThreadPool; 3]> = OnceLock::new();
    POOLS.get_or_init(|| {
        [1, 2, 8].map(|width| {
            ThreadPoolBuilder::new()
                .num_threads(width)
                .build()
                .expect("pool")
        })
    })
}

/// The reader on pools of width 1, 2 and 8, which cut the body into as
/// many chunks, against the oracle. On small inputs the cuts land every
/// few bytes, so they fall inside quoted fields, on escapes and between
/// the two bytes of a CRLF.
fn chunked_matches_oracle(text: &str) -> Result<(), TestCaseError> {
    for pool in pools() {
        let fast = pool.install(|| read_csv_str(text));
        same(fast, oracle::read_csv_str(text), frames_eq)?;
    }
    Ok(())
}

const NULLS: &[&str] = &["", "NA", "null", "NaN", "nan", "na", "NULL"];
const INTS: &[&str] = &[
    "0",
    "1",
    "-7",
    "42",
    "+5",
    "007",
    "9223372036854775807",
    "-9223372036854775808",
    "\"12\"",
];
const FLOATS: &[&str] = &[
    "2.5",
    "-0.0",
    "1e3",
    "1.",
    ".5",
    "inf",
    "-inf",
    "NAN",
    "Infinity",
    "99999999999999999999",
    "3.0",
];
const BOOLS: &[&str] = &["true", "TRUE", "True", "false", "FALSE", "False"];
const TEXT: &[&str] = &[
    "abc",
    "v100",
    "T4",
    "user 1",
    "é",
    "\"q\"",
    "\"a,b\"",
    "\"x\"\"y\"",
    "\"l1\nl2\"",
    "\"l1\r\nl2\"",
    "\"c\rd\"",
    "\"ab\"cd",
    "\"\"",
    "\"\"\"\"",
];
/// Tokens that make the text malformed.
const BAD: &[&str] = &["x\"y", "a\rb", "\"open"];

/// Per-column token families: what a column draws its cells from.
fn family(index: usize) -> Vec<&'static str> {
    let parts: &[&[&str]] = match index {
        0 => &[NULLS, INTS],
        1 => &[NULLS, INTS, FLOATS],
        2 => &[NULLS, BOOLS],
        3 => &[NULLS, TEXT],
        4 => &[NULLS],
        5 => &[INTS, BOOLS],
        6 => &[FLOATS],
        7 => &[NULLS, INTS, FLOATS, BOOLS, TEXT],
        _ => &[NULLS, INTS, TEXT, BAD],
    };
    parts.concat()
}

const HEADERS: &[&str] = &["a", "b", "c", "job_id", "\"q,h\"", "\"x\"\"y\"", "a"];

/// CSV text built from typed column families, with LF or CRLF
/// terminators, an optional final terminator, an occasional ragged row,
/// and (in the last family) occasional malformed tokens.
fn arb_csv() -> impl Strategy<Value = String> {
    (1..5usize).prop_flat_map(|width| {
        (
            vec((0..HEADERS.len(), 0..10usize), width),
            vec((vec(0..64usize, width), 0..40u8), 0..12),
            any::<bool>(),
            any::<bool>(),
        )
            .prop_map(move |(columns, rows, crlf, final_break)| {
                let eol = if crlf { "\r\n" } else { "\n" };
                let families: Vec<Vec<&str>> = columns.iter().map(|&(_, f)| family(f)).collect();
                let mut lines: Vec<String> = vec![columns
                    .iter()
                    .map(|&(h, _)| HEADERS[h])
                    .collect::<Vec<_>>()
                    .join(",")];
                for (picks, shape) in rows {
                    let mut cells: Vec<&str> = picks
                        .iter()
                        .zip(&families)
                        .map(|(&p, fam)| fam[p % fam.len()])
                        .collect();
                    match shape {
                        0 => {
                            cells.pop();
                        }
                        1 => cells.push("extra"),
                        _ => {}
                    }
                    lines.push(cells.join(","));
                }
                let mut text = lines.join(eol);
                if final_break {
                    text.push_str(eol);
                }
                text
            })
    })
}

proptest! {
    #![proptest_config(irma_check::config())]

    #[test]
    fn reader_matches_oracle_on_typed_tables(text in arb_csv()) {
        same(read_csv_str(&text), oracle::read_csv_str(&text), frames_eq)?;
        same(parse_records(&text), oracle::parse_records(&text), PartialEq::eq)?;
    }

    #[test]
    fn reader_matches_oracle_on_byte_soup(
        text in string_regex("[a1.,\"\r\n-]{0,60}").expect("valid regex")
    ) {
        same(read_csv_str(&text), oracle::read_csv_str(&text), frames_eq)?;
        same(parse_records(&text), oracle::parse_records(&text), PartialEq::eq)?;
    }

    #[test]
    fn chunked_reader_matches_oracle_on_typed_tables(text in arb_csv()) {
        chunked_matches_oracle(&text)?;
    }

    #[test]
    fn chunked_reader_matches_oracle_on_byte_soup(
        text in string_regex("[a1.,\"\r\n-]{0,60}").expect("valid regex")
    ) {
        chunked_matches_oracle(&text)?;
    }

    #[test]
    fn writer_matches_oracle(frame in arb_frame()) {
        prop_assert_eq!(write_csv_string(&frame), oracle::write_csv_string(&frame));
    }

    #[test]
    fn joins_match_oracle(
        left in vec((0..5usize, 0..4usize), 0..10),
        right in vec((0..5usize, 0..4usize), 0..10),
        kind in 0..4usize,
    ) {
        let left = keyed_frame(kind, &left, "l");
        let right = keyed_frame(kind % 3, &right, "r");
        same(inner_join(&left, &right, "k"), oracle::join(&left, &right, "k"), frames_eq)?;
    }

    #[test]
    fn takes_match_oracle(
        rows in vec((0..5usize, 0..4usize), 1..12),
        picks in vec(0..64usize, 0..20),
        descending in any::<bool>(),
    ) {
        let frame = keyed_frame(1, &rows, "own");
        let indices: Vec<usize> = picks.iter().map(|p| p % frame.n_rows()).collect();
        prop_assert_eq!(frame.take(&indices), oracle::take(&frame, &indices));
        let kept: Vec<usize> = (0..frame.n_rows()).filter(|i| i % 3 != 1).collect();
        prop_assert_eq!(frame.filter(|i| i % 3 != 1), oracle::take(&frame, &kept));
        // Sorting compares typed storage; the oracle compares `Value`s.
        // Every key type (nulls included) and the string payload.
        for kind in 0..4 {
            let frame = keyed_frame(kind, &rows, "own");
            for column in ["k", "v"] {
                let sorted = frame.sort_by(column, !descending).expect("column exists");
                let col = frame.column(column).expect("column exists");
                let mut order: Vec<usize> = (0..frame.n_rows()).collect();
                order.sort_by(|&a, &b| {
                    let ord = col.get(a).total_cmp(&col.get(b));
                    if descending { ord.reverse() } else { ord }
                });
                prop_assert_eq!(sorted, oracle::take(&frame, &order));
            }
        }
    }
}

/// A frame keyed on `k` (kind 0: int, 1: str, 2: bool, 3: float) with one
/// string payload column `v` shared by both sides of a join, and one
/// column of its own. Key 0 is null; payload 0 is null.
fn keyed_frame(kind: usize, rows: &[(usize, usize)], own: &str) -> Frame {
    const WORDS: [&str; 4] = ["", "gpu", "cpu", "tpu"];
    let keys = rows.iter().map(|&(k, _)| (k > 0).then_some(k));
    let key = match kind {
        0 => Column::from_opt_ints(keys.map(|k| k.map(|k| k as i64))),
        1 => Column::from_opt_strs(keys.map(|k| k.map(|k| ["", "a", "b", "c", "d"][k]))),
        2 => Column::Bool(keys.map(|k| k.map(|k| k % 2 == 0)).collect()),
        _ => Column::from_opt_floats(keys.map(|k| k.map(|k| k as f64))),
    };
    let mut frame = Frame::new();
    frame.add_column("k", key).expect("first column");
    let payload = rows.iter().map(|&(_, v)| (v > 0).then(|| WORDS[v]));
    frame
        .add_column("v", Column::from_opt_strs(payload))
        .expect("equal length");
    let own_col = Column::from_ints(rows.iter().map(|&(k, v)| (k * 10 + v) as i64));
    frame.add_column(own, own_col).expect("equal length");
    frame
}

fn csv(text: &str) -> Frame {
    read_csv_str(text).expect("valid CSV")
}

fn strs(frame: &Frame, column: &str) -> Vec<String> {
    let storage = frame.column(column).unwrap().as_strs().unwrap();
    storage.dict().to_vec()
}

#[test]
fn string_keys_one_to_many_keep_right_order() {
    let left = csv("user,team\nbob,x\nalice,y\ncarol,z\n");
    let right = csv("user,job\nalice,3\nbob,1\nalice,2\nbob,4\n");
    let joined = inner_join(&left, &right, "user").unwrap();
    let jobs: Vec<Value> = (0..joined.n_rows())
        .map(|r| joined.get(r, "job").unwrap())
        .collect();
    assert_eq!(
        jobs,
        [1, 4, 3, 2].map(Value::Int).to_vec(),
        "left order, then right order within a key"
    );
    assert_eq!(strs(&joined, "user"), ["bob", "alice"]);
    assert_eq!(joined, oracle::join(&left, &right, "user").unwrap());
}

#[test]
fn null_keys_never_match_and_collisions_get_the_suffix() {
    let left = csv("k,a\n,1\n2,2\n3,3\n");
    let right = csv("k,b,a\n,n0,x\n2,n2,y\n2,n2b,z\n");
    let inner = inner_join(&left, &right, "k").unwrap();
    assert_eq!(inner.n_rows(), 2);
    assert_eq!(strs(&inner, "b"), ["n2", "n2b"]);
    assert!(
        inner.has_column("a_right"),
        "a collides and gets the suffix"
    );
    assert_eq!(inner.get(0, "a_right").unwrap(), Value::Str("y".into()));
    assert_eq!(inner, oracle::join(&left, &right, "k").unwrap());
}

#[test]
fn suffix_collision_is_reported_like_the_oracle() {
    let left = csv("k,a,a_right\n1,x,y\n");
    let right = csv("k,a\n1,z\n");
    let fast = inner_join(&left, &right, "k").unwrap_err();
    let slow = oracle::join(&left, &right, "k").unwrap_err();
    assert_eq!(fast.to_string(), slow.to_string());
}

#[test]
fn mismatched_key_types_match_nothing() {
    let left = csv("k,a\n1,x\n");
    let right = csv("k,b\nz,1\n");
    let joined = inner_join(&left, &right, "k").unwrap();
    assert_eq!(joined.n_rows(), 0);
    assert_eq!(joined, oracle::join(&left, &right, "k").unwrap());
}

#[test]
fn dictionary_keeps_first_appearance_order_after_takes() {
    let frame = csv("g,n\nc,3\na,1\nb,2\na,4\n");
    let taken = frame.take(&[3, 2, 0, 2]);
    assert_eq!(strs(&taken, "g"), ["a", "b", "c"]);
    assert_eq!(taken, oracle::take(&frame, &[3, 2, 0, 2]));
    let filtered = frame.filter(|r| r != 0);
    assert_eq!(strs(&filtered, "g"), ["a", "b"]);
    let sorted = frame.sort_by("n", false).unwrap();
    assert_eq!(strs(&sorted, "g"), ["a", "c", "b"]);
    assert_eq!(sorted, oracle::take(&frame, &[3, 0, 2, 1]));
}

#[test]
fn reader_reports_errors_like_the_oracle() {
    for text in [
        "",
        "a\n\"oops",
        "a,b\n1\n\"x\"y\"",
        "a\r\n\"x\r\ny\",bad\"quote\n",
        "a\nb\rc\n",
        "a,a\n1,2\n",
        "a,b\n1,2\n3\n4,5,6\n",
    ] {
        let fast = read_csv_str(text).unwrap_err();
        let slow = oracle::read_csv_str(text).unwrap_err();
        assert_eq!(fast.to_string(), slow.to_string(), "{text:?}");
    }
}

#[test]
fn chunked_reader_handles_quotes_across_cuts() {
    // Quoted separators, `""` escapes, embedded LF and quoted CRLF, a
    // lone `\r` inside quotes, and text after a closing quote, repeated
    // so that every chunk count cuts through some of them.
    let row = "1,\"a,b\",\"say \"\"hi\"\"\",\"l1\nl2\",\"c1\r\nc2\",\"x\ry\",\"ab\"cd\n";
    for eol in ["\n", "\r\n"] {
        let mut text = format!("id,sep,esc,lf,crlf,cr,tail{eol}");
        for i in 0..40 {
            text.push_str(
                &row.replacen('1', &i.to_string(), 1)
                    .replace("cd\n", &format!("cd{eol}")),
            );
        }
        let frame = pools()[2]
            .install(|| read_csv_str(&text))
            .expect("valid CSV");
        assert_eq!(frame.n_rows(), 40);
        assert_eq!(frame.get(3, "crlf").unwrap(), Value::Str("c1\nc2".into()));
        assert_eq!(frame.get(3, "cr").unwrap(), Value::Str("x\ry".into()));
        chunked_matches_oracle(&text).unwrap();
    }
}

#[test]
fn chunked_reader_reports_errors_like_the_oracle() {
    let body = "1,x\n2,\"q\nr\"\n".repeat(20);
    for (text, expected) in [
        // A bare carriage return late in the body.
        (
            format!("a,b\n{body}3,y\rz\n"),
            "line 62: bare carriage return",
        ),
        // A ragged row, then a syntax error further on: the syntax
        // error wins, as in one pass.
        (
            format!("a,b\n{body}3\n{body}4,x\"y\n"),
            "line 123: quote inside unquoted field",
        ),
        // A ragged row alone is reported by its row.
        (
            format!("a,b\n{body}3\n{body}"),
            "line 42: expected 2 fields, found 1",
        ),
        // A quote left open runs to the end of the input.
        (
            format!("a,b\n{body}3,\"open\n{}", "1,x\n".repeat(40)),
            "line 103: unterminated quoted field",
        ),
        // Its closing quote is missing, so the quotes after it pair up
        // the wrong way and the error is a later line's.
        (
            format!("a,b\n{body}3,\"open\n{body}"),
            "line 65: quote inside unquoted field",
        ),
    ] {
        let slow = oracle::read_csv_str(&text).unwrap_err();
        assert!(slow.to_string().ends_with(expected), "{slow}");
        for pool in pools() {
            let fast = pool.install(|| read_csv_str(&text)).unwrap_err();
            assert_eq!(
                fast.to_string(),
                slow.to_string(),
                "{} chunks",
                pool.current_num_threads()
            );
        }
    }
}

#[test]
fn chunked_reader_keeps_dictionary_first_appearance_order() {
    // Values first appear in different chunks, and later chunks repeat
    // earlier values; the dictionary must list them in row order.
    let words = ["t4", "v100", "p100", "a100", "k80", "misc"];
    let mut text = String::from("gpu,n\n");
    for i in 0..60 {
        text.push_str(&format!("{},{i}\n", words[(i * i / 7) % words.len()]));
    }
    let expected = oracle::read_csv_str(&text).unwrap();
    for pool in pools() {
        let frame = pool.install(|| read_csv_str(&text)).unwrap();
        assert_eq!(
            strs(&frame, "gpu"),
            strs(&expected, "gpu"),
            "{} chunks",
            pool.current_num_threads()
        );
        assert_eq!(frame, expected);
    }
}

#[test]
fn column_types_follow_the_oracle() {
    let text = "i,f,b,s,n,m\n1,1,true,x,,1\n2,2.5,False,\"a,b\",NA,true\n";
    let frame = read_csv_str(text).unwrap();
    let types: Vec<DType> = frame.columns().iter().map(Column::dtype).collect();
    assert_eq!(
        types,
        [
            DType::Int,
            DType::Float,
            DType::Bool,
            DType::Str,
            DType::Str,
            DType::Str
        ]
    );
    assert_eq!(frame, oracle::read_csv_str(text).unwrap());
}

#[test]
fn writer_matches_oracle_on_synthetic_profiles() {
    let config = irma_synth::TraceConfig {
        n_jobs: 2_000,
        seed: 11,
        max_monitor_samples: 16,
    };
    for (name, profile) in irma_synth::all_profiles() {
        let bundle = profile(&config);
        for frame in [&bundle.scheduler, &bundle.monitoring] {
            let text = write_csv_string(frame);
            assert_eq!(text, oracle::write_csv_string(frame), "{name}");
            assert_eq!(
                read_csv_str(&text).unwrap(),
                oracle::read_csv_str(&text).unwrap(),
                "{name}"
            );
        }
    }
}
