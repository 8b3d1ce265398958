//! Hand-rolled CSV reader and writer (RFC 4180 quoting rules).
//!
//! The paper's traces ship as CSV files split across collection levels
//! (scheduler log vs node measurements); the reproduction keeps the parsing
//! in-repo instead of depending on a CSV crate, per the reproduction brief.
//!
//! Supported dialect: comma separator, `"`-quoting with `""` escapes,
//! embedded newlines inside quoted fields, LF or CRLF record terminators,
//! and a mandatory header row. CRLF is treated as the file's line-ending
//! dialect rather than data, so a quoted `\r\n` normalizes to `\n` exactly
//! as unquoted terminators do; a lone `\r` inside quotes stays literal.
//!
//! The reader works on bytes: one [`Tokenizer`] splits the input into
//! fields that borrow from it, and each column is then classified and
//! built straight into typed storage, so no cell becomes a `String` or a
//! [`crate::Value`] on the way.

use std::borrow::Cow;
use std::fmt::Write as _;
use std::io::{BufReader, Read, Write};
use std::path::Path;

use crate::column::{Column, StrStorage};
use crate::error::{DataError, Result};
use crate::frame::Frame;
use crate::value::Cell;

/// Splits CSV text into records of fields. A field borrows from the input
/// unless quoting changed its bytes (a `""` escape, a quoted CRLF, or text
/// after the closing quote); only then is it owned.
struct Tokenizer<'a> {
    text: &'a str,
    pos: usize,
    /// 1-based line at `pos`, for error messages.
    line: usize,
}

impl<'a> Tokenizer<'a> {
    fn new(text: &'a str) -> Tokenizer<'a> {
        Tokenizer {
            text,
            pos: 0,
            line: 1,
        }
    }

    fn error(&self, message: &str) -> DataError {
        DataError::Csv {
            line: self.line,
            message: message.to_string(),
        }
    }

    /// Reads the next record, handing each field to `sink` with its
    /// index in the record; returns the field count, or `None` once the
    /// input is exhausted. Text after the last line break is a final
    /// record.
    fn next_record(&mut self, mut sink: impl FnMut(usize, Cow<'a, str>)) -> Result<Option<usize>> {
        if self.pos == self.text.len() {
            return Ok(None);
        }
        let mut index = 0;
        loop {
            let (field, ends_record) = self.next_field()?;
            sink(index, field);
            index += 1;
            if ends_record {
                return Ok(Some(index));
            }
        }
    }

    /// Reads one field and its terminator; the flag is true when the
    /// field ends its record.
    fn next_field(&mut self) -> Result<(Cow<'a, str>, bool)> {
        let bytes = self.text.as_bytes();
        let quoted = if bytes.get(self.pos) == Some(&b'"') {
            Some(self.quoted()?)
        } else {
            None
        };
        // The unquoted run: the whole field, or text after a closing quote.
        let run_start = self.pos;
        let i = run_start
            + bytes[run_start..]
                .iter()
                .position(|&b| matches!(b, b',' | b'"' | b'\r' | b'\n'))
                .unwrap_or(bytes.len() - run_start);
        let run = &self.text[run_start..i];
        let field = match quoted {
            None => Cow::Borrowed(run),
            Some(quoted) if run.is_empty() => quoted,
            Some(quoted) if quoted.is_empty() => Cow::Borrowed(run),
            Some(quoted) => Cow::Owned(quoted.into_owned() + run),
        };
        let (next, ends_record) = match bytes.get(i) {
            None => (i, true),
            Some(b',') => (i + 1, false),
            Some(b'\n') => {
                self.line += 1;
                (i + 1, true)
            }
            Some(b'\r') if bytes.get(i + 1) == Some(&b'\n') => {
                self.line += 1;
                (i + 2, true)
            }
            Some(b'\r') => return Err(self.error("bare carriage return")),
            // A quote opens a field only at its start, which `quoted`
            // consumed; a closing quote is never followed by another.
            Some(_) => return Err(self.error("quote inside unquoted field")),
        };
        self.pos = next;
        Ok((field, ends_record))
    }

    /// Reads the quoted section whose opening quote is at `pos`, leaving
    /// `pos` just past the closing quote.
    fn quoted(&mut self) -> Result<Cow<'a, str>> {
        let bytes = self.text.as_bytes();
        let mut owned: Option<String> = None;
        let mut seg = self.pos + 1;
        let mut i = seg;
        loop {
            i += bytes[i..]
                .iter()
                .position(|&b| matches!(b, b'"' | b'\r' | b'\n'))
                .unwrap_or(bytes.len() - i);
            match bytes.get(i) {
                None => return Err(self.error("unterminated quoted field")),
                Some(b'\n') => {
                    self.line += 1;
                    i += 1;
                }
                // A quoted CRLF is the same record terminator dialect as an
                // unquoted one, so it normalizes to '\n' too; a lone '\r'
                // is not a terminator and stays literal.
                Some(b'\r') if bytes.get(i + 1) == Some(&b'\n') => {
                    let text = owned.get_or_insert_with(String::new);
                    text.push_str(&self.text[seg..i]);
                    text.push('\n');
                    self.line += 1;
                    i += 2;
                    seg = i;
                }
                Some(b'\r') => i += 1,
                Some(_) if bytes.get(i + 1) == Some(&b'"') => {
                    let text = owned.get_or_insert_with(String::new);
                    text.push_str(&self.text[seg..=i]);
                    i += 2;
                    seg = i;
                }
                Some(_) => {
                    self.pos = i + 1;
                    let tail = &self.text[seg..i];
                    return Ok(match owned {
                        None => Cow::Borrowed(tail),
                        Some(text) => Cow::Owned(text + tail),
                    });
                }
            }
        }
    }
}

/// Splits raw CSV text into records of unescaped fields.
///
/// Exposed for testing; most callers want [`read_csv`] / [`read_csv_path`].
pub fn parse_records(text: &str) -> Result<Vec<Vec<String>>> {
    let mut tokens = Tokenizer::new(text);
    let mut records = Vec::new();
    let mut fields = Vec::new();
    while tokens
        .next_record(|_, field| fields.push(field.into_owned()))?
        .is_some()
    {
        records.push(std::mem::take(&mut fields));
    }
    Ok(records)
}

/// Parses CSV text (header row required) into a frame, inferring column
/// types from the first non-null value of each column.
///
/// Type inference promotes Int -> Float when a float appears later in an
/// integer-looking column, and anything -> Str on conflict.
pub fn read_csv_str(text: &str) -> Result<Frame> {
    let mut tokens = Tokenizer::new(text);
    let mut header = Vec::new();
    let Some(width) = tokens.next_record(|_, field| header.push(field))? else {
        return Err(DataError::Csv {
            line: 1,
            message: "missing header row".to_string(),
        });
    };

    // Body fields, one vector per column. A ragged row is reported only
    // once the whole input has tokenized, so that a syntax error anywhere
    // wins. A well-formed record takes at least `width` bytes, which
    // bounds the reservation when short rows or quoted line breaks make
    // the line count overshoot.
    let rows_hint = count_lines(text).min(text.len() / width) + 1;
    let mut columns: Vec<Vec<Cow<str>>> =
        (0..width).map(|_| Vec::with_capacity(rows_hint)).collect();
    let mut rows = 0;
    let mut ragged = None;
    while let Some(found) = tokens.next_record(|i, field| {
        if let Some(column) = columns.get_mut(i) {
            column.push(field);
        }
    })? {
        if found != width && ragged.is_none() {
            ragged = Some((rows, found));
        }
        rows += 1;
    }
    if let Some((row, found)) = ragged {
        return Err(DataError::Csv {
            line: row + 2,
            message: format!("expected {width} fields, found {found}"),
        });
    }

    let mut frame = Frame::new();
    let mut cells = Vec::with_capacity(rows);
    for (name, fields) in header.iter().zip(columns) {
        frame.add_column(name, build_column(&fields, &mut cells))?;
    }
    Ok(frame)
}

/// Counts line breaks, an upper bound on the record count. Summing each
/// 255-byte chunk into a `u8` lets the compiler vectorize the loop.
fn count_lines(text: &str) -> usize {
    text.as_bytes()
        .chunks(255)
        .map(|chunk| chunk.iter().map(|&b| u8::from(b == b'\n')).sum::<u8>() as usize)
        .sum()
}

/// Builds one column from its fields: classifies each field once, picks
/// the narrowest dtype that represents every non-null cell, then fills
/// typed storage. Int cells widen in a Float column; every non-null cell
/// of a Str column keeps its raw text.
fn build_column(fields: &[Cow<str>], cells: &mut Vec<Cell>) -> Column {
    cells.clear();
    cells.extend(fields.iter().map(|field| Cell::classify(field)));
    let (mut text, mut bools, mut ints, mut floats) = (false, false, false, false);
    for cell in cells.iter() {
        match cell {
            Cell::Null => {}
            Cell::Bool(_) => bools = true,
            Cell::Int(_) => ints = true,
            Cell::Float(_) => floats = true,
            Cell::Text => text = true,
        }
    }
    match (text, bools, ints, floats) {
        (false, true, false, false) => Column::Bool(
            cells
                .iter()
                .map(|cell| match *cell {
                    Cell::Bool(b) => Some(b),
                    _ => None,
                })
                .collect(),
        ),
        (false, false, _, true) => Column::Float(
            cells
                .iter()
                .map(|cell| match *cell {
                    Cell::Int(i) => Some(i as f64),
                    Cell::Float(f) => Some(f),
                    _ => None,
                })
                .collect(),
        ),
        (false, false, true, false) => Column::Int(
            cells
                .iter()
                .map(|cell| match *cell {
                    Cell::Int(i) => Some(i),
                    _ => None,
                })
                .collect(),
        ),
        // Text, mixed bool/number, or an all-null column.
        _ => {
            let mut storage = StrStorage::with_capacity(cells.len());
            for (cell, field) in cells.iter().zip(fields) {
                storage.push((*cell != Cell::Null).then_some(field));
            }
            Column::Str(storage)
        }
    }
}

/// Reads a frame from any reader.
pub fn read_csv<R: Read>(reader: R) -> Result<Frame> {
    let mut text = String::new();
    BufReader::new(reader).read_to_string(&mut text)?;
    read_csv_str(&text)
}

/// Reads a frame from a file path.
pub fn read_csv_path<P: AsRef<Path>>(path: P) -> Result<Frame> {
    let file = std::fs::File::open(path)?;
    read_csv(file)
}

/// Appends a text field, quoted if it holds a separator, quote or line
/// break.
fn push_field(out: &mut String, field: &str) {
    if !field
        .bytes()
        .any(|b| matches!(b, b',' | b'"' | b'\n' | b'\r'))
    {
        out.push_str(field);
        return;
    }
    out.push('"');
    for (i, part) in field.split('"').enumerate() {
        if i > 0 {
            out.push_str("\"\"");
        }
        out.push_str(part);
    }
    out.push('"');
}

/// Appends one cell as [`crate::Value`]'s `Display` writes it (null is
/// empty). Numbers and booleans never need quoting.
fn push_cell(out: &mut String, column: &Column, row: usize) {
    // Formatting into a `String` cannot fail.
    let _ = match column {
        Column::Int(v) => v[row].map(|x| write!(out, "{x}")),
        Column::Float(v) => v[row].map(|x| write!(out, "{x}")),
        Column::Bool(v) => v[row].map(|x| write!(out, "{x}")),
        Column::Str(v) => v.get(row).map(|s| {
            push_field(out, s);
            Ok(())
        }),
    };
}

/// Serializes a frame to CSV text (header + rows, LF terminators).
pub fn write_csv_string(frame: &Frame) -> String {
    let mut out = String::new();
    for (i, name) in frame.names().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_field(&mut out, name);
    }
    out.push('\n');
    for row in 0..frame.n_rows() {
        for (i, column) in frame.columns().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_cell(&mut out, column, row);
        }
        out.push('\n');
    }
    out
}

/// Writes a frame as CSV to any writer.
pub fn write_csv<W: Write>(frame: &Frame, mut writer: W) -> Result<()> {
    writer.write_all(write_csv_string(frame).as_bytes())?;
    Ok(())
}

/// Writes a frame as CSV to a file path.
pub fn write_csv_path<P: AsRef<Path>>(frame: &Frame, path: P) -> Result<()> {
    let file = std::fs::File::create(path)?;
    write_csv(frame, file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::DType;
    use crate::value::Value;

    #[test]
    fn parses_simple_records() {
        let recs = parse_records("a,b\n1,2\n3,4\n").unwrap();
        assert_eq!(recs, vec![vec!["a", "b"], vec!["1", "2"], vec!["3", "4"]]);
    }

    #[test]
    fn parses_quotes_and_escapes() {
        let recs = parse_records("name,note\n\"smith, j\",\"said \"\"hi\"\"\"\n").unwrap();
        assert_eq!(recs[1], vec!["smith, j", "said \"hi\""]);
    }

    #[test]
    fn parses_embedded_newline() {
        let recs = parse_records("a\n\"line1\nline2\"\n").unwrap();
        assert_eq!(recs[1], vec!["line1\nline2"]);
    }

    #[test]
    fn parses_crlf_and_missing_trailing_newline() {
        let recs = parse_records("a,b\r\n1,2").unwrap();
        assert_eq!(recs, vec![vec!["a", "b"], vec!["1", "2"]]);
    }

    #[test]
    fn quoted_crlf_normalizes_to_lf() {
        // Pre-fix the stray '\r' survived into the field; both terminator
        // dialects must yield the same parsed data.
        let crlf = parse_records("a\r\n\"line1\r\nline2\"\r\n").unwrap();
        let lf = parse_records("a\n\"line1\nline2\"\n").unwrap();
        assert_eq!(crlf, lf);
        assert_eq!(crlf[1], vec!["line1\nline2"]);
    }

    #[test]
    fn lone_cr_inside_quotes_is_literal() {
        let recs = parse_records("a\n\"x\ry\"\n").unwrap();
        assert_eq!(recs[1], vec!["x\ry"]);
    }

    #[test]
    fn quoted_crlf_counts_one_line() {
        // The embedded CRLF advances the line counter once, so a later
        // error still points at the right source line (here: line 3).
        let err = parse_records("a\r\n\"x\r\ny\",bad\"quote\n").unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("line 3"), "got: {msg}");
    }

    #[test]
    fn rejects_unterminated_quote() {
        assert!(parse_records("a\n\"oops\n").is_err());
    }

    #[test]
    fn rejects_unterminated_quote_at_eof() {
        // Quote still open when the input ends — with and without content,
        // and even when the opening quote is the very last byte.
        assert!(parse_records("a\n\"oops").is_err());
        assert!(parse_records("a\n\"").is_err());
        let err = parse_records("a\nx,\"trailing").unwrap_err();
        assert!(format!("{err}").contains("unterminated"));
    }

    #[test]
    fn final_record_without_newline_variants() {
        // Unquoted, quoted, and trailing-empty-field finals all complete.
        assert_eq!(
            parse_records("a,b\n1,2").unwrap(),
            vec![vec!["a", "b"], vec!["1", "2"]]
        );
        assert_eq!(
            parse_records("a\n\"done\"").unwrap(),
            vec![vec!["a"], vec!["done"]]
        );
        // A record ending in a comma has a final empty field; the quoted
        // empty field "" at EOF likewise yields one empty final field.
        assert_eq!(
            parse_records("a,b\n1,").unwrap(),
            vec![vec!["a", "b"], vec!["1", ""]]
        );
        assert_eq!(
            parse_records("a,b\n1,\"\"").unwrap(),
            vec![vec!["a", "b"], vec!["1", ""]]
        );
        // A record whose only field is the quoted empty string was dropped
        // pre-fix (indistinguishable from "no final record").
        assert_eq!(parse_records("a\n\"\"").unwrap(), vec![vec!["a"], vec![""]]);
    }

    #[test]
    fn rejects_ragged_rows() {
        assert!(read_csv_str("a,b\n1\n").is_err());
    }

    #[test]
    fn wide_header_over_short_rows_stays_small() {
        // 2000 columns over 2000 one-field lines: the per-column
        // reservation is bounded by the input size (about 3 fields each
        // here), not by the line count, and the first short row is the
        // error.
        let text = format!("{}\n{}", ",".repeat(1999), "x\n".repeat(2000));
        let err = read_csv_str(&text).unwrap_err();
        assert_eq!(
            err.to_string(),
            "csv parse error at line 2: expected 2000 fields, found 1"
        );
    }

    #[test]
    fn infers_types() {
        let f = read_csv_str("id,util,gpu,ok\n1,0.5,v100,true\n2,,t4,false\n").unwrap();
        assert_eq!(f.column("id").unwrap().dtype(), DType::Int);
        assert_eq!(f.column("util").unwrap().dtype(), DType::Float);
        assert_eq!(f.column("gpu").unwrap().dtype(), DType::Str);
        assert_eq!(f.column("ok").unwrap().dtype(), DType::Bool);
        assert_eq!(f.get(1, "util").unwrap(), Value::Null);
    }

    #[test]
    fn int_column_promoted_to_float() {
        let f = read_csv_str("x\n1\n2.5\n").unwrap();
        assert_eq!(f.column("x").unwrap().dtype(), DType::Float);
        assert_eq!(f.get(0, "x").unwrap(), Value::Float(1.0));
    }

    #[test]
    fn mixed_number_and_text_becomes_str() {
        let f = read_csv_str("x\n1\nabc\n").unwrap();
        assert_eq!(f.column("x").unwrap().dtype(), DType::Str);
        assert_eq!(f.get(0, "x").unwrap(), Value::Str("1".into()));
    }

    #[test]
    fn roundtrip_write_read() {
        let f = read_csv_str("id,note\n1,\"a,b\"\n2,\"quote \"\" here\"\n").unwrap();
        let text = write_csv_string(&f);
        let g = read_csv_str(&text).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn empty_body_gives_empty_frame() {
        let f = read_csv_str("a,b\n").unwrap();
        assert_eq!(f.n_rows(), 0);
        assert_eq!(f.n_cols(), 2);
    }
}
