//! Round-trip properties for the CSV text format.

use proptest::prelude::*;

use irma_check::generators::arb_frame;
use irma_data::{parse_records, read_csv_str, write_csv_string, DataError, Frame};

/// Cell-wise frame comparison tolerant of the re-typing a text round trip
/// legitimately performs (all-null columns become Str, integral floats
/// re-infer as Int) — numeric content must survive exactly.
fn assert_frames_equivalent(original: &Frame, reread: &Frame) -> Result<(), TestCaseError> {
    prop_assert_eq!(reread.n_rows(), original.n_rows());
    prop_assert_eq!(reread.names(), original.names());
    for row in 0..original.n_rows() {
        for name in original.names() {
            let a = original.get(row, name).unwrap();
            let b = reread.get(row, name).unwrap();
            match (&a, &b) {
                (x, y) if x.is_null() && y.is_null() => {}
                (x, y) => match (x.as_float(), y.as_float()) {
                    (Some(p), Some(q)) => prop_assert_eq!(p, q, "{}[{}]", name, row),
                    _ => prop_assert_eq!(x, y, "{}[{}]", name, row),
                },
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(irma_check::config())]

    #[test]
    fn csv_write_read_round_trips(frame in arb_frame()) {
        let text = write_csv_string(&frame);
        let reread = read_csv_str(&text).expect("own output must parse");
        assert_frames_equivalent(&frame, &reread)?;
    }

    #[test]
    fn csv_parser_never_panics(text in "[ -~\n\r\"]{0,300}") {
        let _ = read_csv_str(&text);
    }

    #[test]
    fn csv_crlf_and_lf_inputs_parse_identically(text in "[xyz,\"\n]{0,80}") {
        // Rewriting every LF as CRLF — including inside quoted fields —
        // must not change the parse: CRLF is the file's line-ending
        // dialect, not data. (Pre-fix, a quoted CRLF kept a stray '\r'.)
        let crlf = text.replace('\n', "\r\n");
        match (parse_records(&text), parse_records(&crlf)) {
            (Ok(lf_records), Ok(crlf_records)) => {
                prop_assert_eq!(lf_records, crlf_records);
            }
            (Err(_), Err(_)) => {}
            (lf, crlf) => {
                return Err(TestCaseError::fail(format!(
                    "dialects disagree on validity: LF {lf:?} vs CRLF {crlf:?}"
                )));
            }
        }
    }

    #[test]
    fn csv_error_line_counts_embedded_newlines(
        records in prop::collection::vec(
            prop::collection::vec("[ab\n,\"]{0,6}", 1..4),
            0..8,
        )
    ) {
        // Well-formed records whose quoted fields may span lines, followed
        // by a malformed line (a quote inside an unquoted field). The
        // reported 1-based line must count every physical line the prior
        // records consumed — one per record terminator plus one per
        // newline embedded in a quoted field — not the record index.
        let mut text = String::new();
        let mut expected_line = 1usize;
        for record in &records {
            let quoted: Vec<String> = record
                .iter()
                .map(|f| format!("\"{}\"", f.replace('"', "\"\"")))
                .collect();
            text.push_str(&quoted.join(","));
            text.push('\n');
            expected_line +=
                1 + record.iter().map(|f| f.matches('\n').count()).sum::<usize>();
        }
        text.push_str("x\"oops");
        match parse_records(&text) {
            Err(DataError::Csv { line, message }) => {
                prop_assert_eq!(line, expected_line);
                prop_assert!(message.contains("quote"));
            }
            other => {
                return Err(TestCaseError::fail(format!(
                    "expected a Csv error, got {other:?}"
                )));
            }
        }
    }

    #[test]
    fn csv_final_newline_is_optional(frame in arb_frame()) {
        let text = write_csv_string(&frame);
        let trimmed = text.strip_suffix('\n').expect("writer ends with newline");
        let with = parse_records(&text).expect("writer output parses");
        let without = parse_records(trimmed).expect("trailing newline optional");
        prop_assert_eq!(with, without);
    }
}
