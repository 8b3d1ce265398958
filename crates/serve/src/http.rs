//! Small HTTP/JSON helpers for the serving layer.
//!
//! The request head reader and response writer live in
//! [`irma_obs::serve`] (shared with the scrape endpoint); this module
//! adds what a POST API needs on top: bounded body reads, query-string
//! parsing with percent-decoding, and JSON string escaping for the
//! hand-rolled response bodies.

use std::io::BufRead;

pub use irma_obs::json_escape;

/// Decodes `%XX` escapes and `+`-for-space in a URL component. Invalid
/// escapes pass through verbatim (a garbled request earns a 400 later,
/// not a panic here).
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3).and_then(|pair| {
                    std::str::from_utf8(pair)
                        .ok()
                        .and_then(|h| u8::from_str_radix(h, 16).ok())
                });
                match hex {
                    Some(byte) => {
                        out.push(byte);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            byte => {
                out.push(byte);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Parses a query string (`a=1&b=x%20y`) into decoded key/value pairs.
/// Keys without `=` get an empty value.
pub fn parse_query(query: &str) -> Vec<(String, String)> {
    query
        .split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect()
}

/// First value for `key` in parsed query pairs.
pub fn query_get<'a>(pairs: &'a [(String, String)], key: &str) -> Option<&'a str> {
    pairs
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

/// Renders a `{"error": ..., "stage": ...}` JSON body.
pub fn json_error(message: &str, stage: &str) -> String {
    format!(
        "{{\"error\":\"{}\",\"stage\":\"{}\"}}\n",
        json_escape(message),
        json_escape(stage)
    )
}

/// Reads exactly `len` body bytes. `Err` means the client disconnected
/// or stalled past the socket deadline mid-body — the caller drops the
/// connection (there is nobody left to answer).
pub fn read_body<R: BufRead>(reader: &mut R, len: usize) -> std::io::Result<Vec<u8>> {
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_decoding_roundtrips() {
        assert_eq!(percent_decode("a%20b+c"), "a b c");
        assert_eq!(percent_decode("SM%20Util%20%3D%200%25"), "SM Util = 0%");
        // Invalid escapes pass through rather than panicking.
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
    }

    #[test]
    fn query_parsing_decodes_pairs() {
        let pairs = parse_query("trace=pai&keyword=State%3DFailed&flag");
        assert_eq!(query_get(&pairs, "trace"), Some("pai"));
        assert_eq!(query_get(&pairs, "keyword"), Some("State=Failed"));
        assert_eq!(query_get(&pairs, "flag"), Some(""));
        assert_eq!(query_get(&pairs, "missing"), None);
    }

    #[test]
    fn json_escape_handles_controls_and_quotes() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
