//! Chrome `trace_event` export for the live JSONL trace logs.
//!
//! The metrics registry streams `span_open` / `span_close` / `counter`
//! events as JSONL while a run executes (`--trace-log`). This module
//! converts such a log into the Chrome trace-event format understood by
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev):
//!
//! * every `span_close` becomes a complete (`"ph":"X"`) event whose
//!   start is `offset_us - wall_us` — spans land on per-worker lanes
//!   (`tid`) when they carry a `worker` field, and on the `main` lane
//!   otherwise;
//! * every `counter` event becomes a `"ph":"C"` counter sample, so
//!   prune/stream counters plot as time series under the lanes;
//! * each distinct `run` id maps to one process (`pid`), with
//!   `process_name` / `thread_name` metadata naming runs and lanes.
//!
//! The workspace builds offline (no serde), so parsing is a small
//! recursive-descent JSON reader, strict about malformed lines: a trace
//! log is machine-written, and a line that does not parse means the log
//! is truncated or corrupt — better a hard error naming the line than a
//! silently incomplete timeline.

use std::fmt::Write as _;

use irma_obs::json_escape;

// ---------------------------------------------------------------------
// Minimal JSON value parser
// ---------------------------------------------------------------------

/// A parsed JSON value. Numbers keep `f64` (the trace schema only emits
/// unsigned integers small enough for exact representation).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find_map(|(k, v)| (k == key).then_some(v)),
            _ => None,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, message: &str) -> String {
        format!("{message} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, expected: u8) -> Result<(), String> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", expected as char)))
        }
    }

    fn eat_literal(&mut self, literal: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{literal}`")))
        }
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b't') => self.eat_literal("true", Json::Bool(true)),
            Some(b'f') => self.eat_literal("false", Json::Bool(false)),
            Some(b'n') => self.eat_literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn parse_object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(entries));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("bad \\u escape"))?;
                            // Surrogates never appear in trace logs
                            // (the writer escapes control chars only);
                            // map unpaired ones to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so
                    // slicing at char boundaries is safe via chars()).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.error("invalid UTF-8"))?;
                    let c = s.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.error(&format!("bad number `{text}`")))
    }
}

/// Parses one complete JSON document (trailing garbage is an error).
fn parse_json(text: &str) -> Result<Json, String> {
    let mut parser = Parser::new(text);
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing characters after JSON value"));
    }
    Ok(value)
}

// ---------------------------------------------------------------------
// Conversion
// ---------------------------------------------------------------------

/// The `tid` assigned to events that carry no `worker` field: the run's
/// coordinating thread. Worker `w` gets lane `w + 1`.
const MAIN_LANE: u64 = 0;

/// Converts a JSONL trace log (the `--trace-log` output) into Chrome
/// `trace_event` JSON (`{"traceEvents":[...]}`).
///
/// Mapping: each distinct `run` id becomes a process (`pid`, in order of
/// first appearance); `span_close` events become complete (`"X"`) slices
/// on the lane of their `worker` field (lane 0 = `main` otherwise);
/// `counter` events become `"C"` samples carrying their running total.
/// `span_open` events only assert well-formedness — their close twin
/// carries the interval.
///
/// Errors name the offending line: trace logs are machine-written, so a
/// malformed line means truncation or corruption, not style.
pub fn chrome_trace(jsonl: &str) -> Result<String, String> {
    let mut runs: Vec<String> = Vec::new();
    let mut lanes: Vec<(u64, u64)> = Vec::new();
    let mut events: Vec<String> = Vec::new();

    for (index, line) in jsonl.lines().enumerate() {
        let lineno = index + 1;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let event = parse_json(line).map_err(|e| format!("line {lineno}: {e}"))?;
        let fail = |what: &str| format!("line {lineno}: {what}");

        // Shared envelope.
        let kind = event
            .get("event")
            .and_then(Json::as_str)
            .ok_or_else(|| fail("missing string `event`"))?;
        let run = event
            .get("run")
            .and_then(Json::as_str)
            .ok_or_else(|| fail("missing string `run`"))?;
        let offset_us = event
            .get("offset_us")
            .and_then(Json::as_u64)
            .ok_or_else(|| fail("missing integer `offset_us`"))?;
        event
            .get("seq")
            .and_then(Json::as_u64)
            .ok_or_else(|| fail("missing integer `seq`"))?;

        let pid = match runs.iter().position(|r| r == run) {
            Some(i) => i as u64 + 1,
            None => {
                runs.push(run.to_string());
                runs.len() as u64
            }
        };
        let mut lane = |tid: u64| {
            if !lanes.contains(&(pid, tid)) {
                lanes.push((pid, tid));
            }
        };

        match kind {
            "span_open" => {
                // The interval lives on the close event; opens only
                // prove the log is well-formed this far.
                event
                    .get("span")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| fail("span_open without integer `span`"))?;
            }
            "span_close" => {
                let span = event
                    .get("span")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| fail("span_close without integer `span`"))?;
                let stage = event
                    .get("stage")
                    .and_then(Json::as_str)
                    .ok_or_else(|| fail("span_close without string `stage`"))?;
                let wall_us = event
                    .get("wall_us")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| fail("span_close without integer `wall_us`"))?;
                let fields = match event.get("fields") {
                    Some(Json::Obj(entries)) => entries.as_slice(),
                    Some(_) => return Err(fail("span_close `fields` is not an object")),
                    None => &[],
                };
                let tid = fields
                    .iter()
                    .find_map(|(k, v)| (k == "worker").then(|| v.as_u64()).flatten())
                    .map_or(MAIN_LANE, |w| w + 1);
                lane(tid);
                let mut args = format!("\"span\":{span}");
                for (key, value) in fields {
                    if let Some(n) = value.as_u64() {
                        let _ = write!(args, ",\"{}\":{n}", json_escape(key));
                    }
                }
                events.push(format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{wall_us},\
                     \"pid\":{pid},\"tid\":{tid},\"args\":{{{args}}}}}",
                    json_escape(stage),
                    offset_us.saturating_sub(wall_us),
                ));
            }
            "counter" => {
                let name = event
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| fail("counter without string `name`"))?;
                let total = event
                    .get("total")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| fail("counter without integer `total`"))?;
                lane(MAIN_LANE);
                events.push(format!(
                    "{{\"name\":\"{}\",\"ph\":\"C\",\"ts\":{offset_us},\
                     \"pid\":{pid},\"tid\":{MAIN_LANE},\"args\":{{\"value\":{total}}}}}",
                    json_escape(name),
                ));
            }
            other => return Err(fail(&format!("unknown event kind `{other}`"))),
        }
    }

    // Metadata first: viewers apply process/thread names regardless of
    // position, but leading metadata keeps the file skimmable.
    let mut out = Vec::with_capacity(events.len() + runs.len() + lanes.len());
    for (i, run) in runs.iter().enumerate() {
        out.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\
             \"args\":{{\"name\":\"run {}\"}}}}",
            i as u64 + 1,
            json_escape(run)
        ));
    }
    lanes.sort_unstable();
    for &(pid, tid) in &lanes {
        let label = if tid == MAIN_LANE {
            "main".to_string()
        } else {
            format!("worker {}", tid - 1)
        };
        out.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
             \"args\":{{\"name\":\"{label}\"}}}}"
        ));
    }
    out.extend(events);

    if out.is_empty() {
        return Ok("{\"traceEvents\":[]}\n".to_string());
    }
    Ok(format!("{{\"traceEvents\":[\n{}\n]}}\n", out.join(",\n")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use irma_obs::{EventSink, Metrics};

    /// Renders a real trace log via the registry's event sink.
    fn sample_log() -> String {
        let (sink, buffer) = EventSink::shared_buffer();
        let metrics = Metrics::enabled().with_event_sink(sink);
        {
            let mut outer = metrics.span("prep.fit");
            outer.field("rows_in", 20);
            {
                let mut inner = metrics.span("mine.item");
                inner.field("worker", 2);
            }
        }
        metrics.incr("prune.condition1", 3);
        let bytes = buffer.lock().expect("buffer").clone();
        String::from_utf8(bytes).expect("utf8 log")
    }

    #[test]
    fn json_parser_round_trips_trace_lines() {
        let value = parse_json(
            r#"{"event":"span_close","run":"ab","seq":3,"offset_us":480,"span":1,"stage":"p","wall_us":468,"fields":{"rows_in":20}}"#,
        )
        .expect("parses");
        assert_eq!(value.get("seq").and_then(Json::as_u64), Some(3));
        assert_eq!(
            value.get("event").and_then(Json::as_str),
            Some("span_close")
        );
        assert_eq!(
            value
                .get("fields")
                .and_then(|f| f.get("rows_in"))
                .and_then(Json::as_u64),
            Some(20)
        );
        // Escapes, arrays, literals.
        let value = parse_json(r#"{"a":"x\"yA","b":[1,null,true],"c":-2.5}"#).expect("parses");
        assert_eq!(value.get("a").and_then(Json::as_str), Some("x\"yA"));
        assert_eq!(
            value.get("b"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Null,
                Json::Bool(true)
            ]))
        );
        assert_eq!(value.get("c"), Some(&Json::Num(-2.5)));
        // Malformed documents are errors, not partial values.
        assert!(parse_json("{\"a\":1").is_err());
        assert!(parse_json("{\"a\":1} extra").is_err());
        assert!(parse_json("nope").is_err());
    }

    #[test]
    fn spans_become_complete_events_on_worker_lanes() {
        let rendered = chrome_trace(&sample_log()).expect("converts");
        // Structure: one traceEvents array, balanced braces.
        assert!(rendered.starts_with("{\"traceEvents\":[\n"));
        assert_eq!(rendered.matches('{').count(), rendered.matches('}').count());
        // The worker-tagged span lands on lane worker+1; the outer span
        // (no worker field) on the main lane.
        assert!(
            rendered.contains("\"name\":\"mine.item\",\"ph\":\"X\""),
            "{rendered}"
        );
        assert!(rendered.contains("\"tid\":3"), "{rendered}");
        assert!(
            rendered.contains("\"name\":\"prep.fit\",\"ph\":\"X\""),
            "{rendered}"
        );
        assert!(rendered.contains("\"rows_in\":20"), "{rendered}");
        // The counter becomes a "C" sample carrying its running total.
        assert!(
            rendered.contains("\"name\":\"prune.condition1\",\"ph\":\"C\""),
            "{rendered}"
        );
        assert!(rendered.contains("\"args\":{\"value\":3}"), "{rendered}");
        // Metadata names the run's process and both lanes.
        assert!(rendered.contains("\"name\":\"process_name\""), "{rendered}");
        assert!(rendered.contains("\"name\":\"thread_name\""), "{rendered}");
        assert!(rendered.contains("\"name\":\"main\""), "{rendered}");
        assert!(rendered.contains("\"name\":\"worker 2\""), "{rendered}");
    }

    #[test]
    fn ts_is_offset_minus_wall() {
        let log = concat!(
            r#"{"event":"span_open","run":"r","seq":0,"offset_us":100,"span":1,"parent":null,"stage":"s"}"#,
            "\n",
            r#"{"event":"span_close","run":"r","seq":1,"offset_us":480,"span":1,"stage":"s","wall_us":380,"fields":{}}"#,
            "\n",
        );
        let rendered = chrome_trace(log).expect("converts");
        assert!(rendered.contains("\"ts\":100,\"dur\":380"), "{rendered}");
    }

    #[test]
    fn distinct_runs_get_distinct_pids() {
        let log = concat!(
            r#"{"event":"counter","run":"one","seq":0,"offset_us":5,"name":"a","by":1,"total":1}"#,
            "\n",
            r#"{"event":"counter","run":"two","seq":0,"offset_us":9,"name":"a","by":2,"total":2}"#,
            "\n",
        );
        let rendered = chrome_trace(log).expect("converts");
        assert!(rendered.contains("\"name\":\"run one\""), "{rendered}");
        assert!(rendered.contains("\"name\":\"run two\""), "{rendered}");
        assert!(rendered.contains("\"pid\":1"), "{rendered}");
        assert!(rendered.contains("\"pid\":2"), "{rendered}");
    }

    #[test]
    fn malformed_lines_are_hard_errors_naming_the_line() {
        let garbage = "{\"event\":\"counter\"}\n";
        let err = chrome_trace(garbage).expect_err("missing envelope");
        assert!(err.starts_with("line 1:"), "{err}");

        let truncated = concat!(
            r#"{"event":"counter","run":"r","seq":0,"offset_us":5,"name":"a","by":1,"total":1}"#,
            "\n",
            r#"{"event":"counter","run":"r","seq":1,"off"#,
        );
        let err = chrome_trace(truncated).expect_err("truncated line");
        assert!(err.starts_with("line 2:"), "{err}");

        let unknown = r#"{"event":"meteor","run":"r","seq":0,"offset_us":5}"#;
        let err = chrome_trace(unknown).expect_err("unknown kind");
        assert!(err.contains("unknown event kind"), "{err}");
    }

    #[test]
    fn empty_log_is_an_empty_timeline() {
        assert_eq!(chrome_trace("").unwrap(), "{\"traceEvents\":[]}\n");
        assert_eq!(chrome_trace("\n\n").unwrap(), "{\"traceEvents\":[]}\n");
    }
}
