//! Hand-rolled JSON serialization for [`Snapshot`] (the workspace builds
//! offline, so no serde).
//!
//! Schema (stable; documented in DESIGN.md):
//!
//! ```json
//! {
//!   "run_id":   "<hex id>",
//!   "degraded": <bool>,
//!   "counters": { "<name>": <u64>, ... },
//!   "gauges":   { "<name>": <f64|null>, ... },
//!   "sched":    null | { "injector_pushes": <u64>,
//!                        "workers": [ { "worker": <usize>,
//!                                       "jobs_executed": <u64>, ... } ] },
//!   "timers":   { "<name>": { "count": <usize>, "total_ms": <f64>,
//!                              "p50_ms": <f64>, "p95_ms": <f64>,
//!                              "max_ms": <f64> }, ... },
//!   "stages":   [ { "id": <u64>, "parent": <u64|null>,
//!                   "stage": "<name>", "wall_ms": <f64>,
//!                   "fields": { "<name>": <u64>, ... } }, ... ],
//!   "stages_dropped": <u64>
//! }
//! ```
//!
//! `stages` holds the most recent `MAX_STAGE_EVENTS` spans;
//! `stages_dropped` counts the older ones and appears only when nonzero.
//!
//! `timers.p50_ms` / `timers.p95_ms` are bucket-boundary estimates from
//! the bounded log2 histogram (count/total/max stay exact).
//!
//! Non-finite gauge values serialize as `null` (JSON has no NaN/inf).

use std::time::Duration;

use crate::Snapshot;

/// Escapes a string for use inside JSON quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A finite `f64` as its shortest round-trip JSON number; `null` otherwise.
pub fn f64_value(x: f64) -> String {
    if x.is_finite() {
        // `{:?}` prints a shortest-roundtrip literal that always contains
        // a decimal point or exponent — a valid JSON number either way.
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

fn millis(d: Duration) -> String {
    f64_value(d.as_secs_f64() * 1e3)
}

/// Writes `entries` as a JSON object with one line per key.
fn object<I: Iterator<Item = (String, String)>>(entries: I, indent: &str) -> String {
    let body: Vec<String> = entries
        .map(|(key, value)| format!("{indent}  \"{}\": {value}", escape(&key)))
        .collect();
    if body.is_empty() {
        "{}".to_string()
    } else {
        format!("{{\n{}\n{indent}}}", body.join(",\n"))
    }
}

pub(crate) fn snapshot_to_json(snapshot: &Snapshot) -> String {
    let counters = object(
        snapshot
            .counters
            .iter()
            .map(|(name, value)| (name.clone(), value.to_string())),
        "  ",
    );
    let gauges = object(
        snapshot
            .gauges
            .iter()
            .map(|(name, value)| (name.clone(), f64_value(*value))),
        "  ",
    );
    let sched = match &snapshot.sched {
        None => "null".to_string(),
        Some(sched) => {
            let workers: Vec<String> = sched
                .workers
                .iter()
                .map(|w| {
                    format!(
                        "{{ \"worker\": {}, \"jobs_executed\": {}, \"local_pushes\": {}, \
                         \"steal_attempts\": {}, \"steal_successes\": {}, \"steal_empty\": {}, \
                         \"steal_retries\": {}, \"injector_pops\": {}, \"parks\": {}, \
                         \"wakes\": {}, \"deque_high_water\": {} }}",
                        w.worker,
                        w.jobs_executed,
                        w.local_pushes,
                        w.steal_attempts(),
                        w.steal_successes,
                        w.steal_empty,
                        w.steal_retries,
                        w.injector_pops,
                        w.parks,
                        w.wakes,
                        w.deque_high_water
                    )
                })
                .collect();
            format!(
                "{{ \"injector_pushes\": {}, \"workers\": [{}] }}",
                sched.injector_pushes,
                workers.join(", ")
            )
        }
    };
    let timers = object(
        snapshot.timers.iter().map(|t| {
            (
                t.name.clone(),
                format!(
                    "{{ \"count\": {}, \"total_ms\": {}, \"p50_ms\": {}, \"p95_ms\": {}, \"max_ms\": {} }}",
                    t.count,
                    millis(t.total),
                    millis(t.p50),
                    millis(t.p95),
                    millis(t.max)
                ),
            )
        }),
        "  ",
    );
    let stages: Vec<String> = snapshot
        .stages
        .iter()
        .map(|event| {
            let fields = object(
                event
                    .fields
                    .iter()
                    .map(|(name, value)| (name.clone(), value.to_string())),
                "      ",
            );
            format!(
                "    {{\n      \"id\": {},\n      \"parent\": {},\n      \"stage\": \"{}\",\n      \"wall_ms\": {},\n      \"fields\": {fields}\n    }}",
                event.id,
                event.parent.map_or("null".to_string(), |p| p.to_string()),
                escape(&event.stage),
                millis(event.wall)
            )
        })
        .collect();
    let stages = if stages.is_empty() {
        "[]".to_string()
    } else {
        format!("[\n{}\n  ]", stages.join(",\n"))
    };
    // Only a run past the stage cap carries the key, so a bounded run's
    // document keeps its shape.
    let dropped = match snapshot.stages_dropped {
        0 => String::new(),
        n => format!(",\n  \"stages_dropped\": {n}"),
    };
    format!(
        "{{\n  \"run_id\": \"{}\",\n  \"degraded\": {},\n  \"counters\": {counters},\n  \"gauges\": {gauges},\n  \"sched\": {sched},\n  \"timers\": {timers},\n  \"stages\": {stages}{dropped}\n}}\n",
        escape(&snapshot.run_id),
        snapshot.degraded
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Metrics, StageEvent};

    #[test]
    fn empty_snapshot_is_valid_object() {
        let json = Snapshot::default().to_json();
        assert_eq!(
            json,
            "{\n  \"run_id\": \"\",\n  \"degraded\": false,\n  \"counters\": {},\n  \"gauges\": {},\n  \"sched\": null,\n  \"timers\": {},\n  \"stages\": []\n}\n"
        );
    }

    #[test]
    fn sched_snapshot_serializes_workers() {
        use crate::{Metrics, SchedStats, SchedWorker};
        let metrics = Metrics::enabled();
        metrics.set_sched(SchedStats {
            injector_pushes: 3,
            workers: vec![SchedWorker {
                worker: 1,
                jobs_executed: 8,
                steal_successes: 2,
                ..SchedWorker::default()
            }],
        });
        let json = metrics.snapshot().to_json();
        assert!(json.contains("\"injector_pushes\": 3"), "{json}");
        assert!(json.contains("\"worker\": 1"), "{json}");
        assert!(json.contains("\"jobs_executed\": 8"), "{json}");
        assert!(json.contains("\"steal_attempts\": 2"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn degraded_snapshot_says_so() {
        let snapshot = Snapshot {
            degraded: true,
            ..Snapshot::default()
        };
        assert!(snapshot.to_json().contains("\"degraded\": true"));
    }

    #[test]
    fn full_snapshot_round_trips_key_facts() {
        let metrics = Metrics::enabled();
        metrics.incr("prune.condition1", 3);
        metrics.gauge("stream.drift", 0.25);
        metrics.record("mine.mine", Duration::from_millis(12));
        {
            let mut span = metrics.span("prep.fit");
            span.field("rows_in", 20);
        }
        let json = metrics.snapshot().to_json();
        assert!(json.contains("\"prune.condition1\": 3"), "{json}");
        assert!(json.contains("\"stream.drift\": 0.25"), "{json}");
        assert!(json.contains("\"count\": 1"), "{json}");
        assert!(json.contains("\"stage\": \"prep.fit\""), "{json}");
        assert!(json.contains("\"rows_in\": 20"), "{json}");
        // Balanced braces/brackets — a cheap structural validity check.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(
            json.matches('[').count(),
            json.matches(']').count(),
            "{json}"
        );
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        let snapshot = Snapshot {
            stages: vec![StageEvent {
                id: 1,
                parent: None,
                stage: "we\"ird".to_string(),
                wall: Duration::ZERO,
                fields: Vec::new(),
            }],
            ..Snapshot::default()
        };
        assert!(snapshot.to_json().contains("\"we\\\"ird\""));
    }

    #[test]
    fn non_finite_gauges_become_null() {
        assert_eq!(f64_value(f64::NAN), "null");
        assert_eq!(f64_value(f64::INFINITY), "null");
        assert_eq!(f64_value(1.5), "1.5");
        assert_eq!(f64_value(2.0), "2.0");
    }
}
