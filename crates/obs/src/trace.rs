//! Chrome trace-event export and validation.
//!
//! The exporter emits the [Trace Event Format] consumed by
//! `chrome://tracing` and Perfetto: a `traceEvents` array of `B`/`E`
//! duration events (µs timestamps) plus `M` metadata events naming the
//! process and threads. Events replay the *recorded interleaving* (the
//! begin/end sequence numbers of [`SpanRecord`]), not a timestamp sort —
//! timestamp ties therefore can never unbalance the B/E nesting.
//!
//! [`validate_chrome_trace`] is the consuming side: it checks the JSON
//! shape and that every `B` has a matching, correctly nested `E` per
//! thread. CI runs it against the trace the quickstart example emits.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::json::{escape, parse_json, Json};
use crate::observer::SpanRecord;
use std::collections::BTreeMap;

/// Serialize spans as Chrome trace-event JSON.
pub fn chrome_trace_json(spans: &[SpanRecord]) -> String {
    // One event per begin and per end, replayed in recorded order.
    let mut events: Vec<(u64, String)> = Vec::with_capacity(2 * spans.len() + 4);
    let mut tids: Vec<u64> = Vec::new();
    for span in spans {
        if !tids.contains(&span.tid) {
            tids.push(span.tid);
        }
        let ts_us = span.start_ns as f64 / 1e3;
        let end_us = (span.start_ns + span.dur_ns) as f64 / 1e3;
        events.push((
            span.begin_seq,
            format!(
                "{{\"name\":\"{}\",\"cat\":\"deepeye\",\"ph\":\"B\",\"ts\":{ts_us:.3},\"pid\":1,\"tid\":{}}}",
                escape(span.name),
                span.tid
            ),
        ));
        events.push((
            span.end_seq,
            format!(
                "{{\"name\":\"{}\",\"cat\":\"deepeye\",\"ph\":\"E\",\"ts\":{end_us:.3},\"pid\":1,\"tid\":{}}}",
                escape(span.name),
                span.tid
            ),
        ));
    }
    events.sort_by_key(|(seq, _)| *seq);
    tids.sort_unstable();

    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    let push = |line: String, out: &mut String, first: &mut bool| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(&line);
    };
    push(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"deepeye\"}}"
            .to_owned(),
        &mut out,
        &mut first,
    );
    for tid in tids {
        push(
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"thread-{tid}\"}}}}"
            ),
            &mut out,
            &mut first,
        );
    }
    for (_, line) in events {
        push(line, &mut out, &mut first);
    }
    out.push_str("\n]}\n");
    out
}

/// Summary returned by a successful [`validate_chrome_trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total events, metadata included.
    pub events: usize,
    /// Completed B/E span pairs.
    pub spans: usize,
    /// Maximum nesting depth across threads.
    pub max_depth: usize,
    /// Distinct thread lanes seen on duration events.
    pub threads: usize,
}

/// Validate a Chrome trace-event document: well-formed JSON (bare array
/// or `{"traceEvents": [...]}`), legal `ph` phases, numeric non-negative
/// `ts`/`dur` where required, timestamps non-decreasing per thread, and
/// balanced, name-matched `B`/`E` nesting per thread.
pub fn validate_chrome_trace(text: &str) -> Result<TraceSummary, String> {
    let doc = parse_json(text).map_err(|e| e.to_string())?;
    let events = match &doc {
        Json::Arr(items) => items.as_slice(),
        Json::Obj(_) => doc
            .get("traceEvents")
            .and_then(Json::as_array)
            .ok_or("document has no `traceEvents` array")?,
        _ => return Err("document is neither an event array nor an object".to_owned()),
    };

    let mut stacks: BTreeMap<(u64, u64), Vec<String>> = BTreeMap::new();
    let mut last_ts: BTreeMap<(u64, u64), f64> = BTreeMap::new();
    let mut spans = 0usize;
    let mut max_depth = 0usize;
    for (i, event) in events.iter().enumerate() {
        let fail = |msg: String| Err(format!("event {i}: {msg}"));
        if event.as_object().is_none() {
            return fail("not an object".to_owned());
        }
        let Some(ph) = event.get("ph").and_then(Json::as_str) else {
            return fail("missing `ph`".to_owned());
        };
        if !matches!(ph, "B" | "E" | "X" | "M" | "C" | "I" | "i") {
            return fail(format!("unknown phase {ph:?}"));
        }
        if ph == "M" {
            continue;
        }
        let ts = match event.get("ts").and_then(Json::as_f64) {
            Some(ts) if ts >= 0.0 && ts.is_finite() => ts,
            Some(ts) => return fail(format!("bad ts {ts}")),
            None => return fail("missing numeric `ts`".to_owned()),
        };
        let pid = event.get("pid").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let tid = event.get("tid").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let lane = (pid, tid);
        if let Some(&prev) = last_ts.get(&lane) {
            if ts + 1e-9 < prev {
                return fail(format!("ts {ts} decreases (lane {lane:?}, prev {prev})"));
            }
        }
        last_ts.insert(lane, ts);
        match ph {
            "B" => {
                let Some(name) = event.get("name").and_then(Json::as_str) else {
                    return fail("B event without a name".to_owned());
                };
                let stack = stacks.entry(lane).or_default();
                stack.push(name.to_owned());
                max_depth = max_depth.max(stack.len());
            }
            "E" => {
                let stack = stacks.entry(lane).or_default();
                let Some(open) = stack.pop() else {
                    return fail(format!("E without matching B on lane {lane:?}"));
                };
                if let Some(name) = event.get("name").and_then(Json::as_str) {
                    if name != open {
                        return fail(format!("E name {name:?} closes B name {open:?}"));
                    }
                }
                spans += 1;
            }
            "X" => {
                match event.get("dur").and_then(Json::as_f64) {
                    Some(dur) if dur >= 0.0 && dur.is_finite() => {}
                    _ => return fail("X event without a non-negative `dur`".to_owned()),
                }
                spans += 1;
            }
            _ => {}
        }
    }
    for (lane, stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!("unclosed span {open:?} on lane {lane:?}"));
        }
    }
    let threads = last_ts.len();
    Ok(TraceSummary {
        events: events.len(),
        spans,
        max_depth,
        threads,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Observer;

    #[test]
    fn empty_trace_is_valid() {
        let json = chrome_trace_json(&[]);
        let summary = validate_chrome_trace(&json).expect("valid");
        assert_eq!(summary.spans, 0);
    }

    #[test]
    fn exported_trace_round_trips() {
        let obs = Observer::enabled();
        {
            let _a = obs.span("outer");
            {
                let _b = obs.span("inner");
            }
            {
                let _c = obs.span("inner");
            }
        }
        let json = obs.chrome_trace_json();
        let summary = validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(summary.spans, 3);
        assert_eq!(summary.max_depth, 2);
    }

    #[test]
    fn multithreaded_trace_stays_balanced() {
        let obs = Observer::enabled();
        let stage = obs.span("stage");
        let stage_id = stage.id();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let obs = obs.clone();
                scope.spawn(move || {
                    let _w = obs.span_under("worker", stage_id);
                    let _inner = obs.span("unit");
                });
            }
        });
        drop(stage);
        let summary = validate_chrome_trace(&obs.chrome_trace_json()).expect("valid");
        assert_eq!(summary.spans, 9);
        assert!(summary.threads >= 2, "workers get their own lanes");
    }

    #[test]
    fn rejects_unbalanced_and_malformed() {
        // E without B.
        let bad = r#"[{"ph":"E","ts":1,"pid":1,"tid":1,"name":"x"}]"#;
        assert!(validate_chrome_trace(bad).is_err());
        // Unclosed B.
        let bad = r#"[{"ph":"B","ts":1,"pid":1,"tid":1,"name":"x"}]"#;
        assert!(validate_chrome_trace(bad).is_err());
        // Name mismatch.
        let bad = r#"[{"ph":"B","ts":1,"pid":1,"tid":1,"name":"x"},
                      {"ph":"E","ts":2,"pid":1,"tid":1,"name":"y"}]"#;
        assert!(validate_chrome_trace(bad).is_err());
        // Decreasing timestamps.
        let bad = r#"[{"ph":"B","ts":5,"pid":1,"tid":1,"name":"x"},
                      {"ph":"E","ts":1,"pid":1,"tid":1,"name":"x"}]"#;
        assert!(validate_chrome_trace(bad).is_err());
        // Unknown phase.
        let bad = r#"[{"ph":"Z","ts":1,"pid":1,"tid":1}]"#;
        assert!(validate_chrome_trace(bad).is_err());
        // Missing ts.
        let bad = r#"[{"ph":"B","pid":1,"tid":1,"name":"x"}]"#;
        assert!(validate_chrome_trace(bad).is_err());
        // Not JSON at all.
        assert!(validate_chrome_trace("not json").is_err());
    }

    #[test]
    fn accepts_bare_arrays_and_x_events() {
        let ok = r#"[{"ph":"X","ts":1,"dur":5,"pid":1,"tid":1,"name":"x"}]"#;
        let summary = validate_chrome_trace(ok).expect("valid");
        assert_eq!(summary.spans, 1);
        let bad = r#"[{"ph":"X","ts":1,"pid":1,"tid":1,"name":"x"}]"#;
        assert!(validate_chrome_trace(bad).is_err(), "X needs dur");
    }

    #[test]
    fn zero_duration_nested_spans_balance() {
        // Same-timestamp B/B/E/E must validate: ordering comes from the
        // recorded sequence, not a timestamp sort.
        let obs = Observer::enabled();
        for _ in 0..50 {
            let _a = obs.span("a");
            let _b = obs.span("b");
        }
        validate_chrome_trace(&obs.chrome_trace_json()).expect("balanced");
    }
}
