//! Interval telemetry ticks: the `deepeye-telemetry/v1` JSON-lines
//! stream.
//!
//! A long-lived process cannot export one snapshot at exit — operators
//! need *per-interval* numbers: how many queries this tick, what the
//! stage p95 was over the last interval, whether memory is trending up.
//! [`Observer::telemetry_tick`] produces exactly that: the caller holds a
//! [`TelemetryCursor`] (the previous tick's state) and each call emits
//! one JSON line containing only the **deltas** since the last tick —
//! counter increments, per-histogram and per-stage interval p50/p95/p99
//! (via [`Histogram::delta`]), allocation deltas, span-retention
//! accounting, process RSS and user/sys CPU polled from `/proc/self`
//! (zeros off Linux), and any new stall events from the watchdog.
//!
//! The stream is append-only JSON lines so a soak harness can pipe it to
//! disk and a dashboard can tail it. [`validate_telemetry_jsonl`] is the
//! consuming-side mirror (like the metrics/trace/bench validators):
//! schema tag, strictly increasing `seq`, monotone time/CPU/span
//! accounting, quantile ordering, and well-formed stall records.

use crate::hist::Histogram;
use crate::json::{escape, parse_json, Json};
use crate::observer::Observer;
use std::collections::BTreeMap;

/// Schema tag stamped on every telemetry line.
pub const TELEMETRY_SCHEMA: &str = "deepeye-telemetry/v1";

/// Every JSON field name a telemetry line may carry, for the doc-sync
/// and analyze-rule checks (A0013): each must appear in DESIGN.md §10.
pub const TELEMETRY_FIELDS: &[&str] = &[
    "schema",
    "seq",
    "t_ns",
    "interval_ns",
    "counters",
    "hists",
    "stages",
    "alloc",
    "spans",
    "proc",
    "stalls",
    "count",
    "total_ns",
    "p50_ns",
    "p95_ns",
    "p99_ns",
    "bytes",
    "finished",
    "retained",
    "dropped",
    "capacity",
    "rss_bytes",
    "cpu_user_ticks",
    "cpu_sys_ticks",
    "name",
    "tid",
    "open_ns",
    "budget_ns",
    "stack",
];

/// Process resource usage polled from `/proc/self` (all zeros when the
/// files are unavailable, e.g. off Linux).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcStats {
    /// Resident set size, bytes (`VmRSS` from `/proc/self/status`).
    pub rss_bytes: u64,
    /// Cumulative user-mode CPU, clock ticks (`utime`).
    pub cpu_user_ticks: u64,
    /// Cumulative kernel-mode CPU, clock ticks (`stime`).
    pub cpu_sys_ticks: u64,
}

/// Poll current process stats. Raw clock ticks are reported as-is (the
/// consumer only needs trends, not seconds).
pub fn proc_stats() -> ProcStats {
    let rss_bytes = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<u64>().ok())
        })
        .map(|kb| kb * 1024)
        .unwrap_or(0);
    let (cpu_user_ticks, cpu_sys_ticks) = std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|text| parse_proc_stat(&text))
        .unwrap_or((0, 0));
    ProcStats {
        rss_bytes,
        cpu_user_ticks,
        cpu_sys_ticks,
    }
}

/// Extract `(utime, stime)` from `/proc/self/stat` content. The comm
/// field may itself contain spaces and parentheses, so fields are
/// counted after the *last* `)`: state is field 0, utime/stime are
/// fields 11/12.
fn parse_proc_stat(text: &str) -> Option<(u64, u64)> {
    let (_, rest) = text.rsplit_once(')')?;
    let mut fields = rest.split_whitespace().skip(11);
    let utime = fields.next()?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some((utime, stime))
}

/// Per-stage state remembered between ticks (parallel to the observer's
/// append-only path table, so plain indexing by position is stable).
#[derive(Debug, Clone)]
struct StagePrev {
    count: u64,
    total_ns: u64,
    hist: Histogram,
}

/// The caller-held diffing state for [`Observer::telemetry_tick`]: the
/// previous tick's counters, histograms, stage aggregates, allocation
/// totals, and how many stall events were already streamed. Start from
/// `TelemetryCursor::default()` and pass the same cursor to every tick.
#[derive(Debug, Default)]
pub struct TelemetryCursor {
    seq: u64,
    last_t_ns: u64,
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Histogram>,
    stages: Vec<StagePrev>,
    alloc_count: u64,
    alloc_bytes: u64,
    stalls_seen: usize,
    last_proc: ProcStats,
}

impl TelemetryCursor {
    /// Ticks emitted through this cursor so far.
    pub fn ticks(&self) -> u64 {
        self.seq
    }
}

impl Observer {
    /// Emit one telemetry line: the deltas since `cursor`'s previous
    /// tick, then advance the cursor. Runs the stall watchdog first so
    /// fresh stalls ride the same line. Returns `None` when disabled.
    pub fn telemetry_tick(&self, cursor: &mut TelemetryCursor) -> Option<String> {
        let inner = self.inner.as_ref()?;
        self.check_stalls();
        let proc = proc_stats();
        // CPU counters must never regress in the stream even if the
        // kernel briefly reports stale values.
        let proc = ProcStats {
            rss_bytes: proc.rss_bytes,
            cpu_user_ticks: proc.cpu_user_ticks.max(cursor.last_proc.cpu_user_ticks),
            cpu_sys_ticks: proc.cpu_sys_ticks.max(cursor.last_proc.cpu_sys_ticks),
        };
        let t_ns = inner.origin.elapsed().as_nanos() as u64;
        let interval_ns = t_ns.saturating_sub(cursor.last_t_ns);
        let mut state = inner.lock();
        let ticks = state.counters.entry("telemetry.ticks").or_insert(0);
        *ticks = ticks.saturating_add(1);

        let mut counter_parts: Vec<String> = Vec::new();
        for (&name, &value) in &state.counters {
            let prev = cursor.counters.get(name).copied().unwrap_or(0);
            let d = value.saturating_sub(prev);
            if d > 0 {
                counter_parts.push(format!("\"{}\":{d}", escape(name)));
            }
        }

        let empty = Histogram::default();
        let mut hist_parts: Vec<String> = Vec::new();
        for (&name, hist) in &state.hists {
            let prev = cursor.hists.get(name).unwrap_or(&empty);
            let d = hist.delta(prev);
            if d.count() == 0 {
                continue;
            }
            hist_parts.push(format!(
                "\"{}\":{{\"count\":{},\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{}}}",
                escape(name),
                d.count(),
                d.quantile(0.5),
                d.quantile(0.95),
                d.quantile(0.99)
            ));
        }

        let mut stage_parts: Vec<String> = Vec::new();
        let mut alloc_count = 0u64;
        let mut alloc_bytes = 0u64;
        for (i, agg) in state.paths.aggs.iter().enumerate() {
            alloc_count += agg.alloc.count;
            alloc_bytes += agg.alloc.bytes;
            let prev = cursor.stages.get(i);
            let (prev_count, prev_total) = prev.map(|p| (p.count, p.total_ns)).unwrap_or((0, 0));
            if agg.count <= prev_count {
                continue;
            }
            let d = match prev {
                Some(p) => agg.hist.delta(&p.hist),
                None => agg.hist.clone(),
            };
            stage_parts.push(format!(
                "\"{}\":{{\"count\":{},\"total_ns\":{},\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{}}}",
                escape(&agg.path),
                agg.count - prev_count,
                agg.total_ns.saturating_sub(prev_total),
                d.quantile(0.5),
                d.quantile(0.95),
                d.quantile(0.99)
            ));
        }
        let alloc_dc = alloc_count.saturating_sub(cursor.alloc_count);
        let alloc_db = alloc_bytes.saturating_sub(cursor.alloc_bytes);

        let ring = state.ring.stats();

        let mut stall_parts: Vec<String> = Vec::new();
        for event in state.stalls.iter().skip(cursor.stalls_seen) {
            let stack = event
                .stack
                .iter()
                .map(|n| format!("\"{}\"", escape(n)))
                .collect::<Vec<_>>()
                .join(",");
            stall_parts.push(format!(
                "{{\"name\":\"{}\",\"tid\":{},\"open_ns\":{},\"budget_ns\":{},\"stack\":[{stack}]}}",
                escape(event.name),
                event.tid,
                event.open_ns,
                event.budget_ns
            ));
        }

        cursor.seq += 1;
        cursor.last_t_ns = t_ns;
        cursor.counters = state.counters.clone();
        cursor.hists = state.hists.clone();
        cursor.stages = state
            .paths
            .aggs
            .iter()
            .map(|a| StagePrev {
                count: a.count,
                total_ns: a.total_ns,
                hist: a.hist.clone(),
            })
            .collect();
        cursor.alloc_count = alloc_count;
        cursor.alloc_bytes = alloc_bytes;
        cursor.stalls_seen = state.stalls.len();
        cursor.last_proc = proc;

        let line = format!(
            "{{\"schema\":\"{TELEMETRY_SCHEMA}\",\"seq\":{},\"t_ns\":{t_ns},\
             \"interval_ns\":{interval_ns},\"counters\":{{{}}},\"hists\":{{{}}},\
             \"stages\":{{{}}},\"alloc\":{{\"count\":{alloc_dc},\"bytes\":{alloc_db}}},\
             \"spans\":{{\"finished\":{},\"retained\":{},\"dropped\":{},\"capacity\":{}}},\
             \"proc\":{{\"rss_bytes\":{},\"cpu_user_ticks\":{},\"cpu_sys_ticks\":{}}},\
             \"stalls\":[{}]}}\n",
            cursor.seq,
            counter_parts.join(","),
            hist_parts.join(","),
            stage_parts.join(","),
            ring.finished,
            ring.retained,
            ring.dropped,
            ring.capacity,
            proc.rss_bytes,
            proc.cpu_user_ticks,
            proc.cpu_sys_ticks,
            stall_parts.join(",")
        );

        // Feed the tick straight into the health engine when one is
        // attached (see `Observer::with_health`): the engine sees
        // exactly the bytes the stream consumer will, so online
        // verdicts and offline replay agree. The bookkeeping counters
        // land on the *next* tick's deltas (the cursor snapshot above
        // already closed this interval).
        let ingest = state
            .health
            .as_mut()
            .map(|engine| engine.ingest_line(&line));
        match ingest {
            Some(Ok(())) => {
                let slot = state.counters.entry("health.ticks").or_insert(0);
                *slot = slot.saturating_add(1);
            }
            Some(Err(_)) => {
                let slot = state.counters.entry("health.ingest_errors").or_insert(0);
                *slot = slot.saturating_add(1);
            }
            None => {}
        }
        Some(line)
    }
}

/// Summary returned by a successful [`validate_telemetry_jsonl`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetrySummary {
    /// Lines (ticks) in the stream.
    pub ticks: usize,
    /// Stall events across all ticks.
    pub stalls: usize,
    /// Largest retained-span count seen.
    pub max_retained: u64,
    /// Final cumulative dropped-span count.
    pub dropped: u64,
    /// Capacity stamped on the final tick (0 = unbounded).
    pub capacity: u64,
}

fn req_u64(obj: &Json, key: &str, what: &str) -> Result<u64, String> {
    let v = obj
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{what} missing numeric `{key}`"))?;
    if v < 0.0 || v.fract() != 0.0 {
        return Err(format!("{what}.{key} = {v} is not a non-negative integer"));
    }
    Ok(v as u64)
}

fn check_quantiles(obj: &Json, what: &str) -> Result<(), String> {
    let p50 = req_u64(obj, "p50_ns", what)?;
    let p95 = req_u64(obj, "p95_ns", what)?;
    let p99 = req_u64(obj, "p99_ns", what)?;
    if !(p50 <= p95 && p95 <= p99) {
        return Err(format!(
            "{what} quantiles not monotonic: p50 {p50} p95 {p95} p99 {p99}"
        ));
    }
    Ok(())
}

/// Validate a `deepeye-telemetry/v1` JSON-lines stream: every line must
/// carry the schema tag, `seq` must strictly increase, `t_ns` and the
/// cumulative span/CPU accounting must be monotone, `retained` must
/// never exceed a nonzero `capacity`, `finished == retained + dropped`
/// on every tick, interval quantiles must be ordered, and stall records
/// must be well-formed (`open_ns > budget_ns`, stack ends at the stalled
/// span). Blank lines are ignored; an empty stream is an error.
pub fn validate_telemetry_jsonl(text: &str) -> Result<TelemetrySummary, String> {
    let mut ticks = 0usize;
    let mut stalls = 0usize;
    let mut max_retained = 0u64;
    let mut last_dropped = 0u64;
    let mut last_capacity = 0u64;
    let mut prev_seq: Option<u64> = None;
    let mut prev_t = 0u64;
    let mut prev_finished = 0u64;
    let mut prev_user = 0u64;
    let mut prev_sys = 0u64;
    // Cross-line invariant failures cite both ends: the failing line
    // number rides the `fail` prefix, and this remembers where the
    // compared-against value came from.
    let mut prev_line = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let n = lineno + 1;
        let doc = parse_json(line).map_err(|e| format!("line {n}: {e}"))?;
        let fail = |msg: String| Err(format!("line {n}: {msg}"));
        match doc.get("schema").and_then(Json::as_str) {
            Some(TELEMETRY_SCHEMA) => {}
            Some(other) => return fail(format!("unexpected schema {other:?}")),
            None => return fail("missing `schema`".to_owned()),
        }
        let seq = req_u64(&doc, "seq", "tick").map_err(|e| format!("line {n}: {e}"))?;
        if let Some(p) = prev_seq {
            if seq <= p {
                return fail(format!(
                    "`seq` {seq} does not increase past {p} (line {prev_line})"
                ));
            }
        }
        prev_seq = Some(seq);
        let t_ns = req_u64(&doc, "t_ns", "tick").map_err(|e| format!("line {n}: {e}"))?;
        if t_ns < prev_t {
            return fail(format!(
                "`t_ns` {t_ns} regresses below {prev_t} (line {prev_line})"
            ));
        }
        prev_t = t_ns;
        let interval =
            req_u64(&doc, "interval_ns", "tick").map_err(|e| format!("line {n}: {e}"))?;
        if interval > t_ns {
            return fail(format!("interval_ns {interval} exceeds t_ns {t_ns}"));
        }
        let counters = doc
            .get("counters")
            .and_then(Json::as_object)
            .ok_or_else(|| format!("line {n}: missing `counters` object"))?;
        for (name, v) in counters {
            match v.as_f64() {
                Some(x) if x >= 0.0 && x.fract() == 0.0 => {}
                _ => return fail(format!("counter `{name}` is not a non-negative integer")),
            }
        }
        let hists = doc
            .get("hists")
            .and_then(Json::as_object)
            .ok_or_else(|| format!("line {n}: missing `hists` object"))?;
        for (name, h) in hists {
            let count = req_u64(h, "count", &format!("hist `{name}`"))
                .map_err(|e| format!("line {n}: {e}"))?;
            if count == 0 {
                return fail(format!("hist `{name}` has zero interval count"));
            }
            check_quantiles(h, &format!("hist `{name}`")).map_err(|e| format!("line {n}: {e}"))?;
        }
        let stages = doc
            .get("stages")
            .and_then(Json::as_object)
            .ok_or_else(|| format!("line {n}: missing `stages` object"))?;
        for (path, s) in stages {
            let count = req_u64(s, "count", &format!("stage `{path}`"))
                .map_err(|e| format!("line {n}: {e}"))?;
            if count == 0 {
                return fail(format!("stage `{path}` has zero interval count"));
            }
            req_u64(s, "total_ns", &format!("stage `{path}`"))
                .map_err(|e| format!("line {n}: {e}"))?;
            check_quantiles(s, &format!("stage `{path}`")).map_err(|e| format!("line {n}: {e}"))?;
        }
        let alloc = doc
            .get("alloc")
            .ok_or_else(|| format!("line {n}: missing `alloc`"))?;
        let a_count = req_u64(alloc, "count", "alloc").map_err(|e| format!("line {n}: {e}"))?;
        let a_bytes = req_u64(alloc, "bytes", "alloc").map_err(|e| format!("line {n}: {e}"))?;
        if a_count == 0 && a_bytes > 0 {
            return fail(format!("alloc has {a_bytes} bytes but zero events"));
        }
        let spans = doc
            .get("spans")
            .ok_or_else(|| format!("line {n}: missing `spans`"))?;
        let finished = req_u64(spans, "finished", "spans").map_err(|e| format!("line {n}: {e}"))?;
        let retained = req_u64(spans, "retained", "spans").map_err(|e| format!("line {n}: {e}"))?;
        let dropped = req_u64(spans, "dropped", "spans").map_err(|e| format!("line {n}: {e}"))?;
        let capacity = req_u64(spans, "capacity", "spans").map_err(|e| format!("line {n}: {e}"))?;
        if retained + dropped != finished {
            return fail(format!(
                "span accounting broken: retained {retained} + dropped {dropped} != finished {finished}"
            ));
        }
        if capacity > 0 && retained > capacity {
            return fail(format!("retained {retained} exceeds capacity {capacity}"));
        }
        if finished < prev_finished {
            return fail(format!(
                "`spans.finished` {finished} regresses below {prev_finished} (line {prev_line})"
            ));
        }
        prev_finished = finished;
        if dropped < last_dropped {
            return fail(format!(
                "`spans.dropped` {dropped} regresses below {last_dropped} (line {prev_line})"
            ));
        }
        last_dropped = dropped;
        last_capacity = capacity;
        max_retained = max_retained.max(retained);
        let proc = doc
            .get("proc")
            .ok_or_else(|| format!("line {n}: missing `proc`"))?;
        req_u64(proc, "rss_bytes", "proc").map_err(|e| format!("line {n}: {e}"))?;
        let user = req_u64(proc, "cpu_user_ticks", "proc").map_err(|e| format!("line {n}: {e}"))?;
        let sys = req_u64(proc, "cpu_sys_ticks", "proc").map_err(|e| format!("line {n}: {e}"))?;
        if user < prev_user {
            return fail(format!(
                "`proc.cpu_user_ticks` {user} regresses below {prev_user} (line {prev_line})"
            ));
        }
        if sys < prev_sys {
            return fail(format!(
                "`proc.cpu_sys_ticks` {sys} regresses below {prev_sys} (line {prev_line})"
            ));
        }
        prev_user = user;
        prev_sys = sys;
        let stall_arr = doc
            .get("stalls")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("line {n}: missing `stalls` array"))?;
        for (k, stall) in stall_arr.iter().enumerate() {
            let what = format!("stall {k}");
            let name = stall
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("line {n}: {what} missing `name`"))?;
            req_u64(stall, "tid", &what).map_err(|e| format!("line {n}: {e}"))?;
            let open_ns = req_u64(stall, "open_ns", &what).map_err(|e| format!("line {n}: {e}"))?;
            let budget_ns =
                req_u64(stall, "budget_ns", &what).map_err(|e| format!("line {n}: {e}"))?;
            if open_ns <= budget_ns {
                return fail(format!(
                    "{what} open_ns {open_ns} within budget {budget_ns} is not a stall"
                ));
            }
            let stack = stall
                .get("stack")
                .and_then(Json::as_array)
                .ok_or_else(|| format!("line {n}: {what} missing `stack` array"))?;
            let leaf = stack.last().and_then(Json::as_str);
            if leaf != Some(name) {
                return fail(format!("{what} stack does not end at {name:?}"));
            }
        }
        stalls += stall_arr.len();
        ticks += 1;
        prev_line = n;
    }
    if ticks == 0 {
        return Err("telemetry stream contains no ticks".to_owned());
    }
    Ok(TelemetrySummary {
        ticks,
        stalls,
        max_retained,
        dropped: last_dropped,
        capacity: last_capacity,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::RecorderConfig;
    use crate::watchdog::StallBudget;

    #[test]
    fn disabled_observer_ticks_nothing() {
        let obs = Observer::disabled();
        let mut cursor = TelemetryCursor::default();
        assert_eq!(obs.telemetry_tick(&mut cursor), None);
        assert_eq!(cursor.ticks(), 0);
    }

    #[test]
    fn ticks_carry_only_interval_deltas() {
        let obs = Observer::with_recorder(RecorderConfig::bounded(8));
        let mut cursor = TelemetryCursor::default();
        obs.incr("exec.ok", 5);
        obs.record_many_ns("exec.query_ns", &[100, 200]);
        {
            let _s = obs.span("stage");
        }
        let line1 = obs.telemetry_tick(&mut cursor).expect("enabled");
        let doc = parse_json(line1.trim()).expect("valid JSON line");
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("exec.ok"))
                .and_then(Json::as_f64),
            Some(5.0)
        );
        assert_eq!(
            doc.get("hists")
                .and_then(|h| h.get("exec.query_ns"))
                .and_then(|h| h.get("count"))
                .and_then(Json::as_f64),
            Some(2.0)
        );
        assert_eq!(
            doc.get("stages")
                .and_then(|s| s.get("stage"))
                .and_then(|s| s.get("count"))
                .and_then(Json::as_f64),
            Some(1.0)
        );

        // Second interval: 3 more oks, nothing else.
        obs.incr("exec.ok", 3);
        let line2 = obs.telemetry_tick(&mut cursor).expect("enabled");
        let doc2 = parse_json(line2.trim()).expect("valid");
        assert_eq!(
            doc2.get("counters")
                .and_then(|c| c.get("exec.ok"))
                .and_then(Json::as_f64),
            Some(3.0),
            "delta, not cumulative"
        );
        assert!(
            doc2.get("hists")
                .and_then(|h| h.get("exec.query_ns"))
                .is_none(),
            "quiet histogram omitted"
        );
        assert!(
            doc2.get("stages").and_then(|s| s.get("stage")).is_none(),
            "quiet stage omitted"
        );
        assert_eq!(cursor.ticks(), 2);

        let stream = format!("{line1}{line2}");
        let summary = validate_telemetry_jsonl(&stream).expect("valid stream");
        assert_eq!(summary.ticks, 2);
        assert_eq!(summary.stalls, 0);
    }

    #[test]
    fn single_sample_interval_has_degenerate_ordered_quantiles() {
        let obs = Observer::with_recorder(RecorderConfig::bounded(8));
        let mut cursor = TelemetryCursor::default();
        obs.record_ns("exec.query_ns", 1234);
        let line = obs.telemetry_tick(&mut cursor).expect("enabled");
        let doc = parse_json(line.trim()).expect("valid");
        let hist = doc
            .get("hists")
            .and_then(|h| h.get("exec.query_ns"))
            .expect("hist present");
        let q = |k: &str| hist.get(k).and_then(Json::as_f64).expect("numeric");
        assert_eq!(q("count"), 1.0);
        // One sample: every quantile collapses to the same bucket bound.
        assert_eq!(q("p50_ns"), q("p95_ns"));
        assert_eq!(q("p95_ns"), q("p99_ns"));
        validate_telemetry_jsonl(&line).expect("degenerate quantiles still validate");
    }

    #[test]
    fn multi_sample_interval_quantiles_are_ordered() {
        let obs = Observer::with_recorder(RecorderConfig::bounded(8));
        let mut cursor = TelemetryCursor::default();
        // A wide spread across log2 buckets so the quantiles differ.
        obs.record_many_ns("exec.query_ns", &[10, 100, 1_000, 100_000, 50_000_000]);
        let line = obs.telemetry_tick(&mut cursor).expect("enabled");
        let doc = parse_json(line.trim()).expect("valid");
        let hist = doc
            .get("hists")
            .and_then(|h| h.get("exec.query_ns"))
            .expect("hist present");
        let q = |k: &str| hist.get(k).and_then(Json::as_f64).expect("numeric");
        assert!(q("p50_ns") <= q("p95_ns"));
        assert!(q("p95_ns") <= q("p99_ns"));
        validate_telemetry_jsonl(&line).expect("ordered quantiles validate");
    }

    #[test]
    fn saturated_counters_delta_to_zero_not_underflow() {
        let obs = Observer::with_recorder(RecorderConfig::bounded(8));
        let mut cursor = TelemetryCursor::default();
        obs.incr("exec.ok", u64::MAX);
        let line1 = obs.telemetry_tick(&mut cursor).expect("enabled");
        let doc1 = parse_json(line1.trim()).expect("valid");
        assert_eq!(
            doc1.get("counters")
                .and_then(|c| c.get("exec.ok"))
                .and_then(Json::as_f64),
            Some(u64::MAX as f64)
        );
        // The counter is already saturated; another huge increment
        // cannot move it, so the next interval must report no delta
        // rather than wrap.
        obs.incr("exec.ok", u64::MAX);
        obs.incr("exec.err", 1);
        let line2 = obs.telemetry_tick(&mut cursor).expect("enabled");
        let doc2 = parse_json(line2.trim()).expect("valid");
        assert!(
            doc2.get("counters")
                .and_then(|c| c.get("exec.ok"))
                .is_none(),
            "saturated counter has no interval delta"
        );
        assert_eq!(
            doc2.get("counters")
                .and_then(|c| c.get("exec.err"))
                .and_then(Json::as_f64),
            Some(1.0)
        );
        let stream = format!("{line1}{line2}");
        validate_telemetry_jsonl(&stream).expect("saturated stream validates");
        // The health engine accepts the saturated sample as a finite f64.
        let mut engine = crate::health::HealthEngine::new(crate::health::HealthConfig::default());
        for line in stream.lines() {
            engine.ingest_line(line).expect("tick ingests");
        }
        assert_eq!(engine.ticks(), 2);
    }

    #[test]
    fn stream_reports_drops_and_stalls() {
        let obs =
            Observer::with_recorder(RecorderConfig::bounded(2).with_budgets(vec![StallBudget {
                span: "slow",
                max_open_ns: 1,
            }]));
        let mut cursor = TelemetryCursor::default();
        for _ in 0..10 {
            let _s = obs.span("fast");
        }
        let slow = obs.span("slow");
        std::thread::sleep(std::time::Duration::from_millis(1));
        let line = obs.telemetry_tick(&mut cursor).expect("enabled");
        drop(slow);
        let summary = validate_telemetry_jsonl(&line).expect("valid");
        assert_eq!(summary.ticks, 1);
        assert_eq!(summary.stalls, 1, "watchdog event rides the tick");
        assert_eq!(summary.max_retained, 2);
        assert_eq!(summary.dropped, 8);
        assert_eq!(summary.capacity, 2);
        let doc = parse_json(line.trim()).expect("valid");
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("obs.spans_dropped"))
                .and_then(Json::as_f64),
            Some(8.0)
        );
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("obs.stall"))
                .and_then(Json::as_f64),
            Some(1.0)
        );
    }

    #[test]
    fn proc_stats_are_sane() {
        let p = proc_stats();
        // On Linux (the CI environment) a live process has nonzero RSS;
        // elsewhere everything is zero. Either way nothing panics.
        if p.rss_bytes > 0 {
            assert!(p.rss_bytes > 4096, "RSS should be at least a page");
        }
        assert_eq!(
            parse_proc_stat("123 (a b) c 1 2 3 4 5 6 7 8 9 10 40 50 12"),
            Some((40, 50))
        );
        assert_eq!(parse_proc_stat("garbage"), None);
    }

    #[test]
    fn validator_rejects_malformed_streams() {
        assert!(validate_telemetry_jsonl("").is_err(), "empty stream");
        assert!(validate_telemetry_jsonl("not json").is_err());
        let obs = Observer::with_recorder(RecorderConfig::bounded(8));
        let mut cursor = TelemetryCursor::default();
        {
            let _s = obs.span("stage");
        }
        let line = obs.telemetry_tick(&mut cursor).expect("enabled");
        // Wrong schema tag.
        let bad = line.replace("deepeye-telemetry/v1", "deepeye-telemetry/v0");
        assert!(validate_telemetry_jsonl(&bad)
            .unwrap_err()
            .contains("schema"));
        // Repeated seq: duplicate the line verbatim. The error names
        // the failing field, the failing line, and the compared line.
        let dup = format!("{line}{line}");
        let err = validate_telemetry_jsonl(&dup).unwrap_err();
        assert!(err.contains("seq"));
        assert!(
            err.contains("line 2") && err.contains("(line 1)"),
            "cross-line error cites both lines: {err}"
        );
        // Broken span accounting.
        let bad = line.replace("\"finished\":1", "\"finished\":5");
        assert!(validate_telemetry_jsonl(&bad)
            .unwrap_err()
            .contains("accounting"));
    }

    #[test]
    fn cross_line_regressions_name_the_metric() {
        let obs = Observer::with_recorder(RecorderConfig::bounded(8));
        let mut cursor = TelemetryCursor::default();
        {
            let _s = obs.span("stage");
        }
        let line1 = obs.telemetry_tick(&mut cursor).expect("enabled");
        {
            let _s = obs.span("stage");
        }
        let line2 = obs.telemetry_tick(&mut cursor).expect("enabled");
        // Force the second tick's finished count below the first's
        // (retained too, so the within-line accounting still balances).
        let tampered = line2.replace(
            "\"finished\":2,\"retained\":2",
            "\"finished\":0,\"retained\":0",
        );
        let err = validate_telemetry_jsonl(&format!("{line1}{tampered}")).unwrap_err();
        assert!(
            err.contains("spans.finished") && err.contains("line 2") && err.contains("(line 1)"),
            "regression error names metric and both lines: {err}"
        );
    }

    #[test]
    fn with_health_ingests_every_tick() {
        let obs = Observer::with_health(
            RecorderConfig::bounded(8),
            crate::health::HealthConfig::default(),
        );
        let mut cursor = TelemetryCursor::default();
        for _ in 0..3 {
            {
                let _s = obs.span("stage");
            }
            obs.telemetry_tick(&mut cursor).expect("enabled");
        }
        assert_eq!(obs.counter("health.ticks"), 3);
        assert_eq!(obs.counter("health.ingest_errors"), 0);
        let doc = obs.health_report().expect("engine attached");
        let summary = crate::health::validate_health_json(&doc).expect("valid document");
        assert_eq!(summary.ticks, 3);
        assert_eq!(obs.counter("health.evaluations"), 1);
        let snapshot = obs.health_snapshot().expect("engine attached");
        assert_eq!(snapshot.ticks, 3);
        // A plain recorder has no engine and records no health metrics.
        let plain = Observer::with_recorder(RecorderConfig::bounded(8));
        assert!(plain.health_report().is_none());
        assert!(plain.health_verdicts().is_empty());
        assert_eq!(plain.counter("health.ticks"), 0);
    }
}
