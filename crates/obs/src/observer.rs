//! The [`Observer`] handle: spans and counters behind a single `Option`
//! check.
//!
//! An enabled observer shares one `Arc`'d recorder between clones — the
//! pipeline stores one in `DeepEyeConfig`, hands clones to worker
//! threads, and every recording lands in the same sink. A disabled
//! observer holds nothing: every method is a branch on `None`, so
//! carrying one through the hot path costs nothing when tracing is off.
//!
//! An enabled observer's record of time is its finished spans: one
//! [`SpanRecord`] per span, pushed when the span closes. Every timing
//! view is computed from those records — the stage report, the metrics
//! snapshot and the flame views group them by path (`span_paths`), the
//! trace exporter replays them — so all of them read the same
//! durations.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Identifier of a recorded span, usable as an explicit parent for spans
/// started on other threads ([`Observer::span_under`]). Ids are unique
/// across observers, so one observer's span never names another's.
pub type SpanId = u64;

/// A finished span as stored by the recorder.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub name: &'static str,
    /// Logical thread id (stable per OS thread, assigned on first use).
    pub tid: u64,
    /// Start offset from the observer's origin, nanoseconds.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Global order of the begin/end moments; the trace exporter replays
    /// these to emit exactly the interleaving that happened, which keeps
    /// B/E events balanced even under timestamp ties.
    pub begin_seq: u64,
    pub end_seq: u64,
}

/// Each span's path, root first: the span's name under its parent's path
/// when the parent's record is present and the parent was open when the
/// span began (`parent.begin_seq < begin_seq < parent.end_seq`), its name
/// alone otherwise. A parent always begins before its child, so the walk
/// in begin order meets every parent first. Records may come in any
/// order; the paths come back in the same order.
pub(crate) fn span_paths(spans: &[SpanRecord]) -> Vec<Vec<&'static str>> {
    let by_id: BTreeMap<SpanId, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    let mut begin_order: Vec<&SpanRecord> = spans.iter().collect();
    begin_order.sort_by_key(|s| s.begin_seq);
    let mut path_of: BTreeMap<SpanId, Vec<&'static str>> = BTreeMap::new();
    for span in begin_order {
        let open_parent = span
            .parent
            .and_then(|p| by_id.get(&p))
            .filter(|p| p.begin_seq < span.begin_seq && span.begin_seq < p.end_seq);
        let mut path = open_parent
            .and_then(|p| path_of.get(&p.id))
            .cloned()
            .unwrap_or_default();
        path.push(span.name);
        path_of.insert(span.id, path);
    }
    spans
        .iter()
        .map(|s| path_of.get(&s.id).cloned().unwrap_or_else(|| vec![s.name]))
        .collect()
}

pub(crate) struct State {
    /// Every finished span, in end order.
    pub spans: Vec<SpanRecord>,
    pub counters: BTreeMap<&'static str, u64>,
}

pub(crate) struct Inner {
    pub(crate) origin: Instant,
    seq: AtomicU64,
    state: Mutex<State>,
}

impl Inner {
    pub(crate) fn lock(&self) -> MutexGuard<'_, State> {
        // A poisoned lock only means a panicking thread held it; the
        // recorder's data is append-only and still usable.
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Stable per-thread id for trace lanes.
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    /// Per-thread stack of open spans: (observer token, span id). The
    /// token distinguishes concurrently live observers so one observer's
    /// spans never become parents of another's.
    static SPAN_STACK: RefCell<Vec<(usize, SpanId)>> = const { RefCell::new(Vec::new()) };
}

fn current_tid() -> u64 {
    TID.with(|t| *t)
}

/// The observability handle. See the crate docs for the overall model.
#[derive(Clone, Default)]
pub struct Observer {
    pub(crate) inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Observer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.inner.is_some() {
            "Observer(enabled)"
        } else {
            "Observer(disabled)"
        })
    }
}

impl Observer {
    /// An observer that records and retains every span. Clones share the
    /// same recorder.
    pub fn enabled() -> Self {
        Observer {
            inner: Some(Arc::new(Inner {
                origin: Instant::now(),
                seq: AtomicU64::new(1),
                state: Mutex::new(State {
                    spans: Vec::new(),
                    counters: BTreeMap::new(),
                }),
            })),
        }
    }

    /// The no-op observer (also `Default`): every method is a single
    /// branch, no allocation, no clock reads.
    pub fn disabled() -> Self {
        Observer { inner: None }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn token(&self) -> usize {
        self.inner
            .as_ref()
            .map(|inner| Arc::as_ptr(inner) as usize)
            .unwrap_or(0)
    }

    /// Innermost open span of this observer on the current thread.
    fn current_span(&self) -> Option<SpanId> {
        self.inner.as_ref().and_then(|_| {
            let token = self.token();
            SPAN_STACK.with(|stack| {
                stack
                    .borrow()
                    .iter()
                    .rev()
                    .find(|(t, _)| *t == token)
                    .map(|&(_, id)| id)
            })
        })
    }

    /// Start a span; it ends when the returned guard drops. The parent is
    /// the innermost open span of this observer on the current thread.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        let parent = self.current_span();
        self.span_under(name, parent)
    }

    /// Start a span under an explicit parent (e.g. a stage span owned by
    /// another thread). `parent: None` makes a root span. The parent must
    /// still be open when the child starts — which RAII guards guarantee
    /// (a guard's id outlives every use of it as a parent); a closed or
    /// unknown parent id, or one from another observer, starts the
    /// child's *path* at the child while the record still carries the raw
    /// parent id for the trace.
    ///
    /// Paths are computed from the finished records, so a view taken
    /// while a span is still open lists that span's finished descendants
    /// from their highest finished ancestor: `stage/worker` reads
    /// `worker` until `stage` closes.
    pub fn span_under(&self, name: &'static str, parent: Option<SpanId>) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard { inner: None };
        };
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let begin_seq = inner.seq.fetch_add(1, Ordering::Relaxed);
        let record = SpanRecord {
            id,
            parent,
            name,
            tid: current_tid(),
            start_ns: inner.origin.elapsed().as_nanos() as u64,
            dur_ns: 0,
            begin_seq,
            end_seq: 0,
        };
        SPAN_STACK.with(|stack| stack.borrow_mut().push((self.token(), id)));
        SpanGuard {
            inner: Some(SpanCtx {
                inner: Arc::clone(inner),
                record,
            }),
        }
    }

    /// Add `by` to a named counter.
    pub fn incr(&self, name: &'static str, by: u64) {
        if let Some(inner) = &self.inner {
            let mut state = inner.lock();
            let slot = state.counters.entry(name).or_insert(0);
            *slot = slot.saturating_add(by);
        }
    }

    /// Current value of a counter (0 if never incremented or disabled).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner
            .as_ref()
            .and_then(|inner| inner.lock().counters.get(name).copied())
            .unwrap_or(0)
    }

    /// Total recorded duration of all finished spans with this name.
    pub fn stage_duration(&self, name: &str) -> Duration {
        Duration::from_nanos(self.stage_sum(name, |s| s.dur_ns))
    }

    /// How many spans with this name have finished (0 when disabled).
    pub fn stage_count(&self, name: &str) -> u64 {
        self.stage_sum(name, |_| 1)
    }

    /// Sum of `field` over the finished spans named `name`.
    fn stage_sum(&self, name: &str, field: impl Fn(&SpanRecord) -> u64) -> u64 {
        let Some(inner) = &self.inner else {
            return 0;
        };
        let state = inner.lock();
        state
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(field)
            .sum()
    }

    /// Duration of one finished span by id (`None` while it is open, when
    /// the id is unknown, or when disabled).
    pub fn span_duration(&self, id: SpanId) -> Option<Duration> {
        let inner = self.inner.as_ref()?;
        inner
            .lock()
            .spans
            .iter()
            .find(|s| s.id == id)
            .map(|s| Duration::from_nanos(s.dur_ns))
    }

    /// All finished spans in begin order (empty when disabled).
    pub fn finished_spans(&self) -> Vec<SpanRecord> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut spans = inner.lock().spans.clone();
        spans.sort_by_key(|s| s.begin_seq);
        spans
    }

    /// Point-in-time aggregate of everything recorded so far, computed
    /// from the finished spans and the counters.
    pub fn snapshot(&self) -> crate::report::Snapshot {
        let Some(inner) = &self.inner else {
            return crate::report::Snapshot::default();
        };
        let state = inner.lock();
        crate::report::Snapshot::build(&state.spans, &state.counters)
    }

    /// Human-readable per-stage report (span tree, counters).
    pub fn stage_report(&self) -> String {
        self.snapshot().stage_report()
    }

    /// JSON metrics snapshot (counters, span aggregates by path).
    pub fn metrics_json(&self) -> String {
        self.snapshot().metrics_json()
    }

    /// Chrome trace-event JSON of the finished spans, loadable in
    /// `chrome://tracing` or Perfetto.
    pub fn chrome_trace_json(&self) -> String {
        crate::trace::chrome_trace_json(&self.finished_spans())
    }
}

struct SpanCtx {
    inner: Arc<Inner>,
    /// The span's record, complete but for its end.
    record: SpanRecord,
}

/// RAII guard for an open span; the span is recorded when this drops.
#[must_use = "a span ends when its guard drops — binding to `_` ends it immediately"]
pub struct SpanGuard {
    inner: Option<SpanCtx>,
}

impl SpanGuard {
    /// Id of this span for use as an explicit cross-thread parent.
    /// `None` when the observer is disabled.
    pub fn id(&self) -> Option<SpanId> {
        self.inner.as_ref().map(|c| c.record.id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(mut ctx) = self.inner.take() else {
            return;
        };
        // End time on the same monotonic origin as the start: begin/end
        // timestamps of successive spans on one thread can then never
        // regress, which the trace validator checks per lane.
        let end_ns = ctx.inner.origin.elapsed().as_nanos() as u64;
        ctx.record.end_seq = ctx.inner.seq.fetch_add(1, Ordering::Relaxed);
        ctx.record.dur_ns = end_ns.saturating_sub(ctx.record.start_ns);
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Usually the top entry; search backwards to stay correct if
            // guards are dropped out of order. Ids are unique across
            // observers, so the id alone finds the entry.
            if let Some(pos) = stack.iter().rposition(|&(_, id)| id == ctx.record.id) {
                stack.remove(pos);
            }
        });
        ctx.inner.lock().spans.push(ctx.record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_observer_records_nothing() {
        let obs = Observer::disabled();
        assert!(!obs.is_enabled());
        {
            let guard = obs.span("never");
            assert_eq!(guard.id(), None);
            obs.incr("c", 5);
        }
        assert_eq!(obs.counter("c"), 0);
        assert!(obs.finished_spans().is_empty());
        let snap = obs.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.stages.is_empty());
    }

    #[test]
    fn default_is_disabled() {
        assert!(!Observer::default().is_enabled());
    }

    #[test]
    fn spans_nest_on_one_thread() {
        let obs = Observer::enabled();
        {
            let outer = obs.span("outer");
            let outer_id = outer.id();
            {
                let _inner = obs.span("inner");
            }
            assert!(outer_id.is_some());
        }
        let spans = obs.finished_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer", "spans come back in begin order");
        let inner = spans.iter().find(|s| s.name == "inner").map(|s| s.parent);
        let outer = spans.iter().find(|s| s.name == "outer").cloned();
        assert_eq!(inner.flatten(), outer.as_ref().map(|s| s.id));
        assert_eq!(outer.and_then(|s| s.parent), None);
    }

    #[test]
    fn sibling_spans_share_a_parent() {
        let obs = Observer::enabled();
        let root = obs.span("root");
        let root_id = root.id();
        {
            let _a = obs.span("a");
        }
        {
            let _b = obs.span("b");
        }
        drop(root);
        let spans = obs.finished_spans();
        for name in ["a", "b"] {
            let s = spans.iter().find(|s| s.name == name);
            assert_eq!(s.and_then(|s| s.parent), root_id, "{name}");
        }
    }

    /// Snapshot paths, each followed by its count.
    fn paths(obs: &Observer) -> Vec<String> {
        let stages = obs.snapshot().stages;
        stages
            .iter()
            .map(|s| format!("{} {}", s.path, s.count))
            .collect()
    }

    /// The parent id a finished span's record carries.
    fn recorded_parent(obs: &Observer, name: &str) -> Option<SpanId> {
        let spans = obs.finished_spans();
        spans.iter().find(|s| s.name == name).and_then(|s| s.parent)
    }

    #[test]
    fn explicit_parent_crosses_threads() {
        let obs = Observer::enabled();
        let stage = obs.span("stage");
        let stage_id = stage.id();
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let obs = obs.clone();
                scope.spawn(move || {
                    let _w = obs.span_under("worker", stage_id);
                    let _f = obs.span("features");
                });
            }
        });
        drop(stage);
        let spans = obs.finished_spans();
        let workers: Vec<_> = spans.iter().filter(|s| s.name == "worker").collect();
        assert_eq!(workers.len(), 3);
        for w in &workers {
            assert_eq!(w.parent, stage_id);
        }
        // Worker spans carry their own thread ids.
        let stage_tid = spans
            .iter()
            .find(|s| s.name == "stage")
            .map(|s| s.tid)
            .unwrap_or(0);
        assert!(workers.iter().all(|w| w.tid != stage_tid));
        assert_eq!(
            paths(&obs),
            ["stage 1", "stage/worker 3", "stage/worker/features 3"]
        );
    }

    #[test]
    fn two_observers_do_not_cross_parent() {
        let a = Observer::enabled();
        let b = Observer::enabled();
        let outer_a = a.span("a.outer");
        let a_id = outer_a.id();
        {
            let _inner_b = b.span("b.inner");
            let _child_b = b.span_under("b.child", a_id);
        }
        drop(outer_a);
        assert_eq!(
            recorded_parent(&b, "b.inner"),
            None,
            "b must not parent under a's span"
        );
        // An explicit parent from another observer is unknown to b: the
        // record keeps the raw id, the path starts at the child.
        assert_eq!(recorded_parent(&b, "b.child"), a_id);
        assert_eq!(paths(&b), ["b.child 1", "b.inner 1"]);
        assert_eq!(paths(&a), ["a.outer 1"]);
    }

    #[test]
    fn closed_or_unknown_parent_starts_the_child_path() {
        let obs = Observer::enabled();
        let closed = obs.span("stage").id();
        {
            let _late = obs.span_under("late", closed);
            let _lost = obs.span_under("lost", Some(u64::MAX));
        }
        assert_eq!(paths(&obs), ["late 1", "lost 1", "stage 1"]);
        assert_eq!(recorded_parent(&obs, "late"), closed, "raw parent id kept");
        assert_eq!(recorded_parent(&obs, "lost"), Some(u64::MAX));
    }

    #[test]
    fn open_ancestor_lists_descendants_from_the_highest_finished_one() {
        let obs = Observer::enabled();
        let stage = obs.span("stage");
        {
            let _w = obs.span("worker");
            let _f = obs.span("features");
        }
        assert_eq!(paths(&obs), ["worker 1", "worker/features 1"]);
        drop(stage);
        assert_eq!(
            paths(&obs),
            ["stage 1", "stage/worker 1", "stage/worker/features 1"]
        );
    }

    #[test]
    fn counters_and_histograms_accumulate() {
        let obs = Observer::enabled();
        obs.incr("n", 2);
        obs.incr("n", 3);
        for ms in [1, 2, 3] {
            let _s = obs.span("lat");
            std::thread::sleep(Duration::from_millis(ms));
        }
        assert_eq!(obs.counter("n"), 5);
        let snap = obs.snapshot();
        let lat = snap.stage("lat").expect("span path aggregated");
        assert_eq!(lat.count, 3);
        assert!(
            lat.total_ns >= 6_000_000,
            "slept ≥ 6ms in all, got {}ns",
            lat.total_ns
        );
        // Nearest rank over three spans: p50 is the second-shortest span
        // (two of them slept ≥ 2ms), p99 the longest (≥ 3ms).
        assert!(lat.p50_ns >= 2_000_000, "p50 {}ns", lat.p50_ns);
        assert!(lat.p99_ns >= 3_000_000, "p99 {}ns", lat.p99_ns);
        assert!(lat.p50_ns <= lat.p95_ns && lat.p95_ns <= lat.p99_ns);
    }

    #[test]
    fn stage_and_span_durations() {
        let obs = Observer::enabled();
        let id = {
            let g = obs.span("stage");
            std::thread::sleep(Duration::from_millis(1));
            g.id()
        };
        assert!(obs.stage_duration("stage") >= Duration::from_millis(1));
        assert_eq!(obs.stage_duration("missing"), Duration::ZERO);
        assert_eq!(
            (obs.stage_count("stage"), obs.stage_count("missing")),
            (1, 0)
        );
        let id = id.expect("enabled span has an id");
        assert!(obs.span_duration(id).expect("finished") >= Duration::from_millis(1));
        assert_eq!(obs.span_duration(u64::MAX), None);
    }

    #[test]
    fn clones_share_the_recorder() {
        let obs = Observer::enabled();
        let clone = obs.clone();
        clone.incr("shared", 7);
        {
            let _s = clone.span("from_clone");
        }
        assert_eq!(obs.counter("shared"), 7);
        assert_eq!(obs.finished_spans().len(), 1);
    }

    #[test]
    fn concurrent_recording_is_complete() {
        let obs = Observer::enabled();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let obs = obs.clone();
                scope.spawn(move || {
                    for _ in 0..100 {
                        obs.incr("ops", 1);
                        let _s = obs.span("op");
                    }
                });
            }
        });
        assert_eq!(obs.counter("ops"), 800);
        assert_eq!(obs.finished_spans().len(), 800);
    }
}
