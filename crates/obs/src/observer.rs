//! The [`Observer`] handle: spans and counters behind a single `Option`
//! check.
//!
//! An enabled observer shares one `Arc`'d recorder between clones — the
//! pipeline stores one in `DeepEyeConfig`, hands clones to worker
//! threads, and every recording lands in the same sink. A disabled
//! observer holds nothing: every method is a branch on `None`, so
//! carrying one through the hot path costs nothing when tracing is off.
//!
//! An enabled observer keeps every finished span in a `Vec<SpanRecord>`
//! for the trace and flame exporters, and folds each one into exact
//! per-path aggregates (count, total, duration histogram) at span close
//! for the stage report and the metrics snapshot.

use crate::hist::Histogram;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Identifier of a recorded span, usable as an explicit parent for spans
/// started on other threads ([`Observer::span_under`]).
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

/// A span that has begun but not yet ended. Registered under the state
/// lock at span start so cross-thread children can resolve their
/// parent's path.
pub(crate) struct OpenSpan {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    pub tid: u64,
    pub start_ns: u64,
    /// Index into [`PathTable::aggs`].
    pub path: u32,
}

/// Exact per-path aggregate, updated at every span close.
pub(crate) struct PathAgg {
    /// Slash-joined root-to-leaf name chain.
    pub path: String,
    pub name: &'static str,
    pub depth: usize,
    pub count: u64,
    pub total_ns: u64,
    /// Span durations at this exact path (per-stage p50/p95/p99).
    pub hist: Histogram,
}

/// Interned span paths: one [`PathAgg`] per distinct root-to-leaf name
/// chain, allocated on first occurrence. Append-only, so indices are
/// stable for the lifetime of the observer.
#[derive(Default)]
pub(crate) struct PathTable {
    ids: BTreeMap<(Option<u32>, &'static str), u32>,
    pub aggs: Vec<PathAgg>,
}

impl PathTable {
    /// Path id for `name` under `parent`, interning on first sight.
    pub(crate) fn intern(&mut self, parent: Option<u32>, name: &'static str) -> u32 {
        if let Some(&id) = self.ids.get(&(parent, name)) {
            return id;
        }
        let (path, depth) = match parent.and_then(|p| self.aggs.get(p as usize)) {
            Some(p) => (format!("{}/{}", p.path, name), p.depth + 1),
            None => (name.to_owned(), 0),
        };
        let id = self.aggs.len() as u32;
        self.aggs.push(PathAgg {
            path,
            name,
            depth,
            count: 0,
            total_ns: 0,
            hist: Histogram::default(),
        });
        self.ids.insert((parent, name), id);
        id
    }
}

pub(crate) struct State {
    /// Every finished span, in end order.
    pub spans: Vec<SpanRecord>,
    pub counters: BTreeMap<&'static str, u64>,
    /// Spans currently open, by id.
    pub open: BTreeMap<SpanId, OpenSpan>,
    /// Exact per-path aggregates.
    pub paths: PathTable,
}

pub(crate) struct Inner {
    pub(crate) origin: Instant,
    next_id: AtomicU64,
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
                next_id: AtomicU64::new(1),
                seq: AtomicU64::new(1),
                state: Mutex::new(State {
                    spans: Vec::new(),
                    counters: BTreeMap::new(),
                    open: BTreeMap::new(),
                    paths: PathTable::default(),
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
    /// unknown parent id roots the child's *path* at the child while the
    /// record still carries the raw parent id for the trace.
    pub fn span_under(&self, name: &'static str, parent: Option<SpanId>) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard { inner: None };
        };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let begin_seq = inner.seq.fetch_add(1, Ordering::Relaxed);
        let token = self.token();
        let tid = current_tid();
        let start_ns = inner.origin.elapsed().as_nanos() as u64;
        {
            let mut state = inner.lock();
            let parent_path = parent.and_then(|p| state.open.get(&p)).map(|o| o.path);
            let path = state.paths.intern(parent_path, name);
            state.open.insert(
                id,
                OpenSpan {
                    name,
                    parent,
                    tid,
                    start_ns,
                    path,
                },
            );
        }
        SPAN_STACK.with(|stack| stack.borrow_mut().push((token, id)));
        SpanGuard {
            inner: Some(SpanCtx {
                inner: Arc::clone(inner),
                token,
                id,
                begin_seq,
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

    /// Total recorded duration of all finished spans with this name,
    /// computed from the path aggregates.
    pub fn stage_duration(&self, name: &str) -> Duration {
        Duration::from_nanos(self.stage_sum(name, |a| a.total_ns))
    }

    /// How many spans with this name have finished (0 when disabled).
    pub fn stage_count(&self, name: &str) -> u64 {
        self.stage_sum(name, |a| a.count)
    }

    /// Sum of one path-aggregate field over every path ending in `name`.
    fn stage_sum(&self, name: &str, field: impl Fn(&PathAgg) -> u64) -> u64 {
        let Some(inner) = &self.inner else {
            return 0;
        };
        let state = inner.lock();
        state
            .paths
            .aggs
            .iter()
            .filter(|a| a.name == name)
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

    /// Point-in-time aggregate of everything recorded so far, built from
    /// the path aggregates.
    pub fn snapshot(&self) -> crate::report::Snapshot {
        let Some(inner) = &self.inner else {
            return crate::report::Snapshot::default();
        };
        let state = inner.lock();
        crate::report::Snapshot::build(&state)
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
    token: usize,
    id: SpanId,
    begin_seq: u64,
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
        self.inner.as_ref().map(|c| c.id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(ctx) = self.inner.take() else { return };
        // End time on the same monotonic origin as the start: begin/end
        // timestamps of successive spans on one thread can then never
        // regress, which the trace validator checks per lane.
        let end_ns = ctx.inner.origin.elapsed().as_nanos() as u64;
        let end_seq = ctx.inner.seq.fetch_add(1, Ordering::Relaxed);
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Usually the top entry; search backwards to stay correct if
            // guards are dropped out of order.
            if let Some(pos) = stack
                .iter()
                .rposition(|&(t, id)| t == ctx.token && id == ctx.id)
            {
                stack.remove(pos);
            }
        });
        let mut state = ctx.inner.lock();
        let Some(open) = state.open.remove(&ctx.id) else {
            return;
        };
        let dur_ns = end_ns.saturating_sub(open.start_ns);
        if let Some(agg) = state.paths.aggs.get_mut(open.path as usize) {
            agg.count += 1;
            agg.total_ns += dur_ns;
            agg.hist.record(dur_ns);
        }
        state.spans.push(SpanRecord {
            id: ctx.id,
            parent: open.parent,
            name: open.name,
            tid: open.tid,
            start_ns: open.start_ns,
            dur_ns,
            begin_seq: ctx.begin_seq,
            end_seq,
        });
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
    }

    #[test]
    fn two_observers_do_not_cross_parent() {
        let a = Observer::enabled();
        let b = Observer::enabled();
        let _outer_a = a.span("a.outer");
        {
            let _inner_b = b.span("b.inner");
        }
        drop(_outer_a);
        let b_spans = b.finished_spans();
        assert_eq!(b_spans.len(), 1);
        assert_eq!(b_spans[0].parent, None, "b must not parent under a's span");
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
        // The path's duration histogram answers p99 from the bucket of the
        // longest span (≥ 3ms), within its log2 resolution.
        assert!(
            lat.p99_ns >= 2_000_000,
            "p99 {}ns below the 3ms sleep's bucket",
            lat.p99_ns
        );
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
        assert_eq!(obs.span_duration(9999), None);
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
