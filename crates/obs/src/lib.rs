//! # deepeye-obs
//!
//! Lightweight observability for the DeepEye pipeline: hierarchical spans
//! on a monotonic clock, counters, and three exporters — a human-readable
//! per-stage report, a JSON metrics snapshot, and Chrome trace-event JSON
//! loadable in `chrome://tracing` / Perfetto. The span is the one way the
//! program records a duration, and the finished span is the one record
//! of it.
//!
//! Like the other external stand-ins in this workspace (`vendor/*`), the
//! crate is dependency-free: the build environment has no crates.io
//! access, so no `tracing`/`serde` — a small purpose-built layer instead.
//!
//! ## Design
//!
//! The central type is [`Observer`], a cheaply cloneable handle that is
//! either **enabled** (shares an `Arc`'d recorder; clones record into the
//! same sink) or **disabled** (holds nothing). Every recording method on a
//! disabled observer is a single `Option` check — the pipeline carries an
//! observer unconditionally and pays nothing when nobody is listening.
//!
//! Spans are RAII guards: [`Observer::span`] starts one, dropping the
//! guard ends it. A per-thread span stack supplies parents automatically;
//! work shipped to worker threads passes the parent explicitly via
//! [`Observer::span_under`] so cross-thread children merge under the right
//! stage (see `deepeye_core::parallel`, where each `execute.worker` span
//! splits into `execute.charts` and `execute.features`). Time is the one
//! ruler: a stage is broken down by child spans, never by work counts.
//!
//! An enabled observer keeps every finished span as a [`SpanRecord`], and
//! every timing view is computed from those records: the stage report,
//! the metrics snapshot and the bench documents' tail group them by path
//! (count, total, and nearest-rank p50/p95/p99, so each quantile is a
//! duration some span measured), and the trace and flame exporters
//! replay them.
//!
//! ```
//! use deepeye_obs::Observer;
//!
//! let obs = Observer::enabled();
//! {
//!     let _stage = obs.span("pipeline.enumerate");
//!     obs.incr("enumerate.candidates", 42);
//! }
//! for _ in 0..3 {
//!     let _leaf = obs.span("progressive.leaf");
//! }
//! let snapshot = obs.snapshot();
//! assert_eq!(snapshot.counter("enumerate.candidates"), 42);
//! assert_eq!(snapshot.stage("progressive.leaf").map(|s| s.count), Some(3));
//! assert!(obs.stage_report().contains("pipeline.enumerate"));
//! deepeye_obs::validate_chrome_trace(&obs.chrome_trace_json()).unwrap();
//! ```

#![forbid(unsafe_code)]
// The span clock's home: the one crate that reads `std::time::Instant`
// (`clippy.toml` disallows it everywhere else).
#![allow(clippy::disallowed_types)]

pub mod clock;
pub mod flame;
pub mod json;
pub mod metrics;
pub mod observer;
pub mod report;
pub mod trace;

pub use clock::Stopwatch;
pub use flame::{flame_svg, folded_stacks};
pub use json::{parse_json, Json, JsonError};
pub use observer::{Observer, SpanGuard, SpanId, SpanRecord};
pub use report::{
    fmt_duration, nearest_rank, validate_metrics_json, MetricsSummary, Snapshot, StageAgg,
};
pub use trace::{validate_chrome_trace, TraceSummary};
