//! Folded-stack and SVG flame-view export of a span tree.
//!
//! Two renderings of "where did the time go", both over the span paths
//! the stage report groups by (`observer::span_paths`: a span sits under
//! its parent when the parent's record is present and was open when the
//! span began):
//!
//! * [`folded_stacks`] emits the `frame;frame;frame <ns>` lines the
//!   flamegraph toolchain (`flamegraph.pl`, speedscope, inferno)
//!   consumes. Each line carries a stack's **self** time — its spans'
//!   duration minus the duration of their direct children — so the sum
//!   over a root's lines reconstructs that root's wall time (and can
//!   exceed it when children ran concurrently on worker threads; the
//!   clamp only ever rounds negative self-time up to zero).
//! * [`flame_svg`] renders a self-contained icicle view (no scripts, no
//!   external assets) for a quick look without leaving the terminal's
//!   `open` command.
//!
//! Both take the observer's finished [`SpanRecord`]s, as the trace
//! exporter does.

use crate::observer::{span_paths, SpanRecord};
use std::collections::BTreeMap;

/// Render spans as folded stacks: one `path;to;frame <self_ns>` line per
/// distinct stack, sorted by path. Empty input renders an empty string.
pub fn folded_stacks(spans: &[SpanRecord]) -> String {
    // Self time = own duration minus direct children's durations.
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            *child_ns.entry(parent).or_insert(0) += span.dur_ns;
        }
    }
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    for (span, path) in spans.iter().zip(span_paths(spans)) {
        let self_ns = span
            .dur_ns
            .saturating_sub(child_ns.get(&span.id).copied().unwrap_or(0));
        *folded.entry(path.join(";")).or_insert(0) += self_ns;
    }
    let mut out = String::new();
    for (path, ns) in folded {
        out.push_str(&path);
        out.push(' ');
        out.push_str(&ns.to_string());
        out.push('\n');
    }
    out
}

/// Aggregated frame tree for the SVG layout.
#[derive(Default)]
struct Frame {
    /// Inclusive time of spans at exactly this path.
    own_ns: u64,
    children: BTreeMap<String, Frame>,
}

impl Frame {
    /// Inclusive display time: at least the children's total, so frames
    /// whose own span is still open at export time still get width.
    fn incl_ns(&self) -> u64 {
        self.own_ns
            .max(self.children.values().map(Frame::incl_ns).sum())
    }
}

const SVG_WIDTH: f64 = 1200.0;
const ROW_H: f64 = 18.0;

/// Deterministic warm palette from the frame name.
fn frame_color(name: &str) -> String {
    let mut hash: u32 = 2_166_136_261;
    for b in name.bytes() {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(16_777_619);
    }
    let r = 205 + (hash % 50);
    let g = 80 + ((hash >> 8) % 110);
    let b = 30 + ((hash >> 16) % 40);
    format!("rgb({r},{g},{b})")
}

fn depth_of(frame: &Frame) -> usize {
    1 + frame.children.values().map(depth_of).max().unwrap_or(0)
}

fn render_frame(
    name: &str,
    frame: &Frame,
    x: f64,
    width: f64,
    depth: usize,
    total_ns: u64,
    out: &mut String,
) {
    let y = ROW_H * depth as f64;
    let pct = if total_ns == 0 {
        0.0
    } else {
        100.0 * frame.incl_ns() as f64 / total_ns as f64
    };
    out.push_str(&format!(
        "<g><title>{} — {} ({pct:.1}%)</title>\
         <rect x=\"{x:.2}\" y=\"{y:.1}\" width=\"{width:.2}\" height=\"{:.1}\" \
         fill=\"{}\" stroke=\"white\" stroke-width=\"0.5\"/>",
        escape_xml(name),
        crate::report::fmt_duration(frame.incl_ns()),
        ROW_H - 1.0,
        frame_color(name),
    ));
    // Label only when it plausibly fits (~6.5px per character).
    if width >= 6.5 * name.len() as f64 {
        out.push_str(&format!(
            "<text x=\"{:.2}\" y=\"{:.1}\" font-size=\"11\" font-family=\"monospace\" \
             fill=\"black\">{}</text>",
            x + 3.0,
            y + ROW_H - 5.0,
            escape_xml(name),
        ));
    }
    out.push_str("</g>\n");
    let child_total: u64 = frame.children.values().map(Frame::incl_ns).sum();
    if child_total == 0 {
        return;
    }
    // Children share the parent's width proportionally; a concurrency
    // overshoot (children > parent) compresses rather than overflows.
    let scale = width / child_total.max(frame.incl_ns()) as f64;
    let mut cx = x;
    for (child_name, child) in &frame.children {
        let w = child.incl_ns() as f64 * scale;
        render_frame(child_name, child, cx, w, depth + 1, total_ns, out);
        cx += w;
    }
}

fn escape_xml(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Render spans as a self-contained SVG icicle flame view (roots on top,
/// callees below, width proportional to inclusive time).
pub fn flame_svg(spans: &[SpanRecord]) -> String {
    let mut roots: Frame = Frame::default();
    for (span, path) in spans.iter().zip(span_paths(spans)) {
        let mut node = &mut roots;
        for name in path {
            node = node.children.entry(name.to_owned()).or_default();
        }
        node.own_ns += span.dur_ns;
    }
    let total_ns: u64 = roots.children.values().map(Frame::incl_ns).sum();
    let rows = roots.children.values().map(depth_of).max().unwrap_or(0);
    let height = ROW_H * rows as f64 + 30.0;
    let mut out = format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{SVG_WIDTH}\" height=\"{height}\" \
         viewBox=\"0 0 {SVG_WIDTH} {height}\">\n\
         <rect width=\"100%\" height=\"100%\" fill=\"#f8f8f8\"/>\n"
    );
    let mut x = 0.0;
    for (name, frame) in &roots.children {
        let width = if total_ns == 0 {
            SVG_WIDTH / roots.children.len() as f64
        } else {
            SVG_WIDTH * frame.incl_ns() as f64 / total_ns as f64
        };
        render_frame(name, frame, x, width, 0, total_ns, &mut out);
        x += width;
    }
    out.push_str(&format!(
        "<text x=\"4\" y=\"{:.1}\" font-size=\"11\" font-family=\"monospace\" fill=\"#555\">\
         deepeye flame view — {} spans, {}</text>\n</svg>\n",
        height - 8.0,
        spans.len(),
        crate::report::fmt_duration(total_ns),
    ));
    out
}

impl crate::Observer {
    /// Folded-stack rendering of all finished spans (see
    /// [`folded_stacks`]). Empty when disabled.
    pub fn folded_stacks(&self) -> String {
        folded_stacks(&self.finished_spans())
    }

    /// Self-contained SVG flame view of all finished spans (see
    /// [`flame_svg`]).
    pub fn flame_svg(&self) -> String {
        flame_svg(&self.finished_spans())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Observer, Snapshot};

    fn sample_spans() -> Vec<SpanRecord> {
        let obs = Observer::enabled();
        {
            let _root = obs.span("pipeline.recommend");
            {
                let _e = obs.span("pipeline.enumerate");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            {
                let _x = obs.span("pipeline.execute");
                let _w = obs.span("execute.worker");
            }
        }
        obs.finished_spans()
    }

    #[test]
    fn folded_stacks_cover_the_roots() {
        let spans = sample_spans();
        let folded = folded_stacks(&spans);
        assert!(folded.contains("pipeline.recommend;pipeline.enumerate "));
        assert!(folded.contains("pipeline.recommend;pipeline.execute;execute.worker "));
        // Self-times of all stacks under a root sum back to ≥ its wall
        // time (clamping can only add, never lose, root time).
        let root_ns: u64 = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.dur_ns)
            .sum();
        let folded_ns: u64 = folded
            .lines()
            .filter_map(|l| l.rsplit_once(' ').and_then(|(_, v)| v.parse::<u64>().ok()))
            .sum();
        assert!(
            folded_ns >= root_ns.saturating_mul(95) / 100,
            "folded {folded_ns} < 95% of root {root_ns}"
        );
    }

    #[test]
    fn folded_lines_are_sorted_and_parse() {
        let folded = folded_stacks(&sample_spans());
        let lines: Vec<&str> = folded.lines().collect();
        assert!(!lines.is_empty());
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted, "deterministic order");
        for line in lines {
            let (path, ns) = line.rsplit_once(' ').expect("`path ns` shape");
            assert!(!path.is_empty());
            ns.parse::<u64>().expect("numeric self time");
        }
    }

    #[test]
    fn empty_input_renders_empty_stacks() {
        assert_eq!(folded_stacks(&[]), "");
    }

    #[test]
    fn svg_is_self_contained_and_mentions_frames() {
        let svg = flame_svg(&sample_spans());
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert!(svg.contains("pipeline.recommend"));
        assert!(!svg.contains("<script"), "no scripts");
        assert!(
            !svg.contains("http://") || svg.contains("xmlns"),
            "no external fetches"
        );
    }

    #[test]
    fn observer_convenience_exports() {
        let obs = Observer::enabled();
        {
            let _s = obs.span("only");
        }
        assert!(obs.folded_stacks().starts_with("only "));
        assert!(obs.flame_svg().contains("only"));
        assert_eq!(Observer::disabled().folded_stacks(), "");
    }

    /// Nine fixed records: two workers overlapping inside their parent, a
    /// child listed before its parent, a parent that never closed, and a
    /// name the SVG escapes.
    fn fixed_records() -> Vec<SpanRecord> {
        let record = |id, parent, name, tid, start_ns, dur_ns| SpanRecord {
            id,
            parent,
            name,
            tid,
            start_ns,
            dur_ns,
            begin_seq: id,
            end_seq: 100 - id,
        };
        vec![
            record(6, Some(4), "execute.features", 1, 2_500, 3_000),
            record(4, Some(3), "execute.worker", 1, 2_000, 4_000),
            record(5, Some(3), "execute.worker", 2, 2_100, 4_500),
            record(2, Some(1), "pipeline.enumerate", 0, 100, 2_000),
            record(9, Some(1), "render<&>", 0, 9_000, 100),
            record(3, Some(1), "pipeline.execute", 0, 2_000, 7_000),
            record(1, None, "pipeline.recommend", 0, 0, 10_000),
            record(7, None, "pipeline.ingest", 0, 20_000, 1_500),
            record(8, Some(99), "orphan", 3, 30_000, 500),
        ]
    }

    /// Both views of [`fixed_records`], pinned byte for byte: a change to
    /// either rendering must update them on purpose.
    const FOLDED: &str = "orphan 500\n\
pipeline.ingest 1500\n\
pipeline.recommend 900\n\
pipeline.recommend;pipeline.enumerate 2000\n\
pipeline.recommend;pipeline.execute 0\n\
pipeline.recommend;pipeline.execute;execute.worker 5500\n\
pipeline.recommend;pipeline.execute;execute.worker;execute.features 3000\n\
pipeline.recommend;render<&> 100\n\
";
    const SVG: &str = r##"<svg xmlns="http://www.w3.org/2000/svg" width="1200" height="102" viewBox="0 0 1200 102">
<rect width="100%" height="100%" fill="#f8f8f8"/>
<g><title>orphan — 500ns (4.0%)</title><rect x="0.00" y="0.0" width="47.62" height="17.0" fill="rgb(250,141,37)" stroke="white" stroke-width="0.5"/><text x="3.00" y="13.0" font-size="11" font-family="monospace" fill="black">orphan</text></g>
<g><title>pipeline.ingest — 1.5µs (11.9%)</title><rect x="47.62" y="0.0" width="142.86" height="17.0" fill="rgb(242,181,50)" stroke="white" stroke-width="0.5"/><text x="50.62" y="13.0" font-size="11" font-family="monospace" fill="black">pipeline.ingest</text></g>
<g><title>pipeline.recommend — 10.6µs (84.1%)</title><rect x="190.48" y="0.0" width="1009.52" height="17.0" fill="rgb(236,107,35)" stroke="white" stroke-width="0.5"/><text x="193.48" y="13.0" font-size="11" font-family="monospace" fill="black">pipeline.recommend</text></g>
<g><title>pipeline.enumerate — 2.0µs (15.9%)</title><rect x="190.48" y="18.0" width="190.48" height="17.0" fill="rgb(242,102,54)" stroke="white" stroke-width="0.5"/><text x="193.48" y="31.0" font-size="11" font-family="monospace" fill="black">pipeline.enumerate</text></g>
<g><title>pipeline.execute — 8.5µs (67.5%)</title><rect x="380.95" y="18.0" width="809.52" height="17.0" fill="rgb(253,176,56)" stroke="white" stroke-width="0.5"/><text x="383.95" y="31.0" font-size="11" font-family="monospace" fill="black">pipeline.execute</text></g>
<g><title>execute.worker — 8.5µs (67.5%)</title><rect x="380.95" y="36.0" width="809.52" height="17.0" fill="rgb(231,178,57)" stroke="white" stroke-width="0.5"/><text x="383.95" y="49.0" font-size="11" font-family="monospace" fill="black">execute.worker</text></g>
<g><title>execute.features — 3.0µs (23.8%)</title><rect x="380.95" y="54.0" width="285.71" height="17.0" fill="rgb(222,134,63)" stroke="white" stroke-width="0.5"/><text x="383.95" y="67.0" font-size="11" font-family="monospace" fill="black">execute.features</text></g>
<g><title>render&lt;&amp;&gt; — 100ns (0.8%)</title><rect x="1190.48" y="18.0" width="9.52" height="17.0" fill="rgb(220,174,48)" stroke="white" stroke-width="0.5"/></g>
<text x="4" y="94.0" font-size="11" font-family="monospace" fill="#555">deepeye flame view — 9 spans, 12.6µs</text>
</svg>
"##;

    /// The snapshot of [`fixed_records`]: one row per path, with the
    /// nearest-rank quantiles of its recorded durations.
    const SNAPSHOT: &str = r#"{
  "counters": {},
  "stages": {
    "orphan": {"count": 1, "total_ns": 500, "p50_ns": 500, "p95_ns": 500, "p99_ns": 500},
    "pipeline.ingest": {"count": 1, "total_ns": 1500, "p50_ns": 1500, "p95_ns": 1500, "p99_ns": 1500},
    "pipeline.recommend": {"count": 1, "total_ns": 10000, "p50_ns": 10000, "p95_ns": 10000, "p99_ns": 10000},
    "pipeline.recommend/pipeline.enumerate": {"count": 1, "total_ns": 2000, "p50_ns": 2000, "p95_ns": 2000, "p99_ns": 2000},
    "pipeline.recommend/pipeline.execute": {"count": 1, "total_ns": 7000, "p50_ns": 7000, "p95_ns": 7000, "p99_ns": 7000},
    "pipeline.recommend/pipeline.execute/execute.worker": {"count": 2, "total_ns": 8500, "p50_ns": 4000, "p95_ns": 4500, "p99_ns": 4500},
    "pipeline.recommend/pipeline.execute/execute.worker/execute.features": {"count": 1, "total_ns": 3000, "p50_ns": 3000, "p95_ns": 3000, "p99_ns": 3000},
    "pipeline.recommend/render<&>": {"count": 1, "total_ns": 100, "p50_ns": 100, "p95_ns": 100, "p99_ns": 100}
  }
}
"#;

    #[test]
    fn fixed_records_render_the_recorded_views() {
        let spans = fixed_records();
        assert_eq!(folded_stacks(&spans), FOLDED);
        assert_eq!(flame_svg(&spans), SVG);
        let snapshot = Snapshot::build(&spans, &BTreeMap::new());
        assert_eq!(snapshot.metrics_json(), SNAPSHOT);
    }

    #[test]
    fn snapshot_and_folded_stacks_share_paths() {
        let snapshot = Snapshot::build(&fixed_records(), &BTreeMap::new());
        let mut stage_paths: Vec<String> = snapshot
            .stages
            .iter()
            .map(|s| s.path.replace('/', ";"))
            .collect();
        stage_paths.sort_unstable();
        let folded_paths: Vec<&str> = FOLDED
            .lines()
            .filter_map(|l| l.rsplit_once(' '))
            .map(|(path, _)| path)
            .collect();
        assert_eq!(stage_paths, folded_paths, "both sorted by `;`-path");
        for s in &snapshot.stages {
            assert_eq!(s.depth, s.path.matches('/').count(), "{}", s.path);
            assert!(s.path.ends_with(s.name), "{}", s.path);
        }
    }
}
