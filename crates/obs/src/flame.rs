//! Folded-stack and SVG flame-view export of a span tree.
//!
//! Two renderings of "where did the time go", both derived from the same
//! parent-chain walk the stage report uses:
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
//! Both accept [`FlameSpan`]s, an owned mirror of [`SpanRecord`].

use crate::observer::SpanRecord;
use std::collections::BTreeMap;

/// One span as the flame exporters consume it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlameSpan {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub dur_ns: u64,
}

impl From<&SpanRecord> for FlameSpan {
    fn from(s: &SpanRecord) -> FlameSpan {
        FlameSpan {
            id: s.id,
            parent: s.parent,
            name: s.name.to_owned(),
            dur_ns: s.dur_ns,
        }
    }
}

/// Per-span stack path (root-first, `;`-joined) via the parent chain.
/// Unknown parents (still-open spans) root the chain there; a depth cap
/// guards against a buggy cycle.
fn stack_paths(spans: &[FlameSpan]) -> Vec<String> {
    let by_id: BTreeMap<u64, &FlameSpan> = spans.iter().map(|s| (s.id, s)).collect();
    spans
        .iter()
        .map(|span| {
            let mut names = vec![span.name.as_str()];
            let mut cursor = span.parent;
            for _ in 0..64 {
                let Some(parent) = cursor.and_then(|id| by_id.get(&id)) else {
                    break;
                };
                names.push(parent.name.as_str());
                cursor = parent.parent;
            }
            names.reverse();
            names.join(";")
        })
        .collect()
}

/// Render spans as folded stacks: one `path;to;frame <self_ns>` line per
/// distinct stack, sorted by path. Empty input renders an empty string.
pub fn folded_stacks(spans: &[FlameSpan]) -> String {
    // Self time = own duration minus direct children's durations.
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            *child_ns.entry(parent).or_insert(0) += span.dur_ns;
        }
    }
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    for (span, path) in spans.iter().zip(stack_paths(spans)) {
        let self_ns = span
            .dur_ns
            .saturating_sub(child_ns.get(&span.id).copied().unwrap_or(0));
        *folded.entry(path).or_insert(0) += self_ns;
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
pub fn flame_svg(spans: &[FlameSpan]) -> String {
    let mut roots: Frame = Frame::default();
    for (span, path) in spans.iter().zip(stack_paths(spans)) {
        let mut node = &mut roots;
        for name in path.split(';') {
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
        let spans: Vec<FlameSpan> = self.finished_spans().iter().map(FlameSpan::from).collect();
        folded_stacks(&spans)
    }

    /// Self-contained SVG flame view of all finished spans (see
    /// [`flame_svg`]).
    pub fn flame_svg(&self) -> String {
        let spans: Vec<FlameSpan> = self.finished_spans().iter().map(FlameSpan::from).collect();
        flame_svg(&spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Observer;

    fn sample_spans() -> Vec<FlameSpan> {
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
        obs.finished_spans().iter().map(FlameSpan::from).collect()
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
}
