//! The project-invariant rule catalog (`A0002`–`A0019`).
//!
//! These are the invariants clippy cannot express because they are
//! *ours*: what discipline the observability layer's call sites follow,
//! which documents must agree with which constants. (The clock and
//! thread disciplines, which clippy can express, live in `clippy.toml`.)
//! Each rule is a pure function over the lexed [`Workspace`] plus the
//! once-per-run interprocedural [`Analysis`]; all rules skip
//! `#[cfg(test)]` regions and `tests/`/`benches/` files (panicking and
//! unguarded shortcuts are the failure channel there) and never scan
//! `vendor/*` (not loaded at all).
//!
//! `A0002` is a single-window token matcher. The name-sync rules
//! (`A0004`, `A0005`) are rows of one table, [`FAMILIES`], checked by one
//! engine. `A0009` and `A0010` (implemented in [`crate::dataflow`]) walk
//! the call graph and attach `file:line` witness chains to their
//! findings; `A0015` and `A0019` (in [`crate::effects`]) read the effect
//! summaries.
//!
//! The catalog table in DESIGN.md §8 is the human-facing mirror of
//! [`RULES`]; a doc-sync test keeps the two identical.

use crate::callgraph::Analysis;
use crate::lexer::Token;
use crate::lint::{Diagnostic, SourceFile, Workspace};
use deepeye_obs::metrics;
use std::collections::BTreeSet;

/// One registered rule.
pub struct Rule {
    /// Stable code, `A0002`-style.
    pub code: &'static str,
    /// One-line summary (matches the DESIGN.md §8 catalog row).
    pub summary: &'static str,
    /// Whether the rule walks the call graph / effect summaries
    /// (vs. a single-window token matcher). Surfaced by `--list-rules`.
    pub interprocedural: bool,
    pub check: fn(&Workspace, &Analysis) -> Vec<Diagnostic>,
}

/// Every rule the linter runs, in code order.
pub static RULES: &[Rule] = &[
    Rule {
        code: "A0002",
        summary:
            "provenance/observer record calls with eager arguments must sit behind is_enabled()",
        interprocedural: false,
        check: unguarded_record_calls,
    },
    Rule {
        code: "A0004",
        summary:
            "sema diagnostic codes are unique and in sync with the sema doc table and DESIGN.md",
        interprocedural: false,
        check: |ws, _| sync(ws, "A0004"),
    },
    Rule {
        code: "A0005",
        summary: "metric name literals match the central registry (deepeye_obs::metrics)",
        interprocedural: false,
        check: |ws, _| sync(ws, "A0005"),
    },
    Rule {
        code: "A0009",
        summary: "public core/query/obs APIs cannot reach panic!/unwrap/expect/unguarded indexing through any call chain",
        interprocedural: true,
        check: crate::dataflow::panic_reachability,
    },
    Rule {
        code: "A0010",
        summary: "Results from fallible workspace calls are consumed — no `let _ =` discard or unread `.ok()`",
        interprocedural: true,
        check: crate::dataflow::dropped_results,
    },
    Rule {
        code: "A0015",
        summary: "disabled-path functions of the observability layer are effect-free — the zero-cost theorem, proven by effect inference",
        interprocedural: true,
        check: crate::effects::zero_cost,
    },
    Rule {
        code: "A0019",
        summary: "DESIGN.md's zero-cost theorem names only functions the effect engine proves pure",
        interprocedural: true,
        check: crate::effects::design_sync,
    },
];

fn diag(file: &str, line: u32, code: &'static str, message: String) -> Diagnostic {
    Diagnostic {
        file: file.to_owned(),
        line,
        code,
        message,
        path: Vec::new(),
    }
}

// ---------------------------------------------------------------------------
// A0002 — the no-op discipline.
//
// `Observer` and `Provenance` are zero-cost when disabled *inside* the
// call — but the arguments are evaluated eagerly at the call site. A
// provenance record's id is a heap `String` (`query_id`, `node.id()`,
// `format!`), so an unguarded `prov.record(…)` allocates on the hot path
// of every un-instrumented run. The rule demands a lexical
// `is_enabled()` guard around every provenance record-family call, and
// around observer calls whose arguments visibly allocate.
//
// The recognized guard shapes (direct guard, match-arm guard, named
// guard variable, negated early-return guard) are encoded in
// `cfg::guard_mask`, which this rule shares with the effect engine. A
// guard at a helper's call site does not cover the helper: the guard
// must sit around the record call itself.

const PROV_METHODS: &[&str] = &["record", "record_rejected", "bump"];
const OBS_METHODS: &[&str] = &["incr", "span", "span_under"];
const ALLOC_MARKERS: &[&str] = &[
    "format",
    "to_owned",
    "to_string",
    "from",
    "query_id",
    "join",
    "clone",
    "collect",
];

/// The kind of record call a site is (drives the A0002 message).
enum RecordKind {
    /// Provenance record family — always allocates an id.
    Prov,
    /// Observer call with a visibly allocating argument.
    ObsAlloc,
}

/// If tokens at `i` start a record-family method call
/// (`prov.record(…)`, `obs.incr(format!…)`, …), return
/// `(receiver, method, kind)`.
fn record_call_at(file: &SourceFile, i: usize) -> Option<(&str, &str, RecordKind)> {
    let toks = &file.tokens;
    let recv = toks[i].ident()?;
    if !(toks.get(i + 1).is_some_and(|t| t.is_punct('.'))
        && toks.get(i + 3).is_some_and(|t| t.is_punct('(')))
    {
        return None;
    }
    let method = toks.get(i + 2).and_then(Token::ident)?;
    let recv_lower = recv.to_ascii_lowercase();
    let is_prov_recv = recv_lower.contains("prov");
    let is_obs_recv = recv_lower == "obs" || recv_lower.contains("observer");
    let allocates = || {
        call_args(toks, i + 3)
            .iter()
            .any(|t| t.ident().is_some_and(|id| ALLOC_MARKERS.contains(&id)))
    };
    if is_prov_recv && PROV_METHODS.contains(&method) {
        Some((recv, method, RecordKind::Prov))
    } else if is_obs_recv && OBS_METHODS.contains(&method) && allocates() {
        Some((recv, method, RecordKind::ObsAlloc))
    } else {
        None
    }
}

fn unguarded_record_calls(ws: &Workspace, a: &Analysis) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (fi, file) in ws.files.iter().enumerate() {
        if file.in_dir("crates/obs") || file.is_test_file {
            continue;
        }
        let mask = &a.guard_masks[fi];
        for i in 0..file.tokens.len() {
            if !file.is_product(i) || mask.get(i).copied().unwrap_or(false) {
                continue;
            }
            let Some((recv, method, kind)) = record_call_at(file, i) else {
                continue;
            };
            let message = match kind {
                RecordKind::Prov => format!(
                    "`{recv}.{method}(…)` outside an `is_enabled()` guard — provenance \
                     ids allocate eagerly even when recording is off"
                ),
                RecordKind::ObsAlloc => format!(
                    "`{recv}.{method}(…)` builds an allocating argument outside an \
                     `is_enabled()` guard — the disabled observer still pays for it"
                ),
            };
            out.push(diag(&file.rel, file.tokens[i].line, "A0002", message));
        }
    }
    out
}

/// The tokens of the argument list opening at `toks[open]` (a `(`), up
/// to its matching `)`.
fn call_args(toks: &[Token], open: usize) -> &[Token] {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return &toks[open..k];
            }
        }
    }
    &toks[open.min(toks.len())..]
}

// ---------------------------------------------------------------------------
// The name-sync table: A0004 and A0005.
//
// Each row of `FAMILIES` keeps one family of names in sync across a
// registry, the code that uses the names, and a DESIGN.md section.
// `Family::check` runs the same four checks on every row:
//
// 1. every use is registered;
// 2. every registered name is used in the row's files;
// 3. every registered name is documented in the section;
// 4. every family-shaped word in the section is registered.
//
// Checks 2–4 run only when the row's anchor file is scanned, so a unit
// fixture picks the directions it exercises. A0004 adds one check: a
// code emitted twice.

const METRICS_RS: &str = "crates/obs/src/metrics.rs";
const SEMA_RS: &str = "crates/query/src/sema.rs";

/// Where a family's registered names come from.
pub enum Registry {
    /// The `deepeye_obs::metrics` counters under these prefixes.
    Metrics(&'static [&'static str]),
    /// The `//! | E0001 | … |` table in the anchor file's module doc.
    SemaTable,
}

/// How a family's uses are found.
pub enum Uses {
    /// String literals shaped like a family name (a registry prefix, then
    /// `[a-z0-9_.]`), in the product code of every crate but this one.
    Literals,
    /// Metric literals in `Observer::incr` calls outside deepeye-obs and
    /// this crate.
    RecordCalls,
}

/// A DESIGN.md section: how messages name it (`§12`), the heading it
/// starts at, and the text it ends before.
pub struct Section(pub &'static str, pub &'static str, pub &'static str);

/// One row of the name-sync table.
pub struct Family {
    /// The rule the row reports under.
    pub code: &'static str,
    /// What messages call one name of the family.
    pub noun: &'static str,
    pub registry: Registry,
    pub uses: Uses,
    /// The files that must use every registered name (empty: any file).
    pub files: &'static [&'static str],
    /// Checks 2–4 run only when this file is scanned.
    pub anchor: &'static str,
    /// The file an unused registered name is reported against, and what
    /// the message says is missing.
    pub unused_at: &'static str,
    pub unused: &'static str,
    /// The section documenting the family (`None`: all of DESIGN.md). A
    /// missing heading falls back to the whole document, so the doc
    /// checks get weaker instead of passing silently.
    pub section: Option<Section>,
}

/// The name-sync table, in rule-code order.
pub static FAMILIES: &[Family] = &[
    Family {
        code: "A0004",
        noun: "diagnostic code",
        registry: Registry::SemaTable,
        uses: Uses::Literals,
        files: &[SEMA_RS],
        anchor: SEMA_RS,
        unused_at: SEMA_RS,
        unused: "sema never emits it",
        section: None,
    },
    Family {
        code: "A0005",
        noun: "metric",
        registry: Registry::Metrics(&[
            "enumerate.",
            "exec.",
            "progressive.",
            "rank.",
            "recognize.",
            "sema.",
        ]),
        uses: Uses::RecordCalls,
        files: &[],
        anchor: "crates/core/src/deepeye.rs",
        unused_at: METRICS_RS,
        unused: "recorded nowhere",
        section: Some(Section("§6", "### Metric names", "### Exporters")),
    },
];

/// Run every row of the name-sync table that reports under `code`.
fn sync(ws: &Workspace, code: &str) -> Vec<Diagnostic> {
    let rows = FAMILIES.iter().filter(|f| f.code == code);
    rows.flat_map(|f| f.check(ws)).collect()
}

/// One use of a family name: the name, its file and line.
type Use<'a> = (&'a str, &'a str, u32);

impl Family {
    fn check(&self, ws: &Workspace) -> Vec<Diagnostic> {
        let noun = self.noun;
        let mut out = Vec::new();
        let mut report = |file: &str, line: u32, message: String| {
            out.push(diag(file, line, self.code, message));
        };
        let registry = self.registry.names(ws.file(self.anchor));
        let uses = self.find_uses(ws);
        // 1. Every use is registered.
        for &(name, file, line) in &uses {
            if !registry.contains(name) {
                let source = self.registry.source();
                report(file, line, format!("{noun} {name:?} is not in {source}"));
            }
        }
        if ws.file(self.anchor).is_none() {
            return out;
        }
        // 2. Every registered name is used in the row's files (and a
        // sema code is emitted there once).
        let mut used = BTreeSet::new();
        for &(name, file, line) in &uses {
            let listed = self.files.is_empty() || self.files.contains(&file);
            if listed && !used.insert(name) && matches!(self.registry, Registry::SemaTable) {
                let message =
                    format!("diagnostic code {name} emitted twice — codes must be unique");
                report(file, line, message);
            }
        }
        for name in registry.iter().filter(|name| !used.contains(*name)) {
            let message = format!("{noun} {name:?} is registered but {}", self.unused);
            report(self.unused_at, 1, message);
        }
        if ws.design.is_empty() {
            return out;
        }
        // 3. Every registered name is documented.
        let (section, offset) = self.section(&ws.design);
        let doc = match &self.section {
            Some(Section(label, ..)) => format!("DESIGN.md {label}"),
            None => "DESIGN.md".to_owned(),
        };
        let words = prefixed_words(section, self.registry.prefixes());
        for name in &registry {
            if !words.iter().any(|(word, _)| word == name) {
                let message = format!("{noun} {name:?} is not documented in {doc}");
                report("DESIGN.md", 1, message);
            }
        }
        // 4. Every family-shaped word in the section is registered.
        for (word, at) in words {
            if !registry.contains(word) {
                let line = ws.design[..offset + at].matches('\n').count() + 1;
                let message = format!("{doc} names {noun} {word:?}, which is not in the registry");
                report("DESIGN.md", line as u32, message);
            }
        }
        out
    }

    /// The uses of the family's names, in scan order.
    fn find_uses<'a>(&self, ws: &'a Workspace) -> Vec<Use<'a>> {
        let mut uses = Vec::new();
        match self.uses {
            Uses::Literals => {
                let prefixes = self.registry.prefixes();
                // A text search for an opening quote before a prefix skips
                // the token walk of every file that quotes none.
                let quoted: Vec<String> = prefixes.iter().map(|p| format!("\"{p}")).collect();
                let quotes = |f: &SourceFile| quoted.iter().any(|q| f.raw.contains(q.as_str()));
                let scanned = ws.files.iter().filter(|f| !f.in_dir("crates/analyze"));
                for file in scanned.filter(|f| quotes(f)) {
                    for (i, t) in file.tokens.iter().enumerate() {
                        let Some(lit) = t.str_lit() else { continue };
                        if family_shaped(lit, prefixes) && file.is_product(i) {
                            uses.push((lit, file.rel.as_str(), t.line));
                        }
                    }
                }
            }
            Uses::RecordCalls => record_call_metrics(ws, &mut uses),
        }
        uses
    }

    /// The row's section of `design`, and its byte offset.
    fn section<'d>(&self, design: &'d str) -> (&'d str, usize) {
        let bounds = self.section.as_ref().map(|s| (design.find(s.1), s.2));
        let Some((Some(start), end)) = bounds else {
            return (design, 0);
        };
        let rest = &design[start..];
        (rest.find(end).map_or(rest, |end| &rest[..end]), start)
    }
}

impl Registry {
    /// Every registered name.
    fn names<'a>(&self, anchor: Option<&'a SourceFile>) -> BTreeSet<&'a str> {
        match self {
            Registry::Metrics(prefixes) => metrics::COUNTERS
                .iter()
                .copied()
                .filter(|name| family_shaped(name, prefixes))
                .collect(),
            Registry::SemaTable => {
                let doc = anchor.map_or("", |f| f.raw.as_str()).lines();
                doc.filter_map(doc_table_code).collect()
            }
        }
    }

    fn prefixes(&self) -> &'static [&'static str] {
        match self {
            Registry::Metrics(p) => p,
            Registry::SemaTable => &["E00", "W01"],
        }
    }

    /// Where messages say an unregistered name is missing from.
    fn source(&self) -> &'static str {
        match self {
            Registry::Metrics(_) => "the central metric registry (deepeye_obs::metrics)",
            Registry::SemaTable => "the sema module-doc table",
        }
    }
}

/// A character that may continue a family name after its prefix.
fn name_char(c: char) -> bool {
    c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'
}

/// Whether `s` is one of `prefixes` followed by at least one name
/// character or dot (`exec.ok`, `E0001`).
fn family_shaped(s: &str, prefixes: &[&str]) -> bool {
    let rest = prefixes.iter().find_map(|p| s.strip_prefix(p));
    rest.is_some_and(|rest| !rest.is_empty() && rest.chars().all(|c| name_char(c) || c == '.'))
}

/// Metric-shaped literals in the argument lists of `Observer::incr`
/// calls outside deepeye-obs (whose self-metrics are recorded without
/// them) and this crate (whose fixtures are not the pipeline's).
fn record_call_metrics<'a>(ws: &'a Workspace, uses: &mut Vec<Use<'a>>) {
    for file in &ws.files {
        if file.in_dir("crates/obs") || file.in_dir("crates/analyze") {
            continue;
        }
        let toks = &file.tokens;
        for i in 0..toks.len() {
            if !toks[i].is_punct('.') {
                continue;
            }
            let incr = toks.get(i + 1).and_then(Token::ident) == Some("incr");
            if !incr || !toks.get(i + 2).is_some_and(|t| t.is_punct('(')) || !file.is_product(i) {
                continue;
            }
            // Every metric-shaped literal in the arguments (covers
            // `incr(if ok { "exec.ok" } else { "exec.err" }, 1)`).
            for t in call_args(toks, i + 2) {
                let Some(name) = t.str_lit() else { continue };
                if name.contains('.') && name.chars().all(|c| name_char(c) || c == '.') {
                    uses.push((name, file.rel.as_str(), t.line));
                }
            }
        }
    }
}

/// Standalone words of `text` that start with one of `prefixes` and go on
/// with name characters, with their byte offsets. No word character, `-`
/// or `.` may come right before a word (so `microbench.` and
/// `deepeye-obs.` start none); `obs.*` wildcards and sentence-final dots
/// have nothing after the prefix and are no words either.
fn prefixed_words<'t>(text: &'t str, prefixes: &[&str]) -> Vec<(&'t str, usize)> {
    let mut words = Vec::new();
    for prefix in prefixes {
        for (start, _) in text.match_indices(prefix) {
            let before = text[..start].chars().next_back();
            let standalone =
                !before.is_some_and(|c| c.is_ascii_alphanumeric() || "_-.".contains(c));
            let rest = &text[start + prefix.len()..];
            let len = rest.find(|c| !name_char(c)).unwrap_or(rest.len());
            if standalone && len > 0 {
                words.push((&text[start..start + prefix.len() + len], start));
            }
        }
    }
    words
}

/// The code in a `//! | E0001 | … |` row of the sema module doc.
fn doc_table_code(line: &str) -> Option<&str> {
    let row = line.trim_start().strip_prefix("//!")?.trim_start();
    let code = row.strip_prefix('|')?.split('|').next()?.trim();
    family_shaped(code, Registry::SemaTable.prefixes()).then_some(code)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::Baseline;

    fn run_rule(code: &str, files: Vec<(&str, &str)>, design: &str) -> Vec<Diagnostic> {
        let ws = Workspace::from_sources(files, design);
        let analysis = Analysis::build(&ws);
        RULES
            .iter()
            .find(|r| r.code == code)
            .map(|r| (r.check)(&ws, &analysis))
            .unwrap_or_default()
    }

    #[test]
    fn a0002_flags_unguarded_and_accepts_guarded() {
        let src = r#"
fn bad(prov: &Provenance) {
    prov.record("id", |e| e.x = 1);
}
fn good(prov: &Provenance) {
    if prov.is_enabled() {
        prov.record("id", |e| e.x = 1);
    }
}
fn named(prov: &Provenance) {
    let explaining = prov.is_enabled();
    if explaining {
        prov.bump(|c| c.n += 1);
    }
}
fn early(prov: &Provenance) {
    if !prov.is_enabled() {
        return;
    }
    prov.record_rejected("id", Outcome::X, |e| e.x = 1);
}
fn arm(prov: &Provenance, m: Mode) {
    match m {
        Mode::A if prov.is_enabled() => {
            prov.record("id", |e| e.x = 1);
        }
        _ => {}
    }
}
"#;
        let hits = run_rule("A0002", vec![("crates/core/src/x.rs", src)], "");
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 3);
    }

    #[test]
    fn a0002_negated_guard_block_is_not_guarded() {
        let src = r#"
fn f(prov: &Provenance) {
    if !prov.is_enabled() {
        prov.bump(|c| c.n += 1);
        return;
    }
}
"#;
        let hits = run_rule("A0002", vec![("crates/core/src/x.rs", src)], "");
        assert_eq!(hits.len(), 1, "{hits:?}");
    }

    #[test]
    fn a0002_observer_allocating_args() {
        let src = r#"
fn f(obs: &Observer, name: &str) {
    obs.incr("plain.name", 1);
    let _s = obs.span(&format!("dyn.{name}"));
}
"#;
        let hits = run_rule("A0002", vec![("crates/core/src/x.rs", src)], "");
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 4);
    }

    #[test]
    fn a0002_guarded_call_site_does_not_cover_the_helper() {
        let src = r#"
pub fn entry(prov: &Provenance) {
    if prov.is_enabled() {
        note(prov);
    }
}
fn note(prov: &Provenance) {
    prov.record("id", |e| e.x = 1);
}
"#;
        let hits = run_rule("A0002", vec![("crates/core/src/x.rs", src)], "");
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 8);
    }

    #[test]
    fn a0004_detects_drift() {
        let sema = r#"
//! | E0001 | SELECT | x missing |
//! | E0002 | SELECT | y missing |
impl Code {
    pub fn as_str(self) -> &'static str {
        match self {
            Code::A => "E0001",
            Code::B => "E0003",
        }
    }
}
"#;
        let hits = run_rule(
            "A0004",
            vec![("crates/query/src/sema.rs", sema)],
            "codes `E0001` and `E0003` plus phantom `E0004`.",
        );
        let msgs: Vec<_> = hits.iter().map(|d| d.message.as_str()).collect();
        assert!(
            msgs.iter()
                .any(|m| m.contains("E0003") && m.contains("doc table")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter()
                .any(|m| m.contains("E0002") && m.contains("never emits")),
            "{msgs:?}"
        );
        assert!(msgs.iter().any(|m| m.contains("E0004")), "{msgs:?}");
    }

    #[test]
    fn a0004_flags_duplicate_codes() {
        let sema = "//! | E0001 | SELECT | x |\nfn f() { let a = \"E0001\"; let b = \"E0001\"; }";
        let hits = run_rule("A0004", vec![("crates/query/src/sema.rs", sema)], "`E0001`");
        assert!(
            hits.iter().any(|d| d.message.contains("unique")),
            "{hits:?}"
        );
    }

    #[test]
    fn a0005_flags_unregistered_metric() {
        let src = r#"fn f(obs: &Observer) { obs.incr("exec.okay", 1); obs.incr("exec.ok", 1); }"#;
        let hits = run_rule("A0005", vec![("crates/core/src/x.rs", src)], "");
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("exec.okay"));
    }

    /// A pipeline fixture recording every metric of the A0005 row, and a
    /// DESIGN.md §6 fixture naming each of them (plus an unregistered
    /// name after `### Exporters`, outside the section).
    fn product_fixture() -> (String, String) {
        let family = FAMILIES.iter().find(|f| f.code == "A0005").unwrap();
        let names = family.registry.names(None);
        let calls: String = names
            .iter()
            .map(|name| format!("    obs.incr({name:?}, 1);\n"))
            .collect();
        let documented: Vec<String> = names.iter().map(|name| format!("`{name}`")).collect();
        (
            format!("fn f(obs: &Observer) {{\n{calls}}}\n"),
            format!(
                "## 6. Observability\n### Metric names\n{}.\n### Exporters\nNot `exec.bogus`.\n",
                documented.join(", ")
            ),
        )
    }

    #[test]
    fn a0005_clean_when_section_6_agrees() {
        let (src, design) = product_fixture();
        let hits = run_rule("A0005", vec![("crates/core/src/deepeye.rs", &src)], &design);
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn a0005_flags_product_metric_missing_from_section_6() {
        let (src, design) = product_fixture();
        let design = design.replace("`rank.nodes`, ", "");
        let hits = run_rule("A0005", vec![("crates/core/src/deepeye.rs", &src)], &design);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!((hits[0].file.as_str(), hits[0].line), ("DESIGN.md", 1));
        assert!(hits[0].message.contains("\"rank.nodes\" is not documented"));
    }

    #[test]
    fn a0005_flags_unregistered_name_in_section_6() {
        let (src, design) = product_fixture();
        let design = design.replace("### Exporters", "Also `exec.bogus`.\n### Exporters");
        let hits = run_rule("A0005", vec![("crates/core/src/deepeye.rs", &src)], &design);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!((hits[0].file.as_str(), hits[0].line), ("DESIGN.md", 4));
        assert!(hits[0]
            .message
            .contains("\"exec.bogus\", which is not in the registry"));
    }

    #[test]
    fn every_registered_metric_belongs_to_a_family() {
        for name in deepeye_obs::metrics::COUNTERS {
            assert!(
                FAMILIES
                    .iter()
                    .any(|f| f.registry.names(None).contains(name)),
                "{name} is in no row of the name-sync table"
            );
        }
    }

    #[test]
    fn clean_sources_produce_no_findings() {
        let ws = Workspace::from_sources(
            vec![(
                "crates/core/src/x.rs",
                r#"
fn f(obs: &Observer, prov: &Provenance) {
    obs.incr("exec.ok", 1);
    if prov.is_enabled() {
        prov.record("id", |e| e.x = 1);
    }
    std::thread::scope(|s| {
        s.spawn(|| {});
    });
}
"#,
            )],
            "",
        );
        let outcome = crate::lint::run(&ws, &Baseline::default());
        assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
    }

    #[test]
    fn baseline_suppresses_and_reports_stale() {
        let ws = Workspace::from_sources(
            vec![(
                "crates/core/src/x.rs",
                "fn bad(prov: &Provenance) { prov.record(\"id\", |e| e.x = 1); }",
            )],
            "",
        );
        let baseline =
            Baseline::parse("A0002 crates/core/src/x.rs\nA0009 crates/core/src/gone.rs\n")
                .expect("parses");
        let outcome = crate::lint::run(&ws, &baseline);
        assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
        assert_eq!(outcome.suppressed.len(), 1);
        assert_eq!(outcome.suppressed[0].code, "A0002");
        assert_eq!(outcome.stale, vec!["A0009 crates/core/src/gone.rs"]);
    }

    #[test]
    fn a0005_ignores_prefixed_tokens_and_wildcards() {
        // The prefixed token and the wildcard sit inside §6 itself.
        let (src, design) = product_fixture();
        let design = design.replace(
            "### Exporters",
            "Prose naming deepeye-exec.bogus and a bare exec.* wildcard.\n### Exporters",
        );
        let hits = run_rule("A0005", vec![("crates/core/src/deepeye.rs", &src)], &design);
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn a0005_skips_partial_workspaces() {
        // No anchor file: checks 2–4 stay off, so neither the unrecorded
        // registry nor the unregistered doc word is reported.
        let hits = run_rule(
            "A0005",
            vec![("crates/core/src/x.rs", "fn f() {}")],
            "## 6. Observability\n### Metric names\nwhatever exec.bogus\n### Exporters\n",
        );
        assert!(hits.is_empty(), "{hits:?}");
    }
}
