//! Interprocedural rules over the workspace call graph (A0009, A0010).
//!
//! Where the rules in [`crate::rules`] match tokens in one window or sync
//! name tables, these rules walk the [`Analysis`] built once per run:
//!
//! * **A0009** — panic reachability: a public API in `core`/`query`/
//!   `obs` must not reach `panic!` / `.unwrap()` / `.expect()` /
//!   unguarded indexing, transitively through workspace calls.
//! * **A0010** — dropped results: `let _ = f(…)` and an unconsumed
//!   `.ok()` on a workspace call that returns `Result` swallow errors
//!   the pipeline is supposed to surface.
//!
//! Every heuristic degrades toward silence: an unresolved call
//! contributes no edge, so these rules under-report rather than flood.

use crate::callgraph::Analysis;
use crate::lint::{Diagnostic, PathStep, Workspace};
use std::collections::BTreeMap;

fn step(file: &str, line: u32, note: String) -> PathStep {
    PathStep {
        file: file.to_owned(),
        line,
        note,
    }
}

/// Map `(file index, token index)` to the call site at that token.
fn call_index(a: &Analysis) -> BTreeMap<(usize, usize), usize> {
    a.calls
        .iter()
        .enumerate()
        .map(|(ci, c)| ((c.file, c.tok), ci))
        .collect()
}

// ---------------------------------------------------------------------------
// A0009 — panic reachability from public APIs.

/// Idents whose presence in a function body suggests indexing is
/// length-guarded; unguarded-indexing detection stays forgiving because
/// the clippy wall already denies the loud panic channels.
const INDEX_GUARD_HINTS: &[&str] = &[
    "assert",
    "assert_eq",
    "assert_ne",
    "chunks",
    "clamp",
    "debug_assert",
    "enumerate",
    "find",
    "get",
    "is_empty",
    "iter",
    "len",
    "min",
    "position",
    "rfind",
    "windows",
    "zip",
];

/// A panic site inside a function.
struct PanicSite {
    line: u32,
    what: &'static str,
}

pub fn panic_reachability(ws: &Workspace, a: &Analysis) -> Vec<Diagnostic> {
    let calls_at = call_index(a);
    // An `.unwrap(`/`.expect(` whose callee resolves to a *workspace*
    // function is that function (e.g. a parser's own fallible `expect`
    // method), not std's panicking adapter.
    let resolved_method = |file: usize, name_tok: usize| {
        calls_at
            .get(&(file, name_tok))
            .is_some_and(|&ci| a.calls[ci].callee.is_some())
    };
    // Panic sites per function.
    let mut sites: Vec<Vec<PanicSite>> = (0..a.funcs.len()).map(|_| Vec::new()).collect();
    for (fi, f) in a.funcs.iter().enumerate() {
        if f.is_test {
            continue;
        }
        let file = &ws.files[f.file];
        let toks = &file.tokens;
        let index_guarded = f.body_range().any(|i| {
            toks[i]
                .ident()
                .is_some_and(|w| INDEX_GUARD_HINTS.contains(&w))
        });
        for i in f.body_range() {
            if !file.is_product(i) {
                continue;
            }
            let t = &toks[i];
            if t.is_ident("panic") && toks.get(i + 1).is_some_and(|t| t.is_punct('!')) {
                sites[fi].push(PanicSite {
                    line: t.line,
                    what: "panic!",
                });
            } else if t.is_punct('.')
                && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
                && toks.get(i + 1).is_some_and(|t| t.is_ident("unwrap"))
                && !resolved_method(f.file, i + 1)
            {
                sites[fi].push(PanicSite {
                    line: t.line,
                    what: ".unwrap()",
                });
            } else if t.is_punct('.')
                && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
                && toks.get(i + 1).is_some_and(|t| t.is_ident("expect"))
                && !resolved_method(f.file, i + 1)
            {
                sites[fi].push(PanicSite {
                    line: t.line,
                    what: ".expect()",
                });
            } else if !index_guarded
                // `name[expr]` — but not `for x in [array literal]`.
                && t.ident().is_some_and(|w| !crate::cfg::is_keyword(w))
                && toks.get(i + 1).is_some_and(|t| t.is_punct('['))
            {
                sites[fi].push(PanicSite {
                    line: t.line,
                    what: "indexing without a length guard",
                });
            }
        }
    }

    let mut out = Vec::new();
    // Functions that contain at least one panic site, in index order —
    // the lowest-indexed reachable carrier is the reported one.
    let carriers: Vec<usize> = (0..a.funcs.len())
        .filter(|&g| !sites[g].is_empty())
        .collect();
    for (fi, f) in a.funcs.iter().enumerate() {
        let is_entry = f.is_pub
            && !f.is_test
            && ["crates/core/src/", "crates/query/src/", "crates/obs/src/"]
                .iter()
                .any(|p| f.rel.starts_with(p));
        if !is_entry {
            continue;
        }
        // The shared SCC-condensed relation replaces the per-entry BFS:
        // one bit test per candidate carrier, then one chain walk for
        // the witness (capped at the first cycle by `product_chain`).
        let Some(target) = carriers.iter().copied().find(|&t| a.reach.reaches(fi, t)) else {
            continue;
        };
        let site = &sites[target][0];
        let mut steps = vec![step(&f.rel, f.line, format!("public API `{}`", f.qual))];
        for ci in crate::callgraph::product_chain(ws, a, fi, target) {
            let c = &a.calls[ci];
            let callee = c.callee.unwrap_or(c.caller);
            steps.push(step(
                &a.funcs[c.caller].rel,
                c.line,
                format!("calls `{}`", a.funcs[callee].qual),
            ));
        }
        steps.push(step(
            &a.funcs[target].rel,
            site.line,
            format!("panic site: {}", site.what),
        ));
        out.push(Diagnostic {
            file: f.rel.clone(),
            line: f.line,
            code: "A0009",
            message: format!(
                "public `{}` can reach {} in `{}` — return an error instead of panicking \
                 on library paths",
                f.qual, site.what, a.funcs[target].qual,
            ),
            path: steps,
        });
    }
    out
}

// ---------------------------------------------------------------------------
// A0010 — dropped Results / swallowed errors.

pub fn dropped_results(ws: &Workspace, a: &Analysis) -> Vec<Diagnostic> {
    let calls_at = call_index(a);
    let mut out = Vec::new();
    for f in &a.funcs {
        if f.is_test {
            continue;
        }
        let file = &ws.files[f.file];
        let toks = &file.tokens;
        for i in f.body_range() {
            if !file.is_product(i) {
                continue;
            }
            // `let _ = fallible(…);`
            if toks[i].is_ident("let")
                && toks.get(i + 1).is_some_and(|t| t.is_ident("_"))
                && toks.get(i + 2).is_some_and(|t| t.is_punct('='))
            {
                let mut j = i + 3;
                while j < f.body_end && !toks[j].is_punct(';') {
                    if let Some(&ci) = calls_at.get(&(f.file, j)) {
                        if let Some(callee) = a.calls[ci].callee {
                            if a.funcs[callee].returns_result {
                                let cq = &a.funcs[callee].qual;
                                out.push(Diagnostic {
                                    file: f.rel.clone(),
                                    line: toks[i].line,
                                    code: "A0010",
                                    message: format!(
                                        "`let _ =` discards the Result of `{cq}` — handle or \
                                         propagate the error"
                                    ),
                                    path: vec![step(
                                        &a.funcs[callee].rel,
                                        a.funcs[callee].line,
                                        format!("`{cq}` returns Result"),
                                    )],
                                });
                                break;
                            }
                        }
                    }
                    j += 1;
                }
            }
            // `fallible(…).ok();` with the Option going nowhere.
            if toks[i].is_punct('.')
                && toks.get(i + 1).is_some_and(|t| t.is_ident("ok"))
                && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
                && toks.get(i + 3).is_some_and(|t| t.is_punct(')'))
                && toks.get(i + 4).is_some_and(|t| t.is_punct(';'))
            {
                // The expression before `.ok()` must end in a call: find
                // the callee-name token just before its `(`.
                let Some(open) = matching_open_paren(toks, i) else {
                    continue;
                };
                let Some(&ci) = calls_at.get(&(f.file, open.wrapping_sub(1))) else {
                    continue;
                };
                if let Some(callee) = a.calls[ci].callee {
                    if a.funcs[callee].returns_result {
                        let cq = &a.funcs[callee].qual;
                        out.push(Diagnostic {
                            file: f.rel.clone(),
                            line: toks[i].line,
                            code: "A0010",
                            message: format!(
                                "`.ok()` swallows the error from `{cq}` and drops the value — \
                                 handle or propagate it"
                            ),
                            path: vec![step(
                                &a.funcs[callee].rel,
                                a.funcs[callee].line,
                                format!("`{cq}` returns Result"),
                            )],
                        });
                    }
                }
            }
        }
    }
    out
}

/// For a `.` token directly after a `)`, the index of the matching `(`.
fn matching_open_paren(toks: &[crate::lexer::Token], dot: usize) -> Option<usize> {
    if dot == 0 || !toks[dot - 1].is_punct(')') {
        return None;
    }
    let mut depth = 0i32;
    for k in (0..dot).rev() {
        if toks[k].is_punct(')') {
            depth += 1;
        } else if toks[k].is_punct('(') {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(
        files: Vec<(&str, &str)>,
        rule: fn(&Workspace, &Analysis) -> Vec<Diagnostic>,
    ) -> Vec<Diagnostic> {
        let ws = Workspace::from_sources(files, "");
        let a = Analysis::build(&ws);
        rule(&ws, &a)
    }

    #[test]
    fn a0009_names_the_full_chain_to_the_panic() {
        let src = r#"
pub fn api() -> u32 {
    helper()
}
fn helper() -> u32 {
    inner()
}
fn inner() -> u32 {
    Some(1).unwrap()
}
"#;
        let hits = run(vec![("crates/core/src/api.rs", src)], panic_reachability);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].code, "A0009");
        assert!(
            hits[0].message.contains(".unwrap()") && hits[0].message.contains("core::api::inner"),
            "{}",
            hits[0].message
        );
        // entry → helper → inner → panic site: four steps, each file:line.
        assert_eq!(hits[0].path.len(), 4, "{:?}", hits[0].path);
        assert!(hits[0].path[0].note.contains("public API `core::api::api`"));
        assert!(hits[0].path[3].note.contains("panic site"));
        let text = format!("{}", hits[0]);
        assert!(text.contains("at crates/core/src/api.rs:"), "{text}");
    }

    #[test]
    fn a0009_ignores_non_entry_crates_and_clean_chains() {
        let hits = run(
            vec![
                (
                    "crates/core/src/api.rs",
                    "pub fn api() -> u32 { helper() }\nfn helper() -> u32 { 7 }",
                ),
                (
                    "crates/viz/src/render.rs",
                    "pub fn render() -> u32 { Some(1).unwrap() }",
                ),
            ],
            panic_reachability,
        );
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn a0010_flags_discarded_and_swallowed_results() {
        let src = r#"
pub fn fallible(x: u32) -> Result<u32, String> {
    Ok(x)
}
pub fn infallible(x: u32) -> u32 {
    x
}
pub fn caller() {
    let _ = fallible(1);
    fallible(2).ok();
    let kept = fallible(3);
    let _ = infallible(4);
    drop(kept);
}
"#;
        let hits = run(vec![("crates/core/src/r.rs", src)], dropped_results);
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert!(hits.iter().all(|d| d.code == "A0010"));
        assert!(hits
            .iter()
            .any(|d| d.message.contains("`let _ =`") && d.message.contains("core::r::fallible")));
        assert!(hits
            .iter()
            .any(|d| d.message.contains("`.ok()`") && d.message.contains("core::r::fallible")));
    }
}
