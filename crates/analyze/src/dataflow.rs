//! Interprocedural rules over the workspace call graph (A0008–A0012).
//!
//! Where the rules in [`crate::rules`] match tokens in one window or sync
//! name tables, these rules walk the [`Analysis`] built once per run:
//!
//! * **A0008** — builds the static lock-order graph (which locks are
//!   held when other locks are acquired, transitively through calls) and
//!   reports any cycle: the classic ABBA deadlock, with the full
//!   acquisition chain as `file:line` steps.
//! * **A0009** — panic reachability: a public API in `core`/`query`/
//!   `obs` must not reach `panic!` / `.unwrap()` / `.expect()` /
//!   unguarded indexing, transitively through workspace calls.
//! * **A0010** — dropped results: `let _ = f(…)` and an unconsumed
//!   `.ok()` on a workspace call that returns `Result` swallow errors
//!   the pipeline is supposed to surface.
//! * **A0012** — the interprocedural face of A0002: a helper whose
//!   record calls are lexically unguarded is clean if *every* product
//!   call site is behind an `is_enabled()` guard (directly or through a
//!   context-guarded caller); otherwise the unguarded chain is named.
//!
//! Every heuristic degrades toward silence: an unresolved call
//! contributes no edge, so these rules under-report rather than flood.

use crate::callgraph::Analysis;
use crate::lint::{Diagnostic, PathStep, Workspace};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

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

/// Whether the call site is product code in its file.
fn product_call(ws: &Workspace, a: &Analysis, ci: usize) -> bool {
    let c = &a.calls[ci];
    ws.files[c.file].is_product(c.tok) && !a.funcs[c.caller].is_test
}

// ---------------------------------------------------------------------------
// A0008 — static lock-order graph with cycle detection.

/// One acquisition of a lock while others are held (the edge payload is
/// the witness chain establishing the order).
struct LockEdge {
    steps: Vec<PathStep>,
}

pub fn lock_order(ws: &Workspace, a: &Analysis) -> Vec<Diagnostic> {
    // Direct acquisitions per function: (canonical lock id, line, token).
    let mut direct: Vec<Vec<(String, u32, usize)>> = vec![Vec::new(); a.funcs.len()];
    for (fi, f) in a.funcs.iter().enumerate() {
        if f.is_test {
            continue;
        }
        let toks = &ws.files[f.file].tokens;
        for i in f.body_range() {
            if let Some(id) = lock_acquisition(ws, a, fi, i) {
                direct[fi].push((id, toks[i].line, i));
            }
        }
    }
    // Transitive lock sets: locks a call to `f` may end up acquiring.
    let mut trans: Vec<BTreeSet<String>> = direct
        .iter()
        .map(|d| d.iter().map(|(id, _, _)| id.clone()).collect())
        .collect();
    loop {
        let mut changed = false;
        for fi in 0..a.funcs.len() {
            for &ci in &a.calls_from[fi] {
                let Some(callee) = a.calls[ci].callee else {
                    continue;
                };
                let add: Vec<String> = trans[callee]
                    .iter()
                    .filter(|id| !trans[fi].contains(*id))
                    .cloned()
                    .collect();
                if !add.is_empty() {
                    trans[fi].extend(add);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Order edges: while A is held, B gets acquired (directly or through
    // a call). First witness per (A, B) pair wins.
    let calls_at = call_index(a);
    let mut edges: BTreeMap<(String, String), LockEdge> = BTreeMap::new();
    for (fi, f) in a.funcs.iter().enumerate() {
        if f.is_test {
            continue;
        }
        let file = &ws.files[f.file];
        let toks = &file.tokens;
        // Held-lock tracking: `let`-bound guards live to the end of their
        // block, temporaries to the end of the statement (same discipline
        // as A0003).
        struct Held {
            id: String,
            line: u32,
            depth: usize,
            temp: bool,
        }
        let mut held: Vec<Held> = Vec::new();
        let mut depth = 0usize;
        let mut stmt_start = f.body_range().start;
        for i in f.body_range() {
            let t = &toks[i];
            if t.is_punct('{') {
                depth += 1;
                stmt_start = i + 1;
                continue;
            }
            if t.is_punct('}') {
                depth = depth.saturating_sub(1);
                held.retain(|h| h.depth <= depth);
                stmt_start = i + 1;
                continue;
            }
            if t.is_punct(';') {
                held.retain(|h| !h.temp);
                stmt_start = i + 1;
                continue;
            }
            if !file.is_product(i) {
                continue;
            }
            if let Some(id) = lock_acquisition(ws, a, fi, i) {
                for h in &held {
                    if h.id != id {
                        edges.entry((h.id.clone(), id.clone())).or_insert(LockEdge {
                            steps: vec![
                                step(
                                    &f.rel,
                                    h.line,
                                    format!("`{}` acquires lock `{}`", f.qual, h.id),
                                ),
                                step(&f.rel, t.line, format!("then acquires lock `{id}`")),
                            ],
                        });
                    }
                }
                let is_let = toks.get(stmt_start).is_some_and(|t| t.is_ident("let"));
                held.push(Held {
                    id,
                    line: t.line,
                    depth,
                    temp: !is_let,
                });
                continue;
            }
            if held.is_empty() {
                continue;
            }
            if let Some(&ci) = calls_at.get(&(f.file, i)) {
                let Some(callee) = a.calls[ci].callee else {
                    continue;
                };
                for b in trans[callee].iter() {
                    for h in &held {
                        if &h.id == b || edges.contains_key(&(h.id.clone(), b.clone())) {
                            continue;
                        }
                        let Some(mut chain) = acquisition_chain(ws, a, &direct, callee, b) else {
                            continue;
                        };
                        let mut steps = vec![
                            step(
                                &f.rel,
                                h.line,
                                format!("`{}` acquires lock `{}`", f.qual, h.id),
                            ),
                            step(
                                &f.rel,
                                a.calls[ci].line,
                                format!("calls `{}` with `{}` held", a.funcs[callee].qual, h.id),
                            ),
                        ];
                        steps.append(&mut chain);
                        edges.insert((h.id.clone(), b.clone()), LockEdge { steps });
                    }
                }
            }
        }
    }

    // Cycle detection over lock ids: an edge A→B with a path B→…→A is a
    // deadlock-capable order inversion. Report each cycle once (by its
    // sorted lock set).
    let mut out = Vec::new();
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    let adj: BTreeMap<&String, Vec<&String>> =
        edges.keys().fold(BTreeMap::new(), |mut m, (x, y)| {
            m.entry(x).or_default().push(y);
            m
        });
    for ((x, y), edge) in &edges {
        let Some(path_back) = edge_path(&adj, y, x) else {
            continue;
        };
        let mut cycle: Vec<String> = vec![x.clone()];
        cycle.extend(path_back.iter().map(|s| (*s).clone()));
        let mut key = cycle.clone();
        key.sort();
        key.dedup();
        if !reported.insert(key) {
            continue;
        }
        let mut steps = edge.steps.clone();
        let mut prev = y.clone();
        for next in &path_back[1..] {
            if let Some(e) = edges.get(&(prev.clone(), (*next).clone())) {
                steps.extend(e.steps.iter().cloned());
            }
            prev = (*next).clone();
        }
        let order: Vec<&str> = cycle.iter().map(String::as_str).collect();
        out.push(Diagnostic {
            file: steps[0].file.clone(),
            line: steps[0].line,
            code: "A0008",
            message: format!(
                "lock-order cycle {} — two threads interleaving these chains deadlock; \
                 pick one global order",
                order.join(" -> "),
            ),
            path: steps,
        });
    }
    out
}

/// Canonical lock id for a `.lock()` at the `.` token, e.g.
/// `self.inner.lock()` in an `impl Sink` → `Sink.inner`. Unknown
/// receivers (chained expressions) yield `None`.
fn lock_acquisition(ws: &Workspace, a: &Analysis, func: usize, i: usize) -> Option<String> {
    let f = &a.funcs[func];
    let toks = &ws.files[f.file].tokens;
    if !(toks[i].is_punct('.')
        && toks.get(i + 1).is_some_and(|t| t.is_ident("lock"))
        && toks.get(i + 2).is_some_and(|t| t.is_punct('(')))
    {
        return None;
    }
    let mut segs: Vec<&str> = Vec::new();
    let mut k = i;
    while k >= 1 {
        let Some(name) = toks[k - 1].ident() else {
            break;
        };
        segs.push(name);
        if k >= 3 && toks[k - 2].is_punct('.') {
            k -= 2;
        } else {
            break;
        }
    }
    if segs.is_empty() {
        return None;
    }
    segs.reverse();
    let mut parts: Vec<String> = segs.iter().map(|s| (*s).to_owned()).collect();
    if parts[0] == "self" {
        parts[0] = f.impl_type.clone().unwrap_or_else(|| "Self".to_owned());
    }
    Some(parts.join("."))
}

/// Shortest call chain from `from` to a function that directly acquires
/// `lock`, rendered as path steps ending at the acquisition line.
fn acquisition_chain(
    ws: &Workspace,
    a: &Analysis,
    direct: &[Vec<(String, u32, usize)>],
    from: usize,
    lock: &str,
) -> Option<Vec<PathStep>> {
    let mut prev: BTreeMap<usize, usize> = BTreeMap::new(); // func -> call idx used
    let mut queue = VecDeque::from([from]);
    let mut seen = BTreeSet::from([from]);
    while let Some(f) = queue.pop_front() {
        if let Some((_, line, _)) = direct[f].iter().find(|(id, _, _)| id == lock) {
            // Walk back to `from`, emitting call steps forward.
            let mut calls_rev: Vec<usize> = Vec::new();
            let mut cur = f;
            while cur != from {
                let ci = prev[&cur];
                calls_rev.push(ci);
                cur = a.calls[ci].caller;
            }
            let mut steps = Vec::new();
            for &ci in calls_rev.iter().rev() {
                let c = &a.calls[ci];
                let callee = c.callee.unwrap_or(c.caller);
                steps.push(step(
                    &a.funcs[c.caller].rel,
                    c.line,
                    format!("calls `{}`", a.funcs[callee].qual),
                ));
            }
            steps.push(step(
                &a.funcs[f].rel,
                *line,
                format!("`{}` acquires lock `{lock}`", a.funcs[f].qual),
            ));
            return Some(steps);
        }
        for &ci in &a.calls_from[f] {
            let Some(callee) = a.calls[ci].callee else {
                continue;
            };
            if ws.files[a.calls[ci].file].is_product(a.calls[ci].tok) && seen.insert(callee) {
                prev.insert(callee, ci);
                queue.push_back(callee);
            }
        }
    }
    None
}

/// BFS path (as lock ids, starting at `from`'s successor… ending at
/// `to`) through the lock-order edge graph.
fn edge_path<'a>(
    adj: &BTreeMap<&'a String, Vec<&'a String>>,
    from: &'a String,
    to: &'a String,
) -> Option<Vec<&'a String>> {
    let mut prev: BTreeMap<&String, &String> = BTreeMap::new();
    let mut queue = VecDeque::from([from]);
    let mut seen: BTreeSet<&String> = BTreeSet::from([from]);
    while let Some(n) = queue.pop_front() {
        if n == to {
            let mut path = vec![n];
            let mut cur = n;
            while cur != from {
                cur = prev[cur];
                path.push(cur);
            }
            path.reverse();
            return Some(path);
        }
        for next in adj.get(n).into_iter().flatten() {
            if seen.insert(next) {
                prev.insert(next, n);
                queue.push_back(next);
            }
        }
    }
    None
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

// ---------------------------------------------------------------------------
// A0012 — interprocedural is_enabled() guard propagation.

/// Record-call sites A0002 defers to this rule: lexically unguarded, in
/// a non-pub function that has at least one resolved product call site.
pub fn guard_propagation(ws: &Workspace, a: &Analysis) -> Vec<Diagnostic> {
    // Greatest-fixpoint "context guarded": true when every product call
    // site is guarded at the site or sits in a context-guarded caller.
    let mut cg: Vec<bool> = a
        .funcs
        .iter()
        .enumerate()
        .map(|(fi, _)| !product_callers(ws, a, fi).is_empty())
        .collect();
    loop {
        let mut changed = false;
        for fi in 0..a.funcs.len() {
            if !cg[fi] {
                continue;
            }
            let ok = product_callers(ws, a, fi)
                .iter()
                .all(|&ci| a.calls[ci].guarded || cg[a.calls[ci].caller]);
            if !ok {
                cg[fi] = false;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let mut out = Vec::new();
    for (fi, f) in a.funcs.iter().enumerate() {
        let file = &ws.files[f.file];
        if file.in_dir("crates/obs") || f.is_test {
            continue;
        }
        if f.is_pub || product_callers(ws, a, fi).is_empty() {
            continue; // A0002 owns these
        }
        let toks = &file.tokens;
        let mask = &a.guard_masks[f.file];
        for i in f.body_range() {
            if !file.is_product(i) || mask.get(i).copied().unwrap_or(false) {
                continue;
            }
            let Some((recv, method, _)) = crate::rules::record_call_at(file, i) else {
                continue;
            };
            if cg[fi] {
                continue; // every caller path is guarded — the point of this rule
            }
            // Witness: one unguarded call chain from a root down to here.
            let mut steps = vec![step(
                &f.rel,
                toks[i].line,
                format!("`{recv}.{method}(…)` with no local guard in `{}`", f.qual),
            )];
            let mut cur = fi;
            let mut visited = BTreeSet::from([fi]);
            while let Some(&ci) = product_callers(ws, a, cur)
                .iter()
                .find(|&&ci| !a.calls[ci].guarded || !cg[a.calls[ci].caller])
            {
                let c = &a.calls[ci];
                steps.push(step(
                    &a.funcs[c.caller].rel,
                    c.line,
                    format!("called unguarded from `{}`", a.funcs[c.caller].qual),
                ));
                if !visited.insert(c.caller) {
                    break;
                }
                cur = c.caller;
            }
            out.push(Diagnostic {
                file: f.rel.clone(),
                line: toks[i].line,
                code: "A0012",
                message: format!(
                    "`{recv}.{method}(…)` in helper `{}` is reached on an unguarded call \
                     path — guard the call site or the helper",
                    f.qual,
                ),
                path: steps,
            });
        }
    }
    out
}

/// Resolved product call sites targeting `fi`.
fn product_callers(ws: &Workspace, a: &Analysis, fi: usize) -> Vec<usize> {
    a.callers_of[fi]
        .iter()
        .copied()
        .filter(|&ci| product_call(ws, a, ci))
        .collect()
}

/// Whether `fi` has at least one resolved product call site — the
/// criterion A0002 uses to defer a helper's record calls to A0012.
pub(crate) fn has_product_caller(ws: &Workspace, a: &Analysis, fi: usize) -> bool {
    !product_callers(ws, a, fi).is_empty()
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
    fn a0008_flags_abba_cycle_through_a_call() {
        let src = r#"
pub struct Pair { a: Mutex<u32>, b: Mutex<u32> }
impl Pair {
    pub fn ab(&self) {
        let ga = self.a.lock();
        self.take_b();
    }
    fn take_b(&self) {
        let gb = self.b.lock();
    }
    pub fn ba(&self) {
        let gb = self.b.lock();
        let ga = self.a.lock();
    }
}
"#;
        let hits = run(vec![("crates/core/src/locks.rs", src)], lock_order);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].code, "A0008");
        assert!(
            hits[0].message.contains("lock-order cycle"),
            "{}",
            hits[0].message
        );
        assert!(
            hits[0].message.contains("Pair.a") && hits[0].message.contains("Pair.b"),
            "{}",
            hits[0].message
        );
        // The witness names the interprocedural step and renders as
        // file:line steps.
        assert!(hits[0].path.len() >= 4, "{:?}", hits[0].path);
        assert!(
            hits[0]
                .path
                .iter()
                .any(|s| s.note.contains("take_b") && s.note.contains("held")),
            "{:?}",
            hits[0].path
        );
        let text = format!("{}", hits[0]);
        assert!(text.contains("at crates/core/src/locks.rs:"), "{text}");
    }

    #[test]
    fn a0008_consistent_order_is_clean() {
        let src = r#"
pub struct Pair { a: Mutex<u32>, b: Mutex<u32> }
impl Pair {
    pub fn first(&self) {
        let ga = self.a.lock();
        let gb = self.b.lock();
    }
    pub fn second(&self) {
        let ga = self.a.lock();
        let gb = self.b.lock();
    }
}
"#;
        let hits = run(vec![("crates/core/src/locks.rs", src)], lock_order);
        assert!(hits.is_empty(), "{hits:?}");
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

    fn a0002(ws: &Workspace, a: &Analysis) -> Vec<Diagnostic> {
        let rule = crate::rules::RULES
            .iter()
            .find(|r| r.code == "A0002")
            .expect("A0002 registered");
        (rule.check)(ws, a)
    }

    #[test]
    fn a0012_flags_unguarded_call_path_into_helper() {
        let src = r#"
pub fn entry(prov: &Provenance) {
    note(prov);
}
fn note(prov: &Provenance) {
    prov.record("id", |e| e.x = 1);
}
"#;
        let ws = Workspace::from_sources(vec![("crates/core/src/g.rs", src)], "");
        let a = Analysis::build(&ws);
        // A0002 defers the helper to this rule…
        assert!(a0002(&ws, &a).is_empty(), "{:?}", a0002(&ws, &a));
        // …which names the unguarded chain.
        let hits = guard_propagation(&ws, &a);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].code, "A0012");
        assert!(
            hits[0].message.contains("core::g::note"),
            "{}",
            hits[0].message
        );
        assert!(
            hits[0]
                .path
                .iter()
                .any(|s| s.note.contains("called unguarded from `core::g::entry`")),
            "{:?}",
            hits[0].path
        );
    }

    #[test]
    fn a0012_guarded_call_sites_cover_the_helper() {
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
        let ws = Workspace::from_sources(vec![("crates/core/src/g.rs", src)], "");
        let a = Analysis::build(&ws);
        assert!(a0002(&ws, &a).is_empty(), "{:?}", a0002(&ws, &a));
        let hits = guard_propagation(&ws, &a);
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn a0012_guard_propagates_through_a_middle_helper() {
        // entry guards; middle forwards; leaf records — all clean.
        let src = r#"
pub fn entry(prov: &Provenance) {
    if prov.is_enabled() {
        middle(prov);
    }
}
fn middle(prov: &Provenance) {
    leaf(prov);
}
fn leaf(prov: &Provenance) {
    prov.record("id", |e| e.x = 1);
}
"#;
        let ws = Workspace::from_sources(vec![("crates/core/src/g.rs", src)], "");
        let a = Analysis::build(&ws);
        assert!(a0002(&ws, &a).is_empty());
        let hits = guard_propagation(&ws, &a);
        assert!(hits.is_empty(), "{hits:?}");
    }
}
