//! The workspace call graph and the shared `Analysis` context.
//!
//! [`Analysis::build`] runs once per lint invocation: it extracts every
//! function definition (via [`crate::cfg`]), precomputes the per-file
//! guard masks, resolves call sites to their callees, condenses the
//! product call graph into its strongly connected components (Tarjan),
//! and computes every function's effect summary, so the interprocedural
//! rules (A0009, A0010, A0015, A0019) can walk chains instead of single
//! token windows.
//!
//! Resolution is heuristic — this is a lexer-level analysis, not rustc —
//! and it degrades *safely*: an unresolved call simply contributes no
//! edge, so reachability-based rules err toward silence rather than
//! noise. The heuristics, in order:
//!
//! 1. `Self::m(…)` → the enclosing `impl` type's method `m`.
//! 2. `Type::m(…)` (capitalized head) → the method `m` of `Type`.
//! 3. `path::to::f(…)` → the unique function whose qualified name ends
//!    with the written path (crate names normalized: `deepeye_core` →
//!    `core`, `crate` → the caller's crate).
//! 4. `recv.m(…)` → the receiver's type from `self`, a typed parameter,
//!    or a `let recv = Type::…` / `let recv: Type` local, then `Type::m`.
//! 5. A bare `f(…)` or method with unknown receiver → the unique
//!    workspace function of that name, unless the name is a common std
//!    method (`push`, `len`, `clone`, …) where "unique in workspace"
//!    proves nothing.

use crate::cfg::{self, FuncDef};
use crate::effects::EffectSummary;
use crate::lexer::Token;
use crate::lint::Workspace;
use std::collections::{BTreeMap, BTreeSet};

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Index of the calling function in [`Analysis::funcs`].
    pub caller: usize,
    /// Resolved callee (index into [`Analysis::funcs`]), when a
    /// heuristic matched.
    pub callee: Option<usize>,
    /// File index of the site (same as the caller's file).
    pub file: usize,
    /// 1-based line of the callee-name token.
    pub line: u32,
    /// Token index of the callee-name token.
    pub tok: usize,
}

/// Everything the interprocedural rules need, built once per run.
pub struct Analysis {
    pub funcs: Vec<FuncDef>,
    pub calls: Vec<CallSite>,
    /// Per function: call-site indices *inside* it.
    pub calls_from: Vec<Vec<usize>>,
    /// Per file: per-token `is_enabled()` guard mask.
    pub guard_masks: Vec<Vec<bool>>,
    /// Per file: per-token index of the innermost enclosing function.
    owner: Vec<Vec<Option<usize>>>,
    /// SCC-condensed reachability over resolved product calls, shared
    /// by every interprocedural rule (A0009, A0015).
    pub reach: Reachability,
    /// Per-function effect summaries (see [`crate::effects`]), indexed
    /// like `funcs`.
    pub effects: Vec<EffectSummary>,
}

/// The one SCC-condensed reachability relation over the product call
/// graph. Built once per [`Analysis::build`]; `reaches` is then two
/// component lookups and one bit test, so rules no longer re-walk the
/// graph per entry point.
pub struct Reachability {
    /// Tarjan condensation of the product call graph (components in
    /// reverse topological order — callees before callers).
    pub scc: CondensedGraph,
    /// Per component: reachable components (including itself).
    reach: Vec<BitSet>,
}

impl Reachability {
    /// A relation over the empty graph (placeholder during build).
    pub fn empty() -> Reachability {
        Reachability {
            scc: condense(0, &[]),
            reach: Vec::new(),
        }
    }

    /// Condense the resolved product call edges of `a`.
    pub fn build(ws: &Workspace, a: &Analysis) -> Reachability {
        let n = a.funcs.len();
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for c in &a.calls {
            let Some(callee) = c.callee else { continue };
            if ws.files[c.file].is_product(c.tok)
                && !a.funcs[c.caller].is_test
                && !a.funcs[callee].is_test
            {
                succs[c.caller].push(callee);
            }
        }
        for out in &mut succs {
            out.sort_unstable();
            out.dedup();
        }
        let scc = condense(n, &succs);
        let reach = scc.reachable_sets();
        Reachability { scc, reach }
    }

    /// The component of function `f`.
    pub fn component(&self, f: usize) -> usize {
        self.scc.comp_of.get(f).copied().unwrap_or(0)
    }

    /// `from` can reach `to` through resolved product calls (reflexive:
    /// every function reaches itself).
    pub fn reaches(&self, from: usize, to: usize) -> bool {
        match (self.scc.comp_of.get(from), self.scc.comp_of.get(to)) {
            (Some(&a), Some(&b)) => self.reach.get(a).is_some_and(|set| set.contains(b)),
            _ => false,
        }
    }
}

/// A dense bit set over `0..n`, the representation of one row of the
/// condensed reachability relation.
#[derive(Clone, Default)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    pub fn new(n: usize) -> BitSet {
        BitSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    pub fn insert(&mut self, i: usize) {
        if let Some(w) = self.words.get_mut(i / 64) {
            *w |= 1u64 << (i % 64);
        }
    }

    pub fn contains(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    /// `self |= other`.
    pub fn union_with(&mut self, other: &BitSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
        }
    }
}

/// Tarjan SCC condensation of a directed graph.
///
/// Components are emitted in **reverse topological order**: every edge
/// of the condensation points from a later component to an earlier one
/// (`comp_succs[c]` only contains indices `< c`), so a bottom-up
/// interprocedural pass is a single ascending sweep over `comps`.
pub struct CondensedGraph {
    /// Node → component index.
    pub comp_of: Vec<usize>,
    /// Component → member nodes (sorted), callees-first order.
    pub comps: Vec<Vec<usize>>,
    /// Condensation edges (deduped, each strictly decreasing).
    pub comp_succs: Vec<Vec<usize>>,
}

impl CondensedGraph {
    /// Per component: the set of components reachable from it,
    /// including itself — one ascending sweep thanks to the reverse
    /// topological component order.
    pub fn reachable_sets(&self) -> Vec<BitSet> {
        let n = self.comps.len();
        let mut reach: Vec<BitSet> = Vec::with_capacity(n);
        for c in 0..n {
            let mut set = BitSet::new(n);
            set.insert(c);
            for &s in &self.comp_succs[c] {
                if let Some(prev) = reach.get(s) {
                    set.union_with(prev);
                }
            }
            reach.push(set);
        }
        reach
    }
}

/// Iterative Tarjan over `0..n` with adjacency `succs` (out-of-range
/// targets are ignored). No recursion, so workspace-deep call chains
/// cannot overflow the stack.
pub fn condense(n: usize, succs: &[Vec<usize>]) -> CondensedGraph {
    const UNSEEN: usize = usize::MAX;
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut comp_of = vec![0usize; n];
    let mut comps: Vec<Vec<usize>> = Vec::new();
    let mut next_index = 0usize;
    let mut frames: Vec<(usize, usize)> = Vec::new();

    for root in 0..n {
        if index[root] != UNSEEN {
            continue;
        }
        index[root] = next_index;
        low[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;
        frames.push((root, 0));
        while let Some(&mut (v, ref mut child)) = frames.last_mut() {
            let edges: &[usize] = succs.get(v).map(|e| e.as_slice()).unwrap_or(&[]);
            if *child < edges.len() {
                let w = edges[*child];
                *child += 1;
                if w >= n {
                    continue;
                }
                if index[w] == UNSEEN {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(p, _)) = frames.last() {
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp_of[w] = comps.len();
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    comps.push(comp);
                }
            }
        }
    }

    let mut succ_sets: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); comps.len()];
    for (v, out) in succs.iter().enumerate().take(n) {
        for &w in out {
            if w < n && comp_of[v] != comp_of[w] {
                succ_sets[comp_of[v]].insert(comp_of[w]);
            }
        }
    }
    CondensedGraph {
        comp_of,
        comps,
        comp_succs: succ_sets
            .into_iter()
            .map(|s| s.into_iter().collect())
            .collect(),
    }
}

/// A witness chain of call sites from `from` toward `to` over resolved
/// product calls, following the precomputed reachability relation and
/// capped at the first cycle: the walk never re-enters a component, so
/// recursive groups contribute one representative step instead of an
/// unbounded spiral. Returns call-site indices; may stop short of `to`
/// when the only remaining path loops back through a visited component.
pub fn product_chain(ws: &Workspace, a: &Analysis, from: usize, to: usize) -> Vec<usize> {
    let mut chain = Vec::new();
    let mut seen: BTreeSet<usize> = BTreeSet::new();
    let mut cur = from;
    seen.insert(a.reach.component(cur));
    while cur != to {
        let mut advanced = false;
        for &ci in &a.calls_from[cur] {
            let c = &a.calls[ci];
            let Some(callee) = c.callee else { continue };
            if !ws.files[c.file].is_product(c.tok) || a.funcs[callee].is_test {
                continue;
            }
            if callee != to {
                if !a.reach.reaches(callee, to) {
                    continue;
                }
                if seen.contains(&a.reach.component(callee)) {
                    continue;
                }
            }
            chain.push(ci);
            seen.insert(a.reach.component(callee));
            cur = callee;
            advanced = true;
            break;
        }
        if !advanced {
            break;
        }
    }
    chain
}

/// Methods so common in std that a unique *workspace* definition of the
/// same name proves nothing about a call with an unknown receiver.
const COMMON_METHODS: &[&str] = &[
    "abs",
    "as_ref",
    "as_str",
    "clear",
    "clone",
    "cmp",
    "collect",
    "contains",
    "default",
    "drop",
    "ends_with",
    "eq",
    "extend",
    "fetch_add",
    "fetch_max",
    "fetch_min",
    "fetch_sub",
    "filter",
    "find",
    "fmt",
    "fold",
    "from",
    "get",
    "hash",
    "insert",
    "into",
    "is_empty",
    "iter",
    "join",
    "len",
    "load",
    "lock",
    "map",
    "max",
    "min",
    "new",
    "next",
    "parse",
    "pop",
    "position",
    "push",
    "read",
    "remove",
    "replace",
    "reserve",
    "sort",
    "split",
    "starts_with",
    "store",
    "swap",
    "take",
    "to_owned",
    "to_string",
    "with_capacity",
    "write",
];

impl Analysis {
    /// Extract functions, masks, and the resolved call graph.
    pub fn build(ws: &Workspace) -> Analysis {
        let mut funcs: Vec<FuncDef> = Vec::new();
        let mut guard_masks: Vec<Vec<bool>> = Vec::new();
        let mut owner: Vec<Vec<Option<usize>>> = Vec::new();
        for (fi, file) in ws.files.iter().enumerate() {
            let start = funcs.len();
            funcs.extend(cfg::functions_in_file(file, fi));
            guard_masks.push(cfg::guard_mask(file));
            // Innermost-function ownership: outer functions are emitted
            // before the nested ones they contain, so assigning in order
            // lets inner ranges overwrite outer ones.
            let mut own = vec![None; file.tokens.len()];
            for (qi, f) in funcs.iter().enumerate().skip(start) {
                for slot in own
                    .iter_mut()
                    .take(f.body_end.min(file.tokens.len()))
                    .skip(f.body_start)
                {
                    *slot = Some(qi);
                }
            }
            owner.push(own);
        }

        // Name and type-method indices for resolution.
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut by_type_method: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        for (i, f) in funcs.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(i);
            if let Some(ty) = &f.impl_type {
                by_type_method
                    .entry((ty.clone(), f.name.clone()))
                    .or_default()
                    .push(i);
            }
        }

        let mut analysis = Analysis {
            calls_from: vec![Vec::new(); funcs.len()],
            funcs,
            calls: Vec::new(),
            guard_masks,
            owner,
            reach: Reachability::empty(),
            effects: Vec::new(),
        };
        for fi in 0..ws.files.len() {
            analysis.extract_calls(ws, fi, &by_name, &by_type_method);
        }
        for (ci, c) in analysis.calls.iter().enumerate() {
            analysis.calls_from[c.caller].push(ci);
        }
        analysis.reach = Reachability::build(ws, &analysis);
        analysis.effects = crate::effects::summarize(ws, &analysis);
        analysis
    }

    /// The innermost function containing token `tok` of file `file`.
    fn func_at(&self, file: usize, tok: usize) -> Option<usize> {
        self.owner.get(file)?.get(tok).copied().flatten()
    }

    fn extract_calls(
        &mut self,
        ws: &Workspace,
        fi: usize,
        by_name: &BTreeMap<String, Vec<usize>>,
        by_type_method: &BTreeMap<(String, String), Vec<usize>>,
    ) {
        let file = &ws.files[fi];
        let toks = &file.tokens;
        // Per-function local types are lazily built on first use.
        let mut local_types: BTreeMap<usize, BTreeMap<String, String>> = BTreeMap::new();
        for (i, tok) in toks.iter().enumerate() {
            let Some(caller) = self.func_at(fi, i) else {
                continue;
            };
            let site = if tok.is_punct('.') {
                self.method_call(fi, i, caller, by_name, by_type_method, &mut local_types, ws)
            } else {
                self.path_call(fi, i, caller, by_name, by_type_method, ws)
            };
            if let Some(site) = site {
                self.calls.push(site);
            }
        }
    }

    /// `recv.m(…)` at a `.` token.
    #[allow(clippy::too_many_arguments)]
    fn method_call(
        &self,
        fi: usize,
        i: usize,
        caller: usize,
        by_name: &BTreeMap<String, Vec<usize>>,
        by_type_method: &BTreeMap<(String, String), Vec<usize>>,
        local_types: &mut BTreeMap<usize, BTreeMap<String, String>>,
        ws: &Workspace,
    ) -> Option<CallSite> {
        let toks = &ws.files[fi].tokens;
        let name = toks.get(i + 1).and_then(Token::ident)?;
        if !toks.get(i + 2).is_some_and(|t| t.is_punct('(')) {
            return None;
        }
        let f = &self.funcs[caller];
        // Receiver type, best effort.
        let recv_ty: Option<String> = match toks.get(i.wrapping_sub(1)) {
            Some(prev) if prev.is_ident("self") => f.impl_type.clone(),
            Some(prev) => prev.ident().and_then(|recv| {
                f.params
                    .iter()
                    .find(|(p, _)| p == recv)
                    .map(|(_, ty)| ty.clone())
                    .filter(|ty| !ty.is_empty())
                    .or_else(|| {
                        local_types
                            .entry(caller)
                            .or_insert_with(|| local_let_types(toks, f))
                            .get(recv)
                            .cloned()
                    })
            }),
            None => None,
        };
        let callee = match recv_ty.as_deref() {
            Some(ty) => by_type_method
                .get(&(ty.to_owned(), name.to_owned()))
                .filter(|c| c.len() == 1)
                .map(|c| c[0]),
            None => self.unique_fallback(name, caller, by_name),
        };
        Some(site(fi, i + 1, toks[i + 1].line, caller, callee))
    }

    /// `f(…)`, `path::f(…)`, `Type::m(…)`, `Self::m(…)` at the
    /// callee-name ident token (the one directly before the `(`).
    fn path_call(
        &self,
        fi: usize,
        i: usize,
        caller: usize,
        by_name: &BTreeMap<String, Vec<usize>>,
        by_type_method: &BTreeMap<(String, String), Vec<usize>>,
        ws: &Workspace,
    ) -> Option<CallSite> {
        let toks = &ws.files[fi].tokens;
        let name = toks[i].ident()?;
        if !toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            return None;
        }
        // Not a method call (handled at the `.`), not a definition, not a
        // macro (`name!(` never lands here — the `!` sits between).
        if toks
            .get(i.wrapping_sub(1))
            .is_some_and(|t| t.is_punct('.') || t.is_ident("fn"))
        {
            return None;
        }
        if cfg::is_keyword(name) {
            return None;
        }
        // Collect the `::`-separated path leading up to the name.
        let mut segs: Vec<&str> = vec![name];
        let mut j = i;
        while j >= 3
            && toks[j - 1].is_punct(':')
            && toks[j - 2].is_punct(':')
            && toks[j - 3].ident().is_some()
        {
            segs.push(toks[j - 3].ident().unwrap_or_default());
            j -= 3;
        }
        segs.reverse();
        let f = &self.funcs[caller];
        let callee = if segs.len() >= 2 {
            let head = segs[segs.len() - 2];
            if head == "Self" {
                f.impl_type.as_deref().and_then(|ty| {
                    by_type_method
                        .get(&(ty.to_owned(), name.to_owned()))
                        .filter(|c| c.len() == 1)
                        .map(|c| c[0])
                })
            } else if head.chars().next().is_some_and(char::is_uppercase) {
                by_type_method
                    .get(&(head.to_owned(), name.to_owned()))
                    .filter(|c| c.len() == 1)
                    .map(|c| c[0])
            } else {
                self.resolve_module_path(&segs, caller, by_name)
            }
        } else {
            self.resolve_free(name, caller, by_name)
        };
        Some(site(fi, i, toks[i].line, caller, callee))
    }

    /// Resolve `path::to::f` by qualified-name suffix match, after
    /// normalizing crate-name segments (`deepeye_core` → `core`,
    /// `crate` → the caller's own crate).
    fn resolve_module_path(
        &self,
        segs: &[&str],
        caller: usize,
        by_name: &BTreeMap<String, Vec<usize>>,
    ) -> Option<usize> {
        let caller_crate = self.funcs[caller]
            .qual
            .split("::")
            .next()
            .unwrap_or_default()
            .to_owned();
        let norm: Vec<String> = segs
            .iter()
            .map(|s| {
                if *s == "crate" {
                    caller_crate.clone()
                } else if let Some(rest) = s.strip_prefix("deepeye_") {
                    rest.to_owned()
                } else {
                    (*s).to_owned()
                }
            })
            .collect();
        let suffix = norm.join("::");
        let name = segs.last()?;
        let cands = by_name.get(*name)?;
        let matches: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&c| {
                let q = &self.funcs[c].qual;
                q == &suffix || q.ends_with(&format!("::{suffix}"))
            })
            .collect();
        match matches.len() {
            1 => Some(matches[0]),
            0 => {
                // The written path may skip intermediate modules
                // (`deepeye_core::prune(…)` re-exported from a submodule):
                // fall back to crate + name agreement when unique.
                let krate = norm.first()?;
                let loose: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&c| {
                        let f = &self.funcs[c];
                        f.impl_type.is_none() && f.qual.starts_with(&format!("{krate}::"))
                    })
                    .collect();
                (loose.len() == 1).then(|| loose[0])
            }
            _ => None,
        }
    }

    /// Resolve a bare `f(…)`: same file first, then unique in the
    /// caller's crate, then unique in the workspace.
    fn resolve_free(
        &self,
        name: &str,
        caller: usize,
        by_name: &BTreeMap<String, Vec<usize>>,
    ) -> Option<usize> {
        let cands = by_name.get(name)?;
        let free: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&c| self.funcs[c].impl_type.is_none())
            .collect();
        let caller_file = self.funcs[caller].file;
        let same_file: Vec<usize> = free
            .iter()
            .copied()
            .filter(|&c| self.funcs[c].file == caller_file)
            .collect();
        if same_file.len() == 1 {
            return Some(same_file[0]);
        }
        let caller_crate = self.funcs[caller].qual.split("::").next().unwrap_or("");
        let same_crate: Vec<usize> = free
            .iter()
            .copied()
            .filter(|&c| self.funcs[c].qual.starts_with(&format!("{caller_crate}::")))
            .collect();
        if same_crate.len() == 1 {
            return Some(same_crate[0]);
        }
        (free.len() == 1).then(|| free[0])
    }

    /// Unique-name fallback for method calls with an unknown receiver,
    /// restricted to the caller's own crate: cross-crate calls are
    /// written with paths or typed receivers, so a lone same-name
    /// function in some *other* crate proves nothing.
    fn unique_fallback(
        &self,
        name: &str,
        caller: usize,
        by_name: &BTreeMap<String, Vec<usize>>,
    ) -> Option<usize> {
        if COMMON_METHODS.contains(&name) {
            return None;
        }
        let caller_crate = self.funcs[caller].qual.split("::").next().unwrap_or("");
        let cands: Vec<usize> = by_name
            .get(name)?
            .iter()
            .copied()
            .filter(|&c| self.funcs[c].qual.starts_with(&format!("{caller_crate}::")))
            .collect();
        (cands.len() == 1).then(|| cands[0])
    }
}

fn site(file: usize, tok: usize, line: u32, caller: usize, callee: Option<usize>) -> CallSite {
    CallSite {
        caller,
        callee,
        file,
        line,
        tok,
    }
}

/// `let [mut] name: Type` and `let [mut] name = Type::…` bindings in a
/// function body.
fn local_let_types(toks: &[Token], f: &FuncDef) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let range = f.body_range();
    let mut i = range.start;
    while i < range.end.min(toks.len()) {
        if toks[i].is_ident("let") {
            let mut k = i + 1;
            if toks.get(k).is_some_and(|t| t.is_ident("mut")) {
                k += 1;
            }
            if let Some(name) = toks.get(k).and_then(Token::ident) {
                // `let name: Type` — annotated.
                if toks.get(k + 1).is_some_and(|t| t.is_punct(':'))
                    && !toks.get(k + 2).is_some_and(|t| t.is_punct(':'))
                {
                    if let Some(ty) = toks.get(k + 2).and_then(Token::ident) {
                        if ty.chars().next().is_some_and(char::is_uppercase) {
                            out.insert(name.to_owned(), ty.to_owned());
                        }
                    }
                }
                // `let name = Type::…` — constructor-style.
                if toks.get(k + 1).is_some_and(|t| t.is_punct('=')) {
                    if let Some(ty) = toks.get(k + 2).and_then(Token::ident) {
                        if ty.chars().next().is_some_and(char::is_uppercase)
                            && toks.get(k + 3).is_some_and(|t| t.is_punct(':'))
                            && toks.get(k + 4).is_some_and(|t| t.is_punct(':'))
                        {
                            out.insert(name.to_owned(), ty.to_owned());
                        }
                    }
                }
            }
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::Workspace;

    fn build(files: Vec<(&str, &str)>) -> Analysis {
        Analysis::build(&Workspace::from_sources(files, ""))
    }

    fn edge(a: &Analysis, caller: &str, callee: &str) -> bool {
        a.calls.iter().any(|c| {
            a.funcs[c.caller].qual == caller
                && c.callee.is_some_and(|idx| a.funcs[idx].qual == callee)
        })
    }

    #[test]
    fn resolves_free_and_path_calls() {
        let a = build(vec![
            (
                "crates/core/src/alpha.rs",
                "pub fn entry() { helper(); crate::beta::shared(); }\nfn helper() {}",
            ),
            ("crates/core/src/beta.rs", "pub fn shared() {}"),
        ]);
        assert!(edge(&a, "core::alpha::entry", "core::alpha::helper"));
        assert!(edge(&a, "core::alpha::entry", "core::beta::shared"));
    }

    #[test]
    fn resolves_cross_crate_paths() {
        let a = build(vec![
            (
                "crates/query/src/plan.rs",
                "pub fn plan() { deepeye_core::rank::score(); }",
            ),
            ("crates/core/src/rank.rs", "pub fn score() {}"),
        ]);
        assert!(edge(&a, "query::plan::plan", "core::rank::score"));
    }

    #[test]
    fn resolves_self_and_type_method_calls() {
        let src = r#"
struct Widget;
impl Widget {
    pub fn make() -> Widget { Self::setup(); Widget }
    fn setup() {}
    pub fn run(&self) { self.step(); Widget::setup(); }
    fn step(&self) {}
}
"#;
        let a = build(vec![("crates/core/src/w.rs", src)]);
        assert!(edge(&a, "core::w::Widget::make", "core::w::Widget::setup"));
        assert!(edge(&a, "core::w::Widget::run", "core::w::Widget::step"));
        assert!(edge(&a, "core::w::Widget::run", "core::w::Widget::setup"));
    }

    #[test]
    fn resolves_trait_method_through_typed_receiver() {
        let src = r#"
struct Sink;
trait Emit {
    fn emit(&self);
}
impl Emit for Sink {
    fn emit(&self) {}
}
pub fn drive(sink: &Sink) { sink.emit(); }
"#;
        let a = build(vec![("crates/core/src/s.rs", src)]);
        assert!(
            edge(&a, "core::s::drive", "core::s::Sink::emit"),
            "calls: {:?}",
            a.calls
                .iter()
                .map(|c| (&a.funcs[c.caller].qual, c.line, c.callee))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn resolves_local_let_receiver() {
        let src = r#"
struct Engine;
impl Engine {
    pub fn fresh() -> Engine { Engine }
    pub fn go(&self) {}
}
pub fn main_loop() {
    let eng = Engine::fresh();
    eng.go();
}
"#;
        let a = build(vec![("crates/core/src/e.rs", src)]);
        assert!(edge(&a, "core::e::main_loop", "core::e::Engine::fresh"));
        assert!(edge(&a, "core::e::main_loop", "core::e::Engine::go"));
    }

    #[test]
    fn common_method_names_do_not_false_resolve() {
        let src = r#"
struct Store;
impl Store {
    pub fn len(&self) -> usize { 0 }
}
pub fn count(items: &[u32]) -> usize { items.len() }
"#;
        let a = build(vec![("crates/core/src/c.rs", src)]);
        assert!(
            !edge(&a, "core::c::count", "core::c::Store::len"),
            "a slice .len() must not resolve to Store::len"
        );
    }

    #[test]
    fn condensation_is_reverse_topological() {
        // 0 -> 1 <-> 2 -> 3, 0 -> 3.
        let succs = vec![vec![1, 3], vec![2], vec![1, 3], vec![]];
        let g = condense(4, &succs);
        assert_eq!(g.comps.len(), 3);
        assert_eq!(g.comp_of[1], g.comp_of[2]);
        for (c, out) in g.comp_succs.iter().enumerate() {
            for &s in out {
                assert!(s < c, "condensation edge {c} -> {s} not reverse-topo");
            }
        }
        let reach = g.reachable_sets();
        assert!(reach[g.comp_of[0]].contains(g.comp_of[3]));
        assert!(reach[g.comp_of[1]].contains(g.comp_of[3]));
        assert!(!reach[g.comp_of[3]].contains(g.comp_of[0]));
    }

    #[test]
    fn bitset_roundtrip() {
        let mut s = BitSet::new(130);
        s.insert(0);
        s.insert(64);
        s.insert(129);
        let mut t = BitSet::new(130);
        t.insert(65);
        s.union_with(&t);
        for i in [0usize, 64, 65, 129] {
            assert!(s.contains(i));
        }
        assert!(!s.contains(1));
        assert!(!s.contains(200));
    }
}
