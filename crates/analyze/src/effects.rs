//! Interprocedural effect summaries and the rules they power.
//!
//! This is the client layer of [`crate::absint`]: per-function effect
//! sets (allocates / locks / does-io / may-panic) are computed with the
//! fixpoint solver over each function's CFG-lite, then propagated
//! bottom-up over the Tarjan condensation of the call graph so that a
//! caller's summary includes everything its callees may do. Each
//! function gets **two** summaries:
//!
//! * `full` — effects on any path, with every branch assumed takeable;
//! * `off` — effects in the *disabled world*, where every
//!   `is_enabled()` check returns false and every `self.inner`-style
//!   `Option` gate is `None`. Tokens that only execute when enabled are
//!   masked out, and calls propagate the callee's `off` summary.
//!
//! The disabled world is what the zero-cost claim quantifies over:
//! rule A0015 demands `off` be pure for every gate-bearing function of
//! the observability layer (and `full` be pure for `NoCost`
//! monomorphizations), with a witness chain naming the first effect
//! when the proof fails. The interval domain powers A0018 (possibly-zero
//! divisors), and A0019 keeps DESIGN.md's zero-cost claims honest
//! against the engine.

use crate::absint::{
    fixpoint, EffectSet, Interval, JoinSemiLattice, EFFECT_ALLOC, EFFECT_BITS, EFFECT_IO,
    EFFECT_LOCK, EFFECT_PANIC,
};
use crate::callgraph::Analysis;
use crate::cfg::{find_body_open, Cfg, FuncDef};
use crate::lexer::{matching_brace, Token};
use crate::lint::{Diagnostic, PathStep, SourceFile, Workspace};
use std::collections::{BTreeMap, BTreeSet};

/// Where an effect bit first enters a function's summary.
#[derive(Debug, Clone)]
pub enum Witness {
    /// A marker in the function's own body.
    Direct { line: u32, what: String },
    /// Imported through a call site (index into `Analysis::calls`).
    Call { site: usize },
}

/// Per-function effect summary, indexed like `Analysis::funcs`.
#[derive(Debug, Clone, Default)]
pub struct EffectSummary {
    /// Effects on any path.
    pub full: EffectSet,
    /// Effects in the disabled world (all gates closed).
    pub off: EffectSet,
    /// The body contains a disabled-path short-circuit: an
    /// `is_enabled()` guard, an `Option`-field gate, or a closure passed
    /// to a gated callee.
    pub has_gate: bool,
    /// Per effect bit (in [`EFFECT_BITS`] order): first witness on the
    /// any-path summary.
    pub full_witness: [Option<Witness>; 4],
    /// Per effect bit: first witness in the disabled world.
    pub off_witness: [Option<Witness>; 4],
}

/// One per-function row of `analyze --effects`: the zero-cost proof for
/// the functions the theorem covers (obs/provenance sources plus
/// `NoCost` impls).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EffectRow {
    /// Module-qualified function name.
    pub qual: String,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Any-path effect names, [`EFFECT_BITS`] order.
    pub effects: Vec<&'static str>,
    /// Disabled-world effect names (subset of `effects`).
    pub disabled: Vec<&'static str>,
    /// Whether the body carries a recognized gate shape.
    pub gated: bool,
}

impl EffectRow {
    /// The row's headline claim: nothing happens when the layer is off.
    pub fn pure_when_disabled(&self) -> bool {
        self.disabled.is_empty()
    }
}

/// Collect the rows for every theorem-covered function, sorted by
/// (qual, file, line) so the output is deterministic.
pub fn effect_rows(ws: &Workspace, a: &Analysis) -> Vec<EffectRow> {
    let mut rows: Vec<EffectRow> = a
        .funcs
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            !f.is_test
                && ws.files[f.file].is_product(f.body_start)
                && (zero_cost_scope(&f.rel) || f.impl_type.as_deref() == Some("NoCost"))
        })
        .map(|(fi, f)| {
            let s = &a.effects[fi];
            EffectRow {
                qual: f.qual.clone(),
                file: f.rel.clone(),
                line: f.line,
                effects: s.full.names(),
                disabled: s.off.names(),
                gated: s.has_gate,
            }
        })
        .collect();
    rows.sort_by(|x, y| {
        (x.qual.as_str(), x.file.as_str(), x.line).cmp(&(y.qual.as_str(), y.file.as_str(), y.line))
    });
    rows
}

/// Position of an effect bit in [`EFFECT_BITS`] order.
fn bit_index(bit: u8) -> usize {
    EFFECT_BITS.iter().position(|&(b, _)| b == bit).unwrap_or(0)
}

/// Index one past the `)` matching the `(` at `open` (or `len`).
fn matching_paren(toks: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return k + 1;
            }
        }
    }
    toks.len()
}

/// Methods that allocate on (or into) their receiver.
const ALLOC_METHODS: &[&str] = &[
    "append",
    "clone",
    "collect",
    "extend",
    "insert",
    "or_default",
    "or_insert",
    "or_insert_with",
    "push",
    "push_back",
    "push_str",
    "reserve",
    "resize",
    "to_owned",
    "to_string",
    "to_vec",
];

/// If a direct effect marker starts at token `i`, the effect bit and a
/// human-readable description of it.
fn direct_marker(toks: &[Token], i: usize) -> Option<(u8, String)> {
    let t = &toks[i];
    // `.method(` markers trigger on the dot.
    if t.is_punct('.') {
        let name = toks.get(i + 1).and_then(Token::ident)?;
        let called = toks
            .get(i + 2)
            .is_some_and(|t| t.is_punct('(') || t.is_punct(':'));
        if !called {
            return None;
        }
        if ALLOC_METHODS.contains(&name) {
            return Some((EFFECT_ALLOC, format!("`.{name}(…)` allocates")));
        }
        if name == "lock" {
            return Some((EFFECT_LOCK, "`.lock()` takes a lock".to_owned()));
        }
        if name == "unwrap" || name == "expect" {
            return Some((EFFECT_PANIC, format!("`.{name}(…)` may panic")));
        }
        return None;
    }
    let word = t.ident()?;
    let next_bang = toks.get(i + 1).is_some_and(|t| t.is_punct('!'));
    if next_bang {
        match word {
            "format" | "vec" => return Some((EFFECT_ALLOC, format!("`{word}!` allocates"))),
            "println" | "eprintln" | "print" | "eprint" => {
                return Some((EFFECT_IO, format!("`{word}!` performs I/O")))
            }
            "panic" | "unreachable" | "todo" | "unimplemented" | "assert" | "assert_eq"
            | "assert_ne" => return Some((EFFECT_PANIC, format!("`{word}!` may panic"))),
            _ => return None,
        }
    }
    let next_path = toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 2).is_some_and(|t| t.is_punct(':'));
    if next_path {
        if matches!(word, "Box" | "Arc" | "Rc")
            && toks.get(i + 3).is_some_and(|t| t.is_ident("new"))
        {
            return Some((EFFECT_ALLOC, format!("`{word}::new` allocates")));
        }
        if word == "fs" || word == "File" {
            return Some((EFFECT_IO, format!("`{word}::…` performs I/O")));
        }
    }
    if toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
        if word == "with_capacity" {
            return Some((EFFECT_ALLOC, "`with_capacity(…)` allocates".to_owned()));
        }
        if matches!(word, "stdout" | "stderr" | "stdin") {
            return Some((EFFECT_IO, format!("`{word}()` touches a standard stream")));
        }
    }
    if matches!(word, "TcpStream" | "UdpSocket") {
        return Some((EFFECT_IO, format!("`{word}` performs I/O")));
    }
    None
}

/// Whether tokens `[k..]` start a `self.FIELD` access where FIELD is a
/// plain field (not a method call).
fn self_field_at(toks: &[Token], k: usize) -> bool {
    toks.get(k).is_some_and(|t| t.is_ident("self"))
        && toks.get(k + 1).is_some_and(|t| t.is_punct('.'))
        && toks.get(k + 2).and_then(Token::ident).is_some()
        && !toks.get(k + 3).is_some_and(|t| t.is_punct('('))
}

/// Whether tokens at `k` are a `self.inner` access — the
/// `inner: Option<Arc<Inner>>` disabled-state convention Observer and
/// Provenance share. Only this field gates the disabled world; an
/// arbitrary `self.field` Option carries data, not enablement.
fn state_field_at(toks: &[Token], k: usize) -> bool {
    self_field_at(toks, k) && toks.get(k + 2).is_some_and(|t| t.is_ident("inner"))
}

/// Whether any token in `[start, end)` is a `self.inner` access.
fn window_has_state_field(toks: &[Token], start: usize, end: usize) -> bool {
    (start..end.min(toks.len())).any(|k| state_field_at(toks, k))
}

/// Intrinsic disabled-world mask for one function: `true` where a token
/// does **not** execute when the gates are closed. Covers:
///
/// * tokens behind an `is_enabled()` guard (via the guard mask);
/// * `if let Some(p) = <…self.field…> { body }` — the body;
/// * `let Some(p) = <…self.field…> else { diverge };` — everything
///   after the `else` block (the block itself *is* the disabled path);
/// * `self.field.as_ref()?` / `as_mut()?` — everything after the `?`;
/// * `self.field.as_ref().map(|…| …)` / `.and_then(…)` — the call args.
///
/// Returns the mask (indexed `tok - body_start`) and whether any gate
/// shape was found.
fn off_mask(f: &FuncDef, toks: &[Token], guard: &[bool]) -> (Vec<bool>, bool) {
    let base = f.body_start;
    let range = f.body_range();
    let mut mask = vec![false; f.body_end.saturating_sub(base)];
    let mut gated = false;
    let set = |mask: &mut Vec<bool>, from: usize, to: usize| {
        for k in from.max(base)..to.min(base + mask.len()) {
            mask[k - base] = true;
        }
    };
    for i in range.clone() {
        if guard.get(i).copied().unwrap_or(false) {
            mask[i - base] = true;
            gated = true;
        }
    }
    let mut i = range.start;
    while i < range.end.min(toks.len()) {
        // `if let Some(p) = <cond> { body }`
        if toks[i].is_ident("if")
            && toks.get(i + 1).is_some_and(|t| t.is_ident("let"))
            && toks.get(i + 2).is_some_and(|t| t.is_ident("Some"))
        {
            if let Some(eq) = assign_eq(toks, i + 3, range.end) {
                if let Some(open) = find_body_open(toks, eq + 1) {
                    if window_has_state_field(toks, eq + 1, open) {
                        let close = matching_brace(toks, open);
                        set(&mut mask, open + 1, close.saturating_sub(1));
                        gated = true;
                        i = open + 1;
                        continue;
                    }
                }
            }
        }
        // `let Some(p) = <cond> else { diverge };` — mask the rest.
        if toks[i].is_ident("let") && toks.get(i + 1).is_some_and(|t| t.is_ident("Some")) {
            if let Some(eq) = assign_eq(toks, i + 2, range.end) {
                let mut j = eq + 1;
                let mut depth = 0i32;
                let mut else_at = None;
                while j < range.end.min(toks.len()) {
                    match () {
                        _ if toks[j].is_punct('(') || toks[j].is_punct('[') => depth += 1,
                        _ if toks[j].is_punct(')') || toks[j].is_punct(']') => depth -= 1,
                        _ if depth == 0 && toks[j].is_ident("else") => {
                            else_at = Some(j);
                            break;
                        }
                        _ if depth == 0 && (toks[j].is_punct(';') || toks[j].is_punct('{')) => {
                            break
                        }
                        _ => {}
                    }
                    j += 1;
                }
                if let Some(e) = else_at {
                    if window_has_state_field(toks, eq + 1, e) {
                        if let Some(open) = find_body_open(toks, e + 1) {
                            let close = matching_brace(toks, open);
                            set(&mut mask, close, range.end);
                            gated = true;
                            i = close;
                            continue;
                        }
                    }
                }
            }
        }
        // `self.inner.as_ref()?` / `as_mut()?` — early return when None.
        if state_field_at(toks, i)
            && toks.get(i + 3).is_some_and(|t| t.is_punct('.'))
            && toks
                .get(i + 4)
                .is_some_and(|t| t.is_ident("as_ref") || t.is_ident("as_mut"))
            && toks.get(i + 5).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 6).is_some_and(|t| t.is_punct(')'))
        {
            if toks.get(i + 7).is_some_and(|t| t.is_punct('?')) {
                set(&mut mask, i + 8, range.end);
                gated = true;
                i += 8;
                continue;
            }
            // `.map(` / `.and_then(` — the closure only runs enabled.
            if toks.get(i + 7).is_some_and(|t| t.is_punct('.'))
                && toks
                    .get(i + 8)
                    .is_some_and(|t| t.is_ident("map") || t.is_ident("and_then"))
                && toks.get(i + 9).is_some_and(|t| t.is_punct('('))
            {
                let close = matching_paren(toks, i + 9);
                set(&mut mask, i + 10, close.saturating_sub(1));
                gated = true;
                i = close;
                continue;
            }
        }
        i += 1;
    }
    (mask, gated)
}

/// The `=` of a `let`/`if let` binding: first `=` at bracket depth 0
/// that is not part of `==`, `=>`, `>=`, `<=` or `!=`.
fn assign_eq(toks: &[Token], from: usize, end: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut j = from;
    while j < end.min(toks.len()) {
        let t = &toks[j];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if depth == 0 && t.is_punct('{') {
            return None;
        } else if depth == 0 && t.is_punct('=') {
            let prev_rel = j > from
                && toks
                    .get(j - 1)
                    .is_some_and(|p| matches!(p.tok, crate::lexer::Tok::Punct('<' | '>' | '!')));
            let next_eq = toks
                .get(j + 1)
                .is_some_and(|n| n.is_punct('=') || n.is_punct('>'));
            if !prev_rel && !next_eq {
                return Some(j);
            }
        }
        j += 1;
    }
    None
}

/// Compute the two effect summaries for every function, bottom-up over
/// the SCC condensation so callee summaries are final (or iterated to a
/// local fixpoint inside recursive components) before callers read them.
pub fn summarize(ws: &Workspace, a: &Analysis) -> Vec<EffectSummary> {
    let n = a.funcs.len();
    let mut summaries: Vec<EffectSummary> = vec![EffectSummary::default(); n];
    if n == 0 {
        return summaries;
    }

    // Pass 1: intrinsic masks + gates.
    let mut masks: Vec<Vec<bool>> = Vec::with_capacity(n);
    for (fi, f) in a.funcs.iter().enumerate() {
        let toks = &ws.files[f.file].tokens;
        let guard = &a.guard_masks[f.file];
        let (mask, gated) = off_mask(f, toks, guard);
        masks.push(mask);
        summaries[fi].has_gate = gated;
    }

    // Pass 2: closure arguments at call sites whose callee has a gate
    // are part of the caller's disabled-world mask too.
    let gates: Vec<bool> = summaries.iter().map(|s| s.has_gate).collect();
    for (fi, f) in a.funcs.iter().enumerate() {
        let toks = &ws.files[f.file].tokens;
        for &ci in &a.calls_from[fi] {
            let c = &a.calls[ci];
            let Some(callee) = c.callee else { continue };
            if !gates.get(callee).copied().unwrap_or(false) {
                continue;
            }
            if !toks.get(c.tok + 1).is_some_and(|t| t.is_punct('(')) {
                continue;
            }
            let open = c.tok + 1;
            let close = matching_paren(toks, open);
            // First `|` directly inside the call parens starts a closure.
            let mut depth = 0i32;
            let mut bar = None;
            for (k, t) in toks.iter().enumerate().take(close).skip(open) {
                if t.is_punct('(') {
                    depth += 1;
                } else if t.is_punct(')') {
                    depth -= 1;
                } else if depth == 1 && t.is_punct('|') {
                    bar = Some(k);
                    break;
                }
            }
            if let Some(b) = bar {
                let base = f.body_start;
                for k in b.max(base)..close.saturating_sub(1).min(base + masks[fi].len()) {
                    masks[fi][k - base] = true;
                }
                summaries[fi].has_gate = true;
            }
        }
    }

    // Per-function call-site lookup by name-token index.
    let mut site_at: Vec<BTreeMap<usize, usize>> = vec![BTreeMap::new(); n];
    for (ci, c) in a.calls.iter().enumerate() {
        site_at[c.caller].insert(c.tok, ci);
    }

    // Pass 3: bottom-up evaluation over the condensation. Components
    // arrive callees-first; inside a recursive component we iterate to a
    // local fixpoint (the effect lattice is finite, so this is fast).
    let comps: Vec<Vec<usize>> = a.reach.scc.comps.clone();
    for comp in &comps {
        loop {
            let mut changed = false;
            for &fi in comp {
                let (full, fw) = eval_effects(ws, a, fi, Mode::Full, &masks, &site_at, &summaries);
                let (off, ow) = eval_effects(ws, a, fi, Mode::Off, &masks, &site_at, &summaries);
                if full != summaries[fi].full || off != summaries[fi].off {
                    changed = true;
                }
                summaries[fi].full = full;
                summaries[fi].off = off;
                summaries[fi].full_witness = fw;
                summaries[fi].off_witness = ow;
            }
            if !changed {
                break;
            }
        }
    }
    summaries
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Full,
    Off,
}

/// Blocks reachable from the CFG entry.
fn reachable_blocks(cfg: &Cfg) -> Vec<bool> {
    let n = cfg.blocks.len();
    let mut seen = vec![false; n];
    let mut stack = vec![0usize];
    while let Some(b) = stack.pop() {
        if b >= n || seen[b] {
            continue;
        }
        seen[b] = true;
        for &s in &cfg.blocks[b].succs {
            stack.push(s);
        }
    }
    seen
}

/// One function's effect set + first-witness table in the given mode,
/// reading callee summaries from `summaries`.
fn eval_effects(
    ws: &Workspace,
    a: &Analysis,
    fi: usize,
    mode: Mode,
    masks: &[Vec<bool>],
    site_at: &[BTreeMap<usize, usize>],
    summaries: &[EffectSummary],
) -> (EffectSet, [Option<Witness>; 4]) {
    let f = &a.funcs[fi];
    let toks = &ws.files[f.file].tokens;
    let base = f.body_start;
    let masked = |k: usize| -> bool {
        mode == Mode::Off
            && masks[fi]
                .get(k.wrapping_sub(base))
                .copied()
                .unwrap_or(false)
    };
    let cfg = &f.cfg;
    if cfg.blocks.is_empty() {
        return (EffectSet::pure(), [None, None, None, None]);
    }
    // Per-block local effects (direct markers + call imports).
    let mut block_fx: Vec<EffectSet> = Vec::with_capacity(cfg.blocks.len());
    for b in &cfg.blocks {
        let mut fx = EffectSet::pure();
        for k in b.start..b.end.min(toks.len()) {
            if masked(k) {
                continue;
            }
            if let Some((bit, _)) = direct_marker(toks, k) {
                fx.insert(bit);
            }
            if let Some(&ci) = site_at[fi].get(&k) {
                if let Some(callee) = a.calls[ci].callee {
                    let s = &summaries[callee];
                    let imported = match mode {
                        Mode::Full => s.full,
                        Mode::Off => s.off,
                    };
                    fx = fx.join(&imported);
                }
            }
        }
        block_fx.push(fx);
    }
    let result = fixpoint(cfg, EffectSet::pure(), |b, s: &EffectSet| {
        s.join(&block_fx[b])
    });
    let reach = reachable_blocks(cfg);
    let mut total = EffectSet::pure();
    for (b, ok) in reach.iter().enumerate() {
        if *ok {
            total = total.join(&result.outputs[b]);
        }
    }
    // First witness per bit, scanning reachable blocks in order.
    let mut witness: [Option<Witness>; 4] = [None, None, None, None];
    for (b, block) in cfg.blocks.iter().enumerate() {
        if !reach[b] {
            continue;
        }
        for k in block.start..block.end.min(toks.len()) {
            if masked(k) {
                continue;
            }
            if let Some((bit, what)) = direct_marker(toks, k) {
                let slot = &mut witness[bit_index(bit)];
                if total.has(bit) && slot.is_none() {
                    *slot = Some(Witness::Direct {
                        line: toks[k].line,
                        what,
                    });
                }
            }
            if let Some(&ci) = site_at[fi].get(&k) {
                if let Some(callee) = a.calls[ci].callee {
                    let imported = match mode {
                        Mode::Full => summaries[callee].full,
                        Mode::Off => summaries[callee].off,
                    };
                    for &(bit, _) in &EFFECT_BITS {
                        let slot = &mut witness[bit_index(bit)];
                        if imported.has(bit) && total.has(bit) && slot.is_none() {
                            *slot = Some(Witness::Call { site: ci });
                        }
                    }
                }
            }
        }
    }
    (total, witness)
}

/// Human verb for an effect bit (diagnostic text).
fn effect_verb(bit: u8) -> &'static str {
    match bit {
        EFFECT_ALLOC => "allocate",
        EFFECT_LOCK => "take a lock",
        EFFECT_IO => "perform I/O",
        _ => "panic",
    }
}

/// The first present effect bit, in [`EFFECT_BITS`] order.
fn first_bit(set: EffectSet) -> Option<u8> {
    EFFECT_BITS
        .iter()
        .map(|&(bit, _)| bit)
        .find(|&bit| set.has(bit))
}

/// Witness chain for `bit` starting at function `start`, following
/// call-site witnesses into callees and capped at the first revisited
/// function (so recursive components contribute one pass, not a spiral).
fn effect_chain(ws: &Workspace, a: &Analysis, start: usize, bit: u8, off: bool) -> Vec<PathStep> {
    let mut steps = Vec::new();
    let mut seen: BTreeSet<usize> = BTreeSet::new();
    let mut cur = start;
    while seen.insert(cur) {
        let s = &a.effects[cur];
        let w = if off {
            &s.off_witness[bit_index(bit)]
        } else {
            &s.full_witness[bit_index(bit)]
        };
        match w {
            Some(Witness::Direct { line, what }) => {
                steps.push(PathStep {
                    file: a.funcs[cur].rel.clone(),
                    line: *line,
                    note: what.clone(),
                });
                break;
            }
            Some(Witness::Call { site }) => {
                let c = &a.calls[*site];
                let Some(callee) = c.callee else { break };
                steps.push(PathStep {
                    file: ws.files[c.file].rel.clone(),
                    line: c.line,
                    note: format!("calls `{}`", a.funcs[callee].qual),
                });
                cur = callee;
            }
            None => break,
        }
    }
    steps
}

/// Files whose disabled-path functions the zero-cost theorem covers.
fn zero_cost_scope(rel: &str) -> bool {
    rel.starts_with("crates/obs/src/") || rel == "crates/core/src/provenance.rs"
}

/// Whether a function's declared return type allocates by contract
/// (`String`, `Vec`, `Box`, `PathBuf`) — export APIs whose entire
/// purpose is to hand back owned data. The disabled-path obligation
/// cannot apply: even the "return empty" arm must build the value.
fn returns_owned(ws: &Workspace, f: &FuncDef) -> bool {
    let toks = &ws.files[f.file].tokens;
    // Walk back from the body `{` to the `->` arrow (adjacent `-` `>`),
    // bounded: stop at `;`, another `{`, or 40 tokens.
    let mut j = f.body_start;
    let floor = f.body_start.saturating_sub(40);
    let mut arrow = None;
    while j > floor {
        j -= 1;
        let t = &toks[j];
        if t.is_punct(';') || t.is_punct('{') {
            break;
        }
        if t.is_punct('-')
            && toks
                .get(j + 1)
                .is_some_and(|n| n.is_punct('>') && n.span.0 == t.span.1)
        {
            arrow = Some(j);
            break;
        }
    }
    let Some(arrow) = arrow else { return false };
    toks[arrow..f.body_start].iter().any(|t| {
        t.is_ident("String") || t.is_ident("Vec") || t.is_ident("Box") || t.is_ident("PathBuf")
    })
}

/// A0015: the zero-cost proof. `NoCost`-monomorphized functions must be
/// effect-free on every path; gate-bearing functions of the
/// observability layer must be effect-free in the disabled world.
pub(crate) fn zero_cost(ws: &Workspace, a: &Analysis) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (fi, f) in a.funcs.iter().enumerate() {
        if f.is_test || !ws.files[f.file].is_product(f.body_start) {
            continue;
        }
        let s = &a.effects[fi];
        if f.impl_type.as_deref() == Some("NoCost") {
            if let Some(bit) = first_bit(s.full) {
                out.push(Diagnostic {
                    file: f.rel.clone(),
                    line: f.line,
                    code: "A0015",
                    message: format!(
                        "`{}` is a NoCost monomorphization but may {}; \
                         the zero-cost path must be effect-free",
                        f.qual,
                        effect_verb(bit)
                    ),
                    path: effect_chain(ws, a, fi, bit, false),
                });
            }
            continue;
        }
        if zero_cost_scope(&f.rel) && s.has_gate && !returns_owned(ws, f) {
            if let Some(bit) = first_bit(s.off) {
                out.push(Diagnostic {
                    file: f.rel.clone(),
                    line: f.line,
                    code: "A0015",
                    message: format!(
                        "`{}` may {} on its disabled path; \
                         the zero-cost-when-disabled invariant requires the off path to be pure",
                        f.qual,
                        effect_verb(bit)
                    ),
                    path: effect_chain(ws, a, fi, bit, true),
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Interval environment (the second absint domain in action)
// ---------------------------------------------------------------------

/// Abstract store for the interval analysis: named locals (and
/// `self.field` slots) mapped to intervals. A missing name means top —
/// the environment only records what it knows. `live = false` is the
/// bottom element (unreachable).
#[derive(Debug, Clone, PartialEq)]
pub struct Env {
    live: bool,
    vars: BTreeMap<String, Interval>,
}

impl Env {
    fn start() -> Env {
        Env {
            live: true,
            vars: BTreeMap::new(),
        }
    }

    fn get(&self, name: &str) -> Interval {
        self.vars
            .get(name)
            .copied()
            .unwrap_or_else(Interval::unsigned_top)
    }

    fn set(&mut self, name: String, v: Interval) {
        self.vars.insert(name, v);
    }
}

impl JoinSemiLattice for Env {
    fn bottom() -> Self {
        Env {
            live: false,
            vars: BTreeMap::new(),
        }
    }
    fn join(&self, other: &Self) -> Self {
        if !self.live {
            return other.clone();
        }
        if !other.live {
            return self.clone();
        }
        // Keys present in both join pointwise; keys in only one side
        // drop to top (absent).
        let mut vars = BTreeMap::new();
        for (k, v) in &self.vars {
            if let Some(w) = other.vars.get(k) {
                vars.insert(k.clone(), v.join(w));
            }
        }
        Env { live: true, vars }
    }
    fn leq(&self, other: &Self) -> bool {
        if !self.live {
            return true;
        }
        if !other.live {
            return false;
        }
        // Every constraint `other` records must be implied by `self`.
        other.vars.iter().all(|(k, w)| self.get(k).leq(w))
    }
    fn widen(&self, next: &Self) -> Self {
        if !self.live {
            return next.clone();
        }
        if !next.live {
            return self.clone();
        }
        let mut vars = BTreeMap::new();
        for (k, v) in &self.vars {
            if let Some(w) = next.vars.get(k) {
                vars.insert(k.clone(), v.widen(w));
            }
        }
        Env { live: true, vars }
    }
}

/// Parse a numeric literal's value from its raw source slice
/// (underscores stripped, integer type suffixes dropped, `0x`/`0o`/`0b`
/// honored). Floats and char literals yield `None`.
fn num_value(text: &str) -> Option<i128> {
    let t: String = text.chars().filter(|c| *c != '_').collect();
    if t.contains('.') || t.contains('\'') {
        return None;
    }
    let t = [
        "usize", "u128", "u64", "u32", "u16", "u8", "isize", "i128", "i64", "i32", "i16", "i8",
    ]
    .iter()
    .find_map(|s| t.strip_suffix(s))
    .unwrap_or(&t);
    if t.contains('f') && !t.starts_with("0x") {
        return None; // f32/f64 suffix
    }
    if let Some(hex) = t.strip_prefix("0x") {
        return i128::from_str_radix(hex, 16).ok();
    }
    if let Some(oct) = t.strip_prefix("0o") {
        return i128::from_str_radix(oct, 8).ok();
    }
    if let Some(bin) = t.strip_prefix("0b") {
        return i128::from_str_radix(bin, 2).ok();
    }
    t.parse::<i128>().ok()
}

/// The raw source slice of token `k` (char-offset spans; ASCII fast
/// path, char-walk fallback).
fn raw_slice<'a>(file: &'a SourceFile, toks: &[Token], k: usize) -> std::borrow::Cow<'a, str> {
    let Some(t) = toks.get(k) else {
        return std::borrow::Cow::Borrowed("");
    };
    let (s, e) = (t.span.0 as usize, t.span.1 as usize);
    if file.raw.is_ascii() {
        std::borrow::Cow::Borrowed(file.raw.get(s..e).unwrap_or(""))
    } else {
        std::borrow::Cow::Owned(file.raw.chars().skip(s).take(e.saturating_sub(s)).collect())
    }
}

/// Evaluate the expression tokens `[s, e)` to an interval, reading
/// named values from `env`. Handles literals, names, `self.field`,
/// parentheses, one level of `+`/`-`/`*`, and postfix chains
/// (`.len()`, `.max(k)`, `.min(k)`, `.saturating_*`). Anything else
/// degrades to the unknown unsigned value `[0, +∞]`.
fn eval_expr(
    file: &SourceFile,
    toks: &[Token],
    s: usize,
    e: usize,
    env: &Env,
    depth: u32,
) -> Interval {
    let e = e.min(toks.len());
    if s >= e || depth > 8 {
        return Interval::unsigned_top();
    }
    // Strip one full set of wrapping parens.
    if toks[s].is_punct('(') && matching_paren(toks, s) == e {
        return eval_expr(file, toks, s + 1, e - 1, env, depth + 1);
    }
    // Top-level binary `+` / `-` / `*` (rightmost, lowest precedence
    // first) — skip unary minus and compound-assign shapes.
    let mut pd = 0i32;
    for op in ['+', '-', '*'] {
        for k in (s + 1..e).rev() {
            let t = &toks[k];
            if t.is_punct(')') || t.is_punct(']') {
                pd += 1;
            } else if t.is_punct('(') || t.is_punct('[') {
                pd -= 1;
            } else if pd == 0 && t.is_punct(op) {
                // `*` directly after `(`/`=`/operator is a deref/unary.
                let prev_operand = toks.get(k - 1).is_some_and(|p| {
                    matches!(p.tok, crate::lexer::Tok::Ident(_) | crate::lexer::Tok::Num)
                        || p.is_punct(')')
                });
                if !prev_operand {
                    continue;
                }
                let lhs = eval_expr(file, toks, s, k, env, depth + 1);
                let rhs = eval_expr(file, toks, k + 1, e, env, depth + 1);
                return match op {
                    '+' => lhs.add(&rhs),
                    '-' => lhs.sub(&rhs),
                    _ => lhs.mul(&rhs),
                };
            }
        }
        pd = 0;
    }
    // Primary + postfix chain.
    let (mut v, mut k) = match &toks[s].tok {
        crate::lexer::Tok::Num => match num_value(&raw_slice(file, toks, s)) {
            Some(n) => (Interval::exact(n), s + 1),
            None => return Interval::unsigned_top(),
        },
        crate::lexer::Tok::Ident(w)
            if w == "self" && toks.get(s + 1).is_some_and(|t| t.is_punct('.')) =>
        {
            match toks.get(s + 2).and_then(Token::ident) {
                Some(fieldname) => (env.get(&format!("self.{fieldname}")), s + 3),
                None => return Interval::unsigned_top(),
            }
        }
        crate::lexer::Tok::Ident(w) => {
            if toks.get(s + 1).is_some_and(|t| t.is_punct('(')) {
                // Free/constructor call: unknown result.
                (Interval::unsigned_top(), matching_paren(toks, s + 1))
            } else {
                (env.get(w), s + 1)
            }
        }
        _ => return Interval::unsigned_top(),
    };
    while k < e {
        if toks[k].is_punct('.') {
            let Some(name) = toks.get(k + 1).and_then(Token::ident) else {
                return Interval::unsigned_top();
            };
            if !toks.get(k + 2).is_some_and(|t| t.is_punct('(')) {
                // Plain field hop: value unknown.
                v = Interval::unsigned_top();
                k += 2;
                continue;
            }
            let close = matching_paren(toks, k + 2);
            let arg = || eval_expr(file, toks, k + 3, close.saturating_sub(1), env, depth + 1);
            v = match name {
                "max" => v.max_of(&arg()),
                "min" => v.min_of(&arg()),
                "len" => Interval::range(0, crate::absint::POS_INF),
                "saturating_add" => v.add(&arg()).max_of(&Interval::exact(0)),
                "saturating_mul" => v.mul(&arg()).max_of(&Interval::exact(0)),
                "saturating_sub" => v.sub(&arg()).max_of(&Interval::exact(0)),
                _ => Interval::unsigned_top(),
            };
            k = close;
            continue;
        }
        break; // a cast or any other suffix: keep the value so far.
    }
    v
}

/// Replay the statements of token range `[start, end)` into `env`:
/// `let` bindings, plain and compound assignments to locals and
/// `self.field` slots.
fn replay(file: &SourceFile, toks: &[Token], start: usize, end: usize, env: &mut Env) {
    let end = end.min(toks.len());
    let stmt_end = |from: usize| -> usize {
        let mut d = 0i32;
        for (k, t) in toks.iter().enumerate().take(end).skip(from) {
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                d += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                d -= 1;
            } else if d == 0 && t.is_punct(';') {
                return k;
            }
        }
        end
    };
    let mut i = start;
    while i < end {
        let t = &toks[i];
        if t.is_ident("let") {
            let mut k = i + 1;
            if toks.get(k).is_some_and(|t| t.is_ident("mut")) {
                k += 1;
            }
            if let Some(name) = toks.get(k).and_then(Token::ident) {
                let send = stmt_end(k);
                if let Some(eq) = assign_eq(toks, k + 1, send) {
                    let v = eval_expr(file, toks, eq + 1, send, env, 0);
                    env.set(name.to_owned(), v);
                }
                i = send + 1;
                continue;
            }
        }
        // `name = expr;` / `name op= expr;` / `self.f = expr;` at a
        // statement boundary.
        let at_boundary = i == start
            || toks
                .get(i - 1)
                .is_some_and(|p| p.is_punct(';') || p.is_punct('{') || p.is_punct('}'));
        if at_boundary {
            let (key, after) = if self_field_at(toks, i) {
                (
                    toks.get(i + 2)
                        .and_then(Token::ident)
                        .map(|f| format!("self.{f}")),
                    i + 3,
                )
            } else if let Some(name) = t.ident() {
                (Some(name.to_owned()), i + 1)
            } else {
                (None, i + 1)
            };
            if let Some(key) = key {
                let send = stmt_end(i);
                // Compound: `+= -= *=` as adjacent punct pairs.
                let compound = toks.get(after).and_then(|p| match p.tok {
                    crate::lexer::Tok::Punct(c @ ('+' | '-' | '*')) => Some(c),
                    _ => None,
                });
                if let Some(op) = compound {
                    let adjacent = toks
                        .get(after + 1)
                        .is_some_and(|n| n.is_punct('=') && n.span.0 == toks[after].span.1);
                    if adjacent {
                        let rhs = eval_expr(file, toks, after + 2, send, env, 0);
                        let cur = env.get(&key);
                        let v = match op {
                            '+' => cur.add(&rhs),
                            '-' => cur.sub(&rhs),
                            _ => cur.mul(&rhs),
                        };
                        env.set(key, v);
                        i = send + 1;
                        continue;
                    }
                } else if toks.get(after).is_some_and(|p| p.is_punct('='))
                    && !toks.get(after + 1).is_some_and(|n| n.is_punct('='))
                {
                    let v = eval_expr(file, toks, after + 1, send, env, 0);
                    env.set(key, v);
                    i = send + 1;
                    continue;
                }
            }
        }
        i += 1;
    }
}

/// The interval environment holding at token `site` of function `fi`:
/// the owning block's fixpoint input, plus a replay of the block's
/// statements up to the site.
fn env_at(ws: &Workspace, a: &Analysis, fi: usize, site: usize) -> Env {
    let f = &a.funcs[fi];
    let file = &ws.files[f.file];
    let toks = &file.tokens;
    let cfg = &f.cfg;
    if cfg.blocks.is_empty() {
        return Env::start();
    }
    let result = fixpoint(cfg, Env::start(), |b, s: &Env| {
        let mut out = s.clone();
        if out.live {
            let blk = &cfg.blocks[b];
            replay(file, toks, blk.start, blk.end, &mut out);
        }
        out
    });
    let Some(b) = cfg
        .blocks
        .iter()
        .position(|blk| blk.start <= site && site < blk.end)
    else {
        return Env::start();
    };
    let mut env = result.inputs[b].clone();
    if !env.live {
        env = Env::start();
    }
    replay(file, toks, cfg.blocks[b].start, site, &mut env);
    env
}

// ---------------------------------------------------------------------
// A0018: division by a possibly-zero abstract value
// ---------------------------------------------------------------------

/// Statement window around token `i`: from just after the previous
/// `;`/`{`/`}` to the next `;` (exclusive).
fn stmt_window(toks: &[Token], i: usize) -> (usize, usize) {
    let mut s = i;
    while s > 0 {
        let p = &toks[s - 1];
        if p.is_punct(';') || p.is_punct('{') || p.is_punct('}') {
            break;
        }
        s -= 1;
    }
    let mut e = i;
    while e < toks.len() && !toks[e].is_punct(';') {
        e += 1;
    }
    (s, e)
}

/// The primary tokens of the divisor starting at `s` (`total`,
/// `self.capacity`, `x` of `x.len()`): returns (token indices, one past
/// the full postfix operand).
fn divisor_operand(toks: &[Token], s: usize) -> (Vec<usize>, usize) {
    let mut prim: Vec<usize> = Vec::new();
    let mut k = s;
    if toks.get(k).is_some_and(|t| t.is_punct('(')) {
        return (prim, matching_paren(toks, k));
    }
    match toks.get(k).map(|t| &t.tok) {
        Some(crate::lexer::Tok::Ident(w)) if w == "self" => {
            prim.push(k);
            if toks.get(k + 1).is_some_and(|t| t.is_punct('.'))
                && toks.get(k + 2).and_then(Token::ident).is_some()
            {
                prim.push(k + 1);
                prim.push(k + 2);
                k += 3;
            } else {
                k += 1;
            }
        }
        Some(crate::lexer::Tok::Ident(_)) | Some(crate::lexer::Tok::Num) => {
            prim.push(k);
            k += 1;
        }
        _ => return (prim, k),
    }
    // Postfix chain: `.name(args)` hops extend the operand but not the
    // primary.
    while toks.get(k).is_some_and(|t| t.is_punct('.'))
        && toks.get(k + 1).and_then(Token::ident).is_some()
    {
        if toks.get(k + 2).is_some_and(|t| t.is_punct('(')) {
            k = matching_paren(toks, k + 2);
        } else {
            prim.push(k + 1);
            k += 2;
        }
    }
    (prim, k)
}

/// Do the tokens at `[at..]` match the divisor's primary tokens?
fn seq_matches(toks: &[Token], at: usize, prim: &[usize]) -> bool {
    prim.iter()
        .enumerate()
        .all(|(o, &p)| toks.get(at + o).is_some_and(|t| t.tok == toks[p].tok))
}

/// Lexical refinements the interval domain cannot see: an early
/// `== 0` bail-out, a positive-guard block around the site, a prior
/// positive increment, or an `is_empty` check for `.len()` divisors.
fn divisor_refined(toks: &[Token], f: &FuncDef, prim: &[usize], site: usize) -> bool {
    if prim.is_empty() {
        return false;
    }
    let plen = prim.len();
    let range = f.body_range();
    for k in range.clone() {
        if k + plen >= toks.len() {
            break;
        }
        // `if <divisor> == 0 { …diverge… }` before the site.
        if toks[k].is_ident("if") && seq_matches(toks, k + 1, prim) {
            let after = k + 1 + plen;
            let eq0 = toks.get(after).is_some_and(|t| t.is_punct('='))
                && toks.get(after + 1).is_some_and(|t| t.is_punct('='))
                && toks
                    .get(after + 2)
                    .is_some_and(|t| matches!(t.tok, crate::lexer::Tok::Num));
            if eq0 && k < site {
                if let Some(open) = find_body_open(toks, after + 2) {
                    let close = matching_brace(toks, open);
                    let diverges = toks[open..close.min(toks.len())].iter().any(|t| {
                        t.is_ident("return") || t.is_ident("continue") || t.is_ident("break")
                    });
                    if diverges && close <= site {
                        return true;
                    }
                }
            }
            // `if <divisor> > 0 { … site … }` / `!= 0` / `>= n`.
            let positive = toks.get(after).is_some_and(|t| t.is_punct('>'))
                || (toks.get(after).is_some_and(|t| t.is_punct('!'))
                    && toks.get(after + 1).is_some_and(|t| t.is_punct('=')));
            if positive {
                if let Some(open) = find_body_open(toks, after) {
                    let close = matching_brace(toks, open);
                    if open < site && site < close {
                        return true;
                    }
                }
            }
        }
        // `<divisor> += <positive literal>` before the site.
        if k < site && seq_matches(toks, k, prim) {
            let after = k + plen;
            let plus = toks.get(after).is_some_and(|t| t.is_punct('+'))
                && toks
                    .get(after + 1)
                    .is_some_and(|t| t.is_punct('=') && t.span.0 == toks[after].span.1);
            if plus
                && toks
                    .get(after + 2)
                    .is_some_and(|t| matches!(t.tok, crate::lexer::Tok::Num))
            {
                return true;
            }
        }
    }
    // `.len()` divisor guarded by an `is_empty` check on the same base.
    let base: Vec<usize> = prim.to_vec();
    let len_div = {
        let last = *base.last().unwrap_or(&0);
        toks.get(last + 1).is_some_and(|t| t.is_punct('.'))
            && toks.get(last + 2).is_some_and(|t| t.is_ident("len"))
    };
    if len_div {
        for k in range {
            if seq_matches(toks, k, &base)
                && toks.get(k + base.len()).is_some_and(|t| t.is_punct('.'))
                && toks
                    .get(k + base.len() + 1)
                    .is_some_and(|t| t.is_ident("is_empty"))
            {
                return true;
            }
        }
    }
    false
}

/// A0018: `/` or `%` in histogram-bucket / rollup math where the
/// divisor's abstract value may contain zero.
pub(crate) fn div_by_zero(ws: &Workspace, a: &Analysis) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (fi, file) in ws.files.iter().enumerate() {
        if !file.rel.starts_with("crates/obs/src/") {
            continue;
        }
        let toks = &file.tokens;
        for i in 0..toks.len() {
            if !(toks[i].is_punct('/') || toks[i].is_punct('%')) || !file.is_product(i) {
                continue;
            }
            // `/=` compound divides don't occur in rollup math; skip.
            if toks.get(i + 1).is_some_and(|n| n.is_punct('=')) {
                continue;
            }
            let (ws_start, ws_end) = stmt_window(toks, i);
            // Float math is out of scope (f64 division never traps).
            let is_float = toks[ws_start..ws_end.min(toks.len())]
                .iter()
                .enumerate()
                .any(|(o, t)| {
                    t.is_ident("f64")
                        || t.is_ident("f32")
                        || (matches!(t.tok, crate::lexer::Tok::Num)
                            && raw_slice(file, toks, ws_start + o).contains('.'))
                });
            if is_float {
                continue;
            }
            let Some(owner) = a.func_at(fi, i) else {
                continue;
            };
            if a.funcs[owner].is_test {
                continue;
            }
            let (prim, operand_end) = divisor_operand(toks, i + 1);
            let env = env_at(ws, a, owner, i);
            let v = eval_expr(file, toks, i + 1, operand_end, &env, 0);
            if !v.is_empty() && !v.contains_zero() {
                continue;
            }
            if divisor_refined(toks, &a.funcs[owner], &prim, i) {
                continue;
            }
            let shown: String = prim
                .iter()
                .filter_map(|&p| match &toks[p].tok {
                    crate::lexer::Tok::Ident(w) => Some(w.as_str()),
                    crate::lexer::Tok::Punct('.') => Some("."),
                    _ => None,
                })
                .collect();
            out.push(Diagnostic {
                file: file.rel.clone(),
                line: toks[i].line,
                code: "A0018",
                message: format!(
                    "divisor `{}` may be zero here; guard it or clamp with `.max(1)`",
                    if shown.is_empty() { "<expr>" } else { &shown }
                ),
                path: Vec::new(),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------
// A0019: DESIGN.md zero-cost claims must match the engine
// ---------------------------------------------------------------------

/// Marker heading of the DESIGN.md section A0019 audits.
pub const ZERO_COST_HEADING: &str = "### The zero-cost theorem";

/// A0019: every function DESIGN.md's zero-cost theorem names must
/// resolve to a workspace function the engine proves pure (on its
/// disabled path if gated, on every path otherwise).
pub(crate) fn design_sync(ws: &Workspace, a: &Analysis) -> Vec<Diagnostic> {
    let design = &ws.design;
    let Some(pos) = design.find(ZERO_COST_HEADING) else {
        return Vec::new();
    };
    let body_start = pos + ZERO_COST_HEADING.len();
    let section_end = design[body_start..]
        .find("\n#")
        .map(|o| body_start + o)
        .unwrap_or(design.len());
    let section = &design[body_start..section_end];
    let base_line = design[..body_start].matches('\n').count() as u32 + 1;
    let mut out = Vec::new();
    let mut rest = section;
    let mut offset = 0usize;
    while let Some(open) = rest.find('`') {
        let after = &rest[open + 1..];
        let Some(close) = after.find('`') else { break };
        let claim = &after[..close];
        let claim_line = base_line + section[..offset + open].matches('\n').count() as u32;
        offset += open + close + 2;
        rest = &after[close + 1..];
        if !claim.contains("::") || claim.contains(' ') {
            continue;
        }
        let matches: Vec<usize> = a
            .funcs
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                !f.is_test && (f.qual == claim || f.qual.ends_with(&format!("::{claim}")))
            })
            .map(|(i, _)| i)
            .collect();
        if matches.is_empty() {
            out.push(Diagnostic {
                file: "DESIGN.md".to_owned(),
                line: claim_line,
                code: "A0019",
                message: format!(
                    "zero-cost theorem names `{claim}`, which resolves to no workspace function"
                ),
                path: Vec::new(),
            });
            continue;
        }
        for fi in matches {
            let s = &a.effects[fi];
            let (checked, which) = if s.has_gate {
                (s.off, "disabled path")
            } else {
                (s.full, "body")
            };
            if !checked.is_pure() {
                out.push(Diagnostic {
                    file: "DESIGN.md".to_owned(),
                    line: claim_line,
                    code: "A0019",
                    message: format!(
                        "zero-cost theorem claims `{}` but the engine cannot prove its {} \
                         effect-free (effects: {})",
                        a.funcs[fi].qual,
                        which,
                        checked.names().join(", ")
                    ),
                    path: Vec::new(),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    fn build(files: Vec<(&str, &str)>, design: &str) -> (Workspace, Analysis) {
        let ws = Workspace::from_sources(files, design);
        let a = Analysis::build(&ws);
        (ws, a)
    }

    fn summary_of<'a>(a: &'a Analysis, name: &str) -> &'a EffectSummary {
        let fi = a
            .funcs
            .iter()
            .position(|f| f.qual == name || f.qual.ends_with(&format!("::{name}")))
            .unwrap_or_else(|| panic!("no fn {name}"));
        &a.effects[fi]
    }

    // -- effect summaries -------------------------------------------------

    #[test]
    fn direct_effects_and_call_propagation() {
        let src = r#"
fn leaf() { let v = vec![1, 2]; }
fn mid() { leaf(); }
fn top() { mid(); }
fn quiet(x: u64) -> u64 { x + 1 }
"#;
        let (_ws, a) = build(vec![("crates/core/src/x.rs", src)], "");
        assert!(summary_of(&a, "leaf").full.has(EFFECT_ALLOC));
        assert!(summary_of(&a, "mid").full.has(EFFECT_ALLOC));
        assert!(summary_of(&a, "top").full.has(EFFECT_ALLOC));
        assert!(summary_of(&a, "quiet").full.is_pure());
    }

    #[test]
    fn recursive_component_reaches_fixpoint() {
        let src = r#"
fn ping(n: u64) { if n > 0 { pong(n - 1); } }
fn pong(n: u64) { println!("{n}"); ping(n); }
"#;
        let (_ws, a) = build(vec![("crates/core/src/x.rs", src)], "");
        assert!(summary_of(&a, "ping").full.has(EFFECT_IO));
        assert!(summary_of(&a, "pong").full.has(EFFECT_IO));
    }

    #[test]
    fn gated_effects_vanish_on_the_off_path() {
        let src = r#"
impl Observer {
    pub fn incr(&self, by: u64) {
        if self.is_enabled() {
            self.log.push(by);
        }
    }
}
"#;
        let (_ws, a) = build(vec![("crates/obs/src/observer.rs", src)], "");
        let s = summary_of(&a, "Observer::incr");
        assert!(s.has_gate);
        assert!(s.full.has(EFFECT_ALLOC));
        assert!(
            s.off.is_pure(),
            "off path must be pure: {:?}",
            s.off.names()
        );
    }

    #[test]
    fn if_let_some_inner_gate_masks_body() {
        let src = r#"
impl Prov {
    pub fn record(&mut self, id: u64) {
        if let Some(state) = &mut self.inner {
            state.rows.push(id);
        }
    }
}
"#;
        let (_ws, a) = build(vec![("crates/core/src/provenance.rs", src)], "");
        let s = summary_of(&a, "Prov::record");
        assert!(s.has_gate);
        assert!(s.off.is_pure());
        assert!(s.full.has(EFFECT_ALLOC));
    }

    // -- A0015 ------------------------------------------------------------

    #[test]
    fn a0015_fires_on_allocating_nocost_impl() {
        let src = r#"
impl CostAcc for NoCost {
    fn add(&mut self, n: u64) {
        let mut v = Vec::new();
        v.push(n);
    }
}
"#;
        let (ws, a) = build(vec![("crates/obs/src/cost.rs", src)], "");
        let hits = zero_cost(&ws, &a);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("NoCost"), "{hits:?}");
        assert!(hits[0].message.contains("allocate"), "{hits:?}");
    }

    #[test]
    fn a0015_fires_on_impure_disabled_path() {
        let src = r#"
impl Observer {
    pub fn incr(&mut self, n: u64) {
        self.log.push(n);
        if let Some(inner) = &self.inner {
            inner.count(n);
        }
    }
}
"#;
        let (ws, a) = build(vec![("crates/obs/src/observer.rs", src)], "");
        let hits = zero_cost(&ws, &a);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("disabled path"), "{hits:?}");
    }

    #[test]
    fn a0015_clean_when_work_is_gated() {
        let src = r#"
impl Observer {
    pub fn incr(&mut self, n: u64) {
        if let Some(inner) = &mut self.inner {
            inner.log.push(n);
        }
    }
}
"#;
        let (ws, a) = build(vec![("crates/obs/src/observer.rs", src)], "");
        assert!(zero_cost(&ws, &a).is_empty());
    }

    #[test]
    fn a0015_witness_chain_names_the_callee() {
        let src = r#"
impl CostAcc for NoCost {
    fn add(&mut self, n: u64) {
        helper(n);
    }
}
fn helper(n: u64) {
    let s = n.to_string();
}
"#;
        let (ws, a) = build(vec![("crates/obs/src/cost.rs", src)], "");
        let hits = zero_cost(&ws, &a);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(
            hits[0].path.iter().any(|s| s.note.contains("helper")),
            "witness chain should walk into helper: {:?}",
            hits[0].path
        );
    }

    #[test]
    fn a0015_closure_passed_to_gated_helper_is_off_path_pure() {
        let src = r#"
impl Prov {
    fn with_state(&mut self, f: impl FnOnce(&mut State)) {
        let inner = self.inner.as_mut()?;
        f(inner);
    }
    pub fn record(&mut self, id: u64) {
        self.with_state(|state| {
            state.rows.push(id);
        });
    }
}
"#;
        let (ws, a) = build(vec![("crates/core/src/provenance.rs", src)], "");
        let s = summary_of(&a, "Prov::record");
        assert!(s.has_gate, "call through a gated helper counts as gated");
        assert!(s.off.is_pure(), "off: {:?}", s.off.names());
        assert!(s.full.has(EFFECT_ALLOC));
        assert!(zero_cost(&ws, &a).is_empty());
    }

    // -- A0018 ------------------------------------------------------------

    #[test]
    fn a0018_fires_on_unproven_divisor() {
        let src = r#"
fn bucket(n: u64, d: u64) -> u64 {
    n / d
}
"#;
        let (ws, a) = build(vec![("crates/obs/src/observer.rs", src)], "");
        let hits = div_by_zero(&ws, &a);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("may be zero"), "{hits:?}");
    }

    #[test]
    fn a0018_clean_on_clamped_or_guarded_divisors() {
        let src = r#"
fn clamped(n: u64, d: u64) -> u64 {
    n / d.max(1)
}
fn early(n: u64, d: u64) -> u64 {
    if d == 0 {
        return 0;
    }
    n / d
}
fn guarded(n: u64, d: u64) -> u64 {
    if d > 0 {
        return n / d;
    }
    0
}
fn constant(n: u64) -> u64 {
    let width = 64;
    n / width
}
"#;
        let (ws, a) = build(vec![("crates/obs/src/observer.rs", src)], "");
        let hits = div_by_zero(&ws, &a);
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn a0018_only_audits_obs_sources() {
        let src = "fn f(n: u64, d: u64) -> u64 { n / d }";
        let (ws, a) = build(vec![("crates/query/src/exec.rs", src)], "");
        assert!(div_by_zero(&ws, &a).is_empty());
    }

    // -- A0019 ------------------------------------------------------------

    const GATED_OBS: &str = r#"
impl Observer {
    pub fn incr(&mut self, n: u64) {
        if let Some(inner) = &mut self.inner {
            inner.log.push(n);
        }
    }
    pub fn flush(&mut self) {
        let sink = self.sink.lock();
    }
}
"#;

    #[test]
    fn a0019_accepts_proven_claims_and_rejects_drift() {
        let clean = format!(
            "# doc\n\n{ZERO_COST_HEADING}\n\nWhen disabled, `Observer::incr` is pure.\n\n## next\n"
        );
        let (ws, a) = build(vec![("crates/obs/src/observer.rs", GATED_OBS)], &clean);
        assert!(design_sync(&ws, &a).is_empty());

        let phantom =
            format!("# doc\n\n{ZERO_COST_HEADING}\n\n`Observer::vanish` is pure.\n\n## next\n");
        let (ws, a) = build(vec![("crates/obs/src/observer.rs", GATED_OBS)], &phantom);
        let hits = design_sync(&ws, &a);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0]
            .message
            .contains("resolves to no workspace function"));
    }

    #[test]
    fn a0019_rejects_unprovable_claims() {
        let design = format!(
            "# doc\n\n{ZERO_COST_HEADING}\n\n`Observer::flush` is claimed pure.\n\n## next\n"
        );
        let (ws, a) = build(vec![("crates/obs/src/observer.rs", GATED_OBS)], &design);
        let hits = design_sync(&ws, &a);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("cannot prove"), "{hits:?}");
    }

    #[test]
    fn a0019_no_heading_no_findings() {
        let (ws, a) = build(
            vec![("crates/obs/src/observer.rs", GATED_OBS)],
            "prose with `Observer::vanish` but no theorem heading",
        );
        assert!(design_sync(&ws, &a).is_empty());
    }
}
