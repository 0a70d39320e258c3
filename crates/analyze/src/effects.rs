//! Interprocedural effect summaries and the rules they power.
//!
//! Each function's effect set (allocates / locks / does-io / may-panic)
//! is the union, over every token of its body, of the effect a token
//! marks directly (`vec!`, `.lock()`, `println!`, …) and the summary of
//! the callee a call token names. Summaries are computed bottom-up over
//! the Tarjan condensation of the call graph, so a caller's summary
//! includes everything its callees may do. Each function gets **two**
//! summaries:
//!
//! * `full` — effects of every token of the body;
//! * `off` — effects in the *disabled world*, where every
//!   `is_enabled()` check returns false and every `self.inner`-style
//!   `Option` gate is `None`. Tokens that only execute when enabled are
//!   masked out, and calls propagate the callee's `off` summary.
//!
//! The disabled world is what the zero-cost claim quantifies over:
//! rule A0015 demands `off` be pure for every gate-bearing function of
//! the observability layer, with a witness chain naming the first effect
//! when the proof fails, and A0019 keeps DESIGN.md's zero-cost claims
//! honest against the engine.

use crate::callgraph::Analysis;
use crate::cfg::{find_body_open, FuncDef};
use crate::lexer::{matching_brace, Token};
use crate::lint::{Diagnostic, PathStep, Workspace};
use std::collections::{BTreeMap, BTreeSet};

/// Effect bit: the function may allocate.
pub const EFFECT_ALLOC: u8 = 1;
/// Effect bit: the function may take a lock.
pub const EFFECT_LOCK: u8 = 2;
/// Effect bit: the function may perform I/O.
pub const EFFECT_IO: u8 = 4;
/// Effect bit: the function may panic.
pub const EFFECT_PANIC: u8 = 8;

/// All effect bits, paired with their report names, in emission order.
pub const EFFECT_BITS: [(u8, &str); 4] = [
    (EFFECT_ALLOC, "alloc"),
    (EFFECT_LOCK, "lock"),
    (EFFECT_IO, "io"),
    (EFFECT_PANIC, "panic"),
];

/// A set of effects over {alloc, lock, io, panic}, one bit each.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct EffectSet(pub u8);

impl EffectSet {
    /// The empty set: pure.
    pub fn pure() -> EffectSet {
        EffectSet(0)
    }

    pub fn is_pure(&self) -> bool {
        self.0 == 0
    }

    pub fn has(&self, bit: u8) -> bool {
        self.0 & bit != 0
    }

    pub fn insert(&mut self, bit: u8) {
        self.0 |= bit;
    }

    /// Report names of the effects present, in fixed order.
    pub fn names(&self) -> Vec<&'static str> {
        EFFECT_BITS
            .iter()
            .filter(|(bit, _)| self.has(*bit))
            .map(|&(_, name)| name)
            .collect()
    }
}

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
    /// Per effect bit (in [`EFFECT_BITS`] order): first witness in the
    /// disabled world.
    pub off_witness: [Option<Witness>; 4],
}

/// One per-function row of `analyze --effects`: the zero-cost proof for
/// the functions the theorem covers (the obs and provenance sources).
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
            !f.is_test && ws.files[f.file].is_product(f.body_start) && zero_cost_scope(&f.rel)
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

/// Whether tokens at `k` are a `self.inner` field access — the
/// `inner: Option<Arc<Inner>>` disabled-state convention Observer and
/// Provenance share. Only this field gates the disabled world; an
/// arbitrary `self.field` Option carries data, not enablement.
fn state_field_at(toks: &[Token], k: usize) -> bool {
    toks.get(k).is_some_and(|t| t.is_ident("self"))
        && toks.get(k + 1).is_some_and(|t| t.is_punct('.'))
        && toks.get(k + 2).is_some_and(|t| t.is_ident("inner"))
        && !toks.get(k + 3).is_some_and(|t| t.is_punct('('))
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
/// the SCC condensation so callee summaries are final (or iterated until
/// they stop changing inside recursive components) before callers read
/// them.
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
    // arrive callees-first; inside a recursive component we iterate
    // until no summary changes (summaries only gain bits, and there are
    // four, so this is fast).
    let comps: Vec<Vec<usize>> = a.reach.scc.comps.clone();
    for comp in &comps {
        loop {
            let mut changed = false;
            for &fi in comp {
                let (full, _) = eval_effects(ws, a, fi, Mode::Full, &masks, &site_at, &summaries);
                let (off, ow) = eval_effects(ws, a, fi, Mode::Off, &masks, &site_at, &summaries);
                if full != summaries[fi].full || off != summaries[fi].off {
                    changed = true;
                }
                summaries[fi].full = full;
                summaries[fi].off = off;
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

/// One function's effect set and first-witness table in the given mode:
/// the union, over every unmasked token of the body, of the token's
/// direct marker and the summary (read from `summaries`) of the callee
/// it names. The witness per bit is its first contributor in body order.
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
    let mut total = EffectSet::pure();
    let mut witness: [Option<Witness>; 4] = [None, None, None, None];
    for k in f.body_range() {
        if mode == Mode::Off && masks[fi].get(k - f.body_start).copied().unwrap_or(false) {
            continue;
        }
        if let Some((bit, what)) = direct_marker(toks, k) {
            total.insert(bit);
            let line = toks[k].line;
            witness[bit_index(bit)].get_or_insert(Witness::Direct { line, what });
        }
        let Some(&site) = site_at[fi].get(&k) else {
            continue;
        };
        let Some(callee) = a.calls[site].callee else {
            continue;
        };
        let imported = match mode {
            Mode::Full => summaries[callee].full,
            Mode::Off => summaries[callee].off,
        };
        for &(bit, _) in EFFECT_BITS.iter().filter(|(bit, _)| imported.has(*bit)) {
            total.insert(bit);
            witness[bit_index(bit)].get_or_insert(Witness::Call { site });
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

/// Disabled-world witness chain for `bit` starting at function `start`,
/// following call-site witnesses into callees and capped at the first
/// revisited function (so recursive components contribute one pass, not
/// a spiral).
fn effect_chain(ws: &Workspace, a: &Analysis, start: usize, bit: u8) -> Vec<PathStep> {
    let mut steps = Vec::new();
    let mut seen: BTreeSet<usize> = BTreeSet::new();
    let mut cur = start;
    while seen.insert(cur) {
        match &a.effects[cur].off_witness[bit_index(bit)] {
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

/// A0015: the zero-cost proof. Gate-bearing functions of the
/// observability layer must be effect-free in the disabled world.
pub(crate) fn zero_cost(ws: &Workspace, a: &Analysis) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (fi, f) in a.funcs.iter().enumerate() {
        if f.is_test || !ws.files[f.file].is_product(f.body_start) {
            continue;
        }
        let s = &a.effects[fi];
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
                    path: effect_chain(ws, a, fi, bit),
                });
            }
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
    fn effects_after_an_early_exit_count() {
        // `?` and `return` end no summary: the `vec!` after both allocates.
        let src = r#"
fn f(x: Option<u32>) -> Option<Vec<u32>> { let y = x?; if y == 0 { return None; } Some(vec![y]) }
"#;
        let (_ws, a) = build(vec![("crates/core/src/x.rs", src)], "");
        assert!(summary_of(&a, "f").full.has(EFFECT_ALLOC));
    }

    #[test]
    fn effect_names_follow_bit_order() {
        let mut s = EffectSet::pure();
        assert!(s.is_pure());
        for bit in [EFFECT_IO, EFFECT_ALLOC, EFFECT_LOCK] {
            s.insert(bit);
        }
        assert!(s.has(EFFECT_LOCK) && !s.has(EFFECT_PANIC));
        assert_eq!(s.names(), vec!["alloc", "lock", "io"]);
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
impl Observer {
    pub fn incr(&mut self, n: u64) {
        helper(n);
        if let Some(inner) = &self.inner {
            inner.count(n);
        }
    }
}
fn helper(n: u64) {
    let s = n.to_string();
}
"#;
        let (ws, a) = build(vec![("crates/obs/src/observer.rs", src)], "");
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
    fn a0019_stops_at_the_next_heading() {
        // A `::` word under the heading after the theorem is no claim.
        let design = format!(
            "# doc\n\n{ZERO_COST_HEADING}\n\n`Observer::incr` is pure.\n\n\
             ### Diagnostics\n\n`--github` prints `::warning` commands.\n"
        );
        let (ws, a) = build(vec![("crates/obs/src/observer.rs", GATED_OBS)], &design);
        assert!(design_sync(&ws, &a).is_empty());
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
