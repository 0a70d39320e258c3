//! Function extraction and per-function CFG-lite.
//!
//! The interprocedural rules (A0008–A0012) need more than a flat token
//! stream: they need to know *which function* a token belongs to, the
//! function's module-qualified name, and whether a site sits behind an
//! `is_enabled()` guard. This module
//! derives all of that from the lexer's token stream — no AST, no
//! rustc — by tracking `mod` / `impl` / `trait` / `fn` scopes through
//! the brace structure and splitting each function body into basic
//! blocks at control keywords (`if` / `else` / `match` / `loop` /
//! `while` / `for` / `return` / `?`).
//!
//! The CFG is deliberately "lite": blocks are maximal straight-line
//! token runs, successor edges cover fallthrough, branch joins, and
//! loop back/exit edges. That is enough for the dataflow layer's
//! reachability questions (a panic site inside a function, an effect on
//! some path, a lock acquired before a call) without
//! pretending to be a real control-flow analysis.

use crate::lexer::{matching_brace, Token};
use crate::lint::SourceFile;
use std::collections::BTreeSet;

/// One extracted function (or method) definition.
#[derive(Debug, Clone)]
pub struct FuncDef {
    /// Bare name (`execute`, `top_k`, …).
    pub name: String,
    /// Module-qualified name: `crate::module[::Type]::name`.
    pub qual: String,
    /// Index of the owning file in `Workspace::files`.
    pub file: usize,
    /// Workspace-relative path of the owning file.
    pub rel: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Declared with `pub` (any visibility restriction counts).
    pub is_pub: bool,
    /// Enclosing `impl`/`trait` type, if a method.
    pub impl_type: Option<String>,
    /// Parameter (name, best-effort type ident) pairs; `self` omitted.
    pub params: Vec<(String, String)>,
    /// Whether the return type mentions `Result`.
    pub returns_result: bool,
    /// Token index of the body `{` in the file's token stream.
    pub body_start: usize,
    /// One past the matching `}`.
    pub body_end: usize,
    /// Inside a `#[cfg(test)]` region or a test file.
    pub is_test: bool,
    /// The per-function CFG-lite.
    pub cfg: Cfg,
}

impl FuncDef {
    /// The token range of the body, excluding the outer braces.
    pub fn body_range(&self) -> std::ops::Range<usize> {
        (self.body_start + 1)..self.body_end.saturating_sub(1)
    }
}

/// Basic-block kind, named after the token that opened it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    Entry,
    Seq,
    /// Starts at `if` / `else` / `match`.
    Branch,
    /// Starts at `loop` / `while` / `for`.
    LoopHead,
    /// Starts at `return` or a `?` propagation point.
    Exit,
}

/// One straight-line block: a token range plus successor edges.
#[derive(Debug, Clone)]
pub struct Block {
    /// Token range `[start, end)` in the file token stream.
    pub start: usize,
    pub end: usize,
    /// Line of the first token.
    pub line: u32,
    pub kind: BlockKind,
    /// Successor block indices within the same CFG.
    pub succs: Vec<usize>,
}

/// A function's CFG-lite.
#[derive(Debug, Clone, Default)]
pub struct Cfg {
    pub blocks: Vec<Block>,
}

/// Keywords that never start a call and never name a callee.
pub const KEYWORDS: &[&str] = &[
    "as", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "false", "fn",
    "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "static", "struct", "super", "trait", "true", "type", "unsafe", "use", "where",
    "while",
];

/// Whether `word` is a Rust keyword (per [`KEYWORDS`]).
pub fn is_keyword(word: &str) -> bool {
    KEYWORDS.contains(&word)
}

/// Find the `{` opening the body that follows a control keyword or item
/// header at `from`: the first `{` at paren/bracket depth 0. Returns
/// `None` when a `;` ends the item first (e.g. a trait method decl).
pub fn find_body_open(tokens: &[Token], from: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in tokens.iter().enumerate().skip(from) {
        match &t.tok {
            crate::lexer::Tok::Punct('(') | crate::lexer::Tok::Punct('[') => depth += 1,
            crate::lexer::Tok::Punct(')') | crate::lexer::Tok::Punct(']') => depth -= 1,
            crate::lexer::Tok::Punct('{') if depth == 0 => return Some(k),
            crate::lexer::Tok::Punct(';') if depth == 0 => return None,
            _ => {}
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Guard mask: which tokens sit behind an `is_enabled()` check.

struct GuardBlock {
    guarded: bool,
    negated_guard: bool,
    saw_return: bool,
}

/// Per-token mask: `true` where the token executes only after an
/// `is_enabled()` check held true. Recognized guard shapes (all present
/// in the codebase):
///
/// ```text
/// if prov.is_enabled() { … }                  — direct guard
/// Mode::X if prov.is_enabled() => { … }       — match-arm guard
/// let explaining = prov.is_enabled(); if explaining { … }
///                                             — named guard
/// if !prov.is_enabled() { return …; } …       — early-return guard
///                                               (rest of the block counts)
/// ```
pub fn guard_mask(file: &SourceFile) -> Vec<bool> {
    let toks = &file.tokens;
    let mut mask = vec![false; toks.len()];
    // Pre-pass: names bound to an `is_enabled()` result.
    let mut guard_vars: BTreeSet<&str> = BTreeSet::new();
    for i in 0..toks.len() {
        if toks[i].is_ident("is_enabled") {
            // Walk back to the statement start; if it begins with `let`,
            // record the bound name.
            let mut j = i;
            while j > 0 {
                let t = &toks[j - 1];
                if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
                    break;
                }
                j -= 1;
            }
            if toks.get(j).is_some_and(|t| t.is_ident("let")) {
                let mut k = j + 1;
                if toks.get(k).is_some_and(|t| t.is_ident("mut")) {
                    k += 1;
                }
                if let Some(name) = toks.get(k).and_then(Token::ident) {
                    guard_vars.insert(name);
                }
            }
        }
    }

    let mut stack: Vec<GuardBlock> = vec![GuardBlock {
        guarded: false,
        negated_guard: false,
        saw_return: false,
    }];
    // Tokens since the last statement/block boundary: the "run-up" a `{`
    // is judged by.
    let mut window_start = 0usize;
    for i in 0..toks.len() {
        let t = &toks[i];
        let current = stack.last().map(|b| b.guarded).unwrap_or(false);
        mask[i] = current;
        if t.is_punct(';') {
            window_start = i + 1;
            continue;
        }
        if t.is_punct('{') {
            let window = &toks[window_start..i];
            let (hit, negated) = guard_in_window(window, &guard_vars);
            stack.push(GuardBlock {
                guarded: current || (hit && !negated),
                negated_guard: hit && negated,
                saw_return: false,
            });
            window_start = i + 1;
            continue;
        }
        if t.is_punct('}') {
            if let Some(done) = stack.pop() {
                if done.negated_guard && done.saw_return {
                    if let Some(top) = stack.last_mut() {
                        top.guarded = true;
                    }
                }
            }
            if stack.is_empty() {
                stack.push(GuardBlock {
                    guarded: false,
                    negated_guard: false,
                    saw_return: false,
                });
            }
            window_start = i + 1;
            continue;
        }
        if t.is_ident("return") {
            if let Some(top) = stack.last_mut() {
                top.saw_return = true;
            }
        }
    }
    mask
}

/// Whether the run-up to a `{` contains a guard, and whether that guard
/// is negated (`if !prov.is_enabled()`).
pub fn guard_in_window(window: &[Token], guard_vars: &BTreeSet<&str>) -> (bool, bool) {
    for (i, t) in window.iter().enumerate() {
        let hit =
            t.is_ident("is_enabled") || t.ident().is_some_and(|name| guard_vars.contains(name));
        if !hit {
            continue;
        }
        // Walk back across the receiver chain (`ident . ident .`) to see
        // whether a `!` negates it.
        let mut j = i;
        while j >= 2 && window[j - 1].is_punct('.') && window[j - 2].ident().is_some() {
            j -= 2;
        }
        let negated = j >= 1 && window[j - 1].is_punct('!')
            // `!=` lexes as '!' '=' — the '=' sits before the '!' operand
            // only in `a != b` shapes, where '!' is *followed* by '='.
            && !window.get(j).is_some_and(|t| t.is_punct('='));
        return (true, negated);
    }
    (false, false)
}

// ---------------------------------------------------------------------------
// Scope tracking and function extraction.

/// Map a workspace-relative path to its module-path segments.
fn module_segments(rel: &str) -> Vec<String> {
    let parts: Vec<&str> = rel.split('/').collect();
    let mut segs: Vec<String> = Vec::new();
    let mut rest: &[&str] = &parts;
    if parts.first() == Some(&"crates") && parts.len() >= 3 {
        segs.push(parts[1].to_owned());
        rest = &parts[2..];
    } else if parts.first() == Some(&"src") {
        segs.push("deepeye".to_owned());
        rest = &parts[1..];
    } else if let Some(first) = parts.first() {
        segs.push((*first).to_owned());
        rest = &parts[1..];
    }
    for (k, part) in rest.iter().enumerate() {
        if *part == "src" && k == 0 {
            continue;
        }
        let is_last = k == rest.len() - 1;
        if is_last {
            let stem = part.strip_suffix(".rs").unwrap_or(part);
            if stem != "lib" && stem != "mod" && stem != "main" {
                segs.push(stem.to_owned());
            }
        } else {
            segs.push((*part).to_owned());
        }
    }
    segs
}

#[derive(Debug, Clone)]
enum Scope {
    Mod(String),
    Type(String),
    Other,
}

/// Parse the `impl`/`trait` header in `window`, returning the type —
/// for `impl Trait for Type` that is `Type`.
fn parse_type_header(window: &[Token]) -> Option<String> {
    let kw = window
        .iter()
        .position(|t| t.is_ident("impl") || t.is_ident("trait"))?;
    if window[kw].is_ident("trait") {
        let name = window.get(kw + 1).and_then(Token::ident)?;
        return Some(name.to_owned());
    }
    // `impl [<…>] Path [for Path] [where …]` — collect angle-depth-0
    // path idents, split at `for`.
    let mut angle = 0i32;
    let mut before_for: Vec<&str> = Vec::new();
    let mut after_for: Vec<&str> = Vec::new();
    let mut seen_for = false;
    for t in &window[kw + 1..] {
        match &t.tok {
            crate::lexer::Tok::Punct('<') => angle += 1,
            crate::lexer::Tok::Punct('>') => angle -= 1,
            crate::lexer::Tok::Ident(w) if angle == 0 => {
                if w == "for" {
                    seen_for = true;
                } else if w == "where" {
                    break;
                } else if seen_for {
                    after_for.push(w);
                } else {
                    before_for.push(w);
                }
            }
            _ => {}
        }
    }
    let ty = if seen_for { after_for } else { before_for };
    Some((*ty.last()?).to_owned())
}

/// Parse a `fn` header starting at the `fn` keyword index; returns the
/// partially-filled def (no body/cfg yet) and the index of the body `{`.
#[allow(clippy::too_many_arguments)]
fn parse_fn_header(
    file: &SourceFile,
    file_idx: usize,
    toks: &[Token],
    window_start: usize,
    fn_kw: usize,
    mods: &[String],
    scope_ty: Option<&String>,
    is_test: bool,
) -> Option<(FuncDef, usize)> {
    let name = toks.get(fn_kw + 1).and_then(Token::ident)?.to_owned();
    let is_pub = toks[window_start..fn_kw].iter().any(|t| t.is_ident("pub"));
    // Skip generics between the name and the parameter list.
    let mut k = fn_kw + 2;
    if toks.get(k).is_some_and(|t| t.is_punct('<')) {
        let mut angle = 0i32;
        while k < toks.len() {
            if toks[k].is_punct('<') {
                angle += 1;
            } else if toks[k].is_punct('>') {
                angle -= 1;
                if angle == 0 {
                    k += 1;
                    break;
                }
            }
            k += 1;
        }
    }
    if !toks.get(k).is_some_and(|t| t.is_punct('(')) {
        return None;
    }
    // Parameter list: comma-separated at paren depth 1.
    let open_paren = k;
    let mut depth = 0i32;
    let mut params: Vec<(String, String)> = Vec::new();
    let mut item: Vec<&Token> = Vec::new();
    let mut close_paren = toks.len();
    for (j, t) in toks.iter().enumerate().skip(open_paren) {
        match &t.tok {
            crate::lexer::Tok::Punct('(') => {
                depth += 1;
                if depth > 1 {
                    item.push(t);
                }
            }
            crate::lexer::Tok::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    if !item.is_empty() {
                        push_param(&mut params, &item);
                    }
                    close_paren = j;
                    break;
                }
                item.push(t);
            }
            crate::lexer::Tok::Punct(',') if depth == 1 => {
                if !item.is_empty() {
                    push_param(&mut params, &item);
                }
                item.clear();
            }
            _ => item.push(t),
        }
    }
    // Return type: tokens between `)` and the body `{` (or `;`).
    let body_open = find_body_open(toks, close_paren + 1);
    let ret_end = body_open.unwrap_or(toks.len());
    let returns_result = toks[close_paren..ret_end.min(toks.len())]
        .iter()
        .any(|t| t.is_ident("Result"));
    let body_open = body_open?;
    let qual = {
        let mut parts: Vec<&str> = mods.iter().map(String::as_str).collect();
        if let Some(ty) = scope_ty {
            parts.push(ty);
        }
        parts.push(&name);
        parts.join("::")
    };
    Some((
        FuncDef {
            name,
            qual,
            file: file_idx,
            rel: file.rel.clone(),
            line: toks[fn_kw].line,
            is_pub,
            impl_type: scope_ty.cloned(),
            params,
            returns_result,
            body_start: body_open,
            body_end: body_open, // fixed up by the caller
            is_test,
            cfg: Cfg::default(),
        },
        body_open,
    ))
}

/// Record one parameter from its token run (`name: Type…`); `self`
/// receivers are skipped.
fn push_param(params: &mut Vec<(String, String)>, item: &[&Token]) {
    let mut idx = 0usize;
    while idx < item.len() && (item[idx].is_ident("mut") || item[idx].is_punct('&')) {
        idx += 1;
    }
    let Some(name) = item.get(idx).and_then(|t| t.ident()) else {
        return;
    };
    if name == "self" {
        return;
    }
    // Best-effort type: the last capitalized ident at angle depth 0 after
    // the `:` (so `&mut Observer`, `Option<&Observer>` → `Observer` is
    // captured by the depth-1 fallback below when the outer is generic).
    let mut ty = String::new();
    let mut angle = 0i32;
    let mut seen_colon = false;
    for t in item.iter().skip(idx + 1) {
        match &t.tok {
            crate::lexer::Tok::Punct(':') => seen_colon = true,
            crate::lexer::Tok::Punct('<') => angle += 1,
            crate::lexer::Tok::Punct('>') => angle -= 1,
            crate::lexer::Tok::Ident(w)
                if seen_colon && angle <= 1 && w.chars().next().is_some_and(char::is_uppercase) =>
            {
                ty = w.clone();
            }
            _ => {}
        }
    }
    params.push((name.to_owned(), ty));
}

/// Extract every function defined in `file`, with module/impl context
/// and a per-function CFG.
pub fn functions_in_file(file: &SourceFile, file_idx: usize) -> Vec<FuncDef> {
    let toks = &file.tokens;
    let mut out: Vec<FuncDef> = Vec::new();
    let base_mods = module_segments(&file.rel);
    let mut mod_stack: Vec<String> = base_mods;
    let mut scopes: Vec<Scope> = Vec::new();
    let mut window_start = 0usize;
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct(';') {
            window_start = i + 1;
            i += 1;
            continue;
        }
        if t.is_punct('}') {
            if let Some(Scope::Mod(_)) = scopes.pop() {
                mod_stack.pop();
            }
            window_start = i + 1;
            i += 1;
            continue;
        }
        if t.is_punct('{') {
            let window = &toks[window_start..i];
            let scope = classify_window(window);
            match &scope {
                Scope::Mod(name) => mod_stack.push(name.clone()),
                Scope::Type(_) | Scope::Other => {}
            }
            scopes.push(scope);
            window_start = i + 1;
            i += 1;
            continue;
        }
        // A `fn` item: `fn` followed by a name (a bare `fn(` is a type).
        if t.is_ident("fn") && toks.get(i + 1).and_then(Token::ident).is_some() {
            let scope_ty = scopes.iter().rev().find_map(|s| match s {
                Scope::Type(ty) => Some(ty.clone()),
                _ => None,
            });
            let is_test = file.is_test_file || file.test_tokens.get(i).copied().unwrap_or(false);
            if let Some((mut def, body_open)) = parse_fn_header(
                file,
                file_idx,
                toks,
                window_start,
                i,
                &mod_stack,
                scope_ty.as_ref(),
                is_test,
            ) {
                let body_close = matching_brace(toks, body_open);
                def.body_end = body_close;
                def.cfg = build_cfg(toks, body_open, body_close);
                out.push(def);
                // Continue scanning *inside* the body so nested items are
                // found too; window resumes after the header.
                window_start = body_open + 1;
                i = body_open + 1;
                // The body `{` belongs to no scope frame (we skipped it),
                // so push a neutral frame to keep brace pops balanced.
                scopes.push(Scope::Other);
                continue;
            }
        }
        i += 1;
    }
    out
}

fn classify_window(window: &[Token]) -> Scope {
    let has = |kw: &str| window.iter().any(|t| t.is_ident(kw));
    if has("impl") || has("trait") {
        if let Some(ty) = parse_type_header(window) {
            return Scope::Type(ty);
        }
    }
    if has("mod") && !has("fn") {
        if let Some(pos) = window.iter().position(|t| t.is_ident("mod")) {
            if let Some(name) = window.get(pos + 1).and_then(Token::ident) {
                return Scope::Mod(name.to_owned());
            }
        }
    }
    Scope::Other
}

/// Split the body token range `[open, close)` into CFG-lite blocks.
fn build_cfg(toks: &[Token], open: usize, close: usize) -> Cfg {
    let start = open + 1;
    let end = close.saturating_sub(1).max(start);
    // Block boundaries: control keywords and `?` start a new block.
    let mut bounds: Vec<(usize, BlockKind)> = vec![(start, BlockKind::Entry)];
    for k in start..end {
        let t = &toks[k];
        let kind = if t.is_ident("if") || t.is_ident("else") || t.is_ident("match") {
            Some(BlockKind::Branch)
        } else if t.is_ident("loop")
            || t.is_ident("while")
            || (t.is_ident("for") && toks[k..end.min(k + 24)].iter().any(|t| t.is_ident("in")))
        {
            Some(BlockKind::LoopHead)
        } else if t.is_ident("return") || t.is_punct('?') {
            Some(BlockKind::Exit)
        } else {
            None
        };
        if let Some(kind) = kind {
            if bounds.last().map(|b| b.0) != Some(k) {
                bounds.push((k, kind));
            } else if let Some(last) = bounds.last_mut() {
                last.1 = kind;
            }
        }
    }
    let mut blocks: Vec<Block> = Vec::new();
    for (bi, (bstart, kind)) in bounds.iter().enumerate() {
        let bend = bounds.get(bi + 1).map(|b| b.0).unwrap_or(end);
        blocks.push(Block {
            start: *bstart,
            end: bend,
            line: toks.get(*bstart).map(|t| t.line).unwrap_or(0),
            kind: *kind,
            succs: Vec::new(),
        });
    }
    // Edges: fallthrough for non-exit blocks; branch join and loop
    // back/exit edges resolved through the construct's body braces.
    let block_at =
        |tok: usize| -> Option<usize> { blocks.iter().position(|b| b.start <= tok && tok < b.end) };
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for bi in 0..blocks.len() {
        let kind = blocks[bi].kind;
        if kind != BlockKind::Exit && bi + 1 < blocks.len() {
            edges.push((bi, bi + 1));
        }
        if matches!(kind, BlockKind::Branch | BlockKind::LoopHead) {
            if let Some(body_open) = find_body_open(toks, blocks[bi].start + 1) {
                let body_close = matching_brace(toks, body_open);
                if body_close <= end {
                    if let Some(join) = block_at(body_close) {
                        // Branch: edge over the arm to the join point.
                        // Loop: exit edge past the body.
                        if join != bi {
                            edges.push((bi, join));
                        }
                    }
                    if kind == BlockKind::LoopHead {
                        // Back edge from the last block inside the body; a
                        // body with no inner control flow stays merged with
                        // the head, so the back edge degenerates to a
                        // self-edge.
                        if let Some(last_in_body) = block_at(body_close.saturating_sub(1)) {
                            edges.push((last_in_body, bi));
                        }
                    }
                }
            }
        }
    }
    edges.sort_unstable();
    edges.dedup();
    for (from, to) in edges {
        blocks[from].succs.push(to);
    }
    Cfg { blocks }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::SourceFile;

    fn funcs(rel: &str, src: &str) -> Vec<FuncDef> {
        functions_in_file(&SourceFile::new(rel, src), 0)
    }

    #[test]
    fn module_paths_from_rel() {
        assert_eq!(
            module_segments("crates/query/src/sema.rs"),
            ["query", "sema"]
        );
        assert_eq!(module_segments("crates/core/src/lib.rs"), ["core"]);
        assert_eq!(
            module_segments("crates/analyze/src/model/sim.rs"),
            ["analyze", "model", "sim"]
        );
        assert_eq!(
            module_segments("crates/analyze/src/model/mod.rs"),
            ["analyze", "model"]
        );
        assert_eq!(module_segments("src/main.rs"), ["deepeye"]);
        assert_eq!(
            module_segments("examples/quickstart.rs"),
            ["examples", "quickstart"]
        );
    }

    #[test]
    fn extracts_free_and_impl_functions() {
        let src = r#"
pub fn free(a: u32, obs: &Observer) -> Result<u32, String> { Ok(a) }
struct Widget;
impl Widget {
    pub fn new() -> Widget { Widget }
    fn helper(&self, prov: &Provenance) { prov.noop(); }
}
impl Display for Widget {
    fn fmt(&self, f: &mut Formatter) -> fmt::Result { Ok(()) }
}
mod inner {
    pub fn nested() {}
}
"#;
        let fs = funcs("crates/core/src/widget.rs", src);
        let quals: Vec<&str> = fs.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(
            quals,
            [
                "core::widget::free",
                "core::widget::Widget::new",
                "core::widget::Widget::helper",
                "core::widget::Widget::fmt",
                "core::widget::inner::nested",
            ]
        );
        let free = &fs[0];
        assert!(free.is_pub && free.returns_result);
        assert_eq!(
            free.params,
            [
                ("a".to_owned(), String::new()),
                ("obs".to_owned(), "Observer".to_owned())
            ]
        );
        let fmt = &fs[3];
        assert_eq!(fmt.impl_type.as_deref(), Some("Widget"));
        assert!(fmt.returns_result);
        assert!(!fs[2].is_pub);
    }

    #[test]
    fn cfg_blocks_split_at_control_flow() {
        let src = r#"
fn f(n: u32) -> u32 {
    let mut acc = 0;
    for i in 0..n {
        acc += i;
    }
    if acc > 10 {
        return acc;
    }
    acc
}
"#;
        let fs = funcs("crates/core/src/x.rs", src);
        assert_eq!(fs.len(), 1);
        let cfg = &fs[0].cfg;
        assert!(cfg.blocks.len() >= 4, "{:?}", cfg.blocks);
        assert!(cfg.blocks.iter().any(|b| b.kind == BlockKind::LoopHead));
        assert!(cfg.blocks.iter().any(|b| b.kind == BlockKind::Branch));
        assert!(cfg.blocks.iter().any(|b| b.kind == BlockKind::Exit));
        // The loop has a back edge: some edge points at an earlier block.
        let back_edge = cfg
            .blocks
            .iter()
            .enumerate()
            .any(|(bi, b)| b.succs.iter().any(|&s| s <= bi));
        assert!(back_edge, "loop back edge missing: {:?}", cfg.blocks);
    }

    #[test]
    fn guard_mask_matches_rule_shapes() {
        let file = SourceFile::new(
            "crates/core/src/x.rs",
            r#"
fn f(prov: &Provenance) {
    before();
    if prov.is_enabled() {
        inside();
    }
    after();
    if !prov.is_enabled() {
        negated();
        return;
    }
    tail();
}
"#,
        );
        let mask = guard_mask(&file);
        for (t, m) in file.tokens.iter().zip(&mask) {
            match t.ident() {
                Some("before") | Some("after") | Some("negated") => {
                    assert!(!m, "{:?} must be unguarded", t)
                }
                Some("inside") | Some("tail") => assert!(m, "{:?} must be guarded", t),
                _ => {}
            }
        }
    }
}
