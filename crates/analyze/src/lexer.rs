//! A lightweight Rust lexer for the invariant linter.
//!
//! The linter's rules are *lexical*: they look for token shapes (`.
//! incr ( "name"`, `thread :: spawn`, a `{` opened after `is_enabled`)
//! rather than building an AST. A real lexer — as opposed to substring
//! search — is what makes that sound: comments and doc comments are
//! stripped (a rule must not fire on prose), string literals are kept as
//! single tokens (metric names live in them; a `{` inside a string must
//! not look like a block), and lifetimes are told apart from char
//! literals. The token stream carries line numbers so diagnostics point
//! at sources, and char-offset spans so the corpus round-trip test can
//! prove no input region was silently dropped or double-lexed.
//!
//! Byte literals are first-class: `b"…"` lexes like a normal string
//! (escapes honored), `br#"…"#` / `rb"…"` like raw strings, and `b'x'` /
//! `b'\n'` like char literals — a byte string mis-lexed as a raw string
//! would desynchronize on its first escaped quote and corrupt every
//! token after it, which function extraction cannot tolerate.
//!
//! Unsupported exotica degrades gracefully: the lexer never panics, it
//! just tokenizes conservatively.

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword (`fn`, `Instant`, `is_enabled`, …).
    Ident(String),
    /// String literal (normal, raw, or byte), *contents only* — quotes,
    /// `r#` guards and escapes are resolved away.
    Str(String),
    /// A lifetime such as `'a` (stored without the quote).
    Lifetime(String),
    /// Numeric literal (value not needed by any rule).
    Num,
    /// Single punctuation character: `{ } ( ) [ ] . , ; : ! = > < & | # …`
    Punct(char),
}

/// A token plus the 1-based source line it starts on and its half-open
/// `[start, end)` span in char offsets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub tok: Tok,
    pub line: u32,
    /// Char-offset span `[start, end)` of the token in the source.
    pub span: (u32, u32),
}

impl Token {
    /// The identifier text, if this is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.tok {
            Tok::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// The string-literal contents, if this is a string literal.
    pub fn str_lit(&self) -> Option<&str> {
        match &self.tok {
            Tok::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Whether this is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.tok == Tok::Punct(c)
    }

    /// Whether this is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.ident() == Some(name)
    }
}

/// Tokenize Rust source. Comments (line, block — nested — and doc) are
/// dropped; everything else becomes a [`Token`].
pub fn lex(src: &str) -> Vec<Token> {
    let bytes: Vec<char> = src.chars().collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let n = bytes.len();

    let is_ident_start = |c: char| c.is_alphabetic() || c == '_';
    let is_ident_cont = |c: char| c.is_alphanumeric() || c == '_';

    while i < n {
        let c = bytes[i];
        let start = i;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if i + 1 < n && bytes[i + 1] == '/' => {
                // Line comment (incl. doc comments): skip to end of line.
                while i < n && bytes[i] != '\n' {
                    i += 1;
                }
            }
            '/' if i + 1 < n && bytes[i + 1] == '*' => {
                // Block comment, nested: `/* a /* b */ c */` closes only
                // at the outermost `*/`, tracking depth so the interior
                // `*/` does not resume lexing mid-comment.
                let mut depth = 1usize;
                i += 2;
                while i < n && depth > 0 {
                    if bytes[i] == '\n' {
                        line += 1;
                        i += 1;
                    } else if bytes[i] == '/' && i + 1 < n && bytes[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == '*' && i + 1 < n && bytes[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            '"' => {
                let start_line = line;
                let (lit, next, nl) = lex_string(&bytes, i + 1);
                out.push(Token {
                    tok: Tok::Str(lit),
                    line: start_line,
                    span: (start as u32, next as u32),
                });
                line += nl;
                i = next;
            }
            '\'' => {
                let (tok, next, nl) = lex_quote(&bytes, i);
                out.push(Token {
                    tok,
                    line,
                    span: (start as u32, next as u32),
                });
                line += nl;
                i = next;
            }
            c if c.is_ascii_digit() => {
                while i < n && (is_ident_cont(bytes[i]) || bytes[i] == '.') {
                    // `1..n` range: stop before the second dot.
                    if bytes[i] == '.' && i + 1 < n && bytes[i + 1] == '.' {
                        break;
                    }
                    i += 1;
                }
                out.push(Token {
                    tok: Tok::Num,
                    line,
                    span: (start as u32, i as u32),
                });
            }
            c if is_ident_start(c) => {
                while i < n && is_ident_cont(bytes[i]) {
                    i += 1;
                }
                let word: String = bytes[start..i].iter().collect();
                let next = bytes.get(i).copied();
                // Byte char literal: b'x', b'\n'.
                if word == "b" && next == Some('\'') {
                    let (tok, next, nl) = lex_quote(&bytes, i);
                    out.push(Token {
                        tok,
                        line,
                        span: (start as u32, next as u32),
                    });
                    line += nl;
                    i = next;
                    continue;
                }
                // Byte string: b"…" — escapes behave like a normal string.
                if word == "b" && next == Some('"') {
                    let start_line = line;
                    let (lit, next, nl) = lex_string(&bytes, i + 1);
                    out.push(Token {
                        tok: Tok::Str(lit),
                        line: start_line,
                        span: (start as u32, next as u32),
                    });
                    line += nl;
                    i = next;
                    continue;
                }
                // Raw / raw-byte string prefixes: r"…", r#"…"#, br#"…"#, rb"…".
                if (word == "r" || word == "br" || word == "rb")
                    && (next == Some('"') || next == Some('#'))
                {
                    let start_line = line;
                    let mut hashes = 0usize;
                    let mut j = i;
                    while j < n && bytes[j] == '#' {
                        hashes += 1;
                        j += 1;
                    }
                    if j < n && bytes[j] == '"' {
                        let (lit, next, nl) = lex_raw_string(&bytes, j + 1, hashes);
                        out.push(Token {
                            tok: Tok::Str(lit),
                            line: start_line,
                            span: (start as u32, next as u32),
                        });
                        line += nl;
                        i = next;
                        continue;
                    }
                    // `r#ident` raw identifier: one token spanning the
                    // whole escape, so `r#fn` never leaks a bare `fn`
                    // keyword into downstream token matchers.
                    if word == "r" && hashes == 1 && j < n && is_ident_start(bytes[j]) {
                        let mut k = j;
                        while k < n && is_ident_cont(bytes[k]) {
                            k += 1;
                        }
                        let raw: String = bytes[start..k].iter().collect();
                        out.push(Token {
                            tok: Tok::Ident(raw),
                            line,
                            span: (start as u32, k as u32),
                        });
                        i = k;
                        continue;
                    }
                }
                out.push(Token {
                    tok: Tok::Ident(word),
                    line,
                    span: (start as u32, i as u32),
                });
            }
            _ => {
                out.push(Token {
                    tok: Tok::Punct(c),
                    line,
                    span: (start as u32, (start + 1) as u32),
                });
                i += 1;
            }
        }
    }
    out
}

/// Lex the region starting at a `'` at `bytes[i]`: a lifetime (`'a`) or a
/// char literal (`'x'`, `'\n'`). Returns (token, next-index, newlines).
fn lex_quote(bytes: &[char], i: usize) -> (Tok, usize, u32) {
    let n = bytes.len();
    let is_ident_start = |c: char| c.is_alphabetic() || c == '_';
    let is_ident_cont = |c: char| c.is_alphanumeric() || c == '_';
    if i + 1 < n && is_ident_start(bytes[i + 1]) {
        // Look past the identifier: a closing quote makes it a char
        // literal like 'a'; otherwise it is a lifetime.
        let mut j = i + 1;
        while j < n && is_ident_cont(bytes[j]) {
            j += 1;
        }
        if j < n && bytes[j] == '\'' && j == i + 2 {
            return (Tok::Num, j + 1, 0);
        }
        let name: String = bytes[i + 1..j].iter().collect();
        return (Tok::Lifetime(name), j, 0);
    }
    // Escaped or punctuation char literal: scan to the closing quote,
    // honoring a single backslash escape (incl. \u{...}).
    let mut j = i + 1;
    let mut nl = 0u32;
    if j < n && bytes[j] == '\\' {
        j += 2;
        while j < n && bytes[j] != '\'' {
            if bytes[j] == '\n' {
                nl += 1;
            }
            j += 1;
        }
    } else if j < n {
        if bytes[j] == '\n' {
            nl += 1;
        }
        j += 1;
    }
    (Tok::Num, (j + 1).min(n), nl)
}

/// Lex a normal string body starting *after* the opening quote.
/// Returns (contents, index-after-closing-quote, newlines-consumed).
fn lex_string(bytes: &[char], mut i: usize) -> (String, usize, u32) {
    let mut s = String::new();
    let mut nl = 0u32;
    let n = bytes.len();
    while i < n {
        match bytes[i] {
            '\\' if i + 1 < n => {
                // Keep escapes unresolved except the quote — rules only
                // match plain metric-name strings where escapes never occur.
                if bytes[i + 1] == '"' {
                    s.push('"');
                } else {
                    s.push('\\');
                    s.push(bytes[i + 1]);
                    if bytes[i + 1] == '\n' {
                        nl += 1;
                    }
                }
                i += 2;
            }
            '"' => return (s, i + 1, nl),
            c => {
                if c == '\n' {
                    nl += 1;
                }
                s.push(c);
                i += 1;
            }
        }
    }
    (s, n, nl)
}

/// Lex a raw string body starting after the opening quote, closed by
/// `"` followed by `hashes` `#` characters.
fn lex_raw_string(bytes: &[char], mut i: usize, hashes: usize) -> (String, usize, u32) {
    let mut s = String::new();
    let mut nl = 0u32;
    let n = bytes.len();
    while i < n {
        if bytes[i] == '"' {
            let mut j = i + 1;
            let mut seen = 0usize;
            while j < n && seen < hashes && bytes[j] == '#' {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                return (s, j, nl);
            }
        }
        if bytes[i] == '\n' {
            nl += 1;
        }
        s.push(bytes[i]);
        i += 1;
    }
    (s, n, nl)
}

/// Per-token mask of test regions: `true` where the token sits inside a
/// `#[cfg(test)] mod … { … }` block or a `#[test]` / `#[cfg(test)]`
/// attributed item. Rules skip masked tokens — panicking shortcuts and
/// unguarded calls are legitimate in tests.
pub fn test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if let Some(attr_end) = match_test_attr(tokens, i) {
            // Find the opening brace of the attributed item and mask to
            // its matching close.
            let mut j = attr_end;
            let mut depth_guard = 0usize;
            while j < tokens.len() && !tokens[j].is_punct('{') {
                // A `;`-terminated item (e.g. `#[cfg(test)] use …;`) has
                // no body; mask just the attribute span.
                if tokens[j].is_punct(';') {
                    break;
                }
                j += 1;
                depth_guard += 1;
                if depth_guard > 64 {
                    break;
                }
            }
            if j < tokens.len() && tokens[j].is_punct('{') {
                let close = matching_brace(tokens, j);
                let end = close.min(mask.len());
                for slot in mask.iter_mut().take(end).skip(i) {
                    *slot = true;
                }
                i = close;
                continue;
            }
            let end = j.min(mask.len());
            for slot in mask.iter_mut().take(end).skip(i) {
                *slot = true;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    mask
}

/// If `tokens[i..]` starts a `#[cfg(test)]` or `#[test]` attribute,
/// return the index one past its closing `]`.
fn match_test_attr(tokens: &[Token], i: usize) -> Option<usize> {
    if !tokens.get(i)?.is_punct('#') || !tokens.get(i + 1)?.is_punct('[') {
        return None;
    }
    // Collect tokens to the closing `]` (attributes are short).
    let mut j = i + 2;
    let mut inner: Vec<&Token> = Vec::new();
    while j < tokens.len() && !tokens[j].is_punct(']') {
        inner.push(&tokens[j]);
        j += 1;
        if j - i > 24 {
            return None;
        }
    }
    if j >= tokens.len() {
        return None;
    }
    let is_test = match inner.first() {
        Some(t) if t.is_ident("test") => true,
        Some(t) if t.is_ident("cfg") => inner.iter().any(|t| t.is_ident("test")),
        _ => false,
    };
    is_test.then_some(j + 1)
}

/// Index one past the `}` matching the `{` at `open` (or `tokens.len()`
/// if unbalanced).
pub fn matching_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return k + 1;
            }
        }
    }
    tokens.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn comments_are_stripped() {
        let src = "// Instant in a comment\n/* Instant /* nested */ still */ fn f() {}";
        assert_eq!(idents(src), ["fn", "f"]);
    }

    #[test]
    fn deeply_nested_block_comments() {
        let src = "/* a /* b /* c */ b */ a */ fn f() {}\nlet x = 1; /* tail /*/ still open */ closes */ fn g() {}";
        assert_eq!(idents(src), ["fn", "f", "let", "x", "fn", "g"]);
    }

    #[test]
    fn strings_are_single_tokens() {
        let toks = lex(r#"obs.incr("exec.ok", 1);"#);
        let strs: Vec<_> = toks.iter().filter_map(Token::str_lit).collect();
        assert_eq!(strs, ["exec.ok"]);
        // The braces-in-string case that breaks substring scanners:
        let toks = lex(r#"let x = "{ not a block }";"#);
        assert_eq!(toks.iter().filter(|t| t.is_punct('{')).count(), 0);
    }

    #[test]
    fn raw_and_escaped_strings() {
        let toks = lex("let a = r#\"he \"quoted\"\"#; let b = \"es\\\"c\";");
        let strs: Vec<_> = toks.iter().filter_map(Token::str_lit).collect();
        assert_eq!(strs, ["he \"quoted\"", "es\"c"]);
    }

    #[test]
    fn byte_strings_honor_escapes() {
        // The pre-fix lexer routed b"…" through the raw-string path, so
        // the escaped quote ended the literal and everything after
        // desynchronized.
        let toks = lex(r#"let a = b"es\"c"; fn f() {}"#);
        let strs: Vec<_> = toks.iter().filter_map(Token::str_lit).collect();
        assert_eq!(strs, ["es\"c"]);
        assert_eq!(
            idents(r#"let a = b"es\"c"; fn f() {}"#),
            ["let", "a", "fn", "f"]
        );
    }

    #[test]
    fn raw_byte_strings() {
        let toks = lex("let a = br#\"raw \"bytes\"\"#; let b = rb\"plain\"; fn f() {}");
        let strs: Vec<_> = toks.iter().filter_map(Token::str_lit).collect();
        assert_eq!(strs, ["raw \"bytes\"", "plain"]);
    }

    #[test]
    fn byte_char_literals() {
        // b'x' and b'\'' are numeric-literal-like, not a stray `b` ident
        // followed by a lifetime.
        let toks = lex(r"let a = b'x'; let b = b'\''; let c = b'\n'; fn f() {}");
        assert_eq!(
            idents(r"let a = b'x'; let b = b'\''; let c = b'\n'; fn f() {}"),
            ["let", "a", "let", "b", "let", "c", "fn", "f"]
        );
        assert!(toks.iter().all(|t| !matches!(t.tok, Tok::Lifetime(_))));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'x'; let nl = '\\n'; }");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Lifetime(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(lifetimes, ["a", "a"]);
    }

    #[test]
    fn line_numbers_track() {
        let toks = lex("a\nb\n\nc");
        let lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, [1, 2, 4]);
    }

    #[test]
    fn spans_are_monotone_and_cover_idents() {
        let src = "fn f(x: u32) -> u32 { x + 1 }\nlet s = \"lit\";";
        let chars: Vec<char> = src.chars().collect();
        let toks = lex(src);
        let mut prev_end = 0u32;
        for t in &toks {
            let (s, e) = t.span;
            assert!(s >= prev_end, "span starts before previous token ended");
            assert!(s < e, "empty span");
            prev_end = e;
            if let Some(name) = t.ident() {
                let slice: String = chars[s as usize..e as usize].iter().collect();
                assert_eq!(slice, name);
            }
        }
        assert!(prev_end as usize <= chars.len());
    }

    #[test]
    fn test_mask_covers_cfg_test_mod() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests { fn t() { spawn(); } }\nfn tail() {}";
        let toks = lex(src);
        let mask = test_mask(&toks);
        for (t, m) in toks.iter().zip(&mask) {
            if t.is_ident("spawn") {
                assert!(m, "spawn inside cfg(test) must be masked");
            }
            if t.is_ident("lib") || t.is_ident("tail") {
                assert!(!m, "library items must not be masked");
            }
        }
    }

    #[test]
    fn test_mask_covers_test_fn() {
        let src = "#[test]\nfn one() { body(); }\nfn lib() { other(); }";
        let toks = lex(src);
        let mask = test_mask(&toks);
        for (t, m) in toks.iter().zip(&mask) {
            if t.is_ident("body") {
                assert!(m);
            }
            if t.is_ident("other") {
                assert!(!m);
            }
        }
    }
}
