//! Lexer corpus test: every product source file in the real workspace
//! must lex with faithful, monotone spans and survive a render/re-lex
//! round trip.
//!
//! The interprocedural rules (A0009, A0010, A0015, A0019) trust the
//! token stream as their only view of the code — a span drift or a
//! silently dropped construct (raw strings, nested comments, byte
//! literals) would not crash anything, it would just quietly blind the
//! analysis. This test
//! turns the whole repository into the lexer's regression corpus.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use deepeye_analyze::lexer::{lex, Tok};
use deepeye_analyze::Workspace;
use std::path::Path;

fn load_workspace() -> Workspace {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root exists");
    Workspace::load(root).expect("workspace loads")
}

#[test]
fn every_workspace_file_lexes_with_faithful_spans() {
    let ws = load_workspace();
    assert!(ws.files.len() > 50, "corpus looks truncated");
    for f in &ws.files {
        let chars: Vec<char> = f.raw.chars().collect();
        let mut prev_end = 0u32;
        let mut prev_line = 1u32;
        for (i, t) in f.tokens.iter().enumerate() {
            let (start, end) = t.span;
            assert!(start < end, "{}: token {i} has an empty span", f.rel);
            assert!(
                start >= prev_end,
                "{}: token {i} overlaps its predecessor",
                f.rel
            );
            assert!(
                end as usize <= chars.len(),
                "{}: token {i} runs past end of file",
                f.rel
            );
            assert!(
                t.line >= prev_line,
                "{}: token {i} line number went backwards",
                f.rel
            );
            prev_end = end;
            prev_line = t.line;

            let slice: String = chars[start as usize..end as usize].iter().collect();
            match &t.tok {
                Tok::Ident(w) => assert_eq!(&slice, w, "{}: ident span drifted", f.rel),
                Tok::Punct(c) => {
                    assert_eq!(slice, c.to_string(), "{}: punct span drifted", f.rel);
                }
                Tok::Lifetime(l) => {
                    assert_eq!(slice, format!("'{l}"), "{}: lifetime span drifted", f.rel);
                }
                // Numeric and string spans cover source syntax (guards,
                // quotes, escapes) that the token resolves away; their
                // fidelity is established by the re-lex below.
                Tok::Num | Tok::Str(_) => {}
            }
        }
        assert_eq!(
            f.tokens.len(),
            f.test_tokens.len(),
            "{}: test mask out of step with the token stream",
            f.rel
        );
    }
}

/// Render each token's source slice back out (whitespace-normalized) and
/// lex the result: the token stream must be reproduced exactly. This is
/// the "no dropped bytes" property — any source text a token's span
/// fails to capture (a raw-string guard, a byte-string prefix, the tail
/// of a float) changes the re-lexed stream and fails here, file by file.
#[test]
fn corpus_round_trips_through_render_and_relex() {
    let ws = load_workspace();
    for f in &ws.files {
        let chars: Vec<char> = f.raw.chars().collect();
        let rendered: String = f
            .tokens
            .iter()
            .map(|t| {
                chars[t.span.0 as usize..t.span.1 as usize]
                    .iter()
                    .collect::<String>()
            })
            .collect::<Vec<_>>()
            .join(" ");
        let again = lex(&rendered);
        assert_eq!(
            again.len(),
            f.tokens.len(),
            "{}: re-lex changed the token count",
            f.rel
        );
        for (i, (a, b)) in f.tokens.iter().zip(&again).enumerate() {
            assert_eq!(
                a.tok, b.tok,
                "{}: token {i} drifted through the round trip",
                f.rel
            );
        }
    }
}

/// Raw identifiers (`r#fn`, `r#loop`) are one token each: the escape
/// must not leak a bare keyword into downstream matchers (an `fn`
/// keyword token where none exists would, e.g., invent a function in the
/// call graph), and must survive the render/re-lex round trip.
#[test]
fn raw_identifiers_lex_as_single_tokens_and_round_trip() {
    let src = r##"fn r#fn(r#loop: u32) -> u32 { let r#match = r#loop + 1; r#match }
const R: &str = r#"still a raw string"#;"##;
    let toks = lex(src);
    let idents: Vec<&str> = toks
        .iter()
        .filter_map(|t| match &t.tok {
            Tok::Ident(w) => Some(w.as_str()),
            _ => None,
        })
        .collect();
    for raw in ["r#fn", "r#loop", "r#match"] {
        assert!(idents.contains(&raw), "missing raw ident {raw}: {idents:?}");
    }
    assert!(
        !idents.contains(&"loop") && !idents.contains(&"match"),
        "raw-ident escape leaked a bare keyword: {idents:?}"
    );
    assert!(
        !toks.iter().any(|t| t.tok == Tok::Punct('#')),
        "raw-ident `#` escaped as punctuation"
    );
    assert!(
        toks.iter()
            .any(|t| t.tok == Tok::Str("still a raw string".into())),
        "r#\"…\"# raw strings still lex as strings"
    );
    // Round trip: rendering each span and re-lexing reproduces the stream.
    let chars: Vec<char> = src.chars().collect();
    let rendered: String = toks
        .iter()
        .map(|t| {
            chars[t.span.0 as usize..t.span.1 as usize]
                .iter()
                .collect::<String>()
        })
        .collect::<Vec<_>>()
        .join(" ");
    let again = lex(&rendered);
    assert_eq!(toks.len(), again.len(), "re-lex changed the token count");
    for (a, b) in toks.iter().zip(&again) {
        assert_eq!(a.tok, b.tok);
    }
}
