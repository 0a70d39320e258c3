//! Linter integration tests against the *real* workspace tree.
//!
//! These are the teeth behind the invariants: the checked-in tree must
//! lint clean with an **empty** baseline, and the DESIGN.md §8 rule
//! catalog must match the code.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use deepeye_analyze::rules::{FAMILIES, RULES};
use deepeye_analyze::{lint::run, Baseline, Workspace};
use std::path::Path;

fn workspace_root() -> &'static Path {
    // crates/analyze -> crates -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root exists")
}

fn load_workspace() -> Workspace {
    Workspace::load(workspace_root()).expect("workspace loads")
}

fn read_baseline() -> Baseline {
    let path = workspace_root().join("analyze.allow");
    let text = std::fs::read_to_string(&path).expect("analyze.allow is checked in");
    Baseline::parse(&text).expect("analyze.allow parses")
}

/// The headline acceptance check: `analyze --workspace` is clean on
/// the final tree, and the baseline used to get there is empty.
#[test]
fn real_workspace_lints_clean_with_empty_baseline() {
    let baseline = read_baseline();
    let outcome = run(&load_workspace(), &baseline);
    assert!(
        outcome.violations.is_empty(),
        "workspace must lint clean:\n{}",
        outcome
            .violations
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        outcome.suppressed.is_empty() && outcome.stale.is_empty(),
        "baseline must be empty (policy: fix, don't baseline)"
    );
    assert!(outcome.files_scanned > 50, "workspace scan looks truncated");
}

/// Doc-sync (the A-code analogue of A0004 itself): the DESIGN.md §8
/// catalog lists exactly the rules the linter implements, summaries
/// verbatim, and mentions no A-code the linter does not emit.
#[test]
fn design_doc_rule_catalog_matches_code() {
    let text =
        std::fs::read_to_string(workspace_root().join("DESIGN.md")).expect("DESIGN.md readable");
    let start = text
        .find("## 8. Static analysis & concurrency checking")
        .expect("DESIGN.md has a §8 static-analysis section");
    let end = text[start..]
        .find("\n## 9.")
        .map_or(text.len(), |i| start + i);
    let section = &text[start..end];

    for rule in RULES {
        assert!(
            section.contains(&format!("| {} |", rule.code)),
            "DESIGN.md §8 catalog is missing a row for {}",
            rule.code
        );
        assert!(
            section.contains(rule.summary),
            "DESIGN.md §8 must carry {}'s summary verbatim: {:?}",
            rule.code,
            rule.summary
        );
    }

    // Reverse direction: every A-code shaped token in §8 is a real rule.
    let known: Vec<&str> = RULES.iter().map(|r| r.code).collect();
    let bytes = section.as_bytes();
    for (i, _) in section.match_indices('A') {
        let tail = &section[i..];
        if tail.len() >= 5 && tail[1..5].bytes().all(|b| b.is_ascii_digit()) {
            let before_ok = i == 0 || !bytes[i - 1].is_ascii_alphanumeric();
            let after_ok = tail.len() == 5 || !bytes[i + 5].is_ascii_alphanumeric();
            if before_ok && after_ok {
                let code = &tail[..5];
                assert!(
                    known.contains(&code),
                    "DESIGN.md §8 mentions {code}, which no linter rule emits"
                );
            }
        }
    }
}

/// Every path the name-sync table names is in the real scan. A row whose
/// anchor is renamed away would skip its reverse and doc checks and still
/// report zero violations; a listed file that vanished would stop
/// counting as a use site.
#[test]
fn name_sync_table_paths_exist() {
    let ws = load_workspace();
    for family in FAMILIES {
        let named = family
            .files
            .iter()
            .chain([&family.anchor, &family.unused_at]);
        for path in named {
            assert!(
                ws.file(path).is_some(),
                "{} ({}) names {path}, which the workspace scan does not contain",
                family.code,
                family.noun
            );
        }
    }
}

/// Rule codes are unique and well-formed — the keys `analyze.allow`
/// entries name.
#[test]
fn rule_codes_are_unique_and_well_formed() {
    let mut codes: Vec<&str> = RULES.iter().map(|r| r.code).collect();
    codes.sort_unstable();
    let before = codes.len();
    codes.dedup();
    assert_eq!(before, codes.len(), "duplicate rule code");
    for rule in RULES {
        assert_eq!(rule.code.len(), 5, "{}: codes are A + 4 digits", rule.code);
        assert!(rule.code.starts_with('A'));
        assert!(rule.code[1..].bytes().all(|b| b.is_ascii_digit()));
        assert!(!rule.summary.is_empty());
    }
}
