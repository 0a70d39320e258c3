//! The `analyze` CLI: lint the workspace against its baseline.
//!
//! ```text
//! analyze --workspace [--root DIR] [--baseline FILE] [--github] [--effects]
//! analyze --list-rules
//! ```
//!
//! `--github` additionally emits one GitHub Actions workflow command
//! (`::warning file=…,line=…,title=CODE::message`) per violation, so CI
//! annotates the offending lines in the diff view; witness chains ride
//! along `%0A`-encoded in the message.
//!
//! `--effects` prints the per-function zero-cost effect summary — one
//! line per theorem-scoped function with its any-path and disabled-world
//! effect sets. `--list-rules` prints the rule catalog and exits.
//!
//! Exit status: 0 when clean, 1 on violations / stale baseline entries,
//! 2 on usage or I/O errors.

use deepeye_analyze::{Baseline, Workspace};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut mode: Option<&str> = None;
    let mut root: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut github = false;
    let mut effects = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workspace" => mode = Some("workspace"),
            "--list-rules" => mode = Some("list-rules"),
            "--github" => github = true,
            "--effects" => effects = true,
            "--root" => match it.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => return usage("--root needs a value"),
            },
            "--baseline" => match it.next() {
                Some(v) => baseline_path = Some(PathBuf::from(v)),
                None => return usage("--baseline needs a value"),
            },
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }
    match mode {
        Some("workspace") => run_lint(root, baseline_path, github, effects),
        Some("list-rules") => run_list_rules(),
        _ => usage("pass --workspace or --list-rules"),
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!("analyze: {err}");
    eprintln!("usage: analyze --workspace [--root DIR] [--baseline FILE] [--github] [--effects]");
    eprintln!("       analyze --list-rules");
    ExitCode::from(2)
}

/// `--list-rules`: the catalog, one row per rule.
fn run_list_rules() -> ExitCode {
    for r in deepeye_analyze::rules::RULES {
        let kind = if r.interprocedural { "y" } else { "n" };
        println!("{}  interprocedural={}  {}", r.code, kind, r.summary);
    }
    ExitCode::SUCCESS
}

/// One GitHub Actions `::warning` workflow command for a finding. The
/// message is data inside a single-line command, so newlines (the
/// witness chain) are `%0A`-escaped per the workflow-command quoting
/// rules, and `%` itself first.
fn github_annotation(d: &deepeye_analyze::Diagnostic) -> String {
    let mut message = d.message.clone();
    for s in &d.path {
        message.push_str(&format!("\nat {}:{}: {}", s.file, s.line, s.note));
    }
    let message = message
        .replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A");
    format!(
        "::warning file={},line={},title={}::{}",
        d.file, d.line, d.code, message
    )
}

/// The workspace root: `--root`, or the manifest's grandparent (this
/// binary lives in `crates/analyze`).
fn default_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or(manifest)
}

fn run_lint(
    root: Option<PathBuf>,
    baseline_path: Option<PathBuf>,
    github: bool,
    effects: bool,
) -> ExitCode {
    let root = root.unwrap_or_else(default_root);
    let ws = match Workspace::load(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("analyze: {e}");
            return ExitCode::from(2);
        }
    };
    let baseline_file = baseline_path.unwrap_or_else(|| root.join("analyze.allow"));
    let baseline = match std::fs::read_to_string(&baseline_file) {
        Ok(text) => match Baseline::parse(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("analyze: {}: {e}", baseline_file.display());
                return ExitCode::from(2);
            }
        },
        Err(_) => Baseline::default(), // missing baseline = empty
    };
    let outcome = deepeye_analyze::lint::run(&ws, &baseline);
    if effects {
        for row in &outcome.effects {
            let fmt = |list: &[&str]| {
                if list.is_empty() {
                    "pure".to_owned()
                } else {
                    list.join("+")
                }
            };
            println!(
                "effect: {} ({}:{}) gated={} full={} disabled={}",
                row.qual,
                row.file,
                row.line,
                row.gated,
                fmt(&row.effects),
                fmt(&row.disabled)
            );
        }
        let pure = outcome
            .effects
            .iter()
            .filter(|r| r.pure_when_disabled())
            .count();
        println!(
            "effects: {} function(s) in theorem scope, {} pure when disabled",
            outcome.effects.len(),
            pure
        );
    }
    for d in &outcome.violations {
        println!("{d}");
        if github {
            println!("{}", github_annotation(d));
        }
    }
    for s in &outcome.stale {
        println!("stale baseline entry: {s}");
        if github {
            println!("::warning title=stale baseline entry::{s}");
        }
    }
    println!(
        "analyze: {} file(s), {} rule(s): {} violation(s), {} suppressed, {} stale baseline entr{}",
        outcome.files_scanned,
        deepeye_analyze::rules::RULES.len(),
        outcome.violations.len(),
        outcome.suppressed.len(),
        outcome.stale.len(),
        if outcome.stale.len() == 1 { "y" } else { "ies" },
    );
    if outcome.violations.is_empty() && outcome.stale.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::github_annotation;
    use deepeye_analyze::{Diagnostic, PathStep};

    #[test]
    fn annotation_escapes_the_witness_chain() {
        let d = Diagnostic {
            file: "crates/core/src/a.rs".into(),
            line: 3,
            code: "A0009",
            message: "API reaches 100% panic".into(),
            path: vec![PathStep {
                file: "crates/core/src/b.rs".into(),
                line: 9,
                note: "panic site".into(),
            }],
        };
        let ann = github_annotation(&d);
        assert!(ann.starts_with("::warning file=crates/core/src/a.rs,line=3,title=A0009::"));
        assert!(ann.contains("100%25 panic"), "{ann}");
        assert!(
            ann.contains("%0Aat crates/core/src/b.rs:9: panic site"),
            "{ann}"
        );
        assert!(!ann.contains('\n'), "one line per workflow command");
    }
}
