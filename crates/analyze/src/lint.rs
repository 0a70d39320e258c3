//! Workspace scanning, baseline handling, and the lint driver.
//!
//! [`Workspace::load`] walks the repository's product source (workspace
//! crates' `src/`, the root `src/`, `examples/`, plus test trees for
//! completeness), lexes every file once, and hands the token streams to
//! the rules in [`crate::rules`]. Vendored stand-ins (`vendor/*`) and
//! build output are never scanned — they are external code.
//!
//! The **baseline** (`analyze.allow` at the workspace root) is the
//! escape hatch for accepted debt: one `CODE path[:line]` entry per
//! suppressed finding. The checked-in baseline starts — and is expected
//! to stay — empty; a rule violation is fixed, not baselined, unless a
//! reviewer explicitly signs the entry in. Stale entries (nothing at
//! that location fires anymore) are reported so the file cannot rot.

use crate::lexer::{lex, test_mask, Token};
use std::fmt;
use std::path::{Path, PathBuf};

/// One step of an interprocedural witness chain attached to a finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct PathStep {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// What happens at this step (`calls \`core::rank::score\``, …).
    pub note: String,
}

/// One linter finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Stable rule code, e.g. `A0002`.
    pub code: &'static str,
    pub message: String,
    /// Interprocedural witness: the `file:line` chain establishing the
    /// finding (empty for single-site rules).
    pub path: Vec<PathStep>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {} {}",
            self.file, self.line, self.code, self.message
        )?;
        for s in &self.path {
            write!(f, "\n    at {}:{}: {}", s.file, s.line, s.note)?;
        }
        Ok(())
    }
}

/// One lexed source file.
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub rel: String,
    /// Raw text (rules that read doc comments need it; the lexer strips
    /// them from the token stream).
    pub raw: String,
    pub tokens: Vec<Token>,
    /// Per-token: inside a `#[cfg(test)]` / `#[test]` region.
    pub test_tokens: Vec<bool>,
    /// Whole-file test/bench code (under a `tests/` or `benches/` dir).
    pub is_test_file: bool,
}

impl SourceFile {
    /// Build from a path + source text.
    pub fn new(rel: impl Into<String>, raw: impl Into<String>) -> Self {
        let rel = rel.into();
        let raw = raw.into();
        let tokens = lex(&raw);
        let test_tokens = test_mask(&tokens);
        let is_test_file = rel.contains("/tests/")
            || rel.contains("/benches/")
            || rel.starts_with("tests/")
            || rel.starts_with("benches/");
        SourceFile {
            rel,
            raw,
            tokens,
            test_tokens,
            is_test_file,
        }
    }

    /// Whether the token at `idx` belongs to product (non-test) code.
    pub fn is_product(&self, idx: usize) -> bool {
        !self.is_test_file && !self.test_tokens.get(idx).copied().unwrap_or(false)
    }

    /// Whether this file belongs to the crate rooted at `prefix`
    /// (e.g. `crates/obs`).
    pub fn in_dir(&self, prefix: &str) -> bool {
        self.rel.starts_with(&format!("{prefix}/")) || self.rel == prefix
    }
}

/// Everything the rules need: lexed sources plus the docs they must
/// stay in sync with.
pub struct Workspace {
    pub files: Vec<SourceFile>,
    /// DESIGN.md text (empty when absent — sync rules then skip).
    pub design: String,
}

impl Workspace {
    /// Scan a real workspace root on disk.
    pub fn load(root: &Path) -> Result<Workspace, String> {
        let mut files = Vec::new();
        let mut dirs: Vec<PathBuf> =
            vec![root.join("src"), root.join("tests"), root.join("examples")];
        for sub in ["crates"] {
            let base = root.join(sub);
            let Ok(entries) = std::fs::read_dir(&base) else {
                continue;
            };
            for entry in entries.flatten() {
                let p = entry.path();
                if p.is_dir() {
                    dirs.push(p.join("src"));
                    dirs.push(p.join("tests"));
                    dirs.push(p.join("benches"));
                    dirs.push(p.join("examples"));
                }
            }
        }
        for dir in dirs {
            walk_rs(&dir, &mut |path| {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(path)
                    .to_string_lossy()
                    .replace('\\', "/");
                let raw = std::fs::read_to_string(path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                files.push(SourceFile::new(rel, raw));
                Ok(())
            })?;
        }
        files.sort_by(|a, b| a.rel.cmp(&b.rel));
        let design = std::fs::read_to_string(root.join("DESIGN.md")).unwrap_or_default();
        Ok(Workspace { files, design })
    }

    /// Build an in-memory workspace (rule unit tests).
    pub fn from_sources(sources: Vec<(&str, &str)>, design: &str) -> Workspace {
        Workspace {
            files: sources
                .into_iter()
                .map(|(rel, src)| SourceFile::new(rel, src))
                .collect(),
            design: design.to_owned(),
        }
    }

    /// The file at a workspace-relative path, if scanned.
    pub fn file(&self, rel: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel == rel)
    }
}

fn walk_rs(dir: &Path, f: &mut impl FnMut(&Path) -> Result<(), String>) -> Result<(), String> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Ok(()); // missing subtree (no examples/ etc.) is fine
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            walk_rs(&p, f)?;
        } else if p.extension().and_then(|e| e.to_str()) == Some("rs") {
            f(&p)?;
        }
    }
    Ok(())
}

/// A parsed `analyze.allow` baseline: suppressions keyed by
/// `CODE path[:line]`. Lines starting with `#` and blank lines are
/// comments.
#[derive(Debug, Default, Clone)]
pub struct Baseline {
    entries: Vec<BaselineEntry>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct BaselineEntry {
    code: String,
    file: String,
    line: Option<u32>,
}

impl Baseline {
    /// Parse baseline text. Malformed lines are errors — a baseline that
    /// silently ignores entries would un-suppress on a typo.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut entries = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (Some(code), Some(loc)) = (parts.next(), parts.next()) else {
                return Err(format!(
                    "baseline line {}: expected `CODE path[:line]`",
                    i + 1
                ));
            };
            if parts.next().is_some() {
                return Err(format!("baseline line {}: trailing tokens", i + 1));
            }
            if code.len() != 5 || !code.starts_with('A') {
                return Err(format!("baseline line {}: bad rule code {code:?}", i + 1));
            }
            let (file, lineno) = match loc.rsplit_once(':') {
                Some((f, l)) if l.chars().all(|c| c.is_ascii_digit()) && !l.is_empty() => {
                    (f.to_owned(), l.parse::<u32>().ok())
                }
                _ => (loc.to_owned(), None),
            };
            entries.push(BaselineEntry {
                code: code.to_owned(),
                file,
                line: lineno,
            });
        }
        Ok(Baseline { entries })
    }

    fn matches(&self, d: &Diagnostic) -> Option<usize> {
        self.entries.iter().position(|e| {
            e.code == d.code && e.file == d.file && e.line.is_none_or(|l| l == d.line)
        })
    }
}

/// Result of a lint run against a baseline.
pub struct LintOutcome {
    /// New violations (not suppressed) — nonzero means fail.
    pub violations: Vec<Diagnostic>,
    /// Findings matched (and silenced) by the baseline.
    pub suppressed: Vec<Diagnostic>,
    /// Baseline entries that matched nothing (debt already paid off).
    pub stale: Vec<String>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Per-function effect summaries for the zero-cost theorem's scope
    /// (printed by `analyze --effects`).
    pub effects: Vec<crate::effects::EffectRow>,
}

/// Run every rule over the workspace and split the findings against the
/// baseline. Diagnostics come back sorted by (file, line, code).
pub fn run(ws: &Workspace, baseline: &Baseline) -> LintOutcome {
    let analysis = crate::callgraph::Analysis::build(ws);
    let mut all: Vec<Diagnostic> = crate::rules::RULES
        .iter()
        .flat_map(|r| (r.check)(ws, &analysis))
        .collect();
    all.sort();
    all.dedup();
    let mut used = vec![false; baseline.entries.len()];
    let mut violations = Vec::new();
    let mut suppressed = Vec::new();
    for d in all {
        match baseline.matches(&d) {
            Some(i) => {
                used[i] = true;
                suppressed.push(d);
            }
            None => violations.push(d),
        }
    }
    let stale = baseline
        .entries
        .iter()
        .zip(&used)
        .filter(|(_, u)| !**u)
        .map(|(e, _)| match e.line {
            Some(l) => format!("{} {}:{l}", e.code, e.file),
            None => format!("{} {}", e.code, e.file),
        })
        .collect();
    LintOutcome {
        violations,
        suppressed,
        stale,
        files_scanned: ws.files.len(),
        effects: crate::effects::effect_rows(ws, &analysis),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_parses_and_matches() {
        let b = Baseline::parse("# comment\n\nA0010 crates/x/src/lib.rs\nA0002 a.rs:7\n")
            .expect("parses");
        let hit = Diagnostic {
            file: "crates/x/src/lib.rs".into(),
            line: 3,
            code: "A0010",
            message: String::new(),
            path: Vec::new(),
        };
        assert!(
            b.matches(&hit).is_some(),
            "file-level entry matches any line"
        );
        let wrong_line = Diagnostic {
            file: "a.rs".into(),
            line: 8,
            code: "A0002",
            message: String::new(),
            path: Vec::new(),
        };
        assert!(b.matches(&wrong_line).is_none());
    }

    #[test]
    fn baseline_rejects_malformed() {
        assert!(Baseline::parse("A0002").is_err());
        assert!(Baseline::parse("B9999 x.rs").is_err());
        assert!(Baseline::parse("A0002 x.rs extra").is_err());
    }

    #[test]
    fn test_file_detection() {
        assert!(SourceFile::new("crates/x/tests/t.rs", "").is_test_file);
        assert!(SourceFile::new("tests/top.rs", "").is_test_file);
        assert!(!SourceFile::new("crates/x/src/lib.rs", "").is_test_file);
        assert!(!SourceFile::new("examples/quickstart.rs", "").is_test_file);
    }
}
