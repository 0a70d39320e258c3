//! End-to-end tests of the `deepeye` CLI binary, driven through the real
//! executable (`CARGO_BIN_EXE_deepeye`).

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_deepeye"))
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("deepeye-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir creatable");
    dir
}

fn sample_csv(dir: &Path) -> PathBuf {
    let path = dir.join("sales.csv");
    let mut csv = String::from("month,region,revenue,units\n");
    for m in 1..=12 {
        for (r, base) in [("North", 100.0), ("South", 80.0), ("East", 60.0)] {
            csv.push_str(&format!(
                "2015-{m:02},{r},{:.0},{}\n",
                base + m as f64 * 5.0,
                m * 2
            ));
        }
    }
    std::fs::write(&path, csv).expect("writable temp file");
    path
}

#[test]
fn no_args_prints_usage_and_fails() {
    let out = bin().output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn unknown_command_fails() {
    let out = bin().arg("frobnicate").output().expect("binary runs");
    assert!(!out.status.success());
}

#[test]
fn inspect_reports_types() {
    let dir = tmp_dir("inspect");
    let csv = sample_csv(&dir);
    let out = bin()
        .args(["inspect", csv.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("month"));
    assert!(stdout.contains("Tem"), "month detected temporal: {stdout}");
    assert!(stdout.contains("Cat"), "region detected categorical");
    assert!(stdout.contains("Num"), "revenue detected numerical");
}

#[test]
fn inspect_reads_nan_cells_as_missing_values() {
    let dir = tmp_dir("nan");
    let csv = dir.join("temps.csv");
    let mut text = String::from("day,temp\n");
    for i in 0..40 {
        let temp = if i % 8 == 3 {
            "NaN".to_owned()
        } else {
            format!("{}.5", 10 + i)
        };
        text.push_str(&format!("d{i},{temp}\n"));
    }
    std::fs::write(&csv, text).unwrap();
    let out = bin()
        .args(["inspect", csv.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("temp: Num"), "{stdout}");
    let temp = stdout.lines().find(|l| l.trim_start().starts_with("temp "));
    assert!(temp.is_some_and(|l| l.contains("nulls=5 ")), "{stdout}");
}

#[test]
fn closed_stdout_ends_quietly() {
    // `deepeye recommend t.csv | head -1`: the reader goes away before the
    // output is written.
    let dir = tmp_dir("pipe");
    let csv = sample_csv(&dir);
    let csv = csv.to_str().unwrap();
    for args in [vec!["recommend", csv, "5"], vec!["inspect", csv]] {
        let mut child = bin()
            .args(&args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        drop(child.stdout.take());
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {} {stderr}", out.status);
        assert!(stderr.is_empty(), "{args:?}: {stderr}");
    }
}

#[test]
fn recommend_prints_charts() {
    let dir = tmp_dir("recommend");
    let csv = sample_csv(&dir);
    let out = bin()
        .args(["recommend", csv.to_str().unwrap(), "3"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("#1"), "{stdout}");
    assert!(stdout.contains("chart"), "{stdout}");
}

#[test]
fn malformed_k_is_a_usage_error() {
    let dir = tmp_dir("bad-k");
    let csv = sample_csv(&dir);
    let (csv, out_dir) = (csv.to_str().unwrap(), dir.join("svg"));
    for args in [
        vec!["recommend", csv, "abc"],
        vec!["recommend", csv, "-1"],
        vec!["search", csv, "revenue", "abc"],
        vec!["svg", csv, out_dir.to_str().unwrap(), "abc"],
        vec!["explain", csv, "--top", "abc"],
    ] {
        let out = bin().args(&args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let bad = args[args.len() - 1];
        assert!(
            stderr.contains(&format!("got `{bad}`")),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn unknown_arguments_are_usage_errors() {
    let dir = tmp_dir("unknown-arg");
    let csv = sample_csv(&dir);
    let csv = csv.to_str().unwrap();
    let target = dir.join("f");
    let f = target.to_str().unwrap();
    for (args, bad) in [
        (vec!["recommend", csv, "3", "--cost-out", f], "--cost-out"),
        (
            vec!["recommend", csv, "3", "--metrics-otu", f],
            "--metrics-otu",
        ),
        (vec!["recommend", csv, "3", "4"], "4"),
        (vec!["inspect", csv, "extra"], "extra"),
        (vec!["search", "--top", "3", csv, "revenue"], "--top"),
    ] {
        let out = bin().args(&args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown argument `{bad}`")),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?}");
        assert!(!target.exists(), "{args:?} wrote {f}");
    }
}

#[test]
fn recommend_strips_byte_order_mark_from_first_column() {
    let dir = tmp_dir("bom");
    let plain = std::fs::read_to_string(sample_csv(&dir)).unwrap();
    let csv = dir.join("bom.csv");
    std::fs::write(&csv, format!("\u{FEFF}{plain}")).unwrap();
    let out = bin()
        .args(["recommend", csv.to_str().unwrap(), "3"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("(month: Tem"), "{stdout}");
    assert!(!stdout.contains('\u{FEFF}'), "{stdout}");
}

#[test]
fn recommend_trace_names_pipeline_ingest() {
    let dir = tmp_dir("trace");
    let csv = sample_csv(&dir);
    let trace = dir.join("trace.json");
    let out = bin()
        .args([
            "recommend",
            csv.to_str().unwrap(),
            "3",
            "--trace-out",
            trace.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = std::fs::read_to_string(&trace).unwrap();
    deepeye::obs::validate_chrome_trace(&text).expect("trace validates");
    assert!(text.contains("\"pipeline.ingest\""), "{text}");
    let report = String::from_utf8_lossy(&out.stderr);
    assert!(report.contains("pipeline.ingest"), "{report}");
}

#[test]
fn inspect_writes_requested_metrics() {
    let dir = tmp_dir("inspect-metrics");
    let csv = sample_csv(&dir);
    let metrics = dir.join("metrics.json");
    let out = bin()
        .args([
            "inspect",
            csv.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&metrics).expect("inspect wrote the metrics file");
    deepeye::obs::validate_metrics_json(&text).expect("metrics validate");
    assert!(text.contains("\"pipeline.ingest\""), "{text}");
}

#[test]
fn query_writes_requested_trace() {
    let dir = tmp_dir("query-trace");
    let csv = sample_csv(&dir);
    let vql = dir.join("q.vql");
    std::fs::write(
        &vql,
        "VISUALIZE bar\nSELECT region, SUM(revenue)\nFROM sales\nGROUP BY region",
    )
    .unwrap();
    let trace = dir.join("trace.json");
    let out = bin()
        .args([
            "query",
            csv.to_str().unwrap(),
            vql.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&trace).expect("query wrote the trace file");
    deepeye::obs::validate_chrome_trace(&text).expect("trace validates");
    assert!(text.contains("\"pipeline.ingest\""), "{text}");
}

/// What `deepeye` must do with one file of the CSV corpus.
enum Expect {
    /// `recommend` exits 0 with ranked charts, and `inspect` reads this
    /// many rows and these (column, type, nulls).
    Charts(usize, &'static [(&'static str, &'static str, usize)]),
    /// Both exit 0 and `recommend` says it found nothing to chart: the
    /// table has no rows to group, or one.
    NothingToChart,
    /// Both exit 1 with this message on stderr and nothing on stdout.
    Fails(&'static str),
}

/// Every file under `tests/data/`, with what it must do.
const CORPUS: &[(&str, Expect)] = &[
    (
        "all_null_column.csv",
        Expect::Charts(6, &[("notes", "Cat", 6), ("revenue", "Num", 0)]),
    ),
    // 10 bare years and one full date: every value survives.
    (
        "bare_years_with_one_date.csv",
        Expect::Charts(11, &[("year", "Tem", 0)]),
    ),
    (
        "big_integers.csv",
        Expect::Charts(6, &[("balance", "Num", 0)]),
    ),
    ("bom.csv", Expect::Charts(6, &[("city", "Cat", 0)])),
    ("crlf.csv", Expect::Charts(6, &[("revenue", "Num", 0)])),
    (
        "duplicate_headers.csv",
        Expect::Fails("duplicate column name"),
    ),
    ("empty.csv", Expect::Fails("CSV input is empty")),
    (
        "empty_header_names.csv",
        Expect::Charts(6, &[("column_0", "Cat", 0)]),
    ),
    ("header_only.csv", Expect::NothingToChart),
    // 2015-258-01 is no date (its month does not wrap to February).
    (
        "impossible_dates.csv",
        Expect::Charts(21, &[("when", "Tem", 1)]),
    ),
    // `55" wide`: a quote after a field's first byte is a literal.
    ("inch_marks.csv", Expect::Charts(3, &[("size", "Cat", 0)])),
    // Dates just off the fixed-width ISO shapes, one split by U+000B,
    // all parsed; impossible ISO dates and times, none parsed.
    (
        "iso_near_misses.csv",
        Expect::Charts(14, &[("when", "Tem", 0), ("label", "Cat", 0)]),
    ),
    // Latin-1 bytes, not UTF-8.
    (
        "latin1.csv",
        Expect::Fails("stream did not contain valid UTF-8"),
    ),
    (
        "mixed_date_formats.csv",
        Expect::Charts(10, &[("when", "Tem", 0)]),
    ),
    // NaN is a missing value; the one inf is a dirty cell.
    ("nan_and_inf.csv", Expect::Charts(24, &[("temp", "Num", 4)])),
    ("one_column.csv", Expect::Charts(8, &[("region", "Cat", 0)])),
    ("one_row.csv", Expect::NothingToChart),
    // `|` in column names: `line a vs b|c` is not `line a|b vs c`.
    (
        "pipe_in_names.csv",
        Expect::Charts(40, &[("a|b", "Num", 0), ("b|c", "Num", 0)]),
    ),
    (
        "quoted_newlines.csv",
        Expect::Charts(6, &[("note", "Cat", 0)]),
    ),
    (
        "ragged.csv",
        Expect::Fails("record on line 3 has 1 fields, expected 2"),
    ),
    (
        "ragged_after_blank_line.csv",
        Expect::Fails("record on line 3 has 1 fields"),
    ),
    (
        "ragged_after_quoted_newline.csv",
        Expect::Fails("record on line 4 has 1 fields"),
    ),
    // Ties, -0 beside 0, a column with empty cells, and timestamps one
    // second apart beyond 2^53 s, whose positions pair up.
    (
        "raw_positions.csv",
        Expect::Charts(
            12,
            &[("when", "Tem", 0), ("b", "Num", 0), ("gaps", "Num", 3)],
        ),
    ),
    (
        "thousands_percent_currency.csv",
        Expect::Charts(
            6,
            &[
                ("price", "Num", 0),
                ("share", "Num", 0),
                ("units", "Num", 0),
            ],
        ),
    ),
    (
        "unterminated_quote.csv",
        Expect::Fails("unterminated quoted field"),
    ),
];

/// `deepeye <command> <csv> [3]`: exit code, stdout, stderr.
fn run_on(command: &str, csv: &Path) -> (Option<i32>, String, String) {
    let mut cmd = bin();
    cmd.args([command, csv.to_str().unwrap()]);
    if command == "recommend" {
        cmd.arg("3");
    }
    let out = cmd.output().unwrap();
    let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
    (out.status.code(), text(&out.stdout), text(&out.stderr))
}

#[test]
fn corpus_files_chart_or_fail_with_a_typed_message() {
    let data = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data");
    let mut files: Vec<String> = std::fs::read_dir(&data)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort();
    let listed: Vec<&str> = CORPUS.iter().map(|(file, _)| *file).collect();
    assert_eq!(
        files, listed,
        "every corpus file has one expectation, in order"
    );

    // 10^4 distinct categories: written here rather than committed.
    let dir = tmp_dir("corpus");
    let distinct = dir.join("distinct_10000.csv");
    let mut text = String::from("customer,segment,spend\n");
    for i in 0..10_000 {
        text.push_str(&format!(
            "c{i:05},{},{}.5\n",
            ["A", "B", "C", "D"][i % 4],
            i * 37 % 1000
        ));
    }
    std::fs::write(&distinct, text).unwrap();
    let generated = Expect::Charts(10_000, &[("customer", "Cat", 0), ("spend", "Num", 0)]);

    let cases = CORPUS
        .iter()
        .map(|(file, expect)| (data.join(file), expect))
        .chain([(distinct, &generated)]);
    for (csv, expect) in cases {
        let name = csv.file_name().unwrap().to_string_lossy().into_owned();
        let (code, stdout, stderr) = run_on("recommend", &csv);
        let (inspect_code, schema, inspect_err) = run_on("inspect", &csv);
        for err in [&stderr, &inspect_err] {
            assert!(!err.contains("panicked"), "{name}: {err}");
        }
        match expect {
            Expect::Charts(rows, columns) => {
                assert_eq!((code, inspect_code), (Some(0), Some(0)), "{name}: {stderr}");
                assert!(stdout.contains("#1 ("), "{name}: {stdout}");
                assert!(
                    schema.contains(&format!("[{rows} rows]")),
                    "{name}: {schema}"
                );
                for (column, ty, nulls) in *columns {
                    assert!(
                        schema.contains(&format!("{column}: {ty}")),
                        "{name}: {schema}"
                    );
                    let line = schema
                        .lines()
                        .find(|l| l.split_whitespace().next() == Some(column))
                        .unwrap_or_else(|| panic!("{name}: no {column} in {schema}"));
                    assert!(line.contains(&format!("nulls={nulls} ")), "{name}: {line}");
                }
            }
            Expect::NothingToChart => {
                assert_eq!((code, inspect_code), (Some(0), Some(0)), "{name}: {stderr}");
                assert!(
                    stdout.contains("no meaningful visualizations found"),
                    "{name}: {stdout}"
                );
            }
            Expect::Fails(message) => {
                assert_eq!((code, inspect_code), (Some(1), Some(1)), "{name}");
                for err in [&stderr, &inspect_err] {
                    assert!(err.contains("cannot read"), "{name}: {err}");
                    assert!(err.contains(message), "{name}: {err}");
                }
                assert!(stdout.is_empty() && schema.is_empty(), "{name}: {stdout}");
            }
        }
    }
}

#[test]
fn search_honors_keywords() {
    let dir = tmp_dir("search");
    let csv = sample_csv(&dir);
    let out = bin()
        .args(["search", csv.to_str().unwrap(), "pie share of revenue", "2"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("pie chart"), "{stdout}");
}

#[test]
fn query_runs_vql_file() {
    let dir = tmp_dir("query");
    let csv = sample_csv(&dir);
    let vql = dir.join("q.vql");
    std::fs::write(
        &vql,
        "VISUALIZE bar\nSELECT region, SUM(revenue)\nFROM sales\nGROUP BY region\nORDER BY SUM(revenue)",
    )
    .unwrap();
    let out = bin()
        .args(["query", csv.to_str().unwrap(), vql.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("SUM(revenue)"), "{stdout}");
    assert!(stdout.contains("North"), "{stdout}");
}

#[test]
fn query_rejects_bad_vql() {
    let dir = tmp_dir("badquery");
    let csv = sample_csv(&dir);
    let vql = dir.join("bad.vql");
    std::fs::write(&vql, "VISUALIZE donut\nSELECT a\nFROM t").unwrap();
    let out = bin()
        .args(["query", csv.to_str().unwrap(), vql.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("parse error"));
}

#[test]
fn svg_writes_files() {
    let dir = tmp_dir("svg");
    let csv = sample_csv(&dir);
    let out_dir = dir.join("charts");
    let out = bin()
        .args(["svg", csv.to_str().unwrap(), out_dir.to_str().unwrap(), "2"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let chart1 = std::fs::read_to_string(out_dir.join("chart1.svg")).unwrap();
    assert!(chart1.starts_with("<svg"));
    assert!(chart1.ends_with("</svg>"));
}

#[test]
fn dashboard_writes_offline_html() {
    let dir = tmp_dir("dash");
    let csv = sample_csv(&dir);
    let html_path = dir.join("dash.html");
    let out = bin()
        .args([
            "dashboard",
            csv.to_str().unwrap(),
            html_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let html = std::fs::read_to_string(&html_path).unwrap();
    assert!(html.contains("<svg"));
    assert!(
        !html.contains("cdn."),
        "offline dashboard must not hit a CDN"
    );
}

#[test]
fn missing_file_is_a_clean_error() {
    let out = bin()
        .args(["recommend", "/no/such/file.csv"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn explain_reports_all_three_factors() {
    let dir = tmp_dir("explain");
    let csv = sample_csv(&dir);
    let out = bin()
        .args(["explain", csv.to_str().unwrap(), "--top", "3"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("why these charts"), "{stdout}");
    assert!(stdout.contains("Ranked #1"), "{stdout}");
    for factor in ["M = ", "Q = ", "W = "] {
        assert!(stdout.contains(factor), "missing {factor}:\n{stdout}");
    }
    assert!(stdout.contains("candidates enumerated"), "{stdout}");
}

#[test]
fn explain_single_query_and_provenance_export() {
    let dir = tmp_dir("explain-query");
    let csv = sample_csv(&dir);
    let prov_path = dir.join("prov.json");
    let query = "VISUALIZE bar\nSELECT region, AVG(revenue)\nFROM sales\nGROUP BY region";
    let out = bin()
        .args([
            "explain",
            csv.to_str().unwrap(),
            "--query",
            query,
            "--provenance-out",
            prov_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("bar"), "{stdout}");
    assert!(stdout.contains("M = "), "{stdout}");
    // The export next to it passes the schema + invariant validator.
    let text = std::fs::read_to_string(&prov_path).unwrap();
    let summary = deepeye::core::validate_provenance_json(&text).expect("provenance validates");
    assert!(summary.records > 0);
}

#[test]
fn recommend_writes_validating_provenance_file() {
    let dir = tmp_dir("rec-prov");
    let csv = sample_csv(&dir);
    let prov_path = dir.join("prov.json");
    let out = bin()
        .args([
            "recommend",
            csv.to_str().unwrap(),
            "3",
            "--provenance-out",
            prov_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = std::fs::read_to_string(&prov_path).unwrap();
    let summary = deepeye::core::validate_provenance_json(&text).expect("provenance validates");
    assert_eq!(summary.ranked, 3);
}

#[test]
fn explain_unknown_query_fails_cleanly() {
    let dir = tmp_dir("explain-miss");
    let csv = sample_csv(&dir);
    // Executable, but not a candidate the rules enumerate (raw bar chart
    // of two numeric columns, no transform).
    let query = "VISUALIZE bar\nSELECT revenue, units\nFROM sales";
    let out = bin()
        .args(["explain", csv.to_str().unwrap(), "--query", query])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("no provenance record"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}
