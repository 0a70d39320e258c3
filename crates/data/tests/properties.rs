//! Property-based tests for the data substrate.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod oracle;

use deepeye_data::csv::parse_records;
use deepeye_data::stats;
use deepeye_data::temporal::{Civil, Timestamp};
use deepeye_data::{
    correlation, detect_and_parse, table_from_csv_str_delim, trend_of_series, Column, ColumnData,
    CsvError, DataType, Table, Value,
};
use proptest::collection::vec;
use proptest::prelude::*;

fn civil_strategy() -> impl Strategy<Value = Civil> {
    (1900i32..2100, 1u8..=12, 1u8..=28, 0u8..24, 0u8..60, 0u8..60)
        .prop_map(|(y, mo, d, h, mi, s)| Civil::new(y, mo, d, h, mi, s).unwrap())
}

proptest! {
    /// Civil → Timestamp → Civil is the identity.
    #[test]
    fn civil_round_trip(c in civil_strategy()) {
        let t = Timestamp::from_civil(c);
        prop_assert_eq!(t.civil(), c);
    }

    /// Timestamp ordering agrees with second counts.
    #[test]
    fn timestamp_order(s1 in -4_000_000_000i64..4_000_000_000, s2 in -4_000_000_000i64..4_000_000_000) {
        let (a, b) = (Timestamp::from_unix_seconds(s1), Timestamp::from_unix_seconds(s2));
        prop_assert_eq!(a.cmp(&b), s1.cmp(&s2));
    }

    /// Type detection is total and parsing never changes the column length.
    /// Cells reach the 16- and 19-character ISO shapes
    /// (`YYYY-MM-DD HH:MM:SS`, with `T` or a space).
    #[test]
    fn detect_parse_total(cells in vec("[a-zT0-9./: -]{0,20}", 0..40)) {
        let (ty, data) = detect_and_parse(&cells);
        prop_assert_eq!(data.len(), cells.len());
        prop_assert_eq!(data.data_type(), ty);
    }

    /// One-pass inference equals the reference's detect-then-parse passes
    /// on a generated column, bit for bit.
    #[test]
    fn inference_matches_the_reference(
        kind in 0u32..KINDS,
        draws in vec((0u32..20, any::<i64>(), 0u32..1_000_000), 0..60),
    ) {
        let cells: Vec<String> = draws
            .into_iter()
            .map(|(pick, a, b)| CellDraw { kind, pick, a, b }.text())
            .collect();
        let (ty, data) = detect_and_parse(&cells);
        let (want_ty, want) = oracle::detect_and_parse(&cells);
        prop_assert_eq!(ty, want_ty);
        prop_assert_eq!(cell_bits(&data), cell_bits(&want));
    }

    /// Numeric strings of plain integers are never detected as categorical.
    #[test]
    fn integers_detected_numeric_or_temporal(nums in vec(-10_000i64..10_000, 1..50)) {
        let cells: Vec<String> = nums.iter().map(|n| n.to_string()).collect();
        let (ty, _) = detect_and_parse(&cells);
        prop_assert_ne!(ty, DataType::Categorical);
    }

    /// distinct_count is at most the length and unique_ratio is in [0,1].
    #[test]
    fn distinct_bounds(vals in proptest::collection::vec(-100i64..100, 0..100)) {
        let col = Column::numeric("x", vals.iter().map(|&v| v as f64));
        prop_assert!(col.distinct_count() <= col.len());
        let r = col.unique_ratio();
        prop_assert!((0.0..=1.0).contains(&r));
    }

    /// min/max scalars bracket every value.
    #[test]
    fn min_max_bracket(vals in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
        let col = Column::numeric("x", vals.iter().copied());
        let lo = col.min_scalar().unwrap();
        let hi = col.max_scalar().unwrap();
        prop_assert!(lo <= hi);
        for v in &vals {
            prop_assert!(lo <= *v && *v <= hi);
        }
    }

    /// Correlation coefficients always land in [-1, 1] and are finite.
    #[test]
    fn correlation_bounded(
        xs in proptest::collection::vec(-1e4f64..1e4, 0..60),
        ys in proptest::collection::vec(-1e4f64..1e4, 0..60),
    ) {
        let c = correlation(&xs, &ys);
        prop_assert!(c.coefficient.is_finite());
        prop_assert!((-1.0..=1.0).contains(&c.coefficient));
        prop_assert!((0.0..=1.0).contains(&c.strength()));
    }

    /// Correlation is symmetric in absolute strength for the linear model
    /// when inputs are equal-length (swap x and y).
    #[test]
    fn perfect_line_always_detected(b in 1i32..50, a in -100i32..100) {
        let xs: Vec<f64> = (1..40).map(f64::from).collect();
        let ys: Vec<f64> = xs.iter().map(|x| f64::from(a) + f64::from(b) * x).collect();
        let c = correlation(&xs, &ys);
        prop_assert!(c.strength() > 0.999);
    }

    /// Trend fit is bounded and trend of a constant-free linear ramp holds.
    #[test]
    fn trend_bounded(ys in proptest::collection::vec(-1e4f64..1e4, 0..60)) {
        let t = trend_of_series(&ys);
        prop_assert!((0.0..=1.0).contains(&t.fit));
    }

    /// Entropy of k equal weights is ln k; normalized entropy in [0,1].
    #[test]
    fn entropy_properties(w in proptest::collection::vec(0.0f64..100.0, 0..30)) {
        let e = stats::entropy(&w);
        prop_assert!(e >= 0.0 && e.is_finite());
        let ne = stats::normalized_entropy(&w);
        prop_assert!((0.0..=1.0).contains(&ne));
    }

    /// The CSV record parser never panics on arbitrary input, and a
    /// field-quoting round trip through it is lossless.
    #[test]
    fn csv_parser_total(input in ".{0,200}") {
        let _ = parse_records(&input, ',');
    }

    /// On arbitrary text the byte-level reader splits exactly as the
    /// reference `char` loop, and ingest ends in the same table or error,
    /// with any of four delimiters (one of them two bytes long).
    #[test]
    fn reader_matches_the_reference_splitter(
        text in "[ab1,;\"\r\n é]{0,60}",
        delimiter in 0usize..4,
    ) {
        let delimiter = [',', ';', ' ', 'é'][delimiter];
        let records = oracle::records(&text, delimiter)
            .map(|recs| recs.into_iter().map(|(_, fields)| fields).collect::<Vec<_>>());
        prop_assert_eq!(outcome(parse_records(&text, delimiter)), outcome(records));
        prop_assert_eq!(
            ingest(table_from_csv_str_delim("t", &text, delimiter)),
            ingest(oracle::table_from_csv_str_delim("t", &text, delimiter)),
            "text {:?}",
            text
        );
    }

    /// Ingest equals the reference on generated CSV text: every value
    /// format the reader must classify, quoted fields holding commas,
    /// quotes and newlines, CRLF, a BOM, blank lines, missing markers,
    /// duplicate and empty header names, ragged rows and open quotes.
    /// Column names, types and `to_bits`-identical values must agree, or
    /// both sides must fail with the same error.
    #[test]
    fn ingest_matches_the_reference(case in csv_case()) {
        let text = case.render();
        prop_assert_eq!(
            ingest(table_from_csv_str_delim("t", &text, ',')),
            ingest(oracle::table_from_csv_str_delim("t", &text, ',')),
            "text {:?}",
            text
        );
    }

    /// Any grid of arbitrary field strings survives a write-then-parse
    /// round trip when fields are quoted.
    #[test]
    fn csv_quote_round_trip(
        grid in proptest::collection::vec(
            proptest::collection::vec("[ -~]{0,12}", 1..5),
            1..6,
        ),
    ) {
        let width = grid[0].len();
        let grid: Vec<Vec<String>> =
            grid.into_iter().map(|mut r| { r.resize(width, String::new()); r }).collect();
        let text: String = grid
            .iter()
            .map(|row| {
                row.iter()
                    .map(|f| format!("\"{}\"", f.replace('"', "\"\"")))
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect::<Vec<_>>()
            .join("\n");
        match parse_records(&text, ',') {
            Ok(parsed) => {
                // Fully-empty records are dropped by design; compare the
                // surviving rows against the non-degenerate originals.
                let kept: Vec<&Vec<String>> = grid
                    .iter()
                    .filter(|r| !(r.len() == 1 && r[0].is_empty()))
                    .collect();
                prop_assert_eq!(kept.len(), parsed.len());
                for (orig, got) in kept.iter().zip(&parsed) {
                    prop_assert_eq!(*orig, got);
                }
            }
            Err(deepeye_data::CsvError::Empty) => {
                // Only possible when every row was a single empty field.
                prop_assert!(grid.iter().all(|r| r.len() == 1 && r[0].is_empty()));
            }
            Err(e) => prop_assert!(false, "unexpected error {e}"),
        }
    }

    /// Table filtering preserves schema and row predicates compose.
    #[test]
    fn filter_rows_laws(vals in proptest::collection::vec(-100i64..100, 0..60)) {
        let t = deepeye_data::TableBuilder::new("t")
            .numeric("v", vals.iter().map(|&v| v as f64))
            .build()
            .unwrap();
        let pos = t.filter_rows(|r| t.value(r, 0).as_number().unwrap_or(0.0) > 0.0);
        prop_assert_eq!(pos.column_count(), 1);
        let expected = vals.iter().filter(|&&v| v > 0).count();
        prop_assert_eq!(pos.row_count(), expected);
        for x in pos.column(0).unwrap().numbers() {
            prop_assert!(x > 0.0);
        }
    }

    /// SUM conservation for quadratic fit residuals: fitted quadratic on a
    /// true quadratic is exact.
    #[test]
    fn quadratic_exact(c0 in -10f64..10.0, c1 in -10f64..10.0, c2 in -3f64..3.0) {
        let xs: Vec<f64> = (0..25).map(|i| i as f64 * 0.5).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| c0 + c1 * x + c2 * x * x).collect();
        let (f0, f1, f2) = stats::quadratic_fit(&xs, &ys);
        prop_assert!((f0 - c0).abs() < 1e-5 * (1.0 + c0.abs()));
        prop_assert!((f1 - c1).abs() < 1e-5 * (1.0 + c1.abs()));
        prop_assert!((f2 - c2).abs() < 1e-5 * (1.0 + c2.abs()));
    }
}

/// A cell reduced to what the differential properties compare: numbers by
/// their bits, timestamps by their seconds.
#[derive(Debug, PartialEq)]
enum Bits {
    Null,
    Number(u64),
    Time(i64),
    Text(String),
}

fn cell_bits(data: &ColumnData) -> Vec<Bits> {
    (0..data.len())
        .map(|row| match data.get(row) {
            Value::Null => Bits::Null,
            Value::Number(x) => Bits::Number(x.to_bits()),
            Value::Time(t) => Bits::Time(t.unix_seconds()),
            Value::Text(s) => Bits::Text(s),
        })
        .collect()
}

/// An ingest result as the properties compare it: each column's name,
/// type and cells, or the error's message (which names its variant's
/// fields, such as a ragged record's line).
type Ingested = Result<Vec<(String, DataType, Vec<Bits>)>, String>;

fn ingest(result: Result<Table, CsvError>) -> Ingested {
    let table = result.map_err(|e| e.to_string())?;
    Ok(table
        .columns()
        .iter()
        .map(|c| (c.name().to_owned(), c.data_type(), cell_bits(c.data())))
        .collect())
}

fn outcome(result: Result<Vec<Vec<String>>, CsvError>) -> Result<Vec<Vec<String>>, String> {
    result.map_err(|e| e.to_string())
}

/// How a generated column's cells are written.
const KINDS: u32 = 12;

/// One generated cell: its column's kind, then draws that pick the format
/// (`pick`; 0 writes a cell of a random kind, 1 a missing-value marker)
/// and the value (`a`, `b`).
#[derive(Debug, Clone, Copy)]
struct CellDraw {
    kind: u32,
    pick: u32,
    a: i64,
    b: u32,
}

const MONTHS: [&str; 12] = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
];

impl CellDraw {
    fn text(self) -> String {
        let CellDraw { kind, pick, a, b } = self;
        let kind = match pick {
            0 => b % KINDS,
            1 => KINDS,
            _ => kind,
        };
        let civil = || {
            let t = Timestamp::from_unix_seconds(a.rem_euclid(4_000_000_000) - 1_000_000_000);
            t.civil()
        };
        let cell = match kind {
            // Integers, some beyond 2^53 and i64.
            0 => match b % 8 {
                0 => format!("{}", (1u64 << 53) + u64::from(b)),
                1 => format!("{a}0"),
                _ => (a % 100_000).to_string(),
            },
            // Numbers as `Value::to_string` prints them.
            1 => Value::Number(a as f64 / f64::from(b.max(1))).to_string(),
            // Thousands separators, with `$` or `%` on some.
            2 => {
                let digits = (a.unsigned_abs() % 100_000_000).to_string();
                let mut grouped = String::new();
                for (i, d) in digits.chars().enumerate() {
                    if i > 0 && (digits.len() - i) % 3 == 0 {
                        grouped.push(',');
                    }
                    grouped.push(d);
                }
                match b % 3 {
                    0 => format!("${grouped}.{:02}", b % 100),
                    1 => format!("{grouped}%"),
                    _ => grouped,
                }
            }
            3 => format!("{}%", (a % 100_000) as f64 / 100.0),
            // ISO timestamps with and without a time of day.
            4 => Timestamp::from_unix_seconds(a.rem_euclid(4_000_000_000) - 1_000_000_000)
                .to_string(),
            5 => Timestamp::from_unix_seconds(a.rem_euclid(50_000) * 86_400).to_string(),
            // Mixed date formats.
            6 => {
                let c = civil();
                let (y, m, d, mon) = (c.year, c.month, c.day, MONTHS[usize::from(c.month) - 1]);
                let (h, mi) = (c.hour, c.minute);
                match b % 11 {
                    0 => format!("{y}/{m:02}/{d:02}"),
                    1 => format!("{m}/{d}/{y}"),
                    2 => format!("{d:02}-{mon}-{y}"),
                    3 => format!("{mon}-{y}"),
                    4 => format!("{mon} {d}, {y}"),
                    5 => format!("{d} {mon} {y}"),
                    6 => format!("{d:02}-{mon} {h:02}:{mi:02}"),
                    7 => format!("{h:02}:{mi:02}"),
                    8 => format!("{y}-{m:02}"),
                    9 => format!("{y}-{m:02}-{d:02}T{h:02}:{mi:02}:00"),
                    _ => format!("{}-{m:02}-{d:02} {h}:{mi:02}", y + 10_000),
                }
            }
            // Bare years, one in 16 outside [1500, 2100].
            7 => match b % 16 {
                0 => (2101 + b % 500).to_string(),
                _ => (1500 + b % 601).to_string(),
            },
            // Impossible dates whose fields overflow their Civil types.
            8 => match b % 6 {
                0 => format!("2015-{}-01", 250 + b % 20),
                1 => format!("{}/01/2015", 250 + b % 20),
                2 => format!("2015-02-{}", 250 + b % 20),
                3 => format!("{}-Jan-2015", 250 + b % 20),
                4 => format!("Jan {}, 2015", 250 + b % 20),
                _ => format!("01-Jan-{}", 3_000_000_000u32 + b % 1000),
            },
            // NaN, infinities and other edge numbers.
            9 => [
                "NaN", "inf", "-inf", "Infinity", "1e308", "1e309", "+5", ".5", "5.",
            ][b as usize % 9]
                .to_owned(),
            // Categorical words.
            10 => [
                "UA", "AA", "MQ", "yes", "no", "North", "South", "x y", "Tea",
            ][b as usize % 9]
                .to_owned(),
            // Text with quotes, commas and line breaks.
            11 => [
                "55\" wide",
                "a,b",
                "line1\nline2",
                "say \"hi\"",
                "\"",
                "cr\rlf",
                "é,\"",
            ][b as usize % 7]
                .to_owned(),
            _ => {
                ["", "NA", "n/a", "null", "NULL", "nan", "-", " ", "N/A"][b as usize % 9].to_owned()
            }
        };
        // Pad some cells with spaces.
        if a % 13 == 0 {
            format!(" {cell} ")
        } else {
            cell
        }
    }
}

/// A generated CSV file: a header, rows of cells, and formatting knobs.
#[derive(Debug, Clone)]
struct CsvCase {
    rows: Vec<Vec<CellDraw>>,
    /// 0: BOM; 1: CRLF; 2: header name quirk; 3: blank line after this
    /// row; 4: ragged row; 5: quote every field; 6: trailing line break;
    /// 7: an open quote at the end.
    knobs: Vec<u32>,
}

fn csv_case() -> impl Strategy<Value = CsvCase> {
    (1usize..6, 0usize..45).prop_flat_map(|(cols, rows)| {
        let cell = (0u32..20, any::<i64>(), 0u32..1_000_000);
        (
            vec(0u32..KINDS, cols),
            vec(vec(cell, cols), rows),
            vec(0u32..128, 8usize),
        )
            .prop_map(|(kinds, grid, knobs)| CsvCase {
                rows: grid
                    .into_iter()
                    .map(|row| {
                        row.into_iter()
                            .zip(&kinds)
                            .map(|((pick, a, b), &kind)| CellDraw { kind, pick, a, b })
                            .collect()
                    })
                    .collect(),
                knobs,
            })
    })
}

impl CsvCase {
    fn render(&self) -> String {
        let k = |i: usize| self.knobs[i];
        let newline = if k(1) % 2 == 0 { "\n" } else { "\r\n" };
        let quote_all = k(5) % 4 == 0;
        let field = |s: &str| {
            // Quote what would otherwise split; a `"` after the first byte
            // stays bare, as a hand-written file would have it.
            if quote_all || s.contains([',', '\n', '\r']) || s.starts_with('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_owned()
            }
        };
        let width = self.rows.first().map_or(1 + k(2) as usize % 4, Vec::len);
        let mut names: Vec<String> = (0..width).map(|i| format!("col{i}")).collect();
        match k(2) % 8 {
            0 if width > 1 => names[1] = names[0].clone(),
            1 => names[0] = String::new(),
            2 => names[0] = format!(" {} ", names[0]),
            _ => {}
        }
        let mut out = String::new();
        if k(0) % 4 == 0 {
            out.push('\u{FEFF}');
        }
        let header: Vec<String> = names.iter().map(|n| field(n)).collect();
        out.push_str(&header.join(","));
        for (r, row) in self.rows.iter().enumerate() {
            out.push_str(newline);
            if k(3) as usize == r {
                out.push_str(newline);
            }
            let mut cells: Vec<String> = row.iter().map(|c| field(&c.text())).collect();
            if k(4) as usize == r {
                if k(4) % 2 == 0 {
                    cells.pop();
                } else {
                    cells.push("extra".to_owned());
                }
            }
            out.push_str(&cells.join(","));
        }
        if k(6) % 2 == 0 {
            out.push_str(newline);
        }
        if k(7) % 16 == 0 {
            out.push_str("\"open");
        }
        out
    }
}
