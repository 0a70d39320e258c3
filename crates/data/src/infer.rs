//! Automatic data-type detection.
//!
//! The paper states that a column's type (categorical / numerical /
//! temporal) "can be automatically detected based on the attribute values"
//! (§II-A). This module detects it from every cell of a column, in one
//! pass that also parses the cells: each cell is parsed at most once as a
//! timestamp and once as a number, and only categorical text is copied.

use crate::column::ColumnData;
use crate::temporal::{parse_bare_year, parse_timestamp};
use crate::value::DataType;

/// Fraction of non-empty cells that must parse as a type for the column to
/// be detected as that type. Tolerates a small amount of dirty data.
const DETECT_THRESHOLD: f64 = 0.95;

/// Whether `parsed` of `cells` non-missing cells meet [`DETECT_THRESHOLD`].
fn meets_threshold(parsed: usize, cells: usize) -> bool {
    parsed as f64 / cells as f64 >= DETECT_THRESHOLD
}

/// A number, after dropping thousands separators and one leading `$` or
/// trailing `%` (which divides by 100). `scratch` holds a cell stripped of
/// its commas, so a column allocates for them once, not once per cell.
fn parse_number(s: &str, scratch: &mut String) -> Option<f64> {
    let mut t = s.trim();
    if t.contains(',') {
        scratch.clear();
        scratch.extend(t.split(','));
        t = scratch;
    }
    let t = t.strip_prefix('$').unwrap_or(t);
    let (t, pct) = match t.strip_suffix('%') {
        Some(u) => (u, true),
        None => (t, false),
    };
    let x: f64 = t.trim().parse().ok()?;
    if x.is_finite() {
        Some(if pct { x / 100.0 } else { x })
    } else {
        None
    }
}

/// Whether a cell is a missing-value marker. `nan` in any case is one,
/// as in pandas' default NA markers; `inf` is not (it is a dirty cell).
fn is_missing(s: &str) -> bool {
    let t = s.trim();
    t.is_empty()
        || t.eq_ignore_ascii_case("na")
        || t.eq_ignore_ascii_case("n/a")
        || t.eq_ignore_ascii_case("null")
        || t.eq_ignore_ascii_case("nan")
        || t == "-"
}

/// One reading of a column still in the running: the values parsed so far
/// (`None` for a missing or unparsable cell) and how many non-missing
/// cells failed to parse.
struct Candidate<T> {
    values: Vec<Option<T>>,
    failures: usize,
}

impl<T> Candidate<T> {
    fn with_capacity(rows: usize) -> Self {
        Candidate {
            values: Vec::with_capacity(rows),
            failures: 0,
        }
    }
}

/// Record a missing cell in `slot`'s candidate: a null, not a failure.
fn skip<T>(slot: &mut Option<Candidate<T>>) {
    if let Some(candidate) = slot {
        candidate.values.push(None);
    }
}

/// Record a non-missing cell's parse in `slot`'s candidate. A failure that
/// leaves the candidate unable to win (`viable(failures)` is false) drops
/// it.
fn offer<T>(slot: &mut Option<Candidate<T>>, value: Option<T>, viable: impl Fn(usize) -> bool) {
    if let Some(candidate) = slot {
        if value.is_none() {
            candidate.failures += 1;
            if !viable(candidate.failures) {
                *slot = None;
                return;
            }
        }
        candidate.values.push(value);
    }
}

/// Detect the semantic type of a column of raw cells and parse them into
/// storage of that type; a cell that does not parse becomes a null.
///
/// Priority is temporal, then numerical, then categorical: temporal formats
/// like `2015-07-04` would otherwise partially parse as numbers. A column
/// is temporal when [`DETECT_THRESHOLD`] of its non-missing cells parse
/// strictly ([`parse_timestamp`]), and then keeps the strict values. It is
/// also temporal when *every* non-missing cell parses loosely (bare years
/// such as `1990` included), and then keeps the loose values, so a column
/// of years beside one full date loses none of them.
///
/// One pass keeps the three readings as [`Candidate`]s. A threshold
/// candidate drops out once its failures make the threshold unreachable
/// even if every remaining cell parses and counts; the loose candidate
/// drops out at its first failure. Dropping never changes the outcome:
/// the final ratio can only be lower than the bound that dropped it.
pub(crate) fn infer<S: AsRef<str>>(cells: &[S]) -> ColumnData {
    let rows = cells.len();
    let mut strict = Some(Candidate::with_capacity(rows));
    let mut loose = Some(Candidate::with_capacity(rows));
    let mut numeric = Some(Candidate::with_capacity(rows));
    let mut scratch = String::new();
    // Non-missing cells so far.
    let mut present = 0;
    for (i, cell) in cells.iter().enumerate() {
        let s = cell.as_ref();
        if is_missing(s) {
            skip(&mut strict);
            skip(&mut loose);
            skip(&mut numeric);
            continue;
        }
        present += 1;
        // The most non-missing cells the column can end with.
        let reachable = present + (rows - i - 1);
        let within_threshold = |failures: usize| meets_threshold(reachable - failures, reachable);
        if strict.is_some() || loose.is_some() {
            let t = parse_timestamp(s);
            offer(&mut strict, t, within_threshold);
            offer(&mut loose, t.or_else(|| parse_bare_year(s)), |failures| {
                failures == 0
            });
        }
        if numeric.is_some() {
            offer(
                &mut numeric,
                parse_number(s, &mut scratch),
                within_threshold,
            );
        }
    }
    if present > 0 {
        if let Some(c) = strict.filter(|c| meets_threshold(present - c.failures, present)) {
            return ColumnData::Temporal(c.values);
        }
        if let Some(c) = loose {
            return ColumnData::Temporal(c.values);
        }
        if let Some(c) = numeric.filter(|c| meets_threshold(present - c.failures, present)) {
            return ColumnData::Numeric(c.values);
        }
    }
    ColumnData::Text(
        cells
            .iter()
            .map(|cell| {
                let s = cell.as_ref();
                (!is_missing(s)).then(|| s.trim().to_owned())
            })
            .collect(),
    )
}

/// Detect a column's type from its raw cells and parse them into storage
/// of that type, in one pass; a cell that does not parse becomes a null.
pub fn detect_and_parse(raw: &[String]) -> (DataType, ColumnData) {
    let data = infer(raw);
    (data.data_type(), data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temporal::{Civil, Timestamp};

    fn v(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    fn detect_type(raw: &[String]) -> DataType {
        detect_and_parse(raw).0
    }

    fn number(s: &str) -> Option<f64> {
        parse_number(s, &mut String::new())
    }

    #[test]
    fn detects_numeric() {
        assert_eq!(
            detect_type(&v(&["1", "2.5", "-3", "4e2"])),
            DataType::Numerical
        );
        assert_eq!(
            detect_type(&v(&["$1,200", "15%", "3"])),
            DataType::Numerical
        );
    }

    #[test]
    fn detects_temporal() {
        assert_eq!(
            detect_type(&v(&["2015-01-01", "2015-02-01", "2015-03-01"])),
            DataType::Temporal
        );
        assert_eq!(
            detect_type(&v(&["01-Jan 00:05", "01-Jan 04:00"])),
            DataType::Temporal
        );
    }

    #[test]
    fn bare_year_columns_are_temporal() {
        assert_eq!(
            detect_type(&v(&["1990", "1991", "1992"])),
            DataType::Temporal
        );
        // Mixed magnitudes are plain numbers.
        assert_eq!(
            detect_type(&v(&["1990", "12", "1992"])),
            DataType::Numerical
        );
    }

    #[test]
    fn bare_years_beside_one_full_date_keep_their_values() {
        // 1 of 11 cells parses strictly, so only the all-loose rule makes
        // the column temporal; its values are the loose ones.
        let mut cells: Vec<String> = (2000..2010).map(|y| y.to_string()).collect();
        cells.push("2015-06-01".to_owned());
        let year = |y| Some(Timestamp::from_civil(Civil::date(y, 1, 1).unwrap()));
        match detect_and_parse(&cells) {
            (DataType::Temporal, ColumnData::Temporal(vals)) => {
                assert_eq!(vals.iter().filter(|t| t.is_some()).count(), 11);
                assert_eq!(vals[0], year(2000));
                assert_eq!(vals[9], year(2009));
                let june = Timestamp::from_civil(Civil::date(2015, 6, 1).unwrap());
                assert_eq!(vals[10], Some(june));
            }
            other => panic!("expected temporal, got {other:?}"),
        }
        // A strictly detected column still keeps its strict values: the
        // bare year among 20 full dates is a dirty cell.
        let mut cells: Vec<String> = (1..=20).map(|d| format!("2015-01-{d:02}")).collect();
        cells.push("1999".to_owned());
        match detect_and_parse(&cells) {
            (DataType::Temporal, ColumnData::Temporal(vals)) => assert_eq!(vals[20], None),
            other => panic!("expected temporal, got {other:?}"),
        }
    }

    #[test]
    fn detects_categorical() {
        assert_eq!(detect_type(&v(&["UA", "AA", "MQ"])), DataType::Categorical);
        assert_eq!(
            detect_type(&v(&["yes", "no", "yes"])),
            DataType::Categorical
        );
        // Mostly text with a few numbers stays categorical.
        assert_eq!(
            detect_type(&v(&["a", "b", "c", "1"])),
            DataType::Categorical
        );
    }

    #[test]
    fn tolerates_missing_and_dirty_cells() {
        let raw = v(&[
            "1", "2", "", "NA", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14",
            "15", "16", "17", "18", "19", "oops",
        ]);
        // 20/21 non-missing parse as numbers (>95%).
        match detect_and_parse(&raw) {
            (DataType::Numerical, ColumnData::Numeric(vals)) => {
                assert_eq!(vals[2], None);
                assert_eq!(vals[3], None);
                assert_eq!(vals[21], None);
                assert_eq!(vals[0], Some(1.0));
            }
            other => panic!("expected numeric, got {other:?}"),
        }
    }

    #[test]
    fn dropping_a_candidate_early_keeps_the_threshold_exact() {
        // 19 numbers and 1 word: exactly 95%. The word first drops no
        // candidate early, since every remaining cell could still parse.
        let mut cells = vec!["oops".to_owned()];
        cells.extend((1..20).map(|i| i.to_string()));
        assert_eq!(detect_type(&cells), DataType::Numerical);
        // Two words among 20 cells miss 95%, wherever the words sit.
        for at in [0, 10, 19] {
            let mut cells: Vec<String> = (0..19).map(|i| i.to_string()).collect();
            cells.insert(at, "oops".to_owned());
            cells[(at + 5) % 20] = "oops".to_owned();
            assert_eq!(detect_type(&cells), DataType::Categorical, "{at}");
        }
    }

    #[test]
    fn nan_cells_are_missing_values() {
        // 5 of 40 cells (12.5%) spell NaN; a dirty-cell reading would
        // push the column under the 95% numeric threshold.
        let mut cells: Vec<String> = (0..35).map(|i| format!("{}.5", 10 + i)).collect();
        cells.extend(["NaN", "nan", "NAN", " NaN ", "nAn"].map(String::from));
        match detect_and_parse(&cells) {
            (DataType::Numerical, ColumnData::Numeric(vals)) => {
                assert_eq!(vals.iter().filter(|x| x.is_none()).count(), 5);
                assert_eq!(vals[0], Some(10.5));
            }
            other => panic!("expected numeric, got {other:?}"),
        }
        assert_eq!(detect_type(&v(&["NaN", "nan"])), DataType::Categorical);
    }

    #[test]
    fn infinite_cells_stay_dirty() {
        // inf is a value no chart axis can hold, not an absence: it counts
        // against the numeric threshold and parses to null.
        let mut cells: Vec<String> = (0..35).map(|i| i.to_string()).collect();
        cells.extend(["inf", "-inf", "Infinity", "inf", "-inf"].map(String::from));
        assert_eq!(detect_type(&cells), DataType::Categorical);
        let mut few: Vec<String> = (1..=20).map(|i| i.to_string()).collect();
        few.push("inf".to_owned());
        match detect_and_parse(&few) {
            (DataType::Numerical, ColumnData::Numeric(vals)) => assert_eq!(vals[20], None),
            other => panic!("expected numeric, got {other:?}"),
        }
    }

    #[test]
    fn empty_column_is_categorical() {
        assert_eq!(detect_type(&v(&[])), DataType::Categorical);
        assert_eq!(
            detect_and_parse(&v(&["", "NA"])),
            (DataType::Categorical, ColumnData::Text(vec![None, None]))
        );
    }

    #[test]
    fn parse_respects_type() {
        let raw = v(&["2015-01-01", "bogus"]);
        let (ty, data) = detect_and_parse(&raw);
        // 1/2 temporal misses the threshold, so categorical wins.
        assert_eq!(ty, DataType::Categorical);
        assert_eq!(data.data_type(), DataType::Categorical);
    }

    #[test]
    fn percent_and_currency_values() {
        assert_eq!(number("15%"), Some(0.15));
        assert_eq!(number("$1,234.5"), Some(1234.5));
        assert_eq!(number(" 1,000,000 "), Some(1e6));
        assert_eq!(number("abc"), None);
        assert_eq!(number("inf"), None);
    }
}
