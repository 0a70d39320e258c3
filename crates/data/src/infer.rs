//! Automatic data-type detection.
//!
//! The paper states that a column's type (categorical / numerical /
//! temporal) "can be automatically detected based on the attribute values"
//! (§II-A). This module implements that detection for raw string cells, as
//! produced by the CSV reader.

use crate::column::ColumnData;
use crate::temporal::{parse_timestamp, parse_timestamp_loose, Timestamp};
use crate::value::DataType;

/// Fraction of non-empty cells that must parse as a type for the column to
/// be detected as that type. Tolerates a small amount of dirty data.
const DETECT_THRESHOLD: f64 = 0.95;

fn parse_number(s: &str) -> Option<f64> {
    let t = s.trim().replace(',', "");
    // Strip a leading currency symbol or trailing percent sign.
    let t = t.strip_prefix('$').unwrap_or(&t);
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

/// Detect the semantic type of a column of raw string cells.
///
/// Priority is temporal, then numerical, then categorical: temporal formats
/// like `2015-07-04` would otherwise partially parse as numbers, and bare
/// years are only treated as temporal when *every* value looks like a year
/// (via [`parse_timestamp_loose`]) and not all values parse as plain
/// numbers in a wider range.
pub fn detect_type(raw: &[String]) -> DataType {
    let non_missing: Vec<&str> = raw
        .iter()
        .map(String::as_str)
        .filter(|s| !is_missing(s))
        .collect();
    if non_missing.is_empty() {
        return DataType::Categorical;
    }
    let n = non_missing.len() as f64;
    let temporal_strict = non_missing
        .iter()
        .filter(|s| parse_timestamp(s).is_some())
        .count();
    if temporal_strict as f64 / n >= DETECT_THRESHOLD {
        return DataType::Temporal;
    }
    // All-bare-year columns (e.g. "1990", "1991", …) read better as
    // temporal, so check loose-temporal before falling back to numeric.
    let temporal_loose = non_missing
        .iter()
        .filter(|s| parse_timestamp_loose(s).is_some())
        .count();
    if temporal_loose == non_missing.len() {
        return DataType::Temporal;
    }
    let numeric = non_missing
        .iter()
        .filter(|s| parse_number(s).is_some())
        .count();
    if numeric as f64 / n >= DETECT_THRESHOLD {
        return DataType::Numerical;
    }
    DataType::Categorical
}

/// Convert raw string cells into typed storage for the detected type.
/// Cells that fail to parse become nulls.
pub fn parse_column(raw: &[String], ty: DataType) -> ColumnData {
    match ty {
        DataType::Numerical => ColumnData::Numeric(
            raw.iter()
                .map(|s| if is_missing(s) { None } else { parse_number(s) })
                .collect(),
        ),
        DataType::Temporal => {
            let strict: Vec<Option<Timestamp>> = raw
                .iter()
                .map(|s| {
                    if is_missing(s) {
                        None
                    } else {
                        parse_timestamp(s)
                    }
                })
                .collect();
            if strict.iter().any(Option::is_some) {
                ColumnData::Temporal(strict)
            } else {
                ColumnData::Temporal(
                    raw.iter()
                        .map(|s| {
                            if is_missing(s) {
                                None
                            } else {
                                parse_timestamp_loose(s)
                            }
                        })
                        .collect(),
                )
            }
        }
        DataType::Categorical => ColumnData::Text(
            raw.iter()
                .map(|s| {
                    if is_missing(s) {
                        None
                    } else {
                        Some(s.trim().to_owned())
                    }
                })
                .collect(),
        ),
    }
}

/// Detect and parse in one step.
pub fn detect_and_parse(raw: &[String]) -> (DataType, ColumnData) {
    let ty = detect_type(raw);
    (ty, parse_column(raw, ty))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
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
        assert_eq!(detect_type(&raw), DataType::Numerical);
        let parsed = parse_column(&raw, DataType::Numerical);
        match parsed {
            ColumnData::Numeric(vals) => {
                assert_eq!(vals[2], None);
                assert_eq!(vals[3], None);
                assert_eq!(vals[21], None);
                assert_eq!(vals[0], Some(1.0));
            }
            _ => panic!("expected numeric"),
        }
    }

    #[test]
    fn nan_cells_are_missing_values() {
        // 5 of 40 cells (12.5%) spell NaN; a dirty-cell reading would
        // push the column under the 95% numeric threshold.
        let mut cells: Vec<String> = (0..35).map(|i| format!("{}.5", 10 + i)).collect();
        cells.extend(["NaN", "nan", "NAN", " NaN ", "nAn"].map(String::from));
        assert_eq!(detect_type(&cells), DataType::Numerical);
        match parse_column(&cells, DataType::Numerical) {
            ColumnData::Numeric(vals) => {
                assert_eq!(vals.iter().filter(|x| x.is_none()).count(), 5);
                assert_eq!(vals[0], Some(10.5));
            }
            _ => panic!("expected numeric"),
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
        assert_eq!(detect_type(&few), DataType::Numerical);
        match parse_column(&few, DataType::Numerical) {
            ColumnData::Numeric(vals) => assert_eq!(vals[20], None),
            _ => panic!("expected numeric"),
        }
    }

    #[test]
    fn empty_column_is_categorical() {
        assert_eq!(detect_type(&v(&[])), DataType::Categorical);
        assert_eq!(detect_type(&v(&["", "NA"])), DataType::Categorical);
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
        assert_eq!(parse_number("15%"), Some(0.15));
        assert_eq!(parse_number("$1,234.5"), Some(1234.5));
        assert_eq!(parse_number("abc"), None);
        assert_eq!(parse_number("inf"), None);
    }
}
