//! The reference ingest path the product's one-pass reader is checked
//! against: a `char` loop that copies every field into its own `String`,
//! then per column a detection pass over every cell and a parse pass over
//! every cell again. It is the pre-rewrite code with the three behaviour
//! fixes the rewrite ships, so the differential properties in
//! `properties.rs` expect identical results, not a list of exemptions:
//!
//! - a `"` opens a quoted section only as the first character of a field;
//! - a column detected by the all-loose rule keeps its loose values;
//! - a ragged record is reported by the physical line it starts on.
//!
//! (The date-range fix lives in the shared `parse_timestamp`.)

use deepeye_data::{
    parse_timestamp, parse_timestamp_loose, Column, ColumnData, CsvError, DataType, Table,
};

const DETECT_THRESHOLD: f64 = 0.95;

/// Split CSV text into non-blank records, each with the physical line it
/// starts on.
pub fn records(text: &str, delimiter: char) -> Result<Vec<(usize, Vec<String>)>, CsvError> {
    let mut records = Vec::new();
    let mut record: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut chars = text.chars().peekable();
    let mut in_quotes = false;
    let mut field_start = true;
    let mut any = false;
    let (mut line, mut record_line) = (1, 1);

    while let Some(c) = chars.next() {
        any = true;
        if c == '\n' {
            line += 1;
        }
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                _ => field.push(c),
            }
        } else {
            match c {
                '"' if field_start => in_quotes = true,
                '\r' => {} // swallow; LF terminates
                '\n' => {
                    record.push(std::mem::take(&mut field));
                    records.push((record_line, std::mem::take(&mut record)));
                    record_line = line;
                    field_start = true;
                    continue;
                }
                c if c == delimiter => {
                    record.push(std::mem::take(&mut field));
                    field_start = true;
                    continue;
                }
                _ => field.push(c),
            }
        }
        field_start = false;
    }
    if in_quotes {
        return Err(CsvError::UnterminatedQuote);
    }
    if !field.is_empty() || !record.is_empty() {
        record.push(field);
        records.push((record_line, record));
    }
    if !any {
        return Err(CsvError::Empty);
    }
    // Drop fully empty records (blank lines).
    records.retain(|(_, r)| !(r.len() == 1 && r[0].is_empty()));
    if records.is_empty() {
        return Err(CsvError::Empty);
    }
    Ok(records)
}

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

fn is_missing(s: &str) -> bool {
    let t = s.trim();
    t.is_empty()
        || t.eq_ignore_ascii_case("na")
        || t.eq_ignore_ascii_case("n/a")
        || t.eq_ignore_ascii_case("null")
        || t.eq_ignore_ascii_case("nan")
        || t == "-"
}

/// How a column was detected: the type, and for a temporal column whether
/// the strict rule (rather than the all-loose rule) decided it.
fn detect(raw: &[String]) -> (DataType, bool) {
    let non_missing: Vec<&str> = raw
        .iter()
        .map(String::as_str)
        .filter(|s| !is_missing(s))
        .collect();
    if non_missing.is_empty() {
        return (DataType::Categorical, false);
    }
    let n = non_missing.len() as f64;
    let temporal_strict = non_missing
        .iter()
        .filter(|s| parse_timestamp(s).is_some())
        .count();
    if temporal_strict as f64 / n >= DETECT_THRESHOLD {
        return (DataType::Temporal, true);
    }
    let temporal_loose = non_missing
        .iter()
        .filter(|s| parse_timestamp_loose(s).is_some())
        .count();
    if temporal_loose == non_missing.len() {
        return (DataType::Temporal, false);
    }
    let numeric = non_missing
        .iter()
        .filter(|s| parse_number(s).is_some())
        .count();
    if numeric as f64 / n >= DETECT_THRESHOLD {
        return (DataType::Numerical, false);
    }
    (DataType::Categorical, false)
}

/// Detect a column's type, then parse every cell again as that type.
pub fn detect_and_parse(raw: &[String]) -> (DataType, ColumnData) {
    let (ty, strict) = detect(raw);
    let data = match ty {
        DataType::Numerical => ColumnData::Numeric(
            raw.iter()
                .map(|s| if is_missing(s) { None } else { parse_number(s) })
                .collect(),
        ),
        DataType::Temporal => {
            let parse = if strict {
                parse_timestamp
            } else {
                parse_timestamp_loose
            };
            ColumnData::Temporal(
                raw.iter()
                    .map(|s| if is_missing(s) { None } else { parse(s) })
                    .collect(),
            )
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
    };
    (ty, data)
}

/// Read a typed table from CSV text, as `table_from_csv_str_delim` does.
pub fn table_from_csv_str_delim(
    name: &str,
    text: &str,
    delimiter: char,
) -> Result<Table, CsvError> {
    let text = text.strip_prefix('\u{FEFF}').unwrap_or(text);
    let records = records(text, delimiter)?;
    let ((_, header), body) = records.split_first().ok_or(CsvError::Empty)?;
    let width = header.len();
    for (line, rec) in body {
        if rec.len() != width {
            return Err(CsvError::FieldCount {
                line: *line,
                expected: width,
                got: rec.len(),
            });
        }
    }
    let mut columns = Vec::with_capacity(width);
    for (ci, col_name) in header.iter().enumerate() {
        let raw: Vec<String> = body.iter().map(|(_, rec)| rec[ci].clone()).collect();
        let (_, data) = detect_and_parse(&raw);
        let trimmed = col_name.trim();
        let final_name = if trimmed.is_empty() {
            format!("column_{ci}")
        } else {
            trimmed.to_owned()
        };
        columns.push(Column::new(final_name, data));
    }
    Ok(Table::new(name, columns)?)
}
