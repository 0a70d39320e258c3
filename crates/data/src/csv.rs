//! Minimal RFC-4180-style CSV reader.
//!
//! Supports quoted fields (with embedded commas, quotes, and newlines),
//! CRLF/LF line endings, and a configurable delimiter. Paired with type
//! detection ([`crate::infer`]) it turns a CSV text into a typed [`Table`].

use crate::column::Column;
use crate::infer::detect_and_parse;
use crate::table::{Table, TableError};
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// Errors raised while reading CSV input.
#[derive(Debug)]
pub enum CsvError {
    Io(io::Error),
    /// A record had a different number of fields than the header.
    FieldCount {
        line: usize,
        expected: usize,
        got: usize,
    },
    /// Unterminated quoted field at end of input.
    UnterminatedQuote,
    /// The input had no header row.
    Empty,
    Table(TableError),
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "I/O error: {e}"),
            CsvError::FieldCount {
                line,
                expected,
                got,
            } => {
                write!(
                    f,
                    "record on line {line} has {got} fields, expected {expected}"
                )
            }
            CsvError::UnterminatedQuote => f.write_str("unterminated quoted field"),
            CsvError::Empty => f.write_str("CSV input is empty"),
            CsvError::Table(e) => write!(f, "table error: {e}"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<io::Error> for CsvError {
    fn from(e: io::Error) -> Self {
        CsvError::Io(e)
    }
}

impl From<TableError> for CsvError {
    fn from(e: TableError) -> Self {
        CsvError::Table(e)
    }
}

/// Parse CSV text into records of string fields.
pub fn parse_records(text: &str, delimiter: char) -> Result<Vec<Vec<String>>, CsvError> {
    let mut records = Vec::new();
    let mut record: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut chars = text.chars().peekable();
    let mut in_quotes = false;
    let mut any = false;

    while let Some(c) = chars.next() {
        any = true;
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
                '"' => in_quotes = true,
                '\r' => {} // swallow; LF terminates
                '\n' => {
                    record.push(std::mem::take(&mut field));
                    records.push(std::mem::take(&mut record));
                }
                c if c == delimiter => record.push(std::mem::take(&mut field)),
                _ => field.push(c),
            }
        }
    }
    if in_quotes {
        return Err(CsvError::UnterminatedQuote);
    }
    if !field.is_empty() || !record.is_empty() {
        record.push(field);
        records.push(record);
    }
    if !any {
        return Err(CsvError::Empty);
    }
    // Drop fully empty trailing records (e.g. file ends with a blank line).
    records.retain(|r| !(r.len() == 1 && r[0].is_empty()));
    if records.is_empty() {
        return Err(CsvError::Empty);
    }
    Ok(records)
}

/// Read a typed table from CSV text. The first record is the header; each
/// column's type is auto-detected.
pub fn table_from_csv_str(name: &str, text: &str) -> Result<Table, CsvError> {
    table_from_csv_str_delim(name, text, ',')
}

/// Like [`table_from_csv_str`] with an explicit delimiter. One leading
/// UTF-8 byte-order mark is skipped, so it never becomes part of the first
/// column's name.
pub fn table_from_csv_str_delim(
    name: &str,
    text: &str,
    delimiter: char,
) -> Result<Table, CsvError> {
    let text = text.strip_prefix('\u{FEFF}').unwrap_or(text);
    let records = parse_records(text, delimiter)?;
    let (header, body) = records.split_first().ok_or(CsvError::Empty)?;
    let width = header.len();
    for (i, rec) in body.iter().enumerate() {
        if rec.len() != width {
            return Err(CsvError::FieldCount {
                line: i + 2,
                expected: width,
                got: rec.len(),
            });
        }
    }
    let mut columns = Vec::with_capacity(width);
    for (ci, col_name) in header.iter().enumerate() {
        let raw: Vec<String> = body.iter().map(|rec| rec[ci].clone()).collect();
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

/// Read a typed table from a CSV file; the table is named after the file
/// stem.
pub fn table_from_csv_path(path: impl AsRef<Path>) -> Result<Table, CsvError> {
    let path = path.as_ref();
    let text = fs::read_to_string(path)?;
    let name = path.file_stem().and_then(|s| s.to_str()).unwrap_or("table");
    table_from_csv_str(name, &text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    #[test]
    fn parses_simple_csv() {
        let t = table_from_csv_str("t", "a,b\n1,x\n2,y\n").unwrap();
        assert_eq!(t.column_count(), 2);
        assert_eq!(t.row_count(), 2);
        assert_eq!(
            t.column_by_name("a").unwrap().data_type(),
            DataType::Numerical
        );
        assert_eq!(
            t.column_by_name("b").unwrap().data_type(),
            DataType::Categorical
        );
    }

    #[test]
    fn quoted_fields_with_commas_and_newlines() {
        let recs =
            parse_records("a,\"x,y\"\n\"line1\nline2\",\"he said \"\"hi\"\"\"\n", ',').unwrap();
        assert_eq!(recs[0], vec!["a", "x,y"]);
        assert_eq!(recs[1], vec!["line1\nline2", "he said \"hi\""]);
    }

    #[test]
    fn crlf_and_trailing_newline() {
        let recs = parse_records("a,b\r\n1,2\r\n", ',').unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1], vec!["1", "2"]);
    }

    #[test]
    fn no_trailing_newline() {
        let recs = parse_records("a,b\n1,2", ',').unwrap();
        assert_eq!(recs.len(), 2);
    }

    #[test]
    fn field_count_mismatch_reported() {
        let err = table_from_csv_str("t", "a,b\n1\n").unwrap_err();
        match err {
            CsvError::FieldCount {
                line,
                expected,
                got,
            } => {
                assert_eq!((line, expected, got), (2, 2, 1));
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn unterminated_quote_reported() {
        assert!(matches!(
            parse_records("a,\"b\n", ','),
            Err(CsvError::UnterminatedQuote)
        ));
    }

    #[test]
    fn empty_input_reported() {
        assert!(matches!(table_from_csv_str("t", ""), Err(CsvError::Empty)));
        assert!(matches!(
            table_from_csv_str("t", "\n\n"),
            Err(CsvError::Empty)
        ));
    }

    #[test]
    fn temporal_detection_via_csv() {
        let t = table_from_csv_str("t", "when,delay\n2015-01-01 08:30,5\n2015-01-02 09:00,7\n")
            .unwrap();
        assert_eq!(
            t.column_by_name("when").unwrap().data_type(),
            DataType::Temporal
        );
    }

    #[test]
    fn blank_header_names_filled() {
        let t = table_from_csv_str("t", ",b\n1,2\n").unwrap();
        assert!(t.column_by_name("column_0").is_some());
    }

    #[test]
    fn leading_byte_order_mark_is_not_part_of_the_header() {
        let t = table_from_csv_str("t", "\u{FEFF}city,n\nOslo,1\nRome,2\n").unwrap();
        assert_eq!(t.column(0).unwrap().name(), "city");
        assert!(t.column_by_name("city").is_some());
        // Only one mark is a byte-order mark; a second one is data.
        let t = table_from_csv_str("t", "\u{FEFF}\u{FEFF}city,n\nOslo,1\n").unwrap();
        assert_eq!(t.column(0).unwrap().name(), "\u{FEFF}city");
    }

    #[test]
    fn custom_delimiter() {
        let t = table_from_csv_str_delim("t", "a\tb\n1\t2\n", '\t').unwrap();
        assert_eq!(t.column_count(), 2);
        assert_eq!(t.row_count(), 1);
    }
}
