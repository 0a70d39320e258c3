//! CSV reader: one byte-level pass over the text.
//!
//! Records end at LF, and a CR outside quotes is dropped, so CRLF input
//! reads like LF input. Fields end at a configurable delimiter. Each field
//! is a slice of the input: only a field with `""` to unescape or a CR to
//! drop is copied. A `"` opens a quoted section only as the first byte of
//! a field, as in RFC 4180 and Python's `csv`; anywhere else it is a
//! literal character, so `55" wide` stays one field. A quoted section may
//! hold delimiters, newlines and `""` (one literal quote); text after its
//! closing quote joins the field. Blank lines are skipped, and a record
//! with the wrong number of fields is reported by the physical line it
//! starts on. Each column's cells then go through one type-inference pass
//! ([`crate::infer`]) into a typed [`Table`]; from 1,000 rows the columns
//! are inferred in parallel.

use crate::column::Column;
use crate::infer::infer;
use crate::par;
use crate::table::{Table, TableError};
use std::borrow::Cow;
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

/// What ended a field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum End {
    Delimiter,
    Newline,
    Input,
}

/// Splits CSV text into records of fields borrowed from it.
struct Reader<'a> {
    text: &'a str,
    /// The byte the next field starts at.
    pos: usize,
    /// The delimiter's UTF-8 bytes: `delimiter[..delimiter_len]`.
    delimiter: [u8; 4],
    delimiter_len: usize,
}

impl<'a> Reader<'a> {
    fn new(text: &'a str, delimiter: char) -> Self {
        let mut bytes = [0; 4];
        let delimiter_len = delimiter.encode_utf8(&mut bytes).len();
        Reader {
            text,
            pos: 0,
            delimiter: bytes,
            delimiter_len,
        }
    }

    /// Read the next record that is not blank (one empty field) into
    /// `fields`. Returns the byte offset it starts at, or `None` at the end
    /// of the input.
    fn next_record(&mut self, fields: &mut Vec<Cow<'a, str>>) -> Result<Option<usize>, CsvError> {
        while self.pos < self.text.len() {
            let start = self.pos;
            fields.clear();
            loop {
                let (field, end) = self.field()?;
                fields.push(field);
                if end != End::Delimiter {
                    break;
                }
            }
            if !(fields.len() == 1 && fields[0].is_empty()) {
                return Ok(Some(start));
            }
        }
        Ok(None)
    }

    /// Read the field at `pos`: a quoted section if it opens with `"`,
    /// then an unquoted run up to the delimiter, a newline or the end.
    fn field(&mut self) -> Result<(Cow<'a, str>, End), CsvError> {
        let bytes = self.text.as_bytes();
        let (quoted, run_start) = if bytes.get(self.pos) == Some(&b'"') {
            let (content, after) = self.quoted(self.pos + 1)?;
            (Some(content), after)
        } else {
            (None, self.pos)
        };
        let (mut i, mut has_cr) = (run_start, false);
        let end = loop {
            match bytes.get(i) {
                None => break End::Input,
                Some(b'\n') => break End::Newline,
                Some(b'\r') => has_cr = true,
                Some(&b) if b == self.delimiter[0] && self.at_delimiter(i) => break End::Delimiter,
                Some(_) => {}
            }
            i += 1;
        };
        self.pos = i + match end {
            End::Delimiter => self.delimiter_len,
            End::Newline => 1,
            End::Input => 0,
        };
        let run = &self.text[run_start..i];
        let run = if has_cr {
            Cow::Owned(run.replace('\r', ""))
        } else {
            Cow::Borrowed(run)
        };
        let field = match quoted {
            None => run,
            Some(content) if run.is_empty() => content,
            Some(content) => Cow::Owned(content.into_owned() + &run),
        };
        Ok((field, end))
    }

    fn at_delimiter(&self, i: usize) -> bool {
        self.text.as_bytes()[i..].starts_with(&self.delimiter[..self.delimiter_len])
    }

    /// The content of the quoted section starting at byte `i` (just past
    /// its opening quote), with each `""` read as one `"`, and the byte
    /// after its closing quote.
    fn quoted(&self, mut i: usize) -> Result<(Cow<'a, str>, usize), CsvError> {
        let (text, open) = (self.text, i);
        let mut unescaped: Option<String> = None;
        loop {
            let close = text.as_bytes()[i..]
                .iter()
                .position(|&b| b == b'"')
                .map(|q| i + q)
                .ok_or(CsvError::UnterminatedQuote)?;
            if text.as_bytes().get(close + 1) != Some(&b'"') {
                let content = match unescaped {
                    None => Cow::Borrowed(&text[open..close]),
                    Some(s) => Cow::Owned(s + &text[i..close]),
                };
                return Ok((content, close + 1));
            }
            // `""`: keep one quote, skip the other.
            unescaped
                .get_or_insert_with(String::new)
                .push_str(&text[i..=close]);
            i = close + 2;
        }
    }
}

/// The physical (1-based) line of byte `offset` of `text`.
fn line_at(text: &str, offset: usize) -> usize {
    1 + text.as_bytes()[..offset]
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
}

/// Parse CSV text into records of string fields. Blank lines are skipped.
pub fn parse_records(text: &str, delimiter: char) -> Result<Vec<Vec<String>>, CsvError> {
    let mut reader = Reader::new(text, delimiter);
    let mut fields = Vec::new();
    let mut records = Vec::new();
    while reader.next_record(&mut fields)?.is_some() {
        records.push(fields.drain(..).map(Cow::into_owned).collect());
    }
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
    read_table(name, text, delimiter, |rows, width| {
        if rows >= PARALLEL_ROWS {
            par::workers(width)
        } else {
            1
        }
    })
}

/// Fewest data rows at which ingest infers its columns in parallel. Below
/// it a column's inference costs about what starting and joining a thread
/// does: on 2 vCPUs a second thread made the 300-row, 5-column table of
/// the perf harness 5–8% slower to ingest, and 600 rows or more faster.
const PARALLEL_ROWS: usize = 1_000;

/// [`table_from_csv_str_delim`], inferring the columns on
/// `workers(rows, width)` threads: each column's type inference is one
/// unit of [`par::map`]. Splitting the text into fields stays on the
/// calling thread.
pub(crate) fn read_table(
    name: &str,
    text: &str,
    delimiter: char,
    workers: impl Fn(usize, usize) -> usize,
) -> Result<Table, CsvError> {
    let text = text.strip_prefix('\u{FEFF}').unwrap_or(text);
    let mut reader = Reader::new(text, delimiter);
    let mut fields = Vec::new();
    if reader.next_record(&mut fields)?.is_none() {
        return Err(CsvError::Empty);
    }
    let names: Vec<String> = fields
        .iter()
        .enumerate()
        .map(|(ci, name)| match name.trim() {
            "" => format!("column_{ci}"),
            trimmed => trimmed.to_owned(),
        })
        .collect();
    let width = names.len();
    let mut cells: Vec<Vec<Cow<str>>> = vec![Vec::new(); width];
    let mut ragged = None;
    while let Some(start) = reader.next_record(&mut fields)? {
        if fields.len() != width {
            // The first ragged record is the error, unless a quote left
            // open further on makes the whole text unreadable.
            ragged.get_or_insert_with(|| CsvError::FieldCount {
                line: line_at(text, start),
                expected: width,
                got: fields.len(),
            });
        } else if ragged.is_none() {
            for (column, field) in cells.iter_mut().zip(fields.drain(..)) {
                column.push(field);
            }
        }
    }
    if let Some(e) = ragged {
        return Err(e);
    }
    let rows = cells.first().map_or(0, Vec::len);
    let inferred = par::map(&cells, workers(rows, width), |cells| infer(cells));
    let columns = names
        .into_iter()
        .zip(inferred)
        .map(|(name, data)| Column::new(name, data))
        .collect();
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
    fn ragged_records_name_their_physical_line() {
        for (text, line) in [("a,b\n\n1\n", 3), ("a,b\n\"x\ny\",1\n2\n", 4)] {
            match table_from_csv_str("t", text) {
                Err(CsvError::FieldCount { line: got, .. }) => assert_eq!(got, line, "{text:?}"),
                other => panic!("{text:?}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn unterminated_quote_reported() {
        assert!(matches!(
            parse_records("a,\"b\n", ','),
            Err(CsvError::UnterminatedQuote)
        ));
        // An open quote anywhere makes the text unreadable, even after a
        // ragged record.
        assert!(matches!(
            table_from_csv_str("t", "a,b\n1\n\"x,2\n"),
            Err(CsvError::UnterminatedQuote)
        ));
    }

    #[test]
    fn quote_opens_only_at_the_first_byte_of_a_field() {
        let t = table_from_csv_str(
            "t",
            "item,size,n\nTV,55\" wide,1\nRadio,7\" x,2\nPhone,6,3\n",
        )
        .unwrap();
        assert_eq!(t.row_count(), 3);
        let size = t.column_by_name("size").unwrap();
        assert_eq!(size.data().get(0).as_text(), Some("55\" wide"));
        assert_eq!(size.data().get(1).as_text(), Some("7\" x"));
        // Text after a closing quote joins the field, its quotes literal.
        let recs = parse_records("\"ab\"c\"d\",e\n", ',').unwrap();
        assert_eq!(recs[0], vec!["abc\"d\"", "e"]);
    }

    #[test]
    fn only_fields_with_escapes_or_carriage_returns_are_copied() {
        let mut reader = Reader::new("a,\"b,c\",d\r\n\"x\"\"y\",\"z\"\r\n", ',');
        let mut fields = Vec::new();
        let mut borrowed = Vec::new();
        while reader.next_record(&mut fields).unwrap().is_some() {
            for f in &fields {
                borrowed.push((f.to_string(), matches!(f, Cow::Borrowed(_))));
            }
        }
        let want = [
            ("a", true),
            ("b,c", true),
            ("d", false),
            ("x\"y", false),
            ("z", true),
        ];
        let want: Vec<(String, bool)> = want.iter().map(|&(f, b)| (f.to_owned(), b)).collect();
        assert_eq!(borrowed, want);
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

    /// An ingest result as the worker-count tests compare it: each column's
    /// name, type and cells (numbers by their bits), or the error's message.
    fn ingested(
        text: &str,
        workers: usize,
    ) -> Result<Vec<(String, DataType, Vec<String>)>, String> {
        let table = read_table("t", text, ',', |_, _| workers).map_err(|e| e.to_string())?;
        Ok(table
            .columns()
            .iter()
            .map(|c| {
                let cells = (0..c.len())
                    .map(|row| match c.data().get(row) {
                        crate::Value::Number(x) => format!("{:x}", x.to_bits()),
                        other => format!("{other:?}"),
                    })
                    .collect();
                (c.name().to_owned(), c.data_type(), cells)
            })
            .collect())
    }

    #[test]
    fn ingest_of_every_corpus_file_is_independent_of_worker_count() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/data");
        let mut files = 0;
        for entry in fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            let text = String::from_utf8_lossy(&fs::read(&path).unwrap()).into_owned();
            let serial = ingested(&text, 1);
            for workers in 2..=4 {
                assert_eq!(
                    ingested(&text, workers),
                    serial,
                    "{path:?}, {workers} workers"
                );
            }
            files += 1;
        }
        assert!(files >= 23, "{files} corpus files");
    }

    proptest::proptest! {
        #[test]
        fn ingest_of_generated_csv_is_independent_of_worker_count(
            text in crate::csv_text::csv_text()
        ) {
            let serial = ingested(&text, 1);
            for workers in 2..=4 {
                proptest::prop_assert_eq!(ingested(&text, workers), serial.clone());
            }
        }
    }
}
