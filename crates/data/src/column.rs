//! Typed columnar storage.

use crate::correlate::PreparedColumn;
use crate::first_seen::FirstSeen;
use crate::temporal::Timestamp;
use crate::value::{DataType, Value};
use std::fmt;
use std::hash::Hash;
use std::sync::OnceLock;

/// Physical storage for one column, chosen to match its semantic type.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// Numerical column; `None` marks a null/unparseable cell.
    Numeric(Vec<Option<f64>>),
    /// Categorical column.
    Text(Vec<Option<String>>),
    /// Temporal column.
    Temporal(Vec<Option<Timestamp>>),
}

impl ColumnData {
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Numeric(v) => v.len(),
            ColumnData::Text(v) => v.len(),
            ColumnData::Temporal(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn data_type(&self) -> DataType {
        match self {
            ColumnData::Numeric(_) => DataType::Numerical,
            ColumnData::Text(_) => DataType::Categorical,
            ColumnData::Temporal(_) => DataType::Temporal,
        }
    }

    /// The cell at `row` as a [`Value`].
    pub fn get(&self, row: usize) -> Value {
        match self {
            ColumnData::Numeric(v) => v[row].map_or(Value::Null, Value::Number),
            ColumnData::Text(v) => v[row]
                .as_ref()
                .map_or(Value::Null, |s| Value::Text(s.clone())),
            ColumnData::Temporal(v) => v[row].map_or(Value::Null, Value::Time),
        }
    }

    pub fn is_null(&self, row: usize) -> bool {
        match self {
            ColumnData::Numeric(v) => v[row].is_none(),
            ColumnData::Text(v) => v[row].is_none(),
            ColumnData::Temporal(v) => v[row].is_none(),
        }
    }
}

/// A named, typed column.
pub struct Column {
    name: String,
    data: ColumnData,
    /// [`Column::positions`], computed by its first reader.
    positions: OnceLock<Positions>,
}

/// What every raw chart over a numeric or temporal column reads of it,
/// computed once per column. A column's *positions* are what a raw chart
/// plots for it: its numbers, or its timestamps as Unix seconds in `f64`.
/// Two timestamps beyond ±2^53 s can share one position, so positions,
/// not timestamps, are ordered and counted here.
#[derive(Debug)]
pub struct Positions {
    /// The non-null rows in ascending order of position by
    /// [`f64::total_cmp`], ties in row order: the order a stable sort of
    /// a raw chart's points by x gives.
    pub order: Vec<usize>,
    /// `None` when the column has a null.
    pub full: Option<FullPositions>,
}

/// The positions of a column without a null.
#[derive(Debug)]
pub struct FullPositions {
    /// In row order, prepared for correlation.
    pub rows: PreparedColumn<'static>,
    /// In [`Positions::order`], prepared.
    pub ordered: PreparedColumn<'static>,
    /// The number of distinct positions, by their bits.
    pub distinct: usize,
}

impl Positions {
    fn new(cells: Vec<Option<f64>>) -> Self {
        let mut sorted: Vec<(f64, usize)> = (cells.iter().enumerate())
            .filter_map(|(row, cell)| Some(((*cell)?, row)))
            .collect();
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
        let order: Vec<usize> = sorted.into_iter().map(|(_, row)| row).collect();
        let full = (order.len() == cells.len()).then(|| {
            let rows = PreparedColumn::new(cells.into_iter().flatten().collect::<Vec<f64>>());
            let ordered = rows.gathered(&order);
            // Under `total_cmp` two positions are equal exactly when
            // their bits are, so equal bits sit side by side in order.
            let distinct = match ordered.values() {
                [] => 0,
                v => {
                    1 + v
                        .windows(2)
                        .filter(|w| w[0].to_bits() != w[1].to_bits())
                        .count()
                }
            };
            FullPositions {
                rows,
                ordered,
                distinct,
            }
        });
        Positions { order, full }
    }
}

/// Equality of name and cells: the cached [`Positions`] do not count.
impl PartialEq for Column {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.data == other.data
    }
}

/// A clone starts with an empty cache.
impl Clone for Column {
    fn clone(&self) -> Self {
        Column::new(self.name.clone(), self.data.clone())
    }
}

impl fmt::Debug for Column {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Column")
            .field("name", &self.name)
            .field("data", &self.data)
            .finish()
    }
}

impl Column {
    pub fn new(name: impl Into<String>, data: ColumnData) -> Self {
        Column {
            name: name.into(),
            data,
            positions: OnceLock::new(),
        }
    }

    /// Build a numerical column; NaNs become nulls.
    pub fn numeric(name: impl Into<String>, values: impl IntoIterator<Item = f64>) -> Self {
        Column::new(
            name,
            ColumnData::Numeric(
                values
                    .into_iter()
                    .map(|x| if x.is_nan() { None } else { Some(x) })
                    .collect(),
            ),
        )
    }

    /// Build a categorical column.
    pub fn text<S: Into<String>>(
        name: impl Into<String>,
        values: impl IntoIterator<Item = S>,
    ) -> Self {
        Column::new(
            name,
            ColumnData::Text(values.into_iter().map(|s| Some(s.into())).collect()),
        )
    }

    /// Build a temporal column.
    pub fn temporal(name: impl Into<String>, values: impl IntoIterator<Item = Timestamp>) -> Self {
        Column::new(
            name,
            ColumnData::Temporal(values.into_iter().map(Some).collect()),
        )
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    pub fn data_type(&self) -> DataType {
        self.data.data_type()
    }

    /// Number of rows, `|X|` in the paper's feature (2).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn get(&self, row: usize) -> Value {
        self.data.get(row)
    }

    /// Non-null numeric values (empty for non-numeric columns).
    pub fn numbers(&self) -> Vec<f64> {
        match &self.data {
            ColumnData::Numeric(v) => v.iter().flatten().copied().collect(),
            _ => Vec::new(),
        }
    }

    /// Non-null timestamps (empty for non-temporal columns).
    pub fn timestamps(&self) -> Vec<Timestamp> {
        match &self.data {
            ColumnData::Temporal(v) => v.iter().flatten().copied().collect(),
            _ => Vec::new(),
        }
    }

    /// The position of the cell at `row`: its number, or its timestamp
    /// in Unix seconds; `None` for a null or text cell, or past the end.
    pub fn position(&self, row: usize) -> Option<f64> {
        match &self.data {
            ColumnData::Numeric(v) => *v.get(row)?,
            ColumnData::Temporal(v) => v.get(row)?.map(|t| t.unix_seconds() as f64),
            ColumnData::Text(_) => None,
        }
    }

    /// The [`Positions`] of a numeric or temporal column, computed on the
    /// first call; `None` for a text column. Many threads may read one
    /// column: the first computes the cache while the others wait.
    pub fn positions(&self) -> Option<&Positions> {
        if let ColumnData::Text(_) = self.data {
            return None;
        }
        Some(
            self.positions.get_or_init(|| {
                Positions::new((0..self.len()).map(|r| self.position(r)).collect())
            }),
        )
    }

    /// Number of distinct non-null values, `d(X)` in feature (1): numbers
    /// by their bits, so `0.0` and `-0.0` are two values. This is the
    /// number of groups a GROUP BY makes, counted with the same
    /// [`FirstSeen`] matching.
    pub fn distinct_count(&self) -> usize {
        fn count<K: Clone + Eq + Hash>(keys: impl Iterator<Item = K>) -> usize {
            let mut seen = FirstSeen::new();
            keys.for_each(|k| {
                seen.code(k);
            });
            seen.len()
        }
        match &self.data {
            ColumnData::Numeric(v) => count(v.iter().flatten().map(|x| x.to_bits())),
            ColumnData::Text(v) => count(v.iter().flatten().map(String::as_str)),
            ColumnData::Temporal(v) => count(v.iter().flatten()),
        }
    }

    /// Ratio of unique values, `r(X) = d(X)/|X|` in feature (3).
    pub fn unique_ratio(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.distinct_count() as f64 / self.len() as f64
        }
    }

    /// Number of null cells.
    pub fn null_count(&self) -> usize {
        (0..self.len()).filter(|&i| self.data.is_null(i)).count()
    }

    /// Minimum value as a comparable scalar (numeric value or Unix seconds);
    /// `None` for categorical or all-null columns. Feature (4).
    pub fn min_scalar(&self) -> Option<f64> {
        match &self.data {
            ColumnData::Numeric(v) => v
                .iter()
                .flatten()
                .copied()
                .fold(None, |acc: Option<f64>, x| {
                    Some(acc.map_or(x, |a| a.min(x)))
                }),
            ColumnData::Temporal(v) => v
                .iter()
                .flatten()
                .map(|t| t.unix_seconds() as f64)
                .fold(None, |acc: Option<f64>, x| {
                    Some(acc.map_or(x, |a| a.min(x)))
                }),
            ColumnData::Text(_) => None,
        }
    }

    /// Maximum value as a comparable scalar. Feature (4).
    pub fn max_scalar(&self) -> Option<f64> {
        match &self.data {
            ColumnData::Numeric(v) => v
                .iter()
                .flatten()
                .copied()
                .fold(None, |acc: Option<f64>, x| {
                    Some(acc.map_or(x, |a| a.max(x)))
                }),
            ColumnData::Temporal(v) => v
                .iter()
                .flatten()
                .map(|t| t.unix_seconds() as f64)
                .fold(None, |acc: Option<f64>, x| {
                    Some(acc.map_or(x, |a| a.max(x)))
                }),
            ColumnData::Text(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temporal::parse_timestamp;

    #[test]
    fn numeric_column_stats() {
        let c = Column::numeric("d", [1.0, 2.0, 2.0, f64::NAN, 5.0]);
        assert_eq!(c.len(), 5);
        assert_eq!(c.distinct_count(), 3);
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.unique_ratio(), 3.0 / 5.0);
        assert_eq!(c.min_scalar(), Some(1.0));
        assert_eq!(c.max_scalar(), Some(5.0));
        assert_eq!(c.data_type(), DataType::Numerical);
        assert_eq!(c.numbers(), vec![1.0, 2.0, 2.0, 5.0]);
    }

    #[test]
    fn text_column_stats() {
        let c = Column::text("carrier", ["UA", "AA", "UA", "MQ"]);
        assert_eq!(c.distinct_count(), 3);
        assert_eq!(c.data_type(), DataType::Categorical);
        assert_eq!(c.min_scalar(), None);
        assert_eq!(c.get(1), Value::from("AA"));
        assert!(c.numbers().is_empty());
    }

    #[test]
    fn temporal_column_stats() {
        let a = parse_timestamp("2015-01-01").unwrap();
        let b = parse_timestamp("2015-06-01").unwrap();
        let c = Column::temporal("t", [b, a, b]);
        assert_eq!(c.distinct_count(), 2);
        assert_eq!(c.data_type(), DataType::Temporal);
        assert_eq!(c.min_scalar(), Some(a.unix_seconds() as f64));
        assert_eq!(c.max_scalar(), Some(b.unix_seconds() as f64));
        assert_eq!(c.timestamps().len(), 3);
    }

    #[test]
    fn empty_column() {
        let c = Column::numeric("e", []);
        assert!(c.is_empty());
        assert_eq!(c.unique_ratio(), 0.0);
        assert_eq!(c.min_scalar(), None);
    }

    #[test]
    fn all_null_column() {
        let c = Column::new("n", ColumnData::Numeric(vec![None, None]));
        assert_eq!(c.distinct_count(), 0);
        assert_eq!(c.null_count(), 2);
        assert_eq!(c.max_scalar(), None);
        assert!(c.get(0).is_null());
    }
}
