//! # deepeye-data
//!
//! Relational data substrate for the DeepEye automatic-visualization system
//! (Luo, Qin, Tang, Li — ICDE 2018).
//!
//! Provides the table model of §II-A of the paper:
//!
//! - typed cell [`Value`]s and the three semantic [`DataType`]s
//!   (categorical / numerical / temporal);
//! - columnar [`Column`]/[`Table`] storage with the per-column statistics
//!   that feed DeepEye's 14-feature vector (`d(X)`, `|X|`, `r(X)`,
//!   min/max, type);
//! - temporal parsing and calendar truncation for the seven bin units
//!   (minute … year);
//! - a CSV reader with automatic type detection;
//! - [`par::map`], the order-preserving parallel map behind every
//!   parallel site of the pipeline;
//! - the four-model column [`correlation`] (linear / polynomial / power /
//!   log) and the [`trend`] test backing Eq. 4.
//!
//! ```
//! use deepeye_data::{table_from_csv_str, DataType};
//!
//! let t = table_from_csv_str("flights", "when,delay\n2015-01-01,4\n2015-01-02,9\n").unwrap();
//! assert_eq!(t.column_by_name("when").unwrap().data_type(), DataType::Temporal);
//! assert_eq!(t.column_by_name("delay").unwrap().numbers(), vec![4.0, 9.0]);
//! ```

#![forbid(unsafe_code)]

pub mod column;
pub mod correlate;
pub mod csv;
pub mod first_seen;
pub mod infer;
pub mod par;
pub mod profile;
pub mod stats;
pub mod table;
pub mod temporal;
pub mod value;

#[cfg(test)]
#[path = "../../../tests/support/csv_text.rs"]
mod csv_text;

pub use column::{Column, ColumnData, FullPositions, Positions};
pub use correlate::{
    correlation, trend, trend_of_series, Correlation, CorrelationModel, PreparedColumn, Trend,
};
pub use csv::{table_from_csv_path, table_from_csv_str, table_from_csv_str_delim, CsvError};
pub use first_seen::FirstSeen;
pub use infer::detect_and_parse;
pub use profile::{
    profile_column, quantile_sorted, CategoricalProfile, ColumnProfile, NumericProfile,
};
pub use table::{Table, TableBuilder, TableError};
pub use temporal::{parse_timestamp, parse_timestamp_loose, Civil, TimeUnit, Timestamp};
pub use value::{DataType, Value};
