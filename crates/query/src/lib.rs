//! # deepeye-query
//!
//! The DeepEye visualization language (§II-B of the paper) and its
//! executor: query AST, textual parser, binning/grouping/aggregation
//! engine, static semantic analysis, and lazy enumeration of the full
//! search space (`528·m(m−1)` two-column plus `264·m` one-column
//! candidates).
//!
//! Queries are statically checked before execution by the [`sema`]
//! module: [`sema::analyze`] returns structured diagnostics with stable
//! codes (`E0001`–`E0013` for conditions the executor rejects,
//! `W0101`–`W0108` for executable-but-meaningless queries per §V-A of
//! the paper). See the [`sema`] module docs for the full error-code
//! reference table.
//!
//! ```
//! use deepeye_query::{parse_query, execute};
//! use deepeye_data::table_from_csv_str;
//!
//! let table = table_from_csv_str(
//!     "flights",
//!     "carrier,delay\nUA,4\nAA,10\nUA,-2\n",
//! ).unwrap();
//! let parsed = parse_query(
//!     "VISUALIZE bar\nSELECT carrier, AVG(delay)\nFROM flights\nGROUP BY carrier",
//! ).unwrap();
//! let chart = execute(&table, &parsed.query).unwrap();
//! assert_eq!(chart.series.len(), 2); // UA, AA
//! ```

#![forbid(unsafe_code)]

pub mod ast;
pub mod batch;
pub mod bins;
pub mod chart;
pub mod enumerate;
pub mod exec;
pub mod multi;
pub mod parser;
pub mod sema;

pub use ast::{Aggregate, BinStrategy, ChartType, SortOrder, Transform, VisQuery, DEFAULT_BUCKETS};
pub use batch::execute_batch;
pub use bins::{BinError, Key, UdfRegistry};
pub use chart::{ChartData, Series};
pub use enumerate::{
    all_queries, one_column_queries, one_column_space_size, queries_with_verdict,
    two_column_queries, two_column_space_size, valid_queries,
};
pub use exec::{execute, execute_with, QueryError};
pub use multi::{
    analyze_multi_y, analyze_xyz, execute_multi_y, execute_xyz, MultiSeriesChart, MultiYQuery,
    XyzQuery,
};
pub use parser::{parse_query, ClauseSpans, ParseError, ParsedQuery, Span};
pub use sema::{analyze, check_executable, Clause, Code, Diagnostic, Severity};
