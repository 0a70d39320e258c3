//! # DeepEye
//!
//! A from-scratch Rust implementation of **DeepEye: Towards Automatic Data
//! Visualization** (Luo, Qin, Tang, Li — ICDE 2018): given a relational
//! table, automatically find the top-k visualizations that tell its
//! stories.
//!
//! DeepEye decomposes the problem into three questions:
//!
//! 1. **Recognition** — is a candidate visualization good or bad? Answered
//!    by a binary classifier (decision tree, with naive Bayes and linear
//!    SVM baselines) over a 14-dimension feature vector.
//! 2. **Ranking** — of two visualizations, which is better? Answered by a
//!    supervised LambdaMART learning-to-rank model *and* an expert partial
//!    order over three factors (chart/data match quality, transformation
//!    quality, column importance), optionally blended (HybridRank).
//! 3. **Selection** — which k charts to show? Answered by a dominance
//!    graph with weight-aware score propagation, or a progressive
//!    tournament that avoids materializing the search space.
//!
//! ## Quickstart
//!
//! ```
//! use deepeye::prelude::*;
//!
//! let table = table_from_csv_str(
//!     "sales",
//!     "region,revenue\nNorth,10\nSouth,20\nEast,15\nWest,30\nNorth,12\nSouth,22\n",
//! ).unwrap();
//!
//! let eye = DeepEye::with_defaults();
//! for rec in eye.recommend(&table, 3) {
//!     println!("#{}  {}", rec.rank, rec.node.data.ascii_sketch(6));
//! }
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`data`] | tables, type detection, temporal parsing, correlation |
//! | [`query`] | the visualization language, executor, search space |
//! | [`ml`] | decision tree, naive Bayes, SVM, LambdaMART, metrics |
//! | [`core`] | features, recognition, partial order, graph, rules, progressive selection |
//! | [`datagen`] | synthetic corpus, flight data, the perception oracle |
//! | [`obs`] | tracing spans, stage metrics, Chrome-trace / JSON exporters |

#![forbid(unsafe_code)]

pub use deepeye_core as core;
pub use deepeye_data as data;
pub use deepeye_datagen as datagen;
pub use deepeye_ml as ml;
pub use deepeye_obs as obs;
pub use deepeye_query as query;

/// The commonly needed names in one import.
pub mod prelude {
    pub use deepeye_core::{
        ClassifierKind, DeepEye, DeepEyeConfig, EnumerationMode, Explanation, HybridRanker,
        LabeledExample, LtrRanker, Provenance, ProvenanceCaps, ProvenanceLog, RankingMethod,
        Recognizer, Recommendation, VisNode,
    };
    pub use deepeye_data::{
        table_from_csv_path, table_from_csv_str, DataType, Table, TableBuilder,
    };
    pub use deepeye_obs::Observer;
    pub use deepeye_query::{
        execute, parse_query, Aggregate, BinStrategy, ChartType, SortOrder, Transform, VisQuery,
    };
}
