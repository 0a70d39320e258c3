//! # deepeye-core
//!
//! The core of DeepEye (Luo, Qin, Tang, Li — *DeepEye: Towards Automatic
//! Data Visualization*, ICDE 2018): given a relational table, decide which
//! candidate visualizations are good (*recognition*), which of two is
//! better (*ranking*), and which k to show (*selection*).
//!
//! The pieces, following the paper's structure:
//!
//! - [`features`] — the 14-dimension feature vector of §III;
//! - [`node`] — visualization nodes (Definition 1);
//! - [`recognition`] — the binary classifier (decision tree / Bayes / SVM);
//! - [`partial_order`] — the factors **M**, **Q**, **W** (Eqs. 1–8) and
//!   dominance (Definition 2);
//! - [`graph`] — Algorithm 1's scores: the O(n)-memory scorer the
//!   rankers use, and the dominance graph with the quick-sort partition
//!   pruning of §IV-C as its reference;
//! - [`ranking`] — partial-order, learning-to-rank, and HybridRank (§IV-D);
//! - [`rules`] — the transformation / sorting / visualization rules of §V-A;
//! - [`progressive`] — the tournament-based progressive top-k of §V-B;
//! - [`deepeye`] — the assembled online pipeline of Figure 4.
//!
//! ```
//! use deepeye_core::DeepEye;
//! use deepeye_data::table_from_csv_str;
//!
//! let table = table_from_csv_str(
//!     "sales",
//!     "region,revenue\nN,10\nS,20\nE,15\nW,30\nN,12\nS,22\n",
//! ).unwrap();
//! let recommendations = DeepEye::with_defaults().recommend(&table, 3);
//! assert!(!recommendations.is_empty());
//! println!("{}", recommendations[0].node.data); // ASCII sketch
//! ```

#![forbid(unsafe_code)]

pub mod deepeye;
pub mod deviation;
pub mod features;
pub mod graph;
pub mod keyword;
pub mod multi_select;
pub mod node;
pub mod parallel;
pub mod partial_order;
pub mod progressive;
pub mod provenance;
pub mod ranking;
pub mod recognition;
pub mod render;
pub mod rules;
pub mod similarity;
pub mod svg;

pub use deepeye::{DeepEye, DeepEyeConfig, EnumerationMode, RankingMethod, Recommendation};
pub use deviation::{
    deviation_between, deviation_from_uniform, rank_by_deviation, DeviationMetric,
};
pub use features::{pair_feature_vector, ColumnFeatures, NodeFeatures, FEATURE_DIM, FEATURE_NAMES};
pub use graph::{partial_order_log_scores, DominanceGraph, STREAMING_THRESHOLD};
pub use keyword::{keyword_search, Intent, KeywordQuery};
pub use multi_select::{
    multi_y_candidates, recommend_multi, recommend_multi_y, xyz_candidates, MultiRecommendation,
    MultiYRecommendation, AXIS_COMPAT_THRESHOLD, MAX_SERIES,
};
pub use node::VisNode;
pub use parallel::{build_nodes, build_nodes_parallel, build_nodes_serial_observed};
pub use partial_order::{compute_factor_breakdowns, compute_factors, FactorBreakdown, Factors};
pub use progressive::{
    canonical_candidates, exhaustive_top_k, exhaustive_top_k_parallel, ProgressiveSelector,
    ScoredNode, SelectionStats,
};
pub use provenance::{
    query_id, validate_provenance_json, ClassifierEvidence, Explanation, Outcome, Provenance,
    ProvenanceCaps, ProvenanceCounts, ProvenanceLog, ProvenanceSummary,
};
pub use ranking::{rank_by_partial_order, HybridRanker, LtrRanker, RankingExample};
pub use recognition::{ClassifierKind, LabeledExample, Recognizer};
pub use render::vega_lite_spec;
pub use similarity::{find_similar_to_chart, find_similar_to_shape, shape_distance, SimilarityHit};
pub use svg::{render_multi_svg, render_svg, SvgOptions};
