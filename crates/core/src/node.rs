//! Visualization nodes (Definition 1 of the paper): the unit the
//! recognizer classifies and the rankers order.

use crate::features::NodeFeatures;
use deepeye_data::{DataType, Table};
use deepeye_query::{execute_with, ChartData, ChartType, QueryError, UdfRegistry, VisQuery};

/// A visualization node: "the original data X, Y, the transformed data
/// X', Y', features F, and the visualization type T" (Def. 1). We carry
/// the query (which identifies X, Y and the transform), the executed chart
/// (X', Y'), and the extracted features.
#[derive(Debug, Clone, PartialEq)]
pub struct VisNode {
    pub query: VisQuery,
    pub data: ChartData,
    pub features: NodeFeatures,
}

impl VisNode {
    /// Execute `query` against `table` and extract features; `Err` when the
    /// query is invalid for the data (those candidates are simply not
    /// nodes).
    pub fn build(table: &Table, query: VisQuery, udfs: &UdfRegistry) -> Result<Self, QueryError> {
        let data = execute_with(table, &query, udfs)?;
        Ok(Self::from_chart(table, query, data))
    }

    /// The node of an already-executed `query`: extracts features from
    /// `data` against the source table (the shared-scan executor's
    /// counterpart of [`VisNode::build`]).
    pub fn from_chart(table: &Table, query: VisQuery, data: ChartData) -> Self {
        let source_x_type = table
            .column_by_name(&query.x)
            .map(|c| c.data_type())
            .unwrap_or(DataType::Categorical);
        let features = NodeFeatures::from_chart(&data, table.row_count(), source_x_type);
        VisNode {
            query,
            data,
            features,
        }
    }

    pub fn chart_type(&self) -> ChartType {
        self.query.chart
    }

    /// Column names this node visualizes (x, and y when present).
    pub fn columns(&self) -> Vec<&str> {
        let mut cols = vec![self.query.x.as_str()];
        if let Some(y) = &self.query.y {
            if y != &self.query.x {
                cols.push(y.as_str());
            }
        }
        cols
    }

    /// `|X'|`: cardinality of the transformed data.
    pub fn transformed_rows(&self) -> usize {
        self.features.transformed_rows()
    }

    /// `|X|`: cardinality of the original data.
    pub fn source_rows(&self) -> usize {
        self.features.source_rows
    }

    /// The 14-dimension ML feature vector.
    pub fn feature_vector(&self) -> Vec<f64> {
        self.features.to_vector()
    }

    /// Drop the materialized series, keeping the query and features.
    ///
    /// Recognition, the partial-order factors, and both rankers read only
    /// `features`, so experiments over very large candidate sets (e.g. the
    /// exhaustive enumeration of a 100k-row table) can slim nodes right
    /// after feature extraction to bound memory. A slimmed node can always
    /// be re-executed from its query.
    pub fn slim(&mut self) {
        self.data.series = deepeye_query::Series::Keyed(Vec::new());
    }

    /// Rough heap footprint of the materialized series and labels, for
    /// allocation attribution ([`deepeye_obs::Observer::alloc_many`] at
    /// the executor's arena points). An estimate — allocator slack and
    /// enum niche layout are not modeled — but deterministic, O(marks)
    /// cheap, and stable enough for stage-relative comparison.
    pub fn approx_heap_bytes(&self) -> u64 {
        let query_labels = self.query.x.len() + self.query.y.as_ref().map_or(0, String::len);
        self.data.approx_heap_bytes() + query_labels as u64
    }

    /// Stable identity string for deduplication, provenance records, and
    /// test assertions (shared with [`crate::provenance::query_id`] so
    /// never-built candidates live in the same id space).
    pub fn id(&self) -> String {
        crate::provenance::query_id(&self.query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepeye_data::TableBuilder;
    use deepeye_query::{Aggregate, SortOrder, Transform};

    fn table() -> Table {
        TableBuilder::new("t")
            .text("carrier", ["UA", "AA", "UA", "MQ"])
            .numeric("delay", [5.0, 3.0, -1.0, 2.0])
            .build()
            .unwrap()
    }

    fn group_avg() -> VisQuery {
        VisQuery {
            chart: ChartType::Bar,
            x: "carrier".into(),
            y: Some("delay".into()),
            transform: Transform::Group,
            aggregate: Aggregate::Avg,
            order: SortOrder::None,
        }
    }

    #[test]
    fn builds_node_with_features() {
        let node = VisNode::build(&table(), group_avg(), &UdfRegistry::default()).unwrap();
        assert_eq!(node.chart_type(), ChartType::Bar);
        assert_eq!(node.source_rows(), 4);
        assert_eq!(node.transformed_rows(), 3);
        assert_eq!(node.columns(), vec!["carrier", "delay"]);
        assert_eq!(node.feature_vector().len(), crate::features::FEATURE_DIM);
    }

    #[test]
    fn invalid_query_is_error() {
        let mut q = group_avg();
        q.x = "missing".into();
        assert!(VisNode::build(&table(), q, &UdfRegistry::default()).is_err());
    }

    #[test]
    fn one_column_node_columns() {
        let q = VisQuery {
            chart: ChartType::Pie,
            x: "carrier".into(),
            y: None,
            transform: Transform::Group,
            aggregate: Aggregate::Cnt,
            order: SortOrder::None,
        };
        let node = VisNode::build(&table(), q, &UdfRegistry::default()).unwrap();
        assert_eq!(node.columns(), vec!["carrier"]);
    }

    #[test]
    fn approx_heap_bytes_tracks_materialization() {
        let node = VisNode::build(&table(), group_avg(), &UdfRegistry::default()).unwrap();
        let full = node.approx_heap_bytes();
        assert!(full > 0, "materialized node has a footprint");
        let mut slimmed = node.clone();
        slimmed.slim();
        assert!(
            slimmed.approx_heap_bytes() < full,
            "slimming shrinks the estimate"
        );
    }

    #[test]
    fn id_is_discriminating() {
        let t = table();
        let a = VisNode::build(&t, group_avg(), &UdfRegistry::default()).unwrap();
        let mut q = group_avg();
        q.aggregate = Aggregate::Sum;
        let b = VisNode::build(&t, q, &UdfRegistry::default()).unwrap();
        assert_ne!(a.id(), b.id());
    }
}
