//! Visualization nodes (Definition 1 of the paper): the unit the
//! recognizer classifies and the rankers order.

use crate::features::NodeFeatures;
use deepeye_data::{ColumnData, DataType, PreparedColumn, Table};
use deepeye_query::{
    execute_with, Aggregate, ChartData, ChartType, Key, QueryError, Series, SortOrder, Transform,
    UdfRegistry, VisQuery,
};
use std::cell::OnceCell;
use std::collections::hash_map::{Entry, HashMap};
use std::sync::OnceLock;

/// A visualization node: "the original data X, Y, the transformed data
/// X', Y', features F, and the visualization type T" (Def. 1). We carry
/// the query (which identifies X, Y and the transform), the executed chart
/// (X', Y'), and the extracted features.
#[derive(Debug, Clone)]
pub struct VisNode {
    pub query: VisQuery,
    pub data: ChartData,
    pub features: NodeFeatures,
    /// Raw M (Eqs. 1–4), kept from its first computation so that a
    /// slimmed node still ranks as it did with its series.
    raw_m: OnceLock<f64>,
}

/// Equality of query, chart and features; whether raw M has been read
/// yet does not count.
impl PartialEq for VisNode {
    fn eq(&self, other: &Self) -> bool {
        self.query == other.query && self.data == other.data && self.features == other.features
    }
}

impl VisNode {
    /// Execute `query` against `table` and extract features; `Err` when the
    /// query is invalid for the data (those candidates are simply not
    /// nodes).
    pub fn build(table: &Table, query: VisQuery, udfs: &UdfRegistry) -> Result<Self, QueryError> {
        let data = execute_with(table, &query, udfs)?;
        let features =
            NodeFeatures::from_chart(&data, table.row_count(), source_x_type(table, &query));
        Ok(Self::new(query, data, features))
    }

    /// The node of an executed `query` whose features are already known.
    pub(crate) fn new(query: VisQuery, data: ChartData, features: NodeFeatures) -> Self {
        VisNode {
            query,
            data,
            features,
            raw_m: OnceLock::new(),
        }
    }

    /// This node's raw M: `eqs_1_to_4` on the first call, the kept value
    /// after (the cell behind [`crate::partial_order::raw_match_quality`]).
    pub(crate) fn raw_m(&self, eqs_1_to_4: impl FnOnce() -> f64) -> f64 {
        *self.raw_m.get_or_init(eqs_1_to_4)
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

    /// Drop the materialized series, keeping the query, the features and
    /// raw M.
    ///
    /// Recognition and both rankers read only `features`, and M's two
    /// series statistics (Eqs. 1 and 4) are computed here before the
    /// series goes, so experiments over very large candidate sets (e.g.
    /// the exhaustive enumeration of a 100k-row table) can slim nodes
    /// right after feature extraction to bound memory. A slimmed node can
    /// always be re-executed from its query.
    pub fn slim(&mut self) {
        crate::partial_order::raw_match_quality(self);
        self.data.series = Series::Keyed(Vec::new());
    }

    /// Stable identity string for deduplication, provenance records, and
    /// test assertions (shared with [`crate::provenance::query_id`] so
    /// never-built candidates live in the same id space).
    pub fn id(&self) -> String {
        crate::provenance::query_id(&self.query)
    }
}

/// A chart's identity up to ORDER BY, by value: its chart type, x, y,
/// transform and aggregate. ORDER BY variants of one chart have identical
/// factors, so candidate lists and rankings keep one chart per key.
pub(crate) fn variant_key(query: &VisQuery) -> VisQuery {
    VisQuery {
        order: SortOrder::None,
        ..query.clone()
    }
}

/// The original type of `query`'s x column (categorical when it is
/// missing).
fn source_x_type(table: &Table, query: &VisQuery) -> DataType {
    table
        .column_by_name(&query.x)
        .map(|c| c.data_type())
        .unwrap_or(DataType::Categorical)
}

/// The nodes of executed `(query, chart)` pairs, in order.
///
/// Apart from the chart type, §III's features are a function of the
/// source x type and the plotted series (`source_rows` is the table's),
/// so a repeat of an earlier (x type, series) copies that node's features
/// with its own chart type instead of extracting them again. A repeat is
/// found by [`plotted_hash`] and confirmed by [`same_series`]. Each hash
/// keeps only its first series, so a collision costs one comparison and
/// an extraction, however many series share the hash. Nothing else is
/// shared: each node computes its own raw M.
pub(crate) fn nodes_from_charts(
    table: &Table,
    executed: impl IntoIterator<Item = (VisQuery, ChartData)>,
) -> Vec<VisNode> {
    nodes_sharing_features(table, executed, plotted_hash)
}

/// [`nodes_from_charts`] with the hash that finds repeat candidates as a
/// parameter, so a test can make every series collide.
fn nodes_sharing_features(
    table: &Table,
    executed: impl IntoIterator<Item = (VisQuery, ChartData)>,
    hash: impl Fn(DataType, &Series) -> u64,
) -> Vec<VisNode> {
    let rows = table.row_count();
    let columns = table.columns();
    // The columns of unsorted raw numeric charts, prepared for correlation
    // on first use; `None` for a column with a null.
    let prepared: Vec<OnceCell<Option<PreparedColumn>>> =
        columns.iter().map(|_| OnceCell::new()).collect();
    let prepare = |i: usize| {
        prepared[i]
            .get_or_init(|| match columns[i].data() {
                ColumnData::Numeric(cells) if cells.iter().all(Option::is_some) => {
                    Some(PreparedColumn::new(columns[i].numbers()))
                }
                _ => None,
            })
            .as_ref()
    };
    let mut nodes: Vec<VisNode> = Vec::new();
    let mut firsts: HashMap<u64, usize> = HashMap::new();
    for (query, data) in executed {
        let x_type = source_x_type(table, &query);
        let first = match firsts.entry(hash(x_type, &data.series)) {
            Entry::Occupied(first) => Some(&nodes[*first.get()]),
            Entry::Vacant(slot) => {
                slot.insert(nodes.len());
                None
            }
        };
        let features = match first.filter(|n| {
            n.features.source_x_type == x_type && same_series(&n.data.series, &data.series)
        }) {
            Some(repeated) => NodeFeatures {
                chart: data.chart,
                ..repeated.features.clone()
            },
            None => {
                let correlation = unsorted_raw_pair(table, &query)
                    .and_then(|(x, y)| Some(prepare(x)?.correlation(prepare(y)?).coefficient));
                NodeFeatures::with_correlation(&data, rows, x_type, correlation)
            }
        };
        nodes.push(VisNode::new(query, data, features));
    }
    nodes
}

/// The column indices of an unsorted raw chart. When both columns are
/// numeric without a null, its plotted series is exactly their numbers in
/// row order, so feature (6) is the prepared columns' correlation.
fn unsorted_raw_pair(table: &Table, query: &VisQuery) -> Option<(usize, usize)> {
    let raw = matches!(query.transform, Transform::None)
        && query.aggregate == Aggregate::Raw
        && query.order == SortOrder::None;
    if !raw {
        return None;
    }
    Some((
        table.column_index(&query.x)?,
        table.column_index(query.y.as_deref()?)?,
    ))
}

/// A hash of the source x type and every bit of the plotted series, to
/// find repeats: equal pairs hash equally. It mixes each 64-bit word by
/// a rotate, xor and multiply (the FxHash step), one word per value.
fn plotted_hash(x_type: DataType, series: &Series) -> u64 {
    let mix = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    let mut h = mix(0, x_type as u64);
    match series {
        Series::Keyed(pairs) => {
            h = mix(mix(h, 0), pairs.len() as u64);
            for (key, y) in pairs {
                h = match key {
                    Key::Text(s) => s.as_bytes().chunks(8).fold(mix(h, 1), |h, chunk| {
                        let mut word = [0u8; 8];
                        word[..chunk.len()].copy_from_slice(chunk);
                        mix(h, u64::from_le_bytes(word))
                    }),
                    Key::Number(x) => mix(mix(h, 2), x.to_bits()),
                    Key::Interval { lo, hi } => mix(mix(mix(h, 3), lo.to_bits()), hi.to_bits()),
                    Key::Time(t) => mix(mix(h, 4), t.unix_seconds() as u64),
                    Key::Period { unit, index } => mix(mix(mix(h, 5), *unit as u64), *index as u64),
                };
                h = mix(h, y.to_bits());
            }
        }
        Series::Points(points) => {
            h = mix(mix(h, 1), points.len() as u64);
            for (x, y) in points {
                h = mix(mix(h, x.to_bits()), y.to_bits());
            }
        }
    }
    h
}

/// Whether two plotted series are the same, bit for bit: the same
/// variant and length, and pair by pair the same key variant, key payload
/// and y-value, each `f64` compared by [`f64::to_bits`]. Under `==`,
/// `0.0` would equal `-0.0`, yet `distinct` counts bits, so the two
/// series have different features; and a NaN would not equal itself.
pub(crate) fn same_series(a: &Series, b: &Series) -> bool {
    let same = |a: f64, b: f64| a.to_bits() == b.to_bits();
    match (a, b) {
        (Series::Keyed(a), Series::Keyed(b)) => {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|((ka, ya), (kb, yb))| same(*ya, *yb) && ka.same(kb))
        }
        (Series::Points(a), Series::Points(b)) => {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|((xa, ya), (xb, yb))| same(*xa, *xb) && same(*ya, *yb))
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepeye_data::TableBuilder;

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

    /// A hash hit is only a candidate repeat: when every series collides,
    /// each must still get the features of its own series.
    #[test]
    fn colliding_series_keep_their_own_features() {
        let t = table();
        let udfs = UdfRegistry::default();
        let queries = crate::rules::rule_based_queries(&t);
        let executed: Vec<(VisQuery, ChartData)> = queries
            .iter()
            .filter_map(|q| Some((q.clone(), execute_with(&t, q, &udfs).ok()?)))
            .collect();
        assert!(executed.len() > 2);
        let got = nodes_sharing_features(&t, executed, |_, _| 0);
        for node in &got {
            let want = VisNode::build(&t, node.query.clone(), &udfs).unwrap();
            let bits = |n: &VisNode| {
                n.feature_vector()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>()
            };
            assert_eq!(bits(node), bits(&want), "{:?}", node.query);
        }
    }

    /// Feature (6) of an unsorted raw numeric chart comes from prepared
    /// columns, yet every node's features equal `VisNode::build`'s bit for
    /// bit: with nulls (the columns' numbers would pair across rows), with
    /// infinite cells (the kernel's filter drops them) and with neither.
    #[test]
    fn prepared_correlations_equal_built_nodes() {
        let a = [1.0, 2.5, 3.0, 4.5, 5.0, 7.5, 6.0, 9.0];
        let b = [2.0, -1.0, 6.5, 8.0, 9.5, 14.0, 11.0, 20.0];
        let c = [0.5, 0.25, 4.0, 2.0, 8.0, 1.0, 16.0, 3.0];
        let with = |values: &[f64], at: usize, cell: Option<f64>| {
            let mut cells: Vec<Option<f64>> = values.iter().copied().map(Some).collect();
            cells[at] = cell;
            ColumnData::Numeric(cells)
        };
        let plain = |values: &[f64]| with(values, 0, Some(values[0]));
        let tables = [
            ("plain", plain(&a), plain(&b)),
            ("nulls", with(&a, 1, None), with(&b, 3, None)),
            (
                "infinite",
                with(&a, 2, Some(f64::INFINITY)),
                with(&b, 5, Some(f64::NEG_INFINITY)),
            ),
        ];
        let udfs = UdfRegistry::default();
        for (name, a, b) in tables {
            let t = TableBuilder::new(name)
                .data("a", a)
                .data("b", b)
                .numeric("c", c)
                .text("k", ["p", "q", "p", "r", "q", "p", "r", "q"])
                .build()
                .unwrap();
            let mut queries = crate::rules::rule_based_queries(&t);
            for x in ["a", "b", "c"] {
                for y in ["a", "b", "c"] {
                    queries.push(VisQuery {
                        chart: ChartType::Scatter,
                        x: x.into(),
                        y: Some(y.into()),
                        transform: Transform::None,
                        aggregate: Aggregate::Raw,
                        order: SortOrder::None,
                    });
                }
            }
            let executed: Vec<(VisQuery, ChartData)> = queries
                .iter()
                .filter_map(|q| Some((q.clone(), execute_with(&t, q, &udfs).ok()?)))
                .collect();
            let got = nodes_from_charts(&t, executed);
            assert!(got
                .iter()
                .any(|n| unsorted_raw_pair(&t, &n.query).is_some()));
            for node in &got {
                let want = VisNode::build(&t, node.query.clone(), &udfs).unwrap();
                let bits = |n: &VisNode| {
                    n.feature_vector()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<_>>()
                };
                assert_eq!(bits(node), bits(&want), "{name}: {:?}", node.query);
            }
        }
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
