//! Visualization nodes (Definition 1 of the paper): the unit the
//! recognizer classifies and the rankers order.

use crate::features::{scale_type, ColumnFeatures, NodeFeatures};
use deepeye_data::{DataType, Table};
use deepeye_query::{
    execute_with, Aggregate, ChartData, ChartType, Key, QueryError, Series, SortOrder, Transform,
    UdfRegistry, VisQuery,
};
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
/// A raw chart that keeps every row takes its features from its two
/// columns ([`raw_features`]). Apart from the chart type, §III's features
/// are a function of the source x type and the plotted series
/// (`source_rows` is the table's), so any other chart that repeats an
/// earlier (x type, series) copies that node's features with its own
/// chart type instead of extracting them again. A repeat is found by
/// [`plotted_hash`] and confirmed by [`same_series`]. Each hash keeps only
/// its first series, so a collision costs one comparison and an
/// extraction, however many series share the hash. Nothing else is
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
    let mut nodes: Vec<VisNode> = Vec::new();
    let mut firsts: HashMap<u64, usize> = HashMap::new();
    for (query, data) in executed {
        let x_type = source_x_type(table, &query);
        if let Some(features) = raw_features(table, &query, &data, x_type) {
            nodes.push(VisNode::new(query, data, features));
            continue;
        }
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
            None => NodeFeatures::from_chart(&data, rows, x_type),
        };
        nodes.push(VisNode::new(query, data, features));
    }
    nodes
}

/// The features of a raw point chart that keeps every row, from its two
/// columns' cached [`deepeye_data::Positions`]; `None` for any other
/// chart. Such a chart plots x's and y's positions in row order or, when
/// sorted by x, in x's order, so its distinct counts are the columns' and
/// feature (6) pairs prepared columns: x's ordered positions meet y
/// gathered in that order. Min and max fold exactly the plotted sequence,
/// since folding another order can flip the sign of a zero.
fn raw_features(
    table: &Table,
    query: &VisQuery,
    chart: &ChartData,
    x_type: DataType,
) -> Option<NodeFeatures> {
    let raw = matches!(query.transform, Transform::None) && query.aggregate == Aggregate::Raw;
    let rows = table.row_count();
    if !raw || query.order == SortOrder::ByY || chart.series.len() != rows {
        return None;
    }
    let x = table.column_by_name(&query.x)?.positions()?;
    let y = table.column_by_name(query.y.as_deref()?)?.positions()?;
    let (xf, yf) = (x.full.as_ref()?, y.full.as_ref()?);
    let gathered;
    let (xs, ys) = match query.order {
        SortOrder::ByX => {
            gathered = yf.rows.gathered(&x.order);
            (&xf.ordered, &gathered)
        }
        _ => (&xf.rows, &yf.rows),
    };
    Some(NodeFeatures {
        x: ColumnFeatures::counted(xs.values(), xf.distinct, scale_type(x_type)),
        y: ColumnFeatures::counted(ys.values(), yf.distinct, DataType::Numerical),
        correlation: xs.correlation(ys).coefficient,
        chart: chart.chart,
        source_rows: rows,
        source_x_type: x_type,
    })
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
    use deepeye_data::{ColumnData, TableBuilder, Timestamp};

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

    /// Raw point charts take their features from their columns' cached
    /// positions, yet every node's features equal `VisNode::build`'s bit
    /// for bit, and every raw point chart is its rows' points in a stable
    /// sort by its ORDER BY. The tables hold nulls in both columns of a
    /// pair or in y alone (the fast path must not apply), infinite cells
    /// (the kernel's filter drops them), temporal x with repeated dates,
    /// `0.0` beside `-0.0` (a fold over another order flips the sign of
    /// a zero min), tied x values, and timestamps one second apart beyond
    /// 2^53 s in descending order, whose positions collide.
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
        let seconds = |secs: &[i64]| {
            ColumnData::Temporal(
                secs.iter()
                    .map(|&s| Some(Timestamp::from_unix_seconds(s)))
                    .collect(),
            )
        };
        let day = |d: i64| 1_420_070_400 + 86_400 * d;
        let beyond: Vec<i64> = (0..8).rev().map(|i| (1 << 53) + i).collect();
        let tables = [
            ("plain", plain(&a), plain(&b)),
            ("nulls", with(&a, 1, None), with(&b, 3, None)),
            ("y nulls", plain(&a), with(&b, 3, None)),
            (
                "infinite",
                with(&a, 2, Some(f64::INFINITY)),
                with(&b, 5, Some(f64::NEG_INFINITY)),
            ),
            (
                "dates",
                seconds(&[3, 1, 3, 0, 1, 2, 0, 3].map(day)),
                plain(&b),
            ),
            (
                "zeros",
                plain(&[0.0, -0.0, 1.0, -0.0, 0.0, 2.0, -0.0, 0.0]),
                plain(&[-0.0, 0.0, 3.0, 0.0, -0.0, 1.0, 0.0, -0.0]),
            ),
            (
                "ties",
                plain(&[3.0, 1.0, 3.0, 2.0, 1.0, 3.0, 2.0, 1.0]),
                plain(&b),
            ),
            ("beyond 2^53 s", seconds(&beyond), plain(&c)),
        ];
        let udfs = UdfRegistry::default();
        let mut fast = 0;
        for (name, a, b) in tables {
            let t = TableBuilder::new(name)
                .data("a", a)
                .data("b", b)
                .numeric("c", c)
                .text("k", ["p", "q", "p", "r", "q", "p", "r", "q"])
                .build()
                .unwrap();
            let mut queries = crate::rules::rule_based_queries(&t);
            for x in ["a", "b", "c", "k"] {
                for y in ["a", "b", "c"] {
                    for order in SortOrder::ALL {
                        queries.push(VisQuery {
                            chart: ChartType::Scatter,
                            x: x.into(),
                            y: Some(y.into()),
                            transform: Transform::None,
                            aggregate: Aggregate::Raw,
                            order,
                        });
                    }
                }
            }
            let executed: Vec<(VisQuery, ChartData)> = queries
                .iter()
                .filter_map(|q| Some((q.clone(), execute_with(&t, q, &udfs).ok()?)))
                .collect();
            let got = nodes_from_charts(&t, executed);
            for node in &got {
                let q = &node.query;
                let want = VisNode::build(&t, q.clone(), &udfs).unwrap();
                let bits = |n: &VisNode| {
                    n.feature_vector()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<_>>()
                };
                assert_eq!(bits(node), bits(&want), "{name}: {q:?}");
                let x_type = source_x_type(&t, q);
                let full = |c: &str| t.column_by_name(c).is_some_and(|c| c.null_count() == 0);
                let expected = q.aggregate == Aggregate::Raw
                    && q.order != SortOrder::ByY
                    && x_type != DataType::Categorical
                    && full(&q.x)
                    && q.y.as_deref().is_some_and(full);
                let taken = raw_features(&t, q, &node.data, x_type).is_some();
                assert_eq!(taken, expected, "{name}: {q:?}");
                fast += usize::from(taken);
                if let Series::Points(points) = &node.data.series {
                    let unsorted = VisQuery {
                        order: SortOrder::None,
                        ..q.clone()
                    };
                    let Series::Points(mut sorted) =
                        execute_with(&t, &unsorted, &udfs).unwrap().series
                    else {
                        panic!("{name}: {q:?} plots points unsorted only")
                    };
                    match q.order {
                        SortOrder::None => {}
                        SortOrder::ByX => sorted.sort_by(|p, q| p.0.total_cmp(&q.0)),
                        SortOrder::ByY => sorted.sort_by(|p, q| q.1.total_cmp(&p.1)),
                    }
                    let bits = |pts: &[(f64, f64)]| {
                        pts.iter()
                            .map(|(x, y)| (x.to_bits(), y.to_bits()))
                            .collect::<Vec<_>>()
                    };
                    assert_eq!(bits(points), bits(&sorted), "{name}: {q:?}");
                }
            }
        }
        assert!(fast > 100, "{fast} raw charts took their columns' features");
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
