//! The partial order of §IV: the three ranking factors
//! **M** (matching quality between data and chart, Eqs. 1–5),
//! **Q** (quality of transformation, Eq. 6), and
//! **W** (importance of columns, Eqs. 7–8), plus dominance (Definition 2).

use crate::features::{line_trend, slice_entropy};
use crate::node::VisNode;
use deepeye_query::ChartType;
use deepeye_query::{Aggregate, Transform};
use std::collections::HashMap;

/// The factor triple of one node, after set-level normalization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Factors {
    /// Matching quality M(v), normalized per chart type (Eq. 5).
    pub m: f64,
    /// Transformation quality Q(v) = 1 − |X'|/|X| (Eq. 6).
    pub q: f64,
    /// Column importance W(v), normalized over all nodes (Eq. 8).
    pub w: f64,
}

impl Factors {
    /// Definition 2: `self ⪰ other` — at least as good on every factor.
    pub fn dominates(&self, other: &Factors) -> bool {
        self.m >= other.m && self.q >= other.q && self.w >= other.w
    }

    /// Strict dominance: dominates with at least one strict inequality.
    pub fn strictly_dominates(&self, other: &Factors) -> bool {
        self.dominates(other) && (self.m > other.m || self.q > other.q || self.w > other.w)
    }

    /// Edge weight of Eq. 9 for `self ⪰ other`.
    pub fn edge_weight(&self, other: &Factors) -> f64 {
        ((self.m - other.m) + (self.q - other.q) + (self.w - other.w)) / 3.0
    }
}

/// Raw (pre-normalization) matching quality M(v), Eqs. 1–4.
///
/// Pie (Eq. 1): zero when there is a single slice, a negative slice, or an
/// AVG aggregate (no part-to-whole reading); otherwise the slice-weight
/// entropy, discounted by `10/d(X)` beyond ten slices. We use *normalized*
/// entropy so the raw score stays in [0, 1]; Eq. 5's per-chart
/// normalization makes the scale choice immaterial to the final order.
///
/// Bar (Eq. 2): 1 for 2–20 bars, `20/d(X)` beyond, 0 for a single bar.
///
/// Scatter (Eq. 3): the correlation strength `|c(X, Y)|`.
///
/// Line (Eq. 4): `Trend(Y)` — 1 when the series follows a distribution.
///
/// The pie's entropy and the line's trend are read from the node's series
/// ([`slice_entropy`], [`line_trend`]), only for that chart type and
/// after the early returns. The node keeps the value, so later calls,
/// including those after [`VisNode::slim`], return it unchanged.
pub fn raw_match_quality(node: &VisNode) -> f64 {
    node.raw_m(|| match_quality(node))
}

/// Eqs. 1–4 for `node`, computed afresh.
fn match_quality(node: &VisNode) -> f64 {
    let d = node.features.x.distinct;
    match node.chart_type() {
        ChartType::Pie => {
            if d <= 1 || node.features.y.min < 0.0 || node.query.aggregate == Aggregate::Avg {
                return 0.0;
            }
            let entropy = slice_entropy(&node.data.series);
            if d <= 10 {
                entropy
            } else {
                entropy * 10.0 / d as f64
            }
        }
        ChartType::Bar => {
            if d <= 1 {
                0.0
            } else if d <= 20 {
                1.0
            } else {
                20.0 / d as f64
            }
        }
        ChartType::Scatter => node.features.correlation.abs(),
        ChartType::Line => {
            if line_trend(&node.data.series).follows_distribution {
                1.0
            } else {
                0.0
            }
        }
    }
}

/// Transformation quality Q(v) = 1 − |X'|/|X| (Eq. 6): the more a
/// transform condenses the data, the better. Raw (untransformed) charts
/// keep |X'| = |X| and thus score 0.
pub fn transform_quality(node: &VisNode) -> f64 {
    if node.query.transform == Transform::None {
        return 0.0;
    }
    condensation(node.transformed_rows(), node.source_rows())
}

/// Eq. 6's `1 − |X'|/|X|` for `marks` plotted from `rows` source rows
/// (0 for an empty source). The tournament bounds a GROUP leaf with this
/// same expression, so the bound equals the realized Q bit for bit.
pub(crate) fn condensation(marks: usize, rows: usize) -> f64 {
    if rows == 0 {
        return 0.0;
    }
    (1.0 - marks as f64 / rows as f64).clamp(0.0, 1.0)
}

/// Column importance W(X) for every column: the ratio of valid charts
/// containing the column to all valid charts (Eq. 7 text).
pub fn column_importance(nodes: &[VisNode]) -> HashMap<String, f64> {
    let total = nodes.len().max(1) as f64;
    let mut counts: HashMap<String, usize> = HashMap::new();
    for node in nodes {
        for col in node.columns() {
            *counts.entry(col.to_owned()).or_insert(0) += 1;
        }
    }
    counts
        .into_iter()
        .map(|(c, n)| (c, n as f64 / total))
        .collect()
}

/// One node's factor triple *with* the raw per-equation values that fed
/// the set-relative normalization — the provenance layer records these so
/// "why did M come out 0.8?" is answerable without rerunning Eqs. 1–8.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FactorBreakdown {
    /// Raw matching quality per Eqs. 1–4, before the per-chart max divide.
    pub raw_m: f64,
    /// Normalized M(v) (Eq. 5).
    pub m: f64,
    /// Q(v) = 1 − |X'|/|X| (Eq. 6) — raw and normalized coincide.
    pub q: f64,
    /// Raw column-importance sum (Eq. 7), before the global max divide.
    pub raw_w: f64,
    /// Normalized W(v) (Eq. 8).
    pub w: f64,
}

impl FactorBreakdown {
    /// The normalized triple, dropping the raw components.
    pub fn factors(&self) -> Factors {
        Factors {
            m: self.m,
            q: self.q,
            w: self.w,
        }
    }
}

/// Compute the normalized factor triples for a set of valid nodes.
///
/// Normalization is set-relative exactly as the paper specifies: M is
/// divided by the max M among nodes of the *same chart type* (Eq. 5) and W
/// by the max W over *all* nodes (Eq. 8). Q is already in [0, 1].
pub fn compute_factors(nodes: &[VisNode]) -> Vec<Factors> {
    compute_factor_breakdowns(nodes)
        .iter()
        .map(FactorBreakdown::factors)
        .collect()
}

/// Like [`compute_factors`] but keeps the raw per-equation values
/// alongside the normalized ones.
pub fn compute_factor_breakdowns(nodes: &[VisNode]) -> Vec<FactorBreakdown> {
    let importance = column_importance(nodes);

    let raw_m: Vec<f64> = nodes.iter().map(raw_match_quality).collect();
    let mut max_m_per_chart: HashMap<ChartType, f64> = HashMap::new();
    for (node, &m) in nodes.iter().zip(&raw_m) {
        let e = max_m_per_chart.entry(node.chart_type()).or_insert(0.0);
        if m > *e {
            *e = m;
        }
    }

    let raw_w: Vec<f64> = nodes
        .iter()
        .map(|n| {
            n.columns()
                .iter()
                .map(|c| importance.get(*c).copied().unwrap_or(0.0))
                .sum()
        })
        .collect();
    let max_w = raw_w.iter().copied().fold(0.0f64, f64::max);

    nodes
        .iter()
        .enumerate()
        .map(|(i, node)| {
            let max_m = max_m_per_chart
                .get(&node.chart_type())
                .copied()
                .unwrap_or(0.0);
            FactorBreakdown {
                raw_m: raw_m[i],
                m: if max_m > 0.0 { raw_m[i] / max_m } else { 0.0 },
                q: transform_quality(node),
                raw_w: raw_w[i],
                w: if max_w > 0.0 { raw_w[i] / max_w } else { 0.0 },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepeye_data::{Table, TableBuilder};
    use deepeye_query::{SortOrder, UdfRegistry, VisQuery};

    fn table() -> Table {
        TableBuilder::new("t")
            .text("carrier", ["UA", "AA", "UA", "MQ", "OO", "AA", "UA", "MQ"])
            .numeric("delay", [5.0, 3.0, -1.0, 2.0, -9.0, 4.0, 1.0, 7.0])
            .numeric(
                "passengers",
                [10.0, 30.0, 20.0, 25.0, 40.0, 35.0, 15.0, 22.0],
            )
            .build()
            .unwrap()
    }

    fn node(chart: ChartType, x: &str, y: &str, agg: Aggregate) -> VisNode {
        VisNode::build(
            &table(),
            VisQuery {
                chart,
                x: x.into(),
                y: Some(y.into()),
                transform: Transform::Group,
                aggregate: agg,
                order: SortOrder::None,
            },
            &UdfRegistry::default(),
        )
        .unwrap()
    }

    #[test]
    fn pie_with_avg_scores_zero() {
        // Eq. 1: AVG pies have no part-to-whole reading.
        let n = node(ChartType::Pie, "carrier", "passengers", Aggregate::Avg);
        assert_eq!(raw_match_quality(&n), 0.0);
    }

    #[test]
    fn pie_with_negative_values_scores_zero() {
        let n = node(ChartType::Pie, "carrier", "delay", Aggregate::Sum);
        assert!(n.features.y.min < 0.0);
        assert_eq!(raw_match_quality(&n), 0.0);
    }

    #[test]
    fn pie_with_sum_scores_entropy() {
        let n = node(ChartType::Pie, "carrier", "passengers", Aggregate::Sum);
        let m = raw_match_quality(&n);
        assert!(m > 0.5 && m <= 1.0, "m={m}");
    }

    /// Figure 12 ranks slimmed nodes. Eqs. 1 and 4 read the series, so
    /// slimming keeps raw M, and reading it leaves the node equal.
    #[test]
    fn slimmed_nodes_rank_as_before() {
        let t = TableBuilder::new("t")
            .text(
                "cat",
                (0..60).map(|i| ["a", "b", "b", "c", "c", "c"][i % 6]),
            )
            .numeric("x", (0..60).map(f64::from))
            .numeric("y", (0..60).map(|i| 2.0 * f64::from(i) + 1.0))
            .build()
            .unwrap();
        let udfs = UdfRegistry::default();
        let nodes: Vec<VisNode> = crate::rules::rule_based_queries(&t)
            .into_iter()
            .filter_map(|q| VisNode::build(&t, q, &udfs).ok())
            .collect();
        let unread = nodes[0].clone();
        let mut slimmed = nodes.clone();
        slimmed.iter_mut().for_each(VisNode::slim);
        let bits = |b: &FactorBreakdown| [b.raw_m, b.m, b.q, b.raw_w, b.w].map(f64::to_bits);
        let want = compute_factor_breakdowns(&nodes);
        let got = compute_factor_breakdowns(&slimmed);
        assert_eq!(
            got.iter().map(bits).collect::<Vec<_>>(),
            want.iter().map(bits).collect::<Vec<_>>()
        );
        let read = |chart: ChartType| {
            nodes
                .iter()
                .zip(&want)
                .filter(|(n, _)| n.chart_type() == chart)
                .map(|(_, b)| b.raw_m)
                .collect::<Vec<_>>()
        };
        assert!(read(ChartType::Line).contains(&1.0), "a line with a trend");
        assert!(
            read(ChartType::Pie).iter().any(|&m| m > 0.0 && m < 1.0),
            "an uneven pie"
        );
        assert_eq!(nodes[0], unread);
    }

    #[test]
    fn bar_cardinality_bands() {
        // 4 carriers → in the 2..=20 band.
        let n = node(ChartType::Bar, "carrier", "passengers", Aggregate::Avg);
        assert_eq!(raw_match_quality(&n), 1.0);
    }

    #[test]
    fn bar_many_categories_discounted() {
        let mut b = TableBuilder::new("wide");
        let cats: Vec<String> = (0..50).map(|i| format!("c{i}")).collect();
        b = b.text("cat", cats.iter().map(String::as_str));
        b = b.numeric("v", (0..50).map(f64::from));
        let t = b.build().unwrap();
        let n = VisNode::build(
            &t,
            VisQuery {
                chart: ChartType::Bar,
                x: "cat".into(),
                y: Some("v".into()),
                transform: Transform::Group,
                aggregate: Aggregate::Avg,
                order: SortOrder::None,
            },
            &UdfRegistry::default(),
        )
        .unwrap();
        assert!((raw_match_quality(&n) - 20.0 / 50.0).abs() < 1e-12);
    }

    #[test]
    fn transform_quality_eq6() {
        // 8 rows → 4 carrier groups (UA, AA, MQ, OO): Q = 1 − 4/8.
        let n = node(ChartType::Bar, "carrier", "passengers", Aggregate::Avg);
        assert!((transform_quality(&n) - (1.0 - 4.0 / 8.0)).abs() < 1e-12);
    }

    #[test]
    fn raw_chart_has_zero_q() {
        let t = table();
        let n = VisNode::build(
            &t,
            VisQuery {
                chart: ChartType::Scatter,
                x: "delay".into(),
                y: Some("passengers".into()),
                transform: Transform::None,
                aggregate: Aggregate::Raw,
                order: SortOrder::None,
            },
            &UdfRegistry::default(),
        )
        .unwrap();
        assert_eq!(transform_quality(&n), 0.0);
    }

    #[test]
    fn column_importance_ratios() {
        let nodes = vec![
            node(ChartType::Bar, "carrier", "passengers", Aggregate::Avg),
            node(ChartType::Bar, "carrier", "delay", Aggregate::Avg),
            node(ChartType::Pie, "carrier", "passengers", Aggregate::Sum),
        ];
        let w = column_importance(&nodes);
        assert!((w["carrier"] - 1.0).abs() < 1e-12); // in all 3
        assert!((w["passengers"] - 2.0 / 3.0).abs() < 1e-12);
        assert!((w["delay"] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn factors_are_normalized() {
        let nodes = vec![
            node(ChartType::Bar, "carrier", "passengers", Aggregate::Avg),
            node(ChartType::Bar, "carrier", "delay", Aggregate::Sum),
            node(ChartType::Pie, "carrier", "passengers", Aggregate::Sum),
        ];
        let factors = compute_factors(&nodes);
        assert_eq!(factors.len(), 3);
        for f in &factors {
            assert!((0.0..=1.0).contains(&f.m), "m={}", f.m);
            assert!((0.0..=1.0).contains(&f.q));
            assert!((0.0..=1.0).contains(&f.w));
        }
        // The best bar and the best pie both normalize to M = 1 (Eq. 5).
        let best_bar = factors[0].m.max(factors[1].m);
        assert!((best_bar - 1.0).abs() < 1e-12);
        assert!((factors[2].m - 1.0).abs() < 1e-12);
        // Some node attains W = 1 (Eq. 8).
        assert!(factors.iter().any(|f| (f.w - 1.0).abs() < 1e-12));
    }

    #[test]
    fn dominance_definition_2() {
        let a = Factors {
            m: 0.9,
            q: 0.8,
            w: 0.7,
        };
        let b = Factors {
            m: 0.5,
            q: 0.8,
            w: 0.6,
        };
        let c = Factors {
            m: 1.0,
            q: 0.1,
            w: 0.9,
        };
        assert!(a.strictly_dominates(&b));
        assert!(!b.dominates(&a));
        // a and c are incomparable.
        assert!(!a.dominates(&c) && !c.dominates(&a));
        // Reflexive for ⪰, not for ≻.
        assert!(a.dominates(&a));
        assert!(!a.strictly_dominates(&a));
    }

    #[test]
    fn edge_weight_eq9() {
        let a = Factors {
            m: 1.0,
            q: 0.9,
            w: 0.8,
        };
        let b = Factors {
            m: 0.4,
            q: 0.6,
            w: 0.2,
        };
        let expected = ((1.0 - 0.4) + (0.9 - 0.6) + (0.8 - 0.2)) / 3.0;
        assert!((a.edge_weight(&b) - expected).abs() < 1e-12);
    }

    #[test]
    fn dominance_is_transitive() {
        let a = Factors {
            m: 0.9,
            q: 0.9,
            w: 0.9,
        };
        let b = Factors {
            m: 0.5,
            q: 0.5,
            w: 0.5,
        };
        let c = Factors {
            m: 0.1,
            q: 0.2,
            w: 0.3,
        };
        assert!(a.strictly_dominates(&b));
        assert!(b.strictly_dominates(&c));
        assert!(a.strictly_dominates(&c));
    }
}
