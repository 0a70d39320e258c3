//! Keyword search over visualizations — the paper's stated future work
//! ("support keyword queries such that users specify their intent in a
//! natural way", §VIII, realized in the authors' follow-up DeepEye demos).
//!
//! A keyword query like `"delay by hour as line"` is matched against each
//! candidate node: tokens can hit column names, chart types, aggregates,
//! bin units, or intent words ("trend", "correlation", "proportion",
//! "distribution"). Matching rescales the base ranking instead of hard
//! filtering, so a vague query degrades gracefully to the default top-k.

use crate::node::{variant_key, VisNode};
use deepeye_data::TimeUnit;
use deepeye_query::{Aggregate, BinStrategy, ChartType, Transform};

/// A parsed keyword query.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct KeywordQuery {
    /// Lower-cased free tokens matched against column names.
    pub terms: Vec<String>,
    /// Explicit chart-type mentions.
    pub charts: Vec<ChartType>,
    /// Explicit aggregate mentions.
    pub aggregates: Vec<Aggregate>,
    /// Explicit bin-unit mentions ("hourly", "by month", …).
    pub units: Vec<TimeUnit>,
    /// Intent words that map to chart families.
    pub intents: Vec<Intent>,
}

/// High-level user intent recognized from keywords.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Intent {
    /// "trend", "over time", "growth" → line charts.
    Trend,
    /// "correlation", "relationship", "versus" → scatter charts.
    Correlation,
    /// "proportion", "share", "breakdown" → pie charts.
    Proportion,
    /// "compare", "ranking", "top" → bar charts.
    Comparison,
    /// "distribution", "histogram", "spread" → binned bar charts.
    Distribution,
}

impl Intent {
    fn chart(self) -> ChartType {
        match self {
            Intent::Trend => ChartType::Line,
            Intent::Correlation => ChartType::Scatter,
            Intent::Proportion => ChartType::Pie,
            Intent::Comparison | Intent::Distribution => ChartType::Bar,
        }
    }
}

fn intent_of(token: &str) -> Option<Intent> {
    match token {
        "trend" | "trends" | "time" | "growth" | "evolution" | "over" => Some(Intent::Trend),
        "correlation" | "correlated" | "relationship" | "versus" | "vs" => {
            Some(Intent::Correlation)
        }
        "proportion" | "share" | "breakdown" | "percentage" | "ratio" => Some(Intent::Proportion),
        "compare" | "comparison" | "ranking" | "top" | "best" | "worst" => Some(Intent::Comparison),
        "distribution" | "histogram" | "spread" | "frequency" => Some(Intent::Distribution),
        _ => None,
    }
}

fn unit_of(token: &str) -> Option<TimeUnit> {
    match token {
        "minute" | "minutely" => Some(TimeUnit::Minute),
        "hour" | "hourly" => Some(TimeUnit::Hour),
        "day" | "daily" => Some(TimeUnit::Day),
        "week" | "weekly" => Some(TimeUnit::Week),
        "month" | "monthly" => Some(TimeUnit::Month),
        "quarter" | "quarterly" => Some(TimeUnit::Quarter),
        "year" | "yearly" | "annual" => Some(TimeUnit::Year),
        _ => None,
    }
}

fn aggregate_of(token: &str) -> Option<Aggregate> {
    match token {
        "sum" | "total" => Some(Aggregate::Sum),
        "average" | "avg" | "mean" => Some(Aggregate::Avg),
        "count" | "cnt" | "number" => Some(Aggregate::Cnt),
        _ => None,
    }
}

const STOPWORDS: [&str; 12] = [
    "by", "of", "as", "a", "an", "the", "in", "per", "for", "with", "show", "chart",
];

impl KeywordQuery {
    /// Parse free text into a keyword query.
    pub fn parse(text: &str) -> Self {
        let mut q = KeywordQuery::default();
        for raw in text.split(|c: char| !c.is_alphanumeric()) {
            let token = raw.to_lowercase();
            if token.is_empty() || STOPWORDS.contains(&token.as_str()) {
                continue;
            }
            if let Some(chart) = ChartType::from_name(&token) {
                q.charts.push(chart);
            } else if let Some(unit) = unit_of(&token) {
                q.units.push(unit);
            } else if let Some(agg) = aggregate_of(&token) {
                q.aggregates.push(agg);
            } else if let Some(intent) = intent_of(&token) {
                q.intents.push(intent);
            } else {
                q.terms.push(token);
            }
        }
        q
    }

    /// Relevance of a node to this query, in [0, 1]. An empty query scores
    /// every node 1 (no-op rescaling).
    pub fn relevance(&self, node: &VisNode) -> f64 {
        let mut score = 0.0;
        let mut weight = 0.0;

        if !self.terms.is_empty() {
            weight += 2.0;
            let cols: Vec<String> = node.columns().iter().map(|c| c.to_lowercase()).collect();
            let hits = self
                .terms
                .iter()
                .filter(|t| cols.iter().any(|c| c.contains(t.as_str())))
                .count();
            score += 2.0 * hits as f64 / self.terms.len() as f64;
        }
        if !self.charts.is_empty() {
            weight += 1.0;
            if self.charts.contains(&node.chart_type()) {
                score += 1.0;
            }
        }
        if !self.intents.is_empty() {
            weight += 1.0;
            if self.intents.iter().any(|i| i.chart() == node.chart_type()) {
                score += 1.0;
            }
        }
        if !self.aggregates.is_empty() {
            weight += 0.5;
            if self.aggregates.contains(&node.query.aggregate) {
                score += 0.5;
            }
        }
        if !self.units.is_empty() {
            weight += 0.5;
            let unit_hit = matches!(
                &node.query.transform,
                Transform::Bin(BinStrategy::Unit(u)) if self.units.contains(u)
            );
            if unit_hit {
                score += 0.5;
            }
        }

        if weight == 0.0 {
            1.0
        } else {
            score / weight
        }
    }

    /// Re-rank a base ranking by keyword relevance: stable sort by
    /// descending relevance, so the base order breaks ties. Nodes with no
    /// keyword match sink below all partial matches but are not dropped.
    pub fn rerank(&self, nodes: &[VisNode], base_order: &[usize]) -> Vec<usize> {
        let mut order = base_order.to_vec();
        let rel: Vec<f64> = nodes.iter().map(|n| self.relevance(n)).collect();
        order.sort_by(|&a, &b| rel[b].total_cmp(&rel[a]));
        order
    }
}

/// Search a table: run the default pipeline, then keyword-rerank.
pub fn keyword_search(
    eye: &crate::deepeye::DeepEye,
    table: &deepeye_data::Table,
    text: &str,
    k: usize,
) -> Vec<crate::deepeye::Recommendation> {
    let query = KeywordQuery::parse(text);
    let nodes = eye.candidates(table);
    if nodes.is_empty() {
        return Vec::new();
    }
    let base = crate::ranking::rank_by_partial_order(&nodes);
    let order = query.rerank(&nodes, &base);
    let factors = crate::partial_order::compute_factors(&nodes);
    // One result per (chart, columns, transform, aggregate): order
    // variants of one chart would otherwise fill the page (same
    // deduplication as `DeepEye::rank_nodes`); single-mark charts are
    // never useful search hits.
    let mut seen = std::collections::HashSet::new();
    let mut nodes: Vec<Option<crate::node::VisNode>> = nodes.into_iter().map(Some).collect();
    let mut out = Vec::with_capacity(k.min(nodes.len()));
    for idx in order {
        let Some(node_ref) = nodes[idx].as_ref() else {
            debug_assert!(false, "ranking emitted index {idx} twice");
            continue;
        };
        if node_ref.data.series.len() < 2 || !seen.insert(variant_key(&node_ref.query)) {
            continue;
        }
        let Some(node) = nodes[idx].take() else {
            continue;
        };
        out.push(crate::deepeye::Recommendation {
            rank: out.len() + 1,
            node,
            factors: factors[idx],
        });
        if out.len() >= k {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deepeye::DeepEye;
    use deepeye_data::TableBuilder;

    fn table() -> deepeye_data::Table {
        TableBuilder::new("t")
            .text("carrier", ["UA", "AA", "UA", "MQ", "OO", "AA"])
            .numeric("delay", [5.0, 3.0, 1.0, 2.0, 9.0, 4.0])
            .numeric("passengers", [10.0, 30.0, 20.0, 25.0, 40.0, 35.0])
            .build()
            .unwrap()
    }

    #[test]
    fn parse_classifies_tokens() {
        let q = KeywordQuery::parse("average delay by hour as line trend");
        assert_eq!(q.aggregates, vec![Aggregate::Avg]);
        assert_eq!(q.units, vec![TimeUnit::Hour]);
        assert_eq!(q.charts, vec![ChartType::Line]);
        assert_eq!(q.intents, vec![Intent::Trend]);
        assert_eq!(q.terms, vec!["delay"]);
    }

    #[test]
    fn empty_query_is_noop() {
        let q = KeywordQuery::parse("");
        let eye = DeepEye::with_defaults();
        let nodes = eye.candidates(&table());
        for n in &nodes {
            assert_eq!(q.relevance(n), 1.0);
        }
        let base: Vec<usize> = (0..nodes.len()).collect();
        assert_eq!(q.rerank(&nodes, &base), base);
    }

    #[test]
    fn chart_keyword_boosts_matching_type() {
        let eye = DeepEye::with_defaults();
        let recs = keyword_search(&eye, &table(), "pie breakdown of passengers", 3);
        assert!(!recs.is_empty());
        assert_eq!(recs[0].node.chart_type(), ChartType::Pie);
        let cols = recs[0].node.columns();
        assert!(
            cols.contains(&"passengers"),
            "column term respected: {cols:?}"
        );
    }

    #[test]
    fn column_terms_direct_search() {
        let eye = DeepEye::with_defaults();
        let recs = keyword_search(&eye, &table(), "delay", 5);
        // Every top hit involves the delay column.
        assert!(recs.iter().all(|r| r.node.columns().contains(&"delay")));
    }

    #[test]
    fn intent_maps_to_chart_family() {
        assert_eq!(Intent::Trend.chart(), ChartType::Line);
        assert_eq!(Intent::Correlation.chart(), ChartType::Scatter);
        assert_eq!(Intent::Proportion.chart(), ChartType::Pie);
        let q = KeywordQuery::parse("correlation delay versus passengers");
        assert!(q.intents.contains(&Intent::Correlation));
    }

    #[test]
    fn stopwords_and_punctuation_ignored() {
        let q = KeywordQuery::parse("show the delay, by month!");
        assert_eq!(q.terms, vec!["delay"]);
        assert_eq!(q.units, vec![TimeUnit::Month]);
    }
}
