//! The visualization language of §II-B (Figure 2).
//!
//! A query has three mandatory clauses (`VISUALIZE`, `SELECT`, `FROM`) and
//! two optional ones (`TRANSFORM` — grouping or binning — and `ORDER BY`).
//! Executing a query over a table produces a chart.

use deepeye_data::TimeUnit;
use std::fmt;

/// The four chart types DeepEye studies (§II-A): per the survey it cites,
/// bar, line, and pie charts cover ~70% of real usage, with scatter added
/// for correlation stories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ChartType {
    Bar,
    Line,
    Pie,
    Scatter,
}

impl ChartType {
    pub const ALL: [ChartType; 4] = [
        ChartType::Bar,
        ChartType::Line,
        ChartType::Pie,
        ChartType::Scatter,
    ];

    pub fn name(self) -> &'static str {
        match self {
            ChartType::Bar => "bar",
            ChartType::Line => "line",
            ChartType::Pie => "pie",
            ChartType::Scatter => "scatter",
        }
    }

    pub fn from_name(s: &str) -> Option<Self> {
        Self::ALL
            .into_iter()
            .find(|c| c.name().eq_ignore_ascii_case(s.trim()))
    }
}

impl fmt::Display for ChartType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Number of equi-width buckets used by `BIN X` when no target count is
/// given (the paper's "default buckets" case).
pub const DEFAULT_BUCKETS: usize = 10;

/// How an x-column is binned. The paper counts nine bin cases: the seven
/// calendar units, default buckets, and a user-defined function.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BinStrategy {
    /// `BIN X BY {MINUTE … YEAR}` — periodic bins of temporal values
    /// (hour of the day, month of the year, …).
    Unit(TimeUnit),
    /// `BIN X` — [`DEFAULT_BUCKETS`] equi-width numeric buckets.
    Default,
    /// `BIN X INTO N` — N equi-width numeric buckets.
    IntoBuckets(usize),
    /// `BIN X BY UDF(name)` — named user-defined bucketing function,
    /// resolved against a [`crate::bins::UdfRegistry`] at execution time.
    Udf(String),
}

impl BinStrategy {
    /// The paper's nine enumerable bin cases (the UDF slot uses the built-in
    /// `sign` splitter, "e.g., splitting X by given values (e.g., 0)").
    pub fn enumerable() -> [BinStrategy; 9] {
        [
            BinStrategy::Unit(TimeUnit::Minute),
            BinStrategy::Unit(TimeUnit::Hour),
            BinStrategy::Unit(TimeUnit::Day),
            BinStrategy::Unit(TimeUnit::Week),
            BinStrategy::Unit(TimeUnit::Month),
            BinStrategy::Unit(TimeUnit::Quarter),
            BinStrategy::Unit(TimeUnit::Year),
            BinStrategy::Default,
            BinStrategy::Udf("sign".to_owned()),
        ]
    }
}

impl fmt::Display for BinStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinStrategy::Unit(u) => write!(f, "BY {u}"),
            BinStrategy::Default => Ok(()),
            BinStrategy::IntoBuckets(n) => write!(f, "INTO {n}"),
            BinStrategy::Udf(name) => write!(f, "BY UDF({name})"),
        }
    }
}

/// The optional TRANSFORM clause: nothing, `GROUP BY X`, or `BIN X …`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Transform {
    None,
    Group,
    Bin(BinStrategy),
}

impl Transform {
    pub fn is_none(&self) -> bool {
        matches!(self, Transform::None)
    }

    /// The paper's 11 transform cases for a column: identity + group + 9 bins.
    pub fn enumerable() -> Vec<Transform> {
        let mut v = Vec::with_capacity(11);
        v.push(Transform::None);
        v.push(Transform::Group);
        v.extend(BinStrategy::enumerable().into_iter().map(Transform::Bin));
        v
    }
}

/// Aggregate applied to Y after grouping/binning X. `Raw` means Y is kept
/// as-is (only valid without a transform); the paper's AGG set is
/// {SUM, AVG, CNT}, giving 4 aggregate cases per transform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Aggregate {
    Raw,
    Sum,
    Avg,
    Cnt,
}

impl Aggregate {
    pub const ALL: [Aggregate; 4] = [
        Aggregate::Raw,
        Aggregate::Sum,
        Aggregate::Avg,
        Aggregate::Cnt,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Aggregate::Raw => "",
            Aggregate::Sum => "SUM",
            Aggregate::Avg => "AVG",
            Aggregate::Cnt => "CNT",
        }
    }

    pub fn from_name(s: &str) -> Option<Self> {
        match s.trim().to_ascii_uppercase().as_str() {
            "SUM" => Some(Aggregate::Sum),
            "AVG" => Some(Aggregate::Avg),
            "CNT" | "COUNT" => Some(Aggregate::Cnt),
            _ => None,
        }
    }
}

/// The optional ORDER BY clause: sort the transformed x-column ascending,
/// or the (aggregated) y-column descending. The paper notes both columns
/// cannot be sorted at once, giving three possibilities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SortOrder {
    None,
    /// Sort by X' ascending (natural reading order for scales).
    ByX,
    /// Sort by Y' descending (largest bars/slices first).
    ByY,
}

impl SortOrder {
    pub const ALL: [SortOrder; 3] = [SortOrder::None, SortOrder::ByX, SortOrder::ByY];
}

/// A complete visualization query (Figure 2 of the paper).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct VisQuery {
    pub chart: ChartType,
    /// x-axis column name.
    pub x: String,
    /// y-axis column name; `None` for one-column queries, whose y-axis is
    /// the CNT of rows per group/bin.
    pub y: Option<String>,
    pub transform: Transform,
    pub aggregate: Aggregate,
    pub order: SortOrder,
}

impl VisQuery {
    /// A raw two-column query with no transform.
    pub fn raw(chart: ChartType, x: impl Into<String>, y: impl Into<String>) -> Self {
        VisQuery {
            chart,
            x: x.into(),
            y: Some(y.into()),
            transform: Transform::None,
            aggregate: Aggregate::Raw,
            order: SortOrder::None,
        }
    }

    pub fn with_transform(mut self, t: Transform) -> Self {
        self.transform = t;
        self
    }

    pub fn with_aggregate(mut self, a: Aggregate) -> Self {
        self.aggregate = a;
        self
    }

    pub fn with_order(mut self, o: SortOrder) -> Self {
        self.order = o;
        self
    }

    /// Render back into the paper's textual language (inverse of the
    /// parser, up to whitespace).
    pub fn to_language(&self, from: &str) -> String {
        let mut s = format!("VISUALIZE {}\nSELECT {}", self.chart, self.x);
        match (&self.y, self.aggregate) {
            (Some(y), Aggregate::Raw) => s.push_str(&format!(", {y}")),
            (Some(y), agg) => s.push_str(&format!(", {}({})", agg.name(), y)),
            (None, Aggregate::Cnt) => s.push_str(&format!(", CNT({})", self.x)),
            (None, _) => {}
        }
        s.push_str(&format!("\nFROM {from}"));
        match &self.transform {
            Transform::None => {}
            Transform::Group => s.push_str(&format!("\nGROUP BY {}", self.x)),
            Transform::Bin(b) => {
                let suffix = b.to_string();
                if suffix.is_empty() {
                    s.push_str(&format!("\nBIN {}", self.x));
                } else {
                    s.push_str(&format!("\nBIN {} {suffix}", self.x));
                }
            }
        }
        match self.order {
            SortOrder::None => {}
            SortOrder::ByX => s.push_str(&format!("\nORDER BY {}", self.x)),
            SortOrder::ByY => match (&self.y, self.aggregate) {
                (Some(y), Aggregate::Raw) => s.push_str(&format!("\nORDER BY {y}")),
                (Some(y), agg) => s.push_str(&format!("\nORDER BY {}({})", agg.name(), y)),
                (None, _) => s.push_str(&format!("\nORDER BY CNT({})", self.x)),
            },
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chart_type_round_trip() {
        for c in ChartType::ALL {
            assert_eq!(ChartType::from_name(c.name()), Some(c));
        }
        assert_eq!(ChartType::from_name("BAR"), Some(ChartType::Bar));
        assert_eq!(ChartType::from_name("donut"), None);
    }

    #[test]
    fn transform_enumerable_has_eleven_cases() {
        // 1 identity + 1 group + 9 bins, matching §II-B's (1+9+1).
        assert_eq!(Transform::enumerable().len(), 11);
        assert_eq!(BinStrategy::enumerable().len(), 9);
    }

    #[test]
    fn aggregate_names() {
        assert_eq!(Aggregate::from_name("avg"), Some(Aggregate::Avg));
        assert_eq!(Aggregate::from_name("COUNT"), Some(Aggregate::Cnt));
        assert_eq!(Aggregate::from_name("median"), None);
    }

    #[test]
    fn query_language_rendering_matches_paper_q1() {
        // Q1 from Example 2 of the paper.
        let q = VisQuery {
            chart: ChartType::Line,
            x: "scheduled".into(),
            y: Some("departure delay".into()),
            transform: Transform::Bin(BinStrategy::Unit(deepeye_data::TimeUnit::Hour)),
            aggregate: Aggregate::Avg,
            order: SortOrder::ByX,
        };
        let rendered = q.to_language("flights");
        assert_eq!(
            rendered,
            "VISUALIZE line\nSELECT scheduled, AVG(departure delay)\nFROM flights\n\
             BIN scheduled BY HOUR\nORDER BY scheduled"
        );
    }

    #[test]
    fn one_column_rendering() {
        let q = VisQuery {
            chart: ChartType::Pie,
            x: "carrier".into(),
            y: None,
            transform: Transform::Group,
            aggregate: Aggregate::Cnt,
            order: SortOrder::None,
        };
        assert_eq!(
            q.to_language("t"),
            "VISUALIZE pie\nSELECT carrier, CNT(carrier)\nFROM t\nGROUP BY carrier"
        );
    }

    #[test]
    fn builder_methods() {
        let q = VisQuery::raw(ChartType::Bar, "a", "b")
            .with_transform(Transform::Group)
            .with_aggregate(Aggregate::Sum)
            .with_order(SortOrder::ByY);
        assert_eq!(q.transform, Transform::Group);
        assert_eq!(q.aggregate, Aggregate::Sum);
        assert_eq!(q.order, SortOrder::ByY);
    }
}
