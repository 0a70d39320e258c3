//! Chart data: the result of executing a visualization query.

use crate::ast::ChartType;
use crate::bins::Key;
use std::fmt;

/// The plotted series of a chart.
#[derive(Debug, Clone, PartialEq)]
pub enum Series {
    /// Discrete x-scale (groups/bins): `(key, y-value)` pairs in plot order.
    Keyed(Vec<(Key, f64)>),
    /// Continuous raw points, e.g. an untransformed scatter plot.
    Points(Vec<(f64, f64)>),
}

impl Series {
    /// Number of plotted marks — `|X'|` of the transformed data.
    pub fn len(&self) -> usize {
        match self {
            Series::Keyed(v) => v.len(),
            Series::Points(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The y-values in plot order.
    pub fn y_values(&self) -> Vec<f64> {
        match self {
            Series::Keyed(v) => v.iter().map(|(_, y)| *y).collect(),
            Series::Points(v) => v.iter().map(|(_, y)| *y).collect(),
        }
    }

    /// The x-scale positions in plot order; text keys yield their rank.
    pub fn x_positions(&self) -> Vec<f64> {
        match self {
            Series::Keyed(v) => v
                .iter()
                .enumerate()
                .map(|(i, (k, _))| k.scale_position().unwrap_or(i as f64))
                .collect(),
            Series::Points(v) => v.iter().map(|(x, _)| *x).collect(),
        }
    }
}

/// A fully materialized chart: what `Q(D)` produces (§II-B).
#[derive(Debug, Clone, PartialEq)]
pub struct ChartData {
    pub chart: ChartType,
    pub x_label: String,
    pub y_label: String,
    pub series: Series,
}

impl ChartData {
    /// Number of distinct x keys, `d(X')` after the transform.
    pub fn distinct_x(&self) -> usize {
        match &self.series {
            Series::Keyed(v) => v.len(),
            Series::Points(v) => {
                let mut xs: Vec<u64> = v.iter().map(|(x, _)| x.to_bits()).collect();
                xs.sort_unstable();
                xs.dedup();
                xs.len()
            }
        }
    }

    /// Export the chart data as CSV (header `x,y`), quoting fields that
    /// need it — handy for piping recommendations into other tools.
    pub fn to_csv(&self) -> String {
        fn field(s: &str) -> String {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_owned()
            }
        }
        let mut out = format!("{},{}\n", field(&self.x_label), field(&self.y_label));
        match &self.series {
            Series::Keyed(pairs) => {
                for (k, y) in pairs {
                    out.push_str(&format!("{},{y}\n", field(&k.to_string())));
                }
            }
            Series::Points(pts) => {
                for (x, y) in pts {
                    out.push_str(&format!("{x},{y}\n"));
                }
            }
        }
        out
    }

    /// Render a terminal-friendly sketch of the chart (used by examples and
    /// the quickstart; not a substitute for a real renderer).
    pub fn ascii_sketch(&self, max_rows: usize) -> String {
        let mut out = format!(
            "{} chart: {} vs {}\n",
            self.chart, self.x_label, self.y_label
        );
        match &self.series {
            Series::Keyed(pairs) => {
                let max_y = pairs
                    .iter()
                    .map(|(_, y)| y.abs())
                    .fold(0.0f64, f64::max)
                    .max(1e-12);
                for (k, y) in pairs.iter().take(max_rows) {
                    let bar_len = ((y.abs() / max_y) * 40.0).round() as usize;
                    let label = k.to_string();
                    let shown: String = label.chars().take(18).collect();
                    out.push_str(&format!("  {shown:<18} | {} {y:.2}\n", "#".repeat(bar_len)));
                }
                if pairs.len() > max_rows {
                    out.push_str(&format!("  … {} more\n", pairs.len() - max_rows));
                }
            }
            Series::Points(pts) => {
                out.push_str(&format!("  {} points", pts.len()));
                if let (Some(first), Some(last)) = (pts.first(), pts.last()) {
                    out.push_str(&format!(
                        ", x ∈ [{:.2}, {:.2}]",
                        first.0.min(last.0),
                        first.0.max(last.0)
                    ));
                }
                out.push('\n');
            }
        }
        out
    }
}

impl fmt::Display for ChartData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.ascii_sketch(12))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keyed() -> ChartData {
        ChartData {
            chart: ChartType::Bar,
            x_label: "carrier".into(),
            y_label: "AVG(delay)".into(),
            series: Series::Keyed(vec![
                (Key::Text("UA".into()), 4.0),
                (Key::Text("AA".into()), 8.0),
            ]),
        }
    }

    #[test]
    fn series_accessors() {
        let c = keyed();
        assert_eq!(c.series.len(), 2);
        assert_eq!(c.series.y_values(), vec![4.0, 8.0]);
        assert_eq!(c.series.x_positions(), vec![0.0, 1.0]);
        assert_eq!(c.distinct_x(), 2);
    }

    #[test]
    fn points_distinct_x() {
        let c = ChartData {
            chart: ChartType::Scatter,
            x_label: "a".into(),
            y_label: "b".into(),
            series: Series::Points(vec![(1.0, 2.0), (1.0, 3.0), (2.0, 4.0)]),
        };
        assert_eq!(c.distinct_x(), 2);
        assert_eq!(c.series.len(), 3);
    }

    #[test]
    fn ascii_sketch_is_bounded() {
        let c = keyed();
        let sketch = c.ascii_sketch(1);
        assert!(sketch.contains("bar chart"));
        assert!(sketch.contains("… 1 more"));
    }

    #[test]
    fn csv_export_round_trips_through_reader() {
        let c = ChartData {
            chart: ChartType::Bar,
            x_label: "city, state".into(),
            y_label: "AVG(\"delay\")".into(),
            series: Series::Keyed(vec![
                (Key::Text("a,b".into()), 1.5),
                (Key::Text("plain".into()), -2.0),
            ]),
        };
        let csv = c.to_csv();
        let table = deepeye_data::table_from_csv_str("t", &csv).unwrap();
        assert_eq!(table.row_count(), 2);
        assert!(table.column_by_name("city, state").is_some());
        assert_eq!(table.column(1).unwrap().numbers(), vec![1.5, -2.0]);
    }

    #[test]
    fn csv_export_points() {
        let c = ChartData {
            chart: ChartType::Scatter,
            x_label: "x".into(),
            y_label: "y".into(),
            series: Series::Points(vec![(1.0, 2.0), (3.5, -4.0)]),
        };
        let csv = c.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.contains("3.5,-4"));
    }
}
