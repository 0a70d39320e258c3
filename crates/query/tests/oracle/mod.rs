//! The reference executor the aggregation kernel is checked against: the
//! row-at-a-time loops the kernel replaced. Every row builds its own
//! [`Key`], which a `HashMap` keyed by a cloned identity numbers in
//! first-seen order; each query aggregates alone; an XYZ query sums its
//! cells in a map keyed by (series, x) bucket index. The differential
//! properties in `properties.rs` expect identical results, every `f64`
//! by its bits.

use deepeye_data::{Column, ColumnData, DataType, Table};
use deepeye_query::{
    check_executable, Aggregate, BinError, BinStrategy, ChartData, Key, MultiSeriesChart,
    QueryError, Series, SortOrder, Transform, UdfRegistry, VisQuery, XyzQuery, DEFAULT_BUCKETS,
};
use std::collections::HashMap;

/// `execute_with` before the kernel: sema, then a raw chart or one
/// query's own key pass and aggregation loop, then ORDER BY.
pub fn execute_with(
    table: &Table,
    query: &VisQuery,
    udfs: &UdfRegistry,
) -> Result<ChartData, QueryError> {
    if let Err(diagnostic) = check_executable(table, query, udfs) {
        return Err(diagnostic.into_query_error(query));
    }
    let x_col = table
        .column_by_name(&query.x)
        .ok_or_else(|| QueryError::NoSuchColumn(query.x.clone()))?;
    let y_col = match &query.y {
        Some(name) => Some(
            table
                .column_by_name(name)
                .ok_or_else(|| QueryError::NoSuchColumn(name.clone()))?,
        ),
        None => None,
    };
    let mut chart = match (&query.transform, query.aggregate) {
        (Transform::None, Aggregate::Raw) => raw_chart(query, x_col, y_col)?,
        (Transform::None, agg) => {
            return Err(QueryError::Invalid(format!(
                "{} requires a GROUP or BIN transform",
                agg.name()
            )));
        }
        (_, Aggregate::Raw) => {
            return Err(QueryError::Invalid(
                "a transform requires an aggregate (SUM, AVG, or CNT)".to_owned(),
            ));
        }
        (transform, agg) => {
            let keys = match transform {
                Transform::Bin(strategy) => bin_keys(x_col, strategy, udfs)?,
                _ => group_keys(x_col),
            };
            aggregated_chart(query, keys, y_col, agg)?
        }
    };
    apply_order(&mut chart.series, query.order);
    Ok(chart)
}

fn raw_chart(
    query: &VisQuery,
    x_col: &Column,
    y_col: Option<&Column>,
) -> Result<ChartData, QueryError> {
    let y_col = y_col
        .ok_or_else(|| QueryError::Invalid("a raw query needs an explicit y column".to_owned()))?;
    let y_nums = numeric_view(y_col).ok_or_else(|| {
        QueryError::Invalid(format!("y column {:?} is not numeric", y_col.name()))
    })?;
    let x_scale = match x_col.data() {
        ColumnData::Numeric(v) => Some(v.clone()),
        ColumnData::Temporal(v) => Some(
            v.iter()
                .map(|t| t.map(|t| t.unix_seconds() as f64))
                .collect(),
        ),
        ColumnData::Text(_) => None,
    };
    let series = match x_scale {
        Some(xs) => {
            let pts: Vec<(f64, f64)> = xs
                .iter()
                .zip(&y_nums)
                .filter_map(|(x, y)| Some(((*x)?, (*y)?)))
                .collect();
            if pts.is_empty() {
                return Err(QueryError::EmptyResult);
            }
            Series::Points(pts)
        }
        None => {
            let pairs: Vec<(Key, f64)> = group_keys(x_col)
                .into_iter()
                .zip(&y_nums)
                .filter_map(|(k, y)| Some((k?, (*y)?)))
                .collect();
            if pairs.is_empty() {
                return Err(QueryError::EmptyResult);
            }
            Series::Keyed(pairs)
        }
    };
    Ok(ChartData {
        chart: query.chart,
        x_label: query.x.clone(),
        y_label: y_col.name().to_owned(),
        series,
    })
}

fn aggregated_chart(
    query: &VisQuery,
    keys: Vec<Option<Key>>,
    y_col: Option<&Column>,
    agg: Aggregate,
) -> Result<ChartData, QueryError> {
    let y_label = match (y_col, agg) {
        (None, Aggregate::Cnt) => format!("CNT({})", query.x),
        (None, other) => {
            return Err(QueryError::Invalid(format!(
                "one-column queries support CNT only, got {}",
                other.name()
            )));
        }
        (Some(y), Aggregate::Cnt) => format!("CNT({})", y.name()),
        (Some(y), other) => {
            if y.data_type() != DataType::Numerical {
                return Err(QueryError::Invalid(format!(
                    "{} requires a numerical y column, {:?} is {}",
                    other.name(),
                    y.name(),
                    y.data_type()
                )));
            }
            format!("{}({})", other.name(), y.name())
        }
    };
    let y_nums: Option<Vec<Option<f64>>> = y_col.and_then(numeric_view);
    let mut buckets = Bucketizer::default();
    let mut sums: Vec<f64> = Vec::new();
    let mut counts: Vec<u64> = Vec::new();
    for (row, key) in keys.into_iter().enumerate() {
        let Some(key) = key else { continue };
        let idx = buckets.index_of(key);
        if idx == sums.len() {
            sums.push(0.0);
            counts.push(0);
        }
        if agg == Aggregate::Cnt {
            counts[idx] += 1;
        } else if let Some(Some(y)) = y_nums.as_ref().map(|v| v[row]) {
            sums[idx] += y;
            counts[idx] += 1;
        }
    }
    if buckets.keys.is_empty() {
        return Err(QueryError::EmptyResult);
    }
    let pairs: Vec<(Key, f64)> = buckets
        .keys
        .into_iter()
        .enumerate()
        .map(|(i, k)| {
            let v = match agg {
                Aggregate::Cnt => counts[i] as f64,
                Aggregate::Sum => sums[i],
                _ if counts[i] == 0 => 0.0,
                _ => sums[i] / counts[i] as f64,
            };
            (k, v)
        })
        .collect();
    Ok(ChartData {
        chart: query.chart,
        x_label: query.x.clone(),
        y_label,
        series: Series::Keyed(pairs),
    })
}

fn apply_order(series: &mut Series, order: SortOrder) {
    match (series, order) {
        (_, SortOrder::None) => {}
        (Series::Keyed(pairs), SortOrder::ByX) => pairs.sort_by(|a, b| a.0.total_cmp(&b.0)),
        (Series::Keyed(pairs), SortOrder::ByY) => pairs.sort_by(|a, b| b.1.total_cmp(&a.1)),
        (Series::Points(pts), SortOrder::ByX) => pts.sort_by(|a, b| a.0.total_cmp(&b.0)),
        (Series::Points(pts), SortOrder::ByY) => pts.sort_by(|a, b| b.1.total_cmp(&a.1)),
    }
}

fn numeric_view(col: &Column) -> Option<Vec<Option<f64>>> {
    match col.data() {
        ColumnData::Numeric(v) => Some(v.clone()),
        _ => None,
    }
}

/// One key per row, from the cell's exact value.
fn group_keys(column: &Column) -> Vec<Option<Key>> {
    match column.data() {
        ColumnData::Text(vals) => vals
            .iter()
            .map(|v| v.as_ref().map(|s| Key::Text(s.clone())))
            .collect(),
        ColumnData::Numeric(vals) => vals.iter().map(|v| v.map(Key::Number)).collect(),
        ColumnData::Temporal(vals) => vals.iter().map(|v| v.map(Key::Time)).collect(),
    }
}

/// The bin key of every row (`None` for a null cell).
fn bin_keys(
    column: &Column,
    strategy: &BinStrategy,
    udfs: &UdfRegistry,
) -> Result<Vec<Option<Key>>, BinError> {
    match strategy {
        BinStrategy::Unit(unit) => match column.data() {
            ColumnData::Temporal(vals) => Ok(vals
                .iter()
                .map(|v| {
                    v.map(|t| Key::Period {
                        unit: *unit,
                        index: t.period_index(*unit),
                    })
                })
                .collect()),
            _ => Err(BinError::NotTemporal),
        },
        BinStrategy::Default => equi_width(column, DEFAULT_BUCKETS),
        BinStrategy::IntoBuckets(0) => Err(BinError::ZeroBuckets),
        BinStrategy::IntoBuckets(n) => equi_width(column, *n),
        BinStrategy::Udf(name) => {
            let f = udfs
                .get(name)
                .ok_or_else(|| BinError::UnknownUdf(name.clone()))?;
            match column.data() {
                ColumnData::Numeric(vals) => Ok(vals.iter().map(|v| v.map(|x| f(x))).collect()),
                _ => Err(BinError::NotNumeric),
            }
        }
    }
}

/// Equi-width binning into `n` buckets spanning [min, max], the range
/// read by `Column::min_scalar` and `max_scalar`.
fn equi_width(column: &Column, n: usize) -> Result<Vec<Option<Key>>, BinError> {
    let ColumnData::Numeric(vals) = column.data() else {
        return Err(BinError::NotNumeric);
    };
    let (Some(lo), Some(hi)) = (column.min_scalar(), column.max_scalar()) else {
        return Ok(vec![None; vals.len()]);
    };
    let width = if hi > lo { (hi - lo) / n as f64 } else { 1.0 };
    Ok(vals
        .iter()
        .map(|v| {
            v.map(|x| {
                let idx = (((x - lo) / width) as usize).min(n - 1);
                Key::Interval {
                    lo: lo + idx as f64 * width,
                    hi: lo + (idx + 1) as f64 * width,
                }
            })
        })
        .collect())
}

/// A key's hashable identity, bit-exact for floats.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum KeyId {
    Text(String),
    Bits(u64),
    Pair(u64, u64),
    Time(i64),
    Period(deepeye_data::TimeUnit, i64),
}

fn identity(key: &Key) -> KeyId {
    match key {
        Key::Text(s) => KeyId::Text(s.clone()),
        Key::Number(x) => KeyId::Bits(x.to_bits()),
        Key::Interval { lo, hi } => KeyId::Pair(lo.to_bits(), hi.to_bits()),
        Key::Time(t) => KeyId::Time(t.unix_seconds()),
        Key::Period { unit, index } => KeyId::Period(*unit, *index),
    }
}

/// Dense bucket indices in first-seen key order.
#[derive(Default)]
struct Bucketizer {
    ids: HashMap<KeyId, usize>,
    keys: Vec<Key>,
}

impl Bucketizer {
    fn index_of(&mut self, key: Key) -> usize {
        let id = identity(&key);
        if let Some(&i) = self.ids.get(&id) {
            return i;
        }
        let i = self.keys.len();
        self.ids.insert(id, i);
        self.keys.push(key);
        i
    }
}

/// `execute_xyz` before the kernel.
pub fn execute_xyz(
    table: &Table,
    query: &XyzQuery,
    udfs: &UdfRegistry,
) -> Result<MultiSeriesChart, QueryError> {
    let column = |name: &String| {
        table
            .column_by_name(name)
            .ok_or_else(|| QueryError::NoSuchColumn(name.clone()))
    };
    let series_col = column(&query.series_column)?;
    let x_col = column(&query.x)?;
    let z_col = column(&query.z)?;
    if query.aggregate == Aggregate::Raw {
        return Err(QueryError::Invalid(
            "XYZ queries require an aggregate".to_owned(),
        ));
    }
    let z_vals: Vec<Option<f64>> = match z_col.data() {
        ColumnData::Numeric(v) => v.clone(),
        _ if query.aggregate == Aggregate::Cnt => vec![Some(1.0); table.row_count()],
        _ => {
            return Err(QueryError::Invalid(format!(
                "{} requires a numerical z column",
                query.aggregate.name()
            )));
        }
    };
    let series_keys = group_keys(series_col);
    let x_keys = match &query.x_transform {
        Transform::Group => group_keys(x_col),
        Transform::Bin(strategy) => bin_keys(x_col, strategy, udfs)?,
        Transform::None => {
            return Err(QueryError::Invalid(
                "XYZ queries require the x column to be grouped or binned".to_owned(),
            ));
        }
    };

    let mut series_buckets = Bucketizer::default();
    let mut x_buckets = Bucketizer::default();
    let mut cells: HashMap<(usize, usize), (f64, u64)> = HashMap::new();
    for row in 0..table.row_count() {
        let (Some(sk), Some(xk)) = (series_keys[row].clone(), x_keys[row].clone()) else {
            continue;
        };
        let si = series_buckets.index_of(sk);
        let xi = x_buckets.index_of(xk);
        let entry = cells.entry((si, xi)).or_insert((0.0, 0));
        if query.aggregate == Aggregate::Cnt {
            entry.1 += 1;
        } else if let Some(z) = z_vals[row] {
            entry.0 += z;
            entry.1 += 1;
        }
    }
    if series_buckets.keys.is_empty() {
        return Err(QueryError::EmptyResult);
    }
    let mut series = Vec::with_capacity(series_buckets.keys.len());
    for (si, name) in series_buckets.keys.iter().enumerate() {
        let mut pts: Vec<(Key, f64)> = Vec::new();
        for (xi, xk) in x_buckets.keys.iter().enumerate() {
            if let Some(&(sum, cnt)) = cells.get(&(si, xi)) {
                let v = match query.aggregate {
                    Aggregate::Cnt => cnt as f64,
                    Aggregate::Sum => sum,
                    _ if cnt == 0 => continue,
                    _ => sum / cnt as f64,
                };
                pts.push((xk.clone(), v));
            }
        }
        pts.sort_by(|a, b| a.0.total_cmp(&b.0));
        series.push((name.to_string(), pts));
    }
    series.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(MultiSeriesChart {
        chart: query.chart,
        x_label: query.x.clone(),
        y_label: format!("{}({})", query.aggregate.name(), query.z),
        series,
    })
}

/// Two keys are the same bucket key: same variant, same payload bits.
fn same_key(a: &Key, b: &Key) -> bool {
    identity(a) == identity(b)
}

fn same_points(a: &[(Key, f64)], b: &[(Key, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((ka, ya), (kb, yb))| same_key(ka, kb) && ya.to_bits() == yb.to_bits())
}

/// Whether two results are identical: the same error, or the same chart
/// with every key and `f64` equal by its bits.
pub fn same_chart(a: &Result<ChartData, QueryError>, b: &Result<ChartData, QueryError>) -> bool {
    match (a, b) {
        (Err(a), Err(b)) => a == b,
        (Ok(a), Ok(b)) => {
            let series = match (&a.series, &b.series) {
                (Series::Keyed(a), Series::Keyed(b)) => same_points(a, b),
                (Series::Points(a), Series::Points(b)) => {
                    a.len() == b.len()
                        && a.iter().zip(b).all(|((xa, ya), (xb, yb))| {
                            xa.to_bits() == xb.to_bits() && ya.to_bits() == yb.to_bits()
                        })
                }
                _ => false,
            };
            series && (a.chart, &a.x_label, &a.y_label) == (b.chart, &b.x_label, &b.y_label)
        }
        _ => false,
    }
}

/// [`same_chart`] for XYZ results.
pub fn same_multi(
    a: &Result<MultiSeriesChart, QueryError>,
    b: &Result<MultiSeriesChart, QueryError>,
) -> bool {
    match (a, b) {
        (Err(a), Err(b)) => a == b,
        (Ok(a), Ok(b)) => {
            (a.chart, &a.x_label, &a.y_label) == (b.chart, &b.x_label, &b.y_label)
                && a.series.len() == b.series.len()
                && a.series
                    .iter()
                    .zip(&b.series)
                    .all(|((na, pa), (nb, pb))| na == nb && same_points(pa, pb))
        }
        _ => false,
    }
}
