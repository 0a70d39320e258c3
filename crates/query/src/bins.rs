//! Binning and grouping keys.
//!
//! Binning "partitions the numerical or temporal values into different
//! buckets" (§II-A). Grouping or binning an x column maps each row to a
//! dense bucket code (`key_codes`); rows sharing a code land in the same
//! bucket and are then aggregated, and each bucket keeps one [`Key`].

use crate::ast::{BinStrategy, Transform, DEFAULT_BUCKETS};
use deepeye_data::{Column, ColumnData, FirstSeen, TimeUnit, Timestamp, Value};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The key of a group or bucket on the x-axis.
#[derive(Debug, Clone, PartialEq)]
pub enum Key {
    /// Category label (GROUP BY on categorical data).
    Text(String),
    /// Exact numeric value (GROUP BY on numeric data / raw key).
    Number(f64),
    /// Numeric interval `[lo, hi)` produced by `BIN INTO N` / UDF bins.
    Interval { lo: f64, hi: f64 },
    /// Exact timestamp (GROUP BY on temporal data).
    Time(Timestamp),
    /// Periodic temporal bucket, e.g. hour-of-day 14 or month-of-year 3
    /// (the paper's `BIN X BY HOUR` semantics — Table II shows |X\'| = 24
    /// for a year of data binned by hour).
    Period { unit: TimeUnit, index: i64 },
}

impl Key {
    /// Natural scale position used for ORDER BY X and correlation of the
    /// transformed columns: interval midpoint, timestamp seconds, number, or
    /// `None` for text keys (which sort lexicographically).
    pub fn scale_position(&self) -> Option<f64> {
        match self {
            Key::Text(_) => None,
            Key::Number(x) => Some(*x),
            Key::Interval { lo, hi } => Some((lo + hi) / 2.0),
            Key::Time(t) => Some(t.unix_seconds() as f64),
            Key::Period { index, .. } => Some(*index as f64),
        }
    }

    /// Total ordering for sorting the x-scale.
    pub fn total_cmp(&self, other: &Key) -> Ordering {
        match (self.scale_position(), other.scale_position()) {
            (Some(a), Some(b)) => a.total_cmp(&b),
            (None, None) => match (self, other) {
                (Key::Text(a), Key::Text(b)) => a.cmp(b),
                _ => Ordering::Equal,
            },
            (None, Some(_)) => Ordering::Less,
            (Some(_), None) => Ordering::Greater,
        }
    }

    /// Whether two keys are one bucket: the same variant and payload,
    /// each `f64` compared by its bits, so `0.0` and `-0.0` are two
    /// buckets and a NaN is one.
    pub fn same(&self, other: &Key) -> bool {
        let same = |a: &f64, b: &f64| a.to_bits() == b.to_bits();
        match (self, other) {
            (Key::Text(a), Key::Text(b)) => a == b,
            (Key::Number(a), Key::Number(b)) => same(a, b),
            (Key::Interval { lo, hi }, Key::Interval { lo: lo2, hi: hi2 }) => {
                same(lo, lo2) && same(hi, hi2)
            }
            (Key::Time(a), Key::Time(b)) => a == b,
            (
                Key::Period { unit, index },
                Key::Period {
                    unit: unit2,
                    index: index2,
                },
            ) => unit == unit2 && index == index2,
            _ => false,
        }
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Key::Text(s) => f.write_str(s),
            Key::Number(x) => write!(f, "{}", Value::Number(*x)),
            Key::Interval { lo, hi } => write!(f, "[{lo:.4}, {hi:.4})"),
            Key::Time(t) => write!(f, "{t}"),
            Key::Period { unit, index } => f.write_str(&Timestamp::period_label(*unit, *index)),
        }
    }
}

/// A key as bucket identity: equal under [`Key::same`], hashed by the
/// same bits.
#[derive(Debug, Clone)]
pub(crate) struct Exact(pub(crate) Key);

impl PartialEq for Exact {
    fn eq(&self, other: &Exact) -> bool {
        self.0.same(&other.0)
    }
}

impl Eq for Exact {}

impl Hash for Exact {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match &self.0 {
            Key::Text(s) => (0u8, s).hash(state),
            Key::Number(x) => (1u8, x.to_bits()).hash(state),
            Key::Interval { lo, hi } => (2u8, lo.to_bits(), hi.to_bits()).hash(state),
            Key::Time(t) => (3u8, t).hash(state),
            Key::Period { unit, index } => (4u8, unit, index).hash(state),
        }
    }
}

/// A user-defined binning function: maps a numeric value to a bucket key.
pub type UdfBin = Arc<dyn Fn(f64) -> Key + Send + Sync>;

/// Registry of named UDF bins (`BIN X BY UDF(name)`).
#[derive(Clone)]
pub struct UdfRegistry {
    fns: HashMap<String, UdfBin>,
}

impl fmt::Debug for UdfRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names: Vec<&str> = self.fns.keys().map(String::as_str).collect();
        names.sort_unstable();
        f.debug_struct("UdfRegistry")
            .field("names", &names)
            .finish()
    }
}

impl Default for UdfRegistry {
    /// Ships with the paper's example UDF: `sign`, "splitting X by given
    /// values (e.g., 0)" — negative vs non-negative.
    fn default() -> Self {
        let mut reg = UdfRegistry {
            fns: HashMap::new(),
        };
        reg.register("sign", |x| {
            Key::Text(if x < 0.0 {
                "< 0".to_owned()
            } else {
                ">= 0".to_owned()
            })
        });
        reg
    }
}

impl UdfRegistry {
    pub fn register(
        &mut self,
        name: impl Into<String>,
        f: impl Fn(f64) -> Key + Send + Sync + 'static,
    ) {
        self.fns.insert(name.into(), Arc::new(f));
    }

    pub fn get(&self, name: &str) -> Option<&UdfBin> {
        self.fns.get(name)
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.fns.keys().map(String::as_str)
    }
}

/// Why a binning could not be applied to a column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinError {
    /// Calendar units require a temporal column.
    NotTemporal,
    /// Bucket/UDF bins require a numeric column.
    NotNumeric,
    /// Unknown UDF name.
    UnknownUdf(String),
    /// Zero buckets requested.
    ZeroBuckets,
}

impl fmt::Display for BinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinError::NotTemporal => f.write_str("calendar binning requires a temporal column"),
            BinError::NotNumeric => f.write_str("bucket binning requires a numeric column"),
            BinError::UnknownUdf(n) => write!(f, "unknown UDF bin {n:?}"),
            BinError::ZeroBuckets => f.write_str("cannot bin into zero buckets"),
        }
    }
}

impl std::error::Error for BinError {}

/// The code of a row whose key is null: the row joins no bucket.
pub(crate) const NULL_CODE: u32 = u32::MAX;

/// The buckets of one (x column, transform): each row's dense bucket code
/// ([`NULL_CODE`] for a null key), and the bucket keys indexed by code,
/// in the order the rows first reach them.
#[derive(Debug)]
pub(crate) struct KeyCodes {
    pub(crate) codes: Vec<u32>,
    pub(crate) keys: Vec<Key>,
}

/// The bucket code of every row of `column` under `transform`, built
/// straight from the cells: no per-row [`Key`], only one per bucket. A
/// GROUP makes one bucket per distinct non-null cell, matched as
/// [`Column::distinct_count`] counts (numbers by their bits).
pub(crate) fn key_codes(
    column: &Column,
    transform: &Transform,
    udfs: &UdfRegistry,
) -> Result<KeyCodes, BinError> {
    let strategy = match transform {
        Transform::Bin(strategy) => strategy,
        // GROUP; a raw query never reaches a scan.
        _ => {
            return Ok(match column.data() {
                ColumnData::Text(v) => {
                    matched(v.iter().map(Option::as_deref), |s| Key::Text(s.to_owned()))
                }
                ColumnData::Numeric(v) => matched(v.iter().map(|x| x.map(f64::to_bits)), |b| {
                    Key::Number(f64::from_bits(b))
                }),
                ColumnData::Temporal(v) => matched(v.iter().copied(), Key::Time),
            })
        }
    };
    match (strategy, column.data()) {
        (BinStrategy::Unit(unit), ColumnData::Temporal(v)) => Ok(calendar(v, *unit)),
        (BinStrategy::Unit(_), _) => Err(BinError::NotTemporal),
        (BinStrategy::IntoBuckets(0), _) => Err(BinError::ZeroBuckets),
        (BinStrategy::Default, ColumnData::Numeric(v)) => Ok(equi_width(v, DEFAULT_BUCKETS)),
        (BinStrategy::IntoBuckets(n), ColumnData::Numeric(v)) => Ok(equi_width(v, *n)),
        (BinStrategy::Udf(name), data) => {
            let f = udfs
                .get(name)
                .ok_or_else(|| BinError::UnknownUdf(name.clone()))?;
            match data {
                // The UDF runs once per non-null row; its key is matched
                // against the keys seen so far, not cloned.
                ColumnData::Numeric(v) => {
                    Ok(matched(v.iter().map(|x| x.map(|x| Exact(f(x)))), |k| k.0))
                }
                _ => Err(BinError::NotNumeric),
            }
        }
        _ => Err(BinError::NotNumeric),
    }
}

/// Codes for a column of optional keys, one [`FirstSeen`] code per
/// distinct key; `key` turns each distinct key into its bucket key.
fn matched<K: Clone + Eq + Hash>(
    cells: impl Iterator<Item = Option<K>>,
    key: impl Fn(K) -> Key,
) -> KeyCodes {
    let mut seen = FirstSeen::new();
    let codes = cells
        .map(|cell| cell.map_or(NULL_CODE, |k| seen.code(k)))
        .collect();
    KeyCodes {
        codes,
        keys: seen.into_keys().into_iter().map(key).collect(),
    }
}

/// The code cached in `slots[i]`, or `code()`'s, cached there; an index
/// past the slots is not cached.
fn cached(slots: &mut [u32], i: usize, code: impl FnOnce() -> u32) -> u32 {
    match slots.get_mut(i) {
        Some(slot) if *slot != NULL_CODE => *slot,
        Some(slot) => {
            *slot = code();
            *slot
        }
        None => code(),
    }
}

/// Periodic calendar buckets (`BIN X BY HOUR` …). Every unit but YEAR has
/// at most 367 periods, so a table indexed by the period caches codes.
fn calendar(vals: &[Option<Timestamp>], unit: TimeUnit) -> KeyCodes {
    let mut slots = [NULL_CODE; 367];
    let mut seen = FirstSeen::new();
    let codes = vals
        .iter()
        .map(|t| {
            let Some(t) = t else { return NULL_CODE };
            let index = t.period_index(unit);
            let slot = usize::try_from(index).unwrap_or(usize::MAX);
            cached(&mut slots, slot, || seen.code(index))
        })
        .collect();
    KeyCodes {
        codes,
        keys: seen
            .into_keys()
            .into_iter()
            .map(|index| Key::Period { unit, index })
            .collect(),
    }
}

/// Equi-width numeric binning into `n` buckets spanning [min, max]. A
/// bucket is its `[lo, hi)` bounds, bit for bit: indices whose bounds
/// round to the same bits share one bucket. Bucket indices below the row
/// count cache their code.
fn equi_width(vals: &[Option<f64>], n: usize) -> KeyCodes {
    // The range in one pass, with `Column::min_scalar`'s and
    // `max_scalar`'s folds. An all-null column has none, and no row
    // needs one.
    let (lo, hi) = vals
        .iter()
        .flatten()
        .fold(None, |acc, &x| {
            Some(acc.map_or((x, x), |(lo, hi): (f64, f64)| (lo.min(x), hi.max(x))))
        })
        .unwrap_or_default();
    let width = if hi > lo { (hi - lo) / n as f64 } else { 1.0 };
    let mut slots = vec![NULL_CODE; n.min(vals.len())];
    let mut seen = FirstSeen::new();
    let codes = vals
        .iter()
        .map(|x| {
            let Some(x) = x else { return NULL_CODE };
            // The max value falls in the last bucket, not a phantom one.
            let idx = (((x - lo) / width) as usize).min(n - 1);
            cached(&mut slots, idx, || {
                let bounds = (lo + idx as f64 * width, lo + (idx + 1) as f64 * width);
                seen.code((bounds.0.to_bits(), bounds.1.to_bits()))
            })
        })
        .collect();
    KeyCodes {
        codes,
        keys: seen
            .into_keys()
            .into_iter()
            .map(|(lo, hi)| Key::Interval {
                lo: f64::from_bits(lo),
                hi: f64::from_bits(hi),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepeye_data::parse_timestamp;

    fn codes(column: &Column, strategy: BinStrategy) -> Result<KeyCodes, BinError> {
        key_codes(column, &Transform::Bin(strategy), &UdfRegistry::default())
    }

    fn labels(codes: &KeyCodes) -> Vec<String> {
        codes
            .codes
            .iter()
            .map(|&c| codes.keys[c as usize].to_string())
            .collect()
    }

    #[test]
    fn equi_width_covers_all_rows() {
        let c = Column::numeric("x", (0..100).map(f64::from));
        let b = codes(&c, BinStrategy::IntoBuckets(10)).unwrap();
        assert!(b.codes.iter().all(|&c| c != NULL_CODE));
        // Max value must land in the last bucket, not overflow.
        match b.keys[b.codes[99] as usize] {
            Key::Interval { lo, hi } => {
                assert!(lo <= 99.0 && 99.0 <= hi);
            }
            ref other => panic!("unexpected key {other:?}"),
        }
    }

    #[test]
    fn equi_width_distinct_buckets_bounded() {
        let c = Column::numeric("x", (0..1000).map(|i| f64::from(i % 500)));
        let b = codes(&c, BinStrategy::Default).unwrap();
        assert_eq!(b.keys.len(), DEFAULT_BUCKETS);
    }

    #[test]
    fn constant_column_bins_to_one_bucket() {
        let c = Column::numeric("x", [5.0, 5.0, 5.0]);
        let b = codes(&c, BinStrategy::IntoBuckets(4)).unwrap();
        assert_eq!(b.keys.len(), 1);
        assert_eq!(b.codes, [0, 0, 0]);
    }

    #[test]
    fn bucket_indices_with_equal_bounds_share_a_bucket() {
        // A range of one subnormal step: the width rounds to 0, so the
        // two occupied bucket indices, 0 and 1, both have bounds [0, 0).
        let c = Column::numeric("x", [0.0, 5e-324, 0.0]);
        let b = codes(&c, BinStrategy::IntoBuckets(2)).unwrap();
        assert_eq!(b.codes, [0, 0, 0]);
        assert!(matches!(b.keys[..], [Key::Interval { lo, hi }] if lo == 0.0 && hi == 0.0));
    }

    #[test]
    fn temporal_bins_by_unit_are_periodic() {
        // Hours of day pool across days: 08:05 on Jan 1 and 08:30 on Feb 2
        // land in the same hour-of-day bucket (the paper's Table II
        // semantics, |X'| = 24 for a year of data).
        let ts: Vec<_> = ["2015-01-01 08:05", "2015-02-02 08:30", "2015-01-01 09:10"]
            .iter()
            .map(|s| parse_timestamp(s).unwrap())
            .collect();
        let c = Column::temporal("t", ts);
        let b = codes(&c, BinStrategy::Unit(TimeUnit::Hour)).unwrap();
        assert_eq!(b.keys.len(), 2); // 08:00 and 09:00 of day
        assert_eq!(b.codes, [0, 0, 1]);
        // Month bins likewise pool by month-of-year.
        let b = codes(&c, BinStrategy::Unit(TimeUnit::Month)).unwrap();
        assert_eq!(labels(&b), vec!["Jan", "Feb", "Jan"]);
        // Years are not periodic, nor bounded by the period table.
        let b = codes(&c, BinStrategy::Unit(TimeUnit::Year)).unwrap();
        assert_eq!(labels(&b), vec!["2015", "2015", "2015"]);
    }

    #[test]
    fn calendar_bin_on_numeric_rejected() {
        let c = Column::numeric("x", [1.0]);
        assert_eq!(
            codes(&c, BinStrategy::Unit(TimeUnit::Day)).unwrap_err(),
            BinError::NotTemporal
        );
    }

    #[test]
    fn bucket_bin_on_text_rejected() {
        let c = Column::text("x", ["a"]);
        assert_eq!(
            codes(&c, BinStrategy::Default).unwrap_err(),
            BinError::NotNumeric
        );
    }

    #[test]
    fn sign_udf_splits_at_zero() {
        let c = Column::numeric("x", [-5.0, -0.1, 0.0, 3.0]);
        let b = codes(&c, BinStrategy::Udf("sign".into())).unwrap();
        assert_eq!(labels(&b), vec!["< 0", "< 0", ">= 0", ">= 0"]);
    }

    #[test]
    fn unknown_udf_rejected() {
        let c = Column::numeric("x", [1.0]);
        assert_eq!(
            codes(&c, BinStrategy::Udf("nope".into())).unwrap_err(),
            BinError::UnknownUdf("nope".into())
        );
    }

    #[test]
    fn custom_udf_registration() {
        let mut reg = UdfRegistry::default();
        reg.register("decade", |x| Key::Number((x / 10.0).floor() * 10.0));
        let c = Column::numeric("x", [1995.0, 1999.0, 2003.0]);
        let b = key_codes(&c, &Transform::Bin(BinStrategy::Udf("decade".into())), &reg).unwrap();
        assert_eq!(b.keys.len(), 2);
        assert_eq!(b.codes, [0, 0, 1]);
    }

    #[test]
    fn group_codes_per_type() {
        let udfs = UdfRegistry::default();
        let group = |c: &Column| key_codes(c, &Transform::Group, &udfs).unwrap();
        let text = group(&Column::new(
            "c",
            ColumnData::Text(vec![
                Some("a".into()),
                None,
                Some("b".into()),
                Some("a".into()),
            ]),
        ));
        assert_eq!(text.codes, [0, NULL_CODE, 1, 0]);
        assert!(matches!(&text.keys[..], [Key::Text(a), Key::Text(b)] if a == "a" && b == "b"));
        // Numbers group by their bits: 0.0 and -0.0 are two groups.
        let nums = group(&Column::numeric("n", [1.0, 0.0, -0.0, 1.0]));
        assert_eq!(nums.codes, [0, 1, 2, 0]);
        let t = parse_timestamp("2015-01-01").unwrap();
        let times = group(&Column::temporal("t", [t, t]));
        assert_eq!(times.codes, [0, 0]);
        assert!(matches!(times.keys[..], [Key::Time(k)] if k == t));
    }

    #[test]
    fn key_ordering_and_display() {
        let a = Key::Number(1.0);
        let b = Key::Number(2.0);
        assert_eq!(a.total_cmp(&b), Ordering::Less);
        let t = Key::Text("z".into());
        // Text sorts before numbers by convention (scale-less first).
        assert_eq!(t.total_cmp(&a), Ordering::Less);
        assert_eq!(
            Key::Interval { lo: 0.0, hi: 10.0 }.scale_position(),
            Some(5.0)
        );
        assert_eq!(format!("{}", Key::Number(2.0)), "2");
    }

    #[test]
    fn same_compares_bits() {
        assert!(Key::Number(f64::NAN).same(&Key::Number(f64::NAN)));
        assert!(!Key::Number(0.0).same(&Key::Number(-0.0)));
        assert!(!Key::Number(1.0).same(&Key::Interval { lo: 1.0, hi: 1.0 }));
        assert!(Key::Text("x".into()).same(&Key::Text("x".into())));
    }

    #[test]
    fn zero_buckets_rejected() {
        let c = Column::numeric("x", [1.0]);
        assert_eq!(
            codes(&c, BinStrategy::IntoBuckets(0)).unwrap_err(),
            BinError::ZeroBuckets
        );
    }
}
