//! Column correlation (feature (6)) and trend detection (Eq. 4).
//!
//! The paper measures the correlation `c(X, Y) ∈ [-1, 1]` of two columns as
//! the **maximum over four models** — linear, polynomial, power, and log —
//! taking "maximum" as the strongest association (largest magnitude). Trend
//! detection asks whether a series follows one of the distributions named by
//! Eq. 4: linear, power-law, log, or exponential.

use crate::stats::{self, linear_fit, quadratic_fit, r_squared};
use std::borrow::Cow;

/// Which functional form produced a correlation or trend score.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CorrelationModel {
    /// `y ~ a + b·x`
    Linear,
    /// `y ~ c0 + c1·x + c2·x²`
    Polynomial,
    /// `y ~ a·x^b` (fit as `ln y ~ ln a + b·ln x`)
    Power,
    /// `y ~ a + b·ln x`
    Log,
    /// `y ~ a·e^(b·x)` (fit as `ln y ~ ln a + b·x`); used by trend
    /// detection only, per Eq. 4.
    Exponential,
}

/// Correlation strength plus the model that achieved it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Correlation {
    /// Signed coefficient of the best model, in [-1, 1].
    pub coefficient: f64,
    pub model: CorrelationModel,
}

impl Correlation {
    /// Association strength regardless of direction, in [0, 1].
    pub fn strength(self) -> f64 {
        self.coefficient.abs()
    }
}

/// Minimum fraction of pairs a transformed model (power/log) must retain for
/// its fit to be meaningful; guards against judging correlation from a
/// handful of positive outliers.
const MIN_SUPPORT: f64 = 0.8;

/// Whether `kept` of `n` pairs are enough for a power or log fit.
fn supported(kept: usize, n: usize) -> bool {
    kept as f64 >= MIN_SUPPORT * n as f64
}

/// Compute `c(X, Y)`: evaluate all four models and return the one with the
/// greatest absolute correlation. Returns a zero-coefficient linear
/// correlation when fewer than two valid pairs exist.
///
/// The i-th x pairs with the i-th y, up to the shorter slice; pairs with
/// a non-finite side are dropped, and the remaining columns go through
/// the same kernel as [`PreparedColumn::correlation`].
pub fn correlation(xs: &[f64], ys: &[f64]) -> Correlation {
    let n = xs.len().min(ys.len());
    let (xs, ys) = (&xs[..n], &ys[..n]);
    let finite = |v: &[f64]| v.iter().all(|x| x.is_finite());
    if finite(xs) && finite(ys) {
        return pair(xs, &Sums::of(xs), ys, &Sums::of(ys));
    }
    let (xs, ys): (Vec<f64>, Vec<f64>) = xs
        .iter()
        .zip(ys)
        .filter(|(x, y)| x.is_finite() && y.is_finite())
        .unzip();
    pair(&xs, &Sums::of(&xs), &ys, &Sums::of(&ys))
}

/// A numeric column prepared once for every correlation it takes part in:
/// its mean, the centred power sums that Pearson's r and the quadratic
/// fit read, and `ln` of its values with their moments. A pair's four
/// models then take two passes over the two columns and no `ln` call.
#[derive(Debug)]
pub struct PreparedColumn<'a> {
    values: Cow<'a, [f64]>,
    /// `None` when a value is not finite: such a column pairs through
    /// [`correlation`]'s filter.
    sums: Option<Sums>,
}

impl<'a> PreparedColumn<'a> {
    /// Prepare a column's values, borrowed or owned, for its pairs.
    pub fn new(values: impl Into<Cow<'a, [f64]>>) -> Self {
        let values = values.into();
        let sums = values
            .iter()
            .all(|x| x.is_finite())
            .then(|| Sums::of(&values));
        PreparedColumn { values, sums }
    }

    /// The values at `rows`, in that order, prepared: bit for bit
    /// [`PreparedColumn::new`] of those values. Each `ln` is gathered
    /// where this column holds it, and every sum is added again in the
    /// new order.
    pub fn gathered(&self, rows: &[usize]) -> PreparedColumn<'static> {
        let values: Vec<f64> = rows.iter().map(|&r| self.values[r]).collect();
        let logs = self.sums.as_ref().and_then(|s| s.logs.as_ref());
        let sums = values.iter().all(|x| x.is_finite()).then(|| match logs {
            Some(l) => Sums::new(&values, rows.iter().map(|&r| l.ln[r])),
            None => Sums::of(&values),
        });
        PreparedColumn {
            values: values.into(),
            sums,
        }
    }

    /// The prepared values, in their order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// `c(self, y)`, bit for bit [`correlation`] of the two columns'
    /// values. Two finite columns of one length go straight to the
    /// kernel; any other pair goes through the filter.
    pub fn correlation(&self, y: &PreparedColumn) -> Correlation {
        match (&self.sums, &y.sums) {
            (Some(sx), Some(sy)) if self.values.len() == y.values.len() => {
                pair(&self.values, sx, &y.values, sy)
            }
            _ => correlation(&self.values, &y.values),
        }
    }
}

/// What one finite column contributes to each of its pairs. The means
/// are `stats::mean`'s; every other sum starts at 0.0 and adds in row
/// order, as the fits it stands for do.
#[derive(Debug)]
struct Sums {
    mean: f64,
    /// Σ dxᵏ for k = 0..4, dx = x − mean: the quadratic's `s`; `pow[2]`
    /// is also Pearson's Σdx².
    pow: [f64; 5],
    /// Σ x: the quadratic's `t₀` when this column is y.
    sum: f64,
    /// Σ (x − mean)² as `r_squared` adds it: the polynomial's `ss_tot`.
    ss_tot: f64,
    /// `None` when too few values are positive for this column to take
    /// part in a log (as x) or power fit.
    logs: Option<Logs>,
}

/// `ln x` per row and the moments of its positive rows.
#[derive(Debug)]
struct Logs {
    /// `ln x`, read only where x > 0.
    ln: Vec<f64>,
    positives: usize,
    /// Mean and Σ(ln x − mean)² over the positive rows.
    mean: f64,
    ss: f64,
}

impl Sums {
    fn of(xs: &[f64]) -> Self {
        Sums::new(xs, xs.iter().map(|x| x.ln()))
    }

    /// The sums of `xs`, taking `ln` of each value from `ln`, which is
    /// read only when the column takes part in log fits.
    fn new(xs: &[f64], ln: impl Iterator<Item = f64>) -> Self {
        let mean = stats::mean(xs);
        let (mut pow, mut sum, mut ss_tot) = ([0.0; 5], 0.0, 0.0);
        for &x in xs {
            let dx = x - mean;
            let dx2 = dx * dx;
            let dx3 = dx2 * dx;
            pow[0] += 1.0;
            pow[1] += dx;
            pow[2] += dx2;
            pow[3] += dx3;
            pow[4] += dx3 * dx;
            sum += x;
            ss_tot += dx.powi(2);
        }
        let positives = xs.iter().filter(|&&x| x > 0.0).count();
        let logs = supported(positives, xs.len()).then(|| {
            let ln: Vec<f64> = ln.collect();
            let positive_ln = || ln.iter().zip(xs).filter(|(_, &x)| x > 0.0).map(|(l, _)| *l);
            let mean = match positives {
                0 => 0.0,
                k => positive_ln().sum::<f64>() / k as f64,
            };
            let ss = positive_ln().fold(0.0, |ss, l| ss + (l - mean) * (l - mean));
            Logs {
                ln,
                positives,
                mean,
                ss,
            }
        });
        Sums {
            mean,
            pow,
            sum,
            ss_tot,
            logs,
        }
    }
}

/// The four models of one ordered pair of finite columns of one length,
/// kept to the strongest in the order linear, polynomial, log, power.
///
/// Pass 1 adds Pearson's Σdx·dy, the quadratic's `t₁` and `t₂`, and the
/// log and power models' Σdx·dy over `ln` wherever every row is positive;
/// pass 2 adds the quadratic's residuals. A log or power fit over part of
/// the rows takes its own passes ([`pearson_over`]).
fn pair(xs: &[f64], x: &Sums, ys: &[f64], y: &Sums) -> Correlation {
    let n = xs.len();
    let mut best = Correlation {
        coefficient: 0.0,
        model: CorrelationModel::Linear,
    };
    if n < 2 {
        return best;
    }
    let all_positive = |l: &&Logs| l.positives == n;
    let (lx, ly) = (
        x.logs.as_ref().filter(all_positive),
        y.logs.as_ref().filter(all_positive),
    );
    let (mut sxy, mut t1, mut t2, mut log_xy, mut power_xy) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for i in 0..n {
        let dx = xs[i] - x.mean;
        let dy = ys[i] - y.mean;
        sxy += dx * dy;
        let ydx = ys[i] * dx;
        t1 += ydx;
        t2 += ydx * dx;
        if let Some(lx) = lx {
            let dlx = lx.ln[i] - lx.mean;
            log_xy += dlx * dy;
            if let Some(ly) = ly {
                power_xy += dlx * (ly.ln[i] - ly.mean);
            }
        }
    }
    let linear = pearson_from_sums(n, sxy, x.pow[2], y.pow[2]);
    best.coefficient = linear;
    let mut consider = |coefficient: f64, model: CorrelationModel| {
        if coefficient.abs() > best.coefficient.abs() {
            best = Correlation { coefficient, model };
        }
    };

    // Polynomial: the quadratic's R², signed by the linear direction.
    if n >= 4 {
        let (c0, c1, c2) =
            stats::solve_quadratic(x.pow, [y.sum, t1, t2], x.mean).unwrap_or_else(|| {
                // `linear_fit`'s line, from the same sums.
                match x.pow[2] {
                    sxx if sxx <= 0.0 => (y.mean, 0.0, 0.0),
                    sxx => {
                        let b = sxy / sxx;
                        (y.mean - b * x.mean, b, 0.0)
                    }
                }
            });
        let mut ss_res = 0.0;
        for (&x, &y) in xs.iter().zip(ys) {
            ss_res += (y - (c0 + c1 * x + c2 * x * x)).powi(2);
        }
        let r2 = match y.ss_tot {
            ss_tot if ss_tot <= 0.0 => 0.0,
            ss_tot => (1.0 - ss_res / ss_tot).clamp(0.0, 1.0),
        };
        let sign = if linear < 0.0 { -1.0 } else { 1.0 };
        consider(sign * r2.sqrt(), CorrelationModel::Polynomial);
    }

    // Log: y against ln x, over the rows with x > 0.
    if let Some(l) = &x.logs {
        let r = match lx {
            Some(_) => pearson_from_sums(n, log_xy, l.ss, y.pow[2]),
            None => pearson_over(n, |i| xs[i] > 0.0, &l.ln, ys).unwrap_or(0.0),
        };
        consider(r, CorrelationModel::Log);
    }

    // Power: ln y against ln x, over the rows with x > 0 and y > 0.
    if let (Some(l), Some(m)) = (&x.logs, &y.logs) {
        let r = match (lx, ly) {
            (Some(_), Some(_)) => Some(pearson_from_sums(n, power_xy, l.ss, m.ss)),
            _ => pearson_over(n, |i| xs[i] > 0.0 && ys[i] > 0.0, &l.ln, &m.ln),
        };
        if let Some(r) = r {
            consider(r, CorrelationModel::Power);
        }
    }

    best
}

/// Pearson's r of `n` points from their centred sums Σdx·dy, Σdx² and
/// Σdy²: 0 for fewer than two points or a side without variance.
fn pearson_from_sums(n: usize, sxy: f64, sxx: f64, syy: f64) -> f64 {
    if n < 2 || sxx <= 0.0 || syy <= 0.0 {
        return 0.0;
    }
    (sxy / (sxx.sqrt() * syy.sqrt())).clamp(-1.0, 1.0)
}

/// Pearson's r of `a` against `b` over the rows of `0..n` that `keep`
/// admits, as [`stats::pearson`] reads them from the filtered vectors;
/// `None` when too few rows are kept.
fn pearson_over(n: usize, keep: impl Fn(usize) -> bool, a: &[f64], b: &[f64]) -> Option<f64> {
    let rows: Vec<usize> = (0..n).filter(|&i| keep(i)).collect();
    if !supported(rows.len(), n) {
        return None;
    }
    if rows.len() < 2 {
        return Some(0.0);
    }
    let ma = rows.iter().map(|&i| a[i]).sum::<f64>() / rows.len() as f64;
    let mb = rows.iter().map(|&i| b[i]).sum::<f64>() / rows.len() as f64;
    let (mut sab, mut saa, mut sbb) = (0.0, 0.0, 0.0);
    for &i in &rows {
        let da = a[i] - ma;
        let db = b[i] - mb;
        sab += da * db;
        saa += da * da;
        sbb += db * db;
    }
    Some(pearson_from_sums(rows.len(), sab, saa, sbb))
}

/// Result of Eq. 4's trend test on a y-series (x taken as the sorted scale).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Trend {
    /// 1 if the series follows one of the four distributions, else 0 — the
    /// paper's `Trend(Y)` is binary.
    pub follows_distribution: bool,
    /// Goodness of the best fit in [0, 1] (R² of the winning model), kept
    /// for diagnostics and for the perception oracle.
    pub fit: f64,
    pub model: CorrelationModel,
}

/// R² threshold above which a series "follows a distribution". The paper
/// does not publish its cutoff; 0.5 makes Figure 1(c) (clear daily delay
/// pattern) pass and Figure 1(d) (structureless daily averages) fail on our
/// synthetic flight data, matching the user-study verdicts in Example 1.
pub const TREND_R2_THRESHOLD: f64 = 0.5;

fn paired_filter(
    xs: &[f64],
    ys: &[f64],
    keep: impl Fn(f64, f64) -> bool,
    fx: impl Fn(f64) -> f64,
    fy: impl Fn(f64) -> f64,
) -> (Vec<f64>, Vec<f64>) {
    let n = xs.len().min(ys.len());
    let mut tx = Vec::with_capacity(n);
    let mut ty = Vec::with_capacity(n);
    for i in 0..n {
        if xs[i].is_finite() && ys[i].is_finite() && keep(xs[i], ys[i]) {
            tx.push(fx(xs[i]));
            ty.push(fy(ys[i]));
        }
    }
    (tx, ty)
}

fn model_r2(xs: &[f64], ys: &[f64], model: CorrelationModel) -> f64 {
    let n = xs.len().min(ys.len());
    if n < 3 {
        return 0.0;
    }
    match model {
        CorrelationModel::Linear => {
            let (a, b) = linear_fit(xs, ys);
            let pred: Vec<f64> = xs[..n].iter().map(|&x| a + b * x).collect();
            r_squared(&ys[..n], &pred)
        }
        CorrelationModel::Polynomial => {
            let (c0, c1, c2) = quadratic_fit(xs, ys);
            let pred: Vec<f64> = xs[..n].iter().map(|&x| c0 + c1 * x + c2 * x * x).collect();
            r_squared(&ys[..n], &pred)
        }
        CorrelationModel::Log => {
            let (tx, ty) = paired_filter(xs, ys, |x, _| x > 0.0, f64::ln, |y| y);
            if (tx.len() as f64) < MIN_SUPPORT * n as f64 {
                return 0.0;
            }
            let (a, b) = linear_fit(&tx, &ty);
            let pred: Vec<f64> = tx.iter().map(|&x| a + b * x).collect();
            r_squared(&ty, &pred)
        }
        CorrelationModel::Power => {
            let (tx, ty) = paired_filter(xs, ys, |x, y| x > 0.0 && y > 0.0, f64::ln, f64::ln);
            if (tx.len() as f64) < MIN_SUPPORT * n as f64 {
                return 0.0;
            }
            let (a, b) = linear_fit(&tx, &ty);
            let pred: Vec<f64> = tx.iter().map(|&x| a + b * x).collect();
            r_squared(&ty, &pred)
        }
        CorrelationModel::Exponential => {
            let (tx, ty) = paired_filter(xs, ys, |_, y| y > 0.0, |x| x, f64::ln);
            if (tx.len() as f64) < MIN_SUPPORT * n as f64 {
                return 0.0;
            }
            let (a, b) = linear_fit(&tx, &ty);
            let pred: Vec<f64> = tx.iter().map(|&x| a + b * x).collect();
            r_squared(&ty, &pred)
        }
    }
}

/// Eq. 4's `Trend(Y)` over a y-series indexed by its x positions. Tries the
/// linear, power, log, and exponential models (plus quadratic, which the
/// paper's examples like Figure 1(c)'s daily curve implicitly need) and
/// reports whether any fit exceeds [`TREND_R2_THRESHOLD`].
pub fn trend(xs: &[f64], ys: &[f64]) -> Trend {
    let models = [
        CorrelationModel::Linear,
        CorrelationModel::Polynomial,
        CorrelationModel::Power,
        CorrelationModel::Log,
        CorrelationModel::Exponential,
    ];
    let mut best = Trend {
        follows_distribution: false,
        fit: 0.0,
        model: CorrelationModel::Linear,
    };
    for m in models {
        let fit = model_r2(xs, ys, m);
        if fit > best.fit {
            best = Trend {
                follows_distribution: fit >= TREND_R2_THRESHOLD,
                fit,
                model: m,
            };
        }
    }
    best
}

/// Convenience: trend of a y-series against its own index (0, 1, 2, …),
/// which is how a sorted x-scale series is evaluated.
pub fn trend_of_series(ys: &[f64]) -> Trend {
    let xs: Vec<f64> = (1..=ys.len()).map(|i| i as f64).collect();
    trend(&xs, ys)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn range(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn linear_correlation_detected() {
        let xs = range(50);
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x + 1.0).collect();
        let c = correlation(&xs, &ys);
        assert!(c.coefficient > 0.999);
        assert_eq!(c.model, CorrelationModel::Linear);
    }

    #[test]
    fn log_correlation_beats_linear_on_log_data() {
        let xs = range(200);
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x.ln() + 0.5).collect();
        let c = correlation(&xs, &ys);
        assert!(c.strength() > 0.999, "strength={}", c.strength());
        assert_eq!(c.model, CorrelationModel::Log);
    }

    #[test]
    fn power_correlation_detected() {
        let xs = range(100);
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x.powf(1.7)).collect();
        let c = correlation(&xs, &ys);
        assert!(c.strength() > 0.999);
        assert_eq!(c.model, CorrelationModel::Power);
    }

    #[test]
    fn polynomial_correlation_detected() {
        // Symmetric parabola: linear r ≈ 0 but quadratic fits perfectly.
        let xs: Vec<f64> = (-50..=50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x * x).collect();
        let c = correlation(&xs, &ys);
        assert!(c.strength() > 0.99, "strength={}", c.strength());
        assert_eq!(c.model, CorrelationModel::Polynomial);
    }

    /// Deterministic xorshift noise for structureless test series.
    fn noise(n: usize) -> Vec<f64> {
        let mut state = 0x9e3779b97f4a7c15u64;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 1000) as f64
            })
            .collect()
    }

    #[test]
    fn noise_has_low_correlation() {
        let xs = range(100);
        let ys = noise(100);
        let c = correlation(&xs, &ys);
        assert!(c.strength() < 0.3, "strength={}", c.strength());
    }

    #[test]
    fn negative_correlation_signed() {
        let xs = range(50);
        let ys: Vec<f64> = xs.iter().map(|x| 100.0 - 2.0 * x).collect();
        let c = correlation(&xs, &ys);
        assert!(c.coefficient < -0.999);
        assert_eq!(c.strength(), c.coefficient.abs());
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(correlation(&[], &[]).coefficient, 0.0);
        assert_eq!(correlation(&[1.0], &[2.0]).coefficient, 0.0);
        assert_eq!(
            correlation(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]).coefficient,
            0.0
        );
        let c = correlation(&[f64::NAN, 1.0], &[1.0, 2.0]);
        assert!(c.coefficient.is_finite());
    }

    #[test]
    fn trend_detects_exponential() {
        let ys: Vec<f64> = (1..=30).map(|i| (0.2 * i as f64).exp()).collect();
        let t = trend_of_series(&ys);
        assert!(t.follows_distribution);
        assert!(t.fit > 0.99);
        // Exponential data is also perfectly power/poly-fittable in parts;
        // accept any model as long as the distribution test passes.
    }

    #[test]
    fn trend_rejects_structureless_series() {
        let t = trend_of_series(&noise(60));
        assert!(!t.follows_distribution, "fit={} model={:?}", t.fit, t.model);
    }

    #[test]
    fn trend_detects_linear() {
        let ys: Vec<f64> = (1..=20).map(|i| 3.0 * i as f64 + 1.0).collect();
        let t = trend_of_series(&ys);
        assert!(t.follows_distribution);
        assert_eq!(t.model, CorrelationModel::Linear);
    }

    #[test]
    fn trend_handles_short_series() {
        assert!(!trend_of_series(&[]).follows_distribution);
        assert!(!trend_of_series(&[1.0, 2.0]).follows_distribution);
    }
}
