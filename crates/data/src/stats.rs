//! Descriptive statistics used by feature extraction and the ranking
//! factors: moments, entropy (the `-Σ p log p` term of Eq. 1), and simple
//! least-squares fits shared by the correlation and trend detectors.

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population variance; 0 for fewer than two values.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn stddev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Minimum of a slice; `None` when empty.
pub fn min(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().fold(None, |acc: Option<f64>, x| {
        Some(acc.map_or(x, |a| a.min(x)))
    })
}

/// Maximum of a slice; `None` when empty.
pub fn max(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().fold(None, |acc: Option<f64>, x| {
        Some(acc.map_or(x, |a| a.max(x)))
    })
}

/// Shannon entropy (nats) of a distribution given by non-negative weights.
///
/// Equation 1 of the paper scores pie charts by `-Σ_y p(y)·log p(y)` where
/// `p(y)` is a slice's share of the whole; diverse slice sizes give higher
/// entropy and thus a more informative pie chart.
pub fn entropy(weights: &[f64]) -> f64 {
    let total: f64 = weights.iter().filter(|w| **w > 0.0).sum();
    if total <= 0.0 {
        return 0.0;
    }
    weights
        .iter()
        .filter(|w| **w > 0.0)
        .map(|w| {
            let p = w / total;
            -p * p.ln()
        })
        .sum()
}

/// Normalized entropy in [0, 1]: entropy divided by `ln(k)` for `k` positive
/// weights. 1 means uniform, 0 means a single slice dominates (or k < 2).
pub fn normalized_entropy(weights: &[f64]) -> f64 {
    let k = weights.iter().filter(|w| **w > 0.0).count();
    if k < 2 {
        return 0.0;
    }
    (entropy(weights) / (k as f64).ln()).clamp(0.0, 1.0)
}

/// Pearson correlation coefficient of two equal-length slices.
///
/// Returns 0 when either side has zero variance or fewer than two points,
/// so callers can treat "no correlation computable" and "no correlation"
/// uniformly.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len().min(ys.len());
    if n < 2 {
        return 0.0;
    }
    let (xs, ys) = (&xs[..n], &ys[..n]);
    let mx = mean(xs);
    let my = mean(ys);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for i in 0..n {
        let dx = xs[i] - mx;
        let dy = ys[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return 0.0;
    }
    (sxy / (sxx.sqrt() * syy.sqrt())).clamp(-1.0, 1.0)
}

/// Least-squares straight line `y = a + b·x`; returns `(a, b)`.
/// Falls back to a horizontal line through the mean when x is degenerate.
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> (f64, f64) {
    let n = xs.len().min(ys.len());
    if n == 0 {
        return (0.0, 0.0);
    }
    let (xs, ys) = (&xs[..n], &ys[..n]);
    let mx = mean(xs);
    let my = mean(ys);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    for i in 0..n {
        sxy += (xs[i] - mx) * (ys[i] - my);
        sxx += (xs[i] - mx) * (xs[i] - mx);
    }
    if sxx <= 0.0 {
        return (my, 0.0);
    }
    let b = sxy / sxx;
    (my - b * mx, b)
}

/// Coefficient of determination R² of predictions against observations,
/// clamped to [0, 1].
pub fn r_squared(observed: &[f64], predicted: &[f64]) -> f64 {
    let n = observed.len().min(predicted.len());
    if n < 2 {
        return 0.0;
    }
    let m = mean(&observed[..n]);
    let mut ss_res = 0.0;
    let mut ss_tot = 0.0;
    for i in 0..n {
        ss_res += (observed[i] - predicted[i]).powi(2);
        ss_tot += (observed[i] - m).powi(2);
    }
    if ss_tot <= 0.0 {
        return 0.0;
    }
    (1.0 - ss_res / ss_tot).clamp(0.0, 1.0)
}

/// Least-squares quadratic `y = c0 + c1·x + c2·x²` via the normal equations
/// of a 3×3 system; returns `(c0, c1, c2)`.
pub fn quadratic_fit(xs: &[f64], ys: &[f64]) -> (f64, f64, f64) {
    let n = xs.len().min(ys.len());
    if n < 3 {
        let (a, b) = linear_fit(xs, ys);
        return (a, b, 0.0);
    }
    // Center x for conditioning.
    let mx = mean(&xs[..n]);
    let mut s = [0.0f64; 5]; // Σ x^k for k=0..4
    let mut t = [0.0f64; 3]; // Σ y·x^k for k=0..2
    for (&x, &y) in xs[..n].iter().zip(&ys[..n]) {
        let x = x - mx;
        let mut p = 1.0;
        for sk in s.iter_mut() {
            *sk += p;
            p *= x;
        }
        t[0] += y;
        t[1] += y * x;
        t[2] += y * x * x;
    }
    solve_quadratic(s, t, mx).unwrap_or_else(|| {
        let (c0, c1) = linear_fit(xs, ys);
        (c0, c1, 0.0)
    })
}

/// Solve the quadratic's normal equations from the centred sums `s`
/// (Σ dxᵏ, k = 0..4, with dx = x − `mx`) and `t` (Σ y·dxᵏ, k = 0..2), and
/// un-centre the coefficients; `None` when the system is near-singular,
/// where [`quadratic_fit`] falls back to a line.
pub(crate) fn solve_quadratic(s: [f64; 5], t: [f64; 3], mx: f64) -> Option<(f64, f64, f64)> {
    // Solve the symmetric system [[s0,s1,s2],[s1,s2,s3],[s2,s3,s4]] c = t
    // by Gaussian elimination with partial pivoting.
    let mut a = [
        [s[0], s[1], s[2], t[0]],
        [s[1], s[2], s[3], t[1]],
        [s[2], s[3], s[4], t[2]],
    ];
    for col in 0..3 {
        let pivot = (col..3)
            .max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
            .unwrap_or(col);
        a.swap(col, pivot);
        if a[col][col].abs() < 1e-12 {
            return None;
        }
        for row in 0..3 {
            if row != col {
                let f = a[row][col] / a[col][col];
                let pivot_row = a[col];
                for (cell, pivot) in a[row][col..4].iter_mut().zip(&pivot_row[col..4]) {
                    *cell -= f * pivot;
                }
            }
        }
    }
    let c0c = a[0][3] / a[0][0];
    let c1c = a[1][3] / a[1][1];
    let c2c = a[2][3] / a[2][2];
    // Un-center: y = c0c + c1c (x - mx) + c2c (x - mx)^2.
    let c0 = c0c - c1c * mx + c2c * mx * mx;
    let c1 = c1c - 2.0 * c2c * mx;
    Some((c0, c1, c2c))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_moments() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), 2.5);
        assert!((variance(&xs) - 1.25).abs() < 1e-12);
        assert_eq!(min(&xs), Some(1.0));
        assert_eq!(max(&xs), Some(4.0));
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[5.0]), 0.0);
        assert_eq!(min(&[]), None);
    }

    #[test]
    fn entropy_extremes() {
        // Uniform distribution over 4 values: ln 4.
        assert!((entropy(&[1.0, 1.0, 1.0, 1.0]) - 4.0f64.ln()).abs() < 1e-12);
        // Single spike: zero entropy.
        assert_eq!(entropy(&[10.0, 0.0, 0.0]), 0.0);
        assert_eq!(entropy(&[]), 0.0);
        assert_eq!(entropy(&[0.0, 0.0]), 0.0);
        // Negative weights are ignored rather than producing NaN.
        assert!(entropy(&[-1.0, 2.0, 2.0]).is_finite());
    }

    #[test]
    fn normalized_entropy_bounds() {
        assert_eq!(normalized_entropy(&[1.0, 1.0]), 1.0);
        assert_eq!(normalized_entropy(&[5.0]), 0.0);
        let e = normalized_entropy(&[8.0, 1.0, 1.0]);
        assert!(e > 0.0 && e < 1.0);
    }

    #[test]
    fn pearson_known_values() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let up = [2.0, 4.0, 6.0, 8.0];
        let down = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&xs, &up) - 1.0).abs() < 1e-12);
        assert!((pearson(&xs, &down) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&xs, &[5.0, 5.0, 5.0, 5.0]), 0.0);
        assert_eq!(pearson(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn linear_fit_recovers_line() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 + 2.0 * x).collect();
        let (a, b) = linear_fit(&xs, &ys);
        assert!((a - 3.0).abs() < 1e-9);
        assert!((b - 2.0).abs() < 1e-9);
        // Degenerate x.
        let (a, b) = linear_fit(&[1.0, 1.0], &[2.0, 4.0]);
        assert_eq!((a, b), (3.0, 0.0));
    }

    #[test]
    fn quadratic_fit_recovers_parabola() {
        let xs: Vec<f64> = (0..20).map(|i| i as f64 / 2.0).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 1.0 - 2.0 * x + 0.5 * x * x).collect();
        let (c0, c1, c2) = quadratic_fit(&xs, &ys);
        assert!((c0 - 1.0).abs() < 1e-6, "c0={c0}");
        assert!((c1 + 2.0).abs() < 1e-6, "c1={c1}");
        assert!((c2 - 0.5).abs() < 1e-6, "c2={c2}");
    }

    #[test]
    fn r_squared_perfect_and_mean() {
        let obs = [1.0, 2.0, 3.0];
        assert_eq!(r_squared(&obs, &obs), 1.0);
        assert_eq!(r_squared(&obs, &[2.0, 2.0, 2.0]), 0.0);
        // Worse than the mean clamps to 0.
        assert_eq!(r_squared(&obs, &[3.0, 2.0, 1.0]), 0.0);
    }
}
