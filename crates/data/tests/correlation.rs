//! The correlation kernel against the implementation it replaced: every
//! coefficient by its bits, and the model.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use deepeye_data::{correlation, Correlation, CorrelationModel, PreparedColumn};
use proptest::collection::vec;
use proptest::prelude::*;

/// `c(X, Y)` before the kernel: a finite filter, then each model fitted
/// from its own filtered vectors, with the polynomial signed by a second
/// Pearson.
mod oracle {
    use deepeye_data::stats::{pearson, quadratic_fit, r_squared};
    use deepeye_data::{Correlation, CorrelationModel};

    const MIN_SUPPORT: f64 = 0.8;

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

    fn polynomial_r(xs: &[f64], ys: &[f64]) -> f64 {
        let n = xs.len().min(ys.len());
        if n < 4 {
            return 0.0;
        }
        let (c0, c1, c2) = quadratic_fit(xs, ys);
        let predicted: Vec<f64> = xs[..n].iter().map(|&x| c0 + c1 * x + c2 * x * x).collect();
        let r2 = r_squared(&ys[..n], &predicted);
        let sign = if pearson(xs, ys) < 0.0 { -1.0 } else { 1.0 };
        sign * r2.sqrt()
    }

    pub fn correlation(raw_xs: &[f64], raw_ys: &[f64]) -> Correlation {
        let (fx, fy) = paired_filter(raw_xs, raw_ys, |_, _| true, |x| x, |y| y);
        let (xs, ys) = (fx.as_slice(), fy.as_slice());
        let n = xs.len() as f64;
        let mut best = Correlation {
            coefficient: pearson(xs, ys),
            model: CorrelationModel::Linear,
        };
        let mut consider = |coefficient: f64, model: CorrelationModel| {
            if coefficient.abs() > best.coefficient.abs() {
                best = Correlation { coefficient, model };
            }
        };
        consider(polynomial_r(xs, ys), CorrelationModel::Polynomial);
        let (lx, ly) = paired_filter(xs, ys, |x, _| x > 0.0, f64::ln, |y| y);
        if lx.len() as f64 >= MIN_SUPPORT * n {
            consider(pearson(&lx, &ly), CorrelationModel::Log);
        }
        let (px, py) = paired_filter(xs, ys, |x, y| x > 0.0 && y > 0.0, f64::ln, f64::ln);
        if px.len() as f64 >= MIN_SUPPORT * n {
            consider(pearson(&px, &py), CorrelationModel::Power);
        }
        best
    }
}

fn bits(c: Correlation) -> (u64, CorrelationModel) {
    (c.coefficient.to_bits(), c.model)
}

/// `correlation` and both directions of the prepared pair equal the
/// oracle.
fn check(xs: &[f64], ys: &[f64]) -> Result<(), TestCaseError> {
    let want = bits(oracle::correlation(xs, ys));
    prop_assert_eq!(bits(correlation(xs, ys)), want, "{:?} {:?}", xs, ys);
    let (px, py) = (PreparedColumn::new(xs), PreparedColumn::new(ys));
    prop_assert_eq!(
        bits(px.correlation(&py)),
        want,
        "prepared {:?} {:?}",
        xs,
        ys
    );
    let back = bits(oracle::correlation(ys, xs));
    prop_assert_eq!(
        bits(py.correlation(&px)),
        back,
        "prepared {:?} {:?}",
        ys,
        xs
    );
    Ok(())
}

fn assert_matches(xs: &[f64], ys: &[f64]) {
    check(xs, ys).unwrap();
}

const SPECIAL: [f64; 10] = [
    0.0,
    -0.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1e300,
    -1e300,
    1e-300,
    f64::MIN_POSITIVE,
    5e-324,
];

/// A column of one kind: all positive (the log and power models share
/// pass 1), mixed signs, small integers (ties, zeros, constants), about
/// 80% positive, or positive with special values among them.
fn column(
    len: impl Into<proptest::strategy::SizeRange> + Clone,
) -> impl Strategy<Value = Vec<f64>> {
    let special = (0usize..SPECIAL.len()).prop_map(|i| SPECIAL[i]);
    prop_oneof![
        vec(0.001f64..1e3, len.clone()),
        vec(-1e3f64..1e3, len.clone()),
        vec((-3i32..4).prop_map(f64::from), len.clone()),
        vec(
            prop_oneof![
                0.5f64..50.0,
                0.5f64..50.0,
                0.5f64..50.0,
                0.5f64..50.0,
                -50f64..0.0
            ],
            len.clone()
        ),
        vec(prop_oneof![0.5f64..50.0, 0.5f64..50.0, special], len),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// Arbitrary slices, unequal lengths included.
    #[test]
    fn kernel_equals_the_oracle(xs in column(0..40), ys in column(0..40)) {
        check(&xs, &ys)?;
    }

    /// Columns of one length: the prepared kernel in both directions.
    #[test]
    fn prepared_pairs_equal_the_oracle(
        (xs, ys) in (0usize..40).prop_flat_map(|n| (column(n), column(n)))
    ) {
        check(&xs, &ys)?;
    }
}

/// `-0.0` beside `0.0`: every product of Pearson's Σdx·dy is `-0.0`, so
/// the linear coefficient's sign is the sum's start value.
#[test]
fn negative_zero_beside_zero() {
    let (xs, ys) = ([-1.0, 1.0, 0.0, -0.0], [0.0, -0.0, -1.0, 1.0]);
    assert_eq!(
        bits(oracle::correlation(&xs, &ys)),
        (0, CorrelationModel::Linear)
    );
    assert_matches(&xs, &ys);
}

#[test]
fn constant_columns() {
    let ramp = [1.0, 2.0, 3.0, 4.0, 5.0];
    assert_matches(&[2.0; 5], &ramp);
    assert_matches(&ramp, &[2.0; 5]);
    assert_matches(&[-3.0; 6], &[0.0; 6]);
}

/// Exactly 80% of x positive: the log model is supported, over the rows
/// with x > 0 only, and wins.
#[test]
fn exactly_eighty_percent_positive() {
    let xs = [1.0, 2.0, 3.0, 4.0, -1.0];
    let ys = [0.0, 2f64.ln(), 3f64.ln(), 4f64.ln(), 9.0];
    assert_eq!(oracle::correlation(&xs, &ys).model, CorrelationModel::Log);
    assert_matches(&xs, &ys);
    // One positive fewer: neither transformed model is supported.
    assert_matches(&[1.0, 2.0, 3.0, -4.0, -1.0], &ys);
}

/// A two-valued y makes ln y an affine image of y, so the log and power
/// models tie exactly; the earlier model, log, keeps the tie.
#[test]
fn log_and_power_tie_goes_to_log() {
    let (xs, ys) = ([37.0, 3.0, 42.0, 14.0, 54.0], [7.0, 2.0, 7.0, 7.0, 7.0]);
    let want = oracle::correlation(&xs, &ys);
    assert_eq!(want.model, CorrelationModel::Log);
    let (lx, ly): (Vec<f64>, Vec<f64>) = xs
        .iter()
        .map(|x| x.ln())
        .zip(ys.iter().map(|y| y.ln()))
        .unzip();
    assert_eq!(deepeye_data::stats::pearson(&lx, &ly), want.coefficient);
    assert_matches(&xs, &ys);
}

#[test]
fn non_finite_cells_are_dropped() {
    let xs = [
        1.0,
        f64::NAN,
        3.0,
        f64::INFINITY,
        5.0,
        6.0,
        f64::NEG_INFINITY,
        8.0,
    ];
    let ys = [2.0, 4.0, f64::NAN, 8.0, 11.0, 11.5, 1.0, 17.0];
    assert_matches(&xs, &ys);
    assert_matches(&[f64::NAN; 3], &[1.0, 2.0, 3.0]);
}

/// Lengths 0–4 cross the Pearson (2) and quadratic (4) thresholds.
#[test]
fn short_columns() {
    let xs = [1.0, 2.0, 4.0, 3.0];
    let ys = [1.0, 4.0, 2.0, 9.0];
    for n in 0..=4 {
        assert_matches(&xs[..n], &ys[..n]);
    }
    let c = correlation(&xs[..3], &ys[..3]);
    assert_ne!(c.model, CorrelationModel::Polynomial);
}

/// The i-th x pairs with the i-th y, truncated to the shorter side.
#[test]
fn unequal_lengths_truncate() {
    let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
    let ys = [2.0, 1.0, 4.0, 3.0, 6.0];
    assert_matches(&xs, &ys);
    assert_matches(&ys, &xs);
}

/// Sums of squares overflow to infinity at 1e300 and underflow to zero
/// at 1e-300; at 1e±150 they stay finite while their product does not.
#[test]
fn extreme_magnitudes() {
    let ramp = [1.0, 2.0, 3.0, 4.0, 5.0];
    let scaled = |k: f64| [1.0 * k, 3.0 * k, 2.0 * k, 5.0 * k, 4.0 * k];
    for k in [1e300, 1e-300, 1e150, 1e-150] {
        assert_matches(&scaled(k), &ramp);
        assert_matches(&scaled(k), &scaled(k.recip()));
    }
    assert_matches(&[-1e300, 1e300, -1e300, 1e300, 0.5], &ramp);
}

/// x with two distinct values makes the quadratic's normal equations
/// singular, so the fit falls back to `linear_fit`'s line; here that
/// line's R² edges out the linear model.
#[test]
fn near_singular_quadratic_falls_back_to_a_line() {
    let xs = [1.0, 1.0, 1.0, -1.0, -1.0, 1.0];
    let ys = [4.0, 5.0, 5.0, 3.0, -2.0, -1.0];
    assert_eq!(deepeye_data::stats::quadratic_fit(&xs, &ys).2, 0.0);
    assert_eq!(
        oracle::correlation(&xs, &ys).model,
        CorrelationModel::Polynomial
    );
    assert_matches(&xs, &ys);
}
