//! Single-feature linear regression — the work-horse leaf model.
//!
//! The paper (§3.6) observes that "a closed form solution exists for
//! linear multi-variate models … and they can be trained in a single pass
//! over the sorted data", and §3.7.1 finds that "for the second stage,
//! simple, linear models had the best performance". This module is that
//! model: `predict(x) = slope · x + intercept`, fitted by ordinary least
//! squares in one pass of four running sums — no division per point.
//!
//! # Why the sums are shifted
//!
//! The textbook one-pass form `slope = (nΣxy − ΣxΣy) / (nΣx² − (Σx)²)`
//! subtracts two numbers of size `n·x²` to get one of size `n·range²`.
//! Keys reach 2⁶⁴ while a leaf spans perhaps 2¹² of them, so the
//! difference sits 2·(64 − 12) = 104 bits below its operands and an
//! `f64` keeps 53: naive Σx² returns noise. [`LinearFit`] instead sums
//! `dx = x − x₀` and `dy = y − y₀`, with `(x₀, y₀)` the **first point
//! pushed**. The same subtraction is still there
//! (`Σdx² − (Σdx)²/n`), but because x₀ is itself one of the samples,
//! `Σdx² = var + n·(x̄ − x₀)²` and `var ≥ (x̄ − x₀)²`, so
//! `Σdx² ≤ (n + 1)·var`: the operands are at most `n + 1` times the
//! result and the cancellation costs at most log₂(n + 1) bits — 12 for a
//! leaf, 20 for a million-key shard — whatever the key magnitude. On
//! sorted keys (the only input the index gives it) the ratio is about 4,
//! i.e. two bits. `dx` itself is exact whenever the two keys are within
//! a factor of two of each other (Sterbenz), which is every leaf of a
//! large-key set; further apart, it is rounded once at the magnitude of
//! the spread — the scale of the answer — not at that of the keys.

use crate::Model;

/// `y = slope · x + intercept`, fitted by least squares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearModel {
    slope: f64,
    intercept: f64,
}

impl LinearModel {
    /// A model with explicit coefficients.
    pub fn new(slope: f64, intercept: f64) -> Self {
        Self { slope, intercept }
    }

    /// The identity-ish degenerate model mapping everything to `0`.
    pub fn constant(value: f64) -> Self {
        Self {
            slope: 0.0,
            intercept: value,
        }
    }

    /// Fit by OLS over `(x, y)` pairs produced by the iterator.
    ///
    /// One pass, O(1) memory: every pair goes through one [`LinearFit`].
    /// For zero points the model predicts 0; for one point, a constant;
    /// for degenerate x-variance (all x equal), the mean of y.
    pub fn fit(pairs: impl Iterator<Item = (f64, f64)>) -> Self {
        let mut acc = LinearFit::new();
        for (x, y) in pairs {
            acc.push(x, y);
        }
        acc.finish()
    }

    /// Fit over a sorted key slice where `y` is the index: the exact
    /// "model of the CDF scaled by N" (§2.2) used by RMI stages.
    pub fn fit_keys(keys: &[f64]) -> Self {
        Self::fit(keys.iter().enumerate().map(|(i, &k)| (k, i as f64)))
    }

    /// Slope coefficient.
    pub fn slope(&self) -> f64 {
        self.slope
    }

    /// Intercept coefficient.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }
}

/// The running sums of a one-pass least-squares fit, shifted to the
/// first point pushed (see the module documentation for why).
///
/// [`LinearModel::fit`] and the RMI's stage fits both feed their points
/// through this type in the same order, which is what keeps their
/// coefficients bit-identical to one another. It is `Copy`
/// and seven words, so a caller that interleaves several fits (one per
/// RMI leaf) can keep the active one in registers and park the rest in
/// an array.
///
/// # Examples
/// ```
/// use li_models::{LinearFit, Model};
///
/// let mut acc = LinearFit::new();
/// for (i, key) in [10.0, 20.0, 30.0].into_iter().enumerate() {
///     acc.push(key, i as f64);
/// }
/// assert_eq!(acc.len(), 3);
/// assert!((acc.finish().predict(20.0) - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LinearFit {
    n: usize,
    x0: f64,
    y0: f64,
    sum_dx: f64,
    sum_dy: f64,
    sum_dxdy: f64,
    sum_dxdx: f64,
}

impl LinearFit {
    /// An accumulator holding no points.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one `(x, y)` point: four multiply-adds, no division.
    #[inline(always)]
    pub fn push(&mut self, x: f64, y: f64) {
        if self.n == 0 {
            self.x0 = x;
            self.y0 = y;
        }
        let dx = x - self.x0;
        let dy = y - self.y0;
        self.n += 1;
        self.sum_dx += dx;
        self.sum_dy += dy;
        self.sum_dxdy += dx * dy;
        self.sum_dxdx += dx * dx;
    }

    /// Number of points pushed so far.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether no point has been pushed.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The least-squares line through the points pushed so far, with the
    /// degenerate cases of [`LinearModel::fit`].
    pub fn finish(&self) -> LinearModel {
        if self.n == 0 {
            return LinearModel::constant(0.0);
        }
        let n = self.n as f64;
        let mean_dx = self.sum_dx / n;
        let mean_dy = self.sum_dy / n;
        let mean_y = self.y0 + mean_dy;
        let var_x = self.sum_dxdx - self.sum_dx * mean_dx; // Σ (x - mean_x)²
        let cov_xy = self.sum_dxdy - self.sum_dx * mean_dy; // Σ (x - mean_x)(y - mean_y)
        if var_x <= 0.0 || !var_x.is_finite() {
            return LinearModel::constant(mean_y);
        }
        let slope = cov_xy / var_x;
        let intercept = mean_y - slope * (self.x0 + mean_dx);
        if !slope.is_finite() || !intercept.is_finite() {
            return LinearModel::constant(mean_y);
        }
        LinearModel { slope, intercept }
    }
}

impl Model for LinearModel {
    #[inline(always)]
    fn predict(&self, x: f64) -> f64 {
        // One multiply-add: the paper's headline "simple linear model …
        // a single multiplication and addition" (§2).
        self.slope * x + self.intercept
    }

    fn size_bytes(&self) -> usize {
        2 * std::mem::size_of::<f64>()
    }

    fn op_count(&self) -> usize {
        2
    }

    fn is_monotonic(&self) -> bool {
        self.slope >= 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_fit_on_affine_data() {
        // The paper's §2 example: keys 1M..2M stored at positions 0..1M —
        // a single linear model predicts perfectly.
        let keys: Vec<f64> = (0..1000).map(|i| 1_000_000.0 + i as f64).collect();
        let m = LinearModel::fit_keys(&keys);
        for (i, &k) in keys.iter().enumerate() {
            assert!((m.predict(k) - i as f64).abs() < 1e-6);
        }
        assert!(m.is_monotonic());
    }

    #[test]
    fn empty_and_single_point() {
        let m = LinearModel::fit(std::iter::empty());
        assert_eq!(m.predict(123.0), 0.0);
        let m = LinearModel::fit([(5.0, 7.0)].into_iter());
        assert_eq!(m.predict(0.0), 7.0);
        assert_eq!(m.predict(100.0), 7.0);
    }

    #[test]
    fn degenerate_x_gives_mean_of_y() {
        let m = LinearModel::fit([(2.0, 1.0), (2.0, 3.0), (2.0, 5.0)].into_iter());
        assert!((m.predict(2.0) - 3.0).abs() < 1e-12);
        assert_eq!(m.slope(), 0.0);
    }

    #[test]
    fn huge_key_magnitudes_stay_stable() {
        // Keys near 2^63 with spacing above the f64 ulp (2048 at 9e18);
        // naive Σx² accumulation would still lose all precision here.
        let base = 9.0e18;
        let keys: Vec<f64> = (0..10_000).map(|i| base + (i * 4096) as f64).collect();
        let m = LinearModel::fit_keys(&keys);
        let mut worst = 0.0f64;
        for (i, &k) in keys.iter().enumerate() {
            worst = worst.max((m.predict(k) - i as f64).abs());
        }
        assert!(worst < 1.0, "worst abs error {worst}");
    }

    #[test]
    fn least_squares_beats_endpoint_interpolation_on_noisy_data() {
        // y = 2x + noise; OLS slope should approach 2.
        let mut rng = crate::rng::SplitMix64::new(5);
        let pairs: Vec<(f64, f64)> = (0..5000)
            .map(|i| (i as f64, 2.0 * i as f64 + rng.normal() * 10.0))
            .collect();
        let m = LinearModel::fit(pairs.iter().copied());
        assert!((m.slope() - 2.0).abs() < 0.01, "slope {}", m.slope());
    }

    #[test]
    fn negative_slope_is_not_monotonic() {
        let m = LinearModel::fit([(0.0, 10.0), (10.0, 0.0)].into_iter());
        assert!(!m.is_monotonic());
    }

    #[test]
    fn model_trait_metadata() {
        let m = LinearModel::new(1.0, 0.0);
        assert_eq!(m.size_bytes(), 16);
        assert_eq!(m.op_count(), 2);
    }
}
