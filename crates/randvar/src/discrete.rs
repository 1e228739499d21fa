//! Discretized random variables — the paper's sampled-PDF calculus.
//!
//! §II of the paper: the makespan distribution is computed by combining task
//! and communication distributions with two operators,
//!
//! * **sum** (serial dependency): the PDF of `X + Y` is the convolution of
//!   the PDFs, "calculated numerically using Fast Fourier Transform";
//! * **max** (join of independent branches): the CDF of `max(X, Y)` is the
//!   product of the CDFs.
//!
//! §V: "sampling each probability density with 64 values was largely
//! sufficient with cubic spline interpolation", with Simpson integration and
//! Overlap-Add convolution as supporting numerics.
//!
//! [`DiscreteRv`] stores a PDF sampled on a uniform grid over a finite
//! support together with its CDF (cumulative trapezoid). Point masses
//! (zero-width support) are first-class: sums shift, maxima clamp, and the
//! schedule evaluator never has to special-case deterministic inputs.

use crate::dist::Dist;
use crate::workspace::{with_thread_workspace, RvWorkspace};
use robusched_numeric::convolution::convolve_auto_into;
use robusched_numeric::grid::linspace;
use robusched_numeric::integrate::{
    cumulative_trapezoid_into, simpson_uniform, simpson_uniform_fn, trapezoid_uniform,
    trapezoid_uniform_fn,
};
use robusched_numeric::interp::{SplineScratch, UniformLocalCubic, UniformSpline};
use robusched_numeric::smooth::clamp_nonnegative;

/// Working resolution for intermediate convolutions; the result is
/// resampled back down to the caller-visible grid.
const WORK_POINTS: usize = 257;

/// Grid resolution used when comparing two variables (KS/CM distances).
const COMPARE_POINTS: usize = 513;

/// Exact quadrature weight of grid point `i` under [`simpson_uniform`] on
/// an `n`-point grid of step `h`, obtained by integrating the unit vector
/// eᵢ. Used to deposit point masses (atoms) onto the grid so that the
/// Simpson-normalized mass of the atom is exact for any grid parity.
fn quad_weight(i: usize, n: usize, h: f64) -> f64 {
    let mut e = vec![0.0; n];
    e[i] = 1.0;
    simpson_uniform(&e, h)
}

/// The `i`-th abscissa of the `n`-point uniform grid over `[lo, hi]` with
/// precomputed `step`, by the same endpoint-pinned arithmetic as
/// [`linspace`] (`lo + step·i`, last point exactly `hi`).
///
/// Every fused loop in this module MUST go through this one helper: the
/// wrapper-vs-`_into` and fused-vs-materialized bit-identity contracts
/// (asserted in the tests and in `tests/eval_cache.rs`) hold only while
/// all grid abscissae are produced by identical floating-point operations.
#[inline]
fn grid_x(lo: f64, hi: f64, step: f64, n: usize, i: usize) -> f64 {
    if i == n - 1 {
        hi
    } else {
        lo + step * i as f64
    }
}

/// Grid interval `i = ⌊t⌋` (capped at `last`) of a fractional grid
/// position `t = (x − lo)/h`, and the offset `t − i` within it — the
/// lookup behind every linear interpolation on the grid.
///
/// Callers guarantee `t ≥ 0` or NaN. Truncation then equals `floor`, which
/// baseline x86-64 (no `roundsd`) can only do through a libm call; a NaN
/// casts to 0 under both. The casts go through `i64`, one instruction each
/// way where the `usize` ones take several: for `t < 2⁶³` both truncate
/// alike, beyond it both saturate past `last`, and `i ≤ last` converts back
/// to the same `f64` either way.
#[inline(always)]
fn grid_cell(t: f64, last: usize) -> (usize, f64) {
    let i = (t as i64 as usize).min(last);
    (i, t - i as i64 as f64)
}

/// A random variable represented by a sampled PDF on a uniform grid.
#[derive(Debug, Clone)]
pub struct DiscreteRv {
    lo: f64,
    hi: f64,
    /// Density at the grid points; empty iff the variable is a point mass.
    pdf: Vec<f64>,
    /// CDF at the grid points (same length as `pdf`), `cdf[0] = 0`,
    /// `cdf[n-1] = 1` after normalization.
    cdf: Vec<f64>,
}

impl DiscreteRv {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// A deterministic value (point mass).
    pub fn point(x: f64) -> Self {
        assert!(x.is_finite(), "point mass must be finite");
        Self {
            lo: x,
            hi: x,
            pdf: Vec::new(),
            cdf: Vec::new(),
        }
    }

    /// Samples a continuous distribution on an `n`-point grid over its
    /// (effective) support and normalizes.
    ///
    /// Densities that are not finite at isolated points (e.g. Beta with
    /// α < 1 at 0) are clamped to 0 at those grid points; the subsequent
    /// normalization redistributes the lost mass over the rest of the grid.
    pub fn from_dist(dist: &dyn Dist, n: usize) -> Self {
        let (lo, hi) = dist.support();
        if lo == hi {
            return Self::point(lo);
        }
        assert!(n >= 2, "need at least two grid points");
        let xs = linspace(lo, hi, n);
        let pdf: Vec<f64> = xs
            .iter()
            .map(|&x| {
                let d = dist.pdf(x);
                if d.is_finite() {
                    d.max(0.0)
                } else {
                    0.0
                }
            })
            .collect();
        Self::from_grid(lo, hi, pdf)
    }

    /// Samples a continuous distribution on the paper's canonical 64-point
    /// grid.
    pub fn from_dist_default(dist: &dyn Dist) -> Self {
        Self::from_dist(dist, crate::DEFAULT_GRID)
    }

    /// Builds from raw density values on a uniform grid over `[lo, hi]`,
    /// normalizing total mass to 1.
    ///
    /// # Panics
    /// Panics if the grid is ill-formed or carries no mass.
    pub fn from_grid(lo: f64, hi: f64, pdf: Vec<f64>) -> Self {
        let mut out = Self {
            lo,
            hi,
            pdf,
            cdf: Vec::new(),
        };
        out.finish_normalize();
        out
    }

    /// Normalizes `self.pdf` over `[self.lo, self.hi]` and rebuilds the CDF
    /// in place — the allocation-free core behind [`DiscreteRv::from_grid`]
    /// and every `*_into` kernel.
    ///
    /// # Panics
    /// Panics if the grid is ill-formed or carries no mass.
    fn finish_normalize(&mut self) {
        assert!(
            self.lo.is_finite() && self.hi.is_finite() && self.hi > self.lo,
            "bad support"
        );
        assert!(self.pdf.len() >= 2, "need at least two grid points");
        clamp_nonnegative(&mut self.pdf);
        let h = (self.hi - self.lo) / (self.pdf.len() - 1) as f64;
        // Normalize with the same quadrature (Simpson) used by every moment
        // integral; mixing rules leaves an O(h²) bias between the mass and
        // the moments that wrecks the variance through cancellation.
        let mass = simpson_uniform(&self.pdf, h);
        assert!(
            mass > 0.0 && mass.is_finite(),
            "PDF carries no (finite) mass: {mass}"
        );
        for v in self.pdf.iter_mut() {
            *v /= mass;
        }
        cumulative_trapezoid_into(&self.pdf, h, &mut self.cdf);
        // Normalize the CDF exactly to 1 at the right end (trapezoid mass of
        // the normalized PDF is 1 by construction, but guard the rounding).
        let last = *self.cdf.last().unwrap();
        if last > 0.0 {
            for v in self.cdf.iter_mut() {
                *v /= last;
            }
        }
    }

    /// Overwrites `self` with a copy of `src`, reusing allocated capacity.
    pub fn copy_from(&mut self, src: &Self) {
        self.lo = src.lo;
        self.hi = src.hi;
        self.pdf.clear();
        self.pdf.extend_from_slice(&src.pdf);
        self.cdf.clear();
        self.cdf.extend_from_slice(&src.cdf);
    }

    /// Turns `self` into the point mass at `x`, keeping buffer capacity.
    fn set_point(&mut self, x: f64) {
        assert!(x.is_finite(), "point mass must be finite");
        self.lo = x;
        self.hi = x;
        self.pdf.clear();
        self.cdf.clear();
    }

    /// Shifts the support by `c` in place (`X + c` — density unchanged).
    fn shift_in_place(&mut self, c: f64) {
        assert!(c.is_finite());
        self.lo += c;
        self.hi += c;
    }

    /// The `i`-th grid abscissa, by the same endpoint-pinned formula as
    /// [`linspace`] (so fused loops agree bit-for-bit with materialized
    /// grids).
    #[inline]
    fn x_at(&self, i: usize) -> f64 {
        let n = self.pdf.len();
        grid_x(self.lo, self.hi, (self.hi - self.lo) / (n - 1) as f64, n, i)
    }

    /// Kernel-free density estimate from Monte-Carlo samples: a histogram
    /// on `n` grid-point-centered cells, normalized to unit mass.
    ///
    /// # Panics
    /// Panics if `samples` is empty.
    pub fn from_samples(samples: &[f64], n: usize) -> Self {
        assert!(!samples.is_empty(), "no samples");
        let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if lo == hi {
            return Self::point(lo);
        }
        assert!(n >= 2);
        let h = (hi - lo) / (n - 1) as f64;
        let mut counts = vec![0.0f64; n];
        for &s in samples {
            let idx = (((s - lo) / h).round() as usize).min(n - 1);
            counts[idx] += 1.0;
        }
        let total = samples.len() as f64;
        // Interior cells have width h, the two end cells width h/2.
        let mut pdf = vec![0.0; n];
        for (i, c) in counts.iter().enumerate() {
            let w = if i == 0 || i == n - 1 { h / 2.0 } else { h };
            pdf[i] = c / (total * w);
        }
        Self::from_grid(lo, hi, pdf)
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Lower end of the support.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper end of the support.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Width of the support.
    pub fn span(&self) -> f64 {
        self.hi - self.lo
    }

    /// `true` when the variable is deterministic.
    pub fn is_point(&self) -> bool {
        self.lo == self.hi
    }

    /// Number of grid points (0 for a point mass).
    pub fn points(&self) -> usize {
        self.pdf.len()
    }

    /// Grid step (0 for a point mass).
    pub fn step(&self) -> f64 {
        if self.is_point() {
            0.0
        } else {
            (self.hi - self.lo) / (self.pdf.len() - 1) as f64
        }
    }

    /// The grid abscissae.
    pub fn grid(&self) -> Vec<f64> {
        if self.is_point() {
            vec![self.lo]
        } else {
            linspace(self.lo, self.hi, self.pdf.len())
        }
    }

    /// Sampled density values (empty for a point mass).
    pub fn pdf_values(&self) -> &[f64] {
        &self.pdf
    }

    /// Sampled CDF values (empty for a point mass).
    pub fn cdf_values(&self) -> &[f64] {
        &self.cdf
    }

    /// Density at `x` by linear interpolation (0 outside the support).
    ///
    /// Linear rather than spline interpolation: it cannot overshoot into
    /// negative densities.
    pub fn pdf_at(&self, x: f64) -> f64 {
        if self.is_point() {
            return 0.0;
        }
        if x < self.lo || x > self.hi {
            return 0.0;
        }
        let h = self.step();
        let t = (x - self.lo) / h;
        // `t ≥ 0` here (`x ≥ lo`).
        let (i, frac) = grid_cell(t, self.pdf.len() - 2);
        self.pdf[i] * (1.0 - frac) + self.pdf[i + 1] * frac
    }

    /// CDF at `x` by linear interpolation, exact 0/1 clamping outside.
    pub fn cdf_at(&self, x: f64) -> f64 {
        if self.is_point() {
            return if x >= self.lo { 1.0 } else { 0.0 };
        }
        if x <= self.lo {
            return 0.0;
        }
        if x >= self.hi {
            return 1.0;
        }
        let h = self.step();
        let t = (x - self.lo) / h;
        // `t > 0` here (`x > lo`).
        let (i, frac) = grid_cell(t, self.cdf.len() - 2);
        self.cdf[i] * (1.0 - frac) + self.cdf[i + 1] * frac
    }

    // ------------------------------------------------------------------
    // Moments & metrics ingredients
    // ------------------------------------------------------------------

    /// Expected value `E[X]`.
    pub fn mean(&self) -> f64 {
        if self.is_point() {
            return self.lo;
        }
        simpson_uniform_fn(self.pdf.len(), self.step(), |i| self.x_at(i) * self.pdf[i])
    }

    /// Second raw moment `E[X²]`.
    pub fn second_moment(&self) -> f64 {
        if self.is_point() {
            return self.lo * self.lo;
        }
        simpson_uniform_fn(self.pdf.len(), self.step(), |i| {
            let x = self.x_at(i);
            x * x * self.pdf[i]
        })
    }

    /// Variance, computed as the *central* second moment `∫ (x−m)² f dx`.
    ///
    /// The raw-moment form `E[X²] − E[X]²` loses most of its precision to
    /// cancellation when the support sits far from zero (e.g. a duration on
    /// `[20, 22]` has `E[X²] ≈ 423` but variance ≈ 0.1); the central integral
    /// keeps full relative accuracy.
    pub fn variance(&self) -> f64 {
        if self.is_point() {
            return 0.0;
        }
        let m = self.mean();
        simpson_uniform_fn(self.pdf.len(), self.step(), |i| {
            let d = self.x_at(i) - m;
            d * d * self.pdf[i]
        })
        .max(0.0)
    }

    /// Standard deviation — the paper's σ_M robustness metric.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Differential entropy `h(X) = −∫ f ln f dx`.
    ///
    /// The paper prints the formula without the minus sign (§IV), but its
    /// orientation — "less uncertainty ⇒ more robust ⇒ smaller metric" —
    /// requires the standard signed definition, which we use. Point masses
    /// return `-∞` (the narrow-distribution limit).
    pub fn entropy(&self) -> f64 {
        if self.is_point() {
            return f64::NEG_INFINITY;
        }
        simpson_uniform_fn(self.pdf.len(), self.step(), |i| {
            let f = self.pdf[i];
            if f > 0.0 {
                -f * f.ln()
            } else {
                0.0
            }
        })
    }

    /// `P(a ≤ X ≤ b)` (0 when `b < a`).
    pub fn prob_between(&self, a: f64, b: f64) -> f64 {
        if b < a {
            return 0.0;
        }
        (self.cdf_at(b) - self.cdf_at(a)).clamp(0.0, 1.0)
    }

    /// Quantile: smallest `x` with `F(x) ≥ p`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        if self.is_point() {
            return self.lo;
        }
        // Inverse lookup on the monotone CDF table, same semantics as
        // `LinearInterp::inverse_monotone` but without materializing the
        // grid.
        let n = self.cdf.len();
        if p <= self.cdf[0] {
            return self.x_at(0);
        }
        if p >= self.cdf[n - 1] {
            return self.x_at(n - 1);
        }
        let mut lo = 0usize;
        let mut hi = n - 1;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if self.cdf[mid] <= p {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let dy = self.cdf[lo + 1] - self.cdf[lo];
        if dy <= 0.0 {
            return self.x_at(lo);
        }
        let t = (p - self.cdf[lo]) / dy;
        self.x_at(lo) + t * (self.x_at(lo + 1) - self.x_at(lo))
    }

    /// Conditional mean above a threshold: `E[X | X > t]`.
    ///
    /// Returns `None` when `P(X > t)` is (numerically) zero. This is the
    /// `E(M′)` of the paper's *average lateness* metric.
    pub fn conditional_mean_above(&self, t: f64) -> Option<f64> {
        if self.is_point() {
            return if self.lo > t { Some(self.lo) } else { None };
        }
        if t >= self.hi {
            return None;
        }
        if t <= self.lo {
            return Some(self.mean());
        }
        let h = self.step();
        let n = self.points();
        // Find the first grid index strictly above t.
        let first = (0..n)
            .find(|&i| self.x_at(i) > t)
            .expect("t < hi guarantees a grid point above");
        // Partial cell [t, x_first] handled with the trapezoid on
        // interpolated densities; full cells from `first` onward.
        let ft = self.pdf_at(t);
        let x_first = self.x_at(first);
        let partial_w = x_first - t;
        let mut prob = 0.5 * partial_w * (ft + self.pdf[first]);
        let mut ex = 0.5 * partial_w * (t * ft + x_first * self.pdf[first]);
        let tail_n = n - first;
        prob += trapezoid_uniform_fn(tail_n, h, |j| self.pdf[first + j]);
        ex += trapezoid_uniform_fn(tail_n, h, |j| self.x_at(first + j) * self.pdf[first + j]);
        if prob <= 1e-12 {
            None
        } else {
            Some(ex / prob)
        }
    }

    // ------------------------------------------------------------------
    // The calculus: affine, sum, max, min
    // ------------------------------------------------------------------

    /// Shift by a constant: `X + c`.
    pub fn shift(&self, c: f64) -> Self {
        assert!(c.is_finite());
        Self {
            lo: self.lo + c,
            hi: self.hi + c,
            pdf: self.pdf.clone(),
            cdf: self.cdf.clone(),
        }
    }

    /// Positive scaling: `k·X` with `k > 0`.
    pub fn scale(&self, k: f64) -> Self {
        assert!(k > 0.0 && k.is_finite(), "scale must be positive");
        if self.is_point() {
            return Self::point(self.lo * k);
        }
        let pdf: Vec<f64> = self.pdf.iter().map(|f| f / k).collect();
        Self {
            lo: self.lo * k,
            hi: self.hi * k,
            pdf,
            cdf: self.cdf.clone(),
        }
    }

    /// Distribution of `X + Y` for independent `X`, `Y` (PDF convolution).
    ///
    /// Both operands are spline-resampled onto a common working step, the
    /// densities convolved (direct or FFT depending on size), and the result
    /// resampled back to `max(points, points)` grid points (the canonical 64
    /// in the pipeline).
    ///
    /// Allocating wrapper over [`DiscreteRv::sum_into`] (thread-local
    /// workspace).
    pub fn sum(&self, other: &Self) -> Self {
        let mut out = Self::point(0.0);
        with_thread_workspace(|ws| self.sum_into(other, ws, &mut out));
        out
    }

    /// [`DiscreteRv::sum`] written into caller-owned storage: `out`'s
    /// buffers are reused, `ws` supplies every intermediate. Produces
    /// bit-identical results to `sum`.
    pub fn sum_into(&self, other: &Self, ws: &mut RvWorkspace, out: &mut Self) {
        if self.is_point() {
            out.copy_from(other);
            out.shift_in_place(self.lo);
            return;
        }
        if other.is_point() {
            out.copy_from(self);
            out.shift_in_place(other.lo);
            return;
        }
        let n_out = self.points().max(other.points());
        let lo = self.lo + other.lo;
        let hi = self.hi + other.hi;
        let s1 = self.span();
        let s2 = other.span();
        let h = (s1 + s2) / (WORK_POINTS - 1) as f64;
        // An operand narrower than ~2 working steps cannot be resolved on
        // the convolution grid (its density may vanish at every sample
        // point); approximate it by a shift by its mean — the discarded
        // variance is below the grid quantization anyway.
        if s1 <= 2.0 * h {
            out.copy_from(other);
            out.shift_in_place(self.mean());
            return;
        }
        if s2 <= 2.0 * h {
            out.copy_from(self);
            out.shift_in_place(other.mean());
            return;
        }

        let RvWorkspace {
            f1,
            f2,
            conv,
            spline1,
            spline2,
        } = ws;
        // Both operand fits come first, with their Thomas sweeps interleaved:
        // each is a latency-bound chain, so the pair costs about one.
        let n1 = self.resample_points(h);
        let n2 = other.resample_points(h);
        let (fit1, fit2) = match (self.on_step_grid(n1, h), other.on_step_grid(n2, h)) {
            (false, false) => {
                let [a, b] = SplineScratch::fit_uniform_pair(
                    (spline1, self.lo, self.hi, &self.pdf),
                    (spline2, other.lo, other.hi, &other.pdf),
                );
                (Some(a), Some(b))
            }
            (skip1, skip2) => (
                (!skip1).then(|| spline1.fit_uniform(self.lo, self.hi, &self.pdf)),
                (!skip2).then(|| spline2.fit_uniform(other.lo, other.hi, &other.pdf)),
            ),
        };
        self.resample_step_into(fit1.as_ref(), n1, h, f1);
        other.resample_step_into(fit2.as_ref(), n2, h, f2);
        convolve_auto_into(f1, f2, conv);
        for v in conv.iter_mut() {
            *v *= h;
        }
        clamp_nonnegative(conv);
        // The convolution grid starts at lo with step h; resample to the
        // exact target support (its end may differ from `hi` by < h due to
        // rounding of the operand grids). The convolution grid oversamples
        // the output ~4×, so the fit-free local cubic matches a natural
        // spline to ~1e-6 here while skipping its O(n) Thomas solve — the
        // single largest cost of a `sum` after the convolution itself.
        let conv_hi = lo + h * (conv.len() - 1) as f64;
        let interp = UniformLocalCubic::new(lo, conv_hi, conv);
        out.lo = lo;
        out.hi = hi;
        out.pdf.clear();
        out.pdf.resize(n_out, 0.0);
        let out_step = (hi - lo) / (n_out - 1) as f64;
        let x_at = |i| grid_x(lo, hi, out_step, n_out, i);
        interp.eval_into(&mut out.pdf, x_at);
        for (i, v) in out.pdf.iter_mut().enumerate() {
            if x_at(i) > conv_hi {
                *v = 0.0;
            }
        }
        out.finish_normalize();
    }

    /// Point count of this PDF resampled onto a grid of step `h` starting
    /// at `lo` and covering the support (the last point may fall `< h`
    /// short of `hi`).
    fn resample_points(&self, h: f64) -> usize {
        (((self.span() / h).round() as usize) + 1).max(2)
    }

    /// Whether the `n`-point step-`h` resampling grid coincides with the
    /// operand's own grid (commensurate step, same point count), so
    /// resampling would merely reproduce the knots and the fit is skipped.
    fn on_step_grid(&self, n: usize, h: f64) -> bool {
        n == self.points() && (self.step() - h).abs() <= 1e-12 * h
    }

    /// Resamples this PDF onto the `n`-point grid of step `h` starting at
    /// `lo`, from its fitted `spline` (`None` when
    /// [`on_step_grid`](Self::on_step_grid) holds), writing into `out`. The
    /// result is renormalized to unit trapezoid mass.
    fn resample_step_into(
        &self,
        spline: Option<&UniformSpline>,
        n: usize,
        h: f64,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        match spline {
            None => out.extend_from_slice(&self.pdf),
            Some(spline) => {
                out.resize(n, 0.0);
                spline.eval_into(out, |i| (self.lo + h * i as f64).min(self.hi));
                // Grid points past the support (in practice only the last
                // one) carry no density.
                let top = self.lo + h * (n - 1) as f64;
                let cut = self.hi.max(top - h);
                for (i, v) in out.iter_mut().enumerate() {
                    let x = self.lo + h * i as f64;
                    if x > cut && x > self.hi {
                        *v = 0.0;
                    }
                }
            }
        }
        clamp_nonnegative(out);
        let mass = trapezoid_uniform(out, h);
        if mass > 0.0 {
            for v in out.iter_mut() {
                *v /= mass;
            }
        }
    }

    /// Density and CDF at `x` in one interval lookup — the merged kernel
    /// behind [`DiscreteRv::max_into`] / [`DiscreteRv::min_into`], with the
    /// grid step `h` (= [`DiscreteRv::step`]) hoisted out of their scans.
    /// Matches [`DiscreteRv::pdf_at`] and [`DiscreteRv::cdf_at`] pointwise.
    ///
    /// `t = (x − lo)/h` is positive on the path that reaches
    /// [`grid_cell`] (`x > lo` there, `h > 0`), or NaN.
    #[inline(always)]
    fn pdf_cdf_at_step(&self, x: f64, h: f64) -> (f64, f64) {
        debug_assert!(!self.is_point());
        let n = self.pdf.len();
        let (pdf, cdf) = (&self.pdf[..n], &self.cdf[..n]);
        if x < self.lo {
            return (0.0, 0.0);
        }
        if x == self.lo {
            return (pdf[0], 0.0);
        }
        if x >= self.hi {
            let f = if x > self.hi { 0.0 } else { pdf[n - 1] };
            return (f, 1.0);
        }
        let t = (x - self.lo) / h;
        let (i, frac) = grid_cell(t, n - 2);
        (
            pdf[i] * (1.0 - frac) + pdf[i + 1] * frac,
            cdf[i] * (1.0 - frac) + cdf[i + 1] * frac,
        )
    }

    /// The merged `max`/`min` scan: `out.pdf[i] = combine(f₁, F₁, f₂, F₂)`
    /// at every point of the `n_out`-point grid over `[lo, hi]`, then
    /// normalization.
    #[inline(always)]
    fn product_scan_into(
        &self,
        other: &Self,
        (lo, hi, n_out): (f64, f64, usize),
        out: &mut Self,
        combine: impl Fn(f64, f64, f64, f64) -> f64,
    ) {
        out.lo = lo;
        out.hi = hi;
        out.pdf.clear();
        out.pdf.resize(n_out, 0.0);
        let step = (hi - lo) / (n_out - 1) as f64;
        let (h1, h2) = (self.step(), other.step());
        for (i, slot) in out.pdf.iter_mut().enumerate() {
            let x = grid_x(lo, hi, step, n_out, i);
            let (f1, c1) = self.pdf_cdf_at_step(x, h1);
            let (f2, c2) = other.pdf_cdf_at_step(x, h2);
            *slot = combine(f1, c1, f2, c2);
        }
        out.finish_normalize();
    }

    /// Distribution of `max(X, Y)` for independent `X`, `Y`.
    ///
    /// Uses the exact product-rule density `f = f₁·F₂ + F₁·f₂` rather than
    /// numerically differentiating `F₁·F₂`, which avoids the smoothing pass
    /// the paper needed.
    ///
    /// Allocating wrapper over [`DiscreteRv::max_into`] (thread-local
    /// workspace).
    pub fn max(&self, other: &Self) -> Self {
        let mut out = Self::point(0.0);
        with_thread_workspace(|ws| self.max_into(other, ws, &mut out));
        out
    }

    /// [`DiscreteRv::max`] written into caller-owned storage: one merged
    /// scan over the output grid evaluates both operands' density and CDF
    /// per point, with no intermediate allocation. Bit-identical to `max`.
    pub fn max_into(&self, other: &Self, _ws: &mut RvWorkspace, out: &mut Self) {
        // Point-mass algebra first.
        match (self.is_point(), other.is_point()) {
            (true, true) => return out.set_point(self.lo.max(other.lo)),
            (true, false) => return *out = other.clamp_below(self.lo),
            (false, true) => return *out = self.clamp_below(other.lo),
            (false, false) => {}
        }
        let n_out = self.points().max(other.points());
        let lo = self.lo.max(other.lo);
        let hi = self.hi.max(other.hi);
        if lo == hi {
            return out.set_point(lo);
        }
        self.product_scan_into(other, (lo, hi, n_out), out, |f1, c1, f2, c2| {
            f1 * c2 + c1 * f2
        });
    }

    /// Distribution of `min(X, Y)` for independent `X`, `Y`
    /// (`f = f₁·(1−F₂) + (1−F₁)·f₂`).
    ///
    /// Allocating wrapper over [`DiscreteRv::min_into`] (thread-local
    /// workspace).
    pub fn min(&self, other: &Self) -> Self {
        let mut out = Self::point(0.0);
        with_thread_workspace(|ws| self.min_into(other, ws, &mut out));
        out
    }

    /// [`DiscreteRv::min`] written into caller-owned storage (merged scan,
    /// no intermediate allocation). Bit-identical to `min`.
    pub fn min_into(&self, other: &Self, _ws: &mut RvWorkspace, out: &mut Self) {
        match (self.is_point(), other.is_point()) {
            (true, true) => return out.set_point(self.lo.min(other.lo)),
            (true, false) => return *out = other.clamp_above(self.lo),
            (false, true) => return *out = self.clamp_above(other.lo),
            (false, false) => {}
        }
        let n_out = self.points().max(other.points());
        let lo = self.lo.min(other.lo);
        let hi = self.hi.min(other.hi);
        if lo == hi {
            return out.set_point(lo);
        }
        self.product_scan_into(other, (lo, hi, n_out), out, |f1, c1, f2, c2| {
            f1 * (1.0 - c2) + (1.0 - c1) * f2
        });
    }

    /// `max(X, c)` for a constant `c`.
    ///
    /// For `lo < c < hi` the exact result has an atom of mass `F(c)` at `c`;
    /// we smear that atom into the first grid cell (a `O(span/n)` support
    /// approximation, documented in DESIGN.md). The schedule evaluator never
    /// hits this case — task durations always have positive span — but the
    /// public API must behave sensibly.
    pub fn clamp_below(&self, c: f64) -> Self {
        if self.is_point() {
            return Self::point(self.lo.max(c));
        }
        if c <= self.lo {
            return self.clone();
        }
        if c >= self.hi {
            return Self::point(c);
        }
        let n = self.points();
        let atom = self.cdf_at(c);
        let xs = linspace(c, self.hi, n);
        let h = (self.hi - c) / (n - 1) as f64;
        let mut pdf: Vec<f64> = xs.iter().map(|&x| self.pdf_at(x)).collect();
        // Smear the atom onto the first grid point, scaled by the exact
        // quadrature weight of that point so the Simpson-normalized mass of
        // the atom is preserved.
        pdf[0] += atom / quad_weight(0, n, h);
        Self::from_grid(c, self.hi, pdf)
    }

    /// `min(X, c)` for a constant `c` (atom smeared into the last cell).
    pub fn clamp_above(&self, c: f64) -> Self {
        if self.is_point() {
            return Self::point(self.lo.min(c));
        }
        if c >= self.hi {
            return self.clone();
        }
        if c <= self.lo {
            return Self::point(c);
        }
        let n = self.points();
        let atom = 1.0 - self.cdf_at(c);
        let xs = linspace(self.lo, c, n);
        let h = (c - self.lo) / (n - 1) as f64;
        let mut pdf: Vec<f64> = xs.iter().map(|&x| self.pdf_at(x)).collect();
        // Mirror of `clamp_below`.
        pdf[n - 1] += atom / quad_weight(n - 1, n, h);
        Self::from_grid(self.lo, c, pdf)
    }

    /// `k`-fold sum of the variable with itself (`k ≥ 1`), i.e. the
    /// distribution of `X₁ + … + X_k` i.i.d. — the Fig. 8 experiment.
    pub fn self_sum(&self, k: usize) -> Self {
        assert!(k >= 1, "need at least one summand");
        let mut acc = self.clone();
        let mut tmp = Self::point(0.0);
        with_thread_workspace(|ws| {
            for _ in 1..k {
                acc.sum_into(self, ws, &mut tmp);
                std::mem::swap(&mut acc, &mut tmp);
            }
        });
        acc
    }

    // ------------------------------------------------------------------
    // Distances
    // ------------------------------------------------------------------

    /// Kolmogorov–Smirnov distance `sup |F₁ − F₂|`, evaluated on a fine
    /// common grid over the union of the supports.
    pub fn ks_distance(&self, other: &Self) -> f64 {
        let lo = self.lo.min(other.lo);
        let hi = self.hi.max(other.hi);
        if lo == hi {
            return 0.0;
        }
        linspace(lo, hi, COMPARE_POINTS)
            .into_iter()
            .map(|x| (self.cdf_at(x) - other.cdf_at(x)).abs())
            .fold(0.0, f64::max)
    }

    /// The paper's Cramér–von-Mises-like *area* distance `∫ |F₁ − F₂| dx`
    /// over the union of the supports (unnormalized — the paper's Fig. 1
    /// shows values well above 1 for large graphs).
    pub fn cm_distance(&self, other: &Self) -> f64 {
        let lo = self.lo.min(other.lo);
        let hi = self.hi.max(other.hi);
        if lo == hi {
            return 0.0;
        }
        let h = (hi - lo) / (COMPARE_POINTS - 1) as f64;
        let y: Vec<f64> = linspace(lo, hi, COMPARE_POINTS)
            .into_iter()
            .map(|x| (self.cdf_at(x) - other.cdf_at(x)).abs())
            .collect();
        trapezoid_uniform(&y, h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::beta::ScaledBeta;
    use crate::normal::Normal;
    use crate::uniform::Uniform;
    use robusched_numeric::approx_eq;

    fn unit_uniform() -> DiscreteRv {
        DiscreteRv::from_dist_default(&Uniform::new(0.0, 1.0))
    }

    #[test]
    fn from_dist_mass_and_mean() {
        let rv = unit_uniform();
        assert!(approx_eq(rv.mean(), 0.5, 1e-3));
        assert!(approx_eq(rv.cdf_at(1.0), 1.0, 1e-12));
        assert!(approx_eq(rv.cdf_at(0.5), 0.5, 1e-3));
    }

    #[test]
    fn beta_moments_via_grid() {
        let d = ScaledBeta::paper_default(20.0, 1.1);
        let rv = DiscreteRv::from_dist_default(&d);
        assert!(approx_eq(rv.mean(), d.mean(), 1e-3));
        assert!(approx_eq(rv.std_dev(), d.std_dev(), 1e-2));
    }

    #[test]
    fn point_mass_algebra() {
        let p = DiscreteRv::point(3.0);
        let q = DiscreteRv::point(4.0);
        assert!(p.sum(&q).is_point());
        assert_eq!(p.sum(&q).mean(), 7.0);
        assert_eq!(p.max(&q).mean(), 4.0);
        assert_eq!(p.min(&q).mean(), 3.0);
        assert_eq!(p.entropy(), f64::NEG_INFINITY);
        assert_eq!(p.std_dev(), 0.0);
    }

    #[test]
    fn sum_of_uniforms_is_triangular() {
        let rv = unit_uniform();
        let s = rv.sum(&rv);
        // Support [0, 2], mean 1, variance 2/12.
        assert!(approx_eq(s.lo(), 0.0, 1e-12));
        assert!(approx_eq(s.hi(), 2.0, 1e-12));
        assert!(approx_eq(s.mean(), 1.0, 1e-2));
        assert!(approx_eq(s.variance(), 2.0 / 12.0, 1e-2));
        // Peak at the middle.
        assert!(s.pdf_at(1.0) > s.pdf_at(0.25));
        assert!(s.pdf_at(1.0) > s.pdf_at(1.75));
    }

    #[test]
    fn sum_mean_is_additive() {
        let a = DiscreteRv::from_dist_default(&ScaledBeta::paper_default(10.0, 1.5));
        let b = DiscreteRv::from_dist_default(&ScaledBeta::paper_default(3.0, 1.2));
        let s = a.sum(&b);
        assert!(approx_eq(s.mean(), a.mean() + b.mean(), 1e-2));
        // Variance of independent sum is additive too.
        assert!(approx_eq(s.variance(), a.variance() + b.variance(), 5e-2));
    }

    #[test]
    fn sum_with_point_is_shift() {
        let a = unit_uniform();
        let s = a.sum(&DiscreteRv::point(5.0));
        assert!(approx_eq(s.lo(), 5.0, 1e-12));
        assert!(approx_eq(s.hi(), 6.0, 1e-12));
        assert!(approx_eq(s.mean(), a.mean() + 5.0, 1e-9));
    }

    #[test]
    fn max_cdf_is_product() {
        let a = DiscreteRv::from_dist_default(&Uniform::new(0.0, 1.0));
        let b = DiscreteRv::from_dist_default(&Uniform::new(0.0, 1.0));
        let m = a.max(&b);
        // F_max(x) = x² on [0,1].
        for &x in &[0.3, 0.5, 0.8] {
            assert!(approx_eq(m.cdf_at(x), x * x, 2e-2), "x={x}");
        }
        // E[max of two U(0,1)] = 2/3.
        assert!(approx_eq(m.mean(), 2.0 / 3.0, 1e-2));
    }

    #[test]
    fn max_of_disjoint_supports_is_upper() {
        let a = DiscreteRv::from_dist_default(&Uniform::new(0.0, 1.0));
        let b = DiscreteRv::from_dist_default(&Uniform::new(5.0, 6.0));
        let m = a.max(&b);
        assert!(approx_eq(m.mean(), b.mean(), 1e-6));
        assert!(approx_eq(m.lo(), 5.0, 1e-12));
    }

    #[test]
    fn min_of_uniforms() {
        let a = unit_uniform();
        let m = a.min(&a);
        // E[min of two U(0,1)] = 1/3.
        assert!(approx_eq(m.mean(), 1.0 / 3.0, 1e-2));
    }

    #[test]
    fn clamp_below_above() {
        let a = unit_uniform();
        let c = a.clamp_below(0.5);
        assert!(approx_eq(c.lo(), 0.5, 1e-12));
        // E[max(U, 0.5)] = 0.625.
        assert!(approx_eq(c.mean(), 0.625, 2e-2));
        let d = a.clamp_above(0.5);
        // E[min(U, 0.5)] = 0.375.
        assert!(approx_eq(d.mean(), 0.375, 2e-2));
        assert!(a.clamp_below(-1.0).span() > 0.0);
        assert!(a.clamp_below(2.0).is_point());
    }

    #[test]
    fn shift_and_scale() {
        let a = unit_uniform();
        let b = a.shift(10.0).scale(2.0);
        assert!(approx_eq(b.lo(), 20.0, 1e-12));
        assert!(approx_eq(b.hi(), 22.0, 1e-12));
        assert!(approx_eq(b.mean(), 21.0, 1e-2));
        assert!(approx_eq(b.std_dev(), 2.0 * a.std_dev(), 1e-6));
    }

    #[test]
    fn entropy_shift_invariant_scale_additive() {
        let a = DiscreteRv::from_dist_default(&Normal::new(0.0, 1.0));
        let b = a.shift(100.0);
        assert!(approx_eq(a.entropy(), b.entropy(), 1e-9));
        // h(kX) = h(X) + ln k.
        let c = a.scale(3.0);
        assert!(approx_eq(c.entropy(), a.entropy() + 3.0f64.ln(), 1e-6));
    }

    #[test]
    fn gaussian_entropy_matches_closed_form() {
        let sigma = 2.5;
        let a = DiscreteRv::from_dist(&Normal::new(0.0, sigma), 256);
        let exact = 0.5 * (2.0 * std::f64::consts::PI * std::f64::consts::E * sigma * sigma).ln();
        assert!(approx_eq(a.entropy(), exact, 1e-3));
    }

    #[test]
    fn quantiles_and_interval_probability() {
        let a = unit_uniform();
        assert!(approx_eq(a.quantile(0.5), 0.5, 1e-2));
        assert!(approx_eq(a.prob_between(0.25, 0.75), 0.5, 1e-2));
        assert_eq!(a.prob_between(0.75, 0.25), 0.0);
    }

    #[test]
    fn conditional_mean_above_known_value() {
        let a = unit_uniform();
        // E[U | U > 0.5] = 0.75.
        let c = a.conditional_mean_above(0.5).unwrap();
        assert!(approx_eq(c, 0.75, 1e-2));
        assert!(a.conditional_mean_above(1.5).is_none());
        assert!(approx_eq(
            a.conditional_mean_above(-1.0).unwrap(),
            a.mean(),
            1e-9
        ));
    }

    #[test]
    fn lateness_of_gaussian() {
        // For N(μ, σ): E[X | X > μ] − μ = σ·√(2/π).
        let sigma = 1.7;
        let a = DiscreteRv::from_dist(&Normal::new(10.0, sigma), 256);
        let m = a.mean();
        let late = a.conditional_mean_above(m).unwrap() - m;
        let exact = sigma * (2.0 / std::f64::consts::PI).sqrt();
        assert!(approx_eq(late, exact, 1e-2), "{late} vs {exact}");
    }

    #[test]
    fn self_sum_tends_to_gaussian() {
        // Qualitative CLT check: KS distance to the matching normal shrinks.
        let base = DiscreteRv::from_dist_default(&Uniform::new(0.0, 1.0));
        let mk_normal = |rv: &DiscreteRv| {
            DiscreteRv::from_dist(&Normal::new(rv.mean(), rv.std_dev().max(1e-9)), 256)
        };
        let d1 = base.ks_distance(&mk_normal(&base));
        let s4 = base.self_sum(4);
        let d4 = s4.ks_distance(&mk_normal(&s4));
        assert!(d4 < d1, "KS should shrink: {d1} -> {d4}");
        assert!(d4 < 0.02, "4-fold sum of U(0,1) is near-normal, got {d4}");
    }

    #[test]
    fn ks_distance_properties() {
        let a = unit_uniform();
        let b = DiscreteRv::from_dist_default(&Uniform::new(0.5, 1.5));
        assert!(approx_eq(a.ks_distance(&a), 0.0, 1e-12));
        let d = a.ks_distance(&b);
        assert!(approx_eq(d, b.ks_distance(&a), 1e-12));
        assert!(approx_eq(d, 0.5, 1e-2)); // max gap of the two uniform CDFs
    }

    #[test]
    fn cm_distance_shifted_uniforms() {
        // For U(0,1) vs U(c,1+c): ∫|F1−F2| = c (area between the CDFs).
        let a = unit_uniform();
        let b = DiscreteRv::from_dist_default(&Uniform::new(0.25, 1.25));
        assert!(approx_eq(a.cm_distance(&b), 0.25, 1e-2));
    }

    #[test]
    fn from_samples_recovers_uniform() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let d = Uniform::new(2.0, 4.0);
        let mut rng = StdRng::seed_from_u64(71);
        let samples: Vec<f64> = (0..100_000).map(|_| d.sample(&mut rng)).collect();
        let rv = DiscreteRv::from_samples(&samples, 64);
        assert!(approx_eq(rv.mean(), 3.0, 1e-2));
        // Uniform(2, 4): σ = √((4−2)²/12).
        assert!(
            approx_eq(rv.std_dev(), ((4.0f64 - 2.0).powi(2) / 12.0).sqrt(), 0.05),
            "stddev {}",
            rv.std_dev()
        );
        let analytic = DiscreteRv::from_dist_default(&d);
        assert!(rv.ks_distance(&analytic) < 0.02);
    }

    #[test]
    fn degenerate_samples_make_point() {
        let rv = DiscreteRv::from_samples(&[5.0, 5.0, 5.0], 64);
        assert!(rv.is_point());
        assert_eq!(rv.mean(), 5.0);
    }

    #[test]
    #[should_panic(expected = "no (finite) mass")]
    fn zero_mass_grid_rejected() {
        DiscreteRv::from_grid(0.0, 1.0, vec![0.0; 8]);
    }

    fn assert_rv_bits_eq(a: &DiscreteRv, b: &DiscreteRv, what: &str) {
        assert_eq!(a.lo().to_bits(), b.lo().to_bits(), "{what}: lo");
        assert_eq!(a.hi().to_bits(), b.hi().to_bits(), "{what}: hi");
        assert_eq!(a.pdf_values().len(), b.pdf_values().len(), "{what}: len");
        for (i, (x, y)) in a.pdf_values().iter().zip(b.pdf_values().iter()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: pdf[{i}]");
        }
        for (i, (x, y)) in a.cdf_values().iter().zip(b.cdf_values().iter()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: cdf[{i}]");
        }
    }

    #[test]
    fn into_kernels_bit_identical_to_operators() {
        // sum/max/min are wrappers over the `_into` kernels, and a reused
        // (dirty) workspace + output must not change a single bit.
        let x = DiscreteRv::from_dist_default(&ScaledBeta::paper_default(20.0, 1.1));
        let y = DiscreteRv::from_dist(&ScaledBeta::paper_default(15.0, 1.4), 48);
        let p = DiscreteRv::point(3.5);
        let mut ws = crate::RvWorkspace::new();
        let mut out = DiscreteRv::point(0.0);
        for (a, b, what) in [
            (&x, &y, "sum x+y"),
            (&y, &x, "sum y+x"),
            (&x, &p, "sum x+point"),
            (&p, &x, "sum point+x"),
        ] {
            a.sum_into(b, &mut ws, &mut out);
            assert_rv_bits_eq(&out, &a.sum(b), what);
        }
        for (a, b, what) in [(&x, &y, "max"), (&p, &y, "max point")] {
            a.max_into(b, &mut ws, &mut out);
            assert_rv_bits_eq(&out, &a.max(b), what);
        }
        for (a, b, what) in [(&x, &y, "min"), (&x, &p, "min point")] {
            a.min_into(b, &mut ws, &mut out);
            assert_rv_bits_eq(&out, &a.min(b), what);
        }
        // Repeat a sum with the now well-used workspace: still identical.
        x.sum_into(&y, &mut ws, &mut out);
        assert_rv_bits_eq(&out, &x.sum(&y), "sum after reuse");
    }

    #[test]
    fn fused_moments_match_gridded_reference() {
        // The fused Simpson loops must agree with explicitly materialized
        // integrands (same quadrature, same abscissae).
        let rv = DiscreteRv::from_dist(&ScaledBeta::paper_default(20.0, 1.3), 64);
        let xs = rv.grid();
        let h = rv.step();
        let mean_ref = robusched_numeric::simpson_uniform(
            &xs.iter()
                .zip(rv.pdf_values())
                .map(|(x, f)| x * f)
                .collect::<Vec<_>>(),
            h,
        );
        assert_eq!(rv.mean().to_bits(), mean_ref.to_bits());
        let m = rv.mean();
        let var_ref = robusched_numeric::simpson_uniform(
            &xs.iter()
                .zip(rv.pdf_values())
                .map(|(x, f)| (x - m) * (x - m) * f)
                .collect::<Vec<_>>(),
            h,
        )
        .max(0.0);
        assert_eq!(rv.variance().to_bits(), var_ref.to_bits());
    }
}
