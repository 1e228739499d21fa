//! Interpolation of uniformly or arbitrarily sampled functions.
//!
//! The paper states that "sampling each probability density with 64 values
//! was largely sufficient with cubic spline interpolation". PDFs produced by
//! convolution and CDF products land on fine grids that must be resampled to
//! the canonical 64-point grid; natural cubic splines do that without the
//! staircase bias of nearest-neighbor or the kinks of linear interpolation.
//!
//! [`CubicSpline`] implements natural cubic splines (second derivative zero
//! at both ends) over strictly increasing knots. [`LinearInterp`] is the
//! cheap fallback used where monotonicity must be preserved exactly
//! (CDF lookups).

/// Natural cubic spline through `(x[i], y[i])` knots.
#[derive(Debug, Clone)]
pub struct CubicSpline {
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Second derivatives at the knots (the classical `M` vector).
    m: Vec<f64>,
}

impl CubicSpline {
    /// Fits a natural cubic spline.
    ///
    /// # Panics
    /// Panics if fewer than 2 points are given, lengths mismatch, or `xs` is
    /// not strictly increasing.
    pub fn new(xs: &[f64], ys: &[f64]) -> Self {
        assert_eq!(xs.len(), ys.len(), "knot length mismatch");
        assert!(xs.len() >= 2, "spline needs at least two knots");
        for w in xs.windows(2) {
            assert!(w[1] > w[0], "knots must be strictly increasing");
        }
        let n = xs.len();
        let mut m = vec![0.0; n];
        if n > 2 {
            // Solve the tridiagonal system for interior second derivatives
            // with the Thomas algorithm; natural BCs pin m[0] = m[n-1] = 0.
            let mut sub = vec![0.0; n - 2];
            let mut diag = vec![0.0; n - 2];
            let mut sup = vec![0.0; n - 2];
            let mut rhs = vec![0.0; n - 2];
            for i in 1..n - 1 {
                let h0 = xs[i] - xs[i - 1];
                let h1 = xs[i + 1] - xs[i];
                sub[i - 1] = h0;
                diag[i - 1] = 2.0 * (h0 + h1);
                sup[i - 1] = h1;
                rhs[i - 1] = 6.0 * ((ys[i + 1] - ys[i]) / h1 - (ys[i] - ys[i - 1]) / h0);
            }
            // Forward sweep.
            for i in 1..n - 2 {
                let w = sub[i] / diag[i - 1];
                diag[i] -= w * sup[i - 1];
                rhs[i] -= w * rhs[i - 1];
            }
            // Back substitution.
            let last = n - 3;
            m[n - 2] = rhs[last] / diag[last];
            for i in (0..last).rev() {
                m[i + 1] = (rhs[i] - sup[i] * m[i + 2]) / diag[i];
            }
        }
        Self {
            xs: xs.to_vec(),
            ys: ys.to_vec(),
            m,
        }
    }

    /// Fits a spline over a uniform grid `[lo, hi]` (convenience).
    pub fn uniform(lo: f64, hi: f64, ys: &[f64]) -> Self {
        let xs = crate::grid::linspace(lo, hi, ys.len());
        Self::new(&xs, ys)
    }

    /// Index of the interval containing `x` (clamped to the valid range).
    fn interval(&self, x: f64) -> usize {
        let n = self.xs.len();
        if x <= self.xs[0] {
            return 0;
        }
        if x >= self.xs[n - 1] {
            return n - 2;
        }
        // Binary search for the knot interval.
        let mut lo = 0usize;
        let mut hi = n - 1;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if self.xs[mid] <= x {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Evaluates the spline at `x`; clamps (linear-extends by the boundary
    /// cubic) outside the knot range.
    pub fn eval(&self, x: f64) -> f64 {
        let i = self.interval(x);
        let h = self.xs[i + 1] - self.xs[i];
        let a = (self.xs[i + 1] - x) / h;
        let b = (x - self.xs[i]) / h;
        a * self.ys[i]
            + b * self.ys[i + 1]
            + ((a * a * a - a) * self.m[i] + (b * b * b - b) * self.m[i + 1]) * h * h / 6.0
    }

    /// First derivative of the spline at `x`.
    pub fn derivative(&self, x: f64) -> f64 {
        let i = self.interval(x);
        let h = self.xs[i + 1] - self.xs[i];
        let a = (self.xs[i + 1] - x) / h;
        let b = (x - self.xs[i]) / h;
        (self.ys[i + 1] - self.ys[i]) / h
            + ((3.0 * b * b - 1.0) * self.m[i + 1] - (3.0 * a * a - 1.0) * self.m[i]) * h / 6.0
    }

    /// Resamples the spline onto `n` uniform points over `[lo, hi]`.
    pub fn resample(&self, lo: f64, hi: f64, n: usize) -> Vec<f64> {
        crate::grid::linspace(lo, hi, n)
            .into_iter()
            .map(|x| self.eval(x))
            .collect()
    }

    /// The knot abscissae.
    pub fn knots(&self) -> &[f64] {
        &self.xs
    }
}

/// Abscissa of knot `i` of the `n`-knot uniform grid over `[lo, hi]` with
/// step `step`: `lo + step·i`, the last knot pinned to `hi`.
///
/// `i` is a slice index, hence below `isize::MAX`, so converting it through
/// `i64` is exact and gives the same `f64` as `i as f64` — in one
/// instruction, where the unsigned conversion takes several on x86-64
/// without AVX-512.
#[inline(always)]
fn uniform_knot(lo: f64, hi: f64, step: f64, n: usize, i: usize) -> f64 {
    if i == n - 1 {
        hi
    } else {
        lo + step * i as i64 as f64
    }
}

/// Interval of `x` on the `n`-knot uniform grid starting at `lo` (direct
/// lookup, no binary search): 0 at or below `lo`, else
/// `⌊(x − lo)/step⌋` capped at `n − 2`.
///
/// Past the first branch `t = (x − lo)·inv_step` is positive or NaN, so
/// the saturating `i64` cast truncates exactly like the `usize` one: both
/// map NaN to 0, and both exceed `n − 2` whenever either saturates.
#[inline(always)]
fn uniform_cell(lo: f64, inv_step: f64, n: usize, x: f64) -> usize {
    if x <= lo {
        0
    } else {
        (((x - lo) * inv_step) as i64 as usize).min(n - 2)
    }
}

/// Reusable buffers for fitting natural cubic splines over *uniform* grids
/// without allocating — and, after the first fit, without dividing.
///
/// The evaluator hot path fits two or three splines per `sum` (operand
/// resampling plus the final down-sampling), always over uniform knots.
/// On a uniform grid the natural-spline system reduces to the constant
/// tridiagonal `(1, 4, 1)` with right-hand side `(6/h²)·Δ²y`, and the
/// forward-elimination diagonals `d₁ = 4, dᵢ₊₁ = 4 − 1/dᵢ` do not depend
/// on the sample count: every size-`n` solve consumes the same length-`n`
/// prefix of one sequence. [`SplineScratch`] caches that prefix (and its
/// reciprocals) once, so each fit is a division-free linear sweep — in
/// contrast to [`CubicSpline::new`], which allocates five vectors and runs
/// two divisions per knot. Fitted coefficients agree with the general
/// solver to machine precision (~1e-15 relative; the general path resolves
/// the last knot interval to `hi − x_{n−2}` where this one uses the nominal
/// step — a sub-ulp-of-the-support difference).
#[derive(Debug, Default)]
pub struct SplineScratch {
    rhs: Vec<f64>,
    m: Vec<f64>,
    /// Elimination diagonals of the `(1, 4, 1)` system (size-independent
    /// shared prefix), grown on demand.
    diag: Vec<f64>,
    /// Reciprocals of `diag`, so the solve sweeps multiply instead of
    /// divide.
    inv_diag: Vec<f64>,
}

impl SplineScratch {
    /// Empty scratch; buffers grow on first fit and are reused after.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures the cached elimination diagonals cover `rows` rows.
    fn grow_diagonals(&mut self, rows: usize) {
        if self.diag.len() >= rows {
            return;
        }
        if self.diag.is_empty() {
            self.diag.push(4.0);
            self.inv_diag.push(0.25);
        }
        while self.diag.len() < rows {
            let d = 4.0 - self.inv_diag[self.inv_diag.len() - 1];
            self.diag.push(d);
            self.inv_diag.push(1.0 / d);
        }
    }

    /// Fits a natural cubic spline through `(linspace(lo, hi, ys.len()), ys)`.
    ///
    /// # Panics
    /// Panics if fewer than two samples are given or `hi <= lo`.
    pub fn fit_uniform<'a>(&'a mut self, lo: f64, hi: f64, ys: &'a [f64]) -> UniformSpline<'a> {
        let [spline] = Self::fit_uniform_many([(self, lo, hi, ys)]);
        spline
    }

    /// Fits two independent splines, as [`fit_uniform`](Self::fit_uniform)
    /// each, with their elimination sweeps interleaved: each sweep is a
    /// latency-bound chain, so running two side by side costs little more
    /// than running one. The coefficients are bit-identical to two separate
    /// fits.
    ///
    /// # Panics
    /// As [`fit_uniform`](Self::fit_uniform), for either fit.
    pub fn fit_uniform_pair<'a>(
        first: (&'a mut Self, f64, f64, &'a [f64]),
        second: (&'a mut Self, f64, f64, &'a [f64]),
    ) -> [UniformSpline<'a>; 2] {
        Self::fit_uniform_many([first, second])
    }

    /// `K` fits with interleaved sweeps. On a uniform grid the system is
    /// the constant `(1, 4, 1)` tridiagonal with right-hand side
    /// `(6/h²)·Δ²y`; natural boundary conditions pin `m₀ = mₙ₋₁ = 0`.
    #[inline(always)]
    fn fit_uniform_many<'a, const K: usize>(
        fits: [(&'a mut Self, f64, f64, &'a [f64]); K],
    ) -> [UniformSpline<'a>; K] {
        let mut systems = fits.map(|(scratch, lo, hi, ys)| {
            let n = ys.len();
            assert!(n >= 2, "spline needs at least two knots");
            assert!(hi > lo, "inverted interval [{lo}, {hi}]");
            let step = (hi - lo) / (n - 1) as f64;
            let inv_step = 1.0 / step;
            scratch.grow_diagonals(n - 2);
            let SplineScratch {
                rhs, m, inv_diag, ..
            } = scratch;
            m.clear();
            m.resize(n, 0.0);
            let scale = 6.0 * inv_step * inv_step;
            rhs.clear();
            rhs.extend(ys.windows(3).map(|w| scale * (w[2] - 2.0 * w[1] + w[0])));
            let spline = UniformSpline {
                lo,
                hi,
                step,
                inv_step,
                h2_over_6: step * step / 6.0,
                ys,
                m: &[],
            };
            (spline, &mut rhs[..], &mut m[..], &inv_diag[..])
        });
        let longest = systems.iter().map(|s| s.1.len()).max().unwrap_or(0);
        // Forward elimination (sub-diagonal 1): rhsᵢ ← rhsᵢ − rhsᵢ₋₁/dᵢ₋₁,
        // the running value carried in a register rather than reloaded.
        let mut carry = systems
            .each_ref()
            .map(|s| s.1.first().copied().unwrap_or(0.0));
        for i in 1..longest {
            for ((_, rhs, _, inv_diag), c) in systems.iter_mut().zip(&mut carry) {
                if i < rhs.len() {
                    *c = rhs[i] - *c * inv_diag[i - 1];
                    rhs[i] = *c;
                }
            }
        }
        // Back substitution (super-diagonal 1): m[rows] first, then down.
        for ((_, rhs, m, inv_diag), c) in systems.iter_mut().zip(&mut carry) {
            let rows = rhs.len();
            if rows > 0 {
                *c = rhs[rows - 1] * inv_diag[rows - 1];
                m[rows] = *c;
            }
        }
        for t in 0..longest.saturating_sub(1) {
            for ((_, rhs, m, inv_diag), c) in systems.iter_mut().zip(&mut carry) {
                if t + 1 < rhs.len() {
                    let i = rhs.len() - 2 - t;
                    *c = (rhs[i] - *c) * inv_diag[i];
                    m[i + 1] = *c;
                }
            }
        }
        systems.map(|(spline, _, m, _)| UniformSpline { m, ..spline })
    }
}

/// A natural cubic spline over uniform knots, borrowing its coefficients
/// from a [`SplineScratch`]. See [`SplineScratch::fit_uniform`].
#[derive(Debug)]
pub struct UniformSpline<'a> {
    lo: f64,
    hi: f64,
    step: f64,
    inv_step: f64,
    h2_over_6: f64,
    ys: &'a [f64],
    m: &'a [f64],
}

impl UniformSpline<'_> {
    #[inline(always)]
    fn knot(&self, i: usize) -> f64 {
        uniform_knot(self.lo, self.hi, self.step, self.ys.len(), i)
    }

    /// Evaluates the spline at `x`; clamps (linear-extends by the boundary
    /// cubic) outside the knot range, like [`CubicSpline::eval`].
    pub fn eval(&self, x: f64) -> f64 {
        self.eval_in(self.ys, self.m, x)
    }

    /// Fills every slot `i` of `out` with `self.eval(x_at(i))` — the
    /// resampling loop, with exactly [`eval`](Self::eval)'s per-point
    /// arithmetic (so bit-identical to calling it point by point) but with
    /// the coefficient slices' bounds hoisted out of the loop.
    #[inline]
    pub fn eval_into(&self, out: &mut [f64], x_at: impl Fn(usize) -> f64) {
        let n = self.ys.len();
        let (ys, m) = (&self.ys[..n], &self.m[..n]);
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.eval_in(ys, m, x_at(i));
        }
    }

    /// [`eval`](Self::eval) over coefficient slices of the knot count.
    #[inline(always)]
    fn eval_in(&self, ys: &[f64], m: &[f64], x: f64) -> f64 {
        let n = ys.len();
        let i = uniform_cell(self.lo, self.inv_step, n, x);
        let x0 = self.knot(i);
        let x1 = self.knot(i + 1);
        let a = (x1 - x) * self.inv_step;
        let b = (x - x0) * self.inv_step;
        a * ys[i]
            + b * ys[i + 1]
            + ((a * a * a - a) * m[i] + (b * b * b - b) * m[i + 1]) * self.h2_over_6
    }
}

/// Local cubic (4-point Lagrange) interpolation on a uniform grid.
///
/// Fit-free: each evaluation reads the four samples bracketing `x` (stencil
/// shifted one-sided at the boundaries) and combines them with the uniform
/// Lagrange weights — `O(1)` per point with *no* global solve, versus the
/// `O(n)` latency-bound Thomas sweeps a natural spline costs per fit. Both
/// interpolants have `O(h⁴)` error on smooth data; the evaluator uses this
/// one to down-sample the ~4×-oversampled convolution grid back to the
/// canonical 64 points, where the natural spline's global smoothness buys
/// nothing measurable (interior agreement ~1e-8 on PDF-shaped data, a few
/// 1e-6 at the ends where the spline's artificial natural boundary
/// condition is the less accurate side — asserted below) and its fit
/// dominated the cost of a `sum`.
///
/// Degenerate sample counts fall back to the exact interpolating
/// polynomial (line for 2 points, parabola for 3).
#[derive(Debug)]
pub struct UniformLocalCubic<'a> {
    lo: f64,
    hi: f64,
    step: f64,
    inv_step: f64,
    ys: &'a [f64],
}

impl<'a> UniformLocalCubic<'a> {
    /// Wraps samples over `linspace(lo, hi, ys.len())`.
    ///
    /// # Panics
    /// Panics if fewer than two samples are given or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, ys: &'a [f64]) -> Self {
        assert!(ys.len() >= 2, "interpolation needs at least two samples");
        assert!(hi > lo, "inverted interval [{lo}, {hi}]");
        let step = (hi - lo) / (ys.len() - 1) as f64;
        Self {
            lo,
            hi,
            step,
            inv_step: 1.0 / step,
            ys,
        }
    }

    #[inline(always)]
    fn knot(&self, i: usize) -> f64 {
        uniform_knot(self.lo, self.hi, self.step, self.ys.len(), i)
    }

    /// Evaluates at `x` (clamped extrapolation by the boundary stencil).
    #[inline]
    pub fn eval(&self, x: f64) -> f64 {
        let n = self.ys.len();
        let i = uniform_cell(self.lo, self.inv_step, n, x);
        if n < 4 {
            // Exact low-order interpolating polynomial.
            let t = (x - self.lo) * self.inv_step;
            return if n == 2 {
                self.ys[0] * (1.0 - t) + self.ys[1] * t
            } else {
                // 3-point Lagrange at nodes 0, 1, 2.
                0.5 * (t - 1.0) * (t - 2.0) * self.ys[0] - t * (t - 2.0) * self.ys[1]
                    + 0.5 * t * (t - 1.0) * self.ys[2]
            };
        }
        // Stencil of 4 knots starting at `s` (interior: centered; boundary:
        // shifted one-sided).
        let s = i.saturating_sub(1).min(n - 4);
        let t = (x - self.knot(s)) * self.inv_step;
        let t1 = t - 1.0;
        let t2 = t - 2.0;
        let t3 = t - 3.0;
        let w0 = -t1 * t2 * t3 / 6.0;
        let w1 = 0.5 * t * t2 * t3;
        let w2 = -0.5 * t * t1 * t3;
        let w3 = t * t1 * t2 / 6.0;
        w0 * self.ys[s] + w1 * self.ys[s + 1] + w2 * self.ys[s + 2] + w3 * self.ys[s + 3]
    }

    /// Fills every slot `i` of `out` with `self.eval(x_at(i))` — the
    /// down-sampling loop, writing into a pre-sized slice.
    #[inline]
    pub fn eval_into(&self, out: &mut [f64], x_at: impl Fn(usize) -> f64) {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.eval(x_at(i));
        }
    }
}

/// Monotonicity-preserving piecewise-cubic Hermite interpolation over
/// strictly increasing (possibly non-uniform) knots.
///
/// A natural cubic spline overshoots near steep gradients, which is fatal
/// for quantile tables: a non-monotone inverse CDF turns a uniform deviate
/// into an out-of-order sample. [`MonotoneCubic`] instead clamps the knot
/// derivatives into the Fritsch–Carlson monotonicity region — on every
/// interval `[x_i, x_{i+1}]` with secant slope `Δ_i`, both endpoint
/// derivatives are kept in `[0, 3Δ_i]` (sign-adjusted) — which is a
/// sufficient condition for the Hermite cubic to be monotone wherever the
/// data is.
///
/// Two constructors cover the workspace's uses:
///
/// * [`pchip`](MonotoneCubic::pchip) derives the derivatives from the data
///   alone (Fritsch–Carlson weighted harmonic mean — the classical PCHIP
///   scheme), `O(h³)` accurate;
/// * [`with_slopes`](MonotoneCubic::with_slopes) accepts *exact* analytic
///   derivatives where the caller knows them (a quantile table knows
///   `Q′ = 1/f(Q)`), clamped into the same region. Where the supplied
///   derivative is non-finite or falls outside the region (density zeros at
///   support ends), it degrades to the PCHIP value, so accuracy is
///   `O(h⁴)` on the smooth interior and never worse than PCHIP anywhere.
///
/// Evaluation pre-packs each interval as a Horner cubic in the normalized
/// coordinate and locates the interval through a uniform index-guess table
/// (one multiply + a short forward walk) instead of a binary search — the
/// Monte-Carlo engine evaluates one of these per sampled weight, ~10⁸
/// times per figure.
#[derive(Debug, Clone)]
pub struct MonotoneCubic {
    xs: Vec<f64>,
    /// Per-interval records (plus one sentinel holding the last knot), so
    /// an evaluation touches one contiguous 48-byte slot instead of four
    /// parallel arrays.
    iv: Vec<Interval>,
    /// Uniform cell → starting knot index for the interval walk (4 cells
    /// per knot keeps the walk length near zero almost everywhere).
    cells: Vec<u32>,
    cell_scale: f64,
    /// Exact end ordinates (the Horner sum at `t = 1` rounds differently).
    y_first: f64,
    y_last: f64,
}

/// One knot interval, packed for single-load evaluation: left abscissa,
/// reciprocal width, and the Horner coefficients of
/// `y = ((c3·t + c2)·t + c1)·t + c0` with `t = (x − x_i)·inv_w ∈ [0, 1]`.
#[derive(Debug, Clone, Copy)]
struct Interval {
    x: f64,
    inv_w: f64,
    c: [f64; 4],
}

impl MonotoneCubic {
    /// Fits with Fritsch–Carlson (PCHIP) derivatives estimated from the
    /// data.
    ///
    /// # Panics
    /// Panics on length mismatch, fewer than 2 knots, or non-increasing
    /// `xs`.
    pub fn pchip(xs: &[f64], ys: &[f64]) -> Self {
        let slopes = vec![f64::NAN; xs.len()];
        Self::with_slopes(xs, ys, &slopes)
    }

    /// Fits with caller-supplied knot derivatives, clamped into the
    /// Fritsch–Carlson monotonicity region (non-finite entries fall back to
    /// the PCHIP estimate).
    ///
    /// # Panics
    /// Panics on length mismatches, fewer than 2 knots, or non-increasing
    /// `xs`.
    pub fn with_slopes(xs: &[f64], ys: &[f64], slopes: &[f64]) -> Self {
        assert_eq!(xs.len(), ys.len(), "knot length mismatch");
        assert_eq!(xs.len(), slopes.len(), "slope length mismatch");
        let n = xs.len();
        assert!(n >= 2, "interpolation needs at least two knots");
        for w in xs.windows(2) {
            assert!(w[1] > w[0], "knots must be strictly increasing");
        }
        // Secant slopes per interval.
        let h: Vec<f64> = xs.windows(2).map(|w| w[1] - w[0]).collect();
        let delta: Vec<f64> = ys
            .windows(2)
            .zip(&h)
            .map(|(w, h)| (w[1] - w[0]) / h)
            .collect();
        // Knot derivatives: caller's where valid, PCHIP estimate otherwise,
        // then the Fritsch–Carlson clamp against both adjacent secants.
        let mut d = vec![0.0f64; n];
        for i in 0..n {
            let (left, right) = (
                if i > 0 { Some(delta[i - 1]) } else { None },
                if i < n - 1 { Some(delta[i]) } else { None },
            );
            let fallback = pchip_slope(i, n, &h, &delta);
            let candidate = if slopes[i].is_finite() {
                slopes[i]
            } else {
                fallback
            };
            d[i] = clamp_fc(candidate, left, right);
        }
        // Pack each interval as a Horner cubic in t = (x − x_i)/h_i, plus a
        // sentinel interval carrying the last knot for the walk bound.
        let mut iv = Vec::with_capacity(n);
        for i in 0..n - 1 {
            let (y0, y1) = (ys[i], ys[i + 1]);
            let (d0, d1) = (d[i] * h[i], d[i + 1] * h[i]);
            iv.push(Interval {
                x: xs[i],
                inv_w: 1.0 / h[i],
                c: [
                    y0,
                    d0,
                    3.0 * (y1 - y0) - 2.0 * d0 - d1,
                    2.0 * (y0 - y1) + d0 + d1,
                ],
            });
        }
        iv.push(Interval {
            x: xs[n - 1],
            inv_w: 0.0,
            c: [ys[n - 1]; 4],
        });
        // Index-guess cells: several per knot keep the walk length ~0.
        let span = xs[n - 1] - xs[0];
        let n_cells = 4 * n;
        let cell_scale = n_cells as f64 / span;
        let mut cells = Vec::with_capacity(n_cells);
        let mut k = 0usize;
        for c in 0..n_cells {
            let start = xs[0] + span * c as f64 / n_cells as f64;
            while k + 2 < n && xs[k + 1] <= start {
                k += 1;
            }
            cells.push(k as u32);
        }
        Self {
            xs: xs.to_vec(),
            iv,
            cells,
            cell_scale,
            y_first: ys[0],
            y_last: ys[n - 1],
        }
    }

    /// The knot abscissae.
    pub fn knots(&self) -> &[f64] {
        &self.xs
    }

    /// Evaluates the interpolant at `x`, clamping to the end values outside
    /// the knot range.
    #[inline]
    pub fn eval(&self, x: f64) -> f64 {
        let x0 = self.iv[0].x;
        if x <= x0 {
            return self.y_first;
        }
        if x >= self.iv[self.iv.len() - 1].x {
            return self.y_last;
        }
        // Uniform-cell guess, then a forward walk (short except where the
        // knots are much denser than the cells).
        let cell = (((x - x0) * self.cell_scale) as usize).min(self.cells.len() - 1);
        let mut i = self.cells[cell] as usize;
        // The guess is at most one interval short almost everywhere (4
        // cells per knot): absorb that step branch-free, keep the loop for
        // the rare dense-knot (ladder) regions so it predicts ~never-taken.
        i += usize::from(x >= self.iv[i + 1].x);
        while x >= self.iv[i + 1].x {
            i += 1;
        }
        let r = &self.iv[i];
        let t = (x - r.x) * r.inv_w;
        let c = &r.c;
        ((c[3] * t + c[2]) * t + c[1]) * t + c[0]
    }
}

/// The classical PCHIP derivative estimate at knot `i`: weighted harmonic
/// mean of the adjacent secants in the interior (zero at local extrema),
/// the shape-preserving three-point formula at the ends.
fn pchip_slope(i: usize, n: usize, h: &[f64], delta: &[f64]) -> f64 {
    if n == 2 {
        return delta[0];
    }
    if i == 0 || i == n - 1 {
        // One-sided three-point estimate, clamped as in Fritsch–Carlson.
        let (h0, h1, d0, d1) = if i == 0 {
            (h[0], h[1], delta[0], delta[1])
        } else {
            (h[n - 2], h[n - 3], delta[n - 2], delta[n - 3])
        };
        let est = ((2.0 * h0 + h1) * d0 - h0 * d1) / (h0 + h1);
        if est * d0 <= 0.0 {
            return 0.0;
        }
        if d0 * d1 < 0.0 && est.abs() > 3.0 * d0.abs() {
            return 3.0 * d0;
        }
        return est;
    }
    let (d0, d1) = (delta[i - 1], delta[i]);
    if d0 * d1 <= 0.0 {
        return 0.0;
    }
    let (h0, h1) = (h[i - 1], h[i]);
    let w1 = 2.0 * h1 + h0;
    let w2 = h1 + 2.0 * h0;
    (w1 + w2) / (w1 / d0 + w2 / d1)
}

/// Clamps a knot derivative into the Fritsch–Carlson monotonicity region of
/// its adjacent intervals (secant slopes `left`/`right`, `None` at the
/// ends): sign matching the secants, magnitude at most
/// `3·min(|Δ_left|, |Δ_right|)`; zero when the secants disagree in sign.
///
/// Public so callers that pack their own Hermite segments (the quantile
/// table's uniform bulk fast path) apply the identical monotonicity rule.
pub fn monotone_clamp(d: f64, left: Option<f64>, right: Option<f64>) -> f64 {
    clamp_fc(d, left, right)
}

fn clamp_fc(d: f64, left: Option<f64>, right: Option<f64>) -> f64 {
    let bound = |delta: f64| 3.0 * delta.abs();
    match (left, right) {
        (Some(l), Some(r)) => {
            if l * r < 0.0 || (l == 0.0 && r == 0.0) {
                0.0
            } else {
                let sign = if l + r >= 0.0 { 1.0 } else { -1.0 };
                let cap = bound(l).min(bound(r));
                (d * sign).clamp(0.0, cap) * sign
            }
        }
        (Some(s), None) | (None, Some(s)) => {
            if s == 0.0 {
                0.0
            } else {
                let sign = s.signum();
                (d * sign).clamp(0.0, bound(s)) * sign
            }
        }
        (None, None) => 0.0,
    }
}

/// Piecewise-linear interpolation over strictly increasing knots.
///
/// Guarantees monotone output for monotone input, which cubic splines do not;
/// used for CDF evaluation where overshoot would produce probabilities
/// outside [0, 1].
#[derive(Debug, Clone)]
pub struct LinearInterp {
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl LinearInterp {
    /// Builds the interpolant.
    ///
    /// # Panics
    /// Panics on length mismatch, fewer than 2 points, or non-increasing xs.
    pub fn new(xs: &[f64], ys: &[f64]) -> Self {
        assert_eq!(xs.len(), ys.len(), "knot length mismatch");
        assert!(xs.len() >= 2, "interpolation needs at least two knots");
        for w in xs.windows(2) {
            assert!(w[1] > w[0], "knots must be strictly increasing");
        }
        Self {
            xs: xs.to_vec(),
            ys: ys.to_vec(),
        }
    }

    /// Evaluates at `x`, clamping to the boundary values outside the range.
    pub fn eval(&self, x: f64) -> f64 {
        let n = self.xs.len();
        if x <= self.xs[0] {
            return self.ys[0];
        }
        if x >= self.xs[n - 1] {
            return self.ys[n - 1];
        }
        let mut lo = 0usize;
        let mut hi = n - 1;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if self.xs[mid] <= x {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let t = (x - self.xs[lo]) / (self.xs[lo + 1] - self.xs[lo]);
        self.ys[lo] + t * (self.ys[lo + 1] - self.ys[lo])
    }

    /// Inverse lookup on a monotone non-decreasing table: smallest `x` with
    /// `eval(x) >= y` (linear within the bracketing interval). Used for
    /// quantiles of sampled CDFs.
    pub fn inverse_monotone(&self, y: f64) -> f64 {
        let n = self.xs.len();
        if y <= self.ys[0] {
            return self.xs[0];
        }
        if y >= self.ys[n - 1] {
            return self.xs[n - 1];
        }
        let mut lo = 0usize;
        let mut hi = n - 1;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if self.ys[mid] <= y {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let dy = self.ys[lo + 1] - self.ys[lo];
        if dy <= 0.0 {
            return self.xs[lo];
        }
        let t = (y - self.ys[lo]) / dy;
        self.xs[lo] + t * (self.xs[lo + 1] - self.xs[lo])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn spline_reproduces_knots() {
        let xs = [0.0, 1.0, 2.5, 4.0];
        let ys = [1.0, -1.0, 0.5, 3.0];
        let sp = CubicSpline::new(&xs, &ys);
        for (x, y) in xs.iter().zip(ys.iter()) {
            assert!(approx_eq(sp.eval(*x), *y, 1e-12));
        }
    }

    #[test]
    fn spline_linear_data_is_linear() {
        // A natural spline through collinear points is the line itself.
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x + 1.0).collect();
        let sp = CubicSpline::new(&xs, &ys);
        for i in 0..90 {
            let x = i as f64 * 0.1;
            assert!(approx_eq(sp.eval(x), 2.0 * x + 1.0, 1e-10));
        }
    }

    #[test]
    fn spline_approximates_sine() {
        let n = 21;
        let xs: Vec<f64> = (0..n)
            .map(|i| i as f64 * std::f64::consts::PI / (n - 1) as f64)
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| x.sin()).collect();
        let sp = CubicSpline::new(&xs, &ys);
        for i in 0..=100 {
            let x = i as f64 * std::f64::consts::PI / 100.0;
            assert!((sp.eval(x) - x.sin()).abs() < 1e-3);
        }
    }

    #[test]
    fn spline_derivative_of_parabola() {
        let xs: Vec<f64> = (0..41).map(|i| i as f64 * 0.1).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x * x).collect();
        let sp = CubicSpline::new(&xs, &ys);
        // Interior derivative ≈ 2x (natural BCs distort only near the ends).
        for i in 10..31 {
            let x = i as f64 * 0.1;
            assert!((sp.derivative(x) - 2.0 * x).abs() < 1e-2);
        }
    }

    #[test]
    fn spline_two_knots_is_segment() {
        let sp = CubicSpline::new(&[0.0, 2.0], &[1.0, 5.0]);
        assert!(approx_eq(sp.eval(1.0), 3.0, 1e-12));
    }

    #[test]
    fn spline_resample_endpoints() {
        let sp = CubicSpline::uniform(0.0, 1.0, &[0.0, 0.5, 0.7, 1.0]);
        let r = sp.resample(0.0, 1.0, 5);
        assert_eq!(r.len(), 5);
        assert!(approx_eq(r[0], 0.0, 1e-12));
        assert!(approx_eq(r[4], 1.0, 1e-12));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn spline_rejects_duplicate_knots() {
        CubicSpline::new(&[0.0, 0.0, 1.0], &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn uniform_spline_matches_general_spline() {
        // Same knots, same data ⇒ identical coefficients ⇒ identical values
        // (bit-for-bit at the shared arithmetic, so a tight tolerance).
        let lo = 2.0;
        let hi = 7.3;
        let ys: Vec<f64> = (0..48).map(|i| ((i as f64) * 0.37).sin() + 2.0).collect();
        let xs = crate::grid::linspace(lo, hi, ys.len());
        let general = CubicSpline::new(&xs, &ys);
        let mut scratch = SplineScratch::new();
        let uniform = scratch.fit_uniform(lo, hi, &ys);
        for k in 0..=200 {
            let x = lo - 0.5 + (hi - lo + 1.0) * k as f64 / 200.0;
            let g = general.eval(x);
            let u = uniform.eval(x);
            assert!(
                (g - u).abs() <= 1e-12 * g.abs().max(1.0),
                "x={x}: {g} vs {u}"
            );
        }
    }

    #[test]
    fn uniform_spline_scratch_reusable() {
        let mut scratch = SplineScratch::new();
        let ys1 = [0.0, 1.0, 0.0, 2.0, 0.5];
        let v1 = scratch.fit_uniform(0.0, 1.0, &ys1).eval(0.4);
        // A different (larger) fit in between must not corrupt later fits.
        let big: Vec<f64> = (0..300).map(|i| (i as f64 * 0.01).cos()).collect();
        let _ = scratch.fit_uniform(-1.0, 4.0, &big).eval(2.0);
        let v2 = scratch.fit_uniform(0.0, 1.0, &ys1).eval(0.4);
        assert_eq!(v1, v2);
    }

    /// The plain Thomas solve (two sweeps through memory), as the fit was
    /// first written: the reference the interleaved solver must match.
    fn oracle_second_derivatives(lo: f64, hi: f64, ys: &[f64]) -> Vec<f64> {
        let n = ys.len();
        let inv_step = 1.0 / ((hi - lo) / (n - 1) as f64);
        let mut m = vec![0.0; n];
        if n > 2 {
            let rows = n - 2;
            let mut inv_diag = vec![0.25];
            while inv_diag.len() < rows {
                inv_diag.push(1.0 / (4.0 - inv_diag[inv_diag.len() - 1]));
            }
            let scale = 6.0 * inv_step * inv_step;
            let mut rhs: Vec<f64> = (1..n - 1)
                .map(|i| scale * (ys[i + 1] - 2.0 * ys[i] + ys[i - 1]))
                .collect();
            for i in 1..rows {
                rhs[i] -= rhs[i - 1] * inv_diag[i - 1];
            }
            m[n - 2] = rhs[rows - 1] * inv_diag[rows - 1];
            for i in (0..rows - 1).rev() {
                m[i + 1] = (rhs[i] - m[i + 2]) * inv_diag[i];
            }
        }
        m
    }

    #[test]
    fn single_and_paired_fits_match_the_plain_solve_bit_for_bit() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let data =
            |n: usize, f: f64| -> Vec<f64> { (0..n).map(|i| (i as f64 * f).sin().abs()).collect() };
        let (mut s1, mut s2) = (SplineScratch::new(), SplineScratch::new());
        for n1 in 2..70 {
            let ys1 = data(n1, 0.29);
            let want1 = bits(&oracle_second_derivatives(1.5, 9.0, &ys1));
            assert_eq!(bits(s1.fit_uniform(1.5, 9.0, &ys1).m), want1, "single {n1}");
            for n2 in [2, 3, 4, n1, 64, 65] {
                let ys2 = data(n2, 0.71);
                let want2 = bits(&oracle_second_derivatives(-3.0, 0.5, &ys2));
                let [a, b] = SplineScratch::fit_uniform_pair(
                    (&mut s1, 1.5, 9.0, &ys1),
                    (&mut s2, -3.0, 0.5, &ys2),
                );
                assert_eq!(bits(a.m), want1, "pair {n1}+{n2}, first");
                assert_eq!(bits(b.m), want2, "pair {n1}+{n2}, second");
            }
        }
    }

    #[test]
    fn eval_into_matches_pointwise_eval_bit_for_bit() {
        let ys: Vec<f64> = (0..64).map(|i| (i as f64 * 0.13).cos() + 1.5).collect();
        let x_at = |i: usize| -0.5 + 0.043 * i as f64;
        let mut out = vec![0.0; 300];
        let mut scratch = SplineScratch::new();
        let spline = scratch.fit_uniform(0.0, 11.0, &ys);
        spline.eval_into(&mut out, x_at);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(v.to_bits(), spline.eval(x_at(i)).to_bits(), "spline {i}");
        }
        for n in [2, 3, 4, 64] {
            let local = UniformLocalCubic::new(0.0, 11.0, &ys[..n]);
            local.eval_into(&mut out, x_at);
            for (i, v) in out.iter().enumerate() {
                assert_eq!(v.to_bits(), local.eval(x_at(i)).to_bits(), "local {n}: {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least two knots")]
    fn uniform_spline_rejects_single_point() {
        SplineScratch::new().fit_uniform(0.0, 1.0, &[1.0]);
    }

    #[test]
    fn local_cubic_reproduces_cubics_exactly() {
        // 4-point Lagrange is exact on polynomials of degree ≤ 3.
        let f = |x: f64| 2.0 - x + 0.5 * x * x - 0.125 * x * x * x;
        let ys: Vec<f64> = (0..20).map(|i| f(i as f64 * 0.25)).collect();
        let lc = UniformLocalCubic::new(0.0, 4.75, &ys);
        for k in 0..=95 {
            let x = k as f64 * 0.05;
            assert!(
                (lc.eval(x) - f(x)).abs() < 1e-12,
                "x={x}: {} vs {}",
                lc.eval(x),
                f(x)
            );
        }
    }

    #[test]
    fn local_cubic_close_to_natural_spline_on_smooth_data() {
        // On an oversampled bell curve (the convolution-grid use case) the
        // local cubic and the global spline agree far below the grid error.
        let n = 257;
        let ys: Vec<f64> = (0..n)
            .map(|i| {
                let x = (i as f64 / (n - 1) as f64 - 0.5) * 6.0;
                (-x * x / 2.0).exp()
            })
            .collect();
        let lc = UniformLocalCubic::new(0.0, 1.0, &ys);
        let mut scratch = SplineScratch::new();
        let sp = scratch.fit_uniform(0.0, 1.0, &ys);
        for k in 0..=500 {
            let x = k as f64 / 500.0;
            let a = lc.eval(x);
            let b = sp.eval(x);
            // Interior agreement is ~1e-9; the few-e-6 gap at the ends is
            // the spline's natural boundary condition (m = 0), where the
            // one-sided stencil is the *more* accurate interpolant.
            assert!((a - b).abs() < 1e-5, "x={x}: {a} vs {b}");
            if (0.05..=0.95).contains(&x) {
                assert!((a - b).abs() < 1e-7, "interior x={x}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn local_cubic_degenerate_counts() {
        let two = UniformLocalCubic::new(0.0, 1.0, &[1.0, 3.0]);
        assert!(approx_eq(two.eval(0.5), 2.0, 1e-12));
        let three = UniformLocalCubic::new(0.0, 2.0, &[0.0, 1.0, 4.0]);
        // Parabola x² through (0,0), (1,1), (2,4).
        assert!(approx_eq(three.eval(1.5), 2.25, 1e-12));
    }

    #[test]
    fn monotone_cubic_reproduces_knots_and_stays_monotone() {
        let xs = [0.0, 0.5, 0.8, 1.3, 2.0, 4.0];
        let ys = [0.0, 0.1, 0.9, 1.0, 1.05, 9.0];
        let mc = MonotoneCubic::pchip(&xs, &ys);
        for (x, y) in xs.iter().zip(ys.iter()) {
            assert!(approx_eq(mc.eval(*x), *y, 1e-12), "knot {x}");
        }
        let mut prev = f64::NEG_INFINITY;
        for k in 0..=4000 {
            let v = mc.eval(4.0 * k as f64 / 4000.0);
            assert!(v >= prev - 1e-12, "non-monotone at k={k}: {v} < {prev}");
            prev = v;
        }
        // Range-bounded (no overshoot past the data).
        assert!(prev <= 9.0 + 1e-12);
    }

    #[test]
    fn monotone_cubic_exact_on_lines() {
        let xs: Vec<f64> = (0..9).map(|i| i as f64 * 0.7).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x - 1.0).collect();
        let mc = MonotoneCubic::pchip(&xs, &ys);
        for k in 0..=100 {
            let x = 5.6 * k as f64 / 100.0;
            assert!(approx_eq(mc.eval(x), 3.0 * x - 1.0, 1e-12));
        }
    }

    #[test]
    fn monotone_cubic_exact_slopes_beat_pchip() {
        // exp is monotone and smooth: exact derivatives give ~O(h⁴), the
        // data-driven PCHIP estimate only ~O(h³).
        let xs: Vec<f64> = (0..33).map(|i| i as f64 / 32.0).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x.exp()).collect();
        let ds: Vec<f64> = ys.clone();
        let exact = MonotoneCubic::with_slopes(&xs, &ys, &ds);
        let est = MonotoneCubic::pchip(&xs, &ys);
        let (mut err_exact, mut err_est) = (0.0f64, 0.0f64);
        for k in 0..=1000 {
            let x = k as f64 / 1000.0;
            err_exact = err_exact.max((exact.eval(x) - x.exp()).abs());
            err_est = err_est.max((est.eval(x) - x.exp()).abs());
        }
        assert!(err_exact < 1e-7, "exact-slope error {err_exact}");
        assert!(err_exact < err_est / 10.0, "{err_exact} vs {err_est}");
    }

    #[test]
    fn monotone_cubic_nonuniform_knots_and_clamping() {
        let xs = [0.0, 0.001, 0.1, 0.5, 3.0];
        let ys = [0.0, 0.2, 0.4, 0.6, 1.0];
        let mc = MonotoneCubic::pchip(&xs, &ys);
        assert_eq!(mc.eval(-5.0), 0.0);
        assert_eq!(mc.eval(7.0), 1.0);
        assert_eq!(mc.knots(), &xs);
        let mut prev = 0.0;
        for k in 0..=3000 {
            let v = mc.eval(3.0 * k as f64 / 3000.0);
            assert!(v >= prev - 1e-12);
            prev = v;
        }
    }

    #[test]
    fn monotone_cubic_nonfinite_slopes_fall_back() {
        // Infinite end derivative (sqrt at 0): falls back to the clamped
        // PCHIP estimate instead of poisoning the cubic.
        let xs: Vec<f64> = (0..17).map(|i| (i as f64 / 16.0).powi(2)).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x.sqrt()).collect();
        let mut ds: Vec<f64> = xs.iter().map(|x| 0.5 / x.sqrt()).collect();
        assert!(ds[0].is_infinite());
        ds[0] = f64::INFINITY;
        let mc = MonotoneCubic::with_slopes(&xs, &ys, &ds);
        for k in 0..=100 {
            let x = k as f64 / 100.0;
            assert!(mc.eval(x).is_finite());
            assert!((mc.eval(x) - x.sqrt()).abs() < 0.05);
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn monotone_cubic_rejects_unsorted() {
        MonotoneCubic::pchip(&[0.0, 2.0, 1.0], &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn linear_interp_basic() {
        let li = LinearInterp::new(&[0.0, 1.0, 2.0], &[0.0, 10.0, 0.0]);
        assert!(approx_eq(li.eval(0.5), 5.0, 1e-12));
        assert!(approx_eq(li.eval(1.5), 5.0, 1e-12));
        assert_eq!(li.eval(-1.0), 0.0);
        assert_eq!(li.eval(3.0), 0.0);
    }

    #[test]
    fn linear_inverse_monotone() {
        let li = LinearInterp::new(&[0.0, 1.0, 2.0], &[0.0, 0.25, 1.0]);
        assert!(approx_eq(li.inverse_monotone(0.25), 1.0, 1e-12));
        assert!(approx_eq(li.inverse_monotone(0.625), 1.5, 1e-12));
        assert_eq!(li.inverse_monotone(-0.5), 0.0);
        assert_eq!(li.inverse_monotone(2.0), 2.0);
    }

    #[test]
    fn linear_inverse_handles_flat_segments() {
        let li = LinearInterp::new(&[0.0, 1.0, 2.0, 3.0], &[0.0, 0.5, 0.5, 1.0]);
        let x = li.inverse_monotone(0.5);
        assert!((1.0..=2.0).contains(&x));
    }
}
