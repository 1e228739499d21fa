//! Reusable scratch storage for the [`DiscreteRv`](crate::DiscreteRv)
//! calculus.
//!
//! Every `sum` used to allocate roughly a dozen vectors: two resampled
//! operand PDFs, spline systems for three fits, the convolution output, the
//! output grid and the CDF. On the evaluator hot path — tens of thousands
//! of schedules, dozens of `sum`/`max` operations each — that allocation
//! traffic dominated the runtime. [`RvWorkspace`] owns all of those buffers
//! once; the `*_into` kernels in [`crate::discrete`] borrow them and write
//! their result into a caller-owned [`DiscreteRv`](crate::DiscreteRv),
//! making the steady state allocation-free.
//!
//! The allocating convenience wrappers (`sum`, `max`, `min`, `self_sum`)
//! route through a thread-local workspace, so legacy callers get most of
//! the benefit without an API change. Workers that want full control (the
//! study engine) hold their own workspace inside an `EvalContext` and skip
//! the thread-local lookup.

use robusched_numeric::interp::SplineScratch;

/// Scratch buffers for the discrete-RV kernels. Create one per worker
/// thread and pass it to the `*_into` operations; buffers grow to the
/// working sizes on first use and are reused afterwards.
#[derive(Debug, Default)]
pub struct RvWorkspace {
    /// Resampled PDF of the first operand.
    pub(crate) f1: Vec<f64>,
    /// Resampled PDF of the second operand.
    pub(crate) f2: Vec<f64>,
    /// Convolution output.
    pub(crate) conv: Vec<f64>,
    /// Spline system (Thomas solve) buffers of the first operand's fit.
    pub(crate) spline1: SplineScratch,
    /// The second operand's fit, kept apart so both fits can be made
    /// before either spline is evaluated.
    pub(crate) spline2: SplineScratch,
}

impl RvWorkspace {
    /// An empty workspace; buffers are grown on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

thread_local! {
    static THREAD_WS: std::cell::RefCell<RvWorkspace> =
        std::cell::RefCell::new(RvWorkspace::new());
}

/// Runs `f` with this thread's shared [`RvWorkspace`] (used by the
/// allocating convenience wrappers; the `*_into` kernels never call this).
pub(crate) fn with_thread_workspace<R>(f: impl FnOnce(&mut RvWorkspace) -> R) -> R {
    THREAD_WS.with(|ws| f(&mut ws.borrow_mut()))
}
