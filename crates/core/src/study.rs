//! The experimental protocol of §V–§VI, as a pluggable engine.
//!
//! Per case the paper evaluates 10 000 uniform random schedules (2 000 for
//! the 100-task cases) plus the three heuristics, computes every metric for
//! each schedule from its analytic makespan distribution, and reports the
//! Pearson correlation matrix between the metrics.
//!
//! [`StudyBuilder`] generalizes that protocol across three axes:
//!
//! * **heuristics** are any set of [`robusched_sched::Heuristic`] names
//!   resolved through `sched`'s registry;
//! * **the evaluator** is any [`robusched_stochastic::Evaluator`] (classic,
//!   Spelde, Dodin, Monte-Carlo, or an external impl);
//! * **the output** streams: parallel workers deliver metric rows *in
//!   sampling order* into `O(k²)` [`StreamingMoments`] and a bounded
//!   [`RankReservoir`] (plus an optional caller [`MetricSink`]), so
//!   correlation matrices no longer require materializing every
//!   [`MetricValues`] — 100k+-schedule sweeps run in constant memory.
//!   Buffering remains available ([`StudyBuilder::buffer_metrics`]) for
//!   consumers that need the raw rows.
//!
//! The random schedules and the heuristics run in one parallel section.
//! Its work index hands out the random schedules one at a time, then each
//! heuristic (scheduling plus evaluation), so the workers finish close
//! together. Each random schedule is seeded as `derive_seed(seed, index)`
//! from its own sampling index, whichever worker draws it, and rows are
//! released to the accumulators strictly in index order. That in-order
//! delivery is what makes every accumulator state, and therefore every
//! streamed matrix, bit-identical for any thread count.
//!
//! [`run_case`] survives as a thin deprecated shim over the builder: it
//! buffers every row and computes the two-pass [`pearson_matrix`], which
//! keeps its output bit-for-bit identical to the pre-builder pipeline.

use crate::metrics::{compute_metrics, MetricOptions, MetricValues, METRIC_LABELS};
use crate::streaming::{RankReservoir, StreamingMoments};
use crossbeam::thread;
use robusched_platform::Scenario;
use robusched_randvar::derive_seed;
use robusched_sched::{heuristic_by_name, random_schedule, Heuristic, ScheduleError};
use robusched_stats::CorrMatrix;
use robusched_stochastic::{ClassicEvaluator, EvalContext, Evaluator};
use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Renders a panic payload (the `Box<dyn Any>` from `catch_unwind`) as
/// text: `&str` and `String` payloads verbatim, anything else opaquely.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Study configuration for one case (the legacy [`run_case`] surface;
/// [`StudyBuilder`] is the pluggable superset).
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// Number of random schedules (paper: 10 000; 2 000 for n = 100).
    pub random_schedules: usize,
    /// Master seed for schedule sampling.
    pub seed: u64,
    /// Probabilistic-metric parameters.
    pub metric_opts: MetricOptions,
    /// Worker threads (`None` = available parallelism).
    pub threads: Option<usize>,
    /// Also evaluate the heuristics (HEFT, BIL, Hyb.BMCT).
    pub with_heuristics: bool,
    /// Additionally evaluate CPOP (extension beyond the paper's set).
    pub with_cpop: bool,
}

impl Default for StudyConfig {
    fn default() -> Self {
        Self {
            random_schedules: 10_000,
            seed: 1,
            metric_opts: MetricOptions::default(),
            threads: None,
            with_heuristics: true,
            with_cpop: false,
        }
    }
}

/// The outcome of one case.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Metrics of every random schedule, in sampling order.
    pub random: Vec<MetricValues>,
    /// Metrics of the heuristic schedules, labeled.
    pub heuristics: Vec<(String, MetricValues)>,
    /// Pearson correlation matrix over the random schedules, in the
    /// paper's plotting orientation (see
    /// [`MetricValues::oriented_vector`]).
    pub pearson: CorrMatrix,
}

/// Why a study could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StudyError {
    /// `random_schedules` was zero.
    NoSchedules,
    /// `threads` was explicitly set to zero.
    ZeroThreads,
    /// `reservoir_capacity` was below the 2-row minimum a rank statistic
    /// needs.
    ReservoirTooSmall(usize),
    /// A heuristic name did not resolve in `sched`'s registry.
    UnknownHeuristic(String),
    /// An evaluator name did not resolve in `stochastic`'s registry.
    UnknownEvaluator(String),
    /// A heuristic rejected the scenario.
    Schedule(ScheduleError),
    /// A worker thread panicked mid-study (e.g. an evaluator hit a
    /// numerically impossible state). Carries the first panic's payload
    /// rendered as text; sibling workers drain without a secondary
    /// `PoisonError` masking it.
    WorkerPanic(String),
}

impl std::fmt::Display for StudyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoSchedules => write!(f, "need at least one random schedule"),
            Self::ZeroThreads => write!(f, "thread count must be at least 1"),
            Self::ReservoirTooSmall(c) => {
                write!(f, "rank-reservoir capacity must be at least 2, got {c}")
            }
            Self::UnknownHeuristic(n) => write!(f, "unknown heuristic '{n}'"),
            Self::UnknownEvaluator(n) => write!(f, "unknown evaluator '{n}'"),
            Self::Schedule(e) => write!(f, "heuristic produced an invalid schedule: {e}"),
            Self::WorkerPanic(msg) => write!(f, "study worker panicked: {msg}"),
        }
    }
}

impl std::error::Error for StudyError {}

impl From<ScheduleError> for StudyError {
    fn from(e: ScheduleError) -> Self {
        Self::Schedule(e)
    }
}

/// A per-row consumer of the metric stream.
///
/// [`StudyBuilder::sink`] registers one; the engine calls
/// [`record`](MetricSink::record) once per random schedule **in sampling
/// order** (index `0, 1, 2, …`), regardless of how many worker threads
/// computed the rows. Sinks must be `Send` (they are invoked from worker
/// threads, serialized under the delivery lock).
///
/// Any `FnMut(usize, &MetricValues) + Send` closure is a sink.
pub trait MetricSink: Send {
    /// Consumes the metric row of schedule `index`.
    fn record(&mut self, index: usize, values: &MetricValues);
}

impl<F: FnMut(usize, &MetricValues) + Send> MetricSink for F {
    fn record(&mut self, index: usize, values: &MetricValues) {
        self(index, values);
    }
}

/// The streamed outcome of a study.
#[derive(Debug)]
pub struct StudyResult {
    /// Metrics of the requested heuristic schedules, labeled, in request
    /// order.
    pub heuristics: Vec<(String, MetricValues)>,
    /// Streaming co-moment accumulator over the oriented metric vectors of
    /// the random schedules.
    pub moments: StreamingMoments,
    /// Rank reservoir over the same rows (exact while the schedule count
    /// does not exceed its capacity).
    pub reservoir: RankReservoir,
    /// Every random schedule's metrics in sampling order — only when
    /// [`StudyBuilder::buffer_metrics`] was requested.
    pub random: Option<Vec<MetricValues>>,
}

impl StudyResult {
    /// Number of random schedules evaluated.
    pub fn random_count(&self) -> usize {
        self.moments.count()
    }

    /// The streamed Pearson matrix (paper orientation). Agrees with the
    /// buffered two-pass [`pearson_matrix`] to ~1e-13 per cell.
    pub fn pearson_streamed(&self) -> CorrMatrix {
        self.moments.pearson_matrix(&METRIC_LABELS)
    }

    /// The streamed Spearman matrix — exact while the schedule count is
    /// within the reservoir capacity, a uniform-sample estimate beyond.
    pub fn spearman_streamed(&self) -> CorrMatrix {
        self.reservoir.spearman_matrix(&METRIC_LABELS)
    }
}

/// Default [`RankReservoir`] capacity: covers the paper's 10 000-schedule
/// cases' Spearman needs with a 2 000-row margin over its n = 100 tier.
const DEFAULT_RESERVOIR: usize = 4096;

/// Builder for the §V protocol with pluggable heuristics, evaluator and
/// output streaming. See the [module docs](self) for the engine contract.
///
/// ```
/// use robusched_core::StudyBuilder;
/// use robusched_platform::Scenario;
///
/// let scenario = Scenario::paper_random(10, 3, 1.1, 5);
/// let res = StudyBuilder::new(&scenario)
///     .random_schedules(200)
///     .seed(3)
///     .heuristics(&["HEFT", "BIL"])
///     .evaluator_named("classic")
///     .run()
///     .unwrap();
/// assert_eq!(res.random_count(), 200);
/// assert!(res.pearson_streamed().get(1, 5) > 0.9); // σ ~ lateness
/// ```
pub struct StudyBuilder<'a> {
    scenario: &'a Scenario,
    random_schedules: usize,
    seed: u64,
    metric_opts: MetricOptions,
    threads: Option<usize>,
    heuristic_names: Vec<String>,
    evaluator: Box<dyn Evaluator>,
    evaluator_name: Option<String>,
    buffer: bool,
    reservoir_capacity: usize,
    sink: Option<&'a mut dyn MetricSink>,
}

impl<'a> StudyBuilder<'a> {
    /// A builder with the paper's defaults: 10 000 random schedules, seed
    /// 1, classic evaluator, no heuristics, streaming only (no buffering).
    pub fn new(scenario: &'a Scenario) -> Self {
        Self {
            scenario,
            random_schedules: 10_000,
            seed: 1,
            metric_opts: MetricOptions::default(),
            threads: None,
            heuristic_names: Vec::new(),
            evaluator: Box::new(ClassicEvaluator::default()),
            evaluator_name: None,
            buffer: false,
            reservoir_capacity: DEFAULT_RESERVOIR,
            sink: None,
        }
    }

    /// Number of random schedules to sample.
    pub fn random_schedules(mut self, k: usize) -> Self {
        self.random_schedules = k;
        self
    }

    /// Master seed for schedule sampling (and the rank reservoir).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Probabilistic-metric parameters.
    pub fn metric_opts(mut self, opts: MetricOptions) -> Self {
        self.metric_opts = opts;
        self
    }

    /// Worker thread count. [`run`](Self::run) rejects 0; builders that
    /// never call this use all available parallelism.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Worker thread count as an option (`None` = available parallelism) —
    /// the shape CLI flags arrive in.
    pub fn threads_opt(mut self, threads: Option<usize>) -> Self {
        self.threads = threads;
        self
    }

    /// Heuristics to evaluate alongside the random schedules, by registry
    /// name (see [`robusched_sched::heuristic_by_name`]); resolution
    /// happens in [`run`](Self::run).
    pub fn heuristics(mut self, names: &[&str]) -> Self {
        self.heuristic_names = names.iter().map(|s| s.to_string()).collect();
        self
    }

    /// The makespan-distribution backend (any [`Evaluator`] instance, for
    /// non-default configurations).
    pub fn evaluator(mut self, evaluator: Box<dyn Evaluator>) -> Self {
        self.evaluator = evaluator;
        self.evaluator_name = None;
        self
    }

    /// The backend by registry name with its default configuration (see
    /// [`robusched_stochastic::evaluator_by_name`]); resolution happens in
    /// [`run`](Self::run).
    pub fn evaluator_named(mut self, name: &str) -> Self {
        self.evaluator_name = Some(name.to_string());
        self
    }

    /// Also buffer every random schedule's [`MetricValues`] in sampling
    /// order (`O(n·k)` memory — the legacy pipeline's behavior).
    pub fn buffer_metrics(mut self, yes: bool) -> Self {
        self.buffer = yes;
        self
    }

    /// Capacity of the Spearman rank reservoir (default 4096; minimum 2,
    /// checked by [`run`](Self::run)). Studies whose Spearman artifacts
    /// must stay *exact* rather than sampled set this to the schedule
    /// count.
    pub fn reservoir_capacity(mut self, capacity: usize) -> Self {
        self.reservoir_capacity = capacity;
        self
    }

    /// Registers a per-row consumer of the metric stream (e.g. a CSV
    /// writer); called in sampling order.
    pub fn sink(mut self, sink: &'a mut dyn MetricSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Runs the study.
    pub fn run(self) -> Result<StudyResult, StudyError> {
        if self.random_schedules == 0 {
            return Err(StudyError::NoSchedules);
        }
        if self.threads == Some(0) {
            return Err(StudyError::ZeroThreads);
        }
        if self.reservoir_capacity < 2 {
            return Err(StudyError::ReservoirTooSmall(self.reservoir_capacity));
        }
        let evaluator: Box<dyn Evaluator> = match &self.evaluator_name {
            None => self.evaluator,
            Some(name) => robusched_stochastic::evaluator_by_name(name)
                .ok_or_else(|| StudyError::UnknownEvaluator(name.clone()))?,
        };
        let heuristics: Vec<Box<dyn Heuristic>> = self
            .heuristic_names
            .iter()
            .map(|n| heuristic_by_name(n).ok_or_else(|| StudyError::UnknownHeuristic(n.clone())))
            .collect::<Result<_, _>>()?;

        let scenario = self.scenario;
        let m = scenario.machine_count();
        // Shared read-only precomputation (e.g. the scenario discretization
        // cache), built once and handed to every worker's context; the
        // contexts themselves carry per-thread scratch reused across all
        // schedules of that worker.
        let prep = evaluator.prepare(scenario);
        let eval_one =
            |cx: &mut EvalContext, schedule: &robusched_sched::Schedule| -> MetricValues {
                let rv = evaluator.evaluate_with(scenario, schedule, cx);
                compute_metrics(scenario, schedule, &rv, &self.metric_opts)
            };

        // ---- One parallel section: the random schedules one by one, then
        // the heuristics (a scheduling run plus an evaluation each); random
        // rows are delivered to the accumulators in sampling order. ----
        let k = METRIC_LABELS.len();
        let mut delivery = Delivery {
            next: 0,
            pending: BTreeMap::new(),
            moments: StreamingMoments::new(k),
            reservoir: RankReservoir::new(k, self.reservoir_capacity, derive_seed(self.seed, !0)),
            buffer: self
                .buffer
                .then(|| Vec::with_capacity(self.random_schedules)),
            sink: self.sink,
        };
        let heuristic_rows: Vec<OnceLock<Result<MetricValues, ScheduleError>>> =
            heuristics.iter().map(|_| OnceLock::new()).collect();
        let first_panic = Mutex::new(None::<String>);
        {
            let n_items = heuristics.len() + self.random_schedules;
            let next_item = AtomicUsize::new(0);
            let abort = AtomicBool::new(false);
            let delivery = Mutex::new(&mut delivery);
            let threads = self
                .threads
                .unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(|p| p.get())
                        .unwrap_or(1)
                })
                .max(1);
            // Work item `item`: random schedule `item` while
            // `item < random_schedules`, else a heuristic.
            let run_item = |cx: &mut EvalContext, item: usize| {
                if let Some(k) = item.checked_sub(self.random_schedules) {
                    let row = heuristics[k]
                        .schedule(scenario)
                        .map(|sched| eval_one(cx, &sched));
                    let _ = heuristic_rows[k].set(row);
                    return;
                }
                let sched =
                    random_schedule(&scenario.graph.dag, m, derive_seed(self.seed, item as u64));
                let row = eval_one(cx, &sched);
                delivery
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .deliver(item, row);
            };
            thread::scope(|scope| {
                let mut workers = Vec::with_capacity(threads);
                for _ in 0..threads {
                    workers.push(scope.spawn(|_| {
                        // One context per worker: the shared prep is an Arc
                        // clone, the scratch buffers warm up on the first
                        // item and are reused for every one after.
                        let mut cx = EvalContext::new(prep.clone());
                        loop {
                            if abort.load(Ordering::Relaxed) {
                                break;
                            }
                            let item = next_item.fetch_add(1, Ordering::Relaxed);
                            if item >= n_items {
                                break;
                            }
                            // A panic anywhere in the item (heuristic,
                            // evaluator, metric computation, accumulator
                            // delivery) must not unwind through the scope:
                            // the first one is captured as a `StudyError`,
                            // siblings drain via the abort flag, and the
                            // delivery lock stays usable even if it was
                            // poisoned mid-`deliver`.
                            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                                run_item(&mut cx, item)
                            }));
                            if let Err(payload) = outcome {
                                abort.store(true, Ordering::Relaxed);
                                let mut slot = first_panic
                                    .lock()
                                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                                if slot.is_none() {
                                    *slot = Some(panic_message(payload.as_ref()));
                                }
                                break;
                            }
                        }
                    }));
                }
                // Join explicitly: the scope's own join returns once the
                // closures finish, while the threads may still be exiting
                // and holding their allocator arenas. A study started right
                // after would then spawn threads that cannot reuse those
                // arenas, and the heap would grow by a whole scenario cache.
                for worker in workers {
                    worker.join().expect("study workers catch their panics");
                }
            })
            .expect("study workers no longer unwind");
        }
        if let Some(msg) = first_panic
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take()
        {
            return Err(StudyError::WorkerPanic(msg));
        }
        // Every item ran; a heuristic's error fails the study, the first in
        // request order winning, as if the heuristics had run in sequence.
        let mut rows = Vec::with_capacity(heuristics.len());
        for (h, row) in heuristics.iter().zip(heuristic_rows) {
            let row = row.into_inner().expect("every work item ran");
            rows.push((h.name().to_string(), row?));
        }
        debug_assert!(delivery.pending.is_empty());
        debug_assert_eq!(delivery.moments.count(), self.random_schedules);

        Ok(StudyResult {
            heuristics: rows,
            moments: delivery.moments,
            reservoir: delivery.reservoir,
            random: delivery.buffer,
        })
    }
}

/// In-order delivery state: workers hand in finished rows; rows are
/// released to the accumulators strictly by sampling index, so accumulator
/// states never depend on worker scheduling. Out-of-order rows wait in
/// `pending` (bounded by worker-count in practice).
struct Delivery<'s> {
    next: usize,
    pending: BTreeMap<usize, MetricValues>,
    moments: StreamingMoments,
    reservoir: RankReservoir,
    buffer: Option<Vec<MetricValues>>,
    sink: Option<&'s mut dyn MetricSink>,
}

impl Delivery<'_> {
    fn deliver(&mut self, index: usize, values: MetricValues) {
        self.pending.insert(index, values);
        while let Some(values) = self.pending.remove(&self.next) {
            let oriented = values.oriented_vector();
            self.moments.push(&oriented);
            self.reservoir.push(&oriented);
            if let Some(sink) = self.sink.as_deref_mut() {
                sink.record(self.next, &values);
            }
            if let Some(buf) = &mut self.buffer {
                buf.push(values);
            }
            self.next += 1;
        }
    }
}

/// Runs the §V protocol on one scenario with the classic evaluator and the
/// paper's heuristic list, buffering every metric row.
///
/// Thin shim over [`StudyBuilder`], kept so legacy callers and the seed
/// tests stay bit-for-bit identical (it computes the two-pass
/// [`pearson_matrix`] over the buffered rows, exactly like the original
/// monolith).
///
/// # Panics
/// Panics if `random_schedules == 0`.
#[deprecated(note = "use StudyBuilder: pluggable evaluators/heuristics and streaming accumulators")]
pub fn run_case(scenario: &Scenario, cfg: &StudyConfig) -> CaseResult {
    let mut names: Vec<&str> = Vec::new();
    if cfg.with_heuristics {
        names.extend(["HEFT", "BIL", "Hyb.BMCT"]);
        if cfg.with_cpop {
            names.push("CPOP");
        }
    }
    let res = StudyBuilder::new(scenario)
        .random_schedules(cfg.random_schedules)
        .seed(cfg.seed)
        .metric_opts(cfg.metric_opts)
        // The monolith clamped threads to ≥ 1 instead of rejecting 0.
        .threads_opt(cfg.threads.map(|t| t.max(1)))
        .heuristics(&names)
        .buffer_metrics(true)
        .run()
        .expect("need at least one schedule");
    let random = res.random.expect("buffering requested");
    let pearson = pearson_matrix(&random);
    CaseResult {
        random,
        heuristics: res.heuristics,
        pearson,
    }
}

/// The §VI Pearson matrix of a buffered metric sample (paper orientation).
pub fn pearson_matrix(rows: &[MetricValues]) -> CorrMatrix {
    matrix_with(rows, robusched_stats::pearson)
}

/// Spearman (rank) correlation matrix of a buffered metric sample — an
/// extension robust to the "slightly curved set of points" the paper notes
/// Pearson merely tolerates.
pub fn spearman_matrix(rows: &[MetricValues]) -> CorrMatrix {
    matrix_with(rows, robusched_stats::spearman)
}

fn matrix_with(rows: &[MetricValues], corr: fn(&[f64], &[f64]) -> f64) -> CorrMatrix {
    let k = METRIC_LABELS.len();
    let mut columns: Vec<Vec<f64>> = vec![Vec::with_capacity(rows.len()); k];
    for r in rows {
        for (c, v) in r.oriented_vector().into_iter().enumerate() {
            columns[c].push(v);
        }
    }
    let mut values = vec![0.0; k * k];
    for i in 0..k {
        values[i * k + i] = 1.0;
        for j in i + 1..k {
            let r = corr(&columns[i], &columns[j]);
            values[i * k + j] = r;
            values[j * k + i] = r;
        }
    }
    CorrMatrix::from_values(
        METRIC_LABELS.iter().map(|s| s.to_string()).collect(),
        values,
    )
}

#[cfg(test)]
#[allow(deprecated)] // the legacy shim is exercised on purpose
mod tests {
    use super::*;

    fn quick_cfg(k: usize) -> StudyConfig {
        StudyConfig {
            random_schedules: k,
            seed: 3,
            with_heuristics: true,
            with_cpop: false,
            ..Default::default()
        }
    }

    #[test]
    fn small_case_runs_and_correlates() {
        let scenario = Scenario::paper_random(10, 3, 1.1, 5);
        let res = run_case(&scenario, &quick_cfg(200));
        assert_eq!(res.random.len(), 200);
        assert_eq!(res.heuristics.len(), 3);
        // Core finding: σ, lateness and 1−A(δ) strongly positively
        // correlated even at this small sample size.
        let idx = |name: &str| METRIC_LABELS.iter().position(|&l| l == name).unwrap();
        let r = res.pearson.get(idx("makespan_std"), idx("avg_lateness"));
        assert!(r > 0.9, "σ vs lateness Pearson = {r}");
        let r2 = res.pearson.get(idx("makespan_std"), idx("abs_prob"));
        assert!(r2 > 0.9, "σ vs 1−A Pearson = {r2}");
    }

    #[test]
    fn heuristics_beat_random_on_makespan() {
        let scenario = Scenario::paper_random(20, 4, 1.1, 11);
        let res = run_case(&scenario, &quick_cfg(300));
        let best_random = res
            .random
            .iter()
            .map(|m| m.expected_makespan)
            .fold(f64::INFINITY, f64::min);
        let median_random = {
            let mut v: Vec<f64> = res.random.iter().map(|m| m.expected_makespan).collect();
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        for (name, m) in &res.heuristics {
            assert!(
                m.expected_makespan < median_random,
                "{name} ({}) not better than the median random ({median_random})",
                m.expected_makespan
            );
        }
        // At least one heuristic near the best random schedule.
        let best_h = res
            .heuristics
            .iter()
            .map(|(_, m)| m.expected_makespan)
            .fold(f64::INFINITY, f64::min);
        assert!(best_h <= best_random * 1.1, "{best_h} vs {best_random}");
    }

    #[test]
    fn spearman_agrees_with_pearson_on_strong_cluster() {
        let scenario = Scenario::paper_random(12, 3, 1.1, 19);
        let res = run_case(&scenario, &quick_cfg(200));
        let sp = spearman_matrix(&res.random);
        let idx = |name: &str| METRIC_LABELS.iter().position(|&l| l == name).unwrap();
        // On the near-linear cluster, rank correlation is as strong.
        let r = sp.get(idx("makespan_std"), idx("avg_lateness"));
        assert!(r > 0.9, "Spearman σ~L = {r}");
        // Spearman matrix is symmetric with unit diagonal, like Pearson.
        for i in 0..sp.dim() {
            assert_eq!(sp.get(i, i), 1.0);
            for j in 0..sp.dim() {
                assert!((sp.get(i, j) - sp.get(j, i)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let scenario = Scenario::paper_random(10, 3, 1.1, 7);
        let mut cfg = quick_cfg(130);
        cfg.threads = Some(1);
        let a = run_case(&scenario, &cfg);
        cfg.threads = Some(4);
        let b = run_case(&scenario, &cfg);
        for (x, y) in a.random.iter().zip(b.random.iter()) {
            assert_eq!(x.expected_makespan, y.expected_makespan);
        }
    }

    #[test]
    fn builder_reproduces_run_case_bit_for_bit() {
        let scenario = Scenario::paper_random(10, 3, 1.1, 5);
        let legacy = run_case(&scenario, &quick_cfg(200));
        let res = StudyBuilder::new(&scenario)
            .random_schedules(200)
            .seed(3)
            .heuristics(&["HEFT", "BIL", "Hyb.BMCT"])
            .buffer_metrics(true)
            .run()
            .unwrap();
        let random = res.random.as_ref().unwrap();
        assert_eq!(random.len(), legacy.random.len());
        for (a, b) in random.iter().zip(legacy.random.iter()) {
            assert_eq!(a, b);
        }
        for ((na, ma), (nb, mb)) in res.heuristics.iter().zip(legacy.heuristics.iter()) {
            assert_eq!(na, nb);
            assert_eq!(ma, mb);
        }
        let rebuilt = pearson_matrix(random);
        for i in 0..rebuilt.dim() {
            for j in 0..rebuilt.dim() {
                assert_eq!(rebuilt.get(i, j), legacy.pearson.get(i, j));
            }
        }
    }

    #[test]
    fn streamed_matrices_match_buffered_within_1e12() {
        let scenario = Scenario::paper_random(12, 3, 1.1, 23);
        let res = StudyBuilder::new(&scenario)
            .random_schedules(200)
            .seed(9)
            .buffer_metrics(true)
            .run()
            .unwrap();
        let rows = res.random.as_ref().unwrap();
        let pearson_buf = pearson_matrix(rows);
        let pearson_str = res.pearson_streamed();
        let spearman_buf = spearman_matrix(rows);
        let spearman_str = res.spearman_streamed();
        assert!(res.reservoir.is_exact());
        for i in 0..pearson_buf.dim() {
            for j in 0..pearson_buf.dim() {
                assert!(
                    (pearson_buf.get(i, j) - pearson_str.get(i, j)).abs() < 1e-12,
                    "Pearson ({i},{j}): {} vs {}",
                    pearson_buf.get(i, j),
                    pearson_str.get(i, j)
                );
                assert!(
                    (spearman_buf.get(i, j) - spearman_str.get(i, j)).abs() < 1e-12,
                    "Spearman ({i},{j}): {} vs {}",
                    spearman_buf.get(i, j),
                    spearman_str.get(i, j)
                );
            }
        }
    }

    #[test]
    fn streamed_moments_identical_across_thread_counts() {
        let scenario = Scenario::paper_random(10, 3, 1.1, 7);
        // 37 is prime, so no thread count divides the work evenly.
        for count in [130, 37] {
            let run_with = |threads: usize| {
                StudyBuilder::new(&scenario)
                    .random_schedules(count)
                    .seed(3)
                    .threads(threads)
                    .heuristics(&["HEFT", "BIL", "Hyb.BMCT"])
                    .run()
                    .unwrap()
            };
            let a = run_with(1);
            let (pa, sa) = (a.pearson_streamed(), a.spearman_streamed());
            for threads in [2, 3, 4] {
                let b = run_with(threads);
                assert_eq!(b.random_count(), count);
                let (pb, sb) = (b.pearson_streamed(), b.spearman_streamed());
                for i in 0..pa.dim() {
                    for j in 0..pa.dim() {
                        let cell = format!("({i},{j}), {count} schedules, {threads} threads");
                        assert_eq!(
                            pa.get(i, j).to_bits(),
                            pb.get(i, j).to_bits(),
                            "Pearson {cell}"
                        );
                        assert_eq!(
                            sa.get(i, j).to_bits(),
                            sb.get(i, j).to_bits(),
                            "Spearman {cell}"
                        );
                    }
                }
                assert_eq!(
                    a.heuristics, b.heuristics,
                    "{count} schedules, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn sink_receives_rows_in_sampling_order() {
        let scenario = Scenario::paper_random(10, 3, 1.1, 13);
        let mut indices = Vec::new();
        let mut means = Vec::new();
        let mut sink = |idx: usize, m: &MetricValues| {
            indices.push(idx);
            means.push(m.expected_makespan);
        };
        let res = StudyBuilder::new(&scenario)
            .random_schedules(150)
            .seed(5)
            .threads(4)
            .buffer_metrics(true)
            .sink(&mut sink)
            .run()
            .unwrap();
        assert_eq!(indices, (0..150).collect::<Vec<_>>());
        let buffered: Vec<f64> = res
            .random
            .unwrap()
            .iter()
            .map(|m| m.expected_makespan)
            .collect();
        assert_eq!(means, buffered);
    }

    #[test]
    fn builder_error_paths() {
        let scenario = Scenario::paper_random(8, 2, 1.1, 1);
        assert_eq!(
            StudyBuilder::new(&scenario)
                .random_schedules(0)
                .run()
                .unwrap_err(),
            StudyError::NoSchedules
        );
        assert_eq!(
            StudyBuilder::new(&scenario)
                .random_schedules(10)
                .threads(0)
                .run()
                .unwrap_err(),
            StudyError::ZeroThreads
        );
        assert_eq!(
            StudyBuilder::new(&scenario)
                .random_schedules(10)
                .reservoir_capacity(1)
                .run()
                .unwrap_err(),
            StudyError::ReservoirTooSmall(1)
        );
        assert_eq!(
            StudyBuilder::new(&scenario)
                .random_schedules(10)
                .heuristics(&["NOPE"])
                .run()
                .unwrap_err(),
            StudyError::UnknownHeuristic("NOPE".into())
        );
        assert_eq!(
            StudyBuilder::new(&scenario)
                .random_schedules(10)
                .evaluator_named("exact")
                .run()
                .unwrap_err(),
            StudyError::UnknownEvaluator("exact".into())
        );
    }

    #[test]
    fn worker_panic_surfaces_as_study_error() {
        use robusched_randvar::DiscreteRv;
        use robusched_sched::Schedule;

        /// Panics on every evaluation — drives the first-panic capture
        /// path without a NaN or a poisoned lock in sight.
        struct PanickingEvaluator;
        impl Evaluator for PanickingEvaluator {
            fn name(&self) -> &str {
                "panicker"
            }
            fn evaluate_with(
                &self,
                _scenario: &Scenario,
                _schedule: &Schedule,
                _cx: &mut EvalContext,
            ) -> DiscreteRv {
                panic!("injected failure");
            }
        }

        let scenario = Scenario::paper_random(10, 3, 1.1, 5);
        // Silence the default panic hook for the duration: every worker
        // thread would otherwise print a backtrace banner.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let err = StudyBuilder::new(&scenario)
            .random_schedules(300)
            .threads(4)
            .evaluator(Box::new(PanickingEvaluator))
            .run()
            .unwrap_err();
        std::panic::set_hook(hook);
        match err {
            StudyError::WorkerPanic(msg) => {
                assert!(msg.contains("injected failure"), "message was: {msg}")
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }

    #[test]
    fn swapping_evaluators_preserves_the_cluster() {
        // The same study under Spelde's backend: σ ~ lateness must stay
        // strongly correlated (the backbone of the ext-backends study).
        let scenario = Scenario::paper_random(10, 3, 1.1, 5);
        let res = StudyBuilder::new(&scenario)
            .random_schedules(120)
            .seed(3)
            .evaluator_named("spelde")
            .run()
            .unwrap();
        let idx = |name: &str| METRIC_LABELS.iter().position(|&l| l == name).unwrap();
        let r = res
            .pearson_streamed()
            .get(idx("makespan_std"), idx("avg_lateness"));
        assert!(r > 0.9, "Spelde σ~L = {r}");
    }
}
