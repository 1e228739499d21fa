//! `study-classic`: the paper's §V protocol through `StudyBuilder::run`,
//! and its single-threaded traced replay.
//!
//! A scenario is prepared once and hundreds of schedules are evaluated
//! against it, so classic-evaluator and kernel work and the parallel map
//! show here; `EvalService` is bypassed.

use crate::report::{timed, Outcome, Round, RunPlan, Size};
use crate::trace::Tracer;
use robusched_core::{
    compute_metrics, MetricOptions, MetricValues, RankReservoir, StreamingMoments, StudyBuilder,
    StudyResult, METRIC_LABELS,
};
use robusched_dag::generators::cholesky;
use robusched_platform::Scenario;
use robusched_randvar::{derive_seed, DiscreteRv, RvWorkspace, DEFAULT_GRID};
use robusched_sched::{heuristic_by_name, random_schedule};
use robusched_stochastic::{ClassicEvaluator, DiscretizedScenario, EvalContext, Evaluator};
use std::time::{Duration, Instant};

/// The paper's heuristics, evaluated alongside the random schedules.
const HEURISTICS: [&str; 3] = ["HEFT", "BIL", "Hyb.BMCT"];

/// Worker threads of the timed studies.
const THREADS: usize = 2;

/// `StudyBuilder`'s default rank-reservoir capacity, which the replay must
/// match to reproduce its Spearman matrices.
const RESERVOIR: usize = 4096;

/// Largest difference from the stored reference matrices.
const REFERENCE_TOLERANCE: f64 = 1e-9;

/// One study case.
pub struct Case {
    pub name: &'static str,
    /// Span name of the case's classic evaluations.
    eval_span: &'static str,
    pub scenario: Scenario,
    pub schedules: usize,
    pub seed: u64,
}

impl Case {
    /// Operations of one study: random schedules plus heuristics.
    fn ops(&self) -> u64 {
        (self.schedules + HEURISTICS.len()) as u64
    }
}

/// The three cases: the fig4 random graph, a 36-task Cholesky graph and a
/// 100-task random graph, each with a seed-derived scenario.
pub fn build_cases(tr: &Tracer, seed: u64, size: Size) -> Vec<Case> {
    let scenario = |f: &dyn Fn() -> Scenario| tr.span("platform.scenario", f);
    vec![
        Case {
            name: "n30",
            eval_span: "stochastic.evaluate.classic.n30",
            scenario: scenario(&|| Scenario::paper_random(30, 8, 1.01, derive_seed(seed, 30))),
            schedules: size.pick(256, 64),
            seed: derive_seed(seed, 1030),
        },
        Case {
            name: "chol36",
            eval_span: "stochastic.evaluate.classic.chol36",
            scenario: scenario(&|| {
                Scenario::paper_real_app(cholesky(8), 4, 1.01, derive_seed(seed, 36))
            }),
            schedules: size.pick(256, 64),
            seed: derive_seed(seed, 1036),
        },
        Case {
            name: "n100",
            eval_span: "stochastic.evaluate.classic.n100",
            scenario: scenario(&|| Scenario::paper_random(100, 16, 1.1, derive_seed(seed, 100))),
            schedules: size.pick(128, 16),
            seed: derive_seed(seed, 1100),
        },
    ]
}

/// Every metric of a row, in the wire's `METRIC_FIELDS` order.
pub fn fields(v: &MetricValues) -> [f64; 10] {
    [
        v.expected_makespan,
        v.makespan_std,
        v.makespan_entropy,
        v.avg_slack,
        v.slack_std,
        v.avg_lateness,
        v.prob_absolute,
        v.prob_relative,
        v.late_fraction,
        v.total_slack,
    ]
}

fn finite(v: &MetricValues) -> bool {
    fields(v).iter().all(|x| x.is_finite())
}

fn bits(v: &MetricValues) -> [u64; 10] {
    fields(v).map(f64::to_bits)
}

/// The streamed Pearson and Spearman matrices, row-major.
pub struct Matrices {
    pub pearson: Vec<f64>,
    pub spearman: Vec<f64>,
}

impl Matrices {
    fn of(moments: &StreamingMoments, reservoir: &RankReservoir) -> Self {
        let flat = |m: robusched_stats::CorrMatrix| {
            let d = m.dim();
            (0..d * d).map(|i| m.get(i / d, i % d)).collect()
        };
        Self {
            pearson: flat(moments.pearson_matrix(&METRIC_LABELS)),
            spearman: flat(reservoir.spearman_matrix(&METRIC_LABELS)),
        }
    }

    fn bit_identical(&self, other: &Self) -> bool {
        let same = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        same(&self.pearson, &other.pearson) && same(&self.spearman, &other.spearman)
    }
}

/// Largest cell difference; NaN cells must be NaN on both sides.
fn max_diff(got: &[f64], want: &[f64]) -> f64 {
    if got.len() != want.len() {
        return f64::INFINITY;
    }
    got.iter()
        .zip(want)
        .map(|(a, b)| match (a.is_nan(), b.is_nan()) {
            (true, true) => 0.0,
            (false, false) => (a - b).abs(),
            _ => f64::INFINITY,
        })
        .fold(0.0, f64::max)
}

/// What one study produced, for the checks.
struct Studied {
    matrices: Matrices,
    heuristics: Vec<[u64; 10]>,
    nonfinite_rows: u64,
}

/// One `StudyBuilder::run` of a case (2 workers, classic evaluator,
/// streaming accumulators) plus its correlation matrices, with every
/// metric row checked for finiteness on the way.
fn run_study(case: &Case) -> Result<Studied, String> {
    let mut nonfinite_rows = 0u64;
    let mut sink = |_: usize, v: &MetricValues| {
        if !finite(v) {
            nonfinite_rows += 1;
        }
    };
    let res: StudyResult = StudyBuilder::new(&case.scenario)
        .random_schedules(case.schedules)
        .seed(case.seed)
        .heuristics(&HEURISTICS)
        .evaluator_named("classic")
        .threads(THREADS)
        .sink(&mut sink)
        .run()
        .map_err(|e| format!("{}: {e}", case.name))?;
    let matrices = Matrices::of(&res.moments, &res.reservoir);
    let heuristics: Vec<[u64; 10]> = res.heuristics.iter().map(|(_, v)| bits(v)).collect();
    nonfinite_rows += res.heuristics.iter().filter(|(_, v)| !finite(v)).count() as u64;
    Ok(Studied {
        matrices,
        heuristics,
        nonfinite_rows,
    })
}

/// Three-case studies per round. They share the round's set-up and give
/// the round's latency samples, so its p99 is its slowest study.
const STUDIES_PER_ROUND: usize = 4;

/// The timed workload.
pub fn run(seed: u64, size: Size, plan: &RunPlan) -> Outcome {
    let off = Tracer::new(false);
    let reference = (size == Size::Full && seed == crate::DEFAULT_SEED).then(load_reference);
    let mut out = Outcome::default();
    let mut first: Vec<Option<Studied>> = Vec::new();
    let rounds = plan.repeat(|_| {
        let (cases, setup) = timed(|| build_cases(&off, seed, size));
        first.resize_with(cases.len(), || None);
        let mut round = Round {
            setup,
            ..Round::default()
        };
        for _ in 0..STUDIES_PER_ROUND {
            // The latency sample is the whole three-case study, the unit a
            // user waits for; single cases differ in size by a factor of four.
            let mut study_wall = Duration::ZERO;
            for (ci, case) in cases.iter().enumerate() {
                let t = Instant::now();
                let studied = run_study(case);
                study_wall += t.elapsed();
                round.ops += case.ops();
                let studied = match studied {
                    Ok(s) => s,
                    Err(e) => {
                        out.failed += case.ops();
                        out.failures.push(e);
                        continue;
                    }
                };
                out.failed += studied.nonfinite_rows;
                if studied.nonfinite_rows > 0 {
                    out.failures.push(format!(
                        "{}: {} non-finite metric rows",
                        case.name, studied.nonfinite_rows
                    ));
                }
                match &first[ci] {
                    Some(f) => out.check(
                        f.matrices.bit_identical(&studied.matrices)
                            && f.heuristics == studied.heuristics,
                        || format!("{}: a repeated study gave different results", case.name),
                    ),
                    None => {
                        if let Some(reference) = &reference {
                            check_reference(&mut out, case.name, &studied.matrices, reference);
                        }
                        first[ci] = Some(studied);
                    }
                }
            }
            round.wall += study_wall;
            round.latencies_ms.push(study_wall.as_secs_f64() * 1e3);
        }
        round
    });
    out.attempted = rounds.ops();
    out.end_to_end(&rounds);
    out
}

fn check_reference(out: &mut Outcome, case: &str, got: &Matrices, reference: &Reference) {
    for (kind, got) in [("pearson", &got.pearson), ("spearman", &got.spearman)] {
        let key = format!("study {case} {kind}");
        match reference.get(&key) {
            Some(want) => {
                let diff = max_diff(got, want);
                out.check(diff <= REFERENCE_TOLERANCE, || {
                    format!("{key}: differs from the stored reference by {diff:e}")
                });
            }
            None => out.check(false, || format!("{key}: no stored reference")),
        }
    }
}

/// The `StudyBuilder` steps of a case on one thread, each call in its own
/// span: same schedule seeds, reservoir seed and delivery order, so the
/// matrices must equal the 2-worker study's bit for bit.
fn replay(tr: &Tracer, case: &Case) -> Studied {
    let sc = &case.scenario;
    let m = sc.machine_count();
    let opts = MetricOptions::default();
    let ev = ClassicEvaluator::default();
    tr.span("core.study.replay", || {
        let prep = tr.span("stochastic.prepare", || ev.prepare(sc));
        let mut cx = EvalContext::new(prep.clone());
        let k = METRIC_LABELS.len();
        let mut moments = StreamingMoments::new(k);
        let mut reservoir = RankReservoir::new(k, RESERVOIR, derive_seed(case.seed, !0));
        let mut nonfinite_rows = 0u64;
        for idx in 0..case.schedules {
            tr.begin_op();
            tr.span("core.study.schedule", || {
                let sched = tr.span("sched.random_schedule", || {
                    random_schedule(&sc.graph.dag, m, derive_seed(case.seed, idx as u64))
                });
                let rv = tr.span(case.eval_span, || ev.evaluate_with(sc, &sched, &mut cx));
                let values = tr.span("core.metrics", || compute_metrics(sc, &sched, &rv, &opts));
                if !finite(&values) {
                    nonfinite_rows += 1;
                }
                tr.span("core.accumulate", || {
                    let row = values.oriented_vector();
                    moments.push(&row);
                    reservoir.push(&row);
                });
            });
        }
        let mut cx = EvalContext::new(prep);
        let mut heuristics = Vec::new();
        for name in HEURISTICS {
            tr.begin_op();
            tr.span("core.study.schedule", || {
                let h = heuristic_by_name(name).expect("paper heuristics are registered");
                match tr.span("sched.heuristic", || h.schedule(sc)) {
                    Ok(sched) => {
                        let rv = tr.span(case.eval_span, || ev.evaluate_with(sc, &sched, &mut cx));
                        let values =
                            tr.span("core.metrics", || compute_metrics(sc, &sched, &rv, &opts));
                        if !finite(&values) {
                            nonfinite_rows += 1;
                        }
                        heuristics.push(bits(&values));
                    }
                    Err(_) => nonfinite_rows += 1,
                }
            });
        }
        tr.begin_op();
        let matrices = tr.span("core.correlate", || Matrices::of(&moments, &reservoir));
        Studied {
            matrices,
            heuristics,
            nonfinite_rows,
        }
    })
}

/// Per-call kernel costs on a case's own distributions: first-touch
/// discretization of every task slot, then `sum_into`/`max_into` over
/// neighbouring slots.
fn kernels(tr: &Tracer, case: &Case) {
    let sc = &case.scenario;
    let disc = DiscretizedScenario::new(sc, DEFAULT_GRID);
    let mut slots: Vec<&DiscreteRv> = Vec::new();
    for v in 0..sc.task_count() {
        for p in 0..sc.machine_count() {
            slots.push(tr.span("stochastic.discretize", || disc.task(sc, v, p)));
        }
    }
    let mut ws = RvWorkspace::new();
    let mut out = DiscreteRv::point(0.0);
    for pair in slots.windows(2) {
        tr.span("randvar.sum_into", || {
            pair[0].sum_into(pair[1], &mut ws, &mut out)
        });
        std::hint::black_box(&out);
        tr.span("randvar.max_into", || {
            pair[0].max_into(pair[1], &mut ws, &mut out)
        });
        std::hint::black_box(&out);
    }
}

/// The study section of the traced run.
pub fn traced(tr: &Tracer, seed: u64, size: Size, out: &mut Outcome) {
    let cases = build_cases(tr, seed, size);
    let off = Tracer::new(false);
    let (mut wall_parallel, mut wall_traced, mut wall_untraced) = (0.0, 0.0, 0.0);
    for case in &cases {
        let t = Instant::now();
        let studied = run_study(case);
        wall_parallel += t.elapsed().as_secs_f64();

        let t = Instant::now();
        let rep = replay(tr, case);
        wall_traced += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let rep_off = replay(&off, case);
        wall_untraced += t.elapsed().as_secs_f64();

        out.attempted += 3 * case.ops();
        out.failed += rep.nonfinite_rows;
        match studied {
            Ok(s) => out.check(
                s.matrices.bit_identical(&rep.matrices) && s.heuristics == rep.heuristics,
                || {
                    format!(
                        "{}: replay differs from StudyBuilder's 2-thread study",
                        case.name
                    )
                },
            ),
            Err(e) => out.check(false, || e),
        }
        out.check(
            rep.matrices.bit_identical(&rep_off.matrices) && rep.heuristics == rep_off.heuristics,
            || format!("{}: traced and untraced replays differ", case.name),
        );
        kernels(tr, case);
    }

    let layers = tr.layers();
    let layer = |name: &str| layers.get(name).copied().unwrap_or_default();
    let us = 1e3;
    let ms = 1e6;
    let per_call = |out: &mut Outcome, metric: &str, span: &str, unit_ns: f64, unit| {
        let l = layer(span);
        out.metric(metric, l.per_call(unit_ns), unit, l.calls as usize);
    };
    per_call(out, "platform.scenario_ms", "platform.scenario", ms, "ms");
    per_call(out, "stochastic.prepare_ms", "stochastic.prepare", ms, "ms");
    per_call(
        out,
        "sched.random_schedule_us",
        "sched.random_schedule",
        us,
        "us",
    );
    per_call(out, "sched.heuristic_us", "sched.heuristic", us, "us");
    let mut eval_ns = 0;
    for case in &cases {
        let metric = format!("stochastic.evaluate_us.classic.{}", case.name);
        per_call(out, &metric, case.eval_span, us, "us");
        eval_ns += layer(case.eval_span).total_ns;
    }
    per_call(out, "core.metrics_us", "core.metrics", us, "us");
    per_call(out, "core.accumulate_us", "core.accumulate", us, "us");
    per_call(out, "core.correlate_ms", "core.correlate", ms, "ms");
    let schedule = layer("core.study.schedule");
    out.metric(
        "stochastic.evaluate_share",
        eval_ns as f64 / schedule.total_ns as f64,
        "ratio",
        schedule.calls as usize,
    );
    let replay_s = layer("core.study.replay").total_ns as f64 / 1e9;
    out.metric(
        "core.study.parallel_efficiency",
        replay_s / (THREADS as f64 * wall_parallel),
        "ratio",
        cases.len(),
    );
    per_call(out, "randvar.sum_into_us", "randvar.sum_into", us, "us");
    per_call(out, "randvar.max_into_us", "randvar.max_into", us, "us");
    per_call(
        out,
        "stochastic.discretize_us",
        "stochastic.discretize",
        us,
        "us",
    );
    out.metric(
        "trace.overhead.study",
        wall_traced / wall_untraced,
        "ratio",
        cases.len(),
    );
}

/// Stored reference values, keyed by their line's label.
pub struct Reference(Vec<(String, Vec<f64>)>);

impl Reference {
    pub fn get(&self, key: &str) -> Option<&[f64]> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_slice())
    }
}

/// The values stored with the benchmark: one line per item, a label of
/// three words then the numbers (`NaN` where a correlation is undefined).
pub fn load_reference() -> Reference {
    let text = include_str!("../reference/default-seed.txt");
    Reference(
        text.lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
            .filter_map(|l| {
                let words: Vec<&str> = l.split_whitespace().collect();
                let values = words
                    .get(3..)?
                    .iter()
                    .map(|w| w.parse().ok())
                    .collect::<Option<_>>()?;
                Some((words[..3].join(" "), values))
            })
            .collect(),
    )
}

/// The study lines of the reference file, recomputed at the default seed.
pub fn reference_text(size: Size) -> String {
    let mut text = String::from(
        "# study-classic at the default seed: streamed Pearson and Spearman matrices, row-major\n",
    );
    for case in build_cases(&Tracer::new(false), crate::DEFAULT_SEED, size) {
        let studied = run_study(&case).expect("reference study runs");
        for (kind, values) in [
            ("pearson", &studied.matrices.pearson),
            ("spearman", &studied.matrices.spearman),
        ] {
            let nums: Vec<String> = values.iter().map(|v| format!("{v:?}")).collect();
            text.push_str(&format!("study {} {kind} {}\n", case.name, nums.join(" ")));
        }
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use robusched_stochastic::scenario_fingerprint;

    #[test]
    fn seeds_change_every_case() {
        let off = Tracer::new(false);
        let (a, b) = (
            build_cases(&off, 1, Size::Tiny),
            build_cases(&off, 2, Size::Tiny),
        );
        for (x, y) in a.iter().zip(&b) {
            assert_ne!(
                scenario_fingerprint(&x.scenario),
                scenario_fingerprint(&y.scenario)
            );
            assert_ne!(x.seed, y.seed);
        }
    }

    #[test]
    fn reference_holds_every_study_matrix() {
        let reference = load_reference();
        for case in ["n30", "chol36", "n100"] {
            for kind in ["pearson", "spearman"] {
                let key = format!("study {case} {kind}");
                assert_eq!(reference.get(&key).map(<[f64]>::len), Some(64), "{key}");
            }
        }
    }
}
