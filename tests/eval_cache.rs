//! Equivalence suite for the allocation-free evaluator hot path.
//!
//! The PR-4 rewrite threads a shared [`DiscretizedScenario`] cache and
//! per-worker scratch (`EvalContext`) through every evaluator backend.
//! These tests pin the contract:
//!
//! * cached (shared context, warmed across many schedules) and uncached
//!   (fresh context per call) evaluation agree to ≤ 1e-12 for all four
//!   backends;
//! * the `*_into` kernels are bit-for-bit identical to the allocating
//!   operators;
//! * streamed study matrices remain bit-identical across 1, 2 and 4
//!   worker threads under every backend.

use robusched::core::StudyBuilder;
use robusched::platform::Scenario;
use robusched::randvar::{DiscreteRv, RvWorkspace, ScaledBeta};
use robusched::sched::{heft, random_schedule, Schedule};
use robusched::stochastic::{evaluator_by_name, EvalContext};

const BACKENDS: [&str; 4] = ["classic", "spelde", "dodin", "montecarlo"];

fn case() -> (Scenario, Vec<Schedule>) {
    let s = Scenario::paper_random(12, 3, 1.1, 8);
    let mut schedules: Vec<Schedule> = (0..6)
        .map(|i| random_schedule(&s.graph.dag, 3, 1000 + i))
        .collect();
    schedules.push(heft(&s));
    (s, schedules)
}

fn assert_rv_close(a: &DiscreteRv, b: &DiscreteRv, tol: f64, what: &str) {
    assert_eq!(a.points(), b.points(), "{what}: grid size");
    assert!((a.lo() - b.lo()).abs() <= tol, "{what}: lo");
    assert!((a.hi() - b.hi()).abs() <= tol, "{what}: hi");
    assert!(
        (a.mean() - b.mean()).abs() <= tol * a.mean().abs().max(1.0),
        "{what}: mean {} vs {}",
        a.mean(),
        b.mean()
    );
    assert!(
        (a.std_dev() - b.std_dev()).abs() <= tol * a.std_dev().abs().max(1.0),
        "{what}: std {} vs {}",
        a.std_dev(),
        b.std_dev()
    );
    for (i, (x, y)) in a.pdf_values().iter().zip(b.pdf_values().iter()).enumerate() {
        assert!(
            (x - y).abs() <= tol * x.abs().max(1.0),
            "{what}: pdf[{i}] {x} vs {y}"
        );
    }
}

/// Cached (one shared context reused across every schedule) vs uncached
/// (fresh context per call) evaluation for all four backends.
#[test]
fn cached_matches_uncached_for_all_backends() {
    let (s, schedules) = case();
    for name in BACKENDS {
        let e = evaluator_by_name(name).unwrap();
        let mut shared = EvalContext::new(e.prepare(&s));
        for (k, sched) in schedules.iter().enumerate() {
            let cached = e.evaluate_with(&s, sched, &mut shared);
            let uncached = e.evaluate(&s, sched);
            assert_rv_close(&cached, &uncached, 1e-12, &format!("{name} schedule {k}"));
        }
    }
}

/// A context that was warmed on one scenario must still produce correct
/// results when handed a different scenario (private fallback path) —
/// including the dangerous case of a *same-shape* scenario that differs
/// only in uncertainty level or seed-derived costs, which a shape-only
/// cache check would wrongly accept.
#[test]
fn stale_context_falls_back_correctly() {
    let (s, schedules) = case();
    let different_shape = Scenario::paper_random(9, 2, 1.2, 99);
    let shape_sched = random_schedule(&different_shape.graph.dag, 2, 7);
    // Same dimensions as `s` (12 tasks, 3 machines, same seed → same graph
    // → same edge count), different uncertainty level.
    let same_shape_other_ul = Scenario::paper_random(12, 3, 1.4, 8);
    for name in BACKENDS {
        let e = evaluator_by_name(name).unwrap();
        // Prepared for `s`, then asked about scenarios it was not built for.
        let mut cx = EvalContext::new(e.prepare(&s));
        let via_stale = e.evaluate_with(&different_shape, &shape_sched, &mut cx);
        let fresh = e.evaluate(&different_shape, &shape_sched);
        assert_rv_close(&via_stale, &fresh, 1e-12, &format!("{name} stale-shape"));
        for (k, sched) in schedules.iter().enumerate() {
            let via_stale = e.evaluate_with(&same_shape_other_ul, sched, &mut cx);
            let fresh = e.evaluate(&same_shape_other_ul, sched);
            assert_rv_close(
                &via_stale,
                &fresh,
                1e-12,
                &format!("{name} same-shape-other-UL schedule {k}"),
            );
        }
        // And the warmed context still answers the original scenario.
        let back = e.evaluate_with(&s, &schedules[0], &mut cx);
        assert_rv_close(
            &back,
            &e.evaluate(&s, &schedules[0]),
            1e-12,
            &format!("{name} back to prepared scenario"),
        );
    }
}

/// `sum_into`/`max_into`/`min_into` against the allocating operators,
/// bit for bit, through a deliberately dirty workspace.
#[test]
fn into_kernels_bit_for_bit() {
    let x = DiscreteRv::from_dist_default(&ScaledBeta::paper_default(20.0, 1.1));
    let y = DiscreteRv::from_dist_default(&ScaledBeta::paper_default(15.0, 1.4));
    let z = DiscreteRv::from_dist(&ScaledBeta::paper_default(40.0, 1.2), 32);
    let mut ws = RvWorkspace::new();
    let mut out = DiscreteRv::point(0.0);
    // Interleave shapes and operations so every buffer gets resized and
    // reused before the final comparisons.
    let pairs = [(&x, &y), (&y, &z), (&z, &x), (&x, &y)];
    for (a, b) in pairs {
        a.sum_into(b, &mut ws, &mut out);
        let reference = a.sum(b);
        assert_eq!(out.lo().to_bits(), reference.lo().to_bits());
        assert_eq!(out.hi().to_bits(), reference.hi().to_bits());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(out.pdf_values()), bits(reference.pdf_values()));
        assert_eq!(bits(out.cdf_values()), bits(reference.cdf_values()));

        a.max_into(b, &mut ws, &mut out);
        let reference = a.max(b);
        assert_eq!(bits(out.pdf_values()), bits(reference.pdf_values()));

        a.min_into(b, &mut ws, &mut out);
        let reference = a.min(b);
        assert_eq!(bits(out.pdf_values()), bits(reference.pdf_values()));
    }
}

/// Streamed study matrices must stay bit-identical across thread counts
/// for every backend after the rewrite (per-thread contexts must not leak
/// order-dependent state into the results). Monte-Carlo — the one backend
/// whose determinism rests on careful per-chunk seeding — runs with a
/// reduced realization budget so the suite stays fast; the determinism
/// contract is budget-independent.
#[test]
fn streamed_matrices_thread_invariant_per_backend() {
    use robusched::stochastic::{Evaluator, MonteCarloEvaluator};
    let scenario = Scenario::paper_random(10, 3, 1.1, 7);
    let make_eval = |name: &str| -> Box<dyn Evaluator> {
        if name == "montecarlo" {
            Box::new(MonteCarloEvaluator {
                realizations: 400,
                ..Default::default()
            })
        } else {
            evaluator_by_name(name).unwrap()
        }
    };
    for name in ["classic", "spelde", "dodin", "montecarlo"] {
        let run_with = |threads: usize| {
            StudyBuilder::new(&scenario)
                .random_schedules(130)
                .seed(3)
                .threads(threads)
                .evaluator(make_eval(name))
                .run()
                .unwrap()
        };
        let reference = run_with(1);
        let rp = reference.pearson_streamed();
        let rs = reference.spearman_streamed();
        for threads in [2usize, 4] {
            let got = run_with(threads);
            let gp = got.pearson_streamed();
            let gs = got.spearman_streamed();
            for i in 0..rp.dim() {
                for j in 0..rp.dim() {
                    assert_eq!(
                        rp.get(i, j).to_bits(),
                        gp.get(i, j).to_bits(),
                        "{name}: Pearson ({i},{j}) at {threads} threads"
                    );
                    assert_eq!(
                        rs.get(i, j).to_bits(),
                        gs.get(i, j).to_bits(),
                        "{name}: Spearman ({i},{j}) at {threads} threads"
                    );
                }
            }
        }
    }
}

/// FNV-1a over the little-endian bytes of 64-bit words.
fn fnv1a(hash: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Hash of every bit the classic evaluator returns (`lo`, `hi`, `pdf`,
/// `cdf`) for 16 random schedules plus HEFT, through one warm context.
fn classic_golden_hash(s: &Scenario) -> u64 {
    use robusched::stochastic::{ClassicEvaluator, Evaluator};
    let e = ClassicEvaluator::default();
    let mut cx = EvalContext::new(e.prepare(s));
    let m = s.machine_count();
    let mut schedules: Vec<Schedule> = (0..16)
        .map(|i| random_schedule(&s.graph.dag, m, 7000 + i))
        .collect();
    schedules.push(heft(s));
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for sched in &schedules {
        let rv = e.evaluate_with(s, sched, &mut cx);
        hash = fnv1a(hash, rv.lo().to_bits());
        hash = fnv1a(hash, rv.hi().to_bits());
        for &v in rv.pdf_values().iter().chain(rv.cdf_values()) {
            hash = fnv1a(hash, v.to_bits());
        }
    }
    hash
}

/// Pins the classic evaluator's exact output bits on the study-sized
/// cases. The kernel rewrites behind it (convolution loop order, grid
/// resampling, truncating lookups) must change none of them: committed
/// result files and gallery replays depend on every bit.
#[test]
fn classic_evaluator_golden_bits() {
    use robusched::dag::generators::cholesky;
    let cases = [
        (
            "n30",
            Scenario::paper_random(30, 8, 1.01, 30),
            0xa461_c022_f4e8_5454,
        ),
        (
            "chol36",
            Scenario::paper_real_app(cholesky(8), 4, 1.01, 36),
            0xfc40_b0ed_c0d6_b4e9,
        ),
        (
            "n100",
            Scenario::paper_random(100, 16, 1.1, 100),
            0xa071_a2ac_2415_6161,
        ),
    ];
    for (name, s, want) in cases {
        let got = classic_golden_hash(&s);
        assert_eq!(
            got, want,
            "{name}: classic output bits changed ({got:#018x})"
        );
    }
}
