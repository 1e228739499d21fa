//! `online-faults`: `DynamicSim::with_faults(..).run` over a Poisson
//! stream of the `ext-dynamic` workload pool, with probabilistic pruning,
//! exponential machine failures and capped retry, on one thread.
//!
//! The only workload that runs the `dynamic` crate: the event loop,
//! `RemainingDists` (the `randvar` max/sum operations) and recovery. It
//! touches neither `EvalService` nor `StudyBuilder`.

use crate::report::{timed, Outcome, Round, RunPlan, Size};
use crate::trace::Tracer;
use robusched_core::OnlineMetrics;
use robusched_dynamic::{
    fault_by_spec, policy_by_spec, recovery_by_spec, Arrival, ArrivalStream, DynamicSim,
    PoissonStream, RemainingDists, SimConfig, SimResult,
};
use robusched_experiments::ext::dynamic::{mean_instance_work, workload_pool};
use robusched_platform::Scenario;
use robusched_randvar::{derive_seed, DEFAULT_GRID};
use robusched_sched::{heuristic_by_name, EagerPlan};
use robusched_stochastic::DiscretizedScenario;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Probabilistic pruning (Gentry et al.): drop an instance once its
/// chance of meeting the deadline falls below one half.
const POLICY: &str = "prune@0.5";

/// Capped retry of killed tasks.
const RECOVERY: &str = "retry@3";

/// Arrival rate over platform capacity. At this load the backlog does not
/// grow with run length (the early and late parts of a stream meet their
/// deadlines equally often, checked by a unit test), while pruning and
/// faults still drop about a third of the instances.
pub const OVERSUB: f64 = 0.2;

/// Deadline slack factor (the `ext-dynamic` calibration).
const DEADLINE_FACTOR: f64 = 3.0;

/// The simulation's inputs.
pub struct Setup {
    pool: Vec<Arc<Scenario>>,
    rate: f64,
    fault_spec: String,
    instances: usize,
    seed: u64,
}

/// Builds the pool, calibrates the arrival rate against it, and scales
/// the fault model to the pool's mean instance work: a machine fails
/// about every ten instances' worth of work and takes half an instance to
/// repair (the `ext-faults` "exp-mild" regime).
pub fn build(seed: u64, instances: usize, oversub: f64) -> Setup {
    let pool = workload_pool(derive_seed(seed, 7));
    let mean_work = mean_instance_work(&pool);
    let machines = pool[0].machine_count() as f64;
    Setup {
        rate: oversub * machines / mean_work,
        fault_spec: format!("exp@{}:{}", 10.0 * mean_work, 0.5 * mean_work),
        pool,
        instances,
        seed,
    }
}

impl Setup {
    fn stream(&self) -> PoissonStream {
        PoissonStream::new(
            self.pool.clone(),
            self.rate,
            self.instances,
            derive_seed(self.seed, 1),
        )
    }

    /// One simulation of the stream: its result, the wall time of the
    /// `DynamicSim::run` call alone, and the wall time of each arrival
    /// step in milliseconds.
    pub fn simulate(&self, tr: &Tracer) -> (Result<SimResult, String>, Duration, Vec<f64>) {
        let policy = policy_by_spec(POLICY).expect("valid policy spec");
        let fault = fault_by_spec(&self.fault_spec).expect("valid fault spec");
        let recovery = recovery_by_spec(RECOVERY).expect("valid recovery spec");
        let config = SimConfig {
            heuristic: "heft".into(),
            deadline_factor: DEADLINE_FACTOR,
            seed: derive_seed(self.seed, 2),
            ..SimConfig::default()
        };
        let sim =
            DynamicSim::with_faults(policy.as_ref(), config, fault.as_ref(), recovery.as_ref());
        let mut stream = Stamped {
            inner: self.stream(),
            pulls: Vec::with_capacity(self.instances + 1),
        };
        let t = Instant::now();
        let result = tr.span("dynamic.run", || sim.run(&mut stream));
        let wall = t.elapsed();
        let steps = stream
            .pulls
            .get(1..)
            .unwrap_or_default()
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
            .collect();
        (result.map_err(|e| e.to_string()), wall, steps)
    }
}

/// The arrival stream as the simulator sees it, stamped at every pull.
/// The simulator pulls arrival `k + 1` when it takes arrival `k`, so the
/// gap between two pulls after the first is the wall time of one arrival
/// step: admitting the arrival and the events before the next one.
struct Stamped {
    inner: PoissonStream,
    pulls: Vec<Instant>,
}

impl ArrivalStream for Stamped {
    fn next_arrival(&mut self) -> Option<Arrival> {
        self.pulls.push(Instant::now());
        self.inner.next_arrival()
    }
}

/// The counters that must repeat exactly, in a fixed order.
pub fn counters(m: &OnlineMetrics, dist_builds: usize) -> [usize; 14] {
    [
        m.instances,
        m.admitted,
        m.rejected,
        m.dropped,
        m.completed,
        m.workflows_met,
        m.tasks_total,
        m.tasks_completed,
        m.tasks_met,
        m.machine_failures,
        m.killed_tasks,
        m.transient_faults,
        m.retries,
        dist_builds,
    ]
}

fn instances(size: Size) -> usize {
    size.pick(8000, 200)
}

/// Seed-independent sanity of one run's counters.
fn consistent(setup: &Setup, m: &OnlineMetrics) -> bool {
    m.instances == setup.instances
        && m.admitted + m.rejected == m.instances
        && m.workflows_met <= m.completed
        && m.completed <= m.admitted
        && m.tasks_met <= m.tasks_completed
        && m.tasks_completed <= m.tasks_total
}

/// The timed workload.
pub fn run(seed: u64, size: Size, plan: &RunPlan) -> Outcome {
    let off = Tracer::new(false);
    let pinned = (size == Size::Full && seed == crate::DEFAULT_SEED).then(|| {
        crate::study::load_reference()
            .get(REFERENCE_KEY)
            .map(<[f64]>::to_vec)
    });
    let mut out = Outcome::default();
    let mut first: Option<(OnlineMetrics, usize)> = None;
    let rounds = plan.repeat(|_| {
        let (setup, setup_time) = timed(|| build(seed, instances(size), OVERSUB));
        let mut round = Round {
            ops: setup.instances as u64,
            setup: setup_time,
            ..Round::default()
        };
        let (result, wall, steps) = setup.simulate(&off);
        round.wall = wall;
        round.latencies_ms = steps;
        let res = match result {
            Ok(res) => res,
            Err(e) => {
                out.failed += round.ops;
                out.failures.push(e);
                return round;
            }
        };
        let m = res.metrics;
        out.check(consistent(&setup, &m), || {
            format!("inconsistent online counters {m:?}")
        });
        match &first {
            Some((f, builds)) => out.check(*f == m && *builds == res.dist_builds, || {
                "a repeated simulation gave different counters".to_string()
            }),
            None => {
                if let Some(pinned) = &pinned {
                    let got = counters(&m, res.dist_builds).map(|c| c as f64);
                    out.check(pinned.as_deref() == Some(&got[..]), || {
                        format!("online counters {got:?} differ from the pinned {pinned:?}")
                    });
                }
                first = Some((m, res.dist_builds));
            }
        }
        round
    });
    out.attempted = rounds.ops();
    out.end_to_end(&rounds);
    out
}

/// The online section of the traced run.
pub fn traced(tr: &Tracer, seed: u64, size: Size, out: &mut Outcome) {
    let setup = build(seed, instances(size), OVERSUB);
    let heft = heuristic_by_name("heft").expect("heft is registered");
    for sc in &setup.pool {
        let sched = heft.schedule(sc).expect("pool scenarios schedule");
        let plan = EagerPlan::new(&sc.graph.dag, &sched).expect("heft schedules are valid");
        let disc = DiscretizedScenario::new(sc, DEFAULT_GRID);
        let rem = tr.span("dynamic.remaining_build", || {
            RemainingDists::build(sc, &sched, &plan, &disc)
        });
        std::hint::black_box(rem);
    }
    tr.begin_op();
    let (traced, wall_traced, _) = setup.simulate(tr);
    let (untraced, wall_untraced, _) = setup.simulate(&Tracer::new(false));
    out.attempted += 2 * setup.instances as u64;
    let (traced, untraced) = match (traced, untraced) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            out.failed += 2 * setup.instances as u64;
            out.failures.push(format!(
                "online simulation failed: {:?} / {:?}",
                a.err(),
                b.err()
            ));
            return;
        }
    };
    let m = traced.metrics;
    out.check(
        m == untraced.metrics && traced.dist_builds == untraced.dist_builds,
        || "traced and untraced online runs gave different counters".to_string(),
    );
    out.check(consistent(&setup, &m), || {
        format!("inconsistent online counters {m:?}")
    });

    let layers = tr.layers();
    let layer = |name: &str| layers.get(name).copied().unwrap_or_default();
    let run = layer("dynamic.run");
    out.metric("dynamic.run_s", run.per_call(1e9), "s", run.calls as usize);
    let build = layer("dynamic.remaining_build");
    out.metric(
        "dynamic.remaining_build_ms",
        build.per_call(1e6),
        "ms",
        build.calls as usize,
    );
    let n = setup.instances;
    out.metric("dynamic.dist_builds", traced.dist_builds as f64, "count", n);
    out.metric("dynamic.hit_rate", m.workflow_hit_rate(), "ratio", n);
    out.metric("dynamic.dropped", m.dropped as f64, "count", n);
    out.metric("dynamic.retries", m.retries as f64, "count", n);
    out.metric("dynamic.killed_tasks", m.killed_tasks as f64, "count", n);
    let overhead = wall_traced.as_secs_f64() / wall_untraced.as_secs_f64();
    out.metric("trace.overhead.online", overhead, "ratio", 1);
}

/// Label of the pinned counters in the reference file.
const REFERENCE_KEY: &str = "online counters full";

/// The online line of the reference file, recomputed at the default seed.
pub fn reference_text(size: Size) -> String {
    let setup = build(crate::DEFAULT_SEED, instances(size), OVERSUB);
    let res = setup
        .simulate(&Tracer::new(false))
        .0
        .expect("reference simulation runs");
    let nums: Vec<String> = counters(&res.metrics, res.dist_builds)
        .iter()
        .map(|c| c.to_string())
        .collect();
    format!(
        "# online-faults at the default seed: instances admitted rejected dropped completed \
         workflows_met tasks_total tasks_completed tasks_met machine_failures killed_tasks \
         transient_faults retries dist_builds\n{REFERENCE_KEY} {}\n",
        nums.join(" ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use robusched_stochastic::scenario_fingerprint;

    #[test]
    fn backlog_does_not_grow_with_run_length() {
        let setup = build(crate::DEFAULT_SEED, 8000, OVERSUB);
        let outcomes = setup
            .simulate(&Tracer::new(false))
            .0
            .expect("simulation runs")
            .outcomes;
        let hit_rate = |range: std::ops::Range<usize>| {
            let n = range.len() as f64;
            outcomes[range].iter().filter(|o| o.met_deadline()).count() as f64 / n
        };
        // Past the warm-up, the second quarter and the last quarter of the
        // stream meet their deadlines equally often.
        let (early, late) = (hit_rate(2000..4000), hit_rate(6000..8000));
        assert!(
            (early - late).abs() < 0.03,
            "hit rate {early} early, {late} late"
        );
    }

    #[test]
    fn seeds_change_the_pool() {
        let prints = |seed| -> Vec<u64> {
            build(seed, 10, OVERSUB)
                .pool
                .iter()
                .map(|s| scenario_fingerprint(s))
                .collect()
        };
        assert_ne!(prints(1), prints(2));
    }
}
