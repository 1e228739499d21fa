//! `serve-mix`: seeded JSON request lines pushed through
//! `experiments::serve::serve_streams` (the `serve` entry point) by a
//! closed loop of clients that each wait for their reply.
//!
//! The evaluation layer is used the other way round from a study: many
//! scenarios, few schedules each. Preparation, prepared-scenario cache
//! hits, misses and evictions, the worker queue and JSON handling all sit
//! on the request path, so cache and service changes show here and not in
//! `study-classic`. With two requests outstanding and two workers, no
//! request waits in the queue, so every worker batch holds one request.
//! Dynamic request lines are left out: they run on the serve reader thread
//! and would serialize the mix behind them.

use crate::report::{median, quantile_sorted, timed, Outcome, Round, RunPlan, Size};
use crate::trace::Tracer;
use robusched_core::{
    compute_metrics, EvalRequest, EvalService, MetricOptions, MetricValues, ServiceConfig,
};
use robusched_dag::AppClass;
use robusched_experiments::ext::traces::sample_trace;
use robusched_experiments::serve::{parse_json, serve_streams, write_json, Json, METRIC_FIELDS};
use robusched_experiments::RunOptions;
use robusched_platform::{Scenario, TraceCalibration};
use robusched_randvar::{derive_seed, SplitMix64};
use robusched_sched::{heuristic_by_name, random_schedule, Schedule};
use robusched_stochastic::{evaluator_by_name, EvalContext};
use std::collections::HashMap;
use std::io::{BufRead, Read, Write};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Service workers, as `serve --threads 2` runs them.
const WORKERS: usize = 2;

/// Requests in flight: two clients, each waiting for its reply before
/// sending the next request.
const CLIENTS: usize = 2;

// No request log of this service exists, so the shares below are
// assumptions, not measurements: every kind the mix must cover gets an
// equal share, and the skew and repeat share take common defaults.

/// Distinct scenarios in the mix — more than the service's 64-entry
/// prepared-scenario LRU, so popular scenarios hit and rare ones evict.
const POPULATION: usize = 96;

/// Zipf exponent of scenario popularity (assumed).
const ZIPF: f64 = 1.0;

/// One request in ten repeats an earlier request exactly (assumed).
const REPEAT_BLOCK: [bool; 10] = [
    true, false, false, false, false, false, false, false, false, false,
];

/// Evaluator shares, per block of four requests: one each.
const EVALUATOR_BLOCK: [&str; 4] = ["classic", "spelde", "dodin", "montecarlo"];

/// Half the requests name a heuristic schedule, half a random one.
const HEURISTIC_BLOCK: [bool; 2] = [true, false];

/// Every `SAMPLE_EVERY`-th response is recomputed directly and compared.
const SAMPLE_EVERY: usize = 16;

/// Heuristics a heuristic-schedule request names.
const HEURISTICS: [&str; 3] = ["heft", "bil", "hyb.bmct"];

/// Sample traces of the `trace` family.
const TRACES: [&str; 3] = ["montage-like", "epigenomics-like", "cybershake-like"];

#[derive(Debug, Clone)]
enum Family {
    PaperRandom {
        n: usize,
    },
    App {
        class: AppClass,
        n: usize,
        speed_cov: f64,
    },
    Trace {
        name: &'static str,
        speed_cov: f64,
    },
}

/// One scenario of the population, as a request names it.
#[derive(Debug, Clone)]
struct ScenarioSpec {
    family: Family,
    m: usize,
    ul: f64,
    seed: u64,
}

impl ScenarioSpec {
    fn json(&self) -> String {
        let (m, ul, seed) = (self.m, self.ul, self.seed);
        match &self.family {
            Family::PaperRandom { n } => format!(
                "{{\"family\":\"paper-random\",\"n\":{n},\"m\":{m},\"ul\":{ul:?},\"seed\":{seed}}}"
            ),
            Family::App { class, n, speed_cov } => format!(
                "{{\"family\":\"app\",\"class\":\"{}\",\"n\":{n},\"m\":{m},\"speed_cov\":{speed_cov:?},\"ul\":{ul:?},\"seed\":{seed}}}",
                class.name()
            ),
            Family::Trace { name, speed_cov } => format!(
                "{{\"family\":\"trace\",\"trace\":\"{name}\",\"m\":{m},\"speed_cov\":{speed_cov:?},\"ul\":{ul:?},\"seed\":{seed}}}"
            ),
        }
    }

    /// The scenario the serve front end builds for this spec.
    fn build(&self) -> Scenario {
        match &self.family {
            Family::PaperRandom { n } => Scenario::paper_random(*n, self.m, self.ul, self.seed),
            Family::App {
                class,
                n,
                speed_cov,
            } => Scenario::structured_app(
                class.generate(*n, self.seed),
                self.m,
                *speed_cov,
                self.ul,
                self.seed,
            ),
            Family::Trace { name, speed_cov } => {
                let trace = sample_trace(name).expect("committed sample trace");
                let calibration = TraceCalibration {
                    machines: self.m,
                    speed_cov: *speed_cov,
                };
                Scenario::from_trace_with(&trace, &calibration, self.ul, self.seed)
            }
        }
    }
}

#[derive(Debug, Clone)]
enum ScheduleSpec {
    Heuristic(&'static str),
    Random(u64),
}

impl ScheduleSpec {
    fn build(&self, sc: &Scenario) -> Schedule {
        match self {
            ScheduleSpec::Heuristic(name) => heuristic_by_name(name)
                .expect("registered heuristic")
                .schedule(sc)
                .expect("heuristics schedule every mix scenario"),
            ScheduleSpec::Random(seed) => random_schedule(&sc.graph.dag, sc.machine_count(), *seed),
        }
    }
}

/// One request of the mix.
#[derive(Debug, Clone)]
struct RequestSpec {
    scenario: usize,
    schedule: ScheduleSpec,
    evaluator: &'static str,
}

/// The seeded request mix: the scenario population, the requests and
/// their wire lines.
pub struct Mix {
    population: Vec<ScenarioSpec>,
    requests: Vec<RequestSpec>,
    lines: Vec<String>,
}

fn unit(rng: &mut SplitMix64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

fn below(rng: &mut SplitMix64, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// Draws index `i` with probability proportional to its weight, given the
/// cumulative weights.
fn weighted(rng: &mut SplitMix64, cumulative: &[f64]) -> usize {
    let total = *cumulative.last().expect("non-empty weights");
    let u = unit(rng) * total;
    cumulative
        .partition_point(|&c| c <= u)
        .min(cumulative.len() - 1)
}

/// Blocks of `pattern`, each block shuffled: every block of
/// requests holds the pattern's exact shares, in a seed-dependent order.
fn stratified<T: Copy>(rng: &mut SplitMix64, pattern: &[T], count: usize) -> Vec<T> {
    let mut out = Vec::with_capacity(count + pattern.len());
    while out.len() < count {
        let mut block = pattern.to_vec();
        for i in (1..block.len()).rev() {
            block.swap(i, below(rng, i + 1));
        }
        out.extend(block);
    }
    out.truncate(count);
    out
}

/// Fractional part of `r·φ`: a low-discrepancy spread of ranks over
/// `[0, 1)`, so neighbouring ranks get different sizes.
fn spread(r: usize, k: usize) -> usize {
    ((r as f64 * 0.618_033_988_749_895).fract() * k as f64) as usize
}

/// The scenario at popularity rank `r`. Its shape (family, size, machines,
/// uncertainty) is the same for every seed, so the mix's cost does not
/// hinge on which shape a seed happens to make popular; the seed draws
/// the scenario's own seed, and with it the graph and costs.
fn scenario_spec(r: usize, rng: &mut SplitMix64) -> ScenarioSpec {
    let seed = rng.next_u64() % 1_000_000;
    let ul = [1.01, 1.1, 1.5][(r / 2) % 3];
    let speed_cov = [0.25, 0.5][(r / 3) % 2];
    let family = match r % 3 {
        1 => {
            let (class, sizes): (AppClass, &[usize]) = [
                (AppClass::Cholesky, &[4, 5, 6, 7][..]),
                (AppClass::Lu, &[3, 4][..]),
                (AppClass::FftButterfly, &[4, 8][..]),
                (AppClass::Stencil, &[3, 4, 5, 6][..]),
                (AppClass::ForkJoin, &[8, 16, 24, 40][..]),
            ][(r / 3) % 5];
            Family::App {
                class,
                n: sizes[spread(r, sizes.len())],
                speed_cov,
            }
        }
        2 => Family::Trace {
            name: TRACES[(r / 4) % 3],
            speed_cov,
        },
        _ => Family::PaperRandom {
            n: 30 + spread(r, 71),
        },
    };
    let m = match family {
        Family::PaperRandom { .. } => [4, 8, 16][spread(r + 7, 3)],
        _ => [4, 8][(r / 2) % 2],
    };
    ScenarioSpec {
        family,
        m,
        ul,
        seed,
    }
}

fn request_line(id: usize, spec: &RequestSpec, population: &[ScenarioSpec]) -> String {
    let schedule = match &spec.schedule {
        ScheduleSpec::Heuristic(name) => format!("{{\"kind\":\"heuristic\",\"name\":\"{name}\"}}"),
        ScheduleSpec::Random(seed) => format!("{{\"kind\":\"random\",\"seed\":{seed}}}"),
    };
    format!(
        "{{\"id\":{id},\"scenario\":{},\"schedule\":{schedule},\"evaluator\":\"{}\"}}",
        population[spec.scenario].json(),
        spec.evaluator
    )
}

/// Generates the mix of `count` requests from `seed`.
pub fn generate(seed: u64, count: usize) -> Mix {
    let mut rng = SplitMix64::new(derive_seed(seed, 2));
    let population: Vec<ScenarioSpec> = (0..POPULATION)
        .map(|r| scenario_spec(r, &mut rng))
        .collect();
    let mut acc = 0.0;
    let popularity: Vec<f64> = (0..POPULATION)
        .map(|r| {
            acc += 1.0 / ((r + 1) as f64).powf(ZIPF);
            acc
        })
        .collect();
    let evaluators = stratified(&mut rng, &EVALUATOR_BLOCK, count);
    let heuristic = stratified(&mut rng, &HEURISTIC_BLOCK, count);
    let repeat = stratified(&mut rng, &REPEAT_BLOCK, count);
    let mut requests: Vec<RequestSpec> = Vec::with_capacity(count);
    for i in 0..count {
        if i > 0 && repeat[i] {
            let earlier = requests[below(&mut rng, i)].clone();
            requests.push(earlier);
            continue;
        }
        let scenario = weighted(&mut rng, &popularity);
        let schedule = if heuristic[i] {
            ScheduleSpec::Heuristic(HEURISTICS[below(&mut rng, HEURISTICS.len())])
        } else {
            ScheduleSpec::Random(rng.next_u64() % 1_000_000)
        };
        requests.push(RequestSpec {
            scenario,
            schedule,
            evaluator: evaluators[i],
        });
    }
    let lines = requests
        .iter()
        .enumerate()
        .map(|(id, r)| request_line(id, r, &population))
        .collect();
    Mix {
        population,
        requests,
        lines,
    }
}

fn requests(size: Size) -> usize {
    size.pick(1200, 48)
}

// ---------------------------------------------------------------------------
// The wire: request lines in through a channel, response lines out
// ---------------------------------------------------------------------------

/// The server's input: blocks for the next request line, EOF when the
/// clients hang up.
struct LineReader {
    rx: Receiver<String>,
    buf: Vec<u8>,
    pos: usize,
}

impl Read for LineReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(out.len());
        out[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for LineReader {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos >= self.buf.len() {
            self.buf.clear();
            self.pos = 0;
            if let Ok(line) = self.rx.recv() {
                self.buf.extend_from_slice(line.as_bytes());
                self.buf.push(b'\n');
            }
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

/// The server's output: each complete response line goes back to the
/// clients stamped with the moment it was written.
struct LineWriter {
    tx: Sender<(String, Instant)>,
    pending: Vec<u8>,
}

impl Write for LineWriter {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.pending.extend_from_slice(bytes);
        while let Some(end) = self.pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.pending.drain(..=end).collect();
            let line = String::from_utf8_lossy(&line[..end]).into_owned();
            self.tx
                .send((line, Instant::now()))
                .map_err(|_| std::io::Error::from(std::io::ErrorKind::BrokenPipe))?;
        }
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One serve session over `lines` with `window` requests in flight.
struct Session {
    responses: Vec<String>,
    latencies_ms: Vec<f64>,
    wall: Duration,
}

fn session(lines: &[String], window: usize) -> Result<Session, String> {
    let (req_tx, req_rx) = channel::<String>();
    let (resp_tx, resp_rx) = channel::<(String, Instant)>();
    let opts = RunOptions {
        out_dir: None,
        threads: Some(WORKERS),
        ..RunOptions::default()
    };
    std::thread::scope(|scope| {
        let server = scope.spawn(move || {
            let input = LineReader {
                rx: req_rx,
                buf: Vec::new(),
                pos: 0,
            };
            let output = LineWriter {
                tx: resp_tx,
                pending: Vec::new(),
            };
            serve_streams(input, output, &opts)
        });
        let n = lines.len();
        let mut sent_at = Vec::with_capacity(n);
        let mut responses = Vec::with_capacity(n);
        let mut latencies_ms = Vec::with_capacity(n);
        let start = Instant::now();
        let send = |i: usize, sent_at: &mut Vec<Instant>| {
            sent_at.push(Instant::now());
            req_tx.send(lines[i].clone()).is_ok()
        };
        let mut next = 0;
        let mut alive = true;
        while next < n.min(window) && alive {
            alive = send(next, &mut sent_at);
            next += 1;
        }
        while responses.len() < n && alive {
            let Ok((line, at)) = resp_rx.recv() else {
                break;
            };
            if next < n {
                alive = send(next, &mut sent_at);
                next += 1;
            }
            latencies_ms.push((at - sent_at[responses.len()]).as_secs_f64() * 1e3);
            responses.push(line);
        }
        let wall = start.elapsed();
        drop(req_tx);
        let summary = server
            .join()
            .map_err(|_| "serve thread panicked".to_string())?
            .map_err(|e| format!("serve failed: {e}"))?;
        if responses.len() != n || !summary.starts_with(&format!("serve: {n} request(s)")) {
            return Err(format!("{} of {n} responses; {summary}", responses.len()));
        }
        Ok(Session {
            responses,
            latencies_ms,
            wall,
        })
    })
}

/// Metric fields of a response, rendered at the wire's precision; `Err`
/// for anything but an `ok:true` response with the expected id.
fn response_metrics(line: &str, id: usize) -> Result<Vec<(String, String)>, String> {
    let doc = parse_json(line).map_err(|e| format!("response {id}: {e}"))?;
    if doc.get("id").and_then(Json::as_usize) != Some(id) {
        return Err(format!("response {id}: wrong id in {line}"));
    }
    if !matches!(doc.get("ok"), Some(Json::Bool(true))) {
        return Err(format!("response {id}: {line}"));
    }
    match doc.get("metrics") {
        Some(Json::Obj(fields)) => Ok(fields
            .iter()
            .map(|(k, v)| {
                let mut s = String::new();
                write_json(v, &mut s);
                (k.clone(), s)
            })
            .collect()),
        _ => Err(format!("response {id}: no metrics in {line}")),
    }
}

/// A response's metric fields rendered as the wire renders them.
fn rendered(values: &MetricValues) -> Vec<(String, String)> {
    METRIC_FIELDS
        .iter()
        .zip(crate::study::fields(values))
        .map(|(name, value)| {
            let mut s = String::new();
            write_json(&Json::Num(value), &mut s);
            (name.to_string(), s)
        })
        .collect()
}

/// The response a request should get, computed without the service:
/// `evaluator_by_name(..).evaluate_with` and `compute_metrics`.
fn direct_metrics(mix: &Mix, req: &RequestSpec) -> Vec<(String, String)> {
    let sc = mix.population[req.scenario].build();
    let sched = req.schedule.build(&sc);
    let ev = evaluator_by_name(req.evaluator).expect("registered evaluator");
    let mut cx = EvalContext::new(ev.prepare(&sc));
    let rv = ev.evaluate_with(&sc, &sched, &mut cx);
    rendered(&compute_metrics(
        &sc,
        &sched,
        &rv,
        &MetricOptions::default(),
    ))
}

/// The timed workload.
pub fn run(seed: u64, size: Size, plan: &RunPlan) -> Outcome {
    let mut out = Outcome::default();
    let mut last_mix = None;
    // Sampled responses of every round, keyed by request index.
    let mut sampled: HashMap<usize, Vec<Vec<(String, String)>>> = HashMap::new();
    let rounds = plan.repeat(|_| {
        let (mix, setup) = timed(|| generate(seed, requests(size)));
        let n = mix.lines.len();
        let mut round = Round {
            ops: n as u64,
            setup,
            ..Round::default()
        };
        match session(&mix.lines, CLIENTS) {
            Ok(s) => {
                round.wall = s.wall;
                round.latencies_ms = s.latencies_ms;
                for (id, line) in s.responses.iter().enumerate() {
                    match response_metrics(line, id) {
                        Ok(fields) if id % SAMPLE_EVERY == 0 => {
                            sampled.entry(id).or_default().push(fields)
                        }
                        Ok(_) => {}
                        Err(e) => out.check(false, || e),
                    }
                }
            }
            Err(e) => {
                out.failed += n as u64;
                out.failures.push(e);
            }
        }
        last_mix = Some(mix);
        round
    });
    let mix = last_mix.expect("at least one round");
    let mut ids: Vec<usize> = sampled.keys().copied().collect();
    ids.sort_unstable();
    for id in ids {
        let expected = direct_metrics(&mix, &mix.requests[id]);
        for got in &sampled[&id] {
            out.check(*got == expected, || {
                format!("response {id}: {got:?} differs from the direct {expected:?}")
            });
        }
    }
    out.attempted = rounds.ops();
    out.end_to_end(&rounds);
    out
}

/// Direct evaluator calls of the traced run: evaluator, prepare span,
/// evaluate span.
#[rustfmt::skip]
const DIRECT: [(&str, &str, &str); 4] = [
    ("classic", "stochastic.prepare.classic", "stochastic.evaluate.classic"),
    ("spelde", "stochastic.prepare.spelde", "stochastic.evaluate.spelde"),
    ("dodin", "stochastic.prepare.dodin", "stochastic.evaluate.dodin"),
    ("montecarlo", "stochastic.prepare.montecarlo", "stochastic.evaluate.montecarlo"),
];

/// Distinct scenarios the direct evaluator calls run on.
const DIRECT_SCENARIOS: usize = 12;

/// Service latency of every request, sent one at a time through
/// `EvalService::submit`/`wait`, with the service's counters.
fn service_replay(
    tr: &Tracer,
    requests: &[EvalRequest],
    out: &mut Outcome,
) -> (
    Vec<f64>,
    Duration,
    robusched_core::ServiceStats,
    Vec<Option<MetricValues>>,
) {
    let service = EvalService::new(ServiceConfig {
        workers: Some(WORKERS),
        ..ServiceConfig::default()
    });
    let mut latencies = Vec::with_capacity(requests.len());
    let mut values = Vec::with_capacity(requests.len());
    let start = Instant::now();
    for (i, req) in requests.iter().enumerate() {
        tr.begin_op();
        let t = Instant::now();
        let result = tr.span("core.service.request", || {
            service.wait(service.submit(req.clone()))
        });
        latencies.push(t.elapsed().as_secs_f64() * 1e3);
        if let Err(e) = &result {
            out.check(false, || format!("service request {i}: {e}"));
        }
        values.push(result.ok().map(|o| o.metrics));
    }
    (latencies, start.elapsed(), service.stats(), values)
}

/// The serve section of the traced run.
pub fn traced(tr: &Tracer, seed: u64, size: Size, out: &mut Outcome) {
    let mix = generate(seed, requests(size));
    let mut scenarios: Vec<Option<Arc<Scenario>>> = vec![None; mix.population.len()];
    let requests: Vec<EvalRequest> = mix
        .requests
        .iter()
        .map(|r| {
            let sc = scenarios[r.scenario]
                .get_or_insert_with(|| {
                    Arc::new(tr.span("platform.scenario", || mix.population[r.scenario].build()))
                })
                .clone();
            let sched = r.schedule.build(&sc);
            EvalRequest::new(sc, sched, r.evaluator)
        })
        .collect();
    let n = requests.len();

    let (service_ms, service_wall, stats, values) = service_replay(tr, &requests, out);
    let (_, untraced_wall, untraced_stats, _) = service_replay(&Tracer::new(false), &requests, out);
    out.check(stats == untraced_stats, || {
        format!("service counters differ between replays: {stats:?} / {untraced_stats:?}")
    });
    let wire = session(&mix.lines, 1);
    out.attempted += 3 * n as u64;
    let wire = match wire {
        Ok(w) => w,
        Err(e) => {
            out.failed += n as u64;
            out.failures.push(e);
            return;
        }
    };
    // The wire must answer what the service answered.
    for (id, line) in wire.responses.iter().enumerate() {
        let expected = values[id].map(|v| rendered(&v));
        match response_metrics(line, id) {
            Ok(got) => out.check(Some(&got) == expected.as_ref(), || {
                format!("response {id}: wire and service replay disagree")
            }),
            Err(e) => out.check(false, || e),
        }
    }

    // Direct evaluator calls on the first distinct scenarios of the mix.
    let mut seen = Vec::new();
    for req in &requests {
        if seen.len() == DIRECT_SCENARIOS {
            break;
        }
        if !seen
            .iter()
            .any(|r: &&EvalRequest| Arc::ptr_eq(&r.scenario, &req.scenario))
        {
            seen.push(req);
        }
    }
    for (name, prepare_span, evaluate_span) in DIRECT {
        let ev = evaluator_by_name(name).expect("registered evaluator");
        for req in &seen {
            let sc = &req.scenario;
            let prep = tr.span(prepare_span, || ev.prepare(sc));
            let mut cx = EvalContext::new(prep);
            let cold = ev.evaluate_with(sc, &req.schedule, &mut cx);
            let warm = tr.span(evaluate_span, || {
                ev.evaluate_with(sc, &req.schedule, &mut cx)
            });
            out.attempted += 2;
            out.check(cold.pdf_values() == warm.pdf_values(), || {
                format!("{name}: a warm evaluation differs from the cold one")
            });
        }
    }

    let mut sorted = service_ms.clone();
    sorted.sort_by(f64::total_cmp);
    out.metric(
        "core.service.latency_p50_ms",
        quantile_sorted(&sorted, 0.5),
        "ms",
        n,
    );
    out.metric(
        "core.service.latency_p99_ms",
        quantile_sorted(&sorted, 0.99),
        "ms",
        n,
    );
    let mut frontend: Vec<f64> = wire
        .latencies_ms
        .iter()
        .zip(&service_ms)
        .map(|(w, s)| (w - s) * 1e3)
        .collect();
    out.metric(
        "experiments.serve.frontend_us",
        median(&mut frontend),
        "us",
        n,
    );
    let lookups = stats.scenario_hits + stats.scenario_misses;
    out.metric(
        "core.service.scenario_hit_ratio",
        stats.scenario_hits as f64 / lookups as f64,
        "ratio",
        lookups as usize,
    );
    out.metric("core.service.scenario_lookups", lookups as f64, "count", 1);
    out.metric("core.service.evictions", stats.evictions as f64, "count", 1);
    out.metric(
        "core.service.result_hit_ratio",
        stats.result_hits as f64 / stats.submitted as f64,
        "ratio",
        stats.submitted as usize,
    );
    out.metric("core.service.requests", stats.submitted as f64, "count", 1);
    let layers = tr.layers();
    for (name, prepare_span, evaluate_span) in DIRECT {
        let eval = layers.get(evaluate_span).copied().unwrap_or_default();
        if name != "classic" {
            out.metric(
                format!("stochastic.evaluate_us.{name}"),
                eval.per_call(1e3),
                "us",
                eval.calls as usize,
            );
        }
        let prep = layers.get(prepare_span).copied().unwrap_or_default();
        if name != "spelde" {
            out.metric(
                format!("stochastic.prepare_ms.{name}"),
                prep.per_call(1e6),
                "ms",
                prep.calls as usize,
            );
        }
    }
    out.metric(
        "trace.overhead.serve",
        service_wall.as_secs_f64() / untraced_wall.as_secs_f64(),
        "ratio",
        n,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_change_the_requests_but_not_the_mix_shares() {
        let (a, b) = (generate(1, 400), generate(2, 400));
        assert_ne!(a.lines, b.lines);
        assert!(POPULATION > ServiceConfig::default().scenario_capacity);
        for mix in [&a, &b] {
            let montecarlo = mix
                .requests
                .iter()
                .filter(|r| r.evaluator == "montecarlo")
                .count();
            // One in four, less what exact repeats of other kinds displace.
            assert!(
                (80..=120).contains(&montecarlo),
                "{montecarlo} Monte-Carlo requests"
            );
            let repeats = (1..mix.lines.len())
                .filter(|&i| {
                    mix.requests[..i].iter().any(|r| {
                        request_line(0, r, &mix.population)
                            == request_line(0, &mix.requests[i], &mix.population)
                    })
                })
                .count();
            assert!(repeats >= 40, "{repeats} exact repeats");
        }
    }
}
