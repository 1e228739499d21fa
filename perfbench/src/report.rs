//! Run plans, timing helpers and the result line.

use std::time::{Duration, Instant};

/// Input scale: `Full` is the benchmark of record, `Tiny` the same code
/// paths at a size the self-tests can afford.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

impl Size {
    /// `full` at the benchmark size, `tiny` at self-test size.
    pub fn pick(self, full: usize, tiny: usize) -> usize {
        match self {
            Size::Full => full,
            Size::Tiny => tiny,
        }
    }
}

/// How long a timed run lasts: whole rounds until `seconds` have elapsed,
/// and at least [`MIN_ROUNDS`].
#[derive(Debug, Clone, Copy)]
pub struct RunPlan {
    pub seconds: f64,
}

/// Rounds every timed run makes at least, so a median exists.
pub const MIN_ROUNDS: usize = 3;

/// Times of one round of a workload.
#[derive(Debug, Default)]
pub struct Round {
    /// Operations (evaluated schedules, answered requests, simulated
    /// instances) the round attempted.
    pub ops: u64,
    /// Wall time of building the round's inputs (scenarios, request
    /// lines, pools). Every round builds them afresh, so `setup_s` is a
    /// median over set-ups spread across the whole run.
    pub setup: Duration,
    /// Wall time of the round's timed region.
    pub wall: Duration,
    /// Latency samples in milliseconds: one per request (`serve-mix`), per
    /// study (`study-classic`) or per arrival (`online-faults`).
    pub latencies_ms: Vec<f64>,
}

/// A round as a run keeps it: its latency samples reduced to the
/// quantiles the run reports, so memory does not grow with run length.
#[derive(Debug)]
struct Kept {
    ops: u64,
    setup: Duration,
    wall: Duration,
    samples: usize,
    p50_ms: f64,
    p99_ms: f64,
}

impl Kept {
    fn of(mut round: Round) -> Self {
        round.latencies_ms.sort_by(f64::total_cmp);
        let lat = &round.latencies_ms;
        Kept {
            ops: round.ops,
            setup: round.setup,
            wall: round.wall,
            samples: lat.len(),
            p50_ms: quantile_sorted(lat, 0.5),
            p99_ms: quantile_sorted(lat, 0.99),
        }
    }
}

/// The rounds of one timed run.
#[derive(Debug, Default)]
pub struct Rounds {
    kept: Vec<Kept>,
}

impl RunPlan {
    /// Calls `round(i)` for `i = 0, 1, …` as the plan says.
    pub fn repeat(&self, mut round: impl FnMut(usize) -> Round) -> Rounds {
        let start = Instant::now();
        let mut out = Rounds::default();
        loop {
            let i = out.kept.len();
            if i >= MIN_ROUNDS && start.elapsed().as_secs_f64() >= self.seconds {
                return out;
            }
            out.kept.push(Kept::of(round(i)));
        }
    }
}

impl Rounds {
    pub fn ops(&self) -> u64 {
        self.kept.iter().map(|r| r.ops).sum()
    }

    /// Median over rounds of `f` of each round.
    fn median_of(&self, f: impl Fn(&Kept) -> f64) -> f64 {
        let mut values: Vec<f64> = self.kept.iter().map(f).collect();
        median(&mut values)
    }

    /// Median over rounds of the round's operations per second.
    pub fn ops_per_s(&self) -> f64 {
        self.median_of(|r| r.ops as f64 / r.wall.as_secs_f64())
    }

    /// Median over rounds of the set-up time, in seconds.
    pub fn setup_s(&self) -> f64 {
        self.median_of(|r| r.setup.as_secs_f64())
    }
}

/// Median (mean of the middle two for even counts); sorts in place.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile_sorted(values, 0.5)
}

/// Linear-interpolation quantile of sorted values.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Runs `build` and returns its result with its wall time.
pub fn timed<T>(build: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let value = build();
    (value, t.elapsed())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One named metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value summarizes.
    pub samples: usize,
}

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn metric(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    /// Records one check; a failed check counts as a failed operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// The end-to-end metrics every workload reports from its rounds.
    pub fn end_to_end(&mut self, rounds: &Rounds) {
        // Latency quantiles are taken within each round, then the median
        // over rounds: a stall of the host inflates the tail of the rounds
        // it falls in, and the median keeps it from setting the run's value.
        let n = rounds.kept.len();
        let samples = rounds.kept.iter().map(|r| r.samples).sum();
        self.metric("ops_per_s", rounds.ops_per_s(), "1/s", n);
        let p50 = rounds.median_of(|r| r.p50_ms);
        self.metric("latency_p50_ms", p50, "ms", samples);
        let p99 = rounds.median_of(|r| r.p99_ms);
        self.metric("latency_p99_ms", p99, "ms", samples);
        self.metric("setup_s", rounds.setup_s(), "s", n);
        self.metric("peak_rss_mb", peak_rss_mb(), "MiB", 1);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.failures.is_empty()
            && self.attempted > 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Prints the human-readable table and, last, the JSON result line.
    pub fn print(&self, workload: &str, seed: u64, traced: bool) {
        for f in &self.failures {
            eprintln!("CHECK FAILED: {f}");
        }
        println!(
            "workload {workload} seed {seed} trace {}",
            if traced { 1 } else { 0 }
        );
        for m in &self.metrics {
            println!(
                "  {:<40} {:>16.6} {:<6} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
        let error_rate = if self.attempted == 0 {
            f64::NAN
        } else {
            self.failed as f64 / self.attempted as f64
        };
        println!(
            "  {:<40} {:>16.6} {:<6} ({} failed / {} attempted)",
            "error_rate", error_rate, "ratio", self.failed, self.attempted
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A finite number in Rust's shortest round-trip form; JSON has no NaN.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}
