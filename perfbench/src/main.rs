//! The benchmark of record for the robusched workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload study-classic --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` times one workload with tracing off and prints its
//! end-to-end metrics; `--trace 1` runs the traced per-layer replays. The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See `perfbench/README.md`.

mod online;
mod report;
mod serve;
mod study;
mod trace;

use report::{Outcome, RunPlan, Size};
use std::process::ExitCode;

/// The seed every stored reference value was computed on.
pub const DEFAULT_SEED: u64 = 1;

/// Workload names. `BENCHMARK.json` lists the first two; `serve-mix` is
/// measured by hand, because its timings follow the host's CPU steal too
/// closely for a regression bound (see `perfbench/README.md`).
pub const WORKLOADS: [&str; 3] = ["study-classic", "online-faults", "serve-mix"];

struct Args {
    workload: String,
    seed: u64,
    plan: RunPlan,
    trace: bool,
    size: Size,
    emit_reference: bool,
}

const USAGE: &str =
    "usage: robusched-perfbench --workload <study-classic|online-faults|serve-mix> \
[--seed N] [--seconds S] [--trace 0|1] [--size full|tiny] [--emit-reference]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        plan: RunPlan { seconds: 30.0 },
        trace: false,
        size: Size::Full,
        emit_reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--emit-reference" {
            args.emit_reference = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                args.plan.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--size" => {
                args.size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(bad("full or tiny")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    if !args.emit_reference && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload '{}'", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.emit_reference {
        print!("{}", study::reference_text(args.size));
        print!("{}", online::reference_text(args.size));
        return ExitCode::SUCCESS;
    }
    let outcome: Outcome = if args.trace {
        trace::run_traced(&args.workload, args.seed, args.size)
    } else {
        match args.workload.as_str() {
            "study-classic" => study::run(args.seed, args.size, &args.plan),
            "serve-mix" => serve::run(args.seed, args.size, &args.plan),
            "online-faults" => online::run(args.seed, args.size, &args.plan),
            _ => unreachable!("validated in parse_args"),
        }
    };
    outcome.print(&args.workload, args.seed, args.trace);
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
