//! Self-tests of the benchmark at a tiny size: every workload and metric
//! `BENCHMARK.json` names is printed with its unit, count metrics repeat
//! exactly for one seed, and another seed still passes every check.

use robusched_experiments::serve::{parse_json, Json};
use std::process::Command;

const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

/// Runs the benchmark binary at the tiny size and returns its exit status
/// success and its parsed result line.
fn run(workload: &str, seed: u64, trace: bool) -> (bool, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_robusched-perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        // A run this short makes exactly `MIN_ROUNDS` rounds.
        .args(["--size", "tiny", "--seconds", "0.001"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    (
        out.status.success(),
        parse_json(last).expect("the result line is JSON"),
    )
}

fn names(section: &str) -> Vec<(String, String)> {
    let doc = parse_json(BENCHMARK).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_arr)
        .expect("section present")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn workloads() -> Vec<String> {
    let doc = parse_json(BENCHMARK).expect("BENCHMARK.json parses");
    doc.get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads present")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn metric(result: &Json, name: &str) -> Option<(f64, String)> {
    let m = result.get("metrics")?.get(name)?;
    Some((
        m.get("value")?.as_f64()?,
        m.get("unit")?.as_str()?.to_string(),
    ))
}

fn count(result: &Json, key: &str) -> u64 {
    result
        .get(key)
        .and_then(Json::as_u64)
        .expect("whole-number count")
}

fn assert_reports(result: &Json, section: &str) {
    assert!(
        matches!(result.get("correct"), Some(Json::Bool(true))),
        "{result:?}"
    );
    assert!(count(result, "attempted") >= 1);
    assert_eq!(count(result, "failed"), 0);
    let printed = match result.get("metrics") {
        Some(Json::Obj(fields)) => fields.len(),
        _ => panic!("no metrics object"),
    };
    let expected = names(section);
    assert_eq!(printed, expected.len(), "exactly the {section} metrics");
    for (name, unit) in expected {
        let (value, got_unit) = metric(result, &name).unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(got_unit, unit, "{name}");
        assert!(value.is_finite(), "{name} = {value}");
    }
}

/// Every workload the command runs: the ones `BENCHMARK.json` lists, then
/// `serve-mix`, which it leaves out but which prints the same metrics.
fn all_workloads() -> Vec<String> {
    let mut all = workloads();
    all.push("serve-mix".to_string());
    all
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    assert_eq!(workloads(), ["study-classic", "online-faults"]);
    for w in all_workloads() {
        let (ok, result) = run(&w, 1, false);
        assert!(ok, "{w} exits 0");
        assert_reports(&result, "end_to_end");
        for (name, _) in names("end_to_end") {
            assert!(
                metric(&result, &name).unwrap().0 > 0.0,
                "{w}: {name} is never 0"
            );
        }
    }
}

#[test]
fn traced_run_prints_every_per_layer_metric_and_counts_repeat() {
    let (ok, first) = run("online-faults", 1, true);
    assert!(ok);
    assert_reports(&first, "per_layer");
    let (_, second) = run("online-faults", 1, true);
    assert_eq!(count(&first, "attempted"), count(&second, "attempted"));
    let counts: Vec<String> = names("per_layer")
        .into_iter()
        .filter(|(name, unit)| unit == "count" || name.starts_with("dynamic.hit_rate"))
        .map(|(name, _)| name)
        .chain(
            [
                "core.service.scenario_hit_ratio",
                "core.service.result_hit_ratio",
            ]
            .map(String::from),
        )
        .collect();
    assert!(counts.len() >= 9);
    for name in counts {
        assert_eq!(
            metric(&first, &name),
            metric(&second, &name),
            "{name} repeats exactly"
        );
    }
}

#[test]
fn attempted_operations_repeat_for_one_seed() {
    for w in all_workloads() {
        let (_, a) = run(&w, 5, false);
        let (_, b) = run(&w, 5, false);
        assert_eq!(count(&a, "attempted"), count(&b, "attempted"), "{w}");
    }
}

#[test]
fn another_seed_passes_every_check() {
    let (ok, result) = run("study-classic", 97, true);
    assert!(ok);
    assert_reports(&result, "per_layer");
}
