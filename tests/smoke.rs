//! Seconds-scale smoke test of the complete study pipeline.
//!
//! The full integration suites take minutes; this one case (n = 10 tasks,
//! m = 3 machines, k = 50 random schedules) runs the identical code path —
//! generation → heuristics → analytic evaluation → metrics → correlation
//! matrix — in a few seconds, so CI catches pipeline-level regressions
//! immediately.

use robusched::core::{StudyBuilder, METRIC_LABELS};
use robusched::platform::Scenario;

#[test]
fn tiny_paper_random_case_end_to_end() {
    let s = Scenario::paper_random(10, 3, 1.1, 2024);
    let res = StudyBuilder::new(&s)
        .random_schedules(50)
        .seed(7)
        .heuristics(&["HEFT", "BIL", "Hyb.BMCT"])
        .buffer_metrics(true)
        .run()
        .unwrap()
        .into_case()
        .unwrap();

    assert_eq!(res.random.len(), 50);
    assert!(!res.heuristics.is_empty());

    // Every metric vector is finite and physically sensible.
    for m in res
        .random
        .iter()
        .chain(res.heuristics.iter().map(|(_, m)| m))
    {
        assert!(m.expected_makespan.is_finite() && m.expected_makespan > 0.0);
        assert!(m.makespan_std.is_finite() && m.makespan_std >= 0.0);
        assert!((0.0..=1.0).contains(&m.prob_absolute));
        assert!((0.0..=1.0).contains(&m.prob_relative));
    }

    // The correlation matrix is complete, symmetric, unit-diagonal.
    let dim = res.pearson.dim();
    assert_eq!(dim, METRIC_LABELS.len());
    for i in 0..dim {
        assert_eq!(res.pearson.get(i, i), 1.0);
        for j in 0..dim {
            let r = res.pearson.get(i, j);
            assert!(r.is_finite() && r.abs() <= 1.0, "r[{i}][{j}] = {r}");
            assert_eq!(r, res.pearson.get(j, i));
        }
    }
}
