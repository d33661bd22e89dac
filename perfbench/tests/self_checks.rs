//! Self-checks of the benchmark: input determinism, exact counters at
//! T=1, the reported (not gated) T=2 spread, the tail selection, and the
//! metric names against `BENCHMARK.json`.

use pheig_core::solver::{find_imaginary_eigenvalues_with, SolverOptions, SolverWorkspace};
use pheig_perfbench::inputs;
use pheig_perfbench::metrics::{valid_name, RunOutput, END_TO_END, PER_LAYER};
use pheig_perfbench::stats::{min_max, passes, tail};
use pheig_perfbench::{json::Json, Config, WORKLOADS};

#[test]
fn same_seed_gives_identical_inputs() {
    let a = inputs::sweep_models().unwrap();
    let b = inputs::sweep_models().unwrap();
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert_eq!(inputs::decks().unwrap(), inputs::decks().unwrap());
    assert_eq!(inputs::solver_seed(5), inputs::solver_seed(5));
    assert_ne!(
        inputs::solver_seed(5),
        inputs::solver_seed(6),
        "the seed must reach the solver"
    );
}

/// `(shifts, matvecs, restarts)` of one fresh sweep.
fn counts(ss: &pheig_model::StateSpace, threads: usize) -> (usize, usize, usize) {
    let out = find_imaginary_eigenvalues_with(
        ss,
        &SolverOptions::default().with_threads(threads),
        &mut SolverWorkspace::new(),
    )
    .unwrap();
    let restarts = out.shift_log.iter().map(|r| r.restarts).sum();
    (out.shift_log.len(), out.stats.total_matvecs, restarts)
}

#[test]
fn serial_counts_repeat_exactly() {
    let ss = inputs::sweep_models().unwrap()[0].model.realize();
    let first = counts(&ss, 1);
    assert!(first.1 > 0);
    assert_eq!(first, counts(&ss, 1), "T=1 counters must repeat exactly");
}

#[test]
fn two_thread_spread_is_reported_not_gated() {
    let ss = inputs::sweep_models().unwrap()[0].model.realize();
    let matvecs: Vec<usize> = (0..3).map(|_| counts(&ss, 2).1).collect();
    // T=2 schedules vary from run to run; the spread is a reported range,
    // so the only requirement is that it is a well-formed one.
    let (lo, hi) = min_max(&matvecs);
    assert!(0 < lo && lo <= hi, "{matvecs:?}");
}

#[test]
fn tail_selection_reports_its_sample_count() {
    let xs: Vec<f64> = (1..=200).map(f64::from).collect();
    let t = tail(&xs, &[]);
    assert_eq!((t.label.as_str(), t.n, t.beyond), ("p95", 200, 10));
    assert_eq!(t.value, 190.0);

    let t = tail(&xs[..40], &[]);
    assert_eq!((t.label.as_str(), t.n, t.beyond), ("p75", 40, 10));

    // Below 40 samples: the slowest job's median, with n still reported.
    let t = tail(&xs[..24], &[3.0, 7.5, 5.0]);
    assert_eq!(
        (t.label.as_str(), t.n, t.beyond, t.value),
        ("max", 24, 0, 7.5)
    );
}

#[test]
fn pass_count_depends_on_the_window_only() {
    assert_eq!(passes(30.0, 4.0), 7);
    assert_eq!(passes(30.0, 24.0), 1);
    assert_eq!(passes(5.0, 28.0), 1, "at least one pass");
}

/// Every `"name": "..."` value in `BENCHMARK.json`, in file order.
fn benchmark_json_names() -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    text.split("\"name\"")
        .skip(1)
        .map(|rest| {
            let start = rest.find('"').unwrap() + 1;
            let len = rest[start..].find('"').unwrap();
            rest[start..start + len].to_string()
        })
        .collect()
}

#[test]
fn metric_names_are_valid_and_match_benchmark_json() {
    let declared: Vec<&str> = WORKLOADS
        .iter()
        .chain(END_TO_END.iter().map(|m| &m.0))
        .chain(PER_LAYER.iter().map(|m| &m.0))
        .copied()
        .collect();
    for name in &declared {
        assert!(valid_name(name), "invalid metric name {name:?}");
    }
    let mut unique = declared.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), declared.len(), "names must be used once");
    assert_eq!(
        benchmark_json_names(),
        declared,
        "BENCHMARK.json must list the same names in order"
    );
    assert!(!valid_name("bad name"));
    assert!(!valid_name("_leading"));
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let out = RunOutput {
        correct: true,
        attempted: 3,
        failed: 1,
        metrics: pheig_perfbench::metrics::end_to_end(&END_TO_END.map(|(name, _)| (name, 0.5))),
        report: Json::obj(),
        problems: Vec::new(),
    };
    let line = out.result_line();
    assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": {"));
    assert!(line.contains("\"solve_s_p50\": {\"value\": 0.5, \"unit\": \"s\"}"));
}

#[test]
fn config_rejects_malformed_arguments() {
    let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let ok = Config::parse(&args(
        "--workload sweep_serial --seed 3 --seconds 10 --trace 1",
    ))
    .unwrap();
    assert_eq!((ok.seed, ok.seconds, ok.trace), (3, 10.0, true));
    for bad in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload sweep_serial --seed x --seconds 1 --trace 0",
        "--workload sweep_serial --seed 1 --seconds 0 --trace 0",
        "--workload sweep_serial --seed 1 --seconds 1 --trace 2",
        "--workload sweep_serial --seconds 1",
    ] {
        assert!(Config::parse(&args(bad)).is_err(), "{bad}");
    }
}
