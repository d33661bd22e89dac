//! Metric names, units and the result line.
//!
//! `BENCHMARK.json` at the repository root lists the same names; the
//! benchmark's own tests keep the two in step.

use crate::json::Json;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name (letters, digits, `_`, `.`, `-`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// End-to-end metrics (`--trace 0`), with units. Every workload reports
/// every one of them.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("solve_s_p50", "s"),
    ("solve_s_tail", "s"),
    ("throughput_per_s", "1/s"),
    ("speedup_t2", "ratio"),
    ("success_fraction", "share"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with units. Every workload reports
/// every one; a layer the workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("band.s", "s"),
    ("band.share", "share"),
    ("solver.sweep_s", "s"),
    ("solver.shifts", "count"),
    ("solver.quarantined", "count"),
    ("arnoldi.matvecs", "count"),
    ("arnoldi.restarts", "count"),
    ("arnoldi.matvecs_per_shift", "count"),
    ("arnoldi.warm_started_shifts", "count"),
    ("arnoldi.recycle_hit_rate", "share"),
    ("arnoldi.overhead_s", "s"),
    ("arnoldi.overhead_share", "share"),
    ("scheduler.deleted_tentative", "count"),
    ("scheduler.cancelled_in_flight", "count"),
    ("hamiltonian.factor_us", "us"),
    ("hamiltonian.apply_us", "us"),
    ("hamiltonian.matvec_us", "us"),
    ("hamiltonian.apply_share", "share"),
    ("linalg.proj_eig_us", "us"),
    ("linalg.proj_eig_share", "share"),
    ("exec.tasks", "count"),
    ("exec.steals", "count"),
    ("exec.batch_jobs", "count"),
    ("exec.threads_spawned", "count"),
    ("exec.parallel_efficiency", "share"),
    ("characterization.s", "s"),
    ("characterization.sigma_residual_max", "ratio"),
    ("model.parse_s", "s"),
    ("vectorfit.fit_s", "s"),
    ("enforcement.s", "s"),
    ("enforcement.iterations", "count"),
    ("enforcement.sweeps", "count"),
    ("enforcement.matvecs", "count"),
    ("enforcement.stalled", "count"),
    ("simulate.virtual_speedup_t2", "ratio"),
    ("simulate.virtual_speedup_t16", "ratio"),
    ("trace.solve_s_p50", "s"),
    ("trace.overhead_s", "s"),
    ("trace.layer_sum_gap", "share"),
];

/// `true` when `name` is 1–64 letters, digits, `_`, `.` and `-`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn build(table: &[(&'static str, &'static str)], values: &[(&'static str, f64)]) -> Vec<Metric> {
    assert_eq!(
        table.iter().map(|t| t.0).collect::<Vec<_>>(),
        values.iter().map(|v| v.0).collect::<Vec<_>>(),
        "metric values must follow the declared table"
    );
    table
        .iter()
        .zip(values)
        .map(|(&(name, unit), &(_, value))| Metric { name, unit, value })
        .collect()
}

/// Builds the end-to-end metrics; `values` must follow [`END_TO_END`].
pub fn end_to_end(values: &[(&'static str, f64)]) -> Vec<Metric> {
    build(&END_TO_END, values)
}

/// Builds the per-layer metrics; `values` must follow [`PER_LAYER`].
pub fn per_layer(values: &[(&'static str, f64)]) -> Vec<Metric> {
    build(&PER_LAYER, values)
}

/// Everything one run produces.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Every job's output could be checked (see `check::Tally::correct`).
    pub correct: bool,
    /// Jobs checked, timed and reference.
    pub attempted: u64,
    /// Checked jobs that failed, wrong answers included.
    pub failed: u64,
    /// The metrics of this mode.
    pub metrics: Vec<Metric>,
    /// Detail: sample counts, per-case rows.
    pub report: Json,
    /// Every failed job, as text.
    pub problems: Vec<String>,
}

impl RunOutput {
    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_line(&self) -> String {
        let mut metrics = Json::obj();
        for m in &self.metrics {
            metrics.set(
                m.name,
                Json::obj().with("value", m.value).with("unit", m.unit),
            );
        }
        Json::obj()
            .with("correct", self.correct)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics)
            .to_string()
    }
}
