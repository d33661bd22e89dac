//! Per-layer measurements for the traced run.
//!
//! Every number here is taken from the benchmark's own code: a timer
//! around a call into one crate's public function, a counter the
//! program already returns (`SolverOutcome`, `ExecutorStats`,
//! `EnforcementOutcome`), or a value computed from those, which the
//! report labels as computed.
//!
//! No per-layer time is ever taken from `ShiftRecord.wall`. Under block
//! solves and parallel sweeps the per-shift walls overlap, so their sum
//! over-counts the sweep: 0.115 s of shift walls against a 0.077 s sweep
//! at n=96, T=1, and 8.1 s against 4.2 s at n=1000.

use crate::json::Json;
use crate::metrics::Metric;
use crate::stats::median;
use pheig_core::exec::{threads_spawned_total, Executor};
use pheig_core::simulate::{simulate_parallel, ScheduleMode};
use pheig_core::solver::{SolverOptions, SolverOutcome};
use pheig_hamiltonian::{CLinearOp, HamiltonianOp, ShiftInvertOp};
use pheig_linalg::eig::eig_hessenberg;
use pheig_linalg::{Matrix, C64};
use pheig_model::StateSpace;
use std::hint::black_box;
use std::time::Instant;

/// Micro-timings of the two Hamiltonian operators of one model.
#[derive(Debug, Clone, Copy, Default)]
pub struct OperatorTimings {
    /// `ShiftInvertOp::new` at a logged shift, µs (median of repeats).
    pub factor_us: f64,
    /// `ShiftInvertOp::apply_into`, µs per call.
    pub apply_us: f64,
    /// `HamiltonianOp::apply_into`, µs per call.
    pub matvec_us: f64,
}

/// Deterministic pseudo-random values in `[-0.5, 0.5)` (64-bit LCG).
fn lcg_values(seed: u64, count: usize) -> Vec<f64> {
    let mut state = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
    (0..count)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect()
}

fn test_vector(dim: usize) -> Vec<C64> {
    let v = lcg_values(dim as u64, 2 * dim);
    v.chunks(2).map(|c| C64::new(c[0], c[1])).collect()
}

/// Median µs per call of `f` over five batches sized to ~10 ms each.
fn per_call_us(mut f: impl FnMut()) -> f64 {
    for _ in 0..5 {
        f();
    }
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_secs_f64().max(1e-9);
    let reps = ((0.01 / once) as usize).clamp(5, 100_000);
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..reps {
                f();
            }
            t0.elapsed().as_secs_f64() * 1e6 / reps as f64
        })
        .collect();
    median(&batches)
}

/// Times both operators of `ss` at the shift `j omega`.
///
/// # Errors
///
/// A rendered message when an operator cannot be built at that shift.
pub fn operator_timings(ss: &StateSpace, omega: f64) -> Result<OperatorTimings, String> {
    let theta = C64::new(0.0, omega);
    let factors: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let op = ShiftInvertOp::new(ss, theta);
            let dt = t0.elapsed().as_secs_f64() * 1e6;
            op.map(|op| {
                black_box(&op);
                dt
            })
        })
        .collect::<Result<_, _>>()
        .map_err(|e| format!("ShiftInvertOp::new at omega {omega}: {e}"))?;
    let op = ShiftInvertOp::new(ss, theta).map_err(|e| e.to_string())?;
    let x = test_vector(op.dim());
    let mut y = vec![C64::new(0.0, 0.0); op.dim()];
    let apply_us = per_call_us(|| op.apply_into(black_box(&x), black_box(&mut y)));
    let ham = HamiltonianOp::new(ss).map_err(|e| e.to_string())?;
    let mut z = vec![C64::new(0.0, 0.0); ham.dim()];
    let xh = test_vector(ham.dim());
    let matvec_us = per_call_us(|| ham.apply_into(black_box(&xh), black_box(&mut z)));
    Ok(OperatorTimings {
        factor_us: median(&factors),
        apply_us,
        matvec_us,
    })
}

/// µs of one public dense eigensolve of an `m x m` upper Hessenberg
/// matrix, the projected problem each restart and shift solves.
pub fn proj_eig_us(m: usize) -> f64 {
    let vals = lcg_values(m as u64 + 17, 2 * m * m);
    let h = Matrix::from_fn(m, m, |i, j| {
        if i > j + 1 {
            C64::new(0.0, 0.0)
        } else {
            let k = 2 * (i * m + j);
            C64::new(vals[k], vals[k + 1])
        }
    });
    let times: Vec<f64> = (0..9)
        .map(|_| {
            let input = h.clone();
            let t0 = Instant::now();
            let eigs = eig_hessenberg(black_box(input));
            let dt = t0.elapsed().as_secs_f64() * 1e6;
            black_box(eigs.map(|e| e.len()).unwrap_or(0));
            dt
        })
        .collect();
    median(&times)
}

/// Executor counters at one instant (the width-1 pool every workload's
/// two-thread work runs on).
#[derive(Debug, Clone, Copy)]
pub struct ExecSnapshot {
    tasks: u64,
    steals: u64,
    batch_jobs: u64,
    spawned: usize,
}

impl ExecSnapshot {
    /// Reads the counters now.
    pub fn take() -> Self {
        let s = Executor::pool(1).stats();
        ExecSnapshot {
            tasks: s.tasks_executed,
            steals: s.steals,
            batch_jobs: s.batch_jobs,
            spawned: threads_spawned_total(),
        }
    }
}

/// Deterministic cost units of a real sweep (the simulator's serial
/// reference, the `table1` bench's convention).
pub fn cost_units(outcome: &SolverOutcome) -> u64 {
    outcome.shift_log.iter().map(|r| r.cost_units).sum()
}

/// Virtual-time speedups at T=2 and T=16 of each `(model, serial cost
/// units)` pair. The two thread counts are simulated on two threads at
/// once: the simulator's clock is virtual, so its results do not depend
/// on how long it takes, and the traced run stays inside its time limit.
///
/// # Errors
///
/// A rendered message when a simulation fails.
pub fn virtual_speedups(
    models: &[(&StateSpace, u64)],
    opts: &SolverOptions,
) -> Result<Vec<(f64, f64)>, String> {
    let sim = |t: usize| -> Result<Vec<f64>, String> {
        models
            .iter()
            .map(|&(ss, units)| {
                simulate_parallel(ss, t, opts, ScheduleMode::Dynamic)
                    .map(|s| s.speedup_vs(units))
                    .map_err(|e| format!("simulate_parallel T={t}: {e}"))
            })
            .collect()
    };
    let (t2, t16) = std::thread::scope(|s| {
        let t2 = s.spawn(|| sim(2));
        let t16 = sim(16);
        (t2.join(), t16)
    });
    let t2 = t2.map_err(|_| "simulation thread panicked".to_string())??;
    Ok(t2.into_iter().zip(t16?).collect())
}

/// The shift a model's operator timings are taken at: the median
/// logged shift frequency of one of its sweeps.
pub fn logged_shift(outcome: &SolverOutcome) -> f64 {
    let mut omegas: Vec<f64> = outcome.shift_log.iter().map(|r| r.omega).collect();
    omegas.sort_by(f64::total_cmp);
    omegas
        .get(omegas.len() / 2)
        .copied()
        .unwrap_or(outcome.band.1 / 2.0)
}

/// Per-layer totals over one traced pass.
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    /// `estimate_band` seconds.
    pub band_s: f64,
    /// Sweep seconds (`find_imaginary_eigenvalues_with`, band given).
    pub sweep_s: f64,
    /// `characterize` seconds.
    pub char_s: f64,
    /// Touchstone parse seconds.
    pub parse_s: f64,
    /// `vector_fit` seconds.
    pub fit_s: f64,
    /// `enforce_passivity_with` seconds.
    pub enforce_s: f64,
    /// Traced job seconds (the sum of a job's timed layers).
    pub job_s: Vec<f64>,
    /// Untraced seconds of the same jobs.
    pub untraced_s: Vec<f64>,
    /// Shifts processed.
    pub shifts: usize,
    /// Operator applications.
    pub matvecs: usize,
    /// Restarts.
    pub restarts: usize,
    /// Warm-started shifts.
    pub warm_started: usize,
    /// Recycled candidates validated.
    pub recycle_candidates: usize,
    /// Candidates that locked immediately.
    pub recycle_hits: usize,
    /// Tentative shifts deleted by the scheduler.
    pub deleted_tentative: usize,
    /// In-flight shifts cancelled by the scheduler.
    pub cancelled_in_flight: usize,
    /// Quarantined shifts.
    pub quarantined: usize,
    /// Largest distance from 1 of the nearest singular value at any
    /// crossing (see `check::SIGMA_TOL`).
    pub sigma_residual_max: f64,
    /// Largest `|sigma_max - 1|` over the characterization's crossings.
    pub sigma_max_offset: f64,
    /// Computed apply time: Σ matvecs × that model's apply µs.
    pub apply_time_s: f64,
    /// Computed factor time: Σ shifts × that model's factor µs.
    pub factor_time_s: f64,
    /// Per-model operator timings.
    pub operators: Vec<OperatorTimings>,
    /// Enforcement outer iterations.
    pub enf_iterations: usize,
    /// Sweeps run inside enforcement (its own initial sweep included).
    pub enf_sweeps: usize,
    /// Operator applications inside enforcement.
    pub enf_matvecs: usize,
    /// Enforcement runs that stalled.
    pub enf_stalled: usize,
    /// Per-model virtual speedups at T=2.
    pub virtual_t2: Vec<f64>,
    /// Per-model virtual speedups at T=16.
    pub virtual_t16: Vec<f64>,
    /// Measured T=1 / T=2 speedup of the pass.
    pub speedup_t2: f64,
}

impl LayerTotals {
    /// Folds one sweep's counters in (times are added by the caller).
    pub fn absorb_sweep(&mut self, out: &SolverOutcome, ops: &OperatorTimings) {
        let restarts: usize = out.shift_log.iter().map(|r| r.restarts).sum();
        self.shifts += out.shift_log.len();
        self.matvecs += out.stats.total_matvecs;
        self.restarts += restarts;
        self.warm_started += out.stats.warm_started_shifts;
        self.recycle_candidates += out.stats.recycle_candidates;
        self.recycle_hits += out.stats.recycle_hits;
        self.deleted_tentative += out.stats.scheduler.deleted_tentative;
        self.cancelled_in_flight += out.stats.scheduler.cancelled_in_flight;
        self.quarantined += out.stats.shifts_quarantined;
        self.apply_time_s += out.stats.total_matvecs as f64 * ops.apply_us * 1e-6;
        self.factor_time_s += out.shift_log.len() as f64 * ops.factor_us * 1e-6;
    }

    /// Every per-layer metric, in `metrics::PER_LAYER` order, plus the
    /// report block that explains the computed ones.
    pub fn metrics(
        &self,
        exec0: &ExecSnapshot,
        exec1: &ExecSnapshot,
        proj_us: f64,
    ) -> (Vec<Metric>, Json) {
        let share = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let mean = |xs: Vec<f64>| {
            if xs.is_empty() {
                0.0
            } else {
                xs.iter().sum::<f64>() / xs.len() as f64
            }
        };
        let job_total: f64 = self.job_s.iter().sum();
        let untraced_total: f64 = self.untraced_s.iter().sum();
        let gap = share(job_total - untraced_total, untraced_total);
        let overhead_s = (self.sweep_s - self.apply_time_s - self.factor_time_s).max(0.0);
        let proj_solves = (self.restarts + self.shifts) as f64;
        let traced_p50 = median(&self.job_s);
        let untraced_p50 = median(&self.untraced_s);
        let ops = &self.operators;
        let values: Vec<(&'static str, f64)> = vec![
            ("band.s", self.band_s),
            ("band.share", share(self.band_s, job_total)),
            ("solver.sweep_s", self.sweep_s),
            ("solver.shifts", self.shifts as f64),
            ("solver.quarantined", self.quarantined as f64),
            ("arnoldi.matvecs", self.matvecs as f64),
            ("arnoldi.restarts", self.restarts as f64),
            (
                "arnoldi.matvecs_per_shift",
                share(self.matvecs as f64, self.shifts as f64),
            ),
            ("arnoldi.warm_started_shifts", self.warm_started as f64),
            (
                "arnoldi.recycle_hit_rate",
                share(self.recycle_hits as f64, self.recycle_candidates as f64),
            ),
            ("arnoldi.overhead_s", overhead_s),
            ("arnoldi.overhead_share", share(overhead_s, self.sweep_s)),
            ("scheduler.deleted_tentative", self.deleted_tentative as f64),
            (
                "scheduler.cancelled_in_flight",
                self.cancelled_in_flight as f64,
            ),
            (
                "hamiltonian.factor_us",
                mean(ops.iter().map(|o| o.factor_us).collect()),
            ),
            (
                "hamiltonian.apply_us",
                mean(ops.iter().map(|o| o.apply_us).collect()),
            ),
            (
                "hamiltonian.matvec_us",
                mean(ops.iter().map(|o| o.matvec_us).collect()),
            ),
            (
                "hamiltonian.apply_share",
                share(self.apply_time_s, self.sweep_s),
            ),
            ("linalg.proj_eig_us", proj_us),
            (
                "linalg.proj_eig_share",
                share(proj_solves * proj_us * 1e-6, self.sweep_s),
            ),
            ("exec.tasks", (exec1.tasks - exec0.tasks) as f64),
            ("exec.steals", (exec1.steals - exec0.steals) as f64),
            (
                "exec.batch_jobs",
                (exec1.batch_jobs - exec0.batch_jobs) as f64,
            ),
            (
                "exec.threads_spawned",
                (exec1.spawned - exec0.spawned) as f64,
            ),
            ("exec.parallel_efficiency", self.speedup_t2 / 2.0),
            ("characterization.s", self.char_s),
            (
                "characterization.sigma_residual_max",
                self.sigma_residual_max,
            ),
            ("model.parse_s", self.parse_s),
            ("vectorfit.fit_s", self.fit_s),
            ("enforcement.s", self.enforce_s),
            ("enforcement.iterations", self.enf_iterations as f64),
            ("enforcement.sweeps", self.enf_sweeps as f64),
            ("enforcement.matvecs", self.enf_matvecs as f64),
            ("enforcement.stalled", self.enf_stalled as f64),
            ("simulate.virtual_speedup_t2", median(&self.virtual_t2)),
            ("simulate.virtual_speedup_t16", median(&self.virtual_t16)),
            ("trace.solve_s_p50", traced_p50),
            ("trace.overhead_s", traced_p50 - untraced_p50),
            ("trace.layer_sum_gap", gap),
        ];
        let metrics = crate::metrics::per_layer(&values);
        let report = Json::obj()
            .with(
                "computed",
                vec![
                    "band.share = band.s / sum of traced job times",
                    "arnoldi.overhead_s = solver.sweep_s - matvecs x apply_us - shifts x factor_us (per model)",
                    "hamiltonian.apply_share = matvecs x apply_us / solver.sweep_s (per model)",
                    "linalg.proj_eig_share = (restarts + shifts) x proj_eig_us / solver.sweep_s",
                    "exec.parallel_efficiency = speedup_t2 / 2 of the traced pass",
                    "trace.overhead_s = traced job median - untraced job median",
                    "trace.layer_sum_gap = (sum over jobs of traced layer sums - sum of untraced job times) / sum of untraced job times",
                    "characterization.sigma_residual_max = max over crossings of min_i |sigma_i(H(jw)) - 1|; \
                     sigma_max_offset_max is the same over PassivityReport.sigma_at_crossings (sigma_max), \
                     which is not a residual when a lower singular value crosses 1",
                ],
            )
            .with("sigma_max_offset_max", self.sigma_max_offset)
            .with("traced_job_total_s", job_total)
            .with("untraced_job_total_s", untraced_total)
            .with("untraced_solve_s_p50", untraced_p50)
            .with("traced_jobs", self.job_s.len())
            .with("layer_sum_tolerance", LAYER_SUM_TOLERANCE)
            .with(
                "layer_sum_within_tolerance",
                gap.abs() <= LAYER_SUM_TOLERANCE,
            );
        (metrics, report)
    }
}

/// Tolerance on `trace.layer_sum_gap`: the jobs' traced layer times must
/// add up to their untraced times within this share, summed over the
/// pass's jobs (each job's own gap is in the report's rows). Both sides
/// are wall times of separate executions, and single jobs on a 2-CPU
/// Xeon vary by ±15% — short ones by up to 50% — from one execution to
/// the next, so the time-weighted sum, not each job, is held to it.
pub const LAYER_SUM_TOLERANCE: f64 = 0.10;
