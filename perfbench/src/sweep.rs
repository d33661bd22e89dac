//! The two sweep workloads: `sweep_serial` (timed at T=1, T=2 as the
//! paired reference) and `table1_parallel` (timed at T=2, T=1 as the
//! paired reference).
//!
//! One job is one band sweep (`find_imaginary_eigenvalues_with`) plus
//! `characterize` of its crossings, timed from outside. Jobs run closed
//! loop on one caller: each waits for the previous one.

use crate::calib::{self, Calibration};
use crate::check::{sigma_max_offset, sweep_verdict, unit_sigma_residual, Tally, Verdict};
use crate::inputs::{self, ModelInput};
use crate::json::Json;
use crate::layers::{self, ExecSnapshot, LayerTotals};
use crate::metrics::{self, RunOutput};
use crate::stats::{self, median};
use crate::{mem, Config, SETUP_REPEATS};
use pheig_core::band::estimate_band;
use pheig_core::characterization::{characterize, PassivityReport};
use pheig_core::exec::Executor;
use pheig_core::solver::{
    find_imaginary_eigenvalues_with, SolverOptions, SolverOutcome, SolverWorkspace,
};
use pheig_fuzz::oracle::try_oracle_crossings;
use pheig_model::StateSpace;
use std::time::Instant;

/// How a sweep workload runs its models.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Thread count of the timed job.
    pub timed_threads: usize,
    /// Timed jobs per model and pass; the reference job runs after the
    /// first, so a slow stretch of the host lands on both sides of it.
    pub timed_per_pass: usize,
    /// Thread count of the paired reference job.
    pub ref_threads: usize,
    /// Largest order checked against the dense O(n^3) oracle; larger
    /// models are checked by T=1/T=2 agreement and the sigma residual.
    pub dense_oracle_max_n: usize,
    /// Seconds one pass over the models takes on a 2-CPU Xeon; sets the
    /// fixed number of passes per run (see `stats::passes`).
    pub nominal_pass_s: f64,
}

/// `sweep_serial`: every model is small enough for the dense oracle.
pub const SWEEP_SERIAL: Plan = Plan {
    timed_threads: 1,
    timed_per_pass: 1,
    ref_threads: 2,
    dense_oracle_max_n: usize::MAX,
    nominal_pass_s: 5.0,
};

/// `table1_parallel`: the dense oracle costs 0.9 s at n=250 but 4–7 s at
/// n≈430 on a 2-CPU Xeon, so only Cases 1–3 (n=250) use it. One pass is
/// the only affordable one, and a single T=2 job of a mid-size case varies
/// by ±25% between runs, so each case is timed twice per pass.
pub const TABLE1_PARALLEL: Plan = Plan {
    timed_threads: 2,
    timed_per_pass: 2,
    ref_threads: 1,
    dense_oracle_max_n: 300,
    nominal_pass_s: 31.0,
};

/// One finished job.
struct Job {
    seconds: f64,
    result: Result<(SolverOutcome, PassivityReport), String>,
}

fn run_job(ss: &StateSpace, opts: &SolverOptions, ws: &mut SolverWorkspace) -> Job {
    let t0 = Instant::now();
    let result = find_imaginary_eigenvalues_with(ss, opts, ws)
        .map_err(|e| e.to_string())
        .and_then(|out| {
            let report = characterize(ss, &out.frequencies).map_err(|e| e.to_string())?;
            Ok((out, report))
        });
    Job {
        seconds: t0.elapsed().as_secs_f64(),
        result,
    }
}

impl Job {
    fn verdict(&self, ss: &StateSpace, reference: Option<&[f64]>) -> Verdict {
        match &self.result {
            Ok((out, _)) => sweep_verdict(ss, out, reference),
            Err(e) => Verdict::Failed(e.clone()),
        }
    }

    fn frequencies(&self) -> Option<&[f64]> {
        self.result
            .as_ref()
            .ok()
            .map(|(o, _)| o.frequencies.as_slice())
    }

    fn matvecs(&self) -> Option<usize> {
        self.result
            .as_ref()
            .ok()
            .map(|(o, _)| o.stats.total_matvecs)
    }
}

/// Per-model state across passes.
struct Slot<'a> {
    input: &'a ModelInput,
    ss: StateSpace,
    oracle: Option<Vec<f64>>,
    t1: Vec<f64>,
    t2: Vec<f64>,
    t2_matvecs: Vec<usize>,
}

fn opts(threads: usize, seed: u64) -> SolverOptions {
    SolverOptions::default()
        .with_threads(threads)
        .with_seed(seed)
}

/// Realizes every model, spawns the pool and runs the warm-up jobs;
/// repeated [`SETUP_REPEATS`] times, returning the median seconds and
/// the realized models of the last repeat.
fn setup(
    models: &[ModelInput],
    plan: Plan,
    seed: u64,
    ws: &mut SolverWorkspace,
) -> (f64, Vec<StateSpace>) {
    let mut times = Vec::new();
    let mut realized = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        realized = models.iter().map(|m| m.model.realize()).collect();
        let _pool = Executor::pool(1);
        // Warm-up: fill the workspaces at both thread counts.
        for threads in [plan.timed_threads, plan.ref_threads] {
            let _ = run_job(&realized[0], &opts(threads, seed), ws);
        }
        times.push(t0.elapsed().as_secs_f64());
    }
    (median(&times), realized)
}

/// Reference crossings from the dense oracle, for models within the
/// plan's size limit (computed once per model, before timing).
fn oracle_for(ss: &StateSpace, plan: Plan) -> Result<Option<Vec<f64>>, String> {
    if ss.order() <= plan.dense_oracle_max_n {
        try_oracle_crossings(ss).map(Some)
    } else {
        Ok(None)
    }
}

/// Checks the timed and reference jobs of one model in one pass;
/// returns how many timed jobs succeeded.
fn check_jobs(slot: &Slot<'_>, timed: &[Job], reference: &Job, tally: &mut Tally) -> usize {
    let name = &slot.input.name;
    // Without an affordable oracle the two thread counts must agree.
    let want = slot.oracle.as_deref().or(reference.frequencies());
    tally.record(
        &format!("{name} (reference)"),
        &reference.verdict(&slot.ss, slot.oracle.as_deref()),
    );
    timed
        .iter()
        .filter(|job| tally.record(name, &job.verdict(&slot.ss, want)))
        .count()
}

/// Runs a sweep workload.
///
/// # Errors
///
/// A rendered message when the inputs cannot be prepared.
pub fn run(cfg: &Config, models: &[ModelInput], plan: Plan) -> Result<RunOutput, String> {
    let seed = inputs::solver_seed(cfg.seed);
    let mut ws = SolverWorkspace::new();
    let mut cal = Calibration::new(plan.timed_threads);
    cal.sample(calib::BURST);
    let (setup_s, realized) = setup(models, plan, seed, &mut ws);
    let mut slots = models
        .iter()
        .zip(realized)
        .map(|(input, ss)| {
            let oracle = oracle_for(&ss, plan)?;
            Ok(Slot {
                input,
                ss,
                oracle,
                t1: Vec::new(),
                t2: Vec::new(),
                t2_matvecs: Vec::new(),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    if cfg.trace {
        return traced(&mut slots, plan, seed, &mut ws, setup_s);
    }

    let mut tally = Tally::default();
    let mut timed_s = Vec::new();
    let mut ok_timed = 0usize;
    let peak_reset = mem::reset_peak();
    let window = Instant::now();
    let passes = stats::passes(cfg.seconds, plan.nominal_pass_s);
    for _ in 0..passes {
        for slot in &mut slots {
            let timed_opts = opts(plan.timed_threads, seed);
            let mut timed = vec![run_job(&slot.ss, &timed_opts, &mut ws)];
            let reference = run_job(&slot.ss, &opts(plan.ref_threads, seed), &mut ws);
            for _ in 1..plan.timed_per_pass {
                timed.push(run_job(&slot.ss, &timed_opts, &mut ws));
            }
            timed_s.extend(timed.iter().map(|j| j.seconds));
            ok_timed += check_jobs(slot, &timed, &reference, &mut tally);
            let reference = std::slice::from_ref(&reference);
            let (t1, t2) = if plan.timed_threads == 1 {
                (timed.as_slice(), reference)
            } else {
                (reference, timed.as_slice())
            };
            slot.t1.extend(t1.iter().map(|j| j.seconds));
            slot.t2.extend(t2.iter().map(|j| j.seconds));
            slot.t2_matvecs.extend(t2.iter().filter_map(Job::matvecs));
            cal.sample(1);
        }
    }
    let window_s = window.elapsed().as_secs_f64();
    let peak_mb = mem::peak_rss_mb();
    cal.sample(calib::BURST);
    let scale = cal.scale();

    let sum_t1: f64 = slots.iter().map(|s| median(&s.t1)).sum();
    let sum_t2: f64 = slots.iter().map(|s| median(&s.t2)).sum();
    let job_medians: Vec<f64> = slots
        .iter()
        .map(|s| {
            median(if plan.timed_threads == 1 {
                &s.t1
            } else {
                &s.t2
            })
        })
        .collect();
    let tail = stats::tail(&timed_s, &job_medians);
    let throughput = ok_timed as f64 / timed_s.iter().sum::<f64>();
    let p50 = median(&job_medians);
    let metrics = metrics::end_to_end(&[
        ("setup_s", setup_s * scale),
        ("solve_s_p50", p50 * scale),
        ("solve_s_tail", tail.value * scale),
        ("throughput_per_s", throughput / scale),
        ("speedup_t2", sum_t1 / sum_t2),
        ("success_fraction", tally.success_fraction()),
        ("peak_rss_mb", peak_mb),
    ]);
    let cases: Vec<Json> = slots.iter().map(case_row).collect();
    let report = Json::obj()
        .with("passes", passes)
        .with("window_s", window_s)
        .with("timed_threads", plan.timed_threads)
        .with("calibration", cal.report())
        .with(
            "raw",
            Json::obj()
                .with("setup_s", setup_s)
                .with("solve_s_p50", p50)
                .with("solve_s_tail", tail.value)
                .with("throughput_per_s", throughput),
        )
        .with("solve_s_p50_n", timed_s.len())
        .with(
            "solve_s_p50_basis",
            "median over models of each model's median timed-job seconds",
        )
        .with("solve_s_tail_percentile", tail.label.clone())
        .with("solve_s_tail_n", tail.n)
        .with("solve_s_tail_beyond", tail.beyond)
        .with("peak_rss_since", mem::since(peak_reset))
        .with(
            "speedup_t2_basis",
            "sum over models of median T=1 s / sum of median T=2 s",
        )
        .with("cases", cases)
        .with("wrong_answers", tally.wrong);
    Ok(RunOutput {
        correct: tally.correct(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        report,
        problems: tally.problems,
    })
}

fn case_row(slot: &Slot<'_>) -> Json {
    let t1 = median(&slot.t1);
    let t2 = median(&slot.t2);
    let (lo, hi) = stats::min_max(&slot.t2_matvecs);
    let mut row = Json::obj()
        .with("case", slot.input.name.clone())
        .with("n", slot.ss.order())
        .with("p", slot.ss.ports())
        .with("tau1_s", t1)
        .with("tau2_s", t2)
        .with("speedup_t2", if t2 > 0.0 { t1 / t2 } else { 0.0 })
        .with("t2_matvecs_min", lo)
        .with("t2_matvecs_max", hi)
        .with(
            "checked_by",
            if slot.oracle.is_some() {
                "dense oracle"
            } else {
                "T=1/T=2 agreement + sigma residual"
            },
        );
    if let Some(paper) = &slot.input.paper {
        row.set(
            "paper",
            Json::obj()
                .with("n", paper.n)
                .with("p", paper.p)
                .with("n_lambda", paper.n_lambda)
                .with("tau1_s", paper.tau_serial)
                .with("tau16_s", paper.tau_16_mean)
                .with("eta16", paper.eta_16),
        );
    }
    row
}

/// The traced run: one fixed pass. Per model, the untraced timed job
/// before and after the same job decomposed into its layers (band
/// estimate alone, then the sweep with that band, then `characterize`),
/// so host drift lands on both sides of the layer-sum check; then the
/// paired reference, operator micro-timings at a logged shift, and the
/// virtual-time speedups.
fn traced(
    slots: &mut [Slot<'_>],
    plan: Plan,
    seed: u64,
    ws: &mut SolverWorkspace,
    setup_s: f64,
) -> Result<RunOutput, String> {
    let mut tally = Tally::default();
    let mut totals = LayerTotals::default();
    let mut t1_counts = Vec::new();
    let exec0 = ExecSnapshot::take();
    let mut rows = Vec::new();
    let mut serial_units = Vec::new();
    for slot in slots.iter_mut() {
        let name = slot.input.name.clone();
        let timed_opts = opts(plan.timed_threads, seed);
        let untraced = run_job(&slot.ss, &timed_opts, ws);

        let t_job = Instant::now();
        let t0 = Instant::now();
        let band = estimate_band(&slot.ss, &timed_opts.arnoldi)
            .map_err(|e| format!("{name}: band: {e}"))?;
        let band_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let out = find_imaginary_eigenvalues_with(
            &slot.ss,
            &timed_opts.clone().with_band(band.0, band.1),
            ws,
        )
        .map_err(|e| format!("{name}: sweep: {e}"))?;
        let sweep_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let report = characterize(&slot.ss, &out.frequencies)
            .map_err(|e| format!("{name}: characterize: {e}"))?;
        let char_s = t0.elapsed().as_secs_f64();
        let job_s = t_job.elapsed().as_secs_f64();
        let untraced = [untraced, run_job(&slot.ss, &timed_opts, ws)];
        let untraced_s = 0.5 * (untraced[0].seconds + untraced[1].seconds);

        let reference = run_job(&slot.ss, &opts(plan.ref_threads, seed), ws);
        check_jobs(slot, &untraced, &reference, &mut tally);
        let want = slot.oracle.as_deref().or(reference.frequencies());
        tally.record(
            &format!("{name} (traced)"),
            &sweep_verdict(&slot.ss, &out, want),
        );

        let ops = layers::operator_timings(&slot.ss, layers::logged_shift(&out))
            .map_err(|e| format!("{name}: {e}"))?;
        totals.band_s += band_s;
        totals.sweep_s += sweep_s;
        totals.char_s += char_s;
        totals.job_s.push(band_s + sweep_s + char_s);
        totals.untraced_s.push(untraced_s);
        totals.sigma_residual_max = totals
            .sigma_residual_max
            .max(unit_sigma_residual(&slot.ss, &out.frequencies));
        totals.sigma_max_offset = totals.sigma_max_offset.max(sigma_max_offset(&report));
        totals.absorb_sweep(&out, &ops);
        totals.operators.push(ops);

        let reference = std::slice::from_ref(&reference);
        let (serial, parallel) = if plan.timed_threads == 1 {
            (untraced.as_slice(), reference)
        } else {
            (reference, untraced.as_slice())
        };
        slot.t1.extend(serial.iter().map(|j| j.seconds));
        slot.t2.extend(parallel.iter().map(|j| j.seconds));
        slot.t2_matvecs
            .extend(parallel.iter().filter_map(Job::matvecs));
        let serial_out = match &serial[0].result {
            Ok((o, _)) => o,
            Err(e) => return Err(format!("{name}: T=1 sweep failed: {e}")),
        };
        t1_counts.push(
            Json::obj()
                .with("case", name.clone())
                .with("shifts", serial_out.shift_log.len())
                .with("matvecs", serial_out.stats.total_matvecs)
                .with(
                    "restarts",
                    serial_out
                        .shift_log
                        .iter()
                        .map(|r| r.restarts)
                        .sum::<usize>(),
                ),
        );
        serial_units.push(layers::cost_units(serial_out));
        rows.push(
            case_row(slot)
                .with("traced_job_s", job_s)
                .with("layer_sum_s", band_s + sweep_s + char_s)
                .with("untraced_job_s", untraced_s),
        );
    }
    let exec1 = ExecSnapshot::take();
    let sims: Vec<(&StateSpace, u64)> = slots.iter().map(|s| &s.ss).zip(serial_units).collect();
    let mut cases = Vec::new();
    for (row, (v2, v16)) in rows
        .into_iter()
        .zip(layers::virtual_speedups(&sims, &opts(1, seed))?)
    {
        totals.virtual_t2.push(v2);
        totals.virtual_t16.push(v16);
        cases.push(
            row.with("virtual_speedup_t2", v2)
                .with("virtual_speedup_t16", v16),
        );
    }
    let sum_t1: f64 = slots.iter().map(|s| median(&s.t1)).sum();
    let sum_t2: f64 = slots.iter().map(|s| median(&s.t2)).sum();
    totals.speedup_t2 = sum_t1 / sum_t2;
    let max_subspace = SolverOptions::default().arnoldi.max_subspace;
    let proj_us = layers::proj_eig_us(max_subspace);
    let (metrics, layer_report) = totals.metrics(&exec0, &exec1, proj_us);
    let report = Json::obj()
        .with("mode", "traced: one fixed pass")
        .with("setup_s", setup_s)
        .with("per_layer_counts_at_threads", plan.timed_threads)
        .with("proj_eig_dim", max_subspace)
        .with("layers", layer_report)
        .with("t1_counts", t1_counts)
        .with(
            "not_exercised",
            vec!["model.parse_s", "vectorfit.fit_s", "enforcement.*"],
        )
        .with("cases", cases)
        .with("wrong_answers", tally.wrong);
    Ok(RunOutput {
        correct: tally.correct(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        report,
        problems: tally.problems,
    })
}
