//! `pipeline_batch`: Touchstone deck text → `Pipeline::from_touchstone`
//! → `run_batch` at 2 batch threads, solver T=1.
//!
//! A pass is four batches over the whole corpus: a timed batch at 2
//! threads, the reference batch at 1 thread, then two more timed batches,
//! so a slow stretch of the host lands on both sides of `speedup_t2` and
//! each deck's latency is the median of three samples (a deck's latency
//! inside a 2-thread batch varies by up to 50% with what runs beside it).
//! A job
//! is one deck; its latency is its parse time plus its
//! `PipelineReport.wall`. A deck succeeds only when the pipeline returns
//! `Ok` with zero residual violations; enforcement stalls are failures
//! of the program and stay in the corpus.

use crate::calib::{self, Calibration};
use crate::check::{
    sigma_max_offset, sigma_verdict, unit_sigma_residual, Tally, Verdict, MATCH_REL_TOL,
};
use crate::inputs::{self, Deck};
use crate::json::Json;
use crate::layers::{self, ExecSnapshot, LayerTotals};
use crate::metrics::{self, RunOutput};
use crate::stats::{self, median};
use crate::{mem, Config, SETUP_REPEATS};
use pheig_core::band::estimate_band;
use pheig_core::characterization::{characterize, PassivityReport};
use pheig_core::enforcement::enforce_passivity_with;
use pheig_core::exec::Executor;
use pheig_core::pipeline::{run_batch, PassiveModel, Pipeline, PipelineOptions};
use pheig_core::solver::{
    find_imaginary_eigenvalues_with, SolverOptions, SolverOutcome, SolverWorkspace,
};
use pheig_core::SolverError;
use pheig_fuzz::oracle::{match_crossings, try_oracle_crossings};
use pheig_model::StateSpace;
use pheig_vectorfit::vector_fit;
use std::time::Instant;

/// Batch threads of the timed job.
pub const BATCH_THREADS: usize = 2;

/// Seconds one pass (four batches) takes on a 2-CPU Xeon; sets the fixed
/// number of passes per run (see `stats::passes`).
const NOMINAL_PASS_S: f64 = 32.0;

/// Parses every deck, timing each parse.
fn parse_all(decks: &[Deck]) -> Result<(Vec<Pipeline>, Vec<f64>), String> {
    let mut pipes = Vec::with_capacity(decks.len());
    let mut times = Vec::with_capacity(decks.len());
    for d in decks {
        let t0 = Instant::now();
        let p = Pipeline::from_touchstone(&d.text, Some(d.ports))
            .map_err(|e| format!("{}: parse: {e}", d.name))?;
        times.push(t0.elapsed().as_secs_f64());
        pipes.push(p);
    }
    Ok((pipes, times))
}

/// Checks one deck's pipeline result. An `Ok` result must carry zero
/// residual violations, a clean sweep, initial crossings that match the
/// dense oracle on the fitted model, and `|sigma - 1|` within tolerance.
fn deck_verdict(result: &Result<PassiveModel, SolverError>) -> Verdict {
    let pm = match result {
        Ok(pm) => pm,
        Err(e) => return Verdict::Failed(e.to_string()),
    };
    let r = &pm.report;
    if r.sweep.faults_injected != 0
        || r.sweep.shifts_quarantined != 0
        || r.sweep.covered_fraction < 1.0
    {
        return Verdict::Failed(format!(
            "partial sweep: {} fault(s), {} quarantined, coverage {}",
            r.sweep.faults_injected, r.sweep.shifts_quarantined, r.sweep.covered_fraction
        ));
    }
    if r.residual_violations() != 0 {
        return Verdict::Failed(format!(
            "{} residual violation band(s)",
            r.residual_violations()
        ));
    }
    let fitted = pm.fitted.realize();
    let want = match try_oracle_crossings(&fitted) {
        Ok(w) => w,
        Err(e) => return Verdict::Unchecked(format!("dense oracle: {e}")),
    };
    if let Err(e) = match_crossings(
        &r.initial_report.crossings,
        &want,
        MATCH_REL_TOL * r.sweep.band.1,
    ) {
        return Verdict::Wrong(e);
    }
    sigma_verdict(&fitted, &r.initial_report.crossings, r.sweep.band.1)
}

/// Crossing sets of a batch's results, for cross-thread-count agreement.
fn crossing_sets(results: &[Result<PassiveModel, SolverError>]) -> Vec<Option<Vec<f64>>> {
    results
        .iter()
        .map(|r| {
            r.as_ref()
                .ok()
                .map(|pm| pm.report.initial_report.crossings.clone())
        })
        .collect()
}

/// Spawns the pool and runs a warm-up batch of two cheap decks (one
/// passive, one that goes through enforcement), [`SETUP_REPEATS`] times;
/// returns the median seconds.
fn setup(decks: &[Deck], opts: &PipelineOptions) -> Result<f64, String> {
    let warm = [decks[0].clone(), decks[3].clone()];
    let mut times = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let _pool = Executor::pool(BATCH_THREADS - 1);
        let (pipes, _) = parse_all(&warm)?;
        let _ = run_batch(&pipes, opts, BATCH_THREADS);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok(median(&times))
}

/// One batch over the corpus, checked.
struct Batch {
    seconds: f64,
    /// `(deck index, parse + report wall)` of each successful deck.
    latencies: Vec<(usize, f64)>,
    crossings: Vec<Option<Vec<f64>>>,
}

fn run_checked_batch(
    decks: &[Deck],
    opts: &PipelineOptions,
    threads: usize,
    tally: &mut Tally,
) -> Result<Batch, String> {
    let t0 = Instant::now();
    let (pipes, parse_s) = parse_all(decks)?;
    let results = run_batch(&pipes, opts, threads);
    let seconds = t0.elapsed().as_secs_f64();
    let mut latencies = Vec::new();
    for (i, (deck, result)) in decks.iter().zip(&results).enumerate() {
        let name = format!("{} (T={threads})", deck.name);
        if tally.record(&name, &deck_verdict(result)) {
            if let Ok(pm) = result {
                latencies.push((i, parse_s[i] + pm.report.wall.as_secs_f64()));
            }
        }
    }
    Ok(Batch {
        seconds,
        latencies,
        crossings: crossing_sets(&results),
    })
}

/// One deck alone through `run_batch` at 1 thread, checked: the
/// seconds of its parse and the batch call, whatever the outcome.
fn alone(deck: &Deck, opts: &PipelineOptions, tally: &mut Tally) -> Result<f64, String> {
    Ok(run_checked_batch(std::slice::from_ref(deck), opts, 1, tally)?.seconds)
}

/// Runs `pipeline_batch`.
///
/// # Errors
///
/// A rendered message when the corpus cannot be prepared.
pub fn run(cfg: &Config) -> Result<RunOutput, String> {
    let decks = inputs::decks().map_err(|e| format!("deck generation: {e}"))?;
    // The pipeline's default options, solver start-vector seed included:
    // on this corpus the start vectors move the enforcement work enough to
    // put 26% of spread into `solve_s_p50` across seeds (9% at one seed),
    // so the workload seed does not reach the pipeline.
    let opts = PipelineOptions::new();
    let mut cal = Calibration::new(BATCH_THREADS);
    cal.sample(calib::BURST);
    let setup_s = setup(&decks, &opts)?;
    if cfg.trace {
        return traced(&decks, &opts, setup_s);
    }
    let mut tally = Tally::default();
    let mut timed: Vec<Batch> = Vec::new();
    let mut serial_s = Vec::new();
    let peak_reset = mem::reset_peak();
    let window = Instant::now();
    for _ in 0..stats::passes(cfg.seconds, NOMINAL_PASS_S) {
        let a = run_checked_batch(&decks, &opts, BATCH_THREADS, &mut tally)?;
        cal.sample(calib::BURST);
        let b = run_checked_batch(&decks, &opts, 1, &mut tally)?;
        cal.sample(calib::BURST);
        let a2 = run_checked_batch(&decks, &opts, BATCH_THREADS, &mut tally)?;
        cal.sample(calib::BURST);
        let a3 = run_checked_batch(&decks, &opts, BATCH_THREADS, &mut tally)?;
        cal.sample(calib::BURST);
        // Batch results are identical for any thread count.
        for other in [&b, &a2, &a3] {
            for (deck, (x, y)) in decks.iter().zip(a.crossings.iter().zip(&other.crossings)) {
                if x.is_some() && y.is_some() && x != y {
                    tally.record(
                        &format!("{} (thread counts)", deck.name),
                        &Verdict::Wrong("crossings differ between batch thread counts".into()),
                    );
                }
            }
        }
        serial_s.push(b.seconds);
        timed.extend([a, a2, a3]);
    }
    let window_s = window.elapsed().as_secs_f64();
    let peak_mb = mem::peak_rss_mb();
    let latencies: Vec<f64> = timed
        .iter()
        .flat_map(|b| b.latencies.iter().map(|l| l.1))
        .collect();
    // Each deck's latencies over the run's timed batches.
    let per_deck: Vec<Vec<f64>> = (0..decks.len())
        .map(|i| {
            timed
                .iter()
                .flat_map(|b| b.latencies.iter().filter(|l| l.0 == i).map(|l| l.1))
                .collect()
        })
        .collect();
    let deck_medians: Vec<f64> = per_deck
        .iter()
        .filter(|own| !own.is_empty())
        .map(|own| median(own))
        .collect();
    let deck_rows: Vec<Json> = decks
        .iter()
        .zip(&per_deck)
        .map(|(d, own)| {
            Json::obj()
                .with("deck", d.name.clone())
                .with("ok", own.len())
                .with("latency_s", own.clone())
        })
        .collect();
    let timed_s: Vec<f64> = timed.iter().map(|b| b.seconds).collect();
    let ok: usize = timed.iter().map(|b| b.latencies.len()).sum();
    let tail = stats::tail(&latencies, &deck_medians);
    let p50 = median(&deck_medians);
    let throughput = ok as f64 / timed_s.iter().sum::<f64>();
    let scale = cal.scale();
    let metrics = metrics::end_to_end(&[
        ("setup_s", setup_s * scale),
        ("solve_s_p50", p50 * scale),
        ("solve_s_tail", tail.value * scale),
        ("throughput_per_s", throughput / scale),
        ("speedup_t2", median(&serial_s) / median(&timed_s)),
        ("success_fraction", tally.success_fraction()),
        ("peak_rss_mb", peak_mb),
    ]);
    let report = Json::obj()
        .with("passes", serial_s.len())
        .with("window_s", window_s)
        .with("calibration", cal.report())
        .with(
            "raw",
            Json::obj()
                .with("setup_s", setup_s)
                .with("solve_s_p50", p50)
                .with("solve_s_tail", tail.value)
                .with("throughput_per_s", throughput),
        )
        .with("timed_batch_s", timed_s)
        .with("serial_batch_s", serial_s)
        .with("peak_rss_since", mem::since(peak_reset))
        .with("solve_s_p50_n", latencies.len())
        .with(
            "solve_s_p50_basis",
            "median over decks of each deck's median parse + PipelineReport.wall in the 2-thread batches",
        )
        .with("solve_s_tail_percentile", tail.label.clone())
        .with("solve_s_tail_n", tail.n)
        .with("solve_s_tail_beyond", tail.beyond)
        .with(
            "throughput_basis",
            "successful decks / seconds of the 2-thread batches",
        )
        .with(
            "speedup_t2_basis",
            "median 1-thread batch s / median 2-thread batch s; batches at 2, 1, 2, 2 threads per pass",
        )
        .with("failed_fraction", 1.0 - tally.success_fraction())
        .with("wrong_answers", tally.wrong)
        .with("decks", deck_rows);
    Ok(RunOutput {
        correct: tally.correct(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        report,
        problems: tally.problems,
    })
}

/// One deck composed serially from the public stage functions, each
/// timed.
struct Composed {
    parse_s: f64,
    fit_s: f64,
    band_s: f64,
    sweep_s: f64,
    char_s: f64,
    enforce_s: f64,
    wall_s: f64,
    stalled: bool,
    /// `(iterations, sweeps, matvecs)` of a converged enforcement.
    enforcement: (usize, usize, usize),
    /// An enforcement error other than a stall.
    enforce_error: Option<String>,
    ss: StateSpace,
    out: SolverOutcome,
    report: PassivityReport,
}

impl Composed {
    /// The initial sweep `enforce_passivity_with` runs again, taken at
    /// this deck's own band + sweep + characterize time.
    fn extra_sweep_s(&self) -> f64 {
        if self.report.is_passive() {
            0.0
        } else {
            self.band_s + self.sweep_s + self.char_s
        }
    }

    /// The stage times the pipeline's own run consists of.
    fn layer_sum(&self) -> f64 {
        self.parse_s + self.fit_s + self.band_s + self.sweep_s + self.char_s + self.enforce_s
            - self.extra_sweep_s()
    }
}

/// parse → `vector_fit` → `estimate_band` → sweep with that band →
/// `characterize` → `enforce_passivity_with` (non-passive decks).
fn compose(
    deck: &Deck,
    opts: &PipelineOptions,
    ws: &mut SolverWorkspace,
) -> Result<Composed, String> {
    let name = &deck.name;
    let t_job = Instant::now();
    let t0 = Instant::now();
    let pipe =
        Pipeline::from_touchstone(&deck.text, Some(deck.ports)).map_err(|e| e.to_string())?;
    let parse_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let fit =
        vector_fit(pipe.samples(), &opts.vectorfit).map_err(|e| format!("{name}: fit: {e}"))?;
    let ss = fit.state_space();
    let fit_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let band =
        estimate_band(&ss, &opts.solver.arnoldi).map_err(|e| format!("{name}: band: {e}"))?;
    let band_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let out =
        find_imaginary_eigenvalues_with(&ss, &opts.solver.clone().with_band(band.0, band.1), ws)
            .map_err(|e| format!("{name}: sweep: {e}"))?;
    let sweep_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let report =
        characterize(&ss, &out.frequencies).map_err(|e| format!("{name}: characterize: {e}"))?;
    let char_s = t0.elapsed().as_secs_f64();
    let mut c = Composed {
        parse_s,
        fit_s,
        band_s,
        sweep_s,
        char_s,
        enforce_s: 0.0,
        wall_s: 0.0,
        stalled: false,
        enforcement: (0, 0, 0),
        enforce_error: None,
        ss,
        out,
        report,
    };
    if !c.report.is_passive() {
        let mut enf = opts.enforcement.clone();
        enf.solver = opts.solver.clone();
        let t0 = Instant::now();
        let enforced = enforce_passivity_with(&c.ss, &enf, ws);
        c.enforce_s = t0.elapsed().as_secs_f64();
        match enforced {
            Ok(e) => c.enforcement = (e.iterations, e.recycle.sweeps, e.recycle.matvecs),
            Err(SolverError::EnforcementStalled { .. }) => c.stalled = true,
            Err(e) => c.enforce_error = Some(e.to_string()),
        }
    }
    c.wall_s = t_job.elapsed().as_secs_f64();
    Ok(c)
}

/// The traced run: the timed batch once (untraced, for the executor
/// counters), then every deck through [`compose`]. The untraced time of
/// a deck for the layer-sum check is the mean of two runs of it alone
/// through `run_batch` at 1 thread: like the composition they run one
/// deck at a time, while a deck inside a 2-thread batch shares the CPU
/// pair with its neighbour and runs up to 50% slower.
///
/// The public enforcement entry re-runs the initial sweep that the
/// pipeline shares with its characterization stage. That extra sweep is
/// counted in `enforcement.s`, `enforcement.sweeps` and
/// `enforcement.matvecs`; for the layer-sum check it is taken out again
/// at this deck's own band + sweep + characterize time.
fn traced(decks: &[Deck], opts: &PipelineOptions, setup_s: f64) -> Result<RunOutput, String> {
    let mut tally = Tally::default();
    let exec0 = ExecSnapshot::take();
    let t0 = Instant::now();
    let (pipes, _) = parse_all(decks)?;
    let results = run_batch(&pipes, opts, BATCH_THREADS);
    let batch_s = t0.elapsed().as_secs_f64();
    let exec1 = ExecSnapshot::take();

    let mut totals = LayerTotals::default();
    let mut ws = SolverWorkspace::new();
    let mut rows = Vec::new();
    let mut fitted = Vec::new();
    let mut serial_sum = 0.0;
    for (i, deck) in decks.iter().enumerate() {
        let verdict = deck_verdict(&results[i]);
        tally.record(&deck.name, &verdict);
        let c = compose(deck, opts, &mut ws)?;
        if let Some(e) = &c.enforce_error {
            tally.record(
                &format!("{} (traced)", deck.name),
                &Verdict::Failed(e.clone()),
            );
        }
        serial_sum += c.wall_s;
        totals.enf_stalled += usize::from(c.stalled);
        totals.enf_iterations += c.enforcement.0;
        totals.enf_sweeps += c.enforcement.1;
        totals.enf_matvecs += c.enforcement.2;
        let ops = layers::operator_timings(&c.ss, layers::logged_shift(&c.out))
            .map_err(|e| format!("{}: {e}", deck.name))?;
        totals.parse_s += c.parse_s;
        totals.fit_s += c.fit_s;
        totals.band_s += c.band_s;
        totals.sweep_s += c.sweep_s;
        totals.char_s += c.char_s;
        totals.enforce_s += c.enforce_s;
        totals.sigma_residual_max = totals
            .sigma_residual_max
            .max(unit_sigma_residual(&c.ss, &c.out.frequencies));
        totals.sigma_max_offset = totals.sigma_max_offset.max(sigma_max_offset(&c.report));
        totals.absorb_sweep(&c.out, &ops);
        totals.operators.push(ops);

        // Layer-sum check, on the decks the pipeline completes: a second
        // composition alternates with two runs of the deck alone, so drift
        // lands on both sides. A stalled deck is left out: the public
        // enforcement entry's stalled run measured 14-16% longer than the
        // pipeline's own stalled enforcement stage, a different path.
        let mut untraced_s = None;
        if verdict.is_ok() {
            let before = alone(deck, opts, &mut tally)?;
            let again = compose(deck, opts, &mut ws)?;
            let after = alone(deck, opts, &mut tally)?;
            let untraced = 0.5 * (before + after);
            totals.job_s.push(0.5 * (c.layer_sum() + again.layer_sum()));
            totals.untraced_s.push(untraced);
            untraced_s = Some(untraced);
        }
        rows.push(
            Json::obj()
                .with("deck", deck.name.clone())
                .with("n", c.ss.order())
                .with("p", c.ss.ports())
                .with("parse_s", c.parse_s)
                .with("fit_s", c.fit_s)
                .with("band_s", c.band_s)
                .with("sweep_s", c.sweep_s)
                .with("characterize_s", c.char_s)
                .with("enforce_s", c.enforce_s)
                .with("enforce_extra_initial_sweep_s", c.extra_sweep_s())
                .with("stalled", c.stalled)
                .with("layer_sum_s", c.layer_sum())
                .with(
                    "untraced_alone_s",
                    untraced_s.map_or(Json::Null, Json::from),
                )
                .with("job_wall_s", c.wall_s),
        );
        fitted.push((layers::cost_units(&c.out), c.ss));
    }
    let sims: Vec<(&StateSpace, u64)> = fitted.iter().map(|(units, ss)| (ss, *units)).collect();
    let mut deck_rows = Vec::new();
    for (row, (v2, v16)) in rows
        .into_iter()
        .zip(layers::virtual_speedups(&sims, &opts.solver)?)
    {
        totals.virtual_t2.push(v2);
        totals.virtual_t16.push(v16);
        deck_rows.push(
            row.with("virtual_speedup_t2", v2)
                .with("virtual_speedup_t16", v16),
        );
    }
    // Job-level parallelism of the traced pass: the serial composition's
    // total over the two-thread batch's wall.
    totals.speedup_t2 = serial_sum / batch_s;
    let max_subspace = SolverOptions::default().arnoldi.max_subspace;
    let (metrics, layer_report) = totals.metrics(&exec0, &exec1, layers::proj_eig_us(max_subspace));
    let report = Json::obj()
        .with("mode", "traced: one fixed pass")
        .with("setup_s", setup_s)
        .with("untraced_batch_s", batch_s)
        .with("serial_traced_s", serial_sum)
        .with(
            "speedup_t2_basis",
            "serial traced composition seconds / untraced two-thread batch seconds",
        )
        .with(
            "enforcement_note",
            "enforce_passivity_with re-runs the initial sweep; enforcement.* include it",
        )
        .with("layers", layer_report)
        .with("decks", deck_rows);
    Ok(RunOutput {
        correct: tally.correct(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        report,
        problems: tally.problems,
    })
}
