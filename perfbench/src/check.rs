//! Correctness checks applied to every job a workload runs, timed or
//! paired reference.
//!
//! A job *fails* when the program returns an error, a documented partial
//! result (quarantined shifts, coverage below 1, residual violations) or
//! a *wrong* answer: a full answer that an independent check rejects.
//! Every failure counts in the result's `failed` and is listed in the
//! report (wrong ones marked `WRONG`). The result's `correct` is false
//! when an output could not be checked at all, since the run's counts
//! then vouch for nothing.

use pheig_core::characterization::PassivityReport;
use pheig_core::solver::SolverOutcome;
use pheig_fuzz::oracle::match_crossings;
use pheig_linalg::svd::singular_values;
use pheig_linalg::C64;
use pheig_model::transfer::TransferEval;

/// Largest distance from 1 of the singular value of `H(j w)` nearest to
/// 1 that passes without further question at a reported crossing. Fixed
/// before measuring; the observed residuals are ~1e-5 at n=250 and ~1e-9
/// at n=608.
///
/// A crossing `j w` is a Hamiltonian eigenvalue exactly when *some*
/// singular value of `H(j w)` equals 1. With several ports that need
/// not be the largest one (a lower singular value can cross 1 inside a
/// violation band), so `PassivityReport.sigma_at_crossings`, which holds
/// `sigma_max`, is not the residual; it is reported separately.
///
/// On a steep crossing of a sharp resonance a frequency error far below
/// the crossing-match resolution still moves sigma by more than this, so
/// a larger residual passes when, divided by the local slope of that
/// singular value, it is a frequency error within
/// [`MATCH_REL_TOL`] times the band edge — the resolution the dense
/// oracle comparison uses.
pub const SIGMA_TOL: f64 = 1e-4;

/// Relative crossing-match resolution (times the band's upper edge), the
/// rule `pheig-fuzz`'s differential checker uses.
pub const MATCH_REL_TOL: f64 = 1e-5;

/// Outcome of checking one job.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// A full, verified answer.
    Ok,
    /// An error or a documented partial result.
    Failed(String),
    /// A full answer an independent check rejects.
    Wrong(String),
    /// The independent check itself could not run.
    Unchecked(String),
}

impl Verdict {
    /// `true` for [`Verdict::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, Verdict::Ok)
    }
}

/// Tallies verdicts over a run.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Jobs checked.
    pub attempted: u64,
    /// Jobs that failed, wrong ones included.
    pub failed: u64,
    /// Jobs whose answer an independent check rejected.
    pub wrong: u64,
    /// Jobs whose answer could not be checked.
    pub unchecked: u64,
    /// Every failure, as text.
    pub problems: Vec<String>,
}

impl Tally {
    /// Records one job's verdict; returns whether it succeeded.
    pub fn record(&mut self, name: &str, verdict: &Verdict) -> bool {
        self.attempted += 1;
        let (kind, message) = match verdict {
            Verdict::Ok => return true,
            Verdict::Failed(m) => ("failed", m),
            Verdict::Wrong(m) => {
                self.wrong += 1;
                ("WRONG", m)
            }
            Verdict::Unchecked(m) => {
                self.unchecked += 1;
                ("unchecked", m)
            }
        };
        self.failed += 1;
        self.problems.push(format!("{name}: {kind}: {message}"));
        false
    }

    /// Successful jobs over jobs checked.
    pub fn success_fraction(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }

    /// `true` when every job's answer could be checked.
    pub fn correct(&self) -> bool {
        self.unchecked == 0
    }
}

/// Checks one sweep and its characterization.
///
/// `reference` is an independent crossing set to match (the dense
/// oracle, or the other thread count's sweep for models the dense
/// oracle cannot afford).
pub fn sweep_verdict(
    model: &impl TransferEval,
    outcome: &SolverOutcome,
    reference: Option<&[f64]>,
) -> Verdict {
    if outcome.stats.faults_injected != 0 {
        return Verdict::Failed(format!(
            "{} injected fault(s) on a clean run",
            outcome.stats.faults_injected
        ));
    }
    if outcome.stats.shifts_quarantined != 0 || outcome.covered_fraction < 1.0 {
        return Verdict::Failed(format!(
            "partial result: {} shift(s) quarantined, coverage {}",
            outcome.stats.shifts_quarantined, outcome.covered_fraction
        ));
    }
    if let Some(want) = reference {
        let tol = MATCH_REL_TOL * outcome.band.1;
        if let Err(e) = match_crossings(&outcome.frequencies, want, tol) {
            return Verdict::Wrong(e);
        }
    }
    sigma_verdict(model, &outcome.frequencies, outcome.band.1)
}

/// Largest `|sigma_max - 1|` over a report's crossings (0 without
/// crossings): the characterization's own values, not a residual when a
/// lower singular value crosses (see [`SIGMA_TOL`]).
pub fn sigma_max_offset(report: &PassivityReport) -> f64 {
    report
        .sigma_at_crossings
        .iter()
        .map(|s| (s - 1.0).abs())
        .fold(0.0, f64::max)
}

/// Distance from 1 of the singular value of `H(j w)` nearest to 1, and
/// that value's slope in `w` (central difference). `None` when the
/// singular values cannot be computed or are not finite.
fn nearest_unit_sigma(model: &impl TransferEval, w: f64) -> Option<(f64, f64)> {
    let sv = |x: f64| singular_values(&model.transfer_at(C64::from_imag(x))).ok();
    let at = sv(w)?;
    let (i, residual) = at
        .iter()
        .map(|s| (s - 1.0).abs())
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(&b.1))?;
    let h = 1e-7 * w.abs().max(1e-3);
    let slope = (sv(w + h)?.get(i)? - sv(w - h)?.get(i)?) / (2.0 * h);
    (residual.is_finite() && slope.is_finite()).then_some((residual, slope))
}

/// Largest, over `crossings`, of the distance from 1 of the singular
/// value of `H(j w)` nearest to 1 (0 without crossings; NaN when the
/// singular values at a crossing are not finite).
pub fn unit_sigma_residual(model: &impl TransferEval, crossings: &[f64]) -> f64 {
    crossings
        .iter()
        .map(|&w| nearest_unit_sigma(model, w).map_or(f64::NAN, |(r, _)| r))
        .fold(0.0, |acc, r| {
            if acc.is_nan() || r.is_nan() {
                f64::NAN
            } else {
                acc.max(r)
            }
        })
}

/// Checks every crossing: a singular value within [`SIGMA_TOL`] of 1, or
/// a residual that the local slope turns into a frequency error within
/// `MATCH_REL_TOL * band_hi`.
pub fn sigma_verdict(model: &impl TransferEval, crossings: &[f64], band_hi: f64) -> Verdict {
    for &w in crossings {
        let Some((residual, slope)) = nearest_unit_sigma(model, w) else {
            return Verdict::Wrong(format!("singular values at crossing {w} are not finite"));
        };
        let freq_err = residual / slope.abs();
        // A NaN frequency error (zero slope) fails the check.
        let within = freq_err <= MATCH_REL_TOL * band_hi;
        if residual > SIGMA_TOL && !within {
            return Verdict::Wrong(format!(
                "crossing {w}: nearest unit singular value off by {residual:e} \
                 (slope {slope:e}, frequency error {freq_err:e} > {:e})",
                MATCH_REL_TOL * band_hi
            ));
        }
    }
    Verdict::Ok
}
