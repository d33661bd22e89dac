//! Order statistics for the reported timings.

/// Median of `xs` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// Passes a run makes: as many nominal-length passes as fit in the
/// window, at least one. The count depends on the window alone, never on
/// how fast a pass happens to run, so every run of a workload — on any
/// commit — takes the same number of samples and reads the same tail
/// percentile. A slower program makes a longer run, not a smaller one.
pub fn passes(seconds: f64, nominal_pass_s: f64) -> usize {
    ((seconds / nominal_pass_s).floor() as usize).max(1)
}

/// Percentiles tried for the tail, highest first. The median is not on
/// it: a "tail" at p50 would read below `solve_s_p50` on some runs.
pub const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples that must lie beyond a percentile for it to count as measured.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The tail statistic of one sample set.
#[derive(Debug, Clone, PartialEq)]
pub struct Tail {
    /// `"p95"`-style label, or `"max"` when no ladder percentile has
    /// [`TAIL_MIN_BEYOND`] samples beyond it.
    pub label: String,
    /// The value at that percentile (nearest rank).
    pub value: f64,
    /// Sample count the percentile was taken over.
    pub n: usize,
    /// Samples strictly beyond the selected rank.
    pub beyond: usize,
}

/// Highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it (nearest-rank definition).
///
/// With fewer than 40 samples not even p75 qualifies. The tail is then
/// the slowest job: the largest of `job_medians` (each job's median over
/// the run's samples), labelled `"max"`, with `n` still the sample
/// count.
pub fn tail(xs: &[f64], job_medians: &[f64]) -> Tail {
    let n = xs.len();
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    for p in TAIL_LADDER {
        // Nearest rank: the smallest k with k/n >= p/100 (1-based).
        let k = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
        if k >= 1 && n - k >= TAIL_MIN_BEYOND {
            return Tail {
                label: format!("p{p}"),
                value: v[k - 1],
                n,
                beyond: n - k,
            };
        }
    }
    Tail {
        label: "max".into(),
        value: job_medians.iter().copied().fold(0.0, f64::max),
        n,
        beyond: 0,
    }
}

/// `(min, max)` of a sample set; `(0, 0)` when empty.
pub fn min_max(xs: &[usize]) -> (usize, usize) {
    let lo = xs.iter().copied().min().unwrap_or(0);
    let hi = xs.iter().copied().max().unwrap_or(0);
    (lo, hi)
}
