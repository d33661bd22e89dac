//! Host-speed calibration of the end-to-end times.
//!
//! On a shared 2-CPU virtual machine the same fixed work runs up to ~40%
//! faster or slower from one few-minute stretch to the next: with no code
//! change, `sweep_serial`'s median job took 0.40 s in one ten-run series
//! and 0.27 s in another an hour later, and `pipeline_batch` runs went from
//! 32 s to 20 s within five minutes. That drift is wider than any bound a
//! regression check can use, and no amount of repetition inside one run
//! removes it.
//!
//! So every run interleaves a fixed calibration kernel with its jobs, on
//! as many threads at once as its timed job uses, and scales its times
//! by `REFERENCE_S / median(kernel seconds)`: the times
//! are seconds on a host where one kernel call takes [`REFERENCE_S`]. The
//! kernel is this package's own code, so no change to the program under
//! test can move it. The raw times and the scale are in the report.

use crate::json::Json;
use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// Seconds one [`kernel`] call takes on the reference host (a 2-CPU
/// Xeon; median over a quiet minute).
pub const REFERENCE_S: f64 = 5.7e-3;

/// Order of the kernel's matrix: 300×300 f64 (720 KB), the working-set
/// size of the sweeps' dense kernels.
const N: usize = 300;

/// Power-iteration steps per call.
const STEPS: usize = 100;

/// Kernel calls at the start and end of a run and between batches.
pub const BURST: usize = 5;

/// One fixed calibration workload: dense matrix–vector power iteration.
/// Returns its seconds.
pub fn kernel() -> f64 {
    let a: Vec<f64> = (0..N * N)
        .map(|i| ((i * 7919) % 1000) as f64 * 1e-3)
        .collect();
    let mut x: Vec<f64> = (0..N).map(|i| i as f64 * 1e-3).collect();
    let mut y = vec![0.0; N];
    let t0 = Instant::now();
    for _ in 0..STEPS {
        for (yi, row) in y.iter_mut().zip(a.chunks_exact(N)) {
            *yi = row.iter().zip(&x).map(|(r, v)| r * v).sum();
        }
        let norm = y.iter().map(|v| v * v).sum::<f64>().sqrt();
        for (xi, yi) in x.iter_mut().zip(&y) {
            *xi = yi / norm;
        }
    }
    black_box(&x);
    t0.elapsed().as_secs_f64()
}

/// Kernel timings collected over one run.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// Copies of the kernel run at once: the timed job's thread count, so
    /// the kernel meets the same contention for the CPU pair as the job.
    threads: usize,
    samples: Vec<f64>,
}

impl Calibration {
    /// A calibration for jobs timed at `threads` threads.
    pub fn new(threads: usize) -> Self {
        Calibration {
            threads: threads.max(1),
            samples: Vec::new(),
        }
    }

    /// Runs the kernel `count` times on each of the calibration's
    /// threads at once, keeping every time.
    pub fn sample(&mut self, count: usize) {
        for _ in 0..count {
            std::thread::scope(|s| {
                let others: Vec<_> = (1..self.threads).map(|_| s.spawn(kernel)).collect();
                self.samples.push(kernel());
                for other in others {
                    // The kernel cannot panic; a lost sample only thins the median.
                    self.samples.extend(other.join().ok());
                }
            });
        }
    }

    /// `REFERENCE_S / median(kernel seconds)`: multiply a raw time by it
    /// (divide a rate) to get reference-host seconds. 1 before any sample.
    pub fn scale(&self) -> f64 {
        if self.samples.is_empty() {
            1.0
        } else {
            REFERENCE_S / median(&self.samples)
        }
    }

    /// The report block: scale, sample count and the median kernel time.
    pub fn report(&self) -> Json {
        Json::obj()
            .with("scale", self.scale())
            .with("threads", self.threads)
            .with("samples", self.samples.len())
            .with("kernel_s_median", median(&self.samples))
            .with("reference_s", REFERENCE_S)
    }
}
