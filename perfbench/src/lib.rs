//! The pheig benchmark: three closed-loop workloads, end-to-end metrics
//! measured untraced, and a separate traced run that breaks every job into
//! per-layer numbers by timing calls into each crate's public functions.
//!
//! Run it from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep_serial|table1_parallel|pipeline_batch> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result object; the line
//! before it is the detailed report (host, sample counts, per-case rows).

pub mod batch;
pub mod calib;
pub mod check;
pub mod host;
pub mod inputs;
pub mod json;
pub mod layers;
pub mod mem;
pub mod metrics;
pub mod stats;
pub mod sweep;

/// Set-ups per run; `setup_s` is their median, so one slow set-up on a
/// noisy host does not move it.
pub const SETUP_REPEATS: usize = 5;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["sweep_serial", "table1_parallel", "pipeline_batch"];

/// One invocation's settings.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the timed window in seconds.
    pub seconds: f64,
    /// `true` for the traced (per-layer) run.
    pub trace: bool,
}

impl Config {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    ///
    /// # Errors
    ///
    /// A usage message for a missing, unknown or malformed argument.
    pub fn parse(args: &[String]) -> Result<Config, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => {
                    seed = Some(
                        value
                            .parse::<u64>()
                            .map_err(|e| format!("--seed {value}: {e}"))?,
                    )
                }
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds {value}: {e}"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(format!("--seconds {value}: must be positive"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace {value}: must be 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload}; expected one of {WORKLOADS:?}"
            ));
        }
        Ok(Config {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// Runs the configured workload.
///
/// # Errors
///
/// A rendered message when inputs cannot be prepared or a traced layer
/// call fails.
pub fn run(cfg: &Config) -> Result<metrics::RunOutput, String> {
    match cfg.workload.as_str() {
        "sweep_serial" => {
            let models = inputs::sweep_models().map_err(|e| e.to_string())?;
            sweep::run(cfg, &models, sweep::SWEEP_SERIAL)
        }
        "table1_parallel" => {
            let models = inputs::table1_models().map_err(|e| e.to_string())?;
            sweep::run(cfg, &models, sweep::TABLE1_PARALLEL)
        }
        "pipeline_batch" => batch::run(cfg),
        other => Err(format!("unknown workload {other}")),
    }
}
