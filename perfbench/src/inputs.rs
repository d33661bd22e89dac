//! Inputs for every workload, made with `pheig_model::generator`.
//!
//! The program under test only ever sees the generated models or deck
//! text. The model suites and the deck corpus are fixed; on the sweep
//! workloads the workload seed sets the solver's start-vector seed
//! ([`solver_seed`]), the input the paper varies between repeated runs.
//! The same seed always gives the same inputs.
//!
//! Why the suites do not follow the seed: two models drawn from one spec
//! differ in sweep cost by up to 2x (0.25–0.56 s at n=250, p=5, T=1 on a
//! 2-CPU Xeon), and a deck that stalls in enforcement costs up to a
//! hundred times one that does not. Seed-drawn inputs put 20–25% of
//! spread into `solve_s_p50` between seeds, wider than any bound a
//! regression check can use; the run-to-run noise of a fixed suite is
//! what the bounds are set against.

use pheig_model::generator::{generate_case, table1_cases, CaseSpec, PaperRow};
use pheig_model::touchstone::{write_touchstone, TouchstoneOptions};
use pheig_model::{FrequencySamples, ModelError, PoleResidueModel};

/// Linear scale divisor applied to the paper's Table I dimensions
/// (the `table1` bench's default scaled mode).
pub const TABLE1_SCALE: usize = 4;

/// A named model for the sweep workloads.
#[derive(Debug, Clone)]
pub struct ModelInput {
    /// Case label, e.g. `"Case 2"` or `"ci-96"`.
    pub name: String,
    /// The spec it was generated from.
    pub spec: CaseSpec,
    /// The generated pole–residue model.
    pub model: PoleResidueModel,
    /// Paper row for Table I cases.
    pub paper: Option<PaperRow>,
}

/// Solver start-vector seed (`SolverOptions::seed`) for a workload seed.
pub fn solver_seed(workload_seed: u64) -> u64 {
    workload_seed.wrapping_mul(1_000_003)
}

/// Table I case `spec` at [`TABLE1_SCALE`] (same rule as the `table1`
/// bench's scaled mode).
fn quarter(spec: &CaseSpec) -> CaseSpec {
    CaseSpec {
        order: (spec.order / TABLE1_SCALE).max(spec.ports / TABLE1_SCALE + 4),
        ports: (spec.ports / TABLE1_SCALE).max(2),
        target_crossings: spec.target_crossings.map(|t| t / TABLE1_SCALE),
        ..spec.clone()
    }
}

fn generate(
    name: String,
    spec: CaseSpec,
    paper: Option<PaperRow>,
) -> Result<ModelInput, ModelError> {
    let model = generate_case(&spec)?;
    Ok(ModelInput {
        name,
        spec,
        model,
        paper,
    })
}

/// Variants of each `sweep_serial` base model.
pub const SWEEP_VARIANTS: u64 = 2;

/// `sweep_serial`: Table I Cases 1–3 at quarter scale plus the n=96/p=3
/// model CI's sweep gate uses, each in [`SWEEP_VARIANTS`] generator
/// variants (sharp resonances, n 96–250, p 3–5).
pub fn sweep_models() -> Result<Vec<ModelInput>, ModelError> {
    let mut bases: Vec<(String, CaseSpec)> = vec![(
        "ci-96".into(),
        CaseSpec::new(96, 3).with_seed(7).with_target_crossings(4),
    )];
    for (row, spec) in table1_cases().into_iter().take(3) {
        bases.push((row.name.to_string(), quarter(&spec)));
    }
    let mut out = Vec::new();
    for variant in 0..SWEEP_VARIANTS {
        for (name, spec) in &bases {
            let seed = spec.seed + variant * 7919;
            out.push(generate(
                format!("{name}/v{variant}"),
                spec.clone().with_seed(seed),
                None,
            )?);
        }
    }
    Ok(out)
}

/// `table1_parallel`: the 12 `table1_cases()` at quarter scale — the
/// cases `cargo bench --bench table1` runs in its scaled mode.
pub fn table1_models() -> Result<Vec<ModelInput>, ModelError> {
    table1_cases()
        .into_iter()
        .map(|(row, spec)| generate(row.name.to_string(), quarter(&spec), Some(row)))
        .collect()
}

/// One Touchstone deck of the `pipeline_batch` corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct Deck {
    /// Label, e.g. `"deck-03/p2"`.
    pub name: String,
    /// Port count (passed to the parser).
    pub ports: usize,
    /// Touchstone v1 text.
    pub text: String,
}

/// Decks in the `pipeline_batch` corpus.
pub const DECKS: u64 = 6;

/// The `pipeline_batch` corpus: [`DECKS`] Touchstone decks sampled from
/// soft-damped models (`with_damping(0.02, 0.09)`, the style of fitted
/// measurement data), p 2–4 with n = 8p — so the pipeline's default
/// 8 poles per column matches every deck — and 50·p + 100 samples over
/// [0.01, 13] rad/s. Generator seeds 0..DECKS; two in three decks are
/// calibrated non-passive (2 or 4 crossings).
pub fn decks() -> Result<Vec<Deck>, ModelError> {
    (0..DECKS)
        .map(|i| {
            let ports = 2 + (i % 3) as usize;
            let passive = i % 3 == (i / 3) % 3;
            let spec = CaseSpec::new(8 * ports, ports)
                .with_seed(i)
                .with_damping(0.02, 0.09)
                .with_target_crossings(if passive { 0 } else { 2 + 2 * (i as usize % 2) });
            let model = generate_case(&spec)?;
            let samples = FrequencySamples::from_model(&model, 0.01, 13.0, 50 * ports + 100)?;
            Ok(Deck {
                name: format!("deck-{i:02}/p{ports}"),
                ports,
                text: write_touchstone(&samples, &TouchstoneOptions::default()),
            })
        })
        .collect()
}
