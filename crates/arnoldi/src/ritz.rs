//! Ritz pair extraction from an Arnoldi factorization.
//!
//! One Schur solve ([`HessenbergSchur`]) of the projected matrix per round
//! gives every Ritz value and every residual; projected eigenvectors `y`
//! are formed only for the pairs a caller uses (the ones that lock, the
//! restart set, the dominant pair of the band estimate).

use crate::krylov::ArnoldiFactorization;
use pheig_linalg::schur::HessenbergSchur;
use pheig_linalg::vector::{axpy, nrm2};
use pheig_linalg::{LinalgError, C64};

/// A Ritz approximation of an eigenpair of the *operator* (i.e. in the
/// shift-inverted spectrum when the operator is a [`pheig_hamiltonian::ShiftInvertOp`]).
#[derive(Debug, Clone, Copy)]
pub struct RitzPair {
    /// Ritz value `mu` (operator-spectrum eigenvalue estimate).
    pub mu: C64,
    /// Residual `beta |e_m^T y|` for the unit-norm projected eigenvector
    /// `y` — the exact 2-norm of `Op v - mu v` for the lifted Ritz vector
    /// `v = V y`.
    pub residual: f64,
    /// Index of the pair in the Schur solve it came from: pass it to
    /// [`HessenbergSchur::vector_into`] for `y`.
    pub index: usize,
}

/// Extracts all Ritz pairs of `fact` into `pairs`, sorted by decreasing
/// `|mu|` (for shift-inverted operators this means *increasing distance
/// from the shift*, so the leading entries are the paper's "eigenvalues
/// closest to theta"). `schur` keeps the solve for forming Ritz vectors.
/// Both buffers are reused, so a round allocates nothing once warm.
///
/// # Errors
///
/// Propagates projected eigensolver failures (non-finite entries in `H`,
/// QR non-convergence).
pub fn ritz_pairs(
    fact: &ArnoldiFactorization,
    schur: &mut HessenbergSchur,
    pairs: &mut Vec<RitzPair>,
) -> Result<(), LinalgError> {
    pairs.clear();
    let m = fact.steps;
    if m == 0 {
        return Ok(());
    }
    schur.compute_hessenberg(&fact.h, m)?;
    let beta = fact.residual_entry();
    pairs.extend(schur.values().iter().enumerate().map(|(k, &mu)| RitzPair {
        mu,
        residual: beta * schur.last_entry_abs(k),
        index: k,
    }));
    pairs.sort_by(|a, b| b.mu.abs().total_cmp(&a.mu.abs()));
    Ok(())
}

/// Writes the explicit-restart vector `V (sum_u w_u y_u)`, normalized, into
/// `out`: the combination of the `selected` pairs' unit-norm projected
/// eigenvectors, weighted `w_u = 1 / (1 + u)` in selection order. `V` is
/// orthonormal, so this equals the same combination of the normalized
/// lifts `V y_u`, at one pass over the basis instead of one per pair.
/// Returns `false` (and leaves `out` untouched) when nothing is selected
/// or the combination vanishes. `y` and `comb` are length-`m` scratch.
pub(crate) fn restart_vector_into<'p>(
    fact: &ArnoldiFactorization,
    schur: &mut HessenbergSchur,
    selected: impl IntoIterator<Item = &'p RitzPair>,
    y: &mut Vec<C64>,
    comb: &mut Vec<C64>,
    out: &mut [C64],
) -> bool {
    let m = fact.steps;
    y.clear();
    y.resize(m, C64::zero());
    comb.clear();
    comb.resize(m, C64::zero());
    let mut used = 0usize;
    for pair in selected {
        schur.vector_into(pair.index, y);
        axpy(C64::from_real(1.0 / (1.0 + used as f64)), y, comb);
        used += 1;
    }
    if used == 0 || nrm2(comb) == 0.0 {
        return false;
    }
    fact.lift_into(comb, out);
    true
}

impl RitzPair {
    /// Error estimate for the *mapped* Hamiltonian eigenvalue
    /// `lambda = theta + 1/mu`: first-order propagation of the operator
    /// residual through the reciprocal map, `|d lambda| ~ residual / |mu|^2`.
    pub fn mapped_error_estimate(&self) -> f64 {
        let m2 = self.mu.abs_sq();
        if m2 == 0.0 {
            f64::INFINITY
        } else {
            self.residual / m2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::krylov::arnoldi;
    use pheig_linalg::Matrix;

    fn pairs_of(fact: &ArnoldiFactorization) -> (HessenbergSchur, Vec<RitzPair>) {
        let mut schur = HessenbergSchur::new();
        let mut pairs = Vec::new();
        ritz_pairs(fact, &mut schur, &mut pairs).unwrap();
        (schur, pairs)
    }

    #[test]
    fn ritz_values_converge_to_dominant_eigenvalues() {
        // Diagonal operator: after enough steps the top Ritz values match
        // the largest-magnitude eigenvalues.
        let n = 30;
        let d: Vec<C64> = (0..n).map(|i| C64::from_real(1.0 + i as f64)).collect();
        let op = Matrix::from_diag(&d);
        let start: Vec<C64> = (0..n)
            .map(|i| C64::new(1.0, (i as f64 * 0.37).sin()))
            .collect();
        let fact = arnoldi(&op, &start, &[], 25);
        let pairs = pairs_of(&fact).1;
        // Top Ritz value approximates 30 (the dominant eigenvalue). With a
        // 25-step space over a 30-point spectrum the residual is small but
        // not at machine precision.
        assert!(
            (pairs[0].mu - C64::from_real(30.0)).abs() < 1e-4,
            "mu0 = {}",
            pairs[0].mu
        );
        assert!(pairs[0].residual < 1e-3);
    }

    #[test]
    fn residual_is_exact_for_lifted_vector() {
        // ||Op v - mu v|| must equal the beta * |y_m| estimate, for every
        // pair (the estimate comes from the triangular eigenvector alone).
        let n = 16;
        let d: Vec<C64> = (0..n)
            .map(|i| C64::new((i as f64) - 4.0, (i % 5) as f64))
            .collect();
        let op = Matrix::from_diag(&d);
        let start: Vec<C64> = (0..n).map(|i| C64::new((i as f64).cos(), 0.3)).collect();
        let fact = arnoldi(&op, &start, &[], 8);
        let (mut schur, pairs) = pairs_of(&fact);
        assert_eq!(pairs.len(), 8);
        let mut y = vec![C64::zero(); fact.steps];
        for p in &pairs {
            schur.vector_into(p.index, &mut y);
            let v = fact.lift(&y);
            let av = op.matvec(&v);
            let mut err = vec![C64::zero(); n];
            for i in 0..n {
                err[i] = av[i] - p.mu * v[i];
            }
            let norm = pheig_linalg::vector::nrm2(&err);
            assert!(
                (norm - p.residual).abs() < 1e-8 * (1.0 + p.residual),
                "estimate {} vs actual {norm}",
                p.residual
            );
        }
    }

    #[test]
    fn sorted_by_magnitude() {
        let n = 12;
        let d: Vec<C64> = (0..n).map(|i| C64::from_real((i as f64) - 6.0)).collect();
        let op = Matrix::from_diag(&d);
        let start: Vec<C64> = (0..n).map(|i| C64::new(1.0, i as f64 * 0.11)).collect();
        let fact = arnoldi(&op, &start, &[], 10);
        let pairs = pairs_of(&fact).1;
        for w in pairs.windows(2) {
            assert!(w[0].mu.abs() >= w[1].mu.abs() - 1e-12);
        }
    }

    #[test]
    fn mapped_error_scales_with_inverse_square() {
        let p = RitzPair {
            mu: C64::from_real(10.0),
            residual: 1e-6,
            index: 0,
        };
        assert!((p.mapped_error_estimate() - 1e-8).abs() < 1e-20);
        let p0 = RitzPair {
            mu: C64::zero(),
            residual: 1.0,
            index: 0,
        };
        assert!(p0.mapped_error_estimate().is_infinite());
    }

    #[test]
    fn empty_factorization_gives_no_pairs() {
        let op = Matrix::from_diag(&[C64::one()]);
        let q = vec![C64::one()];
        let fact = arnoldi(&op, &[C64::one()], &[q], 1);
        assert!(pairs_of(&fact).1.is_empty());
    }

    #[test]
    fn one_pass_restart_vector_matches_sum_of_normalized_lifts() {
        let n = 40;
        let d: Vec<C64> = (0..n)
            .map(|i| C64::new(1.0 + (i as f64).sqrt(), ((i * 7) % 11) as f64 * 0.1))
            .collect();
        let op = Matrix::from_diag(&d);
        let start: Vec<C64> = (0..n)
            .map(|i| C64::new(1.0, (i as f64 * 0.7).sin()))
            .collect();
        let fact = arnoldi(&op, &start, &[], 20);
        let (mut schur, pairs) = pairs_of(&fact);
        let selected: Vec<RitzPair> = pairs.iter().skip(1).step_by(2).take(5).copied().collect();
        // The old construction: one normalized lift per pair.
        let mut want = vec![C64::zero(); n];
        let mut y = vec![C64::zero(); fact.steps];
        for (u, p) in selected.iter().enumerate() {
            schur.vector_into(p.index, &mut y);
            axpy(
                C64::from_real(1.0 / (1.0 + u as f64)),
                &fact.lift(&y),
                &mut want,
            );
        }
        pheig_linalg::vector::normalize(&mut want);
        let mut got = vec![C64::zero(); n];
        let (mut ys, mut comb) = (Vec::new(), Vec::new());
        assert!(restart_vector_into(
            &fact, &mut schur, &selected, &mut ys, &mut comb, &mut got
        ));
        for (a, b) in got.iter().zip(&want) {
            assert!((*a - *b).abs() < 1e-12, "{a} vs {b}");
        }
        assert!(!restart_vector_into(
            &fact,
            &mut schur,
            &[],
            &mut ys,
            &mut comb,
            &mut got
        ));
    }

    #[test]
    fn non_finite_projection_is_a_typed_error() {
        let n = 10;
        let d: Vec<C64> = (0..n).map(|i| C64::from_real(1.0 + i as f64)).collect();
        let op = Matrix::from_diag(&d);
        let mut fact = arnoldi(&op, &vec![C64::one(); n], &[], 5);
        fact.h[(2, 1)] = C64::new(f64::NAN, 0.0);
        let mut schur = HessenbergSchur::new();
        let mut pairs = Vec::new();
        assert!(matches!(
            ritz_pairs(&fact, &mut schur, &mut pairs),
            Err(LinalgError::InvalidArgument { .. })
        ));
    }
}
