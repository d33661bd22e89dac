//! Eigenvalues of general dense matrices via the shifted QR algorithm.
//!
//! The driver [`eig_complex`] reduces to upper Hessenberg form and runs an
//! explicit single-shift QR iteration with Wilkinson shifts, Givens
//! rotations, and aggressive deflation. Real matrices are promoted to
//! complex ([`eig_real`]): this trades a constant factor for a much simpler,
//! more robust kernel, which is acceptable because the dense eigensolver only
//! plays the role of the paper's `O(n^3)` *baseline* and of a validation
//! oracle for the Arnoldi path.
//!
//! Eigenvectors are not computed here: [`eig_with_vectors`] is a
//! convenience wrapper over the Schur-form solver in [`crate::schur`]
//! (eigenvectors of the triangular factor by back-substitution), the same
//! code the Arnoldi path uses. The eigenvalue-only routines above stay an
//! independent implementation so they can check it.

use crate::complex::C64;
use crate::error::LinalgError;
use crate::hessenberg::hessenberg;
use crate::matrix::Matrix;
use crate::schur::HessenbergSchur;

/// A complex Givens rotation `G = [[c, s], [-conj(s), c]]` with real `c`.
#[derive(Debug, Clone, Copy)]
struct Givens {
    c: f64,
    s: C64,
}

impl Givens {
    /// Builds the rotation that maps `(a, b)` to `(r, 0)`.
    fn make(a: C64, b: C64) -> (Givens, C64) {
        let b_abs = b.abs();
        if b_abs == 0.0 {
            return (
                Givens {
                    c: 1.0,
                    s: C64::zero(),
                },
                a,
            );
        }
        let a_abs = a.abs();
        if a_abs == 0.0 {
            // Swap-like rotation.
            let s = b.conj() * C64::from_real(1.0 / b_abs);
            return (Givens { c: 0.0, s }, C64::from_real(b_abs));
        }
        let d = a_abs.hypot(b_abs);
        let c = a_abs / d;
        let phase_a = a * C64::from_real(1.0 / a_abs);
        let s = phase_a * b.conj() * C64::from_real(1.0 / d);
        let r = phase_a * C64::from_real(d);
        (Givens { c, s }, r)
    }

    /// Applies the rotation to rows `(i, i+1)` over columns `cols` of `h`.
    fn apply_left(&self, h: &mut Matrix<C64>, i: usize, cols: std::ops::Range<usize>) {
        for j in cols {
            let a = h[(i, j)];
            let b = h[(i + 1, j)];
            h[(i, j)] = a * self.c + self.s * b;
            h[(i + 1, j)] = -(self.s.conj()) * a + b * self.c;
        }
    }

    /// Applies the conjugate-transposed rotation to columns `(j, j+1)` over
    /// rows `rows` of `h` (right multiplication by `G^H`).
    fn apply_right(&self, h: &mut Matrix<C64>, j: usize, rows: std::ops::Range<usize>) {
        for i in rows {
            let a = h[(i, j)];
            let b = h[(i, j + 1)];
            h[(i, j)] = a * self.c + b * self.s.conj();
            h[(i, j + 1)] = -self.s * a + b * self.c;
        }
    }
}

/// Eigenvalues of the 2x2 complex matrix `[[a, b], [c, d]]`.
fn eig2(a: C64, b: C64, c: C64, d: C64) -> (C64, C64) {
    let half_tr = (a + d) * C64::from_real(0.5);
    let half_diff = (a - d) * C64::from_real(0.5);
    let disc = (half_diff * half_diff + b * c).sqrt();
    (half_tr + disc, half_tr - disc)
}

/// Wilkinson shift: the eigenvalue of the trailing 2x2 block closest to its
/// bottom-right entry.
fn wilkinson_shift(h: &Matrix<C64>, hi: usize) -> C64 {
    let a = h[(hi - 2, hi - 2)];
    let b = h[(hi - 2, hi - 1)];
    let c = h[(hi - 1, hi - 2)];
    let d = h[(hi - 1, hi - 1)];
    let (l1, l2) = eig2(a, b, c, d);
    if (l1 - d).abs() <= (l2 - d).abs() {
        l1
    } else {
        l2
    }
}

/// Eigenvalues of an upper Hessenberg complex matrix via shifted QR.
///
/// # Errors
///
/// Returns [`LinalgError::NoConvergence`] if the iteration budget
/// (`60 * n` QR sweeps overall) is exhausted — in practice this indicates a
/// matrix with pathological scaling.
pub fn eig_hessenberg(mut h: Matrix<C64>) -> Result<Vec<C64>, LinalgError> {
    if !h.is_square() {
        return Err(LinalgError::NotSquare {
            rows: h.rows(),
            cols: h.cols(),
        });
    }
    let n = h.rows();
    if n == 0 {
        return Ok(Vec::new());
    }
    let mut eigs = Vec::with_capacity(n);
    let mut hi = n;
    let mut iters_this_block = 0usize;
    let mut total_iters = 0usize;
    let budget = 60 * n + 100;
    let norm_scale = h.frobenius_norm().max(f64::MIN_POSITIVE);
    while hi > 0 {
        if hi == 1 {
            eigs.push(h[(0, 0)]);
            break;
        }
        // Deflation scan: zero negligible subdiagonals, then find the start
        // `lo` of the trailing unreduced block.
        let mut lo = hi - 1;
        while lo > 0 {
            let sub = h[(lo, lo - 1)].abs();
            let local = h[(lo - 1, lo - 1)].abs() + h[(lo, lo)].abs();
            let thresh = f64::EPSILON * if local > 0.0 { local } else { norm_scale };
            if sub <= thresh {
                h[(lo, lo - 1)] = C64::zero();
                break;
            }
            lo -= 1;
        }
        if lo == hi - 1 {
            // 1x1 block deflated.
            eigs.push(h[(hi - 1, hi - 1)]);
            hi -= 1;
            iters_this_block = 0;
            continue;
        }
        if lo == hi - 2 {
            // 2x2 block deflated: solve its quadratic directly.
            let (l1, l2) = eig2(
                h[(hi - 2, hi - 2)],
                h[(hi - 2, hi - 1)],
                h[(hi - 1, hi - 2)],
                h[(hi - 1, hi - 1)],
            );
            eigs.push(l1);
            eigs.push(l2);
            hi -= 2;
            iters_this_block = 0;
            continue;
        }
        if total_iters >= budget {
            return Err(LinalgError::NoConvergence {
                iterations: total_iters,
            });
        }
        // One explicit shifted QR sweep on the active block lo..hi.
        let sigma = if iters_this_block > 0 && iters_this_block % 12 == 0 {
            // Exceptional shift to break rare convergence stalls.
            let pert = h[(hi - 1, hi - 2)].abs()
                + if hi >= 3 {
                    h[(hi - 2, hi - 3)].abs()
                } else {
                    0.0
                };
            h[(hi - 1, hi - 1)] + C64::from_real(1.5 * pert)
        } else {
            wilkinson_shift(&h, hi)
        };
        for i in lo..hi {
            h[(i, i)] -= sigma;
        }
        // QR by Givens: eliminate the subdiagonal.
        let mut rotations = Vec::with_capacity(hi - lo - 1);
        for k in lo..hi - 1 {
            let (g, r) = Givens::make(h[(k, k)], h[(k + 1, k)]);
            h[(k, k)] = r;
            h[(k + 1, k)] = C64::zero();
            g.apply_left(&mut h, k, (k + 1)..hi);
            rotations.push(g);
        }
        // Form R Q^H ... i.e. multiply by the conjugate rotations on the right.
        for (idx, g) in rotations.iter().enumerate() {
            let k = lo + idx;
            g.apply_right(&mut h, k, lo..(k + 2).min(hi));
        }
        for i in lo..hi {
            h[(i, i)] += sigma;
        }
        iters_this_block += 1;
        total_iters += 1;
    }
    Ok(eigs)
}

/// Eigenvalues of a general complex matrix.
///
/// # Errors
///
/// * [`LinalgError::NotSquare`] for non-square input.
/// * [`LinalgError::InvalidArgument`] for non-finite entries.
/// * [`LinalgError::NoConvergence`] if the QR iteration stalls.
///
/// # Example
///
/// ```
/// use pheig_linalg::{Matrix, C64, eig::eig_complex};
/// # fn main() -> Result<(), pheig_linalg::LinalgError> {
/// let a = Matrix::from_diag(&[C64::new(2.0, 0.0), C64::new(0.0, 3.0)]);
/// let mut e = eig_complex(&a)?;
/// e.sort_by(|x, y| x.re.partial_cmp(&y.re).unwrap());
/// assert!((e[0] - C64::new(0.0, 3.0)).abs() < 1e-12);
/// assert!((e[1] - C64::new(2.0, 0.0)).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn eig_complex(a: &Matrix<C64>) -> Result<Vec<C64>, LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    if !a.is_finite() {
        return Err(LinalgError::invalid("matrix contains non-finite entries"));
    }
    let h = hessenberg(a.clone());
    eig_hessenberg(h)
}

/// Eigenvalues of a general real matrix (promoted to complex internally).
///
/// Complex eigenvalues of real matrices come in conjugate pairs; small
/// imaginary round-off on real eigenvalues is *not* cleaned up here — use the
/// caller's tolerance.
///
/// # Errors
///
/// Same as [`eig_complex`].
pub fn eig_real(a: &Matrix<f64>) -> Result<Vec<C64>, LinalgError> {
    eig_complex(&a.to_c64())
}

/// Eigen-decomposition (values and right eigenvectors) of a small dense
/// complex matrix, via [`HessenbergSchur::compute_dense`].
///
/// Returned vectors have unit norm; the `k`-th column of the matrix
/// corresponds to `values[k]`. Values come in Schur (deflation) order.
///
/// # Errors
///
/// Same as [`HessenbergSchur::compute_dense`].
pub fn eig_with_vectors(a: &Matrix<C64>) -> Result<(Vec<C64>, Matrix<C64>), LinalgError> {
    let mut schur = HessenbergSchur::new();
    schur.compute_dense(a)?;
    let n = schur.dim();
    let mut vectors = Matrix::zeros(n, n);
    let mut y = vec![C64::zero(); n];
    for k in 0..n {
        schur.vector_into(k, &mut y);
        for (i, &yi) in y.iter().enumerate() {
            vectors[(i, k)] = yi;
        }
    }
    Ok((schur.values().to_vec(), vectors))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu::Lu;

    fn sort_eigs(mut e: Vec<C64>) -> Vec<C64> {
        e.sort_by(|x, y| (x.re, x.im).partial_cmp(&(y.re, y.im)).unwrap());
        e
    }

    fn assert_spectra_match(a: Vec<C64>, b: Vec<C64>, tol: f64) {
        let (a, b) = (sort_eigs(a), sort_eigs(b));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert!((*x - *y).abs() < tol, "{x} vs {y}");
        }
    }

    #[test]
    fn diagonal_matrix() {
        let d = [C64::new(1.0, 0.0), C64::new(-2.0, 0.5), C64::new(3.0, -3.0)];
        let a = Matrix::from_diag(&d);
        assert_spectra_match(eig_complex(&a).unwrap(), d.to_vec(), 1e-12);
    }

    #[test]
    fn upper_triangular_matrix() {
        let mut a =
            Matrix::from_diag(&[C64::new(1.0, 1.0), C64::new(2.0, 0.0), C64::new(5.0, -1.0)]);
        a[(0, 1)] = C64::new(10.0, 3.0);
        a[(0, 2)] = C64::new(-4.0, 0.0);
        a[(1, 2)] = C64::new(7.0, 7.0);
        assert_spectra_match(
            eig_complex(&a).unwrap(),
            vec![C64::new(1.0, 1.0), C64::new(2.0, 0.0), C64::new(5.0, -1.0)],
            1e-10,
        );
    }

    #[test]
    fn real_rotation_gives_conjugate_pair() {
        let a = Matrix::from_rows(&[&[0.0, 1.0][..], &[-1.0, 0.0][..]]);
        assert_spectra_match(
            eig_real(&a).unwrap(),
            vec![C64::new(0.0, -1.0), C64::new(0.0, 1.0)],
            1e-12,
        );
    }

    #[test]
    fn known_spectrum_via_similarity() {
        // Build A = P D P^{-1} with known D and well-conditioned P.
        let n = 8;
        let d: Vec<C64> = (0..n)
            .map(|k| C64::new(k as f64 - 3.0, if k % 2 == 0 { 0.5 } else { -1.5 }))
            .collect();
        let p = Matrix::from_fn(n, n, |i, j| {
            C64::new(
                if i == j { 4.0 } else { 0.0 } + ((i * 5 + j * 3) % 7) as f64 / 7.0,
                ((i + j * 2) % 5) as f64 / 9.0,
            )
        });
        let lu = Lu::new(p.clone()).unwrap();
        let pinv = lu.inverse();
        let a = &(&p * &Matrix::from_diag(&d)) * &pinv;
        assert_spectra_match(eig_complex(&a).unwrap(), d, 1e-8);
    }

    #[test]
    fn companion_matrix_roots() {
        // Companion matrix of z^3 - 6 z^2 + 11 z - 6 = (z-1)(z-2)(z-3).
        let a = Matrix::from_rows(&[
            &[6.0, -11.0, 6.0][..],
            &[1.0, 0.0, 0.0][..],
            &[0.0, 1.0, 0.0][..],
        ]);
        assert_spectra_match(
            eig_real(&a).unwrap(),
            vec![
                C64::from_real(1.0),
                C64::from_real(2.0),
                C64::from_real(3.0),
            ],
            1e-9,
        );
    }

    #[test]
    fn repeated_eigenvalues() {
        // Jordan-ish block: eigenvalue 2 with multiplicity 3 (defective).
        let mut a = Matrix::from_diag(&[C64::from_real(2.0); 3]);
        a[(0, 1)] = C64::from_real(1.0);
        a[(1, 2)] = C64::from_real(1.0);
        let e = eig_complex(&a).unwrap();
        for z in e {
            assert!((z - C64::from_real(2.0)).abs() < 1e-4, "{z}");
        }
    }

    #[test]
    fn larger_random_matrix_trace_check() {
        // Sum of eigenvalues equals the trace; product equals determinant.
        let n = 24;
        let a = Matrix::from_fn(n, n, |i, j| {
            C64::new(
                (((i * 31 + j * 17) % 19) as f64 - 9.0) / 5.0,
                (((i * 13 + j * 7) % 23) as f64 - 11.0) / 7.0,
            )
        });
        let e = eig_complex(&a).unwrap();
        assert_eq!(e.len(), n);
        let tr: C64 = (0..n).map(|i| a[(i, i)]).sum();
        let sum: C64 = e.iter().copied().sum();
        assert!(
            (tr - sum).abs() < 1e-8 * a.frobenius_norm().max(1.0),
            "{tr} vs {sum}"
        );
    }

    #[test]
    fn empty_and_single() {
        let a = Matrix::<C64>::zeros(0, 0);
        assert!(eig_complex(&a).unwrap().is_empty());
        let b = Matrix::from_diag(&[C64::new(4.2, -1.0)]);
        assert_eq!(eig_complex(&b).unwrap(), vec![C64::new(4.2, -1.0)]);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(eig_complex(&Matrix::<C64>::zeros(2, 3)).is_err());
        let mut a = Matrix::<C64>::zeros(2, 2);
        a[(0, 0)] = C64::new(f64::NAN, 0.0);
        assert!(eig_complex(&a).is_err());
    }

    #[test]
    fn eigenvectors_satisfy_definition() {
        let n = 10;
        let a = Matrix::from_fn(n, n, |i, j| {
            C64::new(
                (((i * 3 + j * 11) % 17) as f64 - 8.0) / 4.0,
                (((i * 7 + j) % 13) as f64 - 6.0) / 4.0,
            )
        });
        let (values, vectors) = eig_with_vectors(&a).unwrap();
        for (k, &lambda) in values.iter().enumerate() {
            let v = vectors.col(k);
            let av = a.matvec(&v);
            let mut resid = 0.0f64;
            for i in 0..n {
                resid = resid.max((av[i] - lambda * v[i]).abs());
            }
            assert!(
                resid < 1e-7 * a.frobenius_norm(),
                "residual {resid} for eigenvalue {lambda}"
            );
        }
    }

    #[test]
    fn hamiltonian_structure_spectrum_symmetry() {
        // A small real Hamiltonian matrix [[A, Q], [R, -A^T]] with Q, R
        // symmetric has spectrum symmetric about both axes.
        let a = Matrix::from_rows(&[&[-1.0, 2.0][..], &[0.5, -3.0][..]]);
        let q = Matrix::from_rows(&[&[1.0, 0.2][..], &[0.2, 2.0][..]]);
        let r = Matrix::from_rows(&[&[-0.5, 0.1][..], &[0.1, -1.0][..]]);
        let mut m = Matrix::<f64>::zeros(4, 4);
        m.set_block(0, 0, &a);
        m.set_block(0, 2, &q);
        m.set_block(2, 0, &r);
        m.set_block(2, 2, &a.transpose().scaled(-1.0));
        let e = eig_real(&m).unwrap();
        // For every eigenvalue, -lambda must also be (approximately) present.
        for z in &e {
            let has_neg = e.iter().any(|w| (*w + *z).abs() < 1e-8);
            assert!(has_neg, "spectrum not symmetric: missing {}", -*z);
        }
    }
}
