//! Property-based tests of the dense kernels: factorization roundtrips,
//! norm preservation, and spectral invariants on randomized matrices.

use pheig_linalg::eig::{eig_complex, eig_hessenberg, eig_with_vectors};
use pheig_linalg::hermitian::eigh;
use pheig_linalg::hessenberg::hessenberg;
use pheig_linalg::schur::HessenbergSchur;
use pheig_linalg::svd::singular_values;
use pheig_linalg::{Lu, Matrix, Qr, C64};
use proptest::prelude::*;

/// Keeps the upper Hessenberg part of `a`.
fn hessenberg_part(a: Matrix<C64>) -> Matrix<C64> {
    let n = a.rows();
    Matrix::from_fn(n, n, |i, j| if i > j + 1 { C64::zero() } else { a[(i, j)] })
}

/// `Q^H T Q` reduced to Hessenberg form, with `Q` the unitary factor of
/// `b`: a Hessenberg matrix with the spectrum of the triangular `t`.
fn hessenberg_with_spectrum_of(t: &Matrix<C64>, b: Matrix<C64>) -> Matrix<C64> {
    let q = Qr::new(b).unwrap().q_thin();
    hessenberg(&(&q.conj_transpose() * t) * &q)
}

/// Strategy: an upper triangular matrix with diagonal `diag`, scrambled
/// by a random unitary similarity. The strictly upper part is unit-box
/// random except within the leading `normal` block, which stays diagonal
/// (a normal cluster keeps its eigenvalues well conditioned).
fn hessenberg_with_diag(diag: Vec<C64>, normal: usize) -> impl Strategy<Value = Matrix<C64>> {
    let n = diag.len();
    (cmatrix(n), cmatrix(n)).prop_map(move |(upper, b)| {
        let t = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                diag[i]
            } else if i < j && j >= normal {
                upper[(i, j)]
            } else {
                C64::zero()
            }
        });
        hessenberg_with_spectrum_of(&t, b)
    })
}

/// Strategy: graded Hessenberg input, entries `a_ij r^(i+j)` with
/// `r = 1/2` — eigenvalues decay geometrically, like the projected
/// shift-invert operator's.
fn graded_hessenberg(n: usize) -> impl Strategy<Value = Matrix<C64>> {
    cmatrix(n).prop_map(move |a| {
        let h = hessenberg_part(a);
        Matrix::from_fn(n, n, |i, j| {
            h[(i, j)] * C64::from_real(0.5f64.powi((i + j) as i32))
        })
    })
}

/// Checks the Schur decomposition of `h`: `Z` unitary to 1e-13, backward
/// error `||H Z - Z T||_F <= 50 eps ||H||_F`, `T` upper triangular, and
/// eigenvalues matching the independent dense path `eig_hessenberg` to
/// `eig_tol` (greedy nearest matching).
fn check_schur(h: &Matrix<C64>, eig_tol: f64) -> Result<(), TestCaseError> {
    let n = h.rows();
    let mut schur = HessenbergSchur::new();
    schur.compute_hessenberg(h, n).unwrap();
    let z = schur.schur_vectors();
    let t = schur.schur_factor();
    let gram = &z.conj_transpose() * &z;
    prop_assert!(
        (&gram - &Matrix::identity(n)).max_abs() < 1e-13,
        "Z^H Z != I"
    );
    let backward = (&(h * &z) - &(&z * &t)).frobenius_norm();
    let bound = 50.0 * f64::EPSILON * h.frobenius_norm();
    prop_assert!(backward <= bound, "||HZ - ZT|| = {backward:e} > {bound:e}");
    for i in 0..n {
        for j in 0..i {
            prop_assert!(t[(i, j)] == C64::zero(), "T not triangular at ({i}, {j})");
        }
    }
    let mut oracle = eig_hessenberg(h.clone()).unwrap();
    prop_assert_eq!(oracle.len(), n);
    for (k, &lambda) in schur.values().iter().enumerate() {
        prop_assert!(lambda == t[(k, k)]);
        let (at, dist) = oracle
            .iter()
            .enumerate()
            .map(|(i, &w)| (i, (w - lambda).abs()))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        prop_assert!(
            dist <= eig_tol,
            "eigenvalue {lambda} off the oracle by {dist:e}"
        );
        oracle.swap_remove(at);
    }
    Ok(())
}

/// Residual of every unit eigenvector, relative to `||H||_F`.
fn max_relative_residual(h: &Matrix<C64>) -> f64 {
    let n = h.rows();
    let mut schur = HessenbergSchur::new();
    schur.compute_hessenberg(h, n).unwrap();
    let mut y = vec![C64::zero(); n];
    let mut worst = 0.0f64;
    for k in 0..n {
        let lambda = schur.values()[k];
        schur.vector_into(k, &mut y);
        let hy = h.matvec(&y);
        let r: f64 = hy
            .iter()
            .zip(&y)
            .map(|(a, b)| (*a - lambda * *b).abs_sq())
            .sum::<f64>()
            .sqrt();
        worst = worst.max(r / h.frobenius_norm());
    }
    worst
}

/// Strategy: a well-scaled complex matrix with entries in the unit box.
fn cmatrix(n: usize) -> impl Strategy<Value = Matrix<C64>> {
    prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), n * n).prop_map(move |v| {
        Matrix::from_vec(n, n, v.into_iter().map(|(a, b)| C64::new(a, b)).collect()).expect("sized")
    })
}

/// Strategy: a diagonally dominant (hence nonsingular) complex matrix.
fn nonsingular(n: usize) -> impl Strategy<Value = Matrix<C64>> {
    cmatrix(n).prop_map(move |mut m| {
        for i in 0..n {
            m[(i, i)] += C64::from_real(n as f64 + 1.0);
        }
        m
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// LU solve: A * solve(b) == b.
    #[test]
    fn lu_solves(a in nonsingular(6), b in prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 6)) {
        let b: Vec<C64> = b.into_iter().map(|(x, y)| C64::new(x, y)).collect();
        let lu = Lu::new(a.clone()).unwrap();
        let x = lu.solve(&b).unwrap();
        let r = a.matvec(&x);
        for (u, v) in r.iter().zip(&b) {
            prop_assert!((*u - *v).abs() < 1e-9);
        }
    }

    /// det(A) * det(A^{-1}) == 1.
    #[test]
    fn lu_det_inverse(a in nonsingular(5)) {
        let lu = Lu::new(a.clone()).unwrap();
        let inv = lu.inverse();
        let lu_inv = Lu::new(inv).unwrap();
        let prod = lu.det() * lu_inv.det();
        prop_assert!((prod - C64::one()).abs() < 1e-8);
    }

    /// QR reconstructs and Q is orthonormal.
    #[test]
    fn qr_reconstructs(a in cmatrix(6)) {
        let qr = Qr::new(a.clone()).unwrap();
        let q = qr.q_thin();
        let r = qr.r();
        let back = &q * &r;
        prop_assert!((&back - &a).max_abs() < 1e-10);
        let gram = &q.conj_transpose() * &q;
        prop_assert!((&gram - &Matrix::identity(6)).max_abs() < 1e-10);
    }

    /// Hessenberg reduction preserves trace, Frobenius norm, and spectrum-sum.
    #[test]
    fn hessenberg_invariants(a in cmatrix(7)) {
        let h = hessenberg(a.clone());
        let tr_a: C64 = (0..7).map(|i| a[(i, i)]).sum();
        let tr_h: C64 = (0..7).map(|i| h[(i, i)]).sum();
        prop_assert!((tr_a - tr_h).abs() < 1e-10);
        prop_assert!((a.frobenius_norm() - h.frobenius_norm()).abs() < 1e-9);
    }

    /// Eigenvalue sum equals trace; eigenvalue product equals determinant.
    #[test]
    fn eig_trace_det(a in cmatrix(6)) {
        let eigs = eig_complex(&a).unwrap();
        let tr: C64 = (0..6).map(|i| a[(i, i)]).sum();
        let sum: C64 = eigs.iter().copied().sum();
        prop_assert!((tr - sum).abs() < 1e-7 * (1.0 + a.frobenius_norm()));
        let det = Lu::new(a.clone()).map(|lu| lu.det());
        if let Ok(det) = det {
            let prod = eigs.iter().copied().fold(C64::one(), |acc, z| acc * z);
            prop_assert!((det - prod).abs() < 1e-6 * (1.0 + det.abs()));
        }
    }

    /// Eigenpairs satisfy A v = lambda v.
    #[test]
    fn eig_vectors_satisfy(a in cmatrix(5)) {
        let (vals, vecs) = eig_with_vectors(&a).unwrap();
        let scale = a.frobenius_norm().max(1.0);
        for (k, &lambda) in vals.iter().enumerate() {
            let v = vecs.col(k);
            let av = a.matvec(&v);
            let mut resid = 0.0f64;
            for i in 0..5 {
                resid = resid.max((av[i] - lambda * v[i]).abs());
            }
            // Random matrices can have clustered eigenvalues where
            // eigenvector residuals degrade; keep a generous bound.
            prop_assert!(resid < 1e-4 * scale, "residual {resid}");
        }
    }

    /// Hermitian eigendecomposition: real eigenvalues, unitary vectors,
    /// and reconstruction.
    #[test]
    fn hermitian_reconstructs(a in cmatrix(6)) {
        let h = {
            let ah = a.conj_transpose();
            (&a + &ah).scaled(C64::from_real(0.5))
        };
        let e = eigh(&h, true).unwrap();
        let v = e.vectors.unwrap();
        let gram = &v.conj_transpose() * &v;
        prop_assert!((&gram - &Matrix::identity(6)).max_abs() < 1e-9);
        let lam = Matrix::from_diag(
            &e.values.iter().map(|&x| C64::from_real(x)).collect::<Vec<_>>(),
        );
        let back = &(&v * &lam) * &v.conj_transpose();
        prop_assert!((&back - &h).max_abs() < 1e-8 * (1.0 + h.max_abs()));
    }

    /// Singular values: non-negative, sorted, Frobenius identity, and
    /// invariance under conjugate transpose.
    #[test]
    fn svd_invariants(a in cmatrix(6)) {
        let s = singular_values(&a).unwrap();
        prop_assert!(s.windows(2).all(|w| w[0] >= w[1] - 1e-12));
        prop_assert!(s.iter().all(|&x| x >= 0.0));
        let f2: f64 = s.iter().map(|x| x * x).sum();
        let fa = a.frobenius_norm();
        prop_assert!((f2 - fa * fa).abs() < 1e-8 * (1.0 + fa * fa));
        let st = singular_values(&a.conj_transpose()).unwrap();
        for (x, y) in s.iter().zip(&st) {
            prop_assert!((x - y).abs() < 1e-9 * (1.0 + x));
        }
    }

    /// Unitary invariance of singular values: sigma(Q A) == sigma(A) for
    /// the orthonormal Q of a QR factorization.
    #[test]
    fn svd_unitary_invariance(a in cmatrix(5), b in nonsingular(5)) {
        let q = Qr::new(b).unwrap().q_thin();
        let qa = &q * &a;
        let s1 = singular_values(&a).unwrap();
        let s2 = singular_values(&qa).unwrap();
        for (x, y) in s1.iter().zip(&s2) {
            prop_assert!((x - y).abs() < 1e-8 * (1.0 + x));
        }
    }

    /// Schur form of random Hessenberg input; every eigenvector is accurate.
    #[test]
    fn schur_random_hessenberg(a in cmatrix(12)) {
        let h = hessenberg_part(a);
        check_schur(&h, 1e-10 * h.frobenius_norm())?;
        prop_assert!(max_relative_residual(&h) < 1e-12);
    }

    /// Graded input (geometric decay over ~7 decades).
    #[test]
    fn schur_graded_hessenberg(h in graded_hessenberg(12)) {
        check_schur(&h, 1e-10 * h.frobenius_norm())?;
        prop_assert!(max_relative_residual(&h) < 1e-12);
    }

    /// A cluster of five eigenvalues within 1e-8 of each other plus three
    /// well-separated ones.
    #[test]
    fn schur_clustered_hessenberg(h in hessenberg_with_diag(
        (0..8)
            .map(|k| if k < 5 {
                C64::new(1.0 + 1e-8 * k as f64, 0.5)
            } else {
                C64::new(-2.0 + k as f64, -1.0)
            })
            .collect(),
        5,
    )) {
        check_schur(&h, 1e-10 * h.frobenius_norm())?;
        prop_assert!(max_relative_residual(&h) < 1e-12);
    }

    /// A defective eigenvalue: a 3x3 Jordan block (eigenvalue 2) next to
    /// five simple eigenvalues. The eigenvectors stay finite.
    #[test]
    fn schur_defective_hessenberg(b in cmatrix(8), upper in cmatrix(8)) {
        let n = 8;
        let t = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                if i < 3 { C64::from_real(2.0) } else { C64::new(i as f64 - 6.0, 1.0) }
            } else if j == i + 1 && i < 2 {
                C64::one()
            } else if j > i && i >= 3 {
                upper[(i, j)]
            } else {
                C64::zero()
            }
        });
        let h = hessenberg_with_spectrum_of(&t, b);
        // A perturbed 3x3 Jordan block splits its eigenvalue by
        // ~eps^(1/3) in either solver.
        check_schur(&h, 1e-4 * h.frobenius_norm())?;
        let mut schur = HessenbergSchur::new();
        schur.compute_hessenberg(&h, n).unwrap();
        let mut y = vec![C64::zero(); n];
        for k in 0..n {
            schur.vector_into(k, &mut y);
            prop_assert!(y.iter().all(|v| v.is_finite()));
            prop_assert!((pheig_linalg::vector::nrm2(&y) - 1.0).abs() < 1e-12);
        }
    }
}
