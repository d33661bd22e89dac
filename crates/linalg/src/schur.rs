//! Complex Schur decomposition of small upper Hessenberg matrices, with
//! eigenvectors by triangular back-substitution.
//!
//! This is the projected eigensolver of the Arnoldi path: every restart
//! ends with the eigenproblem of the `m x m` Hessenberg matrix the Krylov
//! build produced (`m <= d = 60`), and the Rayleigh–Ritz refinement ends
//! with a small dense one. [`HessenbergSchur`] solves both with one
//! factorization:
//!
//! 1. [`HessenbergSchur::compute_hessenberg`] takes the leading `m x m`
//!    block of an upper Hessenberg matrix as is (no re-reduction);
//!    [`HessenbergSchur::compute_dense`] first reduces a general square
//!    matrix by Householder reflectors, accumulating them.
//! 2. Implicit single-shift QR with Wilkinson shifts (the complex analogue
//!    of LAPACK's `zlahqr`) drives the matrix to upper triangular `T` and
//!    accumulates the unitary Schur vectors `Z`, so `H = Z T Z^H`.
//! 3. Eigenvectors `x_k` of `T` come from back-substitution in the style
//!    of `ztrevc`: pivots `T_ii - T_kk` smaller than `eps |T_kk|` are
//!    floored there, so (nearly) repeated and defective eigenvalues give
//!    large but finite vectors. The eigenvector of `H` is `y_k = Z x_k`,
//!    and `||y_k|| = ||x_k||` because `Z` is unitary.
//!
//! The triangular vectors make per-pair quantities cheap: the last entry
//! of `y_k` (the Arnoldi residual weight) is one dot product of `x_k` with
//! the last row of `Z`, so callers form the full `y_k` only for the pairs
//! they use.
//! All storage is owned by the struct and reused: after the first call at
//! a given size, further calls perform no heap allocation.
//!
//! The dense oracle ([`crate::eig::eig_complex`] and friends) is a separate
//! implementation on purpose; it checks this one.

use crate::complex::C64;
use crate::error::LinalgError;
use crate::matrix::Matrix;

/// `|re| + |im|`: the cheap magnitude LAPACK uses for convergence tests.
#[inline]
fn cabs1(z: C64) -> f64 {
    z.re.abs() + z.im.abs()
}

/// A plane rotation `[[c, s], [-conj(s), c]]` with real `c`.
#[derive(Debug, Clone, Copy)]
struct Rotation {
    c: f64,
    s: C64,
}

impl Rotation {
    /// The rotation mapping `(f, g)` to `(r, 0)`, and `r`.
    fn zeroing(f: C64, g: C64) -> (Rotation, C64) {
        /// Squared magnitudes inside this range neither overflow nor lose
        /// precision to underflow, so plain square roots are exact enough;
        /// outside it the magnitudes come from `hypot`.
        const SAFE: std::ops::RangeInclusive<f64> = 1e-280..=1e280;
        let g2 = g.abs_sq();
        if g2 == 0.0 {
            return (
                Rotation {
                    c: 1.0,
                    s: C64::zero(),
                },
                f,
            );
        }
        let f2 = f.abs_sq();
        let (f_abs, g_abs, d) = if SAFE.contains(&g2) && (f2 == 0.0 || SAFE.contains(&f2)) {
            (f2.sqrt(), g2.sqrt(), (f2 + g2).sqrt())
        } else {
            let (fa, ga) = (f.abs(), g.abs());
            (fa, ga, fa.hypot(ga))
        };
        if f_abs == 0.0 {
            let s = g.conj().scale(1.0 / g_abs);
            return (Rotation { c: 0.0, s }, C64::from_real(g_abs));
        }
        let phase = f.scale(1.0 / f_abs);
        let s = phase * g.conj().scale(1.0 / d);
        (Rotation { c: f_abs / d, s }, phase.scale(d))
    }

    /// `(a, b) <- (c a + s b, -conj(s) a + c b)`: the rotation applied
    /// from the left to a pair of rows.
    #[inline]
    fn rows(self, a: &mut [C64], b: &mut [C64]) {
        let (c, s) = (self.c, self.s);
        for (x, y) in a.iter_mut().zip(b.iter_mut()) {
            let (u, v) = (*x, *y);
            *x = u.scale(c) + s * v;
            *y = v.scale(c) - s.conj() * u;
        }
    }

    /// `(a, b) <- (c a + conj(s) b, -s a + c b)`: the adjoint applied from
    /// the right to one row's entries in a pair of columns.
    #[inline]
    fn cols(self, a: &mut C64, b: &mut C64) {
        let (u, v) = (*a, *b);
        *a = u.scale(self.c) + self.s.conj() * v;
        *b = v.scale(self.c) - self.s * u;
    }

    /// The rotation with `s` conjugated: its [`Self::rows`] applies this
    /// rotation's adjoint from the right to a pair of columns stored as
    /// rows.
    #[inline]
    fn adjoint(self) -> Rotation {
        Rotation {
            c: self.c,
            s: self.s.conj(),
        }
    }
}

/// Rows `k` and `k + 1` of a row-major matrix with `n` columns.
#[inline]
fn row_pair(data: &mut [C64], n: usize, k: usize) -> (&mut [C64], &mut [C64]) {
    let (head, tail) = data.split_at_mut((k + 1) * n);
    (&mut head[k * n..], &mut tail[..n])
}

/// Schur form `H = Z T Z^H` of a small complex matrix, with eigenvectors
/// on request; see the [module docs](self).
///
/// Eigenvalue `k` is the diagonal entry `T_kk` ([`Self::values`]); its
/// unit-norm eigenvector is [`Self::vector_into`].
///
/// # Example
///
/// ```
/// use pheig_linalg::{Matrix, C64, schur::HessenbergSchur};
/// # fn main() -> Result<(), pheig_linalg::LinalgError> {
/// let h = Matrix::from_rows(&[
///     &[C64::from_real(2.0), C64::from_real(1.0)][..],
///     &[C64::from_real(1.0), C64::from_real(2.0)][..],
/// ]);
/// let mut schur = HessenbergSchur::new();
/// schur.compute_hessenberg(&h, 2)?;
/// let mut y = vec![C64::zero(); 2];
/// for k in 0..2 {
///     let lambda = schur.values()[k];
///     schur.vector_into(k, &mut y);
///     let hy = h.matvec(&y);
///     assert!((hy[0] - lambda * y[0]).abs() < 1e-12);
///     assert!((hy[1] - lambda * y[1]).abs() < 1e-12);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct HessenbergSchur {
    n: usize,
    /// The triangular factor `T`, row-major `n x n`.
    t: Vec<C64>,
    /// The Schur vectors, stored transposed: row `j` is column `j` of `Z`,
    /// so a rotation of two columns of `Z` updates two contiguous rows.
    zt: Vec<C64>,
    /// `|e_n^T Z x_k| / ||x_k||` per eigenvalue.
    last_abs: Vec<f64>,
    /// `T_kk`.
    values: Vec<C64>,
    /// Two length-`n` vectors: a triangular eigenvector `x_k`, or a
    /// Householder reflector and its row-combination.
    work: Vec<C64>,
}

impl HessenbergSchur {
    /// An empty solver; storage grows on first use and is then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Order of the last decomposed matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// The eigenvalues `T_kk`.
    pub fn values(&self) -> &[C64] {
        &self.values
    }

    /// Decomposes the leading `m x m` block of the upper Hessenberg `h`.
    /// Entries below the first subdiagonal are ignored.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::ShapeMismatch`] when `h` is smaller than `m x m`;
    /// * [`LinalgError::InvalidArgument`] for non-finite entries;
    /// * [`LinalgError::NoConvergence`] if the QR iteration exhausts its
    ///   budget (`60 m + 100` sweeps).
    pub fn compute_hessenberg(&mut self, h: &Matrix<C64>, m: usize) -> Result<(), LinalgError> {
        if h.rows() < m || h.cols() < m {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("at least {m}x{m}"),
                found: format!("{}x{}", h.rows(), h.cols()),
            });
        }
        self.reset(m);
        for i in 0..m {
            let lo = i.saturating_sub(1);
            self.t[i * m + lo..(i + 1) * m].copy_from_slice(&h.row(i)[lo..m]);
        }
        if !self.t.iter().all(|z| z.is_finite()) {
            return Err(LinalgError::invalid("matrix contains non-finite entries"));
        }
        self.finish()
    }

    /// Decomposes a general square matrix: Householder reduction to
    /// Hessenberg form with the reflectors accumulated into `Z`, then the
    /// Hessenberg path.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] for non-square input;
    /// * [`LinalgError::InvalidArgument`] for non-finite entries;
    /// * [`LinalgError::NoConvergence`] as in [`Self::compute_hessenberg`].
    pub fn compute_dense(&mut self, a: &Matrix<C64>) -> Result<(), LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        if !a.is_finite() {
            return Err(LinalgError::invalid("matrix contains non-finite entries"));
        }
        self.reset(a.rows());
        self.t.copy_from_slice(a.as_slice());
        self.reduce_to_hessenberg();
        self.finish()
    }

    /// Unit-norm eigenvector `y_k = Z x_k / ||x_k||` of eigenvalue `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.dim()` or `out.len() != self.dim()`.
    pub fn vector_into(&mut self, k: usize, out: &mut [C64]) {
        let n = self.n;
        assert!(k < n, "eigenvector index {k} out of range for order {n}");
        assert_eq!(out.len(), n, "eigenvector output length mismatch");
        let mut x = std::mem::take(&mut self.work);
        let inv = 1.0 / self.triangular_vector(k, &mut x[..n]);
        out.fill(C64::zero());
        for (&xj, zj) in x[..=k].iter().zip(self.zt.chunks_exact(n)) {
            let w = xj.scale(inv);
            for (o, &z) in out.iter_mut().zip(zj) {
                *o += w * z;
            }
        }
        self.work = x;
    }

    /// `|e_n^T y_k|`: the magnitude of the last entry of the unit-norm
    /// eigenvector `k`, computed during the solve without forming the
    /// vector (one dot product of `x_k` with the last row of `Z`).
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.dim()`.
    pub fn last_entry_abs(&self, k: usize) -> f64 {
        self.last_abs[k]
    }

    /// A copy of the triangular factor `T` (for inspection and tests).
    pub fn schur_factor(&self) -> Matrix<C64> {
        let n = self.n;
        Matrix::from_fn(n, n, |i, j| self.t[i * n + j])
    }

    /// A copy of the unitary Schur vectors `Z` (for inspection and tests).
    pub fn schur_vectors(&self) -> Matrix<C64> {
        let n = self.n;
        Matrix::from_fn(n, n, |i, j| self.zt[j * n + i])
    }

    /// Sizes every buffer for order `n` (reusing capacity), zeroes `T`,
    /// and sets `Z = I`.
    fn reset(&mut self, n: usize) {
        self.n = n;
        for buf in [&mut self.t, &mut self.zt] {
            buf.clear();
            buf.resize(n * n, C64::zero());
        }
        for i in 0..n {
            self.zt[i * n + i] = C64::one();
        }
        self.work.clear();
        self.work.resize(2 * n, C64::zero());
        self.last_abs.clear();
        self.values.clear();
    }

    /// Householder reduction of `T` to upper Hessenberg form, `Z <- Z P_k`
    /// for every reflector `P_k = I - tau v v^H`.
    fn reduce_to_hessenberg(&mut self) {
        let n = self.n;
        let (t, zt) = (&mut self.t, &mut self.zt);
        let (v, w) = self.work.split_at_mut(n);
        for k in 0..n.saturating_sub(2) {
            let norm_x = ((k + 1)..n)
                .map(|i| t[i * n + k].abs_sq())
                .sum::<f64>()
                .sqrt();
            if norm_x == 0.0 {
                continue;
            }
            let x0 = t[(k + 1) * n + k];
            let x0_abs = x0.abs();
            let phase = if x0_abs == 0.0 {
                C64::one()
            } else {
                x0.scale(1.0 / x0_abs)
            };
            let alpha = -phase.scale(norm_x);
            let tau = 1.0 / (norm_x * (norm_x + x0_abs));
            v[k + 1] = x0 - alpha;
            for i in (k + 2)..n {
                v[i] = t[i * n + k];
            }
            // T <- P T over columns k+1..n (column k is set below).
            for j in (k + 1)..n {
                let mut s = C64::zero();
                for i in (k + 1)..n {
                    s += v[i].conj() * t[i * n + j];
                }
                let s = s.scale(tau);
                for i in (k + 1)..n {
                    t[i * n + j] -= s * v[i];
                }
            }
            // T <- T P over all rows.
            for row in t.chunks_exact_mut(n) {
                let mut s = C64::zero();
                for j in (k + 1)..n {
                    s += row[j] * v[j];
                }
                let s = s.scale(tau);
                for j in (k + 1)..n {
                    row[j] -= s * v[j].conj();
                }
            }
            t[(k + 1) * n + k] = alpha;
            for i in (k + 2)..n {
                t[i * n + k] = C64::zero();
            }
            // Z <- Z P: with Z stored transposed, the row-combination
            // w = sum_j v_j zt_j is contiguous.
            w.fill(C64::zero());
            for (j, zj) in zt.chunks_exact(n).enumerate().skip(k + 1) {
                for (wi, &z) in w.iter_mut().zip(zj) {
                    *wi += v[j] * z;
                }
            }
            for (j, zj) in zt.chunks_exact_mut(n).enumerate().skip(k + 1) {
                let c = v[j].conj().scale(tau);
                for (z, &wi) in zj.iter_mut().zip(w.iter()) {
                    *z -= c * wi;
                }
            }
        }
    }

    /// Schur iteration, eigenvalues, and the residual weights.
    fn finish(&mut self) -> Result<(), LinalgError> {
        self.qr_iterate()?;
        let n = self.n;
        self.values.extend((0..n).map(|k| self.t[k * n + k]));
        let mut x = std::mem::take(&mut self.work);
        for k in 0..n {
            let norm = self.triangular_vector(k, &mut x[..n]);
            let mut acc = C64::zero();
            for (&xj, zj) in x[..=k].iter().zip(self.zt.chunks_exact(n)) {
                acc += zj[n - 1] * xj;
            }
            self.last_abs.push(acc.abs() / norm);
        }
        self.work = x;
        Ok(())
    }

    /// Implicit single-shift QR on the Hessenberg `T`, applying every
    /// rotation to the full matrix (so `T` ends upper triangular) and to
    /// `Z`.
    fn qr_iterate(&mut self) -> Result<(), LinalgError> {
        let n = self.n;
        let (t, zt) = (&mut self.t, &mut self.zt);
        let norm_scale = t
            .iter()
            .map(|z| cabs1(*z))
            .sum::<f64>()
            .max(f64::MIN_POSITIVE);
        let budget = 60 * n + 100;
        let mut sweeps = 0usize;
        let mut its = 0usize;
        let mut hi = n;
        while hi > 1 {
            // Deflation scan: the trailing unreduced block is lo..hi.
            let mut lo = hi - 1;
            while lo > 0 {
                let sub = cabs1(t[lo * n + lo - 1]);
                let local = cabs1(t[(lo - 1) * n + lo - 1]) + cabs1(t[lo * n + lo]);
                let local = if local > 0.0 { local } else { norm_scale };
                if sub <= f64::EPSILON * local {
                    t[lo * n + lo - 1] = C64::zero();
                    break;
                }
                lo -= 1;
            }
            if lo == hi - 1 {
                hi -= 1;
                its = 0;
                continue;
            }
            if sweeps >= budget {
                return Err(LinalgError::NoConvergence { iterations: sweeps });
            }
            let sigma = if its > 0 && its % 10 == 0 {
                // Exceptional shift against rare convergence stalls.
                let mut kick = cabs1(t[(hi - 1) * n + hi - 2]);
                if hi - 2 > lo {
                    kick += cabs1(t[(hi - 2) * n + hi - 3]);
                }
                t[(hi - 1) * n + hi - 1] + C64::from_real(0.75 * kick)
            } else {
                let at = |i: usize, j: usize| t[i * n + j];
                wilkinson(
                    at(hi - 2, hi - 2),
                    at(hi - 2, hi - 1),
                    at(hi - 1, hi - 2),
                    at(hi - 1, hi - 1),
                )
            };
            // Chase the bulge from (lo+2, lo) down and out of the block.
            for k in lo..hi - 1 {
                let (rot, first_col) = if k == lo {
                    let f = t[lo * n + lo] - sigma;
                    let g = t[(lo + 1) * n + lo];
                    (Rotation::zeroing(f, g).0, lo)
                } else {
                    let (rot, r) = Rotation::zeroing(t[k * n + k - 1], t[(k + 1) * n + k - 1]);
                    t[k * n + k - 1] = r;
                    t[(k + 1) * n + k - 1] = C64::zero();
                    (rot, k)
                };
                let (rk, rk1) = row_pair(t, n, k);
                rot.rows(&mut rk[first_col..], &mut rk1[first_col..]);
                for row in t.chunks_exact_mut(n).take((k + 3).min(hi)) {
                    let (a, b) = row[k..k + 2].split_at_mut(1);
                    rot.cols(&mut a[0], &mut b[0]);
                }
                // Z <- Z G^H mixes columns k, k+1 of Z: rows k, k+1 of zt.
                let (zk, zk1) = row_pair(zt, n, k);
                rot.adjoint().rows(zk, zk1);
            }
            its += 1;
            sweeps += 1;
        }
        Ok(())
    }

    /// Eigenvector `x_k` of the upper triangular `T` into `x` (zero past
    /// entry `k`) by back-substitution,
    /// `(T_ii - T_kk) x_i = -sum_{i<j<=k} T_ij x_j` with `x_k = 1`;
    /// returns `||x_k||`.
    fn triangular_vector(&self, k: usize, x: &mut [C64]) -> f64 {
        /// Rescaling threshold guarding the recurrence against overflow.
        const BIG: f64 = 1e100;
        let n = self.n;
        let small = f64::MIN_POSITIVE * (n as f64 / f64::EPSILON);
        let lambda = self.t[k * n + k];
        let floor = (f64::EPSILON * cabs1(lambda)).max(small);
        x.fill(C64::zero());
        x[k] = C64::one();
        for i in (0..k).rev() {
            let row = &self.t[i * n..(i + 1) * n];
            let mut s = C64::zero();
            for (&tij, &xj) in row[i + 1..=k].iter().zip(&x[i + 1..=k]) {
                s += tij * xj;
            }
            let mut d = row[i] - lambda;
            if cabs1(d) < floor {
                d = C64::from_real(floor);
            }
            x[i] = -(s / d);
            let mag = cabs1(x[i]);
            if mag > BIG {
                let inv = 1.0 / mag;
                for v in &mut x[i..=k] {
                    *v = v.scale(inv);
                }
            }
        }
        x[..=k].iter().map(|v| v.abs_sq()).sum::<f64>().sqrt()
    }
}

/// Wilkinson shift: the eigenvalue of `[[a, b], [c, d]]` nearer to `d`.
fn wilkinson(a: C64, b: C64, c: C64, d: C64) -> C64 {
    let half_diff = (a - d).scale(0.5);
    let disc = (half_diff * half_diff + b * c).sqrt();
    // Both roots are d + half_diff ± disc; pick the sign that makes the
    // correction small (no cancellation in the larger one).
    let dr = half_diff + disc;
    let dl = half_diff - disc;
    if dr.abs_sq() <= dl.abs_sq() {
        d + dr
    } else {
        d + dl
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn residual_ok(h: &Matrix<C64>, s: &mut HessenbergSchur, tol: f64) {
        let n = s.dim();
        let mut y = vec![C64::zero(); n];
        for k in 0..n {
            let lambda = s.values()[k];
            s.vector_into(k, &mut y);
            let hy = h.matvec(&y);
            let r: f64 = hy
                .iter()
                .zip(&y)
                .map(|(a, b)| (*a - lambda * *b).abs_sq())
                .sum::<f64>()
                .sqrt();
            assert!(r < tol, "pair {k}: residual {r}");
            assert!((s.last_entry_abs(k) - y[n - 1].abs()).abs() < 1e-14);
        }
    }

    #[test]
    fn hessenberg_input_gives_eigenpairs() {
        let n = 9;
        let h = Matrix::from_fn(n, n, |i, j| {
            if i > j + 1 {
                C64::zero()
            } else {
                C64::new(
                    ((i * 7 + j * 3) % 11) as f64 - 5.0,
                    ((i + 2 * j) % 5) as f64,
                )
            }
        });
        let mut s = HessenbergSchur::new();
        s.compute_hessenberg(&h, n).unwrap();
        residual_ok(&h, &mut s, 1e-10 * h.frobenius_norm());
    }

    #[test]
    fn dense_input_gives_eigenpairs() {
        let n = 7;
        let a = Matrix::from_fn(n, n, |i, j| {
            C64::new(
                ((i * 5 + j * 2) % 7) as f64 - 3.0,
                ((3 * i + j) % 4) as f64 - 1.5,
            )
        });
        let mut s = HessenbergSchur::new();
        s.compute_dense(&a).unwrap();
        residual_ok(&a, &mut s, 1e-10 * a.frobenius_norm());
    }

    #[test]
    fn leading_block_of_a_taller_matrix() {
        // The Arnoldi layout: (m+1) x m storage, only m x m is decomposed.
        let mut h = Matrix::<C64>::zeros(5, 4);
        for i in 0..4 {
            h[(i, i)] = C64::from_real(i as f64 + 1.0);
            h[(i + 1, i)] = C64::from_real(0.5);
        }
        let mut s = HessenbergSchur::new();
        s.compute_hessenberg(&h, 3).unwrap();
        assert_eq!(s.dim(), 3);
        let sub = Matrix::from_fn(3, 3, |i, j| h[(i, j)]);
        residual_ok(&sub, &mut s, 1e-12);
    }

    #[test]
    fn rejects_bad_input() {
        let mut s = HessenbergSchur::new();
        let mut h = Matrix::<C64>::zeros(3, 3);
        h[(1, 0)] = C64::new(f64::NAN, 0.0);
        assert!(matches!(
            s.compute_hessenberg(&h, 3),
            Err(LinalgError::InvalidArgument { .. })
        ));
        assert!(s.compute_hessenberg(&h, 4).is_err());
        assert!(matches!(
            s.compute_dense(&Matrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
        s.compute_hessenberg(&Matrix::zeros(0, 0), 0).unwrap();
        assert_eq!(s.dim(), 0);
    }
}
