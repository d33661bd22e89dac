//! Dense real and complex linear algebra substrate for the `pheig` workspace.
//!
//! The DATE 2011 paper reproduced by this workspace relies on a handful of
//! classical dense kernels that are not available in the approved offline
//! crate set, so this crate implements them from scratch:
//!
//! * [`C64`] — double-precision complex arithmetic with robust division;
//! * [`Matrix`] — a dense row-major matrix generic over [`Scalar`] (`f64` or
//!   [`C64`]);
//! * [`Lu`] — LU factorization with partial pivoting (solve, determinant);
//! * [`Qr`] — Householder QR (orthonormal basis, least squares);
//! * [`hessenberg`] — unitary reduction to upper Hessenberg form;
//! * [`eig`] — eigenvalues of general matrices via the shifted QR algorithm
//!   (the dense baseline and validation oracle);
//! * [`schur`] — complex Schur form of small Hessenberg matrices with
//!   eigenvectors by back-substitution (the Arnoldi solver's projected
//!   eigenproblem: Ritz values, residuals and Ritz vectors);
//! * [`hermitian`] — a cyclic Jacobi eigensolver for Hermitian matrices;
//! * [`svd`] — singular values (via the Hermitian eigensolver), used to
//!   sample singular-value curves of scattering transfer matrices;
//! * [`kernels`] — split-complex (separate re/im plane) vector kernels and
//!   blocked multi-vector kernels, the SIMD-friendly substrate of the
//!   shift-invert/Arnoldi hot path.
//!
//! # Example
//!
//! ```
//! use pheig_linalg::{Matrix, C64, eig::eig_real};
//!
//! # fn main() -> Result<(), pheig_linalg::LinalgError> {
//! // Eigenvalues of a 2x2 rotation-like matrix are a complex pair.
//! let a = Matrix::from_rows(&[&[0.0, 1.0][..], &[-1.0, 0.0][..]]);
//! let mut eigs = eig_real(&a)?;
//! eigs.sort_by(|x, y| x.im.partial_cmp(&y.im).unwrap());
//! assert!((eigs[0] - C64::new(0.0, -1.0)).abs() < 1e-12);
//! assert!((eigs[1] - C64::new(0.0, 1.0)).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

// Dense kernels index by design: the loops mirror the textbook algorithms
// (i/j/k over rows, columns, reflectors), and most bodies mix a vector index
// with packed 2-D storage, where iterator rewrites obscure the math.
// Unsafe code in this crate must discharge obligations explicitly:
// every unsafe operation inside an `unsafe fn` needs its own block (and
// `// SAFETY:` comment — enforced by `pheig-verify`'s audit binary).
#![deny(unsafe_op_in_unsafe_fn)]
#![allow(clippy::needless_range_loop)]

pub mod complex;
pub mod eig;
pub mod error;
pub mod hermitian;
pub mod hessenberg;
pub mod kernels;
pub mod lu;
pub mod matrix;
pub mod qr;
pub mod scalar;
pub mod schur;
pub mod svd;
pub mod vector;

pub use complex::C64;
pub use error::LinalgError;
pub use lu::Lu;
pub use matrix::Matrix;
pub use qr::Qr;
pub use scalar::Scalar;
