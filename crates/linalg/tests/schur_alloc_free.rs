//! Pins the reuse contract of the projected Schur solver: once warm,
//! `HessenbergSchur` decomposes, reports residual weights, and forms
//! eigenvectors without touching the heap — it runs once per Arnoldi
//! restart, thousands of times per sweep.
//!
//! Same counting-global-allocator pattern as
//! `crates/hamiltonian/tests/alloc_free.rs`; one test per file because a
//! concurrently running test would pollute the counter.

#![deny(unsafe_op_in_unsafe_fn)]

use pheig_linalg::schur::HessenbergSchur;
use pheig_linalg::{Matrix, C64};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every operation defers to `System` with the caller's layout
// contract forwarded unchanged; the counter increments are side-effect-free.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: the caller upholds `GlobalAlloc::alloc`'s layout contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }
    // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was produced by this allocator (which defers to
        // `System`) with the same layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded contract, as in `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// An Arnoldi-shaped `(m+1) x m` Hessenberg matrix with graded entries.
fn projected(m: usize, seed: usize) -> Matrix<C64> {
    Matrix::from_fn(m + 1, m, |i, j| {
        if i > j + 1 {
            C64::zero()
        } else {
            let t = ((i * 31 + j * 17 + seed * 7) % 23) as f64 / 23.0 - 0.5;
            C64::new(t, 0.3 * t * t) * C64::from_real(0.9f64.powi((i + j) as i32))
        }
    })
}

/// One restart's worth of projected-solver work.
fn round(schur: &mut HessenbergSchur, h: &Matrix<C64>, m: usize, y: &mut [C64]) -> f64 {
    schur.compute_hessenberg(h, m).unwrap();
    let mut acc = 0.0;
    for k in 0..m {
        acc += schur.last_entry_abs(k);
    }
    for k in 0..m.min(8) {
        schur.vector_into(k, &mut y[..m]);
        acc += y[0].abs();
    }
    acc
}

#[test]
fn warm_schur_solves_do_not_allocate() {
    let inputs: Vec<(usize, Matrix<C64>)> = [60usize, 14, 37, 60, 5]
        .iter()
        .enumerate()
        .map(|(s, &m)| (m, projected(m, s)))
        .collect();
    let mut schur = HessenbergSchur::new();
    let mut y = vec![C64::zero(); 60];
    // Warm-up: every buffer grows to its high-water mark.
    for (m, h) in &inputs {
        round(&mut schur, h, *m, &mut y);
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut acc = 0.0;
    for _ in 0..20 {
        for (m, h) in &inputs {
            acc += round(&mut schur, h, *m, &mut y);
        }
    }
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(acc.is_finite());
    assert_eq!(allocs, 0, "warm Schur solves allocated {allocs} times");
}
