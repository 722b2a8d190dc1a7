//! Numerical kernels for the `darksil` workspace.
//!
//! The thermal substrate (`darksil-thermal`) needs to solve moderately
//! large sparse symmetric-positive-definite systems (steady state) and to
//! integrate stiff linear ODEs (transient turbo-boost simulations), and
//! the power crate fits Eq. (1) of the paper to sampled data. Rather than
//! pull in a linear-algebra dependency, this crate provides exactly the
//! kernels needed, organised around **one factored solve entry plus its
//! fallback chain**:
//!
//! # The factored solve
//!
//! The RC conductance topology is fixed per floorplan — across a sweep,
//! a leakage fixed point, or a placement-optimisation loop only the
//! power right-hand side changes. [`factor_spd`] pays for a
//! fill-reducing ordering, symbolic analysis and numeric factorisation
//! **once**, returning reusable [`SpdFactors`] whose
//! [`solve`](SpdFactors::solve) is a pure sparse substitution.
//! [`FactorCache`] keys factors by content digest (bounded,
//! thread-safe), and [`solve_spd_factored`] is the one SPD-solve entry
//! point: factored solve + residual check, falling back to the chain
//! below when the matrix has no factors or the solution drifts.
//!
//! # The fallback chain
//!
//! Jacobi-preconditioned conjugate gradient, escalating to restarted CG
//! and finally dense LU ([`DenseMatrix`], [`LuFactors`]), so callers
//! always get a finite answer or a typed error. A factored solution that
//! fails its residual check seeds the first CG attempt (counted as
//! `numerics.warm_start`), guarded so a seed never returns a worse
//! residual than a cold start. The backward-Euler stepper enters the
//! same chain when a factored step fails.
//!
//! Supporting kernels: [`CsrMatrix`] / [`TripletMatrix`] sparse
//! storage, [`ode`] backward-Euler / RK4 steppers for
//! `C·dx/dt = b − G·x`, a standalone [`conjugate_gradient`], and
//! [`fit_least_squares`] linear least squares.
//!
//! # Examples
//!
//! Factor once, solve many — the fig8 hot-path shape:
//!
//! ```
//! use darksil_numerics::{factor_spd, TripletMatrix};
//!
//! // A 1-D RC chain: fixed topology, varying power inputs.
//! let n = 16;
//! let mut t = TripletMatrix::new(n, n);
//! for i in 0..n - 1 {
//!     t.stamp_conductance(i, i + 1, 2.0);
//! }
//! for i in 0..n {
//!     t.stamp_to_reference(i, 0.5);
//! }
//! let g = t.to_csr();
//!
//! // Ordering + symbolic analysis + numeric factorisation: once.
//! let factors = factor_spd(&g)?;
//!
//! // Every subsequent right-hand side is a cheap substitution.
//! for k in 0..4 {
//!     let b: Vec<f64> = (0..n).map(|i| ((i + k) % 3) as f64).collect();
//!     let x = factors.solve(&b)?;
//!     let r = g.mul_vec(&x);
//!     assert!(r.iter().zip(&b).all(|(ri, bi)| (ri - bi).abs() < 1e-9));
//! }
//! # Ok::<(), darksil_numerics::NumericsError>(())
//! ```
//!
//! The checked entry point, here without factors, so the chain solves:
//!
//! ```
//! use darksil_numerics::{solve_spd_factored, SolveStage, TripletMatrix};
//!
//! // A tiny SPD system: [[4,1],[1,3]] x = [1,2]
//! let mut t = TripletMatrix::new(2, 2);
//! t.add(0, 0, 4.0);
//! t.add(0, 1, 1.0);
//! t.add(1, 0, 1.0);
//! t.add(1, 1, 3.0);
//! let a = t.to_csr();
//! let (x, diagnostics) = solve_spd_factored(None, &a, &[1.0, 2.0])?;
//! assert_eq!(diagnostics.stage, SolveStage::Cg);
//! assert!((a.mul_vec(&x)[0] - 1.0).abs() < 1e-8);
//! # Ok::<(), darksil_numerics::NumericsError>(())
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod cg;
mod dense;
mod error;
pub mod factor;
mod lstsq;
pub mod ode;
mod robust;
mod sparse;

pub use cg::{conjugate_gradient, CgOptions};
pub use dense::{DenseMatrix, LuFactors};
pub use error::NumericsError;
pub use factor::{
    factor_cache_stats, factor_spd, solve_spd_factored, FactorCache, FactorCacheStats, SpdFactors,
};
pub use lstsq::{fit_least_squares, polynomial_fit};
pub use robust::{SolveDiagnostics, SolveStage};
pub use sparse::{CsrMatrix, TripletMatrix};

/// Euclidean norm of a vector.
#[must_use]
pub fn norm2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Dot product of two equal-length vectors.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[must_use]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `y ← y + alpha·x` (BLAS `axpy`).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norm_and_dot() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, 2.0], &mut y);
        assert_eq!(y, vec![3.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_rejects_mismatched_lengths() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }
}
