//! The staged fallback chain behind every SPD solve.
//!
//! [`crate::solve_spd_factored`] enters it when the matrix has no
//! factors or a factored solution drifts; the backward-Euler stepper
//! calls that entry without factors when a factored step is not finite
//! or its matrix cannot be factored.
//!
//! Stage 1 runs Jacobi-preconditioned CG with the default options.
//! Stage 2 restarts CG from the stalled iterate with a relaxed tolerance
//! and a doubled iteration budget. Stage 3 abandons iteration entirely
//! and factorises the (small, by then known-finite) system densely.
//! Callers therefore only see [`NumericsError::ConvergenceFailure`] when
//! even LU cannot produce a finite solution, and the returned
//! [`SolveDiagnostics`] record which stage produced the answer.

use crate::cg::{check_finite_rhs, conjugate_gradient_best_effort};
use crate::{norm2, CgOptions, CsrMatrix, NumericsError};

/// How much stage 2 relaxes the requested tolerance.
const RELAXATION: f64 = 1.0e4;
/// Loosest relative tolerance stage 2 is allowed to accept.
const RELAXED_FLOOR: f64 = 1.0e-6;

/// Which stage of the fallback chain produced the solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveStage {
    /// Direct solve through cached sparse LDLᵀ factors — no iteration.
    Factored,
    /// First-attempt preconditioned CG.
    Cg,
    /// CG restarted from the stalled iterate with relaxed tolerance.
    RestartedCg,
    /// Dense LU factorisation.
    DenseLu,
}

/// Diagnostics attached to every SPD solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveDiagnostics {
    /// Stage that produced the returned solution.
    pub stage: SolveStage,
    /// CG iterations spent across all attempts.
    pub cg_iterations: usize,
    /// Absolute residual norm `‖b − A·x‖` of the returned solution.
    pub residual: f64,
    /// Number of fallback transitions taken (0 = first attempt worked).
    pub fallbacks: usize,
}

/// Records the per-solve counters and observations for a finished
/// solve, whichever stage produced it, so every solve feeds the same
/// `trace summarize` derived solver line.
pub(crate) fn record_diagnostics(diag: &SolveDiagnostics) {
    darksil_obs::counter(
        match diag.stage {
            SolveStage::Factored => "numerics.stage.factored",
            SolveStage::Cg => "numerics.stage.cg",
            SolveStage::RestartedCg => "numerics.stage.restarted_cg",
            SolveStage::DenseLu => "numerics.stage.dense_lu",
        },
        1,
    );
    darksil_obs::counter("numerics.fallback", diag.fallbacks as u64);
    // CG observations describe the iterative chain; a factored solve
    // never ran it, and skipping the zero samples keeps the fast path
    // lean and the series meaningful.
    if diag.stage != SolveStage::Factored {
        #[allow(clippy::cast_precision_loss)]
        darksil_obs::observe("numerics.cg.iterations", diag.cg_iterations as f64);
        darksil_obs::observe("numerics.cg.residual", diag.residual);
    }
}

/// Solves `A·x = b` through the CG → restarted CG → dense LU chain,
/// optionally seeded — the factored path hands it a drifted factored
/// iterate to recover from.
///
/// # Errors
///
/// - [`NumericsError::NonFinite`] if the matrix or right-hand side
///   contains NaN or infinite entries (checked up front, naming the
///   offending position).
/// - [`NumericsError::DimensionMismatch`] for incompatible shapes.
/// - [`NumericsError::ConvergenceFailure`] or
///   [`NumericsError::SingularMatrix`] only when every stage, including
///   dense LU, failed.
pub(crate) fn solve_chain_from(
    a: &CsrMatrix,
    b: &[f64],
    seed: Option<&[f64]>,
    options: &CgOptions,
) -> Result<(Vec<f64>, SolveDiagnostics), NumericsError> {
    check_finite_inputs(a, b)?;

    // A warm start must never make things worse: only use the seed when
    // it is finite, shaped right, and its residual beats a cold (zero)
    // start's residual ‖b‖.
    let seed = seed.filter(|s| {
        s.len() == b.len() && s.iter().all(|v| v.is_finite()) && {
            let ax = a.mul_vec(s);
            let r2: f64 = b
                .iter()
                .zip(&ax)
                .map(|(bi, axi)| (bi - axi) * (bi - axi))
                .sum();
            r2.sqrt() < norm2(b)
        }
    });
    if seed.is_some() {
        darksil_obs::counter("numerics.warm_start", 1);
    }

    // Stage 1: the caller's CG configuration.
    let (x1, out1, converged) = conjugate_gradient_best_effort(a, b, seed, options)?;
    if converged && x1.iter().all(|v| v.is_finite()) {
        return Ok((
            x1,
            SolveDiagnostics {
                stage: SolveStage::Cg,
                cg_iterations: out1.iterations,
                residual: out1.residual,
                fallbacks: 0,
            },
        ));
    }

    // Stage 2: restart from the stalled iterate (when finite) with a
    // relaxed tolerance and twice the iteration budget.
    let relaxed = CgOptions {
        tolerance: (options.tolerance * RELAXATION).min(RELAXED_FLOOR),
        max_iterations: stage_two_budget(options, a.rows()),
    };
    let warm: Option<&[f64]> = if x1.iter().all(|v| v.is_finite()) {
        Some(&x1)
    } else {
        None
    };
    let (x2, out2, converged2) = conjugate_gradient_best_effort(a, b, warm, &relaxed)?;
    let total_cg = out1.iterations + out2.iterations;
    if converged2 && x2.iter().all(|v| v.is_finite()) {
        return Ok((
            x2,
            SolveDiagnostics {
                stage: SolveStage::RestartedCg,
                cg_iterations: total_cg,
                residual: out2.residual,
                fallbacks: 1,
            },
        ));
    }

    // Stage 3: dense LU. The system is known finite, so any remaining
    // failure is a genuinely singular matrix.
    let x3 = a.to_dense().solve(b)?;
    if let Some(bad) = x3.iter().position(|v| !v.is_finite()) {
        return Err(NumericsError::NonFinite {
            context: format!("dense LU produced a non-finite solution at row {bad}"),
        });
    }
    let ax = a.mul_vec(&x3);
    let residual = norm2(
        &b.iter()
            .zip(&ax)
            .map(|(bi, axi)| bi - axi)
            .collect::<Vec<f64>>(),
    );
    Ok((
        x3,
        SolveDiagnostics {
            stage: SolveStage::DenseLu,
            cg_iterations: total_cg,
            residual,
            fallbacks: 2,
        },
    ))
}

fn stage_two_budget(options: &CgOptions, n: usize) -> usize {
    let base = if options.max_iterations == 0 {
        10 * n.max(10)
    } else {
        options.max_iterations
    };
    (2 * base).max(20)
}

/// Rejects NaN/Inf in the matrix entries or right-hand side up front so
/// the iteration never silently propagates them.
fn check_finite_inputs(a: &CsrMatrix, b: &[f64]) -> Result<(), NumericsError> {
    if let Some((row, col, value)) = a.iter().find(|(_, _, v)| !v.is_finite()) {
        return Err(NumericsError::NonFinite {
            context: format!("matrix entry ({row}, {col}) is {value}"),
        });
    }
    check_finite_rhs(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TripletMatrix;
    use proptest::prelude::*;

    fn laplacian(n: usize) -> CsrMatrix {
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n - 1 {
            t.stamp_conductance(i, i + 1, 1.0);
        }
        t.stamp_to_reference(0, 1.0);
        t.to_csr()
    }

    /// The unseeded chain with default options.
    fn chain(a: &CsrMatrix, b: &[f64]) -> Result<(Vec<f64>, SolveDiagnostics), NumericsError> {
        solve_chain_from(a, b, None, &CgOptions::default())
    }

    #[test]
    fn healthy_system_stays_in_stage_one() {
        let a = laplacian(30);
        let b = vec![1.0; 30];
        let (x, diag) = chain(&a, &b).expect("solves");
        assert_eq!(diag.stage, SolveStage::Cg);
        assert_eq!(diag.fallbacks, 0);
        let r = a.mul_vec(&x);
        assert!((r[10] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn starved_cg_falls_back_but_still_solves() {
        // A 2-iteration cap cannot converge a 100-node chain; the chain
        // must escalate yet still return an accurate solution.
        let a = laplacian(100);
        let b = vec![1.0; 100];
        let opts = CgOptions {
            tolerance: 1.0e-12,
            max_iterations: 2,
        };
        let (x, diag) = solve_chain_from(&a, &b, None, &opts).expect("fallback chain solves");
        assert!(diag.fallbacks >= 1, "expected at least one fallback");
        let r = a.mul_vec(&x);
        for (i, ri) in r.iter().enumerate() {
            assert!((ri - 1.0).abs() < 1e-3, "row {i}: {ri}");
        }
    }

    #[test]
    fn dense_lu_rescues_breakdown() {
        // A negative-definite matrix makes CG break down immediately
        // (p·Ap < 0); LU still solves it. (The chain does not require
        // SPD to terminate.)
        let mut t = TripletMatrix::new(2, 2);
        t.add(0, 0, -1.0);
        t.add(1, 1, -1.0);
        let a = t.to_csr();
        let (x, diag) = chain(&a, &[3.0, 3.0]).expect("lu");
        assert_eq!(diag.stage, SolveStage::DenseLu);
        assert!((x[0] + 3.0).abs() < 1e-9 && (x[1] + 3.0).abs() < 1e-9);
    }

    #[test]
    fn nan_inputs_are_rejected_by_name() {
        let a = laplacian(4);
        let mut b = vec![1.0; 4];
        b[2] = f64::NAN;
        let err = chain(&a, &b).expect_err("rejects NaN");
        assert!(matches!(err, NumericsError::NonFinite { .. }));
        assert!(err.to_string().contains("entry 2"), "{err}");

        let mut t = TripletMatrix::new(2, 2);
        t.add(0, 0, f64::INFINITY);
        t.add(1, 1, 1.0);
        let err = chain(&t.to_csr(), &[1.0, 1.0]).expect_err("rejects Inf");
        assert!(err.to_string().contains("(0, 0)"), "{err}");
    }

    #[test]
    fn warm_start_from_exact_solution_converges_immediately() {
        let a = laplacian(40);
        let b = vec![1.0; 40];
        let (x, _) = chain(&a, &b).expect("cold solves");
        let (x2, diag) =
            solve_chain_from(&a, &b, Some(&x), &CgOptions::default()).expect("warm solves");
        assert_eq!(diag.stage, SolveStage::Cg);
        assert!(
            diag.cg_iterations <= 1,
            "exact seed should need at most one iteration, took {}",
            diag.cg_iterations
        );
        let r = a.mul_vec(&x2);
        assert!((r[20] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn bad_seed_is_discarded() {
        let a = laplacian(20);
        let b = vec![1.0; 20];
        // A wildly wrong seed (worse than a zero start) and a NaN seed
        // must both be ignored rather than poisoning the solve.
        for seed in [vec![1.0e9; 20], vec![f64::NAN; 20], vec![0.0; 5]] {
            let (x, _) = solve_chain_from(&a, &b, Some(&seed), &CgOptions::default())
                .expect("solves despite bad seed");
            let r = a.mul_vec(&x);
            assert!((r[10] - 1.0).abs() < 1e-6);
        }
    }

    /// A random grounded RC grid: `w × h` nodes, nearest-neighbour
    /// conductances and a conductance to ground at every node (SPD).
    fn random_rc_grid(w: usize, h: usize, edges: &[f64], grounds: &[f64]) -> CsrMatrix {
        let n = w * h;
        let mut t = TripletMatrix::new(n, n);
        let mut k = 0;
        for y in 0..h {
            for x in 0..w {
                let i = y * w + x;
                if x + 1 < w {
                    t.stamp_conductance(i, i + 1, edges[k % edges.len()]);
                    k += 1;
                }
                if y + 1 < h {
                    t.stamp_conductance(i, i + w, edges[k % edges.len()]);
                    k += 1;
                }
                t.stamp_to_reference(i, grounds[i % grounds.len()]);
            }
        }
        t.to_csr()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A seeded (drift-recovery) solve never returns a worse residual
        /// than the cold one (up to the convergence target both are
        /// allowed to stop at) — whatever seed is offered, including
        /// terrible ones — and never needs more than one extra iteration.
        #[test]
        fn seeded_chain_never_worse_than_cold(
            w in 2_usize..6,
            h in 2_usize..6,
            edges in prop::collection::vec(0.1_f64..10.0, 8),
            grounds in prop::collection::vec(0.05_f64..2.0, 8),
            loads in prop::collection::vec(-10.0_f64..10.0, 8),
            seed_scale in -2.0_f64..2.0,
            decades in 0_i32..10,
        ) {
            let a = random_rc_grid(w, h, &edges, &grounds);
            let n = w * h;
            let b: Vec<f64> = (0..n).map(|i| loads[i % loads.len()]).collect();
            let options = CgOptions::default();

            let (x_cold, cold) = solve_chain_from(&a, &b, None, &options).expect("cold solves");
            // Seed anywhere between "nearly exact" and garbage up to
            // 10⁹ times the solution's scale.
            let scale = seed_scale * 10_f64.powi(decades);
            let seed: Vec<f64> = x_cold.iter().map(|v| v * scale).collect();
            let (_, warm) =
                solve_chain_from(&a, &b, Some(&seed), &options).expect("seeded solves");

            let target = options.tolerance * (1.0 + norm2(&b));
            prop_assert!(
                warm.residual <= cold.residual.max(target) * (1.0 + 1e-9),
                "seeded residual {} exceeds cold {} (target {target})",
                warm.residual,
                cold.residual
            );
            prop_assert!(warm.cg_iterations <= cold.cg_iterations + 1);
        }

        /// Starving CG of iterations never loses the answer: the chain
        /// falls back (restarted CG, then dense LU) and the final
        /// solution is still accurate.
        #[test]
        fn starved_cg_still_solves_via_fallbacks(
            edges in prop::collection::vec(0.1_f64..10.0, 19),
            rhs in prop::collection::vec(-10.0_f64..10.0, 20),
            cap in 1_usize..4,
        ) {
            let n = 20;
            let mut t = TripletMatrix::new(n, n);
            for (i, &g) in edges.iter().enumerate() {
                t.stamp_conductance(i, i + 1, g);
            }
            for i in 0..n {
                t.stamp_to_reference(i, 1.0);
            }
            let a = t.to_csr();
            let options = CgOptions {
                max_iterations: cap,
                ..CgOptions::default()
            };
            let (x, diag) = solve_chain_from(&a, &rhs, None, &options)
                .expect("fallback chain must rescue a starved CG");
            let residual = a.residual_norm(&x, &rhs);
            let scale = 1.0 + norm2(&rhs);
            prop_assert!(residual < 1e-4 * scale, "residual {residual} via {:?}", diag.stage);
            prop_assert!(x.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn singular_matrix_still_errors() {
        let mut t = TripletMatrix::new(2, 2);
        t.add(0, 0, 1.0);
        t.add(0, 1, 1.0);
        t.add(1, 0, 1.0);
        t.add(1, 1, 1.0);
        let err = chain(&t.to_csr(), &[1.0, 2.0]).expect_err("singular");
        assert!(matches!(err, NumericsError::SingularMatrix { .. }));
    }
}
