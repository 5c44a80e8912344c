//! Lanczos ground-state solver for implicit Hermitian operators.
//!
//! The paper's reference energies ("Ground State" in Fig 9) are the lowest
//! eigenvalues of molecular qubit Hamiltonians restricted to the N-electron
//! determinant sector — thousands of states for CH₄, up to 2¹⁶ for a
//! whole-Fock-space solve. Those are too large for dense diagonalization,
//! but the operator is available as a fast matrix-vector product (a sum of
//! Pauli-string actions), which is exactly the Lanczos access pattern.
//!
//! Full reorthogonalization is used: subspace dimensions stay small (≤ a few
//! hundred), so the O(k²·n) cost is negligible next to the matvec and it
//! removes the classic ghost-eigenvalue failure mode.

use crate::complex::Complex64;
use crate::eigen::{tridiagonal_eigen, tridiagonal_eigenvalues};

/// Options controlling [`lanczos_ground_state`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LanczosOptions {
    /// Maximum Krylov subspace dimension.
    pub max_iter: usize,
    /// Convergence threshold on the change of the smallest Ritz value
    /// between iterations.
    pub tol: f64,
}

impl Default for LanczosOptions {
    fn default() -> Self {
        LanczosOptions {
            max_iter: 300,
            tol: 1e-10,
        }
    }
}

/// Result of a Lanczos ground-state computation.
#[derive(Debug, Clone, PartialEq)]
pub struct LanczosResult {
    /// The converged smallest eigenvalue estimate.
    pub eigenvalue: f64,
    /// Number of Lanczos iterations performed.
    pub iterations: usize,
    /// Whether the tolerance was met before `max_iter`.
    pub converged: bool,
}

fn dot(a: &[Complex64], b: &[Complex64]) -> Complex64 {
    a.iter().zip(b).map(|(x, y)| x.conj() * *y).sum()
}

fn norm(a: &[Complex64]) -> f64 {
    a.iter().map(|x| x.norm_sqr()).sum::<f64>().sqrt()
}

/// Computes the smallest eigenvalue of a Hermitian operator given only its
/// action `apply(input, output)` on complex vectors of dimension `dim`.
///
/// `seed` deterministically selects the (pseudo-random) start vector so runs
/// are reproducible.
///
/// # Panics
///
/// Panics if `dim == 0`.
///
/// # Examples
///
/// ```
/// use numeric::{lanczos_ground_state, Complex64, LanczosOptions};
///
/// // Diagonal operator with spectrum {-2, 1, 3, 7}.
/// let diag = [-2.0, 1.0, 3.0, 7.0];
/// let r = lanczos_ground_state(
///     4,
///     |x, y| {
///         for i in 0..4 {
///             y[i] = x[i] * diag[i];
///         }
///     },
///     LanczosOptions::default(),
///     1,
/// );
/// assert!((r.eigenvalue + 2.0).abs() < 1e-9);
/// ```
pub fn lanczos_ground_state(
    dim: usize,
    apply: impl FnMut(&[Complex64], &mut [Complex64]),
    options: LanczosOptions,
    seed: u64,
) -> LanczosResult {
    lanczos_ground_state_with_vector(dim, apply, options, seed).0
}

/// [`lanczos_ground_state`] variant that also reconstructs the converged
/// Ritz vector (normalized ground-state approximation).
///
/// # Panics
///
/// Panics if `dim == 0`.
pub fn lanczos_ground_state_with_vector(
    dim: usize,
    mut apply: impl FnMut(&[Complex64], &mut [Complex64]),
    options: LanczosOptions,
    seed: u64,
) -> (LanczosResult, Vec<Complex64>) {
    assert!(dim > 0, "operator dimension must be positive");

    // Deterministic, cheap start vector (xorshift on the seed).
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state as f64 / u64::MAX as f64) - 0.5
    };
    let mut v: Vec<Complex64> = (0..dim).map(|_| Complex64::new(next(), next())).collect();
    let n0 = norm(&v);
    for x in &mut v {
        *x = *x / n0;
    }

    let max_iter = options.max_iter.min(dim);
    let mut basis: Vec<Vec<Complex64>> = Vec::with_capacity(max_iter);
    let mut alphas: Vec<f64> = Vec::with_capacity(max_iter);
    let mut betas: Vec<f64> = Vec::with_capacity(max_iter);
    let mut w = vec![Complex64::ZERO; dim];
    let mut prev_ritz = f64::INFINITY;

    for it in 0..max_iter {
        basis.push(v.clone());
        apply(&v, &mut w);

        let alpha = dot(&v, &w).re;
        alphas.push(alpha);

        // w -= alpha * v (+ beta * v_prev implicitly handled by reorthogonalization)
        for (wi, vi) in w.iter_mut().zip(&v) {
            *wi -= *vi * alpha;
        }
        // Full reorthogonalization against all previous basis vectors, twice
        // for numerical safety.
        for _ in 0..2 {
            for b in &basis {
                let c = dot(b, &w);
                if c.norm() > 0.0 {
                    for (wi, bi) in w.iter_mut().zip(b) {
                        *wi -= *bi * c;
                    }
                }
            }
        }

        let beta = norm(&w);
        let Some(&ritz) = tridiagonal_eigenvalues(&alphas, &betas).first() else {
            unreachable!("Ritz spectrum has at least one eigenvalue");
        };

        if (prev_ritz - ritz).abs() < options.tol || beta < 1e-13 {
            let vector = ritz_vector(&basis, &alphas, &betas, dim);
            return (
                LanczosResult {
                    eigenvalue: ritz,
                    iterations: it + 1,
                    converged: true,
                },
                vector,
            );
        }
        prev_ritz = ritz;
        betas.push(beta);
        for (vi, wi) in v.iter_mut().zip(&w) {
            *vi = *wi / beta;
        }
    }

    // betas has one more entry than the final subspace uses; trim it.
    let k = basis.len();
    let vector = ritz_vector(&basis, &alphas[..k], &betas[..k.saturating_sub(1)], dim);
    (
        LanczosResult {
            eigenvalue: prev_ritz,
            iterations: max_iter,
            converged: false,
        },
        vector,
    )
}

/// Reconstructs the lowest Ritz vector `Σ_k y_k·b_k` from the Krylov basis
/// and the tridiagonal eigenproblem.
fn ritz_vector(
    basis: &[Vec<Complex64>],
    alphas: &[f64],
    betas: &[f64],
    dim: usize,
) -> Vec<Complex64> {
    let eig = tridiagonal_eigen(alphas, betas);
    let mut out = vec![Complex64::ZERO; dim];
    for (k, b) in basis.iter().enumerate() {
        let y = eig.vectors[(k, 0)];
        for (o, x) in out.iter_mut().zip(b) {
            *o += *x * y;
        }
    }
    let n = norm(&out).max(1e-300);
    for o in &mut out {
        *o = *o / n;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eigen::jacobi_eigen;
    use crate::matrix::RealMatrix;

    #[test]
    fn diagonal_operator_ground_state() {
        let diag: Vec<f64> = (0..64).map(|i| (i as f64) * 0.5 - 10.0).collect();
        let r = lanczos_ground_state(
            64,
            |x, y| {
                for i in 0..64 {
                    y[i] = x[i] * diag[i];
                }
            },
            LanczosOptions::default(),
            7,
        );
        assert!(r.converged);
        assert!((r.eigenvalue + 10.0).abs() < 1e-8, "got {}", r.eigenvalue);
    }

    #[test]
    fn matches_dense_jacobi_on_symmetric_matrix() {
        let n = 24;
        let a = {
            let raw = RealMatrix::from_fn(n, n, |i, j| ((i * 7 + j * 3) as f64).sin());
            &raw + &raw.transpose()
        };
        let dense_min = jacobi_eigen(&a).values[0];
        let r = lanczos_ground_state(
            n,
            |x, y| {
                for i in 0..n {
                    let mut acc = Complex64::ZERO;
                    for j in 0..n {
                        acc += x[j] * a[(i, j)];
                    }
                    y[i] = acc;
                }
            },
            LanczosOptions::default(),
            3,
        );
        assert!((r.eigenvalue - dense_min).abs() < 1e-8);
    }

    #[test]
    fn exact_subspace_termination() {
        // Rank-deficient operator: Lanczos must stop early without panicking.
        let r = lanczos_ground_state(
            16,
            |x, y| {
                for (i, out) in y.iter_mut().enumerate().take(16) {
                    *out = if i == 0 { x[0] * 5.0 } else { Complex64::ZERO };
                }
            },
            LanczosOptions::default(),
            11,
        );
        assert!(r.converged);
        // Spectrum is {5, 0, ..., 0}; ground state is 0.
        assert!(r.eigenvalue.abs() < 1e-9);
    }

    #[test]
    fn ritz_vector_is_an_eigenvector() {
        let diag: Vec<f64> = (0..32).map(|i| (i as f64) - 7.5).collect();
        let (r, v) = lanczos_ground_state_with_vector(
            32,
            |x, y| {
                for i in 0..32 {
                    y[i] = x[i] * diag[i];
                }
            },
            LanczosOptions {
                tol: 1e-14,
                ..Default::default()
            },
            5,
        );
        assert!(r.converged);
        // Residual ‖Hv − λv‖ must be small (the vector converges as the
        // square root of the eigenvalue error).
        let mut hv = vec![Complex64::ZERO; 32];
        for i in 0..32 {
            hv[i] = v[i] * diag[i];
        }
        let res: f64 = hv
            .iter()
            .zip(&v)
            .map(|(a, b)| (*a - *b * r.eigenvalue).norm_sqr())
            .sum::<f64>()
            .sqrt();
        assert!(res < 1e-5, "residual {res}");
        let n: f64 = v.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
        assert!((n - 1.0).abs() < 1e-10);
    }

    #[test]
    fn deterministic_across_same_seed() {
        let f = |seed| {
            lanczos_ground_state(
                32,
                |x, y| {
                    for i in 0..32 {
                        y[i] = x[i] * ((i % 5) as f64);
                    }
                },
                LanczosOptions::default(),
                seed,
            )
            .eigenvalue
        };
        assert_eq!(f(42), f(42));
    }
}
