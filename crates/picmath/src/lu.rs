//! Partial-pivot LU decomposition for complex matrices.
//!
//! The simulator's dense reference solve (its independent oracle) solves
//! `(I − P·S_ii) x = P·S_ie`; this module provides the factorization,
//! solves, inverse and determinant it needs, plus the matrix tools
//! (decompositions, inverses) built on them.

use crate::{CMatrix, Complex};
use std::error::Error;
use std::fmt;

/// Error returned when a matrix is singular to working precision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SingularMatrixError {
    /// Pivot column at which no usable pivot was found.
    pub column: usize,
}

impl fmt::Display for SingularMatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "matrix is singular to working precision (zero pivot in column {})",
            self.column
        )
    }
}

impl Error for SingularMatrixError {}

/// An LU factorization `P·A = L·U` with partial pivoting.
///
/// # Examples
///
/// ```
/// use picbench_math::{CMatrix, Complex, LuDecomposition};
///
/// let a = CMatrix::from_rows(&[
///     vec![Complex::real(4.0), Complex::real(3.0)],
///     vec![Complex::real(6.0), Complex::real(3.0)],
/// ]);
/// let lu = LuDecomposition::factor(&a)?;
/// let x = lu.solve(&[Complex::real(10.0), Complex::real(12.0)]);
/// assert!((x[0] - Complex::real(1.0)).abs() < 1e-12);
/// assert!((x[1] - Complex::real(2.0)).abs() < 1e-12);
/// # Ok::<(), picbench_math::SingularMatrixError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LuDecomposition {
    lu: CMatrix,
    perm: Vec<usize>,
    swaps: usize,
}

impl LuDecomposition {
    /// Factors a square matrix.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] when a pivot column has no entry with
    /// magnitude above `1e-300` (i.e. the matrix is numerically singular).
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square.
    pub fn factor(a: &CMatrix) -> Result<Self, SingularMatrixError> {
        assert!(a.is_square(), "LU factorization requires a square matrix");
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut swaps = 0usize;

        for col in 0..n {
            // Partial pivot: pick the row with the largest magnitude in col.
            let mut pivot_row = col;
            let mut pivot_mag = lu[(col, col)].abs();
            for r in col + 1..n {
                let mag = lu[(r, col)].abs();
                if mag > pivot_mag {
                    pivot_mag = mag;
                    pivot_row = r;
                }
            }
            // NaN pivots must also be rejected, hence the explicit check.
            if pivot_mag.is_nan() || pivot_mag <= 1e-300 {
                return Err(SingularMatrixError { column: col });
            }
            if pivot_row != col {
                lu.swap_rows(pivot_row, col);
                perm.swap(pivot_row, col);
                swaps += 1;
            }
            let pivot = lu[(col, col)];
            for r in col + 1..n {
                let factor = lu[(r, col)] / pivot;
                lu[(r, col)] = factor;
                for c in col + 1..n {
                    let sub = factor * lu[(col, c)];
                    lu[(r, c)] -= sub;
                }
            }
        }
        Ok(LuDecomposition { lu, perm, swaps })
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A·x = b` for a single right-hand side.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the matrix dimension.
    pub fn solve(&self, b: &[Complex]) -> Vec<Complex> {
        let n = self.dim();
        assert_eq!(b.len(), n, "right-hand side length mismatch");
        // Apply permutation.
        let mut x: Vec<Complex> = self.perm.iter().map(|&p| b[p]).collect();
        // Forward substitution (L has unit diagonal).
        for r in 1..n {
            for c in 0..r {
                let sub = self.lu[(r, c)] * x[c];
                x[r] -= sub;
            }
        }
        // Back substitution.
        for r in (0..n).rev() {
            for c in r + 1..n {
                let sub = self.lu[(r, c)] * x[c];
                x[r] -= sub;
            }
            x[r] /= self.lu[(r, r)];
        }
        x
    }

    /// Solves `A·X = B` for a panel of right-hand sides.
    ///
    /// The pivot permutation is applied **once per solve** while the
    /// panel is copied in, and the eliminations then run across all
    /// columns simultaneously on contiguous rows instead of re-traversing
    /// the permutation and the factors for every column. The per-element
    /// operation order is unchanged, so the results are identical to a
    /// column-at-a-time solve — asserted by the
    /// `solve_matrix_hoists_the_pivot_permutation` test.
    ///
    /// # Panics
    ///
    /// Panics if `b.rows()` does not match the matrix dimension.
    pub fn solve_matrix(&self, b: &CMatrix) -> CMatrix {
        let n = self.dim();
        assert_eq!(b.rows(), n, "right-hand side row count mismatch");
        let ncols = b.cols();
        let mut out = CMatrix::zeros(n, ncols);
        // Apply the row permutation while copying B in.
        for r in 0..n {
            let src = self.perm[r];
            out.as_mut_slice()[r * ncols..(r + 1) * ncols].copy_from_slice(b.row_slice(src));
        }
        let lu = self.lu.as_slice();
        let data = out.as_mut_slice();
        // Forward substitution across all columns (L has unit diagonal).
        for r in 1..n {
            let (done, rest) = data.split_at_mut(r * ncols);
            let row_r = &mut rest[..ncols];
            for (k, &l) in lu[r * n..r * n + r].iter().enumerate() {
                if l == Complex::ZERO {
                    continue;
                }
                let row_k = &done[k * ncols..(k + 1) * ncols];
                for (x, &y) in row_r.iter_mut().zip(row_k) {
                    *x -= l * y;
                }
            }
        }
        // Back substitution across all columns.
        for r in (0..n).rev() {
            let (head, tail) = data.split_at_mut((r + 1) * ncols);
            let row_r = &mut head[r * ncols..];
            let lu_row = &lu[r * n..(r + 1) * n];
            for k in r + 1..n {
                let u = lu_row[k];
                if u == Complex::ZERO {
                    continue;
                }
                let row_k = &tail[(k - r - 1) * ncols..(k - r) * ncols];
                for (x, &y) in row_r.iter_mut().zip(row_k) {
                    *x -= u * y;
                }
            }
            let d = lu_row[r];
            for x in row_r.iter_mut() {
                *x /= d;
            }
        }
        out
    }

    /// The matrix inverse `A⁻¹`.
    pub fn inverse(&self) -> CMatrix {
        self.solve_matrix(&CMatrix::identity(self.dim()))
    }

    /// Determinant, computed from the pivots and the permutation parity.
    pub fn det(&self) -> Complex {
        let mut d = if self.swaps.is_multiple_of(2) {
            Complex::ONE
        } else {
            -Complex::ONE
        };
        for i in 0..self.dim() {
            d *= self.lu[(i, i)];
        }
        d
    }
}

/// Convenience wrapper: solves `A·x = b` in one call.
///
/// # Errors
///
/// Returns [`SingularMatrixError`] when `a` is numerically singular.
pub fn solve(a: &CMatrix, b: &[Complex]) -> Result<Vec<Complex>, SingularMatrixError> {
    Ok(LuDecomposition::factor(a)?.solve(b))
}

/// Convenience wrapper: computes `A⁻¹` in one call.
///
/// # Errors
///
/// Returns [`SingularMatrixError`] when `a` is numerically singular.
pub fn inverse(a: &CMatrix) -> Result<CMatrix, SingularMatrixError> {
    Ok(LuDecomposition::factor(a)?.inverse())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64, im: f64) -> Complex {
        Complex::new(re, im)
    }

    fn test_matrix(n: usize, seed: u64) -> CMatrix {
        // Simple deterministic pseudo-random fill (xorshift) — keeps the unit
        // test free of external RNG plumbing.
        let mut state = seed.wrapping_mul(2685821657736338717).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        CMatrix::from_fn(n, n, |_, _| c(next(), next()))
    }

    #[test]
    fn solve_small_real_system() {
        let a = CMatrix::from_rows(&[
            vec![c(2.0, 0.0), c(1.0, 0.0)],
            vec![c(1.0, 0.0), c(3.0, 0.0)],
        ]);
        let x = solve(&a, &[c(5.0, 0.0), c(10.0, 0.0)]).unwrap();
        assert!(x[0].approx_eq(c(1.0, 0.0), 1e-12));
        assert!(x[1].approx_eq(c(3.0, 0.0), 1e-12));
    }

    #[test]
    fn solve_residual_is_small() {
        for n in [1, 2, 3, 5, 8, 13] {
            let a = test_matrix(n, n as u64 + 7);
            let b: Vec<Complex> = (0..n).map(|i| c(i as f64 + 1.0, -(i as f64))).collect();
            let x = solve(&a, &b).unwrap();
            let r = a.mul_vec(&x);
            for i in 0..n {
                assert!(
                    r[i].approx_eq(b[i], 1e-9),
                    "residual too large at n={n}, i={i}"
                );
            }
        }
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = test_matrix(6, 42);
        let inv = inverse(&a).unwrap();
        assert!((&a * &inv).is_identity(1e-9));
        assert!((&inv * &a).is_identity(1e-9));
    }

    #[test]
    fn det_of_diagonal() {
        let a = CMatrix::from_diag(&[c(2.0, 0.0), c(0.0, 3.0), c(1.0, 1.0)]);
        let lu = LuDecomposition::factor(&a).unwrap();
        // det = 2 * 3i * (1+i) = 6i + 6i² = -6 + 6i
        assert!(lu.det().approx_eq(c(-6.0, 6.0), 1e-12));
    }

    #[test]
    fn det_sign_tracks_row_swaps() {
        // A permutation matrix swapping two rows has det -1.
        let a = CMatrix::from_rows(&[
            vec![c(0.0, 0.0), c(1.0, 0.0)],
            vec![c(1.0, 0.0), c(0.0, 0.0)],
        ]);
        let lu = LuDecomposition::factor(&a).unwrap();
        assert!(lu.det().approx_eq(c(-1.0, 0.0), 1e-12));
    }

    #[test]
    fn singular_matrix_is_reported() {
        let a = CMatrix::from_rows(&[
            vec![c(1.0, 0.0), c(2.0, 0.0)],
            vec![c(2.0, 0.0), c(4.0, 0.0)],
        ]);
        let err = LuDecomposition::factor(&a).unwrap_err();
        assert_eq!(err.column, 1);
        assert!(err.to_string().contains("singular"));
    }

    #[test]
    fn solve_matrix_matches_columnwise_solve() {
        let a = test_matrix(4, 3);
        let b = test_matrix(4, 9);
        let lu = LuDecomposition::factor(&a).unwrap();
        let x = lu.solve_matrix(&b);
        assert!((&a * &x).max_abs_diff(&b) < 1e-9);
    }

    #[test]
    fn solve_matrix_hoists_the_pivot_permutation() {
        // Micro-assertion: the panel solve (permutation applied once per
        // solve) must reproduce the historical column-at-a-time solve —
        // which re-traversed the permutation per RHS column — bit for
        // bit, since the per-element operation order is identical.
        for n in [1, 3, 6, 9] {
            let a = test_matrix(n, 60 + n as u64);
            let b = test_matrix(n, 600 + n as u64);
            let lu = LuDecomposition::factor(&a).unwrap();
            let hoisted = lu.solve_matrix(&b);
            let mut columnwise = CMatrix::zeros(n, b.cols());
            for c in 0..b.cols() {
                let col = lu.solve(&b.col(c));
                for r in 0..n {
                    columnwise[(r, c)] = col[r];
                }
            }
            assert_eq!(hoisted, columnwise, "n={n}");
        }
    }

    #[test]
    fn unitary_inverse_is_dagger() {
        // Build a small unitary from a Givens rotation and verify A⁻¹ = A†.
        let th = 0.77_f64;
        let a = CMatrix::from_rows(&[
            vec![c(th.cos(), 0.0), c(-th.sin(), 0.0)],
            vec![c(th.sin(), 0.0), c(th.cos(), 0.0)],
        ]);
        let inv = inverse(&a).unwrap();
        assert!(inv.max_abs_diff(&a.dagger()) < 1e-12);
    }
}
