//! Dense linear solver: LU factorization with partial pivoting.
//!
//! MNA matrices for single-PE circuits are small (tens of unknowns), where a
//! dense solve beats sparse bookkeeping. Larger array-level netlists use
//! [`crate::sparse`] / `lu`.
//!
//! The workhorse is `DenseLu`, a preallocated workspace reused across
//! Newton iterations and timesteps: factors, permutation and substitution
//! scratch live in place, rows are swapped physically during pivoting so
//! the elimination inner loop runs over contiguous memory with no
//! permutation indirection, and the right-hand side is solved in place (no
//! `b.to_vec()`).

use crate::error::SpiceError;

/// A dense row-major square matrix (assembly/test convenience type).
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    n: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// An `n x n` zero matrix.
    pub fn zeros(n: usize) -> Self {
        DenseMatrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// The dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Resets all entries to zero (for re-stamping without reallocation).
    pub fn clear(&mut self) {
        self.data.fill(0.0);
    }

    /// Adds `v` to entry `(r, c)`.
    #[inline]
    pub fn add(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.n && c < self.n);
        self.data[r * self.n + c] += v;
    }

    /// Entry `(r, c)`.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.n + c]
    }

    /// Solves `A·x = b` through a fresh `DenseLu` workspace. The matrix
    /// is only borrowed — no defensive copies needed by callers that reuse
    /// it afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::SingularMatrix`] if a pivot collapses below
    /// `1e-300`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, SpiceError> {
        assert_eq!(b.len(), self.n, "rhs length must match dimension");
        let mut lu = DenseLu::new(self.n);
        lu.factor_from_slice(&self.data)?;
        let mut x = b.to_vec();
        let mut y = vec![0.0; self.n];
        lu.solve_in_place(&mut x, &mut y);
        Ok(x)
    }
}

/// A reusable dense LU workspace: preallocated factor storage and pivot
/// bookkeeping, refilled and refactored in place every solve.
#[derive(Debug, Clone)]
pub(crate) struct DenseLu {
    n: usize,
    /// Row-major factor storage; rows are *physically* permuted during
    /// pivoting so elimination and substitution never indirect through a
    /// permutation in their inner loops.
    factors: Vec<f64>,
    /// `where_from[k]` = original row now stored at physical row k.
    where_from: Vec<u32>,
}

impl DenseLu {
    pub(crate) fn new(n: usize) -> Self {
        DenseLu {
            n,
            factors: vec![0.0; n * n],
            where_from: (0..n as u32).collect(),
        }
    }

    /// Zeroes the factor storage and scatters `values` at the positions
    /// `dense_pos` (precomputed `r·n + c` per CSR slot), then factors.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::SingularMatrix`] on pivot collapse.
    pub(crate) fn factor_scattered(
        &mut self,
        dense_pos: &[u32],
        values: &[f64],
    ) -> Result<(), SpiceError> {
        self.factors.fill(0.0);
        for (i, &p) in dense_pos.iter().enumerate() {
            self.factors[p as usize] = values[i];
        }
        self.factor_inner()
    }

    /// Copies a full row-major matrix into the workspace and factors it.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::SingularMatrix`] on pivot collapse.
    pub(crate) fn factor_from_slice(&mut self, data: &[f64]) -> Result<(), SpiceError> {
        debug_assert_eq!(data.len(), self.n * self.n);
        self.factors.copy_from_slice(data);
        self.factor_inner()
    }

    /// In-place LU with partial pivoting over the already-loaded storage.
    fn factor_inner(&mut self) -> Result<(), SpiceError> {
        let n = self.n;
        for (k, w) in self.where_from.iter_mut().enumerate() {
            *w = k as u32;
        }
        for k in 0..n {
            // Partial pivot: first strictly-larger magnitude wins (same
            // tie-break as the original consuming solver).
            let mut max_row = k;
            let mut max_val = self.factors[k * n + k].abs();
            for r in (k + 1)..n {
                let v = self.factors[r * n + k].abs();
                if v > max_val {
                    max_val = v;
                    max_row = r;
                }
            }
            if max_val < 1.0e-300 {
                return Err(SpiceError::SingularMatrix { pivot: k });
            }
            if max_row != k {
                let (a, b) = self.factors.split_at_mut(max_row * n);
                a[k * n..k * n + n].swap_with_slice(&mut b[..n]);
                self.where_from.swap(k, max_row);
            }
            let pivot = self.factors[k * n + k];
            let (pivot_rows, rest) = self.factors.split_at_mut((k + 1) * n);
            let pivot_row = &pivot_rows[k * n..];
            for chunk in rest.chunks_exact_mut(n) {
                let factor = chunk[k] / pivot;
                if factor == 0.0 {
                    continue;
                }
                chunk[k] = factor;
                for c in (k + 1)..n {
                    chunk[c] -= factor * pivot_row[c];
                }
            }
        }
        Ok(())
    }

    /// Solves with the cached factors: on return `rhs` holds `x`; `y` is an
    /// n-sized scratch buffer. Allocation-free.
    pub(crate) fn solve_in_place(&self, rhs: &mut [f64], y: &mut [f64]) {
        let n = self.n;
        debug_assert_eq!(rhs.len(), n);
        debug_assert_eq!(y.len(), n);
        // Forward substitution (unit-diagonal L below the diagonal).
        for k in 0..n {
            let row = &self.factors[k * n..k * n + k];
            let mut sum = rhs[self.where_from[k] as usize];
            for (c, &l) in row.iter().enumerate() {
                sum -= l * y[c];
            }
            y[k] = sum;
        }
        // Back substitution.
        for k in (0..n).rev() {
            let row = &self.factors[k * n..(k + 1) * n];
            let mut sum = y[k];
            for c in (k + 1)..n {
                sum -= row[c] * rhs[c];
            }
            rhs[k] = sum / row[k];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_identity() {
        let mut m = DenseMatrix::zeros(3);
        for i in 0..3 {
            m.add(i, i, 1.0);
        }
        let x = m.solve(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn solves_general_system() {
        // [2 1; 1 3] x = [5; 10] -> x = [1; 3].
        let mut m = DenseMatrix::zeros(2);
        m.add(0, 0, 2.0);
        m.add(0, 1, 1.0);
        m.add(1, 0, 1.0);
        m.add(1, 1, 3.0);
        let x = m.solve(&[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // [0 1; 1 0] x = [2; 3] -> x = [3; 2].
        let mut m = DenseMatrix::zeros(2);
        m.add(0, 1, 1.0);
        m.add(1, 0, 1.0);
        let x = m.solve(&[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_detected() {
        let mut m = DenseMatrix::zeros(2);
        m.add(0, 0, 1.0);
        m.add(0, 1, 2.0);
        m.add(1, 0, 2.0);
        m.add(1, 1, 4.0);
        assert!(matches!(
            m.solve(&[1.0, 2.0]),
            Err(SpiceError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn wide_dynamic_range() {
        // Conductance stamps span ~1e-5 .. 10 in the accelerator circuits;
        // the solver must stay accurate across that spread.
        let mut m = DenseMatrix::zeros(2);
        m.add(0, 0, 1.0e-5);
        m.add(1, 1, 10.0);
        let x = m.solve(&[1.0e-5, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-9);
        assert!((x[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn random_roundtrip() {
        // Deterministic pseudo-random matrix; verify A*x = b residual. The
        // borrow-based solve leaves the matrix intact — no defensive clone.
        let n = 20;
        let mut seed = 12345u64;
        let mut rand = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut m = DenseMatrix::zeros(n);
        for r in 0..n {
            for c in 0..n {
                m.add(r, c, rand());
            }
            m.add(r, r, 5.0); // diagonal dominance
        }
        let b: Vec<f64> = (0..n).map(|_| rand()).collect();
        let x = m.solve(&b).unwrap();
        for (r, &br) in b.iter().enumerate() {
            let mut sum = 0.0;
            for (c, &xc) in x.iter().enumerate() {
                sum += m.at(r, c) * xc;
            }
            assert!((sum - br).abs() < 1e-9, "row {r} residual");
        }
    }

    #[test]
    fn workspace_reuse_is_stable() {
        // Factor the same workspace twice with different matrices; the
        // second use must not see stale state.
        let mut lu = DenseLu::new(2);
        lu.factor_from_slice(&[0.0, 1.0, 1.0, 0.0]).unwrap();
        let mut x = vec![2.0, 3.0];
        let mut y = vec![0.0; 2];
        lu.solve_in_place(&mut x, &mut y);
        assert_eq!(x, vec![3.0, 2.0]);
        lu.factor_from_slice(&[2.0, 0.0, 0.0, 4.0]).unwrap();
        let mut x = vec![2.0, 4.0];
        lu.solve_in_place(&mut x, &mut y);
        assert_eq!(x, vec![1.0, 1.0]);
    }
}
