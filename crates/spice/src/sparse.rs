//! Sparse linear solver for array-level netlists.
//!
//! MNA matrices of PE arrays are extremely sparse (each node touches a
//! handful of elements). [`SparseMatrix`] is a triplet-assembly convenience
//! type whose borrow-based [`SparseMatrix::solve`] compresses the hash rows
//! into CSR once and delegates to the reusable `lu` workspace
//! (threshold pivoting with a Markowitz-style sparsest-row tie-break). The
//! hot analysis path in [`crate::mna`] skips this type entirely and
//! assembles straight into CSR through a stamp plan.

use std::collections::HashMap;

use crate::error::SpiceError;
use crate::lu::SparseLu;

/// A sparse square matrix assembled by triplet addition.
#[derive(Debug, Clone, Default)]
pub struct SparseMatrix {
    n: usize,
    rows: Vec<HashMap<usize, f64>>,
}

impl SparseMatrix {
    /// An `n x n` zero matrix.
    pub fn zeros(n: usize) -> Self {
        SparseMatrix {
            n,
            rows: vec![HashMap::new(); n],
        }
    }

    /// The dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.rows.iter().map(HashMap::len).sum()
    }

    /// Clears all entries, keeping allocations.
    pub fn clear(&mut self) {
        for row in &mut self.rows {
            row.clear();
        }
    }

    /// Adds `v` to entry `(r, c)`.
    #[inline]
    pub fn add(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.n && c < self.n);
        *self.rows[r].entry(c).or_insert(0.0) += v;
    }

    /// Entry `(r, c)` (zero if unset).
    pub fn at(&self, r: usize, c: usize) -> f64 {
        self.rows[r].get(&c).copied().unwrap_or(0.0)
    }

    /// Multiplies `A·x`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n);
        self.rows
            .iter()
            .map(|row| row.iter().map(|(&c, &v)| v * x[c]).sum())
            .collect()
    }

    /// Solves `A·x = b`. The matrix is only borrowed — callers that reuse
    /// it afterwards no longer need a defensive clone.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::SingularMatrix`] if elimination breaks down.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, SpiceError> {
        assert_eq!(b.len(), self.n, "rhs length must match dimension");
        // Compress the hash rows into CSR with sorted columns.
        let mut row_ptr = Vec::with_capacity(self.n + 1);
        let mut col_idx = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        let mut entries: Vec<(usize, f64)> = Vec::new();
        row_ptr.push(0);
        for row in &self.rows {
            entries.clear();
            entries.extend(row.iter().map(|(&c, &v)| (c, v)));
            entries.sort_unstable_by_key(|e| e.0);
            for &(c, v) in &entries {
                col_idx.push(c as u32);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        let mut lu = SparseLu::new(self.n);
        lu.factor(&row_ptr, &col_idx, &values)?;
        let mut x = b.to_vec();
        let mut y = vec![0.0; self.n];
        lu.solve_in_place(&mut x, &mut y);
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_small_system() {
        let mut m = SparseMatrix::zeros(2);
        m.add(0, 0, 2.0);
        m.add(0, 1, 1.0);
        m.add(1, 0, 1.0);
        m.add(1, 1, 3.0);
        let x = m.solve(&[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn duplicate_adds_accumulate() {
        let mut m = SparseMatrix::zeros(1);
        m.add(0, 0, 1.0);
        m.add(0, 0, 2.0);
        assert_eq!(m.at(0, 0), 3.0);
        let x = m.solve(&[6.0]).unwrap();
        assert_eq!(x[0], 2.0);
    }

    #[test]
    fn pivoting_on_zero_diagonal() {
        let mut m = SparseMatrix::zeros(2);
        m.add(0, 1, 1.0);
        m.add(1, 0, 1.0);
        let x = m.solve(&[2.0, 3.0]).unwrap();
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn singular_detected() {
        let mut m = SparseMatrix::zeros(2);
        m.add(0, 0, 1.0);
        // Row 1 empty -> singular.
        assert!(matches!(
            m.solve(&[1.0, 1.0]),
            Err(SpiceError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn matches_dense_on_random_sparse_system() {
        use crate::solver::DenseMatrix;
        let n = 60;
        let mut seed = 99u64;
        let mut rand = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut sp = SparseMatrix::zeros(n);
        let mut de = DenseMatrix::zeros(n);
        for r in 0..n {
            // ~5 off-diagonal entries per row.
            for _ in 0..5 {
                let c = ((rand().abs() * n as f64) as usize).min(n - 1);
                let v = rand();
                sp.add(r, c, v);
                de.add(r, c, v);
            }
            sp.add(r, r, 8.0);
            de.add(r, r, 8.0);
        }
        let b: Vec<f64> = (0..n).map(|_| rand()).collect();
        let xs = sp.solve(&b).unwrap();
        let xd = de.solve(&b).unwrap();
        for i in 0..n {
            assert!((xs[i] - xd[i]).abs() < 1e-9, "mismatch at {i}");
        }
    }

    #[test]
    fn mul_vec_roundtrip() {
        // The borrow-based solve leaves the matrix usable — no clone.
        let n = 30;
        let mut m = SparseMatrix::zeros(n);
        for i in 0..n {
            m.add(i, i, 2.0);
            if i + 1 < n {
                m.add(i, i + 1, -1.0);
                m.add(i + 1, i, -1.0);
            }
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let x = m.solve(&b).unwrap();
        let bx = m.mul_vec(&x);
        for i in 0..n {
            assert!((bx[i] - b[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn nnz_and_clear() {
        let mut m = SparseMatrix::zeros(3);
        m.add(0, 0, 1.0);
        m.add(1, 2, 1.0);
        assert_eq!(m.nnz(), 2);
        m.clear();
        assert_eq!(m.nnz(), 0);
    }
}
