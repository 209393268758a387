//! Dense linear algebra for modified nodal analysis.
//!
//! Circuit matrices at this scale (a ring oscillator is a few dozen
//! unknowns) are small and only mildly sparse, so a dense LU with partial
//! pivoting is both simple and fast. The factorization is done in place:
//! [`Matrix::solve_in_place`] overwrites the matrix with its factors, and
//! the Newton loop clears and re-stamps the same storage before the next
//! iteration.

use crate::error::{Result, SimError};

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    n_rows: usize,
    n_cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates an `n_rows × n_cols` zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(n_rows: usize, n_cols: usize) -> Self {
        assert!(
            n_rows > 0 && n_cols > 0,
            "matrix dimensions must be positive"
        );
        Matrix {
            n_rows,
            n_cols,
            data: vec![0.0; n_rows * n_cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Resets every entry to zero (reuse between Newton iterations
    /// without reallocating).
    pub fn clear(&mut self) {
        self.data.fill(0.0);
    }

    /// Adds `value` to entry `(row, col)` — the stamping primitive.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    #[inline]
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.n_rows && col < self.n_cols,
            "index out of bounds"
        );
        self.accumulate(row, col, value);
    }

    /// [`Matrix::add`] for callers that guarantee `col < n_cols`; only
    /// the storage bound is checked. MNA stamping uses it: its rows and
    /// columns come from a compiled circuit, and a per-entry column check
    /// costs about a quarter of the assembly time.
    #[inline]
    pub(crate) fn accumulate(&mut self, row: usize, col: usize, value: f64) {
        debug_assert!(col < self.n_cols, "column out of bounds");
        self.data[row * self.n_cols + col] += value;
    }

    /// Matrix–vector product `self · x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n_cols`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n_cols, "dimension mismatch");
        self.data
            .chunks_exact(self.n_cols)
            .map(|row| row.iter().zip(x).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Solves `self · x = b` in place by LU with partial pivoting,
    /// overwriting both the matrix (with its factors) and `b` (with the
    /// solution).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SingularMatrix`] when no usable pivot exists
    /// (matrix is singular to working precision, or the pivot is NaN).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or `b.len() != n`.
    pub fn solve_in_place(&mut self, b: &mut [f64]) -> Result<()> {
        assert_eq!(self.n_rows, self.n_cols, "LU needs a square matrix");
        assert_eq!(b.len(), self.n_rows, "rhs dimension mismatch");
        let n = self.n_rows;
        let a = &mut self.data[..];

        for k in 0..n {
            // Partial pivoting: pick the largest magnitude in column k.
            let mut pivot_row = k;
            let mut pivot_val = a[k * n + k].abs();
            for r in (k + 1)..n {
                let v = a[r * n + k].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            // The negated form also rejects a NaN pivot.
            if !(pivot_val >= 1e-300) {
                return Err(SimError::SingularMatrix { pivot_row: k });
            }
            if pivot_row != k {
                let (upper, lower) = a.split_at_mut(pivot_row * n);
                upper[k * n..(k + 1) * n].swap_with_slice(&mut lower[..n]);
                b.swap(k, pivot_row);
            }
            // Eliminate below.
            let (upper, lower) = a.split_at_mut((k + 1) * n);
            let pivot_row = &upper[k * n..];
            let pivot = pivot_row[k];
            let bk = b[k];
            for (row, br) in lower.chunks_exact_mut(n).zip(&mut b[k + 1..]) {
                let factor = row[k] / pivot;
                if factor == 0.0 {
                    continue;
                }
                row[k] = 0.0;
                for (v, &p) in row[k + 1..].iter_mut().zip(&pivot_row[k + 1..]) {
                    *v -= factor * p;
                }
                *br -= factor * bk;
            }
        }
        // Back substitution.
        for k in (0..n).rev() {
            let row = &a[k * n..(k + 1) * n];
            let mut s = b[k];
            for (&v, &bc) in row[k + 1..].iter().zip(&b[k + 1..]) {
                s -= v * bc;
            }
            b[k] = s / row[k];
        }
        Ok(())
    }

    /// Infinity norm of the matrix (max absolute row sum).
    pub fn norm_inf(&self) -> f64 {
        (0..self.n_rows)
            .map(|i| {
                self.data[i * self.n_cols..(i + 1) * self.n_cols]
                    .iter()
                    .map(|v| v.abs())
                    .sum::<f64>()
            })
            .fold(0.0, f64::max)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.n_rows && c < self.n_cols, "index out of bounds");
        &self.data[r * self.n_cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.n_rows && c < self.n_cols, "index out of bounds");
        &mut self.data[r * self.n_cols + c]
    }
}

/// Infinity norm of a vector.
pub fn vec_norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0, |m, v| m.max(v.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_solves_trivially() {
        let mut m = Matrix::identity(4);
        let mut b = vec![1.0, -2.0, 3.0, 0.5];
        let expect = b.clone();
        m.solve_in_place(&mut b).unwrap();
        assert_eq!(b, expect);
    }

    #[test]
    fn solves_known_system() {
        // [2 1; 1 3] x = [5; 10]  ->  x = [1; 3]
        let mut m = Matrix::zeros(2, 2);
        m[(0, 0)] = 2.0;
        m[(0, 1)] = 1.0;
        m[(1, 0)] = 1.0;
        m[(1, 1)] = 3.0;
        let mut b = vec![5.0, 10.0];
        m.solve_in_place(&mut b).unwrap();
        assert!((b[0] - 1.0).abs() < 1e-12);
        assert!((b[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // [0 1; 1 0] x = [2; 3]  ->  x = [3; 2]
        let mut m = Matrix::zeros(2, 2);
        m[(0, 1)] = 1.0;
        m[(1, 0)] = 1.0;
        let mut b = vec![2.0, 3.0];
        m.solve_in_place(&mut b).unwrap();
        assert!((b[0] - 3.0).abs() < 1e-12);
        assert!((b[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_detected() {
        let mut m = Matrix::zeros(2, 2);
        m[(0, 0)] = 1.0;
        m[(0, 1)] = 2.0;
        m[(1, 0)] = 2.0;
        m[(1, 1)] = 4.0;
        let mut b = vec![1.0, 2.0];
        assert!(matches!(
            m.solve_in_place(&mut b),
            Err(SimError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn nan_pivot_is_singular_not_a_solution() {
        // NaN fails every `>` comparison, so a `pivot < tiny` test lets it
        // through and the "solution" comes back all NaN.
        let mut m = Matrix::zeros(2, 2);
        m[(0, 0)] = f64::NAN;
        m[(0, 1)] = 1.0;
        m[(1, 1)] = 1.0;
        let mut b = vec![1.0, 2.0];
        assert!(matches!(
            m.solve_in_place(&mut b),
            Err(SimError::SingularMatrix { pivot_row: 0 })
        ));
    }

    #[test]
    fn mul_vec_matches_solution() {
        let mut m = Matrix::zeros(3, 3);
        m[(0, 0)] = 4.0;
        m[(0, 1)] = 1.0;
        m[(1, 0)] = 1.0;
        m[(1, 1)] = 3.0;
        m[(1, 2)] = -1.0;
        m[(2, 1)] = -1.0;
        m[(2, 2)] = 2.0;
        let x = vec![1.0, 2.0, 3.0];
        let b = m.mul_vec(&x);
        let mut m2 = m.clone();
        let mut bb = b.clone();
        m2.solve_in_place(&mut bb).unwrap();
        for (a, e) in bb.iter().zip(&x) {
            assert!((a - e).abs() < 1e-12);
        }
    }

    #[test]
    fn add_accumulates() {
        let mut m = Matrix::zeros(2, 2);
        m.add(0, 0, 1.5);
        m.add(0, 0, 2.5);
        assert!((m[(0, 0)] - 4.0).abs() < 1e-15);
        m.clear();
        assert_eq!(m[(0, 0)], 0.0);
    }

    #[test]
    fn norms() {
        let mut m = Matrix::zeros(2, 2);
        m[(0, 0)] = -3.0;
        m[(0, 1)] = 1.0;
        m[(1, 1)] = 2.0;
        assert!((m.norm_inf() - 4.0).abs() < 1e-15);
        assert!((vec_norm_inf(&[1.0, -5.0, 2.0]) - 5.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_dimension_rejected() {
        let _ = Matrix::zeros(0, 3);
    }
}
