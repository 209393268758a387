//! Linear algebra for modified nodal analysis.
//!
//! Circuit matrices at this scale (a ring oscillator is a few dozen
//! unknowns) are small. [`Matrix`] stores them dense: stamping is a
//! plain indexed add, and [`Matrix::solve_in_place`] is the dense LU with
//! partial pivoting; it overwrites the matrix with its factors.
//!
//! The Newton loop solves thousands of matrices that share one
//! structural pattern, so it factors them the way SPICE-class solvers
//! do (Sparse 1.3 `spOrderAndFactor`/`spFactor`, KLU analyse/refactor):
//!
//! * **Ordering.** `min_degree_order` picks a greedy minimum-degree
//!   elimination order on the symmetrized pattern; the circuit compiler
//!   ([`crate::mna`]) lays out its rows and columns in that order, so the
//!   supply hub, adjacent to every pull-up, is eliminated after the
//!   low-degree nodes instead of filling the matrix first.
//! * **Slots.** The pattern's entries are numbered (`SlotPattern`), and
//!   the solver's matrices live in slot form: one value per entry, which
//!   the circuit compiler stamps directly. A dense matrix is built, by
//!   scatter, only to be analysed.
//! * **Analysis.** The first matrix is factored by
//!   [`Matrix::solve_in_place`] itself, which records the row it chose at
//!   each pivot. The L/U fill pattern of that row sequence is then
//!   derived symbolically, and every pivot, multiplier and update becomes
//!   a precomputed slot in a compact value array: the pattern's own
//!   slots first, then the fill-in.
//! * **Refactorization.** Each later matrix is copied into the compact
//!   array as it is, the fill-in zeroed, and eliminated along those lists
//!   only. A reused pivot must still satisfy `|p| ≥ 10⁻³·max|column|`
//!   (and be a number above 10⁻³⁰⁰); otherwise the matrix is
//!   re-analysed, which either finds new pivots or reports
//!   [`SimError::SingularMatrix`].
//!
//! With the same pivot rows, the refactorization performs exactly the
//! floating-point operations of the dense LU on the entries that can be
//! nonzero, in the same order, so the two agree bit for bit.

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
        self.lu_solve(b, None)
    }

    /// [`Matrix::solve_in_place`], optionally recording in `rows` the
    /// original row chosen as pivot `k` (`rows` must start as the
    /// identity permutation).
    fn lu_solve(&mut self, b: &mut [f64], mut rows: Option<&mut [usize]>) -> Result<()> {
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
            if !(pivot_val >= TINY_PIVOT) {
                return Err(SimError::SingularMatrix { pivot_row: k });
            }
            if pivot_row != k {
                let (upper, lower) = a.split_at_mut(pivot_row * n);
                upper[k * n..(k + 1) * n].swap_with_slice(&mut lower[..n]);
                b.swap(k, pivot_row);
                if let Some(rows) = rows.as_deref_mut() {
                    rows.swap(k, pivot_row);
                }
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

/// Smallest pivot magnitude either LU accepts.
const TINY_PIVOT: f64 = 1e-300;

/// A reused pivot must be at least this fraction of the largest entry
/// that could have been chosen in its column (Sparse 1.3's default
/// relative threshold).
const PIVOT_THRESHOLD: f64 = 1e-3;

/// A greedy minimum-degree elimination order for the structural
/// `n × n` row-major `pattern`: repeatedly eliminate the unknown with
/// the fewest remaining neighbours in the symmetrized graph (lowest
/// index on ties) and join its neighbours into a clique, as its
/// elimination would fill them. Returns the unknowns in elimination
/// order.
///
/// # Panics
///
/// Panics if `pattern.len() != n * n`.
pub(crate) fn min_degree_order(n: usize, pattern: &[bool]) -> Vec<usize> {
    assert_eq!(pattern.len(), n * n, "pattern size mismatch");
    let mut adj = vec![false; n * n];
    for i in 0..n {
        for j in 0..n {
            if i != j && pattern[i * n + j] {
                adj[i * n + j] = true;
                adj[j * n + i] = true;
            }
        }
    }
    // `degree[v]`: v's neighbours not yet eliminated.
    let mut degree: Vec<usize> = adj
        .chunks_exact(n.max(1))
        .map(|row| row.iter().filter(|&&a| a).count())
        .collect();
    let mut eliminated = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut neighbours = Vec::with_capacity(n);
    for _ in 0..n {
        let v = (0..n)
            .filter(|&v| !eliminated[v])
            .min_by_key(|&v| degree[v])
            .expect("an unknown is left");
        eliminated[v] = true;
        order.push(v);
        neighbours.clear();
        neighbours.extend((0..n).filter(|&u| !eliminated[u] && adj[v * n + u]));
        for &a in &neighbours {
            degree[a] -= 1;
            for &b in &neighbours {
                if a != b && !adj[a * n + b] {
                    adj[a * n + b] = true;
                    degree[a] += 1;
                }
            }
        }
    }
    order
}

/// A structural pattern with its entries numbered: slot `k` is the
/// `k`-th entry of the row-major `n × n` pattern.
///
/// Assembly stamps into an array of [`SlotPattern::len`]` + 1` values.
/// The last one is a discard slot: it takes the stamps into the row or
/// column of ground, which the system does not have, so that no stamp
/// needs a branch.
#[derive(Debug, Clone)]
pub(crate) struct SlotPattern {
    n: usize,
    /// `index[r * n + c]`: the slot of entry `(r, c)`, `u32::MAX`
    /// outside the pattern.
    index: Vec<u32>,
    /// `r * n + c` of each slot.
    positions: Vec<u32>,
}

impl SlotPattern {
    /// Numbers the entries of the row-major `n × n` `pattern`.
    ///
    /// # Panics
    ///
    /// Panics if `pattern.len() != n * n`, or if `n * n` does not fit in
    /// `u32` slot indices.
    pub(crate) fn new(n: usize, pattern: &[bool]) -> Self {
        assert_eq!(pattern.len(), n * n, "pattern size mismatch");
        assert!(u32::try_from(n * n).is_ok(), "matrix too large");
        let mut index = vec![u32::MAX; n * n];
        let mut positions = Vec::new();
        for (pos, _) in pattern.iter().enumerate().filter(|(_, &p)| p) {
            index[pos] = positions.len() as u32;
            positions.push(pos as u32);
        }
        SlotPattern {
            n,
            index,
            positions,
        }
    }

    /// Rows (and columns) of the matrices.
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// Entries in the pattern (the discard slot excluded).
    pub(crate) fn len(&self) -> usize {
        self.positions.len()
    }

    /// The slot of entry `(r, c)`; a row or column equal to `n` stands
    /// for ground and maps to the discard slot.
    ///
    /// # Panics
    ///
    /// Panics if the entry is outside the pattern.
    pub(crate) fn slot(&self, r: usize, c: usize) -> u32 {
        if r == self.n || c == self.n {
            return self.positions.len() as u32;
        }
        let s = self.index[r * self.n + c];
        assert!(s != u32::MAX, "entry ({r}, {c}) outside the pattern");
        s
    }

    fn contains(&self, pos: usize) -> bool {
        self.index[pos] != u32::MAX
    }

    /// Overwrites `m` with the slot values `a` (zero off the pattern).
    pub(crate) fn scatter(&self, a: &[f64], m: &mut Matrix) {
        assert!(
            m.n_rows == self.n && m.n_cols == self.n,
            "matrix does not match the pattern"
        );
        m.clear();
        for (&pos, &v) in self.positions.iter().zip(a) {
            m.data[pos as usize] = v;
        }
    }

    /// The slot values of `m`'s pattern entries.
    #[cfg(test)]
    pub(crate) fn gather(&self, m: &Matrix) -> Vec<f64> {
        self.positions.iter().map(|&p| m.data[p as usize]).collect()
    }
}

/// Work counters of a [`PivotedLu`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct LuCounts {
    /// Numeric factorizations: one per solve, plus one for each
    /// refactorization abandoned at a failed pivot.
    pub factorizations: u64,
    /// Fresh pivot searches after a reused pivot failed the threshold
    /// (the first analysis is not counted).
    pub reanalyses: u64,
    /// Stored L and U entries of the current pivot order.
    pub factor_nonzeros: u64,
}

/// One elimination step of an analysed LU: how many of the flat entry
/// lists of [`PivotedLu`] it owns.
#[derive(Debug, Clone, Copy)]
struct Step {
    /// Slot of the pivot `U[k][k]`.
    diag: u32,
    /// Entries of L's column `k` below the pivot.
    lower: u32,
    /// Entries of U's row `k` right of the pivot.
    upper: u32,
}

/// An LU that chooses its pivots once and reuses them for every later
/// matrix of the same structural pattern (see the module docs).
///
/// Matrices come in slot form (one value per [`SlotPattern`] entry). The
/// first [`PivotedLu::solve`], and any solve whose reused pivots fail
/// the threshold, scatters them into a dense matrix for
/// [`Matrix::solve_in_place`]'s LU; the others refactor along precomputed
/// fill lists. Every entry of the factors lives in one slot of a compact
/// value array.
#[derive(Debug, Clone)]
pub(crate) struct PivotedLu {
    pattern: SlotPattern,
    /// The dense matrix of an analysis (overwritten by its factors).
    dense: Matrix,
    /// `rows[k]`: the matrix row used as pivot `k`.
    rows: Vec<usize>,
    /// One entry per pivot; empty until analysed.
    steps: Vec<Step>,
    /// Slots and row positions of L's entries, column by column.
    lower: Vec<(u32, u32)>,
    /// Slots and columns of U's off-diagonal entries, row by row.
    upper: Vec<(u32, u32)>,
    /// Update targets: for each L entry, one slot per entry of its
    /// step's U row.
    targets: Vec<u32>,
    /// The factors, one value per slot: the pattern's slots (in
    /// [`SlotPattern`] order), then the fill-in.
    values: Vec<f64>,
    /// Right-hand side in pivot order, then the solution.
    y: Vec<f64>,
    counts: LuCounts,
}

impl PivotedLu {
    /// An unanalysed LU for matrices whose nonzeros lie within
    /// `pattern`.
    pub(crate) fn new(pattern: SlotPattern) -> Self {
        let n = pattern.n();
        PivotedLu {
            dense: Matrix::zeros(n, n),
            pattern,
            rows: Vec::new(),
            steps: Vec::new(),
            lower: Vec::new(),
            upper: Vec::new(),
            targets: Vec::new(),
            values: Vec::new(),
            y: vec![0.0; n],
            counts: LuCounts::default(),
        }
    }

    /// The work counters so far.
    pub(crate) fn counts(&self) -> LuCounts {
        self.counts
    }

    /// Solves `A · x = b` for the matrix whose pattern entries are the
    /// slot values `a`, overwriting `b` with the solution.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SingularMatrix`] when the reused pivots fail
    /// and a fresh partial-pivot search finds no usable pivot either.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not one value per pattern slot or `b.len() != n`.
    pub(crate) fn solve(&mut self, a: &[f64], b: &mut [f64]) -> Result<()> {
        assert_eq!(
            a.len(),
            self.pattern.len(),
            "matrix does not match the pattern"
        );
        assert_eq!(b.len(), self.pattern.n(), "rhs dimension mismatch");
        if !self.steps.is_empty() {
            self.counts.factorizations += 1;
            if self.refactor(a, b) {
                self.substitute(b);
                return Ok(());
            }
            self.counts.reanalyses += 1;
        }
        self.analyse(a, b)
    }

    /// Factors `a` by the dense partial-pivot LU (solving `b`), then
    /// derives the fill lists of the row sequence it chose.
    fn analyse(&mut self, a: &[f64], b: &mut [f64]) -> Result<()> {
        let n = self.pattern.n();
        self.steps.clear();
        self.rows.clear();
        self.rows.extend(0..n);
        self.counts.factorizations += 1;
        self.pattern.scatter(a, &mut self.dense);
        self.dense.lu_solve(b, Some(&mut self.rows))?;

        // Symbolic elimination in pivot order: `fill[i][j]` may be nonzero
        // in row position `i` once steps `< i` are done.
        let mut fill = vec![false; n * n];
        for (i, &r) in self.rows.iter().enumerate() {
            for (j, f) in fill[i * n..(i + 1) * n].iter_mut().enumerate() {
                *f = self.pattern.contains(r * n + j);
            }
        }
        for k in 0..n {
            fill[k * n + k] = true;
            let (done, below) = fill.split_at_mut((k + 1) * n);
            let pivot = &done[k * n..];
            for row in below.chunks_exact_mut(n).filter(|row| row[k]) {
                for (f, &p) in row[k + 1..].iter_mut().zip(&pivot[k + 1..]) {
                    *f |= p;
                }
            }
        }
        // Factor slots: the pattern's own slots first, so that a matrix in
        // slot form is copied in as it is, then the fill-in. Slot indices
        // fit in u32: there are at most n * n (checked by the pattern).
        let mut slot = vec![u32::MAX; n * n];
        let mut n_slots = self.pattern.len() as u32;
        for (pos, _) in fill.iter().enumerate().filter(|(_, &f)| f) {
            let entry = self.rows[pos / n] * n + pos % n;
            slot[pos] = if self.pattern.contains(entry) {
                self.pattern.index[entry]
            } else {
                n_slots += 1;
                n_slots - 1
            };
        }
        self.values.resize(n_slots as usize, 0.0);
        self.lower.clear();
        self.upper.clear();
        self.targets.clear();
        for k in 0..n {
            let (l0, u0) = (self.lower.len(), self.upper.len());
            self.lower.extend(
                (k + 1..n)
                    .filter(|&i| fill[i * n + k])
                    .map(|i| (slot[i * n + k], i as u32)),
            );
            self.upper.extend(
                (k + 1..n)
                    .filter(|&j| fill[k * n + j])
                    .map(|j| (slot[k * n + j], j as u32)),
            );
            for &(_, i) in &self.lower[l0..] {
                for &(_, j) in &self.upper[u0..] {
                    self.targets.push(slot[i as usize * n + j as usize]);
                }
            }
            self.steps.push(Step {
                diag: slot[k * n + k],
                lower: (self.lower.len() - l0) as u32,
                upper: (self.upper.len() - u0) as u32,
            });
        }
        self.counts.factor_nonzeros = u64::from(n_slots);
        Ok(())
    }

    /// Numeric LU of `a` along the analysed lists, with the forward
    /// substitution of `b` (into `y`, in pivot order) folded into the
    /// elimination as the dense LU does it; `false` when a reused pivot
    /// fails the threshold, leaving the values and `y` unusable.
    fn refactor(&mut self, a: &[f64], b: &[f64]) -> bool {
        // Pattern slots start at their entry, fill-in slots at zero.
        let (entries, fill_in) = self.values.split_at_mut(a.len());
        entries.copy_from_slice(a);
        fill_in.fill(0.0);
        let (values, y) = (&mut self.values[..], &mut self.y[..]);
        for (yk, &r) in y.iter_mut().zip(&self.rows) {
            *yk = b[r];
        }
        let (mut lower, mut upper, mut targets) =
            (&self.lower[..], &self.upper[..], &self.targets[..]);
        for (k, step) in self.steps.iter().enumerate() {
            let (col, rest) = lower.split_at(step.lower as usize);
            lower = rest;
            let (row, rest) = upper.split_at(step.upper as usize);
            upper = rest;
            let pivot = values[step.diag as usize];
            let yk = y[k];
            // The column is scanned for its largest entry as it is
            // eliminated; a failed pivot discards the work.
            let mut col_max = pivot.abs();
            for &(s, i) in col {
                let (row_targets, rest) = targets.split_at(row.len());
                targets = rest;
                let entry = values[s as usize];
                col_max = col_max.max(entry.abs());
                let factor = entry / pivot;
                values[s as usize] = factor;
                if factor == 0.0 {
                    continue;
                }
                for (&(u, _), &t) in row.iter().zip(row_targets) {
                    values[t as usize] -= factor * values[u as usize];
                }
                y[i as usize] -= factor * yk;
            }
            // The negated forms also reject a NaN pivot.
            if !(pivot.abs() >= TINY_PIVOT && pivot.abs() >= PIVOT_THRESHOLD * col_max) {
                return false;
            }
        }
        true
    }

    /// Back substitution of `y` with the refactored values, into `b`.
    fn substitute(&mut self, b: &mut [f64]) {
        let y = &mut self.y[..];
        let mut upper = &self.upper[..];
        for (k, step) in self.steps.iter().enumerate().rev() {
            let (rest, row) = upper.split_at(upper.len() - step.upper as usize);
            upper = rest;
            let mut s = y[k];
            for &(u, j) in row {
                s -= self.values[u as usize] * y[j as usize];
            }
            y[k] = s / self.values[step.diag as usize];
        }
        b.copy_from_slice(y);
    }
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

    #[test]
    fn min_degree_defers_the_hub() {
        // A star: the hub (0) touches every leaf; the leaves go first.
        let n = 5;
        let mut pattern = vec![false; n * n];
        for leaf in 1..n {
            pattern[leaf] = true;
            pattern[leaf * n] = true;
        }
        let order = min_degree_order(n, &pattern);
        assert_eq!(&order[..3], &[1, 2, 3]);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn nan_pivot_is_singular_on_the_refactor_path_too() {
        let pattern = SlotPattern::new(2, &[true; 4]);
        let mut lu = PivotedLu::new(pattern.clone());
        let mut b = vec![1.0, 2.0];
        lu.solve(&pattern.gather(&Matrix::identity(2)), &mut b)
            .unwrap();
        let mut a = Matrix::identity(2);
        a[(0, 0)] = f64::NAN;
        a[(0, 1)] = 1.0;
        assert!(matches!(
            lu.solve(&pattern.gather(&a), &mut b),
            Err(SimError::SingularMatrix { pivot_row: 0 })
        ));
        assert_eq!(lu.counts().reanalyses, 1);
        // A failed analysis leaves nothing stale behind.
        let mut b = vec![1.0, 2.0];
        lu.solve(&pattern.gather(&Matrix::identity(2)), &mut b)
            .unwrap();
        assert_eq!(b, [1.0, 2.0]);
    }

    mod refactor {
        use super::*;
        use proptest::prelude::*;

        /// The dense reference solution.
        fn dense_solve(a: &Matrix, b: &[f64]) -> Vec<f64> {
            let mut x = b.to_vec();
            a.clone()
                .solve_in_place(&mut x)
                .expect("test systems are regular");
            x
        }

        /// Solves with `lu` and checks it against the dense LU.
        fn check(
            lu: &mut PivotedLu,
            a: &Matrix,
            b: &[f64],
        ) -> std::result::Result<(), TestCaseError> {
            let mut x = b.to_vec();
            lu.solve(&lu.pattern.gather(a), &mut x)
                .expect("test systems are regular");
            for (got, want) in x.iter().zip(dense_solve(a, b)) {
                prop_assert!(
                    (got - want).abs() <= 1e-10 * want.abs().max(1.0),
                    "{got} vs dense {want}"
                );
            }
            Ok(())
        }

        /// A row-diagonally-dominant matrix on `pattern` (diagonal
        /// always present), `dominance` times the off-diagonal row sum.
        fn dominant(n: usize, pattern: &[bool], cells: &[f64], dominance: f64) -> Matrix {
            let mut a = Matrix::zeros(n, n);
            for i in 0..n {
                let mut off = 0.0;
                for j in (0..n).filter(|&j| j != i && pattern[i * n + j]) {
                    a[(i, j)] = cells[i * n + j];
                    off += cells[i * n + j].abs();
                }
                a[(i, i)] = dominance * (off + 1.0);
            }
            a
        }

        proptest! {
            #[test]
            fn diagonally_dominant_sequences_match_the_dense_lu(
                n in 2usize..=10,
                density in 0.0f64..1.0,
                mask in prop::collection::vec(0.0f64..1.0, 100),
                cells in prop::collection::vec(prop::collection::vec(-1.0f64..1.0, 100), 3),
                b in prop::collection::vec(-10.0f64..10.0, 10),
            ) {
                let pattern: Vec<bool> = (0..n * n)
                    .map(|k| k % (n + 1) == 0 || mask[k] < density)
                    .collect();
                let mut lu = PivotedLu::new(SlotPattern::new(n, &pattern));
                for values in &cells {
                    check(&mut lu, &dominant(n, &pattern, values, 1.0), &b[..n])?;
                }
                prop_assert_eq!(lu.counts().factorizations, 3 + lu.counts().reanalyses);
            }

            #[test]
            fn mna_systems_with_a_zero_diagonal_branch_match_the_dense_lu(
                m in 2usize..=8,
                edges in prop::collection::vec((0usize..8, 0usize..9, 1e-4f64..1e-2), 1..16),
                scales in prop::collection::vec(0.1f64..10.0, 16),
                source in 0usize..8,
                volts in -5.0f64..5.0,
                injected in prop::collection::vec(-1e-3f64..1e-3, 8),
            ) {
                // Nodes 0..m, a leak from each to ground, resistors between
                // random node pairs (or to ground), and a voltage source from
                // `source` to ground whose branch row m has no diagonal.
                let n = m + 1;
                let branch = m;
                let stamp = |scale: &dyn Fn(usize) -> f64| {
                    let mut a = Matrix::zeros(n, n);
                    for i in 0..m {
                        a[(i, i)] += 1e-5;
                    }
                    for (k, &(p, q, g)) in edges.iter().enumerate() {
                        let g = g * scale(k);
                        let (p, q) = (p % m, (q < m).then_some(q));
                        a[(p, p)] += g;
                        if let Some(q) = q {
                            a[(q, q)] += g;
                            a[(p, q)] -= g;
                            a[(q, p)] -= g;
                        }
                    }
                    let s = source % m;
                    a[(s, branch)] += 1.0;
                    a[(branch, s)] += 1.0;
                    a
                };
                let natural = [stamp(&|_| 1.0), stamp(&|k| scales[k])];
                let mut b = injected[..m].to_vec();
                b.push(volts);
                // Solve in the fill-reducing order, as the circuit compiler
                // lays the system out.
                let mut pattern = vec![false; n * n];
                for a in &natural {
                    for (p, &v) in pattern.iter_mut().zip(&a.data) {
                        *p |= v != 0.0;
                    }
                }
                prop_assert!(!pattern[branch * n + branch]);
                let order = min_degree_order(n, &pattern);
                let permute = |a: &Matrix| {
                    let mut p = Matrix::zeros(n, n);
                    for (i, &oi) in order.iter().enumerate() {
                        for (j, &oj) in order.iter().enumerate() {
                            p[(i, j)] = a[(oi, oj)];
                        }
                    }
                    p
                };
                let ordered_pattern: Vec<bool> = (0..n * n)
                    .map(|k| pattern[order[k / n] * n + order[k % n]])
                    .collect();
                let ordered_b: Vec<f64> = order.iter().map(|&o| b[o]).collect();
                let mut lu = PivotedLu::new(SlotPattern::new(n, &ordered_pattern));
                for a in &natural {
                    check(&mut lu, &permute(a), &ordered_b)?;
                }
                prop_assert!(lu.counts().factor_nonzeros <= (n * n) as u64);
            }

            #[test]
            fn moved_pivots_force_one_reanalysis(
                n in 2usize..=8,
                shift in 1usize..8,
                cells in prop::collection::vec(prop::collection::vec(-1.0f64..1.0, 64), 3),
                b in prop::collection::vec(-10.0f64..10.0, 8),
            ) {
                // Strongly dominant matrices on the full pattern. The first
                // pivots on the diagonal; the next two have their rows
                // cyclically shifted, so every reused pivot is an
                // off-diagonal entry below 1e-3 of its column's maximum.
                let full = vec![true; n * n];
                let shift = 1 + shift % (n - 1);
                let mut lu = PivotedLu::new(SlotPattern::new(n, &full));
                for (t, values) in cells.iter().enumerate() {
                    let d = dominant(n, &full, values, 1e3);
                    let mut a = d.clone();
                    if t > 0 {
                        for i in 0..n {
                            for j in 0..n {
                                a[(i, j)] = d[((i + shift) % n, j)];
                            }
                        }
                    }
                    check(&mut lu, &a, &b[..n])?;
                }
                prop_assert_eq!(lu.counts().reanalyses, 1);
                prop_assert_eq!(lu.counts().factorizations, 4);
            }
        }
    }
}
