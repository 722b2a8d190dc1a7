//! Dense row-major matrices and LU factorisation with partial pivoting.

use crate::NumericsError;

/// A dense, row-major `f64` matrix.
///
/// Sized for the small-to-medium systems that appear in this workspace:
/// least-squares normal equations (a handful of unknowns) and
/// cross-validation of the sparse thermal solver (a few hundred nodes).
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a `rows × cols` matrix of zeros.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major slice of rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows are ragged.
    #[must_use]
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for row in rows {
            assert_eq!(row.len(), ncols, "from_rows: ragged row");
            data.extend_from_slice(row);
        }
        Self {
            rows: nrows,
            cols: ncols,
            data,
        }
    }

    /// Number of rows.
    #[must_use]
    pub const fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub const fn cols(&self) -> usize {
        self.cols
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    #[must_use]
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "mul_vec: dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for (i, yi) in y.iter_mut().enumerate() {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            *yi = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
        y
    }

    /// Returns the transpose.
    #[must_use]
    pub fn transpose(&self) -> Self {
        let mut t = Self::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix–matrix product `A·B`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    #[must_use]
    pub fn mul_mat(&self, other: &Self) -> Self {
        assert_eq!(self.cols, other.rows, "mul_mat: dimension mismatch");
        let mut out = Self::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += aik * other[(k, j)];
                }
            }
        }
        out
    }

    /// Factorises a square matrix as `P·A = L·U` with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::SingularMatrix`] if a pivot vanishes and
    /// [`NumericsError::DimensionMismatch`] if the matrix is not square.
    pub fn lu(&self) -> Result<LuFactors, NumericsError> {
        if self.rows != self.cols {
            return Err(NumericsError::DimensionMismatch {
                context: format!(
                    "LU requires a square matrix, got {}×{}",
                    self.rows, self.cols
                ),
            });
        }
        let n = self.rows;
        let mut lu = self.clone();
        let mut perm: Vec<usize> = (0..n).collect();

        for col in 0..n {
            // Partial pivoting: pick the largest magnitude in this column.
            let mut pivot_row = col;
            let mut pivot_val = lu[(col, col)].abs();
            for r in col + 1..n {
                let v = lu[(r, col)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val < f64::EPSILON * 16.0 {
                return Err(NumericsError::SingularMatrix { pivot: col });
            }
            if pivot_row != col {
                lu.swap_rows(col, pivot_row);
                perm.swap(col, pivot_row);
            }
            let diag = lu[(col, col)];
            for r in col + 1..n {
                let factor = lu[(r, col)] / diag;
                lu[(r, col)] = factor;
                for c in col + 1..n {
                    let v = lu[(col, c)];
                    lu[(r, c)] -= factor * v;
                }
            }
        }
        Ok(LuFactors { lu, perm })
    }

    /// Convenience: factorise and solve `A·x = b` in one call.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`DenseMatrix::lu`] and
    /// [`LuFactors::solve`].
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, NumericsError> {
        self.lu()?.solve(b)
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let (head, tail) = self.data.split_at_mut(hi * self.cols);
        head[lo * self.cols..(lo + 1) * self.cols].swap_with_slice(&mut tail[..self.cols]);
    }
}

impl std::ops::Index<(usize, usize)> for DenseMatrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DenseMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

/// The result of an LU factorisation: packed `L` (unit diagonal, below)
/// and `U` (on/above the diagonal) plus the row permutation.
#[derive(Debug, Clone)]
pub struct LuFactors {
    lu: DenseMatrix,
    perm: Vec<usize>,
}

impl LuFactors {
    /// Solves `A·x = b` using the stored factors.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if `b` has the wrong
    /// length.
    // The triangular substitution loops index `x` strictly below/above
    // `i`; iterator forms would obscure the dependence structure.
    #[allow(clippy::needless_range_loop)]
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, NumericsError> {
        let n = self.lu.rows();
        if b.len() != n {
            return Err(NumericsError::DimensionMismatch {
                context: format!("rhs has {} rows, matrix has {}", b.len(), n),
            });
        }
        // Apply permutation, then forward/backward substitution.
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        for i in 1..n {
            let mut s = x[i];
            for j in 0..i {
                s -= self.lu[(i, j)] * x[j];
            }
            x[i] = s;
        }
        for i in (0..n).rev() {
            let mut s = x[i];
            for j in i + 1..n {
                s -= self.lu[(i, j)] * x[j];
            }
            x[i] = s / self.lu[(i, i)];
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn residual(a: &DenseMatrix, x: &[f64], b: &[f64]) -> f64 {
        a.mul_vec(x)
            .iter()
            .zip(b)
            .map(|(ax, bi)| (ax - bi).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn solve_3x3() {
        let a = DenseMatrix::from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]]);
        let b = [8.0, -11.0, -3.0];
        let x = a.solve(&b).expect("solve succeeds");
        assert!((x[0] - 2.0).abs() < 1e-10);
        assert!((x[1] - 3.0).abs() < 1e-10);
        assert!((x[2] + 1.0).abs() < 1e-10);
        assert!(residual(&a, &x, &b) < 1e-10);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = a.solve(&[3.0, 4.0]).expect("solve succeeds");
        assert_eq!(x, vec![4.0, 3.0]);
    }

    #[test]
    fn singular_matrix_is_reported() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        match a.lu() {
            Err(NumericsError::SingularMatrix { pivot }) => assert_eq!(pivot, 1),
            other => unreachable!("expected singular, got {other:?}"),
        }
    }

    #[test]
    fn non_square_rejected() {
        let a = DenseMatrix::zeros(2, 3);
        assert!(matches!(
            a.lu(),
            Err(NumericsError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn transpose_and_matmul() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let at = a.transpose();
        assert_eq!(at[(0, 1)], 3.0);
        let ata = at.mul_mat(&a);
        assert_eq!(ata[(0, 0)], 10.0);
        assert_eq!(ata[(1, 1)], 20.0);
        assert_eq!(ata[(0, 1)], ata[(1, 0)]);
    }

    #[test]
    fn factor_once_solve_many() {
        let a = DenseMatrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
        let lu = a.lu().expect("numerics succeed");
        for b in [[1.0, 2.0], [5.0, -1.0], [0.0, 0.0]] {
            let x = lu.solve(&b).expect("solve succeeds");
            assert!(residual(&a, &x, &b) < 1e-12);
        }
    }

    #[test]
    fn wrong_rhs_length_rejected() {
        let lu = DenseMatrix::identity(3).lu().expect("numerics succeed");
        assert!(matches!(
            lu.solve(&[1.0, 2.0]),
            Err(NumericsError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn moderately_large_diagonally_dominant_system() {
        // Mimics a thermal conductance matrix: diagonally dominant SPD.
        let n = 60;
        let mut a = DenseMatrix::zeros(n, n);
        for i in 0..n {
            a[(i, i)] = 4.0;
            if i > 0 {
                a[(i, i - 1)] = -1.0;
                a[(i - 1, i)] = -1.0;
            }
        }
        let b: Vec<f64> = (0..n).map(|i| (i % 7) as f64).collect();
        let x = a.solve(&b).expect("solve succeeds");
        assert!(residual(&a, &x, &b) < 1e-9);
    }
}
