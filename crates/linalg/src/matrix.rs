//! Dense row-major matrix, plus the column-major batch matrix the
//! batched scoring kernels consume.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense row-major matrix of `f64`.
///
/// This is intentionally minimal: ZeroER only needs small symmetric
/// matrices (covariance blocks) and an N×d feature matrix, so the type
/// favours clarity and bounds-checked safety over BLAS-grade throughput.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// An all-zero `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Builds a matrix from nested row slices.
    ///
    /// # Panics
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// A diagonal matrix with `diag` on the main diagonal.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Self::zeros(n, n);
        for (i, &v) in diag.iter().enumerate() {
            m[(i, i)] = v;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row {i} out of bounds ({} rows)", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i` as a slice.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row {i} out of bounds ({} rows)", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy of column `j`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "col {j} out of bounds ({} cols)", self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// The underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Extracts the square sub-matrix of the column/row range
    /// `[start, start + len)` — used to slice covariance blocks out of a
    /// full covariance matrix.
    pub fn principal_submatrix(&self, start: usize, len: usize) -> Matrix {
        assert!(self.is_square(), "principal submatrix of non-square matrix");
        assert!(start + len <= self.rows, "submatrix out of bounds");
        let mut m = Matrix::zeros(len, len);
        for i in 0..len {
            for j in 0..len {
                m[(i, j)] = self[(start + i, start + j)];
            }
        }
        m
    }

    /// The main diagonal.
    pub fn diag(&self) -> Vec<f64> {
        let n = self.rows.min(self.cols);
        (0..n).map(|i| self[(i, i)]).collect()
    }

    /// Sum of the main diagonal (trace).
    pub fn trace(&self) -> f64 {
        self.diag().iter().sum()
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Panics
    /// Panics if `v.len() != self.cols()`.
    pub fn mat_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "dimension mismatch in mat_vec");
        self.data
            .chunks_exact(self.cols)
            .map(|row| row.iter().zip(v).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Scales every entry by `s`, in place.
    pub fn scale_mut(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Returns a scaled copy.
    pub fn scaled(&self, s: f64) -> Matrix {
        let mut m = self.clone();
        m.scale_mut(s);
        m
    }

    /// Adds `other` into `self` element-wise.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Symmetrizes the matrix in place: `A ← (A + Aᵀ)/2`.
    ///
    /// Weighted covariance accumulation can introduce tiny asymmetries from
    /// floating-point non-associativity; Cholesky assumes exact symmetry.
    pub fn symmetrize(&mut self) {
        assert!(self.is_square(), "symmetrize of non-square matrix");
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let m = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = m;
                self[(j, i)] = m;
            }
        }
    }

    /// Maximum absolute element difference against `other`.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Whether any entry is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }
}

/// A dense **column-major** `f64` matrix sized for batched scoring: `n`
/// candidate rows × `d` feature columns, with each feature column stored
/// contiguously.
///
/// This is the struct-of-arrays twin of [`Matrix`]: the batched
/// featurize → normalize → score kernels all walk one feature column at a
/// time across the whole batch, so the column — not the row — is the unit
/// of locality. The buffer is designed for reuse: [`ColMatrix::reset`]
/// reshapes in place without shrinking the allocation, so a per-worker
/// scratch instance stops allocating once it has seen its largest batch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl ColMatrix {
    /// An empty 0×0 matrix (no allocation until the first
    /// [`ColMatrix::reset`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Reshapes to `rows × cols` with every entry zeroed, reusing the
    /// existing allocation when it is large enough.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Reshapes to `rows × cols` like [`ColMatrix::reset`] and fills the
    /// matrix from `data`, the same entries in row-major order (a
    /// [`Matrix`] row range, say). The transpose runs one column at a
    /// time, so every write is contiguous.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn reset_from_rows(&mut self, rows: usize, cols: usize, data: &[f64]) {
        assert_eq!(data.len(), rows * cols, "row-major data length mismatch");
        self.reset(rows, cols);
        if rows == 0 {
            return;
        }
        for (j, col) in self.data.chunks_exact_mut(rows).enumerate() {
            for (v, &x) in col.iter_mut().zip(data[j..].iter().step_by(cols)) {
                *v = x;
            }
        }
    }

    /// Number of rows (batch size).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (feature dimensionality).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow column `j` as a contiguous slice.
    pub fn col(&self, j: usize) -> &[f64] {
        assert!(j < self.cols, "col {j} out of bounds ({} cols)", self.cols);
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Mutably borrow column `j` as a contiguous slice.
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        assert!(j < self.cols, "col {j} out of bounds ({} cols)", self.cols);
        &mut self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Entry at `(i, j)`.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        self.data[j * self.rows + i]
    }

    /// Sets the entry at `(i, j)`.
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        self.data[j * self.rows + i] = v;
    }

    /// Copies row `i` into `out` (a gather across columns — only for
    /// tests and scalar fallbacks, never the batched hot path).
    pub fn row_into(&self, i: usize, out: &mut Vec<f64>) {
        assert!(i < self.rows, "row {i} out of bounds ({} rows)", self.rows);
        out.clear();
        out.extend((0..self.cols).map(|j| self.data[j * self.rows + i]));
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[i * self.cols + j]
    }
}

impl Mul<&Matrix> for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "dimension mismatch in matrix multiply");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        out
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.add_assign(rhs);
        out
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch"
        );
        let mut out = self.clone();
        for (a, b) in out.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
        out
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  ")?;
            for j in 0..self.cols {
                write!(f, "{:>10.4} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_times_anything_is_identity_op() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(&i * &a, a);
        assert_eq!(&a * &i, a);
    }

    #[test]
    fn multiply_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = &a * &b;
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn transpose_flips_indices() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn mat_vec_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.mat_vec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn principal_submatrix_extracts_block() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 9.0]]);
        let b = a.principal_submatrix(1, 2);
        assert_eq!(b, Matrix::from_rows(&[&[5.0, 6.0], &[8.0, 9.0]]));
    }

    #[test]
    fn symmetrize_averages_off_diagonal() {
        let mut a = Matrix::from_rows(&[&[1.0, 2.0], &[4.0, 1.0]]);
        a.symmetrize();
        assert_eq!(a[(0, 1)], 3.0);
        assert_eq!(a[(1, 0)], 3.0);
    }

    #[test]
    fn trace_sums_diagonal() {
        let a = Matrix::from_rows(&[&[1.0, 9.0], &[9.0, 2.0]]);
        assert_eq!(a.trace(), 3.0);
    }

    #[test]
    fn from_diag_builds_diagonal() {
        let d = Matrix::from_diag(&[2.0, 3.0]);
        assert_eq!(d[(0, 0)], 2.0);
        assert_eq!(d[(1, 1)], 3.0);
        assert_eq!(d[(0, 1)], 0.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn multiply_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = &a * &b;
    }

    #[test]
    fn sub_and_max_abs_diff() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[0.5, 4.0]]);
        let d = &a - &b;
        assert_eq!(d, Matrix::from_rows(&[&[0.5, -2.0]]));
        assert_eq!(a.max_abs_diff(&b), 2.0);
    }

    #[test]
    fn non_finite_detection() {
        let mut a = Matrix::zeros(1, 2);
        assert!(!a.has_non_finite());
        a[(0, 1)] = f64::NAN;
        assert!(a.has_non_finite());
    }

    #[test]
    fn col_matrix_from_row_range_transposes() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 9.0]]);
        let mut c = ColMatrix::new();
        c.reset_from_rows(2, 3, &a.as_slice()[3..]);
        assert_eq!((c.rows(), c.cols()), (2, 3));
        for i in 0..2 {
            for j in 0..3 {
                assert_eq!(c.get(i, j), a[(i + 1, j)]);
            }
        }
        // Reuse with a different shape, and the empty shapes.
        c.reset_from_rows(1, 3, a.row(0));
        assert_eq!(c.col(2), &[3.0]);
        c.reset_from_rows(0, 3, &[]);
        assert_eq!((c.rows(), c.cols()), (0, 3));
        c.reset_from_rows(2, 0, &[]);
        assert_eq!((c.rows(), c.cols()), (2, 0));
    }
}
