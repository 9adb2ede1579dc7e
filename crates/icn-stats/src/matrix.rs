//! Dense row-major `f64` matrix.
//!
//! The paper's central object is the traffic matrix `T` with one row per
//! antenna and one column per mobile service (Section 4.1). [`Matrix`] is a
//! deliberately simple container: contiguous storage, checked indexing in
//! debug builds, and the handful of aggregation/view operations the pipeline
//! needs (row/column sums, per-row and per-column maps, transpose, column
//! extraction). It is not a linear-algebra library — we add operations only
//! when a paper experiment needs them.

/// Dense row-major matrix of `f64` values.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: data length {} != {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from nested rows. All rows must share one length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "Matrix::from_rows: ragged rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Immutable element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols, "Matrix::get out of bounds");
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols, "Matrix::set out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of one row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "Matrix::row out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of one row.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "Matrix::row_mut out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies one column into a new vector (columns are strided, so this
    /// cannot be a slice borrow).
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "Matrix::col out of bounds");
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Full backing storage, row-major.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable full backing storage, row-major.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Iterator over row slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Per-row sums: `out[i] = Σ_j m[i][j]` — the antenna totals `T_i`.
    pub fn row_sums(&self) -> Vec<f64> {
        self.iter_rows().map(|r| r.iter().sum()).collect()
    }

    /// Per-column sums: `out[j] = Σ_i m[i][j]` — the service totals `T_j`.
    pub fn col_sums(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        for row in self.iter_rows() {
            for (o, &v) in out.iter_mut().zip(row) {
                *o += v;
            }
        }
        out
    }

    /// Grand total of all entries — `T_tot` in Eq. (1).
    pub fn total(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Largest entry (0.0 for an empty matrix). NaN entries are ignored.
    pub fn max(&self) -> f64 {
        self.data
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
            .max(0.0)
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Returns a new matrix with `f` applied elementwise.
    pub fn map(&self, mut f: impl FnMut(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// New matrix keeping only the rows whose indices appear in `idx`
    /// (in the order given; duplicates allowed — used for bootstrap samples).
    pub fn select_rows(&self, idx: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(idx.len() * self.cols);
        for &r in idx {
            data.extend_from_slice(self.row(r));
        }
        Matrix {
            rows: idx.len(),
            cols: self.cols,
            data,
        }
    }

    /// Vertically stacks `self` on top of `other`. Column counts must match.
    pub fn vstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "vstack: column mismatch");
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        }
    }

    /// True if any entry is NaN or infinite — guard used before clustering.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    }

    #[test]
    fn shape_and_access() {
        let m = sample();
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(1, 2), 6.0);
    }

    #[test]
    fn set_then_get() {
        let mut m = Matrix::zeros(2, 2);
        m.set(1, 0, 7.5);
        assert_eq!(m.get(1, 0), 7.5);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_wrong_len_panics() {
        Matrix::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_ragged_panics() {
        Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn row_and_col_views() {
        let m = sample();
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(2), vec![3.0, 6.0]);
    }

    #[test]
    fn sums_match_hand_computation() {
        let m = sample();
        assert_eq!(m.row_sums(), vec![6.0, 15.0]);
        assert_eq!(m.col_sums(), vec![5.0, 7.0, 9.0]);
        assert_eq!(m.total(), 21.0);
    }

    #[test]
    fn max_ignores_empty() {
        assert_eq!(Matrix::zeros(0, 0).max(), 0.0);
        assert_eq!(sample().max(), 6.0);
    }

    #[test]
    fn map_and_map_inplace_agree() {
        let m = sample();
        let doubled = m.map(|v| 2.0 * v);
        let mut m2 = m.clone();
        m2.map_inplace(|v| 2.0 * v);
        assert_eq!(doubled, m2);
        assert_eq!(doubled.get(1, 1), 10.0);
    }

    #[test]
    fn transpose_round_trip() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn select_rows_with_duplicates() {
        let m = sample();
        let s = m.select_rows(&[1, 1, 0]);
        assert_eq!(s.rows(), 3);
        assert_eq!(s.row(0), &[4.0, 5.0, 6.0]);
        assert_eq!(s.row(2), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn vstack_concatenates() {
        let m = sample();
        let v = m.vstack(&m);
        assert_eq!(v.rows(), 4);
        assert_eq!(v.row(3), m.row(1));
    }

    #[test]
    #[should_panic(expected = "column mismatch")]
    fn vstack_mismatch_panics() {
        sample().vstack(&Matrix::zeros(1, 2));
    }

    #[test]
    fn non_finite_detection() {
        let mut m = sample();
        assert!(!m.has_non_finite());
        m.set(0, 1, f64::NAN);
        assert!(m.has_non_finite());
    }

    #[test]
    fn iter_rows_covers_all() {
        let m = sample();
        let rows: Vec<&[f64]> = m.iter_rows().collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], &[1.0, 2.0, 3.0]);
    }
}
