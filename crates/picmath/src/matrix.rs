//! Dense complex matrices.
//!
//! S-parameter blocks, scattering solves and unitary synthesis all run on a
//! small dense complex matrix type. Circuits in the PICBench suite are at
//! most a few hundred ports, so a row-major `Vec<Complex>` with O(n³) kernels
//! is the right tool — no sparse machinery needed.

use crate::Complex;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense, row-major complex matrix.
///
/// # Examples
///
/// ```
/// use picbench_math::{CMatrix, Complex};
///
/// let eye = CMatrix::identity(3);
/// let a = CMatrix::from_fn(3, 3, |r, c| Complex::real((r * 3 + c) as f64));
/// assert_eq!(&eye * &a, a);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex>,
}

impl CMatrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMatrix {
            rows,
            cols,
            data: vec![Complex::ZERO; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = CMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex::ONE;
        }
        m
    }

    /// Creates a matrix by evaluating `f(row, col)` for each entry.
    pub fn from_fn<F: FnMut(usize, usize) -> Complex>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut m = CMatrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m[(r, c)] = f(r, c);
            }
        }
        m
    }

    /// Creates a matrix from nested row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<Complex>]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, Vec::len);
        for row in rows {
            assert_eq!(row.len(), ncols, "all rows must have the same length");
        }
        CMatrix {
            rows: nrows,
            cols: ncols,
            data: rows.iter().flatten().copied().collect(),
        }
    }

    /// Creates a diagonal matrix from the given entries.
    pub fn from_diag(diag: &[Complex]) -> Self {
        let mut m = CMatrix::zeros(diag.len(), diag.len());
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
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

    /// Whether the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow of the underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[Complex] {
        &self.data
    }

    /// Mutable borrow of the underlying row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [Complex] {
        &mut self.data
    }

    /// Returns the entry at `(row, col)`, or `None` when out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> Option<Complex> {
        if row < self.rows && col < self.cols {
            Some(self.data[row * self.cols + col])
        } else {
            None
        }
    }

    /// The entry at `(row, col)` without a release-mode bounds check.
    ///
    /// Hot solver loops iterate over index sets that are valid by
    /// construction (they come from the matrix's own dimensions), so the
    /// per-access `assert!` of the `Index` operator is pure overhead there.
    /// Debug builds still verify every access.
    #[inline]
    pub fn at(&self, row: usize, col: usize) -> Complex {
        debug_assert!(
            row < self.rows && col < self.cols,
            "matrix index ({row}, {col}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        // SAFETY: `row < self.rows && col < self.cols` holds for every call
        // site by construction and is checked above in debug builds, so the
        // flat index is within `data` (len == rows * cols).
        unsafe { *self.data.get_unchecked(row * self.cols + col) }
    }

    /// Mutable counterpart of [`CMatrix::at`].
    #[inline]
    pub fn at_mut(&mut self, row: usize, col: usize) -> &mut Complex {
        debug_assert!(
            row < self.rows && col < self.cols,
            "matrix index ({row}, {col}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        // SAFETY: see `at`.
        unsafe { self.data.get_unchecked_mut(row * self.cols + col) }
    }

    /// Row `r` as a borrowed slice (no allocation).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    #[inline]
    pub fn row_slice(&self, r: usize) -> &[Complex] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Changes the dimensions in place, reusing the existing storage.
    ///
    /// After the call every entry is **unspecified** (a mix of stale and
    /// zero values); callers must overwrite the matrix before reading it.
    /// No allocation happens once the backing buffer has grown to its
    /// high-water mark — this is the workhorse of the sweep workspaces.
    pub fn reshape(&mut self, rows: usize, cols: usize) {
        self.data.resize(rows * cols, Complex::ZERO);
        self.rows = rows;
        self.cols = cols;
    }

    /// Overwrites the matrix by interleaving a split-complex (SoA) pair
    /// of component slices, reshaping to `rows × cols`. A pure copy — the
    /// bits of each entry are exactly the source components.
    ///
    /// # Panics
    ///
    /// Panics if `re`/`im` are not both `rows · cols` long.
    pub fn fill_from_split(&mut self, rows: usize, cols: usize, re: &[f64], im: &[f64]) {
        assert_eq!(re.len(), rows * cols, "split source has the wrong shape");
        assert_eq!(im.len(), re.len(), "split components disagree in length");
        self.reshape(rows, cols);
        for ((dst, &r), &i) in self.data.iter_mut().zip(re).zip(im) {
            *dst = Complex::new(r, i);
        }
    }

    /// Makes `self` an entry-wise copy of `other`, reshaping as needed and
    /// reusing the existing storage.
    pub fn copy_from(&mut self, other: &CMatrix) {
        self.reshape(other.rows, other.cols);
        self.data.copy_from_slice(&other.data);
    }

    /// Extracts row `r` as a vector.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> Vec<Complex> {
        assert!(r < self.rows, "row index out of bounds");
        self.data[r * self.cols..(r + 1) * self.cols].to_vec()
    }

    /// Extracts column `c` as a vector.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    pub fn col(&self, c: usize) -> Vec<Complex> {
        assert!(c < self.cols, "column index out of bounds");
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Transpose.
    pub fn transpose(&self) -> CMatrix {
        CMatrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Conjugate transpose (Hermitian adjoint).
    pub fn dagger(&self) -> CMatrix {
        CMatrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)].conj())
    }

    /// Multiplies every entry by a complex scalar.
    pub fn scale(&self, k: Complex) -> CMatrix {
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&z| z * k).collect(),
        }
    }

    /// Multiplies every entry by a complex scalar in place.
    pub fn scale_in_place(&mut self, k: Complex) {
        for z in &mut self.data {
            *z *= k;
        }
    }

    /// Matrix–vector product.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &[Complex]) -> Vec<Complex> {
        assert_eq!(v.len(), self.cols, "dimension mismatch in mul_vec");
        self.data
            .chunks_exact(self.cols.max(1))
            .take(self.rows)
            .map(|row| {
                let mut acc = Complex::ZERO;
                for (&a, &b) in row.iter().zip(v) {
                    acc += a * b;
                }
                acc
            })
            .collect()
    }

    /// Extracts the sub-matrix selecting `row_idx × col_idx`.
    pub fn submatrix(&self, row_idx: &[usize], col_idx: &[usize]) -> CMatrix {
        CMatrix::from_fn(row_idx.len(), col_idx.len(), |r, c| {
            self[(row_idx[r], col_idx[c])]
        })
    }

    /// Largest entry-wise magnitude of `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, other: &CMatrix) -> f64 {
        assert_eq!(self.rows, other.rows, "shape mismatch");
        assert_eq!(self.cols, other.cols, "shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f64::max)
    }

    /// Whether `self† · self ≈ I` within `tol` (entry-wise).
    pub fn is_unitary(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        let prod = &self.dagger() * self;
        prod.max_abs_diff(&CMatrix::identity(self.rows)) <= tol
    }

    /// Whether the matrix is entry-wise within `tol` of the identity.
    pub fn is_identity(&self, tol: f64) -> bool {
        self.is_square() && self.max_abs_diff(&CMatrix::identity(self.rows)) <= tol
    }

    /// Whether all entries are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|z| z.is_finite())
    }

    /// Swaps two rows in place.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        assert!(a < self.rows && b < self.rows, "row index out of bounds");
        if a == b {
            return;
        }
        for c in 0..self.cols {
            self.data.swap(a * self.cols + c, b * self.cols + c);
        }
    }

    /// Applies the 2×2 matrix `g` to rows `(r, r+1)` from the left:
    /// `rows ← g · rows`.
    ///
    /// # Panics
    ///
    /// Panics if `r + 1 >= self.rows()`.
    pub fn apply_left_2x2(&mut self, r: usize, g: [[Complex; 2]; 2]) {
        assert!(r + 1 < self.rows, "row pair out of bounds");
        for c in 0..self.cols {
            let top = self[(r, c)];
            let bot = self[(r + 1, c)];
            self[(r, c)] = g[0][0] * top + g[0][1] * bot;
            self[(r + 1, c)] = g[1][0] * top + g[1][1] * bot;
        }
    }

    /// Applies the 2×2 matrix `g` to columns `(c, c+1)` from the right:
    /// `cols ← cols · g`.
    ///
    /// # Panics
    ///
    /// Panics if `c + 1 >= self.cols()`.
    pub fn apply_right_2x2(&mut self, c: usize, g: [[Complex; 2]; 2]) {
        assert!(c + 1 < self.cols, "column pair out of bounds");
        for r in 0..self.rows {
            let left = self[(r, c)];
            let right = self[(r, c + 1)];
            self[(r, c)] = left * g[0][0] + right * g[1][0];
            self[(r, c + 1)] = left * g[0][1] + right * g[1][1];
        }
    }
}

impl Index<(usize, usize)> for CMatrix {
    type Output = Complex;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &Complex {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for CMatrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Complex {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &CMatrix {
    type Output = CMatrix;
    fn add(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.rows, rhs.rows, "shape mismatch in add");
        assert_eq!(self.cols, rhs.cols, "shape mismatch in add");
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a + *b)
                .collect(),
        }
    }
}

impl Sub for &CMatrix {
    type Output = CMatrix;
    fn sub(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.rows, rhs.rows, "shape mismatch in sub");
        assert_eq!(self.cols, rhs.cols, "shape mismatch in sub");
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a - *b)
                .collect(),
        }
    }
}

impl Mul for &CMatrix {
    type Output = CMatrix;
    fn mul(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.cols, rhs.rows, "dimension mismatch in matrix multiply");
        let mut out = CMatrix::zeros(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[r * self.cols + k];
                if a == Complex::ZERO {
                    continue;
                }
                let rhs_base = k * rhs.cols;
                let out_base = r * rhs.cols;
                for c in 0..rhs.cols {
                    out.data[out_base + c] += a * rhs.data[rhs_base + c];
                }
            }
        }
        out
    }
}

impl fmt::Display for CMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            write!(f, "[")?;
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.4}", self[(r, c)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64, im: f64) -> Complex {
        Complex::new(re, im)
    }

    #[test]
    fn zeros_and_identity() {
        let z = CMatrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(z.as_slice().iter().all(|&e| e == Complex::ZERO));
        let eye = CMatrix::identity(4);
        assert!(eye.is_identity(0.0));
        assert!(eye.is_unitary(1e-14));
    }

    #[test]
    fn from_rows_and_index() {
        let m = CMatrix::from_rows(&[
            vec![c(1.0, 0.0), c(2.0, 0.0)],
            vec![c(3.0, 0.0), c(4.0, 0.0)],
        ]);
        assert_eq!(m[(0, 1)], c(2.0, 0.0));
        assert_eq!(m[(1, 0)], c(3.0, 0.0));
        assert_eq!(m.get(5, 5), None);
        assert_eq!(m.get(1, 1), Some(c(4.0, 0.0)));
    }

    #[test]
    fn multiply_matches_hand_computation() {
        let a = CMatrix::from_rows(&[
            vec![c(1.0, 0.0), c(0.0, 1.0)],
            vec![c(2.0, 0.0), c(0.0, 0.0)],
        ]);
        let b = CMatrix::from_rows(&[
            vec![c(0.0, 1.0), c(1.0, 0.0)],
            vec![c(1.0, 0.0), c(0.0, -1.0)],
        ]);
        let p = &a * &b;
        // (1)(i) + (i)(1) = 2i ; (1)(1) + (i)(-i) = 2
        assert!(p[(0, 0)].approx_eq(c(0.0, 2.0), 1e-12));
        assert!(p[(0, 1)].approx_eq(c(2.0, 0.0), 1e-12));
        assert!(p[(1, 0)].approx_eq(c(0.0, 2.0), 1e-12));
        assert!(p[(1, 1)].approx_eq(c(2.0, 0.0), 1e-12));
    }

    #[test]
    fn identity_is_multiplicative_neutral() {
        let a = CMatrix::from_fn(3, 3, |r, cc| c(r as f64, cc as f64));
        assert_eq!(&CMatrix::identity(3) * &a, a);
        assert_eq!(&a * &CMatrix::identity(3), a);
    }

    #[test]
    fn dagger_reverses_products() {
        let a = CMatrix::from_fn(2, 2, |r, cc| c(r as f64 + 1.0, cc as f64));
        let b = CMatrix::from_fn(2, 2, |r, cc| c(cc as f64, r as f64 - 1.0));
        let lhs = (&a * &b).dagger();
        let rhs = &b.dagger() * &a.dagger();
        assert!(lhs.max_abs_diff(&rhs) < 1e-12);
    }

    #[test]
    fn mul_vec_matches_matrix_mul() {
        let a = CMatrix::from_fn(3, 2, |r, cc| c((r + cc) as f64, 1.0));
        let v = vec![c(1.0, 0.0), c(0.0, 1.0)];
        let got = a.mul_vec(&v);
        for r in 0..3 {
            let want = a[(r, 0)] * v[0] + a[(r, 1)] * v[1];
            assert!(got[r].approx_eq(want, 1e-12));
        }
    }

    #[test]
    fn submatrix_selects_entries() {
        let a = CMatrix::from_fn(4, 4, |r, cc| c((r * 4 + cc) as f64, 0.0));
        let s = a.submatrix(&[1, 3], &[0, 2]);
        assert_eq!(s.rows(), 2);
        assert_eq!(s[(0, 0)], c(4.0, 0.0));
        assert_eq!(s[(1, 1)], c(14.0, 0.0));
    }

    #[test]
    fn swap_rows_exchanges_content() {
        let mut a = CMatrix::from_fn(3, 2, |r, _| c(r as f64, 0.0));
        a.swap_rows(0, 2);
        assert_eq!(a[(0, 0)], c(2.0, 0.0));
        assert_eq!(a[(2, 0)], c(0.0, 0.0));
    }

    #[test]
    fn apply_left_2x2_rotates_rows() {
        let mut a = CMatrix::identity(3);
        let g = [[Complex::ZERO, Complex::ONE], [Complex::ONE, Complex::ZERO]];
        a.apply_left_2x2(1, g);
        // Rows 1 and 2 swapped.
        assert_eq!(a[(1, 2)], Complex::ONE);
        assert_eq!(a[(2, 1)], Complex::ONE);
        assert_eq!(a[(1, 1)], Complex::ZERO);
    }

    #[test]
    fn apply_right_2x2_mixes_columns() {
        let mut a = CMatrix::identity(2);
        let th = 0.3_f64;
        let g = [
            [Complex::real(th.cos()), Complex::real(-th.sin())],
            [Complex::real(th.sin()), Complex::real(th.cos())],
        ];
        a.apply_right_2x2(0, g);
        assert!(a.is_unitary(1e-12));
        assert!(a[(0, 0)].approx_eq(Complex::real(th.cos()), 1e-12));
    }

    #[test]
    fn diag_constructor() {
        let d = CMatrix::from_diag(&[c(1.0, 0.0), c(0.0, 1.0)]);
        assert_eq!(d[(0, 0)], Complex::ONE);
        assert_eq!(d[(1, 1)], Complex::i());
        assert_eq!(d[(0, 1)], Complex::ZERO);
    }

    #[test]
    fn non_square_is_not_unitary() {
        assert!(!CMatrix::zeros(2, 3).is_unitary(1e-9));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn multiply_shape_mismatch_panics() {
        let a = CMatrix::zeros(2, 3);
        let b = CMatrix::zeros(2, 3);
        let _ = &a * &b;
    }

    #[test]
    fn at_matches_index() {
        let a = CMatrix::from_fn(3, 4, |r, cc| c(r as f64, cc as f64));
        for r in 0..3 {
            for cc in 0..4 {
                assert_eq!(a.at(r, cc), a[(r, cc)]);
            }
        }
        assert_eq!(a.row_slice(1), &a.as_slice()[4..8]);
    }

    #[test]
    fn reshape_and_copy_from_reuse_storage() {
        let mut buf = CMatrix::zeros(5, 5);
        let src = CMatrix::from_fn(3, 2, |r, cc| c((r + cc) as f64, 0.0));
        buf.copy_from(&src);
        assert_eq!(buf, src);
        buf.reshape(2, 2);
        assert_eq!(buf.rows(), 2);
        assert_eq!(buf.cols(), 2);
    }

    #[test]
    fn scale_in_place_matches_scale() {
        let a = CMatrix::from_fn(2, 3, |r, cc| c(r as f64 + 1.0, cc as f64));
        let mut b = a.clone();
        b.scale_in_place(c(0.5, -1.0));
        assert!(b.max_abs_diff(&a.scale(c(0.5, -1.0))) < 1e-15);
    }
}
