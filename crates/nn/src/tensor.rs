//! Row-major `f32` matrices and the small set of operations the training and inference
//! paths need.
//!
//! The matrix type is deliberately simple: a `Vec<f32>` plus dimensions.  The hot path
//! of DeepMapping is batched inference — `batch × in_dim` times `in_dim × out_dim`
//! matrix products — so `matmul` is written with a k-inner loop over rows of the
//! right-hand side, which vectorizes well and is cache friendly for the row-major
//! layout without needing an explicit transpose.

use crate::NnError;

/// Row count above which [`Matrix::matmul_rows`] packs the right-hand side
/// into lane panels and runs the SIMD kernel instead of the scalar unroll.
/// Below this, the O(k·n) pack costs more than the kernel saves (measured on
/// the LSTM controller shapes: 1-row steps want the unroll, ≥16-row batched
/// projections want panels).
const PACKED_MATMUL_MIN_ROWS: usize = 16;

/// A dense row-major `f32` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
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

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a matrix from an existing row-major buffer.
    ///
    /// Returns an error if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> crate::Result<Self> {
        if data.len() != rows * cols {
            return Err(NnError::ShapeMismatch {
                context: format!(
                    "from_vec: buffer of {} elements cannot form a {rows}x{cols} matrix",
                    data.len()
                ),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a 1 × n row vector.
    pub fn row_vector(values: &[f32]) -> Self {
        Matrix {
            rows: 1,
            cols: values.len(),
            data: values.to_vec(),
        }
    }

    /// Makes this a `rows × cols` matrix, reusing the allocation whenever its
    /// capacity suffices.  The contents are whatever the buffer held (zeros
    /// where it grew): for a caller about to overwrite every element.  Training
    /// keeps one activation matrix per layer and one feature matrix per run;
    /// reshaping them per step instead of allocating keeps a steady-state step
    /// allocation-free — a buffer only ever grows to the largest batch seen.
    pub fn reshape(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
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

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Returns the element at (`r`, `c`).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Sets the element at (`r`, `c`).
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self (m×k) · rhs (k×n) -> m×n`.
    ///
    /// The k dimension is processed four rows of `rhs` at a time, so every pass
    /// over the output row does four fused multiply-adds per element instead of
    /// one — output-row memory traffic, not multiplies, is what bounds the naive
    /// k-inner loop.  Inference is matmul-bound (ROADMAP "known slow paths"), so
    /// this directly moves batch-lookup throughput.
    pub fn matmul(&self, rhs: &Matrix) -> crate::Result<Matrix> {
        self.matmul_rows(0, self.rows, rhs)
    }

    /// `self[start .. start + count] (count×k) · rhs (k×n) -> count×n`: the
    /// product of a row window of `self` with `rhs`, without materializing the
    /// window.  This is what lets cache-blocked batch inference chunk
    /// its input for free.  Same kernel as [`matmul`](Self::matmul) (which is the
    /// full-range special case).
    pub fn matmul_rows(&self, start: usize, count: usize, rhs: &Matrix) -> crate::Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(NnError::ShapeMismatch {
                context: format!(
                    "matmul: lhs is {}x{}, rhs is {}x{}",
                    self.rows, self.cols, rhs.rows, rhs.cols
                ),
            });
        }
        if start + count > self.rows {
            return Err(NnError::ShapeMismatch {
                context: format!(
                    "matmul_rows: rows [{start}, {}) of a matrix with {} rows",
                    start + count,
                    self.rows
                ),
            });
        }
        // Batched products (LSTM projections, DeepSqueeze encode, training
        // passes over ad-hoc matrices) go through the packed-panel kernel:
        // the one-time pack of `rhs` is O(k·n) and amortizes over the row
        // count, after which every row runs the register-blocked FMA kernel
        // instead of this scalar 4-wide unroll.  Small products keep the
        // unrolled loop — packing would cost more than it saves.
        if count >= PACKED_MATMUL_MIN_ROWS {
            let panels = crate::kernel::PackedPanels::pack(rhs, None)?;
            return crate::kernel::forward_packed(
                self,
                start,
                count,
                &panels,
                crate::layer::Activation::Linear,
            );
        }
        let mut out = Matrix::zeros(count, rhs.cols);
        let n = rhs.cols;
        let k_dim = self.cols;
        for i in 0..count {
            let lhs_row = self.row(start + i);
            let out_row = &mut out.data[i * n..(i + 1) * n];
            let mut k = 0;
            while k + 4 <= k_dim {
                let (a0, a1, a2, a3) =
                    (lhs_row[k], lhs_row[k + 1], lhs_row[k + 2], lhs_row[k + 3]);
                // ReLU activations are zero-heavy; skip fully dead k-blocks.
                if a0 != 0.0 || a1 != 0.0 || a2 != 0.0 || a3 != 0.0 {
                    let (r0, rest) = rhs.data[k * n..(k + 4) * n].split_at(n);
                    let (r1, rest) = rest.split_at(n);
                    let (r2, r3) = rest.split_at(n);
                    for ((((o, &b0), &b1), &b2), &b3) in
                        out_row.iter_mut().zip(r0).zip(r1).zip(r2).zip(r3)
                    {
                        *o += a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3;
                    }
                }
                k += 4;
            }
            for (k, &a) in lhs_row.iter().enumerate().skip(k) {
                if a == 0.0 {
                    continue;
                }
                let rhs_row = &rhs.data[k * n..(k + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(rhs_row.iter()) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// `self (m×k) · rhs^T (n×k) -> m×n`, i.e. multiply by the transpose of `rhs`
    /// without materializing it.  Used in backward passes.
    pub fn matmul_transpose_rhs(&self, rhs: &Matrix) -> crate::Result<Matrix> {
        if self.cols != rhs.cols {
            return Err(NnError::ShapeMismatch {
                context: format!(
                    "matmul_transpose_rhs: lhs is {}x{}, rhs is {}x{}",
                    self.rows, self.cols, rhs.rows, rhs.cols
                ),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        for i in 0..self.rows {
            let lhs_row = self.row(i);
            for j in 0..rhs.rows {
                let rhs_row = rhs.row(j);
                let mut acc = 0.0f32;
                for (&a, &b) in lhs_row.iter().zip(rhs_row.iter()) {
                    acc += a * b;
                }
                out.data[i * rhs.rows + j] = acc;
            }
        }
        Ok(out)
    }

    /// `self^T (k×m becomes m×k view) · rhs (k×n) -> m×n`, i.e. multiply the transpose
    /// of `self` by `rhs` without materializing the transpose.  Used for weight
    /// gradients (`x^T · dy`).
    ///
    /// Runs on the lane-vectorized FMA kernel ([`crate::kernel::transpose_matmul`]);
    /// the scalar fallback performs the identical element-wise fused
    /// multiply-adds, so results never depend on kernel selection.
    pub fn transpose_matmul(&self, rhs: &Matrix) -> crate::Result<Matrix> {
        crate::kernel::transpose_matmul(self, rhs)
    }

    /// Returns an explicit transpose of the matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Adds `bias` (a `1 × cols` row vector) to every row in place.
    pub fn add_row_broadcast(&mut self, bias: &Matrix) -> crate::Result<()> {
        if bias.rows != 1 || bias.cols != self.cols {
            return Err(NnError::ShapeMismatch {
                context: format!(
                    "add_row_broadcast: bias is {}x{}, matrix has {} columns",
                    bias.rows, bias.cols, self.cols
                ),
            });
        }
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (o, &b) in row.iter_mut().zip(bias.data.iter()) {
                *o += b;
            }
        }
        Ok(())
    }

    /// Element-wise `self += other * scale`.
    pub fn add_scaled(&mut self, other: &Matrix, scale: f32) -> crate::Result<()> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(NnError::ShapeMismatch {
                context: format!(
                    "add_scaled: lhs is {}x{}, rhs is {}x{}",
                    self.rows, self.cols, other.rows, other.cols
                ),
            });
        }
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b * scale;
        }
        Ok(())
    }

    /// Multiplies every element by a scalar in place.
    pub fn scale(&mut self, factor: f32) {
        for a in self.data.iter_mut() {
            *a *= factor;
        }
    }

    /// Sums over rows, producing a `1 × cols` row vector.  Used for bias gradients.
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            let row = self.row(r);
            for (o, &v) in out.data.iter_mut().zip(row.iter()) {
                *o += v;
            }
        }
        out
    }

    /// Mean of all elements; zero for an empty matrix.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().sum::<f32>() / self.data.len() as f32
    }

    /// Squared Frobenius norm.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// Index of the maximum element of row `r` (ties resolved to the lowest index).
    pub fn argmax_row(&self, r: usize) -> usize {
        argmax(self.row(r))
    }

    /// Extracts a contiguous block of rows `[start, start + count)` as a new matrix.
    pub fn rows_slice(&self, start: usize, count: usize) -> crate::Result<Matrix> {
        if start + count > self.rows {
            return Err(NnError::ShapeMismatch {
                context: format!(
                    "rows_slice: requested rows [{start}, {}) of a matrix with {} rows",
                    start + count,
                    self.rows
                ),
            });
        }
        let data = self.data[start * self.cols..(start + count) * self.cols].to_vec();
        Ok(Matrix {
            rows: count,
            cols: self.cols,
            data,
        })
    }

    /// Concatenates two matrices with the same number of rows column-wise.
    pub fn hstack(&self, other: &Matrix) -> crate::Result<Matrix> {
        if self.rows != other.rows {
            return Err(NnError::ShapeMismatch {
                context: format!(
                    "hstack: lhs has {} rows, rhs has {} rows",
                    self.rows, other.rows
                ),
            });
        }
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
        Ok(out)
    }
}

/// Index of the largest value (ties resolved to the lowest index; 0 for an
/// empty or all-NaN slice) — the class a logit row predicts.
pub fn argmax(values: &[f32]) -> usize {
    let mut best = 0usize;
    let mut best_v = f32::NEG_INFINITY;
    for (i, &v) in values.iter().enumerate() {
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx_eq(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-5
    }

    #[test]
    fn zeros_has_expected_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        assert!(Matrix::from_vec(2, 3, vec![0.0; 5]).is_err());
        assert!(Matrix::from_vec(2, 3, vec![0.0; 6]).is_ok());
    }

    #[test]
    fn matmul_matches_hand_computed_product() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 2);
        assert!(approx_eq(c.get(0, 0), 58.0));
        assert!(approx_eq(c.get(0, 1), 64.0));
        assert!(approx_eq(c.get(1, 0), 139.0));
        assert!(approx_eq(c.get(1, 1), 154.0));
    }

    #[test]
    fn matmul_rejects_mismatched_inner_dims() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        assert!(a.matmul(&b).is_err());
    }

    /// `matmul` accumulates four k-terms per pass, so it is only
    /// ulp-equivalent — not bitwise-equal — to the transpose variants' purely
    /// sequential sums; compare with a tolerance.
    fn assert_matrices_close(a: &Matrix, b: &Matrix) {
        assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
        for (&x, &y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!(approx_eq(x, y), "{x} vs {y}");
        }
    }

    #[test]
    fn transpose_variants_agree_with_explicit_transpose() {
        let a = Matrix::from_vec(2, 3, vec![1.0, -2.0, 3.0, 0.5, 4.0, -1.0]).unwrap();
        let b = Matrix::from_vec(4, 3, (0..12).map(|v| v as f32 * 0.3 - 1.0).collect()).unwrap();
        // a (2x3) * b^T (3x4) == a * transpose(b)
        let fast = a.matmul_transpose_rhs(&b).unwrap();
        let slow = a.matmul(&b.transpose()).unwrap();
        assert_matrices_close(&fast, &slow);

        let c = Matrix::from_vec(2, 4, (0..8).map(|v| v as f32).collect()).unwrap();
        // a^T (3x2) * c (2x4)
        let fast = a.transpose_matmul(&c).unwrap();
        let slow = a.transpose().matmul(&c).unwrap();
        assert_matrices_close(&fast, &slow);
    }

    /// The unrolled k-blocks and the scalar tail must agree across every k
    /// remainder (k % 4 ∈ {0,1,2,3}) and handle zero-heavy rows.
    #[test]
    fn matmul_handles_all_k_remainders_and_sparse_rows() {
        for k_dim in 1..=9usize {
            let m = 3;
            let n = 5;
            let a = Matrix::from_vec(
                m,
                k_dim,
                (0..m * k_dim)
                    .map(|v| if v % 3 == 0 { 0.0 } else { v as f32 * 0.25 - 1.0 })
                    .collect(),
            )
            .unwrap();
            let b = Matrix::from_vec(
                k_dim,
                n,
                (0..k_dim * n).map(|v| v as f32 * 0.5 - 3.0).collect(),
            )
            .unwrap();
            let got = a.matmul(&b).unwrap();
            // Reference: textbook i-j-k triple loop.
            let mut expected = Matrix::zeros(m, n);
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for k in 0..k_dim {
                        acc += a.get(i, k) * b.get(k, j);
                    }
                    expected.set(i, j, acc);
                }
            }
            assert_matrices_close(&got, &expected);
            // The packed-panel kernel must agree on the same k remainders and
            // zero-heavy rows (zero bias + linear activation = plain matmul).
            let panels = crate::kernel::PackedPanels::pack(&b, None).unwrap();
            let packed = crate::kernel::forward_packed(
                &a,
                0,
                m,
                &panels,
                crate::layer::Activation::Linear,
            )
            .unwrap();
            assert_matrices_close(&packed, &expected);
        }
    }

    /// Above `PACKED_MATMUL_MIN_ROWS` the product routes through pack-on-the-
    /// fly panels; it must agree with the textbook triple loop on the same
    /// remainder classes (fused vs unfused accumulation differs only in ulps).
    #[test]
    fn large_matmul_routes_through_panels_and_matches_reference() {
        let m = PACKED_MATMUL_MIN_ROWS + 7;
        for &(k_dim, n) in &[(1usize, 1usize), (7, 5), (9, 16), (13, 21)] {
            let a = Matrix::from_vec(
                m,
                k_dim,
                (0..m * k_dim)
                    .map(|v| if v % 4 == 0 { 0.0 } else { v as f32 * 0.17 - 2.0 })
                    .collect(),
            )
            .unwrap();
            let b = Matrix::from_vec(
                k_dim,
                n,
                (0..k_dim * n).map(|v| v as f32 * 0.31 - 1.5).collect(),
            )
            .unwrap();
            let got = a.matmul(&b).unwrap();
            let mut expected = Matrix::zeros(m, n);
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for k in 0..k_dim {
                        acc += a.get(i, k) * b.get(k, j);
                    }
                    expected.set(i, j, acc);
                }
            }
            // Relative tolerance: fused vs unfused sums differ in low bits and
            // the magnitudes here reach the hundreds.
            for (&x, &y) in got.as_slice().iter().zip(expected.as_slice()) {
                assert!((x - y).abs() <= 1e-5 * (1.0 + y.abs()), "{x} vs {y}");
            }
        }
    }

    #[test]
    fn add_row_broadcast_adds_bias_to_each_row() {
        let mut m = Matrix::zeros(2, 3);
        let bias = Matrix::row_vector(&[1.0, 2.0, 3.0]);
        m.add_row_broadcast(&bias).unwrap();
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn sum_rows_accumulates_columns() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let s = m.sum_rows();
        assert_eq!(s.as_slice(), &[4.0, 6.0]);
    }

    #[test]
    fn argmax_row_picks_largest() {
        let m = Matrix::from_vec(2, 3, vec![0.1, 0.9, 0.5, 2.0, -1.0, 1.5]).unwrap();
        assert_eq!(m.argmax_row(0), 1);
        assert_eq!(m.argmax_row(1), 0);
    }

    #[test]
    fn rows_slice_copies_a_window_of_rows() {
        let m = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let s = m.rows_slice(1, 2).unwrap();
        assert_eq!(s.row(0), &[3.0, 4.0]);
        assert_eq!(s.row(1), &[5.0, 6.0]);
        assert!(m.rows_slice(2, 2).is_err());
    }

    #[test]
    fn reshape_reuses_the_allocation_and_tracks_shape() {
        let mut m = Matrix::filled(4, 8, 7.0);
        let ptr = m.as_slice().as_ptr();
        m.reshape(2, 3);
        assert_eq!((m.rows(), m.cols(), m.len()), (2, 3, 6));
        // Shrinking (or same-size) reshapes must not reallocate: the scratch
        // discipline training relies on.
        assert_eq!(m.as_slice().as_ptr(), ptr);
        m.reshape(4, 8);
        assert_eq!(m.as_slice().as_ptr(), ptr);
        // What the buffer grows by is zeros, what it held stays.
        assert_eq!(m.as_slice()[..6], [7.0; 6]);
        assert!(m.as_slice()[6..].iter().all(|&v| v == 0.0));
        // Growing past capacity reallocates once, then stays stable.
        m.reshape(8, 8);
        let grown_ptr = m.as_slice().as_ptr();
        m.reshape(2, 3);
        m.reshape(8, 8);
        assert_eq!(m.as_slice().as_ptr(), grown_ptr);
        assert_eq!((m.rows(), m.cols()), (8, 8));
    }

    #[test]
    fn hstack_concatenates_columns() {
        let a = Matrix::from_vec(2, 1, vec![1.0, 2.0]).unwrap();
        let b = Matrix::from_vec(2, 2, vec![3.0, 4.0, 5.0, 6.0]).unwrap();
        let c = a.hstack(&b).unwrap();
        assert_eq!(c.row(0), &[1.0, 3.0, 4.0]);
        assert_eq!(c.row(1), &[2.0, 5.0, 6.0]);
    }

    #[test]
    fn scale_and_add_scaled() {
        let mut a = Matrix::filled(2, 2, 2.0);
        let b = Matrix::filled(2, 2, 1.0);
        a.add_scaled(&b, 3.0).unwrap();
        assert!(a.as_slice().iter().all(|&v| approx_eq(v, 5.0)));
        a.scale(0.5);
        assert!(a.as_slice().iter().all(|&v| approx_eq(v, 2.5)));
    }
}
