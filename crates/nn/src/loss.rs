//! Softmax cross-entropy — the training loss used for every output head.
//!
//! The paper (Section IV-C2) trains sampled architectures with "standard cross
//! entropy"; each private head of the multi-task network classifies the key into one
//! of the distinct values of its target column.

use crate::exp::exp_shifted_rows;
use crate::kernel::{self, RowsView};
use crate::tensor::Matrix;
use crate::NnError;

/// Rows a softmax pass takes together, so that their sums — each one chain in
/// column order — run side by side.
const BLOCK_ROWS: usize = 16;

/// Softmax of every `classes`-wide row of `data` in place.  `tops[i]` is set
/// to the index of row `i`'s largest logit, the lowest on a tie — the class
/// [`argmax`](crate::tensor::argmax) predicts, found by the scan the softmax
/// needs for its shift anyway ([`kernel::argmax_rows`]).
///
/// Row by row: the largest logit `m` (`−∞` when nothing is above it), every
/// `v = exp(v − m)`, their sum from `+0.0` in column order, and every value
/// divided by the sum when it is positive.  The `exp` is the crate's own
/// recipe ([`exp_shifted_rows`]) — libm's FMA form, computed here, so a
/// host's libm cannot move a trained weight — vectorized along the rows;
/// every form of it gives the same bits.  A sum stays one chain per row: the
/// rows of a block of [`BLOCK_ROWS`] add side by side instead.
fn softmax_rows(data: &mut [f32], classes: usize, tops: &mut [u32]) {
    if classes == 0 {
        tops.fill(0);
        return;
    }
    let kernel = kernel::active();
    for (block, tops) in data
        .chunks_mut(BLOCK_ROWS * classes)
        .zip(tops.chunks_mut(BLOCK_ROWS))
    {
        let rows =
            RowsView::new(block, classes, tops.len(), classes).expect("a block is whole rows");
        kernel::argmax_rows(kernel, rows, tops, 1).expect("one top per row");
        let mut maxes = [f32::NEG_INFINITY; BLOCK_ROWS];
        for ((max, row), &top) in maxes
            .iter_mut()
            .zip(block.chunks_exact(classes))
            .zip(&*tops)
        {
            *max = row[top as usize].max(f32::NEG_INFINITY);
        }
        exp_shifted_rows(kernel, block, classes, &maxes);
        let mut sums = [0.0f32; BLOCK_ROWS];
        for c in 0..classes {
            for (sum, row) in sums.iter_mut().zip(block.chunks_exact(classes)) {
                *sum += row[c];
            }
        }
        for (row, &sum) in block.chunks_exact_mut(classes).zip(&sums) {
            if sum > 0.0 {
                for v in row {
                    *v /= sum;
                }
            }
        }
    }
}

/// Computes mean softmax cross-entropy loss and its gradient w.r.t. the logits.
///
/// `targets[i]` is the class index of row `i`.  Returns `(loss, grad)` where `grad`
/// has the same shape as `logits` and already includes the `1/batch` factor, so it can
/// be fed straight into the model's backward pass.  `right[i]` is cleared when row
/// `i`'s target is not its argmax and left alone otherwise, so one mask passed
/// through every head of a model ends up marking the rows all of them get right.
pub fn softmax_cross_entropy(
    logits: &Matrix,
    targets: &[usize],
    right: &mut [bool],
) -> crate::Result<(f32, Matrix)> {
    if targets.len() != logits.rows() || right.len() != logits.rows() {
        return Err(NnError::ShapeMismatch {
            context: format!(
                "softmax_cross_entropy: {} logit rows but {} targets and {} right flags",
                logits.rows(),
                targets.len(),
                right.len()
            ),
        });
    }
    let classes = logits.cols();
    for (i, &t) in targets.iter().enumerate() {
        if t >= classes {
            return Err(NnError::InvalidConfig(format!(
                "target {t} at row {i} is out of range for {classes} classes"
            )));
        }
    }
    // The gradient is the probabilities with one subtracted at each row's
    // target, so it is written over them: one matrix, not two.
    let mut grad = logits.clone();
    let mut tops = vec![0; logits.rows()];
    softmax_rows(grad.as_mut_slice(), classes, &mut tops);
    let batch = logits.rows().max(1) as f32;
    let scale = 1.0 / batch;
    let mut loss = 0.0f32;
    for (i, (&t, &top)) in targets.iter().zip(&tops).enumerate() {
        if top as usize != t {
            right[i] = false;
        }
        let row = grad.row_mut(i);
        let p = row[t];
        loss -= p.max(1e-12).ln();
        row[t] = p - 1.0;
        for v in row {
            *v *= scale;
        }
    }
    Ok((loss / batch, grad))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Row-wise softmax of `logits` by the pass the loss runs.
    fn softmax(logits: &Matrix) -> Matrix {
        let mut out = logits.clone();
        let mut tops = vec![0; out.rows()];
        softmax_rows(out.as_mut_slice(), logits.cols(), &mut tops);
        out
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let logits = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -5.0, 0.0, 5.0]).unwrap();
        let p = softmax(&logits);
        for r in 0..2 {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    /// The softmax of every row is the one-row recipe — the largest logit
    /// (`−∞` when nothing is above it), the `exp` of each value less it, their
    /// sum in column order from `+0.0`, each value divided by it — bit for
    /// bit, wherever the row falls in a block and under every kernel form:
    /// over logits spread far enough that values underflow, with ties, `±0.0`
    /// and rows of nothing but `−∞`.
    #[test]
    fn softmax_rows_are_the_one_row_recipe_in_every_form() {
        use crate::exp::exp_shifted_rows;
        use crate::kernel::Kernel;
        let rows = 2 * BLOCK_ROWS + 5;
        for classes in [1usize, 3, 4, 16, 17, 35, 64] {
            let mut logits = Matrix::zeros(rows, classes);
            for r in 0..rows {
                for c in 0..classes {
                    let h = (r * 31 + c * 17) % 23;
                    let v = match (r % 7, h) {
                        (6, _) => f32::NEG_INFINITY,
                        (_, 0) => -0.0,
                        (_, 1) => 0.0,
                        _ => (h as f32 - 11.0) * (1.0 + (r % 5) as f32 * 9.0),
                    };
                    logits.set(r, c, v);
                }
            }
            let mut expected = logits.clone();
            for r in 0..rows {
                let row = expected.row_mut(r);
                let top = crate::tensor::argmax(row);
                let max = if row[top] > f32::NEG_INFINITY {
                    row[top]
                } else {
                    f32::NEG_INFINITY
                };
                exp_shifted_rows(Kernel::Scalar, row, classes, &[max]);
                let sum = row.iter().fold(0.0f32, |sum, &v| sum + v);
                if sum > 0.0 {
                    row.iter_mut().for_each(|v| *v /= sum);
                }
            }
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            kernel::tests::under_each_form(|form| {
                assert_eq!(
                    bits(&softmax(&logits)),
                    bits(&expected),
                    "{classes} classes, {form}"
                );
            });
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Matrix::row_vector(&[1.0, 2.0, 3.0]);
        let b = Matrix::row_vector(&[101.0, 102.0, 103.0]);
        let pa = softmax(&a);
        let pb = softmax(&b);
        for (x, y) in pa.as_slice().iter().zip(pb.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn cross_entropy_of_perfect_prediction_is_small() {
        let logits = Matrix::from_vec(2, 2, vec![20.0, -20.0, -20.0, 20.0]).unwrap();
        let mut right = [true; 2];
        let (loss, _) = softmax_cross_entropy(&logits, &[0, 1], &mut right).unwrap();
        assert!(loss < 1e-3);
        assert_eq!(right, [true, true]);
    }

    #[test]
    fn cross_entropy_gradient_matches_numerical_estimate() {
        let logits = Matrix::from_vec(2, 3, vec![0.3, -0.2, 0.9, 1.5, 0.1, -0.4]).unwrap();
        let targets = [2usize, 0usize];
        let (_, grad) = softmax_cross_entropy(&logits, &targets, &mut [true; 2]).unwrap();
        let eps = 1e-3f32;
        for r in 0..2 {
            for c in 0..3 {
                let mut plus = logits.clone();
                plus.set(r, c, logits.get(r, c) + eps);
                let mut minus = logits.clone();
                minus.set(r, c, logits.get(r, c) - eps);
                let (lp, _) = softmax_cross_entropy(&plus, &targets, &mut [true; 2]).unwrap();
                let (lm, _) = softmax_cross_entropy(&minus, &targets, &mut [true; 2]).unwrap();
                let numeric = (lp - lm) / (2.0 * eps);
                let analytic = grad.get(r, c);
                assert!(
                    (numeric - analytic).abs() < 1e-2,
                    "numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn cross_entropy_rejects_bad_targets() {
        let logits = Matrix::zeros(2, 2);
        assert!(softmax_cross_entropy(&logits, &[0], &mut [true; 2]).is_err());
        assert!(softmax_cross_entropy(&logits, &[0, 5], &mut [true; 2]).is_err());
        assert!(softmax_cross_entropy(&logits, &[0, 1], &mut [true; 3]).is_err());
    }

    /// A row stays right exactly when its target is the class `argmax` picks —
    /// the lower index on a tie — and a row some earlier head got wrong stays
    /// wrong.
    #[test]
    fn cross_entropy_clears_the_rows_whose_argmax_is_not_the_target() {
        let logits =
            Matrix::from_vec(4, 3, vec![0.1, 0.9, 0.2, 0.5, 0.5, 0.0, 0.5, 0.5, 0.0, 2.0, 1.0, 0.0])
                .unwrap();
        let targets = [1, 0, 1, 0];
        let mut right = [true, true, true, false];
        softmax_cross_entropy(&logits, &targets, &mut right).unwrap();
        assert_eq!(right, [true, true, false, false]);
        for (row, &target) in targets.iter().enumerate().take(3) {
            assert_eq!(right[row], logits.argmax_row(row) == target, "row {row}");
        }
    }
}
