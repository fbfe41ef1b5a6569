//! Softmax cross-entropy — the training loss used for every output head.
//!
//! The paper (Section IV-C2) trains sampled architectures with "standard cross
//! entropy"; each private head of the multi-task network classifies the key into one
//! of the distinct values of its target column.

use crate::tensor::Matrix;
use crate::NnError;

/// Numerically-stable row-wise softmax.
pub fn softmax(logits: &Matrix) -> Matrix {
    let mut out = logits.clone();
    for r in 0..out.rows() {
        softmax_row(out.row_mut(r));
    }
    out
}

/// Softmax of one row in place.  Returns the index of the row's largest logit,
/// the lowest on a tie — the class [`argmax`](crate::tensor::argmax) predicts,
/// found by the scan the softmax needs for its shift anyway.
fn softmax_row(row: &mut [f32]) -> usize {
    let (mut top, mut max) = (0, f32::NEG_INFINITY);
    for (i, &v) in row.iter().enumerate() {
        if v > max {
            (top, max) = (i, v);
        }
    }
    let mut sum = 0.0f32;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
    top
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
    let batch = logits.rows().max(1) as f32;
    let mut loss = 0.0f32;
    for (i, &t) in targets.iter().enumerate() {
        if softmax_row(grad.row_mut(i)) != t {
            right[i] = false;
        }
        let p = grad.get(i, t);
        loss -= p.max(1e-12).ln();
        grad.set(i, t, p - 1.0);
    }
    grad.scale(1.0 / batch);
    Ok((loss / batch, grad))
}

/// Fraction of rows whose argmax prediction equals the target class.
pub fn accuracy(logits: &Matrix, targets: &[usize]) -> f32 {
    if targets.is_empty() {
        return 1.0;
    }
    let correct = targets
        .iter()
        .enumerate()
        .filter(|(i, &t)| logits.argmax_row(*i) == t)
        .count();
    correct as f32 / targets.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let logits = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -5.0, 0.0, 5.0]).unwrap();
        let p = softmax(&logits);
        for r in 0..2 {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
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

    #[test]
    fn accuracy_counts_correct_rows() {
        let logits = Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 0.0]).unwrap();
        let acc = accuracy(&logits, &[0, 1, 1]);
        assert!((acc - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(accuracy(&Matrix::zeros(0, 2), &[]), 1.0);
    }
}
