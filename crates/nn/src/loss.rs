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
        let row = out.row_mut(r);
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
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
    }
    out
}

/// Computes mean softmax cross-entropy loss and its gradient w.r.t. the logits.
///
/// `targets[i]` is the class index of row `i`.  Returns `(loss, grad)` where `grad`
/// has the same shape as `logits` and already includes the `1/batch` factor, so it can
/// be fed straight into the model's backward pass.
pub fn softmax_cross_entropy(logits: &Matrix, targets: &[usize]) -> crate::Result<(f32, Matrix)> {
    if targets.len() != logits.rows() {
        return Err(NnError::ShapeMismatch {
            context: format!(
                "softmax_cross_entropy: {} logit rows but {} targets",
                logits.rows(),
                targets.len()
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
    let mut grad = softmax(logits);
    let batch = logits.rows().max(1) as f32;
    let mut loss = 0.0f32;
    for (i, &t) in targets.iter().enumerate() {
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
        let (loss, _) = softmax_cross_entropy(&logits, &[0, 1]).unwrap();
        assert!(loss < 1e-3);
    }

    #[test]
    fn cross_entropy_gradient_matches_numerical_estimate() {
        let logits = Matrix::from_vec(2, 3, vec![0.3, -0.2, 0.9, 1.5, 0.1, -0.4]).unwrap();
        let targets = [2usize, 0usize];
        let (_, grad) = softmax_cross_entropy(&logits, &targets).unwrap();
        let eps = 1e-3f32;
        for r in 0..2 {
            for c in 0..3 {
                let mut plus = logits.clone();
                plus.set(r, c, logits.get(r, c) + eps);
                let mut minus = logits.clone();
                minus.set(r, c, logits.get(r, c) - eps);
                let (lp, _) = softmax_cross_entropy(&plus, &targets).unwrap();
                let (lm, _) = softmax_cross_entropy(&minus, &targets).unwrap();
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
        assert!(softmax_cross_entropy(&logits, &[0]).is_err());
        assert!(softmax_cross_entropy(&logits, &[0, 5]).is_err());
    }

    #[test]
    fn accuracy_counts_correct_rows() {
        let logits = Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 0.0]).unwrap();
        let acc = accuracy(&logits, &[0, 1, 1]);
        assert!((acc - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(accuracy(&Matrix::zeros(0, 2), &[]), 1.0);
    }
}
