//! Gradient-descent optimizers.
//!
//! Training runs [`Adam`]: `MappingModel::train` and the DeepSqueeze baseline both
//! step it, and the training schedule anneals it through
//! [`Optimizer::set_learning_rate`] when the loss plateaus.  An optimizer updates a
//! flat list of `(parameter, gradient)` pairs, so the same code path serves dense
//! layers, multi-layer perceptrons and multi-task models.

use crate::tensor::Matrix;

/// A stateful optimizer that applies one update step to a set of parameters.
pub trait Optimizer {
    /// Applies one update step.  `params` pairs each mutable parameter matrix with the
    /// gradient computed by the latest backward pass.  Parameters are identified by
    /// their position in the list, so callers must present them in a stable order.
    fn step(&mut self, params: &mut [(&mut Matrix, &Matrix)]);

    /// The current learning rate (after any decay).
    fn learning_rate(&self) -> f32;

    /// Overrides the current learning rate (used by plateau-annealing schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Adam optimizer (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    first_moment: Vec<Matrix>,
    second_moment: Vec<Matrix>,
}

impl Adam {
    /// Creates an Adam optimizer with the given learning rate and standard betas.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            first_moment: Vec::new(),
            second_moment: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [(&mut Matrix, &Matrix)]) {
        if self.first_moment.len() != params.len() {
            self.first_moment = params
                .iter()
                .map(|(p, _)| Matrix::zeros(p.rows(), p.cols()))
                .collect();
            self.second_moment = self.first_moment.clone();
            self.t = 0;
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (i, (param, grad)) in params.iter_mut().enumerate() {
            let m = &mut self.first_moment[i];
            let v = &mut self.second_moment[i];
            if m.rows() != param.rows() || m.cols() != param.cols() {
                *m = Matrix::zeros(param.rows(), param.cols());
                *v = Matrix::zeros(param.rows(), param.cols());
            }
            for (((m_i, v_i), p), &g) in m
                .as_mut_slice()
                .iter_mut()
                .zip(v.as_mut_slice().iter_mut())
                .zip(param.as_mut_slice().iter_mut())
                .zip(grad.as_slice())
            {
                *m_i = self.beta1 * *m_i + (1.0 - self.beta1) * g;
                *v_i = self.beta2 * *v_i + (1.0 - self.beta2) * g * g;
                let m_hat = *m_i / bc1;
                let v_hat = *v_i / bc2;
                *p -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizes f(x) = (x - 3)^2 with each optimizer and checks convergence.
    fn minimize<O: Optimizer>(mut opt: O, steps: usize) -> f32 {
        let mut x = Matrix::row_vector(&[10.0]);
        for _ in 0..steps {
            let grad = Matrix::row_vector(&[2.0 * (x.get(0, 0) - 3.0)]);
            let mut pairs = vec![(&mut x, &grad)];
            opt.step(&mut pairs);
        }
        x.get(0, 0)
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let result = minimize(Adam::new(0.3), 400);
        assert!((result - 3.0).abs() < 1e-2, "got {result}");
    }

    /// The schedule's knob: a step keeps the rate it was set to, and a zero
    /// rate leaves the parameters where they are.
    #[test]
    fn adam_keeps_the_learning_rate_the_schedule_sets() {
        let mut opt = Adam::new(0.1);
        opt.set_learning_rate(0.05);
        let mut x = Matrix::row_vector(&[1.0]);
        let grad = Matrix::row_vector(&[4.0]);
        opt.step(&mut [(&mut x, &grad)]);
        assert_eq!(opt.learning_rate(), 0.05);
        assert!(x.get(0, 0) < 1.0);
        let moved = x.get(0, 0);
        opt.set_learning_rate(0.0);
        opt.step(&mut [(&mut x, &grad)]);
        assert_eq!(x.get(0, 0), moved);
    }

    #[test]
    fn optimizer_state_resizes_when_parameter_set_changes() {
        let mut opt = Adam::new(0.01);
        let mut a = Matrix::zeros(2, 2);
        let ga = Matrix::filled(2, 2, 1.0);
        let mut pairs = vec![(&mut a, &ga)];
        opt.step(&mut pairs);
        // Now step with a different number/shape of parameters; must not panic.
        let mut b = Matrix::zeros(3, 1);
        let gb = Matrix::filled(3, 1, 1.0);
        let mut c = Matrix::zeros(1, 4);
        let gc = Matrix::filled(1, 4, 1.0);
        let mut pairs = vec![(&mut b, &gb), (&mut c, &gc)];
        opt.step(&mut pairs);
    }
}
