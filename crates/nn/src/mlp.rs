//! A plain sequential multi-layer perceptron.
//!
//! The MLP is the building block the single-task pieces of the workspace use directly
//! (e.g. the DeepSqueeze-like baseline's autoencoder); the DeepMapping model itself is
//! the shared-trunk/private-head [`crate::multitask::MultiTaskModel`].

use crate::layer::{backward_chain, forward_train_chain, Activation, Dense};
use crate::optimizer::Optimizer;
use crate::tensor::Matrix;
use rand::Rng;

/// Specification of an MLP: input width plus a list of `(width, activation)` layers.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpSpec {
    /// Number of input features.
    pub input_dim: usize,
    /// Hidden and output layers in order: `(output width, activation)`.
    pub layers: Vec<(usize, Activation)>,
}

impl MlpSpec {
    /// A spec with ReLU hidden layers of the given sizes and a linear output layer.
    pub fn relu_stack(input_dim: usize, hidden: &[usize], output_dim: usize) -> Self {
        let mut layers: Vec<(usize, Activation)> =
            hidden.iter().map(|&h| (h, Activation::Relu)).collect();
        layers.push((output_dim, Activation::Linear));
        MlpSpec { input_dim, layers }
    }

    /// Total number of trainable parameters this spec would instantiate.
    pub fn parameter_count(&self) -> usize {
        let mut count = 0usize;
        let mut prev = self.input_dim;
        for &(width, _) in &self.layers {
            count += prev * width + width;
            prev = width;
        }
        count
    }
}

/// A sequential stack of dense layers.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
}

impl Mlp {
    /// Instantiates an MLP from a spec with Xavier-initialized weights.
    pub fn new<R: Rng>(rng: &mut R, spec: &MlpSpec) -> crate::Result<Self> {
        if spec.input_dim == 0 {
            return Err(crate::NnError::InvalidConfig(
                "MLP input dimension must be positive".into(),
            ));
        }
        if spec.layers.is_empty() {
            return Err(crate::NnError::InvalidConfig(
                "MLP must have at least one layer".into(),
            ));
        }
        let mut layers = Vec::with_capacity(spec.layers.len());
        let mut prev = spec.input_dim;
        for &(width, act) in &spec.layers {
            if width == 0 {
                return Err(crate::NnError::InvalidConfig(
                    "MLP layer width must be positive".into(),
                ));
            }
            layers.push(Dense::new(rng, prev, width, act));
            prev = width;
        }
        Ok(Mlp { layers })
    }

    /// Builds an MLP from pre-existing layers (used by deserialization).
    pub fn from_layers(layers: Vec<Dense>) -> crate::Result<Self> {
        if layers.is_empty() {
            return Err(crate::NnError::InvalidConfig(
                "MLP must have at least one layer".into(),
            ));
        }
        for pair in layers.windows(2) {
            if pair[0].out_dim() != pair[1].in_dim() {
                return Err(crate::NnError::ShapeMismatch {
                    context: format!(
                        "MLP layer chain broken: {} -> {}",
                        pair[0].out_dim(),
                        pair[1].in_dim()
                    ),
                });
            }
        }
        Ok(Mlp { layers })
    }

    /// The layers in order.
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// Total number of trainable parameters.
    pub fn parameter_count(&self) -> usize {
        self.layers.iter().map(Dense::parameter_count).sum()
    }

    /// Inference forward pass.
    pub fn forward(&self, x: &Matrix) -> crate::Result<Matrix> {
        let mut h = self.layers[0].forward(x)?;
        for layer in &self.layers[1..] {
            h = layer.forward(&h)?;
        }
        Ok(h)
    }

    /// Training forward pass: every layer keeps its output for
    /// [`backward`](Self::backward); returns the last one.
    pub fn forward_train<'a>(&'a mut self, x: &'a Matrix) -> crate::Result<&'a Matrix> {
        forward_train_chain(&mut self.layers, x)
    }

    /// Backward pass from the gradient of the loss w.r.t. the output of the
    /// latest [`forward_train`](Self::forward_train) over `x`; returns the
    /// gradient w.r.t. `x`.  `grad_out` is consumed (see [`Dense::backward`]).
    pub fn backward(&mut self, x: &Matrix, grad_out: Matrix) -> crate::Result<Matrix> {
        backward_chain(&mut self.layers, x, grad_out, true)
    }

    /// Applies one optimizer step to every layer's parameters.
    pub fn apply_gradients<O: Optimizer>(&mut self, optimizer: &mut O) {
        let mut pairs = Vec::new();
        for layer in &mut self.layers {
            pairs.extend(layer.parameters_and_grads());
        }
        optimizer.step(&mut pairs);
    }

    /// One supervised step on a classification batch: forward, softmax cross-entropy,
    /// backward, optimizer update.  Returns the batch loss.
    pub fn train_classification_batch<O: Optimizer>(
        &mut self,
        x: &Matrix,
        targets: &[usize],
        optimizer: &mut O,
    ) -> crate::Result<f32> {
        let logits = self.forward_train(x)?;
        let mut right = vec![true; targets.len()];
        let (loss, grad) = crate::loss::softmax_cross_entropy(logits, targets, &mut right)?;
        backward_chain(&mut self.layers, x, grad, false)?;
        self.apply_gradients(optimizer);
        Ok(loss)
    }

    /// One supervised step on a regression batch with mean-squared-error loss.
    /// Used by the autoencoder baseline.  Returns the batch loss.
    pub fn train_regression_batch<O: Optimizer>(
        &mut self,
        x: &Matrix,
        target: &Matrix,
        optimizer: &mut O,
    ) -> crate::Result<f32> {
        let output = self.forward_train(x)?;
        if output.rows() != target.rows() || output.cols() != target.cols() {
            return Err(crate::NnError::ShapeMismatch {
                context: format!(
                    "regression target is {}x{} but output is {}x{}",
                    target.rows(),
                    target.cols(),
                    output.rows(),
                    output.cols()
                ),
            });
        }
        let n = (output.rows() * output.cols()).max(1) as f32;
        let mut grad = output.clone();
        grad.add_scaled(target, -1.0)?;
        let loss = grad.norm_sq() / n;
        grad.scale(2.0 / n);
        backward_chain(&mut self.layers, x, grad, false)?;
        self.apply_gradients(optimizer);
        Ok(loss)
    }

    /// Drops cached activations on every layer.
    pub fn clear_cache(&mut self) {
        for layer in &mut self.layers {
            layer.clear_cache();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::Adam;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn spec_parameter_count_matches_instantiated_model() {
        let spec = MlpSpec::relu_stack(8, &[16, 4], 3);
        let mut rng = StdRng::seed_from_u64(2);
        let mlp = Mlp::new(&mut rng, &spec).unwrap();
        assert_eq!(spec.parameter_count(), mlp.parameter_count());
        assert_eq!(mlp.input_dim(), 8);
        assert_eq!(mlp.output_dim(), 3);
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let mut rng = StdRng::seed_from_u64(2);
        assert!(Mlp::new(&mut rng, &MlpSpec { input_dim: 0, layers: vec![(4, Activation::Relu)] }).is_err());
        assert!(Mlp::new(&mut rng, &MlpSpec { input_dim: 4, layers: vec![] }).is_err());
        assert!(Mlp::new(&mut rng, &MlpSpec { input_dim: 4, layers: vec![(0, Activation::Relu)] }).is_err());
    }

    #[test]
    fn from_layers_rejects_broken_chain() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Dense::new(&mut rng, 4, 8, Activation::Relu);
        let b = Dense::new(&mut rng, 6, 2, Activation::Linear);
        assert!(Mlp::from_layers(vec![a, b]).is_err());
    }

    /// An MLP must be able to memorize a small random mapping — this is the core
    /// capability DeepMapping relies on.
    #[test]
    fn mlp_memorizes_small_classification_task() {
        let mut rng = StdRng::seed_from_u64(9);
        // 16 keys encoded as 4-bit binary, each mapped to one of 3 classes.
        let n = 16usize;
        let mut x = Matrix::zeros(n, 4);
        let mut targets = Vec::with_capacity(n);
        for k in 0..n {
            for b in 0..4 {
                x.set(k, b, ((k >> b) & 1) as f32);
            }
            targets.push(k % 3);
        }
        let spec = MlpSpec::relu_stack(4, &[32, 32], 3);
        let mut mlp = Mlp::new(&mut rng, &spec).unwrap();
        let mut opt = Adam::new(0.01);
        for _ in 0..300 {
            mlp.train_classification_batch(&x, &targets, &mut opt).unwrap();
        }
        let logits = mlp.forward(&x).unwrap();
        let acc = crate::loss::accuracy(&logits, &targets);
        assert!(acc > 0.95, "memorization accuracy was {acc}");
    }

    #[test]
    fn regression_training_reduces_loss() {
        let mut rng = StdRng::seed_from_u64(4);
        let spec = MlpSpec {
            input_dim: 2,
            layers: vec![(8, Activation::Tanh), (2, Activation::Linear)],
        };
        let mut mlp = Mlp::new(&mut rng, &spec).unwrap();
        let x = Matrix::from_vec(4, 2, vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]).unwrap();
        let target = x.clone(); // identity reconstruction
        let mut opt = Adam::new(0.05);
        let first = mlp.train_regression_batch(&x, &target, &mut opt).unwrap();
        let mut last = first;
        for _ in 0..200 {
            last = mlp.train_regression_batch(&x, &target, &mut opt).unwrap();
        }
        assert!(last < first * 0.1, "loss went from {first} to {last}");
    }
}
