//! Dense layers and activations with explicit forward/backward passes.
//!
//! The paper's models are sequences of fully-connected layers with ReLU activations
//! (Section IV-A: "we consider a sequence of fully connected layers as the underlying
//! neural network architecture").  Each [`Dense`] owns its weight and bias matrices and
//! the gradients accumulated during the latest backward pass; an
//! [`Optimizer`](crate::optimizer::Optimizer) consumes those gradients to update the
//! parameters.

use crate::init;
use crate::kernel::{self, PackedPanels, QuantizedPanels};
use crate::tensor::Matrix;
use rand::Rng;
use std::sync::OnceLock;

/// Activation functions supported by the substrate.
///
/// DeepMapping's published configuration only uses ReLU on hidden layers and a linear
/// output fed into softmax cross-entropy, but sigmoid/tanh are required by the LSTM
/// controller and are exposed here so every non-linearity lives in one place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Identity.
    Linear,
    /// `max(0, x)`.
    Relu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    /// Applies the activation element-wise, returning a new matrix.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut out = x.clone();
        self.apply_in_place(&mut out);
        out
    }

    /// Applies the activation element-wise in place (the allocation-free form the
    /// inference hot path uses on matrices it already owns).
    pub fn apply_in_place(&self, out: &mut Matrix) {
        match self {
            Activation::Linear => {}
            Activation::Relu => {
                for v in out.as_mut_slice() {
                    if *v < 0.0 {
                        *v = 0.0;
                    }
                }
            }
            Activation::Sigmoid => {
                for v in out.as_mut_slice() {
                    *v = sigmoid(*v);
                }
            }
            Activation::Tanh => {
                for v in out.as_mut_slice() {
                    *v = v.tanh();
                }
            }
        }
    }

    /// Given the activation *output* `y` and the gradient w.r.t. that output, returns
    /// the gradient w.r.t. the pre-activation input.
    pub fn backward(&self, y: &Matrix, grad_out: &Matrix) -> Matrix {
        let mut grad = grad_out.clone();
        match self {
            Activation::Linear => {}
            Activation::Relu => {
                for (g, &o) in grad.as_mut_slice().iter_mut().zip(y.as_slice()) {
                    if o <= 0.0 {
                        *g = 0.0;
                    }
                }
            }
            Activation::Sigmoid => {
                for (g, &o) in grad.as_mut_slice().iter_mut().zip(y.as_slice()) {
                    *g *= o * (1.0 - o);
                }
            }
            Activation::Tanh => {
                for (g, &o) in grad.as_mut_slice().iter_mut().zip(y.as_slice()) {
                    *g *= 1.0 - o * o;
                }
            }
        }
        grad
    }

    /// Stable byte tag used by model serialization.
    pub fn tag(&self) -> u8 {
        match self {
            Activation::Linear => 0,
            Activation::Relu => 1,
            Activation::Sigmoid => 2,
            Activation::Tanh => 3,
        }
    }

    /// Inverse of [`Activation::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(Activation::Linear),
            1 => Some(Activation::Relu),
            2 => Some(Activation::Sigmoid),
            3 => Some(Activation::Tanh),
            _ => None,
        }
    }
}

#[inline]
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// A fully-connected layer `y = act(x · W + b)`.
#[derive(Debug, Clone)]
pub struct Dense {
    weight: Matrix,
    bias: Matrix,
    activation: Activation,
    /// Weight + bias repacked into lane-width panels for the SIMD kernels
    /// (packed on first use after every weight mutation; see `dm_nn::kernel`).
    panels: OnceLock<PackedPanels>,
    /// Int8 quantized panels when the layer runs the quantized inference path.
    /// When set, `weight` holds the **dequantized** weights (the exact matrix
    /// the backward kernels and re-serialization see), so a layer's in-memory
    /// state after [`Dense::quantize_int8`] equals its state after a snapshot
    /// reload.  Cleared by any weight mutation.
    quant: Option<QuantizedPanels>,
    // Cached forward state required by backward().
    last_input: Option<Matrix>,
    last_output: Option<Matrix>,
    // Gradients from the latest backward pass.
    grad_weight: Matrix,
    grad_bias: Matrix,
}

impl Dense {
    /// Creates a dense layer with activation-appropriate initialization: He/Kaiming
    /// uniform for ReLU layers (robust against dead-layer seeds), Xavier uniform for
    /// everything else.
    pub fn new<R: Rng>(rng: &mut R, in_dim: usize, out_dim: usize, activation: Activation) -> Self {
        let weight = match activation {
            Activation::Relu => init::he_uniform(rng, in_dim, out_dim),
            _ => init::xavier_uniform(rng, in_dim, out_dim),
        };
        Dense {
            weight,
            bias: init::zero_bias(out_dim),
            activation,
            panels: OnceLock::new(),
            quant: None,
            last_input: None,
            last_output: None,
            grad_weight: Matrix::zeros(in_dim, out_dim),
            grad_bias: Matrix::zeros(1, out_dim),
        }
    }

    /// Rebuilds a layer from explicit parameters (used by deserialization).
    pub fn from_parameters(weight: Matrix, bias: Matrix, activation: Activation) -> crate::Result<Self> {
        if bias.rows() != 1 || bias.cols() != weight.cols() {
            return Err(crate::NnError::ShapeMismatch {
                context: format!(
                    "dense from_parameters: weight is {}x{}, bias is {}x{}",
                    weight.rows(),
                    weight.cols(),
                    bias.rows(),
                    bias.cols()
                ),
            });
        }
        let (in_dim, out_dim) = (weight.rows(), weight.cols());
        // Deserialized layers are immutable until an optimizer touches them, so
        // repack eagerly: snapshot opens pay the (tiny) pack cost up front and
        // the first lookup batch runs on panels immediately.
        let panels = OnceLock::from(PackedPanels::pack(&weight, Some(&bias))?);
        Ok(Dense {
            weight,
            bias,
            activation,
            panels,
            quant: None,
            last_input: None,
            last_output: None,
            grad_weight: Matrix::zeros(in_dim, out_dim),
            grad_bias: Matrix::zeros(1, out_dim),
        })
    }

    /// Rebuilds a **quantized** layer from the raw int8 weights and per-column
    /// scales a snapshot stores.  The reassembled panels are byte-identical to
    /// the ones [`Dense::quantize_int8`] produced at build time, and the
    /// layer's f32 view is the dequantized weight — exactly the build-time
    /// in-memory state, so serve-time predictions cannot drift.
    pub fn from_quantized_parameters(
        in_dim: usize,
        out_dim: usize,
        q: &[i8],
        scales: &[f32],
        bias: Matrix,
        activation: Activation,
    ) -> crate::Result<Self> {
        if bias.rows() != 1 || bias.cols() != out_dim {
            return Err(crate::NnError::ShapeMismatch {
                context: format!(
                    "dense from_quantized_parameters: weight is {in_dim}x{out_dim}, bias is {}x{}",
                    bias.rows(),
                    bias.cols()
                ),
            });
        }
        let quant = QuantizedPanels::from_parts(in_dim, out_dim, q, scales, Some(&bias))?;
        let weight = quant.dequantized_weight();
        let panels = OnceLock::from(PackedPanels::pack(&weight, Some(&bias))?);
        Ok(Dense {
            weight,
            bias,
            activation,
            panels,
            quant: Some(quant),
            last_input: None,
            last_output: None,
            grad_weight: Matrix::zeros(in_dim, out_dim),
            grad_bias: Matrix::zeros(1, out_dim),
        })
    }

    /// Switches the layer onto the int8 quantized inference path: quantizes
    /// the current weights per output column, then replaces the f32 weights
    /// with their dequantized image (single rounding), so everything that
    /// reads `weight()` — backward kernels, serialization, re-quantization —
    /// sees exactly the arithmetic the quantized forward path encodes.
    pub fn quantize_int8(&mut self) -> crate::Result<()> {
        let quant = QuantizedPanels::quantize(&self.weight, Some(&self.bias))?;
        self.weight = quant.dequantized_weight();
        self.panels.take();
        self.quant = Some(quant);
        Ok(())
    }

    /// Whether the layer serves inference through int8 quantized panels.
    pub fn is_quantized(&self) -> bool {
        self.quant.is_some()
    }

    /// The layer's quantized panels, when [`Dense::is_quantized`].
    pub fn quantized(&self) -> Option<&QuantizedPanels> {
        self.quant.as_ref()
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.weight.rows()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.weight.cols()
    }

    /// The layer's activation.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Immutable access to the weight matrix.
    pub fn weight(&self) -> &Matrix {
        &self.weight
    }

    /// Mutable access to the weight matrix.  Invalidates the packed panels
    /// (and any quantized panels), so the next forward/backward pass repacks
    /// the mutated weights in f32.
    pub fn weight_mut(&mut self) -> &mut Matrix {
        self.panels.take();
        self.quant = None;
        &mut self.weight
    }

    /// The weight/bias pair repacked into lane-width panels, packing on first
    /// use after a mutation.
    pub fn packed(&self) -> &PackedPanels {
        self.panels.get_or_init(|| {
            PackedPanels::pack(&self.weight, Some(&self.bias))
                .expect("weight/bias shapes are validated at construction")
        })
    }

    /// Immutable access to the bias row vector.
    pub fn bias(&self) -> &Matrix {
        &self.bias
    }

    /// Number of trainable parameters.
    pub fn parameter_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    /// Forward pass that caches activations for a subsequent [`Dense::backward`].
    ///
    /// The cached input/output live in per-layer scratch matrices reused across
    /// steps (`Matrix::copy_from`), so steady-state training makes no activation
    /// allocations here — background retrains stop churning the allocator.
    pub fn forward_train(&mut self, x: &Matrix) -> crate::Result<Matrix> {
        let out = self.forward(x)?;
        match &mut self.last_input {
            Some(cache) => cache.copy_from(x),
            slot => *slot = Some(x.clone()),
        }
        match &mut self.last_output {
            Some(cache) => cache.copy_from(&out),
            slot => *slot = Some(out.clone()),
        }
        Ok(out)
    }

    /// Inference-only forward pass (no caching).
    pub fn forward(&self, x: &Matrix) -> crate::Result<Matrix> {
        self.forward_rows(x, 0, x.rows())
    }

    /// Inference-only forward pass over rows `[start, start + count)` of `x`,
    /// without materializing the input window: `y = act(x[rows] · W + b)`.  The
    /// chunked batch-inference path uses this so cache blocking costs no copies.
    ///
    /// Runs on the packed-panel SIMD kernel ([`kernel::forward_packed`]): one
    /// register-blocked FMA pass with the bias and activation fused into each
    /// output tile.
    pub fn forward_rows(&self, x: &Matrix, start: usize, count: usize) -> crate::Result<Matrix> {
        match &self.quant {
            Some(quant) => kernel::forward_quantized(x, start, count, quant, self.activation),
            None => kernel::forward_packed(x, start, count, self.packed(), self.activation),
        }
    }

    /// [`forward_rows`](Self::forward_rows) into a caller-owned buffer: output
    /// row `i` is `out[i * ld ..][.. out_dim]` (see
    /// [`kernel::forward_packed_into`] for `ld`).  A quantized layer quantizes
    /// `rows` into `qrows` on the way; an f32 layer leaves it alone.  This is
    /// the allocation-free form the model walk chains layer to layer.
    pub fn forward_into(
        &self,
        rows: kernel::RowsView<'_>,
        qrows: &mut kernel::QuantizedRows,
        out: &mut [f32],
        ld: usize,
    ) -> crate::Result<()> {
        let kernel = kernel::active();
        match &self.quant {
            Some(quant) => {
                kernel::forward_quantized_into(kernel, rows, qrows, quant, self.activation, out, ld)
            }
            None => {
                kernel::forward_packed_into(kernel, rows, self.packed(), self.activation, out, ld)
            }
        }
    }

    /// Backward pass.  `grad_out` is the loss gradient w.r.t. this layer's output;
    /// the return value is the gradient w.r.t. the layer's input.  Weight/bias
    /// gradients are accumulated internally (overwriting the previous ones).
    pub fn backward(&mut self, grad_out: &Matrix) -> crate::Result<Matrix> {
        let input = self.last_input.as_ref().ok_or_else(|| crate::NnError::InvalidConfig(
            "backward called before forward_train".to_string(),
        ))?;
        let output = self
            .last_output
            .as_ref()
            .expect("last_output always set together with last_input");
        let grad_pre = self.activation.backward(output, grad_out);
        self.grad_weight = input.transpose_matmul(&grad_pre)?;
        self.grad_bias = grad_pre.sum_rows();
        // `dy · Wᵀ` reuses the forward panels — the gradient pass gets the
        // packed layout for free (the optimizer has not touched W yet).
        kernel::matmul_transpose_packed(&grad_pre, self.packed())
    }

    /// Mutable (parameters, gradients) pairs for optimizers.  Handing out the
    /// mutable weight/bias invalidates the packed panels; the next pass
    /// repacks the updated parameters.
    pub fn parameters_and_grads(&mut self) -> Vec<(&mut Matrix, &Matrix)> {
        self.panels.take();
        self.quant = None;
        vec![
            (&mut self.weight, &self.grad_weight),
            (&mut self.bias, &self.grad_bias),
        ]
    }

    /// Drops cached activations (e.g. between epochs) to release memory.
    pub fn clear_cache(&mut self) {
        self.last_input = None;
        self.last_output = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn relu_zeroes_negatives() {
        let x = Matrix::row_vector(&[-1.0, 0.0, 2.0]);
        let y = Activation::Relu.forward(&x);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn sigmoid_is_bounded_and_monotone() {
        let x = Matrix::row_vector(&[-10.0, 0.0, 10.0]);
        let y = Activation::Sigmoid.forward(&x);
        assert!(y.as_slice()[0] < 0.01);
        assert!((y.as_slice()[1] - 0.5).abs() < 1e-6);
        assert!(y.as_slice()[2] > 0.99);
    }

    #[test]
    fn activation_tags_round_trip() {
        for act in [
            Activation::Linear,
            Activation::Relu,
            Activation::Sigmoid,
            Activation::Tanh,
        ] {
            assert_eq!(Activation::from_tag(act.tag()), Some(act));
        }
        assert_eq!(Activation::from_tag(200), None);
    }

    #[test]
    fn dense_forward_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer = Dense::new(&mut rng, 4, 3, Activation::Relu);
        let x = Matrix::zeros(5, 4);
        let y = layer.forward(&x).unwrap();
        assert_eq!(y.rows(), 5);
        assert_eq!(y.cols(), 3);
    }

    /// The activation caches behind `forward_train` are per-layer scratch: after
    /// the first step of a given shape, further steps must reuse the same
    /// allocations instead of cloning fresh matrices (ROADMAP carried-over slow
    /// path: background retrains were churning the allocator).
    #[test]
    fn forward_train_reuses_activation_caches_across_steps() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = Dense::new(&mut rng, 4, 3, Activation::Relu);
        let x = Matrix::filled(16, 4, 0.5);
        layer.forward_train(&x).unwrap();
        let input_ptr = layer.last_input.as_ref().unwrap().as_slice().as_ptr();
        let output_ptr = layer.last_output.as_ref().unwrap().as_slice().as_ptr();
        for _ in 0..3 {
            layer.forward_train(&x).unwrap();
            assert_eq!(layer.last_input.as_ref().unwrap().as_slice().as_ptr(), input_ptr);
            assert_eq!(layer.last_output.as_ref().unwrap().as_slice().as_ptr(), output_ptr);
        }
        // A smaller batch (e.g. the tail batch of an epoch) reuses capacity too.
        let tail = Matrix::filled(5, 4, 0.25);
        layer.forward_train(&tail).unwrap();
        assert_eq!(layer.last_input.as_ref().unwrap().as_slice().as_ptr(), input_ptr);
        assert_eq!(layer.last_input.as_ref().unwrap().rows(), 5);
    }

    #[test]
    fn dense_backward_requires_forward_train() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut layer = Dense::new(&mut rng, 2, 2, Activation::Linear);
        let grad = Matrix::zeros(1, 2);
        assert!(layer.backward(&grad).is_err());
    }

    /// Numerical gradient check of a single dense layer against the analytic backward
    /// pass, using a scalar loss `L = sum(y)`.
    #[test]
    fn dense_gradients_match_numerical_estimate() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut layer = Dense::new(&mut rng, 3, 2, Activation::Tanh);
        let x = Matrix::from_vec(2, 3, vec![0.2, -0.4, 0.7, 1.1, 0.05, -0.3]).unwrap();

        // Analytic gradients.
        let y = layer.forward_train(&x).unwrap();
        let grad_out = Matrix::filled(y.rows(), y.cols(), 1.0);
        let _ = layer.backward(&grad_out).unwrap();
        let analytic = layer.grad_weight.clone();

        // Numerical gradients via central differences.
        let eps = 1e-3f32;
        let mut numeric = Matrix::zeros(3, 2);
        for r in 0..3 {
            for c in 0..2 {
                let orig = layer.weight().get(r, c);
                layer.weight_mut().set(r, c, orig + eps);
                let plus: f32 = layer.forward(&x).unwrap().as_slice().iter().sum();
                layer.weight_mut().set(r, c, orig - eps);
                let minus: f32 = layer.forward(&x).unwrap().as_slice().iter().sum();
                layer.weight_mut().set(r, c, orig);
                numeric.set(r, c, (plus - minus) / (2.0 * eps));
            }
        }
        for (a, n) in analytic.as_slice().iter().zip(numeric.as_slice()) {
            assert!((a - n).abs() < 1e-2, "analytic {a} vs numeric {n}");
        }
    }

    /// A layer quantized in place and a layer rebuilt from its serialized
    /// parts (raw int8 weights + scales) must be in identical states: same
    /// dequantized f32 weights, same predictions bit for bit.
    #[test]
    fn quantized_layer_state_equals_its_reloaded_state() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut layer = Dense::new(&mut rng, 7, 11, Activation::Relu);
        let x = {
            let mut m = Matrix::zeros(5, 7);
            for r in 0..5 {
                for c in 0..7 {
                    m.set(r, c, (r as f32 - 2.0) * 0.3 + c as f32 * 0.1);
                }
            }
            m
        };
        let f32_out = layer.forward(&x).unwrap();
        layer.quantize_int8().unwrap();
        assert!(layer.is_quantized());
        let q_out = layer.forward(&x).unwrap();
        // Quantized predictions approximate the f32 ones...
        for (&a, &b) in q_out.as_slice().iter().zip(f32_out.as_slice()) {
            assert!((a - b).abs() < 0.25, "{a} vs {b}");
        }
        // ...and are bit-identical after a parts round trip.
        let quant = layer.quantized().unwrap();
        let reloaded = Dense::from_quantized_parameters(
            7,
            11,
            &quant.weights_row_major(),
            quant.column_scales(),
            layer.bias().clone(),
            Activation::Relu,
        )
        .unwrap();
        assert_eq!(reloaded.weight(), layer.weight(), "dequantized weights");
        let r_out = reloaded.forward(&x).unwrap();
        let bits = |m: &Matrix| m.as_slice().iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&q_out), bits(&r_out));
        // Any weight mutation drops the layer back onto the f32 path.
        let mut mutated = reloaded.clone();
        mutated.weight_mut().set(0, 0, 42.0);
        assert!(!mutated.is_quantized());
    }

    #[test]
    fn from_parameters_validates_bias_shape() {
        let w = Matrix::zeros(3, 2);
        let bad_bias = Matrix::zeros(1, 3);
        assert!(Dense::from_parameters(w.clone(), bad_bias, Activation::Linear).is_err());
        let good_bias = Matrix::zeros(1, 2);
        assert!(Dense::from_parameters(w, good_bias, Activation::Linear).is_ok());
    }
}
