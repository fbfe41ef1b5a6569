//! Dense layers and activations with explicit forward/backward passes.
//!
//! The paper's models are sequences of fully-connected layers with ReLU activations
//! (Section IV-A: "we consider a sequence of fully connected layers as the underlying
//! neural network architecture").  Each [`Dense`] owns its weight and bias matrices and
//! the gradients accumulated during the latest backward pass; an
//! [`Optimizer`](crate::optimizer::Optimizer) consumes those gradients to update the
//! parameters.

use crate::init;
use crate::kernel::{self, PackedPanels, QuantizedPanels, QuantizedRows, RowsView};
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
    /// inference hot path uses on matrices it already owns).  ReLU is the
    /// kernels' `if v < 0.0 { 0.0 } else { v }` (`-0.0` and NaN pass), as a
    /// select with no branch on the data.
    pub fn apply_in_place(&self, out: &mut Matrix) {
        self.apply_to(out.as_mut_slice());
    }

    /// [`apply_in_place`](Self::apply_in_place) over a slice of values — also
    /// what every kernel applies to a finished output tile (the vector forms
    /// take ReLU in registers, by the same select).
    #[inline]
    pub fn apply_to(&self, values: &mut [f32]) {
        match self {
            Activation::Linear => {}
            Activation::Relu => {
                for v in values {
                    *v = if *v < 0.0 { 0.0 } else { *v };
                }
            }
            Activation::Sigmoid => {
                for v in values {
                    *v = sigmoid(*v);
                }
            }
            Activation::Tanh => {
                for v in values {
                    *v = v.tanh();
                }
            }
        }
    }

    /// Turns the gradient w.r.t. the activation's *output* `y` into the gradient
    /// w.r.t. its pre-activation input, in place.  ReLU is a select with no
    /// branch on the data (half of a ReLU layer's outputs are zero, in no
    /// order a predictor can learn): `g` where `y > 0` or `y` is a NaN, `+0.0`
    /// elsewhere.
    pub fn mask_gradient(&self, y: &Matrix, grad: &mut Matrix) {
        debug_assert_eq!((y.rows(), y.cols()), (grad.rows(), grad.cols()));
        let pairs = grad.as_mut_slice().iter_mut().zip(y.as_slice());
        match self {
            Activation::Linear => {}
            Activation::Relu => {
                for (g, &o) in pairs {
                    *g = if o <= 0.0 { 0.0 } else { *g };
                }
            }
            Activation::Sigmoid => {
                for (g, &o) in pairs {
                    *g *= o * (1.0 - o);
                }
            }
            Activation::Tanh => {
                for (g, &o) in pairs {
                    *g *= 1.0 - o * o;
                }
            }
        }
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
    /// The output of the latest [`forward_train`](Self::forward_train), which
    /// [`backward`](Self::backward) reads the activation's derivative from.
    /// The layer's *input* is not kept: it is the caller's batch or the layer
    /// below's output, and the caller hands it to `backward` again.
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

    /// Forward pass that keeps its output for a subsequent [`Dense::backward`]
    /// and returns it.
    ///
    /// The output is computed straight into a per-layer matrix reused across
    /// steps, so steady-state training neither allocates nor copies an
    /// activation here — and a stack of layers holds each activation once, as
    /// the output of the layer that made it.
    pub fn forward_train(&mut self, x: &Matrix) -> crate::Result<&Matrix> {
        let mut out = self.last_output.take().unwrap_or_else(|| Matrix::zeros(0, 0));
        let width = self.out_dim();
        out.reshape(x.rows(), width);
        let rows = RowsView::of_matrix(x, 0, x.rows())?;
        self.forward_into(rows, &mut QuantizedRows::default(), out.as_mut_slice(), width)?;
        Ok(self.last_output.insert(out))
    }

    /// Takes columns `[from, from + out_dim)` of `wide` — the pre-activations
    /// of this layer, which a wider pass computed beside other layers' (a
    /// multi-task model's heads' entry) — as what the latest
    /// [`forward_train`](Self::forward_train) returned: copied into the
    /// layer's own output matrix, the activation applied there.  Every
    /// activation acts on each stored value alone, as the kernels' epilogue
    /// does, so this keeps what `forward_train` would have, bit for bit.
    pub(crate) fn keep_output_columns(&mut self, wide: &Matrix, from: usize) -> crate::Result<()> {
        let width = self.out_dim();
        if from + width > wide.cols() {
            return Err(crate::NnError::ShapeMismatch {
                context: format!(
                    "keep_output_columns: columns [{from}, {}) of a {}-column pass",
                    from + width,
                    wide.cols()
                ),
            });
        }
        let mut out = self.last_output.take().unwrap_or_else(|| Matrix::zeros(0, 0));
        out.reshape(wide.rows(), width);
        for r in 0..wide.rows() {
            let row = out.row_mut(r);
            row.copy_from_slice(&wide.row(r)[from..from + width]);
            self.activation.apply_to(row);
        }
        self.last_output = Some(out);
        Ok(())
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

    /// Backward pass.  `input` is what the latest
    /// [`forward_train`](Self::forward_train) read, `grad_out` the loss gradient
    /// w.r.t. what it returned; the return value is the gradient w.r.t. `input`.
    /// Weight/bias gradients are kept internally (overwriting the previous
    /// ones).  `grad_out` is consumed: the activation's derivative is applied
    /// to it in place.
    ///
    /// Both products run on the register-blocked gradient kernels
    /// ([`kernel::transpose_matmul`] for `xᵀ · dy`,
    /// [`kernel::matmul_transpose_packed`] for `dy · Wᵀ`), whose every output
    /// element is a fixed sequence of fused multiply-adds — tile shapes move
    /// work between registers, never a sum's order, so a retrain reproduces
    /// the same weights on any kernel.
    ///
    /// A multi-task model's heads' first layers do not come through here:
    /// each stops at [`backward_parameters`](Self::backward_parameters), and
    /// one [`kernel::matmul_transpose_segmented`] over all of them writes the
    /// gradient w.r.t. the input they share — each head's `dy · Wᵀ` exactly
    /// as this computes it, added in head order from `+0.0`.
    pub fn backward(&mut self, input: &Matrix, grad_out: Matrix) -> crate::Result<Matrix> {
        let grad_pre = self.backward_parameters(input, grad_out)?;
        // `dy · Wᵀ` reuses the forward panels (the optimizer has not touched W
        // yet), turned on their side once per step.
        kernel::matmul_transpose_packed(&grad_pre, self.packed())
    }

    /// The half of [`backward`](Self::backward) a layer with nothing trainable
    /// below it needs: the weight/bias gradients, without the gradient w.r.t.
    /// `input` (nobody reads the one of a network's first layer).  Returns
    /// the gradient w.r.t. the layer's pre-activation output.
    pub fn backward_parameters(&mut self, input: &Matrix, grad_out: Matrix) -> crate::Result<Matrix> {
        let output = self.cached_output()?;
        if (grad_out.rows(), grad_out.cols()) != (output.rows(), output.cols()) {
            return Err(crate::NnError::ShapeMismatch {
                context: format!(
                    "dense backward: gradient is {}x{}, the cached output {}x{}",
                    grad_out.rows(),
                    grad_out.cols(),
                    output.rows(),
                    output.cols()
                ),
            });
        }
        let mut grad_pre = grad_out;
        self.activation.mask_gradient(output, &mut grad_pre);
        self.grad_weight = input.transpose_matmul(&grad_pre)?;
        self.grad_bias = grad_pre.sum_rows();
        Ok(grad_pre)
    }

    /// What the latest [`forward_train`](Self::forward_train) returned — the
    /// input of the layer above, when its turn to go backward comes.
    pub fn cached_output(&self) -> crate::Result<&Matrix> {
        self.last_output.as_ref().ok_or_else(|| {
            crate::NnError::InvalidConfig("backward called before forward_train".to_string())
        })
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
        self.last_output = None;
    }
}

/// [`Dense::forward_train`] through a chain of layers, each reading the output
/// of the one before and the first reading `input`; returns the last output
/// (`input` itself for an empty chain).  No activation is copied: each stays
/// where the layer that made it keeps it.
pub(crate) fn forward_train_chain<'a>(
    layers: &'a mut [Dense],
    input: &'a Matrix,
) -> crate::Result<&'a Matrix> {
    let mut at = input;
    for layer in layers {
        at = layer.forward_train(at)?;
    }
    Ok(at)
}

/// [`Dense::backward`] down the chain [`forward_train_chain`] went up, from the
/// gradient w.r.t. its last output.  With `to_input` the result is the
/// gradient w.r.t. `input`; without, the first layer stops at its parameters
/// ([`Dense::backward_parameters`]) and the result is of no use to the caller.
pub(crate) fn backward_chain(
    layers: &mut [Dense],
    input: &Matrix,
    grad_out: Matrix,
    to_input: bool,
) -> crate::Result<Matrix> {
    let mut grad = grad_out;
    for i in (0..layers.len()).rev() {
        let (below, rest) = layers.split_at_mut(i);
        let layer = &mut rest[0];
        grad = match below.last() {
            Some(previous) => layer.backward(previous.cached_output()?, grad)?,
            None if to_input => layer.backward(input, grad)?,
            None => layer.backward_parameters(input, grad)?,
        };
    }
    Ok(grad)
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

    /// The output `forward_train` keeps is per-layer scratch: after the first
    /// step of a given shape, further steps must compute into the same
    /// allocation instead of a fresh matrix (ROADMAP carried-over slow path:
    /// background retrains were churning the allocator) — and what the call
    /// returns is that matrix, not a copy of it.
    #[test]
    fn forward_train_reuses_activation_caches_across_steps() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = Dense::new(&mut rng, 4, 3, Activation::Relu);
        let x = Matrix::filled(16, 4, 0.5);
        let expected = layer.forward(&x).unwrap();
        let output_ptr = layer.forward_train(&x).unwrap().as_slice().as_ptr();
        for _ in 0..3 {
            let out = layer.forward_train(&x).unwrap();
            assert_eq!(out, &expected);
            assert_eq!(out.as_slice().as_ptr(), output_ptr);
            assert_eq!(layer.cached_output().unwrap().as_slice().as_ptr(), output_ptr);
        }
        // A smaller batch (e.g. the tail batch of an epoch) reuses capacity too.
        let tail = Matrix::filled(5, 4, 0.25);
        let expected = layer.forward(&tail).unwrap();
        let out = layer.forward_train(&tail).unwrap();
        assert_eq!(out.as_slice().as_ptr(), output_ptr);
        assert_eq!((out.rows(), out.cols()), (5, 3));
        assert_eq!(out, &expected);
    }

    #[test]
    fn dense_backward_requires_forward_train() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut layer = Dense::new(&mut rng, 2, 2, Activation::Linear);
        let x = Matrix::zeros(1, 2);
        assert!(layer.backward(&x, Matrix::zeros(1, 2)).is_err());
        // A gradient of another shape than the output it is the gradient of.
        layer.forward_train(&x).unwrap();
        assert!(layer.backward(&x, Matrix::zeros(2, 2)).is_err());
        assert!(layer.backward(&x, Matrix::zeros(1, 2)).is_ok());
    }

    /// The ReLU select keeps a gradient where the output is positive (or a
    /// NaN) and writes `+0.0` elsewhere — whatever the gradient held there.
    #[test]
    fn relu_mask_is_a_select_on_the_output() {
        let y = Matrix::row_vector(&[1.5, 0.0, -0.0, f32::NAN, 3.0, 0.0]);
        let mut grad = Matrix::row_vector(&[-2.0, 7.0, -7.0, 4.0, -0.0, f32::NAN]);
        Activation::Relu.mask_gradient(&y, &mut grad);
        let bits: Vec<u32> = grad.as_slice().iter().map(|g| g.to_bits()).collect();
        let expected = [-2.0f32, 0.0, 0.0, 4.0, -0.0, 0.0].map(f32::to_bits);
        assert_eq!(bits, expected);
    }

    /// A layer with nothing trainable below it stops at its parameters: the
    /// same weight and bias gradients, no `dy · Wᵀ`.
    #[test]
    fn backward_parameters_matches_backward_without_the_input_gradient() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut full = Dense::new(&mut rng, 5, 7, Activation::Relu);
        let mut short = full.clone();
        let x = Matrix::from_vec(3, 5, (0..15).map(|i| (i as f32 - 7.0) * 0.3).collect()).unwrap();
        let grad = Matrix::from_vec(3, 7, (0..21).map(|i| (i as f32 - 10.0) * 0.1).collect()).unwrap();
        full.forward_train(&x).unwrap();
        short.forward_train(&x).unwrap();
        let dx = full.backward(&x, grad.clone()).unwrap();
        assert_eq!((dx.rows(), dx.cols()), (3, 5));
        let grad_pre = short.backward_parameters(&x, grad).unwrap();
        assert_eq!((grad_pre.rows(), grad_pre.cols()), (3, 7));
        assert_eq!(full.grad_weight, short.grad_weight);
        assert_eq!(full.grad_bias, short.grad_bias);
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
        let _ = layer.backward(&x, grad_out).unwrap();
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
