//! # dm-nn — neural-network substrate for DeepMapping
//!
//! DeepMapping (ICDE 2024) memorizes key → value mappings of relational tables with a
//! compact multi-task fully-connected network (Section IV-A of the paper).  The paper
//! runs this on PyTorch / ONNX; this crate is the from-scratch Rust substitute.
//!
//! The crate provides exactly what DeepMapping needs and nothing more:
//!
//! * [`tensor::Matrix`] — a row-major `f32` matrix with the handful of BLAS-like
//!   operations the forward/backward passes need,
//! * [`kernel`] — register-blocked, lane-vectorized micro-kernels over
//!   pre-packed weight panels (16-lane AVX-512 with an AVX2/FMA form and a
//!   bit-identical scalar fallback, chosen by CPU detection) plus an
//!   int8 quantized inference path (`vpdpbusd` over k-quad panels on
//!   AVX-512-VNNI, sign transfer + `vpmaddubsw` on AVX2, per-column symmetric
//!   scales, bit-identical across all kernels), the engine under every dense
//!   matmul,
//! * [`layer`] — dense layers and activations with explicit backward passes,
//! * [`loss`] — softmax cross-entropy (the paper's training loss), its `exp`
//!   one fixed recipe (`exp.rs`) rather than the host's libm,
//! * [`optimizer`] — Adam, the optimizer every training run steps,
//! * [`mlp`] — a plain sequential multi-layer perceptron,
//! * [`multitask`] — the shared-trunk / private-head model of Section IV-A,
//! * [`encoding`] — binary key features and one-hot label encodings,
//! * [`serialize`] — byte-level model (de)serialization and size accounting, which
//!   feeds the Eq.-1 objective (`size(M)` term).
//!
//! Everything is deterministic given a seed, single-threaded and allocation-conscious;
//! batched inference is a sequence of matrix multiplications, mirroring what the ONNX
//! runtime would execute for the same graph.

pub mod encoding;
mod exp;
pub mod init;
pub mod kernel;
pub mod layer;
pub mod loss;
pub mod mlp;
pub mod multitask;
pub mod optimizer;
pub mod serialize;
pub mod tensor;

pub use encoding::{KeyEncoder, LabelCodec};
pub use kernel::{Kernel, PackedPanels, QuantizedPanels, QuantizedRows, LANES, QLANES};
pub use layer::{Activation, Dense};
pub use loss::softmax_cross_entropy;
pub use mlp::{Mlp, MlpSpec};
pub use multitask::{MultiTaskModel, MultiTaskSpec, TaskHeadSpec, TrainStep, CACHE_CHUNK_ROWS};
pub use optimizer::{Adam, Optimizer};
pub use tensor::Matrix;

/// Errors produced by the neural-network substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NnError {
    /// Two operands had incompatible shapes (e.g. matmul of `m×k` with `j×n`, `k != j`).
    ShapeMismatch {
        /// Human-readable description of the operation that failed.
        context: String,
    },
    /// A serialized model buffer was malformed or truncated.
    Corrupt(String),
    /// A configuration value was invalid (e.g. zero-sized layer).
    InvalidConfig(String),
}

impl std::fmt::Display for NnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NnError::ShapeMismatch { context } => write!(f, "shape mismatch: {context}"),
            NnError::Corrupt(msg) => write!(f, "corrupt model buffer: {msg}"),
            NnError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for NnError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, NnError>;
