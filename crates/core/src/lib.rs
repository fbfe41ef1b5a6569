//! # dm-core — the DeepMapping hybrid learned data representation
//!
//! This crate implements the paper's contribution (Sections III and IV): a relational
//! table stored as a **hybrid structure** `Mˆ = ⟨M, Taux, Vexist, fdecode⟩` —
//!
//! * `M` — a compact multi-task neural network that memorizes the key → value mapping
//!   ([`model::MappingModel`]),
//! * `Taux` — an auxiliary accuracy-assurance table holding the tuples the model gets
//!   wrong, in key order, partitioned — values only, bit-packed, addressed by a
//!   rank over the corrected-key bitmap instead of stored keys
//!   ([`aux_table::AuxTable`]),
//! * `Vexist` — an existence bit vector over the key domain
//!   (`dm_storage::BitVec`), beside `Vaux`, the bit per key that routes a lookup
//!   to `M` or to `Taux`, and
//! * `fdecode` — the decoding map from predicted class codes back to the original
//!   categorical values ([`encoder::DecodeMap`]).
//!
//! [`hybrid::DeepMapping`] ties them together: Algorithm 1 batch lookups, the
//! insert/delete/update workflows of Algorithms 3–5 (with the lazy-retraining policy),
//! the range-query extension of Section IV-E, and the storage-breakdown statistics
//! behind Figure 6.  [`mhas`] implements the Multi-task Hybrid Architecture Search of
//! Section IV-C: an ENAS-style search over shared/private layer counts and widths with
//! shared weights, each architecture drawn by a seeded uniform sampler and priced on
//! the Eq.-1 objective by building it.

pub mod aux_table;
pub mod builder;
pub mod closed_form;
pub mod config;
pub mod encoder;
pub mod hybrid;
pub mod mhas;
pub mod model;
pub mod pipeline;
pub mod range;
pub mod stats;

pub use aux_table::{AuxPartitionInfo, AuxTable, AuxTableSnapshot, PartitionFrame};
pub use builder::DeepMappingBuilder;
pub use closed_form::{ClosedForm, ColumnFormula};
pub use config::{DeepMappingConfig, Quantization, SearchStrategy, TrainingConfig};
pub use encoder::{DecodeMap, MappingSchema};
pub use hybrid::{DeepMapping, DeepMappingParts, KEY_HEADROOM};
pub use mhas::{MhasConfig, MhasSearch, SearchSample, SearchSpace};
pub use model::{MappingModel, Rung, TrainingStop};
pub use pipeline::QueryPipeline;
pub use stats::StorageBreakdown;

/// Errors produced by the DeepMapping core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// Configuration was invalid (empty dataset, zero cardinality, ...).
    InvalidConfig(String),
    /// The neural-network substrate failed.
    Model(String),
    /// The storage substrate failed.
    Storage(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            CoreError::Model(msg) => write!(f, "model error: {msg}"),
            CoreError::Storage(msg) => write!(f, "storage error: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<dm_nn::NnError> for CoreError {
    fn from(err: dm_nn::NnError) -> Self {
        CoreError::Model(err.to_string())
    }
}

impl From<dm_storage::StorageError> for CoreError {
    fn from(err: dm_storage::StorageError) -> Self {
        CoreError::Storage(err.to_string())
    }
}

impl From<CoreError> for dm_storage::StorageError {
    fn from(err: CoreError) -> Self {
        dm_storage::StorageError::InvalidConfig(err.to_string())
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
