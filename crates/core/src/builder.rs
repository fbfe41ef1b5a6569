//! Fluent construction of [`DeepMapping`] structures.
//!
//! Examples, benches and applications used to assemble a [`DeepMappingConfig`] by
//! hand and then pick between `DeepMapping::build` and
//! `DeepMapping::build_with_decode_map`.  [`DeepMappingBuilder`] folds both into one
//! fluent chain that starts from a named paper preset (DM-Z / DM-L), layers on the
//! knobs that matter, and ends with [`build`](DeepMappingBuilder::build):
//!
//! ```
//! use dm_core::DeepMappingBuilder;
//! use dm_core::config::TrainingConfig;
//! use dm_storage::{DiskProfile, Row};
//!
//! let rows: Vec<Row> = (0..512u64)
//!     .map(|k| Row::new(k, vec![((k / 16) % 4) as u32]))
//!     .collect();
//! let dm = DeepMappingBuilder::dm_z()
//!     .training(TrainingConfig { epochs: 4, ..TrainingConfig::quick() })
//!     .partition_bytes(8 * 1024)
//!     .disk_profile(DiskProfile::free())
//!     .build(&rows)
//!     .expect("build");
//! assert_eq!(dm.len(), 512);
//! ```

use crate::config::{DeepMappingConfig, SearchStrategy, TrainingConfig};
use crate::encoder::DecodeMap;
use crate::hybrid::DeepMapping;
use crate::Result;
use dm_compress::Codec;
use dm_storage::{DiskProfile, Row};

/// Fluent builder for [`DeepMapping`] stores.
#[derive(Debug, Clone, Default)]
pub struct DeepMappingBuilder {
    config: DeepMappingConfig,
    decode_map: DecodeMap,
}

impl DeepMappingBuilder {
    /// Starts from the default configuration (identical to [`Self::dm_z`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts from the paper's DM-Z preset (Z-Standard-class auxiliary codec).
    pub fn dm_z() -> Self {
        Self::from_config(DeepMappingConfig::dm_z())
    }

    /// Starts from the paper's DM-L preset (LZMA-class codec, smaller partitions).
    pub fn dm_l() -> Self {
        Self::from_config(DeepMappingConfig::dm_l())
    }

    /// Starts from an explicit configuration.
    pub fn from_config(config: DeepMappingConfig) -> Self {
        DeepMappingBuilder {
            config,
            decode_map: DecodeMap::default(),
        }
    }

    /// Sets the auxiliary-table codec.
    pub fn codec(mut self, codec: Codec) -> Self {
        self.config = self.config.with_codec(codec);
        self
    }

    /// Sets the auxiliary partition target size in bytes.
    pub fn partition_bytes(mut self, bytes: usize) -> Self {
        self.config = self.config.with_partition_bytes(bytes);
        self
    }

    /// Sets the buffer-pool budget for auxiliary partitions.
    pub fn memory_budget(mut self, bytes: usize) -> Self {
        self.config = self.config.with_memory_budget(bytes);
        self
    }

    /// Sets the simulated-disk I/O profile.
    pub fn disk_profile(mut self, profile: DiskProfile) -> Self {
        self.config = self.config.with_disk_profile(profile);
        self
    }

    /// Sets the training hyperparameters.
    pub fn training(mut self, training: TrainingConfig) -> Self {
        self.config = self.config.with_training(training);
        self
    }

    /// Sets the architecture-selection strategy (fixed / default / MHAS).
    pub fn search(mut self, search: SearchStrategy) -> Self {
        self.config = self.config.with_search(search);
        self
    }

    /// Retrain once the auxiliary table exceeds `bytes` (the paper's DM-Z1 policy).
    pub fn retrain_threshold(mut self, bytes: usize) -> Self {
        self.config = self.config.with_retrain_threshold(bytes);
        self
    }

    /// Sets the RNG seed for weight initialization and search sampling.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config = self.config.with_seed(seed);
        self
    }

    /// Attaches a decode map (`fdecode`) so predictions can be decoded back to the
    /// original categorical values.
    pub fn decode_map(mut self, decode_map: DecodeMap) -> Self {
        self.decode_map = decode_map;
        self
    }

    /// Convenience for [`decode_map`](Self::decode_map): builds the map from
    /// per-column label vectors (`labels[column][code]`).
    pub fn decode_labels(self, labels: Vec<Vec<String>>) -> Self {
        self.decode_map(DecodeMap::from_labels(labels))
    }

    /// The configuration assembled so far.
    pub fn config(&self) -> &DeepMappingConfig {
        &self.config
    }

    /// Trains the model and assembles the hybrid structure over `rows`.
    pub fn build(self, rows: &[Row]) -> Result<DeepMapping> {
        DeepMapping::build_with_decode_map(rows, &self.config, self.decode_map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_storage::TupleStore;

    fn rows(n: u64) -> Vec<Row> {
        (0..n).map(|k| Row::new(k, vec![((k / 8) % 3) as u32])).collect()
    }

    #[test]
    fn builder_mirrors_manual_config_assembly() {
        let builder = DeepMappingBuilder::dm_l()
            .codec(Codec::Lz)
            .partition_bytes(4 * 1024)
            .memory_budget(1 << 20)
            .disk_profile(DiskProfile::free())
            .training(TrainingConfig::quick())
            .retrain_threshold(123_456)
            .seed(42);
        let manual = DeepMappingConfig::dm_l()
            .with_codec(Codec::Lz)
            .with_partition_bytes(4 * 1024)
            .with_memory_budget(1 << 20)
            .with_disk_profile(DiskProfile::free())
            .with_training(TrainingConfig::quick())
            .with_retrain_threshold(123_456)
            .with_seed(42);
        assert_eq!(builder.config(), &manual);
    }

    #[test]
    fn builder_builds_a_working_store_with_decoded_lookups() {
        let dm = DeepMappingBuilder::dm_z()
            .training(TrainingConfig { epochs: 6, batch_size: 256, ..TrainingConfig::default() })
            .partition_bytes(4 * 1024)
            .disk_profile(DiskProfile::free())
            .decode_labels(vec![vec!["a".into(), "b".into(), "c".into()]])
            .build(&rows(256))
            .unwrap();
        assert_eq!(dm.len(), 256);
        assert_eq!(dm.name(), "DM-Z");
        // A builder that never names an arithmetic serves int8.
        assert!(dm.model().is_quantized());
        let decoded = dm.lookup_batch_decoded(&[0]).unwrap();
        assert!(["a", "b", "c"].contains(&decoded[0].as_ref().unwrap()[0].as_str()));
    }
}
