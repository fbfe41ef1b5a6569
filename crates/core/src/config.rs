//! Configuration of a DeepMapping structure.
//!
//! Groups the knobs the paper tunes in Section V-A: which codec compresses the
//! auxiliary table ("Z" vs "L"), the partition size, the memory budget and machine
//! profile, how the model is trained, how the architecture is chosen (fixed vs MHAS)
//! and when modifications trigger retraining.

use crate::mhas::MhasConfig;
use dm_compress::Codec;
use dm_nn::MultiTaskSpec;
use dm_storage::DiskProfile;

/// Model-training hyperparameters (Section V-A6 defaults, scaled to the workload).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingConfig {
    /// Most passes over the data when training the final model — a cap:
    /// training ends sooner on the loss floor, when every row is right, on a
    /// memorization plateau or when the learning-rate schedule runs out (see
    /// [`MappingModel::train`](crate::MappingModel::train) and
    /// [`TrainingStop`](crate::TrainingStop)).
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam's learning rate at the first step; halved whenever the epoch loss
    /// stops improving (see [`MappingModel::train`](crate::MappingModel::train)).
    pub learning_rate: f32,
    /// Read by nothing.  The paper decays an SGD learning rate by this factor
    /// per step; training here runs Adam with plateau halving and has no
    /// per-step decay.  The field stays because every store manifest records
    /// it and callers (the frozen benchmark among them) name it in struct
    /// literals.
    pub lr_decay: f32,
    /// Stop training early once an epoch's mean loss drops below this — one of
    /// the early stops, beside every row right and the memorization plateau,
    /// which read how many rows the model gets right, not its loss.
    pub loss_tolerance: f32,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        TrainingConfig {
            epochs: 30,
            batch_size: 4096,
            learning_rate: 0.01,
            lr_decay: 0.999,
            loss_tolerance: 1e-4,
        }
    }
}

impl TrainingConfig {
    /// A faster configuration for tests and examples.
    pub fn quick() -> Self {
        TrainingConfig {
            epochs: 10,
            batch_size: 2048,
            ..Self::default()
        }
    }
}

/// Arithmetic of the store's inference path.  Read by nothing: every store
/// serves int8, so there is nothing to choose.  The type and
/// [`DeepMappingConfig::quantization`] stay because callers (the frozen
/// benchmark among them) name both in struct literals.
///
/// A build trains f32 weights, quantizes them, and only then memorizes what
/// the quantized arithmetic gets wrong, so lookups stay exact.  The weights
/// are per-output-column symmetric int8, served through the int8 kernels of
/// `dm_nn::kernel`: `vpdpbusd` on AVX-512-VNNI, a sign-transfer
/// `vpmaddubsw` form on AVX2 and a scalar dot product elsewhere — one exact
/// integer result in all three.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Quantization {
    /// Per-output-column symmetric int8 weights: about a quarter of the f32
    /// model's bytes.
    #[default]
    Int8,
}

/// How the model architecture is selected.
#[derive(Debug, Clone, PartialEq)]
pub enum SearchStrategy {
    /// Use a caller-provided architecture as-is.
    Fixed(MultiTaskSpec),
    /// The smallest store of a ladder of widths
    /// ([`MappingModel::ladder_specs`](crate::MappingModel::ladder_specs)):
    /// one shared layer of 16, 32, 64, … neurons with the heads straight off
    /// it, then two shared hidden layers sized to the data with one private
    /// layer per task.  Each rung is trained, quantized and memorized, and
    /// priced by Eq. 1; the climb stops at the first rung that does not
    /// shrink the store, or after one that leaves no row to correct.  No
    /// search beyond that.
    DefaultArchitecture,
    /// Run the MHAS search (Section IV-C) with the given budget.
    Mhas(MhasConfig),
}

/// Full configuration of a DeepMapping structure.
#[derive(Debug, Clone, PartialEq)]
pub struct DeepMappingConfig {
    /// Codec used to compress auxiliary-table partitions (the paper's DM-Z / DM-L).
    pub codec: Codec,
    /// Target uncompressed auxiliary partition size in bytes.
    pub partition_bytes: usize,
    /// Buffer-pool budget for auxiliary partitions (bytes).
    pub memory_budget_bytes: usize,
    /// I/O model of the simulated disk holding auxiliary partitions.
    pub disk_profile: DiskProfile,
    /// Training hyperparameters for the final model.
    pub training: TrainingConfig,
    /// Architecture selection strategy.
    pub search: SearchStrategy,
    /// Retrain when the auxiliary table grows beyond this many bytes
    /// (None disables automatic retraining — the paper's plain DM-Z).
    pub retrain_aux_bytes: Option<usize>,
    /// Read by nothing: a batch runs on the thread that asks for it.  The
    /// field stays because the frozen benchmark (`benchmark/`) names it in a
    /// struct literal, and the snapshot manifest still records it.
    pub exec_threads: Option<usize>,
    /// RNG seed for weight initialization and search sampling.
    pub seed: u64,
    /// Read by nothing: every store serves int8 (see [`Quantization`]).  The
    /// field stays because callers name it in struct literals.
    pub quantization: Quantization,
}

impl Default for DeepMappingConfig {
    fn default() -> Self {
        DeepMappingConfig {
            codec: Codec::Lz,
            partition_bytes: 256 * 1024,
            memory_budget_bytes: usize::MAX,
            disk_profile: DiskProfile::edge_ssd(),
            training: TrainingConfig::default(),
            search: SearchStrategy::DefaultArchitecture,
            retrain_aux_bytes: None,
            exec_threads: None,
            seed: 0xd33b,
            quantization: Quantization::Int8,
        }
    }
}

impl DeepMappingConfig {
    /// The paper's DM-Z configuration (Z-Standard-class codec on the auxiliary table).
    pub fn dm_z() -> Self {
        DeepMappingConfig {
            codec: Codec::Lz,
            ..Self::default()
        }
    }

    /// The paper's DM-L configuration (LZMA-class codec, smaller partitions because of
    /// the heavier decompression cost — Section V-A5).
    pub fn dm_l() -> Self {
        DeepMappingConfig {
            codec: Codec::LzHuff,
            partition_bytes: 128 * 1024,
            ..Self::default()
        }
    }

    /// Sets the auxiliary-table codec.
    pub fn with_codec(mut self, codec: Codec) -> Self {
        self.codec = codec;
        self
    }

    /// Sets the auxiliary partition target size.
    pub fn with_partition_bytes(mut self, bytes: usize) -> Self {
        self.partition_bytes = bytes.max(1024);
        self
    }

    /// Sets the memory budget for auxiliary partitions.
    pub fn with_memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget_bytes = bytes;
        self
    }

    /// Sets the simulated-disk profile.
    pub fn with_disk_profile(mut self, profile: DiskProfile) -> Self {
        self.disk_profile = profile;
        self
    }

    /// Sets the training configuration.
    pub fn with_training(mut self, training: TrainingConfig) -> Self {
        self.training = training;
        self
    }

    /// Sets the architecture-selection strategy.
    pub fn with_search(mut self, search: SearchStrategy) -> Self {
        self.search = search;
        self
    }

    /// Enables retraining once the auxiliary table exceeds `bytes` (the paper's DM-Z1
    /// variant retrains after 200 MB of modifications).
    pub fn with_retrain_threshold(mut self, bytes: usize) -> Self {
        self.retrain_aux_bytes = Some(bytes);
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The paper's name for this configuration: `DM-<codec>` with a `1` suffix when
    /// retraining is enabled (DM-Z1).
    pub fn paper_name(&self) -> String {
        let retrain = if self.retrain_aux_bytes.is_some() { "1" } else { "" };
        format!("DM-{}{retrain}", self.codec.paper_suffix())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_dm_z_and_names_follow_the_paper() {
        assert_eq!(DeepMappingConfig::default().codec, Codec::Lz);
        assert_eq!(DeepMappingConfig::dm_z().paper_name(), "DM-Z");
        assert_eq!(DeepMappingConfig::dm_l().paper_name(), "DM-L");
        assert_eq!(
            DeepMappingConfig::dm_z()
                .with_retrain_threshold(200 * 1024 * 1024)
                .paper_name(),
            "DM-Z1"
        );
    }

    #[test]
    fn builder_methods_apply() {
        let cfg = DeepMappingConfig::default()
            .with_codec(Codec::LzHuff)
            .with_partition_bytes(4096)
            .with_memory_budget(1 << 20)
            .with_training(TrainingConfig::quick())
            .with_seed(7);
        assert_eq!(cfg.codec, Codec::LzHuff);
        assert_eq!(cfg.partition_bytes, 4096);
        assert_eq!(cfg.memory_budget_bytes, 1 << 20);
        assert_eq!(cfg.training.epochs, TrainingConfig::quick().epochs);
        assert_eq!(cfg.seed, 7);
        // Partition sizes are floored at 1 KiB.
        assert_eq!(DeepMappingConfig::default().with_partition_bytes(1).partition_bytes, 1024);
    }
}
