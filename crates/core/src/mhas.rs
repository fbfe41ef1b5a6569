//! Multi-task Hybrid Architecture Search (MHAS), Section IV-C.
//!
//! MHAS selects the number and width of the shared and private layers of the
//! multi-task model so that the *whole hybrid structure* — model, auxiliary table,
//! existence vector and decode map — is as small as possible relative to the raw data
//! (the Eq.-1 objective).  It follows ENAS:
//!
//! * the **search space** is a tree of DAGs: up to `max_shared` shared hidden layers
//!   feeding one private sub-DAG per output column, each hidden layer's width chosen
//!   from a candidate list ([`SearchSpace`]),
//! * a **weight bank** shares parameters across sampled architectures, so a layer
//!   sampled again in a later iteration continues training from where it left off,
//! * an **LSTM controller** samples architectures autoregressively and is trained with
//!   REINFORCE on the Eq.-1 reward (Algorithm 2 alternates model-training iterations
//!   and controller-training iterations).
//!
//! The search records every sampled architecture's compression ratio and estimated
//! lookup latency, which is exactly the data Figures 9 and 10 plot.

use crate::config::DeepMappingConfig;
use crate::encoder::MappingSchema;
use crate::model::{MappingModel, TrainingBatch};
use crate::{CoreError, Result};
use dm_nn::layer::{Activation, Dense};
use dm_nn::{Adam, MultiTaskModel, MultiTaskSpec, SequenceController, TaskHeadSpec};
use dm_storage::layout::PackedPartition;
use dm_storage::Row;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;

/// The MHAS search space: how many shared/private layers and which widths are allowed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchSpace {
    /// Maximum number of shared hidden layers (the paper uses 2).
    pub max_shared: usize,
    /// Maximum number of private hidden layers per task (the paper uses 2).
    pub max_private: usize,
    /// Candidate layer widths (the paper searches 100–2000 neurons).
    pub layer_sizes: Vec<usize>,
    /// Number of tasks (value columns).
    pub num_tasks: usize,
}

impl SearchSpace {
    /// The default space used by the scaled-down experiments.
    pub fn new(num_tasks: usize) -> Self {
        SearchSpace {
            max_shared: 2,
            max_private: 2,
            layer_sizes: vec![32, 64, 128, 256, 512],
            num_tasks,
        }
    }

    /// Number of choices at each controller decision step.
    ///
    /// Steps: shared-layer count, `max_shared` shared widths, then per task a
    /// private-layer count and `max_private` private widths.
    pub fn choice_counts(&self) -> Vec<usize> {
        let mut counts = vec![self.max_shared + 1];
        counts.extend(std::iter::repeat_n(self.layer_sizes.len(), self.max_shared));
        for _ in 0..self.num_tasks {
            counts.push(self.max_private + 1);
            counts.extend(std::iter::repeat_n(self.layer_sizes.len(), self.max_private));
        }
        counts
    }

    /// Size of the architecture space (number of distinct layer-count/width
    /// combinations this space can express).
    pub fn architecture_count(&self) -> u64 {
        let widths = self.layer_sizes.len() as u64;
        let chain = |max_layers: usize| -> u64 {
            (0..=max_layers as u32).map(|n| widths.pow(n)).sum()
        };
        chain(self.max_shared) * chain(self.max_private).pow(self.num_tasks as u32)
    }

    /// Decodes a controller decision sequence into a concrete architecture.
    pub fn decode(&self, choices: &[usize], schema: &MappingSchema) -> Result<MultiTaskSpec> {
        let expected = self.choice_counts().len();
        if choices.len() != expected {
            return Err(CoreError::InvalidConfig(format!(
                "expected {expected} controller decisions, got {}",
                choices.len()
            )));
        }
        if self.num_tasks != schema.num_columns() {
            return Err(CoreError::InvalidConfig(format!(
                "search space has {} tasks but schema has {} columns",
                self.num_tasks,
                schema.num_columns()
            )));
        }
        let mut cursor = 0usize;
        let shared_count = choices[cursor].min(self.max_shared);
        cursor += 1;
        let mut shared_hidden = Vec::with_capacity(shared_count);
        for i in 0..self.max_shared {
            let width = self.layer_sizes[choices[cursor].min(self.layer_sizes.len() - 1)];
            cursor += 1;
            if i < shared_count {
                shared_hidden.push(width);
            }
        }
        let mut heads = Vec::with_capacity(self.num_tasks);
        for task in 0..self.num_tasks {
            let private_count = choices[cursor].min(self.max_private);
            cursor += 1;
            let mut hidden = Vec::with_capacity(private_count);
            for i in 0..self.max_private {
                let width = self.layer_sizes[choices[cursor].min(self.layer_sizes.len() - 1)];
                cursor += 1;
                if i < private_count {
                    hidden.push(width);
                }
            }
            heads.push(TaskHeadSpec {
                hidden,
                classes: schema.cardinalities[task] as usize,
            });
        }
        Ok(MultiTaskSpec {
            input_dim: schema.input_dim(),
            shared_hidden,
            heads,
        })
    }
}

/// Budget and hyperparameters of the search (Algorithm 2's `Nt`, `Nm`, `Nc` and the
/// training settings of Section V-A6, scaled down so the search runs in seconds).
#[derive(Debug, Clone, PartialEq)]
pub struct MhasConfig {
    /// Total search iterations (`Nt`).
    pub iterations: usize,
    /// Epochs of model training per model-training iteration (`m_epochs`).
    pub model_epochs: usize,
    /// Train the controller every this many iterations (`Nt / Nc`).
    pub controller_every: usize,
    /// Mini-batch size for model training during the search.
    pub batch_size: usize,
    /// At most this many rows are used for search-time training/evaluation
    /// (a uniform sample of the dataset).
    pub sample_rows: usize,
    /// Candidate layer widths (overrides the default [`SearchSpace`] widths).
    pub layer_sizes: Vec<usize>,
    /// LSTM controller hidden width (the paper uses 64).
    pub controller_hidden: usize,
    /// Entropy bonus weight for controller exploration.
    pub entropy_bonus: f32,
}

impl Default for MhasConfig {
    fn default() -> Self {
        MhasConfig {
            iterations: 60,
            model_epochs: 2,
            controller_every: 5,
            batch_size: 2048,
            sample_rows: 4096,
            layer_sizes: vec![32, 64, 128, 256],
            controller_hidden: 64,
            entropy_bonus: 0.01,
        }
    }
}

impl MhasConfig {
    /// A very small budget for unit tests and examples.
    pub fn quick() -> Self {
        MhasConfig {
            iterations: 12,
            model_epochs: 1,
            controller_every: 3,
            sample_rows: 1024,
            layer_sizes: vec![32, 64, 128],
            ..Self::default()
        }
    }
}

/// One sampled architecture during the search — the dots of Figures 9 and 10.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSample {
    /// Search iteration at which this architecture was sampled.
    pub iteration: usize,
    /// Eq.-1 compression ratio estimated for the sampled architecture.
    pub compression_ratio: f64,
    /// Estimated per-batch lookup latency in milliseconds (relative measure combining
    /// inference cost and auxiliary-table traffic).
    pub estimated_latency_ms: f64,
    /// Number of trainable parameters of the sampled architecture.
    pub parameters: usize,
    /// Fraction of the evaluation sample the architecture memorized.
    pub memorization_rate: f64,
}

/// Outcome of a search run.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The architecture with the best (lowest) estimated compression ratio.
    pub best_spec: MultiTaskSpec,
    /// Its estimated compression ratio.
    pub best_ratio: f64,
    /// Every sampled architecture, in sampling order.
    pub history: Vec<SearchSample>,
}

/// Parameter bank shared across sampled architectures (ENAS-style weight sharing).
#[derive(Debug, Default)]
struct WeightBank {
    layers: HashMap<(String, usize, usize), Dense>,
}

impl WeightBank {
    fn take_or_init(
        &mut self,
        rng: &mut StdRng,
        scope: &str,
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
    ) -> Dense {
        self.layers
            .get(&(scope.to_string(), in_dim, out_dim))
            .cloned()
            .unwrap_or_else(|| Dense::new(rng, in_dim, out_dim, activation))
    }

    fn store(&mut self, scope: &str, layer: &Dense) {
        self.layers.insert(
            (scope.to_string(), layer.in_dim(), layer.out_dim()),
            layer.clone(),
        );
    }
}

/// The MHAS search driver.
pub struct MhasSearch {
    space: SearchSpace,
    config: MhasConfig,
    schema: MappingSchema,
    controller: SequenceController,
    controller_optimizer: Adam,
    bank: WeightBank,
    rng: StdRng,
    baseline: f64,
}

impl std::fmt::Debug for MhasSearch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MhasSearch")
            .field("space", &self.space)
            .field("iterations", &self.config.iterations)
            .finish()
    }
}

impl MhasSearch {
    /// Creates a search for the given schema.
    pub fn new(schema: &MappingSchema, config: MhasConfig, seed: u64) -> Result<Self> {
        if config.layer_sizes.is_empty() {
            return Err(CoreError::InvalidConfig(
                "MHAS needs at least one candidate layer size".into(),
            ));
        }
        let mut space = SearchSpace::new(schema.num_columns());
        space.layer_sizes = config.layer_sizes.clone();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x3a5);
        let controller =
            SequenceController::new(&mut rng, &space.choice_counts(), config.controller_hidden)?;
        Ok(MhasSearch {
            space,
            config,
            schema: schema.clone(),
            controller,
            controller_optimizer: Adam::paper_controller(),
            bank: WeightBank::default(),
            rng,
            baseline: 1.0,
        })
    }

    /// The search space being explored.
    pub fn space(&self) -> &SearchSpace {
        &self.space
    }

    /// Runs Algorithm 2 and returns the best architecture plus the sampling history.
    pub fn run(&mut self, rows: &[Row], dm_config: &DeepMappingConfig) -> Result<SearchOutcome> {
        if rows.is_empty() {
            return Err(CoreError::InvalidConfig("cannot search on an empty dataset".into()));
        }
        // Uniform sample used for search-time training and evaluation.
        let mut sample: Vec<Row> = rows.to_vec();
        sample.shuffle(&mut self.rng);
        sample.truncate(self.config.sample_rows.max(64));
        let total_rows = rows.len();
        let row_width = Row::fixed_width(self.schema.num_columns());
        let uncompressed_bytes = total_rows * row_width;

        let mut history = Vec::with_capacity(self.config.iterations);
        let mut best_spec: Option<MultiTaskSpec> = None;
        let mut best_ratio = f64::INFINITY;

        for iteration in 0..self.config.iterations {
            // Controller samples an architecture (controller parameters fixed while the
            // model trains, and vice versa — the alternation of Algorithm 2).
            let decisions = self.controller.sample_episode(&mut self.rng)?;
            let choices: Vec<usize> = decisions.iter().map(|d| d.choice).collect();
            let spec = self.space.decode(&choices, &self.schema)?;

            // Instantiate from the weight bank, train briefly, store back.
            let mut network = self.instantiate(&spec)?;
            let mut model = ModelHandle {
                schema: &self.schema,
                network: &mut network,
            };
            model.train(
                &sample,
                self.config.model_epochs,
                self.config.batch_size,
                &mut self.rng,
            )?;
            self.store_weights(&spec, &network);

            // Evaluate the hybrid-structure size this architecture would produce.
            let (ratio, memorization_rate, est_latency) = self.evaluate(
                &spec,
                &network,
                &sample,
                total_rows,
                uncompressed_bytes,
                dm_config,
            )?;
            history.push(SearchSample {
                iteration,
                compression_ratio: ratio,
                estimated_latency_ms: est_latency,
                parameters: spec.parameter_count(),
                memorization_rate,
            });
            if ratio < best_ratio {
                best_ratio = ratio;
                best_spec = Some(spec.clone());
            }

            // Controller training iteration (every `controller_every` iterations).
            if (iteration + 1) % self.config.controller_every.max(1) == 0 {
                let reward = -ratio;
                let advantage = (reward - self.baseline) as f32;
                self.baseline = 0.9 * self.baseline + 0.1 * reward;
                self.controller
                    .reinforce_backward(advantage, self.config.entropy_bonus)?;
                self.controller.apply_gradients(&mut self.controller_optimizer);
            } else {
                // Discard the sampled episode without a gradient step.
                let _ = &self.controller;
            }
        }

        let best_spec = best_spec.unwrap_or_else(|| MappingModel::default_spec(&self.schema, total_rows));
        Ok(SearchOutcome {
            best_spec,
            best_ratio,
            history,
        })
    }

    /// Builds a network for `spec`, pulling any previously trained layer of the same
    /// shape from the weight bank.
    fn instantiate(&mut self, spec: &MultiTaskSpec) -> Result<MultiTaskModel> {
        let mut trunk = Vec::with_capacity(spec.shared_hidden.len());
        let mut prev = spec.input_dim;
        for (i, &width) in spec.shared_hidden.iter().enumerate() {
            trunk.push(self.bank.take_or_init(
                &mut self.rng,
                &format!("shared{i}"),
                prev,
                width,
                Activation::Relu,
            ));
            prev = width;
        }
        let trunk_out = prev;
        let mut heads = Vec::with_capacity(spec.heads.len());
        for (t, head_spec) in spec.heads.iter().enumerate() {
            let mut head = Vec::with_capacity(head_spec.hidden.len() + 1);
            let mut prev = trunk_out;
            for (i, &width) in head_spec.hidden.iter().enumerate() {
                head.push(self.bank.take_or_init(
                    &mut self.rng,
                    &format!("task{t}.private{i}"),
                    prev,
                    width,
                    Activation::Relu,
                ));
                prev = width;
            }
            head.push(self.bank.take_or_init(
                &mut self.rng,
                &format!("task{t}.output"),
                prev,
                head_spec.classes,
                Activation::Linear,
            ));
            heads.push(head);
        }
        MultiTaskModel::from_layers(spec.clone(), trunk, heads).map_err(Into::into)
    }

    fn store_weights(&mut self, spec: &MultiTaskSpec, network: &MultiTaskModel) {
        for (i, layer) in network.trunk().iter().enumerate() {
            self.bank.store(&format!("shared{i}"), layer);
        }
        for (t, head) in network.heads().iter().enumerate() {
            let hidden_count = spec.heads[t].hidden.len();
            for (i, layer) in head.iter().enumerate() {
                if i < hidden_count {
                    self.bank.store(&format!("task{t}.private{i}"), layer);
                } else {
                    self.bank.store(&format!("task{t}.output"), layer);
                }
            }
        }
    }

    /// Estimates the Eq.-1 ratio, memorization rate and a relative latency figure for
    /// a trained candidate.
    fn evaluate(
        &self,
        spec: &MultiTaskSpec,
        network: &MultiTaskModel,
        sample: &[Row],
        total_rows: usize,
        uncompressed_bytes: usize,
        dm_config: &DeepMappingConfig,
    ) -> Result<(f64, f64, f64)> {
        let value_columns = self.schema.num_columns();
        // Memorization rate on the evaluation sample.
        let keys: Vec<u64> = sample.iter().map(|r| r.key).collect();
        let x = self.schema.key_encoder.encode_batch(&keys);
        let preds = network.predict_classes(&x)?;
        let mut misclassified = Vec::new();
        for (i, row) in sample.iter().enumerate() {
            let ok = row
                .values
                .iter()
                .enumerate()
                .all(|(c, &v)| preds[c][i] as u32 == v);
            if !ok {
                misclassified.push(row);
            }
        }
        let memorization_rate = 1.0 - misclassified.len() as f64 / sample.len().max(1) as f64;

        // size(M): serialized model bytes.
        let model_bytes = spec.size_bytes();
        // size(Taux): extrapolate the sample's misclassified rows to the full dataset,
        // stored the way the auxiliary table stores them — keyless bit-packed
        // columns in a frame of the configured codec.
        let aux_bytes = if misclassified.is_empty() {
            0
        } else {
            let partition = PackedPartition::from_rows(&misclassified, value_columns)
                .map_err(CoreError::from)?;
            let framed = dm_compress::compress_frame(&dm_config.codec, partition.to_bytes()).len();
            let scale = total_rows as f64 / sample.len().max(1) as f64;
            (framed as f64 * scale) as usize
        };
        // size(Vexist): dense key domains RLE-compress to almost nothing; charge the
        // worst case of 1 bit per key plus header.
        let exist_bytes = total_rows / 8 + 16;
        // size(fdecode): label tables, approximated by 8 bytes per distinct value.
        let decode_bytes: usize = self
            .schema
            .cardinalities
            .iter()
            .map(|&c| 8 + c as usize * 8)
            .sum();
        let total = model_bytes + aux_bytes + exist_bytes + decode_bytes;
        let ratio = total as f64 / uncompressed_bytes.max(1) as f64;

        // Relative latency: inference cost grows with parameter count, auxiliary
        // traffic with the misclassified fraction (each auxiliary visit pays a
        // partition load + a rank-addressed read).
        let inference_ms = spec.parameter_count() as f64 * 1e-5;
        let aux_ms = (1.0 - memorization_rate) * 20.0;
        Ok((ratio, memorization_rate, inference_ms + aux_ms))
    }
}

/// Internal borrow-friendly training helper (avoids cloning the schema into a full
/// [`MappingModel`] for every sampled architecture).
struct ModelHandle<'a> {
    schema: &'a MappingSchema,
    network: &'a mut MultiTaskModel,
}

impl ModelHandle<'_> {
    fn train(
        &mut self,
        rows: &[Row],
        epochs: usize,
        batch_size: usize,
        rng: &mut StdRng,
    ) -> Result<()> {
        let mut optimizer = Adam::new(0.01);
        let mut order: Vec<usize> = (0..rows.len()).collect();
        let mut batch = TrainingBatch::new(self.schema);
        for _ in 0..epochs {
            order.shuffle(rng);
            for chunk in order.chunks(batch_size.max(1)) {
                batch.fill(self.schema, rows, chunk);
                self.network.train_batch(&batch.x, &batch.targets, &mut optimizer)?;
            }
        }
        self.network.clear_cache();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeepMappingConfig;

    fn correlated_rows(n: u64) -> Vec<Row> {
        (0..n)
            .map(|k| Row::new(k, vec![((k / 16) % 3) as u32, ((k / 32) % 4) as u32]))
            .collect()
    }

    fn schema(rows: &[Row]) -> MappingSchema {
        MappingSchema::infer(rows, 0).unwrap()
    }

    #[test]
    fn choice_counts_cover_all_decisions() {
        let space = SearchSpace::new(3);
        // 1 shared-count + 2 shared widths + 3 * (1 private-count + 2 private widths).
        assert_eq!(space.choice_counts().len(), 1 + 2 + 3 * 3);
        assert_eq!(space.choice_counts()[0], 3);
        assert!(space.architecture_count() > 1000);
    }

    #[test]
    fn decode_produces_consistent_specs() {
        let rows = correlated_rows(256);
        let schema = schema(&rows);
        let mut space = SearchSpace::new(2);
        space.layer_sizes = vec![32, 64];
        // 0 shared layers, widths ignored; task0: 1 private layer of 64; task1: 2 of 32.
        let choices = vec![0, 0, 1, 1, 1, 0, 2, 0, 0];
        let spec = space.decode(&choices, &schema).unwrap();
        assert!(spec.shared_hidden.is_empty());
        assert_eq!(spec.heads[0].hidden, vec![64]);
        assert_eq!(spec.heads[1].hidden, vec![32, 32]);
        assert_eq!(spec.heads[0].classes, 3);
        assert_eq!(spec.heads[1].classes, 4);
        assert_eq!(spec.input_dim, schema.input_dim());
        // Wrong decision count is rejected.
        assert!(space.decode(&[0, 1], &schema).is_err());
    }

    #[test]
    fn decode_with_max_layers() {
        let rows = correlated_rows(256);
        let schema = schema(&rows);
        let space = SearchSpace::new(2);
        let n = space.choice_counts().len();
        let choices = vec![2; n];
        let spec = space.decode(&choices, &schema).unwrap();
        assert_eq!(spec.shared_hidden.len(), 2);
        assert!(spec.heads.iter().all(|h| h.hidden.len() == 2));
    }

    #[test]
    fn search_improves_over_iterations_and_returns_best() {
        let rows = correlated_rows(2_048);
        let schema = schema(&rows);
        let mut search = MhasSearch::new(&schema, MhasConfig::quick(), 11).unwrap();
        let outcome = search
            .run(&rows, &DeepMappingConfig::default())
            .unwrap();
        assert_eq!(outcome.history.len(), MhasConfig::quick().iterations);
        assert!(outcome.best_ratio < f64::INFINITY);
        // The best ratio is no worse than the first sampled architecture's ratio.
        assert!(outcome.best_ratio <= outcome.history[0].compression_ratio + 1e-9);
        // Every sample carries a positive latency estimate and parameter count.
        for s in &outcome.history {
            assert!(s.estimated_latency_ms > 0.0);
            assert!(s.parameters > 0);
            assert!((0.0..=1.0).contains(&s.memorization_rate));
        }
        // The returned spec matches the schema.
        assert_eq!(outcome.best_spec.heads.len(), 2);
        assert_eq!(outcome.best_spec.input_dim, schema.input_dim());
    }

    #[test]
    fn weight_sharing_reuses_layers_across_samples() {
        let rows = correlated_rows(512);
        let schema = schema(&rows);
        let mut search = MhasSearch::new(&schema, MhasConfig::quick(), 3).unwrap();
        let spec = MultiTaskSpec {
            input_dim: schema.input_dim(),
            shared_hidden: vec![32],
            heads: vec![TaskHeadSpec::direct(3), TaskHeadSpec::direct(4)],
        };
        let net1 = search.instantiate(&spec).unwrap();
        search.store_weights(&spec, &net1);
        let net2 = search.instantiate(&spec).unwrap();
        // Re-instantiating the same architecture returns the banked weights.
        assert_eq!(
            net1.trunk()[0].weight().as_slice(),
            net2.trunk()[0].weight().as_slice()
        );
    }

    #[test]
    fn invalid_configurations_rejected() {
        let rows = correlated_rows(64);
        let schema = schema(&rows);
        let bad = MhasConfig {
            layer_sizes: vec![],
            ..MhasConfig::quick()
        };
        assert!(MhasSearch::new(&schema, bad, 1).is_err());
        let mut ok = MhasSearch::new(&schema, MhasConfig::quick(), 1).unwrap();
        assert!(ok.run(&[], &DeepMappingConfig::default()).is_err());
    }
}
