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
//! * a **seeded uniform sampler** draws each architecture: one uniform choice per
//!   decision of [`SearchSpace::choice_counts`] from the search's own seeded generator,
//!   so a search — its history and its winner — is a function of its seed.
//!
//! The paper samples with an LSTM controller trained by REINFORCE on the Eq.-1 reward
//! (Algorithm 2 alternates model-training and controller-training iterations).  At the
//! paper runner's budget — 48 candidates on each of `orders`, `part`, `supplier` and
//! `customer` at two scales, five seeds — that controller's winners built a smaller
//! store than the uniform sampler's in 2 of the 8 cells by median and a larger one in
//! 2, so it was removed: a learned part stays only where it beats the simple draw it
//! replaces at an equal budget.
//!
//! A candidate is scored by building it: its layers come out of the weight bank, are
//! trained by [`MappingModel::train`] for `model_epochs` over the sample, go back to
//! the bank, and then take the very steps a store's build takes — quantized to int8,
//! every row split by what the serve-time arithmetic predicts, the auxiliary table and
//! both bit vectors built from that split.  So a [`SearchSample`]'s
//! `compression_ratio` *is* `storage_breakdown().compression_ratio()` of the store
//! that candidate assembles — Eq. 1 exactly, of the weights `model_epochs` of shared-weight training leave, not of a full build's
//! epochs — its `memorization_rate` that store's `memorized_fraction()`, and
//! `macs_per_key` the exact multiply-accumulates a predicted key costs.  Those are the
//! dots of Figures 9 and 10.  The winner is the candidate of the lowest ratio; the MAC
//! count is recorded, not yet constrained.

use crate::config::{DeepMappingConfig, TrainingConfig};
use crate::encoder::{DecodeMap, MappingSchema};
use crate::hybrid::{storage_breakdown, Assurance};
use crate::model::MappingModel;
use crate::stats::StorageBreakdown;
use crate::{CoreError, Result};
use dm_nn::layer::{Activation, Dense};
use dm_nn::{MultiTaskModel, MultiTaskSpec, TaskHeadSpec};
use dm_storage::{Metrics, Row};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
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

    /// Number of choices at each decision of an architecture.
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

    /// Decodes a decision sequence into a concrete architecture.
    pub fn decode(&self, choices: &[usize], schema: &MappingSchema) -> Result<MultiTaskSpec> {
        let expected = self.choice_counts().len();
        if choices.len() != expected {
            return Err(CoreError::InvalidConfig(format!(
                "expected {expected} decisions, got {}",
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

/// Budget and hyperparameters of the search (Algorithm 2's `Nt` and the
/// training settings of Section V-A6, scaled down so the search runs in seconds).
#[derive(Debug, Clone, PartialEq)]
pub struct MhasConfig {
    /// Total search iterations (`Nt`).
    pub iterations: usize,
    /// Epochs of model training per model-training iteration (`m_epochs`).
    pub model_epochs: usize,
    /// Mini-batch size for model training during the search.
    pub batch_size: usize,
    /// At most this many rows train a candidate (a uniform sample of the
    /// dataset); every candidate is scored over all rows.
    pub sample_rows: usize,
    /// Candidate layer widths (overrides the default [`SearchSpace`] widths).
    pub layer_sizes: Vec<usize>,
}

impl Default for MhasConfig {
    fn default() -> Self {
        MhasConfig {
            iterations: 60,
            model_epochs: 2,
            batch_size: 2048,
            sample_rows: 4096,
            layer_sizes: vec![32, 64, 128, 256],
        }
    }
}

impl MhasConfig {
    /// A very small budget for unit tests and examples.
    pub fn quick() -> Self {
        MhasConfig {
            iterations: 12,
            model_epochs: 1,
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
    /// Eq. 1 of the store this candidate assembles: its
    /// `storage_breakdown().compression_ratio()`.
    pub compression_ratio: f64,
    /// Multiply-accumulates one predicted key costs in the sampled architecture.
    pub macs_per_key: usize,
    /// Number of trainable parameters of the sampled architecture.
    pub parameters: usize,
    /// Fraction of all rows the candidate's model answers.
    pub memorization_rate: f64,
}

/// Outcome of a search run.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The architecture with the best (lowest) compression ratio.
    pub best_spec: MultiTaskSpec,
    /// Its compression ratio when it was sampled.
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
    bank: WeightBank,
    rng: StdRng,
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
        Ok(MhasSearch {
            space,
            config,
            schema: schema.clone(),
            bank: WeightBank::default(),
            rng: StdRng::seed_from_u64(seed ^ 0x3a5),
        })
    }

    /// The search space being explored.
    pub fn space(&self) -> &SearchSpace {
        &self.space
    }

    /// Runs Algorithm 2 with uniform sampling: `iterations` architectures drawn, each
    /// scored by building it; returns the best architecture plus the sampling history.
    pub fn run(&mut self, rows: &[Row], dm_config: &DeepMappingConfig) -> Result<SearchOutcome> {
        if rows.is_empty() {
            return Err(CoreError::InvalidConfig("cannot search on an empty dataset".into()));
        }
        // Only training needs the sample; inference over every row is cheap.
        let mut sample: Vec<Row> = rows.to_vec();
        sample.shuffle(&mut self.rng);
        sample.truncate(self.config.sample_rows.max(64));

        let counts = self.space.choice_counts();
        let mut history = Vec::with_capacity(self.config.iterations);
        let mut best_spec: Option<MultiTaskSpec> = None;
        let mut best_ratio = f64::INFINITY;

        for iteration in 0..self.config.iterations {
            let choices: Vec<usize> = counts
                .iter()
                .map(|&count| self.rng.gen_range(0..count))
                .collect();
            let spec = self.space.decode(&choices, &self.schema)?;

            let breakdown = self.candidate(&spec, &sample, rows, dm_config)?;
            let ratio = breakdown.compression_ratio();
            history.push(SearchSample {
                iteration,
                compression_ratio: ratio,
                macs_per_key: spec.macs_per_key(),
                parameters: spec.parameter_count(),
                memorization_rate: breakdown.memorized_fraction(),
            });
            if ratio < best_ratio {
                best_ratio = ratio;
                best_spec = Some(spec);
            }
        }

        let best_spec = best_spec.unwrap_or_else(|| MappingModel::default_spec(&self.schema, rows.len()));
        Ok(SearchOutcome {
            best_spec,
            best_ratio,
            history,
        })
    }

    /// What a store of `spec` would hold: the architecture instantiated from the weight
    /// bank, trained on `sample` by the product's own loop and stored back — *before*
    /// quantization, the bank keeps training f32 weights — then put through the build's
    /// own [`Assurance`] over all `rows` under `dm_config` and summed as a store sums
    /// itself (with the empty decode map of `DeepMapping::build`; `fdecode` is the same
    /// for every candidate).
    fn candidate(
        &mut self,
        spec: &MultiTaskSpec,
        sample: &[Row],
        rows: &[Row],
        dm_config: &DeepMappingConfig,
    ) -> Result<StorageBreakdown> {
        let network = self.instantiate(spec)?;
        let mut model = MappingModel::from_parts(self.schema.clone(), network)?;
        let training = TrainingConfig {
            epochs: self.config.model_epochs,
            batch_size: self.config.batch_size,
            ..TrainingConfig::default()
        };
        model.train(sample, &training, self.rng.next_u64())?;
        self.store_weights(spec, model.network());
        let Assurance { aux, exist, vaux } =
            Assurance::build(&mut model, rows, dm_config, &Metrics::new())?;
        let fdecode = DecodeMap::default();
        Ok(storage_breakdown(&model, &aux, &exist, &vaux, &fdecode, rows.len()))
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aux_table::AuxTable;
    use crate::hybrid::{DeepMapping, DeepMappingParts};

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
    fn a_search_samples_its_budget_and_returns_the_lowest_ratio() {
        let rows = correlated_rows(2_048);
        let schema = schema(&rows);
        let mut search = MhasSearch::new(&schema, MhasConfig::quick(), 11).unwrap();
        let outcome = search
            .run(&rows, &DeepMappingConfig::default())
            .unwrap();
        assert_eq!(outcome.history.len(), MhasConfig::quick().iterations);
        // The best ratio is the lowest any sampled architecture scored.
        let lowest = outcome
            .history
            .iter()
            .map(|s| s.compression_ratio)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(outcome.best_ratio, lowest);
        // Every sample carries a parameter count and a memorization rate.
        for s in &outcome.history {
            assert!(s.parameters > 0);
            assert!((0.0..=1.0).contains(&s.memorization_rate));
        }
        // The returned spec matches the schema.
        assert_eq!(outcome.best_spec.heads.len(), 2);
        assert_eq!(outcome.best_spec.input_dim, schema.input_dim());
    }

    /// Two searches under one seed sample and score the same architectures in the same
    /// order and return the same winner; another seed samples others.
    #[test]
    fn a_search_is_a_function_of_its_seed() {
        let rows = correlated_rows(2_048);
        let schema = schema(&rows);
        let config = MhasConfig {
            iterations: 4,
            ..MhasConfig::quick()
        };
        let search = |seed| {
            let mut search = MhasSearch::new(&schema, config.clone(), seed).unwrap();
            search.run(&rows, &DeepMappingConfig::default()).unwrap()
        };
        let (first, again, other) = (search(5), search(5), search(6));
        assert_eq!(first.history, again.history);
        assert_eq!(first.best_spec, again.best_spec);
        assert_ne!(first.history, other.history);
    }

    /// One fixed architecture scored as a candidate, beside the model the score was
    /// taken of (the bank's weights, in the store's arithmetic).
    fn scored_candidate(rows: &[Row]) -> (StorageBreakdown, MappingModel, DeepMappingConfig) {
        let schema = schema(rows);
        let config = DeepMappingConfig::default().with_partition_bytes(4 * 1024);
        let spec = MultiTaskSpec {
            input_dim: schema.input_dim(),
            shared_hidden: vec![64],
            heads: vec![TaskHeadSpec::direct(3), TaskHeadSpec::with_hidden(vec![32], 4)],
        };
        let mut search = MhasSearch::new(&schema, MhasConfig::quick(), 7).unwrap();
        let score = search.candidate(&spec, &rows[..1_024], rows, &config).unwrap();
        let mut model = MappingModel::from_parts(schema, search.instantiate(&spec).unwrap()).unwrap();
        model.quantize_int8().unwrap();
        (score, model, config)
    }

    #[test]
    fn a_candidates_score_is_the_ratio_of_the_store_it_builds() {
        let rows = correlated_rows(2_048);
        let (score, model, config) = scored_candidate(&rows);
        // The store of that model, assembled from the public parts.
        let (_, misclassified) = model.split_by_memorization(&rows).unwrap();
        let aux = AuxTable::build(
            &misclassified,
            2,
            config.codec,
            config.partition_bytes,
            config.memory_budget_bytes,
            config.disk_profile,
            Metrics::new(),
        )
        .unwrap();
        let store = DeepMapping::from_parts(DeepMappingParts {
            config,
            model,
            aux,
            exist: rows.iter().map(|row| row.key).collect(),
            decode_map: DecodeMap::default(),
            tuple_count: rows.len(),
            retrain_count: 0,
        });
        let built = store.storage_breakdown();
        assert_eq!(score.total_bytes(), built.total_bytes());
        assert_eq!(score, built);
    }

    #[test]
    fn an_int8_search_prices_int8_bytes() {
        let rows = correlated_rows(2_048);
        let (score, model, _) = scored_candidate(&rows);
        assert!(model.is_quantized());
        // The model term is the quantized model's serialized size, not 4 B a parameter.
        assert_eq!(score.model_bytes, model.size_bytes());
        let f32_bytes = 4 * model.network().parameter_count();
        assert!(score.model_bytes * 3 < f32_bytes, "{score:?} vs {f32_bytes} f32 bytes");
        // And the memorized rows are the ones the int8 walk answers.
        let (memorized, _) = model.split_by_memorization(&rows).unwrap();
        assert_eq!(score.memorized_tuples, memorized.len());
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
