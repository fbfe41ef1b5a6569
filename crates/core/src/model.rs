//! The learned model `M`: a multi-task network wrapped with the key/label encodings of
//! one relation.
//!
//! This wrapper owns everything Section IV-A describes: the shared-trunk /
//! private-head network, the key feature encoding, mini-batch training with the
//! cross-entropy loss, batched inference, and the evaluation pass that decides which
//! tuples the model "memorizes" (all columns predicted correctly) versus which must go
//! to the auxiliary table.

use crate::config::TrainingConfig;
use crate::encoder::MappingSchema;
use crate::{CoreError, Result};
use dm_nn::{serialize, Adam, Matrix, MultiTaskModel, MultiTaskSpec, Optimizer, TaskHeadSpec};
use dm_storage::Row;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The learned model plus the encodings needed to use it on raw rows.
#[derive(Debug, Clone)]
pub struct MappingModel {
    schema: MappingSchema,
    network: MultiTaskModel,
    /// Epochs the latest [`train`](Self::train) ran (not stored with the model).
    trained_epochs: usize,
}

impl MappingModel {
    /// A reasonable default architecture when MHAS is not run: two shared hidden
    /// layers sized to the data volume and one private hidden layer per task.
    pub fn default_spec(schema: &MappingSchema, num_rows: usize) -> MultiTaskSpec {
        // Scale width with data volume, clamped to a range that keeps the model a
        // small fraction of the data even for the scaled-down datasets used here
        // (the paper searches 100-2000 neurons against multi-million-row tables).
        let width = ((num_rows as f64).sqrt() as usize).clamp(48, 384);
        let private = (width / 4).clamp(32, 128);
        MultiTaskSpec {
            input_dim: schema.input_dim(),
            shared_hidden: vec![width, width],
            heads: schema
                .cardinalities
                .iter()
                .map(|&card| TaskHeadSpec::with_hidden(vec![private], card as usize))
                .collect(),
        }
    }

    /// Instantiates a model with the given architecture.  The spec's input width and
    /// head count/classes must agree with the schema.
    pub fn new(schema: MappingSchema, spec: &MultiTaskSpec, seed: u64) -> Result<Self> {
        if spec.input_dim != schema.input_dim() {
            return Err(CoreError::InvalidConfig(format!(
                "spec input width {} does not match schema width {}",
                spec.input_dim,
                schema.input_dim()
            )));
        }
        if spec.heads.len() != schema.num_columns() {
            return Err(CoreError::InvalidConfig(format!(
                "spec has {} heads but schema has {} value columns",
                spec.heads.len(),
                schema.num_columns()
            )));
        }
        for (c, (head, &card)) in spec.heads.iter().zip(schema.cardinalities.iter()).enumerate() {
            if head.classes < card as usize {
                return Err(CoreError::InvalidConfig(format!(
                    "head {c} has {} classes but column cardinality is {card}",
                    head.classes
                )));
            }
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let network = MultiTaskModel::new(&mut rng, spec)?;
        Ok(MappingModel { schema, network, trained_epochs: 0 })
    }

    /// Wraps an already-trained network (e.g. deserialized from a snapshot) with
    /// its schema, validating that the two agree on input width and head count.
    pub fn from_parts(schema: MappingSchema, network: MultiTaskModel) -> Result<Self> {
        let spec = network.spec();
        if spec.input_dim != schema.input_dim() {
            return Err(CoreError::InvalidConfig(format!(
                "deserialized network expects input width {} but the schema encodes {}",
                spec.input_dim,
                schema.input_dim()
            )));
        }
        if spec.heads.len() != schema.num_columns() {
            return Err(CoreError::InvalidConfig(format!(
                "deserialized network has {} heads but the schema has {} value columns",
                spec.heads.len(),
                schema.num_columns()
            )));
        }
        Ok(MappingModel { schema, network, trained_epochs: 0 })
    }

    /// The schema this model was built for.
    pub fn schema(&self) -> &MappingSchema {
        &self.schema
    }

    /// The underlying multi-task network.
    pub fn network(&self) -> &MultiTaskModel {
        &self.network
    }

    /// Epochs the latest [`train`](Self::train) on this value ran — the
    /// configured budget, or fewer when it stopped early; 0 for a model that
    /// was opened, not trained.  With the row count it is the work a build did.
    pub fn trained_epochs(&self) -> usize {
        self.trained_epochs
    }

    /// Serialized model size in bytes — the `size(M)` term of Eq. 1.
    pub fn size_bytes(&self) -> usize {
        self.network.size_bytes()
    }

    /// Quantizes every dense layer to int8 (per-output-column symmetric
    /// scales).  Must run *before* [`split_by_memorization`](Self::split_by_memorization):
    /// the auxiliary table memorizes whatever the serve-time arithmetic
    /// mispredicts, so it has to be built against the quantized forward pass.
    pub fn quantize_int8(&mut self) -> Result<()> {
        self.network.quantize_int8()?;
        Ok(())
    }

    /// Whether the network serves through the int8 quantized inference path.
    pub fn is_quantized(&self) -> bool {
        self.network.is_quantized()
    }

    /// Trains the model on `rows`: shuffled mini-batches under Adam at
    /// `config.learning_rate`, halved (at most five times) whenever the epoch
    /// loss has not improved by 1 % for three epochs, stopping early once it
    /// falls under `config.loss_tolerance` or the halvings are used up.
    /// [`TrainingConfig::lr_decay`] is not read: there is no per-step decay.
    /// Returns the final epoch's mean loss.
    pub fn train(&mut self, rows: &[Row], config: &TrainingConfig, seed: u64) -> Result<f32> {
        self.trained_epochs = 0;
        if rows.is_empty() {
            return Ok(0.0);
        }
        let mut rng = StdRng::seed_from_u64(seed ^ TRAIN_RNG_SALT);
        let mut order: Vec<usize> = (0..rows.len()).collect();
        // Adam converges in far fewer steps than plain SGD on these memorization
        // workloads; the decayed-SGD schedule of the paper assumes thousands of
        // iterations, which the scaled-down datasets here do not need.
        let mut optimizer = Adam::new(config.learning_rate);
        let mut final_loss = 0.0f32;
        // Shuffled mini-batch losses fluctuate between epochs, and memorization
        // curves stall on plateaus (and oscillate under a too-hot learning rate)
        // long before convergence.  Track the best loss seen; after a few epochs
        // without substantial relative improvement, anneal the learning rate
        // instead of giving up, and stop early only once the loss itself is below
        // the convergence floor (`loss_tolerance`) or annealing is exhausted.
        let mut best_loss = f32::INFINITY;
        let mut stalled_epochs = 0usize;
        let mut reductions = 0usize;
        const PLATEAU_PATIENCE: usize = 3;
        const MAX_LR_REDUCTIONS: usize = 5;
        const MIN_RELATIVE_IMPROVEMENT: f32 = 0.01;
        let mut batch = TrainingBatch::new(&self.schema);
        for epoch in 0..config.epochs {
            self.trained_epochs = epoch + 1;
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0f32;
            let mut batches = 0usize;
            for chunk in order.chunks(config.batch_size.max(1)) {
                batch.fill(&self.schema, rows, chunk);
                let loss = self.network.train_batch(&batch.x, &batch.targets, &mut optimizer)?;
                epoch_loss += loss;
                batches += 1;
            }
            final_loss = epoch_loss / batches.max(1) as f32;
            if final_loss < config.loss_tolerance {
                break;
            }
            if final_loss < best_loss * (1.0 - MIN_RELATIVE_IMPROVEMENT) {
                best_loss = final_loss;
                stalled_epochs = 0;
            } else {
                stalled_epochs += 1;
                if stalled_epochs >= PLATEAU_PATIENCE {
                    if reductions >= MAX_LR_REDUCTIONS {
                        break;
                    }
                    optimizer.set_learning_rate(optimizer.learning_rate() * 0.5);
                    reductions += 1;
                    stalled_epochs = 0;
                }
            }
        }
        self.network.clear_cache();
        Ok(final_loss)
    }

    /// Batched inference: predicted class codes per query key
    /// (`predictions[i][c]` = column `c` of query `i`) — [`predict_into`](Self::predict_into)
    /// with one `Vec` per key, for callers that want the nested shape.
    pub fn predict(&self, keys: &[u64]) -> Result<Vec<Vec<u32>>> {
        let mut flat = Vec::new();
        let columns = self.predict_into(keys, &mut flat)?;
        Ok(flat.chunks_exact(columns).map(<[u32]>::to_vec).collect())
    }

    /// Allocation-aware batched inference: appends row-major predictions to a
    /// caller-owned flat arena (`out[i * columns + c]` = column `c` of query `i`) and
    /// returns the number of value columns — one vectorized forward pass per batch,
    /// never per key, with no per-key `Vec`: the layout the buffer-reusing query
    /// pipeline consumes.  Runs on the shared [`dm_exec::global`] pool.
    pub fn predict_into(&self, keys: &[u64], out: &mut Vec<u32>) -> Result<usize> {
        self.predict_into_on(dm_exec::global(), keys, out)
    }

    /// [`predict_into`](Self::predict_into) on an explicit execution pool: large
    /// batches are split into row chunks whose matrix-multiply sequences run as
    /// independent pool tasks (serial below `dm_nn::PARALLEL_ROW_CROSSOVER` rows).
    /// This is the entry point the query pipeline drives, so a store's
    /// `exec_threads` knob governs its inference parallelism.
    ///
    /// The keys go to the network as keys
    /// ([`MultiTaskModel::forward_keys_flat_on`]): no batch-wide feature matrix
    /// is built, each cache-sized row chunk of the walk encodes its own — for
    /// an int8 model straight into the first layer's input bytes.  The
    /// predictions are those of `forward_batch_flat_on` over
    /// `key_encoder.encode_batch(keys)`, bit for bit.
    pub fn predict_into_on(
        &self,
        exec: &dm_exec::ThreadPool,
        keys: &[u64],
        out: &mut Vec<u32>,
    ) -> Result<usize> {
        let encoder = &self.schema.key_encoder;
        Ok(self.network.forward_keys_flat_on(exec, encoder, keys, out)?)
    }

    /// Runs the model over `rows` and splits them into (memorized, misclassified):
    /// a row is memorized only if *every* column is predicted correctly — the test
    /// that decides what goes into the auxiliary table (Section IV-B1).  The
    /// predictions come from [`predict_into_on`](Self::predict_into_on) on `exec`:
    /// the very code, on the very pool, that later serves the memorized keys.
    pub fn split_by_memorization(
        &self,
        exec: &dm_exec::ThreadPool,
        rows: &[Row],
    ) -> Result<(Vec<Row>, Vec<Row>)> {
        if rows.is_empty() {
            return Ok((Vec::new(), Vec::new()));
        }
        let mut memorized = Vec::new();
        let mut misclassified = Vec::new();
        // Process in chunks to bound the activation memory of batched inference.
        const CHUNK: usize = 16_384;
        let mut predictions = Vec::new();
        for chunk in rows.chunks(CHUNK) {
            let keys: Vec<u64> = chunk.iter().map(|r| r.key).collect();
            let columns = self.predict_into_on(exec, &keys, &mut predictions)?;
            for (row, pred) in chunk.iter().zip(predictions.chunks_exact(columns)) {
                if pred == row.values.as_slice() {
                    memorized.push(row.clone());
                } else {
                    misclassified.push(row.clone());
                }
            }
        }
        Ok((memorized, misclassified))
    }

    /// Fraction of `rows` the model memorizes (all columns correct).
    pub fn memorization_rate(&self, rows: &[Row]) -> Result<f64> {
        if rows.is_empty() {
            return Ok(1.0);
        }
        let (memorized, _) = self.split_by_memorization(dm_exec::global(), rows)?;
        Ok(memorized.len() as f64 / rows.len() as f64)
    }

    /// Serializes the network to bytes (the on-disk form whose size Eq. 1 charges).
    pub fn to_bytes(&self) -> Vec<u8> {
        serialize::serialize_multitask(&self.network)
    }
}

/// The features and targets of one mini-batch, in buffers a training run
/// fills again for every batch instead of allocating them per step.
struct TrainingBatch {
    /// The batch's keys, gathered before they are encoded: the rows come in
    /// shuffled order, and a pass of nothing but loads overlaps its cache
    /// misses where a load per encoded key waits for each (20 ms of a 1.1 s
    /// build on the frozen benchmark's table).
    keys: Vec<u64>,
    /// One row of key features per batch row.
    x: Matrix,
    /// `targets[column][row]`: the class to learn.
    targets: Vec<Vec<usize>>,
}

impl TrainingBatch {
    fn new(schema: &MappingSchema) -> Self {
        TrainingBatch {
            keys: Vec::new(),
            x: Matrix::zeros(0, schema.input_dim()),
            targets: vec![Vec::new(); schema.num_columns()],
        }
    }

    /// Replaces the batch with `rows[indices]`, in that order.
    fn fill(&mut self, schema: &MappingSchema, rows: &[Row], indices: &[usize]) {
        self.x.reshape(indices.len(), schema.input_dim());
        self.targets.iter_mut().for_each(Vec::clear);
        self.keys.clear();
        self.keys.extend(indices.iter().map(|&i| rows[i].key));
        for (r, &key) in self.keys.iter().enumerate() {
            // `encode_into` writes every feature, so nothing of the batch
            // before shows through.
            schema.key_encoder.encode_into(key, self.x.row_mut(r));
        }
        for &i in indices {
            for ((column, &v), &cardinality) in
                self.targets.iter_mut().zip(&rows[i].values).zip(&schema.cardinalities)
            {
                // Values outside the head's class range cannot be learned; clamp for
                // training purposes (they will be caught by the auxiliary table).
                column.push(v.min(cardinality.saturating_sub(1)) as usize);
            }
        }
    }
}

/// Salt mixed into the training RNG seed so training and initialization use
/// independent streams even when the caller passes the same seed.
const TRAIN_RNG_SALT: u64 = 0x7121a1;

#[cfg(test)]
mod tests {
    use super::*;

    fn correlated_rows(n: u64) -> Vec<Row> {
        (0..n)
            .map(|k| Row::new(k, vec![((k / 16) % 4) as u32, ((k / 8) % 3) as u32]))
            .collect()
    }

    fn random_rows(n: u64) -> Vec<Row> {
        (0..n)
            .map(|k| {
                let h = k.wrapping_mul(0x9E3779B97F4A7C15) >> 13;
                Row::new(k, vec![(h % 5) as u32, ((h >> 8) % 3) as u32])
            })
            .collect()
    }

    #[test]
    fn default_spec_matches_schema() {
        let rows = correlated_rows(1000);
        let schema = MappingSchema::infer(&rows, 0).unwrap();
        let spec = MappingModel::default_spec(&schema, rows.len());
        assert_eq!(spec.input_dim, schema.input_dim());
        assert_eq!(spec.heads.len(), 2);
        assert_eq!(spec.heads[0].classes, 4);
        assert_eq!(spec.heads[1].classes, 3);
        assert!(MappingModel::new(schema, &spec, 1).is_ok());
    }

    #[test]
    fn mismatched_specs_are_rejected() {
        let rows = correlated_rows(100);
        let schema = MappingSchema::infer(&rows, 0).unwrap();
        let mut spec = MappingModel::default_spec(&schema, rows.len());
        spec.input_dim += 1;
        assert!(MappingModel::new(schema.clone(), &spec, 1).is_err());
        let mut spec = MappingModel::default_spec(&schema, rows.len());
        spec.heads.pop();
        assert!(MappingModel::new(schema.clone(), &spec, 1).is_err());
        let mut spec = MappingModel::default_spec(&schema, rows.len());
        spec.heads[0].classes = 1;
        assert!(MappingModel::new(schema, &spec, 1).is_err());
    }

    #[test]
    fn model_memorizes_correlated_data_well() {
        let rows = correlated_rows(2048);
        let schema = MappingSchema::infer(&rows, 0).unwrap();
        let spec = MappingModel::default_spec(&schema, rows.len());
        let mut model = MappingModel::new(schema, &spec, 3).unwrap();
        model
            .train(&rows, &TrainingConfig { epochs: 40, batch_size: 512, ..Default::default() }, 3)
            .unwrap();
        let rate = model.memorization_rate(&rows).unwrap();
        assert!(rate > 0.8, "memorization rate {rate}");
        let (memorized, misclassified) = model
            .split_by_memorization(dm_exec::global(), &rows)
            .unwrap();
        assert_eq!(memorized.len() + misclassified.len(), rows.len());
    }

    #[test]
    fn correlated_data_is_memorized_better_than_random_data() {
        let train = |rows: &Vec<Row>| -> f64 {
            let schema = MappingSchema::infer(rows, 0).unwrap();
            let spec = MultiTaskSpec {
                input_dim: schema.input_dim(),
                shared_hidden: vec![64],
                heads: schema
                    .cardinalities
                    .iter()
                    .map(|&c| TaskHeadSpec::direct(c as usize))
                    .collect(),
            };
            let mut model = MappingModel::new(schema, &spec, 5).unwrap();
            model
                .train(rows, &TrainingConfig { epochs: 15, batch_size: 512, ..Default::default() }, 5)
                .unwrap();
            model.memorization_rate(rows).unwrap()
        };
        let correlated = train(&correlated_rows(2048));
        let random = train(&random_rows(2048));
        assert!(
            correlated > random,
            "correlated {correlated} should beat random {random}"
        );
    }

    #[test]
    fn predictions_have_one_code_per_column() {
        let rows = correlated_rows(256);
        let schema = MappingSchema::infer(&rows, 0).unwrap();
        let spec = MappingModel::default_spec(&schema, rows.len());
        let model = MappingModel::new(schema, &spec, 1).unwrap();
        let preds = model.predict(&[0, 1, 2]).unwrap();
        assert_eq!(preds.len(), 3);
        assert!(preds.iter().all(|p| p.len() == 2));
        assert!(model.predict(&[]).unwrap().is_empty());
    }

    #[test]
    fn size_bytes_matches_serialized_form_roughly() {
        let rows = correlated_rows(128);
        let schema = MappingSchema::infer(&rows, 0).unwrap();
        let spec = MappingModel::default_spec(&schema, rows.len());
        let model = MappingModel::new(schema, &spec, 1).unwrap();
        let serialized = model.to_bytes().len();
        let reported = model.size_bytes();
        // The size model is an estimate; it must be within 20% of the real thing.
        let ratio = serialized as f64 / reported as f64;
        assert!((0.8..1.2).contains(&ratio), "serialized {serialized} vs reported {reported}");
    }

    #[test]
    fn empty_training_set_is_a_no_op() {
        let rows = correlated_rows(64);
        let schema = MappingSchema::infer(&rows, 0).unwrap();
        let spec = MappingModel::default_spec(&schema, rows.len());
        let mut model = MappingModel::new(schema, &spec, 1).unwrap();
        assert_eq!(model.train(&[], &TrainingConfig::default(), 1).unwrap(), 0.0);
        assert_eq!(model.memorization_rate(&[]).unwrap(), 1.0);
    }
}
