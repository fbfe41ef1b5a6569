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
    /// Epochs the latest [`train`](Self::train) ran, why it ended and the rows
    /// its last epoch got right (none of it stored with the model).
    trained_epochs: usize,
    training_stop: Option<TrainingStop>,
    trained_right_rows: usize,
    /// The rungs the default-architecture build that made this model priced
    /// (not stored with the model either).
    ladder: Vec<Rung>,
}

/// One rung a default-architecture build priced on its climb up
/// [`MappingModel::ladder_specs`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rung {
    /// The rung's shared hidden widths.
    pub shared_hidden: Vec<usize>,
    /// Epochs its training ran.
    pub epochs: usize,
    /// Multiply-accumulates of one key's forward pass through it.
    pub macs_per_key: usize,
    /// The Eq.-1 sum of the store it made
    /// ([`StorageBreakdown::total_bytes`](crate::StorageBreakdown::total_bytes)).
    pub bytes: usize,
    /// Rows it left to the auxiliary table.
    pub corrected_rows: usize,
}

/// The narrowest rung's shared width: one whole 16-column panel of the kernels.
const LADDER_BASE_WIDTH: usize = 16;

impl MappingModel {
    /// The top rung of [`ladder_specs`](Self::ladder_specs): two shared hidden
    /// layers sized to the data volume and one private hidden layer per task.
    /// A build trains it only when every narrower rung kept shrinking the
    /// store; `SearchStrategy::Fixed(default_spec(..))` trains it alone.
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

    /// The widths a default-architecture build climbs, narrowest first: one
    /// shared layer of `16·2ⁱ` for every such width below
    /// [`default_spec`](Self::default_spec)'s, each with its heads straight off
    /// it, then `default_spec` itself.  The build keeps a rung only while each
    /// makes a smaller store than the one before (Eq. 1).
    pub fn ladder_specs(schema: &MappingSchema, num_rows: usize) -> Vec<MultiTaskSpec> {
        let top = Self::default_spec(schema, num_rows);
        let top_width = top.shared_hidden[0];
        let widths = (0..).map(|i| LADDER_BASE_WIDTH << i).take_while(|&width| width < top_width);
        let rung = |width| MultiTaskSpec {
            input_dim: schema.input_dim(),
            shared_hidden: vec![width],
            heads: schema
                .cardinalities
                .iter()
                .map(|&card| TaskHeadSpec::direct(card as usize))
                .collect(),
        };
        widths.map(rung).chain(std::iter::once(top)).collect()
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
        Ok(Self::untrained(schema, network))
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
        Ok(Self::untrained(schema, network))
    }

    fn untrained(schema: MappingSchema, network: MultiTaskModel) -> Self {
        MappingModel {
            schema,
            network,
            trained_epochs: 0,
            training_stop: None,
            trained_right_rows: 0,
            ladder: Vec::new(),
        }
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
    /// configured cap, or fewer when it stopped early ([`training_stop`](Self::training_stop)
    /// says why); 0 for a model that was opened, not trained.  With the row
    /// count it is the work a build did.
    pub fn trained_epochs(&self) -> usize {
        self.trained_epochs
    }

    /// Why the latest [`train`](Self::train) on this value ended; `None` for a
    /// model that was opened, not trained.
    pub fn training_stop(&self) -> Option<TrainingStop> {
        self.training_stop
    }

    /// Rows every head got right in the last epoch the latest
    /// [`train`](Self::train) ran, counted by that epoch's own forward passes
    /// (each batch before its update) — the count the
    /// [`MemorizationPlateau`](TrainingStop::MemorizationPlateau) rule reads.
    pub fn trained_right_rows(&self) -> usize {
        self.trained_right_rows
    }

    /// The rungs the default-architecture build that made this model priced,
    /// in the order it trained them; this model is the last rung that shrank
    /// the store.  Empty for a model that was opened, or built under a fixed
    /// or searched architecture.
    pub fn ladder(&self) -> &[Rung] {
        &self.ladder
    }

    pub(crate) fn set_ladder(&mut self, ladder: Vec<Rung>) {
        self.ladder = ladder;
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
    /// loss has not improved by 1 % for three epochs.  `config.epochs` is a
    /// cap; training ends before it (see [`TrainingStop`]) once the epoch loss
    /// falls under `config.loss_tolerance`, every row is right, memorization
    /// has plateaued, or the halvings are used up.  Every rule reads values the
    /// epochs already computed, so a run that ends after `E` epochs holds the
    /// weights of the same seeded run capped at `E`.
    /// [`TrainingConfig::lr_decay`] is not read: there is no per-step decay.
    /// Returns the final epoch's mean loss.
    pub fn train(&mut self, rows: &[Row], config: &TrainingConfig, seed: u64) -> Result<f32> {
        self.trained_epochs = 0;
        self.trained_right_rows = 0;
        if rows.is_empty() {
            self.training_stop = Some(TrainingStop::EveryRowRight);
            return Ok(0.0);
        }
        self.training_stop = Some(TrainingStop::Budget);
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
        // instead of giving up.  Stop early once the loss itself is below the
        // convergence floor (`loss_tolerance`), once the rows the epoch got
        // right — what Eq. 1 charges for, not the loss — are all of them or
        // have plateaued, or once annealing is exhausted.
        let mut best_loss = f32::INFINITY;
        let mut stalled_epochs = 0usize;
        let mut reductions = 0usize;
        const PLATEAU_PATIENCE: usize = 3;
        const MAX_LR_REDUCTIONS: usize = 5;
        const MIN_RELATIVE_IMPROVEMENT: f32 = 0.01;
        let mut memorization = MemorizationCurve::new(rows.len());
        let mut batch = TrainingBatch::new(&self.schema);
        for epoch in 0..config.epochs {
            self.trained_epochs = epoch + 1;
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0f32;
            let mut batches = 0usize;
            let mut right = 0usize;
            for chunk in order.chunks(config.batch_size.max(1)) {
                batch.fill(&self.schema, rows, chunk);
                let step = self.network.train_batch(&batch.x, &batch.targets, &mut optimizer)?;
                epoch_loss += step.loss;
                right += step.right_rows;
                batches += 1;
            }
            final_loss = epoch_loss / batches.max(1) as f32;
            self.trained_right_rows = right;
            let stop = if final_loss < config.loss_tolerance {
                Some(TrainingStop::LossFloor)
            } else if right == rows.len() {
                Some(TrainingStop::EveryRowRight)
            } else if memorization.plateaued(right, final_loss) {
                Some(TrainingStop::MemorizationPlateau)
            } else if final_loss < best_loss * (1.0 - MIN_RELATIVE_IMPROVEMENT) {
                best_loss = final_loss;
                stalled_epochs = 0;
                None
            } else {
                stalled_epochs += 1;
                if stalled_epochs < PLATEAU_PATIENCE {
                    None
                } else if reductions >= MAX_LR_REDUCTIONS {
                    Some(TrainingStop::Schedule)
                } else {
                    optimizer.set_learning_rate(optimizer.learning_rate() * 0.5);
                    reductions += 1;
                    stalled_epochs = 0;
                    None
                }
            };
            if let Some(stop) = stop.filter(|_| epoch + 1 < config.epochs) {
                self.training_stop = Some(stop);
                break;
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

/// Why a [`MappingModel::train`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainingStop {
    /// It ran every epoch [`TrainingConfig::epochs`] allows.
    Budget,
    /// An epoch's mean loss fell under [`TrainingConfig::loss_tolerance`].
    LossFloor,
    /// The learning rate had been halved five times and the loss stalled again.
    Schedule,
    /// Every row was right in every head through a whole epoch.
    EveryRowRight,
    /// Eq. 1 charges the rows a model gets wrong, not its loss: for two epochs
    /// no epoch got `max(1, rows / 1000)` more rows right than the best before
    /// them, this one sits within that margin of the best (it is not a dip the
    /// next epochs may climb out of), and the loss fell by less than 2.5 % an
    /// epoch — the model is fitting rows it does not flip.
    MemorizationPlateau,
}

impl TrainingStop {
    /// The name a result row carries.
    pub fn name(&self) -> &'static str {
        match self {
            TrainingStop::Budget => "budget",
            TrainingStop::LossFloor => "loss_floor",
            TrainingStop::Schedule => "schedule",
            TrainingStop::EveryRowRight => "every_row_right",
            TrainingStop::MemorizationPlateau => "memorization_plateau",
        }
    }
}

/// The epochs of one training run as the memorization plateau reads them.
struct MemorizationCurve {
    /// Fewer newly right rows than this are no new memorization.
    margin: usize,
    /// Per epoch so far: the most rows any epoch up to it got right.
    best: Vec<usize>,
    /// Per epoch so far: its mean loss.
    losses: Vec<f32>,
}

impl MemorizationCurve {
    /// Epochs the plateau looks back over.
    const WINDOW: usize = 2;
    /// A loss falling at least this share an epoch is still learning something.
    const LOSS_FALL_PER_EPOCH: f32 = 0.025;

    fn new(rows: usize) -> Self {
        MemorizationCurve { margin: (rows / 1000).max(1), best: Vec::new(), losses: Vec::new() }
    }

    /// Records an epoch that got `right` rows right at mean `loss`; whether
    /// memorization has plateaued with it (see
    /// [`TrainingStop::MemorizationPlateau`]).
    fn plateaued(&mut self, right: usize, loss: f32) -> bool {
        let best = self.best.last().map_or(right, |&before| before.max(right));
        self.best.push(best);
        self.losses.push(loss);
        let Some(then) = self.best.len().checked_sub(Self::WINDOW + 1) else {
            return false;
        };
        let flat_loss = 1.0 - Self::LOSS_FALL_PER_EPOCH * Self::WINDOW as f32;
        best < self.best[then] + self.margin
            && right + self.margin >= best
            && loss > self.losses[then] * flat_loss
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

    /// On rows it can learn whole, training ends the epoch every row is right,
    /// under its budget, with a model that predicts every one of them.
    #[test]
    fn clean_data_stops_once_every_row_is_right() {
        let rows = correlated_rows(2048);
        let schema = MappingSchema::infer(&rows, 0).unwrap();
        let spec = MappingModel::default_spec(&schema, rows.len());
        let mut model = MappingModel::new(schema, &spec, 3).unwrap();
        let config = TrainingConfig { epochs: 40, batch_size: 512, ..Default::default() };
        model.train(&rows, &config, 3).unwrap();
        assert_eq!(model.training_stop(), Some(TrainingStop::EveryRowRight));
        assert!(model.trained_epochs() < config.epochs, "{} epochs", model.trained_epochs());
        assert_eq!(model.trained_right_rows(), rows.len());
        assert_eq!(model.memorization_rate(&rows).unwrap(), 1.0);
    }

    /// The plateau of `mixed`, `crop`'s loss that still falls through flat
    /// memorization, and `customer_demographics`' dip: only the first stops.
    #[test]
    fn memorization_plateaus_only_on_flat_rows_and_a_flattened_loss() {
        let first_stop = |curve: &[(usize, f32)]| {
            let mut memorization = MemorizationCurve::new(20_000);
            curve.iter().position(|&(right, loss)| memorization.plateaued(right, loss)).map(|e| e + 1)
        };
        // Two epochs gaining fewer than 20 rows while the loss falls 2 % an epoch.
        let mixed =
            [(366, 2.0), (7_927, 1.2), (11_728, 1.0), (11_944, 0.98), (11_956, 0.96), (11_957, 0.94)];
        assert_eq!(first_stop(&mixed), Some(6));
        // The same rows with the loss falling 5 % an epoch: still learning.
        let falling: Vec<(usize, f32)> =
            mixed.iter().zip(0..).map(|(&(right, _), e)| (right, 0.95f32.powi(e))).collect();
        assert_eq!(first_stop(&falling), None);
        // A dip far under the best is no plateau, and the recovery is.
        let dip = [(9_000, 0.5), (9_446, 0.4), (9_450, 0.4), (8_047, 0.4), (9_440, 0.4)];
        assert_eq!(first_stop(&dip), Some(5));
        // Nothing is judged before the window has filled.
        assert_eq!(first_stop(&[(5, 1.0), (5, 1.0)]), None);
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
