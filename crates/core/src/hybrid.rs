//! The DeepMapping hybrid structure: model + auxiliary table + existence vector +
//! decode map, with Algorithm 1 lookups and the Algorithm 3–5 modification workflows.

use crate::aux_table::AuxTable;
use crate::config::{DeepMappingConfig, SearchStrategy};
use crate::encoder::{DecodeMap, MappingSchema};
use crate::mhas::MhasSearch;
use crate::model::{MappingModel, Rung};
use crate::pipeline::QueryPipeline;
use crate::stats::StorageBreakdown;
use crate::{CoreError, Result};
use dm_exec::ExecHandle;
use dm_nn::MultiTaskSpec;
use dm_storage::{BitVec, LookupBuffer, Metrics, MutableStore, Row, StoreStats, TupleStore};

/// Key-range headroom added to the key encoder so insertions beyond the current
/// maximum key (Section IV-D) stay encodable without rebuilding the model.
///
/// Public so callers that infer a [`MappingSchema`] themselves (e.g. to drive
/// [`MhasSearch`] by hand and feed the winning spec back through
/// [`SearchStrategy::Fixed`](crate::config::SearchStrategy)) can match the input
/// width `DeepMapping::build` will use.
pub const KEY_HEADROOM: u64 = 1 << 20;

/// The prebuilt components [`DeepMapping::from_parts`] reassembles — produced by
/// deserializing a `dm-persist` snapshot (or any caller that already holds a
/// trained model plus its auxiliary structures).
pub struct DeepMappingParts {
    /// The configuration the structure was originally built with.
    pub config: DeepMappingConfig,
    /// The trained model (schema + weights).
    pub model: MappingModel,
    /// The auxiliary table (typically reconstituted via
    /// [`AuxTable::open_from_source`]).
    pub aux: AuxTable,
    /// The existence bit vector.
    pub exist: BitVec,
    /// The decode map (`fdecode`).
    pub decode_map: DecodeMap,
    /// Live tuple count.
    pub tuple_count: usize,
    /// Retrains since the original build.
    pub retrain_count: usize,
}

/// The DeepMapping hybrid learned data representation.
pub struct DeepMapping {
    config: DeepMappingConfig,
    /// Paper-style system name, computed once at build time so
    /// [`TupleStore::name`] can hand out a borrow instead of formatting per call.
    name: String,
    model: MappingModel,
    aux: AuxTable,
    exist: BitVec,
    /// `Vaux`: bit `k` is set iff key `k` exists and its tuple is held by the
    /// auxiliary table (partition or delta overlay), i.e.
    /// `vaux[k] ⇔ exist[k] ∧ aux.get(k).is_some()`.  Every write keeps it in
    /// step at the place it touches `aux` or `exist`; the lookup pipeline
    /// routes on it, so it is exact, never a hint.  It always equals
    /// [`AuxTable::held_keys`] — the table's frozen `base` bitmap right after a
    /// build or retrain, `(base − tombstones) ∪ delta.keys` in between — which
    /// is how a snapshot open rebuilds it.
    vaux: BitVec,
    decode_map: DecodeMap,
    metrics: Metrics,
    /// The execution pool the store's parallel read paths run on: the shared
    /// global pool by default, or a dedicated pool when
    /// `DeepMappingConfig::exec_threads` is set.
    exec: ExecHandle,
    tuple_count: usize,
    retrain_count: usize,
    /// Write-time misprediction EMA since the last retrain: each
    /// insert/update batch folds its checked-prediction failure rate in with
    /// `MISPREDICT_EMA_ALPHA`.  The advisor's earliest drift signal — it moves
    /// before the overlay has grown.
    mispredict_ema: f64,
    /// Existence-bit flips (fresh inserts + deletes) since the last retrain.
    exist_churn: u64,
    /// Answer-mix counters at the last retrain: `Metrics` is monotone and
    /// shared with the aux table, so drift reads subtract this baseline
    /// instead of resetting the whole breakdown.
    model_answered_base: u64,
    aux_answered_base: u64,
}

/// What a build or retrain derives from the trained model and the rows: the
/// auxiliary table over the misclassified rows, and the two bit vectors.
pub(crate) struct Assurance {
    pub(crate) aux: AuxTable,
    pub(crate) exist: BitVec,
    pub(crate) vaux: BitVec,
}

impl Assurance {
    /// Quantizes `model` to the int8 arithmetic every store serves with, then
    /// memorizes what that arithmetic gets wrong.  Quantization must happen
    /// *between* training and memorization — the aux table records exactly
    /// what the serve-time arithmetic mispredicts, which is what keeps a store
    /// lossless — so it happens here, where nothing can come between.
    pub(crate) fn build(
        model: &mut MappingModel,
        rows: &[Row],
        config: &DeepMappingConfig,
        metrics: &Metrics,
        exec: &dm_exec::ThreadPool,
    ) -> Result<Self> {
        model.quantize_int8()?;
        let (_, misclassified) = model.split_by_memorization(exec, rows)?;
        let aux = AuxTable::build(
            &misclassified,
            rows[0].values.len(),
            config.codec,
            config.partition_bytes,
            config.memory_budget_bytes,
            config.disk_profile,
            metrics.clone(),
        )?;
        Ok(Assurance {
            vaux: aux.held_keys(),
            aux,
            exist: rows.iter().map(|row| row.key).collect(),
        })
    }
}

/// The one chain behind every store: the architecture `config.search` names
/// (searched under `search_seed` when it says MHAS, climbed when it says
/// default) → a model initialized and trained under `seed` → quantized → the
/// [`Assurance`] over `rows`.
fn fit(
    rows: &[Row],
    config: &DeepMappingConfig,
    (seed, search_seed): (u64, u64),
    decode_map: &DecodeMap,
    metrics: &Metrics,
    exec: &dm_exec::ThreadPool,
) -> Result<(MappingModel, Assurance)> {
    let schema = MappingSchema::infer(rows, KEY_HEADROOM)?;
    let spec = match &config.search {
        SearchStrategy::Fixed(spec) => spec.clone(),
        SearchStrategy::DefaultArchitecture => {
            return climb(schema, rows, config, seed, decode_map, metrics, exec)
        }
        SearchStrategy::Mhas(mhas_config) => {
            let mut search = MhasSearch::new(&schema, mhas_config.clone(), search_seed)?;
            search.run(rows, config)?.best_spec
        }
    };
    train_and_assure(schema, &spec, rows, config, seed, metrics, exec)
}

/// A model of `spec` initialized and trained under `seed`, quantized, and the
/// [`Assurance`] over `rows`.
fn train_and_assure(
    schema: MappingSchema,
    spec: &MultiTaskSpec,
    rows: &[Row],
    config: &DeepMappingConfig,
    seed: u64,
    metrics: &Metrics,
    exec: &dm_exec::ThreadPool,
) -> Result<(MappingModel, Assurance)> {
    let mut model = MappingModel::new(schema, spec, seed)?;
    model.train(rows, &config.training, seed)?;
    let assurance = Assurance::build(&mut model, rows, config, metrics, exec)?;
    Ok((model, assurance))
}

/// The default architecture: each rung of [`MappingModel::ladder_specs`] in
/// turn becomes a store, priced by its Eq.-1 sum.  The climb keeps a rung
/// only if its store is smaller than the best so far, and stops at the first
/// that is not, or after one that leaves no corrected rows (a wider rung can
/// then only add model bytes).  Building a store charges nothing to
/// `metrics`, so a discarded rung leaves no counts behind.
fn climb(
    schema: MappingSchema,
    rows: &[Row],
    config: &DeepMappingConfig,
    seed: u64,
    decode_map: &DecodeMap,
    metrics: &Metrics,
    exec: &dm_exec::ThreadPool,
) -> Result<(MappingModel, Assurance)> {
    let mut ladder = Vec::new();
    let mut best: Option<(MappingModel, Assurance, usize)> = None;
    for spec in MappingModel::ladder_specs(&schema, rows.len()) {
        let (model, assurance) =
            train_and_assure(schema.clone(), &spec, rows, config, seed, metrics, exec)?;
        let Assurance { aux, exist, vaux } = &assurance;
        let breakdown = storage_breakdown(&model, aux, exist, vaux, decode_map, rows.len());
        let bytes = breakdown.total_bytes();
        let corrected_rows = vaux.count_ones() as usize;
        ladder.push(Rung {
            shared_hidden: spec.shared_hidden.clone(),
            epochs: model.trained_epochs(),
            macs_per_key: spec.macs_per_key(),
            bytes,
            corrected_rows,
        });
        if best.as_ref().is_some_and(|&(_, _, smallest)| bytes >= smallest) {
            break;
        }
        best = Some((model, assurance, bytes));
        if corrected_rows == 0 {
            break;
        }
    }
    let (mut model, assurance, _) = best.expect("the ladder has a rung");
    model.set_ladder(ladder);
    Ok((model, assurance))
}

/// The Figure 6 split — and the Eq. 1 sum — of a structure made of these
/// parts: what a store reports of itself and what MHAS scores a candidate by.
pub(crate) fn storage_breakdown(
    model: &MappingModel,
    aux: &AuxTable,
    exist: &BitVec,
    vaux: &BitVec,
    decode_map: &DecodeMap,
    tuple_count: usize,
) -> StorageBreakdown {
    let memorized = exist.count_ones().saturating_sub(vaux.count_ones()) as usize;
    StorageBreakdown {
        model_bytes: model.size_bytes(),
        aux_table_bytes: aux.size_bytes(),
        existence_bytes: exist.serialized_bytes(),
        corrected_bytes: vaux.serialized_bytes(),
        decode_map_bytes: decode_map.size_bytes().max(8),
        uncompressed_bytes: tuple_count * Row::fixed_width(aux.value_columns()),
        tuple_count,
        memorized_tuples: memorized,
    }
}

/// The pool a store of `config` runs its parallel read paths on.
pub(crate) fn exec_of(config: &DeepMappingConfig) -> ExecHandle {
    match config.exec_threads {
        Some(threads) => ExecHandle::with_threads(threads),
        None => ExecHandle::Global,
    }
}

/// Per-batch weight of the write-time misprediction EMA (see
/// [`DeepMapping::drift_signals`]).
const MISPREDICT_EMA_ALPHA: f64 = 0.2;

impl std::fmt::Debug for DeepMapping {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeepMapping")
            .field("name", &self.config.paper_name())
            .field("tuples", &self.tuple_count)
            .field("memorized", &self.memorized_tuples())
            .field("aux_partitions", &self.aux.partition_count())
            .finish()
    }
}

impl DeepMapping {
    /// Builds a DeepMapping structure from rows: selects an architecture (fixed,
    /// the smallest store of the default width ladder, or via MHAS), trains the
    /// model, materializes the auxiliary table from the misclassified rows, and
    /// fills the existence bit vector.
    pub fn build(rows: &[Row], config: &DeepMappingConfig) -> Result<Self> {
        Self::build_with_decode_map(rows, config, DecodeMap::default())
    }

    /// Like [`DeepMapping::build`], but with an explicit decode map (`fdecode`) so
    /// predictions can be decoded back to the original categorical values.
    pub fn build_with_decode_map(
        rows: &[Row],
        config: &DeepMappingConfig,
        decode_map: DecodeMap,
    ) -> Result<Self> {
        if rows.is_empty() {
            return Err(CoreError::InvalidConfig(
                "DeepMapping needs at least one row to build".into(),
            ));
        }
        let metrics = Metrics::new();
        let exec = exec_of(config);
        let seeds = (config.seed, config.seed);
        let (model, assurance) = fit(rows, config, seeds, &decode_map, &metrics, exec.get())?;
        Ok(DeepMapping {
            config: config.clone(),
            name: config.paper_name(),
            model,
            aux: assurance.aux,
            exist: assurance.exist,
            vaux: assurance.vaux,
            decode_map,
            metrics,
            exec,
            tuple_count: rows.len(),
            retrain_count: 0,
            mispredict_ema: 0.0,
            exist_churn: 0,
            model_answered_base: 0,
            aux_answered_base: 0,
        })
    }

    /// The configuration this structure was built with.
    pub fn config(&self) -> &DeepMappingConfig {
        &self.config
    }

    /// The metrics handle lookups charge their counts to (stage times are the
    /// batch's `dm_obs` trace).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The learned model.
    pub fn model(&self) -> &MappingModel {
        &self.model
    }

    /// The auxiliary accuracy-assurance table.
    pub fn aux_table(&self) -> &AuxTable {
        &self.aux
    }

    /// The existence bit vector.
    pub fn existence(&self) -> &BitVec {
        &self.exist
    }

    /// The corrected-key bit vector `Vaux`: bit `k` is set iff key `k` exists
    /// and the auxiliary table holds its tuple.  Lookups infer the keys whose
    /// bit is clear and probe the keys whose bit is set — never both.
    pub fn corrected(&self) -> &BitVec {
        &self.vaux
    }

    /// The decode map (`fdecode`).
    pub fn decode_map(&self) -> &DecodeMap {
        &self.decode_map
    }

    /// The execution pool this store's parallel read paths run on.
    pub fn exec(&self) -> &dm_exec::ThreadPool {
        self.exec.get()
    }

    /// Programmatic fault injection: rewraps the auxiliary table's read path
    /// with `faults` (see [`AuxTable::inject_faults`]).  The environment
    /// equivalent is setting `DM_FAULTS` before building/opening the store.
    /// Chaos tests keep the `Arc<dm_faults::Faults>` handle to flip the
    /// injector off ("repair the disk") or read its stats mid-run.
    pub fn inject_faults(&mut self, faults: std::sync::Arc<dm_faults::Faults>) {
        self.aux.inject_faults(faults);
    }

    /// How many times the structure has been retrained since it was built.
    pub fn retrain_count(&self) -> usize {
        self.retrain_count
    }

    /// Number of tuples the model answers: the existing keys the auxiliary
    /// table does not hold (`|Vexist| − |Vaux|`, exact at all times).
    pub fn memorized_tuples(&self) -> usize {
        self.exist.count_ones().saturating_sub(self.vaux.count_ones()) as usize
    }

    /// Reassembles a structure from previously built components — the snapshot
    /// *open* path of `dm-persist`: no training, no architecture search, the
    /// model weights and auxiliary directory arrive as-is.  The store's metrics
    /// handle is shared with `parts.aux` so lazy partition loads keep charging
    /// the same counters the lookup path reads.
    pub fn from_parts(parts: DeepMappingParts) -> Self {
        let metrics = parts.aux.metrics().clone();
        let exec = exec_of(&parts.config);
        DeepMapping {
            name: parts.config.paper_name(),
            config: parts.config,
            model: parts.model,
            vaux: parts.aux.held_keys(),
            aux: parts.aux,
            exist: parts.exist,
            decode_map: parts.decode_map,
            metrics,
            exec,
            tuple_count: parts.tuple_count,
            retrain_count: parts.retrain_count,
            // Drift state is runtime-only: a freshly opened snapshot starts a
            // new observation epoch.
            mispredict_ema: 0.0,
            exist_churn: 0,
            model_answered_base: 0,
            aux_answered_base: 0,
        }
    }

    /// Number of live tuples.
    pub fn len(&self) -> usize {
        self.tuple_count
    }

    /// Whether the structure holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuple_count == 0
    }

    /// The staged batch pipeline over this structure's components (Algorithm 1 as a
    /// dataflow: three-way split → inference of the predicted keys beside
    /// partition-grouped probes of the corrected keys → order-preserving
    /// scatter).  See [`crate::pipeline`].
    pub fn pipeline(&self) -> QueryPipeline<'_> {
        QueryPipeline::new(
            &self.model,
            &self.aux,
            &self.exist,
            &self.vaux,
            &self.metrics,
            self.exec.get(),
        )
    }

    /// Algorithm 1: batched key lookup, routed through the [`QueryPipeline`].
    ///
    /// 1. split the batch by `Vexist` and `Vaux`: non-existing keys return `None`
    ///    — no hallucinated values — and never reach the model,
    /// 2. *predicted* keys (`Vaux` bit clear) take one vectorized multi-task
    ///    forward pass and nothing else: no probe plan, no partition load,
    /// 3. *corrected* keys (`Vaux` bit set: misclassified, or modified after
    ///    training) are probed in the auxiliary table, grouped by partition (each
    ///    compressed partition is loaded at most once per batch), and never
    ///    inferred,
    /// 4. both halves land in the result in input order.
    ///
    /// The owned shape has no per-key error channel: a batch with any failed
    /// key fails the call ([`TupleStore::lookup_batch`]).  For the degraded
    /// answers of the other keys use [`lookup_batch_into`](Self::lookup_batch_into).
    pub fn lookup_batch(&self, keys: &[u64]) -> Result<Vec<Option<Vec<u32>>>> {
        let mut buffer = LookupBuffer::with_capacity(keys.len(), 4);
        self.lookup_batch_into(keys, &mut buffer)?;
        if let Some(err) = buffer.first_error() {
            return Err(err.clone().into());
        }
        Ok(buffer.to_options())
    }

    /// Algorithm 1 into a caller-owned [`LookupBuffer`]: identical staging to
    /// [`lookup_batch`](Self::lookup_batch), but results land in the buffer's flat
    /// reusable arena so steady-state batches allocate nothing per key.
    pub fn lookup_batch_into(&self, keys: &[u64], out: &mut LookupBuffer) -> Result<()> {
        self.pipeline().execute_into(keys, out)
    }

    /// Batched lookup returning decoded (original categorical) values via `fdecode`.
    pub fn lookup_batch_decoded(&self, keys: &[u64]) -> Result<Vec<Option<Vec<String>>>> {
        Ok(self
            .lookup_batch(keys)?
            .into_iter()
            .map(|opt| opt.map(|codes| self.decode_map.decode_row(&codes)))
            .collect())
    }

    /// Single-key lookup.
    pub fn get(&self, key: u64) -> Result<Option<Vec<u32>>> {
        Ok(self.lookup_batch(&[key])?.pop().flatten())
    }

    /// Dry-run validation of an insert batch: exactly the checks
    /// [`insert_rows`](Self::insert_rows) performs before its first mutation,
    /// with no state touched.  Durability layers call this up front so they
    /// can tell a clean rejection (state untouched) from a mid-apply failure.
    pub fn validate_insert(&self, rows: &[Row]) -> Result<()> {
        let schema = self.model.schema();
        for row in rows {
            schema.validate_row(row)?;
        }
        Ok(())
    }

    /// Dry-run validation of an update batch: exactly the checks
    /// [`update_rows`](Self::update_rows) performs before its first mutation.
    /// Rows whose key does not exist are skipped, matching the apply path
    /// which ignores them.
    pub fn validate_update(&self, rows: &[Row]) -> Result<()> {
        let schema = self.model.schema();
        for row in rows {
            if self.exist.get(row.key) {
                schema.validate_row(row)?;
            }
        }
        Ok(())
    }

    /// Algorithm 3: insert a collection of rows.
    ///
    /// For each row the existence bit is set; the row is then inferred through the
    /// model and only stored in the auxiliary table when the model does not already
    /// generalize to it.
    pub fn insert_rows(&mut self, rows: &[Row]) -> Result<()> {
        if rows.is_empty() {
            return Ok(());
        }
        self.validate_insert(rows)?;
        let keys: Vec<u64> = rows.iter().map(|r| r.key).collect();
        let mut predictions = Vec::new();
        let columns = self
            .model
            .predict_into_on(self.exec.get(), &keys, &mut predictions)?;
        let mut mispredicts = 0u64;
        for (row, prediction) in rows.iter().zip(predictions.chunks_exact(columns)) {
            let predicted = prediction == row.values.as_slice();
            if !self.exist.get(row.key) {
                self.exist.set(row.key, true);
                self.tuple_count += 1;
                self.exist_churn += 1;
            }
            // Re-inserting an existing key behaves like an update.
            mispredicts += u64::from(!predicted);
            self.place(row, predicted);
        }
        self.note_write_checks(rows.len() as u64, mispredicts);
        self.maybe_retrain()?;
        Ok(())
    }

    /// Puts `row` on the side of the model/auxiliary split its checked prediction
    /// names, and `Vaux` with it: a predicted row leaves the auxiliary table if
    /// it was held there, a mispredicted one enters (or is replaced in) it.
    fn place(&mut self, row: &Row, predicted: bool) {
        let held = self.vaux.get(row.key);
        if !predicted {
            self.aux.upsert(row.clone());
            self.vaux.set(row.key, true);
        } else if held {
            self.aux.remove(row.key);
            self.vaux.set(row.key, false);
        }
    }

    /// Algorithm 4: delete a collection of keys.
    pub fn delete_keys(&mut self, keys: &[u64]) -> Result<()> {
        for &key in keys {
            if !self.exist.get(key) {
                continue;
            }
            self.exist.set(key, false);
            self.exist_churn += 1;
            self.tuple_count = self.tuple_count.saturating_sub(1);
            if self.vaux.get(key) {
                self.aux.remove(key);
                self.vaux.set(key, false);
            }
        }
        self.maybe_retrain()?;
        Ok(())
    }

    /// Algorithm 5: update (substitute) the values of existing keys.  Keys that do not
    /// exist are ignored (an update of a missing key would be an insertion).
    pub fn update_rows(&mut self, rows: &[Row]) -> Result<()> {
        if rows.is_empty() {
            return Ok(());
        }
        self.validate_update(rows)?;
        let live: Vec<&Row> = rows
            .iter()
            .filter(|r| self.exist.get(r.key))
            .collect();
        let keys: Vec<u64> = live.iter().map(|r| r.key).collect();
        let mut predictions = Vec::new();
        let columns = self
            .model
            .predict_into_on(self.exec.get(), &keys, &mut predictions)?;
        let mut mispredicts = 0u64;
        for (row, prediction) in live.iter().zip(predictions.chunks_exact(columns)) {
            let predicted = prediction == row.values.as_slice();
            mispredicts += u64::from(!predicted);
            self.place(row, predicted);
        }
        self.note_write_checks(live.len() as u64, mispredicts);
        self.maybe_retrain()?;
        Ok(())
    }

    /// Retrains the model and rebuilds the auxiliary structures from the current
    /// contents (Section IV-D: triggered when the auxiliary table grows too large;
    /// can also be called explicitly, e.g. during off-peak hours).
    pub fn retrain(&mut self) -> Result<()> {
        let rows = self.materialize_rows()?;
        if rows.is_empty() {
            return Ok(());
        }
        let seeds = (self.config.seed ^ 0x5a, self.config.seed ^ 0xa5);
        let (model, assurance) =
            fit(&rows, &self.config, seeds, &self.decode_map, &self.metrics, self.exec.get())?;
        self.model = model;
        self.aux = assurance.aux;
        self.exist = assurance.exist;
        self.vaux = assurance.vaux;
        self.tuple_count = rows.len();
        self.retrain_count += 1;
        // A retrain starts a fresh drift epoch: the new model is fit to the
        // current data, so decay is measured from here.
        self.mispredict_ema = 0.0;
        self.exist_churn = 0;
        let snap = self.metrics.snapshot();
        self.model_answered_base = snap.model_answered;
        self.aux_answered_base = snap.aux_answered;
        Ok(())
    }

    /// Folds one write batch's prediction-check outcomes into the
    /// misprediction EMA ([`MISPREDICT_EMA_ALPHA`] per batch).
    fn note_write_checks(&mut self, checks: u64, mispredicts: u64) {
        if checks == 0 {
            return;
        }
        let rate = mispredicts as f64 / checks as f64;
        self.mispredict_ema =
            MISPREDICT_EMA_ALPHA * rate + (1.0 - MISPREDICT_EMA_ALPHA) * self.mispredict_ema;
    }

    /// Drift signals since the last retrain (or build): the inputs
    /// [`dm_obs::advise`] folds into maintenance recommendations.  The
    /// model-vs-aux answer mix comes from the pipeline's merge stage (recorded
    /// regardless of `DM_OBS`, minus the baseline captured at the last
    /// retrain); the rest is read directly off the structure.
    pub fn drift_signals(&self) -> dm_obs::DriftSignals {
        let snap = self.metrics.snapshot();
        dm_obs::DriftSignals {
            model_answered: snap.model_answered.saturating_sub(self.model_answered_base),
            aux_answered: snap.aux_answered.saturating_sub(self.aux_answered_base),
            mispredict_ema: self.mispredict_ema,
            overlay_bytes: self.aux.overlay_bytes() as u64,
            aux_bytes: self.aux.size_bytes() as u64,
            tombstones: self.aux.tombstone_count() as u64,
            tuples: self.tuple_count as u64,
            exist_churn: self.exist_churn,
            memorized_fraction: if self.tuple_count == 0 {
                0.0
            } else {
                self.memorized_tuples() as f64 / self.tuple_count as f64
            },
            retrain_count: self.retrain_count as u64,
        }
    }

    /// Drift plus pool pressure — everything the advisor needs except the
    /// (server-side) SLO input.  Also exposed through
    /// [`TupleStore::health_signals`] so harnesses holding a `dyn TupleStore`
    /// reach it without downcasting.
    pub fn health_signals(&self) -> dm_obs::StoreHealthSignals {
        dm_obs::StoreHealthSignals {
            drift: self.drift_signals(),
            pool: self.aux.pool_pressure(),
        }
    }

    /// Runs the maintenance advisor over this store with default thresholds
    /// and no SLO input (serve through `dm-server` for the SLO-aware view).
    pub fn health_report(&self) -> dm_obs::HealthReport {
        self.health_signals().advise(None)
    }

    fn maybe_retrain(&mut self) -> Result<()> {
        if let Some(threshold) = self.config.retrain_aux_bytes {
            if self.aux.size_bytes() > threshold {
                self.retrain()?;
            }
        }
        Ok(())
    }

    /// Materializes every live tuple (model predictions corrected by the auxiliary
    /// table) — used by retraining and by the range-query extension.
    ///
    /// Unlike the lookup path, this full-table scan streams the auxiliary
    /// partitions through a pool-*bypass* decode (`AuxTable::iter_rows`) and
    /// merge-joins them with chunked model predictions, so retraining does not
    /// evict the hot working set out of the lookup buffer pool.
    pub fn materialize_rows(&self) -> Result<Vec<Row>> {
        let aux_rows = self.aux.iter_rows()?;
        let mut aux_iter = aux_rows.into_iter().peekable();
        let keys: Vec<u64> = self.exist.iter_ones().collect();
        let mut rows = Vec::with_capacity(keys.len());
        const CHUNK: usize = 65_536;
        let mut predictions: Vec<u32> = Vec::new();
        for chunk in keys.chunks(CHUNK) {
            let columns = self
                .model
                .predict_into_on(self.exec.get(), chunk, &mut predictions)?;
            self.metrics.add_inference_batch(chunk.len() as u64);
            for (i, &key) in chunk.iter().enumerate() {
                // Both streams are ascending in key; skip any auxiliary strays
                // below the cursor (deleted keys cannot appear, but stay robust).
                while aux_iter.peek().is_some_and(|row| row.key < key) {
                    aux_iter.next();
                }
                if aux_iter.peek().is_some_and(|row| row.key == key) {
                    rows.push(aux_iter.next().expect("peeked"));
                } else {
                    rows.push(Row::new(
                        key,
                        predictions[i * columns..(i + 1) * columns].to_vec(),
                    ));
                }
            }
        }
        Ok(rows)
    }

    /// Storage breakdown for Figure 6.
    pub fn storage_breakdown(&self) -> StorageBreakdown {
        storage_breakdown(
            &self.model,
            &self.aux,
            &self.exist,
            &self.vaux,
            &self.decode_map,
            self.tuple_count,
        )
    }
}

impl TupleStore for DeepMapping {
    fn name(&self) -> &str {
        &self.name
    }

    fn lookup_batch_into(&self, keys: &[u64], out: &mut LookupBuffer) -> dm_storage::Result<()> {
        DeepMapping::lookup_batch_into(self, keys, out).map_err(Into::into)
    }

    fn stats(&self) -> StoreStats {
        let breakdown = self.storage_breakdown();
        StoreStats {
            disk_bytes: breakdown.total_bytes(),
            resident_bytes: breakdown.model_bytes
                + self.exist.resident_bytes()
                + self.vaux.resident_bytes()
                + self.aux.base().resident_bytes()
                + breakdown.decode_map_bytes,
            tuple_count: self.tuple_count,
            partition_count: self.aux.partition_count(),
        }
    }

    fn scan_range(&self, lo: u64, hi: u64) -> dm_storage::Result<Vec<Row>> {
        self.range_lookup(lo, hi).map_err(Into::into)
    }

    fn health_signals(&self) -> Option<dm_obs::StoreHealthSignals> {
        Some(DeepMapping::health_signals(self))
    }

    fn fault_signals(&self) -> Option<dm_obs::FaultSignals> {
        let snap = self.metrics.snapshot();
        Some(dm_obs::FaultSignals {
            degraded_keys: snap.degraded_keys,
            load_retries: snap.load_retries,
        })
    }
}

impl MutableStore for DeepMapping {
    fn insert(&mut self, rows: &[Row]) -> dm_storage::Result<()> {
        self.insert_rows(rows).map_err(Into::into)
    }

    fn delete(&mut self, keys: &[u64]) -> dm_storage::Result<()> {
        self.delete_keys(keys).map_err(Into::into)
    }

    fn update(&mut self, rows: &[Row]) -> dm_storage::Result<()> {
        self.update_rows(rows).map_err(Into::into)
    }

    fn maintenance(&mut self) -> dm_storage::Result<()> {
        self.retrain().map_err(Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainingConfig;
    use dm_obs::Stage;
    use dm_storage::row::ReferenceStore;

    fn correlated_rows(n: u64) -> Vec<Row> {
        (0..n)
            .map(|k| Row::new(k, vec![((k / 16) % 4) as u32, ((k / 64) % 3) as u32]))
            .collect()
    }

    fn random_rows(n: u64) -> Vec<Row> {
        (0..n)
            .map(|k| {
                let h = k.wrapping_mul(0x9E3779B97F4A7C15) >> 17;
                Row::new(k, vec![(h % 5) as u32, ((h >> 7) % 3) as u32])
            })
            .collect()
    }

    fn quick_config() -> DeepMappingConfig {
        DeepMappingConfig::default()
            .with_training(TrainingConfig {
                epochs: 40,
                batch_size: 256,
                ..Default::default()
            })
            .with_partition_bytes(4 * 1024)
            .with_disk_profile(dm_storage::DiskProfile::free())
    }

    #[test]
    fn build_rejects_empty_input() {
        assert!(DeepMapping::build(&[], &quick_config()).is_err());
    }

    #[test]
    fn lookups_are_exact_even_when_the_model_is_imperfect() {
        // Random data: the model cannot learn it all, so correctness must come from
        // the auxiliary table — the core accuracy guarantee (Desideratum #1).
        let rows = random_rows(3_000);
        let dm = DeepMapping::build(&rows, &quick_config()).unwrap();
        let reference = ReferenceStore::from_rows(&rows);
        let keys: Vec<u64> = (0..6_000u64).collect();
        assert_eq!(
            dm.lookup_batch(&keys).unwrap(),
            reference.lookup_batch(&keys).unwrap()
        );
        // Non-existing keys are rejected by the existence check, not hallucinated.
        assert_eq!(dm.get(999_999).unwrap(), None);
    }

    #[test]
    fn correlated_data_is_mostly_memorized_and_compresses() {
        let rows = correlated_rows(4_096);
        let dm = DeepMapping::build(&rows, &quick_config()).unwrap();
        let breakdown = dm.storage_breakdown();
        assert!(
            breakdown.memorized_fraction() > 0.8,
            "memorized only {}",
            breakdown.memorized_fraction()
        );
        assert!(
            breakdown.compression_ratio() < 1.0,
            "ratio {}",
            breakdown.compression_ratio()
        );
        assert_eq!(breakdown.tuple_count, 4_096);
    }

    #[test]
    fn modifications_follow_algorithms_3_to_5() {
        let rows = correlated_rows(2_048);
        let mut dm = DeepMapping::build(&rows, &quick_config()).unwrap();
        let mut reference = ReferenceStore::from_rows(&rows);

        // Insert new keys: some follow the learned pattern (model generalizes), some
        // do not (must land in the auxiliary table).
        let pattern_follower = Row::new(2_048, vec![((2_048 / 16) % 4) as u32, ((2_048 / 64) % 3) as u32]);
        let pattern_breaker = Row::new(2_049, vec![3, 2]);
        let inserts = vec![pattern_follower.clone(), pattern_breaker.clone()];
        dm.insert_rows(&inserts).unwrap();
        reference.insert(&inserts).unwrap();

        // Delete a handful of keys.
        let deletions = vec![0u64, 17, 2_048, 999_999];
        dm.delete_keys(&deletions).unwrap();
        reference.delete(&deletions).unwrap();

        // Update existing keys (one matching the pattern, one not) and a missing key.
        let updates = vec![
            Row::new(5, vec![3, 2]),
            Row::new(100, vec![((100 / 16) % 4) as u32, (100 / 64) as u32]),
            Row::new(777_777, vec![1, 1]),
        ];
        dm.update_rows(&updates).unwrap();
        reference.update(&updates).unwrap();

        let probe: Vec<u64> = (0..2_100u64).chain([777_777]).collect();
        assert_eq!(
            dm.lookup_batch(&probe).unwrap(),
            reference.lookup_batch(&probe).unwrap()
        );
        assert_eq!(dm.len(), reference.len());
    }

    #[test]
    fn retraining_trigger_fires_and_preserves_contents() {
        let rows = correlated_rows(1_024);
        let config = quick_config().with_retrain_threshold(2_048);
        let mut dm = DeepMapping::build(&rows, &config).unwrap();
        let mut reference = ReferenceStore::from_rows(&rows);
        assert_eq!(dm.retrain_count(), 0);
        // Insert enough off-pattern rows to blow through the tiny threshold.
        let inserts: Vec<Row> = (0..2_000u64)
            .map(|i| Row::new(10_000 + i, vec![(i % 4) as u32, ((i * 7) % 3) as u32]))
            .collect();
        dm.insert_rows(&inserts).unwrap();
        reference.insert(&inserts).unwrap();
        assert!(dm.retrain_count() > 0, "retraining should have triggered");
        let probe: Vec<u64> = (0..1_024u64).chain(10_000..12_000).collect();
        assert_eq!(
            dm.lookup_batch(&probe).unwrap(),
            reference.lookup_batch(&probe).unwrap()
        );
    }

    #[test]
    fn explicit_retrain_shrinks_or_preserves_the_footprint() {
        let rows = correlated_rows(1_024);
        let mut dm = DeepMapping::build(&rows, &quick_config()).unwrap();
        // Pile modifications into the overlay.
        let updates: Vec<Row> = (0..512u64).map(|k| Row::new(k, vec![3, 2])).collect();
        dm.update_rows(&updates).unwrap();
        let before_rows = dm.materialize_rows().unwrap();
        dm.retrain().unwrap();
        let after_rows = dm.materialize_rows().unwrap();
        assert_eq!(before_rows, after_rows);
        assert_eq!(dm.retrain_count(), 1);
    }

    #[test]
    fn int8_stores_are_lossless() {
        // Random data guarantees mispredictions, so this exercises the aux
        // table being memorized under the *quantized* arithmetic.
        let rows = random_rows(2_000);
        let reference = ReferenceStore::from_rows(&rows);
        let dm = DeepMapping::build(&rows, &quick_config()).unwrap();
        assert!(dm.model().is_quantized());
        let keys: Vec<u64> = (0..4_000u64).collect();
        assert_eq!(
            dm.lookup_batch(&keys).unwrap(),
            reference.lookup_batch(&keys).unwrap()
        );
    }

    #[test]
    fn decoded_lookups_use_fdecode() {
        let rows = correlated_rows(256);
        let decode = DecodeMap::from_labels(vec![
            vec!["a".into(), "b".into(), "c".into(), "d".into()],
            vec!["x".into(), "y".into(), "z".into()],
        ]);
        let dm =
            DeepMapping::build_with_decode_map(&rows, &quick_config(), decode).unwrap();
        let decoded = dm.lookup_batch_decoded(&[0, 999_999]).unwrap();
        let values = decoded[0].as_ref().expect("key 0 exists");
        assert!(["a", "b", "c", "d"].contains(&values[0].as_str()));
        assert!(["x", "y", "z"].contains(&values[1].as_str()));
        assert!(decoded[1].is_none());
    }

    #[test]
    fn tuple_store_trait_matches_native_api() {
        let rows = correlated_rows(512);
        let dm = DeepMapping::build(&rows, &quick_config()).unwrap();
        let native = DeepMapping::lookup_batch(&dm, &[1, 2, 3]).unwrap();
        let via_trait = TupleStore::lookup_batch(&dm, &[1, 2, 3]).unwrap();
        assert_eq!(native, via_trait);
        let mut buffer = LookupBuffer::new();
        TupleStore::lookup_batch_into(&dm, &[1, 2, 3], &mut buffer).unwrap();
        assert_eq!(buffer.to_options(), native);
        let stats = TupleStore::stats(&dm);
        assert_eq!(stats.tuple_count, 512);
        assert!(stats.disk_bytes > 0);
        assert_eq!(TupleStore::name(&dm), "DM-Z");
        // The range extension is reachable through the shared trait, too.
        let range = TupleStore::scan_range(&dm, 10, 13).unwrap();
        assert_eq!(range.len(), 4);
        assert!(range.windows(2).all(|w| w[0].key < w[1].key));
    }

    #[test]
    fn drift_signals_rise_with_off_pattern_writes_and_reset_at_retrain() {
        let rows = correlated_rows(2_048);
        let mut dm = DeepMapping::build(&rows, &quick_config()).unwrap();
        let baseline = dm.drift_signals();
        assert_eq!(baseline.exist_churn, 0);
        assert_eq!(baseline.retrain_count, 0);
        assert!(baseline.memorized_fraction > 0.8);

        // Off-pattern updates: most prediction checks fail, the overlay grows.
        let updates: Vec<Row> = (0..512u64).map(|k| Row::new(k, vec![k as u32 % 7, 2])).collect();
        dm.update_rows(&updates).unwrap();
        // Deletes flip existence bits — membership churn.
        dm.delete_keys(&[2_000, 2_001]).unwrap();
        let drifted = dm.drift_signals();
        assert!(drifted.mispredict_ema > 0.0);
        assert!(drifted.overlay_bytes > 0);
        assert_eq!(drifted.exist_churn, 2);
        assert!(drifted.tombstones == 0, "updates overlay, they do not tombstone");

        // The answer mix splits between model- and aux-answered lookups.
        let keys: Vec<u64> = (0..2_000u64).collect();
        dm.lookup_batch(&keys).unwrap();
        let drifted = dm.drift_signals();
        assert!(drifted.aux_answered > 0, "updated keys must be aux-answered");
        assert!(drifted.model_answered > 0, "untouched keys stay model-answered");
        assert!(drifted.aux_answer_ratio() > 0.0 && drifted.aux_answer_ratio() < 1.0);

        // Retraining starts a fresh drift epoch.
        dm.retrain().unwrap();
        let fresh = dm.drift_signals();
        assert_eq!(fresh.retrain_count, 1);
        assert_eq!(fresh.mispredict_ema, 0.0);
        assert_eq!(fresh.exist_churn, 0);
        assert_eq!(fresh.model_answered + fresh.aux_answered, 0);
    }

    #[test]
    fn health_report_is_reachable_from_the_store_and_the_trait() {
        let rows = correlated_rows(1_024);
        let dm = DeepMapping::build(&rows, &quick_config()).unwrap();
        let report = dm.health_report();
        assert!(report.is_healthy(), "fresh store must be healthy: {report:?}");
        let via_trait = TupleStore::health_signals(&dm).expect("DeepMapping reports health");
        assert_eq!(via_trait.drift, dm.drift_signals());
    }

    /// `n` rows of the frozen benchmark's shape: a tenth of the key slots
    /// empty, five columns of cardinality 4 … 64, each a bit field of the key,
    /// and `noisy_fifths` fifths of the rows uniform noise in every column
    /// (`mixed` is two fifths).
    fn benchmark_shape_rows(n: usize, noisy_fifths: u64) -> Vec<Row> {
        const CARDINALITIES: [u32; 5] = [4, 8, 16, 32, 64];
        let hash = |k: u64| k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11;
        let kept = (0..).filter(|&k| (hash(k) >> 40) % 10 != 0);
        kept.take(n)
            .map(|k| {
                let h = hash(k);
                let values = (0..5)
                    .map(|c| {
                        let field = if h % 5 < noisy_fifths { h >> (7 * c) } else { k >> (4 + 2 * (c % 4)) };
                        field as u32 & (CARDINALITIES[c] - 1)
                    })
                    .collect();
                Row::new(k, values)
            })
            .collect()
    }

    /// The frozen benchmark's store definition, at its 20 000 rows.
    fn ladder_config() -> DeepMappingConfig {
        DeepMappingConfig::default()
            .with_training(TrainingConfig { epochs: 10, batch_size: 2048, ..Default::default() })
            .with_partition_bytes(8 * 1024)
            .with_disk_profile(dm_storage::DiskProfile::free())
            .with_exec_threads(1)
    }

    fn climbed(rows: &[Row]) -> DeepMapping {
        let dm = DeepMapping::build(rows, &ladder_config()).unwrap();
        let ladder = dm.model().ladder();
        let kept = ladder.iter().position(|rung| rung.bytes == dm.storage_breakdown().total_bytes());
        assert!(kept.is_some(), "the store is one of the rungs priced: {ladder:?}");
        assert_eq!(dm.model().network().spec().shared_hidden, ladder[kept.unwrap()].shared_hidden);
        dm
    }

    #[test]
    fn the_ladder_stops_at_the_first_rung_that_leaves_nothing_to_correct() {
        let dm = climbed(&benchmark_shape_rows(20_000, 0));
        let ladder = dm.model().ladder();
        assert_eq!(ladder.len(), 1, "{ladder:?}");
        assert_eq!((ladder[0].shared_hidden.as_slice(), ladder[0].corrected_rows), (&[16][..], 0));
        assert_eq!(dm.memorized_tuples(), 20_000);
    }

    #[test]
    fn on_noise_the_ladder_keeps_the_narrowest_rung() {
        let dm = climbed(&benchmark_shape_rows(20_000, 5));
        let ladder = dm.model().ladder();
        let widths: Vec<&[usize]> = ladder.iter().map(|rung| rung.shared_hidden.as_slice()).collect();
        assert_eq!(widths, [&[16][..], &[32][..]], "{ladder:?}");
        assert!(ladder[1].bytes >= ladder[0].bytes, "{ladder:?}");
        assert_eq!(dm.model().network().spec().shared_hidden, [16]);
    }

    #[test]
    fn on_mixed_rows_the_ladder_builds_a_narrower_smaller_store_than_the_top_rung() {
        let rows = benchmark_shape_rows(20_000, 2);
        let dm = climbed(&rows);
        let chosen = dm.model().network().spec().clone();
        let schema = MappingSchema::infer(&rows, KEY_HEADROOM).unwrap();
        let top = MappingModel::default_spec(&schema, rows.len());
        assert!(chosen.shared_hidden[0] < top.shared_hidden[0], "{:?}", dm.model().ladder());
        assert_eq!(MappingModel::ladder_specs(&schema, rows.len()).last(), Some(&top));

        let fixed = |spec: MultiTaskSpec| {
            let config = ladder_config().with_search(SearchStrategy::Fixed(spec));
            DeepMapping::build(&rows, &config).unwrap()
        };
        let guessed = fixed(top);
        assert!(guessed.model().ladder().is_empty());
        let eq1 = |dm: &DeepMapping| dm.storage_breakdown().total_bytes();
        assert!(eq1(&dm) <= eq1(&guessed), "{} > {}", eq1(&dm), eq1(&guessed));
        // The kept rung is the store a fixed build of its spec makes, byte for
        // byte, and the rungs the climb discarded left no counts behind.
        let same = fixed(chosen);
        assert_eq!(dm.model().to_bytes(), same.model().to_bytes());
        assert_eq!(eq1(&dm), eq1(&same));
        assert_eq!(dm.metrics().snapshot(), same.metrics().snapshot());
    }

    #[test]
    fn a_lookup_publishes_its_stage_times() {
        dm_obs::set_enabled(true);
        let rows = random_rows(1_024);
        let dm = DeepMapping::build(&rows, &quick_config()).unwrap();
        let keys: Vec<u64> = (0..2_048u64).collect();
        dm.lookup_batch(&keys).unwrap();
        let summary = dm_obs::trace::take_last_batch().expect("the batch published its trace");
        assert!(summary.stage(Stage::Existence) > 0);
        assert!(summary.stage(Stage::Inference) > 0);
    }
}
