//! The batched lookup pipeline — Algorithm 1 as an explicit staged dataflow.
//!
//! Every lookup in the workspace (single-key `get`, `lookup_batch`, the benchmark
//! harness, range materialization) funnels through [`QueryPipeline`].  The paper's
//! Algorithm 1 infers every existing key and then validates it against `Taux`;
//! this pipeline knows in advance which of the two will answer, from one more bit
//! per key, and pays for that one only:
//!
//! 1. **Three-way split** ([`Stage::Existence`]) — the caller's buffer is
//!    reset, every key a miss, and the existence bit vector
//!    `Vexist` drops non-existing keys immediately, so the model can never
//!    hallucinate a value for them; the corrected-key bit vector `Vaux` sends every
//!    surviving key to exactly one of the next two stages.  `Vaux` is exact
//!    (`vaux[k] ⇔ exist[k] ∧ aux.get(k).is_some()`, kept in step by every write),
//!    so the two sets are disjoint and no answer ever overrides another.
//! 2. **Vectorized inference of the predicted keys** ([`Stage::Inference`]) —
//!    keys whose `Vaux` bit is clear go to the model in one
//!    [`MappingModel::predict_into_slice`] call per batch, recorded via
//!    [`Metrics::add_inference_batch`].  A closed-form model
//!    ([`MappingModel::detect_closed_form`]) evaluates `⌊(k − o) / d⌋ mod c`
//!    a column at a time over the batch: a multiply-high and two shifts per
//!    division, no network.  A network gets the keys as keys, in a single
//!    [`forward_keys_flat`](dm_nn::MultiTaskModel::forward_keys_flat)
//!    pass: one trunk matrix-multiply sequence for the batch, then the heads,
//!    never a per-key pass.  No batch-wide feature matrix is built: each
//!    cache-sized row chunk of the pass encodes its own keys, for an int8
//!    model straight into the first layer's input bytes (one masked store a
//!    key under AVX-512), and no logit matrix either: every head's output
//!    layer runs with the keys in vector lanes and keeps each head's best
//!    class in its epilogue ([`dm_nn::kernel::argmax_prequantized`]), so the
//!    pass writes the classes and nothing else.  Either form writes straight
//!    into the rows its keys claimed in the caller's [`LookupBuffer`], where
//!    the caller reads them.  They cause no probe plan, no partition load and
//!    no decompression.
//! 3. **Grouped probes of the corrected keys** ([`Stage::Plan`], then
//!    [`Stage::Probe`] around the partition groups, with [`Stage::PoolLoad`]
//!    or [`Stage::PoolWait`] for a group whose partition is not resident) —
//!    keys whose bit is set are never inferred.  A key live in a partition
//!    (its bit in the table's key bitmap set, its bit in the dead-key bitmap
//!    clear) never consults the overlay — the delta never shadows a live key —
//!    and its address is a rank over the key bitmap (partition `ordinal / R`,
//!    slot `ordinal % R` — no key is stored or searched); the delta overlay
//!    answers every other key in memory, one hashed lookup each.  One counting
//!    pass buckets the addresses by partition — no comparison sort; a bucket
//!    keeps its keys in batch order — so each partition is loaded **at most
//!    once per batch** through the LRU
//!    [`dm_storage::BufferPool`], no matter how the query keys interleave
//!    (Section IV-B2's batch-sorting optimization).  Each row is decoded out
//!    of the packed partition, or copied from the overlay, straight into the
//!    row its key claimed in the caller's buffer.
//! 4. **The span pass** ([`Stage::Merge`]) — runs before stages 2 and 3 (which
//!    then run in that order): one
//!    pass over both sides marks every routed key a hit at its position in the
//!    original batch order and claims its row at the end of the buffer's arena
//!    ([`LookupBuffer::claim_hits`]), the predicted keys' rows first.  So no
//!    answer is staged or copied: each is written once, into its claimed row.
//!
//! A corrected key whose probe comes back empty is an invariant violation (the
//! bit says the table holds the row, the table says it does not).  The probe
//! lists it, and it surfaces as a typed per-key [`StorageError::Corrupt`] —
//! never as the model's guess, which is known to be wrong for that key.  It and
//! the keys of a partition that failed to load are marked failed after the
//! fact ([`LookupBuffer::set_failed`]), which takes back their claimed hits.
//!
//! The whole pipeline writes into a caller-owned [`LookupBuffer`]
//! ([`QueryPipeline::execute_into`]) and borrows its batch-sized working memory
//! from it ([`LookupBuffer::take_scratch`]): the two sides of the split and
//! the probe plan — no answer, since stages 2 and 3 write theirs into the
//! claimed rows ([`MappingModel::predict_into_slice`] for the predicted side).
//! The walk's working memory, bounded by a chunk of rows rather than the
//! batch, is kept per thread, as is the trace's event array; probe hits are
//! read straight out of the pooled bit-packed partitions.  So a reused buffer
//! makes the steady-state batch allocate nothing at all
//! (`tests/alloc_guard.rs`).
//!
//! ## Parallelism
//!
//! A batch runs on its caller; cores serve concurrent requests through
//! dm-server's callers-run path, each client's batch on that client's thread.
//!
//! ## Timing
//!
//! Each stage is timed once, by a span guard on the batch's [`Trace`], and
//! nowhere else: [`execute_into`](QueryPipeline::execute_into) publishes the
//! batch's [`dm_obs::TraceSummary`] on the calling thread
//! (`dm_obs::trace::take_last_batch`) and every span feeds its stage's
//! process-wide histogram (`dm_obs::trace::stage_snapshot`).  A stage is one
//! span per batch: Probe too is one span around every partition group, net
//! of the pool load and wait spans inside it (`dm_obs::trace::span_net_of`),
//! so the stage sums stay disjoint and their total is at most the batch's
//! wall-clock.  Stages 1, 4 and 2 follow one another, so each of their spans
//! opens at the clock reading that closes the one before
//! ([`dm_obs::SpanGuard::then`]): a closed-form batch of a few hundred keys
//! takes about 2 µs, and every clock read (≈ 40 ns on a virtualized host)
//! and span record outside the spans is time they do not explain.  Under `DM_OBS=off` no span reads the clock.  The store's
//! [`Metrics`] hold counts only.

use crate::aux_table::{AuxTable, ProbePlan, Unanswered};
use crate::model::MappingModel;
use crate::Result;
use dm_obs::{SpanGuard, Stage, Trace};
use dm_storage::{BitVec, LookupBuffer, Metrics, StorageError};

/// One side of the stage-1 split: the keys routed there, in batch order, and
/// each key's position in the original batch.  The vectors only grow (they
/// are reused between batches); the side is their first `len` entries.
#[derive(Debug, Default)]
struct Routed {
    keys: Vec<u64>,
    positions: Vec<u32>,
    len: usize,
}

impl Routed {
    /// Makes room for a side that may take every one of `keys` keys.
    fn clear_for(&mut self, keys: usize) {
        if self.keys.len() < keys {
            self.keys.resize(keys, 0);
            self.positions.resize(keys, 0);
        }
        self.len = 0;
    }

    fn keys(&self) -> &[u64] {
        &self.keys[..self.len]
    }

    fn positions(&self) -> &[u32] {
        &self.positions[..self.len]
    }
}

/// The batch-sized working memory of one pipeline run, borrowed from the
/// caller's [`LookupBuffer`] ([`LookupBuffer::take_scratch`]) and handed back
/// after, so a reused buffer makes the steady-state batch allocate nothing.
/// The answers themselves are never staged here: both routes write them into
/// the rows they claimed in the buffer.
#[derive(Debug, Default)]
struct BatchScratch {
    /// Stage 1's output, `Vaux` bit clear: the model's prediction is the answer.
    predicted: Routed,
    /// Stage 1's output, `Vaux` bit set: the auxiliary table holds the answer.
    corrected: Routed,
    /// Stage 3's probe plan.
    plan: ProbePlan,
    /// Stage 3's output: the corrected keys it could not answer.
    unanswered: Unanswered,
}

/// The staged batch-lookup pipeline over one hybrid structure's components.
///
/// A pipeline borrows the structure's parts for the duration of a batch; it is
/// created per call (it holds no state between batches) via
/// [`DeepMapping::pipeline`](crate::DeepMapping::pipeline) or internally by
/// `lookup_batch`.
pub struct QueryPipeline<'a> {
    model: &'a MappingModel,
    aux: &'a AuxTable,
    exist: &'a BitVec,
    vaux: &'a BitVec,
    metrics: &'a Metrics,
}

impl<'a> QueryPipeline<'a> {
    /// Assembles a pipeline over the hybrid structure's components.
    pub fn new(
        model: &'a MappingModel,
        aux: &'a AuxTable,
        exist: &'a BitVec,
        vaux: &'a BitVec,
        metrics: &'a Metrics,
    ) -> Self {
        QueryPipeline {
            model,
            aux,
            exist,
            vaux,
            metrics,
        }
    }

    /// Runs the full pipeline over a key batch, writing one span per input key (in
    /// input order, misses for keys that do not exist) into a caller-owned
    /// [`LookupBuffer`].  A reused buffer keeps its arena and its working
    /// memory between batches, so the steady state allocates nothing.
    pub fn execute_into(&self, keys: &[u64], out: &mut LookupBuffer) -> Result<()> {
        if keys.is_empty() {
            out.reset(keys);
            return Ok(());
        }
        // The trace records the batch's stage timeline; `finish` publishes it
        // to the per-thread ring and — past the `DM_OBS_SLOW_MS` threshold — to
        // the slow-batch capture ring.  Both are inert under `DM_OBS=off`.
        let trace = Trace::start("lookup_batch");
        let mut scratch = out.take_scratch::<BatchScratch>();
        let result = self.execute_traced(keys, out, &mut scratch, &trace);
        out.restore_scratch(scratch);
        trace.finish();
        result
    }

    /// The staged dataflow behind [`execute_into`](Self::execute_into), with the
    /// batch's `trace` threaded through every stage.
    fn execute_traced(
        &self,
        keys: &[u64],
        out: &mut LookupBuffer,
        scratch: &mut BatchScratch,
        trace: &Trace,
    ) -> Result<()> {
        let existence = trace.span(Stage::Existence);
        // Every key starts a miss, the answer for the keys the split drops.
        out.reset(keys);
        self.route(keys, scratch);
        let BatchScratch {
            predicted,
            corrected,
            plan,
            unanswered,
        } = scratch;
        if predicted.len == 0 && corrected.len == 0 {
            return Ok(());
        }

        // Stage 4 runs first: one pass marks every routed key a hit and
        // claims its row in the buffer, the predicted keys' rows first, then
        // the corrected keys', each side in batch order.
        let width = self.aux.value_columns();
        let merge = existence.then(Stage::Merge);
        let positions = predicted.positions().iter().chain(corrected.positions());
        let rows = out.claim_hits(positions.map(|&position| position as usize), width);
        let (predicted_rows, corrected_rows) = rows.split_at_mut(predicted.len * width);

        // Stages 2 and 3 share no key and no row.  They run one after the
        // other, each writing its answers into its own rows.
        if let Err(err) = self.infer(predicted.keys(), predicted_rows, merge) {
            // The claimed rows hold no answer: leave no hit behind.
            out.reset(keys);
            return Err(err);
        }
        self.probe(corrected.keys(), plan, corrected_rows, unanswered, trace);
        let failed = self.fail_unanswered(corrected, unanswered, out);
        // The answer mix is pipeline-work accounting (drift detection's
        // primary signal), not tracing — recorded regardless of `DM_OBS`.
        self.metrics
            .add_answer_mix(predicted.len as u64, (corrected.len - failed) as u64);
        Ok(())
    }

    /// Stage 1: the three-way split into `scratch`'s two sides.  Non-existing
    /// keys are dropped here; every other key goes to the model or to the
    /// auxiliary table, never both.
    fn route(&self, keys: &[u64], scratch: &mut BatchScratch) {
        // Branch-free: on mixed data a key's side is a coin the predictor
        // loses, so every key is written to the next slot of both sides and
        // only the side that keeps it moves on.  Either side may take the
        // whole batch, hence the full-length vectors.
        let BatchScratch {
            predicted,
            corrected,
            ..
        } = scratch;
        predicted.clear_for(keys.len());
        corrected.clear_for(keys.len());
        let (mut kept_predicted, mut kept_corrected) = (0, 0);
        for (position, &key) in keys.iter().enumerate() {
            let exists = self.exist.get(key);
            let held = self.vaux.get(key);
            // Batch positions fit `u32`: the lookup buffer's spans count in it.
            predicted.keys[kept_predicted] = key;
            predicted.positions[kept_predicted] = position as u32;
            kept_predicted += usize::from(exists & !held);
            corrected.keys[kept_corrected] = key;
            corrected.positions[kept_corrected] = position as u32;
            kept_corrected += usize::from(exists & held);
        }
        predicted.len = kept_predicted;
        corrected.len = kept_corrected;
    }

    /// Stage 2: one vectorized forward pass over the predicted keys, its
    /// classes written straight into their claimed `rows`, row-major.  Its
    /// span opens where the `merge` span before it closes.
    fn infer(&self, keys: &[u64], rows: &mut [u32], merge: SpanGuard<'_>) -> Result<()> {
        if keys.is_empty() {
            return Ok(());
        }
        let _inference = merge.then(Stage::Inference);
        self.model.predict_into_slice(keys, rows)?;
        self.metrics.add_inference_batch(keys.len() as u64);
        Ok(())
    }

    /// Stage 3: probes the corrected keys (grouped by partition, each loaded at
    /// most once), each answer decoded straight into its claimed row, and
    /// lists in `unanswered` the keys it could not answer.
    fn probe(
        &self,
        keys: &[u64],
        plan: &mut ProbePlan,
        rows: &mut [u32],
        unanswered: &mut Unanswered,
        trace: &Trace,
    ) {
        if keys.is_empty() {
            unanswered.clear();
        } else {
            self.aux
                .probe_into(keys, plan, Some(trace), rows, unanswered);
        }
    }

    /// Marks failed the corrected keys stage 3 left unanswered, and returns
    /// how many.  A partition whose load failed degrades its keys — they
    /// carry the typed storage error, every other key is answered
    /// byte-identically to a fault-free batch — and a key the table turns out
    /// not to hold, against its `Vaux` bit, is reported as corruption rather
    /// than answered by a model known to mispredict it.
    fn fail_unanswered(
        &self,
        corrected: &Routed,
        unanswered: &mut Unanswered,
        out: &mut LookupBuffer,
    ) -> usize {
        let failed = unanswered.degraded.len() + unanswered.absent.len();
        let positions = corrected.positions();
        for (ci, err) in unanswered.degraded.drain(..) {
            out.set_failed(positions[ci] as usize, err);
        }
        for &ci in &unanswered.absent {
            let key = corrected.keys()[ci];
            out.set_failed(
                positions[ci] as usize,
                StorageError::Corrupt(format!(
                    "key {key} is marked corrected but the auxiliary table holds no row for it"
                )),
            );
        }
        failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DeepMappingConfig, TrainingConfig};
    use crate::hybrid::DeepMapping;
    use dm_storage::row::ReferenceStore;
    use dm_storage::{DiskProfile, Row, TupleStore};

    /// Rows the model cannot learn, so every key lands in the auxiliary table —
    /// which makes partition-load accounting deterministic.
    fn adversarial_rows(n: u64) -> Vec<Row> {
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
                epochs: 2,
                batch_size: 512,
                ..TrainingConfig::default()
            })
            .with_partition_bytes(4 * 1024)
            .with_disk_profile(DiskProfile::free())
    }

    /// A store with plenty of keys on both routes: alternating 32-key runs of a
    /// learnable pattern and of noise, trained long enough to learn the pattern.
    /// Returns the store, its rows, and the existing keys split by `Vaux` bit
    /// (predicted, corrected).
    fn mixed_store(config: DeepMappingConfig) -> (DeepMapping, Vec<Row>, Vec<u64>, Vec<u64>) {
        let rows: Vec<Row> = (0..4_000u64)
            .map(|k| {
                if (k / 32) % 2 == 0 {
                    Row::new(k, vec![((k / 64) % 4) as u32, ((k / 256) % 3) as u32])
                } else {
                    let h = k.wrapping_mul(0x9E3779B97F4A7C15) >> 17;
                    Row::new(k, vec![(h % 5) as u32, ((h >> 7) % 3) as u32])
                }
            })
            .collect();
        let config = config.with_training(TrainingConfig {
            epochs: 40,
            batch_size: 256,
            ..TrainingConfig::default()
        });
        let dm = DeepMapping::build(&rows, &config).unwrap();
        let (corrected, predicted): (Vec<u64>, Vec<u64>) =
            rows.iter().map(|r| r.key).partition(|&k| dm.corrected().get(k));
        assert!(predicted.len() > 500, "only {} predicted keys", predicted.len());
        assert!(corrected.len() > 500, "only {} corrected keys", corrected.len());
        (dm, rows, predicted, corrected)
    }

    #[test]
    fn one_batch_runs_one_inference_pass_over_its_predicted_keys_only() {
        let (dm, _, predicted, corrected) = mixed_store(quick_config());
        dm.metrics().reset();
        // Existing keys of both routes, misses and duplicates.
        let keys: Vec<u64> = (0..5_000u64).chain(0..100).collect();
        dm.lookup_batch(&keys).unwrap();
        let snap = dm.metrics().snapshot();
        assert_eq!(
            snap.inference_batches, 1,
            "a batch must run exactly one vectorized forward pass"
        );
        let duplicated = |keys: &[u64]| keys.iter().filter(|&&k| k < 100).count() as u64;
        assert_eq!(snap.inference_rows, predicted.len() as u64 + duplicated(&predicted));
        assert_eq!(snap.model_answered, snap.inference_rows);
        assert_eq!(snap.aux_answered, corrected.len() as u64 + duplicated(&corrected));
    }

    /// The two routes never pay for each other: predicted keys touch neither the
    /// buffer pool nor a partition, corrected keys never reach the model.
    #[test]
    fn each_route_pays_only_for_its_own_stage() {
        let (dm, rows, predicted, corrected) = mixed_store(quick_config());
        let reference = ReferenceStore::from_rows(&rows);
        assert!(dm.aux_table().partition_count() >= 2);

        // The pool is cold: nothing has been looked up since the build.
        dm.metrics().reset();
        assert_eq!(
            dm.lookup_batch(&predicted).unwrap(),
            reference.lookup_batch(&predicted).unwrap()
        );
        let snap = dm.metrics().snapshot();
        assert_eq!(snap.partition_loads, 0, "predicted keys must not load partitions");
        assert_eq!(snap.pool_hits + snap.pool_misses, 0, "nor look the pool up");
        assert_eq!(snap.decompressions, 0);
        assert_eq!(snap.inference_rows, predicted.len() as u64);
        assert_eq!(snap.model_answered, predicted.len() as u64);
        assert_eq!(snap.aux_answered, 0);

        dm.metrics().reset();
        assert_eq!(
            dm.lookup_batch(&corrected).unwrap(),
            reference.lookup_batch(&corrected).unwrap()
        );
        let snap = dm.metrics().snapshot();
        assert_eq!(snap.inference_batches, 0, "corrected keys must not be inferred");
        assert_eq!(snap.inference_rows, 0);
        assert_eq!(snap.model_answered, 0);
        assert_eq!(snap.aux_answered, corrected.len() as u64);
        assert!(snap.partition_loads > 0);
    }

    /// A store whose `Vaux` names a key the auxiliary table does not hold is
    /// broken; the lookup must say so for that key — a typed error, not the
    /// model's (known-wrong or unchecked) guess — and answer the rest exactly.
    #[test]
    fn corrected_key_without_a_row_is_a_typed_error_not_a_guess() {
        let (dm, rows, predicted, _) = mixed_store(quick_config());
        let reference = ReferenceStore::from_rows(&rows);
        let orphan = predicted[7];
        let mut broken = dm.corrected().clone();
        broken.set(orphan, true);
        let pipeline = QueryPipeline::new(
            dm.model(),
            dm.aux_table(),
            dm.existence(),
            &broken,
            dm.metrics(),
        );
        let probe: Vec<u64> = (0..4_200u64).collect();
        let expected = reference.lookup_batch(&probe).unwrap();
        dm.metrics().reset();
        let mut buffer = LookupBuffer::new();
        pipeline.execute_into(&probe, &mut buffer).unwrap();
        for (i, &key) in probe.iter().enumerate() {
            if key == orphan {
                assert!(buffer.is_failed(i));
                let err = buffer.error(i).expect("failed spans carry their error");
                assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
                assert!(!err.is_transient());
            } else {
                assert!(!buffer.is_failed(i), "key {key}");
                assert_eq!(buffer.get(i).map(|v| v.to_vec()), expected[i], "key {key}");
            }
        }
        let snap = dm.metrics().snapshot();
        assert_eq!(snap.inference_rows, snap.model_answered);
        assert_eq!(snap.model_answered + snap.aux_answered + 1, rows.len() as u64);
    }

    #[test]
    fn non_existing_keys_skip_inference_entirely() {
        let rows = adversarial_rows(100);
        let dm = DeepMapping::build(&rows, &quick_config()).unwrap();
        dm.metrics().reset();
        let miss_keys: Vec<u64> = (1_000_000..1_000_050).collect();
        let results = dm.lookup_batch(&miss_keys).unwrap();
        assert!(results.iter().all(|r| r.is_none()));
        let snap = dm.metrics().snapshot();
        assert_eq!(snap.inference_batches, 0, "all keys filtered by stage 1");
        assert_eq!(snap.partition_loads, 0);
    }

    #[test]
    fn batch_hitting_one_partition_loads_it_at_most_once() {
        let rows = adversarial_rows(4_000);
        let dm = DeepMapping::build(&rows, &quick_config()).unwrap();
        assert!(
            dm.aux_table().partition_count() > 1,
            "need multiple partitions for the grouping to matter"
        );
        // All keys of the probe batch live inside the first partition's key range.
        let probe: Vec<u64> = (0..64u64).collect();
        dm.metrics().reset();
        dm.lookup_batch(&probe).unwrap();
        let snap = dm.metrics().snapshot();
        assert!(
            snap.partition_loads <= 1,
            "64 keys in one partition caused {} loads",
            snap.partition_loads
        );
        assert!(snap.decompressions <= 1);
        assert!(snap.pool_misses <= 1);
    }

    #[test]
    fn interleaved_batch_loads_each_partition_once_even_under_memory_pressure() {
        let rows = adversarial_rows(4_000);
        // A buffer pool that holds barely one decompressed partition: per-key probing
        // in batch order would thrash (load, evict, reload); the pipeline's grouping
        // must keep it to one load per touched partition.
        let config = quick_config().with_memory_budget(8 * 1024);
        let dm = DeepMapping::build(&rows, &config).unwrap();
        let partitions = dm.aux_table().partition_count();
        assert!(partitions >= 2);
        // Interleave keys across the whole key space so consecutive probes alternate
        // between partitions.
        let probe: Vec<u64> = (0..4_000u64)
            .step_by(7)
            .flat_map(|k| [k, 3_999 - k])
            .collect();
        dm.metrics().reset();
        let results = dm.lookup_batch(&probe).unwrap();
        assert!(results.iter().all(|r| r.is_some()));
        let snap = dm.metrics().snapshot();
        assert!(
            snap.partition_loads <= partitions as u64,
            "{} loads for {partitions} partitions — the batch thrashed the pool",
            snap.partition_loads
        );
    }

    #[test]
    fn pipeline_results_preserve_input_order_and_match_reference() {
        let rows = adversarial_rows(1_000);
        let dm = DeepMapping::build(&rows, &quick_config()).unwrap();
        let reference = ReferenceStore::from_rows(&rows);
        // Shuffled hits and misses, with duplicates.
        let probe: Vec<u64> = (0..2_000u64)
            .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15) % 1_500)
            .collect();
        assert_eq!(
            dm.lookup_batch(&probe).unwrap(),
            reference.lookup_batch(&probe).unwrap()
        );
    }

    #[test]
    fn execute_into_matches_the_reference_and_reuses_the_buffer() {
        let rows = adversarial_rows(1_200);
        let dm = DeepMapping::build(&rows, &quick_config()).unwrap();
        let probe: Vec<u64> = (0..2_400u64).map(|i| (i * 7) % 1_800).collect();
        let expected = ReferenceStore::from_rows(&rows).lookup_batch(&probe).unwrap();
        let mut buffer = LookupBuffer::new();
        for _ in 0..3 {
            dm.pipeline().execute_into(&probe, &mut buffer).unwrap();
            assert_eq!(buffer.to_options(), expected);
        }
        let key_capacity = buffer.key_capacity();
        let value_capacity = buffer.value_capacity();
        for _ in 0..5 {
            dm.pipeline().execute_into(&probe, &mut buffer).unwrap();
        }
        assert_eq!(buffer.key_capacity(), key_capacity, "span table must be reused");
        assert_eq!(buffer.value_capacity(), value_capacity, "value arena must be reused");
    }

    #[test]
    fn get_is_a_batch_of_one() {
        let rows = adversarial_rows(500);
        let dm = DeepMapping::build(&rows, &quick_config()).unwrap();
        dm.metrics().reset();
        assert!(dm.get(3).unwrap().is_some());
        let snap = dm.metrics().snapshot();
        assert_eq!(snap.inference_rows, snap.model_answered);
        assert_eq!(snap.model_answered + snap.aux_answered, 1);
        assert_eq!(dm.get(1_000_000).unwrap(), None);
    }

    #[test]
    fn empty_batch_is_free() {
        let rows = adversarial_rows(100);
        let dm = DeepMapping::build(&rows, &quick_config()).unwrap();
        dm.metrics().reset();
        assert!(dm.lookup_batch(&[]).unwrap().is_empty());
        let snap = dm.metrics().snapshot();
        assert_eq!(snap.inference_batches, 0);
        assert_eq!(snap.partition_loads, 0);
    }

    #[test]
    fn explicit_pipeline_handle_matches_lookup_batch() {
        let rows = adversarial_rows(800);
        let dm = DeepMapping::build(&rows, &quick_config()).unwrap();
        let keys: Vec<u64> = (0..1_000u64).rev().collect();
        let mut buffer = LookupBuffer::new();
        dm.pipeline().execute_into(&keys, &mut buffer).unwrap();
        assert_eq!(buffer.to_options(), dm.lookup_batch(&keys).unwrap());
    }

    /// Graceful degradation: a partition whose reads keep failing must degrade
    /// only the corrected keys it holds — every other key is answered
    /// byte-identically to a fault-free run — and disabling the injector
    /// restores full service.
    #[test]
    fn failed_partition_degrades_only_its_keys_and_recovers() {
        let rows = adversarial_rows(4_000);
        let mut dm = DeepMapping::build(&rows, &quick_config()).unwrap();
        assert!(dm.aux_table().partition_count() >= 2);
        let probe: Vec<u64> = (0..4_000u64).collect();
        let healthy = dm.lookup_batch(&probe).unwrap();

        // Every read of partition 0 fails (transiently — so the pool's bounded
        // retries are exhausted before the group degrades).
        let faults = dm_faults::Faults::new(
            dm_faults::FaultPlan::seeded(7)
                .with_read_transient(1.0)
                .with_read_partitions(vec![0]),
        );
        dm.inject_faults(faults.clone());
        dm.metrics().reset();

        // The strict owned-batch APIs keep their legacy contract: fail loudly.
        let err = dm.lookup_batch(&probe).unwrap_err();
        assert!(matches!(err, crate::CoreError::Storage(_)), "{err}");

        // The buffer API degrades: only partition 0's corrected keys carry
        // errors — a predicted key inside its key range never needed it.
        let mut buffer = LookupBuffer::new();
        dm.lookup_batch_into(&probe, &mut buffer).unwrap();
        assert!(buffer.failed_count() > 0, "partition 0 keys must be marked failed");
        let partition0 = dm.aux_table().partition_directory()[0];
        for (i, &key) in probe.iter().enumerate() {
            if buffer.is_failed(i) {
                assert!(dm.corrected().get(key), "predicted key {key} was degraded");
                assert!((partition0.min_key..=partition0.max_key).contains(&key));
                let err = buffer.error(i).expect("failed spans carry their error");
                assert!(err.is_transient(), "retry-exhausted transient, got {err}");
            } else {
                assert_eq!(
                    buffer.get(i).map(|v| v.to_vec()),
                    healthy[i].clone(),
                    "unaffected key {key} must be byte-identical to the fault-free run"
                );
            }
        }
        let snap = dm.metrics().snapshot();
        assert!(snap.degraded_keys > 0, "degradation must be observable: {snap:?}");
        assert!(snap.load_retries > 0, "transients must be retried before degrading");

        // "Repair the disk": disabling the injector restores exact service.
        faults.set_enabled(false);
        assert_eq!(dm.lookup_batch(&probe).unwrap(), healthy);
    }

    /// A key answered by the model (not resident in the failed partition) must
    /// never be degraded: degradation is scoped to keys whose *covering*
    /// partition failed, not to batches that merely touched a failing store.
    #[test]
    fn keys_outside_failed_partitions_keep_answering() {
        let rows = adversarial_rows(3_000);
        let mut dm = DeepMapping::build(&rows, &quick_config()).unwrap();
        let partitions = dm.aux_table().partition_count();
        assert!(partitions >= 2);
        let last = (partitions - 1) as u64;
        let faults = dm_faults::Faults::new(
            dm_faults::FaultPlan::seeded(11)
                .with_read_transient(1.0)
                .with_read_partitions(vec![last]),
        );
        dm.inject_faults(faults);
        // Keys covered by partition 0 only: the batch must succeed outright.
        let probe: Vec<u64> = (0..32u64).collect();
        let mut buffer = LookupBuffer::new();
        dm.lookup_batch_into(&probe, &mut buffer).unwrap();
        assert_eq!(buffer.failed_count(), 0, "untouched partitions must not degrade");
        assert!(dm.lookup_batch(&probe).is_ok());
    }

    #[test]
    fn route_drops_absent_keys_and_sends_each_other_key_one_way() {
        let (dm, _, _, _) = mixed_store(quick_config());
        let keys = [0, 5, 40, 9_000, 41, 10_000];
        let mut scratch = BatchScratch::default();
        // A reused scratch holds a longer batch's leftovers: they must not leak.
        dm.pipeline().route(&(0..64).collect::<Vec<u64>>(), &mut scratch);
        dm.pipeline().route(&keys, &mut scratch);
        let mut routed: Vec<(u32, u64)> = Vec::new();
        for (side, corrected) in [(&scratch.predicted, false), (&scratch.corrected, true)] {
            for (&key, &position) in side.keys().iter().zip(side.positions()) {
                assert_eq!(dm.corrected().get(key), corrected, "key {key}");
                routed.push((position, key));
            }
        }
        routed.sort_unstable();
        assert_eq!(routed, vec![(0, 0), (1, 5), (2, 40), (4, 41)]);
    }
}
