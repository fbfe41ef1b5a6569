//! The batched lookup pipeline — Algorithm 1 as an explicit staged dataflow.
//!
//! Every lookup in the workspace (single-key `get`, `lookup_batch`, the benchmark
//! harness, range materialization) funnels through [`QueryPipeline`].  The paper's
//! Algorithm 1 infers every existing key and then validates it against `Taux`;
//! this pipeline knows in advance which of the two will answer, from one more bit
//! per key, and pays for that one only:
//!
//! 1. **Three-way split** ([`Stage::Existence`]) — the existence bit vector
//!    `Vexist` drops non-existing keys immediately, so the model can never
//!    hallucinate a value for them; the corrected-key bit vector `Vaux` sends every
//!    surviving key to exactly one of the next two stages.  `Vaux` is exact
//!    (`vaux[k] ⇔ exist[k] ∧ aux.get(k).is_some()`, kept in step by every write),
//!    so the two sets are disjoint and no answer ever overrides another.
//! 2. **Vectorized inference of the predicted keys** ([`Stage::Inference`]) —
//!    keys whose `Vaux` bit is clear go to the network as keys, in a single
//!    [`forward_keys_flat`](dm_nn::MultiTaskModel::forward_keys_flat)
//!    pass: one trunk matrix-multiply sequence for the batch, then the heads,
//!    never a per-key pass, recorded via [`Metrics::add_inference_batch`].  No
//!    batch-wide feature matrix is built: each cache-sized row chunk of the
//!    pass encodes its own keys, for an int8 model straight into the first
//!    layer's input bytes (one masked store a key under AVX-512), and no logit
//!    matrix either: every head's output layer runs with the keys in vector
//!    lanes and keeps each head's best class in its epilogue
//!    ([`dm_nn::kernel::argmax_prequantized`]), so the pass writes the classes
//!    and nothing else.  They cause no probe plan, no partition load and no
//!    decompression.
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
//!    (Section IV-B2's batch-sorting optimization).
//! 4. **Order-preserving scatter** ([`Stage::Merge`]) — predictions are copied to
//!    their keys' positions in the original batch order; probe hits were written
//!    there directly.
//!
//! A corrected key whose probe comes back empty is an invariant violation (the
//! bit says the table holds the row, the table says it does not).  It surfaces as
//! a typed per-key [`StorageError::Corrupt`] — never as the model's guess, which
//! is known to be wrong for that key.
//!
//! The whole pipeline writes into a caller-owned [`LookupBuffer`]
//! ([`QueryPipeline::execute_into`]) and borrows its batch-sized working memory
//! from it ([`LookupBuffer::take_scratch`]): the two sides of the split, the
//! probe plan and the predictions of one row-major
//! [`MappingModel::predict_into`] pass.  The walk's working memory, bounded
//! by a chunk of rows rather than the batch, is kept per thread, as is the
//! trace's event array; probe hits are read straight out of the pooled
//! bit-packed partitions.  So a reused buffer makes the steady-state batch
//! allocate nothing at all (`tests/alloc_guard.rs`).
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
//! wall-clock.  Under `DM_OBS=off` no span reads the clock.  The store's
//! [`Metrics`] hold counts only.

use crate::aux_table::{AuxTable, ProbePlan};
use crate::model::MappingModel;
use crate::Result;
use dm_obs::{Stage, Trace};
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
#[derive(Debug, Default)]
struct BatchScratch {
    /// Stage 1's output, `Vaux` bit clear: the model's prediction is the answer.
    predicted: Routed,
    /// Stage 1's output, `Vaux` bit set: the auxiliary table holds the answer.
    corrected: Routed,
    /// Stage 3's probe plan.
    plan: ProbePlan,
    /// Stage 2's row-major predictions.
    predictions: Vec<u32>,
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
        out.reset(keys);
        if keys.is_empty() {
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
        {
            let _existence = trace.span(Stage::Existence);
            self.route(keys, scratch);
        }
        let BatchScratch {
            predicted,
            corrected,
            plan,
            predictions,
        } = scratch;
        if predicted.len == 0 && corrected.len == 0 {
            return Ok(());
        }

        // Stages 2 and 3 share no key and no output (predictions are staged in
        // the batch's scratch, probe hits go to the spans).  They run one
        // after the other.
        let failed = self.probe(corrected, plan, out, trace);
        let columns = self.infer(predicted.keys(), predictions, trace)?;

        // Stage 4: scatter the predictions to their keys' batch positions.
        {
            let _merge = trace.span(Stage::Merge);
            for (i, &position) in predicted.positions().iter().enumerate() {
                out.set_hit(position as usize, &predictions[i * columns..(i + 1) * columns]);
            }
        }
        // The answer mix is pipeline-work accounting (drift detection's
        // primary signal), not tracing — recorded regardless of `DM_OBS`.
        self.metrics
            .add_answer_mix(predicted.len as u64, corrected.len as u64 - failed);
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

    /// Stage 2: one vectorized forward pass over the predicted keys, flat
    /// row-major into `predictions`.
    /// Returns the number of value columns.
    fn infer(&self, keys: &[u64], predictions: &mut Vec<u32>, trace: &Trace) -> Result<usize> {
        if keys.is_empty() {
            return Ok(0);
        }
        let columns = {
            let _inference = trace.span(Stage::Inference);
            self.model.predict_into(keys, predictions)?
        };
        self.metrics.add_inference_batch(keys.len() as u64);
        Ok(columns)
    }

    /// Stage 3: probes the corrected keys (grouped by partition, each loaded at
    /// most once) and writes the hits to their batch positions.  Returns how
    /// many keys were marked failed instead: a partition whose load failed
    /// degrades its keys — they carry the typed storage error, every other key
    /// is answered byte-identically to a fault-free batch — and a key the table
    /// turns out not to hold, against its `Vaux` bit, is reported as corruption
    /// rather than answered by a model known to mispredict it.
    fn probe(&self, corrected: &Routed, plan: &mut ProbePlan, out: &mut LookupBuffer, trace: &Trace) -> u64 {
        let positions = corrected.positions();
        if positions.is_empty() {
            return 0;
        }
        let mut answered = 0;
        let degraded = self.aux.probe_batch(
            corrected.keys(),
            plan,
            Some(trace),
            &mut |ci, values| {
                out.set_hit(positions[ci] as usize, values);
                answered += 1;
            },
        );
        let mut failed = degraded.len();
        for (ci, err) in degraded {
            out.set_failed(positions[ci] as usize, err);
        }
        if answered + failed < positions.len() {
            for (&key, &position) in corrected.keys().iter().zip(positions) {
                let position = position as usize;
                if !out.is_hit(position) && !out.is_failed(position) {
                    out.set_failed(
                        position,
                        StorageError::Corrupt(format!(
                            "key {key} is marked corrected but the auxiliary table holds no row for it"
                        )),
                    );
                    failed += 1;
                }
            }
        }
        failed as u64
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
