//! I/O, pool and answer-mix accounting.
//!
//! Every store in this workspace counts its work — partition loads and the bytes
//! behind them, decompressions, buffer-pool traffic, inference batches, which side
//! answered each hit — through a shared [`Metrics`] handle, so the benchmark harness
//! can read the same counters from any store.  Simulated I/O time (bytes ÷ modelled
//! bandwidth) is a count of the disk model, not a clock reading.  Time is not kept
//! here: each lookup stage is timed once, by a `dm_obs` span on the batch's
//! [`Trace`](dm_obs::Trace), and read back from its
//! [`TraceSummary`](dm_obs::TraceSummary) or the per-[`Stage`](dm_obs::Stage)
//! histograms.
//!
//! Recording is **lock-free**: every counter is a [`dm_obs::RelaxedCell`]
//! (one relaxed atomic add per bump), so concurrent pipeline stages, pool
//! readers and exec workers never serialize on a metrics mutex.  Relaxed adds
//! never lose increments; a [`snapshot`](Metrics::snapshot) taken while
//! writers are active may mix cells from slightly different instants (see the
//! `dm_obs` accuracy contract), which the quiescent read points used by tests
//! and benches make exact.

use dm_obs::RelaxedCell;
use std::sync::Arc;
use std::time::Duration;

/// The I/O, pool and answer counters of a store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyBreakdown {
    /// Simulated I/O time (bytes ÷ modelled bandwidth), in nanoseconds.
    pub simulated_io_nanos: u64,
    /// Bytes read from the simulated disk.
    pub bytes_read: u64,
    /// Number of partition loads (disk → memory).
    pub partition_loads: u64,
    /// Number of partition decompressions.
    pub decompressions: u64,
    /// Buffer-pool hits.
    pub pool_hits: u64,
    /// Buffer-pool misses.
    pub pool_misses: u64,
    /// Buffer-pool evictions.
    pub pool_evictions: u64,
    /// Buffer-pool lookups that blocked on another reader's in-flight load
    /// instead of duplicating it (single-flight cold loads).  Waits are counted
    /// separately from hits and misses: a wait is served by someone else's miss.
    pub pool_single_flight_waits: u64,
    /// Number of vectorized model forward passes (one per lookup batch when the
    /// query pipeline is doing its job — many per batch means per-key inference).
    pub inference_batches: u64,
    /// Total rows pushed through model inference.
    pub inference_rows: u64,
    /// Lookup hits answered by the model alone (predicted keys: `Vaux` bit
    /// clear, inferred, never probed).  With `aux_answered` this is the
    /// model-vs-aux answer mix drift detection watches: a drifting model
    /// shifts answers from this counter to the next one.
    pub model_answered: u64,
    /// Lookup hits answered by the auxiliary table (corrected keys: overlay or
    /// compressed partition probe, never inferred).
    pub aux_answered: u64,
    /// Buffer-pool cold loads re-attempted after a transient I/O failure
    /// (one per extra loader invocation, successful or not).  Corruption is
    /// never retried, so this counts exactly the retry policy's work.
    pub load_retries: u64,
    /// Lookup keys whose partition probe failed after retries and were marked
    /// failed in the result buffer instead of failing the whole batch — the
    /// degraded-serving counter.
    pub degraded_keys: u64,
}

/// The lock-free counter cells behind a [`Metrics`] handle, mirroring
/// [`LatencyBreakdown`] field-for-field.
#[derive(Debug, Default)]
struct MetricCells {
    simulated_io_nanos: RelaxedCell,
    bytes_read: RelaxedCell,
    partition_loads: RelaxedCell,
    decompressions: RelaxedCell,
    pool_hits: RelaxedCell,
    pool_misses: RelaxedCell,
    pool_evictions: RelaxedCell,
    pool_single_flight_waits: RelaxedCell,
    inference_batches: RelaxedCell,
    inference_rows: RelaxedCell,
    model_answered: RelaxedCell,
    aux_answered: RelaxedCell,
    load_retries: RelaxedCell,
    degraded_keys: RelaxedCell,
}

impl MetricCells {
    fn for_each(&self, mut f: impl FnMut(&RelaxedCell)) {
        f(&self.simulated_io_nanos);
        f(&self.bytes_read);
        f(&self.partition_loads);
        f(&self.decompressions);
        f(&self.pool_hits);
        f(&self.pool_misses);
        f(&self.pool_evictions);
        f(&self.pool_single_flight_waits);
        f(&self.inference_batches);
        f(&self.inference_rows);
        f(&self.model_answered);
        f(&self.aux_answered);
        f(&self.load_retries);
        f(&self.degraded_keys);
    }
}

/// A cloneable handle to shared metrics.  Stores hold a handle and charge work to it;
/// the benchmark harness resets it before a run and reads the breakdown afterwards.
///
/// Every `add_*` method is a few relaxed atomic adds — no mutex anywhere on
/// the record path, so concurrent stage-3 probe tasks (or whole concurrent
/// batches) never serialize here.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    inner: Arc<MetricCells>,
}

impl Metrics {
    /// Creates a fresh metrics handle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets all counters to zero.  Intended for quiescent points (between
    /// benchmark runs); concurrent recordings may land before or after the
    /// reset but never corrupt a cell.
    pub fn reset(&self) {
        self.inner.for_each(RelaxedCell::reset);
    }

    /// Returns a snapshot of the current counters.
    pub fn snapshot(&self) -> LatencyBreakdown {
        let cells = &*self.inner;
        LatencyBreakdown {
            simulated_io_nanos: cells.simulated_io_nanos.get(),
            bytes_read: cells.bytes_read.get(),
            partition_loads: cells.partition_loads.get(),
            decompressions: cells.decompressions.get(),
            pool_hits: cells.pool_hits.get(),
            pool_misses: cells.pool_misses.get(),
            pool_evictions: cells.pool_evictions.get(),
            pool_single_flight_waits: cells.pool_single_flight_waits.get(),
            inference_batches: cells.inference_batches.get(),
            inference_rows: cells.inference_rows.get(),
            model_answered: cells.model_answered.get(),
            aux_answered: cells.aux_answered.get(),
            load_retries: cells.load_retries.get(),
            degraded_keys: cells.degraded_keys.get(),
        }
    }

    /// Records a simulated-disk read of `bytes` that the bandwidth model says takes
    /// `io_time`.
    pub fn add_read(&self, bytes: u64, io_time: Duration) {
        self.inner.bytes_read.add(bytes);
        self.inner.partition_loads.add(1);
        self.inner.simulated_io_nanos.add(io_time.as_nanos() as u64);
    }

    /// Records one decompression.
    pub fn add_decompression(&self) {
        self.inner.decompressions.add(1);
    }

    /// Records a buffer-pool hit.
    pub fn add_pool_hit(&self) {
        self.inner.pool_hits.add(1);
    }

    /// Records a buffer-pool miss.
    pub fn add_pool_miss(&self) {
        self.inner.pool_misses.add(1);
    }

    /// Records a buffer-pool eviction.
    pub fn add_pool_eviction(&self) {
        self.inner.pool_evictions.add(1);
    }

    /// Records a buffer-pool lookup that waited on another reader's in-flight
    /// single-flight load.
    pub fn add_pool_single_flight_wait(&self) {
        self.inner.pool_single_flight_waits.add(1);
    }

    /// Records one vectorized model forward pass over `rows` inputs.
    pub fn add_inference_batch(&self, rows: u64) {
        self.inner.inference_batches.add(1);
        self.inner.inference_rows.add(rows);
    }

    /// Records one batch's answer mix: `model` hits served by the model's
    /// prediction alone, `aux` hits served by the auxiliary table.  Recorded
    /// unconditionally (like every `LatencyBreakdown` counter) — the
    /// `DM_OBS` kill switch gates tracing, never pipeline-work accounting.
    pub fn add_answer_mix(&self, model: u64, aux: u64) {
        self.inner.model_answered.add(model);
        self.inner.aux_answered.add(aux);
    }

    /// Records one extra cold-load attempt after a transient I/O failure.
    pub fn add_load_retry(&self) {
        self.inner.load_retries.add(1);
    }

    /// Records `keys` lookup keys answered with a per-key failure instead of
    /// failing their whole batch.
    pub fn add_degraded_keys(&self, keys: u64) {
        self.inner.degraded_keys.add(keys);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_accumulate_and_reset() {
        let metrics = Metrics::new();
        metrics.add_read(1024, Duration::from_millis(1));
        metrics.add_decompression();
        metrics.add_pool_hit();
        metrics.add_pool_miss();
        metrics.add_pool_eviction();
        metrics.add_pool_single_flight_wait();
        metrics.add_inference_batch(128);
        metrics.add_answer_mix(90, 10);
        metrics.add_load_retry();
        metrics.add_degraded_keys(2);
        let snap = metrics.snapshot();
        assert_eq!(snap.bytes_read, 1024);
        assert_eq!(snap.partition_loads, 1);
        assert_eq!(snap.decompressions, 1);
        assert_eq!(snap.pool_hits, 1);
        assert_eq!(snap.pool_misses, 1);
        assert_eq!(snap.pool_evictions, 1);
        assert_eq!(snap.pool_single_flight_waits, 1);
        assert_eq!(snap.inference_batches, 1);
        assert_eq!(snap.inference_rows, 128);
        assert_eq!(snap.model_answered, 90);
        assert_eq!(snap.aux_answered, 10);
        assert_eq!(snap.load_retries, 1);
        assert_eq!(snap.degraded_keys, 2);
        assert_eq!(snap.simulated_io_nanos, 1_000_000);

        metrics.reset();
        assert_eq!(metrics.snapshot(), LatencyBreakdown::default());
    }

    #[test]
    fn shared_handles_observe_the_same_counters() {
        let metrics = Metrics::new();
        let clone = metrics.clone();
        clone.add_read(500, Duration::ZERO);
        assert_eq!(metrics.snapshot().bytes_read, 500);
    }

    /// The concurrent-recording stress behind the "no mutex on the record
    /// path" guarantee: hammer every counter from many threads and assert no
    /// increment was lost (relaxed atomic adds are exact; a racy read-modify-
    /// write reimplementation would fail this immediately).
    #[test]
    fn concurrent_recording_loses_no_counts() {
        let metrics = Metrics::new();
        let threads = 8;
        let iters = 5_000u64;
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for _ in 0..iters {
                        metrics.add_pool_hit();
                        metrics.add_pool_miss();
                        metrics.add_read(2, Duration::from_nanos(1));
                        metrics.add_inference_batch(16);
                    }
                });
            }
        });
        let snap = metrics.snapshot();
        let n = threads * iters;
        assert_eq!(snap.pool_hits, n);
        assert_eq!(snap.pool_misses, n);
        assert_eq!(snap.bytes_read, 2 * n);
        assert_eq!(snap.partition_loads, n);
        assert_eq!(snap.simulated_io_nanos, n);
        assert_eq!(snap.inference_batches, n);
        assert_eq!(snap.inference_rows, 16 * n);
    }
}
