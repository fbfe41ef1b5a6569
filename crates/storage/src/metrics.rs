//! Latency and I/O accounting.
//!
//! Figure 7 of the paper breaks end-to-end lookup latency into existence check, neural
//! network inference, auxiliary lookup, data loading + decompression, partition
//! location and "other".  Every store in this workspace charges its work to one of
//! those phases through a shared [`Metrics`] handle so the benchmark harness can print
//! the same breakdown.  Simulated I/O time (bytes ÷ modelled bandwidth) is recorded
//! separately from measured wall-clock time so reports can show either.
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

/// The latency phases of Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Checking the existence bit vector.
    ExistenceCheck,
    /// Neural network batch inference.
    NeuralNetwork,
    /// Searching the auxiliary table (or the baseline's partition lookup).
    AuxiliaryLookup,
    /// Loading partitions from disk and decompressing them (includes deserialization).
    LoadAndDecompress,
    /// Determining which partition holds a key.
    LocatePartition,
    /// Everything else (encoding, result assembly, ...).
    Other,
}

impl Phase {
    /// All phases in the order Figure 7 lists them.
    pub fn all() -> [Phase; 6] {
        [
            Phase::ExistenceCheck,
            Phase::NeuralNetwork,
            Phase::AuxiliaryLookup,
            Phase::LoadAndDecompress,
            Phase::LocatePartition,
            Phase::Other,
        ]
    }

    /// Human-readable label used by benchmark output.
    pub fn label(&self) -> &'static str {
        match self {
            Phase::ExistenceCheck => "existence check",
            Phase::NeuralNetwork => "neural network",
            Phase::AuxiliaryLookup => "lookup (auxiliary)",
            Phase::LoadAndDecompress => "data loading + decompression",
            Phase::LocatePartition => "locate partition",
            Phase::Other => "other",
        }
    }

    fn index(&self) -> usize {
        match self {
            Phase::ExistenceCheck => 0,
            Phase::NeuralNetwork => 1,
            Phase::AuxiliaryLookup => 2,
            Phase::LoadAndDecompress => 3,
            Phase::LocatePartition => 4,
            Phase::Other => 5,
        }
    }
}

/// Per-phase accumulated time plus I/O counters.
///
/// **Parallelism caveat:** phase time is accumulated wherever the work runs.
/// When a stage fans out across a `dm-exec` pool (e.g. the query pipeline's
/// sharded partition probes), concurrent tasks each charge their own time, so a
/// phase's figure is *CPU time summed across tasks* and can exceed the batch's
/// wall-clock; on a serial pool it is exact wall-clock.
/// [`total`](LatencyBreakdown::total) sums the phases and is therefore an
/// upper bound on wall time under parallelism — [`wall_nanos`](Self::wall_nanos)
/// is the actual caller-thread wall time measured around each batch, and the
/// two only coincide on a serial pool.  Harnesses should report both (as
/// `dm-bench` does) rather than treating the phase sum as latency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyBreakdown {
    /// Time per phase, indexed in [`Phase::all`] order, in nanoseconds (see the
    /// struct-level parallelism caveat).
    pub phase_nanos: [u64; 6],
    /// Wall-clock time measured around each batch on the calling thread, in
    /// nanoseconds.  Unlike the phase sums this never double-counts parallel
    /// work: it is what a client actually waited, summed over batches.
    pub wall_nanos: u64,
    /// Simulated I/O time (bytes ÷ modelled bandwidth), in nanoseconds.
    pub simulated_io_nanos: u64,
    /// Bytes read from the simulated disk.
    pub bytes_read: u64,
    /// Bytes written to the simulated disk.
    pub bytes_written: u64,
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
    /// Tasks executed on the `dm-exec` runtime on behalf of this store's work
    /// (attribution is approximate when several stores share one pool).
    pub exec_tasks: u64,
    /// Work-stealing events among the runtime's workers during that work.
    pub exec_steals: u64,
    /// Time runtime workers spent parked during that work, in nanoseconds.
    pub exec_park_nanos: u64,
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

impl LatencyBreakdown {
    /// Time attributed to `phase`.
    pub fn phase(&self, phase: Phase) -> Duration {
        Duration::from_nanos(self.phase_nanos[phase.index()])
    }

    /// Sum of all measured phase times — CPU time across tasks, an upper
    /// bound on wall time under parallelism.  For what a caller actually
    /// waited, use [`wall`](Self::wall).
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.phase_nanos.iter().sum())
    }

    /// Caller-thread wall time summed over batches (never double-counts
    /// parallel work).
    pub fn wall(&self) -> Duration {
        Duration::from_nanos(self.wall_nanos)
    }
}

/// The lock-free counter cells behind a [`Metrics`] handle, mirroring
/// [`LatencyBreakdown`] field-for-field.
#[derive(Debug, Default)]
struct MetricCells {
    phase_nanos: [RelaxedCell; 6],
    wall_nanos: RelaxedCell,
    simulated_io_nanos: RelaxedCell,
    bytes_read: RelaxedCell,
    bytes_written: RelaxedCell,
    partition_loads: RelaxedCell,
    decompressions: RelaxedCell,
    pool_hits: RelaxedCell,
    pool_misses: RelaxedCell,
    pool_evictions: RelaxedCell,
    pool_single_flight_waits: RelaxedCell,
    inference_batches: RelaxedCell,
    inference_rows: RelaxedCell,
    exec_tasks: RelaxedCell,
    exec_steals: RelaxedCell,
    exec_park_nanos: RelaxedCell,
    model_answered: RelaxedCell,
    aux_answered: RelaxedCell,
    load_retries: RelaxedCell,
    degraded_keys: RelaxedCell,
}

impl MetricCells {
    fn for_each(&self, mut f: impl FnMut(&RelaxedCell)) {
        for phase in &self.phase_nanos {
            f(phase);
        }
        f(&self.wall_nanos);
        f(&self.simulated_io_nanos);
        f(&self.bytes_read);
        f(&self.bytes_written);
        f(&self.partition_loads);
        f(&self.decompressions);
        f(&self.pool_hits);
        f(&self.pool_misses);
        f(&self.pool_evictions);
        f(&self.pool_single_flight_waits);
        f(&self.inference_batches);
        f(&self.inference_rows);
        f(&self.exec_tasks);
        f(&self.exec_steals);
        f(&self.exec_park_nanos);
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
        let mut phase_nanos = [0u64; 6];
        for (out, cell) in phase_nanos.iter_mut().zip(cells.phase_nanos.iter()) {
            *out = cell.get();
        }
        LatencyBreakdown {
            phase_nanos,
            wall_nanos: cells.wall_nanos.get(),
            simulated_io_nanos: cells.simulated_io_nanos.get(),
            bytes_read: cells.bytes_read.get(),
            bytes_written: cells.bytes_written.get(),
            partition_loads: cells.partition_loads.get(),
            decompressions: cells.decompressions.get(),
            pool_hits: cells.pool_hits.get(),
            pool_misses: cells.pool_misses.get(),
            pool_evictions: cells.pool_evictions.get(),
            pool_single_flight_waits: cells.pool_single_flight_waits.get(),
            inference_batches: cells.inference_batches.get(),
            inference_rows: cells.inference_rows.get(),
            exec_tasks: cells.exec_tasks.get(),
            exec_steals: cells.exec_steals.get(),
            exec_park_nanos: cells.exec_park_nanos.get(),
            model_answered: cells.model_answered.get(),
            aux_answered: cells.aux_answered.get(),
            load_retries: cells.load_retries.get(),
            degraded_keys: cells.degraded_keys.get(),
        }
    }

    /// Adds wall-clock time to a phase.
    pub fn add_time(&self, phase: Phase, duration: Duration) {
        self.inner.phase_nanos[phase.index()].add(duration.as_nanos() as u64);
    }

    /// Times a closure and charges it to a phase, returning its result.
    pub fn time<T>(&self, phase: Phase, f: impl FnOnce() -> T) -> T {
        let start = std::time::Instant::now();
        let result = f();
        self.add_time(phase, start.elapsed());
        result
    }

    /// Records one batch's caller-thread wall time (what the client waited,
    /// as opposed to the summed per-phase CPU time).
    pub fn add_wall(&self, duration: Duration) {
        self.inner.wall_nanos.add(duration.as_nanos() as u64);
    }

    /// Records a simulated-disk read of `bytes` that the bandwidth model says takes
    /// `io_time`.
    pub fn add_read(&self, bytes: u64, io_time: Duration) {
        self.inner.bytes_read.add(bytes);
        self.inner.partition_loads.add(1);
        self.inner.simulated_io_nanos.add(io_time.as_nanos() as u64);
    }

    /// Records a simulated-disk write of `bytes`.
    pub fn add_write(&self, bytes: u64) {
        self.inner.bytes_written.add(bytes);
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

    /// Records execution-runtime activity (a `dm_exec::ExecStats` delta) observed
    /// while serving this store's work.
    pub fn add_exec(&self, tasks: u64, steals: u64, park_nanos: u64) {
        self.inner.exec_tasks.add(tasks);
        self.inner.exec_steals.add(steals);
        self.inner.exec_park_nanos.add(park_nanos);
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
    fn phases_cover_figure_7_breakdown() {
        let phases = Phase::all();
        assert_eq!(phases.len(), 6);
        let labels: Vec<&str> = phases.iter().map(|p| p.label()).collect();
        assert!(labels.contains(&"existence check"));
        assert!(labels.contains(&"neural network"));
        assert!(labels.contains(&"data loading + decompression"));
        // Indices are unique and dense.
        let mut idx: Vec<usize> = phases.iter().map(|p| p.index()).collect();
        idx.sort_unstable();
        assert_eq!(idx, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn metrics_accumulate_and_reset() {
        let metrics = Metrics::new();
        metrics.add_time(Phase::NeuralNetwork, Duration::from_millis(5));
        metrics.add_time(Phase::NeuralNetwork, Duration::from_millis(3));
        metrics.add_wall(Duration::from_millis(11));
        metrics.add_read(1024, Duration::from_millis(1));
        metrics.add_write(10);
        metrics.add_decompression();
        metrics.add_pool_hit();
        metrics.add_pool_miss();
        metrics.add_pool_eviction();
        metrics.add_pool_single_flight_wait();
        metrics.add_exec(12, 3, 450);
        metrics.add_inference_batch(128);
        metrics.add_answer_mix(90, 10);
        metrics.add_load_retry();
        metrics.add_degraded_keys(2);
        let snap = metrics.snapshot();
        assert_eq!(snap.phase(Phase::NeuralNetwork), Duration::from_millis(8));
        assert_eq!(snap.wall(), Duration::from_millis(11));
        assert_eq!(snap.bytes_read, 1024);
        assert_eq!(snap.bytes_written, 10);
        assert_eq!(snap.partition_loads, 1);
        assert_eq!(snap.decompressions, 1);
        assert_eq!(snap.pool_hits, 1);
        assert_eq!(snap.pool_misses, 1);
        assert_eq!(snap.pool_evictions, 1);
        assert_eq!(snap.pool_single_flight_waits, 1);
        assert_eq!(snap.exec_tasks, 12);
        assert_eq!(snap.exec_steals, 3);
        assert_eq!(snap.exec_park_nanos, 450);
        assert_eq!(snap.inference_batches, 1);
        assert_eq!(snap.inference_rows, 128);
        assert_eq!(snap.model_answered, 90);
        assert_eq!(snap.aux_answered, 10);
        assert_eq!(snap.load_retries, 1);
        assert_eq!(snap.degraded_keys, 2);
        assert_eq!(snap.simulated_io_nanos, 1_000_000);
        assert_eq!(snap.total(), Duration::from_millis(8));

        metrics.reset();
        assert_eq!(metrics.snapshot(), LatencyBreakdown::default());
    }

    #[test]
    fn shared_handles_observe_the_same_counters() {
        let metrics = Metrics::new();
        let clone = metrics.clone();
        clone.add_time(Phase::Other, Duration::from_nanos(500));
        assert_eq!(metrics.snapshot().phase(Phase::Other), Duration::from_nanos(500));
    }

    #[test]
    fn time_closure_charges_the_phase() {
        let metrics = Metrics::new();
        let value = metrics.time(Phase::AuxiliaryLookup, || 21 * 2);
        assert_eq!(value, 42);
        assert!(metrics.snapshot().phase_nanos[Phase::AuxiliaryLookup.index()] > 0);
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
                        metrics.add_time(Phase::AuxiliaryLookup, Duration::from_nanos(3));
                        metrics.add_wall(Duration::from_nanos(7));
                        metrics.add_pool_hit();
                        metrics.add_pool_miss();
                        metrics.add_read(2, Duration::from_nanos(1));
                        metrics.add_exec(2, 1, 4);
                        metrics.add_inference_batch(16);
                    }
                });
            }
        });
        let snap = metrics.snapshot();
        let n = threads * iters;
        assert_eq!(snap.phase_nanos[Phase::AuxiliaryLookup.index()], 3 * n);
        assert_eq!(snap.wall_nanos, 7 * n);
        assert_eq!(snap.pool_hits, n);
        assert_eq!(snap.pool_misses, n);
        assert_eq!(snap.bytes_read, 2 * n);
        assert_eq!(snap.partition_loads, n);
        assert_eq!(snap.simulated_io_nanos, n);
        assert_eq!(snap.exec_tasks, 2 * n);
        assert_eq!(snap.exec_steals, n);
        assert_eq!(snap.exec_park_nanos, 4 * n);
        assert_eq!(snap.inference_batches, n);
        assert_eq!(snap.inference_rows, 16 * n);
    }
}
