//! # dm-bench — the benchmark harness behind every table and figure of the paper
//!
//! Each bench target under `benches/` regenerates one table or figure of the
//! DeepMapping evaluation (Section V).  They are custom harnesses (`harness = false`)
//! that print the same rows/series the paper reports; two additional Criterion targets
//! (`codec_micro`, `lookup_micro`) cover micro-latencies.
//!
//! The utilities here are shared by all of them:
//!
//! * [`BenchScale`] — one knob (`DM_BENCH_SCALE`, default `0.005`) that scales every
//!   dataset so the full suite runs in minutes on one core while preserving the
//!   *shape* of the results (who wins, by roughly what factor),
//! * [`build_baselines`] / [`build_deepmapping`] — construct the paper's system matrix
//!   (AB, ABC-D/G/Z/L, HB, HBC-Z/L, DS, DM-Z, DM-L) over a dataset,
//! * [`measure_lookup`] — wall-clock plus simulated-I/O latency of a query batch,
//! * [`report`] — fixed-width table printing so `cargo bench` output reads like the
//!   paper's tables.

pub mod gate;
pub mod open_loop;
pub mod sweeps;

use dm_baselines::{DeepSqueezeConfig, DeepSqueezeStore, PartitionedStore, PartitionedStoreConfig};
use dm_compress::Codec;
use dm_core::{DeepMappingBuilder, Quantization, TrainingConfig};
use dm_data::Dataset;
use dm_storage::{DiskProfile, LookupBuffer, Metrics, MutableStore, Row};
use std::time::{Duration, Instant};

/// Global scale knob for the benchmark suite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchScale {
    /// Multiplier applied to the paper's SF-1 row counts (e.g. `0.005` ≈ 7.5 k orders).
    pub factor: f64,
}

impl BenchScale {
    /// Reads the scale from the `DM_BENCH_SCALE` environment variable
    /// (default `0.005`).
    pub fn from_env() -> Self {
        let factor = std::env::var("DM_BENCH_SCALE")
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.005)
            .clamp(1e-5, 10.0);
        BenchScale { factor }
    }

    /// Scales an SF-1 row count.
    pub fn rows(&self, base_sf1: usize) -> usize {
        ((base_sf1 as f64) * self.factor).round().max(1024.0) as usize
    }

    /// A batch size scaled down proportionally from the paper's `B`
    /// (so `B = 100 000` stays meaningful on tiny datasets).
    pub fn batch(&self, paper_batch: usize) -> usize {
        ((paper_batch as f64 * self.factor * 50.0).round() as usize).clamp(100, paper_batch)
    }
}

/// Machine profiles of Section V-A2, expressed as (memory budget, disk model).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineProfile {
    /// Human-readable name ("small", "medium", "large").
    pub name: &'static str,
    /// Memory available to buffer pools, in bytes.  `usize::MAX` means "fits easily".
    pub memory_budget_bytes: usize,
    /// I/O model.
    pub disk: DiskProfile,
}

impl MachineProfile {
    /// The small-size machine (t2-medium class): constrained memory, slow disk.
    /// `memory_fraction` expresses the budget as a fraction of `dataset_bytes` so the
    /// "dataset exceeds memory" scenario scales with the benchmark scale.
    pub fn small(dataset_bytes: usize, memory_fraction: f64) -> Self {
        MachineProfile {
            name: "small",
            memory_budget_bytes: ((dataset_bytes as f64) * memory_fraction) as usize,
            disk: DiskProfile::edge_ssd(),
        }
    }

    /// The medium-size machine (g4dn class): ample memory, faster disk.
    pub fn medium() -> Self {
        MachineProfile {
            name: "medium",
            memory_budget_bytes: usize::MAX,
            disk: DiskProfile::nvme(),
        }
    }

    /// The large-size machine (A10 server): everything in memory, free I/O.
    pub fn large() -> Self {
        MachineProfile {
            name: "large",
            memory_budget_bytes: usize::MAX,
            disk: DiskProfile::free(),
        }
    }
}

/// A store under test plus the metrics handle it charges work to.
pub struct SystemUnderTest {
    /// Paper-style system name (`AB`, `ABC-Z`, `DM-L`, ...).
    pub name: String,
    /// The store, swept through the shared read/write traits.
    pub store: Box<dyn MutableStore>,
    /// Metrics handle shared with the store.
    pub metrics: Metrics,
    /// Reusable lookup arena, so repeated measurements over one system stay free of
    /// per-key allocations.
    pub buffer: LookupBuffer,
}

impl SystemUnderTest {
    /// Wraps a store for the harness.
    pub fn new(name: impl Into<String>, store: Box<dyn MutableStore>, metrics: Metrics) -> Self {
        SystemUnderTest {
            name: name.into(),
            store,
            metrics,
            buffer: LookupBuffer::new(),
        }
    }
}

/// Builds the array- and hash-based baseline matrix of Section V-A3 over a dataset.
pub fn build_baselines(dataset: &Dataset, machine: &MachineProfile) -> Vec<SystemUnderTest> {
    let rows = dataset.rows();
    let value_columns = dataset.num_value_columns();
    let record_width = Row::fixed_width(value_columns);
    let mut systems = Vec::new();
    let configs: Vec<PartitionedStoreConfig> = vec![
        PartitionedStoreConfig::array(Codec::None),
        PartitionedStoreConfig::array(Codec::Dictionary { record_width }),
        PartitionedStoreConfig::array(Codec::Deflate),
        PartitionedStoreConfig::array(Codec::Lz),
        PartitionedStoreConfig::array(Codec::LzHuff),
        PartitionedStoreConfig::hash(Codec::None),
        PartitionedStoreConfig::hash(Codec::Lz),
        PartitionedStoreConfig::hash(Codec::LzHuff),
    ];
    for config in configs {
        let metrics = Metrics::new();
        let config = config
            .with_memory_budget(machine.memory_budget_bytes)
            .with_disk_profile(machine.disk)
            .with_partition_bytes(64 * 1024);
        let name = config.paper_name();
        let store = PartitionedStore::build(&rows, value_columns, config, metrics.clone())
            .expect("baseline build");
        systems.push(SystemUnderTest::new(name, Box::new(store), metrics));
    }
    systems
}

/// Builds the DeepSqueeze-like DS baseline; returns `None` when the build fails with
/// an OOM-style error (the paper reports those cells as "failed").
pub fn build_deepsqueeze(dataset: &Dataset, machine: &MachineProfile) -> Option<SystemUnderTest> {
    let metrics = Metrics::new();
    let config = DeepSqueezeConfig {
        epochs: 10,
        ..DeepSqueezeConfig::default()
    }
    .with_memory_budget(machine.memory_budget_bytes);
    match DeepSqueezeStore::build(&dataset.rows(), dataset.num_value_columns(), config, metrics.clone()) {
        Ok(store) => Some(SystemUnderTest::new("DS", Box::new(store), metrics)),
        Err(_) => None,
    }
}

/// Builds a concrete DeepMapping store (DM-Z or DM-L) over a dataset — the shape
/// the multi-threaded throughput variant needs (an `Arc<DeepMapping>` shared
/// across OS threads).  [`build_deepmapping`] wraps it for the trait-object sweep.
///
/// The benchmarked stores run int8-quantized inference: it is the shipped fast
/// path (lossless by construction — the aux table memorizes under quantized
/// arithmetic), so the throughput tables measure what a production store does.
pub fn build_deepmapping_store(
    dataset: &Dataset,
    codec: Codec,
    machine: &MachineProfile,
    training: TrainingConfig,
) -> dm_core::DeepMapping {
    let builder = match codec {
        Codec::LzHuff => DeepMappingBuilder::dm_l(),
        _ => DeepMappingBuilder::dm_z().codec(codec),
    }
    .memory_budget(machine.memory_budget_bytes)
    .disk_profile(machine.disk)
    .partition_bytes(32 * 1024)
    .quantization(Quantization::Int8)
    .training(training);
    builder.build(&dataset.rows()).expect("DeepMapping build")
}

/// Builds a DeepMapping store (DM-Z or DM-L) over a dataset.
pub fn build_deepmapping(
    dataset: &Dataset,
    codec: Codec,
    machine: &MachineProfile,
    training: TrainingConfig,
) -> SystemUnderTest {
    let dm = build_deepmapping_store(dataset, codec, machine, training);
    let name = dm.config().paper_name();
    let metrics = dm.metrics().clone();
    SystemUnderTest::new(name, Box::new(dm), metrics)
}

/// Builds DM-Z and DM-L with a default quick training budget.
pub fn build_deepmapping_pair(dataset: &Dataset, machine: &MachineProfile) -> Vec<SystemUnderTest> {
    let training = TrainingConfig {
        epochs: 30,
        batch_size: 512,
        ..TrainingConfig::default()
    };
    vec![
        build_deepmapping(dataset, Codec::Lz, machine, training),
        build_deepmapping(dataset, Codec::LzHuff, machine, training),
    ]
}

/// Latency measured for one query batch.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MeasuredLatency {
    /// Wall-clock time of the batch.
    pub wall: Duration,
    /// Simulated disk-I/O time accumulated during the batch.
    pub simulated_io: Duration,
}

impl MeasuredLatency {
    /// Wall-clock plus simulated I/O — the figure comparable to the paper's
    /// memory-constrained latencies.
    pub fn total(&self) -> Duration {
        self.wall + self.simulated_io
    }

    /// Total latency in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total().as_secs_f64() * 1e3
    }
}

/// Runs one lookup batch through a system and measures it.  The batch goes through
/// the allocation-aware `lookup_batch_into` path with the system's reusable buffer,
/// so the measurement covers the query work, not result materialization.
pub fn measure_lookup(system: &mut SystemUnderTest, keys: &[u64]) -> MeasuredLatency {
    system.metrics.reset();
    let start = Instant::now();
    let result = system.store.lookup_batch_into(keys, &mut system.buffer);
    let wall = start.elapsed();
    let snapshot = system.metrics.snapshot();
    // A failed lookup (e.g. DS running out of memory) is reported as an effectively
    // infinite latency so tables can show it as "failed".
    if result.is_err() {
        return MeasuredLatency {
            wall: Duration::from_secs(u64::MAX / 4),
            simulated_io: Duration::ZERO,
        };
    }
    MeasuredLatency {
        wall,
        simulated_io: Duration::from_nanos(snapshot.simulated_io_nanos),
    }
}

/// Runs `samples` measured repetitions of a lookup batch against a system (after
/// one warmup pass) and returns the individual measurements, for percentile
/// reporting.
pub fn measure_lookup_samples(
    system: &mut SystemUnderTest,
    keys: &[u64],
    samples: usize,
) -> Vec<MeasuredLatency> {
    measure_lookup(system, keys); // warm the buffer pool and the lookup arena
    (0..samples.max(1))
        .map(|_| measure_lookup(system, keys))
        .collect()
}

/// Minimum sample count for which a nearest-rank p99 is a distinct statistic.
///
/// Nearest-rank over `n` sorted samples puts p99 at rank `round(0.99·(n-1))` and
/// p95 at `round(0.95·(n-1))`; below 26 samples those ranks collide, so every
/// reported "p99" was silently the p95 (the committed `BENCH_lookup.json` rows
/// produced from 9 reps all showed p99 == p95).  Records built from fewer
/// samples omit p99 instead of reporting fiction.
pub const P99_MIN_SAMPLES: usize = 26;

/// One per-system, per-batch-size throughput record for the machine-readable
/// `BENCH_lookup.json` report, with latency-distribution tails.
#[derive(Debug, Clone, PartialEq)]
pub struct LookupThroughputRecord {
    /// Paper-style system name (`DM-Z`, `ABC-Z`, ...).
    pub system: String,
    /// Concurrent OS threads issuing batches (1 = the classic single-issuer run).
    pub threads: usize,
    /// Keys per batch.
    pub batch_size: usize,
    /// Measurements behind the distribution fields.
    pub samples: usize,
    /// Mean total latency (wall + simulated I/O) per batch in milliseconds.
    pub total_ms: f64,
    /// Median per-batch latency in milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile per-batch latency in milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile per-batch latency in milliseconds, reported only when the
    /// sample count makes it a distinct statistic (see [`P99_MIN_SAMPLES`]).
    pub p99_ms: Option<f64>,
    /// Lookup throughput in keys per second (aggregate across threads).
    pub keys_per_second: f64,
}

impl LookupThroughputRecord {
    /// Builds a record from one measured batch (no distribution: the percentiles
    /// all equal the single measurement).
    pub fn from_measurement(system: &str, batch_size: usize, latency: MeasuredLatency) -> Self {
        Self::from_samples(system, 1, batch_size, &[latency])
    }

    /// Builds a record from repeated measurements of one batch: `total_ms` is the
    /// mean, the percentile fields are nearest-rank over the samples, and
    /// throughput is derived from the mean.
    pub fn from_samples(
        system: &str,
        threads: usize,
        batch_size: usize,
        samples: &[MeasuredLatency],
    ) -> Self {
        assert!(!samples.is_empty(), "need at least one measurement");
        let (mean_ms, p50, p95, p99) = latency_distribution(samples);
        let mean_seconds = mean_ms / 1e3;
        LookupThroughputRecord {
            system: system.to_string(),
            threads,
            batch_size,
            samples: samples.len(),
            total_ms: mean_ms,
            p50_ms: p50,
            p95_ms: p95,
            p99_ms: p99,
            keys_per_second: if mean_seconds > 0.0 {
                (threads * batch_size) as f64 / mean_seconds
            } else {
                f64::INFINITY
            },
        }
    }

    /// Builds a record for a multi-threaded run, keeping the two meanings
    /// apart: the latency fields (`total_ms`, percentiles) summarize
    /// **per-operation** batch latency as each issuing thread measured its own
    /// batches, while `keys_per_second` is the **aggregate** throughput derived
    /// from the wall-clock of whole rounds (`threads` batches issued
    /// concurrently per round).  Per-thread wall time must never be summed into
    /// a per-op figure — that conflates latency with occupancy.
    pub fn from_concurrent(
        system: &str,
        threads: usize,
        batch_size: usize,
        per_op: &[MeasuredLatency],
        rounds: &[MeasuredLatency],
    ) -> Self {
        assert!(!per_op.is_empty() && !rounds.is_empty(), "need measurements");
        let (mean_ms, p50, p95, p99) = latency_distribution(per_op);
        let total_keys = (threads * batch_size * rounds.len()) as f64;
        let round_seconds: f64 = rounds.iter().map(|r| r.total().as_secs_f64()).sum();
        LookupThroughputRecord {
            system: system.to_string(),
            threads,
            batch_size,
            samples: per_op.len(),
            total_ms: mean_ms,
            p50_ms: p50,
            p95_ms: p95,
            p99_ms: p99,
            keys_per_second: if round_seconds > 0.0 {
                total_keys / round_seconds
            } else {
                f64::INFINITY
            },
        }
    }
}

/// Mean plus nearest-rank p50/p95 (in ms) over a set of raw millisecond samples,
/// with p99 reported only when the sample count supports a distinct nearest-rank
/// p99 (see [`P99_MIN_SAMPLES`]).  Shared by the per-batch latency records and
/// the open-loop server section, so every percentile in `BENCH_lookup.json`
/// follows the same honesty rule.
pub fn distribution_ms(samples_ms: &[f64]) -> (f64, f64, f64, Option<f64>) {
    assert!(!samples_ms.is_empty(), "need at least one sample");
    let mut sorted_ms = samples_ms.to_vec();
    sorted_ms.sort_by(|a, b| a.total_cmp(b));
    let percentile = |p: f64| {
        let rank = ((p / 100.0) * (sorted_ms.len() - 1) as f64).round() as usize;
        sorted_ms[rank.min(sorted_ms.len() - 1)]
    };
    let mean_ms = sorted_ms.iter().sum::<f64>() / sorted_ms.len() as f64;
    let p99 = (sorted_ms.len() >= P99_MIN_SAMPLES).then(|| percentile(99.0));
    (mean_ms, percentile(50.0), percentile(95.0), p99)
}

/// [`distribution_ms`] over measured latencies.
fn latency_distribution(samples: &[MeasuredLatency]) -> (f64, f64, f64, Option<f64>) {
    let ms: Vec<f64> = samples.iter().map(MeasuredLatency::total_ms).collect();
    distribution_ms(&ms)
}

/// One inference micro-benchmark cell: ns/row through one dense layer shape,
/// packed-panel kernel vs. the pre-kernel reference path, so the kernel's
/// contribution to lookup latency is visible separately from end-to-end
/// numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceKernelRecord {
    /// Layer shape as `k x n` (input × output width).
    pub shape: String,
    /// Activation name (`relu`, `linear`, ...).
    pub activation: String,
    /// Rows pushed through the layer per measured pass.
    pub rows: usize,
    /// Active kernel name (`avx2+fma` or `scalar`).
    pub kernel: String,
    /// Nanoseconds per row through the packed-panel kernel.
    pub packed_ns_per_row: f64,
    /// Nanoseconds per row through the reference path
    /// (`matmul` + bias broadcast + activation, the pre-kernel hot path).
    pub reference_ns_per_row: f64,
}

impl InferenceKernelRecord {
    /// Reference-over-packed speedup factor.
    pub fn speedup(&self) -> f64 {
        if self.packed_ns_per_row > 0.0 {
            self.reference_ns_per_row / self.packed_ns_per_row
        } else {
            f64::INFINITY
        }
    }
}

/// One cold-start measurement: snapshot a store, drop it, reopen it from the
/// file and run one single-partition batch — the lazy-loading story measured,
/// not asserted.
#[derive(Debug, Clone, PartialEq)]
pub struct ColdStartRecord {
    /// Paper-style system name (`DM-Z`, ...).
    pub system: String,
    /// Rows in the snapshotted store.
    pub rows: usize,
    /// Auxiliary partitions left on disk for lazy serving.
    pub partitions: usize,
    /// Total snapshot size in bytes.
    pub file_bytes: u64,
    /// Bytes `open` read eagerly (header + manifest + model + existence).
    pub eager_bytes: u64,
    /// Wall time of `Snapshot::open` in milliseconds.
    pub open_ms: f64,
    /// Wall time of the first batch (confined to one partition) in milliseconds.
    pub first_batch_ms: f64,
    /// Keys in that first batch.
    pub first_batch_keys: usize,
    /// Total snapshot bytes read by open + first batch (eager + the one
    /// partition frame the batch pulled in).
    pub bytes_read_before_first_batch: u64,
}

impl ColdStartRecord {
    /// Fraction of the snapshot read before the first batch completed.
    pub fn read_fraction(&self) -> f64 {
        if self.file_bytes == 0 {
            return 0.0;
        }
        self.bytes_read_before_first_batch as f64 / self.file_bytes as f64
    }
}

/// One cell of the open-loop server saturation sweep: requests issued at a fixed
/// offered load (open-loop — arrivals are scheduled by rate, *not* gated on
/// completions), served either through the coalescing `dm-server` front-end or
/// as uncoalesced per-request pipeline calls.  Per-request latency is measured
/// from the request's **scheduled** arrival time, so a saturated server shows
/// its queueing honestly instead of the coordinated-omission flattery a
/// closed-loop harness produces.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerLoadRecord {
    /// `"coalesced"` (through `QueryServer`) or `"direct"` (per-request
    /// `lookup_batch_into` on the caller thread).
    pub mode: String,
    /// Coalescing window in microseconds (0 for direct mode).
    pub window_us: f64,
    /// Batch-size trigger of the coalescer (0 for direct mode).
    pub max_batch_keys: usize,
    /// Offered load in keys per second, summed across client threads.
    pub offered_kps: f64,
    /// Achieved (completed) load in keys per second.
    pub achieved_kps: f64,
    /// Issuing client threads.
    pub clients: usize,
    /// Keys per request (the paper's point-lookup traffic is 1–10).
    pub keys_per_request: usize,
    /// Completed requests behind the latency distribution.
    pub samples: usize,
    /// Mean per-request latency (scheduled arrival → completion) in ms.
    pub mean_ms: f64,
    /// Median per-request latency in ms.
    pub p50_ms: f64,
    /// 95th-percentile per-request latency in ms.
    pub p95_ms: f64,
    /// 99th-percentile per-request latency in ms (omitted below
    /// [`P99_MIN_SAMPLES`] samples).
    pub p99_ms: Option<f64>,
    /// Requests rejected by admission control during the run.
    pub shed: u64,
    /// Batches the coalescer formed (0 for direct mode).
    pub batches: u64,
    /// Mean requests merged per batch (1.0 for direct mode).
    pub mean_coalesce_width: f64,
}

/// Per-stage latency distribution for one pipeline stage, read from the
/// process-wide `dm_obs` stage histograms after a measured section.  Values in
/// milliseconds; percentiles carry the histogram's ≤ 12.5% bucket error.
#[derive(Debug, Clone, PartialEq)]
pub struct StageLatencyRecord {
    /// Stage slug (`existence`, `inference`, `probe`, ...).
    pub stage: String,
    /// Spans recorded for the stage over the measured section.
    pub count: u64,
    /// Median span duration in milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile span duration in milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile span duration in milliseconds.
    pub p99_ms: f64,
    /// Largest span duration in milliseconds (exact, not bucketed).
    pub max_ms: f64,
}

impl StageLatencyRecord {
    /// Builds a record from a stage's histogram snapshot; `None` when the
    /// stage recorded nothing over the section.
    pub fn from_snapshot(stage: dm_obs::Stage, snap: &dm_obs::HistogramSnapshot) -> Option<Self> {
        (snap.count() > 0).then(|| StageLatencyRecord {
            stage: stage.slug().to_string(),
            count: snap.count(),
            p50_ms: snap.p50() as f64 / 1e6,
            p95_ms: snap.p95() as f64 / 1e6,
            p99_ms: snap.p99() as f64 / 1e6,
            max_ms: snap.max() as f64 / 1e6,
        })
    }
}

/// The measured cost of observability itself: the same batch driven with
/// recording on and with the `DM_OBS` kill switch off.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsOverheadRecord {
    /// Measured repetitions per mode.
    pub samples: usize,
    /// Throughput with stage tracing recording, keys per second.
    pub obs_on_kps: f64,
    /// Throughput with recording compiled to no-ops, keys per second.
    pub obs_off_kps: f64,
}

impl ObsOverheadRecord {
    /// Relative throughput cost of observability in percent (positive =
    /// recording is slower).
    pub fn delta_pct(&self) -> f64 {
        if self.obs_off_kps > 0.0 {
            (self.obs_off_kps - self.obs_on_kps) / self.obs_off_kps * 100.0
        } else {
            0.0
        }
    }
}

/// The `observability` section of `BENCH_lookup.json`: per-stage latency
/// percentiles for the standard DM-Z row plus the obs-on vs obs-off overhead.
#[derive(Debug, Clone, PartialEq)]
pub struct ObservabilityReport {
    /// System the stages were sampled from (`DM-Z`).
    pub system: String,
    /// Keys per measured batch.
    pub batch_size: usize,
    /// Per-stage distributions, pipeline order, silent stages omitted.
    pub stages: Vec<StageLatencyRecord>,
    /// Measured recording overhead.
    pub overhead: ObsOverheadRecord,
}

/// One measured drift episode for the `health` section of `BENCH_lookup.json`:
/// off-pattern updates drive the drift signals up, the advisor recommends a
/// retrain with a predicted aux shrink, `maintenance()` acts on it, and the
/// actual shrink lands next to the prediction — the advise→act loop measured,
/// not asserted.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthEpisodeRecord {
    /// System under test (`DM-Z`).
    pub system: String,
    /// Rows in the store before the storm.
    pub rows: usize,
    /// Off-pattern updates applied during the storm.
    pub update_rows: usize,
    /// Delta-overlay share of the aux table at advice time.
    pub overlay_ratio: f64,
    /// Write-time misprediction EMA at advice time.
    pub mispredict_ema: f64,
    /// Primary advice slug at the peak of the storm (`retrain` expected).
    pub advice: String,
    /// The advisor's `expected_aux_shrink_bytes` prediction.
    pub predicted_shrink_bytes: u64,
    /// Aux-table bytes immediately before maintenance.
    pub aux_bytes_before: u64,
    /// Aux-table bytes immediately after maintenance.
    pub aux_bytes_after: u64,
    /// Wall time of the `maintenance()` call in milliseconds.
    pub maintenance_ms: f64,
    /// Whether the post-maintenance report is back to `Healthy`.
    pub healthy_after: bool,
}

impl HealthEpisodeRecord {
    /// Aux bytes actually reclaimed by maintenance.
    pub fn measured_shrink_bytes(&self) -> u64 {
        self.aux_bytes_before.saturating_sub(self.aux_bytes_after)
    }
}

/// The `health` section of `BENCH_lookup.json`: what the workload-health layer
/// itself costs on the hot path, plus one end-to-end drift episode.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthSection {
    /// Obs-on vs obs-off lookup throughput with the health layer active (heat
    /// touches, windowed recording, drift accounting) — the ≤ 1% budget the
    /// telemetry ships under.
    pub overhead: ObsOverheadRecord,
    /// The measured drift → advise → retrain → shrink episode.
    pub episode: HealthEpisodeRecord,
}

/// Serializes throughput records as a `BENCH_lookup.json` document so successive PRs
/// can diff per-backend batch-lookup throughput mechanically.  (Hand-rolled JSON —
/// the offline build environment has no serde.)
pub fn lookup_records_to_json(
    scale: &BenchScale,
    records: &[LookupThroughputRecord],
    cold_start: &[ColdStartRecord],
    inference: &[InferenceKernelRecord],
    server: &[ServerLoadRecord],
    observability: Option<&ObservabilityReport>,
    health: Option<&HealthSection>,
) -> String {
    fn escape(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"")
    }
    fn finite(v: f64) -> f64 {
        if v.is_finite() { v } else { f64::MAX }
    }
    // p99 is omitted, never invented, when the sample count can't support it.
    fn p99_field(p99: Option<f64>) -> String {
        match p99 {
            Some(v) => format!("\"p99_ms\": {:.6}, ", if v.is_finite() { v } else { f64::MAX }),
            None => String::new(),
        }
    }
    let mut out = String::from("{\n");
    out.push_str("  \"benchmark\": \"lookup_batch\",\n");
    out.push_str(&format!("  \"scale_factor\": {},\n", scale.factor));
    out.push_str("  \"results\": [\n");
    for (i, record) in records.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"system\": \"{}\", \"threads\": {}, \"batch_size\": {}, \"samples\": {}, \"total_ms\": {:.6}, \"p50_ms\": {:.6}, \"p95_ms\": {:.6}, {}\"keys_per_second\": {:.3}}}{}\n",
            escape(&record.system),
            record.threads,
            record.batch_size,
            record.samples,
            finite(record.total_ms),
            finite(record.p50_ms),
            finite(record.p95_ms),
            p99_field(record.p99_ms),
            finite(record.keys_per_second),
            if i + 1 == records.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"server\": [\n");
    for (i, record) in server.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"mode\": \"{}\", \"window_us\": {:.1}, \"max_batch_keys\": {}, \"offered_kps\": {:.0}, \"achieved_kps\": {:.0}, \"clients\": {}, \"keys_per_request\": {}, \"samples\": {}, \"mean_ms\": {:.6}, \"p50_ms\": {:.6}, \"p95_ms\": {:.6}, {}\"shed\": {}, \"batches\": {}, \"mean_coalesce_width\": {:.2}}}{}\n",
            escape(&record.mode),
            finite(record.window_us),
            record.max_batch_keys,
            finite(record.offered_kps),
            finite(record.achieved_kps),
            record.clients,
            record.keys_per_request,
            record.samples,
            finite(record.mean_ms),
            finite(record.p50_ms),
            finite(record.p95_ms),
            p99_field(record.p99_ms),
            record.shed,
            record.batches,
            finite(record.mean_coalesce_width),
            if i + 1 == server.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"inference\": [\n");
    for (i, record) in inference.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"shape\": \"{}\", \"activation\": \"{}\", \"rows\": {}, \"kernel\": \"{}\", \"packed_ns_per_row\": {:.2}, \"reference_ns_per_row\": {:.2}, \"speedup\": {:.2}}}{}\n",
            escape(&record.shape),
            escape(&record.activation),
            record.rows,
            escape(&record.kernel),
            finite(record.packed_ns_per_row),
            finite(record.reference_ns_per_row),
            finite(record.speedup()),
            if i + 1 == inference.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    match observability {
        Some(obs) => {
            out.push_str("  \"observability\": {\n");
            out.push_str(&format!(
                "    \"system\": \"{}\", \"batch_size\": {},\n",
                escape(&obs.system),
                obs.batch_size
            ));
            out.push_str("    \"stages\": [\n");
            for (i, stage) in obs.stages.iter().enumerate() {
                out.push_str(&format!(
                    "      {{\"stage\": \"{}\", \"count\": {}, \"p50_ms\": {:.6}, \"p95_ms\": {:.6}, \"p99_ms\": {:.6}, \"max_ms\": {:.6}}}{}\n",
                    escape(&stage.stage),
                    stage.count,
                    finite(stage.p50_ms),
                    finite(stage.p95_ms),
                    finite(stage.p99_ms),
                    finite(stage.max_ms),
                    if i + 1 == obs.stages.len() { "" } else { "," }
                ));
            }
            out.push_str("    ],\n");
            out.push_str(&format!(
                "    \"overhead\": {{\"samples\": {}, \"obs_on_kps\": {:.3}, \"obs_off_kps\": {:.3}, \"delta_pct\": {:.3}}}\n",
                obs.overhead.samples,
                finite(obs.overhead.obs_on_kps),
                finite(obs.overhead.obs_off_kps),
                finite(obs.overhead.delta_pct()),
            ));
            out.push_str("  },\n");
        }
        None => out.push_str("  \"observability\": null,\n"),
    }
    match health {
        Some(section) => {
            out.push_str("  \"health\": {\n");
            out.push_str(&format!(
                "    \"overhead\": {{\"samples\": {}, \"obs_on_kps\": {:.3}, \"obs_off_kps\": {:.3}, \"delta_pct\": {:.3}}},\n",
                section.overhead.samples,
                finite(section.overhead.obs_on_kps),
                finite(section.overhead.obs_off_kps),
                finite(section.overhead.delta_pct()),
            ));
            let e = &section.episode;
            out.push_str(&format!(
                "    \"episode\": {{\"system\": \"{}\", \"rows\": {}, \"update_rows\": {}, \"overlay_ratio\": {:.4}, \"mispredict_ema\": {:.4}, \"advice\": \"{}\", \"predicted_shrink_bytes\": {}, \"aux_bytes_before\": {}, \"aux_bytes_after\": {}, \"measured_shrink_bytes\": {}, \"maintenance_ms\": {:.3}, \"healthy_after\": {}}}\n",
                escape(&e.system),
                e.rows,
                e.update_rows,
                finite(e.overlay_ratio),
                finite(e.mispredict_ema),
                escape(&e.advice),
                e.predicted_shrink_bytes,
                e.aux_bytes_before,
                e.aux_bytes_after,
                e.measured_shrink_bytes(),
                finite(e.maintenance_ms),
                e.healthy_after,
            ));
            out.push_str("  },\n");
        }
        None => out.push_str("  \"health\": null,\n"),
    }
    out.push_str("  \"cold_start\": [\n");
    for (i, record) in cold_start.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"system\": \"{}\", \"rows\": {}, \"partitions\": {}, \"file_bytes\": {}, \"eager_bytes\": {}, \"open_ms\": {:.6}, \"first_batch_ms\": {:.6}, \"first_batch_keys\": {}, \"bytes_read_before_first_batch\": {}, \"read_fraction\": {:.4}}}{}\n",
            escape(&record.system),
            record.rows,
            record.partitions,
            record.file_bytes,
            record.eager_bytes,
            finite(record.open_ms),
            finite(record.first_batch_ms),
            record.first_batch_keys,
            record.bytes_read_before_first_batch,
            finite(record.read_fraction()),
            if i + 1 == cold_start.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes `BENCH_lookup.json` at the workspace root (where `Cargo.lock` lives —
/// cargo runs bench binaries from the package directory) and returns the path
/// written.  Falls back to the current directory outside a cargo invocation.
pub fn write_lookup_json(
    scale: &BenchScale,
    records: &[LookupThroughputRecord],
    cold_start: &[ColdStartRecord],
    inference: &[InferenceKernelRecord],
    server: &[ServerLoadRecord],
    observability: Option<&ObservabilityReport>,
    health: Option<&HealthSection>,
) -> std::io::Result<std::path::PathBuf> {
    let mut dir = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("."));
    let mut found = false;
    for _ in 0..4 {
        if dir.join("Cargo.lock").exists() {
            found = true;
            break;
        }
        if !dir.pop() {
            break;
        }
    }
    if !found {
        dir = std::path::PathBuf::from(".");
    }
    let path = dir.join("BENCH_lookup.json");
    std::fs::write(
        &path,
        lookup_records_to_json(
            scale,
            records,
            cold_start,
            inference,
            server,
            observability,
            health,
        ),
    )?;
    Ok(path)
}

/// Runs the cold-start protocol for one store: snapshot to `path`, drop the
/// store, time `Snapshot::open`, then time one batch confined to the first
/// auxiliary partition, and account for exactly how many snapshot bytes were
/// touched along the way.
pub fn measure_cold_start(
    dm: dm_core::DeepMapping,
    path: &std::path::Path,
) -> Result<ColdStartRecord, dm_persist::PersistError> {
    use dm_persist::Snapshot;
    let system = dm.config().paper_name();
    let rows = dm.len();
    Snapshot::write(&dm, path)?;
    drop(dm);

    let open_start = Instant::now();
    let (reopened, stats) = Snapshot::open_with_stats(path)?;
    let open_ms = open_start.elapsed().as_secs_f64() * 1e3;

    // One batch confined to the first partition's key range: the shape a
    // point-lookup service sees right after a cold start.
    let directory = reopened.aux_table().partition_directory();
    let first_keys: Vec<u64> = directory
        .first()
        .map(|p| (p.min_key..=p.max_key).take(256).collect())
        .unwrap_or_else(|| vec![0]);
    let batch_start = Instant::now();
    reopened
        .lookup_batch(&first_keys)
        .map_err(|err| dm_persist::PersistError::Core(err.to_string()))?;
    let first_batch_ms = batch_start.elapsed().as_secs_f64() * 1e3;
    let lazy_read = reopened.metrics().snapshot().bytes_read;
    Ok(ColdStartRecord {
        system,
        rows,
        partitions: stats.partition_count,
        file_bytes: stats.file_bytes,
        eager_bytes: stats.eager_bytes,
        open_ms,
        first_batch_ms,
        first_batch_keys: first_keys.len(),
        bytes_read_before_first_batch: stats.eager_bytes + lazy_read,
    })
}

/// Storage size of a system in megabytes (compressed/on-disk footprint).
pub fn storage_mb(system: &SystemUnderTest) -> f64 {
    system.store.stats().disk_bytes as f64 / (1024.0 * 1024.0)
}

/// Table/figure printing helpers shared by the bench targets.
pub mod report {
    /// Prints a header banner naming the experiment being reproduced.
    pub fn banner(experiment: &str, description: &str) {
        println!();
        println!("================================================================================");
        println!("{experiment}: {description}");
        println!("================================================================================");
    }

    /// Prints one table row of `(label, cells)` with fixed-width columns.
    pub fn row(label: &str, cells: &[String]) {
        let mut line = format!("{label:<28}");
        for cell in cells {
            line.push_str(&format!("{cell:>14}"));
        }
        println!("{line}");
    }

    /// Formats a latency in milliseconds, marking absurd values as "failed".
    pub fn latency_cell(ms: f64) -> String {
        if ms > 1e12 {
            "failed".to_string()
        } else if ms >= 100.0 {
            format!("{ms:.0}")
        } else {
            format!("{ms:.2}")
        }
    }

    /// Formats a size in MB.
    pub fn size_cell(mb: f64) -> String {
        if mb >= 100.0 {
            format!("{mb:.0}")
        } else if mb >= 1.0 {
            format!("{mb:.1}")
        } else {
            format!("{mb:.3}")
        }
    }

    /// Formats a ratio/percentage cell.
    pub fn ratio_cell(ratio: f64) -> String {
        format!("{:.3}", ratio)
    }

    /// One-line wall-vs-phase-sum report, keeping the two time meanings apart:
    /// `wall_nanos` is measured on the caller thread around the whole batch,
    /// while the phase sum adds CPU time across all pool tasks and can exceed
    /// wall under parallelism.
    pub fn wall_vs_phases_line(snapshot: &dm_storage::LatencyBreakdown) -> String {
        format!(
            "time: {:.2} ms wall / {:.2} ms phase-sum (CPU across tasks; > wall means parallel overlap)",
            snapshot.wall_nanos as f64 / 1e6,
            snapshot.total().as_secs_f64() * 1e3,
        )
    }

    /// One-line buffer-pool / runtime observability summary for a measured system,
    /// from its metrics snapshot.
    pub fn pool_counters_line(snapshot: &dm_storage::LatencyBreakdown) -> String {
        format!(
            "pool: {} hits / {} misses / {} evictions / {} single-flight waits; exec: {} tasks / {} steals",
            snapshot.pool_hits,
            snapshot.pool_misses,
            snapshot.pool_evictions,
            snapshot.pool_single_flight_waits,
            snapshot.exec_tasks,
            snapshot.exec_steals,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_data::SyntheticConfig;

    #[test]
    fn scale_reads_env_and_clamps() {
        let scale = BenchScale { factor: 0.002 };
        assert_eq!(scale.rows(1_500_000), 3_000);
        assert!(scale.rows(10) >= 1024);
        assert!(scale.batch(100_000) >= 100);
        assert!(scale.batch(100_000) <= 100_000);
    }

    #[test]
    fn machine_profiles_cover_the_three_paper_machines() {
        let small = MachineProfile::small(1_000_000, 0.3);
        assert_eq!(small.memory_budget_bytes, 300_000);
        assert_eq!(MachineProfile::medium().name, "medium");
        assert_eq!(MachineProfile::large().memory_budget_bytes, usize::MAX);
    }

    #[test]
    fn system_matrix_builds_and_answers_queries() {
        let dataset = SyntheticConfig::multi_high(2_000).generate();
        let machine = MachineProfile::large();
        let mut systems = build_baselines(&dataset, &machine);
        systems.extend(build_deepmapping_pair(&dataset, &machine));
        if let Some(ds) = build_deepsqueeze(&dataset, &machine) {
            systems.push(ds);
        }
        assert!(systems.len() >= 10);
        let keys: Vec<u64> = (0..500u64).collect();
        for system in &mut systems {
            let latency = measure_lookup(system, &keys);
            assert!(latency.total_ms() >= 0.0);
            assert!(storage_mb(system) > 0.0, "system {}", system.name);
        }
        // The exact stores must agree with each other (DS is lossy and excluded).
        let reference = systems[0].store.lookup_batch(&keys).unwrap();
        for system in systems.iter().filter(|s| s.name != "DS") {
            assert_eq!(system.store.lookup_batch(&keys).unwrap(), reference, "{}", system.name);
        }
    }

    #[test]
    fn lookup_json_is_machine_readable() {
        let scale = BenchScale { factor: 0.005 };
        let records = vec![
            LookupThroughputRecord::from_measurement(
                "DM-Z",
                1_000,
                MeasuredLatency {
                    wall: Duration::from_millis(2),
                    simulated_io: Duration::from_millis(1),
                },
            ),
            LookupThroughputRecord::from_measurement("ABC-\"Z\"", 100, MeasuredLatency::default()),
        ];
        let cold = vec![ColdStartRecord {
            system: "DM-Z".into(),
            rows: 30_000,
            partitions: 12,
            file_bytes: 400_000,
            eager_bytes: 50_000,
            open_ms: 1.25,
            first_batch_ms: 0.4,
            first_batch_keys: 256,
            bytes_read_before_first_batch: 64_000,
        }];
        let inference = vec![InferenceKernelRecord {
            shape: "35x100".into(),
            activation: "relu".into(),
            rows: 4096,
            kernel: "avx2+fma".into(),
            packed_ns_per_row: 120.0,
            reference_ns_per_row: 600.0,
        }];
        let server = vec![ServerLoadRecord {
            mode: "coalesced".into(),
            window_us: 100.0,
            max_batch_keys: 256,
            offered_kps: 100_000.0,
            achieved_kps: 98_000.0,
            clients: 4,
            keys_per_request: 1,
            samples: 49_000,
            mean_ms: 0.4,
            p50_ms: 0.35,
            p95_ms: 0.9,
            p99_ms: Some(1.4),
            shed: 0,
            batches: 400,
            mean_coalesce_width: 122.5,
        }];
        let obs = ObservabilityReport {
            system: "DM-Z".into(),
            batch_size: 25_000,
            stages: vec![StageLatencyRecord {
                stage: "inference".into(),
                count: 33,
                p50_ms: 0.8,
                p95_ms: 1.1,
                p99_ms: 1.3,
                max_ms: 1.31,
            }],
            overhead: ObsOverheadRecord {
                samples: 33,
                obs_on_kps: 99_000.0,
                obs_off_kps: 100_000.0,
            },
        };
        let health = HealthSection {
            overhead: ObsOverheadRecord {
                samples: 33,
                obs_on_kps: 99_500.0,
                obs_off_kps: 100_000.0,
            },
            episode: HealthEpisodeRecord {
                system: "DM-Z".into(),
                rows: 10_000,
                update_rows: 4_000,
                overlay_ratio: 0.68,
                mispredict_ema: 0.62,
                advice: "retrain".into(),
                predicted_shrink_bytes: 23_000,
                aux_bytes_before: 122_000,
                aux_bytes_after: 30_000,
                maintenance_ms: 85.0,
                healthy_after: true,
            },
        };
        let json = lookup_records_to_json(
            &scale,
            &records,
            &cold,
            &inference,
            &server,
            Some(&obs),
            Some(&health),
        );
        assert!(json.contains("\"benchmark\": \"lookup_batch\""));
        assert!(json.contains("\"observability\": {"));
        assert!(json.contains("\"stage\": \"inference\""));
        assert!(json.contains("\"obs_on_kps\": 99000.000"));
        assert!(json.contains("\"delta_pct\": 1.000"));
        assert!((obs.overhead.delta_pct() - 1.0).abs() < 1e-9);
        assert!(json.contains("\"health\": {"));
        assert!(json.contains("\"advice\": \"retrain\""));
        assert!(json.contains("\"measured_shrink_bytes\": 92000"));
        assert_eq!(health.episode.measured_shrink_bytes(), 92_000);
        assert!(json.contains("\"healthy_after\": true"));
        assert!(json.contains("\"delta_pct\": 0.500"));
        let without =
            lookup_records_to_json(&scale, &records, &cold, &inference, &server, None, None);
        assert!(without.contains("\"observability\": null"));
        assert!(without.contains("\"health\": null"));
        assert!(json.contains("\"cold_start\""));
        assert!(json.contains("\"inference\""));
        assert!(json.contains("\"shape\": \"35x100\""));
        assert!(json.contains("\"speedup\": 5.00"));
        assert!((inference[0].speedup() - 5.0).abs() < 1e-9);
        assert!(json.contains("\"eager_bytes\": 50000"));
        assert!(json.contains("\"read_fraction\": 0.1600"));
        assert!((cold[0].read_fraction() - 0.16).abs() < 1e-9);
        assert!(json.contains("\"system\": \"DM-Z\""));
        assert!(json.contains("\"threads\": 1"));
        assert!(json.contains("\"batch_size\": 1000"));
        assert!(json.contains("\"p50_ms\""));
        assert!(json.contains("\"p95_ms\""));
        assert!(json.contains("\"mode\": \"coalesced\""));
        assert!(json.contains("\"mean_coalesce_width\": 122.50"));
        assert!(json.contains("\"p99_ms\": 1.400000"));
        assert!(json.contains("\\\"Z\\\""), "quotes must be escaped: {json}");
        // Throughput of the 3 ms / 1000-key batch is ~333k keys/s.
        assert!((records[0].keys_per_second - 333_333.3).abs() < 1_000.0);
        // A single measurement degenerates to flat p50/p95 — and p99 is
        // *omitted*, not invented, below the supported sample count.
        assert_eq!(records[0].p50_ms, records[0].total_ms);
        assert_eq!(records[0].p99_ms, None);
        let result_rows: String = json
            .lines()
            .skip_while(|l| !l.contains("\"results\""))
            .take_while(|l| !l.contains("\"server\""))
            .collect();
        assert!(
            !result_rows.contains("p99_ms"),
            "under-sampled rows must omit p99: {result_rows}"
        );
        // A zero-latency measurement must not emit non-JSON tokens like `inf`
        // (as a value; the "inference" section name contains the substring).
        assert!(!json.contains(": inf"));
    }

    #[test]
    fn record_percentiles_summarize_a_sample_distribution() {
        let ms = |v: u64| MeasuredLatency {
            wall: Duration::from_millis(v),
            simulated_io: Duration::ZERO,
        };
        // 1..=20 ms, shuffled: p50 ≈ 11 ms, p95 ≈ 19 ms — and 20 samples is
        // below P99_MIN_SAMPLES, so p99 is withheld rather than aliased to p95.
        let samples: Vec<MeasuredLatency> =
            (1..=20u64).map(|v| ms(((v * 7) % 20) + 1)).collect();
        let record = LookupThroughputRecord::from_samples("DM-Z", 2, 1_000, &samples);
        assert_eq!(record.threads, 2);
        assert_eq!(record.samples, 20);
        assert!((record.total_ms - 10.5).abs() < 1e-6, "mean {}", record.total_ms);
        assert_eq!(record.p50_ms, 11.0);
        assert_eq!(record.p95_ms, 19.0);
        assert_eq!(record.p99_ms, None);
        // Aggregate throughput counts every thread's keys.
        assert!((record.keys_per_second - 2.0 * 1_000.0 / 0.0105).abs() < 1.0);
        // At P99_MIN_SAMPLES and beyond the nearest-rank p99 is a distinct
        // statistic again (1..=31 ms: p95 = 30, p99 = 31).
        let samples: Vec<MeasuredLatency> = (1..=31u64).map(ms).collect();
        let record = LookupThroughputRecord::from_samples("DM-Z", 1, 1_000, &samples);
        assert_eq!(record.p95_ms, 30.0);
        assert_eq!(record.p99_ms, Some(31.0));
        assert!(record.p50_ms <= record.p95_ms && record.p95_ms <= 31.0);
    }

    #[test]
    fn stage_record_reads_histogram_snapshots_and_skips_silent_stages() {
        let hist = dm_obs::Histogram::new();
        let empty = StageLatencyRecord::from_snapshot(dm_obs::Stage::Probe, &hist.snapshot());
        assert_eq!(empty, None, "silent stages are omitted, not zero-filled");
        hist.record_nanos(2_000_000);
        let record =
            StageLatencyRecord::from_snapshot(dm_obs::Stage::Probe, &hist.snapshot()).unwrap();
        assert_eq!(record.stage, "probe");
        assert_eq!(record.count, 1);
        assert_eq!(record.max_ms, 2.0, "max is exact");
        assert!(record.p50_ms >= 2.0 && record.p50_ms <= 2.0 * 1.125);
    }

    #[test]
    fn wall_vs_phases_line_keeps_both_time_meanings() {
        let metrics = Metrics::new();
        metrics.add_time(dm_storage::Phase::NeuralNetwork, Duration::from_millis(8));
        metrics.add_wall(Duration::from_millis(5));
        let line = report::wall_vs_phases_line(&metrics.snapshot());
        assert!(line.contains("5.00 ms wall"), "{line}");
        assert!(line.contains("8.00 ms phase-sum"), "{line}");
    }

    #[test]
    fn pool_counters_line_reads_the_snapshot() {
        let metrics = Metrics::new();
        metrics.add_pool_hit();
        metrics.add_pool_miss();
        metrics.add_pool_single_flight_wait();
        metrics.add_exec(5, 2, 100);
        let line = report::pool_counters_line(&metrics.snapshot());
        assert!(line.contains("1 hits"));
        assert!(line.contains("1 misses"));
        assert!(line.contains("1 single-flight waits"));
        assert!(line.contains("5 tasks"));
        assert!(line.contains("2 steals"));
    }

    /// The multi-threaded record must keep per-op latency and aggregate
    /// throughput separate: adding issuing threads must not inflate the
    /// latency fields even though every thread's wall-clock overlaps.
    #[test]
    fn concurrent_records_separate_per_op_latency_from_aggregate_throughput() {
        let ms = |v: u64| MeasuredLatency {
            wall: Duration::from_millis(v),
            simulated_io: Duration::ZERO,
        };
        // 4 threads × 2 rounds, each batch measured at 10 ms by its thread;
        // each round's wall is also ~10 ms because the batches overlap.
        let per_op = vec![ms(10); 8];
        let rounds = vec![ms(10); 2];
        let record = LookupThroughputRecord::from_concurrent("DM-Z", 4, 1_000, &per_op, &rounds);
        assert_eq!(record.threads, 4);
        assert!((record.total_ms - 10.0).abs() < 1e-9, "per-op mean stays 10 ms");
        assert_eq!(record.p95_ms, 10.0);
        assert_eq!(record.p99_ms, None, "8 samples cannot support a p99");
        // 4 threads * 1000 keys * 2 rounds / 20 ms = 400k keys/s aggregate.
        assert!((record.keys_per_second - 400_000.0).abs() < 1.0);
        // The same measurements fed through the single-issuer constructor would
        // have conflated occupancy with latency; from_concurrent must not.
        let conflated = LookupThroughputRecord::from_samples("DM-Z", 4, 1_000, &per_op);
        assert!(conflated.keys_per_second > record.keys_per_second / 2.0);
        assert_eq!(record.total_ms, conflated.total_ms);
    }

    #[test]
    fn report_cells_format_reasonably() {
        assert_eq!(report::latency_cell(5.0), "5.00");
        assert_eq!(report::latency_cell(1234.0), "1234");
        assert_eq!(report::latency_cell(1e13), "failed");
        assert_eq!(report::size_cell(0.5), "0.500");
        assert_eq!(report::size_cell(12.34), "12.3");
        assert_eq!(report::ratio_cell(0.25), "0.250");
    }
}
