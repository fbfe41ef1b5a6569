//! # dm-bench — the benchmark harness behind every table and figure of the paper
//!
//! Each bench target under `benches/` regenerates one table or figure of the
//! DeepMapping evaluation (Section V).  They are custom harnesses (`harness = false`)
//! that print the same rows/series the paper reports.  Throughput, latency and stored
//! bytes are *measured and gated* by the frozen benchmark (`BENCHMARK.json`,
//! `benchmark/`), not here.
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

/// Builds a DeepMapping store (DM-Z or DM-L) over a dataset.
///
/// The benchmarked stores run int8-quantized inference: it is the shipped fast
/// path (lossless by construction — the aux table memorizes under quantized
/// arithmetic), so the tables measure what a production store does.
pub fn build_deepmapping(
    dataset: &Dataset,
    codec: Codec,
    machine: &MachineProfile,
    training: TrainingConfig,
) -> SystemUnderTest {
    let builder = match codec {
        Codec::LzHuff => DeepMappingBuilder::dm_l(),
        _ => DeepMappingBuilder::dm_z().codec(codec),
    }
    .memory_budget(machine.memory_budget_bytes)
    .disk_profile(machine.disk)
    .partition_bytes(32 * 1024)
    .quantization(Quantization::Int8)
    .training(training);
    let dm = builder.build(&dataset.rows()).expect("DeepMapping build");
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
    fn report_cells_format_reasonably() {
        assert_eq!(report::latency_cell(5.0), "5.00");
        assert_eq!(report::latency_cell(1234.0), "1234");
        assert_eq!(report::latency_cell(1e13), "failed");
        assert_eq!(report::size_cell(0.5), "0.500");
        assert_eq!(report::size_cell(12.34), "12.3");
        assert_eq!(report::ratio_cell(0.25), "0.250");
    }
}
