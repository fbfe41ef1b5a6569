//! # dm-bench — the paper's evaluation as one runner and one file of rows
//!
//! [`paper`] generates each dataset once per generator scale, trains one DeepMapping
//! model on it ([`TrainedDeepMapping`]), builds every system of the paper's matrix (AB,
//! ABC-D/G/Z/L, HB, HBC-Z/L, DS, DM-Z, DM-L) once per [`Regime`], measures it once with
//! [`measure_lookup`] and emits flat rows — ratio, keys/s and what stays in memory in the
//! same row, because the paper's claim is the trade-off between them.
//! Figures 4–10 and Tables I–V of Section V are projections of those rows
//! (`cargo bench -p dm-bench --bench paper [-- fig6]`) and `PAPER_RESULTS.json` at the
//! repository root is their committed form.  The frozen benchmark (`BENCHMARK.json`,
//! `benchmark/`) is what *gates* a change; this crate records where DeepMapping stands
//! on the paper's own data, with one definition of every system: one DeepMapping
//! [`store_definition`], one `TrainingConfig`, first call apart from the warm median.

pub mod paper;

use dm_baselines::{DeepSqueezeConfig, DeepSqueezeStore, PartitionedStore, PartitionedStoreConfig};
use dm_compress::Codec;
use dm_core::{AuxTable, DecodeMap, DeepMapping, DeepMappingBuilder, DeepMappingParts};
use dm_core::{Rung, StorageBreakdown, TrainingConfig, TrainingStop};
use dm_data::Dataset;
use dm_obs::TraceSummary;
use dm_storage::{DiskProfile, LatencyBreakdown, LookupBuffer, Metrics, MutableStore, Row};
use std::time::Instant;

/// The generator scale of a run (`--scale`, default `0.005`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchScale {
    /// Multiplier applied to the paper's SF-1 row counts (e.g. `0.005` ≈ 7.5 k orders).
    pub factor: f64,
}

impl BenchScale {
    /// A scale clamped to what the generators can serve.
    pub fn new(factor: f64) -> Self {
        BenchScale { factor: factor.clamp(1e-5, 10.0) }
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

/// A memory regime of Section V — what is left of the paper's three machines: the pool
/// holds everything (Table II) or a share of the uncompressed data (Table I).  Both read
/// through `edge_ssd`: modelled I/O is `partition_loads × latency + bytes_read / bandwidth`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Regime {
    /// The `regime` field of a row.
    pub name: &'static str,
    /// Pool budget as a share of the uncompressed data; `None` fits everything.
    pub pool_share: Option<f64>,
}

impl Regime {
    /// Everything a batch touches stays resident once loaded.
    pub const MEMORY: Regime = Regime { name: "mem", pool_share: None };
    /// The pool is 20 % of the data, so the partitioned baselines keep evicting.
    pub const POOL: Regime = Regime { name: "pool", pool_share: Some(0.2) };

    /// Buffer-pool budget for a dataset of `raw_bytes`.
    pub fn budget(&self, raw_bytes: usize) -> usize {
        self.pool_share.map_or(usize::MAX, |share| (raw_bytes as f64 * share) as usize)
    }
}

/// What the runner needs of a store beyond the shared read/write traits: DeepMapping
/// reports its Fig. 6 split, so a row's split is read from the very store its ratio
/// and latency came from, and the pooled stores say what their pool holds.
pub trait BenchStore: MutableStore {
    /// The Fig. 6 split (`None` for the baselines).
    fn breakdown(&self) -> Option<StorageBreakdown> {
        None
    }

    /// `(bytes, partitions)` in the buffer pool right now (DS has no pool).
    fn pool_usage(&self) -> (usize, usize) {
        (0, 0)
    }
}

impl BenchStore for DeepSqueezeStore {}
impl BenchStore for PartitionedStore {
    fn pool_usage(&self) -> (usize, usize) {
        PartitionedStore::pool_usage(self)
    }
}
impl BenchStore for DeepMapping {
    fn breakdown(&self) -> Option<StorageBreakdown> {
        Some(self.storage_breakdown())
    }

    fn pool_usage(&self) -> (usize, usize) {
        self.aux_table().pool_usage()
    }
}

/// A store under test plus the metrics handle it charges work to.
pub struct SystemUnderTest {
    /// Paper-style system name (`AB`, `ABC-Z`, `DM-L`, ...).
    pub name: String,
    /// The store.
    pub store: Box<dyn BenchStore>,
    /// Metrics handle shared with the store.
    pub metrics: Metrics,
    /// Reusable lookup arena, so repeated measurements stay free of per-key allocations.
    pub buffer: LookupBuffer,
    /// Wall time of the build, in seconds; on a DeepMapping store the shared training
    /// time plus its own auxiliary-table build.
    pub build_s: f64,
}

impl SystemUnderTest {
    fn new(name: String, store: Box<dyn BenchStore>, metrics: Metrics, started: Instant) -> Self {
        let build_s = started.elapsed().as_secs_f64();
        SystemUnderTest { name, store, metrics, buffer: LookupBuffer::new(), build_s }
    }
}

/// Builds the array- and hash-based baseline matrix of Section V-A3 over a dataset.
pub fn build_baselines(dataset: &Dataset, regime: Regime) -> Vec<SystemUnderTest> {
    let rows = dataset.rows();
    let value_columns = dataset.num_value_columns();
    let dictionary = Codec::Dictionary { record_width: Row::fixed_width(value_columns) };
    let array = [Codec::None, dictionary, Codec::Deflate, Codec::Lz, Codec::LzHuff];
    let hash = [Codec::None, Codec::Lz, Codec::LzHuff].map(PartitionedStoreConfig::hash);
    let configs = array.map(PartitionedStoreConfig::array).into_iter().chain(hash);
    configs
        .map(|config| {
            let started = Instant::now();
            let metrics = Metrics::new();
            let config = config
                .with_memory_budget(regime.budget(dataset.uncompressed_bytes()))
                .with_disk_profile(DiskProfile::edge_ssd())
                .with_partition_bytes(64 * 1024);
            let name = config.paper_name();
            let store = PartitionedStore::build(&rows, value_columns, config, metrics.clone())
                .expect("baseline build");
            SystemUnderTest::new(name, Box::new(store), metrics, started)
        })
        .collect()
}

/// The runner's one store definition — 32 KiB partitions, `edge_ssd`, one
/// `TrainingConfig` — behind every DeepMapping row, the searched ones included.
pub fn store_definition(epochs: usize) -> DeepMappingBuilder {
    DeepMappingBuilder::new()
        .disk_profile(DiskProfile::edge_ssd())
        .partition_bytes(32 * 1024)
        .training(TrainingConfig { epochs, batch_size: 512, ..TrainingConfig::default() })
}

/// The one model a dataset × scale trains, and what every store derived from it shares.
/// Neither the codec nor the pool budget reaches training, so DM-Z / DM-L × `mem` /
/// `pool` are one model over four auxiliary tables of the same misclassified rows.
pub struct TrainedDeepMapping {
    /// The store the training build produced; its model, existence vector and
    /// configuration are what the derived stores share.
    trained: DeepMapping,
    misclassified: Vec<Row>,
    /// Wall time of the training build, in seconds — part of every derived `build_s`.
    pub train_s: f64,
}

impl TrainedDeepMapping {
    /// Trains on `dataset` (single-threaded, most of a run's wall time).
    pub fn train(dataset: &Dataset, epochs: usize) -> Self {
        let started = Instant::now();
        let rows = dataset.rows();
        let trained = store_definition(epochs).build(&rows).expect("DeepMapping build");
        let split = trained.model().split_by_memorization(trained.exec(), &rows);
        let (_, misclassified) = split.expect("inference over the training rows");
        TrainedDeepMapping { trained, misclassified, train_s: started.elapsed().as_secs_f64() }
    }

    /// Epochs the training ran: the budget, or fewer when it stopped early —
    /// [`stop`](Self::stop) says why.
    pub fn epochs(&self) -> usize {
        self.trained.model().trained_epochs()
    }

    /// Why the training ended.
    pub fn stop(&self) -> TrainingStop {
        self.trained.model().training_stop().expect("a trained model")
    }

    /// Rows the last epoch got right in every column, by its own forward passes.
    pub fn right_rows(&self) -> usize {
        self.trained.model().trained_right_rows()
    }

    /// The rungs of the width ladder the build priced, narrowest first; the model is
    /// the last that shrank the store.
    pub fn ladder(&self) -> &[Rung] {
        self.trained.model().ladder()
    }

    /// The kept rung's shared hidden widths.
    pub fn shared_hidden(&self) -> &[usize] {
        &self.trained.model().network().spec().shared_hidden
    }

    /// The store of `codec` (DM-Z for `Codec::Lz`, DM-L for `Codec::LzHuff`) under
    /// `regime`: the shared model over an auxiliary table of its own.
    pub fn store(&self, dataset: &Dataset, codec: Codec, regime: Regime) -> SystemUnderTest {
        let started = Instant::now();
        let budget = regime.budget(dataset.uncompressed_bytes());
        let config = self.trained.config().clone().with_codec(codec).with_memory_budget(budget);
        let metrics = Metrics::new();
        let aux = AuxTable::build(
            &self.misclassified,
            dataset.num_value_columns(),
            codec,
            config.partition_bytes,
            budget,
            config.disk_profile,
            metrics.clone(),
        );
        let name = config.paper_name();
        let dm = DeepMapping::from_parts(DeepMappingParts {
            config,
            model: self.trained.model().clone(),
            aux: aux.expect("auxiliary table build"),
            exist: self.trained.existence().clone(),
            decode_map: DecodeMap::default(),
            tuple_count: dataset.num_rows(),
            retrain_count: 0,
        });
        let mut system = SystemUnderTest::new(name, Box::new(dm), metrics, started);
        system.build_s += self.train_s;
        system
    }
}

/// Builds the whole system matrix over a dataset, each system once.  DeepSqueeze
/// refuses to build when its working set exceeds the pool (the paper reports those
/// cells as "failed"); its error text comes back beside the systems that did build.
pub fn build_matrix(
    dataset: &Dataset,
    regime: Regime,
    trained: &TrainedDeepMapping,
) -> (Vec<SystemUnderTest>, Option<String>) {
    let mut systems = build_baselines(dataset, regime);
    let (started, metrics) = (Instant::now(), Metrics::new());
    let config = DeepSqueezeConfig { epochs: 10, ..DeepSqueezeConfig::default() }
        .with_memory_budget(regime.budget(dataset.uncompressed_bytes()));
    let (rows, columns) = (dataset.rows(), dataset.num_value_columns());
    let ds_error = match DeepSqueezeStore::build(&rows, columns, config) {
        Ok(ds) => {
            systems.push(SystemUnderTest::new("DS".into(), Box::new(ds), metrics, started));
            None
        }
        Err(err) => Some(err.to_string()),
    };
    systems.extend([Codec::Lz, Codec::LzHuff].map(|codec| trained.store(dataset, codec, regime)));
    (systems, ds_error)
}

/// Timed repeats of a batch behind [`measure_lookup`]'s median.
pub const REPEATS: usize = 9;

/// One batch measured on one system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredLookup {
    /// Wall time of the first call of this batch — cold pool, cold caches.
    pub first_ms: f64,
    /// Median wall time of [`REPEATS`] warm repeats of the same batch.
    pub wall_ms: f64,
    /// The store's own counters for the median repeat alone (the metrics are reset
    /// before every repeat): modelled I/O, bytes read, loads.
    pub counters: LatencyBreakdown,
    /// The median repeat's trace: Figure 7's split, summed per stage.  `None` when
    /// the store published none — under `DM_OBS=off`.
    pub trace: Option<TraceSummary>,
    /// Keys answered.
    pub hits: usize,
    /// Position-weighted sum of every value returned: exact systems agree on it.
    pub answer_sum: u64,
}

/// Measures one lookup batch: the first call on its own, one unmeasured warm-up, then
/// [`REPEATS`] timed repeats whose median is reported.  Wall time and the disk model's
/// time stay apart — the second is `counters.simulated_io_nanos`.  Every call's stage
/// times are the trace it published on this thread
/// ([`dm_obs::trace::take_last_batch`], taken after each call).  The batch goes through
/// `lookup_batch_into` with the system's reusable buffer, so it covers the query work, not
/// result materialization.  A failed lookup (DS out of memory) comes back as its error text.
pub fn measure_lookup(
    system: &mut SystemUnderTest,
    keys: &[u64],
) -> Result<MeasuredLookup, String> {
    let (store, metrics, buffer) = (&system.store, &system.metrics, &mut system.buffer);
    let mut timed = || {
        metrics.reset();
        let start = Instant::now();
        let outcome = store.lookup_batch_into(keys, buffer);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let trace = dm_obs::trace::take_last_batch();
        outcome.map_err(|err| err.to_string())?;
        match buffer.first_error() {
            Some(err) => Err(err.to_string()),
            None => Ok((wall_ms, metrics.snapshot(), trace)),
        }
    };
    let (first_ms, ..) = timed()?;
    timed()?;
    let mut repeats = (0..REPEATS).map(|_| timed()).collect::<Result<Vec<_>, String>>()?;
    repeats.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (wall_ms, counters, trace) = repeats.swap_remove(REPEATS / 2);
    let weighted = |(&value, at): (&u32, u64)| at * u64::from(value);
    let answers = system.buffer.tuples().flat_map(|tuple| tuple.values.iter().zip(1u64..));
    let answer_sum = answers.map(weighted).sum();
    let hits = system.buffer.hit_count();
    Ok(MeasuredLookup { first_ms, wall_ms, counters, trace, hits, answer_sum })
}

#[cfg(test)]
mod tests;
