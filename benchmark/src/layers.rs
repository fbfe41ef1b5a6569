//! The one file that calls into the repository's crates.
//!
//! Everything else in the benchmark sees only the types defined here, so a
//! change to a product interface is a change to this file and nothing more.
//! A pull request that removes or renames one of the functions below needs a
//! `benchmark` issue first; this list is how small that issue is.
//!
//! Used by every run (the untraced path):
//! - `dm_core`: `DeepMappingBuilder::{from_config, build}`, `DeepMappingConfig`
//!   (struct literal), `TrainingConfig`, `Quantization`, `SearchStrategy`
//! - `dm_storage`: `TupleStore::lookup_batch_into`,
//!   `MutableStore::{insert, update, delete, maintenance}`,
//!   `LookupBuffer::{new, len, get, is_failed}`, `Row::new`, `DiskProfile::free`
//! - `dm_persist`: `PersistentStore::{create, open, into_store, checkpoint}`,
//!   `wal_path_for`
//! - `dm_server`: `QueryServer::{new, register_store, client_with_depth, shutdown}`,
//!   `ServerConfig` (struct literal), `ServerClient::{submit, wait_into}`,
//!   `RequestReport`
//! - `dm_compress`: `Codec::Lz`
//! - `dm_nn::kernel::active().name()` (run record)
//!
//! Used by `--trace 1` only (the layer replay, the pool probe and the reference
//! rows):
//! - `PersistentStore::store`, `DeepMapping::{existence, model, aux_table, metrics,
//!   exec, storage_breakdown}`, `dm_exec::global().threads()`
//! - `BitVec::get`, `Metrics::snapshot` (`LatencyBreakdown` fields),
//!   `ThreadPool::stats` (`ExecStats` fields)
//! - `MappingModel::{schema, network}`, `MappingSchema::key_encoder`,
//!   `KeyEncoder::encode_batch`, `MultiTaskModel::{trunk, heads, forward_batch_flat}`,
//!   `Dense::{forward, forward_rows, in_dim, out_dim}`, `Matrix::rows`,
//!   `dm_nn::CACHE_CHUNK_ROWS`
//! - `AuxTable::{get_batch, partition_count, partition_frame, overlay_bytes,
//!   delta_len, tombstone_count}`, `dm_compress::{decompress_frame, compress_frame}`
//! - `Snapshot::write` (`SnapshotStats` fields), `DeltaWal::{create, append, sync}`,
//!   `WalOp`
//! - `QueryServer::{stats, tenant_tail}` (`ServerStats` and `TenantTail` fields)
//! - `dm_baselines`: `PartitionedStore::build`, `PartitionedStoreConfig::{array, hash,
//!   with_partition_bytes, with_memory_budget, with_disk_profile}`, `TupleStore::stats`

use crate::gen::GenRow;
use crate::trace::{SpanId, Tracer};
use dm_baselines::{PartitionedStore, PartitionedStoreConfig};
use dm_compress::Codec;
use dm_core::{
    DeepMapping, DeepMappingBuilder, DeepMappingConfig, Quantization, SearchStrategy,
    TrainingConfig,
};
use dm_persist::{DeltaWal, PersistentStore, Snapshot, WalOp};
use dm_server::{QueryServer, ServerClient, ServerConfig, TenantId, Ticket};
use dm_storage::{DiskProfile, LookupBuffer, Metrics, MutableStore, Row, TupleStore};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub type Error = Box<dyn std::error::Error + Send + Sync>;
pub type Result<T> = std::result::Result<T, Error>;

/// Target uncompressed size of one auxiliary partition.
const PARTITION_BYTES: usize = 8 * 1024;

/// Which threads run a store's lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exec {
    /// The calling thread alone.  What every measured window uses: on the two
    /// shared cores of the sandbox a call that wakes pool workers is timed by
    /// the host's scheduler (`README.md`, "Steadiness").
    Caller,
    /// The product default: the process-wide pool, sized by the machine.  Only
    /// the `exec.*` probe of a traced run uses it.
    SharedPool,
}

/// The store configuration, written out field by field so that neither a
/// changed `Default` nor an environment variable can move the benchmark.
fn store_config(pool_budget_bytes: usize, exec: Exec) -> DeepMappingConfig {
    DeepMappingConfig {
        codec: Codec::Lz,
        partition_bytes: PARTITION_BYTES,
        memory_budget_bytes: pool_budget_bytes,
        disk_profile: DiskProfile::free(),
        training: TrainingConfig {
            epochs: 10,
            batch_size: 2048,
            learning_rate: 0.01,
            lr_decay: 0.999,
            loss_tolerance: 1e-4,
        },
        search: SearchStrategy::DefaultArchitecture,
        retrain_aux_bytes: None,
        exec_threads: match exec {
            Exec::Caller => Some(STORE_EXEC_THREADS),
            Exec::SharedPool => None,
        },
        seed: 0xd33b,
        quantization: Quantization::Int8,
    }
}

fn server_config(inline: bool) -> ServerConfig {
    ServerConfig {
        max_batch_keys: 256,
        max_delay: Duration::from_micros(100),
        queue_capacity_keys: 4096,
        shed_high_watermark_keys: 3584,
        shed_low_watermark_keys: 2048,
        max_request_keys: 1024,
        inline,
        slow_request: None,
        tenant_p99_target: None,
        request_deadline: None,
        breaker_failure_threshold: 5,
        breaker_cooldown: Duration::from_millis(250),
    }
}

/// Threads that run the lookups of every measured window: `Exec::Caller`.
pub const STORE_EXEC_THREADS: usize = 1;

/// Facts about the process that the run record carries.
pub fn shared_pool_threads() -> usize {
    dm_exec::global().threads()
}

pub fn kernel_name() -> &'static str {
    dm_nn::kernel::active().name()
}

/// Rows in the product's own type, converted outside any timed call.
#[derive(Debug, Clone)]
pub struct Rows(Vec<Row>);

impl Rows {
    pub fn new(rows: &[GenRow]) -> Self {
        Rows(
            rows.iter()
                .map(|r| Row::new(r.key, r.values.to_vec()))
                .collect(),
        )
    }
}

/// The answers of one lookup call, reused from call to call.
#[derive(Debug, Default)]
pub struct Answers(LookupBuffer);

impl Answers {
    pub fn new() -> Self {
        Answers(LookupBuffer::new())
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn get(&self, index: usize) -> Option<&[u32]> {
        self.0.get(index)
    }

    pub fn is_failed(&self, index: usize) -> bool {
        self.0.is_failed(index)
    }
}

/// A DeepMapping store, in memory or behind its snapshot file and WAL.
pub enum Store {
    Memory(DeepMapping),
    Durable(PersistentStore),
}

impl Store {
    /// Trains and assembles an in-memory store.  `pool_budget_bytes` bounds the
    /// buffer pool that holds decompressed auxiliary partitions.
    pub fn build(rows: &Rows, pool_budget_bytes: usize, exec: Exec) -> Result<Store> {
        let config = store_config(pool_budget_bytes, exec);
        Ok(Store::Memory(
            DeepMappingBuilder::from_config(config).build(&rows.0)?,
        ))
    }

    /// Writes the snapshot file and starts an empty WAL beside it.
    pub fn persist(self, path: &Path) -> Result<Store> {
        match self {
            Store::Memory(dm) => Ok(Store::Durable(PersistentStore::create(dm, path)?)),
            Store::Durable(_) => Err("store is already persisted".into()),
        }
    }

    /// Keeps the in-memory structure and leaves the files behind.
    pub fn into_memory(self) -> Store {
        match self {
            Store::Durable(persistent) => Store::Memory(persistent.into_store()),
            memory => memory,
        }
    }

    /// Opens a snapshot (partitions stay in the file) and replays its WAL.
    pub fn open(path: &Path) -> Result<Store> {
        Ok(Store::Durable(PersistentStore::open(path)?))
    }

    fn reader(&self) -> &dyn TupleStore {
        match self {
            Store::Memory(dm) => dm,
            Store::Durable(persistent) => persistent,
        }
    }

    fn writer(&mut self) -> &mut dyn MutableStore {
        match self {
            Store::Memory(dm) => dm,
            Store::Durable(persistent) => persistent,
        }
    }

    pub fn lookup(&self, keys: &[u64], out: &mut Answers) -> Result<()> {
        Ok(self.reader().lookup_batch_into(keys, &mut out.0)?)
    }

    pub fn insert(&mut self, rows: &Rows) -> Result<()> {
        Ok(self.writer().insert(&rows.0)?)
    }

    pub fn update(&mut self, rows: &Rows) -> Result<()> {
        Ok(self.writer().update(&rows.0)?)
    }

    pub fn delete(&mut self, keys: &[u64]) -> Result<()> {
        Ok(self.writer().delete(keys)?)
    }

    /// Retrain, rewrite the snapshot, reset the WAL.
    pub fn maintenance(&mut self) -> Result<()> {
        Ok(self.writer().maintenance()?)
    }

    /// Rewrites the snapshot from the current state and resets the WAL.
    pub fn checkpoint(&mut self) -> Result<()> {
        match self {
            Store::Durable(persistent) => {
                persistent.checkpoint()?;
                Ok(())
            }
            Store::Memory(_) => Err("an in-memory store has no checkpoint".into()),
        }
    }

    fn dm(&self) -> &DeepMapping {
        match self {
            Store::Memory(dm) => dm,
            Store::Durable(persistent) => persistent.store(),
        }
    }
}

/// Bytes of the snapshot file at `path`.
pub fn snapshot_bytes(path: &Path) -> Result<u64> {
    Ok(std::fs::metadata(path)?.len())
}

/// Bytes of the live WAL beside the snapshot at `path` (0 before the first write).
pub fn wal_bytes(path: &Path) -> u64 {
    std::fs::metadata(dm_persist::wal_path_for(path)).map_or(0, |m| m.len())
}

// ---------------------------------------------------------------------------
// Serving
// ---------------------------------------------------------------------------

const TENANT: &str = "bench";
/// Requests one client keeps in flight.
pub const CLIENT_DEPTH: usize = 4;

pub struct Server {
    server: QueryServer,
    tenant: TenantId,
    store: Arc<DeepMapping>,
}

/// What the server measured for one request.
#[derive(Debug, Clone, Copy)]
pub struct RequestTiming {
    pub queue_wait_ns: u64,
    pub wall_ns: u64,
}

impl Server {
    /// Registers the store with a coalescing server (100 µs window, 256-key
    /// batches), or with one that runs each request on its caller's thread.
    pub fn start(store: Store, inline: bool) -> Result<Server> {
        let Store::Memory(dm) = store.into_memory() else {
            unreachable!("into_memory")
        };
        let store = Arc::new(dm);
        let server = QueryServer::new(server_config(inline));
        let tenant = server.register_store(TENANT, store.clone())?;
        Ok(Server {
            server,
            tenant,
            store,
        })
    }

    pub fn client(&self) -> Client {
        Client {
            client: self.server.client_with_depth(CLIENT_DEPTH),
            tenant: self.tenant,
        }
    }

    /// Stops the dispatcher, waits for it, and hands the store back.
    pub fn shutdown(self) -> Result<Store> {
        self.server.shutdown();
        drop(self.server);
        let dm = Arc::try_unwrap(self.store).map_err(|_| "the server still holds the store")?;
        Ok(Store::Memory(dm))
    }
}

pub struct Client {
    client: ServerClient,
    tenant: TenantId,
}

pub struct Pending(Ticket);

impl Client {
    pub fn submit(&mut self, keys: &[u64]) -> Result<Pending> {
        Ok(Pending(self.client.submit(self.tenant, keys)?))
    }

    pub fn wait(&mut self, pending: Pending, out: &mut Answers) -> Result<RequestTiming> {
        let report = self.client.wait_into(pending.0, &mut out.0)?;
        Ok(RequestTiming {
            queue_wait_ns: report.queue_delay.as_nanos() as u64,
            wall_ns: report.wall.as_nanos() as u64,
        })
    }
}

// ---------------------------------------------------------------------------
// The traced path: the same work again, layer by layer
// ---------------------------------------------------------------------------

/// Counts read from the store's own counters around the traced lookup calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct LookupCounts {
    pub batches: u64,
    pub keys: u64,
    pub existing_keys: u64,
    pub inferred_keys: u64,
    /// Keys checked against a non-empty auxiliary table.
    pub probed_keys: u64,
    pub model_answered: u64,
    pub aux_answered: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub partition_loads: u64,
    pub pool_evictions: u64,
    pub single_flight_waits: u64,
    pub bytes_decoded: u64,
    /// Multiply-accumulates of one forward pass for one key, from the layer
    /// shapes of the model the first traced call ran on.
    pub macs_per_key: u64,
}

const TRUNK_SPANS: [&str; 2] = ["nn.trunk0", "nn.trunk1"];
const HEAD_SPANS: [&str; 5] = ["nn.head0", "nn.head1", "nn.head2", "nn.head3", "nn.head4"];

/// Replays lookup batches through the store and then through each layer.
#[derive(Debug, Default)]
pub struct LayerReplay {
    pub counts: LookupCounts,
    existing: Vec<u64>,
    predictions: Vec<u32>,
}

impl LayerReplay {
    pub fn new() -> Self {
        Self::default()
    }

    /// One batch: a `core.lookup` span around the real call, then sibling
    /// spans around the same work done through each layer's public functions.
    /// Returns the nanoseconds the real call took.
    pub fn lookup(
        &mut self,
        store: &Store,
        keys: &[u64],
        out: &mut Answers,
        tracer: &mut Tracer,
        batch: u32,
    ) -> Result<u64> {
        let dm = store.dm();
        let root = tracer.begin("batch", None, batch);

        let metrics_before = dm.metrics().snapshot();
        let call = tracer.begin("core.lookup", Some(root), batch);
        let outcome = store.lookup(keys, out);
        let lookup_ns = tracer.end(call);
        let metrics = dm.metrics().snapshot();
        outcome?;
        let counts = &mut self.counts;
        if counts.batches == 0 {
            let network = dm.model().network();
            let layers = network
                .trunk()
                .iter()
                .chain(network.heads().iter().flatten());
            counts.macs_per_key = layers.map(|l| (l.in_dim() * l.out_dim()) as u64).sum();
        }
        counts.batches += 1;
        counts.keys += keys.len() as u64;
        let inferred = metrics.inference_rows - metrics_before.inference_rows;
        counts.inferred_keys += inferred;
        // The pipeline plans a probe for every key it infers; with nothing in
        // the table the plan is empty.
        let aux = dm.aux_table();
        if aux.partition_count() > 0 || aux.delta_len() > 0 {
            counts.probed_keys += inferred;
        }
        counts.model_answered += metrics.model_answered - metrics_before.model_answered;
        counts.aux_answered += metrics.aux_answered - metrics_before.aux_answered;
        counts.pool_hits += metrics.pool_hits - metrics_before.pool_hits;
        counts.pool_misses += metrics.pool_misses - metrics_before.pool_misses;
        counts.partition_loads += metrics.partition_loads - metrics_before.partition_loads;
        counts.pool_evictions += metrics.pool_evictions - metrics_before.pool_evictions;
        counts.single_flight_waits +=
            metrics.pool_single_flight_waits - metrics_before.pool_single_flight_waits;

        let layers = tracer.begin("layers", Some(root), batch);
        self.replay_layers(dm, keys, tracer, layers, batch)?;
        tracer.end(layers);
        tracer.end(root);
        Ok(lookup_ns)
    }

    fn replay_layers(
        &mut self,
        dm: &DeepMapping,
        keys: &[u64],
        tracer: &mut Tracer,
        parent: SpanId,
        batch: u32,
    ) -> Result<()> {
        let parent = Some(parent);

        // dm-storage: the existence split.
        let span = tracer.begin("storage.existence", parent, batch);
        let exist = dm.existence();
        self.existing.clear();
        self.existing
            .extend(keys.iter().copied().filter(|&key| exist.get(key)));
        tracer.end(span);
        self.counts.existing_keys += self.existing.len() as u64;
        if self.existing.is_empty() {
            return Ok(());
        }

        // dm-nn: key encoding, then the forward pass the pipeline runs.
        let model = dm.model();
        let network = model.network();
        let span = tracer.begin("nn.encode", parent, batch);
        let x = model.schema().key_encoder.encode_batch(&self.existing);
        tracer.end(span);
        let span = tracer.begin("nn.forward", parent, batch);
        network.forward_batch_flat(&x, &mut self.predictions)?;
        tracer.end(span);
        black_box(&self.predictions);

        // dm-nn again, one dense layer at a time, in the cache-sized row chunks
        // the product uses, so each layer's time is seen at its real working set.
        if network.trunk().len() > TRUNK_SPANS.len() || network.heads().len() > HEAD_SPANS.len() {
            return Err("the model has more layers than the benchmark names".into());
        }
        let by_layer = tracer.begin("nn.by_layer", parent, batch);
        let mut start = 0;
        while start < x.rows() {
            let count = (x.rows() - start).min(dm_nn::CACHE_CHUNK_ROWS);
            let mut hidden = None;
            for (layer, name) in network.trunk().iter().zip(TRUNK_SPANS) {
                let span = tracer.begin(name, Some(by_layer), batch);
                hidden = Some(match &hidden {
                    None => layer.forward_rows(&x, start, count)?,
                    Some(h) => layer.forward(h)?,
                });
                tracer.end(span);
            }
            for (head, name) in network.heads().iter().zip(HEAD_SPANS) {
                let span = tracer.begin(name, Some(by_layer), batch);
                let mut activation = None;
                for layer in head {
                    activation = Some(match (&activation, &hidden) {
                        (Some(a), _) => layer.forward(a)?,
                        (None, Some(h)) => layer.forward(h)?,
                        (None, None) => layer.forward_rows(&x, start, count)?,
                    });
                }
                black_box(&activation);
                tracer.end(span);
            }
            start += count;
        }
        tracer.end(by_layer);

        // dm-core: plan, load through the pool, probe.
        let aux = dm.aux_table();
        let span = tracer.begin("core.aux_probe", parent, batch);
        let probed = aux.get_batch(&self.existing)?;
        tracer.end(span);
        black_box(&probed);

        // dm-persist and dm-compress: one partition read from its source and
        // decoded, past the pool, so the two costs are seen apart.
        if aux.partition_count() > 0 {
            let index = batch as usize % aux.partition_count();
            let span = tracer.begin("persist.cold_load", parent, batch);
            let frame = aux.partition_frame(index)?;
            tracer.end(span);
            let span = tracer.begin("compress.decode", parent, batch);
            let decoded = dm_compress::decompress_frame(&frame.frame)?;
            tracer.end(span);
            self.counts.bytes_decoded += decoded.len() as u64;
            black_box(&decoded);
        }
        Ok(())
    }
}

/// The counters of the pool that runs a store's lookups, since it started.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecCounts {
    pub tasks: u64,
    pub steals: u64,
    pub park_ns: u64,
}

pub fn exec_counts(store: &Store) -> ExecCounts {
    let stats = store.dm().exec().stats();
    ExecCounts {
        tasks: stats.tasks_executed,
        steals: stats.steals,
        park_ns: stats.park_nanos,
    }
}

/// Figure 6: where the stored bytes are.
#[derive(Debug, Clone, Copy, Default)]
pub struct SizeBreakdown {
    pub model_bytes: u64,
    pub aux_bytes: u64,
    pub existence_bytes: u64,
    pub decode_map_bytes: u64,
}

pub fn size_breakdown(store: &Store) -> SizeBreakdown {
    let b = store.dm().storage_breakdown();
    SizeBreakdown {
        model_bytes: b.model_bytes as u64,
        aux_bytes: b.aux_table_bytes as u64,
        existence_bytes: b.existence_bytes as u64,
        decode_map_bytes: b.decode_map_bytes as u64,
    }
}

/// What writes have left outside the compressed partitions.
#[derive(Debug, Clone, Copy, Default)]
pub struct OverlayState {
    pub overlay_bytes: u64,
    pub delta_rows: u64,
    pub tombstones: u64,
}

pub fn overlay_state(store: &Store) -> OverlayState {
    let aux = store.dm().aux_table();
    OverlayState {
        overlay_bytes: aux.overlay_bytes() as u64,
        delta_rows: aux.delta_len() as u64,
        tombstones: aux.tombstone_count() as u64,
    }
}

/// Codec speed and ratio over every auxiliary partition of the store.
#[derive(Debug, Clone, Copy, Default)]
pub struct CodecProbe {
    pub compressed_bytes: u64,
    pub raw_bytes: u64,
    pub encode_ns: u64,
}

pub fn codec_probe(store: &Store) -> Result<CodecProbe> {
    let aux = store.dm().aux_table();
    let mut probe = CodecProbe::default();
    for index in 0..aux.partition_count() {
        let frame = aux.partition_frame(index)?;
        let raw = dm_compress::decompress_frame(&frame.frame)?;
        let begin = Instant::now();
        let again = dm_compress::compress_frame(&Codec::Lz, &raw);
        probe.encode_ns += begin.elapsed().as_nanos() as u64;
        probe.compressed_bytes += frame.frame.len() as u64;
        probe.raw_bytes += raw.len() as u64;
        black_box(&again);
    }
    Ok(probe)
}

/// Snapshot write, open and first cold batch, on a scratch file.
#[derive(Debug, Clone, Copy, Default)]
pub struct PersistProbe {
    pub snapshot_write_ns: u64,
    pub snapshot_bytes: u64,
    pub eager_bytes: u64,
    pub open_ns: u64,
    pub first_batch_ns: u64,
}

pub fn persist_probe(store: &Store, path: &Path, first_batch: &[u64]) -> Result<PersistProbe> {
    let begin = Instant::now();
    let written = Snapshot::write(store.dm(), path)?;
    let snapshot_write_ns = begin.elapsed().as_nanos() as u64;
    let begin = Instant::now();
    let opened = PersistentStore::open(path)?;
    let open_ns = begin.elapsed().as_nanos() as u64;
    let mut out = LookupBuffer::new();
    let begin = Instant::now();
    opened.lookup_batch_into(first_batch, &mut out)?;
    let first_batch_ns = begin.elapsed().as_nanos() as u64;
    Ok(PersistProbe {
        snapshot_write_ns,
        snapshot_bytes: written.file_bytes,
        eager_bytes: written.eager_bytes,
        open_ns,
        first_batch_ns,
    })
}

/// A WAL on a scratch file: the log append and fsync of a write call, alone.
pub struct WalProbe(DeltaWal);

pub enum WriteOp<'a> {
    Insert(&'a Rows),
    Update(&'a Rows),
    Delete(&'a [u64]),
}

impl WalProbe {
    pub fn create(path: &Path) -> Result<Self> {
        Ok(WalProbe(DeltaWal::create(path)?))
    }

    pub fn append_and_sync(&mut self, op: &WriteOp<'_>) -> Result<()> {
        let op = match op {
            WriteOp::Insert(rows) => WalOp::Insert(rows.0.clone()),
            WriteOp::Update(rows) => WalOp::Update(rows.0.clone()),
            WriteOp::Delete(keys) => WalOp::Delete(keys.to_vec()),
        };
        self.0.append(&op)?;
        Ok(self.0.sync()?)
    }
}

/// The server's own view of the requests it served.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerCounts {
    pub requests_admitted: u64,
    pub requests_rejected: u64,
    pub batches: u64,
    pub batched_requests: u64,
    pub keys_served: u64,
    pub store_ns: u64,
    pub queue_wait_p50_ns: u64,
    pub coalesce_wait_p50_ns: u64,
}

impl Server {
    pub fn counts(&self) -> Result<ServerCounts> {
        let stats = self.server.stats();
        let tail = self.server.tenant_tail(TENANT)?;
        Ok(ServerCounts {
            requests_admitted: stats.requests_enqueued,
            requests_rejected: stats.requests_shed
                + stats.requests_timed_out
                + stats.breaker_rejections,
            batches: stats.batches_formed,
            batched_requests: stats.batched_requests,
            keys_served: stats.keys_served,
            store_ns: stats.exec_nanos,
            queue_wait_p50_ns: stats.queue_delay_p50.as_nanos() as u64,
            coalesce_wait_p50_ns: tail.coalesce_wait.p50(),
        })
    }
}

/// The paper's baselines on the same rows, for the reference rows of the trace.
pub struct Reference(PartitionedStore);

#[derive(Debug, Clone, Copy)]
pub enum ReferenceKind {
    /// ABC-Z: sorted-array partitions, compressed with the codec DM-Z uses.
    ArrayCompressed,
    /// HB: hash partitions, uncompressed.
    Hash,
}

impl Reference {
    pub fn build(kind: ReferenceKind, rows: &Rows, pool_budget_bytes: usize) -> Result<Self> {
        let config = match kind {
            ReferenceKind::ArrayCompressed => PartitionedStoreConfig::array(Codec::Lz),
            ReferenceKind::Hash => PartitionedStoreConfig::hash(Codec::None),
        }
        .with_partition_bytes(PARTITION_BYTES)
        .with_memory_budget(pool_budget_bytes)
        .with_disk_profile(DiskProfile::free());
        let columns = rows.0.first().map_or(0, |row| row.values.len());
        Ok(Reference(PartitionedStore::build(
            &rows.0,
            columns,
            config,
            Metrics::new(),
        )?))
    }

    pub fn lookup(&self, keys: &[u64], out: &mut Answers) -> Result<()> {
        Ok(self.0.lookup_batch_into(keys, &mut out.0)?)
    }

    pub fn stored_bytes(&self) -> u64 {
        self.0.stats().disk_bytes as u64
    }
}
