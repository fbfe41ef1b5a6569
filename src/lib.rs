//! # deepmapping
//!
//! A Rust implementation of **DeepMapping: Learned Data Mapping for Lossless
//! Compression and Efficient Lookup** (Zhou, Candan, Zou — ICDE 2024).
//!
//! DeepMapping stores a relational table as a *hybrid learned structure*: a compact
//! multi-task neural network that memorizes the key → value mapping, an auxiliary
//! table holding the tuples the model gets wrong (bit-packed values only — a rank
//! over the corrected-key bitmap is their address), an existence bit vector
//! that prevents hallucinated answers for non-existing keys, and a decode map back to
//! the original categorical values.  The result is lossless compression *and* fast
//! random lookups at the same time, with insert/delete/update absorbed by the
//! auxiliary structures instead of retraining.
//!
//! ## The store API
//!
//! Every backend in the workspace — DeepMapping and all baselines — is swept through
//! two traits from [`dm_storage`]:
//!
//! * [`TupleStore`](dm_storage::TupleStore) — the **read** interface.  All methods
//!   take `&self` and implementors are `Send + Sync`, so one store (e.g. an
//!   `Arc<DeepMapping>`) serves lookups from many threads concurrently.  The primary
//!   entry point is `lookup_batch_into(&self, keys, &mut LookupBuffer)`: results land
//!   in a caller-owned, reusable flat arena ([`dm_storage::LookupBuffer`], viewed
//!   through [`dm_storage::TupleRef`]), so steady-state batches make **zero per-key
//!   heap allocations**.  `lookup_batch` materializes the owned
//!   `Vec<Option<Vec<u32>>>` shape when convenience beats allocation discipline, and
//!   `scan_range` serves range workloads on every key-ordered backend.
//! * [`MutableStore`](dm_storage::MutableStore) — the **write** interface
//!   (`insert`/`delete`/`update` plus the off-peak `maintenance` hook DeepMapping
//!   retrains under).  Writes keep `&mut self`: exclusive access is the point at
//!   which the read structures may be rebuilt.
//!
//! What a build ships is priced by the paper's Eq. 1, the size of the whole
//! hybrid structure.  Unless a caller fixes the architecture or asks for the
//! MHAS search, the build climbs a ladder of widths: one shared layer of
//! 16, 32, 64, … neurons with the heads straight off it, then the two-layer
//! [`default_spec`](dm_core::MappingModel::default_spec) on top.  Each rung
//! is trained, quantized and memorized as a whole store; the climb keeps a
//! rung only while it shrinks that store, and stops at the first that does
//! not, or after one that leaves nothing to correct.
//! [`MappingModel::ladder`](dm_core::MappingModel::ladder) lists the rungs a
//! build priced.  The model's size is also the lookup's cost, so the
//! smallest store is usually the fastest one too.
//!
//! This crate is a facade over the workspace:
//!
//! * [`dm_core`] (re-exported as [`core`]) — the hybrid structure, the
//!   [`DeepMappingBuilder`](dm_core::DeepMappingBuilder) fluent constructor, the
//!   batched [`QueryPipeline`](dm_core::pipeline) every lookup routes through
//!   (Algorithm 1 as a staged dataflow), modification workflows and the MHAS
//!   architecture search (seeded uniform sampling over shared weights, each
//!   candidate priced by building its store),
//! * [`dm_nn`] — the from-scratch neural-network substrate,
//! * [`dm_compress`] — the compression codecs (Z-Standard / LZMA / gzip / dictionary
//!   stand-ins),
//! * [`dm_storage`] — the store traits and lookup buffer, partitions, simulated
//!   disk, LRU buffer pool, existence bit vector, latency metrics,
//! * [`dm_data`] — TPC-H-like / TPC-DS-like / synthetic / crop dataset generators and
//!   workloads (with [`LookupWorkload::drive`](dm_data::LookupWorkload::drive) running
//!   a workload against any `TupleStore`),
//! * [`dm_baselines`] — the array-based, hash-based and DeepSqueeze-like baselines the
//!   paper compares against,
//! * [`dm_obs`] (re-exported as [`obs`]) — the std-only observability substrate:
//!   lock-free counters and log2-bucketed histograms (plus windowed "last-60s"
//!   variants), per-batch stage traces with slow-op capture, drift and
//!   pool-pressure signals with a typed maintenance advisor
//!   ([`HealthReport`](dm_obs::HealthReport)), and Prometheus/JSON exposition
//!   (`DM_OBS=off` disables the tracing paths; see `examples/obs_quickstart.rs`
//!   and `examples/health_quickstart.rs`).
//!
//! ## Workspace map
//!
//! ```text
//! Cargo.toml                 workspace root + this facade package
//! ├── crates/obs             dm-obs       std-only observability substrate: sharded
//! │                                       atomic counters/gauges, log2-bucketed
//! │                                       mergeable histograms + windowed
//! │                                       last-60s slices, per-batch stage
//! │                                       traces + slow-op capture ring,
//! │                                       drift and pool-pressure signals +
//! │                                       maintenance advisor (HealthReport),
//! │                                       Prometheus/JSON exposition, DM_OBS
//! │                                       kill switch (depends on nothing below)
//! ├── crates/exec            dm-exec      what the frozen benchmark still reads:
//! │                                       a one-thread ThreadPool whose
//! │                                       ExecStats stay zero
//! ├── crates/nn              dm-nn        matrices, dense layers, multi-task model,
//! │                                       one vectorized walk on the calling
//! │                                       thread, entered with keys
//! │                                       (forward_keys_flat: each 96-row
//! │                                       chunk encodes its own, an int8 model's
//! │                                       straight to first-layer bytes, and
//! │                                       the classes land in the caller's
//! │                                       slice — a lookup's claimed rows) or
//! │                                       with features (forward_batch_flat);
//! │                                       kernel: packed-panel micro-kernels —
//! │                                       16-lane AVX-512 / AVX2+FMA f32 forms
//! │                                       (training), the int8 path every store
//! │                                       serves (vpdpbusd on AVX-512-VNNI,
//! │                                       sign + vpmaddubsw on AVX2; a
//! │                                       two-phase row quantizer), and
//! │                                       bit-identical scalar fallbacks (CPU
//! │                                       detection picks)
//! ├── crates/compress        dm-compress  lz / lz+huffman / deflate-like / dictionary,
//! │                                       varint, rle, bitpack, framed format
//! ├── crates/storage         dm-storage   Row, TupleStore/MutableStore + LookupBuffer,
//! │                                       BitVec (Vexist) + RankedBits (rank index),
//! │                                       partition layouts (array/hash baselines,
//! │                                       keyless PackedPartition),
//! │                                       simulated disk, one-budget single-flight
//! │                                       LRU BufferPool with bounded retry +
//! │                                       backoff on transient cold-load
//! │                                       failures, Figure-7 Metrics
//! ├── crates/faults          dm-faults    deterministic fault injection: seeded
//! │                                       FaultPlan (transient read errors,
//! │                                       latency spikes, bit-flips, torn WAL
//! │                                       appends, failed fsyncs; DM_FAULTS env
//! │                                       or programmatic), FaultyPartitionSource
//! │                                       wrapper, crash-site observer for
//! │                                       kill-point torture tests
//! ├── crates/core            dm-core      DeepMapping hybrid + DeepMappingBuilder
//! │                                       (train f32 → quantize to int8 →
//! │                                       memorize what int8 gets wrong; the
//! │                                       default architecture climbs a ladder
//! │                                       of widths from 16 and keeps the
//! │                                       rung whose whole store, Eq. 1, is
//! │                                       smallest),
//! │                                       QueryPipeline (Vexist/Vaux routing),
//! │                                       rank-addressed keyless AuxTable,
//! │                                       schema/encoders, MHAS
//! ├── crates/persist         dm-persist   single-file snapshots (lazy partition
//! │                                       serving via FilePartitionSource), delta
//! │                                       WAL, PersistentStore wrapper
//! ├── crates/server          dm-server    batched in-process QueryServer: request
//! │                                       coalescing under a deadline, bounded
//! │                                       queue + load-shedding watermarks,
//! │                                       per-tenant lazy snapshot open,
//! │                                       ServerStats + per-tenant tail
//! │                                       attribution (queue delay, coalesce
//! │                                       wait, batch shares) via dm-obs,
//! │                                       windowed recent tails + SLO-aware
//! │                                       tenant_health() advisor view
//! ├── crates/data            dm-data      TPC-H / TPC-DS / synthetic / crop
//! │                                       generators, lookup & modification workloads
//! ├── crates/baselines       dm-baselines array/hash partitioned stores, DeepSqueeze
//! ├── crates/bench           dm-bench     the one `paper` runner: every table and
//! │                                       figure of Section V as rows of
//! │                                       PAPER_RESULTS.json, each store built
//! │                                       once (gating lives in benchmark/, a
//! │                                       workspace of its own: BENCHMARK.json)
//! └── crates/shims           offline stand-ins for rand / parking_lot
//!                            (no registry access in the build environment; each
//!                            implements only the API subset the workspace uses)
//! ```
//!
//! Lookups flow facade → `TupleStore::lookup_batch_into` →
//! `dm_core::pipeline::QueryPipeline::execute_into` (three-way split on the existence
//! and corrected-key bit vectors → one pass that marks every routed key a hit and
//! claims its row in the caller's `LookupBuffer` arena → one vectorized flat
//! forward pass over the *predicted* keys — handed to the network as keys, never
//! as a batch-wide feature matrix — beside rank-addressed auxiliary probes of the
//! *corrected* keys (`rank(base, key)` → partition and slot; packed partitions come
//! through the shared buffer pool, each loaded at most once per batch), each
//! writing its answers straight into the claimed rows — every key pays
//! for the model or the auxiliary table, never both), with every stage timed once, by
//! a `dm_obs::Stage` span on the batch's trace (`dm_obs::trace::take_last_batch`);
//! `dm_storage::Metrics` holds the counts.  The pipeline borrows its batch-sized
//! working memory from the `LookupBuffer`, so a steady-state call on a reused
//! buffer allocates nothing (`tests/alloc_guard.rs`).  Because the pipeline only reads, batches
//! from different threads interleave freely over one store instance.
//!
//! ## One thread a batch
//!
//! A batch runs on the thread that asks for it: the two halves of a batch
//! (probes of the corrected keys, then inference of the predicted keys) run
//! one after the other, inference as one walk of the packed-panel SIMD
//! kernels of [`dm_nn::kernel`] in cache-sized row chunks.  Cores serve
//! concurrent requests instead — each client's batch on that client's own
//! thread ([`dm_server`]'s callers-run path, or any caller's own threads) —
//! and they share one store: **`dm_storage::BufferPool`** is one LRU under
//! one budget with *single-flight* cold loads, so racing readers trigger
//! exactly one read + unframe per partition, the losers wait on a per-entry
//! latch (observable via `LatencyBreakdown::pool_single_flight_waits`).
//!
//! ## Persistence: the snapshot file + delta WAL
//!
//! [`dm_persist`] turns the hybrid structure into a deployable on-disk format.
//! `dm.write_snapshot(path)` (or [`dm_persist::Snapshot::write`]) emits one
//! versioned file; `DeepMapping::open(path)` (via
//! [`SnapshotExt`](dm_persist::SnapshotExt)) restores it without retraining.
//!
//! ```text
//! offset 0   header (28 B): magic "DMSS" | version u16 | reserved u16
//!                           | file_len u64 | manifest_len u64 | manifest_crc u32
//! then       manifest   — CRC-32-protected: config, schema (key encoder +
//!                         cardinalities), decode labels, counters, aux delta
//!                         overlay + tombstones, section table (model/existence/
//!                         base lengths + CRCs), partition directory (rows,
//!                         frame length, frame CRC per partition — no keys)
//! then       model      — dm_nn::serialize bytes          (eager, CRC-checked)
//! then       existence  — BitVec RLE bytes                (eager, CRC-checked)
//! then       base       — BitVec RLE bytes: the keys whose rows the
//!                         partitions hold                 (eager, CRC-checked)
//! then       partitions — dm_compress frames around keyless bit-packed value
//!                         columns, verbatim               (LAZY, CRC on touch)
//! ```
//!
//! The auxiliary rows are stored once and their keys not at all: the row of the
//! `n`-th set bit of `base` is slot `n mod R` of partition `n div R` (`R` rows
//! per partition, from `partition_bytes`), each column packed at the width its
//! largest value in that partition needs.  `Vaux` — the bitmap lookups route
//! on — is rebuilt at open as `(base − tombstones) ∪ delta keys`.
//!
//! Opening reads only header + manifest + model + existence + base; the partition
//! frames stay on disk and are served on demand by a
//! `dm_storage::FilePartitionSource` behind the single-flight buffer
//! pool (one `pread` + one unframing per cold partition, no shared file
//! cursor).  Versioning is strict: an unknown header version or any failed
//! CRC is a typed [`dm_persist::PersistError`], never a guess, and so is a
//! directory whose row counts do not partition `base`, a frame that loads
//! with another partition's shape, or a store that serves f32 arithmetic (an
//! f32-tagged manifest, an f32 layer in the model section).  The compatibility policy is
//! bump-on-any-layout-change; the manifest decoder rejects trailing bytes so
//! mixed-version files cannot half-parse.  Exactly one version opens: v6, the
//! keyless auxiliary table.  v1 (a different f32 arithmetic recipe), v2 (no
//! quantization descriptor), v3 (no corrected-key bitmap), v4 (keyed
//! row-array partitions) and v5 (MHAS controller settings in the manifest) are
//! rejected as `UnsupportedVersion`.
//!
//! Mutations persist through [`dm_persist::PersistentStore`]: each
//! insert/delete/update batch is applied and then appended + fsynced to
//! `<snapshot>.wal` (CRC per record, torn tails tolerated and truncated)
//! before the call returns — apply-first, so a batch the store rejects never
//! enters the log.  Reopening replays the log into the auxiliary delta
//! overlay, and `maintenance()` retrains, rewrites the snapshot atomically
//! (temp file + rename + directory fsync) and resets the WAL.
//!
//! ## Failure taxonomy: what fails, how it surfaces, what degrades
//!
//! The serving stack classifies every storage failure into one of four shapes
//! and answers each with a different, *typed* response — never a silently
//! wrong tuple (the hybrid contract: a corrected key whose auxiliary partition
//! cannot be read gets an error, not the model prediction `Vaux` says is a
//! misprediction):
//!
//! * **Transient read faults** (`StorageError::Io` with
//!   [`is_transient`](dm_storage::StorageError::is_transient) true — EINTR,
//!   EAGAIN, timeouts): absorbed inside [`dm_storage::BufferPool`] by a
//!   bounded retry loop with exponential backoff + deterministic jitter.
//!   Callers see nothing but latency; `LatencyBreakdown::load_retries` and the
//!   `dm_pool_load_retries_total` counter see everything.
//! * **Persistent read faults** (corruption, CRC mismatches, exhausted
//!   retries): degrade *per key, not per batch*, and only the keys that needed
//!   the partition.  The query pipeline marks the spans of the *corrected*
//!   keys held by the unreadable partition as failed in the
//!   [`LookupBuffer`](dm_storage::LookupBuffer); every other key in the batch
//!   — including predicted keys inside that partition's key range, which never
//!   touch it — is answered byte-identically to a fault-free run.  A corrected
//!   key the table turns out not to hold (a broken `Vaux` invariant), or one
//!   addressed into a frame that is not its partition's, surfaces the same
//!   way, as a per-key `StorageError::Corrupt`.  `dm-server`'s
//!   coalescing demux then fails only the *requests* whose keys touch a
//!   failed span ([`ServerError::PartialFailure`](dm_server::ServerError)).
//! * **Write-side faults** (failed WAL append/fsync, torn record):
//!   [`dm_persist::PersistentStore`] poisons itself — memory is ahead of
//!   disk, so reads and writes are refused until a `checkpoint()`
//!   re-synchronizes them.  Loudly unavailable beats silently lossy.
//! * **Sustained tenant failure**: `dm-server`'s per-tenant circuit breaker
//!   opens after N consecutive batch failures
//!   ([`ServerError::TenantUnavailable`](dm_server::ServerError) with a
//!   `retry_after`), admits a half-open probe after a cooldown, and closes on
//!   the first success.  Queued requests that outwait the configured deadline
//!   fail with [`ServerError::Timeout`](dm_server::ServerError) instead of
//!   being served an answer their caller gave up on.
//!
//! All of it is rehearsable offline: [`dm_faults`] injects seeded,
//! reproducible fault plans (`DM_FAULTS` env or programmatic) at the partition
//! source and WAL layers, its crash-site observer drives kill-point torture
//! tests over the checkpoint window (`tests/crash_matrix.rs`), and the fault
//! counters feed the maintenance advisor
//! ([`dm_obs::FaultSignals`] → `Advice::InvestigateStorage`).  See
//! `examples/chaos_quickstart.rs` for the full degraded-serving episode.
//!
//! ## Quickstart
//!
//! ```
//! use deepmapping::prelude::*;
//!
//! // A small, strongly key-correlated table (order_id -> status, priority).
//! let rows: Vec<Row> = (0..2_000u64)
//!     .map(|k| Row::new(k, vec![((k / 32) % 3) as u32, ((k / 8) % 5) as u32]))
//!     .collect();
//!
//! // Fluent construction (DM-Z preset: LZ-compressed auxiliary table).
//! let mut dm = DeepMappingBuilder::dm_z()
//!     .training(TrainingConfig::quick())
//!     .partition_bytes(16 * 1024)
//!     .build(&rows)
//!     .expect("build");
//!
//! // Exact lookups — including rejection of keys that do not exist.
//! assert_eq!(dm.get(40).unwrap(), Some(vec![1, 0]));
//! assert_eq!(dm.get(1_000_000).unwrap(), None);
//!
//! // The allocation-aware batch path: results land in a reusable arena.
//! let mut buffer = LookupBuffer::new();
//! dm.lookup_batch_into(&[40, 41, 1_000_000], &mut buffer).unwrap();
//! assert_eq!(buffer.hit_count(), 2);
//! assert_eq!(buffer.get(0), Some(&[1u32, 0][..]));
//! assert!(buffer.get(2).is_none());
//!
//! // Range scans through the shared trait (served by the existence index).
//! assert_eq!(dm.scan_range(10, 13).unwrap().len(), 4);
//!
//! // Modifications without retraining (Algorithms 3-5), via MutableStore.
//! dm.insert(&[Row::new(2_000, vec![2, 4])]).unwrap();
//! dm.delete(&[0]).unwrap();
//! assert_eq!(dm.get(2_000).unwrap(), Some(vec![2, 4]));
//! assert_eq!(dm.get(0).unwrap(), None);
//!
//! // The architecture ladder the build climbed, narrowest rung first; the
//! // model is the last rung that shrank the store.
//! let ladder = dm.model().ladder();
//! assert_eq!(ladder[0].shared_hidden, [16]);
//!
//! // Storage breakdown (Figure 6 of the paper).  On real table sizes the hybrid
//! // structure compresses well below 1.0; this toy example just demonstrates the API
//! // (the model is intentionally under-trained to keep the doctest fast).
//! let breakdown = dm.storage_breakdown();
//! assert_eq!(breakdown.tuple_count, 2_000);
//! assert!(breakdown.total_bytes() > 0);
//! ```

pub use dm_baselines as baselines;
pub use dm_compress as compress;
pub use dm_core as core;
pub use dm_data as data;
pub use dm_faults as faults;
pub use dm_nn as nn;
pub use dm_obs as obs;
pub use dm_persist as persist;
pub use dm_server as server;
pub use dm_storage as storage;

/// The most commonly used types, importable in one line.  No arithmetic is
/// among them: every store serves int8, so there is none to pick.
pub mod prelude {
    pub use dm_baselines::{DeepSqueezeConfig, DeepSqueezeStore, PartitionedStore, PartitionedStoreConfig};
    pub use dm_compress::Codec;
    pub use dm_core::{
        DeepMapping, DeepMappingBuilder, DeepMappingConfig, MhasConfig, MhasSearch,
        SearchStrategy, StorageBreakdown, TrainingConfig,
    };
    pub use dm_data::{
        Column, Correlation, CropConfig, Dataset, LookupWorkload, ModificationWorkload,
        SyntheticConfig, TpcdsGenerator, TpchGenerator,
    };
    pub use dm_data::tpcds::TpcdsConfig;
    pub use dm_data::tpch::TpchConfig;
    pub use dm_persist::{
        PersistError, PersistentStore, Snapshot, SnapshotExt, WalOp,
    };
    pub use dm_server::{
        QueryServer, RequestReport, ServerClient, ServerConfig, ServerError, ServerStats,
        TenantId, Ticket,
    };
    pub use dm_storage::{
        BitVec, DiskProfile, LatencyBreakdown, LookupBuffer, Metrics, MutableStore,
        ReferenceStore, Row, StoreStats, TupleRef, TupleStore,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_the_main_types() {
        let _ = DeepMappingConfig::dm_z();
        let _ = DeepMappingBuilder::dm_z();
        let _ = PartitionedStoreConfig::array(Codec::Lz);
        let _ = TpchConfig::tiny();
        let _ = Row::new(1, vec![2]);
        let _ = LookupBuffer::new();
        let _ = ReferenceStore::new();
        let _ = ServerConfig::default();
    }

    #[test]
    fn prelude_serves_lookups_through_the_query_server() {
        let store = ReferenceStore::from_rows(&[Row::new(1, vec![10])]);
        let server = QueryServer::new(ServerConfig::inline());
        let tenant = server
            .register_store("t", std::sync::Arc::new(store))
            .unwrap();
        let mut client = server.client();
        assert_eq!(client.get(tenant, 1).unwrap(), Some(vec![10]));
        assert!(server.stats().requests_completed == 1);
    }
}
