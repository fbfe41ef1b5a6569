//! # dm-persist — single-file snapshots with lazy partition serving and a delta WAL
//!
//! DeepMapping's pitch is that the hybrid structure *is* the storage format: a
//! compact model plus keyless bit-packed auxiliary partitions, existence and
//! corrected-key bits and decode labels.  This crate gives that structure a deployable on-disk form:
//!
//! * [`Snapshot`] — a versioned single-file format: header + CRC-protected
//!   manifest (config, schema, decode labels, counters, overlay, per-partition
//!   directory) + model weights (via `dm_nn::serialize`) + existence bits +
//!   the auxiliary table's `base` bitmap + its partition frames copied verbatim.
//!   [`Snapshot::open`] (or `DeepMapping::open` via [`SnapshotExt`]) loads only
//!   the manifest/model/bitmaps eagerly; partitions are served lazily through
//!   a [`dm_storage::FilePartitionSource`] plugged into the store's
//!   single-flight buffer pool — a cold partition costs exactly one positional
//!   read + one unframing, fully parallel under `dm-exec`.
//! * [`DeltaWal`] — an append-only log (`<snapshot>.wal`) of
//!   insert/delete/update batches, CRC-per-record, torn-tail tolerant.
//! * [`PersistentStore`] — the two combined behind the standard
//!   `TupleStore`/`MutableStore` traits: each write batch is applied and then
//!   logged + fsynced before the call returns (apply first, so a rejected
//!   batch never poisons the log), `open` replays the log into the auxiliary
//!   delta overlay, and `maintenance()` retrains, rewrites the snapshot
//!   atomically (temp file + rename + directory fsync) and resets the log.
//!
//! Every failure mode is a typed [`PersistError`]: truncation, per-section CRC
//! mismatches, unknown versions, torn WAL records.  Corruption in a *lazily*
//! served partition surfaces on first touch as a storage-level corruption error
//! through the lookup path — never a panic, never a silently wrong answer.

pub mod error;
pub mod manifest;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use error::{PersistError, Result};
pub use manifest::{Manifest, PartitionEntry};
pub use snapshot::{OpenStats, Snapshot, SnapshotExt, SnapshotStats};
pub use store::{wal_path_for, PersistentStore};
pub use wal::{DeltaWal, WalOp, WalReplay};
