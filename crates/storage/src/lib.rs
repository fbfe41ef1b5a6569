//! # dm-storage — storage substrate for DeepMapping
//!
//! The DeepMapping evaluation runs on memory-constrained edge machines: datasets are
//! partitioned, partitions are compressed and written to disk, and at query time a
//! memory pool loads, decompresses and (under memory pressure) evicts partitions with
//! an LRU policy (Sections IV-B2 and V-A of the paper).  The headline speedups of
//! Table I come from DeepMapping avoiding exactly these load + decompress cycles.
//!
//! This crate is the from-scratch substitute for that environment:
//!
//! * [`row`] — the numeric row model every store in the workspace shares
//!   (`key → encoded value codes`) and the `BTreeMap`-backed [`ReferenceStore`]
//!   ground truth,
//! * [`store`] — the cross-backend store API: the `&self`-based read trait
//!   [`TupleStore`] with its reusable [`LookupBuffer`] result arena, and the write
//!   trait [`MutableStore`] the benchmark harness sweeps over,
//! * [`bitvec`] — the dynamic existence bit vector (`Vexist`) and its frozen,
//!   rank-indexed form [`RankedBits`] (a member key's ordinal in constant time),
//! * [`layout`] — array- and hash-partition serialization (the paper's "array-based"
//!   and "hash-based" representations, with their asymmetric deserialization costs)
//!   and the keyless bit-packed [`PackedPartition`] of DeepMapping's auxiliary table,
//! * [`disk`] — a simulated disk: partitions live as compressed frames in byte
//!   buffers, reads are counted and costed with a configurable bandwidth model,
//! * [`source`] — the [`PartitionSource`] seam the buffer pool loads through: the
//!   simulated disk is one implementation, the snapshot-file-backed
//!   [`FilePartitionSource`] (real positional reads + CRC checks, the lazy half of
//!   `dm-persist`) is the other,
//! * [`pool`] — one mutex-guarded LRU buffer pool under one byte budget that
//!   loads/decompresses/evicts partitions, with single-flight cold loads so racing
//!   readers never duplicate a load,
//! * [`metrics`] — the I/O, pool and answer-mix counters every store charges; the
//!   time of each lookup stage is a `dm_obs` span on the batch's [`Trace`], the
//!   one timer, re-exported here as [`Trace`] / [`Stage`] for the stores.

pub mod bitvec;
pub mod disk;
pub mod layout;
pub mod metrics;
pub mod pool;
pub mod row;
pub mod source;
pub mod store;

pub use bitvec::{BitVec, RankedBits};
pub use disk::{DiskProfile, SimulatedDisk};
pub use source::{FileExtent, FilePartitionSource, PartitionSource};
pub use layout::{ArrayPartition, HashPartition, PackedPartition, PartitionLayout};
pub use dm_obs::{Stage, Trace};
pub use metrics::{LatencyBreakdown, Metrics};
pub use pool::{BufferPool, RetryPolicy};
pub use row::{ReferenceStore, Row, StoreStats};
pub use store::{LookupBuffer, MutableStore, TupleRef, TupleStore};

/// Errors produced by the storage substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A partition or serialized structure was malformed.
    Corrupt(String),
    /// A referenced partition does not exist on the simulated disk.
    MissingPartition(u64),
    /// A compression codec failed.
    Compression(String),
    /// The operation's configuration was invalid.
    InvalidConfig(String),
    /// The store does not implement the requested operation (e.g. range scans on a
    /// backend with no key order).
    Unsupported(String),
    /// A positional read or other I/O operation failed *without* evidence of
    /// corruption (the device said no, not the checksum).  These are the only
    /// errors [`is_transient`](Self::is_transient) classifies as retryable:
    /// a flaky cable or an interrupted syscall may succeed on the next
    /// attempt, while a failed CRC never will.
    Io(String),
}

impl StorageError {
    /// Whether a retry of the failed operation could plausibly succeed.
    ///
    /// Only [`Io`](Self::Io) qualifies: corruption ([`Corrupt`](Self::Corrupt),
    /// [`Compression`](Self::Compression)) is a property of the bytes and must
    /// fail fast — retrying would re-read the same bad frame — and the
    /// remaining variants are caller mistakes.  The buffer pool's cold-load
    /// retry policy and the server's circuit breaker both key off this.
    pub fn is_transient(&self) -> bool {
        matches!(self, StorageError::Io(_))
    }
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Corrupt(msg) => write!(f, "corrupt storage data: {msg}"),
            StorageError::MissingPartition(id) => write!(f, "partition {id} not found"),
            StorageError::Compression(msg) => write!(f, "compression error: {msg}"),
            StorageError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            StorageError::Unsupported(msg) => write!(f, "unsupported operation: {msg}"),
            StorageError::Io(msg) => write!(f, "transient i/o error: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<dm_compress::CompressError> for StorageError {
    fn from(err: dm_compress::CompressError) -> Self {
        StorageError::Compression(err.to_string())
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, StorageError>;
