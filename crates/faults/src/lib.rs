//! # dm-faults — deterministic fault injection for the DeepMapping stack
//!
//! The hybrid store's contract — *never serve a wrong tuple* — is easy to
//! uphold on a healthy disk.  This crate exists to prove it holds on an
//! unhealthy one: it injects the failures real storage produces (transient
//! read errors, latency spikes, bit rot, torn writes, failed fsyncs,
//! crashes between syscalls) **deterministically**, so every chaos run is a
//! reproducible test case rather than a flaky coin toss.
//!
//! ## Operating guide
//!
//! ### Activation
//!
//! * **On** — build a [`FaultPlan`] with its
//!   builder methods (the table in [`plan`]), wrap it in [`Faults::new`],
//!   and hand it to the component under test: a store's read side through
//!   `DeepMapping::inject_faults` (which wraps its partition source in a
//!   [`FaultyPartitionSource`]), its WAL through the persist layer's
//!   `inject_wal_faults`.  [`Faults::set_enabled`] is the runtime kill
//!   switch — "repair the disk" mid-test without rebuilding the store.
//! * **Off** — with no plan installed nothing is wrapped and nothing is
//!   checked on the lookup hot path; a WAL pays one `Option` check per
//!   append and sync.
//!
//! ### Determinism guarantees
//!
//! Every decision is a pure function of `(seed, site, partition id,
//! per-partition call number)`.  Thread interleaving cannot change which
//! faults fire: two partitions probed from different threads draw from
//! independent counter streams, and a retry *is* the next call number, so
//! "fails on attempt 1, succeeds on attempt 2" is expressible exactly
//! ([`FaultPlan::with_read_transient_nth`]).  Injected-fault counts are
//! readable per injector ([`Faults::stats`]) and aggregated into the
//! `dm-obs` global registry (`dm_faults_injected_total` + per-kind
//! counters) for the Prometheus render.
//!
//! ### Fault → error taxonomy
//!
//! | injected fault | surfaces as | retried? |
//! |---|---|---|
//! | transient read | `StorageError::Io` (`is_transient()`) | yes, bounded backoff |
//! | latency spike | slow read (tail latency) | n/a |
//! | bit flip | checksum failure → `Corrupt`/`Compression` | never — fail-fast |
//! | torn/failed WAL write | `PersistError` → store poison | no; recovery at reopen |
//! | failed fsync | `PersistError` → store poison | no; recovery at reopen |
//! | crash between syscalls | [`crash`] observer captures state | reopen must recover |
//!
//! ### Crash-point torture
//!
//! [`crash::site`] instruments every append/fsync/rename boundary in
//! `dm-persist`.  A torture test installs [`crash::with_observer`] and
//! copies the store directory at each site — the on-disk state a kill at
//! that exact point would leave — then reopens every captured state and
//! asserts the recovery invariants.  See `tests/persistence.rs` in the
//! workspace root for the matrix.

pub mod crash;
pub mod inject;
pub mod plan;
pub mod source;

pub use inject::{FaultStats, Faults, ReadDecision, ReadOutcome, WalAppendFault};
pub use plan::{FaultPlan, ReadFaultPlan, WalFaultPlan};
pub use source::FaultyPartitionSource;
