//! A durable store: a snapshot-backed [`DeepMapping`] plus its delta WAL.
//!
//! [`PersistentStore`] is the deployment wrapper the quickstart example and the
//! restart tests drive: reads delegate straight to the inner store (same
//! `TupleStore` surface, same lazy partition serving), each write batch is
//! applied and then logged + fsynced to the WAL before the call returns (apply
//! first, so a batch the store *rejects* never enters the log), and
//! `maintenance()` retrains, rewrites the snapshot atomically (temp file +
//! rename + directory fsync) and resets the WAL — the fold-in step of
//! Section IV-D mapped onto real files.
//!
//! Crash model: the snapshot file is immutable between checkpoints and replaced
//! atomically, so it is always internally consistent; the WAL absorbs everything
//! since the last checkpoint, and replay is idempotent with respect to contents
//! (re-inserting an existing row acts as an update with the same values), so a
//! crash between checkpoint-rename and WAL-reset double-applies harmlessly.

use crate::error::{PersistError, Result};
use crate::snapshot::{Snapshot, SnapshotStats};
use crate::wal::{DeltaWal, WalOp, WalReplay};
use dm_core::DeepMapping;
use dm_storage::{LookupBuffer, MutableStore, Row, StoreStats, TupleStore};
use std::path::{Path, PathBuf};

/// A [`DeepMapping`] store whose state survives process restarts.
#[derive(Debug)]
pub struct PersistentStore {
    dm: DeepMapping,
    wal: DeltaWal,
    snapshot_path: PathBuf,
    replay: WalReplay,
    /// Set when a mutation was applied in memory but could not be made durable
    /// (WAL append or fsync failed): the served state now diverges from what a
    /// restart would restore.  Reads and writes are refused until a successful
    /// [`checkpoint`](Self::checkpoint) re-synchronizes disk with memory —
    /// better loudly unavailable than silently serving rows that vanish on
    /// restart.
    poisoned: bool,
}

/// The WAL that pairs with a snapshot path: `<file name>.wal` in the same
/// directory.
pub fn wal_path_for(snapshot: &Path) -> PathBuf {
    let mut name = snapshot.file_name().unwrap_or_default().to_os_string();
    name.push(".wal");
    snapshot.with_file_name(name)
}

impl PersistentStore {
    /// Persists a freshly built store: writes the snapshot at `path` and starts
    /// an empty WAL next to it.
    ///
    /// Ordering matters twice over when a previous store incarnation lives at
    /// `path`.  The snapshot is fully *staged* (written + fsynced at a temp
    /// path) first, so a create that fails during the big, failure-prone write
    /// (ENOSPC halfway through) leaves the old snapshot AND its WAL untouched
    /// and fully recoverable.  Then the stale WAL is truncated (and fsynced)
    /// *before* the rename makes the new snapshot visible: a crash between the
    /// two must never pair the fresh snapshot with the old incarnation's log —
    /// the next open would replay another store's mutations into this one.
    /// That ordering leaves one narrow lossy window, crash or failure, in the
    /// small truncate→rename tail: old snapshot + already-emptied WAL, which
    /// reopens as the old store minus its un-checkpointed tail — degraded, but
    /// never the silent cross-store replay.
    pub fn create(dm: DeepMapping, path: impl Into<PathBuf>) -> Result<Self> {
        let snapshot_path = path.into();
        remove_stale_temp_snapshots(&snapshot_path);
        let staged = Snapshot::stage(&dm, &snapshot_path)?;
        dm_faults::crash::site("create.staged");
        let wal = DeltaWal::create(wal_path_for(&snapshot_path))?;
        dm_faults::crash::site("create.wal_ready");
        staged.commit()?;
        Ok(PersistentStore {
            dm,
            wal,
            snapshot_path,
            replay: WalReplay::default(),
            poisoned: false,
        })
    }

    /// Restores a store from its snapshot + WAL: opens the snapshot lazily,
    /// replays every complete WAL record into the structure (inserted/updated
    /// rows land in the auxiliary delta overlay, deletions flip existence
    /// bits), and keeps the WAL open for further appends.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self> {
        let snapshot_path = path.into();
        remove_stale_temp_snapshots(&snapshot_path);
        let mut dm = Snapshot::open(&snapshot_path)?;
        let wal_path = wal_path_for(&snapshot_path);
        let (ops, replay) = DeltaWal::replay(&wal_path)?;
        for op in &ops {
            apply(&mut dm, op)?;
        }
        let wal = DeltaWal::open_append(wal_path, replay)?;
        Ok(PersistentStore {
            dm,
            wal,
            snapshot_path,
            replay,
            poisoned: false,
        })
    }

    /// The wrapped store (shared read surface — safe to hand out).  Note that
    /// this bypasses the poison guard (see [`is_poisoned`](Self::is_poisoned)):
    /// after a failed WAL append the inner store may hold mutations that are
    /// not durable.
    pub fn store(&self) -> &DeepMapping {
        &self.dm
    }

    /// Unwraps into the in-memory store, leaving the files on disk as-is.
    pub fn into_store(self) -> DeepMapping {
        self.dm
    }

    /// The snapshot file this store checkpoints to.
    pub fn snapshot_path(&self) -> &Path {
        &self.snapshot_path
    }

    /// What the last [`open`](Self::open) replayed from the WAL.
    pub fn last_replay(&self) -> WalReplay {
        self.replay
    }

    /// Whether a failed WAL append left the in-memory state ahead of durable
    /// state (see [`checkpoint`](Self::checkpoint) to recover).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Folds the current state into a fresh snapshot (atomically: temp file +
    /// rename) and resets the WAL.  Called by [`MutableStore::maintenance`]
    /// after retraining; also useful on its own as a cheap checkpoint that
    /// skips the retrain.
    ///
    /// A successful checkpoint also clears the poisoned state: the snapshot
    /// captures the *entire* in-memory structure, so once it is renamed into
    /// place and the WAL is reset, durable state matches served state again.
    pub fn checkpoint(&mut self) -> Result<SnapshotStats> {
        dm_faults::crash::site("checkpoint.begin");
        let stats = Snapshot::write(&self.dm, &self.snapshot_path)?;
        dm_faults::crash::site("checkpoint.snapshot_committed");
        self.wal.reset()?;
        self.poisoned = false;
        dm_faults::crash::site("checkpoint.done");
        Ok(stats)
    }

    /// Installs a fault injector on the delta WAL, steering the write-side
    /// failure points a [`dm_faults::FaultPlan`] sets with
    /// `with_wal_append_fail_nth`, `with_wal_torn_nth` and
    /// `with_wal_fsync_fail_nth`.  Read-side
    /// faults are installed separately via the aux table's partition source
    /// (see `DeepMapping::inject_faults`).
    pub fn inject_wal_faults(&mut self, faults: std::sync::Arc<dm_faults::Faults>) {
        self.wal.set_faults(faults);
    }

    fn ensure_not_poisoned(&self) -> dm_storage::Result<()> {
        if self.poisoned {
            return Err(dm_storage::StorageError::from(PersistError::Wal(
                "store poisoned: a mutation was applied in memory but could not be logged \
                 durably; checkpoint() to re-synchronize, or reopen from disk"
                    .into(),
            )));
        }
        Ok(())
    }

    /// Validates, applies, then logs the mutation.  In-memory state dies with
    /// the process, so durability needs only "logged before the call returns
    /// success" — and validating + applying first means a *rejected* batch
    /// (e.g. wrong column count) never enters the WAL, so replay-on-open can
    /// only ever see operations that succeeded against this exact state.
    ///
    /// Failure handling distinguishes the two phases.  [`validate`] runs before
    /// any state is touched, so its rejections leave the store healthy.  Past
    /// that point a failure can strike with part of the batch already in
    /// memory — a partition read error halfway through delete's aux probes, a
    /// failed fold-in retrain after the rows landed, or the WAL append/fsync
    /// itself — and the caller is told the batch failed while memory already
    /// diverged from what a restart would restore.  Rolling back is not
    /// reliable (an insert over an existing key acts as an update, so the
    /// pre-image is gone), so the store poisons itself instead — reads and
    /// writes are refused until [`checkpoint`](Self::checkpoint) makes memory
    /// and disk agree again.
    fn apply_then_log(&mut self, op: WalOp) -> dm_storage::Result<()> {
        self.ensure_not_poisoned()?;
        validate(&self.dm, &op).map_err(dm_storage::StorageError::from)?;
        if let Err(err) = apply(&mut self.dm, &op) {
            self.poisoned = true;
            return Err(dm_storage::StorageError::from(err));
        }
        if let Err(err) = self.wal.append(&op).and_then(|()| self.wal.sync()) {
            self.poisoned = true;
            return Err(dm_storage::StorageError::from(err));
        }
        Ok(())
    }
}

/// The validation the apply path would reject, run BEFORE any state is
/// mutated: a batch failing here is a clean rejection — nothing applied,
/// nothing logged, the store stays healthy.  Delegates to the dry-run halves
/// the core mutators themselves run first, so the two can never drift; a
/// batch this passes only fails in `apply` through a genuine mid-apply fault
/// (I/O, retrain), which is exactly what the poison flag is for.  `delete`
/// accepts any key.
fn validate(dm: &DeepMapping, op: &WalOp) -> Result<()> {
    match op {
        WalOp::Insert(rows) => dm.validate_insert(rows)?,
        WalOp::Update(rows) => dm.validate_update(rows)?,
        WalOp::Delete(_) => {}
    }
    Ok(())
}

/// Best-effort removal of `<snapshot>.tmp.*` siblings that a crashed
/// checkpoint left behind — a crash mid-stage orphans a temp file up to the
/// full snapshot size, and nothing else ever reclaims it.  Only the
/// write-owning `PersistentStore` paths (create/open) call this; read-only
/// `Snapshot::open` callers may share the directory with a live writer whose
/// in-flight temp file must not be deleted.  (Two concurrent *writers* on one
/// snapshot path are already unsupported — they would rename over each other.)
fn remove_stale_temp_snapshots(path: &Path) {
    let (Some(dir), Some(name)) = (path.parent(), path.file_name()) else {
        return;
    };
    let dir = if dir.as_os_str().is_empty() {
        Path::new(".")
    } else {
        dir
    };
    let mut prefix = name.to_os_string();
    prefix.push(".tmp.");
    let prefix = prefix.to_string_lossy().into_owned();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        if entry.file_name().to_string_lossy().starts_with(&prefix) {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

fn apply(dm: &mut DeepMapping, op: &WalOp) -> Result<()> {
    match op {
        WalOp::Insert(rows) => dm.insert_rows(rows)?,
        WalOp::Delete(keys) => dm.delete_keys(keys)?,
        WalOp::Update(rows) => dm.update_rows(rows)?,
    }
    Ok(())
}

impl TupleStore for PersistentStore {
    fn name(&self) -> &str {
        self.dm.name()
    }

    fn lookup_batch_into(&self, keys: &[u64], out: &mut LookupBuffer) -> dm_storage::Result<()> {
        self.ensure_not_poisoned()?;
        TupleStore::lookup_batch_into(&self.dm, keys, out)
    }

    fn stats(&self) -> StoreStats {
        TupleStore::stats(&self.dm)
    }

    fn scan_range(&self, lo: u64, hi: u64) -> dm_storage::Result<Vec<Row>> {
        self.ensure_not_poisoned()?;
        TupleStore::scan_range(&self.dm, lo, hi)
    }
}

impl MutableStore for PersistentStore {
    fn insert(&mut self, rows: &[Row]) -> dm_storage::Result<()> {
        self.apply_then_log(WalOp::Insert(rows.to_vec()))
    }

    fn delete(&mut self, keys: &[u64]) -> dm_storage::Result<()> {
        self.apply_then_log(WalOp::Delete(keys.to_vec()))
    }

    fn update(&mut self, rows: &[Row]) -> dm_storage::Result<()> {
        self.apply_then_log(WalOp::Update(rows.to_vec()))
    }

    /// Retrain + checkpoint: the off-peak fold-in.  The WAL is only reset after
    /// the new snapshot has been renamed into place.
    fn maintenance(&mut self) -> dm_storage::Result<()> {
        self.dm.retrain().map_err(dm_storage::StorageError::from)?;
        self.checkpoint().map_err(dm_storage::StorageError::from)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_core::{DeepMappingBuilder, TrainingConfig};
    use dm_storage::DiskProfile;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dm-persist-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn build_store(n: u64) -> DeepMapping {
        let rows: Vec<Row> = (0..n)
            .map(|k| Row::new(k, vec![(k % 7) as u32, (k % 3) as u32]))
            .collect();
        DeepMappingBuilder::dm_z()
            .training(TrainingConfig {
                epochs: 2,
                batch_size: 256,
                ..TrainingConfig::default()
            })
            .partition_bytes(2 * 1024)
            .disk_profile(DiskProfile::free())
            .build(&rows)
            .expect("build DeepMapping")
    }

    /// A failed WAL append leaves memory ahead of disk: the store must refuse
    /// to serve (or accept) anything until a checkpoint re-synchronizes them,
    /// and the checkpoint must make the stranded mutation durable.
    #[test]
    fn failed_wal_append_poisons_the_store_until_checkpoint() {
        let dir = temp_dir("poison");
        let path = dir.join("poison.dmss");
        let mut store = PersistentStore::create(build_store(400), &path).expect("create");
        store.insert(&[Row::new(9_000, vec![1, 2])]).expect("logged insert");

        // Simulate ENOSPC at append time.
        store.wal.poison_for_test();
        let err = store.insert(&[Row::new(9_001, vec![3, 4])]).unwrap_err();
        assert!(err.to_string().contains("poisoned"), "{err}");
        assert!(store.is_poisoned());
        // Served state would diverge from durable state — refuse loudly.
        assert!(store.lookup_batch(&[9_001]).is_err());
        assert!(store.scan_range(0, 10).is_err());
        assert!(store.insert(&[Row::new(9_002, vec![5, 6])]).is_err());

        // checkpoint() snapshots the full in-memory state (stranded row
        // included) and resets the WAL: memory and disk agree again.
        store.checkpoint().expect("checkpoint heals the store");
        assert!(!store.is_poisoned());
        assert_eq!(store.get(9_001).unwrap(), Some(vec![3, 4]));
        // The reset also un-poisons the WAL handle, so logging resumes.
        store.insert(&[Row::new(9_002, vec![5, 6])]).expect("post-heal insert");
        drop(store);

        let reopened = PersistentStore::open(&path).expect("reopen");
        assert_eq!(reopened.last_replay().records, 1);
        assert_eq!(reopened.get(9_000).unwrap(), Some(vec![1, 2]));
        assert_eq!(reopened.get(9_001).unwrap(), Some(vec![3, 4]));
        assert_eq!(reopened.get(9_002).unwrap(), Some(vec![5, 6]));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The reviewer-found hole: `create` → log writes → `checkpoint` (reset on
    /// the same handle) → more writes → reopen.  A cursor-positioned create
    /// handle would leave a zero-filled hole in the WAL and brick the store.
    #[test]
    fn checkpoint_on_a_created_store_keeps_the_wal_replayable() {
        let dir = temp_dir("create-checkpoint");
        let path = dir.join("ckpt.dmss");
        let mut store = PersistentStore::create(build_store(400), &path).expect("create");
        store.insert(&[Row::new(9_000, vec![1, 2])]).expect("insert");
        store.checkpoint().expect("checkpoint");
        store.insert(&[Row::new(9_001, vec![3, 4])]).expect("post-checkpoint insert");
        drop(store);

        let reopened = PersistentStore::open(&path).expect("reopen after checkpoint");
        assert_eq!(reopened.last_replay().records, 1);
        assert_eq!(reopened.get(9_000).unwrap(), Some(vec![1, 2]));
        assert_eq!(reopened.get(9_001).unwrap(), Some(vec![3, 4]));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A crash mid-stage orphans a `<name>.tmp.<pid>` sibling up to the full
    /// snapshot size; the write-owning open/create paths reclaim them.
    #[test]
    fn open_reclaims_orphaned_temp_snapshots() {
        let dir = temp_dir("orphan");
        let path = dir.join("orphan.dmss");
        drop(PersistentStore::create(build_store(300), &path).expect("create"));
        let orphan = path.with_file_name("orphan.dmss.tmp.99999");
        std::fs::write(&orphan, b"half a snapshot").unwrap();
        let _ = PersistentStore::open(&path).expect("open");
        assert!(!orphan.exists(), "orphaned temp snapshot not reclaimed");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A create that FAILS (as opposed to crashes) must leave the previous
    /// incarnation — snapshot and WAL, acknowledged mutations included —
    /// fully recoverable: the staging write runs before the WAL truncation.
    #[test]
    fn a_failed_create_leaves_the_previous_store_recoverable() {
        let dir = temp_dir("failed-create");
        let path = dir.join("keep.dmss");
        let mut old = PersistentStore::create(build_store(400), &path).expect("create old");
        old.insert(&[Row::new(9_000, vec![1, 2])]).expect("old insert");
        drop(old);

        // Force the staging write to fail: squat its temp path with a directory.
        let tmp = crate::snapshot::temp_sibling(&path);
        std::fs::create_dir_all(&tmp).unwrap();
        assert!(PersistentStore::create(build_store(200), &path).is_err());
        std::fs::remove_dir_all(&tmp).ok();

        let reopened = PersistentStore::open(&path).expect("old store recoverable");
        assert_eq!(reopened.last_replay().records, 1, "old WAL was destroyed");
        assert_eq!(reopened.get(9_000).unwrap(), Some(vec![1, 2]));
        assert_eq!(reopened.store().len(), 401);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Re-creating a store at a path where a previous incarnation left WAL
    /// records must not replay those foreign records into the new store.
    #[test]
    fn create_truncates_a_stale_wal_from_a_previous_incarnation() {
        let dir = temp_dir("stale-wal");
        let path = dir.join("stale.dmss");
        let mut old = PersistentStore::create(build_store(400), &path).expect("create old");
        old.insert(&[Row::new(9_000, vec![1, 2])]).expect("old insert");
        // Crash: the old store dies with a non-empty WAL.
        drop(old);

        let fresh = PersistentStore::create(build_store(200), &path).expect("create fresh");
        drop(fresh);
        let reopened = PersistentStore::open(&path).expect("reopen fresh");
        assert_eq!(reopened.last_replay().records, 0, "stale WAL records replayed");
        assert_eq!(reopened.get(9_000).unwrap(), None);
        assert_eq!(reopened.store().len(), 200);
        std::fs::remove_dir_all(&dir).ok();
    }
}
