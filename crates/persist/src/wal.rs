//! The append-only delta WAL (`<snapshot>.wal`).
//!
//! A snapshot is immutable once written; modifications between checkpoints
//! land here.  The ordering is apply-*then*-log: `PersistentStore` applies a
//! batch to the in-memory structure first (so a batch the store rejects never
//! enters the log) and then appends + fsyncs the record before acknowledging
//! the caller — in-memory state dies with the process, so durability only
//! requires the record to be on disk by the time the call returns success.
//! The next open replays the log into the store (inserted/updated rows land
//! back in the auxiliary delta overlay, deletions flip existence bits), and
//! `maintenance()` folds everything into a fresh snapshot and resets the log.
//!
//! ## Record format
//!
//! ```text
//! payload_len u32 | crc32(payload) u32 | payload
//! payload: op u8 (1 insert / 2 delete / 3 update) | count u32 | body
//!   insert/update body: per row  key u64 | n_cols u16 | values u32 × n_cols
//!   delete body:        per key  key u64
//! ```
//!
//! Replay stops at an incomplete record — or at a CRC-failing *final* record —
//! and reports the dropped byte count: a torn tail is the *expected* shape of
//! a crash, not an error.  Provable mid-log corruption, by contrast, fails
//! replay with a typed [`PersistError::Wal`]: a CRC-failing record with more
//! log *after* it (append-only logs tear only at the end, so that is bit rot,
//! and silently truncating it would drop acknowledged records), or a
//! crc-valid record with an unknown op tag.

use crate::error::{PersistError, Result};
use dm_faults::{crash, Faults, WalAppendFault};
use dm_nn::serialize::{ByteReader, ByteWriter};
use dm_storage::Row;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const OP_INSERT: u8 = 1;
const OP_DELETE: u8 = 2;
const OP_UPDATE: u8 = 3;

/// One logged modification batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// Rows passed to `MutableStore::insert`.
    Insert(Vec<Row>),
    /// Keys passed to `MutableStore::delete`.
    Delete(Vec<u64>),
    /// Rows passed to `MutableStore::update`.
    Update(Vec<Row>),
}

/// Outcome of a WAL replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalReplay {
    /// Complete, CRC-valid records replayed.
    pub records: usize,
    /// Bytes dropped at the tail (torn final record after a crash; 0 on a
    /// clean log).
    pub dropped_tail_bytes: u64,
}

/// An open append handle on a WAL file.
#[derive(Debug)]
pub struct DeltaWal {
    file: File,
    path: PathBuf,
    /// Set when a failed append could not be rolled back: the log may end in a
    /// partial record, so further appends would land *behind* garbage and be
    /// unreachable at replay.  All subsequent appends are refused.
    poisoned: bool,
    /// Write-side fault injector, installed by
    /// [`set_faults`](Self::set_faults) in a chaos test.  `None` in
    /// production: the hot path then pays one `Option` check per append/sync.
    faults: Option<Arc<Faults>>,
}

impl DeltaWal {
    /// Creates (or truncates) the WAL at `path`.  The truncation is fsynced
    /// before this returns: a caller that is about to write a fresh snapshot
    /// next to this WAL must know any stale records from a previous store
    /// incarnation are durably gone first.
    ///
    /// The handle is opened in append mode — every write goes to the current
    /// EOF regardless of the file cursor.  This matters because
    /// [`reset`](Self::reset) and the append rollback shrink the file (via a
    /// sibling write-mode handle; see the private `truncate_to`),
    /// which does *not* move a plain write cursor: a cursor-positioned handle
    /// would resume writing past the truncation point, leaving a zero-filled
    /// hole that replay reads as garbage.
    pub fn create(path: impl Into<PathBuf>) -> Result<Self> {
        let path = path.into();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let wal = DeltaWal {
            file,
            path,
            poisoned: false,
            faults: None,
        };
        wal.truncate_to(0)?;
        Ok(wal)
    }

    /// Opens the WAL at `path` for appending, creating it if missing.  The
    /// caller is expected to have replayed it first (see [`DeltaWal::replay`]);
    /// a torn tail record, if any, is truncated away so new appends cannot be
    /// shadowed by garbage.
    pub fn open_append(path: impl Into<PathBuf>, replay: WalReplay) -> Result<Self> {
        let path = path.into();
        if replay.dropped_tail_bytes > 0 {
            let len = std::fs::metadata(&path)?.len();
            let file = OpenOptions::new().write(true).open(&path)?;
            file.set_len(len.saturating_sub(replay.dropped_tail_bytes))?;
            file.sync_all()?;
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(DeltaWal {
            file,
            path,
            poisoned: false,
            faults: None,
        })
    }

    /// The file this WAL appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Installs (or replaces) the write-side fault injector — the one way
    /// to inject WAL faults.  A handle from [`create`](Self::create) or
    /// [`open_append`](Self::open_append) has none.
    pub fn set_faults(&mut self, faults: Arc<Faults>) {
        self.faults = Some(faults);
    }

    /// Appends one record (length + CRC + payload in a single write).
    ///
    /// A failed write is rolled back by truncating to the pre-append length,
    /// so a short write (ENOSPC, ...) cannot strand garbage mid-log that would
    /// make *later* successfully-appended records unreachable at replay.  If
    /// even the rollback fails, the handle is poisoned and refuses further
    /// appends — better loudly unavailable than silently lossy.
    pub fn append(&mut self, op: &WalOp) -> Result<()> {
        if self.poisoned {
            return Err(PersistError::Wal(
                "WAL poisoned by an earlier unrecoverable append failure".into(),
            ));
        }
        let payload = encode_op(op);
        // The record header stores the length as u32; a batch that encodes
        // past 4 GiB must be rejected here, before anything touches the file —
        // a wrapped length would be fsynced, acknowledged, and then destroy
        // the log's parseability at the next replay.
        let payload_len = u32::try_from(payload.len()).map_err(|_| {
            PersistError::Wal(format!(
                "batch encodes to {} bytes, past the 4 GiB record limit",
                payload.len()
            ))
        })?;
        let start = self.file.metadata()?.len();
        let mut record = ByteWriter::new();
        record.put_u32(payload_len);
        record.put_u32(dm_compress::crc32(&payload));
        record.put_bytes(&payload);
        let record = record.into_bytes();
        crash::site("wal.append.begin");
        if let Some(faults) = &self.faults {
            match faults.on_wal_append() {
                WalAppendFault::Pass => {}
                WalAppendFault::Fail => {
                    // Fails before touching the file — the clean ENOSPC shape.
                    return Err(PersistError::Io(
                        "injected fault: WAL append refused before writing".into(),
                    ));
                }
                WalAppendFault::Torn { keep_half } => {
                    // A crash mid-write: part of the record reaches the file
                    // and STAYS there (no rollback — a real crash cannot roll
                    // back either).  The handle poisons itself, exactly like a
                    // failed rollback, and replay treats the partial record as
                    // the expected torn tail.
                    let keep = if keep_half { record.len() / 2 } else { 0 };
                    let _ = self.file.write_all(&record[..keep]);
                    self.poisoned = true;
                    return Err(PersistError::Wal(
                        "injected fault: torn WAL append left a partial record".into(),
                    ));
                }
            }
        }
        if let Err(err) = self.file.write_all(&record) {
            if self.truncate_to(start).is_err() {
                self.poisoned = true;
            }
            return Err(err.into());
        }
        crash::site("wal.append.done");
        Ok(())
    }

    /// Forces appended records to stable storage.
    pub fn sync(&self) -> Result<()> {
        crash::site("wal.sync.begin");
        if let Some(faults) = &self.faults {
            if faults.on_wal_fsync() {
                return Err(PersistError::Io("injected fault: WAL fsync failed".into()));
            }
        }
        self.file.sync_data()?;
        crash::site("wal.sync.done");
        Ok(())
    }

    /// Durably shrinks the log to `len` bytes through a sibling write-mode
    /// handle: `set_len` on the append handle itself is not portable (Windows
    /// opens append handles without the permission `set_len` needs), and the
    /// append handle keeps writing to EOF regardless, so the two never
    /// disagree about where the next record lands.
    fn truncate_to(&self, len: u64) -> Result<()> {
        crash::site("wal.truncate.begin");
        let file = OpenOptions::new().write(true).open(&self.path)?;
        file.set_len(len)?;
        file.sync_all()?;
        crash::site("wal.truncate.done");
        Ok(())
    }

    /// Empties the log (after its contents were folded into a new snapshot).
    /// Appends go to EOF (the handle is in append mode), so the next record
    /// lands at offset 0 — no hole.  An emptied log is clean by construction,
    /// so a successful reset also lifts the poisoned state: whatever partial
    /// record the failed rollback stranded is gone.
    pub fn reset(&mut self) -> Result<()> {
        self.truncate_to(0)?;
        self.poisoned = false;
        Ok(())
    }

    /// Test hook: forces the handle into the poisoned state so callers can
    /// exercise their append-failure paths without needing a real ENOSPC.
    #[cfg(test)]
    pub(crate) fn poison_for_test(&mut self) {
        self.poisoned = true;
    }

    /// Reads and validates every record of the WAL at `path`.  A missing file
    /// replays as empty (a snapshot written before any mutation has no WAL yet).
    pub fn replay(path: impl AsRef<Path>) -> Result<(Vec<WalOp>, WalReplay)> {
        let bytes = match std::fs::read(path.as_ref()) {
            Ok(bytes) => bytes,
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => {
                return Ok((Vec::new(), WalReplay::default()))
            }
            Err(err) => return Err(err.into()),
        };
        let mut ops = Vec::new();
        let mut pos = 0usize;
        while pos < bytes.len() {
            let remaining = bytes.len() - pos;
            if remaining < 8 {
                break; // torn record header
            }
            let payload_len =
                u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
            let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
            if remaining < 8 + payload_len {
                break; // torn payload
            }
            let payload = &bytes[pos + 8..pos + 8 + payload_len];
            if dm_compress::crc32(payload) != crc {
                // A CRC failure on the FINAL record is the expected shape of a
                // crash mid-append (length persisted, payload partially so).
                // With more log after it, the failure cannot be a tear — an
                // append-only log only tears at the end — so this is bit rot,
                // and truncating it away would silently drop the acknowledged
                // records behind it.
                if pos + 8 + payload_len < bytes.len() {
                    return Err(PersistError::Wal(format!(
                        "record at byte {pos} fails its CRC with {} bytes of log after it \
                         (mid-log corruption, not a torn tail)",
                        bytes.len() - (pos + 8 + payload_len)
                    )));
                }
                break; // torn tail
            }
            ops.push(decode_op(payload)?);
            pos += 8 + payload_len;
        }
        let replay = WalReplay {
            records: ops.len(),
            dropped_tail_bytes: (bytes.len() - pos) as u64,
        };
        Ok((ops, replay))
    }
}

fn encode_rows(w: &mut ByteWriter, rows: &[Row]) {
    w.put_u32(rows.len() as u32);
    for row in rows {
        w.put_u64(row.key);
        w.put_u16(row.values.len() as u16);
        for &value in &row.values {
            w.put_u32(value);
        }
    }
}

fn encode_op(op: &WalOp) -> Vec<u8> {
    let mut w = ByteWriter::new();
    match op {
        WalOp::Insert(rows) => {
            w.put_u8(OP_INSERT);
            encode_rows(&mut w, rows);
        }
        WalOp::Delete(keys) => {
            w.put_u8(OP_DELETE);
            w.put_u32(keys.len() as u32);
            for &key in keys {
                w.put_u64(key);
            }
        }
        WalOp::Update(rows) => {
            w.put_u8(OP_UPDATE);
            encode_rows(&mut w, rows);
        }
    }
    w.into_bytes()
}

fn wal_err(detail: impl Into<String>) -> PersistError {
    PersistError::Wal(detail.into())
}

fn decode_rows(r: &mut ByteReader<'_>) -> Result<Vec<Row>> {
    let count = r.get_u32().map_err(|e| wal_err(e.to_string()))? as usize;
    let mut rows = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        let key = r.get_u64().map_err(|e| wal_err(e.to_string()))?;
        let n_cols = r.get_u16().map_err(|e| wal_err(e.to_string()))? as usize;
        let mut values = Vec::with_capacity(n_cols);
        for _ in 0..n_cols {
            values.push(r.get_u32().map_err(|e| wal_err(e.to_string()))?);
        }
        rows.push(Row::new(key, values));
    }
    Ok(rows)
}

fn decode_op(payload: &[u8]) -> Result<WalOp> {
    let mut r = ByteReader::new(payload);
    let tag = r.get_u8().map_err(|e| wal_err(e.to_string()))?;
    let op = match tag {
        OP_INSERT => WalOp::Insert(decode_rows(&mut r)?),
        OP_DELETE => {
            let count = r.get_u32().map_err(|e| wal_err(e.to_string()))? as usize;
            let mut keys = Vec::with_capacity(count.min(1 << 20));
            for _ in 0..count {
                keys.push(r.get_u64().map_err(|e| wal_err(e.to_string()))?);
            }
            WalOp::Delete(keys)
        }
        OP_UPDATE => WalOp::Update(decode_rows(&mut r)?),
        tag => return Err(wal_err(format!("unknown WAL op tag {tag}"))),
    };
    if r.remaining() != 0 {
        return Err(wal_err(format!(
            "{} trailing bytes inside a crc-valid record",
            r.remaining()
        )));
    }
    Ok(op)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_wal(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "dm-persist-wal-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn sample_ops() -> Vec<WalOp> {
        vec![
            WalOp::Insert(vec![Row::new(1, vec![1, 2]), Row::new(2, vec![3, 4])]),
            WalOp::Delete(vec![7, 8, 9]),
            WalOp::Update(vec![Row::new(1, vec![9, 9])]),
            WalOp::Insert(Vec::new()),
        ]
    }

    #[test]
    fn append_sync_replay_round_trips() {
        let path = temp_wal("round-trip");
        let mut wal = DeltaWal::create(&path).unwrap();
        for op in sample_ops() {
            wal.append(&op).unwrap();
        }
        wal.sync().unwrap();
        let (ops, replay) = DeltaWal::replay(&path).unwrap();
        assert_eq!(ops, sample_ops());
        assert_eq!(replay.records, 4);
        assert_eq!(replay.dropped_tail_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_wal_replays_empty() {
        let (ops, replay) = DeltaWal::replay(temp_wal("missing")).unwrap();
        assert!(ops.is_empty());
        assert_eq!(replay, WalReplay::default());
    }

    #[test]
    fn torn_tail_is_dropped_and_truncated_on_reopen() {
        let path = temp_wal("torn");
        let mut wal = DeltaWal::create(&path).unwrap();
        for op in sample_ops() {
            wal.append(&op).unwrap();
        }
        drop(wal);
        // Simulate a crash mid-append: chop the last record's payload.
        let len = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len - 3).unwrap();
        drop(file);
        let (ops, replay) = DeltaWal::replay(&path).unwrap();
        assert_eq!(ops, sample_ops()[..3].to_vec());
        assert_eq!(replay.records, 3);
        assert!(replay.dropped_tail_bytes > 0);
        // Reopening truncates the torn tail; a fresh append then replays cleanly.
        let mut wal = DeltaWal::open_append(&path, replay).unwrap();
        wal.append(&WalOp::Delete(vec![42])).unwrap();
        drop(wal);
        let (ops, replay) = DeltaWal::replay(&path).unwrap();
        assert_eq!(ops.len(), 4);
        assert_eq!(ops[3], WalOp::Delete(vec![42]));
        assert_eq!(replay.dropped_tail_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mid_log_bit_rot_is_a_hard_error_not_a_tear() {
        let path = temp_wal("bit-rot");
        let mut wal = DeltaWal::create(&path).unwrap();
        for op in sample_ops() {
            wal.append(&op).unwrap();
        }
        drop(wal);
        // Flip one payload byte of the FIRST record: valid records follow it,
        // so this is provable corruption — truncating would drop them.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[10] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = DeltaWal::replay(&path).unwrap_err();
        assert!(
            matches!(err, PersistError::Wal(ref msg) if msg.contains("mid-log")),
            "{err}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_crc_valid_record_with_a_bad_op_is_a_hard_error() {
        let path = temp_wal("bad-op");
        let payload = [99u8]; // unknown tag
        let mut record = Vec::new();
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        record.extend_from_slice(&dm_compress::crc32(&payload).to_le_bytes());
        record.extend_from_slice(&payload);
        std::fs::write(&path, record).unwrap();
        let err = DeltaWal::replay(&path).unwrap_err();
        assert!(matches!(err, PersistError::Wal(_)), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_after_reset_starts_at_offset_zero() {
        let path = temp_wal("reset-append");
        let mut wal = DeltaWal::create(&path).unwrap();
        for op in sample_ops() {
            wal.append(&op).unwrap();
        }
        // The checkpoint path: reset, then keep appending on the SAME handle.
        // A cursor-positioned handle would write the next record at the old
        // offset, leaving a zero-filled hole that replay reads as garbage.
        wal.reset().unwrap();
        wal.append(&WalOp::Delete(vec![5])).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (ops, replay) = DeltaWal::replay(&path).unwrap();
        assert_eq!(ops, vec![WalOp::Delete(vec![5])]);
        assert_eq!(replay.records, 1);
        assert_eq!(replay.dropped_tail_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn create_truncates_a_preexisting_wal() {
        let path = temp_wal("create-truncates");
        let mut wal = DeltaWal::create(&path).unwrap();
        wal.append(&WalOp::Delete(vec![1, 2])).unwrap();
        wal.sync().unwrap();
        drop(wal);
        drop(DeltaWal::create(&path).unwrap());
        let (ops, replay) = DeltaWal::replay(&path).unwrap();
        assert!(ops.is_empty());
        assert_eq!(replay, WalReplay::default());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reset_empties_the_log() {
        let path = temp_wal("reset");
        let mut wal = DeltaWal::create(&path).unwrap();
        wal.append(&WalOp::Delete(vec![1])).unwrap();
        wal.reset().unwrap();
        let (ops, replay) = DeltaWal::replay(&path).unwrap();
        assert!(ops.is_empty());
        assert_eq!(replay.records, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn injected_torn_append_poisons_and_leaves_a_replayable_prefix() {
        let path = temp_wal("injected-torn");
        let mut wal = DeltaWal::create(&path).unwrap();
        wal.set_faults(Faults::new(
            dm_faults::FaultPlan::seeded(11).with_wal_torn_nth(2),
        ));
        wal.append(&WalOp::Delete(vec![1])).unwrap();
        let err = wal.append(&WalOp::Delete(vec![2])).unwrap_err();
        assert!(err.to_string().contains("torn"), "{err}");
        // The tear cannot be rolled back (a real crash would not), so the
        // handle refuses to append behind the stranded partial record.
        assert!(wal.append(&WalOp::Delete(vec![3])).is_err());
        drop(wal);
        // Replay sees the intact prefix and reports the tear as a torn tail.
        let (ops, replay) = DeltaWal::replay(&path).unwrap();
        assert_eq!(ops, vec![WalOp::Delete(vec![1])]);
        assert!(replay.dropped_tail_bytes > 0);
        // Reopening truncates the tear; service resumes cleanly.
        let mut wal = DeltaWal::open_append(&path, replay).unwrap();
        wal.append(&WalOp::Delete(vec![9])).unwrap();
        drop(wal);
        let (ops, replay) = DeltaWal::replay(&path).unwrap();
        assert_eq!(ops, vec![WalOp::Delete(vec![1]), WalOp::Delete(vec![9])]);
        assert_eq!(replay.dropped_tail_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn injected_append_refusal_is_clean_and_injected_fsync_failure_surfaces() {
        let path = temp_wal("injected-fail");
        let mut wal = DeltaWal::create(&path).unwrap();
        wal.set_faults(Faults::new(
            dm_faults::FaultPlan::seeded(11)
                .with_wal_append_fail_nth(1)
                .with_wal_fsync_fail_nth(1),
        ));
        let err = wal.append(&WalOp::Delete(vec![1])).unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        // A refused append wrote nothing: the next append succeeds.
        wal.append(&WalOp::Delete(vec![2])).unwrap();
        let err = wal.sync().unwrap_err();
        assert!(err.to_string().contains("fsync"), "{err}");
        // The nth-call trigger is one-shot: the retried sync goes through.
        wal.sync().unwrap();
        drop(wal);
        let (ops, replay) = DeltaWal::replay(&path).unwrap();
        assert_eq!(ops, vec![WalOp::Delete(vec![2])]);
        assert_eq!(replay.dropped_tail_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }
}
