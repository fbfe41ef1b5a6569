//! The versioned single-file snapshot format, with lazy partition serving.
//!
//! ## File layout
//!
//! ```text
//! offset 0   header (28 bytes, fixed):
//!              magic "DMSS" | version u16 | reserved u16
//!              | file_len u64 | manifest_len u64 | manifest_crc u32
//! then       manifest        (see crate::manifest — config, schema, decode
//!                             labels, counters, overlay, section table)
//! then       model section   (dm_nn::serialize bytes, CRC in manifest)
//! then       existence section (BitVec::to_bytes, CRC in manifest)
//! then       base section    (BitVec::to_bytes, CRC in manifest): the keys
//!                             whose rows the partition frames hold
//! then       partition frames, one per directory entry, in partition order
//!            (self-describing dm_compress frames around keyless bit-packed
//!             columns, copied verbatim; per-frame CRC in the manifest directory)
//! ```
//!
//! Partition `i` holds the rows of the keys with ordinals `[i·R, (i+1)·R)` among
//! `base`'s set bits (`R` follows from the config's `partition_bytes`).  `Vaux`,
//! which routes lookups, is not a section: open rebuilds it as
//! `(base − tombstones) ∪ delta.keys` from the overlay the manifest carries, and
//! WAL replay then moves it like any live write.
//!
//! All integers are little-endian.  Offsets are never stored: every section's
//! position is the cumulative sum of the lengths recorded before it, so a
//! mangled length immediately contradicts `file_len` and surfaces as a typed
//! [`PersistError`] at open instead of a misread later.
//!
//! ## Laziness
//!
//! [`Snapshot::open`] reads everything *except* the partition frames eagerly.
//! Partitions are served on demand by a [`FilePartitionSource`] plugged into the
//! store's single-flight buffer pool: a cold partition costs one positional
//! read plus one unframing, misses on different partitions proceed in parallel
//! (the pool's lock is never held across a load), and racing readers of one
//! partition deduplicate into one load.
//!
//! ## Open-time checks
//!
//! With no keys in the partitions, a wrong `base` or a misplaced frame would
//! not fail a search — it would shift answers.  So every section's CRC is
//! verified before it is parsed (the rank index is only ever built over
//! verified `base` bytes); the directory's row counts must be exactly the
//! partitions `base` implies — `R` rows in all but the last, summing to its set
//! bits — or open fails with [`PersistError::Corrupt`]; and a frame that later
//! loads with another shape than its directory slot (say, another partition's
//! valid frame) is a `StorageError::Corrupt` for exactly the keys addressed
//! into it.  Every store serves int8: a manifest tagged with the f32
//! arithmetic, or a model section with any f32 layer, is refused with
//! [`PersistError::Corrupt`] too.
//!
//! ## Compatibility policy
//!
//! The header version is bumped on any layout change, additive ones included
//! (the manifest decoder rejects trailing bytes so mixed-version files cannot
//! half-parse), and `open` rejects every version but the current one with
//! [`PersistError::UnsupportedVersion`] rather than guessing.  v1 memorized its
//! aux table under another arithmetic recipe, v2 had no quantization
//! descriptor, v3 no corrected-key bitmap, and v4 stored keyed row-array
//! partitions (plus their key ranges and a `memorized_tuples` counter in the
//! manifest) that rank addressing cannot read; none was ever deployed.

use crate::error::{PersistError, Result};
use crate::manifest::{Manifest, PartitionEntry};
use dm_core::{
    AuxTable, AuxTableSnapshot, DecodeMap, DeepMapping, DeepMappingParts, MappingModel,
};
use dm_nn::serialize::{ByteReader, ByteWriter};
use dm_storage::{BitVec, FileExtent, FilePartitionSource, Metrics};
use std::collections::HashMap;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"DMSS";
/// The one version [`Snapshot::write`] writes and [`Snapshot::open`] accepts;
/// see the module docs for the version history.
const VERSION: u16 = 5;
/// magic(4) + version(2) + reserved(2) + file_len(8) + manifest_len(8) + manifest_crc(4)
const HEADER_LEN: u64 = 28;

/// What [`Snapshot::write`] wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Total file size in bytes.
    pub file_bytes: u64,
    /// Bytes a subsequent open will read eagerly (header + manifest + model +
    /// existence + `base`).
    pub eager_bytes: u64,
    /// Bytes held by the lazily served partition frames.
    pub partition_bytes: u64,
    /// Number of partition frames.
    pub partition_count: usize,
}

/// What [`Snapshot::open_with_stats`] read before returning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenStats {
    /// Total file size in bytes.
    pub file_bytes: u64,
    /// Bytes read eagerly during open (header + manifest + model + existence +
    /// `base`); everything else is served lazily through the buffer pool.
    pub eager_bytes: u64,
    /// Number of partitions left on disk for lazy serving.
    pub partition_count: usize,
}

/// Namespace for snapshot I/O.  See the module docs for the file layout.
#[derive(Debug)]
pub struct Snapshot;

impl Snapshot {
    /// Serializes `dm` into a single snapshot file at `path`, atomically: the
    /// bytes land in a sibling temp file which is fsynced and then renamed over
    /// `path`, so a crash mid-write never leaves a half-snapshot under the
    /// final name.
    pub fn write(dm: &DeepMapping, path: impl AsRef<Path>) -> Result<SnapshotStats> {
        Self::stage(dm, path.as_ref())?.commit()
    }

    /// The write half of [`write`](Self::write) without the rename: the full
    /// snapshot is written and fsynced at a sibling temp path but not yet
    /// visible under `path`.  `PersistentStore::create` uses this to order the
    /// stale-WAL truncation between the expensive (failure-prone) section
    /// writes and the cheap rename — if staging fails, whatever previously
    /// lived at `path` (snapshot *and* WAL) is untouched and fully
    /// recoverable.
    pub(crate) fn stage(dm: &DeepMapping, path: &Path) -> Result<StagedSnapshot> {
        let model_bytes = dm.model().to_bytes();
        let exist_bytes = dm.existence().to_bytes();
        let aux = dm.aux_table().to_snapshot();
        let base_bytes = aux.base.to_bytes();
        // Pass 1 over the partition frames: directory entries (length + CRC)
        // only, each frame dropped after hashing so checkpointing a large
        // (possibly file-backed) store never holds more than one frame in
        // memory.  Pass 2 below streams the same frames into the file.
        let partition_count = dm.aux_table().partition_count();
        let mut partitions = Vec::with_capacity(partition_count);
        for idx in 0..partition_count {
            let frame = dm.aux_table().partition_frame(idx)?;
            partitions.push(PartitionEntry {
                rows: frame.rows as u64,
                frame_len: frame.frame.len() as u64,
                frame_crc: dm_compress::crc32(&frame.frame),
            });
        }
        let manifest = Manifest {
            config: dm.config().clone(),
            schema: dm.model().schema().clone(),
            decode_labels: dm.decode_map().labels().to_vec(),
            tuple_count: dm.len() as u64,
            retrain_count: dm.retrain_count() as u64,
            value_columns: aux.value_columns as u32,
            partitions,
            delta: aux.delta,
            tombstones: aux.tombstones,
            model_len: model_bytes.len() as u64,
            model_crc: dm_compress::crc32(&model_bytes),
            exist_len: exist_bytes.len() as u64,
            exist_crc: dm_compress::crc32(&exist_bytes),
            base_len: base_bytes.len() as u64,
            base_crc: dm_compress::crc32(&base_bytes),
        };
        let manifest_bytes = manifest.encode();
        let partition_bytes: u64 = manifest.partitions.iter().map(|p| p.frame_len).sum();
        let file_len = HEADER_LEN
            + manifest_bytes.len() as u64
            + model_bytes.len() as u64
            + exist_bytes.len() as u64
            + base_bytes.len() as u64
            + partition_bytes;

        let mut header = ByteWriter::new();
        header.put_bytes(MAGIC);
        header.put_u16(VERSION);
        header.put_u16(0);
        header.put_u64(file_len);
        header.put_u64(manifest_bytes.len() as u64);
        header.put_u32(dm_compress::crc32(&manifest_bytes));
        let header = header.into_bytes();
        debug_assert_eq!(header.len() as u64, HEADER_LEN);

        let tmp_path = temp_sibling(path);
        dm_faults::crash::site("snapshot.stage.begin");
        let mut file = File::create(&tmp_path)?;
        let write_result = (|| -> Result<()> {
            file.write_all(&header)?;
            file.write_all(&manifest_bytes)?;
            file.write_all(&model_bytes)?;
            file.write_all(&exist_bytes)?;
            file.write_all(&base_bytes)?;
            // Pass 2: stream each frame, re-fetched one at a time.  The store
            // is borrowed shared for the whole write, so the frames cannot
            // have changed since pass 1 — but verify anyway: a length drift
            // here would corrupt the file silently.
            for (idx, entry) in manifest.partitions.iter().enumerate() {
                let frame = dm.aux_table().partition_frame(idx)?;
                if frame.frame.len() as u64 != entry.frame_len {
                    return Err(PersistError::Corrupt {
                        section: "partition frames",
                        detail: format!(
                            "partition {idx} changed size mid-write ({} vs {} bytes)",
                            frame.frame.len(),
                            entry.frame_len
                        ),
                    });
                }
                file.write_all(&frame.frame)?;
            }
            file.sync_all()?;
            dm_faults::crash::site("snapshot.stage.synced");
            Ok(())
        })();
        drop(file);
        if let Err(err) = write_result {
            let _ = std::fs::remove_file(&tmp_path);
            return Err(err);
        }
        Ok(StagedSnapshot {
            tmp_path: Some(tmp_path),
            final_path: path.to_path_buf(),
            stats: SnapshotStats {
                file_bytes: file_len,
                eager_bytes: file_len - partition_bytes,
                partition_bytes,
                partition_count: manifest.partitions.len(),
            },
        })
    }

    /// Opens a snapshot, loading only the manifest, model and existence state
    /// eagerly; auxiliary partitions stay in the file and are decompressed on
    /// first touch through the store's buffer pool.
    pub fn open(path: impl AsRef<Path>) -> Result<DeepMapping> {
        Ok(Self::open_with_stats(path)?.0)
    }

    /// [`open`](Self::open), also reporting how many bytes the open itself read —
    /// the counter behind the cold-start bench's lazy-loading claim.
    pub fn open_with_stats(path: impl AsRef<Path>) -> Result<(DeepMapping, OpenStats)> {
        let path = path.as_ref();
        let actual_len = std::fs::metadata(path)?.len();
        let mut file = File::open(path)?;

        // Header.
        if actual_len < HEADER_LEN {
            return Err(PersistError::Truncated {
                section: "header",
                expected: HEADER_LEN,
                actual: actual_len,
            });
        }
        let mut header = [0u8; HEADER_LEN as usize];
        file.read_exact(&mut header)?;
        let mut r = ByteReader::new(&header);
        let magic = r.get_bytes(4).expect("header length checked");
        if magic != MAGIC {
            return Err(PersistError::BadMagic);
        }
        let version = r.get_u16().expect("header length checked");
        if version != VERSION {
            return Err(PersistError::UnsupportedVersion(version));
        }
        let _reserved = r.get_u16().expect("header length checked");
        let file_len = r.get_u64().expect("header length checked");
        let manifest_len = r.get_u64().expect("header length checked");
        let manifest_crc = r.get_u32().expect("header length checked");
        if actual_len < file_len {
            return Err(PersistError::Truncated {
                section: "file body",
                expected: file_len,
                actual: actual_len,
            });
        }
        if actual_len > file_len {
            return Err(PersistError::Corrupt {
                section: "file body",
                detail: format!("{} trailing bytes after declared end", actual_len - file_len),
            });
        }

        // The manifest length must fit inside the (already cross-checked) file
        // length BEFORE it sizes an allocation: a single corrupted header field
        // must surface as a typed error, not an OOM abort.
        if manifest_len > file_len - HEADER_LEN {
            return Err(PersistError::Corrupt {
                section: "header",
                detail: format!(
                    "manifest length {manifest_len} does not fit in the {file_len}-byte file"
                ),
            });
        }

        // Manifest.
        let manifest_bytes = read_section(&mut file, manifest_len, "manifest")?;
        if dm_compress::crc32(&manifest_bytes) != manifest_crc {
            return Err(PersistError::ChecksumMismatch {
                section: "manifest",
            });
        }
        let manifest = Manifest::decode(&manifest_bytes)?;
        // Checked sums: corrupted lengths must not wrap around and accidentally
        // match `file_len` — and this check runs before any section length
        // sizes an allocation, so every section length is bounded by the real
        // file size by the time it is read.
        let overflow = || PersistError::Corrupt {
            section: "section table",
            detail: "section lengths overflow u64".into(),
        };
        let partition_bytes = manifest
            .partitions
            .iter()
            .try_fold(0u64, |acc, p| acc.checked_add(p.frame_len))
            .ok_or_else(overflow)?;
        let eager_bytes = [manifest.model_len, manifest.exist_len, manifest.base_len]
            .into_iter()
            .try_fold(HEADER_LEN + manifest_len, u64::checked_add)
            .ok_or_else(overflow)?;
        let declared_len = eager_bytes
            .checked_add(partition_bytes)
            .ok_or_else(overflow)?;
        if declared_len != file_len {
            return Err(PersistError::Corrupt {
                section: "section table",
                detail: format!(
                    "sections sum to {declared_len} bytes but the file declares {file_len}"
                ),
            });
        }

        // Eager sections: model, then existence, then base — each CRC-checked
        // before it is parsed.
        let model_bytes = read_section(&mut file, manifest.model_len, "model")?;
        if dm_compress::crc32(&model_bytes) != manifest.model_crc {
            return Err(PersistError::ChecksumMismatch { section: "model" });
        }
        let exist_bytes = read_section(&mut file, manifest.exist_len, "existence")?;
        if dm_compress::crc32(&exist_bytes) != manifest.exist_crc {
            return Err(PersistError::ChecksumMismatch {
                section: "existence",
            });
        }
        let base_bytes = read_section(&mut file, manifest.base_len, "base")?;
        if dm_compress::crc32(&base_bytes) != manifest.base_crc {
            return Err(PersistError::ChecksumMismatch { section: "base" });
        }
        let network = dm_nn::serialize::deserialize_multitask(&model_bytes)?;
        let mut layers = network.trunk().iter().chain(network.heads().iter().flatten());
        if let Some(at) = layers.position(|layer| !layer.is_quantized()) {
            return Err(PersistError::Corrupt {
                section: "model",
                detail: format!("layer {at} serves f32 arithmetic; only int8 stores open"),
            });
        }
        let model = MappingModel::from_parts(manifest.schema.clone(), network)?;
        let exist = BitVec::from_bytes(&exist_bytes)?;
        let base = BitVec::from_bytes(&base_bytes)?;
        if base.count_ones() > u32::MAX as u64 {
            return Err(PersistError::Corrupt {
                section: "base",
                detail: format!("{} keys exceed what ranks can address", base.count_ones()),
            });
        }

        // Lazy partitions: extents begin right after the eager sections.
        let mut extents = HashMap::with_capacity(manifest.partitions.len());
        let mut offset = eager_bytes;
        for (id, entry) in manifest.partitions.iter().enumerate() {
            extents.insert(
                id as u64,
                FileExtent {
                    offset,
                    len: entry.frame_len,
                    crc32: entry.frame_crc,
                },
            );
            offset += entry.frame_len;
        }
        // Rewind so the source owns a clean handle (positional reads ignore the
        // cursor on Unix, but the fallback path starts from a known state).
        file.seek(SeekFrom::Start(0))?;
        let source = Arc::new(FilePartitionSource::new(file, extents));

        let metrics = Metrics::new();
        let aux = AuxTable::open_from_source(
            source,
            AuxTableSnapshot {
                codec: manifest.config.codec,
                partition_bytes: manifest.config.partition_bytes,
                memory_budget_bytes: manifest.config.memory_budget_bytes,
                disk_profile: manifest.config.disk_profile,
                value_columns: manifest.value_columns as usize,
                base,
                delta: manifest.delta,
                tombstones: manifest.tombstones,
            },
            metrics,
        );
        // The directory must describe exactly the partitions `base`'s ranks
        // address: nothing inside a keyless frame could tell later.
        let implied = (0..aux.partition_count()).map(|idx| aux.partition_len(idx) as u64);
        if !manifest.partitions.iter().map(|p| p.rows).eq(implied) {
            return Err(PersistError::Corrupt {
                section: "partition directory",
                detail: format!(
                    "{} entries do not partition the {} keys of base",
                    manifest.partitions.len(),
                    aux.base().count_ones()
                ),
            });
        }
        let dm = DeepMapping::from_parts(DeepMappingParts {
            config: manifest.config,
            model,
            aux,
            exist,
            decode_map: DecodeMap::from_labels(manifest.decode_labels),
            tuple_count: manifest.tuple_count as usize,
            retrain_count: manifest.retrain_count as usize,
        });
        Ok((
            dm,
            OpenStats {
                file_bytes: file_len,
                eager_bytes,
                partition_count: manifest.partitions.len(),
            },
        ))
    }
}

/// A fully written, fsynced snapshot that is not yet visible under its final
/// name (see [`Snapshot::stage`]).  Dropping it uncommitted removes the temp
/// file.
#[derive(Debug)]
pub(crate) struct StagedSnapshot {
    /// `Some` until committed; the `Drop` cleanup keys off it.
    tmp_path: Option<std::path::PathBuf>,
    final_path: std::path::PathBuf,
    stats: SnapshotStats,
}

impl StagedSnapshot {
    /// Renames the staged file over the final path and makes the rename itself
    /// durable by fsyncing the parent directory — a power failure after this
    /// returns cannot resurface the *old* snapshot next to an already-reset
    /// WAL (losing the folded mutations).
    pub(crate) fn commit(mut self) -> Result<SnapshotStats> {
        let tmp = self.tmp_path.take().expect("staged snapshot committed twice");
        dm_faults::crash::site("snapshot.commit.begin");
        if let Err(err) = std::fs::rename(&tmp, &self.final_path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(err.into());
        }
        dm_faults::crash::site("snapshot.commit.renamed");
        sync_parent_dir(&self.final_path)?;
        dm_faults::crash::site("snapshot.commit.done");
        Ok(self.stats)
    }
}

impl Drop for StagedSnapshot {
    fn drop(&mut self) {
        if let Some(tmp) = &self.tmp_path {
            let _ = std::fs::remove_file(tmp);
        }
    }
}

/// Extension methods on [`DeepMapping`] so callers can write
/// `DeepMapping::open(path)` / `dm.write_snapshot(path)` without naming
/// [`Snapshot`] (the facade prelude re-exports this trait).
pub trait SnapshotExt: Sized {
    /// Opens a snapshot file written by [`write_snapshot`](Self::write_snapshot).
    fn open(path: impl AsRef<Path>) -> Result<Self>;

    /// Writes this store into a single snapshot file, atomically.
    fn write_snapshot(&self, path: impl AsRef<Path>) -> Result<SnapshotStats>;
}

impl SnapshotExt for DeepMapping {
    fn open(path: impl AsRef<Path>) -> Result<Self> {
        Snapshot::open(path)
    }

    fn write_snapshot(&self, path: impl AsRef<Path>) -> Result<SnapshotStats> {
        Snapshot::write(self, path)
    }
}

fn read_section(file: &mut File, len: u64, section: &'static str) -> Result<Vec<u8>> {
    if len > 1 << 40 {
        return Err(PersistError::Corrupt {
            section,
            detail: format!("implausible section length {len}"),
        });
    }
    let mut bytes = vec![0u8; len as usize];
    let mut filled = 0usize;
    while filled < bytes.len() {
        match file.read(&mut bytes[filled..]) {
            Ok(0) => {
                // End of file mid-section: truncation, reported with how much
                // of the section was actually present.
                return Err(PersistError::Truncated {
                    section,
                    expected: len,
                    actual: filled as u64,
                });
            }
            Ok(n) => filled += n,
            Err(err) if err.kind() == std::io::ErrorKind::Interrupted => continue,
            // A genuine I/O failure (EIO, ...) is not truncation — say so.
            Err(err) => return Err(PersistError::Io(format!("reading {section}: {err}"))),
        }
    }
    Ok(bytes)
}

/// Fsyncs the directory containing `path`, making a completed rename durable.
/// Directories cannot be fsynced on every platform; treat a failure to *open*
/// the directory as best-effort, but surface real sync errors.
fn sync_parent_dir(path: &Path) -> Result<()> {
    let parent = match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent,
        _ => return Ok(()),
    };
    match File::open(parent) {
        Ok(dir) => {
            dir.sync_all()?;
            Ok(())
        }
        // Some platforms/filesystems refuse to open directories; the rename
        // already succeeded, so do not fail the snapshot over this.
        Err(_) => Ok(()),
    }
}

/// A sibling temp path for atomic replacement (same directory, so the rename
/// stays on one filesystem).
pub(crate) fn temp_sibling(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".tmp.{}", std::process::id()));
    path.with_file_name(name)
}
