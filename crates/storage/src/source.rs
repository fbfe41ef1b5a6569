//! The partition-source abstraction behind the buffer pool.
//!
//! PR 1–3 served every compressed auxiliary/baseline partition from the
//! [`SimulatedDisk`](crate::disk::SimulatedDisk) — an in-memory frame map with a
//! configurable bandwidth/latency *model*.  The persistence layer (`dm-persist`)
//! adds a second backing: partitions living as byte extents inside a single
//! snapshot file, read with real positional I/O.  [`PartitionSource`] is the seam
//! both implement, so the buffer pool, the auxiliary table and the baselines are
//! agnostic about whether a cold load pays simulated or real I/O:
//!
//! * [`SimulatedDisk`](crate::disk::SimulatedDisk) — writable, in-memory frames,
//!   simulated read costs (the build path and all pre-persistence workloads),
//! * [`FilePartitionSource`] — read-only extents of an open snapshot file, one
//!   `pread` per cold partition (fully parallel under `dm-exec`; no shared file
//!   cursor), CRC-checked so a flipped bit surfaces as a typed corruption error
//!   instead of garbage answers.

use crate::metrics::Metrics;
use crate::{Result, StorageError};
use std::collections::HashMap;
use std::fs::File;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A read-only supplier of compressed partition frames, keyed by partition id.
///
/// Implementations charge the bytes of every frame read to the per-store
/// [`Metrics`], plus the *modelled* I/O time when the read is simulated (a
/// real read's time is wall time already), so the Figure-7 latency breakdown
/// sees real and simulated I/O through one accounting path.
pub trait PartitionSource: Send + Sync + std::fmt::Debug {
    /// Reads the raw compressed frame of partition `id` (no decompression).
    fn read_frame(&self, id: u64, metrics: &Metrics) -> Result<Arc<Vec<u8>>>;

    /// Reads and decompresses partition `id` in one step.
    fn read_partition(&self, id: u64, metrics: &Metrics) -> Result<Vec<u8>> {
        let frame = self.read_frame(id, metrics)?;
        metrics.add_decompression();
        dm_compress::decompress_frame(&frame).map_err(StorageError::from)
    }

    /// Compressed size of one partition in bytes.
    fn partition_bytes(&self, id: u64) -> Result<usize>;

    /// Number of partitions this source serves.
    fn partition_count(&self) -> usize;

    /// Total compressed bytes across all partitions.
    fn total_bytes(&self) -> usize;
}

/// One partition's byte extent inside a snapshot file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileExtent {
    /// Absolute byte offset of the frame within the file.
    pub offset: u64,
    /// Frame length in bytes.
    pub len: u64,
    /// CRC-32 of the frame bytes, verified on every cold read.
    pub crc32: u32,
}

/// A read-only [`PartitionSource`] over byte extents of an open file — the lazy
/// serving half of the `dm-persist` snapshot format.
///
/// Each cold read is one positional read (`pread` on Unix) of exactly the frame's
/// extent, so concurrent loads of different partitions proceed fully in parallel
/// with no shared cursor, and the total [`bytes_read`](Self::bytes_read) counter
/// measures precisely how much of the snapshot a workload has touched.
#[derive(Debug)]
pub struct FilePartitionSource {
    file: File,
    extents: HashMap<u64, FileExtent>,
    total_bytes: usize,
    bytes_read: AtomicU64,
    /// Fallback for targets without positional reads: serialize seeks on the
    /// shared cursor.  Unused (and absent) on Unix.
    #[cfg(not(unix))]
    seek_guard: parking_lot::Mutex<()>,
}

impl FilePartitionSource {
    /// Wraps an open file and the extent of every partition id it serves.
    pub fn new(file: File, extents: HashMap<u64, FileExtent>) -> Self {
        let total_bytes = extents.values().map(|e| e.len as usize).sum();
        FilePartitionSource {
            file,
            extents,
            total_bytes,
            bytes_read: AtomicU64::new(0),
            #[cfg(not(unix))]
            seek_guard: parking_lot::Mutex::new(()),
        }
    }

    /// Total bytes this source has read from the file so far — the counter behind
    /// the cold-start bench's "bytes read vs. full snapshot size" claim.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }

    #[cfg(unix)]
    fn read_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
        std::os::unix::fs::FileExt::read_exact_at(&self.file, buf, offset)
    }

    #[cfg(not(unix))]
    fn read_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
        use std::io::{Read, Seek, SeekFrom};
        let _guard = self.seek_guard.lock();
        let mut file = &self.file;
        file.seek(SeekFrom::Start(offset))?;
        file.read_exact(buf)
    }
}

impl PartitionSource for FilePartitionSource {
    fn read_frame(&self, id: u64, metrics: &Metrics) -> Result<Arc<Vec<u8>>> {
        let extent = self
            .extents
            .get(&id)
            .copied()
            .ok_or(StorageError::MissingPartition(id))?;
        let mut frame = vec![0u8; extent.len as usize];
        self.read_at(&mut frame, extent.offset).map_err(|err| {
            let detail = format!(
                "snapshot partition {id} unreadable at offset {} (+{} bytes): {err}",
                extent.offset, extent.len
            );
            // A short read means the file ends before the extent does — the
            // snapshot itself is damaged and no retry will grow it back.  Any
            // other failure is the device saying no; classify it transient so
            // the pool's retry policy gets a shot at it.
            if err.kind() == std::io::ErrorKind::UnexpectedEof {
                StorageError::Corrupt(detail)
            } else {
                StorageError::Io(detail)
            }
        })?;
        self.bytes_read.fetch_add(extent.len, Ordering::Relaxed);
        // A real read's time is already inside the caller's wall clock and
        // its `Phase::LoadAndDecompress`; only modelled I/O is "simulated".
        metrics.add_read(extent.len, Duration::ZERO);
        if dm_compress::crc32(&frame) != extent.crc32 {
            return Err(StorageError::Corrupt(format!(
                "snapshot partition {id} failed its CRC-32 check (bit rot or a torn write)"
            )));
        }
        Ok(Arc::new(frame))
    }

    fn partition_bytes(&self, id: u64) -> Result<usize> {
        self.extents
            .get(&id)
            .map(|e| e.len as usize)
            .ok_or(StorageError::MissingPartition(id))
    }

    fn partition_count(&self) -> usize {
        self.extents.len()
    }

    fn total_bytes(&self) -> usize {
        self.total_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_compress::Codec;
    use std::io::Write;

    fn write_frames(frames: &[Vec<u8>]) -> (tempfile::NamedTempPath, HashMap<u64, FileExtent>) {
        let path = tempfile::NamedTempPath::new("dm-storage-source-test");
        let mut file = File::create(&path.0).unwrap();
        let mut extents = HashMap::new();
        let mut offset = 0u64;
        for (id, frame) in frames.iter().enumerate() {
            file.write_all(frame).unwrap();
            extents.insert(
                id as u64,
                FileExtent {
                    offset,
                    len: frame.len() as u64,
                    crc32: dm_compress::crc32(frame),
                },
            );
            offset += frame.len() as u64;
        }
        file.sync_all().unwrap();
        (path, extents)
    }

    /// Minimal self-deleting temp path (no tempfile crate in the offline env).
    mod tempfile {
        pub struct NamedTempPath(pub std::path::PathBuf);
        impl NamedTempPath {
            pub fn new(tag: &str) -> Self {
                use std::sync::atomic::{AtomicU64, Ordering};
                static SEQ: AtomicU64 = AtomicU64::new(0);
                let unique = format!(
                    "{tag}-{}-{}",
                    std::process::id(),
                    SEQ.fetch_add(1, Ordering::Relaxed)
                );
                NamedTempPath(std::env::temp_dir().join(unique))
            }
        }
        impl Drop for NamedTempPath {
            fn drop(&mut self) {
                let _ = std::fs::remove_file(&self.0);
            }
        }
    }

    #[test]
    fn file_source_round_trips_frames_and_counts_bytes() {
        let payloads: Vec<Vec<u8>> = (0..3u8).map(|i| vec![i; 2000 + i as usize]).collect();
        let frames: Vec<Vec<u8>> = payloads
            .iter()
            .map(|p| dm_compress::compress_frame(&Codec::Lz, p))
            .collect();
        let (path, extents) = write_frames(&frames);
        let source = FilePartitionSource::new(File::open(&path.0).unwrap(), extents);
        assert_eq!(source.partition_count(), 3);
        assert_eq!(
            source.total_bytes(),
            frames.iter().map(|f| f.len()).sum::<usize>()
        );
        let metrics = Metrics::new();
        for (id, payload) in payloads.iter().enumerate() {
            let restored = source.read_partition(id as u64, &metrics).unwrap();
            assert_eq!(&restored, payload);
            assert_eq!(
                source.partition_bytes(id as u64).unwrap(),
                frames[id].len()
            );
        }
        assert_eq!(source.bytes_read() as usize, source.total_bytes());
        let snap = metrics.snapshot();
        assert_eq!(snap.partition_loads, 3);
        assert_eq!(snap.decompressions, 3);
        assert_eq!(snap.bytes_read as usize, source.total_bytes());
        assert_eq!(snap.simulated_io_nanos, 0, "real reads are not simulated I/O");
        assert!(matches!(
            source.read_frame(99, &metrics),
            Err(StorageError::MissingPartition(99))
        ));
    }

    #[test]
    fn flipped_bytes_fail_the_extent_crc() {
        let frame = dm_compress::compress_frame(&Codec::Lz, &vec![7u8; 4096]);
        let (path, mut extents) = write_frames(std::slice::from_ref(&frame));
        // Lie about the CRC, as if the file had been flipped after manifest write.
        extents.get_mut(&0).unwrap().crc32 ^= 1;
        let source = FilePartitionSource::new(File::open(&path.0).unwrap(), extents);
        let err = source.read_frame(0, &Metrics::new()).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(ref msg) if msg.contains("CRC")), "{err}");
    }

    #[test]
    fn extents_past_eof_error_instead_of_panicking() {
        let frame = dm_compress::compress_frame(&Codec::None, b"tiny");
        let (path, mut extents) = write_frames(std::slice::from_ref(&frame));
        extents.get_mut(&0).unwrap().len += 1_000;
        let source = FilePartitionSource::new(File::open(&path.0).unwrap(), extents);
        let err = source.read_frame(0, &Metrics::new()).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(ref msg) if msg.contains("unreadable")), "{err}");
    }

    /// The simulated disk serves the same trait, so pools and tables can swap
    /// backings without caring which one they got.
    #[test]
    fn simulated_disk_is_a_partition_source() {
        let disk = crate::disk::SimulatedDisk::new(crate::disk::DiskProfile::free());
        let metrics = Metrics::new();
        let id = disk.write_partition(&Codec::Lz, &vec![5u8; 1000], &metrics);
        let source: &dyn PartitionSource = &disk;
        assert_eq!(source.read_partition(id, &metrics).unwrap(), vec![5u8; 1000]);
        assert_eq!(source.partition_count(), 1);
        assert!(source.total_bytes() > 0);
        assert_eq!(source.partition_bytes(id).unwrap(), source.total_bytes());
    }
}
