//! The simulated disk.
//!
//! The paper's small-size machine is an AWS t2-medium whose dataset lives on disk and
//! whose 3 GB memory pool cannot hold it; loading a partition therefore pays real I/O.
//! This repository has neither that machine nor 10 GB datasets, so the disk is
//! simulated: partitions are compressed frames held in byte buffers, every read is
//! counted, and a configurable bandwidth/latency model converts bytes into simulated
//! I/O time.  The buffer pool and the benchmark harness read those counters to report
//! latencies that include the I/O component, which is exactly the quantity Table I
//! compares across systems.

use crate::metrics::Metrics;
use crate::{Result, StorageError};
use dm_compress::Codec;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Bandwidth/latency model for the simulated device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskProfile {
    /// Sustained read bandwidth in bytes per second.
    pub read_bandwidth: f64,
    /// Fixed per-read latency (seek + request overhead).
    pub read_latency: Duration,
}

impl DiskProfile {
    /// A general-purpose cloud block device, roughly what a t2-medium's EBS volume
    /// sustains: ~120 MB/s with ~0.5 ms per request.
    pub fn edge_ssd() -> Self {
        DiskProfile {
            read_bandwidth: 120.0 * 1024.0 * 1024.0,
            read_latency: Duration::from_micros(500),
        }
    }

    /// No I/O cost at all (pure in-memory runs).
    pub fn free() -> Self {
        DiskProfile {
            read_bandwidth: f64::INFINITY,
            read_latency: Duration::ZERO,
        }
    }

    /// Simulated time to read `bytes`.
    pub fn read_time(&self, bytes: usize) -> Duration {
        if bytes == 0 {
            return Duration::ZERO;
        }
        let transfer = if self.read_bandwidth.is_finite() && self.read_bandwidth > 0.0 {
            Duration::from_secs_f64(bytes as f64 / self.read_bandwidth)
        } else {
            Duration::ZERO
        };
        self.read_latency + transfer
    }
}

/// A partition stored on the simulated disk: a compressed frame plus bookkeeping.
#[derive(Debug, Clone)]
struct StoredPartition {
    frame: Arc<Vec<u8>>,
}

/// The simulated disk: a map from partition id to compressed frame.
#[derive(Debug, Default)]
pub struct SimulatedDisk {
    partitions: RwLock<HashMap<u64, StoredPartition>>,
    next_id: RwLock<u64>,
    profile: DiskProfile,
}

impl Default for DiskProfile {
    fn default() -> Self {
        DiskProfile::edge_ssd()
    }
}

impl SimulatedDisk {
    /// Creates an empty disk with the given I/O profile.
    pub fn new(profile: DiskProfile) -> Self {
        SimulatedDisk {
            partitions: RwLock::new(HashMap::new()),
            next_id: RwLock::new(0),
            profile,
        }
    }

    /// Compresses `payload` with `codec` and writes it as a new partition, returning
    /// its id.
    pub fn write_partition(&self, codec: &Codec, payload: &[u8]) -> u64 {
        let frame = dm_compress::compress_frame(codec, payload);
        let mut next = self.next_id.write();
        let id = *next;
        *next += 1;
        self.partitions.write().insert(
            id,
            StoredPartition {
                frame: Arc::new(frame),
            },
        );
        id
    }

    /// Replaces the contents of an existing partition.
    pub fn rewrite_partition(&self, id: u64, codec: &Codec, payload: &[u8]) -> Result<()> {
        let frame = dm_compress::compress_frame(codec, payload);
        let mut partitions = self.partitions.write();
        match partitions.get_mut(&id) {
            Some(slot) => {
                slot.frame = Arc::new(frame);
                Ok(())
            }
            None => Err(StorageError::MissingPartition(id)),
        }
    }

    /// Deletes a partition.
    pub fn delete_partition(&self, id: u64) -> Result<()> {
        self.partitions
            .write()
            .remove(&id)
            .map(|_| ())
            .ok_or(StorageError::MissingPartition(id))
    }

    /// Reads a partition's raw frame, charging I/O to `metrics`, and returns the
    /// compressed frame bytes (decompression is the caller's responsibility so its
    /// cost can be attributed separately).
    pub fn read_frame(&self, id: u64, metrics: &Metrics) -> Result<Arc<Vec<u8>>> {
        let partitions = self.partitions.read();
        let stored = partitions
            .get(&id)
            .ok_or(StorageError::MissingPartition(id))?;
        let bytes = stored.frame.len();
        metrics.add_read(bytes as u64, self.profile.read_time(bytes));
        Ok(Arc::clone(&stored.frame))
    }

    /// Reads and decompresses a partition in one step.
    pub fn read_partition(&self, id: u64, metrics: &Metrics) -> Result<Vec<u8>> {
        let frame = self.read_frame(id, metrics)?;
        metrics.add_decompression();
        dm_compress::decompress_frame(&frame).map_err(StorageError::from)
    }

    /// Number of partitions currently stored.
    pub fn partition_count(&self) -> usize {
        self.partitions.read().len()
    }

    /// Total compressed bytes on disk.
    pub fn total_bytes(&self) -> usize {
        self.partitions
            .read()
            .values()
            .map(|p| p.frame.len())
            .sum()
    }

    /// Compressed size of one partition.
    pub fn partition_bytes(&self, id: u64) -> Result<usize> {
        self.partitions
            .read()
            .get(&id)
            .map(|p| p.frame.len())
            .ok_or(StorageError::MissingPartition(id))
    }
}

impl crate::source::PartitionSource for SimulatedDisk {
    fn read_frame(&self, id: u64, metrics: &Metrics) -> Result<std::sync::Arc<Vec<u8>>> {
        SimulatedDisk::read_frame(self, id, metrics)
    }

    fn read_partition(&self, id: u64, metrics: &Metrics) -> Result<Vec<u8>> {
        SimulatedDisk::read_partition(self, id, metrics)
    }

    fn partition_bytes(&self, id: u64) -> Result<usize> {
        SimulatedDisk::partition_bytes(self, id)
    }

    fn partition_count(&self) -> usize {
        SimulatedDisk::partition_count(self)
    }

    fn total_bytes(&self) -> usize {
        SimulatedDisk::total_bytes(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disk_profile_read_time_scales_with_bytes() {
        let profile = DiskProfile {
            read_bandwidth: 1024.0 * 1024.0, // 1 MiB/s
            read_latency: Duration::from_millis(1),
        };
        assert_eq!(profile.read_time(0), Duration::ZERO);
        let one_mib = profile.read_time(1024 * 1024);
        assert!(one_mib >= Duration::from_millis(1000));
        assert!(one_mib <= Duration::from_millis(1002));
        assert_eq!(DiskProfile::free().read_time(1 << 30), Duration::ZERO);
        assert!(DiskProfile::edge_ssd().read_time(1 << 20) > Duration::from_millis(8));
    }

    #[test]
    fn write_read_round_trip_with_metrics() {
        let disk = SimulatedDisk::new(DiskProfile::edge_ssd());
        let metrics = Metrics::new();
        let payload: Vec<u8> = (0..10_000u32).flat_map(|i| [(i % 3) as u8, (i % 7) as u8]).collect();
        let id = disk.write_partition(&Codec::Lz, &payload);
        assert_eq!(disk.partition_count(), 1);
        assert!(disk.total_bytes() > 0);
        assert!(disk.total_bytes() < payload.len());
        let restored = disk.read_partition(id, &metrics).unwrap();
        assert_eq!(restored, payload);
        let snap = metrics.snapshot();
        assert_eq!(snap.partition_loads, 1);
        assert_eq!(snap.decompressions, 1);
        assert!(snap.bytes_read > 0);
        assert!(snap.simulated_io_nanos > 0);
    }

    #[test]
    fn rewrite_and_delete() {
        let disk = SimulatedDisk::new(DiskProfile::free());
        let metrics = Metrics::new();
        let id = disk.write_partition(&Codec::None, b"version-1");
        disk.rewrite_partition(id, &Codec::None, b"version-2").unwrap();
        assert_eq!(disk.read_partition(id, &metrics).unwrap(), b"version-2");
        disk.delete_partition(id).unwrap();
        assert!(matches!(
            disk.read_partition(id, &metrics),
            Err(StorageError::MissingPartition(_))
        ));
        assert!(disk.rewrite_partition(id, &Codec::None, b"x").is_err());
        assert!(disk.delete_partition(id).is_err());
        assert!(disk.partition_bytes(id).is_err());
    }

    #[test]
    fn partition_ids_are_unique() {
        let disk = SimulatedDisk::new(DiskProfile::free());
        let ids: Vec<u64> = (0..10)
            .map(|i| disk.write_partition(&Codec::None, &[i as u8]))
            .collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len());
    }
}
