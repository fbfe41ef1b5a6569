//! [`FaultyPartitionSource`] — the read-side injection seam.
//!
//! Wraps any [`PartitionSource`] and consults a shared [`Faults`] injector on
//! every frame read.  Injected outcomes map onto the storage error taxonomy
//! exactly as real hardware would produce them:
//!
//! * **transient** → [`StorageError::Io`] (retryable; the buffer pool's
//!   retry policy re-reads, which advances the per-partition call counter and
//!   re-rolls the deterministic coin),
//! * **latency spike** → the read simply takes longer (tail-latency chaos),
//! * **bit flip** → the returned frame has one bit flipped, so the next
//!   integrity check (the dm-compress frame checksum) fails with a typed
//!   corruption error — proving corruption is *served to nobody* and is
//!   never retried.
//!
//! Injected faults are also counted into the `dm-obs` global registry
//! (`dm_faults_injected_total` and per-kind counters) so a chaos run's
//! Prometheus scrape shows exactly what the plan did.

use crate::inject::{Faults, ReadOutcome};
use dm_storage::{Metrics, PartitionSource, StorageError};
use std::sync::{Arc, OnceLock};

fn obs_counter(name: &'static str) -> Arc<dm_obs::Counter> {
    dm_obs::registry::global().register_counter(name)
}

fn count_injected(kind: &'static str) {
    static TOTAL: OnceLock<Arc<dm_obs::Counter>> = OnceLock::new();
    TOTAL
        .get_or_init(|| obs_counter("dm_faults_injected_total"))
        .incr();
    obs_counter(kind).incr();
}

/// A [`PartitionSource`] decorator that injects the read-side faults of a
/// [`FaultPlan`](crate::FaultPlan).  See the [module docs](self).
#[derive(Debug)]
pub struct FaultyPartitionSource {
    inner: Arc<dyn PartitionSource>,
    faults: Arc<Faults>,
}

impl FaultyPartitionSource {
    /// Wraps `inner`, consulting `faults` on every frame read.
    pub fn new(inner: Arc<dyn PartitionSource>, faults: Arc<Faults>) -> Self {
        FaultyPartitionSource { inner, faults }
    }
}

impl PartitionSource for FaultyPartitionSource {
    fn read_frame(&self, id: u64, metrics: &Metrics) -> dm_storage::Result<Arc<Vec<u8>>> {
        let decision = self.faults.on_partition_read(id);
        if let Some(spike) = decision.latency {
            count_injected("dm_faults_injected_latency");
            std::thread::sleep(spike);
        }
        match decision.outcome {
            ReadOutcome::Pass => self.inner.read_frame(id, metrics),
            ReadOutcome::Transient => {
                count_injected("dm_faults_injected_transient");
                Err(StorageError::Io(format!(
                    "injected transient fault reading partition {id}"
                )))
            }
            ReadOutcome::BitFlip { bit } => {
                let frame = self.inner.read_frame(id, metrics)?;
                let mut flipped = (*frame).clone();
                if !flipped.is_empty() {
                    count_injected("dm_faults_injected_bitflip");
                    let at = (bit / 8) as usize % flipped.len();
                    flipped[at] ^= 1 << (bit % 8);
                }
                Ok(Arc::new(flipped))
            }
        }
    }

    fn partition_bytes(&self, id: u64) -> dm_storage::Result<usize> {
        self.inner.partition_bytes(id)
    }

    fn partition_count(&self) -> usize {
        self.inner.partition_count()
    }

    fn total_bytes(&self) -> usize {
        self.inner.total_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultPlan;
    use dm_compress::Codec;
    use dm_storage::{DiskProfile, SimulatedDisk};

    fn disk_with_partitions(n: u64) -> Arc<SimulatedDisk> {
        let disk = SimulatedDisk::new(DiskProfile::free());
        for i in 0..n {
            disk.write_partition(&Codec::Lz, &vec![i as u8; 4096]);
        }
        Arc::new(disk)
    }

    #[test]
    fn pass_through_is_byte_identical_and_delegates_shape_queries() {
        let disk = disk_with_partitions(3);
        let faults = Faults::new(FaultPlan::default());
        let faulty = FaultyPartitionSource::new(disk.clone(), faults);
        let metrics = Metrics::new();
        for id in 0..3 {
            assert_eq!(
                faulty.read_partition(id, &metrics).unwrap(),
                disk.read_partition(id, &metrics).unwrap()
            );
        }
        assert_eq!(faulty.partition_count(), 3);
        assert_eq!(faulty.total_bytes(), disk.total_bytes());
        assert_eq!(faulty.partition_bytes(1).unwrap(), disk.partition_bytes(1).unwrap());
    }

    #[test]
    fn injected_transients_are_typed_io_errors_and_resolve_on_retry() {
        let disk = disk_with_partitions(1);
        let faults = Faults::new(FaultPlan::seeded(1).with_read_transient_nth(1));
        let faulty = FaultyPartitionSource::new(disk, faults.clone());
        let metrics = Metrics::new();
        let err = faulty.read_frame(0, &metrics).unwrap_err();
        assert!(err.is_transient(), "injected transient must classify transient: {err}");
        // The "retry" is just the next read: deterministic once-then-ok.
        assert!(faulty.read_frame(0, &metrics).is_ok());
        assert_eq!(faults.stats().read_transient, 1);
    }

    #[test]
    fn bit_flips_surface_as_corruption_never_as_data() {
        let disk = disk_with_partitions(1);
        let faults = Faults::new(FaultPlan::seeded(3).with_read_bitflip(1.0));
        let faulty = FaultyPartitionSource::new(disk.clone(), faults.clone());
        let metrics = Metrics::new();
        let err = faulty.read_partition(0, &metrics).unwrap_err();
        assert!(
            !err.is_transient(),
            "a flipped frame must fail its checksum as non-retryable corruption: {err}"
        );
        assert!(faults.stats().read_bitflips >= 1);
        // Disabling the injector restores byte-identical service.
        faults.set_enabled(false);
        assert_eq!(
            faulty.read_partition(0, &metrics).unwrap(),
            disk.read_partition(0, &metrics).unwrap()
        );
    }

    #[test]
    fn latency_spikes_delay_but_do_not_corrupt() {
        let disk = disk_with_partitions(1);
        let faults = Faults::new(
            FaultPlan::seeded(1).with_read_latency(std::time::Duration::from_millis(5), 1.0),
        );
        let faulty = FaultyPartitionSource::new(disk.clone(), faults.clone());
        let metrics = Metrics::new();
        let begin = std::time::Instant::now();
        let frame = faulty.read_partition(0, &metrics).unwrap();
        assert!(begin.elapsed() >= std::time::Duration::from_millis(5));
        assert_eq!(frame, disk.read_partition(0, &metrics).unwrap());
        assert!(faults.stats().read_latency >= 1);
    }
}
