//! The seeded fault-decision runtime behind a [`FaultPlan`].
//!
//! A [`Faults`] instance owns the plan plus all mutable state: per-partition
//! read counters, global WAL call counters, an enable switch and
//! injected-fault accounting.  Decisions are pure functions of
//! `(seed, site, partition, call number)` — see the determinism notes on
//! [`plan`](crate::plan) — so a retry (which is simply the next read of the
//! same partition) re-rolls the coin deterministically, and an `nth`-style
//! trigger fires exactly once regardless of thread interleaving.

use crate::plan::FaultPlan;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Site identifiers mixed into the decision hash so the same call number at
/// different sites rolls independent coins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReadSite {
    Transient = 1,
    Latency = 2,
    BitFlip = 3,
}

/// The decision for one cold partition read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadDecision {
    /// Latency spike to apply before the read proceeds (or fails).
    pub latency: Option<Duration>,
    /// What happens to the read itself.
    pub outcome: ReadOutcome,
}

/// Outcome component of a [`ReadDecision`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// Read proceeds untouched.
    Pass,
    /// Read fails with a transient `StorageError::Io`.
    Transient,
    /// Read succeeds but one bit of the frame is flipped (which the frame's
    /// checksum must catch downstream).
    BitFlip {
        /// Bit index to flip, reduced modulo the frame length at apply time.
        bit: u64,
    },
}

/// The decision for one WAL append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalAppendFault {
    /// Append proceeds untouched.
    Pass,
    /// Append fails before writing anything.
    Fail,
    /// Append writes only `keep` bytes of its record, then fails.
    Torn {
        /// Fraction numerator out of 2: records are torn at the halfway point.
        keep_half: bool,
    },
}

/// Counts of injected faults, readable via [`Faults::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Transient read errors injected.
    pub read_transient: u64,
    /// Latency spikes injected.
    pub read_latency: u64,
    /// Bit flips injected.
    pub read_bitflips: u64,
    /// WAL appends failed outright.
    pub wal_append_fails: u64,
    /// WAL appends torn.
    pub wal_torn: u64,
    /// WAL fsyncs failed.
    pub wal_fsync_fails: u64,
}

impl FaultStats {
    /// Total injected faults across all kinds.
    pub fn total(&self) -> u64 {
        self.read_transient
            + self.read_latency
            + self.read_bitflips
            + self.wal_append_fails
            + self.wal_torn
            + self.wal_fsync_fails
    }
}

/// A live fault injector: one [`FaultPlan`] plus deterministic call counters
/// and injected-fault accounting.  Cheap to share (`Arc`), safe to consult
/// from any thread.  Disabled injectors pass everything through.
#[derive(Debug)]
pub struct Faults {
    plan: FaultPlan,
    enabled: AtomicBool,
    /// Per-partition read counters; cold reads are rare and slow, so a mutex
    /// is fine here (never on a pool-hit path).
    read_counts: Mutex<HashMap<u64, u64>>,
    wal_appends: AtomicU64,
    wal_fsyncs: AtomicU64,
    read_transient: AtomicU64,
    read_latency: AtomicU64,
    read_bitflips: AtomicU64,
    wal_append_fails: AtomicU64,
    wal_torn: AtomicU64,
    wal_fsync_fails: AtomicU64,
}

impl Faults {
    /// Wraps a plan in a fresh injector (enabled, zeroed counters).
    pub fn new(plan: FaultPlan) -> Arc<Self> {
        Arc::new(Faults {
            plan,
            enabled: AtomicBool::new(true),
            read_counts: Mutex::new(HashMap::new()),
            wal_appends: AtomicU64::new(0),
            wal_fsyncs: AtomicU64::new(0),
            read_transient: AtomicU64::new(0),
            read_latency: AtomicU64::new(0),
            read_bitflips: AtomicU64::new(0),
            wal_append_fails: AtomicU64::new(0),
            wal_torn: AtomicU64::new(0),
            wal_fsync_fails: AtomicU64::new(0),
        })
    }

    /// The plan this injector runs.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Runtime kill switch: a disabled injector passes everything through
    /// (used by recovery tests to "repair the disk" mid-run).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Release);
    }

    /// Whether the injector is currently injecting.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Acquire)
    }

    /// Snapshot of the injected-fault counts.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            read_transient: self.read_transient.load(Ordering::Relaxed),
            read_latency: self.read_latency.load(Ordering::Relaxed),
            read_bitflips: self.read_bitflips.load(Ordering::Relaxed),
            wal_append_fails: self.wal_append_fails.load(Ordering::Relaxed),
            wal_torn: self.wal_torn.load(Ordering::Relaxed),
            wal_fsync_fails: self.wal_fsync_fails.load(Ordering::Relaxed),
        }
    }

    /// Decides the fate of the next read of `partition`, advancing its
    /// per-partition call counter.  Latency composes with the other
    /// outcomes; transient takes precedence over bit flips.
    pub fn on_partition_read(&self, partition: u64) -> ReadDecision {
        let pass = ReadDecision {
            latency: None,
            outcome: ReadOutcome::Pass,
        };
        if !self.enabled() {
            return pass;
        }
        let read = &self.plan.read;
        if !read.is_active() || !read.targets(partition) {
            return pass;
        }
        let call = {
            let mut counts = self.read_counts.lock().unwrap_or_else(|e| e.into_inner());
            let slot = counts.entry(partition).or_insert(0);
            *slot += 1;
            *slot
        };
        let latency = read.latency.and_then(|(spike, p)| {
            let hit = self.roll(ReadSite::Latency, partition, call) < p;
            if hit {
                self.read_latency.fetch_add(1, Ordering::Relaxed);
                Some(spike)
            } else {
                None
            }
        });
        let transient = read.transient_nth.is_some_and(|nth| call == nth)
            || (read.transient_p > 0.0
                && self.roll(ReadSite::Transient, partition, call) < read.transient_p);
        if transient {
            self.read_transient.fetch_add(1, Ordering::Relaxed);
            return ReadDecision {
                latency,
                outcome: ReadOutcome::Transient,
            };
        }
        if read.bitflip_p > 0.0 && self.roll(ReadSite::BitFlip, partition, call) < read.bitflip_p {
            self.read_bitflips.fetch_add(1, Ordering::Relaxed);
            let bit = mix(self.plan.seed ^ 0xB17_F11F, partition, call);
            return ReadDecision {
                latency,
                outcome: ReadOutcome::BitFlip { bit },
            };
        }
        ReadDecision {
            latency,
            outcome: ReadOutcome::Pass,
        }
    }

    /// Decides the fate of the next WAL append (global 1-based counter).
    pub fn on_wal_append(&self) -> WalAppendFault {
        if !self.enabled() || !self.plan.wal.is_active() {
            return WalAppendFault::Pass;
        }
        let call = self.wal_appends.fetch_add(1, Ordering::Relaxed) + 1;
        if self.plan.wal.append_fail_nth == Some(call) {
            self.wal_append_fails.fetch_add(1, Ordering::Relaxed);
            return WalAppendFault::Fail;
        }
        if self.plan.wal.torn_nth == Some(call) {
            self.wal_torn.fetch_add(1, Ordering::Relaxed);
            return WalAppendFault::Torn { keep_half: true };
        }
        WalAppendFault::Pass
    }

    /// Whether the next WAL fsync (global 1-based counter) should fail.
    pub fn on_wal_fsync(&self) -> bool {
        if !self.enabled() || self.plan.wal.fsync_fail_nth.is_none() {
            return false;
        }
        let call = self.wal_fsyncs.fetch_add(1, Ordering::Relaxed) + 1;
        let fail = self.plan.wal.fsync_fail_nth == Some(call);
        if fail {
            self.wal_fsync_fails.fetch_add(1, Ordering::Relaxed);
        }
        fail
    }

    /// Uniform draw in `[0, 1)` for `(site, partition, call)` under the
    /// plan's seed.  Pure and thread-order independent.
    fn roll(&self, site: ReadSite, partition: u64, call: u64) -> f64 {
        let z = mix(self.plan.seed ^ (site as u64), partition, call);
        (z >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// splitmix64-style finalizer over three words.
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_plan_passes_everything_through() {
        let faults = Faults::new(FaultPlan::default());
        for partition in 0..64 {
            let d = faults.on_partition_read(partition);
            assert_eq!(d.outcome, ReadOutcome::Pass);
            assert_eq!(d.latency, None);
        }
        assert_eq!(faults.on_wal_append(), WalAppendFault::Pass);
        assert!(!faults.on_wal_fsync());
        assert_eq!(faults.stats().total(), 0);
    }

    #[test]
    fn transient_nth_fires_exactly_once_per_partition() {
        let faults = Faults::new(FaultPlan::seeded(1).with_read_transient_nth(2));
        for partition in [3u64, 9] {
            assert_eq!(faults.on_partition_read(partition).outcome, ReadOutcome::Pass);
            assert_eq!(
                faults.on_partition_read(partition).outcome,
                ReadOutcome::Transient,
                "second read of partition {partition} must fail"
            );
            for _ in 0..5 {
                assert_eq!(faults.on_partition_read(partition).outcome, ReadOutcome::Pass);
            }
        }
        assert_eq!(faults.stats().read_transient, 2);
    }

    #[test]
    fn probabilistic_decisions_are_deterministic_across_instances() {
        let plan = FaultPlan::seeded(99)
            .with_read_transient(0.3)
            .with_read_bitflip(0.1)
            .with_read_latency(Duration::from_millis(1), 0.2);
        let a = Faults::new(plan.clone());
        let b = Faults::new(plan);
        let mut decisions = 0usize;
        for partition in 0..16u64 {
            for _ in 0..16 {
                assert_eq!(
                    a.on_partition_read(partition),
                    b.on_partition_read(partition)
                );
                decisions += 1;
            }
        }
        assert_eq!(decisions, 256);
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().read_transient > 0, "0.3 over 256 draws must fire");
    }

    #[test]
    fn decisions_do_not_depend_on_cross_partition_interleaving() {
        let plan = FaultPlan::seeded(7).with_read_transient(0.5);
        let a = Faults::new(plan.clone());
        let b = Faults::new(plan);
        // a: partition-major order; b: interleaved.
        let mut a_decisions = Vec::new();
        for partition in 0..4u64 {
            for _ in 0..8 {
                a_decisions.push((partition, a.on_partition_read(partition).outcome));
            }
        }
        let mut b_decisions = Vec::new();
        for round in 0..8 {
            for partition in 0..4u64 {
                let _ = round;
                b_decisions.push((partition, b.on_partition_read(partition).outcome));
            }
        }
        let key = |d: &Vec<(u64, ReadOutcome)>| {
            let mut sorted = d.clone();
            sorted.sort_by_key(|(p, o)| (*p, matches!(o, ReadOutcome::Transient)));
            sorted
        };
        // Per-partition sequences are identical regardless of global order.
        for partition in 0..4u64 {
            let of = |d: &Vec<(u64, ReadOutcome)>| {
                d.iter()
                    .filter(|(p, _)| *p == partition)
                    .map(|(_, o)| *o)
                    .collect::<Vec<_>>()
            };
            assert_eq!(of(&a_decisions), of(&b_decisions));
        }
        let _ = key;
    }

    #[test]
    fn partition_restriction_shields_other_partitions() {
        let faults = Faults::new(
            FaultPlan::seeded(1)
                .with_read_transient(1.0)
                .with_read_partitions(vec![5]),
        );
        assert_eq!(faults.on_partition_read(5).outcome, ReadOutcome::Transient);
        assert_eq!(faults.on_partition_read(6).outcome, ReadOutcome::Pass);
    }

    #[test]
    fn wal_nth_triggers_fire_in_order() {
        let faults = Faults::new(
            FaultPlan::seeded(1)
                .with_wal_append_fail_nth(2)
                .with_wal_torn_nth(3)
                .with_wal_fsync_fail_nth(1),
        );
        assert_eq!(faults.on_wal_append(), WalAppendFault::Pass);
        assert_eq!(faults.on_wal_append(), WalAppendFault::Fail);
        assert_eq!(faults.on_wal_append(), WalAppendFault::Torn { keep_half: true });
        assert_eq!(faults.on_wal_append(), WalAppendFault::Pass);
        assert!(faults.on_wal_fsync());
        assert!(!faults.on_wal_fsync());
        let stats = faults.stats();
        assert_eq!(stats.wal_append_fails, 1);
        assert_eq!(stats.wal_torn, 1);
        assert_eq!(stats.wal_fsync_fails, 1);
    }

    #[test]
    fn disabling_mid_run_stops_injection() {
        let faults = Faults::new(FaultPlan::seeded(1).with_read_transient(1.0));
        assert_eq!(faults.on_partition_read(0).outcome, ReadOutcome::Transient);
        faults.set_enabled(false);
        assert!(!faults.enabled());
        assert_eq!(faults.on_partition_read(0).outcome, ReadOutcome::Pass);
        faults.set_enabled(true);
        assert_eq!(faults.on_partition_read(0).outcome, ReadOutcome::Transient);
    }
}
