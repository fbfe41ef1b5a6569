//! The declarative fault plan.
//!
//! A [`FaultPlan`] is pure configuration: *what* can go wrong, *where* and
//! *how often*.  It contains no mutable state — the runtime side (call
//! counters, seeded coin flips, injected-fault accounting) lives in
//! [`Faults`](crate::Faults).  A plan starts from [`FaultPlan::seeded`] and
//! each builder method adds one fault:
//!
//! | method | meaning |
//! |---|---|
//! | [`seeded(N)`](FaultPlan::seeded) | seed for every probabilistic decision |
//! | [`with_read_transient(P)`](FaultPlan::with_read_transient) | each cold partition read fails with a transient [`StorageError::Io`](dm_storage::StorageError::Io) with probability `P` |
//! | [`with_read_transient_nth(N)`](FaultPlan::with_read_transient_nth) | the `N`-th read of **each** partition fails transient (1-based; a retry is the next read, so `1` means once-then-ok) |
//! | [`with_read_latency(D, P)`](FaultPlan::with_read_latency) | add a latency spike of `D` to each read with probability `P` |
//! | [`with_read_bitflip(P)`](FaultPlan::with_read_bitflip) | flip one deterministic bit in the returned frame with probability `P` (surfaces as a CRC/checksum failure — proves corruption stays fail-fast) |
//! | [`with_read_partitions(ids)`](FaultPlan::with_read_partitions) | restrict all read faults to these partition ids (default: all) |
//! | [`with_wal_append_fail_nth(N)`](FaultPlan::with_wal_append_fail_nth) | the `N`-th WAL append fails with an I/O error before writing |
//! | [`with_wal_torn_nth(N)`](FaultPlan::with_wal_torn_nth) | the `N`-th WAL append writes only half its record, then fails (a torn write) |
//! | [`with_wal_fsync_fail_nth(N)`](FaultPlan::with_wal_fsync_fail_nth) | the `N`-th WAL fsync reports failure |
//!
//! # Determinism
//!
//! Every probabilistic decision is a pure function of
//! `(seed, site, partition id, per-partition call number)` — never of wall
//! clock, thread identity or global call interleaving.  Two runs with the
//! same plan and the same per-partition access sequence inject exactly the
//! same faults, even when partitions are probed from different threads in a
//! different global order.

use std::time::Duration;

/// Read-side fault configuration (applies to cold partition reads routed
/// through [`FaultyPartitionSource`](crate::FaultyPartitionSource)).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReadFaultPlan {
    /// Probability each read fails with a transient I/O error.
    pub transient_p: f64,
    /// 1-based per-partition call number that fails transient (exactly once
    /// per partition).  Composes with `transient_p`.
    pub transient_nth: Option<u64>,
    /// Latency spike added to a read: `(duration, probability)`.
    pub latency: Option<(Duration, f64)>,
    /// Probability a read's frame gets one bit flipped (fails its checksum
    /// downstream — injected corruption, never served).
    pub bitflip_p: f64,
    /// When set, only these partition ids are eligible for read faults.
    pub partitions: Option<Vec<u64>>,
}

impl ReadFaultPlan {
    /// Whether this partition is in the fault-eligible set.
    pub fn targets(&self, partition: u64) -> bool {
        match &self.partitions {
            Some(ids) => ids.contains(&partition),
            None => true,
        }
    }

    /// Whether any read fault is configured at all.
    pub fn is_active(&self) -> bool {
        self.transient_p > 0.0
            || self.transient_nth.is_some()
            || self.latency.is_some()
            || self.bitflip_p > 0.0
    }
}

/// Write-side fault configuration for the WAL (consumed by `dm-persist`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalFaultPlan {
    /// 1-based global append number that fails before writing anything.
    pub append_fail_nth: Option<u64>,
    /// 1-based global append number that writes a *partial* record and then
    /// fails — a torn write the next replay must tolerate or roll back.
    pub torn_nth: Option<u64>,
    /// 1-based global fsync number that reports failure.
    pub fsync_fail_nth: Option<u64>,
}

impl WalFaultPlan {
    /// Whether any WAL fault is configured.
    pub fn is_active(&self) -> bool {
        self.append_fail_nth.is_some() || self.torn_nth.is_some() || self.fsync_fail_nth.is_some()
    }
}

/// A complete, declarative fault plan.  See the [module docs](self) for the
/// builder methods and determinism guarantees.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed for every probabilistic decision.
    pub seed: u64,
    /// Read-side faults.
    pub read: ReadFaultPlan,
    /// WAL write-side faults.
    pub wal: WalFaultPlan,
}

impl FaultPlan {
    /// An empty plan with the given seed (inject nothing until configured).
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..Self::default()
        }
    }

    /// Sets the transient-read-failure probability.
    pub fn with_read_transient(mut self, p: f64) -> Self {
        self.read.transient_p = p.clamp(0.0, 1.0);
        self
    }

    /// Fails the `nth` read of each partition (1-based), once per partition.
    pub fn with_read_transient_nth(mut self, nth: u64) -> Self {
        self.read.transient_nth = Some(nth.max(1));
        self
    }

    /// Adds a latency spike of `spike` to each read with probability `p`.
    pub fn with_read_latency(mut self, spike: Duration, p: f64) -> Self {
        self.read.latency = Some((spike, p.clamp(0.0, 1.0)));
        self
    }

    /// Sets the bit-flip probability per read.
    pub fn with_read_bitflip(mut self, p: f64) -> Self {
        self.read.bitflip_p = p.clamp(0.0, 1.0);
        self
    }

    /// Restricts read faults to the given partition ids.
    pub fn with_read_partitions(mut self, partitions: Vec<u64>) -> Self {
        self.read.partitions = Some(partitions);
        self
    }

    /// Fails the `nth` WAL append (1-based) before it writes.
    pub fn with_wal_append_fail_nth(mut self, nth: u64) -> Self {
        self.wal.append_fail_nth = Some(nth.max(1));
        self
    }

    /// Tears the `nth` WAL append (1-based): half the record lands, then error.
    pub fn with_wal_torn_nth(mut self, nth: u64) -> Self {
        self.wal.torn_nth = Some(nth.max(1));
        self
    }

    /// Fails the `nth` WAL fsync (1-based).
    pub fn with_wal_fsync_fail_nth(mut self, nth: u64) -> Self {
        self.wal.fsync_fail_nth = Some(nth.max(1));
        self
    }

    /// Whether the plan injects anything at all.
    pub fn is_active(&self) -> bool {
        self.read.is_active() || self.wal.is_active()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_default_plans_inject_nothing() {
        assert!(!FaultPlan::default().is_active());
        assert!(!FaultPlan::seeded(7).is_active());
    }

    #[test]
    fn builder_round_trip_sets_every_field() {
        let plan = FaultPlan::seeded(42)
            .with_read_transient(0.05)
            .with_read_transient_nth(3)
            .with_read_latency(Duration::from_millis(5), 0.25)
            .with_read_bitflip(0.001)
            .with_read_partitions(vec![1, 2, 9])
            .with_wal_append_fail_nth(5)
            .with_wal_torn_nth(2)
            .with_wal_fsync_fail_nth(1);
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.read.transient_p, 0.05);
        assert_eq!(plan.read.transient_nth, Some(3));
        assert_eq!(plan.read.latency, Some((Duration::from_millis(5), 0.25)));
        assert_eq!(plan.read.bitflip_p, 0.001);
        assert_eq!(plan.read.partitions, Some(vec![1, 2, 9]));
        assert_eq!(plan.wal.append_fail_nth, Some(5));
        assert_eq!(plan.wal.torn_nth, Some(2));
        assert_eq!(plan.wal.fsync_fail_nth, Some(1));
        assert!(plan.is_active());
        assert!(plan.read.targets(2) && !plan.read.targets(3));
    }
}
