//! Partition heat tracking: decayed per-partition access counters.
//!
//! A [`HeatMap`] tracks, per partition id, how often it is touched (buffer-pool
//! get), how often that touch missed the pool, and how often its bytes were
//! decompressed — with an exponentially *decayed* activity score alongside the
//! exact lifetime counters.  `BufferPool` and the aux-table loader feed it; a
//! [`HeatReport`] ranks partitions hottest-first so later work (pool budgeting,
//! mmap hot-partition pinning — ROADMAP item 5) and the maintenance advisor
//! can see *where* the working set actually is.
//!
//! ## Decay-on-touch
//!
//! The score is fixed-point (`1 << SCORE_FRAC_BITS` per touch).  Instead of a
//! background decay thread, each touch first ages the stored score by however
//! many half-lives elapsed since the cell's last epoch: `score >>= elapsed /
//! half_life` (shift-right halves the score per half-life — cheap, lock-free,
//! and exact enough for ranking).  A partition untouched for `k` half-lives
//! holds `score / 2^k` — cold partitions decay to zero without anyone visiting
//! them because [`report`](HeatMap::report) applies the same aging at read
//! time.
//!
//! ## Concurrency
//!
//! The id table is open-addressed with CAS insertion and bounded probing
//! ([`MAX_PROBES`]); cells are relaxed atomics.  Two touches racing the decay
//! window can each age the score once — heat is a *ranking* signal, and the
//! error is bounded by one touch's worth of score.  When the table fills (or a
//! probe chain exhausts), the touch is counted in
//! [`dropped`](HeatMap::dropped) instead of silently vanishing.  All recording
//! is gated on the `DM_OBS` kill switch.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Fractional bits of the fixed-point decayed score: one touch adds
/// `1 << SCORE_FRAC_BITS`.
pub const SCORE_FRAC_BITS: u32 = 16;
/// Bounded open-addressing probe chain length.
pub const MAX_PROBES: usize = 16;
/// Default id-table capacity (rounded up to a power of two).
pub const DEFAULT_CAPACITY: usize = 1024;
/// Default decay half-life.
pub const DEFAULT_HALF_LIFE: Duration = Duration::from_secs(30);

const EMPTY: u64 = u64::MAX;

/// The kinds of partition touch a [`HeatMap`] distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Touch {
    /// The partition was requested from the buffer pool (hit or miss).
    Access,
    /// The request missed the pool (a load was needed).
    Miss,
    /// The partition's bytes were decompressed.
    Decompress,
}

#[derive(Debug)]
struct HeatCell {
    /// Partition id, or [`EMPTY`].  CAS-claimed once, never removed.
    id: AtomicU64,
    /// Exact lifetime counters.
    accesses: AtomicU64,
    misses: AtomicU64,
    decompressions: AtomicU64,
    /// Decayed fixed-point activity score.
    score: AtomicU64,
    /// Clock (nanos since the window epoch) of the score's last aging.
    epoch: AtomicU64,
}

impl HeatCell {
    fn new() -> Self {
        HeatCell {
            id: AtomicU64::new(EMPTY),
            accesses: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            decompressions: AtomicU64::new(0),
            score: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
        }
    }

    /// Ages `score` by the half-lives elapsed between `epoch` and `now`,
    /// returning the decayed value without storing it.
    fn decayed_score(&self, now_nanos: u64, half_life_nanos: u64) -> u64 {
        let epoch = self.epoch.load(Ordering::Relaxed);
        let elapsed = now_nanos.saturating_sub(epoch);
        let half_lives = (elapsed / half_life_nanos).min(63);
        self.score.load(Ordering::Relaxed) >> half_lives
    }

    fn touch(&self, kind: Touch, now_nanos: u64, half_life_nanos: u64) {
        match kind {
            Touch::Access => self.accesses.fetch_add(1, Ordering::Relaxed),
            Touch::Miss => self.misses.fetch_add(1, Ordering::Relaxed),
            Touch::Decompress => self.decompressions.fetch_add(1, Ordering::Relaxed),
        };
        // Age, bump, publish.  Two racing touches may both age the same span
        // (losing at most one decay step of precision) — acceptable for a
        // ranking signal, and the lifetime counters above stay exact.
        let aged = self.decayed_score(now_nanos, half_life_nanos);
        self.score
            .store(aged.saturating_add(1 << SCORE_FRAC_BITS), Ordering::Relaxed);
        self.epoch.fetch_max(now_nanos, Ordering::Relaxed);
    }
}

/// Lock-free decayed per-partition heat tracker (see the module docs).
#[derive(Debug)]
pub struct HeatMap {
    cells: Box<[HeatCell]>,
    mask: u64,
    half_life_nanos: u64,
    dropped: AtomicU64,
}

impl Default for HeatMap {
    fn default() -> Self {
        Self::new(DEFAULT_CAPACITY, DEFAULT_HALF_LIFE)
    }
}

impl HeatMap {
    /// Creates a heat map tracking up to roughly `capacity` partitions
    /// (rounded up to a power of two) with the given decay half-life.
    pub fn new(capacity: usize, half_life: Duration) -> Self {
        let capacity = capacity.next_power_of_two().max(8);
        HeatMap {
            cells: (0..capacity).map(|_| HeatCell::new()).collect(),
            mask: capacity as u64 - 1,
            half_life_nanos: half_life.as_nanos().clamp(1, u64::MAX as u128) as u64,
            dropped: AtomicU64::new(0),
        }
    }

    /// Fibonacci-hash start slot for a partition id.
    #[inline]
    fn slot(&self, id: u64) -> u64 {
        id.wrapping_mul(0x9E3779B97F4A7C15) >> 32 & self.mask
    }

    /// Finds the cell owning `id`, claiming an empty one if needed.  Returns
    /// `None` when the bounded probe chain is exhausted.
    fn cell(&self, id: u64) -> Option<&HeatCell> {
        debug_assert_ne!(id, EMPTY, "u64::MAX is the empty-slot sentinel");
        let start = self.slot(id);
        for probe in 0..MAX_PROBES.min(self.cells.len()) {
            let cell = &self.cells[((start + probe as u64) & self.mask) as usize];
            let owner = cell.id.load(Ordering::Acquire);
            if owner == id {
                return Some(cell);
            }
            if owner == EMPTY
                && cell
                    .id
                    .compare_exchange(EMPTY, id, Ordering::AcqRel, Ordering::Acquire)
                    .map_or_else(|actual| actual == id, |_| true)
            {
                return Some(cell);
            }
        }
        None
    }

    /// Records one touch of partition `id` at the current time.  Gated on the
    /// `DM_OBS` kill switch.
    #[inline]
    pub fn touch(&self, id: u64, kind: Touch) {
        if !crate::enabled() {
            return;
        }
        self.touch_at(crate::window::now_nanos(), id, kind);
    }

    /// Records one touch of partition `id` on the batch's clock: stamped with
    /// the start of `trace` ([`Trace::start_nanos`](crate::Trace::start_nanos),
    /// no clock read) when the caller carries an active one, else
    /// [`touch`](Self::touch) — the current time, gated on `DM_OBS`.  A
    /// batch's touches are microseconds apart against a half-life of
    /// seconds, so one timestamp a batch ranks partitions the same.
    #[inline]
    pub fn touch_in(&self, trace: Option<&crate::Trace>, id: u64, kind: Touch) {
        match trace.and_then(crate::Trace::start_nanos) {
            Some(at) => self.touch_at(at, id, kind),
            None => self.touch(id, kind),
        }
    }

    /// Records a touch at an explicit clock value, not gated: [`touch_in`]
    /// reaches it only with an active trace (the switch was on when the batch
    /// began), and tests drive time through it.
    ///
    /// [`touch_in`]: Self::touch_in
    pub fn touch_at(&self, now_nanos: u64, id: u64, kind: Touch) {
        match self.cell(id) {
            Some(cell) => cell.touch(kind, now_nanos, self.half_life_nanos),
            None => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Touches the id table could not track (table full / probe chain
    /// exhausted).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Number of distinct partitions currently tracked.
    pub fn tracked(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| c.id.load(Ordering::Relaxed) != EMPTY)
            .count()
    }

    /// Builds a [`HeatReport`] at the current time.
    pub fn report(&self, top_k: usize) -> HeatReport {
        self.report_at(crate::window::now_nanos(), top_k)
    }

    /// Builds a report at an explicit clock value: every tracked partition's
    /// decayed score and exact counters, ranked hottest-first, truncated to
    /// the `top_k` hottest and `top_k` coldest.
    pub fn report_at(&self, now_nanos: u64, top_k: usize) -> HeatReport {
        let mut entries: Vec<PartitionHeat> = self
            .cells
            .iter()
            .filter(|c| c.id.load(Ordering::Relaxed) != EMPTY)
            .map(|c| PartitionHeat {
                partition: c.id.load(Ordering::Relaxed),
                score: c.decayed_score(now_nanos, self.half_life_nanos) as f64
                    / (1u64 << SCORE_FRAC_BITS) as f64,
                accesses: c.accesses.load(Ordering::Relaxed),
                misses: c.misses.load(Ordering::Relaxed),
                decompressions: c.decompressions.load(Ordering::Relaxed),
            })
            .collect();
        entries.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.partition.cmp(&b.partition))
        });
        let tracked = entries.len();
        let total_accesses: u64 = entries.iter().map(|e| e.accesses).sum();
        let total_misses: u64 = entries.iter().map(|e| e.misses).sum();
        let cold: Vec<PartitionHeat> = entries
            .iter()
            .rev()
            .take(top_k.min(tracked))
            .cloned()
            .collect();
        entries.truncate(top_k);
        HeatReport {
            hot: entries,
            cold,
            tracked,
            dropped: self.dropped(),
            total_accesses,
            total_misses,
            resident_bytes: 0,
            budget_bytes: 0,
        }
    }
}

/// One partition's heat: decayed score plus exact lifetime counters.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionHeat {
    /// Partition id (pool key).
    pub partition: u64,
    /// Decayed activity score in touch units (1.0 ≈ one recent touch).
    pub score: f64,
    /// Exact lifetime pool accesses.
    pub accesses: u64,
    /// Exact lifetime pool misses.
    pub misses: u64,
    /// Exact lifetime decompressions.
    pub decompressions: u64,
}

/// Ranked heat summary produced by [`HeatMap::report`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HeatReport {
    /// Hottest partitions, hottest first.
    pub hot: Vec<PartitionHeat>,
    /// Coldest tracked partitions, coldest first.
    pub cold: Vec<PartitionHeat>,
    /// Distinct partitions tracked.
    pub tracked: usize,
    /// Touches dropped because the id table was full.
    pub dropped: u64,
    /// Sum of lifetime accesses over tracked partitions.
    pub total_accesses: u64,
    /// Sum of lifetime misses over tracked partitions.
    pub total_misses: u64,
    /// Bytes currently resident in the feeding buffer pool (filled by the
    /// store that owns the pool — [`HeatMap`] itself only sees touches).
    pub resident_bytes: u64,
    /// The pool's configured byte budget (0 = unknown/unbounded).
    pub budget_bytes: u64,
}

impl HeatReport {
    /// Lifetime miss rate over tracked partitions (0 when nothing recorded).
    pub fn miss_rate(&self) -> f64 {
        if self.total_accesses == 0 {
            0.0
        } else {
            self.total_misses as f64 / self.total_accesses as f64
        }
    }

    /// Resident-vs-budget pressure in `[0, 1]` (0 when the budget is
    /// unknown): how full the feeding pool is.
    pub fn pressure(&self) -> f64 {
        if self.budget_bytes == 0 {
            0.0
        } else {
            (self.resident_bytes as f64 / self.budget_bytes as f64).min(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A traced touch is stamped with the trace's start — every touch of a
    /// batch the same, read from no clock — and an untraced one with now.
    #[test]
    fn a_traced_touch_is_stamped_with_the_start_of_its_trace() {
        let _guard = crate::test_guard();
        crate::set_enabled(true);
        let heat = HeatMap::default();
        let trace = crate::Trace::start("heat");
        let start = trace.start_nanos().expect("an active trace has a start");
        std::thread::sleep(Duration::from_millis(2));
        for kind in [Touch::Access, Touch::Miss, Touch::Decompress] {
            heat.touch_in(Some(&trace), 7, kind);
        }
        let cell = heat.cell(7).expect("tracked");
        assert_eq!(cell.epoch.load(Ordering::Relaxed), start);
        assert_eq!(heat.report(1).total_accesses, 1);
        heat.touch_in(None, 7, Touch::Access);
        assert!(cell.epoch.load(Ordering::Relaxed) >= start + 2_000_000);
        trace.finish();
    }

    const HL: u64 = 1_000_000; // 1 ms half-life in test clocks

    fn map() -> HeatMap {
        HeatMap::new(64, Duration::from_nanos(HL))
    }

    #[test]
    fn counters_are_exact_and_report_ranks_by_recent_score() {
        let m = map();
        for _ in 0..10 {
            m.touch_at(0, 1, Touch::Access);
        }
        m.touch_at(0, 1, Touch::Miss);
        m.touch_at(0, 1, Touch::Decompress);
        for _ in 0..3 {
            m.touch_at(0, 2, Touch::Access);
        }
        let report = m.report_at(0, 10);
        assert_eq!(report.tracked, 2);
        assert_eq!(report.hot[0].partition, 1);
        assert_eq!(report.hot[0].accesses, 10);
        assert_eq!(report.hot[0].misses, 1);
        assert_eq!(report.hot[0].decompressions, 1);
        assert_eq!(report.hot[1].partition, 2);
        assert_eq!(report.cold[0].partition, 2);
        assert_eq!(report.total_accesses, 13);
        assert_eq!(report.total_misses, 1);
        assert!((report.miss_rate() - 1.0 / 13.0).abs() < 1e-9);
    }

    #[test]
    fn decay_demotes_stale_partitions_without_touches() {
        let m = map();
        // Partition 1 is hammered early, partition 2 lightly but recently.
        for _ in 0..1_000 {
            m.touch_at(0, 1, Touch::Access);
        }
        for _ in 0..3 {
            m.touch_at(12 * HL, 2, Touch::Access);
        }
        // Ten half-lives after partition 1 went quiet: 1000 / 2^12 < 1 < 3.
        let report = m.report_at(12 * HL, 2);
        assert_eq!(report.hot[0].partition, 2, "stale partition outranked a recent one");
        assert!(report.hot[1].score < report.hot[0].score);
        // Lifetime counters are unaffected by decay.
        assert_eq!(report.hot[1].accesses, 1_000);
    }

    #[test]
    fn decay_on_touch_ages_before_bumping() {
        let m = map();
        m.touch_at(0, 7, Touch::Access);
        // One half-life later: 1.0 decays to 0.5, plus the new touch = 1.5.
        m.touch_at(HL, 7, Touch::Access);
        let report = m.report_at(HL, 1);
        assert!((report.hot[0].score - 1.5).abs() < 1e-9, "score {}", report.hot[0].score);
    }

    #[test]
    fn table_overflow_counts_drops_instead_of_losing_them_silently() {
        let m = HeatMap::new(8, Duration::from_nanos(HL));
        // Many more ids than cells: the probe chains must eventually exhaust.
        for id in 0..10_000u64 {
            m.touch_at(0, id, Touch::Access);
        }
        let report = m.report_at(0, 4);
        assert!(m.dropped() > 0);
        assert_eq!(report.dropped, m.dropped());
        assert_eq!(report.tracked, m.tracked());
        assert_eq!(
            report.total_accesses + m.dropped(),
            10_000,
            "every touch either tracked or counted dropped"
        );
    }

    #[test]
    fn concurrent_touches_keep_lifetime_counters_exact() {
        let m = Arc::new(map());
        let threads = 8u64;
        let per_thread = 5_000u64;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    for i in 0..per_thread {
                        m.touch_at(0, i % 16, Touch::Access);
                        if i % 4 == 0 {
                            m.touch_at(0, i % 16, Touch::Miss);
                        }
                    }
                });
            }
        });
        let report = m.report_at(0, 16);
        assert_eq!(m.dropped(), 0);
        assert_eq!(report.total_accesses, threads * per_thread);
        assert_eq!(report.total_misses, threads * (per_thread / 4));
    }

    #[test]
    fn kill_switch_gates_touches() {
        let _guard = crate::test_guard();
        crate::set_enabled(false);
        let m = map();
        m.touch(1, Touch::Access);
        crate::set_enabled(true);
        assert_eq!(m.tracked(), 0);
        m.touch(1, Touch::Access);
        assert_eq!(m.tracked(), 1);
    }
}
