//! Time-windowed metric slices: "last 60 seconds", not "since boot".
//!
//! Wall time is divided into consecutive periods (`clock / slice`, default
//! [`DEFAULT_SLICE`] = 5 s) and a window is the last `N` of them (default
//! [`DEFAULT_SLICES`], 60 s); period `p` owns ring slot `p % N`.  Two forms
//! of that window answer the same question:
//!
//! * [`SnapshotWindow`] — **windows as snapshot differences**, for an owner
//!   that folds samples under a lock of its own.  It keeps the cumulative
//!   histogram and a ring of `N` marks: a period's mark is the cumulative
//!   histogram as it stood when the period's first sample arrived, plus the
//!   period's own maximum.  A sample is recorded once, into the cumulative
//!   cells.  The window ending in period `P` is the cumulative histogram
//!   minus the mark of the oldest period still inside it, and its maximum is
//!   the largest of the maxima of the marks inside it (a maximum does not
//!   subtract).  `dm-server` folds each tenant's request samples into two of
//!   these: `ServerStats`' `recent_*` tails and the per-tenant SLO input read
//!   their windows, and the since-boot request-wall and queue-delay
//!   histograms are their cumulative halves.
//! * [`WindowedHistogram`] — a ring of `N` slices recorded concurrently, each
//!   its own striped [`Histogram`]; a snapshot merges the slices inside the
//!   window.  It is kept as the reference the tests replay [`SnapshotWindow`]
//!   against.
//!
//! For the same samples at the same clocks the two give bucket-for-bucket
//! equal windows at every clock at or past the newest sample, stale samples
//! included (the tests replay streams across rotations).
//!
//! ## Snapshot differences
//!
//! * A sample of the newest period, or of a period that already has a mark,
//!   goes into the cumulative cells and its period's maximum.
//! * The first sample of a period opens the period's mark in its slot
//!   (evicting the mark a full window older) at the cumulative histogram —
//!   or, for a late sample whose newer periods are marked already, at the
//!   start of the next newer mark — and every newer mark's start takes the
//!   sample too, so the windows that begin there leave it out.
//! * A sample whose slot holds a *newer* period is stale by at least a full
//!   window; it is attributed to that newer period, as [`WindowedHistogram`]
//!   does.
//! * An *unwindowed* sample ([`record_unwindowed`](SnapshotWindow::record_unwindowed))
//!   enters the cumulative cells and every mark's start: it counts since
//!   boot and in no window.
//!
//! A `SnapshotWindow` is `N + 1` bucket arrays (≈ 52 KiB by default),
//! allocated once when it is built: recording never allocates, and costs a
//! bucket increment in the common case.
//!
//! ## Lock-free rotation protocol ([`WindowedHistogram`])
//!
//! Each slice carries a period tag (`AtomicU64`).  A recorder looks at its
//! period's slot's tag:
//!
//! * `tag == p` — the slice is current: record and return.
//! * `tag < p` — the slice holds an expired period: CAS the tag to the
//!   [`ROTATING`] sentinel, clear the slice, publish `p`, then record.  Losing
//!   the CAS means another thread is rotating; re-read the tag.
//! * `tag == ROTATING` — another recorder is mid-clear: spin (the critical
//!   section is a bounded bucket sweep, no allocation, no syscalls).
//! * `tag > p` — the recorder's clock sample is stale by at least a full
//!   window (it was preempted after reading the time).  The sample is
//!   recorded into the newer slice: counted exactly once, attributed to the
//!   period that replaced its own.  Windows are an approximation of "recent"
//!   — attributing a stalled sample to the adjacent period is within the
//!   contract; losing it would not be.
//!
//! Slice tags are initialized to their slot index, which is each slot's first
//! owning period — so the ring needs no special "empty" state.
//!
//! ## Accuracy contract (extends the crate-level one)
//!
//! * Within one period, every recorded sample is counted exactly once (the
//!   underlying [`Histogram`] adds are atomic).  Each slice is a striped
//!   [`Histogram`], so a window costs [`DEFAULT_SLICES`] × the histogram's
//!   stripes × 4 KiB — 192 KiB on a 2-core host, 384 KiB from 4 cores up —
//!   and a rotation clears every stripe of its slice before any writer may
//!   touch it.
//! * Rotation discards slices older than the window — that is the point, not
//!   a loss.
//! * One benign race: a recorder that read the tag as current, then stalled
//!   for longer than the *entire window* before touching the bucket, can have
//!   its sample swept by the clear that reuses the slot.  A thread stalled
//!   60 s between two adjacent instructions is outside any latency SLO this
//!   layer reports on.
//!
//! Tests drive time explicitly through the `*_at` methods; production code
//! uses the monotonic process clock via [`now_nanos`].

use crate::histogram::{Histogram, HistogramSnapshot};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Default number of slices in a window ring.
pub const DEFAULT_SLICES: usize = 12;
/// Default wall-time span of one slice.
pub const DEFAULT_SLICE: Duration = Duration::from_secs(5);
/// Period-tag sentinel marking a slice mid-clear.  No real period reaches it:
/// at 1 ns slices the process would need ~584 years of uptime.
pub const ROTATING: u64 = u64::MAX;

/// The instant the shared clock counts from: the first read of it in this
/// process.
fn epoch() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

/// Nanoseconds since the first windowed recording in this process, from the
/// shared monotonic clock all windows in the process rotate against.
#[inline]
pub fn now_nanos() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// `instant` on the [`now_nanos`] clock (0 for an instant before the clock's
/// epoch), for a caller that already read the clock.
#[inline]
pub fn nanos_at(instant: Instant) -> u64 {
    instant.saturating_duration_since(epoch()).as_nanos() as u64
}

/// One slice: the period it currently holds plus its histogram.
#[derive(Debug)]
struct HistSlice {
    tag: AtomicU64,
    hist: Histogram,
}

/// A ring of time-bucketed [`Histogram`] slices with lock-free rotation (see
/// the module docs for the protocol and accuracy contract).
#[derive(Debug)]
pub struct WindowedHistogram {
    slices: Box<[HistSlice]>,
    slice_nanos: u64,
}

impl Default for WindowedHistogram {
    fn default() -> Self {
        Self::new(DEFAULT_SLICES, DEFAULT_SLICE)
    }
}

impl WindowedHistogram {
    /// Creates a window of `slices` slices, each spanning `slice_span`.
    pub fn new(slices: usize, slice_span: Duration) -> Self {
        let slices = slices.max(2);
        let slice_nanos = (slice_span.as_nanos().max(1)).min(u64::MAX as u128 / 2) as u64;
        WindowedHistogram {
            slices: (0..slices)
                .map(|slot| HistSlice {
                    // A slot's first owning period is its own index.
                    tag: AtomicU64::new(slot as u64),
                    hist: Histogram::new(),
                })
                .collect(),
            slice_nanos,
        }
    }

    /// Total wall-time span the window covers.
    pub fn span(&self) -> Duration {
        Duration::from_nanos(self.slice_nanos.saturating_mul(self.slices.len() as u64))
    }

    /// Records one observation at the current time.  Gated on the `DM_OBS`
    /// kill switch: windowed tails are pure observability, so `DM_OBS=off`
    /// reduces this to one relaxed load and a branch.
    #[inline]
    pub fn record_nanos(&self, value: u64) {
        if !crate::enabled() {
            return;
        }
        self.record_at(now_nanos(), value);
    }

    /// Records one [`Duration`] observation at the current time.
    #[inline]
    pub fn record_duration(&self, duration: Duration) {
        self.record_nanos(duration.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Records at an explicit clock value (test entry point — not gated on the
    /// kill switch, so deterministic tests cannot be broken by the
    /// environment).
    pub fn record_at(&self, clock_nanos: u64, value: u64) {
        let period = clock_nanos / self.slice_nanos;
        let slice = &self.slices[(period % self.slices.len() as u64) as usize];
        loop {
            let tag = slice.tag.load(Ordering::Acquire);
            if tag == ROTATING {
                std::hint::spin_loop();
                continue;
            }
            if tag >= period {
                // Current (tag == period) or already rotated past us by a
                // stalled clock sample (tag > period): count the sample here.
                slice.hist.record_nanos(value);
                return;
            }
            // Expired: claim the clear.
            if slice
                .tag
                .compare_exchange(tag, ROTATING, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                slice.hist.clear();
                slice.tag.store(period, Ordering::Release);
                slice.hist.record_nanos(value);
                return;
            }
        }
    }

    /// Merged snapshot of every slice still inside the window ending now.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.snapshot_at(now_nanos())
    }

    /// Merged snapshot at an explicit clock value: slices whose period tag is
    /// within the last `N` periods ending at `clock_nanos`'s period.  A slice
    /// mid-rotation is skipped (its old samples are expired, its new ones not
    /// yet published).
    pub fn snapshot_at(&self, clock_nanos: u64) -> HistogramSnapshot {
        let period = clock_nanos / self.slice_nanos;
        let oldest = period.saturating_sub(self.slices.len() as u64 - 1);
        let mut merged = HistogramSnapshot::default();
        for slice in self.slices.iter() {
            let tag = slice.tag.load(Ordering::Acquire);
            if tag != ROTATING && tag >= oldest && tag <= period {
                merged.merge(&slice.hist.snapshot());
            }
        }
        merged
    }

    /// Clears every slice (quiescent use, e.g. between bench sections).
    pub fn clear(&self) {
        for (slot, slice) in self.slices.iter().enumerate() {
            slice.hist.clear();
            slice.tag.store(slot as u64, Ordering::Release);
        }
    }
}

/// One period's mark in a [`SnapshotWindow`].
#[derive(Debug, Clone)]
struct Mark {
    /// The period this mark opened for; `None` before its slot's first.
    period: Option<u64>,
    /// The cumulative counts and sum of every sample of an earlier period:
    /// where a window that begins with this period starts.
    start: HistogramSnapshot,
    /// The largest sample of the period.
    max: u64,
}

/// A sliding window kept as the difference of two snapshots of one
/// cumulative histogram (see the module docs).  Single-owner: recording
/// takes `&mut self`, so the owner folds into it under a lock of its own.
#[derive(Debug, Clone)]
pub struct SnapshotWindow {
    total: HistogramSnapshot,
    marks: Box<[Mark]>,
    slice_nanos: u64,
    /// The newest period any mark holds: samples of it or later touch no
    /// other mark.
    newest: Option<u64>,
}

impl Default for SnapshotWindow {
    fn default() -> Self {
        Self::new(DEFAULT_SLICES, DEFAULT_SLICE)
    }
}

impl SnapshotWindow {
    /// Creates a window of `slices` periods, each spanning `slice_span`.
    pub fn new(slices: usize, slice_span: Duration) -> Self {
        let slices = slices.max(2);
        let slice_nanos = (slice_span.as_nanos().max(1)).min(u64::MAX as u128 / 2) as u64;
        let mark = Mark {
            period: None,
            start: HistogramSnapshot::default(),
            max: 0,
        };
        SnapshotWindow {
            total: HistogramSnapshot::default(),
            marks: vec![mark; slices].into_boxed_slice(),
            slice_nanos,
            newest: None,
        }
    }

    /// Every sample recorded, windowed or not, since the window was built.
    pub fn total(&self) -> &HistogramSnapshot {
        &self.total
    }

    /// Records `value` as a sample taken at `clock_nanos` (on the
    /// [`now_nanos`] clock).
    pub fn record_at(&mut self, clock_nanos: u64, value: u64) {
        let mut period = clock_nanos / self.slice_nanos;
        let slot = (period % self.marks.len() as u64) as usize;
        match self.marks[slot].period {
            // Stale by a full window or more: the newer period takes it.
            Some(held) if held > period => period = held,
            Some(held) if held == period => {}
            _ => self.open(slot, period),
        }
        self.total.record_nanos(value);
        if self.newest > Some(period) {
            for mark in self.marks.iter_mut() {
                if mark.period > Some(period) {
                    mark.start.record_nanos(value);
                }
            }
        }
        let mark = &mut self.marks[slot];
        mark.max = mark.max.max(value);
    }

    /// Records `value` since boot only: it enters the cumulative histogram
    /// and no window.
    pub fn record_unwindowed(&mut self, value: u64) {
        self.total.record_nanos(value);
        for mark in self.marks.iter_mut().filter(|mark| mark.period.is_some()) {
            mark.start.record_nanos(value);
        }
    }

    /// Opens `period`'s mark in `slot`: it starts where the next newer mark
    /// starts, or at the cumulative histogram when no mark is newer.
    fn open(&mut self, slot: usize, period: u64) {
        let next = (0..self.marks.len())
            .filter(|&i| self.marks[i].period > Some(period))
            .min_by_key(|&i| self.marks[i].period);
        let (mark, start) = match next {
            None => (&mut self.marks[slot], &self.total),
            Some(next) if next < slot => {
                let (head, tail) = self.marks.split_at_mut(slot);
                (&mut tail[0], &head[next].start)
            }
            Some(next) => {
                let (head, tail) = self.marks.split_at_mut(next);
                (&mut head[slot], &tail[0].start)
            }
        };
        mark.start.copy_from(start);
        mark.period = Some(period);
        mark.max = 0;
        self.newest = self.newest.max(Some(period));
    }

    /// The window ending in `clock_nanos`'s period: the samples of the last
    /// `N` periods up to it.
    pub fn snapshot_at(&self, clock_nanos: u64) -> HistogramSnapshot {
        let period = clock_nanos / self.slice_nanos;
        let oldest = period.saturating_sub(self.marks.len() as u64 - 1);
        let inside = |mark: &&Mark| mark.period.is_some_and(|p| p >= oldest && p <= period);
        let Some(first) = self
            .marks
            .iter()
            .filter(inside)
            .min_by_key(|mark| mark.period)
        else {
            return HistogramSnapshot::default();
        };
        // A window that ends before the newest sample ends where the next
        // newer mark starts.
        let end = self
            .marks
            .iter()
            .filter(|mark| mark.period > Some(period))
            .min_by_key(|mark| mark.period)
            .map_or(&self.total, |mark| &mark.start);
        let max = self
            .marks
            .iter()
            .filter(inside)
            .map(|mark| mark.max)
            .max()
            .unwrap_or(0);
        end.since(&first.start, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    const SLICE: u64 = 1_000; // 1 µs slices keep the arithmetic readable

    fn window(slices: usize) -> WindowedHistogram {
        WindowedHistogram::new(slices, Duration::from_nanos(SLICE))
    }

    #[test]
    fn samples_land_in_their_period_and_expire_after_the_window() {
        let w = window(4);
        w.record_at(0, 10);
        w.record_at(SLICE, 20);
        w.record_at(2 * SLICE, 30);
        // All three periods are inside the 4-slice window at t = 2 slices.
        let snap = w.snapshot_at(2 * SLICE);
        assert_eq!(snap.count(), 3);
        assert_eq!(snap.sum(), 60);
        // At t = 5 slices, only periods 2..=5 are in-window: period 0 and 1
        // samples have expired.
        let snap = w.snapshot_at(5 * SLICE);
        assert_eq!(snap.count(), 1);
        assert_eq!(snap.sum(), 30);
        // At t = 7 slices nothing recorded is in-window.  Period 2's slot
        // (2 % 4) would be owned by period 6 now; its stale tag keeps it out.
        assert_eq!(w.snapshot_at(7 * SLICE).count(), 0);
    }

    #[test]
    fn slot_reuse_clears_expired_samples() {
        let w = window(4);
        for i in 0..100 {
            w.record_at(SLICE, i); // period 1, slot 1
        }
        assert_eq!(w.snapshot_at(SLICE).count(), 100);
        // Period 5 owns the same slot; the first record there must sweep the
        // expired period-1 samples.
        w.record_at(5 * SLICE, 42);
        let snap = w.snapshot_at(5 * SLICE);
        assert_eq!(snap.count(), 1);
        assert_eq!(snap.sum(), 42);
    }

    #[test]
    fn stale_clock_records_into_newer_slice_counted_once() {
        let w = window(4);
        // Period 9 claims slot 1.
        w.record_at(9 * SLICE, 5);
        // A recorder whose clock sample is a full window stale targets the
        // same slot for period 1.  tag (9) > period (1): the sample lands in
        // the period-9 slice — counted once, not lost.
        w.record_at(SLICE, 7);
        let snap = w.snapshot_at(9 * SLICE);
        assert_eq!(snap.count(), 2);
        assert_eq!(snap.sum(), 12);
    }

    #[test]
    fn percentiles_describe_the_window_not_the_lifetime() {
        let w = window(4);
        // An old period full of slow samples, long expired.
        for _ in 0..1_000 {
            w.record_at(0, 1_000_000);
        }
        // Recent periods are fast.
        for i in 0..100 {
            w.record_at(10 * SLICE + (i % 2) * SLICE, 100);
        }
        let snap = w.snapshot_at(11 * SLICE);
        assert_eq!(snap.count(), 100);
        assert!(snap.p99() < 1_000, "lifetime samples leaked into the window");
    }

    /// The satellite-task property test: concurrent writers recording across
    /// live slice rotations lose nothing and double-count nothing.  Every
    /// thread walks the same period range `first..=last` chosen so that no
    /// slot is reused (rotation happens — every slot advances from its init
    /// tag — but no in-window sample can be swept), so the final window must
    /// hold exactly every recorded sample.
    #[test]
    fn concurrent_rotation_loses_no_samples_and_double_counts_none() {
        let slices = 8usize;
        let threads = 8u64;
        let per_period = 500u64;
        let w = Arc::new(window(slices));
        // Periods 10..=17: eight periods over eight slots, each slot rotated
        // exactly once from its init tag, all still in-window at the end.
        let first = 10u64;
        let last = first + slices as u64 - 1;
        std::thread::scope(|s| {
            for t in 0..threads {
                let w = Arc::clone(&w);
                s.spawn(move || {
                    for period in first..=last {
                        for i in 0..per_period {
                            // Distinct values per thread so sum checks catch
                            // a double-count even where counts happen to match.
                            w.record_at(period * SLICE, t * 1_000 + i);
                        }
                    }
                });
            }
        });
        let snap = w.snapshot_at(last * SLICE);
        let expected_count = threads * per_period * slices as u64;
        let per_thread_sum: u64 = (0..per_period).sum();
        let expected_sum: u64 = (0..threads)
            .map(|t| (per_thread_sum + t * 1_000 * per_period) * slices as u64)
            .sum();
        assert_eq!(snap.count(), expected_count, "samples lost or duplicated");
        assert_eq!(snap.sum(), expected_sum, "sample values corrupted");
    }

    /// The histogram ring's slices are striped: writers on every stripe race
    /// one slot's rotation (period 3 → period 7), and the clear that rotation
    /// runs over all stripes loses none of the new period's samples.
    #[test]
    fn concurrent_rotation_of_a_striped_slice_loses_no_count() {
        let threads = 2 * crate::histogram::stripe_count() as u64;
        let records = 2_000u64;
        let w = window(4);
        // Warm the slot with an expired period so every thread races to rotate.
        w.record_at(3 * SLICE, 1_000_000);
        std::thread::scope(|s| {
            for t in 0..threads {
                let w = &w;
                s.spawn(move || {
                    for i in 0..records {
                        w.record_at(7 * SLICE, t + i);
                    }
                });
            }
        });
        let snap = w.snapshot_at(7 * SLICE);
        assert_eq!(snap.count(), threads * records, "samples lost in the rotation");
        let per_thread_sum = |t: u64| t * records + records * (records - 1) / 2;
        let expected_sum: u64 = (0..threads).map(per_thread_sum).sum();
        assert_eq!(snap.sum(), expected_sum);
        assert_eq!(snap.max(), threads - 1 + records - 1, "the expired period leaked");
    }

    /// Deterministic pseudo-random stream for the replay tests.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A `SnapshotWindow` and a `WindowedHistogram` fed the same samples at
    /// the same clocks — mostly in order across many rotations, some late
    /// inside the window, some stale by more than a window — give windows
    /// equal bucket for bucket (hence every percentile) at every clock at or
    /// past the newest sample.
    #[test]
    fn snapshot_differences_replay_the_slice_ring() {
        let slices = 4u64;
        let sliced = window(slices as usize);
        let mut diffed = SnapshotWindow::new(slices as usize, Duration::from_nanos(SLICE));
        let mut state = 17u64;
        let mut newest = 0u64;
        for step in 0..4_000u64 {
            let r = splitmix(&mut state);
            let at = match r % 10 {
                0 => newest.saturating_sub(r % (3 * SLICE)),
                1 => newest.saturating_sub(slices * SLICE + r % (4 * SLICE)),
                _ => {
                    newest += r % (SLICE / 3);
                    newest
                }
            };
            let value = splitmix(&mut state) % (1 << (step % 30));
            sliced.record_at(at, value);
            diffed.record_at(at, value);
            if step % 5 == 0 {
                for ahead in [0, SLICE / 2, SLICE, 2 * SLICE, 3 * SLICE, 5 * SLICE] {
                    let clock = newest + ahead;
                    let (want, got) = (sliced.snapshot_at(clock), diffed.snapshot_at(clock));
                    assert_eq!(got, want, "step {step}, clock {clock}");
                    for q in [0.5, 0.95, 0.99] {
                        assert_eq!(got.percentile(q), want.percentile(q));
                    }
                }
            }
        }
        assert_eq!(diffed.total().count(), 4_000);
        assert!(newest > 100 * SLICE, "the replay crossed many rotations");
    }

    /// An unwindowed sample counts since boot and in no window, whether it
    /// comes before any mark or between them.
    #[test]
    fn unwindowed_samples_stay_out_of_every_window() {
        let sliced = window(4);
        let mut diffed = SnapshotWindow::new(4, Duration::from_nanos(SLICE));
        diffed.record_unwindowed(5);
        for (clock, value) in [(0, 10), (SLICE, 20), (5 * SLICE, 40)] {
            sliced.record_at(clock, value);
            diffed.record_at(clock, value);
            diffed.record_unwindowed(1_000);
        }
        assert_eq!(diffed.total().count(), 7);
        assert_eq!(diffed.total().max(), 1_000);
        for clock in [5 * SLICE, 6 * SLICE, 9 * SLICE] {
            assert_eq!(
                diffed.snapshot_at(clock),
                sliced.snapshot_at(clock),
                "clock {clock}"
            );
        }
        assert_eq!(diffed.snapshot_at(5 * SLICE).sum(), 40);
    }

    #[test]
    fn kill_switch_gates_wall_clock_recording() {
        let _guard = crate::test_guard();
        crate::set_enabled(false);
        let w = WindowedHistogram::default();
        w.record_nanos(123);
        crate::set_enabled(true);
        assert_eq!(w.snapshot().count(), 0);
        w.record_nanos(123);
        assert_eq!(w.snapshot().count(), 1);
    }

    #[test]
    fn defaults_cover_a_minute() {
        assert_eq!(WindowedHistogram::default().span(), Duration::from_secs(60));
    }
}
