//! Lock-free log2-bucketed latency histograms.
//!
//! A [`Histogram`] is a fixed-size array of relaxed [`AtomicU64`] buckets: a
//! recorded value selects its bucket from its most-significant bit plus
//! [`SUB_BITS`] bits of mantissa, so every bucket spans at most `1/2^SUB_BITS`
//! (12.5%) of its lower bound.  Recording is two relaxed atomic adds and one
//! `fetch_max` — no locks, no allocation, safe from any thread.
//!
//! ## Stripes
//!
//! Two threads that record into one set of cells bounce its `sum` and `max`
//! lines between their cores: on a 2-vcore x86-64 host one record costs
//! ≈ 20 ns from one thread and ≈ 150 ns from each of two threads sharing the
//! cells.  So a histogram keeps [`stripe_count`] copies of its cells — the
//! next power of two at or above twice `available_parallelism`, at most 8 —
//! and a thread always writes the copy its round-robin
//! thread index picks (the same index [`Counter`](crate::Counter) stripes
//! by).  A [`snapshot`](Histogram::snapshot) sums the stripes, so it reads
//! exactly what one set of cells would have.  The price is memory: one stripe
//! is [`STRIPE_BYTES`] (4 KiB, padded to whole 128-byte line pairs so no two
//! stripes share a prefetch pair), so a histogram is 16 KiB on a 2-core host
//! and 32 KiB from 4 cores up, against 3.9 KiB for a single set of cells.
//!
//! ## Accuracy contract
//!
//! * `count` and `sum` are exact: every recorded value contributes exactly once
//!   (relaxed adds never lose increments, they only reorder).
//! * Percentiles are nearest-rank over the bucket counts and are reported as
//!   the *upper bound* of the selected bucket (clamped to the exact observed
//!   maximum), so a reported quantile is `>=` the true sample quantile and at
//!   most 12.5% + 1ns above it.
//! * A [`snapshot`](Histogram::snapshot) taken while writers are active is a
//!   *consistent-enough* view: each bucket is exact, but buckets may be offset
//!   by in-flight recordings (the usual relaxed-counter caveat).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// Bits of linear mantissa per power-of-two range.  8 sub-buckets per octave
/// bounds the relative quantization error at 12.5%.
pub const SUB_BITS: u32 = 3;
const SUB: usize = 1 << SUB_BITS;
/// Total number of buckets: values below `2^SUB_BITS` are exact (one bucket per
/// value); every octave above contributes `2^SUB_BITS` linear sub-buckets.
pub const NUM_BUCKETS: usize = ((64 - SUB_BITS as usize) << SUB_BITS) + SUB;

/// Bucket index for a value — monotone in `value`.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value < SUB as u64 {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros();
    let offset = (value >> (msb - SUB_BITS)) & (SUB as u64 - 1);
    (((msb - SUB_BITS + 1) as usize) << SUB_BITS) + offset as usize
}

/// Inclusive `(low, high)` value range covered by bucket `index`.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    if index < SUB {
        return (index as u64, index as u64);
    }
    let group = (index >> SUB_BITS) as u32;
    let msb = group + SUB_BITS - 1;
    let offset = (index & (SUB - 1)) as u64;
    let low = (1u64 << msb) + (offset << (msb - SUB_BITS));
    let high = low + ((1u64 << (msb - SUB_BITS)) - 1);
    (low, high)
}

/// Most stripes a histogram keeps, whatever the core count.
const MAX_STRIPES: usize = 8;

/// Bytes of one stripe: [`NUM_BUCKETS`] counts plus sum and max, padded to a
/// multiple of 128.
pub const STRIPE_BYTES: usize = std::mem::size_of::<Stripe>();

/// Stripes per histogram on this host: the next power of two at or above
/// twice `available_parallelism`, at most 8.  Read once.
pub fn stripe_count() -> usize {
    static STRIPES: OnceLock<usize> = OnceLock::new();
    *STRIPES.get_or_init(|| {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        (2 * cores).next_power_of_two().min(MAX_STRIPES)
    })
}

/// This thread's index, handed out round-robin on its first call and fixed
/// for the thread's life.  Striped cells reduce it modulo their stripe
/// count, so threads that start one after another write different stripes.
pub fn thread_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static INDEX: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    INDEX.with(|index| *index)
}

/// One thread's copy of a histogram's cells.
#[derive(Debug)]
#[repr(align(128))]
struct Stripe {
    buckets: [AtomicU64; NUM_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Stripe {
    fn new() -> Self {
        Stripe {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A mergeable, lock-free, fixed-size latency histogram, striped per thread
/// (see the module docs for the stripes and the accuracy contract).  Values
/// are conventionally nanoseconds but any `u64` works.
#[derive(Debug)]
pub struct Histogram {
    stripes: Box<[Stripe]>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram of [`stripe_count`] stripes.
    pub fn new() -> Self {
        Histogram {
            stripes: (0..stripe_count()).map(|_| Stripe::new()).collect(),
        }
    }

    /// Records one observation, in nanoseconds, into the calling thread's
    /// stripe.  Three relaxed atomic ops, no locks.
    #[inline]
    pub fn record_nanos(&self, nanos: u64) {
        // `stripe_count` is a power of two.
        let stripe = &self.stripes[thread_index() & (self.stripes.len() - 1)];
        stripe.buckets[bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
        stripe.sum.fetch_add(nanos, Ordering::Relaxed);
        stripe.max.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Records one observation given as a [`Duration`].
    #[inline]
    pub fn record_duration(&self, duration: Duration) {
        self.record_nanos(duration.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Total number of recorded observations.
    pub fn count(&self) -> u64 {
        self.stripes
            .iter()
            .flat_map(|stripe| &stripe.buckets)
            .map(|b| b.load(Ordering::Relaxed))
            .sum()
    }

    /// Point-in-time sum of the stripes (see the module-level consistency
    /// caveat for concurrent writers).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut snapshot = HistogramSnapshot::default();
        for stripe in self.stripes.iter() {
            for (count, bucket) in snapshot.counts.iter_mut().zip(&stripe.buckets) {
                *count += bucket.load(Ordering::Relaxed);
            }
            snapshot.sum += stripe.sum.load(Ordering::Relaxed);
            snapshot.max = snapshot.max.max(stripe.max.load(Ordering::Relaxed));
        }
        snapshot
    }

    /// Zeroes every bucket.  Intended for quiescent use (e.g. a benchmark
    /// resetting between measurement sections); concurrent recordings during a
    /// clear may survive it or be lost, but never corrupt the histogram.
    pub fn clear(&self) {
        for stripe in self.stripes.iter() {
            for bucket in &stripe.buckets {
                bucket.store(0, Ordering::Relaxed);
            }
            stripe.sum.store(0, Ordering::Relaxed);
            stripe.max.store(0, Ordering::Relaxed);
        }
    }
}

/// An owned, mergeable copy of a [`Histogram`]'s state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
    sum: u64,
    max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            counts: vec![0; NUM_BUCKETS],
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Exact sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact maximum recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum as f64 / count as f64
        }
    }

    /// Nearest-rank quantile `q` in `[0, 1]`: the upper bound of the bucket
    /// holding the `ceil(q * count)`-th smallest observation, clamped to the
    /// exact observed maximum.  Returns 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (index, &bucket) in self.counts.iter().enumerate() {
            seen += bucket;
            if seen >= rank {
                return bucket_bounds(index).1.min(self.max);
            }
        }
        self.max
    }

    /// Median (nearest-rank p50).
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// Nearest-rank p95.
    pub fn p95(&self) -> u64 {
        self.percentile(0.95)
    }

    /// Nearest-rank p99.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// The non-empty buckets as Prometheus-style cumulative `le` pairs:
    /// `(upper_bound, cumulative_count)` where `cumulative_count` is the
    /// number of observations `<= upper_bound`.  Empty buckets are elided —
    /// cumulative counts make them redundant, and exporting all
    /// [`NUM_BUCKETS`] raw buckets would bloat every scrape.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cumulative = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            if count > 0 {
                cumulative += count;
                out.push((bucket_bounds(index).1, cumulative));
            }
        }
        out
    }

    /// Folds `other` into `self`.  Merging is exactly record-union: a merged
    /// snapshot is indistinguishable from one histogram that recorded both
    /// input streams.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Records one observation into this snapshot's own cells: the
    /// single-owner form of [`Histogram::record_nanos`], for a caller that
    /// folds samples under a lock of its own.  The result is exactly what a
    /// [`Histogram`] that recorded the same values would snapshot to.
    #[inline]
    pub fn record_nanos(&mut self, nanos: u64) {
        self.counts[bucket_index(nanos)] += 1;
        self.sum = self.sum.wrapping_add(nanos);
        self.max = self.max.max(nanos);
    }

    /// Overwrites `self` with `other` without allocating.
    pub(crate) fn copy_from(&mut self, other: &HistogramSnapshot) {
        self.counts.copy_from_slice(&other.counts);
        self.sum = other.sum;
        self.max = other.max;
    }

    /// Counts and sum of `self` less those of `earlier`, a snapshot of the
    /// same cumulative stream taken before it, with `max` as its maximum (a
    /// maximum does not subtract: the caller keeps it).
    pub(crate) fn since(&self, earlier: &HistogramSnapshot, max: u64) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self
                .counts
                .iter()
                .zip(&earlier.counts)
                .map(|(now, then)| now - then)
                .collect(),
            sum: self.sum.wrapping_sub(earlier.sum),
            max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact nearest-rank quantile over a sorted sample — the oracle the
    /// bucketed percentile is validated against.
    fn oracle_percentile(sorted: &[u64], q: f64) -> u64 {
        assert!(!sorted.is_empty());
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// Deterministic pseudo-random stream (no external crates in dm-obs).
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    #[test]
    fn bucket_index_is_monotone_and_bounds_are_a_partition() {
        // Every bucket's bounds must invert bucket_index, and consecutive
        // buckets must tile the u64 range with no gap or overlap.
        let mut expected_low = 0u64;
        for index in 0..NUM_BUCKETS {
            let (low, high) = bucket_bounds(index);
            assert_eq!(low, expected_low, "gap/overlap before bucket {index}");
            assert!(high >= low);
            assert_eq!(bucket_index(low), index);
            assert_eq!(bucket_index(high), index);
            if high == u64::MAX {
                assert_eq!(index, NUM_BUCKETS - 1);
                return;
            }
            expected_low = high + 1;
        }
        panic!("buckets did not reach u64::MAX");
    }

    #[test]
    fn bucket_relative_error_is_bounded() {
        let mut state = 7u64;
        for _ in 0..10_000 {
            let v = splitmix(&mut state);
            let (low, high) = bucket_bounds(bucket_index(v));
            assert!(low <= v && v <= high);
            // Bucket width is at most 1/8 of the value's magnitude.
            assert!(high - low <= (v >> SUB_BITS) + 1);
        }
    }

    #[test]
    fn percentiles_match_sorted_vec_oracle_within_bucket_error() {
        let mut state = 42u64;
        for workload in 0..20 {
            let n = 50 + (workload * 97) % 2_000;
            let hist = Histogram::new();
            let mut samples: Vec<u64> = (0..n)
                .map(|_| match splitmix(&mut state) % 4 {
                    0 => splitmix(&mut state) % 100,              // sub-bucket exact range
                    1 => splitmix(&mut state) % 1_000_000,        // microseconds
                    2 => splitmix(&mut state) % 10_000_000_000,   // up to 10s
                    _ => splitmix(&mut state),                    // full u64
                })
                .collect();
            for &s in &samples {
                hist.record_nanos(s);
            }
            samples.sort_unstable();
            let snap = hist.snapshot();
            assert_eq!(snap.count(), n as u64);
            assert_eq!(snap.max(), *samples.last().unwrap());
            for q in [0.01, 0.25, 0.50, 0.75, 0.95, 0.99, 1.0] {
                let exact = oracle_percentile(&samples, q);
                let approx = snap.percentile(q);
                assert!(
                    approx >= exact,
                    "q={q}: reported {approx} below exact {exact}"
                );
                // Upper bound of the exact value's bucket, and never above max.
                assert!(approx <= bucket_bounds(bucket_index(exact)).1.min(snap.max()));
            }
        }
    }

    #[test]
    fn percentiles_are_monotone_in_q() {
        let mut state = 1u64;
        let hist = Histogram::new();
        for _ in 0..500 {
            hist.record_nanos(splitmix(&mut state) % 1_000_000);
        }
        let snap = hist.snapshot();
        let mut prev = 0;
        for step in 1..=100 {
            let value = snap.percentile(step as f64 / 100.0);
            assert!(value >= prev, "percentile not monotone at q={step}%");
            prev = value;
        }
        assert!(snap.p50() <= snap.p95());
        assert!(snap.p95() <= snap.p99());
        assert!(snap.p99() <= snap.max());
    }

    #[test]
    fn merge_equals_record_union() {
        let mut state = 99u64;
        let left = Histogram::new();
        let right = Histogram::new();
        let union = Histogram::new();
        for i in 0..3_000u64 {
            let v = splitmix(&mut state) % (1 << (i % 40));
            if i % 3 == 0 {
                left.record_nanos(v);
            } else {
                right.record_nanos(v);
            }
            union.record_nanos(v);
        }
        let mut merged = left.snapshot();
        merged.merge(&right.snapshot());
        assert_eq!(merged, union.snapshot());
    }

    #[test]
    fn a_plainly_recorded_snapshot_equals_the_atomic_histogram() {
        let mut state = 3u64;
        let hist = Histogram::new();
        let mut plain = HistogramSnapshot::default();
        for i in 0..2_000u64 {
            let v = splitmix(&mut state) % (1 << (i % 44));
            hist.record_nanos(v);
            plain.record_nanos(v);
        }
        assert_eq!(plain, hist.snapshot());
        let mut copy = HistogramSnapshot::default();
        copy.copy_from(&plain);
        assert_eq!(copy, plain);
        plain.record_nanos(77);
        let since = plain.since(&copy, 77);
        assert_eq!((since.count(), since.sum(), since.p50()), (1, 77, 77));
    }

    #[test]
    fn concurrent_recording_loses_no_counts() {
        use std::sync::Arc;
        let hist = Arc::new(Histogram::new());
        let threads = 8;
        let per_thread = 20_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let hist = Arc::clone(&hist);
                std::thread::spawn(move || {
                    let mut state = t;
                    let mut local_sum = 0u64;
                    for _ in 0..per_thread {
                        let v = splitmix(&mut state) % 1_000_000;
                        local_sum += v;
                        hist.record_nanos(v);
                    }
                    local_sum
                })
            })
            .collect();
        let expected_sum: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        let snap = hist.snapshot();
        assert_eq!(snap.count(), threads * per_thread, "lost bucket increments");
        assert_eq!(snap.sum(), expected_sum, "lost sum increments");
    }

    /// Twice as many writer threads as stripes, so every stripe takes writes
    /// from at least two threads: the summed snapshot equals one recorded on
    /// a single thread (one stripe) from the same values — count, sum, max
    /// and every bucket, hence every percentile.
    #[test]
    fn striped_recording_equals_a_single_stripe_reference() {
        let threads = 2 * stripe_count() as u64;
        let per_thread = 5_000u64;
        let value = |t: u64, i: u64| {
            let mut state = t * per_thread + i;
            splitmix(&mut state) % (1 << (i % 36))
        };
        let striped = Histogram::new();
        std::thread::scope(|s| {
            for t in 0..threads {
                let striped = &striped;
                s.spawn(move || {
                    for i in 0..per_thread {
                        striped.record_nanos(value(t, i));
                    }
                });
            }
        });
        let reference = Histogram::new();
        let mut max = 0;
        for t in 0..threads {
            for i in 0..per_thread {
                reference.record_nanos(value(t, i));
                max = max.max(value(t, i));
            }
        }
        let (striped, reference) = (striped.snapshot(), reference.snapshot());
        assert_eq!(striped.count(), threads * per_thread);
        assert_eq!(striped.max(), max);
        assert_eq!(striped, reference, "stripes must sum to the single-stripe cells");
        for q in [0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(striped.percentile(q), reference.percentile(q));
        }
    }

    #[test]
    fn stripe_count_is_a_bounded_power_of_two() {
        let stripes = stripe_count();
        assert!(stripes.is_power_of_two() && stripes <= MAX_STRIPES, "{stripes}");
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert!(stripes >= (2 * cores).min(MAX_STRIPES));
    }

    #[test]
    fn cumulative_buckets_are_monotone_and_end_at_count() {
        let mut state = 5u64;
        let hist = Histogram::new();
        let mut samples = Vec::new();
        for _ in 0..2_000 {
            let v = splitmix(&mut state) % 50_000_000;
            samples.push(v);
            hist.record_nanos(v);
        }
        let snap = hist.snapshot();
        let buckets = snap.cumulative_buckets();
        assert!(!buckets.is_empty());
        // Upper bounds and cumulative counts are strictly increasing, the
        // last cumulative count is the total, and each cumulative count is
        // exactly the number of samples <= that bound.
        let mut prev_le = 0u64;
        let mut prev_cum = 0u64;
        for &(le, cum) in &buckets {
            assert!(le > prev_le || prev_cum == 0);
            assert!(cum > prev_cum);
            let exact = samples.iter().filter(|&&s| s <= le).count() as u64;
            assert_eq!(cum, exact, "cumulative count at le={le}");
            prev_le = le;
            prev_cum = cum;
        }
        assert_eq!(buckets.last().unwrap().1, snap.count());
        assert!(HistogramSnapshot::default().cumulative_buckets().is_empty());
    }

    #[test]
    fn empty_and_cleared_histograms_report_zero() {
        let hist = Histogram::new();
        assert_eq!(hist.snapshot(), HistogramSnapshot::default());
        assert_eq!(hist.snapshot().p99(), 0);
        hist.record_nanos(123);
        hist.record_duration(Duration::from_micros(5));
        assert_eq!(hist.count(), 2);
        hist.clear();
        assert_eq!(hist.snapshot(), HistogramSnapshot::default());
    }
}
