//! The cross-backend store API: [`TupleStore`] (shared, allocation-aware reads) and
//! [`MutableStore`] (modifications), plus the reusable [`LookupBuffer`] arena batch
//! lookups write into.
//!
//! The read trait is deliberately `&self`-based: DeepMapping's Algorithm 1 only ever
//! *reads* the model, existence vector and auxiliary partitions, and every shared
//! component (buffer pool, simulated disk, metrics) already sits behind interior
//! mutability, so one store instance can serve lookups from many threads at once.
//! Requiring `Send + Sync` on the trait makes that contract explicit — an
//! `Arc<impl TupleStore>` is a valid concurrent query server.
//!
//! The allocation story: the old interface returned `Vec<Option<Vec<u32>>>`, one heap
//! allocation per hit per batch.  [`TupleStore::lookup_batch_into`] instead appends
//! every hit's values to one flat arena inside a caller-owned [`LookupBuffer`] and
//! records a per-key span, so a steady-state workload that reuses its buffer performs
//! zero per-key allocations — the arena and span table are cleared, not freed, between
//! batches.  A store may also borrow the buffer's typed working memory
//! ([`LookupBuffer::take_scratch`]) for its batch-sized intermediates: DeepMapping's
//! pipeline keeps its route and probe-plan vectors there, and writes its answers
//! straight into rows it claims in the arena ([`LookupBuffer::claim_hits`]), so its
//! steady-state call allocates nothing at all.  [`TupleStore::lookup_batch`] keeps
//! the old materialized shape as a convenience built on top.

use crate::row::{Row, StoreStats};
use crate::{Result, StorageError};

/// Span of one key's values inside the [`LookupBuffer`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    start: u32,
    len: u32,
}

/// Sentinel span marking a key with no result (a miss).
const MISS: Span = Span {
    start: u32::MAX,
    len: 0,
};

/// Sentinel span marking a key whose probe *failed*: the store could not
/// determine this key's answer (e.g. its auxiliary partition would not load),
/// which is a different statement than "this key does not exist".  Failed
/// keys carry a typed [`StorageError`] in a side table; see
/// [`LookupBuffer::set_failed`].
const FAILED: Span = Span {
    start: u32::MAX,
    len: u32::MAX,
};

/// A borrowed view of one tuple inside a [`LookupBuffer`]: the query key plus a slice
/// of its value codes in the buffer's arena.  No allocation, valid until the buffer is
/// next reset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TupleRef<'a> {
    /// The query key this tuple answers.
    pub key: u64,
    /// The tuple's value codes, in schema order.
    pub values: &'a [u32],
}

impl TupleRef<'_> {
    /// Materializes the view into an owned [`Row`].
    pub fn to_row(&self) -> Row {
        Row::new(self.key, self.values.to_vec())
    }
}

/// A reusable result arena for batch lookups.
///
/// One buffer holds one batch's results: the queried keys, a flat `u32` arena with
/// every hit's values, and a per-key span/miss table.  Resetting for the next batch
/// clears the contents but keeps the allocations, so repeated batches of similar shape
/// reach a steady state with **zero** per-key heap allocations (asserted by the
/// workspace's capacity-stability test).
///
/// A hit is recorded one at a time ([`set_hit`](Self::set_hit), which copies its
/// values in) or in bulk ([`claim_hits`](Self::claim_hits), which marks many
/// positions as hits and hands back their rows for the store to write in place).
/// A claimed position later marked failed leaves its row in the arena as dead
/// values until the next [`reset`](Self::reset).
#[derive(Debug, Default, Clone)]
pub struct LookupBuffer {
    keys: Vec<u64>,
    spans: Vec<Span>,
    values: Vec<u32>,
    hits: usize,
    /// Per-key probe failures, sparse: `(query index, error)` pairs in query
    /// order.  Failures are rare (a partition that would not load), so a
    /// linear side table beats widening every span.  Cleared, not freed, by
    /// [`reset`](Self::reset).
    errors: Vec<(u32, StorageError)>,
    /// Detachable working memory a store borrows for the batch-sized
    /// intermediates of a lookup (the route and probe-plan vectors), so none
    /// is allocated per batch.
    scratch: Scratch,
}

/// The store-typed working memory a [`LookupBuffer`] lends out: whatever the
/// last batch left in it, of the type its store uses.  A clone starts empty —
/// the contents mean nothing between batches.
#[derive(Default)]
struct Scratch(Option<Box<dyn std::any::Any + Send + Sync>>);

impl Clone for Scratch {
    fn clone(&self) -> Self {
        Scratch(None)
    }
}

impl std::fmt::Debug for Scratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() { "Scratch(held)" } else { "Scratch(empty)" })
    }
}

impl LookupBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a buffer pre-sized for `keys` queries with about `values_per_key`
    /// value columns each.
    pub fn with_capacity(keys: usize, values_per_key: usize) -> Self {
        LookupBuffer {
            keys: Vec::with_capacity(keys),
            spans: Vec::with_capacity(keys),
            values: Vec::with_capacity(keys * values_per_key),
            hits: 0,
            errors: Vec::new(),
            scratch: Scratch::default(),
        }
    }

    /// Clears the buffer and re-seeds it with a new query batch: every key starts as
    /// a miss.  Existing allocations are reused.
    pub fn reset(&mut self, keys: &[u64]) {
        self.keys.clear();
        self.keys.extend_from_slice(keys);
        self.spans.clear();
        self.spans.resize(keys.len(), MISS);
        self.values.clear();
        self.hits = 0;
        self.errors.clear();
    }

    /// Records a hit for query position `index`, appending `values` to the arena.
    /// Overwriting an earlier hit for the same position is allowed (the newest values
    /// win); the superseded arena bytes are reclaimed at the next [`reset`](Self::reset).
    ///
    /// # Panics
    /// Panics if `index` is out of bounds or the arena would exceed `u32::MAX` values.
    pub fn set_hit(&mut self, index: usize, values: &[u32]) {
        let start = u32::try_from(self.values.len()).expect("lookup arena exceeds u32 span space");
        let len = u32::try_from(values.len()).expect("tuple wider than u32 span space");
        self.values.extend_from_slice(values);
        match self.spans[index] {
            MISS => self.hits += 1,
            FAILED => {
                // A hit supersedes an earlier failure for the position.
                self.hits += 1;
                self.errors.retain(|(i, _)| *i != index as u32);
            }
            _ => {}
        }
        self.spans[index] = Span { start, len };
    }

    /// Marks every position of `positions` — each a miss — as a hit of
    /// `width` values and returns the claimed rows, one after the other in
    /// claim order at the end of the arena, for the caller to fill in place:
    /// a store that computes its answers in bulk (a model's classes, rows
    /// decoded out of a partition) writes each answer once, where
    /// [`set_hit`](Self::set_hit) copies it in.  The rows start zeroed.
    ///
    /// A claimed position the store then cannot answer is marked
    /// [`set_failed`](Self::set_failed) like any hit; its row stays behind in
    /// the arena, dead, until the next [`reset`](Self::reset).
    ///
    /// # Panics
    /// Panics if a position is out of bounds or not a miss (a hit or a failure
    /// already, or named twice), or if the arena would exceed `u32::MAX` values.
    pub fn claim_hits(
        &mut self,
        positions: impl IntoIterator<Item = usize>,
        width: usize,
    ) -> &mut [u32] {
        let base = self.values.len();
        let len = u32::try_from(width).expect("tuple wider than u32 span space");
        let mut start = u32::try_from(base).expect("lookup arena exceeds u32 span space");
        let mut claimed = 0;
        for index in positions {
            let span = &mut self.spans[index];
            assert!(
                *span == MISS,
                "position {index} is claimed but is not a miss"
            );
            *span = Span { start, len };
            start = start
                .checked_add(len)
                .expect("lookup arena exceeds u32 span space");
            claimed += 1;
        }
        self.hits += claimed;
        self.values.resize(base + claimed * width, 0);
        &mut self.values[base..]
    }

    /// Marks query position `index` as *failed*: the store could not answer
    /// this key (its partition would not load after retries, say).  A failed
    /// key is neither a hit nor a miss — [`get`](Self::get) returns `None`
    /// like a miss, but [`error`](Self::error) carries the typed cause and
    /// [`first_error`](Self::first_error) lets whole-batch callers keep their
    /// fail-on-any-error contract.  This is the degraded-serving primitive:
    /// stores mark only the keys a fault actually touched and answer the rest
    /// byte-identically to a fault-free run.
    ///
    /// # Panics
    /// Panics if `index` is out of bounds.
    pub fn set_failed(&mut self, index: usize, error: StorageError) {
        match self.spans[index] {
            FAILED => {
                self.errors.retain(|(i, _)| *i != index as u32);
            }
            MISS => {}
            _ => self.hits -= 1,
        }
        self.spans[index] = FAILED;
        self.errors.push((index as u32, error));
    }

    /// Overwrites this buffer with the results for the contiguous key range
    /// `[start, start + len)` of `src` — the demultiplex primitive a batching
    /// front-end uses to hand each coalesced sub-request its own slice of a
    /// merged batch's results.  Hits keep their values (copied into this
    /// buffer's arena), misses stay misses, and like [`reset`](Self::reset) the
    /// existing allocations are reused, so steady-state demuxing allocates
    /// nothing.
    ///
    /// # Panics
    /// Panics if `start + len` exceeds `src.len()`.
    pub fn copy_range_from(&mut self, src: &LookupBuffer, start: usize, len: usize) {
        assert!(
            start + len <= src.len(),
            "copy_range_from range {}..{} out of bounds for batch of {}",
            start,
            start + len,
            src.len()
        );
        self.keys.clear();
        self.keys.extend_from_slice(&src.keys[start..start + len]);
        self.spans.clear();
        self.values.clear();
        self.hits = 0;
        self.errors.clear();
        for i in start..start + len {
            let span = src.spans[i];
            if span == MISS {
                self.spans.push(MISS);
            } else if span == FAILED {
                self.spans.push(FAILED);
                if let Some((_, err)) = src.errors.iter().find(|(at, _)| *at as usize == i) {
                    self.errors.push(((i - start) as u32, err.clone()));
                }
            } else {
                let at = u32::try_from(self.values.len())
                    .expect("lookup arena exceeds u32 span space");
                self.values
                    .extend_from_slice(&src.values[span.start as usize..(span.start + span.len) as usize]);
                self.spans.push(Span { start: at, len: span.len });
                self.hits += 1;
            }
        }
    }

    /// Number of keys in the current batch.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the current batch is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Number of keys answered with a hit.
    pub fn hit_count(&self) -> usize {
        self.hits
    }

    /// The query key at `index`.
    pub fn key(&self, index: usize) -> u64 {
        self.keys[index]
    }

    /// Whether query position `index` was answered with a hit.
    pub fn is_hit(&self, index: usize) -> bool {
        self.spans[index] != MISS && self.spans[index] != FAILED
    }

    /// Whether the probe for query position `index` failed (see
    /// [`set_failed`](Self::set_failed)).
    pub fn is_failed(&self, index: usize) -> bool {
        self.spans[index] == FAILED
    }

    /// Number of keys whose probe failed.
    pub fn failed_count(&self) -> usize {
        self.spans.iter().filter(|s| **s == FAILED).count()
    }

    /// The typed failure recorded for query position `index`, if any.
    pub fn error(&self, index: usize) -> Option<&StorageError> {
        if self.spans[index] != FAILED {
            return None;
        }
        self.errors
            .iter()
            .find(|(at, _)| *at as usize == index)
            .map(|(_, err)| err)
    }

    /// The first per-key failure in query order, if any — the error a
    /// whole-batch caller surfaces to keep the historical
    /// fail-on-any-error contract of [`TupleStore::lookup_batch`].
    pub fn first_error(&self) -> Option<&StorageError> {
        self.spans
            .iter()
            .position(|s| *s == FAILED)
            .and_then(|i| self.error(i))
    }

    /// The values for query position `index`, or `None` on a miss or a failed
    /// probe (disambiguate with [`is_failed`](Self::is_failed)).
    pub fn get(&self, index: usize) -> Option<&[u32]> {
        let span = self.spans[index];
        (span != MISS && span != FAILED)
            .then(|| &self.values[span.start as usize..(span.start + span.len) as usize])
    }

    /// A [`TupleRef`] view of query position `index`, or `None` on a miss.
    pub fn tuple(&self, index: usize) -> Option<TupleRef<'_>> {
        self.get(index).map(|values| TupleRef {
            key: self.keys[index],
            values,
        })
    }

    /// Iterates the batch in query order as `(key, Some(values) | None)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, Option<&[u32]>)> + '_ {
        (0..self.len()).map(|i| (self.keys[i], self.get(i)))
    }

    /// Iterates only the hits, in query order, as [`TupleRef`] views.
    pub fn tuples(&self) -> impl Iterator<Item = TupleRef<'_>> + '_ {
        (0..self.len()).filter_map(|i| self.tuple(i))
    }

    /// Materializes the batch into the legacy `Vec<Option<Vec<u32>>>` shape (one
    /// allocation per hit) — the compatibility path behind
    /// [`TupleStore::lookup_batch`].
    pub fn to_options(&self) -> Vec<Option<Vec<u32>>> {
        (0..self.len()).map(|i| self.get(i).map(<[u32]>::to_vec)).collect()
    }

    /// Detaches the buffer's working memory of type `T` for a store to use
    /// during one batch: what the last batch handed back, if it was a `T`
    /// (contents unspecified, allocations kept), else a fresh `T::default()`.
    /// Hand it back with [`restore_scratch`](Self::restore_scratch) so later
    /// batches reuse it.
    pub fn take_scratch<T: Default + Send + Sync + 'static>(&mut self) -> Box<T> {
        self.scratch
            .0
            .take()
            .and_then(|scratch| scratch.downcast::<T>().ok())
            .unwrap_or_default()
    }

    /// Returns working memory previously obtained from
    /// [`take_scratch`](Self::take_scratch), keeping its allocations for reuse.
    pub fn restore_scratch<T: Send + Sync + 'static>(&mut self, scratch: Box<T>) {
        self.scratch.0 = Some(scratch);
    }

    /// Current capacity of the key/span tables (stable across same-shape batches).
    pub fn key_capacity(&self) -> usize {
        self.keys.capacity().min(self.spans.capacity())
    }

    /// Current capacity of the flat value arena (stable across same-shape batches).
    pub fn value_capacity(&self) -> usize {
        self.values.capacity()
    }
}

/// The shared read interface every store in the workspace serves queries through.
///
/// All methods take `&self`: implementors keep their query-path state (buffer pools,
/// metrics, simulated disks) behind interior mutability so a single store can be
/// probed concurrently from many threads (`Send + Sync` is part of the contract).
pub trait TupleStore: Send + Sync {
    /// A short, table-friendly system name (e.g. `"DM-Z"`, `"ABC-L"`, `"HB"`).
    /// Borrowed from the store — computed once at build time, never per call.
    fn name(&self) -> &str;

    /// Looks up a batch of keys, writing results into `out` (which is reset to this
    /// batch first).  One span per query key, in query order; hits share `out`'s flat
    /// value arena, so a reused buffer makes the steady state allocation-free.
    fn lookup_batch_into(&self, keys: &[u64], out: &mut LookupBuffer) -> Result<()>;

    /// Storage-size statistics.
    fn stats(&self) -> StoreStats;

    /// Convenience batch lookup materializing owned results: one entry per query key
    /// in query order, `Some(values)` on a hit, `None` otherwise.
    ///
    /// The materialized shape has no per-key error channel, so a batch with
    /// *any* failed probe surfaces the first per-key error as `Err` — the
    /// historical whole-batch contract.  Callers that want degraded
    /// per-key results use [`lookup_batch_into`](Self::lookup_batch_into)
    /// and inspect [`LookupBuffer::is_failed`] themselves.
    fn lookup_batch(&self, keys: &[u64]) -> Result<Vec<Option<Vec<u32>>>> {
        let mut buffer = LookupBuffer::with_capacity(keys.len(), 4);
        self.lookup_batch_into(keys, &mut buffer)?;
        if let Some(err) = buffer.first_error() {
            return Err(err.clone());
        }
        Ok(buffer.to_options())
    }

    /// Convenience single-key lookup (a batch of one).
    fn get(&self, key: u64) -> Result<Option<Vec<u32>>> {
        Ok(self.lookup_batch(std::slice::from_ref(&key))?.pop().flatten())
    }

    /// Returns every live row with key in `[lo, hi]`, in ascending key order.
    ///
    /// The default declines with [`StorageError::Unsupported`]; key-ordered backends
    /// (DeepMapping via its existence index, the array/hash partitioned baselines, the
    /// reference store) override it so range workloads can compare all backends.
    fn scan_range(&self, lo: u64, hi: u64) -> Result<Vec<Row>> {
        let _ = (lo, hi);
        Err(StorageError::Unsupported(format!(
            "{} does not support range scans",
            self.name()
        )))
    }

    /// Workload-health signals for the maintenance advisor (drift + pool
    /// pressure, see `dm_obs::StoreHealthSignals`).  The default reports
    /// none: baselines have no model to drift.  DeepMapping overrides it, and
    /// `dm-server` folds the result with per-tenant SLO signals into
    /// `dm_obs::advise` without widening this trait any further.
    fn health_signals(&self) -> Option<dm_obs::StoreHealthSignals> {
        None
    }

    /// Fault pressure observed while serving (retried cold loads, keys
    /// degraded by failed partition probes — see `dm_obs::FaultSignals`).
    /// The default reports none: baselines hold everything in memory and
    /// cannot fault.  DeepMapping overrides it from its store metrics so the
    /// advisor can flag storage trouble before it becomes an outage.
    fn fault_signals(&self) -> Option<dm_obs::FaultSignals> {
        None
    }
}

/// The write interface: batch modifications plus the off-peak maintenance hook.
/// Writes keep `&mut self` — exclusive access is the point at which the read
/// structures may be rebuilt.
pub trait MutableStore: TupleStore {
    /// Inserts new rows (keys may be previously unseen).
    fn insert(&mut self, rows: &[Row]) -> Result<()>;

    /// Deletes keys; deleting a non-existing key is a no-op.
    fn delete(&mut self, keys: &[u64]) -> Result<()>;

    /// Updates the values of existing keys (rows whose keys do not exist are ignored).
    fn update(&mut self, rows: &[Row]) -> Result<()>;

    /// Optional maintenance hook run off the query path (e.g. during off-peak hours).
    /// DeepMapping retrains its model and compacts the auxiliary structures here; the
    /// partitioned baselines have nothing to do and keep the default no-op.
    fn maintenance(&mut self) -> Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_starts_as_all_misses_and_records_hits() {
        let mut buffer = LookupBuffer::new();
        buffer.reset(&[10, 20, 30]);
        assert_eq!(buffer.len(), 3);
        assert_eq!(buffer.hit_count(), 0);
        assert!(!buffer.is_hit(1));

        buffer.set_hit(1, &[7, 8]);
        buffer.set_hit(2, &[9]);
        assert_eq!(buffer.hit_count(), 2);
        assert_eq!(buffer.get(0), None);
        assert_eq!(buffer.get(1), Some(&[7u32, 8][..]));
        assert_eq!(buffer.get(2), Some(&[9u32][..]));
        assert_eq!(buffer.key(1), 20);

        let tuple = buffer.tuple(1).unwrap();
        assert_eq!(tuple.key, 20);
        assert_eq!(tuple.to_row(), Row::new(20, vec![7, 8]));
        assert!(buffer.tuple(0).is_none());

        let collected: Vec<(u64, Option<&[u32]>)> = buffer.iter().collect();
        assert_eq!(collected[0], (10, None));
        assert_eq!(collected[1], (20, Some(&[7u32, 8][..])));
        assert_eq!(buffer.tuples().count(), 2);
        assert_eq!(
            buffer.to_options(),
            vec![None, Some(vec![7, 8]), Some(vec![9])]
        );
    }

    #[test]
    fn overwriting_a_hit_keeps_the_newest_values_and_hit_count() {
        let mut buffer = LookupBuffer::new();
        buffer.reset(&[1]);
        buffer.set_hit(0, &[1, 2]);
        buffer.set_hit(0, &[3, 4, 5]);
        assert_eq!(buffer.hit_count(), 1);
        assert_eq!(buffer.get(0), Some(&[3u32, 4, 5][..]));
    }

    #[test]
    fn reset_reuses_allocations() {
        let mut buffer = LookupBuffer::with_capacity(4, 2);
        for round in 0..5u32 {
            buffer.reset(&[1, 2, 3, 4]);
            for i in 0..4 {
                buffer.set_hit(i, &[round, i as u32]);
            }
        }
        let keys_cap = buffer.key_capacity();
        let values_cap = buffer.value_capacity();
        for round in 0..50u32 {
            buffer.reset(&[1, 2, 3, 4]);
            for i in 0..4 {
                buffer.set_hit(i, &[round, i as u32]);
            }
        }
        assert_eq!(buffer.key_capacity(), keys_cap);
        assert_eq!(buffer.value_capacity(), values_cap);
    }

    #[test]
    fn copy_range_from_demuxes_a_merged_batch() {
        let mut merged = LookupBuffer::new();
        merged.reset(&[10, 20, 30, 40, 50]);
        merged.set_hit(0, &[1]);
        merged.set_hit(2, &[3, 33]);
        merged.set_hit(4, &[5]);

        let mut part = LookupBuffer::new();
        part.copy_range_from(&merged, 1, 3);
        assert_eq!(part.len(), 3);
        assert_eq!(part.key(0), 20);
        assert_eq!(part.get(0), None);
        assert_eq!(part.get(1), Some(&[3u32, 33][..]));
        assert_eq!(part.get(2), None);
        assert_eq!(part.hit_count(), 1);

        // Steady-state demuxing reuses the destination's allocations.
        for _ in 0..20 {
            part.copy_range_from(&merged, 0, 5);
        }
        let keys_cap = part.key_capacity();
        let values_cap = part.value_capacity();
        for _ in 0..50 {
            part.copy_range_from(&merged, 0, 5);
        }
        assert_eq!(part.key_capacity(), keys_cap);
        assert_eq!(part.value_capacity(), values_cap);
        assert_eq!(part.hit_count(), 3);

        // Empty ranges and zero-width hits round-trip too.
        part.copy_range_from(&merged, 5, 0);
        assert!(part.is_empty());
        merged.reset(&[7]);
        merged.set_hit(0, &[]);
        part.copy_range_from(&merged, 0, 1);
        assert!(part.is_hit(0));
        assert_eq!(part.get(0), Some(&[][..]));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn copy_range_from_rejects_out_of_bounds_ranges() {
        let mut merged = LookupBuffer::new();
        merged.reset(&[1, 2]);
        let mut part = LookupBuffer::new();
        part.copy_range_from(&merged, 1, 2);
    }

    #[test]
    fn failed_spans_are_neither_hits_nor_misses_and_carry_their_error() {
        let mut buffer = LookupBuffer::new();
        buffer.reset(&[10, 20, 30]);
        buffer.set_hit(0, &[1]);
        buffer.set_failed(1, StorageError::Io("partition 3 unreadable".into()));
        assert_eq!(buffer.hit_count(), 1);
        assert_eq!(buffer.failed_count(), 1);
        assert!(buffer.is_failed(1));
        assert!(!buffer.is_hit(1));
        assert_eq!(buffer.get(1), None);
        assert!(matches!(buffer.error(1), Some(StorageError::Io(_))));
        assert!(buffer.error(0).is_none());
        assert!(matches!(buffer.first_error(), Some(StorageError::Io(_))));
        // A later hit supersedes the failure.
        buffer.set_hit(1, &[9]);
        assert!(!buffer.is_failed(1));
        assert_eq!(buffer.failed_count(), 0);
        assert!(buffer.first_error().is_none());
        assert_eq!(buffer.get(1), Some(&[9u32][..]));
        // And a failure supersedes a hit, keeping the hit count honest.
        buffer.set_failed(2, StorageError::Corrupt("crc".into()));
        buffer.set_failed(2, StorageError::Io("second opinion".into()));
        assert_eq!(buffer.failed_count(), 1);
        assert!(matches!(buffer.error(2), Some(StorageError::Io(_))));
        assert_eq!(buffer.hit_count(), 2);
        // Reset clears the side table.
        buffer.reset(&[1]);
        assert_eq!(buffer.failed_count(), 0);
        assert!(buffer.first_error().is_none());
    }

    #[test]
    fn copy_range_from_propagates_failed_spans_and_their_errors() {
        let mut merged = LookupBuffer::new();
        merged.reset(&[10, 20, 30, 40]);
        merged.set_hit(0, &[1]);
        merged.set_failed(2, StorageError::Io("flaky".into()));
        let mut part = LookupBuffer::new();
        part.copy_range_from(&merged, 1, 3);
        assert_eq!(part.len(), 3);
        assert_eq!(part.get(0), None);
        assert!(part.is_failed(1), "failure must survive the demux");
        assert!(matches!(part.error(1), Some(StorageError::Io(_))));
        assert_eq!(part.failed_count(), 1);
        assert_eq!(part.hit_count(), 0);
        // A sub-range that misses the failed key sees no error at all.
        part.copy_range_from(&merged, 0, 2);
        assert!(part.first_error().is_none());
        assert_eq!(part.hit_count(), 1);
    }

    #[test]
    fn claimed_rows_are_hits_in_claim_order_until_a_failure_unclaims_one() {
        let mut buffer = LookupBuffer::new();
        buffer.reset(&[10, 20, 30, 40, 50, 60]);
        buffer.set_hit(5, &[99, 98]);
        let rows = buffer.claim_hits([3, 0, 4], 2);
        assert_eq!(rows, [0; 6], "claimed rows start zeroed");
        rows.copy_from_slice(&[31, 32, 1, 2, 41, 42]);
        assert_eq!(buffer.claim_hits([], 2), [0u32; 0]);
        assert_eq!(buffer.hit_count(), 4);
        assert_eq!(buffer.get(3), Some(&[31u32, 32][..]));
        assert_eq!(buffer.get(0), Some(&[1u32, 2][..]));
        assert_eq!(buffer.get(4), Some(&[41u32, 42][..]));
        assert_eq!(buffer.get(5), Some(&[99u32, 98][..]));
        assert_eq!(buffer.get(1), None);

        // A claimed position the store cannot answer after all.
        buffer.set_failed(4, StorageError::Io("partition 2 unreadable".into()));
        assert_eq!(buffer.hit_count(), 3);
        assert!(buffer.is_failed(4));
        assert_eq!(buffer.get(4), None);
        assert!(matches!(buffer.error(4), Some(StorageError::Io(_))));
        assert_eq!(buffer.failed_count(), 1);

        // Each sub-request of the batch gets its own rows.
        let mut part = LookupBuffer::new();
        part.copy_range_from(&buffer, 0, 3);
        assert_eq!(part.to_options(), vec![Some(vec![1, 2]), None, None]);
        part.copy_range_from(&buffer, 3, 3);
        assert_eq!(
            part.to_options(),
            vec![Some(vec![31, 32]), None, Some(vec![99, 98])]
        );
        assert!(part.is_failed(1));
        assert!(matches!(part.error(1), Some(StorageError::Io(_))));
        assert_eq!((part.hit_count(), part.failed_count()), (2, 1));
    }

    #[test]
    fn claiming_a_position_that_is_not_a_miss_is_refused() {
        let claim = |prepare: fn(&mut LookupBuffer), positions: Vec<usize>| {
            std::panic::catch_unwind(move || {
                let mut buffer = LookupBuffer::new();
                buffer.reset(&[1, 2, 3]);
                prepare(&mut buffer);
                buffer.claim_hits(positions, 1).len()
            })
        };
        assert_eq!(claim(|_| {}, vec![0, 2]).ok(), Some(2));
        assert!(claim(|b| b.set_hit(1, &[7]), vec![0, 1]).is_err(), "a hit");
        assert!(
            claim(
                |b| b.set_failed(1, StorageError::Io("down".into())),
                vec![1]
            )
            .is_err(),
            "a failure"
        );
        assert!(claim(|_| {}, vec![2, 2]).is_err(), "a position named twice");
        assert!(claim(|_| {}, vec![3]).is_err(), "out of bounds");
    }

    #[test]
    fn empty_batches_are_fine() {
        let mut buffer = LookupBuffer::new();
        buffer.reset(&[]);
        assert!(buffer.is_empty());
        assert_eq!(buffer.to_options(), Vec::<Option<Vec<u32>>>::new());
        assert_eq!(buffer.iter().count(), 0);
    }

    #[test]
    fn zero_width_hits_are_distinct_from_misses() {
        let mut buffer = LookupBuffer::new();
        buffer.reset(&[5, 6]);
        buffer.set_hit(0, &[]);
        assert!(buffer.is_hit(0));
        assert_eq!(buffer.get(0), Some(&[][..]));
        assert_eq!(buffer.get(1), None);
        assert_eq!(buffer.to_options(), vec![Some(vec![]), None]);
    }
}
