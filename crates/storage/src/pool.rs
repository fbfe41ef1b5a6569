//! The single-flight LRU buffer pool.
//!
//! "In memory-constrained devices, we free up the space of the least recently used
//! (LRU) partition before loading the subsequent partition of the auxiliary table when
//! the memory becomes insufficient" (Section IV-B2).  The same pool also serves the
//! baselines: array/hash partitions are loaded through it, so when a dataset exceeds
//! the pool's byte budget the baselines pay repeated load + decompress cycles while
//! DeepMapping's small hybrid structure stays resident — the mechanism behind Table I.
//!
//! It is what that sentence describes: one LRU map under **one** byte budget behind one
//! mutex, held for a map probe and a recency stamp and never across a load.  Since the
//! PR-2 store API made reads `&self + Send + Sync`, many threads probe one pool
//! concurrently, so cold loads are **single-flight**: a cold partition is loaded and
//! decompressed exactly once no matter how many readers race for it.  The first reader
//! installs an in-flight latch and runs the loader *outside* the lock; the others find
//! the latch and block on it (counted as [`single-flight waits`]
//! [`crate::LatencyBreakdown::pool_single_flight_waits`]) until the winner publishes
//! the value or the error.
//!
//! The pool is generic over the decoded partition type: the caller supplies a loader
//! closure that turns the partition id into a decoded value plus its in-memory size.

use crate::metrics::Metrics;
use crate::{Result, StorageError};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex as StdMutex};

/// Process-wide cold-load retry counter in the `dm-obs` global registry
/// (`dm_pool_load_retries_total` in the Prometheus render).  Registered
/// lazily; only touched on the retry path, which is already sleeping.
fn obs_retry_counter() -> &'static Arc<dm_obs::Counter> {
    static COUNTER: std::sync::OnceLock<Arc<dm_obs::Counter>> = std::sync::OnceLock::new();
    COUNTER
        .get_or_init(|| dm_obs::registry::global().register_counter("dm_pool_load_retries_total"))
}

/// Bounded exponential backoff for cold-load retries.
///
/// Only failures classified transient by [`StorageError::is_transient`] are
/// retried — corruption re-reads the same bad bytes, so it stays fail-fast.
/// Delays grow `base_delay · 2^(attempt-1)` capped at `max_delay`, each scaled
/// by a *deterministic* jitter factor in `[0.5, 1.0)` derived from
/// `jitter_seed ^ partition id ^ attempt`, so two stores with the same seed
/// replay the same retry schedule (full jitter without a shared RNG).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total loader invocations allowed per cold load (1 = no retries).
    pub max_attempts: u32,
    /// Delay before the first retry.
    pub base_delay: std::time::Duration,
    /// Upper bound on any single delay.
    pub max_delay: std::time::Duration,
    /// Seed for the deterministic jitter.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    /// Three attempts, 500 µs base, 8 ms cap: a flaky read gets two more
    /// chances within ~3 ms, while a dead device fails in well under a
    /// served request's deadline.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_delay: std::time::Duration::from_micros(500),
            max_delay: std::time::Duration::from_millis(8),
            jitter_seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (the pre-PR-10 behaviour).
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..Self::default()
        }
    }

    /// The delay to sleep before retry number `attempt` (1-based) of a load
    /// of partition `salt`.  Pure: same policy + inputs → same delay.
    pub fn backoff_delay(&self, attempt: u32, salt: u64) -> std::time::Duration {
        let exp = attempt.saturating_sub(1).min(16);
        let slot = self
            .base_delay
            .saturating_mul(1u32 << exp)
            .min(self.max_delay);
        // splitmix64 finalizer over (seed, salt, attempt) → jitter in [0.5, 1.0).
        let mut z = self
            .jitter_seed
            .wrapping_add(salt.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(attempt as u64);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let jitter = 0.5 + (z >> 11) as f64 / (1u64 << 53) as f64 / 2.0;
        slot.mul_f64(jitter)
    }
}

/// An LRU cache of decoded partitions under one byte budget, with single-flight
/// cold loads.
#[derive(Debug)]
pub struct BufferPool<V> {
    inner: Mutex<Inner<V>>,
    capacity_bytes: usize,
    metrics: Metrics,
    retry: RetryPolicy,
}

#[derive(Debug)]
struct Inner<V> {
    entries: HashMap<u64, Slot<V>>,
    clock: u64,
    used_bytes: usize,
}

#[derive(Debug)]
enum Slot<V> {
    Resident(Entry<V>),
    /// A load in progress; racing readers wait on the latch instead of loading.
    InFlight(Arc<LoadLatch<V>>),
}

#[derive(Debug)]
struct Entry<V> {
    value: Arc<V>,
    bytes: usize,
    last_used: u64,
}

/// The per-entry latch racing readers block on: a `std::sync` mutex and
/// condvar pair.
#[derive(Debug)]
struct LoadLatch<V> {
    state: StdMutex<LatchState<V>>,
    ready: Condvar,
}

#[derive(Debug)]
enum LatchState<V> {
    Pending,
    Ready(Arc<V>),
    Failed(StorageError),
}

impl<V> LoadLatch<V> {
    fn new() -> Self {
        LoadLatch {
            state: StdMutex::new(LatchState::Pending),
            ready: Condvar::new(),
        }
    }

    fn wait(&self) -> Result<Arc<V>> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            match &*state {
                LatchState::Pending => {
                    state = self.ready.wait(state).unwrap_or_else(|e| e.into_inner());
                }
                LatchState::Ready(value) => return Ok(Arc::clone(value)),
                LatchState::Failed(err) => return Err(err.clone()),
            }
        }
    }

    fn fulfill(&self, result: Result<Arc<V>>) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        *state = match result {
            Ok(value) => LatchState::Ready(value),
            Err(err) => LatchState::Failed(err),
        };
        drop(state);
        self.ready.notify_all();
    }
}

impl<V> BufferPool<V> {
    /// Creates a pool with the given byte budget.  A budget of `usize::MAX` models a
    /// machine whose memory comfortably holds the whole dataset.
    pub fn new(capacity_bytes: usize, metrics: Metrics) -> Self {
        BufferPool {
            inner: Mutex::new(Inner { entries: HashMap::new(), clock: 0, used_bytes: 0 }),
            capacity_bytes,
            metrics,
            retry: RetryPolicy::default(),
        }
    }

    /// Replaces the cold-load retry policy.  Call at build time, before the
    /// pool is shared; use [`RetryPolicy::none`] for fail-on-first-error
    /// semantics in deterministic tests.
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// The active cold-load retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// The configured byte budget.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Bytes currently pinned by cached partitions.
    pub fn used_bytes(&self) -> usize {
        self.inner.lock().used_bytes
    }

    /// Number of fully loaded cached partitions (in-flight loads excluded).
    pub fn len(&self) -> usize {
        let inner = self.inner.lock();
        inner.entries.values().filter(|slot| matches!(slot, Slot::Resident(_))).count()
    }

    /// Whether the pool holds no fully loaded partitions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the cached partition if fully loaded, without invoking the loader
    /// and without marking it recently used: a scan that peeks every partition
    /// leaves the recency the lookups built as it was.  An in-flight load counts
    /// as absent: `peek` never blocks.
    pub fn peek(&self, id: u64) -> Option<Arc<V>> {
        match self.inner.lock().entries.get(&id) {
            Some(Slot::Resident(entry)) => Some(Arc::clone(&entry.value)),
            _ => None,
        }
    }

    /// Gets a partition, loading it with `loader` on a miss.  The loader returns the
    /// decoded value and its in-memory size in bytes; the pool evicts its
    /// least-recently used entries until the new value fits.
    ///
    /// Cold loads are **single-flight**: when several readers race for the same
    /// absent id, exactly one runs `loader` (outside the lock) while the rest block
    /// until the value — or the loader's error — is published.
    ///
    /// Transient loader failures ([`StorageError::is_transient`]) are retried
    /// per the pool's [`RetryPolicy`] before the error is published; corrupt
    /// frames fail fast.  A failed load never strands later readers: the
    /// in-flight entry is removed *before* the error is published, so the next
    /// arrival re-attempts the load, and a parked waiter handed a transient
    /// failure re-enters the protocol once itself instead of surfacing the
    /// winner's stale error.
    ///
    /// A single-flight wait records a [`Stage::PoolWait`](dm_obs::Stage) span
    /// and a cold load — read, unframe, decode: all of the loader — a
    /// [`Stage::PoolLoad`](dm_obs::Stage) span, into `trace` when the caller is
    /// carrying one and into the process-wide stage histograms either way
    /// (both no-ops, with no clock read, under `DM_OBS=off`).  These spans are
    /// the only timer of a load.  The [`Metrics`] counters are recorded
    /// unconditionally.
    pub fn get_or_load(
        &self,
        id: u64,
        trace: Option<&dm_obs::Trace>,
        mut loader: impl FnMut() -> Result<(V, usize)>,
    ) -> Result<Arc<V>> {
        use dm_obs::{trace::span, Stage};
        // One bounded re-entry: a waiter handed a transient failure takes a
        // second pass (the failed entry was removed, so it becomes the new
        // winner and runs the loader itself with a fresh retry budget).
        let mut reentered = false;
        let our_latch = loop {
            let mut inner = self.inner.lock();
            inner.clock += 1;
            let clock = inner.clock;
            match inner.entries.get_mut(&id) {
                Some(Slot::Resident(entry)) => {
                    entry.last_used = clock;
                    self.metrics.add_pool_hit();
                    return Ok(Arc::clone(&entry.value));
                }
                Some(Slot::InFlight(latch)) => {
                    let latch = Arc::clone(latch);
                    drop(inner);
                    self.metrics.add_pool_single_flight_wait();
                    let waited = {
                        let _wait = span(trace, Stage::PoolWait);
                        latch.wait()
                    };
                    match waited {
                        Err(err) if err.is_transient() && !reentered => {
                            reentered = true;
                            continue;
                        }
                        other => return other,
                    }
                }
                None => {
                    let latch = Arc::new(LoadLatch::new());
                    inner.entries.insert(id, Slot::InFlight(Arc::clone(&latch)));
                    break latch;
                }
            }
        };
        // We won the race: run the loader with no lock held, retrying
        // transient failures per the policy.
        self.metrics.add_pool_miss();
        let mut attempt = 1u32;
        let loaded = loop {
            let loaded = {
                let _load = span(trace, Stage::PoolLoad);
                loader()
            };
            match loaded {
                Err(err) if err.is_transient() && attempt < self.retry.max_attempts => {
                    self.metrics.add_load_retry();
                    obs_retry_counter().incr();
                    std::thread::sleep(self.retry.backoff_delay(attempt, id));
                    attempt += 1;
                }
                other => break other,
            }
        };
        match loaded {
            Ok((value, bytes)) => {
                let value = Arc::new(value);
                self.publish(id, &our_latch, Arc::clone(&value), bytes);
                our_latch.fulfill(Ok(Arc::clone(&value)));
                Ok(value)
            }
            Err(err) => {
                // Remove the in-flight entry *before* publishing the error:
                // any reader arriving after this point starts a fresh load
                // rather than inheriting a stale failure.
                let mut inner = self.inner.lock();
                if matches!(inner.entries.get(&id), Some(Slot::InFlight(l)) if Arc::ptr_eq(l, &our_latch))
                {
                    inner.entries.remove(&id);
                }
                drop(inner);
                our_latch.fulfill(Err(err.clone()));
                Err(err)
            }
        }
    }

    /// Replaces our in-flight latch with a resident entry, evicting LRU residents
    /// until the new entry fits (an entry larger than the whole budget is admitted
    /// alone — the query still has to run).  Skips caching when the latch was
    /// invalidated/cleared while the load ran.
    fn publish(&self, id: u64, our_latch: &Arc<LoadLatch<V>>, value: Arc<V>, bytes: usize) {
        let mut inner = self.inner.lock();
        if !matches!(inner.entries.get(&id), Some(Slot::InFlight(l)) if Arc::ptr_eq(l, our_latch)) {
            return;
        }
        while inner.used_bytes + bytes > self.capacity_bytes {
            let victim = inner
                .entries
                .iter()
                .filter_map(|(&k, slot)| match slot {
                    Slot::Resident(entry) if k != id => Some((k, entry.last_used)),
                    _ => None,
                })
                .min_by_key(|&(_, last_used)| last_used)
                .map(|(k, _)| k);
            let Some(victim) = victim else { break };
            if let Some(Slot::Resident(evicted)) = inner.entries.remove(&victim) {
                inner.used_bytes -= evicted.bytes;
                self.metrics.add_pool_eviction();
            }
        }
        inner.clock += 1;
        let clock = inner.clock;
        inner.used_bytes += bytes;
        inner.entries.insert(
            id,
            Slot::Resident(Entry {
                value,
                bytes,
                last_used: clock,
            }),
        );
    }

    /// Removes a partition from the pool (e.g. after it was rewritten on disk).  A
    /// load in flight for the id is detached: its waiters still receive the loaded
    /// value, but it is not cached.
    pub fn invalidate(&self, id: u64) {
        let mut inner = self.inner.lock();
        if let Some(Slot::Resident(entry)) = inner.entries.remove(&id) {
            inner.used_bytes -= entry.bytes;
        }
    }

    /// Drops every cached partition (in-flight loads are detached, not interrupted).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.entries.clear();
        inner.used_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::time::Duration;

    fn loader(value: u32, bytes: usize) -> impl FnMut() -> Result<(u32, usize)> {
        move || Ok((value, bytes))
    }

    #[test]
    fn hit_and_miss_accounting() {
        let metrics = Metrics::new();
        let pool = BufferPool::new(1024, metrics.clone());
        let a = pool.get_or_load(1, None, loader(10, 100)).unwrap();
        assert_eq!(*a, 10);
        let b = pool.get_or_load(1, None, loader(99, 100)).unwrap();
        assert_eq!(*b, 10, "second access must be served from cache");
        let snap = metrics.snapshot();
        assert_eq!(snap.pool_misses, 1);
        assert_eq!(snap.pool_hits, 1);
        assert_eq!(snap.pool_single_flight_waits, 0);
        assert_eq!(pool.used_bytes(), 100);
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn lru_eviction_under_pressure() {
        let metrics = Metrics::new();
        let pool = BufferPool::new(250, metrics.clone());
        pool.get_or_load(1, None, loader(1, 100)).unwrap();
        pool.get_or_load(2, None, loader(2, 100)).unwrap();
        // Touch 1 so 2 becomes the LRU victim.
        pool.get_or_load(1, None, loader(1, 100)).unwrap();
        pool.get_or_load(3, None, loader(3, 100)).unwrap();
        assert!(pool.peek(2).is_none(), "2 should have been evicted");
        assert!(pool.peek(1).is_some());
        assert!(pool.peek(3).is_some());
        assert_eq!(metrics.snapshot().pool_evictions, 1);
        assert!(pool.used_bytes() <= 250);
    }

    #[test]
    fn oversized_entry_is_admitted_alone() {
        let metrics = Metrics::new();
        let pool = BufferPool::new(50, metrics);
        pool.get_or_load(1, None, loader(1, 40)).unwrap();
        pool.get_or_load(2, None, loader(2, 400)).unwrap();
        // Everything else evicted, the big entry resident.
        assert!(pool.peek(1).is_none());
        assert!(pool.peek(2).is_some());
    }

    #[test]
    fn invalidate_and_clear() {
        let metrics = Metrics::new();
        let pool = BufferPool::new(1000, metrics);
        pool.get_or_load(7, None, loader(7, 10)).unwrap();
        pool.invalidate(7);
        assert!(pool.peek(7).is_none());
        assert_eq!(pool.used_bytes(), 0);
        pool.get_or_load(8, None, loader(8, 10)).unwrap();
        pool.get_or_load(9, None, loader(9, 10)).unwrap();
        pool.clear();
        assert!(pool.is_empty());
        assert_eq!(pool.used_bytes(), 0);
        // Invalidating a missing id is a no-op.
        pool.invalidate(1234);
    }

    #[test]
    fn loader_errors_propagate_and_do_not_poison_the_pool() {
        let metrics = Metrics::new();
        let pool = BufferPool::new(100, metrics);
        let err = pool.get_or_load(1, None, || {
            Err(crate::StorageError::Corrupt("boom".into()))
        });
        assert!(err.is_err());
        assert!(pool.is_empty());
        // A later successful load works.
        assert_eq!(*pool.get_or_load(1, None, loader(5, 10)).unwrap(), 5);
    }

    /// Seeded random traffic against a reference LRU (a `Vec`, most recent last): the
    /// same hits, misses, evictions and residency after every step, and never more
    /// resident than the budget unless one entry alone exceeds it.
    #[test]
    fn random_traffic_matches_a_reference_lru_and_stays_inside_the_budget() {
        for seed in 0..32u64 {
            let (metrics, capacity) = (Metrics::new(), 800);
            let pool: BufferPool<u32> = BufferPool::new(capacity, metrics.clone());
            let mut model: Vec<(u64, usize)> = Vec::new();
            let (mut counts, mut largest, mut state) = ([0u64; 3], 0, seed);
            let mut next = |below: u64| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) % below
            };
            for step in 0..400 {
                let id = next(12);
                match next(16) {
                    0 => (pool.clear(), model.clear()).0,
                    1 => (pool.invalidate(id), model.retain(|&(k, _)| k != id)).0,
                    2..=4 => {
                        assert_eq!(pool.peek(id).is_some(), model.iter().any(|&(k, _)| k == id))
                    }
                    _ => {
                        let bytes = 1 + next(if seed % 2 == 0 { 500 } else { 1_200 }) as usize;
                        pool.get_or_load(id, None, loader(0, bytes)).unwrap();
                        if let Some(at) = model.iter().position(|&(k, _)| k == id) {
                            let entry = model.remove(at);
                            model.push(entry);
                            counts[0] += 1;
                        } else {
                            counts[1] += 1;
                            let mut resident: usize = model.iter().map(|e| e.1).sum();
                            while !model.is_empty() && resident + bytes > capacity {
                                resident -= model.remove(0).1;
                                counts[2] += 1;
                            }
                            model.push((id, bytes));
                            largest = largest.max(bytes);
                        }
                    }
                }
                let (snap, at) = (metrics.snapshot(), format!("seed {seed} step {step}"));
                let resident: usize = model.iter().map(|e| e.1).sum();
                assert_eq!([snap.pool_hits, snap.pool_misses, snap.pool_evictions], counts, "{at}");
                assert_eq!((pool.len(), pool.used_bytes()), (model.len(), resident), "{at}");
                assert!(resident <= capacity.max(largest), "{at}: {resident} bytes resident");
            }
        }
    }

    #[test]
    fn racing_readers_trigger_exactly_one_load() {
        let metrics = Metrics::new();
        let pool: Arc<BufferPool<u32>> = Arc::new(BufferPool::new(usize::MAX, metrics.clone()));
        let loads = Arc::new(AtomicUsize::new(0));
        let threads = 8;
        let barrier = Arc::new(Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let loads = Arc::clone(&loads);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    let value = pool
                        .get_or_load(42, None, || {
                            loads.fetch_add(1, Ordering::SeqCst);
                            // Hold the race open long enough for the others to
                            // arrive at the latch.
                            std::thread::sleep(Duration::from_millis(30));
                            Ok((7u32, 10))
                        })
                        .unwrap();
                    assert_eq!(*value, 7);
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(loads.load(Ordering::SeqCst), 1, "single-flight violated");
        let snap = metrics.snapshot();
        assert_eq!(snap.pool_misses, 1);
        assert_eq!(
            snap.pool_single_flight_waits,
            threads as u64 - 1,
            "everyone but the winner waits"
        );
    }

    #[test]
    fn waiters_observe_the_loaders_error_and_can_retry() {
        let metrics = Metrics::new();
        let pool: Arc<BufferPool<u32>> = Arc::new(BufferPool::new(usize::MAX, metrics));
        let barrier = Arc::new(Barrier::new(2));
        let winner = {
            let pool = Arc::clone(&pool);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                pool.get_or_load(5, None, || {
                    barrier.wait();
                    std::thread::sleep(Duration::from_millis(30));
                    Err(StorageError::Corrupt("cold load failed".into()))
                })
            })
        };
        barrier.wait();
        // By now the winner holds the latch; this call must wait and then fail.
        let waited = pool.get_or_load(5, None, loader(1, 10));
        assert!(winner.join().unwrap().is_err());
        assert!(waited.is_err(), "waiters share the loader's failure");
        // The failed entry is gone, so a retry loads fresh.
        assert_eq!(*pool.get_or_load(5, None, loader(9, 10)).unwrap(), 9);
    }

    #[test]
    fn transient_failures_are_retried_within_one_load() {
        let metrics = Metrics::new();
        let pool = BufferPool::new(1024, metrics.clone());
        let mut calls = 0u32;
        let value = pool
            .get_or_load(1, None, || {
                calls += 1;
                if calls == 1 {
                    Err(StorageError::Io("injected transient".into()))
                } else {
                    Ok((7u32, 10))
                }
            })
            .unwrap();
        assert_eq!(*value, 7, "once-then-ok fault must be absorbed by the retry");
        assert_eq!(calls, 2);
        let snap = metrics.snapshot();
        assert_eq!(snap.load_retries, 1);
        assert_eq!(snap.pool_misses, 1, "a retry is not a second miss");
    }

    #[test]
    fn corruption_is_never_retried() {
        let metrics = Metrics::new();
        let pool: BufferPool<u32> = BufferPool::new(1024, metrics.clone());
        let mut calls = 0u32;
        let err = pool
            .get_or_load(1, None, || {
                calls += 1;
                Err(StorageError::Corrupt("bad crc".into()))
            })
            .unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)));
        assert_eq!(calls, 1, "corruption must fail fast");
        assert_eq!(metrics.snapshot().load_retries, 0);
    }

    #[test]
    fn retries_are_bounded_by_the_policy() {
        let metrics = Metrics::new();
        let mut pool = BufferPool::new(1024, metrics.clone());
        pool.set_retry_policy(RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_micros(10),
            max_delay: Duration::from_micros(50),
            ..RetryPolicy::default()
        });
        let mut calls = 0u32;
        let err = pool
            .get_or_load(1, None, || {
                calls += 1;
                Err(StorageError::Io("still down".into()))
            })
            .unwrap_err();
        assert!(err.is_transient());
        assert_eq!(calls, 4, "exactly max_attempts loader invocations");
        assert_eq!(metrics.snapshot().load_retries, 3);
        // The failed entry is gone; a later reader loads fresh.
        assert_eq!(*pool.get_or_load(1, None, loader(3, 10)).unwrap(), 3);
    }

    #[test]
    fn reader_after_failed_load_reattempts_instead_of_inheriting_the_failure() {
        let mut pool = BufferPool::new(1024, Metrics::new());
        pool.set_retry_policy(RetryPolicy::none());
        let err = pool.get_or_load(5, None, || Err(StorageError::Io("flaky".into())));
        assert!(err.is_err());
        // Once-then-ok: the next arrival must run the loader again, not see
        // a cached failure.
        assert_eq!(*pool.get_or_load(5, None, loader(9, 10)).unwrap(), 9);
    }

    #[test]
    fn waiter_handed_a_transient_failure_reenters_and_loads() {
        let mut pool = BufferPool::new(usize::MAX, Metrics::new());
        pool.set_retry_policy(RetryPolicy::none());
        let pool = Arc::new(pool);
        let barrier = Arc::new(Barrier::new(2));
        let winner = {
            let pool = Arc::clone(&pool);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                pool.get_or_load(5, None, || {
                    barrier.wait();
                    std::thread::sleep(Duration::from_millis(30));
                    Err(StorageError::Io("transient cold-load failure".into()))
                })
            })
        };
        barrier.wait();
        // Parked on the winner's latch by now; handed the transient failure it
        // must re-enter, become the new winner and succeed with its own loader.
        let waited = pool.get_or_load(5, None, loader(11, 10)).unwrap();
        assert_eq!(*waited, 11, "waiter must recover from the winner's transient error");
        assert!(winner.join().unwrap().is_err(), "the winner still sees its own failure");
        // Corruption, by contrast, is inherited as-is (covered by
        // `waiters_observe_the_loaders_error_and_can_retry`).
    }

    #[test]
    fn backoff_delays_are_deterministic_and_bounded() {
        let policy = RetryPolicy::default();
        for attempt in 1..6u32 {
            for salt in [0u64, 7, 12345] {
                let a = policy.backoff_delay(attempt, salt);
                let b = policy.backoff_delay(attempt, salt);
                assert_eq!(a, b, "same inputs must give the same delay");
                let slot = policy
                    .base_delay
                    .saturating_mul(1 << (attempt - 1).min(16))
                    .min(policy.max_delay);
                assert!(a >= slot.mul_f64(0.5) && a <= slot, "jitter in [0.5, 1.0): {a:?} vs {slot:?}");
            }
        }
        // Different salts de-synchronize concurrent retriers.
        let a = policy.backoff_delay(1, 1);
        let b = policy.backoff_delay(1, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn invalidate_during_inflight_load_detaches_but_still_serves_waiters() {
        let pool: Arc<BufferPool<u32>> = Arc::new(BufferPool::new(usize::MAX, Metrics::new()));
        let barrier = Arc::new(Barrier::new(2));
        let loaded = {
            let pool = Arc::clone(&pool);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                pool.get_or_load(11, None, || {
                    barrier.wait();
                    std::thread::sleep(Duration::from_millis(30));
                    Ok((3u32, 10))
                })
            })
        };
        barrier.wait();
        pool.invalidate(11);
        assert_eq!(*loaded.join().unwrap().unwrap(), 3, "loader still gets its value");
        // The invalidated load was not cached.
        assert!(pool.peek(11).is_none());
    }
}
