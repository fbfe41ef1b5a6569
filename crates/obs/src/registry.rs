//! Named metric registry: sharded relaxed counters, gauges and histograms.
//!
//! Registration (name → handle) takes a short-lived `Mutex` — it happens once
//! per metric at setup time.  Recording through a returned handle is entirely
//! lock-free: counters are striped across cache-line-padded relaxed atomics so
//! concurrent writers on different cores do not bounce one cache line, gauges
//! are a single relaxed cell, histograms are [`crate::Histogram`].
//!
//! The process-wide registry ([`global`]) is what
//! [`render_prometheus`](crate::render_prometheus) and
//! [`render_json`](crate::render_json) expose; library code can also carry a
//! private [`Registry`] where process-global naming would couple instances.

use crate::histogram::{thread_index, Histogram, HistogramSnapshot};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of stripes per [`Counter`].  Eight covers the pool sizes this
/// workspace runs (`dm-exec` caps at the core count) without bloating the
/// footprint: 8 × 64 B = one page-eighth per counter.
const COUNTER_SHARDS: usize = 8;

#[repr(align(64))]
#[derive(Default)]
struct PaddedCell(AtomicU64);

/// A monotonically increasing counter, striped to keep concurrent `add`s on
/// different cores off each other's cache lines.  `value()` sums the stripes —
/// exact, because relaxed adds never lose increments.
#[derive(Default)]
pub struct Counter {
    shards: [PaddedCell; COUNTER_SHARDS],
}

/// Stripe picked per thread: threads get a round-robin home stripe on first
/// use (the index [`Histogram`] stripes by), so steady-state recording from
/// `<= COUNTER_SHARDS` threads never shares a cache line.
fn thread_stripe() -> usize {
    thread_index() % COUNTER_SHARDS
}

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` — one relaxed atomic add on this thread's home stripe.
    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[thread_stripe()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments by one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Exact total across all stripes.
    pub fn value(&self) -> u64 {
        self.shards.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
    }

    /// Zeroes all stripes (quiescent use, same caveat as
    /// [`Histogram::clear`]).
    pub fn reset(&self) {
        for shard in &self.shards {
            shard.0.store(0, Ordering::Relaxed);
        }
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.value()).finish()
    }
}

/// A last-write-wins signed gauge (single relaxed cell).
#[derive(Default)]
pub struct Gauge {
    cell: AtomicI64,
}

impl Gauge {
    /// Creates a zeroed gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: i64) {
        self.cell.store(value, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.cell.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Gauge").field(&self.value()).finish()
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: Vec<(String, Arc<Counter>)>,
    gauges: Vec<(String, Arc<Gauge>)>,
    histograms: Vec<(String, Arc<Histogram>)>,
}

/// A named collection of metrics.  `register_*` is get-or-create by name, so
/// independent call sites naming the same metric share one instance.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

fn get_or_insert<T: Default>(slot: &mut Vec<(String, Arc<T>)>, name: &str) -> Arc<T> {
    if let Some((_, existing)) = slot.iter().find(|(n, _)| n == name) {
        return Arc::clone(existing);
    }
    let created = Arc::new(T::default());
    slot.push((name.to_string(), Arc::clone(&created)));
    created
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter registered under `name`, creating it on first use.
    pub fn register_counter(&self, name: &str) -> Arc<Counter> {
        get_or_insert(&mut self.inner.lock().unwrap().counters, name)
    }

    /// Returns the gauge registered under `name`, creating it on first use.
    pub fn register_gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_insert(&mut self.inner.lock().unwrap().gauges, name)
    }

    /// Returns the histogram registered under `name`, creating it on first use.
    pub fn register_histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_insert(&mut self.inner.lock().unwrap().histograms, name)
    }

    /// Point-in-time values of every registered metric, in registration order —
    /// the input to the render functions.
    pub fn gather(&self) -> RegistrySnapshot {
        let inner = self.inner.lock().unwrap();
        RegistrySnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(n, c)| (n.clone(), c.value()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(n, g)| (n.clone(), g.value()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(n, h)| (n.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// Everything [`Registry::gather`] saw, as owned values.
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    /// `(name, total)` per registered counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` per registered gauge.
    pub gauges: Vec<(String, i64)>,
    /// `(name, snapshot)` per registered histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// The process-wide registry the stage histograms and the render functions
/// default to.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_is_get_or_create() {
        let registry = Registry::new();
        let a = registry.register_counter("reqs");
        let b = registry.register_counter("reqs");
        a.incr();
        b.add(2);
        assert_eq!(a.value(), 3, "same name must share one counter");
        assert_eq!(registry.gather().counters, vec![("reqs".to_string(), 3)]);
    }

    #[test]
    fn counter_sums_across_threads_exactly() {
        let counter = Arc::new(Counter::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        counter.incr();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.value(), 80_000);
        counter.reset();
        assert_eq!(counter.value(), 0);
    }

    #[test]
    fn gauges_set_and_add() {
        let registry = Registry::new();
        let g = registry.register_gauge("pool_bytes");
        g.set(100);
        g.add(-30);
        assert_eq!(g.value(), 70);
    }

    #[test]
    fn gather_includes_histograms() {
        let registry = Registry::new();
        registry.register_histogram("lat").record_nanos(500);
        let snap = registry.gather();
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.histograms[0].1.count(), 1);
    }
}
