//! # dm-obs — lock-free observability for the DeepMapping workspace
//!
//! A vendored, dependency-free (std-only, same offline policy as the
//! `crates/shims/*` crates) observability layer shared by every crate in the
//! workspace:
//!
//! * [`Counter`] / [`Gauge`] / [`Histogram`] — relaxed-atomic metrics with a
//!   named [`Registry`] (see [`registry::global`]), rendered by
//!   [`render_prometheus`] and [`render_json`].  Counters and histograms are
//!   striped per thread, so writers on different cores never share a line
//!   (see [`histogram`] for what that costs in bytes).
//! * [`Trace`] / [`Stage`] — per-batch stage timelines recorded into
//!   per-thread ring buffers, with a slow-op capture policy that retains full
//!   timelines of over-threshold batches ([`trace::slow_batches`]).
//! * [`RelaxedCell`] — the single-writer-friendly counter cell
//!   `dm_storage::Metrics` is built on, so bumping a store's I/O or pool
//!   counter is one relaxed atomic add instead of a mutex acquisition.
//!
//! ## The relaxed-atomics accuracy contract
//!
//! Every recording primitive here uses `Ordering::Relaxed`.  What that buys
//! and what it costs:
//!
//! * **No increment is ever lost.** `fetch_add` is atomic regardless of
//!   ordering, so totals, bucket counts and sums are exact once the writing
//!   threads are quiescent (or synchronized with the reader by other means —
//!   a lock, a thread join).
//! * **Cross-cell consistency is not guaranteed while writers run.** A
//!   snapshot taken concurrently with recording may see cell A's update but
//!   not cell B's.  Readers that need exact cross-cell invariants (tests,
//!   benches) read after a synchronization point; dashboards tolerate the
//!   skew.
//! * **Recording never blocks and never fences.** The hot path is a handful
//!   of uncontended relaxed RMWs — the cost that used to be a global mutex in
//!   `dm_storage::Metrics` is now a couple of nanoseconds per counter bump.
//!
//! ## Kill switch and slow-op policy
//!
//! `DM_OBS=off` (or `0`/`false`) disables tracing and stage-histogram
//! recording: [`Trace::start`] returns an inert handle and [`enabled`] gates
//! every other record path down to one relaxed load and branch.  Core
//! accounting that functional tests assert on (the `LatencyBreakdown`
//! counters, server request totals) is **not** gated — the switch removes
//! observability overhead, never correctness-relevant state.
//!
//! `DM_OBS_SLOW_MS` (default 25 ms) sets the slow-op capture threshold: a
//! batch or request whose wall time reaches it keeps its full stage timeline
//! in a bounded capture ring ([`trace::slow_batches`],
//! `QueryServer::slow_requests` in `dm-server`).  Those rings hold
//! [`trace::DEFAULT_SLOW_RING_CAPACITY`] entries; overflow past the ring is
//! counted ([`CaptureRing::dropped`]), never silent.  The two knobs are
//! sampled from the environment on first use and can be overridden at
//! runtime ([`set_enabled`], [`set_slow_threshold`]) by benches and tests.
//!
//! # Operating the store: the workload-health layer
//!
//! Beyond recording, `dm-obs` answers the operational question learned
//! formats raise: *the model never errors — it just silently stops covering
//! the data* (every misprediction is absorbed by the aux table).  Four
//! building blocks turn the raw counters into decisions:
//!
//! * **Windowed tails** ([`SnapshotWindow`], [`WindowedHistogram`] /
//!   [`WindowedCounter`]): "the last 60 seconds" (default 12 × 5 s periods),
//!   either as the difference of two snapshots of one cumulative histogram
//!   or as a ring of concurrently recorded slices.  `dm-server`'s
//!   `ServerStats` exposes the former as `recent_*` percentiles next to the
//!   since-boot ones; a since-boot p99 cannot tell you the store got slow
//!   *this minute*.
//! * **Partition heat** ([`HeatMap`] → [`HeatReport`]): decayed per-partition
//!   access/miss/decompress counters fed by the buffer pool.  The report
//!   ranks top-K hot and cold partitions and carries resident-vs-budget
//!   pressure — the input for pool budgeting and (ROADMAP item 5) mmap
//!   hot-partition pinning.
//! * **Drift signals** ([`DriftSignals`]): model-vs-aux answer mix from the
//!   pipeline's merge stage, write-time misprediction EMA, aux overlay bytes,
//!   tombstone ratio and existence-bit churn — all reset at retrain, so they
//!   describe decay *since the current model was fit*.
//! * **The advisor** ([`advise`] → [`HealthReport`]): a pure function folding
//!   drift + pool pressure + optional SLO burn ([`SloSignals`], windowed p99
//!   vs a configured target) through documented [`AdvisorThresholds`] into
//!   typed, evidence-carrying [`Advice`] (`Retrain` with the expected aux
//!   shrink, `Compact`, `GrowPoolBudget`, or `Healthy`).
//!
//! Reading it in practice: call `health_report()` on a `DeepMapping` store
//! (or `QueryServer::tenant_health` for the served, SLO-aware view), act on
//! [`HealthReport::primary`], and verify the effect — after a `Retrain`
//! advisory, `maintenance()` should shrink `aux_size_bytes()` by roughly the
//! predicted amount.  `examples/health_quickstart.rs` walks the full
//! drift → advise → retrain → shrink episode.
//!
//! For dashboards, [`render_prometheus`] exposes every registered histogram
//! as a proper Prometheus histogram type — cumulative `le` buckets (upper
//! bounds in nanoseconds) plus `_sum`/`_count`, so
//! `histogram_quantile(0.99, rate(dm_stage_probe_nanos_bucket[5m]))` works as
//! scraped — and [`render_json`] serves the same registry to humans.  All of
//! the health layer sits behind the `DM_OBS=off` kill switch and adds nothing
//! to the bit-identity-checked query results (see `tests/obs_guard.rs`).

pub mod health;
pub mod heat;
pub mod histogram;
pub mod registry;
pub mod render;
pub mod trace;
pub mod window;

pub use health::{
    advise, advise_with_faults, Advice, AdvisorThresholds, DriftSignals, FaultSignals,
    HealthReport, PoolPressure, SloSignals, StoreHealthSignals,
};
pub use heat::{HeatMap, HeatReport, PartitionHeat, Touch};
pub use histogram::{Histogram, HistogramSnapshot};
pub use registry::{Counter, Gauge, Registry, RegistrySnapshot};
pub use render::{render_json, render_json_for, render_prometheus, render_prometheus_for};
pub use trace::{CaptureRing, CapturedTrace, SpanGuard, Stage, Trace, TraceEvent, TraceSummary};
pub use window::{SnapshotWindow, WindowedCounter, WindowedHistogram};

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::Duration;

/// Default slow-op capture threshold when `DM_OBS_SLOW_MS` is unset.
pub const DEFAULT_SLOW_MS: f64 = 25.0;

const STATE_UNSET: u8 = 0;
const STATE_ON: u8 = 1;
const STATE_OFF: u8 = 2;

static ENABLED_STATE: AtomicU8 = AtomicU8::new(STATE_UNSET);

#[cold]
fn init_enabled_from_env() -> bool {
    let on = match std::env::var("DM_OBS") {
        Ok(v) => {
            let v = v.trim();
            !(v.eq_ignore_ascii_case("off") || v.eq_ignore_ascii_case("false") || v == "0")
        }
        Err(_) => true,
    };
    ENABLED_STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
    on
}

/// Whether observability recording is on: the `DM_OBS` kill switch, sampled
/// from the environment on first call.  One relaxed load on the hot path.
#[inline]
pub fn enabled() -> bool {
    match ENABLED_STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => init_enabled_from_env(),
    }
}

/// Overrides the kill switch at runtime (benches measuring obs-on vs obs-off,
/// tests pinning a state regardless of the environment).
pub fn set_enabled(on: bool) {
    ENABLED_STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

/// `u64::MAX` marks "not yet read from the environment".
static SLOW_THRESHOLD_NANOS: AtomicU64 = AtomicU64::new(u64::MAX);

#[cold]
fn init_slow_threshold_from_env() -> u64 {
    let ms = std::env::var("DM_OBS_SLOW_MS")
        .ok()
        .and_then(|v| v.trim().parse::<f64>().ok())
        .filter(|ms| ms.is_finite() && *ms >= 0.0)
        .unwrap_or(DEFAULT_SLOW_MS);
    let nanos = (ms * 1e6).min(u64::MAX as f64 - 1.0) as u64;
    SLOW_THRESHOLD_NANOS.store(nanos, Ordering::Relaxed);
    nanos
}

/// The slow-op capture threshold in nanoseconds (`DM_OBS_SLOW_MS`, sampled on
/// first call; default [`DEFAULT_SLOW_MS`]).
#[inline]
pub fn slow_threshold_nanos() -> u64 {
    match SLOW_THRESHOLD_NANOS.load(Ordering::Relaxed) {
        u64::MAX => init_slow_threshold_from_env(),
        nanos => nanos,
    }
}

/// Overrides the slow-op capture threshold at runtime.
pub fn set_slow_threshold(threshold: Duration) {
    let nanos = threshold.as_nanos().min(u64::MAX as u128 - 1) as u64;
    SLOW_THRESHOLD_NANOS.store(nanos, Ordering::Relaxed);
}

/// A single relaxed `AtomicU64` counter cell — the building block
/// `dm_storage::Metrics` replaced its mutex with.  Unlike [`Counter`] it is
/// not striped: `LatencyBreakdown` has 14 counts, several bumped together
/// per pool access or batch, where striping each one would cost more cache
/// traffic than it saves.
#[derive(Debug, Default)]
pub struct RelaxedCell(AtomicU64);

impl RelaxedCell {
    /// Creates a zeroed cell.
    pub const fn new() -> Self {
        RelaxedCell(AtomicU64::new(0))
    }

    /// Adds `n` with one relaxed RMW.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value (relaxed load — see the crate-level accuracy contract).
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero (quiescent use).
    #[inline]
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Serializes tests that flip the process-global kill switch or threshold.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_switch_toggles_at_runtime() {
        let _guard = test_guard();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
    }

    #[test]
    fn slow_threshold_is_overridable() {
        let _guard = test_guard();
        set_slow_threshold(Duration::from_millis(3));
        assert_eq!(slow_threshold_nanos(), 3_000_000);
        set_slow_threshold(Duration::from_millis(DEFAULT_SLOW_MS as u64));
    }

    #[test]
    fn relaxed_cell_counts_exactly_across_threads() {
        use std::sync::Arc;
        let cell = Arc::new(RelaxedCell::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cell = Arc::clone(&cell);
                std::thread::spawn(move || {
                    for _ in 0..25_000 {
                        cell.add(2);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cell.get(), 8 * 25_000 * 2);
        cell.reset();
        assert_eq!(cell.get(), 0);
    }
}
