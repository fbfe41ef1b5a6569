//! Per-batch stage tracing with slow-op capture.
//!
//! A [`Trace`] is a per-batch handle the query pipeline creates at the top of
//! `execute_into` and threads through its stages: each stage (and each pool
//! task spawned on its behalf — inference, sharded probes, single-flight
//! pool waits) records a span into the trace's fixed-size event array — one
//! per thread, handed from each finished trace to the thread's next, so a
//! batch allocates none.  Span
//! recording is an index reservation via one relaxed `fetch_add` plus three
//! relaxed stores — no locks, safe from any thread inside the batch's
//! `dm-exec` scope (the scope barrier is what makes the events visible to
//! [`finish`](Trace::finish); a `Trace` must not be finished while spans are
//! still being recorded elsewhere).
//!
//! Every span is also recorded into a process-wide per-[`Stage`] histogram
//! (see [`stage_snapshot`]), which is where benchmark percentiles come from.
//!
//! ## Slow-op capture policy
//!
//! [`Trace::finish`] publishes a [`TraceSummary`] into the finishing thread's
//! ring buffer (newest [`RECENT_CAPACITY`] batches, see [`recent_batches`])
//! and, when the batch's wall time is at or above the slow threshold
//! (`DM_OBS_SLOW_MS`, overridable via
//! [`set_slow_threshold`](crate::set_slow_threshold)), retains the batch's
//! *full* stage timeline in a bounded global ring ([`slow_batches`]).  Fast
//! batches cost a summary write, summed straight from the event array; slow
//! batches — the ones worth debugging — copy every span out.
//!
//! A span guard ([`Trace::span`], or [`span`] for a caller that may carry no
//! trace) is the workspace's one lookup timer: each stage reads the clock once
//! at open and once at drop.  With the `DM_OBS=off` kill switch,
//! [`Trace::start`] returns an inert handle: no allocation, no clock read, and
//! every recording call is a no-op behind one branch.

use crate::histogram::{Histogram, HistogramSnapshot};
use crate::registry;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// The pipeline/pool/exec/server stages a span can be charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Stage 1: the split by the existence and corrected-key bit vectors.
    Existence,
    /// Probe planning over the corrected keys (locate partitions, group keys).
    Plan,
    /// Stage 2: vectorized model inference over the predicted keys.
    Inference,
    /// Stage 3: one partition group's auxiliary probe.
    Probe,
    /// Stage 4: order-preserving scatter of the predictions into the result.
    Merge,
    /// Buffer-pool single-flight wait (blocked on another reader's load).
    PoolWait,
    /// Buffer-pool cold load + decompress (the loader run by the race winner).
    PoolLoad,
    /// Server: enqueue → batch execution start, per request.
    QueueDelay,
    /// Server: batch's newest member arriving → execution start (the
    /// coalescing hold shared by every request in the batch).
    CoalesceWait,
    /// Server: store execution (`lookup_batch_into`) on the merged batch.
    Exec,
    /// Server: demultiplexing the merged batch back into per-request responses.
    Demux,
    /// Server: copying one request's result rows out of the batch buffer.
    ResultCopy,
}

impl Stage {
    /// Number of stages (length of [`Stage::all`]).
    pub const COUNT: usize = 12;

    /// All stages, in [`index`](Stage::index) order.
    pub fn all() -> [Stage; Stage::COUNT] {
        [
            Stage::Existence,
            Stage::Plan,
            Stage::Inference,
            Stage::Probe,
            Stage::Merge,
            Stage::PoolWait,
            Stage::PoolLoad,
            Stage::QueueDelay,
            Stage::CoalesceWait,
            Stage::Exec,
            Stage::Demux,
            Stage::ResultCopy,
        ]
    }

    /// The stages of one store lookup batch (Figure 7's split): every stage
    /// up to the server's, in [`Stage::all`] order.
    pub fn lookup() -> impl Iterator<Item = Stage> {
        Stage::all().into_iter().take(Stage::PoolLoad.index() + 1)
    }

    /// Dense index, the position in [`Stage::all`].
    pub fn index(&self) -> usize {
        *self as usize
    }

    fn from_index(index: usize) -> Option<Stage> {
        Stage::all().get(index).copied()
    }

    /// Identifier-style name used in metric names and JSON keys.
    pub fn slug(&self) -> &'static str {
        match self {
            Stage::Existence => "existence",
            Stage::Plan => "plan",
            Stage::Inference => "inference",
            Stage::Probe => "probe",
            Stage::Merge => "merge",
            Stage::PoolWait => "pool_wait",
            Stage::PoolLoad => "pool_load",
            Stage::QueueDelay => "queue_delay",
            Stage::CoalesceWait => "coalesce_wait",
            Stage::Exec => "exec",
            Stage::Demux => "demux",
            Stage::ResultCopy => "result_copy",
        }
    }
}

/// The per-stage histograms, registered once in the global registry as
/// `dm_stage_<slug>_nanos`.
fn stage_histograms() -> &'static [Arc<Histogram>] {
    static STAGES: OnceLock<Vec<Arc<Histogram>>> = OnceLock::new();
    STAGES.get_or_init(|| {
        Stage::all()
            .iter()
            .map(|stage| {
                registry::global().register_histogram(&format!("dm_stage_{}_nanos", stage.slug()))
            })
            .collect()
    })
}

/// Records one span duration into `stage`'s process-wide histogram.  A no-op
/// when observability is [disabled](crate::enabled).
#[inline]
pub fn record_stage(stage: Stage, nanos: u64) {
    if crate::enabled() {
        stage_histograms()[stage.index()].record_nanos(nanos);
    }
}

/// Snapshot of `stage`'s process-wide span histogram.
pub fn stage_snapshot(stage: Stage) -> HistogramSnapshot {
    stage_histograms()[stage.index()].snapshot()
}

/// Spans a [`Trace`] can hold in its timeline.  A span past them is counted
/// in [`TraceSummary::dropped`] and still summed into its stage, so a
/// summary's per-stage times are whole when its timeline is not.
pub const TRACE_EVENT_CAPACITY: usize = 48;

/// Per-thread ring depth of recent batch summaries.
pub const RECENT_CAPACITY: usize = 64;

/// Capacity of a slow-op capture ring, in entries.
pub const DEFAULT_SLOW_RING_CAPACITY: usize = 32;

/// Slow-op capture ring capacity ([`DEFAULT_SLOW_RING_CAPACITY`]).  Used by
/// the global slow-batch ring and by `dm-server`'s per-instance slow-request
/// ring.
pub fn slow_ring_capacity() -> usize {
    DEFAULT_SLOW_RING_CAPACITY
}

#[derive(Default)]
struct EventSlot {
    stage: AtomicU32,
    start_nanos: AtomicU64,
    dur_nanos: AtomicU64,
}

/// One batch's trace handle.  See the module docs for the recording and
/// visibility contract.
pub struct Trace {
    label: &'static str,
    /// When the trace started; `None` for an inert trace, which reads no clock.
    start: Option<Instant>,
    cursor: AtomicUsize,
    overflow: AtomicUsize,
    /// Summed time of the spans past the event array, per stage.
    overflow_nanos: [AtomicU64; Stage::COUNT],
    /// Borrowed from the starting thread's spare buffer (see
    /// [`SPARE_EVENTS`]) and handed back on drop; only the first `cursor`
    /// slots belong to this trace.
    events: Box<[EventSlot]>,
}

impl Trace {
    /// Starts a trace for one batch.  When observability is disabled this
    /// allocates nothing, reads no clock, and every later call on the handle
    /// is a no-op.  An active trace reuses the event buffer the thread's last
    /// trace gave back, so steady-state tracing allocates nothing either.
    pub fn start(label: &'static str) -> Trace {
        let active = crate::enabled();
        Trace {
            label,
            start: active.then(Instant::now),
            cursor: AtomicUsize::new(0),
            overflow: AtomicUsize::new(0),
            overflow_nanos: Default::default(),
            events: if active {
                SPARE_EVENTS.with(Cell::take).unwrap_or_else(|| {
                    (0..TRACE_EVENT_CAPACITY).map(|_| EventSlot::default()).collect()
                })
            } else {
                Box::new([])
            },
        }
    }

    /// Whether this trace records anything (the kill switch, sampled once at
    /// [`start`](Trace::start)).
    pub fn is_active(&self) -> bool {
        self.start.is_some()
    }

    /// Opens a span charged to `stage`; the span records itself when the
    /// returned guard drops.
    #[inline]
    pub fn span(&self, stage: Stage) -> SpanGuard<'_> {
        SpanGuard {
            trace: Some(self),
            stage,
            begin: self.start.map(|_| Instant::now()),
        }
    }

    /// Records an already-measured span: `begin` is when it started (must not
    /// precede the trace's start), `dur` how long it ran.  Also feeds the
    /// stage's process-wide histogram.
    pub fn record_span(&self, stage: Stage, begin: Instant, dur: Duration) {
        let Some(start) = self.start else { return };
        let dur_nanos = nanos(dur);
        record_stage(stage, dur_nanos);
        let slot = self.cursor.fetch_add(1, Ordering::Relaxed);
        if slot >= self.events.len() {
            self.overflow.fetch_add(1, Ordering::Relaxed);
            self.overflow_nanos[stage.index()].fetch_add(dur_nanos, Ordering::Relaxed);
            return;
        }
        let start_nanos = nanos(begin.checked_duration_since(start).unwrap_or_default());
        let event = &self.events[slot];
        event.stage.store(stage.index() as u32, Ordering::Relaxed);
        event.start_nanos.store(start_nanos, Ordering::Relaxed);
        event.dur_nanos.store(dur_nanos, Ordering::Relaxed);
    }

    /// The spans recorded so far, in recording order.
    fn events(&self) -> impl Iterator<Item = TraceEvent> + '_ {
        let recorded = self.cursor.load(Ordering::Relaxed).min(self.events.len());
        self.events[..recorded].iter().filter_map(|slot| {
            Some(TraceEvent {
                stage: Stage::from_index(slot.stage.load(Ordering::Relaxed) as usize)?,
                start_nanos: slot.start_nanos.load(Ordering::Relaxed),
                dur_nanos: slot.dur_nanos.load(Ordering::Relaxed),
            })
        })
    }

    /// Ends the batch: aggregates the spans into a [`TraceSummary`], publishes
    /// it to this thread's recent ring and last-batch slot, and — when total
    /// wall time reaches the slow threshold — retains the full timeline in the
    /// global slow-batch ring (the only case that copies the spans out).  All
    /// recording (including from pool tasks) must have completed before
    /// `finish` (the pipeline's scope barrier guarantees this).
    pub fn finish(self) -> TraceSummary {
        let mut summary = TraceSummary {
            label: self.label,
            total_nanos: 0,
            stage_nanos: [0; Stage::COUNT],
            events: 0,
            dropped: self.overflow.load(Ordering::Relaxed),
        };
        let Some(start) = self.start else { return summary };
        let total_nanos = nanos(start.elapsed());
        summary.total_nanos = total_nanos;
        for (sum, dropped) in summary.stage_nanos.iter_mut().zip(&self.overflow_nanos) {
            *sum = dropped.load(Ordering::Relaxed);
        }
        for event in self.events() {
            summary.events += 1;
            summary.stage_nanos[event.stage.index()] += event.dur_nanos;
        }
        LAST_BATCH.with(|cell| cell.set(Some(summary)));
        RECENT.with(|ring| {
            let mut ring = ring.borrow_mut();
            if ring.len() == RECENT_CAPACITY {
                ring.pop_front();
            }
            ring.push_back(summary);
        });
        if total_nanos >= crate::slow_threshold_nanos() {
            slow_ring().push(CapturedTrace {
                label: self.label,
                detail: String::new(),
                total_nanos,
                events: self.events().collect(),
            });
        }
        summary
    }
}

impl Drop for Trace {
    /// Gives the event buffer back to this thread for its next trace.
    fn drop(&mut self) {
        if !self.events.is_empty() {
            let events = std::mem::take(&mut self.events);
            // Gone only while the thread itself is being torn down.
            let _ = SPARE_EVENTS.try_with(|spare| spare.set(Some(events)));
        }
    }
}

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trace")
            .field("label", &self.label)
            .field("active", &self.is_active())
            .field("events", &self.cursor.load(Ordering::Relaxed))
            .finish()
    }
}

/// Opens a span charged to `stage`: into `trace` when the caller carries
/// one, else into the stage's process-wide histogram alone.  Reads no clock
/// when observability is [disabled](crate::enabled).
#[inline]
pub fn span(trace: Option<&Trace>, stage: Stage) -> SpanGuard<'_> {
    match trace {
        Some(trace) => trace.span(stage),
        None => SpanGuard {
            trace: None,
            stage,
            begin: crate::enabled().then(Instant::now),
        },
    }
}

/// RAII span: records `stage` from construction to drop.
#[must_use = "a span records when dropped — bind it, don't discard it"]
pub struct SpanGuard<'a> {
    trace: Option<&'a Trace>,
    stage: Stage,
    begin: Option<Instant>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(begin) = self.begin else { return };
        match self.trace {
            Some(trace) => trace.record_span(self.stage, begin, begin.elapsed()),
            None => record_stage(self.stage, nanos(begin.elapsed())),
        }
    }
}

fn nanos(duration: Duration) -> u64 {
    duration.as_nanos().min(u64::MAX as u128) as u64
}

/// Aggregated view of one finished batch: total wall time plus per-stage sums.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSummary {
    /// The label the trace was started with.
    pub label: &'static str,
    /// Wall time from `Trace::start` to `finish`, in nanoseconds (0 for an
    /// inert trace).
    pub total_nanos: u64,
    /// Summed span time per stage, indexed by [`Stage::index`], dropped spans
    /// included.  Concurrent spans (parallel probes) each contribute fully, so
    /// a stage's sum can exceed `total_nanos` — it is CPU time, not wall time.
    pub stage_nanos: [u64; Stage::COUNT],
    /// Spans recorded.
    pub events: usize,
    /// Spans left out of the timeline after the event array filled (their
    /// time is still in `stage_nanos`).
    pub dropped: usize,
}

impl TraceSummary {
    /// Summed span time charged to `stage`, in nanoseconds.
    pub fn stage(&self, stage: Stage) -> u64 {
        self.stage_nanos[stage.index()]
    }
}

/// One span of a captured timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Stage the span was charged to.
    pub stage: Stage,
    /// Span start, nanoseconds after the trace started.
    pub start_nanos: u64,
    /// Span duration in nanoseconds.
    pub dur_nanos: u64,
}

/// A retained full timeline of one over-threshold operation.
#[derive(Debug, Clone)]
pub struct CapturedTrace {
    /// The label the trace was started with.
    pub label: &'static str,
    /// Free-form context the capturer attached (tenant, key count, ...).
    pub detail: String,
    /// Total wall time in nanoseconds.
    pub total_nanos: u64,
    /// Every recorded span, in recording order.
    pub events: Vec<TraceEvent>,
}

impl CapturedTrace {
    /// Multi-line human-readable timeline (for logs and examples).
    pub fn render_timeline(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} {} — {:.3} ms total, {} spans",
            self.label,
            self.detail,
            self.total_nanos as f64 / 1e6,
            self.events.len()
        );
        for event in &self.events {
            let _ = writeln!(
                out,
                "  +{:>10.3} ms  {:<13} {:>10.3} ms",
                event.start_nanos as f64 / 1e6,
                event.stage.slug(),
                event.dur_nanos as f64 / 1e6,
            );
        }
        out
    }
}

/// A bounded ring of captured slow-operation timelines, with a per-ring
/// threshold.  The server owns one per instance; the pipeline shares the
/// global one behind [`slow_batches`].
pub struct CaptureRing {
    capacity: usize,
    threshold_nanos: AtomicU64,
    dropped: AtomicU64,
    inner: Mutex<VecDeque<CapturedTrace>>,
}

impl CaptureRing {
    /// Creates a ring holding at most `capacity` captures, retaining
    /// operations at or above `threshold_nanos`.
    pub fn new(capacity: usize, threshold_nanos: u64) -> CaptureRing {
        CaptureRing {
            capacity,
            threshold_nanos: AtomicU64::new(threshold_nanos),
            dropped: AtomicU64::new(0),
            inner: Mutex::new(VecDeque::with_capacity(capacity)),
        }
    }

    /// The ring's current capture threshold in nanoseconds.
    pub fn threshold_nanos(&self) -> u64 {
        self.threshold_nanos.load(Ordering::Relaxed)
    }

    /// Changes the capture threshold.
    pub fn set_threshold_nanos(&self, nanos: u64) {
        self.threshold_nanos.store(nanos, Ordering::Relaxed);
    }

    /// Retains `capture` if it is at or above the ring's threshold.  Returns
    /// whether it was kept.
    pub fn offer(&self, capture: CapturedTrace) -> bool {
        if capture.total_nanos < self.threshold_nanos() {
            return false;
        }
        self.push(capture);
        true
    }

    /// Unconditionally retains `capture`, evicting the oldest entry at
    /// capacity (the eviction is counted in [`dropped`](Self::dropped)).
    pub fn push(&self, capture: CapturedTrace) {
        let mut inner = self.inner.lock().unwrap();
        if inner.len() == self.capacity {
            inner.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        inner.push_back(capture);
    }

    /// Captures evicted to make room since the ring was created: how many
    /// over-threshold operations overflowed past the retained window.  A
    /// nonzero value means the ring is too small for the slow-op rate.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// All retained captures, oldest first.
    pub fn snapshot(&self) -> Vec<CapturedTrace> {
        self.inner.lock().unwrap().iter().cloned().collect()
    }

    /// The retained capture with the largest total time.
    pub fn slowest(&self) -> Option<CapturedTrace> {
        self.inner
            .lock()
            .unwrap()
            .iter()
            .max_by_key(|c| c.total_nanos)
            .cloned()
    }

    /// Drops every retained capture.
    pub fn clear(&self) {
        self.inner.lock().unwrap().clear();
    }
}

fn slow_ring() -> &'static CaptureRing {
    static RING: OnceLock<CaptureRing> = OnceLock::new();
    // Threshold 0: admission is decided by `Trace::finish` against the live
    // crate-level threshold, so runtime threshold changes take effect.
    RING.get_or_init(|| CaptureRing::new(slow_ring_capacity(), 0))
}

/// Captured timelines of batches whose wall time reached the slow threshold,
/// oldest first.
pub fn slow_batches() -> Vec<CapturedTrace> {
    slow_ring().snapshot()
}

/// The slowest captured batch, if any batch crossed the threshold.
pub fn slowest_batch() -> Option<CapturedTrace> {
    slow_ring().slowest()
}

thread_local! {
    /// The event buffer of this thread's last finished trace, for the next
    /// [`Trace::start`] to reuse.
    static SPARE_EVENTS: Cell<Option<Box<[EventSlot]>>> = const { Cell::new(None) };
    static LAST_BATCH: Cell<Option<TraceSummary>> = const { Cell::new(None) };
    static RECENT: RefCell<VecDeque<TraceSummary>> =
        RefCell::new(VecDeque::with_capacity(RECENT_CAPACITY));
}

/// Takes (and clears) the summary of the most recent batch finished **on this
/// thread** — how the server attributes a just-executed batch's stage times to
/// the requests it coalesced, without widening the `TupleStore` trait.
pub fn take_last_batch() -> Option<TraceSummary> {
    LAST_BATCH.with(|cell| cell.take())
}

/// This thread's ring of recent batch summaries, oldest first.
pub fn recent_batches() -> Vec<TraceSummary> {
    RECENT.with(|ring| ring.borrow().iter().copied().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_land_in_summary_and_stage_order_is_dense() {
        let stages = Stage::all();
        let mut indices: Vec<usize> = stages.iter().map(|s| s.index()).collect();
        indices.sort_unstable();
        assert_eq!(indices, (0..Stage::COUNT).collect::<Vec<_>>());
        for stage in stages {
            assert_eq!(Stage::from_index(stage.index()), Some(stage));
        }

        let _guard = crate::test_guard();
        crate::set_enabled(true);
        let trace = Trace::start("test_batch");
        {
            let _span = trace.span(Stage::Inference);
            std::hint::black_box(0);
        }
        trace.record_span(Stage::Probe, Instant::now(), Duration::from_micros(5));
        let summary = trace.finish();
        assert_eq!(summary.events, 2);
        assert_eq!(summary.stage(Stage::Probe), 5_000);
        assert_eq!(summary.dropped, 0);
        assert_eq!(take_last_batch(), Some(summary));
        assert_eq!(take_last_batch(), None, "take must clear the slot");
        assert!(recent_batches().contains(&summary));
    }

    /// The second trace on a thread runs on the first one's event buffer:
    /// its summary and its slow capture hold only its own spans.
    #[test]
    fn a_reused_event_buffer_carries_no_stale_spans() {
        let _guard = crate::test_guard();
        crate::set_enabled(true);
        let first = Trace::start("first");
        for _ in 0..5 {
            first.record_span(Stage::Probe, Instant::now(), Duration::from_nanos(70));
        }
        let buffer = first.events.as_ptr();
        assert_eq!(first.finish().stage(Stage::Probe), 350);

        crate::set_slow_threshold(Duration::ZERO);
        let second = Trace::start("second");
        assert_eq!(second.events.as_ptr(), buffer, "the buffer was not reused");
        second.record_span(Stage::Merge, Instant::now(), Duration::from_nanos(9));
        let summary = second.finish();
        crate::set_slow_threshold(Duration::from_millis(crate::DEFAULT_SLOW_MS as u64));
        assert_eq!((summary.events, summary.stage(Stage::Merge)), (1, 9));
        assert_eq!(summary.stage(Stage::Probe), 0);
        let captured = slow_batches()
            .into_iter()
            .rev()
            .find(|c| c.label == "second")
            .expect("threshold zero captures the trace");
        assert_eq!(captured.events.len(), 1);
        assert_eq!(captured.events[0].stage, Stage::Merge);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let _guard = crate::test_guard();
        crate::set_enabled(false);
        let trace = Trace::start("noop");
        assert!(!trace.is_active());
        {
            let _span = trace.span(Stage::Inference);
        }
        trace.record_span(Stage::Probe, Instant::now(), Duration::from_millis(1));
        let summary = trace.finish();
        assert_eq!(summary.events, 0);
        assert_eq!(summary.stage_nanos, [0; Stage::COUNT]);
        crate::set_enabled(true);
    }

    #[test]
    fn overflow_is_counted_not_corrupting() {
        let _guard = crate::test_guard();
        crate::set_enabled(true);
        let trace = Trace::start("overflow");
        for _ in 0..TRACE_EVENT_CAPACITY + 7 {
            trace.record_span(Stage::Probe, Instant::now(), Duration::from_nanos(10));
        }
        let summary = trace.finish();
        assert_eq!(summary.events, TRACE_EVENT_CAPACITY);
        assert_eq!(summary.dropped, 7);
        assert_eq!(summary.stage(Stage::Probe), 10 * (TRACE_EVENT_CAPACITY as u64 + 7));
    }

    #[test]
    fn concurrent_span_recording_from_scope_like_threads() {
        let _guard = crate::test_guard();
        crate::set_enabled(true);
        let trace = Trace::start("parallel");
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..3 {
                        trace.record_span(Stage::Probe, Instant::now(), Duration::from_nanos(100));
                    }
                });
            }
        });
        let summary = trace.finish();
        assert_eq!(summary.events, 12);
        assert_eq!(summary.stage(Stage::Probe), 1_200);
    }

    #[test]
    fn capture_ring_respects_threshold_and_capacity() {
        let ring = CaptureRing::new(2, 1_000);
        let capture = |nanos| CapturedTrace {
            label: "op",
            detail: String::new(),
            total_nanos: nanos,
            events: Vec::new(),
        };
        assert!(!ring.offer(capture(999)));
        assert!(ring.offer(capture(1_000)));
        assert!(ring.offer(capture(5_000)));
        assert!(ring.offer(capture(2_000)));
        let kept = ring.snapshot();
        assert_eq!(kept.len(), 2, "capacity bound");
        assert_eq!(kept[0].total_nanos, 5_000, "oldest evicted first");
        assert_eq!(ring.slowest().unwrap().total_nanos, 5_000);
        assert_eq!(ring.dropped(), 1, "the eviction must be counted");
        ring.clear();
        assert!(ring.snapshot().is_empty());
        assert_eq!(ring.dropped(), 1, "clear() does not forget past overflow");
    }

    #[test]
    fn slow_ring_capacity_has_a_sane_default() {
        assert_eq!(slow_ring_capacity(), DEFAULT_SLOW_RING_CAPACITY);
    }

    #[test]
    fn render_timeline_is_readable() {
        let capture = CapturedTrace {
            label: "lookup_batch",
            detail: "keys=100".to_string(),
            total_nanos: 2_500_000,
            events: vec![TraceEvent {
                stage: Stage::Inference,
                start_nanos: 1_000,
                dur_nanos: 2_000_000,
            }],
        };
        let text = capture.render_timeline();
        assert!(text.contains("lookup_batch"));
        assert!(text.contains("inference"));
        assert!(text.contains("2.000 ms"));
    }
}
