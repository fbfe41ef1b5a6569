//! Per-batch stage tracing with slow-op capture.
//!
//! A [`Trace`] is a per-batch handle the query pipeline creates at the top of
//! `execute_into` and threads through its stages: each stage (and each
//! single-flight pool wait or load inside one) records a span into the
//! trace's fixed-size event array — one per thread, handed from each finished
//! trace to the thread's next, so a batch allocates none.  A batch runs on
//! the thread that asks for it, and only that thread records into its trace:
//! a span is a cursor bump and three plain stores, and `Trace` is not `Sync`.
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
//! at open and once at drop.  A span that wraps a loop whose iterations may
//! record spans of their own ([`span_net_of`]: the probe loop, around
//! buffer-pool loads) is charged its wall time minus theirs, so one span can
//! time a whole loop and the stage sums stay disjoint.  With the `DM_OBS=off`
//! kill switch,
//! [`Trace::start`] returns an inert handle: no allocation, no clock read, and
//! every recording call is a no-op behind one branch.

use crate::histogram::{Histogram, HistogramSnapshot};
use crate::registry;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
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
    /// Stage 3: the auxiliary probes of a batch's partition groups.
    Probe,
    /// Stage 4: order-preserving scatter of the predictions into the result.
    Merge,
    /// Buffer-pool single-flight wait (blocked on another reader's load).
    PoolWait,
    /// Buffer-pool cold load + decompress (the loader run by the race winner).
    PoolLoad,
    /// Server: enqueue → batch execution start of a batch's oldest request,
    /// once per batch.
    QueueDelay,
    /// Server: batch's newest member arriving → execution start (the
    /// coalescing hold shared by every request in the batch).
    CoalesceWait,
    /// Server: store execution (`lookup_batch_into`) on the merged batch.
    Exec,
    /// Server: demultiplexing the merged batch back into per-request
    /// responses (copying every answered request's rows out of the batch
    /// buffer), once per batch.
    Demux,
    /// Server: one answered request's share of its batch's demux (the
    /// batch's span over its answered requests), once per batch.
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

/// Records one span duration into `stage`'s process-wide histogram (and into
/// the calling thread's running sum that [`span_net_of`] reads).  A no-op
/// when observability is [disabled](crate::enabled).
#[inline]
pub fn record_stage(stage: Stage, nanos: u64) {
    if crate::enabled() {
        stage_histograms()[stage.index()].record_nanos(nanos);
        THREAD_STAGE_NANOS.with(|sums| {
            let sum = &sums[stage.index()];
            sum.set(sum.get().wrapping_add(nanos));
        });
    }
}

/// The calling thread's running sum of the spans recorded so far for the
/// stages in `mask` (bit `i` is stage index `i`).
fn thread_nanos_of(mask: u16) -> u64 {
    if mask == 0 {
        return 0;
    }
    THREAD_STAGE_NANOS.with(|sums| {
        sums.iter()
            .enumerate()
            .filter(|&(i, _)| mask >> i & 1 == 1)
            .fold(0u64, |total, (_, sum)| total.wrapping_add(sum.get()))
    })
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
    stage: Cell<u32>,
    start_nanos: Cell<u64>,
    dur_nanos: Cell<u64>,
}

/// One batch's trace handle.  Only the thread that runs the batch records
/// into it: its cells are not `Sync`, so the compiler holds that rule.
///
/// ```compile_fail
/// fn shared_across_threads<T: Sync>() {}
/// shared_across_threads::<dm_obs::Trace>();
/// ```
pub struct Trace {
    label: &'static str,
    /// When the trace started; `None` for an inert trace, which reads no clock.
    start: Option<Instant>,
    cursor: Cell<usize>,
    overflow: Cell<usize>,
    /// Summed time of the spans past the event array, per stage.
    overflow_nanos: [Cell<u64>; Stage::COUNT],
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
            cursor: Cell::new(0),
            overflow: Cell::new(0),
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
            nested: 0,
            nested_at_open: 0,
        }
    }

    /// When the trace started, on the [`window::now_nanos`](crate::window::now_nanos)
    /// clock — read once at [`start`](Trace::start), so this reads no clock.
    /// `None` for an inert trace.  Per-batch recorders that need a timestamp
    /// (partition heat) stamp every event of the batch with it.
    pub fn start_nanos(&self) -> Option<u64> {
        self.start.map(crate::window::nanos_at)
    }

    /// Records an already-measured span: `begin` is when it started (must not
    /// precede the trace's start), `dur` how long it ran.  Also feeds the
    /// stage's process-wide histogram.
    pub fn record_span(&self, stage: Stage, begin: Instant, dur: Duration) {
        let Some(start) = self.start else { return };
        let dur_nanos = nanos(dur);
        record_stage(stage, dur_nanos);
        let slot = self.cursor.get();
        self.cursor.set(slot + 1);
        if slot >= self.events.len() {
            self.overflow.set(self.overflow.get() + 1);
            let dropped = &self.overflow_nanos[stage.index()];
            dropped.set(dropped.get() + dur_nanos);
            return;
        }
        let start_nanos = nanos(begin.checked_duration_since(start).unwrap_or_default());
        let event = &self.events[slot];
        event.stage.set(stage.index() as u32);
        event.start_nanos.set(start_nanos);
        event.dur_nanos.set(dur_nanos);
    }

    /// The spans recorded so far, in recording order.
    fn events(&self) -> impl Iterator<Item = TraceEvent> + '_ {
        let recorded = self.cursor.get().min(self.events.len());
        self.events[..recorded].iter().filter_map(|slot| {
            Some(TraceEvent {
                stage: Stage::from_index(slot.stage.get() as usize)?,
                start_nanos: slot.start_nanos.get(),
                dur_nanos: slot.dur_nanos.get(),
            })
        })
    }

    /// Ends the batch: aggregates the spans into a [`TraceSummary`], publishes
    /// it to this thread's recent ring and last-batch slot, and — when total
    /// wall time reaches the slow threshold — retains the full timeline in the
    /// global slow-batch ring (the only case that copies the spans out).
    pub fn finish(self) -> TraceSummary {
        let mut summary = TraceSummary {
            label: self.label,
            total_nanos: 0,
            stage_nanos: [0; Stage::COUNT],
            events: 0,
            dropped: self.overflow.get(),
        };
        let Some(start) = self.start else { return summary };
        let total_nanos = nanos(start.elapsed());
        summary.total_nanos = total_nanos;
        for (sum, dropped) in summary.stage_nanos.iter_mut().zip(&self.overflow_nanos) {
            *sum = dropped.get();
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
            .field("events", &self.cursor.get())
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
            nested: 0,
            nested_at_open: 0,
        },
    }
}

/// [`span`], charged its wall time minus the spans of the `nested` stages
/// this thread records while it is open: one span around a loop whose
/// iterations may open their own (the probe loop around buffer-pool loads
/// and waits) keeps every stage's sum disjoint, for two clock reads per loop
/// instead of two per iteration.  Only spans recorded on the calling thread
/// are left out, so the guard must open and drop on the thread that runs the
/// loop.
#[inline]
pub fn span_net_of<'a>(trace: Option<&'a Trace>, stage: Stage, nested: &[Stage]) -> SpanGuard<'a> {
    let mut guard = span(trace, stage);
    if guard.begin.is_some() {
        guard.nested = nested.iter().fold(0, |mask, stage| mask | 1 << stage.index());
        guard.nested_at_open = thread_nanos_of(guard.nested);
    }
    guard
}

/// RAII span: records `stage` from construction to drop.
#[must_use = "a span records when dropped — bind it, don't discard it"]
pub struct SpanGuard<'a> {
    trace: Option<&'a Trace>,
    stage: Stage,
    begin: Option<Instant>,
    /// Stages whose spans on this thread the guard leaves out ([`span_net_of`]),
    /// one bit per [`Stage::index`].
    nested: u16,
    /// Their running sum when the guard opened.
    nested_at_open: u64,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(begin) = self.begin else { return };
        let nested = thread_nanos_of(self.nested).wrapping_sub(self.nested_at_open);
        let dur = begin.elapsed().saturating_sub(Duration::from_nanos(nested));
        match self.trace {
            Some(trace) => trace.record_span(self.stage, begin, dur),
            None => record_stage(self.stage, nanos(dur)),
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
    /// included.  One thread records a trace, so a stage's spans never run
    /// at once; spans of different stages may nest (a server batch's `Exec`
    /// holds the store's stages), unless recorded net of each other
    /// ([`span_net_of`]).
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
    /// Summed span time this thread recorded per stage, ever (wrapping):
    /// what [`span_net_of`] subtracts.
    static THREAD_STAGE_NANOS: [Cell<u64>; Stage::COUNT] =
        const { [const { Cell::new(0) }; Stage::COUNT] };
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

    /// A net span is charged its wall time minus the spans of the stages it
    /// names, recorded on its thread while it was open — and only those.
    #[test]
    fn a_net_span_leaves_out_the_nested_spans_it_names() {
        let _guard = crate::test_guard();
        crate::set_enabled(true);
        let trace = Trace::start("net");
        let begin = Instant::now();
        {
            let _probe = span_net_of(Some(&trace), Stage::Probe, &[Stage::PoolLoad, Stage::PoolWait]);
            std::thread::sleep(Duration::from_millis(3));
            trace.record_span(Stage::PoolLoad, Instant::now(), Duration::from_millis(1));
            trace.record_span(Stage::Merge, Instant::now(), Duration::from_millis(1));
        }
        let wall = nanos(begin.elapsed());
        let summary = trace.finish();
        let probe = summary.stage(Stage::Probe);
        assert_eq!(summary.events, 3);
        assert!(probe >= 2_000_000, "3 ms open, 1 ms of it a named span: {probe} ns");
        assert!(probe + 1_000_000 <= wall, "{probe} ns charged of {wall} ns");
        // Without the trace the same guard feeds the stage histogram alone.
        let before = stage_snapshot(Stage::Probe).count();
        drop(span_net_of(None, Stage::Probe, &[Stage::PoolLoad]));
        assert!(stage_snapshot(Stage::Probe).count() > before);
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
