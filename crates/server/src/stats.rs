//! Lock-free observability counters and tail histograms for the query server.
//!
//! The server's counters are striped relaxed [`Counter`]s, so two threads
//! that submit and answer at once never bounce a counter's cache line;
//! [`ServerStats`] is a consistent *enough* snapshot for dashboards and
//! benches (individual cells are exact, cross-cell ratios can be one request
//! stale).  Latency distributions (queue delay, coalesce wait, request wall)
//! live in log2-bucketed histograms, so the snapshot carries percentiles —
//! the summed-nanos fields are kept only as derived means for callers that
//! predate the histograms.
//!
//! A request's latencies are one `RequestSample`, written once into its
//! tenant's sample log (`TenantObs`); the tenant's histograms are folded
//! from the samples, and the server-wide histograms behind [`ServerStats`]
//! are the merge of every tenant's, taken when
//! [`QueryServer::stats`](crate::QueryServer::stats) is called.  The
//! server's own cells hold only counters.

use dm_obs::window::{DEFAULT_SLICE, DEFAULT_SLICES};
use dm_obs::{Counter, HistogramSnapshot, SnapshotWindow};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Why a client ran a batch. `Full` and `Window` are the two ways a batch
/// becomes due, which `submit` and `is_done` check: when both hold, `Full`
/// is the one recorded. `Caller` is a batch of whatever was queued, run by a
/// client waiting in `wait_into`, or run right after a batch because a client
/// was parked (the parked handoff).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FlushReason {
    /// [`max_batch_keys`](crate::ServerConfig::max_batch_keys) were pending.
    Full,
    /// The oldest request had waited [`max_delay`](crate::ServerConfig::max_delay).
    Window,
    /// A client waiting in `wait_into`, or freeing a core a parked client
    /// waited for, ran the queued requests.
    Caller,
}

impl FlushReason {
    pub const ALL: [FlushReason; 3] = [FlushReason::Full, FlushReason::Window, FlushReason::Caller];

    /// The word the slow-request capture's `detail` line carries (`left=…`).
    pub fn as_str(self) -> &'static str {
        match self {
            FlushReason::Full => "full",
            FlushReason::Window => "window",
            FlushReason::Caller => "caller",
        }
    }

    /// Name of this reason's counter in the global `dm-obs` registry.
    pub fn counter_name(self) -> &'static str {
        match self {
            FlushReason::Full => "dm_server_batches_full_total",
            FlushReason::Window => "dm_server_batches_at_window_total",
            FlushReason::Caller => "dm_server_batches_on_caller_total",
        }
    }
}

/// Internal mutable counter cells. One instance lives in the server's shared
/// state; [`snapshot`](StatsCells::snapshot) turns it and the tenants'
/// histograms into a [`ServerStats`].
#[derive(Default)]
pub(crate) struct StatsCells {
    pub requests_enqueued: Counter,
    pub requests_completed: Counter,
    pub requests_failed: Counter,
    pub requests_shed: Counter,
    pub requests_timed_out: Counter,
    pub partial_failures: Counter,
    pub breaker_trips: Counter,
    pub breaker_rejections: Counter,
    pub breaker_recoveries: Counter,
    pub keys_enqueued: Counter,
    pub keys_served: Counter,
    pub batches_formed: Counter,
    /// `batches_formed` split by [`FlushReason`], indexed in `ALL` order.
    pub batches_by_reason: [Counter; 3],
    pub batched_requests: Counter,
    pub max_coalesce_width: AtomicU64,
    pub exec_nanos: Counter,
    pub tenants_opened: Counter,
    pub tenant_open_nanos: Counter,
}

impl StatsCells {
    /// Counts one request past admission control.
    pub fn record_admission(&self, keys: u64) {
        self.requests_enqueued.incr();
        self.keys_enqueued.add(keys);
    }

    /// Records one merged batch the store executed: why it left the queue,
    /// `width` requests coalesced, of which `completed` were fully answered (`width -
    /// completed` hit failed spans and fail with
    /// [`PartialFailure`](crate::ServerError::PartialFailure)), `keys` keys
    /// across the completed requests, and the store-execution time.  Called
    /// once per batch, *before* the demux wakes any waiter, so a waiter
    /// always sees its own batch counted.
    pub fn record_batch(
        &self,
        reason: FlushReason,
        width: u64,
        completed: u64,
        keys: u64,
        exec_nanos: u64,
    ) {
        self.batches_formed.incr();
        self.batches_by_reason[reason as usize].incr();
        self.batched_requests.add(width);
        self.requests_completed.add(completed);
        self.keys_served.add(keys);
        self.exec_nanos.add(exec_nanos);
        // Read first: the shared line is written only by a new maximum.
        if width > self.max_coalesce_width.load(Ordering::Relaxed) {
            self.max_coalesce_width.fetch_max(width, Ordering::Relaxed);
        }
    }

    pub fn record_tenant_open(&self, elapsed: Duration) {
        self.tenants_opened.incr();
        self.tenant_open_nanos.add(elapsed.as_nanos() as u64);
    }

    /// Everything but the census (`parked_clients`, `queued_keys`), which
    /// the server's shared state owns and fills in. The latency fields
    /// read the merge of `tenants`' tails.
    pub fn snapshot<'a>(&self, tenants: impl IntoIterator<Item = &'a TenantObs>) -> ServerStats {
        let load = |cell: &Counter| cell.value();
        let mut queue_delay = HistogramSnapshot::default();
        let mut coalesce_wait = HistogramSnapshot::default();
        let mut request_wall = HistogramSnapshot::default();
        let mut recent_wall = HistogramSnapshot::default();
        let mut recent_queue = HistogramSnapshot::default();
        let now = dm_obs::window::now_nanos();
        for tenant in tenants {
            let tail = tenant.tail_at(now);
            queue_delay.merge(&tail.queue_delay);
            coalesce_wait.merge(&tail.coalesce_wait);
            request_wall.merge(&tail.request_wall);
            recent_wall.merge(&tail.recent_request_wall);
            recent_queue.merge(&tail.recent_queue_delay);
        }
        ServerStats {
            requests_enqueued: load(&self.requests_enqueued),
            requests_completed: load(&self.requests_completed),
            requests_failed: load(&self.requests_failed),
            requests_shed: load(&self.requests_shed),
            requests_timed_out: load(&self.requests_timed_out),
            partial_failures: load(&self.partial_failures),
            breaker_trips: load(&self.breaker_trips),
            breaker_rejections: load(&self.breaker_rejections),
            breaker_recoveries: load(&self.breaker_recoveries),
            keys_enqueued: load(&self.keys_enqueued),
            keys_served: load(&self.keys_served),
            batches_formed: load(&self.batches_formed),
            batches_full: load(&self.batches_by_reason[FlushReason::Full as usize]),
            batches_at_window: load(&self.batches_by_reason[FlushReason::Window as usize]),
            batches_on_caller: load(&self.batches_by_reason[FlushReason::Caller as usize]),
            parked_clients: 0,
            queued_keys: 0,
            batched_requests: load(&self.batched_requests),
            max_coalesce_width: self.max_coalesce_width.load(Ordering::Relaxed),
            queue_delay_nanos: queue_delay.sum(),
            coalesce_wait_nanos: coalesce_wait.sum(),
            request_wall_nanos: request_wall.sum(),
            exec_nanos: load(&self.exec_nanos),
            tenants_opened: load(&self.tenants_opened),
            tenant_open_nanos: load(&self.tenant_open_nanos),
            queue_delay_p50: Duration::from_nanos(queue_delay.p50()),
            queue_delay_p95: Duration::from_nanos(queue_delay.p95()),
            queue_delay_p99: Duration::from_nanos(queue_delay.p99()),
            queue_delay_max: Duration::from_nanos(queue_delay.max()),
            request_wall_p50: Duration::from_nanos(request_wall.p50()),
            request_wall_p95: Duration::from_nanos(request_wall.p95()),
            request_wall_p99: Duration::from_nanos(request_wall.p99()),
            request_wall_max: Duration::from_nanos(request_wall.max()),
            // Every tenant's window is the default one.
            recent_window: DEFAULT_SLICE * DEFAULT_SLICES as u32,
            recent_requests: recent_wall.count(),
            recent_request_wall_p50: Duration::from_nanos(recent_wall.p50()),
            recent_request_wall_p95: Duration::from_nanos(recent_wall.p95()),
            recent_request_wall_p99: Duration::from_nanos(recent_wall.p99()),
            recent_queue_delay_p99: Duration::from_nanos(recent_queue.p99()),
        }
    }
}

/// One served request's latency decomposition: the one record the server
/// writes per request (see [`TenantObs`]).  All values are nanoseconds; the
/// `*_share` fields are the request's key-weighted slice of its merged
/// batch's stage time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct RequestSample {
    /// When the response became ready, on the windows' clock
    /// ([`dm_obs::window::nanos_at`]); `None` while observability is off,
    /// which keeps the sample out of the `recent_*` windows.
    pub windowed_at: Option<u64>,
    pub queue_delay_nanos: u64,
    pub coalesce_wait_nanos: u64,
    pub wall_nanos: u64,
    pub exec_share_nanos: u64,
    pub inference_share_nanos: u64,
    pub probe_share_nanos: u64,
    pub result_copy_nanos: u64,
}

/// Samples one stripe's log holds before the writer that fills it folds
/// them into the tenant's histograms.
const LOG_SAMPLES: usize = 64;

/// One stripe's unfolded samples, on cache lines of its own.
#[repr(align(128))]
struct SampleLog(Mutex<Vec<RequestSample>>);

/// The tenant's histograms, folded from its samples.  Request wall time and
/// queue delay are windows as snapshot differences
/// ([`SnapshotWindow`]): their cumulative halves are the since-boot
/// histograms, so each sample is recorded once.
struct Folded {
    queue_delay: SnapshotWindow,
    request_wall: SnapshotWindow,
    coalesce_wait: HistogramSnapshot,
    exec_share: HistogramSnapshot,
    inference_share: HistogramSnapshot,
    probe_share: HistogramSnapshot,
    result_copy: HistogramSnapshot,
}

impl Folded {
    fn fold(&mut self, samples: &[RequestSample]) {
        for sample in samples {
            let windowed = |window: &mut SnapshotWindow, value: u64| match sample.windowed_at {
                Some(at) => window.record_at(at, value),
                None => window.record_unwindowed(value),
            };
            windowed(&mut self.request_wall, sample.wall_nanos);
            windowed(&mut self.queue_delay, sample.queue_delay_nanos);
            self.coalesce_wait.record_nanos(sample.coalesce_wait_nanos);
            self.result_copy.record_nanos(sample.result_copy_nanos);
            self.exec_share.record_nanos(sample.exec_share_nanos);
            self.inference_share
                .record_nanos(sample.inference_share_nanos);
            self.probe_share.record_nanos(sample.probe_share_nanos);
        }
    }
}

/// Per-tenant tail attribution.  One instance lives inside each registered
/// tenant; the batch-share columns split a merged batch's stage time across
/// its requests proportionally to key count, so a tenant can see where *its*
/// requests' latency goes even when batches interleave work.
///
/// A request writes one fixed-size [`RequestSample`] into its thread's
/// stripe of sample logs — one uncontended lock per batch, however many
/// requests the batch answers — and nothing else.  The histograms are folded
/// from the samples: by [`tail`](Self::tail) (and so by
/// [`QueryServer::stats`](crate::QueryServer::stats)), which folds every log
/// first, and by the writer whose log fills.  A fold is exact: every sample
/// lands in every histogram it belongs to exactly once.
pub(crate) struct TenantObs {
    logs: Box<[SampleLog]>,
    folded: Mutex<Folded>,
    /// Every sample recorded, in order, for the fold tests' reference.
    #[cfg(test)]
    pub tap: Mutex<Vec<RequestSample>>,
}

impl Default for TenantObs {
    fn default() -> Self {
        TenantObs {
            logs: (0..dm_obs::histogram::stripe_count())
                .map(|_| SampleLog(Mutex::new(Vec::with_capacity(LOG_SAMPLES))))
                .collect(),
            folded: Mutex::new(Folded {
                queue_delay: SnapshotWindow::default(),
                request_wall: SnapshotWindow::default(),
                coalesce_wait: HistogramSnapshot::default(),
                exec_share: HistogramSnapshot::default(),
                inference_share: HistogramSnapshot::default(),
                probe_share: HistogramSnapshot::default(),
                result_copy: HistogramSnapshot::default(),
            }),
            #[cfg(test)]
            tap: Mutex::new(Vec::new()),
        }
    }
}

impl TenantObs {
    /// Records the samples of one batch into the calling thread's log, folding the log first when they do not fit.
    /// Allocates nothing.
    pub fn record(&self, samples: &[RequestSample]) {
        #[cfg(test)]
        self.tap.lock().extend_from_slice(samples);
        // `stripe_count` is a power of two.
        let stripe = dm_obs::histogram::thread_index() & (self.logs.len() - 1);
        let mut log = self.logs[stripe].0.lock();
        if log.len() + samples.len() > LOG_SAMPLES {
            let mut folded = self.folded.lock();
            folded.fold(&log);
            log.clear();
            if samples.len() > LOG_SAMPLES {
                folded.fold(samples);
                return;
            }
        }
        log.extend_from_slice(samples);
    }

    /// Folds every log, then reads the histograms, the windows ending at
    /// `clock_nanos` on the windows' clock.
    pub fn tail_at(&self, clock_nanos: u64) -> TenantTail {
        for log in self.logs.iter() {
            let mut log = log.0.lock();
            self.folded.lock().fold(&log);
            log.clear();
        }
        let folded = self.folded.lock();
        TenantTail {
            queue_delay: folded.queue_delay.total().clone(),
            coalesce_wait: folded.coalesce_wait.clone(),
            request_wall: folded.request_wall.total().clone(),
            exec_share: folded.exec_share.clone(),
            inference_share: folded.inference_share.clone(),
            probe_share: folded.probe_share.clone(),
            result_copy: folded.result_copy.clone(),
            recent_request_wall: folded.request_wall.snapshot_at(clock_nanos),
            recent_queue_delay: folded.queue_delay.snapshot_at(clock_nanos),
        }
    }

    /// [`tail_at`](Self::tail_at) now.
    pub fn tail(&self) -> TenantTail {
        self.tail_at(dm_obs::window::now_nanos())
    }
}

/// Per-tenant latency-attribution snapshot returned by
/// [`QueryServer::tenant_tail`](crate::QueryServer::tenant_tail).  Each field
/// is a full histogram snapshot (count / sum / percentiles / max) in
/// nanoseconds, one sample per request routed to the tenant and answered.
///
/// Every field is folded, when the tail is taken, from the one
/// fixed-size sample each answered request wrote: the batch that answered
/// it measured its queue delay, coalescing hold and wall time from the
/// batch's own clock reads (execution start, execution end), and split the
/// batch's store, inference, probe and demux-copy spans across its requests
/// by key count.  The `recent_*` fields are windows over the same samples:
/// the since-boot histogram less its snapshot at the start of the window
/// (see [`dm_obs::SnapshotWindow`]).
#[derive(Debug, Clone, Default)]
pub struct TenantTail {
    /// Enqueue → its batch's execution start.
    pub queue_delay: HistogramSnapshot,
    /// Newest batch member's arrival → execution start (the coalescing hold).
    pub coalesce_wait: HistogramSnapshot,
    /// Enqueue → response ready, per completed request.
    pub request_wall: HistogramSnapshot,
    /// Key-weighted share of the merged batch's store execution time.
    pub exec_share: HistogramSnapshot,
    /// Key-weighted share of the batch's model inference time.
    pub inference_share: HistogramSnapshot,
    /// Key-weighted share of the batch's auxiliary probe time.
    pub probe_share: HistogramSnapshot,
    /// Key-weighted share of the batch's demux copy, which copies every
    /// answered request's rows out of the merged result buffer and is timed
    /// once per batch.
    pub result_copy: HistogramSnapshot,
    /// Windowed (last ~60 s) request wall time — empty when the tenant has
    /// been idle for a full window or `DM_OBS=off`.
    pub recent_request_wall: HistogramSnapshot,
    /// Windowed (last ~60 s) queue delay — empty when
    /// the tenant has been idle for a full window or `DM_OBS=off`.
    pub recent_queue_delay: HistogramSnapshot,
}

/// Point-in-time counter snapshot returned by
/// [`QueryServer::stats`](crate::QueryServer::stats).
///
/// Counts are exact relaxed-counter reads.  Latency fields come in two
/// flavors: percentile fields (`*_p50` … `*_max`) read from log2-bucketed
/// histograms (≤ 12.5% relative error, see `dm_obs`), and summed-nanos fields
/// kept for mean computation.  Both read the merge of every tenant's
/// [`TenantTail`] histograms: server-wide, a request counts exactly as it
/// counts for its tenant.  This mirrors the `LatencyBreakdown` discipline
/// in `dm_core`: cheap relaxed recording on the hot path, derived rates at
/// read time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Requests admitted past admission control.
    pub requests_enqueued: u64,
    /// Requests answered successfully.
    pub requests_completed: u64,
    /// Requests failed after admission (store error, shutdown drain, queued
    /// requests of a dropped client).
    pub requests_failed: u64,
    /// Requests rejected by admission control with [`Overloaded`](crate::ServerError::Overloaded).
    pub requests_shed: u64,
    /// Requests failed at batch formation with [`Timeout`](crate::ServerError::Timeout)
    /// because they outwaited [`request_deadline`](crate::ServerConfig::request_deadline).
    /// Also counted in `requests_failed`.
    pub requests_timed_out: u64,
    /// Requests failed with [`PartialFailure`](crate::ServerError::PartialFailure):
    /// their batch succeeded but their own spans touched unreadable
    /// partitions. Also counted in `requests_failed`.
    pub partial_failures: u64,
    /// Times a tenant's circuit breaker transitioned closed→open (or a
    /// half-open probe failed and re-opened it).
    pub breaker_trips: u64,
    /// Requests fast-failed at admission with
    /// [`TenantUnavailable`](crate::ServerError::TenantUnavailable) while a
    /// breaker was open.
    pub breaker_rejections: u64,
    /// Times an open breaker closed again after a successful half-open probe.
    pub breaker_recoveries: u64,
    /// Keys across all admitted requests.
    pub keys_enqueued: u64,
    /// Keys across all successfully answered requests.
    pub keys_served: u64,
    /// Merged batches executed, each on the client thread that took it. The
    /// next three counters say why each one ran and sum to this one.
    pub batches_formed: u64,
    /// Batches a `submit` or `is_done` ran because
    /// [`max_batch_keys`](crate::ServerConfig::max_batch_keys) were pending.
    pub batches_full: u64,
    /// Batches a `submit` or `is_done` ran because their oldest request had
    /// waited [`max_delay`](crate::ServerConfig::max_delay).
    pub batches_at_window: u64,
    /// Batches of whatever was queued, run by a client blocked in
    /// `wait_into`, or by a client that had just freed a core while another
    /// was parked.
    pub batches_on_caller: u64,
    /// [`ServerClient`](crate::ServerClient)s asleep in `wait_into` right now
    /// on a request the server has not finished yet (a client running a
    /// batch is not parked).
    pub parked_clients: u64,
    /// Keys of the requests waiting in the queue right now.
    pub queued_keys: u64,
    /// Requests that travelled inside a merged batch.
    pub batched_requests: u64,
    /// Largest number of requests coalesced into a single batch.
    pub max_coalesce_width: u64,
    /// Summed time from enqueue to batch formation, over answered requests.
    ///
    /// Derived from the queue-delay histogram's sum; prefer the
    /// `queue_delay_p*` percentile fields — a mean hides the tail.
    pub queue_delay_nanos: u64,
    /// Summed coalescing hold (newest batch member's arrival → execution
    /// start) over answered requests.
    pub coalesce_wait_nanos: u64,
    /// Summed time from enqueue to response ready, over completed requests.
    ///
    /// Derived from the request-wall histogram's sum; prefer the
    /// `request_wall_p*` percentile fields — a mean hides the tail.
    pub request_wall_nanos: u64,
    /// Summed time spent inside `TupleStore::lookup_batch_into`.
    pub exec_nanos: u64,
    /// Tenant snapshots opened lazily on first request.
    pub tenants_opened: u64,
    /// Summed wall time of those lazy opens.
    pub tenant_open_nanos: u64,
    /// Median enqueue-to-batch-formation delay.
    pub queue_delay_p50: Duration,
    /// 95th-percentile queue delay.
    pub queue_delay_p95: Duration,
    /// 99th-percentile queue delay.
    pub queue_delay_p99: Duration,
    /// Largest observed queue delay.
    pub queue_delay_max: Duration,
    /// Median enqueue-to-response wall time over completed requests.
    pub request_wall_p50: Duration,
    /// 95th-percentile request wall time.
    pub request_wall_p95: Duration,
    /// 99th-percentile request wall time.
    pub request_wall_p99: Duration,
    /// Largest observed request wall time.
    pub request_wall_max: Duration,
    /// Span of the sliding window the `recent_*` fields cover (~60 s).
    pub recent_window: Duration,
    /// Completed requests inside the window.  Zero when idle for a full
    /// window *or* when `DM_OBS=off` (windowed recording is gated).
    pub recent_requests: u64,
    /// Median request wall time over the window — "now", not since boot.
    pub recent_request_wall_p50: Duration,
    /// 95th-percentile request wall time over the window.
    pub recent_request_wall_p95: Duration,
    /// 99th-percentile request wall time over the window (the SLO burn-rate
    /// numerator).
    pub recent_request_wall_p99: Duration,
    /// 99th-percentile queue delay over the window.
    pub recent_queue_delay_p99: Duration,
}

impl ServerStats {
    /// Mean number of requests merged per batch, or 0.0 before the
    /// first batch.
    pub fn mean_coalesce_width(&self) -> f64 {
        if self.batches_formed == 0 {
            0.0
        } else {
            self.batched_requests as f64 / self.batches_formed as f64
        }
    }

    /// Mean enqueue-to-batch-formation delay.  A mean
    /// hides the tail: prefer `queue_delay_p95` / `queue_delay_p99`.
    pub fn mean_queue_delay(&self) -> Duration {
        self.queue_delay_nanos
            .checked_div(self.batched_requests)
            .map(Duration::from_nanos)
            .unwrap_or(Duration::ZERO)
    }

    /// Mean enqueue-to-response wall time over completed requests.  A mean
    /// hides the tail: prefer `request_wall_p95` / `request_wall_p99`.
    pub fn mean_request_wall(&self) -> Duration {
        self.request_wall_nanos
            .checked_div(self.requests_completed)
            .map(Duration::from_nanos)
            .unwrap_or(Duration::ZERO)
    }
}

/// What each since-boot field of a [`TenantTail`] must hold: `samples`
/// recorded one by one into plain [`dm_obs::Histogram`]s. In
/// [`TenantTail::since_boot`] order.
#[cfg(test)]
pub(crate) fn reference_tail(samples: &[RequestSample]) -> [HistogramSnapshot; 7] {
    let histograms: [dm_obs::Histogram; 7] = Default::default();
    for sample in samples {
        let [queue, coalesce, wall, exec, inference, probe, copy] = &histograms;
        queue.record_nanos(sample.queue_delay_nanos);
        coalesce.record_nanos(sample.coalesce_wait_nanos);
        wall.record_nanos(sample.wall_nanos);
        exec.record_nanos(sample.exec_share_nanos);
        inference.record_nanos(sample.inference_share_nanos);
        probe.record_nanos(sample.probe_share_nanos);
        copy.record_nanos(sample.result_copy_nanos);
    }
    histograms.map(|histogram| histogram.snapshot())
}

#[cfg(test)]
impl TenantTail {
    /// The since-boot fields, in field order.
    pub(crate) fn since_boot(&self) -> [HistogramSnapshot; 7] {
        [
            &self.queue_delay,
            &self.coalesce_wait,
            &self.request_wall,
            &self.exec_share,
            &self.inference_share,
            &self.probe_share,
            &self.result_copy,
        ]
        .map(Clone::clone)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Windowed now while observability is on, as the server stamps them.
    fn now() -> Option<u64> {
        dm_obs::enabled().then(dm_obs::window::now_nanos)
    }

    /// Records one request with the given latencies into `tenant`.
    fn request(tenant: &TenantObs, queue_delay_nanos: u64, coalesce_wait_nanos: u64, wall: u64) {
        tenant.record(&[RequestSample {
            windowed_at: now(),
            queue_delay_nanos,
            coalesce_wait_nanos,
            wall_nanos: wall,
            ..RequestSample::default()
        }]);
    }

    /// Deterministic pseudo-random stream for the fold tests.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn snapshot_reflects_recorded_batches_and_derived_means() {
        let cells = StatsCells::default();
        let (a, b) = (TenantObs::default(), TenantObs::default());
        cells.record_batch(FlushReason::Full, 4, 4, 400, 1_000);
        for _ in 0..4 {
            request(&a, 1_000, 200, 2_000);
        }
        cells.record_batch(FlushReason::Window, 2, 2, 200, 500);
        request(&b, 500, 100, 800);
        request(&b, 500, 100, 800);
        cells.record_batch(FlushReason::Caller, 1, 1, 10, 100);
        request(&a, 0, 0, 200);

        // The server-wide histograms are the merge of the tenants'.
        let s = cells.snapshot([&a, &b]);
        assert_eq!(s.batches_formed, 3);
        assert_eq!(
            (s.batches_full, s.batches_at_window, s.batches_on_caller),
            (1, 1, 1)
        );
        assert_eq!(s.batched_requests, 7);
        assert_eq!(s.requests_completed, 7);
        assert_eq!(s.keys_served, 610);
        assert_eq!(s.max_coalesce_width, 4);
        assert_eq!(s.queue_delay_nanos, 5_000);
        assert_eq!(s.coalesce_wait_nanos, 1_000);
        assert_eq!(s.request_wall_nanos, 9_800);
        assert!((s.mean_coalesce_width() - 7.0 / 3.0).abs() < 1e-9);
        assert_eq!(s.mean_queue_delay(), Duration::from_nanos(5_000 / 7));
        assert_eq!(s.mean_request_wall(), Duration::from_nanos(9_800 / 7));
    }

    #[test]
    fn percentile_fields_come_from_the_histograms() {
        let cells = StatsCells::default();
        let tenant = TenantObs::default();
        // 50 fast requests and one slow straggler (~2% of the population, so
        // nearest-rank p99 lands on it): the mean averages the straggler
        // away, the p99/max must not.
        for _ in 0..50 {
            request(&tenant, 1_000, 0, 10_000);
        }
        request(&tenant, 1_000, 0, 40_000_000);
        cells.record_batch(FlushReason::Caller, 51, 51, 51, 0);
        let s = cells.snapshot([&tenant]);
        assert!(s.request_wall_p50 < Duration::from_micros(12));
        assert!(s.request_wall_p99 >= Duration::from_millis(40));
        assert_eq!(s.request_wall_max, Duration::from_millis(40));
        let mean = s.mean_request_wall();
        assert!(
            s.request_wall_p99 > mean * 10,
            "tail must dominate the mean: p99={:?} mean={mean:?}",
            s.request_wall_p99
        );
    }

    #[test]
    fn tenant_obs_tail_snapshots_every_histogram() {
        let obs = TenantObs::default();
        obs.record(&[RequestSample {
            windowed_at: None,
            queue_delay_nanos: 5,
            coalesce_wait_nanos: 6,
            wall_nanos: 7,
            exec_share_nanos: 8,
            inference_share_nanos: 9,
            probe_share_nanos: 10,
            result_copy_nanos: 11,
        }]);
        let tail = obs.tail();
        assert_eq!(tail.queue_delay.count(), 1);
        assert_eq!(tail.coalesce_wait.sum(), 6);
        assert_eq!(tail.request_wall.max(), 7);
        assert_eq!(tail.exec_share.sum(), 8);
        assert_eq!(tail.inference_share.sum(), 9);
        assert_eq!(tail.probe_share.sum(), 10);
        assert_eq!(tail.result_copy.sum(), 11);
    }

    /// The windowed fields are pure observability: with the `DM_OBS` kill
    /// switch off they record nothing and read zero, while the since-boot
    /// histograms and counters stay exact (CI reruns the suite that way).
    #[test]
    fn recent_fields_cover_the_sliding_window() {
        let windowed = |n: u64| if dm_obs::enabled() { n } else { 0 };
        let cells = StatsCells::default();
        let tenant = TenantObs::default();
        for _ in 0..20 {
            request(&tenant, 1_000, 100, 50_000);
        }
        request(&tenant, 2_000, 0, 80_000);
        cells.record_batch(FlushReason::Caller, 21, 21, 105, 10);
        let s = cells.snapshot([&tenant]);
        assert_eq!(s.recent_requests, windowed(21));
        assert!(s.recent_window >= Duration::from_secs(30));
        assert!(s.recent_request_wall_p99 >= Duration::from_nanos(windowed(50_000)));
        assert!(s.recent_queue_delay_p99 >= Duration::from_nanos(windowed(1_000)));
        assert!(s.request_wall_p99 >= Duration::from_nanos(50_000));
        assert_eq!((s.batches_on_caller, s.requests_completed, s.keys_served), (1, 21, 105));
        if dm_obs::enabled() {
            // Everything recorded inside one window: the recent view matches
            // the since-boot histogram exactly.
            assert_eq!(s.recent_request_wall_p50, s.request_wall_p50);
        } else {
            assert_eq!(s.recent_request_wall_p50, Duration::ZERO);
        }
        let tail = tenant.tail();
        assert_eq!(tail.recent_request_wall.count(), windowed(21));
        assert_eq!(tail.recent_queue_delay.count(), windowed(21));
        assert_eq!(tail.request_wall.count(), 21);

        let obs = TenantObs::default();
        request(&obs, 1, 1, 7_000);
        let tail = obs.tail();
        assert_eq!(tail.recent_request_wall.count(), windowed(1));
        assert_eq!(tail.recent_request_wall.sum(), windowed(tail.request_wall.sum()));
        assert_eq!(tail.request_wall.sum(), 7_000);
    }

    /// A random sample, windowed or not.
    fn random_sample(state: &mut u64) -> RequestSample {
        let mut next = |bits: u64| splitmix(state) % (1 << bits);
        RequestSample {
            windowed_at: (next(2) != 0).then(|| next(40)),
            queue_delay_nanos: next(24),
            coalesce_wait_nanos: next(16),
            wall_nanos: next(30),
            exec_share_nanos: next(22),
            inference_share_nanos: next(20),
            probe_share_nanos: next(18),
            result_copy_nanos: next(12),
        }
    }

    /// Threads on every stripe write batches of every size — single
    /// samples, batches that overflow a log, one batch larger than a log —
    /// and a reader takes tails meanwhile: the final tail equals, bucket
    /// for bucket, histograms that recorded the same samples one by one.
    #[test]
    fn the_fold_equals_histograms_fed_the_same_samples() {
        let obs = TenantObs::default();
        let threads = 2 * dm_obs::histogram::stripe_count() as u64;
        std::thread::scope(|scope| {
            for thread in 0..threads {
                let obs = &obs;
                scope.spawn(move || {
                    let mut state = thread;
                    for round in 0..200usize {
                        let size = [1, 3, 7, LOG_SAMPLES - 1, 2][round % 5];
                        let size = if thread == 0 && round == 99 {
                            3 * LOG_SAMPLES
                        } else {
                            size
                        };
                        let batch: Vec<RequestSample> =
                            (0..size).map(|_| random_sample(&mut state)).collect();
                        obs.record(&batch);
                    }
                });
            }
            scope.spawn(|| {
                for _ in 0..20 {
                    let _ = obs.tail();
                }
            });
        });
        let samples = obs.tap.lock().clone();
        assert!(
            samples.len() > 20 * LOG_SAMPLES,
            "{} samples",
            samples.len()
        );
        let tail = obs.tail();
        assert_eq!(tail.since_boot(), reference_tail(&samples));
        // A second read folds nothing new and reads the same.
        assert_eq!(obs.tail().since_boot(), tail.since_boot());
    }

    /// The `recent_*` windows, read at explicit clocks as the samples'
    /// clocks move across many slice rotations (with late, stale and
    /// unwindowed samples among them), equal today's `WindowedHistogram`
    /// fed the windowed samples — bucket for bucket, so every percentile.
    #[test]
    fn recent_windows_replay_the_windowed_histogram() {
        let slice = DEFAULT_SLICE.as_nanos() as u64;
        let obs = TenantObs::default();
        let wall = dm_obs::WindowedHistogram::default();
        let queue = dm_obs::WindowedHistogram::default();
        let mut state = 5u64;
        let mut newest = 3 * slice;
        for step in 0..3_000u64 {
            let mut sample = random_sample(&mut state);
            let r = splitmix(&mut state);
            sample.windowed_at = match r % 12 {
                0 => None,
                1 => Some(newest.saturating_sub(r % (4 * slice))),
                2 => Some(newest.saturating_sub(DEFAULT_SLICES as u64 * slice + r % (3 * slice))),
                _ => {
                    newest += r % (slice / 2);
                    Some(newest)
                }
            };
            if let Some(at) = sample.windowed_at {
                wall.record_at(at, sample.wall_nanos);
                queue.record_at(at, sample.queue_delay_nanos);
            }
            obs.record(&[sample]);
            if step % 50 == 0 {
                for ahead in [0, slice / 3, 4 * slice, 11 * slice, 13 * slice] {
                    let clock = newest + ahead;
                    let tail = obs.tail_at(clock);
                    let (want_wall, want_queue) =
                        (wall.snapshot_at(clock), queue.snapshot_at(clock));
                    assert_eq!(
                        tail.recent_request_wall, want_wall,
                        "step {step}, clock {clock}"
                    );
                    assert_eq!(
                        tail.recent_queue_delay, want_queue,
                        "step {step}, clock {clock}"
                    );
                    for q in [0.5, 0.95, 0.99] {
                        assert_eq!(
                            tail.recent_request_wall.percentile(q),
                            want_wall.percentile(q)
                        );
                    }
                }
            }
        }
        assert!(newest > 40 * slice, "the replay crossed many rotations");
    }

    #[test]
    fn empty_stats_report_zero_means_without_dividing_by_zero() {
        let s = ServerStats::default();
        assert_eq!(s.mean_coalesce_width(), 0.0);
        assert_eq!(s.mean_queue_delay(), Duration::ZERO);
        assert_eq!(s.mean_request_wall(), Duration::ZERO);
        assert_eq!(s.queue_delay_p99, Duration::ZERO);
        assert_eq!(s.request_wall_max, Duration::ZERO);
    }
}
