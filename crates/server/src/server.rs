//! The query server: tenant registry, admission control, and the coalescing
//! batch path that its clients run.
//!
//! # Architecture
//!
//! ```text
//! client threads                                                    TupleStore
//! ──────────────                                                    ──────────
//! submit ──┐  bounded queue     submit / is_done: a batch due and a   one merged
//! submit ──┼─▶ of QueuedReq ──▶ core free? take_batch, run it here ─▶ lookup_batch_into
//! submit ──┘  (admission ctl)   wait_into: a core free? the same      per batch,
//!                               no core: park on the slot             ≤ cores at once
//!    ▲                                                                    │
//!    └── wait_into ◀── slot condvar ◀── demux via copy_range_from ◀── flat LookupBuffer
//!                      (notified only if a waiter is parked)
//! ```
//!
//! The server owns no thread: every batch takes one path — admission, the
//! queue, `Shared::take_batch` (the oldest request's tenant, up to
//! `max_batch_keys`), `Shared::run_batches` — on a client's thread, and only
//! while fewer batches are running than the machine has cores (counted under
//! the queue lock). `wait_into` runs what is queued; `submit` and `is_done`
//! run a batch that is *due* — `max_batch_keys` pending (*full*) or the
//! oldest request `max_delay` old (*window*), both O(1) checks under the lock
//! admission takes anyway; and after any batch its thread runs the next one
//! while a client is parked (the *parked handoff*). Nothing sleeps on a
//! timer.
//!
//! A waiter that finds every core busy parks, and its requests join the next
//! batch. A parker counts itself in before it looks for a free core under
//! the queue lock, and a finisher gives its core back under that lock before
//! it reads the count, so one of the two always sees the other. Whoever
//! moves a parked client's slot to a final state counts it out *at release*,
//! not when its thread wakes up.
//!
//! Batch formation holds the queue lock only; batch execution and demux hold
//! slot locks, and the tenant's sample log once per batch, one at a time — the
//! lock domains never nest in conflicting order (the queue lock may be held
//! while a slot lock is taken, never the reverse). A store that panics fails
//! the requests of its batch with [`ServerError::Store`], gives its core back
//! and wakes one parked waiter whose request is still queued (see
//! `RunningBatch`); the panic reaches the client that ran the batch, as it
//! would calling the store directly.

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use dm_core::DeepMapping;
use dm_obs::trace::{self, CapturedTrace, TraceEvent};
use dm_obs::{CaptureRing, Counter, Stage};
use dm_persist::SnapshotExt;
use dm_storage::{LookupBuffer, TupleStore};
use parking_lot::Mutex;

use crate::client::{RequestSlot, ServerClient, SlotInner, SlotState};
use crate::error::{Result, ServerError};
use crate::stats::{FlushReason, RequestSample, ServerStats, StatsCells, TenantObs, TenantTail};

/// Default pipeline depth for [`QueryServer::client`].
pub const DEFAULT_PIPELINE_DEPTH: usize = 4;

/// Tuning knobs for a [`QueryServer`]. Watermarks and limits are normalized
/// at server construction (see [`QueryServer::new`]) so any hand-built config
/// is made internally consistent rather than rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// A batch is due once this many keys are pending, and also the most
    /// keys a batch takes (a lone larger request still goes).
    pub max_batch_keys: usize,
    /// A batch is due once the oldest queued request has waited this long.
    /// This is the coalescing window for requests whose submitter has not
    /// waited yet: a later [`submit`](ServerClient::submit) or
    /// [`is_done`](ServerClient::is_done) of any client that finds the window
    /// closed runs the batch on its own thread, if a core is free. No timer
    /// closes it: a request nobody waits on waits for the next such call. A
    /// submitter that blocks in `wait_into` does not sit the window out — it
    /// runs the queued requests on its own thread when a core is free, and
    /// otherwise parks. Zero makes each request due at its own submit.
    pub max_delay: Duration,
    /// Hard capacity of the pending-key queue; submissions beyond it are
    /// rejected with [`ServerError::Overloaded`].
    pub queue_capacity_keys: usize,
    /// Once pending keys reach this level the server starts shedding new
    /// requests (continuing to serve what is queued).
    pub shed_high_watermark_keys: usize,
    /// Shedding stops once pending keys drain to this level. The gap between
    /// the watermarks is hysteresis: without it a queue hovering at the
    /// threshold would flap between accepting and rejecting on every request.
    pub shed_low_watermark_keys: usize,
    /// Largest single request; bigger ones are rejected with
    /// [`ServerError::RequestTooLarge`] (they should go straight to the
    /// store's own batch API instead of monopolizing the coalescer).
    pub max_request_keys: usize,
    /// When true the server runs with a zero [`max_delay`](Self::max_delay):
    /// a request runs at its own submit, on its caller's thread, whenever a
    /// core is free. Read only when the config is normalized.
    pub inline: bool,
    /// Requests whose wall time reaches this threshold get their latency
    /// timeline retained in the server's slow-request ring (see
    /// [`QueryServer::slow_requests`]). `None` falls back to the process-wide
    /// `DM_OBS_SLOW_MS` threshold.
    pub slow_request: Option<Duration>,
    /// Per-tenant p99 latency target. When set, [`QueryServer::tenant_health`]
    /// compares each tenant's *windowed* (last ~60 s) request-wall p99 against
    /// it and feeds the resulting burn rate to the maintenance advisor as
    /// [`dm_obs::SloSignals`]. `None` (the default) runs the advisor on store
    /// signals alone.
    pub tenant_p99_target: Option<Duration>,
    /// Per-request deadline. A queued request that outwaits it is failed with
    /// [`ServerError::Timeout`] at the next batch formation instead of being
    /// served an answer its caller has already given up on — under a stalled
    /// store the queue drains by timing out rather than serving stale work.
    /// `None` (the default) never times requests out.
    pub request_deadline: Option<Duration>,
    /// Consecutive serving failures (store errors, failed snapshot opens,
    /// partially failed batches) after which a tenant's circuit breaker opens
    /// and new requests fast-fail with [`ServerError::TenantUnavailable`].
    /// `0` disables the breaker.
    pub breaker_failure_threshold: u32,
    /// How long an open breaker rejects before admitting one half-open probe
    /// request. A successful probe closes the breaker; a failed one re-opens
    /// it for another cooldown.
    pub breaker_cooldown: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_batch_keys: 256,
            max_delay: Duration::from_micros(100),
            queue_capacity_keys: 4096,
            shed_high_watermark_keys: 3584,
            shed_low_watermark_keys: 2048,
            max_request_keys: 1024,
            inline: false,
            slow_request: None,
            tenant_p99_target: None,
            request_deadline: None,
            breaker_failure_threshold: 5,
            breaker_cooldown: Duration::from_millis(250),
        }
    }
}

impl ServerConfig {
    /// A config with the given coalescing window and batch-size trigger,
    /// defaults elsewhere.
    pub fn coalescing(max_delay: Duration, max_batch_keys: usize) -> Self {
        ServerConfig {
            max_delay,
            max_batch_keys,
            ..ServerConfig::default()
        }
    }

    /// The inline config: a zero coalescing window, so a request runs at its
    /// own submit, on its caller's thread, whenever a core is free.
    pub fn inline() -> Self {
        ServerConfig {
            inline: true,
            ..ServerConfig::default()
        }
    }

    /// Clamps fields into a consistent shape: nonzero batch/request limits,
    /// capacity at least one batch, watermarks ordered `low <= high <=
    /// capacity`, and a zero `max_delay` when `inline`.
    fn normalized(mut self) -> Self {
        if self.inline {
            self.max_delay = Duration::ZERO;
        }
        self.max_batch_keys = self.max_batch_keys.max(1);
        self.max_request_keys = self.max_request_keys.max(1);
        self.queue_capacity_keys = self.queue_capacity_keys.max(self.max_batch_keys);
        self.shed_high_watermark_keys = self
            .shed_high_watermark_keys
            .min(self.queue_capacity_keys)
            .max(1);
        self.shed_low_watermark_keys = self.shed_low_watermark_keys.min(self.shed_high_watermark_keys);
        self
    }
}

/// Opaque handle to a registered tenant, returned by
/// [`QueryServer::register_store`] / [`register_snapshot`](QueryServer::register_snapshot)
/// and resolvable by name via [`QueryServer::tenant`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TenantId(pub(crate) usize);

/// Per-tenant circuit breaker: closed (serving) → open (fast-failing) after
/// [`breaker_failure_threshold`](ServerConfig::breaker_failure_threshold)
/// consecutive failures → half-open (one probe admitted) after
/// [`breaker_cooldown`](ServerConfig::breaker_cooldown) → closed again on a
/// successful probe, or straight back to open on a failed one.
#[derive(Default)]
struct BreakerState {
    consecutive_failures: u32,
    /// `Some` while the breaker is open (or probing); when the probe closes
    /// the breaker this resets to `None`.
    opened_at: Option<Instant>,
    /// A half-open probe is in flight: exactly one request is testing the
    /// tenant; everyone else keeps fast-failing until it reports back.
    probing: bool,
}

/// [`Breaker::mode`]: closed, nothing failed since the last success.
const CLEAN: u8 = 0;
/// Closed, with failures since the last success.
const FAILING: u8 = 1;
/// Open or probing.
const OPEN: u8 = 2;

impl BreakerState {
    /// Admission check. `None` admits; `Some(retry_after)` fast-fails.
    fn check(&mut self, now: Instant, cooldown: Duration) -> Option<Duration> {
        let opened_at = self.opened_at?;
        let elapsed = now.saturating_duration_since(opened_at);
        if elapsed < cooldown {
            return Some(cooldown - elapsed);
        }
        if self.probing {
            // Someone else is already probing; keep rejecting until the
            // probe's verdict is in rather than stampeding a sick tenant.
            return Some(cooldown);
        }
        self.probing = true;
        None
    }

    /// Records a serving failure; returns true when this transition opened
    /// (or re-opened) the breaker.
    fn record_failure(&mut self, now: Instant, threshold: u32) -> bool {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        if self.probing {
            self.probing = false;
            self.opened_at = Some(now);
            return true;
        }
        if self.opened_at.is_none() && self.consecutive_failures >= threshold {
            self.opened_at = Some(now);
            return true;
        }
        false
    }

    /// Records a serving success; returns true when it closed an open breaker.
    fn record_success(&mut self) -> bool {
        let recovered = self.opened_at.is_some();
        *self = BreakerState::default();
        recovered
    }

    fn mode(&self) -> u8 {
        if self.opened_at.is_some() {
            OPEN
        } else if self.consecutive_failures > 0 {
            FAILING
        } else {
            CLEAN
        }
    }
}

/// A tenant's [`BreakerState`] behind its mutex, with the state's shape
/// mirrored in one atomic so a healthy tenant's requests never take the
/// lock: a breaker that is not open admits on one load, and a success
/// reported to a clean one is that same load. The lock is taken to record a
/// failure, to recover from one, and to check an open breaker (which may
/// admit the half-open probe).
#[derive(Default)]
struct Breaker {
    state: Mutex<BreakerState>,
    /// [`CLEAN`], [`FAILING`] or [`OPEN`]; written under `state`'s lock
    /// after every transition.
    mode: AtomicU8,
}

/// One registered tenant. `store` starts empty for snapshot-backed tenants
/// and is filled single-flight on first request (`opening` makes concurrent
/// first requests open the file exactly once); once filled, a batch reads it
/// with one load.
struct Tenant {
    name: String,
    path: Option<PathBuf>,
    store: OnceLock<Arc<dyn TupleStore>>,
    opening: Mutex<()>,
    /// Per-tenant tail attribution (see [`TenantObs`]).
    obs: TenantObs,
    /// Circuit breaker guarding admission.
    breaker: Breaker,
}

/// Slots in the tenant table's first segment; each later one doubles.
const FIRST_SEGMENT: usize = 8;
/// Segments of the tenant table: room for 8 · (2³² − 1) tenants.
const SEGMENTS: usize = 32;

/// The registered tenants, append-only: a tenant keeps its index (its
/// [`TenantId`]) and its address for the server's life, so the serving path
/// resolves one with two loads — no lock, no reference count. Segments double
/// in size and are allocated as registration reaches them; only
/// registration, under [`Shared::names`], writes.
struct TenantTable {
    segments: [OnceLock<Box<[OnceLock<Tenant>]>>; SEGMENTS],
    len: AtomicUsize,
}

impl TenantTable {
    fn new() -> Self {
        TenantTable {
            segments: std::array::from_fn(|_| OnceLock::new()),
            len: AtomicUsize::new(0),
        }
    }

    /// The segment holding `index`, and its slot there.
    fn locate(index: usize) -> (usize, usize) {
        let segment = (index / FIRST_SEGMENT + 1).ilog2() as usize;
        (segment, index - FIRST_SEGMENT * ((1 << segment) - 1))
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    fn get(&self, index: usize) -> Option<&Tenant> {
        if index >= self.len() {
            return None;
        }
        let (segment, slot) = Self::locate(index);
        self.segments[segment].get()?[slot].get()
    }

    fn iter(&self) -> impl Iterator<Item = &Tenant> {
        (0..self.len()).filter_map(|index| self.get(index))
    }

    /// Appends `tenant` and returns its index. The caller holds the
    /// registration lock, so there is one writer.
    fn push(&self, tenant: Tenant) -> usize {
        let index = self.len.load(Ordering::Relaxed);
        let (segment, slot) = Self::locate(index);
        let slots = self.segments[segment].get_or_init(|| {
            (0..FIRST_SEGMENT << segment)
                .map(|_| OnceLock::new())
                .collect()
        });
        assert!(
            slots[slot].set(tenant).is_ok(),
            "tenant slot {index} filled twice"
        );
        self.len.store(index + 1, Ordering::Release);
        index
    }
}

/// Queue-side view of one admitted request. Key count and timestamps are
/// copied out of the slot at submission so batches can be formed while
/// holding only the queue lock.
pub(crate) struct QueuedReq {
    slot: Arc<RequestSlot>,
    tenant: usize,
    keys: usize,
    enqueued_at: Instant,
}

#[derive(Default)]
struct QueueState {
    entries: VecDeque<QueuedReq>,
    queued_keys: usize,
    /// Load-shedding latch: set when pending keys reach the high watermark,
    /// cleared when they drain to the low watermark.
    shedding: bool,
    shutdown: bool,
    /// Batches executing right now, each on the client thread that took it;
    /// never more than [`Shared::cores`].
    running: usize,
}

/// The buffers one client forms and runs batches with, so batch formation
/// and execution allocate nothing in the steady state.
#[derive(Default)]
pub(crate) struct BatchScratch {
    batch: Vec<QueuedReq>,
    kept: VecDeque<QueuedReq>,
    merged: Vec<u64>,
    results: LookupBuffer,
    timed_out: Vec<QueuedReq>,
    samples: Vec<RequestSample>,
}

/// One of the server's [`cores`](Shared::cores) running slots, held by a batch
/// in flight. Dropping it gives the slot back — on the normal path after the
/// demux has released every request, and on an unwind out of the store (or
/// anywhere else in the batch path) after failing every request the batch has
/// not released yet with [`ServerError::Store`], so none of their waiters is
/// stranded. Parked waiters are counted out by that release, which keeps the
/// census balanced. An unwinding thread runs no parked handoff, so it wakes
/// a parked waiter instead (see [`wake_a_parked_waiter`](Shared::wake_a_parked_waiter)).
struct RunningBatch<'a> {
    shared: &'a Shared,
    batch: &'a mut Vec<QueuedReq>,
}

impl Drop for RunningBatch<'_> {
    fn drop(&mut self) {
        let unwound = !self.batch.is_empty();
        if unwound {
            // Only an unwind leaves requests here: `execute_batch` releases
            // each one it handles and removes it only then.
            let err = ServerError::Store("store panicked while serving the batch".into());
            let tenant = self.shared.tenant(self.batch[0].tenant);
            self.shared.breaker_record(tenant, false);
            self.shared.fail_requests(self.batch, &err);
        }
        self.shared.queue.lock().running -= 1;
        if unwound {
            self.shared.wake_a_parked_waiter();
        }
    }
}

/// State shared between the server handle and its clients.
pub(crate) struct Shared {
    config: ServerConfig,
    /// How many batches may run at once: the machine's
    /// `available_parallelism`, read once when the server is built.
    cores: usize,
    queue: Mutex<QueueState>,
    /// How many [`ServerClient`]s are asleep in `wait_into`. `SeqCst`, like
    /// the queue lock either side passes through: a parker that counts itself
    /// in and a finisher that gives its core back never both miss the other.
    parked_clients: AtomicUsize,
    /// Tenant names to indexes; also the registration lock.
    names: Mutex<HashMap<String, usize>>,
    tenants: TenantTable,
    stats: StatsCells,
    /// The `dm-obs` registry's flush-reason counters, in [`FlushReason::ALL`]
    /// order — resolved once, they are bumped on every batch.
    flush_counters: [Arc<Counter>; 3],
    /// Retained timelines of requests whose wall time crossed the slow
    /// threshold. Threshold 0 on the ring itself: admission is decided in the
    /// demux loop against [`slow_threshold_nanos`](Shared::slow_threshold_nanos),
    /// so runtime threshold changes take effect.
    slow: CaptureRing,
}

impl Shared {
    /// The wall-time threshold past which a request's timeline is retained:
    /// the server's own [`ServerConfig::slow_request`] when set, otherwise
    /// the live process-wide `DM_OBS_SLOW_MS` value.
    fn slow_threshold_nanos(&self) -> u64 {
        match self.config.slow_request {
            Some(threshold) => threshold.as_nanos().min(u64::MAX as u128) as u64,
            None => dm_obs::slow_threshold_nanos(),
        }
    }

    /// The tenant of an admitted request.
    fn tenant(&self, index: usize) -> &Tenant {
        self.tenants
            .get(index)
            .expect("admitted requests name registered tenants")
    }

    /// Counts a client in as parked; the caller has just set its slot's
    /// `waiting` flag and still holds the slot lock.
    pub(crate) fn client_parked(&self) {
        self.parked_clients.fetch_add(1, Ordering::SeqCst);
    }

    /// Counts out a parked client that is about to run a batch itself; the
    /// caller has just cleared its slot's `waiting` flag under the slot lock.
    pub(crate) fn client_unparked(&self) {
        self.parked_clients.fetch_sub(1, Ordering::SeqCst);
    }

    /// True while some client sleeps in `wait_into`. Read after a batch has
    /// given its core back (which passes through the queue lock), it sees
    /// every waiter that counted itself parked before looking for a free
    /// core under that lock and finding none.
    fn any_parked(&self) -> bool {
        self.parked_clients.load(Ordering::SeqCst) > 0
    }

    /// True when requests are queued and a core is free to run them.
    pub(crate) fn core_free_for_queued(&self) -> bool {
        let q = self.queue.lock();
        !q.entries.is_empty() && q.running < self.cores
    }

    /// Hands a slot that has just reached its final state back to its client.
    /// A parked waiter is counted out here, at release, rather than when its
    /// thread gets to run: from this point the client can submit again.
    fn release(&self, slot: &RequestSlot, mut inner: MutexGuard<'_, SlotInner>) {
        let parked = std::mem::take(&mut inner.waiting);
        drop(inner);
        if parked {
            self.parked_clients.fetch_sub(1, Ordering::SeqCst);
            slot.cv.notify_all();
        }
    }

    /// After a batch unwound out of the store, whose thread runs no parked
    /// handoff: wakes the first parked waiter whose request is still queued,
    /// counted out as at a release. It finds its request queued and the freed
    /// core, and runs the batch itself.
    fn wake_a_parked_waiter(&self) {
        if !self.any_parked() {
            return;
        }
        let q = self.queue.lock();
        for entry in &q.entries {
            let mut inner = entry.slot.inner.lock();
            if std::mem::take(&mut inner.waiting) {
                self.parked_clients.fetch_sub(1, Ordering::SeqCst);
                entry.slot.cv.notify_all();
                return;
            }
        }
    }

    /// Takes `keys` off the pending count, and lifts the shedding latch once
    /// the queue has drained to the low watermark.
    fn dequeued(&self, q: &mut QueueState, keys: usize) {
        q.queued_keys -= keys;
        if q.shedding && q.queued_keys <= self.config.shed_low_watermark_keys {
            q.shedding = false;
        }
    }

    /// Forms one batch out of the queue into `scratch.batch`: the oldest
    /// request's tenant, in FIFO order, up to `max_batch_keys` (a lone larger
    /// request still goes). Requests past their `request_deadline` go to
    /// `scratch.timed_out` instead. Takes a running slot when the batch is not
    /// empty; the caller has checked that one is free.
    fn take_batch(&self, q: &mut QueueState, now: Instant, scratch: &mut BatchScratch) {
        let Some(front) = q.entries.front() else {
            return;
        };
        // The oldest request anchors the batch. Requests for other tenants
        // wait their turn — FIFO across tenants keeps the policy simple and
        // starvation-free.
        let tenant = front.tenant;
        let cap = self.config.max_batch_keys;
        let mut taken = 0usize;
        let mut expired = 0usize;
        while let Some(entry) = q.entries.pop_front() {
            // Deadline sweep: a request that outwaited its per-request
            // deadline (typically because every core was stuck in a slow
            // store call) is failed, not served — its caller has moved on.
            if self
                .config
                .request_deadline
                .is_some_and(|limit| now.saturating_duration_since(entry.enqueued_at) >= limit)
            {
                expired += entry.keys;
                scratch.timed_out.push(entry);
                continue;
            }
            let fits = entry.tenant == tenant && (taken == 0 || taken + entry.keys <= cap);
            if fits {
                taken += entry.keys;
                scratch.batch.push(entry);
                if taken >= cap {
                    scratch.kept.extend(q.entries.drain(..));
                    break;
                }
            } else {
                scratch.kept.push_back(entry);
            }
        }
        std::mem::swap(&mut q.entries, &mut scratch.kept);
        self.dequeued(q, taken + expired);
        if !scratch.batch.is_empty() {
            q.running += 1;
        }
    }

    /// Forms a batch when one is due and a core is free, and says why it is
    /// due: pending keys have reached `max_batch_keys` (*full*), or the
    /// oldest request has waited `max_delay` by `now` (*window*).
    fn take_due(
        &self,
        q: &mut QueueState,
        now: Instant,
        scratch: &mut BatchScratch,
    ) -> Option<FlushReason> {
        let front = q.entries.front().filter(|_| q.running < self.cores)?;
        let reason = if q.queued_keys >= self.config.max_batch_keys {
            FlushReason::Full
        } else if now.saturating_duration_since(front.enqueued_at) >= self.config.max_delay {
            FlushReason::Window
        } else {
            return None;
        };
        self.take_batch(q, now, scratch);
        Some(reason)
    }

    /// Forms a batch of what is queued when a core is free; false, having
    /// done nothing, otherwise.
    fn take_queued(&self, scratch: &mut BatchScratch) -> bool {
        let mut q = self.queue.lock();
        let free = !q.entries.is_empty() && q.running < self.cores;
        if free {
            self.take_batch(&mut q, Instant::now(), scratch);
        }
        free
    }

    /// Fails what [`take_batch`](Self::take_batch) timed out, then executes
    /// the batch it formed (if any) under a [`RunningBatch`] that gives the
    /// running slot back. Called with no locks held.
    fn run_batch(&self, reason: FlushReason, scratch: &mut BatchScratch) {
        if !scratch.timed_out.is_empty() {
            self.fail_timeouts(&mut scratch.timed_out);
        }
        if scratch.batch.is_empty() {
            return;
        }
        let running = RunningBatch {
            shared: self,
            batch: &mut scratch.batch,
        };
        self.execute_batch(
            reason,
            &mut *running.batch,
            &mut scratch.merged,
            &mut scratch.results,
            &mut scratch.samples,
        );
    }

    /// Runs the batch formed into `scratch`, then the parked handoff: while
    /// a client is parked in `wait_into` and requests are queued, the core
    /// this thread has just freed is the one that client waits for, so the
    /// thread runs the next batch as well. Every batch runs through here.
    pub(crate) fn run_batches(&self, reason: FlushReason, scratch: &mut BatchScratch) {
        self.run_batch(reason, scratch);
        while self.any_parked() && self.take_queued(scratch) {
            self.run_batch(FlushReason::Caller, scratch);
        }
    }

    /// A client in `wait_into` runs the queued requests on its own thread, if
    /// there are any and a core is free. Returns false, having done nothing,
    /// otherwise.
    pub(crate) fn run_as_caller(&self, scratch: &mut BatchScratch) -> bool {
        let took = self.take_queued(scratch);
        if took {
            self.run_batches(FlushReason::Caller, scratch);
        }
        took
    }

    /// [`is_done`](ServerClient::is_done) runs a batch on its own thread when
    /// one is due and a core is free.
    pub(crate) fn run_due(&self, scratch: &mut BatchScratch) {
        let now = Instant::now();
        let due = self.take_due(&mut self.queue.lock(), now, scratch);
        if let Some(reason) = due {
            self.run_batches(reason, scratch);
        }
    }

    /// Takes a dropped client's requests that are still queued out of the
    /// queue and counts them failed: nobody is left to harvest them. One
    /// already in a running batch is answered into a slot nobody reads.
    pub(crate) fn cancel_queued(&self, slots: &[Arc<RequestSlot>]) {
        let mut q = self.queue.lock();
        let (before, mut keys) = (q.entries.len(), 0);
        q.entries.retain(|entry| {
            let ours = slots.iter().any(|slot| Arc::ptr_eq(slot, &entry.slot));
            keys += if ours { entry.keys } else { 0 };
            !ours
        });
        let cancelled = before - q.entries.len();
        self.dequeued(&mut q, keys);
        drop(q);
        self.stats.requests_failed.add(cancelled as u64);
    }

    /// Resolves `tenant`'s store, opening its snapshot on first use.
    fn tenant_store<'t>(&self, tenant: &'t Tenant) -> Result<&'t Arc<dyn TupleStore>> {
        if let Some(store) = tenant.store.get() {
            return Ok(store);
        }
        let _opening = tenant.opening.lock();
        if let Some(store) = tenant.store.get() {
            return Ok(store);
        }
        let path = tenant
            .path
            .as_ref()
            .expect("tenant without a store must carry a snapshot path");
        let started = Instant::now();
        let dm = DeepMapping::open(path)
            .map_err(|err| ServerError::TenantOpen(format!("{}: {err}", tenant.name)))?;
        self.stats.record_tenant_open(started.elapsed());
        Ok(tenant.store.get_or_init(|| Arc::new(dm)))
    }

    /// Breaker admission check for `tenant`. `Ok(())` admits (possibly as
    /// the half-open probe); `Err` carries the typed fast-fail. A breaker
    /// that is not open admits on one atomic load.
    fn breaker_admit(&self, tenant: &Tenant) -> Result<()> {
        if self.config.breaker_failure_threshold == 0
            || tenant.breaker.mode.load(Ordering::Acquire) != OPEN
        {
            return Ok(());
        }
        let verdict = {
            let mut state = tenant.breaker.state.lock();
            let verdict = state.check(Instant::now(), self.config.breaker_cooldown);
            tenant.breaker.mode.store(state.mode(), Ordering::Release);
            verdict
        };
        match verdict {
            None => Ok(()),
            Some(retry_after) => {
                self.stats.breaker_rejections.incr();
                Err(ServerError::TenantUnavailable {
                    tenant: tenant.name.clone(),
                    retry_after,
                })
            }
        }
    }

    /// Reports one serving outcome to `tenant`'s breaker. A success on a
    /// clean breaker changes nothing and takes no lock. Trips and
    /// recoveries feed both the server stats and the global `dm-obs`
    /// registry, so a scrape shows breaker churn next to the fault counters.
    fn breaker_record(&self, tenant: &Tenant, ok: bool) {
        let threshold = self.config.breaker_failure_threshold;
        if threshold == 0 || (ok && tenant.breaker.mode.load(Ordering::Acquire) == CLEAN) {
            return;
        }
        let mut state = tenant.breaker.state.lock();
        if ok {
            if state.record_success() {
                self.stats.breaker_recoveries.incr();
                dm_obs::registry::global()
                    .register_counter("dm_server_breaker_recoveries_total")
                    .incr();
            }
        } else if state.record_failure(Instant::now(), threshold) {
            self.stats.breaker_trips.incr();
            dm_obs::registry::global()
                .register_counter("dm_server_breaker_trips_total")
                .incr();
        }
        tenant.breaker.mode.store(state.mode(), Ordering::Release);
    }

    /// Fails every entry in `expired` with a typed [`ServerError::Timeout`]
    /// carrying how long it actually waited. Called by whoever formed the
    /// batch, after dropping the queue lock.
    fn fail_timeouts(&self, expired: &mut Vec<QueuedReq>) {
        let deadline = self.config.request_deadline.unwrap_or_default();
        let now = Instant::now();
        self.stats.requests_failed.add(expired.len() as u64);
        self.stats.requests_timed_out.add(expired.len() as u64);
        dm_obs::registry::global()
            .register_counter("dm_server_timeouts_total")
            .add(expired.len() as u64);
        for req in expired.drain(..) {
            let waited = now.saturating_duration_since(req.enqueued_at);
            let mut inner = req.slot.inner.lock();
            inner.state = SlotState::Failed(ServerError::Timeout { waited, deadline });
            self.release(&req.slot, inner);
        }
    }

    /// Fails every request in `batch` with `err`, waking parked waiters.
    fn fail_requests(&self, batch: &mut Vec<QueuedReq>, err: &ServerError) {
        self.stats.requests_failed.add(batch.len() as u64);
        for req in batch.drain(..) {
            let mut inner = req.slot.inner.lock();
            inner.state = SlotState::Failed(err.clone());
            self.release(&req.slot, inner);
        }
    }

    /// Runs one merged batch: merge keys, execute on the tenant store, demux
    /// spans back into each slot, record one sample per answered request,
    /// wake parked waiters. Called with no locks held, under a
    /// [`RunningBatch`]; takes slot locks and the tenant's sample log only.
    ///
    /// The batch reads the clock three times, however many requests it
    /// holds: when the store call starts and ends, and when the demux has
    /// copied every answer. Each request's latencies and stage shares are
    /// derived from those reads and written as one [`RequestSample`].
    fn execute_batch(
        &self,
        reason: FlushReason,
        batch: &mut Vec<QueuedReq>,
        merged: &mut Vec<u64>,
        results: &mut LookupBuffer,
        samples: &mut Vec<RequestSample>,
    ) {
        merged.clear();
        let (mut oldest, mut newest) = (batch[0].enqueued_at, batch[0].enqueued_at);
        for req in batch.iter() {
            merged.extend_from_slice(&req.slot.inner.lock().keys);
            oldest = oldest.min(req.enqueued_at);
            newest = newest.max(req.enqueued_at);
        }

        let tenant = self.tenant(batch[0].tenant);
        let store = match self.tenant_store(tenant) {
            Ok(store) => store,
            Err(err) => {
                self.breaker_record(tenant, false);
                self.fail_requests(batch, &err);
                return;
            }
        };
        let started = Instant::now();
        let outcome = store.lookup_batch_into(merged, results);
        let done = Instant::now();
        // Stores finish their batch trace on the calling thread — this one —
        // so the thread-local last-batch summary, when the store publishes
        // one, is exactly the merged batch just executed. The DeepMapping
        // pipeline and the baselines publish one; the reference store (and
        // `DM_OBS=off`) leave it `None`, and their requests simply get zero
        // inference/probe shares.
        let batch_trace = trace::take_last_batch();
        if let Err(err) = outcome {
            self.breaker_record(tenant, false);
            self.fail_requests(batch, &ServerError::Store(err.to_string()));
            return;
        }
        let exec_nanos = nanos_between(started, done);
        let inference_nanos = batch_trace.map_or(0, |s| s.stage(Stage::Inference));
        let probe_nanos = batch_trace.map_or(0, |s| s.stage(Stage::Probe));
        // The coalescing hold: how long the batch stayed open after its
        // newest member arrived. One value, shared by every request in the
        // batch — it is the price the batch collectively paid for width.
        let coalesce_nanos = nanos_between(newest, started);

        // Graceful degradation: a store with per-span failure marks (see
        // `LookupBuffer::set_failed`) answered the batch overall but could
        // not serve some keys. Only the requests whose own spans touch a
        // failed key fail — with a typed `PartialFailure` — and everyone
        // else demuxes byte-identical to the healthy path.
        let mut span_failures = if results.failed_count() > 0 {
            failed_spans(batch, results)
        } else {
            Vec::new()
        };
        let failed_span = |index: usize, failures: &[Option<ServerError>]| {
            failures.get(index).is_some_and(Option::is_some)
        };
        let failed = span_failures.iter().flatten().count() as u64;
        // Partition probes failed inside an otherwise-served batch: that is
        // a tenant-level serving failure for the breaker, even though most
        // requests got answers.
        self.breaker_record(tenant, failed == 0);

        // The copy pass: each answered request's rows into its slot. The
        // slots stay `Queued`, so no client sees an answer before its sample
        // is recorded below.
        let mut offset = 0usize;
        let mut completed_keys = 0usize;
        for (index, req) in batch.iter().enumerate() {
            if !failed_span(index, &span_failures) {
                let mut inner = req.slot.inner.lock();
                inner.response.copy_range_from(results, offset, req.keys);
                inner.queue_delay = started.saturating_duration_since(req.enqueued_at);
                inner.done_at = done;
                completed_keys += req.keys;
            }
            offset += req.keys;
        }
        let copy_nanos = nanos_between(done, Instant::now());

        // Record the batch before any waiter is woken: a caller that returns
        // from wait_into and immediately reads stats() must see its own
        // request counted, latencies included.
        let completed = batch.len() as u64 - failed;
        if failed > 0 {
            self.stats.requests_failed.add(failed);
            self.stats.partial_failures.add(failed);
            dm_obs::registry::global()
                .register_counter("dm_server_partial_failures_total")
                .add(failed);
        }
        self.stats.record_batch(
            reason,
            batch.len() as u64,
            completed,
            completed_keys as u64,
            exec_nanos,
        );
        self.flush_counters[reason as usize].incr();
        trace::record_stage(Stage::QueueDelay, nanos_between(oldest, started));
        trace::record_stage(Stage::CoalesceWait, coalesce_nanos);
        trace::record_stage(Stage::Exec, exec_nanos);
        trace::record_stage(Stage::Demux, copy_nanos);
        trace::record_stage(Stage::ResultCopy, copy_nanos / completed.max(1));
        // Batch-share attribution: each request's key-weighted slice of the
        // batch's stage time.
        let batch_keys = (merged.len() as u64).max(1);
        let windowed_at = dm_obs::enabled().then(|| dm_obs::window::nanos_at(done));
        samples.clear();
        for (index, req) in batch.iter().enumerate() {
            if failed_span(index, &span_failures) {
                continue;
            }
            let share = |total: u64| total * req.keys as u64 / batch_keys;
            samples.push(RequestSample {
                windowed_at,
                queue_delay_nanos: nanos_between(req.enqueued_at, started),
                coalesce_wait_nanos: coalesce_nanos,
                wall_nanos: nanos_between(req.enqueued_at, done),
                exec_share_nanos: share(exec_nanos),
                inference_share_nanos: share(inference_nanos),
                probe_share_nanos: share(probe_nanos),
                result_copy_nanos: share(copy_nanos),
            });
        }
        tenant.obs.record(samples);

        // The release pass, newest request first. A request leaves `batch`
        // only once it is released, so an unwind strands none of the rest
        // (see `RunningBatch`).
        let slow_threshold = self.slow_threshold_nanos();
        let mut sample = samples.len();
        while let Some(req) = batch.last() {
            let failure = span_failures
                .get_mut(batch.len() - 1)
                .and_then(Option::take);
            let mut inner = req.slot.inner.lock();
            inner.state = match failure {
                Some(err) => SlotState::Failed(err),
                None => {
                    sample -= 1;
                    if samples[sample].wall_nanos >= slow_threshold {
                        self.slow.push(CapturedTrace {
                            label: "server_request",
                            detail: format!(
                                "tenant={} keys={} batch_keys={} left={}",
                                tenant.name,
                                req.keys,
                                merged.len(),
                                reason.as_str()
                            ),
                            total_nanos: samples[sample].wall_nanos,
                            events: batched_timeline(
                                &samples[sample],
                                [started, newest, done]
                                    .map(|at| nanos_between(req.enqueued_at, at)),
                                [exec_nanos, inference_nanos, probe_nanos],
                            ),
                        });
                    }
                    SlotState::Done
                }
            };
            self.release(&req.slot, inner);
            batch.pop();
        }
    }
}

/// Nanoseconds from `earlier` to `later`, 0 if `later` is not later.
fn nanos_between(earlier: Instant, later: Instant) -> u64 {
    later.saturating_duration_since(earlier).as_nanos() as u64
}

/// The failed-span verdict of each request of `batch`, on a buffer that
/// carries failures: `Some` for a request one of whose keys failed.
fn failed_spans(batch: &[QueuedReq], results: &LookupBuffer) -> Vec<Option<ServerError>> {
    let mut offset = 0usize;
    batch
        .iter()
        .map(|req| {
            let span = offset..offset + req.keys;
            offset = span.end;
            let failed_keys = span.clone().filter(|&i| results.is_failed(i)).count();
            (failed_keys > 0).then(|| ServerError::PartialFailure {
                failed_keys,
                total_keys: req.keys,
                cause: span
                    .filter_map(|i| results.error(i))
                    .map(|e| e.to_string())
                    .next()
                    .unwrap_or_default(),
            })
        })
        .collect()
}

/// A slow batched request's timeline, relative to its enqueue: `at` holds
/// the offsets of its batch's execution start, newest member's arrival and
/// execution end, `batch` the batch's exec / inference / probe totals (the
/// detail line names the batch size).
fn batched_timeline(sample: &RequestSample, at: [u64; 3], batch: [u64; 3]) -> Vec<TraceEvent> {
    let [exec_offset, newest_offset, done_offset] = at;
    let [exec, inference, probe] = batch;
    [
        (Stage::QueueDelay, 0, sample.queue_delay_nanos),
        (
            Stage::CoalesceWait,
            newest_offset,
            sample.coalesce_wait_nanos,
        ),
        (Stage::Exec, exec_offset, exec),
        (Stage::Inference, exec_offset, inference),
        (Stage::Probe, exec_offset, probe),
        (Stage::ResultCopy, done_offset, sample.result_copy_nanos),
    ]
    .into_iter()
    .filter(|&(_, _, dur)| dur > 0)
    .map(|(stage, offset_nanos, dur_nanos)| TraceEvent {
        stage,
        offset_nanos,
        dur_nanos,
    })
    .collect()
}

/// Submits one prepared slot. Called by [`ServerClient::submit`]; the slot
/// must be `Idle` and owned by the calling client. On any error the slot is
/// returned to `Idle` so the client's pipeline slot is not consumed.
///
/// Admission reads the clock once and takes no lock but the queue's: the
/// tenant resolves from the append-only table, and a breaker that is not
/// open admits on one atomic load. Under the same lock it forms a batch into
/// `scratch` when one is due and a core is free, and returns why; the client
/// then runs it with [`Shared::run_batches`].
pub(crate) fn submit_slot(
    shared: &Shared,
    slot: &Arc<RequestSlot>,
    tenant: TenantId,
    keys: &[u64],
    scratch: &mut BatchScratch,
) -> Result<Option<FlushReason>> {
    let config = &shared.config;
    if keys.len() > config.max_request_keys {
        return Err(ServerError::RequestTooLarge {
            keys: keys.len(),
            max_request_keys: config.max_request_keys,
        });
    }
    let Some(entry) = shared.tenants.get(tenant.0) else {
        return Err(ServerError::UnknownTenant(format!("#{}", tenant.0)));
    };
    // Circuit breaker: a tenant that keeps failing is fast-failed here, at
    // admission, so a sick tenant cannot fill the queue with requests that
    // are doomed to fail after burning a coalescing slot.
    shared.breaker_admit(entry)?;

    let enqueued_at = Instant::now();
    {
        let mut inner = slot.inner.lock();
        debug_assert_eq!(inner.state, SlotState::Idle, "submit into a busy slot");
        inner.tenant = tenant.0;
        inner.keys.clear();
        inner.keys.extend_from_slice(keys);
        inner.enqueued_at = enqueued_at;
        inner.state = SlotState::Queued;
    }

    let mut q = shared.queue.lock();
    if q.shutdown {
        slot.inner.lock().state = SlotState::Idle;
        return Err(ServerError::ShuttingDown);
    }
    let after = q.queued_keys + keys.len();
    let over_capacity = after > config.queue_capacity_keys;
    let shedding = q.shedding && q.queued_keys > config.shed_low_watermark_keys;
    if over_capacity || shedding {
        let queued_keys = q.queued_keys;
        q.shedding = q.shedding || over_capacity;
        drop(q);
        shared.stats.requests_shed.incr();
        slot.inner.lock().state = SlotState::Idle;
        return Err(ServerError::Overloaded {
            queued_keys,
            capacity: config.queue_capacity_keys,
        });
    }
    // Counted before the request can be served: a batch that answers it
    // may run on another thread as soon as the queue lock drops.
    shared.stats.record_admission(keys.len() as u64);
    q.entries.push_back(QueuedReq {
        slot: Arc::clone(slot),
        tenant: tenant.0,
        keys: keys.len(),
        enqueued_at,
    });
    q.queued_keys = after;
    // Admitted while latched means drained to the low watermark: the latch
    // lifts, unless this request reaches the high one again.
    q.shedding = after >= config.shed_high_watermark_keys;
    Ok(shared.take_due(&mut q, enqueued_at, scratch))
}

/// A batched in-process query server over one or more [`TupleStore`] tenants.
///
/// Concurrent callers submit small `get` / `lookup_batch` requests through
/// per-thread [`ServerClient`]s; the server coalesces them into
/// inference-sized batches under a deadline, runs each merged batch through
/// the tenant store's own pipeline, and demuxes the flat result arena back to
/// each waiter without per-request allocation. See the [crate docs](crate)
/// for the full tour.
pub struct QueryServer {
    shared: Arc<Shared>,
}

impl QueryServer {
    /// Builds a server with `config` (normalized — see [`ServerConfig`]). It
    /// starts no thread: batches run on its clients'. At most
    /// `std::thread::available_parallelism()` batches run at once, read here.
    pub fn new(config: ServerConfig) -> Self {
        QueryServer {
            shared: Arc::new(Shared {
                config: config.normalized(),
                cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
                queue: Mutex::new(QueueState::default()),
                parked_clients: AtomicUsize::new(0),
                names: Mutex::new(HashMap::new()),
                tenants: TenantTable::new(),
                stats: StatsCells::default(),
                flush_counters: FlushReason::ALL
                    .map(|reason| dm_obs::registry::global().register_counter(reason.counter_name())),
                // Sized like the global slow-batch ring.
                slow: CaptureRing::new(trace::slow_ring_capacity(), 0),
            }),
        }
    }

    /// A server with [`ServerConfig::default`].
    pub fn with_defaults() -> Self {
        QueryServer::new(ServerConfig::default())
    }

    /// The (normalized) configuration this server runs with.
    pub fn config(&self) -> &ServerConfig {
        &self.shared.config
    }

    /// Registers an already-open store under `name`.
    pub fn register_store(&self, name: &str, store: Arc<dyn TupleStore>) -> Result<TenantId> {
        self.register(name, Some(store), None)
    }

    /// Registers a snapshot-backed tenant under `name`. The file is not
    /// touched here: the snapshot is opened lazily (and exactly once) on the
    /// tenant's first request.
    pub fn register_snapshot(&self, name: &str, path: impl Into<PathBuf>) -> Result<TenantId> {
        self.register(name, None, Some(path.into()))
    }

    fn register(
        &self,
        name: &str,
        store: Option<Arc<dyn TupleStore>>,
        path: Option<PathBuf>,
    ) -> Result<TenantId> {
        let mut names = self.shared.names.lock();
        if names.contains_key(name) {
            return Err(ServerError::DuplicateTenant(name.to_string()));
        }
        let index = self.shared.tenants.push(Tenant {
            name: name.to_string(),
            path,
            store: store.map_or_else(OnceLock::new, OnceLock::from),
            opening: Mutex::new(()),
            obs: TenantObs::default(),
            breaker: Breaker::default(),
        });
        names.insert(name.to_string(), index);
        Ok(TenantId(index))
    }

    /// Resolves a tenant id by registration name.
    pub fn tenant(&self, name: &str) -> Result<TenantId> {
        self.shared
            .names
            .lock()
            .get(name)
            .copied()
            .map(TenantId)
            .ok_or_else(|| ServerError::UnknownTenant(name.to_string()))
    }

    /// Registered tenants as `(name, opened)` pairs, in registration order.
    /// `opened` is false for snapshot tenants that have not yet served a
    /// request.
    pub fn tenants(&self) -> Vec<(String, bool)> {
        self.shared
            .tenants
            .iter()
            .map(|t| (t.name.clone(), t.store.get().is_some()))
            .collect()
    }

    /// A new client with the default pipeline depth
    /// ([`DEFAULT_PIPELINE_DEPTH`]).
    pub fn client(&self) -> ServerClient {
        self.client_with_depth(DEFAULT_PIPELINE_DEPTH)
    }

    /// A new client able to keep `depth` requests in flight.
    pub fn client_with_depth(&self, depth: usize) -> ServerClient {
        ServerClient::new(Arc::clone(&self.shared), depth)
    }

    /// A point-in-time snapshot of the server's counters. Its latency
    /// fields read the merge of every tenant's [`tenant_tail`](Self::tenant_tail)
    /// histograms, folded from the tenants' request samples here.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            parked_clients: self.shared.parked_clients.load(Ordering::SeqCst) as u64,
            queued_keys: self.shared.queue.lock().queued_keys as u64,
            ..self
                .shared
                .stats
                .snapshot(self.shared.tenants.iter().map(|tenant| &tenant.obs))
        }
    }

    /// Per-tenant tail-attribution histograms for the tenant registered as
    /// `name`: queue delay, coalescing hold, request wall time, the tenant's
    /// key-weighted share of batch execution / inference / probe / demux-copy
    /// time, folded from the requests' samples here.
    pub fn tenant_tail(&self, name: &str) -> Result<TenantTail> {
        Ok(self.shared.tenant(self.tenant(name)?.0).obs.tail())
    }

    /// Captured timelines of requests whose wall time reached the
    /// slow-request threshold ([`ServerConfig::slow_request`], falling back
    /// to the process-wide `DM_OBS_SLOW_MS`), oldest first. The ring is
    /// bounded ([`dm_obs::trace::slow_ring_capacity`]): once full, each new
    /// capture evicts the oldest.
    pub fn slow_requests(&self) -> Vec<CapturedTrace> {
        self.shared.slow.snapshot()
    }

    /// The SLO input for one tenant: its windowed request-wall p99 against
    /// [`ServerConfig::tenant_p99_target`], when a target is configured.
    fn tenant_slo(&self, tenant: &Tenant) -> Option<dm_obs::SloSignals> {
        let target = self.shared.config.tenant_p99_target?;
        let recent = tenant.obs.tail().recent_request_wall;
        Some(dm_obs::SloSignals {
            target_p99_nanos: target.as_nanos().min(u64::MAX as u128) as u64,
            windowed_p99_nanos: recent.p99(),
            windowed_requests: recent.count(),
        })
    }

    /// The maintenance advisor's view of the tenant registered as `name`:
    /// the store's own drift + pool-pressure signals
    /// ([`dm_storage::TupleStore::health_signals`]; defaulted for baseline
    /// stores that expose none) folded with this server's windowed per-tenant
    /// SLO burn (see [`ServerConfig::tenant_p99_target`]). Opens a
    /// snapshot-backed tenant lazily, exactly like a first request would.
    pub fn tenant_health(&self, name: &str) -> Result<dm_obs::HealthReport> {
        let tenant = self.shared.tenant(self.tenant(name)?.0);
        let store = self.shared.tenant_store(tenant)?;
        let signals = store.health_signals().unwrap_or_default();
        Ok(signals.advise_with_faults(self.tenant_slo(tenant), store.fault_signals()))
    }

    /// Health reports for every tenant that is already open, as
    /// `(name, report)` pairs in registration order. Snapshot tenants that
    /// have never served a request are skipped (probing health should not
    /// fault every registered snapshot into memory); use
    /// [`tenant_health`](Self::tenant_health) to force one open.
    pub fn health(&self) -> Vec<(String, dm_obs::HealthReport)> {
        self.shared
            .tenants
            .iter()
            .filter_map(|tenant| {
                let store = tenant.store.get()?;
                let signals = store.health_signals().unwrap_or_default();
                let report =
                    signals.advise_with_faults(self.tenant_slo(tenant), store.fault_signals());
                Some((tenant.name.clone(), report))
            })
            .collect()
    }

    /// Publishes every open tenant's [`health`](Self::health) report into the
    /// global `dm-obs` registry as `dm_health_{tenant}_*` gauges, so the next
    /// [`dm_obs::render_prometheus`] / [`dm_obs::render_json`] scrape carries
    /// the advisor's view alongside the raw metrics. Returns the number of
    /// tenants published. Call it from the scrape path (or a periodic tick) —
    /// gauges are set, not accumulated, so repeats are idempotent.
    pub fn publish_health(&self) -> usize {
        let reports = self.health();
        for (name, report) in &reports {
            report.publish_to(
                &format!("dm_health_{name}"),
                dm_obs::registry::global(),
            );
        }
        reports.len()
    }

    /// Stops the server: new submissions fail with
    /// [`ServerError::ShuttingDown`], and every queued request is failed with
    /// the same typed error, its waiter released (never left hanging).
    /// Batches that clients are running finish on their own threads. Returns
    /// without waiting for anything. Idempotent.
    pub fn shutdown(&self) {
        let mut drained: Vec<QueuedReq> = {
            let mut q = self.shared.queue.lock();
            q.shutdown = true;
            q.queued_keys = 0;
            q.entries.drain(..).collect()
        };
        self.shared
            .fail_requests(&mut drained, &ServerError::ShuttingDown);
    }
}

#[cfg(test)]
impl QueryServer {
    /// Every sample the tenant registered as `name` has recorded, in order.
    pub(crate) fn recorded_samples(&self, name: &str) -> Vec<RequestSample> {
        let tenant = self.tenant(name).expect("a registered tenant");
        self.shared.tenant(tenant.0).obs.tap.lock().clone()
    }
}

impl Drop for QueryServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}
