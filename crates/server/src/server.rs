//! The query server: tenant registry, admission control, and the coalescing
//! batch path shared by waiting clients and the dispatcher.
//!
//! # Architecture
//!
//! ```text
//! caller threads                                                  TupleStore
//! ─────────────                                                   ──────────
//! submit ──┐  bounded queue     wait_into: a core free? take_batch  one merged
//! submit ──┼─▶ of QueuedReq ──┬─▶ and run it here (caller) ───────▶ lookup_batch_into
//! submit ──┘  (admission ctl) │   no core: park on the slot        per batch,
//!                             │                                    ≤ cores at once
//!                             └─▶ dispatcher thread: take_batch ──▶
//!                                 (full, nobody can join, window,
//!                                  for parked)
//!    ▲                                 demux via copy_range_from ◀─ flat LookupBuffer
//!    └── wait_into ◀── slot condvar ──┘ (notified only if a waiter is parked)
//! ```
//!
//! A client blocked in `wait_into` on a queued request runs a batch itself:
//! it takes what is queued (the same `Shared::take_batch` the
//! dispatcher uses — the oldest request's tenant, up to `max_batch_keys`) and
//! executes it on its own thread, as long as fewer batches are running than
//! the machine has cores (`available_parallelism`, read once when the server
//! is built). A waiter that finds every core busy parks, and its requests join
//! the next batch — so batches still coalesce once clients outnumber cores,
//! and the store never runs more batches at once than there are cores. The
//! count of running batches lives under the queue lock. The next batch is the
//! first freed core's: a caller whose batch gave a core back, once it has its
//! own answer, runs one more batch before it returns if requests are queued
//! while some client is parked — so a parked waiter never sits out a window
//! waiting for a core that is already free. (A parker counts itself in before
//! it looks for a free core under the queue lock, and a finisher gives its
//! core back under that lock before it reads the count, so one of the two
//! always sees the other.)
//!
//! The dispatcher serves the requests whose submitter has not waited yet.
//! A batch leaves through it by the first of three exits that holds:
//! `max_batch_keys` are pending for its tenant (*full*), every live
//! [`ServerClient`] is parked in `wait_into` (*nobody can join* — a client is
//! `&mut self`, so a parked one cannot submit, and holding the batch open any
//! longer would buy no width), or its oldest request has waited `max_delay`
//! while someone still could (*window*). It too waits for a free core, and a
//! batch that finishes while it does wakes it. Like a finishing caller, the
//! dispatcher takes the next batch at once after its own when requests are
//! queued while a client is parked (*for parked*): the core it freed is the
//! one that client was waiting for. The server keeps the
//! census itself: clients count themselves live from construction to drop and
//! parked from the moment they sleep (a client running a batch is not
//! parked), and whoever moves a parked client's slot to a final state counts
//! it out *at release*, not when its thread wakes up — a client that has just
//! been answered is about to resubmit, and keeps the next window open for
//! itself.
//!
//! Almost every batch runs on a caller, so the dispatcher is woken only when
//! one of its exits may have moved earlier than the deadline it sleeps on: a
//! size trigger, the last client able to join parking or dropping, a freed
//! core it waits for, shutdown — and a submission only when the dispatcher is
//! *idle*. An empty queue that saw requests since the dispatcher last looked
//! keeps one `max_delay` window armed on the timer before it goes idle, and a
//! request enqueued inside that window closes its own window later than the
//! armed wake-up, so no exit moves. Under steady traffic the dispatcher wakes
//! about once per `max_delay`, not once per batch, and submitters make no
//! syscall ([`ServerStats::dispatcher_wakeups`] counts the wake-ups).
//!
//! The dispatcher is one plain OS thread, and callers run on their own
//! threads; a merged batch runs on whichever of them takes it, start to
//! finish, since a store never hands a batch to another thread. Batch
//! formation holds the queue lock only; batch execution and demux hold slot
//! locks, and the tenant's sample log once per batch, one at a time — the
//! lock domains never nest in conflicting order. A store that panics fails
//! the requests of its batch with [`ServerError::Store`] and gives its core
//! back (see `RunningBatch`); the dispatcher survives it, and a caller gets
//! the panic on its own thread, as it would calling the store directly.

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, MutexGuard, OnceLock};
use std::thread::JoinHandle;
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
    /// Flush a forming batch once this many keys are pending for its tenant.
    pub max_batch_keys: usize,
    /// Flush a forming batch once its oldest request has waited this long.
    /// This is the coalescing window for requests whose submitter has not
    /// waited yet: the most latency the fastest request donates to let
    /// stragglers join the batch, *while someone still can*. A submitter that
    /// blocks in `wait_into` does not sit it out — it runs the queued requests
    /// on its own thread when a core is free, and otherwise parks. Once every
    /// live [`ServerClient`] of the server is parked nobody is left to join
    /// and the batch leaves at once; a client that is alive and not parked —
    /// idle, computing, running a batch, or polling
    /// [`is_done`](ServerClient::is_done) — holds the window open to here.
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
    /// When true no dispatcher thread is spawned and every request executes
    /// synchronously on its own caller thread at submission — no coalescing,
    /// no queueing, no cap on concurrent store calls. The degenerate baseline
    /// mode, also useful in single-threaded tests. (Without it a waiting
    /// caller still runs batches on its own thread, but batches of whatever
    /// is queued, at most one per core.)
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

    /// The inline (uncoalesced) config: every request runs synchronously on
    /// its caller thread.
    pub fn inline() -> Self {
        ServerConfig {
            inline: true,
            ..ServerConfig::default()
        }
    }

    /// Clamps fields into a consistent shape: nonzero batch/request limits,
    /// capacity at least one batch, watermarks ordered `low <= high <=
    /// capacity`.
    fn normalized(mut self) -> Self {
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
    /// Batches executing right now, on the dispatcher or on callers; never
    /// more than [`Shared::cores`].
    running: usize,
    /// The dispatcher has a batch whose exit holds and is waiting for a
    /// running batch to finish and free a core.
    dispatcher_needs_core: bool,
    /// The dispatcher waits on an empty queue with no deadline: the next
    /// submission must wake it. Cleared by the submitter that does.
    dispatcher_idle: bool,
    /// A request was enqueued since the dispatcher last found the queue
    /// empty; it then keeps one window armed instead of going idle.
    traffic: bool,
}

/// The buffers one thread forms and runs batches with: the dispatcher owns
/// one, and so does each [`ServerClient`], so batch formation and execution
/// allocate nothing in the steady state.
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
/// census balanced.
struct RunningBatch<'a> {
    shared: &'a Shared,
    batch: &'a mut Vec<QueuedReq>,
}

impl Drop for RunningBatch<'_> {
    fn drop(&mut self) {
        if !self.batch.is_empty() {
            // Only an unwind leaves requests here: `execute_batch` releases
            // each one it handles and removes it only then.
            let err = ServerError::Store("store panicked while serving the batch".into());
            let tenant = self.shared.tenant(self.batch[0].tenant);
            self.shared.breaker_record(tenant, false);
            self.shared.fail_requests(self.batch, &err);
        }
        let mut q = self.shared.queue.lock();
        q.running -= 1;
        let handoff = q.dispatcher_needs_core;
        drop(q);
        if handoff {
            self.shared.work_cv.notify_one();
        }
    }
}

/// State shared between the server handle, its clients, and the dispatcher.
pub(crate) struct Shared {
    config: ServerConfig,
    /// How many batches may run at once: the machine's
    /// `available_parallelism`, read once when the server is built.
    cores: usize,
    queue: Mutex<QueueState>,
    /// What the dispatcher sleeps on. Signalled when a request enters the
    /// queue of an idle dispatcher (one waiting on an empty queue with no
    /// deadline), a batch-size trigger fires, the last client that could
    /// still have joined parks or is dropped (see
    /// [`wake_dispatcher`](Shared::wake_dispatcher)), a batch finishes while
    /// the dispatcher waits for a core, or the server shuts down. Otherwise
    /// the dispatcher sleeps on a deadline: the oldest request's window, or —
    /// on an empty queue that saw requests since it last looked — one armed
    /// `max_delay` window before it goes idle. A request enqueued inside that
    /// armed window closes its own window after the armed wake-up, so not
    /// waking for it moves no exit; a zero `max_delay` arms nothing and every
    /// submission finds the dispatcher idle.
    work_cv: Condvar,
    /// [`ServerClient`] handles alive, and how many of them are asleep in
    /// `wait_into`. `SeqCst` on both: a client that parks while another is
    /// dropped must not each read the other's stale count and both skip the
    /// wake-up.
    live_clients: AtomicUsize,
    parked_clients: AtomicUsize,
    /// Tenant names to indexes; also the registration lock.
    names: Mutex<HashMap<String, usize>>,
    tenants: TenantTable,
    stats: StatsCells,
    /// The `dm-obs` registry's flush-reason counters, in [`FlushReason::ALL`]
    /// order — resolved once, they are bumped on every batch.
    flush_counters: [Arc<Counter>; 5],
    /// `dm_server_dispatcher_wakeups_total` in the `dm-obs` registry.
    wakeup_counter: Arc<Counter>,
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

    /// True when no live client is free to submit: each one is parked in
    /// `wait_into` (or none is left alive), so a forming batch has nobody to
    /// wait for.
    fn nobody_can_join(&self) -> bool {
        self.parked_clients.load(Ordering::SeqCst) >= self.live_clients.load(Ordering::SeqCst)
    }

    /// Makes the dispatcher look at its exits again. The caller has already
    /// published the count it changed; passing through the queue lock before
    /// the notify closes the lost wake-up: the dispatcher reads the counts
    /// and starts waiting under that lock, so it either saw the change or is
    /// already waiting when the notify lands.
    pub(crate) fn wake_dispatcher(&self) {
        drop(self.queue.lock());
        self.work_cv.notify_one();
    }

    pub(crate) fn client_created(&self) {
        self.live_clients.fetch_add(1, Ordering::SeqCst);
    }

    /// A client handle is gone. If the rest are all parked it was the last
    /// one a forming batch could be waiting for.
    pub(crate) fn client_dropped(&self) {
        self.live_clients.fetch_sub(1, Ordering::SeqCst);
        if self.nobody_can_join() {
            self.wake_dispatcher();
        }
    }

    /// Counts a client in as parked; the caller has just set its slot's
    /// `waiting` flag and still holds the slot lock. Returns true when that
    /// left nobody able to join — the caller then owes the dispatcher a
    /// [`wake_dispatcher`](Self::wake_dispatcher), off the slot lock.
    pub(crate) fn client_parked(&self) -> bool {
        self.parked_clients.fetch_add(1, Ordering::SeqCst);
        self.nobody_can_join()
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
    pub(crate) fn any_parked(&self) -> bool {
        self.parked_clients.load(Ordering::SeqCst) > 0
    }

    /// Counts one return of the dispatcher from a `work_cv` wait.
    fn count_wakeup(&self) {
        self.stats.dispatcher_wakeups.incr();
        self.wakeup_counter.incr();
    }

    /// True when requests are queued and a core is free to run them.
    pub(crate) fn core_free_for_queued(&self) -> bool {
        let q = self.queue.lock();
        !q.entries.is_empty() && q.running < self.cores
    }

    /// Hands a slot that has just reached its final state back to its client.
    /// A parked waiter is counted out here, at release, rather than when its
    /// thread gets to run: from this point the client can submit again, so
    /// the next batch must not leave without it.
    fn release(&self, slot: &RequestSlot, mut inner: MutexGuard<'_, SlotInner>) {
        let parked = std::mem::take(&mut inner.waiting);
        drop(inner);
        if parked {
            self.parked_clients.fetch_sub(1, Ordering::SeqCst);
            slot.cv.notify_all();
        }
    }

    /// Which dispatcher exit the queue's oldest request has reached, or the
    /// instant its window closes if none holds yet. The queue must not be
    /// empty. The census is read under the queue lock the dispatcher then
    /// waits on, which is what [`wake_dispatcher`](Self::wake_dispatcher)
    /// relies on.
    fn exit(&self, q: &QueueState, now: Instant) -> std::result::Result<FlushReason, Instant> {
        // The oldest request anchors the batch: its tenant, its deadline.
        // Requests for other tenants wait their turn — FIFO across tenants
        // keeps the policy simple and starvation-free.
        let front = &q.entries[0];
        let deadline = front.enqueued_at + self.config.max_delay;
        let mut pending = 0usize;
        for entry in q.entries.iter().filter(|entry| entry.tenant == front.tenant) {
            pending += entry.keys;
            if pending >= self.config.max_batch_keys {
                return Ok(FlushReason::Full);
            }
        }
        if self.nobody_can_join() {
            Ok(FlushReason::NobodyCouldJoin)
        } else if now >= deadline {
            Ok(FlushReason::Window)
        } else {
            Err(deadline)
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
        q.queued_keys -= taken + expired;
        if q.shedding && q.queued_keys <= self.config.shed_low_watermark_keys {
            q.shedding = false;
        }
        if !scratch.batch.is_empty() {
            q.running += 1;
        }
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

    /// A client in `wait_into` runs the queued requests on its own thread, if
    /// there are any and fewer batches are running than there are cores —
    /// while it waits, and once more after its own batch if a client is
    /// parked. Returns false, having done nothing, otherwise.
    pub(crate) fn run_as_caller(&self, scratch: &mut BatchScratch) -> bool {
        {
            let mut q = self.queue.lock();
            if q.entries.is_empty() || q.running >= self.cores {
                return false;
            }
            self.take_batch(&mut q, Instant::now(), scratch);
        }
        self.run_batch(FlushReason::Caller, scratch);
        true
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
                inline: false,
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

    /// Serves one request synchronously on the caller thread (inline mode).
    /// `enqueued_at` is the submission's clock read, which starts the store
    /// call's span too: an inline request's wall time is its store time.
    fn execute_inline(
        &self,
        tenant: &Tenant,
        slot: &RequestSlot,
        enqueued_at: Instant,
    ) -> Result<()> {
        let store = match self.tenant_store(tenant) {
            Ok(store) => store,
            Err(err) => {
                self.breaker_record(tenant, false);
                self.stats.requests_failed.incr();
                slot.inner.lock().state = SlotState::Idle;
                return Err(err);
            }
        };
        let mut guard = slot.inner.lock();
        let inner = &mut *guard;
        let outcome = store.lookup_batch_into(&inner.keys, &mut inner.response);
        let done = Instant::now();
        let failure = match outcome {
            Ok(()) if inner.response.failed_count() > 0 => {
                // Per-span degradation: this single request *is* the batch,
                // so any failed span fails it with the typed partial error.
                self.stats.partial_failures.incr();
                dm_obs::registry::global()
                    .register_counter("dm_server_partial_failures_total")
                    .incr();
                ServerError::PartialFailure {
                    failed_keys: inner.response.failed_count(),
                    total_keys: inner.keys.len(),
                    cause: inner
                        .response
                        .first_error()
                        .map(|e| e.to_string())
                        .unwrap_or_default(),
                }
            }
            Ok(()) => {
                self.breaker_record(tenant, true);
                let wall_nanos = nanos_between(enqueued_at, done);
                inner.done_at = done;
                inner.queue_delay = Duration::ZERO;
                inner.state = SlotState::Done;
                let keys = inner.keys.len();
                self.stats.record_inline(keys as u64, wall_nanos);
                let batch_trace = trace::take_last_batch();
                tenant.obs.record(&[RequestSample {
                    windowed_at: dm_obs::enabled().then(|| dm_obs::window::nanos_at(done)),
                    inline: true,
                    wall_nanos,
                    exec_share_nanos: wall_nanos,
                    inference_share_nanos: batch_trace.map_or(0, |s| s.stage(Stage::Inference)),
                    probe_share_nanos: batch_trace.map_or(0, |s| s.stage(Stage::Probe)),
                    ..RequestSample::default()
                }]);
                trace::record_stage(Stage::Exec, wall_nanos);
                if wall_nanos >= self.slow_threshold_nanos() {
                    self.slow.push(CapturedTrace {
                        label: "server_request_inline",
                        detail: format!("tenant={} keys={keys}", tenant.name),
                        total_nanos: wall_nanos,
                        events: vec![TraceEvent {
                            stage: Stage::Exec,
                            start_nanos: 0,
                            dur_nanos: wall_nanos,
                        }],
                    });
                }
                return Ok(());
            }
            Err(err) => ServerError::Store(err.to_string()),
        };
        inner.state = SlotState::Idle;
        drop(guard);
        self.breaker_record(tenant, false);
        self.stats.requests_failed.incr();
        Err(failure)
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
    .map(|(stage, start_nanos, dur_nanos)| TraceEvent {
        stage,
        start_nanos,
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
/// open admits on one atomic load.
pub(crate) fn submit_slot(
    shared: &Shared,
    slot: &Arc<RequestSlot>,
    tenant: TenantId,
    keys: &[u64],
) -> Result<()> {
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

    if config.inline {
        shared.stats.record_admission(keys.len() as u64);
        return shared.execute_inline(entry, slot, enqueued_at);
    }

    let wake = {
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
        if q.shedding {
            // Drained to the low watermark: stop shedding and admit.
            q.shedding = false;
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
        q.traffic = true;
        if after >= config.shed_high_watermark_keys {
            q.shedding = true;
        }
        // Wake the dispatcher only when no deadline it sleeps on comes before
        // this request's window closes: it is idle, or pending keys just
        // crossed the batch-size trigger. A dispatcher with a window armed
        // wakes first by itself (see `work_cv`), which keeps submissions
        // syscall-free under steady traffic.
        std::mem::take(&mut q.dispatcher_idle)
            || (after >= config.max_batch_keys && after - keys.len() < config.max_batch_keys)
    };
    if wake {
        shared.work_cv.notify_one();
    }
    Ok(())
}

/// The dispatcher: forms batches under the exit policy (full, nobody can
/// join, window — see the module docs — and, right after its own batch, a
/// parked client) and executes them, one at a time and only while a core is
/// free. Runs until shutdown is observed.
fn dispatcher_loop(shared: Arc<Shared>) {
    let mut scratch = BatchScratch::default();
    let max_delay = shared.config.max_delay;
    // Set when the dispatcher's own batch has just given its core back.
    let mut freed_core = false;
    loop {
        let reason = {
            let mut q = shared.queue.lock();
            loop {
                if q.shutdown {
                    scratch.batch.extend(q.entries.drain(..));
                    q.queued_keys = 0;
                    drop(q);
                    shared.fail_requests(&mut scratch.batch, &ServerError::ShuttingDown);
                    return;
                }
                if q.entries.is_empty() {
                    q = if std::mem::take(&mut q.traffic) && !max_delay.is_zero() {
                        // Requests came (and callers took them) since the
                        // last look: more are likely, so wake by the timer
                        // rather than have each submission wake us.
                        shared
                            .work_cv
                            .wait_timeout(q, max_delay)
                            .unwrap_or_else(|e| e.into_inner())
                            .0
                    } else {
                        q.dispatcher_idle = true;
                        let mut q = shared.work_cv.wait(q).unwrap_or_else(|e| e.into_inner());
                        q.dispatcher_idle = false;
                        q
                    };
                    shared.count_wakeup();
                    freed_core = false;
                    continue;
                }
                let now = Instant::now();
                let exit = match shared.exit(&q, now) {
                    // The core just freed is the one a parked waiter waits
                    // for; its requests may be the ones queued.
                    Err(_) if freed_core && q.running < shared.cores && shared.any_parked() => {
                        Ok(FlushReason::ForParked)
                    }
                    exit => exit,
                };
                freed_core = false;
                match exit {
                    Ok(reason) if q.running < shared.cores => {
                        shared.take_batch(&mut q, now, &mut scratch);
                        break reason;
                    }
                    Ok(_) => {
                        // Every core runs a batch; the first to finish wakes
                        // us (see `RunningBatch`).
                        q.dispatcher_needs_core = true;
                        q = shared.work_cv.wait(q).unwrap_or_else(|e| e.into_inner());
                        q.dispatcher_needs_core = false;
                    }
                    Err(deadline) => {
                        let (guard, _) = shared
                            .work_cv
                            .wait_timeout(q, deadline - now)
                            .unwrap_or_else(|e| e.into_inner());
                        q = guard;
                    }
                }
                shared.count_wakeup();
            }
        };
        // A panicking store has already failed its batch's requests and given
        // its core back; the dispatcher lives on to serve everyone else.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            shared.run_batch(reason, &mut scratch)
        }));
        freed_core = true;
    }
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
    dispatcher: Mutex<Option<JoinHandle<()>>>,
}

impl QueryServer {
    /// Builds a server with `config` (normalized — see [`ServerConfig`]) and
    /// starts its dispatcher thread unless `config.inline`. At most
    /// `std::thread::available_parallelism()` batches run at once, read here.
    pub fn new(config: ServerConfig) -> Self {
        let config = config.normalized();
        let inline = config.inline;
        let shared = Arc::new(Shared {
            config,
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            queue: Mutex::new(QueueState::default()),
            work_cv: Condvar::new(),
            live_clients: AtomicUsize::new(0),
            parked_clients: AtomicUsize::new(0),
            names: Mutex::new(HashMap::new()),
            tenants: TenantTable::new(),
            stats: StatsCells::default(),
            flush_counters: FlushReason::ALL
                .map(|reason| dm_obs::registry::global().register_counter(reason.counter_name())),
            wakeup_counter: dm_obs::registry::global()
                .register_counter("dm_server_dispatcher_wakeups_total"),
            // Sized like the global slow-batch ring.
            slow: CaptureRing::new(trace::slow_ring_capacity(), 0),
        });
        let dispatcher = if inline {
            None
        } else {
            let for_thread = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name("dm-server-dispatch".into())
                    .spawn(move || dispatcher_loop(for_thread))
                    .expect("spawn dm-server dispatcher"),
            )
        };
        QueryServer {
            shared,
            dispatcher: Mutex::new(dispatcher),
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
            live_clients: self.shared.live_clients.load(Ordering::SeqCst) as u64,
            parked_clients: self.shared.parked_clients.load(Ordering::SeqCst) as u64,
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
    /// [`ServerError::ShuttingDown`], every queued waiter is failed with the
    /// same typed error (never left hanging), the dispatcher's batch in flight
    /// (if any) completes, and the dispatcher thread is joined. Batches that
    /// callers are running finish on their own threads. Idempotent.
    pub fn shutdown(&self) {
        let mut drained: Vec<QueuedReq> = {
            let mut q = self.shared.queue.lock();
            q.shutdown = true;
            q.queued_keys = 0;
            q.entries.drain(..).collect()
        };
        self.shared.work_cv.notify_all();
        self.shared
            .fail_requests(&mut drained, &ServerError::ShuttingDown);
        if let Some(handle) = self.dispatcher.lock().take() {
            let _ = handle.join();
        }
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
