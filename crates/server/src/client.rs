//! Client-side request slots and the submit/wait pipeline API.
//!
//! A [`ServerClient`] owns a small pool of pre-allocated request slots — a
//! key vector and a [`LookupBuffer`] each — so the steady-state path does no
//! per-request allocation: submitting copies keys into a reused vector,
//! demuxing copies spans into a reused buffer, and
//! [`wait_into`](ServerClient::wait_into) *swaps* the response buffer with
//! the caller's, ping-ponging the two allocations for the lifetime of the
//! client.
//!
//! The pipelined shape (`submit` returning a [`Ticket`], `wait_into`
//! harvesting it later) lets one caller keep several requests in flight, so
//! they leave as one batch instead of one batch per request.
//!
//! Clients run every batch; the server has no thread of its own. A client
//! that waits on a queued request runs a batch itself: `wait_into` takes what
//! is queued — its own requests and anyone else's — and executes it on the
//! calling thread, as long as fewer batches are running than the machine has
//! cores. Only when every core is busy (or its request is already in a batch
//! on another thread) does it park, and then its requests join the next
//! batch — which the client that frees a core runs before it returns.
//! `submit` and `is_done` run a batch too, when one is due: full, or its
//! oldest request past the coalescing window. Each client keeps its own batch
//! buffers for this, so running a batch allocates nothing in the steady
//! state.
//!
//! The server counts a client *parked* while it sleeps in `wait_into`. A
//! client that is dropped cancels its requests that are still queued.

use std::sync::{Arc, Condvar};
use std::time::{Duration, Instant};

use dm_storage::LookupBuffer;
use parking_lot::Mutex;

use crate::error::{Result, ServerError};
use crate::server::{self, BatchScratch, Shared, TenantId};

/// Lifecycle of a request slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum SlotState {
    /// Free for the owning client to submit into.
    Idle,
    /// Enqueued on the server, or in a batch running on some thread; whoever
    /// runs the batch owns `keys` and `response`.
    Queued,
    /// Response is ready in `response`.
    Done,
    /// The request failed after admission; the error is for the waiter.
    Failed(ServerError),
}

/// Mutable half of a request slot, behind the slot mutex.
pub(crate) struct SlotInner {
    pub state: SlotState,
    /// Registry index of the tenant this request targets.
    pub tenant: usize,
    /// Keys for the in-flight request; reused across submissions.
    pub keys: Vec<u64>,
    /// Demuxed response for the in-flight request; reused across submissions.
    pub response: LookupBuffer,
    /// When the request passed admission control.
    pub enqueued_at: Instant,
    /// When the response became ready (one timestamp per batch, shared by
    /// every request in it).
    pub done_at: Instant,
    /// Enqueue to the start of its batch's store call, recorded by whoever
    /// ran the batch.
    pub queue_delay: Duration,
    /// True while a waiter is asleep on `cv` and counted in the server's
    /// parked census. Set by the waiter, cleared by whoever moves the slot to
    /// a final state (`Shared::release`, which counts the waiter out and only
    /// then issues the wakeup), so pipelined clients that harvest
    /// already-`Done` tickets cost zero syscalls on the completion path.
    pub waiting: bool,
}

/// One in-flight request: shared between the submitting client and the
/// thread that runs its batch. Completion is signalled through `cv` (only when `waiting`).
pub(crate) struct RequestSlot {
    pub inner: Mutex<SlotInner>,
    pub cv: Condvar,
}

impl RequestSlot {
    pub fn new() -> Self {
        let now = Instant::now();
        RequestSlot {
            inner: Mutex::new(SlotInner {
                state: SlotState::Idle,
                tenant: 0,
                keys: Vec::new(),
                response: LookupBuffer::new(),
                enqueued_at: now,
                done_at: now,
                queue_delay: Duration::ZERO,
                waiting: false,
            }),
            cv: Condvar::new(),
        }
    }
}

/// Handle to one in-flight request; redeem it with
/// [`ServerClient::wait_into`]. Tickets are not clonable and the borrow
/// checker cannot see through them, so the slot protocol is enforced at
/// runtime: a slot stays busy until its ticket is waited on.
#[must_use = "an unharvested ticket leaks its pipeline slot until wait_into is called"]
#[derive(Debug)]
pub struct Ticket {
    pub(crate) slot: usize,
}

/// Per-request timing returned by [`ServerClient::wait_into`], measured by
/// the server (enqueue → batch formation → response ready).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestReport {
    /// Time the request sat in the pending queue before its batch formed.
    pub queue_delay: Duration,
    /// Enqueue-to-response-ready wall time.
    pub wall: Duration,
    /// Server-side timestamp at which the response became ready. Open-loop
    /// generators subtract their *scheduled* arrival from this to measure
    /// coordinated-omission-corrected latency.
    pub completed_at: Instant,
}

/// A caller-thread handle onto a [`QueryServer`](crate::QueryServer), and
/// the thread its batches run on.
///
/// Clients are cheap (a handful of slots and one set of batch buffers) but
/// not `Sync`: create one per thread via
/// [`QueryServer::client`](crate::QueryServer::client). Its calls run
/// batches on the calling thread — [`wait_into`](Self::wait_into) whatever
/// is queued, [`submit`](Self::submit) and [`is_done`](Self::is_done) a
/// batch that is due — so a request is served once some client waits for it
/// or finds it due; nothing serves it on a timer. Dropping a client cancels
/// its requests still queued. The
/// blocking conveniences ([`lookup_batch_into`](Self::lookup_batch_into),
/// [`get`](Self::get)) submit and immediately wait; the pipelined pair
/// ([`submit`](Self::submit) / [`wait_into`](Self::wait_into)) keeps up to
/// `pipeline_depth` requests in flight.
pub struct ServerClient {
    shared: Arc<Shared>,
    slots: Vec<Arc<RequestSlot>>,
    busy: Vec<bool>,
    /// Spare buffer ping-ponged against slot responses by the owned-result
    /// conveniences.
    spare: LookupBuffer,
    /// Buffers for the batches this client runs on its thread.
    scratch: BatchScratch,
}

impl ServerClient {
    pub(crate) fn new(shared: Arc<Shared>, depth: usize) -> Self {
        let depth = depth.max(1);
        ServerClient {
            shared,
            slots: (0..depth).map(|_| Arc::new(RequestSlot::new())).collect(),
            busy: vec![false; depth],
            spare: LookupBuffer::new(),
            scratch: BatchScratch::default(),
        }
    }

    /// Number of requests this client can keep in flight at once.
    pub fn pipeline_depth(&self) -> usize {
        self.slots.len()
    }

    /// Number of tickets currently outstanding.
    pub fn in_flight(&self) -> usize {
        self.busy.iter().filter(|b| **b).count()
    }

    /// Enqueues a lookup for `keys` against `tenant` without blocking on the
    /// result. Fails with [`ServerError::PipelineFull`] when every slot is in
    /// flight, and with the admission-control errors documented on
    /// [`ServerError`] when the server rejects the request (in which case the
    /// slot is *not* consumed).
    ///
    /// When the admitted request leaves a batch due — pending keys reached
    /// [`max_batch_keys`](crate::ServerConfig::max_batch_keys), or the oldest
    /// queued request has waited [`max_delay`](crate::ServerConfig::max_delay)
    /// — and a core is free, the submit runs that batch on this thread
    /// before it returns.
    pub fn submit(&mut self, tenant: TenantId, keys: &[u64]) -> Result<Ticket> {
        let idx = self
            .busy
            .iter()
            .position(|b| !*b)
            .ok_or(ServerError::PipelineFull)?;
        let due = server::submit_slot(&self.shared, &self.slots[idx], tenant, keys, &mut self.scratch)?;
        self.busy[idx] = true;
        if let Some(reason) = due {
            self.shared.run_batches(reason, &mut self.scratch);
        }
        Ok(Ticket { slot: idx })
    }

    /// Returns true once `ticket`'s request has completed (successfully or
    /// not), i.e. [`wait_into`](Self::wait_into) will not block. While it
    /// has not, the call runs a batch on this thread when one is due (as
    /// [`submit`](Self::submit) does) and a core is free, then looks again —
    /// so polling `is_done` serves the queue at the coalescing window.
    pub fn is_done(&mut self, ticket: &Ticket) -> bool {
        let done = |slot: &RequestSlot| {
            matches!(slot.inner.lock().state, SlotState::Done | SlotState::Failed(_))
        };
        if done(&self.slots[ticket.slot]) {
            return true;
        }
        self.shared.run_due(&mut self.scratch);
        done(&self.slots[ticket.slot])
    }

    /// Blocks until `ticket`'s request completes, swaps the response into
    /// `out`, frees the slot, and returns the server-side timing. On failure
    /// the slot is freed and the typed error returned; `out` is untouched.
    ///
    /// While the request is still queued, the wait runs queued requests —
    /// a batch of the oldest request's tenant, which may hold other clients'
    /// requests too — on this thread whenever fewer batches are running than
    /// there are cores, and sleeps only when none is free. After each batch it
    /// runs, it runs one more while requests are queued and another client is
    /// parked: the core it freed is the one that client was waiting for. A
    /// store that panics in a batch run here panics this
    /// thread, as a direct call would, after every other request of that
    /// batch has been failed with [`ServerError::Store`].
    pub fn wait_into(&mut self, ticket: Ticket, out: &mut LookupBuffer) -> Result<RequestReport> {
        let slot = &self.slots[ticket.slot];
        let mut inner = slot.inner.lock();
        let outcome = loop {
            match &inner.state {
                SlotState::Done => {
                    std::mem::swap(&mut inner.response, out);
                    break Ok(RequestReport {
                        queue_delay: inner.queue_delay,
                        wall: inner.done_at.saturating_duration_since(inner.enqueued_at),
                        completed_at: inner.done_at,
                    });
                }
                SlotState::Failed(err) => break Err(err.clone()),
                // Parked once per wait: a spurious wakeup finds `waiting`
                // still set (only the release clears it) and goes straight
                // back to sleep without being counted twice.
                SlotState::Queued if inner.waiting => {
                    inner = slot.cv.wait(inner).unwrap_or_else(|e| e.into_inner());
                }
                SlotState::Queued => {
                    // Callers run: take what is queued and run it here while
                    // a core is free. The request may be in that batch, or in
                    // one another thread runs already.
                    drop(inner);
                    if self.shared.run_as_caller(&mut self.scratch) {
                        inner = slot.inner.lock();
                        continue;
                    }
                    inner = slot.inner.lock();
                    if inner.state != SlotState::Queued {
                        continue;
                    }
                    inner.waiting = true;
                    self.shared.client_parked();
                    drop(inner);
                    // Counted in, look again: a batch that finishes from here
                    // on sees this client parked and its runner runs what is
                    // queued; one that finished before left its core free.
                    let core_free = self.shared.core_free_for_queued();
                    inner = slot.inner.lock();
                    if core_free && inner.waiting {
                        inner.waiting = false;
                        self.shared.client_unparked();
                    }
                }
                SlotState::Idle => unreachable!("live ticket for an idle slot"),
            }
        };
        inner.state = SlotState::Idle;
        drop(inner);
        self.busy[ticket.slot] = false;
        outcome
    }

    /// Blocking lookup: submit `keys` and wait for the demuxed response in
    /// `out`. Equivalent to `TupleStore::lookup_batch_into` on the tenant's
    /// store, routed through the coalescer.
    pub fn lookup_batch_into(
        &mut self,
        tenant: TenantId,
        keys: &[u64],
        out: &mut LookupBuffer,
    ) -> Result<RequestReport> {
        let ticket = self.submit(tenant, keys)?;
        self.wait_into(ticket, out)
    }

    /// Blocking lookup returning owned values, mirroring
    /// `TupleStore::lookup_batch`. Allocates for the returned vectors; use
    /// [`lookup_batch_into`](Self::lookup_batch_into) on hot paths.
    pub fn lookup_batch(
        &mut self,
        tenant: TenantId,
        keys: &[u64],
    ) -> Result<Vec<Option<Vec<u32>>>> {
        let mut spare = std::mem::take(&mut self.spare);
        let outcome = self.lookup_batch_into(tenant, keys, &mut spare);
        let result = outcome.map(|_| {
            (0..keys.len())
                .map(|i| spare.get(i).map(|vals| vals.to_vec()))
                .collect()
        });
        self.spare = spare;
        result
    }

    /// Blocking single-key lookup, mirroring `TupleStore::get`.
    pub fn get(&mut self, tenant: TenantId, key: u64) -> Result<Option<Vec<u32>>> {
        let mut spare = std::mem::take(&mut self.spare);
        let outcome = self.lookup_batch_into(tenant, &[key], &mut spare);
        let result = outcome.map(|_| spare.get(0).map(|vals| vals.to_vec()));
        self.spare = spare;
        result
    }
}

impl Drop for ServerClient {
    /// Cancels the requests still queued: they leave the queue and count as
    /// failed. One already in a running batch is answered into its slot,
    /// which is freed with the last reference; nobody harvests it.
    fn drop(&mut self) {
        if self.in_flight() > 0 {
            self.shared.cancel_queued(&self.slots);
        }
    }
}
