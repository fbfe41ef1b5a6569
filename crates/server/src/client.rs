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
//! the dispatcher finds work already queued instead of parking between every
//! request.
//!
//! A client is also what the server's coalescer counts: alive from
//! construction to drop, *parked* while it blocks in `wait_into`. A batch
//! stops waiting for joiners once every live client is parked (the methods
//! that submit take `&mut self`, so a parked client cannot), which makes an
//! idle handle kept alive the way to hold a window open, and dropping a
//! handle that is done the way to let the others' batches go.

use std::sync::{Arc, Condvar};
use std::time::{Duration, Instant};

use dm_storage::LookupBuffer;
use parking_lot::Mutex;

use crate::error::{Result, ServerError};
use crate::server::{self, Shared, TenantId};

/// Lifecycle of a request slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum SlotState {
    /// Free for the owning client to submit into.
    Idle,
    /// Enqueued on the server; the dispatcher owns `keys` and `response`.
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
    /// Enqueue-to-batch-formation delay, recorded by the dispatcher.
    pub queue_delay: Duration,
    /// True while a waiter is blocked on `cv` and counted in the server's
    /// parked census. Set by the waiter, cleared by whoever moves the slot to
    /// a final state (`Shared::release`, which counts the waiter out and only
    /// then issues the wakeup), so pipelined clients that harvest
    /// already-`Done` tickets cost zero syscalls on the completion path.
    pub waiting: bool,
}

/// One in-flight request: shared between the submitting client and the
/// dispatcher. Completion is signalled through `cv` (only when `waiting`).
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

/// A caller-thread handle onto a [`QueryServer`](crate::QueryServer).
///
/// Clients are cheap (a handful of slots) but not `Sync`: create one per
/// thread via [`QueryServer::client`](crate::QueryServer::client), and drop
/// it when that thread is done submitting — while it lives and is not parked
/// in `wait_into`, forming batches wait up to
/// [`max_delay`](crate::ServerConfig::max_delay) for it. The
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
}

impl ServerClient {
    pub(crate) fn new(shared: Arc<Shared>, depth: usize) -> Self {
        let depth = depth.max(1);
        shared.client_created();
        ServerClient {
            shared,
            slots: (0..depth).map(|_| Arc::new(RequestSlot::new())).collect(),
            busy: vec![false; depth],
            spare: LookupBuffer::new(),
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
    pub fn submit(&mut self, tenant: TenantId, keys: &[u64]) -> Result<Ticket> {
        let idx = self
            .busy
            .iter()
            .position(|b| !*b)
            .ok_or(ServerError::PipelineFull)?;
        server::submit_slot(&self.shared, &self.slots[idx], tenant, keys)?;
        self.busy[idx] = true;
        Ok(Ticket { slot: idx })
    }

    /// Returns true once `ticket`'s request has completed (successfully or
    /// not), i.e. [`wait_into`](Self::wait_into) will not block.
    pub fn is_done(&self, ticket: &Ticket) -> bool {
        let inner = self.slots[ticket.slot].inner.lock();
        matches!(inner.state, SlotState::Done | SlotState::Failed(_))
    }

    /// Blocks until `ticket`'s request completes, swaps the response into
    /// `out`, frees the slot, and returns the server-side timing. On failure
    /// the slot is freed and the typed error returned; `out` is untouched.
    pub fn wait_into(&mut self, ticket: Ticket, out: &mut LookupBuffer) -> Result<RequestReport> {
        let slot = Arc::clone(&self.slots[ticket.slot]);
        let mut inner = slot.inner.lock();
        loop {
            match &inner.state {
                SlotState::Done => break,
                SlotState::Failed(err) => {
                    let err = err.clone();
                    inner.state = SlotState::Idle;
                    drop(inner);
                    self.busy[ticket.slot] = false;
                    return Err(err);
                }
                SlotState::Queued => {
                    // Park once per wait: a spurious wakeup finds `waiting`
                    // still set (only the release clears it) and goes
                    // straight back to sleep without being counted twice.
                    if !inner.waiting {
                        inner.waiting = true;
                        if self.shared.client_parked() {
                            // Nobody is left to join the forming batch. The
                            // queue lock is taken off the slot lock, so the
                            // release may already have happened on re-lock.
                            drop(inner);
                            self.shared.wake_dispatcher();
                            inner = slot.inner.lock();
                            continue;
                        }
                    }
                    inner = slot.cv.wait(inner).unwrap_or_else(|e| e.into_inner());
                }
                SlotState::Idle => unreachable!("live ticket for an idle slot"),
            }
        }
        std::mem::swap(&mut inner.response, out);
        let report = RequestReport {
            queue_delay: inner.queue_delay,
            wall: inner.done_at.saturating_duration_since(inner.enqueued_at),
            completed_at: inner.done_at,
        };
        inner.state = SlotState::Idle;
        drop(inner);
        self.busy[ticket.slot] = false;
        Ok(report)
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
    /// Leaves the census. Requests still in flight are served (or failed)
    /// and their slots freed with the last reference; nobody harvests them.
    fn drop(&mut self) {
        self.shared.client_dropped();
    }
}
