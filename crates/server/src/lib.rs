//! # dm-server — batched in-process query serving for DeepMapping stores
//!
//! DeepMapping's lookup path amortizes its fixed costs — pipeline dispatch,
//! model inference setup, partition touch-up — over the keys in a batch: the
//! committed benches serve large batches at ~1 µs/key while a single-key call
//! pays the full fixed cost alone. Real serving workloads, however, arrive as
//! many *small* requests from concurrent callers. This crate closes that gap
//! with a [`QueryServer`] that:
//!
//! * **coalesces** concurrent small `get` / `lookup_batch` requests into
//!   inference-sized merged batches, and **runs them on the callers' own
//!   threads**. A client that blocks in `wait_into` on a queued request takes
//!   what is queued (up to [`max_batch_keys`](ServerConfig::max_batch_keys)
//!   of the oldest request's tenant, its own requests and other clients')
//!   and runs it itself, while fewer batches are running than the machine has
//!   cores; when every core is busy it parks, and its requests join the next
//!   batch — so once clients outnumber cores, batches coalesce across them.
//!   Requests whose submitter has not waited yet are the dispatcher's: such a
//!   batch leaves by the first of three exits, `max_batch_keys` pending
//!   (*full*), *nobody can join* — every live [`ServerClient`] of the server
//!   is parked in `wait_into`, and a parked client cannot submit — or its
//!   oldest request has waited [`max_delay`](ServerConfig::max_delay)
//!   (*window*). `max_delay` is therefore the most a request donates while
//!   someone still could join: a client that is alive and not parked (idle,
//!   busy elsewhere, polling [`is_done`](ServerClient::is_done)) holds the
//!   window open, callers that wait never sit it out, and a handle that will
//!   not submit again should be dropped. Right after a batch of its own, the
//!   dispatcher also takes the next one at once when a client is parked
//!   (*for parked*). [`ServerStats`] counts the batches that ran on a caller
//!   and those that left by each dispatcher exit, and the dispatcher's
//!   wake-ups — a submission wakes it only when it is idle;
//! * **demuxes** the merged result back to each waiter by copying spans out of
//!   one flat [`LookupBuffer`](dm_storage::LookupBuffer) arena — no
//!   per-request allocation on the steady-state path, the same discipline the
//!   buffer itself uses;
//! * applies **admission control**: a bounded pending-key queue with a typed
//!   [`Overloaded`](ServerError::Overloaded) rejection and high/low
//!   load-shedding watermarks (hysteresis, so the server sheds decisively
//!   instead of flapping at the threshold);
//! * serves **multiple tenants**, each an
//!   [`Arc<dyn TupleStore>`](dm_storage::TupleStore) registered up front or a
//!   snapshot path opened lazily (and exactly once) on first request;
//! * exposes **observability** via [`QueryServer::stats`]: queue delay,
//!   coalesce width, batches formed and which thread ran each (a caller, or
//!   the dispatcher by which exit), shed count,
//!   per-request wall time, the census of live and parked clients — and per
//!   tenant via [`QueryServer::tenant_tail`].
//!
//! # What a request pays for, and records
//!
//! Between `submit` and the answer a request takes no lock any other request
//! shares but the queue's. Admission resolves the tenant from an append-only
//! table (no registry lock, no reference count), asks its circuit breaker
//! with one atomic load while the breaker is not open, and reads the clock
//! once, for the enqueue time. The batch that answers it reads the clock
//! three times whatever its width — when the store call starts and ends,
//! and when the demux has copied every answer — resolves an opened store
//! with one load, and reports a success to a clean breaker without its lock.
//!
//! Each answered request then records one fixed-size sample: its queue delay,
//! the batch's coalescing hold, its wall time, and its key-weighted shares of
//! the batch's store, inference, probe and demux-copy time — all derived
//! from the batch's clock reads and the store's own trace of the batch
//! (`dm_obs::trace::take_last_batch`). A batch writes its requests' samples
//! into its thread's stripe of the tenant's sample log, under one
//! uncontended lock, before it wakes any of them. That is the tail
//! attribution: [`QueryServer::tenant_tail`] folds the tenant's samples into
//! its histograms, exactly — a fold is bucket-for-bucket what histograms fed
//! each sample would hold — and [`QueryServer::stats`] reads the merge of
//! every tenant's. The `recent_*` (last ~60 s) views are windows over the
//! same samples, kept as differences of snapshots of the cumulative
//! histograms ([`dm_obs::SnapshotWindow`]); with `DM_OBS=off` a sample stays
//! out of them and counts since boot only. The batch records its stage spans
//! into `dm_obs::trace`'s process-wide stage histograms once per batch.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use dm_server::{QueryServer, ServerConfig};
//! use dm_storage::{ReferenceStore, Row};
//!
//! let reference = ReferenceStore::from_rows(&[Row::new(7, vec![70])]);
//!
//! let server = QueryServer::new(ServerConfig::default());
//! let tenant = server.register_store("orders", Arc::new(reference)).unwrap();
//!
//! let mut client = server.client();
//! assert_eq!(client.get(tenant, 7).unwrap(), Some(vec![70]));
//! assert_eq!(client.get(tenant, 8).unwrap(), None);
//! ```
//!
//! # Threading model
//!
//! Batches run on the threads of the clients that wait for them — at most
//! one per core (`std::thread::available_parallelism`, read once in
//! [`QueryServer::new`]), so two waiting clients on two cores run two batches
//! side by side — and on one plain OS dispatcher thread per server, which
//! serves only requests nobody waits on yet and takes a core like any other
//! batch. A store runs each merged batch on the thread that takes it, so the
//! cores the server grants are the only parallelism on the read path. A store
//! that panics fails every request of its batch with
//! [`ServerError::Store`] and gives its core back; the panic reaches the
//! caller that ran the batch, as a direct store call would, and never the
//! dispatcher. [`ServerConfig::inline`] removes the queue and the dispatcher
//! entirely (each request runs alone, synchronously, on its own caller
//! thread), which is both the uncoalesced baseline for benches and the
//! simplest mode for single-threaded tests.

pub mod client;
pub mod error;
pub mod server;
pub mod stats;

pub use client::{RequestReport, ServerClient, Ticket};
pub use error::{Result, ServerError};
pub use server::{QueryServer, ServerConfig, TenantId, DEFAULT_PIPELINE_DEPTH};
pub use stats::{ServerStats, TenantTail};

#[cfg(test)]
mod tests {
    use super::*;
    use dm_storage::{LookupBuffer, ReferenceStore, Row, TupleStore};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn seeded_store(keys: std::ops::Range<u64>) -> Arc<dyn TupleStore> {
        let rows: Vec<Row> = keys
            .map(|k| Row::new(k, vec![k as u32, (k * 2) as u32]))
            .collect();
        Arc::new(ReferenceStore::from_rows(&rows))
    }

    fn cores() -> usize {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }

    /// The longest a threaded test waits for any one step.
    const STALL: Duration = Duration::from_secs(10);

    /// A thread the test joins with a deadline: a lost wake-up fails the
    /// step that stalled instead of hanging `cargo test`.
    struct Bounded<T> {
        done: std::sync::mpsc::Receiver<std::thread::Result<T>>,
        handle: std::thread::JoinHandle<()>,
    }

    fn bounded<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> Bounded<T> {
        let (tx, done) = std::sync::mpsc::channel();
        let handle = std::thread::spawn(move || {
            let _ = tx.send(std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)));
        });
        Bounded { done, handle }
    }

    impl<T> Bounded<T> {
        /// The thread's result, its panic resumed here, or a failure naming
        /// `step` once it has run for [`STALL`].
        fn join(self, step: &str) -> T {
            match self.done.recv_timeout(STALL) {
                Ok(outcome) => {
                    self.handle.join().expect("the thread caught its own panic");
                    outcome.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                }
                Err(_) => panic!("stalled for {STALL:?}: {step}"),
            }
        }
    }

    /// Polls `reached` until it holds, failing with `step` after [`STALL`].
    fn wait_until(step: &str, mut reached: impl FnMut() -> bool) {
        let started = Instant::now();
        while !reached() {
            assert!(started.elapsed() < STALL, "stalled for {STALL:?}: {step}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn coalesced_server_answers_like_the_store() {
        let server = QueryServer::new(ServerConfig::coalescing(Duration::from_micros(200), 64));
        let tenant = server
            .register_store("t", seeded_store(0..100))
            .unwrap();
        let mut client = server.client();
        let mut out = LookupBuffer::new();
        for round in 0..20u64 {
            let keys = [round, round + 50, round + 1000];
            let report = client.lookup_batch_into(tenant, &keys, &mut out).unwrap();
            assert_eq!(out.len(), 3);
            assert_eq!(out.get(0), Some(&[round as u32, (round * 2) as u32][..]));
            let second = round + 50;
            if second < 100 {
                assert_eq!(out.get(1), Some(&[second as u32, (second * 2) as u32][..]));
            } else {
                assert_eq!(out.get(1), None);
            }
            assert_eq!(out.get(2), None, "key {} should miss", round + 1000);
            assert!(report.wall >= report.queue_delay);
        }
        let stats = server.stats();
        assert_eq!(stats.requests_completed, 20);
        assert_eq!(stats.keys_served, 60);
        assert!(stats.batches_formed >= 1);
    }

    #[test]
    fn inline_mode_runs_on_the_caller_thread() {
        let server = QueryServer::new(ServerConfig::inline());
        let tenant = server.register_store("t", seeded_store(0..10)).unwrap();
        let mut client = server.client();
        assert_eq!(client.get(tenant, 3).unwrap(), Some(vec![3, 6]));
        assert_eq!(client.get(tenant, 99).unwrap(), None);
        let stats = server.stats();
        assert_eq!(stats.inline_requests, 2);
        assert_eq!(stats.batches_formed, 0);
        assert_eq!(stats.requests_completed, 2);
    }

    #[test]
    fn unknown_and_duplicate_tenants_are_typed_errors() {
        let server = QueryServer::with_defaults();
        assert_eq!(
            server.tenant("nope"),
            Err(ServerError::UnknownTenant("nope".into()))
        );
        server.register_store("t", seeded_store(0..4)).unwrap();
        assert_eq!(
            server
                .register_store("t", seeded_store(0..4))
                .unwrap_err(),
            ServerError::DuplicateTenant("t".into())
        );
    }

    #[test]
    fn oversized_requests_are_rejected_without_consuming_a_slot() {
        let config = ServerConfig {
            max_request_keys: 4,
            ..ServerConfig::default()
        };
        let server = QueryServer::new(config);
        let tenant = server.register_store("t", seeded_store(0..4)).unwrap();
        let mut client = server.client();
        let keys: Vec<u64> = (0..10).collect();
        assert_eq!(
            client.submit(tenant, &keys).unwrap_err(),
            ServerError::RequestTooLarge {
                keys: 10,
                max_request_keys: 4
            }
        );
        assert_eq!(client.in_flight(), 0);
        // The slot is still usable for an in-range request.
        assert_eq!(client.get(tenant, 1).unwrap(), Some(vec![1, 2]));
    }

    #[test]
    fn pipeline_full_is_reported_and_slots_recycle() {
        let server = QueryServer::new(ServerConfig::coalescing(Duration::from_micros(50), 8));
        let tenant = server.register_store("t", seeded_store(0..32)).unwrap();
        let mut client = server.client_with_depth(2);
        let t0 = client.submit(tenant, &[1]).unwrap();
        let t1 = client.submit(tenant, &[2]).unwrap();
        assert_eq!(client.submit(tenant, &[3]).unwrap_err(), ServerError::PipelineFull);
        let mut out = LookupBuffer::new();
        client.wait_into(t0, &mut out).unwrap();
        assert_eq!(out.get(0), Some(&[1u32, 2][..]));
        let t2 = client.submit(tenant, &[3]).unwrap();
        client.wait_into(t1, &mut out).unwrap();
        assert_eq!(out.get(0), Some(&[2u32, 4][..]));
        client.wait_into(t2, &mut out).unwrap();
        assert_eq!(out.get(0), Some(&[3u32, 6][..]));
    }

    /// A store whose lookups block until the gate opens — lets tests hold the
    /// dispatcher mid-batch so queue buildup is deterministic. The gate can
    /// also open only for batches whose keys all lie at or above a bound.
    struct GateStore {
        inner: ReferenceStore,
        /// Lookups whose smallest key is at least this pass; `u64::MAX` is
        /// shut.
        open_from: std::sync::Mutex<u64>,
        cv: std::sync::Condvar,
        entered: std::sync::atomic::AtomicUsize,
    }

    impl GateStore {
        fn new(keys: std::ops::Range<u64>) -> Self {
            let rows: Vec<Row> = keys
                .map(|k| Row::new(k, vec![k as u32, (k * 2) as u32]))
                .collect();
            GateStore {
                inner: ReferenceStore::from_rows(&rows),
                open_from: std::sync::Mutex::new(u64::MAX),
                cv: std::sync::Condvar::new(),
                entered: std::sync::atomic::AtomicUsize::new(0),
            }
        }

        fn entered(&self) -> usize {
            self.entered.load(std::sync::atomic::Ordering::Acquire)
        }

        fn open_gate(&self) {
            self.open_from(0);
        }

        /// Lets through the batches whose keys are all `key` or above.
        fn open_from(&self, key: u64) {
            *self.open_from.lock().unwrap() = key;
            self.cv.notify_all();
        }
    }

    impl TupleStore for GateStore {
        fn name(&self) -> &str {
            "GATE"
        }

        fn lookup_batch_into(
            &self,
            keys: &[u64],
            out: &mut LookupBuffer,
        ) -> dm_storage::Result<()> {
            self.entered
                .fetch_add(1, std::sync::atomic::Ordering::AcqRel);
            let smallest = keys.iter().copied().min().unwrap_or(0);
            let mut open_from = self.open_from.lock().unwrap();
            while smallest < *open_from {
                open_from = self.cv.wait(open_from).unwrap();
            }
            drop(open_from);
            self.inner.lookup_batch_into(keys, out)
        }

        fn stats(&self) -> dm_storage::StoreStats {
            self.inner.stats()
        }
    }

    /// Puts one caller-run batch (of key `core`) on every core not already
    /// `busy` in `gate`, each blocked there until it opens, so that from here
    /// on a waiter finds no core free and parks: its requests stay queued on
    /// purpose. The runners start one at a time, so none takes another's
    /// request along.
    fn occupy_every_core(
        server: &Arc<QueryServer>,
        tenant: TenantId,
        gate: &GateStore,
        busy: usize,
    ) -> Vec<Bounded<Result<Option<Vec<u32>>>>> {
        let entered = gate.entered();
        (busy..cores())
            .map(|core| {
                let server = Arc::clone(server);
                let runner = bounded(move || server.client().get(tenant, core as u64));
                wait_until("a runner enters the gated store", || {
                    gate.entered() == entered + core + 1 - busy
                });
                runner
            })
            .collect()
    }

    #[test]
    fn admission_control_sheds_past_capacity_and_recovers_after_drain() {
        let config = ServerConfig {
            max_batch_keys: 4,
            max_delay: Duration::from_micros(100),
            queue_capacity_keys: 8,
            shed_high_watermark_keys: 8,
            shed_low_watermark_keys: 4,
            max_request_keys: 8,
            ..ServerConfig::default()
        };
        let server = QueryServer::new(config);
        let gate = Arc::new(GateStore::new(0..64));
        let tenant = server
            .register_store("t", Arc::clone(&gate) as Arc<dyn TupleStore>)
            .unwrap();
        let mut client = server.client_with_depth(16);

        // A 4-key request trips the size trigger; the dispatcher takes it and
        // blocks inside the gated store, leaving the queue to build up.
        let stuck = client.submit(tenant, &[0, 1, 2, 3]).unwrap();
        while gate.entered() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }

        // 8 single-key submissions fill the queue to capacity (the 8th
        // crosses the high watermark and latches shedding).
        let tickets: Vec<_> = (0..8)
            .map(|k| client.submit(tenant, &[k]).unwrap())
            .collect();
        let err = client.submit(tenant, &[9]).unwrap_err();
        assert!(
            matches!(err, ServerError::Overloaded { queued_keys: 8, capacity: 8 }),
            "expected Overloaded at capacity, got {err:?}"
        );
        assert_eq!(server.stats().requests_shed, 1);

        // Open the gate: the stuck batch completes, the queue drains (falling
        // through the low watermark clears shedding), and all waiters finish.
        gate.open_gate();
        let mut out = LookupBuffer::new();
        client.wait_into(stuck, &mut out).unwrap();
        assert_eq!(out.get(3), Some(&[3u32, 6][..]));
        for (k, t) in tickets.into_iter().enumerate() {
            client.wait_into(t, &mut out).unwrap();
            assert_eq!(out.get(0), Some(&[k as u32, (k * 2) as u32][..]));
        }
        // After the drain the server accepts again.
        assert_eq!(client.get(tenant, 1).unwrap(), Some(vec![1, 2]));
        assert_eq!(server.stats().requests_shed, 1);

        drop(client);
        server.shutdown();

        let config = ServerConfig {
            max_batch_keys: 4,
            max_delay: Duration::from_micros(50),
            queue_capacity_keys: 8,
            shed_high_watermark_keys: 8,
            shed_low_watermark_keys: 4,
            max_request_keys: 8,
            ..ServerConfig::default()
        };
        let server = QueryServer::new(config);
        let tenant = server.register_store("t", seeded_store(0..64)).unwrap();
        let mut client = server.client_with_depth(16);
        let mut out = LookupBuffer::new();
        // Saturate, shed or complete, then verify the server still serves.
        let mut pending = Vec::new();
        let mut shed = 0u64;
        for k in 0..32u64 {
            match client.submit(tenant, &[k % 16]) {
                Ok(t) => pending.push(t),
                Err(ServerError::Overloaded { .. }) => shed += 1,
                Err(ServerError::PipelineFull) => {
                    let t = pending.remove(0);
                    client.wait_into(t, &mut out).unwrap();
                }
                Err(other) => panic!("unexpected error: {other:?}"),
            }
        }
        for t in pending {
            client.wait_into(t, &mut out).unwrap();
        }
        // After the storm the server must accept again.
        assert_eq!(client.get(tenant, 1).unwrap(), Some(vec![1, 2]));
        assert_eq!(server.stats().requests_shed, shed);
    }

    #[test]
    fn shutdown_fails_queued_waiters_with_a_typed_error() {
        // Long deadline, and every core busy in the gated store, so the
        // waiter's request stays queued until shutdown reaches it.
        let config = ServerConfig {
            max_batch_keys: 1024,
            max_delay: Duration::from_secs(30),
            ..ServerConfig::default()
        };
        let server = Arc::new(QueryServer::new(config));
        let gate = Arc::new(GateStore::new(0..8));
        let tenant = server
            .register_store("t", Arc::clone(&gate) as Arc<dyn TupleStore>)
            .unwrap();
        let runners = occupy_every_core(&server, tenant, &gate, 0);

        let for_thread = Arc::clone(&server);
        let waiter = bounded(move || {
            let mut client = for_thread.client();
            let ticket = client.submit(tenant, &[1, 2]).unwrap();
            let mut out = LookupBuffer::new();
            client.wait_into(ticket, &mut out)
        });
        wait_until("the waiter parks", || server.stats().parked_clients == 1);
        server.shutdown();
        assert_eq!(
            waiter.join("shutdown releases the parked waiter").unwrap_err(),
            ServerError::ShuttingDown
        );
        // Batches already running finish on their callers' threads.
        gate.open_gate();
        for runner in runners {
            assert!(runner.join("a running batch finishes after shutdown").is_ok());
        }

        // Post-shutdown submissions fail fast with the same typed error.
        let mut client = server.client();
        assert_eq!(
            client.submit(tenant, &[1]).unwrap_err(),
            ServerError::ShuttingDown
        );
        // Shutdown is idempotent.
        server.shutdown();
    }

    #[test]
    fn lazy_snapshot_tenant_with_a_bad_path_reports_tenant_open() {
        let server = QueryServer::new(ServerConfig::inline());
        let tenant = server
            .register_snapshot("ghost", "/nonexistent/dm-server-test.snap")
            .unwrap();
        assert_eq!(server.tenants(), vec![("ghost".to_string(), false)]);
        let mut client = server.client();
        match client.get(tenant, 1) {
            Err(ServerError::TenantOpen(msg)) => assert!(msg.contains("ghost"), "{msg}"),
            other => panic!("expected TenantOpen, got {other:?}"),
        }
        // Registration stays; the open is retried on the next request.
        assert_eq!(server.tenants(), vec![("ghost".to_string(), false)]);
    }

    #[test]
    fn multi_tenant_requests_route_to_the_right_store() {
        let server = QueryServer::new(ServerConfig::coalescing(Duration::from_micros(100), 32));
        let a = server.register_store("a", seeded_store(0..10)).unwrap();
        let b = server.register_store("b", seeded_store(100..110)).unwrap();
        assert_eq!(server.tenant("a").unwrap(), a);
        assert_eq!(server.tenant("b").unwrap(), b);
        let mut client = server.client();
        assert_eq!(client.get(a, 5).unwrap(), Some(vec![5, 10]));
        assert_eq!(client.get(b, 5).unwrap(), None);
        assert_eq!(client.get(b, 105).unwrap(), Some(vec![105, 210]));
        assert_eq!(client.get(a, 105).unwrap(), None);
    }

    #[test]
    fn tenant_tail_and_slow_requests_observe_served_traffic() {
        // Threshold zero: every request's wall time crosses it, so the slow
        // ring deterministically captures each one.
        // A window nobody waits out: the only client waits, so it runs each
        // batch on its own thread, and the capture says so.
        let config = ServerConfig {
            slow_request: Some(Duration::ZERO),
            ..ServerConfig::coalescing(Duration::from_secs(30), 64)
        };
        let exported = dm_obs::registry::global()
            .register_counter("dm_server_batches_on_caller_total");
        let exported_before = exported.value();
        let server = QueryServer::new(config);
        let tenant = server.register_store("t", seeded_store(0..100)).unwrap();
        let mut client = server.client();
        for k in 0..10 {
            assert!(client.get(tenant, k).unwrap().is_some());
        }
        // Other servers of this process feed the same registry: at least ours.
        assert!(exported.value() >= exported_before + 10);

        let tail = server.tenant_tail("t").unwrap();
        assert_eq!(tail.request_wall.count(), 10);
        assert_eq!(tail.queue_delay.count(), 10);
        assert_eq!(tail.coalesce_wait.count(), 10);
        assert_eq!(tail.exec_share.count(), 10);
        assert_eq!(tail.result_copy.count(), 10);
        assert!(tail.request_wall.max() > 0);

        let slow = server.slow_requests();
        assert_eq!(slow.len(), 10);
        assert!(slow.iter().all(|c| c.label == "server_request"));
        assert!(slow.iter().all(|c| c.detail.contains("tenant=t")));
        assert!(
            slow.iter()
                .all(|c| c.detail.ends_with("batch_keys=1 left=caller")),
            "{:?}",
            slow[0].detail
        );
        assert!(slow.iter().all(|c| !c.events.is_empty()));

        let stats = server.stats();
        assert!(stats.request_wall_p50 > Duration::ZERO);
        assert!(stats.request_wall_max >= stats.request_wall_p99);
        assert!(stats.request_wall_p99 >= stats.request_wall_p50);

        assert!(server.tenant_tail("nope").is_err());
    }

    #[test]
    fn health_reports_cover_open_tenants_and_carry_slo_evidence() {
        let config = ServerConfig {
            tenant_p99_target: Some(Duration::from_millis(5)),
            ..ServerConfig::inline()
        };
        let server = QueryServer::new(config);
        let tenant = server.register_store("t", seeded_store(0..10)).unwrap();
        server
            .register_snapshot("lazy", "/nonexistent/dm-health-test.snap")
            .unwrap();
        let mut client = server.client();
        for k in 0..5 {
            client.get(tenant, k).unwrap();
        }

        let reports = server.health();
        assert_eq!(reports.len(), 1, "unopened snapshot tenants are skipped");
        let (name, report) = &reports[0];
        assert_eq!(name, "t");
        // A baseline store exposes no drift/pool signals, so the advisor sees
        // defaults and must conclude Healthy.
        assert!(report.is_healthy(), "{report:?}");
        let slo = report.slo.expect("a target is configured");
        assert_eq!(slo.target_p99_nanos, 5_000_000);
        if dm_obs::enabled() {
            assert!(slo.windowed_requests >= 5, "served requests feed the window");
        } else {
            // The window is observability: the `DM_OBS` kill switch empties it.
            assert_eq!(slo.windowed_requests, 0);
        }

        let direct = server.tenant_health("t").unwrap();
        assert!(direct.is_healthy());
        assert!(server.tenant_health("nope").is_err());

        // publish_health lands the report in the global registry, where the
        // Prometheus/JSON renderers pick it up on the next scrape.
        assert_eq!(server.publish_health(), 1);
        let text = dm_obs::render_prometheus();
        assert!(text.contains("dm_health_t_advice_healthy 1"), "{text}");
        assert!(text.contains("dm_health_t_slo_target_p99_nanos 5000000"));
    }

    /// A store that can be switched between serving normally, failing every
    /// batch outright, and degrading a chosen key range with per-span marks.
    struct FlakyStore {
        inner: ReferenceStore,
        mode: std::sync::atomic::AtomicU8, // 0 = ok, 1 = fail, 2 = degrade
        degraded_from: u64,
    }

    impl FlakyStore {
        fn new(keys: std::ops::Range<u64>, degraded_from: u64) -> Self {
            let rows: Vec<Row> = keys
                .map(|k| Row::new(k, vec![k as u32, (k * 2) as u32]))
                .collect();
            FlakyStore {
                inner: ReferenceStore::from_rows(&rows),
                mode: std::sync::atomic::AtomicU8::new(0),
                degraded_from,
            }
        }

        fn set_mode(&self, mode: u8) {
            self.mode.store(mode, std::sync::atomic::Ordering::Release);
        }
    }

    impl TupleStore for FlakyStore {
        fn name(&self) -> &str {
            "FLAKY"
        }

        fn lookup_batch_into(
            &self,
            keys: &[u64],
            out: &mut LookupBuffer,
        ) -> dm_storage::Result<()> {
            match self.mode.load(std::sync::atomic::Ordering::Acquire) {
                1 => Err(dm_storage::StorageError::Io("injected batch failure".into())),
                2 => {
                    self.inner.lookup_batch_into(keys, out)?;
                    for (i, key) in keys.iter().enumerate() {
                        if *key >= self.degraded_from {
                            out.set_failed(
                                i,
                                dm_storage::StorageError::Io("partition unreadable".into()),
                            );
                        }
                    }
                    Ok(())
                }
                _ => self.inner.lookup_batch_into(keys, out),
            }
        }

        fn stats(&self) -> dm_storage::StoreStats {
            self.inner.stats()
        }
    }

    #[test]
    fn breaker_opens_after_consecutive_failures_probes_and_recovers() {
        let config = ServerConfig {
            breaker_failure_threshold: 3,
            breaker_cooldown: Duration::from_millis(30),
            ..ServerConfig::inline()
        };
        let server = QueryServer::new(config);
        let flaky = Arc::new(FlakyStore::new(0..32, u64::MAX));
        let tenant = server
            .register_store("t", Arc::clone(&flaky) as Arc<dyn TupleStore>)
            .unwrap();
        let mut client = server.client();

        // Three consecutive store failures trip the breaker...
        flaky.set_mode(1);
        for _ in 0..3 {
            assert!(matches!(
                client.get(tenant, 1).unwrap_err(),
                ServerError::Store(_)
            ));
        }
        assert_eq!(server.stats().breaker_trips, 1);
        // ...and the next request is fast-failed at admission with a typed
        // retry hint, without ever reaching the store.
        match client.get(tenant, 1).unwrap_err() {
            ServerError::TenantUnavailable { tenant: name, retry_after } => {
                assert_eq!(name, "t");
                assert!(retry_after <= Duration::from_millis(30));
            }
            other => panic!("expected TenantUnavailable, got {other:?}"),
        }
        assert_eq!(server.stats().breaker_rejections, 1);

        // Past the cooldown, one half-open probe is admitted; it still fails,
        // so the breaker re-opens for another cooldown.
        std::thread::sleep(Duration::from_millis(40));
        assert!(matches!(
            client.get(tenant, 1).unwrap_err(),
            ServerError::Store(_)
        ));
        assert_eq!(server.stats().breaker_trips, 2);
        assert!(matches!(
            client.get(tenant, 1).unwrap_err(),
            ServerError::TenantUnavailable { .. }
        ));

        // Heal the store: the next probe succeeds, the breaker closes, and
        // service resumes exactly as before the incident.
        flaky.set_mode(0);
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(client.get(tenant, 1).unwrap(), Some(vec![1, 2]));
        assert_eq!(server.stats().breaker_recoveries, 1);
        for k in 0..8 {
            assert_eq!(client.get(tenant, k).unwrap(), Some(vec![k as u32, (k * 2) as u32]));
        }
    }

    #[test]
    fn partial_failures_fail_only_requests_touching_failed_keys() {
        // Keys >= 100 degrade with a per-span failure mark; the rest serve.
        let config = ServerConfig {
            breaker_failure_threshold: 0,
            ..ServerConfig::coalescing(Duration::from_micros(300), 64)
        };
        let server = QueryServer::new(config);
        let flaky = Arc::new(FlakyStore::new(0..200, 100));
        let tenant = server
            .register_store("t", Arc::clone(&flaky) as Arc<dyn TupleStore>)
            .unwrap();
        flaky.set_mode(2);
        let mut client = server.client_with_depth(4);

        // Submit both before waiting so they can coalesce into one batch:
        // the merged batch succeeds overall, but only the request whose span
        // touches a degraded key fails.
        let clean = client.submit(tenant, &[1, 2, 7]).unwrap();
        let dirty = client.submit(tenant, &[3, 150]).unwrap();
        let mut out = LookupBuffer::new();
        client.wait_into(clean, &mut out).unwrap();
        assert_eq!(out.get(0), Some(&[1u32, 2][..]));
        assert_eq!(out.get(1), Some(&[2u32, 4][..]));
        assert_eq!(out.get(2), Some(&[7u32, 14][..]));
        match client.wait_into(dirty, &mut out).unwrap_err() {
            ServerError::PartialFailure { failed_keys, total_keys, cause } => {
                assert_eq!(failed_keys, 1);
                assert_eq!(total_keys, 2);
                assert!(cause.contains("partition unreadable"), "{cause}");
            }
            other => panic!("expected PartialFailure, got {other:?}"),
        }

        let stats = server.stats();
        assert_eq!(stats.partial_failures, 1);
        assert_eq!(stats.requests_failed, 1);
        // The clean request was counted served; the dirty one was not.
        assert_eq!(stats.keys_served, 3);

        // Inline mode surfaces the same typed error for single requests.
        let inline_server = QueryServer::new(ServerConfig {
            breaker_failure_threshold: 0,
            ..ServerConfig::inline()
        });
        let t2 = inline_server
            .register_store("t", Arc::clone(&flaky) as Arc<dyn TupleStore>)
            .unwrap();
        let mut inline_client = inline_server.client();
        assert_eq!(inline_client.get(t2, 5).unwrap(), Some(vec![5, 10]));
        assert!(matches!(
            inline_client.get(t2, 150).unwrap_err(),
            ServerError::PartialFailure { failed_keys: 1, total_keys: 1, .. }
        ));
    }

    #[test]
    fn stale_queued_requests_time_out_with_a_typed_error() {
        let config = ServerConfig {
            max_batch_keys: 4,
            max_delay: Duration::from_micros(100),
            request_deadline: Some(Duration::from_millis(10)),
            breaker_failure_threshold: 0,
            ..ServerConfig::default()
        };
        let server = QueryServer::new(config);
        let gate = Arc::new(GateStore::new(0..64));
        let tenant = server
            .register_store("t", Arc::clone(&gate) as Arc<dyn TupleStore>)
            .unwrap();
        let mut client = server.client_with_depth(8);

        // The first batch enters the store and blocks on the gate.
        let stuck = client.submit(tenant, &[0, 1, 2, 3]).unwrap();
        while gate.entered() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // These queue up behind the stuck batch and outwait their deadline.
        let stale_a = client.submit(tenant, &[4]).unwrap();
        let stale_b = client.submit(tenant, &[5]).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        gate.open_gate();

        let mut out = LookupBuffer::new();
        client.wait_into(stuck, &mut out).unwrap();
        assert_eq!(out.get(0), Some(&[0u32, 0][..]));
        for ticket in [stale_a, stale_b] {
            match client.wait_into(ticket, &mut out).unwrap_err() {
                ServerError::Timeout { waited, deadline } => {
                    assert!(waited >= deadline, "{waited:?} < {deadline:?}");
                    assert_eq!(deadline, Duration::from_millis(10));
                }
                other => panic!("expected Timeout, got {other:?}"),
            }
        }
        assert_eq!(server.stats().requests_timed_out, 2);
        // The server still serves promptly once the queue is healthy again.
        assert_eq!(client.get(tenant, 6).unwrap(), Some(vec![6, 12]));
    }

    /// Waiters never sit out the window. K synchronous callers released
    /// together run their requests on their own threads, under a window (2 s)
    /// that 50 rounds together must not add up to. And a batch they have to
    /// leave queued — every core busy in a gated store, so K more waiters park
    /// — leaves as soon as every live client is parked, not at the window.
    #[test]
    fn a_batch_leaves_as_soon_as_every_live_client_is_parked() {
        let window = Duration::from_secs(2);
        for callers in [1usize, 2, 4] {
            let server = Arc::new(QueryServer::new(ServerConfig::coalescing(window, 1024)));
            let tenant = server.register_store("t", seeded_store(0..64)).unwrap();
            let round_start = Arc::new(std::sync::Barrier::new(callers));
            let started = Instant::now();
            let threads: Vec<_> = (0..callers)
                .map(|c| {
                    let mut client = server.client();
                    let round_start = Arc::clone(&round_start);
                    bounded(move || {
                        for round in 0..50u64 {
                            // Nobody submits round r + 1 before all of round
                            // r was answered.
                            round_start.wait();
                            let key = (round + c as u64) % 64;
                            assert_eq!(
                                client.get(tenant, key).unwrap(),
                                Some(vec![key as u32, (key * 2) as u32])
                            );
                        }
                    })
                })
                .collect();
            for thread in threads {
                thread.join("50 synchronous rounds");
            }
            let elapsed = started.elapsed();
            assert!(
                elapsed < window,
                "{callers} callers: 50 rounds took {elapsed:?}, a {window:?} window was sat out"
            );
            let stats = server.stats();
            assert_eq!(stats.batches_at_window, 0, "{callers} callers: {stats:?}");
            assert_eq!(
                stats.batches_full
                    + stats.batches_nobody_could_join
                    + stats.batches_for_parked
                    + stats.batches_on_caller,
                stats.batches_formed
            );
            assert!((50..=50 * callers as u64).contains(&stats.batches_formed));
            assert_eq!(stats.batched_requests, 50 * callers as u64);
            assert!(stats.max_coalesce_width <= callers as u64);
            assert_eq!((stats.live_clients, stats.parked_clients), (0, 0));
        }

        // Waiters that find every core busy park with their requests queued;
        // the first runner to free a core runs them all, one batch.
        let cores = cores() as u64;
        for waiters in [1u64, 2, 4] {
            let server = Arc::new(QueryServer::new(ServerConfig::coalescing(window, 1024)));
            let gate = Arc::new(GateStore::new(0..256));
            let tenant = server
                .register_store("t", Arc::clone(&gate) as Arc<dyn TupleStore>)
                .unwrap();
            let runners = occupy_every_core(&server, tenant, &gate, 0);
            let parked: Vec<_> = (0..waiters)
                .map(|w| {
                    let server = Arc::clone(&server);
                    bounded(move || server.client().get(tenant, 200 + w))
                })
                .collect();
            wait_until("every waiter parks", || server.stats().parked_clients == waiters);
            let started = Instant::now();
            gate.open_gate();
            for runner in runners {
                assert!(matches!(runner.join("a runner's own batch"), Ok(Some(_))));
            }
            for (w, waiter) in (0..waiters).zip(parked) {
                let key = 200 + w as u32;
                assert_eq!(
                    waiter.join("the parked waiters' batch").unwrap(),
                    Some(vec![key, key * 2])
                );
            }
            assert!(started.elapsed() < window, "{waiters} waiters sat out the window");
            let stats = server.stats();
            assert_eq!(stats.batches_on_caller, cores + 1, "{stats:?}");
            assert_eq!(stats.batches_formed, cores + 1);
            assert_eq!(stats.max_coalesce_width, waiters);
            assert_eq!((stats.live_clients, stats.parked_clients), (0, 0));
        }

        // Requests nobody waits on are the dispatcher's: held while a client
        // could still join them, and gone the moment nobody can.
        for leavers in [1u64, 2, 4] {
            let server = QueryServer::new(ServerConfig::coalescing(window, 1024));
            let tenant = server.register_store("t", seeded_store(0..64)).unwrap();
            let mut clients: Vec<ServerClient> = (0..leavers).map(|_| server.client()).collect();
            for (key, client) in (0..).zip(clients.iter_mut()) {
                let _unharvested = client.submit(tenant, &[key]).unwrap();
            }
            let started = Instant::now();
            while let Some(client) = clients.pop() {
                assert_eq!(server.stats().batches_formed, 0, "a live client holds the batch");
                drop(client);
            }
            wait_until("the batch nobody can join leaves", || {
                server.stats().requests_completed == leavers
            });
            assert!(started.elapsed() < window);
            let stats = server.stats();
            assert_eq!((stats.batches_formed, stats.batches_nobody_could_join), (1, 1));
            assert_eq!(stats.max_coalesce_width, leavers);
        }
    }

    /// What holds a window open: a client that is alive and not parked. A
    /// request whose submitter has not waited yet, with an idle handle beside
    /// it, leaves at `max_delay`; one whose submitter waits runs at once, on
    /// the submitter's thread.
    #[test]
    fn an_idle_client_holds_the_window_open_for_a_lone_request() {
        let window = Duration::from_millis(40);
        let server = QueryServer::new(ServerConfig::coalescing(window, 1024));
        let tenant = server.register_store("t", seeded_store(0..8)).unwrap();
        let mut client = server.client();
        let _idle = server.client();
        let mut out = LookupBuffer::new();
        let ticket = client.submit(tenant, &[3]).unwrap();
        wait_until("the window closes on the unwaited request", || {
            client.is_done(&ticket)
        });
        let report = client.wait_into(ticket, &mut out).unwrap();
        assert_eq!(out.get(0), Some(&[3u32, 6][..]));
        assert!(report.queue_delay >= window, "{report:?}");
        let exits = |stats: ServerStats| {
            (
                stats.batches_full,
                stats.batches_at_window,
                stats.batches_nobody_could_join,
                stats.batches_on_caller,
            )
        };
        assert_eq!(exits(server.stats()), (0, 1, 0, 0));
        assert_eq!((server.stats().live_clients, server.stats().parked_clients), (2, 0));

        let report = client.lookup_batch_into(tenant, &[4], &mut out).unwrap();
        assert_eq!(out.get(0), Some(&[4u32, 8][..]));
        assert!(report.queue_delay < window, "{report:?}");
        assert_eq!(exits(server.stats()), (0, 1, 0, 1));

        // Dropping the idle handle is the other way the dispatcher learns
        // nobody is coming: a request left behind by a dropped client is
        // served at the drop, not at the window.
        let long = Duration::from_secs(30);
        let server = QueryServer::new(ServerConfig::coalescing(long, 1024));
        let tenant = server.register_store("t", seeded_store(0..8)).unwrap();
        let idle = server.client();
        let mut leaver = server.client();
        let _unharvested = leaver.submit(tenant, &[5]).unwrap();
        drop(leaver);
        assert_eq!(server.stats().batches_formed, 0, "the idle handle holds the batch");
        drop(idle);
        wait_until("the drop releases the batch", || server.stats().requests_completed == 1);
        let stats = server.stats();
        assert_eq!(exits(stats), (0, 0, 1, 0));
        assert!(stats.queue_delay_max < long);
    }

    /// Lost wake-ups. Four pipelined callers at random depths under a 1 s
    /// window: every batch has to run on a waiting caller or leave by a
    /// wake-up — from the caller that parks last, from one that drops its
    /// handle when it is done, or from a batch that frees a core — and one
    /// that goes missing holds a batch until the timer fires.
    #[test]
    fn no_wake_up_is_lost_between_the_last_parker_and_the_dispatcher() {
        const CALLERS: u64 = 4;
        const REQUESTS: u64 = 10_000;
        let window = Duration::from_secs(1);
        let server = Arc::new(QueryServer::new(ServerConfig::coalescing(window, 64)));
        let tenant = server.register_store("t", seeded_store(0..256)).unwrap();
        let started = Instant::now();
        let callers: Vec<_> = (0..CALLERS)
            .map(|c| {
                let mut client = server.client_with_depth(8);
                bounded(move || {
                    let mut out = LookupBuffer::new();
                    let mut in_flight = std::collections::VecDeque::new();
                    // xorshift: a depth in 1..=8 per burst, a key per request.
                    let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ (c + 1);
                    let mut next = move || {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state
                    };
                    let mut sent = 0u64;
                    while sent < REQUESTS || !in_flight.is_empty() {
                        let depth = 1 + (next() % 8) as usize;
                        while sent < REQUESTS && in_flight.len() < depth {
                            let key = next() % 300;
                            let ticket = client.submit(tenant, &[key, key + 1]).unwrap();
                            in_flight.push_back((key, ticket));
                            sent += 1;
                        }
                        let (key, ticket) = in_flight.pop_front().expect("a request in flight");
                        client.wait_into(ticket, &mut out).unwrap();
                        let want = (key < 256).then(|| [key as u32, (key * 2) as u32]);
                        assert_eq!(out.get(0), want.as_ref().map(|v| &v[..]));
                    }
                })
            })
            .collect();
        for caller in callers {
            caller.join("a pipelined caller's requests");
        }
        let elapsed = started.elapsed();
        let stats = server.stats();
        assert_eq!(stats.requests_completed, CALLERS * REQUESTS);
        // A batch whose wake-up went missing leaves when the timer fires,
        // with everyone parked by then: it shows in the longest queue delay.
        assert!(
            stats.queue_delay_max < window,
            "a batch sat out the window with every caller parked ({elapsed:?}, {stats:?})"
        );
        assert_eq!(stats.batches_at_window, 0, "{stats:?}");
        assert_eq!(
            stats.batches_full
                + stats.batches_nobody_could_join
                + stats.batches_for_parked
                + stats.batches_on_caller,
            stats.batches_formed
        );
        assert!(elapsed < 30 * window, "{elapsed:?}");
        assert_eq!((stats.live_clients, stats.parked_clients), (0, 0));
    }

    /// A store that records how many of its calls overlap, and holds each
    /// call for a few microseconds so that batches on different threads meet.
    struct OverlapStore {
        inner: ReferenceStore,
        inside: AtomicUsize,
        most_inside: AtomicUsize,
    }

    impl TupleStore for OverlapStore {
        fn name(&self) -> &str {
            "OVERLAP"
        }

        fn lookup_batch_into(
            &self,
            keys: &[u64],
            out: &mut LookupBuffer,
        ) -> dm_storage::Result<()> {
            let inside = self.inside.fetch_add(1, Ordering::SeqCst) + 1;
            self.most_inside.fetch_max(inside, Ordering::SeqCst);
            let entered = Instant::now();
            while entered.elapsed() < Duration::from_micros(20) {
                std::hint::spin_loop();
            }
            let outcome = self.inner.lookup_batch_into(keys, out);
            self.inside.fetch_sub(1, Ordering::SeqCst);
            outcome
        }

        fn stats(&self) -> dm_storage::StoreStats {
            self.inner.stats()
        }
    }

    /// Callers run, one batch per core: with four clients per core at depth
    /// 4, no more batches than cores are ever inside the store at once, and
    /// the waiters that find every core busy still have their requests
    /// coalesced into the next batch.
    #[test]
    fn more_clients_than_cores_still_coalesce() {
        let rows: Vec<Row> = (0..512u64)
            .map(|k| Row::new(k, vec![k as u32, (k * 2) as u32]))
            .collect();
        let store = Arc::new(OverlapStore {
            inner: ReferenceStore::from_rows(&rows),
            inside: AtomicUsize::new(0),
            most_inside: AtomicUsize::new(0),
        });
        let server = Arc::new(QueryServer::new(ServerConfig::coalescing(
            Duration::from_micros(100),
            256,
        )));
        let tenant = server
            .register_store("t", Arc::clone(&store) as Arc<dyn TupleStore>)
            .unwrap();
        let clients: Vec<_> = (0..4 * cores() as u64)
            .map(|c| {
                let mut client = server.client_with_depth(4);
                bounded(move || {
                    let mut out = LookupBuffer::new();
                    let mut in_flight = std::collections::VecDeque::new();
                    for round in 0..300u64 {
                        if in_flight.len() == 4 {
                            let (key, ticket) = in_flight.pop_front().expect("four in flight");
                            client.wait_into(ticket, &mut out).unwrap();
                            assert_eq!(out.get(0), Some(&[key as u32, (key * 2) as u32][..]));
                        }
                        let key = (c * 97 + round * 13) % 512;
                        in_flight.push_back((key, client.submit(tenant, &[key]).unwrap()));
                    }
                    for (key, ticket) in in_flight {
                        client.wait_into(ticket, &mut out).unwrap();
                        assert_eq!(out.get(0), Some(&[key as u32, (key * 2) as u32][..]));
                    }
                })
            })
            .collect();
        for client in clients {
            client.join("a closed-loop client at depth 4");
        }
        let stats = server.stats();
        let most_inside = store.most_inside.load(Ordering::SeqCst);
        assert!(
            most_inside <= cores(),
            "{most_inside} batches ran at once on {} cores",
            cores()
        );
        assert!(stats.mean_coalesce_width() > 1.0, "{stats:?}");
        assert_eq!(stats.requests_completed, 4 * cores() as u64 * 300);
        assert_eq!(
            stats.batches_full
                + stats.batches_at_window
                + stats.batches_nobody_could_join
                + stats.batches_for_parked
                + stats.batches_on_caller,
            stats.batches_formed
        );
        assert_eq!((stats.live_clients, stats.parked_clients), (0, 0));
    }

    /// A store that panics on as many calls as it is told to, then serves.
    struct PanicStore {
        inner: ReferenceStore,
        panics_left: AtomicUsize,
    }

    impl TupleStore for PanicStore {
        fn name(&self) -> &str {
            "PANIC"
        }

        fn lookup_batch_into(
            &self,
            keys: &[u64],
            out: &mut LookupBuffer,
        ) -> dm_storage::Result<()> {
            let left = self.panics_left.load(Ordering::SeqCst);
            if left > 0 {
                self.panics_left.store(left - 1, Ordering::SeqCst);
                panic!("injected store panic");
            }
            self.inner.lookup_batch_into(keys, out)
        }

        fn stats(&self) -> dm_storage::StoreStats {
            self.inner.stats()
        }
    }

    /// A store that panics hangs nobody. On a caller's thread the panic is
    /// the caller's, and every other request of the batch fails with a typed
    /// `Store` error; its core comes back (one panic per core, and a caller
    /// still runs a batch after them). On the dispatcher the batch fails the
    /// same way and the dispatcher keeps serving.
    #[test]
    fn a_panicking_store_fails_its_batch_and_gives_its_core_back() {
        let rows: Vec<Row> = (0..16u64).map(|k| Row::new(k, vec![k as u32])).collect();
        let store = Arc::new(PanicStore {
            inner: ReferenceStore::from_rows(&rows),
            panics_left: AtomicUsize::new(cores()),
        });
        let server = Arc::new(QueryServer::new(ServerConfig {
            breaker_failure_threshold: 0,
            ..ServerConfig::coalescing(Duration::from_secs(30), 1024)
        }));
        let tenant = server
            .register_store("t", Arc::clone(&store) as Arc<dyn TupleStore>)
            .unwrap();
        let mut bystander = server.client();
        let mut out = LookupBuffer::new();
        for core in 0..cores() as u64 {
            // The bystander's request is queued and not waited on; the
            // runner's wait takes it along into the batch that panics.
            let ticket = bystander.submit(tenant, &[core]).unwrap();
            let for_thread = Arc::clone(&server);
            let runner = bounded(move || {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    for_thread.client().get(tenant, 7)
                }))
            });
            assert!(runner.join("the runner whose batch panics").is_err());
            assert!(matches!(
                bystander.wait_into(ticket, &mut out),
                Err(ServerError::Store(cause)) if cause.contains("panicked")
            ));
        }
        let stats = server.stats();
        assert_eq!((stats.requests_failed, stats.batches_formed), (2 * cores() as u64, 0));
        assert_eq!((stats.live_clients, stats.parked_clients), (1, 0));
        drop(bystander);
        let for_thread = Arc::clone(&server);
        let after = bounded(move || for_thread.client().get(tenant, 3));
        assert_eq!(after.join("a caller after the panics").unwrap(), Some(vec![3]));
        assert_eq!(server.stats().batches_on_caller, 1);

        // The dispatcher: a request nobody waits on, with a short window.
        let server = QueryServer::new(ServerConfig {
            breaker_failure_threshold: 0,
            ..ServerConfig::coalescing(Duration::from_millis(1), 1024)
        });
        let tenant = server
            .register_store("t", Arc::clone(&store) as Arc<dyn TupleStore>)
            .unwrap();
        store.panics_left.store(1, Ordering::SeqCst);
        let mut client = server.client();
        for answer in [None, Some(vec![5])] {
            let ticket = client.submit(tenant, &[5]).unwrap();
            wait_until("the dispatcher takes the request", || client.is_done(&ticket));
            match answer {
                None => assert!(matches!(
                    client.wait_into(ticket, &mut out),
                    Err(ServerError::Store(_))
                )),
                Some(want) => {
                    client.wait_into(ticket, &mut out).unwrap();
                    assert_eq!(out.get(0), Some(&want[..]));
                }
            }
        }
        assert_eq!(server.stats().batches_at_window, 1);
    }

    /// A submission wakes only an idle dispatcher. One client's synchronous
    /// rounds run on the client itself; the first one wakes the idle
    /// dispatcher, which then sleeps on a 1 s deadline through the other 49.
    #[test]
    fn synchronous_rounds_leave_the_dispatcher_asleep() {
        let server = QueryServer::new(ServerConfig::coalescing(Duration::from_secs(1), 1024));
        let tenant = server.register_store("t", seeded_store(0..64)).unwrap();
        let exported =
            dm_obs::registry::global().register_counter("dm_server_dispatcher_wakeups_total");
        let exported_before = exported.value();
        let mut client = server.client();
        let mut out = LookupBuffer::new();
        for key in 0..50u64 {
            let ticket = client.submit(tenant, &[key]).unwrap();
            client.wait_into(ticket, &mut out).unwrap();
            assert_eq!(out.get(0), Some(&[key as u32, (key * 2) as u32][..]));
        }
        let stats = server.stats();
        assert_eq!(stats.batches_on_caller, 50, "{stats:?}");
        assert!(stats.dispatcher_wakeups <= 3, "{stats:?}");
        // Other servers of this process feed the same registry: at least ours.
        assert!(exported.value() >= exported_before + stats.dispatcher_wakeups);
    }

    /// A waiter parked behind the *dispatcher's* batch does not sit out the
    /// window: the dispatcher, done with its batch, runs the queued requests
    /// at once because a client is parked. Every other core stays blocked in
    /// the gated store, so no caller can take them instead.
    #[test]
    fn the_dispatcher_runs_the_batch_of_a_waiter_parked_behind_it() {
        let window = Duration::from_secs(30);
        let server = Arc::new(QueryServer::new(ServerConfig::coalescing(window, 4)));
        let gate = Arc::new(GateStore::new(0..4096));
        let tenant = server
            .register_store("t", Arc::clone(&gate) as Arc<dyn TupleStore>)
            .unwrap();
        // A full batch nobody waits on: the dispatcher takes it and stalls in
        // the store. Its submitter stays alive and unparked, so the window —
        // not "nobody can join" — is what would release anything it queues.
        let mut leaver = server.client();
        let leaving = leaver.submit(tenant, &[1000, 1001, 1002, 1003]).unwrap();
        wait_until("the dispatcher enters the store", || gate.entered() == 1);
        let runners = occupy_every_core(&server, tenant, &gate, 1);
        let for_thread = Arc::clone(&server);
        let waiter = bounded(move || for_thread.client().get(tenant, 2000));
        wait_until("the waiter parks", || server.stats().parked_clients == 1);

        let started = Instant::now();
        gate.open_from(1000);
        assert_eq!(
            waiter.join("the waiter parked behind the dispatcher's batch").unwrap(),
            Some(vec![2000, 4000])
        );
        assert!(started.elapsed() < window);
        let stats = server.stats();
        assert_eq!((stats.batches_full, stats.batches_for_parked), (1, 1), "{stats:?}");

        gate.open_gate();
        for runner in runners {
            assert!(runner.join("a runner's own batch").is_ok());
        }
        let mut out = LookupBuffer::new();
        leaver.wait_into(leaving, &mut out).unwrap();
        assert_eq!(out.get(3), Some(&[1003u32, 2006][..]));
    }

    /// The server-wide histograms are the tenants' merged: after coalesced
    /// traffic to two tenants — one of whose requests fail on a degraded
    /// span — and after inline traffic, every latency field of `stats()`
    /// equals the merge of the two `tenant_tail()`s.
    #[test]
    fn server_wide_latencies_are_the_merge_of_the_tenant_tails() {
        fn assert_stats_merge_tails(server: &QueryServer) {
            let stats = server.stats();
            let mut merged = server.tenant_tail("a").unwrap();
            let b = server.tenant_tail("b").unwrap();
            merged.queue_delay.merge(&b.queue_delay);
            merged.coalesce_wait.merge(&b.coalesce_wait);
            merged.request_wall.merge(&b.request_wall);
            merged.recent_request_wall.merge(&b.recent_request_wall);
            merged.recent_queue_delay.merge(&b.recent_queue_delay);
            let quartet = |h: &dm_obs::HistogramSnapshot| {
                [h.p50(), h.p95(), h.p99(), h.max()].map(Duration::from_nanos)
            };
            assert_eq!(stats.requests_completed, merged.request_wall.count());
            assert_eq!(stats.queue_delay_nanos, merged.queue_delay.sum());
            assert_eq!(stats.coalesce_wait_nanos, merged.coalesce_wait.sum());
            assert_eq!(stats.request_wall_nanos, merged.request_wall.sum());
            assert_eq!(
                [
                    stats.queue_delay_p50,
                    stats.queue_delay_p95,
                    stats.queue_delay_p99,
                    stats.queue_delay_max
                ],
                quartet(&merged.queue_delay)
            );
            assert_eq!(
                [
                    stats.request_wall_p50,
                    stats.request_wall_p95,
                    stats.request_wall_p99,
                    stats.request_wall_max
                ],
                quartet(&merged.request_wall)
            );
            let recent = quartet(&merged.recent_request_wall);
            assert_eq!(stats.recent_requests, merged.recent_request_wall.count());
            assert_eq!(
                [
                    stats.recent_request_wall_p50,
                    stats.recent_request_wall_p95,
                    stats.recent_request_wall_p99
                ],
                [recent[0], recent[1], recent[2]]
            );
            assert_eq!(
                stats.recent_queue_delay_p99,
                Duration::from_nanos(merged.recent_queue_delay.p99())
            );
        }

        for config in [
            ServerConfig::coalescing(Duration::from_micros(300), 64),
            ServerConfig::inline(),
        ] {
            let inline = config.inline;
            let server = QueryServer::new(ServerConfig {
                breaker_failure_threshold: 0,
                ..config
            });
            let a = server.register_store("a", seeded_store(0..100)).unwrap();
            // Keys >= 50 of "b" fail with a per-span mark.
            let flaky = Arc::new(FlakyStore::new(0..100, 50));
            flaky.set_mode(2);
            let b = server
                .register_store("b", Arc::clone(&flaky) as Arc<dyn TupleStore>)
                .unwrap();
            let mut client = server.client_with_depth(4);
            let mut out = LookupBuffer::new();
            let mut failed = 0;
            for round in 0..20u64 {
                let requests = [(a, round), (b, round), (b, 50 + round), (a, 2 * round)];
                if inline {
                    for (tenant, key) in requests {
                        let outcome = client.lookup_batch_into(tenant, &[key], &mut out);
                        failed += outcome.is_err() as u64;
                    }
                    continue;
                }
                let tickets: Vec<Ticket> = requests
                    .iter()
                    .map(|&(tenant, key)| client.submit(tenant, &[key]).unwrap())
                    .collect();
                for ticket in tickets {
                    failed += client.wait_into(ticket, &mut out).is_err() as u64;
                }
            }
            assert_eq!(failed, 20, "inline: {inline}");
            assert_eq!(server.stats().requests_completed, 60);
            assert_stats_merge_tails(&server);
        }
    }

    /// Every request counted as answered or failed was counted as admitted,
    /// on a coalescing server and on an inline one alike: at rest,
    /// `completed + failed = enqueued` and `keys_served ≤ keys_enqueued`.
    #[test]
    fn admission_counts_cover_every_answer_coalesced_and_inline() {
        for config in [
            ServerConfig::coalescing(Duration::from_micros(200), 64),
            ServerConfig::inline(),
        ] {
            let inline = config.inline;
            let server = QueryServer::new(ServerConfig {
                breaker_failure_threshold: 0,
                ..config
            });
            let healthy = server.register_store("a", seeded_store(0..100)).unwrap();
            // Keys >= 50 fail with a per-span mark.
            let flaky = Arc::new(FlakyStore::new(0..100, 50));
            flaky.set_mode(2);
            let degraded = server
                .register_store("b", Arc::clone(&flaky) as Arc<dyn TupleStore>)
                .unwrap();
            let mut client = server.client();
            let mut out = LookupBuffer::new();
            for round in 0..30u64 {
                let keys = [round, round + 1, round + 40];
                client.lookup_batch_into(healthy, &keys, &mut out).unwrap();
                let _ = client.lookup_batch_into(degraded, &keys, &mut out);
                let stats = server.stats();
                assert!(
                    stats.requests_completed + stats.requests_failed <= stats.requests_enqueued,
                    "inline {inline}: {stats:?}"
                );
                assert!(
                    stats.keys_served <= stats.keys_enqueued,
                    "inline {inline}: {stats:?}"
                );
            }
            // Every degraded request from round 10 on touches key 50 or more.
            flaky.set_mode(1);
            assert!(client.lookup_batch_into(degraded, &[1], &mut out).is_err());
            let stats = server.stats();
            assert_eq!(stats.requests_enqueued, 61, "inline {inline}");
            assert_eq!(stats.keys_enqueued, 61 * 3 - 2, "inline {inline}");
            assert_eq!(stats.requests_completed, 30 + 10, "inline {inline}");
            assert_eq!(stats.requests_failed, 20 + 1, "inline {inline}");
            assert_eq!(stats.keys_served, 40 * 3, "inline {inline}");
            assert_eq!(stats.inline_requests, if inline { 40 } else { 0 });
        }
    }

    /// Client threads × pipelined requests on two tenants: every field of
    /// `tenant_tail()` equals, bucket for bucket, a `dm_obs::Histogram` fed
    /// the samples the server's requests recorded, one per answered
    /// request; `stats()` reads their merge, and its `recent_*` fields a
    /// `WindowedHistogram` fed the windowed ones.
    #[test]
    fn stats_and_tails_fold_every_request_sample_exactly() {
        const THREADS: u64 = 3;
        const ROUNDS: u64 = 150;
        let server = Arc::new(QueryServer::new(ServerConfig::coalescing(
            Duration::from_micros(100),
            64,
        )));
        let tenants = [
            server.register_store("a", seeded_store(0..1_000)).unwrap(),
            server.register_store("b", seeded_store(0..1_000)).unwrap(),
        ];
        let clients: Vec<_> = (0..THREADS)
            .map(|thread| {
                let server = Arc::clone(&server);
                bounded(move || {
                    let mut client = server.client();
                    let mut out = LookupBuffer::new();
                    for round in 0..ROUNDS {
                        let tickets: Vec<Ticket> = (0..4u64)
                            .map(|i| {
                                let key = (thread * 331 + round * 7 + i) % 1_200;
                                let keys: Vec<u64> = (key..key + 1 + i).collect();
                                client
                                    .submit(tenants[(round + i) as usize % 2], &keys)
                                    .unwrap()
                            })
                            .collect();
                        for ticket in tickets {
                            client.wait_into(ticket, &mut out).unwrap();
                        }
                    }
                })
            })
            .collect();
        for (thread, client) in clients.into_iter().enumerate() {
            client.join(&format!("client {thread}"));
        }

        let stats = server.stats();
        assert_eq!(stats.requests_completed, THREADS * ROUNDS * 4);
        let mut merged: [dm_obs::HistogramSnapshot; 7] = Default::default();
        let (recent_wall, recent_queue) = (
            dm_obs::WindowedHistogram::default(),
            dm_obs::WindowedHistogram::default(),
        );
        let mut recorded = 0;
        for name in ["a", "b"] {
            let samples = server.recorded_samples(name);
            recorded += samples.len() as u64;
            let tail = server.tenant_tail(name).unwrap();
            let want = stats::reference_tail(&samples);
            assert_eq!(tail.since_boot(), want, "tenant {name}");
            for sample in &samples {
                if let Some(at) = sample.windowed_at {
                    recent_wall.record_at(at, sample.wall_nanos);
                    recent_queue.record_at(at, sample.queue_delay_nanos);
                }
            }
            for (merged, want) in merged.iter_mut().zip(&want) {
                merged.merge(want);
            }
        }
        assert_eq!(recorded, stats.requests_completed);
        let [queue, coalesce, wall, ..] = &merged;
        let quartet = |h: &dm_obs::HistogramSnapshot| [h.p50(), h.p95(), h.p99(), h.max()];
        assert_eq!(wall.count(), stats.requests_completed);
        assert_eq!(
            (
                stats.queue_delay_nanos,
                stats.coalesce_wait_nanos,
                stats.request_wall_nanos
            ),
            (queue.sum(), coalesce.sum(), wall.sum())
        );
        assert_eq!(
            [
                stats.request_wall_p50,
                stats.request_wall_p95,
                stats.request_wall_p99,
                stats.request_wall_max
            ],
            quartet(wall).map(Duration::from_nanos)
        );
        assert_eq!(
            [
                stats.queue_delay_p50,
                stats.queue_delay_p95,
                stats.queue_delay_p99,
                stats.queue_delay_max
            ],
            quartet(queue).map(Duration::from_nanos)
        );
        let (recent_wall, recent_queue) = (recent_wall.snapshot(), recent_queue.snapshot());
        assert_eq!(stats.recent_requests, recent_wall.count());
        assert_eq!(
            [
                stats.recent_request_wall_p50,
                stats.recent_request_wall_p95,
                stats.recent_request_wall_p99,
                stats.recent_queue_delay_p99
            ],
            [
                recent_wall.p50(),
                recent_wall.p95(),
                recent_wall.p99(),
                recent_queue.p99()
            ]
            .map(Duration::from_nanos)
        );
    }

    #[test]
    fn config_normalization_orders_the_watermarks() {
        let config = ServerConfig {
            max_batch_keys: 0,
            max_request_keys: 0,
            queue_capacity_keys: 0,
            shed_high_watermark_keys: 10_000,
            shed_low_watermark_keys: 20_000,
            ..ServerConfig::default()
        };
        let server = QueryServer::new(config);
        let c = server.config();
        assert!(c.max_batch_keys >= 1);
        assert!(c.max_request_keys >= 1);
        assert!(c.queue_capacity_keys >= c.max_batch_keys);
        assert!(c.shed_high_watermark_keys <= c.queue_capacity_keys);
        assert!(c.shed_low_watermark_keys <= c.shed_high_watermark_keys);
    }
}
