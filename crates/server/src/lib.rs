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
//!   inference-sized merged batches. A forming batch leaves by the first of
//!   three exits: [`max_batch_keys`](ServerConfig::max_batch_keys) are
//!   pending (*full*), *nobody can join* — every live [`ServerClient`] of
//!   the server is parked in `wait_into`, and a parked client cannot submit
//!   — or its oldest request has waited
//!   [`max_delay`](ServerConfig::max_delay) (*window*). `max_delay` is
//!   therefore the most a request donates while someone still could join: a
//!   client that is alive and not parked (idle, busy elsewhere, polling
//!   [`is_done`](ServerClient::is_done)) holds the window open, synchronous
//!   and pipelined callers that are all blocked on the server never sit it
//!   out, and a handle that will not submit again should be dropped.
//!   [`ServerStats`] counts the batches that left by each exit;
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
//!   coalesce width, batches formed and why each left, shed count,
//!   per-request wall time, the census of live and parked clients.
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
//! One plain OS dispatcher thread per server, deliberately outside the
//! dm-exec pool: under `DM_EXEC_THREADS=1` the merged batch simply executes
//! serially inside the store while the dispatcher keeps coalescing — the
//! server degrades to inline serial execution instead of deadlocking.
//! [`ServerConfig::inline`] removes the dispatcher entirely (requests run
//! synchronously on caller threads), which is both the uncoalesced baseline
//! for benches and the simplest mode for single-threaded tests.

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
    use std::sync::Arc;
    use std::time::Duration;

    fn seeded_store(keys: std::ops::Range<u64>) -> Arc<dyn TupleStore> {
        let rows: Vec<Row> = keys
            .map(|k| Row::new(k, vec![k as u32, (k * 2) as u32]))
            .collect();
        Arc::new(ReferenceStore::from_rows(&rows))
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
    /// dispatcher mid-batch so queue buildup is deterministic.
    struct GateStore {
        inner: ReferenceStore,
        open: std::sync::Mutex<bool>,
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
                open: std::sync::Mutex::new(false),
                cv: std::sync::Condvar::new(),
                entered: std::sync::atomic::AtomicUsize::new(0),
            }
        }

        fn entered(&self) -> usize {
            self.entered.load(std::sync::atomic::Ordering::Acquire)
        }

        fn open_gate(&self) {
            *self.open.lock().unwrap() = true;
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
            let mut open = self.open.lock().unwrap();
            while !*open {
                open = self.cv.wait(open).unwrap();
            }
            drop(open);
            self.inner.lookup_batch_into(keys, out)
        }

        fn stats(&self) -> dm_storage::StoreStats {
            self.inner.stats()
        }
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
        // Long deadline so queued requests are still pending at shutdown —
        // and an idle client kept alive, or the lone parked waiter would
        // leave nobody to wait for and be served at once.
        let config = ServerConfig {
            max_batch_keys: 1024,
            max_delay: Duration::from_secs(30),
            ..ServerConfig::default()
        };
        let server = Arc::new(QueryServer::new(config));
        let tenant = server.register_store("t", seeded_store(0..8)).unwrap();
        let _idle = server.client();

        let (tx, rx) = std::sync::mpsc::channel();
        let for_thread = Arc::clone(&server);
        let waiter = std::thread::spawn(move || {
            let mut client = for_thread.client();
            let ticket = client.submit(tenant, &[1, 2]).unwrap();
            let mut out = LookupBuffer::new();
            let outcome = client.wait_into(ticket, &mut out);
            tx.send(outcome).unwrap();
        });

        // Shut down once the waiter has parked.
        while server.stats().parked_clients == 0 {
            std::thread::yield_now();
        }
        server.shutdown();
        let outcome = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("waiter must be released by shutdown, not hang");
        assert_eq!(outcome.unwrap_err(), ServerError::ShuttingDown);
        waiter.join().unwrap();

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
        // A window nobody waits out: the only client is parked, so each
        // batch leaves because nobody could join, and says so.
        let config = ServerConfig {
            slow_request: Some(Duration::ZERO),
            ..ServerConfig::coalescing(Duration::from_secs(30), 64)
        };
        let exported = dm_obs::registry::global()
            .register_counter("dm_server_batches_nobody_could_join_total");
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
                .all(|c| c.detail.ends_with("batch_keys=1 left=nobody_could_join")),
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

    /// The third exit. K synchronous callers released together each park in
    /// `wait_into`; the one that makes `parked == live` wakes the dispatcher
    /// and the batch leaves K wide — with a window (2 s) that 50 rounds
    /// together must not add up to, where the parent sat out one per round.
    #[test]
    fn a_batch_leaves_as_soon_as_every_live_client_is_parked() {
        let window = Duration::from_secs(2);
        for callers in [1usize, 2, 4] {
            let server = QueryServer::new(ServerConfig::coalescing(window, 1024));
            let tenant = server.register_store("t", seeded_store(0..64)).unwrap();
            let mut clients: Vec<ServerClient> = (0..callers).map(|_| server.client()).collect();
            let round_start = std::sync::Barrier::new(callers);
            let started = std::time::Instant::now();
            std::thread::scope(|scope| {
                for (c, client) in clients.iter_mut().enumerate() {
                    let round_start = &round_start;
                    scope.spawn(move || {
                        for round in 0..50u64 {
                            // Nobody submits round r + 1 before all of round
                            // r was answered, so every batch is one round.
                            round_start.wait();
                            let key = (round + c as u64) % 64;
                            assert_eq!(
                                client.get(tenant, key).unwrap(),
                                Some(vec![key as u32, (key * 2) as u32])
                            );
                        }
                    });
                }
            });
            let elapsed = started.elapsed();
            assert!(
                elapsed < window,
                "{callers} callers: 50 rounds took {elapsed:?}, a {window:?} window was sat out"
            );
            let stats = server.stats();
            assert_eq!(stats.batches_formed, 50, "{callers} callers");
            assert_eq!(stats.batches_nobody_could_join, 50, "{callers} callers");
            assert_eq!((stats.batches_full, stats.batches_at_window), (0, 0));
            assert_eq!(stats.batched_requests, 50 * callers as u64);
            assert_eq!(stats.max_coalesce_width, callers as u64);
            assert_eq!((stats.live_clients, stats.parked_clients), (callers as u64, 0));
            drop(clients);
            assert_eq!(server.stats().live_clients, 0);
        }
    }

    /// What holds a window open: a client that is alive and not parked. The
    /// same lone request, with an idle handle beside it, waits out
    /// `max_delay` exactly as it did before the third exit existed.
    #[test]
    fn an_idle_client_holds_the_window_open_for_a_lone_request() {
        let window = Duration::from_millis(40);
        let server = QueryServer::new(ServerConfig::coalescing(window, 1024));
        let tenant = server.register_store("t", seeded_store(0..8)).unwrap();
        let mut client = server.client();
        let _idle = server.client();
        let mut out = LookupBuffer::new();
        let report = client.lookup_batch_into(tenant, &[3], &mut out).unwrap();
        assert_eq!(out.get(0), Some(&[3u32, 6][..]));
        assert!(report.queue_delay >= window, "{report:?}");
        let stats = server.stats();
        assert_eq!(
            (stats.batches_full, stats.batches_at_window, stats.batches_nobody_could_join),
            (0, 1, 0)
        );
        assert_eq!((stats.live_clients, stats.parked_clients), (2, 0));

        // Dropping the idle handle is the other way a batch learns nobody is
        // coming: a waiter parked beside it is served at the drop, not at
        // the window.
        let long = Duration::from_secs(30);
        let server = Arc::new(QueryServer::new(ServerConfig::coalescing(long, 1024)));
        let tenant = server.register_store("t", seeded_store(0..8)).unwrap();
        let idle = server.client();
        let for_thread = Arc::clone(&server);
        let waiter = std::thread::spawn(move || for_thread.client().get(tenant, 5));
        while server.stats().parked_clients == 0 {
            std::thread::yield_now();
        }
        assert_eq!(server.stats().batches_formed, 0, "the idle handle holds the batch");
        drop(idle);
        assert_eq!(waiter.join().unwrap().unwrap(), Some(vec![5, 10]));
        let stats = server.stats();
        assert_eq!((stats.batches_formed, stats.batches_nobody_could_join), (1, 1));
        assert!(stats.queue_delay_max < long);
    }

    /// Lost wake-ups. Four pipelined callers at random depths under a 1 s
    /// window: every batch has to leave by a wake-up — from the caller that
    /// parks last, or from one that drops its handle when it is done — and
    /// one that goes missing holds a batch until the timer fires.
    #[test]
    fn no_wake_up_is_lost_between_the_last_parker_and_the_dispatcher() {
        const CALLERS: u64 = 4;
        const REQUESTS: u64 = 10_000;
        let window = Duration::from_secs(1);
        let server = QueryServer::new(ServerConfig::coalescing(window, 64));
        let tenant = server.register_store("t", seeded_store(0..256)).unwrap();
        let started = std::time::Instant::now();
        std::thread::scope(|scope| {
            for c in 0..CALLERS {
                let server = &server;
                scope.spawn(move || {
                    let mut client = server.client_with_depth(8);
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
                });
            }
        });
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
            stats.batches_full + stats.batches_nobody_could_join,
            stats.batches_formed
        );
        assert!(elapsed < 30 * window, "{elapsed:?}");
        assert_eq!((stats.live_clients, stats.parked_clients), (0, 0));
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
