//! End-to-end guarantees of the `dm-server` subsystem against real
//! DeepMapping tenants:
//!
//! * interleaved concurrent small requests through a coalescing
//!   [`QueryServer`] return **byte-identical** results to calling
//!   `TupleStore::lookup_batch` directly on the same store — hits, misses and
//!   values alike,
//! * a tenant whose deletes live in the WAL overlay (PersistentStore create →
//!   delete → reopen) serves the same post-delete answers through the server,
//! * multi-tenant routing never leaks a key across stores,
//! * snapshot tenants open lazily — registration touches nothing, the first
//!   request pays the open, the second tenant stays unopened until used,
//! * shutdown fails queued waiters with a typed error, never a hang,
//! * the server's census — parked clients and queued keys — balances after
//!   every way a request can end, a dropped client's queued requests among
//!   them: those are cancelled, never served.
//!
//! Every threaded step is joined with a deadline: a lost wake-up fails the
//! step that stalled instead of hanging the suite.

use deepmapping::faults::{FaultPlan, Faults};
use deepmapping::prelude::*;
use deepmapping::storage::StorageError;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The longest a test waits for any one threaded step.
const STALL: Duration = Duration::from_secs(10);

/// A thread the test joins with a deadline.
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

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dm-server-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Half-learnable rows so model hits, aux-table corrections and misses all
/// occur in every batch.
fn noisy_rows(n: u64, seed: u64) -> Vec<Row> {
    (0..n)
        .map(|k| {
            let h = (k ^ seed).wrapping_mul(0x9E3779B97F4A7C15) >> 17;
            Row::new(k, vec![((k / 16) % 4) as u32, (h % 5) as u32])
        })
        .collect()
}

fn quick_build(rows: &[Row]) -> DeepMapping {
    DeepMappingBuilder::dm_z()
        .training(TrainingConfig {
            epochs: 8,
            batch_size: 1024,
            ..TrainingConfig::default()
        })
        .partition_bytes(4 * 1024)
        .disk_profile(DiskProfile::free())
        .build(rows)
        .expect("build DeepMapping")
}

#[test]
fn interleaved_concurrent_requests_match_direct_lookups_byte_for_byte() {
    let rows = noisy_rows(3_000, 7);
    let dm: Arc<DeepMapping> = Arc::new(quick_build(&rows));
    let store: Arc<dyn TupleStore> = Arc::clone(&dm) as Arc<dyn TupleStore>;

    let server = QueryServer::new(ServerConfig::coalescing(Duration::from_micros(100), 256));
    let tenant = server.register_store("dm", Arc::clone(&store)).unwrap();

    // 4 client threads interleave small requests of varying shapes; each
    // compares the server's answer against a direct lookup on the same store.
    // Two of them call synchronously, two keep three requests in flight and
    // compare the demuxed buffer with the store's own `lookup_batch_into` —
    // whichever client runs a batch, and why, the bytes are the store's.
    let shape = |t: u64, round: u64| -> Vec<u64> {
        let base = (t * 811 + round * 13) % 3_400;
        match round % 3 {
            0 => vec![base],
            1 => vec![base, base + 1_700, base + 500_000],
            _ => (base..base + 7).collect(),
        }
    };
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let server = &server;
            let dm = &dm;
            scope.spawn(move || {
                let mut client = server.client();
                if t % 2 == 0 {
                    for round in 0..150u64 {
                        let keys = shape(t, round);
                        let via_server = client.lookup_batch(tenant, &keys).unwrap();
                        let direct = dm.lookup_batch(&keys).unwrap();
                        assert_eq!(
                            via_server, direct,
                            "thread {t} round {round}: server answer diverged for {keys:?}"
                        );
                    }
                    return;
                }
                let (mut via_server, mut direct) = (LookupBuffer::new(), LookupBuffer::new());
                let mut in_flight = VecDeque::new();
                let mut sent = 0u64;
                while sent < 150 || !in_flight.is_empty() {
                    while sent < 150 && in_flight.len() < 3 {
                        let keys = shape(t, sent);
                        in_flight.push_back((client.submit(tenant, &keys).unwrap(), keys));
                        sent += 1;
                    }
                    let (ticket, keys) = in_flight.pop_front().expect("a request in flight");
                    client.wait_into(ticket, &mut via_server).unwrap();
                    dm.lookup_batch_into(&keys, &mut direct).unwrap();
                    assert_eq!(via_server.len(), keys.len());
                    assert!(
                        via_server.iter().eq(direct.iter()),
                        "thread {t}: pipelined answer diverged for {keys:?}"
                    );
                }
            });
        }
    });

    let stats = server.stats();
    assert_eq!(stats.requests_completed, 4 * 150);
    assert_eq!(stats.requests_failed, 0);
    assert!(stats.batches_formed > 0);
    assert_eq!(
        stats.batches_full + stats.batches_at_window + stats.batches_on_caller,
        stats.batches_formed,
        "every batch ran for exactly one reason: {stats:?}"
    );
    assert_eq!((stats.parked_clients, stats.queued_keys), (0, 0));
    assert!(
        stats.batches_formed < stats.requests_completed,
        "coalescing never merged anything: {} batches for {} requests",
        stats.batches_formed,
        stats.requests_completed
    );
}

#[test]
fn wal_overlay_deletes_are_visible_through_the_server() {
    let dir = temp_dir("wal-overlay");
    let path = dir.join("tenant.dmss");
    let rows = noisy_rows(1_200, 3);
    let dm = quick_build(&rows);
    let mut persistent = PersistentStore::create(dm, &path).expect("create persistent store");

    // Delete a stripe and update a few rows: both land in the WAL, not the
    // snapshot, so a reopen serves them from the replayed overlay.
    let deleted: Vec<u64> = (0..1_200).step_by(9).collect();
    persistent.delete(&deleted).unwrap();
    persistent
        .update(&[Row::new(4, vec![3, 3]), Row::new(13, vec![2, 1])])
        .unwrap();
    drop(persistent);

    let reopened = PersistentStore::open(&path).expect("reopen with WAL replay");
    let probe: Vec<u64> = (0..1_260).collect();
    let expected = reopened.lookup_batch(&probe).unwrap();
    assert!(expected[0].is_none(), "key 0 was deleted via the WAL");
    assert_eq!(expected[4].as_deref(), Some(&[3u32, 3][..]));

    let server = QueryServer::new(ServerConfig::coalescing(Duration::from_micros(100), 128));
    let store: Arc<dyn TupleStore> = Arc::new(reopened);
    let tenant = server.register_store("walled", store).unwrap();
    let mut client = server.client();
    for chunk in probe.chunks(11) {
        let got = client.lookup_batch(tenant, chunk).unwrap();
        let want: Vec<_> = chunk
            .iter()
            .map(|&k| expected[k as usize].clone())
            .collect();
        assert_eq!(got, want, "overlay answers diverged for {chunk:?}");
    }
}

#[test]
fn multi_tenant_routing_keeps_stores_separate() {
    let rows_a = noisy_rows(900, 11);
    let rows_b = noisy_rows(900, 77);
    let a: Arc<dyn TupleStore> = Arc::new(quick_build(&rows_a));
    let b: Arc<dyn TupleStore> = Arc::new(quick_build(&rows_b));

    let server = QueryServer::new(ServerConfig::coalescing(Duration::from_micros(80), 128));
    let ta = server.register_store("a", Arc::clone(&a)).unwrap();
    let tb = server.register_store("b", Arc::clone(&b)).unwrap();
    assert_eq!(server.tenant("a").unwrap(), ta);
    assert_eq!(server.tenant("b").unwrap(), tb);

    // Interleave requests against both tenants from two threads; answers must
    // match each tenant's own store even when coalesced back-to-back.
    std::thread::scope(|scope| {
        for (tenant, store) in [(ta, &a), (tb, &b)] {
            let server = &server;
            scope.spawn(move || {
                let mut client = server.client();
                for round in 0..80u64 {
                    let keys: Vec<u64> = (round * 9..round * 9 + 5).collect();
                    let got = client.lookup_batch(tenant, &keys).unwrap();
                    let want = store.lookup_batch(&keys).unwrap();
                    assert_eq!(got, want);
                }
            });
        }
    });
    assert_eq!(server.stats().requests_failed, 0);
}

#[test]
fn snapshot_tenants_open_lazily_on_first_request() {
    let dir = temp_dir("lazy-open");
    let path_a = dir.join("a.dmss");
    let path_b = dir.join("b.dmss");
    let rows = noisy_rows(1_000, 5);
    let dm = quick_build(&rows);
    let expected = dm.lookup_batch(&[1, 500, 2_000]).unwrap();
    dm.write_snapshot(&path_a).expect("write snapshot a");
    dm.write_snapshot(&path_b).expect("write snapshot b");
    drop(dm);

    let server = QueryServer::new(ServerConfig::coalescing(Duration::from_micros(100), 128));
    let ta = server.register_snapshot("a", &path_a).unwrap();
    let _tb = server.register_snapshot("b", &path_b).unwrap();
    assert_eq!(
        server.tenants(),
        vec![("a".to_string(), false), ("b".to_string(), false)],
        "registration must not open any snapshot"
    );
    assert_eq!(server.stats().tenants_opened, 0);

    let mut client = server.client();
    let got = client.lookup_batch(ta, &[1, 500, 2_000]).unwrap();
    assert_eq!(got, expected);

    let stats = server.stats();
    assert_eq!(stats.tenants_opened, 1, "only the touched tenant opens");
    assert_eq!(
        server.tenants(),
        vec![("a".to_string(), true), ("b".to_string(), false)]
    );
    assert!(stats.tenant_open_nanos > 0);
}

#[test]
fn shutdown_releases_queued_waiters_with_a_typed_error() {
    let store = Arc::new(Moody::new(quick_build(&noisy_rows(600, 1))));
    store.set_closed(true);
    // A deadline far in the future, and every core busy in the stalled store:
    // queued requests stay pending until shutdown reaches them.
    let server = Arc::new(QueryServer::new(ServerConfig::coalescing(
        Duration::from_secs(60),
        1_000_000,
    )));
    let tenant = server
        .register_store("t", Arc::clone(&store) as Arc<dyn TupleStore>)
        .unwrap();
    let runners = occupy_every_core(&server, tenant, &store, 0);

    let waiters: Vec<_> = (0..3u64)
        .map(|w| {
            let server = Arc::clone(&server);
            bounded(move || {
                let mut client = server.client();
                let ticket = client.submit(tenant, &[w, w + 100]).unwrap();
                let mut out = LookupBuffer::new();
                client.wait_into(ticket, &mut out)
            })
        })
        .collect();
    wait_until("three waiters park", || server.stats().parked_clients == 3);
    server.shutdown();

    for waiter in waiters {
        let outcome = waiter.join("every queued waiter is released by shutdown");
        assert!(
            matches!(outcome, Err(ServerError::ShuttingDown)),
            "expected ShuttingDown, got {outcome:?}"
        );
    }
    // The batches already in the store finish on their callers' threads.
    store.set_closed(false);
    for runner in runners {
        assert!(runner.join("a running batch finishes after shutdown").is_ok());
    }
    assert_eq!(server.stats().requests_failed, 3);
}

/// A tenant that can be told to stall inside the store (so requests queue up
/// behind the batch in flight) or to fail a whole batch.
struct Moody {
    inner: DeepMapping,
    closed: Mutex<bool>,
    opened: Condvar,
    entered: AtomicUsize,
    failing: AtomicBool,
}

impl Moody {
    fn new(inner: DeepMapping) -> Self {
        Moody {
            inner,
            closed: Mutex::new(false),
            opened: Condvar::new(),
            entered: AtomicUsize::new(0),
            failing: AtomicBool::new(false),
        }
    }

    fn set_closed(&self, closed: bool) {
        *self.closed.lock().unwrap() = closed;
        self.opened.notify_all();
    }
}

impl TupleStore for Moody {
    fn name(&self) -> &str {
        "MOODY"
    }

    fn lookup_batch_into(
        &self,
        keys: &[u64],
        out: &mut LookupBuffer,
    ) -> std::result::Result<(), StorageError> {
        self.entered.fetch_add(1, Ordering::SeqCst);
        let mut closed = self.closed.lock().unwrap();
        while *closed {
            closed = self.opened.wait(closed).unwrap();
        }
        drop(closed);
        if self.failing.load(Ordering::SeqCst) {
            return Err(StorageError::Io("injected batch failure".into()));
        }
        TupleStore::lookup_batch_into(&self.inner, keys, out)
    }

    fn stats(&self) -> StoreStats {
        TupleStore::stats(&self.inner)
    }
}

/// Starts caller-run batches, one at a time, until `cores()` batches are
/// inside the closed `store` (`busy` of them already are): from then on a
/// waiter finds no core free and parks with its request queued.
fn occupy_every_core(
    server: &Arc<QueryServer>,
    tenant: TenantId,
    store: &Moody,
    busy: usize,
) -> Vec<Bounded<Result<Option<Vec<u32>>, ServerError>>> {
    let entered = store.entered.load(Ordering::SeqCst);
    (busy..cores())
        .map(|core| {
            let server = Arc::clone(server);
            let runner = bounded(move || server.client().get(tenant, 2_000 + core as u64));
            wait_until("a runner enters the stalled store", || {
                store.entered.load(Ordering::SeqCst) == entered + core + 1 - busy
            });
            runner
        })
        .collect()
}

/// Every way a request can end hands its waiter back exactly once: after
/// pipelined traffic at depths 1–8 over a partition that keeps failing
/// (typed `PartialFailure`s), a store error, queued requests outwaiting
/// `request_deadline`, a client dropped with tickets it never harvested, and
/// `shutdown()` with waiters parked, nobody is still counted as parked and
/// no key is still counted as queued.  A parked count that drifted up would
/// run handoffs for nobody ever after; one that drifted down would strand a
/// waiter.
#[test]
fn the_client_census_balances_however_requests_end() {
    // Half of the rows are corrected, so most requests over the faulted
    // partition hold a key that depends on it and fail for real.
    let mut dm = quick_build(&noisy_rows(3_000, 11));
    let probe: Vec<u64> = (0..3_100u64).collect();
    let healthy = dm.lookup_batch(&probe).unwrap();
    let directory = dm.aux_table().partition_directory();
    assert!(directory.len() >= 2, "need a partition to fault and one to spare");
    let (faulted_from, faulted_to) = (directory[0].min_key, directory[0].max_key);
    dm.inject_faults(Faults::new(
        FaultPlan::seeded(11)
            .with_read_transient(1.0)
            .with_read_partitions(vec![0]),
    ));
    let store = Arc::new(Moody::new(dm));

    let deadline = Duration::from_millis(100);
    let server = Arc::new(QueryServer::new(ServerConfig {
        request_deadline: Some(deadline),
        breaker_failure_threshold: 0,
        ..ServerConfig::coalescing(Duration::from_micros(200), 64)
    }));
    let tenant = server
        .register_store("moody", Arc::clone(&store) as Arc<dyn TupleStore>)
        .unwrap();
    let census = |server: &QueryServer| {
        let stats = server.stats();
        (stats.parked_clients, stats.queued_keys)
    };
    // Held to the end: the census is checked with a handle alive, too.
    let mut main_client = server.client_with_depth(8);
    let mut out = LookupBuffer::new();

    // 1. Pipelined traffic, depths 1, 2, 4 and 8, half of it over the faulted
    //    partition.  Answers are the store's or a typed error.
    let healthy = Arc::new(healthy);
    let pipelines: Vec<_> = [1usize, 2, 4, 8]
        .into_iter()
        .enumerate()
        .map(|(t, depth)| {
            let (server, healthy) = (Arc::clone(&server), Arc::clone(&healthy));
            bounded(move || {
                let mut client = server.client_with_depth(depth);
                let mut out = LookupBuffer::new();
                let mut in_flight = VecDeque::new();
                let mut sent = 0u64;
                while sent < 120 || !in_flight.is_empty() {
                    while sent < 120 && in_flight.len() < depth {
                        let base = if sent.is_multiple_of(2) {
                            faulted_from + (sent * 7 + t as u64) % (faulted_to - faulted_from)
                        } else {
                            (t as u64 * 701 + sent * 29) % 3_090
                        };
                        let keys: Vec<u64> = (base..base + 1 + sent % 5).collect();
                        in_flight.push_back((client.submit(tenant, &keys).unwrap(), keys));
                        sent += 1;
                    }
                    let (ticket, keys) = in_flight.pop_front().expect("a request in flight");
                    match client.wait_into(ticket, &mut out) {
                        Ok(_) => {
                            for (i, &key) in keys.iter().enumerate() {
                                assert_eq!(
                                    out.get(i),
                                    healthy[key as usize].as_deref(),
                                    "key {key} answered wrongly"
                                );
                            }
                        }
                        // A loud host can push a request past the deadline;
                        // that is a typed end as well.
                        Err(ServerError::PartialFailure { .. } | ServerError::Timeout { .. }) => {}
                        Err(other) => panic!("untyped end of a request: {other:?}"),
                    }
                }
            })
        })
        .collect();
    for pipeline in pipelines {
        pipeline.join("pipelined traffic over the faulted partition");
    }
    assert!(server.stats().partial_failures > 0, "the faulted partition never failed");
    assert_eq!(census(&server), (0, 0));

    // 2. A batch the store fails outright.
    store.failing.store(true, Ordering::SeqCst);
    let healthy_key = faulted_to + 1;
    assert!(matches!(
        main_client.get(tenant, healthy_key),
        Err(ServerError::Store(_))
    ));
    store.failing.store(false, Ordering::SeqCst);
    assert_eq!(census(&server), (0, 0));

    // 3. Requests that outwait their deadline behind stalled batches.
    store.set_closed(true);
    let runners = occupy_every_core(&server, tenant, &store, 0);
    let stale: Vec<Ticket> = (0..3)
        .map(|i| main_client.submit(tenant, &[healthy_key + i]).unwrap())
        .collect();
    assert_eq!(census(&server), (0, 3));
    std::thread::sleep(deadline + Duration::from_millis(10));
    store.set_closed(false);
    for runner in runners {
        assert!(runner.join("a stalled batch").is_ok());
    }
    for ticket in stale {
        assert!(matches!(
            main_client.wait_into(ticket, &mut out),
            Err(ServerError::Timeout { .. })
        ));
    }
    assert_eq!(census(&server), (0, 0));

    // 4. A client dropped with tickets nobody will harvest: its requests,
    //    queued behind stalled batches, leave the queue with it and count as
    //    failed.  The next waiter's batch holds its own request only.
    store.set_closed(true);
    let runners = occupy_every_core(&server, tenant, &store, 0);
    let failed = server.stats().requests_failed;
    let mut leaver = server.client_with_depth(4);
    let _unharvested: Vec<Ticket> = (0..3)
        .map(|i| leaver.submit(tenant, &[healthy_key + i]).unwrap())
        .collect();
    assert_eq!(census(&server), (0, 3));
    drop(leaver);
    assert_eq!(census(&server), (0, 0));
    assert_eq!(server.stats().requests_failed, failed + 3);
    store.set_closed(false);
    for runner in runners {
        assert!(runner.join("a stalled batch").is_ok());
    }
    let (entered, before) = (store.entered.load(Ordering::SeqCst), server.stats());
    assert_eq!(
        main_client.get(tenant, healthy_key).unwrap(),
        healthy[healthy_key as usize]
    );
    let after = server.stats();
    assert_eq!(store.entered.load(Ordering::SeqCst), entered + 1);
    assert_eq!(
        (
            after.batched_requests - before.batched_requests,
            after.keys_served - before.keys_served,
            after.requests_failed
        ),
        (1, 1, failed + 3),
        "the leaver's requests never reached the store"
    );
    assert_eq!(census(&server), (0, 0));

    // 5. Shutdown with two waiters parked on requests queued while every
    //    core is stalled in a caller's batch.
    store.set_closed(true);
    let runners = occupy_every_core(&server, tenant, &store, 0);
    let waiters: Vec<_> = (0..2u64)
        .map(|w| {
            let server = Arc::clone(&server);
            bounded(move || server.client().get(tenant, healthy_key + w))
        })
        .collect();
    wait_until("both waiters park", || census(&server) == (2, 2));
    // Shutdown fails what is queued and returns: it waits for no batch.
    let stopper = {
        let server = Arc::clone(&server);
        bounded(move || server.shutdown())
    };
    stopper.join("shutdown returns");
    assert_eq!(census(&server), (0, 0));
    for waiter in waiters {
        assert!(matches!(
            waiter.join("a parked waiter released by shutdown"),
            Err(ServerError::ShuttingDown)
        ));
    }
    store.set_closed(false);
    for runner in runners {
        assert!(runner.join("a caller's stalled batch").is_ok());
    }
    assert_eq!(census(&server), (0, 0));
    assert!(matches!(
        main_client.get(tenant, healthy_key),
        Err(ServerError::ShuttingDown)
    ));
    drop(main_client);
    assert_eq!(census(&server), (0, 0));
    let stats = server.stats();
    assert_eq!(
        stats.batches_full + stats.batches_at_window + stats.batches_on_caller,
        stats.batches_formed
    );
}
