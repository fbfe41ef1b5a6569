//! Guard: a steady-state lookup allocates nothing.
//!
//! Every per-call cost of the query pipeline is paid once per buffer, not once
//! per batch: the route and probe-plan vectors and the predictions live in
//! the caller's reused [`LookupBuffer`], the walk's working memory and the
//! trace's event array are kept per thread, and warm partitions are served
//! from the buffer pool.  This binary installs a counting global allocator —
//! it counts per thread, so the test harness's other threads do not leak into
//! a reading — and holds `lookup_batch_into` on a reused buffer to zero
//! allocations for batches of 1, 64 and 4 096 keys, on an in-memory store and
//! on the same store reopened from its snapshot file, with observability on
//! and off — and again beside a live overlay of inserts, updates and deletes,
//! whose batches hit delta keys, tombstoned keys and partition keys.
//!
//! The stores are built with the default configuration: a batch runs on the
//! thread that asks for it, so the guard holds for every store.
//!
//! One layer up, a served request allocates nothing either: steady-state
//! rounds of four pipelined `submit`s and their `wait_into`s, on a coalescing
//! `QueryServer` (the client runs each batch on its own thread) and on an
//! inline one, with observability on and off — the request's slot, its
//! batch's buffers and its latency sample are all reused.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use deepmapping::obs;
use deepmapping::prelude::*;

/// The system allocator, counting the allocations of each thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // Gone only while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the calling thread has made so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Serializes the tests: they flip the process-global `DM_OBS` switch.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dm-alloc-guard-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A store with keys on both routes: a learnable column beside one
/// that is noise on every seventh row, so the auxiliary table holds several
/// partitions.  Keys are even; odd keys are misses.
fn build_store() -> DeepMapping {
    let rows: Vec<Row> = (0..6_000u64)
        .map(|k| {
            let noisy = (k % 7 == 3) as u32 * (k as u32 % 97);
            Row::new(k * 2, vec![((k / 16) % 5) as u32, noisy])
        })
        .collect();
    let dm = DeepMappingBuilder::dm_z()
        .training(TrainingConfig::quick())
        .partition_bytes(8 * 1024)
        .build(&rows)
        .expect("build store");
    assert!(dm.aux_table().partition_count() >= 2, "{dm:?}");
    dm
}

/// Batches of 1, 64 and 4 096 keys: hits on both routes, misses, duplicates
/// and keys past the end.
fn batches(dm: &DeepMapping) -> Vec<Vec<u64>> {
    let batches: Vec<Vec<u64>> = vec![
        vec![6],
        (0..64u64).map(|i| i * 37 % 12_100).collect(),
        (0..4_096u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 12_500).collect(),
    ];
    for keys in &batches[1..] {
        let corrected = keys.iter().filter(|&&k| dm.corrected().get(k)).count();
        let existing = keys.iter().filter(|&&k| dm.existence().get(k)).count();
        assert!(corrected > 0 && existing > corrected, "both routes: {corrected} of {existing}");
    }
    batches
}

/// Writes a live overlay into `dm` and returns the keys the writes touched:
/// inserts of odd keys the model does not guess, noise updates of live keys
/// and deletes, none of them enough to trigger a retrain.
fn write_overlay(dm: &mut DeepMapping) -> Vec<u64> {
    let inserts: Vec<Row> = (0..300u64).map(|i| Row::new(40 * i + 1, vec![(i % 3) as u32 + 1, 50])).collect();
    let updates: Vec<Row> = (0..300u64).map(|i| Row::new(40 * i + 14, vec![4, (i % 89) as u32])).collect();
    let deletes: Vec<u64> = (0..300u64).map(|i| 40 * i + 28).collect();
    dm.insert_rows(&inserts).expect("insert");
    dm.update_rows(&updates).expect("update");
    dm.delete_keys(&deletes).expect("delete");
    let aux = dm.aux_table();
    assert!(aux.delta_len() > 0 && aux.tombstone_count() > 0, "{aux:?}");
    assert_eq!(dm.retrain_count(), 0);
    let touched = inserts.iter().chain(&updates).map(|row| row.key);
    touched.chain(deletes).collect()
}

/// Asserts that the larger `batches` hit every kind of key the overlay
/// splits the corrected ones into.
fn assert_batches_cross_the_overlay(dm: &DeepMapping, touched: &[u64]) {
    let base = dm.aux_table().base();
    for keys in &batches(dm)[1..] {
        let corrected = |&&k: &&u64| dm.corrected().get(k);
        let delta = keys.iter().filter(corrected).filter(|&&k| !base.get(k) || touched.contains(&k)).count();
        let tombstoned = keys.iter().filter(|&&k| base.get(k) && touched.contains(&k)).count();
        let partition = keys.iter().filter(corrected).filter(|&&k| base.get(k) && !touched.contains(&k)).count();
        assert!(
            delta > 0 && tombstoned > 0 && partition > 0,
            "{} keys: {delta} delta, {tombstoned} tombstoned, {partition} partition",
            keys.len()
        );
    }
}

/// Warms `dm` up on every batch, then reads the allocations of further calls
/// on the same buffer, with observability on and off.
fn assert_steady_state_allocates_nothing(dm: &DeepMapping) {
    let batches = batches(dm);
    let (was_enabled, was_slow) = (obs::enabled(), obs::slow_threshold_nanos());
    // A batch over the slow threshold copies its timeline out, by design;
    // that is a capture, not the steady state this guard reads.
    obs::set_slow_threshold(Duration::from_secs(3_600));
    for enabled in [true, false] {
        obs::set_enabled(enabled);
        let mut buffer = LookupBuffer::new();
        for _ in 0..3 {
            for keys in &batches {
                dm.lookup_batch_into(keys, &mut buffer).expect("warm-up lookup");
            }
        }
        for keys in &batches {
            let before = allocations();
            for _ in 0..5 {
                dm.lookup_batch_into(keys, &mut buffer).expect("lookup");
            }
            let made = allocations() - before;
            assert_eq!(
                made,
                0,
                "{} allocations in 5 calls of {} keys (DM_OBS {})",
                made,
                keys.len(),
                if enabled { "on" } else { "off" }
            );
            assert_eq!(buffer.len(), keys.len());
            assert_eq!(buffer.failed_count(), 0);
        }
    }
    obs::set_enabled(was_enabled);
    obs::set_slow_threshold(Duration::from_nanos(was_slow));
}

#[test]
fn an_in_memory_store_allocates_nothing_per_steady_state_call() {
    let _guard = obs_lock();
    assert_steady_state_allocates_nothing(&build_store());
}

#[test]
fn a_reopened_snapshot_store_allocates_nothing_per_steady_state_call() {
    let _guard = obs_lock();
    let dir = temp_dir("snapshot");
    let path = dir.join("store.dmss");
    let built = build_store();
    built.write_snapshot(&path).expect("write snapshot");
    let reopened = Snapshot::open(&path).expect("open snapshot");
    assert_eq!(
        reopened.lookup_batch(&batches(&built)[2]).unwrap(),
        built.lookup_batch(&batches(&built)[2]).unwrap()
    );
    assert_steady_state_allocates_nothing(&reopened);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_store_beside_a_live_overlay_allocates_nothing_per_steady_state_call() {
    let _guard = obs_lock();
    let mut dm = build_store();
    let touched = write_overlay(&mut dm);
    assert_batches_cross_the_overlay(&dm, &touched);
    assert_steady_state_allocates_nothing(&dm);

    let dir = temp_dir("overlay");
    let path = dir.join("store.dmss");
    dm.write_snapshot(&path).expect("write snapshot");
    let reopened = Snapshot::open(&path).expect("open snapshot");
    assert_eq!(reopened.aux_table().delta_len(), dm.aux_table().delta_len());
    assert_eq!(reopened.aux_table().tombstone_count(), dm.aux_table().tombstone_count());
    assert_batches_cross_the_overlay(&reopened, &touched);
    assert_eq!(
        reopened.lookup_batch(&batches(&dm)[2]).unwrap(),
        dm.lookup_batch(&batches(&dm)[2]).unwrap()
    );
    assert_steady_state_allocates_nothing(&reopened);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_served_request_allocates_nothing_per_steady_state_round() {
    let _guard = obs_lock();
    let dm = Arc::new(build_store());
    let requests: [Vec<u64>; 4] = std::array::from_fn(|r| {
        (0..8u64)
            .map(|i| (r as u64 * 3_001 + i * 37) % 12_500)
            .collect()
    });
    let (was_enabled, was_slow) = (obs::enabled(), obs::slow_threshold_nanos());
    obs::set_slow_threshold(Duration::from_secs(3_600));
    // Every batch runs on this thread: with a window longer than any round
    // the waits run them, with a zero window (inline) each submit does.
    for (mode, config) in [
        ("coalescing", ServerConfig::coalescing(Duration::from_secs(5), 256)),
        ("inline", ServerConfig::inline()),
    ] {
        let server = QueryServer::new(config);
        let tenant = server.register_store("t", dm.clone()).expect("register");
        let mut client = server.client_with_depth(4);
        let mut out = LookupBuffer::new();
        let round = |client: &mut ServerClient, out: &mut LookupBuffer| {
            let tickets =
                [0, 1, 2, 3].map(|r| client.submit(tenant, &requests[r]).expect("submit"));
            for ticket in tickets {
                client.wait_into(ticket, out).expect("served");
                assert_eq!(out.len(), 8);
            }
        };
        for enabled in [true, false] {
            obs::set_enabled(enabled);
            for _ in 0..20 {
                round(&mut client, &mut out);
            }
            let before = allocations();
            for _ in 0..50 {
                round(&mut client, &mut out);
            }
            let made = allocations() - before;
            assert_eq!(
                made,
                0,
                "{made} allocations in 50 served rounds ({mode}, DM_OBS {})",
                if enabled { "on" } else { "off" }
            );
        }
        let stats = server.stats();
        assert_eq!(stats.requests_completed, 2 * 70 * 4);
        let at_submit = if mode == "inline" { 2 * 70 * 4 } else { 0 };
        assert_eq!(stats.batches_at_window, at_submit, "{mode}");
    }
    obs::set_enabled(was_enabled);
    obs::set_slow_threshold(Duration::from_nanos(was_slow));
}
