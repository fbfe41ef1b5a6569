//! Concurrency stress guarantees of the `dm-exec` + single-flight
//! buffer-pool read path:
//!
//! * many OS threads hammering one `Arc<DeepMapping>` against a *cold* pool must
//!   load and decompress every auxiliary partition **exactly once** — the
//!   single-flight latch turns racing cold reads into one load plus waits, which
//!   the new `pool_single_flight_waits` counter makes observable,
//! * a store pinned to a parallel `dm-exec` pool (`exec_threads(4)`) must agree
//!   bit-for-bit with a fully serial store built from the same config and seed,
//!   under concurrent external load,
//! * the parallel read path must keep the caller's `LookupBuffer` arena capacity
//!   stable (zero per-key allocations at steady state, PR-2's contract).

use deepmapping::prelude::*;
use std::sync::Arc;

/// Rows the model cannot learn, so every key lands in the auxiliary table — which
/// makes partition-load accounting deterministic (every lookup probes a partition).
fn adversarial_rows(n: u64) -> Vec<Row> {
    (0..n)
        .map(|k| {
            let h = k.wrapping_mul(0x9E3779B97F4A7C15) >> 17;
            Row::new(k, vec![(h % 5) as u32, ((h >> 7) % 3) as u32])
        })
        .collect()
}

fn build_dm(rows: &[Row], exec_threads: usize) -> DeepMapping {
    DeepMappingBuilder::dm_z()
        .training(TrainingConfig {
            epochs: 2,
            batch_size: 1024,
            ..TrainingConfig::default()
        })
        .partition_bytes(4 * 1024)
        .disk_profile(DiskProfile::free())
        .exec_threads(exec_threads)
        .build(rows)
        .expect("build DeepMapping")
}

#[test]
fn cold_pool_hammering_loads_each_partition_exactly_once() {
    let rows = adversarial_rows(6_000);
    // The store's own pipeline runs on a 4-thread pool *and* 8 external threads
    // issue batches concurrently, so partition groups race from two directions.
    let dm = Arc::new(build_dm(&rows, 4));
    let partitions = dm.aux_table().partition_count() as u64;
    assert!(partitions >= 2, "need several partitions for the race to matter");
    let reference = ReferenceStore::from_rows(&rows);
    let keys: Vec<u64> = (0..6_000u64).collect();
    let expected = reference.lookup_batch(&keys).unwrap();

    // The pool is cold right after build: construction writes partitions to the
    // simulated disk but never reads them back.
    dm.metrics().reset();
    std::thread::scope(|s| {
        for _ in 0..8 {
            let dm = Arc::clone(&dm);
            let keys = &keys;
            let expected = &expected;
            s.spawn(move || {
                let mut buffer = LookupBuffer::new();
                dm.lookup_batch_into(keys, &mut buffer).unwrap();
                assert_eq!(&buffer.to_options(), expected);
            });
        }
    });

    let snap = dm.metrics().snapshot();
    assert_eq!(
        snap.partition_loads, partitions,
        "every partition must be loaded exactly once, duplicates mean single-flight broke: {snap:?}"
    );
    assert_eq!(snap.decompressions, partitions);
    assert_eq!(snap.pool_misses, partitions);
    assert_eq!(snap.pool_evictions, 0, "ample budget: nothing to evict");
    // Eight threads each touched every partition; all but the one loader per
    // partition were served by the warm pool or by the in-flight latch.
    assert!(
        snap.pool_hits + snap.pool_single_flight_waits >= 7 * partitions,
        "expected >= {} non-loading probes, snapshot {snap:?}",
        7 * partitions
    );
}

#[test]
fn parallel_store_agrees_with_serial_store_under_concurrent_load() {
    let rows = adversarial_rows(4_000);
    let parallel = Arc::new(build_dm(&rows, 4));
    let serial = build_dm(&rows, 1);
    assert_eq!(parallel.exec().threads(), 4);
    assert_eq!(serial.exec().threads(), 1);
    // Same config + seed => identical model; results must match exactly, not just
    // semantically.
    let probes: Vec<Vec<u64>> = (0..6u64)
        .map(|t| {
            (0..3_000u64)
                .map(|i| (i.wrapping_mul(0x9E3779B97F4A7C15) ^ t) % 5_000)
                .collect()
        })
        .collect();
    let expected: Vec<_> = probes
        .iter()
        .map(|probe| serial.lookup_batch(probe).unwrap())
        .collect();
    std::thread::scope(|s| {
        for (probe, expected) in probes.iter().zip(expected.iter()) {
            let parallel = Arc::clone(&parallel);
            s.spawn(move || {
                for _ in 0..3 {
                    assert_eq!(&parallel.lookup_batch(probe).unwrap(), expected);
                }
            });
        }
    });
}

#[test]
fn parallel_path_keeps_the_lookup_buffer_capacity_stable() {
    let rows = adversarial_rows(3_000);
    let dm = build_dm(&rows, 4);
    let probe: Vec<u64> = (0..4_000u64).map(|i| (i * 11) % 3_500).collect();
    let mut buffer = LookupBuffer::new();
    for _ in 0..2 {
        dm.lookup_batch_into(&probe, &mut buffer).unwrap();
    }
    let key_capacity = buffer.key_capacity();
    let value_capacity = buffer.value_capacity();
    for _ in 0..5 {
        dm.lookup_batch_into(&probe, &mut buffer).unwrap();
    }
    assert_eq!(buffer.key_capacity(), key_capacity, "span table must be reused");
    assert_eq!(buffer.value_capacity(), value_capacity, "value arena must be reused");
}
