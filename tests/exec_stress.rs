//! Concurrency stress guarantee of the single-flight buffer-pool read path:
//! many OS threads hammering one `Arc<DeepMapping>` against a *cold* pool must
//! load and decompress every auxiliary partition **exactly once** — the
//! single-flight latch turns racing cold reads into one load plus waits, which
//! the `pool_single_flight_waits` counter makes observable.  A batch runs on
//! the thread that asks for it, so the race comes from the callers alone.

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

fn build_dm(rows: &[Row]) -> DeepMapping {
    DeepMappingBuilder::dm_z()
        .training(TrainingConfig {
            epochs: 2,
            batch_size: 1024,
            ..TrainingConfig::default()
        })
        .partition_bytes(4 * 1024)
        .disk_profile(DiskProfile::free())
        .build(rows)
        .expect("build DeepMapping")
}

#[test]
fn cold_pool_hammering_loads_each_partition_exactly_once() {
    let rows = adversarial_rows(6_000);
    // 8 external threads issue the same batch at once, so every partition's
    // cold load is raced.
    let dm = Arc::new(build_dm(&rows));
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
