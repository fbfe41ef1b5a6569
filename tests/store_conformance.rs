//! Trait-conformance and concurrency guarantees of the `TupleStore` / `MutableStore`
//! redesign:
//!
//! * one generic conformance suite, run against all five backends (DeepMapping, the
//!   array- and hash-partitioned baselines, DeepSqueeze for its exact subset, and the
//!   reference store itself), asserting agreement with `ReferenceStore` over mixed
//!   hit/miss lookups interleaved with insert/delete/update sequences,
//! * buffer-reuse discipline: `lookup_batch_into` keeps the caller's arena capacity
//!   stable across repeated batches (zero per-key allocations at steady state),
//! * shared reads: concurrent `lookup_batch_into` batches over one `Arc<DeepMapping>`
//!   return exactly what sequential `get` calls return, with the batch amortization
//!   counters (one inference pass per batch, partitions served from the warm pool)
//!   still holding,
//! * snapshot round trip: every `TupleStore` read agrees before/after
//!   `write_snapshot` + `open`, including `scan_range` and the concurrent
//!   `Arc<DeepMapping>` smoke test on the reopened (lazily served) store.

use deepmapping::prelude::*;
use std::sync::Arc;

fn quick_dm(rows: &[Row]) -> DeepMapping {
    DeepMappingBuilder::dm_z()
        .training(TrainingConfig {
            epochs: 6,
            batch_size: 1024,
            ..TrainingConfig::default()
        })
        .partition_bytes(4 * 1024)
        .disk_profile(DiskProfile::free())
        .build(rows)
        .expect("build DeepMapping")
}

/// Rows with a half-learnable shape: one column follows the key, one is hash noise,
/// so both the model-prediction and auxiliary-override paths stay exercised.
fn seed_rows(n: u64) -> Vec<Row> {
    (0..n)
        .map(|k| {
            let key = k * 2; // gaps, so misses interleave with hits
            let h = key.wrapping_mul(0x9E3779B97F4A7C15) >> 17;
            Row::new(key, vec![((key / 16) % 4) as u32, (h % 5) as u32])
        })
        .collect()
}

/// The generic conformance suite: drives `store` and a [`ReferenceStore`] through
/// identical mixed modification rounds and requires exact agreement on a mixed
/// hit/miss probe after every round.
fn assert_store_conforms(store: &mut dyn MutableStore, rows: &[Row]) {
    let mut reference = ReferenceStore::from_rows(rows);
    let max_key = rows.iter().map(|r| r.key).max().unwrap_or(0);
    let probe: Vec<u64> = (0..max_key + 50).step_by(3).chain([max_key + 1_000]).collect();
    let mut buffer = LookupBuffer::new();

    let name = store.name().to_string();
    for round in 0..3u64 {
        // Mixed hits and misses, through both read paths.
        let expected = reference.lookup_batch(&probe).unwrap();
        assert_eq!(store.lookup_batch(&probe).unwrap(), expected, "{name} round {round}");
        store.lookup_batch_into(&probe, &mut buffer).unwrap();
        assert_eq!(buffer.to_options(), expected, "{name} round {round} (buffered)");

        // Inserts: fresh keys beyond the range plus a re-insert of an existing key.
        let inserts = vec![
            Row::new(max_key + 10 + round, vec![(round % 4) as u32, (round % 5) as u32]),
            Row::new(round * 2, vec![3, 4]),
        ];
        store.insert(&inserts).unwrap();
        reference.insert(&inserts).unwrap();

        // Deletes: an existing key and a missing one (must be a no-op).
        let deletions = vec![4 + round * 6, max_key + 999_983];
        store.delete(&deletions).unwrap();
        reference.delete(&deletions).unwrap();

        // Updates: an existing key and a missing one (must be ignored).
        let updates = vec![
            Row::new(8 + round * 2, vec![1, 1]),
            Row::new(max_key + 999_991, vec![2, 2]),
        ];
        store.update(&updates).unwrap();
        reference.update(&updates).unwrap();
    }
    assert_eq!(
        store.lookup_batch(&probe).unwrap(),
        reference.lookup_batch(&probe).unwrap(),
        "{name} after all rounds"
    );
    assert_eq!(store.stats().tuple_count, reference.len(), "{name} tuple count");

    // Maintenance (retraining/compaction for DeepMapping, a no-op elsewhere) must
    // preserve the contents.
    store.maintenance().unwrap();
    assert_eq!(
        store.lookup_batch(&probe).unwrap(),
        reference.lookup_batch(&probe).unwrap(),
        "{name} after maintenance"
    );
}

#[test]
fn all_five_backends_conform_to_the_store_traits() {
    let rows = seed_rows(600);
    let metrics = Metrics::new();

    let mut stores: Vec<Box<dyn MutableStore>> = vec![
        Box::new(ReferenceStore::from_rows(&rows)),
        Box::new(
            PartitionedStore::build(
                &rows,
                2,
                PartitionedStoreConfig::array(Codec::Lz).with_partition_bytes(2 * 1024),
                metrics.clone(),
            )
            .unwrap(),
        ),
        Box::new(
            PartitionedStore::build(
                &rows,
                2,
                PartitionedStoreConfig::hash(Codec::Lz).with_partition_bytes(2 * 1024),
                metrics,
            )
            .unwrap(),
        ),
        Box::new(quick_dm(&rows)),
    ];
    for store in &mut stores {
        assert_store_conforms(store.as_mut(), &rows);
    }

    // DeepSqueeze is intentionally lossy, so it cannot run the value-equality suite;
    // its conformance obligations are the trait surface itself: query-order results,
    // exact key membership (hits for stored keys, misses otherwise) and the
    // `Unsupported` range contract.
    let ds = DeepSqueezeStore::build(&rows, 2, DeepSqueezeConfig::default()).unwrap();
    let probe: Vec<u64> = (0..1_300u64).collect();
    let mut buffer = LookupBuffer::new();
    ds.lookup_batch_into(&probe, &mut buffer).unwrap();
    assert_eq!(buffer.len(), probe.len());
    let keyset: std::collections::HashSet<u64> = rows.iter().map(|r| r.key).collect();
    for (i, &key) in probe.iter().enumerate() {
        assert_eq!(buffer.is_hit(i), keyset.contains(&key), "DS key {key}");
    }
    assert!(ds.scan_range(0, 100).is_err());
}

#[test]
fn range_scans_compare_all_key_ordered_backends() {
    let rows = seed_rows(500);
    let reference = ReferenceStore::from_rows(&rows);
    let stores: Vec<Box<dyn MutableStore>> = vec![
        Box::new(
            PartitionedStore::build(
                &rows,
                2,
                PartitionedStoreConfig::array(Codec::None).with_partition_bytes(2 * 1024),
                Metrics::new(),
            )
            .unwrap(),
        ),
        Box::new(
            PartitionedStore::build(
                &rows,
                2,
                PartitionedStoreConfig::hash(Codec::Lz).with_partition_bytes(2 * 1024),
                Metrics::new(),
            )
            .unwrap(),
        ),
        Box::new(quick_dm(&rows)),
    ];
    for store in &stores {
        for (lo, hi) in [(0u64, 0u64), (3, 101), (500, 2_000), (0, u64::MAX), (9, 2)] {
            assert_eq!(
                store.scan_range(lo, hi).unwrap(),
                reference.scan_range(lo, hi).unwrap(),
                "{} range {lo}..={hi}",
                store.name()
            );
        }
    }
}

#[test]
fn lookup_buffer_capacity_is_stable_across_repeated_batches() {
    let rows = seed_rows(800);
    let dm = quick_dm(&rows);
    let keys: Vec<u64> = (0..2_000u64).collect();

    let mut buffer = LookupBuffer::new();
    dm.lookup_batch_into(&keys, &mut buffer).unwrap();
    let expected = buffer.to_options();
    let key_capacity = buffer.key_capacity();
    let value_capacity = buffer.value_capacity();
    assert!(key_capacity >= keys.len());
    assert!(value_capacity > 0);

    for _ in 0..10 {
        dm.lookup_batch_into(&keys, &mut buffer).unwrap();
        assert_eq!(buffer.to_options(), expected);
    }
    assert_eq!(
        buffer.key_capacity(),
        key_capacity,
        "span/key tables must be reused, not regrown"
    );
    assert_eq!(
        buffer.value_capacity(),
        value_capacity,
        "the flat value arena must be reused, not regrown"
    );
}

/// Snapshot round-trip conformance: the reopened store is the *same*
/// `TupleStore` as the original in every observable way, and stays fully
/// shareable across threads while serving partitions lazily from the file.
#[test]
fn snapshot_round_trip_preserves_every_tuple_store_read() {
    let dir = std::env::temp_dir().join(format!(
        "dm-conformance-snapshot-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("conformance.dmss");

    let rows = seed_rows(900);
    let mut dm = quick_dm(&rows);
    // Leave a live overlay in place so the snapshot covers the mutated shape too.
    dm.insert(&[Row::new(5_001, vec![1, 2]), Row::new(5_003, vec![0, 4])])
        .unwrap();
    dm.delete(&[4, 16]).unwrap();
    dm.update(&[Row::new(8, vec![3, 3])]).unwrap();

    let probe: Vec<u64> = (0..5_100u64).step_by(3).chain([999_983]).collect();
    let expected = dm.lookup_batch(&probe).unwrap();
    let expected_stats = dm.stats();
    let expected_name = dm.name().to_string();
    let ranges = [(0u64, 0u64), (3, 101), (500, 2_000), (0, u64::MAX), (9, 2)];
    let expected_ranges: Vec<Vec<Row>> = ranges
        .iter()
        .map(|&(lo, hi)| dm.scan_range(lo, hi).unwrap())
        .collect();
    dm.write_snapshot(&path).expect("write snapshot");
    drop(dm);

    let reopened = Arc::new(DeepMapping::open(&path).expect("open snapshot"));
    assert_eq!(reopened.name(), expected_name);
    assert_eq!(reopened.lookup_batch(&probe).unwrap(), expected);
    let mut buffer = LookupBuffer::new();
    reopened.lookup_batch_into(&probe, &mut buffer).unwrap();
    assert_eq!(buffer.to_options(), expected);
    let stats = reopened.stats();
    assert_eq!(stats.tuple_count, expected_stats.tuple_count);
    assert_eq!(stats.partition_count, expected_stats.partition_count);
    for (&(lo, hi), want) in ranges.iter().zip(&expected_ranges) {
        assert_eq!(&reopened.scan_range(lo, hi).unwrap(), want, "range {lo}..={hi}");
    }

    // Concurrent smoke over the reopened store: cold partition loads race
    // through the single-flight pool, results stay exact.
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let store = Arc::clone(&reopened);
            let probe = probe.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut buffer = LookupBuffer::new();
                for _ in 0..3 {
                    store.lookup_batch_into(&probe, &mut buffer).unwrap();
                    assert_eq!(buffer.to_options(), expected);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("reader thread panicked");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_shared_reads_match_sequential_gets() {
    let rows = seed_rows(1_500);
    let dm = Arc::new(quick_dm(&rows));

    // Per-thread probes: shuffled interleavings of hits and misses across the whole
    // key space, each thread with a different stride.
    let probes: Vec<Vec<u64>> = (0..4u64)
        .map(|t| {
            (0..1_200u64)
                .map(|i| (i * (7 + 2 * t) + t) % 3_200)
                .collect()
        })
        .collect();
    let expected: Vec<Vec<Option<Vec<u32>>>> = probes
        .iter()
        .map(|probe| {
            probe
                .iter()
                .map(|&key| dm.get(key).unwrap())
                .collect()
        })
        .collect();

    // Warm the buffer pool (ample budget: every partition stays resident), then make
    // sure concurrent batches add no partition loads and amortize inference one pass
    // per batch.
    let warm: Vec<u64> = (0..3_200u64).collect();
    dm.lookup_batch(&warm).unwrap();
    dm.metrics().reset();

    const ROUNDS: usize = 5;
    let handles: Vec<_> = probes
        .iter()
        .cloned()
        .zip(expected.iter().cloned())
        .map(|(probe, want)| {
            let dm = Arc::clone(&dm);
            std::thread::spawn(move || {
                let mut buffer = LookupBuffer::new();
                for _ in 0..ROUNDS {
                    dm.lookup_batch_into(&probe, &mut buffer).unwrap();
                    assert_eq!(buffer.to_options(), want);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("reader thread panicked");
    }

    let snap = dm.metrics().snapshot();
    let batches = (probes.len() * ROUNDS) as u64;
    assert_eq!(
        snap.inference_batches, batches,
        "each concurrent batch must run exactly one vectorized forward pass"
    );
    // Only keys that pass the existence filter are answered, and only those the
    // auxiliary table does not hold reach the model.
    let hits_per_round: u64 = expected
        .iter()
        .flatten()
        .filter(|result| result.is_some())
        .count() as u64;
    assert_eq!(snap.inference_rows, snap.model_answered);
    assert_eq!(
        snap.model_answered + snap.aux_answered,
        hits_per_round * ROUNDS as u64
    );
    assert_eq!(
        snap.partition_loads, 0,
        "warm pool: concurrent batches must not reload partitions"
    );
    assert_eq!(snap.pool_misses, 0);
}
