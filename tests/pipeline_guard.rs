//! Guard for the batched QueryPipeline refactor: batch lookups must be *exactly*
//! per-key lookups, only faster.  A shuffled 10k-key batch mixing hits and misses is
//! compared element-by-element against single-key `get` calls, and the batch's
//! amortization contract (one inference pass, each partition loaded at most once) is
//! asserted via the shared metrics.

use deepmapping::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn build_store() -> DeepMapping {
    // Keys with gaps (every third integer) so the miss population interleaves with
    // hits, and values the model can only partially learn — both the model-prediction
    // and the auxiliary-override paths stay exercised.
    let rows: Vec<Row> = (0..6_000u64)
        .map(|k| {
            let key = k * 3;
            let h = key.wrapping_mul(0x9E3779B97F4A7C15) >> 17;
            Row::new(key, vec![((key / 16) % 4) as u32, (h % 5) as u32])
        })
        .collect();
    let config = DeepMappingConfig::dm_z()
        .with_training(TrainingConfig {
            epochs: 8,
            batch_size: 1024,
            ..TrainingConfig::default()
        })
        .with_partition_bytes(4 * 1024)
        .with_disk_profile(DiskProfile::free());
    DeepMapping::build(&rows, &config).expect("build")
}

#[test]
fn shuffled_10k_batch_matches_per_key_gets_exactly() {
    let dm = build_store();

    // 10k probes: ~70% hits (multiples of 3 inside the key range), ~30% misses
    // (off-keys and beyond-range keys), shuffled so partition access is random.
    let mut keys: Vec<u64> = Vec::with_capacity(10_000);
    keys.extend((0..7_000u64).map(|i| (i % 6_000) * 3));
    keys.extend((0..2_000u64).map(|i| i * 3 + 1));
    keys.extend((0..1_000u64).map(|i| 100_000 + i * 7));
    let mut rng = StdRng::seed_from_u64(0x10_000);
    keys.shuffle(&mut rng);
    assert_eq!(keys.len(), 10_000);

    let batch = dm.lookup_batch(&keys).expect("batch lookup");
    assert_eq!(batch.len(), keys.len());
    for (i, &key) in keys.iter().enumerate() {
        assert_eq!(
            batch[i],
            dm.get(key).expect("single get"),
            "batch[{i}] diverged from get({key})"
        );
    }

    // Hits return values, misses return None — spot-check the populations.
    let hits = batch.iter().filter(|r| r.is_some()).count();
    assert!(hits > 6_000, "expected a hit-dominated batch, got {hits}");
    assert!(hits < keys.len(), "misses must be present");
}

#[test]
fn the_batch_amortizes_inference_and_partition_loads() {
    let dm = build_store();
    let mut keys: Vec<u64> = (0..6_000u64).map(|k| k * 3).collect();
    let mut rng = StdRng::seed_from_u64(42);
    keys.shuffle(&mut rng);

    dm.metrics().reset();
    dm.lookup_batch(&keys).expect("batch lookup");
    let snap = dm.metrics().snapshot();
    assert_eq!(
        snap.inference_batches, 1,
        "one shuffled batch must run exactly one vectorized forward pass"
    );
    // Every key exists; each is answered by the model or the auxiliary table,
    // and only the model's share is inferred.
    assert_eq!(snap.inference_rows, snap.model_answered);
    assert_eq!(snap.model_answered + snap.aux_answered, keys.len() as u64);
    assert!(
        snap.partition_loads <= dm.aux_table().partition_count() as u64,
        "{} partition loads for {} partitions — probes were not grouped",
        snap.partition_loads,
        dm.aux_table().partition_count()
    );
}
