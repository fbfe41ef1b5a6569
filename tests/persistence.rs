//! End-to-end guarantees of the `dm-persist` subsystem:
//!
//! * a store built from TPC-DS-style rows survives `write` → drop → `open` with
//!   byte-identical lookup results, and the open is *lazy* — partitions are only
//!   read when a batch touches them,
//! * snapshots taken mid-modification (live delta overlay + tombstones) round-trip,
//! * corruption — truncation mid-partition, flipped bytes in CRC'd sections, bad
//!   magic/version — surfaces as typed errors, never a panic or a wrong answer,
//! * the delta WAL replays complete records after a simulated crash (torn tail
//!   included) and `maintenance()` folds it into a rewritten snapshot,
//! * the snapshot file is strictly read-only to the read path: write once, open
//!   twice, byte-compare the file afterwards.

use deepmapping::core::{AuxTable, DecodeMap, DeepMappingParts, MappingModel, MappingSchema, KEY_HEADROOM};
use deepmapping::persist::{Manifest, PersistError, PersistentStore, Snapshot, SnapshotExt, SnapshotStats};
use deepmapping::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dm-persistence-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// TPC-DS-style rows: the customer_demographics cross-product table the paper
/// memorizes, truncated to a test-friendly size.
fn tpcds_rows() -> Vec<Row> {
    TpcdsGenerator::new(TpcdsConfig::tiny())
        .customer_demographics()
        .truncate(2_500)
        .rows()
}

/// Half-learnable rows (one key-correlated column, one hash-noise column) so the
/// auxiliary table, overlay and model paths all stay populated.
fn noisy_rows(n: u64) -> Vec<Row> {
    (0..n)
        .map(|k| {
            let h = k.wrapping_mul(0x9E3779B97F4A7C15) >> 17;
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

fn probe_keys(rows: &[Row]) -> Vec<u64> {
    let max_key = rows.iter().map(|r| r.key).max().unwrap_or(0);
    (0..max_key + 64).step_by(3).chain([max_key + 999_983]).collect()
}

#[test]
fn tpcds_round_trip_is_byte_identical_and_lazy() {
    let dir = temp_dir("tpcds-round-trip");
    let path = dir.join("cd.dmss");
    let rows = tpcds_rows();
    let dm = quick_build(&rows);
    assert!(!dm.model().ladder().is_empty(), "a default-architecture build climbs the ladder");
    let probe = probe_keys(&rows);
    let expected = dm.lookup_batch(&probe).unwrap();
    let expected_range = dm.scan_range(3, 220).unwrap();
    let stats = dm.write_snapshot(&path).expect("write snapshot");
    assert!(stats.file_bytes > 0);
    assert_eq!(
        stats.eager_bytes + stats.partition_bytes,
        stats.file_bytes,
        "sections must account for every byte"
    );
    drop(dm);

    let (reopened, open_stats) = Snapshot::open_with_stats(&path).expect("open snapshot");
    assert_eq!(open_stats.file_bytes, stats.file_bytes);
    assert_eq!(open_stats.eager_bytes, stats.eager_bytes);
    assert_eq!(reopened.len(), rows.len());
    // The ladder is what a build priced; an opened model priced nothing.
    assert!(reopened.model().ladder().is_empty());
    // Lazy: nothing but the eager sections has been read yet.
    assert_eq!(reopened.metrics().snapshot().bytes_read, 0);

    // A batch confined to one partition loads exactly that partition.
    let directory = reopened.aux_table().partition_directory();
    if let Some(first) = directory.first() {
        let single: Vec<u64> = (first.min_key..=first.max_key).take(16).collect();
        reopened.lookup_batch(&single).unwrap();
        let snap = reopened.metrics().snapshot();
        assert!(
            snap.partition_loads <= 1,
            "single-partition batch loaded {} partitions",
            snap.partition_loads
        );
    }

    assert_eq!(reopened.lookup_batch(&probe).unwrap(), expected);
    assert_eq!(reopened.scan_range(3, 220).unwrap(), expected_range);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshots_capture_the_live_overlay_and_tombstones() {
    let dir = temp_dir("overlay");
    let path = dir.join("overlay.dmss");
    let rows = noisy_rows(1_500);
    let mut dm = quick_build(&rows);
    let mut reference = ReferenceStore::from_rows(&rows);

    // Pile modifications into the overlay — no maintenance, so the snapshot
    // must carry delta rows and tombstones through the manifest.
    let inserts: Vec<Row> = (0..40u64).map(|i| Row::new(5_000 + i, vec![1, (i % 5) as u32])).collect();
    dm.insert_rows(&inserts).unwrap();
    reference.insert(&inserts).unwrap();
    dm.delete_keys(&[0, 3, 9]).unwrap();
    reference.delete(&[0, 3, 9]).unwrap();
    let updates = vec![Row::new(12, vec![3, 3]), Row::new(15, vec![0, 1])];
    dm.update_rows(&updates).unwrap();
    reference.update(&updates).unwrap();

    dm.write_snapshot(&path).expect("write snapshot");
    drop(dm);
    let reopened = DeepMapping::open(&path).expect("open snapshot");
    let probe: Vec<u64> = (0..5_100u64).collect();
    assert_eq!(
        reopened.lookup_batch(&probe).unwrap(),
        reference.lookup_batch(&probe).unwrap()
    );
    assert_eq!(reopened.len(), reference.len());
    std::fs::remove_dir_all(&dir).ok();
}

/// The snapshot lists the overlay in key order, not in the order the writes
/// came in: two stores that reach the same state through the same writes in
/// different orders checkpoint to byte-identical files.
#[test]
fn snapshots_do_not_depend_on_write_order() {
    let dir = temp_dir("write-order");
    let rows = noisy_rows(1_500);
    let inserts: Vec<Row> = (0..120u64).map(|i| Row::new(5_000 + 3 * i, vec![(i % 3) as u32, 4])).collect();
    let updates: Vec<Row> = (0..150u64).map(|i| Row::new(10 * i + 1, vec![3, (i % 5) as u32])).collect();
    let deletes: Vec<u64> = (0..150u64).map(|i| 10 * i + 7).collect();
    let checkpointed = |name: &str, ascending: bool| {
        let path = dir.join(name);
        let mut store = PersistentStore::create(quick_build(&rows), &path).expect("create");
        if ascending {
            store.insert(&inserts).unwrap();
            store.update(&updates).unwrap();
            store.delete(&deletes).unwrap();
        } else {
            // Another order: deletes first, each kind in descending keys and
            // in several calls.
            for keys in deletes.rchunks(40) {
                store.delete(&keys.iter().rev().copied().collect::<Vec<_>>()).unwrap();
            }
            for chunk in updates.rchunks(35) {
                store.update(&chunk.iter().rev().cloned().collect::<Vec<_>>()).unwrap();
            }
            for chunk in inserts.rchunks(35) {
                store.insert(&chunk.iter().rev().cloned().collect::<Vec<_>>()).unwrap();
            }
        }
        let aux = store.store().aux_table();
        assert!(aux.delta_len() > 0 && aux.tombstone_count() > 0, "{aux:?}");
        store.checkpoint().expect("checkpoint");
        std::fs::read(&path).unwrap()
    };
    let ascending = checkpointed("ascending.dmss", true);
    let descending = checkpointed("descending.dmss", false);
    assert!(ascending == descending, "the snapshot files differ");
    std::fs::remove_dir_all(&dir).ok();
}

/// Writes the pristine bytes back, applies `mutate`, and returns `open`'s error.
fn open_after(path: &Path, pristine: &[u8], mutate: impl FnOnce(&mut Vec<u8>)) -> PersistError {
    let mut bytes = pristine.to_vec();
    mutate(&mut bytes);
    std::fs::write(path, &bytes).unwrap();
    Snapshot::open(path).expect_err("corrupted snapshot must not open")
}

#[test]
fn corruption_returns_typed_errors_not_garbage() {
    let dir = temp_dir("corruption");
    let path = dir.join("victim.dmss");
    let rows = noisy_rows(2_000);
    let dm = quick_build(&rows);
    let stats: SnapshotStats = dm.write_snapshot(&path).expect("write snapshot");
    assert!(stats.partition_count >= 2, "need multiple partitions to corrupt");
    let seed = dm.config().seed;
    drop(dm);
    let pristine = std::fs::read(&path).unwrap();
    assert_eq!(pristine.len() as u64, stats.file_bytes);

    // The manifest's arithmetic tag is the byte after the seed; `0` is the f32
    // arithmetic an earlier release could write, and int8 cannot serve it.
    let tagged_int8: Vec<u8> = seed.to_le_bytes().into_iter().chain([1]).collect();
    let manifest = 28..28 + u64::from_le_bytes(pristine[16..24].try_into().unwrap()) as usize;
    let tags: Vec<usize> = (manifest.start..manifest.end - tagged_int8.len())
        .filter(|&at| pristine[at..].starts_with(&tagged_int8))
        .map(|at| at + tagged_int8.len() - 1)
        .collect();
    assert_eq!(tags.len(), 1, "one seed followed by the int8 tag");
    let err = open_after(&path, &pristine, |bytes| {
        bytes[tags[0]] = 0;
        reseal_manifest(bytes);
    });
    assert_f32_refused(&err, "manifest");

    // A model section holding f32 layers: the public parts of a store whose
    // model was never quantized, written as a snapshot.
    let schema = MappingSchema::infer(&rows, KEY_HEADROOM).unwrap();
    let spec = MappingModel::default_spec(&schema, rows.len());
    let model = MappingModel::new(schema, &spec, 7).unwrap();
    let (_, misclassified) = model.split_by_memorization(&rows).unwrap();
    let config = DeepMappingConfig::default().with_partition_bytes(4 * 1024);
    let aux = AuxTable::build(
        &misclassified,
        2,
        config.codec,
        config.partition_bytes,
        config.memory_budget_bytes,
        config.disk_profile,
        Metrics::new(),
    );
    let unquantized = DeepMapping::from_parts(DeepMappingParts {
        config,
        model,
        aux: aux.unwrap(),
        exist: rows.iter().map(|row| row.key).collect(),
        decode_map: DecodeMap::default(),
        tuple_count: rows.len(),
        retrain_count: 0,
    });
    let f32_path = dir.join("f32-layers.dmss");
    unquantized.write_snapshot(&f32_path).expect("write snapshot");
    let err = Snapshot::open(&f32_path).expect_err("an f32 layer must not open");
    assert_f32_refused(&err, "model");

    // Truncation mid-partition: the header's declared length catches it at open.
    let err = open_after(&path, &pristine, |bytes| {
        bytes.truncate(bytes.len() - (stats.partition_bytes / 2) as usize);
    });
    assert!(matches!(err, PersistError::Truncated { .. }), "{err}");

    // A flipped byte inside the manifest fails its CRC.
    let err = open_after(&path, &pristine, |bytes| bytes[40] ^= 0x01);
    assert!(
        matches!(err, PersistError::ChecksumMismatch { section: "manifest" }),
        "{err}"
    );

    // A flipped byte in the last eager section (`base`) fails its CRC — before
    // any rank is derived from it: one moved bit would shift every later row.
    let err = open_after(&path, &pristine, |bytes| {
        let idx = stats.eager_bytes as usize - 3;
        bytes[idx] ^= 0x01;
    });
    assert!(
        matches!(err, PersistError::ChecksumMismatch { section: "base" }),
        "{err}"
    );

    // A mangled manifest length in the header (bytes 16..24) is rejected
    // against the file size BEFORE it can size an allocation — a corrupt
    // header field must be a typed error, never an OOM.
    let err = open_after(&path, &pristine, |bytes| {
        bytes[16..24].copy_from_slice(&(1u64 << 39).to_le_bytes());
    });
    assert!(matches!(err, PersistError::Corrupt { section: "header", .. }), "{err}");

    // Wrong magic / future version are rejected up front.
    let err = open_after(&path, &pristine, |bytes| bytes[0] = b'X');
    assert!(matches!(err, PersistError::BadMagic), "{err}");
    let err = open_after(&path, &pristine, |bytes| bytes[4] = 0xEE);
    assert!(matches!(err, PersistError::UnsupportedVersion(_)), "{err}");

    // A flipped byte inside a *lazily served* partition: open succeeds (the
    // frame has not been touched), and the first lookup that needs the
    // partition returns an error — typed, no panic, no silently wrong rows.
    let mut bytes = pristine.clone();
    let partition_region = stats.eager_bytes as usize;
    bytes[partition_region + 11] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();
    let reopened = Snapshot::open(&path).expect("lazy open must succeed");
    let probe: Vec<u64> = (0..2_000u64).collect();
    let result = reopened.lookup_batch(&probe);
    match result {
        Err(err) => {
            let msg = err.to_string();
            assert!(
                msg.contains("CRC") || msg.contains("corrupt") || msg.contains("checksum"),
                "unexpected corruption error: {msg}"
            );
        }
        Ok(results) => {
            // The flipped byte landed in a partition this store never probes
            // (every probed key was answered by the model + other partitions).
            // That is still lossless behavior, but with ≥2 partitions and a
            // dense probe the hit should be deterministic — fail loudly.
            panic!(
                "corrupted partition served {} answers without an error",
                results.len()
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `open`'s refusal of a store that serves f32 arithmetic: typed, in `section`,
/// and saying why.
fn assert_f32_refused(err: &PersistError, section: &str) {
    match err {
        PersistError::Corrupt { section: at, detail } if *at == section => {
            assert!(detail.contains("f32"), "{detail}")
        }
        other => panic!("an f32 {section} must be Corrupt, got {other}"),
    }
}

/// Re-seals the manifest's CRC in the header of a snapshot image.
fn reseal_manifest(image: &mut [u8]) {
    let manifest_len = u64::from_le_bytes(image[16..24].try_into().unwrap()) as usize;
    let crc = dm_compress::crc32(&image[28..28 + manifest_len]);
    image[24..28].copy_from_slice(&crc.to_le_bytes());
}

/// Rewrites the manifest of a snapshot image in place (same encoded length)
/// and re-seals its CRC in the header, so only the edit itself is "wrong".
fn edit_manifest(image: &mut [u8], edit: impl FnOnce(&mut deepmapping::persist::Manifest)) {
    let manifest_len = u64::from_le_bytes(image[16..24].try_into().unwrap()) as usize;
    let mut manifest = deepmapping::persist::Manifest::decode(&image[28..28 + manifest_len]).unwrap();
    edit(&mut manifest);
    let encoded = manifest.encode();
    assert_eq!(encoded.len(), manifest_len, "edits must keep the manifest's length");
    image[28..28 + manifest_len].copy_from_slice(&encoded);
    reseal_manifest(image);
}

/// Partitions hold no keys, so nothing inside a frame says which keys it
/// answers.  A directory that does not partition `base` is refused at open; a
/// well-formed frame in another partition's place (every checksum valid) is a
/// typed corruption for exactly the keys addressed into it — never their
/// neighbours' values.
#[test]
fn misdescribed_and_misplaced_partitions_are_typed_corruption() {
    let dir = temp_dir("misplaced");
    let path = dir.join("misplaced.dmss");
    let rows = noisy_rows(2_000);
    let dm = quick_build(&rows);
    let stats: SnapshotStats = dm.write_snapshot(&path).expect("write snapshot");
    let directory = dm.aux_table().partition_directory();
    let last = directory.len() - 1;
    assert!(last >= 2 && directory[last].rows < directory[0].rows, "need a short last partition");
    let healthy = dm.lookup_batch(&(0..2_000u64).collect::<Vec<_>>()).unwrap();
    drop(dm);
    let pristine = std::fs::read(&path).unwrap();

    // Row counts that do not add up to `base`, or add up in the wrong places.
    for edit in [
        (|m| m.partitions[0].rows -= 1) as fn(&mut deepmapping::persist::Manifest),
        |m| {
            let last = m.partitions.len() - 1;
            let (first, short) = (m.partitions[0].rows, m.partitions[last].rows);
            m.partitions[0].rows = short;
            m.partitions[last].rows = first;
        },
    ] {
        let err = open_after(&path, &pristine, |bytes| edit_manifest(bytes, edit));
        assert!(
            matches!(err, PersistError::Corrupt { section: "partition directory", .. }),
            "{err}"
        );
    }

    // Swap the first and last frames in the file and their extents (length +
    // CRC) in the directory: every checksum still holds, the row counts in the
    // directory still partition `base`, and both frames are in the wrong place.
    let mut image = pristine.clone();
    let mut frames = Vec::new();
    edit_manifest(&mut image, |m| {
        frames = m.partitions.iter().map(|p| p.frame_len as usize).collect();
        let (a, b) = (m.partitions[0], m.partitions[last]);
        (m.partitions[0].frame_len, m.partitions[0].frame_crc) = (b.frame_len, b.frame_crc);
        (m.partitions[last].frame_len, m.partitions[last].frame_crc) = (a.frame_len, a.frame_crc);
    });
    let region = stats.eager_bytes as usize;
    let first = pristine[region..region + frames[0]].to_vec();
    let tail = pristine[pristine.len() - frames[last]..].to_vec();
    let middle = pristine[region + frames[0]..pristine.len() - frames[last]].to_vec();
    image.truncate(region);
    image.extend_from_slice(&tail);
    image.extend_from_slice(&middle);
    image.extend_from_slice(&first);
    std::fs::write(&path, &image).unwrap();
    let reopened = Snapshot::open(&path).expect("every open-time check passes");
    let probe: Vec<u64> = (0..2_000u64).collect();
    let mut buffer = LookupBuffer::new();
    reopened.lookup_batch_into(&probe, &mut buffer).unwrap();
    let mut failed = 0;
    for (i, &key) in probe.iter().enumerate() {
        let misplaced = reopened.corrected().get(key)
            && [0, last].iter().any(|&p| (directory[p].min_key..=directory[p].max_key).contains(&key));
        assert_eq!(buffer.is_failed(i), misplaced, "key {key}");
        if misplaced {
            let err = buffer.error(i).expect("failed spans carry their error");
            assert!(matches!(err, dm_storage::StorageError::Corrupt(_)), "{err}");
            failed += 1;
        } else {
            assert_eq!(buffer.get(i).map(|v| v.to_vec()), healthy[i], "key {key}");
        }
    }
    assert_eq!(failed, directory[0].rows + directory[last].rows);
    std::fs::remove_dir_all(&dir).ok();
}

/// The table answers a key live in a partition without looking in the delta
/// and counts its rows as base + delta − tombstones, so open refuses an
/// overlay that breaks either: a tombstone outside `base`, a tombstone or a
/// delta key twice, a delta key live in `base`.
#[test]
fn an_overlay_that_breaks_its_invariants_is_refused_at_open() {
    let dir = temp_dir("overlay-invariants");
    let path = dir.join("overlay.dmss");
    let rows = noisy_rows(2_000);
    let mut dm = quick_build(&rows);
    let inserts: Vec<Row> = (0..20u64).map(|i| Row::new(5_000 + i, vec![3, (i % 5) as u32])).collect();
    dm.insert_rows(&inserts).unwrap();
    let base: Vec<u64> = dm.aux_table().base().iter_ones().collect();
    let (removed, shadowed) = (base[0], base[1]);
    dm.delete_keys(&[removed]).unwrap();
    let old = dm.get(shadowed).unwrap().expect("a key of base exists");
    dm.update_rows(&[Row::new(shadowed, vec![(old[0] + 1) % 4, old[1]])]).unwrap();
    let live = base[2];
    let outside = (0..).find(|&k| !dm.aux_table().base().get(k)).unwrap();
    dm.write_snapshot(&path).expect("write snapshot");
    drop(dm);
    Snapshot::open(&path).expect("the healthy snapshot opens");
    let pristine = std::fs::read(&path).unwrap();

    type Edit<'a> = Box<dyn Fn(&mut Manifest) + 'a>;
    let tombstone_of = |m: &Manifest, key: u64| m.tombstones.iter().position(|&k| k == key).expect("a tombstone");
    let off_base = |m: &Manifest| m.delta.iter().position(|row| !base.contains(&row.key)).expect("a delta key off base");
    let edits: [(&str, Edit); 4] = [
        ("no key of base", Box::new(|m| {
            let at = tombstone_of(m, removed);
            m.tombstones[at] = outside;
        })),
        ("repeats", Box::new(|m| {
            let at = tombstone_of(m, removed);
            m.tombstones[at] = shadowed;
        })),
        ("repeats", Box::new(|m| {
            let last = m.delta.len() - 1;
            m.delta[last].key = m.delta[0].key;
        })),
        ("without a tombstone", Box::new(|m| {
            let at = off_base(m);
            m.delta[at].key = live;
        })),
    ];
    for (why, edit) in edits {
        let err = open_after(&path, &pristine, |bytes| edit_manifest(bytes, edit));
        assert!(
            matches!(&err, PersistError::Corrupt { section: "overlay", detail } if detail.contains(why)),
            "{err}"
        );
    }
    // A store reopened with its WAL runs the same check.
    let mut broken = pristine.clone();
    edit_manifest(&mut broken, |m| {
        let at = off_base(m);
        m.delta[at].key = live;
    });
    std::fs::write(&path, &broken).unwrap();
    assert!(matches!(
        PersistentStore::open(&path),
        Err(PersistError::Corrupt { section: "overlay", .. })
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wal_replay_restores_mutations_after_a_simulated_crash() {
    let dir = temp_dir("wal-crash");
    let path = dir.join("crashy.dmss");
    let rows = noisy_rows(1_200);
    let mut reference = ReferenceStore::from_rows(&rows);
    let mut store = PersistentStore::create(quick_build(&rows), &path).expect("create");

    let inserts: Vec<Row> = (0..25u64).map(|i| Row::new(9_000 + i, vec![2, (i % 5) as u32])).collect();
    store.insert(&inserts).unwrap();
    reference.insert(&inserts).unwrap();
    store.delete(&[2, 4, 9_001]).unwrap();
    reference.delete(&[2, 4, 9_001]).unwrap();
    let updates = vec![Row::new(8, vec![0, 4])];
    store.update(&updates).unwrap();
    reference.update(&updates).unwrap();
    // Crash: no checkpoint, no clean shutdown.
    drop(store);
    // Worse: a torn record at the WAL tail, as if the crash hit mid-append.
    let wal_path = deepmapping::persist::wal_path_for(&path);
    let mut wal_bytes = std::fs::read(&wal_path).unwrap();
    wal_bytes.extend_from_slice(&[13, 0, 0, 0, 99]); // length prefix + partial garbage
    std::fs::write(&wal_path, &wal_bytes).unwrap();

    let restarted = PersistentStore::open(&path).expect("open after crash");
    assert_eq!(restarted.last_replay().records, 3);
    assert!(restarted.last_replay().dropped_tail_bytes > 0);
    let probe: Vec<u64> = (0..9_030u64).step_by(2).collect();
    assert_eq!(
        restarted.lookup_batch(&probe).unwrap(),
        reference.lookup_batch(&probe).unwrap()
    );

    // maintenance() folds the WAL into a rewritten snapshot and resets the log.
    let mut restarted = restarted;
    restarted.maintenance().unwrap();
    drop(restarted);
    let folded = PersistentStore::open(&path).expect("open after fold-in");
    assert_eq!(folded.last_replay().records, 0);
    assert_eq!(
        folded.lookup_batch(&probe).unwrap(),
        reference.lookup_batch(&probe).unwrap()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `Vaux` is not logged: the WAL is logical and replays through the same write
/// methods that keep the bit vector in step.  A store re-opened with replay must
/// therefore hold the very bits of the store that never closed.
#[test]
fn wal_replay_rebuilds_vaux_bit_for_bit() {
    let dir = temp_dir("wal-vaux");
    let path = dir.join("vaux.dmss");
    let rows = noisy_rows(1_200);
    let mut store = PersistentStore::create(quick_build(&rows), &path).expect("create");
    let at_snapshot = store.store().corrected().clone();
    let corrected: Vec<u64> = at_snapshot.iter_ones().take(40).collect();
    let predictions = store.store().model().predict(&corrected).unwrap();

    // Every way a write moves a key across the model/aux split: corrected keys
    // updated to what the model predicts (bit clears), inserts on and off the
    // model's guess, noise updates of anything, deletes, a re-insert.
    let on_pattern: Vec<Row> = corrected[..20]
        .iter()
        .zip(&predictions)
        .map(|(&key, values)| Row::new(key, values.clone()))
        .collect();
    store.update(&on_pattern).unwrap();
    let fresh: Vec<u64> = (5_000..5_030).collect();
    let guesses = store.store().model().predict(&fresh).unwrap();
    let inserts: Vec<Row> = fresh
        .iter()
        .zip(&guesses)
        .map(|(&key, guess)| {
            let values = if key % 2 == 0 { guess.clone() } else { vec![(guess[0] + 1) % 4, guess[1]] };
            Row::new(key, values)
        })
        .collect();
    store.insert(&inserts).unwrap();
    let noise: Vec<Row> = (100..140u64).map(|k| Row::new(k, vec![((k / 16 + 1) % 4) as u32, 4])).collect();
    store.update(&noise).unwrap();
    store.delete(&[corrected[25], corrected[30], 5_001, 5_002, 110]).unwrap();
    store.insert(&[Row::new(5_001, vec![3, 3])]).unwrap();

    let live = store.store().corrected().clone();
    assert_ne!(live, at_snapshot, "the writes must have moved bits");
    let live_exist = store.store().existence().clone();
    // Crash: no checkpoint, no clean shutdown.
    drop(store);

    let restarted = PersistentStore::open(&path).expect("open after crash");
    assert_eq!(restarted.last_replay().records, 5);
    assert_eq!(restarted.store().existence(), &live_exist);
    assert_eq!(restarted.store().corrected(), &live, "replayed Vaux differs");
    let dm = restarted.store();
    for key in 0..5_100u64 {
        let held = dm.aux_table().get(key).unwrap().is_some();
        assert_eq!(dm.corrected().get(key), dm.existence().get(key) && held, "key {key}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A mutation batch the store rejects (wrong column count) must error out
/// WITHOUT entering the WAL — otherwise replay would hit the same rejection on
/// every subsequent open and the store could never be reopened.
#[test]
fn rejected_mutations_do_not_poison_the_wal() {
    let dir = temp_dir("rejected");
    let path = dir.join("rejected.dmss");
    let rows = noisy_rows(600);
    let mut store = PersistentStore::create(quick_build(&rows), &path).expect("create");

    store.insert(&[Row::new(7_000, vec![1, 2])]).expect("valid insert");
    let err = store.insert(&[Row::new(7_001, vec![1, 2, 3])]); // 3 cols on a 2-col schema
    assert!(err.is_err(), "schema-violating insert must be rejected");
    let err = store.update(&[Row::new(8, vec![1])]); // 1 col on a 2-col schema
    assert!(err.is_err(), "schema-violating update must be rejected");
    // Clean rejections happen before any state is touched: the store stays
    // healthy (not poisoned) and keeps serving.
    assert!(!store.is_poisoned());
    assert_eq!(store.get(7_000).unwrap(), Some(vec![1, 2]));
    drop(store);

    // The WAL holds only the valid record; reopening replays it cleanly.
    let reopened = PersistentStore::open(&path).expect("reopen after rejected batches");
    assert_eq!(reopened.last_replay().records, 1);
    assert_eq!(reopened.get(7_000).unwrap(), Some(vec![1, 2]));
    assert_eq!(reopened.get(7_001).unwrap(), None);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn write_once_open_twice_never_touches_the_file() {
    let dir = temp_dir("read-only");
    let path = dir.join("shared.dmss");
    let rows = noisy_rows(1_800);
    let dm = quick_build(&rows);
    let probe = probe_keys(&rows);
    let expected = dm.lookup_batch(&probe).unwrap();
    dm.write_snapshot(&path).expect("write snapshot");
    drop(dm);
    let pristine = std::fs::read(&path).unwrap();

    // Two independent stores over the same snapshot, alive simultaneously —
    // the multi-process serving shape, in-process.
    let a = Arc::new(DeepMapping::open(&path).expect("open A"));
    let b = Arc::new(DeepMapping::open(&path).expect("open B"));
    let handles: Vec<_> = [Arc::clone(&a), Arc::clone(&b), a, b]
        .into_iter()
        .map(|store| {
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

    // The read path must not have written a single byte.
    assert_eq!(std::fs::read(&path).unwrap(), pristine, "snapshot mutated by reads");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn only_the_current_snapshot_version_opens() {
    let dir = temp_dir("version-gate");
    let path = dir.join("versioned.dmss");
    let rows = noisy_rows(1_500);
    quick_build(&rows).write_snapshot(&path).expect("write snapshot");
    let current = std::fs::read(&path).unwrap();
    assert_eq!(
        u16::from_le_bytes([current[4], current[5]]),
        7,
        "snapshots are written as v7"
    );
    Snapshot::open(&path).expect("the current version opens");

    // v1 memorized its aux table under a different arithmetic recipe; v2 and v3
    // carry no corrected-key bitmap; v4 partitions are keyed row arrays that
    // rank addressing cannot read; v5 manifests carry the MHAS controller's
    // settings; a v6 model section has no tag for a closed-form model.
    // Unknown future versions are rejected the same way, never guessed at.
    for version in [1u16, 2, 3, 4, 5, 6, 9] {
        let mut other = current.clone();
        other[4..6].copy_from_slice(&version.to_le_bytes());
        std::fs::write(&path, &other).unwrap();
        match Snapshot::open(&path) {
            Err(PersistError::UnsupportedVersion(v)) if v == version => {}
            other => panic!("v{version} must be UnsupportedVersion, got {other:?}"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn int8_snapshots_round_trip_quantized_and_shrink_the_model_section() {
    let dir = temp_dir("int8-round-trip");
    let rows = noisy_rows(1_500);
    let int8_path = dir.join("int8.dmss");
    let int8_dm = quick_build(&rows);
    assert!(int8_dm.model().is_quantized());
    int8_dm.write_snapshot(&int8_path).unwrap();
    // Per-output-column int8 + f32 scales/bias: the model section must come
    // out well under half the model's f32 bytes.
    let f32_bytes = 4 * int8_dm.model().network().parameter_count();
    assert!(
        int8_dm.model().size_bytes() * 2 < f32_bytes,
        "int8 model {} bytes vs f32 {f32_bytes} bytes",
        int8_dm.model().size_bytes(),
    );
    let probe = probe_keys(&rows);
    let expected = int8_dm.lookup_batch(&probe).unwrap();
    drop(int8_dm);
    let reopened = Snapshot::open(&int8_path).expect("open int8 snapshot");
    assert!(reopened.model().is_quantized(), "quantization survives reopen");
    assert_eq!(reopened.lookup_batch(&probe).unwrap(), expected);
    // Lossless against ground truth, not just self-consistent.
    let reference = ReferenceStore::from_rows(&rows);
    assert_eq!(
        reopened.lookup_batch(&probe).unwrap(),
        reference.lookup_batch(&probe).unwrap()
    );
    std::fs::remove_dir_all(&dir).ok();
}
