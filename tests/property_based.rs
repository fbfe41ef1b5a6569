//! Workspace-level property-based tests: the hybrid structure must behave exactly
//! like a plain map for *any* data, no matter how badly the model fits it, and every
//! codec in `dm-compress` must round-trip arbitrary buffers.
//!
//! The build environment has no registry access, so instead of `proptest` these
//! properties run on a small self-contained harness: each property is executed over
//! many deterministically-seeded random cases (`cases(n, |rng| ...)`), which keeps
//! failures reproducible — a failing case prints its seed, and re-running the test
//! replays the identical inputs.

use deepmapping::core::{AuxTable, DeepMapping, DeepMappingConfig, SearchStrategy, TrainingConfig};
use deepmapping::persist::PersistentStore;
use deepmapping::prelude::*;
use dm_nn::{MultiTaskSpec, TaskHeadSpec};
use dm_storage::row::ReferenceStore;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Runs `property` over `n` deterministically-seeded random cases.  When a case
/// fails, its index and seed are printed before the panic propagates, so the failing
/// inputs can be replayed in isolation.
fn cases(n: u64, mut property: impl FnMut(&mut StdRng)) {
    for case in 0..n {
        let seed = 0xD33F_4A11u64 ^ (case << 16);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut rng = StdRng::seed_from_u64(seed);
            property(&mut rng);
        }));
        if let Err(panic) = outcome {
            eprintln!("property failed on case {case}/{n} (StdRng seed {seed:#x})");
            std::panic::resume_unwind(panic);
        }
    }
}

/// A deliberately tiny, under-trained configuration: correctness must never depend on
/// the model being any good.
fn untrained_config(cardinalities: &[u32], max_key: u64) -> DeepMappingConfig {
    // The schema adds a 1<<20 key headroom and periodic residue features; mirror that
    // here so the fixed spec's input width matches what `MappingSchema::infer` builds.
    let input_dim = dm_nn::KeyEncoder::with_periodic_features(max_key + (1 << 20)).input_dim();
    let spec = MultiTaskSpec {
        input_dim,
        shared_hidden: vec![8],
        heads: cardinalities
            .iter()
            .map(|&c| TaskHeadSpec::direct(c.max(1) as usize))
            .collect(),
    };
    DeepMappingConfig::dm_z()
        .with_search(SearchStrategy::Fixed(spec))
        .with_training(TrainingConfig {
            epochs: 1,
            batch_size: 256,
            ..TrainingConfig::default()
        })
        .with_partition_bytes(1024)
        .with_disk_profile(DiskProfile::free())
}

/// A small random table: unique keys in `0..512`, two value columns from small
/// domains (cardinalities 6 and 4).
fn arb_rows(rng: &mut StdRng) -> Vec<Row> {
    let count = rng.gen_range(1..120usize);
    let mut map = BTreeMap::new();
    for _ in 0..count {
        let key = rng.gen_range(0..512u64);
        map.insert(key, vec![rng.gen_range(0..6u32), rng.gen_range(0..4u32)]);
    }
    map.into_iter().map(|(k, v)| Row::new(k, v)).collect()
}

/// Random byte payloads with mixed entropy regimes so codec match-search, RLE and
/// dictionary paths all get exercised: pure noise, long runs, repeated records.
fn arb_payload(rng: &mut StdRng) -> Vec<u8> {
    let len = rng.gen_range(0..4096usize);
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        match rng.gen_range(0..4u32) {
            // Uniform noise.
            0 => {
                let n = rng.gen_range(1..64usize).min(len - out.len());
                out.extend((0..n).map(|_| rng.gen_range(0..256u32) as u8));
            }
            // A run of one byte.
            1 => {
                let n = rng.gen_range(1..200usize).min(len - out.len());
                let b = rng.gen_range(0..256u32) as u8;
                out.extend(std::iter::repeat_n(b, n));
            }
            // A repeated short record (dictionary / LZ friendly).
            2 => {
                let w = rng.gen_range(2..12usize);
                let record: Vec<u8> =
                    (0..w).map(|_| rng.gen_range(0..8u32) as u8).collect();
                let reps = rng.gen_range(1..40usize);
                for _ in 0..reps {
                    if out.len() + w > len {
                        break;
                    }
                    out.extend_from_slice(&record);
                }
                if out.len() >= len {
                    break;
                }
            }
            // A back-reference to earlier output (long-range match).
            _ => {
                if out.is_empty() {
                    out.push(rng.gen_range(0..256u32) as u8);
                } else {
                    let start = rng.gen_range(0..out.len());
                    let n = rng.gen_range(1..64usize).min(out.len() - start).min(len - out.len());
                    let slice: Vec<u8> = out[start..start + n].to_vec();
                    out.extend_from_slice(&slice);
                }
            }
        }
    }
    out.truncate(len);
    out
}

/// Whatever rows the structure is built from, every built key returns its exact
/// values and every other key returns None — even though the model is essentially
/// untrained and misclassifies nearly everything.
#[test]
fn deepmapping_lookup_is_exact_for_arbitrary_tables() {
    cases(12, |rng| {
        let rows = arb_rows(rng);
        let config = untrained_config(&[6, 4], 512);
        let dm = DeepMapping::build(&rows, &config).unwrap();
        let reference = ReferenceStore::from_rows(&rows);
        let probe: Vec<u64> = (0..600u64).collect();
        assert_eq!(
            DeepMapping::lookup_batch(&dm, &probe).unwrap(),
            reference.lookup_batch(&probe).unwrap()
        );
    });
}

/// After any step of a write history, the store answers like the oracle map and
/// `Vaux` is exact: `vaux[k] ⇔ exist[k] ∧ aux.get(k).is_some()`.  Lookups route
/// on that bit, so a stale one is a wrong answer waiting for its key.  The same
/// set is what the keyless table derives from its own state —
/// `(base − tombstones) ∪ delta.keys` — which is how a snapshot open rebuilds it.
fn assert_matches_oracle(store: &PersistentStore, oracle: &BTreeMap<u64, Vec<u32>>) {
    let probe: Vec<u64> = (0..750u64).collect();
    let expected: Vec<Option<Vec<u32>>> = probe.iter().map(|k| oracle.get(k).cloned()).collect();
    assert_eq!(store.lookup_batch(&probe).unwrap(), expected);
    let dm = store.store();
    assert_eq!(dm.len(), oracle.len());
    for &key in &probe {
        let held = dm.aux_table().get(key).unwrap().is_some();
        assert_eq!(
            dm.corrected().get(key),
            dm.existence().get(key) && held,
            "Vaux bit of key {key} (exists {}, held {held})",
            dm.existence().get(key)
        );
    }
    // Set equality (a live `Vaux` may have addressed keys past the derived one's end).
    assert!(
        dm.corrected().iter_ones().eq(dm.aux_table().held_keys().iter_ones()),
        "Vaux != (base - tombstones) + delta keys"
    );
    assert_eq!(
        dm.memorized_tuples() as u64,
        dm.existence().count_ones() - dm.corrected().count_ones()
    );
}

/// The keyless table by itself (no model, no training): for random key sets and
/// random columns — including a column that is all zero inside one partition
/// (width 1), one holding `u32::MAX` (width 32), rows at ordinals `R − 1` and
/// `R`, and a short last partition — every probe, of held keys and of keys
/// below, between and above them, equals a `BTreeMap`.
#[test]
fn keyless_aux_table_matches_a_btreemap() {
    cases(24, |rng| {
        let columns = rng.gen_range(1..5usize);
        // R rows per partition: small enough that every case spans several.
        let per_partition = rng.gen_range(2..40usize);
        let partition_bytes = per_partition * Row::fixed_width(columns);
        let count = per_partition * rng.gen_range(1..5usize) + rng.gen_range(0..per_partition);
        let stride = rng.gen_range(1..9u64);
        let offset = rng.gen_range(1..50u64);
        let wide = rng.gen_range(0..count);
        let oracle: BTreeMap<u64, Vec<u32>> = (0..count)
            .map(|ordinal| {
                let key = offset + ordinal as u64 * stride + rng.gen_range(0..stride);
                let values = (0..columns)
                    .map(|column| match column {
                        // All zero in partition 0, a small domain elsewhere.
                        0 if ordinal < per_partition => 0,
                        1 if ordinal == wide => u32::MAX,
                        _ => rng.gen::<u32>() >> rng.gen_range(20..32u32),
                    })
                    .collect();
                (key, values)
            })
            .collect();
        let mut rows: Vec<Row> = oracle.iter().map(|(&k, v)| Row::new(k, v.clone())).collect();
        // Build order must not matter.
        rows.rotate_left(count / 3);
        let table = AuxTable::build(
            &rows,
            columns,
            Codec::Lz,
            partition_bytes,
            if rng.gen_bool(0.5) { usize::MAX } else { 256 },
            DiskProfile::free(),
            Metrics::new(),
        )
        .unwrap();
        assert_eq!(table.len(), count);
        assert_eq!(table.partition_count(), count.div_ceil(per_partition));
        assert_eq!(table.partition_len(table.partition_count() - 1), (count - 1) % per_partition + 1);
        let top = *oracle.keys().next_back().unwrap();
        let mut probe: Vec<u64> = (0..top + 70).collect();
        probe.extend([u64::MAX, top, 0, offset]);
        let expected: Vec<Option<Vec<u32>>> = probe.iter().map(|k| oracle.get(k).cloned()).collect();
        assert_eq!(table.get_batch(&probe).unwrap(), expected);
        for (key, expected) in probe.iter().zip(&expected).step_by(7) {
            assert_eq!(&table.get(*key).unwrap(), expected, "key {key}");
        }
        let scanned: BTreeMap<u64, Vec<u32>> =
            table.iter_rows().unwrap().into_iter().map(|r| (r.key, r.values)).collect();
        assert_eq!(scanned, oracle);
        assert!(table.held_keys().iter_ones().eq(oracle.keys().copied()));
    });
}

/// Random histories of insert / update (on the model's guess and off it) /
/// delete / re-insert / `maintenance()` / checkpoint / reopen keep a persisted
/// DeepMapping equivalent to a `BTreeMap` (Algorithms 3–5 plus recovery as one
/// property), with the `Vaux` invariant checked after every step.
#[test]
fn write_histories_match_a_btreemap_and_keep_vaux_exact() {
    cases(10, |rng| {
        let base = arb_rows(rng);
        let config = untrained_config(&[6, 4], 700);
        let dir = std::env::temp_dir().join(format!(
            "dm-property-history-{}-{:x}",
            std::process::id(),
            rng.gen::<u64>()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("history.dmss");
        let mut store =
            PersistentStore::create(DeepMapping::build(&base, &config).unwrap(), &path).unwrap();
        let mut oracle: BTreeMap<u64, Vec<u32>> =
            base.iter().map(|r| (r.key, r.values.clone())).collect();
        assert_matches_oracle(&store, &oracle);
        for _ in 0..rng.gen_range(1..60usize) {
            // Half the time aim at a live key, so updates, deletes and
            // re-inserts hit; otherwise anywhere in (and past) the key range.
            let key = match oracle.keys().nth(rng.gen_range(0..oracle.len().max(1))) {
                Some(&live) if rng.gen_bool(0.5) => live,
                _ => rng.gen_range(0..700u64),
            };
            // On the model's guess the row is predicted, off it corrected.
            let values = if rng.gen_bool(0.4) {
                store.store().model().predict(&[key]).unwrap().remove(0)
            } else {
                vec![rng.gen_range(0..6u32), rng.gen_range(0..4u32)]
            };
            let row = Row::new(key, values);
            match rng.gen_range(0..9u8) {
                0 | 1 => {
                    store.insert(std::slice::from_ref(&row)).unwrap();
                    oracle.insert(row.key, row.values);
                }
                2 | 3 => {
                    store.update(std::slice::from_ref(&row)).unwrap();
                    if let Some(values) = oracle.get_mut(&row.key) {
                        *values = row.values;
                    }
                }
                4 => {
                    store.delete(&[key]).unwrap();
                    oracle.remove(&key);
                }
                5 => {
                    store.delete(&[key]).unwrap();
                    store.insert(std::slice::from_ref(&row)).unwrap();
                    oracle.insert(row.key, row.values);
                }
                6 if !oracle.is_empty() => store.maintenance().unwrap(),
                7 => {
                    store.checkpoint().unwrap();
                }
                _ => {
                    drop(store);
                    store = PersistentStore::open(&path).unwrap();
                }
            }
            assert_matches_oracle(&store, &oracle);
        }
        std::fs::remove_dir_all(&dir).ok();
    });
}

/// Range lookups agree with filtering the reference map.
#[test]
fn range_lookup_matches_reference() {
    cases(10, |rng| {
        let rows = arb_rows(rng);
        let lo = rng.gen_range(0..600u64);
        let hi = lo + rng.gen_range(0..200u64);
        let config = untrained_config(&[6, 4], 512);
        let dm = DeepMapping::build(&rows, &config).unwrap();
        let got = dm.range_lookup(lo, hi).unwrap();
        let expected: Vec<Row> = rows
            .iter()
            .filter(|r| r.key >= lo && r.key <= hi)
            .cloned()
            .collect();
        assert_eq!(got, expected);
        // The trait-level range scan is the same operation.
        assert_eq!(TupleStore::scan_range(&dm, lo, hi).unwrap(), expected);
    });
}

/// Every high-level codec round-trips arbitrary byte strings, raw and framed (the
/// partition formats depend on this holding for *any* payload, not just well-formed
/// ones).
#[test]
fn codecs_round_trip_arbitrary_buffers() {
    cases(48, |rng| {
        let data = arb_payload(rng);
        for codec in Codec::paper_sweep(8) {
            let compressed = codec.compress(&data);
            assert_eq!(
                codec.decompress(&compressed).unwrap(),
                data,
                "codec {codec:?}"
            );
            let framed = dm_compress::compress_frame(&codec, &data);
            assert_eq!(
                dm_compress::decompress_frame(&framed).unwrap(),
                data,
                "framed codec {codec:?}"
            );
        }
    });
}

/// varint: u64, zigzag i64 and delta-sequence encodings round-trip and report the
/// exact number of bytes they consumed.
#[test]
fn varint_round_trips_arbitrary_values() {
    use dm_compress::varint;
    cases(64, |rng| {
        let count = rng.gen_range(0..64usize);
        // Mix magnitudes so 1-byte through 10-byte encodings all occur.
        let values: Vec<u64> = (0..count)
            .map(|_| {
                let bits = rng.gen_range(0..64u32);
                rng.gen::<u64>() >> bits
            })
            .collect();
        let mut buf = Vec::new();
        for &v in &values {
            varint::write_u64(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            let (decoded, next) = varint::read_u64(&buf, pos).unwrap();
            assert_eq!(decoded, v);
            assert!(next > pos, "cursor must advance");
            pos = next;
        }
        assert_eq!(pos, buf.len(), "all bytes must be consumed");

        let signed: Vec<i64> = values.iter().map(|&v| (v as i64).wrapping_mul(-1)).collect();
        let mut buf = Vec::new();
        for &v in &signed {
            varint::write_i64(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &signed {
            let (decoded, next) = varint::read_i64(&buf, pos).unwrap();
            assert_eq!(decoded, v);
            pos = next;
        }

        // Delta sequences must handle non-monotone inputs via zigzag deltas.
        let mut buf = Vec::new();
        varint::write_delta_sequence(&mut buf, &values);
        let (decoded, end) = varint::read_delta_sequence(&buf, 0).unwrap();
        assert_eq!(decoded, values);
        assert_eq!(end, buf.len());
    });
}

/// rle: run-length encoding round-trips payloads of every run profile.
#[test]
fn rle_round_trips_arbitrary_buffers() {
    use dm_compress::rle;
    cases(64, |rng| {
        let data = arb_payload(rng);
        let compressed = rle::compress(&data);
        assert_eq!(rle::decompress(&compressed).unwrap(), data);
    });
}

/// bitpack: values packed at the minimum width (or any wider width) unpack exactly.
#[test]
fn bitpack_round_trips_arbitrary_widths() {
    use dm_compress::bitpack;
    cases(64, |rng| {
        let count = rng.gen_range(0..96usize);
        let width = rng.gen_range(0..=64u32);
        let values: Vec<u64> = (0..count)
            .map(|_| {
                if width == 0 {
                    0
                } else if width == 64 {
                    rng.gen::<u64>()
                } else {
                    rng.gen::<u64>() & ((1u64 << width) - 1)
                }
            })
            .collect();
        let max = values.iter().copied().max().unwrap_or(0);
        let min_bits = bitpack::bits_for(max);
        assert!(max == 0 || max >> (min_bits - 1) == 1, "bits_for too wide");
        // Any width from the minimum up to 64 must round-trip.
        for bits in [min_bits, (min_bits + 7).min(64), 64] {
            let packed = bitpack::pack(&values, bits.max(1)).unwrap();
            assert_eq!(bitpack::unpack(&packed).unwrap(), values, "bits {bits}");
        }
    });
}

/// dictionary: record-dictionary encoding round-trips for every record width,
/// including payloads whose length is not a multiple of the width.
#[test]
fn dictionary_round_trips_arbitrary_record_widths() {
    use dm_compress::dictionary;
    cases(64, |rng| {
        let data = arb_payload(rng);
        for width in [1usize, 2, 5, 8, 16] {
            let compressed = dictionary::compress(&data, width);
            assert_eq!(
                dictionary::decompress(&compressed).unwrap(),
                data,
                "record width {width}"
            );
        }
    });
}

/// huffman: entropy coding round-trips payloads of every skew, including empty and
/// single-symbol inputs.
#[test]
fn huffman_round_trips_arbitrary_buffers() {
    use dm_compress::huffman;
    cases(64, |rng| {
        let data = arb_payload(rng);
        let compressed = huffman::compress(&data);
        assert_eq!(huffman::decompress(&compressed).unwrap(), data);
    });
    // Degenerate alphabets.
    for data in [vec![], vec![7u8], vec![42u8; 1000]] {
        let compressed = huffman::compress(&data);
        assert_eq!(huffman::decompress(&compressed).unwrap(), data);
    }
}

/// lz: every match-search effort level round-trips every payload.
#[test]
fn lz_round_trips_at_every_effort_level() {
    use dm_compress::lz::{self, LzConfig};
    cases(48, |rng| {
        let data = arb_payload(rng);
        for config in [LzConfig::fast(), LzConfig::balanced(), LzConfig::thorough()] {
            let compressed = lz::compress(&data, &config);
            assert_eq!(lz::decompress(&compressed).unwrap(), data);
        }
    });
}

/// The existence bit vector serialization round-trips arbitrary key sets and answers
/// membership exactly.
#[test]
fn bitvec_round_trips_arbitrary_key_sets() {
    cases(32, |rng| {
        let count = rng.gen_range(0..300usize);
        let keys: std::collections::BTreeSet<u64> =
            (0..count).map(|_| rng.gen_range(0..100_000u64)).collect();
        let bv: BitVec = keys.iter().copied().collect();
        assert_eq!(bv.count_ones() as usize, keys.len());
        let restored = BitVec::from_bytes(&bv.to_bytes()).unwrap();
        for k in 0..1_000u64 {
            assert_eq!(restored.get(k), keys.contains(&k));
        }
        assert_eq!(
            restored.iter_ones().collect::<Vec<_>>(),
            keys.into_iter().collect::<Vec<_>>()
        );
    });
}

/// A random key encoder — 1 to 64 bit features, up to five one-hot moduli from
/// `1..=64`, up to three ramp periods of any size — and keys that stress it: inside
/// and past `2^bits`, past `2^32` (where the residues fall back to division), and
/// `u64::MAX`.
fn arb_encoder_and_keys(rng: &mut StdRng, count: usize) -> (dm_nn::KeyEncoder, Vec<u64>) {
    let bits = rng.gen_range(1..=64usize);
    let moduli = (0..rng.gen_range(0..=5usize))
        .map(|_| rng.gen_range(1..=64u64))
        .collect();
    let ramps: Vec<u64> = (0..rng.gen_range(0..=3usize))
        .map(|_| match rng.gen_range(0..3u32) {
            0 => rng.gen_range(2..100u64),
            1 => rng.gen_range(100..10_000_000u64),
            _ => rng.gen::<u64>() | 2,
        })
        .collect();
    let encoder = dm_nn::KeyEncoder::from_parts(bits, moduli, &ramps);
    let keys = (0..count)
        .map(|i| match (i, rng.gen_range(0..4u32)) {
            (0, _) => u64::MAX,
            (1, _) => 0,
            (_, 0) => rng.gen::<u64>() >> (64 - bits),
            (_, 1) => rng.gen::<u64>(),
            (_, 2) => rng.gen_range(0..1u64 << 21),
            _ => (1u64 << 32).wrapping_add(rng.gen_range(0..64u64)) - 32,
        })
        .collect();
    (encoder, keys)
}

/// A key's quantized form is the row quantizer's image of its f32 features: for any
/// encoder and any key, `quantize_keys` writes the bytes and the scale that
/// quantizing `encode_batch`'s rows produces — under the scalar quantizer and under
/// the vector one — so an int8 first layer cannot tell which of the two fed it.
#[test]
fn quantized_keys_are_the_quantized_features_byte_for_byte() {
    use dm_nn::kernel::{Kernel, QuantizedRows, RowsView};
    cases(200, |rng| {
        let (encoder, keys) = arb_encoder_and_keys(rng, 40);
        let features = encoder.encode_batch(&keys);
        let rows = RowsView::of_matrix(&features, 0, keys.len()).unwrap();
        let mut from_keys = QuantizedRows::default();
        encoder.quantize_keys(&keys, &mut from_keys);
        assert_eq!(from_keys.count(), keys.len());
        for kernel in [Kernel::Scalar, Kernel::Vector] {
            let mut from_features = QuantizedRows::default();
            from_features.fill(kernel, rows);
            for (i, key) in keys.iter().enumerate() {
                assert_eq!(
                    from_keys.row(i),
                    from_features.row(i),
                    "{kernel:?} key {key:#x} of {encoder:?}"
                );
                assert_eq!(
                    from_keys.scales()[i].to_bits(),
                    from_features.scales()[i].to_bits(),
                    "{kernel:?} scale of key {key:#x} of {encoder:?}"
                );
            }
        }
    });
}

/// Entering the model walk with keys predicts what entering it with their encoded
/// features predicts: int8 and f32 models, with a trunk (int8: the keys become the
/// first layer's bytes directly) and without one (every head reads the input), at
/// row counts around the walk's sixteen-key groups and 96-row chunks.
#[test]
fn keys_in_predicts_what_features_in_predicts() {
    cases(12, |rng| {
        let (encoder, _) = arb_encoder_and_keys(rng, 0);
        if encoder.input_dim() > 256 {
            return; // keep the random models small
        }
        for shared_hidden in [vec![24, 19], vec![]] {
            let spec = MultiTaskSpec {
                input_dim: encoder.input_dim(),
                shared_hidden,
                heads: vec![
                    TaskHeadSpec::with_hidden(vec![35], 5),
                    TaskHeadSpec::with_hidden(vec![35], 17),
                ],
            };
            let f32_model = dm_nn::MultiTaskModel::new(rng, &spec).unwrap();
            let mut int8_model = f32_model.clone();
            int8_model.quantize_int8().unwrap();
            for rows in [0usize, 1, 15, 16, 17, 95, 96, 97, 300] {
                let (_, keys) = arb_encoder_and_keys(rng, rows);
                let features = encoder.encode_batch(&keys);
                for model in [&f32_model, &int8_model] {
                    let mut expected = Vec::new();
                    model.forward_batch_flat(&features, &mut expected).unwrap();
                    let mut got = vec![9; expected.len()];
                    let tasks = model.forward_keys_flat(&encoder, &keys, &mut got).unwrap();
                    assert_eq!(tasks, 2);
                    assert_eq!(
                        got,
                        expected,
                        "{rows} rows, quantized: {}, trunk: {:?}, {encoder:?}",
                        model.is_quantized(),
                        spec.shared_hidden
                    );
                }
            }
        }
    });
}
