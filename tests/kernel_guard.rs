//! Kernel-selection losslessness guard.
//!
//! The auxiliary table memorizes the rows the model mispredicted **at build
//! time**; a lookup trusts the model for everything else.  If serve-time
//! predictions drifted from build-time predictions — e.g. because a snapshot
//! written on an AVX2 host is opened on a host that selects the scalar kernel —
//! the hybrid would silently return wrong tuples.  These tests pin the
//! invariant that makes that impossible: the scalar and vector kernels are
//! bit-identical, so a store snapshotted under one kernel reopens under the
//! other with byte-identical tuple reads.
//!
//! A batch runs on the calling thread, where `kernel::with_forced` applies.

use deepmapping::nn::kernel::{self, Kernel};
use deepmapping::nn::{Activation, Dense, Matrix, MultiTaskModel, MultiTaskSpec, TaskHeadSpec};
use deepmapping::persist::{Snapshot, SnapshotExt};
use deepmapping::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dm-kernel-guard-{tag}-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Rows with a learnable backbone plus scattered noise, so the model memorizes
/// most rows (predictions matter) while the aux table holds real overrides.
fn mixed_rows(n: u64) -> Vec<Row> {
    (0..n)
        .map(|k| {
            let h = k.wrapping_mul(0x9E3779B97F4A7C15) >> 17;
            if h % 11 == 0 {
                Row::new(k, vec![(h % 5) as u32, ((h >> 7) % 3) as u32])
            } else {
                Row::new(k, vec![((k / 16) % 4) as u32, ((k / 64) % 3) as u32])
            }
        })
        .collect()
}

fn build_store(rows: &[Row]) -> DeepMapping {
    DeepMappingBuilder::dm_z()
        .training(TrainingConfig {
            epochs: 12,
            batch_size: 512,
            ..TrainingConfig::default()
        })
        .partition_bytes(4 * 1024)
        .build(rows)
        .expect("build")
}

/// A live store must answer identically — byte for byte — under both kernels.
#[test]
fn live_store_reads_are_byte_identical_across_kernels() {
    if !kernel::vector_available() {
        eprintln!("vector kernel unavailable; scalar-vs-vector guard is trivial here");
    }
    let rows = mixed_rows(3_000);
    let dm = build_store(&rows);
    let probe: Vec<u64> = (0..6_000u64).collect();
    let scalar = kernel::with_forced(Kernel::Scalar, || dm.lookup_batch(&probe).unwrap());
    let vector = kernel::with_forced(Kernel::Vector, || dm.lookup_batch(&probe).unwrap());
    assert_eq!(scalar, vector);
    // And both agree with ground truth (the aux table covers mispredictions).
    let reference = deepmapping::storage::row::ReferenceStore::from_rows(&rows);
    assert_eq!(scalar, reference.lookup_batch(&probe).unwrap());
}

/// Snapshot an int8 store under one kernel, reopen and serve it under the
/// others: every tuple read must be byte-identical, in both directions and
/// under every int8 form.
#[test]
fn quantized_snapshot_round_trips_across_kernel_selection() {
    let dir = scratch_dir("quant-roundtrip");
    let rows = mixed_rows(2_500);
    let probe: Vec<u64> = (0..5_000u64).collect();
    let reference = deepmapping::storage::row::ReferenceStore::from_rows(&rows);

    let path_s = dir.join("int8-built-under-scalar.dmss");
    let expected = kernel::with_forced(Kernel::Scalar, || {
        let dm = build_store(&rows);
        assert!(dm.model().is_quantized());
        Snapshot::write(&dm, &path_s).expect("write snapshot");
        dm.lookup_batch(&probe).unwrap()
    });
    assert_eq!(expected, reference.lookup_batch(&probe).unwrap());
    let under_vector = kernel::with_forced(Kernel::Vector, || {
        let reopened = DeepMapping::open(&path_s).expect("open snapshot");
        assert!(reopened.model().is_quantized());
        reopened.lookup_batch(&probe).unwrap()
    });
    assert_eq!(expected, under_vector, "int8 scalar-written, vector-served");
    // The vector kernel has two int8 forms; the one above is whatever this
    // machine selects (`vpdpbusd` on an AVX-512-VNNI host), this is the AVX2
    // one.
    let under_avx2 = kernel::with_forced(Kernel::Vector, || {
        kernel::with_avx512_disabled(|| {
            let reopened = DeepMapping::open(&path_s).expect("open snapshot");
            reopened.lookup_batch(&probe).unwrap()
        })
    });
    assert_eq!(expected, under_avx2, "int8 scalar-written, AVX2-served");

    let path_v = dir.join("int8-built-under-vector.dmss");
    let expected = kernel::with_forced(Kernel::Vector, || {
        let dm = build_store(&rows);
        Snapshot::write(&dm, &path_v).expect("write snapshot");
        dm.lookup_batch(&probe).unwrap()
    });
    let under_scalar = kernel::with_forced(Kernel::Scalar, || {
        let reopened = DeepMapping::open(&path_v).expect("open snapshot");
        reopened.lookup_batch(&probe).unwrap()
    });
    assert_eq!(expected, under_scalar, "int8 vector-written, scalar-served");

    std::fs::remove_dir_all(&dir).ok();
}

/// Mutations that consult the model (insert/update decide whether the model
/// generalizes to the new row) must also be kernel-independent.
#[test]
fn modifications_are_kernel_independent() {
    let rows = mixed_rows(1_500);
    let run = |kernel_choice: Kernel| {
        kernel::with_forced(kernel_choice, || {
            let mut dm = build_store(&rows);
            let inserts: Vec<Row> = (1_500..1_600u64)
                .map(|k| Row::new(k, vec![((k / 16) % 4) as u32, ((k / 64) % 3) as u32]))
                .collect();
            dm.insert_rows(&inserts).unwrap();
            let updates: Vec<Row> = (0..100u64).map(|k| Row::new(k, vec![3, 2])).collect();
            dm.update_rows(&updates).unwrap();
            let probe: Vec<u64> = (0..2_000u64).collect();
            (
                dm.lookup_batch(&probe).unwrap(),
                dm.aux_table().len(),
                dm.memorized_tuples(),
            )
        })
    };
    assert_eq!(run(Kernel::Scalar), run(Kernel::Vector));
}

// ---------------------------------------------------------------------------
// Parent-pinned logit digests.
//
// The constants below were computed at commit 3498e78 — before the int8
// kernels were rewritten around `vpdpbusd` quad panels — by the very helpers
// of this section, under both the scalar and the vector kernel of that commit.
// A stored int8 snapshot carries an auxiliary table memorized against those
// exact logits, so any kernel that does not reproduce them bit for bit would
// silently stop being lossless for files already on disk.
// ---------------------------------------------------------------------------

/// FNV-1a over bytes.
fn fnv1a_bytes(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over the little-endian bytes of each word.
fn fnv1a(words: impl IntoIterator<Item = u32>) -> u64 {
    fnv1a_bytes(words.into_iter().flat_map(u32::to_le_bytes))
}

/// A fixed signed input: values in `[-2, 2)` with scattered exact zeros and
/// every 17th row all-zero (the row quantizer's sentinel-scale branch).
fn signed_input(rows: usize, cols: usize, salt: u64) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    for r in 0..rows {
        if r % 17 == 16 {
            continue;
        }
        for c in 0..cols {
            let h = (r as u64 * 131 + c as u64 * 17 + salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let v = ((h >> 40) % 4000) as f32 / 1000.0 - 2.0;
            m.set(r, c, if h.is_multiple_of(7) { 0.0 } else { v });
        }
    }
    m
}

/// The frozen benchmark's network shape: 38 → 141 → 141 → 5 × (35 → c).
fn benchmark_shape_spec() -> MultiTaskSpec {
    MultiTaskSpec {
        input_dim: 38,
        shared_hidden: vec![141, 141],
        heads: [4usize, 8, 16, 32, 64]
            .iter()
            .map(|&c| TaskHeadSpec::with_hidden(vec![35], c))
            .collect(),
    }
}

/// That network, He-initialized from a fixed seed and quantized.
fn benchmark_shape_model() -> MultiTaskModel {
    let spec = benchmark_shape_spec();
    let mut model = MultiTaskModel::new(&mut StdRng::seed_from_u64(14), &spec).expect("model");
    model.quantize_int8().expect("quantize");
    model
}

const PINNED_ROWS: usize = 300;

fn model_logits_digest(model: &MultiTaskModel) -> u64 {
    let x = signed_input(PINNED_ROWS, 38, 1);
    let logits = model.forward(&x).expect("forward");
    fnv1a(
        logits
            .iter()
            .flat_map(|m| m.as_slice().iter().map(|v| v.to_bits())),
    )
}

fn model_classes_digest(model: &MultiTaskModel) -> u64 {
    let x = signed_input(PINNED_ROWS, 38, 1);
    let mut flat = Vec::new();
    model
        .forward_batch_flat(&x, &mut flat)
        .expect("forward_batch_flat");
    fnv1a(flat)
}

fn odd_dense_digest() -> u64 {
    let mut layer = Dense::new(&mut StdRng::seed_from_u64(15), 5, 13, Activation::Relu);
    layer.quantize_int8().expect("quantize");
    let y = layer.forward(&signed_input(7, 5, 2)).expect("forward");
    assert_eq!((y.rows(), y.cols()), (7, 13));
    fnv1a(y.as_slice().iter().map(|v| v.to_bits()))
}

/// Digests of the logit bits (per-layer [`Dense::forward`] chain), of the
/// predictions of the fused model walk, and of one odd-shaped layer, all at
/// commit 3498e78.
const PINNED_MODEL_LOGITS: u64 = 0xdde1_da1d_1cba_09a6;
const PINNED_MODEL_CLASSES: u64 = 0xd82b_393e_476c_577f;
const PINNED_ODD_DENSE: u64 = 0xd7e3_3636_0028_06e9;

/// Runs `check` under every int8 form this machine has: the scalar reference,
/// the vector kernel as selected (`vpdpbusd` on an AVX-512-VNNI host) and with
/// AVX-512 switched off (the AVX2 form).
fn under_every_kernel(check: impl Fn(&str)) {
    kernel::with_forced(Kernel::Scalar, || check("scalar"));
    kernel::with_forced(Kernel::Vector, || check(Kernel::Vector.name()));
    kernel::with_forced(Kernel::Vector, || {
        kernel::with_avx512_disabled(|| check("vector without AVX-512"))
    });
}

/// Digest of the benchmark-shape model's predictions for [`pinned_keys`] as
/// commit 86d3841 computed them — `encode_batch` into a feature matrix, the row
/// quantizer over it, the walk — the last commit before a lookup's keys went
/// to the first layer's bytes without passing through f32.  [`signed_input`]
/// is not the encoding of any key, so the three digests above can only enter
/// the walk as features; this one pins the keys entry to the same arithmetic.
const PINNED_KEY_CLASSES: u64 = 0x1dff_4f1f_e398_fa05;

/// Keys of the frozen benchmark's domain (21 bits) beside keys past it, past
/// 2³² and at the top of `u64`.
fn pinned_keys() -> Vec<u64> {
    (0..PINNED_ROWS as u64)
        .map(|i| {
            let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            match i % 10 {
                0 => h,
                1 => u64::MAX - i,
                2 => (1 << 32) + i,
                _ => h >> 43,
            }
        })
        .collect()
}

/// The frozen benchmark's key encoding (21 bits + one-hots mod 2, 3, 5, 7 = 38
/// features) and column cardinalities.
fn benchmark_shape_schema() -> deepmapping::core::MappingSchema {
    deepmapping::core::MappingSchema {
        key_encoder: deepmapping::nn::KeyEncoder::with_periodic_features((1 << 21) - 1),
        cardinalities: vec![4, 8, 16, 32, 64],
    }
}

/// The benchmark-shape network behind the frozen benchmark's key encoding.
fn benchmark_shape_mapping_model() -> deepmapping::core::MappingModel {
    deepmapping::core::MappingModel::from_parts(benchmark_shape_schema(), benchmark_shape_model())
        .expect("model")
}

fn key_classes_digest(model: &deepmapping::core::MappingModel) -> u64 {
    let mut flat = Vec::new();
    let columns = model
        .predict_into(&pinned_keys(), &mut flat)
        .expect("predict_into");
    assert_eq!((columns, flat.len()), (5, 5 * PINNED_ROWS));
    fnv1a(flat)
}

/// The lookup path's entry — keys in, `MappingModel::predict_into` — lands on
/// the pinned arithmetic under every int8 form, and agrees with the features-in
/// entry over the same keys.
#[test]
fn int8_predictions_from_keys_match_the_digest_pinned_at_the_parent_commit() {
    let model = benchmark_shape_mapping_model();
    let features = model.schema().key_encoder.encode_batch(&pinned_keys());
    under_every_kernel(|form| {
        assert_eq!(key_classes_digest(&model), PINNED_KEY_CLASSES, "keys in, {form}");
        let mut flat = Vec::new();
        model
            .network()
            .forward_batch_flat(&features, &mut flat)
            .expect("forward_batch_flat");
        assert_eq!(fnv1a(flat), PINNED_KEY_CLASSES, "features in, {form}");
    });
}

#[test]
fn int8_logits_match_the_digests_pinned_at_the_parent_commit() {
    let model = benchmark_shape_model();
    under_every_kernel(|form| {
        assert_eq!(model_logits_digest(&model), PINNED_MODEL_LOGITS, "logits, {form}");
        assert_eq!(model_classes_digest(&model), PINNED_MODEL_CLASSES, "classes, {form}");
        assert_eq!(odd_dense_digest(), PINNED_ODD_DENSE, "5x13 layer, {form}");
    });
}

// ---------------------------------------------------------------------------
// Parent-pinned trained weights.
//
// Training is part of the store's arithmetic too: `bytes_per_user_byte` of the
// frozen benchmark stands still only while a seeded build trains the same
// weights, and a retrain on another host must memorize the same rows.  The
// constant below was computed at commit f817825 — before the gradient kernels
// (`xᵀ·dy`, `dy·Wᵀ`) were register-blocked — under the scalar, AVX-512 and
// AVX2 forms of that commit, which agreed.  A kernel that reorders one
// gradient sum, skips differently on a zero activation or folds the sixteen
// lane sums through another tree moves it.
// ---------------------------------------------------------------------------

/// Rows of the frozen benchmark's `mixed` shape: five columns of cardinality
/// 4 … 64, each a bit field of the key, 40 % of the rows noise in every column.
fn benchmark_mixed_rows(n: u64) -> Vec<Row> {
    const CARDINALITIES: [u32; 5] = [4, 8, 16, 32, 64];
    (0..n)
        .map(|k| {
            let h = k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11;
            let values = (0..5)
                .map(|c| {
                    let field = if h % 5 < 2 { h >> (7 * c) } else { k >> (4 + 2 * (c % 4)) };
                    field as u32 & (CARDINALITIES[c] - 1)
                })
                .collect();
            Row::new(k, values)
        })
        .collect()
}

/// Digest of the serialized f32 weights after a seeded [`MappingModel::train`]
/// of the benchmark-shape network: three epochs over 5 003 rows in batches of
/// 2 048, so every epoch ends on a ragged batch of 907 rows — no multiple of
/// any tile's row count.
///
/// [`MappingModel::train`]: deepmapping::core::MappingModel::train
fn trained_weights_digest() -> u64 {
    let (schema, spec) = (benchmark_shape_schema(), benchmark_shape_spec());
    let mut model = deepmapping::core::MappingModel::new(schema, &spec, 14).expect("model");
    let config = TrainingConfig {
        epochs: 3,
        batch_size: 2048,
        ..TrainingConfig::default()
    };
    let loss = model.train(&benchmark_mixed_rows(5_003), &config, 23).expect("train");
    assert!(loss.is_finite());
    fnv1a_bytes(deepmapping::nn::serialize::serialize_multitask(model.network()))
}

const PINNED_TRAINED_WEIGHTS: u64 = 0x4ecd_69bc_f225_a3ea;

#[test]
fn trained_weights_match_the_digest_pinned_at_the_parent_commit() {
    under_every_kernel(|form| {
        assert_eq!(trained_weights_digest(), PINNED_TRAINED_WEIGHTS, "trained weights, {form}");
    });
}

/// Training that stops early only truncates: the frozen benchmark's shape and
/// batch over 20 000 `mixed` rows ends before its 10-epoch budget, with the
/// very weights of the same seeded run capped at the epochs it ran, and an
/// int8 model that still memorizes the 60 % of clean rows.
#[test]
fn an_early_stop_keeps_the_weights_of_the_run_capped_there() {
    let rows = benchmark_mixed_rows(20_000);
    let train = |epochs: usize| {
        let (schema, spec) = (benchmark_shape_schema(), benchmark_shape_spec());
        let mut model = deepmapping::core::MappingModel::new(schema, &spec, 14).expect("model");
        let config = TrainingConfig { epochs, batch_size: 2048, ..TrainingConfig::default() };
        model.train(&rows, &config, 23).expect("train");
        model
    };
    let mut stopped = train(10);
    let epochs = stopped.trained_epochs();
    assert!(epochs < 10, "{epochs} epochs, stop {:?}", stopped.training_stop());
    let capped = train(epochs);
    assert_eq!(capped.training_stop(), Some(deepmapping::core::TrainingStop::Budget));
    assert_eq!(fnv1a_bytes(stopped.to_bytes()), fnv1a_bytes(capped.to_bytes()));
    stopped.quantize_int8().expect("quantize");
    let memorized = stopped.memorization_rate(&rows).expect("memorization");
    assert!(memorized >= 0.595, "int8 memorizes {memorized}");
}

// ---------------------------------------------------------------------------
// Pinned build → retrain chain.
//
// `DeepMapping::build` and `retrain` run one select → train → quantize →
// assure chain, each under its own seed salt.  Two pins cover it.
//
// The network pin builds the ladder's first network rung, width 16
// (`MappingModel::ladder_specs`), as a fixed architecture, so the chain's
// seeds, its training, its int8 quantization and its trained weights stay
// pinned under every kernel form.  It was derived when the ladder replaced
// the single 141-wide guess, on the rung the climb kept then.
//
// The default-architecture pin is what the climb keeps now: on these rows
// the closed form, the same before and after the retrain, so it also pins
// that the retrain's climb, which trains rung 16 again, still drops it.  A
// change that moves either moves what the frozen benchmark builds: its
// `bytes_per_user_byte` and `write_mix`'s maintenance.
// ---------------------------------------------------------------------------

/// Digests of `digest(model)` after a seeded build of the benchmark-shape
/// rows under `search` and again after `retrain()`.
fn built_and_retrained_digests(
    search: SearchStrategy,
    digest: impl Fn(&deepmapping::core::MappingModel) -> Vec<u8>,
) -> (u64, u64) {
    let mut dm = DeepMappingBuilder::dm_z()
        .training(TrainingConfig {
            epochs: 3,
            batch_size: 2048,
            ..TrainingConfig::default()
        })
        .search(search)
        .partition_bytes(4 * 1024)
        .build(&benchmark_mixed_rows(5_003))
        .expect("build");
    let built = fnv1a_bytes(digest(dm.model()));
    dm.retrain().expect("retrain");
    assert_eq!(dm.retrain_count(), 1);
    (built, fnv1a_bytes(digest(dm.model())))
}

/// The weights of rung 16 after the build and after the retrain.
const PINNED_BUILT_AND_RETRAINED_NETWORK: (u64, u64) = (0x1e13_568d_0dc8_cc06, 0xdf2c_c4a2_8b61_4569);

#[test]
fn build_and_retrain_train_the_weights_pinned_at_the_parent_commit() {
    let rows = benchmark_mixed_rows(5_003);
    let schema = deepmapping::core::MappingSchema::infer(&rows, deepmapping::core::KEY_HEADROOM)
        .expect("schema");
    let rung_16 = deepmapping::core::MappingModel::ladder_specs(&schema, rows.len()).remove(0);
    assert_eq!(rung_16.shared_hidden, [16]);
    under_every_kernel(|form| {
        let digests = built_and_retrained_digests(SearchStrategy::Fixed(rung_16.clone()), |model| {
            assert!(model.closed_form().is_none());
            deepmapping::nn::serialize::serialize_multitask(model.network())
        });
        assert_eq!(digests, PINNED_BUILT_AND_RETRAINED_NETWORK, "{form}: {digests:#x?}");
    });
}

/// `model().to_bytes()` of the default-architecture build and its retrain.
const PINNED_BUILT_AND_RETRAINED: (u64, u64) = (0x1171_079f_0407_b1b7, 0x1171_079f_0407_b1b7);

#[test]
fn the_default_architecture_keeps_the_closed_form_pinned_here_through_a_retrain() {
    under_every_kernel(|form| {
        let digests =
            built_and_retrained_digests(SearchStrategy::DefaultArchitecture, |model| model.to_bytes());
        assert_eq!(digests, PINNED_BUILT_AND_RETRAINED, "{form}: {digests:#x?}");
    });
}
