//! The closed-form rung end to end: detection on the paper's generators, the
//! build that ships it without training, and write histories over a store it
//! answers.

use deepmapping::core::{ClosedForm, MappingSchema, TrainingStop};
use deepmapping::persist::PersistentStore;
use deepmapping::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

fn cardinalities(dataset: &Dataset) -> Vec<u32> {
    dataset
        .columns
        .iter()
        .map(|column| column.cardinality() as u32)
        .collect()
}

/// Every row of `dataset` is what the closed form predicts for its key.
fn predicts_every_row(form: &ClosedForm, dataset: &Dataset) -> bool {
    let rows = dataset.rows();
    let keys: Vec<u64> = rows.iter().map(|row| row.key).collect();
    let mut predicted = vec![0; keys.len() * form.columns().len()];
    form.predict_into_slice(&keys, &mut predicted);
    rows.iter()
        .zip(predicted.chunks_exact(form.columns().len()))
        .all(|(row, p)| p == row.values)
}

/// `customer_demographics` is `⌊(k − 1) / d⌋ mod c` in every column, with
/// `d` = 1, 2, 10, 70, 1 400, 5 600, … and the columns' cardinalities as `c`.
#[test]
fn detection_recovers_customer_demographics() {
    let dataset = TpcdsGenerator::new(TpcdsConfig::scale(0.005)).customer_demographics();
    let form =
        ClosedForm::detect(&dataset.rows(), &cardinalities(&dataset)).expect("a closed form");
    assert!(predicts_every_row(&form, &dataset));
    let divisors = [1u64, 2, 10, 70, 1_400, 5_600];
    for ((formula, &d), &c) in form
        .columns()
        .iter()
        .zip(&divisors)
        .zip(&cardinalities(&dataset))
    {
        assert_eq!(
            (formula.divisor(), formula.modulus()),
            (d, u64::from(c)),
            "{formula:?}"
        );
        assert_eq!(formula.offset() % (d * u64::from(c)), 1, "{formula:?}");
    }
    // Past the key range a column takes one value: any formula of it is a constant.
    for formula in &form.columns()[divisors.len()..] {
        assert_eq!(formula.modulus(), 1, "{formula:?}");
    }
}

/// The high-correlation synthetics are bit fields of the key; the
/// low-correlation ones are hashes and have no closed form.
#[test]
fn detection_recovers_multi_high_and_finds_nothing_in_multi_low() {
    let high = SyntheticConfig::multi_high(10_000).generate();
    let form = ClosedForm::detect(&high.rows(), &cardinalities(&high)).expect("a closed form");
    assert!(predicts_every_row(&form, &high));
    let found: Vec<(u64, u64)> = form
        .columns()
        .iter()
        .map(|f| (f.offset(), f.divisor()))
        .collect();
    assert_eq!(found, [(0, 16), (0, 64), (0, 256), (0, 1_024), (0, 16)]);
    let low = SyntheticConfig::multi_low(10_000).generate();
    assert_eq!(ClosedForm::detect(&low.rows(), &cardinalities(&low)), None);
}

fn closed_form_config() -> DeepMappingConfig {
    DeepMappingConfig::dm_z()
        .with_training(TrainingConfig {
            epochs: 2,
            batch_size: 256,
            ..TrainingConfig::default()
        })
        .with_partition_bytes(1024)
        .with_disk_profile(DiskProfile::free())
}

/// A build whose closed form gets every row right prices that one rung and
/// trains nothing.
#[test]
fn a_closed_form_that_corrects_no_row_trains_for_zero_epochs() {
    let rows = SyntheticConfig::multi_high(10_000).generate().rows();
    let dm = DeepMapping::build(&rows, &closed_form_config()).unwrap();
    let model = dm.model();
    assert!(model.closed_form().is_some());
    let ladder = model.ladder();
    assert_eq!(ladder.len(), 1, "{ladder:?}");
    assert_eq!(
        (
            ladder[0].epochs,
            ladder[0].corrected_rows,
            ladder[0].macs_per_key
        ),
        (0, 0, 0)
    );
    assert_eq!(
        (model.trained_epochs(), model.training_stop()),
        (0, Some(TrainingStop::ClosedForm))
    );
    assert_eq!(model.trained_right_rows(), rows.len());
    // No network arithmetic: no layer at all, and tens of bytes of model.
    assert!(model.network().trunk().is_empty() && model.network().heads().is_empty());
    assert!(model.size_bytes() < 64, "{} bytes", model.size_bytes());
    assert_eq!(dm.memorized_tuples(), rows.len());
}

fn assert_matches_oracle(store: &PersistentStore, oracle: &BTreeMap<u64, Vec<u32>>) {
    let probe: Vec<u64> = (0..900u64).chain([u64::MAX]).collect();
    let expected: Vec<Option<Vec<u32>>> = probe.iter().map(|k| oracle.get(k).cloned()).collect();
    assert_eq!(store.lookup_batch(&probe).unwrap(), expected);
    let dm = store.store();
    assert_eq!(dm.len(), oracle.len());
    for &key in &probe {
        let held = dm.aux_table().get(key).unwrap().is_some();
        assert_eq!(
            dm.corrected().get(key),
            dm.existence().get(key) && held,
            "Vaux bit of key {key}"
        );
    }
    assert!(dm
        .corrected()
        .iter_ones()
        .eq(dm.aux_table().held_keys().iter_ones()));
    assert_eq!(
        dm.memorized_tuples() as u64,
        dm.existence().count_ones() - dm.corrected().count_ones()
    );
}

/// The sibling of `write_histories_match_a_btreemap_and_keep_vaux_exact` over
/// a store the closed form answers: random `(o, d, c)` columns with a few
/// noisy rows, then inserts on the pattern past the largest key and off it,
/// updates, deletes, `maintenance()`, checkpoints and reopens, each step
/// checked against a `BTreeMap` with `Vaux` exact.
#[test]
fn write_histories_over_a_closed_form_match_a_btreemap_and_keep_vaux_exact() {
    for case in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(0x00C1_05ED ^ (case << 16));
        let formulas: Vec<(u64, u64, u64)> = (0..2)
            .map(|_| {
                (
                    rng.gen_range(0..40u64),
                    rng.gen_range(1..24u64),
                    rng.gen_range(2..7u64),
                )
            })
            .collect();
        let pattern = |key: u64| -> Vec<u32> {
            let value = |&(o, d, c): &(u64, u64, u64)| {
                (i128::from(key) - i128::from(o))
                    .div_euclid(i128::from(d))
                    .rem_euclid(i128::from(c)) as u32
            };
            formulas.iter().map(value).collect()
        };
        let noise = |rng: &mut StdRng| {
            formulas
                .iter()
                .map(|&(_, _, c)| rng.gen_range(0..c) as u32)
                .collect()
        };
        let mut oracle = BTreeMap::new();
        for key in 0..600u64 {
            if rng.gen_range(0..10u32) != 0 {
                let values = if rng.gen_range(0..20u32) == 0 {
                    noise(&mut rng)
                } else {
                    pattern(key)
                };
                oracle.insert(key, values);
            }
        }
        let base: Vec<Row> = oracle
            .iter()
            .map(|(&k, v)| Row::new(k, v.clone()))
            .collect();
        let dm = DeepMapping::build(&base, &closed_form_config()).unwrap();
        assert!(
            dm.model().closed_form().is_some(),
            "case {case}: {formulas:?}"
        );
        let dir = std::env::temp_dir().join(format!(
            "dm-closed-form-history-{}-{case}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("history.dmss");
        let mut store = PersistentStore::create(dm, &path).unwrap();
        assert_matches_oracle(&store, &oracle);
        for _ in 0..rng.gen_range(20..50usize) {
            let key = match oracle.keys().nth(rng.gen_range(0..oracle.len().max(1))) {
                Some(&live) if rng.gen_bool(0.5) => live,
                _ => rng.gen_range(0..900u64),
            };
            let values = if rng.gen_bool(0.6) {
                pattern(key)
            } else {
                noise(&mut rng)
            };
            let row = Row::new(key, values);
            match rng.gen_range(0..9u8) {
                0 | 1 => {
                    // Past the largest key, on the pattern or off it.
                    let top = oracle.keys().next_back().copied().unwrap_or(0);
                    let fresh = top + rng.gen_range(1..40u64);
                    let fresh_row = Row::new(
                        fresh,
                        if rng.gen_bool(0.7) {
                            pattern(fresh)
                        } else {
                            row.values
                        },
                    );
                    store.insert(std::slice::from_ref(&fresh_row)).unwrap();
                    oracle.insert(fresh_row.key, fresh_row.values);
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
        // The history's last state, rebuilt from scratch, answers the same.
        store.maintenance().unwrap();
        assert_matches_oracle(&store, &oracle);
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A snapshot of a closed-form store reopens as one, with the same formulas.
#[test]
fn a_closed_form_store_reopens_with_its_formulas() {
    let rows = SyntheticConfig::single_high(4_000).generate().rows();
    let dm = DeepMapping::build(&rows, &closed_form_config()).unwrap();
    let dir = std::env::temp_dir().join(format!("dm-closed-form-reopen-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("closed.dmss");
    dm.write_snapshot(&path).unwrap();
    let reopened = Snapshot::open(&path).unwrap();
    assert_eq!(reopened.model().closed_form(), dm.model().closed_form());
    assert_eq!(reopened.model().to_bytes(), dm.model().to_bytes());
    let keys: Vec<u64> = (0..4_100).collect();
    assert_eq!(
        reopened.lookup_batch(&keys).unwrap(),
        dm.lookup_batch(&keys).unwrap()
    );
    let schema = MappingSchema::infer(&rows, deepmapping::core::KEY_HEADROOM).unwrap();
    assert_eq!(reopened.model().schema(), &schema);
    std::fs::remove_dir_all(&dir).ok();
}
