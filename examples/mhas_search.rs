//! Running the Multi-task Hybrid Architecture Search (MHAS) by hand.
//!
//! This example exposes what `SearchStrategy::Mhas` does inside `DeepMapping::build`:
//! it creates the search space over shared/private layer counts and widths, draws
//! architectures uniformly from a seeded generator, trains each on shared weights and
//! prices it on the Eq.-1 objective by building its store, and finally builds a
//! DeepMapping structure from the best architecture found — printing every sample, the
//! dots of Figures 9/10.
//!
//! Run with `cargo run --release --example mhas_search`.

use deepmapping::core::encoder::MappingSchema;
use deepmapping::core::MhasSearch;
use deepmapping::prelude::*;

fn main() {
    // The TPC-DS customer_demographics table: every column is a periodic function of
    // the key, so the search should discover that a small model suffices.
    let dataset = TpcdsGenerator::new(TpcdsConfig::scale(0.002)).customer_demographics();
    let rows = dataset.rows();
    println!(
        "searching architectures for {} ({} rows, {} value columns)",
        dataset.name,
        dataset.num_rows(),
        dataset.num_value_columns()
    );

    // Infer the schema with the same key headroom `DeepMapping::build` applies, so
    // the searched architecture's input width matches the final build below.
    let schema =
        MappingSchema::infer(&rows, deepmapping::core::KEY_HEADROOM).expect("schema");
    let mhas = MhasConfig {
        iterations: 24,
        model_epochs: 1,
        sample_rows: 2048,
        layer_sizes: vec![32, 64, 128, 256],
        ..MhasConfig::default()
    };
    println!(
        "search space: up to 2 shared + 2 private layers, widths {:?} (≈{} architectures)",
        mhas.layer_sizes,
        MhasSearch::new(&schema, mhas.clone(), 0).unwrap().space().architecture_count()
    );

    let mut search = MhasSearch::new(&schema, mhas.clone(), 0x5ea).expect("search");
    let base_config = DeepMappingConfig::dm_z();
    let outcome = search.run(&rows, &base_config).expect("run search");

    println!("\niteration  ratio    macs/key  params   memorized");
    for sample in &outcome.history {
        println!(
            "{:>9}  {:<7.3}  {:<8}  {:<7}  {:.2}",
            sample.iteration,
            sample.compression_ratio,
            sample.macs_per_key,
            sample.parameters,
            sample.memorization_rate
        );
    }
    println!(
        "\nbest architecture: shared {:?}, heads {:?} (ratio {:.3})",
        outcome.best_spec.shared_hidden,
        outcome
            .best_spec
            .heads
            .iter()
            .map(|h| h.hidden.clone())
            .collect::<Vec<_>>(),
        outcome.best_ratio
    );

    // Build the final structure from the searched architecture and verify it.
    let dm = DeepMappingBuilder::from_config(base_config)
        .search(SearchStrategy::Fixed(outcome.best_spec.clone()))
        .training(TrainingConfig {
            epochs: 30,
            batch_size: 2048,
            ..TrainingConfig::default()
        })
        .build(&rows)
        .expect("build");
    let breakdown = dm.storage_breakdown();
    println!(
        "\nfinal hybrid structure: {:.1} KiB over {:.1} KiB of data, {:.1}% of tuples memorized\n\
         ratio: the search scored {:.3}, the store it built is {:.3}",
        breakdown.total_bytes() as f64 / 1024.0,
        breakdown.uncompressed_bytes as f64 / 1024.0,
        breakdown.memorized_fraction() * 100.0,
        outcome.best_ratio,
        breakdown.compression_ratio()
    );
    // The search scores a candidate by building it, so its number is the built store's.
    let drift = breakdown.compression_ratio() / outcome.best_ratio - 1.0;
    assert!(drift.abs() <= 0.10, "search and build disagree by {:.1} %", drift * 100.0);
    // Exactness check on a sample of keys.
    let keys: Vec<u64> = dataset.keys.iter().step_by(97).copied().collect();
    let answers = dm.lookup_batch(&keys).expect("lookup");
    for (i, key) in keys.iter().enumerate() {
        let idx = dataset.keys.iter().position(|k| k == key).unwrap();
        assert_eq!(answers[i].as_ref().unwrap(), &dataset.row(idx).values);
    }
    println!("verified {} sampled lookups against the source table — all exact", keys.len());
}
