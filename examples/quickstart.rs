//! Quickstart: build a DeepMapping structure over a small orders-like table, run
//! batched lookups, modify it, and print the storage breakdown.
//!
//! Run with `cargo run --release --example quickstart`.

use deepmapping::prelude::*;

fn main() {
    // 1. A small orders-like table: order_id -> (order_type, order_status), where both
    //    columns follow patterns along the key (think batches of orders entered
    //    together), which is what makes the mapping learnable.
    let num_orders = 20_000u64;
    let rows: Vec<Row> = (0..num_orders)
        .map(|order_id| {
            let order_type = ((order_id / 64) % 3) as u32; // Shipping / Pick-Up / Return
            let order_status = ((order_id / 16) % 4) as u32; // In Process / Done / ...
            Row::new(order_id, vec![order_type, order_status])
        })
        .collect();
    // 2. Build the hybrid structure fluently (DM-Z preset: LZ-compressed auxiliary
    //    table), attaching the decode map in the same chain.
    let mut dm = DeepMappingBuilder::dm_z()
        .training(TrainingConfig {
            epochs: 25,
            batch_size: 4096,
            ..TrainingConfig::default()
        })
        .partition_bytes(64 * 1024)
        .decode_labels(vec![
            vec!["Shipping".into(), "Pick-Up".into(), "Return".into()],
            vec!["In Process".into(), "Done".into(), "Cancelled".into(), "Returned".into()],
        ])
        .build(&rows)
        .expect("build DeepMapping");

    // The default architecture climbs a ladder of widths and keeps the rung
    // whose whole store (Eq. 1) is smallest; it stops at the first rung that
    // does not shrink the store, or after one that leaves nothing to correct.
    println!("architecture ladder:");
    for rung in dm.model().ladder() {
        println!(
            "  shared {:?}: {} bytes, {} rows corrected, {} MACs a key",
            rung.shared_hidden, rung.bytes, rung.corrected_rows, rung.macs_per_key
        );
    }
    println!("  kept: shared {:?}\n", dm.model().network().spec().shared_hidden);

    // 3. Batched lookups (Algorithm 1): exact answers, including "not found" for keys
    //    that never existed — the existence index prevents hallucinated tuples.
    let queries = [5u64, 1_234, 19_999, 500_000];
    let answers = dm.lookup_batch_decoded(&queries).expect("lookup");
    println!("point lookups:");
    for (key, answer) in queries.iter().zip(answers.iter()) {
        match answer {
            Some(values) => println!("  order {key}: type={}, status={}", values[0], values[1]),
            None => println!("  order {key}: not found"),
        }
    }

    // 4. Modifications without retraining (Algorithms 3-5).
    dm.insert_rows(&[Row::new(num_orders, vec![2, 3])]).expect("insert");
    dm.update_rows(&[Row::new(5, vec![1, 1])]).expect("update");
    dm.delete_keys(&[1_234]).expect("delete");
    println!("\nafter modifications:");
    println!("  inserted order {} -> {:?}", num_orders, dm.get(num_orders).unwrap());
    println!("  updated order 5 -> {:?}", dm.get(5).unwrap());
    println!("  deleted order 1234 -> {:?}", dm.get(1_234).unwrap());

    // 5. Range queries via the existence-index + batch-inference extension.
    let range = dm.range_lookup(100, 120).expect("range");
    println!("\norders 100..=120: {} rows", range.len());

    // 6. Storage breakdown (Figure 6 of the paper).
    let breakdown = dm.storage_breakdown();
    let (exist_pct, model_pct, aux_pct) = breakdown.share_percentages();
    println!("\nstorage breakdown:");
    println!("  uncompressed data : {} bytes", breakdown.uncompressed_bytes);
    println!("  hybrid structure  : {} bytes (ratio {:.3})", breakdown.total_bytes(), breakdown.compression_ratio());
    println!("  existence vector  : {exist_pct:.1}%");
    println!("  learned model     : {model_pct:.1}%");
    println!("  auxiliary table   : {aux_pct:.1}%");
    println!("  tuples memorized  : {:.1}%", breakdown.memorized_fraction() * 100.0);
}
