//! Observability quickstart: build a store, serve a few lookup batches with
//! stage tracing on, then read everything the `dm-obs` layer collected —
//! per-stage latency histograms, the slowest captured batch as a span
//! timeline, and the full registry in Prometheus and JSON exposition formats.
//!
//! Run with `cargo run --release --example obs_quickstart`.
//! `DM_OBS=off` disables the tracing paths (lookups still work; this example
//! re-enables tracing explicitly so it always has something to show).

use deepmapping::obs;
use deepmapping::obs::trace;
use deepmapping::prelude::*;
use std::time::Duration;

fn main() {
    // 1. Tracing on, and a deliberately tiny slow threshold so every batch in
    //    this example lands in the slow-op capture ring. Production leaves the
    //    default (DM_OBS_SLOW_MS, 25 ms) so only genuine stragglers are kept.
    obs::set_enabled(true);
    obs::set_slow_threshold(Duration::from_micros(1));

    // 2. A store whose auxiliary table actually holds data: mixed-correlation
    //    rows plus a small pool budget mean lookups exercise every pipeline
    //    stage (existence split, inference, partition probes, merge).
    let rows: Vec<Row> = (0..20_000u64)
        .map(|k| {
            let noisy = (k % 5 == 2) as u32 * (k as u32 % 89);
            Row::new(k, vec![((k / 32) % 4) as u32, noisy])
        })
        .collect();
    let dm = DeepMappingBuilder::dm_z()
        .training(TrainingConfig::quick())
        .partition_bytes(16 * 1024)
        .memory_budget(64 * 1024)
        .build(&rows)
        .expect("build store");

    // 3. Serve some batches. Every `lookup_batch_into` call runs under a
    //    `Trace`; each stage records a span into the process-wide histograms.
    let mut buffer = LookupBuffer::new();
    for round in 0..8u64 {
        let keys: Vec<u64> = (0..2_500).map(|i| (i * 7 + round * 13) % 25_000).collect();
        dm.lookup_batch_into(&keys, &mut buffer).expect("lookup");
    }
    println!(
        "served 8 batches x 2500 keys ({} hits in the last batch)\n",
        buffer.hit_count()
    );

    // 4. Per-stage latency: one log2-bucketed histogram per pipeline stage.
    println!("== per-stage latency (all batches) ==");
    for stage in trace::Stage::all() {
        let snap = trace::stage_snapshot(stage);
        if snap.count() == 0 {
            continue;
        }
        println!(
            "{:<12} n={:<4} p50={:>9.1?} p99={:>9.1?} max={:>9.1?}",
            stage.slug(),
            snap.count(),
            Duration::from_nanos(snap.p50()),
            Duration::from_nanos(snap.p99()),
            Duration::from_nanos(snap.max()),
        );
    }

    // 5. The slow-op ring keeps the worst batches as full span traces.
    if let Some(worst) = trace::slowest_batch() {
        println!("\n== slowest captured batch ==");
        println!("{}", worst.render_timeline());
    }

    // 6. Exposition: the same registry, scrape-ready.
    println!("== prometheus exposition (excerpt) ==");
    for line in obs::render_prometheus()
        .lines()
        .filter(|l| l.contains("dm_stage_inference") || l.contains("dm_stage_probe"))
    {
        println!("{line}");
    }
    let json = obs::render_json();
    println!("\njson exposition: {} bytes (render_json())", json.len());

    // 7. What recording costs: one histogram record, from one thread alone
    //    and from two threads writing the same histogram at once (each thread
    //    writes its own stripe, so the two should cost about the same).
    println!("\n== instrumentation cost ==");
    println!(
        "histogram record: {:.1} ns from 1 thread, {:.1} ns from 2 threads ({} stripes x {} B per histogram)",
        record_nanos(1),
        record_nanos(2),
        obs::histogram::stripe_count(),
        obs::histogram::STRIPE_BYTES,
    );
}

/// Mean cost of one `Histogram::record_nanos` while `threads` threads record
/// into one shared histogram. The threads warm up for 20 ms (time for the OS
/// to spread them over the cores) and then start timing together.
fn record_nanos(threads: usize) -> f64 {
    const RECORDS: u64 = 2_000_000;
    let hist = obs::Histogram::new();
    let start_line = std::sync::Barrier::new(threads);
    let per_thread: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let warm = std::time::Instant::now();
                    while warm.elapsed() < Duration::from_millis(20) {
                        hist.record_nanos(std::hint::black_box(1));
                    }
                    start_line.wait();
                    let started = std::time::Instant::now();
                    for i in 0..RECORDS {
                        hist.record_nanos(std::hint::black_box(i & 0xffff));
                    }
                    started.elapsed().as_nanos() as f64 / RECORDS as f64
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("recorder")).collect()
    });
    per_thread.iter().sum::<f64>() / threads as f64
}
