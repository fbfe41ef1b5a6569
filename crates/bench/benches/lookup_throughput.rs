//! Per-backend batch-lookup throughput, emitted both as a printed table and as the
//! machine-readable `BENCH_lookup.json` report so successive PRs can track the
//! lookup-path performance trajectory mechanically.
//!
//! Each system is measured over repeated batches, so the JSON carries mean and
//! p50/p95/p99 per-batch latency, and each row is followed by the buffer-pool /
//! runtime observability counters (hits, misses, evictions, single-flight waits,
//! exec tasks/steals).  A second section re-measures the DeepMapping backend with
//! 1/2/4 OS threads hammering one `Arc<DeepMapping>` concurrently — the scaling
//! story the `dm-exec` runtime and the sharded single-flight buffer pool exist
//! for.
//!
//! Run with `cargo bench -p dm-bench --bench lookup_throughput`; the JSON lands at
//! the workspace root.

use dm_bench::{
    build_baselines, build_deepmapping_pair, build_deepsqueeze, distribution_ms,
    measure_cold_start, measure_lookup_samples,
    open_loop::{self, OpenLoopConfig, OpenLoopOutcome},
    report, write_lookup_json, BenchScale, ColdStartRecord, HealthEpisodeRecord, HealthSection,
    InferenceKernelRecord, LookupThroughputRecord, MachineProfile, MeasuredLatency,
    ObsOverheadRecord, ObservabilityReport, ServerLoadRecord, StageLatencyRecord, SystemUnderTest,
};
use dm_core::{
    DeepMappingBuilder, MappingSchema, Quantization, SearchStrategy, TrainingConfig, KEY_HEADROOM,
};
use dm_data::{LookupWorkload, SyntheticConfig};
use dm_nn::{kernel, Activation, Matrix, MultiTaskSpec, TaskHeadSpec};
use dm_server::{QueryServer, ServerConfig};
use dm_storage::{DiskProfile, LookupBuffer, MutableStore, Row, TupleStore};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Measured batch repetitions per (system, batch size) cell.  33 samples give
/// nearest-rank percentiles a distinct p99 rank (see
/// [`dm_bench::P99_MIN_SAMPLES`]); 9 samples made p99 alias to p95.
const SAMPLES: usize = 33;
/// Batch rounds each thread issues in the multi-threaded section; with 4
/// threads the per-op sample count stays above the p99 threshold.
const MT_ROUNDS: usize = 13;

fn main() {
    let scale = BenchScale::from_env();
    let dataset = SyntheticConfig::multi_high(scale.rows(2_000_000)).generate();
    let machine = MachineProfile::large();

    report::banner(
        "BENCH_lookup",
        "per-backend batch-lookup throughput (in-memory machine profile)",
    );
    println!(
        "dataset: {} rows x {} value columns (scale {})",
        dataset.num_rows(),
        dataset.num_value_columns(),
        scale.factor
    );

    let mut systems = build_baselines(&dataset, &machine);
    systems.extend(build_deepmapping_pair(&dataset, &machine));
    if let Some(ds) = build_deepsqueeze(&dataset, &machine) {
        systems.push(ds);
    }

    let batch_sizes = [1_000usize, scale.batch(100_000)];
    let mut header: Vec<String> = Vec::new();
    for &batch in &batch_sizes {
        header.push(format!("B={batch}"));
        header.push("p95".to_string());
        header.push("keys/s".to_string());
    }
    report::row("system", &header);

    let mut records: Vec<LookupThroughputRecord> = Vec::new();
    for system in &mut systems {
        let mut cells = Vec::new();
        let mut counters = Vec::new();
        for &batch in &batch_sizes {
            let keys = LookupWorkload::hits_only(batch).generate(&dataset);
            let samples = measure_lookup_samples(system, &keys, SAMPLES);
            counters.push(format!(
                "  B={batch}: {}",
                report::pool_counters_line(&system.metrics.snapshot())
            ));
            let record = LookupThroughputRecord::from_samples(&system.name, 1, batch, &samples);
            cells.push(report::latency_cell(record.total_ms));
            cells.push(report::latency_cell(record.p95_ms));
            cells.push(format!("{:.0}", record.keys_per_second));
            records.push(record);
        }
        report::row(&system.name, &cells);
        for line in counters {
            println!("{line}");
        }
    }

    // Multi-threaded scaling: T OS threads hammer one shared Arc<DeepMapping>
    // (each with its own reusable LookupBuffer), so concurrent batches exercise
    // the sharded single-flight pool and the parallel pipeline stages together.
    // Latency and throughput are kept apart: each thread times its *own*
    // batches (per-op latency percentiles), while aggregate keys/s comes from
    // the wall-clock of whole rounds — per-thread wall time is never summed
    // into a per-op figure.
    report::banner(
        "BENCH_lookup (multi-threaded)",
        "DM backend, 1/2/4 OS threads over one shared Arc<DeepMapping>",
    );
    let training = TrainingConfig {
        epochs: 30,
        batch_size: 512,
        ..TrainingConfig::default()
    };
    // A dedicated 2-thread dm-exec pool so the parallel pipeline stages engage
    // regardless of host core count.
    let dm = Arc::new(
        DeepMappingBuilder::dm_z()
            .memory_budget(machine.memory_budget_bytes)
            .disk_profile(machine.disk)
            .partition_bytes(32 * 1024)
            .quantization(Quantization::Int8)
            .training(training)
            .exec_threads(2)
            .build(&dataset.rows())
            .expect("DeepMapping build"),
    );
    let name = dm.config().paper_name();
    let batch = scale.batch(100_000);
    let keys = LookupWorkload::hits_only(batch).generate(&dataset);
    report::row(
        "threads",
        &[
            "B".into(),
            "per-op ms".into(),
            "p95".into(),
            "agg keys/s".into(),
        ],
    );
    for &threads in &[1usize, 2, 4] {
        // Warm the pool and per-thread buffers once outside the timed region.
        let mut warm = LookupBuffer::new();
        dm.lookup_batch_into(&keys, &mut warm).expect("warmup");
        let mut per_op: Vec<MeasuredLatency> = Vec::with_capacity(MT_ROUNDS * threads);
        let mut rounds: Vec<MeasuredLatency> = Vec::with_capacity(MT_ROUNDS);
        for _ in 0..MT_ROUNDS {
            dm.metrics().reset();
            let round_start = Instant::now();
            let batch_walls: Vec<Duration> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        let dm = Arc::clone(&dm);
                        let keys = &keys;
                        s.spawn(move || {
                            let mut buffer = LookupBuffer::new();
                            let start = Instant::now();
                            dm.lookup_batch_into(keys, &mut buffer).expect("lookup");
                            start.elapsed()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("issuing thread"))
                    .collect()
            });
            // Simulated disk time accumulates on shared metrics across the
            // round's threads; the round keeps the full amount (aggregate
            // throughput) and each batch carries an even share, so per-op
            // latency means wall + simulated I/O on every row of the JSON —
            // threads=1 sweep and multi-threaded section alike.
            let round_io = Duration::from_nanos(dm.metrics().snapshot().simulated_io_nanos);
            rounds.push(MeasuredLatency {
                wall: round_start.elapsed(),
                simulated_io: round_io,
            });
            per_op.extend(batch_walls.into_iter().map(|wall| MeasuredLatency {
                wall,
                simulated_io: round_io / threads as u32,
            }));
        }
        let record = LookupThroughputRecord::from_concurrent(&name, threads, batch, &per_op, &rounds);
        report::row(
            &format!("{name} x{threads}"),
            &[
                format!("{batch}"),
                report::latency_cell(record.total_ms),
                report::latency_cell(record.p95_ms),
                format!("{:.0}", record.keys_per_second),
            ],
        );
        println!(
            "  {}",
            report::pool_counters_line(&dm.metrics().snapshot())
        );
        // The MT rows used to read like per-op latency grew with threads —
        // that was the phase sum (CPU across tasks) standing in for time.
        // Both meanings, side by side, from the last round's metrics:
        println!("  {}", report::wall_vs_phases_line(&dm.metrics().snapshot()));
        // The threads=1 run is printed for context but not recorded: its
        // methodology (fresh store, thread spawn, round wall-clock) differs from
        // the sweep's, and the JSON already carries the canonical
        // (DM-Z, threads=1) row.  Consumers key on (system, threads, batch).
        if threads > 1 {
            records.push(record);
        }
    }

    // Inference micro-kernels: ns/row per dense layer shape through the
    // packed-panel SIMD kernel vs the pre-kernel reference path, so the
    // kernel's contribution is visible separately from end-to-end lookups.
    report::banner(
        "BENCH_lookup (inference kernels)",
        "ns/row per dense layer shape: packed panels vs matmul+bias+activation",
    );
    let inference_records = run_inference_micro();
    report::row(
        "shape",
        &[
            "rows".into(),
            "packed ns/row".into(),
            "ref ns/row".into(),
            "speedup".into(),
            "kernel".into(),
        ],
    );
    for record in &inference_records {
        report::row(
            &format!("{} {}", record.shape, record.activation),
            &[
                format!("{}", record.rows),
                format!("{:.1}", record.packed_ns_per_row),
                format!("{:.1}", record.reference_ns_per_row),
                format!("{:.2}x", record.speedup()),
                record.kernel.clone(),
            ],
        );
    }

    // CACHE_CHUNK_ROWS sweep: serial cache-blocked inference over the MT store's
    // trained network at several chunk sizes, so retunes of the committed
    // constant are grounded in a measurement against the current kernels.
    report::banner(
        "BENCH_lookup (chunk sweep)",
        "serial forward ns/row by cache chunk size (committed CACHE_CHUNK_ROWS marked *)",
    );
    run_chunk_sweep(&dm, &keys);

    // Cold start: snapshot a store whose auxiliary partitions dominate the file
    // (low-correlation data, deliberately small fixed model), drop it, reopen it
    // from the file and serve one single-partition batch — measuring how little
    // of the snapshot the lazy open actually reads.
    report::banner(
        "BENCH_lookup (cold start)",
        "snapshot open time, time-to-first-batch, bytes read vs. snapshot size",
    );
    let cold_records = match run_cold_start(&scale) {
        Ok(record) => {
            report::row(
                "system",
                &[
                    "open ms".into(),
                    "1st batch ms".into(),
                    "read/total".into(),
                ],
            );
            report::row(
                &record.system,
                &[
                    report::latency_cell(record.open_ms),
                    report::latency_cell(record.first_batch_ms),
                    format!(
                        "{}/{} ({:.1}%)",
                        record.bytes_read_before_first_batch,
                        record.file_bytes,
                        100.0 * record.read_fraction()
                    ),
                ],
            );
            vec![record]
        }
        Err(err) => {
            eprintln!("cold-start section failed: {err}");
            Vec::new()
        }
    };

    // Open-loop server saturation: fixed offered load (not closed-loop), per-
    // request latency measured from the *scheduled* arrival, coalesced
    // QueryServer vs. uncoalesced per-request pipeline calls on the same
    // out-of-memory tenant.  The sweep exposes each mode's throughput knee and
    // the coalescing-window trade-off at low load.
    report::banner(
        "BENCH_lookup (server)",
        "open-loop offered-load sweep: coalescing QueryServer vs direct per-request calls",
    );
    let server_records = match run_server_sweep(&scale) {
        Ok(records) => records,
        Err(err) => {
            eprintln!("server section failed: {err}");
            Vec::new()
        }
    };

    // Observability: per-stage latency percentiles for the standard DM-Z row,
    // plus the measured cost of recording them (the same batch driven with
    // tracing on, then with the kill switch off).
    report::banner(
        "BENCH_lookup (observability)",
        "per-stage p50/p95/p99 for DM-Z and the obs-on vs obs-off overhead",
    );
    let obs_report = systems
        .iter_mut()
        .find(|s| s.name == "DM-Z")
        .map(|dmz| run_observability_section(dmz, &dataset, scale.batch(100_000)));

    // Workload health: what the health layer (heat touches, windowed tails,
    // drift accounting) costs on the hot path, and one measured drift episode
    // — off-pattern updates drive the advisor to `Retrain`, maintenance acts
    // on it, and the aux shrink lands next to the advisor's prediction.
    report::banner(
        "BENCH_lookup (health)",
        "health-layer overhead and the drift -> advise -> retrain -> shrink episode",
    );
    let health_section = match run_health_section(&scale) {
        Ok(section) => Some(section),
        Err(err) => {
            eprintln!("health section failed: {err}");
            None
        }
    };

    match write_lookup_json(
        &scale,
        &records,
        &cold_records,
        &inference_records,
        &server_records,
        obs_report.as_ref(),
        health_section.as_ref(),
    ) {
        Ok(path) => println!("\nwrote {} ({} records)", path.display(), records.len()),
        Err(err) => eprintln!("\nfailed to write BENCH_lookup.json: {err}"),
    }
}

/// Drives the standard DM-Z row with stage tracing enabled, reads the
/// per-stage histograms back out, then reruns the identical batch with the
/// `DM_OBS` kill switch off so the report can state what the instrumentation
/// itself costs.  Stage histograms are process-wide, so the section resets
/// them first and owns them for its duration.
fn run_observability_section(
    system: &mut SystemUnderTest,
    dataset: &dm_data::Dataset,
    batch: usize,
) -> ObservabilityReport {
    let keys = LookupWorkload::hits_only(batch).generate(dataset);

    dm_obs::set_enabled(true);
    dm_obs::trace::reset_stage_histograms();
    let on_samples = measure_lookup_samples(system, &keys, SAMPLES);
    let stages: Vec<StageLatencyRecord> = dm_obs::Stage::all()
        .iter()
        .filter_map(|&stage| {
            StageLatencyRecord::from_snapshot(stage, &dm_obs::trace::stage_snapshot(stage))
        })
        .collect();

    dm_obs::set_enabled(false);
    let off_samples = measure_lookup_samples(system, &keys, SAMPLES);
    dm_obs::set_enabled(true);

    let kps = |samples: &[MeasuredLatency]| {
        LookupThroughputRecord::from_samples(&system.name, 1, batch, samples).keys_per_second
    };
    let overhead = ObsOverheadRecord {
        samples: SAMPLES,
        obs_on_kps: kps(&on_samples),
        obs_off_kps: kps(&off_samples),
    };

    println!("{} B={batch}, {SAMPLES} samples per mode\n", system.name);
    report::row(
        "stage",
        &[
            "count".to_string(),
            "p50 ms".to_string(),
            "p95 ms".to_string(),
            "p99 ms".to_string(),
            "max ms".to_string(),
        ],
    );
    for stage in &stages {
        report::row(
            &stage.stage,
            &[
                format!("{}", stage.count),
                format!("{:.4}", stage.p50_ms),
                format!("{:.4}", stage.p95_ms),
                format!("{:.4}", stage.p99_ms),
                format!("{:.4}", stage.max_ms),
            ],
        );
    }
    println!(
        "\nobs overhead: {:.0} keys/s traced vs {:.0} keys/s with DM_OBS=off ({:+.2}%)",
        overhead.obs_on_kps,
        overhead.obs_off_kps,
        overhead.delta_pct(),
    );

    ObservabilityReport {
        system: system.name.clone(),
        batch_size: batch,
        stages,
        overhead,
    }
}

/// Builds a correlated DM-Z store (the model memorizes nearly everything, so a
/// retrain has real aux bytes to reclaim), measures lookup throughput with the
/// health layer recording vs with `DM_OBS` off, then drives the full drift
/// episode: schema-valid off-pattern updates until the advisor says `Retrain`,
/// `maintenance()` acting on it, and the measured aux shrink.
fn run_health_section(scale: &BenchScale) -> Result<HealthSection, Box<dyn std::error::Error>> {
    let n = scale.rows(2_000_000).max(20_000) as u64;
    let rows: Vec<Row> = (0..n)
        .map(|k| Row::new(k, vec![((k / 16) % 5) as u32, ((k / 64) % 3) as u32]))
        .collect();
    let mut dm = DeepMappingBuilder::dm_z()
        .training(TrainingConfig {
            epochs: 8,
            batch_size: 2048,
            ..TrainingConfig::default()
        })
        .partition_bytes(32 * 1024)
        .quantization(Quantization::Int8)
        .build(&rows)?;

    // Overhead: the same evenly-spread hit batch, obs on vs off.  The on-path
    // includes everything the health layer adds to a lookup: heat touches on
    // pool access and the answer-mix drift accounting.
    let batch = (scale.batch(100_000) as u64).min(n);
    let stride = (n / batch).max(1);
    let keys: Vec<u64> = (0..batch).map(|i| i * stride).collect();
    let mut buffer = LookupBuffer::new();
    dm.lookup_batch_into(&keys, &mut buffer)?; // warm the pool and the arena
    let measure_kps = |dm: &dm_core::DeepMapping,
                           buffer: &mut LookupBuffer|
     -> Result<f64, Box<dyn std::error::Error>> {
        let mut samples_ms = Vec::with_capacity(SAMPLES);
        for _ in 0..SAMPLES {
            let start = Instant::now();
            dm.lookup_batch_into(&keys, buffer)?;
            samples_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
        let (mean_ms, _, _, _) = distribution_ms(&samples_ms);
        Ok(keys.len() as f64 / (mean_ms / 1e3))
    };
    dm_obs::set_enabled(true);
    let obs_on_kps = measure_kps(&dm, &mut buffer)?;
    dm_obs::set_enabled(false);
    let obs_off_kps = measure_kps(&dm, &mut buffer)?;
    dm_obs::set_enabled(true);
    let overhead = ObsOverheadRecord {
        samples: SAMPLES,
        obs_on_kps,
        obs_off_kps,
    };
    println!(
        "health-layer overhead: {:.0} keys/s on vs {:.0} keys/s off ({:+.2}%) over B={batch}",
        overhead.obs_on_kps,
        overhead.obs_off_kps,
        overhead.delta_pct(),
    );

    // The episode.  Update values stay inside the trained cardinalities
    // (schema-valid) but break the key correlation, so the model mispredicts
    // them and they pile up in the delta overlay.
    let update_rows = (n / 3).max(1_000);
    for chunk in keys_chunks(update_rows, 8) {
        let updates: Vec<Row> = chunk
            .map(|k| Row::new(k, vec![(k % 5) as u32, ((k * 3 + 1) % 3) as u32]))
            .collect();
        dm.update_rows(&updates)?;
    }
    let report = dm.health_report();
    let advice = report.primary();
    let predicted = match advice {
        dm_obs::Advice::Retrain {
            expected_aux_shrink_bytes,
            ..
        } => *expected_aux_shrink_bytes,
        _ => 0,
    };
    let aux_bytes_before = dm.aux_table().size_bytes() as u64;
    let episode_advice = advice.label().to_string();
    let overlay_ratio = report.drift.overlay_ratio();
    let mispredict_ema = report.drift.mispredict_ema;
    let start = Instant::now();
    dm.maintenance()?;
    let maintenance_ms = start.elapsed().as_secs_f64() * 1e3;
    let aux_bytes_after = dm.aux_table().size_bytes() as u64;
    let healthy_after = matches!(dm.health_report().primary(), dm_obs::Advice::Healthy);
    let episode = HealthEpisodeRecord {
        system: dm.config().paper_name(),
        rows: n as usize,
        update_rows: update_rows as usize,
        overlay_ratio,
        mispredict_ema,
        advice: episode_advice,
        predicted_shrink_bytes: predicted,
        aux_bytes_before,
        aux_bytes_after,
        maintenance_ms,
        healthy_after,
    };
    println!(
        "episode: {} off-pattern updates -> overlay {:.0}% / ema {:.2} -> advice '{}' (predicted shrink {}B)",
        episode.update_rows,
        episode.overlay_ratio * 100.0,
        episode.mispredict_ema,
        episode.advice,
        episode.predicted_shrink_bytes,
    );
    println!(
        "maintenance: {:.1} ms, aux {}B -> {}B (shrank {}B), healthy_after={}",
        episode.maintenance_ms,
        episode.aux_bytes_before,
        episode.aux_bytes_after,
        episode.measured_shrink_bytes(),
        episode.healthy_after,
    );
    Ok(HealthSection { overhead, episode })
}

/// Splits `0..total` into `parts` contiguous key ranges (the storm arrives as
/// batches, so the misprediction EMA folds more than once).
fn keys_chunks(total: u64, parts: u64) -> impl Iterator<Item = std::ops::Range<u64>> {
    let step = (total / parts).max(1);
    (0..parts).map(move |i| {
        let lo = i * step;
        let hi = if i + 1 == parts { total } else { (i + 1) * step };
        lo..hi
    })
}

/// Builds the server-sweep tenant: the paper's out-of-memory serving shape.
/// Low-correlation rows make the auxiliary table hold nearly everything
/// (26 partitions at 32 KiB), and a 96 KiB buffer-pool budget keeps only ~3 of
/// them resident — so an isolated single-key request pays a real partition
/// decompress (~100 µs) while a coalesced batch amortizes one decompress over
/// every request that landed in the same partition.  That is the regime the
/// coalescing server exists for; a cache-hot in-memory store would flatter
/// neither mode.
fn build_server_tenant(
    scale: &BenchScale,
) -> Result<(Arc<dyn TupleStore>, u64), Box<dyn std::error::Error>> {
    let rows = SyntheticConfig::multi_low(scale.rows(2_000_000).max(30_000))
        .generate()
        .rows();
    let key_space = rows.last().map(|r| r.key + 1).unwrap_or(1);
    let dm = DeepMappingBuilder::dm_z()
        .training(TrainingConfig {
            epochs: 4,
            batch_size: 4096,
            ..TrainingConfig::default()
        })
        .partition_bytes(32 * 1024)
        .memory_budget(96 * 1024)
        .quantization(Quantization::Int8)
        .disk_profile(DiskProfile::free())
        .exec_threads(2)
        .build(&rows)?;
    println!(
        "tenant: {} rows, {} aux partitions, 96 KiB pool budget (aux-dominated, out-of-memory)",
        rows.len(),
        dm.aux_table().partition_count()
    );
    Ok((Arc::new(dm), key_space))
}

/// One row of the server section from an open-loop outcome; `None` when the
/// cell completed nothing (a config error, not a measurement).
#[allow(clippy::too_many_arguments)]
fn server_cell_record(
    mode: &str,
    window_us: f64,
    max_batch_keys: usize,
    config: &OpenLoopConfig,
    outcome: &OpenLoopOutcome,
    shed: u64,
    batches: u64,
    mean_coalesce_width: f64,
) -> Option<ServerLoadRecord> {
    if outcome.latencies_ms.is_empty() {
        return None;
    }
    let (mean_ms, p50_ms, p95_ms, p99_ms) = distribution_ms(&outcome.latencies_ms);
    let record = ServerLoadRecord {
        mode: mode.to_string(),
        window_us,
        max_batch_keys,
        offered_kps: config.offered_keys_per_sec,
        achieved_kps: outcome.achieved_keys_per_sec(),
        clients: config.clients,
        keys_per_request: config.keys_per_request,
        samples: outcome.completed_requests,
        mean_ms,
        p50_ms,
        p95_ms,
        p99_ms,
        shed,
        batches,
        mean_coalesce_width,
    };
    report::row(
        &format!("{mode} win={}us", window_us as u64),
        &[
            format!("{:.0}", record.offered_kps),
            format!("{:.0}", record.achieved_kps),
            report::latency_cell(record.p50_ms),
            report::latency_cell(record.p95_ms),
            record
                .p99_ms
                .map(report::latency_cell)
                .unwrap_or_else(|| "-".into()),
            format!("{:.1}", record.mean_coalesce_width),
            format!("{}", record.shed),
        ],
    );
    Some(record)
}

/// Sweeps offered load (keys/s) across three coalescing windows and the direct
/// per-request baseline.  Every mode sees the identical open-loop arrival
/// schedule and key sequence; latency is measured from the scheduled arrival
/// (coordinated-omission corrected), so a saturated mode shows its backlog as
/// p99 instead of silently slowing the generator down.
fn run_server_sweep(scale: &BenchScale) -> Result<Vec<ServerLoadRecord>, Box<dyn std::error::Error>> {
    /// Generator threads; each keeps `PIPELINE_DEPTH` requests in flight in
    /// coalesced mode, so up to 4 x 256 = 1024 single-key requests — one full
    /// `MAX_BATCH` — can merge into a batch at saturation.
    const CLIENTS: usize = 4;
    const PIPELINE_DEPTH: usize = 256;
    const MAX_BATCH: usize = 1024;
    const CELL_DURATION: Duration = Duration::from_millis(400);
    /// Coalescing windows under sweep (the committed default is 100 µs).
    const WINDOWS_US: [u64; 3] = [50, 100, 400];
    /// Offered loads spanning the direct mode's knee (~10k keys/s on the
    /// reference box) through the coalesced capacity (~120k+ at MAX_BATCH=1024,
    /// where one partition decompress amortizes over every request that hit it).
    const OFFERED_KPS: [f64; 4] = [10_000.0, 40_000.0, 100_000.0, 160_000.0];

    let (store, key_space) = build_server_tenant(scale)?;
    // Fault in model weights and pool metadata once outside the timed cells.
    store.lookup_batch(&[0, key_space / 2])?;

    report::row(
        "mode",
        &[
            "offered k/s".into(),
            "achieved".into(),
            "p50 ms".into(),
            "p95".into(),
            "p99".into(),
            "width".into(),
            "shed".into(),
        ],
    );
    let mut records = Vec::new();
    for &offered in &OFFERED_KPS {
        for &window_us in &WINDOWS_US {
            let server = QueryServer::new(ServerConfig::coalescing(
                Duration::from_micros(window_us),
                MAX_BATCH,
            ));
            let tenant = server.register_store("bench", Arc::clone(&store))?;
            let config = OpenLoopConfig {
                offered_keys_per_sec: offered,
                duration: CELL_DURATION,
                clients: CLIENTS,
                keys_per_request: 1,
                pipeline_depth: PIPELINE_DEPTH,
            };
            let outcome = open_loop::run_coalesced(&server, tenant, &config, key_space);
            let stats = server.stats();
            server.shutdown();
            records.extend(server_cell_record(
                open_loop::Mode::Coalesced.label(),
                window_us as f64,
                MAX_BATCH,
                &config,
                &outcome,
                stats.requests_shed,
                stats.batches_formed,
                stats.mean_coalesce_width(),
            ));
        }
        let config = OpenLoopConfig {
            offered_keys_per_sec: offered,
            duration: CELL_DURATION,
            clients: CLIENTS,
            keys_per_request: 1,
            pipeline_depth: 1,
        };
        let outcome = open_loop::run_direct(&store, &config, key_space);
        records.extend(server_cell_record(
            open_loop::Mode::Direct.label(),
            0.0,
            0,
            &config,
            &outcome,
            0,
            0,
            1.0,
        ));
    }

    // The acceptance claim of this section, checked here so a regression is
    // loud in the bench output (the JSON diff is the mechanical record).
    let best = |mode: &str| {
        records
            .iter()
            .filter(|r| r.mode == mode && r.offered_kps >= 80_000.0)
            .map(|r| r.achieved_kps)
            .fold(0.0f64, f64::max)
    };
    let (coalesced, direct) = (best("coalesced"), best("direct"));
    if direct > 0.0 {
        println!(
            "\nsaturation: coalesced {:.0} keys/s vs direct {:.0} keys/s at equal offered load ({:.1}x)",
            coalesced,
            direct,
            coalesced / direct
        );
    }
    Ok(records)
}

/// Measures each representative DM layer shape through the packed-panel kernel
/// and through the pre-kernel reference path (`matmul` + bias broadcast +
/// activation), best-of-N to shed scheduler noise.
fn run_inference_micro() -> Vec<InferenceKernelRecord> {
    const ROWS: usize = 4_096;
    const REPS: usize = 9;
    // Shapes mirroring the default DM-Z architecture over the bench dataset
    // (trunk input, trunk interior, head hidden, head output), then the layers
    // the frozen benchmark's model has — 38 → 141 → 141 → 5 × (35 → c): trunk
    // input, trunk interior, one head's entry layer, the five entry layers as
    // the model runs them (one fused 175-column panel), the widest head output.
    let shapes: [(usize, usize, Activation); 9] = [
        (35, 100, Activation::Relu),
        (100, 100, Activation::Relu),
        (100, 32, Activation::Relu),
        (32, 8, Activation::Linear),
        (38, 141, Activation::Relu),
        (141, 141, Activation::Relu),
        (141, 35, Activation::Relu),
        (141, 175, Activation::Relu),
        (35, 64, Activation::Linear),
    ];
    let fill = |rows: usize, cols: usize, salt: u64| {
        let mut m = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                let h = (r as u64 * 131 + c as u64 * 29 + salt).wrapping_mul(0x9E3779B97F4A7C15);
                m.set(r, c, ((h >> 40) as i32 % 1000) as f32 / 500.0 - 1.0);
            }
        }
        m
    };
    fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
        f(); // warm caches and the panel pack
        (0..reps)
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed().as_nanos() as f64
            })
            .fold(f64::INFINITY, f64::min)
    }
    let act_name = |act: Activation| {
        match act {
            Activation::Relu => "relu",
            Activation::Linear => "linear",
            Activation::Sigmoid => "sigmoid",
            Activation::Tanh => "tanh",
        }
        .to_string()
    };
    let mut records = Vec::new();
    for &(k, n, act) in &shapes {
        let x = fill(ROWS, k, 1);
        let w = fill(k, n, 2);
        let b = fill(1, n, 3);
        let panels = kernel::PackedPanels::pack(&w, Some(&b)).expect("pack");
        let packed_ns = best_of(REPS, || {
            let out = kernel::forward_packed(&x, 0, ROWS, &panels, act).expect("forward");
            std::hint::black_box(out.as_slice()[0]);
        });
        let reference_ns = best_of(REPS, || {
            let mut z = x.matmul(&w).expect("matmul");
            z.add_row_broadcast(&b).expect("bias");
            act.apply_in_place(&mut z);
            std::hint::black_box(z.as_slice()[0]);
        });
        records.push(InferenceKernelRecord {
            shape: format!("{k}x{n}"),
            activation: act_name(act),
            rows: ROWS,
            kernel: kernel::active().name().to_string(),
            packed_ns_per_row: packed_ns / ROWS as f64,
            reference_ns_per_row: reference_ns / ROWS as f64,
        });
        // The same shape through the int8 path (quantize-once weights, per-row
        // input quantization inside the call), against the same f32 reference
        // so the speedup columns are directly comparable.
        let qpanels = kernel::QuantizedPanels::quantize(&w, Some(&b)).expect("quantize");
        let quant_ns = best_of(REPS, || {
            let out = kernel::forward_quantized(&x, 0, ROWS, &qpanels, act).expect("forward");
            std::hint::black_box(out.as_slice()[0]);
        });
        records.push(InferenceKernelRecord {
            shape: format!("{k}x{n}"),
            activation: act_name(act),
            rows: ROWS,
            kernel: format!("int8+{}", kernel::active().name()),
            packed_ns_per_row: quant_ns / ROWS as f64,
            reference_ns_per_row: reference_ns / ROWS as f64,
        });
    }
    records
}

/// Sweeps the serial cache-blocked forward pass over candidate chunk sizes on
/// the MT section's trained store (int8 path — what production inference runs),
/// printing ns/row per candidate.  This is the measurement behind the committed
/// `dm_nn::multitask::CACHE_CHUNK_ROWS` value; rerun it here when the kernels
/// change.  Chunking never changes predictions, only activation residency.
fn run_chunk_sweep(dm: &dm_core::DeepMapping, keys: &[u64]) {
    const REPS: usize = 7;
    let model = dm.model();
    let network = model.network();
    let x = model.schema().key_encoder.encode_batch(keys);
    let rows = x.rows();
    let mut out = vec![0u32; rows * network.num_tasks()];
    report::row("chunk rows", &["ns/row".into(), "batch ms".into()]);
    for &chunk in &[24usize, 48, 96, 192, 256, 512, 1024, 4096] {
        let mut best = f64::INFINITY;
        network
            .forward_flat_serial_chunked(&x, chunk, &mut out)
            .expect("warmup forward");
        for _ in 0..REPS {
            let start = Instant::now();
            network
                .forward_flat_serial_chunked(&x, chunk, &mut out)
                .expect("forward");
            best = best.min(start.elapsed().as_nanos() as f64);
        }
        std::hint::black_box(&out);
        let marker = if chunk == dm_nn::CACHE_CHUNK_ROWS { "*" } else { "" };
        report::row(
            &format!("{chunk}{marker}"),
            &[
                format!("{:.1}", best / rows as f64),
                format!("{:.2}", best / 1e6),
            ],
        );
    }
}

/// Builds the cold-start store: low-correlation rows (the auxiliary table holds
/// nearly everything, so the snapshot is partition-dominated — the honest
/// setting for a lazy-loading claim) with a deliberately small fixed
/// architecture, then snapshots/reopens it through `measure_cold_start`.
fn run_cold_start(scale: &BenchScale) -> Result<ColdStartRecord, Box<dyn std::error::Error>> {
    let rows = SyntheticConfig::multi_low(scale.rows(2_000_000).max(30_000))
        .generate()
        .rows();
    let schema = MappingSchema::infer(&rows, KEY_HEADROOM)?;
    let spec = MultiTaskSpec {
        input_dim: schema.input_dim(),
        shared_hidden: vec![32],
        heads: schema
            .cardinalities
            .iter()
            .map(|&card| TaskHeadSpec::direct(card as usize))
            .collect(),
    };
    let dm = DeepMappingBuilder::dm_z()
        .training(TrainingConfig {
            epochs: 4,
            batch_size: 4096,
            ..TrainingConfig::default()
        })
        .search(SearchStrategy::Fixed(spec))
        .partition_bytes(32 * 1024)
        .build(&rows)?;
    let dir = std::env::temp_dir().join(format!("dm-bench-cold-start-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("cold_start.dmss");
    let record = measure_cold_start(dm, &path)?;
    std::fs::remove_dir_all(&dir).ok();
    Ok(record)
}
