//! Guard: the observability layer must be a pure observer.
//!
//! Flipping the `DM_OBS` kill switch may change how much the process *records*,
//! but it must never change what a lookup *returns* nor how the pipeline
//! *behaves*.  The kill-switch test runs the identical workload with tracing
//! off and on and proves (a) byte-identical lookup results and (b) identical
//! `LatencyBreakdown` snapshots — partition loads, pool traffic, inference
//! batches, the model-vs-aux answer mix — i.e. the pipeline took the same
//! path.  The snapshot holds counts only (stage times live in the trace), so
//! the two compare whole.
//!
//! The same holds one layer up: the same requests served through a
//! `QueryServer`, coalesced and inline, return byte-identical responses and
//! the same request counts whichever way the switch is set.
//!
//! The remaining tests drive the workload-health layer end to end: windowed
//! tail percentiles through `QueryServer`, the partition-heat report, and the
//! full drift episode (update storm → `Retrain` advice → `maintenance()` →
//! measured aux shrink).

use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use deepmapping::obs;
use deepmapping::prelude::*;

/// Serializes tests that read or flip the process-global `DM_OBS` switch.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn build_store() -> DeepMapping {
    // Mixed-correlation rows so the aux table holds real partitions and the
    // batch exercises every stage: existence split, inference, aux probes
    // (with a pool small enough to force loads), and the merge.
    let rows: Vec<Row> = (0..6_000u64)
        .map(|k| {
            let noisy = (k % 7 == 3) as u32 * (k as u32 % 97);
            Row::new(k * 2, vec![((k / 16) % 5) as u32, noisy])
        })
        .collect();
    // A batch runs on its caller, so the buffer-pool access order — and
    // therefore the hit/miss/eviction counters compared below — is exactly
    // reproducible between the two runs.
    DeepMappingBuilder::dm_z()
        .training(TrainingConfig::quick())
        .partition_bytes(8 * 1024)
        .memory_budget(32 * 1024)
        .build(&rows)
        .expect("build store")
}

/// Runs the workload batches against the store and returns the materialized
/// results plus the metrics snapshot it produced.
fn run_workload(dm: &DeepMapping, batches: &[Vec<u64>]) -> (Vec<Vec<Option<Vec<u32>>>>, LatencyBreakdown) {
    dm.metrics().reset();
    let mut buffer = LookupBuffer::new();
    let mut results = Vec::with_capacity(batches.len());
    for keys in batches {
        dm.lookup_batch_into(keys, &mut buffer).expect("lookup");
        let materialized: Vec<Option<Vec<u32>>> = (0..keys.len())
            .map(|i| buffer.get(i).map(|values| values.to_vec()))
            .collect();
        results.push(materialized);
    }
    (results, dm.metrics().snapshot())
}

#[test]
fn kill_switch_never_changes_results_or_pipeline_behavior() {
    let _guard = obs_lock();
    let dm = build_store();
    // Hits, misses (odd keys are absent), and out-of-range keys, across
    // batch sizes from one walk chunk to many.
    let batches: Vec<Vec<u64>> = vec![
        (0..64).collect(),
        (0..4_000).map(|k| k * 3 + 1).collect(),
        (5_000..12_500).map(|k| k * 2).collect(),
        vec![0, 1, 11_998, 11_999, u64::MAX],
    ];

    let was_enabled = obs::enabled();

    // Warm-up pass: both measured runs then start from the same steady-state
    // buffer-pool contents (the first pass would otherwise cold-load what the
    // second finds cached, skewing the counters for reasons unrelated to obs).
    let _ = run_workload(&dm, &batches);

    obs::set_enabled(false);
    let (results_off, counters_off) = run_workload(&dm, &batches);

    obs::set_enabled(true);
    let (results_on, counters_on) = run_workload(&dm, &batches);

    obs::set_enabled(was_enabled);

    assert_eq!(
        results_off, results_on,
        "lookup results must be identical with tracing off vs on"
    );
    assert_eq!(
        counters_off, counters_on,
        "pipeline work counters must be identical with tracing off vs on"
    );
    // Sanity: the workload actually exercised the pipeline.
    assert!(counters_on.inference_batches > 0 || counters_on.partition_loads > 0);
    let hits: usize = results_on
        .iter()
        .flatten()
        .filter(|r| r.is_some())
        .count();
    assert!(hits > 1_000, "workload should produce real hits, got {hits}");
    // The answer mix is pipeline-work accounting, recorded with obs off too —
    // it is what the drift detector reads, so the kill switch must not gate it.
    assert_eq!(
        counters_on.model_answered + counters_on.aux_answered,
        hits as u64,
        "every hit is answered by exactly one of model or aux"
    );
    assert!(counters_on.aux_answered > 0, "noisy rows must probe the aux");
}

/// Each request's response, materialized, in request order.
type Responses = Vec<Vec<Option<Vec<u32>>>>;

/// Serves `requests` through a fresh server over `store` — pipelined four
/// at a time by two client threads, each taking half — and returns the
/// responses with the server's request counts.
fn serve_requests(
    store: &std::sync::Arc<DeepMapping>,
    config: ServerConfig,
    requests: &[Vec<u64>],
) -> (Responses, [u64; 5]) {
    let server = QueryServer::new(config);
    let tenant = server.register_store("t", store.clone()).unwrap();
    let responses: Responses = std::thread::scope(|scope| {
        let halves: Vec<_> = requests
            .chunks(requests.len().div_ceil(2))
            .map(|half| {
                let mut client = server.client_with_depth(4);
                scope.spawn(move || {
                    let mut out = LookupBuffer::new();
                    let mut answers = Responses::new();
                    for group in half.chunks(4) {
                        let tickets: Vec<Ticket> = group
                            .iter()
                            .map(|keys| client.submit(tenant, keys).unwrap())
                            .collect();
                        for (ticket, keys) in tickets.into_iter().zip(group) {
                            client.wait_into(ticket, &mut out).unwrap();
                            answers.push(
                                (0..keys.len())
                                    .map(|i| out.get(i).map(<[u32]>::to_vec))
                                    .collect(),
                            );
                        }
                    }
                    answers
                })
            })
            .collect();
        halves
            .into_iter()
            .flat_map(|half| half.join().unwrap())
            .collect()
    });
    let stats = server.stats();
    let counts = [
        stats.requests_enqueued,
        stats.keys_enqueued,
        stats.requests_completed,
        stats.keys_served,
        stats.requests_failed,
    ];
    (responses, counts)
}

#[test]
fn kill_switch_never_changes_what_the_server_answers() {
    let _guard = obs_lock();
    let store = std::sync::Arc::new(build_store());
    // Hits on both routes, misses and keys past the end, 1 to 64 keys a
    // request.
    let requests: Vec<Vec<u64>> = (0..200u64)
        .map(|r| {
            (0..1 + r % 64)
                .map(|i| (r * 97 + i * 13) % 12_400)
                .collect()
        })
        .collect();
    let direct: Responses = requests
        .iter()
        .map(|keys| store.lookup_batch(keys).unwrap())
        .collect();
    let keys: u64 = requests.iter().map(|keys| keys.len() as u64).sum();
    let was_enabled = obs::enabled();
    for config in [
        ServerConfig::coalescing(Duration::from_micros(100), 256),
        ServerConfig::inline(),
    ] {
        let inline = config.inline;
        obs::set_enabled(false);
        let off = serve_requests(&store, config.clone(), &requests);
        obs::set_enabled(true);
        let on = serve_requests(&store, config, &requests);
        assert_eq!(
            off.0, on.0,
            "inline {inline}: responses must not depend on DM_OBS"
        );
        assert_eq!(
            on.0, direct,
            "inline {inline}: the server answers like the store"
        );
        assert_eq!(
            off.1, on.1,
            "inline {inline}: request counts must not depend on DM_OBS"
        );
        assert_eq!(on.1, [200, keys, 200, keys, 0], "inline {inline}");
    }
    obs::set_enabled(was_enabled);
}

#[test]
fn windowed_tails_surface_through_server_stats_and_slo_evidence() {
    let _guard = obs_lock();
    let was_enabled = obs::enabled();
    obs::set_enabled(true);

    let rows: Vec<Row> = (0..512u64).map(|k| Row::new(k, vec![k as u32])).collect();
    let config = ServerConfig {
        // Generous target: this test asserts the SLO *plumbing*, not a burn.
        tenant_p99_target: Some(Duration::from_secs(1)),
        ..ServerConfig::inline()
    };
    let server = QueryServer::new(config);
    let tenant = server
        .register_store("t", std::sync::Arc::new(ReferenceStore::from_rows(&rows)))
        .unwrap();
    let mut client = server.client();
    for k in 0..50 {
        assert!(client.get(tenant, k % 512).unwrap().is_some());
    }

    let stats = server.stats();
    assert_eq!(stats.recent_requests, 50, "all requests land inside the window");
    assert!(stats.recent_window >= Duration::from_secs(30));
    assert!(stats.recent_request_wall_p99 > Duration::ZERO);
    assert!(stats.recent_request_wall_p99 >= stats.recent_request_wall_p50);
    // Fresh server, one window: recent and since-boot views agree.
    assert_eq!(stats.recent_request_wall_p99, stats.request_wall_p99);

    let tail = server.tenant_tail("t").unwrap();
    assert_eq!(tail.recent_request_wall.count(), 50);
    assert_eq!(tail.recent_request_wall.sum(), tail.request_wall.sum());

    // The windowed p99 feeds the advisor's SLO input.
    let health = server.tenant_health("t").unwrap();
    assert!(health.is_healthy(), "{health:?}");
    let slo = health.slo.expect("a p99 target is configured");
    assert_eq!(slo.windowed_requests, 50);
    assert!(slo.windowed_p99_nanos > 0);
    assert!(slo.burn_rate() < 1.0, "1 s target cannot burn on an in-memory store");

    obs::set_enabled(was_enabled);
}

#[test]
fn heat_report_ranks_hot_partitions_and_carries_pool_pressure() {
    let _guard = obs_lock();
    let was_enabled = obs::enabled();
    obs::set_enabled(true);

    let dm = build_store();
    // Skew the aux-probe traffic: hammer a narrow key range, then touch the
    // whole table once so cold partitions register too.
    let hot_keys: Vec<u64> = (0..256u64).map(|k| k * 2).collect();
    for _ in 0..20 {
        dm.lookup_batch(&hot_keys).unwrap();
    }
    let wide: Vec<u64> = (0..6_000u64).map(|k| k * 2).collect();
    dm.lookup_batch(&wide).unwrap();

    let report = dm.aux_table().heat_report(3);
    assert!(report.tracked > 0, "aux probes must feed the heat tracker");
    assert_eq!(report.dropped, 0);
    assert!(report.total_accesses > 0);
    assert!(report.total_misses <= report.total_accesses);
    assert!(!report.hot.is_empty());
    assert!(report.hot.len() <= 3);
    assert!(
        report.hot.windows(2).all(|w| w[0].score >= w[1].score),
        "hot list must rank by decayed score: {:?}",
        report.hot
    );
    let hottest = &report.hot[0];
    assert!(hottest.accesses >= 20, "the hammered partition leads the list");
    if let Some(coldest) = report.cold.first() {
        assert!(hottest.score >= coldest.score);
    }
    // build_store caps the pool at 32 KiB, so pressure is meaningful.
    assert_eq!(report.budget_bytes, 32 * 1024);
    assert!(report.resident_bytes > 0);
    assert!(report.pressure() > 0.0 && report.pressure() <= 1.0);

    let pressure = dm.aux_table().pool_pressure();
    assert_eq!(pressure.budget_bytes, report.budget_bytes);
    assert!(pressure.occupancy() > 0.0);

    obs::set_enabled(was_enabled);
}

#[test]
fn update_storm_draws_retrain_advice_and_maintenance_shrinks_the_aux() {
    let _guard = obs_lock();
    let was_enabled = obs::enabled();
    obs::set_enabled(true);

    // Strongly correlated data: the fresh model memorizes nearly everything,
    // so the fresh store is healthy and the aux table starts small.
    let rows: Vec<Row> = (0..4_000u64)
        .map(|k| Row::new(k, vec![((k / 16) % 5) as u32, ((k / 64) % 3) as u32]))
        .collect();
    let mut dm = DeepMappingBuilder::dm_z()
        .training(TrainingConfig::quick())
        .partition_bytes(8 * 1024)
        .build(&rows)
        .expect("build store");
    assert!(dm.health_report().is_healthy());

    // The storm: several batches of off-pattern (but schema-valid) updates.
    // Each batch mostly mispredicts, climbing the EMA, and every mispredicted
    // row lands in the delta overlay.
    for chunk in 0..4u64 {
        let updates: Vec<Row> = (chunk * 400..(chunk + 1) * 400)
            .map(|k| Row::new(k, vec![(k % 5) as u32, ((k * 3 + 1) % 3) as u32]))
            .collect();
        dm.update_rows(&updates).unwrap();
    }

    let report = dm.health_report();
    assert!(!report.is_healthy(), "the storm must surface an advisory");
    let (expected_shrink, overlay_ratio) = match report.primary() {
        obs::Advice::Retrain {
            expected_aux_shrink_bytes,
            overlay_ratio,
            ..
        } => (*expected_aux_shrink_bytes, *overlay_ratio),
        other => panic!("expected Retrain advice, got {other:?}"),
    };
    assert!(
        overlay_ratio > 0.25,
        "1 600 overlaid rows must dominate the small aux: {overlay_ratio}"
    );
    assert!(expected_shrink > 0, "a mostly-memorized store predicts real shrink");
    assert!(report.drift.mispredict_ema > 0.0);
    assert!(report.drift.aux_answer_ratio() >= 0.0);

    // Acting on the advice: maintenance() retrains, folding the overlay back
    // into the model + compressed partitions.
    let aux_before = dm.aux_table().size_bytes();
    MutableStore::maintenance(&mut dm).unwrap();
    let aux_after = dm.aux_table().size_bytes();
    assert!(
        aux_after < aux_before,
        "retrain must shrink the aux: {aux_before} -> {aux_after}"
    );

    // The retrain opened a fresh drift epoch and the store is healthy again.
    let fresh = dm.drift_signals();
    assert_eq!(fresh.retrain_count, 1);
    assert_eq!(fresh.overlay_bytes, 0);
    assert_eq!(fresh.mispredict_ema, 0.0);
    assert_eq!(fresh.exist_churn, 0);
    assert_eq!(fresh.model_answered + fresh.aux_answered, 0);
    assert!(dm.health_report().is_healthy());

    // And the store still answers exactly.
    let reference = {
        let mut r = ReferenceStore::from_rows(&rows);
        for chunk in 0..4u64 {
            let updates: Vec<Row> = (chunk * 400..(chunk + 1) * 400)
                .map(|k| Row::new(k, vec![(k % 5) as u32, ((k * 3 + 1) % 3) as u32]))
                .collect();
            r.update(&updates).unwrap();
        }
        r
    };
    let probe: Vec<u64> = (0..4_500u64).collect();
    assert_eq!(
        dm.lookup_batch(&probe).unwrap(),
        reference.lookup_batch(&probe).unwrap()
    );

    obs::set_enabled(was_enabled);
}
