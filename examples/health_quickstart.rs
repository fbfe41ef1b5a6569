//! Workload-health quickstart: the full drift episode, end to end.
//!
//! DeepMapping's failure mode is silent — a drifting model never errors, the
//! auxiliary table just absorbs more and more of the answers.  This example
//! walks the telemetry that makes the decay visible and actionable:
//!
//! 1. build a healthy store, read skewed keys and inspect its pool pressure,
//! 2. drive an off-pattern update storm and watch `health_report()` turn the
//!    drift signals into `Retrain` advice with predicted aux shrink,
//! 3. act on the advice (`maintenance()`) and measure the actual shrink,
//! 4. serve the retrained store through a `QueryServer` and read the
//!    *windowed* tail percentiles plus the SLO-aware tenant health view.
//!
//! Run with `cargo run --release --example health_quickstart`.
//! Everything here sits behind the `DM_OBS` kill switch (the example flips it
//! on explicitly so it always has something to show).

use deepmapping::obs;
use deepmapping::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn print_report(report: &obs::HealthReport) {
    println!(
        "  drift: aux_answer_ratio={:.3} overlay={}B ({:.1}% of aux) mispredict_ema={:.3} tombstones={} churn={:.3}",
        report.drift.aux_answer_ratio(),
        report.drift.overlay_bytes,
        report.drift.overlay_ratio() * 100.0,
        report.drift.mispredict_ema,
        report.drift.tombstones,
        report.drift.churn_ratio(),
    );
    println!(
        "  pool:  resident={}B budget={}B occupancy={:.2} miss_rate={:.3}",
        report.pool.resident_bytes,
        report.pool.budget_bytes,
        report.pool.occupancy(),
        report.pool.miss_rate,
    );
    if let Some(slo) = report.slo {
        println!(
            "  slo:   windowed_p99={:?} target={:?} burn_rate={:.2} over {} requests",
            Duration::from_nanos(slo.windowed_p99_nanos),
            Duration::from_nanos(slo.target_p99_nanos),
            slo.burn_rate(),
            slo.windowed_requests,
        );
    }
    for advice in &report.advice {
        println!("  advice: {advice:?}");
    }
}

fn main() {
    obs::set_enabled(true);

    // 1. A healthy store: mostly correlated rows (the model memorizes those),
    //    with a noisy slice that lands in the aux table so the buffer pool
    //    has real partitions to serve.  The modest pool budget keeps the
    //    pressure numbers meaningful.
    let rows: Vec<Row> = (0..12_000u64)
        .map(|k| {
            let noisy = k % 5 == 0;
            let col1 = if noisy {
                (k.wrapping_mul(2_654_435_761) >> 7) % 50
            } else {
                (k / 64) % 3
            };
            Row::new(k, vec![((k / 16) % 5) as u32, col1 as u32])
        })
        .collect();
    let mut dm = DeepMappingBuilder::dm_z()
        .training(TrainingConfig::quick())
        .partition_bytes(8 * 1024)
        .memory_budget(64 * 1024)
        .build(&rows)
        .expect("build store");
    println!("== fresh store ==");
    print_report(&dm.health_report());

    // 2. Skewed reads: a hot narrow range hammered repeatedly, plus one wide
    //    pass that sweeps every partition through the pool.
    let hot: Vec<u64> = (0..512).collect();
    for _ in 0..16 {
        dm.lookup_batch(&hot).expect("lookup");
    }
    let wide: Vec<u64> = (0..12_000).collect();
    dm.lookup_batch(&wide).expect("lookup");
    let pool = dm.aux_table().pool_pressure();
    println!("\n== pool pressure after skewed reads ==");
    println!(
        "  occupancy {:.2} (resident {}B / budget {}B), miss rate {:.3}",
        pool.occupancy(),
        pool.resident_bytes,
        pool.budget_bytes,
        pool.miss_rate
    );

    // 3. The update storm: off-pattern (but schema-valid) values.  The model
    //    mispredicts nearly all of them, so every batch climbs the write-time
    //    misprediction EMA and lands rows in the delta overlay.
    for chunk in 0..5u64 {
        let updates: Vec<Row> = (chunk * 800..(chunk + 1) * 800)
            .map(|k| Row::new(k, vec![(k % 5) as u32, ((k * 3 + 1) % 3) as u32]))
            .collect();
        dm.update_rows(&updates).expect("update");
    }
    println!("\n== after the update storm ==");
    let report = dm.health_report();
    print_report(&report);

    // 4. Act on the advice and measure the effect.
    let aux_before = dm.aux_table().size_bytes();
    let predicted = match report.primary() {
        obs::Advice::Retrain {
            expected_aux_shrink_bytes,
            ..
        } => *expected_aux_shrink_bytes,
        other => panic!("expected Retrain advice after the storm, got {other:?}"),
    };
    dm.maintenance().expect("retrain");
    let aux_after = dm.aux_table().size_bytes();
    println!("\n== after maintenance() ==");
    println!(
        "  aux table: {aux_before}B -> {aux_after}B (shrank {}B; advisor predicted ~{predicted}B)",
        aux_before.saturating_sub(aux_after)
    );
    print_report(&dm.health_report());

    // 5. Serve the retrained store and read the windowed (last ~60 s) tails —
    //    "now", not since-boot — plus the SLO-aware per-tenant health view.
    let config = ServerConfig {
        tenant_p99_target: Some(Duration::from_millis(5)),
        ..ServerConfig::inline()
    };
    let server = QueryServer::new(config);
    let tenant = server
        .register_store("orders", Arc::new(dm))
        .expect("register");
    let mut client = server.client();
    for k in 0..2_000u64 {
        client.get(tenant, k * 6 % 12_000).expect("serve");
    }
    let stats = server.stats();
    println!("\n== served tails (window {:?}) ==", stats.recent_window);
    println!(
        "  recent: n={} p50={:?} p95={:?} p99={:?}",
        stats.recent_requests,
        stats.recent_request_wall_p50,
        stats.recent_request_wall_p95,
        stats.recent_request_wall_p99,
    );
    println!(
        "  since boot: n={} p50={:?} p99={:?} max={:?}",
        stats.requests_completed,
        stats.request_wall_p50,
        stats.request_wall_p99,
        stats.request_wall_max,
    );
    println!("\n== tenant health (SLO-aware) ==");
    let health = server.tenant_health("orders").expect("tenant health");
    print_report(&health);

    // 6. Publish the reports into the global registry: the next Prometheus or
    //    JSON scrape carries the advisor's view alongside the raw metrics.
    server.publish_health();
    println!("\n== render_prometheus() health excerpt ==");
    for line in obs::render_prometheus()
        .lines()
        .filter(|l| l.starts_with("dm_health_orders") && !l.contains("TYPE"))
        .take(8)
    {
        println!("  {line}");
    }
}
