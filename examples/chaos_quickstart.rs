//! Chaos quickstart: fault injection, graceful degradation, the circuit
//! breaker, and recovery — the whole robustness story in one episode.
//!
//! DeepMapping's hybrid contract is *never serve a wrong tuple*: a key whose
//! auxiliary partition cannot be read gets a typed error, not a bare model
//! prediction that might be a misprediction.  This example walks what that
//! means operationally:
//!
//! 1. build a store and inject a seeded, partition-targeted fault plan,
//! 2. serve it: requests touching the faulted partition get a typed
//!    `PartialFailure`, every other request is answered byte-identically,
//! 3. watch the sustained failures trip the per-tenant circuit breaker
//!    (`TenantUnavailable { retry_after }`) and the health advisor flag
//!    `investigate_storage` from the fault counters,
//! 4. "repair the disk" (disable the injector), let the breaker's half-open
//!    probe close it, and verify full byte-identical service is restored,
//! 5. read the episode back from the retry/degradation/breaker counters.
//!
//! Run with `cargo run --release --example chaos_quickstart`.  Every fault
//! decision is a pure function of the plan's seed, so the episode replays
//! identically run after run.  A plan reaches a store one way only: the
//! `inject_faults` call below.

use deepmapping::faults::{FaultPlan, Faults};
use deepmapping::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    // 1. A store whose values the model cannot learn: every row lives in the
    //    auxiliary table, so every partition is load-bearing for its keys.
    let rows: Vec<Row> = (0..8_000u64)
        .map(|k| {
            let h = k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17;
            Row::new(k, vec![(h % 7) as u32, ((h >> 8) % 5) as u32])
        })
        .collect();
    let mut dm = DeepMappingBuilder::dm_z()
        .training(TrainingConfig::quick())
        .partition_bytes(4 * 1024)
        .build(&rows)
        .expect("build store");
    let probe: Vec<u64> = (0..8_000u64).collect();
    let healthy = dm.lookup_batch(&probe).expect("fault-free run");

    // Aim a persistent failure at partition 0: every read of it errors (the
    // transient flavor, so the buffer pool burns its bounded retries first).
    let directory = dm.aux_table().partition_directory();
    let faulted_keys: Vec<u64> = (directory[0].min_key..=directory[0].max_key).take(16).collect();
    let last = directory.last().expect("partitioned store");
    let untouched_keys: Vec<u64> = (last.min_key..=last.max_key).take(16).collect();
    let faults = Faults::new(
        FaultPlan::seeded(7)
            .with_read_transient(1.0)
            .with_read_partitions(vec![0]),
    );
    dm.inject_faults(Arc::clone(&faults));
    let store = Arc::new(dm);
    println!("== fault plan ==");
    println!(
        "  seeded(7): transient read errors, partition 0 only ({} partitions total)",
        directory.len()
    );

    // 2. Serve it.  The breaker is configured tight so the episode is short.
    let config = ServerConfig {
        breaker_failure_threshold: 2,
        breaker_cooldown: Duration::from_millis(50),
        ..ServerConfig::inline()
    };
    let server = QueryServer::new(config);
    let tenant = server
        .register_store("orders", Arc::clone(&store) as _)
        .expect("register");
    let mut client = server.client();

    println!("\n== degraded serving ==");
    let ok = client
        .lookup_batch(tenant, &untouched_keys)
        .expect("untouched partition must serve");
    assert!(ok.iter().all(|v| v.is_some()));
    println!("  {} keys outside the faulted partition: served, byte-identical", ok.len());
    for round in 1..=2 {
        match client.lookup_batch(tenant, &faulted_keys) {
            Err(ServerError::PartialFailure { failed_keys, total_keys, cause }) => {
                println!(
                    "  request {round} touching partition 0: PartialFailure \
                     ({failed_keys}/{total_keys} keys, cause: {cause})"
                );
            }
            other => panic!("expected PartialFailure, got {other:?}"),
        }
    }

    // 3. Two consecutive failures opened the breaker: the tenant fast-fails
    //    at admission — even for requests that would have succeeded — until
    //    the cooldown admits a half-open probe.
    println!("\n== breaker open ==");
    match client.lookup_batch(tenant, &untouched_keys) {
        Err(ServerError::TenantUnavailable { tenant, retry_after }) => {
            println!("  tenant {tenant}: unavailable, retry after {retry_after:?}");
        }
        other => panic!("expected TenantUnavailable, got {other:?}"),
    }
    let health = server.tenant_health("orders").expect("health");
    let signals = health.faults.expect("fault signals");
    println!(
        "  advisor: {} (degraded_keys={} load_retries={})",
        health.primary().label(),
        signals.degraded_keys,
        signals.load_retries,
    );

    // 4. Repair the disk and wait out the cooldown: the next request is the
    //    half-open probe; its success closes the breaker for everyone.
    faults.set_enabled(false);
    std::thread::sleep(Duration::from_millis(60));
    let recovered = client
        .lookup_batch(tenant, &faulted_keys)
        .expect("half-open probe must recover the tenant");
    assert!(recovered.iter().all(|v| v.is_some()));
    let full = client
        .lookup_batch(tenant, &probe[..1_000.min(probe.len())])
        .expect("service restored");
    assert_eq!(
        full,
        healthy[..1_000.min(healthy.len())],
        "recovered answers must be byte-identical to the fault-free run"
    );
    println!("\n== recovered ==");
    println!("  probe after repair: {} keys, byte-identical to the fault-free run", full.len());

    // 5. The whole episode, read back from the counters.
    let stats = server.stats();
    let injected = faults.stats();
    let snap = store.metrics().snapshot();
    println!("\n== episode counters ==");
    println!(
        "  injected: {} transient read errors ({} total faults)",
        injected.read_transient,
        injected.total()
    );
    println!(
        "  store:    {} cold-load retries, {} keys degraded",
        snap.load_retries, snap.degraded_keys
    );
    println!(
        "  server:   {} partial failures, {} breaker trips, {} rejections, {} recoveries",
        stats.partial_failures, stats.breaker_trips, stats.breaker_rejections, stats.breaker_recoveries
    );
}
