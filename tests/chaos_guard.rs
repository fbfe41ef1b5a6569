//! Chaos guard: the serving stack under seeded fault plans.
//!
//! Three escalating rehearsals of the failure taxonomy (see the facade docs in
//! `src/lib.rs`):
//!
//! 1. A 5% transient-read plan against a coalescing server: the buffer pool's
//!    bounded retries absorb almost everything, every successfully answered
//!    key is byte-identical to the fault-free run, and the rare request that
//!    still fails gets a typed error — never a wrong tuple.
//! 2. A partition-targeted persistent plan: only requests with *corrected*
//!    keys held by the faulted partition degrade, and only those keys fail
//!    (predicted keys in its key range never touch it); the circuit breaker
//!    opens under the sustained failures, half-open probes after the cooldown,
//!    and closes the moment the "disk" is repaired.  The health advisor sees
//!    the episode.
//! 3. An installed-but-disabled injector is functionally free: byte-identical
//!    answers, zero injected faults, zero retries, zero degraded keys.
//! 4. One batch over a store with both routes, one partition that will not
//!    load and one key whose `Vaux` bit names a row the table lacks: exactly
//!    that partition's keys and that key fail, each with its typed error, and
//!    the hit count is the answered keys — the failures take back the hits
//!    the pipeline claimed for them before it probed.
//!
//! Every plan is seeded: a failure here reproduces exactly, run after run.

use deepmapping::core::QueryPipeline;
use deepmapping::faults::{FaultPlan, Faults};
use deepmapping::prelude::*;
use deepmapping::storage::StorageError;
use std::sync::Arc;
use std::time::Duration;

/// Hash-noise values the model cannot learn, so every row is aux-resident and
/// every partition is load-bearing for the keys it covers.
fn chaotic_rows(n: u64) -> Vec<Row> {
    (0..n)
        .map(|k| {
            let h = k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17;
            Row::new(k, vec![(h % 7) as u32, ((h >> 8) % 5) as u32])
        })
        .collect()
}

fn build(rows: &[Row]) -> DeepMapping {
    DeepMappingBuilder::dm_z()
        .training(TrainingConfig {
            epochs: 2,
            batch_size: 1024,
            ..TrainingConfig::default()
        })
        .partition_bytes(2 * 1024)
        .disk_profile(DiskProfile::free())
        .build(rows)
        .expect("build DeepMapping")
}

/// Under a seeded 5% transient-read plan the server keeps serving: retries
/// absorb the noise, every `Ok` response is byte-identical to the fault-free
/// run, and any residual failure (three bad coin flips in a row on one
/// partition) surfaces as a typed `PartialFailure`, never as wrong bytes.
#[test]
fn five_percent_transient_plan_is_absorbed_by_retries() {
    let rows = chaotic_rows(6_000);
    let mut dm = build(&rows);
    let probe: Vec<u64> = (0..6_000u64).collect();
    let healthy = dm.lookup_batch(&probe).unwrap();

    let faults = Faults::new(
        FaultPlan::seeded(21)
            .with_read_transient(0.05)
            .with_read_latency(Duration::from_micros(50), 0.05),
    );
    dm.inject_faults(faults.clone());
    dm.metrics().reset();
    let store = Arc::new(dm);

    let mut config = ServerConfig::coalescing(Duration::from_micros(200), 256);
    config.breaker_failure_threshold = 0; // isolate the retry layer
    let server = QueryServer::new(config);
    let tenant = server.register_store("chaos", Arc::clone(&store) as _).unwrap();
    let mut client = server.client();

    let mut served = 0usize;
    let mut typed_failures = 0usize;
    for chunk in probe.chunks(64) {
        match client.lookup_batch(tenant, chunk) {
            Ok(values) => {
                served += chunk.len();
                for (i, &key) in chunk.iter().enumerate() {
                    assert_eq!(
                        values[i], healthy[key as usize],
                        "key {key} served under faults must be byte-identical"
                    );
                }
            }
            Err(ServerError::PartialFailure { failed_keys, total_keys, .. }) => {
                assert!(failed_keys > 0 && failed_keys <= total_keys);
                typed_failures += 1;
            }
            Err(other) => panic!("only PartialFailure is a legal chaos outcome, got {other}"),
        }
    }
    drop(server);

    let injected = faults.stats();
    assert!(injected.read_transient > 0, "a 5% plan over a cold store must fire");
    let snap = store.metrics().snapshot();
    assert!(snap.load_retries > 0, "transients must be retried, not surfaced");
    assert!(
        served >= probe.len() * 9 / 10,
        "retries must absorb a 5% plan almost entirely: {served} of {} keys served \
         ({typed_failures} typed failures)",
        probe.len()
    );
}

/// A partition whose reads keep failing degrades only the requests that touch
/// it; sustained failure trips the per-tenant breaker; repairing the fault
/// recovers the tenant through a half-open probe.  The episode is visible to
/// the maintenance advisor as `investigate_storage`.
#[test]
fn targeted_partition_faults_degrade_trip_the_breaker_and_recover() {
    let rows = chaotic_rows(4_000);
    let mut dm = build(&rows);
    assert!(dm.aux_table().partition_count() >= 2, "need partitions to target");
    let directory = dm.aux_table().partition_directory();
    let faulted: Vec<u64> = (directory[0].min_key..=directory[0].max_key).take(24).collect();
    // Only the keys the partition actually holds depend on it.
    let corrected_in_faulted = faulted.iter().filter(|&&k| dm.corrected().get(k)).count();
    assert!(corrected_in_faulted > 0);
    let last = directory.last().unwrap();
    let untouched: Vec<u64> = (last.min_key..=last.max_key).take(24).collect();
    let probe: Vec<u64> = (0..4_000u64).collect();
    let healthy = dm.lookup_batch(&probe).unwrap();
    let healthy_untouched = dm.lookup_batch(&untouched).unwrap();

    let faults = Faults::new(
        FaultPlan::seeded(7)
            .with_read_transient(1.0)
            .with_read_partitions(vec![0]),
    );
    dm.inject_faults(faults.clone());
    let store = Arc::new(dm);

    let mut config = ServerConfig::inline();
    config.max_request_keys = 4_096;
    config.breaker_failure_threshold = 2;
    config.breaker_cooldown = Duration::from_millis(40);
    let server = QueryServer::new(config);
    let tenant = server.register_store("victim", Arc::clone(&store) as _).unwrap();
    let mut client = server.client();

    // Requests confined to healthy partitions are answered byte-identically.
    assert_eq!(client.lookup_batch(tenant, &untouched).unwrap(), healthy_untouched);

    // Requests touching the faulted partition get the typed partial error.
    for _ in 0..2 {
        match client.lookup_batch(tenant, &faulted) {
            Err(ServerError::PartialFailure { failed_keys, total_keys, .. }) => {
                assert_eq!(failed_keys, corrected_in_faulted);
                assert_eq!(total_keys, faulted.len());
            }
            other => panic!("faulted-partition request must partially fail, got {other:?}"),
        }
    }

    // Two consecutive failures tripped the breaker: the tenant fast-fails.
    match client.lookup_batch(tenant, &untouched) {
        Err(ServerError::TenantUnavailable { tenant: name, retry_after }) => {
            assert_eq!(name, "victim");
            assert!(retry_after <= Duration::from_millis(40));
        }
        other => panic!("open breaker must fast-fail, got {other:?}"),
    }
    assert!(server.stats().breaker_trips >= 1);

    // The advisor sees the degradation through the served health view.
    let report = server.tenant_health("victim").unwrap();
    let fault_signals = report.faults.expect("server must surface fault signals");
    assert!(fault_signals.degraded_keys > 0);
    assert_eq!(report.primary().label(), "investigate_storage");

    // Repair the disk; after the cooldown one probe closes the breaker.
    faults.set_enabled(false);
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(client.lookup_batch(tenant, &faulted).unwrap().len(), faulted.len());
    assert!(server.stats().breaker_recoveries >= 1);

    // Full service is restored, byte-identical to the fault-free run.
    assert_eq!(client.lookup_batch(tenant, &probe).unwrap(), healthy);
}

/// An injector that is installed but disabled must change nothing: identical
/// bytes, no injected faults, no retries, no degraded keys.
#[test]
fn a_disabled_injector_is_functionally_free() {
    let rows = chaotic_rows(2_000);
    let mut dm = build(&rows);
    let probe: Vec<u64> = (0..2_000u64).collect();
    let healthy = dm.lookup_batch(&probe).unwrap();

    let faults = Faults::new(FaultPlan::seeded(3).with_read_transient(1.0));
    faults.set_enabled(false);
    dm.inject_faults(faults.clone());
    dm.metrics().reset();

    assert_eq!(dm.lookup_batch(&probe).unwrap(), healthy);
    assert_eq!(faults.stats().total(), 0, "disabled injectors must not fire");
    let snap = dm.metrics().snapshot();
    assert_eq!(snap.load_retries, 0);
    assert_eq!(snap.degraded_keys, 0);

    // The wrapper was live all along: re-enabling makes every cold read fail.
    // (Re-injecting clears the buffer pool, so the next probe must go cold —
    // otherwise the cached partitions would mask the now-active plan.)
    faults.set_enabled(true);
    dm.inject_faults(faults);
    assert!(dm.lookup_batch(&probe).is_err());
}

/// Rows of both routes: 32-key runs of a learnable pattern (predicted keys)
/// alternating with hash noise (corrected keys).
fn mixed_rows(n: u64) -> Vec<Row> {
    (0..n)
        .map(|k| {
            if (k / 32) % 2 == 0 {
                Row::new(k, vec![((k / 64) % 4) as u32, ((k / 256) % 3) as u32])
            } else {
                let h = k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17;
                Row::new(k, vec![(h % 5) as u32, ((h >> 7) % 3) as u32])
            }
        })
        .collect()
}

/// A degraded batch, as the buffer API serves it: with one partition failing
/// every read and one key routed to the table against its contents, every
/// other key — predicted, corrected, absent — answers as the reference does,
/// exactly the partition's keys fail with the storage error, the orphan key
/// fails as corruption, and `hit_count()` counts the answered keys only.
#[test]
fn a_degraded_batch_fails_exactly_the_failed_partitions_keys_and_counts_the_rest() {
    let rows = mixed_rows(4_000);
    let mut dm = DeepMappingBuilder::dm_z()
        .training(TrainingConfig {
            epochs: 40,
            batch_size: 256,
            ..TrainingConfig::default()
        })
        .partition_bytes(2 * 1024)
        .disk_profile(DiskProfile::free())
        .build(&rows)
        .expect("build DeepMapping");
    let reference = ReferenceStore::from_rows(&rows);
    let directory = dm.aux_table().partition_directory();
    assert!(
        directory.len() >= 3,
        "need partitions around the failed one"
    );
    let failed = directory[1];
    let in_failed = |key: u64| (failed.min_key..=failed.max_key).contains(&key);
    let predicted: Vec<u64> = rows
        .iter()
        .map(|r| r.key)
        .filter(|&k| !dm.corrected().get(k))
        .collect();
    assert!(
        predicted.len() > 500,
        "only {} predicted keys",
        predicted.len()
    );
    // A predicted key outside the failed partition's range, routed to the
    // table by a doctored `Vaux`.
    let orphan = *predicted
        .iter()
        .find(|&&k| !in_failed(k))
        .expect("a predicted key");
    let mut vaux = dm.corrected().clone();
    vaux.set(orphan, true);

    dm.inject_faults(Faults::new(
        FaultPlan::seeded(13)
            .with_read_transient(1.0)
            .with_read_partitions(vec![1]),
    ));
    let pipeline = QueryPipeline::new(
        dm.model(),
        dm.aux_table(),
        dm.existence(),
        &vaux,
        dm.metrics(),
    );
    // Every key of the table, shuffled, with misses past its end.
    let keys: Vec<u64> = (0..4_400u64).map(|i| (i * 2_654_435_761) % 4_400).collect();
    let expected = reference.lookup_batch(&keys).unwrap();
    let mut buffer = LookupBuffer::new();
    pipeline.execute_into(&keys, &mut buffer).unwrap();

    let mut answered = 0;
    let mut partition_failures = 0;
    for (i, &key) in keys.iter().enumerate() {
        if key == orphan {
            assert!(buffer.is_failed(i));
            let err = buffer.error(i).expect("a failed key carries its error");
            assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
        } else if in_failed(key) && dm.corrected().get(key) {
            assert!(buffer.is_failed(i), "key {key} of the failed partition");
            let err = buffer.error(i).expect("a failed key carries its error");
            assert!(
                matches!(err, StorageError::Io(_)),
                "retry-exhausted transient, got {err}"
            );
            partition_failures += 1;
        } else {
            assert!(!buffer.is_failed(i), "key {key}");
            assert_eq!(buffer.get(i).map(<[u32]>::to_vec), expected[i], "key {key}");
            answered += usize::from(expected[i].is_some());
        }
    }
    assert!(
        partition_failures > 0,
        "the failed partition held no queried key"
    );
    assert_eq!(buffer.failed_count(), partition_failures + 1);
    assert_eq!(buffer.hit_count(), answered);
    assert_eq!(
        buffer.hit_count(),
        (0..keys.len()).filter(|&i| buffer.is_hit(i)).count()
    );
}
