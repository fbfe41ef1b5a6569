//! Smoke tests: every workload in `--quick` size, with and without the trace.
//! The numbers mean nothing at this size; their presence and the checks do.

use dm_benchmark::report::{value_in_line, MetricDef, RunResult, END_TO_END, PER_LAYER};
use dm_benchmark::workloads::Workload;
use dm_benchmark::{run, Options};
use std::path::PathBuf;

fn quick(workload: Workload, seed: u64, trace: bool, test: &str) -> Options {
    let mut options = Options::new(workload, seed);
    options.quick = true;
    options.seconds = 1;
    options.trace = trace;
    // One directory per test: tests run side by side.
    options.out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    options
}

fn value(result: &RunResult, name: &str) -> f64 {
    let found = result
        .metrics
        .iter()
        .chain(&result.extra)
        .find(|m| m.name == name);
    found.unwrap_or_else(|| panic!("{name} missing")).value
}

fn assert_lists(result: &RunResult, defs: &[MetricDef]) {
    let names: Vec<&str> = result.metrics.iter().map(|m| m.name).collect();
    let expected: Vec<&str> = defs.iter().map(|d| d.name).collect();
    assert_eq!(names, expected);
    let line = result.result_line();
    for (metric, def) in result.metrics.iter().zip(defs) {
        assert!(
            metric.value.is_finite(),
            "{} is {}",
            metric.name,
            metric.value
        );
        assert_eq!(metric.unit, def.unit);
        assert!(!metric.unit.is_empty());
        assert_eq!(
            value_in_line(&line, metric.name),
            Some(metric.value),
            "{}",
            metric.name
        );
    }
}

#[test]
fn every_workload_reports_every_metric_and_no_failure() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let options = quick(workload, 3, trace, "every_metric");
            let result = run(&options).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            assert!(
                result.correct,
                "{}: {:?}",
                workload.name(),
                result.first_failure
            );
            assert_eq!(result.failed, 0);
            assert!(result.attempted > 0);
            if trace {
                assert_lists(&result, PER_LAYER);
                assert_eq!(value(&result, "failed_op_share"), 0.0);
                assert!(value(&result, "core.lookup_ns_per_key") > 0.0);
                assert!(value(&result, "nn.forward_ns_per_key") > 0.0);
                // Only `mem_mixed` runs calls on the shared pool.
                let pooled = value(&result, "exec.pool_keys_per_s") > 0.0;
                assert_eq!(pooled, workload == Workload::MemMixed);
                assert!(options
                    .out_dir
                    .join(format!("trace-{}.json", workload.name()))
                    .exists());
            } else {
                assert_lists(&result, END_TO_END);
                // The driver refuses an end-to-end metric that reads 0.
                assert!(
                    result.metrics.iter().all(|m| m.value > 0.0),
                    "{:?}",
                    result.metrics
                );
                // The corrected value is the wall-clock one times the slow-down.
                let corrected =
                    value(&result, "batch_p50_us") * value(&result, "bench.host_slowdown");
                let wall = value(&result, "bench.wall_batch_p50_us");
                assert!((corrected / wall - 1.0).abs() < 1e-9, "{corrected} {wall}");
            }
            assert!(options
                .out_dir
                .join(format!("result-{}.json", workload.name()))
                .exists());
        }
    }
    // Only the write workload writes; only the serving workload serves.
    let written = run(&quick(Workload::WriteMix, 3, true, "every_metric")).unwrap();
    assert!(value(&written, "write_rows_per_s") > 0.0);
    assert!(value(&written, "persist.wal_append_sync_us") > 0.0);
    assert_eq!(value(&written, "server.batch_keys_mean"), 0.0);
}

#[test]
fn the_same_seed_gives_the_same_inputs_and_the_same_size() {
    let first = run(&quick(Workload::MemMixed, 7, false, "same_seed")).unwrap();
    let again = run(&quick(Workload::MemMixed, 7, false, "same_seed")).unwrap();
    let other = run(&quick(Workload::MemMixed, 8, false, "same_seed")).unwrap();
    assert_eq!(first.record.rows_fingerprint, again.record.rows_fingerprint);
    assert_eq!(first.record.keys_fingerprint, again.record.keys_fingerprint);
    assert_eq!(
        value(&first, "bytes_per_user_byte"),
        value(&again, "bytes_per_user_byte")
    );
    assert_ne!(first.record.rows_fingerprint, other.record.rows_fingerprint);
    assert_ne!(first.record.keys_fingerprint, other.record.keys_fingerprint);
}

#[test]
fn a_wrong_oracle_entry_is_caught() {
    let mut options = quick(Workload::MemMixed, 5, false, "wrong_oracle");
    options.corrupt_oracle = true;
    let result = run(&options).unwrap();
    assert!(!result.correct);
    assert!(result.failed > 0);
    let first = result
        .first_failure
        .as_deref()
        .expect("the first offending key is reported");
    assert!(first.starts_with("key "), "{first}");
    assert!(result.result_line().starts_with("{\"correct\": false, "));
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let text = std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json at the root");
    for d in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!(
            "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            d.name, d.unit, d.better
        );
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        text.matches("\"better\"").count(),
        END_TO_END.len() + PER_LAYER.len()
    );
    for workload in Workload::ALL {
        assert!(text.contains(&format!("{{\"name\": \"{}\", \"why\": ", workload.name())));
    }
    assert_eq!(text.matches("\"why\"").count(), Workload::ALL.len());
}
