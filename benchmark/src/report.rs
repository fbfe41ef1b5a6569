//! The metric catalogue, the run record, and how a run is printed.
//!
//! `BENCHMARK.json` at the repository root lists the same names and units; the
//! package's tests compare the two.

use crate::trace::SpanTotals;
use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the store sees.  Measured with tracing off; every workload
/// exercises every one of them.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", "lower"),
    def("keys_per_s", "keys/s", "higher"),
    def("batch_p50_us", "us", "lower"),
    def("bytes_per_user_byte", "ratio", "lower"),
];

/// What single layers do, from the `--trace 1` run.  A workload that does not
/// exercise a layer reports 0 for its metrics.
pub const PER_LAYER: &[MetricDef] = &[
    def("batch_p99_us", "us", "lower"),
    def("failed_op_share", "ratio", "lower"),
    def("write_rows_per_s", "rows/s", "higher"),
    def("write_p50_us", "us", "lower"),
    def("maintenance_s", "s", "lower"),
    def("storage.existence_ns_per_key", "ns/key", "lower"),
    def("storage.existence_pass_share", "ratio", "higher"),
    def("storage.pool_hit_share", "ratio", "higher"),
    def("storage.pool_loads_per_batch", "1/batch", "lower"),
    def("storage.pool_evictions_per_batch", "1/batch", "lower"),
    def("storage.single_flight_waits_per_batch", "1/batch", "lower"),
    def("nn.encode_ns_per_key", "ns/key", "lower"),
    def("nn.forward_ns_per_key", "ns/key", "lower"),
    def("nn.trunk0_ns_per_key", "ns/key", "lower"),
    def("nn.trunk1_ns_per_key", "ns/key", "lower"),
    def("nn.head0_ns_per_key", "ns/key", "lower"),
    def("nn.head1_ns_per_key", "ns/key", "lower"),
    def("nn.head2_ns_per_key", "ns/key", "lower"),
    def("nn.head3_ns_per_key", "ns/key", "lower"),
    def("nn.head4_ns_per_key", "ns/key", "lower"),
    def("nn.macs_per_key", "count", "lower"),
    def("nn.mac_per_ns", "MAC/ns", "higher"),
    def("compress.decode_mb_per_s", "MB/s", "higher"),
    def("compress.encode_mb_per_s", "MB/s", "higher"),
    def("compress.aux_ratio", "ratio", "lower"),
    def("core.lookup_ns_per_key", "ns/key", "lower"),
    def("core.aux_probe_ns_per_key", "ns/key", "lower"),
    def("core.pipeline_residual_share", "ratio", "lower"),
    def("core.model_answer_share", "ratio", "higher"),
    def("core.wasted_inference_share", "ratio", "lower"),
    def("core.wasted_probe_share", "ratio", "lower"),
    def("core.build_s", "s", "lower"),
    def("core.size.model_bytes", "bytes", "lower"),
    def("core.size.aux_bytes", "bytes", "lower"),
    def("core.size.existence_bytes", "bytes", "lower"),
    def("core.size.decode_map_bytes", "bytes", "lower"),
    def("core.overlay_bytes", "bytes", "lower"),
    def("core.delta_rows", "count", "lower"),
    def("core.tombstones", "count", "lower"),
    def("persist.snapshot_write_ms", "ms", "lower"),
    def("persist.snapshot_bytes", "bytes", "lower"),
    def("persist.eager_bytes", "bytes", "lower"),
    def("persist.open_us", "us", "lower"),
    def("persist.first_batch_us", "us", "lower"),
    def("persist.cold_load_us", "us", "lower"),
    def("persist.wal_append_sync_us", "us", "lower"),
    def("persist.wal_bytes_per_user_byte", "ratio", "lower"),
    def("persist.checkpoint_ms", "ms", "lower"),
    def("persist.replay_ms", "ms", "lower"),
    def("exec.tasks_per_batch", "1/batch", "lower"),
    def("exec.steals_per_batch", "1/batch", "lower"),
    def("exec.park_ns_per_batch", "ns/batch", "lower"),
    def("exec.keys_per_s_t2", "keys/s", "higher"),
    def("exec.scaling_t2", "ratio", "higher"),
    def("exec.pool_keys_per_s", "keys/s", "higher"),
    def("exec.pool_speedup", "ratio", "higher"),
    def("server.queue_wait_us_p50", "us", "lower"),
    def("server.coalesce_wait_us_p50", "us", "lower"),
    def("server.batch_keys_mean", "keys", "higher"),
    def("server.requests_per_batch", "1/batch", "higher"),
    def("server.rejected_share", "ratio", "lower"),
    def("server.store_us_per_request", "us", "lower"),
    def("server.inline_keys_per_s", "keys/s", "higher"),
    def("ref.abcz_keys_per_s", "keys/s", "higher"),
    def("ref.abcz_bytes_per_user_byte", "ratio", "lower"),
    def("ref.hb_keys_per_s", "keys/s", "higher"),
    def("ref.hb_bytes_per_user_byte", "ratio", "lower"),
    def("bench.trace_overhead_share", "ratio", "lower"),
    def("bench.wall_setup_s", "s", "lower"),
    def("bench.wall_keys_per_s", "keys/s", "higher"),
    def("bench.wall_batch_p50_us", "us", "lower"),
    def("bench.host_slowdown", "ratio", "lower"),
    def("bench.host_setup_slowdown", "ratio", "lower"),
];

/// Values measured by one run, by metric name.
#[derive(Debug, Clone, Default)]
pub struct Measured(BTreeMap<&'static str, f64>);

impl Measured {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "{name} is not in the catalogue"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Facts that identify a run and let two runs be compared.
#[derive(Debug, Clone, Default)]
pub struct RunRecord {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub quick: bool,
    pub seconds: u64,
    pub rows: usize,
    pub rows_fingerprint: u64,
    pub keys_fingerprint: u64,
    pub nproc: usize,
    pub exec_threads: usize,
    pub kernel: &'static str,
    pub commit: String,
    pub rustc: String,
    /// Sample counts behind the medians and percentiles, and other notes.
    pub notes: BTreeMap<&'static str, String>,
}

#[derive(Debug, Clone)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// The end-to-end metrics of an untraced run, or the per-layer metrics of a
    /// traced one: what the last line of standard output carries.
    pub metrics: Vec<Metric>,
    /// Everything else the run measured, for people: printed, never gated.
    pub extra: Vec<Metric>,
    /// Count, total and self time of the spans of a traced run, by span name.
    pub spans: BTreeMap<&'static str, SpanTotals>,
    pub record: RunRecord,
}

impl RunResult {
    /// Lays the measured values out in catalogue order.  An end-to-end metric
    /// that is missing or not finite is a bug in the workload; a per-layer
    /// metric a workload does not exercise is 0.
    pub fn assemble(
        measured: &Measured,
        tally: crate::oracle::Tally,
        spans: BTreeMap<&'static str, SpanTotals>,
        record: RunRecord,
    ) -> crate::layers::Result<RunResult> {
        let metric = |d: &MetricDef, value: f64| Metric {
            name: d.name,
            value,
            unit: d.unit,
        };
        let measured_of = |defs: &[MetricDef]| -> Vec<Metric> {
            defs.iter()
                .filter_map(|d| measured.get(d.name).map(|value| metric(d, value)))
                .collect()
        };
        let (metrics, extra) = if record.traced {
            let per_layer = PER_LAYER
                .iter()
                .map(|d| metric(d, measured.get(d.name).unwrap_or(0.0)));
            (per_layer.collect(), measured_of(END_TO_END))
        } else {
            if let Some(missing) = END_TO_END.iter().find(|d| measured.get(d.name).is_none()) {
                return Err(format!("{} was not measured", missing.name).into());
            }
            (measured_of(END_TO_END), measured_of(PER_LAYER))
        };
        if let Some(bad) = metrics.iter().chain(&extra).find(|m| !m.value.is_finite()) {
            return Err(format!("{} is not finite", bad.name).into());
        }
        Ok(RunResult {
            correct: tally.failed == 0,
            attempted: tally.attempted,
            failed: tally.failed,
            first_failure: tally.first_failure,
            metrics,
            extra,
            spans,
            record,
        })
    }

    /// The one line the driver reads.
    pub fn result_line(&self) -> String {
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": ",
            self.correct, self.attempted, self.failed
        );
        write_metrics(&mut line, &self.metrics);
        line.push('}');
        line
    }

    /// The record and every metric, for `out/result-<workload>.json`.
    pub fn full_json(&self) -> String {
        let r = &self.record;
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"workload\": \"{}\",", r.workload);
        let _ = writeln!(out, "  \"seed\": {},", r.seed);
        let _ = writeln!(out, "  \"traced\": {},", r.traced);
        let _ = writeln!(out, "  \"quick\": {},", r.quick);
        let _ = writeln!(out, "  \"seconds\": {},", r.seconds);
        let _ = writeln!(out, "  \"rows\": {},", r.rows);
        let _ = writeln!(
            out,
            "  \"rows_fingerprint\": \"{:016x}\",",
            r.rows_fingerprint
        );
        let _ = writeln!(
            out,
            "  \"keys_fingerprint\": \"{:016x}\",",
            r.keys_fingerprint
        );
        let _ = writeln!(out, "  \"nproc\": {},", r.nproc);
        let _ = writeln!(out, "  \"exec_threads\": {},", r.exec_threads);
        let _ = writeln!(out, "  \"kernel\": \"{}\",", r.kernel);
        let _ = writeln!(out, "  \"commit\": \"{}\",", escape(&r.commit));
        let _ = writeln!(out, "  \"rustc\": \"{}\",", escape(&r.rustc));
        for (key, value) in &r.notes {
            let _ = writeln!(out, "  \"{key}\": \"{}\",", escape(value));
        }
        let _ = writeln!(out, "  \"correct\": {},", self.correct);
        let _ = writeln!(out, "  \"attempted\": {},", self.attempted);
        let _ = writeln!(out, "  \"failed\": {},", self.failed);
        let first = self.first_failure.as_deref().unwrap_or("");
        let _ = writeln!(out, "  \"first_failure\": \"{}\",", escape(first));
        out.push_str("  \"metrics\": ");
        write_metrics(&mut out, &self.metrics);
        out.push_str(",\n  \"extra\": ");
        write_metrics(&mut out, &self.extra);
        out.push_str("\n}\n");
        out
    }

    /// Every metric by name with its unit, and the record, for a person.
    pub fn human(&self) -> String {
        let r = &self.record;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "workload {}  seed {}  trace {}  window {} s{}",
            r.workload,
            r.seed,
            u8::from(r.traced),
            r.seconds,
            if r.quick { "  (quick)" } else { "" }
        );
        let _ = writeln!(
            out,
            "rows {}  rows_fingerprint {:016x}  keys_fingerprint {:016x}",
            r.rows, r.rows_fingerprint, r.keys_fingerprint
        );
        let _ = writeln!(
            out,
            "nproc {}  exec_threads {}  kernel {}  commit {}  {}",
            r.nproc, r.exec_threads, r.kernel, r.commit, r.rustc
        );
        for (key, value) in &r.notes {
            let _ = writeln!(out, "{key}: {value}");
        }
        for metric in self.metrics.iter().chain(&self.extra) {
            let _ = writeln!(
                out,
                "  {:<40} {:>16.4} {}",
                metric.name, metric.value, metric.unit
            );
        }
        if !self.spans.is_empty() {
            let _ = writeln!(
                out,
                "  {:<28} {:>9} {:>12} {:>12}",
                "span", "count", "total ms", "self ms"
            );
        }
        for (name, totals) in &self.spans {
            let (total, own) = (totals.total_ns as f64 / 1e6, totals.self_ns as f64 / 1e6);
            let _ = writeln!(
                out,
                "  {name:<28} {:>9} {total:>12.3} {own:>12.3}",
                totals.count
            );
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "checked {} keys, {} failed (failed_op_share {share})",
            self.attempted, self.failed
        );
        if let Some(first) = &self.first_failure {
            let _ = writeln!(out, "FIRST FAILURE: {first}");
        }
        out
    }
}

fn write_metrics(out: &mut String, metrics: &[Metric]) {
    out.push('{');
    for (i, metric) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            metric.name, metric.value, metric.unit
        );
    }
    out.push('}');
}

fn escape(text: &str) -> String {
    text.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// Reads one metric's value back out of a result line: what `--calibrate`
/// needs from the runs it starts.
pub fn value_in_line(line: &str, name: &str) -> Option<f64> {
    let start = line.find(&format!("\"{name}\": {{\"value\": "))?;
    let rest = &line[start..];
    let rest = &rest[rest.find("\"value\": ")? + "\"value\": ".len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(["lower", "higher"].contains(&d.better));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn a_value_written_is_a_value_read() {
        let result = RunResult {
            correct: true,
            attempted: 3,
            failed: 0,
            first_failure: None,
            metrics: vec![
                Metric {
                    name: "setup_s",
                    value: 1.25,
                    unit: "s",
                },
                Metric {
                    name: "keys_per_s",
                    value: 1234567.5,
                    unit: "keys/s",
                },
            ],
            extra: Vec::new(),
            spans: BTreeMap::new(),
            record: RunRecord::default(),
        };
        let line = result.result_line();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "));
        assert_eq!(value_in_line(&line, "setup_s"), Some(1.25));
        assert_eq!(value_in_line(&line, "keys_per_s"), Some(1234567.5));
        assert_eq!(value_in_line(&line, "absent"), None);
    }
}
