//! The repository's benchmark: one workload from one seed per run, every answer
//! checked against an oracle, every metric printed by name and unit.
//!
//! `README.md` beside this package explains the workloads, the metrics and how
//! the layers are expected to move them.

pub mod calibrate;
pub mod gen;
pub mod host;
pub mod layers;
pub mod oracle;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;

use layers::Result;
use report::{RunRecord, RunResult};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use workloads::Workload;

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the timed window in seconds.
    pub seconds: u64,
    /// Record spans around the calls into each layer and report per-layer
    /// metrics; end-to-end metrics come from untraced runs only.
    pub trace: bool,
    /// Smoke-test sizes: a fifth of the rows.  Its numbers mean nothing.
    pub quick: bool,
    /// Where `trace-<workload>.json`, `result-<workload>.json` and the scratch
    /// files go.  Must be inside the checkout.
    pub out_dir: PathBuf,
    /// Makes one oracle entry wrong, so that a test can see the check fire.
    pub corrupt_oracle: bool,
}

impl Options {
    pub fn new(workload: Workload, seed: u64) -> Self {
        Options {
            workload,
            seed,
            seconds: 10,
            trace: false,
            quick: false,
            out_dir: default_out_dir(),
            corrupt_oracle: false,
        }
    }
}

/// `benchmark/out` from the repository root, `out` from the package directory.
pub fn default_out_dir() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

/// Every `DM_*` variable silently changes a kernel, a precision, a pool size,
/// tracing or fault injection; a run under one is not this benchmark.
fn product_variables(names: impl Iterator<Item = String>) -> Vec<String> {
    names.filter(|name| name.starts_with("DM_")).collect()
}

/// Scratch files of one run, removed when the run ends, also when it fails.
struct Scratch(PathBuf);

impl Scratch {
    fn create(out_dir: &Path) -> Result<Self> {
        static RUNS: AtomicU64 = AtomicU64::new(0);
        let run = RUNS.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir.join(format!("scratch-{}-{run}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|output| output.status.success())
        .and_then(|output| String::from_utf8(output.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// Runs one workload and writes its trace and result files under `out_dir`.
pub fn run(opts: &Options) -> Result<RunResult> {
    let set =
        product_variables(std::env::vars_os().filter_map(|(name, _)| name.into_string().ok()));
    if !set.is_empty() {
        return Err(format!(
            "refusing to run with {} set: unset every DM_* variable",
            set.join(", ")
        )
        .into());
    }
    if opts.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let scratch = Scratch::create(&opts.out_dir)?;
    let mut outcome = workloads::run(opts, &scratch.0)?;
    let failed_share = outcome.tally.failed as f64 / outcome.tally.attempted.max(1) as f64;
    outcome.measured.set("failed_op_share", failed_share);
    let record = RunRecord {
        workload: opts.workload.name(),
        seed: opts.seed,
        traced: opts.trace,
        quick: opts.quick,
        seconds: opts.seconds,
        rows: outcome.rows,
        rows_fingerprint: outcome.rows_fingerprint,
        keys_fingerprint: outcome.keys_fingerprint,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        exec_threads: layers::STORE_EXEC_THREADS,
        kernel: layers::kernel_name(),
        commit: first_line_of("git", &["rev-parse", "--short", "HEAD"]),
        rustc: first_line_of("rustc", &["--version"]),
        notes: outcome.notes.into_iter().collect(),
    };
    let span_totals = outcome
        .spans
        .as_ref()
        .map(|spans| spans.totals())
        .unwrap_or_default();
    let result = RunResult::assemble(&outcome.measured, outcome.tally, span_totals, record)?;
    let name = opts.workload.name();
    if let Some(spans) = &outcome.spans {
        spans.write_json(&opts.out_dir.join(format!("trace-{name}.json")))?;
    }
    std::fs::write(
        opts.out_dir.join(format!("result-{name}.json")),
        result.full_json(),
    )?;
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_product_variables_stop_a_run() {
        let names = [
            "PATH",
            "DM_OBS",
            "CARGO_TARGET_DIR",
            "DM_NN_KERNEL",
            "ADM_X",
        ];
        let set = product_variables(names.into_iter().map(String::from));
        assert_eq!(set, ["DM_OBS", "DM_NN_KERNEL"]);
    }
}
