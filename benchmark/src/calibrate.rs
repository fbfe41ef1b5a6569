//! `--calibrate`: how steady is the benchmark on one commit?
//!
//! Runs every workload `runs` times in each of two sets, a fresh process and a
//! fresh seed per run, alternating the order of the workloads.  Prints the
//! quartiles of every end-to-end metric per set, derives the regression bound
//! from the spread, and fails if the two sets disagree by more than it.

use crate::layers::Result;
use crate::report::{value_in_line, END_TO_END};
use crate::stats::{quartiles, relative_iqr};
use crate::workloads::Workload;
use std::collections::BTreeMap;
use std::process::Command;

const SETS: usize = 2;
/// A bound is never tighter than this, however steady the runs were.
const BOUND_FLOOR: f64 = 0.05;
/// The issue's cap: a metric that needs more than this is fixed by resizing the
/// workload, not by loosening the bound.
const BOUND_CAP: f64 = 0.10;

pub fn calibrate(runs: usize, seconds: u64, quick: bool) -> Result<bool> {
    let exe = std::env::current_exe()?;
    // values[(workload, metric)][set] = one value per run
    let mut values: BTreeMap<(&str, &str), [Vec<f64>; SETS]> = BTreeMap::new();
    for set in 0..SETS {
        for run in 0..runs {
            let seed = 1 + (set * runs + run) as u64;
            let mut order = Workload::ALL;
            if run % 2 == 1 {
                order.reverse();
            }
            for workload in order {
                let mut command = Command::new(&exe);
                command.args(["--workload", workload.name(), "--trace", "0"]);
                command.args([
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                ]);
                if quick {
                    command.arg("--quick");
                }
                let output = command.stderr(std::process::Stdio::null()).output()?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                let line = stdout.lines().last().unwrap_or_default();
                if !output.status.success() {
                    return Err(format!("{} seed {seed} failed: {line}", workload.name()).into());
                }
                eprintln!(
                    "set {} run {} {} seed {seed}: {line}",
                    set + 1,
                    run + 1,
                    workload.name()
                );
                for metric in END_TO_END {
                    let value = value_in_line(line, metric.name)
                        .ok_or_else(|| format!("{} missing from {line}", metric.name))?;
                    values.entry((workload.name(), metric.name)).or_default()[set].push(value);
                }
            }
        }
    }

    println!("| workload | metric | set 1 q1 / median / q3 | IQR | set 2 q1 / median / q3 | IQR | shift | bound |");
    println!("|---|---|---|---|---|---|---|---|");
    let mut agreed = true;
    for workload in Workload::ALL {
        for metric in END_TO_END {
            let sets = &values[&(workload.name(), metric.name)];
            let spread = relative_iqr(&sets[0]).max(relative_iqr(&sets[1]));
            let bound = (2.0 * spread).max(BOUND_FLOOR);
            let [first, second] = [quartiles(&sets[0]), quartiles(&sets[1])];
            // How much worse the second set's median is than the first's.
            let worse = match metric.better {
                "lower" => second[1] / first[1] - 1.0,
                _ => 1.0 - second[1] / first[1],
            };
            let verdict = if worse > bound {
                agreed = false;
                " DISAGREE"
            } else if bound > BOUND_CAP {
                " (over the 10 % cap: resize the workload)"
            } else {
                ""
            };
            println!(
                "| {} | {} | {} | {:.2} % | {} | {:.2} % | {:+.2} % | {:.1} %{verdict} |",
                workload.name(),
                metric.name,
                show(first),
                100.0 * relative_iqr(&sets[0]),
                show(second),
                100.0 * relative_iqr(&sets[1]),
                100.0 * worse,
                100.0 * bound,
            );
        }
    }
    Ok(agreed)
}

fn show(quartiles: [f64; 3]) -> String {
    let digits = |v: f64| match v {
        v if v >= 1000.0 => format!("{v:.0}"),
        v if v >= 1.0 => format!("{v:.3}"),
        v => format!("{v:.5}"),
    };
    quartiles.map(digits).join(" / ")
}
