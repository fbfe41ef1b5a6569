//! Command line of the benchmark.  See `README.md` for the workloads.

use dm_benchmark::workloads::Workload;
use dm_benchmark::{calibrate, host, Options};
use std::process::ExitCode;

const USAGE: &str = "\
usage: dm-benchmark --workload <mem_mixed|cold_mixed|write_mix|serve_model> --seed <n>
                    [--seconds <n>] [--trace [0|1]] [--quick]
       dm-benchmark --calibrate [--runs <n>] [--seconds <n>] [--quick]
       dm-benchmark --ticks";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    calibrate: bool,
    ticks: bool,
    runs: usize,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
        quick: false,
        calibrate: false,
        ticks: false,
        runs: 5,
    };
    let mut rest = args.iter().peekable();
    while let Some(flag) = rest.next() {
        let mut number = |what: &str| -> Result<u64, String> {
            let value = rest.next().ok_or(format!("{what} needs a value"))?;
            value
                .parse()
                .map_err(|_| format!("{what}: {value} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = rest.next().ok_or("--workload needs a name")?;
                parsed.workload =
                    Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => parsed.seed = number("--seed")?,
            "--seconds" => parsed.seconds = number("--seconds")?,
            "--runs" => parsed.runs = number("--runs")? as usize,
            "--trace" => {
                // `--trace 0|1` from the driver, a bare `--trace` by hand.
                parsed.trace = match rest.peek().map(|next| next.as_str()) {
                    Some("0") => {
                        rest.next();
                        false
                    }
                    Some("1") => {
                        rest.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => parsed.quick = true,
            "--calibrate" => parsed.calibrate = true,
            "--ticks" => parsed.ticks = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.ticks {
        // The constants of `host.rs`, for a machine other than the sandbox.
        let lowest = |tick: fn() -> u64| (0..20_000).map(|_| tick()).min().unwrap_or(0);
        println!(
            "lowest of 20000 ticks: light {} ns, heavy {} ns",
            lowest(host::light_tick),
            lowest(host::heavy_tick)
        );
        return ExitCode::SUCCESS;
    }
    if args.calibrate {
        return match calibrate::calibrate(args.runs.max(2), args.seconds, args.quick) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => {
                eprintln!("the two sets disagree by more than the bound");
                ExitCode::FAILURE
            }
            Err(error) => {
                eprintln!("calibration failed: {error}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(workload) = args.workload else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let mut options = Options::new(workload, args.seed);
    options.seconds = args.seconds;
    options.trace = args.trace;
    options.quick = args.quick;
    match dm_benchmark::run(&options) {
        Ok(result) => {
            eprint!("{}", result.human());
            println!("{}", result.result_line());
            if result.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(error) => {
            eprintln!("{} failed: {error}", workload.name());
            ExitCode::FAILURE
        }
    }
}
