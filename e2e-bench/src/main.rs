//! `e2e`: the end-to-end benchmark.
//!
//! ```text
//! e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--spans PATH] [--smoke]
//! e2e [--workload all] [--reps N] [--seed N] [--seconds S] [--out PATH] [--smoke]
//! ```
//!
//! The first form runs one workload and prints, as its last stdout line,
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! untraced, the per-layer metrics with `--trace 1`. The second runs every
//! workload `--reps` times (default 3) in child processes, interleaved,
//! plus one traced run each, and prints medians and quartiles.
//! `e2e ready` and `e2e serve-daemon` are the set-up probe and the daemon
//! the benchmark spawns.

use std::path::PathBuf;
use std::process::ExitCode;

use symcosim_e2e_bench::daemon::daemon_main;
use symcosim_e2e_bench::harness::{run_all, HarnessOptions};
use symcosim_e2e_bench::run::{ready_main, run, Options};
use symcosim_e2e_bench::workload::{Workload, NAMES};

/// Measured seconds per run unless `--seconds` says otherwise.
const DEFAULT_SECONDS: f64 = 15.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    reps: Option<usize>,
    spans: Option<PathBuf>,
    out: Option<PathBuf>,
    smoke: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: "all".to_string(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        reps: None,
        spans: None,
        out: None,
        smoke: false,
    };
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            parsed.smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |what: &str| format!("{flag} takes {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => parsed.workload = value,
            "--seed" => parsed.seed = value.parse().map_err(|_| number("an integer"))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| number("a number"))?;
                if !(parsed.seconds >= 0.0 && parsed.seconds.is_finite()) {
                    return Err(number("a non-negative number"));
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(number("0 or 1")),
                }
            }
            "--reps" => parsed.reps = Some(value.parse().map_err(|_| number("an integer"))?),
            "--spans" => parsed.spans = Some(PathBuf::from(value)),
            "--out" => parsed.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|arg| arg == "serve-daemon") {
        return daemon_main();
    }
    let ready = args.first().is_some_and(|arg| arg == "ready");
    if ready {
        args.remove(0);
    }
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("e2e: cannot locate the benchmark executable");
        return ExitCode::FAILURE;
    };
    let args = match parse(args.into_iter()) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("e2e: {message}");
            return ExitCode::from(2);
        }
    };
    if ready {
        return ready_main(&exe, &args.workload, args.smoke);
    }

    if args.workload == "all" || args.reps.is_some() {
        let workloads = if args.workload == "all" {
            NAMES.iter().map(ToString::to_string).collect()
        } else {
            vec![args.workload.clone()]
        };
        let opts = HarnessOptions {
            workloads,
            reps: args.reps.unwrap_or(3),
            seed: args.seed,
            seconds: args.seconds,
            smoke: args.smoke,
        };
        return match run_all(&exe, &opts, args.out.as_deref()) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(message) => {
                eprintln!("e2e: {message}");
                ExitCode::FAILURE
            }
        };
    }

    let spans = args.trace.then(|| {
        args.spans.clone().unwrap_or_else(|| {
            PathBuf::from(format!(
                ".bench_out/spans-{}-{}.jsonl",
                args.workload, args.seed
            ))
        })
    });
    let opts = Options {
        seconds: args.seconds,
        trace: args.trace,
        spans,
    };
    let result = Workload::new(&args.workload, args.seed, args.smoke)
        .and_then(|workload| run(&exe, &workload, &opts));
    match result {
        Ok(result) => {
            println!("{}", result.to_json_line());
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("e2e: {message}");
            ExitCode::FAILURE
        }
    }
}
