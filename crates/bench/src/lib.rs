//! Benchmark harnesses and table-regeneration binaries.
//!
//! Binaries (each regenerates one artefact of the paper's evaluation):
//!
//! * `table1` — the catalogue of MicroRV32/VP errors and mismatches
//!   (Table I),
//! * `table2` — the injected-error performance evaluation, instruction
//!   limits 1 and 2 (Table II),
//! * `longrun` — the exemplary unrestricted exploration of Section V-A
//!   (paths, partial paths, generated test vectors),
//! * `ablation` — the sliced-symbolic-registers ablation behind the
//!   "a non-optimised symbolic execution requires more than 30 days"
//!   claim,
//! * `solver` — the solver chain, incremental solving and the forced
//!   branch check, each on against off (`BENCH_solver.json`).
//!
//! Micro-benchmarks live in `benches/` (std-only harnesses built on
//! `symcosim-testkit`) and cover the engine and co-simulation building
//! blocks plus the fuzzing comparison. `table1`, `table2` and `longrun`
//! accept `--jobs N` for parallel exploration and `--progress-json` for
//! structured progress events ([`RunOpts`]); `ablation` and `solver` run
//! sequentially and ignore both flags.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;
use std::sync::mpsc;
use std::thread;

use symcosim_core::{ProgressEvent, VerifyReport, VerifySession};

/// Schema identifier of the `BENCH_*.json` documents the benchmark bins
/// emit. Every document opens with the shared
/// [`json::header`](symcosim_core::json::header) fields (`schema`,
/// `tool`, `version`) followed by a `bench` name.
pub const BENCH_SCHEMA: &str = "symcosim-bench/1";

/// Parallelism options the table bins share: `--jobs N` selects the
/// worker count (default 1, the sequential engine) and `--progress-json`
/// streams one structured progress event per line on stderr.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    /// Worker threads; 1 runs the classic sequential engine.
    pub jobs: usize,
    /// Stream JSON progress events on stderr.
    pub progress_json: bool,
}

impl RunOpts {
    /// Parses the options from the process arguments (unknown arguments
    /// are ignored so bins can layer their own flags on top).
    pub fn from_args() -> RunOpts {
        let args: Vec<String> = std::env::args().collect();
        let jobs = args
            .iter()
            .position(|a| a == "--jobs")
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(1);
        RunOpts {
            jobs: usize::max(jobs, 1),
            progress_json: args.iter().any(|a| a == "--progress-json"),
        }
    }
}

/// Runs a session honouring [`RunOpts`]: sequentially for `--jobs 1`
/// without progress, on worker threads otherwise. The merged report is
/// the same either way for frontier-drained configurations.
pub fn run_session(session: VerifySession, opts: RunOpts) -> VerifyReport {
    if opts.jobs <= 1 && !opts.progress_json {
        return session.run();
    }
    if !opts.progress_json {
        return session.run_parallel(opts.jobs);
    }
    let (sender, receiver) = mpsc::channel::<ProgressEvent>();
    let printer = thread::spawn(move || {
        for event in receiver {
            eprintln!("{}", event.to_json());
        }
    });
    let report = session.run_parallel_with_progress(opts.jobs, Some(sender));
    let _ = printer.join();
    report
}

/// Formats a `std::time::Duration` the way the tables print it (seconds).
pub fn fmt_secs(duration: std::time::Duration) -> String {
    format!("{:.2}", duration.as_secs_f64())
}

/// Where a bench bin writes its `BENCH_*.json` document: `--out PATH`
/// when given; otherwise `file_name` in the working directory for a full
/// run, or in [`std::env::temp_dir`] for a `--smoke` run, so a smoke run
/// never overwrites the committed full-run document.
pub fn bench_out_path(args: &[String], file_name: &str, smoke: bool) -> PathBuf {
    match args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
    {
        Some(path) => PathBuf::from(path),
        None if smoke => std::env::temp_dir().join(file_name),
        None => PathBuf::from(file_name),
    }
}

/// Median of a slice (the tables report medians like the paper does):
/// the middle value, or the mean of the two middle values of an
/// even-length slice.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &mut [u64]) -> f64 {
    assert!(!values.is_empty(), "median of empty slice");
    values.sort_unstable();
    let upper = values.len() / 2;
    if values.len() % 2 == 1 {
        values[upper] as f64
    } else {
        (values[upper - 1] as f64 + values[upper] as f64) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&mut [3, 1, 2]), 2.0);
        assert_eq!(median(&mut [4, 1, 2, 3]), 2.5);
    }

    #[test]
    fn smoke_output_defaults_to_the_temp_dir() {
        let args = |list: &[&str]| list.iter().map(ToString::to_string).collect::<Vec<_>>();
        assert_eq!(
            bench_out_path(&args(&["bin", "--smoke"]), "BENCH_x.json", true),
            std::env::temp_dir().join("BENCH_x.json")
        );
        assert_eq!(
            bench_out_path(&args(&["bin"]), "BENCH_x.json", false),
            PathBuf::from("BENCH_x.json")
        );
        assert_eq!(
            bench_out_path(
                &args(&["bin", "--smoke", "--out", "o.json"]),
                "BENCH_x.json",
                true
            ),
            PathBuf::from("o.json")
        );
    }

    #[test]
    fn seconds_format() {
        assert_eq!(fmt_secs(std::time::Duration::from_millis(1500)), "1.50");
    }
}
