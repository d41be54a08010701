//! Regenerates Table II: for every injected error E0–E9 and instruction
//! limits 1 and 2, whether the symbolic co-simulation finds it, plus the
//! executed instructions, time, partial paths and completed paths.
//!
//! Run with: `cargo run --release -p symcosim-bench --bin table2`
//! Optional: `--jobs N` explores each error's paths on N worker threads
//! (identical results, shorter wall-clock on multi-core hosts) and
//! `--progress-json` streams structured progress events on stderr.

use std::time::Instant;

use symcosim_bench::{fmt_secs, median, run_session, RunOpts};
use symcosim_core::{SessionConfig, VerifySession};
use symcosim_microrv32::InjectedError;

struct Row {
    found: bool,
    instructions: u64,
    millis: u64,
    partial: usize,
    complete: usize,
}

fn run_one(error: InjectedError, instr_limit: u32, opts: RunOpts) -> Row {
    let mut config = SessionConfig::rv32i_only();
    config.inject = Some(error);
    config.instr_limit = instr_limit;
    config.cycle_limit = 64 * instr_limit as u64;
    if instr_limit > 1 {
        // Depth-first search degenerates at higher instruction limits: it
        // exhausts the full second-instruction subtree of every early
        // first-instruction class before reaching later opcodes (the
        // paper's limit-2 runs show the same blow-up, up to 22k seconds).
        // Breadth-first scheduling reaches every opcode class early while
        // preserving completeness.
        config.strategy = symcosim_symex::SearchStrategy::Bfs;
    }
    let start = Instant::now();
    let session = VerifySession::new(config).expect("valid configuration");
    let report = run_session(session, opts);
    Row {
        found: report.first_mismatch().is_some(),
        instructions: report.instructions_executed,
        millis: start.elapsed().as_millis() as u64,
        partial: report.paths_partial,
        complete: report.paths_complete,
    }
}

fn main() {
    let opts = RunOpts::from_args();
    println!("Table II — injected error results (RV32I only, CSR instructions blocked)\n");
    println!(
        "{:<6} | {:^44} | {:^44}",
        "", "Instruction Limit: 1", "Instruction Limit: 2"
    );
    println!(
        "{:<6} | {:>6} {:>12} {:>8} {:>7} {:>6} | {:>6} {:>12} {:>8} {:>7} {:>6}",
        "Error",
        "Result",
        "#Exec.Instr.",
        "Time[s]",
        "Partial",
        "Paths",
        "Result",
        "#Exec.Instr.",
        "Time[s]",
        "Partial",
        "Paths"
    );
    println!("{}", "-".repeat(110));

    let mut sums = [[0u64; 4]; 2];
    let mut all_found = [true; 2];
    let mut instr_series = [Vec::new(), Vec::new()];
    let mut time_series = [Vec::new(), Vec::new()];
    let mut partial_series = [Vec::new(), Vec::new()];
    let mut path_series = [Vec::new(), Vec::new()];

    for error in InjectedError::ALL {
        let rows = [run_one(error, 1, opts), run_one(error, 2, opts)];
        print!("{:<6}", error.id());
        for (i, row) in rows.iter().enumerate() {
            print!(
                " | {:>6} {:>12} {:>8} {:>7} {:>6}",
                if row.found { "yes" } else { "no" },
                row.instructions,
                fmt_secs(std::time::Duration::from_millis(row.millis)),
                row.partial,
                row.complete,
            );
            sums[i][0] += row.instructions;
            sums[i][1] += row.millis;
            sums[i][2] += row.partial as u64;
            sums[i][3] += row.complete as u64;
            all_found[i] &= row.found;
            instr_series[i].push(row.instructions);
            time_series[i].push(row.millis);
            partial_series[i].push(row.partial as u64);
            path_series[i].push(row.complete as u64);
        }
        println!();
    }

    println!("{}", "-".repeat(110));
    print!("Sum:  ");
    for (i, sums) in sums.iter().enumerate() {
        print!(
            " | {:>6} {:>12} {:>8} {:>7} {:>6}",
            if all_found[i] { "10 yes" } else { "!" },
            sums[0],
            fmt_secs(std::time::Duration::from_millis(sums[1])),
            sums[2],
            sums[3],
        );
    }
    println!();
    print!("Median");
    for i in 0..2 {
        print!(
            " | {:>6} {:>12} {:>8} {:>7} {:>6}",
            "",
            median(&mut instr_series[i]),
            fmt_secs(std::time::Duration::from_secs_f64(
                median(&mut time_series[i]) / 1000.0
            )),
            median(&mut partial_series[i]),
            median(&mut path_series[i]),
        );
    }
    println!();
    let verdict = |holds: bool| if holds { "holds" } else { "FAILS" };
    println!("\nShape checks vs the paper:");
    println!(
        "  every error found under both limits: {}",
        verdict(all_found[0] && all_found[1])
    );
    println!(
        "  limit 1 is cheaper than limit 2 in total time ({} s vs {} s): {}",
        fmt_secs(std::time::Duration::from_millis(sums[0][1])),
        fmt_secs(std::time::Duration::from_millis(sums[1][1])),
        verdict(sums[0][1] < sums[1][1])
    );
}
