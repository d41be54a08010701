//! Regenerates the exemplary comprehensive exploration of Section V-A:
//! an unrestricted (here: path-budgeted) run over the full RV32I+Zicsr
//! space against the shipped models, reporting completely and partially
//! explored paths, executed instructions and generated test vectors.
//!
//! The paper's run executed ~1.0e8 instructions over 6.8 days and explored
//! 848 complete plus 408 partial paths, generating 1256 test vectors; this
//! binary reproduces the *shape* (hundreds of paths, a complete/partial
//! split dominated by mismatch and limit terminations, one test vector per
//! path) at laptop scale.
//!
//! Run with: `cargo run --release -p symcosim-bench --bin longrun`
//! Optional: `--jobs N` explores on N worker threads (note the path
//! budget makes truncated runs scheduling-dependent: the *set* of paths
//! inside the budget varies, each path's result does not) and
//! `--progress-json` streams structured progress events on stderr.

use std::time::Instant;

use symcosim_bench::{run_session, RunOpts};
use symcosim_core::{SessionConfig, VerifySession};

fn main() {
    let opts = RunOpts::from_args();
    let budget: usize = std::env::args()
        .skip_while(|a| a != "--paths")
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(600);

    let mut config = SessionConfig::table1();
    config.instr_limit = 2;
    config.cycle_limit = 128;
    config.max_paths = budget;

    println!("comprehensive exploration (instruction limit 2, path budget {budget})\n");
    let start = Instant::now();
    let report = run_session(
        VerifySession::new(config).expect("valid configuration"),
        opts,
    );
    let elapsed = start.elapsed();

    println!(
        "runtime                     : {} s",
        symcosim_bench::fmt_secs(elapsed)
    );
    println!(
        "executed instructions       : {}",
        report.instructions_executed
    );
    println!("core clock cycles           : {}", report.cycles);
    println!("paths explored completely   : {}", report.paths_complete);
    println!("paths explored partially    : {}", report.paths_partial);
    println!("test vectors generated      : {}", report.test_vectors);
    println!("unique findings             : {}", report.findings.len());
    println!("exploration truncated       : {}", report.truncated);
    println!();
    for finding in &report.findings {
        println!("  {finding}");
    }
}
