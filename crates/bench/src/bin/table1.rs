//! Regenerates Table I: co-simulation results on the shipped MicroRV32
//! and RISC-V VP — every error (E), ISS error (E*) and implementation
//! mismatch (M), with a triggering example instruction.
//!
//! The catalogue is assembled from two explorations, mirroring how the
//! paper's findings accumulate over a long-running campaign:
//!
//! 1. the full RV32I+Zicsr space with instruction limit 1 (all findings
//!    observable within a single instruction), and
//! 2. a targeted sweep over the CSRs the VP implements beyond MicroRV32
//!    with instruction limit 2, surfacing the write-then-read mismatches
//!    (`mscratch`, `mcounteren`, the HPM ranges).
//!
//! Run with: `cargo run --release -p symcosim-bench --bin table1`
//! Optional: `--jobs N` explores each phase on N worker threads
//! (identical catalogue, shorter wall-clock on multi-core hosts) and
//! `--progress-json` streams structured progress events on stderr.

use std::time::Instant;

use symcosim_bench::{run_session, RunOpts};
use symcosim_core::{
    Finding, FindingClass, InstrConstraint, SessionConfig, VerifyReport, VerifySession,
};

fn run_phase(config: SessionConfig, opts: RunOpts) -> VerifyReport {
    run_session(
        VerifySession::new(config).expect("valid configuration"),
        opts,
    )
}

fn main() {
    let opts = RunOpts::from_args();
    let start = Instant::now();

    // Phase 1: full instruction space, one instruction per path.
    let phase1 = run_phase(SessionConfig::table1(), opts);

    // Phase 2: extended-CSR space, two instructions per path.
    let mut config = SessionConfig::table1();
    config.instr_limit = 2;
    config.cycle_limit = 128;
    config.constraint = InstrConstraint::ExtendedCsrOnly;
    let phase2 = run_phase(config, opts);

    let elapsed = start.elapsed();

    let mut findings: Vec<Finding> = Vec::new();
    for finding in phase1.findings.iter().chain(&phase2.findings) {
        if !findings
            .iter()
            .any(|f| f.dedup_key() == finding.dedup_key())
        {
            findings.push(finding.clone());
        }
    }

    println!("Table I — co-simulation results (R): errors (E) and mismatches (M)");
    println!("DUT: MicroRV32 (shipped behaviours), reference: RISC-V VP ISS (shipped)\n");
    println!(
        "{:<18} | {:<34} | {:<36} | R",
        "Instruction & CSR", "Example", "Description"
    );
    println!("{}", "-".repeat(100));
    for finding in &findings {
        println!(
            "{:<18} | {:<34} | {:<36} | {}",
            finding.subject,
            finding.example.as_deref().unwrap_or("-"),
            finding.label,
            finding.class,
        );
    }

    let count = |class: FindingClass| findings.iter().filter(|f| f.class == class).count();
    println!("{}", "-".repeat(100));
    println!(
        "{} findings: {} RTL errors (E), {} ISS errors (E*), {} mismatches (M)",
        findings.len(),
        count(FindingClass::RtlError),
        count(FindingClass::IssError),
        count(FindingClass::ImplMismatch),
    );
    println!(
        "exploration: {} paths ({} complete, {} partial), {} executed instructions, \
         {} test vectors, {} s",
        phase1.total_paths() + phase2.total_paths(),
        phase1.paths_complete + phase2.paths_complete,
        phase1.paths_partial + phase2.paths_partial,
        phase1.instructions_executed + phase2.instructions_executed,
        phase1.test_vectors + phase2.test_vectors,
        symcosim_bench::fmt_secs(elapsed),
    );
}
