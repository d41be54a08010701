//! The `symcosim` command-line driver.
//!
//! ```text
//! symcosim-cli verify [--full] [--limit N] [--paths N] [--window N]
//!                     [--audit] [--audit-json PATH]
//! symcosim-cli inject <E0..E9> [--limit N] [--fuzz | --hybrid]
//! symcosim-cli fuzz [--runs N] [--coverage] [--inject Ek]
//! symcosim asm  (assembles stdin to hex words)
//! ```

use std::error::Error;
use std::io::{ErrorKind, IsTerminal, Read, Write};

use symcosim_core::fuzz::{self, FuzzConfig};
use symcosim_core::{
    merge_slice_coverage, project_domain, AuditDump, Certificate, CoverageSlice, EngineKind,
    InstrConstraint, ProgressEvent, SessionConfig, VerifyReport, VerifySession,
};
use symcosim_isa::pattern::partition_universe;
use symcosim_microrv32::InjectedError;

const USAGE: &str = "\
symcosim — symbolic co-simulation for RISC-V processor verification

USAGE:
    symcosim-cli verify [--full] [--limit N] [--paths N] [--window N]
                        [--jobs N] [--seed N] [--engine fork|reexec] [--lint]
                        [--opcode HEX] [--certify] [--slices N]
                        [--report-json PATH] [--no-solver-chain]
                        [--no-incremental] [--no-preflight] [--no-merge]
                        [--audit] [--audit-json PATH]
        Verify the shipped MicroRV32 against the shipped VP ISS and print
        the classified findings. --full allows CSR instructions (default);
        pass --rv32i-only to block them. --window sets the number of
        symbolic registers (default 2). --jobs explores paths on N worker
        threads (same report, any N); --seed seeds randomised search.
        --engine selects the path engine: fork (default) resumes sibling
        paths from copy-on-write snapshots, reexec replays each decision
        prefix from the root — both produce the identical report.
        --lint runs the symbolic-IR well-formedness pass over every path
        and appends the issues to the report.
        --opcode restricts generation to one major opcode (hex, e.g. 0x63).
        --certify projects every path onto the instruction space and
        audits the run in-process: the certificate proves the explored
        paths partition the legal decode space (exit code 1 if they do
        not). --report-json dumps the machine-readable symcosim-report/1
        document (including the coverage section `symcosim-lint
        --coverage` re-certifies) to PATH; both flags imply coverage
        collection. --slices N (requires --certify) shards the decode
        space into N cube-disjoint slices, verifies each in its own
        session and certifies the merged coverage — the printed
        certificate is byte-identical to the unsliced run's (the
        symcosim-serve daemon distributes the same shards across
        processes). --no-solver-chain bypasses the KLEE-style solver
        chain (independence slicing, counterexample and model caches) —
        the report is identical, only slower; for benchmarking.
        --no-incremental makes every SAT query restart from an empty
        trail instead of reusing the established assumption prefix —
        again identical, only slower; for benchmarking.
        --no-preflight disables the chain's abstract-interpretation
        preflight, so statically-forced queries reach the caches and
        solver again — identical report, only slower; for benchmarking.
        --no-merge disables veritesting-style state merging in the fork
        engine, so decode siblings that rejoin at the post-instruction
        state are explored as separate physical paths — the report and
        certificate are byte-identical, only slower; for benchmarking.
        --audit turns on proof-carrying solving: the SAT solver logs
        clausal (RUP) proofs and an independent checker certifies every
        answer — models by evaluation, UNSAT cores by conflict-cone
        replay. The report and certificate are byte-identical with and
        without it; a rejected answer exits 1. --audit-json dumps the
        retained replay units as a symcosim-audit/1 document that
        `symcosim-lint --audit` re-verifies offline (implies --audit).

    symcosim-cli inject <E0..E9> [--limit N] [--jobs N] [--seed N]
                        [--engine fork|reexec] [--fuzz] [--hybrid]
                        [--no-solver-chain] [--no-incremental]
                        [--no-preflight] [--no-merge]
        Seed one of the paper's Table II faults into the core and hunt it
        symbolically (default), by fuzzing (--fuzz), or hybrid (--hybrid).

    symcosim-cli fuzz [--runs N] [--seed N] [--coverage] [--inject Ek]
        Run the concrete fuzzing baseline against corrected models.

    symcosim-cli asm
        Assemble RV32I+Zicsr text from stdin, print one hex word per line.
";

/// `print!` that hands a failed write back to the caller instead of
/// panicking, so a reader closing the pipe early ends the run through
/// [`main`]'s broken-pipe arm.
macro_rules! out {
    ($($arg:tt)*) => {
        write!(std::io::stdout(), $($arg)*)
    };
}

/// `println!` counterpart of [`out!`].
macro_rules! outln {
    ($($arg:tt)*) => {
        writeln!(std::io::stdout(), $($arg)*)
    };
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(&args) {
        Ok(()) => 0,
        // The reader hung up (`symcosim-cli inject E6 | head -1`): it
        // wants no more output, which is not a failure.
        Err(error) if is_broken_pipe(error.as_ref()) => 0,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

fn is_broken_pipe(error: &(dyn Error + 'static)) -> bool {
    error
        .downcast_ref::<std::io::Error>()
        .is_some_and(|e| e.kind() == ErrorKind::BrokenPipe)
}

fn run(args: &[String]) -> Result<(), Box<dyn Error>> {
    match args.first().map(String::as_str) {
        Some("verify") => cmd_verify(&args[1..])?,
        Some("inject") => cmd_inject(&args[1..])?,
        Some("fuzz") => cmd_fuzz(&args[1..])?,
        Some("asm") => cmd_asm()?,
        Some("--help" | "-h" | "help") | None => outln!("{USAGE}")?,
        Some(other) => return Err(format!("unknown subcommand {other:?}").into()),
    }
    std::io::stdout().flush()?;
    Ok(())
}

fn flag_value(args: &[String], flag: &str) -> Result<Option<u64>, Box<dyn Error>> {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        let value = args
            .get(pos + 1)
            .ok_or_else(|| format!("{flag} expects a value"))?;
        return Ok(Some(value.parse()?));
    }
    Ok(None)
}

fn flag_string(args: &[String], flag: &str) -> Result<Option<String>, Box<dyn Error>> {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        let value = args
            .get(pos + 1)
            .ok_or_else(|| format!("{flag} expects a value"))?;
        return Ok(Some(value.clone()));
    }
    Ok(None)
}

fn flag_engine(args: &[String]) -> Result<Option<EngineKind>, Box<dyn Error>> {
    if let Some(pos) = args.iter().position(|a| a == "--engine") {
        let value = args.get(pos + 1).ok_or("--engine expects a value")?;
        let kind = EngineKind::parse(value)
            .ok_or_else(|| format!("unknown engine {value:?} (expected fork or reexec)"))?;
        return Ok(Some(kind));
    }
    Ok(None)
}

/// Runs the session sequentially or, with `--jobs` ≥ 2, on worker threads
/// with a live status line on stderr (when stderr is a terminal).
fn run_session(session: VerifySession, jobs: usize) -> VerifyReport {
    if jobs <= 1 {
        return session.run();
    }
    if !std::io::stderr().is_terminal() {
        return session.run_parallel(jobs);
    }
    let (sender, receiver) = std::sync::mpsc::channel();
    let printer = std::thread::spawn(move || {
        for event in receiver {
            match event {
                ProgressEvent::PathDone {
                    paths_done,
                    queued,
                    elapsed_ms,
                    ..
                } => eprint!(
                    "\r[{:>5}.{}s] {paths_done} paths explored, {queued} queued    ",
                    elapsed_ms / 1000,
                    elapsed_ms % 1000 / 100
                ),
                ProgressEvent::Finished { .. } => eprint!("\r{:64}\r", ""),
                _ => {}
            }
        }
    });
    let report = session.run_parallel_with_progress(jobs, Some(sender));
    let _ = printer.join();
    report
}

fn parse_error(token: &str) -> Result<InjectedError, Box<dyn Error>> {
    InjectedError::ALL
        .into_iter()
        .find(|e| e.id().eq_ignore_ascii_case(token))
        .ok_or_else(|| format!("unknown error id {token:?} (expected E0..E9)").into())
}

fn cmd_verify(args: &[String]) -> Result<(), Box<dyn Error>> {
    let mut config = SessionConfig::table1();
    if args.iter().any(|a| a == "--rv32i-only") {
        config.constraint = InstrConstraint::BlockSystem;
    }
    if let Some(limit) = flag_value(args, "--limit")? {
        config.instr_limit = limit as u32;
        config.cycle_limit = 64 * limit;
    }
    if let Some(paths) = flag_value(args, "--paths")? {
        config.max_paths = paths as usize;
    }
    if let Some(window) = flag_value(args, "--window")? {
        config.symbolic_regs = window as usize;
    }
    if let Some(seed) = flag_value(args, "--seed")? {
        config.seed = seed;
    }
    if args.iter().any(|a| a == "--lint") {
        config.lint_ir = true;
    }
    if let Some(engine) = flag_engine(args)? {
        config.engine = engine;
    }
    if let Some(opcode) = flag_string(args, "--opcode")? {
        let digits = opcode.strip_prefix("0x").unwrap_or(&opcode);
        let word =
            u32::from_str_radix(digits, 16).map_err(|e| format!("bad --opcode {opcode:?}: {e}"))?;
        config.constraint = InstrConstraint::OnlyOpcode(word);
    }
    if args.iter().any(|a| a == "--no-solver-chain") {
        config.solver_chain = false;
    }
    if args.iter().any(|a| a == "--no-incremental") {
        config.incremental = false;
    }
    if args.iter().any(|a| a == "--no-preflight") {
        config.preflight = false;
    }
    if args.iter().any(|a| a == "--no-merge") {
        config.merge = false;
    }
    let certify = args.iter().any(|a| a == "--certify");
    let report_json = flag_string(args, "--report-json")?;
    if certify || report_json.is_some() {
        config.collect_coverage = true;
    }
    let audit_json = flag_string(args, "--audit-json")?;
    if args.iter().any(|a| a == "--audit") || audit_json.is_some() {
        config.audit = true;
    }
    let jobs = flag_value(args, "--jobs")?.unwrap_or(1) as usize;
    let slices = flag_value(args, "--slices")?.unwrap_or(1) as usize;
    if slices > 1 {
        if !certify {
            return Err("--slices shards the coverage proof; it requires --certify".into());
        }
        if report_json.is_some() {
            return Err(
                "--slices produces per-slice reports; --report-json only fits a single run".into(),
            );
        }
        return cmd_verify_sliced(config, slices, jobs, audit_json);
    }
    let audit = config.audit;
    let report = run_session(VerifySession::new(config)?, jobs);
    out!("{report}")?;
    if let Some(path) = report_json {
        std::fs::write(&path, report.to_json())?;
        outln!("report dumped to {path}")?;
    }
    if let Some(path) = audit_json {
        let dump = AuditDump::new(report.proof_audit, report.proof_audit_units.clone());
        std::fs::write(&path, dump.to_json())?;
        outln!("audit artifact dumped to {path}")?;
    }
    if certify {
        let coverage = report
            .coverage
            .as_ref()
            .expect("--certify collects coverage");
        let mut certificate = Certificate::certify(coverage);
        if audit {
            certificate = certificate.with_proof_audit(report.proof_audit);
        }
        out!("{certificate}")?;
        if certificate.findings() > 0 {
            // Uncovered decode words or double-claimed paths: the run's
            // coverage argument does not hold.
            std::process::exit(1);
        }
    }
    if report.proof_audit_failure.is_some() {
        // An answer the solver gave could not be independently certified
        // (the report's Display already named the first rejection).
        std::process::exit(1);
    }
    Ok(())
}

/// `verify --certify --slices N`: verify each cube-disjoint decode-space
/// slice in its own session, prove the slices partition the legal domain
/// and certify the merged coverage. The certificate is byte-identical to
/// the unsliced run's.
fn cmd_verify_sliced(
    config: SessionConfig,
    slices: usize,
    jobs: usize,
    audit_json: Option<String>,
) -> Result<(), Box<dyn Error>> {
    let cubes = partition_universe(slices);
    let mut parts = Vec::with_capacity(cubes.len());
    let mut audit_stats = symcosim_core::ProofAuditStats::default();
    let mut audit_units = Vec::new();
    let mut audit_failure = None;
    for (index, cube) in cubes.iter().enumerate() {
        let mut slice_config = config.clone();
        slice_config.slice = Some(*cube);
        let mut report = run_session(VerifySession::new(slice_config)?, jobs);
        outln!(
            "slice {}/{} (mask={:08x} value={:08x}): {} paths, {} findings",
            index + 1,
            cubes.len(),
            cube.mask,
            cube.value,
            report.paths_complete + report.paths_partial,
            report.findings.len(),
        )?;
        audit_stats = audit_stats.merge(report.proof_audit);
        audit_units.append(&mut report.proof_audit_units);
        if audit_failure.is_none() {
            audit_failure = report.proof_audit_failure.clone();
        }
        parts.push(CoverageSlice {
            cube: *cube,
            data: report.coverage.expect("--certify collects coverage"),
        });
    }
    if let Some(path) = audit_json {
        let dump = AuditDump::new(audit_stats, audit_units);
        std::fs::write(&path, dump.to_json())?;
        outln!("audit artifact dumped to {path}")?;
    }
    let (domain, domain_exact) = project_domain(config.constraint, None);
    let merged = merge_slice_coverage(domain, domain_exact, &parts)
        .map_err(|error| format!("slice merge rejected: {error}"))?;
    let mut certificate = Certificate::certify(&merged);
    if config.audit {
        certificate = certificate.with_proof_audit(audit_stats);
    }
    out!("{certificate}")?;
    if let Some(failure) = audit_failure {
        outln!("proof audit FAILURE: {failure}")?;
        std::process::exit(1);
    }
    if certificate.findings() > 0 {
        std::process::exit(1);
    }
    Ok(())
}

fn cmd_inject(args: &[String]) -> Result<(), Box<dyn Error>> {
    let id = args.first().ok_or("inject expects an error id (E0..E9)")?;
    let error = parse_error(id)?;
    outln!("injected fault: {error}")?;

    if args.iter().any(|a| a == "--fuzz") {
        let mut config = FuzzConfig::rv32i_only();
        config.inject = Some(error);
        let outcome = fuzz::run_coverage_guided(&config);
        report_fuzz(&outcome)?;
        return Ok(());
    }

    let mut session = SessionConfig::rv32i_only();
    session.inject = Some(error);
    if let Some(limit) = flag_value(args, "--limit")? {
        session.instr_limit = limit as u32;
        session.cycle_limit = 64 * limit;
    }
    if let Some(seed) = flag_value(args, "--seed")? {
        session.seed = seed;
    }
    if let Some(engine) = flag_engine(args)? {
        session.engine = engine;
    }
    if args.iter().any(|a| a == "--no-solver-chain") {
        session.solver_chain = false;
    }
    if args.iter().any(|a| a == "--no-incremental") {
        session.incremental = false;
    }
    if args.iter().any(|a| a == "--no-preflight") {
        session.preflight = false;
    }
    if args.iter().any(|a| a == "--no-merge") {
        session.merge = false;
    }
    let jobs = flag_value(args, "--jobs")?.unwrap_or(1) as usize;

    if args.iter().any(|a| a == "--hybrid") {
        let mut fuzz_config = FuzzConfig::rv32i_only();
        fuzz_config.inject = Some(error);
        let outcome = fuzz::run_hybrid(&fuzz_config, session, 50_000);
        match outcome.found_by {
            Some(phase) => outln!("found by the {phase:?} phase")?,
            None => outln!("not found")?,
        }
        report_fuzz(&outcome.fuzz)?;
        if let Some(report) = outcome.report {
            out!("{report}")?;
        }
        return Ok(());
    }

    let report = run_session(VerifySession::new(session)?, jobs);
    out!("{report}")?;
    match report.first_mismatch() {
        Some(finding) => {
            if let Some(witness) = &finding.witness {
                outln!("reproducer: {witness}")?;
            }
        }
        None => outln!("fault not found within the configured budget")?,
    }
    Ok(())
}

fn cmd_fuzz(args: &[String]) -> Result<(), Box<dyn Error>> {
    let mut config = FuzzConfig::rv32i_only();
    if let Some(runs) = flag_value(args, "--runs")? {
        config.max_runs = runs;
    }
    if let Some(seed) = flag_value(args, "--seed")? {
        config.seed = seed;
    }
    if let Some(pos) = args.iter().position(|a| a == "--inject") {
        let id = args.get(pos + 1).ok_or("--inject expects an error id")?;
        config.inject = Some(parse_error(id)?);
    }
    let outcome = if args.iter().any(|a| a == "--coverage") {
        fuzz::run_coverage_guided(&config)
    } else {
        fuzz::run(&config)
    };
    report_fuzz(&outcome)?;
    Ok(())
}

fn report_fuzz(outcome: &fuzz::FuzzOutcome) -> std::io::Result<()> {
    match &outcome.mismatch {
        Some(mismatch) => outln!(
            "mismatch after {} runs ({} instructions, {:.2?}): {mismatch}",
            outcome.runs,
            outcome.instructions,
            outcome.duration
        )?,
        None => outln!(
            "no mismatch in {} runs ({} instructions, {:.2?})",
            outcome.runs,
            outcome.instructions,
            outcome.duration
        )?,
    }
    Ok(())
}

fn cmd_asm() -> Result<(), Box<dyn Error>> {
    let mut source = String::new();
    std::io::stdin().read_to_string(&mut source)?;
    let words = symcosim_isa::asm::assemble(&source)?;
    for word in words {
        outln!("{word:08x}")?;
    }
    Ok(())
}
