//! The top-level verification session.

use std::collections::HashSet;
use std::error::Error;
use std::fmt;
use std::sync::mpsc::Sender;
use std::time::{Duration, Instant};

use symcosim_exec::{explore_parallel_fork, ExecConfig, ProgressEvent};
use symcosim_isa::{opcodes, Pattern};
use symcosim_iss::IssConfig;
use symcosim_microrv32::{CoreConfig, InjectedError};
use symcosim_symex::{
    ChainSeed, CoreReplayUnit, Domain, EngineConfig, FnTask, ForkEngine, ForkExec, ForkJob,
    ForkTask, PathResult, PathStatus, ProofAuditStats, QueryCacheStats, SearchStrategy,
    SlotCoverage, SolverChainStats, SolverStats, StepResult, TestVector,
};

use crate::certify::{self, BoundCause, CoverageData, PathCoverage};
use crate::cosim::{CoSim, CosimResult, StopReason};
use crate::report::{classify, Finding, VerifyReport};
use crate::voter::{Mismatch, SymbolicJudge};
use crate::SymbolicInstrMemory;

/// Constraint on generated instructions (the `klee_assume` hook).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InstrConstraint {
    /// Fully symbolic 32-bit words.
    #[default]
    None,
    /// Block the SYSTEM major opcode (CSR instructions, `ECALL`, `WFI`, …)
    /// — the paper's Table II configuration that filters the known CSR
    /// findings and restricts generation to RV32I.
    BlockSystem,
    /// Restrict generation to one major opcode (targeted exploration).
    OnlyOpcode(u32),
    /// Restrict generation to Zicsr instructions addressing the CSRs the
    /// VP implements *beyond* MicroRV32 (`mscratch`, `mcounteren`, the HPM
    /// ranges, the unprivileged counters, and the machine counters).
    /// Used with an instruction limit of 2 to surface the write-then-read
    /// mismatches of Table I without exploring the full squared space.
    ExtendedCsrOnly,
}

/// Configuration of a [`VerifySession`].
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// DUT behaviour switches.
    pub core_config: CoreConfig,
    /// Reference-model behaviour switches.
    pub iss_config: IssConfig,
    /// Optional seeded fault (Table II).
    pub inject: Option<InjectedError>,
    /// Instructions per path (the paper uses 1 and 2).
    pub instr_limit: u32,
    /// Core clock cycles per path (execution controller backstop).
    pub cycle_limit: u64,
    /// Width of the sliced symbolic register window (the paper argues 2
    /// suffices for RV32I: no instruction has more than two source
    /// registers).
    pub symbolic_regs: usize,
    /// Data memory size in 32-bit words (power of two).
    pub dmem_words: usize,
    /// Instruction generation constraint.
    pub constraint: InstrConstraint,
    /// Maximum number of explored paths.
    pub max_paths: usize,
    /// Maximum symbolic decisions per path before the path is culled
    /// (KLEE-style resource kill; counted as a partial path).
    pub max_decisions_per_path: usize,
    /// Frontier discipline.
    pub strategy: SearchStrategy,
    /// Count a test vector per path that did not end infeasible (KLEE's
    /// test-case generation): such a path's condition is satisfiable by
    /// construction, so no model is extracted. Findings' witnesses always
    /// count.
    pub emit_test_vectors: bool,
    /// Stop the exploration at the first mismatch (Table II mode) instead
    /// of cataloguing all findings (Table I mode).
    pub stop_at_first_mismatch: bool,
    /// Seed for randomised search strategies; parallel workers derive
    /// decorrelated per-worker seeds from it.
    pub seed: u64,
    /// Wall-clock budget for [`VerifySession::run_parallel`]; `None`
    /// means unbounded. Ignored by the sequential [`VerifySession::run`].
    pub deadline: Option<Duration>,
    /// Run the symbolic-IR well-formedness pass
    /// ([`ForkExec::lint_path`]) over every explored path and surface the
    /// issues in [`VerifyReport::lint_issues`] (the CLI's `--lint` flag).
    pub lint_ir: bool,
    /// Project every path's condition onto the instruction fetch slots
    /// and carry the cubes — together with the projected legal decode
    /// domain — in [`VerifyReport::coverage`], ready for the coverage
    /// certifier ([`Certificate`](crate::Certificate)). Off by default:
    /// projection adds a small per-path cost.
    pub collect_coverage: bool,
    /// Route feasibility queries through the KLEE-style solver chain
    /// (independence slicing plus counterexample/model caching). Answers
    /// are identical either way — the CLI's `--no-solver-chain` flag
    /// disables it for benchmarking and debugging.
    pub solver_chain: bool,
    /// Restrict the *first* fetched instruction word to a decode-space
    /// cube, on top of [`SessionConfig::constraint`]. This is how a sliced
    /// verification job scopes one shard: a family of pairwise-disjoint
    /// slice cubes covering the domain partitions the run, and
    /// [`merge_slice_coverage`](crate::merge_slice_coverage) reassembles
    /// the per-slice coverage into the single-run certificate. Only the
    /// first fetch is sliced — later fetch slots must stay unsliced or the
    /// shard union would no longer cover the multi-instruction space.
    pub slice: Option<Pattern>,
    /// Log clausal proofs in every worker's solver and replay each answer
    /// through the independent checker (the CLI's `--audit` flag). The
    /// explored paths, report JSON and certificates are byte-identical
    /// audit on or off; auditing adds the certification counters in
    /// [`VerifyReport::proof_audit`] and the offline-verifiable conflict
    /// cones in [`VerifyReport::proof_audit_units`].
    pub audit: bool,
    /// Incremental solving: let the solver retain the propagation trail
    /// of the assumption prefix consecutive feasibility queries share.
    /// Answers, reports and certificates are byte-identical either way —
    /// the CLI's `--no-incremental` flag disables it for benchmarking.
    pub incremental: bool,
    /// The path engine's forced-branch check: decide a branch condition
    /// the path condition's own conjuncts already force, by abstract
    /// interpretation, before any feasibility query is built. Answers,
    /// reports and certificates are byte-identical either way — the
    /// CLI's `--no-preflight` flag disables it, keeping every answer on
    /// the solver chain and the SAT core. Off whenever
    /// [`SessionConfig::solver_chain`] is off.
    pub preflight: bool,
}

impl SessionConfig {
    /// Table I mode: shipped MicroRV32 vs. shipped VP, full RV32I+Zicsr
    /// instruction space, catalogue every finding.
    pub fn table1() -> SessionConfig {
        SessionConfig {
            core_config: CoreConfig::microrv32_v1(),
            iss_config: IssConfig::vp_v1(),
            inject: None,
            instr_limit: 1,
            cycle_limit: 64,
            symbolic_regs: 2,
            dmem_words: 16,
            constraint: InstrConstraint::None,
            max_paths: 100_000,
            max_decisions_per_path: 10_000,
            strategy: SearchStrategy::Dfs,
            emit_test_vectors: true,
            stop_at_first_mismatch: false,
            seed: 0x5eed_cafe,
            deadline: None,
            lint_ir: false,
            collect_coverage: false,
            solver_chain: true,
            slice: None,
            audit: false,
            incremental: true,
            preflight: true,
        }
    }

    /// Table II mode: corrected models (known findings filtered), RV32I
    /// only, stop at the first mismatch — the configuration used to time
    /// the detection of injected errors.
    pub fn rv32i_only() -> SessionConfig {
        SessionConfig {
            core_config: CoreConfig::fixed(),
            iss_config: IssConfig::fixed(),
            inject: None,
            instr_limit: 1,
            cycle_limit: 64,
            symbolic_regs: 2,
            dmem_words: 16,
            constraint: InstrConstraint::BlockSystem,
            max_paths: 100_000,
            max_decisions_per_path: 10_000,
            strategy: SearchStrategy::Dfs,
            emit_test_vectors: true,
            stop_at_first_mismatch: true,
            seed: 0x5eed_cafe,
            deadline: None,
            lint_ir: false,
            collect_coverage: false,
            solver_chain: true,
            slice: None,
            audit: false,
            incremental: true,
            preflight: true,
        }
    }
}

impl Default for SessionConfig {
    fn default() -> SessionConfig {
        SessionConfig::table1()
    }
}

/// Error constructing a session from an invalid configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionError {
    message: String,
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl Error for SessionError {}

/// Per-path outcome collected by the session.
#[derive(Debug, Clone)]
struct PathRun {
    mismatch: Option<Mismatch>,
    stop: StopReason,
    instructions: u64,
    cycles: u64,
    instr_word: Option<u32>,
    witness: Option<TestVector>,
    lint_issues: Vec<String>,
    coverage: Vec<SlotCoverage>,
}

/// The end-to-end symbolic verification flow.
///
/// Drives a symbolic [`ForkEngine`] and explores the co-simulation over the
/// symbolic instruction/register space; see the
/// [crate documentation](crate) for an example.
#[derive(Debug)]
pub struct VerifySession {
    config: SessionConfig,
}

impl VerifySession {
    /// Validates the configuration and creates a session.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError`] if the data memory size is not a power of
    /// two, the symbolic register window exceeds 31, or the limits are
    /// zero.
    pub fn new(config: SessionConfig) -> Result<VerifySession, SessionError> {
        if !config.dmem_words.is_power_of_two() {
            return Err(SessionError {
                message: format!(
                    "dmem_words must be a power of two, got {}",
                    config.dmem_words
                ),
            });
        }
        if config.symbolic_regs > 31 {
            return Err(SessionError {
                message: format!(
                    "symbolic_regs must be at most 31, got {}",
                    config.symbolic_regs
                ),
            });
        }
        if config.instr_limit == 0
            || config.cycle_limit == 0
            || config.max_paths == 0
            || config.max_decisions_per_path == 0
        {
            return Err(SessionError {
                message:
                    "instr_limit, cycle_limit, max_paths and max_decisions_per_path must be positive"
                        .to_string(),
            });
        }
        Ok(VerifySession { config })
    }

    /// The active configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Runs the symbolic exploration and aggregates the report.
    pub fn run(self) -> VerifyReport {
        self.run_seeded(None).0
    }

    /// [`VerifySession::run`] with solver-chain cache handoff: imports
    /// `warm` (a seed exported by an *identical* earlier run — same
    /// config, constraint, slice and seed, see [`ChainSeed`]) before
    /// exploring, and exports this run's caches afterwards. The report is
    /// bit-identical warm or cold; only the solver work changes, which the
    /// report's chain statistics expose.
    pub fn run_seeded(self, warm: Option<&ChainSeed>) -> (VerifyReport, ChainSeed) {
        let start = Instant::now();
        let config = self.config;
        let stop_early = config.stop_at_first_mismatch;
        let domain = config
            .collect_coverage
            .then(|| project_domain(config.constraint, config.slice));
        let mut engine = ForkEngine::new(engine_config(&config));
        if let Some(seed) = warm {
            engine.import_chain_seed(seed);
        }
        let task = SessionTask {
            config: config.clone(),
        };
        let outcome = engine.explore_until(&task, move |path| {
            stop_early && path.value.mismatch.is_some()
        });
        let harvest = engine.export_chain_seed();
        let solver = engine.backend().stats();
        let cache = engine.backend().query_cache_stats();
        let chain = engine.backend().solver_chain_stats();
        let audit = engine.backend().proof_audit_stats();
        let audit_failure = engine.backend().proof_audit_failure().map(String::from);
        let audit_units = engine.take_audit_units();
        let report = merge_report(
            outcome.paths,
            config.emit_test_vectors,
            outcome.frontier_exhausted,
            outcome.paths_dropped,
            start,
            solver,
            cache,
            chain,
            audit,
            audit_failure,
            audit_units,
            domain,
        );
        (report, harvest)
    }

    /// Runs the symbolic exploration on `jobs` worker threads (each with
    /// its own engine and solver) and aggregates the report.
    ///
    /// For a frontier-drained configuration the report is identical to the
    /// sequential [`VerifySession::run`] whatever `jobs` is: the engine
    /// extracts witnesses from history-independent solvers, and both entry
    /// points merge paths in canonical decision order. Runs cut short —
    /// path budget, [`SessionConfig::deadline`], or
    /// [`SessionConfig::stop_at_first_mismatch`] — explore a
    /// scheduling-dependent subset and are only reproducible per path.
    pub fn run_parallel(self, jobs: usize) -> VerifyReport {
        self.run_parallel_with_progress(jobs, None)
    }

    /// [`VerifySession::run_parallel`] with structured progress events
    /// emitted on `progress` (a dropped receiver is tolerated).
    pub fn run_parallel_with_progress(
        self,
        jobs: usize,
        progress: Option<Sender<ProgressEvent>>,
    ) -> VerifyReport {
        let start = Instant::now();
        let config = self.config;
        let exec_config = ExecConfig {
            jobs,
            engine: engine_config(&config),
            deadline: config.deadline,
        };
        let stop_early = config.stop_at_first_mismatch;
        let domain = config
            .collect_coverage
            .then(|| project_domain(config.constraint, config.slice));
        let task = SessionTask {
            config: config.clone(),
        };
        let outcome = explore_parallel_fork(
            &exec_config,
            &task,
            move |path: &PathResult<PathRun>| stop_early && path.value.mismatch.is_some(),
            progress,
        );
        let (solver, cache, chain, audit, audit_failure, audit_units) =
            sum_worker_stats(&outcome.workers);
        merge_report(
            outcome.paths,
            config.emit_test_vectors,
            outcome.frontier_exhausted,
            outcome.paths_dropped,
            start,
            solver,
            cache,
            chain,
            audit,
            audit_failure,
            audit_units,
            domain,
        )
    }
}

/// Sums the per-worker solver, query-cache, solver-chain and proof-audit
/// counters for the report, and gathers the audited conflict cones.
#[allow(clippy::type_complexity)]
fn sum_worker_stats(
    workers: &[symcosim_exec::WorkerReport],
) -> (
    SolverStats,
    QueryCacheStats,
    SolverChainStats,
    ProofAuditStats,
    Option<String>,
    Vec<CoreReplayUnit>,
) {
    let mut solver = SolverStats::default();
    let mut cache = QueryCacheStats::default();
    let mut chain = SolverChainStats::default();
    let mut audit = ProofAuditStats::default();
    let mut audit_failure: Option<String> = None;
    let mut audit_units: Vec<CoreReplayUnit> = Vec::new();
    for worker in workers {
        solver.solves += worker.stats.solves;
        solver.decisions += worker.stats.decisions;
        solver.propagations += worker.stats.propagations;
        solver.conflicts += worker.stats.conflicts;
        solver.restarts += worker.stats.restarts;
        solver.learnt_clauses += worker.stats.learnt_clauses;
        solver.db_reductions += worker.stats.db_reductions;
        solver.learned_kept += worker.stats.learned_kept;
        cache = cache.merge(worker.cache);
        chain = chain.merge(worker.chain);
        audit = audit.merge(worker.audit);
        if audit_failure.is_none() {
            audit_failure.clone_from(&worker.audit_failure);
        }
        audit_units.extend(worker.audit_units.iter().cloned());
    }
    (solver, cache, chain, audit, audit_failure, audit_units)
}

/// The engine configuration a session config induces.
fn engine_config(config: &SessionConfig) -> EngineConfig {
    EngineConfig {
        strategy: config.strategy,
        max_paths: config.max_paths,
        max_decisions_per_path: config.max_decisions_per_path,
        seed: config.seed,
        max_resident_snapshots: EngineConfig::DEFAULT_MAX_RESIDENT_SNAPSHOTS,
        solver_chain: config.solver_chain,
        audit: config.audit,
        incremental: config.incremental,
        preflight: config.preflight,
    }
}

/// Aggregates explored paths into the session report.
///
/// Shared by the sequential and parallel entry points. Paths are first put
/// into canonical order (lexicographic on decision vectors — explored
/// vectors are pairwise prefix-free, so the order is total and independent
/// of exploration scheduling); findings then deduplicate to one Table I
/// row per (subject, description) through a hash set.
#[allow(clippy::too_many_arguments)]
fn merge_report(
    mut paths: Vec<PathResult<PathRun>>,
    emit_test_vectors: bool,
    truncated: bool,
    paths_dropped: usize,
    start: Instant,
    solver_stats: SolverStats,
    query_cache: QueryCacheStats,
    chain_stats: SolverChainStats,
    proof_audit: ProofAuditStats,
    proof_audit_failure: Option<String>,
    proof_audit_units: Vec<CoreReplayUnit>,
    domain: Option<(Vec<Pattern>, bool)>,
) -> VerifyReport {
    paths.sort_by(|a, b| a.decisions.cmp(&b.decisions));

    // Coverage rides through the same deterministic merge as the
    // findings: path records are already in canonical decision order, so
    // the certifier input — and hence the certificate — is bit-identical
    // across worker counts.
    let coverage = domain.map(|(domain, domain_exact)| CoverageData {
        slot_prefix: certify::SLOT_PREFIX.to_string(),
        domain,
        domain_exact,
        truncated,
        paths: paths
            .iter()
            .map(|path| {
                let (certified, bound) = classify_path_coverage(path);
                PathCoverage {
                    decisions: path.decisions.clone(),
                    certified,
                    bound,
                    slots: path.value.coverage.clone(),
                }
            })
            .collect(),
    });

    let mut findings: Vec<Finding> = Vec::new();
    let mut seen: HashSet<(String, String)> = HashSet::new();
    let mut paths_complete = 0usize;
    let mut paths_partial = 0usize;
    let mut instructions = 0u64;
    let mut cycles = 0u64;
    let mut test_vectors = 0usize;
    let mut lint_issues: Vec<String> = Vec::new();
    let mut lint_seen: HashSet<String> = HashSet::new();

    for path in &paths {
        let run = &path.value;
        instructions += run.instructions;
        cycles += run.cycles;
        if (emit_test_vectors && path.status != PathStatus::Infeasible) || run.witness.is_some() {
            test_vectors += 1;
        }
        match run.stop {
            StopReason::InstrLimit => paths_complete += 1,
            _ => paths_partial += 1,
        }
        if let Some(mismatch) = &run.mismatch {
            let mut finding = classify(run.instr_word, mismatch);
            finding.witness = run.witness.clone();
            if seen.insert(finding.dedup_key()) {
                findings.push(finding);
            }
        }
        for issue in &run.lint_issues {
            if lint_seen.insert(issue.clone()) {
                lint_issues.push(issue.clone());
            }
        }
    }

    VerifyReport {
        findings,
        paths_complete,
        paths_partial,
        instructions_executed: instructions,
        cycles,
        test_vectors,
        duration: start.elapsed(),
        truncated,
        merged_paths: 0,
        paths_dropped,
        lint_issues,
        solver_stats,
        query_cache,
        chain_stats,
        proof_audit,
        proof_audit_failure,
        proof_audit_units,
        coverage,
    }
}

/// Classifies a path for the coverage certifier: certified paths fully
/// determined their behaviour class (ran to the instruction limit, or to
/// a voter mismatch — the mismatch *is* the class); feasible paths cut
/// short map to the bound that stopped them; infeasible paths cover no
/// words and are excluded.
fn classify_path_coverage(path: &PathResult<PathRun>) -> (bool, Option<BoundCause>) {
    match path.status {
        PathStatus::Complete => match path.value.stop {
            StopReason::InstrLimit | StopReason::Mismatch => (true, None),
            StopReason::CycleLimit => (false, Some(BoundCause::CycleLimit)),
            StopReason::PathDead => (false, None),
        },
        PathStatus::DecisionLimit => (false, Some(BoundCause::DecisionLimit)),
        PathStatus::Infeasible => (false, None),
    }
}

/// Projects an instruction-generation constraint (optionally intersected
/// with a first-fetch slice cube) onto a fresh fetch slot: the *legal
/// decode domain* the certifier checks coverage against. Runs the real
/// [`build_imem`] constraint closure as the root path of a scratch engine
/// — the domain is derived from the same code path every explored path
/// went through, never a hard-coded table. The certificate merge entry point
/// ([`merge_slice_coverage`](crate::merge_slice_coverage)) recomputes the
/// *full* domain through this same function, which is what makes merged
/// certificates byte-identical to single-process ones.
pub fn project_domain(constraint: InstrConstraint, slice: Option<Pattern>) -> (Vec<Pattern>, bool) {
    let mut engine = ForkEngine::new(EngineConfig::default());
    let task = FnTask(|exec: &mut ForkExec| {
        let mut imem = build_imem(constraint, slice);
        let addr = exec.const_word(0);
        let _ = imem.fetch(exec, addr);
        exec.project_coverage(certify::SLOT_PREFIX)
    });
    let (root, _) = engine.run_job(ForkJob::root(), &task);
    match root.value.into_iter().next() {
        Some(slot) => (slot.cubes, slot.exact),
        // An unconstrained generator mentions the slot in no assumption:
        // every word is legal.
        None => (vec![Pattern::universe()], true),
    }
}

/// Builds the co-simulation one path runs on.
fn build_cosim<D: Domain>(dom: &mut D, config: &SessionConfig) -> CoSim<D> {
    let imem = build_imem(config.constraint, config.slice);
    CoSim::new(
        dom,
        config.core_config.clone(),
        config.iss_config.clone(),
        config.inject,
        imem,
        config.symbolic_regs,
        config.dmem_words,
        config.instr_limit,
        config.cycle_limit,
    )
}

/// Turns a finished co-simulation into the per-path record.
fn finish_run(
    exec: &mut ForkExec,
    config: &SessionConfig,
    cosim: &CoSim<ForkExec>,
    result: &CosimResult,
) -> PathRun {
    let (witness, instr_word) = if result.mismatch.is_some() {
        // Stable extraction (fresh solver per query): the witness depends
        // only on the path condition, so reports agree between sequential
        // and parallel exploration, snapshotted or replayed.
        let witness = exec.stable_witness_vector(&[]);
        let instr_word = cosim
            .last_instruction()
            .and_then(|term| exec.stable_concrete_witness(term, &[]))
            .map(|v| v as u32);
        (witness, instr_word)
    } else {
        (None, None)
    };
    let lint_issues = if config.lint_ir {
        exec.lint_path().iter().map(ToString::to_string).collect()
    } else {
        Vec::new()
    };
    let coverage = if config.collect_coverage {
        exec.project_coverage(certify::SLOT_PREFIX)
    } else {
        Vec::new()
    };
    PathRun {
        mismatch: result.mismatch.clone(),
        stop: result.stop,
        instructions: result.instructions,
        cycles: result.cycles,
        instr_word,
        witness,
        lint_issues,
        coverage,
    }
}

/// The verification flow as a [`ForkTask`]: the fork engine snapshots the
/// co-simulation (everything one path mutates outside the executor)
/// between [`CoSim::step_instr`] boundaries instead of re-executing the
/// prefix.
struct SessionTask {
    config: SessionConfig,
}

impl ForkTask for SessionTask {
    type State = CoSim<ForkExec>;
    type Out = PathRun;

    fn start(&self, exec: &mut ForkExec) -> CoSim<ForkExec> {
        build_cosim(exec, &self.config)
    }

    fn step(&self, cosim: &mut CoSim<ForkExec>, exec: &mut ForkExec) -> StepResult<PathRun> {
        match cosim.step_instr(exec, &mut SymbolicJudge) {
            None => StepResult::Continue,
            Some(result) => StepResult::Done(finish_run(exec, &self.config, cosim, &result)),
        }
    }
}

/// Builds the instruction memory for the configured constraint, with the
/// optional job-slice cube scoped to the first fetched instruction.
///
/// The slice is encoded bit by bit (`field(instr, i, i) == v`): single-bit
/// equalities are trivially enumerable, so the coverage projector keeps
/// slot covers exact instead of widening.
fn build_imem<D: Domain>(
    constraint: InstrConstraint,
    slice: Option<Pattern>,
) -> SymbolicInstrMemory<D> {
    let imem = build_constrained_imem(constraint);
    match slice {
        None => imem,
        Some(cube) => imem.constrain_first(move |dom: &mut D, instr| {
            for bit_index in 0..32u32 {
                let bit = 1u32 << bit_index;
                if cube.mask & bit == 0 {
                    continue;
                }
                let lane = dom.field(instr, bit_index, bit_index);
                let want = dom.eq_const(lane, u32::from(cube.value & bit != 0));
                dom.assume(want);
            }
        }),
    }
}

/// [`build_imem`] without the slice hook.
fn build_constrained_imem<D: Domain>(constraint: InstrConstraint) -> SymbolicInstrMemory<D> {
    match constraint {
        InstrConstraint::None => SymbolicInstrMemory::new(),
        InstrConstraint::BlockSystem => {
            SymbolicInstrMemory::with_constraint(|dom: &mut D, instr| {
                let opcode = dom.field(instr, 6, 0);
                let system = dom.const_word(opcodes::SYSTEM);
                let not_system = dom.ne_w(opcode, system);
                dom.assume(not_system);
            })
        }
        InstrConstraint::OnlyOpcode(target) => {
            SymbolicInstrMemory::with_constraint(move |dom: &mut D, instr| {
                let opcode = dom.field(instr, 6, 0);
                let is_target = dom.eq_const(opcode, target & 0x7f);
                dom.assume(is_target);
            })
        }
        InstrConstraint::ExtendedCsrOnly => {
            SymbolicInstrMemory::with_constraint(|dom: &mut D, instr| {
                let opcode = dom.field(instr, 6, 0);
                let is_system = dom.eq_const(opcode, opcodes::SYSTEM);
                // Zicsr flavours only: funct3 ∉ {0b000, 0b100}.
                let funct3 = dom.field(instr, 14, 12);
                let zero = dom.const_word(0);
                let four = dom.const_word(4);
                let not_priv = dom.ne_w(funct3, zero);
                let not_reserved = dom.ne_w(funct3, four);
                let addr = dom.field(instr, 31, 20);
                let mut in_set = dom.const_bool(false);
                for csr in [0x340u32, 0x306, 0xb00, 0xb02, 0xb80, 0xb82] {
                    let hit = dom.eq_const(addr, csr);
                    in_set = dom.or_b(in_set, hit);
                }
                // Representative slices of the 29-register HPM families
                // keep the targeted sweep small; classification groups
                // them back into the full-family rows.
                for (lo, hi) in [
                    (0xb03u32, 0xb06),
                    (0xb83, 0xb86),
                    (0x323, 0x326),
                    (0xc00, 0xc02),
                    (0xc80, 0xc82),
                ] {
                    let lo_w = dom.const_word(lo);
                    let hi_w = dom.const_word(hi);
                    let ge = dom.uge(addr, lo_w);
                    let le = {
                        let gt = dom.ult(hi_w, addr);
                        dom.not_b(gt)
                    };
                    let within = dom.and_b(ge, le);
                    in_set = dom.or_b(in_set, within);
                }
                let zicsr = dom.and_b(not_priv, not_reserved);
                let shaped = dom.and_b(is_system, zicsr);
                let constrained = dom.and_b(shaped, in_set);
                dom.assume(constrained);
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_bad_configs() {
        let mut config = SessionConfig::rv32i_only();
        config.dmem_words = 12;
        assert!(VerifySession::new(config).is_err());

        let mut config = SessionConfig::rv32i_only();
        config.symbolic_regs = 32;
        assert!(VerifySession::new(config).is_err());

        let mut config = SessionConfig::rv32i_only();
        config.instr_limit = 0;
        assert!(VerifySession::new(config).is_err());

        assert!(VerifySession::new(SessionConfig::rv32i_only()).is_ok());
    }

    #[test]
    fn presets_differ_in_the_documented_ways() {
        let t1 = SessionConfig::table1();
        let t2 = SessionConfig::rv32i_only();
        assert_eq!(t1.constraint, InstrConstraint::None);
        assert_eq!(t2.constraint, InstrConstraint::BlockSystem);
        assert!(!t1.stop_at_first_mismatch);
        assert!(t2.stop_at_first_mismatch);
        assert!(t1.inject.is_none() && t2.inject.is_none());
    }
}
