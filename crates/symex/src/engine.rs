//! Path exploration by deterministic re-execution.
//!
//! A *path* is identified by the sequence of branch directions taken at
//! symbolic [`decide`](crate::Domain::decide) points. The engine keeps a
//! frontier of unexplored decision prefixes; to run a path it re-executes
//! the user closure from scratch, forcing recorded decisions and forking at
//! the first fresh symbolic branch whose both sides are feasible. This is
//! functionally the exploration KLEE performs by snapshotting, traded for
//! re-execution — sound because the closure is deterministic, and cheap
//! because co-simulation paths are bounded to one or two instructions.

use crate::solve::SolverBackend;
use crate::term::{Node, TermId};
use crate::{Context, Domain, TestVector};

/// Frontier discipline for pending paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchStrategy {
    /// Depth-first: explore the most recent fork first (KLEE's DFS).
    #[default]
    Dfs,
    /// Breadth-first: explore forks in creation order.
    Bfs,
    /// Uniform random choice from the frontier (KLEE's random-path flavour),
    /// deterministic in [`EngineConfig::seed`].
    RandomPath,
}

/// Exploration limits and policy.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Frontier discipline.
    pub strategy: SearchStrategy,
    /// Stop after this many paths have been run (complete or not).
    pub max_paths: usize,
    /// Kill a path after this many symbolic decisions.
    pub max_decisions_per_path: usize,
    /// Seed for [`SearchStrategy::RandomPath`].
    pub seed: u64,
    /// Upper bound on copy-on-write snapshots resident in a
    /// [`ForkEngine`](crate::ForkEngine) frontier; beyond it new forks
    /// spill back to prefix replay. Ignored by the re-execution engine.
    pub max_resident_snapshots: usize,
    /// Route feasibility queries through the KLEE-style solver chain
    /// (independence slicing + counterexample/model caching). Answers are
    /// identical either way; disabling is for benchmarking and debugging.
    pub solver_chain: bool,
    /// Log clausal proofs and replay every solver answer through the
    /// independent checker (see [`crate::audit`]). Answers and explored
    /// paths are identical either way; auditing only accumulates
    /// certification statistics (and their failures).
    pub audit: bool,
    /// Let the solver retain the propagation trail of the assumption
    /// prefix consecutive feasibility queries share (see
    /// [`SolverBackend::set_incremental`]). Answers are identical either
    /// way; disabling is for benchmarking and differential testing.
    pub incremental: bool,
    /// Let the solver chain statically answer feasibility queries whose
    /// path-condition conjunction is forced, via abstract interpretation
    /// (see [`SolverBackend::set_preflight`]). Answers are identical
    /// either way; disabling is for benchmarking and differential
    /// testing. Ignored when the chain is off.
    pub preflight: bool,
    /// Veritesting-style state merging in the [`ForkEngine`]
    /// ([`crate::merge`]): siblings whose post-step states are
    /// term-identical and whose divergence is provably decode-local are
    /// re-joined into one physical path carrying per-arm ledgers. The
    /// explored path *records* are byte-identical either way (each arm
    /// is expanded back into its own [`PathResult`]); only the physical
    /// path count and the solver work change. Ignored by the
    /// re-execution [`Engine`].
    ///
    /// [`ForkEngine`]: crate::ForkEngine
    pub merge: bool,
}

impl EngineConfig {
    /// Default [`EngineConfig::max_resident_snapshots`]: a snapshot is a
    /// few KiB of cloned model state, so about a thousand of them bound
    /// frontier memory to single-digit MiB.
    pub const DEFAULT_MAX_RESIDENT_SNAPSHOTS: usize = 1024;
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            strategy: SearchStrategy::Dfs,
            max_paths: 100_000,
            max_decisions_per_path: 100_000,
            seed: 0x5eed_cafe,
            max_resident_snapshots: EngineConfig::DEFAULT_MAX_RESIDENT_SNAPSHOTS,
            solver_chain: true,
            audit: false,
            incremental: true,
            preflight: true,
            merge: false,
        }
    }
}

/// Why a path ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathStatus {
    /// The closure ran to completion under feasible constraints.
    Complete,
    /// An [`assume`](crate::Domain::assume) made the path infeasible.
    Infeasible,
    /// The per-path decision limit was hit (counted as a *partial path*,
    /// like KLEE paths killed by resource limits).
    DecisionLimit,
}

/// One explored path and the value the closure returned on it.
#[derive(Debug, Clone)]
pub struct PathResult<R> {
    /// The closure's return value.
    pub value: R,
    /// Why the path ended.
    pub status: PathStatus,
    /// Branch directions taken at symbolic decision points.
    pub decisions: Vec<bool>,
    /// Number of path constraints collected.
    pub num_constraints: usize,
}

/// Aggregate result of an [`Engine::explore`] call.
#[derive(Debug, Clone)]
pub struct ExploreOutcome<R> {
    /// All explored paths in completion order.
    pub paths: Vec<PathResult<R>>,
    /// Paths that ran to completion.
    pub complete_paths: usize,
    /// Paths cut short (infeasible assumes or decision limits).
    pub partial_paths: usize,
    /// `true` if exploration stopped because [`EngineConfig::max_paths`]
    /// was reached while the frontier was non-empty.
    pub frontier_exhausted: bool,
    /// Path records recovered from merged physical paths: a merged path
    /// representing *k* sibling arms contributes *k − 1* here (see
    /// [`EngineConfig::merge`]). Always zero for the re-execution engine
    /// and for merge-off runs.
    pub merged_paths: usize,
    /// Frontier jobs left unexplored when exploration stopped early
    /// (path budget or stop predicate) — a lower bound on the paths the
    /// truncation dropped, since an unexplored job can fork further.
    /// Zero when the frontier drained.
    pub paths_dropped: usize,
}

impl<R> ExploreOutcome<R> {
    /// Iterates over the values of complete paths.
    pub fn complete_values(&self) -> impl Iterator<Item = &R> {
        self.paths
            .iter()
            .filter(|p| p.status == PathStatus::Complete)
            .map(|p| &p.value)
    }
}

/// One explored prefix: the finished path plus the sibling prefixes it
/// scheduled at fresh forks.
///
/// This is the unit of work a parallel executor distributes: feed a prefix
/// to [`Engine::run_prefix`], collect the result, enqueue the forks.
#[derive(Debug, Clone)]
pub struct PrefixOutcome<R> {
    /// The path that was run.
    pub result: PathResult<R>,
    /// Unexplored sibling prefixes discovered at fresh forks, in creation
    /// order (shallowest first).
    pub forks: Vec<Vec<bool>>,
}

#[derive(Debug)]
struct PendingPath {
    prefix: Vec<bool>,
}

/// The symbolic exploration engine.
///
/// Owns the term [`Context`] and the incremental [`SolverBackend`]; both
/// are shared across paths so hash-consed terms and learnt clauses carry
/// over. See the [crate documentation](crate) for an example.
#[derive(Debug)]
pub struct Engine {
    ctx: Context,
    backend: SolverBackend,
    config: EngineConfig,
    rng_state: u64,
    projector: crate::project::Projector,
    lanes: crate::lanes::LaneRewriter,
}

impl Engine {
    /// Creates an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Engine {
        let mut backend =
            SolverBackend::with_config(config.solver_chain, config.audit, config.incremental);
        backend.set_preflight(config.preflight);
        Engine {
            ctx: Context::new(),
            backend,
            config: config.clone(),
            rng_state: config.seed | 1,
            projector: crate::project::Projector::new(),
            lanes: crate::lanes::LaneRewriter::default(),
        }
    }

    /// Read access to the term context (for inspecting returned terms).
    pub fn ctx(&self) -> &Context {
        &self.ctx
    }

    /// Mutable access to the term context.
    pub fn ctx_mut(&mut self) -> &mut Context {
        &mut self.ctx
    }

    /// The solver backend, e.g. for statistics.
    pub fn backend(&self) -> &SolverBackend {
        &self.backend
    }

    /// Drains the proof auditor's certified conflict cones (see
    /// [`SolverBackend::take_audit_units`]). Empty when auditing is off.
    pub fn take_audit_units(&mut self) -> Vec<symcosim_sat::CoreReplayUnit> {
        self.backend.take_audit_units()
    }

    /// Exports the solver chain's caches for warming a later identical
    /// run (see [`crate::ChainSeed`]). Empty when the chain is disabled.
    pub fn export_chain_seed(&self) -> crate::ChainSeed {
        self.backend.export_chain_seed()
    }

    /// Pre-warms the solver chain from a seed exported by an identical
    /// run; answers are unchanged, only cheaper.
    pub fn import_chain_seed(&mut self, seed: &crate::ChainSeed) {
        self.backend.import_chain_seed(seed);
    }

    /// Explores every feasible path through `f`.
    ///
    /// `f` must be deterministic: given the same decisions it must perform
    /// the same domain operations in the same order, and it must name its
    /// symbolic inputs canonically (see
    /// [`Domain::fresh_word`](crate::Domain::fresh_word)). Each invocation
    /// corresponds to one path; the engine re-invokes `f` until the
    /// frontier empties or [`EngineConfig::max_paths`] is hit.
    pub fn explore<F, R>(&mut self, f: F) -> ExploreOutcome<R>
    where
        F: FnMut(&mut SymExec<'_>) -> R,
    {
        self.explore_until(f, |_| false)
    }

    /// Like [`Engine::explore`], but stops as soon as `stop` returns true
    /// for a just-completed path (e.g. "a mismatch was found") — the
    /// error-injection experiments' mode of operation.
    pub fn explore_until<F, R, P>(&mut self, mut f: F, mut stop: P) -> ExploreOutcome<R>
    where
        F: FnMut(&mut SymExec<'_>) -> R,
        P: FnMut(&PathResult<R>) -> bool,
    {
        let mut frontier = vec![PendingPath { prefix: Vec::new() }];
        let mut paths = Vec::new();
        let mut complete = 0usize;
        let mut partial = 0usize;

        while let Some(pending) = self.pop_frontier(&mut frontier) {
            if paths.len() >= self.config.max_paths {
                return ExploreOutcome {
                    paths,
                    complete_paths: complete,
                    partial_paths: partial,
                    frontier_exhausted: true,
                    merged_paths: 0,
                    paths_dropped: frontier.len() + 1,
                };
            }
            let outcome = self.run_prefix(pending.prefix, &mut f);
            for prefix in outcome.forks {
                frontier.push(PendingPath { prefix });
            }
            match outcome.result.status {
                PathStatus::Complete => complete += 1,
                _ => partial += 1,
            }
            paths.push(outcome.result);
            if stop(paths.last().expect("just pushed")) {
                return ExploreOutcome {
                    frontier_exhausted: !frontier.is_empty(),
                    paths_dropped: frontier.len(),
                    paths,
                    complete_paths: complete,
                    partial_paths: partial,
                    merged_paths: 0,
                };
            }
        }

        ExploreOutcome {
            paths,
            complete_paths: complete,
            partial_paths: partial,
            frontier_exhausted: false,
            merged_paths: 0,
            paths_dropped: 0,
        }
    }

    /// Runs the single path selected by `prefix` and returns its result
    /// plus the sibling prefixes scheduled at fresh forks.
    ///
    /// This is [`Engine::explore_until`]'s loop body, exposed so an
    /// external scheduler (the parallel executor) can drive its own
    /// frontier. Everything in the returned [`PrefixOutcome`] except the
    /// closure's own value is a pure function of `prefix` and the closure:
    /// feasibility answers are objective (independent of the persistent
    /// solver's query history) — so two engines given the same prefix
    /// agree, whatever they ran before.
    pub fn run_prefix<F, R>(&mut self, prefix: Vec<bool>, f: F) -> PrefixOutcome<R>
    where
        F: FnOnce(&mut SymExec<'_>) -> R,
    {
        let mut exec = SymExec {
            ctx: &mut self.ctx,
            backend: &mut self.backend,
            prefix,
            taken: Vec::new(),
            constraints: Vec::new(),
            origins: Vec::new(),
            forks: Vec::new(),
            path_symbols: Vec::new(),
            status: PathStatus::Complete,
            max_decisions: self.config.max_decisions_per_path,
            projector: &mut self.projector,
            lanes: &mut self.lanes,
        };
        let value = f(&mut exec);
        // Debug builds re-validate the path condition after every path
        // (node-local checks only; the full pass is SymExec::lint_path)
        // and re-solve it on a fresh solver.
        #[cfg(debug_assertions)]
        crate::solve::debug_check_path(
            exec.ctx,
            &exec.constraints,
            &exec.path_symbols,
            exec.status,
        );
        PrefixOutcome {
            result: PathResult {
                value,
                status: exec.status,
                decisions: exec.taken,
                num_constraints: exec.constraints.len(),
            },
            forks: exec.forks,
        }
    }

    fn pop_frontier(&mut self, frontier: &mut Vec<PendingPath>) -> Option<PendingPath> {
        if frontier.is_empty() {
            return None;
        }
        let index = match self.config.strategy {
            SearchStrategy::Dfs => frontier.len() - 1,
            SearchStrategy::Bfs => 0,
            SearchStrategy::RandomPath => {
                // xorshift64* — deterministic, no external dependency.
                self.rng_state ^= self.rng_state << 13;
                self.rng_state ^= self.rng_state >> 7;
                self.rng_state ^= self.rng_state << 17;
                (self.rng_state as usize) % frontier.len()
            }
        };
        Some(frontier.swap_remove(index))
    }
}

/// Per-path symbolic executor; implements [`Domain`] over term handles.
///
/// Handed to the exploration closure by [`Engine::explore`]. Beyond the
/// `Domain` operations it offers path-level queries used by verification
/// harnesses: [`SymExec::check_sat`] (is a condition possible here?) and
/// [`SymExec::concrete_witness`] (a model value under the path condition).
#[derive(Debug)]
pub struct SymExec<'e> {
    ctx: &'e mut Context,
    backend: &'e mut SolverBackend,
    prefix: Vec<bool>,
    taken: Vec<bool>,
    constraints: Vec<TermId>,
    origins: Vec<crate::project::ConstraintOrigin>,
    forks: Vec<Vec<bool>>,
    path_symbols: Vec<TermId>,
    status: PathStatus,
    max_decisions: usize,
    projector: &'e mut crate::project::Projector,
    lanes: &'e mut crate::lanes::LaneRewriter,
}

impl SymExec<'_> {
    /// The term context (symbolic values are [`TermId`]s into it).
    pub fn context(&mut self) -> &mut Context {
        self.ctx
    }

    /// The constraints accumulated on this path so far.
    pub fn constraints(&self) -> &[TermId] {
        &self.constraints
    }

    /// The node behind `term`.
    pub fn node(&self, term: TermId) -> Node {
        self.ctx.node(term)
    }

    /// Whether `cond` is satisfiable together with the path condition —
    /// *without* committing to it.
    ///
    /// This is the voter's primitive: "can the two models disagree here?".
    ///
    /// A query that does not fold is first rebuilt with the lane constants
    /// the path forces (see [`crate::lanes`]).
    pub fn check_sat(&mut self, cond: TermId) -> bool {
        if let Some(value) = self.ctx.const_value(cond) {
            return value == 1;
        }
        let facts = crate::lanes::forced_lanes(self.ctx, &self.constraints);
        let query = self.lanes.rewrite(self.ctx, facts, cond);
        let sat = self.path_sat(query);
        #[cfg(debug_assertions)]
        if query != cond {
            assert_eq!(
                self.path_sat(cond),
                sat,
                "a lane-constant rewrite changed a query's answer"
            );
        }
        sat
    }

    /// [`SymExec::check_sat`] without the lane rewrite. Debug builds check
    /// rewritten answers and the voter's skipped miters against it.
    pub(crate) fn path_sat(&mut self, cond: TermId) -> bool {
        if let Some(value) = self.ctx.const_value(cond) {
            return value == 1;
        }
        // Feasibility only (no model is read afterwards), so the memoised
        // query cache applies: sibling paths sharing a prefix ask the same
        // condition sets over and over.
        self.backend.prefix_sync(&self.constraints);
        self.backend.check_suffix(self.ctx, &[cond]).is_sat()
    }

    /// A concrete witness for `term` under the path condition plus `extra`.
    ///
    /// Returns `None` if the combined constraints are infeasible.
    pub fn concrete_witness(&mut self, term: TermId, extra: &[TermId]) -> Option<u64> {
        let mut conditions = self.constraints.clone();
        conditions.extend_from_slice(extra);
        if !self.backend.check(self.ctx, &conditions).is_sat() {
            return None;
        }
        self.backend.value_of(self.ctx, term)
    }

    /// A test vector for the path condition plus `extra` constraints,
    /// covering the symbols created on this path.
    pub fn witness_vector(&mut self, extra: &[TermId]) -> Option<TestVector> {
        let mut conditions = self.constraints.clone();
        conditions.extend_from_slice(extra);
        if !self.backend.check(self.ctx, &conditions).is_sat() {
            return None;
        }
        let mut vector = TestVector::new();
        for &sym in &self.path_symbols {
            let name = self.ctx.symbol_name(sym)?.to_string();
            let width = self.ctx.width(sym);
            let value = self.backend.value_of(self.ctx, sym).unwrap_or(0);
            vector.push(name, width, value);
        }
        Some(vector)
    }

    /// Like [`SymExec::concrete_witness`], but extracted from a fresh
    /// solver: the returned value depends only on the path condition plus
    /// `extra`, not on the query history of the engine's persistent
    /// solver. Reports that must be identical across sequential and
    /// parallel exploration extract their witnesses through this.
    pub fn stable_concrete_witness(&mut self, term: TermId, extra: &[TermId]) -> Option<u64> {
        let mut conditions = self.constraints.clone();
        conditions.extend_from_slice(extra);
        crate::solve::fresh_model_value(self.ctx, &conditions, term)
    }

    /// Like [`SymExec::witness_vector`], but extracted from a fresh solver
    /// (see [`SymExec::stable_concrete_witness`]).
    pub fn stable_witness_vector(&mut self, extra: &[TermId]) -> Option<TestVector> {
        let mut conditions = self.constraints.clone();
        conditions.extend_from_slice(extra);
        crate::solve::fresh_model_vector(self.ctx, &conditions, &self.path_symbols)
    }

    /// Permanently adds `cond` to the path condition (it is already known
    /// to hold, e.g. after a mismatch witness has been found).
    pub fn add_constraint(&mut self, cond: TermId) {
        self.constraints.push(cond);
        self.origins
            .push(crate::project::ConstraintOrigin::Committed);
    }

    /// Projects this path's condition onto every symbolic fetch slot whose
    /// symbol name starts with `slot_prefix` (see
    /// [`Projector::project_path`](crate::Projector::project_path)).
    /// Constraints committed after the fact are excluded.
    #[must_use]
    pub fn project_coverage(&mut self, slot_prefix: &str) -> Vec<crate::project::SlotCoverage> {
        self.projector
            .project_path(self.ctx, slot_prefix, &self.constraints, &self.origins)
    }

    /// Runs the full [well-formedness pass](crate::wf::validate_path) over
    /// this path's condition and symbolic reads.
    #[must_use]
    pub fn lint_path(&self) -> Vec<crate::wf::WfIssue> {
        crate::wf::validate_path(self.ctx, &self.constraints, &self.path_symbols)
    }

    /// [`SymExec::lint_path`] with the path's output frontier, so symbols
    /// in no constraint and no output term are reported as dead (see
    /// [`validate_path_with_outputs`](crate::wf::validate_path_with_outputs)).
    #[must_use]
    pub fn lint_path_with_outputs(&self, outputs: &[TermId]) -> Vec<crate::wf::WfIssue> {
        crate::wf::validate_path_with_outputs(
            self.ctx,
            &self.constraints,
            &self.path_symbols,
            outputs,
        )
    }

    fn kill(&mut self, status: PathStatus) {
        if self.status == PathStatus::Complete {
            self.status = status;
        }
    }
}

impl Domain for SymExec<'_> {
    type Word = TermId;
    type Bool = TermId;

    fn const_word(&mut self, value: u32) -> TermId {
        self.ctx.constant(32, value as u64)
    }

    fn const_bool(&mut self, value: bool) -> TermId {
        self.ctx.bool_const(value)
    }

    fn fresh_word(&mut self, name: &str) -> TermId {
        let sym = self.ctx.symbol(32, name);
        if !self.path_symbols.contains(&sym) {
            self.path_symbols.push(sym);
        }
        sym
    }

    fn word_value(&self, word: TermId) -> Option<u32> {
        self.ctx.const_value(word).map(|v| v as u32)
    }

    fn bool_value(&self, b: TermId) -> Option<bool> {
        self.ctx.const_value(b).map(|v| v == 1)
    }

    fn add(&mut self, a: TermId, b: TermId) -> TermId {
        self.ctx.add(a, b)
    }

    fn sub(&mut self, a: TermId, b: TermId) -> TermId {
        self.ctx.sub(a, b)
    }

    fn mul(&mut self, a: TermId, b: TermId) -> TermId {
        self.ctx.mul(a, b)
    }

    fn and(&mut self, a: TermId, b: TermId) -> TermId {
        self.ctx.and(a, b)
    }

    fn or(&mut self, a: TermId, b: TermId) -> TermId {
        self.ctx.or(a, b)
    }

    fn xor(&mut self, a: TermId, b: TermId) -> TermId {
        self.ctx.xor(a, b)
    }

    fn not_w(&mut self, a: TermId) -> TermId {
        self.ctx.not(a)
    }

    fn shl(&mut self, a: TermId, amount: TermId) -> TermId {
        self.ctx.shl(a, amount)
    }

    fn lshr(&mut self, a: TermId, amount: TermId) -> TermId {
        self.ctx.lshr(a, amount)
    }

    fn ashr(&mut self, a: TermId, amount: TermId) -> TermId {
        self.ctx.ashr(a, amount)
    }

    fn eq_w(&mut self, a: TermId, b: TermId) -> TermId {
        self.ctx.eq(a, b)
    }

    fn ult(&mut self, a: TermId, b: TermId) -> TermId {
        self.ctx.ult(a, b)
    }

    fn slt(&mut self, a: TermId, b: TermId) -> TermId {
        self.ctx.slt(a, b)
    }

    fn ite(&mut self, cond: TermId, then_w: TermId, else_w: TermId) -> TermId {
        self.ctx.ite(cond, then_w, else_w)
    }

    fn not_b(&mut self, a: TermId) -> TermId {
        self.ctx.not(a)
    }

    fn and_b(&mut self, a: TermId, b: TermId) -> TermId {
        self.ctx.and(a, b)
    }

    fn or_b(&mut self, a: TermId, b: TermId) -> TermId {
        self.ctx.or(a, b)
    }

    fn bool_to_word(&mut self, b: TermId) -> TermId {
        self.ctx.zero_ext(b, 32)
    }

    fn decide(&mut self, cond: TermId) -> bool {
        if self.is_dead() {
            return false;
        }
        if let Some(value) = self.ctx.const_value(cond) {
            return value == 1;
        }
        let index = self.taken.len();
        if index < self.prefix.len() {
            // Replaying a recorded prefix: feasibility was established when
            // the fork was scheduled.
            let choice = self.prefix[index];
            let constraint = if choice { cond } else { self.ctx.not(cond) };
            self.constraints.push(constraint);
            self.origins
                .push(crate::project::ConstraintOrigin::Decision(index as u32));
            self.taken.push(choice);
            return choice;
        }
        if self.taken.len() >= self.max_decisions {
            self.kill(PathStatus::DecisionLimit);
            return false;
        }
        let negated = self.ctx.not(cond);
        // Both polarity probes share the whole path condition as their
        // prefix; phrasing them as suffix queries lets the incremental
        // solver retain the prefix's propagation trail between them.
        self.backend.prefix_sync(&self.constraints);
        let true_feasible = self.backend.check_suffix(self.ctx, &[cond]).is_sat();
        let (choice, constraint) = if true_feasible {
            if self.backend.check_suffix(self.ctx, &[negated]).is_sat() {
                // Both sides feasible: fork, continue on `true`.
                let mut sibling = self.taken.clone();
                sibling.push(false);
                self.forks.push(sibling);
            }
            (true, cond)
        } else {
            // The path condition is feasible by induction, so `false` is.
            (false, negated)
        };
        self.constraints.push(constraint);
        self.backend.prefix_push(constraint);
        self.origins
            .push(crate::project::ConstraintOrigin::Decision(index as u32));
        self.taken.push(choice);
        choice
    }

    fn assume(&mut self, cond: TermId) {
        if self.is_dead() {
            return;
        }
        match self.ctx.const_value(cond) {
            Some(1) => return,
            Some(_) => {
                self.kill(PathStatus::Infeasible);
                return;
            }
            None => {}
        }
        self.backend.prefix_sync(&self.constraints);
        let feasible = self.backend.check_suffix(self.ctx, &[cond]).is_sat();
        self.constraints.push(cond);
        self.backend.prefix_push(cond);
        self.origins.push(crate::project::ConstraintOrigin::Assumed);
        if !feasible {
            self.kill(PathStatus::Infeasible);
        }
    }

    fn is_dead(&self) -> bool {
        self.status != PathStatus::Complete
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_symbol_forks_both_ways() {
        let mut engine = Engine::new(EngineConfig::default());
        let outcome = engine.explore(|exec| {
            let x = exec.fresh_word("x");
            let ten = exec.const_word(10);
            let lt = exec.ult(x, ten);
            let taken = exec.decide(lt);
            (taken, exec.stable_witness_vector(&[]))
        });
        assert_eq!(outcome.paths.len(), 2);
        assert_eq!(outcome.complete_paths, 2);
        let values: Vec<bool> = outcome.paths.iter().map(|p| p.value.0).collect();
        assert!(values.contains(&true) && values.contains(&false));
        // Test vectors respect the branch each path took.
        for path in &outcome.paths {
            let (taken, vector) = &path.value;
            let vector = vector.as_ref().expect("feasible path has a vector");
            let x = vector.get("x").expect("x was an input");
            assert_eq!(*taken, x < 10, "vector {vector} inconsistent with path");
        }
    }

    #[test]
    fn nested_decisions_enumerate_all_combinations() {
        let mut engine = Engine::new(EngineConfig::default());
        let outcome = engine.explore(|exec| {
            let x = exec.fresh_word("x");
            let mut count = 0;
            for bit in 0..3 {
                let field = exec.field(x, bit, bit);
                let one = exec.const_word(1);
                let set = exec.eq_w(field, one);
                if exec.decide(set) {
                    count += 1;
                }
            }
            count
        });
        assert_eq!(outcome.paths.len(), 8);
        let mut histogram = [0usize; 4];
        for path in &outcome.paths {
            histogram[path.value] += 1;
        }
        assert_eq!(histogram, [1, 3, 3, 1]);
    }

    #[test]
    fn infeasible_branches_are_pruned() {
        let mut engine = Engine::new(EngineConfig::default());
        let outcome = engine.explore(|exec| {
            let x = exec.fresh_word("x");
            let five = exec.const_word(5);
            let lt5 = exec.ult(x, five);
            let first = exec.decide(lt5);
            // If x < 5, then x < 100 is forced: no second fork.
            let hundred = exec.const_word(100);
            let lt100 = exec.ult(x, hundred);
            let second = exec.decide(lt100);
            (first, second)
        });
        // Paths: (T,T), (F,T), (F,F) — (T,F) is infeasible and never forked.
        assert_eq!(outcome.paths.len(), 3);
        assert!(!outcome.paths.iter().any(|p| p.value == (true, false)));
    }

    #[test]
    fn assume_prunes_and_marks_infeasible() {
        let mut engine = Engine::new(EngineConfig::default());
        let outcome = engine.explore(|exec| {
            let x = exec.fresh_word("x");
            let three = exec.const_word(3);
            let is3 = exec.eq_w(x, three);
            exec.assume(is3);
            let four = exec.const_word(4);
            let is4 = exec.eq_w(x, four);
            exec.assume(is4); // contradiction
            exec.is_dead()
        });
        assert_eq!(outcome.paths.len(), 1);
        assert_eq!(outcome.paths[0].status, PathStatus::Infeasible);
        assert_eq!(outcome.partial_paths, 1);
        assert!(outcome.paths[0].value);
    }

    #[test]
    fn decision_limit_counts_as_partial() {
        let config = EngineConfig {
            max_decisions_per_path: 2,
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(config);
        let outcome = engine.explore(|exec| {
            let x = exec.fresh_word("x");
            for bit in 0..8 {
                let field = exec.field(x, bit, bit);
                let one = exec.const_word(1);
                let set = exec.eq_w(field, one);
                exec.decide(set);
                if exec.is_dead() {
                    break;
                }
            }
        });
        assert!(outcome
            .paths
            .iter()
            .any(|p| p.status == PathStatus::DecisionLimit));
    }

    #[test]
    fn max_paths_truncates_search() {
        let config = EngineConfig {
            max_paths: 3,
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(config);
        let outcome = engine.explore(|exec| {
            let x = exec.fresh_word("x");
            for bit in 0..6 {
                let field = exec.field(x, bit, bit);
                let one = exec.const_word(1);
                let set = exec.eq_w(field, one);
                exec.decide(set);
            }
        });
        assert_eq!(outcome.paths.len(), 3);
        assert!(outcome.frontier_exhausted);
    }

    #[test]
    fn strategies_cover_the_same_paths() {
        for strategy in [
            SearchStrategy::Dfs,
            SearchStrategy::Bfs,
            SearchStrategy::RandomPath,
        ] {
            let config = EngineConfig {
                strategy,
                ..EngineConfig::default()
            };
            let mut engine = Engine::new(config);
            let outcome = engine.explore(|exec| {
                let x = exec.fresh_word("x");
                let mut value = 0u32;
                for bit in 0..3 {
                    let field = exec.field(x, bit, bit);
                    let one = exec.const_word(1);
                    let set = exec.eq_w(field, one);
                    if exec.decide(set) {
                        value |= 1 << bit;
                    }
                }
                value
            });
            let mut values: Vec<u32> = outcome.paths.iter().map(|p| p.value).collect();
            values.sort_unstable();
            assert_eq!(values, (0..8).collect::<Vec<u32>>(), "{strategy:?}");
        }
    }

    #[test]
    fn concrete_computations_do_not_fork() {
        let mut engine = Engine::new(EngineConfig::default());
        let outcome = engine.explore(|exec| {
            let a = exec.const_word(6);
            let b = exec.const_word(7);
            let product = exec.mul(a, b);
            let c42 = exec.const_word(42);
            let eq = exec.eq_w(product, c42);
            exec.decide(eq)
        });
        assert_eq!(outcome.paths.len(), 1);
        assert!(outcome.paths[0].value);
        assert!(outcome.paths[0].decisions.is_empty());
    }

    #[test]
    fn replayed_queries_hit_the_cache() {
        // Re-executed paths repeat the parent's check_sat query with the
        // identical condition set; the backend memoises it.
        let mut engine = Engine::new(EngineConfig::default());
        engine.explore(|exec| {
            let x = exec.fresh_word("x");
            let ten = exec.const_word(10);
            let lt = exec.ult(x, ten);
            let possible = exec.check_sat(lt);
            let zero = exec.const_word(0);
            let is_zero = exec.eq_w(x, zero);
            exec.decide(is_zero);
            possible
        });
        let stats = engine.backend().query_cache_stats();
        assert!(stats.hits > 0, "the sibling path repeats the query");
        assert!(stats.misses > 0);
    }

    #[test]
    fn check_sat_does_not_commit() {
        let mut engine = Engine::new(EngineConfig::default());
        let outcome = engine.explore(|exec| {
            let x = exec.fresh_word("x");
            let seven = exec.const_word(7);
            let is7 = exec.eq_w(x, seven);
            let possible = exec.check_sat(is7);
            let not7 = exec.not_b(is7);
            let also_possible = exec.check_sat(not7);
            (possible, also_possible)
        });
        assert_eq!(outcome.paths.len(), 1);
        assert_eq!(outcome.paths[0].value, (true, true));
    }

    /// Three decisions over distinct bits of one symbol: 8 feasible paths.
    fn three_bit_task(exec: &mut SymExec<'_>) -> u32 {
        let x = exec.fresh_word("x");
        let mut value = 0u32;
        for bit in 0..3 {
            let field = exec.field(x, bit, bit);
            let one = exec.const_word(1);
            let set = exec.eq_w(field, one);
            if exec.decide(set) {
                value |= 1 << bit;
            }
        }
        value
    }

    #[test]
    fn run_prefix_drives_an_external_frontier() {
        // DFS exploration re-implemented on top of run_prefix matches
        // the engine's own explore().
        let mut engine = Engine::new(EngineConfig::default());
        let mut frontier = vec![Vec::new()];
        let mut values = Vec::new();
        while let Some(prefix) = frontier.pop() {
            let outcome = engine.run_prefix(prefix, three_bit_task);
            frontier.extend(outcome.forks);
            values.push(outcome.result.value);
        }
        values.sort_unstable();
        assert_eq!(values, (0..8).collect::<Vec<u32>>());
    }

    #[test]
    fn run_prefix_is_history_independent() {
        // The same prefix on a fresh engine and on an engine that explored
        // other paths first: identical result, forks and test vector.
        let task = |exec: &mut SymExec<'_>| {
            let value = three_bit_task(exec);
            (
                value,
                exec.stable_witness_vector(&[]).map(|v| v.to_string()),
            )
        };
        let prefix = vec![true, false];
        let mut fresh = Engine::new(EngineConfig::default());
        let baseline = fresh.run_prefix(prefix.clone(), task);

        let mut warmed = Engine::new(EngineConfig::default());
        warmed.run_prefix(Vec::new(), task);
        warmed.run_prefix(vec![false], task);
        let repeat = warmed.run_prefix(prefix, task);

        assert!(
            baseline.result.value.1.is_some(),
            "feasible path has a model"
        );
        assert_eq!(
            repeat.result.value, baseline.result.value,
            "values and models must be stable"
        );
        assert_eq!(repeat.result.status, baseline.result.status);
        assert_eq!(repeat.result.decisions, baseline.result.decisions);
        assert_eq!(repeat.forks, baseline.forks);
    }

    #[test]
    fn concrete_witness_respects_constraints() {
        let mut engine = Engine::new(EngineConfig::default());
        let outcome = engine.explore(|exec| {
            let x = exec.fresh_word("x");
            let c100 = exec.const_word(100);
            let lt = exec.ult(x, c100);
            exec.assume(lt);
            let c50 = exec.const_word(50);
            let gt50 = exec.ult(c50, x);
            exec.concrete_witness(x, &[gt50])
        });
        let witness = outcome.paths[0].value.expect("feasible");
        assert!(witness > 50 && witness < 100, "witness {witness}");
    }
}
