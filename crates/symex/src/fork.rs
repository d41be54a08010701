//! Path exploration by copy-on-write snapshot forking.
//!
//! A task is expressed as a *stepped* computation ([`ForkTask`]): the
//! engine snapshots the task's cloneable state at every step boundary, and
//! when a decision inside the step forks, the sibling job carries the
//! snapshot plus the short intra-step *replay* window — resuming costs one
//! clone instead of a re-run from cycle zero, restoring KLEE's
//! snapshotting discipline.
//!
//! Canonical path identity does not depend on snapshots: the full
//! decision bitstring is recorded per path, forks are scheduled in
//! creation order, and the frontier disciplines ([`SearchStrategy`]) are
//! deterministic in the seed. A job whose snapshot has been dropped
//! (memory spill, cross-worker migration) replays its whole decision
//! prefix from the root, so any job can always be completed from its
//! prefix alone. Re-execution is the case where every job spills
//! ([`EngineConfig::max_resident_snapshots`] = 0), and a closure run as
//! one step ([`FnTask`]) explores exactly that way.
//!
//! Shared-context invariant: all paths of one engine intern terms into a
//! single append-only [`Context`]. A snapshot therefore never copies the
//! term graph — its `TermId`s stay valid because nothing is ever removed.
//! The flip side is that snapshots are only meaningful inside the engine
//! (and worker) that created them; the fork-point watermark is simply the
//! length of the recorded decision prefix.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::engine::{EngineConfig, ExploreOutcome, PathResult, PathStatus, SearchStrategy};
use crate::solve::SolverBackend;
use crate::term::{Node, TermId};
use crate::wf::WfIssue;
use crate::{Context, Domain, TestVector};

/// What one [`ForkTask::step`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepResult<Out> {
    /// The task has more steps to run on this path.
    Continue,
    /// The path is finished and produced this value.
    Done(Out),
}

/// A deterministic computation the [`ForkEngine`] can snapshot.
///
/// The engine calls [`start`](ForkTask::start) once per root path and then
/// [`step`](ForkTask::step) repeatedly until it returns
/// [`StepResult::Done`]. The granularity of a step is the granularity of
/// snapshotting: forks inside a step replay only that step's decisions
/// from the pre-step snapshot.
///
/// Contract:
/// * the computation must be deterministic — the same decision sequence
///   performs the same domain operations in the same order and names its
///   symbolic inputs canonically;
/// * `step` must return `Done` promptly once the executor
///   [`is_dead`](crate::Domain::is_dead);
/// * `State` must capture everything the task carries across steps (terms
///   are handles into the shared context and clone freely).
pub trait ForkTask {
    /// Per-path state, cloned at snapshot points.
    type State: Clone;
    /// Per-path result value.
    type Out;

    /// Builds the initial state for a fresh path.
    fn start(&self, exec: &mut ForkExec) -> Self::State;

    /// Advances the path by one snapshot interval.
    fn step(&self, state: &mut Self::State, exec: &mut ForkExec) -> StepResult<Self::Out>;
}

/// A closure run as a one-step [`ForkTask`]: the whole path is a single
/// step, so every forked sibling resumes from the empty pre-step snapshot
/// and replays its decision prefix from the root — deterministic
/// re-execution. For explorations too small to be worth snapshotting.
#[derive(Debug, Clone, Copy)]
pub struct FnTask<F>(pub F);

impl<F, R> ForkTask for FnTask<F>
where
    F: Fn(&mut ForkExec) -> R,
{
    type State = ();
    type Out = R;

    fn start(&self, _exec: &mut ForkExec) {}

    fn step(&self, _state: &mut (), exec: &mut ForkExec) -> StepResult<R> {
        StepResult::Done((self.0)(exec))
    }
}

/// A copy-on-write snapshot: the task state plus the engine-side path
/// bookkeeping, all captured at a step boundary. The shared [`Context`] is
/// deliberately *not* part of the snapshot (append-only, see the module
/// docs).
///
/// Snapshots are built lazily — only when a step actually forked — and
/// shared between all the step's siblings through an [`Arc`], so an
/// n-way fork costs one clone of the state, not n.
#[derive(Debug, Clone)]
struct Snapshot<S> {
    state: S,
    constraints: Vec<TermId>,
    origins: Vec<crate::project::ConstraintOrigin>,
    taken: Vec<bool>,
    path_symbols: Vec<TermId>,
}

/// One schedulable unit of fork-engine work: a canonical decision prefix,
/// optionally accelerated by a snapshot taken at the last step boundary
/// before the fork.
#[derive(Debug, Clone)]
pub struct ForkJob<S> {
    prefix: Vec<bool>,
    snapshot: Option<Arc<Snapshot<S>>>,
}

impl<S> ForkJob<S> {
    /// The root job: empty prefix, no snapshot.
    pub fn root() -> ForkJob<S> {
        ForkJob::from_prefix(Vec::new())
    }

    /// Rebuilds a job from a bare decision prefix (whole-path replay).
    pub fn from_prefix(prefix: Vec<bool>) -> ForkJob<S> {
        ForkJob {
            prefix,
            snapshot: None,
        }
    }

    /// The canonical decision prefix identifying this path.
    pub fn prefix(&self) -> &[bool] {
        &self.prefix
    }

    /// Whether a snapshot is attached.
    pub fn has_snapshot(&self) -> bool {
        self.snapshot.is_some()
    }

    /// Drops the snapshot, degrading the job to a whole-prefix replay.
    /// This is the memory-bound spill and the cross-worker migration
    /// path.
    pub fn spill(self) -> ForkJob<S> {
        ForkJob::from_prefix(self.prefix)
    }
}

/// Per-path symbolic executor of the [`ForkEngine`]; implements [`Domain`]
/// over term handles, plus an intra-step replay window for resuming from
/// snapshots.
///
/// Beyond the `Domain` operations it offers the path-level queries
/// verification harnesses (the voter, the mismatch reporter) need:
/// [`ForkExec::check_sat`] (is a condition possible here?),
/// [`ForkExec::add_constraint`] and history-independent model extraction.
/// It owns the context and solver (they persist across paths inside the
/// engine), so tasks hold `&mut ForkExec` only for the duration of a call.
#[derive(Debug)]
pub struct ForkExec {
    ctx: Context,
    backend: SolverBackend,
    replay: VecDeque<bool>,
    taken: Vec<bool>,
    constraints: Vec<TermId>,
    origins: Vec<crate::project::ConstraintOrigin>,
    /// Sibling prefixes of the current step's forks, in creation order.
    forks: Vec<Vec<bool>>,
    path_symbols: Vec<TermId>,
    status: PathStatus,
    max_decisions: usize,
    projector: crate::project::Projector,
    lanes: crate::lanes::LaneRewriter,
}

impl ForkExec {
    fn new(max_decisions: usize, solver_chain: bool, audit: bool, incremental: bool) -> ForkExec {
        ForkExec {
            ctx: Context::new(),
            backend: SolverBackend::with_config(solver_chain, audit, incremental),
            replay: VecDeque::new(),
            taken: Vec::new(),
            constraints: Vec::new(),
            origins: Vec::new(),
            forks: Vec::new(),
            path_symbols: Vec::new(),
            status: PathStatus::Complete,
            max_decisions,
            projector: crate::project::Projector::new(),
            lanes: crate::lanes::LaneRewriter::default(),
        }
    }

    /// Records a decision constraint on the path.
    fn record_decision(&mut self, constraint: TermId, choice: bool) {
        self.constraints.push(constraint);
        self.origins
            .push(crate::project::ConstraintOrigin::Decision(
                self.taken.len() as u32
            ));
        self.taken.push(choice);
    }

    /// The term context (symbolic values are [`TermId`]s into it).
    pub fn context(&mut self) -> &mut Context {
        &mut self.ctx
    }

    /// The constraints accumulated on this path so far.
    pub fn constraints(&self) -> &[TermId] {
        &self.constraints
    }

    /// The node behind `term`: the structural view a harness matches
    /// against (the voter's register-congruence rule reads `ite` and
    /// `== constant` shapes through it).
    pub fn node(&self, term: TermId) -> Node {
        self.ctx.node(term)
    }

    /// Whether `cond` is satisfiable together with the path condition —
    /// *without* committing to it.
    ///
    /// This is the voter's primitive: "can the two models disagree here?".
    ///
    /// A query that does not fold is first asked of the path's forced
    /// environment, then rebuilt with the lane constants the path forces
    /// (see [`crate::lanes`]).
    pub fn check_sat(&mut self, cond: TermId) -> bool {
        if let Some(value) = self.ctx.const_value(cond) {
            return value == 1;
        }
        if !self.is_dead() {
            if let Some(value) = self.forced(cond) {
                return value;
            }
        }
        let facts = crate::lanes::forced_lanes(&self.ctx, &self.constraints);
        let query = self.lanes.rewrite(&mut self.ctx, facts, cond);
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

    /// Debug builds: [`ForkExec::check_sat`] asked as it is, with no query
    /// rewrite. The reference that rewritten answers and the voter's
    /// skipped miters are checked against.
    #[cfg(debug_assertions)]
    pub fn reference_sat(&mut self, cond: TermId) -> bool {
        self.path_sat(cond)
    }

    /// Whether the path condition forces `cond` true or false, when its
    /// own conjuncts decide it (see [`SolverBackend::forced`]): the answer
    /// the solver would give on a live path, whose condition is
    /// satisfiable, with no query built. Debug builds re-ask the solver
    /// chain and check that it agrees.
    fn forced(&mut self, cond: TermId) -> Option<bool> {
        let sat = self
            .backend
            .forced(&self.ctx, &self.constraints, cond)?
            .is_sat();
        #[cfg(debug_assertions)]
        {
            self.backend.prefix_sync(&self.constraints);
            assert_eq!(
                self.backend.check_suffix(&self.ctx, &[cond]).is_sat(),
                sat,
                "the path's forced environment changed a query's answer"
            );
        }
        Some(sat)
    }

    /// [`ForkExec::check_sat`] without the forced environment and the lane
    /// rewrite.
    fn path_sat(&mut self, cond: TermId) -> bool {
        if let Some(value) = self.ctx.const_value(cond) {
            return value == 1;
        }
        // During replay this is usually a cache hit: the parent path
        // asked the identical condition set.
        self.backend.prefix_sync(&self.constraints);
        self.backend.check_suffix(&self.ctx, &[cond]).is_sat()
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
    /// [`Projector::project_path`](crate::Projector::project_path)) — the
    /// coverage certifier's input. Constraints committed via
    /// [`ForkExec::add_constraint`] are excluded (they narrow the path
    /// *after* its behaviour class is fixed).
    #[must_use]
    pub fn project_coverage(&mut self, slot_prefix: &str) -> Vec<crate::project::SlotCoverage> {
        self.projector
            .project_path(&self.ctx, slot_prefix, &self.constraints, &self.origins)
    }

    /// A concrete witness for `term` under the path condition plus
    /// `extra`, extracted from a fresh solver: the value depends only on
    /// the path condition plus `extra`, not on the query history of the
    /// engine's persistent solver. Reports that must be identical across
    /// sequential and parallel exploration extract their witnesses
    /// through this. `None` if the combined constraints are infeasible.
    pub fn stable_concrete_witness(&mut self, term: TermId, extra: &[TermId]) -> Option<u64> {
        let mut conditions = self.constraints.clone();
        conditions.extend_from_slice(extra);
        crate::solve::fresh_model_value(&self.ctx, &conditions, term)
    }

    /// A history-independent test vector (KLEE's `.ktest` equivalent) for
    /// the path condition plus `extra`, covering the symbols created on
    /// this path (fresh solver; see [`ForkExec::stable_concrete_witness`]).
    pub fn stable_witness_vector(&mut self, extra: &[TermId]) -> Option<TestVector> {
        let mut conditions = self.constraints.clone();
        conditions.extend_from_slice(extra);
        crate::solve::fresh_model_vector(&self.ctx, &conditions, &self.path_symbols)
    }

    /// Runs the full [well-formedness pass](crate::wf::validate_path) over
    /// this path's condition and symbolic reads.
    #[must_use]
    pub fn lint_path(&self) -> Vec<WfIssue> {
        crate::wf::validate_path(&self.ctx, &self.constraints, &self.path_symbols)
    }

    /// [`ForkExec::lint_path`] with the path's output frontier, so symbols
    /// in no constraint and no output term are reported as dead (see
    /// [`validate_path_with_outputs`](crate::wf::validate_path_with_outputs)).
    #[must_use]
    pub fn lint_path_with_outputs(&self, outputs: &[TermId]) -> Vec<WfIssue> {
        crate::wf::validate_path_with_outputs(
            &self.ctx,
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

    fn begin_path<S>(&mut self, prefix: Vec<bool>, snapshot: Option<&Snapshot<S>>) {
        match snapshot {
            Some(snap) => {
                debug_assert!(snap.taken.len() <= prefix.len());
                debug_assert_eq!(&prefix[..snap.taken.len()], &snap.taken[..]);
                self.replay = prefix[snap.taken.len()..].iter().copied().collect();
                self.taken = snap.taken.clone();
                self.constraints = snap.constraints.clone();
                self.origins = snap.origins.clone();
                self.path_symbols = snap.path_symbols.clone();
            }
            None => {
                self.replay = prefix.into_iter().collect();
                self.taken = Vec::new();
                self.constraints = Vec::new();
                self.origins = Vec::new();
                self.path_symbols = Vec::new();
            }
        }
        self.forks = Vec::new();
        self.status = PathStatus::Complete;
    }
}

impl Domain for ForkExec {
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
        if let Some(choice) = self.replay.pop_front() {
            // Replaying a forced window (snapshot resume or spilled
            // prefix): feasibility was established when the fork was
            // scheduled, no solver call needed.
            let constraint = if choice { cond } else { self.ctx.not(cond) };
            self.record_decision(constraint, choice);
            return choice;
        }
        if self.taken.len() >= self.max_decisions {
            self.kill(PathStatus::DecisionLimit);
            return false;
        }
        let choice = match self.forced(cond) {
            Some(choice) => choice,
            None => {
                // Both polarity probes share the whole path condition as
                // their prefix; suffix queries let the incremental solver
                // retain the prefix's propagation trail between them.
                self.backend.prefix_sync(&self.constraints);
                let true_feasible = self.backend.check_suffix(&self.ctx, &[cond]).is_sat();
                if true_feasible {
                    let negated = self.ctx.not(cond);
                    if self.backend.check_suffix(&self.ctx, &[negated]).is_sat() {
                        // Both sides feasible: fork, continue on `true`.
                        let mut sibling = self.taken.clone();
                        sibling.push(false);
                        self.forks.push(sibling);
                    }
                }
                // The path condition is feasible by induction, so if
                // `true` is not, `false` is.
                true_feasible
            }
        };
        let constraint = if choice { cond } else { self.ctx.not(cond) };
        self.backend.prefix_push(constraint);
        self.record_decision(constraint, choice);
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
        if !self.replay.is_empty() {
            // Inside the replayed window the identical constraint set was
            // checked satisfiable on the parent path (the parent stayed
            // alive past this point, and the flipped branch itself was
            // checked at fork time), so the check is guaranteed Sat —
            // skip it.
            self.constraints.push(cond);
            self.origins.push(crate::project::ConstraintOrigin::Assumed);
            return;
        }
        let feasible = self.forced(cond).unwrap_or_else(|| self.path_sat(cond));
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

/// The snapshotting exploration engine: the one path engine.
///
/// Owns the term [`Context`] and the incremental [`SolverBackend`] (inside
/// its [`ForkExec`]); both are shared across paths so hash-consed terms
/// and learnt clauses carry over. See the [module docs](self) for the
/// architecture and the [crate documentation](crate) for an example.
#[derive(Debug)]
pub struct ForkEngine {
    exec: ForkExec,
    config: EngineConfig,
    rng_state: u64,
}

impl ForkEngine {
    /// Creates an engine with the given configuration.
    pub fn new(config: EngineConfig) -> ForkEngine {
        let mut exec = ForkExec::new(
            config.max_decisions_per_path,
            config.solver_chain,
            config.audit,
            config.incremental,
        );
        exec.backend.set_preflight(config.preflight);
        ForkEngine {
            exec,
            config: config.clone(),
            rng_state: config.seed | 1,
        }
    }

    /// Read access to the term context.
    pub fn ctx(&self) -> &Context {
        &self.exec.ctx
    }

    /// The solver backend, e.g. for statistics.
    pub fn backend(&self) -> &SolverBackend {
        &self.exec.backend
    }

    /// Drains the proof auditor's certified conflict cones (see
    /// [`SolverBackend::take_audit_units`]). Empty when auditing is off.
    pub fn take_audit_units(&mut self) -> Vec<symcosim_sat::CoreReplayUnit> {
        self.exec.backend.take_audit_units()
    }

    /// Exports the solver chain's caches for warming a later identical
    /// run (see [`crate::ChainSeed`]). Empty when the chain is disabled.
    pub fn export_chain_seed(&self) -> crate::ChainSeed {
        self.exec.backend.export_chain_seed()
    }

    /// Pre-warms the solver chain from a seed exported by an identical
    /// run; answers are unchanged, only cheaper.
    pub fn import_chain_seed(&mut self, seed: &crate::ChainSeed) {
        self.exec.backend.import_chain_seed(seed);
    }

    /// Runs the single path selected by `job` and returns its result plus
    /// the sibling jobs scheduled at fresh forks, in creation order
    /// (shallowest first).
    ///
    /// This is [`ForkEngine::explore_until`]'s loop body, exposed so an
    /// external scheduler (the parallel executor) can drive its own
    /// frontier. Everything except the task's own value is a pure
    /// function of the job's prefix and the task — feasibility answers are
    /// objective, independent of the persistent solver's query history —
    /// so a snapshotted job and its spilled twin produce identical
    /// results, and two engines given the same job agree whatever they
    /// ran before.
    pub fn run_job<T: ForkTask>(
        &mut self,
        job: ForkJob<T::State>,
        task: &T,
    ) -> (PathResult<T::Out>, Vec<ForkJob<T::State>>) {
        let ForkJob { prefix, snapshot } = job;
        self.exec.begin_path(prefix, snapshot.as_deref());
        // Move out of the snapshot when this job holds the last reference;
        // clone only when siblings still share it.
        let mut state: Option<T::State> = snapshot.map(|s| match Arc::try_unwrap(s) {
            Ok(snap) => snap.state,
            Err(shared) => shared.state.clone(),
        });
        let mut jobs: Vec<ForkJob<T::State>> = Vec::new();
        let value = loop {
            let (done, snap) = match state.take() {
                None => {
                    // Forks inside `start` (decisions before the first step
                    // boundary) have no pre-state; their siblings replay the
                    // whole prefix.
                    state = Some(task.start(&mut self.exec));
                    (None, None)
                }
                Some(pre_state) => {
                    // The engine-side bookkeeping is append-only within a
                    // path, so the pre-step snapshot needs only watermark
                    // lengths now and is materialised *after* the step, and
                    // only if the step actually forked.
                    let constraints_mark = self.exec.constraints.len();
                    let taken_mark = self.exec.taken.len();
                    let symbols_mark = self.exec.path_symbols.len();
                    let mut next = pre_state.clone();
                    let done = match task.step(&mut next, &mut self.exec) {
                        StepResult::Continue => None,
                        StepResult::Done(out) => Some(out),
                    };
                    let snap = (!self.exec.forks.is_empty()).then(|| {
                        Arc::new(Snapshot {
                            state: pre_state,
                            constraints: self.exec.constraints[..constraints_mark].to_vec(),
                            origins: self.exec.origins[..constraints_mark].to_vec(),
                            taken: self.exec.taken[..taken_mark].to_vec(),
                            path_symbols: self.exec.path_symbols[..symbols_mark].to_vec(),
                        })
                    });
                    state = Some(next);
                    (done, snap)
                }
            };
            for prefix in std::mem::take(&mut self.exec.forks) {
                jobs.push(ForkJob {
                    prefix,
                    snapshot: snap.clone(),
                });
            }
            if let Some(out) = done {
                break out;
            }
        };
        debug_assert!(
            self.exec.replay.is_empty() || self.exec.is_dead(),
            "task finished with unconsumed replay decisions"
        );
        // Debug builds re-validate the path condition after every path
        // (node-local checks only; the full pass is ForkExec::lint_path)
        // and re-solve it on a fresh solver.
        #[cfg(debug_assertions)]
        crate::solve::debug_check_path(
            &self.exec.ctx,
            &self.exec.constraints,
            &self.exec.path_symbols,
            self.exec.status,
        );
        let result = PathResult {
            value,
            status: self.exec.status,
            decisions: self.exec.taken.clone(),
            num_constraints: self.exec.constraints.len(),
        };
        (result, jobs)
    }

    /// Explores every feasible path through `task`.
    ///
    /// Each path runs until the task finishes; the engine keeps running
    /// jobs until the frontier empties or [`EngineConfig::max_paths`] is
    /// hit.
    pub fn explore<T: ForkTask>(&mut self, task: &T) -> ExploreOutcome<T::Out> {
        self.explore_until(task, |_| false)
    }

    /// Like [`ForkEngine::explore`], but stops as soon as `stop` returns
    /// true for a just-completed path (e.g. "a mismatch was found") — the
    /// error-injection experiments' mode of operation.
    ///
    /// The frontier bounds resident snapshots to
    /// [`EngineConfig::max_resident_snapshots`]; beyond that, new forks are
    /// spilled to prefix-only jobs.
    pub fn explore_until<T: ForkTask, P>(&mut self, task: &T, mut stop: P) -> ExploreOutcome<T::Out>
    where
        P: FnMut(&PathResult<T::Out>) -> bool,
    {
        let mut frontier: Vec<ForkJob<T::State>> = vec![ForkJob::root()];
        let mut resident = 0usize;
        let mut paths = Vec::new();
        let mut complete = 0usize;
        let mut partial = 0usize;

        while let Some(job) = self.pop_frontier(&mut frontier) {
            if job.has_snapshot() {
                resident -= 1;
            }
            if paths.len() >= self.config.max_paths {
                return ExploreOutcome {
                    paths,
                    complete_paths: complete,
                    partial_paths: partial,
                    frontier_exhausted: true,
                    paths_dropped: frontier.len() + 1,
                };
            }
            let (result, forks) = self.run_job(job, task);
            for fork in forks {
                if fork.has_snapshot() && resident >= self.config.max_resident_snapshots {
                    frontier.push(fork.spill());
                } else {
                    if fork.has_snapshot() {
                        resident += 1;
                    }
                    frontier.push(fork);
                }
            }
            match result.status {
                PathStatus::Complete => complete += 1,
                _ => partial += 1,
            }
            paths.push(result);
            if stop(paths.last().expect("just pushed")) {
                return ExploreOutcome {
                    frontier_exhausted: !frontier.is_empty(),
                    paths_dropped: frontier.len(),
                    paths,
                    complete_paths: complete,
                    partial_paths: partial,
                };
            }
        }

        ExploreOutcome {
            paths,
            complete_paths: complete,
            partial_paths: partial,
            frontier_exhausted: false,
            paths_dropped: 0,
        }
    }

    fn pop_frontier<S>(&mut self, frontier: &mut Vec<ForkJob<S>>) -> Option<ForkJob<S>> {
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A task's value plus its path's model, extracted inside the task the
    /// way the session extracts a finding's witness.
    type Out = (u32, Option<String>);

    fn model(exec: &mut ForkExec) -> Option<String> {
        exec.stable_witness_vector(&[]).map(|v| v.to_string())
    }

    /// One decision per step over distinct bits of one symbol: 2^bits
    /// feasible paths.
    struct BitTask {
        bits: u32,
    }

    #[derive(Debug, Clone)]
    struct BitState {
        value: u32,
        bit: u32,
    }

    impl ForkTask for BitTask {
        type State = BitState;
        type Out = Out;

        fn start(&self, _exec: &mut ForkExec) -> BitState {
            BitState { value: 0, bit: 0 }
        }

        fn step(&self, state: &mut BitState, exec: &mut ForkExec) -> StepResult<Out> {
            if exec.is_dead() || state.bit >= self.bits {
                return StepResult::Done((state.value, model(exec)));
            }
            let x = exec.fresh_word("x");
            let field = exec.field(x, state.bit, state.bit);
            let one = exec.const_word(1);
            let set = exec.eq_w(field, one);
            if exec.decide(set) {
                state.value |= 1 << state.bit;
            }
            state.bit += 1;
            StepResult::Continue
        }
    }

    /// [`BitTask`] as one closure: every sibling replays from the root.
    fn closure_bit_task(bits: u32) -> FnTask<impl Fn(&mut ForkExec) -> Out> {
        FnTask(move |exec: &mut ForkExec| {
            let x = exec.fresh_word("x");
            let mut value = 0u32;
            for bit in 0..bits {
                let field = exec.field(x, bit, bit);
                let one = exec.const_word(1);
                let set = exec.eq_w(field, one);
                if exec.decide(set) {
                    value |= 1 << bit;
                }
            }
            (value, model(exec))
        })
    }

    fn fingerprint(paths: &[PathResult<Out>]) -> Vec<String> {
        paths
            .iter()
            .map(|p| {
                format!(
                    "{:?}|{:?}|{}|{}",
                    p.value,
                    p.decisions,
                    p.num_constraints,
                    p.status == PathStatus::Complete,
                )
            })
            .collect()
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
            let stepped = ForkEngine::new(config.clone()).explore(&BitTask { bits: 3 });
            let mut values: Vec<u32> = stepped.paths.iter().map(|p| p.value.0).collect();
            values.sort_unstable();
            assert_eq!(values, (0..8).collect::<Vec<u32>>(), "{strategy:?}");
            // The closure re-executed from the root visits the same
            // canonical paths in the same order, with the same models.
            let replayed = ForkEngine::new(config).explore(&closure_bit_task(3));
            assert_eq!(
                fingerprint(&replayed.paths),
                fingerprint(&stepped.paths),
                "{strategy:?}"
            );
            assert_eq!(replayed.complete_paths, stepped.complete_paths);
            assert_eq!(replayed.frontier_exhausted, stepped.frontier_exhausted);
        }
    }

    /// A task exercising every path-level query across steps: an assume,
    /// a decision, a `check_sat` probe, a committed constraint, another
    /// decision, a probe that the assumption still holds, and stable
    /// witness extraction. The value records the outcomes as flag bits.
    struct ProbeTask;

    const ODD: u32 = 1;
    const COMMITTED: u32 = 2;
    const BELOW_50: u32 = 4;
    const ASSUME_LOST: u32 = 8;

    #[derive(Debug, Clone)]
    struct ProbeState {
        x: TermId,
        step: u32,
        flags: u32,
    }

    impl ForkTask for ProbeTask {
        type State = ProbeState;
        type Out = Out;

        fn start(&self, exec: &mut ForkExec) -> ProbeState {
            let x = exec.fresh_word("x");
            ProbeState {
                x,
                step: 0,
                flags: 0,
            }
        }

        fn step(&self, state: &mut ProbeState, exec: &mut ForkExec) -> StepResult<Out> {
            let x = state.x;
            if exec.is_dead() {
                return StepResult::Done((state.flags, None));
            }
            match state.step {
                0 => {
                    let hundred = exec.const_word(100);
                    let small = exec.ult(x, hundred);
                    exec.assume(small);
                    let low = exec.field(x, 0, 0);
                    let odd = exec.eq_const(low, 1);
                    if exec.decide(odd) {
                        state.flags |= ODD;
                    }
                }
                1 => {
                    // Possible only on the odd arm; committing it there
                    // forces the next decision.
                    let is7 = exec.eq_const(x, 7);
                    if exec.check_sat(is7) {
                        exec.add_constraint(is7);
                        state.flags |= COMMITTED;
                    }
                    let fifty = exec.const_word(50);
                    let below = exec.ult(x, fifty);
                    if exec.decide(below) {
                        state.flags |= BELOW_50;
                    }
                }
                _ => {
                    // A replayed assumption must stay in the path condition.
                    let hundred = exec.const_word(100);
                    let small = exec.ult(x, hundred);
                    let large = exec.not_b(small);
                    if exec.check_sat(large) {
                        state.flags |= ASSUME_LOST;
                    }
                    let witness = exec.stable_concrete_witness(x, &[]);
                    let vector = model(exec);
                    let extracted = format!("{witness:?} {vector:?}");
                    return StepResult::Done((state.flags, Some(extracted)));
                }
            }
            state.step += 1;
            StepResult::Continue
        }
    }

    #[test]
    fn spilled_jobs_match_snapshotted_jobs() {
        // Forcing every fork to spill (max_resident_snapshots = 0) is
        // re-execution: each sibling replays its prefix from the root. It
        // must not change any path outcome — only the cost of resuming.
        let snappy = EngineConfig::default();
        let spilly = EngineConfig {
            max_resident_snapshots: 0,
            ..EngineConfig::default()
        };
        let baseline = ForkEngine::new(snappy.clone()).explore(&BitTask { bits: 4 });
        let spilled = ForkEngine::new(spilly.clone()).explore(&BitTask { bits: 4 });
        assert_eq!(fingerprint(&baseline.paths), fingerprint(&spilled.paths));

        let baseline = ForkEngine::new(snappy).explore(&ProbeTask);
        let spilled = ForkEngine::new(spilly).explore(&ProbeTask);
        assert_eq!(fingerprint(&baseline.paths), fingerprint(&spilled.paths));
        // Odd arm: x = 7 committed, `x < 50` forced; even arm: forks.
        assert_eq!(
            baseline.paths.len(),
            3,
            "{:#?}",
            fingerprint(&baseline.paths)
        );
        assert!(
            baseline.paths.iter().all(|p| p.value.0 & ASSUME_LOST == 0),
            "{:#?}",
            fingerprint(&baseline.paths)
        );
        let committed: Vec<&Out> = baseline
            .paths
            .iter()
            .map(|p| &p.value)
            .filter(|v| v.0 & COMMITTED != 0)
            .collect();
        assert_eq!(committed.len(), 1);
        assert!(
            committed[0]
                .1
                .as_deref()
                .is_some_and(|w| w.starts_with("Some(7)")),
            "{committed:?}"
        );
    }

    #[test]
    fn run_job_is_history_independent() {
        // The same spilled prefix on a fresh engine and on a warmed-up
        // engine: identical result and forks.
        let prefix = vec![true, false];
        let task = BitTask { bits: 3 };
        let mut fresh = ForkEngine::new(EngineConfig::default());
        let (baseline, base_forks) = fresh.run_job(ForkJob::from_prefix(prefix.clone()), &task);

        let mut warmed = ForkEngine::new(EngineConfig::default());
        warmed.run_job(ForkJob::root(), &task);
        warmed.run_job(ForkJob::from_prefix(vec![false]), &task);
        let (repeat, repeat_forks) = warmed.run_job(ForkJob::from_prefix(prefix), &task);

        assert!(baseline.value.1.is_some(), "feasible path has a model");
        assert_eq!(
            repeat.value, baseline.value,
            "values and models must be stable"
        );
        assert_eq!(repeat.status, baseline.status);
        assert_eq!(repeat.decisions, baseline.decisions);
        let (a, b): (Vec<_>, Vec<_>) = (
            base_forks.iter().map(|j| j.prefix().to_vec()).collect(),
            repeat_forks.iter().map(|j| j.prefix().to_vec()).collect(),
        );
        assert_eq!(a, b);
    }

    struct AssumeTask;

    impl ForkTask for AssumeTask {
        type State = u32;
        type Out = bool;

        fn start(&self, _exec: &mut ForkExec) -> u32 {
            0
        }

        fn step(&self, state: &mut u32, exec: &mut ForkExec) -> StepResult<bool> {
            if exec.is_dead() {
                return StepResult::Done(exec.is_dead());
            }
            match *state {
                0 => {
                    let x = exec.fresh_word("x");
                    let three = exec.const_word(3);
                    let is3 = exec.eq_w(x, three);
                    exec.assume(is3);
                }
                1 => {
                    let x = exec.fresh_word("x");
                    let four = exec.const_word(4);
                    let is4 = exec.eq_w(x, four);
                    exec.assume(is4); // contradiction
                }
                _ => return StepResult::Done(exec.is_dead()),
            }
            *state += 1;
            StepResult::Continue
        }
    }

    #[test]
    fn contradictory_assumes_mark_infeasible() {
        let mut engine = ForkEngine::new(EngineConfig::default());
        let outcome = engine.explore(&AssumeTask);
        assert_eq!(outcome.paths.len(), 1);
        assert_eq!(outcome.paths[0].status, PathStatus::Infeasible);
        assert_eq!(outcome.partial_paths, 1);
        assert!(outcome.paths[0].value);
    }

    #[test]
    fn infeasible_branches_are_pruned() {
        let mut engine = ForkEngine::new(EngineConfig::default());
        let outcome = engine.explore(&FnTask(|exec: &mut ForkExec| {
            let x = exec.fresh_word("x");
            let five = exec.const_word(5);
            let lt5 = exec.ult(x, five);
            let first = exec.decide(lt5);
            // If x < 5, then x < 100 is forced: no second fork.
            let hundred = exec.const_word(100);
            let lt100 = exec.ult(x, hundred);
            let second = exec.decide(lt100);
            (first, second)
        }));
        // Paths: (T,T), (F,T), (F,F) — (T,F) is infeasible and never forked.
        assert_eq!(outcome.paths.len(), 3);
        assert!(!outcome.paths.iter().any(|p| p.value == (true, false)));
    }

    #[test]
    fn concrete_computations_do_not_fork() {
        let mut engine = ForkEngine::new(EngineConfig::default());
        let outcome = engine.explore(&FnTask(|exec: &mut ForkExec| {
            let a = exec.const_word(6);
            let b = exec.const_word(7);
            let product = exec.mul(a, b);
            let c42 = exec.const_word(42);
            let eq = exec.eq_w(product, c42);
            exec.decide(eq)
        }));
        assert_eq!(outcome.paths.len(), 1);
        assert!(outcome.paths[0].value);
        assert!(outcome.paths[0].decisions.is_empty());
    }

    #[test]
    fn check_sat_does_not_commit() {
        let mut engine = ForkEngine::new(EngineConfig::default());
        let outcome = engine.explore(&FnTask(|exec: &mut ForkExec| {
            let x = exec.fresh_word("x");
            let seven = exec.const_word(7);
            let is7 = exec.eq_w(x, seven);
            let possible = exec.check_sat(is7);
            let not7 = exec.not_b(is7);
            let also_possible = exec.check_sat(not7);
            (possible, also_possible)
        }));
        assert_eq!(outcome.paths.len(), 1);
        assert_eq!(outcome.paths[0].value, (true, true));
    }

    #[test]
    fn decision_limit_counts_as_partial() {
        let config = EngineConfig {
            max_decisions_per_path: 2,
            ..EngineConfig::default()
        };
        let mut engine = ForkEngine::new(config);
        let outcome = engine.explore(&BitTask { bits: 8 });
        assert!(outcome
            .paths
            .iter()
            .any(|p| p.status == PathStatus::DecisionLimit));
    }

    #[test]
    fn a_forced_decision_past_the_limit_still_ends_the_path() {
        // The second decision is forced on both arms of the first, yet it
        // is one decision too many: the limit wins over the answer.
        let config = EngineConfig {
            max_decisions_per_path: 1,
            ..EngineConfig::default()
        };
        let mut engine = ForkEngine::new(config);
        let outcome = engine.explore(&FnTask(|exec: &mut ForkExec| {
            let x = exec.fresh_word("x");
            let is5 = exec.eq_const(x, 5);
            let first = exec.decide(is5);
            let second = exec.decide(is5);
            (first, second)
        }));
        assert_eq!(outcome.paths.len(), 2);
        for path in &outcome.paths {
            assert_eq!(path.status, PathStatus::DecisionLimit, "{path:?}");
            assert_eq!(path.decisions.len(), 1);
        }
        assert_eq!(engine.backend().solver_chain_stats().preflight_hits, 0);
    }

    #[test]
    fn forced_branches_are_answered_from_the_path() {
        // After `x == 5` and `a == b` are decided, asking them again (or
        // their negations) is answered from the path's forced
        // environment. With the check off, or the chain with it, every
        // answer is the solver's, and the paths are the same.
        let task = FnTask(|exec: &mut ForkExec| {
            let x = exec.fresh_word("x");
            let a = exec.fresh_word("a");
            let b = exec.fresh_word("b");
            let is5 = exec.eq_const(x, 5);
            let same = exec.eq_w(a, b);
            let first = (exec.decide(is5), exec.decide(same));
            let differ = exec.not_b(same);
            let probes = (exec.check_sat(differ), exec.check_sat(is5));
            let again = (exec.decide(is5), exec.decide(same));
            (first, probes, again)
        });
        let mut on = ForkEngine::new(EngineConfig::default());
        let outcome = on.explore(&task);
        assert_eq!(outcome.paths.len(), 4);
        for path in &outcome.paths {
            let ((is5, same), (differ, possible5), again) = path.value;
            assert_eq!((differ, possible5), (!same, is5));
            assert_eq!(again, (is5, same));
        }
        // Two probes and two decisions per path.
        assert_eq!(on.backend().solver_chain_stats().preflight_hits, 16);
        for config in [
            EngineConfig {
                preflight: false,
                ..EngineConfig::default()
            },
            EngineConfig {
                solver_chain: false,
                ..EngineConfig::default()
            },
        ] {
            let mut off = ForkEngine::new(config);
            let reference = off.explore(&task);
            assert_eq!(off.backend().solver_chain_stats().preflight_hits, 0);
            for (on, off) in outcome.paths.iter().zip(&reference.paths) {
                assert_eq!(on.value, off.value);
                assert_eq!(on.decisions, off.decisions);
            }
        }
    }

    #[test]
    fn max_paths_truncates_search() {
        let config = EngineConfig {
            max_paths: 3,
            ..EngineConfig::default()
        };
        let mut engine = ForkEngine::new(config);
        let outcome = engine.explore(&BitTask { bits: 6 });
        assert_eq!(outcome.paths.len(), 3);
        assert!(outcome.frontier_exhausted);
    }

    #[test]
    fn replay_performs_no_solver_work() {
        // The whole point of the fork engine: resuming a sibling replays
        // forced decisions without feasibility checks, so exploring a
        // 2^4-path tree issues far fewer queries than 16 re-runs would.
        let mut engine = ForkEngine::new(EngineConfig::default());
        engine.explore(&BitTask { bits: 4 });
        let cache = engine.backend().query_cache_stats();
        let queries = cache.hits + cache.misses;
        // Each of the 15 fresh decisions asks at most 2 queries; replayed
        // decisions ask none.
        assert!(queries <= 30, "replay must not issue queries ({queries})");
    }
}
