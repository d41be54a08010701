//! Path exploration by copy-on-write snapshot forking.
//!
//! The re-execution [`Engine`](crate::Engine) pays O(d²) model steps for a
//! decision tree of depth *d*: every scheduled prefix re-runs the user
//! closure from cycle zero. This module restores KLEE's snapshotting
//! discipline. A task is expressed as a *stepped* computation
//! ([`ForkTask`]): the engine snapshots the task's cloneable state at every
//! step boundary, and when a decision inside the step forks, the sibling
//! job carries the snapshot plus the short intra-step *replay* window —
//! resuming costs one clone instead of a full re-run.
//!
//! Canonical path identity is preserved: the full decision bitstring is
//! still recorded per path, forks are scheduled in the same order, and the
//! frontier disciplines ([`SearchStrategy`]) mirror the re-execution engine
//! bit for bit. A job whose snapshot has been dropped (memory spill,
//! cross-worker migration) degrades gracefully to whole-prefix replay, so
//! any job can always be completed from its prefix alone.
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
use crate::probe::PathProbe;
use crate::solve::SolverBackend;
use crate::term::{Node, TermId};
use crate::wf::WfIssue;
use crate::{Context, Domain, TestVector};

/// Which path-exploration engine a session should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Deterministic re-execution ([`Engine`](crate::Engine)): every path
    /// re-runs the model from cycle zero, replaying its decision prefix.
    Reexec,
    /// Copy-on-write snapshot forking ([`ForkEngine`]): decision points
    /// clone the stepped task state instead of scheduling a re-run.
    #[default]
    Fork,
}

impl EngineKind {
    /// Parses the CLI spelling (`"fork"` / `"reexec"`).
    pub fn parse(token: &str) -> Option<EngineKind> {
        match token {
            "fork" => Some(EngineKind::Fork),
            "reexec" => Some(EngineKind::Reexec),
            _ => None,
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineKind::Reexec => write!(f, "reexec"),
            EngineKind::Fork => write!(f, "fork"),
        }
    }
}

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

    /// Whether the engine may attempt veritesting-style state merging on
    /// this task's paths (see [`crate::merge`]). A merge-capable task
    /// must also implement [`states_equal`](ForkTask::states_equal),
    /// [`merge_outputs`](ForkTask::merge_outputs) and
    /// [`expand_arm`](ForkTask::expand_arm) coherently. Off by default.
    fn merge_capable(&self) -> bool {
        false
    }

    /// Whether two post-step states are term-identical — every symbolic
    /// component is the same hash-consed [`TermId`] and every concrete
    /// component is equal. Only such states may merge: the continuation
    /// then performs literally identical domain operations on every arm,
    /// which is what makes the per-arm records byte-identical to their
    /// unmerged runs. The conservative default never merges.
    fn states_equal(&self, _a: &Self::State, _b: &Self::State) -> bool {
        false
    }

    /// The observable output frontier of a state: the terms whose values
    /// the task's result exposes. The merge gate
    /// ([`crate::merge::proves_mergeable`]) refuses to merge arms whose
    /// diverging fetch-slot bits any of these terms demands.
    fn merge_outputs(&self, _state: &Self::State) -> Vec<TermId> {
        Vec::new()
    }

    /// Rebuilds the per-arm result value after the engine swapped a
    /// merged arm's ledger into `exec` (constraints, origins and decision
    /// prefix are the arm's; the state is the shared final state). All
    /// extraction must be history-independent so the value matches the
    /// arm's own unmerged run byte-for-byte. Returning `None` (the
    /// default) makes the engine re-schedule the arm as a whole-prefix
    /// replay instead.
    fn expand_arm(&self, _state: &Self::State, _exec: &mut ForkExec) -> Option<Self::Out> {
        None
    }
}

/// The path ledger of one merged sibling arm (see [`crate::merge`]).
///
/// A merged physical path carries the primary arm's ledger in the
/// [`ForkExec`] fields and one `MergeArm` per absorbed sibling. The arms
/// share the task state and the symbol list with the primary — merging
/// requires both to be identical — and diverge only in their constraint
/// and decision history.
#[derive(Debug, Clone)]
struct MergeArm {
    constraints: Vec<TermId>,
    origins: Vec<crate::project::ConstraintOrigin>,
    taken: Vec<bool>,
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
    arms: Vec<MergeArm>,
}

/// What running one job produces: the path records of the physical path
/// (one, or several when merged sibling arms rode along) plus the sibling
/// jobs scheduled at fresh forks.
pub type JobOutcome<S, O> = (Vec<PathResult<O>>, Vec<ForkJob<S>>);

/// One schedulable unit of fork-engine work: a canonical decision prefix,
/// optionally accelerated by a snapshot taken at the last step boundary
/// before the fork.
#[derive(Debug, Clone)]
pub struct ForkJob<S> {
    prefix: Vec<bool>,
    snapshot: Option<Arc<Snapshot<S>>>,
    /// Decision prefixes of the merged sibling arms riding on this job
    /// (empty for ordinary jobs). They are redundant with the snapshot's
    /// arm ledgers while the snapshot is alive and become the re-split
    /// replays when it is dropped — a bare prefix cannot reconstruct a
    /// merge, so spilling a merged job must split it.
    arm_prefixes: Vec<Vec<bool>>,
}

impl<S> ForkJob<S> {
    /// The root job: empty prefix, no snapshot.
    pub fn root() -> ForkJob<S> {
        ForkJob {
            prefix: Vec::new(),
            snapshot: None,
            arm_prefixes: Vec::new(),
        }
    }

    /// Rebuilds a job from a bare decision prefix (whole-path replay).
    pub fn from_prefix(prefix: Vec<bool>) -> ForkJob<S> {
        ForkJob {
            prefix,
            snapshot: None,
            arm_prefixes: Vec::new(),
        }
    }

    /// The canonical decision prefix identifying this path.
    pub fn prefix(&self) -> &[bool] {
        &self.prefix
    }

    /// Consumes the job, returning its prefix.
    pub fn into_prefix(self) -> Vec<bool> {
        self.prefix
    }

    /// Whether a snapshot is attached.
    pub fn has_snapshot(&self) -> bool {
        self.snapshot.is_some()
    }

    /// The number of path records this job will produce when run: one,
    /// plus one per merged sibling arm.
    pub fn represented_paths(&self) -> usize {
        1 + self.arm_prefixes.len()
    }

    /// Drops the snapshot, degrading the job to whole-prefix replays.
    /// This is the memory-bound spill and the cross-worker migration
    /// path. An ordinary job spills to itself; a merged job re-splits
    /// into one replay per arm, because a prefix alone cannot
    /// reconstruct a merge.
    pub fn split_on_spill(self) -> Vec<ForkJob<S>> {
        let ForkJob {
            prefix,
            snapshot: _,
            arm_prefixes,
        } = self;
        let mut out = Vec::with_capacity(1 + arm_prefixes.len());
        out.push(ForkJob::from_prefix(prefix));
        out.extend(arm_prefixes.into_iter().map(ForkJob::from_prefix));
        out
    }
}

/// Per-path symbolic executor of the [`ForkEngine`]; implements [`Domain`]
/// over term handles exactly like [`SymExec`](crate::SymExec), plus an
/// intra-step replay window for resuming from snapshots.
///
/// Unlike `SymExec` it owns the context and solver (they persist across
/// paths inside the engine), so tasks hold `&mut ForkExec` only for the
/// duration of a call.
#[derive(Debug)]
pub struct ForkExec {
    ctx: Context,
    backend: SolverBackend,
    replay: VecDeque<bool>,
    taken: Vec<bool>,
    constraints: Vec<TermId>,
    origins: Vec<crate::project::ConstraintOrigin>,
    /// Pending forks of the current step: one entry per fork event, one
    /// sibling prefix per arm (index 0 is the primary arm; unmerged
    /// paths push single-element groups).
    forks: Vec<Vec<Vec<bool>>>,
    path_symbols: Vec<TermId>,
    status: PathStatus,
    /// Ledgers of the merged sibling arms riding on this path (empty
    /// while unmerged). Every decision, assumption and committed
    /// constraint is recorded to the primary fields *and* to each arm in
    /// lockstep, so the arms' intra-step suffixes stay identical.
    arms: Vec<MergeArm>,
    /// A merged-mode event (non-uniform feasibility across arms, or an
    /// arm hitting the decision limit) made lockstep execution
    /// impossible; the engine discards this run and re-splits every arm
    /// into a whole-prefix replay.
    abandoned: bool,
    max_decisions: usize,
    projector: crate::project::Projector,
    lanes: crate::lanes::LaneRewriter,
}

/// Saved per-path bookkeeping of a [`ForkExec`], so the engine can run a
/// merge-lookahead path and then restore the interrupted one. The
/// context, solver and projector are shared append-only services and
/// deliberately not part of the checkpoint.
#[derive(Debug)]
struct PathCheckpoint {
    replay: VecDeque<bool>,
    taken: Vec<bool>,
    constraints: Vec<TermId>,
    origins: Vec<crate::project::ConstraintOrigin>,
    forks: Vec<Vec<Vec<bool>>>,
    path_symbols: Vec<TermId>,
    status: PathStatus,
    arms: Vec<MergeArm>,
    abandoned: bool,
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
            arms: Vec::new(),
            abandoned: false,
            max_decisions,
            projector: crate::project::Projector::new(),
            lanes: crate::lanes::LaneRewriter::default(),
        }
    }

    fn save_path(&mut self) -> PathCheckpoint {
        PathCheckpoint {
            replay: std::mem::take(&mut self.replay),
            taken: std::mem::take(&mut self.taken),
            constraints: std::mem::take(&mut self.constraints),
            origins: std::mem::take(&mut self.origins),
            forks: std::mem::take(&mut self.forks),
            path_symbols: std::mem::take(&mut self.path_symbols),
            status: self.status,
            arms: std::mem::take(&mut self.arms),
            abandoned: self.abandoned,
        }
    }

    fn restore_path(&mut self, saved: PathCheckpoint) {
        self.replay = saved.replay;
        self.taken = saved.taken;
        self.constraints = saved.constraints;
        self.origins = saved.origins;
        self.forks = saved.forks;
        self.path_symbols = saved.path_symbols;
        self.status = saved.status;
        self.arms = saved.arms;
        self.abandoned = saved.abandoned;
    }

    /// Records a decision constraint to the primary ledger and to every
    /// merged arm in lockstep. Per-arm decision indices differ because
    /// the arms' prefixes have different lengths.
    fn record_decision(&mut self, cond: TermId, choice: bool) {
        let constraint = if choice { cond } else { self.ctx.not(cond) };
        self.constraints.push(constraint);
        self.origins
            .push(crate::project::ConstraintOrigin::Decision(
                self.taken.len() as u32
            ));
        self.taken.push(choice);
        for arm in &mut self.arms {
            arm.constraints.push(constraint);
            arm.origins.push(crate::project::ConstraintOrigin::Decision(
                arm.taken.len() as u32
            ));
            arm.taken.push(choice);
        }
    }

    /// Records an assumed constraint to the primary ledger and to every
    /// merged arm in lockstep.
    fn record_assumed(&mut self, cond: TermId) {
        self.constraints.push(cond);
        self.origins.push(crate::project::ConstraintOrigin::Assumed);
        for arm in &mut self.arms {
            arm.constraints.push(cond);
            arm.origins.push(crate::project::ConstraintOrigin::Assumed);
        }
    }

    /// The term context (symbolic values are [`TermId`]s into it).
    pub fn context(&mut self) -> &mut Context {
        &mut self.ctx
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
    /// *without* committing to it (see
    /// [`SymExec::check_sat`](crate::SymExec::check_sat)).
    ///
    /// A query that does not fold is first rebuilt with the lane constants
    /// the path forces (see [`crate::lanes`]); on a merged path, only
    /// those every arm forces.
    pub fn check_sat(&mut self, cond: TermId) -> bool {
        if let Some(value) = self.ctx.const_value(cond) {
            return value == 1;
        }
        let mut facts = crate::lanes::forced_lanes(&self.ctx, &self.constraints);
        for arm in &self.arms {
            let arm_facts = crate::lanes::forced_lanes(&self.ctx, &arm.constraints);
            facts.retain(|fact| arm_facts.contains(fact));
        }
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

    /// [`ForkExec::check_sat`] without the lane rewrite. Debug builds
    /// check rewritten answers and the voter's skipped miters against it.
    fn path_sat(&mut self, cond: TermId) -> bool {
        if let Some(value) = self.ctx.const_value(cond) {
            return value == 1;
        }
        if self.arms.is_empty() {
            // During replay this is usually a cache hit: the parent path
            // asked the identical condition set.
            self.backend.prefix_sync(&self.constraints);
            return self.backend.check_suffix(&self.ctx, &[cond]).is_sat();
        }
        // Merged: the answer must be uniform across the arms to stay in
        // lockstep; a split vote abandons the merge and the caller's
        // result is discarded with the rest of the run.
        let mut answer = None;
        for i in 0..=self.arms.len() {
            let prefix = if i == 0 {
                &self.constraints
            } else {
                &self.arms[i - 1].constraints
            };
            self.backend.prefix_sync(prefix);
            let sat = self.backend.check_suffix(&self.ctx, &[cond]).is_sat();
            match answer {
                None => answer = Some(sat),
                Some(first) if first == sat => {}
                Some(first) => {
                    self.abandoned = true;
                    return first;
                }
            }
        }
        answer.expect("at least the primary arm")
    }

    /// Permanently adds `cond` to the path condition (of every arm, when
    /// merged — committed constraints come from the task, which runs in
    /// lockstep).
    pub fn add_constraint(&mut self, cond: TermId) {
        self.constraints.push(cond);
        self.origins
            .push(crate::project::ConstraintOrigin::Committed);
        for arm in &mut self.arms {
            arm.constraints.push(cond);
            arm.origins
                .push(crate::project::ConstraintOrigin::Committed);
        }
    }

    /// Projects this path's condition onto every symbolic fetch slot whose
    /// symbol name starts with `slot_prefix`, matching
    /// [`SymExec::project_coverage`](crate::SymExec::project_coverage).
    #[must_use]
    pub fn project_coverage(&mut self, slot_prefix: &str) -> Vec<crate::project::SlotCoverage> {
        self.projector
            .project_path(&self.ctx, slot_prefix, &self.constraints, &self.origins)
    }

    /// History-independent witness extraction (fresh solver), matching
    /// [`SymExec::stable_concrete_witness`](crate::SymExec::stable_concrete_witness).
    pub fn stable_concrete_witness(&mut self, term: TermId, extra: &[TermId]) -> Option<u64> {
        let mut conditions = self.constraints.clone();
        conditions.extend_from_slice(extra);
        crate::solve::fresh_model_value(&self.ctx, &conditions, term)
    }

    /// History-independent test-vector extraction (fresh solver), matching
    /// [`SymExec::stable_witness_vector`](crate::SymExec::stable_witness_vector).
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

    #[cfg(debug_assertions)]
    fn debug_check_path(&self) {
        crate::solve::debug_check_path(
            &self.ctx,
            &self.constraints,
            &self.path_symbols,
            self.status,
        );
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
                self.arms = snap.arms.clone();
            }
            None => {
                self.replay = prefix.into_iter().collect();
                self.taken = Vec::new();
                self.constraints = Vec::new();
                self.origins = Vec::new();
                self.path_symbols = Vec::new();
                self.arms = Vec::new();
            }
        }
        self.forks = Vec::new();
        self.status = PathStatus::Complete;
        self.abandoned = false;
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
            // scheduled, no solver call needed. Merged arms replay the
            // same window in lockstep — their intra-step suffixes are
            // identical by construction.
            self.record_decision(cond, choice);
            return choice;
        }
        if self.taken.len() >= self.max_decisions
            || self
                .arms
                .iter()
                .any(|arm| arm.taken.len() >= self.max_decisions)
        {
            if self.arms.is_empty() {
                self.kill(PathStatus::DecisionLimit);
            } else {
                // Killing a merged path at the limit would stamp
                // DecisionLimit on arms whose own unmerged runs may not
                // have reached it yet; re-split instead.
                self.abandoned = true;
            }
            return false;
        }
        let negated = self.ctx.not(cond);
        if self.arms.is_empty() {
            // Both polarity probes share the whole path condition as their
            // prefix; suffix queries let the incremental solver retain the
            // prefix's propagation trail between them.
            self.backend.prefix_sync(&self.constraints);
            let true_feasible = self.backend.check_suffix(&self.ctx, &[cond]).is_sat();
            let (choice, constraint) = if true_feasible {
                if self.backend.check_suffix(&self.ctx, &[negated]).is_sat() {
                    // Both sides feasible: fork, continue on `true`.
                    let mut sibling = self.taken.clone();
                    sibling.push(false);
                    self.forks.push(vec![sibling]);
                }
                (true, cond)
            } else {
                // The path condition is feasible by induction, so `false` is.
                (false, negated)
            };
            self.constraints.push(constraint);
            self.backend.prefix_push(constraint);
            self.origins
                .push(crate::project::ConstraintOrigin::Decision(
                    self.taken.len() as u32
                ));
            self.taken.push(choice);
            return choice;
        }
        // Merged: classify each arm as fork (both polarities feasible),
        // true-only, or false-only. Lockstep survives only a uniform
        // classification; anything mixed abandons the merge.
        let mut class: Option<(bool, bool)> = None;
        for i in 0..=self.arms.len() {
            let prefix = if i == 0 {
                &self.constraints
            } else {
                &self.arms[i - 1].constraints
            };
            self.backend.prefix_sync(prefix);
            let t = self.backend.check_suffix(&self.ctx, &[cond]).is_sat();
            // Each arm's path condition is feasible by induction, so `!t`
            // implies the false side is.
            let f = !t || self.backend.check_suffix(&self.ctx, &[negated]).is_sat();
            match class {
                None => class = Some((t, f)),
                Some(c) if c == (t, f) => {}
                Some(_) => {
                    self.abandoned = true;
                    return false;
                }
            }
        }
        let (t, f) = class.expect("at least the primary arm");
        if t && f {
            // Uniform fork: one fork event carrying a sibling prefix per
            // arm, so the sibling job stays merged too.
            let mut group = Vec::with_capacity(1 + self.arms.len());
            let mut sibling = self.taken.clone();
            sibling.push(false);
            group.push(sibling);
            for arm in &self.arms {
                let mut sibling = arm.taken.clone();
                sibling.push(false);
                group.push(sibling);
            }
            self.forks.push(group);
        }
        self.record_decision(cond, t);
        t
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
            // checked at fork time), so the re-execution engine's check
            // here is guaranteed Sat — skip it.
            self.record_assumed(cond);
            return;
        }
        if self.arms.is_empty() {
            self.backend.prefix_sync(&self.constraints);
            let feasible = self.backend.check_suffix(&self.ctx, &[cond]).is_sat();
            self.constraints.push(cond);
            self.backend.prefix_push(cond);
            self.origins.push(crate::project::ConstraintOrigin::Assumed);
            if !feasible {
                self.kill(PathStatus::Infeasible);
            }
            return;
        }
        // Merged: uniform feasibility keeps the lockstep (all feasible →
        // record; all infeasible → record and die, exactly as each
        // unmerged arm would); a mixed vote abandons the merge without
        // recording anything.
        let mut any = false;
        let mut all = true;
        for i in 0..=self.arms.len() {
            let prefix = if i == 0 {
                &self.constraints
            } else {
                &self.arms[i - 1].constraints
            };
            self.backend.prefix_sync(prefix);
            let feasible = self.backend.check_suffix(&self.ctx, &[cond]).is_sat();
            any |= feasible;
            all &= feasible;
        }
        if all {
            self.record_assumed(cond);
        } else if !any {
            self.record_assumed(cond);
            self.kill(PathStatus::Infeasible);
        } else {
            self.abandoned = true;
        }
    }

    fn is_dead(&self) -> bool {
        self.status != PathStatus::Complete || self.abandoned
    }
}

impl PathProbe for ForkExec {
    fn constraints(&self) -> &[TermId] {
        ForkExec::constraints(self)
    }

    fn node(&self, term: TermId) -> Node {
        ForkExec::node(self, term)
    }

    #[cfg(debug_assertions)]
    fn reference_sat(&mut self, cond: TermId) -> bool {
        self.path_sat(cond)
    }

    fn check_sat(&mut self, cond: TermId) -> bool {
        ForkExec::check_sat(self, cond)
    }

    fn add_constraint(&mut self, cond: TermId) {
        ForkExec::add_constraint(self, cond)
    }

    fn stable_concrete_witness(&mut self, term: TermId, extra: &[TermId]) -> Option<u64> {
        ForkExec::stable_concrete_witness(self, term, extra)
    }

    fn stable_witness_vector(&mut self, extra: &[TermId]) -> Option<TestVector> {
        ForkExec::stable_witness_vector(self, extra)
    }

    fn lint_path(&self) -> Vec<WfIssue> {
        ForkExec::lint_path(self)
    }

    fn lint_path_with_outputs(&self, outputs: &[TermId]) -> Vec<WfIssue> {
        ForkExec::lint_path_with_outputs(self, outputs)
    }

    fn project_coverage(&mut self, slot_prefix: &str) -> Vec<crate::project::SlotCoverage> {
        ForkExec::project_coverage(self, slot_prefix)
    }
}

/// The snapshotting exploration engine — [`Engine`](crate::Engine)'s
/// copy-on-write twin.
///
/// Explores the same canonical path tree with the same frontier
/// disciplines and the same `--seed` determinism, but resumes forked paths
/// from cloned state instead of re-running them. See the
/// [module docs](self) for the architecture.
#[derive(Debug)]
pub struct ForkEngine {
    exec: ForkExec,
    config: EngineConfig,
    rng_state: u64,
    /// How many *additional* paths the driver still wants beyond the jobs
    /// it already holds (see [`ForkEngine::set_merge_headroom`]). Bounds
    /// the merge lookahead so a truncated run never pays for subtree
    /// expansion its budget will discard.
    merge_headroom: usize,
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
            merge_headroom: usize::MAX,
        }
    }

    /// Sets the merge lookahead's path headroom for subsequent
    /// [`ForkEngine::run_job`] calls: the number of paths the driver's
    /// budget still admits beyond the jobs already queued.
    ///
    /// The lookahead fully expands each step's fork subtree before
    /// merging. On a drained run every expanded leaf is work the engine
    /// would do anyway (the post-step snapshot jobs carry it forward),
    /// but on a *truncated* run leaves beyond the budget are pure waste —
    /// on the full RV32I+Zicsr space that waste is orders of magnitude
    /// (hard data-dependent solves for siblings the budget never visits).
    /// Capping the expansion at the headroom keeps merged truncated runs
    /// within a small factor of unmerged ones while leaving drained
    /// sweeps (headroom ≫ fan-out) untouched. The headroom is an explicit
    /// input, not solver state, so `run_job` stays a pure function of
    /// (job, task, headroom). Defaults to `usize::MAX` (unbounded).
    pub fn set_merge_headroom(&mut self, headroom: usize) {
        self.merge_headroom = headroom;
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

    /// Runs the single physical path selected by `job` and returns its
    /// path records — one, or several when merged sibling arms rode along
    /// (see [`crate::merge`]) — plus the sibling jobs scheduled at fresh
    /// forks.
    ///
    /// The counterpart of [`Engine::run_prefix`](crate::Engine::run_prefix)
    /// — everything except the task's own value is a pure function of the
    /// job's prefix and the task, so a snapshotted job and its spilled
    /// twin produce identical results. An abandoned merge returns no
    /// records and re-splits every arm into whole-prefix replay jobs.
    pub fn run_job<T: ForkTask>(
        &mut self,
        job: ForkJob<T::State>,
        task: &T,
    ) -> JobOutcome<T::State, T::Out> {
        let ForkJob {
            prefix,
            snapshot,
            arm_prefixes,
        } = job;
        debug_assert_eq!(
            arm_prefixes.len(),
            snapshot.as_deref().map_or(0, |s| s.arms.len()),
            "a job's spill prefixes must mirror its snapshot's arms"
        );
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
                    let arm_marks: Vec<(usize, usize)> = self
                        .exec
                        .arms
                        .iter()
                        .map(|arm| (arm.constraints.len(), arm.taken.len()))
                        .collect();
                    let mut next = pre_state.clone();
                    let done = match task.step(&mut next, &mut self.exec) {
                        StepResult::Continue => None,
                        StepResult::Done(out) => Some(out),
                    };
                    let snap = if self.exec.forks.is_empty() || self.exec.abandoned {
                        None
                    } else {
                        Some(Arc::new(Snapshot {
                            state: pre_state,
                            constraints: self.exec.constraints[..constraints_mark].to_vec(),
                            origins: self.exec.origins[..constraints_mark].to_vec(),
                            taken: self.exec.taken[..taken_mark].to_vec(),
                            path_symbols: self.exec.path_symbols[..symbols_mark].to_vec(),
                            arms: self
                                .exec
                                .arms
                                .iter()
                                .zip(&arm_marks)
                                .map(|(arm, &(cmark, tmark))| MergeArm {
                                    constraints: arm.constraints[..cmark].to_vec(),
                                    origins: arm.origins[..cmark].to_vec(),
                                    taken: arm.taken[..tmark].to_vec(),
                                })
                                .collect(),
                        }))
                    };
                    state = Some(next);
                    (done, snap)
                }
            };
            if self.exec.abandoned {
                // Lockstep broke mid-step: nothing from this run can be
                // trusted to match unmerged execution. Discard the run and
                // re-split everything still pending — the interrupted
                // decision recorded nothing, so each replay regenerates
                // its own forks live. Earlier steps' sibling jobs (already
                // in `jobs`) are unaffected.
                for group in std::mem::take(&mut self.exec.forks) {
                    for sibling in group {
                        jobs.push(ForkJob::from_prefix(sibling));
                    }
                }
                jobs.push(ForkJob::from_prefix(self.exec.taken.clone()));
                for arm in std::mem::take(&mut self.exec.arms) {
                    jobs.push(ForkJob::from_prefix(arm.taken));
                }
                return (Vec::new(), jobs);
            }
            let mut step_jobs: Vec<ForkJob<T::State>> = Vec::new();
            if !self.exec.forks.is_empty() {
                for group in std::mem::take(&mut self.exec.forks) {
                    let mut group = group.into_iter();
                    let sibling = group.next().expect("fork event has a primary arm");
                    step_jobs.push(ForkJob {
                        prefix: sibling,
                        snapshot: snap.clone(),
                        arm_prefixes: group.collect(),
                    });
                }
            }
            // Merging only when the remaining budget can absorb a
            // worst-case lookahead expansion guarantees no expanded leaf
            // is beyond-budget work: each emitted group job produces at
            // least one record, so every leaf occupies a slot the driver
            // still has. Below that line a truncated run would pay hard
            // lookahead and lockstep-vote solves for paths it discards.
            let merge_now = self.config.merge
                && self.merge_headroom >= ForkEngine::MERGE_LOOKAHEAD_CAP
                && task.merge_capable()
                && done.is_none()
                && !step_jobs.is_empty()
                && snap.is_some()
                && !self.exec.is_dead()
                && self.exec.replay.is_empty();
            if merge_now {
                let primary_state = state.as_ref().expect("stepped state present");
                self.try_merge(task, primary_state, step_jobs, &mut jobs);
            } else {
                jobs.append(&mut step_jobs);
            }
            if let Some(out) = done {
                break out;
            }
        };
        debug_assert!(
            self.exec.replay.is_empty() || self.exec.is_dead(),
            "task finished with unconsumed replay decisions"
        );
        #[cfg(debug_assertions)]
        self.exec.debug_check_path();
        let mut results = Vec::with_capacity(1 + self.exec.arms.len());
        results.push(PathResult {
            value,
            status: self.exec.status,
            decisions: self.exec.taken.clone(),
            num_constraints: self.exec.constraints.len(),
        });
        // Expand every merged arm into its own record by swapping the
        // arm's ledger into the executor and re-deriving the value with
        // history-independent extraction — byte-identical to the arm's
        // unmerged run because the final state, the symbol list and the
        // status are shared and the ledger is exactly what the unmerged
        // run would have recorded.
        let arms = std::mem::take(&mut self.exec.arms);
        if !arms.is_empty() {
            let final_state = state.as_ref().expect("finished state present");
            for arm in arms {
                let MergeArm {
                    constraints,
                    origins,
                    taken,
                } = arm;
                self.exec.constraints = constraints;
                self.exec.origins = origins;
                self.exec.taken = taken;
                match task.expand_arm(final_state, &mut self.exec) {
                    Some(arm_value) => {
                        #[cfg(debug_assertions)]
                        self.exec.debug_check_path();
                        results.push(PathResult {
                            value: arm_value,
                            status: self.exec.status,
                            decisions: self.exec.taken.clone(),
                            num_constraints: self.exec.constraints.len(),
                        });
                    }
                    None => {
                        // The task cannot rebuild this arm's value;
                        // degrade to a whole-prefix replay.
                        jobs.push(ForkJob::from_prefix(self.exec.taken.clone()));
                    }
                }
            }
        }
        (results, jobs)
    }

    /// Upper bound on the intra-step subtree a merge lookahead fully
    /// expands. Decode fans out to a handful of siblings per step; a
    /// run-away task must not turn the lookahead into the whole search.
    const MERGE_LOOKAHEAD_CAP: usize = 64;

    /// Attempts to merge this step's sibling jobs back into the running
    /// path (and into each other). Runs each sibling one step ahead from
    /// its snapshot; siblings whose post-step state is term-identical to
    /// the primary's (or to each other's) and whose divergence passes the
    /// [`crate::merge::proves_mergeable`] gate are absorbed as
    /// [`MergeArm`] ledgers. Everything that does not merge is emitted as
    /// a post-step snapshot job (no work is lost — the lookahead step is
    /// the same step the job would have run first).
    fn try_merge<T: ForkTask>(
        &mut self,
        task: &T,
        primary_state: &T::State,
        step_jobs: Vec<ForkJob<T::State>>,
        jobs: &mut Vec<ForkJob<T::State>>,
    ) {
        struct Leaf<S> {
            state: S,
            symbols: Vec<TermId>,
            arms: Vec<MergeArm>,
        }
        // A truncated run discards jobs beyond its budget, so looking
        // ahead past the headroom is work nobody will reuse (see
        // [`ForkEngine::set_merge_headroom`]).
        let cap = ForkEngine::MERGE_LOOKAHEAD_CAP.min(self.merge_headroom);
        if cap == 0 {
            jobs.extend(step_jobs);
            return;
        }
        let checkpoint = self.exec.save_path();
        let mut queue: VecDeque<ForkJob<T::State>> = step_jobs.into();
        let mut leaves: Vec<Leaf<T::State>> = Vec::new();
        let mut expanded = 0usize;
        while let Some(job) = queue.pop_front() {
            if expanded >= cap {
                jobs.push(job);
                continue;
            }
            expanded += 1;
            let ForkJob {
                prefix,
                snapshot,
                arm_prefixes,
            } = job;
            let snap = match snapshot {
                Some(snap) => snap,
                None => {
                    // No snapshot to look ahead from; pass through.
                    jobs.push(ForkJob {
                        prefix,
                        snapshot: None,
                        arm_prefixes,
                    });
                    continue;
                }
            };
            self.exec.begin_path(prefix.clone(), Some(&*snap));
            let mut sib_state = snap.state.clone();
            let done = task.step(&mut sib_state, &mut self.exec);
            let ok = matches!(done, StepResult::Continue)
                && !self.exec.is_dead()
                && self.exec.replay.is_empty();
            if !ok {
                // The sibling finished, died or abandoned inside the
                // lookahead: revert. Its own run will redo the step (the
                // solver answers are cached) and regenerate any forks.
                self.exec.forks.clear();
                jobs.push(ForkJob {
                    prefix,
                    snapshot: Some(snap),
                    arm_prefixes,
                });
                continue;
            }
            // Nested forks join the lookahead, anchored to the same
            // pre-step snapshot — the subtree is fully expanded, which is
            // exactly the solver work the unmerged engine would do.
            for group in std::mem::take(&mut self.exec.forks) {
                let mut group = group.into_iter();
                let nested = group.next().expect("fork event has a primary arm");
                queue.push_back(ForkJob {
                    prefix: nested,
                    snapshot: Some(Arc::clone(&snap)),
                    arm_prefixes: group.collect(),
                });
            }
            let mut arms = vec![MergeArm {
                constraints: self.exec.constraints.clone(),
                origins: self.exec.origins.clone(),
                taken: self.exec.taken.clone(),
            }];
            arms.extend(self.exec.arms.iter().cloned());
            leaves.push(Leaf {
                state: sib_state,
                symbols: self.exec.path_symbols.clone(),
                arms,
            });
        }
        self.exec.restore_path(checkpoint);
        // Absorb leaves into the running primary path where the gate
        // allows; group the rest among themselves.
        let outputs = task.merge_outputs(primary_state);
        let mut groups: Vec<(Leaf<T::State>, Vec<MergeArm>)> = Vec::new();
        for leaf in leaves {
            if task.states_equal(primary_state, &leaf.state)
                && self.exec.path_symbols == leaf.symbols
                && crate::merge::proves_mergeable(
                    &self.exec.ctx,
                    &mut self.exec.projector,
                    &self.exec.constraints,
                    &leaf.arms[0].constraints,
                    &outputs,
                    crate::merge::FETCH_SLOT_PREFIX,
                )
                .is_some()
            {
                self.exec.arms.extend(leaf.arms);
                continue;
            }
            let mut placed = false;
            for (rep, extra) in &mut groups {
                let rep_outputs = task.merge_outputs(&rep.state);
                if task.states_equal(&rep.state, &leaf.state)
                    && rep.symbols == leaf.symbols
                    && crate::merge::proves_mergeable(
                        &self.exec.ctx,
                        &mut self.exec.projector,
                        &rep.arms[0].constraints,
                        &leaf.arms[0].constraints,
                        &rep_outputs,
                        crate::merge::FETCH_SLOT_PREFIX,
                    )
                    .is_some()
                {
                    extra.extend(leaf.arms.iter().cloned());
                    placed = true;
                    break;
                }
            }
            if !placed {
                groups.push((leaf, Vec::new()));
            }
        }
        // Emit each group as one post-step snapshot job: prefix equals
        // the snapshot's decision record, so the job resumes with an
        // empty replay window and zero re-execution.
        for (rep, extra) in groups {
            let Leaf {
                state,
                symbols,
                arms,
            } = rep;
            let mut arms = arms;
            arms.extend(extra);
            let primary = arms.remove(0);
            let prefix = primary.taken.clone();
            let arm_prefixes: Vec<Vec<bool>> = arms.iter().map(|arm| arm.taken.clone()).collect();
            jobs.push(ForkJob {
                prefix,
                snapshot: Some(Arc::new(Snapshot {
                    state,
                    constraints: primary.constraints,
                    origins: primary.origins,
                    taken: primary.taken,
                    path_symbols: symbols,
                    arms,
                })),
                arm_prefixes,
            });
        }
    }

    /// Explores every feasible path through `task` (the counterpart of
    /// [`Engine::explore`](crate::Engine::explore)).
    pub fn explore<T: ForkTask>(&mut self, task: &T) -> ExploreOutcome<T::Out> {
        self.explore_until(task, |_| false)
    }

    /// Like [`ForkEngine::explore`], but stops as soon as `stop` returns
    /// true for a just-completed path.
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
        let mut merged = 0usize;

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
                    merged_paths: merged,
                    paths_dropped: frontier.len() + 1,
                };
            }
            // Paths already recorded, jobs already queued and the popped
            // job itself all consume budget slots; only what is left may
            // be spent looking ahead for merges.
            self.merge_headroom = self
                .config
                .max_paths
                .saturating_sub(paths.len() + frontier.len() + 1);
            let (results, forks) = self.run_job(job, task);
            for fork in forks {
                if fork.has_snapshot() && resident >= self.config.max_resident_snapshots {
                    // A merged job cannot survive losing its snapshot as
                    // one prefix; it re-splits into per-arm replays.
                    frontier.extend(fork.split_on_spill());
                } else {
                    if fork.has_snapshot() {
                        resident += 1;
                    }
                    frontier.push(fork);
                }
            }
            merged += results.len().saturating_sub(1);
            let mut stopped = false;
            for result in results {
                match result.status {
                    PathStatus::Complete => complete += 1,
                    _ => partial += 1,
                }
                paths.push(result);
                if stop(paths.last().expect("just pushed")) {
                    stopped = true;
                    break;
                }
            }
            if stopped {
                return ExploreOutcome {
                    frontier_exhausted: !frontier.is_empty(),
                    paths_dropped: frontier.len(),
                    paths,
                    complete_paths: complete,
                    partial_paths: partial,
                    merged_paths: merged,
                };
            }
        }

        ExploreOutcome {
            paths,
            complete_paths: complete,
            partial_paths: partial,
            frontier_exhausted: false,
            merged_paths: merged,
            paths_dropped: 0,
        }
    }

    fn pop_frontier<S>(&mut self, frontier: &mut Vec<ForkJob<S>>) -> Option<ForkJob<S>> {
        if frontier.is_empty() {
            return None;
        }
        // Mirrors Engine::pop_frontier exactly (same xorshift64* stream),
        // so both engines visit the canonical path tree in the same order.
        let index = match self.config.strategy {
            SearchStrategy::Dfs => frontier.len() - 1,
            SearchStrategy::Bfs => 0,
            SearchStrategy::RandomPath => {
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
    use crate::{Engine, SymExec};

    /// A task's value plus its path's model, extracted inside the task the
    /// way the session extracts a finding's witness.
    type Out = (u32, Option<String>);

    fn model(exec: &mut impl PathProbe) -> Option<String> {
        exec.stable_witness_vector(&[]).map(|v| v.to_string())
    }

    /// Stepped twin of the re-execution tests' three-bit task: one
    /// decision per step over distinct bits of one symbol.
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

    fn closure_bit_task(bits: u32) -> impl FnMut(&mut SymExec<'_>) -> Out {
        move |exec| {
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
        }
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
    fn fork_engine_matches_reexec_engine() {
        for strategy in [
            SearchStrategy::Dfs,
            SearchStrategy::Bfs,
            SearchStrategy::RandomPath,
        ] {
            let config = EngineConfig {
                strategy,
                ..EngineConfig::default()
            };
            let mut reexec = Engine::new(config.clone());
            let expected = reexec.explore(closure_bit_task(3));
            let mut fork = ForkEngine::new(config);
            let actual = fork.explore(&BitTask { bits: 3 });
            assert_eq!(
                fingerprint(&actual.paths),
                fingerprint(&expected.paths),
                "{strategy:?}: engines must visit identical canonical paths"
            );
            assert_eq!(actual.complete_paths, expected.complete_paths);
            assert_eq!(actual.partial_paths, expected.partial_paths);
            assert_eq!(actual.frontier_exhausted, expected.frontier_exhausted);
        }
    }

    #[test]
    fn spilled_jobs_match_snapshotted_jobs() {
        // Forcing every fork to spill (max_resident_snapshots = 0) must
        // not change any path outcome — only the cost of resuming.
        let snappy = EngineConfig::default();
        let spilly = EngineConfig {
            max_resident_snapshots: 0,
            ..EngineConfig::default()
        };
        let mut with_snapshots = ForkEngine::new(snappy);
        let baseline = with_snapshots.explore(&BitTask { bits: 4 });
        let mut without = ForkEngine::new(spilly);
        let spilled = without.explore(&BitTask { bits: 4 });
        assert_eq!(fingerprint(&baseline.paths), fingerprint(&spilled.paths));
    }

    #[test]
    fn run_job_is_history_independent() {
        // The same spilled prefix on a fresh engine and on a warmed-up
        // engine: identical result and forks.
        let prefix = vec![true, false];
        let task = BitTask { bits: 3 };
        let mut fresh = ForkEngine::new(EngineConfig::default());
        let (mut baselines, base_forks) =
            fresh.run_job(ForkJob::from_prefix(prefix.clone()), &task);
        let baseline = baselines.pop().expect("one record");

        let mut warmed = ForkEngine::new(EngineConfig::default());
        warmed.run_job(ForkJob::root(), &task);
        warmed.run_job(ForkJob::from_prefix(vec![false]), &task);
        let (mut repeats, repeat_forks) = warmed.run_job(ForkJob::from_prefix(prefix), &task);
        let repeat = repeats.pop().expect("one record");

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

    const DECODE_SLOT: &str = "imem_00000000";

    /// A decode-shaped task: step 0 forks on a fetch-slot bit without
    /// touching the state (the fork-engine analogue of two BRANCH decode
    /// siblings), step 1 forks on data (or splits the arms with a
    /// one-sided assume), step 2 finishes.
    struct DecodeTask {
        split_assume: bool,
    }

    #[derive(Debug, Clone, PartialEq)]
    struct DecodeState {
        step: u32,
        slot: Option<TermId>,
        value: u32,
    }

    impl ForkTask for DecodeTask {
        type State = DecodeState;
        type Out = Out;

        fn start(&self, _exec: &mut ForkExec) -> DecodeState {
            DecodeState {
                step: 0,
                slot: None,
                value: 0,
            }
        }

        fn step(&self, state: &mut DecodeState, exec: &mut ForkExec) -> StepResult<Out> {
            if exec.is_dead() {
                return StepResult::Done((state.value, model(exec)));
            }
            match state.step {
                0 => {
                    // Decode-shaped fork: the decision bit is a fetch-slot
                    // bit and the state is identical on both sides.
                    let slot = exec.fresh_word(DECODE_SLOT);
                    let field = exec.field(slot, 12, 12);
                    let one = exec.const_word(1);
                    let set = exec.eq_w(field, one);
                    let _ = exec.decide(set);
                    state.slot = Some(slot);
                }
                1 => {
                    if self.split_assume {
                        // Feasible on exactly one decode arm: a merged
                        // path must abandon and re-split here.
                        let slot = state.slot.expect("minted in step 0");
                        let field = exec.field(slot, 12, 12);
                        let one = exec.const_word(1);
                        let set = exec.eq_w(field, one);
                        exec.assume(set);
                        state.value = 7;
                    } else {
                        let data = exec.fresh_word("data_0");
                        let zero = exec.const_word(0);
                        let is_zero = exec.eq_w(data, zero);
                        state.value = if exec.decide(is_zero) { 1 } else { 2 };
                    }
                }
                _ => return StepResult::Done((state.value, model(exec))),
            }
            state.step += 1;
            StepResult::Continue
        }

        fn merge_capable(&self) -> bool {
            true
        }

        fn states_equal(&self, a: &DecodeState, b: &DecodeState) -> bool {
            a == b
        }

        fn expand_arm(&self, state: &DecodeState, exec: &mut ForkExec) -> Option<Out> {
            // The executor carries the arm's own ledger here, so the arm's
            // model comes from its own path condition.
            Some((state.value, model(exec)))
        }
    }

    /// Canonical (decision-sorted) fingerprint: merging changes the order
    /// paths complete in, never their records.
    fn sorted_fingerprint(paths: &[PathResult<Out>]) -> Vec<String> {
        let mut paths = paths.to_vec();
        paths.sort_by(|a, b| a.decisions.cmp(&b.decisions));
        fingerprint(&paths)
    }

    #[test]
    fn merging_preserves_path_records_byte_for_byte() {
        let task = DecodeTask {
            split_assume: false,
        };
        let mut off = ForkEngine::new(EngineConfig::default());
        let baseline = off.explore(&task);
        let mut on = ForkEngine::new(EngineConfig {
            merge: true,
            ..EngineConfig::default()
        });
        let merged = on.explore(&task);
        assert_eq!(baseline.merged_paths, 0);
        assert!(
            merged.merged_paths > 0,
            "decode siblings with identical states must merge"
        );
        assert_eq!(
            sorted_fingerprint(&merged.paths),
            sorted_fingerprint(&baseline.paths),
        );
        assert_eq!(merged.complete_paths, baseline.complete_paths);
        assert_eq!(merged.partial_paths, baseline.partial_paths);
    }

    #[test]
    fn non_uniform_feasibility_abandons_the_merge() {
        let task = DecodeTask { split_assume: true };
        let mut off = ForkEngine::new(EngineConfig::default());
        let baseline = off.explore(&task);
        let mut on = ForkEngine::new(EngineConfig {
            merge: true,
            ..EngineConfig::default()
        });
        let merged = on.explore(&task);
        // The one-sided assume breaks lockstep before any record is
        // produced; both arms re-run unmerged and match bit for bit.
        assert_eq!(merged.merged_paths, 0);
        assert_eq!(
            sorted_fingerprint(&merged.paths),
            sorted_fingerprint(&baseline.paths),
        );
    }

    #[test]
    fn spilled_merged_jobs_resplit_into_arm_replays() {
        let task = DecodeTask {
            split_assume: false,
        };
        let mut off = ForkEngine::new(EngineConfig::default());
        let baseline = off.explore(&task);
        // With no resident snapshots allowed, every merged sibling job is
        // immediately split back into per-arm prefix replays.
        let mut on = ForkEngine::new(EngineConfig {
            merge: true,
            max_resident_snapshots: 0,
            ..EngineConfig::default()
        });
        let merged = on.explore(&task);
        assert_eq!(
            sorted_fingerprint(&merged.paths),
            sorted_fingerprint(&baseline.paths),
        );
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
