//! Exploration policy and results of the [`ForkEngine`](crate::ForkEngine).
//!
//! A *path* is identified by the sequence of branch directions taken at
//! symbolic [`decide`](crate::Domain::decide) points. These types describe
//! how the engine walks the tree of such paths (the frontier discipline
//! and the resource limits) and what one walk produced.

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
    /// spill back to prefix replay. Zero makes every job a replay from the
    /// root: re-execution.
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
    /// [`SolverBackend::set_incremental`](crate::SolverBackend::set_incremental)).
    /// Answers are identical either way; disabling is for benchmarking
    /// and differential testing.
    pub incremental: bool,
    /// Decide branch conditions the path condition's own conjuncts
    /// already force, before any feasibility query is built (see
    /// [`SolverBackend::forced`](crate::SolverBackend::forced)). Answers
    /// are identical either way; disabling keeps every answer on the
    /// solver chain and the SAT core, for benchmarking, differential
    /// testing and proof audits. Off whenever the chain is off.
    pub preflight: bool,
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

/// Aggregate result of a [`ForkEngine::explore`](crate::ForkEngine::explore) call.
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
