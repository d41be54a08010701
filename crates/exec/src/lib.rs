//! Parallel path-exploration executor.
//!
//! [`explore_parallel_fork`] distributes the jobs a symbolic exploration
//! generates over a pool of worker threads, each owning a private
//! [`ForkEngine`](symcosim_symex::ForkEngine) (term context + SAT solver —
//! the context is not `Sync`, so sharing is not an option). Frontier
//! entries carry copy-on-write state snapshots where resident
//! (worker-affine, under the
//! [`max_resident_snapshots`](symcosim_symex::EngineConfig::max_resident_snapshots)
//! bound) and degrade to decision-prefix replay where not. The pieces:
//!
//! * [`ShardedFrontier`] — one work queue per worker plus work stealing,
//!   so forks stay local to the worker that produced them until somebody
//!   runs dry,
//! * [`Budget`] — the global path budget, the wall-clock deadline and the
//!   cooperative cancellation flag (`stop_at_first_mismatch`),
//! * [`ProgressEvent`] — structured observability events on an optional
//!   channel (live status lines, JSON logs),
//! * a **deterministic merge**: explored paths are sorted by their decision
//!   vectors, a schedule-independent canonical order, so a drained
//!   exploration produces the same [`ParallelOutcome`] whatever the worker
//!   count or interleaving.
//!
//! # Why the merge is deterministic
//!
//! A path is identified by its decision vector. Feasibility answers are
//! objective — a prefix is SAT or UNSAT regardless of what the solver did
//! before — so the set of explored paths, each path's status and its forks
//! are pure functions of the exploration closure. Model *values* are the
//! one history-dependent quantity (CDCL phase saving and branching
//! activity), which is why tasks extract witnesses from a fresh solver per
//! query (see
//! [`ForkExec::stable_witness_vector`](symcosim_symex::ForkExec::stable_witness_vector)). Explored
//! decision vectors are pairwise prefix-free (a forked sibling always
//! extends the point where its parent diverged), so the lexicographic
//! order is total and canonical.
//!
//! Exhaustive (frontier-drained) runs are bit-for-bit reproducible. Runs
//! cut short — path budget, deadline, stop predicate — report a
//! deterministic *content* per path but a scheduling-dependent *subset* of
//! paths; they set [`ParallelOutcome::frontier_exhausted`].
//!
//! The merge is generic in the per-path payload, so anything a path
//! computes rides it unchanged: the coverage certifier (`core::certify`)
//! attaches each path's ternary-cube projection onto the instruction
//! space to the payload, and because drained runs merge canonically, the
//! resulting `symcosim-cert/1` certificate is byte-identical across
//! worker counts — the certificate depends only on the canonical path
//! set, never on the schedule that produced it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod executor;
mod frontier;
mod progress;

pub use budget::Budget;
pub use executor::{explore_parallel_fork, ExecConfig, ParallelOutcome, WorkerReport};
pub use frontier::ShardedFrontier;
pub use progress::ProgressEvent;
