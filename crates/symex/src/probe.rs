//! Path-level queries shared by the symbolic executors.
//!
//! Verification harnesses (the voter, the mismatch reporter) need more than
//! the [`Domain`] arithmetic surface: they ask whether a condition is
//! possible on the current path, commit constraints once a disagreement is
//! witnessed, and extract stable models. [`PathProbe`] captures exactly
//! that surface so the same harness code runs under the re-execution
//! engine ([`SymExec`](crate::SymExec)) and the snapshotting fork engine
//! ([`ForkExec`](crate::ForkExec)).

use crate::project::SlotCoverage;
use crate::term::{Node, TermId};
use crate::wf::WfIssue;
use crate::{Domain, SymExec, TestVector};

/// A symbolic [`Domain`] that can additionally answer path-level queries.
///
/// Implementations must keep the *stable* extraction contract: witnesses
/// and vectors are computed on a fresh solver from the path condition
/// alone, so they are identical however the path was scheduled.
pub trait PathProbe: Domain<Word = TermId, Bool = TermId> {
    /// The constraints accumulated on this path so far.
    fn constraints(&self) -> &[TermId];

    /// The node behind `term`: the structural view a harness matches
    /// against (the voter's register-congruence rule reads `ite` and
    /// `== constant` shapes through it).
    fn node(&self, term: TermId) -> Node;

    /// Debug builds: [`PathProbe::check_sat`] asked as it is, with no
    /// query rewrite. The reference that rewritten answers and the
    /// voter's skipped miters are checked against.
    #[cfg(debug_assertions)]
    fn reference_sat(&mut self, cond: TermId) -> bool;

    /// Whether `cond` is satisfiable together with the path condition —
    /// *without* committing to it.
    fn check_sat(&mut self, cond: TermId) -> bool;

    /// Permanently adds `cond` to the path condition.
    fn add_constraint(&mut self, cond: TermId);

    /// A history-independent concrete witness for `term` under the path
    /// condition plus `extra` (fresh solver; see
    /// [`SymExec::stable_concrete_witness`]).
    fn stable_concrete_witness(&mut self, term: TermId, extra: &[TermId]) -> Option<u64>;

    /// A history-independent test vector for the path condition plus
    /// `extra`, covering the symbols created on this path.
    fn stable_witness_vector(&mut self, extra: &[TermId]) -> Option<TestVector>;

    /// Runs the full well-formedness pass over this path.
    fn lint_path(&self) -> Vec<WfIssue>;

    /// [`PathProbe::lint_path`] with the path's output frontier — the
    /// terms the harness observes — so never-bounded symbols that also
    /// reach no output are reported as dead rather than merely
    /// unconstrained (see
    /// [`validate_path_with_outputs`](crate::wf::validate_path_with_outputs)).
    fn lint_path_with_outputs(&self, outputs: &[TermId]) -> Vec<WfIssue>;

    /// Projects this path's condition onto every symbolic fetch slot whose
    /// name starts with `slot_prefix` — the coverage certifier's input.
    /// Constraints committed via [`PathProbe::add_constraint`] are excluded
    /// (they narrow the path *after* its behaviour class is fixed).
    fn project_coverage(&mut self, slot_prefix: &str) -> Vec<SlotCoverage>;
}

impl PathProbe for SymExec<'_> {
    fn constraints(&self) -> &[TermId] {
        // Inherent methods win over trait methods in resolution, so these
        // delegations do not recurse.
        SymExec::constraints(self)
    }

    fn node(&self, term: TermId) -> Node {
        SymExec::node(self, term)
    }

    #[cfg(debug_assertions)]
    fn reference_sat(&mut self, cond: TermId) -> bool {
        self.path_sat(cond)
    }

    fn check_sat(&mut self, cond: TermId) -> bool {
        SymExec::check_sat(self, cond)
    }

    fn add_constraint(&mut self, cond: TermId) {
        SymExec::add_constraint(self, cond)
    }

    fn stable_concrete_witness(&mut self, term: TermId, extra: &[TermId]) -> Option<u64> {
        SymExec::stable_concrete_witness(self, term, extra)
    }

    fn stable_witness_vector(&mut self, extra: &[TermId]) -> Option<TestVector> {
        SymExec::stable_witness_vector(self, extra)
    }

    fn lint_path(&self) -> Vec<WfIssue> {
        SymExec::lint_path(self)
    }

    fn lint_path_with_outputs(&self, outputs: &[TermId]) -> Vec<WfIssue> {
        SymExec::lint_path_with_outputs(self, outputs)
    }

    fn project_coverage(&mut self, slot_prefix: &str) -> Vec<SlotCoverage> {
        SymExec::project_coverage(self, slot_prefix)
    }
}
