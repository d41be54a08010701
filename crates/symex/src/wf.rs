//! Well-formedness checks over term DAGs and path conditions.
//!
//! The [`Context`] constructors already enforce width invariants at build
//! time, so a violation found here means a term graph was corrupted or a
//! harness mixed handles from different contexts — both bugs in the
//! verification tooling itself, not in the models under test. The checks
//! are therefore *re-validation*: they recompute every structural invariant
//! from the stored nodes alone and trust nothing.
//!
//! Two entry points with different costs:
//!
//! * [`validate_path`] — the full pass over one path's constraint set: DAG
//!   width re-validation plus path-level rules (non-boolean constraints,
//!   constant-false constraints, dead/disconnected constraints, symbolic
//!   reads never bounded by any constraint). Used by `symcosim-lint` and by
//!   the `--lint` session hook.
//! * [`debug_validate_path`] — a shallow O(#constraints) subset cheap
//!   enough to run inside `ForkEngine::run_job` under `debug_assertions` on
//!   every explored path.

use crate::context::Context;
use crate::term::{Node, TermId};

/// The category of a well-formedness violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WfIssueKind {
    /// A node's stored width disagrees with the width implied by its
    /// operands (e.g. an `Add` over mixed widths).
    WidthMismatch,
    /// A path constraint that is not a width-1 term.
    NonBooleanConstraint,
    /// A path constraint that is the constant `false`: the path should
    /// have been marked infeasible instead of carrying it.
    ConstantFalseConstraint,
    /// A path constraint that is the constant `true`: it restricts
    /// nothing, so it is dead weight (advisory).
    TautologicalConstraint,
    /// A path constraint that is not a literal constant but that the
    /// abstract-interpretation lattice ([`crate::absint`]) refutes: no
    /// assignment of its symbols can make it true. A live path carrying
    /// such a condition should have been pruned as infeasible, so — like
    /// [`WfIssueKind::ConstantFalseConstraint`] — this is a tooling bug
    /// and gates.
    StaticallyFalseConstraint,
    /// A constraint sharing no symbol with any other constraint on the
    /// path: it is unreachable from the rest of the path condition and
    /// can never interact with it (advisory).
    DisconnectedConstraint,
    /// A symbolic read (free symbol) that appears in no constraint: the
    /// explored path never bounded it (advisory).
    UnconstrainedSymbol,
    /// A symbolic read that appears in no constraint *and* in no output
    /// term: the path neither bounded nor observed it, so the symbol is
    /// dead weight in the exploration (advisory). Only reported by
    /// [`validate_path_with_outputs`], which knows the output frontier.
    DeadSymbol,
}

impl WfIssueKind {
    /// Short stable identifier used in reports.
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            WfIssueKind::WidthMismatch => "width-mismatch",
            WfIssueKind::NonBooleanConstraint => "non-boolean-constraint",
            WfIssueKind::ConstantFalseConstraint => "constant-false-constraint",
            WfIssueKind::TautologicalConstraint => "tautological-constraint",
            WfIssueKind::StaticallyFalseConstraint => "statically-false-constraint",
            WfIssueKind::DisconnectedConstraint => "disconnected-constraint",
            WfIssueKind::UnconstrainedSymbol => "unconstrained-symbol",
            WfIssueKind::DeadSymbol => "dead-symbol",
        }
    }

    /// Advisory issues flag suspicious-but-legal shapes; they do not fail
    /// the lint gate.
    #[must_use]
    pub fn advisory(self) -> bool {
        matches!(
            self,
            WfIssueKind::TautologicalConstraint
                | WfIssueKind::DisconnectedConstraint
                | WfIssueKind::UnconstrainedSymbol
                | WfIssueKind::DeadSymbol
        )
    }
}

/// One well-formedness violation, anchored at a term.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WfIssue {
    /// The violation category.
    pub kind: WfIssueKind,
    /// The offending term (a node for structural issues, a constraint root
    /// or symbol for path-level issues).
    pub term: TermId,
    /// Human-readable explanation.
    pub detail: String,
}

impl std::fmt::Display for WfIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}: {}", self.kind.code(), self.term, self.detail)
    }
}

/// Recomputes the width invariant of a single node from its operands.
///
/// Returns a description of the violation, or `None` if the node is sound.
fn check_node(ctx: &Context, id: TermId) -> Option<String> {
    let stored = ctx.width(id);
    let w = |t: TermId| ctx.width(t);
    let same = |a: TermId, b: TermId| -> Option<String> {
        if w(a) != w(b) {
            return Some(format!("operand widths differ: {} vs {}", w(a), w(b)));
        }
        None
    };
    let expect = |expected: u32| -> Option<String> {
        if stored != expected {
            return Some(format!("stored width {stored}, expected {expected}"));
        }
        None
    };
    match ctx.node(id) {
        Node::Const { width, value } => {
            if width < 64 && value >> width != 0 {
                return Some(format!("constant {value:#x} overflows width {width}"));
            }
            expect(width)
        }
        Node::Symbol { width, .. } => expect(width),
        Node::Not(a) => expect(w(a)),
        Node::And(a, b)
        | Node::Or(a, b)
        | Node::Xor(a, b)
        | Node::Add(a, b)
        | Node::Sub(a, b)
        | Node::Mul(a, b)
        | Node::Shl(a, b)
        | Node::Lshr(a, b)
        | Node::Ashr(a, b) => same(a, b).or_else(|| expect(w(a))),
        Node::Eq(a, b) | Node::Ult(a, b) | Node::Slt(a, b) => same(a, b).or_else(|| expect(1)),
        Node::Ite(cond, t, e) => {
            if w(cond) != 1 {
                return Some(format!("ite condition has width {}", w(cond)));
            }
            same(t, e).or_else(|| expect(w(t)))
        }
        Node::Extract { term, hi, lo } => {
            if lo > hi || hi >= w(term) {
                return Some(format!("extract [{hi}:{lo}] out of width {}", w(term)));
            }
            expect(hi - lo + 1)
        }
        Node::Concat { hi, lo } => expect(w(hi) + w(lo)),
        Node::ZeroExt { term, width } | Node::SignExt { term, width } => {
            if width < w(term) {
                return Some(format!("extension narrows {} to {width}", w(term)));
            }
            expect(width)
        }
    }
}

/// Depth-first walk over the nodes reachable from `root`, honouring a
/// shared `visited` bitmap so shared subgraphs are visited once.
fn visit_dag(ctx: &Context, root: TermId, visited: &mut [bool], mut each: impl FnMut(TermId)) {
    let mut stack = vec![root];
    while let Some(id) = stack.pop() {
        let index = id.index();
        if visited[index] {
            continue;
        }
        visited[index] = true;
        each(id);
        match ctx.node(id) {
            Node::Const { .. } | Node::Symbol { .. } => {}
            Node::Not(a) | Node::Extract { term: a, .. } => stack.push(a),
            Node::ZeroExt { term: a, .. } | Node::SignExt { term: a, .. } => stack.push(a),
            Node::And(a, b)
            | Node::Or(a, b)
            | Node::Xor(a, b)
            | Node::Add(a, b)
            | Node::Sub(a, b)
            | Node::Mul(a, b)
            | Node::Shl(a, b)
            | Node::Lshr(a, b)
            | Node::Ashr(a, b)
            | Node::Eq(a, b)
            | Node::Ult(a, b)
            | Node::Slt(a, b)
            | Node::Concat { hi: a, lo: b } => {
                stack.push(a);
                stack.push(b);
            }
            Node::Ite(c, t, e) => {
                stack.push(c);
                stack.push(t);
                stack.push(e);
            }
        }
    }
}

/// Re-validates the width invariants of every node reachable from `roots`.
///
/// Shared subgraphs are visited once; the cost is linear in the size of the
/// reachable DAG.
#[must_use]
pub fn validate_terms(ctx: &Context, roots: &[TermId]) -> Vec<WfIssue> {
    let mut issues = Vec::new();
    let mut visited = vec![false; ctx.num_nodes()];
    for &root in roots {
        visit_dag(ctx, root, &mut visited, |id| {
            if let Some(detail) = check_node(ctx, id) {
                issues.push(WfIssue {
                    kind: WfIssueKind::WidthMismatch,
                    term: id,
                    detail,
                });
            }
        });
    }
    issues
}

/// The symbol-name indices reachable from `root`.
fn reachable_symbols(ctx: &Context, root: TermId) -> Vec<u32> {
    let mut symbols = Vec::new();
    let mut visited = vec![false; ctx.num_nodes()];
    visit_dag(ctx, root, &mut visited, |id| {
        if let Node::Symbol { name, .. } = ctx.node(id) {
            symbols.push(name);
        }
    });
    symbols.sort_unstable();
    symbols
}

/// Full well-formedness pass over one explored path.
///
/// `constraints` is the path condition (conjunction of decision and assume
/// constraints, in order); `symbols` is the path's symbolic reads. Checks,
/// in order of severity:
///
/// 1. every reachable node's width invariant ([`WfIssueKind::WidthMismatch`]),
/// 2. every constraint is boolean and not constant-false,
/// 3. advisory shape rules: tautological constraints, constraints sharing
///    no symbol with the rest of the path condition, and symbols bounded by
///    no constraint at all.
#[must_use]
pub fn validate_path(ctx: &Context, constraints: &[TermId], symbols: &[TermId]) -> Vec<WfIssue> {
    validate_path_impl(ctx, constraints, symbols, None)
}

/// [`validate_path`] with the path's *output frontier* — the terms the
/// harness actually observes (e.g. both models' architectural registers
/// and PCs). With the frontier known, an unbounded symbol splits into two
/// kinds: one still reaching an output is [`WfIssueKind::UnconstrainedSymbol`]
/// (it flows out unbounded); one reaching neither a constraint nor an
/// output is [`WfIssueKind::DeadSymbol`] (the path neither bounds nor
/// observes it).
#[must_use]
pub fn validate_path_with_outputs(
    ctx: &Context,
    constraints: &[TermId],
    symbols: &[TermId],
    outputs: &[TermId],
) -> Vec<WfIssue> {
    validate_path_impl(ctx, constraints, symbols, Some(outputs))
}

fn validate_path_impl(
    ctx: &Context,
    constraints: &[TermId],
    symbols: &[TermId],
    outputs: Option<&[TermId]>,
) -> Vec<WfIssue> {
    let mut issues = validate_terms(ctx, constraints);

    let mut absint = crate::absint::AbsInt::new();
    for (index, &c) in constraints.iter().enumerate() {
        if ctx.width(c) != 1 {
            issues.push(WfIssue {
                kind: WfIssueKind::NonBooleanConstraint,
                term: c,
                detail: format!("constraint #{index} has width {}", ctx.width(c)),
            });
        }
        match ctx.const_value(c) {
            Some(0) => issues.push(WfIssue {
                kind: WfIssueKind::ConstantFalseConstraint,
                term: c,
                detail: format!("constraint #{index} is constant false"),
            }),
            Some(_) => issues.push(WfIssue {
                kind: WfIssueKind::TautologicalConstraint,
                term: c,
                detail: format!("constraint #{index} is constant true"),
            }),
            None => {
                if ctx.width(c) == 1 && absint.const_bool(ctx, c) == Some(false) {
                    issues.push(WfIssue {
                        kind: WfIssueKind::StaticallyFalseConstraint,
                        term: c,
                        detail: format!(
                            "constraint #{index} is statically false \
                             (refuted by known-bits/interval analysis)"
                        ),
                    });
                }
            }
        }
    }

    let per_constraint: Vec<Vec<u32>> = constraints
        .iter()
        .map(|&c| reachable_symbols(ctx, c))
        .collect();

    if constraints.len() >= 2 {
        for (index, (&c, mine)) in constraints.iter().zip(&per_constraint).enumerate() {
            if mine.is_empty() {
                continue; // constant constraints are reported above
            }
            let shares_symbol = per_constraint
                .iter()
                .enumerate()
                .filter(|&(other, _)| other != index)
                .any(|(_, theirs)| mine.iter().any(|s| theirs.binary_search(s).is_ok()));
            if !shares_symbol {
                issues.push(WfIssue {
                    kind: WfIssueKind::DisconnectedConstraint,
                    term: c,
                    detail: format!(
                        "constraint #{index} shares no symbol with the rest of the path condition"
                    ),
                });
            }
        }
    }

    let mut constrained: Vec<u32> = per_constraint.into_iter().flatten().collect();
    constrained.sort_unstable();
    // Symbols reachable from the output frontier, when the caller knows it.
    let observed: Option<Vec<u32>> = outputs.map(|outputs| {
        let mut observed = Vec::new();
        let mut visited = vec![false; ctx.num_nodes()];
        for &root in outputs {
            visit_dag(ctx, root, &mut visited, |id| {
                if let Node::Symbol { name, .. } = ctx.node(id) {
                    observed.push(name);
                }
            });
        }
        observed.sort_unstable();
        observed
    });
    for &sym in symbols {
        if let Node::Symbol { name, .. } = ctx.node(sym) {
            if constrained.binary_search(&name).is_err() {
                let dead = observed
                    .as_ref()
                    .is_some_and(|observed| observed.binary_search(&name).is_err());
                issues.push(if dead {
                    WfIssue {
                        kind: WfIssueKind::DeadSymbol,
                        term: sym,
                        detail: format!(
                            "symbolic read {:?} appears in no path constraint and no output term",
                            ctx.symbol_name(sym).unwrap_or("?")
                        ),
                    }
                } else {
                    WfIssue {
                        kind: WfIssueKind::UnconstrainedSymbol,
                        term: sym,
                        detail: format!(
                            "symbolic read {:?} is bounded by no constraint",
                            ctx.symbol_name(sym).unwrap_or("?")
                        ),
                    }
                });
            }
        }
    }

    issues
}

/// Shallow per-path check for `debug_assertions` builds.
///
/// Only node-local constraint properties — boolean width and
/// non-constant-false — so the engine can afford it on every explored path.
///
/// # Panics
///
/// Panics (via `debug_assert!`) when a constraint violates the invariants.
pub fn debug_validate_path(ctx: &Context, constraints: &[TermId]) {
    for &c in constraints {
        debug_assert_eq!(
            ctx.width(c),
            1,
            "path constraint {c} has width {}",
            ctx.width(c)
        );
        debug_assert_ne!(
            ctx.const_value(c),
            Some(0),
            "path constraint {c} is constant false on a live path"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_path_has_no_issues() {
        let mut ctx = Context::new();
        let x = ctx.symbol(32, "x");
        let c = ctx.constant(32, 7);
        let cond = ctx.ult(x, c);
        assert!(validate_path(&ctx, &[cond], &[x]).is_empty());
    }

    #[test]
    fn flags_non_boolean_and_tautological_constraints() {
        let mut ctx = Context::new();
        let x = ctx.symbol(32, "x");
        let t = ctx.bool_const(true);
        let issues = validate_path(&ctx, &[x, t], &[]);
        assert!(issues
            .iter()
            .any(|i| i.kind == WfIssueKind::NonBooleanConstraint));
        assert!(issues
            .iter()
            .any(|i| i.kind == WfIssueKind::TautologicalConstraint));
    }

    #[test]
    fn flags_constant_false_constraint() {
        let mut ctx = Context::new();
        let f = ctx.bool_const(false);
        let issues = validate_path(&ctx, &[f], &[]);
        assert!(issues
            .iter()
            .any(|i| i.kind == WfIssueKind::ConstantFalseConstraint));
    }

    #[test]
    fn flags_statically_false_constraint() {
        let mut ctx = Context::new();
        let x = ctx.symbol(32, "x");
        let one = ctx.constant(32, 1);
        let zero = ctx.constant(32, 0);
        // `(x | 1) == 0` is not a literal constant, but bit 0 of the
        // left side is known-one, so the dataflow lattice refutes it.
        let odd = ctx.or(x, one);
        let cond = ctx.eq(odd, zero);
        assert!(ctx.const_value(cond).is_none(), "must not be ctx-folded");
        let issues = validate_path(&ctx, &[cond], &[x]);
        assert!(
            issues
                .iter()
                .any(|i| i.kind == WfIssueKind::StaticallyFalseConstraint && i.term == cond),
            "{issues:#?}"
        );
        // A satisfiable constraint of the same shape stays clean.
        let two = ctx.constant(32, 2);
        let even_bound = ctx.ult(odd, two);
        let issues = validate_path(&ctx, &[even_bound], &[x]);
        assert!(!issues
            .iter()
            .any(|i| i.kind == WfIssueKind::StaticallyFalseConstraint));
    }

    #[test]
    fn flags_unconstrained_symbol() {
        let mut ctx = Context::new();
        let x = ctx.symbol(32, "x");
        let y = ctx.symbol(32, "y");
        let c = ctx.constant(32, 1);
        let cond = ctx.eq(x, c);
        let issues = validate_path(&ctx, &[cond], &[x, y]);
        assert_eq!(issues.len(), 1);
        assert_eq!(issues[0].kind, WfIssueKind::UnconstrainedSymbol);
        assert_eq!(issues[0].term, y);
    }

    #[test]
    fn flags_disconnected_constraint() {
        let mut ctx = Context::new();
        let x = ctx.symbol(32, "x");
        let y = ctx.symbol(32, "y");
        let one = ctx.constant(32, 1);
        let two = ctx.constant(32, 2);
        let cx1 = ctx.ult(x, one);
        let cx2 = ctx.ult(x, two);
        let cy = ctx.eq(y, one);
        let issues = validate_path(&ctx, &[cx1, cx2, cy], &[x, y]);
        assert!(issues
            .iter()
            .any(|i| i.kind == WfIssueKind::DisconnectedConstraint && i.term == cy));
        // The two x-constraints share x, so they are not flagged.
        assert_eq!(
            issues
                .iter()
                .filter(|i| i.kind == WfIssueKind::DisconnectedConstraint)
                .count(),
            1
        );
    }

    #[test]
    fn width_revalidation_accepts_constructed_terms() {
        let mut ctx = Context::new();
        let x = ctx.symbol(32, "x");
        let y = ctx.symbol(32, "y");
        let sum = ctx.add(x, y);
        let hi = ctx.extract(sum, 31, 16);
        let lo = ctx.extract(sum, 15, 0);
        let joined = ctx.concat(hi, lo);
        let ext = ctx.zero_ext(hi, 40);
        let lt = ctx.slt(x, y);
        let pick = ctx.ite(lt, sum, joined);
        assert!(validate_terms(&ctx, &[pick, ext]).is_empty());
    }

    #[test]
    fn advisory_issue_kinds_are_marked() {
        assert!(!WfIssueKind::WidthMismatch.advisory());
        assert!(!WfIssueKind::ConstantFalseConstraint.advisory());
        assert!(!WfIssueKind::StaticallyFalseConstraint.advisory());
        assert!(WfIssueKind::UnconstrainedSymbol.advisory());
        assert!(WfIssueKind::DisconnectedConstraint.advisory());
        assert!(WfIssueKind::DeadSymbol.advisory());
    }

    #[test]
    fn the_output_frontier_splits_unbounded_symbols_into_two_kinds() {
        let mut ctx = Context::new();
        let x = ctx.symbol(32, "x");
        let flows_out = ctx.symbol(32, "flows_out");
        let dead = ctx.symbol(32, "dead");
        let one = ctx.constant(32, 1);
        let cond = ctx.eq(x, one);
        let output = ctx.add(x, flows_out);
        let issues = validate_path_with_outputs(&ctx, &[cond], &[x, flows_out, dead], &[output]);
        assert_eq!(issues.len(), 2, "{issues:#?}");
        assert!(issues
            .iter()
            .any(|i| i.kind == WfIssueKind::UnconstrainedSymbol && i.term == flows_out));
        assert!(issues
            .iter()
            .any(|i| i.kind == WfIssueKind::DeadSymbol && i.term == dead));
    }

    #[test]
    fn without_an_output_frontier_no_symbol_is_called_dead() {
        let mut ctx = Context::new();
        let dead = ctx.symbol(32, "dead");
        let issues = validate_path(&ctx, &[], &[dead]);
        assert_eq!(issues.len(), 1);
        assert_eq!(issues[0].kind, WfIssueKind::UnconstrainedSymbol);
    }
}
