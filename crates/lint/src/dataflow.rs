//! Abstract-interpretation dataflow lint: known-bits/interval findings
//! over a real BRANCH-opcode co-simulation sweep.
//!
//! Unlike the `--ir` pass, which re-validates structural well-formedness,
//! this pass consumes the [`symcosim_symex::absint`] lattice: every
//! explored path's constraint DAG and output frontier are analysed
//! *offline* — the analysis layer issues no solver queries — for
//!
//! * **dead branches** — path conditions the lattice refutes outright
//!   (gating: the engine only keeps solver-feasible paths, so one of
//!   these on a live path means the tooling is corrupt),
//! * **constant outputs** — output-frontier terms that are not literal
//!   constants but that known-bits/interval analysis pins to one value,
//! * **width-truncation hazards** — `Extract` nodes that provably drop
//!   known-one bits of their operand,
//! * **unconstrained influencers** — symbols that reach an output cone
//!   without appearing in any path constraint.

use std::collections::{BTreeSet, HashSet};

use symcosim_core::{CoSim, SymbolicJudge};
use symcosim_isa::opcodes;
use symcosim_iss::IssConfig;
use symcosim_microrv32::CoreConfig;
use symcosim_symex::{
    AbsInt, Context, EngineConfig, FnTask, ForkEngine, ForkExec, Node, SearchStrategy, TermId,
};

use crate::ir::only_opcode_imem;

/// Opcode the dataflow pass explores. BRANCH exercises both decode
/// splits (six legal `funct3` values plus two illegal ones) and a
/// data-dependent taken/not-taken split per instruction.
pub const DATAFLOW_OPCODE: u32 = opcodes::BRANCH;

/// Instructions retired per path. Two, so the sweep covers both the
/// first-instruction decode and the second fetch slot.
pub const DATAFLOW_INSTR_LIMIT: u32 = 2;

/// Result of the dataflow pass.
#[derive(Debug, Clone)]
pub struct DataflowReport {
    /// The opcode swept.
    pub opcode: u32,
    /// Symbolic paths analysed.
    pub paths_checked: usize,
    /// Path conditions the lattice refutes (gating — must be empty).
    pub dead_branches: Vec<String>,
    /// Output terms pinned to one value by the lattice without being
    /// literal constants. Informational.
    pub constant_outputs: Vec<String>,
    /// `Extract` nodes in the output cones that provably drop known-one
    /// bits. Informational.
    pub truncation_hazards: Vec<String>,
    /// Symbols reaching an output cone while appearing in no path
    /// constraint, deduplicated and sorted. Informational.
    pub unconstrained_influencers: Vec<String>,
}

impl DataflowReport {
    /// Number of gating findings.
    #[must_use]
    pub fn findings(&self) -> usize {
        self.dead_branches.len()
    }
}

/// Per-path data collected during exploration; the analysis below runs
/// over these DAGs after the engine is done.
struct PathCone {
    constraints: Vec<TermId>,
    outputs: Vec<TermId>,
}

/// Runs the BRANCH sweep and the offline dataflow analysis.
#[must_use]
pub fn analyze() -> DataflowReport {
    let mut engine = ForkEngine::new(EngineConfig {
        strategy: SearchStrategy::Dfs,
        max_paths: 4096,
        max_decisions_per_path: 4096,
        seed: 0xdf_0063,
        ..EngineConfig::default()
    });
    let outcome = engine.explore(&FnTask(|exec: &mut ForkExec| {
        let imem = only_opcode_imem(DATAFLOW_OPCODE);
        let mut cosim = CoSim::new(
            exec,
            CoreConfig::fixed(),
            IssConfig::fixed(),
            None,
            imem,
            2,
            16,
            DATAFLOW_INSTR_LIMIT,
            128,
        );
        let _ = cosim.run(exec, &mut SymbolicJudge);
        let mut outputs = vec![cosim.core.pc(), cosim.iss.pc()];
        outputs.extend(cosim.core.registers().iter().copied());
        outputs.extend(cosim.iss.registers().iter().copied());
        PathCone {
            constraints: exec.constraints().to_vec(),
            outputs,
        }
    }));

    let ctx = engine.ctx();
    let mut absint = AbsInt::new();

    let mut dead_branches = Vec::new();
    let mut constant_seen = HashSet::new();
    let mut constant_outputs = Vec::new();
    let mut influencers = BTreeSet::new();
    for (index, path) in outcome.paths.iter().enumerate() {
        let cone = &path.value;
        for (ci, &c) in cone.constraints.iter().enumerate() {
            let folded_false = ctx.const_value(c) == Some(0);
            if folded_false || absint.const_bool(ctx, c) == Some(false) {
                dead_branches.push(format!(
                    "path {index}: constraint #{ci} ({c}) is statically false"
                ));
            }
        }
        let constrained = support_union(ctx, &mut absint, &cone.constraints);
        let observed = support_union(ctx, &mut absint, &cone.outputs);
        for &sym in &observed {
            if constrained.binary_search(&sym).is_err() {
                if let Some(name) = ctx.symbol_name(sym) {
                    influencers.insert(name.to_string());
                }
            }
        }
        for &out in &cone.outputs {
            if ctx.const_value(out).is_none() && constant_seen.insert(out) {
                if let Some(value) = absint.fact(ctx, out).as_const() {
                    constant_outputs.push(format!(
                        "output {out} is statically {value:#x} (width {})",
                        ctx.width(out)
                    ));
                }
            }
        }
    }

    let all_outputs: Vec<TermId> = {
        let mut seen = HashSet::new();
        outcome
            .paths
            .iter()
            .flat_map(|p| p.value.outputs.iter().copied())
            .filter(|&t| seen.insert(t))
            .collect()
    };
    let truncation_hazards = truncation_hazards(ctx, &mut absint, &all_outputs);

    DataflowReport {
        opcode: DATAFLOW_OPCODE,
        paths_checked: outcome.paths.len(),
        dead_branches,
        constant_outputs,
        truncation_hazards,
        unconstrained_influencers: influencers.into_iter().collect(),
    }
}

/// Sorted union of the symbol supports of `roots`.
fn support_union(ctx: &Context, absint: &mut AbsInt, roots: &[TermId]) -> Vec<TermId> {
    let mut symbols = Vec::new();
    for &root in roots {
        symbols.extend(absint.support(ctx, root).iter().copied());
    }
    symbols.sort_unstable();
    symbols.dedup();
    symbols
}

/// `Extract` nodes reachable from `roots` that provably drop known-one
/// bits: the operand's fact has a known-one bit strictly above the
/// extracted range, so narrowing discards live data. Exposed as a plain
/// function so the detector is testable on hand-built DAGs.
#[must_use]
pub fn truncation_hazards(ctx: &Context, absint: &mut AbsInt, roots: &[TermId]) -> Vec<String> {
    let mut hazards = Vec::new();
    let mut visited = vec![false; ctx.num_nodes()];
    let mut stack: Vec<TermId> = roots.to_vec();
    while let Some(id) = stack.pop() {
        if visited[id.index()] {
            continue;
        }
        visited[id.index()] = true;
        if let Node::Extract { term, hi, .. } = ctx.node(id) {
            let fact = absint.fact(ctx, term);
            let dropped = fact.bits.mask & fact.bits.value & !low_ones(hi + 1);
            if dropped != 0 {
                hazards.push(format!(
                    "extract {id} drops known-one bits {dropped:#x} of {term} \
                     (width {} -> {})",
                    ctx.width(term),
                    ctx.width(id)
                ));
            }
        }
        for_each_operand(ctx.node(id), |t| stack.push(t));
    }
    hazards.sort_unstable();
    hazards
}

/// The low `n` bits set (`n` may be 64).
fn low_ones(n: u32) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Pushes every operand of `node` to the visitor.
fn for_each_operand(node: Node, mut each: impl FnMut(TermId)) {
    match node {
        Node::Const { .. } | Node::Symbol { .. } => {}
        Node::Not(a) | Node::Extract { term: a, .. } => each(a),
        Node::ZeroExt { term: a, .. } | Node::SignExt { term: a, .. } => each(a),
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
            each(a);
            each(b);
        }
        Node::Ite(c, t, e) => {
            each(c);
            each(t);
            each(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncation_detector_flags_known_one_drops() {
        let mut ctx = Context::new();
        let x = ctx.symbol(32, "x");
        let high_bit = ctx.constant(32, 1 << 20);
        let tagged = ctx.or(x, high_bit);
        let low = ctx.extract(tagged, 15, 0);
        let mut absint = AbsInt::new();
        let hazards = truncation_hazards(&ctx, &mut absint, &[low]);
        assert_eq!(hazards.len(), 1, "{hazards:#?}");
        assert!(hazards[0].contains("0x100000"), "{hazards:#?}");
        // Extracting a range that keeps the known-one bit is clean.
        let wide = ctx.extract(tagged, 24, 0);
        assert!(truncation_hazards(&ctx, &mut absint, &[wide]).is_empty());
    }

    #[test]
    fn branch_sweep_is_clean() {
        let report = analyze();
        assert!(report.paths_checked > 0);
        assert!(
            report.dead_branches.is_empty(),
            "{:#?}",
            report.dead_branches
        );
        assert_eq!(report.findings(), 0);
        // The initial register-file symbols flow to the outputs without
        // ever being constrained on at least one path.
        assert!(
            report
                .unconstrained_influencers
                .iter()
                .any(|n| n.starts_with("reg_x")),
            "{:#?}",
            report.unconstrained_influencers
        );
        // Deterministic: a second run reproduces the same findings.
        let again = analyze();
        assert_eq!(again.paths_checked, report.paths_checked);
        assert_eq!(again.constant_outputs, report.constant_outputs);
        assert_eq!(again.truncation_hazards, report.truncation_hazards);
        assert_eq!(
            again.unconstrained_influencers,
            report.unconstrained_influencers
        );
    }
}
