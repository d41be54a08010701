//! Abstract-interpretation dataflow lint: known-bits/interval findings
//! and merge opportunities over a real BRANCH-opcode co-simulation sweep.
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
//!   without appearing in any path constraint,
//!
//! plus, with `--merge-report`, a sibling-group merge-opportunity
//! analysis. Every fork of the exploration tree groups the certified
//! paths sharing its decision prefix; the group is *provably mergeable*
//! when the forked decision demands fetch-slot (instruction-word) bits
//! that no output cone in the group demands — established with the
//! bit-granular [`symcosim_symex::demanded_bits`] pass, since every
//! path reads *some* bits of the same fetched word and symbol-level
//! supports cannot separate a decode field from an immediate field.
//! Such siblings diverge only on how the fetched word decodes, never on
//! bits the models expose, so a path-merging explorer could re-join
//! them without losing observable behaviour.

use std::collections::{BTreeSet, HashMap, HashSet};

use symcosim_core::{CoSim, SymbolicJudge};
use symcosim_isa::opcodes;
use symcosim_iss::IssConfig;
use symcosim_microrv32::CoreConfig;
use symcosim_symex::{
    bits_disjoint, fetch_slot_bits, AbsInt, Context, Engine, EngineConfig, Node, PathResult,
    SearchStrategy, SymExec, TermId,
};

use crate::ir::only_opcode_imem;

/// Opcode the dataflow pass explores. BRANCH exercises both decode
/// splits (six legal `funct3` values plus two illegal ones) and a
/// data-dependent taken/not-taken split per instruction, which is what
/// the sibling-merge analysis needs.
pub const DATAFLOW_OPCODE: u32 = opcodes::BRANCH;

/// Instructions retired per path. Two, so sibling pairs exist both at
/// first-instruction decode depth and deeper in the second fetch slot.
pub const DATAFLOW_INSTR_LIMIT: u32 = 2;

/// Most mergeable groups listed in the report; the counts stay exact.
pub const MERGE_SAMPLE_CAP: usize = 8;

/// One provably mergeable sibling group.
#[derive(Debug, Clone)]
pub struct MergeGroup {
    /// Decision depth of the fork the group diverges at.
    pub depth: usize,
    /// Number of paths in the group (both arms).
    pub size: usize,
    /// Path indices (exploration order), capped at
    /// [`MERGE_SAMPLE_CAP`] entries.
    pub paths: Vec<usize>,
    /// The diverging fetch-slot bits, rendered as
    /// `"<symbol> bits <mask>"`, sorted by symbol.
    pub diverging_bits: Vec<String>,
}

/// Result of the sibling merge-opportunity analysis (`--merge-report`).
#[derive(Debug, Clone)]
pub struct MergeReport {
    /// Fork points of the exploration tree (each defines a sibling
    /// group: the paths sharing the fork's decision prefix).
    pub sibling_groups: usize,
    /// Groups whose diverging constraints demand fetch-slot bits.
    pub fetch_slot_groups: usize,
    /// Groups whose output cones are additionally disjoint from those
    /// diverging bits — provably mergeable.
    pub mergeable_groups: usize,
    /// The first [`MERGE_SAMPLE_CAP`] mergeable groups.
    pub samples: Vec<MergeGroup>,
    /// Whether [`MERGE_SAMPLE_CAP`] dropped mergeable groups from
    /// `samples` (the counts above always stay exact).
    pub samples_truncated: bool,
}

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
    /// Sibling merge-opportunity analysis, when requested.
    pub merge: Option<MergeReport>,
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
pub fn analyze(merge: bool) -> DataflowReport {
    let mut engine = Engine::new(EngineConfig {
        strategy: SearchStrategy::Dfs,
        max_paths: 4096,
        max_decisions_per_path: 4096,
        seed: 0xdf_0063,
        ..EngineConfig::default()
    });
    let outcome = engine.explore(|exec: &mut SymExec<'_>| {
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
    });

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

    let merge = merge.then(|| merge_report(ctx, &outcome.paths));

    DataflowReport {
        opcode: DATAFLOW_OPCODE,
        paths_checked: outcome.paths.len(),
        dead_branches,
        constant_outputs,
        truncation_hazards,
        unconstrained_influencers: influencers.into_iter().collect(),
        merge,
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

/// Sibling-group merge analysis over the explored paths.
///
/// Every *fork point* of the exploration tree — a decision prefix some
/// paths continued with `false` and others with `true` — defines a
/// sibling group: all paths sharing the prefix. The group's *diverging
/// constraints* are the ones present in every path of one arm and no
/// path of the other (the forked decision in both polarities, plus its
/// re-assertions); everything above the fork is common, everything below
/// is arm-internal. A group is provably mergeable when the diverging
/// constraints demand some fetch-slot bits and no output cone in the
/// group demands any of them.
fn merge_report(ctx: &Context, paths: &[PathResult<PathCone>]) -> MergeReport {
    // Index fork points: map each decision prefix to the paths taking
    // `false` and `true` there.
    let mut forks: Vec<(Vec<bool>, Vec<usize>, Vec<usize>)> = Vec::new();
    let mut fork_index: HashMap<Vec<bool>, usize> = HashMap::new();
    for (index, path) in paths.iter().enumerate() {
        for depth in 0..path.decisions.len() {
            let prefix = path.decisions[..depth].to_vec();
            let slot = *fork_index.entry(prefix).or_insert_with(|| {
                forks.push((path.decisions[..depth].to_vec(), Vec::new(), Vec::new()));
                forks.len() - 1
            });
            if path.decisions[depth] {
                forks[slot].2.push(index);
            } else {
                forks[slot].1.push(index);
            }
        }
    }

    let mut sibling_groups = 0;
    let mut fetch_slot_groups = 0;
    let mut mergeable_groups = 0;
    let mut samples = Vec::new();
    for (prefix, falses, trues) in &forks {
        if falses.is_empty() || trues.is_empty() {
            continue; // a straight-line prefix, not a fork
        }
        sibling_groups += 1;
        let diverging = diverging_constraints(paths, falses, trues);
        let diverging_bits = fetch_slot_bits(ctx, &diverging);
        if diverging_bits.is_empty() {
            continue; // the fork diverges on register data, not fetch bits
        }
        fetch_slot_groups += 1;
        let outputs: Vec<TermId> = falses
            .iter()
            .chain(trues.iter())
            .flat_map(|&p| paths[p].value.outputs.iter().copied())
            .collect();
        let observed_bits = fetch_slot_bits(ctx, &outputs);
        if !bits_disjoint(&diverging_bits, &observed_bits) {
            continue;
        }
        mergeable_groups += 1;
        if samples.len() < MERGE_SAMPLE_CAP {
            let mut group_paths: Vec<usize> = falses.iter().chain(trues.iter()).copied().collect();
            group_paths.sort_unstable();
            samples.push(MergeGroup {
                depth: prefix.len(),
                size: group_paths.len(),
                paths: group_paths.into_iter().take(MERGE_SAMPLE_CAP).collect(),
                diverging_bits: diverging_bits
                    .iter()
                    .filter_map(|&(sym, bits)| {
                        ctx.symbol_name(sym)
                            .map(|name| format!("{name} bits {bits:#010x}"))
                    })
                    .collect(),
            });
        }
    }
    let samples_truncated = mergeable_groups > samples.len();
    MergeReport {
        sibling_groups,
        fetch_slot_groups,
        mergeable_groups,
        samples,
        samples_truncated,
    }
}

/// Constraints held by every path of one arm and no path of the other:
/// the forked decision itself (in both polarities) plus anything asserted
/// unconditionally in exactly one arm.
fn diverging_constraints(
    paths: &[PathResult<PathCone>],
    falses: &[usize],
    trues: &[usize],
) -> Vec<TermId> {
    let union_of = |arm: &[usize]| -> HashSet<TermId> {
        arm.iter()
            .flat_map(|&p| paths[p].value.constraints.iter().copied())
            .collect()
    };
    let intersection_of = |arm: &[usize]| -> HashSet<TermId> {
        let mut iter = arm.iter();
        let mut common: HashSet<TermId> = iter
            .next()
            .map(|&p| paths[p].value.constraints.iter().copied().collect())
            .unwrap_or_default();
        for &p in iter {
            let set: HashSet<TermId> = paths[p].value.constraints.iter().copied().collect();
            common.retain(|c| set.contains(c));
        }
        common
    };
    let (union_f, union_t) = (union_of(falses), union_of(trues));
    let mut diverging: Vec<TermId> = intersection_of(falses)
        .into_iter()
        .filter(|c| !union_t.contains(c))
        .chain(
            intersection_of(trues)
                .into_iter()
                .filter(|c| !union_f.contains(c)),
        )
        .collect();
    diverging.sort_unstable();
    diverging
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
    use symcosim_symex::FETCH_SLOT_PREFIX;

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
    fn branch_sweep_is_clean_and_finds_mergeable_siblings() {
        let report = analyze(true);
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
        let merge = report.merge.as_ref().expect("merge analysis requested");
        assert!(merge.sibling_groups > 0);
        assert!(
            merge.mergeable_groups > 0,
            "expected at least one provably-disjoint sibling group \
             ({} sibling groups, {} diverging on fetch-slot bits)",
            merge.sibling_groups,
            merge.fetch_slot_groups
        );
        assert!(merge.fetch_slot_groups >= merge.mergeable_groups);
        assert!(!merge.samples.is_empty());
        assert!(merge.samples.len() <= MERGE_SAMPLE_CAP);
        for group in &merge.samples {
            assert!(group.size >= 2);
            assert!(!group.paths.is_empty());
            assert!(!group.diverging_bits.is_empty());
            assert!(group
                .diverging_bits
                .iter()
                .all(|n| n.starts_with(FETCH_SLOT_PREFIX)));
        }
        // Deterministic: a second run reproduces the same counts.
        let again = analyze(true);
        assert_eq!(again.paths_checked, report.paths_checked);
        assert_eq!(
            again.merge.as_ref().map(|m| m.mergeable_groups),
            Some(merge.mergeable_groups)
        );
    }
}
