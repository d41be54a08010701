//! The voter: detects functional mismatches between core and ISS.

use std::fmt;

use symcosim_rtl::RvfiRecord;
use symcosim_symex::{ConcreteDomain, Domain, Node, PathProbe, TermId};

/// Which architectural observation disagreed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MismatchKind {
    /// One model trapped and the other did not, or the causes differ
    /// (`None` = no trap, `Some(cause)` = trapped with that `mcause`).
    TrapDisagreement {
        /// The RTL core's outcome.
        core: Option<u32>,
        /// The ISS's outcome.
        iss: Option<u32>,
    },
    /// The post-instruction program counters can differ.
    PcMismatch,
    /// The reported destination register indices can differ.
    RdAddrMismatch,
    /// The reported destination register write values can differ.
    RdValueMismatch,
    /// Architectural register `index` can differ after the instruction.
    RegFileMismatch {
        /// Register index (1..32).
        index: usize,
    },
    /// Data memory word `word_index` can differ at the end of the run.
    MemoryMismatch {
        /// Word index within the data memory.
        word_index: usize,
    },
}

impl fmt::Display for MismatchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MismatchKind::TrapDisagreement { core, iss } => {
                let show = |o: &Option<u32>| match o {
                    None => "no trap".to_string(),
                    Some(cause) => format!("trap (cause {cause})"),
                };
                write!(
                    f,
                    "trap disagreement: core {}, iss {}",
                    show(core),
                    show(iss)
                )
            }
            MismatchKind::PcMismatch => f.write_str("next-PC mismatch"),
            MismatchKind::RdAddrMismatch => f.write_str("destination register index mismatch"),
            MismatchKind::RdValueMismatch => f.write_str("destination register value mismatch"),
            MismatchKind::RegFileMismatch { index } => {
                write!(f, "register file mismatch at x{index}")
            }
            MismatchKind::MemoryMismatch { word_index } => {
                write!(f, "data memory mismatch at word {word_index}")
            }
        }
    }
}

/// A functional difference between the two models, found on one path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// What disagreed.
    pub kind: MismatchKind,
    /// Zero-based index of the instruction that exposed it.
    pub instr_index: u64,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "instruction {}: {}", self.instr_index, self.kind)
    }
}

/// Domain-specific mismatch oracle.
///
/// The voter builds *can-these-differ* conditions; how they are discharged
/// depends on the domain: concretely it is a plain comparison, symbolically
/// a satisfiability query against the path condition. `commit` pins a
/// discovered mismatch into the path so the extracted test vector
/// reproduces it.
pub trait Judge<D: Domain> {
    /// Can `cond` be true under the current path?
    fn possibly_true(&mut self, dom: &mut D, cond: D::Bool) -> bool;
    /// Pins `cond` (already known possible) into the path condition.
    fn commit(&mut self, dom: &mut D, cond: D::Bool);

    /// `word` as `ite(cond, then, else)`, when the domain keeps term
    /// structure and `word` has that shape. The concrete domain has no
    /// structure, so the default is `None`.
    fn ite_view(&self, _dom: &D, _word: D::Word) -> Option<(D::Bool, D::Word, D::Word)> {
        None
    }

    /// `cond` as `word == value` for a constant `value`; `None` as for
    /// [`Judge::ite_view`].
    fn eq_const_view(&self, _dom: &D, _cond: D::Bool) -> Option<(D::Word, u32)> {
        None
    }

    /// Debug builds: [`Judge::possibly_true`] asked as it is, with no
    /// query rewrite. The voter checks its congruence skips against it.
    #[cfg(debug_assertions)]
    fn reference_possibly_true(&mut self, dom: &mut D, cond: D::Bool) -> bool {
        self.possibly_true(dom, cond)
    }
}

/// Concrete-domain judge: conditions are plain booleans.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConcreteJudge;

impl Judge<ConcreteDomain> for ConcreteJudge {
    fn possibly_true(&mut self, _dom: &mut ConcreteDomain, cond: bool) -> bool {
        cond
    }

    fn commit(&mut self, _dom: &mut ConcreteDomain, _cond: bool) {}
}

/// Symbolic-domain judge: conditions go to the solver.
///
/// Blanket over [`PathProbe`], so the same judge serves the re-execution
/// executor ([`SymExec`](symcosim_symex::SymExec)) and the fork-engine
/// executor ([`ForkExec`](symcosim_symex::ForkExec)).
#[derive(Debug, Clone, Copy, Default)]
pub struct SymbolicJudge;

impl<D: PathProbe> Judge<D> for SymbolicJudge {
    fn possibly_true(&mut self, dom: &mut D, cond: TermId) -> bool {
        dom.check_sat(cond)
    }

    fn commit(&mut self, dom: &mut D, cond: TermId) {
        dom.add_constraint(cond);
    }

    fn ite_view(&self, dom: &D, word: TermId) -> Option<(TermId, TermId, TermId)> {
        match dom.node(word) {
            Node::Ite(cond, then_w, else_w) => Some((cond, then_w, else_w)),
            _ => None,
        }
    }

    fn eq_const_view(&self, dom: &D, cond: TermId) -> Option<(TermId, u32)> {
        let Node::Eq(a, b) = dom.node(cond) else {
            return None;
        };
        match (dom.word_value(a), dom.word_value(b)) {
            (None, Some(value)) => Some((a, value)),
            (Some(value), None) => Some((b, value)),
            _ => None,
        }
    }

    #[cfg(debug_assertions)]
    fn reference_possibly_true(&mut self, dom: &mut D, cond: TermId) -> bool {
        dom.reference_sat(cond)
    }
}

/// Compares per-instruction retirement behaviour of the two models.
///
/// Modelled on the paper's RVFI-based voter: trap outcome, old/new PC and
/// the destination register write are checked, plus (strictly stronger) the
/// entire architectural register file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Voter {
    /// Compare the post-instruction PC.
    pub compare_pc: bool,
    /// Compare the RVFI destination-register fields.
    pub compare_rd: bool,
    /// Compare all 32 architectural registers.
    pub compare_regfile: bool,
}

impl Default for Voter {
    fn default() -> Voter {
        Voter {
            compare_pc: true,
            compare_rd: true,
            compare_regfile: true,
        }
    }
}

impl Voter {
    /// Creates the default (full-comparison) voter.
    pub fn new() -> Voter {
        Voter::default()
    }

    /// Compares one retirement; returns the first mismatch found.
    #[allow(clippy::too_many_arguments)]
    pub fn compare_step<D, J>(
        &self,
        dom: &mut D,
        judge: &mut J,
        instr_index: u64,
        core_retire: &RvfiRecord<D::Word>,
        iss_retire: &RvfiRecord<D::Word>,
        core_regs: &[D::Word; 32],
        iss_regs: &[D::Word; 32],
    ) -> Option<Mismatch>
    where
        D: Domain,
        J: Judge<D>,
    {
        // Trap outcome is concrete control flow: compare directly.
        let core_trap = core_retire
            .trap
            .then_some(core_retire.trap_cause.unwrap_or(0));
        let iss_trap = iss_retire
            .trap
            .then_some(iss_retire.trap_cause.unwrap_or(0));
        if core_trap != iss_trap {
            return Some(Mismatch {
                kind: MismatchKind::TrapDisagreement {
                    core: core_trap,
                    iss: iss_trap,
                },
                instr_index,
            });
        }

        if self.compare_pc {
            let ne = dom.ne_w(core_retire.pc_wdata, iss_retire.pc_wdata);
            if judge.possibly_true(dom, ne) {
                judge.commit(dom, ne);
                return Some(Mismatch {
                    kind: MismatchKind::PcMismatch,
                    instr_index,
                });
            }
        }

        // Set once the path has proved both `rd` fields equal.
        let mut rd_proven = false;
        if self.compare_rd && !core_retire.trap {
            let ne = dom.ne_w(core_retire.rd_addr, iss_retire.rd_addr);
            if judge.possibly_true(dom, ne) {
                judge.commit(dom, ne);
                return Some(Mismatch {
                    kind: MismatchKind::RdAddrMismatch,
                    instr_index,
                });
            }
            let ne = dom.ne_w(core_retire.rd_wdata, iss_retire.rd_wdata);
            if judge.possibly_true(dom, ne) {
                judge.commit(dom, ne);
                return Some(Mismatch {
                    kind: MismatchKind::RdValueMismatch,
                    instr_index,
                });
            }
            rd_proven = true;
        }

        if self.compare_regfile {
            for index in 1..32 {
                let (core_reg, iss_reg) = (core_regs[index], iss_regs[index]);
                let ne = dom.ne_w(core_reg, iss_reg);
                if dom.bool_value(ne).is_none()
                    && rd_proven
                    && write_congruent(dom, judge, core_retire, iss_retire, core_reg, iss_reg)
                {
                    #[cfg(debug_assertions)]
                    assert!(
                        !judge.reference_possibly_true(dom, ne),
                        "register congruence skipped a satisfiable miter at x{index}"
                    );
                    continue;
                }
                if judge.possibly_true(dom, ne) {
                    judge.commit(dom, ne);
                    return Some(Mismatch {
                        kind: MismatchKind::RegFileMismatch { index },
                        instr_index,
                    });
                }
            }
        }

        None
    }

    /// Compares the two data memories at the end of a run.
    pub fn compare_memory<D, J>(
        &self,
        dom: &mut D,
        judge: &mut J,
        instr_index: u64,
        core_words: &[D::Word],
        iss_words: &[D::Word],
    ) -> Option<Mismatch>
    where
        D: Domain,
        J: Judge<D>,
    {
        debug_assert_eq!(core_words.len(), iss_words.len());
        for (word_index, (a, b)) in core_words.iter().zip(iss_words).enumerate() {
            let ne = dom.ne_w(*a, *b);
            if judge.possibly_true(dom, ne) {
                judge.commit(dom, ne);
                return Some(Mismatch {
                    kind: MismatchKind::MemoryMismatch { word_index },
                    instr_index,
                });
            }
        }
        None
    }
}

/// Register congruence: whether a register is equal in both models by
/// what the path has already proved, once the `rd_addr` and `rd_wdata`
/// miters are unsatisfiable.
///
/// Both models write rd as `ite(rd == i, v, old)` and report the write as
/// `ite(rd == 0, 0, v)`. When the two register terms share the guard
/// `rd == i` (i ≥ 1, `rd` the core's reported index) and the `old` term,
/// they can only differ where `rd == i`. There `rd ≠ 0`, in both models
/// because the reported indices are proven equal, so the reported values
/// are the written ones, and those are proven equal.
fn write_congruent<D, J>(
    dom: &D,
    judge: &J,
    core_retire: &RvfiRecord<D::Word>,
    iss_retire: &RvfiRecord<D::Word>,
    core_reg: D::Word,
    iss_reg: D::Word,
) -> bool
where
    D: Domain,
    J: Judge<D>,
{
    let (Some((guard, core_value, old)), Some((iss_guard, iss_value, iss_old))) =
        (judge.ite_view(dom, core_reg), judge.ite_view(dom, iss_reg))
    else {
        return false;
    };
    let guard_selects_rd = matches!(
        judge.eq_const_view(dom, guard),
        Some((rd, i)) if i != 0 && rd == core_retire.rd_addr
    );
    guard == iss_guard
        && old == iss_old
        && guard_selects_rd
        && reports_write(dom, judge, core_retire, core_value)
        && reports_write(dom, judge, iss_retire, iss_value)
}

/// Whether `retire` reports `value` as its rd write: `rd_wdata` is
/// `ite(rd_addr == 0, 0, value)`.
fn reports_write<D, J>(dom: &D, judge: &J, retire: &RvfiRecord<D::Word>, value: D::Word) -> bool
where
    D: Domain,
    J: Judge<D>,
{
    let Some((is_x0, zero, written)) = judge.ite_view(dom, retire.rd_wdata) else {
        return false;
    };
    written == value
        && dom.word_value(zero) == Some(0)
        && judge.eq_const_view(dom, is_x0) == Some((retire.rd_addr, 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use symcosim_symex::{Engine, EngineConfig, SymExec};

    fn record(pc_wdata: u32, rd_addr: u32, rd_wdata: u32, trap: Option<u32>) -> RvfiRecord<u32> {
        RvfiRecord {
            valid: true,
            order: 0,
            insn: 0x13,
            trap: trap.is_some(),
            trap_cause: trap,
            pc_rdata: 0,
            pc_wdata,
            rd_addr,
            rd_wdata,
        }
    }

    #[test]
    fn equal_records_produce_no_mismatch() {
        let mut dom = ConcreteDomain::new();
        let voter = Voter::new();
        let regs = [0u32; 32];
        let a = record(4, 1, 42, None);
        let result = voter.compare_step(
            &mut dom,
            &mut ConcreteJudge,
            0,
            &a,
            &a.clone(),
            &regs,
            &regs,
        );
        assert!(result.is_none());
    }

    #[test]
    fn trap_disagreement_detected_first() {
        let mut dom = ConcreteDomain::new();
        let voter = Voter::new();
        let regs = [0u32; 32];
        let core = record(0, 0, 0, Some(2));
        let iss = record(4, 1, 42, None);
        let m = voter
            .compare_step(&mut dom, &mut ConcreteJudge, 3, &core, &iss, &regs, &regs)
            .expect("mismatch");
        assert_eq!(
            m.kind,
            MismatchKind::TrapDisagreement {
                core: Some(2),
                iss: None
            }
        );
        assert_eq!(m.instr_index, 3);
    }

    #[test]
    fn differing_causes_disagree() {
        let mut dom = ConcreteDomain::new();
        let voter = Voter::new();
        let regs = [0u32; 32];
        let core = record(0, 0, 0, Some(2));
        let iss = record(0, 0, 0, Some(4));
        let m = voter
            .compare_step(&mut dom, &mut ConcreteJudge, 0, &core, &iss, &regs, &regs)
            .expect("mismatch");
        assert!(matches!(m.kind, MismatchKind::TrapDisagreement { .. }));
    }

    #[test]
    fn pc_then_rd_then_regfile_order() {
        let mut dom = ConcreteDomain::new();
        let voter = Voter::new();
        let regs = [0u32; 32];
        let base = record(4, 1, 42, None);

        let pc_diff = record(8, 1, 42, None);
        let m = voter
            .compare_step(
                &mut dom,
                &mut ConcreteJudge,
                0,
                &pc_diff,
                &base,
                &regs,
                &regs,
            )
            .expect("pc mismatch");
        assert_eq!(m.kind, MismatchKind::PcMismatch);

        let rd_diff = record(4, 2, 42, None);
        let m = voter
            .compare_step(
                &mut dom,
                &mut ConcreteJudge,
                0,
                &rd_diff,
                &base,
                &regs,
                &regs,
            )
            .expect("rd mismatch");
        assert_eq!(m.kind, MismatchKind::RdAddrMismatch);

        let val_diff = record(4, 1, 43, None);
        let m = voter
            .compare_step(
                &mut dom,
                &mut ConcreteJudge,
                0,
                &val_diff,
                &base,
                &regs,
                &regs,
            )
            .expect("value mismatch");
        assert_eq!(m.kind, MismatchKind::RdValueMismatch);

        let mut core_regs = regs;
        core_regs[7] = 1;
        let m = voter
            .compare_step(
                &mut dom,
                &mut ConcreteJudge,
                0,
                &base,
                &base.clone(),
                &core_regs,
                &regs,
            )
            .expect("regfile mismatch");
        assert_eq!(m.kind, MismatchKind::RegFileMismatch { index: 7 });
    }

    #[test]
    fn memory_comparison() {
        let mut dom = ConcreteDomain::new();
        let voter = Voter::new();
        let a = [1u32, 2, 3];
        let b = [1u32, 9, 3];
        let m = voter
            .compare_memory(&mut dom, &mut ConcreteJudge, 5, &a, &b)
            .expect("memory mismatch");
        assert_eq!(m.kind, MismatchKind::MemoryMismatch { word_index: 1 });
        assert!(voter
            .compare_memory(&mut dom, &mut ConcreteJudge, 5, &a, &a)
            .is_none());
    }

    /// Both models' register write and `rd` report, as they build them:
    /// `ite(rd == i, value, old)` per register and `ite(rd == 0, 0, value)`.
    fn symbolic_retire(
        exec: &mut SymExec<'_>,
        rd: TermId,
        value: TermId,
        old: &[TermId; 32],
    ) -> (RvfiRecord<TermId>, [TermId; 32]) {
        let mut regs = *old;
        for (i, reg) in regs.iter_mut().enumerate().skip(1) {
            let hit = exec.eq_const(rd, i as u32);
            *reg = exec.ite(hit, value, *reg);
        }
        let zero = exec.const_word(0);
        let is_x0 = exec.eq_const(rd, 0);
        let rd_wdata = exec.ite(is_x0, zero, value);
        let pc_wdata = exec.const_word(4);
        let record = RvfiRecord {
            valid: true,
            order: 0,
            insn: zero,
            trap: false,
            trap_cause: None,
            pc_rdata: zero,
            pc_wdata,
            rd_addr: rd,
            rd_wdata,
        };
        (record, regs)
    }

    /// The symbolic judge, counting the miters that reach the solver.
    #[derive(Default)]
    struct CountingJudge {
        asked: usize,
    }

    impl<D: PathProbe> Judge<D> for CountingJudge {
        fn possibly_true(&mut self, dom: &mut D, cond: TermId) -> bool {
            if dom.bool_value(cond).is_none() {
                self.asked += 1;
            }
            SymbolicJudge.possibly_true(dom, cond)
        }

        fn commit(&mut self, dom: &mut D, cond: TermId) {
            SymbolicJudge.commit(dom, cond);
        }

        fn ite_view(&self, dom: &D, word: TermId) -> Option<(TermId, TermId, TermId)> {
            SymbolicJudge.ite_view(dom, word)
        }

        fn eq_const_view(&self, dom: &D, cond: TermId) -> Option<(TermId, u32)> {
            SymbolicJudge.eq_const_view(dom, cond)
        }

        #[cfg(debug_assertions)]
        fn reference_possibly_true(&mut self, dom: &mut D, cond: TermId) -> bool {
            self.asked += 1;
            SymbolicJudge.reference_possibly_true(dom, cond)
        }
    }

    /// Votes one symbolic retirement over a symbolic `rd` and symbolic
    /// registers. `values` gives the core's and the ISS's written value
    /// from `x1`; `iss_old` may replace the ISS's old register terms.
    /// Returns the mismatch and the number of solver queries.
    fn symbolic_vote(
        values: fn(&mut SymExec<'_>, TermId) -> (TermId, TermId),
        iss_old: fn(&mut SymExec<'_>, &mut [TermId; 32]),
    ) -> (Option<MismatchKind>, usize) {
        let mut engine = Engine::new(EngineConfig::default());
        let outcome = engine.explore(|exec| {
            let insn = exec.fresh_word("insn");
            let rd = exec.field(insn, 11, 7);
            let mut old = [exec.const_word(0); 32];
            for (i, reg) in old.iter_mut().enumerate().skip(1) {
                *reg = exec.fresh_word(&format!("x{i}"));
            }
            let (core_value, iss_value) = values(exec, old[1]);
            let (core, core_regs) = symbolic_retire(exec, rd, core_value, &old);
            iss_old(exec, &mut old);
            let (iss, iss_regs) = symbolic_retire(exec, rd, iss_value, &old);
            let mut judge = CountingJudge::default();
            let mismatch =
                Voter::new().compare_step(exec, &mut judge, 0, &core, &iss, &core_regs, &iss_regs);
            (mismatch.map(|m| m.kind), judge.asked)
        });
        assert_eq!(outcome.paths.len(), 1, "the vote does not fork");
        outcome.paths[0].value.clone()
    }

    #[test]
    fn congruent_registers_are_equal_without_a_query() {
        // `x1 + x1` and `x1 << 1` are different terms with one value: the
        // `rd_wdata` miter is the only one the solver sees. Debug builds
        // re-ask each of the 31 skipped register miters.
        let (mismatch, asked) = symbolic_vote(
            |exec, x| {
                let doubled = exec.add(x, x);
                (doubled, exec.shl_const(x, 1))
            },
            |_, _| {},
        );
        assert_eq!(mismatch, None);
        assert_eq!(asked, if cfg!(debug_assertions) { 32 } else { 1 });
    }

    #[test]
    fn a_differing_written_value_is_still_reported() {
        let (mismatch, _) = symbolic_vote(
            |exec, x| {
                let one = exec.const_word(1);
                (x, exec.add(x, one))
            },
            |_, _| {},
        );
        assert_eq!(mismatch, Some(MismatchKind::RdValueMismatch));
    }

    #[test]
    fn a_register_whose_old_terms_differ_is_still_reported() {
        // Same guard, same written value, different `old`: the rule must
        // not fire, and the solver finds `rd != 5` with `x5 != y5`.
        let (mismatch, _) =
            symbolic_vote(|_, x| (x, x), |exec, old| old[5] = exec.fresh_word("y5"));
        assert_eq!(mismatch, Some(MismatchKind::RegFileMismatch { index: 5 }));
    }

    #[test]
    fn display_is_informative() {
        let m = Mismatch {
            kind: MismatchKind::TrapDisagreement {
                core: Some(2),
                iss: None,
            },
            instr_index: 1,
        };
        let text = m.to_string();
        assert!(text.contains("instruction 1"));
        assert!(text.contains("cause 2"));
    }
}
