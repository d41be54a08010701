//! Symbolic-IR well-formedness pass and executable `x0`-discard audit.
//!
//! The first half drives a real single-instruction co-simulation
//! symbolically (both models, shared symbolic instruction word, sliced
//! symbolic registers) and runs [`SymExec::lint_path`] — the
//! [`symcosim_symex::wf`] checker — over every explored path: term widths,
//! constraint shape (boolean, satisfiable-looking, connected) and symbol
//! coverage are re-validated on the exact DAGs the verification flow
//! builds. Advisory issues (dead or disconnected constraints, unbounded
//! symbols) are counted; hard violations gate.
//!
//! The second half is the executable side of the `x0` choke-point
//! invariant documented on `Iss::write_reg` and `Core::write_reg`: a
//! corpus of every writing instruction shape with `rd = x0` runs
//! concretely through both corrected models, and the architectural `x0`,
//! the RVFI `rd_addr` and the RVFI `rd_wdata` must all stay zero.

use symcosim_core::{CoSim, SymbolicInstrMemory, SymbolicJudge};
use symcosim_isa::{encode, opcodes, CsrOp, Instr, LoadKind, OpKind, Reg};
use symcosim_iss::{ArrayBus, Iss, IssConfig};
use symcosim_microrv32::{Core, CoreConfig};
use symcosim_rtl::{DBusResponse, IBusResponse, RvfiRecord};
use symcosim_symex::wf::WfIssueKind;
use symcosim_symex::{ConcreteDomain, Domain, Engine, EngineConfig, SearchStrategy, SymExec};

/// Result of the IR pass.
#[derive(Debug, Clone)]
pub struct IrReport {
    /// Number of symbolic paths whose constraint DAGs were checked.
    pub paths_checked: usize,
    /// Hard well-formedness violations (gating — must be empty).
    pub violations: Vec<String>,
    /// Constraints refuted by the abstract-interpretation lattice — the
    /// `statically-false-constraint` finding kind. A live path carrying
    /// one is a tooling bug, so these are also counted in `violations`;
    /// this field breaks them out for the report.
    pub statically_false: u64,
    /// Advisory issues across all paths (dead/disconnected constraints,
    /// unbounded symbols). Informational.
    pub advisories: u64,
    /// Symbols that appear in no path condition *and* no output term
    /// (architectural registers and PCs of both models) on some path —
    /// the `dead-symbol` finding kind. Names, deduplicated and sorted.
    /// Informational.
    pub dead_symbols: Vec<String>,
    /// Number of `rd = x0` corpus instructions executed per model.
    pub x0_cases: usize,
    /// `x0`-discard violations (gating — must be empty).
    pub x0_violations: Vec<String>,
}

impl IrReport {
    /// Number of gating findings.
    #[must_use]
    pub fn findings(&self) -> usize {
        self.violations.len() + self.x0_violations.len()
    }
}

/// Opcode the symbolic pass explores. OP keeps the path count small (the
/// ten R-type operations plus the illegal funct3/funct7 classes) while
/// still exercising decode, the ALU, register writeback and the voter.
const IR_OPCODE: u32 = opcodes::OP;

/// An instruction memory constrained to one major opcode (the session's
/// `InstrConstraint::OnlyOpcode`, reconstructed here so the lint crate
/// controls the exploration exactly).
pub(crate) fn only_opcode_imem<D: Domain>(opcode: u32) -> SymbolicInstrMemory<D> {
    SymbolicInstrMemory::with_constraint(move |dom: &mut D, instr| {
        let field = dom.field(instr, 6, 0);
        let is_target = dom.eq_const(field, opcode & 0x7f);
        dom.assume(is_target);
    })
}

/// Runs the symbolic pass and the `x0` audit.
#[must_use]
pub fn analyze() -> IrReport {
    let mut engine = Engine::new(EngineConfig {
        strategy: SearchStrategy::Dfs,
        max_paths: 4096,
        max_decisions_per_path: 4096,
        seed: 0x11e7,
        ..EngineConfig::default()
    });
    let outcome = engine.explore(|exec: &mut SymExec<'_>| {
        let imem = only_opcode_imem(IR_OPCODE);
        let mut cosim = CoSim::new(
            exec,
            CoreConfig::fixed(),
            IssConfig::fixed(),
            None,
            imem,
            2,
            16,
            1,
            64,
        );
        let _ = cosim.run(exec, &mut SymbolicJudge);
        // The output frontier: everything the voter observes — both
        // models' PCs and full architectural register files. A symbol
        // reaching neither a constraint nor this frontier is dead.
        let mut outputs = vec![cosim.core.pc(), cosim.iss.pc()];
        outputs.extend(cosim.core.registers().iter().copied());
        outputs.extend(cosim.iss.registers().iter().copied());
        exec.lint_path_with_outputs(&outputs)
    });

    let mut violations = Vec::new();
    let mut statically_false = 0u64;
    let mut advisories = 0u64;
    let mut dead_symbols = Vec::new();
    for (index, path) in outcome.paths.iter().enumerate() {
        for issue in &path.value {
            if issue.kind == WfIssueKind::DeadSymbol {
                if let Some(name) = engine.ctx().symbol_name(issue.term) {
                    dead_symbols.push(name.to_string());
                }
            }
            if issue.kind == WfIssueKind::StaticallyFalseConstraint {
                statically_false += 1;
            }
            if issue.kind.advisory() {
                advisories += 1;
            } else {
                violations.push(format!("path {index}: {issue}"));
            }
        }
    }
    dead_symbols.sort_unstable();
    dead_symbols.dedup();

    let (x0_cases, x0_violations) = x0_audit();
    IrReport {
        paths_checked: outcome.paths.len(),
        violations,
        statically_false,
        advisories,
        dead_symbols,
        x0_cases,
        x0_violations,
    }
}

/// One instruction of every register-writing shape, all with `rd = x0`.
/// Source operands use `x1` (preset to an aligned address) so loads,
/// jumps and CSR accesses execute without trapping.
fn x0_corpus() -> Vec<Instr> {
    vec![
        Instr::Lui {
            rd: Reg::X0,
            imm: 0x12345 << 12,
        },
        Instr::Auipc {
            rd: Reg::X0,
            imm: 0x1000,
        },
        Instr::Jal {
            rd: Reg::X0,
            offset: 8,
        },
        Instr::Jalr {
            rd: Reg::X0,
            rs1: Reg::X1,
            imm: 0,
        },
        Instr::Load {
            kind: LoadKind::Lw,
            rd: Reg::X0,
            rs1: Reg::X0,
            imm: 8,
        },
        Instr::Addi {
            rd: Reg::X0,
            rs1: Reg::X1,
            imm: 42,
        },
        Instr::Sltiu {
            rd: Reg::X0,
            rs1: Reg::X1,
            imm: 1,
        },
        Instr::Slli {
            rd: Reg::X0,
            rs1: Reg::X1,
            shamt: 3,
        },
        Instr::Op {
            kind: OpKind::Add,
            rd: Reg::X0,
            rs1: Reg::X1,
            rs2: Reg::X1,
        },
        Instr::Csr {
            op: CsrOp::Rs,
            rd: Reg::X0,
            rs1: Reg::X0,
            csr: 0x340,
        },
        Instr::CsrImm {
            op: CsrOp::Rw,
            rd: Reg::X0,
            uimm: 5,
            csr: 0x340,
        },
    ]
}

/// Checks one model's retirement of an `rd = x0` instruction.
fn check_x0_retire(
    model: &'static str,
    instr: &Instr,
    word: u32,
    rvfi: &RvfiRecord<u32>,
    x0: u32,
    violations: &mut Vec<String>,
) {
    if rvfi.trap {
        violations.push(format!(
            "0x{word:08x} ({instr:?}): unexpected {model} trap (cause {:?})",
            rvfi.trap_cause
        ));
    }
    if x0 != 0 {
        violations.push(format!(
            "0x{word:08x} ({instr:?}): {model} architectural x0 became 0x{x0:08x}"
        ));
    }
    if rvfi.rd_addr != 0 || rvfi.rd_wdata != 0 {
        violations.push(format!(
            "0x{word:08x} ({instr:?}): {model} RVFI reports rd x{} wdata 0x{:08x} \
             (both must be zero for rd = x0)",
            rvfi.rd_addr, rvfi.rd_wdata
        ));
    }
}

/// Runs the corpus through both corrected models.
fn x0_audit() -> (usize, Vec<String>) {
    let corpus = x0_corpus();
    let mut violations = Vec::new();
    for instr in &corpus {
        assert_eq!(instr.rd(), Some(Reg::X0), "corpus entry must write x0");
        let word = encode(instr);

        let mut dom = ConcreteDomain::new();
        let mut iss = Iss::new(&mut dom, IssConfig::fixed());
        iss.set_register(1, 0x0000_0100);
        let mut bus: ArrayBus<ConcreteDomain> = ArrayBus::new(16);
        let rvfi = iss.step(&mut dom, &mut bus, word);
        check_x0_retire("ISS", instr, word, &rvfi, iss.register(0), &mut violations);

        let mut dom = ConcreteDomain::new();
        let mut core = Core::new(&mut dom, CoreConfig::fixed());
        core.set_register(1, 0x0000_0100);
        let mut retired = None;
        for _ in 0..16 {
            let outputs = core.cycle(
                &mut dom,
                IBusResponse {
                    instruction_ready: true,
                    instruction: word,
                },
                DBusResponse {
                    data_ready: true,
                    read_data: 0,
                },
            );
            if let Some(rvfi) = outputs.rvfi {
                retired = Some(rvfi);
                break;
            }
        }
        match retired {
            Some(rvfi) => {
                check_x0_retire(
                    "core",
                    instr,
                    word,
                    &rvfi,
                    core.register(0),
                    &mut violations,
                );
            }
            None => violations.push(format!(
                "0x{word:08x} ({instr:?}): core did not retire within 16 cycles"
            )),
        }
    }
    (corpus.len(), violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x0_audit_passes_on_the_corrected_models() {
        let (cases, violations) = x0_audit();
        assert!(cases >= 10, "corpus should cover every writing shape");
        assert!(violations.is_empty(), "{violations:#?}");
    }

    #[test]
    fn symbolic_pass_is_clean_and_deterministic() {
        let first = analyze();
        assert!(first.violations.is_empty(), "{:#?}", first.violations);
        assert!(first.paths_checked > 0);
        let second = analyze();
        assert_eq!(first.paths_checked, second.paths_checked);
        assert_eq!(first.advisories, second.advisories);
    }
}
