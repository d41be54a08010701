//! Finding classification and the verification report.
//!
//! Reproduces the result taxonomy of Table I: every mismatch is attributed
//! to an instruction or CSR (column *Instruction & CSR*), described
//! (column *Description*), and classified (column *R*) as an RTL error
//! (`E`), an ISS error (`E*`) or a permitted-implementation mismatch (`M`).

use std::fmt;
use std::time::Duration;

use symcosim_isa::{decode, Csr, CsrClass, Instr, Trap};
use symcosim_symex::{
    CoreReplayUnit, ProofAuditStats, QueryCacheStats, SolverChainStats, SolverStats, TestVector,
};

use crate::certify::CoverageData;
use crate::json::{self, JsonWriter};
use crate::voter::{Mismatch, MismatchKind};

/// Table I's *R* column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FindingClass {
    /// `E` — an error in the RTL core.
    RtlError,
    /// `E*` — an error in the reference ISS.
    IssError,
    /// `M` — an implementation mismatch permitted by the ISA.
    ImplMismatch,
    /// The classifier could not attribute the finding.
    Unclassified,
}

impl fmt::Display for FindingClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            FindingClass::RtlError => "E",
            FindingClass::IssError => "E*",
            FindingClass::ImplMismatch => "M",
            FindingClass::Unclassified => "?",
        };
        f.write_str(text)
    }
}

/// One classified verification finding (a Table I row).
#[derive(Debug, Clone)]
pub struct Finding {
    /// The underlying voter mismatch.
    pub mismatch: Mismatch,
    /// Classification (Table I column *R*).
    pub class: FindingClass,
    /// The responsible instruction or CSR (Table I column 1).
    pub subject: String,
    /// Short description (Table I column *Description*).
    pub label: String,
    /// Disassembly of a triggering instruction (Table I column *Example*).
    pub example: Option<String>,
    /// Concrete inputs reproducing the finding.
    pub witness: Option<TestVector>,
}

impl Finding {
    /// Deduplication key: one Table I row per (subject, description).
    pub fn dedup_key(&self) -> (String, String) {
        (self.subject.clone(), self.label.clone())
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {} — {}", self.class, self.subject, self.label)?;
        if let Some(example) = &self.example {
            write!(f, " (e.g. `{example}`)")?;
        }
        Ok(())
    }
}

/// Classifies a mismatch, given the concrete witness instruction word.
pub(crate) fn classify(instr_word: Option<u32>, mismatch: &Mismatch) -> Finding {
    let (class, subject, label, example) = classify_parts(instr_word, &mismatch.kind);
    Finding {
        mismatch: mismatch.clone(),
        class,
        subject,
        label,
        example,
        witness: None,
    }
}

fn mnemonic(instr: &Instr) -> String {
    instr
        .to_string()
        .split_whitespace()
        .next()
        .unwrap_or("?")
        .to_uppercase()
}

fn classify_parts(
    instr_word: Option<u32>,
    kind: &MismatchKind,
) -> (FindingClass, String, String, Option<String>) {
    let Some(word) = instr_word else {
        return (
            FindingClass::Unclassified,
            "?".to_string(),
            kind.to_string(),
            None,
        );
    };
    let decoded = decode(word);
    let example = decoded
        .as_ref()
        .map(|i| i.to_string())
        .unwrap_or(format!("{word:#010x}"));

    let illegal = Trap::IllegalInstruction.cause();
    match decoded {
        Err(_) => match kind {
            MismatchKind::TrapDisagreement {
                core: None,
                iss: Some(c),
            } if *c == illegal => (
                FindingClass::RtlError,
                "illegal encoding".to_string(),
                "Missing illegal-instruction trap".to_string(),
                Some(example),
            ),
            MismatchKind::TrapDisagreement {
                core: Some(c),
                iss: None,
            } if *c == illegal => (
                FindingClass::IssError,
                "illegal encoding".to_string(),
                "Spurious illegal-instruction trap in VP".to_string(),
                Some(example),
            ),
            _ => (
                FindingClass::Unclassified,
                "illegal encoding".to_string(),
                kind.to_string(),
                Some(example),
            ),
        },
        Ok(instr) => {
            let subject = mnemonic(&instr);
            match instr {
                Instr::Load { .. } | Instr::Store { .. } => {
                    let misaligned_causes = [
                        Trap::LoadAddressMisaligned.cause(),
                        Trap::StoreAddressMisaligned.cause(),
                    ];
                    if let MismatchKind::TrapDisagreement { core, iss } = kind {
                        let involves_alignment = [core, iss]
                            .into_iter()
                            .flatten()
                            .any(|c| misaligned_causes.contains(c));
                        if involves_alignment {
                            return (
                                FindingClass::ImplMismatch,
                                subject,
                                "Missing alignment check".to_string(),
                                Some(example),
                            );
                        }
                    }
                    (
                        FindingClass::RtlError,
                        subject,
                        format!("{kind}"),
                        Some(example),
                    )
                }
                Instr::Wfi => (
                    FindingClass::RtlError,
                    "WFI".to_string(),
                    "Missing WFI instruction".to_string(),
                    Some(example),
                ),
                Instr::Csr { csr, .. } | Instr::CsrImm { csr, .. } => {
                    classify_csr(Csr(csr), kind, example)
                }
                _ => (
                    FindingClass::RtlError,
                    subject,
                    format!("{kind}"),
                    Some(example),
                ),
            }
        }
    }
}

fn classify_csr(
    csr: Csr,
    kind: &MismatchKind,
    example: String,
) -> (FindingClass, String, String, Option<String>) {
    let example = Some(example);
    let Some(name) = csr.name() else {
        // Completely unarchitected CSR address: the access itself must trap.
        return (
            FindingClass::RtlError,
            "unimpl. CSRs".to_string(),
            "Missing trap at access".to_string(),
            example,
        );
    };
    let subject = name.to_string();

    // The two VP bugs: spurious traps on medeleg/mideleg reads.
    if csr == Csr::MEDELEG || csr == Csr::MIDELEG {
        return (
            FindingClass::IssError,
            subject.clone(),
            format!("VP traps at {subject} read"),
            example,
        );
    }

    // CSR families the RTL core simply does not implement: any observable
    // difference there is an implementation mismatch (Table I's "unimpl."
    // rows), regardless of how it manifested.
    match csr.class() {
        CsrClass::UnprivilegedCounter => {
            return (
                FindingClass::ImplMismatch,
                subject,
                "unimpl. Unprivileged CSR".to_string(),
                example,
            )
        }
        CsrClass::MachineHpmCounter | CsrClass::MachineHpmEvent => {
            // Group the 29-register families into one row each, as the
            // paper's Table I does ("mhpmcounter3-31").
            let family = if (0xb03..=0xb1f).contains(&csr.addr()) {
                "mhpmcounter3-31"
            } else if (0xb83..=0xb9f).contains(&csr.addr()) {
                "mhpmcounter3-31h"
            } else {
                "mhpmevent3-31"
            };
            return (
                FindingClass::ImplMismatch,
                family.to_string(),
                "unimpl. Privileged CSR".to_string(),
                example,
            );
        }
        _ if csr == Csr::MSCRATCH || csr == Csr::MCOUNTEREN => {
            return (
                FindingClass::ImplMismatch,
                subject,
                "unimpl. Privileged CSR".to_string(),
                example,
            )
        }
        _ => {}
    }

    let counters = [
        Csr::MIP,
        Csr::MCYCLE,
        Csr::MINSTRET,
        Csr::MCYCLEH,
        Csr::MINSTRETH,
    ];
    match kind {
        MismatchKind::TrapDisagreement {
            core: Some(_),
            iss: None,
        } if counters.contains(&csr) => (
            FindingClass::RtlError,
            subject,
            "Trap at write access".to_string(),
            example,
        ),
        MismatchKind::TrapDisagreement {
            core: None,
            iss: Some(_),
        } if csr.is_read_only() => (
            FindingClass::RtlError,
            subject,
            "Missing trap at write".to_string(),
            example,
        ),
        _ => match csr.class() {
            CsrClass::MachineCounter => (
                FindingClass::ImplMismatch,
                subject,
                "Cycle Count Mismatch".to_string(),
                example,
            ),
            _ => (
                FindingClass::Unclassified,
                subject,
                kind.to_string(),
                example,
            ),
        },
    }
}

/// Aggregate result of a verification session.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// Unique classified findings, in canonical path order (lexicographic
    /// on the discovering path's decision vector — identical for
    /// sequential and parallel exploration).
    pub findings: Vec<Finding>,
    /// Paths that ran to the instruction limit without incident.
    pub paths_complete: usize,
    /// Paths cut short: mismatches, cycle limits, infeasible assumptions
    /// (the paper's *partial paths*).
    pub paths_partial: usize,
    /// Instructions executed across both models and all paths.
    pub instructions_executed: u64,
    /// Core clock cycles across all paths.
    pub cycles: u64,
    /// Test vectors generated.
    pub test_vectors: usize,
    /// Wall-clock duration of the exploration.
    pub duration: Duration,
    /// `true` if the exploration stopped early (path budget or
    /// stop-at-first-mismatch) with work remaining.
    pub truncated: bool,
    /// Always 0. It counted the path records recovered from merged
    /// physical paths while the engine had state merging, which was
    /// removed because it never paid for itself. The field stays because
    /// the end-to-end benchmark still reads it; the next benchmark change
    /// drops it together with its `symex.merge.*` metrics. Excluded from
    /// [`to_json`](VerifyReport::to_json), like the duration and solver
    /// statistics.
    pub merged_paths: usize,
    /// Frontier jobs still queued when a truncated exploration stopped —
    /// a lower bound on the paths the truncation dropped (an unexplored
    /// job can fork further). Zero when the frontier drained. Scheduling-
    /// dependent on truncated parallel runs, so — like the duration — it
    /// is excluded from [`to_json`](VerifyReport::to_json).
    pub paths_dropped: usize,
    /// Symbolic-IR well-formedness issues found by the per-path lint pass
    /// (deduplicated, canonical path order). Empty unless
    /// [`SessionConfig::lint_ir`](crate::SessionConfig::lint_ir) is set.
    pub lint_issues: Vec<String>,
    /// SAT-solver statistics, summed over all workers' persistent solvers.
    pub solver_stats: SolverStats,
    /// Full-set feasibility-query cache counters, summed over all
    /// workers; 0/0 with the solver chain on, which bypasses that cache.
    pub query_cache: QueryCacheStats,
    /// Solver-chain slicing and caching counters, summed over all
    /// workers. All zeros when the chain is disabled
    /// ([`SessionConfig::solver_chain`](crate::SessionConfig::solver_chain)).
    pub chain_stats: SolverChainStats,
    /// Proof-audit certification counters, summed over all workers. All
    /// zeros unless
    /// [`SessionConfig::audit`](crate::SessionConfig::audit) is set.
    /// Like the duration and solver statistics, excluded from
    /// [`to_json`](VerifyReport::to_json) so report dumps are
    /// byte-identical audit on or off.
    pub proof_audit: ProofAuditStats,
    /// The first answer the proof auditor refused to certify, if any
    /// (`proof_audit.failures` counts them all).
    pub proof_audit_failure: Option<String>,
    /// Self-contained conflict cones certified during the run, ready to
    /// be dumped as a `symcosim-audit/1` artifact and re-verified offline
    /// (`symcosim-lint --audit`). Excluded from
    /// [`to_json`](VerifyReport::to_json).
    pub proof_audit_units: Vec<CoreReplayUnit>,
    /// Per-path decode-space coverage projections plus the projected
    /// legal domain — the coverage certifier's input. `None` unless
    /// [`SessionConfig::collect_coverage`](crate::SessionConfig::collect_coverage)
    /// is set.
    pub coverage: Option<CoverageData>,
}

/// Schema identifier of the session-report JSON dump.
pub const REPORT_SCHEMA: &str = "symcosim-report/1";

impl VerifyReport {
    /// The first finding, if any mismatch was discovered.
    pub fn first_mismatch(&self) -> Option<&Finding> {
        self.findings.first()
    }

    /// Total paths explored.
    pub fn total_paths(&self) -> usize {
        self.paths_complete + self.paths_partial
    }

    /// Serialises the report as the `symcosim-report/1` document —
    /// the machine-readable surface `symcosim-lint --coverage`
    /// re-certifies. Wall-clock duration and solver statistics
    /// (including the solver-chain counters) are deliberately excluded
    /// so the dump is identical across worker counts, snapshot spills
    /// and machines.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.open_object();
        json::header(&mut w, REPORT_SCHEMA);
        w.number_field("paths_complete", self.paths_complete as u64);
        w.number_field("paths_partial", self.paths_partial as u64);
        w.number_field("instructions_executed", self.instructions_executed);
        w.number_field("cycles", self.cycles);
        w.number_field("test_vectors", self.test_vectors as u64);
        w.bool_field("truncated", self.truncated);
        w.array_field("findings", self.findings.len(), |w, i| {
            let finding = &self.findings[i];
            w.open_object();
            w.string_field("class", &finding.class.to_string());
            w.string_field("subject", &finding.subject);
            w.string_field("label", &finding.label);
            match &finding.example {
                Some(example) => w.string_field("example", example),
                None => w.null_field("example"),
            }
            w.close_object();
        });
        w.array_field("lint_issues", self.lint_issues.len(), |w, i| {
            w.string_value(&self.lint_issues[i]);
        });
        match &self.coverage {
            Some(coverage) => {
                w.object_field("coverage");
                coverage.write_fields(&mut w);
                w.close_object();
            }
            None => w.null_field("coverage"),
        }
        w.close_object();
        w.finish()
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} findings, {} paths ({} complete, {} partial), {} instructions, {} test vectors, {:.2?}",
            self.findings.len(),
            self.total_paths(),
            self.paths_complete,
            self.paths_partial,
            self.instructions_executed,
            self.test_vectors,
            self.duration,
        )?;
        // The stats structs' `Display` impls carry every counter the
        // `--progress-json` worker_done events emit (round-trip gated in
        // `exec::progress`), so the report never under-reports a field.
        writeln!(
            f,
            "solver: {}; query cache: {}",
            self.solver_stats, self.query_cache,
        )?;
        writeln!(f, "solver chain: {}", self.chain_stats)?;
        if self.proof_audit != ProofAuditStats::default() {
            writeln!(f, "proof audit: {}", self.proof_audit)?;
        }
        if let Some(failure) = &self.proof_audit_failure {
            writeln!(f, "proof audit FAILURE: {failure}")?;
        }
        for finding in &self.findings {
            writeln!(f, "  {finding}")?;
        }
        if !self.lint_issues.is_empty() {
            writeln!(f, "{} IR well-formedness issues:", self.lint_issues.len())?;
            for issue in &self.lint_issues {
                writeln!(f, "  {issue}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symcosim_isa::{encode, CsrOp, Reg};

    fn trap_mismatch(core: Option<u32>, iss: Option<u32>) -> Mismatch {
        Mismatch {
            kind: MismatchKind::TrapDisagreement { core, iss },
            instr_index: 0,
        }
    }

    #[test]
    fn classifies_alignment_mismatch() {
        // lw x0, 1(x0) with ISS trapping on misalignment.
        let word = encode(&Instr::Load {
            kind: symcosim_isa::LoadKind::Lw,
            rd: Reg::X0,
            rs1: Reg::X0,
            imm: 1,
        });
        let finding = classify(
            Some(word),
            &trap_mismatch(None, Some(Trap::LoadAddressMisaligned.cause())),
        );
        assert_eq!(finding.class, FindingClass::ImplMismatch);
        assert_eq!(finding.subject, "LW");
        assert_eq!(finding.label, "Missing alignment check");
    }

    #[test]
    fn classifies_wfi_error() {
        let word = encode(&Instr::Wfi);
        let finding = classify(Some(word), &trap_mismatch(Some(2), None));
        assert_eq!(finding.class, FindingClass::RtlError);
        assert_eq!(finding.label, "Missing WFI instruction");
    }

    #[test]
    fn classifies_vp_delegation_bug() {
        let word = encode(&Instr::Csr {
            op: CsrOp::Rw,
            rd: Reg::X1,
            rs1: Reg::X0,
            csr: 0x303,
        });
        let finding = classify(Some(word), &trap_mismatch(None, Some(2)));
        assert_eq!(finding.class, FindingClass::IssError);
        assert_eq!(finding.subject, "mideleg");
        assert!(finding.label.contains("VP traps"));
    }

    #[test]
    fn classifies_counter_write_trap() {
        let word = encode(&Instr::Csr {
            op: CsrOp::Rw,
            rd: Reg::X0,
            rs1: Reg::X0,
            csr: 0xb00,
        });
        let finding = classify(Some(word), &trap_mismatch(Some(2), None));
        assert_eq!(finding.class, FindingClass::RtlError);
        assert_eq!(finding.label, "Trap at write access");
    }

    #[test]
    fn classifies_readonly_write_miss() {
        let word = encode(&Instr::Csr {
            op: CsrOp::Rw,
            rd: Reg::X0,
            rs1: Reg::X0,
            csr: 0xf11,
        });
        let finding = classify(Some(word), &trap_mismatch(None, Some(2)));
        assert_eq!(finding.class, FindingClass::RtlError);
        assert_eq!(finding.subject, "mvendorid");
        assert_eq!(finding.label, "Missing trap at write");
    }

    #[test]
    fn classifies_unimplemented_csr_families() {
        let unarch = encode(&Instr::CsrImm {
            op: CsrOp::Rw,
            rd: Reg::X0,
            uimm: 0,
            csr: 0x400,
        });
        let finding = classify(Some(unarch), &trap_mismatch(None, Some(2)));
        assert_eq!(finding.class, FindingClass::RtlError);
        assert_eq!(finding.label, "Missing trap at access");

        let cycle = encode(&Instr::CsrImm {
            op: CsrOp::Rs,
            rd: Reg::X1,
            uimm: 0,
            csr: 0xc00,
        });
        let finding = classify(
            Some(cycle),
            &Mismatch {
                kind: MismatchKind::RdValueMismatch,
                instr_index: 0,
            },
        );
        assert_eq!(finding.class, FindingClass::ImplMismatch);
        assert_eq!(finding.label, "unimpl. Unprivileged CSR");

        let hpm = encode(&Instr::Csr {
            op: CsrOp::Rw,
            rd: Reg::X0,
            rs1: Reg::X0,
            csr: 0xb10,
        });
        let finding = classify(
            Some(hpm),
            &Mismatch {
                kind: MismatchKind::RdValueMismatch,
                instr_index: 0,
            },
        );
        assert_eq!(finding.label, "unimpl. Privileged CSR");

        let mscratch = encode(&Instr::Csr {
            op: CsrOp::Rw,
            rd: Reg::X1,
            rs1: Reg::X2,
            csr: 0x340,
        });
        let finding = classify(
            Some(mscratch),
            &Mismatch {
                kind: MismatchKind::RdValueMismatch,
                instr_index: 0,
            },
        );
        assert_eq!(finding.label, "unimpl. Privileged CSR");
    }

    #[test]
    fn classifies_cycle_count_mismatch() {
        let word = encode(&Instr::Csr {
            op: CsrOp::Rw,
            rd: Reg::X1,
            rs1: Reg::X0,
            csr: 0xb00,
        });
        let finding = classify(
            Some(word),
            &Mismatch {
                kind: MismatchKind::RdValueMismatch,
                instr_index: 0,
            },
        );
        assert_eq!(finding.class, FindingClass::ImplMismatch);
        assert_eq!(finding.label, "Cycle Count Mismatch");
    }

    #[test]
    fn classifies_plain_alu_divergence_as_rtl_error() {
        let word = encode(&Instr::Addi {
            rd: Reg::X1,
            rs1: Reg::X0,
            imm: 1,
        });
        let finding = classify(
            Some(word),
            &Mismatch {
                kind: MismatchKind::RdValueMismatch,
                instr_index: 0,
            },
        );
        assert_eq!(finding.class, FindingClass::RtlError);
        assert_eq!(finding.subject, "ADDI");
    }

    #[test]
    fn missing_word_is_unclassified() {
        let finding = classify(
            None,
            &Mismatch {
                kind: MismatchKind::PcMismatch,
                instr_index: 0,
            },
        );
        assert_eq!(finding.class, FindingClass::Unclassified);
    }
}
