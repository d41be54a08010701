//! The static decode-space theorems over [`DECODE_TABLE`].
//!
//! Three theorems are checked without enumerating the 2^32 word space:
//!
//! 1. **Disjointness** — no two decode rules overlap, so first-match
//!    equals only-match and every legal word has exactly one decoding.
//! 2. **Completeness** — subtracting every rule cube from the universe
//!    leaves exactly the illegal space: its word count must equal
//!    `2^32 − Σ rule counts`, every residual corner sample must be
//!    rejected by [`decode`], and every rule corner sample accepted.
//! 3. **Encode/decode consistency** — every emitter range of `encode` is
//!    accepted by exactly its own rule, and round-trips through
//!    [`decode`] unchanged.
//!
//! The fourth theorem of the analyzer — cross-model agreement on illegal
//! words — is execution-based and lives in [`crate::cross`].

use symcosim_isa::{
    decode, encode, BranchKind, CsrOp, Instr, LoadKind, OpKind, Reg, StoreKind, DECODE_TABLE,
};

use symcosim_isa::pattern::{Pattern, PatternSet};

/// Two decode rules sharing at least one word.
#[derive(Debug, Clone)]
pub struct OverlapFinding {
    /// Name of the first rule.
    pub first: &'static str,
    /// Name of the second rule.
    pub second: &'static str,
    /// A concrete word both rules accept.
    pub word: u32,
}

/// A disagreement between the cube algebra and the runtime decoder.
#[derive(Debug, Clone)]
pub struct CompletenessViolation {
    /// The probed word (or `0` for the count identity).
    pub word: u32,
    /// What went wrong.
    pub detail: String,
}

/// An encoder output not accepted by exactly its own rule.
#[derive(Debug, Clone)]
pub struct EncodeViolation {
    /// The emitted word.
    pub word: u32,
    /// The expected rule name.
    pub rule: &'static str,
    /// What went wrong.
    pub detail: String,
}

/// Result of the three static decode-space theorems.
#[derive(Debug, Clone)]
pub struct DecodeSpaceReport {
    /// Number of rules in [`DECODE_TABLE`].
    pub rules: usize,
    /// Words accepted by some rule (exact, from the cube algebra).
    pub legal_words: u64,
    /// Words accepted by no rule.
    pub illegal_words: u64,
    /// Disjoint cubes covering the illegal space.
    pub residual_cubes: usize,
    /// Theorem 1 violations.
    pub overlaps: Vec<OverlapFinding>,
    /// Theorem 2 violations.
    pub completeness_violations: Vec<CompletenessViolation>,
    /// Theorem 3 violations.
    pub encode_violations: Vec<EncodeViolation>,
}

impl DecodeSpaceReport {
    /// Total number of theorem violations.
    #[must_use]
    pub fn findings(&self) -> usize {
        self.overlaps.len() + self.completeness_violations.len() + self.encode_violations.len()
    }
}

/// Theorem 1: every pair of decode rules is disjoint.
#[must_use]
pub fn check_disjointness() -> Vec<OverlapFinding> {
    let mut overlaps = Vec::new();
    for (i, a) in DECODE_TABLE.iter().enumerate() {
        let pa = Pattern::from(a);
        for b in &DECODE_TABLE[i + 1..] {
            let pb = Pattern::from(b);
            if let Some(shared) = pa.intersect(&pb) {
                overlaps.push(OverlapFinding {
                    first: a.name,
                    second: b.name,
                    word: shared.sample(),
                });
            }
        }
    }
    overlaps
}

/// The illegal space: the universe minus every rule cube, as disjoint
/// ternary cubes.
#[must_use]
pub fn illegal_space() -> PatternSet {
    let mut residual = PatternSet::universe();
    for rule in DECODE_TABLE {
        residual.subtract(&Pattern::from(rule));
    }
    residual
}

/// Theorem 2: the residual of the subtraction is exactly the set of words
/// the runtime decoder rejects.
#[must_use]
pub fn check_completeness(residual: &PatternSet) -> Vec<CompletenessViolation> {
    let mut violations = Vec::new();

    // Count identity (needs disjointness, which theorem 1 establishes).
    let legal: u64 = DECODE_TABLE
        .iter()
        .map(|rule| Pattern::from(rule).count())
        .sum();
    if residual.count() + legal != 1u64 << 32 {
        violations.push(CompletenessViolation {
            word: 0,
            detail: format!(
                "count identity broken: {} residual + {} legal != 2^32",
                residual.count(),
                legal
            ),
        });
    }

    // Every residual corner sample must be rejected by the decoder...
    for cube in residual.cubes() {
        for word in cube.corner_samples() {
            if decode(word).is_ok() {
                violations.push(CompletenessViolation {
                    word,
                    detail: format!("{word:#010x} is in the residual but decodes"),
                });
            }
        }
    }

    // ...and every rule corner sample accepted, outside the residual.
    for rule in DECODE_TABLE {
        for word in Pattern::from(rule).corner_samples() {
            if decode(word).is_err() {
                violations.push(CompletenessViolation {
                    word,
                    detail: format!("{word:#010x} matches rule {} but is rejected", rule.name),
                });
            }
            if residual.covers(word) {
                violations.push(CompletenessViolation {
                    word,
                    detail: format!(
                        "{word:#010x} matches rule {} yet lies in the residual",
                        rule.name
                    ),
                });
            }
        }
    }

    violations
}

/// Operand-corner representatives for every rule, keyed by rule name.
///
/// Covers register corners (`x0`/`x31`), immediate extremes and the CSR
/// address corners, so each emitter is probed at the edges of its range.
fn representatives() -> Vec<(&'static str, Vec<Instr>)> {
    let regs = [Reg::X0, Reg::X31];
    let mut out: Vec<(&'static str, Vec<Instr>)> = Vec::new();

    let mut push = |name: &'static str, instrs: Vec<Instr>| out.push((name, instrs));

    let mut upper = Vec::new();
    let mut jals = Vec::new();
    for rd in regs {
        for imm in [i32::MIN, 0, 0x7ffff << 12] {
            upper.push((rd, imm & !0xfff));
        }
        for offset in [-(1 << 20), 0, (1 << 20) - 2] {
            jals.push(Instr::Jal { rd, offset });
        }
    }
    push(
        "lui",
        upper
            .iter()
            .map(|&(rd, imm)| Instr::Lui { rd, imm })
            .collect(),
    );
    push(
        "auipc",
        upper
            .iter()
            .map(|&(rd, imm)| Instr::Auipc { rd, imm })
            .collect(),
    );
    push("jal", jals);
    push(
        "jalr",
        vec![
            Instr::Jalr {
                rd: Reg::X0,
                rs1: Reg::X31,
                imm: -2048,
            },
            Instr::Jalr {
                rd: Reg::X31,
                rs1: Reg::X0,
                imm: 2047,
            },
        ],
    );

    for (name, kind) in [
        ("beq", BranchKind::Beq),
        ("bne", BranchKind::Bne),
        ("blt", BranchKind::Blt),
        ("bge", BranchKind::Bge),
        ("bltu", BranchKind::Bltu),
        ("bgeu", BranchKind::Bgeu),
    ] {
        push(
            name,
            vec![
                Instr::Branch {
                    kind,
                    rs1: Reg::X0,
                    rs2: Reg::X31,
                    offset: -4096,
                },
                Instr::Branch {
                    kind,
                    rs1: Reg::X31,
                    rs2: Reg::X0,
                    offset: 4094,
                },
            ],
        );
    }

    for (name, kind) in [
        ("lb", LoadKind::Lb),
        ("lh", LoadKind::Lh),
        ("lw", LoadKind::Lw),
        ("lbu", LoadKind::Lbu),
        ("lhu", LoadKind::Lhu),
    ] {
        push(
            name,
            vec![
                Instr::Load {
                    kind,
                    rd: Reg::X0,
                    rs1: Reg::X31,
                    imm: -2048,
                },
                Instr::Load {
                    kind,
                    rd: Reg::X31,
                    rs1: Reg::X0,
                    imm: 2047,
                },
            ],
        );
    }

    for (name, kind) in [
        ("sb", StoreKind::Sb),
        ("sh", StoreKind::Sh),
        ("sw", StoreKind::Sw),
    ] {
        push(
            name,
            vec![
                Instr::Store {
                    kind,
                    rs1: Reg::X0,
                    rs2: Reg::X31,
                    imm: -2048,
                },
                Instr::Store {
                    kind,
                    rs1: Reg::X31,
                    rs2: Reg::X0,
                    imm: 2047,
                },
            ],
        );
    }

    macro_rules! i_type {
        ($name:literal, $variant:ident) => {
            push(
                $name,
                vec![
                    Instr::$variant {
                        rd: Reg::X0,
                        rs1: Reg::X31,
                        imm: -2048,
                    },
                    Instr::$variant {
                        rd: Reg::X31,
                        rs1: Reg::X0,
                        imm: 2047,
                    },
                ],
            );
        };
    }
    i_type!("addi", Addi);
    i_type!("slti", Slti);
    i_type!("sltiu", Sltiu);
    i_type!("xori", Xori);
    i_type!("ori", Ori);
    i_type!("andi", Andi);

    macro_rules! shift {
        ($name:literal, $variant:ident) => {
            push(
                $name,
                vec![
                    Instr::$variant {
                        rd: Reg::X0,
                        rs1: Reg::X31,
                        shamt: 0,
                    },
                    Instr::$variant {
                        rd: Reg::X31,
                        rs1: Reg::X0,
                        shamt: 31,
                    },
                ],
            );
        };
    }
    shift!("slli", Slli);
    shift!("srli", Srli);
    shift!("srai", Srai);

    for (name, kind) in [
        ("add", OpKind::Add),
        ("sub", OpKind::Sub),
        ("sll", OpKind::Sll),
        ("slt", OpKind::Slt),
        ("sltu", OpKind::Sltu),
        ("xor", OpKind::Xor),
        ("srl", OpKind::Srl),
        ("sra", OpKind::Sra),
        ("or", OpKind::Or),
        ("and", OpKind::And),
    ] {
        push(
            name,
            vec![
                Instr::Op {
                    kind,
                    rd: Reg::X0,
                    rs1: Reg::X31,
                    rs2: Reg::X0,
                },
                Instr::Op {
                    kind,
                    rd: Reg::X31,
                    rs1: Reg::X0,
                    rs2: Reg::X31,
                },
            ],
        );
    }

    push(
        "fence",
        vec![
            Instr::Fence { pred: 0, succ: 0 },
            Instr::Fence {
                pred: 0xf,
                succ: 0xf,
            },
        ],
    );
    push("fence.i", vec![Instr::FenceI]);
    push("ecall", vec![Instr::Ecall]);
    push("ebreak", vec![Instr::Ebreak]);
    push("mret", vec![Instr::Mret]);
    push("wfi", vec![Instr::Wfi]);

    for (name, op) in [
        ("csrrw", CsrOp::Rw),
        ("csrrs", CsrOp::Rs),
        ("csrrc", CsrOp::Rc),
    ] {
        push(
            name,
            vec![
                Instr::Csr {
                    op,
                    rd: Reg::X0,
                    rs1: Reg::X31,
                    csr: 0,
                },
                Instr::Csr {
                    op,
                    rd: Reg::X31,
                    rs1: Reg::X0,
                    csr: 0xfff,
                },
            ],
        );
    }
    for (name, op) in [
        ("csrrwi", CsrOp::Rw),
        ("csrrsi", CsrOp::Rs),
        ("csrrci", CsrOp::Rc),
    ] {
        push(
            name,
            vec![
                Instr::CsrImm {
                    op,
                    rd: Reg::X0,
                    uimm: 31,
                    csr: 0,
                },
                Instr::CsrImm {
                    op,
                    rd: Reg::X31,
                    uimm: 0,
                    csr: 0xfff,
                },
            ],
        );
    }

    out
}

/// Theorem 3: each emitter's output is accepted by exactly its own rule
/// and round-trips through the decoder.
#[must_use]
pub fn check_encode_consistency() -> Vec<EncodeViolation> {
    let mut violations = Vec::new();
    let reps = representatives();

    // The theorem must cover every rule.
    for rule in DECODE_TABLE {
        if !reps.iter().any(|(name, _)| *name == rule.name) {
            violations.push(EncodeViolation {
                word: rule.value,
                rule: rule.name,
                detail: format!("no encoder representative exercises rule {}", rule.name),
            });
        }
    }

    for (name, instrs) in reps {
        for instr in instrs {
            let word = encode(&instr);
            let matching: Vec<&'static str> = DECODE_TABLE
                .iter()
                .filter(|rule| rule.matches(word))
                .map(|rule| rule.name)
                .collect();
            if matching != [name] {
                violations.push(EncodeViolation {
                    word,
                    rule: name,
                    detail: format!("encoded word matches rules {matching:?}, expected [{name:?}]"),
                });
                continue;
            }
            if decode(word) != Ok(instr) {
                violations.push(EncodeViolation {
                    word,
                    rule: name,
                    detail: format!("{word:#010x} does not round-trip through decode"),
                });
            }
        }
    }
    violations
}

/// Runs all three static theorems and assembles the report.
#[must_use]
pub fn analyze() -> DecodeSpaceReport {
    let overlaps = check_disjointness();
    let residual = illegal_space();
    let completeness_violations = check_completeness(&residual);
    let encode_violations = check_encode_consistency();
    let illegal_words = residual.count();
    DecodeSpaceReport {
        rules: DECODE_TABLE.len(),
        legal_words: (1u64 << 32) - illegal_words,
        illegal_words,
        residual_cubes: residual.cubes().len(),
        overlaps,
        completeness_violations,
        encode_violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_table_is_disjoint() {
        assert!(check_disjointness().is_empty());
    }

    #[test]
    fn decode_table_is_complete() {
        let residual = illegal_space();
        assert!(check_completeness(&residual).is_empty());
    }

    #[test]
    fn encoders_land_in_their_own_rules() {
        let violations = check_encode_consistency();
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn legal_word_count_is_stable() {
        // 3 opcode-only rules (2^25 words each), 29 opcode+funct3 rules
        // (2^22), 13 opcode+funct3+funct7 rules (2^15), 4 exact words.
        let report = analyze();
        assert_eq!(report.rules, 49);
        assert_eq!(
            report.legal_words,
            3 * (1 << 25) + 29 * (1 << 22) + 13 * (1 << 15) + 4
        );
        assert_eq!(report.legal_words + report.illegal_words, 1u64 << 32);
        assert_eq!(report.findings(), 0);
    }
}
