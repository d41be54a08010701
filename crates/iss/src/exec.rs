//! The instruction-at-a-time execution engine.

use symcosim_isa::{opcodes, Trap};
use symcosim_rtl::RvfiRecord;
use symcosim_symex::Domain;

use crate::{IssBus, IssConfig, IssCsrFile};

/// What an instruction did, before trap redirection is applied.
struct Outcome<D: Domain> {
    /// Control transfer target (`None` ⇒ fall through to PC+4).
    pc_target: Option<D::Word>,
    /// Destination register and value (`None` ⇒ no register write).
    rd: Option<(D::Word, D::Word)>,
    /// Synchronous exception and its `mtval`.
    trap: Option<(Trap, D::Word)>,
}

impl<D: Domain> Outcome<D> {
    fn fall_through() -> Outcome<D> {
        Outcome {
            pc_target: None,
            rd: None,
            trap: None,
        }
    }

    fn write(rd: D::Word, value: D::Word) -> Outcome<D> {
        Outcome {
            pc_target: None,
            rd: Some((rd, value)),
            trap: None,
        }
    }

    fn jump(target: D::Word, rd: Option<(D::Word, D::Word)>) -> Outcome<D> {
        Outcome {
            pc_target: Some(target),
            rd,
            trap: None,
        }
    }

    fn trap(trap: Trap, tval: D::Word) -> Outcome<D> {
        Outcome {
            pc_target: None,
            rd: None,
            trap: Some((trap, tval)),
        }
    }
}

/// The reference instruction set simulator.
///
/// See the [crate documentation](crate) for an overview and example. The
/// ISS holds the architectural state (PC, register file, CSR file) as
/// domain words; [`Iss::step`] executes one instruction word and returns
/// the retirement record the voter consumes.
#[derive(Debug)]
pub struct Iss<D: Domain> {
    pc: D::Word,
    regs: [D::Word; 32],
    csr: IssCsrFile<D>,
    config: IssConfig,
    retired: u64,
}

// Manual impl: snapshotting engines clone the ISS mid-exploration, and a
// derived Clone would demand `D: Clone`, which the fork-engine executor
// is not (`D::Word` itself is always `Copy`).
impl<D: Domain> Clone for Iss<D> {
    fn clone(&self) -> Iss<D> {
        Iss {
            pc: self.pc,
            regs: self.regs,
            csr: self.csr.clone(),
            config: self.config.clone(),
            retired: self.retired,
        }
    }
}

impl<D: Domain> Iss<D> {
    /// Creates an ISS with PC 0, zeroed registers and reset CSRs.
    pub fn new(dom: &mut D, config: IssConfig) -> Iss<D> {
        let zero = dom.const_word(0);
        Iss {
            pc: zero,
            regs: [zero; 32],
            csr: IssCsrFile::new(dom),
            config,
            retired: 0,
        }
    }

    /// The current program counter.
    pub fn pc(&self) -> D::Word {
        self.pc
    }

    /// Overrides the program counter (testbench initialisation).
    pub fn set_pc(&mut self, pc: D::Word) {
        self.pc = pc;
    }

    /// The architectural register file (`x0` is slot 0 and always zero).
    pub fn registers(&self) -> &[D::Word; 32] {
        &self.regs
    }

    /// Reads register `index` (0..32).
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`.
    pub fn register(&self, index: usize) -> D::Word {
        self.regs[index]
    }

    /// Sets register `index`; writes to `x0` are ignored (testbench
    /// initialisation, e.g. installing the sliced symbolic registers).
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`.
    pub fn set_register(&mut self, index: usize, value: D::Word) {
        if index != 0 {
            self.regs[index] = value;
        }
    }

    /// The CSR file (test inspection).
    pub fn csr_file(&self) -> &IssCsrFile<D> {
        &self.csr
    }

    /// Number of [`Iss::step`] calls so far.
    pub fn instructions_executed(&self) -> u64 {
        self.retired
    }

    /// Reads a register selected by a (possibly symbolic) index word.
    fn read_reg(&self, dom: &mut D, index: D::Word) -> D::Word {
        if let Some(i) = dom.word_value(index) {
            return self.regs[(i & 0x1f) as usize];
        }
        let mut value = dom.const_word(0); // x0
        for i in 1..32 {
            let hit = dom.eq_const(index, i as u32);
            value = dom.ite(hit, self.regs[i], value);
        }
        value
    }

    /// Writes a register selected by a (possibly symbolic) index word;
    /// `x0` stays hardwired to zero.
    ///
    /// This is the single architectural choke point for register writes:
    /// every rd update in [`Iss::step`] funnels through here (the
    /// testbench-only [`Iss::set_register`] carries the same guard), so
    /// the x0 invariant holds by construction. `symcosim-lint --ir`
    /// re-checks it executably against both models.
    fn write_reg(&mut self, dom: &mut D, index: D::Word, value: D::Word) {
        if let Some(i) = dom.word_value(index) {
            if i & 0x1f != 0 {
                self.regs[(i & 0x1f) as usize] = value;
            }
            return;
        }
        for i in 1..32 {
            let hit = dom.eq_const(index, i as u32);
            self.regs[i] = dom.ite(hit, value, self.regs[i]);
        }
    }

    /// Executes one instruction and returns its retirement record.
    ///
    /// Traps are taken to `mtvec` with `mepc`/`mcause`/`mtval` updated;
    /// the record reports them through
    /// [`trap`](symcosim_rtl::RvfiRecord::trap) and
    /// [`trap_cause`](symcosim_rtl::RvfiRecord::trap_cause).
    pub fn step(
        &mut self,
        dom: &mut D,
        bus: &mut impl IssBus<D>,
        instr: D::Word,
    ) -> RvfiRecord<D::Word> {
        let pc_rdata = self.pc;
        let four = dom.const_word(4);
        let fall_through = dom.add(pc_rdata, four);
        let outcome = self.execute(dom, bus, instr);

        let zero = dom.const_word(0);
        let (pc_wdata, rd_addr, rd_wdata, trap, trap_cause) = match outcome.trap {
            Some((trap, tval)) => {
                self.csr.enter_trap(dom, pc_rdata, trap, tval);
                let target = {
                    let mask = dom.const_word(!0x3);
                    let mtvec = self.csr.mtvec();
                    dom.and(mtvec, mask)
                };
                (target, zero, zero, true, Some(trap.cause()))
            }
            None => {
                let (rd_addr, rd_wdata) = match outcome.rd {
                    Some((rd, value)) => {
                        self.write_reg(dom, rd, value);
                        // Per the RVFI convention the reported write data is
                        // zero when rd is x0.
                        let rd_is_zero = dom.eq_const(rd, 0);
                        let reported = dom.ite(rd_is_zero, zero, value);
                        (rd, reported)
                    }
                    None => (zero, zero),
                };
                (
                    outcome.pc_target.unwrap_or(fall_through),
                    rd_addr,
                    rd_wdata,
                    false,
                    None,
                )
            }
        };

        self.pc = pc_wdata;
        self.csr.bump_counters(dom, !trap);
        let order = self.retired;
        self.retired += 1;

        RvfiRecord {
            valid: true,
            order,
            insn: instr,
            trap,
            trap_cause,
            pc_rdata,
            pc_wdata,
            rd_addr,
            rd_wdata,
        }
    }

    /// Checks a taken control transfer target for word alignment.
    fn control_transfer(
        &mut self,
        dom: &mut D,
        target: D::Word,
        rd: Option<(D::Word, D::Word)>,
    ) -> Outcome<D> {
        if self.config.trap_on_misaligned_fetch {
            let low = dom.and_const(target, 0x3);
            let misaligned = {
                let zero = dom.const_word(0);
                dom.ne_w(low, zero)
            };
            if dom.decide(misaligned) {
                return Outcome::trap(Trap::InstructionAddressMisaligned, target);
            }
        }
        Outcome::jump(target, rd)
    }

    fn execute(&mut self, dom: &mut D, bus: &mut impl IssBus<D>, instr: D::Word) -> Outcome<D> {
        let opcode = dom.field(instr, 6, 0);
        let rd = dom.field(instr, 11, 7);
        let rs1_idx = dom.field(instr, 19, 15);
        let rs2_idx = dom.field(instr, 24, 20);
        let funct3 = dom.field(instr, 14, 12);
        let funct7 = dom.field(instr, 31, 25);

        macro_rules! opcode_is {
            ($value:expr) => {{
                let c = dom.eq_const(opcode, $value);
                dom.decide(c)
            }};
        }

        if opcode_is!(opcodes::LUI) {
            let imm = dom.and_const(instr, 0xffff_f000);
            return Outcome::write(rd, imm);
        }
        if opcode_is!(opcodes::AUIPC) {
            let imm = dom.and_const(instr, 0xffff_f000);
            let value = dom.add(self.pc, imm);
            return Outcome::write(rd, value);
        }
        if opcode_is!(opcodes::JAL) {
            let imm = self.j_imm(dom, instr);
            let target = dom.add(self.pc, imm);
            let four = dom.const_word(4);
            let link = dom.add(self.pc, four);
            return self.control_transfer(dom, target, Some((rd, link)));
        }
        if opcode_is!(opcodes::JALR) {
            let f3_ok = dom.eq_const(funct3, 0);
            if !dom.decide(f3_ok) {
                return Outcome::trap(Trap::IllegalInstruction, instr);
            }
            let base = self.read_reg(dom, rs1_idx);
            let imm = self.i_imm(dom, instr);
            let sum = dom.add(base, imm);
            let target = dom.and_const(sum, !1);
            let four = dom.const_word(4);
            let link = dom.add(self.pc, four);
            return self.control_transfer(dom, target, Some((rd, link)));
        }
        if opcode_is!(opcodes::BRANCH) {
            return self.execute_branch(dom, instr, funct3, rs1_idx, rs2_idx);
        }
        if opcode_is!(opcodes::LOAD) {
            return self.execute_load(dom, bus, instr, funct3, rd, rs1_idx);
        }
        if opcode_is!(opcodes::STORE) {
            return self.execute_store(dom, bus, instr, funct3, rs1_idx, rs2_idx);
        }
        if opcode_is!(opcodes::OP_IMM) {
            return self.execute_op_imm(dom, instr, funct3, funct7, rd, rs1_idx);
        }
        if opcode_is!(opcodes::OP) {
            return self.execute_op(dom, instr, funct3, funct7, rd, rs1_idx, rs2_idx);
        }
        if opcode_is!(opcodes::MISC_MEM) {
            // FENCE (funct3 0) and FENCE.I (funct3 1) are no-ops in a
            // single-hart, in-order model.
            let is_fence = dom.eq_const(funct3, 0);
            if dom.decide(is_fence) {
                return Outcome::fall_through();
            }
            let is_fence_i = dom.eq_const(funct3, 1);
            if dom.decide(is_fence_i) {
                return Outcome::fall_through();
            }
            return Outcome::trap(Trap::IllegalInstruction, instr);
        }
        if opcode_is!(opcodes::SYSTEM) {
            return self.execute_system(dom, instr, funct3, rd, rs1_idx);
        }
        Outcome::trap(Trap::IllegalInstruction, instr)
    }

    fn execute_branch(
        &mut self,
        dom: &mut D,
        instr: D::Word,
        funct3: D::Word,
        rs1_idx: D::Word,
        rs2_idx: D::Word,
    ) -> Outcome<D> {
        let a = self.read_reg(dom, rs1_idx);
        let b = self.read_reg(dom, rs2_idx);
        // (funct3 encoding, predicate) pairs; 010 and 011 are illegal.
        let eq = dom.eq_w(a, b);
        let cond = {
            let is_beq = dom.eq_const(funct3, 0b000);
            if dom.decide(is_beq) {
                eq
            } else {
                let is_bne = dom.eq_const(funct3, 0b001);
                if dom.decide(is_bne) {
                    dom.not_b(eq)
                } else {
                    let is_blt = dom.eq_const(funct3, 0b100);
                    if dom.decide(is_blt) {
                        dom.slt(a, b)
                    } else {
                        let is_bge = dom.eq_const(funct3, 0b101);
                        if dom.decide(is_bge) {
                            dom.sge(a, b)
                        } else {
                            let is_bltu = dom.eq_const(funct3, 0b110);
                            if dom.decide(is_bltu) {
                                dom.ult(a, b)
                            } else {
                                let is_bgeu = dom.eq_const(funct3, 0b111);
                                if dom.decide(is_bgeu) {
                                    dom.uge(a, b)
                                } else {
                                    return Outcome::trap(Trap::IllegalInstruction, instr);
                                }
                            }
                        }
                    }
                }
            }
        };
        if dom.decide(cond) {
            let imm = self.b_imm(dom, instr);
            let target = dom.add(self.pc, imm);
            self.control_transfer(dom, target, None)
        } else {
            Outcome::fall_through()
        }
    }

    fn execute_load(
        &mut self,
        dom: &mut D,
        bus: &mut impl IssBus<D>,
        instr: D::Word,
        funct3: D::Word,
        rd: D::Word,
        rs1_idx: D::Word,
    ) -> Outcome<D> {
        let (width, signed) = {
            let is_lb = dom.eq_const(funct3, 0b000);
            if dom.decide(is_lb) {
                (1, true)
            } else {
                let is_lh = dom.eq_const(funct3, 0b001);
                if dom.decide(is_lh) {
                    (2, true)
                } else {
                    let is_lw = dom.eq_const(funct3, 0b010);
                    if dom.decide(is_lw) {
                        (4, false)
                    } else {
                        let is_lbu = dom.eq_const(funct3, 0b100);
                        if dom.decide(is_lbu) {
                            (1, false)
                        } else {
                            let is_lhu = dom.eq_const(funct3, 0b101);
                            if dom.decide(is_lhu) {
                                (2, false)
                            } else {
                                return Outcome::trap(Trap::IllegalInstruction, instr);
                            }
                        }
                    }
                }
            }
        };
        let base = self.read_reg(dom, rs1_idx);
        let imm = self.i_imm(dom, instr);
        let addr = dom.add(base, imm);
        if self.config.trap_on_misaligned_data && width > 1 {
            let low = dom.and_const(addr, width - 1);
            let zero = dom.const_word(0);
            let misaligned = dom.ne_w(low, zero);
            if dom.decide(misaligned) {
                return Outcome::trap(Trap::LoadAddressMisaligned, addr);
            }
        }
        let raw = bus.load(dom, addr, width);
        let value = if signed {
            dom.sext(raw, width * 8)
        } else {
            raw
        };
        Outcome::write(rd, value)
    }

    fn execute_store(
        &mut self,
        dom: &mut D,
        bus: &mut impl IssBus<D>,
        instr: D::Word,
        funct3: D::Word,
        rs1_idx: D::Word,
        rs2_idx: D::Word,
    ) -> Outcome<D> {
        let width = {
            let is_sb = dom.eq_const(funct3, 0b000);
            if dom.decide(is_sb) {
                1
            } else {
                let is_sh = dom.eq_const(funct3, 0b001);
                if dom.decide(is_sh) {
                    2
                } else {
                    let is_sw = dom.eq_const(funct3, 0b010);
                    if dom.decide(is_sw) {
                        4
                    } else {
                        return Outcome::trap(Trap::IllegalInstruction, instr);
                    }
                }
            }
        };
        let base = self.read_reg(dom, rs1_idx);
        let imm = self.s_imm(dom, instr);
        let addr = dom.add(base, imm);
        if self.config.trap_on_misaligned_data && width > 1 {
            let low = dom.and_const(addr, width - 1);
            let zero = dom.const_word(0);
            let misaligned = dom.ne_w(low, zero);
            if dom.decide(misaligned) {
                return Outcome::trap(Trap::StoreAddressMisaligned, addr);
            }
        }
        let value = self.read_reg(dom, rs2_idx);
        bus.store(dom, addr, value, width);
        Outcome::fall_through()
    }

    fn execute_op_imm(
        &mut self,
        dom: &mut D,
        instr: D::Word,
        funct3: D::Word,
        funct7: D::Word,
        rd: D::Word,
        rs1_idx: D::Word,
    ) -> Outcome<D> {
        let a = self.read_reg(dom, rs1_idx);
        let imm = self.i_imm(dom, instr);
        macro_rules! f3_is {
            ($value:expr) => {{
                let c = dom.eq_const(funct3, $value);
                dom.decide(c)
            }};
        }
        if f3_is!(0b000) {
            let value = dom.add(a, imm);
            return Outcome::write(rd, value);
        }
        if f3_is!(0b010) {
            let lt = dom.slt(a, imm);
            let value = dom.bool_to_word(lt);
            return Outcome::write(rd, value);
        }
        if f3_is!(0b011) {
            let lt = dom.ult(a, imm);
            let value = dom.bool_to_word(lt);
            return Outcome::write(rd, value);
        }
        if f3_is!(0b100) {
            let value = dom.xor(a, imm);
            return Outcome::write(rd, value);
        }
        if f3_is!(0b110) {
            let value = dom.or(a, imm);
            return Outcome::write(rd, value);
        }
        if f3_is!(0b111) {
            let value = dom.and(a, imm);
            return Outcome::write(rd, value);
        }
        let shamt = dom.and_const(imm, 0x1f);
        if f3_is!(0b001) {
            // SLLI requires funct7 == 0000000 in RV32I.
            let legal = dom.eq_const(funct7, 0);
            if !dom.decide(legal) {
                return Outcome::trap(Trap::IllegalInstruction, instr);
            }
            let value = dom.shl(a, shamt);
            return Outcome::write(rd, value);
        }
        // funct3 == 0b101: SRLI (funct7 0000000) or SRAI (funct7 0100000).
        let is_srli = dom.eq_const(funct7, 0);
        if dom.decide(is_srli) {
            let value = dom.lshr(a, shamt);
            return Outcome::write(rd, value);
        }
        let is_srai = dom.eq_const(funct7, 0b010_0000);
        if dom.decide(is_srai) {
            let value = dom.ashr(a, shamt);
            return Outcome::write(rd, value);
        }
        Outcome::trap(Trap::IllegalInstruction, instr)
    }

    #[allow(clippy::too_many_arguments)]
    fn execute_op(
        &mut self,
        dom: &mut D,
        instr: D::Word,
        funct3: D::Word,
        funct7: D::Word,
        rd: D::Word,
        rs1_idx: D::Word,
        rs2_idx: D::Word,
    ) -> Outcome<D> {
        let a = self.read_reg(dom, rs1_idx);
        let b = self.read_reg(dom, rs2_idx);
        let f7_zero = dom.eq_const(funct7, 0);
        let f7_alt = dom.eq_const(funct7, 0b010_0000);
        macro_rules! f3_is {
            ($value:expr) => {{
                let c = dom.eq_const(funct3, $value);
                dom.decide(c)
            }};
        }
        if f3_is!(0b000) {
            if dom.decide(f7_zero) {
                let value = dom.add(a, b);
                return Outcome::write(rd, value);
            }
            if dom.decide(f7_alt) {
                let value = dom.sub(a, b);
                return Outcome::write(rd, value);
            }
            return Outcome::trap(Trap::IllegalInstruction, instr);
        }
        let shamt = dom.and_const(b, 0x1f);
        if f3_is!(0b001) {
            if dom.decide(f7_zero) {
                let value = dom.shl(a, shamt);
                return Outcome::write(rd, value);
            }
            return Outcome::trap(Trap::IllegalInstruction, instr);
        }
        if f3_is!(0b010) {
            if dom.decide(f7_zero) {
                let lt = dom.slt(a, b);
                let value = dom.bool_to_word(lt);
                return Outcome::write(rd, value);
            }
            return Outcome::trap(Trap::IllegalInstruction, instr);
        }
        if f3_is!(0b011) {
            if dom.decide(f7_zero) {
                let lt = dom.ult(a, b);
                let value = dom.bool_to_word(lt);
                return Outcome::write(rd, value);
            }
            return Outcome::trap(Trap::IllegalInstruction, instr);
        }
        if f3_is!(0b100) {
            if dom.decide(f7_zero) {
                let value = dom.xor(a, b);
                return Outcome::write(rd, value);
            }
            return Outcome::trap(Trap::IllegalInstruction, instr);
        }
        if f3_is!(0b101) {
            if dom.decide(f7_zero) {
                let value = dom.lshr(a, shamt);
                return Outcome::write(rd, value);
            }
            if dom.decide(f7_alt) {
                let value = dom.ashr(a, shamt);
                return Outcome::write(rd, value);
            }
            return Outcome::trap(Trap::IllegalInstruction, instr);
        }
        if f3_is!(0b110) {
            if dom.decide(f7_zero) {
                let value = dom.or(a, b);
                return Outcome::write(rd, value);
            }
            return Outcome::trap(Trap::IllegalInstruction, instr);
        }
        if f3_is!(0b111) {
            if dom.decide(f7_zero) {
                let value = dom.and(a, b);
                return Outcome::write(rd, value);
            }
            return Outcome::trap(Trap::IllegalInstruction, instr);
        }
        Outcome::trap(Trap::IllegalInstruction, instr)
    }

    fn execute_system(
        &mut self,
        dom: &mut D,
        instr: D::Word,
        funct3: D::Word,
        rd: D::Word,
        rs1_idx: D::Word,
    ) -> Outcome<D> {
        let f3_zero = dom.eq_const(funct3, 0);
        if dom.decide(f3_zero) {
            // Bare system instructions are full-word encodings.
            let is_ecall = dom.eq_const(instr, 0x0000_0073);
            if dom.decide(is_ecall) {
                let zero = dom.const_word(0);
                return Outcome::trap(Trap::EcallFromM, zero);
            }
            let is_ebreak = dom.eq_const(instr, 0x0010_0073);
            if dom.decide(is_ebreak) {
                return Outcome::trap(Trap::Breakpoint, self.pc);
            }
            let is_mret = dom.eq_const(instr, 0x3020_0073);
            if dom.decide(is_mret) {
                let target = self.csr.mepc();
                return self.control_transfer(dom, target, None);
            }
            let is_wfi = dom.eq_const(instr, 0x1050_0073);
            if dom.decide(is_wfi) {
                if self.config.wfi_is_nop {
                    return Outcome::fall_through();
                }
                return Outcome::trap(Trap::IllegalInstruction, instr);
            }
            return Outcome::trap(Trap::IllegalInstruction, instr);
        }

        // Zicsr instructions.
        let csr_addr = dom.field(instr, 31, 20);
        let uimm = rs1_idx; // the zimm field occupies the rs1 bits
        macro_rules! f3_is {
            ($value:expr) => {{
                let c = dom.eq_const(funct3, $value);
                dom.decide(c)
            }};
        }
        let (op_write, op_set, src) = if f3_is!(0b001) {
            (true, false, self.read_reg(dom, rs1_idx))
        } else if f3_is!(0b010) {
            (false, true, self.read_reg(dom, rs1_idx))
        } else if f3_is!(0b011) {
            (false, false, self.read_reg(dom, rs1_idx))
        } else if f3_is!(0b101) {
            (true, false, uimm)
        } else if f3_is!(0b110) {
            (false, true, uimm)
        } else if f3_is!(0b111) {
            (false, false, uimm)
        } else {
            return Outcome::trap(Trap::IllegalInstruction, instr);
        };

        if op_write {
            // CSRRW/CSRRWI: rd == x0 suppresses the read (and its side
            // effects, including the VP's read-trap bug).
            let rd_zero = {
                let c = dom.eq_const(rd, 0);
                dom.decide(c)
            };
            let old = if rd_zero {
                dom.const_word(0)
            } else {
                match self.csr.read(dom, csr_addr, &self.config) {
                    Ok(value) => value,
                    Err(trap) => return Outcome::trap(trap, instr),
                }
            };
            if let Err(trap) = self.csr.write(dom, csr_addr, src, &self.config) {
                return Outcome::trap(trap, instr);
            }
            return Outcome::write(rd, old);
        }

        // CSRRS/CSRRC (and immediate forms): always read; write only when
        // the source field is non-zero.
        let old = match self.csr.read(dom, csr_addr, &self.config) {
            Ok(value) => value,
            Err(trap) => return Outcome::trap(trap, instr),
        };
        let src_zero = {
            let c = dom.eq_const(rs1_idx, 0);
            dom.decide(c)
        };
        if !src_zero {
            let new_value = if op_set {
                dom.or(old, src)
            } else {
                let inverted = dom.not_w(src);
                dom.and(old, inverted)
            };
            if let Err(trap) = self.csr.write(dom, csr_addr, new_value, &self.config) {
                return Outcome::trap(trap, instr);
            }
        }
        Outcome::write(rd, old)
    }

    // ------------------------------------------------------------------
    // Immediate decoders (pure word arithmetic; no forking).
    // ------------------------------------------------------------------

    fn i_imm(&self, dom: &mut D, instr: D::Word) -> D::Word {
        let raw = dom.field(instr, 31, 20);
        dom.sext(raw, 12)
    }

    fn s_imm(&self, dom: &mut D, instr: D::Word) -> D::Word {
        let high = dom.field(instr, 31, 25);
        let low = dom.field(instr, 11, 7);
        let shifted = dom.shl_const(high, 5);
        let raw = dom.or(shifted, low);
        dom.sext(raw, 12)
    }

    fn b_imm(&self, dom: &mut D, instr: D::Word) -> D::Word {
        let bit12 = dom.field(instr, 31, 31);
        let bit11 = dom.field(instr, 7, 7);
        let bits10_5 = dom.field(instr, 30, 25);
        let bits4_1 = dom.field(instr, 11, 8);
        let p12 = dom.shl_const(bit12, 12);
        let p11 = dom.shl_const(bit11, 11);
        let p10_5 = dom.shl_const(bits10_5, 5);
        let p4_1 = dom.shl_const(bits4_1, 1);
        let a = dom.or(p12, p11);
        let b = dom.or(p10_5, p4_1);
        let raw = dom.or(a, b);
        dom.sext(raw, 13)
    }

    fn j_imm(&self, dom: &mut D, instr: D::Word) -> D::Word {
        let bit20 = dom.field(instr, 31, 31);
        let bits19_12 = dom.field(instr, 19, 12);
        let bit11 = dom.field(instr, 20, 20);
        let bits10_1 = dom.field(instr, 30, 21);
        let p20 = dom.shl_const(bit20, 20);
        let p19_12 = dom.shl_const(bits19_12, 12);
        let p11 = dom.shl_const(bit11, 11);
        let p10_1 = dom.shl_const(bits10_1, 1);
        let a = dom.or(p20, p19_12);
        let b = dom.or(p11, p10_1);
        let raw = dom.or(a, b);
        dom.sext(raw, 21)
    }
}
