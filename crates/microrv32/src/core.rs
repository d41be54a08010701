//! The multi-cycle core: FSM, decoder, ALU, load/store unit.

use symcosim_isa::{opcodes, Trap};
use symcosim_rtl::{DBusRequest, DBusResponse, IBusRequest, IBusResponse, RvfiRecord, Strobe};
use symcosim_symex::Domain;

use crate::{CoreConfig, CoreCsrFile, CycleCountMode, InjectedError};

/// The core's control FSM state (concrete; control flow is forked until
/// it is).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsmState {
    /// Driving the IBus, waiting for `instruction_ready`.
    Fetch,
    /// Decoding and executing the latched instruction.
    Execute,
    /// Waiting on the DBus for the current memory sub-access.
    Mem,
}

/// One word-aligned DBus sub-access of a (possibly misaligned) load/store.
#[derive(Debug)]
struct SubAccess<D: Domain> {
    /// Word-aligned bus address.
    word_addr: D::Word,
    /// Byte-lane strobe.
    strobe: Strobe,
    /// Bit offset of the selected lanes within the bus word.
    bus_shift: u32,
    /// Bit offset of these bytes within the assembled value.
    val_shift: u32,
    /// Number of bytes moved by this sub-access.
    bytes: u32,
    /// Positioned write data (stores only).
    store_data: D::Word,
}

// Clone is implemented by hand on the generic model structs: `D::Word` is
// always `Copy`, but a derived impl would demand `D: Clone`, and the
// fork-engine executor that snapshots these models is not cloneable.
impl<D: Domain> Clone for SubAccess<D> {
    fn clone(&self) -> SubAccess<D> {
        SubAccess {
            word_addr: self.word_addr,
            strobe: self.strobe,
            bus_shift: self.bus_shift,
            val_shift: self.val_shift,
            bytes: self.bytes,
            store_data: self.store_data,
        }
    }
}

/// Load flavour, for final extension and fault injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoadFlavour {
    Lb,
    Lbu,
    Lh,
    Lhu,
    Lw,
}

#[derive(Debug)]
struct MemPlan<D: Domain> {
    is_store: bool,
    subs: Vec<SubAccess<D>>,
    current: usize,
    assembled: D::Word,
    flavour: LoadFlavour,
    rd: D::Word,
}

impl<D: Domain> Clone for MemPlan<D> {
    fn clone(&self) -> MemPlan<D> {
        MemPlan {
            is_store: self.is_store,
            subs: self.subs.clone(),
            current: self.current,
            assembled: self.assembled,
            flavour: self.flavour,
            rd: self.rd,
        }
    }
}

/// What the decode/execute stage concluded.
enum ExecResult<D: Domain> {
    /// Retire this cycle (ALU, jumps, CSR, system).
    Retire {
        pc_target: Option<D::Word>,
        rd: Option<(D::Word, D::Word)>,
    },
    /// Start a memory plan (loads/stores).
    Memory(MemPlan<D>),
    /// Raise a synchronous exception.
    Trap(Trap, D::Word),
}

/// Per-cycle outputs of the core.
#[derive(Debug, Clone, Copy)]
pub struct CoreOutputs<W> {
    /// Instruction bus request.
    pub ibus: IBusRequest<W>,
    /// Data bus request.
    pub dbus: DBusRequest<W>,
    /// Retirement record, present in the cycle an instruction retires.
    pub rvfi: Option<RvfiRecord<W>>,
}

/// The cycle-accurate MicroRV32-equivalent core.
///
/// Drive it by calling [`Core::cycle`] once per clock with the bus
/// responses to the *previous* cycle's requests; see the
/// [crate documentation](crate) for an example.
#[derive(Debug)]
pub struct Core<D: Domain> {
    config: CoreConfig,
    inject: Option<InjectedError>,
    state: FsmState,
    pc: D::Word,
    regs: [D::Word; 32],
    csr: CoreCsrFile<D>,
    latched_instr: D::Word,
    mem_plan: Option<MemPlan<D>>,
    retired: u64,
    cycles: u64,
}

// Manual impl: snapshotting engines clone the core mid-exploration, and a
// derived Clone would require `D: Clone` (see `SubAccess`).
impl<D: Domain> Clone for Core<D> {
    fn clone(&self) -> Core<D> {
        Core {
            config: self.config.clone(),
            inject: self.inject,
            state: self.state,
            pc: self.pc,
            regs: self.regs,
            csr: self.csr.clone(),
            latched_instr: self.latched_instr,
            mem_plan: self.mem_plan.clone(),
            retired: self.retired,
            cycles: self.cycles,
        }
    }
}

impl<D: Domain> Core<D> {
    /// Creates a reset core (PC 0, zero registers, reset CSRs).
    pub fn new(dom: &mut D, config: CoreConfig) -> Core<D> {
        let zero = dom.const_word(0);
        Core {
            config,
            inject: None,
            state: FsmState::Fetch,
            pc: zero,
            regs: [zero; 32],
            csr: CoreCsrFile::new(dom),
            latched_instr: zero,
            mem_plan: None,
            retired: 0,
            cycles: 0,
        }
    }

    /// Creates a core with an injected error from the Table II catalogue.
    pub fn with_injected_error(dom: &mut D, config: CoreConfig, error: InjectedError) -> Core<D> {
        let mut core = Core::new(dom, config);
        core.inject = Some(error);
        core
    }

    /// The current FSM state.
    pub fn state(&self) -> FsmState {
        self.state
    }

    /// The current program counter.
    pub fn pc(&self) -> D::Word {
        self.pc
    }

    /// Overrides the program counter (testbench initialisation).
    pub fn set_pc(&mut self, pc: D::Word) {
        self.pc = pc;
    }

    /// The architectural register file.
    pub fn registers(&self) -> &[D::Word; 32] {
        &self.regs
    }

    /// Reads register `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`.
    pub fn register(&self, index: usize) -> D::Word {
        self.regs[index]
    }

    /// Sets register `index`; `x0` writes are ignored.
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
    pub fn csr_file(&self) -> &CoreCsrFile<D> {
        &self.csr
    }

    /// Instructions retired so far (including trapped ones).
    pub fn instructions_executed(&self) -> u64 {
        self.retired
    }

    /// Clock cycles elapsed.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    fn read_reg(&self, dom: &mut D, index: D::Word) -> D::Word {
        if let Some(i) = dom.word_value(index) {
            return self.regs[(i & 0x1f) as usize];
        }
        let mut value = dom.const_word(0);
        for i in 1..32 {
            let hit = dom.eq_const(index, i as u32);
            value = dom.ite(hit, self.regs[i], value);
        }
        value
    }

    /// Writes a register selected by a (possibly symbolic) index word;
    /// `x0` stays hardwired to zero.
    ///
    /// The single architectural choke point for register writes: every rd
    /// update in [`Core::retire`] funnels through here (the testbench-only
    /// [`Core::set_register`] carries the same guard), so the x0 invariant
    /// holds by construction. `symcosim-lint --ir` re-checks it executably
    /// against both models.
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

    /// Advances the core by one clock cycle.
    ///
    /// `ibus_rsp` and `dbus_rsp` answer the requests issued in the
    /// previous cycle's [`CoreOutputs`].
    pub fn cycle(
        &mut self,
        dom: &mut D,
        ibus_rsp: IBusResponse<D::Word>,
        dbus_rsp: DBusResponse<D::Word>,
    ) -> CoreOutputs<D::Word> {
        self.cycles += 1;
        if self.config.cycle_count_mode == CycleCountMode::PerClock {
            self.csr.bump_cycle(dom);
        }
        let zero = dom.const_word(0);
        let mut outputs = CoreOutputs {
            ibus: IBusRequest {
                fetch_enable: false,
                address: zero,
            },
            dbus: DBusRequest {
                enable: false,
                write: false,
                address: zero,
                write_data: zero,
                strobe: Strobe::WORD,
            },
            rvfi: None,
        };

        match self.state {
            FsmState::Fetch => {
                if ibus_rsp.instruction_ready {
                    self.latched_instr = ibus_rsp.instruction;
                    self.state = FsmState::Execute;
                } else {
                    outputs.ibus = IBusRequest {
                        fetch_enable: true,
                        address: self.pc,
                    };
                }
            }
            FsmState::Execute => {
                let instr = self.latched_instr;
                match self.execute_instr(dom, instr) {
                    ExecResult::Retire { pc_target, rd } => {
                        outputs.rvfi = Some(self.retire(dom, instr, pc_target, rd));
                    }
                    ExecResult::Trap(trap, tval) => {
                        outputs.rvfi = Some(self.take_trap(dom, instr, trap, tval));
                    }
                    ExecResult::Memory(plan) => {
                        outputs.dbus = Self::sub_request(&plan);
                        self.mem_plan = Some(plan);
                        self.state = FsmState::Mem;
                    }
                }
            }
            FsmState::Mem => {
                let mut plan = self.mem_plan.take().expect("Mem state has a plan");
                if dbus_rsp.data_ready {
                    if !plan.is_store {
                        let sub = &plan.subs[plan.current];
                        let lane_mask = ((1u64 << (sub.bytes * 8)) - 1) as u32;
                        let shifted = dom.lshr_const(dbus_rsp.read_data, sub.bus_shift);
                        let masked = dom.and_const(shifted, lane_mask);
                        let positioned = dom.shl_const(masked, sub.val_shift);
                        plan.assembled = dom.or(plan.assembled, positioned);
                    }
                    plan.current += 1;
                    if plan.current == plan.subs.len() {
                        // Plan complete: write back and retire.
                        let instr = self.latched_instr;
                        let rd = if plan.is_store {
                            None
                        } else {
                            let value = self.finish_load(dom, &plan);
                            Some((plan.rd, value))
                        };
                        outputs.rvfi = Some(self.retire(dom, instr, None, rd));
                    } else {
                        outputs.dbus = Self::sub_request(&plan);
                        self.mem_plan = Some(plan);
                    }
                } else {
                    outputs.dbus = Self::sub_request(&plan);
                    self.mem_plan = Some(plan);
                }
            }
        }
        outputs
    }

    fn sub_request(plan: &MemPlan<D>) -> DBusRequest<D::Word> {
        let sub = &plan.subs[plan.current];
        DBusRequest {
            enable: true,
            write: plan.is_store,
            address: sub.word_addr,
            write_data: sub.store_data,
            strobe: sub.strobe,
        }
    }

    /// Applies final extension (and the E8/E9 load faults) to an
    /// assembled load value.
    fn finish_load(&mut self, dom: &mut D, plan: &MemPlan<D>) -> D::Word {
        match plan.flavour {
            LoadFlavour::Lb => {
                if self.inject == Some(InjectedError::E8LbNoSignExtension) {
                    plan.assembled
                } else {
                    dom.sext(plan.assembled, 8)
                }
            }
            LoadFlavour::Lbu => plan.assembled,
            LoadFlavour::Lh => dom.sext(plan.assembled, 16),
            LoadFlavour::Lhu => plan.assembled,
            LoadFlavour::Lw => {
                if self.inject == Some(InjectedError::E9LwOnlyLow16) {
                    dom.zext_w(plan.assembled, 16)
                } else {
                    plan.assembled
                }
            }
        }
    }

    fn retire(
        &mut self,
        dom: &mut D,
        instr: D::Word,
        pc_target: Option<D::Word>,
        rd: Option<(D::Word, D::Word)>,
    ) -> RvfiRecord<D::Word> {
        let zero = dom.const_word(0);
        let pc_rdata = self.pc;
        let four = dom.const_word(4);
        let fall_through = dom.add(pc_rdata, four);
        let pc_wdata = pc_target.unwrap_or(fall_through);
        let (rd_addr, rd_wdata) = match rd {
            Some((index, value)) => {
                self.write_reg(dom, index, value);
                let rd_is_zero = dom.eq_const(index, 0);
                let reported = dom.ite(rd_is_zero, zero, value);
                (index, reported)
            }
            None => (zero, zero),
        };
        self.pc = pc_wdata;
        self.finish_instruction(dom, true);
        RvfiRecord {
            valid: true,
            order: self.retired - 1,
            insn: instr,
            trap: false,
            trap_cause: None,
            pc_rdata,
            pc_wdata,
            rd_addr,
            rd_wdata,
        }
    }

    fn take_trap(
        &mut self,
        dom: &mut D,
        instr: D::Word,
        trap: Trap,
        tval: D::Word,
    ) -> RvfiRecord<D::Word> {
        let zero = dom.const_word(0);
        let pc_rdata = self.pc;
        self.csr.enter_trap(dom, pc_rdata, trap, tval);
        let target = {
            let mask = dom.const_word(!0x3);
            let mtvec = self.csr.mtvec();
            dom.and(mtvec, mask)
        };
        self.pc = target;
        self.finish_instruction(dom, false);
        RvfiRecord {
            valid: true,
            order: self.retired - 1,
            insn: instr,
            trap: true,
            trap_cause: Some(trap.cause()),
            pc_rdata,
            pc_wdata: target,
            rd_addr: zero,
            rd_wdata: zero,
        }
    }

    fn finish_instruction(&mut self, dom: &mut D, retired_ok: bool) {
        if self.config.cycle_count_mode == CycleCountMode::PerInstruction {
            self.csr.bump_cycle(dom);
        }
        if retired_ok || self.config.count_trapped_in_instret {
            self.csr.bump_instret(dom);
        }
        self.retired += 1;
        self.state = FsmState::Fetch;
    }

    // ------------------------------------------------------------------
    // Decode & execute
    // ------------------------------------------------------------------

    fn execute_instr(&mut self, dom: &mut D, instr: D::Word) -> ExecResult<D> {
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
            return ExecResult::Retire {
                pc_target: None,
                rd: Some((rd, imm)),
            };
        }
        if opcode_is!(opcodes::AUIPC) {
            let imm = dom.and_const(instr, 0xffff_f000);
            let value = dom.add(self.pc, imm);
            return ExecResult::Retire {
                pc_target: None,
                rd: Some((rd, value)),
            };
        }
        if opcode_is!(opcodes::JAL) {
            let four = dom.const_word(4);
            let link = dom.add(self.pc, four);
            if self.inject == Some(InjectedError::E5JalNoPcUpdate) {
                // Fault: the PC update is lost; the link value still writes.
                return ExecResult::Retire {
                    pc_target: None,
                    rd: Some((rd, link)),
                };
            }
            let imm = self.j_imm(dom, instr);
            let target = dom.add(self.pc, imm);
            return self.control_transfer(dom, target, Some((rd, link)));
        }
        if opcode_is!(opcodes::JALR) {
            let f3_ok = dom.eq_const(funct3, 0);
            if !dom.decide(f3_ok) {
                return ExecResult::Trap(Trap::IllegalInstruction, instr);
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
            return self.execute_load(dom, instr, funct3, rd, rs1_idx);
        }
        if opcode_is!(opcodes::STORE) {
            return self.execute_store(dom, instr, funct3, rs1_idx, rs2_idx);
        }
        if opcode_is!(opcodes::OP_IMM) {
            return self.execute_op_imm(dom, instr, funct3, funct7, rd, rs1_idx);
        }
        if opcode_is!(opcodes::OP) {
            return self.execute_op(dom, instr, funct3, funct7, rd, rs1_idx, rs2_idx);
        }
        if opcode_is!(opcodes::MISC_MEM) {
            let is_fence = dom.eq_const(funct3, 0);
            if dom.decide(is_fence) {
                return ExecResult::Retire {
                    pc_target: None,
                    rd: None,
                };
            }
            let is_fence_i = dom.eq_const(funct3, 1);
            if dom.decide(is_fence_i) {
                return ExecResult::Retire {
                    pc_target: None,
                    rd: None,
                };
            }
            return ExecResult::Trap(Trap::IllegalInstruction, instr);
        }
        if opcode_is!(opcodes::SYSTEM) {
            return self.execute_system(dom, instr, funct3, rd, rs1_idx);
        }
        ExecResult::Trap(Trap::IllegalInstruction, instr)
    }

    fn control_transfer(
        &mut self,
        dom: &mut D,
        target: D::Word,
        rd: Option<(D::Word, D::Word)>,
    ) -> ExecResult<D> {
        if self.config.trap_on_misaligned_fetch {
            let low = dom.and_const(target, 0x3);
            let zero = dom.const_word(0);
            let misaligned = dom.ne_w(low, zero);
            if dom.decide(misaligned) {
                return ExecResult::Trap(Trap::InstructionAddressMisaligned, target);
            }
        }
        ExecResult::Retire {
            pc_target: Some(target),
            rd,
        }
    }

    fn execute_branch(
        &mut self,
        dom: &mut D,
        instr: D::Word,
        funct3: D::Word,
        rs1_idx: D::Word,
        rs2_idx: D::Word,
    ) -> ExecResult<D> {
        let a = self.read_reg(dom, rs1_idx);
        let b = self.read_reg(dom, rs2_idx);
        let eq = dom.eq_w(a, b);
        macro_rules! f3_is {
            ($value:expr) => {{
                let c = dom.eq_const(funct3, $value);
                dom.decide(c)
            }};
        }
        let cond = if f3_is!(0b000) {
            eq
        } else if f3_is!(0b001) {
            if self.inject == Some(InjectedError::E6BneBehavesLikeBeq) {
                eq // fault: the polarity inversion is lost
            } else {
                dom.not_b(eq)
            }
        } else if f3_is!(0b100) {
            dom.slt(a, b)
        } else if f3_is!(0b101) {
            dom.sge(a, b)
        } else if f3_is!(0b110) {
            dom.ult(a, b)
        } else if f3_is!(0b111) {
            dom.uge(a, b)
        } else {
            return ExecResult::Trap(Trap::IllegalInstruction, instr);
        };
        if dom.decide(cond) {
            let imm = self.b_imm(dom, instr);
            let target = dom.add(self.pc, imm);
            self.control_transfer(dom, target, None)
        } else {
            ExecResult::Retire {
                pc_target: None,
                rd: None,
            }
        }
    }

    /// Concretises the low two address bits (the strobe is a concrete
    /// control signal, as in the verilated core).
    fn decide_offset(&mut self, dom: &mut D, addr: D::Word) -> u32 {
        let low = dom.and_const(addr, 0x3);
        for offset in 0..3 {
            let hit = dom.eq_const(low, offset);
            if dom.decide(hit) {
                return offset;
            }
        }
        3
    }

    fn execute_load(
        &mut self,
        dom: &mut D,
        instr: D::Word,
        funct3: D::Word,
        rd: D::Word,
        rs1_idx: D::Word,
    ) -> ExecResult<D> {
        macro_rules! f3_is {
            ($value:expr) => {{
                let c = dom.eq_const(funct3, $value);
                dom.decide(c)
            }};
        }
        let flavour = if f3_is!(0b000) {
            LoadFlavour::Lb
        } else if f3_is!(0b001) {
            LoadFlavour::Lh
        } else if f3_is!(0b010) {
            LoadFlavour::Lw
        } else if f3_is!(0b100) {
            LoadFlavour::Lbu
        } else if f3_is!(0b101) {
            LoadFlavour::Lhu
        } else {
            return ExecResult::Trap(Trap::IllegalInstruction, instr);
        };
        let width = match flavour {
            LoadFlavour::Lb | LoadFlavour::Lbu => 1,
            LoadFlavour::Lh | LoadFlavour::Lhu => 2,
            LoadFlavour::Lw => 4,
        };
        let base = self.read_reg(dom, rs1_idx);
        let imm = self.i_imm(dom, instr);
        let addr = dom.add(base, imm);
        let offset = self.decide_offset(dom, addr);
        if width > 1 && !offset.is_multiple_of(width) && !self.config.support_misaligned_data {
            return ExecResult::Trap(Trap::LoadAddressMisaligned, addr);
        }
        let plan = self.build_plan(dom, addr, offset, width, flavour, rd, None);
        ExecResult::Memory(plan)
    }

    fn execute_store(
        &mut self,
        dom: &mut D,
        instr: D::Word,
        funct3: D::Word,
        rs1_idx: D::Word,
        rs2_idx: D::Word,
    ) -> ExecResult<D> {
        macro_rules! f3_is {
            ($value:expr) => {{
                let c = dom.eq_const(funct3, $value);
                dom.decide(c)
            }};
        }
        let width = if f3_is!(0b000) {
            1
        } else if f3_is!(0b001) {
            2
        } else if f3_is!(0b010) {
            4
        } else {
            return ExecResult::Trap(Trap::IllegalInstruction, instr);
        };
        let base = self.read_reg(dom, rs1_idx);
        let imm = self.s_imm(dom, instr);
        let addr = dom.add(base, imm);
        let offset = self.decide_offset(dom, addr);
        if width > 1 && !offset.is_multiple_of(width) && !self.config.support_misaligned_data {
            return ExecResult::Trap(Trap::StoreAddressMisaligned, addr);
        }
        let value = self.read_reg(dom, rs2_idx);
        let zero = dom.const_word(0);
        let plan = self.build_plan(dom, addr, offset, width, LoadFlavour::Lw, zero, Some(value));
        ExecResult::Memory(plan)
    }

    /// Builds the DBus sub-access plan for an access of `width` bytes at
    /// concrete word offset `offset`. Aligned accesses are a single
    /// transaction; misaligned ones (when supported) go byte by byte.
    #[allow(clippy::too_many_arguments)]
    fn build_plan(
        &mut self,
        dom: &mut D,
        addr: D::Word,
        offset: u32,
        width: u32,
        flavour: LoadFlavour,
        rd: D::Word,
        store_value: Option<D::Word>,
    ) -> MemPlan<D> {
        let is_store = store_value.is_some();
        let zero = dom.const_word(0);
        let aligned_base = dom.and_const(addr, !0x3);
        let mut subs = Vec::new();

        // Fault E7 flips the byte-lane endianness of LBU accesses.
        let lbu_flip = !is_store
            && flavour == LoadFlavour::Lbu
            && self.inject == Some(InjectedError::E7LbuEndiannessFlip);

        if offset.is_multiple_of(width) && width <= 4 && !lbu_flip {
            // Naturally aligned: one transaction.
            let strobe = Strobe::for_access(width, offset).expect("aligned access");
            let store_data = match store_value {
                Some(value) => dom.shl_const(value, offset * 8),
                None => zero,
            };
            subs.push(SubAccess {
                word_addr: aligned_base,
                strobe,
                bus_shift: offset * 8,
                val_shift: 0,
                bytes: width,
                store_data,
            });
        } else {
            // Misaligned (or lane-flipped byte): byte-by-byte transactions.
            for i in 0..width {
                let mut lane = (offset + i) % 4;
                if lbu_flip {
                    lane ^= 3;
                }
                let word_index = (offset + i) / 4;
                let word_addr = if word_index == 0 {
                    aligned_base
                } else {
                    let four = dom.const_word(4);
                    dom.add(aligned_base, four)
                };
                let strobe = Strobe::for_access(1, lane).expect("byte lane");
                let store_data = match store_value {
                    Some(value) => {
                        let byte = dom.lshr_const(value, i * 8);
                        let masked = dom.and_const(byte, 0xff);
                        dom.shl_const(masked, lane * 8)
                    }
                    None => zero,
                };
                subs.push(SubAccess {
                    word_addr,
                    strobe,
                    bus_shift: lane * 8,
                    val_shift: i * 8,
                    bytes: 1,
                    store_data,
                });
            }
        }
        MemPlan {
            is_store,
            subs,
            current: 0,
            assembled: zero,
            flavour,
            rd,
        }
    }

    fn execute_op_imm(
        &mut self,
        dom: &mut D,
        instr: D::Word,
        funct3: D::Word,
        funct7: D::Word,
        rd: D::Word,
        rs1_idx: D::Word,
    ) -> ExecResult<D> {
        let a = self.read_reg(dom, rs1_idx);
        let imm = self.i_imm(dom, instr);
        macro_rules! f3_is {
            ($value:expr) => {{
                let c = dom.eq_const(funct3, $value);
                dom.decide(c)
            }};
        }
        macro_rules! retire_rd {
            ($value:expr) => {
                ExecResult::Retire {
                    pc_target: None,
                    rd: Some((rd, $value)),
                }
            };
        }
        if f3_is!(0b000) {
            let mut value = dom.add(a, imm);
            if self.inject == Some(InjectedError::E3AddiStuckAt0Lsb) {
                value = dom.and_const(value, !1);
            }
            return retire_rd!(value);
        }
        if f3_is!(0b010) {
            let lt = dom.slt(a, imm);
            let value = dom.bool_to_word(lt);
            return retire_rd!(value);
        }
        if f3_is!(0b011) {
            let lt = dom.ult(a, imm);
            let value = dom.bool_to_word(lt);
            return retire_rd!(value);
        }
        if f3_is!(0b100) {
            let value = dom.xor(a, imm);
            return retire_rd!(value);
        }
        if f3_is!(0b110) {
            let value = dom.or(a, imm);
            return retire_rd!(value);
        }
        if f3_is!(0b111) {
            let value = dom.and(a, imm);
            return retire_rd!(value);
        }
        let shamt = dom.and_const(imm, 0x1f);
        if f3_is!(0b001) {
            // Decode-table entry for SLLI: funct7 must be 0000000. Faults
            // E0/E1/E2 mark instruction bit 25 (funct7 bit 0) don't-care.
            let checked = if self.inject == Some(InjectedError::E0SlliDecodeDontCare) {
                dom.and_const(funct7, 0b111_1110)
            } else {
                funct7
            };
            let legal = dom.eq_const(checked, 0);
            if !dom.decide(legal) {
                return ExecResult::Trap(Trap::IllegalInstruction, instr);
            }
            let value = dom.shl(a, shamt);
            return retire_rd!(value);
        }
        // funct3 == 101: SRLI or SRAI by funct7.
        let srli_checked = if self.inject == Some(InjectedError::E1SrliDecodeDontCare) {
            dom.and_const(funct7, 0b111_1110)
        } else {
            funct7
        };
        let is_srli = dom.eq_const(srli_checked, 0);
        if dom.decide(is_srli) {
            let value = dom.lshr(a, shamt);
            return retire_rd!(value);
        }
        let srai_checked = if self.inject == Some(InjectedError::E2SraiDecodeDontCare) {
            dom.and_const(funct7, 0b111_1110)
        } else {
            funct7
        };
        let is_srai = dom.eq_const(srai_checked, 0b010_0000);
        if dom.decide(is_srai) {
            let value = dom.ashr(a, shamt);
            return retire_rd!(value);
        }
        ExecResult::Trap(Trap::IllegalInstruction, instr)
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
    ) -> ExecResult<D> {
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
        macro_rules! retire_rd {
            ($value:expr) => {
                ExecResult::Retire {
                    pc_target: None,
                    rd: Some((rd, $value)),
                }
            };
        }
        let shamt = dom.and_const(b, 0x1f);
        if f3_is!(0b000) {
            if dom.decide(f7_zero) {
                let value = dom.add(a, b);
                return retire_rd!(value);
            }
            if dom.decide(f7_alt) {
                let mut value = dom.sub(a, b);
                if self.inject == Some(InjectedError::E4SubStuckAt0Msb) {
                    value = dom.and_const(value, 0x7fff_ffff);
                }
                return retire_rd!(value);
            }
            return ExecResult::Trap(Trap::IllegalInstruction, instr);
        }
        if f3_is!(0b001) {
            if dom.decide(f7_zero) {
                let value = dom.shl(a, shamt);
                return retire_rd!(value);
            }
            return ExecResult::Trap(Trap::IllegalInstruction, instr);
        }
        if f3_is!(0b010) {
            if dom.decide(f7_zero) {
                let lt = dom.slt(a, b);
                let value = dom.bool_to_word(lt);
                return retire_rd!(value);
            }
            return ExecResult::Trap(Trap::IllegalInstruction, instr);
        }
        if f3_is!(0b011) {
            if dom.decide(f7_zero) {
                let lt = dom.ult(a, b);
                let value = dom.bool_to_word(lt);
                return retire_rd!(value);
            }
            return ExecResult::Trap(Trap::IllegalInstruction, instr);
        }
        if f3_is!(0b100) {
            if dom.decide(f7_zero) {
                let value = dom.xor(a, b);
                return retire_rd!(value);
            }
            return ExecResult::Trap(Trap::IllegalInstruction, instr);
        }
        if f3_is!(0b101) {
            if dom.decide(f7_zero) {
                let value = dom.lshr(a, shamt);
                return retire_rd!(value);
            }
            if dom.decide(f7_alt) {
                let value = dom.ashr(a, shamt);
                return retire_rd!(value);
            }
            return ExecResult::Trap(Trap::IllegalInstruction, instr);
        }
        if f3_is!(0b110) {
            if dom.decide(f7_zero) {
                let value = dom.or(a, b);
                return retire_rd!(value);
            }
            return ExecResult::Trap(Trap::IllegalInstruction, instr);
        }
        if f3_is!(0b111) {
            if dom.decide(f7_zero) {
                let value = dom.and(a, b);
                return retire_rd!(value);
            }
            return ExecResult::Trap(Trap::IllegalInstruction, instr);
        }
        ExecResult::Trap(Trap::IllegalInstruction, instr)
    }

    fn execute_system(
        &mut self,
        dom: &mut D,
        instr: D::Word,
        funct3: D::Word,
        rd: D::Word,
        rs1_idx: D::Word,
    ) -> ExecResult<D> {
        let f3_zero = dom.eq_const(funct3, 0);
        if dom.decide(f3_zero) {
            let is_ecall = dom.eq_const(instr, 0x0000_0073);
            if dom.decide(is_ecall) {
                let zero = dom.const_word(0);
                return ExecResult::Trap(Trap::EcallFromM, zero);
            }
            let is_ebreak = dom.eq_const(instr, 0x0010_0073);
            if dom.decide(is_ebreak) {
                return ExecResult::Trap(Trap::Breakpoint, self.pc);
            }
            let is_mret = dom.eq_const(instr, 0x3020_0073);
            if dom.decide(is_mret) {
                let target = self.csr.mepc();
                return self.control_transfer(dom, target, None);
            }
            let is_wfi = dom.eq_const(instr, 0x1050_0073);
            if dom.decide(is_wfi) {
                if self.config.implement_wfi {
                    return ExecResult::Retire {
                        pc_target: None,
                        rd: None,
                    };
                }
                // Shipped MicroRV32: WFI is simply missing from the decoder
                // and falls into the illegal-instruction trap.
                return ExecResult::Trap(Trap::IllegalInstruction, instr);
            }
            return ExecResult::Trap(Trap::IllegalInstruction, instr);
        }

        let csr_addr = dom.field(instr, 31, 20);
        let uimm = rs1_idx;
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
            return ExecResult::Trap(Trap::IllegalInstruction, instr);
        };

        let config = self.config.clone();
        if op_write {
            let rd_zero = {
                let c = dom.eq_const(rd, 0);
                dom.decide(c)
            };
            let old = if rd_zero {
                dom.const_word(0)
            } else {
                match self.csr.read(dom, csr_addr, &config) {
                    Ok(value) => value,
                    Err(trap) => return ExecResult::Trap(trap, instr),
                }
            };
            if let Err(trap) = self.csr.write(dom, csr_addr, src, &config) {
                return ExecResult::Trap(trap, instr);
            }
            return ExecResult::Retire {
                pc_target: None,
                rd: Some((rd, old)),
            };
        }
        let old = match self.csr.read(dom, csr_addr, &config) {
            Ok(value) => value,
            Err(trap) => return ExecResult::Trap(trap, instr),
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
            if let Err(trap) = self.csr.write(dom, csr_addr, new_value, &config) {
                return ExecResult::Trap(trap, instr);
            }
        }
        ExecResult::Retire {
            pc_target: None,
            rd: Some((rd, old)),
        }
    }

    // Immediate extractors (pure word arithmetic).

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
