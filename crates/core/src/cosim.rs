//! The co-simulation main loop.

use symcosim_iss::{Iss, IssConfig};
use symcosim_microrv32::{Core, CoreConfig, InjectedError};
use symcosim_rtl::{DBusResponse, IBusResponse};
use symcosim_symex::Domain;

use crate::memory::IssDataBus;
use crate::voter::{Judge, Mismatch, Voter};
use crate::{SymbolicDataMemory, SymbolicInstrMemory};

/// Why a co-simulation run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The instruction limit was reached without a mismatch.
    InstrLimit,
    /// The per-path cycle limit was hit (execution controller).
    CycleLimit,
    /// The voter found a mismatch.
    Mismatch,
    /// The symbolic path died (infeasible assumption or engine limit).
    PathDead,
}

/// Result of one co-simulation run (one path in symbolic mode).
#[derive(Debug, Clone)]
pub struct CosimResult {
    /// The mismatch, if one was found.
    pub mismatch: Option<Mismatch>,
    /// Instructions executed, counted across both models (as the paper
    /// counts executed instructions).
    pub instructions: u64,
    /// Core clock cycles consumed.
    pub cycles: u64,
    /// Why the run stopped.
    pub stop: StopReason,
}

/// Alias kept for API clarity in the facade crate.
pub type CosimOutcome = CosimResult;

/// One configured co-simulation: core + ISS + shared symbolic memories.
///
/// [`CoSim::run`] drives the core cycle by cycle, services its instruction
/// and data buses from the symbolic memories, lets the ISS execute the same
/// instruction stream, and votes after every retirement. In symbolic mode
/// this happens inside a [`ForkEngine`](symcosim_symex::ForkEngine)
/// exploration; in concrete mode it is the fuzzing baseline's inner loop.
///
/// The loop is exposed at instruction granularity too:
/// [`CoSim::step_instr`] advances one retire-and-vote round, and `run` is
/// just its loop. The fork engine snapshots (clones) the whole `CoSim`
/// between steps, which is why every field is plain data.
#[derive(Debug)]
pub struct CoSim<D: Domain> {
    /// The device under test.
    pub core: Core<D>,
    /// The reference model.
    pub iss: Iss<D>,
    /// Shared instruction memory.
    pub imem: SymbolicInstrMemory<D>,
    /// The core's data memory.
    pub core_dmem: SymbolicDataMemory<D>,
    /// The ISS's data memory (same initial contents).
    pub iss_dmem: SymbolicDataMemory<D>,
    voter: Voter,
    instr_limit: u32,
    cycle_limit: u64,
    compare_memory: bool,
    last_insn: Option<D::Word>,
    // Loop state, kept in fields so a clone resumes mid-run.
    next_instr: u64,
    instructions: u64,
    pending_fetch: Option<D::Word>,
    pending_data: Option<D::Word>,
}

// Manual impl: a derived Clone would demand `D: Clone`, and the
// fork-engine executor that drives snapshots is not cloneable.
impl<D: Domain> Clone for CoSim<D> {
    fn clone(&self) -> CoSim<D> {
        CoSim {
            core: self.core.clone(),
            iss: self.iss.clone(),
            imem: self.imem.clone(),
            core_dmem: self.core_dmem.clone(),
            iss_dmem: self.iss_dmem.clone(),
            voter: self.voter.clone(),
            instr_limit: self.instr_limit,
            cycle_limit: self.cycle_limit,
            compare_memory: self.compare_memory,
            last_insn: self.last_insn,
            next_instr: self.next_instr,
            instructions: self.instructions,
            pending_fetch: self.pending_fetch,
            pending_data: self.pending_data,
        }
    }
}

impl<D: Domain> CoSim<D> {
    /// Builds a co-simulation with symbolic data memories and sliced
    /// symbolic registers.
    ///
    /// `symbolic_regs` registers starting at `x1` are initialised with
    /// fresh symbols (`reg_x1`, …) shared between core and ISS; the rest
    /// stay zero — the paper's register slicing.
    ///
    /// # Panics
    ///
    /// Panics if `dmem_words` is not a power of two or `symbolic_regs`
    /// exceeds 31.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        dom: &mut D,
        core_config: CoreConfig,
        iss_config: IssConfig,
        inject: Option<InjectedError>,
        imem: SymbolicInstrMemory<D>,
        symbolic_regs: usize,
        dmem_words: usize,
        instr_limit: u32,
        cycle_limit: u64,
    ) -> CoSim<D> {
        assert!(symbolic_regs <= 31, "at most 31 registers can be symbolic");
        let mut core = match inject {
            Some(error) => Core::with_injected_error(dom, core_config, error),
            None => Core::new(dom, core_config),
        };
        let mut iss = Iss::new(dom, iss_config);
        for i in 1..=symbolic_regs {
            let value = dom.fresh_word(&format!("reg_x{i}"));
            core.set_register(i, value);
            iss.set_register(i, value);
        }
        let (core_dmem, iss_dmem) = SymbolicDataMemory::new_pair(dom, dmem_words);
        CoSim {
            core,
            iss,
            imem,
            core_dmem,
            iss_dmem,
            voter: Voter::new(),
            instr_limit,
            cycle_limit,
            compare_memory: true,
            last_insn: None,
            next_instr: 0,
            instructions: 0,
            pending_fetch: None,
            pending_data: None,
        }
    }

    /// The instruction word of the most recent core retirement — the
    /// instruction a mismatch should be attributed to.
    pub fn last_instruction(&self) -> Option<D::Word> {
        self.last_insn
    }

    /// Replaces the voter (e.g. to disable the register-file comparison).
    pub fn set_voter(&mut self, voter: Voter) {
        self.voter = voter;
    }

    /// Disables the end-of-run data-memory comparison.
    pub fn set_compare_memory(&mut self, enabled: bool) {
        self.compare_memory = enabled;
    }

    /// Runs the co-simulation until mismatch, limit, or path death.
    pub fn run<J: Judge<D>>(&mut self, dom: &mut D, judge: &mut J) -> CosimResult {
        loop {
            if let Some(result) = self.step_instr(dom, judge) {
                return result;
            }
        }
    }

    /// Advances the co-simulation by one instruction: drives the core to
    /// its next retirement, lets the ISS follow, and votes. Once the
    /// instruction limit is reached, the next call performs the end-of-run
    /// memory comparison and yields the final result.
    ///
    /// Returns `Some` when the run is over, `None` while it can continue.
    /// This is the fork engine's snapshot boundary: the whole `CoSim` is
    /// cloneable between calls.
    pub fn step_instr<J: Judge<D>>(&mut self, dom: &mut D, judge: &mut J) -> Option<CosimResult> {
        if self.next_instr >= self.instr_limit as u64 {
            return Some(self.finish(dom, judge));
        }
        let instr_index = self.next_instr;

        // --- Drive the RTL core to its next retirement. -----------------
        let core_retire = loop {
            if dom.is_dead() {
                return Some(self.result(None, StopReason::PathDead));
            }
            if self.core.cycles() >= self.cycle_limit {
                return Some(self.result(None, StopReason::CycleLimit));
            }
            let zero = dom.const_word(0);
            let ibus_rsp = IBusResponse {
                instruction_ready: self.pending_fetch.is_some(),
                instruction: self.pending_fetch.take().unwrap_or(zero),
            };
            let dbus_rsp = DBusResponse {
                data_ready: self.pending_data.is_some(),
                read_data: self.pending_data.take().unwrap_or(zero),
            };
            let out = self.core.cycle(dom, ibus_rsp, dbus_rsp);
            if out.ibus.fetch_enable {
                self.pending_fetch = Some(self.imem.fetch(dom, out.ibus.address));
            }
            if out.dbus.enable {
                self.pending_data = Some(self.core_dmem.strobe_access(
                    dom,
                    out.dbus.address,
                    out.dbus.write,
                    out.dbus.write_data,
                    out.dbus.strobe,
                ));
            }
            if let Some(retire) = out.rvfi {
                break retire;
            }
        };
        self.instructions += 1;
        self.last_insn = Some(core_retire.insn);

        // --- The ISS follows with the same instruction stream. ----------
        let iss_pc = self.iss.pc();
        let iss_instr = self.imem.fetch(dom, iss_pc);
        let iss_retire = {
            let mut bus = IssDataBus::new(&mut self.iss_dmem);
            self.iss.step(dom, &mut bus, iss_instr)
        };
        self.instructions += 1;
        if dom.is_dead() {
            return Some(self.result(None, StopReason::PathDead));
        }

        // --- Vote. ------------------------------------------------------
        let core_regs = *self.core.registers();
        let iss_regs = *self.iss.registers();
        if let Some(mismatch) = self.voter.compare_step(
            dom,
            judge,
            instr_index,
            &core_retire,
            &iss_retire,
            &core_regs,
            &iss_regs,
        ) {
            return Some(self.result(Some(mismatch), StopReason::Mismatch));
        }
        self.next_instr += 1;
        None
    }

    /// End-of-run: the optional data-memory comparison and the final
    /// result.
    fn finish<J: Judge<D>>(&mut self, dom: &mut D, judge: &mut J) -> CosimResult {
        if self.compare_memory {
            let core_words = self.core_dmem.words().to_vec();
            let iss_words = self.iss_dmem.words().to_vec();
            if let Some(mismatch) = self.voter.compare_memory(
                dom,
                judge,
                self.instr_limit as u64,
                &core_words,
                &iss_words,
            ) {
                return self.result(Some(mismatch), StopReason::Mismatch);
            }
        }
        self.result(None, StopReason::InstrLimit)
    }

    fn result(&self, mismatch: Option<Mismatch>, stop: StopReason) -> CosimResult {
        CosimResult {
            mismatch,
            instructions: self.instructions,
            cycles: self.core.cycles(),
            stop,
        }
    }
}
