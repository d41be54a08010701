//! The ISS control-and-status register file.
//!
//! Implements the VP's CSR surface: the machine trap-setup and
//! trap-handling registers, the machine counters, the full HPM counter
//! range (reads as zero, writes accepted), and the unprivileged counter
//! shadows. Addresses arrive as (possibly symbolic) words; dispatch is a
//! chain of [`decide`](Domain::decide)s, so symbolic CSR instructions fork
//! into one path per implemented CSR (plus one per unimplemented range) —
//! exactly the path structure KLEE extracts from the VP's `switch`.

use symcosim_isa::Trap;
use symcosim_symex::Domain;

use crate::IssConfig;

/// CSR storage and dispatch for the reference ISS.
#[derive(Debug)]
pub struct IssCsrFile<D: Domain> {
    mstatus: D::Word,
    mtvec: D::Word,
    mepc: D::Word,
    mcause: D::Word,
    mtval: D::Word,
    mie: D::Word,
    mip: D::Word,
    mscratch: D::Word,
    mcounteren: D::Word,
    medeleg: D::Word,
    mideleg: D::Word,
    mcycle: D::Word,
    mcycleh: D::Word,
    minstret: D::Word,
    minstreth: D::Word,
    /// HPM counter/event storage, associative on the (possibly symbolic)
    /// CSR address; later entries shadow earlier ones.
    hpm: Vec<(D::Word, D::Word)>,
}

// Manual impl: a derived Clone would demand `D: Clone`, which the
// fork-engine executor is not (`D::Word` itself is always `Copy`).
impl<D: Domain> Clone for IssCsrFile<D> {
    fn clone(&self) -> IssCsrFile<D> {
        IssCsrFile {
            mstatus: self.mstatus,
            mtvec: self.mtvec,
            mepc: self.mepc,
            mcause: self.mcause,
            mtval: self.mtval,
            mie: self.mie,
            mip: self.mip,
            mscratch: self.mscratch,
            mcounteren: self.mcounteren,
            medeleg: self.medeleg,
            mideleg: self.mideleg,
            mcycle: self.mcycle,
            mcycleh: self.mcycleh,
            minstret: self.minstret,
            minstreth: self.minstreth,
            hpm: self.hpm.clone(),
        }
    }
}

impl<D: Domain> IssCsrFile<D> {
    /// Creates a CSR file with all registers reset to zero.
    pub fn new(dom: &mut D) -> IssCsrFile<D> {
        let zero = dom.const_word(0);
        IssCsrFile {
            mstatus: zero,
            mtvec: zero,
            mepc: zero,
            mcause: zero,
            mtval: zero,
            mie: zero,
            mip: zero,
            mscratch: zero,
            mcounteren: zero,
            medeleg: zero,
            mideleg: zero,
            mcycle: zero,
            mcycleh: zero,
            minstret: zero,
            minstreth: zero,
            hpm: Vec::new(),
        }
    }

    /// The trap vector base (`mtvec`).
    pub fn mtvec(&self) -> D::Word {
        self.mtvec
    }

    /// The saved exception PC (`mepc`).
    pub fn mepc(&self) -> D::Word {
        self.mepc
    }

    /// The cycle counter low half (`mcycle`), for test inspection.
    pub fn mcycle(&self) -> D::Word {
        self.mcycle
    }

    /// The retired-instruction counter low half (`minstret`).
    pub fn minstret(&self) -> D::Word {
        self.minstret
    }

    /// Records trap state: `mepc`, `mcause` and `mtval`.
    pub fn enter_trap(&mut self, dom: &mut D, epc: D::Word, cause: Trap, tval: D::Word) {
        self.mepc = epc;
        self.mcause = dom.const_word(cause.cause());
        self.mtval = tval;
    }

    /// Advances the abstract timing model by one instruction: `mcycle`
    /// always increments; `minstret` increments only when the instruction
    /// retired without trapping.
    pub fn bump_counters(&mut self, dom: &mut D, retired: bool) {
        let one = dom.const_word(1);
        let zero = dom.const_word(0);
        let new_cycle = dom.add(self.mcycle, one);
        let carry = dom.eq_w(new_cycle, zero);
        let bumped_high = dom.add(self.mcycleh, one);
        self.mcycleh = dom.ite(carry, bumped_high, self.mcycleh);
        self.mcycle = new_cycle;
        if retired {
            let new_instret = dom.add(self.minstret, one);
            let carry = dom.eq_w(new_instret, zero);
            let bumped_high = dom.add(self.minstreth, one);
            self.minstreth = dom.ite(carry, bumped_high, self.minstreth);
            self.minstret = new_instret;
        }
    }

    /// Reads the CSR at (possibly symbolic) address `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`Trap::IllegalInstruction`] for unimplemented addresses —
    /// and, when [`IssConfig::medeleg_mideleg_read_trap`] is set (the VP
    /// bug), for reads of `medeleg`/`mideleg`.
    pub fn read(
        &mut self,
        dom: &mut D,
        addr: D::Word,
        config: &IssConfig,
    ) -> Result<D::Word, Trap> {
        macro_rules! hit {
            ($address:expr, $value:expr) => {
                let c = dom.eq_const(addr, $address as u32);
                if dom.decide(c) {
                    return Ok($value);
                }
            };
        }
        hit!(0x300, self.mstatus);
        hit!(0x301, dom.const_word(config.misa));
        hit!(0x304, self.mie);
        hit!(0x305, self.mtvec);
        hit!(0x306, self.mcounteren);
        hit!(0x340, self.mscratch);
        hit!(0x341, self.mepc);
        hit!(0x342, self.mcause);
        hit!(0x343, self.mtval);
        hit!(0x344, self.mip);
        // medeleg/mideleg: the VP bug is to trap on *reads*.
        for delegated in [0x302u32, 0x303] {
            let c = dom.eq_const(addr, delegated);
            if dom.decide(c) {
                if config.medeleg_mideleg_read_trap {
                    return Err(Trap::IllegalInstruction);
                }
                return Ok(if delegated == 0x302 {
                    self.medeleg
                } else {
                    self.mideleg
                });
            }
        }
        hit!(0xb00, self.mcycle);
        hit!(0xb02, self.minstret);
        hit!(0xb80, self.mcycleh);
        hit!(0xb82, self.minstreth);
        // Unprivileged shadows; the VP's abstract timing makes time == cycle.
        hit!(0xc00, self.mcycle);
        hit!(0xc01, self.mcycle);
        hit!(0xc02, self.minstret);
        hit!(0xc80, self.mcycleh);
        hit!(0xc81, self.mcycleh);
        hit!(0xc82, self.minstreth);
        hit!(0xf11, dom.const_word(config.mvendorid));
        hit!(0xf12, dom.const_word(config.marchid));
        hit!(0xf13, dom.const_word(config.mimpid));
        hit!(0xf14, dom.const_word(config.mhartid));
        // HPM counters and event selectors: the VP implements them as
        // plain read/write registers (reset value zero).
        if self.in_hpm_range(dom, addr) {
            let mut value = dom.const_word(0);
            for (stored_addr, stored_value) in self.hpm.clone() {
                let hit = dom.eq_w(addr, stored_addr);
                value = dom.ite(hit, stored_value, value);
            }
            return Ok(value);
        }
        Err(Trap::IllegalInstruction)
    }

    /// Writes the CSR at (possibly symbolic) address `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`Trap::IllegalInstruction`] for unimplemented addresses and
    /// for writes to architecturally read-only CSRs (the machine
    /// information registers and the unprivileged counters).
    pub fn write(
        &mut self,
        dom: &mut D,
        addr: D::Word,
        value: D::Word,
        config: &IssConfig,
    ) -> Result<(), Trap> {
        let _ = config;
        macro_rules! store {
            ($address:expr, $slot:expr) => {
                let c = dom.eq_const(addr, $address as u32);
                if dom.decide(c) {
                    $slot = value;
                    return Ok(());
                }
            };
        }
        store!(0x300, self.mstatus);
        {
            // misa is WARL and hardwired: writes are accepted and ignored.
            let c = dom.eq_const(addr, 0x301);
            if dom.decide(c) {
                return Ok(());
            }
        }
        store!(0x302, self.medeleg);
        store!(0x303, self.mideleg);
        store!(0x304, self.mie);
        store!(0x305, self.mtvec);
        store!(0x306, self.mcounteren);
        store!(0x340, self.mscratch);
        store!(0x341, self.mepc);
        store!(0x342, self.mcause);
        store!(0x343, self.mtval);
        store!(0x344, self.mip);
        store!(0xb00, self.mcycle);
        store!(0xb02, self.minstret);
        store!(0xb80, self.mcycleh);
        store!(0xb82, self.minstreth);
        // HPM counters/events: plain read/write registers in the VP.
        if self.in_hpm_range(dom, addr) {
            self.hpm.push((addr, value));
            return Ok(());
        }
        // Everything else that exists is read-only (0xC00/0xF11 blocks);
        // writes must raise an illegal-instruction exception. Unimplemented
        // addresses raise the same exception, so one check suffices.
        Err(Trap::IllegalInstruction)
    }

    /// One decision per HPM block: `mhpmcounter3..=31`,
    /// `mhpmcounter3h..=31h` and `mhpmevent3..=31`.
    fn in_hpm_range(&self, dom: &mut D, addr: D::Word) -> bool {
        for (lo, hi) in [(0xb03u32, 0xb1f), (0xb83, 0xb9f), (0x323, 0x33f)] {
            let lo_w = dom.const_word(lo);
            let hi_w = dom.const_word(hi);
            let ge = dom.uge(addr, lo_w);
            let le = {
                let gt = dom.ult(hi_w, addr);
                dom.not_b(gt)
            };
            let within = dom.and_b(ge, le);
            if dom.decide(within) {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symcosim_symex::ConcreteDomain;

    fn file(dom: &mut ConcreteDomain) -> IssCsrFile<ConcreteDomain> {
        IssCsrFile::new(dom)
    }

    #[test]
    fn scratch_round_trip() {
        let mut dom = ConcreteDomain::new();
        let mut csr = file(&mut dom);
        let config = IssConfig::vp_v1();
        csr.write(&mut dom, 0x340, 0xdead_beef, &config)
            .expect("mscratch is writable");
        assert_eq!(csr.read(&mut dom, 0x340, &config), Ok(0xdead_beef));
    }

    #[test]
    fn vp_bug_traps_on_delegation_reads() {
        let mut dom = ConcreteDomain::new();
        let mut csr = file(&mut dom);
        let buggy = IssConfig::vp_v1();
        assert_eq!(
            csr.read(&mut dom, 0x302, &buggy),
            Err(Trap::IllegalInstruction)
        );
        assert_eq!(
            csr.read(&mut dom, 0x303, &buggy),
            Err(Trap::IllegalInstruction)
        );
        // Writes are fine even in the buggy configuration.
        assert!(csr.write(&mut dom, 0x302, 1, &buggy).is_ok());

        let fixed = IssConfig::fixed();
        assert_eq!(csr.read(&mut dom, 0x302, &fixed), Ok(1));
        assert_eq!(csr.read(&mut dom, 0x303, &fixed), Ok(0));
    }

    #[test]
    fn read_only_csrs_trap_on_write() {
        let mut dom = ConcreteDomain::new();
        let mut csr = file(&mut dom);
        let config = IssConfig::vp_v1();
        for addr in [0xf11u32, 0xf12, 0xf14, 0xc00, 0xc82, 0xc01] {
            assert_eq!(
                csr.write(&mut dom, addr, 1, &config),
                Err(Trap::IllegalInstruction),
                "addr {addr:#x}"
            );
            assert!(csr.read(&mut dom, addr, &config).is_ok(), "addr {addr:#x}");
        }
    }

    #[test]
    fn unimplemented_csr_traps_both_ways() {
        let mut dom = ConcreteDomain::new();
        let mut csr = file(&mut dom);
        let config = IssConfig::vp_v1();
        for addr in [0x000u32, 0x7c0, 0x105, 0xfff] {
            assert_eq!(
                csr.read(&mut dom, addr, &config),
                Err(Trap::IllegalInstruction)
            );
            assert_eq!(
                csr.write(&mut dom, addr, 0, &config),
                Err(Trap::IllegalInstruction)
            );
        }
    }

    #[test]
    fn hpm_range_reads_zero_accepts_writes() {
        let mut dom = ConcreteDomain::new();
        let mut csr = file(&mut dom);
        let config = IssConfig::vp_v1();
        for addr in [0xb03u32, 0xb10, 0xb1f, 0xb83, 0xb9f, 0x323, 0x330, 0x33f] {
            assert_eq!(csr.read(&mut dom, addr, &config), Ok(0), "addr {addr:#x}");
            assert!(
                csr.write(&mut dom, addr, 5, &config).is_ok(),
                "addr {addr:#x}"
            );
            assert_eq!(
                csr.read(&mut dom, addr, &config),
                Ok(5),
                "written value retained"
            );
        }
        // Just outside the ranges.
        for addr in [0xb20u32, 0xba0, 0x340 - 1] {
            let read = csr.read(&mut dom, addr, &config);
            let is_hpm = read == Ok(0);
            assert!(
                !is_hpm || addr == 0x33f,
                "addr {addr:#x} wrongly in HPM range"
            );
        }
    }

    #[test]
    fn counters_tick_with_retirement() {
        let mut dom = ConcreteDomain::new();
        let mut csr = file(&mut dom);
        csr.bump_counters(&mut dom, true);
        csr.bump_counters(&mut dom, false); // trapped instruction
        csr.bump_counters(&mut dom, true);
        assert_eq!(csr.mcycle(), 3);
        assert_eq!(csr.minstret(), 2);
    }

    #[test]
    fn counter_carry_propagates() {
        let mut dom = ConcreteDomain::new();
        let mut csr = file(&mut dom);
        let config = IssConfig::vp_v1();
        csr.write(&mut dom, 0xb00, u32::MAX, &config)
            .expect("mcycle writable");
        csr.bump_counters(&mut dom, true);
        assert_eq!(csr.read(&mut dom, 0xb00, &config), Ok(0));
        assert_eq!(csr.read(&mut dom, 0xb80, &config), Ok(1));
    }
}
