//! The core's control-and-status register file.
//!
//! Independent implementation from the ISS's CSR file — deliberately so:
//! the differences between the two are the paper's Table I findings, and
//! each one is controlled by a [`CoreConfig`] switch.

use symcosim_isa::Trap;
use symcosim_symex::Domain;

use crate::CoreConfig;

/// CSR storage and dispatch for the RTL core model.
#[derive(Debug)]
pub struct CoreCsrFile<D: Domain> {
    mstatus: D::Word,
    mtvec: D::Word,
    mepc: D::Word,
    mcause: D::Word,
    mtval: D::Word,
    mie: D::Word,
    mip: D::Word,
    medeleg: D::Word,
    mideleg: D::Word,
    mscratch: D::Word,
    mcounteren: D::Word,
    mcycle: D::Word,
    mcycleh: D::Word,
    minstret: D::Word,
    minstreth: D::Word,
    /// HPM storage, only active with `implement_extended_csrs` (the fixed
    /// core mirrors the VP's plain read/write HPM registers).
    hpm: Vec<(D::Word, D::Word)>,
}

// Manual impl: `D::Word` is `Copy`, but a derived Clone would demand
// `D: Clone`, which the fork-engine executor is not.
impl<D: Domain> Clone for CoreCsrFile<D> {
    fn clone(&self) -> CoreCsrFile<D> {
        CoreCsrFile {
            mstatus: self.mstatus,
            mtvec: self.mtvec,
            mepc: self.mepc,
            mcause: self.mcause,
            mtval: self.mtval,
            mie: self.mie,
            mip: self.mip,
            medeleg: self.medeleg,
            mideleg: self.mideleg,
            mscratch: self.mscratch,
            mcounteren: self.mcounteren,
            mcycle: self.mcycle,
            mcycleh: self.mcycleh,
            minstret: self.minstret,
            minstreth: self.minstreth,
            hpm: self.hpm.clone(),
        }
    }
}

impl<D: Domain> CoreCsrFile<D> {
    /// Creates a CSR file with every register reset to zero.
    pub fn new(dom: &mut D) -> CoreCsrFile<D> {
        let zero = dom.const_word(0);
        CoreCsrFile {
            mstatus: zero,
            mtvec: zero,
            mepc: zero,
            mcause: zero,
            mtval: zero,
            mie: zero,
            mip: zero,
            medeleg: zero,
            mideleg: zero,
            mscratch: zero,
            mcounteren: zero,
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

    /// The cycle counter low half (test inspection).
    pub fn mcycle(&self) -> D::Word {
        self.mcycle
    }

    /// The retired-instruction counter low half (test inspection).
    pub fn minstret(&self) -> D::Word {
        self.minstret
    }

    /// Records trap state: `mepc`, `mcause` and `mtval`.
    pub fn enter_trap(&mut self, dom: &mut D, epc: D::Word, cause: Trap, tval: D::Word) {
        self.mepc = epc;
        self.mcause = dom.const_word(cause.cause());
        self.mtval = tval;
    }

    /// Advances `mcycle` by one (called per clock or per retirement,
    /// depending on [`CycleCountMode`](crate::CycleCountMode)).
    pub fn bump_cycle(&mut self, dom: &mut D) {
        let one = dom.const_word(1);
        let zero = dom.const_word(0);
        let new_low = dom.add(self.mcycle, one);
        let carry = dom.eq_w(new_low, zero);
        let bumped_high = dom.add(self.mcycleh, one);
        self.mcycleh = dom.ite(carry, bumped_high, self.mcycleh);
        self.mcycle = new_low;
    }

    /// Advances `minstret` by one (called on non-trapping retirement).
    pub fn bump_instret(&mut self, dom: &mut D) {
        let one = dom.const_word(1);
        let zero = dom.const_word(0);
        let new_low = dom.add(self.minstret, one);
        let carry = dom.eq_w(new_low, zero);
        let bumped_high = dom.add(self.minstreth, one);
        self.minstreth = dom.ite(carry, bumped_high, self.minstreth);
        self.minstret = new_low;
    }

    /// Reads the CSR at (possibly symbolic) address `addr`.
    ///
    /// # Errors
    ///
    /// With [`CoreConfig::trap_on_unimplemented_csr`] set, unimplemented
    /// addresses raise [`Trap::IllegalInstruction`]; the shipped MicroRV32
    /// instead silently reads zero.
    pub fn read(
        &mut self,
        dom: &mut D,
        addr: D::Word,
        config: &CoreConfig,
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
        hit!(0x302, self.medeleg);
        hit!(0x303, self.mideleg);
        hit!(0x304, self.mie);
        hit!(0x305, self.mtvec);
        hit!(0x341, self.mepc);
        hit!(0x342, self.mcause);
        hit!(0x343, self.mtval);
        hit!(0x344, self.mip);
        hit!(0xb00, self.mcycle);
        hit!(0xb02, self.minstret);
        hit!(0xb80, self.mcycleh);
        hit!(0xb82, self.minstreth);
        hit!(0xf11, dom.const_word(config.mvendorid));
        hit!(0xf12, dom.const_word(config.marchid));
        hit!(0xf13, dom.const_word(config.mimpid));
        hit!(0xf14, dom.const_word(config.mhartid));
        if config.implement_extended_csrs {
            hit!(0x306, self.mcounteren);
            hit!(0x340, self.mscratch);
            hit!(0xc00, self.mcycle);
            hit!(0xc01, self.mcycle);
            hit!(0xc02, self.minstret);
            hit!(0xc80, self.mcycleh);
            hit!(0xc81, self.mcycleh);
            hit!(0xc82, self.minstreth);
            if self.in_hpm_range(dom, addr) {
                let mut value = dom.const_word(0);
                for (stored_addr, stored_value) in self.hpm.clone() {
                    let hit = dom.eq_w(addr, stored_addr);
                    value = dom.ite(hit, stored_value, value);
                }
                return Ok(value);
            }
        }
        if config.trap_on_unimplemented_csr {
            Err(Trap::IllegalInstruction)
        } else {
            // Shipped MicroRV32: missing trap at access — reads as zero.
            Ok(dom.const_word(0))
        }
    }

    /// Writes the CSR at (possibly symbolic) address `addr`.
    ///
    /// # Errors
    ///
    /// Depending on the configuration switches this raises
    /// [`Trap::IllegalInstruction`] for counter writes (the shipped bug),
    /// read-only writes, or unimplemented addresses.
    pub fn write(
        &mut self,
        dom: &mut D,
        addr: D::Word,
        value: D::Word,
        config: &CoreConfig,
    ) -> Result<(), Trap> {
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
            let c = dom.eq_const(addr, 0x301);
            if dom.decide(c) {
                return Ok(()); // misa is WARL and hardwired
            }
        }
        store!(0x302, self.medeleg);
        store!(0x303, self.mideleg);
        store!(0x304, self.mie);
        store!(0x305, self.mtvec);
        store!(0x341, self.mepc);
        store!(0x342, self.mcause);
        store!(0x343, self.mtval);
        // mip and the machine counters are architecturally writable; the
        // shipped core spuriously traps on them (Table I "Trap at write
        // access" errors).
        for (address, trap_bug) in [
            (0x344u32, true),
            (0xb00, true),
            (0xb02, true),
            (0xb80, true),
            (0xb82, true),
        ] {
            let c = dom.eq_const(addr, address);
            if dom.decide(c) {
                if trap_bug && config.trap_on_counter_write {
                    return Err(Trap::IllegalInstruction);
                }
                match address {
                    0x344 => self.mip = value,
                    0xb00 => self.mcycle = value,
                    0xb02 => self.minstret = value,
                    0xb80 => self.mcycleh = value,
                    _ => self.minstreth = value,
                }
                return Ok(());
            }
        }
        // Read-only machine information registers.
        for address in [0xf11u32, 0xf12, 0xf13, 0xf14] {
            let c = dom.eq_const(addr, address);
            if dom.decide(c) {
                if config.trap_on_readonly_csr_write {
                    return Err(Trap::IllegalInstruction);
                }
                return Ok(()); // shipped core silently drops the write
            }
        }
        if config.implement_extended_csrs {
            store!(0x306, self.mcounteren);
            store!(0x340, self.mscratch);
            // Unprivileged counter shadows are read-only addresses.
            for address in [0xc00u32, 0xc01, 0xc02, 0xc80, 0xc81, 0xc82] {
                let c = dom.eq_const(addr, address);
                if dom.decide(c) {
                    if config.trap_on_readonly_csr_write {
                        return Err(Trap::IllegalInstruction);
                    }
                    return Ok(());
                }
            }
            if self.in_hpm_range(dom, addr) {
                self.hpm.push((addr, value));
                return Ok(());
            }
        }
        if config.trap_on_unimplemented_csr {
            Err(Trap::IllegalInstruction)
        } else {
            Ok(()) // shipped MicroRV32: write silently dropped
        }
    }

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

    type Dom = ConcreteDomain;

    #[test]
    fn shipped_core_misses_traps() {
        let mut dom = Dom::new();
        let mut csr = CoreCsrFile::new(&mut dom);
        let v1 = CoreConfig::microrv32_v1();
        // Unimplemented CSR: silently reads zero, accepts writes.
        assert_eq!(csr.read(&mut dom, 0x400, &v1), Ok(0));
        assert_eq!(csr.write(&mut dom, 0x400, 7, &v1), Ok(()));
        // Read-only ID write silently dropped.
        assert_eq!(csr.write(&mut dom, 0xf12, 7, &v1), Ok(()));
        assert_eq!(csr.read(&mut dom, 0xf12, &v1), Ok(0));
        // Counter writes spuriously trap.
        assert_eq!(
            csr.write(&mut dom, 0xb00, 7, &v1),
            Err(Trap::IllegalInstruction)
        );
        assert_eq!(
            csr.write(&mut dom, 0x344, 7, &v1),
            Err(Trap::IllegalInstruction)
        );
        // mscratch is not implemented: reads zero.
        assert_eq!(csr.write(&mut dom, 0x340, 9, &v1), Ok(()));
        assert_eq!(csr.read(&mut dom, 0x340, &v1), Ok(0));
    }

    #[test]
    fn fixed_core_matches_the_specification() {
        let mut dom = Dom::new();
        let mut csr = CoreCsrFile::new(&mut dom);
        let fixed = CoreConfig::fixed();
        assert_eq!(
            csr.read(&mut dom, 0x400, &fixed),
            Err(Trap::IllegalInstruction)
        );
        assert_eq!(
            csr.write(&mut dom, 0x400, 7, &fixed),
            Err(Trap::IllegalInstruction)
        );
        assert_eq!(
            csr.write(&mut dom, 0xf12, 7, &fixed),
            Err(Trap::IllegalInstruction)
        );
        assert_eq!(csr.write(&mut dom, 0xb00, 7, &fixed), Ok(()));
        assert_eq!(csr.read(&mut dom, 0xb00, &fixed), Ok(7));
        assert_eq!(csr.write(&mut dom, 0x340, 9, &fixed), Ok(()));
        assert_eq!(csr.read(&mut dom, 0x340, &fixed), Ok(9));
        assert_eq!(
            csr.read(&mut dom, 0xc00, &fixed),
            Ok(7),
            "cycle shadows mcycle"
        );
        assert_eq!(
            csr.write(&mut dom, 0xc00, 1, &fixed),
            Err(Trap::IllegalInstruction)
        );
        assert_eq!(csr.read(&mut dom, 0xb10, &fixed), Ok(0), "hpm reads zero");
        assert_eq!(csr.write(&mut dom, 0xb10, 3, &fixed), Ok(()));
    }

    #[test]
    fn medeleg_mideleg_read_fine_in_the_core() {
        // Unlike the VP, the core has no read-trap bug here.
        let mut dom = Dom::new();
        for config in [CoreConfig::microrv32_v1(), CoreConfig::fixed()] {
            let mut csr = CoreCsrFile::new(&mut dom);
            assert_eq!(csr.read(&mut dom, 0x302, &config), Ok(0));
            assert_eq!(csr.read(&mut dom, 0x303, &config), Ok(0));
            assert_eq!(csr.write(&mut dom, 0x302, 5, &config), Ok(()));
            assert_eq!(csr.read(&mut dom, 0x302, &config), Ok(5));
        }
    }

    #[test]
    fn counters_tick_independently() {
        let mut dom = Dom::new();
        let mut csr = CoreCsrFile::new(&mut dom);
        for _ in 0..7 {
            csr.bump_cycle(&mut dom);
        }
        csr.bump_instret(&mut dom);
        assert_eq!(csr.mcycle(), 7);
        assert_eq!(csr.minstret(), 1);
    }
}
