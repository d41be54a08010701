//! Symbolic instruction and data memories.

use std::sync::{Arc, Mutex};

use symcosim_rtl::Strobe;
use symcosim_symex::Domain;

/// The shared, read-only symbolic instruction memory.
///
/// Instructions are generated lazily: the first fetch of an address marks a
/// fresh 32-bit word symbolic (KLEE's `klee_make_symbolic`) and caches it,
/// so the RTL core and the ISS are always supplied with the *same*
/// instruction for the same address — the paper's guard against false
/// mismatches. An optional constraint callback (the `klee_assume` hook) is
/// applied to every newly generated instruction.
///
/// Addresses may be symbolic; lookup then resolves through
/// [`decide`](Domain::decide), forking over the cached associations.
pub struct SymbolicInstrMemory<D: Domain> {
    entries: Vec<(D::Word, D::Word)>,
    generated: u32,
    constraint: Option<ConstraintFn<D>>,
    /// Applied only to the *first* generated instruction, after
    /// `constraint`. Job slicing hangs its decode-space cube here: slicing
    /// every fetch would shrink the later slots too, so the slice unions
    /// would no longer cover the multi-instruction space.
    first_constraint: Option<ConstraintFn<D>>,
    generator: Option<GeneratorFn<D>>,
    program: Option<Vec<u32>>,
}

/// A per-instruction generation constraint (the `klee_assume` hook).
/// Shared (`Arc`) so snapshots of the memory clone cheaply.
type ConstraintFn<D> = Arc<dyn Fn(&mut D, <D as Domain>::Word) + Send + Sync>;
/// A custom instruction generator (fuzzing and replay feed words here).
/// Clones share the generator — acceptable because generators are only
/// used by concrete fuzz/replay runs, which never snapshot.
type GeneratorFn<D> = Arc<Mutex<dyn FnMut(&mut D, u32) -> <D as Domain>::Word + Send>>;

impl<D: Domain> std::fmt::Debug for SymbolicInstrMemory<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SymbolicInstrMemory")
            .field("cached", &self.entries.len())
            .field("generated", &self.generated)
            .field("constrained", &self.constraint.is_some())
            .field("first_constrained", &self.first_constraint.is_some())
            .finish()
    }
}

// Manual impl: the closures are behind `Arc` precisely so snapshotting
// engines can clone the memory without `D: Clone` or cloneable closures.
impl<D: Domain> Clone for SymbolicInstrMemory<D> {
    fn clone(&self) -> SymbolicInstrMemory<D> {
        SymbolicInstrMemory {
            entries: self.entries.clone(),
            generated: self.generated,
            constraint: self.constraint.clone(),
            first_constraint: self.first_constraint.clone(),
            generator: self.generator.clone(),
            program: self.program.clone(),
        }
    }
}

impl<D: Domain> SymbolicInstrMemory<D> {
    /// Creates an empty instruction memory.
    pub fn new() -> SymbolicInstrMemory<D> {
        SymbolicInstrMemory {
            entries: Vec::new(),
            generated: 0,
            constraint: None,
            first_constraint: None,
            generator: None,
            program: None,
        }
    }

    /// Installs a generation constraint, applied to each fresh
    /// instruction via [`Domain::assume`].
    pub fn with_constraint(
        constraint: impl Fn(&mut D, D::Word) + Send + Sync + 'static,
    ) -> SymbolicInstrMemory<D> {
        SymbolicInstrMemory {
            constraint: Some(Arc::new(constraint)),
            ..SymbolicInstrMemory::new()
        }
    }

    /// Installs a constraint applied (after the per-instruction one) only
    /// to the first generated instruction. Verification-job slicing scopes
    /// its decode-space cube to the first fetch through this hook; see the
    /// field docs for why later fetches must stay unsliced.
    #[must_use]
    pub fn constrain_first(
        mut self,
        constraint: impl Fn(&mut D, D::Word) + Send + Sync + 'static,
    ) -> SymbolicInstrMemory<D> {
        self.first_constraint = Some(Arc::new(constraint));
        self
    }

    /// Replaces the symbolic generator with a custom one (the fuzzing
    /// baseline supplies random concrete words here). The closure receives
    /// the generation index.
    pub fn with_generator(
        generator: impl FnMut(&mut D, u32) -> D::Word + Send + 'static,
    ) -> SymbolicInstrMemory<D> {
        SymbolicInstrMemory {
            generator: Some(Arc::new(Mutex::new(generator))),
            ..SymbolicInstrMemory::new()
        }
    }

    /// Backs the instruction memory with a concrete program (word 0 at
    /// address 0); fetch addresses wrap modulo the program length. Used
    /// for directed program-level co-simulation (e.g. assembled with
    /// [`symcosim_isa::asm::assemble`](../symcosim_isa/asm/fn.assemble.html)).
    ///
    /// Fetches with *symbolic* addresses fall back to symbolic generation;
    /// program mode is intended for concrete-domain runs, where every
    /// fetch address is concrete.
    ///
    /// # Panics
    ///
    /// Panics if `words` is empty.
    pub fn from_program(words: Vec<u32>) -> SymbolicInstrMemory<D> {
        assert!(
            !words.is_empty(),
            "program must contain at least one instruction"
        );
        SymbolicInstrMemory {
            program: Some(words),
            ..SymbolicInstrMemory::new()
        }
    }

    /// Number of instructions generated so far.
    pub fn generated(&self) -> u32 {
        self.generated
    }

    /// Fetches the instruction at `addr`, generating it if needed.
    pub fn fetch(&mut self, dom: &mut D, addr: D::Word) -> D::Word {
        if let (Some(program), Some(concrete)) = (&self.program, dom.word_value(addr)) {
            let word = program[(concrete as usize / 4) % program.len()];
            return dom.const_word(word);
        }
        for (cached_addr, instr) in &self.entries {
            let same = dom.eq_w(addr, *cached_addr);
            if dom.decide(same) {
                return *instr;
            }
        }
        let instr = match &self.generator {
            Some(generator) => generator.lock().expect("generator lock")(dom, self.generated),
            None => {
                let name = match dom.word_value(addr) {
                    Some(concrete) => format!("imem_{concrete:08x}"),
                    None => format!("imem_sym_{}", self.generated),
                };
                dom.fresh_word(&name)
            }
        };
        if let Some(constraint) = &self.constraint {
            constraint(dom, instr);
        }
        if self.generated == 0 {
            if let Some(constraint) = &self.first_constraint {
                constraint(dom, instr);
            }
        }
        self.entries.push((addr, instr));
        self.generated += 1;
        instr
    }
}

impl<D: Domain> Default for SymbolicInstrMemory<D> {
    fn default() -> SymbolicInstrMemory<D> {
        SymbolicInstrMemory::new()
    }
}

/// A small word-addressed data memory initialised with symbolic values.
///
/// The co-simulation creates *two* instances from one
/// [`SymbolicDataMemory::new_pair`] call, so the core's and the ISS's
/// memories start with identical symbolic contents (the paper's guard
/// against false mismatches). Accesses with symbolic addresses select and
/// update through if-then-else chains, never forking.
#[derive(Debug)]
pub struct SymbolicDataMemory<D: Domain> {
    words: Vec<D::Word>,
}

// Manual impl: a derived Clone would demand `D: Clone`, and the
// fork-engine executor that snapshots these memories is not cloneable.
impl<D: Domain> Clone for SymbolicDataMemory<D> {
    fn clone(&self) -> SymbolicDataMemory<D> {
        SymbolicDataMemory {
            words: self.words.clone(),
        }
    }
}

impl<D: Domain> SymbolicDataMemory<D> {
    /// Creates two memories of `num_words` words with identical fresh
    /// symbolic contents (`dmem_0` …).
    ///
    /// # Panics
    ///
    /// Panics unless `num_words` is a power of two.
    pub fn new_pair(
        dom: &mut D,
        num_words: usize,
    ) -> (SymbolicDataMemory<D>, SymbolicDataMemory<D>) {
        assert!(
            num_words.is_power_of_two(),
            "memory size must be a power of two"
        );
        let words: Vec<D::Word> = (0..num_words)
            .map(|i| dom.fresh_word(&format!("dmem_{i}")))
            .collect();
        (
            SymbolicDataMemory {
                words: words.clone(),
            },
            SymbolicDataMemory { words },
        )
    }

    /// Creates a single zero-initialised memory (fuzzing baseline uses
    /// concrete seeds instead of symbols).
    ///
    /// # Panics
    ///
    /// Panics unless `num_words` is a power of two.
    pub fn new_zeroed(dom: &mut D, num_words: usize) -> SymbolicDataMemory<D> {
        assert!(
            num_words.is_power_of_two(),
            "memory size must be a power of two"
        );
        let zero = dom.const_word(0);
        SymbolicDataMemory {
            words: vec![zero; num_words],
        }
    }

    /// Number of 32-bit words.
    pub fn num_words(&self) -> usize {
        self.words.len()
    }

    /// The raw word storage (voter end-of-run comparison).
    pub fn words(&self) -> &[D::Word] {
        &self.words
    }

    /// Overwrites a word (test setup).
    pub fn set_word(&mut self, index: usize, value: D::Word) {
        let len = self.words.len();
        self.words[index % len] = value;
    }

    /// Selects the word containing byte address `addr` (an ite chain for
    /// symbolic addresses).
    pub fn read_word(&self, dom: &mut D, addr: D::Word) -> D::Word {
        let index = self.index_of(dom, addr);
        if let Some(i) = dom.word_value(index) {
            return self.words[i as usize];
        }
        let mut value = self.words[0];
        for (i, word) in self.words.iter().enumerate().skip(1) {
            let hit = dom.eq_const(index, i as u32);
            value = dom.ite(hit, *word, value);
        }
        value
    }

    /// Replaces lanes of the word containing byte address `addr`:
    /// `word = (word & !mask) | (data & mask)`.
    pub fn write_word_masked(&mut self, dom: &mut D, addr: D::Word, data: D::Word, mask: u32) {
        let index = self.index_of(dom, addr);
        let mask_w = dom.const_word(mask);
        let inv_mask = dom.const_word(!mask);
        if let Some(i) = dom.word_value(index) {
            let kept = dom.and(self.words[i as usize], inv_mask);
            let incoming = dom.and(data, mask_w);
            self.words[i as usize] = dom.or(kept, incoming);
            return;
        }
        for i in 0..self.words.len() {
            let hit = dom.eq_const(index, i as u32);
            let kept = dom.and(self.words[i], inv_mask);
            let incoming = dom.and(data, mask_w);
            let merged = dom.or(kept, incoming);
            self.words[i] = dom.ite(hit, merged, self.words[i]);
        }
    }

    /// Services a strobe-based DBus access (the RTL-core side).
    ///
    /// For loads the returned word carries the selected lanes in place,
    /// as the bus protocol requires.
    pub fn strobe_access(
        &mut self,
        dom: &mut D,
        addr: D::Word,
        write: bool,
        data: D::Word,
        strobe: Strobe,
    ) -> D::Word {
        let mut mask = 0u32;
        for lane in 0..4 {
            if strobe.lanes() & (1 << lane) != 0 {
                mask |= 0xff << (lane * 8);
            }
        }
        if write {
            self.write_word_masked(dom, addr, data, mask);
            dom.const_word(0)
        } else {
            let word = self.read_word(dom, addr);
            dom.and_const(word, mask)
        }
    }

    /// Loads `width_bytes` bytes at byte address `addr`, zero-extended
    /// (the ISS side; handles word-boundary crossings byte by byte).
    pub fn load_bytes(&mut self, dom: &mut D, addr: D::Word, width_bytes: u32) -> D::Word {
        let mut value = dom.const_word(0);
        for i in 0..width_bytes {
            let offset = dom.const_word(i);
            let byte_addr = dom.add(addr, offset);
            let word = self.read_word(dom, byte_addr);
            let lane = dom.and_const(byte_addr, 0x3);
            let shift = dom.shl_const(lane, 3);
            let shifted = dom.lshr(word, shift);
            let byte = dom.and_const(shifted, 0xff);
            let positioned = dom.shl_const(byte, i * 8);
            value = dom.or(value, positioned);
        }
        value
    }

    /// Stores the low `width_bytes` bytes of `value` at byte address
    /// `addr` (the ISS side).
    pub fn store_bytes(&mut self, dom: &mut D, addr: D::Word, value: D::Word, width_bytes: u32) {
        for i in 0..width_bytes {
            let offset = dom.const_word(i);
            let byte_addr = dom.add(addr, offset);
            let lane = dom.and_const(byte_addr, 0x3);
            let byte = dom.lshr_const(value, i * 8);
            let byte = dom.and_const(byte, 0xff);
            let shift = dom.shl_const(lane, 3);
            let positioned = dom.shl(byte, shift);
            // Build a per-lane mask: 0xff << (lane*8). The lane is possibly
            // symbolic, so shift a constant 0xff by the symbolic amount.
            let ff = dom.const_word(0xff);
            let lane_mask = dom.shl(ff, shift);
            self.write_word_masked_sym(dom, byte_addr, positioned, lane_mask);
        }
    }

    /// Like [`write_word_masked`](Self::write_word_masked) but with a
    /// possibly symbolic mask word.
    fn write_word_masked_sym(&mut self, dom: &mut D, addr: D::Word, data: D::Word, mask: D::Word) {
        let index = self.index_of(dom, addr);
        let inv_mask = dom.not_w(mask);
        if let Some(i) = dom.word_value(index) {
            let kept = dom.and(self.words[i as usize], inv_mask);
            let incoming = dom.and(data, mask);
            self.words[i as usize] = dom.or(kept, incoming);
            return;
        }
        for i in 0..self.words.len() {
            let hit = dom.eq_const(index, i as u32);
            let kept = dom.and(self.words[i], inv_mask);
            let incoming = dom.and(data, mask);
            let merged = dom.or(kept, incoming);
            self.words[i] = dom.ite(hit, merged, self.words[i]);
        }
    }

    fn index_of(&self, dom: &mut D, addr: D::Word) -> D::Word {
        let word_index = dom.lshr_const(addr, 2);
        dom.and_const(word_index, (self.words.len() - 1) as u32)
    }
}

/// The ISS bus adapter over a [`SymbolicDataMemory`].
#[derive(Debug)]
pub struct IssDataBus<'m, D: Domain> {
    memory: &'m mut SymbolicDataMemory<D>,
}

impl<'m, D: Domain> IssDataBus<'m, D> {
    /// Wraps a memory as the ISS's data port.
    pub fn new(memory: &'m mut SymbolicDataMemory<D>) -> IssDataBus<'m, D> {
        IssDataBus { memory }
    }
}

impl<D: Domain> symcosim_iss::IssBus<D> for IssDataBus<'_, D> {
    fn load(&mut self, dom: &mut D, addr: D::Word, width_bytes: u32) -> D::Word {
        self.memory.load_bytes(dom, addr, width_bytes)
    }

    fn store(&mut self, dom: &mut D, addr: D::Word, value: D::Word, width_bytes: u32) {
        self.memory.store_bytes(dom, addr, value, width_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symcosim_symex::ConcreteDomain;

    type Dom = ConcreteDomain;

    #[test]
    fn instruction_cache_returns_same_word_per_address() {
        let mut dom = Dom::new();
        let mut imem: SymbolicInstrMemory<Dom> = SymbolicInstrMemory::new();
        let a = imem.fetch(&mut dom, 0);
        let b = imem.fetch(&mut dom, 0);
        assert_eq!(a, b);
        assert_eq!(imem.generated(), 1);
        imem.fetch(&mut dom, 4);
        assert_eq!(imem.generated(), 2);
    }

    #[test]
    fn data_memory_pair_starts_identical() {
        let mut dom = Dom::new();
        let (a, b) = SymbolicDataMemory::new_pair(&mut dom, 8);
        assert_eq!(a.words(), b.words());
        assert_eq!(a.num_words(), 8);
    }

    #[test]
    fn strobe_access_reads_and_writes_lanes() {
        let mut dom = Dom::new();
        let mut mem: SymbolicDataMemory<Dom> = SymbolicDataMemory::new_zeroed(&mut dom, 8);
        mem.strobe_access(&mut dom, 4, true, 0xdead_beef, Strobe::WORD);
        let full = mem.strobe_access(&mut dom, 4, false, 0, Strobe::WORD);
        assert_eq!(full, 0xdead_beef);
        let half = mem.strobe_access(
            &mut dom,
            4,
            false,
            0,
            Strobe::from_lanes(0b1100).expect("legal"),
        );
        assert_eq!(half, 0xdead_0000, "lanes stay in place");
        mem.strobe_access(
            &mut dom,
            4,
            true,
            0x0000_5500,
            Strobe::from_lanes(0b0010).expect("legal"),
        );
        let full = mem.strobe_access(&mut dom, 4, false, 0, Strobe::WORD);
        assert_eq!(full, 0xdead_55ef);
    }

    #[test]
    fn byte_interface_crosses_word_boundaries() {
        let mut dom = Dom::new();
        let mut mem: SymbolicDataMemory<Dom> = SymbolicDataMemory::new_zeroed(&mut dom, 8);
        mem.store_bytes(&mut dom, 2, 0xaabb_ccdd, 4); // spans words 0 and 1
        assert_eq!(mem.words()[0], 0xccdd_0000);
        assert_eq!(mem.words()[1], 0x0000_aabb);
        let value = mem.load_bytes(&mut dom, 2, 4);
        assert_eq!(value, 0xaabb_ccdd);
        let half = mem.load_bytes(&mut dom, 3, 2);
        assert_eq!(half, 0xbbcc);
    }

    #[test]
    fn addresses_wrap_by_masking() {
        let mut dom = Dom::new();
        let mut mem: SymbolicDataMemory<Dom> = SymbolicDataMemory::new_zeroed(&mut dom, 4);
        mem.store_bytes(&mut dom, 16, 0x11, 1); // wraps to word 0
        assert_eq!(mem.words()[0], 0x11);
    }
}
