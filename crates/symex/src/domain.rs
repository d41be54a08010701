//! The execution-domain abstraction.
//!
//! The reference ISS and the RTL core model are written once, generically
//! over [`Domain`]. Instantiated with [`ConcreteDomain`] they run at native
//! speed on `u32` values (used by the fuzzing baseline and the unit tests);
//! instantiated with [`ForkExec`](crate::ForkExec) the same code executes
//! symbolically, with every data-dependent branch routed through
//! [`Domain::decide`], which forks the exploration — the role KLEE plays
//! for the compiled C++ co-simulation in the paper.

/// Operations a 32-bit machine model needs from its value domain.
///
/// `Word` is a 32-bit machine word; `Bool` a single-bit truth value. All
/// operations take `&mut self` because symbolic implementations allocate
/// terms. Branching on a `Bool` must go through [`Domain::decide`]; the
/// concrete implementation just unwraps the value while the symbolic one
/// forks the path.
pub trait Domain {
    /// 32-bit machine word.
    type Word: Copy + PartialEq + std::fmt::Debug;
    /// Single-bit truth value.
    type Bool: Copy + PartialEq + std::fmt::Debug;

    /// Embeds a concrete constant.
    fn const_word(&mut self, value: u32) -> Self::Word;
    /// Embeds a concrete truth value.
    fn const_bool(&mut self, value: bool) -> Self::Bool;
    /// Introduces a fresh symbolic input (concrete domains return zero).
    ///
    /// Names identify inputs across re-executions of the same path; use a
    /// canonical, deterministic naming scheme (e.g. `imem_0x00000000`).
    fn fresh_word(&mut self, name: &str) -> Self::Word;

    /// The concrete value of a word, if it is statically known.
    fn word_value(&self, word: Self::Word) -> Option<u32>;
    /// The concrete value of a bool, if it is statically known.
    fn bool_value(&self, b: Self::Bool) -> Option<bool>;

    /// Wrapping addition.
    fn add(&mut self, a: Self::Word, b: Self::Word) -> Self::Word;
    /// Wrapping subtraction.
    fn sub(&mut self, a: Self::Word, b: Self::Word) -> Self::Word;
    /// Wrapping multiplication (low 32 bits).
    fn mul(&mut self, a: Self::Word, b: Self::Word) -> Self::Word;
    /// Bitwise AND.
    fn and(&mut self, a: Self::Word, b: Self::Word) -> Self::Word;
    /// Bitwise OR.
    fn or(&mut self, a: Self::Word, b: Self::Word) -> Self::Word;
    /// Bitwise XOR.
    fn xor(&mut self, a: Self::Word, b: Self::Word) -> Self::Word;
    /// Bitwise NOT.
    fn not_w(&mut self, a: Self::Word) -> Self::Word;
    /// Logical shift left (amounts ≥ 32 yield zero).
    fn shl(&mut self, a: Self::Word, amount: Self::Word) -> Self::Word;
    /// Logical shift right (amounts ≥ 32 yield zero).
    fn lshr(&mut self, a: Self::Word, amount: Self::Word) -> Self::Word;
    /// Arithmetic shift right (amounts ≥ 32 replicate the sign).
    fn ashr(&mut self, a: Self::Word, amount: Self::Word) -> Self::Word;

    /// Word equality.
    fn eq_w(&mut self, a: Self::Word, b: Self::Word) -> Self::Bool;
    /// Unsigned less-than.
    fn ult(&mut self, a: Self::Word, b: Self::Word) -> Self::Bool;
    /// Signed less-than.
    fn slt(&mut self, a: Self::Word, b: Self::Word) -> Self::Bool;

    /// Word multiplexer.
    fn ite(&mut self, cond: Self::Bool, then_w: Self::Word, else_w: Self::Word) -> Self::Word;
    /// Boolean negation.
    fn not_b(&mut self, a: Self::Bool) -> Self::Bool;
    /// Boolean conjunction.
    fn and_b(&mut self, a: Self::Bool, b: Self::Bool) -> Self::Bool;
    /// Boolean disjunction.
    fn or_b(&mut self, a: Self::Bool, b: Self::Bool) -> Self::Bool;
    /// Zero-extends a bool to a word (0 or 1).
    fn bool_to_word(&mut self, b: Self::Bool) -> Self::Word;

    /// Resolves a `Bool` to a concrete branch direction.
    ///
    /// Symbolic domains fork the exploration here when both directions are
    /// feasible; concrete domains simply return the value.
    fn decide(&mut self, cond: Self::Bool) -> bool;

    /// Constrains the current path with `cond`.
    ///
    /// If the constraint is infeasible the path dies: [`Domain::is_dead`]
    /// becomes `true` and the caller should unwind promptly.
    fn assume(&mut self, cond: Self::Bool);

    /// Whether this path has been killed (infeasible assume or resource
    /// limit). Long-running callers should poll this and bail out early.
    fn is_dead(&self) -> bool;

    // ------------------------------------------------------------------
    // Conveniences derived from the primitives.
    // ------------------------------------------------------------------

    /// Word inequality.
    fn ne_w(&mut self, a: Self::Word, b: Self::Word) -> Self::Bool {
        let eq = self.eq_w(a, b);
        self.not_b(eq)
    }

    /// `a & mask` with a constant mask.
    fn and_const(&mut self, a: Self::Word, mask: u32) -> Self::Word {
        let m = self.const_word(mask);
        self.and(a, m)
    }

    /// Logical shift right by a constant amount.
    fn lshr_const(&mut self, a: Self::Word, amount: u32) -> Self::Word {
        let s = self.const_word(amount);
        self.lshr(a, s)
    }

    /// Logical shift left by a constant amount.
    fn shl_const(&mut self, a: Self::Word, amount: u32) -> Self::Word {
        let s = self.const_word(amount);
        self.shl(a, s)
    }

    /// Extracts the bit field `[hi:lo]` as a zero-based value.
    fn field(&mut self, a: Self::Word, hi: u32, lo: u32) -> Self::Word {
        debug_assert!(lo <= hi && hi < 32);
        let shifted = self.lshr_const(a, lo);
        self.and_const(shifted, (1u64 << (hi - lo + 1)).wrapping_sub(1) as u32)
    }

    /// Compares a word against a constant.
    fn eq_const(&mut self, a: Self::Word, value: u32) -> Self::Bool {
        let v = self.const_word(value);
        self.eq_w(a, v)
    }

    /// Sign-extends the low `bits` bits of `a` to a full word.
    fn sext(&mut self, a: Self::Word, bits: u32) -> Self::Word {
        debug_assert!((1..=32).contains(&bits));
        if bits == 32 {
            return a;
        }
        let left = self.shl_const(a, 32 - bits);
        self.ashr_const(left, 32 - bits)
    }

    /// Zero-extends the low `bits` bits of `a` to a full word.
    fn zext_w(&mut self, a: Self::Word, bits: u32) -> Self::Word {
        debug_assert!((1..=32).contains(&bits));
        if bits == 32 {
            return a;
        }
        self.and_const(a, (1u64 << bits).wrapping_sub(1) as u32)
    }

    /// Arithmetic shift right by a constant amount.
    fn ashr_const(&mut self, a: Self::Word, amount: u32) -> Self::Word {
        let s = self.const_word(amount);
        self.ashr(a, s)
    }

    /// Unsigned `a >= b`.
    fn uge(&mut self, a: Self::Word, b: Self::Word) -> Self::Bool {
        let lt = self.ult(a, b);
        self.not_b(lt)
    }

    /// Signed `a >= b`.
    fn sge(&mut self, a: Self::Word, b: Self::Word) -> Self::Bool {
        let lt = self.slt(a, b);
        self.not_b(lt)
    }
}

/// The native `u32` domain: runs models concretely at full speed.
///
/// [`Domain::assume`] with a false condition marks the run dead, which the
/// fuzzing baseline uses to discard inputs that violate harness
/// assumptions.
///
/// # Example
///
/// ```
/// use symcosim_symex::{ConcreteDomain, Domain};
///
/// let mut dom = ConcreteDomain::new();
/// let a = dom.const_word(40);
/// let b = dom.const_word(2);
/// assert_eq!(dom.add(a, b), 42);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ConcreteDomain {
    dead: bool,
}

impl ConcreteDomain {
    /// Creates a live concrete domain.
    pub fn new() -> ConcreteDomain {
        ConcreteDomain::default()
    }
}

impl Domain for ConcreteDomain {
    type Word = u32;
    type Bool = bool;

    fn const_word(&mut self, value: u32) -> u32 {
        value
    }

    fn const_bool(&mut self, value: bool) -> bool {
        value
    }

    fn fresh_word(&mut self, _name: &str) -> u32 {
        0
    }

    fn word_value(&self, word: u32) -> Option<u32> {
        Some(word)
    }

    fn bool_value(&self, b: bool) -> Option<bool> {
        Some(b)
    }

    fn add(&mut self, a: u32, b: u32) -> u32 {
        a.wrapping_add(b)
    }

    fn sub(&mut self, a: u32, b: u32) -> u32 {
        a.wrapping_sub(b)
    }

    fn mul(&mut self, a: u32, b: u32) -> u32 {
        a.wrapping_mul(b)
    }

    fn and(&mut self, a: u32, b: u32) -> u32 {
        a & b
    }

    fn or(&mut self, a: u32, b: u32) -> u32 {
        a | b
    }

    fn xor(&mut self, a: u32, b: u32) -> u32 {
        a ^ b
    }

    fn not_w(&mut self, a: u32) -> u32 {
        !a
    }

    fn shl(&mut self, a: u32, amount: u32) -> u32 {
        if amount >= 32 {
            0
        } else {
            a << amount
        }
    }

    fn lshr(&mut self, a: u32, amount: u32) -> u32 {
        if amount >= 32 {
            0
        } else {
            a >> amount
        }
    }

    fn ashr(&mut self, a: u32, amount: u32) -> u32 {
        ((a as i32) >> amount.min(31)) as u32
    }

    fn eq_w(&mut self, a: u32, b: u32) -> bool {
        a == b
    }

    fn ult(&mut self, a: u32, b: u32) -> bool {
        a < b
    }

    fn slt(&mut self, a: u32, b: u32) -> bool {
        (a as i32) < (b as i32)
    }

    fn ite(&mut self, cond: bool, then_w: u32, else_w: u32) -> u32 {
        if cond {
            then_w
        } else {
            else_w
        }
    }

    fn not_b(&mut self, a: bool) -> bool {
        !a
    }

    fn and_b(&mut self, a: bool, b: bool) -> bool {
        a && b
    }

    fn or_b(&mut self, a: bool, b: bool) -> bool {
        a || b
    }

    fn bool_to_word(&mut self, b: bool) -> u32 {
        b as u32
    }

    fn decide(&mut self, cond: bool) -> bool {
        cond
    }

    fn assume(&mut self, cond: bool) {
        if !cond {
            self.dead = true;
        }
    }

    fn is_dead(&self) -> bool {
        self.dead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concrete_ops_match_native_semantics() {
        let mut dom = ConcreteDomain::new();
        assert_eq!(dom.add(u32::MAX, 1), 0);
        assert_eq!(dom.sub(0, 1), u32::MAX);
        assert_eq!(dom.shl(1, 31), 0x8000_0000);
        assert_eq!(dom.shl(1, 32), 0);
        assert_eq!(dom.lshr(0x8000_0000, 31), 1);
        assert_eq!(dom.ashr(0x8000_0000, 31), u32::MAX);
        assert_eq!(dom.ashr(0x8000_0000, 40), u32::MAX);
        assert!(dom.slt(u32::MAX, 0));
        assert!(!dom.ult(u32::MAX, 0));
    }

    #[test]
    fn derived_helpers() {
        let mut dom = ConcreteDomain::new();
        assert_eq!(dom.field(0xdead_beef, 15, 8), 0xbe);
        assert_eq!(dom.sext(0x80, 8), 0xffff_ff80);
        assert_eq!(dom.zext_w(0xffff_ff80, 8), 0x80);
        assert!(dom.eq_const(42, 42));
        assert!(dom.uge(5, 5));
        assert!(dom.sge(0, u32::MAX)); // 0 >= -1 signed
    }

    #[test]
    fn failed_assume_kills_the_run() {
        let mut dom = ConcreteDomain::new();
        assert!(!dom.is_dead());
        dom.assume(true);
        assert!(!dom.is_dead());
        dom.assume(false);
        assert!(dom.is_dead());
    }
}
