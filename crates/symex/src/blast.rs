//! Tseitin bit-blasting of bit-vector terms to CNF.
//!
//! Each term is translated once per [`Blaster`]; the resulting literals are
//! cached by [`TermId`], which makes repeated feasibility queries over a
//! growing path condition incremental — exactly the access pattern of the
//! exploration engine.

use symcosim_sat::{Lit, Solver};

use crate::hash::TermMap;
use crate::term::{Node, TermId};
use crate::Context;

/// Translates terms to CNF over a [`Solver`], caching per-term literal
/// vectors.
///
/// # Example
///
/// ```
/// use symcosim_sat::{SolveResult, Solver};
/// use symcosim_symex::blast::Blaster;
/// use symcosim_symex::Context;
///
/// let mut ctx = Context::new();
/// let x = ctx.symbol(8, "x");
/// let c200 = ctx.constant(8, 200);
/// let gt = ctx.ult(c200, x); // 200 < x
/// let mut solver = Solver::new();
/// let mut blaster = Blaster::new();
/// let lit = blaster.bool_lit(&ctx, &mut solver, gt);
/// assert_eq!(solver.solve(&[lit]), SolveResult::Sat);
/// ```
#[derive(Debug, Default)]
pub struct Blaster {
    bits: TermMap<TermId, Vec<Lit>>,
    true_lit: Option<Lit>,
}

impl Blaster {
    /// Creates an empty blaster.
    pub fn new() -> Blaster {
        Blaster::default()
    }

    /// The literal that is constant-true in `solver`.
    pub fn true_lit(&mut self, solver: &mut Solver) -> Lit {
        if let Some(lit) = self.true_lit {
            return lit;
        }
        let lit = Lit::positive(solver.new_var());
        solver.add_clause([lit]);
        self.true_lit = Some(lit);
        lit
    }

    /// The literal that is constant-false in `solver`.
    pub fn false_lit(&mut self, solver: &mut Solver) -> Lit {
        !self.true_lit(solver)
    }

    /// The CNF literal equivalent to a width-1 term.
    ///
    /// # Panics
    ///
    /// Panics if `term` does not have width 1.
    pub fn bool_lit(&mut self, ctx: &Context, solver: &mut Solver, term: TermId) -> Lit {
        assert_eq!(ctx.width(term), 1, "bool_lit needs a width-1 term");
        self.bits(ctx, solver, term)[0]
    }

    /// The CNF literals of `term`, least significant bit first.
    pub fn bits(&mut self, ctx: &Context, solver: &mut Solver, term: TermId) -> Vec<Lit> {
        if let Some(bits) = self.bits.get(&term) {
            return bits.clone();
        }
        let width = ctx.width(term) as usize;
        let result: Vec<Lit> = match ctx.node(term) {
            Node::Const { value, .. } => (0..width)
                .map(|i| {
                    if (value >> i) & 1 == 1 {
                        self.true_lit(solver)
                    } else {
                        self.false_lit(solver)
                    }
                })
                .collect(),
            Node::Symbol { .. } => (0..width)
                .map(|_| Lit::positive(solver.new_var()))
                .collect(),
            Node::Not(a) => {
                let a = self.bits(ctx, solver, a);
                a.into_iter().map(|l| !l).collect()
            }
            Node::And(a, b) => self.bitwise(ctx, solver, a, b, Blaster::and_gate),
            Node::Or(a, b) => self.bitwise(ctx, solver, a, b, Blaster::or_gate),
            Node::Xor(a, b) => self.bitwise(ctx, solver, a, b, Blaster::xor_gate),
            Node::Add(a, b) => {
                let a = self.bits(ctx, solver, a);
                let b = self.bits(ctx, solver, b);
                let cin = self.false_lit(solver);
                self.adder(solver, &a, &b, cin)
            }
            Node::Sub(a, b) => {
                let a = self.bits(ctx, solver, a);
                let b: Vec<Lit> = self.bits(ctx, solver, b).into_iter().map(|l| !l).collect();
                let cin = self.true_lit(solver);
                self.adder(solver, &a, &b, cin)
            }
            Node::Mul(a, b) => {
                let a = self.bits(ctx, solver, a);
                let b = self.bits(ctx, solver, b);
                self.multiplier(solver, &a, &b)
            }
            Node::Shl(a, s) => self.shifter(ctx, solver, a, s, ShiftKind::Left),
            Node::Lshr(a, s) => self.shifter(ctx, solver, a, s, ShiftKind::LogicalRight),
            Node::Ashr(a, s) => self.shifter(ctx, solver, a, s, ShiftKind::ArithmeticRight),
            Node::Eq(a, b) => {
                let a = self.bits(ctx, solver, a);
                let b = self.bits(ctx, solver, b);
                let mut acc = self.true_lit(solver);
                for (x, y) in a.iter().zip(&b) {
                    let diff = self.xor_gate(solver, *x, *y);
                    acc = self.and_gate(solver, acc, !diff);
                }
                vec![acc]
            }
            Node::Ult(a, b) => {
                let a = self.bits(ctx, solver, a);
                let b = self.bits(ctx, solver, b);
                vec![self.less_than(solver, &a, &b)]
            }
            Node::Slt(a, b) => {
                let mut a = self.bits(ctx, solver, a);
                let mut b = self.bits(ctx, solver, b);
                // Signed compare = unsigned compare with inverted sign bits.
                let msb = a.len() - 1;
                a[msb] = !a[msb];
                b[msb] = !b[msb];
                vec![self.less_than(solver, &a, &b)]
            }
            Node::Ite(c, t, e) => {
                let c = self.bool_lit(ctx, solver, c);
                let t = self.bits(ctx, solver, t);
                let e = self.bits(ctx, solver, e);
                t.iter()
                    .zip(&e)
                    .map(|(x, y)| self.mux_gate(solver, c, *x, *y))
                    .collect()
            }
            Node::Extract { term, hi, lo } => {
                let source = self.bits(ctx, solver, term);
                source[lo as usize..=hi as usize].to_vec()
            }
            Node::Concat { hi, lo } => {
                let mut bits = self.bits(ctx, solver, lo);
                bits.extend(self.bits(ctx, solver, hi));
                bits
            }
            Node::ZeroExt { term, .. } => {
                let mut bits = self.bits(ctx, solver, term);
                let f = self.false_lit(solver);
                bits.resize(width, f);
                bits
            }
            Node::SignExt { term, .. } => {
                let mut bits = self.bits(ctx, solver, term);
                let sign = *bits.last().expect("non-empty term");
                bits.resize(width, sign);
                bits
            }
        };
        debug_assert_eq!(result.len(), width);
        self.bits.insert(term, result.clone());
        result
    }

    fn bitwise(
        &mut self,
        ctx: &Context,
        solver: &mut Solver,
        a: TermId,
        b: TermId,
        gate: fn(&mut Blaster, &mut Solver, Lit, Lit) -> Lit,
    ) -> Vec<Lit> {
        let a = self.bits(ctx, solver, a);
        let b = self.bits(ctx, solver, b);
        a.iter()
            .zip(&b)
            .map(|(x, y)| gate(self, solver, *x, *y))
            .collect()
    }

    /// `out = a ∧ b` as a fresh Tseitin-defined literal.
    fn and_gate(&mut self, solver: &mut Solver, a: Lit, b: Lit) -> Lit {
        let t = self.true_lit(solver);
        if a == t {
            return b;
        }
        if b == t {
            return a;
        }
        if a == !t || b == !t {
            return !t;
        }
        if a == b {
            return a;
        }
        if a == !b {
            return !t;
        }
        let value = solver.phase_value(a) && solver.phase_value(b);
        let out = Lit::positive(solver.new_var());
        solver.set_phase(out.var(), value);
        solver.add_clause([!out, a]);
        solver.add_clause([!out, b]);
        solver.add_clause([out, !a, !b]);
        out
    }

    /// `out = a ∨ b`.
    fn or_gate(&mut self, solver: &mut Solver, a: Lit, b: Lit) -> Lit {
        !self.and_gate(solver, !a, !b)
    }

    /// `out = a ⊕ b`.
    fn xor_gate(&mut self, solver: &mut Solver, a: Lit, b: Lit) -> Lit {
        let t = self.true_lit(solver);
        if a == t {
            return !b;
        }
        if b == t {
            return !a;
        }
        if a == !t {
            return b;
        }
        if b == !t {
            return a;
        }
        if a == b {
            return !t;
        }
        if a == !b {
            return t;
        }
        let value = solver.phase_value(a) != solver.phase_value(b);
        let out = Lit::positive(solver.new_var());
        solver.set_phase(out.var(), value);
        solver.add_clause([!out, a, b]);
        solver.add_clause([!out, !a, !b]);
        solver.add_clause([out, !a, b]);
        solver.add_clause([out, a, !b]);
        out
    }

    /// `out = if c { t } else { e }`.
    fn mux_gate(&mut self, solver: &mut Solver, c: Lit, t: Lit, e: Lit) -> Lit {
        let tl = self.true_lit(solver);
        if c == tl {
            return t;
        }
        if c == !tl {
            return e;
        }
        if t == e {
            return t;
        }
        let then_part = self.and_gate(solver, c, t);
        let else_part = self.and_gate(solver, !c, e);
        self.or_gate(solver, then_part, else_part)
    }

    /// Ripple-carry adder with carry-in; returns the sum bits.
    fn adder(&mut self, solver: &mut Solver, a: &[Lit], b: &[Lit], cin: Lit) -> Vec<Lit> {
        let mut carry = cin;
        let mut sum = Vec::with_capacity(a.len());
        for (x, y) in a.iter().zip(b) {
            let xy = self.xor_gate(solver, *x, *y);
            sum.push(self.xor_gate(solver, xy, carry));
            // carry' = (x ∧ y) ∨ (carry ∧ (x ⊕ y))
            let and_xy = self.and_gate(solver, *x, *y);
            let and_c = self.and_gate(solver, carry, xy);
            carry = self.or_gate(solver, and_xy, and_c);
        }
        sum
    }

    /// Shift-and-add multiplier (low half).
    fn multiplier(&mut self, solver: &mut Solver, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        let width = a.len();
        let f = self.false_lit(solver);
        let mut acc = vec![f; width];
        for (i, &ai) in a.iter().enumerate() {
            // Partial product: (b << i) masked by a_i.
            let mut partial = vec![f; width];
            for j in i..width {
                partial[j] = self.and_gate(solver, ai, b[j - i]);
            }
            acc = self.adder(solver, &acc, &partial, f);
        }
        acc
    }

    /// Unsigned less-than over raw bit vectors.
    fn less_than(&mut self, solver: &mut Solver, a: &[Lit], b: &[Lit]) -> Lit {
        let mut lt = self.false_lit(solver);
        for (x, y) in a.iter().zip(b) {
            // lt' = (¬x ∧ y) ∨ ((x ≡ y) ∧ lt)
            let strictly = self.and_gate(solver, !*x, *y);
            let diff = self.xor_gate(solver, *x, *y);
            let carried = self.and_gate(solver, !diff, lt);
            lt = self.or_gate(solver, strictly, carried);
        }
        lt
    }

    /// Barrel shifter covering the full shift-amount range.
    fn shifter(
        &mut self,
        ctx: &Context,
        solver: &mut Solver,
        a: TermId,
        amount: TermId,
        kind: ShiftKind,
    ) -> Vec<Lit> {
        let bits = self.bits(ctx, solver, a);
        let shamt = self.bits(ctx, solver, amount);
        let width = bits.len();
        let f = self.false_lit(solver);
        let mut current = bits;
        for (k, &sk) in shamt.iter().enumerate() {
            let step = 1u128 << k.min(127);
            let shifted: Vec<Lit> = if step >= width as u128 {
                match kind {
                    ShiftKind::Left | ShiftKind::LogicalRight => vec![f; width],
                    ShiftKind::ArithmeticRight => {
                        vec![current[width - 1]; width]
                    }
                }
            } else {
                let step = step as usize;
                (0..width)
                    .map(|i| match kind {
                        ShiftKind::Left => {
                            if i >= step {
                                current[i - step]
                            } else {
                                f
                            }
                        }
                        ShiftKind::LogicalRight => {
                            if i + step < width {
                                current[i + step]
                            } else {
                                f
                            }
                        }
                        ShiftKind::ArithmeticRight => {
                            if i + step < width {
                                current[i + step]
                            } else {
                                current[width - 1]
                            }
                        }
                    })
                    .collect()
            };
            current = current
                .iter()
                .zip(&shifted)
                .map(|(keep, shift)| self.mux_gate(solver, sk, *shift, *keep))
                .collect();
        }
        current
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShiftKind {
    Left,
    LogicalRight,
    ArithmeticRight,
}

#[cfg(test)]
mod tests {
    use super::*;
    use symcosim_sat::SolveResult;

    fn check_sat(ctx: &mut Context, cond: TermId) -> bool {
        let mut solver = Solver::new();
        let mut blaster = Blaster::new();
        let lit = blaster.bool_lit(ctx, &mut solver, cond);
        solver.solve(&[lit]) == SolveResult::Sat
    }

    #[test]
    fn addition_inverts() {
        // exists x: x + 3 == 10 (yes), forall-free check of unsat: x + 1 == x (no)
        let mut ctx = Context::new();
        let x = ctx.symbol(8, "x");
        let three = ctx.constant(8, 3);
        let ten = ctx.constant(8, 10);
        let sum = ctx.add(x, three);
        let cond = ctx.eq(sum, ten);
        assert!(check_sat(&mut ctx, cond));

        let one = ctx.constant(8, 1);
        let inc = ctx.add(x, one);
        let fixed = ctx.eq(inc, x);
        assert!(!check_sat(&mut ctx, fixed));
    }

    #[test]
    fn subtraction_matches_addition() {
        // x - y == 5 && y == 7 => x == 12: check the implication's negation is UNSAT.
        let mut ctx = Context::new();
        let x = ctx.symbol(8, "x");
        let y = ctx.symbol(8, "y");
        let diff = ctx.sub(x, y);
        let five = ctx.constant(8, 5);
        let seven = ctx.constant(8, 7);
        let twelve = ctx.constant(8, 12);
        let c1 = ctx.eq(diff, five);
        let c2 = ctx.eq(y, seven);
        let x_is_12 = ctx.eq(x, twelve);
        let not_12 = ctx.not(x_is_12);
        let both = ctx.and(c1, c2);
        let counterexample = ctx.and(both, not_12);
        assert!(!check_sat(&mut ctx, counterexample));
    }

    #[test]
    fn multiplication_factors() {
        // exists x,y > 1: x*y == 35 over 8 bits (x=5, y=7).
        let mut ctx = Context::new();
        let x = ctx.symbol(8, "x");
        let y = ctx.symbol(8, "y");
        let product = ctx.mul(x, y);
        let c35 = ctx.constant(8, 35);
        let one = ctx.constant(8, 1);
        let is35 = ctx.eq(product, c35);
        let x_gt1 = ctx.ult(one, x);
        let y_gt1 = ctx.ult(one, y);
        let t1 = ctx.and(is35, x_gt1);
        let cond = ctx.and(t1, y_gt1);

        let mut solver = Solver::new();
        let mut blaster = Blaster::new();
        let lit = blaster.bool_lit(&ctx, &mut solver, cond);
        assert_eq!(solver.solve(&[lit]), SolveResult::Sat);
        let x_bits = blaster.bits(&ctx, &mut solver, x);
        let x_val: u64 = x_bits
            .iter()
            .enumerate()
            .map(|(i, l)| (solver.model_lit_value(*l).unwrap_or(false) as u64) << i)
            .sum();
        let y_bits = blaster.bits(&ctx, &mut solver, y);
        let y_val: u64 = y_bits
            .iter()
            .enumerate()
            .map(|(i, l)| (solver.model_lit_value(*l).unwrap_or(false) as u64) << i)
            .sum();
        assert_eq!((x_val * y_val) & 0xff, 35);
        assert!(x_val > 1 && y_val > 1);
    }

    #[test]
    fn shifts_against_semantics() {
        // exists x: (x << 2) == 0b100 and x == 1; and shifting by >= width zeroes.
        let mut ctx = Context::new();
        let x = ctx.symbol(8, "x");
        let s = ctx.symbol(8, "s");
        let shifted = ctx.shl(x, s);
        let eight = ctx.constant(8, 8);
        let nonzero = {
            let zero = ctx.constant(8, 0);
            ctx.ne(shifted, zero)
        };
        let s_ge_8 = ctx.ule(eight, s);
        let cond = ctx.and(nonzero, s_ge_8);
        assert!(
            !check_sat(&mut ctx, cond),
            "shift ≥ width must produce zero"
        );
    }

    #[test]
    fn arithmetic_shift_keeps_sign() {
        // For x with MSB set, (x ashr 200) must be 0xff.
        let mut ctx = Context::new();
        let x = ctx.symbol(8, "x");
        let s = ctx.symbol(8, "s");
        let shifted = ctx.ashr(x, s);
        let c80 = ctx.constant(8, 0x80);
        let cff = ctx.constant(8, 0xff);
        let c8 = ctx.constant(8, 8);
        let msb_set = {
            let masked = ctx.and(x, c80);
            ctx.eq(masked, c80)
        };
        let wide = ctx.ule(c8, s);
        let not_all_ones = ctx.ne(shifted, cff);
        let t1 = ctx.and(msb_set, wide);
        let cond = ctx.and(t1, not_all_ones);
        assert!(!check_sat(&mut ctx, cond));
    }

    #[test]
    fn signed_unsigned_compare_disagree_on_negatives() {
        // exists x: slt(x, 0) && !ult(x, 0)  — all negative x (ult _ 0 is false).
        let mut ctx = Context::new();
        let x = ctx.symbol(8, "x");
        let zero = ctx.constant(8, 0);
        let slt = ctx.slt(x, zero);
        let ult = ctx.ult(x, zero);
        let not_ult = ctx.not(ult);
        let cond = ctx.and(slt, not_ult);
        assert!(check_sat(&mut ctx, cond));
    }

    #[test]
    fn ite_selects() {
        let mut ctx = Context::new();
        let c = ctx.symbol(1, "c");
        let a = ctx.constant(8, 11);
        let b = ctx.constant(8, 22);
        let sel = ctx.ite(c, a, b);
        let c33 = ctx.constant(8, 33);
        let bad = ctx.eq(sel, c33);
        assert!(!check_sat(&mut ctx, bad));
        let good = ctx.eq(sel, a);
        assert!(check_sat(&mut ctx, good));
    }

    #[test]
    fn extract_concat_extend() {
        // sign_ext(extract(x, 7, 0), 16) == 0xFFxx exactly when bit 7 is set.
        let mut ctx = Context::new();
        let x = ctx.symbol(16, "x");
        let byte = ctx.extract(x, 7, 0);
        let wide = ctx.sign_ext(byte, 16);
        let hi = ctx.extract(wide, 15, 8);
        let cff = ctx.constant(8, 0xff);
        let high_ones = ctx.eq(hi, cff);
        let bit7 = ctx.extract(x, 7, 7);
        let one1 = ctx.constant(1, 1);
        let msb_set = ctx.eq(bit7, one1);
        // (high_ones XOR msb_set) must be UNSAT.
        let disagree = ctx.xor(high_ones, msb_set);
        assert!(!check_sat(&mut ctx, disagree));
    }
}
