//! The hash-consing term context and its simplifying constructors.

use std::collections::HashMap;

use crate::term::{Node, TermId, Width};

/// Masks `value` to `width` bits.
#[inline]
pub(crate) fn mask(width: Width, value: u64) -> u64 {
    if width >= 64 {
        value
    } else {
        value & ((1u64 << width) - 1)
    }
}

/// Sign-extends a `width`-bit value to i64.
#[inline]
pub(crate) fn to_signed(width: Width, value: u64) -> i64 {
    let shift = 64 - width;
    ((value << shift) as i64) >> shift
}

/// A hash-consed bit-vector term graph.
///
/// All terms are created through the simplifying constructors on this type;
/// structurally identical terms share one [`TermId`]. Constant folding and
/// a set of algebraic rewrites run eagerly, so purely concrete computations
/// never grow the graph beyond their constant results — this is what makes
/// the symbolic interpreters cheap on concrete inputs.
///
/// # Example
///
/// ```
/// use symcosim_symex::Context;
///
/// let mut ctx = Context::new();
/// let a = ctx.constant(32, 40);
/// let b = ctx.constant(32, 2);
/// let sum = ctx.add(a, b);
/// assert_eq!(ctx.const_value(sum), Some(42));
/// ```
#[derive(Debug, Default)]
pub struct Context {
    nodes: Vec<Node>,
    widths: Vec<Width>,
    interned: HashMap<Node, TermId>,
    symbol_names: Vec<String>,
    symbol_lookup: HashMap<String, u32>,
    symbols: Vec<TermId>,
}

impl Context {
    /// Creates an empty context.
    pub fn new() -> Context {
        Context::default()
    }

    /// Number of interned nodes (a proxy for memory use).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The node behind a handle.
    ///
    /// # Panics
    ///
    /// Panics if `term` belongs to another context.
    #[inline]
    pub fn node(&self, term: TermId) -> Node {
        self.nodes[term.index()]
    }

    /// The width of a term in bits.
    #[inline]
    pub fn width(&self, term: TermId) -> Width {
        self.widths[term.index()]
    }

    /// The value of a constant term, `None` for non-constants.
    #[inline]
    pub fn const_value(&self, term: TermId) -> Option<u64> {
        match self.node(term) {
            Node::Const { value, .. } => Some(value),
            _ => None,
        }
    }

    /// The name of a symbol term, `None` for non-symbols.
    pub fn symbol_name(&self, term: TermId) -> Option<&str> {
        match self.node(term) {
            Node::Symbol { name, .. } => Some(&self.symbol_names[name as usize]),
            _ => None,
        }
    }

    /// All symbols created so far, in creation order.
    pub fn symbols(&self) -> &[TermId] {
        &self.symbols
    }

    fn intern(&mut self, node: Node, width: Width) -> TermId {
        if let Some(&id) = self.interned.get(&node) {
            return id;
        }
        let id = TermId(self.nodes.len() as u32);
        self.nodes.push(node);
        self.widths.push(width);
        self.interned.insert(node, id);
        id
    }

    /// Creates a constant of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64.
    pub fn constant(&mut self, width: Width, value: u64) -> TermId {
        assert!((1..=64).contains(&width), "unsupported width {width}");
        let value = mask(width, value);
        self.intern(Node::Const { width, value }, width)
    }

    /// The width-1 constant representing `true`.
    pub fn bool_const(&mut self, value: bool) -> TermId {
        self.constant(1, value as u64)
    }

    /// Creates (or retrieves) the symbolic input with the given name.
    ///
    /// Names identify inputs: asking twice for the same name returns the
    /// same term.
    ///
    /// # Panics
    ///
    /// Panics if the name already exists with a different width, or if
    /// `width` is 0 or greater than 64.
    pub fn symbol(&mut self, width: Width, name: &str) -> TermId {
        assert!((1..=64).contains(&width), "unsupported width {width}");
        if let Some(&idx) = self.symbol_lookup.get(name) {
            let node = Node::Symbol { width, name: idx };
            let existing = *self
                .interned
                .get(&node)
                .unwrap_or_else(|| panic!("symbol {name:?} already exists with a different width"));
            return existing;
        }
        let idx = self.symbol_names.len() as u32;
        self.symbol_names.push(name.to_string());
        self.symbol_lookup.insert(name.to_string(), idx);
        let id = self.intern(Node::Symbol { width, name: idx }, width);
        self.symbols.push(id);
        id
    }

    fn binary_widths(&self, a: TermId, b: TermId) -> Width {
        let (wa, wb) = (self.width(a), self.width(b));
        assert_eq!(wa, wb, "operand width mismatch: {wa} vs {wb}");
        wa
    }

    /// Bitwise NOT.
    pub fn not(&mut self, a: TermId) -> TermId {
        let width = self.width(a);
        match self.node(a) {
            Node::Const { value, .. } => self.constant(width, !value),
            Node::Not(inner) => inner,
            _ => self.intern(Node::Not(a), width),
        }
    }

    /// Bitwise AND.
    pub fn and(&mut self, a: TermId, b: TermId) -> TermId {
        let width = self.binary_widths(a, b);
        let ones = mask(width, u64::MAX);
        match (self.const_value(a), self.const_value(b)) {
            (Some(x), Some(y)) => self.constant(width, x & y),
            (Some(0), _) | (_, Some(0)) => self.constant(width, 0),
            (Some(x), _) if x == ones => b,
            (_, Some(y)) if y == ones => a,
            _ if a == b => a,
            _ => {
                let (a, b) = if a <= b { (a, b) } else { (b, a) };
                self.intern(Node::And(a, b), width)
            }
        }
    }

    /// Bitwise OR.
    pub fn or(&mut self, a: TermId, b: TermId) -> TermId {
        let width = self.binary_widths(a, b);
        let ones = mask(width, u64::MAX);
        match (self.const_value(a), self.const_value(b)) {
            (Some(x), Some(y)) => self.constant(width, x | y),
            (Some(0), _) => b,
            (_, Some(0)) => a,
            (Some(x), _) if x == ones => self.constant(width, ones),
            (_, Some(y)) if y == ones => self.constant(width, ones),
            _ if a == b => a,
            _ => {
                let (a, b) = if a <= b { (a, b) } else { (b, a) };
                self.intern(Node::Or(a, b), width)
            }
        }
    }

    /// Bitwise XOR.
    pub fn xor(&mut self, a: TermId, b: TermId) -> TermId {
        let width = self.binary_widths(a, b);
        match (self.const_value(a), self.const_value(b)) {
            (Some(x), Some(y)) => self.constant(width, x ^ y),
            (Some(0), _) => b,
            (_, Some(0)) => a,
            _ if a == b => self.constant(width, 0),
            _ => {
                let (a, b) = if a <= b { (a, b) } else { (b, a) };
                self.intern(Node::Xor(a, b), width)
            }
        }
    }

    /// Wrapping addition.
    pub fn add(&mut self, a: TermId, b: TermId) -> TermId {
        let width = self.binary_widths(a, b);
        match (self.const_value(a), self.const_value(b)) {
            (Some(x), Some(y)) => self.constant(width, x.wrapping_add(y)),
            (Some(0), _) => b,
            (_, Some(0)) => a,
            _ => {
                let (a, b) = if a <= b { (a, b) } else { (b, a) };
                self.intern(Node::Add(a, b), width)
            }
        }
    }

    /// Wrapping subtraction.
    pub fn sub(&mut self, a: TermId, b: TermId) -> TermId {
        let width = self.binary_widths(a, b);
        match (self.const_value(a), self.const_value(b)) {
            (Some(x), Some(y)) => self.constant(width, x.wrapping_sub(y)),
            (_, Some(0)) => a,
            _ if a == b => self.constant(width, 0),
            _ => self.intern(Node::Sub(a, b), width),
        }
    }

    /// Wrapping multiplication (low half).
    pub fn mul(&mut self, a: TermId, b: TermId) -> TermId {
        let width = self.binary_widths(a, b);
        match (self.const_value(a), self.const_value(b)) {
            (Some(x), Some(y)) => self.constant(width, x.wrapping_mul(y)),
            (Some(0), _) | (_, Some(0)) => self.constant(width, 0),
            (Some(1), _) => b,
            (_, Some(1)) => a,
            _ => {
                let (a, b) = if a <= b { (a, b) } else { (b, a) };
                self.intern(Node::Mul(a, b), width)
            }
        }
    }

    /// Logical shift left. Shift amounts ≥ width produce zero.
    pub fn shl(&mut self, a: TermId, amount: TermId) -> TermId {
        let width = self.binary_widths(a, amount);
        match (self.const_value(a), self.const_value(amount)) {
            (Some(x), Some(s)) => {
                let v = if s >= width as u64 { 0 } else { x << s };
                self.constant(width, v)
            }
            (_, Some(0)) => a,
            (_, Some(s)) if s >= width as u64 => self.constant(width, 0),
            (Some(0), _) => a,
            _ => self.intern(Node::Shl(a, amount), width),
        }
    }

    /// Logical shift right. Shift amounts ≥ width produce zero.
    pub fn lshr(&mut self, a: TermId, amount: TermId) -> TermId {
        let width = self.binary_widths(a, amount);
        match (self.const_value(a), self.const_value(amount)) {
            (Some(x), Some(s)) => {
                let v = if s >= width as u64 { 0 } else { x >> s };
                self.constant(width, v)
            }
            (_, Some(0)) => a,
            (_, Some(s)) if s >= width as u64 => self.constant(width, 0),
            (Some(0), _) => a,
            _ => self.intern(Node::Lshr(a, amount), width),
        }
    }

    /// Arithmetic shift right. Shift amounts ≥ width replicate the sign.
    pub fn ashr(&mut self, a: TermId, amount: TermId) -> TermId {
        let width = self.binary_widths(a, amount);
        match (self.const_value(a), self.const_value(amount)) {
            (Some(x), Some(s)) => {
                let signed = to_signed(width, x);
                let shift = s.min(width as u64 - 1) as u32;
                self.constant(width, (signed >> shift) as u64)
            }
            (_, Some(0)) => a,
            (Some(0), _) => a,
            _ => self.intern(Node::Ashr(a, amount), width),
        }
    }

    /// Equality test (width-1 result).
    pub fn eq(&mut self, a: TermId, b: TermId) -> TermId {
        self.binary_widths(a, b);
        match (self.const_value(a), self.const_value(b)) {
            (Some(x), Some(y)) => self.bool_const(x == y),
            _ if a == b => self.bool_const(true),
            _ => {
                let (a, b) = if a <= b { (a, b) } else { (b, a) };
                self.intern(Node::Eq(a, b), 1)
            }
        }
    }

    /// Unsigned less-than (width-1 result).
    pub fn ult(&mut self, a: TermId, b: TermId) -> TermId {
        self.binary_widths(a, b);
        match (self.const_value(a), self.const_value(b)) {
            (Some(x), Some(y)) => self.bool_const(x < y),
            (_, Some(0)) => self.bool_const(false),
            _ if a == b => self.bool_const(false),
            _ => self.intern(Node::Ult(a, b), 1),
        }
    }

    /// Signed less-than (width-1 result).
    pub fn slt(&mut self, a: TermId, b: TermId) -> TermId {
        let width = self.binary_widths(a, b);
        match (self.const_value(a), self.const_value(b)) {
            (Some(x), Some(y)) => self.bool_const(to_signed(width, x) < to_signed(width, y)),
            _ if a == b => self.bool_const(false),
            _ => self.intern(Node::Slt(a, b), 1),
        }
    }

    /// If-then-else over equal-width branches; `cond` must have width 1.
    ///
    /// # Panics
    ///
    /// Panics if `cond` is not width 1 or the branches differ in width.
    pub fn ite(&mut self, cond: TermId, then_branch: TermId, else_branch: TermId) -> TermId {
        assert_eq!(self.width(cond), 1, "ite condition must have width 1");
        let width = self.binary_widths(then_branch, else_branch);
        match self.const_value(cond) {
            Some(1) => then_branch,
            Some(_) => else_branch,
            None if then_branch == else_branch => then_branch,
            None => self.intern(Node::Ite(cond, then_branch, else_branch), width),
        }
    }

    /// Extracts bits `[hi:lo]` inclusive.
    ///
    /// # Panics
    ///
    /// Panics unless `lo <= hi < width(term)`.
    pub fn extract(&mut self, term: TermId, hi: u32, lo: u32) -> TermId {
        let source_width = self.width(term);
        assert!(
            lo <= hi && hi < source_width,
            "extract [{hi}:{lo}] out of range"
        );
        let width = hi - lo + 1;
        if lo == 0 && width == source_width {
            return term;
        }
        match self.node(term) {
            Node::Const { value, .. } => self.constant(width, value >> lo),
            _ => self.intern(Node::Extract { term, hi, lo }, width),
        }
    }

    /// Concatenates two terms (`hi` becomes the most significant part).
    ///
    /// # Panics
    ///
    /// Panics if the combined width exceeds 64 bits.
    pub fn concat(&mut self, hi: TermId, lo: TermId) -> TermId {
        let width = self.width(hi) + self.width(lo);
        assert!(width <= 64, "concat width {width} exceeds 64");
        let lo_width = self.width(lo);
        match (self.const_value(hi), self.const_value(lo)) {
            (Some(h), Some(l)) => self.constant(width, (h << lo_width) | l),
            _ => self.intern(Node::Concat { hi, lo }, width),
        }
    }

    /// Zero-extends to `width`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is smaller than the term's width or exceeds 64.
    pub fn zero_ext(&mut self, term: TermId, width: Width) -> TermId {
        let source_width = self.width(term);
        assert!(
            width >= source_width && width <= 64,
            "bad zero_ext target {width}"
        );
        if width == source_width {
            return term;
        }
        match self.node(term) {
            Node::Const { value, .. } => self.constant(width, value),
            _ => self.intern(Node::ZeroExt { term, width }, width),
        }
    }

    /// Sign-extends to `width`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is smaller than the term's width or exceeds 64.
    pub fn sign_ext(&mut self, term: TermId, width: Width) -> TermId {
        let source_width = self.width(term);
        assert!(
            width >= source_width && width <= 64,
            "bad sign_ext target {width}"
        );
        if width == source_width {
            return term;
        }
        match self.node(term) {
            Node::Const { value, .. } => {
                let extended = to_signed(source_width, value) as u64;
                self.constant(width, extended)
            }
            _ => self.intern(Node::SignExt { term, width }, width),
        }
    }

    /// Builds `node` through the simplifying constructor of its kind (a
    /// symbol must already exist).
    pub(crate) fn make(&mut self, node: Node) -> TermId {
        match node {
            Node::Const { width, value } => self.constant(width, value),
            Node::Symbol { width, .. } => self.intern(node, width),
            Node::Not(a) => self.not(a),
            Node::And(a, b) => self.and(a, b),
            Node::Or(a, b) => self.or(a, b),
            Node::Xor(a, b) => self.xor(a, b),
            Node::Add(a, b) => self.add(a, b),
            Node::Sub(a, b) => self.sub(a, b),
            Node::Mul(a, b) => self.mul(a, b),
            Node::Shl(a, b) => self.shl(a, b),
            Node::Lshr(a, b) => self.lshr(a, b),
            Node::Ashr(a, b) => self.ashr(a, b),
            Node::Eq(a, b) => self.eq(a, b),
            Node::Ult(a, b) => self.ult(a, b),
            Node::Slt(a, b) => self.slt(a, b),
            Node::Ite(c, a, b) => self.ite(c, a, b),
            Node::Extract { term, hi, lo } => self.extract(term, hi, lo),
            Node::Concat { hi, lo } => self.concat(hi, lo),
            Node::ZeroExt { term, width } => self.zero_ext(term, width),
            Node::SignExt { term, width } => self.sign_ext(term, width),
        }
    }

    /// Boolean negation (width-1 terms).
    pub fn not_bool(&mut self, a: TermId) -> TermId {
        assert_eq!(self.width(a), 1, "not_bool needs a width-1 term");
        self.not(a)
    }

    /// Not-equal, as `not(eq(a, b))`.
    pub fn ne(&mut self, a: TermId, b: TermId) -> TermId {
        let eq = self.eq(a, b);
        self.not(eq)
    }

    /// Unsigned less-or-equal.
    pub fn ule(&mut self, a: TermId, b: TermId) -> TermId {
        let gt = self.ult(b, a);
        self.not(gt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_shares_nodes() {
        let mut ctx = Context::new();
        let x = ctx.symbol(32, "x");
        let y = ctx.symbol(32, "y");
        let a = ctx.add(x, y);
        let b = ctx.add(x, y);
        assert_eq!(a, b);
        // Commutative ops canonicalise operand order.
        let c = ctx.add(y, x);
        assert_eq!(a, c);
    }

    #[test]
    fn constant_folding_through_all_ops() {
        let mut ctx = Context::new();
        let a = ctx.constant(32, 0xffff_0000);
        let b = ctx.constant(32, 0x0000_ffff);
        let and = ctx.and(a, b);
        assert_eq!(ctx.const_value(and), Some(0));
        let or = ctx.or(a, b);
        assert_eq!(ctx.const_value(or), Some(0xffff_ffff));
        let add = ctx.add(a, b);
        assert_eq!(ctx.const_value(add), Some(0xffff_ffff));
        let sub = ctx.sub(b, b);
        assert_eq!(ctx.const_value(sub), Some(0));
        let shl = {
            let amount = ctx.constant(32, 4);
            ctx.shl(b, amount)
        };
        assert_eq!(ctx.const_value(shl), Some(0x000f_fff0));
    }

    #[test]
    fn arithmetic_wraps_at_width() {
        let mut ctx = Context::new();
        let max = ctx.constant(8, 0xff);
        let one = ctx.constant(8, 1);
        let sum = ctx.add(max, one);
        assert_eq!(ctx.const_value(sum), Some(0));
        let product = ctx.mul(max, max);
        assert_eq!(ctx.const_value(product), Some(0x01)); // 255·255 = 0xFE01
    }

    #[test]
    fn ashr_replicates_sign_for_wide_shifts() {
        let mut ctx = Context::new();
        let neg = ctx.constant(8, 0x80);
        let wide = ctx.constant(8, 200);
        let shifted = ctx.ashr(neg, wide);
        assert_eq!(ctx.const_value(shifted), Some(0xff));
        let pos = ctx.constant(8, 0x40);
        let shifted = ctx.ashr(pos, wide);
        assert_eq!(ctx.const_value(shifted), Some(0));
    }

    #[test]
    fn identities_do_not_allocate() {
        let mut ctx = Context::new();
        let x = ctx.symbol(32, "x");
        let zero = ctx.constant(32, 0);
        let ones = ctx.constant(32, u32::MAX as u64);
        assert_eq!(ctx.add(x, zero), x);
        assert_eq!(ctx.and(x, ones), x);
        assert_eq!(ctx.and(x, zero), zero);
        assert_eq!(ctx.or(x, zero), x);
        assert_eq!(ctx.xor(x, zero), x);
        let xor_self = ctx.xor(x, x);
        assert_eq!(ctx.const_value(xor_self), Some(0));
        let eq_self = ctx.eq(x, x);
        assert_eq!(ctx.const_value(eq_self), Some(1));
        let double_not = {
            let n = ctx.not(x);
            ctx.not(n)
        };
        assert_eq!(double_not, x);
    }

    #[test]
    fn ite_simplifies() {
        let mut ctx = Context::new();
        let x = ctx.symbol(32, "x");
        let y = ctx.symbol(32, "y");
        let t = ctx.bool_const(true);
        let f = ctx.bool_const(false);
        assert_eq!(ctx.ite(t, x, y), x);
        assert_eq!(ctx.ite(f, x, y), y);
        let c = ctx.symbol(1, "c");
        assert_eq!(ctx.ite(c, x, x), x);
    }

    #[test]
    fn extract_and_extend_fold_constants() {
        let mut ctx = Context::new();
        let value = ctx.constant(32, 0xdead_beef);
        let byte = ctx.extract(value, 15, 8);
        assert_eq!(ctx.const_value(byte), Some(0xbe));
        assert_eq!(ctx.width(byte), 8);
        let sext = ctx.sign_ext(byte, 32);
        assert_eq!(ctx.const_value(sext), Some(0xffff_ffbe));
        let zext = ctx.zero_ext(byte, 32);
        assert_eq!(ctx.const_value(zext), Some(0xbe));
        let back = ctx.extract(value, 31, 0);
        assert_eq!(back, value);
    }

    #[test]
    fn concat_folds_constants() {
        let mut ctx = Context::new();
        let hi = ctx.constant(16, 0xdead);
        let lo = ctx.constant(16, 0xbeef);
        let joined = ctx.concat(hi, lo);
        assert_eq!(ctx.const_value(joined), Some(0xdead_beef));
        assert_eq!(ctx.width(joined), 32);
    }

    #[test]
    fn symbols_are_stable_by_name() {
        let mut ctx = Context::new();
        let a = ctx.symbol(32, "input");
        let b = ctx.symbol(32, "input");
        assert_eq!(a, b);
        assert_eq!(ctx.symbol_name(a), Some("input"));
        assert_eq!(ctx.symbols(), &[a]);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_is_rejected() {
        let mut ctx = Context::new();
        let a = ctx.constant(32, 1);
        let b = ctx.constant(16, 1);
        ctx.add(a, b);
    }

    #[test]
    fn signed_compare_folds_correctly() {
        let mut ctx = Context::new();
        let minus_one = ctx.constant(32, 0xffff_ffff);
        let one = ctx.constant(32, 1);
        let slt = ctx.slt(minus_one, one);
        assert_eq!(ctx.const_value(slt), Some(1));
        let ult = ctx.ult(minus_one, one);
        assert_eq!(ctx.const_value(ult), Some(0));
    }
}
