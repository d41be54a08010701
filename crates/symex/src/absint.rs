//! Abstract interpretation over the term graph: known bits, unsigned
//! intervals and cone-of-influence symbol supports.
//!
//! Three abstract domains are computed per node, in one pass:
//!
//! 1. **Known bits** — a ternary 0/1/X lattice in the same `(mask, value)`
//!    cube form as `isa::pattern`'s decode cubes (a bit is known iff its
//!    `mask` bit is set, and then equals the `value` bit), so results
//!    compose directly with the coverage projector's cube algebra.
//! 2. **Unsigned intervals** — `[lo, hi]` bounds over the masked value.
//! 3. **Support** — the sorted set of input symbols the node depends on
//!    (its cone of influence), shared via `Rc` like the solver chain's
//!    symbol-support memo.
//!
//! All three are *sound over-approximations*: for every environment, the
//! concrete value of a node ([`eval`](crate::eval::eval)) lies inside its
//! known-bits cube and its interval, and depends only on its support
//! symbols. The differential fuzz suite pins this against the SAT core.
//!
//! Facts are memoised densely against the hash-consed arena (indexed by
//! [`TermId::index`]); the arena is append-only, so entries never go
//! stale. A generation watermark invalidates the memo defensively if the
//! analysis is pointed at a different (smaller) context.
//!
//! `PathFacts` is the path engine's client: it absorbs a growing path
//! condition into a *forced environment* one conjunct at a time, and
//! answers a new branch condition the path already decides from that
//! condition's cone alone — without any solver state.

use std::collections::HashMap;
use std::rc::Rc;

use crate::context::{mask, to_signed};
use crate::term::{Node, TermId, Width};
use crate::Context;

/// A ternary known-bits cube: bit `i` is known iff `mask` bit `i` is set,
/// and then equals `value` bit `i`. Unknown positions have `value` bit 0.
///
/// For a term of width `w`, bits at and above `w` are always known zero
/// (the term representation masks them), so `mask` has them set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KnownBits {
    /// Which bits are known.
    pub mask: u64,
    /// The values of the known bits (zero at unknown positions).
    pub value: u64,
}

impl KnownBits {
    /// Every bit of `width` unknown.
    #[must_use]
    pub fn top(width: Width) -> KnownBits {
        KnownBits {
            mask: !mask(width, !0),
            value: 0,
        }
    }

    /// All bits known, equal to `value` (masked to `width`).
    #[must_use]
    pub fn exact(width: Width, value: u64) -> KnownBits {
        KnownBits {
            mask: !0,
            value: mask(width, value),
        }
    }

    /// Whether the concrete value `v` is inside this cube.
    #[must_use]
    pub fn contains(self, v: u64) -> bool {
        v & self.mask == self.value
    }

    /// The single concrete value, when every bit is known.
    #[must_use]
    pub fn as_const(self) -> Option<u64> {
        (self.mask == !0).then_some(self.value)
    }

    /// Smallest value inside the cube (all unknown bits zero).
    #[must_use]
    pub fn min(self) -> u64 {
        self.value
    }

    /// Largest value inside the cube (all unknown bits one).
    #[must_use]
    pub fn max(self) -> u64 {
        self.value | !self.mask
    }

    /// Restores the representation invariant after a transfer function:
    /// bits at and above `width` are known zero, and unknown positions
    /// carry value zero.
    fn clamp(self, width: Width) -> KnownBits {
        let low = mask(width, !0);
        let mask_bits = self.mask | !low;
        KnownBits {
            mask: mask_bits,
            value: self.value & low & mask_bits,
        }
    }
}

/// The abstract value of one term: known bits, an unsigned interval and
/// the cone-of-influence symbol support.
#[derive(Debug, Clone)]
pub struct Fact {
    /// Known-bits cube.
    pub bits: KnownBits,
    /// Smallest possible (masked) value.
    pub lo: u64,
    /// Largest possible (masked) value.
    pub hi: u64,
    /// Sorted, deduplicated input symbols the term depends on.
    pub support: Rc<Vec<TermId>>,
}

impl Fact {
    /// Whether the concrete value `v` is consistent with this fact.
    #[must_use]
    pub fn contains(&self, v: u64) -> bool {
        self.bits.contains(v) && self.lo <= v && v <= self.hi
    }

    /// The single concrete value, when the fact pins one.
    #[must_use]
    pub fn as_const(&self) -> Option<u64> {
        if let Some(v) = self.bits.as_const() {
            return Some(v);
        }
        (self.lo == self.hi).then_some(self.lo)
    }

    fn exact(width: Width, value: u64, support: Rc<Vec<TermId>>) -> Fact {
        let value = mask(width, value);
        Fact {
            bits: KnownBits::exact(width, value),
            lo: value,
            hi: value,
            support,
        }
    }

    fn top(width: Width, support: Rc<Vec<TermId>>) -> Fact {
        Fact {
            bits: KnownBits::top(width),
            lo: 0,
            hi: mask(width, !0),
            support,
        }
    }

    /// Intersects the two domains with each other: the interval tightens
    /// to the cube's min/max, and the common high-bit prefix of
    /// `[lo, hi]` pins those bits in the cube. Both directions preserve
    /// soundness: any concrete value satisfying both input domains
    /// satisfies both refined ones. The guard keeps a (vacuously sound)
    /// contradictory fact — possible only under a conflicting forced
    /// environment — from being "refined" into an arbitrary constant.
    fn refine(mut self, width: Width) -> Fact {
        let lo = self.lo.max(self.bits.min());
        let hi = self.hi.min(self.bits.max() & mask(width, !0));
        if lo > hi {
            return self;
        }
        self.lo = lo;
        self.hi = hi;
        let diff = self.lo ^ self.hi;
        let common = if diff == 0 {
            !0u64
        } else {
            !(u64::MAX >> diff.leading_zeros())
        };
        let merged = KnownBits {
            mask: self.bits.mask | common,
            value: self.bits.value | (self.lo & common & !self.bits.mask),
        }
        .clamp(width);
        if merged.contains(self.lo) || merged.contains(self.hi) {
            self.bits = merged;
        }
        self
    }
}

/// The analysis: a dense per-term fact memo over one hash-consed arena.
#[derive(Debug, Default)]
pub struct AbsInt {
    /// Facts indexed by [`TermId::index`]. The arena is append-only, so
    /// entries never go stale within one context.
    facts: Vec<Option<Fact>>,
    /// Arena size last seen; a *shrink* means a different context, which
    /// invalidates every memoised fact (generation invalidation).
    watermark: usize,
}

impl AbsInt {
    /// An empty analysis.
    #[must_use]
    pub fn new() -> AbsInt {
        AbsInt::default()
    }

    /// The abstract value of `term`, memoised.
    pub fn fact(&mut self, ctx: &Context, term: TermId) -> Fact {
        self.sync(ctx);
        self.fact_rec(ctx, term)
    }

    /// The sorted cone-of-influence symbol support of `term`.
    pub fn support(&mut self, ctx: &Context, term: TermId) -> Rc<Vec<TermId>> {
        Rc::clone(&self.fact(ctx, term).support)
    }

    /// Whether the width-1 `term` is statically forced to a constant.
    pub fn const_bool(&mut self, ctx: &Context, term: TermId) -> Option<bool> {
        self.fact(ctx, term).as_const().map(|v| v & 1 == 1)
    }

    /// Sizes the memo to `ctx`'s arena; `true` when it had to drop every
    /// fact because `ctx` is a different context.
    fn sync(&mut self, ctx: &Context) -> bool {
        let nodes = ctx.num_nodes();
        let stale = nodes < self.watermark;
        if stale {
            // A smaller arena cannot be the one the memo was built
            // against: drop every fact.
            self.facts.clear();
        }
        self.watermark = nodes;
        if self.facts.len() < nodes {
            self.facts.resize(nodes, None);
        }
        stale
    }

    fn fact_rec(&mut self, ctx: &Context, term: TermId) -> Fact {
        if let Some(fact) = &self.facts[term.index()] {
            return fact.clone();
        }
        let fact = self.transfer(ctx, term, None, &mut HashMap::new());
        self.facts[term.index()] = Some(fact.clone());
        fact
    }

    /// [`fact`](Self::fact) under a forced environment: `forced` maps
    /// terms to exact values assumed to hold. Results touched by forcing
    /// are memoised in `scratch` (they must not poison the shared memo);
    /// subgraphs whose support is disjoint from every forced term's
    /// support fall back to the shared memo.
    fn fact_forced(
        &mut self,
        ctx: &Context,
        term: TermId,
        forced: &Forced,
        scratch: &mut HashMap<TermId, Fact>,
    ) -> Fact {
        if let Some(&value) = forced.values.get(&term) {
            let support = Rc::clone(&self.fact_rec(ctx, term).support);
            return Fact::exact(ctx.width(term), value, support);
        }
        if let Some(fact) = scratch.get(&term) {
            return fact.clone();
        }
        // A term whose cone is disjoint from every forced cone cannot be
        // affected by the forcing: reuse the shared memo.
        let support = Rc::clone(&self.fact_rec(ctx, term).support);
        if !intersects(&support, &forced.support) {
            return self.fact_rec(ctx, term);
        }
        let fact = self.transfer(ctx, term, Some(forced), scratch);
        scratch.insert(term, fact.clone());
        fact
    }

    /// One transfer step: computes the fact of `term` from its children's
    /// facts (forced or shared, see the callers).
    #[allow(clippy::too_many_lines)]
    fn transfer(
        &mut self,
        ctx: &Context,
        term: TermId,
        forced: Option<&Forced>,
        scratch: &mut HashMap<TermId, Fact>,
    ) -> Fact {
        let mut child = |this: &mut Self, t: TermId| match forced {
            Some(f) => this.fact_forced(ctx, t, f, scratch),
            None => this.fact_rec(ctx, t),
        };
        let w = ctx.width(term);
        let wmask = mask(w, !0);
        let node = ctx.node(term);
        let fact = match node {
            Node::Const { value, .. } => Fact::exact(w, value, Rc::new(Vec::new())),
            Node::Symbol { .. } => Fact::top(w, Rc::new(vec![term])),
            Node::Not(a) => {
                let a = child(self, a);
                let bits = KnownBits {
                    mask: a.bits.mask,
                    value: !a.bits.value & a.bits.mask,
                }
                .clamp(w);
                Fact {
                    bits,
                    lo: wmask - a.hi,
                    hi: wmask - a.lo,
                    support: a.support,
                }
            }
            Node::And(a, b) => {
                let (a, b) = (child(self, a), child(self, b));
                let known1 = (a.bits.mask & a.bits.value) & (b.bits.mask & b.bits.value);
                let known0 = (a.bits.mask & !a.bits.value) | (b.bits.mask & !b.bits.value);
                let bits = KnownBits {
                    mask: known0 | known1,
                    value: known1,
                }
                .clamp(w);
                Fact {
                    bits,
                    lo: 0,
                    hi: a.hi.min(b.hi),
                    support: union(&a.support, &b.support),
                }
            }
            Node::Or(a, b) => {
                let (a, b) = (child(self, a), child(self, b));
                let known1 = (a.bits.mask & a.bits.value) | (b.bits.mask & b.bits.value);
                let known0 = (a.bits.mask & !a.bits.value) & (b.bits.mask & !b.bits.value);
                let bits = KnownBits {
                    mask: known0 | known1,
                    value: known1,
                }
                .clamp(w);
                Fact {
                    bits,
                    lo: a.lo.max(b.lo),
                    hi: ones_up_to(a.hi | b.hi),
                    support: union(&a.support, &b.support),
                }
            }
            Node::Xor(a, b) => {
                let (a, b) = (child(self, a), child(self, b));
                let known = a.bits.mask & b.bits.mask;
                let bits = KnownBits {
                    mask: known,
                    value: (a.bits.value ^ b.bits.value) & known,
                }
                .clamp(w);
                Fact {
                    lo: bits.min(),
                    hi: bits.max() & wmask,
                    bits,
                    support: union(&a.support, &b.support),
                }
            }
            Node::Add(a, b) => {
                let (a, b) = (child(self, a), child(self, b));
                // Carries ripple LSB-first, so the low run of bits known
                // in *both* operands is known in the sum.
                let run = low_run(a.bits.mask & b.bits.mask);
                let bits = KnownBits {
                    mask: run,
                    value: (a.bits.value & run).wrapping_add(b.bits.value & run) & run,
                }
                .clamp(w);
                let (lo, hi) = match a.hi.checked_add(b.hi) {
                    Some(hi) if hi <= wmask => (a.lo + b.lo, hi),
                    _ => (0, wmask),
                };
                Fact {
                    bits,
                    lo,
                    hi,
                    support: union(&a.support, &b.support),
                }
            }
            Node::Sub(a, b) => {
                let (a, b) = (child(self, a), child(self, b));
                // Borrows also ripple LSB-first.
                let run = low_run(a.bits.mask & b.bits.mask);
                let bits = KnownBits {
                    mask: run,
                    value: (a.bits.value & run).wrapping_sub(b.bits.value & run) & run,
                }
                .clamp(w);
                let (lo, hi) = if a.lo >= b.hi {
                    (a.lo - b.hi, a.hi - b.lo)
                } else {
                    (0, wmask)
                };
                Fact {
                    bits,
                    lo,
                    hi,
                    support: union(&a.support, &b.support),
                }
            }
            Node::Mul(a, b) => {
                let (a, b) = (child(self, a), child(self, b));
                // The low k product bits depend only on the low k bits of
                // each operand.
                let run = low_run(a.bits.mask & b.bits.mask);
                let bits = KnownBits {
                    mask: run,
                    value: (a.bits.value & run).wrapping_mul(b.bits.value & run) & run,
                }
                .clamp(w);
                let (lo, hi) = match a.hi.checked_mul(b.hi) {
                    Some(hi) if hi <= wmask => (a.lo.wrapping_mul(b.lo), hi),
                    _ => (0, wmask),
                };
                Fact {
                    bits,
                    lo,
                    hi,
                    support: union(&a.support, &b.support),
                }
            }
            Node::Shl(a, s) => {
                let (a, s) = (child(self, a), child(self, s));
                let support = union(&a.support, &s.support);
                match s.as_const() {
                    Some(sh) if sh >= u64::from(w) => Fact::exact(w, 0, support),
                    Some(sh) => {
                        let sh = sh as u32;
                        // Known bits shift up; the vacated low positions
                        // are known zero.
                        let bits = KnownBits {
                            mask: (a.bits.mask << sh) | low_ones(sh),
                            value: a.bits.value << sh,
                        }
                        .clamp(w);
                        let (lo, hi) = if a.hi <= wmask >> sh {
                            (a.lo << sh, a.hi << sh)
                        } else {
                            (bits.min(), bits.max() & wmask)
                        };
                        Fact {
                            bits,
                            lo,
                            hi,
                            support,
                        }
                    }
                    None => {
                        // Every possible shift is at least `s.lo`, so at
                        // least that many low bits are zero (shifts past
                        // the width yield zero, which also qualifies).
                        let zeros = s.lo.min(u64::from(w)) as u32;
                        let bits = KnownBits {
                            mask: low_ones(zeros),
                            value: 0,
                        }
                        .clamp(w);
                        Fact {
                            bits,
                            lo: 0,
                            hi: wmask,
                            support,
                        }
                    }
                }
            }
            Node::Lshr(a, s) => {
                let (a, s) = (child(self, a), child(self, s));
                let support = union(&a.support, &s.support);
                match s.as_const() {
                    Some(sh) if sh >= u64::from(w) => Fact::exact(w, 0, support),
                    Some(sh) => {
                        let sh = sh as u32;
                        let bits = KnownBits {
                            mask: a.bits.mask >> sh,
                            value: (a.bits.value & wmask) >> sh,
                        }
                        .clamp(w);
                        Fact {
                            bits,
                            lo: a.lo >> sh,
                            hi: a.hi >> sh,
                            support,
                        }
                    }
                    None => {
                        // Shifting right never grows the value; the
                        // smallest shift bounds it from above. Clamp to
                        // width - 1 like the arithmetic path: for w < 64
                        // a larger clamp could over-shift `hi` below
                        // values the masked-amount semantics can reach.
                        let min_sh = s.lo.min(u64::from(w) - 1) as u32;
                        Fact {
                            bits: KnownBits::top(w),
                            lo: 0,
                            hi: a.hi >> min_sh,
                            support,
                        }
                    }
                }
            }
            Node::Ashr(a, s) => {
                let (a, s) = (child(self, a), child(self, s));
                let support = union(&a.support, &s.support);
                let sign_known = a.bits.mask >> (w - 1) & 1 == 1;
                let sign = a.bits.value >> (w - 1) & 1 == 1;
                match s.as_const() {
                    Some(sh) => {
                        // Shifts clamp to width - 1 (sign replication).
                        let sh = (sh.min(u64::from(w) - 1)) as u32;
                        let fill = wmask & !(wmask >> sh);
                        let shifted_mask = (a.bits.mask & wmask) >> sh;
                        let shifted_value = (a.bits.value & wmask) >> sh;
                        let bits = if sign_known {
                            KnownBits {
                                mask: shifted_mask | fill,
                                value: shifted_value | if sign { fill } else { 0 },
                            }
                        } else {
                            KnownBits {
                                mask: shifted_mask & !fill,
                                value: shifted_value & !fill,
                            }
                        }
                        .clamp(w);
                        let (lo, hi) = if sign_known && !sign {
                            (a.lo >> sh, a.hi >> sh)
                        } else {
                            (bits.min(), bits.max() & wmask)
                        };
                        Fact {
                            bits,
                            lo,
                            hi,
                            support,
                        }
                    }
                    None if sign_known && !sign => {
                        let min_sh = s.lo.min(u64::from(w) - 1) as u32;
                        Fact {
                            bits: KnownBits::top(w),
                            lo: 0,
                            hi: a.hi >> min_sh,
                            support,
                        }
                    }
                    None => Fact::top(w, support),
                }
            }
            Node::Eq(a, b) => {
                let wa = ctx.width(a);
                let (a, b) = (child(self, a), child(self, b));
                let support = union(&a.support, &b.support);
                let conflict = (a.bits.mask & b.bits.mask) & (a.bits.value ^ b.bits.value) != 0;
                if conflict || a.hi < b.lo || b.hi < a.lo {
                    Fact::exact(w, 0, support)
                } else if let (Some(x), Some(y)) = (a.as_const(), b.as_const()) {
                    Fact::exact(w, u64::from(mask(wa, x) == mask(wa, y)), support)
                } else {
                    Fact::top(w, support)
                }
            }
            Node::Ult(a, b) => {
                let (a, b) = (child(self, a), child(self, b));
                let support = union(&a.support, &b.support);
                if a.hi < b.lo {
                    Fact::exact(w, 1, support)
                } else if a.lo >= b.hi {
                    Fact::exact(w, 0, support)
                } else {
                    Fact::top(w, support)
                }
            }
            Node::Slt(a, b) => {
                let wa = ctx.width(a);
                let (a, b) = (child(self, a), child(self, b));
                let support = union(&a.support, &b.support);
                let (a_lo, a_hi) = signed_range(wa, &a);
                let (b_lo, b_hi) = signed_range(wa, &b);
                if a_hi < b_lo {
                    Fact::exact(w, 1, support)
                } else if a_lo >= b_hi {
                    Fact::exact(w, 0, support)
                } else {
                    Fact::top(w, support)
                }
            }
            Node::Ite(c, t, e) => {
                let c = child(self, c);
                match c.as_const() {
                    Some(v) if v & 1 == 1 => child(self, t),
                    Some(_) => child(self, e),
                    None => {
                        let (t, e) = (child(self, t), child(self, e));
                        let agree = t.bits.mask & e.bits.mask & !(t.bits.value ^ e.bits.value);
                        let bits = KnownBits {
                            mask: agree,
                            value: t.bits.value & agree,
                        }
                        .clamp(w);
                        Fact {
                            bits,
                            lo: t.lo.min(e.lo),
                            hi: t.hi.max(e.hi),
                            support: union(&union(&t.support, &e.support), &c.support),
                        }
                    }
                }
            }
            Node::Extract { term: a, lo, .. } => {
                let a = child(self, a);
                let bits = KnownBits {
                    mask: a.bits.mask >> lo,
                    value: a.bits.value >> lo,
                }
                .clamp(w);
                let (ilo, ihi) = {
                    let lo_b = a.lo >> lo;
                    let hi_b = a.hi >> lo;
                    if hi_b <= wmask {
                        (lo_b, hi_b)
                    } else {
                        (bits.min(), bits.max() & wmask)
                    }
                };
                Fact {
                    bits,
                    lo: ilo,
                    hi: ihi,
                    support: a.support,
                }
            }
            Node::Concat { hi, lo } => {
                let lw = ctx.width(lo);
                let (h, l) = (child(self, hi), child(self, lo));
                let lmask = mask(lw, !0);
                let bits = KnownBits {
                    mask: (h.bits.mask << lw) | (l.bits.mask & lmask),
                    value: (h.bits.value << lw) | (l.bits.value & lmask),
                }
                .clamp(w);
                // concat(h, l) = h * 2^lw + l with l < 2^lw: monotone in
                // both parts, so the interval is exact in the parts'.
                Fact {
                    bits,
                    lo: (h.lo << lw) | l.lo,
                    hi: (h.hi << lw) | l.hi,
                    support: union(&h.support, &l.support),
                }
            }
            Node::ZeroExt { term: a, .. } => {
                let a = child(self, a);
                Fact {
                    bits: a.bits.clamp(w),
                    lo: a.lo,
                    hi: a.hi,
                    support: a.support,
                }
            }
            Node::SignExt { term: a, .. } => {
                let sw = ctx.width(a);
                let a = child(self, a);
                let fill = mask(w, !0) & !mask(sw, !0);
                let sign_known = a.bits.mask >> (sw - 1) & 1 == 1;
                let sign = a.bits.value >> (sw - 1) & 1 == 1;
                let keep = KnownBits {
                    mask: a.bits.mask & mask(sw, !0),
                    value: a.bits.value & mask(sw, !0),
                };
                let (bits, lo, hi) = if sign_known && !sign {
                    (
                        KnownBits {
                            mask: keep.mask | fill,
                            value: keep.value,
                        },
                        a.lo,
                        a.hi,
                    )
                } else if sign_known {
                    (
                        KnownBits {
                            mask: keep.mask | fill,
                            value: keep.value | fill,
                        },
                        a.lo | fill,
                        a.hi | fill,
                    )
                } else {
                    let b = KnownBits {
                        mask: keep.mask & !fill,
                        value: keep.value,
                    };
                    (b, 0, mask(w, !0))
                };
                Fact {
                    bits: bits.clamp(w),
                    lo,
                    hi,
                    support: a.support,
                }
            }
        };
        fact.refine(w)
    }
}

/// A forced environment: exact values assumed for specific terms, plus
/// the union of the forced terms' symbol supports (for pruning).
#[derive(Debug, Default)]
struct Forced {
    values: HashMap<TermId, u64>,
    support: Rc<Vec<TermId>>,
}

/// What a growing path condition forces, absorbed one conjunct at a time.
///
/// Each absorbed conjunct forces one term, to the value it has in every
/// model of the path:
///
/// * `t == c`, one side constant, forces `t` to `c`;
/// * a width-1 `¬b` forces `b` to 0;
/// * any other width-1 conjunct `b` forces `b` itself to 1.
///
/// A condition's [`Fact`] under those forcings therefore holds in every
/// model of the path, which is how [`PathFacts::value`] decides branch
/// conditions the path already settled: the decode chains asked after
/// the opcode is pinned, and a register compare one model re-decides
/// after the other put it on the path. The facts are memoised for as
/// long as the forcings stay the same.
#[derive(Debug, Default)]
pub(crate) struct PathFacts {
    absint: AbsInt,
    /// The conjuncts absorbed so far, in path order.
    absorbed: Vec<TermId>,
    forced: Forced,
    /// Facts under `forced`; cleared whenever it grows.
    memo: HashMap<TermId, Fact>,
    /// A conjunct was false under the ones before it: the path is
    /// unsatisfiable, and nothing is answered.
    contradicted: bool,
}

impl PathFacts {
    /// The value the conjunction `path` forces on the width-1 `cond`:
    /// `Some(false)` when no model of `path` satisfies `cond`, so
    /// `path ∧ cond` is unsatisfiable; `Some(true)` when every model
    /// does, so `path ∧ cond` is equivalent to `path`; `None` when the
    /// abstraction cannot tell.
    ///
    /// `Some(true)` is the solver's verdict on `path ∧ cond` only when
    /// `path` is satisfiable, which the caller vouches for.
    ///
    /// Work is incremental while each call's `path` extends the previous
    /// one: only the new conjuncts are absorbed, and only `cond`'s cone
    /// is evaluated. Any other `path` (a sibling, a resumed snapshot)
    /// starts over.
    pub(crate) fn value(&mut self, ctx: &Context, path: &[TermId], cond: TermId) -> Option<bool> {
        if self.absint.sync(ctx) || !path.starts_with(&self.absorbed) {
            self.absorbed.clear();
            self.forced = Forced::default();
            self.memo.clear();
            self.contradicted = false;
        }
        for &conjunct in &path[self.absorbed.len()..] {
            self.absorb(ctx, conjunct);
        }
        if self.contradicted {
            return None;
        }
        self.fact(ctx, cond).as_const().map(|v| v & 1 == 1)
    }

    fn absorb(&mut self, ctx: &Context, conjunct: TermId) {
        self.absorbed.push(conjunct);
        if self.contradicted {
            return;
        }
        match self.fact(ctx, conjunct).as_const() {
            // Implied by the earlier conjuncts: it forces nothing new.
            Some(v) if v & 1 == 1 => return,
            Some(_) => {
                self.contradicted = true;
                return;
            }
            None => {}
        }
        // An undecided conjunct forces a term the environment does not
        // hold yet: a held term would have decided it.
        let (term, value) = match ctx.node(conjunct) {
            Node::Eq(a, b) => match (ctx.const_value(a), ctx.const_value(b)) {
                (Some(v), None) => (b, mask(ctx.width(b), v)),
                (None, Some(v)) => (a, mask(ctx.width(a), v)),
                _ => (conjunct, 1),
            },
            Node::Not(inner) => (inner, 0),
            _ => (conjunct, 1),
        };
        self.forced.values.insert(term, value);
        let support = Rc::clone(&self.absint.fact_rec(ctx, term).support);
        self.forced.support = union(&self.forced.support, &support);
        self.memo.clear();
    }

    fn fact(&mut self, ctx: &Context, term: TermId) -> Fact {
        self.absint
            .fact_forced(ctx, term, &self.forced, &mut self.memo)
    }
}

/// Sorted-slice union, `Rc`-shared; reuses a side when the other is empty
/// or a subset prefix-wise cheap case.
fn union(a: &Rc<Vec<TermId>>, b: &Rc<Vec<TermId>>) -> Rc<Vec<TermId>> {
    if a.is_empty() {
        return Rc::clone(b);
    }
    if b.is_empty() || Rc::ptr_eq(a, b) {
        return Rc::clone(a);
    }
    let mut merged = Vec::with_capacity(a.len() + b.len());
    merged.extend(a.iter().copied());
    merged.extend(b.iter().copied());
    merged.sort_unstable();
    merged.dedup();
    Rc::new(merged)
}

/// Whether two sorted slices share an element (merge walk).
fn intersects(a: &[TermId], b: &[TermId]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// The low run of consecutive set bits starting at bit 0 of `m`.
fn low_run(m: u64) -> u64 {
    low_ones((!m).trailing_zeros())
}

/// `count` low one-bits (saturating at 64).
fn low_ones(count: u32) -> u64 {
    if count >= 64 {
        !0
    } else {
        (1u64 << count) - 1
    }
}

/// All-ones up to and including the highest set bit of `v`.
fn ones_up_to(v: u64) -> u64 {
    if v == 0 {
        0
    } else {
        u64::MAX >> v.leading_zeros()
    }
}

/// The signed range a fact admits at `width`, as `(min, max)`.
fn signed_range(width: Width, fact: &Fact) -> (i64, i64) {
    let sign_bit = 1u64 << (width - 1);
    if fact.hi < sign_bit {
        (fact.lo as i64, fact.hi as i64)
    } else if fact.lo >= sign_bit {
        (to_signed(width, fact.lo), to_signed(width, fact.hi))
    } else {
        (to_signed(width, sign_bit), (sign_bit - 1) as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval, Env};

    fn fact_of(ctx: &Context, term: TermId) -> Fact {
        AbsInt::new().fact(ctx, term)
    }

    #[test]
    fn constants_are_exact() {
        let mut ctx = Context::new();
        let c = ctx.constant(8, 0xa5);
        let fact = fact_of(&ctx, c);
        assert_eq!(fact.as_const(), Some(0xa5));
        assert!(fact.contains(0xa5));
        assert!(!fact.contains(0xa4));
        assert!(fact.support.is_empty());
    }

    #[test]
    fn symbols_are_top_with_self_support() {
        let mut ctx = Context::new();
        let x = ctx.symbol(8, "x");
        let fact = fact_of(&ctx, x);
        assert_eq!(fact.as_const(), None);
        assert_eq!((fact.lo, fact.hi), (0, 0xff));
        assert!((0..=0xffu64).all(|v| fact.contains(v)));
        assert_eq!(&*fact.support, &[x]);
    }

    #[test]
    fn masking_pins_known_bits() {
        let mut ctx = Context::new();
        let x = ctx.symbol(8, "x");
        let m = ctx.constant(8, 0x0f);
        let masked = ctx.and(x, m);
        let fact = fact_of(&ctx, masked);
        // The high nibble is known zero.
        assert_eq!(fact.bits.mask & 0xf0, 0xf0);
        assert_eq!(fact.bits.value & 0xf0, 0);
        assert!(fact.hi <= 0x0f);

        let set = ctx.constant(8, 0x80);
        let ored = ctx.or(masked, set);
        let fact = fact_of(&ctx, ored);
        assert!(fact.bits.contains(0x85));
        assert!(!fact.bits.contains(0x05), "bit 7 is known one");
        assert!(fact.lo >= 0x80);
    }

    #[test]
    fn extract_and_concat_track_fields() {
        let mut ctx = Context::new();
        let x = ctx.symbol(32, "x");
        let k = ctx.constant(32, 0x0000_0063);
        let high = ctx.constant(32, 0xffff_ff80);
        let masked_low = ctx.and(x, high);
        let word = ctx.or(masked_low, k);
        let opcode = ctx.extract(word, 6, 0);
        let fact = fact_of(&ctx, opcode);
        assert_eq!(fact.as_const(), Some(0x63), "low field is fully pinned");

        let upper = ctx.extract(word, 31, 7);
        let fact = fact_of(&ctx, upper);
        assert_eq!(fact.as_const(), None);
    }

    #[test]
    fn intervals_bound_arithmetic() {
        let mut ctx = Context::new();
        let x = ctx.symbol(8, "x");
        let seven = ctx.constant(8, 0x07);
        let low = ctx.and(x, seven);
        let k = ctx.constant(8, 0x10);
        let sum = ctx.add(low, k);
        let fact = fact_of(&ctx, sum);
        assert_eq!((fact.lo, fact.hi), (0x10, 0x17));
        // The comparison layer turns that into a verdict.
        let bound = ctx.constant(8, 0x20);
        let lt = ctx.ult(sum, bound);
        assert_eq!(fact_of(&ctx, lt).as_const(), Some(1));
        let floor = ctx.constant(8, 0x10);
        let below = ctx.ult(sum, floor);
        assert_eq!(fact_of(&ctx, below).as_const(), Some(0));
    }

    #[test]
    fn disjoint_known_bits_refute_equality() {
        let mut ctx = Context::new();
        let x = ctx.symbol(8, "x");
        let one = ctx.constant(8, 1);
        let odd = ctx.or(x, one);
        let even = ctx.constant(8, 2);
        let eq = ctx.eq(odd, even);
        assert_eq!(fact_of(&ctx, eq).as_const(), Some(0));
    }

    #[test]
    fn shifts_follow_context_semantics() {
        let mut ctx = Context::new();
        let x = ctx.symbol(8, "x");
        let four = ctx.constant(8, 4);
        let shl = ctx.shl(x, four);
        let fact = fact_of(&ctx, shl);
        assert_eq!(fact.bits.mask & 0x0f, 0x0f, "low 4 bits known");
        assert_eq!(fact.bits.value & 0x0f, 0);
        let shr = ctx.lshr(x, four);
        let fact = fact_of(&ctx, shr);
        assert!(fact.hi <= 0x0f);
    }

    #[test]
    fn fuzz_facts_are_sound_over_random_envs() {
        // Soundness pinned structurally: random term trees, random envs —
        // the concrete value always lies inside bits and interval.
        let mut rng = 0x5eed_0001u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for _ in 0..200 {
            let mut ctx = Context::new();
            let x = ctx.symbol(8, "x");
            let y = ctx.symbol(8, "y");
            let mut pool = vec![x, y, ctx.constant(8, next() & 0xff)];
            for _ in 0..12 {
                let a = pool[(next() as usize) % pool.len()];
                let b = pool[(next() as usize) % pool.len()];
                let t = match next() % 10 {
                    0 => ctx.and(a, b),
                    1 => ctx.or(a, b),
                    2 => ctx.xor(a, b),
                    3 => ctx.add(a, b),
                    4 => ctx.sub(a, b),
                    5 => ctx.mul(a, b),
                    6 => ctx.not(a),
                    7 => ctx.shl(a, b),
                    8 => ctx.lshr(a, b),
                    _ => ctx.ashr(a, b),
                };
                pool.push(t);
            }
            let mut absint = AbsInt::new();
            let mut env = Env::new();
            env.insert("x".to_string(), next() & 0xff);
            env.insert("y".to_string(), next() & 0xff);
            for &t in &pool {
                let fact = absint.fact(&ctx, t);
                let value = eval(&ctx, t, &env);
                assert!(
                    fact.contains(value),
                    "unsound fact {fact:?} for {:?} = {value}",
                    ctx.node(t)
                );
            }
        }
    }

    #[test]
    fn conflicting_forced_equalities_decide_false() {
        let mut ctx = Context::new();
        let x = ctx.symbol(32, "x");
        let field = ctx.extract(x, 6, 0);
        let k1 = ctx.constant(7, 0x63);
        let k2 = ctx.constant(7, 0x33);
        let is1 = ctx.eq(field, k1);
        let is2 = ctx.eq(field, k2);
        let mut facts = PathFacts::default();
        assert_eq!(
            facts.value(&ctx, &[is1], is2),
            Some(false),
            "same field forced to two values"
        );
        assert_eq!(facts.value(&ctx, &[], is1), None, "consistent: undecided");
        assert_eq!(facts.value(&ctx, &[is1], is1), Some(true));
    }

    #[test]
    fn forced_values_propagate_through_cones() {
        let mut ctx = Context::new();
        let x = ctx.symbol(8, "x");
        let k3 = ctx.constant(8, 3);
        let k10 = ctx.constant(8, 10);
        let forced = ctx.eq(x, k10);
        let one = ctx.constant(8, 1);
        let inc = ctx.add(x, one);
        let contradiction = ctx.ult(inc, k3);
        let mut facts = PathFacts::default();
        assert_eq!(
            facts.value(&ctx, &[forced], contradiction),
            Some(false),
            "x = 10 makes x + 1 < 3 false"
        );
        // Under the forcing the consistent bound is true, not merely
        // possible: every model of x = 10 satisfies it.
        let k100 = ctx.constant(8, 100);
        let consistent = ctx.ult(inc, k100);
        assert_eq!(facts.value(&ctx, &[forced], consistent), Some(true));
        let k11 = ctx.constant(8, 11);
        let open = ctx.ult(x, k11);
        assert_eq!(facts.value(&ctx, &[], open), None);
    }

    #[test]
    fn tautologies_hold_on_the_empty_path() {
        let mut ctx = Context::new();
        let b = ctx.symbol(1, "b");
        let wide = ctx.zero_ext(b, 32);
        let two = ctx.constant(32, 2);
        let taut = ctx.ult(wide, two);
        let mut facts = PathFacts::default();
        assert_eq!(facts.value(&ctx, &[], taut), Some(true));
    }

    #[test]
    fn a_later_forcing_decides_an_earlier_undecided_condition() {
        let mut ctx = Context::new();
        let x = ctx.symbol(8, "x");
        let (one, three) = (ctx.constant(8, 1), ctx.constant(8, 3));
        let (ten, hundred) = (ctx.constant(8, 10), ctx.constant(8, 100));
        let inc = ctx.add(x, one);
        let small = ctx.ult(inc, three);
        let below = ctx.ult(x, hundred);
        let is10 = ctx.eq(x, ten);
        let mut facts = PathFacts::default();
        // `x < 100` forces itself, not `x`: `x + 1 < 3` stays open, and
        // its fact is memoised under that environment.
        assert_eq!(facts.value(&ctx, &[below], small), None);
        // The environment grows by `x = 10`, which decides it.
        assert_eq!(facts.value(&ctx, &[below, is10], small), Some(false));
    }

    #[test]
    fn a_path_that_is_no_extension_starts_over() {
        let mut ctx = Context::new();
        let x = ctx.symbol(8, "x");
        let (one, three) = (ctx.constant(8, 1), ctx.constant(8, 3));
        let ten = ctx.constant(8, 10);
        let inc = ctx.add(x, one);
        let small = ctx.ult(inc, three);
        let is10 = ctx.eq(x, ten);
        let is1 = ctx.eq(x, one);
        let not10 = ctx.not(is10);
        let mut facts = PathFacts::default();
        assert_eq!(facts.value(&ctx, &[is10], small), Some(false));
        // A sibling path: `x = 1` in place of `x = 10`.
        assert_eq!(facts.value(&ctx, &[is1], small), Some(true));
        // The other arm of the first fork, then back to a shorter prefix.
        assert_eq!(facts.value(&ctx, &[not10], is10), Some(false));
        assert_eq!(facts.value(&ctx, &[not10], small), None);
        assert_eq!(facts.value(&ctx, &[], is10), None);
    }

    #[test]
    fn a_conjunct_with_no_constant_side_forces_itself() {
        let mut ctx = Context::new();
        let a = ctx.symbol(32, "a");
        let b = ctx.symbol(32, "b");
        let same = ctx.eq(a, b);
        let differ = ctx.not(same);
        let below = ctx.ult(a, b);
        let not_below = ctx.not(below);
        let mut facts = PathFacts::default();
        assert_eq!(facts.value(&ctx, &[same], differ), Some(false));
        assert_eq!(facts.value(&ctx, &[same], same), Some(true));
        assert_eq!(facts.value(&ctx, &[differ], same), Some(false));
        assert_eq!(facts.value(&ctx, &[below], not_below), Some(false));
        assert_eq!(facts.value(&ctx, &[not_below], below), Some(false));
    }

    #[test]
    fn memo_survives_arena_growth_and_resets_on_new_context() {
        let mut ctx = Context::new();
        let x = ctx.symbol(8, "x");
        let mut absint = AbsInt::new();
        let before = absint.fact(&ctx, x);
        let y = ctx.symbol(8, "y");
        let sum = ctx.add(x, y);
        let after = absint.fact(&ctx, sum);
        assert_eq!(&*after.support, &[x, y]);
        assert_eq!(before.bits, absint.fact(&ctx, x).bits);

        // A fresh (smaller) context invalidates the watermarked memo.
        let mut other = Context::new();
        let z = other.symbol(4, "z");
        let fact = absint.fact(&other, z);
        assert_eq!((fact.lo, fact.hi), (0, 0xf));
    }

    #[test]
    fn cone_of_influence_is_exactly_the_symbol_support() {
        let mut ctx = Context::new();
        let x = ctx.symbol(8, "x");
        let y = ctx.symbol(8, "y");
        let z = ctx.symbol(8, "z");
        let xy = ctx.add(x, y);
        let four = ctx.constant(8, 4);
        let cond = ctx.ult(z, four);
        let pick = ctx.ite(cond, xy, x);
        let mut absint = AbsInt::new();
        let support = absint.support(&ctx, pick);
        assert_eq!(&*support, &[x, y, z], "condition symbols are in the cone");
    }
}
