//! Path-forced lane constants: a query rewrite for the voter's miters.
//!
//! The RTL core concretises the low two bits of every data address: its
//! `decide_offset` decides `addr & 3 == c` for `c` = 0, 1, 2 in turn and
//! takes `c = 3` when all three are false. A load or store path therefore
//! carries a constraint set that forces `addr & 3`. The ISS computes its
//! byte lanes from the same address symbolically, as `(addr + k) & 3`
//! barrel-shift amounts and `(addr + k) >> 2` word indices. Under the
//! path these are constants or simpler terms:
//!
//! * `addr & 3` is `c`, and `(addr + k) & 3` is `(c + k) & 3`;
//! * `(addr + k) >> 2` is `addr >> 2` when `k < 4` and `c + k < 4`: the
//!   add carries nothing out of the low two bits.
//!
//! The core selects its word by the aligned address, `(addr & !3) >> 2`,
//! which is `addr >> 2` on every path. The same pass rewrites it, so both
//! models' word selects become one hash-consed term.
//!
//! [`LaneRewriter`] rebuilds a query with those replacements. Each
//! replaced sub-term equals the original in every model of the path
//! condition, so the rebuilt query is satisfiable together with the path
//! exactly when the original is.

use crate::context::mask;
use crate::hash::TermMap;
use crate::term::{Node, TermId};
use crate::Context;

/// The `addr & 3` values that `constraints` force, as `(addr, c)` pairs
/// sorted by `addr`.
///
/// A value is forced by a conjunct `addr & 3 == c`, or by the negations
/// `addr & 3 != v` of the three other values. An address with two
/// different equalities (a dead path) forces nothing.
pub(crate) fn forced_lanes(ctx: &Context, constraints: &[TermId]) -> Vec<(TermId, u64)> {
    // Per address: the equalities seen and the excluded values, as 4-bit
    // sets.
    let mut seen: Vec<(TermId, u8, u8)> = Vec::new();
    for &constraint in constraints {
        let (eq, holds) = match ctx.node(constraint) {
            Node::Not(inner) => (inner, false),
            _ => (constraint, true),
        };
        let Some((addr, value)) = low_bits_eq(ctx, eq) else {
            continue;
        };
        let slot = match seen.iter().position(|&(a, ..)| a == addr) {
            Some(slot) => slot,
            None => {
                seen.push((addr, 0, 0));
                seen.len() - 1
            }
        };
        if holds {
            seen[slot].1 |= 1 << value;
        } else {
            seen[slot].2 |= 1 << value;
        }
    }
    let mut facts: Vec<(TermId, u64)> = seen
        .into_iter()
        .filter_map(|(addr, equal, excluded)| {
            let allowed = match equal {
                0 => !excluded & 0xf,
                _ => equal & !excluded,
            };
            (allowed.count_ones() == 1).then(|| (addr, u64::from(allowed.trailing_zeros())))
        })
        .collect();
    facts.sort_unstable();
    facts
}

/// `eq` as `addr & 3 == value` with `value < 4`.
fn low_bits_eq(ctx: &Context, eq: TermId) -> Option<(TermId, u64)> {
    let Node::Eq(a, b) = ctx.node(eq) else {
        return None;
    };
    let (masked, value) = match (ctx.const_value(a), ctx.const_value(b)) {
        (None, Some(value)) => (a, value),
        (Some(value), None) => (b, value),
        _ => return None,
    };
    if value >= 4 {
        return None;
    }
    Some((low_bits_of(ctx, masked)?, value))
}

/// `term` as `x & 3`: returns `x`.
fn low_bits_of(ctx: &Context, term: TermId) -> Option<TermId> {
    let Node::And(a, b) = ctx.node(term) else {
        return None;
    };
    match (ctx.const_value(a), ctx.const_value(b)) {
        (None, Some(3)) => Some(a),
        (Some(3), None) => Some(b),
        _ => None,
    }
}

/// `term` as `x + k` for a constant `k`.
fn offset_of(ctx: &Context, term: TermId) -> Option<(TermId, u64)> {
    let Node::Add(a, b) = ctx.node(term) else {
        return None;
    };
    match (ctx.const_value(a), ctx.const_value(b)) {
        (None, Some(k)) => Some((a, k)),
        (Some(k), None) => Some((b, k)),
        _ => None,
    }
}

/// Rebuilds queries with the lane constants a path forces; memoized for
/// as long as consecutive queries come with the same facts.
#[derive(Debug, Default)]
pub(crate) struct LaneRewriter {
    facts: Vec<(TermId, u64)>,
    memo: TermMap<TermId, TermId>,
}

impl LaneRewriter {
    /// `term` rebuilt under `facts` (as [`forced_lanes`] returns them).
    pub(crate) fn rewrite(
        &mut self,
        ctx: &mut Context,
        facts: Vec<(TermId, u64)>,
        term: TermId,
    ) -> TermId {
        if facts.is_empty() {
            return term;
        }
        if facts != self.facts {
            self.facts = facts;
            self.memo.clear();
        }
        self.rebuild(ctx, term)
    }

    /// The forced `addr & 3` of `addr`.
    fn lane(&self, addr: TermId) -> Option<u64> {
        self.facts
            .binary_search_by_key(&addr, |&(a, _)| a)
            .ok()
            .map(|i| self.facts[i].1)
    }

    /// `term` as `base + k` with `base & 3` forced to `c`, `k` = 0 when
    /// `term` is a forced address itself: returns `(base, c, k)`.
    fn forced_offset(&self, ctx: &Context, term: TermId) -> Option<(TermId, u64, u64)> {
        if let Some(c) = self.lane(term) {
            return Some((term, c, 0));
        }
        let (base, k) = offset_of(ctx, term)?;
        Some((base, self.lane(base)?, k))
    }

    /// A different term `y` with `y >> 2 == x >> 2` under the facts: the
    /// base of a carry-free `base + k`, or the `y` of an aligned `y & !3`.
    fn same_word(&self, ctx: &Context, x: TermId) -> Option<TermId> {
        if let Some((base, c, k)) = self.forced_offset(ctx, x) {
            if k != 0 && k < 4 && c + k < 4 {
                return Some(base);
            }
        }
        let Node::And(a, b) = ctx.node(x) else {
            return None;
        };
        let aligned = mask(ctx.width(x), !3);
        match (ctx.const_value(a), ctx.const_value(b)) {
            (None, Some(m)) if m == aligned => Some(a),
            (Some(m), None) if m == aligned => Some(b),
            _ => None,
        }
    }

    fn rebuild(&mut self, ctx: &mut Context, term: TermId) -> TermId {
        if let Some(&done) = self.memo.get(&term) {
            return done;
        }
        let node = ctx.node(term);
        let forced_low = low_bits_of(ctx, term).and_then(|x| self.forced_offset(ctx, x));
        let out = match (forced_low, node) {
            (Some((_, c, k)), _) => ctx.constant(ctx.width(term), c.wrapping_add(k) & 3),
            (None, Node::Lshr(x, amount)) if ctx.const_value(amount) == Some(2) => {
                match self.same_word(ctx, x) {
                    Some(y) => {
                        let y = self.rebuild(ctx, y);
                        ctx.lshr(y, amount)
                    }
                    None => self.rebuild_children(ctx, term, node),
                }
            }
            (None, _) => self.rebuild_children(ctx, term, node),
        };
        self.memo.insert(term, out);
        out
    }

    /// `node` with every child rebuilt, through the simplifying
    /// constructors; `term` itself when no child changed.
    fn rebuild_children(&mut self, ctx: &mut Context, term: TermId, node: Node) -> TermId {
        let mut r = |t| self.rebuild(ctx, t);
        let rebuilt = match node {
            Node::Const { .. } | Node::Symbol { .. } => node,
            Node::Not(a) => Node::Not(r(a)),
            Node::And(a, b) => Node::And(r(a), r(b)),
            Node::Or(a, b) => Node::Or(r(a), r(b)),
            Node::Xor(a, b) => Node::Xor(r(a), r(b)),
            Node::Add(a, b) => Node::Add(r(a), r(b)),
            Node::Sub(a, b) => Node::Sub(r(a), r(b)),
            Node::Mul(a, b) => Node::Mul(r(a), r(b)),
            Node::Shl(a, b) => Node::Shl(r(a), r(b)),
            Node::Lshr(a, b) => Node::Lshr(r(a), r(b)),
            Node::Ashr(a, b) => Node::Ashr(r(a), r(b)),
            Node::Eq(a, b) => Node::Eq(r(a), r(b)),
            Node::Ult(a, b) => Node::Ult(r(a), r(b)),
            Node::Slt(a, b) => Node::Slt(r(a), r(b)),
            Node::Ite(c, a, b) => {
                let c = r(c);
                Node::Ite(c, r(a), r(b))
            }
            Node::Extract { term, hi, lo } => Node::Extract {
                term: r(term),
                hi,
                lo,
            },
            Node::Concat { hi, lo } => Node::Concat {
                hi: r(hi),
                lo: r(lo),
            },
            Node::ZeroExt { term, width } => Node::ZeroExt {
                term: r(term),
                width,
            },
            Node::SignExt { term, width } => Node::SignExt {
                term: r(term),
                width,
            },
        };
        if rebuilt == node {
            term
        } else {
            ctx.make(rebuilt)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval, Env};
    use symcosim_testkit::{check_cases, Rng};

    /// `addr & 3 == c` as the core's `decide_offset` leaves it on the path:
    /// the equality itself, or for `c == 3` the three exclusions.
    fn decided_offset(ctx: &mut Context, addr: TermId, c: u64) -> Vec<TermId> {
        let three = ctx.constant(32, 3);
        let low = ctx.and(addr, three);
        let is = |ctx: &mut Context, v: u64| {
            let v = ctx.constant(32, v);
            ctx.eq(low, v)
        };
        if c < 3 {
            vec![is(ctx, c)]
        } else {
            (0..3)
                .map(|v| {
                    let eq = is(ctx, v);
                    ctx.not(eq)
                })
                .collect()
        }
    }

    #[test]
    fn equalities_and_full_exclusions_force_a_lane() {
        let mut ctx = Context::new();
        let a = ctx.symbol(32, "a");
        let b = ctx.symbol(32, "b");
        let mut constraints = decided_offset(&mut ctx, a, 3);
        constraints.extend(decided_offset(&mut ctx, b, 1));
        let mut expected = vec![(a, 3), (b, 1)];
        expected.sort_unstable();
        assert_eq!(forced_lanes(&ctx, &constraints), expected);

        // Two exclusions leave two values: nothing is forced.
        assert_eq!(forced_lanes(&ctx, &constraints[..2]), vec![]);
        // Two different equalities (a dead path) force nothing either.
        let mut dead = decided_offset(&mut ctx, b, 0);
        dead.extend(decided_offset(&mut ctx, b, 2));
        assert_eq!(forced_lanes(&ctx, &dead), vec![]);
    }

    #[test]
    fn lane_shifts_and_word_indices_fold() {
        let mut ctx = Context::new();
        let addr = ctx.symbol(32, "addr");
        let constraints = decided_offset(&mut ctx, addr, 1);
        let facts = forced_lanes(&ctx, &constraints);
        let (two, three) = (ctx.constant(32, 2), ctx.constant(32, 3));
        let next = ctx.add(addr, two);
        let lane = ctx.and(next, three);
        let word = ctx.lshr(next, two);
        let base_word = ctx.lshr(addr, two);
        let past = ctx.add(addr, three);
        let crossing = ctx.lshr(past, two);

        let mut lanes = LaneRewriter::default();
        let folded = lanes.rewrite(&mut ctx, facts.clone(), lane);
        assert_eq!(ctx.const_value(folded), Some(3));
        assert_eq!(lanes.rewrite(&mut ctx, facts.clone(), word), base_word);
        // 1 + 3 carries into bit 2: that word index stays as it is.
        assert_eq!(lanes.rewrite(&mut ctx, facts.clone(), crossing), crossing);
        // Without facts nothing is rebuilt.
        assert_eq!(lanes.rewrite(&mut ctx, Vec::new(), lane), lane);
    }

    /// A recipe for a random 32-bit term over an address `A`, a data
    /// word `D` and the shapes the models build around them.
    #[derive(Debug, Clone)]
    enum Recipe {
        Addr,
        AddrPlus(u64),
        Data,
        Const(u64),
        LowBits(Box<Recipe>),
        WordIndex(Box<Recipe>),
        Aligned(Box<Recipe>),
        LaneShift(Box<Recipe>, Box<Recipe>),
        Bin(u8, Box<Recipe>, Box<Recipe>),
        IteEq(Box<Recipe>, Box<Recipe>, Box<Recipe>, Box<Recipe>),
    }

    fn recipe(rng: &mut Rng, depth: usize) -> Recipe {
        if depth == 0 || rng.chance(1, 4) {
            return match rng.index(4) {
                0 => Recipe::Addr,
                1 => Recipe::AddrPlus(match rng.index(3) {
                    0 => rng.below(8),
                    1 => u64::from(rng.next_u32()),
                    _ => 0xffff_fffc | rng.below(4),
                }),
                2 => Recipe::Data,
                _ => Recipe::Const(u64::from(rng.next_u32()) >> rng.below(32)),
            };
        }
        let sub = |rng: &mut Rng| Box::new(recipe(rng, depth - 1));
        match rng.index(6) {
            0 => Recipe::LowBits(sub(rng)),
            1 => Recipe::WordIndex(sub(rng)),
            2 => Recipe::Aligned(sub(rng)),
            3 => Recipe::LaneShift(sub(rng), sub(rng)),
            4 => Recipe::Bin(rng.below(6) as u8, sub(rng), sub(rng)),
            _ => Recipe::IteEq(sub(rng), sub(rng), sub(rng), sub(rng)),
        }
    }

    fn build(ctx: &mut Context, addr: TermId, recipe: &Recipe) -> TermId {
        let three = ctx.constant(32, 3);
        match recipe {
            Recipe::Addr => addr,
            Recipe::AddrPlus(k) => {
                let k = ctx.constant(32, *k);
                ctx.add(addr, k)
            }
            Recipe::Data => ctx.symbol(32, "d"),
            Recipe::Const(v) => ctx.constant(32, *v),
            Recipe::LowBits(x) => {
                let x = build(ctx, addr, x);
                ctx.and(x, three)
            }
            Recipe::WordIndex(x) => {
                let x = build(ctx, addr, x);
                let two = ctx.constant(32, 2);
                ctx.lshr(x, two)
            }
            Recipe::Aligned(x) => {
                let x = build(ctx, addr, x);
                let aligned = ctx.constant(32, 0xffff_fffc);
                ctx.and(x, aligned)
            }
            Recipe::LaneShift(w, x) => {
                let w = build(ctx, addr, w);
                let x = build(ctx, addr, x);
                let lane = ctx.and(x, three);
                let shift = ctx.shl(lane, three);
                ctx.lshr(w, shift)
            }
            Recipe::Bin(op, x, y) => {
                let x = build(ctx, addr, x);
                let y = build(ctx, addr, y);
                match op {
                    0 => ctx.and(x, y),
                    1 => ctx.or(x, y),
                    2 => ctx.add(x, y),
                    3 => ctx.sub(x, y),
                    4 => ctx.shl(x, y),
                    _ => ctx.lshr(x, y),
                }
            }
            Recipe::IteEq(x, y, t, e) => {
                let x = build(ctx, addr, x);
                let y = build(ctx, addr, y);
                let cond = ctx.eq(x, y);
                let t = build(ctx, addr, t);
                let e = build(ctx, addr, e);
                ctx.ite(cond, t, e)
            }
        }
    }

    /// The rebuilt term evaluates to the original's value in every model
    /// of the forced lane, whether the address is a symbol or a sum.
    #[test]
    fn rewrites_agree_with_the_evaluator_under_the_forced_lane() {
        check_cases(0x1a4e_0001, 256, |rng| {
            let mut ctx = Context::new();
            let a = ctx.symbol(32, "a");
            let addr = if rng.chance(1, 2) {
                a
            } else {
                let b = ctx.symbol(32, "b");
                ctx.add(a, b)
            };
            let c = rng.below(4);
            let constraints = decided_offset(&mut ctx, addr, c);
            let facts = forced_lanes(&ctx, &constraints);
            assert_eq!(facts, vec![(addr, c)]);
            let recipe = recipe(rng, 5);
            let term = build(&mut ctx, addr, &recipe);
            let rebuilt = LaneRewriter::default().rewrite(&mut ctx, facts, term);
            for _ in 0..8 {
                let mut env = Env::new();
                let a_value = u64::from(rng.next_u32());
                let b_value = u64::from(rng.next_u32());
                // Pick `b` so that the address's low bits are `c`.
                let b_value = if addr == a {
                    b_value
                } else {
                    (b_value & !3) | (c.wrapping_sub(a_value) & 3)
                };
                let a_value = if addr == a {
                    (a_value & !3) | c
                } else {
                    a_value
                };
                env.insert("a".to_string(), a_value);
                env.insert("b".to_string(), b_value);
                env.insert("d".to_string(), u64::from(rng.next_u32()));
                assert_eq!(eval(&ctx, addr, &env) & 3, c);
                assert_eq!(
                    eval(&ctx, rebuilt, &env),
                    eval(&ctx, term, &env),
                    "{recipe:?} under addr & 3 == {c}"
                );
            }
        });
    }
}
