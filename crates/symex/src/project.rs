//! Projection of path conditions onto symbolic instruction-fetch slots.
//!
//! The coverage certifier needs, for every explored path, the set of
//! 32-bit instruction words the path accounts for — as ternary cubes
//! ([`Pattern`]s), so the completeness/disjointness theorems stay algebraic
//! with zero enumeration over the 2^32 space.
//!
//! A path condition is a conjunction of constraints over many symbols
//! (fetch slots, registers, data memory). Projecting it onto one fetch
//! slot `s` means computing `S(C) = { w : ∃ other symbols. C holds with
//! s = w }`. The projector computes a sound *over-approximation* of `S`
//! per constraint and intersects:
//!
//! * **slot-pure** constraints (mention only `s`) project *exactly*:
//!   `S(c) = { w : c(w) }`, and And/Or/Not commute with the set algebra.
//!   Small-support leaves are enumerated by Shannon decomposition over
//!   the dependent slot bits (at most `2^ENUM_LIMIT` concrete
//!   evaluations of the leaf, never of the space).
//! * **slot-free** constraints are dropped: on a feasible path they hold
//!   in the path's model, so they do not restrict the slot projection.
//! * **mixed** constraints are conservatively widened to the universe
//!   (after peeling top-level conjunctions), flagged `exact = false`.
//!
//! Widening only ever *grows* a path's claimed cover, which is the sound
//! direction for the disjointness theorem and — because decode-class
//! structure comes from slot-pure decide() constraints that project
//! exactly — does not mask genuinely dropped decode classes in the
//! completeness theorem (a dropped class stays excluded by the surviving
//! paths' exact decode cubes).

use std::collections::HashMap;
use std::rc::Rc;

use symcosim_isa::{Pattern, PatternSet};

use crate::eval::{eval, Env};
use crate::term::{Node, TermId};
use crate::Context;

/// How a constraint ended up on the path. Recorded by the executors in
/// lock-step with the constraint vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintOrigin {
    /// Pushed by `decide` — the value is the position in the path's
    /// decision bitstring.
    Decision(u32),
    /// Pushed by `assume` — a domain or environment assumption.
    Assumed,
    /// Pinned after the fact by `add_constraint` (e.g. the voter
    /// committing a witnessed mismatch). Excluded from projection: a
    /// commit narrows the path *after* its behaviour class is fixed, so
    /// including it would under-claim the class.
    Committed,
}

/// The projection of one path's condition onto one fetch slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotCoverage {
    /// Symbol name of the slot (e.g. `imem_00000000`).
    pub slot: String,
    /// Disjoint cubes over-approximating the words the path accounts for.
    pub cubes: Vec<Pattern>,
    /// Whether the cubes are exactly the projection (no widening anywhere).
    pub exact: bool,
    /// Decision-string positions whose condition was slot-pure and
    /// projected exactly: these decisions split the instruction space, so
    /// sibling subtrees at such a position must claim disjoint words.
    pub instr_decisions: Vec<u32>,
}

/// Maximum popcount of a leaf's slot-bit support before enumeration is
/// abandoned and the leaf is widened. `2^12` evaluations covers the widest
/// decode field the ISA uses (the 12-bit CSR address).
const ENUM_LIMIT: u32 = 12;

/// Per-bit abstract value of a term relative to one designated slot symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AbsBit {
    /// Constantly zero.
    Zero,
    /// Constantly one.
    One,
    /// Equal to slot bit `i`.
    Slot(u8),
    /// An unknown function of the given slot bits and, if `other`, of at
    /// least one non-slot symbol.
    Mix { slot: u32, other: bool },
}

impl AbsBit {
    fn deps(self) -> (u32, bool) {
        match self {
            AbsBit::Zero | AbsBit::One => (0, false),
            AbsBit::Slot(i) => (1u32 << i, false),
            AbsBit::Mix { slot, other } => (slot, other),
        }
    }

    fn mix2(a: AbsBit, b: AbsBit) -> AbsBit {
        let (s1, o1) = a.deps();
        let (s2, o2) = b.deps();
        AbsBit::Mix {
            slot: s1 | s2,
            other: o1 || o2,
        }
    }

    fn mix3(a: AbsBit, b: AbsBit, c: AbsBit) -> AbsBit {
        AbsBit::mix2(AbsBit::mix2(a, b), c)
    }
}

/// Slot-bit support and non-slot dependence of a (boolean) term.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Support {
    slot_bits: u32,
    other: bool,
}

impl Support {
    fn uses_slot(self) -> bool {
        self.slot_bits != 0
    }
}

/// Projects path conditions onto fetch slots, memoising the per-term
/// analyses so sibling paths in a session share the work (the contexts are
/// hash-consed, so structurally equal conditions hit the same entries).
#[derive(Debug, Default)]
pub struct Projector {
    bits: HashMap<(TermId, TermId), Rc<Vec<AbsBit>>>,
    proj: HashMap<(TermId, TermId), (PatternSet, bool)>,
}

impl Projector {
    /// Creates an empty projector.
    #[must_use]
    pub fn new() -> Projector {
        Projector::default()
    }

    /// Projects a path's constraint set onto every fetch slot it mentions.
    ///
    /// `constraints` and `origins` run in lock-step; `Committed` entries
    /// are skipped. Slots are the symbols of `ctx` whose name starts with
    /// `slot_prefix` and that appear in at least one projected constraint,
    /// reported in name order.
    pub fn project_path(
        &mut self,
        ctx: &Context,
        slot_prefix: &str,
        constraints: &[TermId],
        origins: &[ConstraintOrigin],
    ) -> Vec<SlotCoverage> {
        debug_assert_eq!(constraints.len(), origins.len());
        let mut slots: Vec<(String, TermId)> = ctx
            .symbols()
            .iter()
            .filter_map(|&sym| {
                let name = ctx.symbol_name(sym)?;
                (name.starts_with(slot_prefix) && ctx.width(sym) == 32)
                    .then(|| (name.to_string(), sym))
            })
            .collect();
        slots.sort();

        let mut out = Vec::new();
        for (name, slot) in slots {
            let mut cover = PatternSet::universe();
            let mut exact = true;
            let mut instr_decisions = Vec::new();
            let mut mentioned = false;
            for (&c, &origin) in constraints.iter().zip(origins) {
                if origin == ConstraintOrigin::Committed {
                    continue;
                }
                let support = self.support(ctx, slot, c);
                if !support.uses_slot() {
                    continue;
                }
                mentioned = true;
                let (set, set_exact) = self.constraint_cover(ctx, slot, c);
                cover = cover.intersect_set(&set);
                exact &= set_exact;
                if let ConstraintOrigin::Decision(index) = origin {
                    if !support.other && set_exact {
                        instr_decisions.push(index);
                    }
                }
            }
            if !mentioned {
                continue;
            }
            cover.sort_cubes();
            out.push(SlotCoverage {
                slot: name,
                cubes: cover.cubes().to_vec(),
                exact,
                instr_decisions,
            });
        }
        out
    }

    /// Over-approximate cover of one top-level constraint. Peels top-level
    /// conjunctions so a mixed `And(slot-pure, register-only)` still
    /// projects its pure half exactly (each conjunct of a feasible path
    /// holds in the path's model, so the slot-free halves drop out).
    fn constraint_cover(&mut self, ctx: &Context, slot: TermId, c: TermId) -> (PatternSet, bool) {
        let support = self.support(ctx, slot, c);
        if !support.uses_slot() {
            return (PatternSet::universe(), true);
        }
        if !support.other {
            return self.project_pure(ctx, slot, c);
        }
        if let Node::And(a, b) = ctx.node(c) {
            if ctx.width(c) == 1 {
                let (sa, ea) = self.constraint_cover(ctx, slot, a);
                let (sb, eb) = self.constraint_cover(ctx, slot, b);
                return (sa.intersect_set(&sb), ea && eb);
            }
        }
        (PatternSet::universe(), false)
    }

    /// Slot-bit support of a boolean term.
    fn support(&mut self, ctx: &Context, slot: TermId, term: TermId) -> Support {
        let bits = self.abs_bits(ctx, slot, term);
        let (slot_bits, other) = bits[0].deps();
        Support { slot_bits, other }
    }

    /// Exact projection of a slot-pure boolean term; `(universe, false)`
    /// when a sub-leaf's support defeats `ENUM_LIMIT` and the structure
    /// does not decompose.
    fn project_pure(&mut self, ctx: &Context, slot: TermId, term: TermId) -> (PatternSet, bool) {
        if let Some(hit) = self.proj.get(&(slot, term)) {
            return hit.clone();
        }
        let support = self.support(ctx, slot, term);
        debug_assert!(!support.other, "project_pure needs a slot-pure term");
        let result = if support.slot_bits.count_ones() <= ENUM_LIMIT {
            (self.enumerate(ctx, slot, term, support.slot_bits), true)
        } else {
            self.decompose(ctx, slot, term)
        };
        self.proj.insert((slot, term), result.clone());
        result
    }

    /// Structural decomposition of a wide slot-pure boolean term. All the
    /// combinators are exact over a single-symbol projection; only an
    /// opaque wide leaf widens (and a widened operand poisons `Not`/`Ite`
    /// toward the universe, which stays an over-approximation).
    fn decompose(&mut self, ctx: &Context, slot: TermId, term: TermId) -> (PatternSet, bool) {
        match ctx.node(term) {
            Node::Not(a) => {
                let (sa, ea) = self.project_pure(ctx, slot, a);
                if ea {
                    (sa.complement(), true)
                } else {
                    (PatternSet::universe(), false)
                }
            }
            Node::And(a, b) if ctx.width(term) == 1 => {
                let (sa, ea) = self.project_pure(ctx, slot, a);
                let (sb, eb) = self.project_pure(ctx, slot, b);
                (sa.intersect_set(&sb), ea && eb)
            }
            Node::Or(a, b) if ctx.width(term) == 1 => {
                let (sa, ea) = self.project_pure(ctx, slot, a);
                let (mut su, eb) = self.project_pure(ctx, slot, b);
                su.union_with(&sa);
                (su, ea && eb)
            }
            Node::Xor(a, b) if ctx.width(term) == 1 => {
                let (sa, ea) = self.project_pure(ctx, slot, a);
                let (sb, eb) = self.project_pure(ctx, slot, b);
                if ea && eb {
                    let mut only_a = sa.clone();
                    only_a.subtract_set(&sb);
                    let mut only_b = sb;
                    only_b.subtract_set(&sa);
                    only_a.union_with(&only_b);
                    (only_a, true)
                } else {
                    (PatternSet::universe(), false)
                }
            }
            Node::Ite(c, t, e) if ctx.width(term) == 1 => {
                let (sc, ec) = self.project_pure(ctx, slot, c);
                let (st, et) = self.project_pure(ctx, slot, t);
                let (se, ee) = self.project_pure(ctx, slot, e);
                if ec {
                    let mut then_side = sc.intersect_set(&st);
                    then_side.union_with(&sc.complement().intersect_set(&se));
                    (then_side, et && ee)
                } else {
                    let mut both = st;
                    both.union_with(&se);
                    (both, false)
                }
            }
            Node::Eq(a, b) => {
                // Wide equalities (e.g. `slot & 0xfe00707f == funct`) have
                // too many dependent bits for Shannon enumeration, but when
                // every bit of both sides is a constant or a single slot
                // bit, the equality is exactly one cube: each pair of bits
                // contributes a required slot-bit value or no constraint
                // at all.
                let va = self.abs_bits(ctx, slot, a);
                let vb = self.abs_bits(ctx, slot, b);
                match affine_eq_cube(&va, &vb) {
                    Some(Some(cube)) => {
                        let mut set = PatternSet::empty();
                        set.insert(&cube);
                        (set, true)
                    }
                    Some(None) => (PatternSet::empty(), true),
                    None => (PatternSet::universe(), false),
                }
            }
            _ => (PatternSet::universe(), false),
        }
    }

    /// Shannon enumeration of a slot-pure leaf over its dependent slot
    /// bits: `2^popcount(bits)` concrete evaluations, with adjacent
    /// half-cubes merged so an all-true subspace collapses back into one
    /// cube.
    fn enumerate(&self, ctx: &Context, slot: TermId, term: TermId, bits: u32) -> PatternSet {
        let slot_name = ctx.symbol_name(slot).expect("slot is a symbol").to_string();
        let mut env = Env::new();
        env.insert(slot_name.clone(), 0);
        let positions: Vec<u32> = (0..32).filter(|i| bits & (1 << i) != 0).collect();
        let cubes = shannon(ctx, term, &slot_name, &mut env, &positions, bits, 0);
        let mut set = PatternSet::empty();
        for cube in cubes {
            set.insert(&cube);
        }
        set.sort_cubes();
        set
    }

    /// Memoised per-bit abstract analysis relative to `slot`.
    fn abs_bits(&mut self, ctx: &Context, slot: TermId, term: TermId) -> Rc<Vec<AbsBit>> {
        if let Some(hit) = self.bits.get(&(slot, term)) {
            return Rc::clone(hit);
        }
        let width = ctx.width(term) as usize;
        let result: Vec<AbsBit> = match ctx.node(term) {
            Node::Const { value, .. } => (0..width)
                .map(|i| {
                    if value >> i & 1 == 1 {
                        AbsBit::One
                    } else {
                        AbsBit::Zero
                    }
                })
                .collect(),
            Node::Symbol { .. } => {
                if term == slot {
                    (0..width).map(|i| AbsBit::Slot(i as u8)).collect()
                } else {
                    vec![
                        AbsBit::Mix {
                            slot: 0,
                            other: true
                        };
                        width
                    ]
                }
            }
            Node::Not(a) => self
                .abs_bits(ctx, slot, a)
                .iter()
                .map(|&bit| match bit {
                    AbsBit::Zero => AbsBit::One,
                    AbsBit::One => AbsBit::Zero,
                    other => AbsBit::mix2(other, AbsBit::Zero),
                })
                .collect(),
            Node::And(a, b) => {
                let (va, vb) = (self.abs_bits(ctx, slot, a), self.abs_bits(ctx, slot, b));
                va.iter()
                    .zip(vb.iter())
                    .map(|(&x, &y)| match (x, y) {
                        (AbsBit::Zero, _) | (_, AbsBit::Zero) => AbsBit::Zero,
                        (AbsBit::One, z) | (z, AbsBit::One) => z,
                        (AbsBit::Slot(i), AbsBit::Slot(j)) if i == j => AbsBit::Slot(i),
                        _ => AbsBit::mix2(x, y),
                    })
                    .collect()
            }
            Node::Or(a, b) => {
                let (va, vb) = (self.abs_bits(ctx, slot, a), self.abs_bits(ctx, slot, b));
                va.iter()
                    .zip(vb.iter())
                    .map(|(&x, &y)| match (x, y) {
                        (AbsBit::One, _) | (_, AbsBit::One) => AbsBit::One,
                        (AbsBit::Zero, z) | (z, AbsBit::Zero) => z,
                        (AbsBit::Slot(i), AbsBit::Slot(j)) if i == j => AbsBit::Slot(i),
                        _ => AbsBit::mix2(x, y),
                    })
                    .collect()
            }
            Node::Xor(a, b) => {
                let (va, vb) = (self.abs_bits(ctx, slot, a), self.abs_bits(ctx, slot, b));
                va.iter()
                    .zip(vb.iter())
                    .map(|(&x, &y)| match (x, y) {
                        (AbsBit::Zero, z) | (z, AbsBit::Zero) => z,
                        (AbsBit::Slot(i), AbsBit::Slot(j)) if i == j => AbsBit::Zero,
                        _ => AbsBit::mix2(x, y),
                    })
                    .collect()
            }
            Node::Add(a, b) | Node::Sub(a, b) => {
                // Carries ripple upward: bit i depends on every input bit
                // at or below i.
                let (va, vb) = (self.abs_bits(ctx, slot, a), self.abs_bits(ctx, slot, b));
                let mut cum = (0u32, false);
                va.iter()
                    .zip(vb.iter())
                    .map(|(&x, &y)| {
                        let (sx, ox) = x.deps();
                        let (sy, oy) = y.deps();
                        cum = (cum.0 | sx | sy, cum.1 || ox || oy);
                        AbsBit::Mix {
                            slot: cum.0,
                            other: cum.1,
                        }
                    })
                    .collect()
            }
            Node::Mul(a, b) => self.smear(ctx, slot, &[a, b], width),
            Node::Shl(a, s) | Node::Lshr(a, s) | Node::Ashr(a, s) => {
                if let Some(shift) = ctx.const_value(s) {
                    let va = self.abs_bits(ctx, slot, a);
                    let shift = shift.min(width as u64) as usize;
                    let node = ctx.node(term);
                    (0..width)
                        .map(|i| match node {
                            Node::Shl(..) => {
                                if i >= shift && shift < width {
                                    va[i - shift]
                                } else {
                                    AbsBit::Zero
                                }
                            }
                            Node::Lshr(..) => {
                                if shift < width && i + shift < width {
                                    va[i + shift]
                                } else {
                                    AbsBit::Zero
                                }
                            }
                            _ => va[(i + shift).min(width - 1)],
                        })
                        .collect()
                } else {
                    self.smear(ctx, slot, &[a, s], width)
                }
            }
            Node::Eq(a, b) | Node::Ult(a, b) | Node::Slt(a, b) => self.smear(ctx, slot, &[a, b], 1),
            Node::Ite(c, t, e) => {
                let vc = self.abs_bits(ctx, slot, c);
                let (vt, ve) = (self.abs_bits(ctx, slot, t), self.abs_bits(ctx, slot, e));
                vt.iter()
                    .zip(ve.iter())
                    .map(|(&x, &y)| {
                        let concrete = matches!(x, AbsBit::Zero | AbsBit::One | AbsBit::Slot(_));
                        if x == y && concrete {
                            x
                        } else {
                            AbsBit::mix3(x, y, vc[0])
                        }
                    })
                    .collect()
            }
            Node::Extract { term: a, hi, lo } => {
                let va = self.abs_bits(ctx, slot, a);
                va[lo as usize..=hi as usize].to_vec()
            }
            Node::Concat { hi, lo } => {
                let (vh, vl) = (self.abs_bits(ctx, slot, hi), self.abs_bits(ctx, slot, lo));
                vl.iter().chain(vh.iter()).copied().collect()
            }
            Node::ZeroExt { term: a, .. } => {
                let va = self.abs_bits(ctx, slot, a);
                let mut v = va.to_vec();
                v.resize(width, AbsBit::Zero);
                v
            }
            Node::SignExt { term: a, .. } => {
                let va = self.abs_bits(ctx, slot, a);
                let top = *va.last().expect("nonzero width");
                let top = if matches!(top, AbsBit::Zero | AbsBit::One | AbsBit::Slot(_)) {
                    top
                } else {
                    AbsBit::mix2(top, AbsBit::Zero)
                };
                let mut v = va.to_vec();
                v.resize(width, top);
                v
            }
        };
        debug_assert_eq!(result.len(), width);
        let rc = Rc::new(result);
        self.bits.insert((slot, term), Rc::clone(&rc));
        rc
    }

    /// Every output bit depends on every bit of every operand.
    fn smear(
        &mut self,
        ctx: &Context,
        slot: TermId,
        operands: &[TermId],
        width: usize,
    ) -> Vec<AbsBit> {
        let mut total = (0u32, false);
        for &op in operands {
            for bit in self.abs_bits(ctx, slot, op).iter() {
                let (s, o) = bit.deps();
                total = (total.0 | s, total.1 || o);
            }
        }
        vec![
            AbsBit::Mix {
                slot: total.0,
                other: total.1,
            };
            width
        ]
    }
}

/// Cube form of a bitwise equality over abstract bit vectors.
///
/// Returns `None` when some bit pair is not cube-expressible (a `Mix`
/// bit, or two *different* slot bits, whose correlation a single cube
/// cannot state); `Some(None)` when the equality is contradictory (two
/// unequal constants, or conflicting requirements on one slot bit); and
/// `Some(Some(cube))` otherwise — the possibly-universal cube of slot
/// words satisfying the equality.
fn affine_eq_cube(lhs: &[AbsBit], rhs: &[AbsBit]) -> Option<Option<Pattern>> {
    let mut mask = 0u32;
    let mut value = 0u32;
    // Requires slot bit `i` to equal `bit`; false on conflict.
    fn require(mask: &mut u32, value: &mut u32, i: u8, bit: bool) -> bool {
        let m = 1u32 << i;
        if *mask & m != 0 {
            return (*value & m != 0) == bit;
        }
        *mask |= m;
        if bit {
            *value |= m;
        }
        true
    }
    for (&x, &y) in lhs.iter().zip(rhs) {
        let feasible = match (x, y) {
            (AbsBit::Zero, AbsBit::Zero) | (AbsBit::One, AbsBit::One) => true,
            (AbsBit::Zero, AbsBit::One) | (AbsBit::One, AbsBit::Zero) => false,
            (AbsBit::Slot(i), AbsBit::Slot(j)) if i == j => true,
            (AbsBit::Slot(i), AbsBit::One) | (AbsBit::One, AbsBit::Slot(i)) => {
                require(&mut mask, &mut value, i, true)
            }
            (AbsBit::Slot(i), AbsBit::Zero) | (AbsBit::Zero, AbsBit::Slot(i)) => {
                require(&mut mask, &mut value, i, false)
            }
            _ => return None,
        };
        if !feasible {
            return Some(None);
        }
    }
    Some(Some(Pattern::new(mask, value)))
}

/// Recursive Shannon split over `positions[depth..]`; leaves evaluate the
/// term with the slot bound to the accumulated assignment (free slot bits
/// zero — the term does not depend on them). Adjacent true half-cubes
/// merge on the way back up.
fn shannon(
    ctx: &Context,
    term: TermId,
    slot_name: &str,
    env: &mut Env,
    positions: &[u32],
    mask: u32,
    value: u32,
) -> Vec<Pattern> {
    let Some((&bit_index, rest)) = positions.split_first() else {
        *env.get_mut(slot_name).expect("slot bound") = u64::from(value);
        return if eval(ctx, term, env) & 1 == 1 {
            vec![Pattern::new(mask, value)]
        } else {
            Vec::new()
        };
    };
    let bit = 1u32 << bit_index;
    let lo = shannon(ctx, term, slot_name, env, rest, mask, value);
    let mut hi = shannon(ctx, term, slot_name, env, rest, mask, value | bit);
    let mut merged = Vec::with_capacity(lo.len() + hi.len());
    for cube in lo {
        let twin = Pattern::new(cube.mask, cube.value | bit);
        if let Some(pos) = hi.iter().position(|h| *h == twin) {
            hi.swap_remove(pos);
            merged.push(Pattern::new(cube.mask & !bit, cube.value));
        } else {
            merged.push(cube);
        }
    }
    merged.extend(hi);
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Context, TermId) {
        let mut ctx = Context::new();
        let slot = ctx.symbol(32, "imem_00000000");
        (ctx, slot)
    }

    fn field(ctx: &mut Context, word: TermId, hi: u32, lo: u32) -> TermId {
        let amount = ctx.constant(32, u64::from(lo));
        let shifted = ctx.lshr(word, amount);
        let mask = ctx.constant(32, (1u64 << (hi - lo + 1)) - 1);
        ctx.and(shifted, mask)
    }

    fn project_one(
        ctx: &Context,
        _slot: TermId,
        c: TermId,
        origin: ConstraintOrigin,
    ) -> SlotCoverage {
        let mut projector = Projector::new();
        let covers = projector.project_path(ctx, "imem_", &[c], &[origin]);
        assert_eq!(covers.len(), 1);
        covers.into_iter().next().unwrap()
    }

    #[test]
    fn opcode_equality_projects_to_its_exact_cube() {
        let (mut ctx, slot) = setup();
        let opcode = field(&mut ctx, slot, 6, 0);
        let target = ctx.constant(32, 0x63);
        let c = ctx.eq(opcode, target);
        let cover = project_one(&ctx, slot, c, ConstraintOrigin::Decision(0));
        assert!(cover.exact);
        assert_eq!(cover.cubes, vec![Pattern::new(0x7f, 0x63)]);
        assert_eq!(cover.instr_decisions, vec![0]);
    }

    #[test]
    fn negated_opcode_is_the_complement() {
        let (mut ctx, slot) = setup();
        let opcode = field(&mut ctx, slot, 6, 0);
        let target = ctx.constant(32, 0x73);
        let eq = ctx.eq(opcode, target);
        let c = ctx.not_bool(eq);
        let cover = project_one(&ctx, slot, c, ConstraintOrigin::Assumed);
        assert!(cover.exact);
        let set = {
            let mut s = PatternSet::empty();
            for cube in &cover.cubes {
                s.insert(cube);
            }
            s
        };
        assert_eq!(set.count(), (1u64 << 32) - (1u64 << 25));
        assert!(!set.covers(0x73));
        assert!(set.covers(0x63));
    }

    #[test]
    fn csr_range_enumerates_exactly() {
        let (mut ctx, slot) = setup();
        // csr field in [0xc00, 0xc02]: uge && ult on the 12-bit field.
        let csr = field(&mut ctx, slot, 31, 20);
        let lo = ctx.constant(32, 0xc00);
        let hi = ctx.constant(32, 0xc03);
        let below = ctx.ult(csr, lo);
        let ge = ctx.not_bool(below);
        let lt = ctx.ult(csr, hi);
        let c = ctx.and(ge, lt);
        let cover = project_one(&ctx, slot, c, ConstraintOrigin::Assumed);
        assert!(cover.exact);
        let mut set = PatternSet::empty();
        for cube in &cover.cubes {
            set.insert(cube);
        }
        // 3 CSR values × 2^20 free low bits.
        assert_eq!(set.count(), 3 << 20);
        assert!(set.covers(0xc00_00000));
        assert!(set.covers(0xc02_00073));
        assert!(!set.covers(0xc03_00000));
    }

    #[test]
    fn mixed_constraint_widens_to_universe_inexactly() {
        let (mut ctx, slot) = setup();
        let reg = ctx.symbol(32, "x1_0");
        let sum = ctx.add(slot, reg);
        let zero = ctx.constant(32, 0);
        let c = ctx.eq(sum, zero);
        let cover = project_one(&ctx, slot, c, ConstraintOrigin::Decision(3));
        assert!(!cover.exact);
        assert_eq!(cover.cubes, vec![Pattern::universe()]);
        assert!(cover.instr_decisions.is_empty());
    }

    #[test]
    fn mixed_conjunction_keeps_its_pure_half() {
        let (mut ctx, slot) = setup();
        let opcode = field(&mut ctx, slot, 6, 0);
        let target = ctx.constant(32, 0x33);
        let pure = ctx.eq(opcode, target);
        let reg = ctx.symbol(32, "x2_0");
        let limit = ctx.constant(32, 10);
        let free = ctx.ult(reg, limit);
        let c = ctx.and(pure, free);
        let cover = project_one(&ctx, slot, c, ConstraintOrigin::Assumed);
        assert_eq!(cover.cubes, vec![Pattern::new(0x7f, 0x33)]);
        assert!(cover.exact);
    }

    #[test]
    fn slot_free_constraints_are_invisible() {
        let (mut ctx, slot) = setup();
        let _ = slot;
        let reg = ctx.symbol(32, "x3_0");
        let zero = ctx.constant(32, 0);
        let c = ctx.ne(reg, zero);
        let mut projector = Projector::new();
        let covers = projector.project_path(&ctx, "imem_", &[c], &[ConstraintOrigin::Assumed]);
        assert!(covers.is_empty(), "no slot is mentioned");
    }

    #[test]
    fn committed_constraints_are_excluded() {
        let (mut ctx, slot) = setup();
        let opcode = field(&mut ctx, slot, 6, 0);
        let branch = ctx.constant(32, 0x63);
        let decided = ctx.eq(opcode, branch);
        let word = ctx.constant(32, 0x0000_0063);
        let committed = ctx.eq(slot, word);
        let mut projector = Projector::new();
        let covers = projector.project_path(
            &ctx,
            "imem_",
            &[decided, committed],
            &[ConstraintOrigin::Decision(0), ConstraintOrigin::Committed],
        );
        assert_eq!(covers.len(), 1);
        // The committed equality would narrow the cube to one word; it must
        // not.
        assert_eq!(covers[0].cubes, vec![Pattern::new(0x7f, 0x63)]);
    }

    #[test]
    fn wide_or_tree_decomposes_compositionally() {
        let (mut ctx, slot) = setup();
        // funct3 != 0 && (csr == 0x340 || csr in [0xc00, 0xc02]) — support
        // is 15 bits, above ENUM_LIMIT, so the And/Or structure must split.
        let funct3 = field(&mut ctx, slot, 14, 12);
        let zero = ctx.constant(32, 0);
        let f3_nonzero = ctx.ne(funct3, zero);
        let csr = field(&mut ctx, slot, 31, 20);
        let mscratch = ctx.constant(32, 0x340);
        let is_mscratch = ctx.eq(csr, mscratch);
        let lo = ctx.constant(32, 0xc00);
        let hi = ctx.constant(32, 0xc03);
        let below = ctx.ult(csr, lo);
        let ge = ctx.not_bool(below);
        let lt = ctx.ult(csr, hi);
        let in_range = ctx.and(ge, lt);
        let csr_ok = ctx.or(is_mscratch, in_range);
        let c = ctx.and(f3_nonzero, csr_ok);
        let cover = project_one(&ctx, slot, c, ConstraintOrigin::Assumed);
        assert!(cover.exact);
        let mut set = PatternSet::empty();
        for cube in &cover.cubes {
            set.insert(cube);
        }
        // 4 CSR values × 7 funct3 values × 2^17 remaining free bits.
        assert_eq!(set.count(), (4 * 7) << 17);
        assert!(set.covers(0x340_01000));
        assert!(!set.covers(0x340_00000));
        assert!(!set.covers(0x341_01000));
    }

    #[test]
    fn wide_masked_equality_projects_to_one_exact_cube() {
        // `slot & 0xfe00707f == SRAI-pattern` depends on 17 slot bits —
        // beyond ENUM_LIMIT — but is exactly one cube. This used to widen
        // to `(universe, inexact)`.
        let (mut ctx, slot) = setup();
        let mask = ctx.constant(32, 0xfe00_707f);
        let masked = ctx.and(slot, mask);
        let pattern = ctx.constant(32, 0x4000_5013);
        let c = ctx.eq(masked, pattern);
        let cover = project_one(&ctx, slot, c, ConstraintOrigin::Decision(1));
        assert!(cover.exact);
        assert_eq!(cover.cubes, vec![Pattern::new(0xfe00_707f, 0x4000_5013)]);
        assert_eq!(cover.instr_decisions, vec![1]);
    }

    #[test]
    fn full_word_equality_projects_to_a_point() {
        let (mut ctx, slot) = setup();
        let word = ctx.constant(32, 0x0000_0073);
        let c = ctx.eq(slot, word);
        let cover = project_one(&ctx, slot, c, ConstraintOrigin::Assumed);
        assert!(cover.exact);
        assert_eq!(cover.cubes, vec![Pattern::new(0xffff_ffff, 0x0000_0073)]);
    }

    #[test]
    fn contradictory_wide_equality_projects_to_the_empty_set() {
        // `slot & 0xfe00707f == 0x0100_0000` requires bit 24 to be 1, but
        // bit 24 is masked off — no word satisfies it.
        let (mut ctx, slot) = setup();
        let mask = ctx.constant(32, 0xfe00_707f);
        let masked = ctx.and(slot, mask);
        let unreachable = ctx.constant(32, 0x0100_0000);
        let c = ctx.eq(masked, unreachable);
        let cover = project_one(&ctx, slot, c, ConstraintOrigin::Assumed);
        assert!(cover.exact);
        assert!(cover.cubes.is_empty());
    }

    #[test]
    fn negated_wide_equality_is_the_exact_complement() {
        // decompose(Not) relies on the operand's exactness, so the new Eq
        // cube also sharpens negated wide equalities.
        let (mut ctx, slot) = setup();
        let word = ctx.constant(32, 0x0000_1234);
        let eq = ctx.eq(slot, word);
        let c = ctx.not_bool(eq);
        let cover = project_one(&ctx, slot, c, ConstraintOrigin::Assumed);
        assert!(cover.exact);
        let mut set = PatternSet::empty();
        for cube in &cover.cubes {
            set.insert(cube);
        }
        assert_eq!(set.count(), (1u64 << 32) - 1);
        assert!(!set.covers(0x0000_1234));
    }

    #[test]
    fn correlated_bit_equality_still_widens() {
        // `slot[7:0] == slot[15:8]` correlates different slot bits; no
        // single cube expresses it, so widening is still the answer.
        let (mut ctx, slot) = setup();
        let lo = field(&mut ctx, slot, 7, 0);
        let hi = field(&mut ctx, slot, 15, 8);
        let c = ctx.eq(lo, hi);
        let cover = project_one(&ctx, slot, c, ConstraintOrigin::Assumed);
        assert!(!cover.exact);
        assert_eq!(cover.cubes, vec![Pattern::universe()]);
    }

    #[test]
    fn projection_is_deterministic_and_cached() {
        let (mut ctx, slot) = setup();
        let opcode = field(&mut ctx, slot, 6, 0);
        let target = ctx.constant(32, 0x13);
        let c = ctx.eq(opcode, target);
        let mut projector = Projector::new();
        let a = projector.project_path(&ctx, "imem_", &[c], &[ConstraintOrigin::Decision(0)]);
        let b = projector.project_path(&ctx, "imem_", &[c], &[ConstraintOrigin::Decision(0)]);
        assert_eq!(a, b);
    }
}
