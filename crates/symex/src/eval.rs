//! Concrete evaluation of terms under an environment.
//!
//! Used by the test suites to check the bit-blaster and the simplifier
//! against a ground-truth interpreter, and by [`TestVector`] replay.
//!
//! [`TestVector`]: crate::TestVector

use std::collections::HashMap;
use std::hash::BuildHasher;

use crate::context::{mask, to_signed};
use crate::hash::TermMap;
use crate::term::{Node, TermId};
use crate::Context;

/// An assignment of concrete values to symbol names.
pub type Env = HashMap<String, u64>;

/// Evaluates `term` under `env`.
///
/// Unbound symbols evaluate to zero (matching the solver's behaviour of
/// leaving unconstrained inputs at an arbitrary-but-reported value; the test
/// suites always bind every symbol).
///
/// # Panics
///
/// Panics if `term` does not belong to `ctx`.
///
/// # Example
///
/// ```
/// use symcosim_symex::{eval, Context, Env};
///
/// let mut ctx = Context::new();
/// let x = ctx.symbol(32, "x");
/// let k = ctx.constant(32, 2);
/// let doubled = ctx.mul(x, k);
///
/// let mut env = Env::new();
/// env.insert("x".to_string(), 21);
/// assert_eq!(eval(&ctx, doubled, &env), 42);
/// ```
pub fn eval(ctx: &Context, term: TermId, env: &Env) -> u64 {
    let mut memo = TermMap::default();
    eval_memo(ctx, term, env, &mut memo)
}

/// Evaluates `term` under `env`, memoising per-term results in `memo`.
///
/// Hash-consing makes subterm sharing pervasive, so naive tree recursion
/// is exponential in the worst case; with the memo table evaluation is
/// linear in the term *graph*. Callers evaluating several terms under the
/// same environment (e.g. the solver chain testing a cached model against
/// a whole condition set) should reuse one `memo` across the calls; the
/// memo is only valid for a single `(ctx, env)` pair. Any hasher will
/// do for the memo.
pub fn eval_memo<S: BuildHasher>(
    ctx: &Context,
    term: TermId,
    env: &Env,
    memo: &mut HashMap<TermId, u64, S>,
) -> u64 {
    if let Some(&cached) = memo.get(&term) {
        return cached;
    }
    let width = ctx.width(term);
    let value = match ctx.node(term) {
        Node::Const { value, .. } => value,
        Node::Symbol { .. } => {
            let name = ctx.symbol_name(term).expect("symbol node has a name");
            env.get(name).copied().unwrap_or(0)
        }
        Node::Not(a) => !eval_memo(ctx, a, env, memo),
        Node::And(a, b) => eval_memo(ctx, a, env, memo) & eval_memo(ctx, b, env, memo),
        Node::Or(a, b) => eval_memo(ctx, a, env, memo) | eval_memo(ctx, b, env, memo),
        Node::Xor(a, b) => eval_memo(ctx, a, env, memo) ^ eval_memo(ctx, b, env, memo),
        Node::Add(a, b) => eval_memo(ctx, a, env, memo).wrapping_add(eval_memo(ctx, b, env, memo)),
        Node::Sub(a, b) => eval_memo(ctx, a, env, memo).wrapping_sub(eval_memo(ctx, b, env, memo)),
        Node::Mul(a, b) => eval_memo(ctx, a, env, memo).wrapping_mul(eval_memo(ctx, b, env, memo)),
        Node::Shl(a, s) => {
            let shift = eval_memo(ctx, s, env, memo);
            if shift >= width as u64 {
                0
            } else {
                eval_memo(ctx, a, env, memo) << shift
            }
        }
        Node::Lshr(a, s) => {
            let shift = eval_memo(ctx, s, env, memo);
            if shift >= width as u64 {
                0
            } else {
                mask(width, eval_memo(ctx, a, env, memo)) >> shift
            }
        }
        Node::Ashr(a, s) => {
            let shift = eval_memo(ctx, s, env, memo).min(width as u64 - 1) as u32;
            let signed = to_signed(width, mask(width, eval_memo(ctx, a, env, memo)));
            (signed >> shift) as u64
        }
        Node::Eq(a, b) => {
            let wa = ctx.width(a);
            (mask(wa, eval_memo(ctx, a, env, memo)) == mask(wa, eval_memo(ctx, b, env, memo)))
                as u64
        }
        Node::Ult(a, b) => {
            let wa = ctx.width(a);
            (mask(wa, eval_memo(ctx, a, env, memo)) < mask(wa, eval_memo(ctx, b, env, memo))) as u64
        }
        Node::Slt(a, b) => {
            let wa = ctx.width(a);
            (to_signed(wa, mask(wa, eval_memo(ctx, a, env, memo)))
                < to_signed(wa, mask(wa, eval_memo(ctx, b, env, memo)))) as u64
        }
        Node::Ite(c, t, e) => {
            if eval_memo(ctx, c, env, memo) & 1 == 1 {
                eval_memo(ctx, t, env, memo)
            } else {
                eval_memo(ctx, e, env, memo)
            }
        }
        Node::Extract { term, lo, .. } => eval_memo(ctx, term, env, memo) >> lo,
        Node::Concat { hi, lo } => {
            let lo_width = ctx.width(lo);
            (eval_memo(ctx, hi, env, memo) << lo_width)
                | mask(lo_width, eval_memo(ctx, lo, env, memo))
        }
        Node::ZeroExt { term, .. } => {
            let source_width = ctx.width(term);
            mask(source_width, eval_memo(ctx, term, env, memo))
        }
        Node::SignExt { term, .. } => {
            let source_width = ctx.width(term);
            to_signed(
                source_width,
                mask(source_width, eval_memo(ctx, term, env, memo)),
            ) as u64
        }
    };
    let result = mask(width, value);
    memo.insert(term, result);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluates_mixed_expression() {
        let mut ctx = Context::new();
        let x = ctx.symbol(32, "x");
        let y = ctx.symbol(32, "y");
        let sum = ctx.add(x, y);
        let three = ctx.constant(32, 3);
        let shifted = ctx.shl(sum, three);
        let mut env = Env::new();
        env.insert("x".into(), 5);
        env.insert("y".into(), 7);
        assert_eq!(eval(&ctx, shifted, &env), 96);
    }

    #[test]
    fn unbound_symbols_are_zero() {
        let mut ctx = Context::new();
        let x = ctx.symbol(16, "unbound");
        assert_eq!(eval(&ctx, x, &Env::new()), 0);
    }

    #[test]
    fn narrow_widths_wrap() {
        let mut ctx = Context::new();
        let x = ctx.symbol(8, "x");
        let one = ctx.constant(8, 1);
        let sum = ctx.add(x, one);
        let mut env = Env::new();
        env.insert("x".into(), 0xff);
        assert_eq!(eval(&ctx, sum, &env), 0);
    }

    #[test]
    fn memoised_eval_handles_deep_sharing() {
        // A 64-level doubling chain has 2^64 tree nodes but only 64 graph
        // nodes; this only terminates because eval is memoised.
        let mut ctx = Context::new();
        let mut t = ctx.symbol(32, "x");
        for _ in 0..64 {
            t = ctx.add(t, t);
        }
        let mut env = Env::new();
        env.insert("x".into(), 1);
        assert_eq!(eval(&ctx, t, &env), 0, "1 << 64 wraps to 0 at width 32");
        env.insert("x".into(), 3);
        let mut memo = HashMap::new();
        assert_eq!(eval_memo(&ctx, t, &env, &mut memo), 0);
        assert!(memo.len() >= 64);
    }

    #[test]
    fn ite_and_compares() {
        let mut ctx = Context::new();
        let x = ctx.symbol(32, "x");
        let limit = ctx.constant(32, 10);
        let cond = ctx.ult(x, limit);
        let yes = ctx.constant(32, 1);
        let no = ctx.constant(32, 2);
        let result = ctx.ite(cond, yes, no);
        let mut env = Env::new();
        env.insert("x".into(), 3);
        assert_eq!(eval(&ctx, result, &env), 1);
        env.insert("x".into(), 30);
        assert_eq!(eval(&ctx, result, &env), 2);
    }
}
