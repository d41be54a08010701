//! Differential property tests: the bit-blaster against the concrete
//! evaluator, over randomly generated term DAGs.

use symcosim_symex::{eval, AbsInt, CheckResult, Context, Env, Node, SolverBackend, TermId};
use symcosim_testkit::{check_cases, Rng};

/// A recipe for building a random term over two 8-bit symbols.
#[derive(Debug, Clone)]
enum Recipe {
    X,
    Y,
    Const(u8),
    Not(Box<Recipe>),
    And(Box<Recipe>, Box<Recipe>),
    Or(Box<Recipe>, Box<Recipe>),
    Xor(Box<Recipe>, Box<Recipe>),
    Add(Box<Recipe>, Box<Recipe>),
    Sub(Box<Recipe>, Box<Recipe>),
    Mul(Box<Recipe>, Box<Recipe>),
    Shl(Box<Recipe>, Box<Recipe>),
    Lshr(Box<Recipe>, Box<Recipe>),
    Ashr(Box<Recipe>, Box<Recipe>),
    IteUlt(Box<Recipe>, Box<Recipe>, Box<Recipe>, Box<Recipe>),
}

fn build(ctx: &mut Context, recipe: &Recipe) -> TermId {
    match recipe {
        Recipe::X => ctx.symbol(8, "x"),
        Recipe::Y => ctx.symbol(8, "y"),
        Recipe::Const(v) => ctx.constant(8, *v as u64),
        Recipe::Not(a) => {
            let a = build(ctx, a);
            ctx.not(a)
        }
        Recipe::And(a, b) => {
            let (a, b) = (build(ctx, a), build(ctx, b));
            ctx.and(a, b)
        }
        Recipe::Or(a, b) => {
            let (a, b) = (build(ctx, a), build(ctx, b));
            ctx.or(a, b)
        }
        Recipe::Xor(a, b) => {
            let (a, b) = (build(ctx, a), build(ctx, b));
            ctx.xor(a, b)
        }
        Recipe::Add(a, b) => {
            let (a, b) = (build(ctx, a), build(ctx, b));
            ctx.add(a, b)
        }
        Recipe::Sub(a, b) => {
            let (a, b) = (build(ctx, a), build(ctx, b));
            ctx.sub(a, b)
        }
        Recipe::Mul(a, b) => {
            let (a, b) = (build(ctx, a), build(ctx, b));
            ctx.mul(a, b)
        }
        Recipe::Shl(a, b) => {
            let (a, b) = (build(ctx, a), build(ctx, b));
            ctx.shl(a, b)
        }
        Recipe::Lshr(a, b) => {
            let (a, b) = (build(ctx, a), build(ctx, b));
            ctx.lshr(a, b)
        }
        Recipe::Ashr(a, b) => {
            let (a, b) = (build(ctx, a), build(ctx, b));
            ctx.ashr(a, b)
        }
        Recipe::IteUlt(a, b, t, e) => {
            let (a, b) = (build(ctx, a), build(ctx, b));
            let cond = ctx.ult(a, b);
            let (t, e) = (build(ctx, t), build(ctx, e));
            ctx.ite(cond, t, e)
        }
    }
}

/// A random recipe with bounded depth (matching the old proptest
/// `prop_recursive(4, ..)` shape: leaves grow more likely as depth runs out).
fn recipe(rng: &mut Rng, depth: usize) -> Recipe {
    if depth == 0 || rng.chance(1, 4) {
        return match rng.index(3) {
            0 => Recipe::X,
            1 => Recipe::Y,
            _ => Recipe::Const(rng.below(256) as u8),
        };
    }
    let d = depth - 1;
    match rng.index(11) {
        0 => Recipe::Not(Box::new(recipe(rng, d))),
        1 => Recipe::And(Box::new(recipe(rng, d)), Box::new(recipe(rng, d))),
        2 => Recipe::Or(Box::new(recipe(rng, d)), Box::new(recipe(rng, d))),
        3 => Recipe::Xor(Box::new(recipe(rng, d)), Box::new(recipe(rng, d))),
        4 => Recipe::Add(Box::new(recipe(rng, d)), Box::new(recipe(rng, d))),
        5 => Recipe::Sub(Box::new(recipe(rng, d)), Box::new(recipe(rng, d))),
        6 => Recipe::Mul(Box::new(recipe(rng, d)), Box::new(recipe(rng, d))),
        7 => Recipe::Shl(Box::new(recipe(rng, d)), Box::new(recipe(rng, d))),
        8 => Recipe::Lshr(Box::new(recipe(rng, d)), Box::new(recipe(rng, d))),
        9 => Recipe::Ashr(Box::new(recipe(rng, d)), Box::new(recipe(rng, d))),
        _ => Recipe::IteUlt(
            Box::new(recipe(rng, d)),
            Box::new(recipe(rng, d)),
            Box::new(recipe(rng, d)),
            Box::new(recipe(rng, d)),
        ),
    }
}

/// Under an input-fixing path condition, the blasted term is forced to
/// exactly the value the reference evaluator computes.
#[test]
fn blaster_agrees_with_evaluator() {
    check_cases(0xd1f_0001, 64, |rng| {
        let recipe = recipe(rng, 4);
        let x = rng.below(256) as u8;
        let y = rng.below(256) as u8;

        let mut ctx = Context::new();
        let term = build(&mut ctx, &recipe);
        let sym_x = ctx.symbol(8, "x");
        let sym_y = ctx.symbol(8, "y");

        let mut env = Env::new();
        env.insert("x".into(), x as u64);
        env.insert("y".into(), y as u64);
        let expected = eval(&ctx, term, &env);

        let cx = ctx.constant(8, x as u64);
        let cy = ctx.constant(8, y as u64);
        let fix_x = ctx.eq(sym_x, cx);
        let fix_y = ctx.eq(sym_y, cy);
        let cexp = ctx.constant(8, expected);
        let matches = ctx.eq(term, cexp);
        let differs = ctx.not(matches);

        let mut backend = SolverBackend::new();
        assert!(
            backend.check(&ctx, &[fix_x, fix_y, matches]).is_sat(),
            "expected value {expected:#x} must be consistent ({recipe:?})"
        );
        assert!(
            !backend.check(&ctx, &[fix_x, fix_y, differs]).is_sat(),
            "blasted term must be forced to {expected:#x} ({recipe:?})"
        );
    });
}

/// A random boolean condition over the two symbols: an equality with a
/// constant, an unsigned comparison, or a disequality of two terms.
fn condition(rng: &mut Rng, ctx: &mut Context) -> TermId {
    let a = build(ctx, &recipe(rng, 3));
    match rng.index(3) {
        0 => {
            let c = ctx.constant(8, rng.below(256));
            ctx.eq(a, c)
        }
        1 => {
            let b = build(ctx, &recipe(rng, 3));
            ctx.ult(a, b)
        }
        _ => {
            let b = build(ctx, &recipe(rng, 3));
            let e = ctx.eq(a, b);
            ctx.not(e)
        }
    }
}

/// The solver chain (independence slicing, counterexample-core
/// subsumption, cached-model evaluation) never flips an answer: over
/// random query sequences — with shared conditions across queries so the
/// component, core and model caches all get hits — a chained backend and
/// a direct backend agree on every Sat/Unsat verdict, and every
/// satisfiable set is witnessed by a model that replays to true through
/// the concrete evaluator.
#[test]
fn solver_chain_never_flips_answers() {
    check_cases(0xd1f_0003, 48, |rng| {
        let mut ctx = Context::new();
        let mut chained = SolverBackend::with_chain(true);
        let mut direct = SolverBackend::with_chain(false);

        let mut pool: Vec<TermId> = Vec::new();
        for _ in 0..6 {
            while pool.len() < 3 {
                pool.push(condition(rng, &mut ctx));
            }
            // Draw a set that mostly reuses pooled conditions (supersets
            // of previously unsat sets hit the core cache; repeats hit
            // the component cache) plus an occasional fresh one.
            let mut set: Vec<TermId> = (0..1 + rng.index(3))
                .map(|_| pool[rng.index(pool.len())])
                .collect();
            if rng.chance(1, 2) {
                let fresh = condition(rng, &mut ctx);
                pool.push(fresh);
                set.push(fresh);
            }

            let on = chained.check_cached(&ctx, &set);
            let off = direct.check_cached(&ctx, &set);
            assert_eq!(on, off, "solver chain flipped the answer on {set:?}");

            if on.is_sat() {
                // A fresh solve of the same set yields a model; it must
                // satisfy every condition under the reference evaluator.
                let mut fresh = SolverBackend::new();
                assert!(fresh.check(&ctx, &set).is_sat(), "re-solve of {set:?}");
                let env = fresh.test_vector(&ctx).to_env();
                for c in &set {
                    assert_eq!(
                        eval(&ctx, *c, &env),
                        1,
                        "model does not replay condition {c:?} of {set:?}"
                    );
                }
            }
        }
        assert!(chained.solver_chain_stats().queries > 0);
        assert_eq!(direct.solver_chain_stats().queries, 0);
    });
}

/// Proof auditing never flips an answer on term-tree queries: over the
/// same cache-heavy random query sequences as the chain test, an audited
/// chained backend and an unaudited one agree on every Sat/Unsat
/// verdict, the independent checker certifies every answer along the
/// way (models evaluated, cores replayed, no recorded failure), and the
/// unaudited backend accumulates no audit state at all.
#[test]
fn proof_audit_never_flips_term_queries() {
    check_cases(0xd1f_0004, 32, |rng| {
        let mut ctx = Context::new();
        let mut audited = SolverBackend::with_options(true, true);
        let mut plain = SolverBackend::with_options(true, false);

        let mut pool: Vec<TermId> = Vec::new();
        for _ in 0..6 {
            while pool.len() < 3 {
                pool.push(condition(rng, &mut ctx));
            }
            let mut set: Vec<TermId> = (0..1 + rng.index(3))
                .map(|_| pool[rng.index(pool.len())])
                .collect();
            if rng.chance(1, 2) {
                let fresh = condition(rng, &mut ctx);
                pool.push(fresh);
                set.push(fresh);
            }

            let on = audited.check_cached(&ctx, &set);
            let off = plain.check_cached(&ctx, &set);
            assert_eq!(on, off, "proof audit flipped the answer on {set:?}");
        }

        let stats = audited.proof_audit_stats();
        assert!(stats.steps > 0, "auditor applied no proof steps");
        assert!(
            stats.models + stats.cores > 0,
            "auditor certified no answers"
        );
        assert_eq!(stats.failures, 0, "{:?}", audited.proof_audit_failure());
        assert_eq!(plain.proof_audit_stats().steps, 0, "audit state leaked");
    });
}

/// Incremental solving never flips an answer on prefix-growing query
/// streams — the access pattern symbolic execution produces. Over
/// random sequences that grow a path prefix one condition at a time,
/// with occasional backtracks to a shallower fork point, three backends
/// agree on every verdict: an audited incremental backend driven
/// through the prefix API ([`SolverBackend::prefix_push`] /
/// [`SolverBackend::prefix_truncate`] / [`SolverBackend::check_suffix`],
/// so learnt clauses and trail prefixes are retained across queries),
/// the same configuration with incremental solving disabled, and a
/// fresh backend solving each query from scratch. Every satisfiable
/// prefix is witnessed by a model that replays through the reference
/// evaluator, and the auditor certifies every retained-prefix answer
/// (models evaluated, cores replayed) with no failures.
#[test]
fn incremental_prefix_streams_never_flip_answers() {
    check_cases(0xd1f_0005, 24, |rng| {
        let mut ctx = Context::new();
        let mut incremental = SolverBackend::with_options(true, true);
        let mut non_incremental = SolverBackend::with_options(true, true);
        non_incremental.set_incremental(false);
        assert!(incremental.incremental() && !non_incremental.incremental());

        let mut prefix: Vec<TermId> = Vec::new();
        for _ in 0..8 {
            if !prefix.is_empty() && rng.chance(1, 4) {
                // The engine backtracked: retract to a shallower fork.
                let keep = rng.index(prefix.len());
                prefix.truncate(keep);
                incremental.prefix_truncate(keep);
            }
            let cond = condition(rng, &mut ctx);
            prefix.push(cond);

            // The engine's query shape: tracked prefix + the one new
            // branch condition, committed only after the check.
            let inc = incremental.check_suffix(&ctx, &[cond]);
            incremental.prefix_push(cond);
            assert_eq!(incremental.prefix_len(), prefix.len());

            let non_inc = non_incremental.check_cached(&ctx, &prefix);
            assert_eq!(inc, non_inc, "incremental flipped the answer on {prefix:?}");
            let mut fresh = SolverBackend::new();
            let scratch = fresh.check(&ctx, &prefix);
            assert_eq!(
                inc, scratch,
                "retained state flipped the answer on {prefix:?}"
            );

            if scratch.is_sat() {
                let env = fresh.test_vector(&ctx).to_env();
                for c in &prefix {
                    assert_eq!(
                        eval(&ctx, *c, &env),
                        1,
                        "model does not replay condition {c:?} of {prefix:?}"
                    );
                }
            } else {
                // An infeasible path is dead: the engine drops it. Keep
                // the stream on feasible prefixes like the engine does.
                prefix.pop();
                incremental.prefix_truncate(prefix.len());
            }
        }

        for backend in [&incremental, &non_incremental] {
            let stats = backend.proof_audit_stats();
            assert!(stats.steps > 0, "auditor applied no proof steps");
            assert_eq!(stats.failures, 0, "{:?}", backend.proof_audit_failure());
        }
    });
}

/// Every subterm reachable from `roots`, deduplicated.
fn subterms(ctx: &Context, roots: &[TermId]) -> Vec<TermId> {
    let mut seen: Vec<TermId> = Vec::new();
    let mut work: Vec<TermId> = roots.to_vec();
    while let Some(id) = work.pop() {
        if seen.contains(&id) {
            continue;
        }
        seen.push(id);
        match ctx.node(id) {
            Node::Const { .. } | Node::Symbol { .. } => {}
            Node::Not(a)
            | Node::Extract { term: a, .. }
            | Node::ZeroExt { term: a, .. }
            | Node::SignExt { term: a, .. } => work.push(a),
            Node::And(a, b)
            | Node::Or(a, b)
            | Node::Xor(a, b)
            | Node::Add(a, b)
            | Node::Sub(a, b)
            | Node::Mul(a, b)
            | Node::Shl(a, b)
            | Node::Lshr(a, b)
            | Node::Ashr(a, b)
            | Node::Eq(a, b)
            | Node::Ult(a, b)
            | Node::Slt(a, b)
            | Node::Concat { hi: a, lo: b } => {
                work.push(a);
                work.push(b);
            }
            Node::Ite(c, t, e) => {
                work.push(c);
                work.push(t);
                work.push(e);
            }
        }
    }
    seen
}

/// A branch condition for the forced-environment test: a random
/// [`condition`], a shape the lattice decides alone (a known-bits
/// refutation, an interval tautology, a past-width shift bound), a
/// forcing equality `x == c` / `y == c` with a cone over it, or a
/// conjunct already on the path or its negation.
fn branch(rng: &mut Rng, ctx: &mut Context, path: &[TermId]) -> TermId {
    let x = ctx.symbol(8, "x");
    let y = ctx.symbol(8, "y");
    match rng.index(8) {
        0 | 1 => condition(rng, ctx),
        2 => {
            // Known bits refute (x | 0x80) == c with bit 7 of c clear.
            let high = ctx.constant(8, 0x80);
            let tagged = ctx.or(x, high);
            let c = ctx.constant(8, rng.below(0x100));
            ctx.eq(tagged, c)
        }
        3 => {
            // The interval lattice proves (x & 0xf) < 0x10.
            let low = ctx.constant(8, 0xf);
            let masked = ctx.and(x, low);
            let bound = ctx.constant(8, 0x10 - rng.below(2));
            ctx.ult(masked, bound)
        }
        4 => {
            // Sub-64-width shift clamp: a logical right shift whose
            // symbolic amount is at least the width. The subterm
            // containment check rejects any over-tight `hi`.
            let past_width = ctx.constant(8, 8 << rng.index(2));
            let amount = ctx.or(y, past_width);
            let shifted = ctx.lshr(x, amount);
            let small = ctx.constant(8, 1 + rng.below(3));
            ctx.ult(shifted, small)
        }
        5 => {
            let target = if rng.chance(1, 2) { x } else { y };
            let c = ctx.constant(8, rng.below(4));
            ctx.eq(target, c)
        }
        6 => {
            // A cone over the forced symbols.
            let one = ctx.constant(8, 1 + rng.below(2));
            let sum = ctx.add(x, one);
            let bound = ctx.constant(8, rng.below(6));
            ctx.ult(sum, bound)
        }
        _ => match path.len() {
            0 => condition(rng, ctx),
            n => {
                let held = path[rng.index(n)];
                if rng.chance(1, 2) {
                    held
                } else {
                    ctx.not(held)
                }
            }
        },
    }
}

/// The path's forced environment never contradicts the SAT core, and
/// never depends on what it was asked before. Along random growing path
/// conditions, each kept satisfiable by taking a branch condition or its
/// negation, every answer [`SolverBackend::forced`] gives on one
/// long-lived backend equals a fresh solve of `path ∪ {cond}` and the
/// answer of a fresh backend asked about the same path; all three
/// outcomes (`Sat`, `Unsat`, open) occur. Paths that shrink (a sibling,
/// an earlier snapshot) continue with the other side of the conjunct
/// they dropped whenever it is feasible, which exercises the rollback to
/// a shared prefix. For every satisfiable path the solver's model lies
/// inside the abstraction of every subterm (known-bits cube and interval
/// both).
#[test]
fn path_facts_never_contradict_sat() {
    let mut sat_answers = 0u32;
    let mut unsat_answers = 0u32;
    let mut open = 0u32;
    let mut diverged = 0u32;
    check_cases(0xd1f_0006, 64, |rng| {
        let mut ctx = Context::new();
        let mut backend = SolverBackend::new();
        let mut path: Vec<TermId> = Vec::new();
        for _ in 0..8 {
            if !path.is_empty() && rng.chance(1, 5) {
                // A shorter path: a sibling or an earlier snapshot.
                let keep = rng.index(path.len());
                let dropped = path[keep];
                path.truncate(keep);
                let other = ctx.not(dropped);
                let mut sibling = path.clone();
                sibling.push(other);
                if SolverBackend::new().check(&ctx, &sibling).is_sat() {
                    path = sibling;
                    diverged += 1;
                }
            }
            let cond = branch(rng, &mut ctx, &path);
            let mut with = path.clone();
            with.push(cond);
            let fresh = SolverBackend::new().check(&ctx, &with);
            let answer = backend.forced(&ctx, &path, cond);
            assert_eq!(
                answer,
                SolverBackend::new().forced(&ctx, &path, cond),
                "the answer for {cond} on {path:?} depends on the query history"
            );
            match answer {
                Some(answer) => {
                    assert_eq!(
                        answer, fresh,
                        "forced answer for {cond} on {path:?} disagrees with the solver"
                    );
                    match answer {
                        CheckResult::Sat => sat_answers += 1,
                        CheckResult::Unsat => unsat_answers += 1,
                    }
                }
                None => open += 1,
            }
            // Take the feasible side, so the path stays satisfiable.
            path.push(if fresh.is_sat() { cond } else { ctx.not(cond) });
        }

        let mut solver = SolverBackend::new();
        assert!(
            solver.check(&ctx, &path).is_sat(),
            "the path stays satisfiable"
        );
        let env = solver.test_vector(&ctx).to_env();
        let mut absint = AbsInt::new();
        for term in subterms(&ctx, &path) {
            let value = eval(&ctx, term, &env);
            let fact = absint.fact(&ctx, term);
            assert!(
                fact.contains(value),
                "model value {value:#x} of {term} escapes its abstraction \
                 {fact:?} ({path:?})"
            );
        }
    });
    assert!(sat_answers > 0, "no case answered Sat");
    assert!(unsat_answers > 0, "no case answered Unsat");
    assert!(open > 0, "no case left a condition open");
    assert!(
        diverged > 0,
        "no truncated path took the dropped conjunct's other side"
    );
}

/// Models returned for an unconstrained term always satisfy the
/// condition they were asked for (soundness of model extraction).
#[test]
fn models_replay_through_the_evaluator() {
    check_cases(0xd1f_0002, 64, |rng| {
        let recipe = recipe(rng, 4);
        let target = rng.below(256) as u8;

        let mut ctx = Context::new();
        let term = build(&mut ctx, &recipe);
        let ctarget = ctx.constant(8, target as u64);
        let cond = ctx.eq(term, ctarget);
        let mut backend = SolverBackend::new();
        if backend.check(&ctx, &[cond]).is_sat() {
            let vector = backend.test_vector(&ctx);
            let env = vector.to_env();
            assert_eq!(
                eval(&ctx, cond, &env),
                1,
                "test vector {vector} does not reproduce the condition"
            );
        }
    });
}
