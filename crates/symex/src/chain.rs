//! KLEE-style solver chain: independence slicing plus a counterexample
//! cache in front of the SAT solver.
//!
//! The chain answers feasibility queries (conjunctions of width-1 terms)
//! without running the solver whenever it can:
//!
//! 1. **Independence slicing** — the condition set is partitioned into
//!    connected components of the "shares a symbol" relation. Components
//!    constrain disjoint inputs, so the conjunction is satisfiable exactly
//!    when every component is satisfiable on its own, and each component
//!    can be answered (and cached) independently. Path exploration grows
//!    condition sets one branch at a time, so all components untouched by
//!    the new condition replay as cache hits.
//! 2. **Counterexample cache** — every component the solver refutes is
//!    stored as its minimized UNSAT assumption core (from
//!    [`Solver::unsat_core`]). Any later component containing all of a
//!    known core's conditions is unsatisfiable by monotonicity, without
//!    solving.
//! 3. **Model cache** — recent satisfying models are kept as concrete
//!    environments; if one of them evaluates every condition of a
//!    component to true, the component is satisfiable, without solving.
//!    Models are only *candidates*: they are always validated by concrete
//!    evaluation, so an irrelevant cached model costs time but never
//!    soundness.
//!
//! The chain never changes an answer — only how it is computed — so
//! exploration results are bit-identical with the chain on or off (gated
//! by the `chain_equivalence` integration tests).
//!
//! The chain also holds the path engine's forced environment
//! ([`PathFacts`]): the engine asks it before building any query, and a
//! branch condition the path already decides is answered there without
//! reaching the stages above ([`SolverChain::forced`]).

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fmt;
use std::rc::Rc;

use symcosim_sat::{Lit, SolveResult, Solver};

use crate::absint::PathFacts;
use crate::audit::ProofAuditor;
use crate::blast::Blaster;
use crate::eval::{eval_memo, Env};
use crate::solve::CheckResult;
use crate::term::{Node, TermId};
use crate::Context;

/// Satisfying models kept for the model cache. Small on purpose: models
/// are tried newest-first with full concrete evaluation, so a long tail
/// of stale models would cost more than the solves it saves.
const MODEL_LIMIT: usize = 32;

/// Counters of the solver chain (see the [module docs](self)), the
/// chain-level analogue of
/// [`QueryCacheStats`](crate::QueryCacheStats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverChainStats {
    /// Condition sets routed through the chain.
    pub queries: u64,
    /// Queries the path engine answered from its forced environment
    /// (see [`SolverBackend::forced`](crate::SolverBackend::forced)),
    /// before any query key is built. Each is also counted in `queries`.
    pub preflight_hits: u64,
    /// Independent components (slices) those sets were split into.
    pub slices: u64,
    /// Components answered by the exact per-component cache.
    pub slice_hits: u64,
    /// Components answered Unsat by unsat-core subsumption.
    pub core_hits: u64,
    /// Components answered Sat by evaluating a cached model.
    pub model_hits: u64,
    /// Components that fell through to the SAT solver.
    pub solves: u64,
    /// Solver-level solves that reused a retained assumption prefix from
    /// the previous query (see `Solver::reused_assumption_levels`).
    pub prefix_reuse_hits: u64,
    /// Largest component examined, in conditions.
    pub max_slice: u64,
}

impl SolverChainStats {
    /// Component-wise sum (maximum for `max_slice`), for aggregating
    /// per-worker statistics.
    pub fn merge(self, other: SolverChainStats) -> SolverChainStats {
        SolverChainStats {
            queries: self.queries + other.queries,
            preflight_hits: self.preflight_hits + other.preflight_hits,
            slices: self.slices + other.slices,
            slice_hits: self.slice_hits + other.slice_hits,
            core_hits: self.core_hits + other.core_hits,
            model_hits: self.model_hits + other.model_hits,
            solves: self.solves + other.solves,
            prefix_reuse_hits: self.prefix_reuse_hits + other.prefix_reuse_hits,
            max_slice: self.max_slice.max(other.max_slice),
        }
    }
}

impl fmt::Display for SolverChainStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "queries={} preflight_hits={} slices={} slice_hits={} core_hits={} model_hits={} \
             solves={} prefix_reuse_hits={} max_slice={}",
            self.queries,
            self.preflight_hits,
            self.slices,
            self.slice_hits,
            self.core_hits,
            self.model_hits,
            self.solves,
            self.prefix_reuse_hits,
            self.max_slice
        )
    }
}

impl std::str::FromStr for SolverChainStats {
    type Err = String;

    /// Parses the `Display` form back; the round trip pins the printed
    /// field set to the struct (and, transitively, to the
    /// `--progress-json` event fields gated in `exec`).
    fn from_str(s: &str) -> Result<SolverChainStats, String> {
        let mut stats = SolverChainStats::default();
        let mut seen = 0u32;
        for pair in s.split_whitespace() {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("malformed chain stat `{pair}`"))?;
            let value: u64 = value
                .parse()
                .map_err(|_| format!("non-numeric chain stat `{pair}`"))?;
            let field = match key {
                "queries" => &mut stats.queries,
                "preflight_hits" => &mut stats.preflight_hits,
                "slices" => &mut stats.slices,
                "slice_hits" => &mut stats.slice_hits,
                "core_hits" => &mut stats.core_hits,
                "model_hits" => &mut stats.model_hits,
                "solves" => &mut stats.solves,
                "prefix_reuse_hits" => &mut stats.prefix_reuse_hits,
                "max_slice" => &mut stats.max_slice,
                other => return Err(format!("unknown chain stat `{other}`")),
            };
            *field = value;
            seen += 1;
        }
        if seen != 9 {
            return Err(format!("expected 9 chain stats, found {seen}"));
        }
        Ok(stats)
    }
}

/// A portable snapshot of a [`SolverChain`]'s caches, for warming a later
/// run's chain (e.g. the serve daemon re-running the same job slice).
///
/// Model environments are keyed by symbol *name*, so they transfer to any
/// context and are re-validated by concrete evaluation before answering —
/// importing them is always sound. The component memo and unsat cores are
/// keyed by [`TermId`], which only lines up when the importing run builds
/// the identical term graph; deterministic exploration guarantees that
/// exactly when the seed is keyed on the full job configuration (config
/// hash, slice cube, engine, seed), which is the importer's obligation.
#[derive(Debug, Clone, Default)]
pub struct ChainSeed {
    components: Vec<(Box<[TermId]>, CheckResult)>,
    cores: Vec<Box<[TermId]>>,
    models: Vec<Env>,
}

impl ChainSeed {
    /// Whether the seed carries no cached facts at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.components.is_empty() && self.cores.is_empty() && self.models.is_empty()
    }

    /// Total cached entries (components + cores + models), for reporting.
    #[must_use]
    pub fn entries(&self) -> usize {
        self.components.len() + self.cores.len() + self.models.len()
    }
}

/// The chain's caches. Owned by
/// [`SolverBackend`](crate::SolverBackend); the solver and blaster are
/// passed in per call so the chain shares the backend's incremental
/// solver state.
#[derive(Debug)]
pub(crate) struct SolverChain {
    /// Memoised symbol support per term (sorted, deduplicated).
    support: HashMap<TermId, Rc<Vec<TermId>>>,
    /// Exact per-component memo (the slicing analogue of the backend's
    /// full-set query cache).
    components: HashMap<Box<[TermId]>, CheckResult>,
    /// Known-unsat condition sets (sorted), minimized via assumption
    /// cores. Kept mutually non-subsuming.
    cores: Vec<Box<[TermId]>>,
    /// Recent satisfying models, newest first.
    models: VecDeque<Rc<Env>>,
    /// The forced environment of the path the engine is exploring.
    path_facts: PathFacts,
    /// Whether [`SolverChain::forced`] answers (on by default; answers
    /// never change, only how they are computed).
    preflight: bool,
    stats: SolverChainStats,
}

impl Default for SolverChain {
    fn default() -> SolverChain {
        SolverChain {
            support: HashMap::new(),
            components: HashMap::new(),
            cores: Vec::new(),
            models: VecDeque::new(),
            path_facts: PathFacts::default(),
            preflight: true,
            stats: SolverChainStats::default(),
        }
    }
}

impl SolverChain {
    pub(crate) fn new() -> SolverChain {
        SolverChain::default()
    }

    pub(crate) fn stats(&self) -> SolverChainStats {
        self.stats
    }

    /// Enables or disables [`SolverChain::forced`].
    pub(crate) fn set_preflight(&mut self, enabled: bool) {
        self.preflight = enabled;
    }

    pub(crate) fn preflight_enabled(&self) -> bool {
        self.preflight
    }

    /// Exports the chain's caches as an owned, `Send`-able seed.
    pub(crate) fn export_seed(&self) -> ChainSeed {
        ChainSeed {
            components: self
                .components
                .iter()
                .map(|(k, &v)| (k.clone(), v))
                .collect(),
            cores: self.cores.clone(),
            models: self.models.iter().map(|env| (**env).clone()).collect(),
        }
    }

    /// Pre-loads the caches from a seed exported by an identical run (see
    /// [`ChainSeed`] for the keying obligation). Existing entries win on
    /// conflict; model capacity still applies.
    pub(crate) fn import_seed(&mut self, seed: &ChainSeed) {
        for (component, result) in &seed.components {
            self.components.entry(component.clone()).or_insert(*result);
        }
        for core in &seed.cores {
            if !self.subsumed_by_core(core) {
                self.cores.retain(|stored| !is_subset(core, stored));
                self.cores.push(core.clone());
            }
        }
        for env in &seed.models {
            if self.models.len() == MODEL_LIMIT {
                break;
            }
            self.models.push_back(Rc::new(env.clone()));
        }
    }

    /// Chain entry point: checks the conjunction of `conditions`
    /// (already sorted and deduplicated by the caller). With `audit`
    /// present, every cache-producing solve — the answers that seed the
    /// core and model caches — is replayed through the independent proof
    /// checker before it is stored.
    pub(crate) fn check(
        &mut self,
        ctx: &Context,
        solver: &mut Solver,
        blaster: &mut Blaster,
        conditions: &[TermId],
        mut audit: Option<&mut ProofAuditor>,
    ) -> CheckResult {
        self.stats.queries += 1;

        // Constant conditions never reach the solver: a false one decides
        // the query, true ones are no constraint at all.
        let mut pending: Vec<TermId> = Vec::with_capacity(conditions.len());
        for &c in conditions {
            match ctx.const_value(c) {
                Some(0) => return CheckResult::Unsat,
                Some(_) => {}
                None => pending.push(c),
            }
        }
        if pending.is_empty() {
            return CheckResult::Sat;
        }

        for component in self.partition(ctx, &pending) {
            self.stats.slices += 1;
            self.stats.max_slice = self.stats.max_slice.max(component.len() as u64);
            if self.check_component(ctx, solver, blaster, &component, audit.as_deref_mut())
                == CheckResult::Unsat
            {
                return CheckResult::Unsat;
            }
        }
        CheckResult::Sat
    }

    /// Answers `path ∧ cond` from the forced environment of `path` (see
    /// [`PathFacts::value`]), counting the answer as a query and a
    /// preflight hit. `None` when the environment leaves `cond` open, or
    /// the check is switched off. The caller vouches that `path` is
    /// satisfiable, which a `Sat` answer relies on.
    pub(crate) fn forced(
        &mut self,
        ctx: &Context,
        path: &[TermId],
        cond: TermId,
    ) -> Option<CheckResult> {
        if !self.preflight {
            return None;
        }
        let value = self.path_facts.value(ctx, path, cond)?;
        self.stats.queries += 1;
        self.stats.preflight_hits += 1;
        Some(if value {
            CheckResult::Sat
        } else {
            CheckResult::Unsat
        })
    }

    /// Splits `conditions` into connected components of the shared-symbol
    /// relation. Conditions over disjoint symbols are independent: a model
    /// for the conjunction is exactly one model per component, glued
    /// together. Symbol-free (yet non-constant) conditions share no
    /// symbol with anything, so each forms a singleton component.
    fn partition(&mut self, ctx: &Context, conditions: &[TermId]) -> Vec<Box<[TermId]>> {
        let supports: Vec<Rc<Vec<TermId>>> =
            conditions.iter().map(|&c| self.support(ctx, c)).collect();

        // Union-find over condition indices, linked through first-seen
        // symbol owners.
        let mut parent: Vec<usize> = (0..conditions.len()).collect();
        fn find(parent: &mut [usize], mut i: usize) -> usize {
            while parent[i] != i {
                parent[i] = parent[parent[i]]; // path halving
                i = parent[i];
            }
            i
        }
        let mut owner: HashMap<TermId, usize> = HashMap::new();
        for (i, support) in supports.iter().enumerate() {
            for &sym in support.iter() {
                match owner.entry(sym) {
                    Entry::Occupied(o) => {
                        let a = find(&mut parent, i);
                        let b = find(&mut parent, *o.get());
                        parent[a.max(b)] = a.min(b);
                    }
                    Entry::Vacant(v) => {
                        v.insert(i);
                    }
                }
            }
        }

        // Group by root; BTreeMap keeps components in first-condition
        // order, so the split is deterministic.
        let mut groups: BTreeMap<usize, Vec<TermId>> = BTreeMap::new();
        for (i, &condition) in conditions.iter().enumerate() {
            let root = find(&mut parent, i);
            groups.entry(root).or_default().push(condition);
        }
        groups
            .into_values()
            .map(|mut group| {
                group.sort_unstable();
                group.into_boxed_slice()
            })
            .collect()
    }

    /// The sorted set of symbols `term` depends on, memoised per term.
    fn support(&mut self, ctx: &Context, term: TermId) -> Rc<Vec<TermId>> {
        if let Some(cached) = self.support.get(&term) {
            return Rc::clone(cached);
        }
        let children: Vec<TermId> = match ctx.node(term) {
            Node::Const { .. } => Vec::new(),
            Node::Symbol { .. } => {
                let rc = Rc::new(vec![term]);
                self.support.insert(term, Rc::clone(&rc));
                return rc;
            }
            Node::Not(a)
            | Node::Extract { term: a, .. }
            | Node::ZeroExt { term: a, .. }
            | Node::SignExt { term: a, .. } => vec![a],
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
            | Node::Concat { hi: a, lo: b } => vec![a, b],
            Node::Ite(c, t, e) => vec![c, t, e],
        };
        let mut symbols: Vec<TermId> = Vec::new();
        for child in children {
            let child_support = self.support(ctx, child);
            symbols.extend(child_support.iter().copied());
        }
        symbols.sort_unstable();
        symbols.dedup();
        let rc = Rc::new(symbols);
        self.support.insert(term, Rc::clone(&rc));
        rc
    }

    /// Runs one component through the cache levels, solving only at the
    /// bottom.
    fn check_component(
        &mut self,
        ctx: &Context,
        solver: &mut Solver,
        blaster: &mut Blaster,
        component: &[TermId],
        audit: Option<&mut ProofAuditor>,
    ) -> CheckResult {
        if let Some(&cached) = self.components.get(component) {
            self.stats.slice_hits += 1;
            return cached;
        }
        if self.subsumed_by_core(component) {
            self.stats.core_hits += 1;
            self.components.insert(component.into(), CheckResult::Unsat);
            return CheckResult::Unsat;
        }
        if self.satisfied_by_cached_model(ctx, component) {
            self.stats.model_hits += 1;
            self.components.insert(component.into(), CheckResult::Sat);
            return CheckResult::Sat;
        }

        self.stats.solves += 1;
        let assumptions: Vec<Lit> = component
            .iter()
            .map(|&c| blaster.bool_lit(ctx, solver, c))
            .collect();
        let result = solver.solve(&assumptions);
        if solver.reused_assumption_levels() > 0 {
            self.stats.prefix_reuse_hits += 1;
        }
        let result = match result {
            SolveResult::Sat => {
                if let Some(auditor) = audit {
                    auditor.audit_sat(solver);
                }
                self.store_model(ctx, solver, blaster, component);
                CheckResult::Sat
            }
            SolveResult::Unsat => {
                if let Some(auditor) = audit {
                    auditor.audit_unsat(solver);
                }
                self.store_core(solver.unsat_core(), &assumptions, component);
                CheckResult::Unsat
            }
        };
        self.components.insert(component.into(), result);
        result
    }

    /// `true` if some stored core is a subset of `component` (sorted).
    fn subsumed_by_core(&self, component: &[TermId]) -> bool {
        self.cores.iter().any(|core| is_subset(core, component))
    }

    /// Maps the solver's assumption core back to condition terms and
    /// stores it, keeping the core set mutually non-subsuming. An empty
    /// solver core (formula-level unsat) degrades to the full component —
    /// still a valid unsat set.
    fn store_core(&mut self, core_lits: &[Lit], assumptions: &[Lit], component: &[TermId]) {
        let lits: HashSet<Lit> = core_lits.iter().copied().collect();
        let mut core: Vec<TermId> = component
            .iter()
            .zip(assumptions)
            .filter(|(_, lit)| lits.contains(lit))
            .map(|(&term, _)| term)
            .collect();
        if core.is_empty() {
            core = component.to_vec();
        }
        core.sort_unstable();
        core.dedup();
        if self.subsumed_by_core(&core) {
            return;
        }
        self.cores.retain(|stored| !is_subset(&core, stored));
        self.cores.push(core.into_boxed_slice());
    }

    /// Tries every cached model, newest first; a model satisfying all of
    /// `component` proves satisfiability.
    fn satisfied_by_cached_model(&self, ctx: &Context, component: &[TermId]) -> bool {
        self.models.iter().any(|env| {
            let mut memo = HashMap::new();
            component
                .iter()
                .all(|&c| eval_memo(ctx, c, env, &mut memo) & 1 == 1)
        })
    }

    /// Captures the solver's current model over the component's symbols
    /// as a concrete environment. Bits the model is silent about read as
    /// zero — harmless, since cached models are re-validated by
    /// evaluation before ever answering a query.
    fn store_model(
        &mut self,
        ctx: &Context,
        solver: &mut Solver,
        blaster: &mut Blaster,
        component: &[TermId],
    ) {
        let mut symbols: Vec<TermId> = Vec::new();
        for &c in component {
            symbols.extend(self.support(ctx, c).iter().copied());
        }
        symbols.sort_unstable();
        symbols.dedup();

        let mut env = Env::new();
        for sym in symbols {
            let bits = blaster.bits(ctx, solver, sym);
            let mut value = 0u64;
            for (i, lit) in bits.iter().enumerate() {
                if solver.model_lit_value(*lit) == Some(true) {
                    value |= 1 << i;
                }
            }
            let name = ctx.symbol_name(sym).expect("support holds symbols");
            env.insert(name.to_string(), value);
        }
        if self.models.len() == MODEL_LIMIT {
            self.models.pop_back();
        }
        self.models.push_front(Rc::new(env));
    }
}

/// Subset test over sorted slices (merge walk).
fn is_subset(small: &[TermId], big: &[TermId]) -> bool {
    let mut iter = big.iter();
    'outer: for needle in small {
        for candidate in iter.by_ref() {
            if candidate == needle {
                continue 'outer;
            }
            if candidate > needle {
                return false;
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_parts() -> (SolverChain, Solver, Blaster) {
        (SolverChain::new(), Solver::new(), Blaster::new())
    }

    #[test]
    fn subset_walk() {
        let t = |i: u32| TermId(i);
        assert!(is_subset(&[], &[t(1), t(2)]));
        assert!(is_subset(&[t(2)], &[t(1), t(2), t(3)]));
        assert!(is_subset(&[t(1), t(3)], &[t(1), t(2), t(3)]));
        assert!(!is_subset(&[t(1), t(4)], &[t(1), t(2), t(3)]));
        assert!(!is_subset(&[t(0)], &[t(1)]));
        assert!(!is_subset(&[t(1)], &[]));
    }

    #[test]
    fn independent_conditions_split_into_components() {
        let mut ctx = Context::new();
        let x = ctx.symbol(8, "x");
        let y = ctx.symbol(8, "y");
        let c1 = ctx.constant(8, 1);
        let x1 = ctx.eq(x, c1);
        let y1 = ctx.eq(y, c1);
        let mut chain = SolverChain::new();
        let parts = chain.partition(&ctx, &[x1, y1]);
        assert_eq!(parts.len(), 2);

        // A condition over both symbols glues them together.
        let sum = ctx.add(x, y);
        let bound = ctx.ult(sum, c1);
        let parts = chain.partition(&ctx, &[x1, y1, bound]);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].len(), 3);
    }

    #[test]
    fn growing_prefix_resolves_untouched_components_from_cache() {
        let mut ctx = Context::new();
        let x = ctx.symbol(8, "x");
        let y = ctx.symbol(8, "y");
        let c1 = ctx.constant(8, 1);
        let c2 = ctx.constant(8, 2);
        let x1 = ctx.eq(x, c1);
        let y1 = ctx.eq(y, c1);
        let y2 = ctx.eq(y, c2);

        let (mut chain, mut solver, mut blaster) = chain_parts();
        assert!(chain
            .check(&ctx, &mut solver, &mut blaster, &[x1], None)
            .is_sat());
        // Adding the independent y-condition re-solves only its slice.
        assert!(chain
            .check(&ctx, &mut solver, &mut blaster, &[x1, y1], None)
            .is_sat());
        let stats = chain.stats();
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.slice_hits, 1, "x-slice replays from the cache");
        assert_eq!(stats.solves, 2, "one solve per distinct slice");

        // y = 1 ∧ y = 2 is unsat; the x-slice is never re-examined by
        // the solver, and the whole-set answer is still Unsat.
        assert!(!chain
            .check(&ctx, &mut solver, &mut blaster, &[x1, y1, y2], None)
            .is_sat());
        assert_eq!(chain.stats().slice_hits, 2);
    }

    #[test]
    fn unsat_core_subsumption_answers_supersets() {
        let mut ctx = Context::new();
        let x = ctx.symbol(8, "x");
        let c1 = ctx.constant(8, 1);
        let c2 = ctx.constant(8, 2);
        let c3 = ctx.constant(8, 3);
        let x1 = ctx.eq(x, c1);
        let x2 = ctx.eq(x, c2);
        let x3 = ctx.eq(x, c3);

        let (mut chain, mut solver, mut blaster) = chain_parts();
        assert!(!chain
            .check(&ctx, &mut solver, &mut blaster, &[x1, x2], None)
            .is_sat());
        let solves = chain.stats().solves;
        // {x1, x2, x3} ⊇ the stored core: answered without solving. The
        // superset is a different component key, so this is subsumption,
        // not the exact component cache.
        assert!(!chain
            .check(&ctx, &mut solver, &mut blaster, &[x1, x2, x3], None)
            .is_sat());
        assert_eq!(chain.stats().solves, solves);
        assert_eq!(chain.stats().core_hits, 1);
    }

    #[test]
    fn cached_model_answers_weaker_queries() {
        let mut ctx = Context::new();
        let x = ctx.symbol(8, "x");
        let c5 = ctx.constant(8, 5);
        let c100 = ctx.constant(8, 100);
        let is5 = ctx.eq(x, c5);
        let small = ctx.ult(x, c100);

        let (mut chain, mut solver, mut blaster) = chain_parts();
        assert!(chain
            .check(&ctx, &mut solver, &mut blaster, &[is5], None)
            .is_sat());
        // The x = 5 model also witnesses x < 100.
        assert!(chain
            .check(&ctx, &mut solver, &mut blaster, &[small], None)
            .is_sat());
        let stats = chain.stats();
        assert_eq!(stats.model_hits, 1);
        assert_eq!(stats.solves, 1);
    }

    #[test]
    fn constant_conditions_short_circuit() {
        let mut ctx = Context::new();
        let x = ctx.symbol(8, "x");
        let c1 = ctx.constant(8, 1);
        let x1 = ctx.eq(x, c1);
        let truth = ctx.constant(1, 1);
        let falsum = ctx.constant(1, 0);

        let (mut chain, mut solver, mut blaster) = chain_parts();
        assert!(chain
            .check(&ctx, &mut solver, &mut blaster, &[truth], None)
            .is_sat());
        assert!(!chain
            .check(&ctx, &mut solver, &mut blaster, &[falsum, x1], None)
            .is_sat());
        let stats = chain.stats();
        assert_eq!(stats.solves, 0, "no constant query may reach the solver");
    }

    #[test]
    fn exported_seed_warms_a_fresh_chain() {
        let mut ctx = Context::new();
        let x = ctx.symbol(8, "x");
        let c1 = ctx.constant(8, 1);
        let c2 = ctx.constant(8, 2);
        let x1 = ctx.eq(x, c1);
        let x2 = ctx.eq(x, c2);

        // First run: one sat solve, one unsat solve (with a stored core
        // and a stored model).
        let (mut chain, mut solver, mut blaster) = chain_parts();
        assert!(chain
            .check(&ctx, &mut solver, &mut blaster, &[x1], None)
            .is_sat());
        assert!(!chain
            .check(&ctx, &mut solver, &mut blaster, &[x1, x2], None)
            .is_sat());
        let seed = chain.export_seed();
        assert!(!seed.is_empty());
        assert!(seed.entries() >= 3, "components + core + model");

        // Second run over the same term graph, warmed: identical answers
        // with zero solves.
        let (mut warmed, mut solver2, mut blaster2) = chain_parts();
        warmed.import_seed(&seed);
        assert!(warmed
            .check(&ctx, &mut solver2, &mut blaster2, &[x1], None)
            .is_sat());
        assert!(!warmed
            .check(&ctx, &mut solver2, &mut blaster2, &[x1, x2], None)
            .is_sat());
        let stats = warmed.stats();
        assert_eq!(stats.solves, 0, "warm chain must not re-solve: {stats}");
        assert_eq!(stats.slice_hits, 2);

        // The seeded model also answers *new* weaker queries.
        let c100 = ctx.constant(8, 100);
        let small = ctx.ult(x, c100);
        assert!(warmed
            .check(&ctx, &mut solver2, &mut blaster2, &[small], None)
            .is_sat());
        assert_eq!(warmed.stats().model_hits, 1);
        assert_eq!(warmed.stats().solves, 0);
    }

    #[test]
    fn empty_seed_is_a_no_op() {
        let seed = ChainSeed::default();
        assert!(seed.is_empty());
        assert_eq!(seed.entries(), 0);
        let mut chain = SolverChain::new();
        chain.import_seed(&seed);
        assert_eq!(chain.export_seed().entries(), 0);
    }

    #[test]
    fn chain_stats_display_round_trips() {
        let stats = SolverChainStats {
            queries: 11,
            preflight_hits: 9,
            slices: 22,
            slice_hits: 33,
            core_hits: 44,
            model_hits: 55,
            solves: 66,
            prefix_reuse_hits: 77,
            max_slice: 7,
        };
        let printed = stats.to_string();
        let parsed: SolverChainStats = printed.parse().expect("display form parses");
        assert_eq!(parsed, stats, "Display must carry every field");
        assert!("queries=1".parse::<SolverChainStats>().is_err());
        assert!(
            "queries=1 preflight_hits=0 slices=x slice_hits=0 core_hits=0 model_hits=0 \
             solves=0 prefix_reuse_hits=0 max_slice=0"
                .parse::<SolverChainStats>()
                .is_err()
        );
    }

    #[test]
    fn stats_merge_sums_and_maxes() {
        let a = SolverChainStats {
            queries: 1,
            preflight_hits: 9,
            slices: 2,
            slice_hits: 3,
            core_hits: 4,
            model_hits: 5,
            solves: 6,
            prefix_reuse_hits: 7,
            max_slice: 7,
        };
        let b = SolverChainStats {
            queries: 10,
            preflight_hits: 90,
            slices: 20,
            slice_hits: 30,
            core_hits: 40,
            model_hits: 50,
            solves: 60,
            prefix_reuse_hits: 70,
            max_slice: 3,
        };
        let merged = a.merge(b);
        assert_eq!(merged.queries, 11);
        assert_eq!(merged.preflight_hits, 99);
        assert_eq!(merged.slices, 22);
        assert_eq!(merged.slice_hits, 33);
        assert_eq!(merged.core_hits, 44);
        assert_eq!(merged.model_hits, 55);
        assert_eq!(merged.solves, 66);
        assert_eq!(merged.prefix_reuse_hits, 77);
        assert_eq!(merged.max_slice, 7);
        assert!(!merged.to_string().is_empty());
    }

    #[test]
    fn forced_conflicts_are_refuted_without_solving() {
        let mut ctx = Context::new();
        let x = ctx.symbol(8, "x");
        let c1 = ctx.constant(8, 1);
        let c2 = ctx.constant(8, 2);
        let x1 = ctx.eq(x, c1);
        let x2 = ctx.eq(x, c2);

        let mut chain = SolverChain::new();
        assert!(chain.preflight_enabled(), "the forced check defaults on");
        assert_eq!(chain.forced(&ctx, &[x1], x2), Some(CheckResult::Unsat));
        let stats = chain.stats();
        assert_eq!(stats.queries, 1, "an answer counts as a query");
        assert_eq!(stats.preflight_hits, 1);
        assert_eq!(stats.solves, 0, "refuted before the solver");
        assert_eq!(stats.slices, 0, "answered before slicing");
    }

    #[test]
    fn static_tautologies_are_accepted_without_solving() {
        let mut ctx = Context::new();
        let b = ctx.symbol(1, "b");
        let wide = ctx.zero_ext(b, 32);
        let c2 = ctx.constant(32, 2);
        let taut = ctx.ult(wide, c2);

        let mut chain = SolverChain::new();
        assert_eq!(chain.forced(&ctx, &[], taut), Some(CheckResult::Sat));
        let stats = chain.stats();
        assert_eq!(stats.preflight_hits, 1);
        assert_eq!(stats.solves, 0);
    }

    #[test]
    fn a_held_register_compare_answers_its_negation_without_solving() {
        let mut ctx = Context::new();
        let a = ctx.symbol(32, "a");
        let b = ctx.symbol(32, "b");
        let same = ctx.eq(a, b);
        let differ = ctx.not(same);

        let mut chain = SolverChain::new();
        assert_eq!(
            chain.forced(&ctx, &[same], differ),
            Some(CheckResult::Unsat)
        );
        assert_eq!(chain.forced(&ctx, &[same], same), Some(CheckResult::Sat));
        let stats = chain.stats();
        assert_eq!(stats.preflight_hits, 2);
        assert_eq!(stats.solves, 0);
    }

    #[test]
    fn preflight_off_reaches_the_solver_with_identical_answers() {
        let mut ctx = Context::new();
        let x = ctx.symbol(8, "x");
        let c1 = ctx.constant(8, 1);
        let c2 = ctx.constant(8, 2);
        let x1 = ctx.eq(x, c1);
        let x2 = ctx.eq(x, c2);

        let (mut chain, mut solver, mut blaster) = chain_parts();
        chain.set_preflight(false);
        assert_eq!(chain.forced(&ctx, &[x1], x2), None, "the check is off");
        assert!(!chain
            .check(&ctx, &mut solver, &mut blaster, &[x1, x2], None)
            .is_sat());
        let stats = chain.stats();
        assert_eq!(stats.preflight_hits, 0);
        assert!(stats.solves > 0, "the slice falls through to the solver");
    }
}
