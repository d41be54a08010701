//! High-level solver facade: feasibility checks and model extraction.

use std::collections::HashMap;

use symcosim_sat::{CoreReplayUnit, Lit, SolveResult, Solver, SolverStats};

use crate::audit::{ProofAuditStats, ProofAuditor};
use crate::blast::Blaster;
use crate::chain::{ChainSeed, SolverChain, SolverChainStats};
use crate::term::TermId;
use crate::{Context, TestVector};

/// Outcome of a [`SolverBackend::check`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckResult {
    /// The conjunction of conditions is satisfiable.
    Sat,
    /// The conjunction of conditions is unsatisfiable.
    Unsat,
}

impl CheckResult {
    /// `true` for [`CheckResult::Sat`].
    pub fn is_sat(self) -> bool {
        self == CheckResult::Sat
    }
}

/// Hit/miss counters of the feasibility-query memoisation cache
/// (see [`SolverBackend::check_cached`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryCacheStats {
    /// Queries answered from the cache without touching the solver.
    pub hits: u64,
    /// Queries that had to run the SAT solver.
    pub misses: u64,
}

impl QueryCacheStats {
    /// Component-wise sum, for aggregating per-worker statistics.
    pub fn merge(self, other: QueryCacheStats) -> QueryCacheStats {
        QueryCacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
        }
    }
}

impl std::fmt::Display for QueryCacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "hits={} misses={}", self.hits, self.misses)
    }
}

impl std::str::FromStr for QueryCacheStats {
    type Err = String;

    /// Parses the `Display` form back; the round trip pins the printed
    /// field set to the struct.
    fn from_str(s: &str) -> Result<QueryCacheStats, String> {
        let mut stats = QueryCacheStats::default();
        let mut seen = 0u32;
        for pair in s.split_whitespace() {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("malformed cache stat `{pair}`"))?;
            let value: u64 = value
                .parse()
                .map_err(|_| format!("non-numeric cache stat `{pair}`"))?;
            match key {
                "hits" => stats.hits = value,
                "misses" => stats.misses = value,
                other => return Err(format!("unknown cache stat `{other}`")),
            }
            seen += 1;
        }
        if seen != 2 {
            return Err(format!("expected 2 cache stats, found {seen}"));
        }
        Ok(stats)
    }
}

/// Persistent solver state shared by all feasibility queries of an
/// exploration: one CDCL instance plus the bit-blasting cache.
///
/// Conditions are passed as *assumptions*, so clauses learnt for one path
/// condition accelerate all later queries (the incremental pattern KLEE
/// uses through its solver chain).
///
/// # Example
///
/// ```
/// use symcosim_symex::{Context, SolverBackend};
///
/// let mut ctx = Context::new();
/// let x = ctx.symbol(8, "x");
/// let c5 = ctx.constant(8, 5);
/// let lt = ctx.ult(x, c5);
/// let ge = ctx.not(lt);
///
/// let mut backend = SolverBackend::new();
/// assert!(backend.check(&ctx, &[lt]).is_sat());
/// assert!(backend.check(&ctx, &[ge]).is_sat());
/// assert!(!backend.check(&ctx, &[lt, ge]).is_sat());
/// ```
#[derive(Debug, Default)]
pub struct SolverBackend {
    solver: Solver,
    blaster: Blaster,
    cache: HashMap<Box<[TermId]>, CheckResult>,
    cache_stats: QueryCacheStats,
    /// The KLEE-style solver chain (see [`crate::chain`]); `None` when
    /// disabled, in which case cache misses solve the full condition set
    /// directly.
    chain: Option<SolverChain>,
    /// The proof auditor (see [`crate::audit`]); `None` unless auditing
    /// was requested, in which case the solver logs proofs and every
    /// answer is replayed through the independent checker.
    auditor: Option<Box<ProofAuditor>>,
    /// Bumped on every query; a model is readable only while
    /// `model_generation == Some(generation)`, i.e. the most recent query
    /// was a plain [`check`](Self::check) that answered Sat. This is what
    /// prevents [`value_of`](Self::value_of) from reading a *previous*
    /// query's stale model after a cached or chain-routed answer.
    generation: u64,
    model_generation: Option<u64>,
    /// The shared path-condition prefix maintained by the engines (see
    /// [`prefix_sync`](Self::prefix_sync)): queries via
    /// [`check_suffix`](Self::check_suffix) check `prefix ∪ suffix`.
    /// Purely a bookkeeping convenience — the prefix and suffix are
    /// recombined into the same sorted condition-set key `check_cached`
    /// would build, so verdicts and caching are unchanged; the speed
    /// comes from the solver retaining the prefix's propagation trail
    /// across consecutive queries.
    path_prefix: Vec<TermId>,
}

impl SolverBackend {
    /// Creates a fresh backend with the solver chain enabled.
    pub fn new() -> SolverBackend {
        SolverBackend::with_chain(true)
    }

    /// Creates a fresh backend, with the KLEE-style solver chain
    /// (independence slicing + counterexample/model caching, see
    /// [`crate::chain`]) enabled or disabled. The chain changes how
    /// [`check_cached`](Self::check_cached) answers are computed, never
    /// what they are.
    pub fn with_chain(enabled: bool) -> SolverBackend {
        SolverBackend::with_options(enabled, false)
    }

    /// Creates a fresh backend with the solver chain and proof auditing
    /// each enabled or disabled. With `audit` on, the SAT solver logs a
    /// clausal proof and every answer — including every chain
    /// cache-producing solve — is re-verified by the independent checker
    /// (see [`crate::audit`]). Auditing never changes an answer; it only
    /// counts certifications and failures
    /// ([`proof_audit_stats`](Self::proof_audit_stats)).
    pub fn with_options(chain: bool, audit: bool) -> SolverBackend {
        let mut backend = SolverBackend {
            chain: chain.then(SolverChain::new),
            ..SolverBackend::default()
        };
        if audit {
            backend.solver.enable_proof();
            backend.auditor = Some(Box::default());
        }
        backend
    }

    /// Creates a fresh backend with the solver chain, proof auditing, and
    /// incremental solving (assumption-prefix retention, see
    /// [`set_incremental`](Self::set_incremental)) each enabled or
    /// disabled.
    pub fn with_config(chain: bool, audit: bool, incremental: bool) -> SolverBackend {
        let mut backend = SolverBackend::with_options(chain, audit);
        backend.set_incremental(incremental);
        backend
    }

    /// Enables or disables incremental solving: with it on (the default),
    /// the underlying solver retains the propagation trail of the
    /// assumption prefix consecutive queries share, so prefix-growing
    /// query streams — the shape path exploration produces — skip
    /// re-establishing the shared conditions. Answers are identical
    /// either way; disabling exists for benchmarking and differential
    /// testing.
    pub fn set_incremental(&mut self, enabled: bool) {
        self.solver.set_assumption_reuse(enabled);
    }

    /// Whether incremental solving is enabled.
    pub fn incremental(&self) -> bool {
        self.solver.assumption_reuse()
    }

    /// Enables or disables [`forced`](Self::forced) (on by default). It
    /// is sound, so answers are identical either way; disabling keeps
    /// every answer on the SAT core, for benchmarking, differential
    /// testing and proof audits. A no-op when the chain itself is
    /// disabled, which disables `forced` too.
    pub fn set_preflight(&mut self, enabled: bool) {
        if let Some(chain) = &mut self.chain {
            chain.set_preflight(enabled);
        }
    }

    /// Whether [`forced`](Self::forced) answers (`false` when the chain
    /// itself is disabled).
    pub fn preflight(&self) -> bool {
        self.chain
            .as_ref()
            .is_some_and(SolverChain::preflight_enabled)
    }

    /// Answers `path ∧ cond` from the conjuncts of `path` alone, without
    /// building a query key: `Unsat` when they force `cond` false, `Sat`
    /// when they force it true, `None` when they leave it open or the
    /// check is off (see [`set_preflight`](Self::set_preflight)).
    ///
    /// The forced environment is absorbed incrementally, so a path
    /// engine asking after every new conjunct pays for each condition's
    /// cone only (KLEE's constraint manager rewrites new conditions with
    /// the path's `x == c` equalities to the same effect). `Sat` means
    /// `path ∧ cond ≡ path`, which is the solver's answer only if `path`
    /// is satisfiable: the caller vouches for that, as the engine does
    /// for every live path. An answer is counted as a chain query and a
    /// preflight hit, and leaves no readable model.
    pub fn forced(&mut self, ctx: &Context, path: &[TermId], cond: TermId) -> Option<CheckResult> {
        let result = self.chain.as_mut()?.forced(ctx, path, cond)?;
        self.generation += 1;
        Some(result)
    }

    /// Replaces the tracked path prefix with `constraints` (the engine's
    /// current path-condition set). Cheap when nothing changed.
    pub fn prefix_sync(&mut self, constraints: &[TermId]) {
        if self.path_prefix != constraints {
            self.path_prefix.clear();
            self.path_prefix.extend_from_slice(constraints);
        }
    }

    /// Appends one condition to the tracked path prefix (the engine took
    /// a branch).
    pub fn prefix_push(&mut self, condition: TermId) {
        self.path_prefix.push(condition);
    }

    /// Retracts the tracked path prefix to `len` conditions (the engine
    /// backtracked to a shallower fork point).
    pub fn prefix_truncate(&mut self, len: usize) {
        self.path_prefix.truncate(len);
    }

    /// Current length of the tracked path prefix, in conditions.
    pub fn prefix_len(&self) -> usize {
        self.path_prefix.len()
    }

    /// Checks the conjunction of the tracked path prefix and `suffix`.
    ///
    /// Exactly equivalent to [`check_cached`](Self::check_cached) on
    /// `prefix ∪ suffix` — same cache key, same verdict — but lets
    /// engines phrase per-path query streams as "prefix + one new
    /// condition", which is the access pattern the incremental solver
    /// core rewards.
    pub fn check_suffix(&mut self, ctx: &Context, suffix: &[TermId]) -> CheckResult {
        let mut conditions = std::mem::take(&mut self.path_prefix);
        let prefix_len = conditions.len();
        conditions.extend_from_slice(suffix);
        let result = self.check_cached(ctx, &conditions);
        conditions.truncate(prefix_len);
        self.path_prefix = conditions;
        result
    }

    /// Checks the conjunction of width-1 `conditions` for satisfiability.
    ///
    /// On [`CheckResult::Sat`] a model is retained and can be inspected
    /// with [`SolverBackend::value_of`] or exported with
    /// [`SolverBackend::test_vector`].
    ///
    /// # Panics
    ///
    /// Panics if any condition does not have width 1.
    pub fn check(&mut self, ctx: &Context, conditions: &[TermId]) -> CheckResult {
        self.generation += 1;
        let assumptions: Vec<Lit> = conditions
            .iter()
            .map(|&c| self.blaster.bool_lit(ctx, &mut self.solver, c))
            .collect();
        match self.solver.solve(&assumptions) {
            SolveResult::Sat => {
                if let Some(auditor) = self.auditor.as_mut() {
                    auditor.audit_sat(&mut self.solver);
                }
                self.model_generation = Some(self.generation);
                CheckResult::Sat
            }
            SolveResult::Unsat => {
                if let Some(auditor) = self.auditor.as_mut() {
                    auditor.audit_unsat(&mut self.solver);
                }
                self.model_generation = None;
                CheckResult::Unsat
            }
        }
    }

    /// Checks feasibility like [`check`](SolverBackend::check), memoising
    /// the answer per *condition set*.
    ///
    /// The cache key is the sorted, deduplicated list of condition terms,
    /// so the same conjunction asked in any order (as happens when sibling
    /// paths replay a shared prefix) is answered without re-running the
    /// solver. Because hash-consing makes term identity structural,
    /// equal keys mean equal formulas. Cache misses are answered by the
    /// solver chain when it is enabled (see
    /// [`with_chain`](Self::with_chain)), and by a direct full-set solve
    /// otherwise.
    ///
    /// `check_cached` never leaves a readable model behind — after it,
    /// [`value_of`](Self::value_of) and [`test_vector`](Self::test_vector)
    /// report no model until the next plain [`check`](Self::check). This
    /// method is meant for feasibility-only call sites (branch decisions,
    /// assumptions).
    pub fn check_cached(&mut self, ctx: &Context, conditions: &[TermId]) -> CheckResult {
        // Any answer given here bypasses (parts of) the solver, so
        // whatever model the solver still holds no longer matches the
        // most recent query: invalidate it.
        self.generation += 1;
        let mut key: Vec<TermId> = conditions.to_vec();
        key.sort_unstable();
        key.dedup();
        let key: Box<[TermId]> = key.into_boxed_slice();
        if let Some(&cached) = self.cache.get(&key) {
            self.cache_stats.hits += 1;
            return cached;
        }
        self.cache_stats.misses += 1;
        let result = match self.chain.as_mut() {
            Some(chain) => chain.check(
                ctx,
                &mut self.solver,
                &mut self.blaster,
                &key,
                self.auditor.as_deref_mut(),
            ),
            None => {
                let assumptions: Vec<Lit> = key
                    .iter()
                    .map(|&c| self.blaster.bool_lit(ctx, &mut self.solver, c))
                    .collect();
                match self.solver.solve(&assumptions) {
                    SolveResult::Sat => {
                        if let Some(auditor) = self.auditor.as_mut() {
                            auditor.audit_sat(&mut self.solver);
                        }
                        CheckResult::Sat
                    }
                    SolveResult::Unsat => {
                        if let Some(auditor) = self.auditor.as_mut() {
                            auditor.audit_unsat(&mut self.solver);
                        }
                        CheckResult::Unsat
                    }
                }
            }
        };
        self.cache.insert(key, result);
        result
    }

    /// The value of `term` in the most recent model.
    ///
    /// Returns `None` if the most recent query was not a satisfiable
    /// plain [`check`](SolverBackend::check) — in particular after any
    /// [`check_cached`](Self::check_cached), whose answers don't refresh
    /// the model — **or** if no bit of `term` was constrained by that
    /// check, i.e. the term never reached the solver, so the model is
    /// silent about it and any value would do. When at least one bit is
    /// constrained, the remaining unconstrained bits read as zero.
    pub fn value_of(&mut self, ctx: &Context, term: TermId) -> Option<u64> {
        if self.model_generation != Some(self.generation) {
            return None;
        }
        let bits = self.blaster.bits(ctx, &mut self.solver, term);
        let mut any = false;
        let mut value = 0u64;
        for (i, lit) in bits.iter().enumerate() {
            match self.solver.model_lit_value(*lit) {
                Some(true) => {
                    value |= 1 << i;
                    any = true;
                }
                Some(false) => any = true,
                None => {}
            }
        }
        if any {
            Some(value)
        } else {
            None
        }
    }

    /// Exports the most recent model as a [`TestVector`] covering every
    /// symbol registered in `ctx`. Symbols without a readable model value
    /// (see [`value_of`](Self::value_of)) export as zero, so this is only
    /// meaningful right after a satisfiable plain
    /// [`check`](Self::check).
    pub fn test_vector(&mut self, ctx: &Context) -> TestVector {
        let mut vector = TestVector::new();
        for &sym in ctx.symbols() {
            let name = ctx.symbol_name(sym).expect("registered symbol").to_string();
            let width = ctx.width(sym);
            let value = self.value_of(ctx, sym).unwrap_or(0);
            vector.push(name, width, value);
        }
        vector
    }

    /// Statistics of the underlying SAT solver.
    pub fn stats(&self) -> SolverStats {
        self.solver.stats()
    }

    /// Hit/miss counters of the [`check_cached`](Self::check_cached)
    /// memoisation cache.
    pub fn query_cache_stats(&self) -> QueryCacheStats {
        self.cache_stats
    }

    /// Counters of the solver chain. All zero when the chain is disabled
    /// (every cache miss then solves directly).
    pub fn solver_chain_stats(&self) -> SolverChainStats {
        self.chain
            .as_ref()
            .map(SolverChain::stats)
            .unwrap_or_default()
    }

    /// Counters of the proof auditor. All zero when auditing is off.
    pub fn proof_audit_stats(&self) -> ProofAuditStats {
        self.auditor.as_ref().map(|a| a.stats()).unwrap_or_default()
    }

    /// The first audit failure message, if any answer failed to certify.
    pub fn proof_audit_failure(&self) -> Option<&str> {
        self.auditor.as_ref().and_then(|a| a.first_failure())
    }

    /// Drains the conflict cones certified so far, for dumping into an
    /// offline-verifiable audit artifact. Empty when auditing is off.
    pub fn take_audit_units(&mut self) -> Vec<CoreReplayUnit> {
        self.auditor
            .as_mut()
            .map(|a| a.take_units())
            .unwrap_or_default()
    }

    /// Exports the solver chain's caches as a portable [`ChainSeed`]
    /// (empty when the chain is disabled). See [`ChainSeed`] for when
    /// re-importing it is sound.
    pub fn export_chain_seed(&self) -> ChainSeed {
        self.chain
            .as_ref()
            .map(SolverChain::export_seed)
            .unwrap_or_default()
    }

    /// Pre-warms the solver chain from a seed exported by an identical
    /// run; a no-op when the chain is disabled. The chain re-validates
    /// models and only short-circuits identically-keyed components, so
    /// answers are unchanged — only cheaper.
    pub fn import_chain_seed(&mut self, seed: &ChainSeed) {
        if let Some(chain) = self.chain.as_mut() {
            chain.import_seed(seed);
        }
    }
}

/// Solves `conditions` on a *fresh* backend and extracts a test vector for
/// `symbols`.
///
/// Using a throw-away solver makes the extracted model independent of query
/// history, so the same path yields the same vector no matter which engine
/// or worker explored it.
pub(crate) fn fresh_model_vector(
    ctx: &Context,
    conditions: &[TermId],
    symbols: &[TermId],
) -> Option<TestVector> {
    let mut backend = SolverBackend::new();
    if !backend.check(ctx, conditions).is_sat() {
        return None;
    }
    let mut vector = TestVector::new();
    for &sym in symbols {
        let name = ctx.symbol_name(sym)?.to_string();
        let width = ctx.width(sym);
        let value = backend.value_of(ctx, sym).unwrap_or(0);
        vector.push(name, width, value);
    }
    Some(vector)
}

/// Debug-build checks of a finished path: the node-local
/// [`debug_validate_path`](crate::wf::debug_validate_path) pass, and a
/// model on a fresh solver unless the path ended infeasible — the
/// session's test-vector count relies on every other path having one.
#[cfg(debug_assertions)]
pub(crate) fn debug_check_path(
    ctx: &Context,
    conditions: &[TermId],
    symbols: &[TermId],
    status: crate::PathStatus,
) {
    crate::wf::debug_validate_path(ctx, conditions);
    assert!(
        status == crate::PathStatus::Infeasible
            || fresh_model_vector(ctx, conditions, symbols).is_some(),
        "a {status:?} path has an unsatisfiable path condition"
    );
}

/// Solves `conditions` on a fresh backend and evaluates `term` in the
/// resulting model. `None` if the conditions are infeasible or no bit of
/// `term` was constrained (same contract as [`SolverBackend::value_of`]).
pub(crate) fn fresh_model_value(ctx: &Context, conditions: &[TermId], term: TermId) -> Option<u64> {
    let mut backend = SolverBackend::new();
    if !backend.check(ctx, conditions).is_sat() {
        return None;
    }
    backend.value_of(ctx, term)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval, Env};

    #[test]
    fn query_cache_stats_display_round_trips() {
        let stats = QueryCacheStats {
            hits: 123,
            misses: 45,
        };
        let printed = stats.to_string();
        assert_eq!(printed, "hits=123 misses=45");
        let parsed: QueryCacheStats = printed.parse().expect("display form parses");
        assert_eq!(parsed, stats, "Display must carry every field");
        assert!("hits=1".parse::<QueryCacheStats>().is_err());
        assert!("hits=1 misses=nope".parse::<QueryCacheStats>().is_err());
        assert!("hits=1 bogus=2".parse::<QueryCacheStats>().is_err());
    }

    #[test]
    fn backend_chain_seed_round_trips_across_backends() {
        let mut ctx = Context::new();
        let x = ctx.symbol(8, "x");
        let c1 = ctx.constant(8, 1);
        let c2 = ctx.constant(8, 2);
        let x1 = ctx.eq(x, c1);
        let x2 = ctx.eq(x, c2);

        let mut cold = SolverBackend::new();
        assert!(cold.check_cached(&ctx, &[x1]).is_sat());
        assert!(!cold.check_cached(&ctx, &[x1, x2]).is_sat());
        let seed = cold.export_chain_seed();
        assert!(!seed.is_empty());

        // Same term graph, fresh backend: the warm chain answers without
        // a single SAT solve.
        let mut warm = SolverBackend::new();
        warm.import_chain_seed(&seed);
        assert!(warm.check_cached(&ctx, &[x1]).is_sat());
        assert!(!warm.check_cached(&ctx, &[x1, x2]).is_sat());
        assert_eq!(warm.solver_chain_stats().solves, 0);

        // A chain-disabled backend exports an empty seed and ignores
        // imports.
        let mut direct = SolverBackend::with_chain(false);
        direct.import_chain_seed(&seed);
        assert!(direct.export_chain_seed().is_empty());
        assert!(direct.check_cached(&ctx, &[x1]).is_sat());
    }

    #[test]
    fn model_satisfies_condition() {
        let mut ctx = Context::new();
        let x = ctx.symbol(32, "x");
        let y = ctx.symbol(32, "y");
        let sum = ctx.add(x, y);
        let target = ctx.constant(32, 0x1234_5678);
        let cond = ctx.eq(sum, target);

        let mut backend = SolverBackend::new();
        assert!(backend.check(&ctx, &[cond]).is_sat());
        let vector = backend.test_vector(&ctx);
        let env: Env = vector.to_env();
        assert_eq!(
            eval(&ctx, cond, &env),
            1,
            "model {vector} violates the condition"
        );
    }

    #[test]
    fn unsat_conjunction_detected() {
        let mut ctx = Context::new();
        let x = ctx.symbol(8, "x");
        let c1 = ctx.constant(8, 1);
        let c2 = ctx.constant(8, 2);
        let is1 = ctx.eq(x, c1);
        let is2 = ctx.eq(x, c2);
        let mut backend = SolverBackend::new();
        assert!(backend.check(&ctx, &[is1]).is_sat());
        assert!(backend.check(&ctx, &[is2]).is_sat());
        assert!(!backend.check(&ctx, &[is1, is2]).is_sat());
        // Still usable afterwards.
        assert!(backend.check(&ctx, &[is1]).is_sat());
        assert_eq!(backend.value_of(&ctx, x), Some(1));
    }

    #[test]
    fn no_model_before_check() {
        let mut ctx = Context::new();
        let x = ctx.symbol(8, "x");
        let mut backend = SolverBackend::new();
        assert_eq!(backend.value_of(&ctx, x), None);
    }

    #[test]
    fn value_of_unconstrained_symbol_is_none() {
        // `value_of` answers None exactly when *no* bit of the term was
        // constrained by the last check — here `y` never reached the
        // solver, so the model is silent about it.
        let mut ctx = Context::new();
        let x = ctx.symbol(8, "x");
        let y = ctx.symbol(8, "y");
        let c7 = ctx.constant(8, 7);
        let cond = ctx.eq(x, c7);
        let mut backend = SolverBackend::new();
        assert!(backend.check(&ctx, &[cond]).is_sat());
        assert_eq!(backend.value_of(&ctx, x), Some(7));
        assert_eq!(backend.value_of(&ctx, y), None, "y has no constrained bit");
    }

    #[test]
    fn check_cached_memoises_condition_sets() {
        let mut ctx = Context::new();
        let x = ctx.symbol(8, "x");
        let c1 = ctx.constant(8, 1);
        let c2 = ctx.constant(8, 2);
        let is1 = ctx.eq(x, c1);
        let is2 = ctx.eq(x, c2);

        let mut backend = SolverBackend::new();
        assert!(backend.check_cached(&ctx, &[is1]).is_sat());
        assert!(!backend.check_cached(&ctx, &[is1, is2]).is_sat());
        assert_eq!(backend.query_cache_stats().misses, 2);
        assert_eq!(backend.query_cache_stats().hits, 0);

        // Same sets again — order and duplicates don't matter.
        assert!(backend.check_cached(&ctx, &[is1]).is_sat());
        assert!(!backend.check_cached(&ctx, &[is2, is1]).is_sat());
        assert!(!backend.check_cached(&ctx, &[is1, is2, is1]).is_sat());
        assert_eq!(backend.query_cache_stats().misses, 2);
        assert_eq!(backend.query_cache_stats().hits, 3);
    }

    #[test]
    fn cached_answers_do_not_expose_stale_models() {
        // Regression: a `check_cached` hit used to leave the *previous*
        // query's model readable, so asking about x == 1 and then reading
        // the model silently returned the stale x == 2.
        for chain in [false, true] {
            let mut ctx = Context::new();
            let x = ctx.symbol(8, "x");
            let c1 = ctx.constant(8, 1);
            let c2 = ctx.constant(8, 2);
            let is1 = ctx.eq(x, c1);
            let is2 = ctx.eq(x, c2);

            let mut backend = SolverBackend::with_chain(chain);
            assert!(backend.check_cached(&ctx, &[is1]).is_sat());
            assert!(backend.check_cached(&ctx, &[is2]).is_sat());
            // Cache hit: internally the solver still holds the x == 2
            // model, which must not leak out (chain={chain}).
            assert!(backend.check_cached(&ctx, &[is1]).is_sat());
            assert_eq!(
                backend.value_of(&ctx, x),
                None,
                "cached answer exposed a stale model (chain={chain})"
            );
            assert_eq!(backend.test_vector(&ctx).to_env().get("x"), Some(&0));
            // A plain check refreshes the model.
            assert!(backend.check(&ctx, &[is1]).is_sat());
            assert_eq!(backend.value_of(&ctx, x), Some(1));
        }
    }

    #[test]
    fn unsat_check_invalidates_model() {
        let mut ctx = Context::new();
        let x = ctx.symbol(8, "x");
        let c1 = ctx.constant(8, 1);
        let c2 = ctx.constant(8, 2);
        let is1 = ctx.eq(x, c1);
        let is2 = ctx.eq(x, c2);
        let mut backend = SolverBackend::new();
        assert!(backend.check(&ctx, &[is1]).is_sat());
        assert_eq!(backend.value_of(&ctx, x), Some(1));
        assert!(!backend.check(&ctx, &[is1, is2]).is_sat());
        assert_eq!(backend.value_of(&ctx, x), None, "no model after Unsat");
    }

    #[test]
    fn chain_and_direct_backends_agree() {
        let mut ctx = Context::new();
        let x = ctx.symbol(8, "x");
        let y = ctx.symbol(8, "y");
        let c1 = ctx.constant(8, 1);
        let c2 = ctx.constant(8, 2);
        let x1 = ctx.eq(x, c1);
        let x2 = ctx.eq(x, c2);
        let y1 = ctx.eq(y, c1);
        let sets: Vec<Vec<TermId>> = vec![
            vec![x1],
            vec![x1, y1],
            vec![x1, x2],
            vec![x1, x2, y1],
            vec![y1],
            vec![x1, y1],
        ];

        let mut chained = SolverBackend::new();
        let mut direct = SolverBackend::with_chain(false);
        for set in &sets {
            assert_eq!(
                chained.check_cached(&ctx, set),
                direct.check_cached(&ctx, set),
                "chain flipped the answer for {set:?}"
            );
        }
        let stats = chained.solver_chain_stats();
        assert!(stats.queries > 0, "misses must route through the chain");
        assert!(
            stats.solves < direct.stats().solves,
            "slicing should save solver calls even on this tiny workload"
        );
        assert_eq!(direct.solver_chain_stats(), Default::default());
    }

    #[test]
    fn audited_backends_certify_every_answer_without_changing_it() {
        // Same query stream, audit on and off, chain on and off: answers
        // are identical, and the audited runs certify every answer.
        let mut ctx = Context::new();
        let x = ctx.symbol(8, "x");
        let y = ctx.symbol(8, "y");
        let c1 = ctx.constant(8, 1);
        let c2 = ctx.constant(8, 2);
        let x1 = ctx.eq(x, c1);
        let x2 = ctx.eq(x, c2);
        let y1 = ctx.eq(y, c1);
        let sets: Vec<Vec<TermId>> = vec![
            vec![x1],
            vec![x1, y1],
            vec![x1, x2],
            vec![x1, x2, y1],
            vec![y1],
        ];

        for chain in [false, true] {
            let mut plain = SolverBackend::with_options(chain, false);
            let mut audited = SolverBackend::with_options(chain, true);
            for set in &sets {
                assert_eq!(
                    audited.check_cached(&ctx, set),
                    plain.check_cached(&ctx, set),
                    "audit flipped the answer for {set:?} (chain={chain})"
                );
            }
            // Plain checks (model-producing) are audited too.
            assert!(audited.check(&ctx, &[x1]).is_sat());
            assert!(!audited.check(&ctx, &[x1, x2]).is_sat());

            let stats = audited.proof_audit_stats();
            assert_eq!(
                stats.failures,
                0,
                "checker rejected an answer (chain={chain}): {:?}",
                audited.proof_audit_failure()
            );
            assert!(stats.models > 0, "SAT answers were audited");
            assert!(stats.cores > 0, "UNSAT answers were audited");
            assert!(stats.steps > 0 && stats.bytes > 0);
            let units = audited.take_audit_units();
            assert_eq!(units.len() as u64, stats.cores);
            for unit in &units {
                unit.verify().expect("every cone verifies offline");
            }
            assert!(audited.take_audit_units().is_empty(), "units drain once");

            // The unaudited backend never pays for any of this.
            assert_eq!(plain.proof_audit_stats(), ProofAuditStats::default());
            assert!(plain.take_audit_units().is_empty());
        }
    }

    #[test]
    fn fresh_model_helpers_are_history_independent() {
        let mut ctx = Context::new();
        let x = ctx.symbol(8, "x");
        let c9 = ctx.constant(8, 9);
        let cond = ctx.eq(x, c9);
        assert_eq!(fresh_model_value(&ctx, &[cond], x), Some(9));
        let vector = fresh_model_vector(&ctx, &[cond], &[x]).expect("sat");
        assert_eq!(eval(&ctx, x, &vector.to_env()), 9);
        let not_cond = ctx.not(cond);
        assert_eq!(fresh_model_value(&ctx, &[cond, not_cond], x), None);
    }
}
