//! Symbolic execution engine over fixed-width bit-vectors.
//!
//! This crate provides the KLEE-equivalent services the co-simulation flow
//! of the reproduced paper needs:
//!
//! * [`Context`] — a hash-consed bit-vector term graph with aggressive
//!   constant folding and algebraic simplification,
//! * [`blast::Blaster`] — Tseitin bit-blasting onto the `symcosim-sat`
//!   CDCL solver,
//! * [`ForkEngine`] — path exploration by KLEE-style copy-on-write
//!   snapshot forking: every branch on symbolic data forks the path, path
//!   constraints are checked for feasibility incrementally, a stepped
//!   [`ForkTask`] is cloned at decision points instead of re-run (with a
//!   spill-to-replay memory bound), and a path can extract a concrete
//!   [`TestVector`] (KLEE's `.ktest` equivalent) from a fresh solver,
//! * [`Domain`] — the abstraction that lets the ISS and the RTL core be
//!   written once and executed both concretely (`u32`) and symbolically.
//!
//! # Example: solving for an input
//!
//! ```
//! use symcosim_symex::{Context, SolverBackend};
//!
//! let mut ctx = Context::new();
//! let x = ctx.symbol(32, "x");
//! let c41 = ctx.constant(32, 41);
//! let sum = ctx.add(x, c41);
//! let c42 = ctx.constant(32, 42);
//! let cond = ctx.eq(sum, c42);
//!
//! let mut backend = SolverBackend::new();
//! assert!(backend.check(&mut ctx, &[cond]).is_sat());
//! assert_eq!(backend.value_of(&ctx, x), Some(1));
//! ```
//!
//! # Example: forking exploration
//!
//! ```
//! use symcosim_symex::{Domain, EngineConfig, FnTask, ForkEngine, ForkExec, PathStatus};
//!
//! let mut engine = ForkEngine::new(EngineConfig::default());
//! let outcome = engine.explore(&FnTask(|exec: &mut ForkExec| {
//!     let x = exec.fresh_word("x");
//!     let zero = exec.const_word(0);
//!     let is_zero = exec.eq_w(x, zero);
//!     if exec.decide(is_zero) { "zero" } else { "non-zero" }
//! }));
//! assert_eq!(outcome.paths.len(), 2);
//! assert!(outcome.paths.iter().all(|p| p.status == PathStatus::Complete));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod absint;
pub mod audit;
pub mod blast;
mod chain;
mod context;
mod display;
mod domain;
mod engine;
mod eval;
mod fork;
mod lanes;
mod project;
mod solve;
mod term;
mod testvec;
pub mod wf;

pub use absint::{AbsInt, Fact, KnownBits};
pub use audit::{ProofAuditStats, ProofAuditor};
pub use chain::{ChainSeed, SolverChainStats};
pub use context::Context;
pub use display::ContextStats;
pub use domain::{ConcreteDomain, Domain};
pub use engine::{EngineConfig, ExploreOutcome, PathResult, PathStatus, SearchStrategy};
pub use eval::{eval, eval_memo, Env};
pub use fork::{FnTask, ForkEngine, ForkExec, ForkJob, ForkTask, StepResult};
pub use project::{ConstraintOrigin, Projector, SlotCoverage};
pub use solve::{CheckResult, QueryCacheStats, SolverBackend};
pub use symcosim_sat::{CoreReplayUnit, SolverStats};
pub use term::{Node, TermId, Width};
pub use testvec::TestVector;
