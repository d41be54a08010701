//! Static analysis for the symcosim workspace: decode-space theorems,
//! cross-model agreement sweeps and a symbolic-IR well-formedness pass.
//!
//! The verification flow of the paper trusts two artefacts it never
//! checks: the RV32I+Zicsr *decode table* both models are generated from,
//! and the *symbolic term DAGs* the engine builds while exploring them.
//! This crate closes both gaps without a solver in the loop:
//!
//! * [`decode_space`] — four theorems over the shared
//!   [`DECODE_TABLE`](symcosim_isa::DECODE_TABLE), proved in the ternary
//!   cube algebra of [`symcosim_isa::pattern`] (every decode rule is a
//!   cube `(mask, value)`; cube subtraction and pairwise overlap tests
//!   decide set questions exactly, with no enumeration): *disjointness*
//!   (no two rules overlap), *completeness* (rules plus the residual illegal set
//!   partition the space, with the exact counts), *encoder consistency*
//!   (every encoder lands inside its own rule and decodes back) and
//!   grounding probes against the real decoder.
//! * [`cross`] — concrete sweeps driving the reference ISS and the
//!   MicroRV32 core one instruction at a time: the corrected models must
//!   classify exactly the decode table's complement as illegal;
//!   as-shipped (`v1`) disagreements are the paper's Table I decode
//!   edges, reported as concrete counterexample words.
//! * [`ir`] — the symbolic-IR well-formedness pass
//!   ([`symcosim_symex::wf`]) run over the path conditions of a real
//!   symbolic co-simulation, plus an executable audit of the `x0`
//!   write-discard choke points in both models.
//! * [`dataflow`] — abstract-interpretation findings over a real BRANCH
//!   sweep via the [`symcosim_symex::absint`] lattice: dead branches,
//!   constant outputs, width-truncation hazards and unconstrained
//!   output-influencing symbols.
//! * [`coverage`] — offline re-certification of a dumped
//!   `symcosim-report/1` document: re-derives the exploration-coverage
//!   certificate (the run's paths partition the legal decode space) from
//!   the report's ternary-cube projections, with no engine in the loop.
//! * [`audit`] — offline re-verification of a dumped `symcosim-audit/1`
//!   proof artifact: replays every retained UNSAT conflict cone by naive
//!   unit propagation, with no solver in the loop.
//! * [`report`] — human-readable and versioned-JSON report assembly
//!   ([`report::SCHEMA`]).
//!
//! The `symcosim-lint` binary wires the passes to the command line and
//! exits nonzero on any gating finding; `scripts/ci.sh` runs it with
//! `--all --json` on every push.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod coverage;
pub mod cross;
pub mod dataflow;
pub mod decode_space;
pub mod ir;
pub mod report;

pub use audit::AuditReport;
pub use cross::CrossModelReport;
pub use dataflow::DataflowReport;
pub use decode_space::DecodeSpaceReport;
pub use ir::IrReport;
pub use report::LintReport;
