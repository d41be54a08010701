//! Symbolic co-simulation for cross-level processor verification.
//!
//! This crate is the paper's contribution: it wires the cycle-accurate
//! MicroRV32-equivalent core ([`symcosim-microrv32`]) and the reference ISS
//! ([`symcosim-iss`]) into one co-simulation, makes the instruction stream
//! and a sliced window of the register file symbolic, explores the joint
//! state space with the symbolic engine ([`symcosim-symex`]), and compares
//! retirement behaviour with a voter. Every functional difference between
//! the two models becomes a [`Finding`] with a concrete reproducing
//! [`TestVector`](symcosim_symex::TestVector).
//!
//! The building blocks mirror Section IV of the paper:
//!
//! * [`SymbolicInstrMemory`] — the shared, read-only, lazily generated
//!   symbolic instruction memory (cached per address so both models always
//!   see identical instructions),
//! * [`SymbolicDataMemory`] — per-model data memories initialised with the
//!   *same* symbolic words,
//! * sliced symbolic registers ([`SessionConfig::symbolic_regs`]) — `x0`
//!   hardwired, a small window of symbolic registers, the rest concrete,
//! * the [`Voter`] — compares trap outcome, PC, destination-register write
//!   and the full architectural register file after every instruction,
//! * the execution controller — instruction and cycle limits per path
//!   ([`SessionConfig::instr_limit`], [`SessionConfig::cycle_limit`]),
//! * [`VerifySession`] — the top-level flow: explore, vote, classify,
//!   report,
//! * [`fuzz`] — the random/concrete baseline the paper's prior work used,
//!   for head-to-head benchmarks.
//!
//! # Example
//!
//! ```
//! use symcosim_core::{SessionConfig, VerifySession};
//! use symcosim_microrv32::InjectedError;
//!
//! # fn main() -> Result<(), symcosim_core::SessionError> {
//! let mut config = SessionConfig::rv32i_only();
//! config.inject = Some(InjectedError::E6BneBehavesLikeBeq);
//! let report = VerifySession::new(config)?.run();
//! let finding = report.first_mismatch().expect("the injected bug is found");
//! println!("found: {finding}");
//! # Ok(())
//! # }
//! ```
//!
//! [`symcosim-microrv32`]: ../symcosim_microrv32/index.html
//! [`symcosim-iss`]: ../symcosim_iss/index.html
//! [`symcosim-symex`]: ../symcosim_symex/index.html

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod certify;
mod cosim;
pub mod fuzz;
pub mod job;
pub mod json;
mod memory;
mod replay;
mod report;
mod session;
mod voter;

pub use audit::{AuditDump, AUDIT_SCHEMA};
pub use certify::{
    merge_slice_coverage, BoundCause, Certificate, CoverageData, CoverageSlice, MergeError,
    PathCoverage, SlotCertificate, Verdict,
};
pub use cosim::{CoSim, CosimOutcome, CosimResult, StopReason};
pub use job::{JobSpec, JOB_SCHEMA};
pub use memory::{IssDataBus, SymbolicDataMemory, SymbolicInstrMemory};
pub use replay::replay;
pub use report::{Finding, FindingClass, VerifyReport, REPORT_SCHEMA};
pub use session::{project_domain, InstrConstraint, SessionConfig, SessionError, VerifySession};
pub use symcosim_exec::ProgressEvent;
pub use symcosim_symex::{ChainSeed, CoreReplayUnit, ProofAuditStats, QueryCacheStats};
pub use voter::{ConcreteJudge, Judge, Mismatch, MismatchKind, SymbolicJudge, Voter};
