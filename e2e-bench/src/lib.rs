//! End-to-end benchmark of the symbolic co-simulation stack.
//!
//! Four workloads drive the repository's public entry points the way its
//! users do (see `README.md` beside this crate for why each was chosen):
//!
//! * `hunt-l1` — Table II bug hunts at instruction limit 1,
//! * `branch-l2-cert` — the certified BRANCH sweep at limit 2,
//! * `op-l3-cert` — certified OP and OP-IMM sweeps at limit 3,
//! * `ci-gate` — the CI gates: in-process certification with offline
//!   re-certification, and sharded jobs on a `symcosim-serve` daemon.
//!
//! Every operation's output is checked against pinned digests. Time is
//! measured from outside, around calls into each layer's public
//! functions; a traced run records those calls as spans ([`trace`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod daemon;
pub mod harness;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
