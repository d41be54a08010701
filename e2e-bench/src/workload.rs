//! The benchmark's workloads: what each operation runs, and how its
//! output is checked.
//!
//! A workload is a fixed catalogue of operations. One *pass* runs the
//! catalogue (ci-gate: five times) in an order shuffled from the seed, so
//! every pass does the same work whatever the seed and the run-to-run
//! spread reflects the host, not the draw. Every operation's output is
//! checked against pinned FNV-1a digests of its report and certificate
//! JSON.

use std::collections::BTreeMap;
use std::fmt;

use symcosim_core::json::JsonValue;
use symcosim_core::{
    replay, Certificate, InstrConstraint, JobSpec, SessionConfig, Verdict, VerifyReport,
    VerifySession,
};
use symcosim_isa::opcodes;
use symcosim_lint::coverage::certify_report_json;
use symcosim_microrv32::InjectedError;
use symcosim_serve::http::{request, stream_lines};
use symcosim_testkit::Rng;

use crate::daemon::Daemon;
use crate::trace::Recorder;

/// Workload names, in the order the harness interleaves them.
pub const NAMES: [&str; 4] = ["hunt-l1", "branch-l2-cert", "op-l3-cert", "ci-gate"];

/// One benchmark operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Hunt an injected Table II error: RV32I only, instruction limit 1,
    /// depth-first, stop at the first mismatch, test vectors on; then
    /// replay the witness concretely. `opcode` scopes the hunt to one
    /// major opcode.
    Hunt {
        /// The seeded fault.
        error: InjectedError,
        /// Major-opcode scope, `None` for the whole RV32I space.
        opcode: Option<u32>,
        /// Pinned digest of the report JSON.
        report: u64,
    },
    /// Drain one opcode's space with coverage certification, in process;
    /// with `recertify`, also re-certify the serialised report offline
    /// and require a byte-equal certificate.
    Certified {
        /// Major opcode.
        opcode: u32,
        /// Instructions per path.
        limit: u32,
        /// Re-certify the report JSON offline.
        recertify: bool,
        /// Pinned digest of the report JSON.
        report: u64,
        /// Pinned digest of the certificate JSON.
        certificate: u64,
    },
    /// Submit the same certified sweep to the daemon, wait on its event
    /// stream, and fetch the certificate.
    ServeJob {
        /// Major opcode.
        opcode: u32,
        /// Instructions per path.
        limit: u32,
        /// Decode-space slices the daemon shards the job into.
        slices: usize,
        /// Job seed; a repeat with the same seed runs warm.
        seed: u64,
        /// Pinned digest of the certificate JSON.
        certificate: u64,
    },
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Hunt { error, opcode, .. } => match opcode {
                Some(opcode) => write!(f, "hunt {} in opcode {opcode:#04x}", error.id()),
                None => write!(f, "hunt {}", error.id()),
            },
            Op::Certified {
                opcode,
                limit,
                recertify,
                ..
            } => write!(
                f,
                "{} {opcode:#04x} limit {limit}",
                if *recertify { "cli-cert" } else { "sweep" }
            ),
            Op::ServeJob {
                opcode,
                limit,
                slices,
                seed,
                ..
            } => write!(
                f,
                "serve-job {opcode:#04x} limit {limit} slices {slices} seed {seed}"
            ),
        }
    }
}

/// `(error, opcode scope, report digest)` of every hunt.
const HUNT_PINS: &[(InjectedError, Option<u32>, u64)] = &[
    (
        InjectedError::E0SlliDecodeDontCare,
        Some(opcodes::OP_IMM),
        0xe201_821f_a4e6_c350,
    ),
    (
        InjectedError::E4SubStuckAt0Msb,
        Some(opcodes::OP),
        0x2073_2ac9_4b44_f140,
    ),
    (InjectedError::E5JalNoPcUpdate, None, 0x7df8_3ef1_7957_6740),
    (
        InjectedError::E6BneBehavesLikeBeq,
        None,
        0xee7f_2ba3_746d_af3b,
    ),
    (
        InjectedError::E7LbuEndiannessFlip,
        None,
        0xda35_b2b4_8150_b69f,
    ),
    (
        InjectedError::E8LbNoSignExtension,
        None,
        0xa977_120a_d871_3ca6,
    ),
    (InjectedError::E9LwOnlyLow16, None, 0x92b2_21a2_9362_2b8e),
];

/// `(opcode, limit, report digest, certificate digest)` of every
/// certified sweep. Sliced serve jobs produce the same certificate.
const CERTIFIED_PINS: &[(u32, u32, u64, u64)] = &[
    (
        opcodes::BRANCH,
        1,
        0x6b3f_6c6a_e6cf_4666,
        0x6f17_fba6_3935_d714,
    ),
    (
        opcodes::BRANCH,
        2,
        0x59b6_24d9_a909_42a7,
        0xdfec_d302_6e29_9a84,
    ),
    (opcodes::OP, 1, 0x7270_cfea_ea99_8d8d, 0x97c7_8efb_214a_fc4f),
    (opcodes::OP, 2, 0x611f_7d56_58b9_3899, 0x60e2_4ed5_db4c_4509),
    (opcodes::OP, 3, 0x76df_198a_907a_4361, 0xc1a5_ff6b_31e2_501b),
    (
        opcodes::OP_IMM,
        2,
        0x7711_9ca2_ac18_ed9a,
        0x8110_811f_d6db_2538,
    ),
    (
        opcodes::OP_IMM,
        3,
        0xd2f5_2de9_d030_da65,
        0x37ed_8d93_aa28_4449,
    ),
    (
        opcodes::JALR,
        1,
        0xdc6f_cff9_c1fc_6e35,
        0x202b_38a8_bfb1_2d37,
    ),
    (
        opcodes::JALR,
        2,
        0xf498_7766_3577_d2ee,
        0x989e_53f6_c1ab_eb89,
    ),
];

fn hunt(error: InjectedError) -> Op {
    let (_, opcode, report) = *HUNT_PINS
        .iter()
        .find(|pin| pin.0 == error)
        .expect("every hunted error is pinned");
    Op::Hunt {
        error,
        opcode,
        report,
    }
}

fn certified_pins(opcode: u32, limit: u32) -> (u64, u64) {
    let (_, _, report, certificate) = *CERTIFIED_PINS
        .iter()
        .find(|pin| pin.0 == opcode && pin.1 == limit)
        .expect("every certified sweep is pinned");
    (report, certificate)
}

fn certified(opcode: u32, limit: u32, recertify: bool) -> Op {
    let (report, certificate) = certified_pins(opcode, limit);
    Op::Certified {
        opcode,
        limit,
        recertify,
        report,
        certificate,
    }
}

fn serve_job(opcode: u32, limit: u32, slices: usize, seed: u64) -> Op {
    Op::ServeJob {
        opcode,
        limit,
        slices,
        seed,
        certificate: certified_pins(opcode, limit).1,
    }
}

/// The ci-gate's operations for one opcode: one in-process certified run
/// with offline re-certification and four daemon jobs (1 or 2 slices, job
/// seed 0 or 1).
fn ci_ops(opcode: u32, limit: u32) -> Vec<Op> {
    let mut ops = vec![certified(opcode, limit, true)];
    for seed in 0..2 {
        for slices in 1..=2 {
            ops.push(serve_job(opcode, limit, slices, seed));
        }
    }
    ops
}

/// A named workload: its operation catalogue and the seed that orders it.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name.
    pub name: &'static str,
    /// The operations of one pass, before shuffling.
    pub catalogue: Vec<Op>,
    /// Copies of the catalogue in one pass.
    pub repeats: usize,
    /// Seed of the pass order.
    pub seed: u64,
    /// Whether this is the smoke-size catalogue.
    pub smoke: bool,
}

impl Workload {
    /// The workload called `name`. `smoke` swaps in a catalogue small
    /// enough for a test: the E6 hunt, BRANCH and OP at limit 1, and a
    /// four-operation ci-gate.
    ///
    /// # Errors
    ///
    /// An unknown name.
    pub fn new(name: &str, seed: u64, smoke: bool) -> Result<Workload, String> {
        let name = *NAMES
            .iter()
            .find(|known| **known == name)
            .ok_or_else(|| format!("unknown workload `{name}` (known: {})", NAMES.join(", ")))?;
        let (catalogue, repeats) = match (name, smoke) {
            ("hunt-l1", false) => (
                [
                    InjectedError::E0SlliDecodeDontCare,
                    InjectedError::E4SubStuckAt0Msb,
                    InjectedError::E5JalNoPcUpdate,
                    InjectedError::E6BneBehavesLikeBeq,
                    InjectedError::E7LbuEndiannessFlip,
                    InjectedError::E8LbNoSignExtension,
                    InjectedError::E9LwOnlyLow16,
                ]
                .map(hunt)
                .to_vec(),
                1,
            ),
            ("hunt-l1", true) => (vec![hunt(InjectedError::E6BneBehavesLikeBeq)], 1),
            ("branch-l2-cert", false) => (vec![certified(opcodes::BRANCH, 2, false)], 1),
            ("branch-l2-cert", true) => (vec![certified(opcodes::BRANCH, 1, false)], 1),
            ("op-l3-cert", false) => (
                vec![
                    certified(opcodes::OP, 3, false),
                    certified(opcodes::OP_IMM, 3, false),
                ],
                1,
            ),
            ("op-l3-cert", true) => (vec![certified(opcodes::OP, 1, false)], 1),
            ("ci-gate", false) => (
                [
                    (opcodes::BRANCH, 1),
                    (opcodes::OP, 2),
                    (opcodes::OP_IMM, 2),
                    (opcodes::JALR, 2),
                ]
                .iter()
                .flat_map(|&(opcode, limit)| ci_ops(opcode, limit))
                .collect(),
                5,
            ),
            (_, _) => (
                vec![
                    certified(opcodes::OP, 1, true),
                    serve_job(opcodes::OP, 1, 2, 0),
                    certified(opcodes::JALR, 1, true),
                    serve_job(opcodes::JALR, 1, 1, 0),
                ],
                1,
            ),
        };
        Ok(Workload {
            name,
            catalogue,
            repeats,
            seed,
            smoke,
        })
    }

    /// Whether the workload talks to a daemon.
    #[must_use]
    pub fn needs_daemon(&self) -> bool {
        self.catalogue
            .iter()
            .any(|op| matches!(op, Op::ServeJob { .. }))
    }

    /// The operations of pass `index`, the catalogue repeated and
    /// shuffled from the seed, each with its *slot*: its catalogue entry
    /// and how often that entry already ran in the pass. Each pass gets a
    /// fresh daemon, so a job's first submission runs cold and its repeats
    /// warm, and a slot names the same work in every pass.
    #[must_use]
    pub fn pass(&self, index: usize) -> Vec<(usize, Op)> {
        let entries = self.catalogue.len();
        let mut order: Vec<usize> = (0..self.repeats * entries).map(|i| i % entries).collect();
        let mut rng = Rng::seed(self.seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        for i in (1..order.len()).rev() {
            order.swap(i, rng.index(i + 1));
        }
        let mut runs = vec![0; entries];
        order
            .into_iter()
            .map(|entry| {
                let slot = runs[entry] * entries + entry;
                runs[entry] += 1;
                (slot, self.catalogue[entry].clone())
            })
            .collect()
    }
}

/// Work counters of one or more operations, keyed by per-layer metric
/// name and summed over every exploration they ran, in process or in the
/// daemon. `records` and `merged` count path records and the records
/// recovered from merged physical paths.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters(BTreeMap<&'static str, u64>);

/// `worker_done` event fields of the daemon and the counters they feed.
const WORKER_EVENT_FIELDS: [(&str, &str); 16] = [
    ("solves", "sat.solves"),
    ("conflicts", "sat.conflicts"),
    ("decisions", "sat.decisions"),
    ("propagations", "sat.propagations"),
    ("restarts", "sat.restarts"),
    ("db_reductions", "sat.db_reductions"),
    ("learned_kept", "sat.learned_kept"),
    ("chain_queries", "symex.chain.queries"),
    ("chain_preflight_hits", "symex.chain.preflight_hits"),
    ("chain_slice_hits", "symex.chain.slice_hits"),
    ("chain_core_hits", "symex.chain.core_hits"),
    ("chain_model_hits", "symex.chain.model_hits"),
    ("chain_solves", "symex.chain.solves"),
    ("chain_prefix_reuse_hits", "symex.chain.prefix_reuse_hits"),
    ("cache_hits", "symex.cache.hits"),
    ("cache_misses", "symex.cache.misses"),
];

impl Counters {
    /// Adds `by` to the counter `name`.
    pub fn bump(&mut self, name: &'static str, by: u64) {
        *self.0.entry(name).or_insert(0) += by;
    }

    /// The counter `name` (0 when never bumped).
    #[must_use]
    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    /// Adds another set of counters.
    pub fn add(&mut self, other: &Counters) {
        for (name, value) in &other.0 {
            self.bump(name, *value);
        }
    }

    fn add_report(&mut self, report: &VerifyReport) {
        let solver = &report.solver_stats;
        let chain = &report.chain_stats;
        for (name, value) in [
            ("records", report.total_paths() as u64),
            ("merged", report.merged_paths as u64),
            ("sat.solves", solver.solves),
            ("sat.conflicts", solver.conflicts),
            ("sat.decisions", solver.decisions),
            ("sat.propagations", solver.propagations),
            ("sat.restarts", solver.restarts),
            ("sat.db_reductions", solver.db_reductions),
            ("sat.learned_kept", solver.learned_kept),
            ("symex.chain.queries", chain.queries),
            ("symex.chain.preflight_hits", chain.preflight_hits),
            ("symex.chain.slice_hits", chain.slice_hits),
            ("symex.chain.core_hits", chain.core_hits),
            ("symex.chain.model_hits", chain.model_hits),
            ("symex.chain.solves", chain.solves),
            ("symex.chain.prefix_reuse_hits", chain.prefix_reuse_hits),
            ("symex.cache.hits", report.query_cache.hits),
            ("symex.cache.misses", report.query_cache.misses),
            ("symex.testvec.vectors", report.test_vectors as u64),
            ("core.cosim.instructions", report.instructions_executed),
            ("core.cosim.cycles", report.cycles),
        ] {
            self.bump(name, value);
        }
    }

    fn add_worker_event(&mut self, event: &JsonValue) {
        for (field, name) in WORKER_EVENT_FIELDS {
            self.bump(
                name,
                event.get(field).and_then(JsonValue::as_u64).unwrap_or(0),
            );
        }
    }
}

/// What running one operation produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Why the operation failed, `None` when every check passed.
    pub error: Option<String>,
    /// Work done.
    pub counters: Counters,
    /// The configuration explored in process, if any (the traced run
    /// re-explores it with test vectors off).
    pub explored: Option<SessionConfig>,
}

/// FNV-1a 64 of a document: the digests the catalogue pins.
#[must_use]
pub fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn check_digest(what: &str, text: &str, pinned: u64) -> Result<(), String> {
    let actual = digest(text);
    if actual == pinned {
        Ok(())
    } else {
        Err(format!(
            "{what} digest {actual:#018x} differs from the pinned {pinned:#018x}"
        ))
    }
}

/// The session a hunt runs.
fn hunt_config(error: InjectedError, opcode: Option<u32>) -> SessionConfig {
    let mut config = SessionConfig::rv32i_only();
    config.inject = Some(error);
    if let Some(opcode) = opcode {
        config.constraint = InstrConstraint::OnlyOpcode(opcode);
    }
    config
}

/// The job a certified sweep or serve job runs; the in-process sweep
/// uses the same session configuration the daemon derives from it.
fn certified_job(opcode: u32, limit: u32, slices: usize, seed: u64) -> JobSpec {
    JobSpec {
        opcode: Some(opcode),
        instr_limit: limit,
        slices,
        seed,
        ..JobSpec::default()
    }
}

/// Runs one operation, recording its spans under `op_id`, and checks its
/// outputs.
pub fn execute(op: &Op, op_id: u64, recorder: &mut Recorder, daemon: Option<&Daemon>) -> Outcome {
    let mut outcome = Outcome::default();
    let result = match op {
        Op::Hunt {
            error,
            opcode,
            report,
        } => recorder.span("op.hunt", op_id, |r| {
            run_hunt(
                hunt_config(*error, *opcode),
                *report,
                op_id,
                r,
                &mut outcome,
            )
        }),
        Op::Certified {
            opcode,
            limit,
            recertify,
            report,
            certificate,
        } => {
            let name = if *recertify {
                "op.cli_cert"
            } else {
                "op.sweep"
            };
            recorder.span(name, op_id, |r| {
                let config = certified_job(*opcode, *limit, 1, 0)
                    .session_config()
                    .map_err(|e| format!("job config: {e}"))?;
                run_certified(
                    config,
                    *recertify,
                    (*report, *certificate),
                    op_id,
                    r,
                    &mut outcome,
                )
            })
        }
        Op::ServeJob {
            opcode,
            limit,
            slices,
            seed,
            certificate,
        } => recorder.span("op.serve_job", op_id, |r| {
            let daemon = daemon.ok_or("serve job without a daemon")?;
            let spec = certified_job(*opcode, *limit, *slices, *seed);
            run_serve_job(daemon.addr(), &spec, *certificate, op_id, r, &mut outcome)
        }),
    };
    outcome.error = result.err();
    outcome
}

/// Builds and explores a session, folding its report into `outcome`.
fn explore(
    config: &SessionConfig,
    op_id: u64,
    r: &mut Recorder,
    outcome: &mut Outcome,
) -> Result<VerifyReport, String> {
    let session = r
        .span("core.session.new", op_id, |_| {
            VerifySession::new(config.clone())
        })
        .map_err(|e| format!("session: {e}"))?;
    let report = r.span("core.session.run", op_id, |_| session.run());
    outcome.counters.add_report(&report);
    outcome.explored = Some(config.clone());
    Ok(report)
}

fn serialise(report: &VerifyReport, op_id: u64, r: &mut Recorder, outcome: &mut Outcome) -> String {
    let json = r.span("core.report.to_json", op_id, |_| report.to_json());
    outcome
        .counters
        .bump("core.report.bytes", json.len() as u64);
    json
}

fn run_hunt(
    config: SessionConfig,
    pinned_report: u64,
    op_id: u64,
    r: &mut Recorder,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let report = explore(&config, op_id, r, outcome)?;
    let json = serialise(&report, op_id, r, outcome);
    let finding = report
        .first_mismatch()
        .ok_or("the injected error was not found")?;
    let witness = finding
        .witness
        .as_ref()
        .ok_or("the finding has no witness")?;
    let replayed = r.span("core.replay", op_id, |_| replay(&config, witness));
    outcome.counters.bump("core.replay.witnesses", 1);
    if replayed.mismatch.is_none() {
        return Err("the witness does not replay".to_string());
    }
    check_digest("report", &json, pinned_report)
}

fn run_certified(
    config: SessionConfig,
    recertify: bool,
    (pinned_report, pinned_certificate): (u64, u64),
    op_id: u64,
    r: &mut Recorder,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let report = explore(&config, op_id, r, outcome)?;
    let json = serialise(&report, op_id, r, outcome);
    let coverage = report.coverage.as_ref().ok_or("no coverage collected")?;
    let certificate = r.span("core.certify.certify", op_id, |_| {
        Certificate::certify(coverage)
    });
    let certificate_json = r.span("core.certify.to_json", op_id, |_| certificate.to_json());
    if certificate.verdict != Verdict::Complete {
        return Err(format!("verdict is {}", certificate.verdict));
    }
    if recertify {
        let offline = r
            .span("lint.coverage.recertify", op_id, |_| {
                certify_report_json(&json)
            })
            .map_err(|e| format!("offline re-certification: {e}"))?;
        if offline.to_json() != certificate_json {
            return Err("offline re-certification differs".to_string());
        }
    }
    check_digest("report", &json, pinned_report)?;
    check_digest("certificate", &certificate_json, pinned_certificate)
}

fn run_serve_job(
    addr: &str,
    spec: &JobSpec,
    pinned_certificate: u64,
    op_id: u64,
    r: &mut Recorder,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let submitted = r
        .span("serve.http.submit", op_id, |_| {
            request(addr, "POST", "/jobs", Some(&spec.to_json()))
        })
        .map_err(|e| format!("submit: {e}"))?;
    if submitted.status != 201 {
        return Err(format!("submit answered {}", submitted.status));
    }
    let id = JsonValue::parse(&submitted.body)
        .ok()
        .and_then(|status| status.get("id").and_then(JsonValue::as_u64))
        .ok_or("submit returned no job id")?;

    let counters = &mut outcome.counters;
    let streamed = r
        .span("serve.http.wait", op_id, |_| {
            stream_lines(addr, &format!("/jobs/{id}/events"), |line| {
                if let Ok(event) = JsonValue::parse(line) {
                    if event.get("event").and_then(JsonValue::as_str) == Some("worker_done") {
                        counters.add_worker_event(&event);
                    }
                }
            })
        })
        .map_err(|e| format!("events: {e}"))?;
    if streamed != 200 {
        return Err(format!("events answered {streamed}"));
    }

    let status = r
        .span("serve.http.status", op_id, |_| {
            request(addr, "GET", &format!("/jobs/{id}"), None)
        })
        .map_err(|e| format!("status: {e}"))?;
    let status = JsonValue::parse(&status.body).map_err(|e| format!("status: {e}"))?;
    let text = |name: &str| status.get(name).and_then(JsonValue::as_str).unwrap_or("");
    let count = |name: &str| status.get(name).and_then(JsonValue::as_u64).unwrap_or(0);
    counters.bump("records", count("paths_complete") + count("paths_partial"));
    counters.bump("merged", count("merged_paths"));
    counters.bump("serve.slices", count("slices"));
    counters.bump("serve.warm_slices", count("warm_slices"));
    counters.bump("serve.chain_solves", count("chain_solves"));
    if text("state") != "done" {
        return Err(format!("job {id} is {}: {}", text("state"), text("error")));
    }
    if text("verdict") != "complete" {
        return Err(format!("job {id} verdict is {}", text("verdict")));
    }

    let certificate = r
        .span("serve.http.cert", op_id, |_| {
            request(addr, "GET", &format!("/jobs/{id}/certificate"), None)
        })
        .map_err(|e| format!("certificate: {e}"))?;
    if certificate.status != 200 {
        return Err(format!("certificate answered {}", certificate.status));
    }
    check_digest("certificate", &certificate.body, pinned_certificate)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_reorder_by_seed_without_changing_the_work() {
        let a = Workload::new("ci-gate", 1, false).expect("known");
        let b = Workload::new("ci-gate", 2, false).expect("known");
        let (pa, pb) = (a.pass(0), b.pass(0));
        assert_eq!(pa.len(), 100);
        assert_ne!(pa, pb, "the seed changes the sequence");
        let key = |ops: &[(usize, Op)]| {
            let mut slots: Vec<(usize, String)> = ops
                .iter()
                .map(|(slot, op)| (*slot, op.to_string()))
                .collect();
            slots.sort();
            slots
        };
        assert_eq!(
            key(&pa),
            key(&pb),
            "every seed runs the same operations in the same slots"
        );
        assert_eq!(
            a.pass(0),
            a.pass(0),
            "a seed always gives the same sequence"
        );
    }

    #[test]
    fn unknown_workloads_are_rejected() {
        assert!(Workload::new("nope", 0, false).is_err());
    }

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(digest(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest("a"), 0xaf63_dc4c_8601_ec8c);
    }
}
