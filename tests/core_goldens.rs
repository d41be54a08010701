//! Frozen-golden gate for solver-core surgery: the audited clean BRANCH
//! sweep must keep producing byte-identical `symcosim-report/1` and
//! `symcosim-cert/1` documents as the solver core evolves.
//!
//! Every BRANCH miter folds to a constant, so two more goldens pin runs
//! whose voter queries reach the solver: the certified Table I LOAD
//! sweep (report and certificate, three findings with solver-chosen
//! witnesses) and the E9 hunt at instruction limit 2 (report). Both were
//! captured before the voter learned to answer miters from facts its
//! path had already proved, and must not move because of it.
//!
//! The goldens under `tests/golden/` were captured from the pre-Glucose
//! (PR 7) core. They are model-independent by construction — the clean
//! configuration has no findings (so no solver-chosen witness words reach
//! the report) and coverage cubes are projected from path constraints,
//! not models — so any byte drift here means the solver rebuild changed
//! *what* was explored or certified, not merely *how*.
//!
//! Regenerate (only when the explored space legitimately changes, e.g. a
//! decoder fix) with:
//!     SYMCOSIM_REGEN_GOLDENS=1 cargo test --test core_goldens

use symcosim::core::{
    Certificate, EngineKind, InstrConstraint, SessionConfig, VerifyReport, VerifySession,
};
use symcosim::isa::opcodes;
use symcosim::microrv32::InjectedError;

const REPORT_GOLDEN: &str = "tests/golden/branch_report.json";
const CERT_GOLDEN: &str = "tests/golden/branch_cert.json";
const LOAD_REPORT_GOLDEN: &str = "tests/golden/load_report.json";
const LOAD_CERT_GOLDEN: &str = "tests/golden/load_cert.json";
const E9_L2_REPORT_GOLDEN: &str = "tests/golden/e9_limit2_report.json";
const E9_L2_WITNESS_GOLDEN: &str = "tests/golden/e9_limit2_witness.txt";

fn audited_branch_config() -> SessionConfig {
    let mut config = SessionConfig::rv32i_only();
    config.stop_at_first_mismatch = false;
    config.constraint = InstrConstraint::OnlyOpcode(opcodes::BRANCH);
    config.collect_coverage = true;
    config.audit = true;
    config.engine = EngineKind::Fork;
    config
}

fn run(config: SessionConfig) -> VerifyReport {
    VerifySession::new(config).expect("valid config").run()
}

fn golden_path(rel: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// Compares `actual` with the golden at `rel`, rewriting the golden first
/// when `SYMCOSIM_REGEN_GOLDENS` is set.
fn assert_golden(rel: &str, actual: &str, what: &str) {
    if std::env::var_os("SYMCOSIM_REGEN_GOLDENS").is_some() {
        std::fs::write(golden_path(rel), actual).expect("write golden");
    }
    let expected = std::fs::read_to_string(golden_path(rel)).expect("golden present");
    assert_eq!(
        actual, expected,
        "{what} drifted from the frozen golden {rel} \
         (SYMCOSIM_REGEN_GOLDENS=1 regenerates after an intentional change)"
    );
}

#[test]
fn audited_branch_sweep_matches_frozen_goldens() {
    let report = run(audited_branch_config());

    // The audited run must certify every answer it gave.
    assert!(
        report.proof_audit.models + report.proof_audit.cores > 0,
        "audited sweep certified no answers"
    );
    assert_eq!(
        report.proof_audit.failures, 0,
        "checker rejected an answer: {:?}",
        report.proof_audit_failure
    );

    let report_json = report.to_json();
    let cert_json =
        Certificate::certify(report.coverage.as_ref().expect("coverage collected")).to_json();

    if std::env::var_os("SYMCOSIM_REGEN_GOLDENS").is_some() {
        std::fs::write(golden_path(REPORT_GOLDEN), &report_json).expect("write report golden");
        std::fs::write(golden_path(CERT_GOLDEN), &cert_json).expect("write cert golden");
    }

    let expected_report =
        std::fs::read_to_string(golden_path(REPORT_GOLDEN)).expect("report golden present");
    let expected_cert =
        std::fs::read_to_string(golden_path(CERT_GOLDEN)).expect("cert golden present");
    assert_eq!(
        report_json, expected_report,
        "audited BRANCH report drifted from the frozen golden \
         (SYMCOSIM_REGEN_GOLDENS=1 regenerates after an intentional change)"
    );
    assert_eq!(
        cert_json, expected_cert,
        "audited BRANCH certificate drifted from the frozen golden"
    );
}

/// The goldens pin the *unaudited* and *preflight-less* runs too:
/// auditing and the abstract-interpretation preflight are both
/// observational, so the same bytes must come back with either toggled
/// off, across engines and worker counts — the chain_equivalence-style
/// leg of the gate.
#[test]
fn golden_bytes_are_audit_and_engine_independent() {
    let expected_report =
        std::fs::read_to_string(golden_path(REPORT_GOLDEN)).expect("report golden present");
    let expected_cert =
        std::fs::read_to_string(golden_path(CERT_GOLDEN)).expect("cert golden present");

    for (label, audit, engine, jobs, preflight) in [
        ("plain reexec", false, EngineKind::Reexec, 1, true),
        ("plain fork x2", false, EngineKind::Fork, 2, true),
        ("audited fork x2", true, EngineKind::Fork, 2, true),
        ("no-preflight reexec", false, EngineKind::Reexec, 1, false),
        (
            "audited no-preflight fork x2",
            true,
            EngineKind::Fork,
            2,
            false,
        ),
    ] {
        let mut config = audited_branch_config();
        config.audit = audit;
        config.engine = engine;
        config.preflight = preflight;
        let session = VerifySession::new(config).expect("valid config");
        let report = if jobs <= 1 {
            session.run()
        } else {
            session.run_parallel(jobs)
        };
        assert_eq!(
            report.to_json(),
            expected_report,
            "{label}: report diverged"
        );
        assert_eq!(
            Certificate::certify(report.coverage.as_ref().expect("coverage")).to_json(),
            expected_cert,
            "{label}: certificate diverged"
        );
    }
}

/// `symcosim-cli verify --rv32i-only --opcode 0x03 --certify`: the shipped
/// (Table I) models over every LOAD word at instruction limit 1. Its
/// register-file and `rd` miters are the ones the voter's congruence and
/// lane-constant rules answer, and its three misalignment findings carry
/// solver-chosen witnesses.
#[test]
fn certified_load_sweep_matches_frozen_goldens() {
    let mut config = SessionConfig::table1();
    config.constraint = InstrConstraint::OnlyOpcode(opcodes::LOAD);
    config.collect_coverage = true;
    let report = run(config);
    assert_eq!(report.findings.len(), 3, "the three Table I LOAD findings");
    let cert = Certificate::certify(report.coverage.as_ref().expect("coverage collected"));
    assert_golden(
        LOAD_REPORT_GOLDEN,
        &report.to_json(),
        "certified LOAD report",
    );
    assert_golden(
        LOAD_CERT_GOLDEN,
        &cert.to_json(),
        "certified LOAD certificate",
    );
}

/// `symcosim-cli inject E9 --limit 2`: the Table II hunt whose second
/// instruction votes on register files the first one already wrote. The
/// witness (the CLI's reproducer line) is pinned beside the report.
#[test]
fn e9_limit_two_hunt_matches_frozen_golden() {
    let mut config = SessionConfig::rv32i_only();
    config.inject = Some(InjectedError::E9LwOnlyLow16);
    config.instr_limit = 2;
    config.cycle_limit = 128;
    let report = run(config);
    let witness = report
        .first_mismatch()
        .and_then(|f| f.witness.as_ref())
        .expect("E9 is found at limit 2, with a witness");
    assert_golden(E9_L2_REPORT_GOLDEN, &report.to_json(), "E9 limit-2 report");
    assert_golden(
        E9_L2_WITNESS_GOLDEN,
        &format!("{witness}\n"),
        "E9 limit-2 witness",
    );
}
