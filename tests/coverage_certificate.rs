//! The coverage certifier is schedule-independent: for a frontier-drained
//! run, the sequential engine and two workers produce **bit-identical**
//! `symcosim-cert/1` documents — the certificate depends only on the
//! canonical path set, never on how it was explored. And the certificate
//! is falsifiable: dropping a path from a report makes certification
//! fail with a concrete uncovered instruction word.

use symcosim::core::{
    Certificate, CoverageData, InstrConstraint, SessionConfig, Verdict, VerifyReport, VerifySession,
};
use symcosim::isa::opcodes;
use symcosim::microrv32::InjectedError;

/// Runs `config` sequentially and on two workers; asserts both emit the
/// same certificate document and returns the sequential report plus that
/// document.
fn certificates_agree(config: SessionConfig) -> (VerifyReport, String) {
    let mut config = config;
    config.collect_coverage = true;

    let sequential = VerifySession::new(config.clone())
        .expect("valid config")
        .run();
    let expected = certificate_of(&sequential);

    let parallel = VerifySession::new(config)
        .expect("valid config")
        .run_parallel(2);
    assert_eq!(
        certificate_of(&parallel),
        expected,
        "run_parallel(2) certificate diverged from the sequential run's"
    );

    (sequential, expected)
}

fn certificate_of(report: &VerifyReport) -> String {
    let coverage = report.coverage.as_ref().expect("coverage was collected");
    Certificate::certify(coverage).to_json()
}

#[test]
fn clean_branch_space_certifies_identically_across_engines() {
    let mut config = SessionConfig::rv32i_only();
    config.stop_at_first_mismatch = false;
    config.constraint = InstrConstraint::OnlyOpcode(opcodes::BRANCH);
    let (report, cert_json) = certificates_agree(config);

    let coverage = report.coverage.as_ref().expect("coverage was collected");
    let cert = Certificate::certify(coverage);
    assert_eq!(
        cert.verdict,
        Verdict::Complete,
        "a drained clean run must certify complete:\n{cert}"
    );
    assert_eq!(cert.findings(), 0);
    // The domain is the projected OnlyOpcode constraint: 2^25 words.
    assert!(cert.domain_exact);
    for slot in &cert.slots {
        assert_eq!(slot.domain_words, 1 << 25);
        assert_eq!(slot.certified_words, 1 << 25);
        assert_eq!(slot.residual_words, 0);
        assert!(slot.overlaps.is_empty());
    }
    assert!(cert_json.contains("\"schema\": \"symcosim-cert/1\""));
    assert!(cert_json.contains("\"verdict\": \"complete\""));
}

#[test]
fn system_space_certifies_exactly_with_full_word_encodings() {
    // The privileged SYSTEM instructions are full-word encodings: both
    // models decide `instr == 0x0000_0073` (ECALL) and friends, a 32-bit
    // equality over the fetch slot. The projector used to widen any
    // equality whose support exceeded its enumeration limit to the
    // universe cube, so every funct3=0 path claimed the *whole* SYSTEM
    // slice inexactly: the certificate flagged the region as a widened
    // over-approximation ("no provable gap") instead of proving the
    // partition, and the ECALL/EBREAK/MRET splits were never checked
    // for disjointness. Affine equalities now project exactly, so the
    // sweep certifies complete with every slot cover exact.
    let mut config = SessionConfig::rv32i_only();
    config.stop_at_first_mismatch = false;
    config.constraint = InstrConstraint::OnlyOpcode(opcodes::SYSTEM);
    let (report, cert_json) = certificates_agree(config);

    let cert = Certificate::certify(report.coverage.as_ref().expect("coverage"));
    assert_eq!(
        cert.verdict,
        Verdict::Complete,
        "a drained SYSTEM sweep must certify complete:\n{cert}"
    );
    assert!(cert.domain_exact);
    for slot in &cert.slots {
        assert!(
            slot.exact,
            "full-word SYSTEM encodings must project exactly, not widen:\n{cert}"
        );
        assert_eq!(slot.domain_words, 1 << 25);
        assert_eq!(slot.certified_words, 1 << 25);
        assert_eq!(slot.residual_words, 0);
        assert!(slot.overlaps.is_empty());
    }
    assert!(cert_json.contains("\"exact\": true"));
}

#[test]
fn table1_store_slice_certifies_identically_across_engines() {
    // Catalogue mode against the shipped models: mismatch paths are
    // certified too — the mismatch *is* the path's behaviour class.
    let mut config = SessionConfig::table1();
    config.constraint = InstrConstraint::OnlyOpcode(opcodes::STORE);
    let (report, _) = certificates_agree(config);
    assert!(
        !report.findings.is_empty(),
        "the shipped models mismatch on STORE"
    );
    let cert = Certificate::certify(report.coverage.as_ref().expect("coverage"));
    assert_eq!(
        cert.verdict,
        Verdict::Complete,
        "mismatch paths still account for their decode words:\n{cert}"
    );
}

#[test]
fn injected_e4_op_space_certifies_identically_across_engines() {
    let mut config = SessionConfig::rv32i_only();
    config.inject = Some(InjectedError::E4SubStuckAt0Msb);
    config.stop_at_first_mismatch = false;
    config.constraint = InstrConstraint::OnlyOpcode(opcodes::OP);
    let (report, _) = certificates_agree(config);
    assert!(
        report.findings.iter().any(|f| f.witness.is_some()),
        "the injected fault must be found with a witness"
    );
    let cert = Certificate::certify(report.coverage.as_ref().expect("coverage"));
    assert_eq!(cert.verdict, Verdict::Complete, "{cert}");
}

#[test]
fn a_truncated_report_fails_certification_with_a_counterexample() {
    let mut config = SessionConfig::rv32i_only();
    config.stop_at_first_mismatch = false;
    config.constraint = InstrConstraint::OnlyOpcode(opcodes::BRANCH);
    config.collect_coverage = true;
    let report = VerifySession::new(config).expect("valid config").run();
    let mut coverage = report.coverage.expect("coverage was collected");

    // Silently lose one certified path — as a buggy explorer or a
    // tampered report would.
    let index = coverage
        .paths
        .iter()
        .position(|p| p.certified && !p.slots.is_empty())
        .expect("a certified path constrains the fetch slot");
    coverage.paths.remove(index);

    let cert = Certificate::certify(&coverage);
    assert_eq!(
        cert.verdict,
        Verdict::Failed,
        "a dropped path must be caught:\n{cert}"
    );
    assert!(cert.findings() >= 1);
    // The counterexample is a concrete word nothing accounts for — and it
    // lies in the configured decode slice.
    let word = cert
        .slots
        .iter()
        .flat_map(|s| s.counterexamples.iter())
        .next()
        .expect("a concrete uncovered word is reported");
    assert_eq!(word & 0x7f, opcodes::BRANCH & 0x7f);
}

#[test]
fn the_report_dump_round_trips_into_the_same_certificate() {
    let mut config = SessionConfig::rv32i_only();
    config.stop_at_first_mismatch = false;
    config.constraint = InstrConstraint::OnlyOpcode(opcodes::LUI);
    config.collect_coverage = true;
    let report = VerifySession::new(config).expect("valid config").run();

    let in_process = certificate_of(&report);

    let dump = report.to_json();
    let value = symcosim::core::json::JsonValue::parse(&dump).expect("report dump parses");
    assert_eq!(
        value.get("schema").and_then(|v| v.as_str()),
        Some("symcosim-report/1")
    );
    let coverage =
        CoverageData::from_json(value.get("coverage").expect("coverage section present"))
            .expect("coverage section round-trips");
    let re_certified = Certificate::certify(&coverage).to_json();
    assert_eq!(
        re_certified, in_process,
        "re-certifying the JSON dump must reproduce the in-process certificate"
    );
}
