//! Proof auditing is observational: toggling [`SessionConfig::audit`]
//! re-checks every certificate-bearing solver answer through the
//! independent checker but never changes what is answered. Sequential
//! and two-worker runs produce a byte-identical `symcosim-report/1`
//! document and coverage certificate with auditing on or off; the
//! audit's own evidence lives
//! outside those documents (in [`VerifyReport::proof_audit`] and the
//! separate `symcosim-audit/1` artifact).

use symcosim::core::{Certificate, InstrConstraint, SessionConfig, VerifyReport, VerifySession};
use symcosim::isa::opcodes;

fn run(config: SessionConfig, jobs: usize) -> VerifyReport {
    let session = VerifySession::new(config).expect("valid config");
    if jobs <= 1 {
        session.run()
    } else {
        session.run_parallel(jobs)
    }
}

#[test]
fn audit_toggle_is_invisible_across_engines() {
    let mut config = SessionConfig::rv32i_only();
    config.stop_at_first_mismatch = false;
    config.constraint = InstrConstraint::OnlyOpcode(opcodes::LUI);
    config.collect_coverage = true;

    let mut on = config.clone();
    on.audit = true;
    let mut off = config;
    off.audit = false;

    let baseline = run(on.clone(), 1);
    assert!(
        baseline.proof_audit.steps > 0,
        "audited run must apply proof steps"
    );
    assert!(
        baseline.proof_audit.models + baseline.proof_audit.cores > 0,
        "audited run must certify at least one answer"
    );
    assert_eq!(baseline.proof_audit_failure, None);
    let expected_report = baseline.to_json();
    let expected_cert =
        Certificate::certify(baseline.coverage.as_ref().expect("coverage")).to_json();

    for (label, config) in [("audit on", on), ("audit off", off)] {
        for (mode, jobs) in [("sequential", 1), ("x2", 2)] {
            let report = run(config.clone(), jobs);
            assert_eq!(
                report.to_json(),
                expected_report,
                "{label} / {mode}: report diverged"
            );
            let certificate = Certificate::certify(report.coverage.as_ref().expect("coverage"));
            assert_eq!(
                certificate.to_json(),
                expected_cert,
                "{label} / {mode}: certificate diverged"
            );
            if config.audit {
                assert!(
                    report.proof_audit.steps > 0,
                    "{mode}: auditor idle with audit on"
                );
                assert_eq!(report.proof_audit_failure, None, "{mode}");
                // Attaching the audit section must not change the
                // certificate's canonical bytes either: the section is
                // in-memory evidence, not document content.
                assert_eq!(
                    certificate.with_proof_audit(report.proof_audit).to_json(),
                    expected_cert,
                    "{label} / {mode}: audit section leaked into the document"
                );
            } else {
                assert_eq!(
                    report.proof_audit.steps, 0,
                    "{mode}: audit stats leak with audit off"
                );
                assert!(
                    report.proof_audit_units.is_empty(),
                    "{mode}: audit units leak with audit off"
                );
            }
        }
    }
}
