//! Audited-run compatibility gate for the abstract-interpretation
//! preflight: a full audited BRANCH sweep with the preflight enabled
//! (the default) must still certify every solver answer end-to-end, and
//! the `symcosim-audit/1` artifact it dumps must be accepted by the
//! offline `symcosim-lint --audit` checker.
//!
//! The preflight answers statically-forced queries *before* the solver
//! chain's cache levels and the SAT core, so an answered query produces
//! no proof obligations at all — this gate pins that the remaining
//! solver-answered queries keep their certificates intact and that the
//! artifact schema round-trips through the independent checker.

use symcosim_core::{AuditDump, InstrConstraint, SessionConfig, VerifyReport, VerifySession};
use symcosim_isa::opcodes;
use symcosim_lint::audit;

fn audited_branch_config(preflight: bool) -> SessionConfig {
    let mut config = SessionConfig::rv32i_only();
    config.stop_at_first_mismatch = false;
    config.constraint = InstrConstraint::OnlyOpcode(opcodes::BRANCH);
    config.collect_coverage = true;
    config.audit = true;
    config.preflight = preflight;
    config
}

fn run(config: SessionConfig) -> VerifyReport {
    VerifySession::new(config).expect("valid config").run()
}

#[test]
fn audited_preflight_sweep_certifies_and_lint_accepts_the_artifact() {
    let report = run(audited_branch_config(true));

    // The preflight must actually fire on the sweep...
    assert!(
        report.chain_stats.preflight_hits > 0,
        "preflight answered no queries on the BRANCH sweep: {:?}",
        report.chain_stats
    );
    // ...while every solver-answered query stays certified.
    assert!(
        report.proof_audit.models + report.proof_audit.cores > 0,
        "audited sweep certified no answers"
    );
    assert_eq!(
        report.proof_audit.failures, 0,
        "checker rejected an answer: {:?}",
        report.proof_audit_failure
    );

    // The dumped symcosim-audit/1 artifact replays through the offline
    // checker with zero findings, exactly as for a preflight-less run.
    let artifact = AuditDump::new(report.proof_audit, report.proof_audit_units.clone()).to_json();
    let checked = audit::check_audit_json(&artifact).expect("artifact parses");
    assert_eq!(checked.findings(), 0, "audit checker rejected the artifact");
    assert!(checked.steps > 0, "artifact carries no proof steps");
    assert!(checked.models > 0, "artifact certifies no models");
}

#[test]
fn preflight_toggle_is_invisible_to_the_audit_artifact() {
    let on = run(audited_branch_config(true));
    let off = run(audited_branch_config(false));

    // The report documents are byte-identical with the preflight on or
    // off; only the (non-document) chain statistics may differ.
    assert_eq!(on.to_json(), off.to_json(), "preflight changed the report");
    assert!(on.chain_stats.preflight_hits > 0);
    assert_eq!(off.chain_stats.preflight_hits, 0);

    // Both artifacts pass the offline checker.
    for (label, report) in [("preflight on", &on), ("preflight off", &off)] {
        let artifact =
            AuditDump::new(report.proof_audit, report.proof_audit_units.clone()).to_json();
        let checked = audit::check_audit_json(&artifact).expect("artifact parses");
        assert_eq!(checked.findings(), 0, "{label}: checker rejected");
    }
}
