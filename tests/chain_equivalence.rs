//! The solver chain is a pure accelerator: toggling
//! [`SessionConfig::solver_chain`] changes how feasibility queries are
//! answered (independence slicing, counterexample-core subsumption,
//! cached-model evaluation) but never what is answered. Sequential and
//! two-worker runs produce a bit-identical `symcosim-report/1` document
//! and coverage certificate with the chain on or off, while the chain-on
//! run issues strictly fewer SAT `solve()` calls.

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
fn chain_toggle_is_invisible_across_engines() {
    let mut config = SessionConfig::rv32i_only();
    config.stop_at_first_mismatch = false;
    config.constraint = InstrConstraint::OnlyOpcode(opcodes::LUI);
    config.collect_coverage = true;

    let mut on = config.clone();
    on.solver_chain = true;
    let mut off = config;
    off.solver_chain = false;

    let baseline = run(on.clone(), 1);
    let expected_report = baseline.to_json();
    let expected_cert =
        Certificate::certify(baseline.coverage.as_ref().expect("coverage")).to_json();

    for (label, config) in [("chain on", on), ("chain off", off)] {
        for (mode, jobs) in [("sequential", 1), ("x2", 2)] {
            let report = run(config.clone(), jobs);
            assert_eq!(
                report.to_json(),
                expected_report,
                "{label} / {mode}: report diverged"
            );
            assert_eq!(
                Certificate::certify(report.coverage.as_ref().expect("coverage")).to_json(),
                expected_cert,
                "{label} / {mode}: certificate diverged"
            );
            if config.solver_chain {
                assert!(report.chain_stats.queries > 0, "{mode}: chain unused");
            } else {
                assert_eq!(report.chain_stats.queries, 0, "{mode}: chain stats leak");
            }
        }
    }
}

#[test]
fn chain_saves_solves_without_changing_findings() {
    // Catalogue mode against the shipped models: the STORE slice has real
    // mismatches, and the chain must reproduce them exactly while doing
    // strictly less SAT work.
    let mut config = SessionConfig::table1();
    config.constraint = InstrConstraint::OnlyOpcode(opcodes::STORE);

    let mut on = config.clone();
    on.solver_chain = true;
    let mut off = config;
    off.solver_chain = false;

    let with_chain = run(on, 1);
    let without = run(off, 1);

    assert!(!with_chain.findings.is_empty(), "STORE must mismatch");
    assert_eq!(with_chain.to_json(), without.to_json());
    assert!(
        with_chain.solver_stats.solves < without.solver_stats.solves,
        "chain must reduce SAT solve() calls: {} vs {}",
        with_chain.solver_stats.solves,
        without.solver_stats.solves
    );
}
