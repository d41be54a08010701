//! `VerifyReport::test_vectors` counts one vector per path record that
//! did not end infeasible (plus every finding's witness), without
//! extracting a model per record: a feasible path's condition is
//! satisfiable by construction. The count must equal the number of
//! non-infeasible records at every worker count, including runs whose
//! records end infeasible or at the decision limit.
//! Debug builds re-solve each such record on a fresh solver, so these runs
//! also check that every counted record really has a model.

use symcosim::core::{BoundCause, InstrConstraint, SessionConfig, VerifyReport, VerifySession};
use symcosim::isa::{opcodes, Pattern};

/// The BRANCH space at instruction limit 2, with the first instruction
/// narrowed to `slice` to keep the sweep small.
fn branch_config(slice: Pattern) -> SessionConfig {
    let mut config = SessionConfig::rv32i_only();
    config.stop_at_first_mismatch = false;
    config.constraint = InstrConstraint::OnlyOpcode(opcodes::BRANCH);
    config.instr_limit = 2;
    config.cycle_limit = 128;
    config.slice = Some(slice);
    config.collect_coverage = true;
    config
}

/// Records that did not end infeasible, read from the coverage records
/// (an excluded record is exactly an infeasible one).
fn feasible_records(report: &VerifyReport) -> usize {
    let coverage = report.coverage.as_ref().expect("coverage collected");
    coverage.paths.iter().filter(|p| !p.excluded()).count()
}

/// Runs `config` sequentially and on two workers; checks the count on
/// each and returns the reports.
fn count_matches_everywhere(config: &SessionConfig) -> Vec<VerifyReport> {
    let mut reports = Vec::new();
    for jobs in [1, 2] {
        let session = VerifySession::new(config.clone()).expect("valid config");
        let report = if jobs == 1 {
            session.run()
        } else {
            session.run_parallel(jobs)
        };
        assert!(report.findings.is_empty(), "corrected models agree");
        assert_eq!(
            report.test_vectors,
            feasible_records(&report),
            "jobs={jobs}"
        );
        reports.push(report);
    }
    reports
}

#[test]
fn infeasible_records_count_no_vector() {
    // Bit 0 of every BRANCH word is 1, so a slice demanding 0 there kills
    // each path at its first fetch.
    let config = branch_config(Pattern::new(0b1, 0));
    for report in count_matches_everywhere(&config) {
        assert!(report.total_paths() > 0);
        assert_eq!(feasible_records(&report), 0, "every record is infeasible");
        assert_eq!(report.test_vectors, 0);
    }
}

#[test]
fn decision_limited_and_merged_records_each_count_a_vector() {
    // funct3 = 000: the first instruction is a BEQ.
    let beq = Pattern::new(0x7000, 0);
    let reports = count_matches_everywhere(&branch_config(beq));
    assert!(reports
        .iter()
        .all(|r| r.test_vectors == r.total_paths() && !r.truncated));

    let mut limited = branch_config(beq);
    limited.max_decisions_per_path = 36;
    for report in count_matches_everywhere(&limited) {
        let coverage = report.coverage.as_ref().expect("coverage collected");
        assert!(
            coverage
                .paths
                .iter()
                .any(|p| p.bound == Some(BoundCause::DecisionLimit)),
            "the limit must cut some paths"
        );
        assert!(coverage.paths.iter().any(|p| p.certified));
    }
}
