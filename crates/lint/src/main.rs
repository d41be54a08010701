//! The `symcosim-lint` command-line driver.
//!
//! ```text
//! symcosim-lint [--all] [--decode] [--cross] [--ir] [--dataflow]
//!               [--coverage REPORT.json] [--audit AUDIT.json] [--json]
//! ```
//!
//! Runs the selected static-analysis passes (default `--all`) and prints
//! a human-readable report, or the versioned JSON rendering with
//! `--json`. Exits 0 when clean, 1 on any gating finding, 2 on usage
//! errors.

use symcosim_lint::{audit, coverage, cross, dataflow, decode_space, ir, LintReport};

const USAGE: &str = "\
symcosim-lint — static decode-space and symbolic-IR analysis

USAGE:
    symcosim-lint [--all] [--decode] [--cross] [--ir] [--dataflow]
                  [--coverage REPORT.json] [--audit AUDIT.json] [--json]

        --decode    decode-space theorems: completeness, disjointness and
                    encoder consistency of the shared decode table, proved
                    by ternary-cube subtraction (no enumeration)
        --cross     cross-model sweeps: the corrected ISS and core must
                    classify exactly the table's complement as illegal;
                    as-shipped disagreements are reported as concrete
                    counterexample words
        --ir        symbolic-IR well-formedness over real path conditions
                    (including dead symbols in no path condition and no
                    output term, and path conditions refuted by the
                    known-bits/interval lattice), plus the executable x0
                    write-discard audit
        --dataflow  abstract-interpretation findings over a two-instruction
                    BRANCH sweep: dead branches (gating), constant outputs,
                    width-truncation hazards and unconstrained
                    output-influencing symbols, derived offline from the
                    known-bits + interval lattice with no solver queries
        --coverage  re-certify the exploration coverage of a dumped
                    symcosim-report/1 document (from `symcosim-cli verify
                    --report-json PATH`): prove the run's paths partition
                    the legal decode space, offline, with no engine
        --audit     re-verify a dumped symcosim-audit/1 proof artifact
                    (from `symcosim-cli verify --audit-json PATH`): replay
                    every retained UNSAT conflict cone by naive unit
                    propagation, offline, with no solver
        --all       decode + cross + ir (the default when no pass is
                    selected)
        --json      emit the versioned JSON report instead of text

    Exits 0 when clean, 1 on any gating finding.
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(run(&args));
}

fn run(args: &[String]) -> i32 {
    let mut json = false;
    let mut decode = false;
    let mut cross_model = false;
    let mut ir_pass = false;
    let mut dataflow_pass = false;
    let mut coverage_path: Option<String> = None;
    let mut audit_path: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--decode" => decode = true,
            "--cross" => cross_model = true,
            "--ir" => ir_pass = true,
            "--dataflow" => dataflow_pass = true,
            "--coverage" => match iter.next() {
                Some(path) => coverage_path = Some(path.clone()),
                None => {
                    eprintln!("error: --coverage expects a report path");
                    eprintln!();
                    eprintln!("{USAGE}");
                    return 2;
                }
            },
            "--audit" => match iter.next() {
                Some(path) => audit_path = Some(path.clone()),
                None => {
                    eprintln!("error: --audit expects an artifact path");
                    eprintln!();
                    eprintln!("{USAGE}");
                    return 2;
                }
            },
            "--all" => {
                decode = true;
                cross_model = true;
                ir_pass = true;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return 0;
            }
            other => {
                eprintln!("error: unknown argument {other:?}");
                eprintln!();
                eprintln!("{USAGE}");
                return 2;
            }
        }
    }
    if !decode
        && !cross_model
        && !ir_pass
        && !dataflow_pass
        && coverage_path.is_none()
        && audit_path.is_none()
    {
        decode = true;
        cross_model = true;
        ir_pass = true;
    }

    let cert = match coverage_path {
        None => None,
        Some(path) => match coverage::certify_report_file(&path) {
            Ok(cert) => Some(cert),
            Err(message) => {
                eprintln!("error: {message}");
                return 2;
            }
        },
    };

    let audit_report = match audit_path {
        None => None,
        Some(path) => match audit::check_audit_file(&path) {
            Ok(report) => Some(report),
            Err(message) => {
                eprintln!("error: {message}");
                return 2;
            }
        },
    };

    let report = LintReport {
        decode: decode.then(decode_space::analyze),
        cross: cross_model.then(cross::analyze),
        ir: ir_pass.then(ir::analyze),
        dataflow: dataflow_pass.then(dataflow::analyze),
        coverage: cert,
        audit: audit_report,
    };

    if json {
        print!("{}", report.to_json());
    } else {
        print!("{report}");
    }
    i32::from(report.findings() > 0)
}
