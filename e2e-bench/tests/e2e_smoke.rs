//! Runs the benchmark at smoke size (the E6 hunt, BRANCH and OP at
//! limit 1, a four-operation ci-gate) and checks its output contract
//! against `BENCHMARK.json`.

use std::path::Path;
use std::process::Command;

use symcosim_core::json::JsonValue;
use symcosim_e2e_bench::harness::parse_result_line;
use symcosim_e2e_bench::run::{run, Options};
use symcosim_e2e_bench::workload::{Op, Workload, NAMES};

const EXE: &str = env!("CARGO_BIN_EXE_e2e");

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let value = JsonValue::parse(&text).expect("BENCHMARK.json parses");
    value
        .get(section)
        .and_then(JsonValue::as_array)
        .expect("the section is a list")
        .iter()
        .map(|metric| {
            let field = |key| metric.get(key).and_then(JsonValue::as_str).expect("string");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

#[test]
fn every_workload_emits_every_declared_metric_with_its_unit() {
    for workload in NAMES {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let spans = std::env::temp_dir().join(format!("e2e-smoke-{workload}.jsonl"));
            let output = Command::new(EXE)
                .args(["--workload", workload, "--seconds", "0", "--trace", trace])
                .arg("--spans")
                .arg(&spans)
                .arg("--smoke")
                .output()
                .expect("the benchmark runs");
            assert!(output.status.success(), "{workload} trace {trace} failed");
            let stdout = String::from_utf8_lossy(&output.stdout);
            let last = stdout.lines().last().expect("a result line");
            let result = parse_result_line(last).expect("the result line parses");
            assert!(result.correct, "{workload}: {stdout}");
            assert!(result.attempted >= 1);
            assert_eq!(result.failed, 0);
            let emitted: Vec<(String, String)> = result
                .metrics
                .iter()
                .map(|(name, _, unit)| (name.clone(), unit.clone()))
                .collect();
            assert_eq!(emitted, declared(section), "{workload} trace {trace}");
            if section == "end_to_end" {
                for (name, value, _) in &result.metrics {
                    assert!(*value > 0.0, "{workload}: {name} is {value}");
                }
            }
            let _ = std::fs::remove_file(spans);
        }
    }
}

#[test]
fn a_corrupted_pinned_digest_fails_the_operation() {
    let mut workload = Workload::new("hunt-l1", 1, true).expect("known workload");
    match &mut workload.catalogue[0] {
        Op::Hunt { report, .. } => *report ^= 1,
        other => panic!("the smoke hunt catalogue starts with a hunt, not {other}"),
    }
    let opts = Options {
        seconds: 0.0,
        trace: false,
        spans: None,
    };
    let result = run(Path::new(EXE), &workload, &opts).expect("the run completes");
    assert!(!result.correct);
    assert_eq!((result.attempted, result.failed), (1, 1));
}
