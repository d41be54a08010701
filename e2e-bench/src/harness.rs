//! The multi-workload harness: every (workload, rep) in a fresh child
//! process, reps interleaved across workloads (A B C D, A B C D, …) so
//! host drift hits every workload alike, then one traced run per
//! workload. Prints each end-to-end metric's median, quartiles and
//! samples, and optionally writes them with the git revision.

use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};

use symcosim_core::json::JsonValue;

use crate::run::json_number;
use crate::stats::summary;

/// Settings of a harness run.
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// Workloads to run.
    pub workloads: Vec<String>,
    /// Untraced runs per workload; rep `i` uses seed `seed + i`.
    pub reps: usize,
    /// First seed.
    pub seed: u64,
    /// Measured seconds per run.
    pub seconds: f64,
    /// Use the smoke-size catalogues.
    pub smoke: bool,
}

/// Parsed result line of one child run.
#[derive(Debug, Clone)]
pub struct ChildResult {
    /// `correct` field.
    pub correct: bool,
    /// `attempted` field.
    pub attempted: u64,
    /// `failed` field.
    pub failed: u64,
    /// `(name, value, unit)` in the order printed.
    pub metrics: Vec<(String, f64, String)>,
}

/// Parses the JSON object a run prints as its last stdout line.
///
/// # Errors
///
/// Malformed JSON or a missing key.
pub fn parse_result_line(line: &str) -> Result<ChildResult, String> {
    let value = JsonValue::parse(line).map_err(|e| e.to_string())?;
    let number = |v: &JsonValue| match v {
        JsonValue::Number(raw) => raw.parse::<f64>().ok(),
        _ => None,
    };
    let metrics = match value.get("metrics") {
        Some(JsonValue::Object(fields)) => fields
            .iter()
            .map(|(name, metric)| {
                let value = metric.get("value").and_then(number);
                let unit = metric.get("unit").and_then(JsonValue::as_str);
                match (value, unit) {
                    (Some(value), Some(unit)) => Ok((name.clone(), value, unit.to_string())),
                    _ => Err(format!("metric {name} lacks a value or unit")),
                }
            })
            .collect::<Result<Vec<_>, String>>()?,
        _ => return Err("no metrics object".to_string()),
    };
    Ok(ChildResult {
        correct: value
            .get("correct")
            .and_then(JsonValue::as_bool)
            .ok_or("no correct")?,
        attempted: value
            .get("attempted")
            .and_then(JsonValue::as_u64)
            .ok_or("no attempted")?,
        failed: value
            .get("failed")
            .and_then(JsonValue::as_u64)
            .ok_or("no failed")?,
        metrics,
    })
}

/// Runs `exe` on one workload in a child process and returns its stdout
/// lines and parsed result.
///
/// # Errors
///
/// The child could not run, failed, or printed no result line.
pub fn run_child(
    exe: &Path,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<(Vec<String>, ChildResult), String> {
    let mut command = Command::new(exe);
    command.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    if smoke {
        command.arg("--smoke");
    }
    let output = command
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed}: exited with {}",
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<String> = stdout.lines().map(str::to_string).collect();
    let last = lines
        .pop()
        .ok_or_else(|| format!("{workload}: no output"))?;
    let result = parse_result_line(&last).map_err(|e| format!("{workload}: {e}"))?;
    Ok((lines, result))
}

struct WorkloadResults {
    name: String,
    runs: Vec<ChildResult>,
    traced: ChildResult,
}

/// Runs the harness; returns whether every run was correct.
///
/// # Errors
///
/// A child run that failed outright, or an unwritable `out` file.
pub fn run_all(exe: &Path, opts: &HarnessOptions, out: Option<&Path>) -> Result<bool, String> {
    let mut runs: Vec<Vec<ChildResult>> = vec![Vec::new(); opts.workloads.len()];
    for rep in 0..opts.reps {
        for (index, workload) in opts.workloads.iter().enumerate() {
            let seed = opts.seed + rep as u64;
            let (_, result) = run_child(exe, workload, seed, opts.seconds, false, opts.smoke)?;
            eprintln!(
                "e2e: {workload} rep {rep} seed {seed}: {} of {} operations failed",
                result.failed, result.attempted
            );
            runs[index].push(result);
        }
    }
    let mut results = Vec::new();
    for (workload, runs) in opts.workloads.iter().zip(runs) {
        let (lines, traced) = run_child(exe, workload, opts.seed, opts.seconds, true, opts.smoke)?;
        println!("== {workload}: traced run");
        for line in lines {
            println!("   {line}");
        }
        results.push(WorkloadResults {
            name: workload.clone(),
            runs,
            traced,
        });
    }
    for workload in &results {
        print_table(workload);
    }
    if let Some(path) = out {
        std::fs::write(path, results_json(opts, &results))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("results written to {}", path.display());
    }
    Ok(results
        .iter()
        .all(|w| w.traced.correct && w.runs.iter().all(|r| r.correct)))
}

/// `(name, unit, samples)` of every end-to-end metric across the runs.
fn samples(runs: &[ChildResult]) -> Vec<(String, String, Vec<f64>)> {
    let mut metrics: Vec<(String, String, Vec<f64>)> = Vec::new();
    for run in runs {
        for (name, value, unit) in &run.metrics {
            match metrics.iter_mut().find(|m| &m.0 == name) {
                Some(metric) => metric.2.push(*value),
                None => metrics.push((name.clone(), unit.clone(), vec![*value])),
            }
        }
    }
    metrics
}

fn print_table(workload: &WorkloadResults) {
    let attempted: u64 = workload.runs.iter().map(|r| r.attempted).sum();
    let failed: u64 = workload.runs.iter().map(|r| r.failed).sum();
    println!(
        "== {}: {} runs, {failed} of {attempted} operations failed (fail_frac {})",
        workload.name,
        workload.runs.len(),
        json_number(failed as f64 / attempted.max(1) as f64)
    );
    println!(
        "   {:<14} {:>6} {:>12} {:>12} {:>12} {:>8}  samples",
        "metric", "unit", "median", "q1", "q3", "iqr/med"
    );
    for (name, unit, values) in samples(&workload.runs) {
        let s = summary(&values);
        let list: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
        println!(
            "   {name:<14} {unit:>6} {:>12.4} {:>12.4} {:>12.4} {:>7.1}%  {}",
            s.median,
            s.q1,
            s.q3,
            100.0 * s.spread(),
            list.join(" ")
        );
    }
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn results_json(opts: &HarnessOptions, results: &[WorkloadResults]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"schema\": \"symcosim-e2e/1\",\n  \"git_rev\": \"{}\",\n  \"seed\": {},\n  \
         \"reps\": {},\n  \"seconds\": {},\n  \"workloads\": {{",
        git_rev(),
        opts.seed,
        opts.reps,
        json_number(opts.seconds)
    );
    for (index, workload) in results.iter().enumerate() {
        let attempted: u64 = workload.runs.iter().map(|r| r.attempted).sum();
        let failed: u64 = workload.runs.iter().map(|r| r.failed).sum();
        let _ = write!(
            out,
            "{}\n    \"{}\": {{\n      \"attempted\": {attempted},\n      \"failed\": {failed},\n      \
             \"end_to_end\": {{",
            if index == 0 { "" } else { "," },
            workload.name
        );
        for (i, (name, unit, values)) in samples(&workload.runs).iter().enumerate() {
            let s = summary(values);
            let list: Vec<String> = values.iter().map(|v| json_number(*v)).collect();
            let _ = write!(
                out,
                "{}\n        \"{name}\": {{\"unit\": \"{unit}\", \"median\": {}, \"q1\": {}, \
                 \"q3\": {}, \"samples\": [{}]}}",
                if i == 0 { "" } else { "," },
                json_number(s.median),
                json_number(s.q1),
                json_number(s.q3),
                list.join(", ")
            );
        }
        out.push_str("\n      },\n      \"per_layer\": {");
        for (i, (name, value, unit)) in workload.traced.metrics.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n        \"{name}\": {{\"unit\": \"{unit}\", \"value\": {}}}",
                if i == 0 { "" } else { "," },
                json_number(*value)
            );
        }
        out.push_str("\n      }\n    }");
    }
    out.push_str("\n  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_round_trip() {
        let line = "{\"correct\": true, \"attempted\": 4, \"failed\": 1, \"metrics\": \
                    {\"wall_s\": {\"value\": 0.30000000000000004, \"unit\": \"s\"}}}";
        let parsed = parse_result_line(line).expect("well-formed");
        assert!(parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (4, 1));
        assert_eq!(
            parsed.metrics,
            [("wall_s".to_string(), 0.1 + 0.2, "s".to_string())]
        );
        assert!(parse_result_line("{\"correct\": true}").is_err());
    }
}
