//! One benchmark run: set-up probes, passes until the time budget is
//! spent, then the end-to-end metrics (untraced) or the per-layer ones
//! (traced).

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use symcosim_core::fuzz::{self, FuzzConfig};
use symcosim_core::VerifySession;

use crate::daemon::{peak_rss_mb, Daemon};
use crate::stats::{median, percentile};
use crate::trace::Recorder;
use crate::workload::{execute, Counters, Workload};

/// Set-up probes before each pass of an untraced run; `setup_s` is the
/// median of all of them. Spreading them over the run samples the host at
/// many moments, not one.
const SETUP_PROBES_PER_PASS: usize = 8;

/// Concrete co-simulation runs of the host-speed probe.
const HOST_PROBE_RUNS: u64 = 20_000;

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Keep starting passes until this many seconds have passed.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics.
    pub trace: bool,
    /// Where a traced run writes its spans.
    pub spans: Option<PathBuf>,
}

/// A named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result line of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Every operation passed its checks.
    pub correct: bool,
    /// Operations run.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The one-line JSON object the benchmark prints last.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite float with all its digits (`{}` prints the shortest form
/// that round-trips); non-finite values become 0.
#[must_use]
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// One pass over the workload's operations.
struct Pass {
    /// Seconds spent in the pass's operations.
    wall: f64,
    /// Seconds per operation, indexed by slot (see [`Workload::pass`]).
    latencies: Vec<f64>,
    /// Set-up probe times taken before the pass (untraced runs only).
    setup: Vec<f64>,
    failed: u64,
    counters: Counters,
    traced: bool,
}

/// Runs `workload` once. `exe` is the benchmark binary, spawned for the
/// set-up probes and the daemon.
///
/// # Errors
///
/// A probe, daemon or `/proc` read that failed.
pub fn run(exe: &Path, workload: &Workload, opts: &Options) -> Result<RunResult, String> {
    let probe_start = Instant::now();
    let probe = fuzz::run(&FuzzConfig {
        max_runs: HOST_PROBE_RUNS,
        ..FuzzConfig::rv32i_only()
    });
    println!(
        "host_probe_s {:.4} ({} concrete co-simulations; a diagnostic, not a metric)",
        probe_start.elapsed().as_secs_f64(),
        probe.runs
    );

    let mut recorder = Recorder::new(false);
    let (passes, daemon_peak_mb) = run_passes(exe, workload, opts, &mut recorder)?;
    let peak = peak_rss_mb("/proc/self/status")
        .map_err(|e| e.to_string())?
        .max(daemon_peak_mb);
    let attempted: u64 = passes.iter().map(|p| p.latencies.len() as u64).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    println!(
        "workload {} seed {}: {} passes, {attempted} operations, {failed} failed",
        workload.name,
        workload.seed,
        passes.len()
    );
    let walls: Vec<String> = passes.iter().map(|p| format!("{:.4}", p.wall)).collect();
    println!("pass seconds: {}", walls.join(" "));

    let metrics = if opts.trace {
        print_trace(&recorder, &passes);
        if let Some(path) = &opts.spans {
            write_spans(path, &recorder)?;
        }
        per_layer(&recorder, &passes)
    } else {
        end_to_end(&passes, peak)
    };
    for metric in &metrics {
        println!(
            "{} {} {}",
            metric.name,
            json_number(metric.value),
            metric.unit
        );
    }
    Ok(RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}

/// Runs passes until `opts.seconds` have passed, each against a fresh
/// daemon when the workload needs one, so every pass does the same work.
/// Returns the passes and the daemons' largest peak resident set (0
/// without a daemon). A traced run alternates untraced and traced passes
/// (at least one of each), so the two can be compared; after each traced
/// operation it explores the same session again with test vectors off,
/// outside the operation's time.
fn run_passes(
    exe: &Path,
    workload: &Workload,
    opts: &Options,
    recorder: &mut Recorder,
) -> Result<(Vec<Pass>, f64), String> {
    let started = Instant::now();
    let mut passes = Vec::new();
    let mut daemon_peak_mb: f64 = 0.0;
    loop {
        let index = passes.len();
        let traced = opts.trace && index % 2 == 1;
        recorder.set_enabled(traced);
        let setup = if opts.trace {
            Vec::new()
        } else {
            (0..SETUP_PROBES_PER_PASS)
                .map(|_| measure_setup(exe, workload))
                .collect::<Result<_, _>>()?
        };
        let daemon = if workload.needs_daemon() {
            Some(Daemon::spawn(exe).map_err(|e| format!("daemon: {e}"))?)
        } else {
            None
        };
        let ops = workload.pass(index);
        let mut pass = Pass {
            wall: 0.0,
            latencies: vec![0.0; ops.len()],
            setup,
            failed: 0,
            counters: Counters::default(),
            traced,
        };
        for (position, (slot, op)) in ops.iter().enumerate() {
            let op_id = ((index as u64) << 32) | position as u64;
            let start = Instant::now();
            let outcome = execute(op, op_id, recorder, daemon.as_ref());
            let latency = start.elapsed().as_secs_f64();
            if let Some(error) = &outcome.error {
                pass.failed += 1;
                eprintln!("e2e: {} pass {index}: {op}: {error}", workload.name);
            }
            pass.wall += latency;
            pass.latencies[*slot] = latency;
            pass.counters.add(&outcome.counters);
            if let (true, Some(mut config)) = (traced, outcome.explored) {
                config.emit_test_vectors = false;
                recorder
                    .span("symex.testvec.off", op_id, |_| {
                        VerifySession::new(config).map(VerifySession::run)
                    })
                    .ok();
            }
        }
        if let Some(daemon) = daemon {
            let peak = daemon.peak_rss_mb().map_err(|e| e.to_string())?;
            daemon_peak_mb = daemon_peak_mb.max(peak);
            daemon
                .shutdown()
                .map_err(|e| format!("daemon shutdown: {e}"))?;
        }
        passes.push(pass);
        let enough = !opts.trace || passes.len() >= 2;
        if enough && started.elapsed().as_secs_f64() >= opts.seconds {
            return Ok((passes, daemon_peak_mb));
        }
    }
}

/// Each operation's time is its fastest repeat across the run's passes.
/// Every pass runs the same operations in the same slots, and contention
/// from other tenants of a shared host only ever slows an operation, so
/// the slower repeats measure the neighbours more than the program.
fn end_to_end(passes: &[Pass], peak_rss_mb: f64) -> Vec<Metric> {
    let setup: Vec<f64> = passes.iter().flat_map(|p| p.setup.clone()).collect();
    let mut latencies = passes[0].latencies.clone();
    for pass in &passes[1..] {
        for (best, latency) in latencies.iter_mut().zip(&pass.latencies) {
            *best = best.min(*latency);
        }
    }
    let wall: f64 = latencies.iter().sum();
    latencies.sort_by(f64::total_cmp);
    vec![
        Metric {
            name: "setup_s",
            value: median(&setup),
            unit: "s",
        },
        Metric {
            name: "wall_s",
            value: wall,
            unit: "s",
        },
        Metric {
            name: "paths_per_s",
            value: passes[0].counters.get("records") as f64 / wall,
            unit: "1/s",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb,
            unit: "MiB",
        },
        Metric {
            name: "op_p50_s",
            value: percentile(&latencies, 50.0),
            unit: "s",
        },
        Metric {
            name: "op_p90_s",
            value: percentile(&latencies, 90.0),
            unit: "s",
        },
    ]
}

/// Per-layer metrics read straight from the pass counters, with units.
const COUNT_METRICS: [(&str, &str); 23] = [
    ("sat.solves", "count"),
    ("sat.conflicts", "count"),
    ("sat.decisions", "count"),
    ("sat.propagations", "count"),
    ("sat.restarts", "count"),
    ("sat.db_reductions", "count"),
    ("sat.learned_kept", "count"),
    ("symex.chain.queries", "count"),
    ("symex.chain.preflight_hits", "count"),
    ("symex.chain.slice_hits", "count"),
    ("symex.chain.core_hits", "count"),
    ("symex.chain.model_hits", "count"),
    ("symex.chain.solves", "count"),
    ("symex.chain.prefix_reuse_hits", "count"),
    ("symex.cache.hits", "count"),
    ("symex.cache.misses", "count"),
    ("symex.testvec.vectors", "count"),
    ("core.cosim.instructions", "count"),
    ("core.cosim.cycles", "count"),
    ("core.report.bytes", "bytes"),
    ("core.replay.witnesses", "count"),
    ("serve.slices", "count"),
    ("serve.chain_solves", "count"),
];

/// Spans whose self time makes up `core.verdict_s`: producing and
/// checking each operation's verdict.
const VERDICT_SPANS: [&str; 4] = [
    "core.replay",
    "core.certify.certify",
    "core.certify.to_json",
    "lint.coverage.recertify",
];

fn per_layer(recorder: &Recorder, passes: &[Pass]) -> Vec<Metric> {
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let per_pass = 1.0 / traced.len() as f64;
    let self_s = recorder.self_seconds_by_name();
    let seconds = |name: &str| self_s.get(name).copied().unwrap_or(0.0) * per_pass;
    let counters = &traced[0].counters;
    if traced.iter().any(|p| p.counters != *counters) {
        println!("note: work counters differ between traced passes");
    }
    let count = |name: &str| counters.get(name) as f64;
    let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };

    let time = |name, value| Metric {
        name,
        value,
        unit: "s",
    };
    let mut metrics = vec![
        time("core.session.new_s", seconds("core.session.new")),
        time("core.session.run_s", seconds("core.session.run")),
        time("core.report.to_json_s", seconds("core.report.to_json")),
        time(
            "core.verdict_s",
            VERDICT_SPANS.iter().map(|name| seconds(name)).sum(),
        ),
        time(
            "symex.testvec.delta_s",
            seconds("core.session.run") - seconds("symex.testvec.off"),
        ),
    ];
    metrics.extend(COUNT_METRICS.iter().map(|&(name, unit)| Metric {
        name,
        value: count(name),
        unit,
    }));
    metrics.extend([
        Metric {
            name: "symex.chain.answered_ratio",
            value: ratio(
                count("symex.chain.queries") - count("symex.chain.solves"),
                count("symex.chain.queries"),
            ),
            unit: "ratio",
        },
        Metric {
            name: "symex.merge.physical_paths",
            value: count("records") - count("merged"),
            unit: "count",
        },
        Metric {
            name: "symex.merge.merged_paths",
            value: count("merged"),
            unit: "count",
        },
        Metric {
            name: "serve.warm_slice_ratio",
            value: ratio(count("serve.warm_slices"), count("serve.slices")),
            unit: "ratio",
        },
    ]);
    metrics
}

/// Prints every span's self time per traced pass, the share of the
/// operations' time the layer spans account for, and the tracing
/// overhead (mean traced minus mean untraced pass time).
fn print_trace(recorder: &Recorder, passes: &[Pass]) {
    let walls = |traced: bool| -> Vec<f64> {
        passes
            .iter()
            .filter(|p| p.traced == traced)
            .map(|p| p.wall)
            .collect()
    };
    let mean = |walls: &[f64]| walls.iter().sum::<f64>() / walls.len() as f64;
    let (traced, untraced) = (walls(true), walls(false));
    let wall = mean(&traced);
    let per_pass = 1.0 / traced.len() as f64;
    println!("span self time per traced pass (mean wall {wall:.4} s):");
    let mut unattributed = 0.0;
    for (name, total) in recorder.self_seconds_by_name() {
        let seconds = total * per_pass;
        if name.starts_with("op.") {
            unattributed += seconds;
        }
        println!(
            "  {name:<26} {seconds:>10.4} s {:>6.1} %",
            100.0 * seconds / wall
        );
    }
    println!(
        "layer spans cover {:.1} % of the operations' time",
        100.0 * (1.0 - unattributed / wall)
    );
    let untraced = mean(&untraced);
    println!(
        "tracing overhead {:+.4} s per pass (traced {wall:.4} s, untraced {untraced:.4} s)",
        wall - untraced
    );
}

fn write_spans(path: &Path, recorder: &Recorder) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, recorder.to_json_lines())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    Ok(())
}

/// Seconds from spawning `exe ready` until it reports ready.
fn measure_setup(exe: &Path, workload: &Workload) -> Result<f64, String> {
    let start = Instant::now();
    let mut command = Command::new(exe);
    command.args(["ready", "--workload", workload.name]);
    if workload.smoke {
        command.arg("--smoke");
    }
    let mut child = command
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("set-up probe: {e}"))?;
    let mut line = String::new();
    let read = BufReader::new(child.stdout.take().expect("stdout is piped")).read_line(&mut line);
    let seconds = start.elapsed().as_secs_f64();
    let status = child.wait().map_err(|e| format!("set-up probe: {e}"))?;
    if read.is_err() || line.trim() != "ready" || !status.success() {
        return Err(format!("set-up probe failed ({status})"));
    }
    Ok(seconds)
}

/// Entry point of `e2e ready`: builds the workload, starts the daemon it
/// needs, reports ready, then tears down.
pub fn ready_main(exe: &Path, workload: &str, smoke: bool) -> ExitCode {
    let ready = Workload::new(workload, 0, smoke).and_then(|workload| {
        let daemon = if workload.needs_daemon() {
            Some(Daemon::spawn(exe).map_err(|e| format!("daemon: {e}"))?)
        } else {
            None
        };
        let mut stdout = std::io::stdout();
        writeln!(stdout, "ready")
            .and_then(|()| stdout.flush())
            .map_err(|e| e.to_string())?;
        match daemon {
            Some(daemon) => daemon.shutdown().map_err(|e| format!("daemon: {e}")),
            None => Ok(()),
        }
    });
    match ready {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("e2e ready: {error}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys() {
        let result = RunResult {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![Metric {
                name: "wall_s",
                value: 1.25,
                unit: "s",
            }],
        };
        assert_eq!(
            result.to_json_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn numbers_keep_every_digit() {
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(f64::NAN), "0");
    }
}
