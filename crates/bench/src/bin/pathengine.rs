//! Paths-per-second microbenchmark of the two path engines, plus the
//! state-merging on/off dimension of the fork engine.
//!
//! **Engine comparison** — runs the same frontier-drained exploration —
//! corrected models, generation restricted to the OP major opcode — once
//! with the re-execution engine and once with the fork engine (merging
//! off), and reports the throughput ratio. At instruction limit `d` the
//! re-execution engine re-runs up to `d - 1` instructions for every
//! sibling forked at the last decision level, while the fork engine
//! resumes from a snapshot taken at the enclosing instruction boundary,
//! so the fork advantage grows with the instruction limit. Both engines
//! issue the *identical* sequence of solver queries (the printed solve
//! counts match), so the measured gap is purely replay-versus-snapshot
//! overhead.
//!
//! **Merge dimension** — runs the fork engine over the BRANCH opcode
//! space (where the decode structure makes sibling flavours rejoin at
//! the post-instruction state) with `SessionConfig::merge` off and on,
//! at instruction limits 2 and 4. The reports are byte-identical; the
//! dimension measures how many *physical* paths merging saves (a merged
//! path representing k sibling arms executes once) and the resulting
//! throughput in path records per second.
//!
//! Any truncated row is explicit: its JSON carries `truncated: true`
//! and `paths_dropped` (queued jobs never run — a lower bound, since an
//! unexplored job can fork further), and a note goes to stderr. There
//! are no silent caps: the default path budget (40000) drains every
//! space this benchmark sweeps (OP at limit 4 is 18888 records, BRANCH
//! at limit 4 is 37573).
//!
//! Emits `BENCH_pathengine.json` (a `symcosim-bench/1` document) into
//! the working directory and prints the same numbers to stdout. The
//! benchmark is informational (non-gating): it always exits 0, whatever
//! the measured ratios.
//!
//! Run with: `cargo run --release -p symcosim-bench --bin pathengine`
//! Optional: `--paths N` bounds the explored paths per run (default
//! 40000, which drains both the OP and BRANCH spaces at limit 4);
//! `--limit N` sets the instruction limit of the primary engine
//! comparison (default 2); `--smoke` is a fast CI mode (24 paths,
//! primary rows only — explicitly truncated) that writes its document
//! to the system temp directory; `--out PATH` overrides where the
//! document goes.

use std::time::Instant;

use symcosim_bench::{bench_out_path, BENCH_SCHEMA};
use symcosim_core::json::{self, JsonWriter};
use symcosim_core::{EngineKind, InstrConstraint, SessionConfig, VerifySession};
use symcosim_isa::opcodes;

struct Measurement {
    label: String,
    paths: usize,
    physical_paths: usize,
    merged_paths: usize,
    findings: usize,
    truncated: bool,
    paths_dropped: usize,
    wall_ms: u64,
    paths_per_sec: f64,
}

fn bench_config(opcode: u32, max_paths: usize, instr_limit: u32) -> SessionConfig {
    let mut config = SessionConfig::rv32i_only();
    config.stop_at_first_mismatch = false;
    config.constraint = InstrConstraint::OnlyOpcode(opcode);
    config.instr_limit = instr_limit;
    config.cycle_limit = 64 * instr_limit as u64;
    config.max_paths = max_paths;
    config
}

fn run_config(label: &str, config: SessionConfig, instr_limit: u32) -> Measurement {
    let start = Instant::now();
    let report = VerifySession::new(config)
        .expect("valid configuration")
        .run();
    let wall = start.elapsed();
    let paths = report.total_paths();
    eprintln!(
        "  [{label} @ limit {instr_limit}] solver: {} solves, {} conflicts; \
         cache: {} hits, {} misses",
        report.solver_stats.solves,
        report.solver_stats.conflicts,
        report.query_cache.hits,
        report.query_cache.misses
    );
    if report.truncated {
        eprintln!(
            "  note: [{label} @ limit {instr_limit}] truncated at {paths} path \
             records with {} queued jobs dropped (at least; an unexplored job \
             can fork further) — pass a larger --paths for the full space",
            report.paths_dropped
        );
    }
    Measurement {
        label: label.to_string(),
        paths,
        physical_paths: paths - report.merged_paths,
        merged_paths: report.merged_paths,
        findings: report.findings.len(),
        truncated: report.truncated,
        paths_dropped: report.paths_dropped,
        wall_ms: wall.as_millis() as u64,
        paths_per_sec: paths as f64 / wall.as_secs_f64().max(1e-9),
    }
}

fn run_engine(kind: EngineKind, max_paths: usize, instr_limit: u32) -> Measurement {
    let mut config = bench_config(opcodes::OP, max_paths, instr_limit);
    config.engine = kind;
    // Merging would let the fork engine skip solver queries the
    // re-execution engine must issue; keep the engine comparison a pure
    // replay-versus-snapshot measurement.
    config.merge = false;
    run_config(&kind.to_string(), config, instr_limit)
}

fn print_row(m: &Measurement, instr_limit: u32) {
    println!(
        "{:<9} limit {:>2} {:>6} paths ({:>6} physical)  {:>8} ms  \
         {:>10.2} paths/s{}",
        m.label,
        instr_limit,
        m.paths,
        m.physical_paths,
        m.wall_ms,
        m.paths_per_sec,
        if m.truncated { "  [truncated]" } else { "" }
    );
}

/// Runs both engines at one instruction limit and returns
/// `(reexec, fork, speedup)` after checking they explored the same space.
fn compare(max_paths: usize, instr_limit: u32) -> (Measurement, Measurement, f64) {
    let reexec = run_engine(EngineKind::Reexec, max_paths, instr_limit);
    let fork = run_engine(EngineKind::Fork, max_paths, instr_limit);
    assert_eq!(
        (reexec.paths, reexec.findings),
        (fork.paths, fork.findings),
        "the engines must explore the same path set"
    );
    for m in [&reexec, &fork] {
        print_row(m, instr_limit);
    }
    let speedup = fork.paths_per_sec / reexec.paths_per_sec.max(1e-9);
    println!("fork/reexec speedup at limit {instr_limit}: {speedup:.2}x\n");
    (reexec, fork, speedup)
}

/// Runs the fork engine over the BRANCH space with merging off and on and
/// returns `(off, on, physical_reduction)`.
fn compare_merge(max_paths: usize, instr_limit: u32) -> (Measurement, Measurement, f64) {
    let mut off_config = bench_config(opcodes::BRANCH, max_paths, instr_limit);
    off_config.engine = EngineKind::Fork;
    off_config.merge = false;
    let off = run_config("merge_off", off_config, instr_limit);
    let mut on_config = bench_config(opcodes::BRANCH, max_paths, instr_limit);
    on_config.engine = EngineKind::Fork;
    on_config.merge = true;
    let on = run_config("merge_on", on_config, instr_limit);
    // Byte-identity of the record set only holds for drained runs: under
    // a path cap, merging reaches a different prefix of the space (a
    // merged path records every arm it represents).
    if !off.truncated && !on.truncated {
        assert_eq!(
            (off.paths, off.findings),
            (on.paths, on.findings),
            "merging must reproduce the identical path-record set"
        );
    }
    for m in [&off, &on] {
        print_row(m, instr_limit);
    }
    let reduction = off.physical_paths as f64 / on.physical_paths.max(1) as f64;
    println!(
        "merge physical path reduction at limit {instr_limit}: {reduction:.2}x \
         ({} -> {} physical paths for {} records)\n",
        off.physical_paths, on.physical_paths, on.paths
    );
    (off, on, reduction)
}

fn write_measurement(w: &mut JsonWriter, name: &str, m: &Measurement) {
    w.object_field(name);
    w.number_field("paths", m.paths as u64);
    w.number_field("physical_paths", m.physical_paths as u64);
    w.number_field("merged_paths", m.merged_paths as u64);
    w.number_field("findings", m.findings as u64);
    w.bool_field("truncated", m.truncated);
    w.number_field("paths_dropped", m.paths_dropped as u64);
    w.number_field("wall_ms", m.wall_ms);
    w.float_field("paths_per_sec", m.paths_per_sec);
    w.close_object();
}

fn write_merge_row(
    w: &mut JsonWriter,
    name: &str,
    limit: u32,
    off: &Measurement,
    on: &Measurement,
    reduction: f64,
) {
    w.object_field(name);
    w.number_field("instr_limit", u64::from(limit));
    write_measurement(w, "merge_off", off);
    write_measurement(w, "merge_on", on);
    w.float_field("physical_reduction", reduction);
    w.close_object();
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let max_paths = args
        .iter()
        .position(|a| a == "--paths")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 24 } else { 40_000 });
    let instr_limit = args
        .iter()
        .position(|a| a == "--limit")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);

    println!(
        "path-engine throughput (OnlyOpcode(OP), instruction limit \
         {instr_limit}, up to {max_paths} paths per run)\n"
    );
    let (reexec, fork, speedup) = compare(max_paths, instr_limit);

    let deep = if smoke {
        None
    } else {
        let deep_limit = 4;
        let (r, f, s) = compare(max_paths, deep_limit);
        Some((deep_limit, r, f, s))
    };

    println!(
        "state merging (OnlyOpcode(BRANCH), fork engine, up to {max_paths} \
         paths per run)\n"
    );
    let merge_shallow = compare_merge(max_paths, 2);
    let merge_deep = if smoke {
        None
    } else {
        let (off, on, reduction) = compare_merge(max_paths, 4);
        Some((4u32, off, on, reduction))
    };

    let mut w = JsonWriter::new();
    w.open_object();
    json::header(&mut w, BENCH_SCHEMA);
    w.string_field("bench", "pathengine");
    w.bool_field("smoke", smoke);
    w.object_field("config");
    w.string_field("constraint", "OnlyOpcode(OP)");
    w.number_field("instr_limit", u64::from(instr_limit));
    w.number_field("max_paths", max_paths as u64);
    w.close_object();
    write_measurement(&mut w, "reexec", &reexec);
    write_measurement(&mut w, "fork", &fork);
    w.float_field("speedup", speedup);
    if let Some((limit, r, f, s)) = &deep {
        w.object_field("deep");
        w.number_field("instr_limit", u64::from(*limit));
        write_measurement(&mut w, "reexec", r);
        write_measurement(&mut w, "fork", f);
        w.float_field("speedup", *s);
        w.close_object();
    }
    w.object_field("merge");
    w.string_field("constraint", "OnlyOpcode(BRANCH)");
    {
        let (off, on, reduction) = &merge_shallow;
        write_merge_row(&mut w, "shallow", 2, off, on, *reduction);
    }
    if let Some((limit, off, on, reduction)) = &merge_deep {
        write_merge_row(&mut w, "deep", *limit, off, on, *reduction);
    }
    w.close_object();
    w.close_object();
    let out = bench_out_path(&args, "BENCH_pathengine.json", smoke);
    std::fs::write(&out, w.finish()).expect("write the pathengine document");
    println!("wrote {}", out.display());
}
