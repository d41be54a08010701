//! Solver-chain benchmark: feasibility solving with the KLEE-style chain
//! on versus off, with incremental solving on versus off, and with the
//! abstract-interpretation preflight on versus off.
//!
//! Runs the same frontier-drained explorations — corrected models, fork
//! engine, generation restricted to the OP and then the BRANCH major
//! opcode at instruction limit 2 — four times each: through the solver
//! chain (absint preflight, independence slicing, counterexample-core
//! subsumption, cached model evaluation) with incremental solving
//! (`chain_on`), through the chain with incremental solving disabled
//! (`incremental_off`), through the chain with the preflight disabled
//! (`preflight_off`), and solving every query set directly
//! (`chain_off`). None of the chain, incrementality or the preflight
//! changes an answer, so all four reports of each sweep are asserted
//! identical; the interesting numbers are the SAT `solve()` call count,
//! the assumption-prefix reuse rate, the preflight kill fraction (share
//! of chain queries the lattice answers before any cache or solver
//! work), and the wall time.
//!
//! Emits `BENCH_solver.json` (a `symcosim-bench/1` document) into the
//! working directory and prints the same numbers to stdout. The
//! benchmark is informational (non-gating on speed): it exits non-zero
//! only if a chain-on report diverges from its chain-off twin.
//!
//! Run with: `cargo run --release -p symcosim-bench --bin solver`
//! Optional: `--paths N` bounds the explored paths per run (default 200,
//! which drains both spaces at limit 2); `--smoke` is a fast CI mode
//! (24 paths per run) that writes its document to the system temp
//! directory; `--out PATH` overrides where the document goes.

use std::time::Instant;

use symcosim_bench::{bench_out_path, BENCH_SCHEMA};
use symcosim_core::json::{self, JsonWriter};
use symcosim_core::{EngineKind, InstrConstraint, SessionConfig, VerifyReport, VerifySession};
use symcosim_isa::opcodes;

struct Measurement {
    wall_ms: u64,
    report: VerifyReport,
}

struct Sweep {
    name: &'static str,
    opcode: u32,
    chain_on: Measurement,
    chain_off: Measurement,
    incremental_off: Measurement,
    preflight_off: Measurement,
    solves_saved_pct: f64,
    wall_speedup: f64,
    incremental_speedup: f64,
    preflight_kill_pct: f64,
    preflight_speedup: f64,
}

const INSTR_LIMIT: u32 = 2;

fn sweep_config(
    opcode: u32,
    chain: bool,
    incremental: bool,
    preflight: bool,
    max_paths: usize,
) -> SessionConfig {
    let mut config = SessionConfig::rv32i_only();
    config.stop_at_first_mismatch = false;
    config.constraint = InstrConstraint::OnlyOpcode(opcode);
    config.instr_limit = INSTR_LIMIT;
    config.cycle_limit = 64 * u64::from(INSTR_LIMIT);
    config.max_paths = max_paths;
    config.engine = EngineKind::Fork;
    config.solver_chain = chain;
    config.incremental = incremental;
    config.preflight = preflight;
    config
}

fn run_once(
    opcode: u32,
    chain: bool,
    incremental: bool,
    preflight: bool,
    max_paths: usize,
) -> Measurement {
    let config = sweep_config(opcode, chain, incremental, preflight, max_paths);
    let start = Instant::now();
    let report = VerifySession::new(config)
        .expect("valid configuration")
        .run();
    Measurement {
        wall_ms: start.elapsed().as_millis() as u64,
        report,
    }
}

fn sweep(name: &'static str, opcode: u32, max_paths: usize) -> Sweep {
    let chain_off = run_once(opcode, false, true, true, max_paths);
    let incremental_off = run_once(opcode, true, false, true, max_paths);
    let preflight_off = run_once(opcode, true, true, false, max_paths);
    let chain_on = run_once(opcode, true, true, true, max_paths);

    // The chain and incremental solving only change how answers are
    // computed, never what they are: the serialised reports (findings,
    // paths, coverage) must match bit for bit across all three modes.
    assert_eq!(
        chain_on.report.to_json(),
        chain_off.report.to_json(),
        "chain-on report diverged from chain-off on the {name} sweep"
    );
    assert_eq!(
        chain_on.report.to_json(),
        incremental_off.report.to_json(),
        "incremental solving changed the report on the {name} sweep"
    );
    assert_eq!(
        chain_on.report.to_json(),
        preflight_off.report.to_json(),
        "the absint preflight changed the report on the {name} sweep"
    );

    let off_solves = chain_off.report.solver_stats.solves;
    let on_solves = chain_on.report.solver_stats.solves;
    let solves_saved_pct = if off_solves == 0 {
        0.0
    } else {
        100.0 * (off_solves.saturating_sub(on_solves)) as f64 / off_solves as f64
    };
    let wall_speedup = chain_off.wall_ms as f64 / (chain_on.wall_ms as f64).max(1.0);
    let incremental_speedup = incremental_off.wall_ms as f64 / (chain_on.wall_ms as f64).max(1.0);
    let on_chain = &chain_on.report.chain_stats;
    let preflight_kill_pct = if on_chain.queries == 0 {
        0.0
    } else {
        100.0 * on_chain.preflight_hits as f64 / on_chain.queries as f64
    };
    let preflight_speedup = preflight_off.wall_ms as f64 / (chain_on.wall_ms as f64).max(1.0);

    println!(
        "{name:<8} {} paths  chain off: {:>6} solves {:>7} ms   \
         chain on: {:>6} solves {:>7} ms   ({solves_saved_pct:.1}% fewer solves)",
        chain_on.report.total_paths(),
        off_solves,
        chain_off.wall_ms,
        on_solves,
        chain_on.wall_ms,
    );
    println!(
        "         incremental off: {:>7} ms   incremental on: {:>7} ms   \
         ({incremental_speedup:.2}x, {} prefix reuse hits)",
        incremental_off.wall_ms, chain_on.wall_ms, chain_on.report.chain_stats.prefix_reuse_hits,
    );
    println!(
        "         preflight off: {:>7} ms   preflight on: {:>7} ms   \
         ({preflight_kill_pct:.1}% of chain queries killed statically)",
        preflight_off.wall_ms, chain_on.wall_ms,
    );
    println!("         chain: {}", chain_on.report.chain_stats);

    Sweep {
        name,
        opcode,
        chain_on,
        chain_off,
        incremental_off,
        preflight_off,
        solves_saved_pct,
        wall_speedup,
        incremental_speedup,
        preflight_kill_pct,
        preflight_speedup,
    }
}

fn write_mode(w: &mut JsonWriter, name: &str, m: &Measurement) {
    w.object_field(name);
    w.number_field("wall_ms", m.wall_ms);
    w.number_field("paths", m.report.total_paths() as u64);
    w.number_field("findings", m.report.findings.len() as u64);
    w.number_field("solves", m.report.solver_stats.solves);
    w.number_field("conflicts", m.report.solver_stats.conflicts);
    w.number_field("restarts", m.report.solver_stats.restarts);
    w.number_field("db_reductions", m.report.solver_stats.db_reductions);
    w.number_field("learned_kept", m.report.solver_stats.learned_kept);
    w.number_field("cache_hits", m.report.query_cache.hits);
    w.number_field("cache_misses", m.report.query_cache.misses);
    let chain = &m.report.chain_stats;
    w.object_field("chain");
    w.number_field("queries", chain.queries);
    w.number_field("preflight_hits", chain.preflight_hits);
    w.number_field("slices", chain.slices);
    w.number_field("slice_hits", chain.slice_hits);
    w.number_field("core_hits", chain.core_hits);
    w.number_field("model_hits", chain.model_hits);
    w.number_field("solves", chain.solves);
    w.number_field("prefix_reuse_hits", chain.prefix_reuse_hits);
    w.number_field("max_slice", chain.max_slice);
    w.close_object();
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
        .unwrap_or(if smoke { 24 } else { 200 });

    println!(
        "solver-chain benchmark (instruction limit {INSTR_LIMIT}, up to \
         {max_paths} paths per run)\n"
    );
    let sweeps = [
        sweep("OP", opcodes::OP, max_paths),
        sweep("BRANCH", opcodes::BRANCH, max_paths),
    ];

    let mut w = JsonWriter::new();
    w.open_object();
    json::header(&mut w, BENCH_SCHEMA);
    w.string_field("bench", "solver");
    w.bool_field("smoke", smoke);
    w.object_field("config");
    w.number_field("instr_limit", u64::from(INSTR_LIMIT));
    w.number_field("max_paths", max_paths as u64);
    w.close_object();
    w.array_field("sweeps", sweeps.len(), |w, i| {
        let s = &sweeps[i];
        w.open_object();
        w.string_field("name", s.name);
        w.string_field("opcode", &format!("{:#04x}", s.opcode));
        write_mode(w, "chain_on", &s.chain_on);
        write_mode(w, "chain_off", &s.chain_off);
        write_mode(w, "incremental_off", &s.incremental_off);
        write_mode(w, "preflight_off", &s.preflight_off);
        w.float_field("solves_saved_pct", s.solves_saved_pct);
        w.float_field("wall_speedup", s.wall_speedup);
        w.float_field("incremental_speedup", s.incremental_speedup);
        w.float_field("preflight_kill_pct", s.preflight_kill_pct);
        w.float_field("preflight_speedup", s.preflight_speedup);
        w.bool_field("identical_reports", true);
        w.close_object();
    });
    w.close_object();
    let out = bench_out_path(&args, "BENCH_solver.json", smoke);
    std::fs::write(&out, w.finish()).expect("write the solver document");
    println!("\nwrote {}", out.display());
}
