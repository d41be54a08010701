//! The worker pool: spawn, explore, merge deterministically.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::thread;
use std::time::{Duration, Instant};

use symcosim_symex::{
    CoreReplayUnit, EngineConfig, ForkEngine, ForkJob, ForkTask, PathResult, PathStatus,
    ProofAuditStats, QueryCacheStats, SolverChainStats, SolverStats,
};

use crate::budget::Budget;
use crate::frontier::ShardedFrontier;
use crate::progress::ProgressEvent;

/// Configuration of one parallel exploration.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Worker thread count (clamped to at least 1).
    pub jobs: usize,
    /// Per-worker engine configuration. `max_paths` is interpreted as the
    /// *global* path budget across all workers; `seed` is perturbed per
    /// worker so random-path popping decorrelates.
    pub engine: EngineConfig,
    /// Optional wall-clock budget for the whole exploration.
    pub deadline: Option<Duration>,
}

impl ExecConfig {
    /// `jobs` workers with the given engine configuration, no deadline.
    pub fn new(jobs: usize, engine: EngineConfig) -> ExecConfig {
        ExecConfig {
            jobs,
            engine,
            deadline: None,
        }
    }
}

/// Per-worker accounting of one exploration.
#[derive(Debug, Clone)]
pub struct WorkerReport {
    /// Worker index.
    pub worker: usize,
    /// Paths this worker explored.
    pub paths: usize,
    /// Time spent executing paths (excludes queue waits).
    pub busy: Duration,
    /// Its private SAT solver's cumulative statistics.
    pub stats: SolverStats,
    /// Its feasibility-query cache's hit/miss counters.
    pub cache: QueryCacheStats,
    /// Its solver chain's slicing and caching counters.
    pub chain: SolverChainStats,
    /// Its proof auditor's certification counters (all zero when
    /// auditing is off).
    pub audit: ProofAuditStats,
    /// The first answer its auditor refused to certify, if any.
    pub audit_failure: Option<String>,
    /// Conflict cones its auditor certified, for the offline audit
    /// artifact. Empty when auditing is off.
    pub audit_units: Vec<CoreReplayUnit>,
}

/// Aggregate result of an [`explore_parallel_fork`] call.
///
/// `paths` is in **canonical order** (lexicographic by decision vector),
/// not completion order — the order is a pure function of the exploration,
/// independent of worker count and scheduling.
#[derive(Debug, Clone)]
pub struct ParallelOutcome<R> {
    /// All explored paths in canonical (decision-vector) order.
    pub paths: Vec<PathResult<R>>,
    /// Paths that ran to completion.
    pub complete_paths: usize,
    /// Paths cut short (infeasible assumes or decision limits).
    pub partial_paths: usize,
    /// `true` if exploration stopped with work left (path budget,
    /// deadline, or stop predicate).
    pub frontier_exhausted: bool,
    /// Frontier jobs still queued when exploration stopped — a lower
    /// bound on the paths the truncation dropped. Zero when the
    /// frontier drained.
    pub paths_dropped: usize,
    /// Per-worker accounting, indexed by worker.
    pub workers: Vec<WorkerReport>,
    /// Wall-clock duration of the whole exploration.
    pub wall: Duration,
}

impl<R> ParallelOutcome<R> {
    /// Iterates over the values of complete paths (canonical order).
    pub fn complete_values(&self) -> impl Iterator<Item = &R> {
        self.paths
            .iter()
            .filter(|p| p.status == PathStatus::Complete)
            .map(|p| &p.value)
    }
}

/// One frontier entry of a fork-engine exploration: the job plus the
/// worker whose engine produced it.
///
/// A snapshot embeds `TermId`s and task state minted by the owner's
/// private term context, so it is only meaningful inside that worker's
/// engine. A stolen entry is degraded to its recorded decision prefix
/// ([`ForkJob::spill`]) and replayed from the root — stealing trades the
/// snapshot for load balance.
struct ForkEntry<S> {
    owner: usize,
    job: ForkJob<S>,
}

/// Explores every feasible path through `task` using `config.jobs` worker
/// threads, stopping early when `stop` returns true for a finished path.
/// Every worker owns a private [`ForkEngine`] and resumes sibling paths
/// from copy-on-write snapshots instead of re-executing decision
/// prefixes.
///
/// `task` must satisfy the [`ForkTask`] determinism contract;
/// additionally it is shared by all workers, so it must be `Sync` (it is
/// re-invoked, never mutated). Progress events are emitted on `progress`
/// if given; a dropped receiver is tolerated. For a frontier-drained run
/// the returned outcome is identical whatever `config.jobs` is — see the
/// crate documentation for the argument.
///
/// Snapshots are worker-affine (see [`ForkEntry`]); jobs that cross
/// workers through stealing, and forks past the global
/// [`EngineConfig::max_resident_snapshots`] bound, fall back to prefix
/// replay. Both fallbacks change performance only — the per-path results,
/// and therefore the canonical merge, are identical either way.
pub fn explore_parallel_fork<T, P>(
    config: &ExecConfig,
    task: &T,
    stop: P,
    progress: Option<Sender<ProgressEvent>>,
) -> ParallelOutcome<T::Out>
where
    T: ForkTask + Sync,
    T::State: Send + Sync,
    T::Out: Send,
    P: Fn(&PathResult<T::Out>) -> bool + Sync,
{
    let jobs = config.jobs.max(1);
    let start = Instant::now();
    let budget = Budget::new(config.engine.max_paths, config.deadline);
    let frontier: ShardedFrontier<ForkEntry<T::State>> = ShardedFrontier::new(jobs);
    let resident = AtomicUsize::new(0);
    let max_resident = config.engine.max_resident_snapshots;
    frontier.push(
        0,
        ForkEntry {
            owner: 0,
            job: ForkJob::root(),
        },
    );
    if let Some(tx) = &progress {
        let _ = tx.send(ProgressEvent::Started { jobs });
    }

    let (mut paths, workers) = thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|worker| {
                let tx = progress.clone();
                let (frontier, budget, resident, stop) = (&frontier, &budget, &resident, &stop);
                let mut engine_config = config.engine.clone();
                engine_config.seed ^= (worker as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                scope.spawn(move || {
                    let strategy = engine_config.strategy;
                    let mut rng = engine_config.seed | 1;
                    let mut engine = ForkEngine::new(engine_config);
                    let mut local: Vec<PathResult<T::Out>> = Vec::new();
                    let mut busy = Duration::ZERO;
                    while let Some(entry) = frontier.acquire(worker, strategy, &mut rng, budget) {
                        let mut job = entry.job;
                        if job.has_snapshot() {
                            resident.fetch_sub(1, Ordering::Relaxed);
                            if entry.owner != worker {
                                // Stolen: the snapshot is meaningless in
                                // this worker's engine.
                                job = job.spill();
                            }
                        }
                        if !budget.claim() {
                            // Path budget spent: retire the job unrun and
                            // bring the whole exploration down.
                            frontier.finish(worker, Vec::new());
                            budget.cancel();
                            break;
                        }
                        let t0 = Instant::now();
                        let (result, forks) = engine.run_job(job, task);
                        busy += t0.elapsed();
                        if stop(&result) {
                            budget.cancel();
                        }
                        let entries = forks
                            .into_iter()
                            .map(|fork| {
                                let admitted = !fork.has_snapshot()
                                    || resident
                                        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                                            (n < max_resident).then_some(n + 1)
                                        })
                                        .is_ok();
                                // Over the resident bound: spill.
                                let job = if admitted { fork } else { fork.spill() };
                                ForkEntry { owner: worker, job }
                            })
                            .collect();
                        frontier.finish(worker, entries);
                        if let Some(tx) = &tx {
                            let _ = tx.send(ProgressEvent::PathDone {
                                worker,
                                depth: result.decisions.len(),
                                paths_done: budget.claimed(),
                                queued: frontier.pending(),
                                elapsed_ms: start.elapsed().as_millis() as u64,
                            });
                        }
                        local.push(result);
                    }
                    let stats = engine.backend().stats();
                    let cache = engine.backend().query_cache_stats();
                    let chain = engine.backend().solver_chain_stats();
                    let audit = engine.backend().proof_audit_stats();
                    let audit_failure = engine.backend().proof_audit_failure().map(String::from);
                    let audit_units = engine.take_audit_units();
                    if let Some(tx) = &tx {
                        let _ = tx.send(ProgressEvent::WorkerDone {
                            worker,
                            paths: local.len(),
                            busy_ms: busy.as_millis() as u64,
                            solver: stats,
                            cache,
                            chain,
                            audit,
                        });
                    }
                    let report = WorkerReport {
                        worker,
                        paths: local.len(),
                        busy,
                        stats,
                        cache,
                        chain,
                        audit,
                        audit_failure,
                        audit_units,
                    };
                    (local, report)
                })
            })
            .collect();
        let mut paths = Vec::new();
        let mut workers = Vec::new();
        for handle in handles {
            let (local, report) = handle.join().expect("worker panicked");
            paths.extend(local);
            workers.push(report);
        }
        (paths, workers)
    });

    // Canonical merge: explored decision vectors are pairwise prefix-free,
    // so their lexicographic order is total and schedule-independent.
    paths.sort_by(|a, b| a.decisions.cmp(&b.decisions));
    let complete = paths
        .iter()
        .filter(|p| p.status == PathStatus::Complete)
        .count();
    let truncated = budget.cancelled() || frontier.pending() > 0;
    if let Some(tx) = &progress {
        let _ = tx.send(ProgressEvent::Finished {
            paths: paths.len(),
            wall_ms: start.elapsed().as_millis() as u64,
            truncated,
        });
    }
    ParallelOutcome {
        complete_paths: complete,
        partial_paths: paths.len() - complete,
        frontier_exhausted: truncated,
        paths_dropped: frontier.pending(),
        workers,
        wall: start.elapsed(),
        paths,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use symcosim_symex::{Domain, FnTask, ForkExec, SearchStrategy, StepResult};

    /// A task's value plus its path's model, extracted inside the task the
    /// way the session extracts a finding's witness.
    type Out = (u32, Option<String>);

    fn model(exec: &mut ForkExec) -> Option<String> {
        exec.stable_witness_vector(&[]).map(|v| v.to_string())
    }

    /// Four decisions over distinct bits of one symbol, one decision per
    /// step so the engine snapshots between bits: 16 feasible paths.
    struct ForkBits;

    #[derive(Clone)]
    struct ForkBitsState {
        value: u32,
        bit: u32,
    }

    impl ForkTask for ForkBits {
        type State = ForkBitsState;
        type Out = Out;

        fn start(&self, _exec: &mut ForkExec) -> ForkBitsState {
            ForkBitsState { value: 0, bit: 0 }
        }

        fn step(&self, state: &mut ForkBitsState, exec: &mut ForkExec) -> StepResult<Out> {
            if state.bit == 4 {
                return StepResult::Done((state.value, model(exec)));
            }
            let x = exec.fresh_word("x");
            let field = exec.field(x, state.bit, state.bit);
            let one = exec.const_word(1);
            let set = exec.eq_w(field, one);
            if exec.decide(set) {
                state.value |= 1 << state.bit;
            }
            state.bit += 1;
            StepResult::Continue
        }
    }

    /// [`ForkBits`] as one closure step: every sibling replays its prefix
    /// from the root (re-execution).
    fn four_bit_task(exec: &mut ForkExec) -> Out {
        let x = exec.fresh_word("x");
        let mut value = 0u32;
        for bit in 0..4 {
            let field = exec.field(x, bit, bit);
            let one = exec.const_word(1);
            let set = exec.eq_w(field, one);
            if exec.decide(set) {
                value |= 1 << bit;
            }
        }
        (value, model(exec))
    }

    fn config(jobs: usize) -> ExecConfig {
        ExecConfig::new(jobs, EngineConfig::default())
    }

    fn run(cfg: &ExecConfig) -> ParallelOutcome<Out> {
        explore_parallel_fork(cfg, &ForkBits, |_| false, None)
    }

    /// A printable fingerprint of everything a merged report is built from.
    fn fingerprint(outcome: &ParallelOutcome<Out>) -> Vec<String> {
        outcome
            .paths
            .iter()
            .map(|p| {
                format!(
                    "{:?} value={} status={:?} vector={:?}",
                    p.decisions, p.value.0, p.status, p.value.1
                )
            })
            .collect()
    }

    #[test]
    fn drained_runs_are_identical_across_worker_counts() {
        let baseline = run(&config(1));
        assert_eq!(baseline.paths.len(), 16);
        assert!(!baseline.frontier_exhausted);
        let mut values: Vec<u32> = baseline.complete_values().map(|v| v.0).collect();
        values.sort_unstable();
        assert_eq!(values, (0..16).collect::<Vec<u32>>());
        assert!(baseline.paths.iter().all(|p| p.value.1.is_some()));

        for jobs in [2, 4] {
            let outcome = run(&config(jobs));
            assert_eq!(fingerprint(&outcome), fingerprint(&baseline), "jobs={jobs}");
            assert_eq!(outcome.workers.len(), jobs);
        }
    }

    #[test]
    fn all_strategies_drain_to_the_same_merge() {
        let baseline = run(&config(1));
        for strategy in [SearchStrategy::Bfs, SearchStrategy::RandomPath] {
            let mut cfg = config(3);
            cfg.engine.strategy = strategy;
            assert_eq!(
                fingerprint(&run(&cfg)),
                fingerprint(&baseline),
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn repeated_runs_are_identical() {
        assert_eq!(fingerprint(&run(&config(4))), fingerprint(&run(&config(4))));
    }

    #[test]
    fn stop_predicate_cancels_the_run() {
        let outcome = explore_parallel_fork(&config(2), &ForkBits, |p| p.value.0 == 5, None);
        assert!(outcome.paths.iter().any(|p| p.value.0 == 5));
        assert!(outcome.frontier_exhausted, "forks were left unexplored");
    }

    #[test]
    fn path_budget_truncates() {
        let mut cfg = config(2);
        cfg.engine.max_paths = 5;
        let outcome = run(&cfg);
        assert!(outcome.paths.len() <= 5, "{} paths", outcome.paths.len());
        assert!(outcome.frontier_exhausted);
    }

    #[test]
    fn expired_deadline_stops_immediately() {
        let mut cfg = config(2);
        cfg.deadline = Some(Duration::ZERO);
        let outcome = run(&cfg);
        assert!(outcome.paths.is_empty());
        assert!(outcome.frontier_exhausted);
    }

    #[test]
    fn progress_events_bracket_the_run() {
        let (tx, rx) = mpsc::channel();
        let outcome = explore_parallel_fork(&config(2), &ForkBits, |_| false, Some(tx));
        let events: Vec<ProgressEvent> = rx.iter().collect();
        assert!(matches!(
            events.first(),
            Some(ProgressEvent::Started { jobs: 2 })
        ));
        assert!(matches!(
            events.last(),
            Some(ProgressEvent::Finished {
                paths: 16,
                truncated: false,
                ..
            })
        ));
        let path_events = events
            .iter()
            .filter(|e| matches!(e, ProgressEvent::PathDone { .. }))
            .count();
        assert_eq!(path_events, outcome.paths.len());
        let worker_events = events
            .iter()
            .filter(|e| matches!(e, ProgressEvent::WorkerDone { .. }))
            .count();
        assert_eq!(worker_events, 2);
    }

    #[test]
    fn snapshot_bound_zero_degrades_to_replay() {
        // With no resident snapshots every fork spills and replays its
        // prefix from the root; so does a closure run as one step. Both
        // are re-execution, and both must match the snapshotted run.
        let baseline = run(&config(1));
        let mut cfg = config(2);
        cfg.engine.max_resident_snapshots = 0;
        assert_eq!(fingerprint(&run(&cfg)), fingerprint(&baseline));
        for jobs in [1, 3] {
            let replayed =
                explore_parallel_fork(&config(jobs), &FnTask(four_bit_task), |_| false, None);
            assert_eq!(
                fingerprint(&replayed),
                fingerprint(&baseline),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn infeasible_paths_survive_the_merge() {
        // assume() kills one branch; parallel and sequential agree on the
        // partial-path accounting.
        let task = FnTask(|exec: &mut ForkExec| {
            let x = exec.fresh_word("x");
            let ten = exec.const_word(10);
            let lt = exec.ult(x, ten);
            let five = exec.const_word(5);
            let big = exec.ult(five, x);
            if exec.decide(lt) {
                // x < 10: now require x > 5 and x < 3 — contradiction on
                // the sub-branch that also decided x < 3.
                exec.assume(big);
                let three = exec.const_word(3);
                let small = exec.ult(x, three);
                exec.assume(small);
                1
            } else {
                0
            }
        });
        let seq = explore_parallel_fork(&config(1), &task, |_| false, None);
        let par = explore_parallel_fork(&config(4), &task, |_| false, None);
        assert_eq!(seq.complete_paths, par.complete_paths);
        assert_eq!(seq.partial_paths, par.partial_paths);
        assert!(seq.partial_paths >= 1, "the contradiction must show up");
    }
}
