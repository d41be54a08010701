//! Structured progress events for live status lines and JSON logs.

use symcosim_symex::{ProofAuditStats, QueryCacheStats, SolverChainStats, SolverStats};

/// One observability event from a parallel exploration.
///
/// Events are emitted on the optional channel passed to
/// [`explore_parallel_fork`](crate::explore_parallel_fork); delivery order between
/// workers is the real execution order, so the stream is inherently
/// non-deterministic (it reports scheduling — the merged result does not
/// depend on it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgressEvent {
    /// Exploration started with this many workers.
    Started {
        /// Worker count.
        jobs: usize,
    },
    /// A worker finished one path.
    PathDone {
        /// Worker index.
        worker: usize,
        /// Decision depth of the finished path.
        depth: usize,
        /// Paths claimed against the budget so far (run-wide).
        paths_done: usize,
        /// Prefixes queued across all shards right now.
        queued: usize,
        /// Milliseconds since exploration start.
        elapsed_ms: u64,
    },
    /// A worker drained out and exited.
    WorkerDone {
        /// Worker index.
        worker: usize,
        /// Paths this worker explored.
        paths: usize,
        /// Milliseconds this worker spent executing paths (excludes
        /// queue waits).
        busy_ms: u64,
        /// Its private SAT solver's cumulative statistics.
        solver: SolverStats,
        /// Its feasibility-query cache's hit/miss counters.
        cache: QueryCacheStats,
        /// Its solver chain's slicing and caching counters.
        chain: SolverChainStats,
        /// Its proof auditor's certification counters (all zero when
        /// auditing is off).
        audit: ProofAuditStats,
    },
    /// The exploration finished and the merge is complete.
    Finished {
        /// Total paths explored.
        paths: usize,
        /// Wall-clock milliseconds for the whole exploration.
        wall_ms: u64,
        /// Whether work was left unexplored (budget, deadline or stop
        /// predicate).
        truncated: bool,
    },
}

impl ProgressEvent {
    /// The event as one line of JSON (hand-rolled; every field is numeric
    /// or boolean, so no escaping is needed).
    pub fn to_json(&self) -> String {
        match self {
            ProgressEvent::Started { jobs } => {
                format!("{{\"event\":\"started\",\"jobs\":{jobs}}}")
            }
            ProgressEvent::PathDone {
                worker,
                depth,
                paths_done,
                queued,
                elapsed_ms,
            } => format!(
                "{{\"event\":\"path\",\"worker\":{worker},\"depth\":{depth},\
                 \"paths_done\":{paths_done},\"queued\":{queued},\"elapsed_ms\":{elapsed_ms}}}"
            ),
            ProgressEvent::WorkerDone {
                worker,
                paths,
                busy_ms,
                solver,
                cache,
                chain,
                audit,
            } => format!(
                "{{\"event\":\"worker_done\",\"worker\":{worker},\"paths\":{paths},\
                 \"busy_ms\":{busy_ms},\"solves\":{},\"decisions\":{},\"propagations\":{},\
                 \"conflicts\":{},\"restarts\":{},\"learnt_clauses\":{},\
                 \"db_reductions\":{},\"learned_kept\":{},\
                 \"cache_hits\":{},\"cache_misses\":{},\
                 \"chain_queries\":{},\"chain_preflight_hits\":{},\"chain_slices\":{},\
                 \"chain_slice_hits\":{},\"chain_core_hits\":{},\"chain_model_hits\":{},\
                 \"chain_solves\":{},\"chain_prefix_reuse_hits\":{},\"chain_max_slice\":{},\
                 \"audit_steps\":{},\"audit_models\":{},\"audit_cores\":{},\
                 \"audit_bytes\":{},\"audit_failures\":{}}}",
                solver.solves,
                solver.decisions,
                solver.propagations,
                solver.conflicts,
                solver.restarts,
                solver.learnt_clauses,
                solver.db_reductions,
                solver.learned_kept,
                cache.hits,
                cache.misses,
                chain.queries,
                chain.preflight_hits,
                chain.slices,
                chain.slice_hits,
                chain.core_hits,
                chain.model_hits,
                chain.solves,
                chain.prefix_reuse_hits,
                chain.max_slice,
                audit.steps,
                audit.models,
                audit.cores,
                audit.bytes,
                audit.failures
            ),
            ProgressEvent::Finished {
                paths,
                wall_ms,
                truncated,
            } => format!(
                "{{\"event\":\"finished\",\"paths\":{paths},\
                 \"wall_ms\":{wall_ms},\"truncated\":{truncated}}}"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lines_are_well_formed() {
        let events = [
            ProgressEvent::Started { jobs: 4 },
            ProgressEvent::PathDone {
                worker: 1,
                depth: 7,
                paths_done: 12,
                queued: 3,
                elapsed_ms: 250,
            },
            ProgressEvent::WorkerDone {
                worker: 1,
                paths: 6,
                busy_ms: 200,
                solver: SolverStats::default(),
                cache: QueryCacheStats::default(),
                chain: SolverChainStats::default(),
                audit: ProofAuditStats::default(),
            },
            ProgressEvent::Finished {
                paths: 24,
                wall_ms: 300,
                truncated: false,
            },
        ];
        for event in events {
            let json = event.to_json();
            assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
            assert_eq!(
                json.matches('{').count(),
                json.matches('}').count(),
                "{json}"
            );
            assert!(json.contains("\"event\":\""), "{json}");
        }
    }

    #[test]
    fn worker_done_json_carries_every_reported_stat_field() {
        // Every statistic the report layer *prints* (the `Display` impls
        // of the three stats structs) must also appear in the
        // `worker_done` progress event — this test is the drift guard.
        // Distinct sentinel values make a dropped or duplicated field
        // observable.
        let solver = SolverStats {
            solves: 101,
            decisions: 102,
            propagations: 103,
            conflicts: 104,
            restarts: 105,
            learnt_clauses: 106,
            db_reductions: 107,
            learned_kept: 108,
        };
        let cache = QueryCacheStats {
            hits: 201,
            misses: 202,
        };
        let chain = SolverChainStats {
            queries: 301,
            preflight_hits: 309,
            slices: 302,
            slice_hits: 303,
            core_hits: 304,
            model_hits: 305,
            solves: 306,
            prefix_reuse_hits: 308,
            max_slice: 307,
        };
        let audit = ProofAuditStats {
            steps: 401,
            models: 402,
            cores: 403,
            bytes: 404,
            failures: 405,
        };
        let json = ProgressEvent::WorkerDone {
            worker: 0,
            paths: 1,
            busy_ms: 2,
            solver,
            cache,
            chain,
            audit,
        }
        .to_json();

        let printed = format!("{solver} {cache} {chain} {audit}");
        for pair in printed.split_whitespace() {
            let (field, value) = pair.split_once('=').expect("Display emits key=value");
            assert!(
                json.contains(&format!(":{value}")),
                "stat `{field}` (value {value}) is printed in reports but \
                 missing from the worker_done event:\n{json}"
            );
        }
        // And the round-trip parsers pin the Display forms themselves to
        // the full field sets.
        assert_eq!(printed.matches('=').count(), 8 + 2 + 9 + 5);
        assert_eq!(cache.to_string().parse::<QueryCacheStats>(), Ok(cache));
        assert_eq!(chain.to_string().parse::<SolverChainStats>(), Ok(chain));
        assert_eq!(audit.to_string().parse::<ProofAuditStats>(), Ok(audit));
    }
}
