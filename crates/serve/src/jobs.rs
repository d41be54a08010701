//! Job scheduling: shard, run, merge, certify.
//!
//! A submitted [`JobSpec`] is sharded into cube-disjoint decode-space
//! slices ([`partition_universe`]); each `(job, slice)` pair becomes one
//! unit of work on a shared queue drained by the daemon's verify workers.
//! Every slice runs a full slice-scoped [`VerifySession`], warmed from the
//! cross-request seed store when an earlier run of the *same*
//! `(config_hash, cube)` left its solver-chain caches behind — the
//! condition under which replaying [`ChainSeed`] term identifiers is
//! sound. When the last slice lands, the manager recomputes the full
//! legal domain, proves the slices partition it exactly once
//! ([`merge_slice_coverage`]) and certifies the merged coverage: the
//! stored certificate is byte-identical to a single-process run's.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use symcosim_core::json::JsonWriter;
use symcosim_core::{
    merge_slice_coverage, project_domain, Certificate, ChainSeed, CoverageSlice, JobSpec,
    ProgressEvent, ProofAuditStats, SessionConfig, VerifySession,
};
use symcosim_isa::pattern::{partition_universe, Pattern};

/// Schema identifier of the job-status document (`GET /jobs/{id}`).
pub const STATUS_SCHEMA: &str = "symcosim-jobstatus/1";

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, no slice has started.
    Queued,
    /// At least one slice is running or finished.
    Running,
    /// All slices ran and the merged coverage certified.
    Done,
    /// A slice session could not be built, or the merge was rejected.
    Failed,
}

impl JobState {
    /// Stable JSON spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }
}

/// An append-only, closeable event line buffer with blocking readers —
/// the backing store of `GET /jobs/{id}/events`.
pub struct EventLog {
    state: Mutex<LogState>,
    wake: Condvar,
}

struct LogState {
    lines: Vec<String>,
    closed: bool,
}

impl EventLog {
    fn new() -> Arc<EventLog> {
        Arc::new(EventLog {
            state: Mutex::new(LogState {
                lines: Vec::new(),
                closed: false,
            }),
            wake: Condvar::new(),
        })
    }

    fn push(&self, line: String) {
        let mut state = self.state.lock().expect("event log poisoned");
        if !state.closed {
            state.lines.push(line);
        }
        drop(state);
        self.wake.notify_all();
    }

    fn close(&self) {
        self.state.lock().expect("event log poisoned").closed = true;
        self.wake.notify_all();
    }

    /// Feeds every line (past and future) to `visit` until the log closes
    /// or `visit` returns `false` (e.g. the peer hung up). Lines are
    /// cloned out of the lock, so slow consumers never block producers.
    pub fn stream(&self, mut visit: impl FnMut(&str) -> bool) {
        let mut cursor = 0usize;
        loop {
            let (batch, closed) = {
                let mut state = self.state.lock().expect("event log poisoned");
                while state.lines.len() == cursor && !state.closed {
                    state = self.wake.wait(state).expect("event log poisoned");
                }
                (state.lines[cursor..].to_vec(), state.closed)
            };
            cursor += batch.len();
            for line in &batch {
                if !visit(line) {
                    return;
                }
            }
            if closed && batch.is_empty() {
                return;
            }
            if closed {
                // Re-check: lines can't grow after close, one more pass
                // drains anything raced in before the flag flipped.
                continue;
            }
        }
    }
}

/// Everything the manager tracks about one job.
struct JobRecord {
    config: SessionConfig,
    config_hash: u64,
    cubes: Vec<Pattern>,
    state: JobState,
    error: Option<String>,
    slices_done: usize,
    results: Vec<Option<CoverageSlice>>,
    paths_complete: usize,
    paths_partial: usize,
    findings: usize,
    busy_ms: u64,
    cache_hits: u64,
    cache_misses: u64,
    chain_queries: u64,
    chain_preflight_hits: u64,
    chain_hits: u64,
    chain_solves: u64,
    chain_prefix_reuse_hits: u64,
    solver_restarts: u64,
    solver_db_reductions: u64,
    solver_learned_kept: u64,
    audit: ProofAuditStats,
    warm_slices: usize,
    certificate: Option<String>,
    verdict: Option<&'static str>,
    events: Arc<EventLog>,
}

/// The daemon's scheduler: job table, slice work queue and the
/// cross-request warm seed store.
pub struct JobManager {
    jobs: Mutex<Vec<JobRecord>>,
    queue: Mutex<WorkQueue>,
    work: Condvar,
    /// Warm solver-chain seeds keyed on `(config_hash, slice cube)` — the
    /// exact identity under which a [`ChainSeed`] replay is sound.
    warm: Mutex<BTreeMap<(u64, Pattern), Arc<ChainSeed>>>,
}

struct WorkQueue {
    slices: VecDeque<(usize, usize)>,
    shutdown: bool,
}

impl Default for JobManager {
    fn default() -> JobManager {
        JobManager::new()
    }
}

impl JobManager {
    /// An empty manager.
    #[must_use]
    pub fn new() -> JobManager {
        JobManager {
            jobs: Mutex::new(Vec::new()),
            queue: Mutex::new(WorkQueue {
                slices: VecDeque::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
            warm: Mutex::new(BTreeMap::new()),
        }
    }

    /// Accepts a job: validates the spec, shards the decode space and
    /// enqueues every slice. Returns the job id.
    ///
    /// # Errors
    ///
    /// Propagates [`JobSpec::session_config`] failures (unknown preset).
    pub fn submit(&self, spec: &JobSpec) -> Result<usize, String> {
        let config = spec.session_config()?;
        let cubes = partition_universe(spec.slices);
        let events = EventLog::new();
        events.push(ProgressEvent::Started { jobs: cubes.len() }.to_json());

        let mut jobs = self.jobs.lock().expect("job table poisoned");
        let id = jobs.len();
        jobs.push(JobRecord {
            config,
            config_hash: spec.config_hash(),
            results: vec![None; cubes.len()],
            cubes,
            state: JobState::Queued,
            error: None,
            slices_done: 0,
            paths_complete: 0,
            paths_partial: 0,
            findings: 0,
            busy_ms: 0,
            cache_hits: 0,
            cache_misses: 0,
            chain_queries: 0,
            chain_preflight_hits: 0,
            chain_hits: 0,
            chain_solves: 0,
            chain_prefix_reuse_hits: 0,
            solver_restarts: 0,
            solver_db_reductions: 0,
            solver_learned_kept: 0,
            audit: ProofAuditStats::default(),
            warm_slices: 0,
            certificate: None,
            verdict: None,
            events,
        });
        let slices = jobs[id].cubes.len();
        drop(jobs);

        let mut queue = self.queue.lock().expect("work queue poisoned");
        for slice in 0..slices {
            queue.slices.push_back((id, slice));
        }
        drop(queue);
        self.work.notify_all();
        Ok(id)
    }

    /// One verify worker: drain `(job, slice)` units until shutdown.
    pub fn worker_loop(&self) {
        loop {
            let unit = {
                let mut queue = self.queue.lock().expect("work queue poisoned");
                loop {
                    if let Some(unit) = queue.slices.pop_front() {
                        break Some(unit);
                    }
                    if queue.shutdown {
                        break None;
                    }
                    queue = self.work.wait(queue).expect("work queue poisoned");
                }
            };
            match unit {
                Some((job, slice)) => self.run_slice(job, slice),
                None => return,
            }
        }
    }

    /// Runs one slice-scoped session and folds its results into the job,
    /// finalising (merge + certify) when it is the last slice in.
    fn run_slice(&self, id: usize, slice: usize) {
        let (mut config, cube, hash, events) = {
            let mut jobs = self.jobs.lock().expect("job table poisoned");
            let job = &mut jobs[id];
            if job.state == JobState::Queued {
                job.state = JobState::Running;
            }
            (
                job.config.clone(),
                job.cubes[slice],
                job.config_hash,
                Arc::clone(&job.events),
            )
        };
        config.slice = Some(cube);

        let seed = self
            .warm
            .lock()
            .expect("seed store poisoned")
            .get(&(hash, cube))
            .cloned();

        let session = match VerifySession::new(config) {
            Ok(session) => session,
            Err(error) => {
                self.fail(id, format!("slice {slice}: {error}"));
                return;
            }
        };
        let started = Instant::now();
        let (report, harvest) = session.run_seeded(seed.as_deref());
        let busy_ms = started.elapsed().as_millis() as u64;

        if !harvest.is_empty() {
            self.warm
                .lock()
                .expect("seed store poisoned")
                .insert((hash, cube), Arc::new(harvest));
        }

        events.push(
            ProgressEvent::WorkerDone {
                worker: slice,
                paths: report.paths_complete + report.paths_partial,
                busy_ms,
                solver: report.solver_stats,
                cache: report.query_cache,
                chain: report.chain_stats,
                audit: report.proof_audit,
            }
            .to_json(),
        );

        if let Some(failure) = &report.proof_audit_failure {
            self.fail(id, format!("slice {slice}: proof audit: {failure}"));
            return;
        }

        let finalise = {
            let mut jobs = self.jobs.lock().expect("job table poisoned");
            let job = &mut jobs[id];
            job.paths_complete += report.paths_complete;
            job.paths_partial += report.paths_partial;
            job.findings += report.findings.len();
            job.busy_ms += busy_ms;
            job.cache_hits += report.query_cache.hits;
            job.cache_misses += report.query_cache.misses;
            job.chain_queries += report.chain_stats.queries;
            job.chain_preflight_hits += report.chain_stats.preflight_hits;
            job.chain_hits += report.chain_stats.slice_hits
                + report.chain_stats.core_hits
                + report.chain_stats.model_hits;
            job.chain_solves += report.chain_stats.solves;
            job.chain_prefix_reuse_hits += report.chain_stats.prefix_reuse_hits;
            job.solver_restarts += report.solver_stats.restarts;
            job.solver_db_reductions += report.solver_stats.db_reductions;
            job.solver_learned_kept += report.solver_stats.learned_kept;
            job.audit = job.audit.merge(report.proof_audit);
            job.warm_slices += usize::from(seed.is_some());
            job.results[slice] = Some(CoverageSlice {
                cube,
                data: report
                    .coverage
                    .expect("service sessions always collect coverage"),
            });
            job.slices_done += 1;
            job.slices_done == job.cubes.len() && job.state != JobState::Failed
        };
        if finalise {
            self.finalise(id);
        }
    }

    /// Merges the per-slice coverage, certifies it and closes the job.
    fn finalise(&self, id: usize) {
        let mut jobs = self.jobs.lock().expect("job table poisoned");
        let job = &mut jobs[id];
        let slices: Vec<CoverageSlice> = job
            .results
            .iter()
            .map(|slot| slot.clone().expect("every slice reported"))
            .collect();
        let (domain, domain_exact) = project_domain(job.config.constraint, None);
        match merge_slice_coverage(domain, domain_exact, &slices) {
            Ok(merged) => {
                let certificate = Certificate::certify(&merged);
                job.verdict = Some(certificate.verdict.as_str());
                job.certificate = Some(certificate.to_json());
                job.state = JobState::Done;
                job.events.push(
                    ProgressEvent::Finished {
                        paths: job.paths_complete + job.paths_partial,
                        wall_ms: job.busy_ms,
                        truncated: merged.truncated,
                    }
                    .to_json(),
                );
            }
            Err(error) => {
                job.error = Some(format!("slice merge rejected: {error}"));
                job.state = JobState::Failed;
            }
        }
        job.events.close();
    }

    /// Marks a job failed and closes its event stream.
    fn fail(&self, id: usize, message: String) {
        let mut jobs = self.jobs.lock().expect("job table poisoned");
        let job = &mut jobs[id];
        job.error = Some(message);
        job.state = JobState::Failed;
        job.events.close();
    }

    /// The job-status document, or `None` for an unknown id.
    #[must_use]
    pub fn status_json(&self, id: usize) -> Option<String> {
        let jobs = self.jobs.lock().expect("job table poisoned");
        let job = jobs.get(id)?;
        let rate = |hits: u64, total: u64| {
            if total == 0 {
                0.0
            } else {
                hits as f64 / total as f64
            }
        };
        let mut w = JsonWriter::new();
        w.open_object();
        w.string_field("schema", STATUS_SCHEMA);
        w.number_field("id", id as u64);
        w.string_field("state", job.state.as_str());
        w.string_field("config_hash", &format!("{:016x}", job.config_hash));
        w.number_field("slices", job.cubes.len() as u64);
        w.number_field("slices_done", job.slices_done as u64);
        w.number_field("warm_slices", job.warm_slices as u64);
        w.number_field("paths_complete", job.paths_complete as u64);
        w.number_field("paths_partial", job.paths_partial as u64);
        w.number_field("findings", job.findings as u64);
        w.number_field("busy_ms", job.busy_ms);
        w.number_field("cache_hits", job.cache_hits);
        w.number_field("cache_misses", job.cache_misses);
        w.float_field(
            "cache_hit_rate",
            rate(job.cache_hits, job.cache_hits + job.cache_misses),
        );
        w.number_field("chain_queries", job.chain_queries);
        w.number_field("chain_preflight_hits", job.chain_preflight_hits);
        w.number_field("chain_hits", job.chain_hits);
        w.number_field("chain_solves", job.chain_solves);
        w.number_field("chain_prefix_reuse_hits", job.chain_prefix_reuse_hits);
        w.float_field("chain_hit_rate", rate(job.chain_hits, job.chain_queries));
        w.number_field("solver_restarts", job.solver_restarts);
        w.number_field("solver_db_reductions", job.solver_db_reductions);
        w.number_field("solver_learned_kept", job.solver_learned_kept);
        w.number_field("audit_steps", job.audit.steps);
        w.number_field("audit_models", job.audit.models);
        w.number_field("audit_cores", job.audit.cores);
        w.number_field("audit_failures", job.audit.failures);
        match job.verdict {
            Some(verdict) => w.string_field("verdict", verdict),
            None => w.null_field("verdict"),
        }
        match &job.error {
            Some(error) => w.string_field("error", error),
            None => w.null_field("error"),
        }
        w.close_object();
        Some(w.finish())
    }

    /// The merged certificate of a finished job.
    ///
    /// # Errors
    ///
    /// `(status, message)` pairs ready for an HTTP error response: 404
    /// for an unknown id, 409 while the job is still running or after it
    /// failed.
    pub fn certificate(&self, id: usize) -> Result<String, (u16, String)> {
        let jobs = self.jobs.lock().expect("job table poisoned");
        let job = jobs
            .get(id)
            .ok_or_else(|| (404, format!("no such job {id}")))?;
        match (&job.certificate, job.state) {
            (Some(certificate), _) => Ok(certificate.clone()),
            (None, JobState::Failed) => Err((
                409,
                job.error
                    .clone()
                    .unwrap_or_else(|| "job failed".to_string()),
            )),
            (None, state) => Err((409, format!("job {id} is {}", state.as_str()))),
        }
    }

    /// The job's event log, or `None` for an unknown id.
    #[must_use]
    pub fn events(&self, id: usize) -> Option<Arc<EventLog>> {
        let jobs = self.jobs.lock().expect("job table poisoned");
        jobs.get(id).map(|job| Arc::clone(&job.events))
    }

    /// Stops the workers once the queue drains, and closes every open
    /// event stream so attached clients finish promptly.
    pub fn shutdown(&self) {
        self.queue.lock().expect("work queue poisoned").shutdown = true;
        self.work.notify_all();
        let jobs = self.jobs.lock().expect("job table poisoned");
        for job in jobs.iter() {
            job.events.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn event_log_streams_past_and_future_lines() {
        let log = EventLog::new();
        log.push("one".to_string());
        let reader = {
            let log = Arc::clone(&log);
            thread::spawn(move || {
                let mut seen = Vec::new();
                log.stream(|line| {
                    seen.push(line.to_string());
                    true
                });
                seen
            })
        };
        log.push("two".to_string());
        log.close();
        assert_eq!(reader.join().expect("reader"), ["one", "two"]);
    }

    #[test]
    fn event_log_stream_stops_when_visit_declines() {
        let log = EventLog::new();
        log.push("a".to_string());
        log.push("b".to_string());
        let mut seen = 0;
        log.stream(|_| {
            seen += 1;
            false
        });
        assert_eq!(seen, 1);
    }

    #[test]
    fn unknown_jobs_are_absent() {
        let manager = JobManager::new();
        assert!(manager.status_json(0).is_none());
        assert!(manager.events(0).is_none());
        assert_eq!(manager.certificate(0).unwrap_err().0, 404);
    }

    #[test]
    fn submit_rejects_unknown_presets() {
        let manager = JobManager::new();
        let spec = JobSpec {
            preset: "nope".to_string(),
            ..JobSpec::default()
        };
        assert!(manager.submit(&spec).is_err());
    }
}
