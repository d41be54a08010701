//! Sharded work queue of path-exploration jobs with work stealing.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use symcosim_symex::SearchStrategy;

use crate::budget::Budget;

/// One queue of pending jobs per worker, plus the termination protocol.
///
/// The payload `T` is whatever identifies one unit of path work — for the
/// executor, a [`ForkJob`](symcosim_symex::ForkJob) wrapper carrying an
/// optional state snapshot.
///
/// Workers pop from their own shard using the configured
/// [`SearchStrategy`] and steal from siblings' *front* when they run dry —
/// the shallowest queued job heads the largest unexplored subtree, so
/// stealing it moves the most work.
///
/// Termination tracks two counters under one lock: `pending` (queued, not
/// yet acquired) and `in_flight` (acquired, not yet retired). Forks are
/// queued *before* their parent is retired, so `pending + in_flight`
/// reaching zero proves the exploration is drained — a job can never be
/// in limbo.
#[derive(Debug)]
pub struct ShardedFrontier<T> {
    shards: Vec<Mutex<VecDeque<T>>>,
    sync: Mutex<Counters>,
    wakeup: Condvar,
}

#[derive(Debug, Default)]
struct Counters {
    pending: usize,
    in_flight: usize,
}

impl<T> ShardedFrontier<T> {
    /// An empty frontier with one shard per worker.
    pub fn new(shards: usize) -> ShardedFrontier<T> {
        assert!(shards > 0, "at least one shard");
        ShardedFrontier {
            shards: (0..shards).map(|_| Mutex::new(VecDeque::new())).collect(),
            sync: Mutex::new(Counters::default()),
            wakeup: Condvar::new(),
        }
    }

    /// Queues `job` on `shard`.
    pub fn push(&self, shard: usize, job: T) {
        self.sync.lock().expect("frontier lock").pending += 1;
        self.shards[shard]
            .lock()
            .expect("shard lock")
            .push_back(job);
        self.wakeup.notify_one();
    }

    /// Number of queued (not yet acquired) jobs right now.
    pub fn pending(&self) -> usize {
        self.sync.lock().expect("frontier lock").pending
    }

    /// Blocks until a job is available (returns it), the exploration is
    /// drained, or `budget` is cancelled (both return `None`).
    ///
    /// Every acquired job must be retired with [`ShardedFrontier::finish`].
    pub fn acquire(
        &self,
        worker: usize,
        strategy: SearchStrategy,
        rng: &mut u64,
        budget: &Budget,
    ) -> Option<T> {
        loop {
            if budget.cancelled() {
                return None;
            }
            if let Some(job) = self.try_pop(worker, strategy, rng) {
                let mut sync = self.sync.lock().expect("frontier lock");
                sync.pending -= 1;
                sync.in_flight += 1;
                return Some(job);
            }
            let sync = self.sync.lock().expect("frontier lock");
            if sync.pending == 0 && sync.in_flight == 0 {
                return None;
            }
            // Bounded wait, then re-scan: a push can land between the
            // failed scan and taking the lock, and cancellation must be
            // noticed promptly even with no traffic.
            let _ = self
                .wakeup
                .wait_timeout(sync, Duration::from_millis(2))
                .expect("frontier lock");
        }
    }

    /// Retires an acquired job, queueing the `forks` it produced on the
    /// worker's own shard first (see the type-level invariant).
    pub fn finish(&self, worker: usize, forks: Vec<T>) {
        for fork in forks {
            self.push(worker, fork);
        }
        let mut sync = self.sync.lock().expect("frontier lock");
        sync.in_flight -= 1;
        if sync.pending == 0 && sync.in_flight == 0 {
            drop(sync);
            self.wakeup.notify_all();
        }
    }

    fn try_pop(&self, worker: usize, strategy: SearchStrategy, rng: &mut u64) -> Option<T> {
        {
            let mut own = self.shards[worker].lock().expect("shard lock");
            let popped = match strategy {
                SearchStrategy::Dfs => own.pop_back(),
                SearchStrategy::Bfs => own.pop_front(),
                SearchStrategy::RandomPath => {
                    if own.is_empty() {
                        None
                    } else {
                        let index = (xorshift(rng) as usize) % own.len();
                        own.swap_remove_back(index)
                    }
                }
            };
            if popped.is_some() {
                return popped;
            }
        }
        for offset in 1..self.shards.len() {
            let victim = (worker + offset) % self.shards.len();
            if let Some(prefix) = self.shards[victim].lock().expect("shard lock").pop_front() {
                return Some(prefix);
            }
        }
        None
    }
}

/// xorshift64* step — the same deterministic in-tree generator the engine's
/// random-path strategy uses.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_acquire_finish_drains() {
        let frontier = ShardedFrontier::new(2);
        let budget = Budget::new(100, None);
        let mut rng = 1u64;
        frontier.push(0, vec![true]);
        let job = frontier
            .acquire(0, SearchStrategy::Dfs, &mut rng, &budget)
            .expect("queued job");
        assert_eq!(job, vec![true]);
        frontier.finish(0, vec![vec![true, false]]);
        assert_eq!(frontier.pending(), 1);
        let fork = frontier
            .acquire(1, SearchStrategy::Dfs, &mut rng, &budget)
            .expect("stolen fork");
        assert_eq!(fork, vec![true, false]);
        frontier.finish(1, Vec::new());
        assert!(frontier
            .acquire(0, SearchStrategy::Dfs, &mut rng, &budget)
            .is_none());
    }

    #[test]
    fn cancellation_unblocks_acquire() {
        let frontier: ShardedFrontier<Vec<bool>> = ShardedFrontier::new(1);
        let budget = Budget::new(100, None);
        let mut rng = 1u64;
        frontier.push(0, Vec::new());
        let _job = frontier.acquire(0, SearchStrategy::Dfs, &mut rng, &budget);
        budget.cancel();
        // in_flight is still 1, so only cancellation can release this.
        assert!(frontier
            .acquire(0, SearchStrategy::Dfs, &mut rng, &budget)
            .is_none());
    }
}
