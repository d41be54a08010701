//! Global exploration limits shared by all workers.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The run-wide resource limits of one parallel exploration: a global path
/// budget, an optional wall-clock deadline, and a cooperative cancellation
/// flag (set by the stop predicate, the budget, or an external caller).
///
/// All operations are lock-free; workers poll [`Budget::cancelled`]
/// between paths, so cancellation latency is one path execution.
#[derive(Debug)]
pub struct Budget {
    max_paths: usize,
    claimed: AtomicUsize,
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

impl Budget {
    /// A budget of at most `max_paths` paths, optionally bounded by a
    /// wall-clock `deadline` starting now.
    pub fn new(max_paths: usize, deadline: Option<Duration>) -> Budget {
        Budget {
            max_paths,
            claimed: AtomicUsize::new(0),
            cancelled: AtomicBool::new(false),
            deadline: deadline.map(|d| Instant::now() + d),
        }
    }

    /// Claims one path slot. Returns `false` when the budget is spent or
    /// the run is cancelled — the caller must not run the path.
    pub fn claim(&self) -> bool {
        if self.cancelled() {
            return false;
        }
        self.claimed.fetch_add(1, Ordering::Relaxed) < self.max_paths
    }

    /// Paths claimed so far (capped at the budget; failed claims overshoot
    /// the raw counter).
    pub fn claimed(&self) -> usize {
        self.claimed.load(Ordering::Relaxed).min(self.max_paths)
    }

    /// Requests cooperative cancellation of the whole exploration.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
    }

    /// Whether the exploration should stop: cancelled explicitly, or the
    /// deadline has passed (which latches the cancellation flag).
    pub fn cancelled(&self) -> bool {
        if self.cancelled.load(Ordering::SeqCst) {
            return true;
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.cancel();
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claims_stop_at_the_budget() {
        let budget = Budget::new(2, None);
        assert!(budget.claim());
        assert!(budget.claim());
        assert!(!budget.claim());
        assert_eq!(budget.claimed(), 2);
    }

    #[test]
    fn cancel_blocks_further_claims() {
        let budget = Budget::new(10, None);
        assert!(budget.claim());
        budget.cancel();
        assert!(budget.cancelled());
        assert!(!budget.claim());
    }

    #[test]
    fn expired_deadline_latches_cancellation() {
        let budget = Budget::new(10, Some(Duration::ZERO));
        assert!(budget.cancelled());
        assert!(!budget.claim());
    }
}
