//! Deterministic parallel fan-out for the planner's robust ensemble,
//! built on the same bounded MPMC queue that feeds the serve worker pool
//! (the queue lives here so both the planner and `espresso-serve` share
//! one implementation).
//!
//! [`EvalPool::map`] fans whole selections out across a fixed set of
//! worker threads and returns the results **merged by item index**;
//! [`EvalPool::run`] does the same for the ensemble's pricing matrix, a
//! batch of [`PreparedEval`] units. Each unit is a self-contained plan
//! (plus an optional fault plan) whose evaluation touches only a
//! per-worker scratch, so the value computed for unit `i` is
//! bitwise-identical no matter which worker ran it or in what order —
//! scheduling affects wall-clock only, never bytes. A single selection
//! never fans out: Algorithm 1 and the backfill are greedy loops whose
//! every accept moves the incumbent the next trial is priced against,
//! and a batch of their trials costs a few microseconds each, less than
//! handing it to another thread.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

use espresso_sim::{EvalScratch, PreparedEval};

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A fixed-capacity multi-producer multi-consumer queue.
///
/// Producers push with [`BoundedQueue::try_push`] — which *fails* rather
/// than blocks when the queue is full, so overload turns into immediate
/// backpressure (the serve accept loop answers 503) instead of an
/// unbounded backlog. Consumers block on [`BoundedQueue::pop`]. Closing
/// the queue wakes every consumer; they drain what was already queued
/// and then exit — the graceful-shutdown order both the server and the
/// planner pool want.
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    available: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enqueues `item`, or hands it back if the queue is full or closed.
    /// Never blocks.
    ///
    /// # Errors
    ///
    /// Returns `Err(item)` when the item was not enqueued, so the caller
    /// can shed it (e.g. answer 503).
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut state = self.lock();
        if state.closed || state.items.len() >= self.capacity {
            return Err(item);
        }
        state.items.push_back(item);
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Dequeues the next item, blocking while the queue is open and
    /// empty. Returns `None` once the queue is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self
                .available
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Closes the queue: no further pushes succeed; blocked and future
    /// `pop`s drain the backlog and then return `None`.
    pub fn close(&self) {
        self.lock().closed = true;
        self.available.notify_all();
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A fixed-size pool for the robust ensemble's selections and pricing.
///
/// `workers == 1` (the default) evaluates inline on the caller's thread
/// with zero setup cost; more workers spawn scoped threads per batch.
/// Either way the returned vector is ordered by unit index, so callers
/// folding the results in canonical candidate order are bit-deterministic
/// regardless of worker count.
#[derive(Debug, Clone, Copy)]
pub struct EvalPool {
    workers: usize,
}

impl Default for EvalPool {
    fn default() -> Self {
        Self::new(1)
    }
}

impl EvalPool {
    /// A pool of `workers` threads (clamped to ≥ 1; 1 = inline).
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
        }
    }

    /// Worker count from `ESPRESSO_PLANNER_THREADS` (default 1), read
    /// once by each serve and fleet [`crate::Planner`]. Wider halves a
    /// cold robust re-plan on two cores, but on a server the planner
    /// threads compete with the request threads: in `decide-mix` they
    /// raised the tail of repeated `/decide` requests several times over.
    pub fn from_env() -> Self {
        let workers = std::env::var("ESPRESSO_PLANNER_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&w| w >= 1)
            .unwrap_or(1);
        Self::new(workers)
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Evaluates every unit and returns the iteration times in unit
    /// order.
    pub fn run(&self, units: Vec<PreparedEval>) -> Vec<f64> {
        self.fan_out(units, EvalScratch::default, |scratch, unit| unit.run(scratch))
    }

    /// Applies `f` to every item, each a task of its own, and returns the
    /// results in item order — whichever thread ran which item.
    pub fn map<T: Send, R: Send>(&self, items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
        self.fan_out(items, || (), |(), item| f(item))
    }

    /// The one fan-out: items are pulled off a shared queue by the
    /// calling thread and up to `workers - 1` scoped threads, each with
    /// its own `init()` state, and written back by index. One worker (or
    /// one item) runs inline.
    fn fan_out<T: Send, R: Send, S>(
        &self,
        items: Vec<T>,
        init: impl Fn() -> S + Sync,
        f: impl Fn(&mut S, T) -> R + Sync,
    ) -> Vec<R> {
        if self.workers <= 1 || items.len() <= 1 {
            let mut state = init();
            return items.into_iter().map(|item| f(&mut state, item)).collect();
        }
        let n = items.len();
        let queue = BoundedQueue::new(n);
        for item in items.into_iter().enumerate() {
            let _ = queue.try_push(item);
        }
        queue.close();
        let results: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
        let drain = || {
            let mut state = init();
            while let Some((i, item)) = queue.pop() {
                let r = f(&mut state, item);
                results.lock().unwrap_or_else(|e| e.into_inner())[i] = Some(r);
            }
        };
        std::thread::scope(|s| {
            for _ in 1..self.workers.min(n) {
                s.spawn(drain);
            }
            drain();
        });
        results
            .into_inner()
            .unwrap_or_else(|e| e.into_inner())
            .into_iter()
            .map(|r| r.expect("every queued item ran"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use espresso_cluster::{Cluster, CommPattern};
    use espresso_gc::GcAlgorithm;
    use espresso_models::Model;
    use espresso_sim::{Job, SimConfig, Simulator};
    use espresso_strategy::{OptionSpace, Strategy};

    #[test]
    fn overflow_hands_the_item_back() {
        let q = BoundedQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err(3));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
        assert!(q.try_push(3).is_ok());
    }

    #[test]
    fn close_drains_then_stops() {
        let q = BoundedQueue::new(8);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        assert_eq!(q.try_push(3), Err(3), "closed queue rejects pushes");
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocked_consumers_wake_on_push_and_close() {
        let q = std::sync::Arc::new(BoundedQueue::<u32>::new(4));
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = std::sync::Arc::clone(&q);
                std::thread::spawn(move || q.pop())
            })
            .collect();
        q.try_push(7).unwrap();
        q.close();
        let mut got: Vec<Option<u32>> = consumers
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect();
        got.sort();
        assert_eq!(got, vec![None, None, Some(7)]);
    }

    #[test]
    fn pool_results_are_identical_across_worker_counts() {
        let job = Job::new(
            Model::Lstm.profile(),
            Cluster::pcie_25g(1, 4),
            GcAlgorithm::randomk_1pct(),
        );
        let sim = Simulator::new(job.clone(), SimConfig::default());
        let space = OptionSpace::enumerate(&job.cluster);
        let base = Strategy::uncompressed(job.num_tensors(), CommPattern::Hierarchical, &job.cluster);
        let build = || -> Vec<PreparedEval> {
            space
                .gpu_compressed()
                .iter()
                .map(|opt| {
                    let mut s = base.clone();
                    s.set_option(0, opt.clone());
                    sim.prepare(&s)
                })
                .collect()
        };
        let serial = EvalPool::new(1).run(build());
        for workers in [2, 8] {
            let parallel = EvalPool::new(workers).run(build());
            assert_eq!(serial.len(), parallel.len());
            for (a, b) in serial.iter().zip(&parallel) {
                assert_eq!(a.to_bits(), b.to_bits(), "worker count changed a result");
            }
        }
        // And the values are the true iteration times.
        for (opt, t) in space.gpu_compressed().iter().zip(&serial) {
            let mut s = base.clone();
            s.set_option(0, opt.clone());
            assert_eq!(t.to_bits(), sim.iteration_time(&s).to_bits());
        }
    }
}
