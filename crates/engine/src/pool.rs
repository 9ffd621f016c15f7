//! A fixed-size worker pool over a bounded MPMC job queue.
//!
//! Plain `std` building blocks: a `Mutex<VecDeque>` holds the queue, one
//! condvar wakes workers when jobs arrive, a second wakes producers when
//! space frees up. [`WorkerPool::submit`] blocks while the queue is full —
//! that backpressure is the point of the bound: a burst of queries parks
//! the submitting threads instead of growing an unbounded backlog.
//!
//! Shutdown is graceful: workers finish every job that was accepted before
//! the pool closed, then exit. Dropping the pool performs the same drain.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::sync::{lock_unpoisoned, wait_unpoisoned};
use ssq_core::{DistanceScratch, KeyScratch};

/// Per-worker mutable state handed to every job.
///
/// Each worker thread owns one instance for its whole lifetime — no
/// locking, no sharing — so the scratch arena inside stays warm across
/// queries: after the first few jobs its buffers have grown to the
/// workload's shape and the steady-state query path stops allocating.
#[derive(Debug, Default)]
pub struct WorkerState {
    /// The worker's distance/dominance arena (see
    /// [`ssq_core::DistanceScratch`]).
    pub scratch: DistanceScratch,
    /// Reusable buffers for skyline-diagram probes (canonical-key
    /// quantization).
    pub diagram: KeyScratch,
}

impl WorkerState {
    /// State whose arena is pre-sized for up to `rows` candidate rows of
    /// `width` anchors (see [`DistanceScratch::with_capacity`]); zero for
    /// either falls back to lazy growth.
    pub fn presized(rows: usize, width: usize) -> WorkerState {
        WorkerState {
            scratch: DistanceScratch::with_capacity(rows, width),
            diagram: KeyScratch::default(),
        }
    }
}

/// A unit of work: boxed closure run on one worker thread with that
/// worker's private [`WorkerState`].
pub(crate) type Job = Box<dyn FnOnce(&mut WorkerState) + Send + 'static>;

/// Error returned by [`WorkerPool::submit`] after shutdown has begun.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolClosed;

impl std::fmt::Display for PoolClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker pool is shut down")
    }
}

impl std::error::Error for PoolClosed {}

/// Error returned by [`WorkerPool::try_submit`]; the job is dropped
/// unexecuted in both cases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrySubmitError {
    /// The queue was at capacity. The caller should shed the work (or
    /// retry later) instead of blocking.
    Full,
    /// Shutdown has begun.
    Closed,
}

impl std::fmt::Display for TrySubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrySubmitError::Full => write!(f, "worker pool queue is full"),
            TrySubmitError::Closed => write!(f, "worker pool is shut down"),
        }
    }
}

impl std::error::Error for TrySubmitError {}

struct Queue {
    jobs: VecDeque<Job>,
    capacity: usize,
    closed: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    /// Signalled when a job is pushed or the pool closes (workers wait).
    not_empty: Condvar,
    /// Signalled when a job is popped (producers wait while full).
    not_full: Condvar,
}

/// Fixed-size thread pool with a bounded job queue.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads sharing a queue of at most `capacity`
    /// pending jobs. Both must be nonzero. Worker `i`'s thread is named
    /// `name(i)`, after the pool's role: `ssq-worker-{i}` for query
    /// workers, `ssq-ingest` for the ingestor, `ssq-dispatch-{i}` for a
    /// server's dispatchers.
    ///
    /// Returns the OS error if a worker thread cannot be spawned; any
    /// threads spawned before the failure are joined before returning,
    /// so an `Err` leaks nothing.
    pub fn new(
        name: fn(usize) -> String,
        workers: usize,
        capacity: usize,
    ) -> Result<WorkerPool, std::io::Error> {
        WorkerPool::presized(name, workers, capacity, 0, 0)
    }

    /// Like [`WorkerPool::new`], but every worker's
    /// [`WorkerState`] arena is pre-sized for `rows` candidate rows of
    /// `width` anchors at spawn time. A lazily-grown arena pays its whole
    /// allocation bill inside the first query it serves; pre-sizing moves
    /// that warm-up off the query hot path (zero for either dimension
    /// keeps the lazy behavior).
    pub fn presized(
        name: fn(usize) -> String,
        workers: usize,
        capacity: usize,
        rows: usize,
        width: usize,
    ) -> Result<WorkerPool, std::io::Error> {
        assert!(workers > 0, "a pool needs at least one worker");
        assert!(capacity > 0, "the job queue needs nonzero capacity");
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::with_capacity(capacity.min(1024)),
                capacity,
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let worker_shared = Arc::clone(&shared);
            match std::thread::Builder::new()
                .name(name(i))
                .spawn(move || worker_loop(&worker_shared, rows, width))
            {
                Ok(handle) => handles.push(handle),
                Err(err) => {
                    let mut partial = WorkerPool {
                        shared,
                        workers: handles,
                    };
                    partial.close_and_join();
                    return Err(err);
                }
            }
        }
        Ok(WorkerPool {
            shared,
            workers: handles,
        })
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues a job, blocking while the queue is at capacity.
    ///
    /// Returns [`PoolClosed`] if shutdown has begun; the job is dropped
    /// unexecuted in that case.
    pub fn submit(&self, job: Job) -> Result<(), PoolClosed> {
        let mut q = lock_unpoisoned(&self.shared.queue);
        while q.jobs.len() >= q.capacity && !q.closed {
            q = wait_unpoisoned(&self.shared.not_full, q);
        }
        if q.closed {
            return Err(PoolClosed);
        }
        q.jobs.push_back(job);
        drop(q);
        self.shared.not_empty.notify_one();
        Ok(())
    }

    /// Enqueues a job if there is space, never blocking.
    ///
    /// Where [`WorkerPool::submit`] parks the caller while the queue is
    /// full — backpressure for in-process producers that can afford to
    /// wait — this is the admission-control variant: a full queue comes
    /// back as [`TrySubmitError::Full`] immediately so a front-end can
    /// shed the request with a typed retry signal instead of stalling
    /// (and with it, every request queued behind it on the same
    /// connection).
    pub fn try_submit(&self, job: Job) -> Result<(), TrySubmitError> {
        let mut q = lock_unpoisoned(&self.shared.queue);
        if q.closed {
            return Err(TrySubmitError::Closed);
        }
        if q.jobs.len() >= q.capacity {
            return Err(TrySubmitError::Full);
        }
        q.jobs.push_back(job);
        drop(q);
        self.shared.not_empty.notify_one();
        Ok(())
    }

    /// Jobs currently waiting in the queue (not the ones being run).
    pub fn queued(&self) -> usize {
        lock_unpoisoned(&self.shared.queue).jobs.len()
    }

    /// Begins shutdown and joins every worker.
    ///
    /// Every job accepted before this call still runs — the queue is
    /// drained, not discarded.
    pub fn shutdown(mut self) {
        self.close_and_join();
    }

    fn close_and_join(&mut self) {
        {
            let mut q = lock_unpoisoned(&self.shared.queue);
            q.closed = true;
        }
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

fn worker_loop(shared: &Shared, rows: usize, width: usize) {
    let mut state = WorkerState::presized(rows, width);
    loop {
        let job = {
            let mut q = lock_unpoisoned(&shared.queue);
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break job;
                }
                if q.closed {
                    return;
                }
                q = wait_unpoisoned(&shared.not_empty, q);
            }
        };
        shared.not_full.notify_one();
        // A panicking job must not take the worker down with it — the
        // panic is contained and the worker moves on. (The job's ticket
        // is abandoned; Engine jobs never panic on valid input. The
        // worker state survives: the arena holds no query-specific
        // invariants, every query re-`begin`s it.)
        let state_ref = &mut state;
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || job(state_ref)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    fn test_worker(i: usize) -> String {
        format!("test-worker-{i}")
    }

    #[test]
    fn runs_every_submitted_job() {
        let pool = WorkerPool::new(test_worker, 4, 8).unwrap();
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let c = Arc::clone(&counter);
            pool.submit(Box::new(move |_state: &mut WorkerState| {
                c.fetch_add(1, Ordering::Relaxed);
            }))
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn tiny_queue_still_completes_all_jobs() {
        // Capacity 1 forces submit() to exercise the backpressure path.
        let pool = WorkerPool::new(test_worker, 2, 1).unwrap();
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let c = Arc::clone(&counter);
            pool.submit(Box::new(move |_state: &mut WorkerState| {
                std::thread::sleep(Duration::from_micros(100));
                c.fetch_add(1, Ordering::Relaxed);
            }))
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn try_submit_reports_a_full_queue_without_blocking() {
        // One worker parked inside a job, queue capacity 1: the first
        // try_submit fills the queue, the second must fail fast. The
        // start barrier guarantees the worker has dequeued the parking
        // job (emptying the queue) before the try_submits race it.
        let pool = WorkerPool::new(test_worker, 1, 1).unwrap();
        let start = Arc::new(std::sync::Barrier::new(2));
        let gate = Arc::new(std::sync::Barrier::new(2));
        let s = Arc::clone(&start);
        let g = Arc::clone(&gate);
        pool.submit(Box::new(move |_state: &mut WorkerState| {
            s.wait();
            g.wait();
        }))
        .unwrap();
        start.wait();
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        pool.try_submit(Box::new(move |_state: &mut WorkerState| {
            r.fetch_add(1, Ordering::Relaxed);
        }))
        .unwrap();
        let r2 = Arc::clone(&ran);
        let err = pool
            .try_submit(Box::new(move |_state: &mut WorkerState| {
                r2.fetch_add(100, Ordering::Relaxed);
            }))
            .unwrap_err();
        assert_eq!(err, TrySubmitError::Full);
        gate.wait();
        pool.shutdown();
        assert_eq!(ran.load(Ordering::Relaxed), 1, "shed job must not run");
    }

    #[test]
    fn shutdown_drains_pending_jobs() {
        let pool = WorkerPool::new(test_worker, 1, 64).unwrap();
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..32 {
            let c = Arc::clone(&counter);
            pool.submit(Box::new(move |_state: &mut WorkerState| {
                std::thread::sleep(Duration::from_micros(200));
                c.fetch_add(1, Ordering::Relaxed);
            }))
            .unwrap();
        }
        // Shutdown must wait for all 32, not just the in-flight one.
        pool.shutdown();
        assert_eq!(counter.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn a_panicking_job_does_not_kill_the_worker() {
        let pool = WorkerPool::new(test_worker, 1, 8).unwrap();
        pool.submit(Box::new(|_state: &mut WorkerState| panic!("boom")))
            .unwrap();
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        pool.submit(Box::new(move |_state: &mut WorkerState| {
            c.fetch_add(1, Ordering::Relaxed);
        }))
        .unwrap();
        pool.shutdown();
        assert_eq!(counter.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn jobs_run_concurrently_across_workers() {
        let pool = WorkerPool::new(test_worker, 4, 16).unwrap();
        let in_flight = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        for _ in 0..16 {
            let in_flight = Arc::clone(&in_flight);
            let peak = Arc::clone(&peak);
            pool.submit(Box::new(move |_state: &mut WorkerState| {
                let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(5));
                in_flight.fetch_sub(1, Ordering::SeqCst);
            }))
            .unwrap();
        }
        pool.shutdown();
        assert!(
            peak.load(Ordering::SeqCst) >= 2,
            "4 workers never overlapped on 16 sleeping jobs"
        );
    }
}
