//! Lock-rank infrastructure: the runtime half of the `ssq-analyze`
//! pass.
//!
//! Every long-lived engine/shard mutex is a [`RankedMutex`] carrying a
//! `(name, rank)` pair from the table below. In debug builds each
//! thread keeps a stack of the ranks it currently holds, and acquiring
//! a lock whose rank is **not strictly greater** than every held rank
//! panics immediately — turning a potential deadlock (which would need
//! the right interleaving to reproduce) into a deterministic failure on
//! the first wrong-order acquisition, on any interleaving. Release
//! builds compile the bookkeeping away; a `RankedMutex` is then exactly
//! a named `Mutex`.
//!
//! ## The rank table
//!
//! | rank | lock | holder |
//! |-----:|------|--------|
//! |  50 | `net.connections` | ssq-net server's connection registry |
//! | 100 | `shard.reindex` | serializes fleet-wide reindex |
//! | 110 | `shard.fleet` | current [`Fleet`] snapshot pointer |
//! | 150 | `engine.reindex` | serializes per-engine reindex |
//! | 200 | `engine.catalog` | [`SnapshotCatalog`] current pointer |
//! | 240 | `engine.diagram` | skyline-diagram key cells |
//! | 300 | `engine.cache` | context-cache LRU state |
//! | 400 | `engine.sessions` | session map |
//! | 450 | `session.pending` | per-session pending batch |
//! | 460 | `session.sky` | per-session continuous skyline |
//! | 500 | `shard.merge` | router's per-caller arenas, held only to pop/push |
//! | 600 | `engine.metrics` | aggregated metrics (histogram + per-gen) |
//! | 700 | `net.conn.writer` | per-connection socket write half, held only for a write |
//!
//! Acquisition must follow strictly ascending ranks, which makes the
//! wait-for graph acyclic and the system deadlock-free: a cycle would
//! need some thread to wait on a rank ≤ one it holds, which the checker
//! forbids. The orderings that actually occur are `shard.reindex →
//! engine.catalog`, `shard.reindex → shard.fleet`, `engine.reindex →
//! engine.catalog`, `shard.fleet → engine.*` (query fan-out),
//! `engine.sessions → session.pending → session.sky`, and `* →
//! engine.metrics` (metrics is the universal leaf among engine locks).
//! The two `net.*` locks bracket the table: the connection registry
//! (rank 50) is held only for registry mutation — never across an
//! engine call or a socket write — and a connection's writer lock
//! (rank 700) is a per-connection leaf a thread may take after reading
//! any engine state (e.g. a metrics snapshot for a stats frame), so it
//! outranks everything.
//!
//! Short-lived condvar-paired mutexes (the worker-pool queue and the
//! [`Ticket`](crate::Ticket) result cell) stay raw `Mutex`es — a
//! condvar wait *releases* the lock, which a held-rank stack cannot
//! model — and use the poison-recovering helpers below instead.
//!
//! [`Fleet`]: ../../ssq_shard/index.html
//! [`SnapshotCatalog`]: crate::SnapshotCatalog

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, WaitTimeoutResult};
use std::time::Duration;

/// Rank of the shard-level reindex serialization lock.
pub const RANK_SHARD_REINDEX: u32 = 100;
/// Rank of the sharded router's fleet snapshot pointer.
pub const RANK_SHARD_FLEET: u32 = 110;
/// Rank of the per-engine reindex serialization lock.
pub const RANK_ENGINE_REINDEX: u32 = 150;
/// Rank of the engine's snapshot-catalog pointer.
pub const RANK_CATALOG: u32 = 200;
/// Rank of the engine's skyline-diagram key cells. Above the catalog:
/// a worker pins its snapshot before it probes or admits under the
/// generation it pinned.
pub const RANK_DIAGRAM: u32 = 240;
/// Rank of the engine's context-cache interior state.
pub const RANK_CONTEXT_CACHE: u32 = 300;
/// Rank of the engine's session map.
pub const RANK_SESSION_MAP: u32 = 400;
/// Rank of a session's pending-batch buffer.
pub const RANK_SESSION_PENDING: u32 = 450;
/// Rank of a session's continuous-skyline state.
pub const RANK_SESSION_SKY: u32 = 460;
/// Rank of the sharded router's per-caller arena pool, held only to pop
/// or push an arena, never across an engine call.
pub const RANK_SHARD_MERGE: u32 = 500;
/// Rank of the engine's aggregated metrics — the universal leaf among
/// engine locks.
pub const RANK_METRICS: u32 = 600;
/// Rank of the ssq-net server's connection registry — the outermost
/// lock: taken bare at accept/teardown, released before any engine or
/// socket work.
pub const RANK_NET_CONNECTIONS: u32 = 50;
/// Rank of an ssq-net connection's socket write half — a
/// per-connection leaf above even `engine.metrics`, because a stats
/// response snapshots the metrics before taking the writer to send it.
pub const RANK_NET_WRITER: u32 = 700;

#[cfg(debug_assertions)]
thread_local! {
    /// Ranks (and names, for diagnostics) of locks this thread holds,
    /// in acquisition order.
    static HELD: std::cell::RefCell<Vec<(u32, &'static str)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// A named, ranked mutex. See the [module docs](self) for the rank
/// table and the deadlock-freedom argument.
#[derive(Debug)]
pub struct RankedMutex<T> {
    name: &'static str,
    rank: u32,
    // Named `raw` (not `inner`) so lock-rank-static never confuses this
    // internal std mutex with a ranked field of the same name elsewhere.
    raw: Mutex<T>,
}

impl<T> RankedMutex<T> {
    /// Wraps `value` in a mutex with the given diagnostic name and
    /// rank.
    pub fn new(name: &'static str, rank: u32, value: T) -> Self {
        RankedMutex {
            name,
            rank,
            raw: Mutex::new(value),
        }
    }

    /// The diagnostic name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The lock's rank.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Acquires the lock.
    ///
    /// In debug builds, panics if this thread already holds a lock of
    /// equal or higher rank — the acquisition would violate the global
    /// order and could deadlock under a different interleaving.
    /// Poisoning is recovered: every `RankedMutex` protects state kept
    /// coherent by construction (pointer swaps, monotonic counters,
    /// self-healing caches), so a panicking holder cannot leave it
    /// torn.
    pub fn lock(&self) -> RankedGuard<'_, T> {
        #[cfg(debug_assertions)]
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(&(top_rank, top_name)) = held.last() {
                #[expect(
                    clippy::panic,
                    reason = "the whole point of the checker is to fail fast, in debug builds only, on a lock-order violation"
                )]
                if self.rank <= top_rank {
                    panic!(
                        "lock-order violation: acquiring `{}` (rank {}) while \
                         holding `{}` (rank {}); ranks must strictly ascend",
                        self.name, self.rank, top_name, top_rank
                    );
                }
            }
            held.push((self.rank, self.name));
        });
        RankedGuard {
            guard: self.raw.lock().unwrap_or_else(PoisonError::into_inner),
            #[cfg(debug_assertions)]
            rank: self.rank,
        }
    }
}

/// RAII guard for a [`RankedMutex`]; releases the rank (debug builds)
/// and the lock on drop.
#[derive(Debug)]
pub struct RankedGuard<'a, T> {
    guard: MutexGuard<'a, T>,
    #[cfg(debug_assertions)]
    rank: u32,
}

impl<T> std::ops::Deref for RankedGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> std::ops::DerefMut for RankedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T> Drop for RankedGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(pos) = held.iter().rposition(|&(rank, _)| rank == self.rank) {
                held.remove(pos);
            }
        });
    }
}

/// Locks a raw `Mutex`, recovering from poisoning.
///
/// For the short-lived condvar-paired mutexes that stay unranked (the
/// pool queue, the ticket cell): their protected state is kept coherent
/// by construction, so a panicking holder cannot leave it torn and the
/// poison flag carries no information.
pub fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait`], recovering from poisoning.
pub fn wait_unpoisoned<'a, T>(condvar: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    condvar.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait_timeout`], recovering from poisoning.
pub fn wait_timeout_unpoisoned<'a, T>(
    condvar: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
    condvar
        .wait_timeout(guard, timeout)
        .unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn ascending_acquisition_is_allowed() {
        let low = RankedMutex::new("test.low", 10, 0u32);
        let high = RankedMutex::new("test.high", 20, 0u32);
        let _l = low.lock();
        let _h = high.lock();
    }

    #[test]
    fn reacquisition_after_release_is_allowed() {
        let low = RankedMutex::new("test.low", 10, 0u32);
        let high = RankedMutex::new("test.high", 20, 0u32);
        {
            let _h = high.lock();
        }
        let _l = low.lock();
        drop(_l);
        let _h = high.lock();
    }

    #[cfg(debug_assertions)]
    #[test]
    fn descending_acquisition_panics() {
        let low = RankedMutex::new("test.low", 10, 0u32);
        let high = RankedMutex::new("test.high", 20, 0u32);
        let _h = high.lock();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _l = low.lock();
        }))
        .expect_err("descending ranks must panic");
        let msg = err.downcast_ref::<String>().expect("string panic payload");
        assert!(msg.contains("lock-order violation"), "{msg}");
        assert!(msg.contains("test.low"), "{msg}");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn equal_rank_acquisition_panics() {
        let a = RankedMutex::new("test.a", 10, 0u32);
        let b = RankedMutex::new("test.b", 10, 0u32);
        let _a = a.lock();
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _b = b.lock();
        }))
        .is_err());
    }

    #[cfg(debug_assertions)]
    #[test]
    fn rank_stack_unwinds_with_guards() {
        let low = RankedMutex::new("test.low", 10, 0u32);
        let high = RankedMutex::new("test.high", 20, 0u32);
        // A rank violation mid-stack must not corrupt the stack: after
        // the panic unwinds and all guards drop, fresh ascending
        // acquisition works again.
        {
            let _h = high.lock();
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _l = low.lock();
            }));
        }
        let _l = low.lock();
        let _h = high.lock();
    }

    #[test]
    fn poisoned_ranked_mutex_recovers() {
        let m = Arc::new(RankedMutex::new("test.poison", 10, 7u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison the lock");
        })
        .join();
        assert_eq!(*m.lock(), 7, "lock usable after a panicking holder");
    }

    #[test]
    fn helpers_recover_from_poison() {
        let m = Arc::new(Mutex::new(3u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison the lock");
        })
        .join();
        assert_eq!(*lock_unpoisoned(&m), 3);
    }

    #[test]
    fn ranks_are_independent_across_threads() {
        let high = Arc::new(RankedMutex::new("test.high", 20, 0u32));
        let low = Arc::new(RankedMutex::new("test.low", 10, 0u32));
        let _h = high.lock();
        // Another thread holds nothing, so taking the low lock there is
        // legal even while this thread holds the high one.
        let low2 = Arc::clone(&low);
        std::thread::spawn(move || {
            let _l = low2.lock();
        })
        .join()
        .expect("cross-thread low acquisition is clean");
    }
}
