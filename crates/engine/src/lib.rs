//! # ssq-engine
//!
//! A concurrent query-serving engine for spatial skyline queries — the
//! layer that turns the single-query algorithms of [`ssq_core`] into a
//! multi-tenant service over a *versioned* catalog of immutable dataset
//! snapshots.
//!
//! The engine composes six pieces:
//!
//! * **Snapshot catalog** ([`snapshot`]) — each dataset generation is an
//!   immutable [`Snapshot`] bundling the points with one
//!   [`RTreeIndex`](ssq_core::RTreeIndex) and one
//!   [`VoronoiIndex`](ssq_core::VoronoiIndex), shared via
//!   [`Arc`](std::sync::Arc) across all worker threads. A
//!   [`SnapshotCatalog`] publishes new generations atomically
//!   ([`Engine::reindex`]): in-flight queries keep their pinned `Arc`
//!   while new queries see the new generation — no drain, no pause.
//! * **Worker pool** ([`pool`]) — a fixed set of `std::thread` workers
//!   fed by a bounded MPMC job queue; [`Engine::submit`] returns a
//!   per-query [`QueryHandle`] immediately and `submit` blocks only when
//!   the queue is full (backpressure). Shutdown drains in-flight work.
//! * **Query-context cache** ([`cache`]) — an LRU keyed by the snapshot
//!   generation plus the *canonicalized* query set: the convex-hull
//!   vertices of `Q`, sorted and quantized. By Theorem 2 of the paper
//!   the skyline depends only on those vertices, so permuting `Q` or
//!   adding interior query points hits the same entry; entries of
//!   retired generations die by normal LRU eviction, never a flush.
//! * **Adaptive planner** ([`planner`]) — picks naive vs B²S² vs VS²
//!   from `|P|` and the shape of `CH(Q)`, with a forced-algorithm
//!   override for experiments.
//! * **Skyline diagram** (optional; [`ssq_diagram`], wired in by
//!   [`EngineConfig::with_diagram`]) — probed *before* the cache, on
//!   the thread that submits a single query, it answers by point
//!   location without running any algorithm; a hit's handle comes back
//!   already filled and never enters the pool. A
//!   single-anchor query is located in the pinned snapshot's Voronoi
//!   diagram ([`VoronoiIndex::nearest_ties`](ssq_core::VoronoiIndex::nearest_ties)),
//!   so it hits on every generation. Two- and three-anchor shapes hit key
//!   cells: a miss falls through to the planner, and its exact answer is
//!   then admitted as its key's cell for the generation the worker
//!   pinned. A cell answers only for that generation, so a publish
//!   touches no cell: each key's first query afterwards misses once and
//!   refreshes it. [`Engine::warm_start`] admits yesterday's hot set
//!   ([`warm`]) through the same admission before the first request
//!   lands.
//! * **Metrics** ([`metrics`]) — per-algorithm request counts, cache and
//!   diagram hit/miss counters, a log-bucketed latency histogram, and
//!   aggregated [`QueryStats`](ssq_core::QueryStats).
//!
//! Continuous queries (§5 of the paper) are served by the
//! [session manager](Engine::open_session): each session owns a
//! [`ContinuousSkyline`](ssq_core::ContinuousSkyline) over the Voronoi
//! index of the generation it last answered at, and motion updates are
//! applied through the same worker pool, in submission order per
//! session, each rerun on the draining worker's arena — a session holds
//! no per-site state of its own. A session follows the data: an update
//! applied after a publish first re-homes the session onto the current
//! generation, and every [`SessionUpdate`] names the generation its ids
//! belong to.
//!
//! ```
//! use ssq_engine::{Engine, EngineConfig, QueryRequest};
//! use ssq_geom::Point;
//!
//! let data: Vec<Point> = (0..200)
//!     .map(|i| Point::new((i % 14) as f64, (i / 14) as f64 + 0.01 * i as f64))
//!     .collect();
//! let engine = Engine::new(&data, EngineConfig::default()).unwrap();
//! let handle = engine.submit(QueryRequest::new(vec![
//!     Point::new(3.0, 4.0),
//!     Point::new(8.0, 2.0),
//!     Point::new(5.0, 9.0),
//! ]));
//! let response = handle.wait();
//! assert!(!response.skyline.is_empty());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::all)]
// Library code returns typed errors, never panics (tests excepted); an
// audited exception carries `#[expect(clippy::.., reason = "..")]`.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

pub mod cache;
pub mod engine;
pub mod metrics;
pub mod planner;
pub mod pool;
pub mod snapshot;
pub mod sync;
pub mod warm;

pub use cache::{CacheKey, ContextCache, QueryKey};
pub use engine::{
    BatchTicket, Engine, EngineConfig, EngineError, IngestHandle, IngestReport, QueryHandle,
    QueryRequest, QueryResponse, ServedBy, SessionId, SessionUpdate, Ticket, TicketFiller,
    UpdateHandle,
};
pub use metrics::{
    CounterSet, DiagramCounters, EngineCounters, EngineMetrics, IngestCounters, LatencyHistogram,
    LatencySnapshot, LifecycleCounters, MetricsSnapshot, NetCounters, RouterCounters, WorkCounters,
};
pub use planner::{Algorithm, Planner};
pub use pool::{PoolClosed, TrySubmitError, WorkerPool, WorkerState};
pub use snapshot::{Snapshot, SnapshotCatalog, StaleSnapshot};
pub use ssq_diagram::DiagramConfig;
pub use sync::{RankedGuard, RankedMutex};
pub use warm::{load_warm_keys, save_warm_keys};
