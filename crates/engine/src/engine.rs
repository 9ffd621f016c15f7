//! The engine proper: catalog, pool, cache, planner, metrics, sessions.

use crate::cache::ContextCache;
use crate::metrics::{EngineMetrics, MetricsSnapshot};
use crate::planner::{Algorithm, Planner};
use crate::pool::{Job, TrySubmitError, WorkerPool, WorkerState};
use crate::snapshot::{Snapshot, SnapshotCatalog, StaleSnapshot};
use crate::sync::{
    lock_unpoisoned, wait_timeout_unpoisoned, wait_unpoisoned, RankedMutex, RANK_DIAGRAM,
    RANK_ENGINE_REINDEX, RANK_SESSION_MAP, RANK_SESSION_PENDING, RANK_SESSION_SKY,
};
use ssq_core::{
    b2s2_kernel, bbs, naive_sorted_kernel, vs2_kernel, ContinuousSkyline, DeltaStats,
    DistanceScratch, KeyScratch, QueryContext, QueryKey, QueryStats, SkylineResult, UpdateBatch,
    UpdateOutcome, VoronoiIndex,
};
use ssq_diagram::{DiagramConfig, SkylineDiagram};
use ssq_geom::Point;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Anchor-count hint used to pre-size worker scratch arenas at spawn:
/// covers every workload the benches and tests run (2–8 anchors) so the
/// first query on a worker allocates nothing; wider queries simply grow
/// the arena once, exactly as before.
const PRESIZE_ANCHOR_WIDTH: usize = 8;

/// Engine construction / submission errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The dataset was empty — there is nothing to index or serve.
    EmptyDataset,
    /// [`EngineConfig::workers`] was zero — a pool with no workers would
    /// accept jobs that can never run.
    ZeroWorkers,
    /// [`EngineConfig::queue_capacity`] was zero — every submission would
    /// deadlock waiting for queue space that cannot exist.
    ZeroQueueCapacity,
    /// [`EngineConfig::cache_capacity`] was zero — the LRU cache needs at
    /// least one slot.
    ZeroCacheCapacity,
    /// [`EngineConfig::ingest_capacity`] was zero — every [`Engine::ingest`]
    /// would deadlock waiting for queue space that cannot exist.
    ZeroIngestCapacity,
    /// [`EngineConfig::cache_quantum`] was zero, negative, or NaN — the
    /// cache-key grid needs a positive cell size.
    InvalidCacheQuantum,
    /// The Voronoi index could not be built (duplicate or non-finite
    /// points); the message is the underlying builder's.
    Index(String),
    /// An offered snapshot was not newer than the published one — the
    /// catalog refuses to roll the dataset backwards.
    Stale(StaleSnapshot),
    /// The engine is shutting down and no longer accepts work.
    Closed,
    /// The job queue was at capacity when [`Engine::try_submit`] ran —
    /// the admission-control signal: shed the request (e.g. answer
    /// `RetryLater` over the wire) instead of blocking on
    /// [`Engine::submit`].
    QueueFull,
    /// The session id is unknown (never opened, or already closed).
    NoSuchSession,
    /// A session update named query object `object`, but the session's
    /// query set has only `objects` points.
    NoSuchObject {
        /// The object index the update named.
        object: usize,
        /// The session's `|Q|`, fixed when it was opened.
        objects: usize,
    },
    /// A skyline-diagram operation failed: an invalid
    /// [`DiagramConfig`], or a diagram call on an engine whose diagram
    /// is disabled.
    Diagram(String),
    /// The OS refused to spawn a worker thread; the message is the
    /// underlying `io::Error`'s.
    Spawn(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::EmptyDataset => write!(f, "cannot serve an empty dataset"),
            EngineError::ZeroWorkers => write!(f, "config: workers must be nonzero"),
            EngineError::ZeroQueueCapacity => {
                write!(f, "config: queue capacity must be nonzero")
            }
            EngineError::ZeroCacheCapacity => {
                write!(f, "config: cache capacity must be nonzero")
            }
            EngineError::ZeroIngestCapacity => {
                write!(f, "config: ingest queue capacity must be nonzero")
            }
            EngineError::InvalidCacheQuantum => {
                write!(f, "config: cache quantum must be positive and finite")
            }
            EngineError::Index(msg) => write!(f, "index build failed: {msg}"),
            EngineError::Stale(stale) => write!(f, "{stale}"),
            EngineError::Closed => write!(f, "engine is shut down"),
            EngineError::QueueFull => write!(f, "engine job queue is full"),
            EngineError::NoSuchSession => write!(f, "unknown session id"),
            EngineError::NoSuchObject { object, objects } => write!(
                f,
                "session query object {object} out of range (the session has {objects})"
            ),
            EngineError::Diagram(msg) => write!(f, "skyline diagram: {msg}"),
            EngineError::Spawn(msg) => write!(f, "failed to spawn worker thread: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<TrySubmitError> for EngineError {
    fn from(e: TrySubmitError) -> EngineError {
        match e {
            TrySubmitError::Full => EngineError::QueueFull,
            TrySubmitError::Closed => EngineError::Closed,
        }
    }
}

/// Tuning knobs for [`Engine::new`].
///
/// Validated at engine construction by [`EngineConfig::validate`]: zero
/// workers, a zero queue or cache capacity, and a non-positive cache
/// quantum are rejected with typed [`EngineError`]s instead of panicking
/// deep inside the pool or cache constructors.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Worker threads (must be nonzero; the default is one per available
    /// CPU core).
    pub workers: usize,
    /// Bounded job-queue capacity (backpressure threshold).
    pub queue_capacity: usize,
    /// Bounded ingest-queue capacity: delta batches waiting for the
    /// ingestor thread. [`Engine::try_ingest`] sheds past this bound.
    pub ingest_capacity: usize,
    /// Maximum cached query contexts.
    pub cache_capacity: usize,
    /// Coordinate quantum for the cache key
    /// ([`ContextCache::DEFAULT_QUANTUM`] merges only fp noise).
    pub cache_quantum: f64,
    /// Pin every query to one algorithm instead of planning adaptively.
    pub forced_algorithm: Option<Algorithm>,
    /// Enable the materialized skyline diagram with these knobs; `None`
    /// (the default) serves every query through the planner.
    pub diagram: Option<DiagramConfig>,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            queue_capacity: 1024,
            ingest_capacity: 64,
            cache_capacity: 128,
            cache_quantum: ContextCache::DEFAULT_QUANTUM,
            forced_algorithm: None,
            diagram: None,
        }
    }
}

impl EngineConfig {
    /// This config with exactly `workers` worker threads.
    pub fn with_workers(mut self, workers: usize) -> EngineConfig {
        self.workers = workers;
        self
    }

    /// This config with an ingest queue of at most `capacity` batches.
    pub fn with_ingest_capacity(mut self, capacity: usize) -> EngineConfig {
        self.ingest_capacity = capacity;
        self
    }

    /// This config with every query pinned to `algorithm`.
    pub fn with_forced_algorithm(mut self, algorithm: Algorithm) -> EngineConfig {
        self.forced_algorithm = Some(algorithm);
        self
    }

    /// This config with the skyline diagram enabled.
    pub fn with_diagram(mut self, diagram: DiagramConfig) -> EngineConfig {
        self.diagram = Some(diagram);
        self
    }

    /// Checks every knob, returning the first violation as a typed error.
    pub fn validate(&self) -> Result<(), EngineError> {
        if self.workers == 0 {
            return Err(EngineError::ZeroWorkers);
        }
        if self.queue_capacity == 0 {
            return Err(EngineError::ZeroQueueCapacity);
        }
        if self.ingest_capacity == 0 {
            return Err(EngineError::ZeroIngestCapacity);
        }
        if self.cache_capacity == 0 {
            return Err(EngineError::ZeroCacheCapacity);
        }
        if !(self.cache_quantum > 0.0 && self.cache_quantum.is_finite()) {
            return Err(EngineError::InvalidCacheQuantum);
        }
        if let Some(diagram) = &self.diagram {
            diagram.validate().map_err(EngineError::Diagram)?;
        }
        Ok(())
    }
}

/// One spatial skyline query headed for the pool.
#[derive(Clone, Debug)]
pub struct QueryRequest {
    /// The query set `Q` (at least one point).
    pub query: Vec<Point>,
    /// Per-request algorithm override; beats the engine-wide force.
    pub force: Option<Algorithm>,
}

impl QueryRequest {
    /// A request served by whatever the planner picks.
    pub fn new(query: Vec<Point>) -> QueryRequest {
        QueryRequest { query, force: None }
    }

    /// A request pinned to `algorithm`.
    pub fn forced(query: Vec<Point>, algorithm: Algorithm) -> QueryRequest {
        QueryRequest {
            query,
            force: Some(algorithm),
        }
    }
}

/// How a [`QueryResponse`] was produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServedBy {
    /// An algorithm ran, with a query context built for this request.
    Planner,
    /// An algorithm ran, with a context from the context cache.
    Cache,
    /// Copied straight from a materialized skyline-diagram cell — no
    /// algorithm ran, so the response's `stats` are zero and its
    /// `algorithm` reports what the planner *would* have picked.
    Diagram,
}

impl ServedBy {
    /// A short lowercase label (`planner` / `cache` / `diagram`).
    pub fn as_str(self) -> &'static str {
        match self {
            ServedBy::Planner => "planner",
            ServedBy::Cache => "cache",
            ServedBy::Diagram => "diagram",
        }
    }
}

impl std::fmt::Display for ServedBy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The answer to one [`QueryRequest`].
#[derive(Clone, Debug)]
pub struct QueryResponse {
    /// Skyline point ids, ascending — indexes into the points of the
    /// snapshot generation this response reports.
    pub skyline: Vec<u32>,
    /// The snapshot generation the query was answered against. Pinned
    /// when a worker dequeues the job — or, for a diagram hit answered at
    /// submission, when the query was submitted — so a response is always
    /// exactly correct for this generation's dataset even if a swap
    /// landed mid-flight.
    pub generation: u64,
    /// The algorithm that ran (or, for a diagram hit, would have run).
    pub algorithm: Algorithm,
    /// Which serving path produced the answer.
    pub served_by: ServedBy,
    /// End-to-end service time (probe + cache lookup + algorithm),
    /// excluding queue wait.
    pub latency: Duration,
    /// The algorithm's work counters.
    pub stats: QueryStats,
}

impl QueryResponse {
    /// Whether the query context came from the context cache (the
    /// pre-diagram name for `served_by == ServedBy::Cache`).
    pub fn cache_hit(&self) -> bool {
        self.served_by == ServedBy::Cache
    }
}

/// The result of one applied motion update in a continuous session.
#[derive(Clone, Debug)]
pub struct SessionUpdate {
    /// How the move changed the query hull (Fig. 10's patterns).
    pub outcome: UpdateOutcome,
    /// The session's skyline after this update, ascending — ids of
    /// `generation`'s dataset.
    pub skyline: Vec<u32>,
    /// The snapshot generation this update was answered at: the one
    /// current when the update was applied.
    pub generation: u64,
    /// Work counters for this update, the re-homing run included when a
    /// publish preceded it.
    pub stats: QueryStats,
}

/// A one-shot slot a worker fills and a caller waits on.
pub struct Ticket<T> {
    cell: Arc<Cell<T>>,
}

struct Cell<T> {
    slot: Mutex<Option<T>>,
    ready: Condvar,
}

impl<T> Ticket<T> {
    fn new() -> (Ticket<T>, Arc<Cell<T>>) {
        let cell = Arc::new(Cell {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        });
        (
            Ticket {
                cell: Arc::clone(&cell),
            },
            cell,
        )
    }

    /// Creates an unsubmitted ticket together with its producing half.
    ///
    /// Everything the engine hands out resolves through a `Ticket`; this
    /// constructor lets layers *outside* the worker pool — the network
    /// front-end driving a sharded-router fan-out on its own dispatcher
    /// threads — complete work through the same primitive, so every
    /// completion path looks identical to a waiting caller.
    pub fn pair() -> (Ticket<T>, TicketFiller<T>) {
        let (ticket, cell) = Ticket::new();
        (ticket, TicketFiller { cell })
    }

    /// Blocks until the worker delivers, consuming the ticket.
    pub fn wait(self) -> T {
        let mut slot = lock_unpoisoned(&self.cell.slot);
        loop {
            if let Some(value) = slot.take() {
                return value;
            }
            slot = wait_unpoisoned(&self.cell.ready, slot);
        }
    }

    /// Like [`Ticket::wait`] but gives up after `timeout`, handing the
    /// ticket back so the caller can retry, escalate, or abandon it.
    ///
    /// This is how clients — and the shard router — bound their exposure
    /// to a wedged or overloaded worker instead of blocking forever: a
    /// timed-out ticket is still live, and the worker's eventual `fill`
    /// is not lost.
    pub fn wait_timeout(self, timeout: Duration) -> Result<T, Ticket<T>> {
        let deadline = Instant::now() + timeout;
        let cell = Arc::clone(&self.cell);
        let mut slot = lock_unpoisoned(&cell.slot);
        loop {
            if let Some(value) = slot.take() {
                return Ok(value);
            }
            let now = Instant::now();
            if now >= deadline {
                drop(slot);
                return Err(self);
            }
            slot = wait_timeout_unpoisoned(&cell.ready, slot, deadline - now).0;
        }
    }

    /// `true` once the result is available (`wait` will not block).
    pub fn is_ready(&self) -> bool {
        lock_unpoisoned(&self.cell.slot).is_some()
    }
}

impl<T> Cell<T> {
    fn fill(&self, value: T) {
        *lock_unpoisoned(&self.slot) = Some(value);
        self.ready.notify_all();
    }
}

/// The producing half of [`Ticket::pair`]: delivers the value exactly
/// once, waking every waiter. Dropping the filler unfilled abandons the
/// ticket — its `wait` would block forever, so use `wait_timeout` when
/// the producer might disappear.
pub struct TicketFiller<T> {
    cell: Arc<Cell<T>>,
}

impl<T> TicketFiller<T> {
    /// Delivers `value`, consuming the filler (a ticket is one-shot).
    pub fn fill(self, value: T) {
        self.cell.fill(value);
    }
}

/// Handle for a submitted snapshot query.
pub type QueryHandle = Ticket<QueryResponse>;
/// Handle for a submitted session update.
pub type UpdateHandle = Ticket<SessionUpdate>;
/// Handle for a submitted batch: resolves to one [`QueryResponse`] per
/// request, in submission order.
pub type BatchTicket = Ticket<Vec<QueryResponse>>;
/// Handle for a queued delta batch: resolves once the ingestor thread
/// has published (or rejected) the batch. Batches apply in submission
/// order; a rejected batch (validation failure against the generation
/// it reached) does not stop the ones queued behind it.
pub type IngestHandle = Ticket<Result<IngestReport, EngineError>>;

/// What publishing one [`UpdateBatch`] as a new generation cost.
#[derive(Clone, Debug)]
pub struct IngestReport {
    /// The generation the batch produced.
    pub generation: u64,
    /// What the delta build actually did (incremental vs full rebuild,
    /// dirty-cell count).
    pub stats: DeltaStats,
    /// Wall-clock duration of the delta build + install.
    pub build: Duration,
}

/// The single publish path for delta batches, shared by the synchronous
/// [`Engine::apply_delta`] and the ingestor thread: serialize under the
/// reindex lock, build the next generation copy-on-write, install it,
/// record the publish cost. A build that panics — on this thread or on the
/// publish helper ([`ssq_core::delta::join`]) — installs nothing and comes
/// back as [`EngineError::Index`], so the ingestor keeps serving.
///
/// Also returns the retired generation, for the caller to drop once it
/// has delivered the report: on an idle engine that drop frees the old
/// generation, which the report's `build` does not time.
fn publish_delta(
    shared: &Arc<EngineShared>,
    batch: &UpdateBatch,
) -> (Result<IngestReport, EngineError>, Option<Arc<Snapshot>>) {
    let _guard = shared.reindex_lock.lock();
    let start = Instant::now();
    let apply = || shared.catalog.apply_delta(batch);
    let published = std::panic::catch_unwind(std::panic::AssertUnwindSafe(apply))
        .unwrap_or_else(|_| Err("the delta build panicked".into()));
    let (snapshot, stats, retired) = match published {
        Ok(published) => published,
        Err(e) => return (Err(EngineError::Index(e)), None),
    };
    let build = start.elapsed();
    let generation = snapshot.generation();
    shared.metrics.lifecycle.record_swap(generation, build);
    shared.metrics.ingest.record_ingest(&stats, build);
    let report = IngestReport {
        generation,
        stats,
        build,
    };
    (Ok(report), Some(retired))
}

/// Identifies one continuous (VCS²) session.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(u64);

type PendingUpdate = (usize, Point, Arc<Cell<SessionUpdate>>);

struct Pending {
    updates: VecDeque<PendingUpdate>,
    /// `true` while a drain job for this session is queued or running —
    /// at most one at a time, so updates apply in submission order.
    scheduled: bool,
}

/// An open session: its skyline and its queue of moves. It owns no
/// arena: the first VS² runs on a transient one, every later run on the
/// arena of the worker that drains the session.
struct Session {
    /// `|Q|`, fixed at open, so a move of a nonexistent object is refused
    /// before it is queued.
    objects: usize,
    sky: RankedMutex<Homed>,
    pending: RankedMutex<Pending>,
}

/// A session's skyline with the generation whose Voronoi index it holds
/// (and keeps alive) — under one lock, so an answer and the generation
/// its ids belong to are always read together.
struct Homed {
    generation: u64,
    sky: ContinuousSkyline<Arc<VoronoiIndex>>,
}

struct EngineShared {
    /// Owns the *current* dataset generation. Workers pin a snapshot
    /// here at dequeue time, and a submitting thread for its diagram
    /// probe; nothing else in the engine holds indexes.
    catalog: SnapshotCatalog,
    /// Serializes [`Engine::reindex`] calls so two concurrent builds
    /// cannot race for the same generation number. Never held on the
    /// query path.
    reindex_lock: RankedMutex<()>,
    cache: ContextCache,
    planner: Planner,
    metrics: EngineMetrics,
    sessions: RankedMutex<HashMap<u64, Arc<Session>>>,
    next_session: AtomicU64,
    /// The skyline diagram's knobs; `None` while it is disabled (the
    /// default). Fixed at construction, so a probe reads it unlocked.
    diagram_config: Option<DiagramConfig>,
    /// The diagram's key cells, admitted by misses and warm starts.
    diagram: RankedMutex<SkylineDiagram>,
}

/// A concurrent spatial-skyline serving engine over a versioned dataset
/// snapshot catalog. See the [crate docs](crate) for the architecture.
pub struct Engine {
    shared: Arc<EngineShared>,
    /// The ingestor: one worker publishing delta batches in submission
    /// order off a queue of `ingest_capacity`, spawned on first use so
    /// query-only engines never pay for its thread. Declared before
    /// `pool`, so a drop, like [`Engine::shutdown`], drains it first.
    ingest: OnceLock<WorkerPool>,
    ingest_capacity: usize,
    pool: WorkerPool,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("data_len", &self.data_len())
            .field("workers", &self.workers())
            .field("open_sessions", &self.open_sessions())
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Builds generation 0's indexes over `points` and starts the pool.
    ///
    /// `points` must be non-empty, finite, and duplicate-free (the
    /// Voronoi builder's requirements), and `config` must pass
    /// [`EngineConfig::validate`].
    pub fn new(points: &[Point], config: EngineConfig) -> Result<Engine, EngineError> {
        config.validate()?;
        if points.is_empty() {
            return Err(EngineError::EmptyDataset);
        }
        let snapshot = Snapshot::build(0, points).map_err(EngineError::Index)?;
        Self::with_snapshot(Arc::new(snapshot), config)
    }

    /// Starts an engine serving `snapshot` (any generation) as the
    /// catalog's initial publication.
    pub fn with_snapshot(
        snapshot: Arc<Snapshot>,
        config: EngineConfig,
    ) -> Result<Engine, EngineError> {
        config.validate()?;
        if snapshot.is_empty() {
            return Err(EngineError::EmptyDataset);
        }
        let metrics = EngineMetrics::new();
        metrics.lifecycle.note_generation(snapshot.generation());
        // Pre-size every worker's scratch arena for the worst-case row
        // count (the naive kernel pushes one row per data point) so the
        // first query a worker serves runs growth-free instead of paying
        // the whole arena allocation inside its timed hot path.
        let scratch_rows = snapshot.len();
        let shared = Arc::new(EngineShared {
            catalog: SnapshotCatalog::new(snapshot),
            reindex_lock: RankedMutex::new("engine.reindex", RANK_ENGINE_REINDEX, ()),
            cache: ContextCache::new(config.cache_capacity, config.cache_quantum),
            planner: Planner::new(config.forced_algorithm),
            metrics,
            sessions: RankedMutex::new("engine.sessions", RANK_SESSION_MAP, HashMap::new()),
            next_session: AtomicU64::new(0),
            diagram_config: config.diagram,
            diagram: RankedMutex::new(
                "engine.diagram",
                RANK_DIAGRAM,
                SkylineDiagram::new(&config.diagram.unwrap_or_default()),
            ),
        });
        let pool = WorkerPool::presized(
            |i| format!("ssq-worker-{i}"),
            config.workers,
            config.queue_capacity,
            scratch_rows,
            PRESIZE_ANCHOR_WIDTH,
        )
        .map_err(|e| EngineError::Spawn(e.to_string()))?;
        Ok(Engine {
            shared,
            ingest: OnceLock::new(),
            ingest_capacity: config.ingest_capacity,
            pool,
        })
    }

    /// The `(name, rank)` pairs of the engine's long-lived locks in
    /// ascending rank order — catalog, diagram, context cache, session
    /// map, metrics. Exposed so tests can assert the lock-order table the
    /// [`sync`](crate::sync) module documents.
    pub fn lock_ranks(&self) -> [(&'static str, u32); 5] {
        [
            self.shared.catalog.lock_info(),
            (self.shared.diagram.name(), self.shared.diagram.rank()),
            self.shared.cache.lock_info(),
            (self.shared.sessions.name(), self.shared.sessions.rank()),
            self.shared.metrics.lock_info(),
        ]
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Number of data points in the current snapshot.
    pub fn data_len(&self) -> usize {
        self.shared.catalog.current().len()
    }

    /// Pins the current snapshot: the returned `Arc` keeps its
    /// generation's points and indexes alive regardless of later
    /// reindexes. Response skylines index into
    /// [`Snapshot::points`] of the generation they report; a routing
    /// layer uses a pinned snapshot to translate per-shard results back
    /// into global candidates.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.shared.catalog.current()
    }

    /// The snapshot generation currently being served.
    pub fn generation(&self) -> u64 {
        self.shared.catalog.generation()
    }

    /// The bounding rectangle of the current snapshot's points.
    pub fn universe(&self) -> ssq_geom::Rect {
        self.shared.catalog.current().universe()
    }

    /// A point-in-time copy of the engine's metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Warm start: pre-builds the query context of each key in the
    /// context cache and admits its exact answer for the current
    /// snapshot into the diagram, synchronously — so a freshly started
    /// server answers its known-hot traffic without a cold-cache latency
    /// spike.
    ///
    /// Keys may come from [`Engine::hot_keys`] of a previous run (see
    /// the [`warm`](crate::warm) module for the on-disk format); each is
    /// answered for its representative points under this engine's
    /// quantum, so a file written under a different quantum still warms
    /// correctly. Admission is the miss path's: keys past `max_cells`,
    /// or of shapes the diagram holds no cells for, are not stored.
    /// Returns the number of keys seeded.
    pub fn warm_start(&self, keys: &[QueryKey]) -> Result<usize, EngineError> {
        let Some(config) = self.shared.diagram_config else {
            return Err(EngineError::Diagram("diagram is not enabled".into()));
        };
        let start = Instant::now();
        let snapshot = self.shared.catalog.current();
        let generation = snapshot.generation();
        let quantum = self.shared.cache.quantum();
        let (mut scratch, mut key_scratch) = (DistanceScratch::new(), KeyScratch::new());
        let (mut seeded, mut admitted) = (0usize, 0u64);
        for key in keys {
            let reps = key.representative_points(quantum);
            if reps.is_empty() {
                continue;
            }
            seeded += 1;
            // Pre-build the query context so even planner-served repeats
            // of this shape start warm. Deliberately not counted as a
            // cache miss: nobody asked a query.
            let (ctx, _) = self.shared.cache.get_or_build(generation, &reps);
            let Some(cells) = config.key_cells(&reps, quantum, &mut key_scratch) else {
                continue;
            };
            let (_, result) = run_kernel(&self.shared, &snapshot, None, &ctx, &mut scratch);
            admitted += u64::from(admit(&self.shared, generation, cells, &result.skyline));
        }
        self.shared
            .metrics
            .record_warm_start(admitted, start.elapsed());
        Ok(seeded)
    }

    /// The most-probed canonical query keys the diagram holds — hits and
    /// misses alike, most-probed first — what a warm-start file should
    /// persist.
    pub fn hot_keys(&self, limit: usize) -> Vec<QueryKey> {
        self.shared.diagram.lock().hottest(limit)
    }

    /// Builds indexes over `points` as the next generation and publishes
    /// them atomically, returning the new generation number.
    ///
    /// The build runs on the calling thread, entirely off the serving
    /// path: queries keep flowing against the old snapshot until the
    /// install, and in-flight queries that already pinned the old
    /// generation finish against it. Concurrent `reindex` calls are
    /// serialized; the dataset never rolls backwards.
    pub fn reindex(&self, points: &[Point]) -> Result<u64, EngineError> {
        let _guard = self.shared.reindex_lock.lock();
        let next = self.shared.catalog.generation() + 1;
        let start = Instant::now();
        let snapshot = Snapshot::build(next, points).map_err(EngineError::Index)?;
        let build = start.elapsed();
        self.shared
            .catalog
            .install(Arc::new(snapshot))
            .map_err(EngineError::Stale)?;
        self.shared.metrics.lifecycle.record_swap(next, build);
        Ok(next)
    }

    /// Publishes a pre-built snapshot (built elsewhere — e.g. by a shard
    /// router that partitions one dataset across many engines). `build`
    /// is the off-line build duration, recorded in the metrics.
    pub fn install_snapshot(
        &self,
        snapshot: Arc<Snapshot>,
        build: Duration,
    ) -> Result<(), EngineError> {
        if snapshot.is_empty() {
            return Err(EngineError::EmptyDataset);
        }
        let generation = snapshot.generation();
        self.shared
            .catalog
            .install(snapshot)
            .map_err(EngineError::Stale)?;
        self.shared.metrics.lifecycle.record_swap(generation, build);
        Ok(())
    }

    /// Applies a delta batch to the current snapshot and publishes the
    /// result as the next generation, *synchronously* on the calling
    /// thread.
    ///
    /// Unlike [`Engine::reindex`] this does not rebuild the indexes from
    /// scratch: the new generation shares every untouched structure with
    /// the old one copy-on-write, and the incremental R\*-tree and
    /// Delaunay maintenance make the publish cost scale with the batch,
    /// not the dataset (falling back to a full rebuild for oversized
    /// batches — see the report's [`DeltaStats::incremental`]). Queries
    /// keep flowing against the old generation until the install, exactly
    /// as for a reindex. Concurrent publishes serialize on the reindex
    /// lock.
    ///
    /// An invalid batch (delete id out of range, non-finite insert, or a
    /// batch that would empty the dataset) is rejected without publishing.
    pub fn apply_delta(&self, batch: &UpdateBatch) -> Result<IngestReport, EngineError> {
        publish_delta(&self.shared, batch).0
    }

    /// Queues a delta batch for the ingestor thread, blocking while the
    /// ingest queue is at capacity.
    ///
    /// This is the streaming-ingest entry point: the caller gets its
    /// [`IngestHandle`] back immediately (once there is queue space) and
    /// the publish happens off the caller's thread. Batches publish in
    /// submission order, each producing one generation.
    pub fn ingest(&self, batch: UpdateBatch) -> Result<IngestHandle, EngineError> {
        let (ticket, job) = self.ingest_job(batch);
        self.ingestor()?
            .submit(job)
            .map_err(|_| EngineError::Closed)?;
        Ok(ticket)
    }

    /// Like [`Engine::ingest`] but never blocks: a full ingest queue
    /// comes back as [`EngineError::QueueFull`] immediately — the typed
    /// backpressure signal for producers that must shed (mirroring
    /// [`Engine::try_submit`] on the query side). Shed batches are
    /// counted in the metrics' ingest counters.
    pub fn try_ingest(&self, batch: UpdateBatch) -> Result<IngestHandle, EngineError> {
        let (ticket, job) = self.ingest_job(batch);
        let submitted = self.ingestor()?.try_submit(job);
        if submitted == Err(TrySubmitError::Full) {
            self.shared.metrics.record_ingest_shed();
        }
        submitted.map_err(EngineError::from)?;
        Ok(ticket)
    }

    /// Delta batches currently waiting in the ingest queue (not the one
    /// being published).
    pub fn ingest_queued(&self) -> usize {
        self.ingest.get().map_or(0, WorkerPool::queued)
    }

    /// The ingestor, spawned on first use.
    fn ingestor(&self) -> Result<&WorkerPool, EngineError> {
        if let Some(ingest) = self.ingest.get() {
            return Ok(ingest);
        }
        let ingest = WorkerPool::new(|_| "ssq-ingest".into(), 1, self.ingest_capacity)
            .map_err(|e| EngineError::Spawn(e.to_string()))?;
        // Of two racing first calls, one installs its pool; the other's,
        // idle, joins its thread on drop.
        Ok(self.ingest.get_or_init(|| ingest))
    }

    /// Wraps `batch` as an ingestor job that publishes it and resolves the
    /// returned handle with the report.
    fn ingest_job(&self, batch: UpdateBatch) -> (IngestHandle, Job) {
        let (ticket, cell) = Ticket::new();
        let shared = Arc::clone(&self.shared);
        let job = Box::new(move |_: &mut WorkerState| {
            let (report, retired) = publish_delta(&shared, &batch);
            cell.fill(report);
            drop(retired);
        });
        (ticket, job)
    }

    /// Wraps `work` as a pool job that resolves its snapshot on the worker
    /// — the caller's `pin`, else the catalog's current one, so the
    /// generation is pinned at dequeue time, not at submission — and
    /// delivers the result through the returned ticket.
    fn pool_job<T: Send + 'static>(
        &self,
        pin: Option<Arc<Snapshot>>,
        work: impl FnOnce(&Arc<EngineShared>, &Arc<Snapshot>, &mut WorkerState) -> T + Send + 'static,
    ) -> (Ticket<T>, Job) {
        let (ticket, cell) = Ticket::new();
        let shared = Arc::clone(&self.shared);
        let job = Box::new(move |state: &mut WorkerState| {
            let snapshot = pin.unwrap_or_else(|| shared.catalog.current());
            cell.fill(work(&shared, &snapshot, state));
        });
        (ticket, job)
    }

    /// The body of `submit` / `try_submit`. When the request probes the
    /// diagram (see [`probe_config`]), the probe runs here, on the
    /// submitting thread, against the catalog's current snapshot: a hit
    /// gets its ticket filled here and no job, so it never reaches the
    /// queue. A miss is counted here, and its job does not probe again.
    fn single_job(&self, request: QueryRequest) -> (QueryHandle, Option<Job>) {
        assert_non_empty(std::slice::from_ref(&request));
        let shared = &self.shared;
        let config = probe_config(shared, &request);
        if let Some(config) = config {
            let start = Instant::now();
            let snapshot = shared.catalog.current();
            // The submitting thread has no worker arena: a fresh key
            // scratch per probe.
            let mut scratch = KeyScratch::new();
            let key = config.key_cells(&request.query, shared.cache.quantum(), &mut scratch);
            if let Some(response) = try_diagram(shared, &snapshot, &request, key, start) {
                let (ticket, cell) = Ticket::new();
                cell.fill(response);
                return (ticket, None);
            }
            shared.metrics.record_diagram_miss();
        }
        let probed = config.is_some();
        let (ticket, job) = self.pool_job(None, move |shared, snapshot, state| {
            answer(shared, snapshot, &request, probed, state)
        });
        (ticket, Some(job))
    }

    /// The job behind the three `submit_batch*` functions. An empty batch
    /// gets its ticket filled here and no job: it never reaches the queue.
    fn batch_job(
        &self,
        pin: Option<Arc<Snapshot>>,
        requests: Vec<QueryRequest>,
    ) -> (BatchTicket, Option<Job>) {
        assert_non_empty(&requests);
        if requests.is_empty() {
            let (ticket, cell) = Ticket::new();
            cell.fill(Vec::new());
            return (ticket, None);
        }
        let (ticket, job) = self.pool_job(pin, move |shared, snapshot, state| {
            run_batch(shared, snapshot, &requests, state)
        });
        (ticket, Some(job))
    }

    /// Queues `job`, blocking while the job queue is full.
    fn send(&self, job: Job) {
        let submitted = self.pool.submit(job);
        assert!(
            submitted.is_ok(),
            "engine pool closed while the engine was alive"
        );
    }

    /// Queues `job` unless the job queue is full or closed.
    fn try_send(&self, job: Job) -> Result<(), EngineError> {
        self.pool.try_submit(job).map_err(EngineError::from)
    }

    /// Submits one query; blocks only while the job queue is full.
    ///
    /// With the diagram on, an unforced query probes it first, on the
    /// calling thread, against the generation current at submission. A
    /// hit comes back as a handle that is already filled: no job, no
    /// queue, and never blocking. Every other query is pinned *at
    /// dequeue time*: the worker reads the catalog when it picks the
    /// job up, so a query that waited in the queue across a reindex is
    /// answered against the new generation. Either way the response
    /// reports the generation it used.
    ///
    /// # Panics
    ///
    /// Panics if the request's query set is empty.
    pub fn submit(&self, request: QueryRequest) -> QueryHandle {
        let (ticket, job) = self.single_job(request);
        if let Some(job) = job {
            self.send(job);
        }
        ticket
    }

    /// Like [`Engine::submit`] but never blocks: a full job queue comes
    /// back as [`EngineError::QueueFull`] immediately. A diagram hit is
    /// answered at submission, as in `submit`, so it is never shed.
    ///
    /// This is the admission-control entry point for front-ends that
    /// must shed load with a typed retry signal — blocking in `submit`
    /// would stall a connection's reader thread and, behind it, every
    /// pipelined request on that connection.
    ///
    /// # Panics
    ///
    /// Panics if the request's query set is empty.
    pub fn try_submit(&self, request: QueryRequest) -> Result<QueryHandle, EngineError> {
        let (ticket, job) = self.single_job(request);
        if let Some(job) = job {
            self.try_send(job)?;
        }
        Ok(ticket)
    }

    /// Submits a batch as **one** pool job, resolving to one response per
    /// request in order.
    ///
    /// Against per-request [`Engine::submit`] calls this amortizes one
    /// queue hop (one submission, one dequeue) and one snapshot pin (the
    /// whole batch answers against a single dequeue-time generation).
    /// Each request probes the shared context cache as a single
    /// submission does, so a query set repeated within the batch hits
    /// the context its first occurrence built. The whole batch runs on
    /// one worker; use several batches (or
    /// [`Engine::submit`]) when cross-request parallelism matters more
    /// than per-request overhead.
    ///
    /// An empty batch resolves immediately to an empty vector.
    ///
    /// # Panics
    ///
    /// Panics if any request's query set is empty.
    pub fn submit_batch(&self, requests: Vec<QueryRequest>) -> BatchTicket {
        let (ticket, job) = self.batch_job(None, requests);
        if let Some(job) = job {
            self.send(job);
        }
        ticket
    }

    /// Like [`Engine::submit_batch`] but never blocks: a full job queue
    /// comes back as [`EngineError::QueueFull`] immediately (see
    /// [`Engine::try_submit`]). An empty batch resolves immediately.
    ///
    /// # Panics
    ///
    /// Panics if any request's query set is empty.
    pub fn try_submit_batch(
        &self,
        requests: Vec<QueryRequest>,
    ) -> Result<BatchTicket, EngineError> {
        let (ticket, job) = self.batch_job(None, requests);
        if let Some(job) = job {
            self.try_send(job)?;
        }
        Ok(ticket)
    }

    /// Like [`Engine::submit_batch`] but answers against a caller-pinned
    /// snapshot, so a router's pruning bounds and answers describe one
    /// generation even if the catalog swaps mid-request.
    ///
    /// # Panics
    ///
    /// Panics if any request's query set is empty.
    pub fn submit_batch_on(
        &self,
        requests: Vec<QueryRequest>,
        snapshot: Arc<Snapshot>,
    ) -> BatchTicket {
        let (ticket, job) = self.batch_job(Some(snapshot), requests);
        if let Some(job) = job {
            self.send(job);
        }
        ticket
    }

    /// [`Engine::submit_batch_on`]'s job body run on the **calling**
    /// thread with `state` as its arena: no queue hop, no wake-ups, not
    /// counted in [`EngineConfig::workers`]; a panic unwinds to the caller.
    ///
    /// # Panics
    ///
    /// Panics if any request's query set is empty.
    pub fn run_batch_on(
        &self,
        requests: &[QueryRequest],
        snapshot: &Arc<Snapshot>,
        state: &mut WorkerState,
    ) -> Vec<QueryResponse> {
        assert_non_empty(requests);
        run_batch(&self.shared, snapshot, requests, state)
    }

    /// Opens a continuous session for query set `q` on the snapshot
    /// generation current at this moment.
    ///
    /// The initial skyline is computed synchronously, on the calling
    /// thread and a transient arena: a session keeps its query set and
    /// answer, never a per-site arena, so opening costs one zeroing
    /// of per-site marks and an update costs none. Motion updates are
    /// applied through the worker pool via [`Engine::update_session`], each
    /// on the draining worker's arena.
    /// A session follows the data: an update applied after a publish
    /// first moves the session to the current generation, then applies
    /// the move, and reports that generation. Between updates the
    /// session's `Arc` keeps the Voronoi index it last answered from
    /// alive, so an idle session holds one old generation until it is
    /// moved or closed.
    pub fn open_session(&self, q: &[Point]) -> SessionId {
        let snapshot = self.shared.catalog.current();
        let homed = Homed {
            generation: snapshot.generation(),
            sky: ContinuousSkyline::new_in(
                &mut DistanceScratch::new(),
                Arc::clone(snapshot.voronoi()),
                q,
            ),
        };
        let id = self.shared.next_session.fetch_add(1, Ordering::Relaxed) + 1;
        let session = Arc::new(Session {
            objects: q.len(),
            sky: RankedMutex::new("session.sky", RANK_SESSION_SKY, homed),
            pending: RankedMutex::new(
                "session.pending",
                RANK_SESSION_PENDING,
                Pending {
                    updates: VecDeque::new(),
                    scheduled: false,
                },
            ),
        });
        self.shared.sessions.lock().insert(id, session);
        self.shared.metrics.record_session_opened();
        SessionId(id)
    }

    /// The snapshot generation a session last answered at (the one its
    /// [`Engine::session_skyline`] ids belong to), or `None` for an
    /// unknown id.
    pub fn session_generation(&self, id: SessionId) -> Option<u64> {
        let session = self.shared.sessions.lock().get(&id.0).cloned()?;
        let homed = session.sky.lock();
        Some(homed.generation)
    }

    /// Queues a motion update — query object `obj` of the session moves
    /// to `new_loc` — and returns a handle to its result.
    ///
    /// Updates to one session are applied in submission order; distinct
    /// sessions proceed in parallel across the pool. An `obj` outside the
    /// session's query set is refused here with
    /// [`EngineError::NoSuchObject`], and the session keeps serving.
    pub fn update_session(
        &self,
        id: SessionId,
        obj: usize,
        new_loc: Point,
    ) -> Result<UpdateHandle, EngineError> {
        let session = self
            .shared
            .sessions
            .lock()
            .get(&id.0)
            .cloned()
            .ok_or(EngineError::NoSuchSession)?;
        if obj >= session.objects {
            return Err(EngineError::NoSuchObject {
                object: obj,
                objects: session.objects,
            });
        }
        let (ticket, cell) = Ticket::new();
        let need_submit = {
            let mut pending = session.pending.lock();
            pending.updates.push_back((obj, new_loc, cell));
            if pending.scheduled {
                false
            } else {
                pending.scheduled = true;
                true
            }
        };
        if need_submit {
            // Submit OUTSIDE the pending lock: a full queue blocks here,
            // and the drain job needs that lock to make progress.
            let shared = Arc::clone(&self.shared);
            let job_session = Arc::clone(&session);
            let submitted = self.pool.submit(Box::new(move |state: &mut WorkerState| {
                drain_session(&shared, job_session, &mut state.scratch)
            }));
            if submitted.is_err() {
                session.pending.lock().scheduled = false;
                return Err(EngineError::Closed);
            }
        }
        Ok(ticket)
    }

    /// The session's current skyline (updates still queued are not yet
    /// reflected), or `None` for an unknown id.
    pub fn session_skyline(&self, id: SessionId) -> Option<Vec<u32>> {
        let session = self.shared.sessions.lock().get(&id.0).cloned()?;
        let homed = session.sky.lock();
        Some(homed.sky.skyline())
    }

    /// Closes a session. Already-queued updates still apply (their
    /// handles resolve); the id stops resolving immediately.
    ///
    /// The session's hold on its generation's Voronoi index is released
    /// here when no update is in flight: a drain job gives up its own
    /// hold on the session *before* it resolves the last handle of the
    /// drain, so once every [`UpdateHandle`] obtained so far has
    /// resolved, this call drops the last reference.
    pub fn close_session(&self, id: SessionId) -> bool {
        self.shared.sessions.lock().remove(&id.0).is_some()
    }

    /// Number of open sessions.
    pub fn open_sessions(&self) -> usize {
        self.shared.sessions.lock().len()
    }

    /// Drains every queued delta batch and joins the ingestor, then
    /// drains every queued job and joins the workers.
    ///
    /// Every handle obtained before this call resolves; dropping the
    /// engine performs the same drain.
    pub fn shutdown(self) {
        let Engine { ingest, pool, .. } = self;
        if let Some(ingest) = ingest.into_inner() {
            ingest.shutdown();
        }
        pool.shutdown();
    }
}

fn assert_non_empty(requests: &[QueryRequest]) {
    for r in requests {
        assert!(
            !r.query.is_empty(),
            "a spatial skyline query needs at least one query point"
        );
    }
}

/// The diagram's knobs when `request` probes it: the diagram is on and
/// the request is not forced. Forced requests (per-request or
/// engine-wide) neither probe nor admit: pinning an algorithm means that
/// algorithm must actually run.
fn probe_config(shared: &EngineShared, request: &QueryRequest) -> Option<DiagramConfig> {
    let forced = request.force.is_some() || shared.planner.forced().is_some();
    shared.diagram_config.filter(|_| !forced)
}

/// Answers one request on the calling worker: diagram probe (unless the
/// submitter already `probed` and missed), else context from the shared
/// cache (probed and counted once), then plan, run the chosen algorithm
/// through the worker's scratch arena and record metrics; the diagram
/// may then [`admit`] the exact answer.
fn answer(
    shared: &Arc<EngineShared>,
    snapshot: &Arc<Snapshot>,
    request: &QueryRequest,
    probed: bool,
    state: &mut WorkerState,
) -> QueryResponse {
    let start = Instant::now();
    let mut key = None;
    if let Some(config) = probe_config(shared, request) {
        // Canonicalized here, outside the diagram lock; the key stays in
        // the worker's scratch for the admission after a miss.
        key = config.key_cells(&request.query, shared.cache.quantum(), &mut state.diagram);
        if !probed {
            if let Some(response) = try_diagram(shared, snapshot, request, key, start) {
                return response;
            }
            shared.metrics.record_diagram_miss();
        }
    }
    let generation = snapshot.generation();
    let (ctx, cache_hit) = shared.cache.get_or_build(generation, &request.query);
    shared.metrics.record_cache(cache_hit);
    let (algorithm, SkylineResult { skyline, stats }) =
        run_kernel(shared, snapshot, request.force, &ctx, &mut state.scratch);
    let latency = start.elapsed();
    shared
        .metrics
        .record_query(algorithm, generation, latency, &stats);
    if let Some(cells) = key {
        admit(shared, generation, cells, &skyline);
    }
    QueryResponse {
        skyline,
        generation,
        algorithm,
        served_by: if cache_hit {
            ServedBy::Cache
        } else {
            ServedBy::Planner
        },
        latency,
        stats,
    }
}

/// Tries to answer `request` straight from the skyline diagram: the
/// pinned snapshot's Voronoi index for one anchor, else the key cell of
/// `key` (the request's canonical key, `None` for a shape the diagram
/// holds no cells for). `None` is a miss and falls through to the cache +
/// planner path. The key-cell probe takes `engine.diagram` once.
fn try_diagram(
    shared: &EngineShared,
    snapshot: &Snapshot,
    request: &QueryRequest,
    key: Option<&[(i64, i64)]>,
    start: Instant,
) -> Option<QueryResponse> {
    let generation = snapshot.generation();
    let skyline = match request.query[..] {
        // One anchor: the skyline diagram is the Voronoi diagram the
        // pinned snapshot stores, so every such query hits, on every
        // generation.
        [q] => {
            let mut ties = Vec::new();
            snapshot.voronoi().nearest_ties(q, &mut ties);
            ties
        }
        // A key cell answers only for the generation it holds: one left
        // by an earlier generation, or refreshed by a later one than the
        // worker pinned, is a miss, never a wrong answer.
        _ => shared.diagram.lock().lookup(generation, key?)?.to_vec(),
    };
    let latency = start.elapsed();
    shared.metrics.record_diagram_hit(generation, latency);
    Some(QueryResponse {
        skyline,
        generation,
        algorithm: shared
            .planner
            .choose_for_anchors(snapshot.len(), request.query.len()),
        served_by: ServedBy::Diagram,
        latency,
        stats: QueryStats::default(),
    })
}

/// Offers `skyline`, the exact answer of the key `cells` under snapshot
/// `generation`, to the diagram (see [`SkylineDiagram::admit`] for the
/// rule) — the one admission path of a miss's answer and a warm start's.
/// Returns whether it was stored.
fn admit(shared: &EngineShared, generation: u64, cells: &[(i64, i64)], skyline: &[u32]) -> bool {
    let (admitted, held) = {
        let mut diagram = shared.diagram.lock();
        let admitted = diagram.admit(generation, cells, skyline);
        (admitted, diagram.key_cell_count())
    };
    if admitted {
        shared.metrics.record_diagram_cells(held);
    }
    admitted
}

/// Runs every request of a batch on the calling worker against one pinned
/// snapshot, each answered as a single submission is.
fn run_batch(
    shared: &Arc<EngineShared>,
    snapshot: &Arc<Snapshot>,
    requests: &[QueryRequest],
    state: &mut WorkerState,
) -> Vec<QueryResponse> {
    requests
        .iter()
        .map(|request| answer(shared, snapshot, request, false, state))
        .collect()
}

/// Plans `ctx` (unless `force` pins the algorithm) and runs the chosen
/// kernel on `snapshot` through `scratch`.
fn run_kernel(
    shared: &EngineShared,
    snapshot: &Snapshot,
    force: Option<Algorithm>,
    ctx: &QueryContext,
    scratch: &mut DistanceScratch,
) -> (Algorithm, SkylineResult) {
    let algorithm = force.unwrap_or_else(|| shared.planner.choose(snapshot.len(), ctx));
    let result = match algorithm {
        Algorithm::Naive => naive_sorted_kernel(snapshot.points(), ctx, scratch),
        Algorithm::Bbs => bbs(snapshot.rtree(), ctx),
        Algorithm::B2s2 => b2s2_kernel(snapshot.rtree(), ctx, scratch),
        Algorithm::Vs2 => vs2_kernel(snapshot.voronoi(), ctx, scratch),
    };
    (algorithm, result)
}

/// Applies every pending update of one session, in FIFO order, on the
/// worker's arena `scratch`. At most one drain job per session exists at
/// a time (see `Pending::scheduled`), which is what serializes a
/// session's updates without blocking a worker on a session-wide lock.
///
/// The job owns its `Arc<Session>` and drops it before filling the last
/// cell of the drain: a caller that has seen every handle resolve can
/// rely on the worker holding no reference to the session (or to any
/// generation) any more, so `close_session` then releases the session's
/// index deterministically.
fn drain_session(shared: &EngineShared, session: Arc<Session>, scratch: &mut DistanceScratch) {
    // Pops the next update, or clears the in-flight flag when none is
    // left (under the same lock, so a concurrent `update_session`
    // either sees its update popped here or schedules a fresh drain).
    let pop = |session: &Session| {
        let mut pending = session.pending.lock();
        let next = pending.updates.pop_front();
        if next.is_none() {
            pending.scheduled = false;
        }
        next
    };
    let mut next = pop(&session);
    while let Some((obj, new_loc, cell)) = next {
        // Follow the data: read the catalog (rank 200) before taking
        // the session's skyline (rank 460). Re-homing comes first because
        // a free pass — a no-op or Pattern-I move — is only valid within
        // one generation. The job's hold on the snapshot ends with the
        // block, before any cell is filled.
        let update = {
            let snapshot = shared.catalog.current();
            let mut homed = session.sky.lock();
            let mut stats = QueryStats::default();
            if snapshot.generation() > homed.generation {
                stats = homed.sky.rehome_in(scratch, Arc::clone(snapshot.voronoi()));
                homed.generation = snapshot.generation();
            }
            let (outcome, moved) = homed.sky.update_in(scratch, obj, new_loc);
            stats.absorb(&moved);
            SessionUpdate {
                outcome,
                skyline: homed.sky.skyline(),
                generation: homed.generation,
                stats,
            }
        };
        shared.metrics.record_session_update(&update.stats);
        next = pop(&session);
        if next.is_none() {
            drop(session);
            cell.fill(update);
            return;
        }
        cell.fill(update);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssq_core::{naive_full, QueryContext};

    fn grid(n: usize) -> Vec<Point> {
        // Irregular but duplicate-free.
        (0..n)
            .map(|i| {
                Point::new(
                    (i % 17) as f64 + 1e-4 * i as f64,
                    (i / 17) as f64 + 3e-5 * i as f64,
                )
            })
            .collect()
    }

    #[test]
    fn engine_matches_the_naive_oracle() {
        let data = grid(300);
        let engine = Engine::new(&data, EngineConfig::default().with_workers(2)).unwrap();
        let q = vec![
            Point::new(3.0, 4.0),
            Point::new(9.0, 2.0),
            Point::new(6.0, 10.0),
        ];
        let want = naive_full(&data, &QueryContext::new(&q)).skyline;
        let got = engine.submit(QueryRequest::new(q)).wait();
        assert_eq!(got.skyline, want);
        assert_eq!(got.algorithm, Algorithm::Vs2, "300 points, proper hull");
        assert!(!got.cache_hit());
    }

    #[test]
    fn forced_algorithms_all_agree() {
        let data = grid(150);
        let engine = Engine::new(&data, EngineConfig::default().with_workers(2)).unwrap();
        let q = vec![
            Point::new(2.0, 2.0),
            Point::new(11.0, 3.0),
            Point::new(7.0, 7.0),
        ];
        let responses: Vec<QueryResponse> = engine
            .submit_batch(
                Algorithm::ALL
                    .iter()
                    .map(|&a| QueryRequest::forced(q.clone(), a))
                    .collect(),
            )
            .wait();
        for r in &responses {
            assert_eq!(r.skyline, responses[0].skyline, "{} disagrees", r.algorithm);
        }
        let m = engine.metrics();
        for a in Algorithm::ALL {
            assert_eq!(m.engine.requests_for(a), 1);
        }
    }

    #[test]
    fn batch_answers_match_individual_submission() {
        let data = grid(250);
        let engine = Engine::new(&data, EngineConfig::default().with_workers(2)).unwrap();
        let queries: Vec<Vec<Point>> = (0..6)
            .map(|i| {
                vec![
                    Point::new(2.0 + i as f64 * 0.3, 3.0),
                    Point::new(9.0, 2.0 + i as f64 * 0.2),
                    Point::new(5.0, 9.0),
                ]
            })
            .collect();
        let batch = engine
            .submit_batch(queries.iter().cloned().map(QueryRequest::new).collect())
            .wait();
        assert_eq!(batch.len(), queries.len());
        for (q, r) in queries.iter().zip(&batch) {
            let want = naive_full(&data, &QueryContext::new(q)).skyline;
            assert_eq!(r.skyline, want);
            assert_eq!(r.generation, 0);
        }
    }

    #[test]
    fn a_batch_of_identical_queries_hits_the_shared_cache() {
        // A batch holds no context of its own: the first request builds
        // the context in the shared cache, and each repeat probes it.
        let data = grid(120);
        let engine = Engine::new(&data, EngineConfig::default().with_workers(1)).unwrap();
        let q = vec![
            Point::new(2.0, 2.0),
            Point::new(6.0, 3.0),
            Point::new(4.0, 6.0),
        ];
        let responses = engine
            .submit_batch(vec![QueryRequest::new(q.clone()); 5])
            .wait();
        assert_eq!(responses.len(), 5);
        assert!(responses.iter().all(|r| r.skyline == responses[0].skyline));
        assert!(
            !responses[0].cache_hit(),
            "cold cache: the first one misses"
        );
        assert!(responses[1..].iter().all(|r| r.cache_hit()));
        let m = engine.metrics();
        assert_eq!(
            m.engine.cache_misses, 1,
            "one build for five identical queries"
        );
        assert_eq!(
            m.engine.cache_hits, 4,
            "every repeat probes the shared cache"
        );
    }

    #[test]
    fn empty_batch_resolves_immediately() {
        let engine = Engine::new(&grid(30), EngineConfig::default().with_workers(1)).unwrap();
        let ticket = engine.submit_batch(Vec::new());
        assert!(ticket.is_ready());
        assert!(ticket.wait().is_empty());
    }

    #[test]
    fn submit_batch_on_answers_against_the_pinned_snapshot() {
        let old_data = grid(130);
        let engine = Engine::new(&old_data, EngineConfig::default().with_workers(2)).unwrap();
        let pinned = engine.snapshot();
        engine.reindex(&grid(260)).unwrap();
        let q = vec![
            Point::new(4.0, 2.0),
            Point::new(10.0, 5.0),
            Point::new(6.0, 9.0),
        ];
        let requests = vec![QueryRequest::new(q.clone()); 2];
        let mut state = WorkerState::default();
        let pooled = engine
            .submit_batch_on(requests.clone(), Arc::clone(&pinned))
            .wait();
        let on_caller = engine.run_batch_on(&requests, &pinned, &mut state);
        let want = naive_full(&old_data, &QueryContext::new(&q)).skyline;
        for r in pooled.iter().chain(&on_caller) {
            assert_eq!(r.generation, 0, "caller pin beats the catalog");
            assert_eq!(r.skyline, want);
        }
    }

    #[test]
    fn repeated_queries_hit_the_cache() {
        let data = grid(100);
        let engine = Engine::new(&data, EngineConfig::default().with_workers(1)).unwrap();
        let q = vec![
            Point::new(1.0, 1.0),
            Point::new(5.0, 4.0),
            Point::new(2.0, 5.0),
        ];
        engine.submit(QueryRequest::new(q.clone())).wait();
        let second = engine.submit(QueryRequest::new(q)).wait();
        assert!(second.cache_hit());
        let m = engine.metrics();
        assert_eq!(m.engine.cache_hits, 1);
        assert_eq!(m.engine.cache_misses, 1);
        assert!((m.engine.cache_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_dataset_is_rejected() {
        assert_eq!(
            Engine::new(&[], EngineConfig::default()).unwrap_err(),
            EngineError::EmptyDataset
        );
    }

    #[test]
    fn zero_workers_are_rejected() {
        assert_eq!(
            Engine::new(&grid(10), EngineConfig::default().with_workers(0)).unwrap_err(),
            EngineError::ZeroWorkers
        );
    }

    #[test]
    fn zero_queue_capacity_is_rejected() {
        let config = EngineConfig {
            queue_capacity: 0,
            ..EngineConfig::default()
        };
        assert_eq!(
            Engine::new(&grid(10), config).unwrap_err(),
            EngineError::ZeroQueueCapacity
        );
    }

    #[test]
    fn apply_delta_publishes_the_next_generation() {
        let data = grid(300);
        let engine = Engine::new(&data, EngineConfig::default().with_workers(2)).unwrap();
        let batch = UpdateBatch {
            inserts: (0..10)
                .map(|i| Point::new(0.41 + 0.013 * i as f64, 0.37))
                .collect(),
            deletes: (0..10).map(|i| i * 7).collect(),
        };
        let report = engine.apply_delta(&batch).unwrap();
        assert_eq!(report.generation, 1);
        assert_eq!(report.stats.inserts, 10);
        assert_eq!(report.stats.deletes, 10);
        assert!(report.stats.incremental, "20 ops on 300 points is a delta");
        assert_eq!(engine.generation(), 1);
        assert_eq!(engine.data_len(), 300);

        // Queries answer against the delta-built generation, exactly.
        let next = engine.snapshot();
        let q = vec![
            Point::new(3.0, 4.0),
            Point::new(9.0, 2.0),
            Point::new(6.0, 10.0),
        ];
        let want = naive_full(next.points(), &QueryContext::new(&q)).skyline;
        let got = engine.submit(QueryRequest::new(q)).wait();
        assert_eq!(got.generation, 1);
        assert_eq!(got.skyline, want);

        let m = engine.metrics();
        assert_eq!(m.ingest.batches, 1);
        assert_eq!(m.ingest.incremental, 1);
        assert_eq!(m.lifecycle.swaps, 1);
        assert_eq!(m.lifecycle.generation, 1);
    }

    #[test]
    fn apply_delta_rejects_invalid_batches_without_publishing() {
        let engine = Engine::new(&grid(50), EngineConfig::default().with_workers(1)).unwrap();
        let batch = UpdateBatch {
            inserts: vec![],
            deletes: vec![50],
        };
        assert!(matches!(
            engine.apply_delta(&batch).unwrap_err(),
            EngineError::Index(_)
        ));
        assert_eq!(engine.generation(), 0);
        assert_eq!(engine.metrics().ingest.batches, 0);
    }

    #[test]
    fn ingest_applies_batches_in_submission_order() {
        let data = grid(200);
        let engine = Engine::new(&data, EngineConfig::default().with_workers(1)).unwrap();
        let handles: Vec<IngestHandle> = (0..3)
            .map(|round| {
                engine
                    .ingest(UpdateBatch {
                        inserts: vec![Point::new(0.21 + 0.017 * round as f64, 0.52)],
                        deletes: vec![round],
                    })
                    .unwrap()
            })
            .collect();
        for (round, handle) in handles.into_iter().enumerate() {
            let report = handle.wait().unwrap();
            assert_eq!(report.generation, round as u64 + 1);
        }
        assert_eq!(engine.generation(), 3);
        assert_eq!(engine.data_len(), 200);
        let m = engine.metrics();
        assert_eq!(m.ingest.batches, 3);
        assert_eq!(m.ingest.inserts, 3);
        assert_eq!(m.ingest.deletes, 3);
        assert_eq!(m.ingest.last_batch_ops, 2);
    }

    #[test]
    fn try_ingest_sheds_when_the_queue_is_full() {
        let data = grid(120);
        let engine = Engine::new(
            &data,
            EngineConfig::default()
                .with_workers(1)
                .with_ingest_capacity(1),
        )
        .unwrap();
        let one = |round: u32| UpdateBatch {
            inserts: vec![Point::new(0.3 + 0.011 * round as f64, 0.66)],
            deletes: vec![],
        };
        // Park the ingestor: it pops the first batch, then blocks on the
        // reindex lock we hold. The blocking `ingest` of the second batch
        // only returns once the first was popped and the 1-slot queue has
        // space — so after it, the queue deterministically holds exactly
        // the second batch and the third must shed with the typed signal.
        let guard = engine.shared.reindex_lock.lock();
        let first = engine.ingest(one(0)).unwrap();
        let second = engine.ingest(one(1)).unwrap();
        match engine.try_ingest(one(2)) {
            Err(e) => assert_eq!(e, EngineError::QueueFull),
            Ok(_) => panic!("full ingest queue accepted a batch"),
        }
        drop(guard);
        assert_eq!(first.wait().unwrap().generation, 1);
        assert_eq!(second.wait().unwrap().generation, 2);
        assert_eq!(engine.metrics().engine.ingest_shed, 1);
    }

    #[test]
    fn a_rejected_ingest_batch_does_not_stop_the_queue() {
        let engine = Engine::new(&grid(80), EngineConfig::default().with_workers(1)).unwrap();
        let bad = engine
            .ingest(UpdateBatch {
                inserts: vec![],
                deletes: vec![9999],
            })
            .unwrap();
        let good = engine
            .ingest(UpdateBatch {
                inserts: vec![Point::new(0.77, 0.18)],
                deletes: vec![],
            })
            .unwrap();
        assert!(matches!(bad.wait(), Err(EngineError::Index(_))));
        assert_eq!(good.wait().unwrap().generation, 1);
        assert_eq!(engine.data_len(), 81);
    }

    #[test]
    fn pool_threads_are_named_by_role() {
        let engine = Engine::new(&grid(40), EngineConfig::default().with_workers(2)).unwrap();
        let name_of = |pool: &WorkerPool| {
            let (ticket, filler) = Ticket::pair();
            pool.submit(Box::new(move |_: &mut WorkerState| {
                filler.fill(std::thread::current().name().map(String::from));
            }))
            .unwrap();
            ticket.wait().unwrap()
        };
        let worker = name_of(&engine.pool);
        assert!(
            ["ssq-worker-0", "ssq-worker-1"].contains(&worker.as_str()),
            "{worker}"
        );
        assert_eq!(name_of(engine.ingestor().unwrap()), "ssq-ingest");
    }

    #[test]
    fn a_panicking_publish_resolves_its_handle_and_the_ingestor_keeps_serving() {
        let data = grid(120);
        let engine = Engine::new(&data, EngineConfig::default().with_workers(1)).unwrap();
        // Finite, so `validate` passes; the cell repair's orientation
        // assertions fire on it in a debug build, while a release build
        // publishes it.
        let hostile = engine
            .ingest(UpdateBatch {
                inserts: vec![Point::new(f64::MAX, f64::MAX)],
                deletes: vec![],
            })
            .unwrap();
        let published = match hostile.wait_timeout(Duration::from_secs(5)) {
            Ok(Ok(report)) => report.generation,
            Ok(Err(e)) => {
                assert!(matches!(e, EngineError::Index(_)), "{e:?}");
                0
            }
            Err(_) => panic!("the hostile batch's handle never resolved"),
        };
        assert_eq!(engine.generation(), published);
        let mut mirror = engine.snapshot().points().to_vec();
        let batch = UpdateBatch {
            inserts: vec![Point::new(0.43, 0.61)],
            deletes: if published == 1 {
                vec![data.len() as u32]
            } else {
                vec![7]
            },
        };
        let universe = engine.snapshot().universe();
        let next = engine.ingest(batch.clone()).unwrap();
        let report = match next.wait_timeout(Duration::from_secs(5)) {
            Ok(report) => report.unwrap(),
            Err(_) => panic!("the ingestor stopped after the hostile batch"),
        };
        assert_eq!(report.generation, published + 1);
        apply_to_mirror(&mut mirror, &batch, &universe);
        assert_eq!(engine.snapshot().points(), &mirror[..]);
        let q = vec![Point::new(3.0, 4.0), Point::new(9.0, 2.0)];
        let got = engine.submit(QueryRequest::new(q.clone())).wait();
        assert_eq!(got.generation, published + 1);
        assert_eq!(
            got.skyline,
            naive_full(&mirror, &QueryContext::new(&q)).skyline
        );
        engine.shutdown();
    }

    #[test]
    fn a_surviving_id_keeps_its_point_across_a_hundred_ingests() {
        let engine = Engine::new(&grid(200), EngineConfig::default().with_workers(1)).unwrap();
        for round in 0..100u32 {
            let before = engine.snapshot();
            let k = 1 + round as usize % 3;
            let batch = UpdateBatch {
                inserts: (0..k)
                    .map(|j| Point::new(0.37 + 0.0031 * round as f64, 0.29 + 0.07 * j as f64))
                    .collect(),
                deletes: (0..k as u32).map(|j| (round * 41 + j * 67) % 200).collect(),
            };
            engine.ingest(batch.clone()).unwrap().wait().unwrap();
            let after = engine.snapshot();
            assert_eq!(after.len(), before.len());
            for (id, (was, now)) in before.points().iter().zip(after.points()).enumerate() {
                if !batch.deletes.contains(&(id as u32)) {
                    assert_eq!(was, now, "round {round}: id {id} lost its point");
                }
            }
            let mut refilled: Vec<Point> = batch
                .deletes
                .iter()
                .map(|&d| after.points()[d as usize])
                .collect();
            let mut inserted = batch.inserts.clone();
            refilled.sort_by(|a, b| a.x.total_cmp(&b.x).then(a.y.total_cmp(&b.y)));
            inserted.sort_by(|a, b| a.x.total_cmp(&b.x).then(a.y.total_cmp(&b.y)));
            assert_eq!(
                refilled, inserted,
                "round {round}: inserts refill the deleted ids"
            );
        }
        engine.shutdown();
    }

    #[test]
    fn shutdown_drains_pending_ingest_batches() {
        let engine = Engine::new(&grid(150), EngineConfig::default().with_workers(1)).unwrap();
        let handles: Vec<IngestHandle> = (0..5)
            .map(|round| {
                engine
                    .ingest(UpdateBatch {
                        inserts: vec![Point::new(0.111 + 0.013 * round as f64, 0.84)],
                        deletes: vec![],
                    })
                    .unwrap()
            })
            .collect();
        engine.shutdown();
        for (round, handle) in handles.into_iter().enumerate() {
            assert_eq!(handle.wait().unwrap().generation, round as u64 + 1);
        }
    }

    /// Applies `batch` to `mirror` with the exact ids of
    /// `Snapshot::apply_delta`: normalized inserts refill the deleted ids
    /// in order, the rest append, and surplus holes close by
    /// `swap_remove` from the top.
    fn apply_to_mirror(mirror: &mut Vec<Point>, batch: &UpdateBatch, universe: &ssq_geom::Rect) {
        let mut norm = batch.clone();
        norm.normalize(universe);
        let mut inserts = norm.inserts.iter().copied();
        let mut holes = Vec::new();
        for &d in &norm.deletes {
            match inserts.next() {
                Some(p) => mirror[d as usize] = p,
                None => holes.push(d),
            }
        }
        mirror.extend(inserts);
        for &h in holes.iter().rev() {
            mirror.swap_remove(h as usize);
        }
    }

    /// The Voronoi side of `snapshot` names `mirror`'s points by
    /// `mirror`'s ids: its site ↔ id maps are inverse on the live sites
    /// (every other site a tombstone) and `point(id)` is `mirror[id]`,
    /// however many deltas composed them.
    fn assert_voronoi_ids(snapshot: &Snapshot, mirror: &[Point]) {
        let voronoi = snapshot.voronoi();
        assert_eq!(voronoi.len(), mirror.len());
        for (id, &p) in (0u32..).zip(mirror) {
            assert_eq!(voronoi.id_of(voronoi.site_of(id)), id);
            assert_eq!(voronoi.point(id), p, "point {id}");
        }
        for site in 0..voronoi.site_bound() as u32 {
            let id = voronoi.id_of(site);
            assert!(id == u32::MAX || voronoi.site_of(id) == site, "site {site}");
        }
    }

    /// `snapshot`'s Voronoi `nearest(q, 0)` sits at the brute-force
    /// minimum distance over `mirror` for every probe.
    fn assert_nearest_exact(snapshot: &Snapshot, mirror: &[Point], probes: &[Point]) {
        let voronoi = snapshot.voronoi();
        for &q in probes {
            let best = mirror
                .iter()
                .map(|p| p.distance_sq(q))
                .fold(f64::INFINITY, f64::min);
            let got = voronoi.point(voronoi.nearest(q, 0)).distance_sq(q);
            assert_eq!(got, best, "nearest to {q:?} at {snapshot:?}");
        }
    }

    #[test]
    fn a_hundred_delta_generations_keep_cached_contexts_exact() {
        // Each publish retires a generation whose query contexts may
        // still sit in the context cache under (generation, key); the
        // cache must never serve a retired generation's context for a
        // fresh one. 110 generations, every answer checked against a
        // naive oracle over a mirrored point set. Most are one in, one
        // out; every tenth round from the 3rd deletes three and inserts
        // one (the top ids move into the holes), every tenth from the
        // 7th deletes one and inserts three. Round 55 swaps 12 points out
        // and in, past 1/8 of the index on its own;
        // the chain also crosses the full-rebuild fallback whenever the
        // tombstones plus appended sites since the last full build would
        // pass 1/8, and which rounds those are is re-derived from that
        // rule. After every generation the Voronoi side's `nearest` is
        // exact at fixed probes, at every deleted point so far and at the
        // inserts.
        let mut mirror = grid(150);
        let engine = Engine::new(&mirror, EngineConfig::default().with_workers(1)).unwrap();
        let q = vec![Point::new(3.0, 4.0), Point::new(9.0, 2.0)];
        let mut probes = vec![
            Point::new(5.5, 5.5),
            Point::new(-40.0, 3.0),
            Point::new(0.06, 7.31),
        ];
        engine.submit(QueryRequest::new(q.clone())).wait();
        let (mut decay, mut rebuilds) = (0, 0);
        for round in 0..110u64 {
            let (dels, ins) = match round {
                55 => (12, 12),
                r if r % 10 == 3 => (3, 1),
                r if r % 10 == 7 => (1, 3),
                _ => (1, 1),
            };
            let rebuild = (decay + dels + ins) * 8 > mirror.len();
            decay = if rebuild { 0 } else { decay + dels + ins };
            rebuilds += usize::from(rebuild);
            let batch = UpdateBatch {
                inserts: (0..ins)
                    .map(|k| {
                        Point::new(
                            0.05 + 0.002 * round as f64 + 0.3 * k as f64,
                            7.3 + 1e-3 * round as f64,
                        )
                    })
                    .collect(),
                deletes: (0..dels)
                    .map(|k| ((round as usize * 37 + k * 11) % mirror.len()) as u32)
                    .collect(),
            };
            probes.extend(batch.deletes.iter().map(|&d| mirror[d as usize]));
            let universe = engine.snapshot().universe();
            let report = engine.apply_delta(&batch).unwrap();
            assert_eq!(report.generation, round + 1);
            assert_eq!(report.stats.incremental, !rebuild, "round {round}");
            apply_to_mirror(&mut mirror, &batch, &universe);
            assert_voronoi_ids(&engine.snapshot(), &mirror);
            assert_nearest_exact(&engine.snapshot(), &mirror, &probes);
            assert_nearest_exact(&engine.snapshot(), &mirror, &batch.inserts);
            let r = engine.submit(QueryRequest::new(q.clone())).wait();
            assert_eq!(r.generation, round + 1);
            assert_eq!(
                r.skyline,
                naive_full(&mirror, &QueryContext::new(&q)).skyline,
                "generation {} answered from a stale context",
                round + 1
            );
            // The repeat must come from this generation's cache entry
            // and still be exact.
            let again = engine.submit(QueryRequest::new(q.clone())).wait();
            assert_eq!(again.skyline, r.skyline);
        }
        assert!(rebuilds > 1 && rebuilds < 55, "{rebuilds} rebuilds");
        let m = engine.metrics();
        assert_eq!(m.lifecycle.generation, 110);
        assert_eq!(m.ingest.batches, 110);
        assert!(
            m.engine.cache_hits > 0,
            "repeats should hit the context cache"
        );
        engine.shutdown();
    }

    #[test]
    fn sessions_follow_a_hundred_delta_publishes() {
        // A publish before every move: each update must be answered at
        // the generation just published, exactly. The moved object cycles
        // through three hull vertices and one interior point, so re-homing
        // precedes free passes as well as reruns.
        let mut mirror = grid(150);
        let engine = Engine::new(&mirror, EngineConfig::default().with_workers(1)).unwrap();
        let mut q = vec![
            Point::new(3.0, 3.0),
            Point::new(9.0, 4.0),
            Point::new(6.0, 8.0),
            Point::new(6.0, 5.0),
        ];
        let id = engine.open_session(&q);
        let mut skyline = engine.session_skyline(id).unwrap();
        // The Voronoi side's `nearest` must stay exact at fixed probes and
        // at every point deleted so far.
        let mut probes = vec![Point::new(6.2, 5.4), Point::new(20.0, -9.0)];
        for round in 0..100u64 {
            // One in, one out. Every fifth batch deletes a current member;
            // every seventh lands its insert inside CH(Q), which makes it
            // a member (Theorem 1).
            let lands_a_member = round % 7 == 0;
            let batch = UpdateBatch {
                inserts: vec![if lands_a_member {
                    Point::new(6.1 + 0.003 * round as f64, 5.3 + 0.001 * round as f64)
                } else {
                    Point::new(0.31 + 0.0021 * round as f64, 8.6)
                }],
                deletes: vec![if round % 5 == 0 {
                    skyline[round as usize % skyline.len()]
                } else {
                    ((round * 37) % 150) as u32
                }],
            };
            probes.extend(batch.deletes.iter().map(|&d| mirror[d as usize]));
            let universe = engine.snapshot().universe();
            engine.apply_delta(&batch).unwrap();
            apply_to_mirror(&mut mirror, &batch, &universe);
            assert_nearest_exact(&engine.snapshot(), &mirror, &probes);
            assert_nearest_exact(&engine.snapshot(), &mirror, &batch.inserts);

            let obj = round as usize % q.len();
            q[obj] = Point::new(
                q[obj].x + 0.05 * ((round % 3) as f64 - 1.0),
                q[obj].y + 0.03 * ((round % 5) as f64 - 2.0),
            );
            let update = engine.update_session(id, obj, q[obj]).unwrap().wait();
            assert_eq!(update.generation, round + 1);
            assert_eq!(update.generation, engine.generation());
            assert_eq!(
                update.skyline,
                naive_full(&mirror, &QueryContext::new(&q)).skyline,
                "generation {} (outcome {:?})",
                round + 1,
                update.outcome
            );
            if lands_a_member {
                // One in, one out: the insert took the deleted id.
                assert!(update.skyline.contains(&batch.deletes[0]));
            }
            skyline = update.skyline;
        }
        assert_eq!(engine.session_generation(id), Some(100));
        engine.shutdown();
    }

    #[test]
    fn rapid_delta_publishes_never_let_a_stale_diagram_answer() {
        // A key cell answers only for the generation it holds, so after
        // every delta publish the key's first query misses and refreshes
        // the cell. Whichever path serves, the answer must match the
        // naive oracle for the *current* point set every single
        // generation.
        let mut mirror = grid(150);
        let engine = Engine::new(&mirror, diagram_config()).unwrap();
        let q = vec![Point::new(2.0, 2.0), Point::new(11.0, 3.0)];
        engine.submit(QueryRequest::new(q.clone())).wait();
        let warm = engine.submit(QueryRequest::new(q.clone())).wait();
        assert_eq!(warm.served_by, ServedBy::Diagram);
        for round in 0..100u64 {
            let batch = UpdateBatch {
                inserts: vec![Point::new(
                    0.07 + 0.0019 * round as f64,
                    9.2 + 1e-3 * round as f64,
                )],
                deletes: vec![((round * 53) % 150) as u32],
            };
            let universe = engine.snapshot().universe();
            engine.apply_delta(&batch).unwrap();
            apply_to_mirror(&mut mirror, &batch, &universe);
            assert_voronoi_ids(&engine.snapshot(), &mirror);
            let r = engine.submit(QueryRequest::new(q.clone())).wait();
            assert_eq!(r.generation, round + 1);
            assert_ne!(r.served_by, ServedBy::Diagram);
            assert_eq!(
                r.skyline,
                naive_full(&mirror, &QueryContext::new(&q)).skyline,
                "generation {} served a stale cell's skyline",
                round + 1
            );
        }
        // The final generation's first query refreshed the cell, so the
        // next one is served from the diagram again — and still exactly.
        let settled = engine.submit(QueryRequest::new(q.clone())).wait();
        assert_eq!(settled.served_by, ServedBy::Diagram);
        assert_eq!(
            settled.skyline,
            naive_full(&mirror, &QueryContext::new(&q)).skyline
        );
        engine.shutdown();
    }

    #[test]
    fn zero_ingest_capacity_is_rejected() {
        let config = EngineConfig {
            ingest_capacity: 0,
            ..EngineConfig::default()
        };
        assert_eq!(
            Engine::new(&grid(10), config).unwrap_err(),
            EngineError::ZeroIngestCapacity
        );
    }

    #[test]
    fn zero_cache_capacity_is_rejected() {
        let config = EngineConfig {
            cache_capacity: 0,
            ..EngineConfig::default()
        };
        assert_eq!(
            Engine::new(&grid(10), config).unwrap_err(),
            EngineError::ZeroCacheCapacity
        );
    }

    #[test]
    fn invalid_cache_quantum_is_rejected() {
        for quantum in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let config = EngineConfig {
                cache_quantum: quantum,
                ..EngineConfig::default()
            };
            assert_eq!(
                Engine::new(&grid(10), config).unwrap_err(),
                EngineError::InvalidCacheQuantum,
                "quantum {quantum} accepted"
            );
        }
    }

    #[test]
    fn default_config_validates() {
        assert!(EngineConfig::default().validate().is_ok());
        assert!(EngineConfig::default().workers >= 1);
    }

    #[test]
    fn wait_timeout_returns_the_ticket_and_then_the_value() {
        let (ticket, cell) = Ticket::new();
        let filler = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            cell.fill(42u32);
        });
        // Too short: the ticket comes back unfilled...
        let ticket = match ticket.wait_timeout(Duration::from_millis(1)) {
            Ok(v) => panic!("value {v} arrived before the filler ran"),
            Err(t) => t,
        };
        // ...and the same ticket still delivers once the worker does.
        match ticket.wait_timeout(Duration::from_secs(10)) {
            Ok(v) => assert_eq!(v, 42),
            Err(_) => panic!("filled ticket timed out"),
        }
        filler.join().unwrap();
    }

    #[test]
    fn wait_timeout_bounds_a_wait_behind_a_slow_query() {
        // One worker, and a deliberately slow query parked in front: the
        // victim's handle cannot be ready, so a tiny timeout must hand
        // the ticket back instead of blocking until the queue drains.
        let data = grid(4000);
        let engine = Engine::new(&data, EngineConfig::default().with_workers(1)).unwrap();
        let q = |i: f64| {
            vec![
                Point::new(1.0 + i, 2.0),
                Point::new(8.0, 3.0 + i),
                Point::new(4.0, 9.0),
            ]
        };
        let slow: Vec<QueryHandle> = (0..8)
            .map(|i| engine.submit(QueryRequest::forced(q(i as f64 * 0.01), Algorithm::Bbs)))
            .collect();
        let victim = engine.submit(QueryRequest::new(q(0.5)));
        let victim = match victim.wait_timeout(Duration::from_nanos(1)) {
            Ok(_) => panic!("victim ran before the slow queries ahead of it"),
            Err(t) => t,
        };
        // The recovered ticket still resolves to the correct answer.
        let response = victim.wait();
        let want = naive_full(&data, &QueryContext::new(&q(0.5))).skyline;
        assert_eq!(response.skyline, want);
        drop(slow);
        engine.shutdown();
    }

    #[test]
    fn duplicate_points_surface_the_index_error() {
        let data = vec![Point::new(1.0, 1.0), Point::new(1.0, 1.0)];
        match Engine::new(&data, EngineConfig::default()) {
            Err(EngineError::Index(_)) => {}
            other => panic!("expected an index error, got {other:?}"),
        }
    }

    #[test]
    fn sessions_update_through_the_pool() {
        let data = grid(200);
        let engine = Engine::new(&data, EngineConfig::default().with_workers(2)).unwrap();
        let q = vec![
            Point::new(4.0, 4.0),
            Point::new(10.0, 5.0),
            Point::new(7.0, 9.0),
        ];
        let id = engine.open_session(&q);
        assert_eq!(engine.open_sessions(), 1);

        // Mirror serially.
        let mut mirror_q = q.clone();
        let moves = [
            (0usize, Point::new(4.5, 4.25)),
            (1, Point::new(9.5, 5.5)),
            (0, Point::new(5.0, 4.5)),
            (2, Point::new(7.25, 8.5)),
        ];
        for &(obj, loc) in &moves {
            let update = engine.update_session(id, obj, loc).unwrap().wait();
            mirror_q[obj] = loc;
            let want = naive_full(&data, &QueryContext::new(&mirror_q)).skyline;
            assert_eq!(update.skyline, want, "after moving {obj} to {loc:?}");
        }
        assert_eq!(
            engine.session_skyline(id).unwrap(),
            naive_full(&data, &QueryContext::new(&mirror_q)).skyline
        );
        assert_eq!(engine.metrics().engine.session_updates, moves.len() as u64);
        assert!(engine.close_session(id));
        assert!(engine.session_skyline(id).is_none());
        assert!(matches!(
            engine.update_session(id, 0, Point::new(0.0, 0.0)),
            Err(EngineError::NoSuchSession)
        ));
    }

    #[test]
    fn an_out_of_range_object_is_refused_and_the_session_keeps_serving() {
        let data = grid(200);
        let engine = Engine::new(&data, EngineConfig::default().with_workers(1)).unwrap();
        let mut q = vec![
            Point::new(4.0, 4.0),
            Point::new(10.0, 5.0),
            Point::new(7.0, 9.0),
        ];
        let id = engine.open_session(&q);
        // Refused before it is queued: nothing reaches a worker, so no
        // drain job can die holding the session's queue.
        match engine.update_session(id, 99, Point::new(5.0, 5.0)) {
            Err(e) => assert_eq!(
                e,
                EngineError::NoSuchObject {
                    object: 99,
                    objects: 3
                }
            ),
            Ok(_) => panic!("object 99 of a 3-point session was accepted"),
        }
        // Bounded waits: a wedged session fails the test instead of
        // hanging it.
        q[1] = Point::new(9.5, 5.5);
        let update = engine
            .update_session(id, 1, q[1])
            .unwrap()
            .wait_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("the session stopped serving"));
        assert_eq!(
            update.skyline,
            naive_full(&data, &QueryContext::new(&q)).skyline
        );
        assert_eq!(engine.metrics().engine.session_updates, 1);
    }

    #[test]
    fn shutdown_resolves_every_outstanding_handle() {
        let data = grid(120);
        let engine = Engine::new(&data, EngineConfig::default().with_workers(1)).unwrap();
        let handles: Vec<QueryHandle> = (0..20)
            .map(|i| {
                engine.submit(QueryRequest::new(vec![
                    Point::new(1.0 + i as f64 * 0.1, 2.0),
                    Point::new(6.0, 3.0 + i as f64 * 0.1),
                    Point::new(3.0, 6.0),
                ]))
            })
            .collect();
        engine.shutdown();
        for h in handles {
            assert!(h.is_ready(), "shutdown left a handle unresolved");
            assert!(!h.wait().skyline.is_empty());
        }
    }

    #[test]
    fn reindex_publishes_a_new_generation() {
        let old_data = grid(120);
        let engine = Engine::new(&old_data, EngineConfig::default().with_workers(2)).unwrap();
        assert_eq!(engine.generation(), 0);
        let q = vec![
            Point::new(2.0, 3.0),
            Point::new(8.0, 4.0),
            Point::new(5.0, 8.0),
        ];
        let before = engine.submit(QueryRequest::new(q.clone())).wait();
        assert_eq!(before.generation, 0);
        assert_eq!(
            before.skyline,
            naive_full(&old_data, &QueryContext::new(&q)).skyline
        );

        let new_data = grid(250);
        assert_eq!(engine.reindex(&new_data).unwrap(), 1);
        assert_eq!(engine.generation(), 1);
        assert_eq!(engine.data_len(), 250);
        let after = engine.submit(QueryRequest::new(q.clone())).wait();
        assert_eq!(after.generation, 1);
        assert_eq!(
            after.skyline,
            naive_full(&new_data, &QueryContext::new(&q)).skyline
        );
        let m = engine.metrics();
        assert_eq!(m.lifecycle.generation, 1);
        assert_eq!(m.lifecycle.swaps, 1);
        assert_eq!(m.queries_per_generation.get(&0), Some(&1));
        assert_eq!(m.queries_per_generation.get(&1), Some(&1));
    }

    #[test]
    fn reindex_rejects_bad_datasets_and_keeps_serving() {
        let data = grid(60);
        let engine = Engine::new(&data, EngineConfig::default().with_workers(1)).unwrap();
        assert!(matches!(engine.reindex(&[]), Err(EngineError::Index(_))));
        let dup = vec![Point::new(1.0, 1.0), Point::new(1.0, 1.0)];
        assert!(matches!(engine.reindex(&dup), Err(EngineError::Index(_))));
        assert_eq!(engine.generation(), 0);
        assert_eq!(engine.data_len(), 60, "failed reindex must not swap");
    }

    #[test]
    fn stale_installs_surface_the_typed_error() {
        let engine = Engine::new(&grid(40), EngineConfig::default().with_workers(1)).unwrap();
        engine.reindex(&grid(50)).unwrap();
        let stale = Arc::new(Snapshot::build(1, &grid(30)).unwrap());
        assert_eq!(
            engine.install_snapshot(stale, Duration::ZERO).unwrap_err(),
            EngineError::Stale(StaleSnapshot {
                offered: 1,
                current: 1
            })
        );
        assert_eq!(engine.data_len(), 50);
    }

    #[test]
    fn sessions_pin_their_generation_and_learn_of_swaps() {
        // No session holds a generation older than its last update.
        let engine = Engine::new(&grid(150), EngineConfig::default().with_workers(2)).unwrap();
        let mut q = vec![
            Point::new(3.0, 3.0),
            Point::new(9.0, 4.0),
            Point::new(6.0, 8.0),
            Point::new(6.0, 5.0),
        ];
        let id = engine.open_session(&q);
        assert_eq!(engine.session_generation(id), Some(0));
        let generation_0 = Arc::downgrade(engine.snapshot().voronoi());

        // A full reindex onto a differently sized dataset. Idle, the
        // session keeps the index it last answered from.
        let mut data = grid(220);
        engine.reindex(&data).unwrap();
        assert_eq!(engine.session_generation(id), Some(0));
        assert!(generation_0.upgrade().is_some());

        // A move to where the object already is is a free pass only
        // within one generation: after a publish it answers on the new
        // data, and the old index dies with the session still open.
        let update = engine.update_session(id, 0, q[0]).unwrap().wait();
        assert_eq!(update.outcome, UpdateOutcome::Unchanged);
        assert_eq!(update.generation, 1);
        assert_eq!(
            update.skyline,
            naive_full(&data, &QueryContext::new(&q)).skyline
        );
        assert_eq!(engine.session_generation(id), Some(1));
        assert_eq!(engine.session_skyline(id).unwrap(), update.skyline);
        assert!(
            generation_0.upgrade().is_none(),
            "an open session kept generation 0 alive past its first update on generation 1"
        );

        // The same for a Pattern-I move right after a delta publish that
        // deletes a current member.
        let batch = UpdateBatch {
            inserts: vec![Point::new(5.9, 5.6)],
            deletes: vec![update.skyline[0]],
        };
        let universe = engine.snapshot().universe();
        engine.apply_delta(&batch).unwrap();
        apply_to_mirror(&mut data, &batch, &universe);
        q[3] = Point::new(6.2, 5.1);
        let update = engine.update_session(id, 3, q[3]).unwrap().wait();
        assert_eq!(update.outcome, UpdateOutcome::Unchanged);
        assert_eq!(update.generation, 2);
        assert_eq!(
            update.skyline,
            naive_full(&data, &QueryContext::new(&q)).skyline
        );

        // With no publish in between, the next update stays where it is.
        q[1] = Point::new(8.5, 4.5);
        let update = engine.update_session(id, 1, q[1]).unwrap().wait();
        assert_eq!(update.generation, 2);
        assert_eq!(
            update.skyline,
            naive_full(&data, &QueryContext::new(&q)).skyline
        );
    }

    #[test]
    fn queries_pinned_before_a_swap_stay_exact_for_their_generation() {
        // One worker with a queue full of slow jobs; a reindex lands
        // while the victim query is still queued. Dequeue-time pinning
        // means it must be answered against the NEW generation.
        let old_data = grid(200);
        let new_data = grid(90);
        let engine = Engine::new(&old_data, EngineConfig::default().with_workers(1)).unwrap();
        let q = vec![
            Point::new(2.0, 2.0),
            Point::new(7.0, 3.0),
            Point::new(4.0, 7.0),
        ];
        let slow: Vec<QueryHandle> = (0..4)
            .map(|i| {
                engine.submit(QueryRequest::forced(
                    vec![
                        Point::new(1.0 + i as f64 * 0.01, 2.0),
                        Point::new(8.0, 3.0),
                        Point::new(4.0, 9.0),
                    ],
                    Algorithm::Bbs,
                ))
            })
            .collect();
        engine.reindex(&new_data).unwrap();
        let victim = engine.submit(QueryRequest::new(q.clone())).wait();
        assert_eq!(victim.generation, 1, "dequeued after the swap");
        assert_eq!(
            victim.skyline,
            naive_full(&new_data, &QueryContext::new(&q)).skyline
        );
        for h in slow {
            let r = h.wait();
            let data = if r.generation == 0 {
                &old_data
            } else {
                &new_data
            };
            assert!(!r.skyline.is_empty());
            assert!(r.skyline.iter().all(|&i| (i as usize) < data.len()));
        }
    }

    fn diagram_config() -> EngineConfig {
        EngineConfig::default()
            .with_workers(1)
            .with_diagram(DiagramConfig::default())
    }

    #[test]
    fn diagram_serves_a_hot_query_from_its_second_probe() {
        let data = grid(200);
        let engine = Engine::new(&data, diagram_config()).unwrap();
        let q = vec![Point::new(3.0, 4.0), Point::new(9.0, 2.0)];
        // Cold: the key has no cell yet, so the planner answers and the
        // miss admits that answer.
        let first = engine.submit(QueryRequest::new(q.clone())).wait();
        assert_ne!(first.served_by, ServedBy::Diagram);
        let second = engine.submit(QueryRequest::new(q.clone())).wait();
        assert_eq!(second.served_by, ServedBy::Diagram);
        assert_eq!(second.skyline, first.skyline);
        assert_eq!(second.stats, QueryStats::default());
        let m = engine.metrics();
        assert_eq!((m.diagram.hits, m.diagram.misses), (1, 1));
        assert_eq!(m.diagram.cells, 1);
        // Single-anchor queries are located in the Voronoi index without
        // any per-key materialization.
        let single = engine
            .submit(QueryRequest::new(vec![Point::new(5.0, 5.0)]))
            .wait();
        assert_eq!(single.served_by, ServedBy::Diagram);
        assert_eq!(
            single.skyline,
            naive_full(&data, &QueryContext::new(&[Point::new(5.0, 5.0)])).skyline
        );
        engine.shutdown();
    }

    #[test]
    fn a_cold_key_misses_once_and_its_next_submission_is_answered_at_once() {
        let data = grid(200);
        let engine = Engine::new(&data, diagram_config()).unwrap();
        let q = vec![Point::new(2.5, 6.0), Point::new(10.0, 3.5)];
        let cold = engine.try_submit(QueryRequest::new(q.clone())).unwrap();
        let first = cold.wait();
        assert_ne!(first.served_by, ServedBy::Diagram);
        // Probed once, at submission; the worker does not probe again.
        assert_eq!(engine.metrics().diagram.misses, 1);
        let hot = engine.try_submit(QueryRequest::new(q)).unwrap();
        assert!(hot.is_ready(), "a hit is answered by the submitting thread");
        let second = hot.wait();
        assert_eq!(second.served_by, ServedBy::Diagram);
        assert_eq!(second.skyline, first.skyline);
        let m = engine.metrics();
        assert_eq!((m.diagram.hits, m.diagram.misses), (1, 1));
        engine.shutdown();
    }

    #[test]
    fn a_coordinate_off_the_key_grid_does_not_panic_the_submitting_thread() {
        let data = grid(100);
        let engine = Engine::new(&data, diagram_config()).unwrap();
        let far = vec![Point::new(-1e300, 0.0), Point::new(1e300, 0.0)];
        // The probe counts a miss and queues the job; the worker builds
        // the context uncached, since the set has no cache key, and
        // fills the ticket. (Its answer is not compared with the oracle:
        // at these magnitudes squared distances overflow, ROADMAP item
        // 4(b).)
        let handle = engine.try_submit(QueryRequest::new(far));
        assert_eq!(engine.metrics().diagram.misses, 1);
        let answered = handle.unwrap().wait_timeout(Duration::from_secs(10));
        assert!(
            answered.is_ok(),
            "the off-grid query's ticket was not filled"
        );
        // One anchor that far out is located in the Voronoi index on the
        // submitting thread, which must survive it too.
        let single = engine.try_submit(QueryRequest::new(vec![Point::new(1e300, 0.0)]));
        assert!(single.unwrap().is_ready());
        // The worker keeps serving.
        let q = vec![
            Point::new(3.0, 2.0),
            Point::new(9.0, 4.0),
            Point::new(5.0, 6.0),
        ];
        let r = engine.submit(QueryRequest::new(q.clone())).wait();
        assert_eq!(r.skyline, naive_full(&data, &QueryContext::new(&q)).skyline);
        engine.shutdown();
    }

    #[test]
    fn a_single_anchor_query_after_a_publish_hits_with_the_new_answer() {
        // One-anchor hits need no key cell: right after a delta
        // publishes, the query is located in the new generation's
        // Voronoi index. The first
        // batch inserts the corners of a square; the probes sit on the
        // deleted point, on an insert, at the square's centre (a 4-way
        // tie) and far outside the data.
        let mut mirror = grid(150);
        let engine = Engine::new(&mirror, diagram_config()).unwrap();
        for round in 0..6u64 {
            let inserts = if round == 0 {
                vec![
                    Point::new(30.0, 30.0),
                    Point::new(32.0, 30.0),
                    Point::new(30.0, 32.0),
                    Point::new(32.0, 32.0),
                ]
            } else {
                vec![Point::new(4.3 + 0.1 * round as f64, 20.5)]
            };
            let batch = UpdateBatch {
                inserts,
                deletes: vec![(round * 23 % 150) as u32],
            };
            let gone = mirror[batch.deletes[0] as usize];
            let universe = engine.snapshot().universe();
            let report = engine.apply_delta(&batch).unwrap();
            apply_to_mirror(&mut mirror, &batch, &universe);
            for q in [
                gone,
                batch.inserts[0],
                Point::new(31.0, 31.0),
                Point::new(-300.0, 1e4),
            ] {
                let r = engine.submit(QueryRequest::new(vec![q])).wait();
                assert_eq!(r.served_by, ServedBy::Diagram, "round {round}, {q:?}");
                assert_eq!(r.generation, report.generation);
                assert_eq!(
                    r.skyline,
                    naive_full(&mirror, &QueryContext::new(&[q])).skyline,
                    "round {round}, {q:?}"
                );
            }
        }
        engine.shutdown();
    }

    #[test]
    fn warm_start_materializes_keys_synchronously() {
        let data = grid(150);
        let engine = Engine::new(&data, diagram_config()).unwrap();
        let q = vec![
            Point::new(2.5, 3.5),
            Point::new(8.5, 2.5),
            Point::new(5.5, 7.5),
        ];
        let key = QueryKey::canonical(&q, ContextCache::DEFAULT_QUANTUM);
        assert_eq!(engine.warm_start(&[key]).unwrap(), 1);
        // The very first query of the warmed shape is a diagram hit.
        let r = engine.submit(QueryRequest::new(q.clone())).wait();
        assert_eq!(r.served_by, ServedBy::Diagram);
        assert_eq!(r.skyline, naive_full(&data, &QueryContext::new(&q)).skyline);
        let m = engine.metrics();
        assert_eq!((m.diagram.warmed, m.diagram.cells), (1, 1));
        engine.shutdown();
    }

    #[test]
    fn hot_keys_rank_by_probes_so_hits_count() {
        let data = grid(150);
        let engine = Engine::new(&data, diagram_config()).unwrap();
        let a = vec![Point::new(2.5, 3.5), Point::new(8.5, 2.5)];
        let b = vec![Point::new(1.5, 6.5), Point::new(12.5, 4.5)];
        let key_a = QueryKey::canonical(&a, ContextCache::DEFAULT_QUANTUM);
        engine.warm_start(std::slice::from_ref(&key_a)).unwrap();
        // A hits ten times; B misses once and then hits twice. A key
        // that hits keeps counting, so A stays the hotter one.
        for _ in 0..10 {
            engine.submit(QueryRequest::new(a.clone())).wait();
        }
        for _ in 0..3 {
            engine.submit(QueryRequest::new(b.clone())).wait();
        }
        assert_eq!(engine.hot_keys(1), [key_a]);
        assert_eq!(engine.hot_keys(5).len(), 2);
        engine.shutdown();
    }

    #[test]
    fn a_publish_stream_costs_each_hot_key_one_miss_per_generation() {
        let mut mirror = grid(150);
        let engine = Engine::new(&mirror, diagram_config()).unwrap();
        let shapes: Vec<Vec<Point>> = (0..8)
            .map(|k| {
                let x = 0.5 + 1.6 * k as f64;
                let mut q = vec![
                    Point::new(x, 1.5 + 0.3 * k as f64),
                    Point::new(x + 3.1, 6.2 - 0.4 * k as f64),
                ];
                if k % 2 == 1 {
                    q.push(Point::new(x + 1.2, 8.0));
                }
                q
            })
            .collect();
        let oracle = |points: &[Point], q: &[Point]| naive_full(points, &QueryContext::new(q));
        let mut previous = None;
        for round in 0..=60u64 {
            if round > 0 {
                let batch = UpdateBatch {
                    inserts: vec![Point::new(
                        0.07 + 0.0019 * round as f64,
                        9.2 + 1e-3 * round as f64,
                    )],
                    deletes: vec![((round * 53) % 150) as u32],
                };
                previous = Some((engine.snapshot(), mirror.clone()));
                let universe = engine.snapshot().universe();
                engine.apply_delta(&batch).unwrap();
                apply_to_mirror(&mut mirror, &batch, &universe);
            }
            // Each key's first query of the generation misses and
            // refreshes its cell; the second hits.
            for q in &shapes {
                let want = oracle(&mirror, q).skyline;
                let first = engine.submit(QueryRequest::new(q.clone())).wait();
                let second = engine.submit(QueryRequest::new(q.clone())).wait();
                assert_ne!(first.served_by, ServedBy::Diagram, "round {round}");
                assert_eq!(second.served_by, ServedBy::Diagram, "round {round}");
                assert_eq!((first.generation, second.generation), (round, round));
                assert_eq!(first.skyline, want, "round {round}, {q:?}");
                assert_eq!(second.skyline, want, "round {round}, {q:?}");
            }
        }
        assert_eq!(engine.metrics().diagram.misses, 8 * 61);
        // A caller pinning the previous generation is answered exactly
        // for it, without hitting or overwriting the current cells.
        let (pinned, old_points) = previous.unwrap();
        let requests: Vec<QueryRequest> = shapes.iter().cloned().map(QueryRequest::new).collect();
        let replies = engine.submit_batch_on(requests, pinned).wait();
        for (q, reply) in shapes.iter().zip(&replies) {
            assert_eq!(reply.generation, 59);
            assert_ne!(reply.served_by, ServedBy::Diagram);
            assert_eq!(reply.skyline, oracle(&old_points, q).skyline);
        }
        for q in &shapes {
            let reply = engine.submit(QueryRequest::new(q.clone())).wait();
            assert_eq!(reply.served_by, ServedBy::Diagram);
            assert_eq!(reply.skyline, oracle(&mirror, q).skyline);
        }
        engine.shutdown();
    }

    #[test]
    fn forced_requests_bypass_the_diagram() {
        let data = grid(150);
        let engine = Engine::new(&data, diagram_config()).unwrap();
        let q = vec![Point::new(2.0, 2.0), Point::new(11.0, 3.0)];
        engine.submit(QueryRequest::new(q.clone())).wait();
        let forced = engine
            .submit(QueryRequest::forced(q.clone(), Algorithm::Naive))
            .wait();
        // The context cache may still serve it — but never the diagram.
        assert_ne!(forced.served_by, ServedBy::Diagram);
        assert_eq!(forced.algorithm, Algorithm::Naive);
        // Nor does a forced miss admit its answer: the key's first
        // unforced query still misses.
        let cold = vec![Point::new(4.0, 1.0), Point::new(9.0, 7.0)];
        engine
            .submit(QueryRequest::forced(cold.clone(), Algorithm::Vs2))
            .wait();
        let unforced = engine.submit(QueryRequest::new(cold)).wait();
        assert_ne!(unforced.served_by, ServedBy::Diagram);
        assert_eq!(engine.metrics().diagram.cells, 2);
        engine.shutdown();
    }

    #[test]
    fn the_first_kernel_query_on_a_fresh_worker_allocates_nothing() {
        // Workers pre-size their scratch arenas at spawn (one row per
        // data point, PRESIZE_ANCHOR_WIDTH anchors), so even the very
        // first naive-kernel query — which pushes a row for *every*
        // point — must report zero arena growth events.
        let data = grid(200);
        let engine = Engine::new(&data, EngineConfig::default().with_workers(1)).unwrap();
        let q = vec![Point::new(1.0, 2.0), Point::new(9.0, 4.0)];
        let r = engine
            .submit(QueryRequest::forced(q, Algorithm::Naive))
            .wait();
        assert_eq!(r.algorithm, Algorithm::Naive);
        assert_eq!(
            r.stats.allocations, 0,
            "first-touch arena growth is back on the query hot path"
        );
        engine.shutdown();
    }

    #[test]
    fn diagram_calls_error_when_disabled() {
        let engine = Engine::new(&grid(40), EngineConfig::default().with_workers(1)).unwrap();
        assert!(matches!(
            engine.warm_start(&[]),
            Err(EngineError::Diagram(_))
        ));
        // And a disabled engine records no diagram traffic at all.
        engine
            .submit(QueryRequest::new(vec![Point::new(1.0, 1.0)]))
            .wait();
        let m = engine.metrics();
        assert_eq!(m.diagram.hits + m.diagram.misses, 0);
    }

    #[test]
    fn reindex_retires_the_diagram_with_its_snapshot() {
        let data = grid(160);
        let engine = Engine::new(&data, diagram_config()).unwrap();
        let q = vec![Point::new(4.0, 3.0), Point::new(10.0, 6.0)];
        engine.submit(QueryRequest::new(q.clone())).wait();
        assert_eq!(
            engine.submit(QueryRequest::new(q.clone())).wait().served_by,
            ServedBy::Diagram
        );
        let new_data = grid(240);
        engine.reindex(&new_data).unwrap();
        // The cell holds generation 0's answer; it must not answer for
        // generation 1. The planner answers, exactly for the new data,
        // and that answer refreshes the cell.
        let after = engine.submit(QueryRequest::new(q.clone())).wait();
        let want = naive_full(&new_data, &QueryContext::new(&q)).skyline;
        assert_eq!(after.generation, 1);
        assert_ne!(after.served_by, ServedBy::Diagram);
        assert_eq!(after.skyline, want);
        let rehit = engine.submit(QueryRequest::new(q.clone())).wait();
        assert_eq!(rehit.served_by, ServedBy::Diagram);
        assert_eq!(rehit.skyline, want);
        engine.shutdown();
    }

    #[test]
    fn retired_generations_are_freed_once_unpinned() {
        let q = vec![
            Point::new(1.0, 1.0),
            Point::new(5.0, 2.0),
            Point::new(3.0, 6.0),
        ];
        for diagram in [false, true] {
            let config = if diagram {
                diagram_config()
            } else {
                EngineConfig::default().with_workers(1)
            };
            let engine = Engine::new(&grid(80), config).unwrap();
            if diagram {
                // Key cells hold ids, not snapshots, and no diagram
                // thread pins a generation.
                let key = QueryKey::canonical(&q, ContextCache::DEFAULT_QUANTUM);
                assert_eq!(engine.warm_start(&[key]).unwrap(), 1);
            }
            let weak = Arc::downgrade(&engine.snapshot());
            engine.reindex(&grid(100)).unwrap();
            // Drain the pool so no worker still holds a pin.
            engine.submit(QueryRequest::new(q.clone())).wait();
            assert!(
                weak.upgrade().is_none(),
                "generation 0 leaked after retirement (diagram: {diagram})"
            );
        }
    }
}
