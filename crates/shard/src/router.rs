//! The sharded engine: partition, route, prune, fan out, merge.
//!
//! [`ShardedEngine::new`] partitions the dataset under a
//! [`PartitionPolicy`] and builds one full
//! [`Engine`] (indexes, worker pool, cache) per shard. A query then
//! goes through four steps:
//!
//! 1. **Bound** — compute each shard rect's lower-bound distance vector
//!    to `CHv(Q)` ([`rect_lower_bounds`]).
//! 2. **Seed** — query the *primary* shard (smallest lower-bound sum,
//!    i.e. the shard the query sits in or nearest to) before anything
//!    else; its skyline points are real, so their distance vectors
//!    become pruning ammunition.
//! 3. **Fan out** — every remaining shard whose bound is dominated by a
//!    seed vector is skipped ([`dominates_rect`]); the rest are queried
//!    concurrently.
//! 4. **Merge** — per-shard skylines, remapped to global ids, pass
//!    through the exact dominance filter ([`merge_candidates_with`]);
//!    a query only its primary answered skips it (below).
//!
//! Steps 2 and 3 send one batch per shard ([`ShardedEngine::query_batch`]
//! routes many queries at once). Every batch of a step but the last goes
//! to its shard's pool ([`Engine::submit_batch_on`]); the calling thread
//! runs the last itself ([`Engine::run_batch_on`]), then waits for the
//! pools, bounded by [`ShardConfig::shard_timeout`] when set.
//!
//! Pruning never affects the answer (the bound is sound — see
//! [`prune`](crate::prune)); it only avoids work, which the metrics
//! make observable.
//!
//! # One-shard answers
//!
//! When every shard but the primary is pruned, the primary's skyline is
//! the global one and is returned as it is, its ids sorted, with no merge.
//! Each other shard was pruned because some primary skyline point `t`
//! strictly dominates its whole rect ([`dominates_rect`]), so `t`
//! dominates every point there. If such a point `x` dominated a primary
//! skyline point `s`, then `t` would dominate `s` by transitivity — two
//! points of the primary, contradicting `s`'s membership. So no pruned
//! point removes a primary skyline point, and none is one itself. On the
//! benchmark's `fleet` stream about nine routed queries in ten take this
//! path (its traced mean fan-out is 1.117 shards). Their
//! [`ShardedResponse::stats`] count no merge work.
//!
//! # Live reindex
//!
//! [`ShardedEngine::reindex`] re-partitions a new dataset, builds one
//! [`Snapshot`] per shard at the next fleet generation, installs them
//! into the per-shard engine catalogs, and publishes a new [`Fleet`
//! view](ShardedEngine::reindex) — the id remap tables and pruning rects
//! re-derived from the new data. Every routed query pins **one** fleet
//! view for its whole fan-out, so its pruning bounds, sub-queries, and
//! remap tables all describe the same generation even while per-engine
//! catalogs are being swapped underneath it; the answer is always
//! exactly the single-engine answer on one real dataset generation
//! (the one [`ShardedResponse::generation`] reports).
//! [`ShardedEngine::ingest`] publishes a delta the same way, under the
//! single-engine id rule ([`UpdateBatch::id_plan`]): a surviving point
//! keeps its global id, so a shard the batch leaves alone keeps its view.

use crate::merge::merge_candidates_with;
use crate::metrics::{ShardMetrics, ShardedMetricsSnapshot};
use crate::partition::{partition, PartitionPolicy, ShardSpec};
use crate::prune::{dominates_rect, rect_lower_bounds};
use ssq_core::{DeltaStats, QueryContext, QueryKey, QueryStats, UpdateBatch};
use ssq_engine::sync::{RankedMutex, RANK_SHARD_FLEET, RANK_SHARD_MERGE, RANK_SHARD_REINDEX};
use ssq_engine::{
    BatchTicket, Engine, EngineConfig, EngineError, QueryRequest, QueryResponse, Snapshot,
    WorkerState,
};
use ssq_geom::{Point, Rect};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Post-ingest size-skew trigger: rebalance when the hottest shard holds
/// more than `REBALANCE_SKEW ×` the coldest shard's points.
const REBALANCE_SKEW: usize = 2;

/// Hysteresis: skew alone never triggers a rebalance unless the hot and
/// cold shards also differ by at least this many points, so small fleets
/// don't churn over rounding noise.
const REBALANCE_MIN_GAP: usize = 64;

/// Tuning knobs for [`ShardedEngine::new`].
#[derive(Clone, Debug)]
pub struct ShardConfig {
    /// Target shard count (the partitioner may return fewer on tiny
    /// datasets; must be nonzero).
    pub shards: usize,
    /// How the dataset is cut into shards.
    pub policy: PartitionPolicy,
    /// Per-shard engine configuration (workers, cache, queue).
    pub engine: EngineConfig,
    /// Upper bound on waiting for any one pool-run shard batch; `None`
    /// waits indefinitely. On expiry the query fails with
    /// [`ShardError::Timeout`] instead of wedging the router. The batch
    /// the calling thread runs itself is not a wait and is not bounded.
    pub shard_timeout: Option<Duration>,
    /// Whether the dominance bound may skip shards (on by default;
    /// turning it off forces full fan-out, useful for A/B measurement).
    pub prune: bool,
}

impl Default for ShardConfig {
    fn default() -> ShardConfig {
        ShardConfig {
            shards: 4,
            policy: PartitionPolicy::Grid,
            engine: EngineConfig::default(),
            shard_timeout: None,
            prune: true,
        }
    }
}

impl ShardConfig {
    /// This config with exactly `shards` target shards.
    pub fn with_shards(mut self, shards: usize) -> ShardConfig {
        self.shards = shards;
        self
    }

    /// This config with partition policy `policy`.
    pub fn with_policy(mut self, policy: PartitionPolicy) -> ShardConfig {
        self.policy = policy;
        self
    }

    /// This config with per-shard engine configuration `engine`.
    pub fn with_engine(mut self, engine: EngineConfig) -> ShardConfig {
        self.engine = engine;
        self
    }

    /// This config with a bound on each wait for a pool-run shard batch.
    pub fn with_shard_timeout(mut self, timeout: Duration) -> ShardConfig {
        self.shard_timeout = Some(timeout);
        self
    }

    /// This config with shard pruning enabled or disabled.
    pub fn with_prune(mut self, prune: bool) -> ShardConfig {
        self.prune = prune;
        self
    }
}

/// Failures surfaced by the sharded engine.
#[derive(Debug)]
pub enum ShardError {
    /// Construction or validation failed inside a shard engine.
    Engine(EngineError),
    /// The dataset was empty or the shard count zero.
    InvalidConfig(String),
    /// Shard `shard`'s pool did not answer within
    /// [`ShardConfig::shard_timeout`].
    Timeout {
        /// Index of the shard that timed out.
        shard: usize,
    },
    /// A query set had no points — a spatial skyline needs at least one.
    EmptyQuery,
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Engine(e) => write!(f, "shard engine: {e}"),
            ShardError::InvalidConfig(msg) => write!(f, "shard config: {msg}"),
            ShardError::Timeout { shard } => write!(f, "shard {shard} timed out"),
            ShardError::EmptyQuery => write!(f, "a query set needs at least one point"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<EngineError> for ShardError {
    fn from(e: EngineError) -> ShardError {
        ShardError::Engine(e)
    }
}

/// Static facts about one shard, for reports.
#[derive(Clone, Debug)]
pub struct ShardInfo {
    /// Shard index.
    pub index: usize,
    /// Points held.
    pub len: usize,
    /// Tight bounding rect of the shard's points.
    pub rect: Rect,
}

/// The answer to one routed query.
#[derive(Clone, Debug)]
pub struct ShardedResponse {
    /// Global skyline point ids, ascending — exactly the single-engine
    /// answer on the union dataset of the generation reported below.
    pub skyline: Vec<u32>,
    /// The fleet generation this query was answered against: every
    /// shard sub-query, pruning bound, and remap table came from this
    /// one generation's view.
    pub generation: u64,
    /// Shards whose engines actually ran the query.
    pub shards_queried: usize,
    /// Shards skipped by the dominance bound.
    pub shards_pruned: usize,
    /// End-to-end service time: bound + fan-out + merge.
    pub latency: Duration,
    /// Work counters summed over shard sub-queries, the seed vectors of
    /// the prune step and the merge (none when only the primary shard was
    /// queried).
    pub stats: QueryStats,
}

/// What one fleet delta publish ([`ShardedEngine::ingest`]) did.
#[derive(Clone, Debug)]
pub struct FleetIngestReport {
    /// The fleet generation the batch produced (unchanged for an empty
    /// batch, which publishes nothing).
    pub generation: u64,
    /// Per-shard maintenance stats summed over every touched shard;
    /// `incremental` is `true` only when **every** touched shard took
    /// the incremental path.
    pub stats: DeltaStats,
    /// Shards whose snapshots were rebuilt by the delta (untouched
    /// shards share their snapshot `Arc` into the new generation).
    pub shards_touched: usize,
    /// Whether the size-skew check fired a rebalance this publish.
    pub rebalanced: bool,
    /// Points that changed shard ownership (zero without a rebalance).
    pub rebalance_moves: usize,
    /// Wall-clock cost of the publish: routing + every touched shard's
    /// delta application + any rebalance rebuilds.
    pub build: Duration,
}

/// One shard's slice of a single fleet generation: the pinned snapshot
/// its engine answers from, the local→global id map, and the rect the
/// router prunes against. All three describe the *same* dataset, which
/// is what keeps pruning sound across swaps.
#[derive(Clone)]
struct ShardView {
    snapshot: Arc<Snapshot>,
    ids: Vec<u32>,
    rect: Rect,
}

/// A consistent routing view over every shard at one generation. A query
/// pins one `Arc<Fleet>` for its whole fan-out.
struct Fleet {
    generation: u64,
    views: Vec<Arc<ShardView>>,
}

/// One routed query's answers so far: candidates remapped to global ids,
/// summed work counters, and its shard visits.
#[derive(Clone, Default)]
struct Partial {
    candidates: Vec<(u32, Point)>,
    stats: QueryStats,
    queried: usize,
    pruned: usize,
}

/// One [`Engine`] per spatial shard behind a pruning router.
///
/// The engines (worker pools, caches, metrics) persist across
/// [`reindex`](ShardedEngine::reindex) calls; only their snapshot
/// catalogs and the router's fleet view are swapped.
pub struct ShardedEngine {
    engines: Vec<Engine>,
    fleet: RankedMutex<Arc<Fleet>>,
    /// Serializes reindex calls so generation numbers stay monotone.
    reindex_lock: RankedMutex<()>,
    /// Per-caller arenas: a routed call pops one (or a fresh one) for its
    /// caller-run shard batches and its merge, and pushes it back. Held
    /// only to pop and push, never across an engine call.
    arenas: RankedMutex<Vec<WorkerState>>,
    policy: PartitionPolicy,
    metrics: ShardMetrics,
    timeout: Option<Duration>,
    prune: bool,
}

impl ShardedEngine {
    /// Partitions `points` and builds the per-shard engines, publishing
    /// the result as fleet generation 0.
    pub fn new(points: &[Point], config: ShardConfig) -> Result<ShardedEngine, ShardError> {
        if config.shards == 0 {
            return Err(ShardError::InvalidConfig(
                "shard count must be nonzero".into(),
            ));
        }
        if points.is_empty() {
            return Err(ShardError::Engine(EngineError::EmptyDataset));
        }
        config.engine.validate()?;
        let specs = partition(points, config.shards, config.policy);
        let mut engines = Vec::with_capacity(specs.len());
        let mut views = Vec::with_capacity(specs.len());
        for spec in specs {
            let ShardSpec { ids, points, rect } = spec;
            let snapshot = Arc::new(
                Snapshot::build(0, &points)
                    .map_err(|e| ShardError::Engine(EngineError::Index(e)))?,
            );
            engines.push(Engine::with_snapshot(
                Arc::clone(&snapshot),
                config.engine.clone(),
            )?);
            views.push(Arc::new(ShardView {
                snapshot,
                ids,
                rect,
            }));
        }
        Ok(ShardedEngine {
            engines,
            fleet: RankedMutex::new(
                "shard.fleet",
                RANK_SHARD_FLEET,
                Arc::new(Fleet {
                    generation: 0,
                    views,
                }),
            ),
            reindex_lock: RankedMutex::new("shard.reindex", RANK_SHARD_REINDEX, ()),
            arenas: RankedMutex::new("shard.merge", RANK_SHARD_MERGE, Vec::new()),
            policy: config.policy,
            metrics: ShardMetrics::new(),
            timeout: config.shard_timeout,
            prune: config.prune,
        })
    }

    /// Pins the current fleet view (lock held only for the clone).
    fn current_fleet(&self) -> Arc<Fleet> {
        Arc::clone(&self.fleet.lock())
    }

    /// Number of shards holding data in the current generation (≤ the
    /// configured target; a reindex onto a tiny dataset may leave
    /// trailing engines idle).
    pub fn shard_count(&self) -> usize {
        self.current_fleet().views.len()
    }

    /// The fleet generation currently being served.
    pub fn generation(&self) -> u64 {
        self.current_fleet().generation
    }

    /// Total points across all shards in the current generation.
    pub fn data_len(&self) -> usize {
        self.current_fleet().views.iter().map(|v| v.ids.len()).sum()
    }

    /// Static per-shard facts, for `shard-stats` style reports.
    pub fn shard_infos(&self) -> Vec<ShardInfo> {
        self.current_fleet()
            .views
            .iter()
            .enumerate()
            .map(|(index, v)| ShardInfo {
                index,
                len: v.ids.len(),
                rect: v.rect,
            })
            .collect()
    }

    /// Re-partitions `points` as the next fleet generation, builds one
    /// snapshot per shard, installs them into the per-shard engine
    /// catalogs, and atomically publishes the new routing view. Returns
    /// the new generation number.
    ///
    /// The partition and every index build run on the calling thread,
    /// entirely off the serving path: queries that pinned the old fleet
    /// keep using it (its snapshots, rects, and id maps stay alive via
    /// their `Arc`s) and finish exactly; queries routed after the
    /// publish see only the new generation. Nothing is installed unless
    /// **every** shard's build succeeded, so the fleet can never end up
    /// half-swapped.
    pub fn reindex(&self, points: &[Point]) -> Result<u64, ShardError> {
        if points.is_empty() {
            return Err(ShardError::Engine(EngineError::EmptyDataset));
        }
        let _guard = self.reindex_lock.lock();
        let next = self.current_fleet().generation + 1;
        let start = Instant::now();
        // Never more shards than engines: each view needs a pool to run
        // its sub-queries on.
        let specs = partition(points, self.engines.len(), self.policy);
        let mut views = Vec::with_capacity(specs.len());
        for spec in specs {
            let ShardSpec { ids, points, rect } = spec;
            let snapshot = Arc::new(
                Snapshot::build(next, &points)
                    .map_err(|e| ShardError::Engine(EngineError::Index(e)))?,
            );
            views.push(Arc::new(ShardView {
                snapshot,
                ids,
                rect,
            }));
        }
        let build = start.elapsed();
        for (engine, view) in self.engines.iter().zip(&views) {
            engine.install_snapshot(Arc::clone(&view.snapshot), build)?;
        }
        *self.fleet.lock() = Arc::new(Fleet {
            generation: next,
            views,
        });
        self.metrics.lifecycle.record_swap(next, build);
        Ok(next)
    }

    /// Applies a fleet-wide [`UpdateBatch`] as the next generation:
    /// deletes are routed to the shards that own them, inserts to the
    /// shard whose footprint each point is inside (or nearest to), and
    /// every touched shard's next snapshot is built *incrementally* from
    /// its current one ([`Snapshot::apply_delta`]). A shard with no
    /// operation and no moved id carries its whole view, id table
    /// included, into the new generation by `Arc`, so the publish costs
    /// O(|delta| log |shard|) plus the owner table, not a fleet rebuild.
    ///
    /// Delete ids refer to the current generation's global id space. The
    /// new generation's ids follow [`UpdateBatch::id_plan`] over the whole
    /// fleet, the batch normalized over the fleet's footprint — exactly
    /// the ids of a single [`Snapshot::apply_delta`] over the union
    /// dataset, so a query against the delta-built fleet matches a fresh
    /// build over [`UpdateBatch`]-applied points byte for byte.
    ///
    /// After the delta lands the router checks size skew: when the
    /// hottest shard holds more than `REBALANCE_SKEW` (2)× the coldest
    /// shard's points (and they differ by at least
    /// `REBALANCE_MIN_GAP`, 64), the pair's union is median-split and both
    /// shards rebuilt; a fleet that previously collapsed below its
    /// engine count re-expands by splitting the hottest shard into an
    /// idle engine instead. Either way the result is published
    /// atomically with the delta as **one** fleet generation.
    pub fn ingest(&self, batch: &UpdateBatch) -> Result<FleetIngestReport, ShardError> {
        let _guard = self.reindex_lock.lock();
        let fleet = self.current_fleet();
        let n: usize = fleet.views.iter().map(|v| v.ids.len()).sum();
        batch
            .validate(n)
            .map_err(|e| ShardError::Engine(EngineError::Index(e.to_string())))?;
        if batch.is_empty() {
            return Ok(FleetIngestReport {
                generation: fleet.generation,
                stats: DeltaStats {
                    incremental: true,
                    ..DeltaStats::default()
                },
                shards_touched: 0,
                rebalanced: false,
                rebalance_moves: 0,
                build: Duration::ZERO,
            });
        }
        let start = Instant::now();
        // Normalize over the whole fleet's footprint so the new global
        // ids are a deterministic function of (fleet, batch) — the same
        // function Snapshot::apply_delta uses on a single engine.
        let universe = Rect::bounding(fleet.views.iter().flat_map(|v| [v.rect.min, v.rect.max]));
        let mut batch = batch.clone();
        batch.normalize(&universe);
        let next = fleet.generation + 1;
        let plan = batch.id_plan(n);

        // Owner table: global id -> (shard, local position).
        let shards = fleet.views.len();
        let mut owner: Vec<(u32, u32)> = vec![(u32::MAX, 0); n];
        for (s, view) in fleet.views.iter().enumerate() {
            for (l, &g) in view.ids.iter().enumerate() {
                owner[g as usize] = (s as u32, l as u32);
            }
        }
        let mut local_deletes: Vec<Vec<u32>> = vec![Vec::new(); shards];
        for &d in &batch.deletes {
            let (s, l) = owner[d as usize];
            local_deletes[s as usize].push(l);
        }
        // A moved point stays in its shard under its new global id.
        let mut local_moves: Vec<Vec<(u32, u32)>> = vec![Vec::new(); shards];
        for &(from, to) in &plan.moves {
            let (s, l) = owner[from as usize];
            local_moves[s as usize].push((l, to));
        }
        // Route each insert to the shard it falls inside or is nearest
        // to (ties to the lower index). Its new global id is fixed by
        // the fleet-wide plan above, independent of the shard chosen, so
        // routing only shapes locality, never the answer.
        let mut local_inserts: Vec<Vec<(Point, u32)>> = vec![Vec::new(); shards];
        for (&p, &g) in batch.inserts.iter().zip(&plan.inserted) {
            // `unwrap_or(0)` is unreachable in practice: the fleet was
            // validated non-empty above, so the range is never empty.
            let s = (0..shards)
                .min_by(|&a, &b| {
                    fleet.views[a]
                        .rect
                        .mindist(p)
                        .total_cmp(&fleet.views[b].rect.mindist(p))
                })
                .unwrap_or(0);
            local_inserts[s].push((p, g));
        }

        let mut views: Vec<Arc<ShardView>> = Vec::with_capacity(shards);
        let mut stats = DeltaStats {
            incremental: true,
            ..DeltaStats::default()
        };
        let mut touched = 0usize;
        for (s, view) in fleet.views.iter().enumerate() {
            let (dels, ins) = (&local_deletes[s], &local_inserts[s]);
            if dels.is_empty() && ins.is_empty() && local_moves[s].is_empty() {
                views.push(Arc::clone(view));
                continue;
            }
            if dels.len() == view.ids.len() && ins.is_empty() {
                // The batch emptied this shard: dropping its view *is*
                // the whole delta (every point it held was deleted), and
                // its engine idles until a later generation routes
                // points back — same contract as a reindex onto a tiny
                // dataset.
                stats.deletes += view.ids.len();
                continue;
            }
            let mut next_view = ShardView::clone(view);
            for &(l, g) in &local_moves[s] {
                next_view.ids[l as usize] = g;
            }
            if !dels.is_empty() || !ins.is_empty() {
                touched += 1;
                let mut local = UpdateBatch {
                    inserts: ins.iter().map(|&(p, _)| p).collect(),
                    deletes: dels.clone(),
                };
                local.deletes.sort_unstable();
                // The snapshot normalizes the local batch over its own
                // universe; hand the global ids to the local plan in that
                // order so the id table stays parallel to its points.
                let order = local.insert_order(&view.snapshot.universe());
                local
                    .id_plan(view.ids.len())
                    .patch(&mut next_view.ids, order.iter().map(|&k| ins[k as usize].1));
                let (snap, shard_stats) = view
                    .snapshot
                    .apply_delta(next, &local)
                    .map_err(|e| ShardError::Engine(EngineError::Index(e)))?;
                stats.inserts += shard_stats.inserts;
                stats.deletes += shard_stats.deletes;
                stats.incremental &= shard_stats.incremental;
                stats.dirty_cells += shard_stats.dirty_cells;
                // The root MBR: tight, because every edit refreshes the
                // rects on its path.
                next_view.rect = snap.universe();
                next_view.snapshot = Arc::new(snap);
            }
            views.push(Arc::new(next_view));
        }
        if views.is_empty() {
            // Unreachable: validate() rejects batches emptying the fleet.
            return Err(ShardError::InvalidConfig(
                "batch emptied every shard".into(),
            ));
        }

        let (rebalanced, moves) = self
            .maybe_rebalance(&mut views, next)
            .map_err(|e| ShardError::Engine(EngineError::Index(e)))?;

        let build = start.elapsed();
        // Install every snapshot built at this generation; untouched
        // engines keep serving their (still current) old snapshot.
        for (i, view) in views.iter().enumerate() {
            if view.snapshot.generation() == next {
                self.engines[i].install_snapshot(Arc::clone(&view.snapshot), build)?;
            }
        }
        *self.fleet.lock() = Arc::new(Fleet {
            generation: next,
            views,
        });
        self.metrics.lifecycle.record_swap(next, build);
        self.metrics.record_ingest(&stats, build, moves as u64);
        Ok(FleetIngestReport {
            generation: next,
            stats,
            shards_touched: touched,
            rebalanced,
            rebalance_moves: moves,
            build,
        })
    }

    /// The size-skew check run at the end of every
    /// [`ingest`](ShardedEngine::ingest), before the publish. Returns
    /// whether a rebalance fired and how many points changed shards.
    ///
    /// Two moves, mutually exclusive per publish:
    ///
    /// * **Split hot** — when the fleet has fewer views than engines
    ///   (it collapsed on a tiny dataset and has since grown), the
    ///   hottest shard is median-split and the new half takes an idle
    ///   engine slot.
    /// * **Merge-split hot/cold** — when the hottest shard outweighs the
    ///   coldest by more than [`REBALANCE_SKEW`]×, their union is
    ///   median-split into two balanced shards, rebuilt in place.
    fn maybe_rebalance(
        &self,
        views: &mut Vec<Arc<ShardView>>,
        generation: u64,
    ) -> Result<(bool, usize), String> {
        let Some(hot) = (0..views.len()).max_by_key(|&i| views[i].ids.len()) else {
            return Ok((false, 0));
        };
        if views.len() < self.engines.len() && views[hot].ids.len() >= 2 * REBALANCE_MIN_GAP {
            let pairs = id_point_pairs([&*views[hot]]);
            let [low, high] = kd_halves(pairs, generation)?;
            let moves = high.ids.len();
            views[hot] = Arc::new(low);
            views.push(Arc::new(high));
            return Ok((true, moves));
        }
        // `unwrap_or(hot)` is unreachable in practice (`hot` indexes into
        // `views`, so the range is non-empty) and degrades to the
        // `hot == cold` no-rebalance branch below if it ever fired.
        let cold = (0..views.len())
            .min_by_key(|&i| views[i].ids.len())
            .unwrap_or(hot);
        let (hot_len, cold_len) = (views[hot].ids.len(), views[cold].ids.len());
        if hot == cold
            || hot_len <= REBALANCE_SKEW * cold_len
            || hot_len < cold_len + REBALANCE_MIN_GAP
        {
            return Ok((false, 0));
        }
        let old_hot: HashSet<u32> = views[hot].ids.iter().copied().collect();
        let old_cold: HashSet<u32> = views[cold].ids.iter().copied().collect();
        let pairs = id_point_pairs([&*views[hot], &*views[cold]]);
        let [low, high] = kd_halves(pairs, generation)?;
        let moves = low.ids.iter().filter(|g| !old_hot.contains(g)).count()
            + high.ids.iter().filter(|g| !old_cold.contains(g)).count();
        views[hot] = Arc::new(low);
        views[cold] = Arc::new(high);
        Ok((true, moves))
    }

    /// Routes one query — [`query_batch`](Self::query_batch) with a batch
    /// of one: seed the primary shard, prune, fan out, merge.
    ///
    /// The whole fan-out runs against one pinned fleet generation, so
    /// the answer is exact for the dataset of
    /// [`ShardedResponse::generation`] even if a
    /// [`reindex`](ShardedEngine::reindex) publishes mid-flight.
    pub fn query(&self, q: &[Point]) -> Result<ShardedResponse, ShardError> {
        let mut responses = self.query_batch(std::slice::from_ref(&q.to_vec()))?;
        // Unreachable in practice: a batch answers one response per query.
        responses
            .pop()
            .ok_or_else(|| ShardError::InvalidConfig("batch of one came back empty".into()))
    }

    /// Routes a batch of queries through one pinned fleet view, fanning
    /// whole batches out shard-wise.
    ///
    /// The answer of each query is exactly what a batch of its own would
    /// return for it, but the work is amortized: each shard engine sees at
    /// most **two** batches for the whole batch (one carrying every query
    /// it is the primary shard of — the seeds — and one carrying every
    /// query its bound could not rule out), so snapshot pins and cache
    /// probes are paid per batch-per-shard instead of per query. Pruning
    /// stays per-query and per-shard, so batching never prunes less.
    ///
    /// A query set with no points is [`ShardError::EmptyQuery`]; nothing
    /// of the batch is routed.
    pub fn query_batch(&self, queries: &[Vec<Point>]) -> Result<Vec<ShardedResponse>, ShardError> {
        if queries.iter().any(Vec::is_empty) {
            return Err(ShardError::EmptyQuery);
        }
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let mut arena = self.arenas.lock().pop().unwrap_or_default();
        let routed = self.route(queries, &mut arena);
        self.arenas.lock().push(arena);
        routed
    }

    /// [`query_batch`](Self::query_batch) on a validated, non-empty batch,
    /// with `arena` for the caller-run shard batches and the merge.
    fn route(
        &self,
        queries: &[Vec<Point>],
        arena: &mut WorkerState,
    ) -> Result<Vec<ShardedResponse>, ShardError> {
        let start = Instant::now();
        let fleet = self.current_fleet();
        let shards = fleet.views.len();
        let ctxs: Vec<QueryContext> = queries.iter().map(|q| QueryContext::new(q)).collect();

        // Seed phase: one batch per distinct primary shard, the one with
        // the smallest lower-bound sum.
        let bounds: Vec<Vec<Vec<f64>>> = ctxs
            .iter()
            .map(|ctx| {
                fleet
                    .views
                    .iter()
                    .map(|v| rect_lower_bounds(&v.rect, ctx.anchors()))
                    .collect()
            })
            .collect();
        let sum = |b: &[f64]| b.iter().sum::<f64>();
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); shards];
        let mut primaries = Vec::with_capacity(queries.len());
        for (qi, b) in bounds.iter().enumerate() {
            let Some(primary) = (0..shards).min_by(|&i, &j| sum(&b[i]).total_cmp(&sum(&b[j])))
            else {
                return Err(ShardError::InvalidConfig("fleet has no shards".into()));
            };
            members[primary].push(qi);
            primaries.push(primary);
        }
        let mut partials = vec![Partial::default(); queries.len()];
        self.fan_batches(&fleet, queries, &members, arena, &mut partials)?;

        // Prune per query, then one batch per remaining shard. A shard is
        // pruned when a seed vector dominates its bound; the seeds are
        // computed one at a time into one buffer, and the scan stops once
        // every other shard is pruned.
        let mut fanout: Vec<Vec<usize>> = vec![Vec::new(); shards];
        let (mut seed, mut open) = (Vec::new(), Vec::with_capacity(shards));
        for (qi, (ctx, part)) in ctxs.iter().zip(&mut partials).enumerate() {
            open.clear();
            open.extend((0..shards).filter(|&shard| shard != primaries[qi]));
            let mut candidates = part.candidates.iter();
            while self.prune && !open.is_empty() {
                let Some(&(_, p)) = candidates.next() else {
                    break;
                };
                seed.clear();
                seed.extend(ctx.anchors().iter().map(|&q| q.distance(p)));
                part.stats.distance_computations += seed.len() as u64;
                open.retain(|&shard| !dominates_rect(&seed, &bounds[qi][shard]));
            }
            part.pruned += shards - 1 - open.len();
            for &shard in &open {
                fanout[shard].push(qi);
            }
        }
        self.fan_batches(&fleet, queries, &fanout, arena, &mut partials)?;

        // Merge every query through the caller's warm arena — unless only
        // its primary was queried: every other shard was pruned by a
        // primary skyline point, so the primary's skyline is the answer
        // (module docs, "One-shard answers").
        let merged = ctxs.iter().zip(partials).map(|(ctx, mut part)| {
            let skyline = if part.queried == 1 {
                let mut ids: Vec<u32> = part.candidates.iter().map(|&(id, _)| id).collect();
                ids.sort_unstable();
                ids
            } else {
                merge_candidates_with(ctx, &part.candidates, &mut part.stats, &mut arena.scratch)
            };
            let latency = start.elapsed();
            self.metrics.record_query(
                part.queried as u64,
                part.pruned as u64,
                part.candidates.len() as u64,
                latency,
            );
            ShardedResponse {
                skyline,
                generation: fleet.generation,
                shards_queried: part.queried,
                shards_pruned: part.pruned,
                latency,
                stats: part.stats,
            }
        });
        Ok(merged.collect())
    }

    /// Answers one batch per shard with a nonempty member list — the last
    /// on the caller through `arena`, the rest on their pools — and folds
    /// every response into its query's partial, in shard order.
    fn fan_batches(
        &self,
        fleet: &Fleet,
        queries: &[Vec<Point>],
        members: &[Vec<usize>],
        arena: &mut WorkerState,
        partials: &mut [Partial],
    ) -> Result<(), ShardError> {
        let requests = |shard: usize| -> Vec<QueryRequest> {
            members[shard]
                .iter()
                .map(|&qi| QueryRequest::new(queries[qi].clone()))
                .collect()
        };
        let mut busy = (0..members.len()).filter(|&shard| !members[shard].is_empty());
        let Some(last) = busy.next_back() else {
            return Ok(());
        };
        let tickets: Vec<(usize, BatchTicket)> = busy
            .map(|shard| {
                let snapshot = Arc::clone(&fleet.views[shard].snapshot);
                (
                    shard,
                    self.engines[shard].submit_batch_on(requests(shard), snapshot),
                )
            })
            .collect();
        let own =
            self.engines[last].run_batch_on(&requests(last), &fleet.views[last].snapshot, arena);
        let mut absorb = |shard: usize, responses: Vec<QueryResponse>| {
            let view = &fleet.views[shard];
            for (&qi, resp) in members[shard].iter().zip(responses) {
                let part = &mut partials[qi];
                part.queried += 1;
                part.stats.absorb(&resp.stats);
                part.candidates.extend(remap(view, &resp.skyline));
            }
        };
        for (shard, ticket) in tickets {
            let responses = match self.timeout {
                None => ticket.wait(),
                Some(t) => ticket
                    .wait_timeout(t)
                    .map_err(|_| ShardError::Timeout { shard })?,
            };
            absorb(shard, responses);
        }
        absorb(last, own);
        Ok(())
    }

    /// Router metrics plus the folded per-shard engine metrics.
    pub fn metrics(&self) -> ShardedMetricsSnapshot {
        let engine_snaps: Vec<_> = self.engines.iter().map(Engine::metrics).collect();
        self.metrics.snapshot(engine_snaps.iter())
    }

    /// Seeds every shard engine's context cache and skyline diagram
    /// with known-hot canonical keys (see
    /// [`Engine::warm_start`](ssq_engine::Engine::warm_start)). Each
    /// shard re-canonicalizes the keys against its own data subset, so
    /// one warm file serves the whole fleet. Returns the keys seeded
    /// per shard (every shard sees the same key list). Errors if the
    /// shard engines were built without a diagram
    /// ([`EngineConfig::with_diagram`]).
    pub fn warm_start(&self, keys: &[QueryKey]) -> Result<usize, ShardError> {
        let mut seeded = 0;
        for engine in &self.engines {
            seeded = engine.warm_start(keys)?;
        }
        Ok(seeded)
    }

    /// The hottest canonical query keys across the fleet, merged by
    /// union (shards route the same queries, so the per-shard hot sets
    /// largely coincide; the union dedupes them). At most `limit` keys.
    pub fn hot_keys(&self, limit: usize) -> Vec<QueryKey> {
        let mut keys: Vec<QueryKey> = Vec::new();
        for engine in &self.engines {
            for key in engine.hot_keys(limit) {
                if !keys.contains(&key) {
                    keys.push(key);
                }
            }
        }
        keys.truncate(limit);
        keys
    }

    /// Drains and joins every shard engine's worker pool.
    pub fn shutdown(self) {
        for engine in self.engines {
            engine.shutdown();
        }
    }
}

/// The (global id, point) pairs of the given views, ascending by global
/// id — the canonical order a rebalance rebuilds shards in, so the
/// rebuilt id tables keep the ids-ascending convention of a fresh
/// partition.
fn id_point_pairs<'a>(views: impl IntoIterator<Item = &'a ShardView>) -> Vec<(u32, Point)> {
    let mut pairs: Vec<(u32, Point)> = views
        .into_iter()
        .flat_map(|v| {
            v.ids
                .iter()
                .copied()
                .zip(v.snapshot.points().iter().copied())
        })
        .collect();
    pairs.sort_unstable_by_key(|&(g, _)| g);
    pairs
}

/// Median-splits `pairs` (ascending by global id) into two balanced
/// shards along the longer axis and full-builds both snapshots at
/// `generation`. The rebalance path pays two full shard builds — the
/// price of restoring balance — while every other shard still rides the
/// cheap delta path.
fn kd_halves(pairs: Vec<(u32, Point)>, generation: u64) -> Result<[ShardView; 2], String> {
    let points: Vec<Point> = pairs.iter().map(|&(_, p)| p).collect();
    let specs = partition(&points, 2, PartitionPolicy::KdSplit);
    debug_assert_eq!(specs.len(), 2, "a rebalanced shard always has >= 2 points");
    let mut halves = Vec::with_capacity(2);
    for spec in specs {
        let ids: Vec<u32> = spec.ids.iter().map(|&i| pairs[i as usize].0).collect();
        halves.push(ShardView {
            snapshot: Arc::new(Snapshot::build(generation, &spec.points)?),
            ids,
            rect: spec.rect,
        });
    }
    halves
        .try_into()
        .map_err(|_| "kd split did not produce exactly two halves".to_string())
}

/// Local skyline ids of one shard view mapped back to global ids +
/// points. The id table and the points come from the same [`ShardView`],
/// so the mapping is exact for that view's generation.
fn remap(view: &ShardView, local: &[u32]) -> Vec<(u32, Point)> {
    local
        .iter()
        .map(|&l| (view.ids[l as usize], view.snapshot.points()[l as usize]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssq_core::naive_full;

    fn cloud(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| {
                Point::new(
                    (i % 19) as f64 + 3e-4 * i as f64,
                    (i / 19) as f64 + 5e-5 * i as f64,
                )
            })
            .collect()
    }

    fn small_engines() -> EngineConfig {
        EngineConfig::default().with_workers(2)
    }

    #[test]
    fn sharded_answer_equals_the_oracle_for_odd_shard_counts() {
        let data = cloud(400);
        let q = vec![
            Point::new(5.0, 5.0),
            Point::new(14.0, 8.0),
            Point::new(9.0, 18.0),
        ];
        let want = naive_full(&data, &QueryContext::new(&q)).skyline;
        for policy in PartitionPolicy::ALL {
            for shards in [1, 3, 5, 6] {
                let config = ShardConfig::default()
                    .with_shards(shards)
                    .with_policy(policy)
                    .with_engine(small_engines());
                let engine = ShardedEngine::new(&data, config).unwrap();
                let got = engine.query(&q).unwrap();
                assert_eq!(
                    got.skyline, want,
                    "policy {policy}, {shards} shards diverged"
                );
                assert_eq!(got.shards_queried + got.shards_pruned, engine.shard_count());
                engine.shutdown();
            }
        }
    }

    #[test]
    fn pruning_fires_on_a_corner_query_without_changing_the_answer() {
        let data = cloud(600);
        // A tight query in one corner of the universe: far shards are
        // dominated by the primary shard's skyline.
        let q = vec![
            Point::new(0.4, 0.3),
            Point::new(1.2, 0.8),
            Point::new(0.7, 1.5),
        ];
        let config = ShardConfig::default()
            .with_shards(8)
            .with_engine(small_engines());
        let engine = ShardedEngine::new(&data, config).unwrap();
        let got = engine.query(&q).unwrap();
        assert_eq!(
            got.skyline,
            naive_full(&data, &QueryContext::new(&q)).skyline
        );
        assert!(got.shards_pruned > 0, "corner query should prune shards");
        let m = engine.metrics();
        assert_eq!(m.router.queries, 1);
        assert_eq!(m.router.shards_pruned, got.shards_pruned as u64);
        assert!(m.router.prune_rate() > 0.0);
        assert_eq!(m.engines.engine.queries(), got.shards_queried as u64);
        engine.shutdown();
    }

    #[test]
    fn a_query_only_its_primary_answers_skips_the_merge_and_stays_exact() {
        // Four blobs, one per cell of a 2 × 2 grid, and small query sets
        // inside one blob: most prune the other three shards and take the
        // primary's skyline as the answer.
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let centres = [(5.0, 5.0), (25.0, 5.0), (5.0, 25.0), (25.0, 25.0)];
        let data: Vec<Point> = (0..800)
            .map(|i| {
                let (cx, cy) = centres[i % 4];
                Point::new(cx + 8.0 * next() - 4.0, cy + 8.0 * next() - 4.0)
            })
            .collect();
        let config = ShardConfig::default()
            .with_shards(4)
            .with_policy(PartitionPolicy::Grid)
            .with_engine(small_engines());
        let engine = ShardedEngine::new(&data, config.clone()).unwrap();
        let unpruned = ShardedEngine::new(&data, config.with_prune(false)).unwrap();
        assert_eq!(engine.shard_count(), 4);
        let mut alone = 0;
        for j in 0..24 {
            let (cx, cy) = centres[j % 4];
            let (x, y) = (cx + 4.0 * next() - 2.0, cy + 4.0 * next() - 2.0);
            let q: Vec<Point> = (0..3)
                .map(|_| Point::new(x + next() - 0.5, y + next() - 0.5))
                .collect();
            let got = engine.query(&q).unwrap();
            let want = naive_full(&data, &QueryContext::new(&q)).skyline;
            assert_eq!(got.skyline, want, "query {j}");
            assert_eq!(unpruned.query(&q).unwrap().skyline, want, "query {j}");
            alone += usize::from(got.shards_queried == 1);
        }
        assert!(alone > 0, "no query was answered by its primary alone");
        engine.shutdown();
        unpruned.shutdown();
    }

    #[test]
    fn a_tie_across_the_shard_boundary_keeps_the_far_shard() {
        // A 2-shard grid over x ∈ [0, 10] cuts at x = 5. The anchors sit
        // on that line below both blobs, and `a` and `b` mirror each other
        // across it: `a`'s distance vector equals the right shard's bound
        // exactly, which a tie must not prune, and the two points tie, so
        // both are skyline points.
        let mut data = Vec::new();
        for i in 0..10 {
            for j in 0..5 {
                let (x, y) = (4.5 - 0.5 * i as f64, 2.0 + 0.5 * j as f64);
                data.extend([Point::new(x, y), Point::new(10.0 - x, y)]);
            }
        }
        let (a, b) = (0u32, 1u32);
        assert_eq!(
            (data[0], data[1]),
            (Point::new(4.5, 2.0), Point::new(5.5, 2.0))
        );
        let q = vec![Point::new(5.0, 1.0), Point::new(5.0, 0.0)];
        let config = ShardConfig::default()
            .with_shards(2)
            .with_policy(PartitionPolicy::Grid)
            .with_engine(small_engines());
        let engine = ShardedEngine::new(&data, config).unwrap();
        let got = engine.query(&q).unwrap();
        assert_eq!((got.shards_queried, got.shards_pruned), (2, 0));
        assert_eq!(got.skyline, vec![a, b]);
        assert_eq!(
            got.skyline,
            naive_full(&data, &QueryContext::new(&q)).skyline
        );
        engine.shutdown();
    }

    #[test]
    fn a_coordinate_off_the_key_grid_answers_through_the_fleet() {
        // The primary's batch runs on the calling thread, so a panic in
        // its context-cache key would unwind into this call. (The answer
        // is not compared with the oracle: at these magnitudes squared
        // distances overflow, ROADMAP item 4(b).)
        let data = cloud(300);
        let config = ShardConfig::default()
            .with_shards(4)
            .with_engine(small_engines());
        let engine = ShardedEngine::new(&data, config).unwrap();
        let far = vec![Point::new(-1e300, 0.0), Point::new(1e300, 0.0)];
        assert!(engine.query(&far).is_ok());
        let q = vec![Point::new(2.0, 3.0), Point::new(9.0, 5.0)];
        assert_eq!(
            engine.query(&q).unwrap().skyline,
            naive_full(&data, &QueryContext::new(&q)).skyline
        );
        engine.shutdown();
    }

    #[test]
    fn disabling_prune_queries_every_shard() {
        let data = cloud(300);
        let q = vec![Point::new(0.5, 0.5), Point::new(1.5, 1.0)];
        let config = ShardConfig::default()
            .with_shards(4)
            .with_engine(small_engines())
            .with_prune(false);
        let engine = ShardedEngine::new(&data, config).unwrap();
        let got = engine.query(&q).unwrap();
        assert_eq!(got.shards_pruned, 0);
        assert_eq!(got.shards_queried, engine.shard_count());
        assert_eq!(
            got.skyline,
            naive_full(&data, &QueryContext::new(&q)).skyline
        );
        engine.shutdown();
    }

    #[test]
    fn batched_routing_matches_individual_routing() {
        let data = cloud(500);
        let config = ShardConfig::default()
            .with_shards(5)
            .with_engine(small_engines());
        let engine = ShardedEngine::new(&data, config).unwrap();
        let queries: Vec<Vec<Point>> = vec![
            vec![Point::new(5.0, 5.0), Point::new(14.0, 8.0)],
            vec![
                Point::new(0.4, 0.3),
                Point::new(1.2, 0.8),
                Point::new(0.7, 1.5),
            ],
            vec![Point::new(9.0, 18.0)],
            // A repeat of the first query: must still be answered exactly.
            vec![Point::new(5.0, 5.0), Point::new(14.0, 8.0)],
        ];
        let batch = engine.query_batch(&queries).unwrap();
        assert_eq!(batch.len(), queries.len());
        for (q, got) in queries.iter().zip(&batch) {
            let solo = engine.query(q).unwrap();
            assert_eq!(got.skyline, solo.skyline);
            assert_eq!(
                got.skyline,
                naive_full(&data, &QueryContext::new(q)).skyline
            );
            assert_eq!(got.shards_queried, solo.shards_queried);
            assert_eq!(got.shards_pruned, solo.shards_pruned);
            assert_eq!(got.generation, 0);
        }
        assert!(engine.query_batch(&[]).unwrap().is_empty());
        engine.shutdown();
    }

    #[test]
    fn invalid_configs_are_typed_errors() {
        let data = cloud(10);
        assert!(matches!(
            ShardedEngine::new(&data, ShardConfig::default().with_shards(0)),
            Err(ShardError::InvalidConfig(_))
        ));
        assert!(matches!(
            ShardedEngine::new(&[], ShardConfig::default()),
            Err(ShardError::Engine(EngineError::EmptyDataset))
        ));
        let bad_engine =
            ShardConfig::default().with_engine(EngineConfig::default().with_workers(0));
        assert!(matches!(
            ShardedEngine::new(&data, bad_engine),
            Err(ShardError::Engine(EngineError::ZeroWorkers))
        ));
    }

    #[test]
    fn empty_query_sets_are_typed_errors() {
        let data = cloud(50);
        let config = ShardConfig::default()
            .with_shards(2)
            .with_engine(small_engines());
        let engine = ShardedEngine::new(&data, config).unwrap();
        assert!(matches!(engine.query(&[]), Err(ShardError::EmptyQuery)));
        let batch = vec![vec![Point::new(4.0, 4.0)], vec![]];
        assert!(matches!(
            engine.query_batch(&batch),
            Err(ShardError::EmptyQuery)
        ));
        // Nothing of the rejected batch was routed.
        assert_eq!(engine.metrics().router.queries, 0);
        engine.shutdown();
    }

    #[test]
    fn generous_timeout_still_answers() {
        let data = cloud(200);
        let config = ShardConfig::default()
            .with_shards(4)
            .with_engine(small_engines())
            .with_shard_timeout(Duration::from_secs(30));
        let engine = ShardedEngine::new(&data, config).unwrap();
        let q = vec![Point::new(4.0, 4.0), Point::new(10.0, 6.0)];
        let got = engine.query(&q).unwrap();
        assert_eq!(
            got.skyline,
            naive_full(&data, &QueryContext::new(&q)).skyline
        );
        engine.shutdown();
    }

    fn random_queries(count: usize, seed: u64) -> Vec<Vec<Point>> {
        let mut rng = ssq_rng::Xoshiro256::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                (0..1 + rng.range_usize(5))
                    .map(|_| Point::new(rng.f64() * 19.0, rng.f64() * 16.0))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn a_lone_shard_batch_runs_on_the_caller_so_no_timeout_can_fire() {
        // One shard: every phase has one batch, the caller runs it, and
        // the timeout — which bounds only waits on pool-run batches —
        // has nothing to interrupt, however short it is.
        let data = cloud(300);
        let config = ShardConfig::default()
            .with_shards(1)
            .with_engine(small_engines())
            .with_shard_timeout(Duration::from_nanos(1));
        let engine = ShardedEngine::new(&data, config).unwrap();
        for q in random_queries(50, 0x71) {
            let got = engine.query(&q).unwrap();
            assert_eq!(
                got.skyline,
                naive_full(&data, &QueryContext::new(&q)).skyline
            );
        }
        engine.shutdown();
    }

    #[test]
    fn the_arena_pool_holds_at_most_one_arena_per_routing_thread() {
        const THREADS: usize = 3;
        let data = cloud(400);
        let config = ShardConfig::default()
            .with_shards(4)
            .with_engine(EngineConfig::default().with_workers(1));
        let engine = ShardedEngine::new(&data, config).unwrap();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (engine, data) = (&engine, &data);
                scope.spawn(move || {
                    for q in random_queries(40, 0x80 + t as u64) {
                        let got = engine.query(&q).unwrap();
                        assert_eq!(
                            got.skyline,
                            naive_full(data, &QueryContext::new(&q)).skyline
                        );
                    }
                });
            }
        });
        let pooled = engine.arenas.lock().len();
        assert!(
            (1..=THREADS).contains(&pooled),
            "{pooled} arenas after {THREADS} routing threads"
        );
        engine.shutdown();
    }

    #[test]
    fn tiny_dataset_collapses_but_answers() {
        let data = vec![Point::new(1.0, 1.0), Point::new(2.0, 3.0)];
        let engine = ShardedEngine::new(&data, ShardConfig::default().with_shards(8)).unwrap();
        assert!(engine.shard_count() <= 2);
        let q = vec![Point::new(0.0, 0.0), Point::new(3.0, 3.0)];
        let got = engine.query(&q).unwrap();
        assert_eq!(
            got.skyline,
            naive_full(&data, &QueryContext::new(&q)).skyline
        );
        engine.shutdown();
    }

    #[test]
    fn reindex_swaps_every_shard_and_stays_exact() {
        let old_data = cloud(300);
        let new_data: Vec<Point> = cloud(450)
            .into_iter()
            .map(|p| Point::new(p.x + 0.25, p.y + 0.125))
            .collect();
        let q = vec![
            Point::new(5.0, 5.0),
            Point::new(14.0, 8.0),
            Point::new(9.0, 18.0),
        ];
        let config = ShardConfig::default()
            .with_shards(4)
            .with_engine(small_engines());
        let engine = ShardedEngine::new(&old_data, config).unwrap();

        let before = engine.query(&q).unwrap();
        assert_eq!(before.generation, 0);
        assert_eq!(
            before.skyline,
            naive_full(&old_data, &QueryContext::new(&q)).skyline
        );

        assert_eq!(engine.reindex(&new_data).unwrap(), 1);
        assert_eq!(engine.generation(), 1);
        assert_eq!(engine.data_len(), new_data.len());

        let after = engine.query(&q).unwrap();
        assert_eq!(after.generation, 1);
        assert_eq!(
            after.skyline,
            naive_full(&new_data, &QueryContext::new(&q)).skyline
        );

        let m = engine.metrics();
        assert_eq!(m.lifecycle.generation, 1);
        assert_eq!(m.lifecycle.swaps, 1, "one router-level reindex");
        assert!(m.lifecycle.last_build_nanos > 0);
        assert_eq!(
            m.engines.lifecycle.swaps,
            engine.shard_count() as u64,
            "every shard engine installed once"
        );
        assert_eq!(m.engines.lifecycle.generation, 1);
        engine.shutdown();
    }

    #[test]
    fn reindex_onto_a_tiny_dataset_idles_trailing_engines() {
        let engine = ShardedEngine::new(
            &cloud(400),
            ShardConfig::default()
                .with_shards(6)
                .with_engine(small_engines()),
        )
        .unwrap();
        let shards_before = engine.shard_count();
        let tiny = vec![
            Point::new(1.0, 1.0),
            Point::new(2.0, 3.0),
            Point::new(0.5, 2.5),
        ];
        engine.reindex(&tiny).unwrap();
        assert!(engine.shard_count() <= tiny.len());
        assert!(engine.shard_count() <= shards_before);
        assert_eq!(engine.data_len(), tiny.len());
        let q = vec![Point::new(0.0, 0.0), Point::new(3.0, 3.0)];
        let got = engine.query(&q).unwrap();
        assert_eq!(got.generation, 1);
        assert_eq!(
            got.skyline,
            naive_full(&tiny, &QueryContext::new(&q)).skyline
        );
        // And back up again: idle engines rejoin the fleet.
        let big = cloud(500);
        engine.reindex(&big).unwrap();
        assert_eq!(engine.generation(), 2);
        let got = engine.query(&q).unwrap();
        assert_eq!(got.generation, 2);
        assert_eq!(
            got.skyline,
            naive_full(&big, &QueryContext::new(&q)).skyline
        );
        engine.shutdown();
    }

    /// Two dense blobs in opposite corners plus a sparse bridge — the
    /// kind of skew that makes grid cells uneven.
    fn clustered(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let (bx, by) = if i % 2 == 0 { (0.0, 0.0) } else { (40.0, 30.0) };
                Point::new(
                    bx + (i % 13) as f64 * 0.31 + 1e-5 * i as f64,
                    by + ((i / 13) % 11) as f64 * 0.27 + 3e-6 * i as f64,
                )
            })
            .collect()
    }

    /// The dataset `ingest` publishes: the batch's inserts, normalized
    /// over the old dataset's footprint, refill the deleted global ids in
    /// order, the rest append, and surplus holes close by `swap_remove`
    /// from the top — the same ids as a single-engine
    /// `Snapshot::apply_delta`.
    fn apply_expected(data: &[Point], batch: &UpdateBatch) -> Vec<Point> {
        let mut b = batch.clone();
        b.normalize(&Rect::bounding(data.iter().copied()));
        let mut out = data.to_vec();
        let mut inserts = b.inserts.iter().copied();
        let mut holes = Vec::new();
        for &d in &b.deletes {
            match inserts.next() {
                Some(p) => out[d as usize] = p,
                None => holes.push(d),
            }
        }
        out.extend(inserts);
        for &h in holes.iter().rev() {
            out.swap_remove(h as usize);
        }
        out
    }

    /// The point every global id names in the current fleet.
    fn fleet_points(engine: &ShardedEngine) -> Vec<Point> {
        let fleet = engine.current_fleet();
        let mut points = vec![Point::new(f64::NAN, f64::NAN); engine.data_len()];
        for view in &fleet.views {
            for (&g, &p) in view.ids.iter().zip(view.snapshot.points()) {
                points[g as usize] = p;
            }
        }
        points
    }

    #[test]
    fn delta_ingest_matches_a_full_rebuild_oracle() {
        let q = vec![
            Point::new(5.0, 5.0),
            Point::new(14.0, 8.0),
            Point::new(9.0, 18.0),
        ];
        for data in [cloud(400), clustered(400)] {
            for policy in PartitionPolicy::ALL {
                for shards in [1, 2, 4] {
                    let config = ShardConfig::default()
                        .with_shards(shards)
                        .with_policy(policy)
                        .with_engine(small_engines());
                    let engine = ShardedEngine::new(&data, config).unwrap();
                    // Three stacked deltas: deletes spread across shards,
                    // inserts spread across the universe, each on top of
                    // the previous generation. The first two grow the
                    // fleet; the third shrinks it, so top ids move into
                    // the holes below.
                    let mut expected = data.clone();
                    for (round, batch) in [
                        UpdateBatch {
                            inserts: (0..40)
                                .map(|i| {
                                    Point::new(
                                        2.0 + (i % 8) as f64 * 2.11,
                                        1.5 + (i / 8) as f64 * 3.07,
                                    )
                                })
                                .collect(),
                            deletes: (0..expected.len() as u32).step_by(11).collect(),
                        },
                        UpdateBatch {
                            inserts: (0..25)
                                .map(|i| {
                                    Point::new(
                                        11.0 + (i % 5) as f64 * 1.7,
                                        6.0 + (i / 5) as f64 * 1.3,
                                    )
                                })
                                .collect(),
                            deletes: vec![0, 3, 5, 8, 13, 100, 200, 300],
                        },
                        UpdateBatch {
                            inserts: (0..6)
                                .map(|i| Point::new(3.3 + i as f64 * 2.9, 17.1 - i as f64))
                                .collect(),
                            deletes: (2..400).step_by(7).collect(),
                        },
                    ]
                    .into_iter()
                    .enumerate()
                    {
                        let report = engine.ingest(&batch).unwrap();
                        assert_eq!(report.generation, round as u64 + 1);
                        expected = apply_expected(&expected, &batch);
                        assert_eq!(engine.data_len(), expected.len());

                        let got = engine.query(&q).unwrap();
                        assert_eq!(got.generation, round as u64 + 1);
                        let want = naive_full(&expected, &QueryContext::new(&q)).skyline;
                        assert_eq!(
                            got.skyline, want,
                            "{policy}/{shards} shards, round {round}: delta fleet diverged from naive oracle"
                        );
                        // Byte-identical to a fresh fleet built from scratch
                        // over the same logical dataset.
                        let fresh = ShardedEngine::new(
                            &expected,
                            ShardConfig::default()
                                .with_shards(shards)
                                .with_policy(policy)
                                .with_engine(small_engines()),
                        )
                        .unwrap();
                        assert_eq!(
                            got.skyline,
                            fresh.query(&q).unwrap().skyline,
                            "{policy}/{shards} shards, round {round}: delta fleet diverged from full rebuild"
                        );
                        fresh.shutdown();
                    }
                    let m = engine.metrics();
                    assert_eq!(m.ingest.batches, 3);
                    assert_eq!(m.lifecycle.swaps, 3);
                    assert_eq!(m.lifecycle.generation, 3);
                    engine.shutdown();
                }
            }
        }
    }

    #[test]
    fn untouched_shards_share_their_snapshot_arc_across_generations() {
        let data = cloud(400);
        let engine = ShardedEngine::new(
            &data,
            ShardConfig::default()
                .with_shards(4)
                .with_policy(PartitionPolicy::KdSplit)
                .with_engine(small_engines()),
        )
        .unwrap();
        let before = engine.current_fleet();
        // One out, one in, both in shard 0: the batch moves no id, so
        // every other shard rides into the new generation whole — its
        // snapshot and its id table by Arc.
        let (a, b) = (
            before.views[0].snapshot.points()[0],
            before.views[0].snapshot.points()[1],
        );
        let batch = UpdateBatch {
            inserts: vec![Point::new((a.x + b.x) / 2.0, (a.y + b.y) / 2.0)],
            deletes: vec![before.views[0].ids[0]],
        };
        let report = engine.ingest(&batch).unwrap();
        assert_eq!(report.shards_touched, 1);
        assert!(!report.rebalanced);
        let after = engine.current_fleet();
        assert_eq!(after.views.len(), before.views.len());
        assert!(!Arc::ptr_eq(
            &before.views[0].snapshot,
            &after.views[0].snapshot
        ));
        for s in 1..before.views.len() {
            assert!(
                Arc::ptr_eq(&before.views[s].snapshot, &after.views[s].snapshot),
                "shard {s} was rebuilt despite an empty local delta"
            );
            assert_eq!(
                before.views[s].ids.as_ptr(),
                after.views[s].ids.as_ptr(),
                "shard {s}'s id table was rewritten"
            );
        }
        // A delete alone moves the top id into the hole: its shard keeps
        // its snapshot and patches one entry of its id table.
        let top = data.len() as u32 - 1;
        let owner = (0..after.views.len())
            .find(|&s| after.views[s].ids.contains(&top))
            .unwrap();
        let victim = after.views[(owner + 1) % after.views.len()].ids[0];
        engine
            .ingest(&UpdateBatch {
                inserts: vec![],
                deletes: vec![victim],
            })
            .unwrap();
        let last = engine.current_fleet();
        assert!(Arc::ptr_eq(
            &after.views[owner].snapshot,
            &last.views[owner].snapshot
        ));
        let l = after.views[owner]
            .ids
            .iter()
            .position(|&g| g == top)
            .unwrap();
        assert_eq!(last.views[owner].ids[l], victim);
        engine.shutdown();
    }

    #[test]
    fn a_surviving_global_id_keeps_its_point_across_a_hundred_publishes() {
        let data = clustered(600);
        let engine = ShardedEngine::new(
            &data,
            ShardConfig::default()
                .with_shards(4)
                .with_engine(small_engines()),
        )
        .unwrap();
        let mut points = data;
        for round in 0..100u32 {
            let k = 1 + round as usize % 3;
            let batch = UpdateBatch {
                inserts: (0..k)
                    .map(|j| {
                        Point::new(
                            20.0 + 0.13 * round as f64 + 0.011 * j as f64,
                            15.0 + 0.07 * j as f64,
                        )
                    })
                    .collect(),
                deletes: (0..k as u32)
                    .map(|j| (round * 53 + j * 191) % points.len() as u32)
                    .collect(),
            };
            engine.ingest(&batch).unwrap();
            let next = fleet_points(&engine);
            assert_eq!(next.len(), points.len());
            for (id, (&was, &now)) in points.iter().zip(&next).enumerate() {
                if !batch.deletes.contains(&(id as u32)) {
                    assert_eq!(was, now, "round {round}: id {id} lost its point");
                }
            }
            assert_eq!(next, apply_expected(&points, &batch), "round {round}");
            points = next;
        }
        let q = vec![Point::new(20.0, 15.0), Point::new(41.0, 31.0)];
        assert_eq!(
            engine.query(&q).unwrap().skyline,
            naive_full(&points, &QueryContext::new(&q)).skyline
        );
        engine.shutdown();
    }

    #[test]
    fn a_view_rect_stays_its_points_mbr_when_extremes_are_deleted() {
        let engine = ShardedEngine::new(
            &clustered(1200),
            ShardConfig::default()
                .with_shards(4)
                .with_engine(small_engines()),
        )
        .unwrap();
        let mut points = fleet_points(&engine);
        for round in 0..100u32 {
            // Delete every shard's four extreme points; as many inserts
            // land inside the data's footprint, so no shard grows past it.
            let fleet = engine.current_fleet();
            let mut deletes: Vec<u32> = Vec::new();
            for view in &fleet.views {
                let pts = view.snapshot.points();
                let coord = |l: usize, axis: usize| [pts[l].x, pts[l].y][axis];
                for axis in 0..2 {
                    let by = |a: &usize, b: &usize| coord(*a, axis).total_cmp(&coord(*b, axis));
                    let lo = (0..pts.len()).min_by(by).unwrap();
                    let hi = (0..pts.len()).max_by(by).unwrap();
                    for g in [view.ids[lo], view.ids[hi]] {
                        if !deletes.contains(&g) {
                            deletes.push(g);
                        }
                    }
                }
            }
            let inserts = (0..deletes.len())
                .map(|j| {
                    let (bx, by) = if j % 2 == 0 { (0.5, 0.5) } else { (40.5, 30.5) };
                    Point::new(
                        bx + 0.0071 * round as f64 + 0.013 * j as f64,
                        by + 0.0043 * round as f64 + 0.0029 * j as f64,
                    )
                })
                .collect();
            let batch = UpdateBatch { inserts, deletes };
            engine.ingest(&batch).unwrap();
            points = apply_expected(&points, &batch);
            for (s, view) in engine.current_fleet().views.iter().enumerate() {
                let pts = view.snapshot.points().iter().copied();
                assert_eq!(view.rect, Rect::bounding(pts), "round {round}, shard {s}");
            }
        }
        assert_eq!(fleet_points(&engine), points);
        let q = vec![Point::new(20.0, 15.0), Point::new(41.0, 31.0)];
        assert_eq!(
            engine.query(&q).unwrap().skyline,
            naive_full(&points, &QueryContext::new(&q)).skyline
        );
        engine.shutdown();
    }

    #[test]
    fn skewed_inserts_trigger_a_rebalance_and_stay_exact() {
        let data = cloud(300);
        let engine = ShardedEngine::new(
            &data,
            ShardConfig::default()
                .with_shards(2)
                .with_policy(PartitionPolicy::KdSplit)
                .with_engine(small_engines()),
        )
        .unwrap();
        // Pile ~320 inserts into one corner: one shard ends up holding
        // more than 2x the other, past the hysteresis gap.
        let batch = UpdateBatch {
            inserts: (0..320)
                .map(|i| {
                    Point::new(
                        0.013 + (i % 18) as f64 * 0.09,
                        0.017 + (i / 18) as f64 * 0.11 + 1e-4 * i as f64,
                    )
                })
                .collect(),
            deletes: vec![],
        };
        let report = engine.ingest(&batch).unwrap();
        assert!(report.rebalanced, "corner pile-up must trigger a rebalance");
        assert!(report.rebalance_moves > 0);
        let infos = engine.shard_infos();
        let (lo, hi) = infos.iter().fold((usize::MAX, 0), |(lo, hi), i| {
            (lo.min(i.len), hi.max(i.len))
        });
        assert!(
            hi <= REBALANCE_SKEW * lo,
            "rebalance left the fleet skewed ({lo}..{hi})"
        );
        let expected = apply_expected(&data, &batch);
        let q = vec![
            Point::new(0.5, 0.5),
            Point::new(4.0, 2.0),
            Point::new(1.5, 6.0),
        ];
        assert_eq!(
            engine.query(&q).unwrap().skyline,
            naive_full(&expected, &QueryContext::new(&q)).skyline,
            "post-rebalance fleet diverged from the oracle"
        );
        assert_eq!(
            engine.metrics().router.rebalance_moves,
            report.rebalance_moves as u64
        );
        engine.shutdown();
    }

    #[test]
    fn a_grown_fleet_splits_back_onto_idle_engines() {
        let engine = ShardedEngine::new(
            &cloud(300),
            ShardConfig::default()
                .with_shards(2)
                .with_engine(small_engines()),
        )
        .unwrap();
        // Collapse to one view (one point), leaving an engine idle.
        engine.reindex(&[Point::new(5.0, 5.0)]).unwrap();
        assert_eq!(engine.shard_count(), 1);
        // Grow past 2x the rebalance gap: the hot shard splits onto the
        // idle engine in the same publish.
        let batch = UpdateBatch {
            inserts: cloud(200),
            deletes: vec![],
        };
        let report = engine.ingest(&batch).unwrap();
        assert!(report.rebalanced);
        assert_eq!(engine.shard_count(), 2);
        assert_eq!(engine.data_len(), 201);
        let expected = apply_expected(&[Point::new(5.0, 5.0)], &batch);
        let q = vec![Point::new(4.0, 4.0), Point::new(10.0, 6.0)];
        assert_eq!(
            engine.query(&q).unwrap().skyline,
            naive_full(&expected, &QueryContext::new(&q)).skyline
        );
        engine.shutdown();
    }

    #[test]
    fn emptying_one_shard_drops_its_view_but_answers_stay_exact() {
        let data = cloud(200);
        let engine = ShardedEngine::new(
            &data,
            ShardConfig::default()
                .with_shards(2)
                .with_policy(PartitionPolicy::KdSplit)
                .with_engine(small_engines()),
        )
        .unwrap();
        let fleet = engine.current_fleet();
        assert_eq!(fleet.views.len(), 2);
        let batch = UpdateBatch {
            inserts: vec![],
            deletes: fleet.views[1].ids.clone(),
        };
        let report = engine.ingest(&batch).unwrap();
        assert_eq!(report.stats.deletes, fleet.views[1].ids.len());
        assert_eq!(engine.shard_count(), 1);
        let expected = apply_expected(&data, &batch);
        assert_eq!(engine.data_len(), expected.len());
        let q = vec![Point::new(3.0, 3.0), Point::new(8.0, 5.0)];
        assert_eq!(
            engine.query(&q).unwrap().skyline,
            naive_full(&expected, &QueryContext::new(&q)).skyline
        );
        engine.shutdown();
    }

    #[test]
    fn invalid_or_empty_batches_leave_the_fleet_untouched() {
        let data = cloud(150);
        let engine = ShardedEngine::new(
            &data,
            ShardConfig::default()
                .with_shards(3)
                .with_engine(small_engines()),
        )
        .unwrap();
        // Out-of-range delete: typed error, nothing published.
        let bad = UpdateBatch {
            inserts: vec![],
            deletes: vec![data.len() as u32],
        };
        assert!(matches!(
            engine.ingest(&bad),
            Err(ShardError::Engine(EngineError::Index(_)))
        ));
        // Emptying the whole fleet is rejected up front.
        let drain = UpdateBatch {
            inserts: vec![],
            deletes: (0..data.len() as u32).collect(),
        };
        assert!(matches!(
            engine.ingest(&drain),
            Err(ShardError::Engine(EngineError::Index(_)))
        ));
        // An empty batch publishes nothing and reports the current gen.
        let report = engine.ingest(&UpdateBatch::new()).unwrap();
        assert_eq!(report.generation, 0);
        assert_eq!(report.shards_touched, 0);
        assert_eq!(engine.generation(), 0);
        assert_eq!(engine.data_len(), data.len());
        assert_eq!(
            engine.metrics().ingest.batches,
            0,
            "rejected and empty batches must not count as publishes"
        );
        engine.shutdown();
    }

    #[test]
    fn failed_reindex_leaves_the_fleet_untouched() {
        let data = cloud(200);
        let engine = ShardedEngine::new(
            &data,
            ShardConfig::default()
                .with_shards(3)
                .with_engine(small_engines()),
        )
        .unwrap();
        assert!(matches!(
            engine.reindex(&[]),
            Err(ShardError::Engine(EngineError::EmptyDataset))
        ));
        let dup = vec![Point::new(1.0, 1.0), Point::new(1.0, 1.0)];
        assert!(matches!(
            engine.reindex(&dup),
            Err(ShardError::Engine(EngineError::Index(_)))
        ));
        assert_eq!(engine.generation(), 0);
        assert_eq!(engine.data_len(), data.len());
        assert_eq!(engine.metrics().lifecycle.swaps, 0);
        let q = vec![Point::new(4.0, 4.0), Point::new(10.0, 6.0)];
        assert_eq!(
            engine.query(&q).unwrap().skyline,
            naive_full(&data, &QueryContext::new(&q)).skyline
        );
        engine.shutdown();
    }
}
