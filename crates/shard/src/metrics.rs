//! Router-side observability: per-query shard fan-out, pruning
//! effectiveness, merge workload, and end-to-end latency — plus the
//! aggregated fleet view over every shard engine's own metrics.
//!
//! The counters are rows of the table in [`ssq_engine::metrics`]: the
//! `router` group, and a router-level instance of the `lifecycle` and
//! `ingest` groups every engine also keeps.

use ssq_core::DeltaStats;
use ssq_engine::metrics::{IngestCells, LifecycleCells, RouterCells};
use ssq_engine::{CounterSet, LatencyHistogram, LatencySnapshot, MetricsSnapshot};
use std::sync::atomic::Ordering;
use std::time::Duration;

/// Shared counters for one [`ShardedEngine`](crate::ShardedEngine).
#[derive(Default)]
pub struct ShardMetrics {
    router: RouterCells,
    // Fleet generation routed to, and fleet-wide reindexes published
    // (one per `reindex`, regardless of shard count — the folded engine
    // view counts each shard's install).
    pub(crate) lifecycle: LifecycleCells,
    // Fleet-level delta ingest: *batches* routed through the router, not
    // per-shard applications — a batch touching three shards is one
    // incremental batch here.
    ingest: IngestCells,
    latency: LatencyHistogram,
}

impl ShardMetrics {
    /// Creates zeroed metrics.
    pub fn new() -> ShardMetrics {
        ShardMetrics::default()
    }

    /// Records one routed query: how many shards ran, how many the
    /// pruning bound skipped, how many candidates the merge saw, and the
    /// end-to-end latency (routing + slowest shard + merge).
    pub fn record_query(&self, queried: u64, pruned: u64, candidates: u64, latency: Duration) {
        let r = &self.router;
        r.queries.fetch_add(1, Ordering::Relaxed);
        r.shards_queried.fetch_add(queried, Ordering::Relaxed);
        r.shards_pruned.fetch_add(pruned, Ordering::Relaxed);
        r.merge_candidates.fetch_add(candidates, Ordering::Relaxed);
        self.latency.record(latency);
    }

    /// Records one fleet delta publish: the aggregated per-shard
    /// maintenance stats, the wall-clock cost of the publish (routing +
    /// every touched shard's delta build + any rebalance rebuilds), and
    /// how many points a rebalance moved between shards (zero when none
    /// fired).
    pub fn record_ingest(&self, stats: &DeltaStats, build: Duration, moves: u64) {
        self.ingest.record_ingest(stats, build);
        self.router
            .rebalance_moves
            .fetch_add(moves, Ordering::Relaxed);
    }

    /// A point-in-time copy, with the per-shard engine snapshots folded
    /// into one fleet-wide [`MetricsSnapshot`].
    pub fn snapshot<'a>(
        &self,
        engines: impl IntoIterator<Item = &'a MetricsSnapshot>,
    ) -> ShardedMetricsSnapshot {
        let mut fleet = MetricsSnapshot::default();
        for snap in engines {
            fleet.absorb(snap);
        }
        ShardedMetricsSnapshot {
            counters: CounterSet {
                router: self.router.snapshot(),
                lifecycle: self.lifecycle.snapshot(),
                ingest: self.ingest.snapshot(),
                ..fleet.counters
            },
            latency: self.latency.snapshot(),
            engines: fleet,
        }
    }
}

/// A point-in-time copy of a sharded engine's metrics; the counter
/// groups are reachable directly (`m.router.queries`) through `Deref`.
#[derive(Clone)]
pub struct ShardedMetricsSnapshot {
    /// The fleet's scalar counters: the router's own `router`,
    /// `lifecycle` (one swap per fleet-wide reindex) and `ingest`
    /// (batches routed), beside the shard engines' `engine`, `work` and
    /// `diagram` folded together. `engines` keeps the shard engines' own
    /// `lifecycle` and `ingest` (per-engine installs; batches applied
    /// directly to a shard, zero under router-driven ingest).
    pub counters: CounterSet,
    /// End-to-end latency histogram of routed queries.
    pub latency: LatencySnapshot,
    /// Every shard engine's metrics folded into one fleet view
    /// (including per-engine swap counts and queries per generation).
    pub engines: MetricsSnapshot,
}

impl std::ops::Deref for ShardedMetricsSnapshot {
    type Target = CounterSet;

    fn deref(&self) -> &CounterSet {
        &self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fanout_and_prune_rates() {
        let m = ShardMetrics::new();
        m.record_query(4, 0, 10, Duration::from_micros(5));
        m.record_query(1, 3, 3, Duration::from_micros(2));
        let no_engines: [&MetricsSnapshot; 0] = [];
        let s = m.snapshot(no_engines);
        assert_eq!(s.router.queries, 2);
        assert_eq!(s.router.shards_queried, 5);
        assert_eq!(s.router.shards_pruned, 3);
        assert_eq!(s.router.merge_candidates, 13);
        assert!((s.router.mean_fanout() - 2.5).abs() < 1e-12);
        assert!((s.router.prune_rate() - 3.0 / 8.0).abs() < 1e-12);
        assert_eq!(s.latency.count(), 2);
        assert_eq!(s.engines.engine.queries(), 0);
        assert_eq!(s.lifecycle, Default::default());
    }

    #[test]
    fn ingest_accounting() {
        let m = ShardMetrics::new();
        m.record_ingest(
            &DeltaStats {
                inserts: 10,
                deletes: 4,
                incremental: true,
                dirty_cells: 37,
            },
            Duration::from_micros(800),
            0,
        );
        m.record_ingest(
            &DeltaStats {
                inserts: 2,
                deletes: 0,
                incremental: false,
                dirty_cells: 0,
            },
            Duration::from_micros(300),
            5,
        );
        let no_engines: [&MetricsSnapshot; 0] = [];
        let s = m.snapshot(no_engines);
        assert_eq!(s.ingest.batches, 2);
        assert_eq!(s.ingest.inserts, 12);
        assert_eq!(s.ingest.deletes, 4);
        assert_eq!(s.ingest.incremental, 1);
        assert_eq!(s.ingest.rebuilds, 1);
        assert_eq!(s.ingest.dirty_cells, 37);
        assert_eq!(s.ingest.last_batch_ops, 2);
        assert_eq!(s.ingest.last_build_nanos, 300_000);
        assert_eq!(s.router.rebalance_moves, 5);
        // The folded engine view stays untouched by router-level ingest.
        assert_eq!(s.engines.ingest.batches, 0);
    }

    #[test]
    fn swap_accounting() {
        let m = ShardMetrics::new();
        m.lifecycle.record_swap(1, Duration::from_millis(9));
        m.lifecycle.record_swap(2, Duration::from_millis(4));
        let no_engines: [&MetricsSnapshot; 0] = [];
        let s = m.snapshot(no_engines).lifecycle;
        assert_eq!(s.generation, 2);
        assert_eq!(s.swaps, 2);
        assert_eq!(s.last_build_nanos, 4_000_000);
    }

    #[test]
    fn counters_put_the_router_groups_beside_the_folded_engines() {
        let m = ShardMetrics::new();
        m.record_query(2, 2, 7, Duration::from_micros(3));
        m.lifecycle.record_swap(3, Duration::from_millis(1));
        let mut shard = MetricsSnapshot::default();
        shard.counters.engine.cache_hits = 9;
        shard.counters.lifecycle.swaps = 40; // per-engine installs: shadowed
        let c = m.snapshot([&shard, &shard]).counters;
        assert_eq!(c.router.queries, 1);
        assert_eq!(c.lifecycle.generation, 3);
        assert_eq!(c.lifecycle.swaps, 1);
        assert_eq!(c.engine.cache_hits, 18);
        assert_eq!(c.net, Default::default());
    }
}
