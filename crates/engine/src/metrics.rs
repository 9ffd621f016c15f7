//! Observability for the whole serving stack, declared once.
//!
//! Every scalar counter — the engine's, the shard router's, the socket
//! front-end's — is one row of the `counter_groups!` table below: field
//! name, merge rule, unit, doc line. The live atomic cells, the snapshot
//! structs, the fleet merge, the `StatsResult` wire order and the
//! `ssq_<group>_<name> <value>` rendering all expand from that row. The
//! `record_*` methods stay ordinary code: they hold the semantics.
//!
//! Everything is lock-free except the per-generation query tally (a
//! plain mutex bumped once per finished query — nanoseconds next to an
//! algorithm run). Latencies go into power-of-two nanosecond buckets, so
//! percentile estimates are upper bounds with at most 2× resolution —
//! plenty for a throughput report, constant memory forever.

use crate::planner::Algorithm;
use crate::sync::{RankedMutex, RANK_METRICS};
use ssq_core::{DeltaStats, QueryStats};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const BUCKETS: usize = 64;

/// A histogram of durations in power-of-two nanosecond buckets.
///
/// Bucket `i` (for `i >= 1`) covers `[2^(i-1), 2^i)` nanoseconds; bucket 0
/// holds exact zeros. Recording is a single relaxed `fetch_add`.
pub struct LatencyHistogram {
    counts: [AtomicU64; BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn bucket(nanos: u64) -> usize {
        (64 - nanos.leading_zeros() as usize).min(BUCKETS - 1)
    }

    /// Records one duration.
    pub fn record(&self, d: Duration) {
        let nanos = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.counts[Self::bucket(nanos)].fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> LatencySnapshot {
        LatencySnapshot {
            counts: std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed)),
        }
    }
}

/// An immutable copy of a [`LatencyHistogram`].
#[derive(Clone)]
pub struct LatencySnapshot {
    counts: [u64; BUCKETS],
}

impl Default for LatencySnapshot {
    fn default() -> LatencySnapshot {
        LatencySnapshot {
            counts: [0; BUCKETS],
        }
    }
}

impl LatencySnapshot {
    /// Total number of recorded durations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Adds every bucket of `other` into `self`. Because the buckets are
    /// fixed power-of-two ranges, merging histograms from different
    /// engines (e.g. one per shard) is exact.
    pub fn absorb(&mut self, other: &LatencySnapshot) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`) as an upper bound: the top edge
    /// of the bucket holding that rank. Zero when nothing was recorded.
    pub fn percentile(&self, q: f64) -> Duration {
        let total = self.count();
        if total == 0 {
            return Duration::ZERO;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                // Upper edge of bucket i: 2^i ns (bucket 0 holds zeros).
                let nanos = if i == 0 { 0 } else { 1u64 << i.min(63) };
                return Duration::from_nanos(nanos);
            }
        }
        Duration::from_nanos(u64::MAX)
    }
}

/// How a counter folds into a fleet view ([`CounterSet::absorb`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Merge {
    /// The fleet value is the total (saturating, so a fold cannot panic).
    Sum,
    /// The fleet value is the largest: generations (a router stamps every
    /// shard from one counter) and "most recent build took" durations
    /// (the slowest shard is the fleet's effective cost).
    Max,
}

impl Merge {
    /// Folds `b` into `a` by this rule.
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            Merge::Sum => a.saturating_add(b),
            Merge::Max => a.max(b),
        }
    }
}

/// What a counter's value measures. The field name says it too
/// (`*_nanos`, `bytes_*`); the registry test holds the two together.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unit {
    /// A dimensionless count (events, points, cells, a generation).
    Count,
    /// Wall-clock nanoseconds.
    Nanos,
    /// Bytes.
    Bytes,
}

/// One row of the counter table, as [`CounterSet::ROWS`] lists it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Row {
    /// The group the counter belongs to (a [`CounterSet`] field).
    pub group: &'static str,
    /// The field name, on the snapshot struct and on the live cells.
    pub name: &'static str,
    /// How the counter folds into a fleet view.
    pub merge: Merge,
    /// What the value measures.
    pub unit: Unit,
}

/// Declares the counter table, one `name: merge unit "doc",` row per
/// counter: per group a plain snapshot struct and its live [`AtomicU64`]
/// cells, over all groups the [`CounterSet`]. The expansion is
/// straight-line field access: no indexing, no `unwrap`, no allocation.
macro_rules! counter_groups {
    ($(
        $(#[$gdoc:meta])*
        $group:ident: $Counters:ident / $Cells:ident {
            $( $field:ident: $merge:ident $unit:ident $doc:literal, )+
        }
    )+) => {
        $(
            $(#[$gdoc])*
            #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
            pub struct $Counters {
                $( #[doc = $doc] pub $field: u64, )+
            }

            #[doc = concat!("The live cells behind [`", stringify!($Counters), "`].")]
            #[derive(Debug, Default)]
            pub struct $Cells {
                $( #[doc = $doc] pub $field: AtomicU64, )+
            }

            impl $Cells {
                /// A point-in-time copy of every cell (relaxed loads).
                pub fn snapshot(&self) -> $Counters {
                    $Counters { $( $field: self.$field.load(Ordering::Relaxed), )+ }
                }
            }
        )+

        /// Every counter group side by side: the scalar counters of one
        /// source (an engine, a fleet, a server) — what a `StatsResult`
        /// frame carries and [`CounterSet::render`] prints. A group the
        /// source does not record into reads zero.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct CounterSet {
            $( $(#[$gdoc])* pub $group: $Counters, )+
        }

        impl CounterSet {
            /// Every row in declaration order, which is also the order
            /// of the wire encoding.
            pub const ROWS: &'static [Row] = &[
                $( $( Row {
                    group: stringify!($group),
                    name: stringify!($field),
                    merge: Merge::$merge,
                    unit: Unit::$unit,
                }, )+ )+
            ];

            /// Folds another source's counters into this one, every row
            /// by its declared [`Merge`] rule — the fleet view.
            pub fn absorb(&mut self, other: &CounterSet) {
                $( $(
                    self.$group.$field = Merge::$merge.apply(self.$group.$field, other.$group.$field);
                )+ )+
            }

            /// Calls `f` with every `(group, name, value)` in declaration
            /// order.
            pub fn each(&self, mut f: impl FnMut(&'static str, &'static str, u64)) {
                $( $( f(stringify!($group), stringify!($field), self.$group.$field); )+ )+
            }

            /// Reads one word per row from `word`, in declaration order;
            /// stops at the first error.
            pub fn decode<E>(mut word: impl FnMut() -> Result<u64, E>) -> Result<CounterSet, E> {
                let mut set = CounterSet::default();
                $( $( set.$group.$field = word()?; )+ )+
                Ok(set)
            }

            /// For the registry test: stores 1, 2, 3, … into fresh live
            /// cells in declaration order and snapshots them.
            #[cfg(test)]
            fn snapshot_of_numbered_cells() -> CounterSet {
                let mut n = 0;
                $(
                    let $group = $Cells::default();
                    $( n += 1; $group.$field.store(n, Ordering::Relaxed); )+
                )+
                CounterSet { $( $group: $group.snapshot(), )+ }
            }
        }
    };
}

counter_groups! {
    /// The engine's front door: finished queries per algorithm, the
    /// context cache, continuous sessions, ingest admission.
    engine: EngineCounters / EngineCells {
        requests_naive: Sum Count "Snapshot queries answered by the sorted naive scan.",
        requests_bbs: Sum Count "Snapshot queries answered by BBS.",
        requests_b2s2: Sum Count "Snapshot queries answered by B²S².",
        requests_vs2: Sum Count "Snapshot queries answered by VS².",
        cache_hits: Sum Count "Context-cache hits.",
        cache_misses: Sum Count "Context-cache misses.",
        sessions_opened: Sum Count "Continuous sessions opened over the engine's lifetime.",
        session_updates: Sum Count "Motion updates applied across all sessions.",
        ingest_shed: Sum Count "Delta batches refused because the ingest queue was full.",
    }
    /// Dataset lifetime: which generation is served and what publishing
    /// it cost. An engine keeps one, and so does a shard router (whose
    /// `swaps` count fleet-wide reindexes, whatever the shard count).
    lifecycle: LifecycleCounters / LifecycleCells {
        generation: Max Count "Snapshot generation being served.",
        swaps: Sum Count "Reindexes published.",
        last_build_nanos: Max Nanos "Cost of the most recent reindex build; 0 until the first.",
    }
    /// The paper's work counters ([`QueryStats`]), summed over every
    /// finished query and session update.
    work: WorkCounters / WorkCells {
        dominance_checks: Sum Count "Pairwise dominance checks (Fig. 12b/e).",
        distance_computations: Sum Count "Point-to-point distance evaluations.",
        node_accesses: Sum Count "Index nodes read (Fig. 12c/f).",
        points_examined: Sum Count "Data points whose dominance was actually examined.",
        entries_visited: Sum Count "Entries visited by the traversal.",
        allocations: Sum Count "Tracked heap allocations on the query path.",
    }
    /// The skyline diagram. All zero while the diagram is disabled.
    diagram: DiagramCounters / DiagramCells {
        hits: Sum Count "Queries answered straight from the diagram (no algorithm ran).",
        misses: Sum Count "Probes that fell through to the planner.",
        cells: Sum Count "Key cells the diagram holds, of any generation.",
        build_nanos: Max Nanos "Duration of the most recent warm start.",
        warmed: Sum Count "Keys warm starts admitted into the diagram.",
    }
    /// Streaming ingest: the publish cost of the delta pipeline. An
    /// engine counts batches applied to its own catalog; a shard router
    /// counts batches routed through it (the shard engines' own groups
    /// then stay zero: the router installs their snapshots itself).
    ingest: IngestCounters / IngestCells {
        batches: Sum Count "Delta batches published as new generations.",
        inserts: Sum Count "Points inserted across all batches.",
        deletes: Sum Count "Points deleted across all batches.",
        incremental: Sum Count "Publishes that ran the incremental (delta) index path.",
        rebuilds: Sum Count "Publishes that fell back to a full index rebuild.",
        dirty_cells: Sum Count "Voronoi cells recomputed across all incremental publishes.",
        last_batch_ops: Sum Count "Operations (inserts + deletes) in the most recent batch.",
        last_build_nanos: Max Nanos "Cost of the most recent delta publish.",
    }
    /// The socket front-end, recorded by an `ssq-net` server.
    net: NetCounters / NetCells {
        accepted: Sum Count "Connections accepted over the server's lifetime.",
        active: Sum Count "Connections currently open.",
        shed_connections: Sum Count "Connections refused at the cap (sent `RetryLater`, closed).",
        shed_requests: Sum Count "Requests refused: the client window or engine queue was full.",
        bytes_in: Sum Bytes "Bytes read off sockets.",
        bytes_out: Sum Bytes "Bytes written to sockets.",
        frame_errors: Sum Count "Malformed, oversized or wrong-version frames (each one fatal).",
        write_timeouts: Sum Count "Writes abandoned on a socket stalled past the write timeout.",
    }
    /// The shard router's fan-out, recorded by an `ssq-shard` router.
    router: RouterCounters / RouterCells {
        queries: Sum Count "Queries routed.",
        shards_queried: Sum Count "Shard sub-queries actually executed, summed over queries.",
        shards_pruned: Sum Count "Shards skipped by the dominance bound, summed over queries.",
        merge_candidates: Sum Count "Candidates fed to the cross-shard merge, summed over queries.",
        rebalance_moves: Sum Count "Points moved between shards by fleet rebalances.",
    }
}

/// `part / whole`, or 0.0 while `whole` is still zero — the one shape
/// every derived rate (hit rates, mean fan-out, prune rate) has.
fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// A duration as saturating nanoseconds, the form a [`Unit::Nanos`]
/// cell stores.
fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl CounterSet {
    /// Appends the encoding: every value as a little-endian `u64`, in
    /// [`ROWS`](CounterSet::ROWS) order.
    pub fn encode(&self, out: &mut Vec<u8>) {
        self.each(|_, _, value| out.extend_from_slice(&value.to_le_bytes()));
    }

    /// One `ssq_<group>_<name> <value>` line per counter, then one per
    /// derived rate, leaving out the groups in `skip` — the ones the
    /// source does not record into (`net` without a server, `router`
    /// without a fleet), which could only print zeros.
    pub fn render(&self, skip: &[&str]) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        // Writing to a String cannot fail.
        self.each(|group, name, value| {
            if !skip.contains(&group) {
                let _ = writeln!(out, "ssq_{group}_{name} {value}");
            }
        });
        let rates = [
            ("engine", "cache_hit_rate", self.engine.cache_hit_rate()),
            ("diagram", "hit_rate", self.diagram.hit_rate()),
            ("router", "mean_fanout", self.router.mean_fanout()),
            ("router", "prune_rate", self.router.prune_rate()),
        ];
        for (group, name, value) in rates {
            if !skip.contains(&group) {
                let _ = writeln!(out, "ssq_{group}_{name} {value:.4}");
            }
        }
        out
    }
}

impl EngineCounters {
    /// Requests served by `algorithm`.
    pub fn requests_for(&self, algorithm: Algorithm) -> u64 {
        match algorithm {
            Algorithm::Naive => self.requests_naive,
            Algorithm::Bbs => self.requests_bbs,
            Algorithm::B2s2 => self.requests_b2s2,
            Algorithm::Vs2 => self.requests_vs2,
        }
    }

    /// Completed snapshot queries answered by a skyline algorithm (sum
    /// over algorithms). Diagram hits are counted separately
    /// ([`DiagramCounters::hits`]); total served is the two together.
    pub fn queries(&self) -> u64 {
        Algorithm::ALL.iter().map(|&a| self.requests_for(a)).sum()
    }

    /// Cache hits / lookups, or 0.0 before any lookup.
    pub fn cache_hit_rate(&self) -> f64 {
        ratio(self.cache_hits, self.cache_hits + self.cache_misses)
    }
}

impl DiagramCounters {
    /// Hits / probes, or 0.0 before any probe.
    pub fn hit_rate(&self) -> f64 {
        ratio(self.hits, self.hits + self.misses)
    }
}

impl RouterCounters {
    /// Mean shards executed per query, or 0.0 before any query.
    pub fn mean_fanout(&self) -> f64 {
        ratio(self.shards_queried, self.queries)
    }

    /// Fraction of shard visits avoided by pruning, or 0.0.
    pub fn prune_rate(&self) -> f64 {
        ratio(self.shards_pruned, self.shards_queried + self.shards_pruned)
    }
}

impl LifecycleCells {
    /// Records the generation being served (at construction and after
    /// every install).
    pub fn note_generation(&self, generation: u64) {
        self.generation.store(generation, Ordering::Relaxed);
    }

    /// Records one published reindex: the new generation and how long
    /// its off-line build took.
    pub fn record_swap(&self, generation: u64, build: Duration) {
        self.swaps.fetch_add(1, Ordering::Relaxed);
        self.note_generation(generation);
        self.last_build_nanos.store(nanos(build), Ordering::Relaxed);
    }
}

impl IngestCells {
    /// Records one delta batch published as a new generation: what the
    /// batch contained, whether the incremental path ran, and how long
    /// the publish (delta build + install) took.
    pub fn record_ingest(&self, stats: &DeltaStats, build: Duration) {
        let outcome = if stats.incremental {
            &self.incremental
        } else {
            &self.rebuilds
        };
        for (cell, n) in [
            (&self.batches, 1),
            (&self.inserts, stats.inserts),
            (&self.deletes, stats.deletes),
            (outcome, 1),
            (&self.dirty_cells, stats.dirty_cells),
        ] {
            cell.fetch_add(n as u64, Ordering::Relaxed);
        }
        self.last_batch_ops
            .store((stats.inserts + stats.deletes) as u64, Ordering::Relaxed);
        self.last_build_nanos.store(nanos(build), Ordering::Relaxed);
    }
}

/// Shared counters for one [`Engine`](crate::Engine): five groups of
/// the counter table plus the members that are not words.
pub struct EngineMetrics {
    engine: EngineCells,
    pub(crate) lifecycle: LifecycleCells,
    work: WorkCells,
    diagram: DiagramCells,
    pub(crate) ingest: IngestCells,
    /// Queries served per snapshot generation — the observable form of
    /// "dataset lifetime": a generation whose count stops moving has
    /// fully drained. Behind the engine's rank-600 leaf lock.
    per_generation: RankedMutex<BTreeMap<u64, u64>>,
    latency: LatencyHistogram,
}

impl Default for EngineMetrics {
    fn default() -> EngineMetrics {
        EngineMetrics::new()
    }
}

impl EngineMetrics {
    /// Creates zeroed metrics.
    pub fn new() -> EngineMetrics {
        EngineMetrics {
            engine: EngineCells::default(),
            lifecycle: LifecycleCells::default(),
            work: WorkCells::default(),
            diagram: DiagramCells::default(),
            ingest: IngestCells::default(),
            per_generation: RankedMutex::new("engine.metrics", RANK_METRICS, BTreeMap::new()),
            latency: LatencyHistogram::new(),
        }
    }

    /// The metrics lock's `(name, rank)`, for lock-order assertions.
    pub fn lock_info(&self) -> (&'static str, u32) {
        (self.per_generation.name(), self.per_generation.rank())
    }

    /// Records a cache lookup outcome.
    pub fn record_cache(&self, hit: bool) {
        let e = &self.engine;
        let cell = if hit { &e.cache_hits } else { &e.cache_misses };
        cell.fetch_add(1, Ordering::Relaxed);
    }

    /// One query's or update's work counters into the aggregate.
    fn record_work(&self, stats: &QueryStats) {
        let w = &self.work;
        for (cell, n) in [
            (&w.dominance_checks, stats.dominance_checks),
            (&w.distance_computations, stats.distance_computations),
            (&w.node_accesses, stats.node_accesses),
            (&w.points_examined, stats.points_examined),
            (&w.entries_visited, stats.entries_visited),
            (&w.allocations, stats.allocations),
        ] {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// One more answer served against `generation`.
    fn record_served(&self, generation: u64, latency: Duration) {
        *self.per_generation.lock().entry(generation).or_insert(0) += 1;
        self.latency.record(latency);
    }

    /// Records one finished snapshot query: which algorithm ran, which
    /// dataset generation it was answered against, how long it took end
    /// to end, and its work counters.
    pub fn record_query(
        &self,
        algorithm: Algorithm,
        generation: u64,
        latency: Duration,
        stats: &QueryStats,
    ) {
        let e = &self.engine;
        let requests = match algorithm {
            Algorithm::Naive => &e.requests_naive,
            Algorithm::Bbs => &e.requests_bbs,
            Algorithm::B2s2 => &e.requests_b2s2,
            Algorithm::Vs2 => &e.requests_vs2,
        };
        requests.fetch_add(1, Ordering::Relaxed);
        self.record_work(stats);
        self.record_served(generation, latency);
    }

    /// Records one query answered straight from the skyline diagram.
    ///
    /// Diagram hits are deliberately *not* counted in the per-algorithm
    /// requests — no algorithm ran — but they do join the latency
    /// histogram and the per-generation tallies, so total served is
    /// `engine.queries() + diagram.hits`.
    pub fn record_diagram_hit(&self, generation: u64, latency: Duration) {
        self.diagram.hits.fetch_add(1, Ordering::Relaxed);
        self.record_served(generation, latency);
    }

    /// Records a diagram probe that fell through to the planner.
    pub fn record_diagram_miss(&self) {
        self.diagram.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the number of key cells the diagram holds after an
    /// admission.
    pub fn record_diagram_cells(&self, cells: u64) {
        self.diagram.cells.store(cells, Ordering::Relaxed);
    }

    /// Records a warm start: the keys it admitted into the diagram and
    /// its wall-clock duration.
    pub fn record_warm_start(&self, admitted: u64, took: Duration) {
        let d = &self.diagram;
        d.warmed.fetch_add(admitted, Ordering::Relaxed);
        d.build_nanos.store(nanos(took), Ordering::Relaxed);
    }

    /// Records a batch refused by ingest admission control (the ingest
    /// queue was at capacity).
    pub fn record_ingest_shed(&self) {
        self.engine.ingest_shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a continuous session being opened.
    pub fn record_session_opened(&self) {
        self.engine.sessions_opened.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one applied motion update (kept out of the query latency
    /// histogram: updates and snapshot queries are different workloads).
    pub fn record_session_update(&self, stats: &QueryStats) {
        self.engine.session_updates.fetch_add(1, Ordering::Relaxed);
        self.record_work(stats);
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: CounterSet {
                engine: self.engine.snapshot(),
                lifecycle: self.lifecycle.snapshot(),
                work: self.work.snapshot(),
                diagram: self.diagram.snapshot(),
                ingest: self.ingest.snapshot(),
                ..CounterSet::default()
            },
            queries_per_generation: self.per_generation.lock().clone(),
            latency: self.latency.snapshot(),
            kernel_path: ssq_geom::simd::path_name(),
        }
    }
}

/// A point-in-time copy of an engine's metrics: its counter groups
/// (reachable directly, `m.diagram.hits`, through `Deref`) plus the
/// three members that are not words.
#[derive(Clone, Default)]
pub struct MetricsSnapshot {
    /// The scalar counters. `net` and `router` belong to the layers
    /// above an engine and read zero here.
    pub counters: CounterSet,
    /// Queries served per snapshot generation, in generation order.
    pub queries_per_generation: BTreeMap<u64, u64>,
    /// Latency histogram of snapshot queries.
    pub latency: LatencySnapshot,
    /// The tile-kernel dispatch serving this engine's scratch kernels
    /// (`"scalar"`, `"sse2"`, or `"avx2"` — see
    /// [`ssq_geom::simd::path_name`]). Empty on a default snapshot that
    /// never came from a live engine.
    pub kernel_path: &'static str,
}

impl std::ops::Deref for MetricsSnapshot {
    type Target = CounterSet;

    fn deref(&self) -> &CounterSet {
        &self.counters
    }
}

impl MetricsSnapshot {
    /// Folds another snapshot into this one — the fleet view over many
    /// engines. Counters merge by their declared rule, histograms merge
    /// bucket-wise; every derived quantity (queries, percentiles, hit
    /// rates) then reads as the combined population.
    pub fn absorb(&mut self, other: &MetricsSnapshot) {
        self.counters.absorb(&other.counters);
        for (&generation, &count) in &other.queries_per_generation {
            *self.queries_per_generation.entry(generation).or_insert(0) += count;
        }
        self.latency.absorb(&other.latency);
        // Every shard in a fleet shares one process, hence one detected
        // dispatch — absorbing just fills in an unset fleet view.
        if self.kernel_path.is_empty() {
            self.kernel_path = other.kernel_path;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        assert_eq!(LatencyHistogram::bucket(0), 0);
        assert_eq!(LatencyHistogram::bucket(1), 1);
        assert_eq!(LatencyHistogram::bucket(2), 2);
        assert_eq!(LatencyHistogram::bucket(3), 2);
        assert_eq!(LatencyHistogram::bucket(4), 3);
        assert_eq!(LatencyHistogram::bucket(1023), 10);
        assert_eq!(LatencyHistogram::bucket(1024), 11);
        assert_eq!(LatencyHistogram::bucket(u64::MAX), 63);
    }

    #[test]
    fn percentiles_are_monotone_upper_bounds() {
        let h = LatencyHistogram::new();
        for nanos in [100u64, 200, 400, 800, 1600, 3200, 6400, 12800] {
            h.record(Duration::from_nanos(nanos));
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 8);
        let p50 = s.percentile(0.5);
        let p99 = s.percentile(0.99);
        assert!(p50 >= Duration::from_nanos(800), "p50 = {p50:?}");
        assert!(p99 >= p50);
        // Upper bound: the largest sample (12800 ns) sits in [8192, 16384).
        assert!(p99 <= Duration::from_nanos(16384), "p99 = {p99:?}");
    }

    #[test]
    fn snapshot_reports_the_dispatched_kernel_path() {
        let s = EngineMetrics::new().snapshot();
        assert_eq!(s.kernel_path, ssq_geom::simd::path_name());
        let mut fleet = MetricsSnapshot::default();
        assert!(fleet.kernel_path.is_empty());
        fleet.absorb(&s);
        assert_eq!(fleet.kernel_path, s.kernel_path);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let s = LatencyHistogram::new().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.percentile(0.5), Duration::ZERO);
    }

    #[test]
    fn registry_rows_cells_codec_and_merge_agree() {
        let rows = CounterSet::ROWS;
        // Live cells numbered 1, 2, 3, … in declaration order read back
        // through snapshot() in `each` order, which is ROWS order.
        let set = CounterSet::snapshot_of_numbered_cells();
        let mut seen = Vec::new();
        set.each(|group, name, value| seen.push((group, name, value)));
        assert_eq!(seen.len(), rows.len(), "one word per row");
        for (i, (row, &(group, name, value))) in rows.iter().zip(&seen).enumerate() {
            assert_eq!((row.group, row.name), (group, name), "codec order");
            assert_eq!(value, i as u64 + 1, "{group}.{name} did not read back");
            let twins = rows.iter().filter(|r| (r.group, r.name) == (group, name));
            assert_eq!(twins.count(), 1, "{group}.{name} declared twice");
            assert_eq!(row.unit == Unit::Nanos, name.ends_with("_nanos"), "{name}");
            assert_eq!(
                row.unit == Unit::Bytes,
                name.starts_with("bytes_"),
                "{name}"
            );
        }

        // decode(encode(s)) == s; one word short is an error, not a panic.
        let mut bytes = Vec::new();
        set.encode(&mut bytes);
        assert_eq!(bytes.len(), 8 * rows.len());
        let decode = |bytes: &[u8]| {
            let mut words = bytes.chunks_exact(8);
            CounterSet::decode(|| {
                let word = words.next().ok_or("truncated")?;
                Ok(u64::from_le_bytes(word.try_into().unwrap()))
            })
        };
        assert_eq!(decode(&bytes), Ok(set));
        assert_eq!(decode(&bytes[..bytes.len() - 8]), Err("truncated"));

        // absorb obeys each row's rule: `sum` adds, `max` keeps the larger.
        let other = CounterSet::decode(|| Ok::<u64, ()>(1000)).unwrap();
        let mut fleet = set;
        fleet.absorb(&other);
        let mut merged = Vec::new();
        fleet.each(|_, _, value| merged.push(value));
        for ((row, &(_, _, mine)), &got) in rows.iter().zip(&seen).zip(&merged) {
            let want = match row.merge {
                Merge::Sum => mine + 1000,
                Merge::Max => 1000,
            };
            assert_eq!(got, want, "{}.{}: {:?}", row.group, row.name, row.merge);
        }
        assert_eq!(Merge::Sum.apply(u64::MAX, 1), u64::MAX, "sums saturate");

        // render: one line per counter and rate, minus the skipped groups.
        let text = set.render(&["engine", "lifecycle", "work", "diagram", "ingest"]);
        assert!(text.starts_with(&format!("ssq_net_accepted {}\n", set.net.accepted)));
        assert!(text.ends_with(&format!(
            "ssq_router_mean_fanout {:.4}\nssq_router_prune_rate {:.4}\n",
            set.router.mean_fanout(),
            set.router.prune_rate()
        )));
        assert_eq!(text.lines().count(), 8 + 5 + 2);
        assert_eq!(set.render(&[]).lines().count(), rows.len() + 4);
    }

    #[test]
    fn cache_and_request_accounting() {
        let m = EngineMetrics::new();
        m.record_cache(true);
        m.record_cache(true);
        m.record_cache(false);
        let stats = QueryStats {
            dominance_checks: 7,
            ..QueryStats::default()
        };
        m.record_query(Algorithm::Vs2, 0, Duration::from_micros(3), &stats);
        m.record_query(Algorithm::Naive, 1, Duration::from_micros(1), &stats);
        m.record_session_update(&stats);
        let s = m.snapshot();
        assert_eq!(s.engine.cache_hits, 2);
        assert_eq!(s.engine.cache_misses, 1);
        assert!((s.engine.cache_hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.engine.queries(), 2);
        assert_eq!(s.engine.requests_for(Algorithm::Vs2), 1);
        assert_eq!(s.engine.requests_for(Algorithm::Naive), 1);
        assert_eq!(s.engine.requests_for(Algorithm::B2s2), 0);
        assert_eq!(s.engine.session_updates, 1);
        // Queries and session updates both feed the work aggregate;
        // only queries join the histogram and the generation tallies.
        assert_eq!(s.work.dominance_checks, 21);
        assert_eq!(s.latency.count(), 2);
        assert_eq!(s.queries_per_generation.get(&0), Some(&1));
        assert_eq!(s.queries_per_generation.get(&1), Some(&1));
    }

    #[test]
    fn swap_accounting() {
        let m = EngineMetrics::new();
        assert_eq!(m.snapshot().lifecycle, LifecycleCounters::default());
        m.lifecycle.record_swap(1, Duration::from_millis(7));
        m.lifecycle.record_swap(2, Duration::from_millis(3));
        let s = m.snapshot().lifecycle;
        assert_eq!(s.generation, 2);
        assert_eq!(s.swaps, 2);
        assert_eq!(s.last_build_nanos, 3_000_000);
    }

    #[test]
    fn ingest_accounting() {
        let m = EngineMetrics::new();
        m.ingest.record_ingest(
            &DeltaStats {
                inserts: 30,
                deletes: 20,
                incremental: true,
                dirty_cells: 55,
            },
            Duration::from_millis(4),
        );
        m.ingest.record_ingest(
            &DeltaStats {
                inserts: 500,
                deletes: 0,
                incremental: false,
                dirty_cells: 0,
            },
            Duration::from_millis(90),
        );
        m.record_ingest_shed();
        let s = m.snapshot();
        assert_eq!(s.ingest.batches, 2);
        assert_eq!(s.ingest.inserts, 530);
        assert_eq!(s.ingest.deletes, 20);
        assert_eq!(s.ingest.incremental, 1);
        assert_eq!(s.ingest.rebuilds, 1);
        assert_eq!(s.ingest.dirty_cells, 55);
        assert_eq!(s.ingest.last_batch_ops, 500);
        assert_eq!(s.ingest.last_build_nanos, 90_000_000);
        assert_eq!(s.engine.ingest_shed, 1);
    }

    #[test]
    fn diagram_accounting() {
        let m = EngineMetrics::new();
        m.record_warm_start(3, Duration::from_millis(30));
        m.record_warm_start(1, Duration::from_millis(12));
        m.record_diagram_cells(4100);
        m.record_diagram_hit(2, Duration::from_micros(1));
        m.record_diagram_hit(2, Duration::from_micros(2));
        m.record_diagram_miss();
        let s = m.snapshot();
        assert_eq!(s.diagram.hits, 2);
        assert_eq!(s.diagram.misses, 1);
        assert_eq!(s.diagram.cells, 4100);
        assert_eq!(s.diagram.build_nanos, 12_000_000);
        assert_eq!(s.diagram.warmed, 4);
        assert!((s.diagram.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        // Hits join the histogram and generation tallies, not requests.
        assert_eq!(s.engine.queries(), 0);
        assert_eq!(s.latency.count(), 2);
        assert_eq!(s.queries_per_generation.get(&2), Some(&2));
    }

    #[test]
    fn snapshots_absorb_into_a_fleet_view() {
        let a = EngineMetrics::new();
        let b = EngineMetrics::new();
        let stats = QueryStats::default();
        a.record_query(Algorithm::Vs2, 1, Duration::from_micros(2), &stats);
        a.lifecycle.record_swap(1, Duration::from_millis(5));
        b.record_query(Algorithm::Naive, 0, Duration::from_micros(8), &stats);
        b.record_query(Algorithm::B2s2, 1, Duration::from_micros(1), &stats);

        // The counters merge by their rows (the registry test); here:
        // the whole set takes part, and the three members that are not
        // words merge too.
        let mut fleet = MetricsSnapshot::default();
        fleet.absorb(&a.snapshot());
        fleet.absorb(&b.snapshot());
        let mut want = a.snapshot().counters;
        want.absorb(&b.snapshot().counters);
        assert_eq!(fleet.counters, want);
        assert_eq!(fleet.engine.queries(), 3);
        assert_eq!(fleet.lifecycle.generation, 1);
        assert_eq!(fleet.queries_per_generation.get(&0), Some(&1));
        assert_eq!(fleet.queries_per_generation.get(&1), Some(&2));
        assert_eq!(fleet.latency.count(), 3);
        // Percentiles read the merged population.
        assert!(fleet.latency.percentile(1.0) >= Duration::from_micros(8));
    }
}
