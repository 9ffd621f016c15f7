//! VCS² — Voronoi-based Continuous Spatial Skyline (paper §5).
//!
//! The continuous setting: the query points are moving objects streaming
//! single-point location updates, and the skyline must be maintained
//! without recomputing from scratch on every update. VCS² classifies each
//! update `q → q'` by how it changes `CH(Q)` (the paper's change patterns,
//! Fig. 10) and reacts accordingly:
//!
//! * **Pattern I** — neither `q` nor `q'` is a hull vertex: by Theorem 2
//!   the skyline is untouched; the update is free.
//! * **Patterns II–V** ("simple" moves) — the two hulls share every vertex
//!   except possibly `q`/`q'`: only points inside the **candidate region**
//!   can change status (Lemma 6): the visible region of `q` w.r.t.
//!   `CH(Q)`, the visible region of `q'` w.r.t. `CH(Q')`, and the
//!   symmetric difference of the hulls. VCS² re-examines exactly those
//!   points with VS²'s `Walk`, seeded at `NN(q')`, `NN(q)` and the old
//!   skyline members inside the region, starting from a pruning rectangle
//!   `B` *pre-tightened* by the old members: the old members and the
//!   popped candidate-region sites become arena rows, and one
//!   [`DistanceScratch::resolve`] over them is the new skyline.
//! * **Anything else** (the paper's pattern (f) and other complex hull
//!   changes) — fall back to a full VS² recomputation
//!   ([`vs2_kernel`](crate::vs2::vs2_kernel) on the session's arena).
//!
//! Exactness of the incremental path: a new skyline point outside the
//! candidate region was an old member (its status cannot change), so it
//! has a row; one inside it lies in `B` (every skyline point lies in
//! `MBR(SR(x, Q'))` of any data point `x`) and is reached by the walk for
//! the reason VS² reaches it; and any other row is dominated by a skyline
//! point, which `resolve` finds. The test suite asserts the maintained
//! skyline equal to a fresh computation after every update.
//!
//! What the incremental path buys is measured, not assumed: the walk
//! still spans `B` (the candidate region covers most of it), so the saving
//! is the rows it does not collect and the head start of the pre-tightened
//! rectangle, paid for with two visible regions, a second NN search and a
//! region test per popped site. `reproduce`'s continuous table
//! (`reproduce_output.txt`) puts an average update at 1.24–1.83× faster
//! than a fresh *scalar* `vs2_with` run on the same positions, Pattern-I
//! free passes included — not the paper's "factor of 3" — and against the
//! kernel it does not win at all: on the benchmark's `moving` workload a
//! session that reruns `vs2_kernel` on every non-Pattern-I update is
//! faster than this path (47 vs 40 µs per update; ROADMAP.md has the
//! runs).

use ssq_geom::{kernel, Point};

use crate::index::VoronoiIndex;
use crate::query::QueryContext;
use crate::scratch::DistanceScratch;
use crate::stats::{QueryStats, SkylineResult};
use crate::vs2::{vs2_kernel_from, Walk};

/// How an update was applied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateOutcome {
    /// Pattern I: the hull (hence the skyline) did not change.
    Unchanged,
    /// Patterns II–V: the skyline was patched incrementally.
    Incremental,
    /// Complex hull change: VS² was re-run from scratch.
    Recomputed,
}

/// Aggregate counters over the lifetime of a [`ContinuousSkyline`].
#[derive(Clone, Copy, Debug, Default)]
pub struct OutcomeCounts {
    /// Updates resolved as [`UpdateOutcome::Unchanged`].
    pub unchanged: u64,
    /// Updates resolved as [`UpdateOutcome::Incremental`].
    pub incremental: u64,
    /// Updates resolved as [`UpdateOutcome::Recomputed`].
    pub recomputed: u64,
}

impl OutcomeCounts {
    /// Total updates processed.
    pub fn total(&self) -> u64 {
        self.unchanged + self.incremental + self.recomputed
    }
}

/// The maintained continuous spatial skyline over a moving query set.
///
/// Generic over how the index is held: `I` can be a plain borrow
/// (`&VoronoiIndex`, the library default) or a shared-ownership handle
/// such as `Arc<VoronoiIndex>` — anything that derefs to the index. The
/// latter lets long-lived serving layers (see the `ssq-engine` crate)
/// keep many concurrent sessions alive over one immutable index snapshot
/// without tying session lifetimes to a stack borrow.
pub struct ContinuousSkyline<I = &'static VoronoiIndex>
where
    I: std::ops::Deref<Target = VoronoiIndex>,
{
    index: I,
    query: Vec<Point>,
    ctx: QueryContext,
    /// Current skyline ids, sorted ascending.
    skyline: Vec<u32>,
    counts: OutcomeCounts,
    /// Walk hint for NN searches (the site of any recently relevant
    /// point).
    hint: u32,
    /// The session's own arena — traversal marks, heap, page set and
    /// rows — reused across updates, so a warm update does no `O(|P|)`
    /// work (the point of VCS²) and its page count is its own however
    /// many sessions share the index.
    scratch: DistanceScratch,
}

impl<I> ContinuousSkyline<I>
where
    I: std::ops::Deref<Target = VoronoiIndex>,
{
    /// Initializes the skyline for query set `q` with a fresh VS² run.
    pub fn new(index: I, q: &[Point]) -> ContinuousSkyline<I> {
        let ctx = QueryContext::new(q);
        let mut scratch = DistanceScratch::new();
        let skyline = vs2_kernel_from(&index, &ctx, &mut scratch, 0).skyline;
        let hint = skyline.first().map_or(0, |&id| index.site_of(id));
        ContinuousSkyline {
            index,
            query: q.to_vec(),
            ctx,
            skyline,
            counts: OutcomeCounts::default(),
            hint,
            scratch,
        }
    }

    /// The current query set.
    pub fn query(&self) -> &[Point] {
        &self.query
    }

    /// The current skyline, sorted ascending.
    pub fn skyline(&self) -> Vec<u32> {
        self.skyline.clone()
    }

    /// The current skyline as a [`SkylineResult`] (zeroed stats).
    pub fn result(&self) -> SkylineResult {
        SkylineResult {
            skyline: self.skyline(),
            stats: QueryStats::default(),
        }
    }

    /// Outcome counters since construction — the paper's "fraction of
    /// movements requiring recomputation" statistic.
    pub fn counts(&self) -> OutcomeCounts {
        self.counts
    }

    /// Applies one location update: query object `obj` moved to `new_loc`.
    /// Returns how the update was handled plus its cost.
    pub fn update(&mut self, obj: usize, new_loc: Point) -> (UpdateOutcome, QueryStats) {
        assert!(obj < self.query.len(), "query object index out of range");
        let old_loc = self.query[obj];
        if old_loc == new_loc {
            self.counts.unchanged += 1;
            return (UpdateOutcome::Unchanged, QueryStats::default());
        }
        if self.index.is_empty() {
            // No data points: the skyline is trivially empty forever.
            self.query[obj] = new_loc;
            self.ctx = QueryContext::new(&self.query);
            self.counts.unchanged += 1;
            return (UpdateOutcome::Unchanged, QueryStats::default());
        }

        let old_ctx = std::mem::replace(&mut self.ctx, {
            self.query[obj] = new_loc;
            QueryContext::new(&self.query)
        });

        let old_vertex = old_ctx.hull().vertex_index(old_loc);
        let new_vertex = self.ctx.hull().vertex_index(new_loc);

        // Pattern I: both endpoints interior — hull unchanged, skyline
        // unchanged.
        if old_vertex.is_none() && new_vertex.is_none() {
            debug_assert_eq!(old_ctx.anchors(), self.ctx.anchors());
            self.counts.unchanged += 1;
            return (UpdateOutcome::Unchanged, QueryStats::default());
        }

        // "Simple" patterns II-V: the hulls agree on every vertex except
        // q/q'.
        if hulls_differ_only_at(old_ctx.anchors(), old_loc, self.ctx.anchors(), new_loc) {
            let stats = self.incremental_update(&old_ctx, old_loc, new_loc, old_vertex, new_vertex);
            self.counts.incremental += 1;
            return (UpdateOutcome::Incremental, stats);
        }

        // Complex pattern: recompute with VS².
        let result = vs2_kernel_from(&self.index, &self.ctx, &mut self.scratch, self.hint);
        self.skyline = result.skyline;
        if let Some(&id) = self.skyline.first() {
            self.hint = self.index.site_of(id);
        }
        self.counts.recomputed += 1;
        (UpdateOutcome::Recomputed, result.stats)
    }

    /// The incremental (patterns II–V) path.
    fn incremental_update(
        &mut self,
        old_ctx: &QueryContext,
        old_loc: Point,
        new_loc: Point,
        old_vertex: Option<usize>,
        new_vertex: Option<usize>,
    ) -> QueryStats {
        let mut stats = QueryStats::default();
        let index = &*self.index;
        let anchors = self.ctx.anchors();
        let (old_hull, new_hull) = (old_ctx.hull(), self.ctx.hull());
        let members = &self.skyline;

        // Candidate-region membership test (Lemma 6 + hull difference).
        let vis_old = old_vertex.map(|i| old_hull.visible_region(i));
        let vis_new = new_vertex.map(|i| new_hull.visible_region(i));
        let may_change = |pt: Point| -> bool {
            vis_old.as_ref().is_some_and(|v| v.contains(pt))
                || vis_new.as_ref().is_some_and(|v| v.contains(pt))
                || old_hull.contains(pt) != new_hull.contains(pt)
        };
        // Note on expansion gating: the paper suggests traversing "only
        // specific portions of the graph". We experimented with gating
        // neighbour expansion by a convex over-approximation of the
        // candidate region (visible-region wedges plus the two hull caps)
        // and measured it *slower* here — the wedges cover most of the
        // pruning rectangle B, so the extra per-cell tests bought almost no
        // pruning. Expansion therefore stays gated by B alone (provably
        // complete), and the candidate region gates only which popped
        // sites become rows, which is where the dominance-check savings
        // are.

        let scratch = &mut self.scratch;
        scratch.begin(anchors.len());
        let mut walk = Walk::begin(index, scratch, anchors.len(), |p| {
            kernel::dist_sq_sum(p, anchors)
        });
        // Seeds: NN of both endpoints of the move, plus every old skyline
        // member inside the candidate region.
        let nn_new = walk.nearest_site(new_loc, self.hint);
        let nn_old = walk.nearest_site(old_loc, nn_new);
        walk.seed(nn_new);
        walk.seed(nn_old);
        self.hint = nn_new;
        // Every old member gets a row against the new anchors and
        // pre-tightens B — stale members are data points like any other,
        // so `Walk::keep`'s rule covers them — which gives the
        // incremental path its head start. The member list holds ids (it
        // is the session's answer); the walk takes their sites.
        for &id in members {
            let site = index.site_of(id);
            let pt = index.graph().point(site);
            walk.keep(&self.ctx, site, pt);
            if may_change(pt) {
                walk.seed(site);
            }
        }

        // Only candidate-region sites are (re-)examined; everything else
        // keeps its status, and the old members already have their rows.
        while let Some((p, _, pt)) = walk.next_popped(|_| true) {
            if may_change(pt) && members.binary_search(&index.id_of(p)).is_err() {
                stats.points_examined += 1;
                walk.keep(&self.ctx, p, pt);
            }
        }
        walk.finish(&mut stats);

        // Paper's final check: evict the rows dominated by other rows.
        let resolved = scratch.resolve(&mut stats);
        self.skyline.clear();
        self.skyline.extend_from_slice(resolved);
        stats.allocations += scratch.take_allocations();
        stats
    }
}

/// `true` when the two hull vertex sets agree after removing `old_loc`
/// from the first and `new_loc` from the second — the paper's "simple"
/// change patterns II–V.
fn hulls_differ_only_at(
    old_anchors: &[Point],
    old_loc: Point,
    new_anchors: &[Point],
    new_loc: Point,
) -> bool {
    let strip = |anchors: &[Point], skip: Point| -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = anchors
            .iter()
            .filter(|&&a| a != skip)
            .map(|a| (a.x.to_bits(), a.y.to_bits()))
            .collect();
        v.sort_unstable();
        v
    };
    strip(old_anchors, old_loc) == strip(new_anchors, new_loc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_full;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn pseudorandom(n: usize, seed: u64) -> Vec<Point> {
        let mut s = seed.max(1);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n).map(|_| p(next(), next())).collect()
    }

    /// Drives a random walk of single-point updates and asserts the
    /// maintained skyline equals a fresh naive computation after every
    /// step.
    fn run_stream(points: &[Point], mut q: Vec<Point>, steps: usize, seed: u64) -> OutcomeCounts {
        let idx = VoronoiIndex::new(points).unwrap();
        let mut cont = ContinuousSkyline::new(&idx, &q);
        let mut s = seed.max(1);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        for step in 0..steps {
            let obj = (step * 7 + 3) % q.len();
            let cur = q[obj];
            let np = p(
                (cur.x + (next() - 0.5) * 0.08).clamp(0.0, 1.0),
                (cur.y + (next() - 0.5) * 0.08).clamp(0.0, 1.0),
            );
            q[obj] = np;
            let (outcome, _) = cont.update(obj, np);
            let want = naive_full(points, &QueryContext::new(&q));
            assert_eq!(
                cont.skyline(),
                want.skyline,
                "divergence at step {step} (outcome {outcome:?}, obj {obj} -> {np:?}, q = {q:?})"
            );
        }
        cont.counts()
    }

    #[test]
    fn stream_of_updates_stays_exact() {
        let points = pseudorandom(120, 11);
        let q: Vec<Point> = pseudorandom(5, 999)
            .into_iter()
            .map(|v| p(0.4 + v.x * 0.2, 0.4 + v.y * 0.2))
            .collect();
        let counts = run_stream(&points, q, 60, 42);
        assert_eq!(counts.total(), 60);
        // With 5 clustered movers, most updates must avoid recomputation.
        assert!(
            counts.unchanged + counts.incremental > counts.recomputed,
            "{counts:?}"
        );
    }

    #[test]
    fn stream_with_two_query_points() {
        // |Q| = 2: the hull is a degenerate segment; every move touches a
        // hull vertex and the visible regions degrade to the whole plane.
        let points = pseudorandom(80, 23);
        let q = vec![p(0.45, 0.5), p(0.55, 0.5)];
        run_stream(&points, q, 40, 7);
    }

    #[test]
    fn stream_with_many_query_points() {
        let points = pseudorandom(100, 37);
        let q: Vec<Point> = pseudorandom(9, 888)
            .into_iter()
            .map(|v| p(0.3 + v.x * 0.4, 0.3 + v.y * 0.4))
            .collect();
        let counts = run_stream(&points, q, 50, 99);
        // With 9 points, interior moves (pattern I) must appear.
        assert!(counts.unchanged > 0, "{counts:?}");
    }

    #[test]
    fn interior_move_is_free() {
        let points = pseudorandom(60, 5);
        // A square of query points plus one strictly interior point.
        let q = vec![
            p(0.2, 0.2),
            p(0.8, 0.2),
            p(0.8, 0.8),
            p(0.2, 0.8),
            p(0.5, 0.5),
        ];
        let idx = VoronoiIndex::new(&points).unwrap();
        let mut cont = ContinuousSkyline::new(&idx, &q);
        let before = cont.skyline();
        let (outcome, stats) = cont.update(4, p(0.55, 0.45)); // still interior
        assert_eq!(outcome, UpdateOutcome::Unchanged);
        assert_eq!(stats.points_examined, 0);
        assert_eq!(cont.skyline(), before);
    }

    #[test]
    fn vertex_move_is_incremental() {
        let points = pseudorandom(60, 6);
        let q = vec![p(0.2, 0.2), p(0.8, 0.2), p(0.5, 0.8)];
        let idx = VoronoiIndex::new(&points).unwrap();
        let mut cont = ContinuousSkyline::new(&idx, &q);
        // Small move of a hull vertex that keeps the other two vertices.
        let (outcome, _) = cont.update(2, p(0.52, 0.82));
        assert_eq!(outcome, UpdateOutcome::Incremental);
        let want = naive_full(
            &points,
            &QueryContext::new(&[p(0.2, 0.2), p(0.8, 0.2), p(0.52, 0.82)]),
        );
        assert_eq!(cont.skyline(), want.skyline);
    }

    #[test]
    fn empty_dataset_never_panics() {
        let idx = VoronoiIndex::new(&[]).unwrap();
        let mut cont = ContinuousSkyline::new(&idx, &[p(0.2, 0.2), p(0.8, 0.8)]);
        assert!(cont.skyline().is_empty());
        for step in 0..10 {
            let t = step as f64 / 10.0;
            let (outcome, _) = cont.update(step % 2, p(t, 1.0 - t));
            assert_eq!(outcome, UpdateOutcome::Unchanged);
            assert!(cont.skyline().is_empty());
        }
    }

    #[test]
    fn no_op_update_is_unchanged() {
        let points = pseudorandom(40, 3);
        let q = vec![p(0.3, 0.3), p(0.7, 0.6)];
        let idx = VoronoiIndex::new(&points).unwrap();
        let mut cont = ContinuousSkyline::new(&idx, &q);
        let (outcome, _) = cont.update(0, p(0.3, 0.3));
        assert_eq!(outcome, UpdateOutcome::Unchanged);
    }
}
