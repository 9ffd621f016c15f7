//! Mixed skylines `S(A, Q)` — spatial distances plus static non-spatial
//! attributes (paper §6).
//!
//! "The best restaurant in LA might be dominated in terms of distance to
//! our team members but it is still in the skyline because of its rating."
//! Formally, `p` *combined-dominates* `p'` iff `p` is weakly better on
//! every static attribute in `A` **and** weakly closer to every query
//! point, strictly better somewhere. The result satisfies
//! `S(A) ⊆ S(A, Q)` and `S(Q) ⊆ S(A, Q)`.
//!
//! Following the paper, the algorithms change in three ways:
//!
//! 1. the static skyline `S(A)` is precomputed once (a query-independent
//!    batch step — we use BNL from `ssq-skyline`);
//! 2. dominance checks outside `CH(Q)` use the combined vector
//!    (attributes + anchor distances; Theorem 2 still covers the spatial
//!    half). Points inside `CH(Q)` keep their Theorem-1 free pass — they
//!    cannot be spatially dominated, hence cannot be combined-dominated;
//! 3. the search region is bounded by **Lemma 7** instead of the shrinking
//!    rectangle `B`: with `rᵢ = max_{s ∈ S(A)} D(s, qᵢ)`, any point
//!    strictly farther than every `S(A)` member from every query point is
//!    combined-dominated, so all candidates live in
//!    `B₀ = MBR(∪ᵢ C(qᵢ, rᵢ))`. (`B` cannot shrink per skyline point here:
//!    a spatially dominated point may still win on its attributes.)

use ssq_geom::{Circle, Point, Rect};
use ssq_rtree::{Entry, NodeId};

use crate::heap::MinHeap;
use crate::index::{RTreeIndex, VoronoiIndex};
use crate::query::{dominated_by_any, dominates, mutual_filter, QueryContext};
use crate::scratch::DistanceScratch;
use crate::stats::{QueryStats, SkylineResult};
use crate::vs2::Walk;

/// A prepared mixed query: the spatial context plus the attribute table,
/// its static skyline `S(A)` and the Lemma-7 search bound.
pub struct MixedContext<'a> {
    ctx: &'a QueryContext,
    attrs: &'a [Vec<f64>],
    /// Indices of the static skyline `S(A)`.
    static_skyline: Vec<usize>,
    /// Lemma-7 radii, one per anchor.
    radii: Vec<f64>,
}

impl<'a> MixedContext<'a> {
    /// Prepares the mixed query. `attrs[i]` are the static attributes of
    /// data point `i` (minimize semantics); all rows must share one arity.
    pub fn new(points: &[Point], attrs: &'a [Vec<f64>], ctx: &'a QueryContext) -> MixedContext<'a> {
        assert_eq!(
            points.len(),
            attrs.len(),
            "one attribute row per data point"
        );
        let static_skyline = ssq_skyline::bnl(attrs);
        let radii = ctx
            .anchors()
            .iter()
            .map(|&q| {
                static_skyline
                    .iter()
                    .map(|&s| q.distance(points[s]))
                    .fold(0.0f64, f64::max)
            })
            .collect();
        MixedContext {
            ctx,
            attrs,
            static_skyline,
            radii,
        }
    }

    /// The precomputed static skyline `S(A)`.
    pub fn static_skyline(&self) -> &[usize] {
        &self.static_skyline
    }

    /// The Lemma-7 search bound `B₀ = MBR(∪ᵢ C(qᵢ, rᵢ))`.
    pub fn search_bound(&self) -> Rect {
        self.ctx
            .anchors()
            .iter()
            .zip(&self.radii)
            .map(|(&q, &r)| Circle::new(q, r).mbr())
            .fold(Rect::EMPTY, |acc, m| acc.union(&m))
    }

    /// The combined vector of point `i`: static attributes followed by
    /// anchor distances.
    pub fn combined_vector(&self, i: u32, p: Point, stats: &mut QueryStats) -> Vec<f64> {
        let mut v = self.attrs[i as usize].clone();
        stats.allocations += 1;
        stats.distance_computations += self.ctx.anchors().len() as u64;
        v.extend(self.ctx.anchors().iter().map(|&q| q.distance(p)));
        v
    }

    /// Combined vector over the **full** query set (for the oracle).
    fn combined_vector_full(&self, i: u32, p: Point, stats: &mut QueryStats) -> Vec<f64> {
        let mut v = self.attrs[i as usize].clone();
        stats.allocations += 1;
        stats.distance_computations += self.ctx.query().len() as u64;
        v.extend(self.ctx.query().iter().map(|&q| q.distance(p)));
        v
    }
}

/// The `O(|P|²)` mixed-skyline oracle over the full query set.
pub fn mixed_naive(points: &[Point], mctx: &MixedContext<'_>) -> SkylineResult {
    let mut stats = QueryStats::default();
    let vectors: Vec<Vec<f64>> = (0..points.len() as u32)
        .map(|i| mctx.combined_vector_full(i, points[i as usize], &mut stats))
        .collect();
    let mut skyline = Vec::new();
    for i in 0..points.len() {
        stats.points_examined += 1;
        let dominated = (0..points.len()).any(|j| {
            if i == j {
                return false;
            }
            stats.dominance_checks += 1;
            dominates(&vectors[j], &vectors[i])
        });
        if !dominated {
            skyline.push(i as u32);
        }
    }
    SkylineResult { skyline, stats }
}

/// Mixed B²S²: best-first R-tree traversal bounded by the Lemma-7 region,
/// with Theorem-1 free passes and combined dominance checks at the leaves.
pub fn mixed_b2s2(index: &RTreeIndex, mctx: &MixedContext<'_>) -> SkylineResult {
    let mut stats = QueryStats::default();
    index.tree().reset_node_accesses();
    let ctx = mctx.ctx;
    let bound = mctx.search_bound();

    enum Work {
        Node(NodeId),
        Point(u32),
    }
    let mut skyline: Vec<(u32, Vec<f64>)> = Vec::new();
    let mut heap: MinHeap<Work> = MinHeap::new();
    if let Some(root) = index.tree().root() {
        heap.push(0.0, Work::Node(root));
    }
    while let Some((_, work)) = heap.pop() {
        stats.entries_visited += 1;
        match work {
            Work::Point(i) => {
                let p = index.point(i);
                stats.points_examined += 1;
                let v = mctx.combined_vector(i, p, &mut stats);
                let mut dominated = false;
                if !ctx.hull().contains(p) {
                    for (_, sv) in &skyline {
                        stats.dominance_checks += 1;
                        if dominates(sv, &v) {
                            dominated = true;
                            break;
                        }
                    }
                }
                if !dominated {
                    skyline.push((i, v));
                }
            }
            Work::Node(id) => {
                for e in index.tree().entries(id) {
                    let mbr = e.mbr();
                    // Lemma 7: no candidate outside the bound.
                    if !mbr.intersects(&bound) {
                        continue;
                    }
                    let key = mbr.mindist_sum(ctx.anchors());
                    stats.distance_computations += ctx.anchors().len() as u64;
                    match e {
                        Entry::Node { child, .. } => heap.push(key, Work::Node(child)),
                        Entry::Item { item, .. } => heap.push(key, Work::Point(item)),
                    }
                }
            }
        }
    }

    // Combined dominance only weakly orders by mindist (a dominator can tie
    // on every distance and win on attributes), so finish with the mutual
    // filter to stay exact.
    let skyline = mutual_filter(skyline, &mut stats);
    stats.node_accesses = index.tree().node_accesses();
    let mut ids: Vec<u32> = skyline.into_iter().map(|(i, _)| i).collect();
    ids.sort_unstable();
    SkylineResult {
        skyline: ids,
        stats,
    }
}

/// Mixed VS²: VS²'s `Walk` on a throw-away arena, with the fixed
/// Lemma-7 bound in place of the shrinking rectangle, true-sum keys and
/// combined dominance checks on the popped sites.
pub fn mixed_vs2(index: &VoronoiIndex, mctx: &MixedContext<'_>) -> SkylineResult {
    let mut stats = QueryStats::default();
    if index.is_empty() {
        return SkylineResult::default();
    }
    let ctx = mctx.ctx;
    let scratch = &mut DistanceScratch::new();
    let mut walk = Walk::begin(index, scratch, ctx.anchors().len(), |p| ctx.mindist(p));
    walk.b = mctx.search_bound();
    let start = walk.nearest_site(ctx.query()[0]);
    walk.seed(start);

    // The attribute table and the answer are by id.
    let mut skyline: Vec<(u32, Vec<f64>)> = Vec::new();
    while let Some((site, _, pt)) = walk.next_popped(|_| true) {
        stats.points_examined += 1;
        let id = index.id_of(site);
        let v = mctx.combined_vector(id, pt, &mut stats);
        if ctx.hull().contains(pt) || !dominated_by_any(&v, &skyline, &mut stats) {
            skyline.push((id, v));
        }
    }
    walk.finish(&mut stats);

    let skyline = mutual_filter(skyline, &mut stats);
    let mut ids: Vec<u32> = skyline.into_iter().map(|(i, _)| i).collect();
    ids.sort_unstable();
    SkylineResult {
        skyline: ids,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn random_attrs(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut s = seed.max(1);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n).map(|_| (0..d).map(|_| next()).collect()).collect()
    }

    #[test]
    fn supersets_hold() {
        // S(A) ⊆ S(A,Q) and S(Q) ⊆ S(A,Q).
        let points = pseudorandom(80, 3);
        let attrs = random_attrs(80, 2, 13);
        let ctx = QueryContext::new(&pseudorandom(3, 99));
        let mctx = MixedContext::new(&points, &attrs, &ctx);
        let mixed = mixed_naive(&points, &mctx);
        for &s in mctx.static_skyline() {
            assert!(mixed.contains(s as u32), "S(A) member {s} missing");
        }
        let spatial = crate::naive::naive_full(&points, &ctx);
        for s in &spatial.skyline {
            assert!(mixed.contains(*s), "S(Q) member {s} missing");
        }
    }

    #[test]
    fn b2s2_and_vs2_match_oracle() {
        for trial in 0..8 {
            let n = 100;
            let points = pseudorandom(n, trial + 1);
            let attrs = random_attrs(n, 1 + (trial as usize % 2), 500 + trial);
            let q = pseudorandom(2 + (trial as usize % 4), 7000 + trial);
            let ctx = QueryContext::new(&q);
            let mctx = MixedContext::new(&points, &attrs, &ctx);
            let want = mixed_naive(&points, &mctx);
            let rt = RTreeIndex::with_config(&points, ssq_rtree::RTreeConfig::with_max_entries(4));
            let vi = VoronoiIndex::new(&points).unwrap();
            assert_eq!(
                mixed_b2s2(&rt, &mctx).skyline,
                want.skyline,
                "b2s2 trial {trial}"
            );
            assert_eq!(
                mixed_vs2(&vi, &mctx).skyline,
                want.skyline,
                "vs2 trial {trial}"
            );
        }
    }

    #[test]
    fn constant_attributes_reduce_to_spatial_skyline() {
        // With identical attributes everywhere, combined dominance equals
        // spatial dominance.
        let points = pseudorandom(60, 7);
        let attrs: Vec<Vec<f64>> = (0..60).map(|_| vec![1.0]).collect();
        let ctx = QueryContext::new(&pseudorandom(4, 44));
        let mctx = MixedContext::new(&points, &attrs, &ctx);
        let spatial = crate::naive::naive_full(&points, &ctx);
        assert_eq!(mixed_naive(&points, &mctx).skyline, spatial.skyline);
    }

    #[test]
    fn dominant_attribute_point_always_survives() {
        // A point with the uniquely best attribute is in S(A,Q) no matter
        // where it sits.
        let mut points = pseudorandom(50, 9);
        points.push(p(0.99, 0.99)); // far from the query cluster below
        let mut attrs = random_attrs(50, 1, 21);
        for a in &mut attrs {
            a[0] += 1.0; // everyone else strictly worse
        }
        attrs.push(vec![0.0]);
        let q = [p(0.1, 0.1), p(0.2, 0.15)];
        let ctx = QueryContext::new(&q);
        let mctx = MixedContext::new(&points, &attrs, &ctx);
        let r = mixed_naive(&points, &mctx);
        assert!(r.contains(50));
        let rt = RTreeIndex::new(&points);
        assert!(mixed_b2s2(&rt, &mctx).contains(50));
        let vi = VoronoiIndex::new(&points).unwrap();
        assert!(mixed_vs2(&vi, &mctx).contains(50));
    }

    #[test]
    fn zero_arity_attributes_reduce_to_spatial_skyline() {
        // With no attribute columns at all, S(A) = P (empty vectors are
        // pairwise incomparable) and combined dominance degenerates to
        // spatial dominance.
        let points = pseudorandom(40, 19);
        let attrs: Vec<Vec<f64>> = (0..40).map(|_| Vec::new()).collect();
        let ctx = QueryContext::new(&pseudorandom(3, 55));
        let mctx = MixedContext::new(&points, &attrs, &ctx);
        assert_eq!(mctx.static_skyline().len(), 40);
        let spatial = crate::naive::naive_full(&points, &ctx);
        assert_eq!(mixed_naive(&points, &mctx).skyline, spatial.skyline);
        let rt = RTreeIndex::new(&points);
        assert_eq!(mixed_b2s2(&rt, &mctx).skyline, spatial.skyline);
        let vi = VoronoiIndex::new(&points).unwrap();
        assert_eq!(mixed_vs2(&vi, &mctx).skyline, spatial.skyline);
    }

    #[test]
    fn search_bound_covers_all_results() {
        let points = pseudorandom(70, 15);
        let attrs = random_attrs(70, 2, 77);
        let ctx = QueryContext::new(&pseudorandom(3, 88));
        let mctx = MixedContext::new(&points, &attrs, &ctx);
        let bound = mctx.search_bound();
        for id in mixed_naive(&points, &mctx).skyline {
            assert!(
                bound.contains(points[id as usize]),
                "Lemma 7 bound must contain result {id}"
            );
        }
    }
}
