//! B²S² — the Branch-and-Bound Spatial Skyline algorithm (paper §4.1,
//! Fig. 5).
//!
//! The traversal skeleton is BBS's best-first descent of the R*-tree, but
//! every step is armed with the geometric foundation of §3:
//!
//! * the heap key and all dominance tests use only the hull vertices
//!   `CHv(Q)` (Theorem 2);
//! * entries fully inside `CH(Q)` are skyline material without any
//!   dominance check (Theorem 1);
//! * a pruning rectangle `B` — the intersection of `MBR(SR(p, Q))` over
//!   the skyline points found so far — discards entries in `O(d)` before
//!   any per-skyline-point test runs (`SR(p, Q)` is the union of the
//!   circles `C(q, D(p, q))`, and every undiscovered skyline point lies
//!   inside each such MBR).

use ssq_geom::circle::search_region_mbr;
use ssq_geom::Rect;
use ssq_rtree::{Entry, NodeId};

use crate::index::RTreeIndex;
use crate::query::QueryContext;
use crate::scratch::DistanceScratch;
use crate::stats::{QueryStats, SkylineResult};

/// One entry of the branch-and-bound heap: an R-tree node or a data
/// point, each with its MBR.
#[derive(Debug)]
pub(crate) enum Work {
    Node(NodeId, Rect),
    Point(u32, Rect),
}

/// Runs B²S² over the R-tree index: [`b2s2_kernel`] on a throw-away
/// arena, for callers with no per-worker [`DistanceScratch`] to reuse.
pub fn b2s2(index: &RTreeIndex, ctx: &QueryContext) -> SkylineResult {
    b2s2_kernel(index, ctx, &mut DistanceScratch::new())
}

/// B²S² over the caller's scratch arena. Skyline distance vectors live as
/// **squared**-distance rows of the arena (the dominance relation is
/// unchanged under squaring, see [`ssq_geom::kernel`]), so a warm arena
/// serves a query without per-point allocations. Heap keys stay the *true*
/// `mindist` sums — BBS-style popped-point finality needs dominators to
/// pop first, which the true-sum order guarantees directly.
///
/// Node reads are counted into the query's own [`QueryStats`] (one per
/// node whose entries are visited), never into the tree-wide counter, so
/// the count is exact however many workers share the index. A warm arena
/// allocates only for the returned id vector.
// ssq-analyze: deny-alloc
pub fn b2s2_kernel(
    index: &RTreeIndex,
    ctx: &QueryContext,
    scratch: &mut DistanceScratch,
) -> SkylineResult {
    let mut stats = QueryStats::default();
    let anchors = ctx.anchors();
    scratch.begin(anchors.len());

    // Fig. 5 line 03: B starts as the MBR of the root (the data universe).
    let mut b = index.universe();
    let mut heap = scratch.take_work_heap();
    if let Some(root) = index.tree().root() {
        heap.push(0.0, Work::Node(root, index.universe()));
    }

    while let Some((_, work)) = heap.pop() {
        stats.entries_visited += 1;
        match work {
            Work::Point(i, mbr) => {
                // Line 07: discard entries outside B.
                if !mbr.intersects(&b) {
                    continue;
                }
                let p = index.point(i);
                // Line 08: points inside CH(Q) are skyline by Theorem 1.
                let certain = ctx.hull().contains(p);
                stats.points_examined += 1;
                // Stage the row, then keep or retract it.
                scratch.push_row(i, certain, p, anchors);
                stats.distance_computations += anchors.len() as u64;
                if certain || !scratch.last_dominated(&mut stats) {
                    // Line 12: B = B ∩ MBR(SR(p, Q)).
                    b = b.intersection(&search_region_mbr(p, anchors));
                } else {
                    scratch.pop_row();
                }
            }
            Work::Node(id, mbr) => {
                if !mbr.intersects(&b) {
                    continue;
                }
                // Line 08-09 re-check on removal: inside hull, or not
                // dominated by the (possibly grown) skyline.
                if !ctx.hull().contains_rect(&mbr)
                    && scratch.rect_dominated_sq(&mbr, anchors, &mut stats)
                {
                    continue;
                }
                stats.node_accesses += 1;
                for e in index.tree().entries_in_place(id) {
                    let embr = e.mbr();
                    // Line 15: child outside B.
                    if !embr.intersects(&b) {
                        continue;
                    }
                    // Lines 16-17: inside CH(Q) skips the dominance test.
                    if !ctx.hull().contains_rect(&embr)
                        && scratch.rect_dominated_sq(&embr, anchors, &mut stats)
                    {
                        continue;
                    }
                    let key = embr.mindist_sum(anchors);
                    stats.distance_computations += anchors.len() as u64;
                    match e {
                        Entry::Node { child, .. } => heap.push(key, Work::Node(child, embr)),
                        Entry::Item { item, .. } => heap.push(key, Work::Point(item, embr)),
                    }
                }
            }
        }
    }

    scratch.restore_work_heap(heap);
    // ssq-analyze: allow(deny-alloc): the returned id vector is the kernel's one allocation
    let skyline = scratch.ids_sorted().to_vec();
    stats.allocations += scratch.take_allocations();
    SkylineResult { skyline, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bbs::bbs;
    use crate::naive::naive_full;
    use ssq_geom::Point;

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

    #[test]
    fn matches_naive_on_random_instances() {
        for trial in 0..12 {
            let points = pseudorandom(150, trial + 1);
            let q = pseudorandom(2 + (trial as usize % 6), 2000 + trial);
            let ctx = QueryContext::new(&q);
            let idx = RTreeIndex::with_config(&points, ssq_rtree::RTreeConfig::with_max_entries(4));
            let got = b2s2(&idx, &ctx);
            let want = naive_full(&points, &ctx);
            assert_eq!(got.skyline, want.skyline, "trial {trial}");
        }
    }

    #[test]
    fn interior_query_points_do_not_change_result() {
        // Theorem 2 end-to-end: adding query points inside CH(Q) must not
        // change the skyline.
        let points = pseudorandom(200, 9);
        let q = vec![p(0.2, 0.2), p(0.8, 0.25), p(0.5, 0.9)];
        let mut q_extra = q.clone();
        q_extra.push(p(0.5, 0.45)); // inside the triangle
        q_extra.push(p(0.45, 0.4));
        let idx = RTreeIndex::with_config(&points, ssq_rtree::RTreeConfig::with_max_entries(8));
        let a = b2s2(&idx, &QueryContext::new(&q));
        let b = b2s2(&idx, &QueryContext::new(&q_extra));
        assert_eq!(a.skyline, b.skyline);
    }

    #[test]
    fn does_less_work_than_bbs() {
        // The headline claim of §4.1: same answer, fewer dominance checks
        // and no more I/O.
        let points = pseudorandom(2000, 31);
        let q = pseudorandom(6, 555)
            .into_iter()
            .map(|v| Point::new(0.45 + v.x * 0.1, 0.45 + v.y * 0.1))
            .collect::<Vec<_>>();
        let ctx = QueryContext::new(&q);
        let idx = RTreeIndex::with_config(&points, ssq_rtree::RTreeConfig::with_max_entries(16));
        let fast = b2s2(&idx, &ctx);
        let slow = bbs(&idx, &ctx);
        assert_eq!(fast.skyline, slow.skyline);
        assert!(
            fast.stats.dominance_checks < slow.stats.dominance_checks,
            "B2S2 {} vs BBS {}",
            fast.stats.dominance_checks,
            slow.stats.dominance_checks
        );
        assert!(fast.stats.node_accesses <= slow.stats.node_accesses);
    }

    #[test]
    fn all_points_inside_hull_skip_dominance_checks() {
        // Every data point inside CH(Q): no dominance checks at all.
        let points = vec![p(0.4, 0.4), p(0.5, 0.6), p(0.6, 0.45)];
        let q = [p(0.0, 0.0), p(1.0, 0.0), p(1.0, 1.0), p(0.0, 1.0)];
        let ctx = QueryContext::new(&q);
        let idx = RTreeIndex::new(&points);
        let r = b2s2(&idx, &ctx);
        assert_eq!(r.skyline, vec![0, 1, 2]);
        assert_eq!(r.stats.dominance_checks, 0);
    }

    #[test]
    fn empty_dataset() {
        let ctx = QueryContext::new(&[p(0.5, 0.5)]);
        let idx = RTreeIndex::new(&[]);
        assert!(b2s2(&idx, &ctx).skyline.is_empty());
        let mut scratch = DistanceScratch::new();
        assert!(b2s2_kernel(&idx, &ctx, &mut scratch).skyline.is_empty());
    }
}
