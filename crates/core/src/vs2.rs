//! VS² — the Voronoi-based Spatial Skyline algorithm (paper §4.2, Fig. 7).
//!
//! VS² never touches an R-tree: it walks the Delaunay graph of the data
//! points, starting from `NN(q₁)` (a guaranteed skyline point by Lemma 1),
//! visiting points in ascending `mindist(p, CHv(Q))` order with the
//! two-phase Visited/Extracted heap discipline of Fig. 7, and pruning with
//! the rectangle `B` (the running intersection of the skyline points'
//! `MBR(SR(p, Q))` boxes): a point is only enqueued if it lies in `B` or
//! its Voronoi cell intersects `B`.
//!
//! # Expansion policies
//!
//! Fig. 7 line 16 only expands a point's neighbours when the skyline is
//! still empty or the point already has a skyline Voronoi neighbour.
//! Follow-up work (Son et al., SSTD 2009) showed this gate can miss
//! skyline points on adversarial inputs. [`VsExpansion`] therefore selects
//! between:
//!
//! * [`VsExpansion::Paper`] — the verbatim Fig. 7 gate, for reproducing
//!   the paper's cost numbers;
//! * [`VsExpansion::Safe`] (default) — expansion gated only by `B`.
//!   Completeness argument: every true skyline point stays inside `B` at
//!   all times, `B` is convex (hence connected), and the cells meeting a
//!   connected region form a connected subgraph of the Delaunay graph, so
//!   the traversal reaches every skyline point from `NN(q₁)`.
//!
//! Under either policy a **final key-ordered resolution pass** runs over
//! the collected set (see `query::resolve_candidates`), which makes the
//! output exact even when the graph traversal discovers a dominator
//! *after* one of its dominatees was popped (possible because a
//! low-`mindist` point can hide behind higher-`mindist` cells on the
//! graph). Neither policy ever produces a point outside the true skyline
//! after this pass; `Paper` may miss points, `Safe` provably does not.
//!
//! # Two bodies
//!
//! [`vs2_with`] is the readable reference (true distances, a `Vec<f64>`
//! per candidate, three `|P|`-sized flag vectors per call, the index-wide
//! page counter) and the path the paper reproduction reports.
//! [`vs2_kernel`] is what the engine serves: the same Safe traversal over
//! a worker's [`DistanceScratch`] — squared-distance rows, epoch-stamped
//! visited / extracted marks instead of per-query flag vectors, the
//! query's page accesses counted in the arena, and the final pass run by
//! [`DistanceScratch::resolve`], which is `resolve_candidates`' rule on
//! SIMD tiles. Its per-query cost depends on the sites it visits and the
//! rows it collects, not on `|P|`. Sites sit in memory in input order, so
//! the walk's reads are scattered; the kernel prefetches each extracted
//! site's neighbours (marks and points) and each enqueued site's
//! adjacency list, so those cache misses overlap instead of adding up.

use ssq_geom::circle::search_region_mbr;
use ssq_geom::{kernel, simd};

use crate::heap::MinHeap;
use crate::index::VoronoiIndex;
use crate::query::{dominated_by_any, resolve_candidates, Candidate, QueryContext};
use crate::scratch::DistanceScratch;
use crate::stats::{QueryStats, SkylineResult};

/// Neighbour-expansion policy for VS² — see the module docs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum VsExpansion {
    /// Verbatim Fig. 7 line 16 (may miss skyline points on adversarial
    /// inputs; reproduces the paper's traversal exactly).
    Paper,
    /// Expansion gated only by the pruning rectangle `B` (provably exact).
    #[default]
    Safe,
}

/// Runs VS² with the default (provably exact) expansion policy.
pub fn vs2(index: &VoronoiIndex, ctx: &QueryContext) -> SkylineResult {
    vs2_with(index, ctx, VsExpansion::Safe, None)
}

/// The kernel-path VS²: identical output to [`vs2`] (Safe expansion), but
/// the traversal reuses the scratch arena's heap and epoch-stamped
/// traversal marks (nothing sized `|P|` is cleared per query), keys
/// the heap by the **squared**-distance sum (no `sqrt` anywhere on the
/// traversal — sound because any monotone-under-dominance key yields the
/// same resolved skyline, see [`ssq_geom::kernel`]), and stores candidate
/// vectors as squared-distance rows. Steady-state queries allocate only
/// for the returned id vector.
///
/// Adjacency-page accesses are counted per query in the arena's own page
/// set — the same distinct pages [`vs2_with`] counts through the
/// index-wide counter — so [`QueryStats::node_accesses`] is exact however
/// many workers share the index.
// ssq-analyze: deny-alloc
pub fn vs2_kernel(
    index: &VoronoiIndex,
    ctx: &QueryContext,
    scratch: &mut DistanceScratch,
) -> SkylineResult {
    let mut stats = QueryStats::default();
    if index.is_empty() {
        return SkylineResult::default();
    }
    let anchors = ctx.anchors();
    scratch.begin(anchors.len());
    scratch.begin_traversal(index.len(), index.page_count());
    let mut heap = scratch.take_heap();
    let mut pages = 0u64;
    let mut touch = |scratch: &mut DistanceScratch, i: u32| {
        pages += u64::from(scratch.touch_page(index.page_of(i)));
    };

    let start = index.nearest_with(ctx.query()[0], 0, |i| touch(scratch, i));
    let mut b = search_region_mbr(index.point(start), anchors);
    heap.push(kernel::dist_sq_sum(index.point(start), anchors), start);
    stats.distance_computations += anchors.len() as u64;
    scratch.mark_visited(start);

    while let Some((_, &p)) = heap.peek() {
        if scratch.is_extracted(p) {
            // Second phase: pop, collect the survivor as an arena row and
            // tighten B (Safe policy — see `vs2_with` for the comments).
            heap.pop();
            let pt = index.point(p);
            if !b.contains(pt) {
                continue;
            }
            stats.points_examined += 1;
            scratch.push_row(p, ctx.hull().contains(pt), pt, anchors);
            stats.distance_computations += anchors.len() as u64;
            b = b.intersection(&search_region_mbr(pt, anchors));
        } else {
            // First phase: extract, enqueue the Voronoi neighbours.
            scratch.mark_extracted(p);
            stats.entries_visited += 1;
            touch(scratch, p);
            let neighbors = index.graph().neighbors(p);
            // Every neighbour's mark and point sit on a cache line of
            // their own (sites are stored in input order, not along the
            // walk): ask for all of them before the first is needed, so
            // the misses overlap instead of queueing behind one another.
            for &nb in neighbors {
                scratch.prefetch_mark(nb);
                simd::prefetch(&index.points()[nb as usize]);
            }
            for &nb in neighbors {
                if scratch.is_visited(nb) {
                    continue;
                }
                let nbp = index.point(nb);
                let mut reaches_b = b.contains(nbp);
                if !reaches_b {
                    // The cell test reads `nb`'s page.
                    touch(scratch, nb);
                    reaches_b = index.cell_meets_rect(nb, &b);
                }
                if reaches_b {
                    scratch.mark_visited(nb);
                    // `nb` is extracted later on: start loading its
                    // adjacency list now.
                    if let Some(first) = index.graph().neighbors(nb).first() {
                        simd::prefetch(first);
                    }
                    heap.push(kernel::dist_sq_sum(nbp, anchors), nb);
                    stats.distance_computations += anchors.len() as u64;
                }
            }
        }
    }

    scratch.restore_heap(heap);
    // ssq-analyze: allow(deny-alloc): the returned id vector is the kernel's one allocation
    let skyline = scratch.resolve(&mut stats).to_vec();
    stats.node_accesses = pages;
    stats.allocations += scratch.take_allocations();
    SkylineResult { skyline, stats }
}

/// Runs VS² with an explicit expansion policy and an optional walk hint
/// (a point index near `q₁`, e.g. carried over from a previous query).
pub fn vs2_with(
    index: &VoronoiIndex,
    ctx: &QueryContext,
    expansion: VsExpansion,
    start_hint: Option<u32>,
) -> SkylineResult {
    let mut stats = QueryStats::default();
    index.reset_page_accesses();
    if index.is_empty() {
        return SkylineResult::default();
    }
    let n = index.len();
    let anchors = ctx.anchors();

    // Fig. 7 lines 03-05: start at NN(q1), initialize B from its search
    // region.
    let start = index.nearest(ctx.query()[0], start_hint.unwrap_or(0));
    let mut b = search_region_mbr(index.point(start), anchors);

    let mut visited = vec![false; n];
    let mut extracted = vec![false; n];
    let mut in_skyline = vec![false; n];
    // Paper mode resolves dominance in-loop (the gate on line 16 needs to
    // know skyline membership during the traversal); Safe mode defers all
    // dominance work to one exact key-ordered pass at the end and instead
    // tightens B with EVERY surviving popped point — sound because every
    // true skyline point lies inside MBR(SR(x, Q)) of *any* data point x
    // (it beats x on at least one anchor, so it sits in one of x's
    // circles).
    let mut skyline: Vec<(u32, Vec<f64>)> = Vec::new();
    let mut candidates: Vec<Candidate> = Vec::new();
    let mut heap: MinHeap<u32> = MinHeap::new();
    heap.push(ctx.mindist(index.point(start)), start);
    stats.distance_computations += anchors.len() as u64;
    visited[start as usize] = true;

    while let Some((key, &p)) = heap.peek() {
        if extracted[p as usize] {
            // Second phase: pop and resolve (Fig. 7 lines 09-13).
            heap.pop();
            let pt = index.point(p);
            // B may have shrunk since p was enqueued; a point outside B is
            // outside some point's search region, i.e. strictly farther
            // than that point from every anchor — dominated, no check
            // needed (the same O(d) discard B²S² applies, Fig. 5 line 07).
            if !b.contains(pt) {
                continue;
            }
            stats.points_examined += 1;
            let v = ctx.dist_vector(pt, &mut stats);
            let certain = ctx.hull().contains(pt);
            match expansion {
                VsExpansion::Safe => {
                    b = b.intersection(&search_region_mbr(pt, anchors));
                    candidates.push(Candidate {
                        id: p,
                        key,
                        vector: v,
                        certain,
                    });
                }
                VsExpansion::Paper => {
                    if certain || !dominated_by_any(&v, &skyline, &mut stats) {
                        in_skyline[p as usize] = true;
                        skyline.push((p, v.clone()));
                        candidates.push(Candidate {
                            id: p,
                            key,
                            vector: v,
                            certain,
                        });
                        b = b.intersection(&search_region_mbr(pt, anchors));
                    }
                }
            }
        } else {
            // First phase: extract, i.e. enqueue the Voronoi neighbours
            // (Fig. 7 lines 15-21).
            extracted[p as usize] = true;
            stats.entries_visited += 1;
            let expand = match expansion {
                VsExpansion::Safe => true,
                VsExpansion::Paper => {
                    skyline.is_empty()
                        || index.neighbors(p).iter().any(|&nb| in_skyline[nb as usize])
                }
            };
            if expand {
                for &nb in index.neighbors(p) {
                    if visited[nb as usize] {
                        continue;
                    }
                    let nbp = index.point(nb);
                    // Line 19: inside B, or Voronoi cell intersecting B.
                    if b.contains(nbp) || index.cell_intersects_rect(nb, &b) {
                        visited[nb as usize] = true;
                        heap.push(ctx.mindist(nbp), nb);
                        stats.distance_computations += anchors.len() as u64;
                    }
                }
            }
        }
    }

    // Final exactness pass (see module docs). Both modes resolve their
    // collected set with one pass in ascending key order — spatial
    // dominance implies a strictly smaller key, so dominators always come
    // first and a single filtered sweep is exact.
    drop(skyline);
    let skyline = resolve_candidates(candidates, &mut stats);
    stats.node_accesses = index.page_accesses();
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
    fn safe_mode_matches_naive() {
        for trial in 0..12 {
            let points = pseudorandom(150, trial + 1);
            let q = pseudorandom(2 + (trial as usize % 6), 3000 + trial);
            let ctx = QueryContext::new(&q);
            let idx = VoronoiIndex::new(&points).unwrap();
            let got = vs2(&idx, &ctx);
            let want = naive_full(&points, &ctx);
            assert_eq!(got.skyline, want.skyline, "trial {trial}");
        }
    }

    #[test]
    fn paper_mode_is_subset_of_naive() {
        for trial in 0..12 {
            let points = pseudorandom(150, 100 + trial);
            let q = pseudorandom(3 + (trial as usize % 5), 4000 + trial);
            let ctx = QueryContext::new(&q);
            let idx = VoronoiIndex::new(&points).unwrap();
            let got = vs2_with(&idx, &ctx, VsExpansion::Paper, None);
            let want = naive_full(&points, &ctx);
            for id in &got.skyline {
                assert!(
                    want.contains(*id),
                    "paper mode produced a non-skyline point {id} in trial {trial}"
                );
            }
        }
    }

    #[test]
    fn points_inside_hull_are_all_reported() {
        // Theorem 1 end-to-end.
        let mut points = pseudorandom(100, 50);
        points.push(p(0.5, 0.5)); // certainly inside the hull below
        let q = [p(0.1, 0.1), p(0.9, 0.1), p(0.9, 0.9), p(0.1, 0.9)];
        let ctx = QueryContext::new(&q);
        let idx = VoronoiIndex::new(&points).unwrap();
        let r = vs2(&idx, &ctx);
        for (i, pt) in points.iter().enumerate() {
            if ctx.hull().contains(*pt) {
                assert!(r.contains(i as u32), "interior point {i} missing");
            }
        }
    }

    #[test]
    fn start_hint_does_not_change_result() {
        let points = pseudorandom(200, 8);
        let q = pseudorandom(4, 5000);
        let ctx = QueryContext::new(&q);
        let idx = VoronoiIndex::new(&points).unwrap();
        let a = vs2_with(&idx, &ctx, VsExpansion::Safe, None);
        let b = vs2_with(&idx, &ctx, VsExpansion::Safe, Some(137));
        assert_eq!(a.skyline, b.skyline);
    }

    #[test]
    fn visits_fewer_points_than_dataset() {
        // The whole point of VS²: locality. With a small query box in a
        // large dataset, only a small neighbourhood is visited.
        let points = pseudorandom(3000, 17);
        let q: Vec<Point> = pseudorandom(5, 6000)
            .into_iter()
            .map(|v| p(0.48 + v.x * 0.04, 0.48 + v.y * 0.04))
            .collect();
        let ctx = QueryContext::new(&q);
        let idx = VoronoiIndex::new(&points).unwrap();
        let r = vs2(&idx, &ctx);
        assert!(!r.skyline.is_empty());
        assert!(
            (r.stats.entries_visited as usize) < points.len() / 3,
            "visited {} of {}",
            r.stats.entries_visited,
            points.len()
        );
    }

    #[test]
    fn tiny_datasets() {
        let ctx = QueryContext::new(&[p(0.5, 0.5), p(0.7, 0.7)]);
        let idx = VoronoiIndex::new(&[p(0.1, 0.2)]).unwrap();
        assert_eq!(vs2(&idx, &ctx).skyline, vec![0]);
        let idx2 = VoronoiIndex::new(&[]).unwrap();
        assert!(vs2(&idx2, &ctx).skyline.is_empty());
        // Collinear dataset (degenerate Delaunay -> path graph).
        let idx3 =
            VoronoiIndex::new(&[p(0.0, 0.0), p(0.5, 0.0), p(1.0, 0.0), p(0.25, 0.0)]).unwrap();
        let want = naive_full(idx3.points(), &ctx);
        assert_eq!(vs2(&idx3, &ctx).skyline, want.skyline);
    }
}
