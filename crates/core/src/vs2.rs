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
//! # One walk, two row handlings
//!
//! Fig. 7's traversal exists once, as `Walk`: the two-phase loop over a
//! [`DistanceScratch`]'s epoch-stamped visited / extracted marks, its
//! reusable heap and its per-query page set. VS², VCS² (§5: "traverses
//! only specific portions of the graph") and the mixed VS² (§6) are that
//! walk with different seeds, initial rectangle, heap key and line-16
//! gate, and each decides in its own loop body what a popped site becomes
//! and whether it tightens `B`. Its cost depends on the sites it visits,
//! not on `|P|`.
//!
//! The walk runs on **sites** — [`VoronoiIndex`]'s internal numbering, the
//! points' order along the Hilbert curve — from the seeds to the popped
//! site: marks, heap payloads, neighbour lists, points and cell tests are
//! all indexed by site, so a walk over a compact region reads a few
//! compact stretches of each array whatever order the dataset arrived
//! in. An id appears only where one leaves the walk: the row
//! `Walk::keep` pushes (or the caller's `Candidate`) carries
//! [`VoronoiIndex::id_of`] the site, so `resolve`'s `(key, id)` order and
//! the ascending-id answer are those of the input numbering; keys, `B`
//! and every count depend on points alone. What the curve cannot do is
//! put all ~6 neighbours of a site on its own line — the next row of the
//! curve is a stride away — so the walk still prefetches each extracted
//! site's neighbours (marks and points) and each enqueued site's
//! adjacency list; those misses, fewer now, overlap instead of adding
//! up.
//!
//! What VS² keeps twice is the handling of the collected *rows*:
//!
//! * [`vs2_kernel`] is what the engine serves: squared-distance arena
//!   rows under squared-sum keys, resolved by
//!   [`DistanceScratch::resolve`] — `resolve_candidates`' rule on SIMD
//!   tiles, behind a one-check-per-row pre-filter — and no row at all for
//!   a popped site a Delaunay neighbour certifies as dominated (below);
//! * [`vs2_with`] is the counted reference the paper reproduction and
//!   `kernel_equiv.rs` pin: true-distance [`Candidate`]s under true-sum
//!   keys, resolved by the scalar [`resolve_candidates`], with `Paper`'s
//!   in-loop dominance check. Routing the reproduction through the kernel
//!   instead leaves Fig. 12c/12f byte-identical but moves Fig. 12b's VS²
//!   column at `|Q|` = 2 from 405.95 to 839.35 (the pre-filter's check per
//!   row; B²S² reads 399.40 there) — so the scalar resolution stays, and
//!   only the traversal is shared.
//!
//! # Neighbour certificates
//!
//! Most popped sites outside `CH(Q)` are dominated, and a dominated row
//! costs `resolve` a scan of the accepted rows up to its first dominator
//! — on clustered data with a large skyline, a few hundred checks each.
//! A point is dominated iff its dominator region (§2.2, Fig. 2) holds
//! *any* data point, skyline or not, and for most of these sites one of
//! their own Delaunay neighbours is such a point. So once its arena holds
//! `CERTIFY_FROM_ROWS` (128) rows, the kernel tests a popped site that is
//! not certain (not inside `CH(Q)`) against its neighbour list first, with
//! the rows' own predicate — f64 squared distances to `CHv(Q)`, `≤` on
//! every anchor and `<` on at least one, so an equal distance vector never
//! certifies — and a site one of them dominates gets no row and does not
//! tighten `B`. (Below 128 rows a dominated row costs `resolve` less than
//! the test does.) Both are exact, for any subset of the dominated sites
//! the test drops:
//!
//! 1. **The answer.** Dominance is transitive, and every dominated point
//!    is dominated by a skyline point, which the Safe walk collects as a
//!    row. Removing any dominated row therefore leaves `resolve`'s answer
//!    unchanged.
//! 2. **The walk.** A neighbour `n` that dominates `p` has a strictly
//!    smaller key and `SR(n) ⊆ SR(p)`. If `n` lies outside `B`, some
//!    point whose search region built `B` dominates `n`, hence `p`, and
//!    `B ⊆ MBR(SR(p))` already. Otherwise `n` is enqueued when `p` is
//!    extracted (if not before), so it pops first, and by then `B` lies
//!    within `MBR(SR(n))` by the same argument one key lower: `n` was
//!    kept, or dropped for a neighbour of its own, or outside `B`. Either
//!    way `p`'s tightening would not move `B`, so skipping it visits no
//!    extra site: the rule changes which popped sites become rows, not
//!    which sites the walk extracts or which pages it reads. (A rounding
//!    tie between the two f64 keys can only leave `B` larger for a
//!    while, which keeps it sound.)
//!
//! The test runs over the whole neighbour list, without an early exit
//! (a branch on each outcome mispredicts more than the skipped distances
//! cost), and books what it does: one dominance check and `|CHv(Q)|`
//! distances per neighbour, plus `|CHv(Q)|` for the site — a count that
//! does not depend on the order of the list, which is site order and so
//! follows the layout the points arrived in.

use ssq_geom::circle::search_region_mbr;
use ssq_geom::{kernel, simd, Point, Rect};

use crate::heap::MinHeap;
use crate::index::VoronoiIndex;
use crate::query::{dominates, resolve_candidates, Candidate, QueryContext};
use crate::scratch::DistanceScratch;
use crate::stats::{QueryStats, SkylineResult};

/// The rows [`vs2_kernel`]'s arena must hold before it tests a popped
/// site against its Delaunay neighbours (module docs, "Neighbour
/// certificates"). The test costs about six rows of anchor distances per
/// site; what a dropped row saves grows with the rows `resolve` would
/// scan it against. On 200 000 clustered points the always-on test made
/// the three smallest `|S(Q)|` classes of the benchmark's mix 2–9 %
/// slower; from 128 rows on it pays, and the top class keeps its gain.
const CERTIFY_FROM_ROWS: usize = 128;

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

/// Fig. 7's two-phase Visited/Extracted traversal of the Delaunay graph,
/// gated by the rectangle [`Walk::b`]. A site is enqueued when it lies in
/// `b` or its Voronoi cell meets `b`; the first time it reaches the top of
/// the heap it is *extracted* (its neighbours enqueued, lines 15-21), the
/// second time it is *popped* and handed to the caller (lines 09-13) —
/// [`Walk::next_popped`] returns it, and the caller's loop body does the
/// rest, tightening `b` if its algorithm shrinks the rectangle.
///
/// Visited / extracted marks, the heap and the distinct-page set all live
/// in the caller's [`DistanceScratch`], so a traversal clears nothing
/// sized `|P|` and its page count is its own however many threads share
/// the index.
pub(crate) struct Walk<'a, K> {
    index: &'a VoronoiIndex,
    /// The arena the walk runs on (and [`Walk::keep`] pushes rows to).
    scratch: &'a mut DistanceScratch,
    heap: MinHeap<u32>,
    /// The heap key of a site — any key monotone under the caller's
    /// dominance relation.
    key: K,
    /// Anchor distances one key, one collected row or one point of a
    /// neighbour test costs.
    width: u64,
    /// The pruning rectangle (Fig. 7's `B`, Lemma 7's fixed bound).
    pub(crate) b: Rect,
    pages: u64,
    extracted: u64,
    keyed: u64,
}

impl<'a, K: Fn(Point) -> f64> Walk<'a, K> {
    /// Starts a traversal of `index` with nothing enqueued and an
    /// unbounded rectangle.
    #[inline]
    pub(crate) fn begin(
        index: &'a VoronoiIndex,
        scratch: &'a mut DistanceScratch,
        width: usize,
        key: K,
    ) -> Walk<'a, K> {
        scratch.begin_traversal(index.site_bound(), index.page_count());
        let heap = scratch.take_heap();
        Walk {
            index,
            scratch,
            heap,
            key,
            width: width as u64,
            b: Rect::EVERYTHING,
            pages: 0,
            extracted: 0,
            keyed: 0,
        }
    }

    /// Records a read of site `i`'s adjacency page.
    #[inline]
    fn touch(&mut self, i: u32) {
        self.pages += u64::from(self.scratch.touch_page(self.index.page_of(i)));
    }

    /// `NN(q)` by the index's greedy walk, its page reads counted with
    /// the traversal's.
    #[inline]
    pub(crate) fn nearest_site(&mut self, q: Point) -> u32 {
        // The closure borrows the arena and a local count, not `self`:
        // handing the whole walk to the out-of-line search would pin
        // every field of it (rectangle, heap, counters) in memory for
        // the traversal that follows.
        let (index, scratch) = (self.index, &mut *self.scratch);
        let mut pages = 0;
        let nn = index.nearest_site_with(q, |i| {
            pages += u64::from(scratch.touch_page(index.page_of(i)));
        });
        self.pages += pages;
        nn
    }

    #[inline]
    fn enqueue(&mut self, i: u32, p: Point) {
        self.scratch.mark_visited(i);
        self.heap.push((self.key)(p), i);
        self.keyed += 1;
    }

    /// Enqueues seed site `i` unless it already is.
    #[inline]
    pub(crate) fn seed(&mut self, i: u32) {
        if !self.scratch.is_visited(i) {
            self.enqueue(i, self.index.graph().point(i));
        }
    }

    /// The Safe rule for a site that may be in the skyline: keep it as
    /// a squared-distance arena row — under its id, `certain` when it lies
    /// inside `CH(Q)` — against `ctx`'s anchors and tighten `b` by its
    /// search region — sound for ANY data point `x`, because every true
    /// skyline point lies inside `MBR(SR(x, Q))` (it beats `x` on at least
    /// one anchor, so it sits in one of `x`'s circles).
    #[inline]
    pub(crate) fn keep(&mut self, ctx: &QueryContext, site: u32, pt: Point, certain: bool) {
        let anchors = ctx.anchors();
        self.scratch
            .push_row(self.index.id_of(site), certain, pt, anchors);
        self.keyed += 1;
        self.b = self.b.intersection(&search_region_mbr(pt, anchors));
    }

    /// `true` when a Delaunay neighbour of `site` (at `pt`) dominates it
    /// under the rows' own predicate: squared distances to `anchors`,
    /// `≤` on every anchor and `<` on at least one. `pt`'s distances are
    /// held in the arena's spare row. Every neighbour is tested on every
    /// anchor, without a branch on the outcome: an early exit saves a few
    /// distances and costs a mispredicted branch for each, and it would
    /// make the count depend on the order of the neighbour list, which is
    /// site order, which the layout decides. So the test books exactly
    /// what it does — one dominance check and one row of distances per
    /// neighbour, plus one row for `site`.
    #[inline]
    pub(crate) fn neighbour_dominates(
        &mut self,
        site: u32,
        pt: Point,
        anchors: &[Point],
        stats: &mut QueryStats,
    ) -> bool {
        let graph = self.index.graph();
        let neighbors = graph.neighbors(site);
        stats.dominance_checks += neighbors.len() as u64;
        self.keyed += 1 + neighbors.len() as u64;
        let own = self.scratch.fill_spare_dist_sq(pt, anchors);
        let points = graph.points();
        neighbors.iter().fold(false, |dominated, &nb| {
            let x = points[nb as usize];
            let (mut weak, mut strict) = (true, false);
            for (&q, &d) in anchors.iter().zip(own) {
                let e = x.distance_sq(q);
                weak &= e <= d;
                strict |= e < d;
            }
            dominated | (weak & strict)
        })
    }

    /// Runs the traversal up to its next second-phase pop of a site
    /// inside `b` and returns `(site, heap key, location)`; `None` once
    /// the heap is empty. `expands` is Fig. 7's line-16 gate: given the
    /// neighbours of the site being extracted, whether to enqueue them.
    #[inline]
    pub(crate) fn next_popped(
        &mut self,
        expands: impl Fn(&[u32]) -> bool,
    ) -> Option<(u32, f64, Point)> {
        let (index, graph) = (self.index, self.index.graph());
        while let Some((key, &p)) = self.heap.peek() {
            if self.scratch.is_extracted(p) {
                self.heap.pop();
                let pt = graph.point(p);
                // B may have shrunk since p was enqueued; a point outside
                // B is outside some point's search region, i.e. strictly
                // farther than that point from every anchor — dominated,
                // no check needed (the same O(d) discard B²S² applies,
                // Fig. 5 line 07).
                if self.b.contains(pt) {
                    return Some((p, key, pt));
                }
                continue;
            }
            self.scratch.mark_extracted(p);
            self.extracted += 1;
            self.touch(p);
            let neighbors = graph.neighbors(p);
            if !expands(neighbors) {
                continue;
            }
            // Neighbours along the curve share `p`'s lines, the ones a
            // curve row away do not: ask for every mark and point before
            // the first is needed, so what misses there are overlap
            // instead of queueing behind one another.
            let points = graph.points();
            for &nb in neighbors {
                self.scratch.prefetch_mark(nb);
                simd::prefetch(&points[nb as usize]);
            }
            for &nb in neighbors {
                if self.scratch.is_visited(nb) {
                    continue;
                }
                let nbp = points[nb as usize];
                // Line 19: inside B, or Voronoi cell intersecting B.
                let mut reaches_b = self.b.contains(nbp);
                if !reaches_b {
                    // The cell test reads `nb`'s page.
                    self.touch(nb);
                    reaches_b = index.cell_meets_rect(nb, &self.b);
                }
                if reaches_b {
                    // `nb` is extracted later on: start loading its
                    // adjacency list now.
                    if let Some(first) = graph.neighbors(nb).first() {
                        simd::prefetch(first);
                    }
                    self.enqueue(nb, nbp);
                }
            }
        }
        None
    }

    /// Ends the traversal: hands the heap back to the arena and books
    /// the walk's own work — sites extracted, keys and rows computed,
    /// distinct adjacency pages read — into `stats`.
    #[inline]
    pub(crate) fn finish(self, stats: &mut QueryStats) {
        self.scratch.restore_heap(self.heap);
        stats.entries_visited += self.extracted;
        stats.distance_computations += self.keyed * self.width;
        stats.node_accesses = self.pages;
    }
}

/// Runs VS² with the default (provably exact) expansion policy.
pub fn vs2(index: &VoronoiIndex, ctx: &QueryContext) -> SkylineResult {
    vs2_with(index, ctx, VsExpansion::Safe)
}

/// The kernel-path VS²: identical output to [`vs2`] (Safe expansion), but
/// the `Walk` runs on the caller's arena (nothing sized `|P|` is cleared
/// per query), keys the heap by the **squared**-distance sum (no `sqrt`
/// anywhere on the traversal — sound because any monotone-under-dominance
/// key yields the same resolved skyline, see [`ssq_geom::kernel`]), and
/// stores candidate vectors as squared-distance rows — except, once 128
/// rows are in, for popped sites a Delaunay neighbour dominates, which it
/// drops without a row (module docs, "Neighbour certificates").
/// Steady-state queries allocate only for the returned id vector.
///
/// [`QueryStats::node_accesses`] is the walk's own distinct-page count —
/// the same pages [`vs2_with`] reads — so it is exact however many
/// workers share the index.
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
    let mut walk = Walk::begin(index, scratch, anchors.len(), |p| {
        kernel::dist_sq_sum(p, anchors)
    });
    let start = walk.nearest_site(ctx.query()[0]);
    walk.b = search_region_mbr(index.graph().point(start), anchors);
    walk.seed(start);
    while let Some((p, _, pt)) = walk.next_popped(|_| true) {
        stats.points_examined += 1;
        // Theorem 1 keeps a site inside CH(Q) unconditionally; any other
        // site a Delaunay neighbour dominates is no skyline point and
        // needs neither a row nor a tightening of B (module docs).
        let certain = ctx.hull().contains(pt);
        if !certain
            && walk.scratch.len() >= CERTIFY_FROM_ROWS
            && walk.neighbour_dominates(p, pt, anchors, &mut stats)
        {
            continue;
        }
        walk.keep(ctx, p, pt, certain);
    }
    walk.finish(&mut stats);
    // ssq-analyze: allow(deny-alloc): the returned id vector is the kernel's one allocation
    let skyline = scratch.resolve(&mut stats).to_vec();
    stats.allocations += scratch.take_allocations();
    SkylineResult { skyline, stats }
}

/// Runs VS² with an explicit expansion policy: the `Walk` on a
/// throw-away arena, with the scalar row handling the module docs
/// describe.
pub fn vs2_with(index: &VoronoiIndex, ctx: &QueryContext, expansion: VsExpansion) -> SkylineResult {
    let mut stats = QueryStats::default();
    if index.is_empty() {
        return SkylineResult::default();
    }
    let anchors = ctx.anchors();
    let scratch = &mut DistanceScratch::new();
    let mut walk = Walk::begin(index, scratch, anchors.len(), |p| ctx.mindist(p));

    // Fig. 7 lines 03-05: start at NN(q1), initialize B from its search
    // region.
    let start = walk.nearest_site(ctx.query()[0]);
    walk.b = search_region_mbr(index.graph().point(start), anchors);
    walk.seed(start);

    // Paper mode resolves dominance in-loop (the gate on line 16 needs to
    // know skyline membership during the traversal), so there
    // `candidates` is the skyline so far; Safe mode defers all dominance
    // work to one exact key-ordered pass at the end and instead tightens
    // B with EVERY surviving popped point (sound: see `Walk::keep`).
    // Candidates carry ids; Paper's gate asks about the extracted site's
    // neighbours, which are sites, so the candidates' sites are kept beside
    // them.
    let mut candidates: Vec<Candidate> = Vec::new();
    let mut sites: Vec<u32> = Vec::new();
    while let Some((site, key, pt)) = walk.next_popped(|neighbors| match expansion {
        VsExpansion::Safe => true,
        VsExpansion::Paper => sites.is_empty() || sites.iter().any(|s| neighbors.contains(s)),
    }) {
        stats.points_examined += 1;
        let vector = ctx.dist_vector(pt, &mut stats);
        let certain = ctx.hull().contains(pt);
        if expansion == VsExpansion::Paper && !certain {
            let dominated = candidates.iter().any(|c| {
                stats.dominance_checks += 1;
                dominates(&c.vector, &vector)
            });
            if dominated {
                continue;
            }
        }
        walk.b = walk.b.intersection(&search_region_mbr(pt, anchors));
        sites.push(site);
        candidates.push(Candidate {
            id: index.id_of(site),
            key,
            vector,
            certain,
        });
    }
    walk.finish(&mut stats);

    // Final exactness pass (see module docs). Both modes resolve their
    // collected set with one pass in ascending key order — spatial
    // dominance implies a strictly smaller key, so dominators always come
    // first and a single filtered sweep is exact.
    let skyline = resolve_candidates(candidates, &mut stats);
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
            let got = vs2_with(&idx, &ctx, VsExpansion::Paper);
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
        let line = [p(0.0, 0.0), p(0.5, 0.0), p(1.0, 0.0), p(0.25, 0.0)];
        let idx3 = VoronoiIndex::new(&line).unwrap();
        let want = naive_full(&line, &ctx);
        assert_eq!(vs2(&idx3, &ctx).skyline, want.skyline);
    }
}
