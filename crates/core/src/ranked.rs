//! Ranked spatial skyline queries (paper §4.1.1).
//!
//! "B²S² can also utilize any arbitrary monotone function instead of
//! `mindist()` to sort the entries of its heap. Consequently, B²S² is also
//! able to employ any monotone preference function to support ranked
//! skyline queries."
//!
//! A *ranked* query asks for the top-`k` spatial skyline points in
//! ascending order of a user preference function `f` over the anchor
//! distances. When `f` is monotone (non-decreasing in every distance),
//! ordering the best-first heap by `f` of the per-anchor `mindist` lower
//! bound keeps two key properties:
//!
//! * the bound is admissible — `f(mindist(e, q₁), …) ≤ f(D(p, q₁), …)` for
//!   every point `p` inside entry `e` — so points still pop in ascending
//!   `f` order;
//! * a dominator still precedes its dominatees (it is weakly closer to
//!   every anchor, and strictly to one, and we require strict monotonicity
//!   in at least the coordinates that change... in practice: any strictly
//!   monotone `f`), so every popped non-dominated point is *final* and can
//!   be emitted immediately.
//!
//! The search therefore terminates as soon as `k` skyline points have been
//! emitted, without materializing the full skyline.

use ssq_geom::circle::search_region_mbr;
use ssq_rtree::Entry;

use crate::b2s2::Work;
use crate::index::RTreeIndex;
use crate::query::QueryContext;
use crate::scratch::DistanceScratch;
use crate::stats::{QueryStats, SkylineResult};

/// A monotone preference function over the anchor-distance vector.
///
/// Must be non-decreasing in every coordinate and strictly increasing
/// whenever *all* coordinates weakly decrease with one strict decrease
/// (any strictly monotone function such as a weighted sum, max, or
/// `p`-norm qualifies).
pub trait Preference {
    /// Scores a distance vector; smaller is better.
    fn score(&self, distances: &[f64]) -> f64;
}

/// Weighted sum of anchor distances; with unit weights this is the
/// paper's default `mindist` ranking. Weights must be **strictly
/// positive** — a zero weight makes the preference only weakly monotone,
/// which breaks the early-emission exactness argument.
#[derive(Clone, Debug)]
pub struct WeightedSum {
    /// One non-negative weight per anchor (missing weights default to 1).
    pub weights: Vec<f64>,
}

impl WeightedSum {
    /// Unit weights: plain `mindist` ranking.
    pub fn uniform() -> WeightedSum {
        WeightedSum {
            weights: Vec::new(),
        }
    }
}

impl Preference for WeightedSum {
    fn score(&self, distances: &[f64]) -> f64 {
        distances
            .iter()
            .enumerate()
            .map(|(i, &d)| d * self.weights.get(i).copied().unwrap_or(1.0))
            .sum()
    }
}

/// Ranks by the worst-case travel distance ("minimize the farthest
/// member's trip"), breaking ties by the total distance.
///
/// The tie-break is not cosmetic: the plain max is only *weakly* monotone
/// (a dominator can tie its dominatee on the maximal coordinate), and the
/// early-emission argument needs strict monotonicity — a dominator must
/// score strictly lower. `max + ε·sum` restores strictness, because a
/// dominator's sum is always strictly smaller.
#[derive(Clone, Copy, Debug, Default)]
pub struct MaxDistance;

impl Preference for MaxDistance {
    fn score(&self, distances: &[f64]) -> f64 {
        let max = distances.iter().copied().fold(0.0, f64::max);
        let sum: f64 = distances.iter().sum();
        max + 1e-9 * sum
    }
}

/// Returns the top-`k` spatial skyline points in ascending order of the
/// preference function, stopping the branch-and-bound as soon as `k`
/// results are final. The returned `skyline` is in **rank order** (not
/// sorted by index).
pub fn b2s2_ranked<P: Preference>(
    index: &RTreeIndex,
    ctx: &QueryContext,
    k: usize,
    pref: &P,
) -> SkylineResult {
    let mut scratch = DistanceScratch::new();
    b2s2_ranked_with(index, ctx, k, pref, &mut scratch)
}

/// [`b2s2_ranked`] with a caller-provided scratch arena: the skyline's
/// distance vectors live as arena rows and the per-node lower-bound vector
/// reuses the arena's spare buffer, so repeated queries through one
/// arena stay allocation-free (modulo the returned rank vector).
///
/// Rows here hold **true** distances, not squared ones — the preference
/// function is scored on real distances, and squaring would change every
/// non-linear preference (e.g. [`MaxDistance`]'s ε-sum tie-break).
pub fn b2s2_ranked_with<P: Preference>(
    index: &RTreeIndex,
    ctx: &QueryContext,
    k: usize,
    pref: &P,
    scratch: &mut DistanceScratch,
) -> SkylineResult {
    let mut stats = QueryStats::default();
    let anchors = ctx.anchors();
    scratch.begin(anchors.len());

    let mut b = index.universe();
    let mut ranked: Vec<u32> = Vec::new();
    let mut heap = scratch.take_work_heap();
    if let Some(root) = index.tree().root() {
        heap.push(0.0, Work::Node(root, index.universe()));
    }

    while ranked.len() < k {
        let Some((_, work)) = heap.pop() else {
            break;
        };
        stats.entries_visited += 1;
        match work {
            Work::Point(i, mbr) => {
                if !mbr.intersects(&b) {
                    continue;
                }
                let p = index.point(i);
                stats.points_examined += 1;
                let certain = ctx.hull().contains(p);
                scratch.push_row_with(i, certain, anchors, |q| q.distance(p));
                stats.distance_computations += anchors.len() as u64;
                if certain || !scratch.last_dominated(&mut stats) {
                    b = b.intersection(&search_region_mbr(p, anchors));
                    ranked.push(i);
                } else {
                    scratch.pop_row();
                }
            }
            Work::Node(id, mbr) => {
                if !mbr.intersects(&b) {
                    continue;
                }
                stats.node_accesses += 1;
                for e in index.tree().entries_in_place(id) {
                    let embr = e.mbr();
                    if !embr.intersects(&b) {
                        continue;
                    }
                    // Admissible key: the preference applied to per-anchor
                    // lower bounds (held in the arena's spare buffer).
                    let key = pref.score(scratch.fill_spare_mindist(&embr, anchors));
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
    stats.allocations += scratch.take_allocations();
    SkylineResult {
        skyline: ranked,
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
    fn top_k_is_prefix_of_score_sorted_skyline() {
        for (trial, pref) in [
            (1u64, WeightedSum::uniform()),
            (
                2,
                WeightedSum {
                    weights: vec![2.0, 1.0, 0.5],
                },
            ),
        ] {
            let points = pseudorandom(200, trial * 11);
            let q = pseudorandom(3, 900 + trial);
            let ctx = QueryContext::new(&q);
            let idx = RTreeIndex::with_config(&points, ssq_rtree::RTreeConfig::with_max_entries(8));

            let full = naive_full(&points, &ctx);
            let mut want: Vec<u32> = full.skyline.clone();
            let mut stats = QueryStats::default();
            want.sort_by(|&a, &b| {
                let va = ctx.dist_vector(points[a as usize], &mut stats);
                let vb = ctx.dist_vector(points[b as usize], &mut stats);
                pref.score(&va).total_cmp(&pref.score(&vb))
            });

            for k in [1usize, 3, 10, full.skyline.len(), full.skyline.len() + 5] {
                let got = b2s2_ranked(&idx, &ctx, k, &pref);
                let expect = &want[..k.min(want.len())];
                assert_eq!(got.skyline, expect, "k = {k}, pref trial {trial}");
            }
        }
    }

    #[test]
    fn max_distance_preference() {
        let points = pseudorandom(150, 5);
        let q = pseudorandom(4, 77);
        let ctx = QueryContext::new(&q);
        let idx = RTreeIndex::with_config(&points, ssq_rtree::RTreeConfig::with_max_entries(8));
        let got = b2s2_ranked(&idx, &ctx, 3, &MaxDistance);
        assert_eq!(got.skyline.len(), 3);
        // Results must be skyline points, in ascending max-distance order.
        let full = naive_full(&points, &ctx);
        let mut stats = QueryStats::default();
        let mut last = 0.0;
        for &i in &got.skyline {
            assert!(full.contains(i));
            let v = ctx.dist_vector(points[i as usize], &mut stats);
            let s = MaxDistance.score(&v);
            assert!(s >= last - 1e-12);
            last = s;
        }
    }

    #[test]
    fn early_termination_saves_work() {
        let points = pseudorandom(3000, 9);
        let q = pseudorandom(5, 31);
        let ctx = QueryContext::new(&q);
        let idx = RTreeIndex::new(&points);
        let top1 = b2s2_ranked(&idx, &ctx, 1, &WeightedSum::uniform());
        let all = b2s2_ranked(&idx, &ctx, usize::MAX, &WeightedSum::uniform());
        assert!(top1.stats.entries_visited < all.stats.entries_visited);
        assert_eq!(top1.skyline[0], all.skyline[0]);
    }

    #[test]
    fn k_zero_returns_nothing_cheaply() {
        let points = pseudorandom(100, 3);
        let ctx = QueryContext::new(&pseudorandom(3, 4));
        let idx = RTreeIndex::new(&points);
        let r = b2s2_ranked(&idx, &ctx, 0, &WeightedSum::uniform());
        assert!(r.skyline.is_empty());
        assert_eq!(r.stats.entries_visited, 0);
    }
}
