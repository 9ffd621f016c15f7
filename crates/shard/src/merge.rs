//! Cross-shard skyline merge.
//!
//! Correctness rests on the union lemma: a point dominated within its
//! own shard is dominated in the union, so
//! `skyline(P_1 ∪ … ∪ P_k) ⊆ skyline(P_1) ∪ … ∪ skyline(P_k)`.
//! The merge therefore only has to run a dominance filter over the
//! per-shard skylines (the *candidates*), never the full dataset.
//!
//! The filter exploits a standard trick: dominance implies a strictly
//! smaller distance *sum*, so after sorting candidates by
//! `sum_i d(p, q_i)` every possible dominator of a candidate precedes
//! it, and one forward sweep suffices — no back-substitution pass.

use ssq_core::{DistanceScratch, QueryContext, QueryStats};
use ssq_geom::Point;

/// Reduces per-shard skyline candidates `(global_id, location)` to the
/// exact skyline of their union w.r.t. `ctx`, returning ascending global
/// ids. Dominance tests are counted into `stats`.
///
/// Candidate vectors live in `scratch` as **squared**-distance rows (the
/// dominance relation is unchanged under squaring — see
/// [`ssq_geom::kernel`]) and candidates inside `CH(Q)` skip their
/// dominance checks outright (Theorem 1), so the steady-state merge
/// allocates nothing beyond arena growth and the returned id vector.
pub fn merge_candidates_with(
    ctx: &QueryContext,
    candidates: &[(u32, Point)],
    stats: &mut QueryStats,
    scratch: &mut DistanceScratch,
) -> Vec<u32> {
    let anchors = ctx.anchors();
    scratch.begin(anchors.len());
    for &(id, p) in candidates {
        scratch.push_row(id, ctx.hull().contains(p), p, anchors);
    }
    stats.distance_computations += (candidates.len() * anchors.len()) as u64;
    let ids = scratch.resolve(stats).to_vec();
    stats.allocations += scratch.take_allocations();
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssq_core::naive_full;

    fn cloud(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| {
                Point::new(
                    (i % 23) as f64 + 2e-4 * i as f64,
                    (i / 23) as f64 + 7e-5 * i as f64,
                )
            })
            .collect()
    }

    fn merge(ctx: &QueryContext, candidates: &[(u32, Point)], stats: &mut QueryStats) -> Vec<u32> {
        merge_candidates_with(ctx, candidates, stats, &mut DistanceScratch::new())
    }

    #[test]
    fn merging_all_points_reproduces_the_skyline() {
        let data = cloud(300);
        let candidates: Vec<(u32, Point)> = data
            .iter()
            .enumerate()
            .map(|(i, &p)| (i as u32, p))
            .collect();
        // One arena across trials: after the first, the merge runs warm.
        let mut scratch = DistanceScratch::new();
        for trial in 0..6u32 {
            let q = vec![
                Point::new(2.0 + trial as f64, 5.0),
                Point::new(12.0, 2.0 + trial as f64),
                Point::new(8.0, 9.0),
            ];
            let ctx = QueryContext::new(&q);
            let mut stats = QueryStats::default();
            let got = merge_candidates_with(&ctx, &candidates, &mut stats, &mut scratch);
            assert_eq!(got, naive_full(&data, &ctx).skyline, "trial {trial}");
            assert!(stats.dominance_checks > 0, "trial {trial}");
            if trial > 0 {
                assert_eq!(
                    stats.allocations, 0,
                    "trial {trial}: a warm merge grows nothing"
                );
            }
        }
    }

    #[test]
    fn merge_of_partition_skylines_is_the_union_skyline() {
        let data = cloud(240);
        let q = vec![Point::new(3.0, 3.0), Point::new(15.0, 6.0)];
        let ctx = QueryContext::new(&q);
        // Split round-robin into 3 parts, take each part's skyline.
        let mut candidates = Vec::new();
        for r in 0..3usize {
            let ids: Vec<u32> = (0..data.len() as u32)
                .filter(|i| *i as usize % 3 == r)
                .collect();
            let pts: Vec<Point> = ids.iter().map(|&i| data[i as usize]).collect();
            let local = naive_full(&pts, &ctx).skyline;
            candidates.extend(local.iter().map(|&l| (ids[l as usize], pts[l as usize])));
        }
        let mut stats = QueryStats::default();
        let got = merge(&ctx, &candidates, &mut stats);
        assert_eq!(got, naive_full(&data, &ctx).skyline);
    }

    #[test]
    fn empty_candidates_merge_to_empty() {
        let q = vec![Point::new(0.0, 0.0), Point::new(1.0, 1.0)];
        let mut stats = QueryStats::default();
        assert!(merge(&QueryContext::new(&q), &[], &mut stats).is_empty());
    }
}
