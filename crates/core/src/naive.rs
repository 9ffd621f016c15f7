//! Brute-force spatial skyline baselines (the paper's §2.2 strawman and
//! the test oracle for every other algorithm).

use ssq_geom::Point;

use crate::query::{dominates, QueryContext};
use crate::scratch::DistanceScratch;
use crate::stats::{QueryStats, SkylineResult};

/// The literal `O(|P|² · |Q|)` brute force of §2.2: every point is checked
/// against every other point over the **full** query set. Exact but slow —
/// the oracle for small instances.
pub fn naive_full(points: &[Point], ctx: &QueryContext) -> SkylineResult {
    let mut stats = QueryStats::default();
    let vectors: Vec<Vec<f64>> = points
        .iter()
        .map(|&p| ctx.dist_vector_full(p, &mut stats))
        .collect();
    let mut skyline = Vec::new();
    for i in 0..points.len() {
        stats.points_examined += 1;
        let mut dominated = false;
        for j in 0..points.len() {
            if i == j {
                continue;
            }
            stats.dominance_checks += 1;
            if dominates(&vectors[j], &vectors[i]) {
                dominated = true;
                break;
            }
        }
        if !dominated {
            skyline.push(i as u32);
        }
    }
    SkylineResult { skyline, stats }
}

/// A sort-based exact scan (the strongest index-free baseline): points are
/// processed in ascending key order over the hull vertices, so a dominator
/// always precedes its dominatees and each point only needs a check
/// against the skyline found so far — `O(|P| · |S| · |CHv(Q)|)` plus the
/// sort. This is [`naive_sorted_kernel`] on a throw-away arena, for
/// callers with no per-worker [`DistanceScratch`] to reuse.
pub fn naive_sorted(points: &[Point], ctx: &QueryContext) -> SkylineResult {
    naive_sorted_kernel(points, ctx, &mut DistanceScratch::new())
}

/// The sorted scan over the caller's scratch arena: every distance vector
/// lives as a squared-distance row (sound — see [`ssq_geom::kernel`]) and
/// the steady-state query performs no heap allocation beyond arena growth
/// and the returned id vector.
pub fn naive_sorted_kernel(
    points: &[Point],
    ctx: &QueryContext,
    scratch: &mut DistanceScratch,
) -> SkylineResult {
    let mut stats = QueryStats::default();
    let n = naive_sorted_into(points, ctx, scratch, &mut stats);
    let mut skyline = Vec::with_capacity(n);
    skyline.extend_from_slice(scratch.result());
    SkylineResult { skyline, stats }
}

/// The allocation-free core of [`naive_sorted_kernel`]: batch-fills the
/// arena's distance tiles through the dispatched SIMD kernel (four
/// points × all anchors per sweep), resolves the skyline ids into the
/// arena's result buffer (read them back via
/// [`DistanceScratch::result`]), and returns how many there are. After
/// one warm-up call on a given workload shape, subsequent calls perform
/// zero heap allocations.
// ssq-analyze: deny-alloc
pub fn naive_sorted_into(
    points: &[Point],
    ctx: &QueryContext,
    scratch: &mut DistanceScratch,
    stats: &mut QueryStats,
) -> usize {
    let anchors = ctx.anchors();
    scratch.begin(anchors.len());
    scratch.fill_rows(points, anchors);
    stats.distance_computations += (points.len() * anchors.len()) as u64;
    stats.points_examined += points.len() as u64;
    let n = scratch.resolve(stats).len();
    stats.allocations += scratch.take_allocations();
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn figure2_style_example() {
        // One query pair; the point nearest both dominates points farther
        // from both.
        let points = vec![p(1.0, 0.0), p(5.0, 0.0), p(2.1, 0.0)];
        let ctx = QueryContext::new(&[p(0.0, 0.0), p(2.0, 0.0)]);
        let r = naive_full(&points, &ctx);
        // Distances (q0, q1): point0 = (1, 1), point1 = (5, 3),
        // point2 = (2.1, 0.1). Point 2 dominates point 1; points 0 and 2
        // are incomparable (each wins on one query point).
        assert_eq!(r.skyline, vec![0, 2]);
    }

    #[test]
    fn nn_of_each_query_point_is_in_skyline() {
        // Lemma 1 as a sanity test on the oracle itself.
        let points = vec![
            p(0.1, 0.1),
            p(0.9, 0.9),
            p(0.5, 0.2),
            p(0.3, 0.8),
            p(0.7, 0.4),
        ];
        let q = [p(0.0, 0.0), p(1.0, 1.0)];
        let ctx = QueryContext::new(&q);
        let r = naive_full(&points, &ctx);
        for &qi in &q {
            let nn = (0..points.len() as u32)
                .min_by(|&a, &b| {
                    points[a as usize]
                        .distance_sq(qi)
                        .total_cmp(&points[b as usize].distance_sq(qi))
                })
                .unwrap();
            assert!(r.contains(nn), "NN({qi:?}) = {nn} must be in the skyline");
        }
    }

    #[test]
    fn sorted_scan_matches_full_scan() {
        let mut seed = 77u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        for trial in 0..25 {
            let n = 5 + trial * 4;
            let points: Vec<Point> = (0..n).map(|_| p(next(), next())).collect();
            let q: Vec<Point> = (0..2 + trial % 5).map(|_| p(next(), next())).collect();
            let ctx = QueryContext::new(&q);
            let full = naive_full(&points, &ctx);
            let sorted = naive_sorted(&points, &ctx);
            assert_eq!(full.skyline, sorted.skyline, "trial {trial}");
        }
    }

    #[test]
    fn kernel_scan_matches_the_scalar_scan() {
        let mut seed = 99u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut scratch = DistanceScratch::new();
        for trial in 0..25 {
            let n = 5 + trial * 4;
            let points: Vec<Point> = (0..n).map(|_| p(next(), next())).collect();
            let q: Vec<Point> = (0..2 + trial % 5).map(|_| p(next(), next())).collect();
            let ctx = QueryContext::new(&q);
            let scalar = naive_sorted(&points, &ctx);
            let kernel = naive_sorted_kernel(&points, &ctx, &mut scratch);
            assert_eq!(scalar.skyline, kernel.skyline, "trial {trial}");
            // `naive_sorted` runs on a fresh arena every time; the shared
            // one must give the same answer warm, and once warm stops
            // growing.
            if trial > 0 {
                assert!(
                    kernel.stats.allocations <= scalar.stats.allocations,
                    "trial {trial}: kernel allocated more than scalar"
                );
            }
        }
    }

    #[test]
    fn single_query_point_gives_nearest_only() {
        let points = vec![p(0.0, 0.0), p(1.0, 0.0), p(2.0, 0.0)];
        let ctx = QueryContext::new(&[p(0.9, 0.0)]);
        assert_eq!(naive_full(&points, &ctx).skyline, vec![1]);
        assert_eq!(naive_sorted(&points, &ctx).skyline, vec![1]);
    }

    #[test]
    fn duplicate_distance_points_both_survive() {
        // Two points equidistant from every query point are incomparable.
        let points = vec![p(0.0, 1.0), p(0.0, -1.0), p(5.0, 5.0)];
        let ctx = QueryContext::new(&[p(0.0, 0.0), p(1.0, 0.0)]);
        let r = naive_full(&points, &ctx);
        assert!(r.contains(0));
        assert!(r.contains(1));
        assert!(!r.contains(2));
    }

    #[test]
    fn empty_dataset() {
        let ctx = QueryContext::new(&[p(0.0, 0.0)]);
        assert!(naive_full(&[], &ctx).skyline.is_empty());
        assert!(naive_sorted(&[], &ctx).skyline.is_empty());
    }
}
