//! Cross-algorithm equivalence: every algorithm in the paper must return
//! the same spatial skyline. Randomized (deterministic, hermetic — cases
//! come from the in-repo `ssq_rng` generator) plus targeted deterministic
//! cases.

mod oracle;

use spatial_skyline::core::{b2s2_kernel, naive_sorted_kernel, vs2_kernel, DistanceScratch};
use spatial_skyline::prelude::*;
use spatial_skyline::rtree::RTreeConfig;
use ssq_rng::Xoshiro256;

/// A set of distinct data points in the unit square.
fn random_points(rng: &mut Xoshiro256, lo: usize, hi: usize) -> Vec<Point> {
    let n = lo + rng.range_usize(hi - lo);
    let mut pts: Vec<Point> = (0..n).map(|_| Point::new(rng.f64(), rng.f64())).collect();
    pts.sort_by(Point::lex_cmp);
    pts.dedup();
    pts
}

fn random_query(rng: &mut Xoshiro256, lo: usize, hi: usize) -> Vec<Point> {
    let n = lo + rng.range_usize(hi - lo);
    (0..n).map(|_| Point::new(rng.f64(), rng.f64())).collect()
}

#[test]
fn all_algorithms_agree() {
    let mut rng = Xoshiro256::seed_from_u64(0xA1);
    for case in 0..64 {
        let points = random_points(&mut rng, 1, 60);
        let q = random_query(&mut rng, 1, 8);
        let ctx = QueryContext::new(&q);
        let want = naive_full(&points, &ctx).skyline;

        assert_eq!(
            oracle::dominator_region_skyline(&points, &q),
            want,
            "case {case}"
        );
        assert_eq!(naive_sorted(&points, &ctx).skyline, want, "case {case}");

        let rt = RTreeIndex::with_config(&points, RTreeConfig::with_max_entries(4));
        assert_eq!(bbs(&rt, &ctx).skyline, want, "case {case}");
        assert_eq!(b2s2(&rt, &ctx).skyline, want, "case {case}");

        let vi = VoronoiIndex::new(&points).unwrap();
        assert_eq!(vs2(&vi, &ctx).skyline, want, "case {case}");

        // The verbatim paper traversal may miss points but must never
        // fabricate one.
        let paper = vs2_with(&vi, &ctx, VsExpansion::Paper);
        for id in &paper.skyline {
            assert!(want.contains(id), "case {case}: paper mode fabricated {id}");
        }
    }
}

/// Son et al.'s observation, pinned: the verbatim Fig. 7 gate
/// (`VsExpansion::Paper`) can miss a skyline point. This is a seeded
/// 80-point, 3-query instance (xorshift64 seeded `2258·7919 + 80·31 + 3`)
/// shrunk by greedily deleting points while the miss persists; Paper
/// never reaches point 5, which the exact expansion and both oracles
/// report.
#[test]
fn paper_expansion_misses_a_skyline_point() {
    let points = [
        Point::new(0.9402884815641006, 0.7396961898889062),
        Point::new(0.878179849251408, 0.7770987959498001),
        Point::new(0.9894419799835229, 0.8149436606862017),
        Point::new(0.8804432669980633, 0.5625108176944669),
        Point::new(0.7583699509863555, 0.6167797199145069),
        Point::new(0.9103070026568179, 0.7712799810414619),
        Point::new(0.8312838675923037, 0.7598302102973277),
        Point::new(0.4128745529481973, 0.9732349192334542),
        Point::new(0.415925641035361, 0.6616948136547048),
        Point::new(0.9556238501582709, 0.7153805322492512),
    ];
    let q = [
        Point::new(0.3236168401055589, 0.7765146957873318),
        Point::new(0.2019986669602294, 0.7820029475329033),
        Point::new(0.9698204365571202, 0.5655571758614976),
    ];
    let ctx = QueryContext::new(&q);
    let vi = VoronoiIndex::new(&points).unwrap();
    let want = naive_full(&points, &ctx).skyline;
    assert_eq!(want, [3, 4, 5, 8]);
    assert_eq!(oracle::dominator_region_skyline(&points, &q), want);
    assert_eq!(vs2_with(&vi, &ctx, VsExpansion::Safe).skyline, want);

    let paper = vs2_with(&vi, &ctx, VsExpansion::Paper).skyline;
    assert_eq!(paper, [3, 4, 8]);
    assert!(paper.len() < want.len() && paper.iter().all(|id| want.contains(id)));
}

#[test]
fn skyline_is_never_empty_for_nonempty_data() {
    let mut rng = Xoshiro256::seed_from_u64(0xA2);
    for case in 0..64 {
        // Lemma 1 guarantees at least NN(q1) is in the skyline.
        let points = random_points(&mut rng, 1, 40);
        let q = random_query(&mut rng, 1, 6);
        let ctx = QueryContext::new(&q);
        let r = naive_full(&points, &ctx);
        assert!(!r.skyline.is_empty(), "case {case}");
    }
}

#[test]
fn skyline_members_are_pairwise_incomparable() {
    let mut rng = Xoshiro256::seed_from_u64(0xA3);
    for case in 0..64 {
        let points = random_points(&mut rng, 1, 50);
        let q = random_query(&mut rng, 1, 6);
        let ctx = QueryContext::new(&q);
        let r = naive_full(&points, &ctx);
        let vecs: Vec<Vec<f64>> = r
            .skyline
            .iter()
            .map(|&i| q.iter().map(|&x| x.distance(points[i as usize])).collect())
            .collect();
        for i in 0..vecs.len() {
            for j in 0..vecs.len() {
                if i == j {
                    continue;
                }
                let dominates = vecs[i].iter().zip(&vecs[j]).all(|(a, b)| a <= b)
                    && vecs[i].iter().zip(&vecs[j]).any(|(a, b)| a < b);
                assert!(
                    !dominates,
                    "case {case}: skyline members {i} and {j} comparable"
                );
            }
        }
    }
}

#[test]
fn mixed_algorithms_agree() {
    let mut rng = Xoshiro256::seed_from_u64(0xA4);
    for case in 0..64 {
        let points = random_points(&mut rng, 1, 40);
        let q = random_query(&mut rng, 1, 5);
        let attrs: Vec<Vec<f64>> = (0..points.len())
            .map(|_| vec![rng.f64(), rng.f64()])
            .collect();
        let ctx = QueryContext::new(&q);
        let mctx = MixedContext::new(&points, &attrs, &ctx);
        let want = mixed_naive(&points, &mctx).skyline;

        let rt = RTreeIndex::with_config(&points, RTreeConfig::with_max_entries(4));
        assert_eq!(mixed_b2s2(&rt, &mctx).skyline, want, "case {case}");
        let vi = VoronoiIndex::new(&points).unwrap();
        assert_eq!(mixed_vs2(&vi, &mctx).skyline, want, "case {case}");
    }
}

#[test]
fn duplicate_query_points_are_harmless() {
    let points: Vec<Point> = (0..20)
        .map(|i| Point::new((i as f64 * 0.37) % 1.0, (i as f64 * 0.61) % 1.0))
        .collect();
    let q = vec![
        Point::new(0.3, 0.3),
        Point::new(0.3, 0.3),
        Point::new(0.7, 0.6),
    ];
    let ctx = QueryContext::new(&q);
    let want = naive_full(&points, &ctx).skyline;
    let rt = RTreeIndex::new(&points);
    let vi = VoronoiIndex::new(&points).unwrap();
    assert_eq!(b2s2(&rt, &ctx).skyline, want);
    assert_eq!(vs2(&vi, &ctx).skyline, want);
}

#[test]
fn collinear_query_points_degenerate_hull() {
    let points: Vec<Point> = (0..30)
        .map(|i| Point::new((i as f64 * 0.17) % 1.0, (i as f64 * 0.43) % 1.0))
        .collect();
    // All query points on one line: CH(Q) is a segment with an empty
    // interior.
    let q = vec![
        Point::new(0.2, 0.2),
        Point::new(0.5, 0.5),
        Point::new(0.8, 0.8),
    ];
    let ctx = QueryContext::new(&q);
    assert_eq!(ctx.anchors().len(), 2, "interior collinear point dropped");
    let want = naive_full(&points, &ctx).skyline;
    let rt = RTreeIndex::new(&points);
    let vi = VoronoiIndex::new(&points).unwrap();
    assert_eq!(bbs(&rt, &ctx).skyline, want);
    assert_eq!(b2s2(&rt, &ctx).skyline, want);
    assert_eq!(vs2(&vi, &ctx).skyline, want);
}

#[test]
fn data_point_coinciding_with_query_point() {
    // A data point exactly at a query location dominates everything for
    // that query point's distance (distance 0).
    let points = vec![
        Point::new(0.5, 0.5),
        Point::new(0.6, 0.6),
        Point::new(0.1, 0.9),
    ];
    let q = vec![Point::new(0.5, 0.5), Point::new(0.65, 0.6)];
    let ctx = QueryContext::new(&q);
    let want = naive_full(&points, &ctx).skyline;
    assert!(want.contains(&0));
    let rt = RTreeIndex::new(&points);
    let vi = VoronoiIndex::new(&points).unwrap();
    assert_eq!(b2s2(&rt, &ctx).skyline, want);
    assert_eq!(vs2(&vi, &ctx).skyline, want);
}

#[test]
fn large_clustered_instance_all_agree() {
    use spatial_skyline::workload::usgs::{synthetic_usgs_points, UsgsConfig};
    let points = synthetic_usgs_points(&UsgsConfig {
        n: 3000,
        seed: 1234,
        ..UsgsConfig::default()
    });
    let q = spatial_skyline::workload::random_query_set(
        &spatial_skyline::workload::QueryConfig::paper_default(7, 42),
    );
    let ctx = QueryContext::new(&q);
    let want = naive_sorted(&points, &ctx).skyline;
    let rt = RTreeIndex::new(&points);
    let vi = VoronoiIndex::new(&points).unwrap();
    assert_eq!(bbs(&rt, &ctx).skyline, want);
    assert_eq!(b2s2(&rt, &ctx).skyline, want);
    assert_eq!(vs2(&vi, &ctx).skyline, want);
}

/// The independent oracle as one more column, at a scale `naive_full`'s
/// `O(n²)` cannot reach: every algorithm and kernel on 24 000 clustered
/// points must return the dominator-region scan's skyline.
#[test]
fn every_kernel_matches_the_dominator_region_oracle_at_scale() {
    use spatial_skyline::workload::usgs::{synthetic_usgs_points, UsgsConfig};
    use spatial_skyline::workload::{random_query_set, QueryConfig};
    let points = synthetic_usgs_points(&UsgsConfig {
        n: 24_000,
        seed: 2906,
        ..UsgsConfig::default()
    });
    let rt = RTreeIndex::new(&points);
    let vi = VoronoiIndex::new(&points).unwrap();
    let mut scratch = DistanceScratch::new();
    for (case, (count, area)) in [(1, 0.001), (2, 0.002), (4, 0.001), (7, 0.005), (12, 0.01)]
        .into_iter()
        .enumerate()
    {
        let q = random_query_set(&QueryConfig {
            count,
            mbr_area_fraction: area,
            ..QueryConfig::paper_default(count, 100 + case as u64)
        });
        let ctx = QueryContext::new(&q);
        let want = oracle::dominator_region_skyline(&points, &q);
        assert!(!want.is_empty(), "case {case}");
        assert_eq!(
            naive_sorted(&points, &ctx).skyline,
            want,
            "naive, case {case}"
        );
        assert_eq!(
            naive_sorted_kernel(&points, &ctx, &mut scratch).skyline,
            want,
            "naive kernel, case {case}"
        );
        assert_eq!(bbs(&rt, &ctx).skyline, want, "BBS, case {case}");
        assert_eq!(b2s2(&rt, &ctx).skyline, want, "B²S², case {case}");
        assert_eq!(
            b2s2_kernel(&rt, &ctx, &mut scratch).skyline,
            want,
            "B²S² kernel, case {case}"
        );
        assert_eq!(vs2(&vi, &ctx).skyline, want, "VS², case {case}");
        assert_eq!(
            vs2_kernel(&vi, &ctx, &mut scratch).skyline,
            want,
            "VS² kernel, case {case}"
        );
    }
}
