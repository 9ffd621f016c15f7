//! Moderate-scale end-to-end test: all algorithms must agree on a
//! clustered 20k-point dataset across a spread of query shapes, and the
//! two VS² start-point modes (directory vs walk-from-hint) must be
//! indistinguishable in results.

use spatial_skyline::prelude::*;
use spatial_skyline::workload::queries::{random_query_set, QueryConfig};
use spatial_skyline::workload::usgs::{synthetic_usgs_points, UsgsConfig};

#[test]
fn all_algorithms_agree_at_20k() {
    let points = synthetic_usgs_points(&UsgsConfig {
        n: 20_000,
        seed: 0x5CA1E,
        ..UsgsConfig::default()
    });
    let rt = RTreeIndex::new(&points);
    let vi = VoronoiIndex::new(&points).unwrap();
    let vi_greedy = spatial_skyline::core::VoronoiIndex::without_start_index(&points).unwrap();

    for (count, frac, seed) in [
        (2usize, 0.001, 1u64),
        (5, 0.0001, 2),
        (8, 0.003, 3),
        (12, 0.01, 4),
    ] {
        let q = random_query_set(&QueryConfig {
            count,
            mbr_area_fraction: frac,
            universe: spatial_skyline::workload::usgs::universe(),
            seed,
        });
        let ctx = QueryContext::new(&q);
        let want = naive_sorted(&points, &ctx).skyline;
        assert!(!want.is_empty());
        assert_eq!(bbs(&rt, &ctx).skyline, want, "bbs |Q|={count} frac={frac}");
        assert_eq!(
            b2s2(&rt, &ctx).skyline,
            want,
            "b2s2 |Q|={count} frac={frac}"
        );
        assert_eq!(vs2(&vi, &ctx).skyline, want, "vs2 |Q|={count} frac={frac}");
        assert_eq!(
            vs2(&vi_greedy, &ctx).skyline,
            want,
            "vs2/greedy |Q|={count} frac={frac}"
        );
    }
}

#[test]
fn continuous_at_10k_stays_exact_with_spot_checks() {
    use spatial_skyline::workload::motion::{MotionConfig, MovingQuerySet};

    let points = synthetic_usgs_points(&UsgsConfig {
        n: 10_000,
        seed: 0xB16,
        ..UsgsConfig::default()
    });
    let vi = VoronoiIndex::new(&points).unwrap();
    let mut team = MovingQuerySet::new(MotionConfig {
        count: 6,
        step: 0.006,
        start_box: 0.05,
        seed: 0x33,
        ..MotionConfig::default()
    });
    let mut cont = ContinuousSkyline::new(&vi, team.positions());
    for step in 0..300 {
        let up = team.next_update();
        cont.update(up.index, up.location);
        // Spot-check exactness every 25 updates (a full check per update
        // at this scale belongs in the release-mode harness).
        if step % 25 == 24 {
            let fresh = vs2(&vi, &QueryContext::new(team.positions()));
            assert_eq!(cont.skyline(), fresh.skyline, "divergence at step {step}");
        }
    }
    let counts = cont.counts();
    assert!(counts.recomputed * 5 < counts.total(), "{counts:?}");
}
