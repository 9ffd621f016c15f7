//! Property test for the union lemma the whole crate rests on:
//! for *any* partition of *any* point set,
//! `merge(skyline(P_1), …, skyline(P_k)) == skyline(P_1 ∪ … ∪ P_k)`.
//!
//! Partitions here are adversarial — uniformly random assignment, not
//! spatial — so the lemma is exercised far outside what the grid /
//! kd-split partitioners would ever produce (interleaved parts, empty
//! parts, singleton parts). Deterministic via the in-repo `ssq-rng`.

use ssq_core::{naive_full, DistanceScratch, QueryContext, QueryStats};
use ssq_geom::Point;
use ssq_rng::Xoshiro256;
use ssq_shard::merge_candidates_with;

/// The served merge, on a fresh arena.
fn merge_candidates(
    ctx: &QueryContext,
    candidates: &[(u32, Point)],
    stats: &mut QueryStats,
) -> Vec<u32> {
    merge_candidates_with(ctx, candidates, stats, &mut DistanceScratch::new())
}

fn random_points(rng: &mut Xoshiro256, n: usize) -> Vec<Point> {
    let mut pts: Vec<Point> = (0..n)
        .map(|_| Point::new(rng.f64() * 100.0, rng.f64() * 100.0))
        .collect();
    pts.sort_by(Point::lex_cmp);
    pts.dedup();
    pts
}

#[test]
fn merged_partition_skylines_equal_the_union_skyline() {
    let mut rng = Xoshiro256::seed_from_u64(0x5AD0);
    for case in 0..60 {
        let n = 2 + rng.range_usize(199);
        let data = random_points(&mut rng, n);
        let k = 1 + rng.range_usize(9);
        let m = 1 + rng.range_usize(6);
        let q: Vec<Point> = (0..m)
            .map(|_| Point::new(rng.f64() * 100.0, rng.f64() * 100.0))
            .collect();
        let ctx = QueryContext::new(&q);

        // Uniformly random assignment of points to k parts (some parts
        // may come out empty — the lemma must hold regardless).
        let mut parts: Vec<Vec<u32>> = vec![Vec::new(); k];
        for i in 0..data.len() {
            parts[rng.range_usize(k)].push(i as u32);
        }

        // Per-part skylines, remapped to global ids.
        let mut candidates: Vec<(u32, Point)> = Vec::new();
        for ids in parts.iter().filter(|ids| !ids.is_empty()) {
            let pts: Vec<Point> = ids.iter().map(|&i| data[i as usize]).collect();
            let local = naive_full(&pts, &ctx).skyline;
            candidates.extend(local.iter().map(|&l| (ids[l as usize], pts[l as usize])));
        }

        let mut stats = QueryStats::default();
        let merged = merge_candidates(&ctx, &candidates, &mut stats);
        let want = naive_full(&data, &ctx).skyline;
        assert_eq!(
            merged, want,
            "case {case}: n={n} k={k} |Q|={m} — merged partition skylines diverged"
        );
    }
}

#[test]
fn merge_is_idempotent_on_a_skyline() {
    // Merging an already-exact skyline with itself must change nothing:
    // duplicates tie on every component and ties never dominate — but
    // they would *duplicate* ids if the merge did not key by id, so pass
    // each id once and check set equality survives a double merge.
    let mut rng = Xoshiro256::seed_from_u64(0x5AD1);
    let data = random_points(&mut rng, 150);
    let q = vec![
        Point::new(20.0, 30.0),
        Point::new(70.0, 40.0),
        Point::new(50.0, 80.0),
    ];
    let ctx = QueryContext::new(&q);
    let want = naive_full(&data, &ctx).skyline;
    let candidates: Vec<(u32, Point)> = want.iter().map(|&i| (i, data[i as usize])).collect();
    let mut stats = QueryStats::default();
    let once = merge_candidates(&ctx, &candidates, &mut stats);
    assert_eq!(once, want);
    let twice = merge_candidates(&ctx, &candidates, &mut stats);
    assert_eq!(twice, want);
}
