//! A long chain of delta generations on one Voronoi index, the shape of
//! the benchmark's `churn` stream at a fifth of its size: 20 000 clustered
//! points, batches of 0.2 % of them (half uniform inserts, half random
//! deletes), 500 generations. Release-only — run it with
//! `cargo test --release --test delta_chain -- --ignored`, as
//! `scripts/ci.sh` does.

mod oracle;

use spatial_skyline::core::{vs2_kernel, DistanceScratch, UpdateBatch};
use spatial_skyline::prelude::*;
use spatial_skyline::workload::usgs::{synthetic_usgs_points, UsgsConfig};
use spatial_skyline::workload::{random_query_set, QueryConfig};
use ssq_rng::Xoshiro256;
use std::time::Instant;

const POINTS: usize = 20_000;
const GENERATIONS: u64 = 500;

/// The benchmark's batch shape: `n / 1000` uniform inserts and as many
/// distinct random deletes.
fn batch(rng: &mut Xoshiro256, n: usize) -> UpdateBatch {
    let half = n / 1000;
    let inserts = (0..half)
        .map(|_| Point::new(rng.f64(), rng.f64()))
        .collect();
    let mut deletes: Vec<u32> = Vec::with_capacity(half);
    while deletes.len() < half {
        let id = rng.range_usize(n) as u32;
        if !deletes.contains(&id) {
            deletes.push(id);
        }
    }
    UpdateBatch { inserts, deletes }
}

/// `points` after `batch` (normalized): the inserts refill the deleted
/// ids in order, the rest append, surplus holes close by `swap_remove`
/// from the top.
fn apply(points: &[Point], batch: &UpdateBatch) -> Vec<Point> {
    let mut next = points.to_vec();
    let mut inserts = batch.inserts.iter().copied();
    let mut holes = Vec::new();
    for &d in &batch.deletes {
        match inserts.next() {
            Some(p) => next[d as usize] = p,
            None => holes.push(d),
        }
    }
    next.extend(inserts);
    for &h in holes.iter().rev() {
        next.swap_remove(h as usize);
    }
    next
}

/// `vs2_kernel`'s total node accesses over `queries` on `index`, and its
/// best time over nine passes.
fn kernel_cost(index: &VoronoiIndex, queries: &[QueryContext]) -> (u64, f64) {
    let mut scratch = DistanceScratch::new();
    let mut accesses = 0;
    let mut best = f64::INFINITY;
    for pass in 0..9 {
        let started = Instant::now();
        for ctx in queries {
            let stats = vs2_kernel(index, ctx, &mut scratch).stats;
            if pass == 0 {
                accesses += stats.node_accesses;
            }
        }
        best = best.min(started.elapsed().as_secs_f64());
    }
    (accesses, best)
}

#[test]
#[ignore = "release-only: 500 generations over 20 000 points"]
fn five_hundred_generations_stay_exact_shared_and_undecayed() {
    let mut points = synthetic_usgs_points(&UsgsConfig {
        n: POINTS,
        seed: 500,
        ..UsgsConfig::default()
    });
    let mut index = VoronoiIndex::new(&points).unwrap();
    let queries: Vec<Vec<Point>> = (0..24u64)
        .map(|k| {
            let count = 2 + k as usize % 7;
            random_query_set(&QueryConfig {
                mbr_area_fraction: [0.0005, 0.001, 0.003][k as usize % 3],
                ..QueryConfig::paper_default(count, 7000 + k)
            })
        })
        .collect();
    let contexts: Vec<QueryContext> = queries.iter().map(|q| QueryContext::new(q)).collect();
    let mut rng = Xoshiro256::seed_from_u64(0x500);
    let mut scratch = DistanceScratch::new();
    let mut rebuilds = 0;
    for generation in 1..=GENERATIONS {
        let mut next_batch = batch(&mut rng, points.len());
        next_batch.validate(points.len()).unwrap();
        next_batch.normalize(&Rect::bounding(points.iter().copied()));
        let (next, stats) = index.apply_delta(&next_batch).unwrap();
        if stats.incremental {
            // What the delta did not write, it shares with its parent.
            let (shared, total) = next.chunks_shared_with(&index);
            assert!(
                shared * 10 >= total * 6,
                "generation {generation}: {shared} of {total} chunks shared"
            );
        } else {
            // `index` is the last incremental generation before this
            // rebuild: the most tombstones and appended sites the rule
            // lets accumulate. The kernel must read within 1.3× the pages
            // of, and run within 1.3× the time of, a fresh build over the
            // same points.
            rebuilds += 1;
            let fresh = VoronoiIndex::new(&points).unwrap();
            let (decayed_accesses, decayed_s) = kernel_cost(&index, &contexts);
            let (fresh_accesses, fresh_s) = kernel_cost(&fresh, &contexts);
            assert!(
                decayed_accesses * 10 <= fresh_accesses * 13,
                "generation {generation}: {decayed_accesses} node accesses against {fresh_accesses} fresh"
            );
            assert!(
                decayed_s <= fresh_s * 1.3,
                "generation {generation}: {decayed_s:.6} s against {fresh_s:.6} s fresh"
            );
        }
        points = apply(&points, &next_batch);
        index = next;
        assert_eq!(index.len(), points.len());
        if generation % 25 == 0 {
            for (q, ctx) in queries.iter().zip(&contexts) {
                assert_eq!(
                    vs2_kernel(&index, ctx, &mut scratch).skyline,
                    oracle::dominator_region_skyline(&points, q),
                    "generation {generation}, query {q:?}"
                );
            }
        }
    }
    assert!(rebuilds >= 2, "the chain crossed {rebuilds} rebuilds");
}
