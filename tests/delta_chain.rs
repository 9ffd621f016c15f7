//! Long chains of delta generations on one [`Snapshot`] — both physical
//! designs, the R-tree and the Voronoi index — in the shape of the
//! benchmark's `churn` stream. Release-only — run them with
//! `cargo test --release --test delta_chain -- --ignored`, as
//! `scripts/ci.sh` does.
//!
//! * The chain: 20 000 clustered points, batches of 0.2 % of them (half
//!   uniform inserts, half random deletes), 500 generations, checked for
//!   structure, answers, sharing and layout decay.
//! * The scaling row: 200-op batches on 100k, 400k and 1M points, where
//!   what a publish copies must follow the batch, not the dataset.

mod oracle;

use spatial_skyline::core::{b2s2_kernel, vs2_kernel, DistanceScratch, UpdateBatch};
use spatial_skyline::engine::Snapshot;
use spatial_skyline::prelude::*;
use spatial_skyline::workload::usgs::{synthetic_usgs_points, UsgsConfig};
use spatial_skyline::workload::{random_query_set, QueryConfig};
use ssq_rng::Xoshiro256;
use std::sync::Mutex;
use std::time::Instant;

const POINTS: usize = 20_000;
const GENERATIONS: u64 = 500;

/// Held by each test for its whole run: the chain times a kernel against
/// a fresh build, which the other test's million-point builds would skew.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// `half` uniform inserts and as many distinct random deletes out of `n`
/// points.
fn batch(rng: &mut Xoshiro256, n: usize, half: usize) -> UpdateBatch {
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

/// What a publish copied rather than shared with its parent: R-tree
/// nodes and triangle chunks, each as `(unshared, total)`.
fn unshared(next: &Snapshot, prev: &Snapshot) -> ((usize, usize), (usize, usize)) {
    let (tree, prev_tree) = (next.rtree().tree(), prev.rtree().tree());
    let nodes = tree.node_count();
    let (tri, prev_tri) = (
        next.voronoi().graph().triangulation(),
        prev.voronoi().graph().triangulation(),
    );
    let chunks = tri.chunk_count();
    (
        (nodes - tree.shared_nodes(prev_tree), nodes),
        (chunks - tri.shared_chunks(prev_tri), chunks),
    )
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
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let mut points = synthetic_usgs_points(&UsgsConfig {
        n: POINTS,
        seed: 500,
        ..UsgsConfig::default()
    });
    let mut snapshot = Snapshot::build(0, &points).unwrap();
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
        let mut next_batch = batch(&mut rng, points.len(), points.len() / 1000);
        next_batch.validate(points.len()).unwrap();
        next_batch.normalize(&Rect::bounding(points.iter().copied()));
        let (next, stats) = snapshot.apply_delta(generation, &next_batch).unwrap();
        next.rtree().tree().check_invariants();
        next.voronoi().graph().triangulation().check_invariants();
        // The R-tree half is always a delta: 40 operations copy at most
        // one node in five of a 20 000-point tree (measured over the
        // chain: median 7 %, at most 16 %; an unshared arena copied every
        // node).
        let ((nodes_copied, nodes), (chunks_copied, chunks)) = unshared(&next, &snapshot);
        assert!(
            nodes_copied * 5 <= nodes,
            "generation {generation}: {nodes_copied} of {nodes} R-tree nodes copied"
        );
        if stats.incremental {
            // What the delta did not write, it shares with its parent:
            // it copies at most one triangle chunk in three (measured:
            // median 21 %, at most 27 %) and shares at least 60 % of all
            // the Voronoi half's chunks (measured: at least 74 %).
            assert!(
                chunks_copied * 3 <= chunks,
                "generation {generation}: {chunks_copied} of {chunks} triangle chunks copied"
            );
            let (shared, total) = next.voronoi().chunks_shared_with(snapshot.voronoi());
            assert!(
                shared * 10 >= total * 6,
                "generation {generation}: {shared} of {total} chunks shared"
            );
        } else {
            // `snapshot` holds the last incremental generation before this
            // rebuild: the most tombstones and appended sites the rule
            // lets accumulate. The kernel must read within 1.3× the pages
            // of, and run within 1.3× the time of, a fresh build over the
            // same points.
            rebuilds += 1;
            let fresh = VoronoiIndex::new(&points).unwrap();
            let (decayed_accesses, decayed_s) = kernel_cost(snapshot.voronoi(), &contexts);
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
        snapshot = next;
        assert_eq!(snapshot.points(), points.as_slice());
        assert_eq!(snapshot.voronoi().len(), points.len());
        if generation % 25 == 0 {
            for (q, ctx) in queries.iter().zip(&contexts) {
                let want = oracle::dominator_region_skyline(&points, q);
                assert_eq!(
                    vs2_kernel(snapshot.voronoi(), ctx, &mut scratch).skyline,
                    want,
                    "generation {generation}, query {q:?}: VS²"
                );
                assert_eq!(
                    b2s2_kernel(snapshot.rtree(), ctx, &mut scratch).skyline,
                    want,
                    "generation {generation}, query {q:?}: B²S²"
                );
            }
        }
    }
    assert!(rebuilds >= 2, "the chain crossed {rebuilds} rebuilds");
}

/// Ten benchmark-shaped publishes (100 uniform inserts, 100 random
/// deletes) on `n` clustered points: the mean count of R-tree nodes plus
/// triangle chunks each one copied, and the median milliseconds of
/// `Snapshot::apply_delta` plus the drop of the generation it retires.
fn publish_row(n: usize) -> (f64, f64) {
    let points = synthetic_usgs_points(&UsgsConfig {
        n,
        seed: 42,
        ..UsgsConfig::default()
    });
    let mut snapshot = Snapshot::build(0, &points).unwrap();
    let mut rng = Xoshiro256::seed_from_u64(n as u64);
    let (mut copied, mut ms) = (0, Vec::new());
    for generation in 1..=10 {
        let next_batch = batch(&mut rng, snapshot.len(), 100);
        let started = Instant::now();
        let (next, stats) = snapshot.apply_delta(generation, &next_batch).unwrap();
        let applied = started.elapsed();
        assert!(stats.incremental, "{n} points, generation {generation}");
        let ((nodes, _), (chunks, _)) = unshared(&next, &snapshot);
        copied += nodes + chunks;
        let retiring = Instant::now();
        snapshot = next;
        ms.push((applied + retiring.elapsed()).as_secs_f64() * 1e3);
    }
    ms.sort_by(f64::total_cmp);
    (copied as f64 / 10.0, ms[ms.len() / 2])
}

#[test]
#[ignore = "release-only: builds 100k, 400k and 1M points"]
fn a_publish_copies_what_the_batch_writes_not_the_dataset() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let rows: Vec<(usize, (f64, f64))> = [100_000, 400_000, 1_000_000]
        .into_iter()
        .map(|n| (n, publish_row(n)))
        .collect();
    for &(n, (copied, ms)) in &rows {
        println!("{n:>9} points: {copied:>7.1} nodes + chunks copied, publish p50 {ms:.2} ms");
    }
    // Counts, not times: with the nodes and chunks shared, a batch's
    // copies depend on how spread its edits are, and 1M points spread
    // them over at most twice the nodes and chunks 100k does.
    let (small, large) = (rows[0].1 .0, rows[2].1 .0);
    assert!(
        large <= 2.0 * small,
        "1M points copy {large:.1} nodes + chunks per publish, 100k {small:.1}"
    );
}
