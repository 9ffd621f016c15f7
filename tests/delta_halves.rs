//! `Snapshot::apply_delta` runs its two index halves side by side. Along a
//! seeded chain of publishes, what it builds must match the two public
//! halves — `RTreeIndex::apply_delta` and `VoronoiIndex::apply_delta` —
//! run one after the other on the same normalized batch: the same points,
//! cell boxes, statistics and structure shared with the parent.

use spatial_skyline::core::UpdateBatch;
use spatial_skyline::engine::Snapshot;
use spatial_skyline::prelude::*;
use spatial_skyline::workload::usgs::{synthetic_usgs_points, UsgsConfig};
use ssq_rng::Xoshiro256;

/// `half` uniform inserts and as many distinct random deletes out of `n`
/// points, drawn as `tests/delta_chain.rs` draws them.
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

/// `VoronoiIndex::chunks_shared_with` along this chain, as `(shared,
/// total)` per generation: generation 13 is the rebuild rule's full
/// rebuild, which shares nothing.
const SHARED_CHUNKS: [(usize, usize); 20] = [
    (522, 1255),
    (463, 1257),
    (501, 1261),
    (483, 1263),
    (471, 1267),
    (467, 1269),
    (476, 1273),
    (469, 1275),
    (506, 1279),
    (477, 1283),
    (477, 1285),
    (470, 1289),
    (0, 1251),
    (483, 1255),
    (472, 1257),
    (480, 1261),
    (496, 1263),
    (486, 1267),
    (473, 1269),
    (457, 1273),
];

#[test]
fn twenty_side_by_side_publishes_match_the_halves_run_in_turn() {
    let points = synthetic_usgs_points(&UsgsConfig {
        n: 20_000,
        seed: 500,
        ..UsgsConfig::default()
    });
    let mut snapshot = Snapshot::build(0, &points).unwrap();
    let mut rng = Xoshiro256::seed_from_u64(0x500);
    for (generation, &want_shared) in (1..).zip(&SHARED_CHUNKS) {
        let mut next_batch = batch(&mut rng, snapshot.len(), 100);
        next_batch.normalize(&Rect::bounding(snapshot.points().iter().copied()));
        let (next, stats) = snapshot.apply_delta(generation, &next_batch).unwrap();

        let mut normalized = next_batch.clone();
        normalized.normalize(&snapshot.universe());
        let rtree = snapshot.rtree().apply_delta(&normalized);
        let (voronoi, serial_stats) = snapshot.voronoi().apply_delta(&normalized).unwrap();

        let at = format!("generation {generation}");
        assert_eq!(stats, serial_stats, "{at}");
        assert_eq!(next.points(), rtree.points(), "{at}");
        next.rtree().tree().check_invariants();
        next.voronoi().graph().triangulation().check_invariants();
        let base = snapshot.rtree().tree();
        assert_eq!(
            next.rtree().tree().shared_nodes(base),
            rtree.tree().shared_nodes(base),
            "{at}"
        );
        assert_eq!(next.voronoi().len(), voronoi.len(), "{at}");
        for id in 0..voronoi.len() as u32 {
            assert_eq!(next.voronoi().point(id), voronoi.point(id), "{at}, id {id}");
            assert_eq!(
                next.voronoi().cell_box(id),
                voronoi.cell_box(id),
                "{at}, id {id}"
            );
        }
        let shared = next.voronoi().chunks_shared_with(snapshot.voronoi());
        assert_eq!(
            shared,
            voronoi.chunks_shared_with(snapshot.voronoi()),
            "{at}"
        );
        assert_eq!(shared, want_shared, "{at}");
        snapshot = next;
    }
}
