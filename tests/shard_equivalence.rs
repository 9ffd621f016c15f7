//! The sharded engine must be indistinguishable from both the
//! single-engine and the naive oracle — for every partition policy,
//! shard count, and data distribution.
//!
//! Covers the acceptance matrix:
//!
//! * **uniform** and **clustered** datasets;
//! * 1, 2, 4 and 8 shards, grid and kd-split policies;
//! * queries whose `CH(Q)` straddles shard boundaries (anchors spread
//!   across the whole universe, so no single shard contains the hull);
//! * corner queries where the pruning bound demonstrably skips shards —
//!   without changing a single answer.
//!
//! Deterministic and hermetic: all randomness from the in-repo `ssq_rng`.

use spatial_skyline::engine::{Engine, EngineConfig, QueryRequest};
use spatial_skyline::prelude::*;
use spatial_skyline::shard::{PartitionPolicy, ShardConfig, ShardedEngine};
use ssq_rng::Xoshiro256;

fn uniform_dataset(n: usize, seed: u64) -> Vec<Point> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut pts: Vec<Point> = (0..n)
        .map(|_| Point::new(rng.f64() * 10.0, rng.f64() * 10.0))
        .collect();
    pts.sort_by(Point::lex_cmp);
    pts.dedup();
    pts
}

fn clustered_dataset(n: usize, seed: u64) -> Vec<Point> {
    // A handful of tight Gaussian blobs: shard loads are skewed, and
    // grid cells straddle cluster edges.
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let centers: Vec<Point> = (0..5)
        .map(|_| Point::new(rng.f64() * 10.0, rng.f64() * 10.0))
        .collect();
    let mut pts: Vec<Point> = (0..n)
        .map(|i| {
            let c = centers[i % centers.len()];
            let (dx, dy) = rng.gaussian_pair();
            Point::new(
                (c.x + dx * 0.5).clamp(0.0, 10.0),
                (c.y + dy * 0.5).clamp(0.0, 10.0),
            )
        })
        .collect();
    pts.sort_by(Point::lex_cmp);
    pts.dedup();
    pts
}

/// Every routed answer must equal both oracles, across the full
/// policy × shard-count matrix.
fn assert_matrix(data: &[Point], queries: &[Vec<Point>], label: &str) {
    let single = Engine::new(data, EngineConfig::default().with_workers(2)).unwrap();
    for policy in PartitionPolicy::ALL {
        for shards in [1usize, 2, 4, 8] {
            let config = ShardConfig::default()
                .with_shards(shards)
                .with_policy(policy)
                .with_engine(EngineConfig::default().with_workers(2));
            let sharded = ShardedEngine::new(data, config).unwrap();
            for (qi, q) in queries.iter().enumerate() {
                let got = sharded.query(q).unwrap();
                let via_engine = single.submit(QueryRequest::new(q.clone())).wait();
                let want = naive_full(data, &QueryContext::new(q)).skyline;
                assert_eq!(
                    got.skyline, want,
                    "{label}: policy {policy}, {shards} shards, query {qi} vs naive"
                );
                assert_eq!(
                    via_engine.skyline, want,
                    "{label}: single engine diverged on query {qi}"
                );
                assert_eq!(
                    got.shards_queried + got.shards_pruned,
                    sharded.shard_count(),
                    "{label}: shard accounting broken"
                );
            }
            sharded.shutdown();
        }
    }
    single.shutdown();
}

/// Query sets whose hull straddles shard boundaries: anchors spread over
/// the whole universe, so with ≥ 2 shards no shard rect contains CH(Q).
fn straddling_queries(rng: &mut Xoshiro256) -> Vec<Vec<Point>> {
    let mut qs = vec![
        // Fixed wide triangle: corners of three different quadrants.
        vec![
            Point::new(1.0, 1.0),
            Point::new(9.0, 2.0),
            Point::new(5.0, 9.0),
        ],
        // A hull crossing the vertical midline only.
        vec![
            Point::new(4.0, 5.0),
            Point::new(6.0, 4.5),
            Point::new(5.0, 6.0),
        ],
    ];
    for _ in 0..4 {
        let n = 2 + rng.range_usize(5);
        qs.push(
            (0..n)
                .map(|_| Point::new(rng.f64() * 10.0, rng.f64() * 10.0))
                .collect(),
        );
    }
    qs
}

#[test]
fn uniform_workload_matches_both_oracles() {
    let data = uniform_dataset(500, 0x5EED);
    let mut rng = Xoshiro256::seed_from_u64(0x5EED + 1);
    let queries = straddling_queries(&mut rng);
    assert_matrix(&data, &queries, "uniform");
}

#[test]
fn clustered_workload_matches_both_oracles() {
    let data = clustered_dataset(500, 0xC1A5);
    let mut rng = Xoshiro256::seed_from_u64(0xC1A5 + 1);
    let queries = straddling_queries(&mut rng);
    assert_matrix(&data, &queries, "clustered");
}

#[test]
fn corner_queries_prune_shards_and_stay_exact() {
    let data = uniform_dataset(800, 0xC04E);
    let config = ShardConfig::default()
        .with_shards(8)
        .with_engine(EngineConfig::default().with_workers(2));
    let engine = ShardedEngine::new(&data, config).unwrap();
    let mut rng = Xoshiro256::seed_from_u64(0xC04E + 1);
    let mut total_pruned = 0usize;
    for _ in 0..6 {
        // Tight query sets in the low corner of the 10×10 universe.
        let q: Vec<Point> = (0..3)
            .map(|_| Point::new(rng.f64() * 0.8, rng.f64() * 0.8))
            .collect();
        let got = engine.query(&q).unwrap();
        assert_eq!(
            got.skyline,
            naive_full(&data, &QueryContext::new(&q)).skyline,
            "pruning changed the answer on {q:?}"
        );
        total_pruned += got.shards_pruned;
    }
    assert!(
        total_pruned > 0,
        "corner queries never pruned a shard out of {} shards",
        engine.shard_count()
    );
    let m = engine.metrics();
    assert_eq!(m.router.shards_pruned as usize, total_pruned);
    assert!(m.router.prune_rate() > 0.0);
    engine.shutdown();
}

#[test]
fn pruning_on_and_off_agree_everywhere() {
    // Belt and braces for the bound's soundness: with pruning disabled
    // the router queries every shard, so any divergence is the bound's
    // fault alone.
    let data = clustered_dataset(400, 0xAB1E);
    let on = ShardedEngine::new(
        &data,
        ShardConfig::default()
            .with_shards(8)
            .with_engine(EngineConfig::default().with_workers(2)),
    )
    .unwrap();
    let off = ShardedEngine::new(
        &data,
        ShardConfig::default()
            .with_shards(8)
            .with_engine(EngineConfig::default().with_workers(2))
            .with_prune(false),
    )
    .unwrap();
    let mut rng = Xoshiro256::seed_from_u64(0xAB1E + 1);
    for case in 0..12 {
        let n = 2 + rng.range_usize(5);
        let q: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.f64() * 10.0, rng.f64() * 10.0))
            .collect();
        let a = on.query(&q).unwrap();
        let b = off.query(&q).unwrap();
        assert_eq!(
            a.skyline, b.skyline,
            "case {case}: pruning changed the answer"
        );
        assert_eq!(b.shards_pruned, 0);
    }
    on.shutdown();
    off.shutdown();
}
