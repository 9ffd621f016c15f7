//! Oracle equivalence: a diagram-served answer must be byte-identical
//! to the planner's answer for the same query on the same snapshot.
//!
//! The matrix: {uniform, clustered} datasets × {1, 2, 3} anchors ×
//! {single engine, 4-shard fleet}, single anchors also outside the data
//! MBR, plus generation scoping — after a reindex a cell holding the old
//! snapshot's answer must never answer for the new one, and the first
//! miss refreshes it.

use ssq_core::{naive_full, QueryContext, QueryKey};
use ssq_engine::{DiagramConfig, Engine, EngineConfig, QueryRequest, ServedBy};
use ssq_geom::{Point, Rect};
use ssq_shard::{ShardConfig, ShardedEngine};
use ssq_workload::usgs::{synthetic_usgs_points, uniform_points, UsgsConfig};
use ssq_workload::{random_query_set, QueryConfig};

const QUANTUM: f64 = 1e-9;

fn datasets() -> Vec<(&'static str, Vec<Point>)> {
    vec![
        ("uniform", uniform_points(400, 0xD1A6)),
        (
            "clustered",
            synthetic_usgs_points(&UsgsConfig {
                n: 400,
                seed: 0xD1A7,
                ..UsgsConfig::default()
            }),
        ),
    ]
}

/// Query sets of `anchors` points each, placed inside the dataset MBR.
fn shapes(universe: Rect, anchors: usize, n: usize, seed: u64) -> Vec<Vec<Point>> {
    (0..n)
        .map(|i| {
            random_query_set(&QueryConfig {
                count: anchors,
                mbr_area_fraction: 0.01,
                universe,
                seed: seed.wrapping_add(i as u64),
            })
        })
        .collect()
}

/// Single anchors outside the dataset MBR: beside each side, past each
/// corner and far away.
fn outside(universe: Rect) -> Vec<Vec<Point>> {
    let (w, h) = (universe.width(), universe.height());
    let c = universe.center();
    [
        Point::new(universe.min.x - 0.1 * w, c.y),
        Point::new(universe.max.x + 0.3 * w, c.y + 0.2 * h),
        Point::new(c.x, universe.min.y - 0.05 * h),
        Point::new(c.x - 0.1 * w, universe.max.y + 2.0 * h),
        Point::new(universe.min.x - w, universe.min.y - h),
        Point::new(universe.max.x + 1e3 * w, universe.max.y + 1e3 * h),
    ]
    .map(|q| vec![q])
    .to_vec()
}

fn oracle(points: &[Point], q: &[Point]) -> Vec<u32> {
    let ctx = QueryContext::new(q);
    let mut ids = naive_full(points, &ctx).skyline;
    ids.sort_unstable();
    ids
}

#[test]
fn diagram_answers_equal_the_planner_on_every_shape() {
    for (name, points) in datasets() {
        let universe = Rect::bounding(points.iter().copied());
        let engine = Engine::new(
            &points,
            EngineConfig::default()
                .with_workers(1)
                .with_diagram(DiagramConfig::default()),
        )
        .unwrap();
        for anchors in [1usize, 2, 3] {
            let queries = shapes(universe, anchors, 6, 0xE0 + anchors as u64);
            // Pass 1: a multi-anchor key's first query misses and admits
            // its answer (single-anchor queries need no cell). These
            // answers come from the planner and are themselves checked
            // against the oracle.
            for q in &queries {
                let resp = engine.submit(QueryRequest::new(q.clone())).wait();
                let mut ids = resp.skyline.clone();
                ids.sort_unstable();
                assert_eq!(
                    ids,
                    oracle(&points, q),
                    "{name}/{anchors}-anchor planner answer diverged"
                );
            }
            // Pass 2: the same shapes must now be diagram hits with the
            // exact same skyline.
            for q in &queries {
                let resp = engine.submit(QueryRequest::new(q.clone())).wait();
                assert_eq!(
                    resp.served_by,
                    ServedBy::Diagram,
                    "{name}/{anchors}-anchor query missed the diagram: {q:?}"
                );
                let mut ids = resp.skyline.clone();
                ids.sort_unstable();
                assert_eq!(
                    ids,
                    oracle(&points, q),
                    "{name}/{anchors}-anchor diagram answer diverged"
                );
            }
        }
        // Single anchors hit everywhere, outside the MBR too.
        for q in outside(universe) {
            let resp = engine.submit(QueryRequest::new(q.clone())).wait();
            assert_eq!(resp.served_by, ServedBy::Diagram, "{name}: {q:?} missed");
            assert_eq!(
                resp.skyline,
                oracle(&points, &q),
                "{name} outside-MBR answer diverged for {q:?}"
            );
        }
        let m = engine.metrics();
        assert!(
            m.diagram.hits >= 24,
            "expected 24+ hits, got {}",
            m.diagram.hits
        );
        engine.shutdown();
    }
}

#[test]
fn sharded_fleet_with_warm_start_equals_the_oracle() {
    for (name, points) in datasets() {
        let universe = Rect::bounding(points.iter().copied());
        let fleet = ShardedEngine::new(
            &points,
            ShardConfig::default().with_shards(4).with_engine(
                EngineConfig::default()
                    .with_workers(1)
                    .with_diagram(DiagramConfig::default()),
            ),
        )
        .unwrap();
        let mut queries = Vec::new();
        for anchors in [2usize, 3] {
            queries.extend(shapes(universe, anchors, 4, 0xF0 + anchors as u64));
        }
        let keys: Vec<QueryKey> = queries
            .iter()
            .map(|q| QueryKey::canonical(q, QUANTUM))
            .collect();
        fleet.warm_start(&keys).unwrap();
        for q in &queries {
            let resp = fleet.query(q).unwrap();
            let mut ids = resp.skyline.clone();
            ids.sort_unstable();
            assert_eq!(
                ids,
                oracle(&points, q),
                "{name} sharded answer diverged for {q:?}"
            );
        }
        // Single-anchor probes are located in each shard's Voronoi index.
        for q in shapes(universe, 1, 4, 0xF5)
            .into_iter()
            .chain(outside(universe))
        {
            let resp = fleet.query(&q).unwrap();
            let mut ids = resp.skyline.clone();
            ids.sort_unstable();
            assert_eq!(
                ids,
                oracle(&points, &q),
                "{name} sharded 1-anchor answer diverged for {q:?}"
            );
        }
        let m = fleet.metrics();
        assert!(
            m.engines.diagram.hits > 0,
            "{name}: warmed fleet never hit its diagrams"
        );
        fleet.shutdown();
    }
}

#[test]
fn a_reindex_retires_the_diagram_with_its_snapshot() {
    let old = uniform_points(300, 0xA0);
    let new = uniform_points(300, 0xB1);
    let universe = Rect::bounding(old.iter().copied());
    let engine = Engine::new(
        &old,
        EngineConfig::default()
            .with_workers(1)
            .with_diagram(DiagramConfig::default()),
    )
    .unwrap();
    let q = shapes(universe, 2, 1, 0xC2).remove(0);

    engine.submit(QueryRequest::new(q.clone())).wait();
    let hit = engine.submit(QueryRequest::new(q.clone())).wait();
    assert_eq!(hit.served_by, ServedBy::Diagram);
    assert_eq!(
        {
            let mut ids = hit.skyline.clone();
            ids.sort_unstable();
            ids
        },
        oracle(&old, &q)
    );

    // Publish a new generation: the old cell must not answer for it.
    let generation = engine.reindex(&new).unwrap();
    let resp = engine.submit(QueryRequest::new(q.clone())).wait();
    assert_eq!(resp.generation, generation);
    assert_ne!(resp.served_by, ServedBy::Diagram);
    assert_eq!(
        {
            let mut ids = resp.skyline.clone();
            ids.sort_unstable();
            ids
        },
        oracle(&new, &q),
        "post-reindex answer must be exact for the new snapshot"
    );

    // That miss refreshed the cell, so the second query hits — and
    // matches the new oracle, not the old one.
    let rehit = engine.submit(QueryRequest::new(q.clone())).wait();
    assert_eq!(rehit.served_by, ServedBy::Diagram);
    assert_eq!(rehit.generation, generation);
    assert_eq!(
        {
            let mut ids = rehit.skyline.clone();
            ids.sort_unstable();
            ids
        },
        oracle(&new, &q)
    );
    engine.shutdown();
}
