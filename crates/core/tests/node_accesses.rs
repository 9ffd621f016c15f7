//! `QueryStats::node_accesses` is a per-query count: the kernel paths and
//! continuous sessions keep it in the query's own stats and their own
//! arena, never in counters shared through the index, so the number a
//! query or a session update reports does not depend on what other
//! threads run against the same snapshot.

use std::sync::{Arc, Barrier};

use ssq_core::{
    b2s2_kernel, vs2_kernel, ContinuousSkyline, DistanceScratch, QueryContext, RTreeIndex,
    VoronoiIndex,
};
use ssq_geom::Point;

struct XorShift(u64);

impl XorShift {
    fn next_f64(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[test]
fn a_query_reports_the_same_node_accesses_alone_and_beside_another_worker() {
    let mut rng = XorShift(0xACCE55);
    let points: Vec<Point> = (0..2000)
        .map(|_| Point::new(rng.next_f64() * 100.0, rng.next_f64() * 100.0))
        .collect();
    let rtree = RTreeIndex::new(&points);
    let voronoi = VoronoiIndex::new(&points).expect("distinct points");
    // Two different queries, so each thread's touches would corrupt the
    // other's count if any of it were shared.
    let contexts: Vec<QueryContext> = [(20.0, 4usize), (70.0, 6)]
        .iter()
        .map(|&(at, k)| {
            let q: Vec<Point> = (0..k)
                .map(|_| Point::new(at + rng.next_f64() * 5.0, at + rng.next_f64() * 5.0))
                .collect();
            QueryContext::new(&q)
        })
        .collect();
    let accesses = |ctx: &QueryContext, scratch: &mut DistanceScratch| {
        (
            vs2_kernel(&voronoi, ctx, scratch).stats.node_accesses,
            b2s2_kernel(&rtree, ctx, scratch).stats.node_accesses,
        )
    };
    let alone: Vec<(u64, u64)> = contexts
        .iter()
        .map(|ctx| accesses(ctx, &mut DistanceScratch::new()))
        .collect();
    assert!(alone.iter().all(|&(pages, nodes)| pages > 0 && nodes > 0));

    // Both threads leave the barrier together and run their 1 000 queries
    // side by side on the one shared pair of indexes.
    let barrier = Barrier::new(contexts.len());
    std::thread::scope(|s| {
        for (ctx, want) in contexts.iter().zip(&alone) {
            let (barrier, accesses) = (&barrier, &accesses);
            s.spawn(move || {
                let mut scratch = DistanceScratch::new();
                barrier.wait();
                for run in 0..1000 {
                    assert_eq!(accesses(ctx, &mut scratch), *want, "run {run}");
                }
            });
        }
    });
}

#[test]
fn a_session_reports_the_same_node_accesses_alone_and_beside_another_session() {
    let mut rng = XorShift(0x5E5510);
    let points: Vec<Point> = (0..2000)
        .map(|_| Point::new(rng.next_f64() * 100.0, rng.next_f64() * 100.0))
        .collect();
    let voronoi = Arc::new(VoronoiIndex::new(&points).expect("distinct points"));
    // Two teams in different corners, each with a scripted stream of
    // single-object moves: opening positions, then (object, new location).
    type Script = (Vec<Point>, Vec<(usize, Point)>);
    let scripts: Vec<Script> = [20.0, 70.0]
        .iter()
        .map(|&at| {
            let mut q: Vec<Point> = (0..5)
                .map(|_| Point::new(at + rng.next_f64() * 8.0, at + rng.next_f64() * 8.0))
                .collect();
            let opening = q.clone();
            let moves = (0..120)
                .map(|step| {
                    let obj = step % q.len();
                    q[obj] = Point::new(
                        q[obj].x + (rng.next_f64() - 0.5) * 3.0,
                        q[obj].y + (rng.next_f64() - 0.5) * 3.0,
                    );
                    (obj, q[obj])
                })
                .collect();
            (opening, moves)
        })
        .collect();
    let play = |(opening, moves): &Script| -> Vec<u64> {
        let mut session = ContinuousSkyline::new(Arc::clone(&voronoi), opening);
        moves
            .iter()
            .map(|&(obj, loc)| session.update(obj, loc).1.node_accesses)
            .collect()
    };
    let alone: Vec<Vec<u64>> = scripts.iter().map(play).collect();
    assert!(alone.iter().all(|pages| pages.iter().any(|&p| p > 0)));

    // Both threads leave the barrier together and replay their scripts
    // side by side, each in a session of its own on the one shared index.
    let barrier = Barrier::new(scripts.len());
    std::thread::scope(|s| {
        for (script, want) in scripts.iter().zip(&alone) {
            let (barrier, play) = (&barrier, &play);
            s.spawn(move || {
                barrier.wait();
                for run in 0..50 {
                    assert_eq!(play(script), *want, "run {run}");
                }
            });
        }
    });
}
