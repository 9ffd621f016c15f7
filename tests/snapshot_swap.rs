//! Live reindex acceptance: snapshots swap under load without pausing,
//! corrupting, or leaking.
//!
//! Three fronts:
//!
//! * **Engine swaps** — client threads query continuously while the
//!   catalog publishes two new generations mid-stream; every response
//!   must be *exactly* the naive-oracle skyline of the dataset belonging
//!   to the generation it reports, and the retired generation's snapshot
//!   must be freed (its `Weak` dies) once nothing pins it.
//! * **Fleet swaps** — the sharded router republishes its fleet twice
//!   mid-stream, by full reindex and by delta ingest; responses stay
//!   exact against the union dataset of the generation they report.
//! * **Session pinning** — a continuous session holds the index of the
//!   generation it last answered at and nothing older: its first update
//!   after a swap answers exactly on the new generation and frees the old
//!   one with the session still open; close frees the rest.
//!
//! Deterministic and hermetic: all randomness comes from the in-repo
//! `ssq_rng` generator; swap timing only shifts *which* generation a
//! response reports, never whether it is correct.

use spatial_skyline::core::UpdateBatch;
use spatial_skyline::engine::{Engine, EngineConfig, QueryRequest, QueryResponse};
use spatial_skyline::prelude::*;
use spatial_skyline::shard::{ShardConfig, ShardedEngine, ShardedResponse};
use ssq_rng::Xoshiro256;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn dataset(n: usize, seed: u64) -> Vec<Point> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut pts: Vec<Point> = (0..n)
        .map(|_| Point::new(rng.f64() * 10.0, rng.f64() * 10.0))
        .collect();
    pts.sort_by(Point::lex_cmp);
    pts.dedup();
    pts
}

fn random_query(rng: &mut Xoshiro256) -> Vec<Point> {
    let n = 2 + rng.range_usize(5);
    (0..n)
        .map(|_| Point::new(rng.f64() * 10.0, rng.f64() * 10.0))
        .collect()
}

/// Spin until `counter` reaches `at` (the swap thread's trigger).
fn wait_for(counter: &AtomicUsize, at: usize) {
    while counter.load(Ordering::SeqCst) < at {
        std::thread::yield_now();
    }
}

/// What one client thread brings home: each query paired with its response.
type Outcomes<R> = Vec<(Vec<Point>, R)>;

#[test]
fn clients_stay_exact_through_two_live_swaps() {
    // One dataset per generation; the third is *smaller* than the first,
    // so any response carrying a stale generation number would point past
    // the end of its claimed dataset.
    let generations: Vec<Vec<Point>> =
        vec![dataset(400, 0xA1), dataset(520, 0xA2), dataset(300, 0xA3)];
    let engine =
        Arc::new(Engine::new(&generations[0], EngineConfig::default().with_workers(4)).unwrap());
    let retired = Arc::downgrade(&engine.snapshot());

    const CLIENTS: usize = 4;
    /// Requests started between one publish and the next.
    const SWAP_EVERY: usize = 53;
    const FINAL_GENERATION: u64 = 2;
    let started = Arc::new(AtomicUsize::new(0));
    let final_answered = Arc::new(AtomicBool::new(false));
    // A wedged publish must fail the assertions below, not hang the suite.
    let deadline = Instant::now() + Duration::from_secs(60);

    let clients: Vec<std::thread::JoinHandle<Outcomes<QueryResponse>>> = (0..CLIENTS)
        .map(|client| {
            let engine = Arc::clone(&engine);
            let started = Arc::clone(&started);
            let final_answered = Arc::clone(&final_answered);
            std::thread::spawn(move || {
                let mut rng = Xoshiro256::seed_from_u64(0xB0 + client as u64);
                let mut outcomes = Vec::new();
                // Keep the stream flowing until the final generation has
                // answered a request: a fixed request budget can be spent
                // before the second publish lands, however the scheduler
                // interleaves clients and builds.
                while !final_answered.load(Ordering::SeqCst) && Instant::now() < deadline {
                    started.fetch_add(1, Ordering::SeqCst);
                    let q = random_query(&mut rng);
                    let response = engine.submit(QueryRequest::new(q.clone())).wait();
                    if response.generation == FINAL_GENERATION {
                        final_answered.store(true, Ordering::SeqCst);
                    }
                    outcomes.push((q, response));
                }
                outcomes
            })
        })
        .collect();

    // Publish generation 1 once `SWAP_EVERY` requests have started and
    // generation 2 after as many again, while the clients keep querying.
    for (generation, at) in [(1u64, SWAP_EVERY), (FINAL_GENERATION, 2 * SWAP_EVERY)] {
        wait_for(&started, at);
        let published = engine.reindex(&generations[generation as usize]).unwrap();
        assert_eq!(published, generation);
    }

    let mut per_generation = [0usize; 3];
    for client in clients {
        for (q, response) in client.join().unwrap() {
            let generation = usize::try_from(response.generation).unwrap();
            assert!(generation < generations.len(), "unknown generation");
            let want = naive_full(&generations[generation], &QueryContext::new(&q)).skyline;
            assert_eq!(
                response.skyline, want,
                "response for generation {generation} diverged from that generation's oracle on {q:?}"
            );
            per_generation[generation] += 1;
        }
    }
    let answered: usize = per_generation.iter().sum();
    assert!(
        per_generation[2] > 0,
        "no query was ever answered against the final generation"
    );

    // The metrics carry the swap history and the per-generation split.
    let m = engine.metrics();
    assert_eq!(m.lifecycle.generation, 2);
    assert_eq!(m.lifecycle.swaps, 2);
    assert!(m.lifecycle.last_build_nanos > 0);
    assert_eq!(
        m.queries_per_generation.values().sum::<u64>(),
        answered as u64
    );
    for (generation, &count) in per_generation.iter().enumerate() {
        if count > 0 {
            assert_eq!(
                m.queries_per_generation.get(&(generation as u64)),
                Some(&(count as u64)),
                "metrics split diverged for generation {generation}"
            );
        }
    }

    // Retirement: with every pinned query drained, nothing holds the
    // generation-0 snapshot any more — its memory is actually released.
    assert!(
        retired.upgrade().is_none(),
        "generation 0 snapshot is still alive after the swap drained"
    );
}

/// One mid-stream fleet publish: changes a fleet serving `data` into
/// generation `generation` and returns the dataset that generation serves.
type Publish = fn(&ShardedEngine, &[Point], u64) -> Vec<Point>;

/// A whole-fleet rebuild onto a fresh dataset of a different size.
fn reindex_publish(engine: &ShardedEngine, _data: &[Point], generation: u64) -> Vec<Point> {
    let next = dataset(380 + 80 * generation as usize, 0xC1 + generation);
    assert_eq!(engine.reindex(&next).unwrap(), generation);
    next
}

/// A delta publish: every 9th point deleted, 24 random points inserted.
fn ingest_publish(engine: &ShardedEngine, data: &[Point], generation: u64) -> Vec<Point> {
    let mut rng = Xoshiro256::seed_from_u64(0xC5 + generation);
    let mut batch = UpdateBatch {
        inserts: (0..24)
            .map(|_| Point::new(rng.f64() * 10.0, rng.f64() * 10.0))
            .collect(),
        deletes: (0..data.len() as u32).step_by(9).collect(),
    };
    assert_eq!(engine.ingest(&batch).unwrap().generation, generation);
    // The fleet's ids: the inserts, in the order normalization over the
    // old footprint gives them, refill the deleted ids; the surplus holes
    // close by `swap_remove` from the top.
    batch.normalize(&Rect::bounding(data.iter().copied()));
    let mut next = data.to_vec();
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

/// More clients than shards against 1-worker shard engines, so batches
/// the router runs on its callers interleave with pool-run ones while
/// `publish` swaps the engine catalogs twice mid-stream.
fn fleet_swaps_stay_exact(publish: Publish) {
    const CLIENTS: usize = 6;
    const REQUESTS: usize = 180;
    const PUBLISHES: u64 = 2;
    let config = ShardConfig::default()
        .with_shards(4)
        .with_engine(EngineConfig::default().with_workers(1));
    let mut generations = vec![dataset(380, 0xC1)];
    let engine = Arc::new(ShardedEngine::new(&generations[0], config).unwrap());
    let started = Arc::new(AtomicUsize::new(0));

    let clients: Vec<std::thread::JoinHandle<Outcomes<ShardedResponse>>> = (0..CLIENTS)
        .map(|client| {
            let engine = Arc::clone(&engine);
            let started = Arc::clone(&started);
            std::thread::spawn(move || {
                let mut rng = Xoshiro256::seed_from_u64(0xC3 + client as u64);
                let mut outcomes = Vec::new();
                while started.fetch_add(1, Ordering::SeqCst) < REQUESTS {
                    let q = random_query(&mut rng);
                    let response = engine.query(&q).expect("routed query failed mid-swap");
                    outcomes.push((q, response));
                }
                outcomes
            })
        })
        .collect();

    // Publish at the thirds of the stream.
    for generation in 1..=PUBLISHES {
        wait_for(&started, REQUESTS * generation as usize / 3);
        let next = publish(&engine, &generations[generations.len() - 1], generation);
        generations.push(next);
    }

    let mut answered = 0;
    for client in clients {
        for (q, response) in client.join().unwrap() {
            let generation = usize::try_from(response.generation).unwrap();
            let want = naive_full(&generations[generation], &QueryContext::new(&q)).skyline;
            assert_eq!(
                response.skyline, want,
                "fleet generation {generation} diverged from the union-dataset oracle on {q:?}"
            );
            answered += 1;
        }
    }
    assert_eq!(answered, REQUESTS);

    let m = engine.metrics();
    assert_eq!(m.lifecycle.generation, PUBLISHES);
    assert_eq!(m.lifecycle.swaps, PUBLISHES);
    assert_eq!(engine.data_len(), generations[generations.len() - 1].len());
}

#[test]
fn sharded_fleet_swaps_stay_exact_for_concurrent_clients() {
    fleet_swaps_stay_exact(reindex_publish);
    fleet_swaps_stay_exact(ingest_publish);
}

#[test]
fn sessions_pin_their_generation_and_release_it_on_close() {
    let d0 = dataset(300, 0xD1);
    let d1 = dataset(340, 0xD2);
    let engine = Engine::new(&d0, EngineConfig::default().with_workers(2)).unwrap();

    let snapshot0 = engine.snapshot();
    let weak_snapshot = Arc::downgrade(&snapshot0);
    let weak_voronoi = Arc::downgrade(snapshot0.voronoi());
    drop(snapshot0);

    let mut q = vec![
        Point::new(2.0, 2.0),
        Point::new(7.0, 3.0),
        Point::new(5.0, 8.0),
    ];
    let id = engine.open_session(&q);
    assert_eq!(engine.session_generation(id), Some(0));

    assert_eq!(engine.reindex(&d1).unwrap(), 1);
    assert_eq!(engine.generation(), 1);
    // The catalog dropped the generation-0 snapshot wrapper at install;
    // only the Voronoi index the idle session last answered from stays
    // alive.
    assert!(weak_snapshot.upgrade().is_none());
    assert!(
        weak_voronoi.upgrade().is_some(),
        "the open session lost its Voronoi index"
    );

    // Its next update follows the data: answered on generation 1,
    // exactly, and generation 0 is gone while the session is still open.
    q[0] = Point::new(3.1, 2.4);
    let update = engine.update_session(id, 0, q[0]).unwrap().wait();
    assert_eq!(update.generation, 1);
    assert_eq!(engine.session_generation(id), Some(1));
    assert_eq!(
        update.skyline,
        naive_full(&d1, &QueryContext::new(&q)).skyline,
        "the re-homed session diverged from generation 1's oracle"
    );
    assert!(
        weak_voronoi.upgrade().is_none(),
        "an open session kept generation 0 alive past its first update on generation 1"
    );

    // Closing an idle session releases the index it held.
    let weak_voronoi = Arc::downgrade(engine.snapshot().voronoi());
    assert_eq!(engine.reindex(&d0).unwrap(), 2);
    assert!(weak_voronoi.upgrade().is_some());
    assert!(engine.close_session(id));
    assert!(
        weak_voronoi.upgrade().is_none(),
        "closing the session did not release the generation-1 index"
    );
}
