//! The engine under concurrency must be indistinguishable from the
//! single-threaded naive oracle.
//!
//! Two fronts:
//!
//! * **Snapshot queries** — many client threads submit randomized query
//!   sets (with deliberate duplicates, so the context cache serves some
//!   of them); every response must equal `naive_full` on the same `Q`.
//! * **Continuous sessions** — several VCS² sessions are driven through
//!   the pool while a serial `ContinuousSkyline` mirrors each one; the
//!   skylines must agree after every applied update.
//!
//! Deterministic and hermetic: all randomness comes from the in-repo
//! `ssq_rng` generator.

use spatial_skyline::engine::{Algorithm, Engine, EngineConfig, QueryRequest};
use spatial_skyline::prelude::*;
use ssq_rng::Xoshiro256;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

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
    let n = 2 + rng.range_usize(6);
    (0..n)
        .map(|_| Point::new(rng.f64() * 10.0, rng.f64() * 10.0))
        .collect()
}

#[test]
fn concurrent_clients_match_the_naive_oracle() {
    let data = dataset(400, 0xE1);
    let engine = Arc::new(Engine::new(&data, EngineConfig::default().with_workers(4)).unwrap());

    // 6 client threads, 25 queries each. Every client draws from a pool
    // of 10 shared query sets (cache hits) *and* fresh private ones
    // (cache misses), interleaved.
    let mut rng = Xoshiro256::seed_from_u64(0xE2);
    let shared_queries: Vec<Vec<Point>> = (0..10).map(|_| random_query(&mut rng)).collect();
    let shared_queries = Arc::new(shared_queries);

    type ClientOutcomes = Vec<(Vec<Point>, Vec<u32>)>;
    let clients: Vec<std::thread::JoinHandle<ClientOutcomes>> = (0..6)
        .map(|client| {
            let engine = Arc::clone(&engine);
            let shared = Arc::clone(&shared_queries);
            std::thread::spawn(move || {
                let mut rng = Xoshiro256::seed_from_u64(0xE3 + client);
                let mut outcomes = Vec::new();
                for i in 0..25 {
                    let q = if i % 2 == 0 {
                        shared[rng.range_usize(shared.len())].clone()
                    } else {
                        random_query(&mut rng)
                    };
                    let response = engine.submit(QueryRequest::new(q.clone())).wait();
                    outcomes.push((q, response.skyline));
                }
                outcomes
            })
        })
        .collect();

    for client in clients {
        for (q, got) in client.join().unwrap() {
            let want = naive_full(&data, &QueryContext::new(&q)).skyline;
            assert_eq!(got, want, "engine diverged from the oracle on {q:?}");
        }
    }

    // The duplicate-heavy stream must have produced real cache traffic.
    let m = engine.metrics();
    assert_eq!(m.engine.queries(), 6 * 25);
    assert!(
        m.engine.cache_hits > 0,
        "shared query sets never hit the cache"
    );
    assert!(m.engine.cache_misses > 0);
    assert!(m.latency.count() == 6 * 25);
}

#[test]
fn forced_algorithms_agree_under_concurrency() {
    let data = dataset(250, 0xE4);
    let engine = Engine::new(&data, EngineConfig::default().with_workers(3)).unwrap();
    let mut rng = Xoshiro256::seed_from_u64(0xE5);
    for case in 0..12 {
        let q = random_query(&mut rng);
        let ticket = engine.submit_batch(
            Algorithm::ALL
                .iter()
                .map(|&a| QueryRequest::forced(q.clone(), a))
                .collect(),
        );
        let skylines: Vec<Vec<u32>> = ticket.wait().into_iter().map(|r| r.skyline).collect();
        let want = naive_full(&data, &QueryContext::new(&q)).skyline;
        for (algo, sky) in Algorithm::ALL.iter().zip(&skylines) {
            assert_eq!(sky, &want, "case {case}: {algo} diverged");
        }
    }
}

#[test]
fn pooled_sessions_match_serial_continuous_skylines() {
    let data = dataset(350, 0xE6);
    let engine = Engine::new(&data, EngineConfig::default().with_workers(4)).unwrap();
    let index = VoronoiIndex::new(&data).unwrap();

    let mut rng = Xoshiro256::seed_from_u64(0xE7);
    const SESSIONS: usize = 4;
    const UPDATES: usize = 30;

    let queries: Vec<Vec<Point>> = (0..SESSIONS).map(|_| random_query(&mut rng)).collect();
    let ids: Vec<_> = queries.iter().map(|q| engine.open_session(q)).collect();
    let mut mirrors: Vec<ContinuousSkyline<&VoronoiIndex>> = queries
        .iter()
        .map(|q| ContinuousSkyline::new(&index, q))
        .collect();

    for (i, (&id, q)) in ids.iter().zip(&queries).enumerate() {
        assert_eq!(
            engine.session_skyline(id).unwrap(),
            mirrors[i].skyline(),
            "session {i} initial skyline diverged for {q:?}"
        );
    }

    // Interleave small random motions across all sessions. Updates to one
    // session go through the pool; the serial mirror is ground truth.
    for step in 0..UPDATES {
        let s = rng.range_usize(SESSIONS);
        let obj = rng.range_usize(queries[s].len());
        let current = mirrors[s].query()[obj];
        let new_loc = Point::new(
            (current.x + (rng.f64() - 0.5) * 0.4).clamp(0.0, 10.0),
            (current.y + (rng.f64() - 0.5) * 0.4).clamp(0.0, 10.0),
        );
        let update = engine.update_session(ids[s], obj, new_loc).unwrap().wait();
        let (mirror_outcome, _) = mirrors[s].update(obj, new_loc);
        assert_eq!(
            update.skyline,
            mirrors[s].skyline(),
            "step {step}: session {s} diverged after moving object {obj}"
        );
        assert_eq!(
            update.outcome, mirror_outcome,
            "step {step}: VCS² classified the update differently in the pool"
        );
        // And the session skyline must also match the naive oracle.
        let want = naive_full(&data, &QueryContext::new(mirrors[s].query())).skyline;
        assert_eq!(
            update.skyline, want,
            "step {step}: session diverged from oracle"
        );
    }

    assert_eq!(engine.metrics().engine.session_updates, UPDATES as u64);
    for &id in &ids {
        assert!(engine.close_session(id));
    }
    assert_eq!(engine.open_sessions(), 0);
}

#[test]
fn shutdown_completes_while_swaps_and_a_tiny_queue_race() {
    // A deliberately tiny bounded queue keeps submitters blocked on
    // backpressure while a reindexer spams catalog swaps — the exact
    // interleaving where a shutdown that took locks in the wrong order
    // would deadlock. The whole teardown runs under a watchdog.
    let datasets = Arc::new([dataset(220, 0xEA), dataset(260, 0xEB)]);
    let mut config = EngineConfig::default().with_workers(2);
    config.queue_capacity = 4;
    let engine = Arc::new(Engine::new(&datasets[0], config).unwrap());

    let stop = Arc::new(AtomicBool::new(false));
    let submitters: Vec<_> = (0..3)
        .map(|client| {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut rng = Xoshiro256::seed_from_u64(0xEC + client);
                let mut handles = Vec::new();
                while !stop.load(Ordering::SeqCst) {
                    let q = random_query(&mut rng);
                    handles.push((q.clone(), engine.submit(QueryRequest::new(q))));
                }
                handles
            })
        })
        .collect();
    let reindexer = {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        let datasets = Arc::clone(&datasets);
        std::thread::spawn(move || {
            let mut swaps = 0u64;
            while !stop.load(Ordering::SeqCst) {
                // Generations alternate between the two datasets:
                // odd generations carry datasets[1], even ones datasets[0].
                let next = &datasets[(swaps as usize + 1) % 2];
                engine.reindex(next).unwrap();
                swaps += 1;
            }
            swaps
        })
    };

    std::thread::sleep(Duration::from_millis(40));
    stop.store(true, Ordering::SeqCst);
    let handle_sets: Vec<_> = submitters.into_iter().map(|s| s.join().unwrap()).collect();
    let swaps = reindexer.join().unwrap();
    assert_eq!(engine.generation(), swaps);

    // Shutdown with jobs still queued must terminate; run it under a
    // watchdog so a deadlock fails the test instead of hanging it.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let closer = std::thread::spawn(move || {
        Arc::try_unwrap(engine)
            .unwrap_or_else(|_| panic!("an engine handle leaked past the joins"))
            .shutdown();
        done_tx.send(()).unwrap();
    });
    done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("engine shutdown deadlocked with queued jobs and swaps in flight");
    closer.join().unwrap();

    // Every accepted job still ran, each answered against the dataset of
    // the generation it reports: ids stay in range for all of them, and a
    // sample is held to full oracle equality.
    for (k, (q, handle)) in handle_sets.into_iter().flatten().enumerate() {
        let response = handle.wait();
        let data = &datasets[usize::try_from(response.generation).unwrap() % 2];
        let limit = u32::try_from(data.len()).unwrap();
        assert!(
            response.skyline.iter().all(|&id| id < limit),
            "response ids exceed generation {}'s dataset",
            response.generation
        );
        if k % 9 == 0 {
            let want = naive_full(data, &QueryContext::new(&q)).skyline;
            assert_eq!(
                response.skyline, want,
                "a drained job diverged from generation {}'s oracle",
                response.generation
            );
        }
    }
}

#[test]
fn burst_of_session_updates_applies_in_submission_order() {
    let data = dataset(300, 0xE8);
    let engine = Engine::new(&data, EngineConfig::default().with_workers(4)).unwrap();
    let index = VoronoiIndex::new(&data).unwrap();
    let q = vec![
        Point::new(2.0, 2.0),
        Point::new(7.0, 3.0),
        Point::new(5.0, 8.0),
    ];
    let id = engine.open_session(&q);
    let mut mirror = ContinuousSkyline::new(&index, &q);

    // Submit a whole burst WITHOUT waiting in between: per-session FIFO
    // ordering is what keeps the final state well-defined.
    let mut rng = Xoshiro256::seed_from_u64(0xE9);
    let moves: Vec<(usize, Point)> = (0..20)
        .map(|_| {
            (
                rng.range_usize(q.len()),
                Point::new(rng.f64() * 10.0, rng.f64() * 10.0),
            )
        })
        .collect();
    let handles: Vec<_> = moves
        .iter()
        .map(|&(obj, loc)| engine.update_session(id, obj, loc).unwrap())
        .collect();
    let pooled: Vec<Vec<u32>> = handles.into_iter().map(|h| h.wait().skyline).collect();

    for (k, (&(obj, loc), got)) in moves.iter().zip(&pooled).enumerate() {
        mirror.update(obj, loc);
        assert_eq!(
            got,
            &mirror.skyline(),
            "burst update {k} applied out of order"
        );
    }
    assert_eq!(engine.session_skyline(id).unwrap(), mirror.skyline());
}

#[test]
fn abandoned_timed_out_tickets_leak_no_queue_slots() {
    // The ssq-net server abandons tickets when a connection dies: it
    // stops waiting and drops the handle mid-flight. The engine contract
    // that makes this safe is that a dropped ticket releases everything —
    // the worker's eventual fill lands in an abandoned cell, the queue
    // slot is freed by the dequeue as usual, and the engine keeps
    // serving. Regression: fill a tiny queue, time out on every ticket,
    // drop them all, and prove fresh submissions still complete.
    let data = dataset(800, 0xF1);
    let config = EngineConfig {
        workers: 1,
        queue_capacity: 2,
        ..EngineConfig::default()
    };
    let engine = Engine::new(&data, config).unwrap();
    let mut rng = Xoshiro256::seed_from_u64(0xF2);

    for round in 0..5 {
        // Saturate: keep submitting until the queue turns us away.
        let mut abandoned = Vec::new();
        loop {
            let q = random_query(&mut rng);
            match engine.try_submit(QueryRequest::forced(q, Algorithm::Bbs)) {
                Ok(handle) => abandoned.push(handle),
                Err(spatial_skyline::engine::EngineError::QueueFull) => break,
                Err(e) => panic!("round {round}: unexpected rejection {e}"),
            }
            assert!(
                abandoned.len() <= 64,
                "round {round}: a 2-slot queue admitted 64 jobs"
            );
        }
        assert!(!abandoned.is_empty(), "round {round}: nothing was admitted");

        // Time out fast on every ticket, then drop whatever came back —
        // the connection-teardown pattern.
        for handle in abandoned {
            let _ = handle.wait_timeout(Duration::from_nanos(1));
        }

        // The engine must come all the way back: a fresh submission is
        // accepted (once the backlog drains) and completes correctly.
        let q = random_query(&mut rng);
        let response = loop {
            match engine.try_submit(QueryRequest::new(q.clone())) {
                Ok(handle) => break handle.wait(),
                Err(spatial_skyline::engine::EngineError::QueueFull) => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                Err(e) => panic!("round {round}: engine did not recover: {e}"),
            }
        };
        let want = naive_full(&data, &QueryContext::new(&q)).skyline;
        assert_eq!(
            response.skyline, want,
            "round {round}: post-abandonment answer diverged from the oracle"
        );
    }
}
