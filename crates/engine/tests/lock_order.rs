//! Lock-rank verification for the engine's shared state.
//!
//! In debug builds every [`RankedMutex`](ssq_engine::RankedMutex)
//! acquisition is checked against the locks the thread already holds and
//! panics on an out-of-rank acquisition (see `ssq_engine::sync` for the
//! rank table and the deadlock-freedom argument). These tests first pin
//! the rank assignment of the engine's long-lived locks, then drive
//! every code path that nests locks — queries, batches, reindexes,
//! diagram probes and admissions, and continuous sessions, all
//! concurrently — so a regression that acquires locks out of order
//! fails loudly as a panicked thread instead of a hung test.

use ssq_engine::sync::{
    RANK_CATALOG, RANK_CONTEXT_CACHE, RANK_DIAGRAM, RANK_METRICS, RANK_SESSION_MAP,
};
use ssq_engine::{DiagramConfig, Engine, EngineConfig, QueryRequest};
use ssq_geom::Point;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A generous bound on any single wait: the point of using
/// `wait_timeout` throughout is that a lock-order deadlock shows up as a
/// failed assertion here, not as a test that hangs until the harness
/// kills it.
const WAIT: Duration = Duration::from_secs(30);

fn grid(n: usize, salt: f64) -> Vec<Point> {
    (0..n)
        .map(|i| {
            Point::new(
                (i % 17) as f64 + salt,
                (i / 17) as f64 + 0.013 * i as f64 + salt,
            )
        })
        .collect()
}

fn query(seed: usize) -> Vec<Point> {
    vec![
        Point::new((seed % 7) as f64 + 0.5, (seed % 5) as f64 + 1.5),
        Point::new((seed % 11) as f64 + 2.0, (seed % 3) as f64 + 0.25),
        Point::new((seed % 4) as f64 + 4.0, (seed % 9) as f64 + 3.0),
    ]
}

#[test]
fn all_engine_locks_carry_their_documented_ranks() {
    let engine = Engine::new(&grid(120, 0.0), EngineConfig::default().with_workers(2)).unwrap();
    let ranks = engine.lock_ranks();
    assert_eq!(ranks[0], ("engine.catalog", RANK_CATALOG));
    assert_eq!(ranks[1], ("engine.diagram", RANK_DIAGRAM));
    assert_eq!(ranks[2], ("engine.cache", RANK_CONTEXT_CACHE));
    assert_eq!(ranks[3], ("engine.sessions", RANK_SESSION_MAP));
    assert_eq!(ranks[4], ("engine.metrics", RANK_METRICS));
    // The assignment must be strictly ascending: equal ranks would make
    // the checker reject a legal reacquisition pattern, and a descending
    // pair would legalize a cycle.
    for pair in ranks.windows(2) {
        assert!(
            pair[0].1 < pair[1].1,
            "lock ranks must strictly ascend: {pair:?}"
        );
    }
}

/// A session update that finds the catalog ahead re-homes first: the
/// drain job reads the catalog (200), then takes the session's skyline
/// (460). The concurrent test below only meets this path when a reindex
/// happens to land between two of its updates; here it is certain.
#[test]
fn a_rehoming_session_update_reads_the_catalog_before_the_session() {
    let engine = Engine::new(&grid(120, 0.0), EngineConfig::default().with_workers(1)).unwrap();
    let id = engine.open_session(&query(3));
    assert_eq!(engine.reindex(&grid(140, 0.002)).unwrap(), 1);
    // A rank violation panics on the worker and the handle never resolves.
    let update = engine
        .update_session(id, 0, Point::new(2.5, 1.5))
        .unwrap()
        .wait_timeout(WAIT)
        .unwrap_or_else(|_| panic!("re-homing update never resolved"));
    assert_eq!(update.generation, 1);
    assert!(!update.skyline.is_empty());
}

/// Queries, batches, session updates, skyline reads, reindexes, and
/// metrics snapshots all at once. Debug builds run the rank checker on
/// every acquisition, so this test doubles as a machine-checked proof
/// run of the deadlock-freedom argument in `ssq_engine::sync`: any
/// thread that acquires out of rank order panics and fails the join.
#[test]
fn concurrent_traffic_acquires_all_locks_in_rank_order() {
    let data = grid(260, 0.0);
    // Diagram on: every query also takes the diagram (240) for its
    // probe and, after a miss, again for the admission of its answer,
    // with nothing held either time; reindexes leave the diagram alone.
    let config = EngineConfig::default()
        .with_workers(3)
        .with_diagram(DiagramConfig::default());
    let engine = Arc::new(Engine::new(&data, config).unwrap());
    let stop = Arc::new(AtomicBool::new(false));
    let mut threads = Vec::new();

    // Two query threads: submit → cache (300) → metrics (600) on the
    // workers, catalog (200) on the submit path.
    for t in 0..2 {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        threads.push(std::thread::spawn(move || {
            let mut served = 0u32;
            while !stop.load(Ordering::Relaxed) {
                let handle = engine.submit(QueryRequest::new(query(t * 31 + served as usize)));
                let response = handle
                    .wait_timeout(WAIT)
                    .unwrap_or_else(|_| panic!("query thread {t} starved"));
                assert!(!response.skyline.is_empty());
                served += 1;
            }
            assert!(served > 0, "query thread {t} never completed a query");
        }));
    }

    // A batch thread: one pinned snapshot per batch, many responses.
    {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        threads.push(std::thread::spawn(move || {
            let mut round = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let requests: Vec<QueryRequest> = (0..4)
                    .map(|k| QueryRequest::new(query(round * 7 + k)))
                    .collect();
                let responses = engine
                    .submit_batch(requests)
                    .wait_timeout(WAIT)
                    .unwrap_or_else(|_| panic!("batch thread starved"));
                assert_eq!(responses.len(), 4);
                round += 1;
            }
        }));
    }

    // A session thread: open (sessions 400) → update (pending 450 →
    // catalog 200 → sky 460 → metrics 600 on the drain path, none of
    // them nested) → read → close.
    {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        threads.push(std::thread::spawn(move || {
            let mut round = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let q = query(round);
                let id = engine.open_session(&q);
                for step in 0..3 {
                    let target = Point::new(
                        (round % 9) as f64 + 0.1 * step as f64,
                        (round % 6) as f64 + 0.2 * step as f64,
                    );
                    let update = engine
                        .update_session(id, step % q.len(), target)
                        .expect("session vanished mid-update")
                        .wait_timeout(WAIT)
                        .unwrap_or_else(|_| panic!("session update starved"));
                    assert!(!update.skyline.is_empty());
                }
                assert!(engine.session_skyline(id).is_some());
                assert!(engine.close_session(id));
                round += 1;
            }
        }));
    }

    // A reindex thread: reindex (150) → catalog (200) while queries and
    // sessions hold their own locks on other threads.
    {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        threads.push(std::thread::spawn(move || {
            let mut generation = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let salt = 0.001 * (generation % 5) as f64;
                generation = engine.reindex(&grid(260, salt)).expect("reindex failed");
                std::thread::sleep(Duration::from_millis(2));
            }
            assert!(generation > 0, "reindexer never published");
        }));
    }

    // A metrics thread: snapshot() takes metrics (600) as a leaf.
    {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        threads.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let snapshot = engine.metrics();
                let _ = snapshot.engine.queries();
                std::thread::sleep(Duration::from_millis(1));
            }
        }));
    }

    std::thread::sleep(Duration::from_millis(400));
    stop.store(true, Ordering::Relaxed);
    for thread in threads {
        // A rank violation panics inside the offending thread; surface
        // it as this test's failure instead of swallowing it.
        if let Err(payload) = thread.join() {
            std::panic::resume_unwind(payload);
        }
    }

    // The final skyline must still be exact for the last generation.
    let response = engine
        .submit(QueryRequest::new(query(1)))
        .wait_timeout(WAIT)
        .unwrap_or_else(|_| panic!("post-stress query starved"));
    assert!(!response.skyline.is_empty());
}
