//! End-to-end over real sockets on loopback: the server's answers must
//! be identical to direct [`Engine::submit`], under real concurrency
//! (8 connections × 16-deep pipelining), and overload must shed with
//! typed `RetryLater` — never a hang, never an unbounded buffer.

use ssq_core::{naive_full, vs2_kernel, DistanceScratch, QueryContext, UpdateBatch};
use ssq_engine::{Algorithm, DiagramConfig, Engine, EngineConfig, QueryRequest};
use ssq_geom::Point;
use ssq_net::wire::{ALGORITHM_ROUTED, SERVED_BY_DIAGRAM};
use ssq_net::{Client, Frame, Server, ServerConfig};
use ssq_rng::Xoshiro256;
use ssq_shard::{PartitionPolicy, ShardConfig, ShardedEngine};
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
    let n = 2 + rng.range_usize(5);
    (0..n)
        .map(|_| Point::new(rng.f64() * 10.0, rng.f64() * 10.0))
        .collect()
}

const CONNECTIONS: usize = 8;
const PIPELINE: usize = 16;

#[test]
fn pipelined_clients_match_direct_submission_exactly() {
    let data = dataset(400, 0xAB);
    let engine = Engine::new(&data, EngineConfig::default().with_workers(4)).unwrap();

    // The oracle answers come from the very same engine, *before* it
    // moves behind the socket — same snapshot generation, same planner.
    let mut rng = Xoshiro256::seed_from_u64(0xAC);
    let queries: Vec<Vec<Vec<Point>>> = (0..CONNECTIONS)
        .map(|_| (0..PIPELINE).map(|_| random_query(&mut rng)).collect())
        .collect();
    let expected: Vec<Vec<(u64, Vec<u32>)>> = queries
        .iter()
        .map(|per_conn| {
            per_conn
                .iter()
                .map(|q| {
                    let resp = engine.submit(QueryRequest::new(q.clone())).wait();
                    (resp.generation, resp.skyline)
                })
                .collect()
        })
        .collect();

    let server = Server::serve("127.0.0.1:0", engine, ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();

    let queries = Arc::new(queries);
    let expected = Arc::new(expected);
    let clients: Vec<std::thread::JoinHandle<()>> = (0..CONNECTIONS)
        .map(|c| {
            let addr = addr.clone();
            let queries = Arc::clone(&queries);
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                // Fill the whole window before reading anything — true
                // pipelining, not request/response turn-taking.
                let ids: Vec<u64> = queries[c]
                    .iter()
                    .map(|q| client.submit(q, None).unwrap())
                    .collect();
                for (i, id) in ids.into_iter().enumerate() {
                    match client.await_id(id).unwrap() {
                        Frame::QueryResult(result) => {
                            let (gen, sky) = &expected[c][i];
                            assert_eq!(result.generation, *gen, "conn {c} query {i}");
                            assert_eq!(&result.skyline, sky, "conn {c} query {i}");
                        }
                        other => panic!("conn {c} query {i}: unexpected frame {other:?}"),
                    }
                }
                client.goodbye().unwrap();
            })
        })
        .collect();
    for handle in clients {
        handle.join().unwrap();
    }

    let metrics = server.shutdown();
    assert_eq!(metrics.net.accepted, CONNECTIONS as u64);
    assert_eq!(metrics.net.active, 0, "every connection torn down");
    assert_eq!(metrics.net.frame_errors, 0);
    assert!(metrics.net.bytes_in > 0 && metrics.net.bytes_out > 0);
}

#[test]
fn diagram_hits_and_pool_misses_share_one_pipelined_connection() {
    let data = dataset(400, 0xD1);
    let config = EngineConfig::default()
        .with_workers(2)
        .with_diagram(DiagramConfig::default());
    let engine = Engine::new(&data, config).unwrap();
    let snapshot = engine.snapshot();
    let mut scratch = DistanceScratch::new();
    let mut oracle =
        |q: &[Point]| vs2_kernel(snapshot.voronoi(), &QueryContext::new(q), &mut scratch).skyline;
    let server = Server::serve("127.0.0.1:0", engine, ServerConfig::default()).unwrap();
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();

    let mut rng = Xoshiro256::seed_from_u64(0xD2);
    let mut points = |n: usize| -> Vec<Point> {
        (0..n)
            .map(|_| Point::new(rng.f64() * 10.0, rng.f64() * 10.0))
            .collect()
    };
    // Hot 2- and 3-point shapes: each is sent once and awaited, so its
    // miss has admitted the answer before the pipelined repeats.
    let hot: Vec<Vec<Point>> = (0..4).map(|k| points(2 + k % 2)).collect();
    for q in &hot {
        let id = client.submit(q, None).unwrap();
        match client.await_id(id).unwrap() {
            Frame::QueryResult(result) => assert_ne!(result.served_by, SERVED_BY_DIAGRAM),
            other => panic!("cold hot shape: unexpected frame {other:?}"),
        }
    }
    // One pipelined stream, three kinds interleaved: a 1-point query (a
    // Voronoi hit), a hot repeat (a key-cell hit) and a 5-point query
    // (never a key cell, always a pool job).
    let mut sent: Vec<(u64, Vec<Point>, bool)> = Vec::new();
    for round in 0..12 {
        for (q, hit) in [
            (points(1), true),
            (hot[round % hot.len()].clone(), true),
            (points(5), false),
        ] {
            let id = client.submit(&q, None).unwrap();
            sent.push((id, q, hit));
        }
    }
    for (id, q, hit) in &sent {
        match client.await_id(*id).unwrap() {
            Frame::QueryResult(result) => {
                assert_eq!(result.skyline, oracle(q), "request {id}");
                assert_eq!(result.served_by == SERVED_BY_DIAGRAM, *hit, "request {id}");
                assert_eq!(result.generation, 0);
            }
            other => panic!("request {id}: unexpected frame {other:?}"),
        }
    }
    let hits = sent.iter().filter(|(_, _, hit)| *hit).count() as u64;
    let diagram = client.stats().unwrap().groups.diagram;
    assert_eq!(diagram.hits, hits);
    assert_eq!(diagram.misses, (hot.len() + sent.len()) as u64 - hits);

    client.goodbye().unwrap();
    let metrics = server.shutdown();
    assert_eq!(metrics.net.frame_errors, 0);
    assert_eq!(metrics.net.shed_requests, 0);
}

#[test]
fn batch_and_stats_round_trip() {
    let data = dataset(300, 0xB1);
    let engine = Engine::new(&data, EngineConfig::default().with_workers(2)).unwrap();
    let mut rng = Xoshiro256::seed_from_u64(0xB2);
    let queries: Vec<Vec<Point>> = (0..6).map(|_| random_query(&mut rng)).collect();
    let expected: Vec<Vec<u32>> = queries
        .iter()
        .map(|q| engine.submit(QueryRequest::new(q.clone())).wait().skyline)
        .collect();

    let server = Server::serve("127.0.0.1:0", engine, ServerConfig::default()).unwrap();
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
    client.ping().unwrap();

    let results = client.batch(&queries).unwrap();
    assert_eq!(results.len(), queries.len());
    for (i, result) in results.iter().enumerate() {
        assert_eq!(result.skyline, expected[i], "batch item {i}");
    }

    let stats = client.stats().unwrap();
    assert_eq!(stats.data_len as usize, 300);
    assert!(stats.groups.engine.queries() >= queries.len() as u64);
    assert_eq!(stats.groups.net.accepted, 1);
    // Stats answers Server::metrics (the reply's own bytes land in
    // `net` after the frame was built, so that group is compared above).
    let local = ssq_engine::CounterSet {
        net: stats.groups.net,
        ..server.metrics()
    };
    assert_eq!(stats.groups, local);

    client.goodbye().unwrap();
    server.shutdown();
}

#[test]
fn sessions_over_the_wire_track_the_engine() {
    // The engine's data changes under the session: a chain of delta
    // batches is queued for the ingestor before the server takes the
    // engine (nothing on the wire publishes), so generations land while
    // the client talks — the session opens some tens of generations in.
    // Wherever they land, every reply must be exact for the generation
    // it names, generations never go back, and once the last publish is
    // known to be done the session answers on it.
    const PUBLISHES: usize = 400;
    let data = dataset(250, 0xC1);
    let config = EngineConfig::default()
        .with_workers(2)
        .with_ingest_capacity(PUBLISHES);
    let engine = Engine::new(&data, config).unwrap();
    let mut generations = vec![data];
    let mut batches = Vec::new();
    for round in 0..PUBLISHES {
        // One out, one in: the insert takes the deleted id and every
        // other point keeps its own.
        let mut next = generations[round].clone();
        let insert = Point::new(4.0 + 0.01 * round as f64, 5.0 + 0.007 * round as f64);
        let delete = (round * 37) % next.len();
        next[delete] = insert;
        generations.push(next);
        batches.push(UpdateBatch {
            inserts: vec![insert],
            deletes: vec![delete as u32],
        });
    }
    // Queued in one go, last thing before the server starts, so most of
    // the chain is still ahead when the session opens.
    let mut publishes: Vec<_> = batches
        .into_iter()
        .map(|batch| engine.ingest(batch).unwrap())
        .collect();
    let server = Server::serve("127.0.0.1:0", engine, ServerConfig::default()).unwrap();
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();

    let mut q = vec![
        Point::new(2.0, 2.0),
        Point::new(7.0, 6.0),
        Point::new(4.0, 8.0),
    ];
    let exact = |generation: u64, q: &[Point]| {
        naive_full(&generations[generation as usize], &QueryContext::new(q)).skyline
    };
    let (session, mut generation, skyline) = client.open_session(&q).unwrap();
    assert_eq!(skyline, exact(generation, &q));

    let mut rng = Xoshiro256::seed_from_u64(0xC2);
    for step in 0..20 {
        if step == 10 {
            for publish in publishes.drain(..) {
                publish.wait().unwrap();
            }
        }
        let obj = rng.range_usize(q.len());
        q[obj] = Point::new(rng.f64() * 10.0, rng.f64() * 10.0);
        let update = client
            .session_next(session, obj as u32, q[obj].x, q[obj].y)
            .unwrap();
        assert!(update.outcome <= 2, "step {step}");
        assert!(update.generation >= generation, "step {step} went back");
        if step >= 10 {
            assert_eq!(update.generation, PUBLISHES as u64, "step {step}");
        }
        generation = update.generation;
        assert_eq!(update.skyline, exact(generation, &q), "step {step}");
    }

    assert!(client.close_session(session).unwrap());
    assert!(
        !client.close_session(session).unwrap(),
        "second close finds nothing"
    );
    match client.session_next(session, 0, 1.0, 1.0) {
        Err(ssq_net::NetError::Server { code, .. }) => {
            assert_eq!(code, ssq_net::ErrorCode::NoSuchSession)
        }
        other => panic!("expected NoSuchSession, got {other:?}"),
    }

    client.goodbye().unwrap();
    server.shutdown();
}

#[test]
fn an_out_of_range_session_object_is_an_error_and_the_connection_keeps_serving() {
    let data = dataset(250, 0xC3);
    let engine = Engine::new(&data, EngineConfig::default().with_workers(2)).unwrap();
    let server = Server::serve("127.0.0.1:0", engine, ServerConfig::default()).unwrap();
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
    let mut q = vec![
        Point::new(2.0, 2.0),
        Point::new(7.0, 6.0),
        Point::new(4.0, 8.0),
    ];
    let (session, _, _) = client.open_session(&q).unwrap();
    q[1] = Point::new(6.5, 5.0);
    let moved = q[1];

    // The client has no read timeout, so the exchange runs on a thread
    // with a deadline: a wedged reply queue fails the test instead of
    // hanging it.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let bad = client.session_next(session, 99, 5.0, 5.0);
        let good = client.session_next(session, 1, moved.x, moved.y);
        let _ = tx.send((bad, good, client));
    });
    let Ok((bad, good, client)) = rx.recv_timeout(Duration::from_secs(20)) else {
        // Dropping the server would wait for the wedged connection.
        std::mem::forget(server);
        panic!("the connection stopped answering after an out-of-range object");
    };
    match bad {
        Err(ssq_net::NetError::Server { code, message }) => {
            assert_eq!(code, ssq_net::ErrorCode::Internal);
            assert!(message.contains("out of range"), "{message}");
        }
        other => panic!("expected a server error for object 99, got {other:?}"),
    }
    let good = good.unwrap();
    assert_eq!(
        good.skyline,
        naive_full(&data, &QueryContext::new(&q)).skyline
    );
    client.goodbye().unwrap();
    server.shutdown();
}

#[test]
fn a_tiny_engine_queue_sheds_with_retry_later_and_recovers() {
    // Worker starvation by construction: one worker, queue depth one,
    // forced BBS on a big dataset so each query takes real time. A
    // 64-deep burst MUST overflow the queue; admission control must
    // answer the overflow with RetryLater — and everything it accepted
    // with a correct result.
    let data = dataset(2500, 0xD1);
    let config = EngineConfig {
        workers: 1,
        queue_capacity: 1,
        ..EngineConfig::default()
    };
    let engine = Engine::new(&data, config).unwrap();
    let server = Server::serve(
        "127.0.0.1:0",
        engine,
        ServerConfig::default().with_per_client_window(256),
    )
    .unwrap();
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();

    let mut rng = Xoshiro256::seed_from_u64(0xD2);
    let queries: Vec<Vec<Point>> = (0..64).map(|_| random_query(&mut rng)).collect();
    let ids: Vec<u64> = queries
        .iter()
        .map(|q| client.submit(q, Some(Algorithm::Bbs)).unwrap())
        .collect();

    let mut served = 0usize;
    let mut shed = 0usize;
    for id in ids {
        match client.await_id(id).unwrap() {
            Frame::QueryResult(result) => {
                assert!(!result.skyline.is_empty());
                served += 1;
            }
            Frame::RetryLater { backoff_ms } => {
                assert!(backoff_ms > 0);
                shed += 1;
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert_eq!(served + shed, 64);
    assert!(served > 0, "the queue drained *something*");
    assert!(shed > 0, "a 64-deep burst into a 1-deep queue must shed");

    // The shed ids are gone, not queued: a follow-up query (with the
    // sync helper's own backoff) must succeed — shedding is recoverable
    // backpressure, not a closed door.
    client.set_max_retries(64);
    let result = client.query(&queries[0]).unwrap();
    assert!(!result.skyline.is_empty());

    client.goodbye().unwrap();
    let metrics = server.shutdown();
    assert_eq!(metrics.net.shed_requests, shed as u64);
}

#[test]
fn the_per_client_window_sheds_before_the_engine_sees_anything() {
    // The burst's first request keeps the single worker busy for longer
    // than the reader thread needs for the other fifteen: a query set
    // spanning the universe over 20 000 points is tens of milliseconds of
    // VS², and all sixteen frames are in the socket before the client
    // reads anything. Replies leave in request order, so the window's two
    // slots stay taken by requests 1 and 2 until that query is done.
    let data = dataset(20_000, 0xE1);
    let engine = Engine::new(&data, EngineConfig::default().with_workers(1)).unwrap();
    let server = Server::serve(
        "127.0.0.1:0",
        engine,
        ServerConfig::default().with_per_client_window(2),
    )
    .unwrap();
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();

    let spanning = vec![
        Point::new(0.0, 0.0),
        Point::new(10.0, 1.0),
        Point::new(4.0, 10.0),
    ];
    let small = vec![Point::new(1.0, 1.0), Point::new(8.0, 8.0)];
    let ids: Vec<u64> = (0..16)
        .map(|i| {
            let q = if i == 0 { &spanning } else { &small };
            client.submit(q, None).unwrap()
        })
        .collect();
    let mut shed = 0usize;
    for id in ids {
        if let Frame::RetryLater { .. } = client.await_id(id).unwrap() {
            shed += 1;
        }
    }
    assert!(
        shed > 0,
        "a 16-deep burst into a 2-wide window behind a slow first request must shed \
         (expected 14 of 16, got {shed})"
    );
    client.goodbye().unwrap();
    server.shutdown();
}

#[test]
fn a_sharded_backend_serves_queries_and_rejects_sessions() {
    let data = dataset(600, 0xF1);
    let sharded = ShardedEngine::new(
        &data,
        ShardConfig {
            shards: 4,
            engine: EngineConfig::default().with_workers(2),
            ..ShardConfig::default()
        },
    )
    .unwrap();
    let mut rng = Xoshiro256::seed_from_u64(0xF2);
    let queries: Vec<Vec<Point>> = (0..8).map(|_| random_query(&mut rng)).collect();
    let expected: Vec<Vec<u32>> = queries
        .iter()
        .map(|q| sharded.query(q).unwrap().skyline)
        .collect();

    let server = Server::serve_sharded("127.0.0.1:0", sharded, ServerConfig::default()).unwrap();
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();

    for (i, q) in queries.iter().enumerate() {
        let result = client.query(q).unwrap();
        assert_eq!(result.skyline, expected[i], "routed query {i}");
        assert_eq!(result.algorithm, ALGORITHM_ROUTED);
    }

    match client.open_session(&queries[0]) {
        Err(ssq_net::NetError::Server { code, .. }) => {
            assert_eq!(code, ssq_net::ErrorCode::Unsupported)
        }
        other => panic!("expected Unsupported for sharded sessions, got {other:?}"),
    }

    client.goodbye().unwrap();
    server.shutdown();
}

#[test]
fn a_sharded_backend_reports_routed_queries_in_stats() {
    const QUERIES: u64 = 12;
    let data = dataset(600, 0xF3);
    let sharded = ShardedEngine::new(
        &data,
        ShardConfig::default()
            .with_shards(4)
            .with_policy(PartitionPolicy::Grid)
            .with_engine(EngineConfig::default().with_workers(2)),
    )
    .unwrap();
    let server = Server::serve_sharded("127.0.0.1:0", sharded, ServerConfig::default()).unwrap();
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
    let mut rng = Xoshiro256::seed_from_u64(0xF4);
    for _ in 0..QUERIES {
        client.query(&random_query(&mut rng)).unwrap();
    }

    // `router.queries` is what clients sent; the folded engines count
    // the per-shard sub-queries the fan-out ran (at least one each).
    let groups = client.stats().unwrap().groups;
    assert_eq!(groups.router.queries, QUERIES);
    assert!(groups.router.shards_queried >= QUERIES);
    assert_eq!(groups.engine.queries(), groups.router.shards_queried);

    client.goodbye().unwrap();
    server.shutdown();
}

#[test]
fn a_connection_cap_of_one_sheds_the_second_dial() {
    let data = dataset(150, 0xF7);
    let engine = Engine::new(&data, EngineConfig::default().with_workers(1)).unwrap();
    let server = Server::serve(
        "127.0.0.1:0",
        engine,
        ServerConfig::default().with_max_connections(1),
    )
    .unwrap();
    let addr = server.local_addr().to_string();

    let mut first = Client::connect(&addr).unwrap();
    first.ping().unwrap(); // the slot is definitely taken

    // The second dial connects at TCP level but is greeted with
    // RetryLater and closed.
    let mut second = Client::connect(&addr).unwrap();
    match second.recv() {
        Ok((0, Frame::RetryLater { .. })) => {}
        other => panic!("expected a RetryLater greeting, got {other:?}"),
    }
    match second.recv() {
        Err(ssq_net::NetError::Disconnected) | Err(ssq_net::NetError::Io(_)) => {}
        other => panic!("expected the shed connection to close, got {other:?}"),
    }

    first.goodbye().unwrap();
    // The slot frees up (teardown may lag the goodbye by a beat).
    let mut third = None;
    for _ in 0..50 {
        let mut candidate = Client::connect(&addr).unwrap();
        if candidate.ping().is_ok() {
            third = Some(candidate);
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let metrics = server.shutdown();
    assert!(third.is_some(), "the freed slot must accept again");
    assert!(metrics.net.shed_connections >= 1);
}
