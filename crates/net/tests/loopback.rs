//! End-to-end over real sockets on loopback: the server's answers must
//! be identical to direct [`Engine::submit`], under real concurrency
//! (8 connections × 16-deep pipelining), and overload must shed with
//! typed `RetryLater` — never a hang, never an unbounded buffer. Both
//! ends buffer frames and write just before they would block, so the
//! last two groups pin what that must not change: reply order around a
//! `Goodbye`, a protocol error or an oversized reply, and a client that
//! never strands a request it has buffered.

use ssq_core::{naive_full, vs2_kernel, DistanceScratch, QueryContext, UpdateBatch};
use ssq_engine::{Algorithm, DiagramConfig, Engine, EngineConfig, QueryRequest};
use ssq_geom::Point;
use ssq_net::wire::{self, ALGORITHM_ROUTED, SERVED_BY_DIAGRAM};
use ssq_net::{Client, ErrorCode, Frame, Server, ServerConfig};
use ssq_rng::Xoshiro256;
use ssq_shard::{PartitionPolicy, ShardConfig, ShardedEngine};
use std::io::{Read, Write};
use std::net::TcpStream;
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

// ------------------------------------------------ coalesced writes: order

/// Answers are `Engine::submit`'s on this engine, taken before it moves
/// behind the socket.
fn oracle(engine: &Engine, queries: &[Vec<Point>]) -> Vec<Vec<u32>> {
    queries
        .iter()
        .map(|q| engine.submit(QueryRequest::new(q.clone())).wait().skyline)
        .collect()
}

/// An engine with the skyline diagram on, so every 1-point query is a
/// hit its connection's reader answers itself.
fn diagram_engine(seed: u64) -> Engine {
    let config = EngineConfig::default()
        .with_workers(2)
        .with_diagram(DiagramConfig::default());
    Engine::new(&dataset(400, seed), config).unwrap()
}

fn one_point_queries(n: usize, seed: u64) -> Vec<Vec<Point>> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    (0..n)
        .map(|_| vec![Point::new(rng.f64() * 10.0, rng.f64() * 10.0)])
        .collect()
}

/// Appends query frames with ids `first..` to `out`.
fn encode_queries(first: u64, queries: &[Vec<Point>], out: &mut Vec<u8>) {
    for (i, q) in queries.iter().enumerate() {
        let frame = Frame::Query {
            force: None,
            query: q.clone(),
        };
        wire::encode_frame(first + i as u64, &frame, wire::DEFAULT_MAX_FRAME_LEN, out).unwrap();
    }
}

/// A plain socket to `server`, with a read deadline so a missing reply
/// fails the test instead of hanging it.
fn raw_connect(server: &Server) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    stream
}

/// Reply frames in arrival order, read until `want` of them arrived or
/// the server closed the socket.
fn read_replies(stream: &mut TcpStream, want: usize) -> Vec<(u64, Frame)> {
    let mut fb = wire::FrameBuffer::new();
    let mut replies = Vec::new();
    let mut chunk = [0u8; 4096];
    while replies.len() < want {
        if let Some(envelope) = fb.next(wire::DEFAULT_MAX_FRAME_LEN).unwrap() {
            replies.push((envelope.request_id, envelope.frame));
            continue;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => fb.extend(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => break,
            Err(e) => panic!("no reply within the deadline after {replies:?}: {e}"),
        }
    }
    replies
}

/// Checks that `replies` answer ids `first..first + expected.len()`, each
/// exactly once, with `expected`'s skylines.
fn assert_answers(replies: &[(u64, Frame)], first: u64, expected: &[Vec<u32>]) {
    assert_eq!(replies.len(), expected.len(), "{replies:?}");
    let mut seen = vec![false; expected.len()];
    for (id, frame) in replies {
        let i = (id - first) as usize;
        assert!(!seen[i], "request {id} answered twice");
        seen[i] = true;
        match frame {
            Frame::QueryResult(result) => {
                assert_eq!(result.skyline, expected[i], "request {id}");
                assert_eq!(result.served_by, SERVED_BY_DIAGRAM, "request {id}");
            }
            other => panic!("request {id}: unexpected frame {other:?}"),
        }
    }
}

#[test]
fn sixty_four_hits_written_at_once_are_all_answered() {
    let engine = diagram_engine(0x71);
    let queries = one_point_queries(64, 0x72);
    let expected = oracle(&engine, &queries);
    let server = Server::serve("127.0.0.1:0", engine, ServerConfig::default()).unwrap();
    let mut stream = raw_connect(&server);
    let mut burst = Vec::new();
    encode_queries(1, &queries, &mut burst);
    stream.write_all(&burst).unwrap();

    assert_answers(&read_replies(&mut stream, 64), 1, &expected);
    drop(stream);
    let metrics = server.shutdown();
    assert_eq!(metrics.net.frame_errors, 0);
}

#[test]
fn a_goodbye_behind_pipelined_hits_follows_every_reply() {
    let engine = diagram_engine(0x73);
    let queries = one_point_queries(32, 0x74);
    let expected = oracle(&engine, &queries);
    let server = Server::serve("127.0.0.1:0", engine, ServerConfig::default()).unwrap();
    let mut stream = raw_connect(&server);
    let mut burst = Vec::new();
    encode_queries(1, &queries, &mut burst);
    wire::encode_frame(33, &Frame::Goodbye, wire::DEFAULT_MAX_FRAME_LEN, &mut burst).unwrap();
    stream.write_all(&burst).unwrap();

    let mut replies = read_replies(&mut stream, usize::MAX);
    assert!(
        matches!(replies.pop(), Some((0, Frame::Goodbye))),
        "the server's Goodbye must come last"
    );
    assert_answers(&replies, 1, &expected);
    server.shutdown();
}

#[test]
fn a_malformed_frame_after_hits_is_answered_after_them() {
    let engine = diagram_engine(0x75);
    let queries = one_point_queries(8, 0x76);
    let expected = oracle(&engine, &queries);
    let server = Server::serve("127.0.0.1:0", engine, ServerConfig::default()).unwrap();
    let mut stream = raw_connect(&server);
    let mut burst = Vec::new();
    encode_queries(1, &queries, &mut burst);
    let bad = burst.len();
    wire::encode_frame(9, &Frame::Ping, wire::DEFAULT_MAX_FRAME_LEN, &mut burst).unwrap();
    burst[bad + 4] = wire::WIRE_VERSION + 1; // the version byte after the length
    stream.write_all(&burst).unwrap();

    let mut replies = read_replies(&mut stream, usize::MAX);
    match replies.pop() {
        Some((0, Frame::Error { code, .. })) => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected a Malformed error last, got {other:?}"),
    }
    assert_answers(&replies, 1, &expected);
    let metrics = server.shutdown();
    assert_eq!(metrics.net.frame_errors, 1);
}

#[test]
fn an_oversized_reply_in_a_burst_replaces_only_itself() {
    // Under a 96-byte cap every request and every 1-point answer fits,
    // and so does the fallback error, but not the answer to a triangle
    // spanning the universe: every point inside the hull is a skyline
    // point.
    const CAP: usize = 96;
    let engine = diagram_engine(0x77);
    let big = vec![
        Point::new(1.0, 1.0),
        Point::new(9.0, 2.0),
        Point::new(5.0, 9.0),
    ];
    let queries = one_point_queries(8, 0x78);
    let expected = oracle(&engine, &queries);
    assert!(oracle(&engine, std::slice::from_ref(&big))[0].len() > 40);
    let server = Server::serve(
        "127.0.0.1:0",
        engine,
        ServerConfig::default().with_max_frame_len(CAP),
    )
    .unwrap();
    let mut stream = raw_connect(&server);
    let is_cap_error = |frame: &Frame| {
        matches!(frame, Frame::Error { code: ErrorCode::Internal, message }
            if message.contains("frame length cap"))
    };
    // Alone first: the cold shape is a pool job; answering it admits the
    // shape, so in the burst below it is a hit beside the others.
    let mut first = Vec::new();
    encode_queries(1, std::slice::from_ref(&big), &mut first);
    stream.write_all(&first).unwrap();
    let replies = read_replies(&mut stream, 1);
    assert!(is_cap_error(&replies[0].1), "{replies:?}");

    let mut burst = Vec::new();
    encode_queries(2, &queries[..4], &mut burst);
    encode_queries(6, &[big], &mut burst);
    encode_queries(7, &queries[4..], &mut burst);
    stream.write_all(&burst).unwrap();
    let mut replies = read_replies(&mut stream, 9);
    let at = replies.iter().position(|(id, _)| *id == 6).unwrap();
    let (_, oversized) = replies.remove(at);
    assert!(is_cap_error(&oversized), "{oversized:?}");
    let renumbered: Vec<(u64, Frame)> = replies
        .into_iter()
        .map(|(id, frame)| (if id > 6 { id - 1 } else { id }, frame))
        .collect();
    assert_answers(&renumbered, 2, &expected);
    drop(stream);
    let metrics = server.shutdown();
    assert_eq!(metrics.net.frame_errors, 0);
}

// --------------------------------------------- coalesced writes: liveness

/// Runs `f` on a thread; a client stranded by frames it never wrote
/// fails the test after a deadline instead of hanging it.
fn within_deadline<T: Send + 'static>(
    server: Server,
    f: impl FnOnce() -> T + Send + 'static,
) -> (Server, T) {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(30)) {
        Ok(value) => (server, value),
        Err(_) => {
            // Dropping the server would wait for the wedged connection.
            std::mem::forget(server);
            panic!("the client stopped making progress");
        }
    }
}

/// A plain engine behind a server, 33 query sets and their answers.
fn liveness_fixture(seed: u64) -> (Server, Vec<Vec<Point>>, Vec<Vec<u32>>) {
    let data = dataset(300, seed);
    let engine = Engine::new(&data, EngineConfig::default().with_workers(2)).unwrap();
    let mut rng = Xoshiro256::seed_from_u64(seed + 1);
    let queries: Vec<Vec<Point>> = (0..33).map(|_| random_query(&mut rng)).collect();
    let expected = oracle(&engine, &queries);
    let server = Server::serve("127.0.0.1:0", engine, ServerConfig::default()).unwrap();
    (server, queries, expected)
}

fn expect_result(frame: Frame, expected: &[u32], what: &str) {
    match frame {
        Frame::QueryResult(result) => assert_eq!(result.skyline, expected, "{what}"),
        other => panic!("{what}: unexpected frame {other:?}"),
    }
}

#[test]
fn every_pipelined_depth_is_answered_when_awaited_in_reverse() {
    let (server, queries, expected) = liveness_fixture(0x81);
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
    let (server, ()) = within_deadline(server, move || {
        for k in 1..=queries.len() {
            let ids: Vec<u64> = queries[..k]
                .iter()
                .map(|q| client.submit(q, None).unwrap())
                .collect();
            // The last id first: every earlier reply is parked on the way.
            for (i, id) in ids.into_iter().enumerate().rev() {
                expect_result(
                    client.await_id(id).unwrap(),
                    &expected[i],
                    &format!("k {k}"),
                );
            }
        }
        client.goodbye().unwrap();
    });
    server.shutdown();
}

#[test]
fn sync_helpers_right_after_buffered_submits_succeed() {
    let (server, queries, expected) = liveness_fixture(0x83);
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
    let (server, ()) = within_deadline(server, move || {
        // Seven submits with no read between them leave the last three
        // buffered (written at 1, 2, 4; held until four more are in).
        let ids: Vec<u64> = queries[..7]
            .iter()
            .map(|q| client.submit(q, None).unwrap())
            .collect();
        client.ping().unwrap();
        assert_eq!(client.query(&queries[8]).unwrap().skyline, expected[8]);
        for (i, id) in ids.into_iter().enumerate() {
            expect_result(client.await_id(id).unwrap(), &expected[i], "parked");
        }
        client.goodbye().unwrap();
    });
    server.shutdown();
}

#[test]
fn a_reconnect_with_frames_buffered_serves_the_next_query() {
    let (server, queries, expected) = liveness_fixture(0x85);
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
    let (server, ()) = within_deadline(server, move || {
        for q in &queries[..7] {
            client.submit(q, None).unwrap();
        }
        client.reconnect().unwrap();
        assert_eq!(client.query(&queries[9]).unwrap().skyline, expected[9]);
        client.goodbye().unwrap();
    });
    server.shutdown();
}

#[test]
fn a_goodbye_with_frames_buffered_completes() {
    let (server, queries, _) = liveness_fixture(0x87);
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
    let (server, ()) = within_deadline(server, move || {
        for q in &queries[..7] {
            client.submit(q, None).unwrap();
        }
        client.goodbye().unwrap();
    });
    let metrics = server.shutdown();
    assert_eq!(metrics.net.frame_errors, 0);
}
