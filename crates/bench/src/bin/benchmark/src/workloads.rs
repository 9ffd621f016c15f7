//! The untraced run: set the system up, warm it, drive one workload for
//! the measured window and check every answer.

use crate::inputs::{self, Pacer, QuerySets};
use crate::spec::{
    Kind, Workload, CHURN_PERIOD, CLIENTS, PROBE_BATCHES, SESSIONS_PER_CLIENT, SETUP_REPS, SHARDS,
    WIRE_WINDOW, WORKERS,
};
use crate::stats;
use ssq_core::{b2s2_kernel, vs2_kernel, DistanceScratch, QueryContext, UpdateBatch};
use ssq_engine::{
    DiagramConfig, Engine, EngineConfig, IngestReport, QueryKey, QueryRequest, SessionId, Snapshot,
};
use ssq_geom::Point;
use ssq_net::{Client, Frame, Server, ServerConfig};
use ssq_shard::{PartitionPolicy, ShardConfig, ShardedEngine};
use ssq_workload::rng::Xoshiro256;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Every how many session updates a `moving` client checks the update's
/// skyline against VS² (the final state of every session is always
/// checked).
const MOVING_CHECK_EVERY: u64 = 256;

/// The engine configuration of a workload's unsharded engine.
pub fn engine_config(w: &Workload) -> EngineConfig {
    let config = EngineConfig::default().with_workers(WORKERS);
    if w.diagram {
        config.with_diagram(DiagramConfig::default())
    } else {
        config
    }
}

/// The configuration of the `fleet` workload's sharded engine.
pub fn shard_config() -> ShardConfig {
    ShardConfig::default()
        .with_shards(SHARDS)
        .with_policy(PartitionPolicy::Grid)
        .with_engine(EngineConfig::default().with_workers(1))
}

/// The canonical keys a warm start materializes for `sets`.
pub fn warm_keys(sets: &[Vec<Point>], config: &EngineConfig) -> Vec<QueryKey> {
    sets.iter()
        .map(|q| QueryKey::canonical(q, config.cache_quantum))
        .collect()
}

/// The system a workload drives.
pub enum System {
    /// One unsharded engine.
    Engine(Engine),
    /// The sharded fleet.
    Fleet(Box<ShardedEngine>),
    /// An in-process server with one connected client.
    Wire {
        /// The server, owning the engine.
        server: Server,
        /// The one connection.
        client: Client,
    },
}

impl System {
    /// Stops every thread the system started and waits for each.
    pub fn shut_down(self) {
        match self {
            System::Engine(engine) => engine.shutdown(),
            System::Fleet(fleet) => fleet.shutdown(),
            System::Wire { server, client } => {
                // A failed goodbye only means the server closes the
                // connection itself during its own drain.
                let _ = client.goodbye();
                server.shutdown();
            }
        }
    }
}

/// One set-up: dataset generation, index or fleet build, engine and server
/// start, warm start — everything up to the first request. Returns the
/// system, the seconds it took, and, when `probe` is given, the
/// milliseconds each probe batch took to publish on the still idle system
/// (not counted in the set-up time; the instance must then be discarded,
/// because its dataset has moved on from the oracle's).
fn set_up(
    w: &Workload,
    seed: u64,
    hot: &[Vec<Point>],
    probe: Option<&[UpdateBatch]>,
) -> Result<(System, f64, Vec<f64>), String> {
    let started = Instant::now();
    let points = inputs::dataset(w.points, seed);
    let mut publish_ms = Vec::new();
    if w.kind == Kind::Fleet {
        let fleet = ShardedEngine::new(&points, shard_config()).map_err(|e| e.to_string())?;
        let setup_s = started.elapsed().as_secs_f64();
        for batch in probe.unwrap_or_default() {
            let sent = Instant::now();
            fleet.ingest(batch).map_err(|e| e.to_string())?;
            publish_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        }
        return Ok((System::Fleet(Box::new(fleet)), setup_s, publish_ms));
    }

    let config = engine_config(w);
    let engine = Engine::new(&points, config.clone()).map_err(|e| e.to_string())?;
    let mut setup_s = started.elapsed().as_secs_f64();
    for batch in probe.unwrap_or_default() {
        let sent = Instant::now();
        let report = engine.ingest(batch.clone()).map_err(|e| e.to_string())?;
        report.wait().map_err(|e| e.to_string())?;
        publish_ms.push(sent.elapsed().as_secs_f64() * 1e3);
    }
    if w.kind != Kind::Wire {
        return Ok((System::Engine(engine), setup_s, publish_ms));
    }

    let resumed = Instant::now();
    engine
        .warm_start(&warm_keys(hot, &config))
        .map_err(|e| e.to_string())?;
    let server =
        Server::serve("127.0.0.1:0", engine, ServerConfig::default()).map_err(|e| e.to_string())?;
    let client = Client::connect(&server.local_addr().to_string()).map_err(|e| e.to_string())?;
    setup_s += resumed.elapsed().as_secs_f64();
    Ok((System::Wire { server, client }, setup_s, publish_ms))
}

/// The measured window and the warm-up before it.
#[derive(Clone, Copy)]
pub struct Window {
    /// Operations started before this instant are warm-up.
    measure_from: Instant,
    /// No operation starts at or after this instant.
    until: Instant,
}

impl Window {
    /// A window of `window` that opens `warmup` from now.
    pub fn starting_now(warmup: Duration, window: Duration) -> Window {
        let measure_from = Instant::now() + warmup;
        Window {
            measure_from,
            until: measure_from + window,
        }
    }

    /// `true` for an operation that started and ended inside the window.
    fn covers(&self, started: Instant, ended: Instant) -> bool {
        started >= self.measure_from && ended <= self.until
    }
}

/// What one load generator saw inside the window.
#[derive(Default)]
struct Tally {
    /// Client-observed latency of each correct operation, nanoseconds.
    latencies: Vec<u64>,
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn new() -> Tally {
        Tally {
            latencies: Vec::with_capacity(1 << 20),
            ..Tally::default()
        }
    }

    fn record(&mut self, window: &Window, started: Instant, ended: Instant, correct: bool) {
        if !window.covers(started, ended) {
            return;
        }
        self.attempted += 1;
        if correct {
            self.latencies.push((ended - started).as_nanos() as u64);
        } else {
            self.failed += 1;
        }
    }

    /// Closed loop: the next operation starts when the previous one has
    /// completed. `op` returns the instant its reply arrived and whether
    /// the reply was correct (checked after that instant).
    fn drive(&mut self, window: &Window, mut op: impl FnMut() -> (Instant, bool)) {
        loop {
            let started = Instant::now();
            if started >= window.until {
                return;
            }
            let (ended, correct) = op();
            self.record(window, started, ended, correct);
        }
    }

    fn absorb(&mut self, other: Tally) {
        self.latencies.extend(other.latencies);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One delta batch the producer got published inside the window.
pub struct Published {
    /// Due instant to publish acknowledgement, milliseconds.
    pub due_to_ack_ms: f64,
    /// Submission to publish acknowledgement, milliseconds.
    pub sent_to_ack_ms: f64,
    /// What the engine reported about the publish.
    pub report: IngestReport,
}

/// What the open-loop producer saw inside the window.
#[derive(Default)]
pub struct Produced {
    /// The batches published, in order.
    pub published: Vec<Published>,
    /// Latest any batch was submitted after its due instant, milliseconds.
    pub late_ms: f64,
    /// Batches the engine rejected.
    pub failed: u64,
}

/// Submits one batch per [`CHURN_PERIOD`] on a fixed schedule, whatever
/// the engine does, and waits for each publish. A publish slower than the
/// period makes the next batch late; its latency is still timed from when
/// it was due, so the wait a stall imposes on later batches is counted.
pub fn produce(engine: &Engine, batches: Vec<UpdateBatch>, window: &Window) -> Produced {
    let first_due = Instant::now();
    let mut out = Produced::default();
    for (k, batch) in batches.into_iter().enumerate() {
        let due = first_due + CHURN_PERIOD * k as u32;
        if due >= window.until {
            break;
        }
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let sent = Instant::now();
        let published = engine.ingest(batch).map(|handle| handle.wait());
        let acked = Instant::now();
        if due < window.measure_from {
            continue;
        }
        match published {
            Ok(Ok(report)) => out.published.push(Published {
                due_to_ack_ms: (acked - due).as_secs_f64() * 1e3,
                sent_to_ack_ms: (acked - sent).as_secs_f64() * 1e3,
                report,
            }),
            _ => out.failed += 1,
        }
        out.late_ms = out.late_ms.max((sent - due).as_secs_f64() * 1e3);
    }
    out
}

/// One `moving` session: its engine id and the stream that moves it.
struct Session {
    id: SessionId,
    motion: Pacer,
}

/// One `moving` client: the sessions it moves in turn.
#[derive(Default)]
struct MovingClient {
    sessions: Vec<Session>,
    /// Updates sent so far.
    turn: u64,
    scratch: DistanceScratch,
}

/// The result of one untraced run.
pub struct Outcome {
    /// The time of each of the [`SETUP_REPS`] set-ups, seconds.
    pub setups_s: Vec<f64>,
    /// Time spent selecting query sets and computing their answers.
    pub oracle_s: f64,
    /// Candidates examined to fill the size classes.
    pub candidates: u64,
    /// Operations attempted inside the window plus answers verified
    /// after it.
    pub attempted: u64,
    /// Operations that errored, were shed, or answered wrongly.
    pub failed: u64,
    /// Latency of each correct in-window operation, ascending, ns.
    pub latencies: Vec<u64>,
    /// Length of the measured window.
    pub window: Duration,
    /// Publish latencies behind `publish_p50_ms`, milliseconds.
    pub publish_ms: Vec<f64>,
    /// Latest the `churn` producer submitted a batch, milliseconds.
    pub late_ms: Option<f64>,
    /// `VmHWM` of this process when the run ended, MiB.
    pub peak_rss_mib: f64,
}

impl Outcome {
    /// Median set-up time, seconds.
    pub fn setup_s(&self) -> f64 {
        stats::median(&mut self.setups_s.clone())
    }

    /// Failed operations over operations attempted.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Correct operations completed per second of the window.
    pub fn throughput(&self) -> f64 {
        self.latencies.len() as f64 / self.window.as_secs_f64()
    }
}

/// Selects a workload's query sets (or session start positions) on a
/// snapshot of its dataset and answers each: the oracle.
pub fn oracle(w: &Workload, seed: u64, snapshot: &Snapshot) -> Result<QuerySets, String> {
    QuerySets::select(&w.classes, snapshot.rtree(), snapshot.voronoi(), |j| {
        if w.kind == Kind::Moving {
            Pacer::new(&w.shape, seed, j).checkpoints()
        } else {
            (inputs::candidate_set(&w.shape, seed, j), Vec::new())
        }
    })
}

/// Runs `w` untraced for `window` after `warmup`.
pub fn run(w: &Workload, seed: u64, warmup: Duration, window: Duration) -> Result<Outcome, String> {
    // The oracle works on a snapshot of its own, dropped before set-up so
    // that set-up time and peak memory are the system's.
    let oracle_started = Instant::now();
    let sets = {
        let points = inputs::dataset(w.points, seed);
        let snapshot = Snapshot::build(0, &points)?;
        oracle(w, seed, &snapshot)?
    };
    let oracle_s = oracle_started.elapsed().as_secs_f64();
    run_with(w, seed, warmup, window, &sets, oracle_s)
}

/// [`run`] against given query sets and answers.
pub fn run_with(
    w: &Workload,
    seed: u64,
    warmup: Duration,
    window: Duration,
    sets: &QuerySets,
    oracle_s: f64,
) -> Result<Outcome, String> {
    // The window runs on the first set-up. The repeats that steady
    // `setup_s` come after it, and after peak memory has been read: freed
    // set-ups leave the allocator in one of two states some 12 % apart,
    // which would otherwise be the run-to-run spread of `peak_rss_mib`.
    let (system, first_setup_s, _) = set_up(w, seed, &sets.sets, None)?;
    let mut setups_s = vec![first_setup_s];
    let mut publish_ms = Vec::new();

    let mut tally = Tally::new();
    let mut late_ms = None;
    let frame = Window::starting_now(warmup, window);
    match (&w.kind, system) {
        (Kind::Direct, System::Engine(engine)) => {
            tally = closed_loop(&frame, &mut order_rngs(seed), |rng| {
                let i = sets.pick(rng);
                let reply = engine
                    .submit(QueryRequest::new(sets.sets[i].clone()))
                    .wait();
                (Instant::now(), reply.skyline == sets.answers[i])
            });
            engine.shutdown();
        }
        (Kind::Fleet, System::Fleet(fleet)) => {
            tally = closed_loop(&frame, &mut order_rngs(seed), |rng| {
                let i = sets.pick(rng);
                let reply = fleet.query(&sets.sets[i]);
                let ended = Instant::now();
                (ended, reply.is_ok_and(|r| r.skyline == sets.answers[i]))
            });
            fleet.shutdown();
        }
        (Kind::Wire, System::Wire { server, mut client }) => {
            wire_loop(&mut client, sets, seed, &frame, &mut tally);
            let net = server.net_counters();
            if net.frame_errors > 0 {
                return Err(format!("{} frame errors on the wire", net.frame_errors));
            }
            System::shut_down(System::Wire { server, client });
        }
        (Kind::Churn, System::Engine(engine)) => {
            let count = ((warmup + window).as_secs_f64() / CHURN_PERIOD.as_secs_f64()) as usize + 2;
            let batches = inputs::update_batches(seed, w.points, count);
            let produced = std::thread::scope(|scope| {
                let producer = scope.spawn(|| produce(&engine, batches, &frame));
                let mut rng = inputs::order_rng(seed, 0);
                tally.drive(&frame, || {
                    let i = sets.pick(&mut rng);
                    let reply = engine
                        .submit(QueryRequest::new(sets.sets[i].clone()))
                        .wait();
                    // The dataset moves under the window, so answers are
                    // checked on the final generation below instead.
                    (Instant::now(), !reply.skyline.is_empty())
                });
                producer.join().map_err(|_| "the churn producer panicked")
            })?;
            tally.failed += produced.failed;
            tally.attempted += produced.published.len() as u64 + produced.failed;
            publish_ms = produced.published.iter().map(|p| p.due_to_ack_ms).collect();
            late_ms = Some(produced.late_ms);
            let (checked, wrong) = verify_final_generation(&engine, sets);
            tally.attempted += checked;
            tally.failed += wrong;
            engine.shutdown();
        }
        (Kind::Moving, System::Engine(engine)) => {
            let snapshot = engine.snapshot();
            let mut clients: Vec<MovingClient> =
                (0..CLIENTS).map(|_| MovingClient::default()).collect();
            for (i, &j) in sets.drawn_as.iter().enumerate() {
                let motion = Pacer::new(&w.shape, seed, j);
                let id = engine.open_session(motion.positions());
                // Dealt round-robin, so each client owns every size class.
                clients[i % CLIENTS].sessions.push(Session { id, motion });
            }
            tally = closed_loop(&frame, &mut clients, |client| {
                let mine = client.sessions.len() as u64;
                let session = &mut client.sessions[(client.turn % mine) as usize];
                client.turn += 1;
                let step = session.motion.next_update();
                let reply = engine
                    .update_session(session.id, step.index, step.location)
                    .map(|handle| handle.wait());
                let ended = Instant::now();
                let correct = match reply {
                    Ok(update) if client.turn.is_multiple_of(MOVING_CHECK_EVERY) => {
                        let ctx = QueryContext::new(session.motion.positions());
                        let expected = vs2_kernel(snapshot.voronoi(), &ctx, &mut client.scratch);
                        update.skyline == expected.skyline
                    }
                    Ok(_) => true,
                    Err(_) => false,
                };
                (ended, correct)
            });
            let mut scratch = DistanceScratch::new();
            for session in clients.iter().flat_map(|c| &c.sessions) {
                let ctx = QueryContext::new(session.motion.positions());
                let expected = vs2_kernel(snapshot.voronoi(), &ctx, &mut scratch).skyline;
                tally.attempted += 1;
                if engine.session_skyline(session.id) != Some(expected) {
                    tally.failed += 1;
                }
            }
            debug_assert_eq!(CLIENTS * SESSIONS_PER_CLIENT, sets.len());
            engine.shutdown();
        }
        _ => return Err(format!("{}: set-up built the wrong system", w.name)),
    }

    let peak_rss_mib = peak_rss_mib()?;

    // The first repeat also publishes the probe batches on its idle
    // system; `churn` measured publishes inside its window instead.
    let probe = inputs::update_batches(seed, w.points, PROBE_BATCHES);
    for rep in 1..SETUP_REPS {
        let probing = rep == 1 && w.kind != Kind::Churn;
        let (system, setup_s, published) =
            set_up(w, seed, &sets.sets, probing.then_some(probe.as_slice()))?;
        system.shut_down();
        setups_s.push(setup_s);
        publish_ms.extend(published);
    }

    tally.latencies.sort_unstable();
    Ok(Outcome {
        setups_s,
        oracle_s,
        candidates: sets.candidates,
        attempted: tally.attempted,
        failed: tally.failed,
        latencies: tally.latencies,
        window,
        publish_ms,
        late_ms,
        peak_rss_mib,
    })
}

/// The request-order generators of the [`CLIENTS`] clients.
fn order_rngs(seed: u64) -> Vec<Xoshiro256> {
    (0..CLIENTS)
        .map(|client| inputs::order_rng(seed, client))
        .collect()
}

/// Runs one closed-loop client per element of `clients`, each on a thread
/// of its own with its element as its state, and merges what they saw.
fn closed_loop<S: Send>(
    frame: &Window,
    clients: &mut [S],
    op: impl Fn(&mut S) -> (Instant, bool) + Sync,
) -> Tally {
    let mut total = Tally::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|state| {
                let op = &op;
                scope.spawn(move || {
                    let mut tally = Tally::new();
                    tally.drive(frame, || op(state));
                    tally
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(tally) => total.absorb(tally),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    total
}

/// One connection, closed loop with [`WIRE_WINDOW`] requests in flight:
/// a reply is awaited in submission order and each one read lets the next
/// request out. Latency runs from a request's `submit` to the return of
/// its `await_id`.
fn wire_loop(client: &mut Client, sets: &QuerySets, seed: u64, frame: &Window, tally: &mut Tally) {
    let mut rng = inputs::order_rng(seed, 0);
    let mut in_flight: VecDeque<(u64, usize, Instant)> = VecDeque::with_capacity(WIRE_WINDOW);
    loop {
        while in_flight.len() < WIRE_WINDOW && Instant::now() < frame.until {
            let i = sets.pick(&mut rng);
            let started = Instant::now();
            match client.submit(&sets.sets[i], None) {
                Ok(id) => in_flight.push_back((id, i, started)),
                Err(_) => tally.record(frame, started, Instant::now(), false),
            }
        }
        let Some((id, i, started)) = in_flight.pop_front() else {
            return;
        };
        let reply = client.await_id(id);
        let ended = Instant::now();
        // A shed request (`RetryLater`), an error frame and a wrong id set
        // all fail the operation.
        let correct =
            matches!(reply, Ok(Frame::QueryResult(result)) if result.skyline == sets.answers[i]);
        tally.record(frame, started, ended, correct);
    }
}

/// After a `churn` window: answers every set on the engine, now quiet at
/// its final generation, and compares with B²S² and VS² run directly on
/// that generation's snapshot. Returns `(checked, wrong)`.
fn verify_final_generation(engine: &Engine, sets: &QuerySets) -> (u64, u64) {
    let snapshot = engine.snapshot();
    let mut scratch = DistanceScratch::new();
    let mut wrong = 0;
    for q in &sets.sets {
        let ctx = QueryContext::new(q);
        let expected = b2s2_kernel(snapshot.rtree(), &ctx, &mut scratch).skyline;
        let agreed = vs2_kernel(snapshot.voronoi(), &ctx, &mut scratch).skyline == expected;
        let reply = engine.submit(QueryRequest::new(q.clone())).wait();
        if !agreed || reply.skyline != expected || reply.generation != snapshot.generation() {
            wrong += 1;
        }
    }
    (sets.len() as u64, wrong)
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance test of the correctness gate: one corrupted oracle
    /// entry must turn into failed operations and a failing verdict.
    #[test]
    fn a_corrupted_oracle_entry_fails_the_run() {
        let w = Workload::find("direct-full", true).expect("workload");
        let points = inputs::dataset(w.points, 42);
        let snapshot = Snapshot::build(0, &points).expect("snapshot");
        let mut sets = oracle(&w, 42, &snapshot).expect("oracle");
        let (warmup, window) = (Duration::from_millis(50), Duration::from_millis(400));

        let clean = run_with(&w, 42, warmup, window, &sets, 0.0).expect("clean run");
        assert!(clean.attempted > 0);
        assert_eq!(clean.failed, 0);
        assert!(crate::report::verdict(&clean).is_ok());

        sets.answers[0].push(u32::MAX);
        let corrupt = run_with(&w, 42, warmup, window, &sets, 0.0).expect("corrupt run");
        assert!(corrupt.failed > 0 && corrupt.failed < corrupt.attempted);
        assert!(crate::report::verdict(&corrupt).is_err());
    }
}
