//! The TCP server: thread-per-connection accept loop, pipelined
//! request handling, admission control, overload shedding, clean drain.
//!
//! ## Threads and queues
//!
//! One **accept** thread polls the listener; each connection gets a
//! **reader** thread (parses frames, makes the admission decision, hands
//! work to the engine) and a **reply** thread (waits the engine
//! [`Ticket`]s in FIFO order and writes responses). A query the engine
//! answers at submission — a skyline-diagram hit, whose handle comes
//! back already filled — is written by the reader itself, at once; every
//! other reply leaves through the reply thread in submission order. So
//! a hit can overtake earlier pending requests, and replies are matched
//! to requests by id — that is what pipelining means here: a client may
//! keep its whole window in flight without read/write turn-taking.
//!
//! ## Admission control (the state machine)
//!
//! A request frame is admitted if and only if:
//!
//! 1. the connection's in-flight count is below
//!    [`ServerConfig::per_client_window`], and
//! 2. the engine (or, sharded, the dispatch pool) accepts the job
//!    without blocking ([`Engine::try_submit`]).
//!
//! Anything else is **shed**: the server answers a typed
//! [`Frame::RetryLater`] with a backoff hint and *forgets the request*
//! — no buffering, no blocking, so a hot client can never wedge the
//! reader thread or balloon memory. Connections over
//! [`ServerConfig::max_connections`] are shed the same way at accept
//! time (a `RetryLater` greeting, then close).
//!
//! ## Slow and dead clients
//!
//! Every socket write runs under [`ServerConfig::write_timeout`]; a
//! stalled client fails its own writes, which marks the connection dead
//! and tears it down — in-flight tickets are then *discarded, not
//! waited out*, and dropping a ticket never leaks a queue slot (the
//! worker's eventual fill lands in an abandoned cell). The only
//! per-connection buffers are one encode scratch (≤ the frame cap) and
//! the reply queue of ticket handles (≤ the window), both bounded by
//! construction.
//!
//! ## Shutdown
//!
//! [`Server::shutdown`] stops the accept loop, half-closes every
//! connection's read side, and joins. Each reader sees EOF, stops
//! parsing, and lets its reply thread flush every in-flight ticket
//! before the connection sends a final [`Frame::Goodbye`] and closes —
//! accepted work is answered, never dropped. A client-initiated
//! [`Frame::Goodbye`] triggers the same drain for one connection.

use crate::metrics::NetMetrics;
use crate::wire::{
    self, ErrorCode, Frame, QuerySpec, StatsResult, WireResult, WireUpdate, ALGORITHM_ROUTED,
};
use crate::NetError;
use ssq_core::UpdateOutcome;
use ssq_engine::sync::{
    lock_unpoisoned, wait_unpoisoned, RankedMutex, RANK_NET_CONNECTIONS, RANK_NET_WRITER,
};
use ssq_engine::{
    BatchTicket, CounterSet, Engine, EngineError, NetCounters, QueryHandle, QueryRequest,
    QueryResponse, ServedBy, SessionId, SessionUpdate, Ticket, TrySubmitError, UpdateHandle,
    WorkerPool, WorkerState,
};
use ssq_geom::{Point, Rect};
use ssq_shard::{ShardError, ShardedEngine, ShardedResponse};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning knobs for [`Server::serve`] / [`Server::serve_sharded`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Open-connection cap; connections beyond it are shed at accept
    /// with a [`Frame::RetryLater`] greeting.
    pub max_connections: usize,
    /// Per-connection in-flight request window; frames beyond it are
    /// shed with [`Frame::RetryLater`].
    pub per_client_window: usize,
    /// Frame length cap, both directions (see
    /// [`wire::DEFAULT_MAX_FRAME_LEN`]).
    pub max_frame_len: usize,
    /// Socket write timeout; a client that stalls a write past this is
    /// torn down (slow-consumer protection).
    pub write_timeout: Duration,
    /// Backoff hint carried in [`Frame::RetryLater`], milliseconds.
    pub retry_backoff_ms: u32,
    /// Accept-loop poll interval while idle (the listener is
    /// non-blocking so shutdown is prompt).
    pub accept_poll: Duration,
    /// Dispatcher threads for a sharded backend (each routes one call at
    /// a time and runs that call's last shard batch per phase itself, so
    /// they run kernels beside the shard pools; unused for single-engine
    /// backends).
    pub dispatchers: usize,
    /// Pending-fan-out queue bound for a sharded backend; a full queue
    /// sheds like a full engine queue.
    pub dispatch_queue: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_connections: 256,
            per_client_window: 64,
            max_frame_len: wire::DEFAULT_MAX_FRAME_LEN,
            write_timeout: Duration::from_secs(5),
            retry_backoff_ms: 25,
            accept_poll: Duration::from_millis(10),
            dispatchers: 4,
            dispatch_queue: 256,
        }
    }
}

impl ServerConfig {
    /// This config with the given connection cap.
    pub fn with_max_connections(mut self, n: usize) -> ServerConfig {
        self.max_connections = n;
        self
    }

    /// This config with the given per-connection in-flight window.
    pub fn with_per_client_window(mut self, n: usize) -> ServerConfig {
        self.per_client_window = n;
        self
    }

    /// This config with the given frame length cap.
    pub fn with_max_frame_len(mut self, n: usize) -> ServerConfig {
        self.max_frame_len = n;
        self
    }

    /// This config with the given socket write timeout.
    pub fn with_write_timeout(mut self, t: Duration) -> ServerConfig {
        self.write_timeout = t;
        self
    }

    /// Checks every knob, returning the first violation as a typed
    /// error.
    pub fn validate(&self) -> Result<(), NetError> {
        if self.max_connections == 0 {
            return Err(NetError::Config("max_connections must be nonzero".into()));
        }
        if self.per_client_window == 0 {
            return Err(NetError::Config("per_client_window must be nonzero".into()));
        }
        if self.max_frame_len < wire::FRAME_OVERHEAD {
            return Err(NetError::Config(format!(
                "max_frame_len must be at least {}",
                wire::FRAME_OVERHEAD
            )));
        }
        if self.write_timeout.is_zero() {
            return Err(NetError::Config("write_timeout must be nonzero".into()));
        }
        if self.dispatchers == 0 || self.dispatch_queue == 0 {
            return Err(NetError::Config(
                "dispatchers and dispatch_queue must be nonzero".into(),
            ));
        }
        Ok(())
    }
}

/// What the server fronts: one engine, or a sharded fleet.
enum Backend {
    /// A single [`Engine`]; sessions supported.
    Single(Engine),
    /// A [`ShardedEngine`]; queries fan out via dispatcher threads,
    /// sessions answer [`ErrorCode::Unsupported`]. Boxed: the router is
    /// an order of magnitude bigger than an `Engine` handle.
    Sharded(Box<ShardedEngine>),
}

impl Backend {
    fn data_len(&self) -> usize {
        match self {
            Backend::Single(e) => e.data_len(),
            Backend::Sharded(s) => s.data_len(),
        }
    }

    fn universe(&self) -> Rect {
        match self {
            Backend::Single(e) => e.universe(),
            Backend::Sharded(s) => s
                .shard_infos()
                .iter()
                .fold(Rect::EMPTY, |acc, info| acc.union(&info.rect)),
        }
    }
}

struct ConnEntry {
    /// A clone of the connection's stream, kept so shutdown can
    /// half-close the read side and unblock the reader thread.
    stream: TcpStream,
    thread: Option<JoinHandle<()>>,
    /// Set by the connection thread as its very last action; the accept
    /// loop reaps (joins and forgets) flagged entries.
    done: Arc<AtomicBool>,
}

struct ServerShared {
    backend: Arc<Backend>,
    /// Dispatcher pool for sharded fan-outs (jobs capture only the
    /// backend `Arc`, never `ServerShared`, so there is no Arc cycle).
    dispatch: Option<Arc<WorkerPool>>,
    config: ServerConfig,
    metrics: NetMetrics,
    shutting_down: AtomicBool,
    connections: RankedMutex<HashMap<u64, ConnEntry>>,
    next_conn: AtomicU64,
}

impl ServerShared {
    /// The backend's counters — an engine's, or a fleet's (the router's
    /// groups beside its folded engines') — with `net` filled in.
    fn counters(&self) -> CounterSet {
        let backend = match &*self.backend {
            Backend::Single(e) => e.metrics().counters,
            Backend::Sharded(s) => s.metrics().counters,
        };
        CounterSet {
            net: self.metrics.snapshot(),
            ..backend
        }
    }
}

/// A running TCP front-end over an engine. See the [module
/// docs](self) for the thread and shedding model.
pub struct Server {
    shared: Arc<ServerShared>,
    accept: Option<JoinHandle<()>>,
    addr: SocketAddr,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("active", &self.shared.metrics.active())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving `engine`.
    pub fn serve(
        addr: impl ToSocketAddrs,
        engine: Engine,
        config: ServerConfig,
    ) -> Result<Server, NetError> {
        Server::start(addr, Backend::Single(engine), config)
    }

    /// Binds `addr` and starts serving a sharded fleet. Continuous
    /// sessions are not routed across shards; session frames answer
    /// [`ErrorCode::Unsupported`].
    pub fn serve_sharded(
        addr: impl ToSocketAddrs,
        engine: ShardedEngine,
        config: ServerConfig,
    ) -> Result<Server, NetError> {
        Server::start(addr, Backend::Sharded(Box::new(engine)), config)
    }

    fn start(
        addr: impl ToSocketAddrs,
        backend: Backend,
        config: ServerConfig,
    ) -> Result<Server, NetError> {
        config.validate()?;
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let dispatch = match backend {
            Backend::Sharded(_) => Some(Arc::new(
                WorkerPool::new(
                    |i| format!("ssq-dispatch-{i}"),
                    config.dispatchers,
                    config.dispatch_queue,
                )
                .map_err(NetError::Io)?,
            )),
            Backend::Single(_) => None,
        };
        let shared = Arc::new(ServerShared {
            backend: Arc::new(backend),
            dispatch,
            config,
            metrics: NetMetrics::new(),
            shutting_down: AtomicBool::new(false),
            connections: RankedMutex::new("net.connections", RANK_NET_CONNECTIONS, HashMap::new()),
            next_conn: AtomicU64::new(0),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("ssq-net-accept".into())
            .spawn(move || accept_loop(&accept_shared, &listener))
            .map_err(NetError::Io)?;
        Ok(Server {
            shared,
            accept: Some(accept),
            addr: local,
        })
    }

    /// The bound address — the way to learn an ephemeral port.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The socket front-end counters alone.
    pub fn net_counters(&self) -> NetCounters {
        self.shared.metrics.snapshot()
    }

    /// Every scalar counter of the serving stack in one read: the
    /// backend's groups with `net` filled in — what a `Stats` frame
    /// answers.
    pub fn metrics(&self) -> CounterSet {
        self.shared.counters()
    }

    /// Drains and stops the server: no new connections, every accepted
    /// request answered, every connection closed with a
    /// [`Frame::Goodbye`], every thread joined. Returns the final
    /// counters.
    pub fn shutdown(mut self) -> CounterSet {
        self.shutdown_inner();
        self.shared.counters()
    }

    fn shutdown_inner(&mut self) {
        if self.shared.shutting_down.swap(true, Ordering::AcqRel) {
            return;
        }
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        let entries: Vec<ConnEntry> = {
            let mut conns = self.shared.connections.lock();
            conns.drain().map(|(_, entry)| entry).collect()
        };
        for entry in &entries {
            // Half-close: the reader sees EOF and starts its drain; the
            // write side stays open for the in-flight responses and the
            // final Goodbye.
            let _ = entry.stream.shutdown(Shutdown::Read);
        }
        for mut entry in entries {
            if let Some(handle) = entry.thread.take() {
                let _ = handle.join();
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

// ----------------------------------------------------------- accept loop

fn accept_loop(shared: &Arc<ServerShared>, listener: &TcpListener) {
    loop {
        if shared.shutting_down.load(Ordering::Acquire) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => handle_accept(shared, stream),
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(shared.config.accept_poll);
            }
            Err(_) => std::thread::sleep(shared.config.accept_poll),
        }
    }
}

fn handle_accept(shared: &Arc<ServerShared>, stream: TcpStream) {
    reap_finished(shared);
    let config = &shared.config;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    if shared.metrics.active() >= config.max_connections as u64 {
        shed_connection(shared, stream);
        return;
    }
    let Ok(shutdown_handle) = stream.try_clone() else {
        return;
    };
    let done = Arc::new(AtomicBool::new(false));
    let conn_shared = Arc::clone(shared);
    let conn_done = Arc::clone(&done);
    shared.metrics.record_accept();
    let spawned = std::thread::Builder::new()
        .name("ssq-net-conn".into())
        .spawn(move || {
            run_connection(&conn_shared, stream);
            conn_done.store(true, Ordering::Release);
        });
    match spawned {
        Ok(handle) => {
            let id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
            shared.connections.lock().insert(
                id,
                ConnEntry {
                    stream: shutdown_handle,
                    thread: Some(handle),
                    done,
                },
            );
        }
        Err(_) => shared.metrics.record_close(),
    }
}

/// Over the cap: greet with `RetryLater` (request id 0) and close.
fn shed_connection(shared: &Arc<ServerShared>, mut stream: TcpStream) {
    shared.metrics.record_shed_connection();
    let mut buf = Vec::new();
    let frame = Frame::RetryLater {
        backoff_ms: shared.config.retry_backoff_ms,
    };
    if wire::encode_frame(0, &frame, shared.config.max_frame_len, &mut buf).is_ok()
        && stream.write_all(&buf).is_ok()
    {
        shared.metrics.record_bytes_out(buf.len());
    }
}

/// Joins and forgets connection threads that have finished on their
/// own, so a long-lived server does not accumulate dead handles.
fn reap_finished(shared: &Arc<ServerShared>) {
    let mut conns = shared.connections.lock();
    let finished: Vec<u64> = conns
        .iter()
        .filter(|(_, e)| e.done.load(Ordering::Acquire))
        .map(|(&id, _)| id)
        .collect();
    for id in finished {
        if let Some(mut entry) = conns.remove(&id) {
            if let Some(handle) = entry.thread.take() {
                let _ = handle.join();
            }
        }
    }
}

// ------------------------------------------------------- per connection

struct ConnWriter {
    stream: TcpStream,
    scratch: Vec<u8>,
}

struct ConnShared {
    /// The write half plus encode scratch — rank 700, the per-connection
    /// leaf lock (see the rank table in `ssq_engine::sync`).
    writer: RankedMutex<ConnWriter>,
    /// Set on any write failure/timeout or fatal protocol error; both
    /// threads check it and wind the connection down.
    dead: AtomicBool,
    /// Admitted-but-unanswered request frames — the window gauge.
    in_flight: AtomicUsize,
}

/// An admitted request awaiting its engine completion.
enum PendingReply {
    Query(QueryHandle),
    Batch(BatchTicket),
    Update(UpdateHandle),
    /// A sharded fan-out running on a dispatcher thread; the job
    /// delivers a ready-to-send frame.
    Routed(Ticket<Frame>),
}

/// The reader→reply FIFO. A raw mutex/condvar pair like the pool queue
/// (a condvar wait releases the lock, which a ranked guard cannot
/// model); bounded by the admission window by construction, so `push`
/// never needs to block.
struct ReplyQueue {
    state: Mutex<ReplyQueueState>,
    ready: Condvar,
}

struct ReplyQueueState {
    items: VecDeque<(u64, PendingReply)>,
    closed: bool,
}

impl ReplyQueue {
    fn new() -> ReplyQueue {
        ReplyQueue {
            state: Mutex::new(ReplyQueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    fn push(&self, id: u64, reply: PendingReply) {
        let mut s = lock_unpoisoned(&self.state);
        s.items.push_back((id, reply));
        drop(s);
        self.ready.notify_one();
    }

    /// Ends the queue: `pop` drains what is buffered, then returns
    /// `None`.
    fn close(&self) {
        lock_unpoisoned(&self.state).closed = true;
        self.ready.notify_all();
    }

    fn pop(&self) -> Option<(u64, PendingReply)> {
        let mut s = lock_unpoisoned(&self.state);
        loop {
            if let Some(item) = s.items.pop_front() {
                return Some(item);
            }
            if s.closed {
                return None;
            }
            s = wait_unpoisoned(&self.ready, s);
        }
    }
}

/// What the reader does after one frame.
enum Flow {
    Continue,
    /// Flush in-flight replies, send Goodbye, close (client Goodbye or
    /// EOF or server shutdown).
    Drain,
    /// Close without the Goodbye handshake (protocol violation or dead
    /// socket).
    Abort,
}

fn run_connection(shared: &Arc<ServerShared>, stream: TcpStream) {
    let Ok(mut read_half) = stream.try_clone() else {
        shared.metrics.record_close();
        return;
    };
    let conn = Arc::new(ConnShared {
        writer: RankedMutex::new(
            "net.conn.writer",
            RANK_NET_WRITER,
            ConnWriter {
                stream,
                scratch: Vec::new(),
            },
        ),
        dead: AtomicBool::new(false),
        in_flight: AtomicUsize::new(0),
    });
    let replies = Arc::new(ReplyQueue::new());
    let reply_shared = Arc::clone(shared);
    let reply_conn = Arc::clone(&conn);
    let reply_queue = Arc::clone(&replies);
    let reply_thread = std::thread::Builder::new()
        .name("ssq-net-reply".into())
        .spawn(move || reply_loop(&reply_shared, &reply_conn, &reply_queue));
    let Ok(reply_thread) = reply_thread else {
        shared.metrics.record_close();
        return;
    };

    let mut sessions: HashMap<u64, SessionId> = HashMap::new();
    let mut next_session: u64 = 0;
    let graceful = read_loop(
        shared,
        &conn,
        &mut read_half,
        &replies,
        &mut sessions,
        &mut next_session,
    );

    // Drain: the reply thread flushes (or, if the socket died, discards)
    // every in-flight ticket, then exits.
    replies.close();
    let _ = reply_thread.join();
    // Engine sessions are connection-scoped: close what the client left
    // open so a churning client cannot leak session state.
    if let Backend::Single(engine) = &*shared.backend {
        for (_, sid) in sessions.drain() {
            engine.close_session(sid);
        }
    }
    if graceful {
        send_frame(shared, &conn, 0, &Frame::Goodbye);
    }
    {
        let w = conn.writer.lock();
        let _ = w.stream.shutdown(Shutdown::Both);
    }
    shared.metrics.record_close();
}

fn read_loop(
    shared: &Arc<ServerShared>,
    conn: &Arc<ConnShared>,
    read_half: &mut TcpStream,
    replies: &ReplyQueue,
    sessions: &mut HashMap<u64, SessionId>,
    next_session: &mut u64,
) -> bool {
    let mut fb = wire::FrameBuffer::new();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        loop {
            match fb.next(shared.config.max_frame_len) {
                Ok(Some(envelope)) => {
                    match handle_frame(shared, conn, replies, sessions, next_session, envelope) {
                        Flow::Continue => {}
                        Flow::Drain => return true,
                        Flow::Abort => return false,
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    // Framing is lost: answer with the typed reason and
                    // cut the connection. No drain — the stream can no
                    // longer be trusted to carry it.
                    shared.metrics.record_frame_error();
                    send_frame(
                        shared,
                        conn,
                        0,
                        &Frame::Error {
                            code: ErrorCode::Malformed,
                            message: e.to_string(),
                        },
                    );
                    return false;
                }
            }
        }
        if conn.dead.load(Ordering::Acquire) {
            return false;
        }
        match read_half.read(&mut chunk) {
            Ok(0) => return true, // EOF: client done, or server shutdown half-close
            Ok(n) => {
                shared.metrics.record_bytes_in(n);
                fb.extend(&chunk[..n]);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
}

fn handle_frame(
    shared: &Arc<ServerShared>,
    conn: &Arc<ConnShared>,
    replies: &ReplyQueue,
    sessions: &mut HashMap<u64, SessionId>,
    next_session: &mut u64,
    envelope: wire::Envelope,
) -> Flow {
    let id = envelope.request_id;
    match envelope.frame {
        Frame::Ping => {
            send_frame(shared, conn, id, &Frame::Pong);
            Flow::Continue
        }
        Frame::Stats => {
            let frame = Frame::StatsResult(Box::new(stats(shared)));
            send_frame(shared, conn, id, &frame);
            Flow::Continue
        }
        Frame::Goodbye => Flow::Drain,
        Frame::Query { force, query } => {
            if !admit(shared, conn, id) {
                return Flow::Continue;
            }
            match &*shared.backend {
                Backend::Single(engine) => match engine.try_submit(QueryRequest { query, force }) {
                    // A diagram hit was answered at submission: the reader
                    // writes it, with no window slot and no reply-queue hop.
                    Ok(handle) if handle.is_ready() => {
                        send_frame(shared, conn, id, &query_result_frame(handle.wait()));
                        Flow::Continue
                    }
                    Ok(handle) => enqueue(conn, replies, id, PendingReply::Query(handle)),
                    Err(e) => submit_rejected(shared, conn, id, &e),
                },
                Backend::Sharded(_) => dispatch_routed(shared, conn, replies, id, move |engine| {
                    Ok(Frame::QueryResult(routed_result(engine.query(&query)?)))
                }),
            }
        }
        Frame::Batch { queries } => {
            if !admit(shared, conn, id) {
                return Flow::Continue;
            }
            match &*shared.backend {
                Backend::Single(engine) => {
                    let requests: Vec<QueryRequest> = queries
                        .into_iter()
                        .map(|QuerySpec { force, query }| QueryRequest { query, force })
                        .collect();
                    match engine.try_submit_batch(requests) {
                        Ok(ticket) => enqueue(conn, replies, id, PendingReply::Batch(ticket)),
                        Err(e) => submit_rejected(shared, conn, id, &e),
                    }
                }
                Backend::Sharded(_) => dispatch_routed(shared, conn, replies, id, move |engine| {
                    let qs: Vec<Vec<Point>> = queries.into_iter().map(|spec| spec.query).collect();
                    let responses = engine.query_batch(&qs)?;
                    Ok(Frame::BatchResult(
                        responses.into_iter().map(routed_result).collect(),
                    ))
                }),
            }
        }
        Frame::SessionOpen { query } => {
            let Backend::Single(engine) = &*shared.backend else {
                send_frame(
                    shared,
                    conn,
                    id,
                    &Frame::Error {
                        code: ErrorCode::Unsupported,
                        message: "continuous sessions are not routed across shards".into(),
                    },
                );
                return Flow::Continue;
            };
            // Synchronous by design: the initial VS² run happens on the
            // reader thread, on a transient arena the open drops (the
            // session keeps none), bounding one open — and one such
            // arena — per connection at a time.
            let sid = engine.open_session(&query);
            *next_session += 1;
            let wire_sid = *next_session;
            sessions.insert(wire_sid, sid);
            let frame = Frame::SessionOpened {
                session: wire_sid,
                generation: engine.session_generation(sid).unwrap_or_default(),
                skyline: engine.session_skyline(sid).unwrap_or_default(),
            };
            send_frame(shared, conn, id, &frame);
            Flow::Continue
        }
        Frame::SessionNext {
            session,
            object,
            x,
            y,
        } => {
            let Backend::Single(engine) = &*shared.backend else {
                send_frame(
                    shared,
                    conn,
                    id,
                    &Frame::Error {
                        code: ErrorCode::Unsupported,
                        message: "continuous sessions are not routed across shards".into(),
                    },
                );
                return Flow::Continue;
            };
            let Some(&sid) = sessions.get(&session) else {
                send_frame(
                    shared,
                    conn,
                    id,
                    &Frame::Error {
                        code: ErrorCode::NoSuchSession,
                        message: format!("session {session} is not open on this connection"),
                    },
                );
                return Flow::Continue;
            };
            if !admit(shared, conn, id) {
                return Flow::Continue;
            }
            match engine.update_session(sid, object as usize, Point::new(x, y)) {
                Ok(handle) => enqueue(conn, replies, id, PendingReply::Update(handle)),
                Err(e) => submit_rejected(shared, conn, id, &e),
            }
        }
        Frame::SessionClose { session } => {
            let existed = match (&*shared.backend, sessions.remove(&session)) {
                (Backend::Single(engine), Some(sid)) => engine.close_session(sid),
                _ => false,
            };
            send_frame(shared, conn, id, &Frame::SessionClosed { existed });
            Flow::Continue
        }
        // A client must never send response frames; framing is fine but
        // the conversation is not — answer and cut.
        Frame::Pong
        | Frame::QueryResult(_)
        | Frame::BatchResult(_)
        | Frame::SessionOpened { .. }
        | Frame::SessionUpdated(_)
        | Frame::SessionClosed { .. }
        | Frame::StatsResult(_)
        | Frame::RetryLater { .. }
        | Frame::Error { .. } => {
            shared.metrics.record_frame_error();
            send_frame(
                shared,
                conn,
                id,
                &Frame::Error {
                    code: ErrorCode::Malformed,
                    message: "response frames are not valid requests".into(),
                },
            );
            Flow::Abort
        }
    }
}

/// The per-client window check. A full window sheds with `RetryLater`
/// (a diagram hit included: the check runs before the engine is asked).
fn admit(shared: &Arc<ServerShared>, conn: &ConnShared, id: u64) -> bool {
    if conn.in_flight.load(Ordering::Acquire) >= shared.config.per_client_window {
        shared.metrics.record_shed_request();
        send_frame(
            shared,
            conn,
            id,
            &Frame::RetryLater {
                backoff_ms: shared.config.retry_backoff_ms,
            },
        );
        return false;
    }
    true
}

/// Books an admitted request into the window and the reply FIFO.
fn enqueue(conn: &ConnShared, replies: &ReplyQueue, id: u64, reply: PendingReply) -> Flow {
    conn.in_flight.fetch_add(1, Ordering::AcqRel);
    replies.push(id, reply);
    Flow::Continue
}

/// Maps a rejected engine submission to its wire answer: queue-full
/// sheds, closed drains the connection, anything else is an error frame.
fn submit_rejected(
    shared: &Arc<ServerShared>,
    conn: &ConnShared,
    id: u64,
    error: &EngineError,
) -> Flow {
    match error {
        EngineError::QueueFull => {
            shared.metrics.record_shed_request();
            send_frame(
                shared,
                conn,
                id,
                &Frame::RetryLater {
                    backoff_ms: shared.config.retry_backoff_ms,
                },
            );
            Flow::Continue
        }
        EngineError::Closed => {
            send_frame(
                shared,
                conn,
                id,
                &Frame::Error {
                    code: ErrorCode::Shutdown,
                    message: "engine is shutting down".into(),
                },
            );
            Flow::Drain
        }
        other => {
            send_frame(
                shared,
                conn,
                id,
                &Frame::Error {
                    code: ErrorCode::Internal,
                    message: other.to_string(),
                },
            );
            Flow::Continue
        }
    }
}

/// Hands a sharded call to the dispatcher pool, window-booked like a
/// single-engine submission; a full dispatcher queue sheds. That is the
/// only sharded shed point: the router submits to shard pools with the
/// blocking send and runs its own batches on the dispatcher, so every
/// [`ShardError`] it returns becomes an `Internal` error frame.
fn dispatch_routed(
    shared: &Arc<ServerShared>,
    conn: &ConnShared,
    replies: &ReplyQueue,
    id: u64,
    job: impl FnOnce(&ShardedEngine) -> Result<Frame, ShardError> + Send + 'static,
) -> Flow {
    let Some(dispatch) = shared.dispatch.as_ref() else {
        send_frame(shared, conn, id, &internal_frame("no dispatcher pool"));
        return Flow::Continue;
    };
    let backend = Arc::clone(&shared.backend);
    let (ticket, filler) = Ticket::pair();
    let submitted = dispatch.try_submit(Box::new(move |_state: &mut WorkerState| {
        filler.fill(match &*backend {
            Backend::Sharded(engine) => {
                job(engine).unwrap_or_else(|e| internal_frame(&e.to_string()))
            }
            Backend::Single(_) => internal_frame("dispatch without a sharded backend"),
        });
    }));
    match submitted {
        Ok(()) => enqueue(conn, replies, id, PendingReply::Routed(ticket)),
        Err(TrySubmitError::Full) => {
            shared.metrics.record_shed_request();
            send_frame(
                shared,
                conn,
                id,
                &Frame::RetryLater {
                    backoff_ms: shared.config.retry_backoff_ms,
                },
            );
            Flow::Continue
        }
        Err(TrySubmitError::Closed) => {
            send_frame(
                shared,
                conn,
                id,
                &Frame::Error {
                    code: ErrorCode::Shutdown,
                    message: "server is shutting down".into(),
                },
            );
            Flow::Drain
        }
    }
}

fn internal_frame(message: &str) -> Frame {
    Frame::Error {
        code: ErrorCode::Internal,
        message: message.into(),
    }
}

/// A routed answer as a wire result.
fn routed_result(resp: ShardedResponse) -> WireResult {
    WireResult {
        generation: resp.generation,
        algorithm: ALGORITHM_ROUTED,
        served_by: wire::SERVED_BY_PLANNER,
        skyline: resp.skyline,
    }
}

// ------------------------------------------------------------ reply side

fn reply_loop(shared: &Arc<ServerShared>, conn: &Arc<ConnShared>, replies: &ReplyQueue) {
    while let Some((id, reply)) = replies.pop() {
        let frame = match reply {
            PendingReply::Query(ticket) => wait_reply(ticket, conn).map(query_result_frame),
            PendingReply::Batch(ticket) => wait_reply(ticket, conn).map(|responses| {
                Frame::BatchResult(responses.into_iter().map(wire_result).collect())
            }),
            PendingReply::Update(ticket) => wait_reply(ticket, conn).map(update_frame),
            PendingReply::Routed(ticket) => wait_reply(ticket, conn),
        };
        if let Some(frame) = frame {
            send_frame(shared, conn, id, &frame);
        }
        conn.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Waits one ticket out, giving up (and *dropping* it — the worker's
/// eventual fill lands in an abandoned cell, leaking nothing) as soon
/// as the connection is known dead.
fn wait_reply<T>(ticket: Ticket<T>, conn: &ConnShared) -> Option<T> {
    let mut ticket = ticket;
    loop {
        if conn.dead.load(Ordering::Acquire) {
            return None;
        }
        match ticket.wait_timeout(Duration::from_millis(50)) {
            Ok(value) => return Some(value),
            Err(back) => ticket = back,
        }
    }
}

fn wire_result(resp: QueryResponse) -> WireResult {
    WireResult {
        generation: resp.generation,
        algorithm: resp.algorithm.index() as u8,
        served_by: match resp.served_by {
            ServedBy::Planner => wire::SERVED_BY_PLANNER,
            ServedBy::Cache => wire::SERVED_BY_CACHE,
            ServedBy::Diagram => wire::SERVED_BY_DIAGRAM,
        },
        skyline: resp.skyline,
    }
}

fn query_result_frame(resp: QueryResponse) -> Frame {
    Frame::QueryResult(wire_result(resp))
}

fn update_frame(update: SessionUpdate) -> Frame {
    Frame::SessionUpdated(WireUpdate {
        outcome: match update.outcome {
            UpdateOutcome::Unchanged => 0,
            UpdateOutcome::Incremental => 1,
            UpdateOutcome::Recomputed => 2,
        },
        generation: update.generation,
        skyline: update.skyline,
    })
}

fn stats(shared: &ServerShared) -> StatsResult {
    StatsResult {
        data_len: shared.backend.data_len() as u64,
        universe: shared.backend.universe(),
        groups: shared.counters(),
    }
}

/// Encodes and writes one frame under the connection's writer lock.
///
/// Any failure — encode over the cap with no room even for the
/// fallback, write error, write timeout — marks the connection dead
/// and returns `false`; the caller's teardown path takes it from
/// there. Never blocks past [`ServerConfig::write_timeout`].
fn send_frame(shared: &ServerShared, conn: &ConnShared, request_id: u64, frame: &Frame) -> bool {
    if conn.dead.load(Ordering::Acquire) {
        return false;
    }
    let mut guard = conn.writer.lock();
    let w = &mut *guard;
    w.scratch.clear();
    if wire::encode_frame(
        request_id,
        frame,
        shared.config.max_frame_len,
        &mut w.scratch,
    )
    .is_err()
    {
        // The response outgrew the frame cap (a skyline bigger than the
        // configured cap). Degrade to a typed error so the client's
        // request does not dangle.
        w.scratch.clear();
        let fallback = Frame::Error {
            code: ErrorCode::Internal,
            message: "response exceeded the frame length cap".into(),
        };
        if wire::encode_frame(
            request_id,
            &fallback,
            shared.config.max_frame_len,
            &mut w.scratch,
        )
        .is_err()
        {
            conn.dead.store(true, Ordering::Release);
            let _ = w.stream.shutdown(Shutdown::Both);
            return false;
        }
    }
    match w.stream.write_all(&w.scratch) {
        Ok(()) => {
            shared.metrics.record_bytes_out(w.scratch.len());
            true
        }
        Err(e) => {
            if matches!(e.kind(), ErrorKind::TimedOut | ErrorKind::WouldBlock) {
                shared.metrics.record_write_timeout();
            }
            conn.dead.store(true, Ordering::Release);
            let _ = w.stream.shutdown(Shutdown::Both);
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssq_shard::ShardConfig;

    #[test]
    fn dispatcher_threads_are_named_by_role() {
        let points: Vec<Point> = (0..200)
            .map(|i| Point::new((i % 20) as f64 + 1e-3 * i as f64, (i / 20) as f64))
            .collect();
        let sharded = ShardedEngine::new(&points, ShardConfig::default()).unwrap();
        let server =
            Server::serve_sharded("127.0.0.1:0", sharded, ServerConfig::default()).unwrap();
        let (ticket, filler) = Ticket::pair();
        let dispatch = server.shared.dispatch.as_ref().unwrap();
        dispatch
            .submit(Box::new(move |_: &mut WorkerState| {
                filler.fill(std::thread::current().name().map(String::from));
            }))
            .unwrap();
        let name = ticket.wait().unwrap();
        assert!(name.starts_with("ssq-dispatch-"), "{name}");
        server.shutdown();
    }
}
