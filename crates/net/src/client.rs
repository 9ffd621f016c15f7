//! The blocking client: pipelined submission, synchronous
//! conveniences, session iteration, reconnect.
//!
//! One [`Client`] owns one TCP connection. The synchronous helpers
//! ([`Client::query`], [`Client::batch`], …) send a frame and block for
//! its reply, transparently honouring [`Frame::RetryLater`] backoff
//! (bounded retries) and reconnecting once after an I/O failure.
//! The pipelined pair [`Client::submit`]/[`Client::recv`] keeps many
//! requests in flight — the server answers in completion order, and the
//! client matches replies to requests by id, parking out-of-order
//! frames so [`Client::await_id`] can interleave freely.
//!
//! Request frames are encoded onto an out-buffer and written in one
//! syscall: by [`Client::send`] once the buffer holds at least as many
//! frames as are already on the wire unanswered, and before any read
//! that may block. A pipelined caller thus keeps two half-windows in
//! flight, one being answered while the other is written, and a
//! synchronous helper still writes its one frame before it waits.

use crate::wire::{self, Frame, FrameBuffer, QuerySpec, StatsResult, WireResult, WireUpdate};
use crate::NetError;
use ssq_engine::Algorithm;
use ssq_geom::Point;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// How many [`Frame::RetryLater`] answers a synchronous helper absorbs
/// (sleeping the hinted backoff each time) before giving up with
/// [`NetError::Overloaded`].
const DEFAULT_MAX_RETRIES: u32 = 8;

/// A blocking client for one [`Server`](crate::Server) connection.
#[derive(Debug)]
pub struct Client {
    addr: String,
    stream: TcpStream,
    fb: FrameBuffer,
    /// Replies that arrived while waiting for a different id.
    parked: VecDeque<(u64, Frame)>,
    next_id: u64,
    max_frame_len: usize,
    /// Encoded request frames not yet written.
    out: Vec<u8>,
    /// Frames in `out`.
    buffered: usize,
    /// Frames written whose reply has not been read yet.
    unanswered: usize,
    max_retries: u32,
}

impl Client {
    /// Connects to `addr` (e.g. `"127.0.0.1:4700"`).
    pub fn connect(addr: &str) -> Result<Client, NetError> {
        let stream = Self::dial(addr)?;
        Ok(Client {
            addr: addr.to_string(),
            stream,
            fb: FrameBuffer::new(),
            parked: VecDeque::new(),
            next_id: 0,
            max_frame_len: wire::DEFAULT_MAX_FRAME_LEN,
            out: Vec::new(),
            buffered: 0,
            unanswered: 0,
            max_retries: DEFAULT_MAX_RETRIES,
        })
    }

    fn dial(addr: &str) -> Result<TcpStream, NetError> {
        let mut last: Option<std::io::Error> = None;
        for resolved in addr.to_socket_addrs()? {
            match TcpStream::connect(resolved) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    return Ok(stream);
                }
                Err(e) => last = Some(e),
            }
        }
        Err(match last {
            Some(e) => NetError::Io(e),
            None => NetError::Config(format!("{addr} resolved to no addresses")),
        })
    }

    /// Caps how many `RetryLater` rounds the synchronous helpers absorb
    /// before returning [`NetError::Overloaded`].
    pub fn set_max_retries(&mut self, n: u32) {
        self.max_retries = n;
    }

    /// Drops this connection and dials the server again. Pipelined
    /// requests still in flight on the old connection — written or still
    /// buffered — are lost: their ids will never be answered; callers
    /// using [`Client::submit`] must resubmit after a reconnect.
    pub fn reconnect(&mut self) -> Result<(), NetError> {
        self.stream = Self::dial(&self.addr)?;
        self.fb = FrameBuffer::new();
        self.parked.clear();
        self.out.clear();
        self.buffered = 0;
        self.unanswered = 0;
        Ok(())
    }

    // ------------------------------------------------------ pipelining

    /// Sends a query frame without waiting; returns the request id to
    /// pass to [`Client::await_id`]. The frame may stay buffered until a
    /// later send or the next read (see [`Client::send`]).
    pub fn submit(&mut self, query: &[Point], force: Option<Algorithm>) -> Result<u64, NetError> {
        self.send(&Frame::Query {
            force,
            query: query.to_vec(),
        })
    }

    /// Sends a batch frame without waiting; returns the request id.
    pub fn submit_batch(&mut self, queries: &[Vec<Point>]) -> Result<u64, NetError> {
        self.send(&Frame::Batch {
            queries: queries
                .iter()
                .map(|q| QuerySpec {
                    force: None,
                    query: q.clone(),
                })
                .collect(),
        })
    }

    /// Sends any request frame without waiting; returns the assigned
    /// request id.
    ///
    /// The frame is appended to the client's out-buffer, which is written
    /// in one syscall once it holds at least as many frames as are on the
    /// wire unanswered — so the first frame after a quiet spell leaves at
    /// once — and in any case before this client next blocks on a read
    /// (`recv`, `await_id` or a synchronous helper). A write error
    /// surfaces from whichever call writes.
    pub fn send(&mut self, frame: &Frame) -> Result<u64, NetError> {
        self.next_id += 1;
        let id = self.next_id;
        wire::encode_frame(id, frame, self.max_frame_len, &mut self.out)?;
        self.buffered += 1;
        if self.buffered >= self.unanswered {
            self.flush()?;
        }
        Ok(id)
    }

    /// Writes every buffered frame in one `write_all`. The frames count
    /// as on the wire even if the write fails: the connection is broken
    /// then, and only a reconnect (which forgets them) helps.
    fn flush(&mut self) -> Result<(), NetError> {
        if self.out.is_empty() {
            return Ok(());
        }
        let written = self.stream.write_all(&self.out);
        self.out.clear();
        self.unanswered += std::mem::take(&mut self.buffered);
        Ok(written?)
    }

    /// The next reply off the wire in arrival order (parked replies
    /// first). Blocks until a frame arrives.
    pub fn recv(&mut self) -> Result<(u64, Frame), NetError> {
        if let Some(item) = self.parked.pop_front() {
            return Ok(item);
        }
        self.read_frame()
    }

    /// Blocks until the reply for `id` arrives, parking replies to
    /// other in-flight ids for later [`Client::recv`]/`await_id` calls.
    pub fn await_id(&mut self, id: u64) -> Result<Frame, NetError> {
        if let Some(pos) = self.parked.iter().position(|(pid, _)| *pid == id) {
            // VecDeque::remove is fine here: the park queue is bounded
            // by the client's own pipelining depth.
            if let Some((_, frame)) = self.parked.remove(pos) {
                return Ok(frame);
            }
        }
        loop {
            let (got, frame) = self.read_frame()?;
            if got == id {
                return Ok(frame);
            }
            self.parked.push_back((got, frame));
        }
    }

    fn read_frame(&mut self) -> Result<(u64, Frame), NetError> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(envelope) = self.fb.next(self.max_frame_len)? {
                self.unanswered = self.unanswered.saturating_sub(1);
                return Ok((envelope.request_id, envelope.frame));
            }
            // The read may block: nothing the server is waiting for may
            // still sit in the out-buffer.
            self.flush()?;
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(NetError::Disconnected),
                Ok(n) => self.fb.extend(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(NetError::Io(e)),
            }
        }
    }

    // ------------------------------------------------- sync conveniences

    /// One round trip: send `frame`, wait for its reply, absorbing
    /// `RetryLater` backoff up to the retry cap and reconnecting once on
    /// an I/O failure (safe here because the failed request had no
    /// sibling in flight — the helpers are strictly one-at-a-time).
    fn round_trip(&mut self, frame: &Frame) -> Result<Frame, NetError> {
        let mut retries = 0u32;
        let mut reconnected = false;
        loop {
            let sent = self.send(frame).and_then(|id| self.await_id(id));
            match sent {
                Ok(Frame::RetryLater { backoff_ms }) => {
                    if retries >= self.max_retries {
                        return Err(NetError::Overloaded);
                    }
                    retries += 1;
                    std::thread::sleep(Duration::from_millis(u64::from(backoff_ms.max(1))));
                }
                Ok(Frame::Error { code, message }) => {
                    return Err(NetError::Server { code, message })
                }
                Ok(reply) => return Ok(reply),
                Err(NetError::Io(_)) | Err(NetError::Disconnected) if !reconnected => {
                    reconnected = true;
                    self.reconnect()?;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Runs one skyline query and returns the typed result.
    pub fn query(&mut self, query: &[Point]) -> Result<WireResult, NetError> {
        self.query_with(query, None)
    }

    /// Runs one skyline query with an optional forced algorithm.
    pub fn query_with(
        &mut self,
        query: &[Point],
        force: Option<Algorithm>,
    ) -> Result<WireResult, NetError> {
        let reply = self.round_trip(&Frame::Query {
            force,
            query: query.to_vec(),
        })?;
        match reply {
            Frame::QueryResult(result) => Ok(result),
            _ => Err(NetError::Unexpected {
                context: "query expected a QueryResult frame",
            }),
        }
    }

    /// Runs a batch of queries in one frame.
    pub fn batch(&mut self, queries: &[Vec<Point>]) -> Result<Vec<WireResult>, NetError> {
        let reply = self.round_trip(&Frame::Batch {
            queries: queries
                .iter()
                .map(|q| QuerySpec {
                    force: None,
                    query: q.clone(),
                })
                .collect(),
        })?;
        match reply {
            Frame::BatchResult(results) => Ok(results),
            _ => Err(NetError::Unexpected {
                context: "batch expected a BatchResult frame",
            }),
        }
    }

    /// Liveness check.
    pub fn ping(&mut self) -> Result<(), NetError> {
        match self.round_trip(&Frame::Ping)? {
            Frame::Pong => Ok(()),
            _ => Err(NetError::Unexpected {
                context: "ping expected a Pong frame",
            }),
        }
    }

    /// Server + engine counters in one round trip.
    pub fn stats(&mut self) -> Result<StatsResult, NetError> {
        match self.round_trip(&Frame::Stats)? {
            Frame::StatsResult(stats) => Ok(*stats),
            _ => Err(NetError::Unexpected {
                context: "stats expected a StatsResult frame",
            }),
        }
    }

    /// Opens a continuous (VCS²) session; returns the server's session
    /// id, the pinned generation, and the initial skyline.
    pub fn open_session(&mut self, query: &[Point]) -> Result<(u64, u64, Vec<u32>), NetError> {
        let reply = self.round_trip(&Frame::SessionOpen {
            query: query.to_vec(),
        })?;
        match reply {
            Frame::SessionOpened {
                session,
                generation,
                skyline,
            } => Ok((session, generation, skyline)),
            _ => Err(NetError::Unexpected {
                context: "session open expected a SessionOpened frame",
            }),
        }
    }

    /// Moves query object `object` of `session` to `(x, y)` and waits
    /// for the updated skyline.
    pub fn session_next(
        &mut self,
        session: u64,
        object: u32,
        x: f64,
        y: f64,
    ) -> Result<WireUpdate, NetError> {
        let reply = self.round_trip(&Frame::SessionNext {
            session,
            object,
            x,
            y,
        })?;
        match reply {
            Frame::SessionUpdated(update) => Ok(update),
            _ => Err(NetError::Unexpected {
                context: "session next expected a SessionUpdated frame",
            }),
        }
    }

    /// Closes `session`; returns whether the server still had it.
    pub fn close_session(&mut self, session: u64) -> Result<bool, NetError> {
        let reply = self.round_trip(&Frame::SessionClose { session })?;
        match reply {
            Frame::SessionClosed { existed } => Ok(existed),
            _ => Err(NetError::Unexpected {
                context: "session close expected a SessionClosed frame",
            }),
        }
    }

    /// Polite hangup: sends [`Frame::Goodbye`], waits for the server's
    /// answering Goodbye (which follows every in-flight reply), and
    /// drops the connection. Errors after the send are ignored — the
    /// goal is closing, and the server closes either way.
    pub fn goodbye(mut self) -> Result<(), NetError> {
        self.send(&Frame::Goodbye)?;
        loop {
            match self.read_frame() {
                Ok((_, Frame::Goodbye)) | Err(_) => return Ok(()),
                Ok(_other) => {} // late pipelined replies draining out
            }
        }
    }
}
