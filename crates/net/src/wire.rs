//! The pure protocol codec: frame encode/decode on byte slices.
//!
//! Everything on an `ssq-net` socket is a **frame**:
//!
//! ```text
//! ┌───────────┬──────────┬─────────┬───────────────┬─────────────┐
//! │ len: u32  │ ver: u8  │ kind:u8 │ request_id:u64│ payload …   │
//! │ (LE)      │ (= 3)    │         │ (LE)          │ (per kind)  │
//! └───────────┴──────────┴─────────┴───────────────┴─────────────┘
//! ```
//!
//! `len` counts everything after itself (version through payload), so
//! the minimum is [`FRAME_OVERHEAD`] and a reader needs `4 + len`
//! buffered bytes for a complete frame. All integers and floats are
//! little-endian. `request_id` is client-assigned; the server echoes it
//! on the response, which is what makes pipelining work — many requests
//! in flight per connection, responses matched by id, in any arrival
//! order the server produces.
//!
//! This module is deliberately pure: [`decode`] and [`encode_frame`]
//! touch only `&[u8]`/`Vec<u8>`, return typed [`ProtocolError`]s, and
//! never panic on malformed input (the crate denies clippy's panic
//! lints outside tests). Socket plumbing lives in
//! [`server`](crate::server) and [`client`](crate::client);
//! [`FrameBuffer`] is the shared incremental-reassembly helper both
//! sides feed raw reads into.

use ssq_engine::{Algorithm, CounterSet};
use ssq_geom::{Point, Rect};

/// The one protocol version this build speaks. Version 2 replaced the
/// result's cache-hit flag with a [`WireResult::served_by`] byte;
/// version 3 replaced the `Stats` answer's hand-picked counter subset
/// with every group of the counter table ([`StatsResult`]) — a row added
/// to that table lengthens the answer, so it comes with a bump here;
/// version 4 dropped [`WireUpdate`]'s supersession notice (a session
/// follows the data, so `generation` says everything).
pub const WIRE_VERSION: u8 = 4;

/// Bytes of a frame counted by its `len` field but not part of the
/// payload: version (1) + kind (1) + request id (8).
pub const FRAME_OVERHEAD: usize = 10;

/// Bytes before the payload: the `len` prefix plus [`FRAME_OVERHEAD`].
pub const HEADER_LEN: usize = 4 + FRAME_OVERHEAD;

/// Default cap on `len` — frames above it are rejected as
/// [`ProtocolError::Oversized`] *before* any allocation, so a hostile
/// length prefix cannot balloon memory.
pub const DEFAULT_MAX_FRAME_LEN: usize = 1 << 20;

/// `algorithm` byte of a [`WireResult`] answered by the sharded router
/// (no single algorithm ran; the fan-out picked per shard).
pub const ALGORITHM_ROUTED: u8 = 0xFF;

/// [`WireResult::served_by`]: the planner ran an algorithm.
pub const SERVED_BY_PLANNER: u8 = 0;
/// [`WireResult::served_by`]: the context cache supplied the context.
pub const SERVED_BY_CACHE: u8 = 1;
/// [`WireResult::served_by`]: a materialized skyline-diagram cell
/// answered the query by point location — no algorithm ran.
pub const SERVED_BY_DIAGRAM: u8 = 2;

// Request kinds (client → server).
const K_PING: u8 = 0x01;
const K_QUERY: u8 = 0x02;
const K_BATCH: u8 = 0x03;
const K_SESSION_OPEN: u8 = 0x04;
const K_SESSION_NEXT: u8 = 0x05;
const K_SESSION_CLOSE: u8 = 0x06;
const K_STATS: u8 = 0x07;
/// Either direction: the client announces intent to close; the server
/// answers with its own Goodbye once every in-flight response is out.
const K_GOODBYE: u8 = 0x08;

// Response kinds (server → client).
const K_PONG: u8 = 0x81;
const K_QUERY_RESULT: u8 = 0x82;
const K_BATCH_RESULT: u8 = 0x83;
const K_SESSION_OPENED: u8 = 0x84;
const K_SESSION_UPDATED: u8 = 0x85;
const K_SESSION_CLOSED: u8 = 0x86;
const K_STATS_RESULT: u8 = 0x87;
const K_RETRY_LATER: u8 = 0x8E;
const K_ERROR: u8 = 0x8F;

/// Typed decode/encode failure. Every variant is a protocol-level
/// fact about the bytes — nothing here panics, allocates unboundedly,
/// or loses the reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The `len` prefix was below [`FRAME_OVERHEAD`] — no header fits.
    BadLength {
        /// The advertised length.
        len: usize,
    },
    /// The `len` prefix exceeded the configured cap.
    Oversized {
        /// The advertised (or produced) length.
        len: usize,
        /// The cap it exceeded.
        max: usize,
    },
    /// The version byte was not [`WIRE_VERSION`].
    UnsupportedVersion {
        /// The version the peer sent.
        version: u8,
    },
    /// The kind byte named no known frame.
    UnknownFrameKind {
        /// The unknown kind byte.
        kind: u8,
    },
    /// A payload field ran past the end of the frame.
    Truncated {
        /// Kind of the frame being parsed.
        kind: u8,
        /// Bytes the field needed.
        needed: usize,
        /// Bytes that were left.
        have: usize,
    },
    /// The payload parsed but bytes were left over — a framing bug or
    /// corruption, never tolerated silently.
    TrailingBytes {
        /// Kind of the frame being parsed.
        kind: u8,
        /// Leftover byte count.
        extra: usize,
    },
    /// A coordinate was NaN or infinite.
    NonFinite {
        /// Kind of the frame being parsed.
        kind: u8,
    },
    /// A query point set was empty — the engine cannot answer it.
    EmptyQuery,
    /// A forced-algorithm byte named no algorithm.
    BadAlgorithm {
        /// The bad byte.
        code: u8,
    },
    /// A session-update outcome byte was out of range.
    BadOutcome {
        /// The bad byte.
        code: u8,
    },
    /// A result's served-by byte was out of range.
    BadServedBy {
        /// The bad byte.
        code: u8,
    },
    /// An error message was not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::BadLength { len } => {
                write!(
                    f,
                    "frame length {len} is below the {FRAME_OVERHEAD}-byte minimum"
                )
            }
            ProtocolError::Oversized { len, max } => {
                write!(f, "frame length {len} exceeds the {max}-byte cap")
            }
            ProtocolError::UnsupportedVersion { version } => {
                write!(
                    f,
                    "unsupported wire version {version} (this build speaks {WIRE_VERSION})"
                )
            }
            ProtocolError::UnknownFrameKind { kind } => {
                write!(f, "unknown frame kind 0x{kind:02x}")
            }
            ProtocolError::Truncated { kind, needed, have } => write!(
                f,
                "frame 0x{kind:02x} truncated: a field needed {needed} bytes, {have} left"
            ),
            ProtocolError::TrailingBytes { kind, extra } => {
                write!(f, "frame 0x{kind:02x} has {extra} trailing bytes")
            }
            ProtocolError::NonFinite { kind } => {
                write!(f, "frame 0x{kind:02x} carries a non-finite coordinate")
            }
            ProtocolError::EmptyQuery => write!(f, "query point set is empty"),
            ProtocolError::BadAlgorithm { code } => {
                write!(f, "bad forced-algorithm byte 0x{code:02x}")
            }
            ProtocolError::BadOutcome { code } => {
                write!(f, "bad session-update outcome byte 0x{code:02x}")
            }
            ProtocolError::BadServedBy { code } => {
                write!(f, "bad served-by byte 0x{code:02x}")
            }
            ProtocolError::BadUtf8 => write!(f, "error message is not valid UTF-8"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Typed server-error codes carried by [`Frame::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request frame was malformed; the connection is being closed.
    Malformed,
    /// The operation is not supported by this server (e.g. sessions on
    /// a sharded backend).
    Unsupported,
    /// The session id is unknown on this connection.
    NoSuchSession,
    /// The server is shutting down.
    Shutdown,
    /// An internal failure; the message has the detail.
    Internal,
    /// A code this build does not know (forward compatibility).
    Other(u8),
}

impl ErrorCode {
    /// The wire byte.
    pub fn code(self) -> u8 {
        match self {
            ErrorCode::Malformed => 1,
            ErrorCode::Unsupported => 2,
            ErrorCode::NoSuchSession => 3,
            ErrorCode::Shutdown => 4,
            ErrorCode::Internal => 5,
            ErrorCode::Other(c) => c,
        }
    }

    /// The code for a wire byte (unknown bytes become
    /// [`ErrorCode::Other`], never a decode failure).
    pub fn from_code(code: u8) -> ErrorCode {
        match code {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::Unsupported,
            3 => ErrorCode::NoSuchSession,
            4 => ErrorCode::Shutdown,
            5 => ErrorCode::Internal,
            c => ErrorCode::Other(c),
        }
    }
}

/// One query inside a [`Frame::Batch`].
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// Per-query algorithm override.
    pub force: Option<Algorithm>,
    /// The query point set (non-empty).
    pub query: Vec<Point>,
}

/// One query answer on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireResult {
    /// Snapshot generation the answer is exact for.
    pub generation: u64,
    /// [`Algorithm::index`] of the algorithm that ran, or
    /// [`ALGORITHM_ROUTED`] for a sharded fan-out.
    pub algorithm: u8,
    /// What answered the query: [`SERVED_BY_PLANNER`],
    /// [`SERVED_BY_CACHE`], or [`SERVED_BY_DIAGRAM`].
    pub served_by: u8,
    /// Skyline point ids, ascending.
    pub skyline: Vec<u32>,
}

/// One applied session update on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireUpdate {
    /// How the move changed the query hull: 0 unchanged, 1 incremental
    /// (simple change), 2 recomputed (complex change).
    pub outcome: u8,
    /// The generation the update was answered at.
    pub generation: u64,
    /// The session's skyline after the update, ascending — ids of
    /// `generation`.
    pub skyline: Vec<u32>,
}

/// Server facts answered to a [`Frame::Stats`] request.
///
/// Payload layout: `data_len` (`u64`), `universe` (four `f64`: min x,
/// min y, max x, max y), then `groups` — every row of the counter table
/// in declaration order, one little-endian `u64` each
/// ([`CounterSet::encode`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatsResult {
    /// Points in the served dataset (summed across shards).
    pub data_len: u64,
    /// Bounding rect of the dataset — lets a remote load generator
    /// draw query points from the right region without the CSV.
    pub universe: Rect,
    /// Every counter the server keeps. Behind a sharded backend
    /// `router`, `lifecycle` and `ingest` are the router's and `engine`,
    /// `work` and `diagram` the shard engines' folded together; behind a
    /// single engine `router` reads zero.
    pub groups: CounterSet,
}

/// Every frame of the protocol, both directions.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Liveness probe.
    Ping,
    /// Answer to [`Frame::Ping`].
    Pong,
    /// One spatial skyline query.
    Query {
        /// Per-request algorithm override.
        force: Option<Algorithm>,
        /// The query point set (non-empty).
        query: Vec<Point>,
    },
    /// Many queries as one engine job (see `Engine::submit_batch`).
    Batch {
        /// The batched queries (may be empty).
        queries: Vec<QuerySpec>,
    },
    /// Open a continuous (VCS²) session.
    SessionOpen {
        /// The query point set (non-empty).
        query: Vec<Point>,
    },
    /// Move one query object of a session.
    SessionNext {
        /// Server-assigned session id from [`Frame::SessionOpened`].
        session: u64,
        /// Index of the moving query object.
        object: u32,
        /// New x coordinate.
        x: f64,
        /// New y coordinate.
        y: f64,
    },
    /// Close a session.
    SessionClose {
        /// Server-assigned session id.
        session: u64,
    },
    /// Request a [`Frame::StatsResult`].
    Stats,
    /// Connection close handshake: the client announces intent to
    /// close; the server answers with its own `Goodbye` once every
    /// in-flight response is out.
    Goodbye,
    /// Answer to [`Frame::Query`].
    QueryResult(WireResult),
    /// Answer to [`Frame::Batch`], one result per query in order.
    BatchResult(Vec<WireResult>),
    /// Answer to [`Frame::SessionOpen`].
    SessionOpened {
        /// Server-assigned session id (scoped to this connection).
        session: u64,
        /// Generation the session pinned.
        generation: u64,
        /// The initial skyline, ascending.
        skyline: Vec<u32>,
    },
    /// Answer to [`Frame::SessionNext`].
    SessionUpdated(WireUpdate),
    /// Answer to [`Frame::SessionClose`].
    SessionClosed {
        /// Whether the session existed.
        existed: bool,
    },
    /// Answer to [`Frame::Stats`]. Boxed: the counter table is several
    /// times the size of any other variant, and every frame on the
    /// query path moves by value.
    StatsResult(Box<StatsResult>),
    /// Admission control shed this request (window or queue full) or —
    /// with request id 0, before the connection closes — the whole
    /// connection (cap reached). Resubmit after the hint.
    RetryLater {
        /// Suggested wait before retrying, milliseconds.
        backoff_ms: u32,
    },
    /// A typed failure for one request (or, for fatal codes like
    /// [`ErrorCode::Malformed`], for the connection).
    Error {
        /// What went wrong.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Frame {
    fn kind(&self) -> u8 {
        match self {
            Frame::Ping => K_PING,
            Frame::Pong => K_PONG,
            Frame::Query { .. } => K_QUERY,
            Frame::Batch { .. } => K_BATCH,
            Frame::SessionOpen { .. } => K_SESSION_OPEN,
            Frame::SessionNext { .. } => K_SESSION_NEXT,
            Frame::SessionClose { .. } => K_SESSION_CLOSE,
            Frame::Stats => K_STATS,
            Frame::Goodbye => K_GOODBYE,
            Frame::QueryResult(_) => K_QUERY_RESULT,
            Frame::BatchResult(_) => K_BATCH_RESULT,
            Frame::SessionOpened { .. } => K_SESSION_OPENED,
            Frame::SessionUpdated(_) => K_SESSION_UPDATED,
            Frame::SessionClosed { .. } => K_SESSION_CLOSED,
            Frame::StatsResult(_) => K_STATS_RESULT,
            Frame::RetryLater { .. } => K_RETRY_LATER,
            Frame::Error { .. } => K_ERROR,
        }
    }
}

/// A decoded frame with its pipelining id.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Client-assigned request id, echoed on responses.
    pub request_id: u64,
    /// The frame.
    pub frame: Frame,
}

// ---------------------------------------------------------------- decode

/// Cursor over one frame's payload; every read is bounds-checked and a
/// short read comes back as [`ProtocolError::Truncated`].
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    kind: u8,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8], kind: u8) -> Reader<'a> {
        Reader { buf, pos: 0, kind }
    }

    fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        match self.buf.get(self.pos..self.pos.saturating_add(n)) {
            Some(bytes) => {
                self.pos += n;
                Ok(bytes)
            }
            None => Err(ProtocolError::Truncated {
                kind: self.kind,
                needed: n,
                have: self.remaining(),
            }),
        }
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtocolError> {
        let b = self.take(2)?;
        let mut a = [0u8; 2];
        a.copy_from_slice(b);
        Ok(u16::from_le_bytes(a))
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        let b = self.take(4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Ok(u32::from_le_bytes(a))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn f64(&mut self) -> Result<f64, ProtocolError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn finite_f64(&mut self) -> Result<f64, ProtocolError> {
        let v = self.f64()?;
        if v.is_finite() {
            Ok(v)
        } else {
            Err(ProtocolError::NonFinite { kind: self.kind })
        }
    }

    /// Reads a `count`-prefixed non-empty point list. The count is
    /// checked against the bytes actually present *before* the vector
    /// is sized, so a hostile count cannot force a huge allocation.
    fn points(&mut self) -> Result<Vec<Point>, ProtocolError> {
        let count = self.u32()? as usize;
        if count == 0 {
            return Err(ProtocolError::EmptyQuery);
        }
        let needed = count.saturating_mul(16);
        if needed > self.remaining() {
            return Err(ProtocolError::Truncated {
                kind: self.kind,
                needed,
                have: self.remaining(),
            });
        }
        let mut pts = Vec::with_capacity(count);
        for _ in 0..count {
            let x = self.finite_f64()?;
            let y = self.finite_f64()?;
            pts.push(Point::new(x, y));
        }
        Ok(pts)
    }

    /// Reads a `count`-prefixed skyline id list (may be empty).
    fn ids(&mut self) -> Result<Vec<u32>, ProtocolError> {
        let count = self.u32()? as usize;
        let needed = count.saturating_mul(4);
        if needed > self.remaining() {
            return Err(ProtocolError::Truncated {
                kind: self.kind,
                needed,
                have: self.remaining(),
            });
        }
        let mut ids = Vec::with_capacity(count);
        for _ in 0..count {
            ids.push(self.u32()?);
        }
        Ok(ids)
    }

    fn force(&mut self) -> Result<Option<Algorithm>, ProtocolError> {
        let code = self.u8()?;
        if code == 0 {
            return Ok(None);
        }
        match Algorithm::ALL.get(code as usize - 1) {
            Some(&a) => Ok(Some(a)),
            None => Err(ProtocolError::BadAlgorithm { code }),
        }
    }

    fn result(&mut self) -> Result<WireResult, ProtocolError> {
        let generation = self.u64()?;
        let algorithm = self.u8()?;
        let served_by = self.u8()?;
        if served_by > SERVED_BY_DIAGRAM {
            return Err(ProtocolError::BadServedBy { code: served_by });
        }
        let skyline = self.ids()?;
        Ok(WireResult {
            generation,
            algorithm,
            served_by,
            skyline,
        })
    }

    fn finish(self) -> Result<(), ProtocolError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(ProtocolError::TrailingBytes {
                kind: self.kind,
                extra: self.remaining(),
            })
        }
    }
}

/// Decodes the first complete frame at the start of `buf`.
///
/// * `Ok(None)` — `buf` holds a prefix of a frame; read more bytes.
/// * `Ok(Some((envelope, consumed)))` — one frame, and how many bytes
///   of `buf` it used.
/// * `Err(_)` — the bytes are not a valid frame. The error is sticky
///   for the stream: framing is lost, the connection must close.
pub fn decode(
    buf: &[u8],
    max_frame_len: usize,
) -> Result<Option<(Envelope, usize)>, ProtocolError> {
    let Some(prefix) = buf.get(..4) else {
        return Ok(None);
    };
    let mut a = [0u8; 4];
    a.copy_from_slice(prefix);
    let len = u32::from_le_bytes(a) as usize;
    if len < FRAME_OVERHEAD {
        return Err(ProtocolError::BadLength { len });
    }
    if len > max_frame_len {
        return Err(ProtocolError::Oversized {
            len,
            max: max_frame_len,
        });
    }
    let total = 4 + len;
    let Some(frame_bytes) = buf.get(4..total) else {
        return Ok(None);
    };
    // frame_bytes has at least FRAME_OVERHEAD bytes by the len check.
    let version = frame_bytes[0];
    if version != WIRE_VERSION {
        return Err(ProtocolError::UnsupportedVersion { version });
    }
    let kind = frame_bytes[1];
    let mut id = [0u8; 8];
    id.copy_from_slice(&frame_bytes[2..10]);
    let request_id = u64::from_le_bytes(id);
    let payload = &frame_bytes[10..];
    let mut r = Reader::new(payload, kind);
    let frame = match kind {
        K_PING => Frame::Ping,
        K_PONG => Frame::Pong,
        K_QUERY => {
            let force = r.force()?;
            let query = r.points()?;
            Frame::Query { force, query }
        }
        K_BATCH => {
            let count = r.u32()? as usize;
            // A non-empty query is ≥ 21 bytes (force + count + 1 point):
            // bound the vector by what could actually be present.
            let needed = count.saturating_mul(21);
            if needed > r.remaining() {
                return Err(ProtocolError::Truncated {
                    kind,
                    needed,
                    have: r.remaining(),
                });
            }
            let mut queries = Vec::with_capacity(count);
            for _ in 0..count {
                let force = r.force()?;
                let query = r.points()?;
                queries.push(QuerySpec { force, query });
            }
            Frame::Batch { queries }
        }
        K_SESSION_OPEN => Frame::SessionOpen { query: r.points()? },
        K_SESSION_NEXT => {
            let session = r.u64()?;
            let object = r.u32()?;
            let x = r.finite_f64()?;
            let y = r.finite_f64()?;
            Frame::SessionNext {
                session,
                object,
                x,
                y,
            }
        }
        K_SESSION_CLOSE => Frame::SessionClose { session: r.u64()? },
        K_STATS => Frame::Stats,
        K_GOODBYE => Frame::Goodbye,
        K_QUERY_RESULT => Frame::QueryResult(r.result()?),
        K_BATCH_RESULT => {
            let count = r.u32()? as usize;
            // A result is ≥ 14 bytes (generation + algorithm +
            // served-by + count).
            let needed = count.saturating_mul(14);
            if needed > r.remaining() {
                return Err(ProtocolError::Truncated {
                    kind,
                    needed,
                    have: r.remaining(),
                });
            }
            let mut results = Vec::with_capacity(count);
            for _ in 0..count {
                results.push(r.result()?);
            }
            Frame::BatchResult(results)
        }
        K_SESSION_OPENED => {
            let session = r.u64()?;
            let generation = r.u64()?;
            let skyline = r.ids()?;
            Frame::SessionOpened {
                session,
                generation,
                skyline,
            }
        }
        K_SESSION_UPDATED => {
            let outcome = r.u8()?;
            if outcome > 2 {
                return Err(ProtocolError::BadOutcome { code: outcome });
            }
            let generation = r.u64()?;
            let skyline = r.ids()?;
            Frame::SessionUpdated(WireUpdate {
                outcome,
                generation,
                skyline,
            })
        }
        K_SESSION_CLOSED => Frame::SessionClosed {
            existed: r.u8()? != 0,
        },
        K_STATS_RESULT => Frame::StatsResult(Box::new(StatsResult {
            data_len: r.u64()?,
            universe: Rect {
                min: Point::new(r.f64()?, r.f64()?),
                max: Point::new(r.f64()?, r.f64()?),
            },
            groups: CounterSet::decode(|| r.u64())?,
        })),
        K_RETRY_LATER => Frame::RetryLater {
            backoff_ms: r.u32()?,
        },
        K_ERROR => {
            let code = ErrorCode::from_code(r.u8()?);
            let len = r.u16()? as usize;
            let bytes = r.take(len)?;
            let message = std::str::from_utf8(bytes)
                .map_err(|_| ProtocolError::BadUtf8)?
                .to_owned();
            Frame::Error { code, message }
        }
        other => return Err(ProtocolError::UnknownFrameKind { kind: other }),
    };
    r.finish()?;
    Ok(Some((Envelope { request_id, frame }, total)))
}

// ---------------------------------------------------------------- encode

fn put_points(out: &mut Vec<u8>, pts: &[Point]) {
    out.extend_from_slice(&(pts.len() as u32).to_le_bytes());
    for p in pts {
        out.extend_from_slice(&p.x.to_le_bytes());
        out.extend_from_slice(&p.y.to_le_bytes());
    }
}

fn put_ids(out: &mut Vec<u8>, ids: &[u32]) {
    out.extend_from_slice(&(ids.len() as u32).to_le_bytes());
    for id in ids {
        out.extend_from_slice(&id.to_le_bytes());
    }
}

fn put_force(out: &mut Vec<u8>, force: Option<Algorithm>) {
    out.push(match force {
        None => 0,
        Some(a) => a.index() as u8 + 1,
    });
}

fn put_result(out: &mut Vec<u8>, r: &WireResult) {
    out.extend_from_slice(&r.generation.to_le_bytes());
    out.push(r.algorithm);
    out.push(r.served_by);
    put_ids(out, &r.skyline);
}

/// Appends one encoded frame to `out`.
///
/// Fails with [`ProtocolError::Oversized`] — leaving `out` exactly as
/// it was — if the encoding would exceed `max_frame_len`, so a server
/// can never be tricked into producing a frame its own decoder (or the
/// peer's) would reject.
pub fn encode_frame(
    request_id: u64,
    frame: &Frame,
    max_frame_len: usize,
    out: &mut Vec<u8>,
) -> Result<(), ProtocolError> {
    let start = out.len();
    out.extend_from_slice(&[0u8; 4]);
    out.push(WIRE_VERSION);
    out.push(frame.kind());
    out.extend_from_slice(&request_id.to_le_bytes());
    match frame {
        Frame::Ping | Frame::Pong | Frame::Stats | Frame::Goodbye => {}
        Frame::Query { force, query } => {
            put_force(out, *force);
            put_points(out, query);
        }
        Frame::Batch { queries } => {
            out.extend_from_slice(&(queries.len() as u32).to_le_bytes());
            for q in queries {
                put_force(out, q.force);
                put_points(out, &q.query);
            }
        }
        Frame::SessionOpen { query } => put_points(out, query),
        Frame::SessionNext {
            session,
            object,
            x,
            y,
        } => {
            out.extend_from_slice(&session.to_le_bytes());
            out.extend_from_slice(&object.to_le_bytes());
            out.extend_from_slice(&x.to_le_bytes());
            out.extend_from_slice(&y.to_le_bytes());
        }
        Frame::SessionClose { session } => out.extend_from_slice(&session.to_le_bytes()),
        Frame::QueryResult(r) => put_result(out, r),
        Frame::BatchResult(results) => {
            out.extend_from_slice(&(results.len() as u32).to_le_bytes());
            for r in results {
                put_result(out, r);
            }
        }
        Frame::SessionOpened {
            session,
            generation,
            skyline,
        } => {
            out.extend_from_slice(&session.to_le_bytes());
            out.extend_from_slice(&generation.to_le_bytes());
            put_ids(out, skyline);
        }
        Frame::SessionUpdated(u) => {
            out.push(u.outcome);
            out.extend_from_slice(&u.generation.to_le_bytes());
            put_ids(out, &u.skyline);
        }
        Frame::SessionClosed { existed } => out.push(u8::from(*existed)),
        Frame::StatsResult(s) => {
            out.extend_from_slice(&s.data_len.to_le_bytes());
            for v in [
                s.universe.min.x,
                s.universe.min.y,
                s.universe.max.x,
                s.universe.max.y,
            ] {
                out.extend_from_slice(&v.to_le_bytes());
            }
            s.groups.encode(out);
        }
        Frame::RetryLater { backoff_ms } => out.extend_from_slice(&backoff_ms.to_le_bytes()),
        Frame::Error { code, message } => {
            out.push(code.code());
            // Clamp instead of failing: an error message is diagnostic,
            // a truncated one is still a valid frame.
            let msg = truncate_utf8(message, u16::MAX as usize);
            out.extend_from_slice(&(msg.len() as u16).to_le_bytes());
            out.extend_from_slice(msg.as_bytes());
        }
    }
    let len = out.len() - start - 4;
    if len > max_frame_len || len > u32::MAX as usize {
        out.truncate(start);
        return Err(ProtocolError::Oversized {
            len,
            max: max_frame_len.min(u32::MAX as usize),
        });
    }
    let bytes = (len as u32).to_le_bytes();
    if let Some(slot) = out.get_mut(start..start + 4) {
        slot.copy_from_slice(&bytes);
    }
    Ok(())
}

/// The longest prefix of `s` that is at most `max` bytes and ends on a
/// character boundary.
fn truncate_utf8(s: &str, max: usize) -> &str {
    if s.len() <= max {
        return s;
    }
    let mut end = max;
    while end > 0 && !s.is_char_boundary(end) {
        end -= 1;
    }
    s.get(..end).unwrap_or("")
}

// ---------------------------------------------------------- frame buffer

/// Incremental frame reassembly over a byte stream.
///
/// Feed raw socket reads in with [`FrameBuffer::extend`]; pull complete
/// frames out with [`FrameBuffer::next`]. Consumed bytes are compacted
/// away lazily, so steady-state pipelined traffic runs without
/// per-frame reallocation.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    start: usize,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> FrameBuffer {
        FrameBuffer::default()
    }

    /// Appends raw bytes read from the stream.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact before growing: once more than half the buffer is
        // dead prefix, slide the live bytes down.
        if self.start > 0 && self.start * 2 >= self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Decodes the next complete frame, or `Ok(None)` if more bytes are
    /// needed. A decode error poisons the stream — the caller must stop
    /// reading and close.
    pub fn next(&mut self, max_frame_len: usize) -> Result<Option<Envelope>, ProtocolError> {
        let tail = self.buf.get(self.start..).unwrap_or(&[]);
        match decode(tail, max_frame_len)? {
            Some((envelope, consumed)) => {
                self.start += consumed;
                Ok(Some(envelope))
            }
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `StatsResult` with every counter of every group distinct and
    /// nonzero.
    fn populated_stats() -> StatsResult {
        let mut n = 1000u64;
        StatsResult {
            data_len: 1000,
            universe: Rect {
                min: Point::new(0.0, 0.0),
                max: Point::new(10.0, 10.0),
            },
            groups: CounterSet::decode(|| {
                n += 1;
                Ok::<u64, ProtocolError>(n)
            })
            .unwrap(),
        }
    }

    fn roundtrip(frame: Frame) -> Frame {
        let mut buf = Vec::new();
        encode_frame(42, &frame, DEFAULT_MAX_FRAME_LEN, &mut buf).unwrap();
        let (env, consumed) = decode(&buf, DEFAULT_MAX_FRAME_LEN).unwrap().unwrap();
        assert_eq!(consumed, buf.len());
        assert_eq!(env.request_id, 42);
        env.frame
    }

    #[test]
    fn every_frame_kind_roundtrips() {
        let frames = vec![
            Frame::Ping,
            Frame::Pong,
            Frame::Query {
                force: Some(Algorithm::Vs2),
                query: vec![Point::new(1.5, -2.25), Point::new(0.0, 7.0)],
            },
            Frame::Batch {
                queries: vec![
                    QuerySpec {
                        force: None,
                        query: vec![Point::new(3.0, 4.0)],
                    },
                    QuerySpec {
                        force: Some(Algorithm::Naive),
                        query: vec![Point::new(5.0, 6.0), Point::new(7.0, 8.0)],
                    },
                ],
            },
            Frame::Batch { queries: vec![] },
            Frame::SessionOpen {
                query: vec![Point::new(9.0, 10.0)],
            },
            Frame::SessionNext {
                session: 7,
                object: 2,
                x: 1.25,
                y: -3.5,
            },
            Frame::SessionClose { session: 7 },
            Frame::Stats,
            Frame::Goodbye,
            Frame::QueryResult(WireResult {
                generation: 3,
                algorithm: Algorithm::B2s2.index() as u8,
                served_by: SERVED_BY_CACHE,
                skyline: vec![1, 5, 9],
            }),
            Frame::BatchResult(vec![
                WireResult {
                    generation: 0,
                    algorithm: ALGORITHM_ROUTED,
                    served_by: SERVED_BY_PLANNER,
                    skyline: vec![],
                },
                WireResult {
                    generation: 1,
                    algorithm: 0,
                    served_by: SERVED_BY_DIAGRAM,
                    skyline: vec![2],
                },
            ]),
            Frame::SessionOpened {
                session: 11,
                generation: 4,
                skyline: vec![0, 3],
            },
            Frame::SessionUpdated(WireUpdate {
                outcome: 2,
                generation: 6,
                skyline: vec![8],
            }),
            Frame::SessionUpdated(WireUpdate {
                outcome: 0,
                generation: 1,
                skyline: vec![],
            }),
            Frame::SessionClosed { existed: true },
            Frame::StatsResult(Box::new(populated_stats())),
            Frame::RetryLater { backoff_ms: 25 },
            Frame::Error {
                code: ErrorCode::NoSuchSession,
                message: "session 9 unknown".to_owned(),
            },
        ];
        for frame in frames {
            assert_eq!(roundtrip(frame.clone()), frame, "{frame:?}");
        }
    }

    #[test]
    fn truncated_stats_result_is_a_typed_error() {
        let mut buf = Vec::new();
        let frame = Frame::StatsResult(Box::new(populated_stats()));
        encode_frame(1, &frame, DEFAULT_MAX_FRAME_LEN, &mut buf).unwrap();
        assert_eq!(buf.len(), HEADER_LEN + 8 + 32 + 8 * CounterSet::ROWS.len());
        assert_eq!(
            (WIRE_VERSION, CounterSet::ROWS.len()),
            (4, 44),
            "the counter table changed the StatsResult layout: bump WIRE_VERSION with it"
        );
        // Cut the payload anywhere and fix the length prefix up: the
        // frame is complete, its payload is short.
        for keep in HEADER_LEN..buf.len() {
            let mut cut = buf[..keep].to_vec();
            let len = (keep - 4) as u32;
            cut[..4].copy_from_slice(&len.to_le_bytes());
            assert!(
                matches!(
                    decode(&cut, DEFAULT_MAX_FRAME_LEN),
                    Err(ProtocolError::Truncated {
                        kind: K_STATS_RESULT,
                        ..
                    })
                ),
                "payload cut to {} bytes",
                keep - HEADER_LEN
            );
        }
    }

    #[test]
    fn incomplete_prefixes_ask_for_more() {
        let mut buf = Vec::new();
        encode_frame(
            1,
            &Frame::Query {
                force: None,
                query: vec![Point::new(1.0, 2.0)],
            },
            DEFAULT_MAX_FRAME_LEN,
            &mut buf,
        )
        .unwrap();
        for cut in 0..buf.len() {
            assert_eq!(
                decode(&buf[..cut], DEFAULT_MAX_FRAME_LEN),
                Ok(None),
                "prefix of {cut} bytes must be incomplete, not an error"
            );
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_buffering() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.push(WIRE_VERSION);
        assert_eq!(
            decode(&buf, DEFAULT_MAX_FRAME_LEN),
            Err(ProtocolError::Oversized {
                len: u32::MAX as usize,
                max: DEFAULT_MAX_FRAME_LEN
            })
        );
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut buf = Vec::new();
        encode_frame(1, &Frame::Ping, DEFAULT_MAX_FRAME_LEN, &mut buf).unwrap();
        buf[4] = 9;
        assert_eq!(
            decode(&buf, DEFAULT_MAX_FRAME_LEN),
            Err(ProtocolError::UnsupportedVersion { version: 9 })
        );
    }

    #[test]
    fn empty_query_is_a_typed_error() {
        let mut buf = Vec::new();
        // Hand-build a Query frame with zero points.
        buf.extend_from_slice(&((FRAME_OVERHEAD + 5) as u32).to_le_bytes());
        buf.push(WIRE_VERSION);
        buf.push(K_QUERY);
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.push(0); // no force
        buf.extend_from_slice(&0u32.to_le_bytes()); // zero points
        assert_eq!(
            decode(&buf, DEFAULT_MAX_FRAME_LEN),
            Err(ProtocolError::EmptyQuery)
        );
    }

    #[test]
    fn non_finite_coordinates_are_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&((FRAME_OVERHEAD + 5 + 16) as u32).to_le_bytes());
        buf.push(WIRE_VERSION);
        buf.push(K_QUERY);
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.push(0);
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&f64::NAN.to_le_bytes());
        buf.extend_from_slice(&1.0f64.to_le_bytes());
        assert_eq!(
            decode(&buf, DEFAULT_MAX_FRAME_LEN),
            Err(ProtocolError::NonFinite { kind: K_QUERY })
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut buf = Vec::new();
        encode_frame(1, &Frame::Ping, DEFAULT_MAX_FRAME_LEN, &mut buf).unwrap();
        // Grow the frame by one byte and fix the length prefix.
        buf.push(0xAB);
        let len = (buf.len() - 4) as u32;
        buf[..4].copy_from_slice(&len.to_le_bytes());
        assert_eq!(
            decode(&buf, DEFAULT_MAX_FRAME_LEN),
            Err(ProtocolError::TrailingBytes {
                kind: K_PING,
                extra: 1
            })
        );
    }

    #[test]
    fn encode_refuses_frames_over_the_cap() {
        let query: Vec<Point> = (0..100).map(|i| Point::new(i as f64, 0.0)).collect();
        let mut out = vec![0xEE; 3];
        let err = encode_frame(1, &Frame::Query { force: None, query }, 64, &mut out).unwrap_err();
        assert!(matches!(err, ProtocolError::Oversized { .. }));
        assert_eq!(
            out,
            vec![0xEE; 3],
            "failed encode must not leave bytes behind"
        );
    }

    #[test]
    fn frame_buffer_reassembles_byte_by_byte() {
        let mut wire = Vec::new();
        let frames = [
            Frame::Ping,
            Frame::Query {
                force: Some(Algorithm::Bbs),
                query: vec![Point::new(1.0, 2.0)],
            },
            Frame::Goodbye,
        ];
        for (i, f) in frames.iter().enumerate() {
            encode_frame(i as u64, f, DEFAULT_MAX_FRAME_LEN, &mut wire).unwrap();
        }
        let mut fb = FrameBuffer::new();
        let mut seen = Vec::new();
        for &b in &wire {
            fb.extend(&[b]);
            while let Some(env) = fb.next(DEFAULT_MAX_FRAME_LEN).unwrap() {
                seen.push(env);
            }
        }
        assert_eq!(seen.len(), 3);
        for (i, (env, frame)) in seen.iter().zip(&frames).enumerate() {
            assert_eq!(env.request_id, i as u64);
            assert_eq!(&env.frame, frame);
        }
        assert_eq!(fb.pending(), 0);
    }

    #[test]
    fn error_messages_are_clamped_to_u16() {
        let huge = "x".repeat(100_000);
        let mut buf = Vec::new();
        encode_frame(
            1,
            &Frame::Error {
                code: ErrorCode::Internal,
                message: huge,
            },
            DEFAULT_MAX_FRAME_LEN,
            &mut buf,
        )
        .unwrap();
        let (env, _) = decode(&buf, DEFAULT_MAX_FRAME_LEN).unwrap().unwrap();
        match env.frame {
            Frame::Error { message, .. } => assert_eq!(message.len(), u16::MAX as usize),
            other => panic!("expected Error, got {other:?}"),
        }
    }

    #[test]
    fn bad_served_by_byte_is_rejected() {
        let mut buf = Vec::new();
        encode_frame(
            1,
            &Frame::QueryResult(WireResult {
                generation: 0,
                algorithm: 0,
                served_by: SERVED_BY_PLANNER,
                skyline: vec![],
            }),
            DEFAULT_MAX_FRAME_LEN,
            &mut buf,
        )
        .unwrap();
        // The served-by byte sits right after the 8-byte generation and
        // 1-byte algorithm in the payload.
        buf[HEADER_LEN + 9] = 9;
        assert_eq!(
            decode(&buf, DEFAULT_MAX_FRAME_LEN),
            Err(ProtocolError::BadServedBy { code: 9 })
        );
    }

    #[test]
    fn error_code_bytes_roundtrip() {
        for code in [
            ErrorCode::Malformed,
            ErrorCode::Unsupported,
            ErrorCode::NoSuchSession,
            ErrorCode::Shutdown,
            ErrorCode::Internal,
            ErrorCode::Other(200),
        ] {
            assert_eq!(ErrorCode::from_code(code.code()), code);
        }
    }
}
