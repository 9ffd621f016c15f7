//! `ssq-net`: a TCP front-end for the spatial-skyline engine —
//! pipelined binary protocol, per-client backpressure, overload
//! shedding.
//!
//! The serving stack so far (PRs 1–5) ends at a Rust API:
//! [`Engine::submit`](ssq_engine::Engine::submit) and friends. This
//! crate puts a socket in front of it, std-only:
//!
//! * [`wire`] — the pure codec: length-prefixed, versioned frames;
//!   every decode failure is a typed [`ProtocolError`], never a panic
//!   (the crate denies clippy's panic lints in all its library code).
//! * [`Server`] — thread-per-connection accept loop serving an
//!   [`Engine`](ssq_engine::Engine) or a
//!   [`ShardedEngine`](ssq_shard::ShardedEngine); pipelined request
//!   handling with per-client in-flight windows and typed
//!   [`Frame::RetryLater`] shedding when the engine queue is full.
//! * [`Client`] — the blocking counterpart: pipelined submission,
//!   synchronous helpers with backoff/reconnect, session iteration.
//!
//! See `DESIGN.md` §13 for the frame format and the admission-control
//! state machine.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::all)]
// Library code returns typed errors, never panics (tests excepted); an
// audited exception carries `#[expect(clippy::.., reason = "..")]`.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

pub mod client;
pub mod metrics;
pub mod server;
pub mod wire;

pub use client::Client;
pub use metrics::NetMetrics;
pub use server::{Server, ServerConfig};
pub use wire::{
    Envelope, ErrorCode, Frame, FrameBuffer, ProtocolError, QuerySpec, StatsResult, WireResult,
    WireUpdate,
};

/// Anything that can go wrong across the socket, typed.
#[derive(Debug)]
pub enum NetError {
    /// The operating system failed the socket operation.
    Io(std::io::Error),
    /// The peer sent bytes the codec rejects.
    Protocol(wire::ProtocolError),
    /// A configuration knob failed validation.
    Config(String),
    /// The server answered with a typed [`Frame::Error`].
    Server {
        /// The machine-readable reason.
        code: wire::ErrorCode,
        /// The human-readable detail.
        message: String,
    },
    /// The server kept shedding ([`Frame::RetryLater`]) past the
    /// client's retry cap.
    Overloaded,
    /// The connection closed mid-conversation.
    Disconnected,
    /// The server answered with a frame kind the request cannot
    /// produce — a protocol-logic bug, not a codec failure.
    Unexpected {
        /// Which exchange saw the wrong frame.
        context: &'static str,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "socket error: {e}"),
            NetError::Protocol(e) => write!(f, "protocol error: {e}"),
            NetError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            NetError::Server { code, message } => {
                write!(f, "server error ({code:?}): {message}")
            }
            NetError::Overloaded => write!(f, "server overloaded: retry budget exhausted"),
            NetError::Disconnected => write!(f, "connection closed by peer"),
            NetError::Unexpected { context } => write!(f, "unexpected reply frame: {context}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::Protocol(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> NetError {
        NetError::Io(e)
    }
}

impl From<wire::ProtocolError> for NetError {
    fn from(e: wire::ProtocolError) -> NetError {
        NetError::Protocol(e)
    }
}
