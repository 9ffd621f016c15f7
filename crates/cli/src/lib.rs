//! # ssq-cli
//!
//! The library backing the `ssq` command-line tool: CSV parsing, argument
//! handling and the command implementations, kept in a library so they are
//! unit-testable. See `src/main.rs` for the thin binary wrapper and
//! `ssq --help` for usage.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::all)]

pub mod commands;
pub mod csv;
pub mod svg;

pub use commands::{run, CliError};
