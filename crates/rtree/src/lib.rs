//! # ssq-rtree
//!
//! An R*-tree built from scratch for the spatial skyline library.
//!
//! The paper's experiments index the USGS dataset "by an R*-tree index with
//! the page size of 1K bytes and a maximum of 50 entries in each node"
//! (§7), and both the BBS competitor and B²S² traverse that index
//! best-first while counting "the number of accessed nodes" as the I/O
//! metric. This crate provides:
//!
//! * [`RTree`] — insertion with the R* choose-subtree and split heuristics,
//!   plus Sort-Tile-Recursive (STR) bulk loading for the large experiment
//!   datasets;
//! * classic queries ([`RTree::query_rect`], [`RTree::nearest`]) used by
//!   tests and examples;
//! * a low-level read API ([`RTree::root`], [`RTree::entries`]) that lets
//!   the skyline algorithms drive their own best-first traversals with
//!   arbitrary pruning, while the tree transparently counts node accesses
//!   ([`RTree::node_accesses`]) exactly the way the paper reports I/O.

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

mod tree;

pub use tree::{Entry, NodeId, RTree, RTreeConfig, DEFAULT_MAX_ENTRIES};
