//! # ssq-delaunay
//!
//! The Voronoi/Delaunay substrate of the spatial skyline library.
//!
//! The VS² and VCS² algorithms of Sharifzadeh & Shahabi (VLDB 2006) treat
//! the Delaunay graph of the data points as a *roadmap*: starting from the
//! nearest neighbour of a query point they expand outward through Voronoi
//! neighbours in ascending `mindist` order, pruning with the Voronoi-cell
//! tests of Theorems 3 and 4 (paper §4.2, Fig. 7). This crate provides the
//! machinery they need:
//!
//! * [`Triangulation`] — an incremental (Bowyer–Watson) Delaunay
//!   triangulation built on the exact predicates of `ssq-geom`, using a
//!   symbolic *ghost vertex* instead of a super-triangle so hull handling
//!   is exact;
//! * [`DelaunayGraph`] — the adjacency ("the adjacency list of the
//!   Delaunay graph", §4.2) with greedy nearest-neighbour walks, its
//!   neighbour lists held as [`rows::Rows`];
//! * [`rows`] — the copy-on-write chunk tables: `Arc`-shared chunks, so
//!   an edited copy shares what its edits left alone with its original.
//!   [`rows::CowChunks`] holds fixed-size entries (the triangulation's
//!   slots, `VoronoiIndex`'s cell boxes), [`rows::Rows`] the neighbour
//!   lists;
//! * Voronoi cells ([`DelaunayGraph::voronoi_cell`]) as clipped convex
//!   polygons, obtained by intersecting bisector half-planes of the
//!   Delaunay neighbours;
//! * [`hilbert`] — the one cached-key Hilbert sort: insertion order,
//!   memory layout and the paper's page layout ("points are organized in
//!   pages according to their Hilbert values") are all its result;
//! * [`paged::PagedAdjacency`] — that order cut into the pages of the
//!   paper's adjacency file, so VS²'s I/O can be accounted like the paper
//!   does for the R-tree. It is the one page model here: the adjacency
//!   lists stay in memory and no file is ever written.
//!
//! Degenerate inputs (all points collinear, fewer than three points) have
//! no triangulation; [`DelaunayGraph`] still exists for them (a path graph
//! along the line), so every public query keeps working.

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

pub mod graph;
pub mod hilbert;
pub mod paged;
pub mod rows;
pub mod triangulation;
pub mod voronoi;

pub use graph::DelaunayGraph;
pub use triangulation::{BuildError, DeltaError, Touched, Triangulation};
