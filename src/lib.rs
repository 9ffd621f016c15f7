//! # spatial-skyline
//!
//! A complete, from-scratch Rust implementation of **The Spatial Skyline
//! Queries** (Sharifzadeh & Shahabi, VLDB 2006).
//!
//! Given a set of data points `P` (restaurants, hotels, guard stations…)
//! and a set of query points `Q` (team members, landmarks, soldiers…), a
//! *spatial skyline query* returns every data point not **spatially
//! dominated** — no other point is at least as close to all query points
//! and strictly closer to one. This crate re-exports the full workspace:
//!
//! * [`core`] — the algorithms: naive, BBS (baseline), B²S², VS², VCS²
//!   (continuous/moving queries) and mixed spatial+attribute skylines;
//! * [`geom`] — the computational-geometry substrate (convex hulls, exact
//!   predicates, visible regions);
//! * [`delaunay`] — Delaunay triangulation / Voronoi diagram substrate;
//! * [`rtree`] — the R*-tree substrate;
//! * [`skyline`] — the static non-spatial skyline `S(A)` of §6 (BNL);
//! * [`workload`] — synthetic datasets and query/motion generators for the
//!   paper's experiments;
//! * [`engine`] — a concurrent query-serving engine (worker pool, LRU
//!   query-context cache, adaptive planner, continuous sessions, metrics)
//!   over a versioned snapshot catalog: immutable index snapshots that
//!   swap atomically under load (live reindex, generation-pinned queries);
//! * [`shard`] — sharded serving: spatial partitioner (grid / kd-split),
//!   one engine per shard, a dominance-bound shard-pruning router, an
//!   exact cross-shard skyline merge, and atomic whole-fleet reindexing.
//!
//! ## Quickstart
//!
//! ```
//! use spatial_skyline::prelude::*;
//!
//! // Where can three friends meet for coffee?
//! let cafes = vec![
//!     Point::new(0.2, 0.4),
//!     Point::new(0.5, 0.5),
//!     Point::new(0.8, 0.1),
//!     Point::new(0.9, 0.9),
//! ];
//! let friends = vec![
//!     Point::new(0.3, 0.3),
//!     Point::new(0.6, 0.4),
//!     Point::new(0.4, 0.7),
//! ];
//!
//! let index = RTreeIndex::new(&cafes);
//! let ctx = QueryContext::new(&friends);
//! let result = b2s2(&index, &ctx);
//! // `result.skyline` holds the cafés worth considering: every other café
//! // is farther from *all three* friends than one of these.
//! assert!(!result.skyline.is_empty());
//! ```

#![forbid(unsafe_code)]

pub use ssq_core as core;
pub use ssq_delaunay as delaunay;
pub use ssq_engine as engine;
pub use ssq_geom as geom;
pub use ssq_rtree as rtree;
pub use ssq_shard as shard;
pub use ssq_skyline as skyline;
pub use ssq_workload as workload;

/// The most common imports in one place.
pub mod prelude {
    pub use ssq_core::mixed::{mixed_b2s2, mixed_naive, mixed_vs2, MixedContext};
    pub use ssq_core::{
        b2s2, bbs, naive_full, naive_sorted, vs2, vs2_with, ContinuousSkyline, QueryContext,
        QueryStats, RTreeIndex, SkylineResult, UpdateOutcome, VoronoiIndex, VsExpansion,
    };
    pub use ssq_geom::{Point, Rect};
}
