//! # ssq-core
//!
//! Spatial Skyline Queries — a from-scratch reproduction of Sharifzadeh &
//! Shahabi, *The Spatial Skyline Queries*, VLDB 2006.
//!
//! Given data points `P` and query points `Q`, the **spatial skyline**
//! `S(Q)` is the set of points of `P` not *spatially dominated* by any
//! other point — where `p` dominates `p'` iff `p` is at least as close to
//! every query point and strictly closer to one (§2.2; "close" is
//! Euclidean distance here, the metric all of the paper's theorems
//! assume). This crate
//! implements the paper's algorithms (of VCS², the classification and the
//! free pass; its incremental patch lost to a rerun here — see [`vcs2`]):
//!
//! | paper | here | index |
//! |---|---|---|
//! | naive §2.2 | [`naive::naive_full`], [`naive::naive_sorted`] | none |
//! | BBS (competitor, §7) | [`bbs::bbs`] | [`RTreeIndex`] |
//! | B²S² (§4.1, Fig. 5) | [`b2s2::b2s2`] | [`RTreeIndex`] |
//! | VS² (§4.2, Fig. 7) | [`vs2::vs2`] | [`VoronoiIndex`] |
//! | continuous SSQ (§5) | [`vcs2::ContinuousSkyline`] | [`VoronoiIndex`] |
//! | mixed `S(A, Q)` (§6) | [`mixed`] | both |
//!
//! All algorithms return identical skylines (asserted by the test suite
//! against the naive oracle); they differ in cost — the geometric
//! machinery of §3 (convex-hull anchors, Theorem-1 free passes, the
//! pruning rectangle `B`, Voronoi-cell tests) is exactly what the fast
//! ones exploit.
//!
//! # Quick example
//!
//! ```
//! use ssq_core::{b2s2::b2s2, index::RTreeIndex, query::QueryContext};
//! use ssq_geom::Point;
//!
//! // Restaurants (data points) and team-member offices (query points).
//! let restaurants = vec![
//!     Point::new(0.2, 0.3),
//!     Point::new(0.5, 0.5),
//!     Point::new(0.9, 0.9),
//! ];
//! let offices = vec![Point::new(0.3, 0.3), Point::new(0.6, 0.4)];
//!
//! let index = RTreeIndex::new(&restaurants);
//! let ctx = QueryContext::new(&offices);
//! let result = b2s2(&index, &ctx);
//! assert!(result.contains(0) && result.contains(1));
//! ```

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

pub mod b2s2;
pub mod bbs;
pub mod delta;
pub mod heap;
pub mod index;
pub mod key;
pub mod mixed;
pub mod naive;
pub mod query;
pub mod ranked;
pub mod scratch;
pub mod stats;
pub mod vcs2;
pub mod vs2;

pub use b2s2::{b2s2, b2s2_kernel};
pub use bbs::bbs;
pub use delta::{BatchError, DeltaStats, IdPlan, UpdateBatch};
pub use index::{RTreeIndex, VoronoiIndex};
pub use key::{KeyScratch, QueryKey};
pub use naive::{naive_full, naive_sorted, naive_sorted_into, naive_sorted_kernel};
pub use query::QueryContext;
pub use ranked::{b2s2_ranked, b2s2_ranked_with, MaxDistance, Preference, WeightedSum};
pub use scratch::DistanceScratch;
pub use stats::{QueryStats, SkylineResult};
pub use vcs2::{ContinuousSkyline, OutcomeCounts, UpdateOutcome};
pub use vs2::{vs2, vs2_kernel, vs2_with, VsExpansion};
