//! # ssq-geom
//!
//! The 2-D computational-geometry substrate for the spatial skyline query
//! (SSQ) library, reproducing the geometric machinery of Sharifzadeh &
//! Shahabi, *The Spatial Skyline Queries*, VLDB 2006.
//!
//! The SSQ algorithms (B²S², VS², VCS²) lean on a small set of geometric
//! facts about points, rectangles, circles, perpendicular bisectors and the
//! convex hull of the query set. This crate provides exactly those
//! primitives, built from scratch:
//!
//! * [`Point`] — a point in `R²` with Euclidean vector arithmetic;
//! * [`Rect`] — axis-aligned rectangles with `mindist`/`maxdist`, the
//!   workhorse of R-tree pruning;
//! * [`Circle`] — the dominance circles `C(q, D(q, p))` of the paper;
//! * [`Line`], [`Segment`], [`HalfPlane`] — perpendicular bisectors and the
//!   half-plane reasoning behind the dominance lemmas;
//! * [`ConvexPolygon`] and the hull constructors in [`hull`] — `CH(Q)`, its
//!   tangents and visible regions (paper §5);
//! * adaptive-precision [`predicates`] (`orient2d`, `incircle`) in the style
//!   of Shewchuk, so the Delaunay substrate is robust against the
//!   floating-point degeneracies that plague naive implementations;
//! * [`kernel`] — allocation-free distance/dominance kernels over flat
//!   `f64` rows, including the squared-distance fast path;
//! * [`simd`] — data-parallel tile kernels (lane-aligned AoSoA distance
//!   tiles, bitmask dominance sweeps) behind a runtime-detected
//!   scalar/SSE2/AVX2 dispatch table.
//!
//! Every distance is Euclidean: the paper's problem definition (§2.2)
//! admits any triangle-inequality metric, but its theorems and algorithms
//! — and everything here — are `L2`.
//!
//! All coordinates are `f64`. The predicates are exact for all `f64`
//! inputs; everything else uses ordinary floating-point arithmetic with
//! explicit, documented tolerance choices.

#![deny(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
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

pub mod circle;
pub mod convex;
pub mod hull;
pub mod kernel;
pub mod line;
pub mod point;
pub mod predicates;
pub mod rect;
pub mod simd;

pub use circle::Circle;
pub use convex::ConvexPolygon;
pub use hull::{convex_hull, monotone_chain, monotone_chain_into, HullScratch};
pub use line::{HalfPlane, Line, Segment};
pub use point::Point;
pub use predicates::{incircle, orient2d, Orientation};
pub use rect::Rect;
