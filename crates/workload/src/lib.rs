//! # ssq-workload
//!
//! Synthetic datasets, query generators and moving-object streams for the
//! SSQ experiments (paper §7).
//!
//! The paper evaluates on a USGS extract of business locations (Table 5)
//! plus synthetically moving query objects. The real extract is not
//! redistributable, so [`usgs`] generates a statistically similar
//! substitute: the same eight category labels with a skewed mix, placed in
//! Gaussian population clusters over a unit universe — the properties
//! (skew, clustering, density variation) that actually drive the
//! algorithms' relative costs. [`queries`] draws query sets with a
//! controlled `MBR(Q)` area fraction, matching the paper's 0.01%–0.7%
//! sweeps, and [`motion`] produces the random-waypoint streams used by the
//! continuous (VCS²) experiments.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::all)]

pub mod motion;
pub mod queries;
pub mod rng;
pub mod usgs;

pub use motion::{MotionConfig, MovingQuerySet};
pub use queries::{random_query_set, QueryConfig};
pub use usgs::{synthetic_usgs, Category, UsgsConfig, CATEGORY_MIX};
