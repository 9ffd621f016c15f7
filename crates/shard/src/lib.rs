//! # ssq-shard
//!
//! Sharded serving for spatial skyline queries: one
//! [`Engine`](ssq_engine::Engine) per spatial shard behind a router
//! that prunes, fans out, and merges — turning the PR-1 single-snapshot
//! engine into a horizontally partitioned service while keeping answers
//! *exactly* equal to the single-engine (and naive) oracle.
//!
//! Three ideas carry the whole crate:
//!
//! * **Union lemma** ([`merge`]) — a point dominated within its shard is
//!   dominated in the union, so the global skyline is a subset of the
//!   union of per-shard skylines; a final dominance filter over those
//!   candidates is exact.
//! * **Shard pruning bound** ([`prune`]) — the component-wise
//!   `mindist(rect, q_i)` vector lower-bounds every distance vector a
//!   shard can produce; a known point dominating that bound dominates
//!   the whole shard, which is then skipped unqueried (the
//!   shard-granular form of the paper's Lemma 5/6 visible-region
//!   pruning).
//! * **Spatial partitioning** ([`partition()`]) — grid and kd-split
//!   policies over the dataset's bounding rect, each shard carrying the
//!   tight MBR of its points so the bound bites as hard as possible.
//!
//! ```
//! use ssq_geom::Point;
//! use ssq_shard::{PartitionPolicy, ShardConfig, ShardedEngine};
//!
//! let data: Vec<Point> = (0..300)
//!     .map(|i| Point::new((i % 17) as f64, (i / 17) as f64 + 0.01 * i as f64))
//!     .collect();
//! let engine = ShardedEngine::new(
//!     &data,
//!     ShardConfig::default()
//!         .with_shards(4)
//!         .with_policy(PartitionPolicy::Grid),
//! )
//! .unwrap();
//! let response = engine
//!     .query(&[Point::new(2.0, 3.0), Point::new(8.0, 5.0), Point::new(5.0, 9.0)])
//!     .unwrap();
//! assert!(!response.skyline.is_empty());
//! assert_eq!(response.shards_queried + response.shards_pruned, engine.shard_count());
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

pub mod merge;
pub mod metrics;
pub mod partition;
pub mod prune;
pub mod router;

pub use merge::merge_candidates_with;
pub use metrics::{ShardMetrics, ShardedMetricsSnapshot};
pub use partition::{partition, PartitionPolicy, ShardSpec};
pub use prune::{dominates_rect, rect_lower_bounds};
pub use router::{
    FleetIngestReport, ShardConfig, ShardError, ShardInfo, ShardedEngine, ShardedResponse,
};
