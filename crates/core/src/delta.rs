//! Update batches: the unit of incremental index maintenance.
//!
//! The paper builds its indexes once per dataset (§4, §7); a serving
//! system cannot. An [`UpdateBatch`] is the delta applied to one
//! generation to produce the next: points to insert and point ids to
//! delete. Batches are validated against the generation they apply to
//! ([`UpdateBatch::validate`]) and then *normalized*
//! ([`UpdateBatch::normalize`]) — deletes sorted and deduplicated,
//! inserts Hilbert-ordered — so that
//!
//! * incremental structure maintenance walks short locate paths (each
//!   operation lands next to the previous one on the Hilbert curve), and
//! * the resulting point order is a deterministic function of the old
//!   generation and the batch, which is what lets a delta-built snapshot
//!   be compared id for id against a full rebuild over the same points.
//!
//! ## Id semantics
//!
//! Applying a batch to a generation with points `P` (ids `0..n`) yields
//! `P' = survivors ++ inserts`: surviving points keep their relative
//! order and are renumbered densely (`id' = id - |{deleted < id}|`),
//! then normalized inserts follow. Delete ids always refer to the *old*
//! generation.

use ssq_delaunay::hilbert;
use ssq_geom::{Point, Rect};

/// A batch of point insertions and deletions, applied atomically to one
/// snapshot generation to produce the next.
#[derive(Clone, Debug, Default)]
pub struct UpdateBatch {
    /// Points to add. After [`UpdateBatch::normalize`] these are in
    /// Hilbert order, and their new ids are `n_survivors + position`.
    pub inserts: Vec<Point>,
    /// Ids (in the generation the batch applies to) of points to remove.
    pub deletes: Vec<u32>,
}

/// Why an [`UpdateBatch`] cannot be applied to a generation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchError {
    /// A delete id is `>=` the generation's point count.
    DeleteOutOfRange(u32),
    /// An inserted point has a non-finite coordinate.
    NonFiniteInsert(usize),
    /// The batch would delete every point and insert none; an index over
    /// zero points has no generation to publish.
    WouldEmpty,
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchError::DeleteOutOfRange(id) => write!(f, "delete id {id} out of range"),
            BatchError::NonFiniteInsert(i) => write!(f, "insert #{i} has a non-finite coordinate"),
            BatchError::WouldEmpty => write!(f, "batch would leave the index empty"),
        }
    }
}

impl std::error::Error for BatchError {}

impl UpdateBatch {
    /// An empty batch.
    pub fn new() -> UpdateBatch {
        UpdateBatch::default()
    }

    /// `true` when the batch contains no operations.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Total number of operations.
    pub fn op_count(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// Checks the batch against a generation of `n` points. Duplicate
    /// delete ids are allowed (normalization collapses them).
    pub fn validate(&self, n: usize) -> Result<(), BatchError> {
        for &d in &self.deletes {
            if d as usize >= n {
                return Err(BatchError::DeleteOutOfRange(d));
            }
        }
        for (i, p) in self.inserts.iter().enumerate() {
            if !p.is_finite() {
                return Err(BatchError::NonFiniteInsert(i));
            }
        }
        let distinct: std::collections::HashSet<u32> = self.deletes.iter().copied().collect();
        if distinct.len() >= n && self.inserts.is_empty() {
            return Err(BatchError::WouldEmpty);
        }
        Ok(())
    }

    /// Normalizes in place: deletes sorted ascending and deduplicated,
    /// inserts Hilbert-ordered over `bbox` (ties broken by original
    /// position, so normalization is deterministic).
    pub fn normalize(&mut self, bbox: &Rect) {
        self.deletes.sort_unstable();
        self.deletes.dedup();
        let order = self.insert_order(bbox);
        self.inserts = order.iter().map(|&j| self.inserts[j as usize]).collect();
    }

    /// The permutation [`normalize`](UpdateBatch::normalize) applies to
    /// the inserts over `bbox`: `order[k]` is the pre-normalization
    /// position of the point that ends up at position `k`. Exposed so a
    /// routing layer that tags inserts with external ids can permute the
    /// tags exactly as a downstream index's internal normalization will
    /// permute the points.
    pub fn insert_order(&self, bbox: &Rect) -> Vec<u32> {
        hilbert::sort_by_hilbert(&self.inserts, bbox)
    }

    /// `true` when `normalize` has (or trivially would have) run: deletes
    /// strictly ascending. Insert order cannot be checked without the
    /// bbox, so this is a necessary-but-partial witness used in debug
    /// assertions.
    pub fn is_normalized(&self) -> bool {
        self.deletes.windows(2).all(|w| w[0] < w[1])
    }

    /// The monotone survivor renumbering for this (normalized) batch over
    /// `n` old points: `remap[old] = new` or `u32::MAX` for deleted ids.
    pub fn survivor_remap(&self, n: usize) -> Vec<u32> {
        debug_assert!(self.is_normalized());
        let mut remap = Vec::with_capacity(n);
        let mut di = 0usize;
        let mut next = 0u32;
        for old in 0..n as u32 {
            if di < self.deletes.len() && self.deletes[di] == old {
                remap.push(u32::MAX);
                di += 1;
            } else {
                remap.push(next);
                next += 1;
            }
        }
        remap
    }
}

/// What applying a batch to a [`crate::VoronoiIndex`] actually did —
/// surfaced through the engine's metrics so publish cost is observable
/// per generation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Points inserted.
    pub inserts: usize,
    /// Points deleted.
    pub deletes: usize,
    /// `true` when the incremental path ran; `false` when the index fell
    /// back to a full rebuild (oversized batch, degenerate triangulation,
    /// or an operation the local repair could not express).
    pub incremental: bool,
    /// Voronoi cells recomputed (incremental path only).
    pub dirty_cells: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bbox() -> Rect {
        Rect::from_corners(Point::new(0.0, 0.0), Point::new(100.0, 100.0))
    }

    #[test]
    fn validate_rejects_bad_batches() {
        let b = UpdateBatch {
            inserts: vec![],
            deletes: vec![5],
        };
        assert_eq!(b.validate(5), Err(BatchError::DeleteOutOfRange(5)));
        let b = UpdateBatch {
            inserts: vec![Point::new(f64::NAN, 0.0)],
            deletes: vec![],
        };
        assert_eq!(b.validate(5), Err(BatchError::NonFiniteInsert(0)));
        let b = UpdateBatch {
            inserts: vec![],
            deletes: vec![0, 1, 2, 1, 0],
        };
        assert_eq!(b.validate(3), Err(BatchError::WouldEmpty));
        assert!(b.validate(4).is_ok());
    }

    #[test]
    fn normalize_sorts_and_dedups() {
        let mut b = UpdateBatch {
            inserts: vec![
                Point::new(90.0, 90.0),
                Point::new(1.0, 1.0),
                Point::new(1.0, 1.0),
            ],
            deletes: vec![7, 3, 7, 1],
        };
        b.normalize(&bbox());
        assert_eq!(b.deletes, vec![1, 3, 7]);
        assert!(b.is_normalized());
        // Hilbert order puts the (1,1) duplicates (stable) before (90,90).
        assert_eq!(b.inserts[0], Point::new(1.0, 1.0));
        assert_eq!(b.inserts[1], Point::new(1.0, 1.0));
        assert_eq!(b.inserts[2], Point::new(90.0, 90.0));
        // Idempotent.
        let again = {
            let mut c = b.clone();
            c.normalize(&bbox());
            c
        };
        assert_eq!(again.deletes, b.deletes);
        assert_eq!(again.inserts, b.inserts);
    }

    #[test]
    fn survivor_remap_is_monotone() {
        let mut b = UpdateBatch {
            inserts: vec![],
            deletes: vec![0, 3],
        };
        b.normalize(&bbox());
        let remap = b.survivor_remap(5);
        assert_eq!(remap, vec![u32::MAX, 0, 1, u32::MAX, 2]);
    }
}
