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
//! Ids are dense `0..len`, and a surviving point keeps its id: a
//! normalized batch's inserts take its deleted ids in ascending order,
//! then `n, n+1, …`, and surplus holes close as `Vec::swap_remove` closes
//! them, highest first, so only the `|D| − |I|` top ids move. Delete ids
//! refer to the *old* generation. [`UpdateBatch::id_plan`] states the rule
//! once; every layer applies it with [`IdPlan::patch`].
//!
//! ## Two cores per publish
//!
//! A publish repairs independent structures: the R-tree and the Voronoi
//! index, and inside the Voronoi half the triangulation, the id maps and
//! the cell boxes. [`join`] runs one such pair side by side, the helper on
//! a scoped thread named `ssq-publish` and the other on the caller.

use ssq_delaunay::hilbert;
use ssq_geom::{Point, Rect};
use std::panic::AssertUnwindSafe;
use std::sync::{Mutex, PoisonError};

/// A batch of point insertions and deletions, applied atomically to one
/// snapshot generation to produce the next.
#[derive(Clone, Debug, Default)]
pub struct UpdateBatch {
    /// Points to add. After [`UpdateBatch::normalize`] these are in
    /// Hilbert order, and they take the deleted ids, then `n..`.
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

    /// Where this (normalized) batch puts the ids of a generation of `n`
    /// points, in `O(|batch|)`.
    pub fn id_plan(&self, n: usize) -> IdPlan {
        debug_assert!(self.is_normalized());
        let refills = self.deletes.len().min(self.inserts.len());
        let len = n + self.inserts.len() - self.deletes.len();
        let mut inserted = self.deletes[..refills].to_vec();
        inserted.extend((n as u32..).take(self.inserts.len() - refills));
        // `swap_remove` the surplus holes, highest first. `tail` holds the
        // slots from `len` up: a hole there is removed from it, and a hole
        // below `len` takes the point in its last slot.
        let mut tail: Vec<u32> = (len as u32..n as u32).collect();
        let mut moves = Vec::new();
        for &hole in self.deletes[refills..].iter().rev() {
            if hole as usize >= len {
                tail.swap_remove(hole as usize - len);
            } else if let Some(from) = tail.pop() {
                moves.push((from, hole));
            }
        }
        IdPlan {
            inserted,
            moves,
            len,
        }
    }
}

/// What a normalized batch does to a generation's ids
/// ([`UpdateBatch::id_plan`]).
#[derive(Clone, Debug)]
pub struct IdPlan {
    /// `inserted[k]` is the id normalized insert `k` takes.
    pub inserted: Vec<u32>,
    /// `(from, to)`: the surviving point with id `from` (`>= len`) takes
    /// id `to` (`< len`).
    pub moves: Vec<(u32, u32)>,
    /// The next generation's point count.
    pub len: usize,
}

impl IdPlan {
    /// Applies the plan to `table`, indexed by the old generation's ids;
    /// `inserted` yields the rows of the normalized inserts, in order.
    pub fn patch<T>(&self, table: &mut Vec<T>, inserted: impl IntoIterator<Item = T>) {
        for (&id, row) in self.inserted.iter().zip(inserted) {
            match table.get_mut(id as usize) {
                Some(slot) => *slot = row,
                None => table.push(row),
            }
        }
        for &(from, to) in &self.moves {
            table.swap(from as usize, to as usize);
        }
        table.truncate(self.len);
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

/// The name of the thread [`join`] runs its helper on.
const PUBLISH_THREAD: &str = "ssq-publish";

/// [`join`]'s helper panicked: its half of the publish is lost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HelperPanicked;

impl std::fmt::Display for HelperPanicked {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "the {PUBLISH_THREAD} helper thread panicked")
    }
}

impl std::error::Error for HelperPanicked {}

/// Runs `helper` on a scoped thread named `ssq-publish` while `here`
/// runs on the caller, and returns both results once both are done.
///
/// A panic in `helper` stops there and comes back as [`HelperPanicked`]; a
/// panic in `here` unwinds to the caller once `helper` has finished. When
/// the thread cannot be spawned, `helper` runs on the caller after `here`.
pub fn join<A: Send, B>(
    helper: impl FnOnce() -> A + Send,
    here: impl FnOnce() -> B,
) -> (Result<A, HelperPanicked>, B) {
    // Whichever thread takes `helper` runs it: the spawned one, or the
    // caller when a failed spawn dropped its copy of `run` unrun. The
    // lock guards only the `take`, so a poisoned slot is still valid.
    let slot = Mutex::new(Some(helper));
    let run = || {
        let helper = slot.lock().unwrap_or_else(PoisonError::into_inner).take();
        helper.map(|f| f())
    };
    std::thread::scope(|scope| {
        let spawned = std::thread::Builder::new()
            .name(PUBLISH_THREAD.into())
            .spawn_scoped(scope, run);
        let here = here();
        let helper = match spawned {
            Ok(thread) => thread.join(),
            Err(_) => std::panic::catch_unwind(AssertUnwindSafe(run)),
        };
        (helper.ok().flatten().ok_or(HelperPanicked), here)
    })
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

    /// The id rule by brute force: refill the deleted slots with the
    /// inserts, append the rest, `swap_remove` the surplus holes highest
    /// first. Returns what each new id holds: an old id, or `n + k` for
    /// insert `k`.
    fn reference(n: usize, batch: &UpdateBatch) -> Vec<usize> {
        let mut table: Vec<usize> = (0..n).collect();
        let mut inserts = n..n + batch.inserts.len();
        let mut holes = Vec::new();
        for &d in &batch.deletes {
            match inserts.next() {
                Some(k) => table[d as usize] = k,
                None => holes.push(d),
            }
        }
        table.extend(inserts);
        for &h in holes.iter().rev() {
            table.swap_remove(h as usize);
        }
        table
    }

    fn check_plan(n: usize, batch: &UpdateBatch) {
        let want = reference(n, batch);
        let plan = batch.id_plan(n);
        assert_eq!(plan.len, want.len(), "n {n}, {batch:?}");
        for (k, &id) in plan.inserted.iter().enumerate() {
            assert_eq!(want[id as usize], n + k, "insert {k}: n {n}, {batch:?}");
        }
        let mut moved = vec![false; n];
        for &(from, to) in &plan.moves {
            assert!(from as usize >= plan.len && (to as usize) < plan.len);
            assert_eq!(want[to as usize], from as usize, "move: n {n}, {batch:?}");
            moved[from as usize] = true;
        }
        // Every other survivor keeps its id.
        for id in 0..n {
            if batch.deletes.binary_search(&(id as u32)).is_err() && !moved[id] {
                assert_eq!(want[id], id, "id {id}: n {n}, {batch:?}");
            }
        }
        let mut table: Vec<usize> = (0..n).collect();
        plan.patch(&mut table, n..);
        assert_eq!(table, want, "patch: n {n}, {batch:?}");
    }

    fn batch(deletes: Vec<u32>, inserts: usize) -> UpdateBatch {
        let mut b = UpdateBatch {
            inserts: (0..inserts)
                .map(|k| Point::new(k as f64, (k * 7 % 11) as f64))
                .collect(),
            deletes,
        };
        b.normalize(&bbox());
        b
    }

    #[test]
    fn id_plan_matches_swap_remove_on_every_batch_shape() {
        // Deletes of the top ids, of the bottom ids, duplicates, and a
        // batch that leaves one point.
        for (n, deletes, inserts) in [
            (5, vec![0, 3], 0),
            (10, vec![5, 8], 0),
            (10, vec![9, 8, 7], 1),
            (10, vec![0, 1, 2], 1),
            (10, vec![2, 3, 9], 0),
            (10, vec![4, 4, 6, 6], 1),
            (6, vec![0, 1, 2, 3, 4], 0),
            (6, vec![1, 2, 3, 4, 5], 0),
            (6, vec![5, 4, 3, 2, 1, 0], 1),
            (3, vec![], 4),
            (3, vec![2], 4),
        ] {
            check_plan(n, &batch(deletes, inserts));
        }
        // Random shapes: |I| > |D|, |I| = |D| and |I| < |D|.
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |m: usize| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % m as u64) as usize
        };
        for round in 0..600 {
            let n = 1 + next(40);
            let d = next(n);
            let i = match round % 3 {
                0 => d + 1 + next(5),
                1 => d,
                _ => d.saturating_sub(1 + next(4)),
            };
            let deletes = (0..d).map(|_| next(n) as u32).collect();
            check_plan(n, &batch(deletes, i));
        }
    }

    #[test]
    fn a_balanced_batch_moves_no_survivor() {
        let b = batch(vec![7, 2], 2);
        let plan = b.id_plan(9);
        assert_eq!(plan.inserted, vec![2, 7]);
        assert!(plan.moves.is_empty());
        assert_eq!(plan.len, 9);
        let b = batch(vec![0, 3], 0);
        assert_eq!(b.id_plan(5).moves, vec![(4, 0)]);
    }

    #[test]
    fn join_runs_the_helper_on_the_publish_thread() {
        let caller = std::thread::current().id();
        let (helper, here) = join(
            || {
                let me = std::thread::current();
                (me.id(), me.name().map(String::from))
            },
            || std::thread::current().id(),
        );
        let (helper_id, helper_name) = helper.unwrap();
        assert_eq!(here, caller);
        assert_ne!(helper_id, caller);
        assert_eq!(helper_name.as_deref(), Some(PUBLISH_THREAD));
    }

    #[test]
    fn a_helper_panic_comes_back_as_an_error() {
        let (helper, here) = join(|| -> u32 { panic!("helper") }, || 7);
        assert_eq!(helper, Err(HelperPanicked));
        assert_eq!(here, 7, "the caller's half still finishes");
    }

    #[test]
    fn a_caller_panic_unwinds_after_the_helper_finishes() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let finished = &AtomicBool::new(false);
        let (panicking, told) = std::sync::mpsc::channel();
        let unwound = std::panic::catch_unwind(AssertUnwindSafe(|| {
            join(
                // Finishes only once the caller's half has begun to panic.
                move || {
                    let _ = told.recv();
                    finished.store(true, Ordering::SeqCst);
                },
                || -> u32 {
                    let _ = panicking.send(());
                    panic!("caller")
                },
            )
        }));
        assert!(unwound.is_err());
        assert!(finished.load(Ordering::SeqCst));
    }
}
