//! Versioned dataset snapshots and the catalog that publishes them.
//!
//! The paper's algorithms assume *immutable* R-tree / Voronoi indexes,
//! and everything in this workspace preserves that assumption — what
//! changes here is **which** immutable bundle the serving layer reads.
//! A [`Snapshot`] packages one dataset together with both physical
//! designs built over it, stamped with a monotonically increasing
//! `generation`. A [`SnapshotCatalog`] owns the *current* snapshot and
//! replaces it atomically: readers pin an `Arc<Snapshot>` and keep
//! computing against it even while a newer generation is published, so
//! a reindex never drains or pauses in-flight queries.
//!
//! # Lifecycle
//!
//! 1. **Build** — [`Snapshot::build`] constructs both indexes off the
//!    serving path (any thread; typically a dedicated reindex thread).
//!    Building touches nothing shared, so queries proceed untouched.
//! 2. **Publish** — [`SnapshotCatalog::install`] swaps the current
//!    `Arc` under a mutex held only for the pointer exchange. New
//!    queries (which pin at dequeue time, or at submission for a
//!    skyline-diagram hit) see the new generation.
//! 3. **Pin** — every query clones the `Arc` once and works against
//!    that bundle; continuous sessions pin at session open.
//! 4. **Retire** — when the last pinned `Arc` drops, the old indexes
//!    are freed. There is no epoch machinery: `Arc` reference counting
//!    *is* the retirement protocol.

use crate::sync::{RankedMutex, RANK_CATALOG};
use ssq_core::delta::join;
use ssq_core::{DeltaStats, RTreeIndex, UpdateBatch, VoronoiIndex};
use ssq_geom::{Point, Rect};
use std::sync::Arc;

/// One immutable dataset generation: the points plus both index
/// structures the planner can choose between.
///
/// Snapshots are cheap to share (`Arc` all the way down) and never
/// mutated after construction; a new dataset means a new snapshot with
/// a higher [`generation`](Snapshot::generation).
pub struct Snapshot {
    generation: u64,
    rtree: Arc<RTreeIndex>,
    voronoi: Arc<VoronoiIndex>,
}

// Snapshots and the indexes inside them are read by every worker, shard
// dispatcher and connection thread at once, so they must stay `Send +
// Sync`. Auto traits look through every field, so interior mutability
// anywhere inside (a `RefCell` or `Cell` in an R-tree node, a Delaunay
// row, a Voronoi cell box) fails the build here, and `forbid(unsafe_code)`
// in those crates rules out an `unsafe impl` to paper over it.
const _: () = {
    const fn shared_across_threads<T: Send + Sync>() {}
    shared_across_threads::<Snapshot>();
    shared_across_threads::<SnapshotCatalog>();
    shared_across_threads::<RTreeIndex>();
    shared_across_threads::<VoronoiIndex>();
};

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("generation", &self.generation)
            .field("len", &self.len())
            .finish_non_exhaustive()
    }
}

impl Snapshot {
    /// Builds both indexes over `points` and stamps the bundle with
    /// `generation`.
    ///
    /// `points` must be non-empty, finite, and duplicate-free (the
    /// Voronoi builder's requirements); the error string is the
    /// underlying builder's.
    pub fn build(generation: u64, points: &[Point]) -> Result<Snapshot, String> {
        if points.is_empty() {
            return Err("cannot build a snapshot over an empty dataset".into());
        }
        let rtree = Arc::new(RTreeIndex::new(points));
        let voronoi = Arc::new(VoronoiIndex::new(points).map_err(|e| e.to_string())?);
        Ok(Snapshot {
            generation,
            rtree,
            voronoi,
        })
    }

    /// Wraps pre-built indexes (they can be shared with code outside the
    /// engine).
    ///
    /// # Panics
    ///
    /// Panics if the two indexes cover different numbers of points, or
    /// name different points by the first, middle or last id — a skyline
    /// id must mean one point whichever index answered, and two indexes
    /// built over differently ordered copies of a dataset agree on
    /// everything but that.
    pub fn from_indexes(
        generation: u64,
        rtree: Arc<RTreeIndex>,
        voronoi: Arc<VoronoiIndex>,
    ) -> Snapshot {
        let n = rtree.len();
        let probes = [0, n / 2, n.saturating_sub(1)].map(|i| i as u32);
        assert!(
            n == voronoi.len()
                && (n == 0 || probes.iter().all(|&i| rtree.point(i) == voronoi.point(i))),
            "R-tree and Voronoi snapshots index different datasets"
        );
        Snapshot {
            generation,
            rtree,
            voronoi,
        }
    }

    /// Produces the next generation by applying an [`UpdateBatch`] as a
    /// copy-on-write delta: both indexes of `self` stay untouched (and
    /// keep serving pinned readers), while the new bundle is repaired
    /// locally instead of rebuilt. Both halves copy only what the batch
    /// writes and share the rest with `self` by pointer: the R-tree half
    /// its root-to-leaf paths ([`RTreeIndex::apply_delta`]), the Voronoi
    /// half its chunks of triangle slots and of per-site rows
    /// ([`VoronoiIndex::apply_delta`], which also says when it rebuilds).
    /// What is still `O(n)` is flat: the two point lists, the Voronoi
    /// half's two id maps and its start directory, and one pointer per
    /// shared node or chunk.
    ///
    /// The two halves are independent, so they run side by side
    /// ([`join`]): the R-tree half on the publish helper thread, the
    /// Voronoi half — the longer one, with two joins of its own — on the
    /// caller. A panic in the R-tree half comes back as an error; one in
    /// the Voronoi half unwinds to the caller.
    ///
    /// The batch is validated against this snapshot and normalized
    /// (deletes sorted/deduplicated, inserts Hilbert-ordered over this
    /// generation's universe), and both halves follow [`UpdateBatch::id_plan`]
    /// (a surviving point keeps its id), so the resulting point order is a
    /// deterministic function of `(self, batch)`: rebuilding from scratch over
    /// [`points`](Snapshot::points) of the result reproduces it id for id
    /// (the Voronoi half of a rebuild sorts its internal sites afresh).
    pub fn apply_delta(
        &self,
        generation: u64,
        batch: &UpdateBatch,
    ) -> Result<(Snapshot, DeltaStats), String> {
        batch.validate(self.len()).map_err(|e| e.to_string())?;
        let mut batch = batch.clone();
        batch.normalize(&self.universe());
        let (rtree, voronoi) = join(
            || self.rtree.apply_delta(&batch),
            || self.voronoi.apply_delta(&batch),
        );
        let rtree = rtree.map_err(|e| e.to_string())?;
        let (voronoi, stats) = voronoi.map_err(|e| e.to_string())?;
        Ok((
            Snapshot {
                generation,
                rtree: Arc::new(rtree),
                voronoi: Arc::new(voronoi),
            },
            stats,
        ))
    }

    /// The dataset generation this snapshot carries.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The R*-tree over this generation's points (BBS, B²S²).
    pub fn rtree(&self) -> &Arc<RTreeIndex> {
        &self.rtree
    }

    /// The Voronoi index over this generation's points (VS², VCS²).
    pub fn voronoi(&self) -> &Arc<VoronoiIndex> {
        &self.voronoi
    }

    /// The snapshot's points, in index order. Skyline ids index into
    /// this slice.
    pub fn points(&self) -> &[Point] {
        self.rtree.points()
    }

    /// Number of data points.
    pub fn len(&self) -> usize {
        self.rtree.len()
    }

    /// `true` when the snapshot holds no points (never constructed by
    /// [`Snapshot::build`], which rejects empty datasets).
    pub fn is_empty(&self) -> bool {
        self.rtree.is_empty()
    }

    /// The bounding rectangle of this generation's points.
    pub fn universe(&self) -> Rect {
        self.rtree.universe()
    }
}

/// The publication point for [`Snapshot`]s: one *current* generation,
/// replaced atomically by [`install`](SnapshotCatalog::install).
///
/// The mutex guards only the `Arc` exchange —
/// [`current`](SnapshotCatalog::current) holds it for a single clone,
/// never across an index build or a query, so the read path is
/// contention-free in practice and readers can never block a publisher
/// for long (nor vice versa).
pub struct SnapshotCatalog {
    current: RankedMutex<Arc<Snapshot>>,
}

impl std::fmt::Debug for SnapshotCatalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotCatalog")
            .field("generation", &self.generation())
            .finish_non_exhaustive()
    }
}

impl SnapshotCatalog {
    /// A catalog whose current snapshot is `initial`.
    pub fn new(initial: Arc<Snapshot>) -> SnapshotCatalog {
        SnapshotCatalog {
            current: RankedMutex::new("engine.catalog", RANK_CATALOG, initial),
        }
    }

    /// Pins the current snapshot: the returned `Arc` stays valid (and
    /// keeps its generation's indexes alive) for as long as the caller
    /// holds it, regardless of later installs.
    pub fn current(&self) -> Arc<Snapshot> {
        Arc::clone(&self.current.lock())
    }

    /// The current generation number.
    pub fn generation(&self) -> u64 {
        self.current.lock().generation
    }

    /// The catalog lock's `(name, rank)`, for lock-order assertions.
    pub fn lock_info(&self) -> (&'static str, u32) {
        (self.current.name(), self.current.rank())
    }

    /// Atomically replaces the current snapshot, returning the retired
    /// one (callers usually drop it; tests inspect its strong count).
    ///
    /// Rejects a snapshot whose generation is not strictly newer than
    /// the current one — installs must move time forward, otherwise a
    /// slow build racing a fast one could roll the dataset back.
    pub fn install(&self, snapshot: Arc<Snapshot>) -> Result<Arc<Snapshot>, StaleSnapshot> {
        let mut current = self.current.lock();
        if snapshot.generation <= current.generation {
            return Err(StaleSnapshot {
                offered: snapshot.generation,
                current: current.generation,
            });
        }
        Ok(std::mem::replace(&mut *current, snapshot))
    }

    /// Publishes the next generation by delta: pins the current
    /// snapshot, applies `batch` off-lock (readers keep serving), then
    /// installs the result. Returns the published snapshot, the
    /// maintenance stats and the retired snapshot, as
    /// [`install`](SnapshotCatalog::install) does: when nobody else pins
    /// it, dropping it frees the old generation's unshared nodes and
    /// chunks, so a caller may drop it after it has reported the publish.
    ///
    /// Concurrent callers race on the final install — the loser's
    /// generation is stale and the install fails — so delta publishing
    /// should be driven by one writer (the engine's ingestor thread).
    pub fn apply_delta(
        &self,
        batch: &UpdateBatch,
    ) -> Result<(Arc<Snapshot>, DeltaStats, Arc<Snapshot>), String> {
        let base = self.current();
        let (next, stats) = base.apply_delta(base.generation() + 1, batch)?;
        let next = Arc::new(next);
        let retired = self.install(Arc::clone(&next)).map_err(|e| e.to_string())?;
        Ok((next, stats, retired))
    }
}

/// Rejected install: the offered snapshot is not newer than the
/// published one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaleSnapshot {
    /// Generation of the snapshot that was offered.
    pub offered: u64,
    /// Generation the catalog already serves.
    pub current: u64,
}

impl std::fmt::Display for StaleSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stale snapshot: offered generation {} <= current {}",
            self.offered, self.current
        )
    }
}

impl std::error::Error for StaleSnapshot {}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| Point::new((i % 13) as f64 + 1e-4 * i as f64, (i / 13) as f64))
            .collect()
    }

    #[test]
    fn build_stamps_generation_and_indexes_agree() {
        let snap = Snapshot::build(3, &pts(50)).unwrap();
        assert_eq!(snap.generation(), 3);
        assert_eq!(snap.len(), 50);
        assert_eq!(snap.rtree().len(), snap.voronoi().len());
        assert!(!snap.is_empty());
    }

    #[test]
    fn from_indexes_accepts_a_pair_over_one_ordering() {
        let points = pts(50);
        let snap = Snapshot::from_indexes(
            2,
            Arc::new(RTreeIndex::new(&points)),
            Arc::new(VoronoiIndex::new(&points).unwrap()),
        );
        assert_eq!(snap.generation(), 2);
        assert_eq!(snap.points(), &points[..]);
    }

    #[test]
    #[should_panic(expected = "R-tree and Voronoi snapshots index different datasets")]
    fn from_indexes_rejects_differently_ordered_copies() {
        let points = pts(50);
        let reversed: Vec<Point> = points.iter().rev().copied().collect();
        Snapshot::from_indexes(
            0,
            Arc::new(RTreeIndex::new(&points)),
            Arc::new(VoronoiIndex::new(&reversed).unwrap()),
        );
    }

    #[test]
    fn empty_and_degenerate_datasets_are_rejected() {
        assert!(Snapshot::build(0, &[]).is_err());
        let dup = vec![Point::new(1.0, 1.0), Point::new(1.0, 1.0)];
        assert!(Snapshot::build(0, &dup).is_err());
    }

    #[test]
    fn install_swaps_and_returns_the_retired_snapshot() {
        let catalog = SnapshotCatalog::new(Arc::new(Snapshot::build(0, &pts(20)).unwrap()));
        let pinned = catalog.current();
        assert_eq!(pinned.generation(), 0);

        let next = Arc::new(Snapshot::build(1, &pts(30)).unwrap());
        let retired = catalog.install(next).unwrap();
        assert_eq!(retired.generation(), 0);
        assert_eq!(catalog.generation(), 1);
        // The pinned Arc still reads generation 0's data.
        assert_eq!(pinned.len(), 20);
        assert_eq!(catalog.current().len(), 30);
    }

    #[test]
    fn stale_installs_are_rejected() {
        let catalog = SnapshotCatalog::new(Arc::new(Snapshot::build(5, &pts(20)).unwrap()));
        let stale = Arc::new(Snapshot::build(5, &pts(10)).unwrap());
        assert_eq!(
            catalog.install(stale).unwrap_err(),
            StaleSnapshot {
                offered: 5,
                current: 5
            }
        );
        assert_eq!(catalog.generation(), 5);
        assert_eq!(catalog.current().len(), 20, "rollback must not happen");
    }

    #[test]
    fn apply_delta_publishes_next_generation() {
        let snap = Snapshot::build(4, &pts(60)).unwrap();
        let batch = UpdateBatch {
            inserts: vec![Point::new(50.0, 50.0), Point::new(51.0, 50.5)],
            deletes: vec![3, 17, 3],
        };
        let (next, stats) = snap.apply_delta(5, &batch).unwrap();
        assert_eq!(next.generation(), 5);
        assert_eq!(next.len(), 60 - 2 + 2);
        assert_eq!(stats.deletes, 2, "duplicate delete ids collapse");
        assert_eq!(stats.inserts, 2);
        // The base snapshot is untouched (copy-on-write).
        assert_eq!(snap.len(), 60);
        assert_eq!(snap.generation(), 4);
        // Determinism: a full rebuild over the delta's points matches.
        let rebuilt = Snapshot::build(5, next.points()).unwrap();
        assert_eq!(rebuilt.points(), next.points());
    }

    #[test]
    fn a_surviving_id_keeps_its_point_across_a_hundred_publishes() {
        let mut snap = Snapshot::build(0, &pts(300)).unwrap();
        for round in 0..100u32 {
            let k = 1 + round as usize % 4;
            let batch = UpdateBatch {
                inserts: (0..k)
                    .map(|j| Point::new(0.5 + 0.11 * round as f64, 0.5 + 0.9 * j as f64))
                    .collect(),
                deletes: (0..k as u32).map(|j| (round * 29 + j * 71) % 300).collect(),
            };
            let (next, _) = snap.apply_delta(u64::from(round) + 1, &batch).unwrap();
            assert_eq!(next.len(), snap.len());
            for (id, (was, now)) in snap.points().iter().zip(next.points()).enumerate() {
                if !batch.deletes.contains(&(id as u32)) {
                    assert_eq!(was, now, "round {round}: id {id} lost its point");
                }
            }
            // Both halves name every point by the same id.
            for id in 0..next.len() as u32 {
                assert_eq!(next.voronoi().point(id), next.points()[id as usize]);
            }
            snap = next;
        }
    }

    #[test]
    fn apply_delta_rejects_invalid_batches() {
        let snap = Snapshot::build(0, &pts(10)).unwrap();
        let bad = UpdateBatch {
            inserts: vec![],
            deletes: vec![10],
        };
        assert!(snap.apply_delta(1, &bad).is_err());
        let empties = UpdateBatch {
            inserts: vec![],
            deletes: (0..10).collect(),
        };
        assert!(snap.apply_delta(1, &empties).is_err());
    }

    #[test]
    fn catalog_apply_delta_installs_atomically() {
        let catalog = SnapshotCatalog::new(Arc::new(Snapshot::build(0, &pts(40)).unwrap()));
        let pinned = catalog.current();
        let batch = UpdateBatch {
            inserts: vec![Point::new(40.0, 40.0)],
            deletes: vec![0],
        };
        let (published, stats, _retired) = catalog.apply_delta(&batch).unwrap();
        assert_eq!(published.generation(), 1);
        assert_eq!(catalog.generation(), 1);
        assert_eq!(stats.inserts + stats.deletes, 2);
        assert_eq!(pinned.len(), 40, "pinned readers keep the old data");
    }

    #[test]
    fn retirement_is_arc_reference_counting() {
        let catalog = SnapshotCatalog::new(Arc::new(Snapshot::build(0, &pts(20)).unwrap()));
        let weak = {
            let pinned = catalog.current();
            let weak = Arc::downgrade(&pinned);
            catalog
                .install(Arc::new(Snapshot::build(1, &pts(25)).unwrap()))
                .unwrap();
            assert!(weak.upgrade().is_some(), "pinned generation freed early");
            weak
        };
        assert!(
            weak.upgrade().is_none(),
            "old generation leaked after the last pin dropped"
        );
    }
}
