//! Continuous spatial skylines (paper §5): `S(Q)` maintained while the
//! query points move, one single-point location update at a time.
//!
//! An update `q → q'` is either free or one run of VS²:
//!
//! * **Pattern I** — neither `q` nor `q'` is a vertex of `CH(Q)`: by
//!   Theorem 2 the hull, and with it the skyline, is untouched. The
//!   update costs one hull build and nothing else.
//! * **Anything else** — [`vs2_kernel`] on the
//!   caller's arena.
//!
//! A session holds its query set, its context and its answer — state
//! sized by `|Q|` and `|S(Q)|`, never by `|P|`. Every VS² run
//! borrows a [`DistanceScratch`]: the `_in` forms ([`ContinuousSkyline::new_in`],
//! [`ContinuousSkyline::update_in`], [`ContinuousSkyline::rehome_in`]) take
//! the caller's, so a serving engine runs each of its sessions on the arena
//! of whichever worker drains it. [`ContinuousSkyline::new`] and
//! [`ContinuousSkyline::update`] are those same bodies on an arena the
//! session keeps for itself, for callers with no arena of their own.
//!
//! Fig. 10's classification is kept as *accounting*: an update whose two
//! hulls share every vertex except possibly `q`/`q'` (patterns II–V) is
//! reported as [`UpdateOutcome::Incremental`], any other hull change as
//! [`UpdateOutcome::Recomputed`]. That split is what reproduces the
//! paper's "fewer than 3 % of movements force a recomputation"
//! (`reproduce --continuous`, the benchmark's `core.vcs2_recompute_frac`)
//! — it selects no code.
//!
//! The paper's VCS² handles patterns II–V by re-examining only Lemma 6's
//! candidate region (the visible regions of `q` and `q'` plus the hulls'
//! symmetric difference), and §5 reports it 3× faster than re-running
//! VS². This crate carried that path until PR 21 (its CHANGES.md entry
//! describes it); on this substrate it lost to the rerun it was meant to
//! avoid. The walk spans the pruning rectangle `B` either way — the
//! candidate region covers most of it — so what the path saved was a share
//! of the rows, paid for with two visible regions, a second NN search and
//! a region test per popped site. The benchmark's `moving` workload (64
//! sessions over 200 000 points, seed 42, medians of 10 alternating
//! runs):
//!
//! | patterns II–V handled by | updates/s | p50 µs | p99 µs |
//! |---|---|---|---|
//! | candidate-region walk (removed) | 47 693 | 39.2 | 124.8 |
//! | `vs2_kernel` rerun (this module) | 57 336 | 31.4 | 110.1 |
//!
//! EXPERIMENTS.md reports §5's ratio as not reproduced.
//! [`ConvexPolygon::visible_region`](ssq_geom::ConvexPolygon::visible_region)
//! stays in `ssq-geom`: `tests/theorems.rs` holds Lemma 6 with it.

use ssq_geom::Point;

use crate::index::VoronoiIndex;
use crate::query::QueryContext;
use crate::scratch::DistanceScratch;
use crate::stats::{QueryStats, SkylineResult};
use crate::vs2::vs2_kernel;

/// How an update changed `CH(Q)` (Fig. 10). Only `Unchanged` is handled
/// differently; the other two both re-run VS² and differ in what they
/// count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateOutcome {
    /// Pattern I: the hull (hence the skyline) did not change.
    Unchanged,
    /// Simple hull change, patterns II–V: the hulls agree on every vertex
    /// except the moved point. The movements the paper's VCS² patches
    /// incrementally.
    Incremental,
    /// Complex hull change (the paper's pattern (f) and the like): the
    /// movements for which the paper, too, re-runs VS².
    Recomputed,
}

/// Aggregate counters over the lifetime of a [`ContinuousSkyline`].
#[derive(Clone, Copy, Debug, Default)]
pub struct OutcomeCounts {
    /// Updates classified [`UpdateOutcome::Unchanged`] (free).
    pub unchanged: u64,
    /// Updates classified [`UpdateOutcome::Incremental`] (simple hull
    /// change, patterns II–V).
    pub incremental: u64,
    /// Updates classified [`UpdateOutcome::Recomputed`] (complex hull
    /// change).
    pub recomputed: u64,
}

impl OutcomeCounts {
    /// Total updates processed.
    pub fn total(&self) -> u64 {
        self.unchanged + self.incremental + self.recomputed
    }
}

/// The maintained continuous spatial skyline over a moving query set.
///
/// Generic over how the index is held: `I` can be a plain borrow
/// (`&VoronoiIndex`, the library default) or a shared-ownership handle
/// such as `Arc<VoronoiIndex>` — anything that derefs to the index. The
/// latter lets long-lived serving layers (see the `ssq-engine` crate)
/// keep many concurrent sessions alive over one immutable index snapshot
/// without tying session lifetimes to a stack borrow.
///
/// Each operation has one body, run on an arena the caller lends (the
/// `_in` forms); the plain forms lend the session's own. See the module
/// docs.
pub struct ContinuousSkyline<I = &'static VoronoiIndex>
where
    I: std::ops::Deref<Target = VoronoiIndex>,
{
    index: I,
    query: Vec<Point>,
    ctx: QueryContext,
    /// Current skyline ids, sorted ascending.
    skyline: Vec<u32>,
    counts: OutcomeCounts,
    /// The arena [`ContinuousSkyline::new`] and
    /// [`ContinuousSkyline::update`] lend, warm across their calls. A
    /// session driven only through the `_in` forms never grows it.
    scratch: DistanceScratch,
}

impl<I> ContinuousSkyline<I>
where
    I: std::ops::Deref<Target = VoronoiIndex>,
{
    /// Initializes the skyline for query set `q` with a fresh VS² run on
    /// an arena the session keeps for its later [`ContinuousSkyline::update`]s.
    pub fn new(index: I, q: &[Point]) -> ContinuousSkyline<I> {
        let mut scratch = DistanceScratch::new();
        let mut session = Self::new_in(&mut scratch, index, q);
        session.scratch = scratch;
        session
    }

    /// Initializes the skyline for query set `q` with a fresh VS² run on
    /// `scratch`; the session itself holds no arena.
    pub fn new_in(scratch: &mut DistanceScratch, index: I, q: &[Point]) -> ContinuousSkyline<I> {
        let mut session = ContinuousSkyline {
            index,
            query: q.to_vec(),
            ctx: QueryContext::new(q),
            skyline: Vec::new(),
            counts: OutcomeCounts::default(),
            scratch: DistanceScratch::default(),
        };
        session.rerun(scratch);
        session
    }

    /// Moves the session onto `index` — the next generation of the
    /// dataset — and recomputes the skyline there on `scratch`. Ids of
    /// the old index mean nothing in the new one, and Theorem 2's free
    /// pass holds only while the data stands still, so this is always one
    /// VS² run. The previous index handle is dropped.
    pub fn rehome_in(&mut self, scratch: &mut DistanceScratch, index: I) -> QueryStats {
        self.index = index;
        self.rerun(scratch)
    }

    /// VS² for the current query set on `scratch`.
    fn rerun(&mut self, scratch: &mut DistanceScratch) -> QueryStats {
        let result = vs2_kernel(&self.index, &self.ctx, scratch);
        self.skyline = result.skyline;
        result.stats
    }

    /// The current query set.
    pub fn query(&self) -> &[Point] {
        &self.query
    }

    /// The current skyline, sorted ascending.
    pub fn skyline(&self) -> Vec<u32> {
        self.skyline.clone()
    }

    /// The current skyline as a [`SkylineResult`] (zeroed stats).
    pub fn result(&self) -> SkylineResult {
        SkylineResult {
            skyline: self.skyline(),
            stats: QueryStats::default(),
        }
    }

    /// Outcome counters since construction — the paper's "fraction of
    /// movements requiring recomputation" statistic.
    pub fn counts(&self) -> OutcomeCounts {
        self.counts
    }

    /// [`ContinuousSkyline::update_in`] on the session's own arena.
    pub fn update(&mut self, obj: usize, new_loc: Point) -> (UpdateOutcome, QueryStats) {
        let mut scratch = std::mem::take(&mut self.scratch);
        let updated = self.update_in(&mut scratch, obj, new_loc);
        self.scratch = scratch;
        updated
    }

    /// Applies one location update: query object `obj` moved to `new_loc`.
    /// A rerun, if the move needs one, runs on `scratch`. Returns how the
    /// update was handled plus its cost.
    ///
    /// # Panics
    ///
    /// Panics if `obj` is not below `self.query().len()`.
    pub fn update_in(
        &mut self,
        scratch: &mut DistanceScratch,
        obj: usize,
        new_loc: Point,
    ) -> (UpdateOutcome, QueryStats) {
        assert!(obj < self.query.len(), "query object index out of range");
        let old_loc = self.query[obj];
        if old_loc == new_loc {
            self.counts.unchanged += 1;
            return (UpdateOutcome::Unchanged, QueryStats::default());
        }
        if self.index.is_empty() {
            // No data points: the skyline is empty wherever the query
            // moves, so the hull change is not classified.
            self.query[obj] = new_loc;
            self.ctx = QueryContext::new(&self.query);
            self.counts.unchanged += 1;
            return (UpdateOutcome::Unchanged, QueryStats::default());
        }

        let old_ctx = std::mem::replace(&mut self.ctx, {
            self.query[obj] = new_loc;
            QueryContext::new(&self.query)
        });

        // Pattern I: both endpoints interior — hull unchanged, skyline
        // unchanged.
        if old_ctx.hull().vertex_index(old_loc).is_none()
            && self.ctx.hull().vertex_index(new_loc).is_none()
        {
            debug_assert_eq!(old_ctx.anchors(), self.ctx.anchors());
            self.counts.unchanged += 1;
            return (UpdateOutcome::Unchanged, QueryStats::default());
        }

        // Every other move re-runs VS²; whether the hulls agree on every
        // vertex except q/q' ("simple", patterns II-V) only decides which
        // counter it lands in.
        let outcome =
            if hulls_differ_only_at(old_ctx.anchors(), old_loc, self.ctx.anchors(), new_loc) {
                self.counts.incremental += 1;
                UpdateOutcome::Incremental
            } else {
                self.counts.recomputed += 1;
                UpdateOutcome::Recomputed
            };
        (outcome, self.rerun(scratch))
    }
}

/// `true` when the two hull vertex sets agree after removing `old_loc`
/// from the first and `new_loc` from the second — the paper's "simple"
/// change patterns II–V.
fn hulls_differ_only_at(
    old_anchors: &[Point],
    old_loc: Point,
    new_anchors: &[Point],
    new_loc: Point,
) -> bool {
    let strip = |anchors: &[Point], skip: Point| -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = anchors
            .iter()
            .filter(|&&a| a != skip)
            .map(|a| (a.x.to_bits(), a.y.to_bits()))
            .collect();
        v.sort_unstable();
        v
    };
    strip(old_anchors, old_loc) == strip(new_anchors, new_loc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_full;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn pseudorandom(n: usize, seed: u64) -> Vec<Point> {
        let mut s = seed.max(1);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n).map(|_| p(next(), next())).collect()
    }

    /// Drives a random walk of single-point updates and asserts the
    /// maintained skyline equals a fresh naive computation after every
    /// step.
    fn run_stream(points: &[Point], mut q: Vec<Point>, steps: usize, seed: u64) -> OutcomeCounts {
        let idx = VoronoiIndex::new(points).unwrap();
        let mut cont = ContinuousSkyline::new(&idx, &q);
        let mut s = seed.max(1);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        for step in 0..steps {
            let obj = (step * 7 + 3) % q.len();
            let cur = q[obj];
            let np = p(
                (cur.x + (next() - 0.5) * 0.08).clamp(0.0, 1.0),
                (cur.y + (next() - 0.5) * 0.08).clamp(0.0, 1.0),
            );
            q[obj] = np;
            let (outcome, _) = cont.update(obj, np);
            let want = naive_full(points, &QueryContext::new(&q));
            assert_eq!(
                cont.skyline(),
                want.skyline,
                "divergence at step {step} (outcome {outcome:?}, obj {obj} -> {np:?}, q = {q:?})"
            );
        }
        cont.counts()
    }

    #[test]
    fn stream_of_updates_stays_exact() {
        let points = pseudorandom(120, 11);
        let q: Vec<Point> = pseudorandom(5, 999)
            .into_iter()
            .map(|v| p(0.4 + v.x * 0.2, 0.4 + v.y * 0.2))
            .collect();
        let counts = run_stream(&points, q, 60, 42);
        assert_eq!(counts.total(), 60);
        // With 5 clustered movers, most updates must avoid recomputation.
        assert!(
            counts.unchanged + counts.incremental > counts.recomputed,
            "{counts:?}"
        );
    }

    #[test]
    fn stream_with_two_query_points() {
        // |Q| = 2: the hull is a degenerate segment; every move touches a
        // hull vertex and the visible regions degrade to the whole plane.
        let points = pseudorandom(80, 23);
        let q = vec![p(0.45, 0.5), p(0.55, 0.5)];
        run_stream(&points, q, 40, 7);
    }

    #[test]
    fn stream_with_many_query_points() {
        let points = pseudorandom(100, 37);
        let q: Vec<Point> = pseudorandom(9, 888)
            .into_iter()
            .map(|v| p(0.3 + v.x * 0.4, 0.3 + v.y * 0.4))
            .collect();
        let counts = run_stream(&points, q, 50, 99);
        // With 9 points, interior moves (pattern I) must appear.
        assert!(counts.unchanged > 0, "{counts:?}");
    }

    #[test]
    fn interior_move_is_free() {
        let points = pseudorandom(60, 5);
        // A square of query points plus one strictly interior point.
        let q = vec![
            p(0.2, 0.2),
            p(0.8, 0.2),
            p(0.8, 0.8),
            p(0.2, 0.8),
            p(0.5, 0.5),
        ];
        let idx = VoronoiIndex::new(&points).unwrap();
        let mut cont = ContinuousSkyline::new(&idx, &q);
        let before = cont.skyline();
        let (outcome, stats) = cont.update(4, p(0.55, 0.45)); // still interior
        assert_eq!(outcome, UpdateOutcome::Unchanged);
        assert_eq!(stats.points_examined, 0);
        assert_eq!(cont.skyline(), before);
    }

    #[test]
    fn vertex_move_is_incremental() {
        let points = pseudorandom(60, 6);
        let q = vec![p(0.2, 0.2), p(0.8, 0.2), p(0.5, 0.8)];
        let idx = VoronoiIndex::new(&points).unwrap();
        let mut cont = ContinuousSkyline::new(&idx, &q);
        // Small move of a hull vertex that keeps the other two vertices.
        let (outcome, _) = cont.update(2, p(0.52, 0.82));
        assert_eq!(outcome, UpdateOutcome::Incremental);
        let want = naive_full(
            &points,
            &QueryContext::new(&[p(0.2, 0.2), p(0.8, 0.2), p(0.52, 0.82)]),
        );
        assert_eq!(cont.skyline(), want.skyline);
    }

    #[test]
    fn empty_dataset_never_panics() {
        let idx = VoronoiIndex::new(&[]).unwrap();
        let mut cont = ContinuousSkyline::new(&idx, &[p(0.2, 0.2), p(0.8, 0.8)]);
        assert!(cont.skyline().is_empty());
        for step in 0..10 {
            let t = step as f64 / 10.0;
            let (outcome, _) = cont.update(step % 2, p(t, 1.0 - t));
            assert_eq!(outcome, UpdateOutcome::Unchanged);
            assert!(cont.skyline().is_empty());
        }
    }

    #[test]
    fn sessions_sharing_one_arena_match_their_owned_arena_twins() {
        // Three sessions take turns on one arena across two indexes of
        // different site bounds, one of them re-homed mid-stream; each
        // twin runs the same moves on an arena of its own.
        let data = [pseudorandom(300, 41), pseudorandom(520, 43)];
        let indexes = [
            VoronoiIndex::new(&data[0]).unwrap(),
            VoronoiIndex::new(&data[1]).unwrap(),
        ];
        assert_ne!(indexes[0].site_bound(), indexes[1].site_bound());
        let mut home = [0usize, 1, 0];
        let mut qs: Vec<Vec<Point>> = (0..3u64)
            .map(|s| {
                pseudorandom(3 + s as usize, 700 + s)
                    .into_iter()
                    .map(|v| p(0.35 + v.x * 0.3, 0.35 + v.y * 0.3))
                    .collect()
            })
            .collect();
        let mut shared = DistanceScratch::new();
        let mut sessions: Vec<ContinuousSkyline<&VoronoiIndex>> = (0..3)
            .map(|s| ContinuousSkyline::new_in(&mut shared, &indexes[home[s]], &qs[s]))
            .collect();
        let mut twins: Vec<ContinuousSkyline<&VoronoiIndex>> = (0..3)
            .map(|s| ContinuousSkyline::new(&indexes[home[s]], &qs[s]))
            .collect();
        let exact = |home: usize, q: &[Point]| naive_full(&data[home], &QueryContext::new(q));
        for s in 0..3 {
            assert_eq!(sessions[s].skyline(), twins[s].skyline(), "open {s}");
            assert_eq!(sessions[s].skyline(), exact(home[s], &qs[s]).skyline);
        }
        let mut moves = pseudorandom(60, 0x5CA7).into_iter();
        let mut reruns = 0;
        for step in 0..60 {
            let s = step % 3;
            if step == 30 {
                // Session 0 follows its data onto the larger index.
                home[0] = 1;
                let got = sessions[0].rehome_in(&mut shared, &indexes[1]);
                let want = twins[0].rehome_in(&mut DistanceScratch::new(), &indexes[1]);
                assert_eq!(sessions[0].skyline(), twins[0].skyline(), "rehome");
                assert_eq!(sessions[0].skyline(), exact(1, &qs[0]).skyline);
                assert_eq!(got.node_accesses, want.node_accesses, "rehome");
            }
            let obj = (step / 3) % qs[s].len();
            let (d, cur) = (moves.next().unwrap(), qs[s][obj]);
            qs[s][obj] = p(
                (cur.x + (d.x - 0.5) * 0.1).clamp(0.0, 1.0),
                (cur.y + (d.y - 0.5) * 0.1).clamp(0.0, 1.0),
            );
            let (outcome, got) = sessions[s].update_in(&mut shared, obj, qs[s][obj]);
            let (twin_outcome, want) = twins[s].update(obj, qs[s][obj]);
            assert_eq!(outcome, twin_outcome, "step {step}");
            assert_eq!(sessions[s].skyline(), twins[s].skyline(), "step {step}");
            assert_eq!(
                sessions[s].skyline(),
                exact(home[s], &qs[s]).skyline,
                "step {step}"
            );
            assert_eq!(got.node_accesses, want.node_accesses, "step {step}");
            reruns += usize::from(outcome != UpdateOutcome::Unchanged);
        }
        assert!(reruns > 20, "most moves must re-run VS²: {reruns}");
    }

    #[test]
    fn no_op_update_is_unchanged() {
        let points = pseudorandom(40, 3);
        let q = vec![p(0.3, 0.3), p(0.7, 0.6)];
        let idx = VoronoiIndex::new(&points).unwrap();
        let mut cont = ContinuousSkyline::new(&idx, &q);
        let (outcome, _) = cont.update(0, p(0.3, 0.3));
        assert_eq!(outcome, UpdateOutcome::Unchanged);
    }
}
