//! Continuous **mixed** skylines: maintaining `S(A, Q)` while the query
//! points move.
//!
//! §6 of the paper closes with "our B²S², VS², and VCS² algorithms answer
//! SSQs when mixed with non-spatial attributes". For the continuous case
//! the Pattern-I shortcut carries over directly: if neither the old nor
//! the new location of the moved object is a hull vertex, `CH(Q)` — and
//! with it the entire spatial side of the combined dominance — is
//! untouched, so `S(A, Q)` is unchanged and the update is free. Any other
//! update recomputes with the mixed VS² (whose Lemma-7 bound depends only
//! on `S(A)` and the hull vertices, both of which we keep cached).

use ssq_geom::Point;

use crate::index::VoronoiIndex;
use crate::mixed::{mixed_vs2, MixedContext};
use crate::query::QueryContext;
use crate::stats::QueryStats;
use crate::vcs2::{OutcomeCounts, UpdateOutcome};

/// A maintained mixed skyline `S(A, Q)` over a moving query set.
pub struct ContinuousMixedSkyline<'a> {
    index: &'a VoronoiIndex,
    attrs: &'a [Vec<f64>],
    query: Vec<Point>,
    ctx: QueryContext,
    skyline: Vec<u32>,
    counts: OutcomeCounts,
}

impl<'a> ContinuousMixedSkyline<'a> {
    /// Initializes the mixed skyline for query set `q`.
    pub fn new(
        index: &'a VoronoiIndex,
        attrs: &'a [Vec<f64>],
        q: &[Point],
    ) -> ContinuousMixedSkyline<'a> {
        let ctx = QueryContext::new(q);
        let skyline = {
            let mctx = MixedContext::over(index, attrs, &ctx);
            mixed_vs2(index, &mctx).skyline
        };
        ContinuousMixedSkyline {
            index,
            attrs,
            query: q.to_vec(),
            ctx,
            skyline,
            counts: OutcomeCounts::default(),
        }
    }

    /// The current mixed skyline, sorted ascending.
    pub fn skyline(&self) -> &[u32] {
        &self.skyline
    }

    /// The current query set.
    pub fn query(&self) -> &[Point] {
        &self.query
    }

    /// Outcome counters since construction.
    pub fn counts(&self) -> OutcomeCounts {
        self.counts
    }

    /// Applies one location update.
    pub fn update(&mut self, obj: usize, new_loc: Point) -> (UpdateOutcome, QueryStats) {
        assert!(obj < self.query.len(), "query object index out of range");
        let old_loc = self.query[obj];
        if old_loc == new_loc {
            self.counts.unchanged += 1;
            return (UpdateOutcome::Unchanged, QueryStats::default());
        }
        let old_ctx = std::mem::replace(&mut self.ctx, {
            self.query[obj] = new_loc;
            QueryContext::new(&self.query)
        });

        // Pattern I: interior-to-interior move leaves CH(Q), and with it
        // the spatial half of the combined dominance, untouched.
        if old_ctx.hull().vertex_index(old_loc).is_none()
            && self.ctx.hull().vertex_index(new_loc).is_none()
        {
            debug_assert_eq!(old_ctx.anchors(), self.ctx.anchors());
            self.counts.unchanged += 1;
            return (UpdateOutcome::Unchanged, QueryStats::default());
        }

        let mctx = MixedContext::over(self.index, self.attrs, &self.ctx);
        let result = mixed_vs2(self.index, &mctx);
        self.skyline = result.skyline;
        self.counts.recomputed += 1;
        (UpdateOutcome::Recomputed, result.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mixed::mixed_naive;

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

    #[test]
    fn stream_stays_exact() {
        let points = pseudorandom(80, 11);
        let attrs: Vec<Vec<f64>> = pseudorandom(80, 12)
            .into_iter()
            .map(|v| vec![v.x, v.y])
            .collect();
        let idx = VoronoiIndex::new(&points).unwrap();
        let mut q: Vec<Point> = pseudorandom(5, 13)
            .into_iter()
            .map(|v| p(0.4 + v.x * 0.2, 0.4 + v.y * 0.2))
            .collect();
        let mut cont = ContinuousMixedSkyline::new(&idx, &attrs, &q);
        let mut s = 99u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        for step in 0..40 {
            let obj = step % q.len();
            let np = p(
                (q[obj].x + (next() - 0.5) * 0.06).clamp(0.0, 1.0),
                (q[obj].y + (next() - 0.5) * 0.06).clamp(0.0, 1.0),
            );
            q[obj] = np;
            cont.update(obj, np);
            let ctx = QueryContext::new(&q);
            let mctx = MixedContext::new(&points, &attrs, &ctx);
            let want = mixed_naive(&points, &mctx);
            assert_eq!(cont.skyline(), &want.skyline[..], "step {step}");
        }
    }

    #[test]
    fn interior_moves_are_free() {
        let points = pseudorandom(50, 21);
        let attrs: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let idx = VoronoiIndex::new(&points).unwrap();
        let q = vec![
            p(0.1, 0.1),
            p(0.9, 0.1),
            p(0.9, 0.9),
            p(0.1, 0.9),
            p(0.5, 0.5),
        ];
        let mut cont = ContinuousMixedSkyline::new(&idx, &attrs, &q);
        let before = cont.skyline().to_vec();
        let (outcome, stats) = cont.update(4, p(0.52, 0.48));
        assert_eq!(outcome, UpdateOutcome::Unchanged);
        assert_eq!(stats.points_examined, 0);
        assert_eq!(cont.skyline(), &before[..]);
        assert_eq!(cont.counts().unchanged, 1);
    }
}
