//! # ssq-bench
//!
//! The experiment harness reproducing §7 of *The Spatial Skyline Queries*.
//!
//! Each experiment of the paper maps to one function here; the `reproduce`
//! binary prints them as tables. Absolute numbers differ from the 2006
//! testbed; the comparisons (who wins, by what factor, in which direction
//! each curve moves) are the reproduction target — see EXPERIMENTS.md.
//! Measuring the *served* query is a different job, done by the package
//! under `src/bin/benchmark/` that `BENCHMARK.json` declares.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::all)]

use std::time::Instant;

use ssq_core::mixed::{mixed_b2s2, mixed_naive, mixed_vs2, MixedContext};
use ssq_core::{
    b2s2, bbs, vs2_kernel, vs2_with, ContinuousSkyline, DistanceScratch, QueryContext, RTreeIndex,
    VoronoiIndex, VsExpansion,
};
use ssq_geom::Point;
use ssq_workload::motion::{MotionConfig, MovingQuerySet};
use ssq_workload::queries::{random_query_set, QueryConfig};
use ssq_workload::rng::Xoshiro256;
use ssq_workload::usgs::{synthetic_usgs, UsgsConfig, CATEGORY_MIX};

/// Which algorithm a measurement row belongss to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    /// The BBS competitor baseline.
    Bbs,
    /// B²S².
    B2s2,
    /// VS² (safe expansion).
    Vs2,
}

impl std::fmt::Display for Algo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Algo::Bbs => write!(f, "BBS"),
            Algo::B2s2 => write!(f, "B2S2"),
            Algo::Vs2 => write!(f, "VS2"),
        }
    }
}

/// Averaged costs of one algorithm at one experiment setting.
#[derive(Clone, Copy, Debug, Default)]
pub struct Costs {
    /// Mean wall-clock time per query, milliseconds.
    pub time_ms: f64,
    /// Mean dominance checks per query.
    pub dominance_checks: f64,
    /// Mean index node/page accesses per query.
    pub node_accesses: f64,
    /// Mean skyline size.
    pub skyline_size: f64,
}

/// The shared experimental fixture: one dataset with both physical
/// designs built over it.
pub struct Fixture {
    /// The data points.
    pub points: Vec<Point>,
    /// R*-tree (BBS, B²S²).
    pub rtree: RTreeIndex,
    /// Delaunay graph + paged adjacency (VS², VCS²).
    pub voronoi: VoronoiIndex,
}

impl Fixture {
    /// Builds the fixture over the synthetic USGS dataset of size `n`.
    pub fn usgs(n: usize, seed: u64) -> Fixture {
        let points: Vec<Point> = synthetic_usgs(&UsgsConfig {
            n,
            seed,
            ..UsgsConfig::default()
        })
        .iter()
        .map(|u| u.location)
        .collect();
        Self::from_points(points)
    }

    /// Builds the fixture over an explicit point set.
    pub fn from_points(points: Vec<Point>) -> Fixture {
        let rtree = RTreeIndex::new(&points);
        let voronoi = VoronoiIndex::new(&points).expect("distinct points");
        Fixture {
            points,
            rtree,
            voronoi,
        }
    }
}

/// Runs `algo` once and returns `(time_ms, stats, skyline_len)`.
pub fn run_once(
    fix: &Fixture,
    algo: Algo,
    ctx: &QueryContext,
) -> (f64, ssq_core::QueryStats, usize) {
    let t0 = Instant::now();
    let result = match algo {
        Algo::Bbs => bbs(&fix.rtree, ctx),
        Algo::B2s2 => b2s2(&fix.rtree, ctx),
        Algo::Vs2 => vs2_with(&fix.voronoi, ctx, VsExpansion::Safe),
    };
    let dt = t0.elapsed().as_secs_f64() * 1e3;
    (dt, result.stats, result.skyline.len())
}

/// Averages `algo` over a batch of random query sets.
pub fn run_batch(
    fix: &Fixture,
    algo: Algo,
    count: usize,
    mbr_area_fraction: f64,
    batch: usize,
    seed: u64,
) -> Costs {
    let mut acc = Costs::default();
    for k in 0..batch {
        let q = random_query_set(&QueryConfig {
            count,
            mbr_area_fraction,
            universe: ssq_workload::usgs::universe(),
            seed: seed.wrapping_add(k as u64 * 7919),
        });
        let ctx = QueryContext::new(&q);
        let (t, stats, len) = run_once(fix, algo, &ctx);
        acc.time_ms += t;
        acc.dominance_checks += stats.dominance_checks as f64;
        acc.node_accesses += stats.node_accesses as f64;
        acc.skyline_size += len as f64;
    }
    let b = batch as f64;
    Costs {
        time_ms: acc.time_ms / b,
        dominance_checks: acc.dominance_checks / b,
        node_accesses: acc.node_accesses / b,
        skyline_size: acc.skyline_size / b,
    }
}

/// One row of the continuous (§5) experiment.
#[derive(Clone, Copy, Debug)]
pub struct ContinuousRow {
    /// Number of moving query objects.
    pub query_count: usize,
    /// Fraction of updates with outcome Unchanged (pattern I).
    pub unchanged_frac: f64,
    /// Fraction classified Incremental (simple hull change, patterns
    /// II-V).
    pub incremental_frac: f64,
    /// Fraction classified Recomputed (complex hull change) — the
    /// movements for which the paper re-runs VS².
    pub recomputed_frac: f64,
    /// Mean session update time (ms), over all updates.
    pub vcs2_ms: f64,
    /// Mean session update time (ms) over the *non-recompute* updates
    /// only — the population the paper's "factor of 3" speedup claim
    /// refers to ("For the other 97% of movements, VCS² outperforms
    /// VS²...").
    pub vcs2_fast_ms: f64,
    /// Mean from-scratch `vs2_kernel` time (ms) on the same states.
    pub vs2_ms: f64,
}

/// Runs the continuous experiment for one `|Q|`: streams `updates`
/// movements through a session, then replays the same stream answering
/// every state from scratch with the same kernel on a warm arena. Two
/// passes, so both sides meet the caches the way a running system would
/// (interleaved, whichever side ran second found the first one's sites
/// warm); the ratio is what Theorem 2's free passes buy.
pub fn run_continuous(
    fix: &Fixture,
    query_count: usize,
    updates: usize,
    step: f64,
    seed: u64,
) -> ContinuousRow {
    let motion = MotionConfig {
        count: query_count,
        step,
        start_box: 0.05,
        seed,
        ..MotionConfig::default()
    };

    let mut team = MovingQuerySet::new(motion);
    let mut cont = ContinuousSkyline::new(&fix.voronoi, team.positions());
    let mut vcs2_time = 0.0;
    let mut vcs2_fast_time = 0.0;
    let mut fast_updates = 0usize;
    for _ in 0..updates {
        let up = team.next_update();
        let t0 = Instant::now();
        let (outcome, _) = cont.update(up.index, up.location);
        let dt = t0.elapsed().as_secs_f64() * 1e3;
        vcs2_time += dt;
        if outcome != ssq_core::UpdateOutcome::Recomputed {
            vcs2_fast_time += dt;
            fast_updates += 1;
        }
    }

    let mut team = MovingQuerySet::new(motion);
    let mut scratch = DistanceScratch::new();
    let mut vs2_time = 0.0;
    for _ in 0..updates {
        team.next_update();
        let t0 = Instant::now();
        let ctx = QueryContext::new(team.positions());
        let _ = vs2_kernel(&fix.voronoi, &ctx, &mut scratch);
        vs2_time += t0.elapsed().as_secs_f64() * 1e3;
    }

    let counts = cont.counts();
    let total = counts.total() as f64;
    ContinuousRow {
        query_count,
        unchanged_frac: counts.unchanged as f64 / total,
        incremental_frac: counts.incremental as f64 / total,
        recomputed_frac: counts.recomputed as f64 / total,
        vcs2_ms: vcs2_time / updates as f64,
        vcs2_fast_ms: vcs2_fast_time / fast_updates.max(1) as f64,
        vs2_ms: vs2_time / updates as f64,
    }
}

/// One row of the mixed-skyline experiment.
#[derive(Clone, Copy, Debug)]
pub struct MixedRow {
    /// Number of static attributes.
    pub attr_count: usize,
    /// |S(A)|.
    pub static_size: usize,
    /// |S(Q)|.
    pub spatial_size: usize,
    /// |S(A, Q)|.
    pub mixed_size: usize,
    /// Naive oracle time (ms).
    pub naive_ms: f64,
    /// Mixed B²S² time (ms).
    pub b2s2_ms: f64,
    /// Mixed VS² time (ms).
    pub vs2_ms: f64,
}

/// Runs the §6 mixed-skyline experiment for one attribute arity.
pub fn run_mixed(fix: &Fixture, attr_count: usize, seed: u64) -> MixedRow {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let attrs: Vec<Vec<f64>> = (0..fix.points.len())
        .map(|_| (0..attr_count).map(|_| rng.f64()).collect())
        .collect();
    let q = random_query_set(&QueryConfig::paper_default(5, seed ^ 0xABCD));
    let ctx = QueryContext::new(&q);
    let mctx = MixedContext::new(&fix.points, &attrs, &ctx);

    let t0 = Instant::now();
    let naive = mixed_naive(&fix.points, &mctx);
    let naive_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    let rb = mixed_b2s2(&fix.rtree, &mctx);
    let b2s2_ms = t1.elapsed().as_secs_f64() * 1e3;
    let t2 = Instant::now();
    let rv = mixed_vs2(&fix.voronoi, &mctx);
    let vs2_ms = t2.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        naive.skyline, rb.skyline,
        "mixed B2S2 disagrees with oracle"
    );
    assert_eq!(naive.skyline, rv.skyline, "mixed VS2 disagrees with oracle");

    let spatial = b2s2(&fix.rtree, &ctx);
    MixedRow {
        attr_count,
        static_size: mctx.static_skyline().len(),
        spatial_size: spatial.skyline.len(),
        mixed_size: naive.skyline.len(),
        naive_ms,
        b2s2_ms,
        vs2_ms,
    }
}

/// Prints the Table 5 substitute: the synthetic dataset's category mix.
pub fn table5(n: usize, seed: u64) -> Vec<(String, usize, f64)> {
    let data = synthetic_usgs(&UsgsConfig {
        n,
        seed,
        ..UsgsConfig::default()
    });
    CATEGORY_MIX
        .iter()
        .map(|&(cat, target)| {
            let count = data.iter().filter(|u| u.category == cat).count();
            (format!("{cat:?}"), count, target)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_runner_produces_consistent_costs() {
        let fix = Fixture::usgs(800, 1);
        for algo in [Algo::Bbs, Algo::B2s2, Algo::Vs2] {
            let c = run_batch(&fix, algo, 4, 0.001, 3, 99);
            assert!(c.time_ms >= 0.0);
            assert!(c.skyline_size >= 1.0, "{algo}: empty skylines");
        }
    }

    #[test]
    fn algorithms_agree_inside_the_harness() {
        let fix = Fixture::usgs(600, 2);
        let q = random_query_set(&QueryConfig::paper_default(5, 7));
        let ctx = QueryContext::new(&q);
        let a = bbs(&fix.rtree, &ctx);
        let b = b2s2(&fix.rtree, &ctx);
        let c = vs2_with(&fix.voronoi, &ctx, VsExpansion::Safe);
        assert_eq!(a.skyline, b.skyline);
        assert_eq!(a.skyline, c.skyline);
    }

    #[test]
    fn continuous_runner_smoke() {
        let fix = Fixture::usgs(500, 3);
        let row = run_continuous(&fix, 4, 40, 0.01, 11);
        let total = row.unchanged_frac + row.incremental_frac + row.recomputed_frac;
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mixed_runner_smoke() {
        let fix = Fixture::usgs(300, 4);
        let row = run_mixed(&fix, 2, 21);
        assert!(row.mixed_size >= row.static_size.max(row.spatial_size));
    }

    #[test]
    fn table5_counts_sum_to_n() {
        let rows = table5(1000, 5);
        let total: usize = rows.iter().map(|r| r.1).sum();
        assert_eq!(total, 1000);
    }
}
