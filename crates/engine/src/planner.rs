//! The adaptive planner: which algorithm should serve this query?
//!
//! The paper's experiments (§7) rank the algorithms by regime, and the
//! planner encodes that ranking as a small decision tree:
//!
//! * **Tiny datasets** — index traversal overhead dominates; a sorted
//!   scan ([`naive_sorted`](ssq_core::naive_sorted)) wins outright below
//!   a cutoff (default 64 points).
//! * **One anchor** — the skyline of a lone point `q` is `NN(q)` and its
//!   ties (Lemma 1), which is where VS²'s walk ends: 1.0 µs against
//!   B²S²'s 19.3 µs (1 500 one-point sets over 200k clustered points).
//! * **Segment hulls** — at 2 anchors the pruning rectangle `B` VS² walks
//!   stays wide, while B²S²'s rectangle screen keeps its work down, so
//!   B²S² is preferred.
//! * **Everything else** — VS² is the paper's overall winner (Fig. 12):
//!   it visits a neighborhood of `CH(Q)` instead of descending from the
//!   R-tree root.
//!
//! A forced algorithm (engine-wide via
//! [`EngineConfig`](crate::EngineConfig), or per request via
//! [`QueryRequest`](crate::QueryRequest)) bypasses the heuristic — that
//! is what lets benchmarks compare plans on identical workloads.

use ssq_core::QueryContext;

/// The serving algorithms the engine can plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Sorted naive scan (`naive_sorted`) — no index.
    Naive,
    /// BBS adapted to spatial skylines (the paper's competitor, §7).
    Bbs,
    /// B²S² on the R*-tree (§4.1).
    B2s2,
    /// VS² on the Voronoi index (§4.2).
    Vs2,
}

impl Algorithm {
    /// Every algorithm, in [`Algorithm::index`] order.
    pub const ALL: [Algorithm; 4] = [
        Algorithm::Naive,
        Algorithm::Bbs,
        Algorithm::B2s2,
        Algorithm::Vs2,
    ];

    /// Dense index (for metrics arrays).
    pub fn index(self) -> usize {
        match self {
            Algorithm::Naive => 0,
            Algorithm::Bbs => 1,
            Algorithm::B2s2 => 2,
            Algorithm::Vs2 => 3,
        }
    }

    /// Lower-case name, matching the CLI's `--algo` values.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Naive => "naive",
            Algorithm::Bbs => "bbs",
            Algorithm::B2s2 => "b2s2",
            Algorithm::Vs2 => "vs2",
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Algorithm {
    type Err = String;

    fn from_str(s: &str) -> Result<Algorithm, String> {
        match s {
            "naive" => Ok(Algorithm::Naive),
            "bbs" => Ok(Algorithm::Bbs),
            "b2s2" => Ok(Algorithm::B2s2),
            "vs2" => Ok(Algorithm::Vs2),
            other => Err(format!(
                "unknown algorithm '{other}' (expected naive|bbs|b2s2|vs2)"
            )),
        }
    }
}

/// Chooses the algorithm for each query from dataset size and hull shape.
#[derive(Clone, Copy, Debug)]
pub struct Planner {
    force: Option<Algorithm>,
    naive_cutoff: usize,
}

impl Planner {
    /// Default `|P|` below which the sorted naive scan is chosen.
    pub const DEFAULT_NAIVE_CUTOFF: usize = 64;

    /// An adaptive planner; `force` pins every choice to one algorithm.
    pub fn new(force: Option<Algorithm>) -> Planner {
        Planner {
            force,
            naive_cutoff: Self::DEFAULT_NAIVE_CUTOFF,
        }
    }

    /// Overrides the naive cutoff (useful in tests).
    pub fn with_naive_cutoff(mut self, cutoff: usize) -> Planner {
        self.naive_cutoff = cutoff;
        self
    }

    /// The engine-wide forced algorithm, if any.
    pub fn forced(&self) -> Option<Algorithm> {
        self.force
    }

    /// Picks the algorithm for a query over `data_len` points.
    pub fn choose(&self, data_len: usize, ctx: &QueryContext) -> Algorithm {
        self.choose_for_anchors(data_len, ctx.anchors().len())
    }

    /// [`choose`](Self::choose) given only the anchor count — used by the
    /// diagram hit path, which never materializes a [`QueryContext`].
    pub fn choose_for_anchors(&self, data_len: usize, anchors: usize) -> Algorithm {
        if let Some(forced) = self.force {
            return forced;
        }
        if data_len < self.naive_cutoff {
            Algorithm::Naive
        } else if anchors == 2 || anchors == 0 {
            Algorithm::B2s2
        } else {
            Algorithm::Vs2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssq_geom::Point;

    fn ctx(q: &[(f64, f64)]) -> QueryContext {
        let pts: Vec<Point> = q.iter().map(|&(x, y)| Point::new(x, y)).collect();
        QueryContext::new(&pts)
    }

    #[test]
    fn small_datasets_scan() {
        let planner = Planner::new(None);
        let c = ctx(&[(0.0, 0.0), (1.0, 0.0), (0.5, 1.0)]);
        assert_eq!(planner.choose(10, &c), Algorithm::Naive);
        assert_eq!(planner.choose(63, &c), Algorithm::Naive);
        assert_eq!(planner.choose(64, &c), Algorithm::Vs2);
    }

    #[test]
    fn segment_hulls_use_the_rtree_and_single_points_the_walk() {
        let planner = Planner::new(None);
        // Collinear query points: the hull is a segment, 2 anchors.
        let segment = ctx(&[(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)]);
        assert_eq!(segment.anchors().len(), 2);
        assert_eq!(planner.choose(10_000, &segment), Algorithm::B2s2);
        // A single query point, and one repeated: 1 anchor.
        for q in [&[(0.3, 0.7)][..], &[(0.3, 0.7), (0.3, 0.7)]] {
            let point = ctx(q);
            assert_eq!(point.anchors().len(), 1);
            assert_eq!(planner.choose(10_000, &point), Algorithm::Vs2);
        }
        assert_eq!(planner.choose_for_anchors(10_000, 1), Algorithm::Vs2);
        assert_eq!(planner.choose_for_anchors(10, 1), Algorithm::Naive);
    }

    #[test]
    fn proper_hulls_use_voronoi() {
        let planner = Planner::new(None);
        let c = ctx(&[(0.0, 0.0), (1.0, 0.0), (0.5, 1.0), (0.5, 0.4)]);
        assert_eq!(planner.choose(10_000, &c), Algorithm::Vs2);
    }

    #[test]
    fn force_wins_over_every_heuristic() {
        let planner = Planner::new(Some(Algorithm::Bbs));
        let c = ctx(&[(0.0, 0.0), (1.0, 0.0), (0.5, 1.0)]);
        assert_eq!(planner.choose(3, &c), Algorithm::Bbs);
        assert_eq!(planner.choose(1_000_000, &c), Algorithm::Bbs);
    }

    #[test]
    fn algorithm_names_round_trip() {
        for algo in Algorithm::ALL {
            assert_eq!(algo.name().parse::<Algorithm>().unwrap(), algo);
        }
        assert!("quantum".parse::<Algorithm>().is_err());
    }
}
