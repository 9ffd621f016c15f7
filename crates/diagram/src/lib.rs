//! # ssq-diagram
//!
//! Materialized skyline cells: answer hot spatial skyline queries by
//! point location instead of running a skyline algorithm.
//!
//! The *Skyline Diagram* (Liu et al., arXiv 1812.01663) and *Skyline
//! Queries in O(1) time?* (Sioutas et al., arXiv 1709.03949) both
//! precompute a partition of query space whose skyline is constant per
//! cell, so a query reduces to locating its cell. In the spatial-skyline
//! setting that partition depends on the anchor count:
//!
//! * **one anchor** (`|CHv(Q)| = 1`): the skyline is the set of nearest
//!   sites (Lemma 1), so the diagram is exactly the Voronoi diagram of
//!   `P` — which every `VoronoiIndex` already stores. Point location
//!   there is [`ssq_core::VoronoiIndex::nearest_ties`], exact over the
//!   whole plane and current for every generation; this crate
//!   materializes nothing for it;
//! * **two or three anchors**: the exact continuous diagram has 4–6
//!   degrees of freedom and is not worth materializing wholesale.
//!   Instead, cells are materialized *per canonical
//!   [`QueryKey`]* — the same quantized-hull
//!   partition the engine's context cache uses — for the hot keys
//!   observed in traffic or persisted by warm start. Every query landing
//!   in a materialized key cell is answered by copying the precomputed
//!   skyline.
//!
//! A [`SkylineDiagram`] is those key cells. Anything else — one anchor,
//! more anchors than configured, a key with no materialized cell — is a
//! **miss** here, and the caller falls back to the Voronoi index or its
//! planner. Hits are exact: key cells share the context cache's
//! documented quantization contract.
//!
//! A diagram is immutable and generation-stamped: it answers only for
//! the snapshot it was built against, and the owning engine retires it
//! together with that snapshot.

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![warn(clippy::all)]

use ssq_core::{naive_sorted_kernel, DistanceScratch, KeyScratch, QueryContext, QueryKey};
use ssq_geom::Point;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Construction knobs for a [`SkylineDiagram`].
#[derive(Clone, Copy, Debug)]
pub struct DiagramConfig {
    /// Largest `|CHv(Q)|` the diagram materializes key cells for; larger
    /// shapes always miss.
    pub max_anchors: usize,
    /// Cap on materialized key cells per diagram; excess warm keys are
    /// dropped (hottest first wins, in the order the caller supplies).
    pub max_cells: usize,
}

impl Default for DiagramConfig {
    fn default() -> DiagramConfig {
        DiagramConfig {
            max_anchors: 3,
            max_cells: 4096,
        }
    }
}

impl DiagramConfig {
    /// Validates the knobs, returning a description of the first problem.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_anchors == 0 {
            return Err("diagram max_anchors must be at least 1".into());
        }
        Ok(())
    }
}

/// Materialized multi-anchor cells: canonical query key → precomputed
/// skyline, stored as ranges into one flat id pool.
#[derive(Debug, Default)]
struct KeyCells {
    map: HashMap<QueryKey, (u32, u32)>,
    pool: Vec<u32>,
}

impl KeyCells {
    fn insert(&mut self, key: QueryKey, ids: &[u32]) {
        let start = self.pool.len() as u32;
        self.pool.extend_from_slice(ids);
        self.map.insert(key, (start, ids.len() as u32));
    }

    // ssq-analyze: deny-alloc
    fn lookup(&self, cells: &[(i64, i64)]) -> Option<&[u32]> {
        let &(start, len) = self.map.get(cells)?;
        Some(&self.pool[start as usize..(start + len) as usize])
    }
}

/// An immutable, generation-stamped skyline diagram over one dataset
/// snapshot. See the crate docs for what it can and cannot answer.
#[derive(Debug)]
pub struct SkylineDiagram {
    generation: u64,
    quantum: f64,
    max_anchors: usize,
    cells: KeyCells,
    build_time: Duration,
}

impl SkylineDiagram {
    /// Builds a diagram for `points` as snapshot `generation`.
    ///
    /// `quantum` must be the owning cache's coordinate quantum so key
    /// cells and cache entries partition query space identically. `keys`
    /// are the hot canonical keys to materialize cells for (from warm
    /// start or observed traffic); single-anchor keys are skipped (the
    /// Voronoi index answers every single-anchor query), as are keys
    /// wider than `config.max_anchors`, and at most `config.max_cells` cells
    /// are materialized in the order given. Returns `None` for an empty
    /// dataset.
    pub fn build(
        generation: u64,
        points: &[Point],
        keys: &[QueryKey],
        quantum: f64,
        config: &DiagramConfig,
    ) -> Option<SkylineDiagram> {
        assert!(quantum > 0.0, "quantum must be positive");
        if points.is_empty() {
            return None;
        }
        let start = Instant::now();
        let mut cells = KeyCells::default();
        let mut scratch = DistanceScratch::new();
        for key in keys {
            if key.len() < 2 || key.len() > config.max_anchors {
                continue;
            }
            if cells.map.len() >= config.max_cells {
                break;
            }
            let reps = key.representative_points(quantum);
            // Re-canonicalize the representatives: the key the probe
            // computes for an incoming query is derived the same way, so
            // storing under the round-tripped key guarantees agreement
            // even if the caller's key predates a quantum change.
            let canonical = QueryKey::canonical(&reps, quantum);
            if cells.map.contains_key(&canonical) {
                continue;
            }
            let ctx = QueryContext::new(&reps);
            let mut result = naive_sorted_kernel(points, &ctx, &mut scratch);
            result.skyline.sort_unstable();
            cells.insert(canonical, &result.skyline);
        }
        Some(SkylineDiagram {
            generation,
            quantum,
            max_anchors: config.max_anchors,
            cells,
            build_time: start.elapsed(),
        })
    }

    /// The snapshot generation this diagram answers for.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The coordinate quantum key cells are canonicalized with.
    pub fn quantum(&self) -> f64 {
        self.quantum
    }

    /// Materialized multi-anchor key cells: the hot keys construction
    /// warmed.
    pub fn key_cell_count(&self) -> u64 {
        self.cells.map.len() as u64
    }

    /// Wall-clock time construction took.
    pub fn build_time(&self) -> Duration {
        self.build_time
    }

    /// Multi-anchor lookup by pre-canonicalized key cells (as produced
    /// by [`QueryKey::canonical_cells_into`] with this diagram's
    /// [`quantum`](Self::quantum)). Returns the materialized skyline
    /// ids, ascending, or `None` when no cell is materialized for the
    /// key.
    // ssq-analyze: deny-alloc
    pub fn lookup_cells(&self, cells: &[(i64, i64)]) -> Option<&[u32]> {
        if cells.len() < 2 {
            // A query collapsing to one canonical vertex has sub-quantum
            // spread; no key cell stands for its true anchors. Miss.
            return None;
        }
        self.cells.lookup(cells)
    }

    /// Answers a query of two or more points by its key cell, or returns
    /// `None` (a miss; single-anchor queries always miss — they belong to
    /// [`ssq_core::VoronoiIndex::nearest_ties`]).
    ///
    /// On a hit the returned slice is the exact skyline ids, ascending,
    /// borrowed from the diagram's materialized pool. `scratch` holds the
    /// query's canonical key; one per worker, and once warm for a query
    /// shape the whole call is allocation-free.
    // ssq-analyze: deny-alloc
    pub fn lookup(&self, query: &[Point], scratch: &mut KeyScratch) -> Option<&[u32]> {
        if query.len() < 2 || query.len() > self.max_anchors {
            // One anchor is the Voronoi index's to answer. Wider raw
            // query sets can still collapse to few hull vertices, but
            // canonicalizing them costs the hull pass the planner path
            // would pay anyway — not worth probing.
            return None;
        }
        let cells = QueryKey::canonical_cells_into(query, self.quantum, scratch);
        self.lookup_cells(cells)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssq_core::{naive_full, VoronoiIndex};
    use ssq_geom::Rect;

    /// Irregularly spaced points with no duplicate coordinates.
    fn sites(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| {
                Point::new(
                    (i % 17) as f64 + 1e-4 * i as f64,
                    (i / 17) as f64 + 3e-5 * i as f64,
                )
            })
            .collect()
    }

    fn oracle(points: &[Point], q: &[Point]) -> Vec<u32> {
        let ctx = QueryContext::new(q);
        let mut ids = naive_full(points, &ctx).skyline;
        ids.sort_unstable();
        ids
    }

    const QUANTUM: f64 = 1e-9;

    #[test]
    fn empty_dataset_builds_nothing() {
        assert!(SkylineDiagram::build(0, &[], &[], QUANTUM, &DiagramConfig::default()).is_none());
    }

    /// The one-anchor diagram is the Voronoi index's point location.
    fn single(pts: &[Point], q: Point) -> Vec<u32> {
        let mut ties = Vec::new();
        VoronoiIndex::new(pts).unwrap().nearest_ties(q, &mut ties);
        ties
    }

    #[test]
    fn single_anchor_lookup_matches_oracle_everywhere() {
        let pts = sites(200);
        let index = VoronoiIndex::new(&pts).unwrap();
        let diagram =
            SkylineDiagram::build(3, &pts, &[], QUANTUM, &DiagramConfig::default()).unwrap();
        assert_eq!(diagram.generation(), 3);
        let mut scratch = KeyScratch::new();
        let mut ties = Vec::new();
        // A dense probe sweep across the data MBR and the site positions
        // themselves: the diagram misses, the index answers exactly.
        let u = Rect::bounding(pts.iter().copied());
        let sweep = (0..1600).map(|k| {
            Point::new(
                u.min.x + u.width() * ((k / 40) as f64 + 0.37) / 40.0,
                u.min.y + u.height() * ((k % 40) as f64 + 0.61) / 40.0,
            )
        });
        for q in sweep.chain(pts.iter().step_by(7).copied()) {
            assert!(diagram.lookup(&[q], &mut scratch).is_none());
            index.nearest_ties(q, &mut ties);
            assert_eq!(ties, oracle(&pts, &[q]), "query {q:?}");
        }
    }

    #[test]
    fn exact_distance_ties_are_all_reported() {
        // Four sites on a perfect square: its center ties all four.
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(0.0, 2.0),
            Point::new(2.0, 2.0),
        ];
        assert_eq!(single(&pts, Point::new(1.0, 1.0)), [0, 1, 2, 3]);
    }

    #[test]
    fn a_single_anchor_probe_outside_the_mbr_is_an_exact_hit() {
        let pts = sites(50);
        for q in [
            Point::new(-100.0, 0.0),
            Point::new(8.0, 1e6),
            Point::new(-3e5, -2e5),
        ] {
            assert_eq!(single(&pts, q), oracle(&pts, &[q]), "query {q:?}");
        }
    }

    #[test]
    fn materialized_key_cells_match_oracle() {
        let pts = sites(150);
        let queries: Vec<Vec<Point>> = vec![
            vec![Point::new(3.1, 2.2), Point::new(7.4, 5.9)],
            vec![
                Point::new(1.3, 1.7),
                Point::new(9.2, 3.4),
                Point::new(5.5, 8.1),
            ],
        ];
        let keys: Vec<QueryKey> = queries
            .iter()
            .map(|q| QueryKey::canonical(q, QUANTUM))
            .collect();
        let diagram =
            SkylineDiagram::build(0, &pts, &keys, QUANTUM, &DiagramConfig::default()).unwrap();
        assert_eq!(diagram.key_cell_count(), 2);
        let mut scratch = KeyScratch::new();
        for q in &queries {
            let got = diagram.lookup(q, &mut scratch).expect("materialized key");
            assert_eq!(got, oracle(&pts, q).as_slice(), "query {q:?}");
        }
        // A permutation of the same query set hits the same cell.
        let mut permuted = queries[1].clone();
        permuted.reverse();
        assert!(diagram.lookup(&permuted, &mut scratch).is_some());
        // An unmaterialized key misses.
        assert!(diagram
            .lookup(&[Point::new(0.5, 0.5), Point::new(11.0, 7.0)], &mut scratch)
            .is_none());
    }

    #[test]
    fn anchor_limits_are_enforced() {
        let pts = sites(80);
        let wide: Vec<Point> = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 8.0),
            Point::new(0.0, 8.0),
        ];
        let keys = [QueryKey::canonical(&wide, QUANTUM)];
        let diagram =
            SkylineDiagram::build(0, &pts, &keys, QUANTUM, &DiagramConfig::default()).unwrap();
        // max_anchors = 3: the 4-vertex key is not materialized...
        assert_eq!(diagram.key_cell_count(), 0);
        let mut scratch = KeyScratch::new();
        // ...and the 4-point query misses outright.
        assert!(diagram.lookup(&wide, &mut scratch).is_none());
    }

    #[test]
    fn max_cells_caps_materialization() {
        let pts = sites(60);
        let keys: Vec<QueryKey> = (0..10)
            .map(|i| {
                QueryKey::canonical(
                    &[
                        Point::new(i as f64 + 0.1, 0.2),
                        Point::new(i as f64 + 3.3, 4.4),
                    ],
                    QUANTUM,
                )
            })
            .collect();
        let config = DiagramConfig {
            max_cells: 4,
            ..DiagramConfig::default()
        };
        let diagram = SkylineDiagram::build(0, &pts, &keys, QUANTUM, &config).unwrap();
        assert_eq!(diagram.key_cell_count(), 4);
    }
}
