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
//!   Instead, cells are held *per canonical [`QueryKey`]* — the same
//!   quantized-hull partition the engine's context cache uses — for the
//!   keys traffic or a warm start brings. A query landing in a held key
//!   cell of its own generation is answered by copying the stored
//!   skyline.
//!
//! A [`SkylineDiagram`] is that table of key cells. Each cell holds
//! `(generation, ids, probes)`, and one admission rule maintains it: a
//! miss that just computed its exact answer stores it
//! ([`SkylineDiagram::admit`]) when the key is new and the table has
//! room, or when the key's cell holds an older generation. A cell is a
//! hit only for the generation it holds, so a publish needs no
//! retirement: the next query of each key misses once, and its answer
//! refreshes the cell. Anything else — one anchor, more anchors than
//! configured, a key with no cell — is a **miss** here, and the caller
//! falls back to the Voronoi index or its planner.
//!
//! Hits are exact up to the context cache's quantization contract: a
//! cell stores the answer of the query that admitted it, and hulls that
//! differ by less than the quantum share the cell (first-built wins).

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

use ssq_core::{KeyScratch, QueryKey};
use ssq_geom::Point;
use std::collections::HashMap;

/// Knobs of a [`SkylineDiagram`].
#[derive(Clone, Copy, Debug)]
pub struct DiagramConfig {
    /// Largest `|CHv(Q)|` the diagram holds key cells for; larger shapes
    /// always miss.
    pub max_anchors: usize,
    /// Cap on key cells held; a new key past it is not admitted (the
    /// keys already held keep refreshing).
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

    /// The canonical key cells `query` is held under, canonicalized with
    /// `quantum` into `scratch`, or `None` for a shape the diagram holds
    /// no cell for — a hull vertex off the `i64` key grid included, so
    /// no finite coordinate panics here. Once `scratch` is warm for the
    /// shape the call is allocation-free.
    // ssq-analyze: deny-alloc
    pub fn key_cells<'s>(
        &self,
        query: &[Point],
        quantum: f64,
        scratch: &'s mut KeyScratch,
    ) -> Option<&'s [(i64, i64)]> {
        if query.len() < 2 || query.len() > self.max_anchors {
            // One anchor is the Voronoi index's to answer. Wider raw
            // query sets can still collapse to few hull vertices, but
            // canonicalizing them costs the hull pass the planner path
            // would pay anyway — not worth probing.
            return None;
        }
        let cells = QueryKey::canonical_cells_into(query, quantum, scratch)?;
        // A query collapsing to one canonical vertex has sub-quantum
        // spread; no key cell stands for its true anchors.
        (cells.len() >= 2).then_some(cells)
    }
}

/// One key's stored answer.
#[derive(Debug)]
struct KeyCell {
    /// The snapshot generation `ids` is the answer for.
    generation: u64,
    /// The skyline ids, ascending.
    ids: Vec<u32>,
    /// Lookups that found this cell, hits and stale misses alike.
    probes: u64,
}

/// Key cells: canonical query key → the exact skyline of one snapshot
/// generation. See the crate docs for the admission rule.
#[derive(Debug)]
pub struct SkylineDiagram {
    max_cells: usize,
    cells: HashMap<QueryKey, KeyCell>,
}

impl SkylineDiagram {
    /// An empty table admitting at most `config.max_cells` keys.
    pub fn new(config: &DiagramConfig) -> SkylineDiagram {
        SkylineDiagram {
            max_cells: config.max_cells,
            cells: HashMap::new(),
        }
    }

    /// Key cells held, whatever their generation.
    pub fn key_cell_count(&self) -> u64 {
        self.cells.len() as u64
    }

    /// The stored skyline ids (ascending) of the key `cells` (as produced
    /// by [`DiagramConfig::key_cells`]) when its cell holds `generation`,
    /// else `None`. Every lookup that finds the cell counts as one of its
    /// probes.
    // ssq-analyze: deny-alloc
    pub fn lookup(&mut self, generation: u64, cells: &[(i64, i64)]) -> Option<&[u32]> {
        let cell = self.cells.get_mut(cells)?;
        cell.probes += 1;
        (cell.generation == generation).then_some(cell.ids.as_slice())
    }

    /// Offers `ids`, the exact skyline of the key `cells` under snapshot
    /// `generation`. It is stored when the key is absent and fewer than
    /// `max_cells` keys are held, or when the key's cell holds an older
    /// generation; a cell of an equal or newer generation is never
    /// overwritten. Returns whether the offer was stored.
    ///
    /// A refresh reuses the cell's buffer, so only a new key — or an
    /// answer longer than any the cell held before — allocates.
    pub fn admit(&mut self, generation: u64, cells: &[(i64, i64)], ids: &[u32]) -> bool {
        if let Some(cell) = self.cells.get_mut(cells) {
            if cell.generation >= generation {
                return false;
            }
            cell.generation = generation;
            cell.ids.clear();
            cell.ids.extend_from_slice(ids);
            return true;
        }
        if self.cells.len() >= self.max_cells {
            return false;
        }
        let cell = KeyCell {
            generation,
            ids: ids.to_vec(),
            probes: 0,
        };
        self.cells
            .insert(QueryKey::from_cells(cells.to_vec()), cell);
        true
    }

    /// The `limit` most-probed keys, most-probed first (ties by key).
    pub fn hottest(&self, limit: usize) -> Vec<QueryKey> {
        let mut ranked: Vec<(&QueryKey, u64)> =
            self.cells.iter().map(|(k, c)| (k, c.probes)).collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cells().cmp(b.0.cells())));
        ranked
            .into_iter()
            .take(limit)
            .map(|(k, _)| k.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssq_core::{naive_full, QueryContext, VoronoiIndex};
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

    /// The key cells of `q` under the default config, owned.
    fn key(q: &[Point]) -> Vec<(i64, i64)> {
        let mut scratch = KeyScratch::new();
        DiagramConfig::default()
            .key_cells(q, QUANTUM, &mut scratch)
            .expect("a shape the diagram holds")
            .to_vec()
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
        let config = DiagramConfig::default();
        let mut scratch = KeyScratch::new();
        let mut ties = Vec::new();
        // A dense probe sweep across the data MBR and the site positions
        // themselves: the diagram holds no key for them, the index
        // answers exactly.
        let u = Rect::bounding(pts.iter().copied());
        let sweep = (0..1600).map(|k| {
            Point::new(
                u.min.x + u.width() * ((k / 40) as f64 + 0.37) / 40.0,
                u.min.y + u.height() * ((k % 40) as f64 + 0.61) / 40.0,
            )
        });
        for q in sweep.chain(pts.iter().step_by(7).copied()) {
            assert!(config.key_cells(&[q], QUANTUM, &mut scratch).is_none());
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
        let mut diagram = SkylineDiagram::new(&DiagramConfig::default());
        for q in &queries {
            assert!(diagram.admit(0, &key(q), &oracle(&pts, q)));
        }
        assert_eq!(diagram.key_cell_count(), 2);
        for q in &queries {
            let got = diagram.lookup(0, &key(q)).expect("admitted key");
            assert_eq!(got, oracle(&pts, q).as_slice(), "query {q:?}");
            // The cell answers for its own generation only.
            assert!(diagram.lookup(1, &key(q)).is_none());
        }
        // A permutation of the same query set hits the same cell.
        let mut permuted = queries[1].clone();
        permuted.reverse();
        assert!(diagram.lookup(0, &key(&permuted)).is_some());
        // A key never admitted misses.
        let cold = key(&[Point::new(0.5, 0.5), Point::new(11.0, 7.0)]);
        assert!(diagram.lookup(0, &cold).is_none());
    }

    #[test]
    fn a_cell_is_refreshed_only_by_a_newer_generation() {
        let k = key(&[Point::new(3.1, 2.2), Point::new(7.4, 5.9)]);
        let mut diagram = SkylineDiagram::new(&DiagramConfig::default());
        assert!(diagram.admit(2, &k, &[1, 2]));
        // Equal and older generations neither overwrite nor re-stamp.
        assert!(!diagram.admit(2, &k, &[9]));
        assert!(!diagram.admit(1, &k, &[9]));
        assert_eq!(diagram.lookup(2, &k), Some(&[1, 2][..]));
        assert!(diagram.lookup(1, &k).is_none());
        // A newer generation replaces the answer, longer or shorter.
        assert!(diagram.admit(3, &k, &[4, 5, 6]));
        assert!(diagram.lookup(2, &k).is_none());
        assert_eq!(diagram.lookup(3, &k), Some(&[4, 5, 6][..]));
        assert!(diagram.admit(7, &k, &[8]));
        assert_eq!(diagram.lookup(7, &k), Some(&[8][..]));
        assert_eq!(diagram.key_cell_count(), 1);
    }

    #[test]
    fn anchor_limits_are_enforced() {
        let wide: Vec<Point> = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 8.0),
            Point::new(0.0, 8.0),
        ];
        let mut scratch = KeyScratch::new();
        let config = DiagramConfig::default();
        // max_anchors = 3: the 4-point query has no key cell...
        assert!(config.key_cells(&wide, QUANTUM, &mut scratch).is_none());
        // ...and neither has one whose hull collapses below a quantum.
        let collapsed = [Point::new(1.0, 1.0), Point::new(1.0 + 1e-12, 1.0)];
        assert!(config
            .key_cells(&collapsed, QUANTUM, &mut scratch)
            .is_none());
        // Three points are held.
        assert!(config
            .key_cells(&wide[..3], QUANTUM, &mut scratch)
            .is_some());
    }

    #[test]
    fn a_coordinate_off_the_key_grid_has_no_key_cell() {
        // ±1e300 / 1e-9 overflows the i64 grid: a miss, not a panic.
        let far = [Point::new(-1e300, 0.0), Point::new(1e300, 0.0)];
        let mut scratch = KeyScratch::new();
        assert!(DiagramConfig::default()
            .key_cells(&far, QUANTUM, &mut scratch)
            .is_none());
    }

    #[test]
    fn max_cells_caps_materialization() {
        let keys: Vec<Vec<(i64, i64)>> = (0..10)
            .map(|i| {
                key(&[
                    Point::new(i as f64 + 0.1, 0.2),
                    Point::new(i as f64 + 3.3, 4.4),
                ])
            })
            .collect();
        let config = DiagramConfig {
            max_cells: 4,
            ..DiagramConfig::default()
        };
        let mut diagram = SkylineDiagram::new(&config);
        let admitted = keys.iter().filter(|k| diagram.admit(0, k, &[0])).count();
        assert_eq!(admitted, 4);
        assert_eq!(diagram.key_cell_count(), 4);
        // A full table still refreshes the keys it holds.
        assert!(diagram.admit(1, &keys[0], &[1]));
        assert!(!diagram.admit(1, &keys[9], &[1]));
    }

    #[test]
    fn hottest_ranks_keys_by_probes() {
        let a = key(&[Point::new(3.1, 2.2), Point::new(7.4, 5.9)]);
        let b = key(&[Point::new(1.3, 1.7), Point::new(9.2, 3.4)]);
        let mut diagram = SkylineDiagram::new(&DiagramConfig::default());
        diagram.admit(0, &a, &[0]);
        diagram.admit(0, &b, &[0]);
        // Hits and stale misses both count.
        diagram.lookup(0, &b);
        diagram.lookup(1, &b);
        diagram.lookup(0, &a);
        assert_eq!(
            diagram.hottest(2),
            [QueryKey::from_cells(b.clone()), QueryKey::from_cells(a)]
        );
        assert_eq!(diagram.hottest(1), [QueryKey::from_cells(b)]);
    }
}
