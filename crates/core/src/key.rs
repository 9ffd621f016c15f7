//! Canonicalized query keys.
//!
//! Theorem 2 of the paper: the spatial skyline depends **only on the
//! vertices of `CH(Q)`** — interior query points are irrelevant. A
//! [`QueryKey`] is therefore the canonicalized hull of a query set:
//!
//! 1. compute the convex hull of the query points,
//! 2. quantize each vertex coordinate to a grid (engine default `1e-9`),
//! 3. sort the quantized vertices lexicographically and deduplicate.
//!
//! Two query sets that differ only by permutation, duplicate points,
//! interior points, or sub-quantum coordinate noise share a key. The
//! engine's context cache and the skyline diagram both partition query
//! space by this key, which is exactly what makes a diagram cell sound:
//! every query inside one key cell has the same `CHv(Q)` and hence (for a
//! fixed dataset snapshot) the same skyline.
//!
//! The key lives in `ssq-core` (rather than the engine that popularized
//! it) so that `ssq-diagram` can index materialized cells by it without a
//! dependency cycle.

use ssq_geom::{monotone_chain_into, HullScratch, Point};
use std::borrow::Borrow;

/// A canonicalized, quantized query-set key. See the module docs.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryKey(Vec<(i64, i64)>);

/// Reusable buffers for [`QueryKey::canonical_cells_into`].
///
/// A warm scratch makes repeated canonicalization allocation-free; the
/// buffers are cleared, not shrunk, between calls.
#[derive(Debug, Default)]
pub struct KeyScratch {
    hull: HullScratch,
    cells: Vec<(i64, i64)>,
}

impl KeyScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> KeyScratch {
        KeyScratch::default()
    }
}

/// The grid cell of `v`, or `None` when a quantized coordinate does not
/// fit an `i64` (at the engine's default quantum, beyond ≈ ±9.2×10⁹).
fn quantize(v: Point, quantum: f64) -> Option<(i64, i64)> {
    let x = (v.x / quantum).round();
    let y = (v.y / quantum).round();
    (x.abs() < i64::MAX as f64 && y.abs() < i64::MAX as f64).then_some((x as i64, y as i64))
}

impl QueryKey {
    /// Canonicalizes `q` with the given coordinate quantum.
    ///
    /// Panics if a quantized coordinate overflows `i64` — at the engine's
    /// default quantum that needs coordinates beyond ±9×10⁹, far outside
    /// any dataset universe in this repo.
    pub fn canonical(q: &[Point], quantum: f64) -> QueryKey {
        assert!(quantum > 0.0, "quantum must be positive");
        let hull = ssq_geom::convex_hull(q);
        let cells: Option<Vec<(i64, i64)>> = hull
            .vertices()
            .iter()
            .map(|&v| quantize(v, quantum))
            .collect();
        assert!(
            cells.is_some(),
            "query coordinate overflows the cache-key grid"
        );
        let mut cells = cells.unwrap_or_default();
        cells.sort_unstable();
        cells.dedup();
        QueryKey(cells)
    }

    /// [`QueryKey::canonical`] into caller-provided scratch, returning the
    /// canonical cell list as a borrow of `scratch`.
    ///
    /// Produces exactly the cells of [`QueryKey::canonical`] (both run the
    /// same monotone-chain hull), but a warm scratch makes the call
    /// allocation-free — this is what the skyline-diagram probe runs per
    /// query before deciding hit or miss. Where `canonical` panics on a
    /// hull vertex off the `i64` key grid, this returns `None`: the probe
    /// runs on the thread that submits the query, so any finite
    /// coordinate must come back as a plain miss.
    pub fn canonical_cells_into<'s>(
        q: &[Point],
        quantum: f64,
        scratch: &'s mut KeyScratch,
    ) -> Option<&'s [(i64, i64)]> {
        assert!(quantum > 0.0, "quantum must be positive");
        let hull = monotone_chain_into(q, &mut scratch.hull);
        scratch.cells.clear();
        for &v in hull {
            scratch.cells.push(quantize(v, quantum)?);
        }
        scratch.cells.sort_unstable();
        scratch.cells.dedup();
        Some(&scratch.cells)
    }

    /// Rebuilds a key from raw canonical cells (the warm-start load path).
    ///
    /// The cells are re-sorted and deduplicated so the invariant holds for
    /// any input order.
    pub fn from_cells(mut cells: Vec<(i64, i64)>) -> QueryKey {
        cells.sort_unstable();
        cells.dedup();
        QueryKey(cells)
    }

    /// The canonical quantized hull vertices, sorted lexicographically.
    pub fn cells(&self) -> &[(i64, i64)] {
        &self.0
    }

    /// Representative query points for this key: each cell scaled back by
    /// `quantum`. Canonicalizing the result with the same quantum yields
    /// this key again, which is what lets warm start rebuild contexts and
    /// diagram cells from persisted keys alone.
    pub fn representative_points(&self, quantum: f64) -> Vec<Point> {
        self.0
            .iter()
            .map(|&(x, y)| Point::new(x as f64 * quantum, y as f64 * quantum))
            .collect()
    }

    /// Number of quantized hull vertices in the key.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` for the empty key (empty query set).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl Borrow<[(i64, i64)]> for QueryKey {
    fn borrow(&self) -> &[(i64, i64)] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(pts: &[(f64, f64)]) -> Vec<Point> {
        pts.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    const QUANTUM: f64 = 1e-9;

    #[test]
    fn scratch_canonicalization_matches_owned() {
        let mut scratch = KeyScratch::new();
        let sets: Vec<Vec<Point>> = vec![
            q(&[(0.25, 0.75)]),
            q(&[(0.0, 0.0), (1.0, 0.0)]),
            q(&[(0.0, 0.0), (1.0, 0.0), (0.5, 1.0)]),
            // Duplicates, interior points and collinear runs.
            q(&[(0.0, 0.0), (1.0, 0.0), (0.5, 0.0), (0.0, 0.0), (2.0, 0.0)]),
            q(&[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0), (2.0, 2.0)]),
        ];
        for s in &sets {
            let owned = QueryKey::canonical(s, QUANTUM);
            let borrowed = QueryKey::canonical_cells_into(s, QUANTUM, &mut scratch);
            assert_eq!(Some(owned.cells()), borrowed, "query {s:?}");
        }
    }

    #[test]
    fn representative_points_round_trip() {
        let sets: Vec<Vec<Point>> = vec![
            q(&[(0.25, 0.75)]),
            q(&[(0.1, 0.2), (0.9, 0.4), (0.5, 0.8)]),
            q(&[(-3.5, 2.0), (1.0, -1.0), (0.0, 0.0), (0.2, 0.1)]),
        ];
        for s in &sets {
            let key = QueryKey::canonical(s, QUANTUM);
            let reps = key.representative_points(QUANTUM);
            let back = QueryKey::canonical(&reps, QUANTUM);
            assert_eq!(key, back, "query {s:?}");
        }
    }

    #[test]
    fn from_cells_restores_invariant() {
        let key = QueryKey::canonical(&q(&[(0.0, 0.0), (1.0, 0.0), (0.5, 1.0)]), QUANTUM);
        let mut cells = key.cells().to_vec();
        cells.reverse();
        cells.push(cells[0]); // duplicate
        assert_eq!(QueryKey::from_cells(cells), key);
    }

    #[test]
    fn borrowed_slice_lookup_works() {
        use std::collections::HashMap;
        let key = QueryKey::canonical(&q(&[(0.0, 0.0), (1.0, 1.0)]), QUANTUM);
        let mut map: HashMap<QueryKey, u32> = HashMap::new();
        map.insert(key.clone(), 7);
        let cells: &[(i64, i64)] = key.cells();
        assert_eq!(map.get(cells), Some(&7));
    }
}
