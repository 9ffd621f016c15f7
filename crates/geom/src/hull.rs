//! Convex hull construction.
//!
//! `CH(Q)` — the convex hull of the query points — is the first thing every
//! SSQ algorithm computes (paper Fig. 5 line 1, Fig. 7 line 1): by
//! Theorem 2 only the hull **vertices** `CHv(Q)` influence spatial
//! dominance, so all subsequent distance computations run against the hull
//! vertices instead of the full query set.
//!
//! The construction is [`monotone_chain`], Andrew's variant of the Graham
//! scan the paper names for VS²/VCS² (§7: "we used the Graham Scan
//! algorithm for convex hull computation"): both are `O(n log n)` and
//! return the same vertex set, and the lexicographic presort makes
//! degeneracy handling simpler than Graham's polar sort. The hull comes
//! back in counter-clockwise order with collinear and duplicate points
//! removed, decided by the exact [`crate::predicates::orient2d`] sign, so
//! the output is correct for any finite input.

use crate::convex::ConvexPolygon;
use crate::point::Point;
use crate::predicates::orient2d_sign;

/// Computes the convex hull of `points` with the default algorithm
/// (Andrew's monotone chain).
///
/// Returns the hull as a [`ConvexPolygon`] whose vertices are in
/// counter-clockwise order, starting from the lexicographically smallest
/// point, with no duplicate or collinear vertices. Degenerate inputs yield
/// degenerate hulls: a single vertex for coincident points, two vertices for
/// collinear point sets, and an empty polygon for no input.
pub fn convex_hull(points: &[Point]) -> ConvexPolygon {
    monotone_chain(points)
}

/// Andrew's monotone-chain convex hull, `O(n log n)`.
pub fn monotone_chain(points: &[Point]) -> ConvexPolygon {
    let mut scratch = HullScratch::new();
    let hull = monotone_chain_into(points, &mut scratch).to_vec();
    ConvexPolygon::from_ccw_vertices(hull)
}

/// Reusable buffers for [`monotone_chain_into`].
///
/// A warm scratch makes repeated hull computations allocation-free: both
/// internal buffers are cleared, not shrunk, between calls.
#[derive(Debug, Default)]
pub struct HullScratch {
    pts: Vec<Point>,
    chain: Vec<Point>,
}

impl HullScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> HullScratch {
        HullScratch::default()
    }
}

/// Andrew's monotone chain into caller-provided scratch buffers.
///
/// Exactly [`monotone_chain`]'s hull — same CCW order starting from the
/// lexicographic minimum, same degeneracy handling — but the returned
/// slice borrows `scratch`, so a warm scratch makes the call
/// allocation-free. This is the single implementation both entry points
/// share; hot paths (the skyline-diagram probe) call it directly.
pub fn monotone_chain_into<'s>(points: &[Point], scratch: &'s mut HullScratch) -> &'s [Point] {
    scratch.pts.clear();
    scratch.pts.extend_from_slice(points);
    scratch.pts.sort_by(Point::lex_cmp);
    scratch.pts.dedup();
    let pts = &scratch.pts;
    let n = pts.len();
    let chain = &mut scratch.chain;
    chain.clear();
    if n <= 2 {
        chain.extend_from_slice(pts);
        return chain;
    }

    // Lower hull then upper hull; non-left turns are popped, so collinear
    // interior points are dropped. Both chains live in `chain`: the lower
    // chain occupies `[0, lower_len)` and is frozen while the upper chain
    // grows past it.
    for &p in pts.iter() {
        while chain.len() >= 2
            && orient2d_sign(chain[chain.len() - 2], chain[chain.len() - 1], p) <= 0
        {
            chain.pop();
        }
        chain.push(p);
    }
    // The last lower-chain vertex (the lexicographic maximum) re-opens the
    // upper chain, so drop it here; the upper chain's own endpoint (the
    // lexicographic minimum, already at index 0) is dropped at the end.
    chain.pop();
    let lower_len = chain.len();
    for &p in pts.iter().rev() {
        while chain.len() >= lower_len + 2
            && orient2d_sign(chain[chain.len() - 2], chain[chain.len() - 1], p) <= 0
        {
            chain.pop();
        }
        chain.push(p);
    }
    chain.pop();
    chain
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn hull_pts(poly: &ConvexPolygon) -> Vec<Point> {
        poly.vertices().to_vec()
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert_eq!(convex_hull(&[]).vertices().len(), 0);
        assert_eq!(convex_hull(&[p(1.0, 1.0)]).vertices(), &[p(1.0, 1.0)]);
        let two = convex_hull(&[p(0.0, 0.0), p(1.0, 1.0)]);
        assert_eq!(two.vertices().len(), 2);
    }

    #[test]
    fn duplicates_collapse() {
        let h = convex_hull(&[p(1.0, 1.0), p(1.0, 1.0), p(1.0, 1.0)]);
        assert_eq!(h.vertices(), &[p(1.0, 1.0)]);
    }

    #[test]
    fn collinear_input_gives_segment() {
        let h = convex_hull(&[p(0.0, 0.0), p(1.0, 1.0), p(2.0, 2.0), p(3.0, 3.0)]);
        assert_eq!(h.vertices(), &[p(0.0, 0.0), p(3.0, 3.0)]);
    }

    #[test]
    fn square_with_interior_and_edge_points() {
        let pts = [
            p(0.0, 0.0),
            p(4.0, 0.0),
            p(4.0, 4.0),
            p(0.0, 4.0),
            p(2.0, 2.0), // interior
            p(2.0, 0.0), // on an edge
            p(0.0, 2.0), // on an edge
        ];
        let h = convex_hull(&pts);
        assert_eq!(
            hull_pts(&h),
            vec![p(0.0, 0.0), p(4.0, 0.0), p(4.0, 4.0), p(0.0, 4.0)]
        );
        // A full grid: every side is a collinear run.
        let grid: Vec<Point> = (0..5)
            .flat_map(|i| (0..5).map(move |j| p(i as f64, j as f64)))
            .collect();
        assert_eq!(hull_pts(&convex_hull(&grid)), hull_pts(&h));
    }

    #[test]
    fn hull_is_ccw() {
        let pts = [
            p(0.0, 0.0),
            p(5.0, 1.0),
            p(3.0, 6.0),
            p(-1.0, 3.0),
            p(2.0, 2.0),
        ];
        let h = convex_hull(&pts);
        let v = h.vertices();
        for i in 0..v.len() {
            let a = v[i];
            let b = v[(i + 1) % v.len()];
            let c = v[(i + 2) % v.len()];
            assert_eq!(orient2d_sign(a, b, c), 1, "strictly convex CCW turn");
        }
    }

    #[test]
    fn hull_contains_all_input_points() {
        let pts = [
            p(0.0, 0.0),
            p(5.0, 1.0),
            p(3.0, 6.0),
            p(-1.0, 3.0),
            p(2.0, 2.0),
            p(1.0, 1.0),
        ];
        let h = convex_hull(&pts);
        for &q in &pts {
            assert!(h.contains(q), "{q:?} must be inside hull");
        }
    }

    #[test]
    fn scratch_variant_matches_owned_variant_with_reuse() {
        // One scratch across many inputs, including degenerate ones: the
        // borrowed result must always equal the owned hull.
        let inputs: Vec<Vec<Point>> = vec![
            vec![],
            vec![p(1.0, 1.0)],
            vec![p(1.0, 1.0), p(1.0, 1.0)],
            vec![p(0.0, 0.0), p(1.0, 1.0), p(2.0, 2.0)],
            vec![
                p(0.0, 0.0),
                p(4.0, 0.0),
                p(4.0, 4.0),
                p(0.0, 4.0),
                p(2.0, 2.0),
            ],
            (0..25).map(|i| p((i % 5) as f64, (i / 5) as f64)).collect(),
        ];
        let mut scratch = HullScratch::new();
        for pts in &inputs {
            let owned = hull_pts(&monotone_chain(pts));
            let borrowed = monotone_chain_into(pts, &mut scratch);
            assert_eq!(owned.as_slice(), borrowed, "input {pts:?}");
        }
    }

    #[test]
    fn hull_vertices_are_subset_of_input() {
        let pts = [p(0.0, 0.0), p(5.0, 1.0), p(3.0, 6.0), p(-1.0, 3.0)];
        let h = convex_hull(&pts);
        for v in h.vertices() {
            assert!(pts.contains(v));
        }
    }
}
