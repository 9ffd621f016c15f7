//! Convex polygons: `CH(Q)`, Voronoi cells, and the hull-geometry queries
//! behind the paper's theorems.
//!
//! The SSQ algorithms interrogate convex polygons in a handful of ways:
//!
//! * *point containment* — Theorem 1 (every data point inside `CH(Q)` is a
//!   skyline point) and the B²S² shortcut for entries fully inside the hull;
//! * *rectangle containment / intersection* — the same shortcut applied to
//!   R-tree entries, and the VS² test "does this Voronoi cell intersect the
//!   pruning rectangle B";
//! * *convex–convex intersection* — Theorem 3 (a point whose Voronoi cell
//!   intersects `CH(Q)` is a skyline point);
//! * *tangents and the closer chain* — Lemma 5 (the dominance of `p`
//!   depends only on the hull vertices facing `p`);
//! * *visible regions* — Lemma 6 and the VCS² candidate regions (§5).

use crate::line::{HalfPlane, Segment};
use crate::point::Point;
use crate::predicates::orient2d_sign;
use crate::rect::Rect;

/// A convex polygon stored as counter-clockwise vertices.
///
/// Degenerate polygons are representable: zero vertices (empty), one vertex
/// (a point) and two vertices (a segment). All queries handle them; a
/// degenerate polygon has an empty interior, so e.g.
/// [`ConvexPolygon::contains_strict`] is always `false` for one.
#[derive(Clone, Debug, PartialEq)]
pub struct ConvexPolygon {
    vertices: Vec<Point>,
}

impl ConvexPolygon {
    /// Wraps a vertex list that is **already** convex, counter-clockwise and
    /// free of duplicate/collinear vertices. Debug builds verify the
    /// invariant; use [`crate::hull::convex_hull`] to build from arbitrary
    /// points.
    pub fn from_ccw_vertices(vertices: Vec<Point>) -> ConvexPolygon {
        #[cfg(debug_assertions)]
        {
            let n = vertices.len();
            if n >= 3 {
                for i in 0..n {
                    let a = vertices[i];
                    let b = vertices[(i + 1) % n];
                    let c = vertices[(i + 2) % n];
                    debug_assert_eq!(
                        orient2d_sign(a, b, c),
                        1,
                        "vertices must be strictly convex CCW: {a:?} {b:?} {c:?}"
                    );
                }
            }
        }
        ConvexPolygon { vertices }
    }

    /// The empty polygon.
    pub fn empty() -> ConvexPolygon {
        ConvexPolygon {
            vertices: Vec::new(),
        }
    }

    /// Builds a convex polygon from vertices that are **approximately** in
    /// counter-clockwise boundary order but may contain duplicates, tiny
    /// backward jogs from floating-point noise, or collinear runs — the
    /// typical output of tracing Voronoi-cell circumcenters. Cleans the
    /// ring by deduplicating within `tol` and repeatedly dropping vertices
    /// that do not make a strict left turn.
    ///
    /// The result is a valid (possibly degenerate) convex polygon whose
    /// vertices are a subset of the input.
    pub fn from_ccw_dirty(points: Vec<Point>, tol: f64) -> ConvexPolygon {
        let mut ring: Vec<Point> = Vec::with_capacity(points.len());
        for p in points {
            if ring.last().is_some_and(|&last| last.approx_eq(p, tol)) {
                continue;
            }
            ring.push(p);
        }
        // ssq-analyze: allow(no-panic-transitive): the `ring.len() >= 2` guard makes `last()` infallible
        while ring.len() >= 2 && ring[0].approx_eq(*ring.last().expect("nonempty"), tol) {
            ring.pop();
        }
        // Drop non-left-turn vertices until the ring is strictly convex.
        'outer: while ring.len() >= 3 {
            let n = ring.len();
            for i in 0..n {
                let a = ring[(i + n - 1) % n];
                let b = ring[i];
                let c = ring[(i + 1) % n];
                if orient2d_sign(a, b, c) <= 0 {
                    ring.remove(i);
                    continue 'outer;
                }
            }
            break;
        }
        if ring.len() == 2 && ring[0] == ring[1] {
            ring.pop();
        }
        ConvexPolygon { vertices: ring }
    }

    /// The vertices in counter-clockwise order.
    #[inline]
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// `true` when the polygon has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// `true` when the polygon has fewer than three vertices and therefore
    /// an empty interior (point, segment or nothing).
    #[inline]
    pub fn is_degenerate(&self) -> bool {
        self.vertices.len() < 3
    }

    /// The edges as segments, in counter-clockwise order.
    pub fn edges(&self) -> impl Iterator<Item = Segment> + '_ {
        ring_edges(&self.vertices)
    }

    /// Index of `p` among the vertices, if it is one.
    pub fn vertex_index(&self, p: Point) -> Option<usize> {
        self.vertices.iter().position(|&v| v == p)
    }

    /// `true` when `p` lies inside the polygon or on its boundary.
    pub fn contains(&self, p: Point) -> bool {
        ring_contains(&self.vertices, p)
    }

    /// `true` when `p` lies strictly inside the polygon.
    pub fn contains_strict(&self, p: Point) -> bool {
        let n = self.vertices.len();
        if n < 3 {
            return false;
        }
        for i in 0..n {
            if orient2d_sign(self.vertices[i], self.vertices[(i + 1) % n], p) <= 0 {
                return false;
            }
        }
        true
    }

    /// `true` when the whole rectangle lies inside the (closed) polygon.
    /// By convexity it suffices to test the four corners.
    pub fn contains_rect(&self, r: &Rect) -> bool {
        !r.is_empty() && r.corners().iter().all(|&c| self.contains(c))
    }

    /// `true` when the polygon and the rectangle share at least one point.
    pub fn intersects_rect(&self, r: &Rect) -> bool {
        ring_intersects_rect(&self.vertices, r)
    }

    /// `true` when the two convex polygons share at least one point
    /// (boundaries count). This is the Theorem 3 test: "the Voronoi cell of
    /// `p` intersects `CH(Q)`".
    pub fn intersects_convex(&self, other: &ConvexPolygon) -> bool {
        if self.is_empty() || other.is_empty() {
            return false;
        }
        if self.vertices.iter().any(|&v| other.contains(v)) {
            return true;
        }
        if other.vertices.iter().any(|&v| self.contains(v)) {
            return true;
        }
        let other_edges: Vec<Segment> = other.edges().collect();
        self.edges()
            .any(|e| other_edges.iter().any(|oe| e.intersects(oe)))
    }

    /// Polygon area (0 for degenerate polygons).
    pub fn area(&self) -> f64 {
        let n = self.vertices.len();
        if n < 3 {
            return 0.0;
        }
        let mut twice = 0.0;
        for i in 0..n {
            twice += self.vertices[i].cross(self.vertices[(i + 1) % n]);
        }
        twice / 2.0
    }

    /// The centroid (mean of vertices for degenerate polygons, area centroid
    /// otherwise).
    pub fn centroid(&self) -> Point {
        let n = self.vertices.len();
        if n == 0 {
            return Point::ORIGIN;
        }
        if n < 3 {
            let sum = self.vertices.iter().fold(Point::ORIGIN, |acc, &v| acc + v);
            return sum / n as f64;
        }
        let mut cx = 0.0;
        let mut cy = 0.0;
        let mut twice_area = 0.0;
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            let w = a.cross(b);
            twice_area += w;
            cx += (a.x + b.x) * w;
            cy += (a.y + b.y) * w;
        }
        Point::new(cx / (3.0 * twice_area), cy / (3.0 * twice_area))
    }

    /// The polygon's minimum bounding rectangle.
    pub fn mbr(&self) -> Rect {
        Rect::bounding(self.vertices.iter().copied())
    }

    /// Minimum distance from `p` to the (closed) polygon: 0 when inside.
    pub fn distance(&self, p: Point) -> f64 {
        if self.contains(p) {
            return 0.0;
        }
        match self.vertices.len() {
            0 => f64::INFINITY,
            1 => self.vertices[0].distance(p),
            _ => self
                .edges()
                .map(|e| e.distance(p))
                .fold(f64::INFINITY, f64::min),
        }
    }

    /// Clips the polygon to the closed half-plane (one Sutherland–Hodgman
    /// step). The result is again convex.
    pub fn clip_halfplane(&self, h: &HalfPlane) -> ConvexPolygon {
        let n = self.vertices.len();
        match n {
            0 => ConvexPolygon::empty(),
            1 => {
                if h.contains(self.vertices[0]) {
                    self.clone()
                } else {
                    ConvexPolygon::empty()
                }
            }
            _ => {
                let mut out: Vec<Point> = Vec::with_capacity(n + 1);
                // For a 2-vertex "polygon" (segment) walk it as an open
                // chain; for a real polygon walk the closed ring.
                let ring: Vec<Point> = if n == 2 {
                    self.vertices.clone()
                } else {
                    let mut v = self.vertices.clone();
                    v.push(self.vertices[0]);
                    v
                };
                for w in ring.windows(2) {
                    let (a, b) = (w[0], w[1]);
                    let (ia, ib) = (h.contains(a), h.contains(b));
                    if ia {
                        push_unique(&mut out, a);
                    }
                    if ia != ib {
                        if let Some(x) = h.boundary.intersect(&Segment::new(a, b).line()) {
                            // Clamp to the segment to guard against
                            // floating-point drift.
                            push_unique(&mut out, Segment::new(a, b).closest_point(x));
                        }
                    }
                }
                if n == 2 {
                    if let Some(&last) = ring.last() {
                        if h.contains(last) {
                            push_unique(&mut out, last);
                        }
                    }
                }
                dedup_ring(&mut out);
                ConvexPolygon { vertices: out }
            }
        }
    }

    /// Clips the polygon to a rectangle. The result is again convex.
    pub fn clip_rect(&self, r: &Rect) -> ConvexPolygon {
        if r.is_empty() {
            return ConvexPolygon::empty();
        }
        if r.contains_rect(&self.mbr()) {
            // Every vertex is inside every edge's half-plane: each step
            // below would keep the ring as it is.
            return self.clone();
        }
        let c = r.corners();
        let mut poly = self.clone();
        for i in 0..4 {
            poly = poly.clip_halfplane(&HalfPlane::left_of(c[i], c[(i + 1) % 4]));
            if poly.is_empty() {
                break;
            }
        }
        poly
    }

    /// The *closer chain* `CHv⁺(Q)` of hull vertices seen from the external
    /// point `p` (Lemma 5): the vertices incident to at least one edge whose
    /// outside contains `p`. The dominance of `p` depends only on these
    /// vertices.
    ///
    /// Returns the vertex **indices** of the chain. For `p` inside the
    /// (closed) hull — where no edge is visible — the result is empty; for
    /// degenerate hulls every vertex is returned (conservative).
    pub fn closer_chain(&self, p: Point) -> Vec<usize> {
        let n = self.vertices.len();
        if n < 3 {
            return (0..n).collect();
        }
        let mut incident = vec![false; n];
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            if orient2d_sign(a, b, p) < 0 {
                incident[i] = true;
                incident[(i + 1) % n] = true;
            }
        }
        (0..n).filter(|&i| incident[i]).collect()
    }

    /// The *visible region* of vertex `i` (paper Fig. 9 / Lemma 6): the
    /// union of the two half-planes bounded by the lines through the edges
    /// adjacent to vertex `i`, on the side **away** from the hull. A data
    /// point's dominance depends on query point `q = vertex i` exactly when
    /// the data point lies in this region.
    ///
    /// For degenerate hulls (fewer than 3 vertices) the whole plane is
    /// returned as a conservative over-approximation.
    pub fn visible_region(&self, i: usize) -> VisibleRegion {
        let n = self.vertices.len();
        if n < 3 {
            return VisibleRegion::WholePlane;
        }
        let prev = self.vertices[(i + n - 1) % n];
        let v = self.vertices[i];
        let next = self.vertices[(i + 1) % n];
        VisibleRegion::Wedges {
            e1: (prev, v),
            e2: (v, next),
        }
    }
}

/// The visible region of a convex-hull vertex — see
/// [`ConvexPolygon::visible_region`].
#[derive(Clone, Copy, Debug)]
pub enum VisibleRegion {
    /// Conservative fallback for degenerate hulls: every point is "visible".
    WholePlane,
    /// The union of the outsides of the two edges adjacent to the vertex
    /// (each edge stored as a CCW-directed pair, so "outside" is its right
    /// side).
    Wedges {
        /// The CCW edge entering the vertex.
        e1: (Point, Point),
        /// The CCW edge leaving the vertex.
        e2: (Point, Point),
    },
}

impl VisibleRegion {
    /// `true` when `p` lies in the (closed) visible region.
    pub fn contains(&self, p: Point) -> bool {
        match *self {
            VisibleRegion::WholePlane => true,
            VisibleRegion::Wedges { e1, e2 } => {
                orient2d_sign(e1.0, e1.1, p) <= 0 || orient2d_sign(e2.0, e2.1, p) <= 0
            }
        }
    }
}

/// The edges of the convex polygon with counter-clockwise vertices
/// `ring`, as [`ConvexPolygon::edges`] lists them.
fn ring_edges(ring: &[Point]) -> impl Iterator<Item = Segment> + '_ {
    let n = ring.len();
    (0..if n >= 3 { n } else { n.saturating_sub(1) })
        .map(move |i| Segment::new(ring[i], ring[(i + 1) % n]))
}

/// [`ConvexPolygon::contains`] on a borrowed ring: `true` when `p` lies
/// inside the convex polygon with counter-clockwise vertices `ring` (as a
/// [`ConvexPolygon`] stores them) or on its boundary.
// ssq-analyze: deny-alloc
fn ring_contains(ring: &[Point], p: Point) -> bool {
    match ring.len() {
        0 => false,
        1 => ring[0] == p,
        2 => {
            let (a, b) = (ring[0], ring[1]);
            orient2d_sign(a, b, p) == 0
                && p.x >= a.x.min(b.x)
                && p.x <= a.x.max(b.x)
                && p.y >= a.y.min(b.y)
                && p.y <= a.y.max(b.y)
        }
        n => (0..n).all(|i| orient2d_sign(ring[i], ring[(i + 1) % n], p) >= 0),
    }
}

/// [`ConvexPolygon::intersects_rect`] on a borrowed ring: `true` when the
/// convex polygon with counter-clockwise vertices `ring` and `r` share at
/// least one point.
// ssq-analyze: deny-alloc
fn ring_intersects_rect(ring: &[Point], r: &Rect) -> bool {
    if r.is_empty() || ring.is_empty() {
        return false;
    }
    // Any polygon vertex inside the rect, or any rect corner inside the
    // polygon, or any pair of edges crossing.
    if ring.iter().any(|&v| r.contains(v)) {
        return true;
    }
    let rc = r.corners();
    if rc.iter().any(|&c| ring_contains(ring, c)) {
        return true;
    }
    let redges: [Segment; 4] = std::array::from_fn(|i| Segment::new(rc[i], rc[(i + 1) % 4]));
    ring_edges(ring).any(|e| redges.iter().any(|re| e.intersects(re)))
}

/// Pushes `p` unless it duplicates the last pushed vertex.
fn push_unique(out: &mut Vec<Point>, p: Point) {
    if out.last().is_none_or(|&last| !last.approx_eq(p, 1e-12)) {
        out.push(p);
    }
}

/// Removes a duplicated first/last vertex produced by clipping.
fn dedup_ring(out: &mut Vec<Point>) {
    while out.len() >= 2 {
        let first = out[0];
        // ssq-analyze: allow(no-panic-transitive): the `out.len() >= 2` loop condition makes `last()` infallible
        let last = *out.last().expect("nonempty");
        if first.approx_eq(last, 1e-12) {
            out.pop();
        } else {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn unit_square() -> ConvexPolygon {
        ConvexPolygon::from_ccw_vertices(vec![p(0.0, 0.0), p(4.0, 0.0), p(4.0, 4.0), p(0.0, 4.0)])
    }

    fn triangle() -> ConvexPolygon {
        ConvexPolygon::from_ccw_vertices(vec![p(0.0, 0.0), p(6.0, 0.0), p(3.0, 6.0)])
    }

    #[test]
    fn containment() {
        let sq = unit_square();
        assert!(sq.contains(p(2.0, 2.0)));
        assert!(sq.contains(p(0.0, 0.0))); // vertex
        assert!(sq.contains(p(2.0, 0.0))); // edge
        assert!(!sq.contains(p(5.0, 2.0)));
        assert!(sq.contains_strict(p(2.0, 2.0)));
        assert!(!sq.contains_strict(p(2.0, 0.0))); // edge is not strict
    }

    #[test]
    fn degenerate_containment() {
        let pt = ConvexPolygon::from_ccw_vertices(vec![p(1.0, 1.0)]);
        assert!(pt.contains(p(1.0, 1.0)));
        assert!(!pt.contains(p(1.0, 1.1)));
        assert!(!pt.contains_strict(p(1.0, 1.0)));

        let seg = ConvexPolygon::from_ccw_vertices(vec![p(0.0, 0.0), p(2.0, 2.0)]);
        assert!(seg.contains(p(1.0, 1.0)));
        assert!(!seg.contains(p(1.0, 1.5)));
        assert!(!seg.contains(p(3.0, 3.0))); // beyond the endpoint
        assert!(!seg.contains_strict(p(1.0, 1.0)));
    }

    #[test]
    fn rect_containment_and_intersection() {
        let sq = unit_square();
        let inside = Rect::from_corners(p(1.0, 1.0), p(2.0, 2.0));
        let overlapping = Rect::from_corners(p(3.0, 3.0), p(6.0, 6.0));
        let outside = Rect::from_corners(p(10.0, 10.0), p(12.0, 12.0));
        let surrounding = Rect::from_corners(p(-1.0, -1.0), p(5.0, 5.0));
        assert!(sq.contains_rect(&inside));
        assert!(!sq.contains_rect(&overlapping));
        assert!(sq.intersects_rect(&inside));
        assert!(sq.intersects_rect(&overlapping));
        assert!(!sq.intersects_rect(&outside));
        assert!(sq.intersects_rect(&surrounding)); // rect contains polygon
    }

    #[test]
    fn rect_crossing_without_contained_vertices() {
        // A thin rect slicing through the triangle: no vertex of either
        // shape is inside the other, only edges cross.
        let tri = triangle();
        let slab = Rect::from_corners(p(-10.0, 2.0), p(10.0, 2.5));
        // Triangle vertices: none inside slab; slab corners: outside triangle.
        assert!(tri.intersects_rect(&slab));
    }

    #[test]
    fn convex_convex_intersection() {
        let a = unit_square();
        let b = ConvexPolygon::from_ccw_vertices(vec![p(3.0, 3.0), p(7.0, 3.0), p(5.0, 7.0)]);
        let c = ConvexPolygon::from_ccw_vertices(vec![p(10.0, 10.0), p(12.0, 10.0), p(11.0, 12.0)]);
        assert!(a.intersects_convex(&b));
        assert!(b.intersects_convex(&a));
        assert!(!a.intersects_convex(&c));
        // Containment counts as intersection.
        let tiny = ConvexPolygon::from_ccw_vertices(vec![p(1.0, 1.0), p(1.5, 1.0), p(1.2, 1.4)]);
        assert!(a.intersects_convex(&tiny));
        assert!(tiny.intersects_convex(&a));
    }

    #[test]
    fn area_and_centroid() {
        assert_eq!(unit_square().area(), 16.0);
        assert_eq!(triangle().area(), 18.0);
        assert_eq!(unit_square().centroid(), p(2.0, 2.0));
        let c = triangle().centroid();
        assert!(c.approx_eq(p(3.0, 2.0), 1e-12));
    }

    #[test]
    fn mbr_covers_polygon() {
        let t = triangle();
        let m = t.mbr();
        assert_eq!(m, Rect::from_corners(p(0.0, 0.0), p(6.0, 6.0)));
    }

    #[test]
    fn distance_to_polygon() {
        let sq = unit_square();
        assert_eq!(sq.distance(p(2.0, 2.0)), 0.0);
        assert_eq!(sq.distance(p(6.0, 2.0)), 2.0);
        assert_eq!(sq.distance(p(7.0, 8.0)), 5.0); // corner 3-4-5
    }

    #[test]
    fn clip_halfplane_cuts_square() {
        let sq = unit_square();
        // Keep the left half x <= 2: half-plane left of the upward line
        // x = 2.
        let h = HalfPlane::left_of(p(2.0, -10.0), p(2.0, 10.0));
        let clipped = sq.clip_halfplane(&h);
        assert!((clipped.area() - 8.0).abs() < 1e-9);
        assert!(clipped.contains(p(1.0, 2.0)));
        assert!(!clipped.contains(p(3.0, 2.0)));
    }

    #[test]
    fn clip_halfplane_disjoint_gives_empty() {
        let sq = unit_square();
        let h = HalfPlane::left_of(p(10.0, 10.0), p(10.0, -10.0)); // x >= 10
        assert!(sq.clip_halfplane(&h).is_empty());
    }

    #[test]
    fn clip_rect_intersection_area() {
        let tri = triangle();
        let r = Rect::from_corners(p(0.0, 0.0), p(6.0, 3.0));
        let clipped = tri.clip_rect(&r);
        // The part of the triangle below y=3 is the full triangle minus the
        // similar top triangle with half the height: 18 - 18/4 = 13.5.
        assert!((clipped.area() - 13.5).abs() < 1e-9, "{}", clipped.area());
    }

    #[test]
    fn closer_chain_faces_the_point() {
        let sq = unit_square(); // vertices 0..4 CCW from (0,0)
                                // p to the right of the square sees edge (4,0)-(4,4): vertices 1,2.
        let chain = sq.closer_chain(p(10.0, 2.0));
        assert_eq!(chain, vec![1, 2]);
        // p at the lower-right corner direction sees two edges: 0-1 and 1-2.
        let chain = sq.closer_chain(p(10.0, -10.0));
        assert_eq!(chain, vec![0, 1, 2]);
        // inside: nothing visible.
        assert!(sq.closer_chain(p(2.0, 2.0)).is_empty());
    }

    #[test]
    fn visible_region_of_vertex() {
        let sq = unit_square();
        // Vertex 1 is (4,0); its adjacent edges are (0,0)->(4,0) and
        // (4,0)->(4,4). Points below y=0 or right of x=4 see it.
        let vr = sq.visible_region(1);
        assert!(vr.contains(p(2.0, -1.0)));
        assert!(vr.contains(p(5.0, 2.0)));
        assert!(vr.contains(p(10.0, -10.0)));
        assert!(!vr.contains(p(2.0, 2.0))); // interior
        assert!(!vr.contains(p(-1.0, 5.0))); // opposite side
    }

    #[test]
    fn visible_region_degenerate_is_whole_plane() {
        let seg = ConvexPolygon::from_ccw_vertices(vec![p(0.0, 0.0), p(1.0, 0.0)]);
        assert!(seg.visible_region(0).contains(p(100.0, 100.0)));
    }

    #[test]
    fn clip_segment_polygon() {
        let seg = ConvexPolygon::from_ccw_vertices(vec![p(0.0, 0.0), p(10.0, 0.0)]);
        let h = HalfPlane::left_of(p(4.0, -10.0), p(4.0, 10.0)); // x <= 4
        let clipped = seg.clip_halfplane(&h);
        assert_eq!(clipped.len(), 2);
        assert!(clipped.contains(p(2.0, 0.0)));
        assert!(!clipped.contains(p(6.0, 0.0)));
    }

    #[test]
    fn edges_iterate_ring() {
        let sq = unit_square();
        let edges: Vec<Segment> = sq.edges().collect();
        assert_eq!(edges.len(), 4);
        assert_eq!(edges[3].b, p(0.0, 0.0)); // closes the ring
        let seg = ConvexPolygon::from_ccw_vertices(vec![p(0.0, 0.0), p(1.0, 0.0)]);
        assert_eq!(seg.edges().count(), 1); // open chain, not a ring
    }
}
