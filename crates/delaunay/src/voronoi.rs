//! Voronoi cell extraction from the Delaunay triangulation.
//!
//! The Voronoi cell of a site is the convex polygon whose vertices are the
//! circumcenters of the site's incident Delaunay triangles, in rotational
//! order; hull sites additionally own two unbounded edges perpendicular to
//! their hull edges. Two readings of that fact live here, both clipped to
//! a caller-provided rectangle (the SSQ algorithms only ever test cells
//! against bounded regions):
//!
//! * [`CellTracer::boxes`] — every cell's *box*, which is all a built
//!   index stores, in one pass over the triangles: each circumcenter is
//!   computed once and widens its three vertices' boxes. Hull sites, sites
//!   touching a numerically unusable circumcenter and sites whose box
//!   leaves the clip box (about 2.4 % on clustered points) take the
//!   polygon path instead; [`CellTracer::cell_box`] reads one site's box
//!   by the same rule, for a delta;
//! * [`CellTracer::cell`] — a cell's *polygon*, traced around the star in
//!   `O(deg)`: the polygon path of those boxes, and markedly faster than
//!   intersecting bisector half-planes
//!   ([`crate::DelaunayGraph::voronoi_cell`]), which remains the fallback
//!   for degenerate inputs.
//!
//! The tests validate the traced cells against the half-plane method, and
//! the boxes against the traced cells.

use ssq_geom::{ConvexPolygon, Point, Rect};

use crate::rows::{Arena, CowChunks};
use crate::triangulation::{Triangulation, GHOST};

/// How many clip diagonals from the clip box's centre a circumcenter may
/// lie before its cell goes to the half-plane fallback. A nearly flat
/// triangle on a nearly straight stretch of the hull has a circumcenter
/// ~1e16 units out, and clipping a ring through such a vertex at the box
/// rounds the cut by about 1e-16 of that distance — whole units, enough
/// to shave a strip off the cell. Within 1e6 diagonals the cut is exact
/// to about 1e-10 of the box.
const FAR_CIRCUMCENTER: f64 = 1e6;

/// The top bit of a [`CellTracer::boxes`] start: the site's box needs
/// the polygon path. Triangle slots stay below it (`2n` of them).
const FALLBACK: u32 = 1 << 31;

/// A [`CellTracer::boxes`] start naming no triangle yet.
const NO_START: u32 = FALLBACK - 1;

/// Circumcenter of triangle `(a, b, c)`, or `None` when the triangle is
/// numerically too flat for a finite center (the *exact* orientation can
/// be nonzero while the double-precision denominator underflows).
pub fn circumcenter(a: Point, b: Point, c: Point) -> Option<Point> {
    let abx = b.x - a.x;
    let aby = b.y - a.y;
    let acx = c.x - a.x;
    let acy = c.y - a.y;
    let d = 2.0 * (abx * acy - aby * acx);
    if d == 0.0 || !d.is_finite() {
        return None;
    }
    let ab2 = abx * abx + aby * aby;
    let ac2 = acx * acx + acy * acy;
    let ux = (acy * ab2 - aby * ac2) / d;
    let uy = (abx * ac2 - acx * ab2) / d;
    let cc = Point::new(a.x + ux, a.y + uy);
    cc.is_finite().then_some(cc)
}

/// Traces the Voronoi cells of a triangulation's sites from their
/// incident triangles' circumcenters, clipped to one rectangle.
///
/// [`CellTracer::new`] returns `None` for degenerate triangulations
/// (collinear input) — the caller should fall back to
/// [`crate::DelaunayGraph::voronoi_cell`]'s half-plane construction, which
/// handles those — and [`CellTracer::cell`] returns `None` for an
/// individual cell whose circumcenters are numerically unusable, which the
/// fallback builds too.
pub struct CellTracer<'a> {
    tri: &'a Triangulation,
    clip: Rect,
    /// Scale for the synthetic "far" endpoints of unbounded edges:
    /// anything that comfortably exits the clip rectangle.
    clip_diag: f64,
}

/// One finite triangle incident to each vertex — the last in slot order —
/// or `u32::MAX` for a vertex in none: where [`CellTracer::cell`] starts
/// when a whole triangulation's cells are traced.
pub fn incident_triangles(tri: &Triangulation) -> Vec<u32> {
    let mut incident = vec![u32::MAX; tri.points().len()];
    for t in 0..tri.slot_count() as u32 {
        let v = tri.slot_verts(t);
        if tri.slot_alive(t) && v[2] != GHOST {
            for vi in v {
                incident[vi as usize] = t;
            }
        }
    }
    incident
}

impl<'a> CellTracer<'a> {
    /// A tracer over `tri`'s sites, clipping to `clip`.
    pub fn new(tri: &'a Triangulation, clip: &Rect) -> Option<CellTracer<'a>> {
        (!tri.is_degenerate()).then(|| CellTracer {
            tri,
            clip: *clip,
            clip_diag: (clip.width() + clip.height()).max(1.0),
        })
    }

    /// The cell of `site`, clipped, traced from `t` — any live triangle of
    /// its star, such as a [`Touched::star`](crate::Touched::star) or an
    /// entry of [`incident_triangles`] (`u32::MAX`: none); `None` when the
    /// fallback must build it.
    pub fn cell(&self, site: u32, t: u32) -> Option<ConvexPolygon> {
        let (tri, clip) = (self.tri, &self.clip);
        let points = tri.points();
        if t == u32::MAX {
            return None;
        }
        // A finite start: a hull vertex's star holds two ghosts, so at
        // most two CCW steps leave them.
        let mut t0 = t;
        for _ in 0..2 {
            if tri.slot_verts(t0)[2] != GHOST {
                break;
            }
            t0 = tri.slot_nbr(t0, (vertex_index(tri, t0, site) + 1) % 3);
        }
        if tri.slot_verts(t0)[2] == GHOST {
            return None;
        }
        let k0 = vertex_index(tri, t0, site);

        // Rotate clockwise around the site to find the CW-most finite
        // triangle (or detect a full interior loop).
        let mut start = (t0, k0);
        let mut interior = false;
        {
            let mut cur = start;
            loop {
                // CW neighbour: across edge (site, v[k+1]).
                let nbr = tri.slot_nbr(cur.0, (cur.1 + 2) % 3);
                if tri.slot_verts(nbr)[2] == GHOST {
                    break; // hull site: cur is the CW-most finite triangle
                }
                if nbr == t0 {
                    interior = true;
                    break;
                }
                let k = vertex_index(tri, nbr, site);
                cur = (nbr, k);
                if cur == start {
                    interior = true;
                    break;
                }
            }
            if !interior {
                // Walk again to actually land on the CW-most triangle.
                let mut cur2 = start;
                loop {
                    let nbr = tri.slot_nbr(cur2.0, (cur2.1 + 2) % 3);
                    if tri.slot_verts(nbr)[2] == GHOST {
                        break;
                    }
                    cur2 = (nbr, vertex_index(tri, nbr, site));
                }
                start = cur2;
            }
        }

        // Collect circumcenters rotating counter-clockwise from `start`; a
        // numerically flat triangle, or one whose circumcenter lies too
        // far out to clip exactly, sends the cell to the fallback.
        let far = FAR_CIRCUMCENTER * self.clip_diag;
        let mut ccs: Vec<Point> = Vec::with_capacity(8);
        let mut fan: Vec<(u32, usize)> = Vec::with_capacity(8);
        let mut cur = start;
        loop {
            let v = tri.slot_verts(cur.0);
            let cc = circumcenter(
                points[v[0] as usize],
                points[v[1] as usize],
                points[v[2] as usize],
            )?;
            if cc.distance_sq(clip.center()) > far * far {
                return None;
            }
            ccs.push(cc);
            fan.push(cur);
            // CCW neighbour: across edge (site, v[k+2]).
            let nbr = tri.slot_nbr(cur.0, (cur.1 + 1) % 3);
            if tri.slot_verts(nbr)[2] == GHOST {
                break; // hull site: fan complete
            }
            let k = vertex_index(tri, nbr, site);
            cur = (nbr, k);
            if cur == start {
                break; // interior site: loop closed
            }
        }

        let poly = if interior {
            ConvexPolygon::from_ccw_dirty(ccs, 1e-12).clip_rect(clip)
        } else {
            // Hull site: prepend/append far points along the two unbounded
            // bisector rays. The CW-most triangle's hull edge is
            // (site, v[k+1]); the CCW-most triangle's hull edge is
            // (site, v[k+2]).
            let site_pt = points[site as usize];
            let big = 4.0
                * (self.clip_diag
                    + ccs
                        .iter()
                        .map(|c| c.distance(clip.center()))
                        .fold(0.0, f64::max));

            let (t_first, k_first) = fan[0];
            let vfirst = tri.slot_verts(t_first);
            let other_first = points[vfirst[(k_first + 1) % 3] as usize];
            let third_first = points[vfirst[(k_first + 2) % 3] as usize];
            let ray_first = outward_ray(site_pt, other_first, third_first);

            #[expect(
                clippy::expect_used,
                reason = "fan[0] was indexed just above, so the fan is nonempty"
            )]
            let (t_last, k_last) = *fan.last().expect("nonempty fan");
            let vlast = tri.slot_verts(t_last);
            let other_last = points[vlast[(k_last + 2) % 3] as usize];
            let third_last = points[vlast[(k_last + 1) % 3] as usize];
            let ray_last = outward_ray(site_pt, other_last, third_last);

            let mut ring: Vec<Point> = Vec::with_capacity(ccs.len() + 2);
            ring.push(ccs[0] + ray_first * big);
            ring.extend(ccs.iter().copied());
            #[expect(
                clippy::expect_used,
                reason = "ccs[0] was indexed just above, so ccs is nonempty"
            )]
            ring.push(*ccs.last().expect("nonempty") + ray_last * big);
            ConvexPolygon::from_ccw_dirty(ring, 1e-12).clip_rect(clip)
        };
        // Numerical trouble (e.g. huge circumcenters collapsing the ring):
        // let the caller rebuild this cell by half-planes.
        (!poly.is_empty() && poly.contains(points[site as usize])).then_some(poly)
    }

    /// Every site's cell box in one pass over the triangles: each live
    /// finite triangle's circumcenter widens the boxes of its three
    /// vertices, written straight into the table.
    ///
    /// The circumcenters of an interior site's star are the vertices of
    /// the ring [`CellTracer::cell`] traces, so where that ring needs no
    /// clipping its box is the one the pass reads. Every other site gets
    /// `fallback(site, t)`, `t` the last finite triangle of its star in
    /// slot order (the start [`incident_triangles`] gives): hull sites,
    /// marked by their ghost triangles; sites touching a flat or far
    /// circumcenter, which the trace gives up on; and sites whose box
    /// leaves the clip box. On clustered points that is about 2.4 % of
    /// the sites.
    ///
    /// The trace also drops a ring vertex within `1e-12` of the one before
    /// it or one that rounding bent inward, which (near-)cocircular stars
    /// produce, and gives up on a ring that misses its site. The pass
    /// keeps every vertex, so there a box may differ from the traced one
    /// by that rounding: on four exactly cocircular integer rings (128
    /// sites) 4 boxes are one ulp larger. On 200 000 clustered points no
    /// site's box differs in a bit (`tests/cell_boxes.rs`).
    pub fn boxes(&self, mut fallback: impl FnMut(u32, u32) -> Rect) -> CowChunks<Rect> {
        let tri = self.tri;
        let n = tri.points().len();
        let mut boxes = CowChunks::filled(n, Rect::EMPTY);
        let mut table = boxes.build();
        // Per site, the last finite triangle of its star so far, with
        // `FALLBACK` set once the site needs the polygon path.
        let mut start = vec![NO_START; n];
        for t in 0..tri.slot_count() as u32 {
            let v = tri.slot_verts(t);
            if v[0] == GHOST {
                continue; // a dead slot
            }
            if v[2] == GHOST {
                start[v[0] as usize] |= FALLBACK;
                start[v[1] as usize] |= FALLBACK;
                continue;
            }
            debug_assert!(t < NO_START, "slot {t} collides with the fallback bit");
            let center = self.center(t);
            for s in v {
                let mut flag = start[s as usize] & FALLBACK;
                match center {
                    Some(c) if flag == 0 => {
                        let r = table.get_mut(s);
                        r.expand_to(c);
                        if !self.clip.contains_rect(r) {
                            flag = FALLBACK;
                        }
                    }
                    _ => flag = FALLBACK,
                }
                start[s as usize] = t | flag;
            }
        }
        for (s, &at) in (0u32..).zip(&start) {
            let t = at & !FALLBACK;
            if at & FALLBACK != 0 || t == NO_START {
                *table.get_mut(s) = fallback(s, if t == NO_START { u32::MAX } else { t });
            }
        }
        boxes
    }

    /// The box [`CellTracer::boxes`] gives `site`, by the same rule, read
    /// off its star from `star` — any live triangle of it, such as a
    /// [`Touched::star`](crate::Touched::star) — or `fallback(site, star)`
    /// where the rule sends the site to the polygon path.
    pub fn cell_box(&self, site: u32, star: u32, fallback: impl FnOnce(u32, u32) -> Rect) -> Rect {
        let tri = self.tri;
        let walked = || {
            if star == u32::MAX {
                return None; // a site in no finite triangle
            }
            let mut r = Rect::EMPTY;
            let mut cur = star;
            loop {
                if tri.slot_verts(cur)[2] == GHOST {
                    return None; // a hull site
                }
                r.expand_to(self.center(cur)?);
                // CCW neighbour: across edge (site, v[k+2]).
                cur = tri.slot_nbr(cur, (vertex_index(tri, cur, site) + 1) % 3);
                if cur == star {
                    return self.clip.contains_rect(&r).then_some(r);
                }
            }
        };
        walked().unwrap_or_else(|| fallback(site, star))
    }

    /// The circumcenter of live finite triangle `t` as
    /// [`CellTracer::cell`] computes it, or `None` where that trace gives
    /// up: a flat triangle, or a circumcenter too far out to clip exactly.
    fn center(&self, t: u32) -> Option<Point> {
        let v = self.tri.slot_verts(t);
        let points = self.tri.points();
        let cc = circumcenter(
            points[v[0] as usize],
            points[v[1] as usize],
            points[v[2] as usize],
        )?;
        let far = FAR_CIRCUMCENTER * self.clip_diag;
        (cc.distance_sq(self.clip.center()) <= far * far).then_some(cc)
    }
}

/// Index of `site` within triangle `t`'s vertex array.
#[expect(
    clippy::expect_used,
    reason = "callers pass triangles incident to the site; a miss is a corrupted triangulation where fail-fast is correct"
)]
fn vertex_index(tri: &Triangulation, t: u32, site: u32) -> usize {
    tri.slot_verts(t)
        .iter()
        .position(|&v| v == site)
        .expect("triangle must contain the site")
}

/// Unit direction of the unbounded Voronoi edge dual to hull edge
/// `(site, other)`: perpendicular to the edge, pointing away from the
/// triangle's third vertex (i.e. out of the hull).
fn outward_ray(site: Point, other: Point, third: Point) -> Point {
    let edge = other - site;
    let mut dir = edge.perp();
    let mid = site.midpoint(other);
    if dir.dot(third - mid) > 0.0 {
        dir = -dir;
    }
    dir.normalized().unwrap_or(Point::new(1.0, 0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DelaunayGraph;

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
        (0..n).map(|_| p(next() * 100.0, next() * 100.0)).collect()
    }

    #[test]
    fn circumcenter_equidistant() {
        let (a, b, c) = (p(0.0, 0.0), p(4.0, 0.0), p(0.0, 6.0));
        let cc = circumcenter(a, b, c).unwrap();
        let (da, db, dc) = (cc.distance(a), cc.distance(b), cc.distance(c));
        assert!((da - db).abs() < 1e-9);
        assert!((da - dc).abs() < 1e-9);
    }

    #[test]
    fn circumcenter_degenerate_is_none() {
        assert!(circumcenter(p(0.0, 0.0), p(1.0, 1.0), p(2.0, 2.0)).is_none());
    }

    #[test]
    fn cells_match_halfplane_construction() {
        for seed in [1u64, 7, 42] {
            let pts = pseudorandom(60, seed);
            let graph = DelaunayGraph::new(&pts).unwrap();
            let tri = graph.triangulation();
            let clip = graph.default_clip();
            let fast = CellTracer::new(tri, &clip).expect("non-degenerate");
            let incident = incident_triangles(tri);
            for i in 0..pts.len() as u32 {
                let slow = graph.voronoi_cell(i, &clip);
                let Some(cell) = fast.cell(i, incident[i as usize]) else {
                    continue; // fallback case, nothing to compare
                };
                assert!(
                    (cell.area() - slow.area()).abs() < 1e-6 * slow.area().max(1.0),
                    "site {i}: area {} vs {}",
                    cell.area(),
                    slow.area()
                );
                // Mutual vertex containment within tolerance.
                for &v in cell.vertices() {
                    assert!(slow.distance(v) < 1e-6, "site {i}: vertex {v:?} escapes");
                }
                for &v in slow.vertices() {
                    assert!(cell.distance(v) < 1e-6, "site {i}: missing region at {v:?}");
                }
            }
        }
    }

    #[test]
    fn cells_on_grid_with_cocircular_quads() {
        let mut pts = Vec::new();
        for i in 0..5 {
            for j in 0..5 {
                pts.push(p(i as f64, j as f64));
            }
        }
        let graph = DelaunayGraph::new(&pts).unwrap();
        let tri = graph.triangulation();
        let clip = graph.default_clip();
        let fast = CellTracer::new(tri, &clip).expect("non-degenerate");
        let incident = incident_triangles(tri);
        let mut total = 0.0;
        for i in 0..pts.len() {
            let cell = fast
                .cell(i as u32, incident[i])
                .unwrap_or_else(|| graph.voronoi_cell(i as u32, &clip));
            assert!(cell.contains(pts[i]));
            total += cell.area();
        }
        assert!(
            (total - clip.area()).abs() < 1e-6 * clip.area(),
            "cells must tile the clip box"
        );
    }

    #[test]
    fn a_nearly_straight_hull_falls_back_instead_of_shaving_cells() {
        // A sheared lattice: its bottom row lies on y = x / 10, where
        // rounding bends the hull by ~1e-17, so the flat triangles along
        // it have circumcenters ~1e16 out. Clipped at the box, those rings
        // lost strips of whole units; such cells must fall back.
        let pts: Vec<Point> = (0..100)
            .map(|k| p((k / 10) as f64, (k % 10) as f64 + 0.1 * (k / 10) as f64))
            .collect();
        let graph = DelaunayGraph::new(&pts).unwrap();
        let tri = graph.triangulation();
        let clip = graph.default_clip();
        let fast = CellTracer::new(tri, &clip).expect("non-degenerate");
        let incident = incident_triangles(tri);
        let mut fallbacks = 0;
        for i in 0..pts.len() as u32 {
            let slow = graph.voronoi_cell(i, &clip);
            let Some(cell) = fast.cell(i, incident[i as usize]) else {
                fallbacks += 1;
                continue;
            };
            for &v in slow.vertices() {
                assert!(cell.distance(v) < 1e-6, "site {i}: missing region at {v:?}");
            }
        }
        assert!(fallbacks > 0, "no cell of the bent hull fell back");
    }

    #[test]
    fn one_pass_boxes_are_the_traced_cells_boxes_from_any_star_triangle() {
        for seed in [1u64, 7, 42] {
            let pts = pseudorandom(300, seed);
            let graph = DelaunayGraph::new(&pts).unwrap();
            let tri = graph.triangulation();
            let clip = graph.default_clip();
            let tracer = CellTracer::new(tri, &clip).expect("non-degenerate");
            let polygon = |s: u32, t: u32| {
                tracer
                    .cell(s, t)
                    .unwrap_or_else(|| graph.voronoi_cell(s, &clip))
                    .mbr()
            };
            let mut fallbacks = 0;
            let boxes = tracer.boxes(|s, t| {
                fallbacks += 1;
                polygon(s, t)
            });
            assert!(fallbacks > 0 && fallbacks < pts.len() / 2, "{fallbacks}");
            let incident = incident_triangles(tri);
            for s in 0..pts.len() as u32 {
                assert_eq!(boxes[s], polygon(s, incident[s as usize]), "site {s}");
                // The per-site rule agrees from every triangle of the
                // star, ghosts included.
                for t in (0..tri.slot_count() as u32).filter(|&t| tri.slot_verts(t).contains(&s)) {
                    assert_eq!(
                        tracer.cell_box(s, t, polygon),
                        boxes[s],
                        "site {s} from {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn degenerate_input_returns_none() {
        let tri = Triangulation::new(&[p(0.0, 0.0), p(1.0, 1.0), p(2.0, 2.0)]).unwrap();
        assert!(CellTracer::new(&tri, &Rect::from_corners(p(-1.0, -1.0), p(3.0, 3.0))).is_none());
    }
}
