//! Voronoi cell extraction from the Delaunay triangulation.
//!
//! The Voronoi cell of a site is the convex polygon whose vertices are the
//! circumcenters of the site's incident Delaunay triangles, in rotational
//! order; hull sites additionally own two unbounded edges perpendicular to
//! their hull edges. This module traces those cells directly — `O(deg)`
//! per site — which is both the textbook construction and markedly faster
//! than intersecting bisector half-planes (the fallback used for
//! degenerate inputs).
//!
//! All cells are clipped to a caller-provided rectangle (the SSQ
//! algorithms only ever test cells against bounded regions), and the
//! construction is validated against the half-plane method by the tests.

use ssq_geom::{ConvexPolygon, Point, Rect};

use crate::triangulation::{Triangulation, GHOST};

/// How many clip diagonals from the clip box's centre a circumcenter may
/// lie before its cell goes to the half-plane fallback. A nearly flat
/// triangle on a nearly straight stretch of the hull has a circumcenter
/// ~1e16 units out, and clipping a ring through such a vertex at the box
/// rounds the cut by about 1e-16 of that distance — whole units, enough
/// to shave a strip off the cell. Within 1e6 diagonals the cut is exact
/// to about 1e-10 of the box.
const FAR_CIRCUMCENTER: f64 = 1e6;

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

            // ssq-analyze: allow(no-panic-transitive): fan[0] was indexed just above, so the fan is nonempty
            let (t_last, k_last) = *fan.last().expect("nonempty fan");
            let vlast = tri.slot_verts(t_last);
            let other_last = points[vlast[(k_last + 2) % 3] as usize];
            let third_last = points[vlast[(k_last + 1) % 3] as usize];
            let ray_last = outward_ray(site_pt, other_last, third_last);

            let mut ring: Vec<Point> = Vec::with_capacity(ccs.len() + 2);
            ring.push(ccs[0] + ray_first * big);
            ring.extend(ccs.iter().copied());
            // ssq-analyze: allow(no-panic-transitive): ccs[0] was indexed just above, so ccs is nonempty
            ring.push(*ccs.last().expect("nonempty") + ray_last * big);
            ConvexPolygon::from_ccw_dirty(ring, 1e-12).clip_rect(clip)
        };
        // Numerical trouble (e.g. huge circumcenters collapsing the ring):
        // let the caller rebuild this cell by half-planes.
        (!poly.is_empty() && poly.contains(points[site as usize])).then_some(poly)
    }
}

/// Index of `site` within triangle `t`'s vertex array.
fn vertex_index(tri: &Triangulation, t: u32, site: u32) -> usize {
    tri.slot_verts(t)
        .iter()
        .position(|&v| v == site)
        // ssq-analyze: allow(no-panic-transitive): callers pass triangles incident to the site; a miss is a corrupted triangulation where fail-fast is correct
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
    fn degenerate_input_returns_none() {
        let tri = Triangulation::new(&[p(0.0, 0.0), p(1.0, 1.0), p(2.0, 2.0)]).unwrap();
        assert!(CellTracer::new(&tri, &Rect::from_corners(p(-1.0, -1.0), p(3.0, 3.0))).is_none());
    }
}
