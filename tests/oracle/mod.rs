//! An exact spatial-skyline oracle that shares nothing with the served
//! paths: no Delaunay walk, no index, no `DistanceScratch::resolve`.
//!
//! It is the dominator-region test of Son, Lee, Ahn and Hwang: `p` is a
//! skyline point iff no other point lies inside-or-on every disk
//! `D(q, |p q|)`, `q` over the hull vertices `CHv(Q)`, and strictly inside
//! one — the definition of spatial dominance, read as geometry. The
//! candidates for each `p` come from a slab scan: the points of an
//! x-sorted copy whose x falls inside the region's MBR, filtered by its y
//! range, each then checked against every disk. `O(n log n)` to sort,
//! then per point a binary search and a slab that ends at the first
//! dominator found.

use spatial_skyline::geom::{convex_hull, Point, Rect};

/// The ids of the spatial skyline of `points` for the query points `q`,
/// ascending.
pub fn dominator_region_skyline(points: &[Point], q: &[Point]) -> Vec<u32> {
    let hull = convex_hull(q);
    let anchors = hull.vertices();
    let mut by_x: Vec<u32> = (0..points.len() as u32).collect();
    by_x.sort_by(|&a, &b| points[a as usize].x.total_cmp(&points[b as usize].x));
    let xs: Vec<f64> = by_x.iter().map(|&i| points[i as usize].x).collect();
    let mut radii_sq = Vec::with_capacity(anchors.len());
    let mut skyline = Vec::new();
    'points: for (i, &p) in (0u32..).zip(points) {
        radii_sq.clear();
        radii_sq.extend(anchors.iter().map(|&a| p.distance_sq(a)));
        // The region's MBR, widened past the rounding of `sqrt`: it only
        // picks candidates, the per-point check decides.
        let mut mbr = Rect::EVERYTHING;
        for (&a, &r2) in anchors.iter().zip(&radii_sq) {
            let r = r2.sqrt() * (1.0 + 1e-9) + f64::MIN_POSITIVE;
            let disk =
                Rect::from_corners(Point::new(a.x - r, a.y - r), Point::new(a.x + r, a.y + r));
            mbr = mbr.intersection(&disk);
        }
        let slab =
            &by_x[xs.partition_point(|&x| x < mbr.min.x)..xs.partition_point(|&x| x <= mbr.max.x)];
        for &j in slab {
            let r = points[j as usize];
            if j != i && r.y >= mbr.min.y && r.y <= mbr.max.y && dominates(r, anchors, &radii_sq) {
                continue 'points;
            }
        }
        skyline.push(i);
    }
    skyline
}

/// `true` when `r` is inside-or-on every disk `D(a, sqrt(radii_sq[k]))`,
/// `a = anchors[k]`, and strictly inside one.
fn dominates(r: Point, anchors: &[Point], radii_sq: &[f64]) -> bool {
    let mut strictly = false;
    for (&a, &r2) in anchors.iter().zip(radii_sq) {
        let d2 = r.distance_sq(a);
        if d2 > r2 {
            return false;
        }
        strictly |= d2 < r2;
    }
    strictly
}
