//! The Delaunay graph: adjacency lists, Voronoi cells and greedy walks.
//!
//! VS² (paper §4.2) assumes "the Voronoi neighbors of each data point is
//! known. To be specific, the adjacency list of the Delaunay graph of the
//! points in P is stored in a flat file". [`DelaunayGraph`] is that
//! structure: one sorted neighbour list per vertex, built from the
//! triangulation, with the two geometric queries the SSQ algorithms need —
//! Voronoi cells (for the Theorem 3/4 pruning tests) and greedy
//! nearest-neighbour walks (to find the traversal's entry point `NN(q₁)`).
//!
//! The graph keeps the triangulation it was read from — the points live
//! there, once — so an edited copy of it can be patched in. The lists are
//! [`Rows`] — `Arc`-shared chunks of consecutive vertices — so the graph of
//! an edited triangulation ([`DelaunayGraph::patched`]) rewrites the chunks
//! holding a vertex whose star changed and shares the rest with the graph
//! it was patched from.

use ssq_geom::{ConvexPolygon, HalfPlane, Point, Rect};

use crate::rows::Rows;
use crate::triangulation::{BuildError, Touched, Triangulation};

/// The Delaunay graph of a point set.
///
/// For degenerate inputs (fewer than three points, or all points collinear)
/// the graph is the path connecting consecutive points along their common
/// line — exactly the Delaunay graph limit — so every query below still
/// behaves correctly.
///
/// A graph patched after removals keeps the removed vertices' slots: they
/// have no neighbours, no other vertex lists them, and a walk must not
/// start from one.
pub struct DelaunayGraph {
    /// The triangulation the lists were read from; it holds every vertex
    /// slot's coordinates (stale for a removed vertex).
    tri: Triangulation,
    /// Neighbours of `i`, ascending: `adj.row(i)`.
    adj: Rows<u32>,
    /// MBR of the live vertices; the default Voronoi clip box is derived
    /// from it.
    bounds: Rect,
}

impl DelaunayGraph {
    /// Builds the Delaunay graph of `points`.
    pub fn new(points: &[Point]) -> Result<DelaunayGraph, BuildError> {
        Ok(Self::from_triangulation(Triangulation::new(points)?))
    }

    /// Builds the graph of a triangulation no vertex has been removed
    /// from, keeping it.
    pub fn from_triangulation(tri: Triangulation) -> DelaunayGraph {
        let points = tri.points();
        let n = points.len();

        // A CSR fill first: every finite *directed* edge `a → b` occurs
        // exactly once over the alive triangles (the reverse edge lives in
        // the adjacent triangle — a ghost, for hull edges), so two passes
        // over the triangle corners place every list without
        // materializing and sorting a global edge list.
        let edges = if tri.is_degenerate() {
            degenerate_path_edges(points)
        } else {
            Vec::new()
        };
        let each_edge = |f: &mut dyn FnMut(u32, u32)| {
            if tri.is_degenerate() {
                for &(a, b) in &edges {
                    f(a, b);
                    f(b, a);
                }
            } else {
                tri.for_each_directed_edge(f);
            }
        };
        let mut degree = vec![0u32; n];
        each_edge(&mut |a, _| degree[a as usize] += 1);
        let offsets = prefix_sum(&degree);
        let mut csr = vec![0u32; offsets[n] as usize];
        let mut cursor = offsets.clone();
        each_edge(&mut |a, b| {
            csr[cursor[a as usize] as usize] = b;
            cursor[a as usize] += 1;
        });
        // Each list sorted, for determinism and binary search.
        let adj = Rows::new(n, |i, out| {
            let start = out.len();
            out.extend_from_slice(
                &csr[offsets[i as usize] as usize..offsets[i as usize + 1] as usize],
            );
            out[start..].sort_unstable();
        });
        DelaunayGraph {
            bounds: Rect::bounding(points.iter().copied()),
            adj,
            tri,
        }
    }

    /// The graph of `tri`, an edited copy of [`DelaunayGraph::triangulation`]:
    /// the lists of the `touched` vertices — ascending, one entry each, the
    /// latest report of every vertex an edit reported — are read off their
    /// stars (a removed vertex's is empty), every other list is shared
    /// with `self`. `bounds` is the MBR of `tri`'s live vertices.
    /// `O(|touched| + n / CHUNK)`.
    pub fn patched(&self, tri: Triangulation, touched: &[Touched], bounds: Rect) -> DelaunayGraph {
        debug_assert!(touched.windows(2).all(|w| w[0].vertex < w[1].vertex));
        let dirty: Vec<u32> = touched.iter().map(|t| t.vertex).collect();
        let mut stars = touched.iter();
        let adj = self.adj.patched(tri.points().len(), &dirty, |i, out| {
            let touched = stars.next();
            debug_assert_eq!(touched.map(|t| t.vertex), Some(i));
            if let Some(t) = touched.and_then(|t| t.star) {
                let start = out.len();
                tri.star(i, t, out);
                out[start..].sort_unstable();
            }
        });
        DelaunayGraph { tri, adj, bounds }
    }

    /// The triangulation the graph was read from.
    pub fn triangulation(&self) -> &Triangulation {
        &self.tri
    }

    /// The underlying points by vertex slot: the input order, then any
    /// inserted points (a removed vertex keeps its stale coordinates).
    #[inline]
    pub fn points(&self) -> &[Point] {
        self.tri.points()
    }

    /// Number of vertex slots, removed vertices included.
    pub fn len(&self) -> usize {
        self.points().len()
    }

    /// `true` when the graph has no points.
    pub fn is_empty(&self) -> bool {
        self.points().is_empty()
    }

    /// The point with index `i`.
    #[inline]
    pub fn point(&self, i: u32) -> Point {
        self.points()[i as usize]
    }

    /// The Voronoi (Delaunay) neighbours of point `i`, sorted by index.
    #[inline]
    // ssq-analyze: deny-alloc
    pub fn neighbors(&self, i: u32) -> &[u32] {
        self.adj.row(i)
    }

    /// The neighbour lists themselves.
    pub fn rows(&self) -> &Rows<u32> {
        &self.adj
    }

    /// Total number of undirected Delaunay edges.
    pub fn edge_count(&self) -> usize {
        self.adj.item_count() / 2
    }

    /// The MBR of the live points.
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// The default clipping rectangle for Voronoi cells: the live points'
    /// MBR inflated by its own larger side (so boundary cells comfortably
    /// cover the data universe).
    pub fn default_clip(&self) -> Rect {
        let margin = (self.bounds.width().max(self.bounds.height())).max(1.0);
        self.bounds.inflate(margin)
    }

    /// The Voronoi cell of point `i`, clipped to `clip`.
    ///
    /// The cell is computed as the intersection of `clip` with the
    /// bisector half-planes toward each Delaunay neighbour — which equals
    /// the true Voronoi cell intersected with `clip`, because the Voronoi
    /// cell of a point is already the intersection of the bisector
    /// half-planes of its *Delaunay neighbours* alone.
    pub fn voronoi_cell(&self, i: u32, clip: &Rect) -> ConvexPolygon {
        let p = self.point(i);
        let c = clip.corners();
        let mut poly = ConvexPolygon::from_ccw_vertices(vec![c[0], c[1], c[2], c[3]]);
        for &j in self.neighbors(i) {
            poly = poly.clip_halfplane(&HalfPlane::closer_to(p, self.point(j)));
            if poly.is_empty() {
                break;
            }
        }
        poly
    }

    /// Greedy nearest-neighbour walk: starting from `start`, repeatedly
    /// moves to any neighbour strictly closer to `q`, stopping at a local
    /// (= global, on Delaunay graphs) minimum. Returns the index of the
    /// nearest point to `q` and the number of hops taken.
    ///
    /// Greedy routing provably reaches the point whose Voronoi cell
    /// contains `q` on a Delaunay triangulation (Bose & Morin 2004), which
    /// is exactly the nearest neighbour. This is the `Φ(√|P|)`-step entry
    /// point the paper describes when no index is available (§4.2).
    pub fn greedy_nearest(&self, q: Point, start: u32) -> (u32, usize) {
        let mut visited = 0;
        let nearest = self.greedy_nearest_with(q, start, |_| visited += 1);
        (nearest, visited - 1)
    }

    /// [`DelaunayGraph::greedy_nearest`] for a caller that accounts the
    /// reads itself: `visit(i)` is called for every point whose adjacency
    /// list the walk scans, `start` first and the answer last. `start`
    /// must be a live vertex: a removed one has no neighbours and would be
    /// returned as it is.
    pub fn greedy_nearest_with(&self, q: Point, start: u32, mut visit: impl FnMut(u32)) -> u32 {
        let mut cur = start;
        let mut cur_d = self.point(cur).distance_sq(q);
        loop {
            let mut best = cur;
            let mut best_d = cur_d;
            visit(cur);
            for &j in self.neighbors(cur) {
                let d = self.point(j).distance_sq(q);
                if d < best_d {
                    best = j;
                    best_d = d;
                }
            }
            if best == cur {
                return cur;
            }
            cur = best;
            cur_d = best_d;
        }
    }
}

/// Exclusive prefix sum of `degree`, as CSR offsets.
fn prefix_sum(degree: &[u32]) -> Vec<u32> {
    let mut offsets = vec![0u32; degree.len() + 1];
    for (i, &d) in degree.iter().enumerate() {
        offsets[i + 1] = offsets[i] + d;
    }
    offsets
}

/// Delaunay edges of a degenerate (collinear or tiny) point set: the path
/// connecting consecutive points along the line.
fn degenerate_path_edges(points: &[Point]) -> Vec<(u32, u32)> {
    let n = points.len();
    if n < 2 {
        return Vec::new();
    }
    // Order by projection onto the dominant direction (fall back to
    // lexicographic order, which equals projection order for collinear
    // sets).
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by(|&i, &j| points[i as usize].lex_cmp(&points[j as usize]));
    order
        .windows(2)
        .map(|w| (w[0].min(w[1]), w[0].max(w[1])))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn grid(w: usize, h: usize) -> Vec<Point> {
        let mut pts = Vec::new();
        for i in 0..w {
            for j in 0..h {
                pts.push(p(i as f64, j as f64));
            }
        }
        pts
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
    fn neighbors_are_symmetric_and_sorted() {
        let g = DelaunayGraph::new(&pseudorandom(60, 7)).unwrap();
        for i in 0..g.len() as u32 {
            let ns = g.neighbors(i);
            assert!(ns.windows(2).all(|w| w[0] < w[1]), "sorted, no dupes");
            for &j in ns {
                assert!(g.neighbors(j).contains(&i), "symmetry {i} <-> {j}");
            }
        }
    }

    #[test]
    fn graph_is_connected() {
        let g = DelaunayGraph::new(&pseudorandom(80, 99)).unwrap();
        let n = g.len();
        let mut seen = vec![false; n];
        let mut stack = vec![0u32];
        seen[0] = true;
        let mut count = 0;
        while let Some(i) = stack.pop() {
            count += 1;
            for &j in g.neighbors(i) {
                if !seen[j as usize] {
                    seen[j as usize] = true;
                    stack.push(j);
                }
            }
        }
        assert_eq!(count, n, "Delaunay graph must be connected");
    }

    #[test]
    fn voronoi_cell_contains_owner_and_separates() {
        let pts = pseudorandom(40, 3);
        let g = DelaunayGraph::new(&pts).unwrap();
        let clip = g.default_clip();
        for i in 0..g.len() as u32 {
            let cell = g.voronoi_cell(i, &clip);
            assert!(cell.contains(g.point(i)), "cell contains its site");
            // Sample the cell's vertices: they must be (weakly) closest to i.
            for &v in cell.vertices() {
                let di = v.distance(g.point(i));
                for j in 0..g.len() as u32 {
                    assert!(
                        v.distance(g.point(j)) >= di - 1e-7,
                        "cell vertex {v:?} of site {i} closer to {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn voronoi_cells_cover_random_probes() {
        // Brute-force check: the site whose cell contains a probe point is
        // its nearest site.
        let pts = pseudorandom(30, 11);
        let g = DelaunayGraph::new(&pts).unwrap();
        let clip = g.default_clip();
        let probes = pseudorandom(50, 1234);
        for q in probes {
            let nn = (0..g.len() as u32)
                .min_by(|&a, &b| {
                    g.point(a)
                        .distance_sq(q)
                        .total_cmp(&g.point(b).distance_sq(q))
                })
                .unwrap();
            let cell = g.voronoi_cell(nn, &clip);
            assert!(
                cell.contains(q),
                "probe {q:?} must lie in the cell of its nearest site {nn}"
            );
        }
    }

    #[test]
    fn greedy_walk_finds_true_nearest() {
        let pts = pseudorandom(100, 21);
        let g = DelaunayGraph::new(&pts).unwrap();
        let probes = pseudorandom(50, 4321);
        for q in probes {
            let brute = (0..g.len() as u32)
                .min_by(|&a, &b| {
                    g.point(a)
                        .distance_sq(q)
                        .total_cmp(&g.point(b).distance_sq(q))
                })
                .unwrap();
            let (found, _) = g.greedy_nearest(q, 0);
            assert_eq!(
                g.point(found).distance_sq(q),
                g.point(brute).distance_sq(q),
                "greedy walk must find a true nearest neighbour"
            );
        }
    }

    #[test]
    fn grid_interior_degree_is_bounded() {
        let g = DelaunayGraph::new(&grid(5, 5)).unwrap();
        // Every vertex of a Delaunay triangulation of a grid has at most 8
        // neighbours (the 4-neighbourhood plus diagonals).
        for i in 0..g.len() as u32 {
            assert!(g.neighbors(i).len() <= 8);
            assert!(!g.neighbors(i).is_empty());
        }
    }

    #[test]
    fn degenerate_collinear_forms_path() {
        let g = DelaunayGraph::new(&[p(0.0, 0.0), p(2.0, 0.0), p(1.0, 0.0), p(3.0, 0.0)]).unwrap();
        // Path order along the line: 0 - 2 - 1 - 3.
        assert_eq!(g.neighbors(0), &[2]);
        assert_eq!(g.neighbors(2), &[0, 1]);
        assert_eq!(g.neighbors(1), &[2, 3]);
        assert_eq!(g.neighbors(3), &[1]);
        // NN walks still work.
        assert_eq!(g.greedy_nearest(p(2.9, 1.0), 0).0, 3);
    }

    #[test]
    fn two_points_and_one_point() {
        let g = DelaunayGraph::new(&[p(0.0, 0.0), p(5.0, 5.0)]).unwrap();
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
        let g1 = DelaunayGraph::new(&[p(1.0, 1.0)]).unwrap();
        assert!(g1.neighbors(0).is_empty());
        assert_eq!(g1.greedy_nearest(p(0.0, 0.0), 0).0, 0);
    }

    #[test]
    fn voronoi_cell_of_isolated_point_is_clip_box() {
        let g = DelaunayGraph::new(&[p(1.0, 1.0)]).unwrap();
        let clip = Rect::from_corners(p(0.0, 0.0), p(2.0, 2.0));
        let cell = g.voronoi_cell(0, &clip);
        assert!((cell.area() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn voronoi_cells_tile_the_clip_box() {
        // Total cell area must equal the clip-box area (cells partition it).
        let pts = pseudorandom(25, 5);
        let g = DelaunayGraph::new(&pts).unwrap();
        let clip = Rect::from_corners(p(-10.0, -10.0), p(110.0, 110.0));
        let total: f64 = (0..g.len() as u32)
            .map(|i| g.voronoi_cell(i, &clip).area())
            .sum();
        assert!(
            (total - clip.area()).abs() < 1e-6 * clip.area(),
            "cells must tile the box: {total} vs {}",
            clip.area()
        );
    }
}
