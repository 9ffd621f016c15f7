//! The Voronoi index's build output, pinned bit for bit.
//!
//! `VoronoiIndex::with_page_size` reads its cell boxes off the triangles
//! in one pass (`CellTracer::boxes`): a live finite triangle's
//! circumcenter widens the boxes of its three vertices, and a site the
//! pass cannot box exactly goes to the polygon path (the traced ring,
//! else the half-plane cell). These tests hold the build to what it
//! produced before that pass existed:
//!
//! * the triangle slot table, the neighbour rows and the cell boxes of a
//!   20k-point build hash to checksums recorded from the polygon-path
//!   build;
//! * on cocircular rings, lattice columns, collinear points and a nearly
//!   straight hull every box contains the polygon path's, and interior
//!   sites really do take the fallback;
//! * release-only: at 200k points the boxes equal the polygon path's on
//!   every site (`cargo test --release --test cell_boxes -- --ignored`,
//!   as `scripts/ci.sh` runs it).

mod degenerate;

use spatial_skyline::core::VoronoiIndex;
use spatial_skyline::delaunay::voronoi::{incident_triangles, CellTracer};
use spatial_skyline::delaunay::DelaunayGraph;
use spatial_skyline::geom::{Point, Rect};
use spatial_skyline::workload::usgs::{synthetic_usgs_points, UsgsConfig};

use degenerate::{integer_rings, lattice, p};

/// 64-bit FNV-1a over a stream of words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Checksums of the triangle slots (vertices and neighbours), the
/// neighbour rows and the cell boxes' bit patterns, all in site order.
fn checksums(index: &VoronoiIndex) -> [u64; 3] {
    let graph = index.graph();
    let mut slots = Fnv::new();
    for (v, nbr) in graph.triangulation().slots() {
        v.iter().chain(&nbr).for_each(|&w| slots.word(w.into()));
    }
    let (mut rows, mut boxes) = (Fnv::new(), Fnv::new());
    for s in 0..index.site_bound() as u32 {
        let row = graph.neighbors(s);
        rows.word(row.len() as u64);
        row.iter().for_each(|&u| rows.word(u.into()));
        let r = index.cell_box(index.id_of(s));
        for x in [r.min.x, r.min.y, r.max.x, r.max.y] {
            boxes.word(x.to_bits());
        }
    }
    [slots.0, rows.0, boxes.0]
}

#[test]
fn a_20k_build_is_pinned_bit_for_bit() {
    let points = synthetic_usgs_points(&UsgsConfig {
        n: 20_000,
        seed: 42,
        ..UsgsConfig::default()
    });
    let index = VoronoiIndex::new(&points).unwrap();
    let want = [
        0xab32_b7d7_59c4_4f0b,
        0x22fb_61d1_5ed0_f2aa,
        0x8eaa_bba3_d868_ab75,
    ];
    assert_eq!(checksums(&index), want, "slots, rows, boxes");
}

/// `inner` lies inside `outer` up to `slack`.
fn box_contains(outer: &Rect, inner: &Rect, slack: f64) -> bool {
    outer.min.x - slack <= inner.min.x
        && outer.min.y - slack <= inner.min.y
        && inner.max.x <= outer.max.x + slack
        && inner.max.y <= outer.max.y + slack
}

/// Site `s`'s box by the polygon path: its cell traced from `t`, else by
/// half-planes.
fn polygon_box(graph: &DelaunayGraph, tracer: &CellTracer<'_>, s: u32, t: u32) -> Rect {
    let clip = graph.default_clip();
    tracer
        .cell(s, t)
        .unwrap_or_else(|| graph.voronoi_cell(s, &clip))
        .mbr()
}

/// Checks every one-pass box of `points` against the polygon path's and
/// returns the sites off the hull's boundary that the pass sent to the
/// polygon path.
fn interior_fallbacks(name: &str, points: &[Point]) -> usize {
    let graph = DelaunayGraph::new(points).unwrap();
    let tri = graph.triangulation();
    let clip = graph.default_clip();
    let tracer = CellTracer::new(tri, &clip).expect("non-degenerate");
    let mut fell_back = Vec::new();
    let boxes = tracer.boxes(|s, t| {
        fell_back.push(s);
        polygon_box(&graph, &tracer, s, t)
    });
    let incident = incident_triangles(tri);
    let slack = 1e-9 * clip.width().max(clip.height());
    for (s, &t) in (0u32..).zip(&incident) {
        let want = polygon_box(&graph, &tracer, s, t);
        assert!(
            box_contains(&boxes[s], &want, slack),
            "{name}: site {s} box {:?} misses {want:?}",
            boxes[s]
        );
    }
    let hull = spatial_skyline::geom::convex_hull(points);
    let inside = |s: &&u32| hull.contains_strict(points[**s as usize]);
    fell_back.iter().filter(inside).count()
}

#[test]
fn degenerate_inputs_keep_their_polygon_boxes() {
    // Exactly cocircular rings: every triangle of one ring shares its
    // circumcenter, the origin, in exact arithmetic.
    let rings = integer_rings(&[5, 25, 65, 325]);
    // Lattice columns: a cocircular square per cell.
    let columns = lattice(3, 60);
    // A lattice with a collinear run along its bottom side and a
    // collinear diagonal through it.
    let mut collinear = lattice(12, 12);
    collinear.extend((0..40).map(|i| p(f64::from(i) * 0.25 + 0.125, 0.0)));
    collinear.extend((1..22).map(|i| p(f64::from(i) * 0.5 + 0.1, f64::from(i) * 0.5 + 0.2)));
    // A nearly straight hull: (50, 1e-9) sits just inside the hull edge
    // from (0, 0) to (100, 0), so its star holds a flat triangle whose
    // circumcenter lies ~1e12 out — past `FAR_CIRCUMCENTER` — and the
    // interior site must take the polygon path.
    let mut bent = vec![p(0.0, 0.0), p(100.0, 0.0), p(50.0, 1e-9)];
    bent.extend(
        lattice(11, 5)
            .iter()
            .map(|q| p(q.x * 10.0, q.y * 10.0 + 10.0)),
    );

    let mut fired = 0;
    for (name, points) in [
        ("rings", &rings),
        ("columns", &columns),
        ("collinear", &collinear),
        ("bent", &bent),
    ] {
        let interior = interior_fallbacks(name, points);
        if name == "bent" {
            assert!(interior > 0, "the far circumcenter sent no interior site");
        }
        fired += interior;
        // The index stores the same boxes; its cells lie inside them.
        let index = VoronoiIndex::new(points).unwrap();
        for id in 0..points.len() as u32 {
            let (stored, cell) = (index.cell_box(id), index.voronoi_cell(id).mbr());
            let clip = index.graph().default_clip();
            let slack = 1e-9 * clip.width().max(clip.height());
            assert!(box_contains(&stored, &cell, slack), "{name}: id {id}");
        }
    }
    assert!(fired > 0);

    // All collinear: no triangulation, every box by half-planes.
    let line: Vec<Point> = (0..30)
        .map(|i| p(f64::from(i), 0.5 * f64::from(i)))
        .collect();
    let index = VoronoiIndex::new(&line).unwrap();
    for id in 0..line.len() as u32 {
        assert_eq!(
            index.cell_box(id),
            index.voronoi_cell(id).mbr(),
            "line id {id}"
        );
    }
}

#[test]
#[ignore = "release-only: 200 000 points, two seeds"]
fn one_pass_boxes_equal_the_polygon_path_at_200k() {
    for seed in [42, 7] {
        let points = synthetic_usgs_points(&UsgsConfig {
            n: 200_000,
            seed,
            ..UsgsConfig::default()
        });
        let index = VoronoiIndex::new(&points).unwrap();
        let graph = index.graph();
        let clip = graph.default_clip();
        let tracer = CellTracer::new(graph.triangulation(), &clip).expect("non-degenerate");
        let incident = incident_triangles(graph.triangulation());
        for s in 0..index.site_bound() as u32 {
            let want = polygon_box(graph, &tracer, s, incident[s as usize]);
            let got = index.cell_box(index.id_of(s));
            let bits = |r: Rect| [r.min.x, r.min.y, r.max.x, r.max.y].map(f64::to_bits);
            assert_eq!(bits(got), bits(want), "seed {seed}: site {s}");
        }
    }
}
