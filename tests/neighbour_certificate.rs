//! Degenerate inputs for VS²'s neighbour certificate.
//!
//! The served VS² drops a popped site outside `CH(Q)` when one of its
//! Delaunay neighbours dominates it, under the rows' own predicate
//! (squared distances, `≤` on every anchor and `<` on one). The inputs
//! here are the ones that predicate must get right on ties: lattices and
//! exactly cocircular points, where a neighbour often sits at the same
//! distance from every anchor, mirror-symmetric pairs across the line of
//! a two-anchor query, and anchors that coincide with data points. Every
//! case must give `naive_full`'s answer and the independent
//! dominator-region oracle's, under the forced-scalar and the detected
//! SIMD dispatch; the tie cases must also hold skyline members outside
//! the hull whose Delaunay neighbour has an equal distance vector, so a
//! certificate that let an equal vector count as a dominator would drop
//! one of them and fail. The kernel tests sites only once its arena holds
//! 128 rows, so each input is large enough that tied members are still
//! popping after that: hundreds of tied pairs, not a handful.

mod degenerate;
mod oracle;

use std::sync::Mutex;

use spatial_skyline::core::{naive_full, vs2_kernel, DistanceScratch, QueryContext, VoronoiIndex};
use spatial_skyline::geom::{simd, Point};

use degenerate::{integer_rings, lattice, p};

/// [`simd::set_force_scalar`] is process-global, so tests that toggle it
/// must not interleave; they serialize on this lock.
static DISPATCH_LOCK: Mutex<()> = Mutex::new(());

/// `n` points in a thin band above the x-axis and their exact mirror
/// images below it.
fn mirrored(n: usize, seed: u64) -> Vec<Point> {
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut out = Vec::with_capacity(2 * n);
    for _ in 0..n {
        let (x, y) = (-5.0 + 20.0 * next(), 0.01 + 0.5 * next());
        out.push(p(x, y));
        out.push(p(x, -y));
    }
    out
}

/// Skyline members outside `CH(Q)` with a Delaunay neighbour whose
/// squared distances to the anchors are bit-for-bit their own.
fn tied_members(index: &VoronoiIndex, ctx: &QueryContext, skyline: &[u32]) -> usize {
    let vector =
        |pt: Point| -> Vec<f64> { ctx.anchors().iter().map(|&q| pt.distance_sq(q)).collect() };
    let graph = index.graph();
    skyline
        .iter()
        .filter(|&&id| {
            let site = index.site_of(id);
            let own = vector(graph.point(site));
            !ctx.hull().contains(graph.point(site))
                && graph
                    .neighbors(site)
                    .iter()
                    .any(|&nb| vector(graph.point(nb)) == own)
        })
        .count()
}

/// Checks `vs2_kernel` on `points` for `q` against both oracles under
/// both dispatches, and returns how many skyline members are tied with a
/// neighbour.
fn check(name: &str, points: &[Point], q: &[Point]) -> usize {
    let ctx = QueryContext::new(q);
    let want = naive_full(points, &ctx).skyline;
    assert!(!want.is_empty(), "{name}");
    assert_eq!(
        oracle::dominator_region_skyline(points, q),
        want,
        "oracles disagree [{name}]"
    );
    let index = VoronoiIndex::new(points).expect("distinct points");
    let mut scratch = DistanceScratch::new();
    let _guard = DISPATCH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for forced in [true, false] {
        simd::set_force_scalar(forced);
        let got = vs2_kernel(&index, &ctx, &mut scratch);
        assert_eq!(
            got.skyline, want,
            "vs2_kernel [{name}, forced scalar {forced}]"
        );
    }
    simd::set_force_scalar(false);
    tied_members(&index, &ctx, &want)
}

#[test]
fn lattice_neighbours_tied_on_every_anchor_both_stay() {
    // Both anchors lie on the bisector of columns 6 and 7: (6, j) and
    // (7, j) are lattice neighbours at equal distance from each anchor,
    // and all 282 of rows 10..=150 are skyline points.
    let points = lattice(14, 160);
    let tied = check("bisector", &points, &[p(6.5, 10.0), p(6.5, 150.0)]);
    assert_eq!(tied, 282, "columns 6 and 7, rows 10..=150");
    // Three collinear anchors on the same bisector, and the bisector of
    // rows 79 and 80 across the transposed lattice.
    assert!(
        check(
            "bisector, 3 anchors",
            &points,
            &[p(6.5, 5.0), p(6.5, 60.0), p(6.5, 155.0)]
        ) > 0
    );
    let transposed = lattice(160, 14);
    assert!(check("row bisector", &transposed, &[p(10.0, 6.5), p(150.0, 6.5)]) > 0);
    // Anchors on the diagonal: (i, i + 1) and (i + 1, i) tie on both,
    // but whether they are neighbours is up to the triangulation.
    let square = lattice(40, 40);
    check("diagonal", &square, &[p(2.5, 2.5), p(36.5, 36.5)]);
}

#[test]
fn anchors_on_lattice_points() {
    let points = lattice(40, 40);
    check("one anchor on a point", &points, &[p(20.0, 20.0)]);
    check(
        "triangle on points",
        &points,
        &[p(8.0, 8.0), p(30.0, 14.0), p(12.0, 33.0)],
    );
    check(
        "two anchors on points",
        &points,
        &[p(3.0, 20.0), p(36.0, 20.0)],
    );
}

#[test]
fn cocircular_rings_about_an_anchor() {
    // 32045 = 5 · 13 · 17 · 29, so x² + y² = 32045² has 324 integer
    // points, and so has the circle of twice the radius: with the one
    // anchor at the centre every inner-ring point ties with its ring
    // neighbours, and every outer-ring point is dominated.
    let points = integer_rings(&[32_045, 64_090]);
    assert_eq!(points.len(), 648);
    assert_eq!(check("ring centre", &points, &[p(0.0, 0.0)]), 324);
    // The x-axis through both anchors mirrors the rings onto themselves;
    // whether mirror twins are neighbours is up to the triangulation.
    check(
        "ring centre and an axis point",
        &points,
        &[p(0.0, 0.0), p(200_000.0, 0.0)],
    );
    // Anchors on ring points.
    check(
        "anchors on the ring",
        &points,
        &[points[0], points[100], points[200]],
    );
}

#[test]
fn mirror_symmetric_pairs_about_a_two_anchor_query() {
    for seed in [3, 17, 99] {
        let points = mirrored(3000, seed);
        let tag = format!("mirrored, seed {seed}");
        assert!(
            check(&tag, &points, &[p(0.0, 0.0), p(10.0, 0.0)]) > 0,
            "{tag}"
        );
        // An anchor on a data point and one on its mirror twin.
        let (a, b) = (points[0], points[1]);
        check(&format!("{tag}, twin anchors"), &points, &[a, b]);
    }
}
