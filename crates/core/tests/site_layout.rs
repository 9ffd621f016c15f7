//! Permutation invariance of the Voronoi side.
//!
//! [`VoronoiIndex`] stores its sites along the Hilbert curve and names
//! points by input id through two permutations, and every Delaunay walk
//! (`vs2_kernel`, `vs2_with`, `mixed_vs2`, `ContinuousSkyline`) runs on
//! sites and translates where an id leaves it. So the order a dataset
//! arrives in may change the ids of an answer and nothing else: this test
//! builds the same point set presorted along the curve, reversed and in
//! eight seeded shuffles and requires every path to return the same
//! *points* — ids mapped back through the shuffle — equal to the
//! `naive_full` oracle over the base order, under the forced-scalar and
//! the detected SIMD dispatch. Inputs cover what the layout must survive:
//! clustered points (tie-free: there the walk's counts must not move
//! either), a lattice with a cocircular ring (distance ties, non-unique
//! triangulations), collinear points (no triangulation, a path graph) and
//! fewer than three points.

use std::sync::Mutex;

use ssq_core::mixed::{mixed_naive, mixed_vs2, MixedContext};
use ssq_core::{
    naive_full, vs2_kernel, vs2_with, ContinuousSkyline, DistanceScratch, QueryContext, QueryStats,
    VoronoiIndex, VsExpansion,
};
use ssq_delaunay::{hilbert, BuildError};
use ssq_geom::{simd, Point, Rect};

/// [`simd::set_force_scalar`] is process-global, so tests that toggle it
/// must not interleave; they serialize on this lock.
static DISPATCH_LOCK: Mutex<()> = Mutex::new(());

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn next_f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn clustered(n: usize, seed: u64) -> Vec<Point> {
    let mut rng = XorShift(seed | 1);
    let centers: Vec<Point> = (0..5)
        .map(|_| Point::new(20.0 + rng.next_f64() * 60.0, 20.0 + rng.next_f64() * 60.0))
        .collect();
    (0..n)
        .map(|i| {
            let c = centers[i % centers.len()];
            Point::new(
                c.x + (rng.next_f64() - 0.5) * 14.0,
                c.y + (rng.next_f64() - 0.5) * 14.0,
            )
        })
        .collect()
}

/// A 12 × 12 unit lattice around (50, 50) plus the twelve lattice-free
/// points of a radius-25 ring: cocircular quadruples everywhere and exact
/// distance ties against lattice-aligned anchors.
fn lattice_and_ring() -> Vec<Point> {
    let mut pts = Vec::new();
    for i in 0..12 {
        for j in 0..12 {
            pts.push(Point::new(44.0 + i as f64, 44.0 + j as f64));
        }
    }
    for (dx, dy) in [(25.0, 0.0), (20.0, 15.0), (15.0, 20.0), (7.0, 24.0)] {
        for (sx, sy) in [(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)] {
            let p = Point::new(49.5 + sx * dx, 49.5 + sy * dy);
            if !pts.contains(&p) {
                pts.push(p);
            }
        }
    }
    pts
}

fn collinear(n: usize) -> Vec<Point> {
    (0..n)
        .map(|i| Point::new(10.0 + 1.75 * i as f64, 20.0 + 0.875 * i as f64))
        .collect()
}

/// The orderings under test, each as a permutation `perm` with
/// `ordered[k] = base[perm[k]]`: along the curve, against it, and eight
/// seeded shuffles.
fn orderings(base: &[Point]) -> Vec<Vec<u32>> {
    let sorted = hilbert::sort_by_hilbert(base, &Rect::bounding(base.iter().copied()));
    let mut out = vec![sorted.clone(), sorted.into_iter().rev().collect()];
    for seed in 0..8u64 {
        let mut rng = XorShift(0x5EED_0000 + seed * 0x9E37 + 1);
        let mut perm: Vec<u32> = (0..base.len() as u32).collect();
        for k in (1..perm.len()).rev() {
            perm.swap(k, (rng.next() % (k as u64 + 1)) as usize);
        }
        out.push(perm);
    }
    out
}

/// Ids of the ordered copy as sorted ids of the base.
fn to_base(ids: &[u32], perm: &[u32]) -> Vec<u32> {
    let mut out: Vec<u32> = ids.iter().map(|&i| perm[i as usize]).collect();
    out.sort_unstable();
    out
}

/// Query sets of 1–8 anchors in and around the data, the first aligned
/// with the lattice so exact ties occur.
fn query_sets(seed: u64) -> Vec<Vec<Point>> {
    let mut rng = XorShift(seed | 1);
    let mut sets = vec![vec![Point::new(47.0, 49.0), Point::new(53.0, 49.0)]];
    for k in [1usize, 2, 3, 5, 8] {
        sets.push(
            (0..k)
                .map(|_| Point::new(30.0 + rng.next_f64() * 40.0, 30.0 + rng.next_f64() * 40.0))
                .collect(),
        );
    }
    sets
}

/// A 50-update stream over `q0`: `(object, new location)` and the oracle
/// skyline over `base` after each step (the first entry is the opening
/// skyline).
#[allow(clippy::type_complexity)]
fn motion_stream(base: &[Point], q0: &[Point], seed: u64) -> (Vec<(usize, Point)>, Vec<Vec<u32>>) {
    let mut rng = XorShift(seed | 1);
    let mut q = q0.to_vec();
    let mut moves = Vec::new();
    let mut expected = vec![naive_full(base, &QueryContext::new(&q)).skyline];
    for step in 0..50 {
        let obj = (step * 3 + 1) % q.len();
        let to = Point::new(
            q[obj].x + (rng.next_f64() - 0.5) * 3.0,
            q[obj].y + (rng.next_f64() - 0.5) * 3.0,
        );
        q[obj] = to;
        moves.push((obj, to));
        expected.push(naive_full(base, &QueryContext::new(&q)).skyline);
    }
    (moves, expected)
}

/// Runs every Voronoi-side path over every ordering of `base` under both
/// dispatches. With `tie_free`, also requires the kernel's counts to be
/// those of the first ordering.
fn check(name: &str, base: &[Point], tie_free: bool) {
    let _guard = DISPATCH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let sets = query_sets(0xD15C0 ^ base.len() as u64);
    let oracles: Vec<Vec<u32>> = sets
        .iter()
        .map(|q| naive_full(base, &QueryContext::new(q)).skyline)
        .collect();
    let mut rng = XorShift(0xA77 ^ base.len() as u64);
    let attrs: Vec<Vec<f64>> = base
        .iter()
        .map(|_| vec![rng.next_f64(), (rng.next() % 4) as f64])
        .collect();
    let mixed_oracles: Vec<Vec<u32>> = sets
        .iter()
        .map(|q| {
            let ctx = QueryContext::new(q);
            mixed_naive(base, &MixedContext::new(base, &attrs, &ctx)).skyline
        })
        .collect();
    let session_q = &sets[4];
    let (moves, session_oracles) = motion_stream(base, session_q, 0xFEED);
    let probes: Vec<Point> = (0..24)
        .map(|_| Point::new(rng.next_f64() * 100.0, rng.next_f64() * 100.0))
        .collect();

    let mut reference_stats: Vec<Option<QueryStats>> = vec![None; sets.len()];
    let mut scratch = DistanceScratch::new();
    for (o, perm) in orderings(base).iter().enumerate() {
        let points: Vec<Point> = perm.iter().map(|&i| base[i as usize]).collect();
        let ordered_attrs: Vec<Vec<f64>> =
            perm.iter().map(|&i| attrs[i as usize].clone()).collect();
        let index = VoronoiIndex::new(&points).expect("distinct points");
        for (id, &p) in (0u32..).zip(&points) {
            assert_eq!(index.point(id), p);
            assert_eq!(index.id_of(index.site_of(id)), id);
        }
        for forced in [true, false] {
            simd::set_force_scalar(forced);
            let tag = format!("{name}, ordering {o}, forced scalar {forced}");
            for (s, q) in sets.iter().enumerate() {
                let ctx = QueryContext::new(q);
                let kernel = vs2_kernel(&index, &ctx, &mut scratch);
                assert!(kernel.skyline.windows(2).all(|w| w[0] < w[1]));
                assert_eq!(
                    to_base(&kernel.skyline, perm),
                    oracles[s],
                    "vs2_kernel [{tag}, set {s}]"
                );
                let scalar = vs2_with(&index, &ctx, VsExpansion::Safe);
                assert_eq!(
                    to_base(&scalar.skyline, perm),
                    oracles[s],
                    "vs2_with [{tag}, set {s}]"
                );
                let mctx = MixedContext::new(&points, &ordered_attrs, &ctx);
                assert_eq!(
                    to_base(&mixed_vs2(&index, &mctx).skyline, perm),
                    mixed_oracles[s],
                    "mixed_vs2 [{tag}, set {s}]"
                );
                if tie_free {
                    let want = reference_stats[s].get_or_insert(kernel.stats);
                    assert_eq!(
                        (kernel.stats.dominance_checks, kernel.stats.node_accesses),
                        (want.dominance_checks, want.node_accesses),
                        "vs2_kernel dominance checks / node accesses [{tag}, set {s}]"
                    );
                    assert_eq!(
                        (
                            kernel.stats.distance_computations,
                            kernel.stats.points_examined,
                            kernel.stats.entries_visited
                        ),
                        (
                            want.distance_computations,
                            want.points_examined,
                            want.entries_visited
                        ),
                        "vs2_kernel walk counts [{tag}, set {s}]"
                    );
                }
            }

            let mut session = ContinuousSkyline::new(&index, session_q);
            assert_eq!(
                to_base(&session.skyline(), perm),
                session_oracles[0],
                "open [{tag}]"
            );
            for (step, &(obj, to)) in moves.iter().enumerate() {
                session.update(obj, to);
                assert_eq!(
                    to_base(&session.skyline(), perm),
                    session_oracles[step + 1],
                    "session step {step} [{tag}]"
                );
            }

            for &q in &probes {
                let best = base
                    .iter()
                    .map(|p| p.distance_sq(q))
                    .fold(f64::INFINITY, f64::min);
                let nn = index.nearest(q, 0);
                assert_eq!(
                    points[nn as usize].distance_sq(q),
                    best,
                    "nearest to {q:?} [{tag}]"
                );
                if tie_free {
                    let brute = (0..base.len())
                        .min_by(|&a, &b| base[a].distance_sq(q).total_cmp(&base[b].distance_sq(q)));
                    assert_eq!(
                        Some(perm[nn as usize] as usize),
                        brute,
                        "nearest point [{tag}]"
                    );
                }
            }
        }
    }
    simd::set_force_scalar(false);
}

#[test]
fn clustered_points_answer_alike_in_every_order_with_equal_counts() {
    check("clustered", &clustered(320, 0xC1A5), true);
}

#[test]
fn lattice_and_cocircular_points_answer_alike_in_every_order() {
    check("lattice", &lattice_and_ring(), false);
}

#[test]
fn collinear_points_answer_alike_in_every_order() {
    check("collinear", &collinear(40), false);
}

#[test]
fn fewer_than_three_points_answer_alike_in_every_order() {
    check(
        "pair",
        &[Point::new(40.0, 60.0), Point::new(61.0, 38.0)],
        false,
    );
    check("single", &[Point::new(52.0, 47.0)], false);
}

#[test]
fn sites_are_the_hilbert_order_of_the_input_and_errors_name_ids() {
    // Site order is the (key, id) order of the one Hilbert sort — the
    // order the adjacency pages cut — whatever the input order was.
    let points = clustered(230, 0x51DE);
    let index = VoronoiIndex::with_page_size(&points, 20).expect("distinct points");
    assert_eq!(index.page_count(), 12);
    let order = hilbert::sort_by_hilbert(&points, &Rect::bounding(points.iter().copied()));
    for (rank, &id) in (0u32..).zip(&order) {
        assert_eq!((index.site_of(id), index.id_of(rank)), (rank, id));
        assert_eq!(index.graph().point(rank), points[id as usize]);
    }
    // Build errors speak in input ids: the first duplicate pair, the
    // first non-finite point.
    let mut bad = points;
    bad[31] = bad[4];
    bad.push(bad[4]);
    assert_eq!(
        VoronoiIndex::new(&bad).err(),
        Some(BuildError::DuplicatePoint(4, 31))
    );
    bad[9].x = f64::NAN;
    bad[2].y = f64::INFINITY;
    assert_eq!(
        VoronoiIndex::new(&bad).err(),
        Some(BuildError::NonFiniteCoordinate(2))
    );
}

#[test]
fn an_empty_index_answers_nothing() {
    let index = VoronoiIndex::new(&[]).expect("empty input");
    let q = [
        Point::new(1.0, 1.0),
        Point::new(2.0, 3.0),
        Point::new(4.0, 1.0),
    ];
    let ctx = QueryContext::new(&q);
    assert!(vs2_kernel(&index, &ctx, &mut DistanceScratch::new())
        .skyline
        .is_empty());
    assert!(vs2_with(&index, &ctx, VsExpansion::Safe).skyline.is_empty());
    assert!(mixed_vs2(&index, &MixedContext::new(&[], &[], &ctx))
        .skyline
        .is_empty());
    let mut session = ContinuousSkyline::new(&index, &q);
    session.update(1, Point::new(2.5, 3.5));
    assert!(session.skyline().is_empty());
}
