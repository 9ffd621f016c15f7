//! The triangulation's stable-slot contract under a long seeded edit
//! stream: 1 000 mixed removals and insertions over lattice, cocircular,
//! collinear and random points, hull vertices included. After every edit:
//!
//! * every live vertex keeps its slot (and its coordinates);
//! * the triangle arena holds at most `2·v − 2` slots, `v` the most live
//!   vertices there have been — the live triangles of that peak, ghosts
//!   included: freed slots are reused, never leaked;
//! * each reported vertex's star, read off its reported triangle, is its
//!   neighbour set in this triangulation, and the triangulation is a
//!   Delaunay one of the live points — so the star equals the vertex's
//!   neighbour set in a fresh `Triangulation` of them, up to the
//!   diagonals of cocircular quadrilaterals, the only freedom a Delaunay
//!   triangulation has;
//! * no unreported vertex's neighbour set changed.

use std::collections::{BTreeMap, BTreeSet};

use ssq_delaunay::{DeltaError, Touched, Triangulation};
use ssq_geom::predicates::{incircle_sign, orient2d_sign};
use ssq_geom::{convex_hull, Point};
use ssq_rng::Xoshiro256;

/// Each vertex's neighbour set.
type Neighbors = BTreeMap<u32, BTreeSet<u32>>;

/// Every vertex's neighbours by a scan of all triangles, plus the edges
/// a Delaunay triangulation of these points must contain: hull edges, and
/// interior edges whose two triangles are not cocircular.
fn scan(t: &Triangulation) -> (Neighbors, BTreeSet<(u32, u32)>) {
    let pts = t.points();
    let mut neighbors = Neighbors::new();
    let mut opposite: BTreeMap<(u32, u32), Vec<u32>> = BTreeMap::new();
    for [a, b, c] in t.triangles() {
        for (u, v, w) in [(a, b, c), (b, c, a), (c, a, b)] {
            neighbors.entry(u).or_default().insert(v);
            neighbors.entry(v).or_default().insert(u);
            opposite.entry((u.min(v), u.max(v))).or_default().push(w);
        }
    }
    let forced = opposite
        .into_iter()
        .filter(|&((u, v), ref far)| match far[..] {
            [c, d] => {
                let (pu, pv, pc) = (pts[u as usize], pts[v as usize], pts[c as usize]);
                // `(u, v, c)` in CCW order, then `d` against its circle.
                let ccw = if orient2d_sign(pu, pv, pc) > 0 {
                    (pu, pv, pc)
                } else {
                    (pv, pu, pc)
                };
                incircle_sign(ccw.0, ccw.1, ccw.2, pts[d as usize]) != 0
            }
            _ => true,
        })
        .map(|(e, _)| e)
        .collect();
    (neighbors, forced)
}

/// Asserts the empty-circumcircle property over the live points.
fn assert_delaunay(t: &Triangulation, live: &BTreeSet<u32>) {
    t.check_invariants();
    let pts = t.points();
    for [a, b, c] in t.triangles() {
        for &d in live {
            if d != a && d != b && d != c {
                let (pa, pb, pc) = (pts[a as usize], pts[b as usize], pts[c as usize]);
                assert!(
                    incircle_sign(pa, pb, pc, pts[d as usize]) <= 0,
                    "{d} inside {a} {b} {c}"
                );
            }
        }
    }
}

/// A point for the next insertion: lattice, exactly cocircular
/// (Pythagorean offsets about (5, 5)), collinear on `y = x / 2`, uniform,
/// or past the current hull.
fn candidate(rng: &mut Xoshiro256) -> Point {
    match rng.range_usize(5) {
        0 => Point::new(rng.range_usize(11) as f64, rng.range_usize(11) as f64),
        1 => {
            let (dx, dy) = [
                (3.0, 4.0),
                (4.0, 3.0),
                (5.0, 0.0),
                (0.0, 5.0),
                (6.0, 8.0),
                (8.0, 6.0),
            ][rng.range_usize(6)];
            let (sx, sy) = [(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)][rng.range_usize(4)];
            Point::new(5.0 + sx * dx, 5.0 + sy * dy)
        }
        2 => {
            let k = rng.range_usize(41) as f64 - 10.0;
            Point::new(k + 0.5, (k + 0.5) / 2.0)
        }
        3 => Point::new(rng.range_f64(-3.0, 13.0), rng.range_f64(-3.0, 13.0)),
        _ => Point::new(rng.range_f64(-20.0, 30.0), 15.0 + rng.range_f64(0.0, 10.0)),
    }
}

#[test]
fn a_thousand_edits_keep_slots_stars_and_the_arena() {
    let mut rng = Xoshiro256::seed_from_u64(0x5107);
    let mut start: Vec<Point> = Vec::new();
    while start.len() < 90 {
        let p = candidate(&mut rng);
        if !start.contains(&p) {
            start.push(p);
        }
    }
    let mut t = Triangulation::new(&start).unwrap();
    let mut live: BTreeSet<u32> = (0..start.len() as u32).collect();
    let mut peak = live.len();
    let (mut removals, mut hull_removals, mut inserts, mut duplicates) = (0, 0, 0, 0);
    let mut touched: Vec<Touched> = Vec::new();
    for op in 0..1000 {
        let before: Vec<Point> = t.points().to_vec();
        let (old_neighbors, _) = scan(&t);
        touched.clear();
        let remove = live.len() > 130 || (live.len() > 50 && rng.range_usize(2) == 0);
        if remove {
            // A hull vertex one time in four.
            let victim = if rng.range_usize(4) == 0 {
                let pts: Vec<Point> = live.iter().map(|&v| before[v as usize]).collect();
                let hull = convex_hull(&pts);
                let corner = hull.vertices()[rng.range_usize(hull.len())];
                hull_removals += 1;
                *live
                    .iter()
                    .find(|&&v| before[v as usize] == corner)
                    .unwrap()
            } else {
                *live.iter().nth(rng.range_usize(live.len())).unwrap()
            };
            t.remove_point(victim, &mut touched).unwrap();
            live.remove(&victim);
            removals += 1;
            assert_eq!(
                touched[0],
                Touched {
                    vertex: victim,
                    star: None
                },
                "op {op}"
            );
        } else {
            let p = candidate(&mut rng);
            match t.insert_point(p, &mut touched) {
                Ok(v) => {
                    assert_eq!(v as usize, before.len(), "op {op}: inserts append");
                    live.insert(v);
                    inserts += 1;
                }
                Err(DeltaError::Duplicate) => {
                    assert!(live.iter().any(|&v| before[v as usize] == p), "op {op}");
                    assert!(touched.is_empty());
                    duplicates += 1;
                    continue;
                }
                Err(e) => panic!("op {op}: {e}"),
            }
        }
        peak = peak.max(live.len());

        // Slots: nothing moved, removed vertices keep their coordinates.
        assert_eq!(&t.points()[..before.len()], before.as_slice(), "op {op}");
        // The arena: the peak's live triangles, ghosts included.
        assert!(
            t.slot_count() <= 2 * peak - 2,
            "op {op}: {} slots",
            t.slot_count()
        );

        assert_delaunay(&t, &live);
        let (neighbors, forced) = scan(&t);
        let reported: BTreeSet<u32> = touched.iter().map(|r| r.vertex).collect();
        assert_eq!(
            reported.len(),
            touched.len(),
            "op {op}: a vertex reported twice"
        );
        for r in &touched {
            let mut star = Vec::new();
            if let Some(tri) = r.star {
                t.star(r.vertex, tri, &mut star);
            }
            let star: BTreeSet<u32> = star.into_iter().collect();
            let want = neighbors.get(&r.vertex).cloned().unwrap_or_default();
            assert_eq!(star, want, "op {op}: star of {}", r.vertex);
        }
        for (v, ns) in &old_neighbors {
            if !reported.contains(v) {
                assert_eq!(
                    neighbors.get(v),
                    Some(ns),
                    "op {op}: unreported {v} changed"
                );
            }
        }

        // A fresh triangulation of the live points has the same forced
        // edges: the reported stars agree with it but for cocircular
        // diagonals.
        let ids: Vec<u32> = live.iter().copied().collect();
        let pts: Vec<Point> = ids.iter().map(|&v| t.points()[v as usize]).collect();
        let fresh = Triangulation::new(&pts).unwrap();
        let (_, fresh_forced) = scan(&fresh);
        let fresh_forced: BTreeSet<(u32, u32)> = fresh_forced
            .into_iter()
            .map(|(a, b)| {
                let (a, b) = (ids[a as usize], ids[b as usize]);
                (a.min(b), a.max(b))
            })
            .collect();
        assert_eq!(forced, fresh_forced, "op {op}");
    }
    assert!(
        removals > 300 && hull_removals > 50 && inserts > 300,
        "{removals} {hull_removals} {inserts}"
    );
    assert!(duplicates > 0, "the stream never re-offered a live point");
}
