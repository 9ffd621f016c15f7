//! Moderate-scale end-to-end test: all algorithms must agree on a
//! clustered 20k-point dataset across a spread of query shapes.
//!
//! Plus one release-only work pin on the heavy tail of served VS²
//! (200 000 points): run it with
//! `cargo test --release --test scale -- --ignored --nocapture`, as
//! `scripts/ci.sh` does.

use std::time::Instant;

use spatial_skyline::core::heap::MinHeap;
use spatial_skyline::core::{vs2_kernel, DistanceScratch};
use spatial_skyline::geom::circle::search_region_mbr;
use spatial_skyline::geom::convex::ring_intersects_rect;
use spatial_skyline::geom::kernel::dist_sq_sum;
use spatial_skyline::prelude::*;
use spatial_skyline::workload::queries::{random_query_set, QueryConfig};
use spatial_skyline::workload::usgs::{synthetic_usgs_points, universe, UsgsConfig};

#[test]
fn all_algorithms_agree_at_20k() {
    let points = synthetic_usgs_points(&UsgsConfig {
        n: 20_000,
        seed: 0x5CA1E,
        ..UsgsConfig::default()
    });
    let rt = RTreeIndex::new(&points);
    let vi = VoronoiIndex::new(&points).unwrap();

    for (count, frac, seed) in [
        (2usize, 0.001, 1u64),
        (5, 0.0001, 2),
        (8, 0.003, 3),
        (12, 0.01, 4),
    ] {
        let q = random_query_set(&QueryConfig {
            count,
            mbr_area_fraction: frac,
            universe: spatial_skyline::workload::usgs::universe(),
            seed,
        });
        let ctx = QueryContext::new(&q);
        let want = naive_sorted(&points, &ctx).skyline;
        assert!(!want.is_empty());
        assert_eq!(bbs(&rt, &ctx).skyline, want, "bbs |Q|={count} frac={frac}");
        assert_eq!(
            b2s2(&rt, &ctx).skyline,
            want,
            "b2s2 |Q|={count} frac={frac}"
        );
        assert_eq!(vs2(&vi, &ctx).skyline, want, "vs2 |Q|={count} frac={frac}");
    }
}

#[test]
fn continuous_at_10k_stays_exact_with_spot_checks() {
    use spatial_skyline::workload::motion::{MotionConfig, MovingQuerySet};

    let points = synthetic_usgs_points(&UsgsConfig {
        n: 10_000,
        seed: 0xB16,
        ..UsgsConfig::default()
    });
    let vi = VoronoiIndex::new(&points).unwrap();
    let mut team = MovingQuerySet::new(MotionConfig {
        count: 6,
        step: 0.006,
        start_box: 0.05,
        seed: 0x33,
        ..MotionConfig::default()
    });
    let mut cont = ContinuousSkyline::new(&vi, team.positions());
    for step in 0..300 {
        let up = team.next_update();
        cont.update(up.index, up.location);
        // Spot-check exactness every 25 updates (a full check per update
        // at this scale belongs in the release-mode harness).
        if step % 25 == 24 {
            let fresh = vs2(&vi, &QueryContext::new(team.positions()));
            assert_eq!(cont.skyline(), fresh.skyline, "divergence at step {step}");
        }
    }
    let counts = cont.counts();
    assert!(counts.recomputed * 5 < counts.total(), "{counts:?}");
}

/// The served VS² walk with every popped site inside `B` kept as a row
/// and tightening `B` — the kernel without its neighbour certificate —
/// replayed from the public index API: `(sites extracted, rows)`. Same
/// start (`NN(q₁)`), key (squared-distance sum), heap (ties pop in push
/// order) and enqueue rule (inside `B` or Voronoi cell meeting `B`).
fn certificate_free_replay(index: &VoronoiIndex, ctx: &QueryContext) -> (u64, u64) {
    const VISITED: u8 = 1;
    const EXTRACTED: u8 = 2;
    let graph = index.graph();
    let anchors = ctx.anchors();
    let mut state = vec![0u8; index.site_bound()];
    let mut heap = MinHeap::new();
    let start = index.site_of(index.nearest(ctx.query()[0], 0));
    let mut b = search_region_mbr(graph.point(start), anchors);
    state[start as usize] = VISITED;
    heap.push(dist_sq_sum(graph.point(start), anchors), start);
    let (mut extracted, mut rows) = (0, 0);
    while let Some((_, &p)) = heap.peek() {
        if state[p as usize] == EXTRACTED {
            heap.pop();
            let pt = graph.point(p);
            if b.contains(pt) {
                rows += 1;
                b = b.intersection(&search_region_mbr(pt, anchors));
            }
            continue;
        }
        state[p as usize] = EXTRACTED;
        extracted += 1;
        for &nb in graph.neighbors(p) {
            if state[nb as usize] != 0 {
                continue;
            }
            let nbp = graph.point(nb);
            let cell = || index.voronoi_cell(index.id_of(nb));
            if b.contains(nbp) || ring_intersects_rect(cell().vertices(), &b) {
                state[nb as usize] = VISITED;
                heap.push(dist_sq_sum(nbp, anchors), nb);
            }
        }
    }
    (extracted, rows)
}

/// The served VS²'s work on the tail that sets `direct-full`'s p99:
/// 200 000 clustered points, Mix A sets (3–8 points, `MBR(Q)` 0.1 % of
/// the universe) bucketed by `|S(Q)|` into the benchmark's half-octave
/// classes. Per class it prints the rows the certificate-free walk keeps
/// and the rows `vs2_kernel` keeps, both per skyline point, the kernel's
/// dominance checks and its time (each set's best of three runs). It
/// pins that a Delaunay neighbour's certificate keeps the top class
/// `[512, 724)` at no more than 2 rows per skyline point (the replay keeps
/// ≈ 4.2 there), and
/// that dropping those rows and their `B` tightenings leaves the walk
/// itself alone — every set extracts and pops exactly the sites the
/// replay does.
#[test]
#[ignore = "release-only: 200 000 points"]
fn vs2_tail_keeps_few_rows_per_skyline_point() {
    const CLASSES: [(usize, usize); 11] = [
        (1, 23),
        (23, 32),
        (32, 45),
        (45, 64),
        (64, 90),
        (90, 128),
        (128, 181),
        (181, 256),
        (256, 362),
        (362, 512),
        (512, 724),
    ];
    const PER_CLASS: usize = 16;
    const BUDGET: u64 = 4_000;
    let points = synthetic_usgs_points(&UsgsConfig {
        n: 200_000,
        seed: 42,
        ..UsgsConfig::default()
    });
    let index = VoronoiIndex::new(&points).unwrap();
    let mut scratch = DistanceScratch::new();
    let mut sets: Vec<Vec<Vec<Point>>> = vec![Vec::new(); CLASSES.len()];
    let mut j = 0u64;
    while sets.iter().any(|c| c.len() < PER_CLASS) && j < BUDGET {
        let q = random_query_set(&QueryConfig {
            count: 3 + (j % 6) as usize,
            mbr_area_fraction: 0.001,
            universe: universe(),
            seed: 0x7A11 + j,
        });
        let size = vs2_kernel(&index, &QueryContext::new(&q), &mut scratch)
            .skyline
            .len();
        if let Some(c) = CLASSES.iter().position(|&(lo, hi)| lo <= size && size < hi) {
            if sets[c].len() < PER_CLASS {
                sets[c].push(q);
            }
        }
        j += 1;
    }
    let top = sets.len() - 1;
    assert_eq!(
        sets[top].len(),
        PER_CLASS,
        "top class unfilled in {BUDGET} sets"
    );

    println!("class       sets  mean|S|  replay rows/|S|  rows/|S|  checks  vs2 us");
    for (&(lo, hi), class) in CLASSES.iter().zip(&sets) {
        if class.is_empty() {
            continue;
        }
        let (mut size, mut replay_rows, mut rows, mut checks, mut us) = (0, 0, 0, 0, 0.0);
        for q in class {
            let ctx = QueryContext::new(q);
            let (extracted, popped) = certificate_free_replay(&index, &ctx);
            let r = vs2_kernel(&index, &ctx, &mut scratch);
            assert_eq!(
                (r.stats.entries_visited, r.stats.points_examined),
                (extracted, popped),
                "sites extracted / popped differ from the certificate-free walk"
            );
            // The arena holds the rows of the run until the next one.
            rows += scratch.len();
            size += r.skyline.len();
            checks += r.stats.dominance_checks;
            replay_rows += popped as usize;
            us += (0..3)
                .map(|_| {
                    let t = Instant::now();
                    vs2_kernel(&index, &ctx, &mut scratch);
                    t.elapsed().as_secs_f64() * 1e6
                })
                .fold(f64::INFINITY, f64::min);
        }
        let n = class.len();
        let per = |x: usize| x as f64 / size as f64;
        println!(
            "[{lo:>3}, {hi:>3})  {n:>4}  {:>7.1}  {:>15.2}  {:>8.2}  {:>6}  {:>6.0}",
            size as f64 / n as f64,
            per(replay_rows),
            per(rows),
            checks / n as u64,
            us / n as f64
        );
        if lo == CLASSES[top].0 {
            assert!(
                rows <= 2 * size,
                "top class keeps {rows} rows for {size} skyline points"
            );
        }
    }
}
