//! Property test: the scratch-arena kernel paths are byte-identical to
//! the scalar paths.
//!
//! The kernels compute dominance on squared Euclidean distances
//! (monotone, so the dominance relation is unchanged — see
//! `ssq_geom::kernel`), reuse one `DistanceScratch` arena across every
//! query, and defer all `sqrt` calls. None of that may change a single
//! skyline id. This test sweeps uniform and clustered datasets crossed
//! with 1, 3, and 8 query anchors and asserts, for every cell:
//!
//! - `naive_sorted_kernel == naive_full` (the oracle; `naive_sorted` is
//!   `naive_sorted_kernel` on a fresh arena),
//! - `vs2_kernel == vs2_with(Safe)` (one walk, two row handlings),
//! - `b2s2_kernel == naive_full` (`b2s2` is `b2s2_kernel` on a fresh arena),
//!
//! with the shared arena carried warm from one query to the next, so any
//! cross-query state leak in the arena would also surface here. Every
//! kernel cell runs twice — once pinned to the scalar tile kernels via
//! [`simd::set_force_scalar`] and once under the detected SIMD dispatch
//! — and the two runs must return **bit-identical** skyline ids.
//! Tile-remainder sizes (`n ≡ 0..7 mod` the lane width) and the
//! dispatch-level dominance masks (vs the per-pair scalar
//! [`kernel::dominates`], signed zeros and exact ties included) get
//! their own sweeps below, as does `resolve` on hand-made rows
//! (duplicates, equal keys, certain-but-dominated rows) against an
//! `O(n²)` filter.

use std::sync::Mutex;

use ssq_core::{
    b2s2_kernel, naive_full, naive_sorted, naive_sorted_kernel, vs2_kernel, vs2_with,
    DistanceScratch, QueryContext, QueryStats, RTreeIndex, VoronoiIndex, VsExpansion,
};
use ssq_geom::kernel;
use ssq_geom::simd::{self, Lane4, LANES};
use ssq_geom::Point;

/// [`simd::set_force_scalar`] is process-global, so tests that toggle it
/// must not interleave; they serialize on this lock.
static DISPATCH_LOCK: Mutex<()> = Mutex::new(());

fn dispatch_guard() -> std::sync::MutexGuard<'static, ()> {
    DISPATCH_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

struct XorShift(u64);

impl XorShift {
    fn next_f64(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn uniform(n: usize, seed: u64) -> Vec<Point> {
    let mut rng = XorShift(seed | 1);
    (0..n)
        .map(|_| Point::new(rng.next_f64() * 100.0, rng.next_f64() * 100.0))
        .collect()
}

fn clustered(n: usize, seed: u64) -> Vec<Point> {
    let mut rng = XorShift(seed | 1);
    let centers: Vec<Point> = (0..4)
        .map(|_| Point::new(rng.next_f64() * 100.0, rng.next_f64() * 100.0))
        .collect();
    (0..n)
        .map(|i| {
            let c = centers[i % centers.len()];
            Point::new(
                c.x + (rng.next_f64() - 0.5) * 8.0,
                c.y + (rng.next_f64() - 0.5) * 8.0,
            )
        })
        .collect()
}

fn anchors(k: usize, rng: &mut XorShift) -> Vec<Point> {
    (0..k)
        .map(|_| Point::new(10.0 + rng.next_f64() * 80.0, 10.0 + rng.next_f64() * 80.0))
        .collect()
}

#[test]
fn kernel_paths_match_scalar_paths_exactly() {
    let _guard = dispatch_guard();
    let datasets = [
        ("uniform", uniform(400, 0xA11CE)),
        ("clustered", clustered(400, 0xB0B)),
    ];
    // One shared arena across every dataset, anchor count, and trial:
    // equivalence must hold with the arena warm, not just freshly built.
    let mut scratch = DistanceScratch::new();
    for (shape, points) in &datasets {
        let rtree = RTreeIndex::new(points);
        let voronoi = VoronoiIndex::new(points).expect("distinct points");
        let mut rng = XorShift(0xC0FFEE ^ points.len() as u64);
        // (kernel checks, scalar checks, sites the kernel popped), per mode.
        let mut vs2_checks = [(0u64, 0u64, 0u64); 2];
        for k in [1usize, 3, 8] {
            for trial in 0..4 {
                let q = anchors(k, &mut rng);
                let ctx = QueryContext::new(&q);
                let tag = format!("{shape}/k={k}/trial={trial}");

                let oracle = naive_full(points, &ctx).skyline;

                // Every kernel runs under both tile dispatches; the
                // skyline ids must be bit-identical across them.
                let mut per_mode: Vec<[Vec<u32>; 3]> = Vec::with_capacity(2);
                for forced in [true, false] {
                    simd::set_force_scalar(forced);
                    let mode = if forced { "forced-scalar" } else { "detected" };

                    let kern_naive = naive_sorted_kernel(points, &ctx, &mut scratch);
                    assert_eq!(
                        kern_naive.skyline, oracle,
                        "kernel naive ({mode}) vs oracle [{tag}]"
                    );

                    let scalar_vs2 = vs2_with(&voronoi, &ctx, VsExpansion::Safe);
                    let kern_vs2 = vs2_kernel(&voronoi, &ctx, &mut scratch);
                    assert_eq!(
                        kern_vs2.skyline, scalar_vs2.skyline,
                        "vs2 kernel ({mode}) vs scalar [{tag}]"
                    );
                    assert_eq!(
                        kern_vs2.skyline, oracle,
                        "vs2 kernel ({mode}) vs oracle [{tag}]"
                    );
                    let tally = &mut vs2_checks[usize::from(forced)];
                    tally.0 += kern_vs2.stats.dominance_checks;
                    tally.1 += scalar_vs2.stats.dominance_checks;
                    tally.2 += kern_vs2.stats.points_examined;

                    let kern_b2s2 = b2s2_kernel(&rtree, &ctx, &mut scratch);
                    assert_eq!(
                        kern_b2s2.skyline, oracle,
                        "b2s2 kernel ({mode}) vs oracle [{tag}]"
                    );
                    per_mode.push([kern_naive.skyline, kern_vs2.skyline, kern_b2s2.skyline]);
                }
                simd::set_force_scalar(false);
                assert_eq!(
                    per_mode[0], per_mode[1],
                    "forced-scalar and detected dispatches disagree [{tag}]"
                );
            }
        }
        // The kernel resolve is the scalar rule plus one pre-filter check
        // per row, so under one key order and with every popped site kept
        // as a row its count would be at most scalar + popped sites. The
        // two walk different orders (squared vs true distance sums),
        // which moves the first-dominator positions a few percent either
        // way — hence the 5 % margin. (A resolve that tests rows against
        // more than the accepted set fails this by a factor, not by
        // percents.) Once its arena holds 128 rows the kernel also drops
        // every popped site outside CH(Q) a Delaunay neighbour dominates,
        // at one check per neighbour, and what those sites no longer cost
        // `resolve` is worth far more: on the clustered shape, whose
        // larger queries pop mostly dominated sites, it must at least
        // halve the scalar reference's count.
        for (kernel, scalar, popped) in vs2_checks {
            assert!(
                kernel * 20 <= (scalar + popped) * 21,
                "vs2 kernel dominance checks {kernel} vs scalar {scalar} + {popped} popped [{shape}]"
            );
            if *shape == "clustered" {
                assert!(
                    kernel * 2 <= scalar,
                    "vs2 kernel dominance checks {kernel} vs scalar {scalar}: not halved [{shape}]"
                );
            }
        }
    }
}

#[test]
fn tile_remainders_match_the_oracle_in_both_dispatch_modes() {
    let _guard = dispatch_guard();
    let datasets = [
        ("uniform", uniform(407, 0x5EED)),
        ("clustered", clustered(407, 0x7A11)),
    ];
    let mut scratch = DistanceScratch::new();
    let mut rng = XorShift(0xD15B);
    for (shape, points) in &datasets {
        // n = 400..=407 covers every remainder 0..7 mod the lane width
        // twice over (LANES = 4), so both the full-tile and every padded
        // tail shape hit the fill, screen, and sweep kernels.
        for n in 400..=points.len() {
            let pts = &points[..n];
            for k in [1usize, 3, 8] {
                let q = anchors(k, &mut rng);
                let ctx = QueryContext::new(&q);
                let tag = format!("{shape}/n={n}/k={k}");
                let oracle = naive_full(pts, &ctx).skyline;
                let mut per_mode: Vec<Vec<u32>> = Vec::with_capacity(2);
                for forced in [true, false] {
                    simd::set_force_scalar(forced);
                    let mode = if forced { "forced-scalar" } else { "detected" };
                    let kern = naive_sorted_kernel(pts, &ctx, &mut scratch);
                    assert_eq!(
                        kern.skyline, oracle,
                        "kernel naive ({mode}) vs oracle [{tag}]"
                    );
                    per_mode.push(kern.skyline);
                }
                simd::set_force_scalar(false);
                assert_eq!(
                    per_mode[0], per_mode[1],
                    "dispatch modes disagree on a tile remainder [{tag}]"
                );
            }
        }
    }
}

#[test]
fn resolve_matches_a_quadratic_filter_on_adversarial_rows() {
    let _guard = dispatch_guard();
    // A three-value palette makes duplicate rows, equal keys (2+0 = 1+1)
    // and dominated rows all common; every fifth row is marked certain
    // whether or not something dominates it, and must survive anyway.
    let mut rng = XorShift(0x5C4A7C);
    let mut scratch = DistanceScratch::new();
    for width in [1usize, 2, 3, 5] {
        let slots: Vec<Point> = (0..width).map(|j| Point::new(j as f64, 0.0)).collect();
        for n in [0usize, 1, 4, 5, 6, 7, 8, 31, 64] {
            for trial in 0..20 {
                let rows: Vec<Vec<f64>> = (0..n)
                    .map(|_| (0..width).map(|_| (rng.next_f64() * 3.0).floor()).collect())
                    .collect();
                let certain = |r: usize| r % 5 == 4;
                let want: Vec<u32> = (0..n)
                    .filter(|&r| certain(r) || !rows.iter().any(|o| kernel::dominates(o, &rows[r])))
                    .map(|r| r as u32)
                    .collect();
                let mut per_mode = Vec::with_capacity(2);
                for forced in [true, false] {
                    simd::set_force_scalar(forced);
                    scratch.begin(width);
                    for (r, row) in rows.iter().enumerate() {
                        scratch.push_row_with(r as u32, certain(r), &slots, |q| row[q.x as usize]);
                    }
                    let mut stats = QueryStats::default();
                    let got = scratch.resolve(&mut stats).to_vec();
                    assert_eq!(
                        got, want,
                        "width {width} n {n} trial {trial} forced {forced}: rows {rows:?}"
                    );
                    per_mode.push(stats.dominance_checks);
                }
                simd::set_force_scalar(false);
                assert_eq!(
                    per_mode[0], per_mode[1],
                    "dispatch modes count differently (width {width} n {n} trial {trial})"
                );
            }
        }
    }
}

#[test]
fn dominance_masks_agree_with_the_per_pair_kernel() {
    // Every available dispatch (explicit tables — no global toggle, so
    // no lock) must produce masks that agree bit-for-bit with the
    // scalar per-pair predicates. Values come from a tiny palette that
    // includes both signed zeros, so exact ties and ±0.0 comparisons
    // occur constantly instead of never.
    let palette = [0.0f64, -0.0, 1.0, 2.0, 3.0];
    let mut rng = XorShift(0x3A5C);
    let pick = |rng: &mut XorShift| palette[(rng.next_f64() * 5.0) as usize % 5];
    for width in [1usize, 2, 3, 5, 8] {
        for _trial in 0..100 {
            let rows: Vec<Vec<f64>> = (0..LANES)
                .map(|_| (0..width).map(|_| pick(&mut rng)).collect())
                .collect();
            let rf: Vec<f64> = (0..width).map(|_| pick(&mut rng)).collect();
            let tile: Vec<Lane4> = (0..width)
                .map(|j| Lane4([rows[0][j], rows[1][j], rows[2][j], rows[3][j]]))
                .collect();
            for d in simd::available_dispatches() {
                let name = d.path().name();
                let dominated = d.dominated_by_ref(&rf, &tile);
                let dominators = d.dominators_of(&rf, &tile);
                let below = d.all_lt(&rf, &tile);
                for (l, row) in rows.iter().enumerate() {
                    assert_eq!(
                        (dominated >> l) & 1 == 1,
                        kernel::dominates(&rf, row),
                        "dominated_by_ref[{name}] lane {l}: rf={rf:?} row={row:?}"
                    );
                    assert_eq!(
                        (dominators >> l) & 1 == 1,
                        kernel::dominates(row, &rf),
                        "dominators_of[{name}] lane {l}: rf={rf:?} row={row:?}"
                    );
                    assert_eq!(
                        (below >> l) & 1 == 1,
                        row.iter().zip(&rf).all(|(a, b)| a < b),
                        "all_lt[{name}] lane {l}: rf={rf:?} row={row:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn warm_kernel_allocates_less_than_scalar() {
    let points = uniform(600, 0xFEED);
    let mut rng = XorShift(7);
    let mut scratch = DistanceScratch::new();
    for k in [1usize, 3, 8] {
        let mut scalar_allocs = 0u64;
        let mut kernel_allocs = 0u64;
        for trial in 0..3 {
            let ctx = QueryContext::new(&anchors(k, &mut rng));
            // `naive_sorted` pays for a throw-away arena on every call.
            let s = naive_sorted(&points, &ctx);
            let kr = naive_sorted_kernel(&points, &ctx, &mut scratch);
            // Trial 0 may grow a cold arena; steady state is what the
            // arena is for.
            if trial > 0 {
                scalar_allocs += s.stats.allocations;
                kernel_allocs += kr.stats.allocations;
            }
        }
        assert!(
            kernel_allocs * 2 <= scalar_allocs,
            "k={k}: warm kernel should allocate at least 2x less \
             (scalar {scalar_allocs} vs kernel {kernel_allocs})"
        );
    }
}
