//! Data-parallel kernels over lane-aligned distance tiles — the SIMD
//! layer under [`kernel`](crate::kernel).
//!
//! # Tile layout
//!
//! The scratch arenas in `ssq-core` store candidate distance rows as
//! **AoSoA tiles**: a tile covers [`LANES`] consecutive rows, and within
//! a tile storage is *anchor-major* — one 32-byte-aligned [`Lane4`] per
//! anchor holding that anchor's distance for each of the tile's rows.
//! Row `r`'s distance to anchor `j` therefore lives at
//! `tiles[(r / LANES) * width + j].0[r % LANES]`, and a single aligned
//! vector load fetches four candidates' distances to one anchor — the
//! access pattern every kernel below is built on.
//!
//! A tile whose trailing lanes hold no real row is padded with `+inf`
//! ([`Lane4::PAD`]). Padding is *neutral* in every kernel here:
//!
//! * a pad lane never **dominates** anything (`+inf ≤ x` fails on the
//!   first anchor), so [`Dispatch::dominators_of`] and
//!   [`Dispatch::all_lt`] never report a pad;
//! * a pad lane is trivially *dominated by* every real row, so bits
//!   reported by [`Dispatch::dominated_by_ref`] for pad lanes are
//!   meaningless — callers own a live-lane mask and must AND it in
//!   (the arena's sweep never reads pad lanes back, so the stray bits
//!   are harmless there).
//!
//! # Tile kernels and range kernels
//!
//! [`Dispatch::fill_tile`], [`Dispatch::dominated_by_ref`],
//! [`Dispatch::dominators_of`] and [`Dispatch::all_lt`] each handle
//! **one** tile per call and return a 4-bit lane mask. The searches that
//! stop at the first hit — "which row is the first to dominate this
//! candidate", "which row is the first strictly below these bounds" —
//! have range forms, [`Dispatch::first_dominator`] and
//! [`Dispatch::first_all_lt`], that take a run of whole tiles and keep
//! the tile loop *inside* the ISA-specific body: one indirect call per
//! search instead of one per tile, with the per-tile kernel inlined into
//! the loop. They return a row index (lane `i % LANES` of tile
//! `i / LANES`), never a pad lane.
//!
//! # Dispatch
//!
//! Three implementations of each kernel exist:
//!
//! * **scalar** — per-lane early-exit loops, the literal transcription
//!   of [`kernel::dominates`](crate::kernel::dominates); the oracle the
//!   others are tested against, the path `SSQ_FORCE_SCALAR=1` forces,
//!   and the default off x86-64.
//! * **sse2** — explicit `core::arch::x86_64` f64x2 intrinsics
//!   (baseline on every x86-64, no detection needed).
//! * **avx2** — explicit f64x4 intrinsics behind
//!   `is_x86_feature_detected!("avx2")`.
//!
//! The selected [`Dispatch`] table is resolved once per process and
//! cached in a `OnceLock`; [`dispatch`] additionally honours an
//! in-process override ([`set_force_scalar`]) so benches and tests can
//! compare paths without re-exec'ing. All three paths produce
//! **bit-identical** results: squared distances are computed as
//! `dx·dx + dy·dy` (two roundings, one per product, then one add) in
//! every implementation, sums accumulate in anchor order, and the IEEE
//! comparisons underlying the masks are total on the finite,
//! non-NaN distances these kernels are fed.
//!
//! [`prefetch`] sits outside the table: a cache hint has one form per
//! architecture and no result to keep identical.
//!
//! # Why lane compares preserve dominance
//!
//! Dominance is componentwise: row `a` dominates row `b` iff
//! `a[j] ≤ b[j]` for every anchor `j` and `a[j] < b[j]` for at least
//! one. The mask kernels evaluate exactly that — an AND-accumulated
//! `≤` mask and an OR-accumulated `<` mask per lane — so a survivor
//! bitmask over four rows is the same four answers
//! [`kernel::dominates`](crate::kernel::dominates) gives one at a
//! time. Squared distances keep the relation unchanged (`x ↦ x²` is
//! strictly increasing on non-negative reals — see
//! [`kernel`](crate::kernel)).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use crate::point::Point;

/// Rows per tile: the f64 lane count of a 256-bit vector.
pub const LANES: usize = 4;

/// One anchor's distances for the four rows of a tile, aligned for
/// `_mm256_load_pd`.
#[repr(C, align(32))]
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Lane4(pub [f64; 4]);

impl Lane4 {
    /// The padding value for tile lanes holding no real row: `+inf`
    /// never dominates (see the module docs).
    pub const PAD: Lane4 = Lane4([f64::INFINITY; 4]);

    /// A tile lane with all four entries equal to `v`.
    pub const fn splat(v: f64) -> Lane4 {
        Lane4([v; 4])
    }
}

/// The bitmask of lanes that hold real rows when `live` rows remain
/// (`live >= LANES` means the whole tile is real).
#[inline]
pub const fn live_lane_mask(live: usize) -> u8 {
    if live >= LANES {
        0xF
    } else {
        (1u8 << live) - 1
    }
}

/// Which kernel implementation a process dispatched to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelPath {
    /// Per-lane early-exit loops (forced by `SSQ_FORCE_SCALAR=1`).
    Scalar,
    /// Explicit f64x2 intrinsics (x86-64 baseline).
    Sse2,
    /// Explicit f64x4 intrinsics (runtime-detected).
    Avx2,
}

impl KernelPath {
    /// The lowercase name used in metrics, bench JSON, and logs.
    pub fn name(self) -> &'static str {
        match self {
            KernelPath::Scalar => "scalar",
            KernelPath::Sse2 => "sse2",
            KernelPath::Avx2 => "avx2",
        }
    }
}

type FillTileFn = fn(&[Point; LANES], &[Point], &mut [Lane4], &mut [f64; LANES]);
type MaskFn = fn(&[f64], &[Lane4]) -> u8;
type FirstFn = fn(&[f64], &[Lane4]) -> Option<usize>;

/// One implementation of every tile kernel, selected once per process.
///
/// The per-tile entry points take `tile` as one tile's anchor-major
/// lanes (`tile.len()` = the anchor count = the length of the row
/// argument); the range entry points take `tiles`, any number of such
/// tiles back to back.
pub struct Dispatch {
    path: KernelPath,
    fill_tile: FillTileFn,
    dominated_by_ref: MaskFn,
    dominators_of: MaskFn,
    all_lt: MaskFn,
    first_dominator: FirstFn,
    first_all_lt: FirstFn,
}

impl Dispatch {
    /// Which implementation this table holds.
    pub fn path(&self) -> KernelPath {
        self.path
    }

    /// Fills one tile: writes the **squared** Euclidean distances from
    /// the four points of `pts` to each anchor into `tile` (one
    /// [`Lane4`] per anchor) and each point's distance sum into `keys`.
    #[inline]
    pub fn fill_tile(
        &self,
        pts: &[Point; LANES],
        anchors: &[Point],
        tile: &mut [Lane4],
        keys: &mut [f64; LANES],
    ) {
        debug_assert_eq!(anchors.len(), tile.len(), "tile width mismatch");
        (self.fill_tile)(pts, anchors, tile, keys)
    }

    /// Bitmask of tile lanes **dominated by** the reference row `rf`
    /// (bit `l` set ⇔ `rf` dominates row lane `l`). Pad lanes may
    /// report garbage — AND with [`live_lane_mask`] when the tile has
    /// pads the caller cares about.
    #[inline]
    pub fn dominated_by_ref(&self, rf: &[f64], tile: &[Lane4]) -> u8 {
        debug_assert_eq!(rf.len(), tile.len(), "tile width mismatch");
        (self.dominated_by_ref)(rf, tile)
    }

    /// Bitmask of tile lanes that **dominate** the candidate row
    /// `cand`. Pad lanes never set a bit (`+inf` dominates nothing).
    #[inline]
    pub fn dominators_of(&self, cand: &[f64], tile: &[Lane4]) -> u8 {
        debug_assert_eq!(cand.len(), tile.len(), "tile width mismatch");
        (self.dominators_of)(cand, tile)
    }

    /// Bitmask of tile lanes strictly below `bounds` on **every**
    /// anchor — the R-tree rectangle screen (`mindist² > d²` for all
    /// anchors ⇔ the row's lane is `<` the bound everywhere). Pad
    /// lanes never set a bit.
    #[inline]
    pub fn all_lt(&self, bounds: &[f64], tile: &[Lane4]) -> u8 {
        debug_assert_eq!(bounds.len(), tile.len(), "tile width mismatch");
        (self.all_lt)(bounds, tile)
    }

    /// Index of the first row of the tile run `tiles` that **dominates**
    /// the candidate row `cand`, or `None` — [`Dispatch::dominators_of`]
    /// over a whole run with the tile loop inside the ISA-specific body,
    /// stopping at the first tile that reports a bit. `tiles` holds
    /// whole tiles back to back (`tiles.len()` a multiple of
    /// `cand.len()`); row `i` is lane `i % LANES` of tile `i / LANES`.
    #[inline]
    // ssq-analyze: deny-alloc
    pub fn first_dominator(&self, cand: &[f64], tiles: &[Lane4]) -> Option<usize> {
        if cand.is_empty() {
            return None;
        }
        debug_assert_eq!(tiles.len() % cand.len(), 0, "ragged tile run");
        (self.first_dominator)(cand, tiles)
    }

    /// Index of the first row of the tile run `tiles` strictly below
    /// `bounds` on **every** anchor, or `None` — the range form of
    /// [`Dispatch::all_lt`], same run layout as
    /// [`Dispatch::first_dominator`].
    #[inline]
    // ssq-analyze: deny-alloc
    pub fn first_all_lt(&self, bounds: &[f64], tiles: &[Lane4]) -> Option<usize> {
        if bounds.is_empty() {
            return None;
        }
        debug_assert_eq!(tiles.len() % bounds.len(), 0, "ragged tile run");
        (self.first_all_lt)(bounds, tiles)
    }
}

/// The range form of a per-tile mask kernel: the row index of the first
/// set bit over a run of `width`-lane tiles. Always inlined, so inside
/// a `#[target_feature]` body the loop and `mask_of` are compiled with
/// that body's features.
#[inline(always)]
fn first_set_row(
    width: usize,
    tiles: &[Lane4],
    mut mask_of: impl FnMut(&[Lane4]) -> u8,
) -> Option<usize> {
    for (t, tile) in tiles.chunks_exact(width).enumerate() {
        let mask = mask_of(tile);
        if mask != 0 {
            return Some(t * LANES + mask.trailing_zeros() as usize);
        }
    }
    None
}

// ---------------------------------------------------------------------
// Scalar path: per-lane early-exit loops, the oracle.
// ---------------------------------------------------------------------

// ssq-analyze: deny-alloc
fn fill_tile_scalar(
    pts: &[Point; LANES],
    anchors: &[Point],
    tile: &mut [Lane4],
    keys: &mut [f64; LANES],
) {
    *keys = [0.0; LANES];
    for (j, &q) in anchors.iter().enumerate() {
        let mut lanes = [0.0; LANES];
        for (l, p) in pts.iter().enumerate() {
            let dx = p.x - q.x;
            let dy = p.y - q.y;
            let d = dx * dx + dy * dy;
            lanes[l] = d;
            keys[l] += d;
        }
        tile[j] = Lane4(lanes);
    }
}

// ssq-analyze: deny-alloc
fn dominated_by_ref_scalar(rf: &[f64], tile: &[Lane4]) -> u8 {
    let mut mask = 0u8;
    'lane: for l in 0..LANES {
        let mut strict = false;
        for (j, &r) in rf.iter().enumerate() {
            let c = tile[j].0[l];
            if r > c {
                continue 'lane;
            }
            if r < c {
                strict = true;
            }
        }
        if strict {
            mask |= 1 << l;
        }
    }
    mask
}

// ssq-analyze: deny-alloc
fn dominators_of_scalar(cand: &[f64], tile: &[Lane4]) -> u8 {
    let mut mask = 0u8;
    'lane: for l in 0..LANES {
        let mut strict = false;
        for (j, &c) in cand.iter().enumerate() {
            let t = tile[j].0[l];
            if t > c {
                continue 'lane;
            }
            if t < c {
                strict = true;
            }
        }
        if strict {
            mask |= 1 << l;
        }
    }
    mask
}

// ssq-analyze: deny-alloc
fn all_lt_scalar(bounds: &[f64], tile: &[Lane4]) -> u8 {
    let mut mask = 0u8;
    'lane: for l in 0..LANES {
        for (j, &b) in bounds.iter().enumerate() {
            if tile[j].0[l] >= b {
                continue 'lane;
            }
        }
        mask |= 1 << l;
    }
    mask
}

// ssq-analyze: deny-alloc
fn first_dominator_scalar(cand: &[f64], tiles: &[Lane4]) -> Option<usize> {
    first_set_row(cand.len(), tiles, |tile| dominators_of_scalar(cand, tile))
}

// ssq-analyze: deny-alloc
fn first_all_lt_scalar(bounds: &[f64], tiles: &[Lane4]) -> Option<usize> {
    first_set_row(bounds.len(), tiles, |tile| all_lt_scalar(bounds, tile))
}

// ---------------------------------------------------------------------
// x86-64 intrinsic paths.
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{first_set_row, Dispatch, KernelPath, Lane4, LANES};
    use crate::point::Point;
    use core::arch::x86_64::*;

    /// f64x4 tile fill. Same operation order as the scalar path
    /// (`dx·dx`, `dy·dy`, add; sums accumulate in anchor order), so
    /// results are bit-identical.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2. Only the AVX2 table's wrappers and
    /// other AVX2 kernels call this, and `detect()` selects that table
    /// only after runtime detection.
    #[target_feature(enable = "avx2")]
    unsafe fn fill_tile_avx2_unchecked(
        pts: &[Point; LANES],
        anchors: &[Point],
        tile: &mut [Lane4],
        keys: &mut [f64; LANES],
    ) {
        // SAFETY: AVX2 proven by the caller. Stores target `tile[j].0`
        // (32-byte aligned by `Lane4`'s repr, aligned store) and `keys`
        // (unaligned store), both in bounds — wrapper checks widths.
        unsafe {
            let xs = _mm256_set_pd(pts[3].x, pts[2].x, pts[1].x, pts[0].x);
            let ys = _mm256_set_pd(pts[3].y, pts[2].y, pts[1].y, pts[0].y);
            let mut sum = _mm256_setzero_pd();
            for (j, q) in anchors.iter().enumerate() {
                let dx = _mm256_sub_pd(xs, _mm256_set1_pd(q.x));
                let dy = _mm256_sub_pd(ys, _mm256_set1_pd(q.y));
                let d = _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy));
                _mm256_store_pd(tile[j].0.as_mut_ptr(), d);
                sum = _mm256_add_pd(sum, d);
            }
            _mm256_storeu_pd(keys.as_mut_ptr(), sum);
        }
    }

    /// f64x4 `dominated_by_ref`: AND-accumulated `≤`, OR-accumulated
    /// `<`, with an early exit once no lane can still be dominated.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2. Only the AVX2 table's wrappers and
    /// other AVX2 kernels call this, and `detect()` selects that table
    /// only after runtime detection.
    #[target_feature(enable = "avx2")]
    unsafe fn dominated_by_ref_avx2_unchecked(rf: &[f64], tile: &[Lane4]) -> u8 {
        // SAFETY: AVX2 proven by the caller. `_mm256_load_pd` reads 32
        // aligned bytes from `tile[j].0` (guaranteed by `Lane4`'s
        // `repr(C, align(32))`); `j` is bounded by the wrapper's check.
        unsafe {
            let mut le = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
            let mut lt = _mm256_setzero_pd();
            for (j, &r) in rf.iter().enumerate() {
                let rv = _mm256_set1_pd(r);
                let tv = _mm256_load_pd(tile[j].0.as_ptr());
                le = _mm256_and_pd(le, _mm256_cmp_pd::<_CMP_LE_OQ>(rv, tv));
                if _mm256_movemask_pd(le) == 0 {
                    return 0;
                }
                lt = _mm256_or_pd(lt, _mm256_cmp_pd::<_CMP_LT_OQ>(rv, tv));
            }
            _mm256_movemask_pd(_mm256_and_pd(le, lt)) as u8
        }
    }

    /// f64x4 `dominators_of`: the transposed comparison of
    /// [`dominated_by_ref_avx2_unchecked`].
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2. Only the AVX2 table's wrappers and
    /// other AVX2 kernels call this, and `detect()` selects that table
    /// only after runtime detection.
    #[target_feature(enable = "avx2")]
    unsafe fn dominators_of_avx2_unchecked(cand: &[f64], tile: &[Lane4]) -> u8 {
        // SAFETY: AVX2 proven by the caller; aligned tile loads as in
        // `dominated_by_ref_avx2_unchecked`, bounds checked by the wrapper.
        unsafe {
            let mut le = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
            let mut lt = _mm256_setzero_pd();
            for (j, &c) in cand.iter().enumerate() {
                let cv = _mm256_set1_pd(c);
                let tv = _mm256_load_pd(tile[j].0.as_ptr());
                le = _mm256_and_pd(le, _mm256_cmp_pd::<_CMP_LE_OQ>(tv, cv));
                if _mm256_movemask_pd(le) == 0 {
                    return 0;
                }
                lt = _mm256_or_pd(lt, _mm256_cmp_pd::<_CMP_LT_OQ>(tv, cv));
            }
            _mm256_movemask_pd(_mm256_and_pd(le, lt)) as u8
        }
    }

    /// f64x4 strict-below-bounds-everywhere screen.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2. Only the AVX2 table's wrappers and
    /// other AVX2 kernels call this, and `detect()` selects that table
    /// only after runtime detection.
    #[target_feature(enable = "avx2")]
    unsafe fn all_lt_avx2_unchecked(bounds: &[f64], tile: &[Lane4]) -> u8 {
        // SAFETY: AVX2 proven by the caller; aligned tile loads as in
        // `dominated_by_ref_avx2_unchecked`, bounds checked by the wrapper.
        unsafe {
            let mut lt = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
            for (j, &b) in bounds.iter().enumerate() {
                let bv = _mm256_set1_pd(b);
                let tv = _mm256_load_pd(tile[j].0.as_ptr());
                lt = _mm256_and_pd(lt, _mm256_cmp_pd::<_CMP_LT_OQ>(tv, bv));
                if _mm256_movemask_pd(lt) == 0 {
                    return 0;
                }
            }
            _mm256_movemask_pd(lt) as u8
        }
    }

    /// f64x4 `first_dominator`: [`dominators_of_avx2_unchecked`] over a run of
    /// tiles, with the loop inside the `avx2` body so one indirect call
    /// covers the run and the per-tile kernel inlines.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2. Only the AVX2 table's wrappers and
    /// other AVX2 kernels call this, and `detect()` selects that table
    /// only after runtime detection.
    #[target_feature(enable = "avx2")]
    unsafe fn first_dominator_avx2_unchecked(cand: &[f64], tiles: &[Lane4]) -> Option<usize> {
        // SAFETY: same feature family, AVX2 proven by the caller;
        // the closure inherits this body's features and gets whole tiles.
        first_set_row(cand.len(), tiles, |tile| unsafe {
            dominators_of_avx2_unchecked(cand, tile)
        })
    }

    /// f64x4 `first_all_lt`: [`all_lt_avx2_unchecked`] over a run of tiles.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2. Only the AVX2 table's wrappers and
    /// other AVX2 kernels call this, and `detect()` selects that table
    /// only after runtime detection.
    #[target_feature(enable = "avx2")]
    unsafe fn first_all_lt_avx2_unchecked(bounds: &[f64], tiles: &[Lane4]) -> Option<usize> {
        // SAFETY: same feature family, AVX2 proven by the caller;
        // the closure inherits this body's features and gets whole tiles.
        first_set_row(bounds.len(), tiles, |tile| unsafe {
            all_lt_avx2_unchecked(bounds, tile)
        })
    }

    /// f64x2 tile fill over the two 128-bit halves of each lane.
    ///
    /// # Safety
    ///
    /// The CPU must support SSE2, which every x86-64 CPU does (it is
    /// part of the base ABI).
    #[target_feature(enable = "sse2")]
    unsafe fn fill_tile_sse2_unchecked(
        pts: &[Point; LANES],
        anchors: &[Point],
        tile: &mut [Lane4],
        keys: &mut [f64; LANES],
    ) {
        // SAFETY: SSE2 is x86-64 baseline. Stores target 16-byte-
        // aligned halves of `tile[j].0` (32-byte aligned overall) and
        // the unaligned `keys` halves; wrapper checks the widths.
        unsafe {
            let x01 = _mm_set_pd(pts[1].x, pts[0].x);
            let x23 = _mm_set_pd(pts[3].x, pts[2].x);
            let y01 = _mm_set_pd(pts[1].y, pts[0].y);
            let y23 = _mm_set_pd(pts[3].y, pts[2].y);
            let mut s01 = _mm_setzero_pd();
            let mut s23 = _mm_setzero_pd();
            for (j, q) in anchors.iter().enumerate() {
                let qx = _mm_set1_pd(q.x);
                let qy = _mm_set1_pd(q.y);
                let dx01 = _mm_sub_pd(x01, qx);
                let dx23 = _mm_sub_pd(x23, qx);
                let dy01 = _mm_sub_pd(y01, qy);
                let dy23 = _mm_sub_pd(y23, qy);
                let d01 = _mm_add_pd(_mm_mul_pd(dx01, dx01), _mm_mul_pd(dy01, dy01));
                let d23 = _mm_add_pd(_mm_mul_pd(dx23, dx23), _mm_mul_pd(dy23, dy23));
                _mm_store_pd(tile[j].0.as_mut_ptr(), d01);
                _mm_store_pd(tile[j].0.as_mut_ptr().add(2), d23);
                s01 = _mm_add_pd(s01, d01);
                s23 = _mm_add_pd(s23, d23);
            }
            _mm_storeu_pd(keys.as_mut_ptr(), s01);
            _mm_storeu_pd(keys.as_mut_ptr().add(2), s23);
        }
    }

    /// f64x2 `dominated_by_ref`.
    ///
    /// # Safety
    ///
    /// The CPU must support SSE2, which every x86-64 CPU does (it is
    /// part of the base ABI).
    #[target_feature(enable = "sse2")]
    unsafe fn dominated_by_ref_sse2_unchecked(rf: &[f64], tile: &[Lane4]) -> u8 {
        // SAFETY: SSE2 is x86-64 baseline. Each `_mm_load_pd` reads a
        // 16-byte-aligned half of `tile[j].0`; bounds checked by the
        // safe wrapper.
        unsafe {
            let ones = _mm_castsi128_pd(_mm_set1_epi64x(-1));
            let (mut le0, mut le1) = (ones, ones);
            let (mut lt0, mut lt1) = (_mm_setzero_pd(), _mm_setzero_pd());
            for (j, &r) in rf.iter().enumerate() {
                let rv = _mm_set1_pd(r);
                let t0 = _mm_load_pd(tile[j].0.as_ptr());
                let t1 = _mm_load_pd(tile[j].0.as_ptr().add(2));
                le0 = _mm_and_pd(le0, _mm_cmple_pd(rv, t0));
                le1 = _mm_and_pd(le1, _mm_cmple_pd(rv, t1));
                if _mm_movemask_pd(le0) == 0 && _mm_movemask_pd(le1) == 0 {
                    return 0;
                }
                lt0 = _mm_or_pd(lt0, _mm_cmplt_pd(rv, t0));
                lt1 = _mm_or_pd(lt1, _mm_cmplt_pd(rv, t1));
            }
            (_mm_movemask_pd(_mm_and_pd(le0, lt0)) as u8)
                | ((_mm_movemask_pd(_mm_and_pd(le1, lt1)) as u8) << 2)
        }
    }

    /// f64x2 `dominators_of`.
    ///
    /// # Safety
    ///
    /// The CPU must support SSE2, which every x86-64 CPU does (it is
    /// part of the base ABI).
    #[target_feature(enable = "sse2")]
    unsafe fn dominators_of_sse2_unchecked(cand: &[f64], tile: &[Lane4]) -> u8 {
        // SAFETY: SSE2 is x86-64 baseline; aligned half-tile loads,
        // bounds checked by the safe wrapper.
        unsafe {
            let ones = _mm_castsi128_pd(_mm_set1_epi64x(-1));
            let (mut le0, mut le1) = (ones, ones);
            let (mut lt0, mut lt1) = (_mm_setzero_pd(), _mm_setzero_pd());
            for (j, &c) in cand.iter().enumerate() {
                let cv = _mm_set1_pd(c);
                let t0 = _mm_load_pd(tile[j].0.as_ptr());
                let t1 = _mm_load_pd(tile[j].0.as_ptr().add(2));
                le0 = _mm_and_pd(le0, _mm_cmple_pd(t0, cv));
                le1 = _mm_and_pd(le1, _mm_cmple_pd(t1, cv));
                if _mm_movemask_pd(le0) == 0 && _mm_movemask_pd(le1) == 0 {
                    return 0;
                }
                lt0 = _mm_or_pd(lt0, _mm_cmplt_pd(t0, cv));
                lt1 = _mm_or_pd(lt1, _mm_cmplt_pd(t1, cv));
            }
            (_mm_movemask_pd(_mm_and_pd(le0, lt0)) as u8)
                | ((_mm_movemask_pd(_mm_and_pd(le1, lt1)) as u8) << 2)
        }
    }

    /// f64x2 strict-below-bounds screen.
    ///
    /// # Safety
    ///
    /// The CPU must support SSE2, which every x86-64 CPU does (it is
    /// part of the base ABI).
    #[target_feature(enable = "sse2")]
    unsafe fn all_lt_sse2_unchecked(bounds: &[f64], tile: &[Lane4]) -> u8 {
        // SAFETY: SSE2 is x86-64 baseline; aligned half-tile loads,
        // bounds checked by the safe wrapper.
        unsafe {
            let ones = _mm_castsi128_pd(_mm_set1_epi64x(-1));
            let (mut lt0, mut lt1) = (ones, ones);
            for (j, &b) in bounds.iter().enumerate() {
                let bv = _mm_set1_pd(b);
                let t0 = _mm_load_pd(tile[j].0.as_ptr());
                let t1 = _mm_load_pd(tile[j].0.as_ptr().add(2));
                lt0 = _mm_and_pd(lt0, _mm_cmplt_pd(t0, bv));
                lt1 = _mm_and_pd(lt1, _mm_cmplt_pd(t1, bv));
                if _mm_movemask_pd(lt0) == 0 && _mm_movemask_pd(lt1) == 0 {
                    return 0;
                }
            }
            (_mm_movemask_pd(lt0) as u8) | ((_mm_movemask_pd(lt1) as u8) << 2)
        }
    }

    /// f64x2 `first_dominator`: [`dominators_of_sse2_unchecked`] over a run of
    /// tiles, with the loop inside the `sse2` body so one indirect call
    /// covers the run and the per-tile kernel inlines.
    ///
    /// # Safety
    ///
    /// The CPU must support SSE2, which every x86-64 CPU does (it is
    /// part of the base ABI).
    #[target_feature(enable = "sse2")]
    unsafe fn first_dominator_sse2_unchecked(cand: &[f64], tiles: &[Lane4]) -> Option<usize> {
        // SAFETY: SSE2 is x86-64 baseline; the closure gets whole tiles.
        first_set_row(cand.len(), tiles, |tile| unsafe {
            dominators_of_sse2_unchecked(cand, tile)
        })
    }

    /// f64x2 `first_all_lt`: [`all_lt_sse2_unchecked`] over a run of tiles.
    ///
    /// # Safety
    ///
    /// The CPU must support SSE2, which every x86-64 CPU does (it is
    /// part of the base ABI).
    #[target_feature(enable = "sse2")]
    unsafe fn first_all_lt_sse2_unchecked(bounds: &[f64], tiles: &[Lane4]) -> Option<usize> {
        // SAFETY: SSE2 is x86-64 baseline; the closure gets whole tiles.
        first_set_row(bounds.len(), tiles, |tile| unsafe {
            all_lt_sse2_unchecked(bounds, tile)
        })
    }

    // Safe wrappers: each is installed in exactly one dispatch table, and
    // the table guards the target-feature precondition (the AVX2 table is
    // only selected after `is_x86_feature_detected!("avx2")`; SSE2 is part
    // of the x86-64 base ABI). The `_unchecked` kernels are private to
    // this module and only the two tables leave it, so code outside can
    // reach a kernel through a table and no other way.

    fn fill_tile_avx2(
        pts: &[Point; LANES],
        anchors: &[Point],
        tile: &mut [Lane4],
        keys: &mut [f64; LANES],
    ) {
        debug_assert_eq!(anchors.len(), tile.len());
        // SAFETY: only reachable through the AVX2 dispatch table, which
        // `detect()` installs exclusively when AVX2 was detected at runtime.
        unsafe { fill_tile_avx2_unchecked(pts, anchors, tile, keys) }
    }

    fn dominated_by_ref_avx2(rf: &[f64], tile: &[Lane4]) -> u8 {
        debug_assert_eq!(rf.len(), tile.len());
        // SAFETY: only reachable through the runtime-detected AVX2 table.
        unsafe { dominated_by_ref_avx2_unchecked(rf, tile) }
    }

    fn dominators_of_avx2(cand: &[f64], tile: &[Lane4]) -> u8 {
        debug_assert_eq!(cand.len(), tile.len());
        // SAFETY: only reachable through the runtime-detected AVX2 table.
        unsafe { dominators_of_avx2_unchecked(cand, tile) }
    }

    fn all_lt_avx2(bounds: &[f64], tile: &[Lane4]) -> u8 {
        debug_assert_eq!(bounds.len(), tile.len());
        // SAFETY: only reachable through the runtime-detected AVX2 table.
        unsafe { all_lt_avx2_unchecked(bounds, tile) }
    }

    fn fill_tile_sse2(
        pts: &[Point; LANES],
        anchors: &[Point],
        tile: &mut [Lane4],
        keys: &mut [f64; LANES],
    ) {
        debug_assert_eq!(anchors.len(), tile.len());
        // SAFETY: SSE2 is unconditionally part of the x86-64 base ABI.
        unsafe { fill_tile_sse2_unchecked(pts, anchors, tile, keys) }
    }

    fn dominated_by_ref_sse2(rf: &[f64], tile: &[Lane4]) -> u8 {
        debug_assert_eq!(rf.len(), tile.len());
        // SAFETY: SSE2 is unconditionally part of the x86-64 base ABI.
        unsafe { dominated_by_ref_sse2_unchecked(rf, tile) }
    }

    fn dominators_of_sse2(cand: &[f64], tile: &[Lane4]) -> u8 {
        debug_assert_eq!(cand.len(), tile.len());
        // SAFETY: SSE2 is unconditionally part of the x86-64 base ABI.
        unsafe { dominators_of_sse2_unchecked(cand, tile) }
    }

    fn all_lt_sse2(bounds: &[f64], tile: &[Lane4]) -> u8 {
        debug_assert_eq!(bounds.len(), tile.len());
        // SAFETY: SSE2 is unconditionally part of the x86-64 base ABI.
        unsafe { all_lt_sse2_unchecked(bounds, tile) }
    }

    // ssq-analyze: deny-alloc
    fn first_dominator_avx2(cand: &[f64], tiles: &[Lane4]) -> Option<usize> {
        // SAFETY: only reachable through the runtime-detected AVX2 table.
        unsafe { first_dominator_avx2_unchecked(cand, tiles) }
    }

    // ssq-analyze: deny-alloc
    fn first_all_lt_avx2(bounds: &[f64], tiles: &[Lane4]) -> Option<usize> {
        // SAFETY: only reachable through the runtime-detected AVX2 table.
        unsafe { first_all_lt_avx2_unchecked(bounds, tiles) }
    }

    // ssq-analyze: deny-alloc
    fn first_dominator_sse2(cand: &[f64], tiles: &[Lane4]) -> Option<usize> {
        // SAFETY: SSE2 is unconditionally part of the x86-64 base ABI.
        unsafe { first_dominator_sse2_unchecked(cand, tiles) }
    }

    // ssq-analyze: deny-alloc
    fn first_all_lt_sse2(bounds: &[f64], tiles: &[Lane4]) -> Option<usize> {
        // SAFETY: SSE2 is unconditionally part of the x86-64 base ABI.
        unsafe { first_all_lt_sse2_unchecked(bounds, tiles) }
    }

    pub(super) static SSE2: Dispatch = Dispatch {
        path: KernelPath::Sse2,
        fill_tile: fill_tile_sse2,
        dominated_by_ref: dominated_by_ref_sse2,
        dominators_of: dominators_of_sse2,
        all_lt: all_lt_sse2,
        first_dominator: first_dominator_sse2,
        first_all_lt: first_all_lt_sse2,
    };

    pub(super) static AVX2: Dispatch = Dispatch {
        path: KernelPath::Avx2,
        fill_tile: fill_tile_avx2,
        dominated_by_ref: dominated_by_ref_avx2,
        dominators_of: dominators_of_avx2,
        all_lt: all_lt_avx2,
        first_dominator: first_dominator_avx2,
        first_all_lt: first_all_lt_avx2,
    };
}

// ---------------------------------------------------------------------
// Dispatch selection (the SSE2 and AVX2 tables live in `x86`).
// ---------------------------------------------------------------------

static SCALAR: Dispatch = Dispatch {
    path: KernelPath::Scalar,
    fill_tile: fill_tile_scalar,
    dominated_by_ref: dominated_by_ref_scalar,
    dominators_of: dominators_of_scalar,
    all_lt: all_lt_scalar,
    first_dominator: first_dominator_scalar,
    first_all_lt: first_all_lt_scalar,
};

fn detect() -> &'static Dispatch {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            &x86::AVX2
        } else {
            &x86::SSE2
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        &SCALAR
    }
}

static DETECTED: OnceLock<&'static Dispatch> = OnceLock::new();
static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// The dispatch table runtime detection selects for this process —
/// scalar when the `SSQ_FORCE_SCALAR=1` environment override is set,
/// otherwise the widest available ISA path. Detection runs once and is
/// cached.
pub fn detected_dispatch() -> &'static Dispatch {
    DETECTED.get_or_init(|| {
        if std::env::var_os("SSQ_FORCE_SCALAR").is_some_and(|v| v == "1") {
            &SCALAR
        } else {
            detect()
        }
    })
}

/// The dispatch table the kernels actually use: [`detected_dispatch`]
/// unless [`set_force_scalar`]`(true)` is in effect.
#[inline]
pub fn dispatch() -> &'static Dispatch {
    if FORCE_SCALAR.load(Ordering::Relaxed) {
        &SCALAR
    } else {
        detected_dispatch()
    }
}

/// In-process override: route [`dispatch`] to the scalar table (`true`)
/// or back to runtime detection (`false`). Lets benches and tests
/// compare the scalar-oracle and SIMD paths in one process; the
/// `SSQ_FORCE_SCALAR=1` environment variable does the same for a whole
/// run.
pub fn set_force_scalar(force: bool) {
    FORCE_SCALAR.store(force, Ordering::Relaxed);
}

/// Every dispatch table this build can run: scalar always, plus the
/// intrinsic paths the host supports. For equivalence tests.
pub fn available_dispatches() -> Vec<&'static Dispatch> {
    let mut all = vec![&SCALAR];
    #[cfg(target_arch = "x86_64")]
    {
        all.push(&x86::SSE2);
        if std::arch::is_x86_feature_detected!("avx2") {
            all.push(&x86::AVX2);
        }
    }
    all
}

/// The name of the kernel path this process dispatches to (for
/// metrics, bench JSON, and serve logs).
pub fn path_name() -> &'static str {
    dispatch().path().name()
}

/// Asks the CPU to start loading the cache line that holds `*r`, without
/// waiting for it: a pure hint with no effect on any result, a no-op off
/// x86-64. For index walks that know which scattered records they are
/// about to read (the VS² traversal's marks, points and adjacency lists)
/// and would otherwise take those cache misses one after the other.
// ssq-analyze: deny-alloc
#[inline(always)]
pub fn prefetch<T>(r: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch never faults, and `r` is a live reference.
    unsafe {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(r).cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = r;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel;

    struct XorShift(u64);

    impl XorShift {
        fn next_f64(&mut self) -> f64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    fn tile_from_rows(rows: &[[f64; 4]], width: usize) -> Vec<Lane4> {
        // rows[l][j] -> anchor-major lanes.
        (0..width)
            .map(|j| Lane4([rows[0][j], rows[1][j], rows[2][j], rows[3][j]]))
            .collect()
    }

    fn row(rows: &[[f64; 4]], l: usize, width: usize) -> Vec<f64> {
        rows[l][..width].to_vec()
    }

    #[test]
    fn masks_agree_with_the_per_pair_kernel_on_random_rows() {
        let mut rng = XorShift(0xD15EA5E);
        for d in available_dispatches() {
            for width in 1..=4usize {
                for _ in 0..200 {
                    let mut rows = [[0.0f64; 4]; 4];
                    let mut rf = vec![0.0f64; width];
                    for v in rf.iter_mut() {
                        *v = (rng.next_f64() * 8.0).floor(); // many exact ties
                    }
                    for r in rows.iter_mut() {
                        for v in r.iter_mut().take(width) {
                            *v = (rng.next_f64() * 8.0).floor();
                        }
                    }
                    let tile = tile_from_rows(&rows, width);
                    let dom = d.dominated_by_ref(&rf, &tile);
                    let doms = d.dominators_of(&rf, &tile);
                    let lt = d.all_lt(&rf, &tile);
                    for l in 0..4 {
                        let lane = row(&rows, l, width);
                        assert_eq!(
                            dom >> l & 1 == 1,
                            kernel::dominates(&rf, &lane),
                            "{}: dominated_by_ref lane {l}: rf={rf:?} lane={lane:?}",
                            d.path().name()
                        );
                        assert_eq!(
                            doms >> l & 1 == 1,
                            kernel::dominates(&lane, &rf),
                            "{}: dominators_of lane {l}",
                            d.path().name()
                        );
                        let want_lt = lane.iter().zip(&rf).all(|(&t, &b)| t < b);
                        assert_eq!(
                            lt >> l & 1 == 1,
                            want_lt,
                            "{}: all_lt lane {l}",
                            d.path().name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn signed_zero_and_exact_ties_match_the_scalar_relation() {
        // -0.0 == +0.0 under IEEE comparison: neither direction is
        // strict, so neither row dominates.
        let rf = [0.0, -0.0];
        let rows: [[f64; 4]; 4] = [
            [-0.0, 0.0, 0.0, 0.0],  // tie with rf on both anchors
            [0.0, 0.0, 0.0, 0.0],   // tie
            [1.0, 0.0, 0.0, 0.0],   // rf dominates (strict on anchor 0)
            [-0.0, -1.0, 0.0, 0.0], // dominates rf
        ];
        let tile = tile_from_rows(&rows, 2);
        for d in available_dispatches() {
            assert_eq!(
                d.dominated_by_ref(&rf, &tile),
                0b0100,
                "{}",
                d.path().name()
            );
            assert_eq!(d.dominators_of(&rf, &tile), 0b1000, "{}", d.path().name());
        }
    }

    #[test]
    fn pads_are_neutral_in_every_direction() {
        let rf = [1.0, 2.0, 3.0];
        let tile = vec![Lane4::PAD; 3];
        for d in available_dispatches() {
            // +inf lanes never dominate and never pass the strict screen…
            assert_eq!(d.dominators_of(&rf, &tile), 0, "{}", d.path().name());
            assert_eq!(d.all_lt(&rf, &tile), 0, "{}", d.path().name());
            // …and are reported as dominated by any finite row, which
            // callers mask off with `live_lane_mask`.
            assert_eq!(d.dominated_by_ref(&rf, &tile), 0xF, "{}", d.path().name());
        }
        assert_eq!(live_lane_mask(0), 0b0000);
        assert_eq!(live_lane_mask(1), 0b0001);
        assert_eq!(live_lane_mask(3), 0b0111);
        assert_eq!(live_lane_mask(4), 0b1111);
        assert_eq!(live_lane_mask(9), 0b1111);
    }

    /// Rows (each `width` long) laid out as a run of whole tiles, the
    /// tail padded with `+inf` lanes.
    fn run_from_rows(rows: &[Vec<f64>], width: usize) -> Vec<Lane4> {
        let mut tiles = vec![Lane4::PAD; rows.len().div_ceil(LANES) * width];
        for (r, row) in rows.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                tiles[(r / LANES) * width + j].0[r % LANES] = v;
            }
        }
        tiles
    }

    #[test]
    fn range_kernels_agree_with_the_per_pair_kernel_on_every_table() {
        // A palette with both signed zeros makes exact ties and ±0.0
        // comparisons the common case; run lengths 0..=9 cover the empty
        // run, every pad shape and runs of several tiles.
        let palette = [0.0f64, -0.0, 1.0, 2.0, 3.0];
        let mut rng = XorShift(0xF1257);
        let mut pick = move || palette[(rng.next_f64() * 5.0) as usize % 5];
        for width in 1..=8usize {
            for n in 0..=9usize {
                for _ in 0..40 {
                    let rows: Vec<Vec<f64>> = (0..n)
                        .map(|_| (0..width).map(|_| pick()).collect())
                        .collect();
                    let cand: Vec<f64> = (0..width).map(|_| pick()).collect();
                    let tiles = run_from_rows(&rows, width);
                    let want_dom = rows.iter().position(|r| kernel::dominates(r, &cand));
                    let want_lt = rows
                        .iter()
                        .position(|r| r.iter().zip(&cand).all(|(t, b)| t < b));
                    for d in available_dispatches() {
                        let name = d.path().name();
                        assert_eq!(
                            d.first_dominator(&cand, &tiles),
                            want_dom,
                            "{name}: first_dominator width {width} rows {rows:?} cand {cand:?}"
                        );
                        assert_eq!(
                            d.first_all_lt(&cand, &tiles),
                            want_lt,
                            "{name}: first_all_lt width {width} rows {rows:?} bounds {cand:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn range_kernels_find_the_last_lane_of_the_last_tile_and_skip_pads() {
        for width in 1..=8usize {
            let cand = vec![5.0; width];
            // Eleven rows that tie the candidate everywhere (no strict
            // anchor, so none dominates), then the one dominator in the
            // last lane of the last tile.
            let mut rows = vec![cand.clone(); 11];
            rows.push(vec![4.0; width]);
            let full = run_from_rows(&rows, width);
            // Without it the third tile ends in a pad lane, which must
            // neither dominate nor pass the strict screen.
            let padded = run_from_rows(&rows[..11], width);
            for d in available_dispatches() {
                let name = d.path().name();
                assert_eq!(d.first_dominator(&cand, &full), Some(11), "{name}");
                assert_eq!(d.first_all_lt(&cand, &full), Some(11), "{name}");
                assert_eq!(d.first_dominator(&cand, &padded), None, "{name}");
                assert_eq!(d.first_all_lt(&cand, &padded), None, "{name}");
                assert_eq!(d.first_dominator(&cand, &[]), None, "{name}");
                assert_eq!(d.first_all_lt(&cand, &[]), None, "{name}");
            }
        }
    }

    #[test]
    fn fill_tile_is_bit_identical_across_paths() {
        let mut rng = XorShift(0xF00D);
        for _ in 0..50 {
            let pts: [Point; LANES] =
                std::array::from_fn(|_| Point::new(rng.next_f64() * 100.0, rng.next_f64() * 100.0));
            let anchors: Vec<Point> = (0..5)
                .map(|_| Point::new(rng.next_f64() * 100.0, rng.next_f64() * 100.0))
                .collect();
            let mut want_tile = vec![Lane4::splat(0.0); anchors.len()];
            let mut want_keys = [0.0; LANES];
            SCALAR.fill_tile(&pts, &anchors, &mut want_tile, &mut want_keys);
            // The scalar fill must equal the point-at-a-time kernel.
            for (l, p) in pts.iter().enumerate() {
                let mut row = vec![0.0; anchors.len()];
                kernel::fill_dist_sq_row(*p, &anchors, &mut row);
                for (j, &d) in row.iter().enumerate() {
                    assert_eq!(want_tile[j].0[l].to_bits(), d.to_bits());
                }
            }
            for d in available_dispatches() {
                let mut tile = vec![Lane4::splat(-1.0); anchors.len()];
                let mut keys = [0.0; LANES];
                d.fill_tile(&pts, &anchors, &mut tile, &mut keys);
                for j in 0..anchors.len() {
                    for l in 0..LANES {
                        assert_eq!(
                            tile[j].0[l].to_bits(),
                            want_tile[j].0[l].to_bits(),
                            "{}: anchor {j} lane {l}",
                            d.path().name()
                        );
                    }
                }
                for l in 0..LANES {
                    assert_eq!(
                        keys[l].to_bits(),
                        want_keys[l].to_bits(),
                        "{}",
                        d.path().name()
                    );
                }
            }
        }
    }

    #[test]
    fn force_scalar_override_reroutes_dispatch() {
        let detected = detected_dispatch().path();
        set_force_scalar(true);
        assert_eq!(dispatch().path(), KernelPath::Scalar);
        assert_eq!(path_name(), "scalar");
        set_force_scalar(false);
        assert_eq!(dispatch().path(), detected);
    }

    #[test]
    fn path_names_are_stable() {
        assert_eq!(KernelPath::Scalar.name(), "scalar");
        assert_eq!(KernelPath::Sse2.name(), "sse2");
        assert_eq!(KernelPath::Avx2.name(), "avx2");
    }

    #[test]
    fn prefetch_is_only_a_hint() {
        // Any referent will do — the last element of a buffer, a value
        // narrower than a cache line, a zero-sized one — and nothing is
        // written.
        let lanes = vec![Lane4([1.0, 2.0, 3.0, 4.0]); 3];
        prefetch(&lanes[2]);
        prefetch(&lanes[2].0[3]);
        prefetch(&7u8);
        prefetch(&());
        assert_eq!(lanes, vec![Lane4([1.0, 2.0, 3.0, 4.0]); 3]);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn x86_detection_picks_an_intrinsic_path_unless_forced() {
        // Whatever the host supports, the detected path must not be the
        // portable fallback on x86-64 (SSE2 is baseline)…
        let path = detected_dispatch().path();
        assert!(
            path == KernelPath::Avx2 || path == KernelPath::Sse2 || path == KernelPath::Scalar,
            "unexpected x86-64 path {path:?}"
        );
        // …and Scalar only appears under the env override.
        if std::env::var_os("SSQ_FORCE_SCALAR").is_none_or(|v| v != "1") {
            assert_ne!(path, KernelPath::Scalar);
        }
    }
}
