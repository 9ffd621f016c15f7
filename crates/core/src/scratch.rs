//! The per-worker distance-scratch arena.
//!
//! Every kernel-path algorithm ([`naive_sorted_kernel`](crate::naive::naive_sorted_kernel),
//! [`vs2_kernel`](crate::vs2::vs2_kernel), [`b2s2_kernel`](crate::b2s2::b2s2_kernel),
//! the shard merge) stores its candidate distance vectors as rows of one
//! flat arena instead of a `Vec<f64>` per candidate. The arena is
//! **grown monotonically and never freed per query**: a serving worker
//! owns one [`DistanceScratch`] for its whole lifetime, `begin` resets
//! lengths but keeps every allocation, and after the first (warm-up)
//! query on a given workload shape the steady-state query path performs
//! no heap allocation at all.
//!
//! Storage is **tiled** for the data-parallel kernels in
//! [`ssq_geom::simd`]: rows are grouped into tiles of
//! [`LANES`] consecutive rows, each tile holding
//! one 32-byte-aligned [`Lane4`] per anchor (anchor-major within the
//! tile). Row `r`'s distance to anchor `j` lives at
//! `tiles[(r / LANES) * width + j].0[r % LANES]`; a tile's trailing
//! lanes are padded with `+inf`, which no finite row can be dominated
//! by ([`Lane4::PAD`]). Every dominance test below runs through the
//! runtime-dispatched SIMD kernels (scalar / SSE2 / AVX2): the
//! resolve pre-filter one tile per call, and the three early-exit scans
//! — resolve's ordered scan against the rows it has accepted, the
//! staged-row test, the B²S² rectangle screen — as **one** range-kernel
//! call each (`first_dominator` / `first_all_lt`), the tile loop running
//! inside the ISA-specific body until the first hit.
//!
//! [`DistanceScratch::resolve`] is the scalar
//! [`resolve_candidates`](crate::query::resolve_candidates) rule on
//! tiles: candidates in ascending key order, each tested against the
//! accepted rows only, stopping at the first dominator. The accepted rows
//! are kept compacted in a tile buffer of their own, so a test touches
//! `|accepted| / 4` tiles at most and usually far fewer.
//!
//! Graph traversals (VS²) keep their visited / extracted sets and their
//! distinct-page set here too, as **epoch-stamped marks**: one `u32` per
//! site compared against a per-query epoch, so starting a query costs
//! `O(1)` instead of clearing `|P|` flags, and the page-access count of
//! a query lives in the worker's arena instead of in counters every
//! worker on the same index would share.
//!
//! Rows hold **squared** Euclidean distances by default (see
//! [`ssq_geom::kernel`] for why this preserves the dominance relation
//! exactly); [`DistanceScratch::push_row_with`] lets a caller fill rows
//! with other per-anchor values instead (the ranked path's true
//! distances).
//!
//! Arena *growth events* (a buffer needing more capacity) are counted and
//! drained into [`QueryStats::allocations`] by the kernel algorithms, so
//! the zero-alloc claim is observable: after warm-up the counter stays 0,
//! while the scalar path counts one allocation per materialized distance
//! vector.

use ssq_geom::simd::{self, Lane4, LANES};
use ssq_geom::{Point, Rect};

use crate::b2s2::Work;
use crate::heap::MinHeap;
use crate::stats::QueryStats;

/// A reusable arena of lane-tiled distance rows plus the auxiliary
/// buffers (sort permutation, result ids, traversal marks, two min-heaps)
/// the kernel algorithms need. See the module docs.
#[derive(Debug, Default)]
pub struct DistanceScratch {
    /// Anchor-major AoSoA tiles: tile `t` spans
    /// `tiles[t * width..(t + 1) * width]`, one [`Lane4`] per anchor
    /// covering rows `t * LANES..(t + 1) * LANES`. Unused trailing
    /// lanes are `+inf` pads.
    tiles: Vec<Lane4>,
    /// Row width (= anchor count) set by [`DistanceScratch::begin`].
    width: usize,
    /// Per-row monotone ordering key (the row sum).
    keys: Vec<f64>,
    /// Per-row point id.
    ids: Vec<u32>,
    /// Per-row Theorem-1 certainty flag (inside `CH(Q)`).
    certain: Vec<bool>,
    /// Sort permutation over row indices.
    order: Vec<u32>,
    /// Resolved skyline ids (the arena's output buffer).
    result: Vec<u32>,
    /// The rows `resolve` has accepted so far, compacted into tiles of
    /// their own in acceptance order (same layout as `tiles`).
    sky: Vec<Lane4>,
    /// Per-site traversal marks, stamped against `epoch`: `== epoch`
    /// visited, `== epoch + 1` extracted, anything smaller untouched.
    marks: Vec<u32>,
    /// Per-adjacency-page marks: `== epoch` touched by this traversal.
    page_marks: Vec<u32>,
    /// The current traversal's stamp; advances by 2 per traversal, so
    /// no mark of an earlier traversal can equal `epoch` or `epoch + 1`.
    epoch: u32,
    /// Reusable traversal heap (VS²).
    heap: MinHeap<u32>,
    /// Reusable branch-and-bound heap (B²S², ranked).
    work_heap: MinHeap<Work>,
    /// Spare row for transient vectors (extracted rows, rect bounds,
    /// the distances of a VS² site tested against its neighbours).
    spare: Vec<f64>,
    /// Buffer-growth events since the last [`DistanceScratch::take_allocations`].
    grown: u64,
}

impl DistanceScratch {
    /// An empty arena; buffers are allocated lazily on first use.
    pub fn new() -> DistanceScratch {
        DistanceScratch::default()
    }

    /// An arena pre-sized for up to `rows` candidate rows of `width`
    /// anchor distances each: every buffer is allocated up front, so
    /// even the *first* query on a matching workload shape runs
    /// growth-free. Lazily-grown arenas pay their entire allocation bill
    /// inside the first query's timed hot path — for the naive kernel,
    /// which fills one row per data point, that warm-up dominates the
    /// first response; pre-sizing at worker spawn moves the cost to
    /// construction, where nobody is waiting on a query.
    ///
    /// Passing `rows == 0` (or `width == 0`) degrades gracefully to the
    /// lazy [`DistanceScratch::new`] behavior.
    pub fn with_capacity(rows: usize, width: usize) -> DistanceScratch {
        let mut s = DistanceScratch::default();
        let tiles = rows.div_ceil(LANES);
        s.tiles.reserve(tiles * width);
        s.keys.reserve(rows);
        s.ids.reserve(rows);
        s.certain.reserve(rows);
        s.order.reserve(rows);
        s.result.reserve(rows);
        s.sky.reserve(tiles * width);
        s.marks.reserve(rows);
        // A page holds at least one site, so `rows` bounds the page count.
        s.page_marks.reserve(rows);
        s.spare.reserve(width);
        s
    }

    /// Starts a new query over `width` anchors: every row, key, and
    /// result is discarded, every allocation is kept.
    pub fn begin(&mut self, width: usize) {
        assert!(width > 0, "a query has at least one anchor");
        self.width = width;
        self.tiles.clear();
        self.keys.clear();
        self.ids.clear();
        self.certain.clear();
        self.order.clear();
        self.result.clear();
    }

    /// The row width set by the last [`DistanceScratch::begin`].
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows currently in the arena.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` when the arena holds no rows.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The distance of row `r` to anchor `j` (rows are lane-tiled, so
    /// a row is not contiguous — see the module docs for the layout).
    #[inline]
    pub fn lane(&self, r: usize, j: usize) -> f64 {
        self.tiles[(r / LANES) * self.width + j].0[r % LANES]
    }

    /// The point id of row `r`.
    #[inline]
    pub fn id(&self, r: usize) -> u32 {
        self.ids[r]
    }

    /// The ordering key (row sum) of row `r`.
    #[inline]
    pub fn key(&self, r: usize) -> f64 {
        self.keys[r]
    }

    /// Grows `vec` to hold at least `need` elements, counting one growth
    /// event when an allocation actually happens. Reserving here (rather
    /// than merely comparing `need` against the capacity) keeps the
    /// counter honest for buffers whose *worst-case* need exceeds what a
    /// query ends up pushing: the buffer jumps to the worst case once,
    /// and every later query on the same shape is genuinely growth-free.
    fn ensure<T>(vec: &mut Vec<T>, need: usize, grown: &mut u64) {
        if need > vec.capacity() {
            vec.reserve(need - vec.len());
            *grown += 1;
        }
    }

    /// Copies row `r` out of its tile into `out` (one entry per anchor).
    #[inline]
    fn extract_row(tiles: &[Lane4], width: usize, r: usize, out: &mut [f64]) {
        let (t, l) = (r / LANES, r % LANES);
        for (j, slot) in out.iter_mut().enumerate() {
            *slot = tiles[t * width + j].0[l];
        }
    }

    /// Appends a row of **squared** Euclidean anchor distances for point
    /// `id` at location `p`, returning the new row's index. The row key
    /// is the squared-distance sum (monotone under dominance).
    // ssq-analyze: deny-alloc
    pub fn push_row(&mut self, id: u32, certain: bool, p: Point, anchors: &[Point]) -> usize {
        self.push_row_with(id, certain, anchors, |q| p.distance_sq(q))
    }

    /// Like [`DistanceScratch::push_row`] but fills the row with
    /// `dist(anchor)` for each anchor — e.g. true rather than squared
    /// distances (rows must all use the same convention within one query).
    // ssq-analyze: deny-alloc
    pub fn push_row_with<F: FnMut(Point) -> f64>(
        &mut self,
        id: u32,
        certain: bool,
        anchors: &[Point],
        mut dist: F,
    ) -> usize {
        debug_assert_eq!(anchors.len(), self.width, "row width mismatch");
        let r = self.keys.len();
        let (t, l) = (r / LANES, r % LANES);
        let w = self.width;
        if l == 0 {
            // First row of a fresh tile: extend with pad lanes.
            Self::ensure(&mut self.tiles, (t + 1) * w, &mut self.grown);
            self.tiles.resize((t + 1) * w, Lane4::PAD);
        }
        Self::ensure(&mut self.keys, r + 1, &mut self.grown);
        Self::ensure(&mut self.ids, r + 1, &mut self.grown);
        Self::ensure(&mut self.certain, r + 1, &mut self.grown);
        let mut sum = 0.0;
        for (j, &q) in anchors.iter().enumerate() {
            let d = dist(q);
            sum += d;
            self.tiles[t * w + j].0[l] = d;
        }
        self.keys.push(sum);
        self.ids.push(id);
        self.certain.push(certain);
        r
    }

    /// Batch-fills rows `0..points.len()` with **squared** Euclidean
    /// anchor distances through the dispatched SIMD tile kernel — one
    /// whole tile (four points × all anchors) per sweep instead of the
    /// point-at-a-time [`DistanceScratch::push_row`] loop. Row `i` gets
    /// id `i` and `certain = false` (the naive scan's convention). Keys
    /// are bit-identical to the `push_row` path: every kernel computes
    /// `dx·dx + dy·dy` and accumulates sums in anchor order.
    // ssq-analyze: deny-alloc
    pub fn fill_rows(&mut self, points: &[Point], anchors: &[Point]) {
        debug_assert_eq!(anchors.len(), self.width, "row width mismatch");
        debug_assert!(self.keys.is_empty(), "fill_rows expects a fresh arena");
        let d = simd::dispatch();
        let n = points.len();
        let w = self.width;
        let tiles = n.div_ceil(LANES);
        Self::ensure(&mut self.tiles, tiles * w, &mut self.grown);
        self.tiles.resize(tiles * w, Lane4::PAD);
        Self::ensure(&mut self.keys, n, &mut self.grown);
        Self::ensure(&mut self.ids, n, &mut self.grown);
        Self::ensure(&mut self.certain, n, &mut self.grown);
        let mut pts = [Point::default(); LANES];
        let mut keys = [0.0f64; LANES];
        for t in 0..tiles {
            let base = t * LANES;
            let m = (n - base).min(LANES);
            pts[..m].copy_from_slice(&points[base..base + m]);
            pts[m..].fill(points[base + m - 1]);
            d.fill_tile(
                &pts,
                anchors,
                &mut self.tiles[t * w..(t + 1) * w],
                &mut keys,
            );
            if m < LANES {
                // Repad the duplicate tail lanes so they stay neutral.
                for j in 0..w {
                    for l in m..LANES {
                        self.tiles[t * w + j].0[l] = f64::INFINITY;
                    }
                }
            }
            for (l, &key) in keys.iter().enumerate().take(m) {
                self.keys.push(key);
                self.ids.push((base + l) as u32);
                self.certain.push(false);
            }
        }
    }

    /// Removes the most recently pushed row (used by incremental
    /// traversals that stage a candidate row, test it, and reject it).
    // ssq-analyze: deny-alloc
    pub fn pop_row(&mut self) {
        debug_assert!(!self.keys.is_empty(), "pop from an empty arena");
        let r = self.keys.len() - 1;
        self.keys.pop();
        self.ids.pop();
        self.certain.pop();
        let (t, l) = (r / LANES, r % LANES);
        let w = self.width;
        if l == 0 {
            self.tiles.truncate(t * w);
        } else {
            // Re-pad the vacated lane so later tile sweeps stay sound.
            for j in 0..w {
                self.tiles[t * w + j].0[l] = f64::INFINITY;
            }
        }
    }

    /// `true` when the **last** row is dominated by any earlier row: one
    /// dispatched `first_dominator` call over the tiles holding the
    /// earlier rows. Counting matches the scalar row-at-a-time scan
    /// exactly: one dominance check per earlier row up to and including
    /// the first dominator, one per earlier row when there is none.
    // ssq-analyze: deny-alloc
    pub fn last_dominated(&mut self, stats: &mut QueryStats) -> bool {
        let last = self.keys.len() - 1;
        if last == 0 {
            return false;
        }
        let w = self.width;
        Self::ensure(&mut self.spare, w, &mut self.grown);
        self.spare.clear();
        self.spare.resize(w, 0.0);
        Self::extract_row(&self.tiles, w, last, &mut self.spare);
        // Tiles covering rows 0..last. The tile holding `last` itself is
        // safe to include whole: the row never dominates itself (no
        // strict anchor) and lanes past it are +inf pads.
        let earlier = &self.tiles[..last.div_ceil(LANES) * w];
        let first = simd::dispatch().first_dominator(&self.spare, earlier);
        debug_assert!(first.is_none_or(|i| i < last));
        stats.dominance_checks += first.map_or(last, |i| i + 1) as u64;
        first.is_some()
    }

    /// `true` when rectangle `mbr` is dominated by any row: dominated by
    /// row `s` iff `mindist(mbr, q)² > s[q]` for every anchor `q` — the
    /// B²S² pruning screen (§4.1) over **squared**-distance rows
    /// (squaring both sides of the scalar comparison; both are
    /// nonnegative, so the predicate is unchanged). The per-anchor
    /// `mindist²` bounds are computed once into the spare row, then one
    /// dispatched `first_all_lt` call screens every tile. Counting
    /// replicates the scalar row-at-a-time scan: one dominance check and
    /// `|CHv(Q)|` distance computations per row up to and including the
    /// first dominating row.
    // ssq-analyze: deny-alloc
    pub fn rect_dominated_sq(
        &mut self,
        mbr: &Rect,
        anchors: &[Point],
        stats: &mut QueryStats,
    ) -> bool {
        let n = self.keys.len();
        if n == 0 {
            return false;
        }
        Self::ensure(&mut self.spare, self.width, &mut self.grown);
        self.spare.clear();
        for &q in anchors {
            let m = mbr.mindist(q);
            self.spare.push(m * m);
        }
        let first = simd::dispatch().first_all_lt(&self.spare, &self.tiles);
        debug_assert!(first.is_none_or(|i| i < n));
        let scanned = first.map_or(n, |i| i + 1) as u64;
        stats.dominance_checks += scanned;
        stats.distance_computations += scanned * anchors.len() as u64;
        first.is_some()
    }

    /// Resolves the pushed rows into the exact skyline in two phases:
    ///
    /// 1. **Pre-filter** — the `(key, id)`-minimum row is found in one
    ///    linear pass (it is always skyline: dominance implies a
    ///    strictly smaller key, so nothing can dominate the key
    ///    minimum) and swept over every tile with the dispatched
    ///    `dominated_by_ref` bitmask kernel. On the naive kernel's
    ///    whole-dataset input this one sweep eliminates the vast
    ///    majority of rows, so the sort that follows is over dozens of
    ///    survivors instead of every row.
    /// 2. **Ordered early-exit scan** — surviving rows (plus all certain
    ///    rows, which bypass dominance entirely per Theorem 1) are
    ///    sorted by `(key, id)` and walked in ascending key order. Each
    ///    non-certain row is tested against the rows accepted so far —
    ///    kept compacted in tiles of their own — with one dispatched
    ///    `first_dominator` call that stops at the first dominator; a
    ///    row nothing accepted dominates is accepted and appended.
    ///    Exact because a dominator always has a strictly smaller key,
    ///    and a dominator that was itself dropped was dropped for a row
    ///    that dominates both (dominance is transitive) — the rule of
    ///    the scalar [`resolve_candidates`](crate::query::resolve_candidates).
    ///
    /// Counts one dominance check per row for the pre-filter, then per
    /// scanned row one per accepted row up to and including its first
    /// dominator (every accepted row when there is none).
    ///
    /// Returns the surviving ids sorted ascending; the slice lives in
    /// the arena's result buffer — copy it out before the next
    /// [`DistanceScratch::begin`].
    // ssq-analyze: deny-alloc
    pub fn resolve(&mut self, stats: &mut QueryStats) -> &[u32] {
        let n = self.keys.len();
        self.result.clear();
        if n == 0 {
            return &self.result;
        }
        let d = simd::dispatch();
        let w = self.width;
        let (keys, ids) = (&self.keys, &self.ids);
        let by_key = |a: usize, b: usize| keys[a].total_cmp(&keys[b]).then(ids[a].cmp(&ids[b]));
        let min_r = (1..n).fold(0, |m, r| if by_key(r, m).is_lt() { r } else { m });
        Self::ensure(&mut self.spare, w, &mut self.grown);
        self.spare.clear();
        self.spare.resize(w, 0.0);
        // Phase 1: sweep the key-minimum row. Its own lane is never
        // reported (a row has no strict anchor against itself), and bits
        // set on +inf pad lanes are never read. Certain rows stay in
        // even when dominated.
        Self::extract_row(&self.tiles, w, min_r, &mut self.spare);
        Self::ensure(&mut self.order, n, &mut self.grown);
        self.order.clear();
        for (t, tile) in self.tiles.chunks_exact(w).enumerate() {
            let base = t * LANES;
            let live = (n - base).min(LANES);
            stats.dominance_checks += live as u64;
            let dead = d.dominated_by_ref(&self.spare, tile);
            for l in 0..live {
                if (dead >> l) & 1 == 0 || self.certain[base + l] {
                    self.order.push((base + l) as u32);
                }
            }
        }
        // Phase 2: walk the survivors in key order against the compacted
        // accepted rows.
        self.order
            .sort_unstable_by(|&a, &b| by_key(a as usize, b as usize));
        let survivors = self.order.len();
        Self::ensure(
            &mut self.sky,
            survivors.div_ceil(LANES) * w,
            &mut self.grown,
        );
        self.sky.clear();
        Self::ensure(&mut self.result, survivors, &mut self.grown);
        for &r in &self.order {
            let r = r as usize;
            Self::extract_row(&self.tiles, w, r, &mut self.spare);
            let accepted = self.result.len();
            if !self.certain[r] {
                let first = d.first_dominator(&self.spare, &self.sky);
                stats.dominance_checks += first.map_or(accepted, |i| i + 1) as u64;
                if first.is_some() {
                    continue;
                }
            }
            let (t, l) = (accepted / LANES, accepted % LANES);
            if l == 0 {
                self.sky.resize((t + 1) * w, Lane4::PAD);
            }
            for (lane, &v) in self.sky[t * w..].iter_mut().zip(&self.spare) {
                lane.0[l] = v;
            }
            self.result.push(ids[r]);
        }
        self.result.sort_unstable();
        &self.result
    }

    /// The arena's result buffer — the ids produced by the last
    /// [`DistanceScratch::resolve`] or [`DistanceScratch::ids_sorted`]
    /// call (empty after [`DistanceScratch::begin`]).
    pub fn result(&self) -> &[u32] {
        &self.result
    }

    /// The ids currently in the arena, sorted ascending, via the result
    /// buffer — for traversals whose rows are already the exact skyline.
    // ssq-analyze: deny-alloc
    pub fn ids_sorted(&mut self) -> &[u32] {
        let need = self.ids.len();
        Self::ensure(&mut self.result, need, &mut self.grown);
        self.result.clear();
        self.result.extend_from_slice(&self.ids);
        self.result.sort_unstable();
        &self.result
    }

    /// Starts a graph traversal over `sites` points whose adjacency
    /// lists lie on `pages` pages: every site becomes unvisited and
    /// every page untouched by advancing the epoch — no per-query clear.
    /// A mark added for a grown index (a delta generation appends sites)
    /// starts unvisited beside the old ones, which keep their epochs; the
    /// buffers are really cleared only when the epoch is about to wrap
    /// around.
    // ssq-analyze: deny-alloc
    pub fn begin_traversal(&mut self, sites: usize, pages: usize) {
        if self.epoch > u32::MAX - 3 {
            self.marks.fill(0);
            self.page_marks.fill(0);
            self.epoch = 0;
        }
        if self.marks.len() < sites {
            Self::ensure(&mut self.marks, sites, &mut self.grown);
            self.marks.resize(sites, 0);
        }
        if self.page_marks.len() < pages {
            Self::ensure(&mut self.page_marks, pages, &mut self.grown);
            self.page_marks.resize(pages, 0);
        }
        self.epoch += 2;
    }

    /// `true` once site `i` has been enqueued by the current traversal
    /// (extracted sites stay visited).
    #[inline]
    // ssq-analyze: deny-alloc
    pub fn is_visited(&self, i: u32) -> bool {
        self.marks[i as usize] >= self.epoch
    }

    /// Hints that the mark of site `i` is about to be read
    /// ([`simd::prefetch`]).
    #[inline]
    // ssq-analyze: deny-alloc
    pub fn prefetch_mark(&self, i: u32) {
        simd::prefetch(&self.marks[i as usize]);
    }

    /// Marks site `i` visited (enqueued).
    #[inline]
    // ssq-analyze: deny-alloc
    pub fn mark_visited(&mut self, i: u32) {
        self.marks[i as usize] = self.epoch;
    }

    /// `true` once site `i` has been extracted (its neighbours enqueued)
    /// by the current traversal.
    #[inline]
    // ssq-analyze: deny-alloc
    pub fn is_extracted(&self, i: u32) -> bool {
        self.marks[i as usize] == self.epoch + 1
    }

    /// Marks site `i` extracted.
    #[inline]
    // ssq-analyze: deny-alloc
    pub fn mark_extracted(&mut self, i: u32) {
        self.marks[i as usize] = self.epoch + 1;
    }

    /// Records a read of adjacency page `page`; `true` the first time
    /// the current traversal touches it — the per-query distinct-page
    /// count behind [`QueryStats::node_accesses`], kept in the worker's
    /// own arena so concurrent queries on one index never share it.
    #[inline]
    // ssq-analyze: deny-alloc
    pub fn touch_page(&mut self, page: u32) -> bool {
        let mark = &mut self.page_marks[page as usize];
        let first = *mark != self.epoch;
        *mark = self.epoch;
        first
    }

    /// Takes the reusable traversal heap, cleared. Return it with
    /// [`DistanceScratch::restore_heap`].
    pub fn take_heap(&mut self) -> MinHeap<u32> {
        let mut heap = std::mem::take(&mut self.heap);
        heap.clear();
        heap
    }

    /// Returns the heap taken by [`DistanceScratch::take_heap`].
    pub fn restore_heap(&mut self, heap: MinHeap<u32>) {
        self.heap = heap;
    }

    /// Takes the reusable branch-and-bound heap, cleared. Return it with
    /// [`DistanceScratch::restore_work_heap`].
    pub(crate) fn take_work_heap(&mut self) -> MinHeap<Work> {
        let mut heap = std::mem::take(&mut self.work_heap);
        heap.clear();
        heap
    }

    /// Returns the heap taken by [`DistanceScratch::take_work_heap`].
    pub(crate) fn restore_work_heap(&mut self, heap: MinHeap<Work>) {
        self.work_heap = heap;
    }

    /// Fills the spare row with `mbr.mindist(q)` per anchor (the
    /// admissible per-anchor lower bound used by the ranked search) and
    /// returns it.
    // ssq-analyze: deny-alloc
    pub fn fill_spare_mindist(&mut self, mbr: &Rect, anchors: &[Point]) -> &[f64] {
        Self::ensure(&mut self.spare, anchors.len(), &mut self.grown);
        self.spare.clear();
        self.spare.extend(anchors.iter().map(|&q| mbr.mindist(q)));
        &self.spare
    }

    /// Fills the spare row with the **squared** distances from `p` to
    /// each anchor — what [`DistanceScratch::push_row`] would store for
    /// `p` — and returns it, for a test that compares `p` against points
    /// that have no row.
    // ssq-analyze: deny-alloc
    pub fn fill_spare_dist_sq(&mut self, p: Point, anchors: &[Point]) -> &[f64] {
        Self::ensure(&mut self.spare, anchors.len(), &mut self.grown);
        self.spare.clear();
        self.spare.extend(anchors.iter().map(|&q| p.distance_sq(q)));
        &self.spare
    }

    /// Buffer-growth events since the last call, resetting the counter.
    /// Kernel algorithms drain this into [`QueryStats::allocations`] at
    /// the end of each query: 0 means the query ran allocation-free.
    pub fn take_allocations(&mut self) -> u64 {
        std::mem::take(&mut self.grown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssq_geom::kernel;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn row_of(s: &DistanceScratch, r: usize) -> Vec<f64> {
        (0..s.width()).map(|j| s.lane(r, j)).collect()
    }

    #[test]
    fn rows_hold_squared_distances_and_keys_their_sums() {
        let anchors = [p(0.0, 0.0), p(3.0, 0.0)];
        let mut s = DistanceScratch::new();
        s.begin(2);
        let r = s.push_row(7, false, p(0.0, 4.0), &anchors);
        assert_eq!(row_of(&s, r), &[16.0, 25.0]);
        assert_eq!(s.key(r), 41.0);
        assert_eq!(s.id(r), 7);
        assert_eq!(s.len(), 1);
        // The spare row holds the same distances and adds no row.
        assert_eq!(s.fill_spare_dist_sq(p(0.0, 4.0), &anchors), &[16.0, 25.0]);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn fill_rows_matches_push_row_bit_for_bit() {
        let anchors = [p(0.0, 0.0), p(3.0, 1.0), p(-2.0, 5.0)];
        let points: Vec<Point> = (0..13)
            .map(|i| p(i as f64 * 0.37 - 2.0, (i * i) as f64 * 0.11))
            .collect();
        let mut pushed = DistanceScratch::new();
        pushed.begin(anchors.len());
        for (i, &pt) in points.iter().enumerate() {
            pushed.push_row(i as u32, false, pt, &anchors);
        }
        // Every tile-remainder size, so the padded tail path is covered.
        for n in 0..points.len() {
            let mut filled = DistanceScratch::new();
            filled.begin(anchors.len());
            filled.fill_rows(&points[..n], &anchors);
            assert_eq!(filled.len(), n);
            for r in 0..n {
                assert_eq!(filled.id(r), pushed.id(r));
                assert_eq!(filled.key(r).to_bits(), pushed.key(r).to_bits(), "row {r}");
                for j in 0..anchors.len() {
                    assert_eq!(
                        filled.lane(r, j).to_bits(),
                        pushed.lane(r, j).to_bits(),
                        "row {r} anchor {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn resolve_matches_a_naive_dominance_filter() {
        let anchors = [p(0.0, 0.0), p(1.0, 0.0)];
        let pts = [p(0.2, 0.1), p(0.5, 0.5), p(0.9, 0.05), p(0.5, 0.9)];
        let mut s = DistanceScratch::new();
        s.begin(2);
        for (i, &pt) in pts.iter().enumerate() {
            s.push_row(i as u32, false, pt, &anchors);
        }
        let mut stats = QueryStats::default();
        let got: Vec<u32> = s.resolve(&mut stats).to_vec();
        // Oracle over true distances.
        let vecs: Vec<Vec<f64>> = pts
            .iter()
            .map(|&pt| anchors.iter().map(|&q| pt.distance(q)).collect())
            .collect();
        let want: Vec<u32> = (0..pts.len() as u32)
            .filter(|&i| {
                !vecs
                    .iter()
                    .enumerate()
                    .any(|(j, v)| j != i as usize && kernel::dominates(v, &vecs[i as usize]))
            })
            .collect();
        assert_eq!(got, want);
        assert!(stats.dominance_checks > 0);
    }

    #[test]
    fn certain_rows_always_survive() {
        let anchors = [p(0.0, 0.0)];
        let mut s = DistanceScratch::new();
        s.begin(1);
        s.push_row(0, false, p(0.1, 0.0), &anchors);
        // Dominated, but marked certain — must survive anyway.
        s.push_row(1, true, p(0.9, 0.0), &anchors);
        let mut stats = QueryStats::default();
        assert_eq!(s.resolve(&mut stats), &[0, 1]);
    }

    #[test]
    fn rect_screen_matches_the_scalar_predicate_and_counters() {
        let anchors = [p(0.0, 0.0), p(10.0, 0.0)];
        let mut s = DistanceScratch::new();
        s.begin(2);
        // Rows for 6 skyline points, so the screen spans a partial tile.
        let pts = [
            p(1.0, 0.0),
            p(9.0, 0.0),
            p(5.0, 0.5),
            p(4.0, 1.0),
            p(6.0, 1.0),
            p(5.0, -0.5),
        ];
        for (i, &pt) in pts.iter().enumerate() {
            s.push_row(i as u32, false, pt, &anchors);
        }
        let scalar = |mbr: &Rect, s: &DistanceScratch, stats: &mut QueryStats| -> bool {
            for r in 0..s.len() {
                stats.dominance_checks += 1;
                stats.distance_computations += anchors.len() as u64;
                let dominated = anchors.iter().enumerate().all(|(j, &q)| {
                    let m = mbr.mindist(q);
                    m * m > s.lane(r, j)
                });
                if dominated {
                    return true;
                }
            }
            false
        };
        for (lo, hi) in [
            (p(4.0, 20.0), p(6.0, 22.0)), // far from both anchors: dominated
            (p(0.0, 0.0), p(1.0, 1.0)),   // hugs anchor 0: survives
            (p(4.5, 0.0), p(5.5, 1.0)),   // overlaps the middle cluster
            (p(40.0, 0.0), p(50.0, 1.0)), // far right: dominated
        ] {
            let mbr = Rect::from_corners(lo, hi);
            let mut want_stats = QueryStats::default();
            let want = scalar(&mbr, &s, &mut want_stats);
            let mut got_stats = QueryStats::default();
            let got = s.rect_dominated_sq(&mbr, &anchors, &mut got_stats);
            assert_eq!(got, want, "{mbr:?}");
            assert_eq!(
                got_stats.dominance_checks, want_stats.dominance_checks,
                "{mbr:?}"
            );
            assert_eq!(
                got_stats.distance_computations, want_stats.distance_computations,
                "{mbr:?}"
            );
        }
    }

    #[test]
    fn growth_is_counted_once_then_reuse_is_free() {
        let anchors = [p(0.0, 0.0), p(1.0, 1.0), p(2.0, 0.0)];
        let mut s = DistanceScratch::new();
        let run = |s: &mut DistanceScratch| {
            s.begin(3);
            for i in 0..64u32 {
                s.push_row(i, false, p(i as f64 * 0.01, 0.5), &anchors);
            }
            let mut stats = QueryStats::default();
            s.resolve(&mut stats);
            s.begin_traversal(64, 2);
            let h = s.take_heap();
            s.restore_heap(h);
            s.take_allocations()
        };
        let warmup = run(&mut s);
        assert!(warmup > 0, "first query must grow the arena");
        for trial in 0..5 {
            assert_eq!(run(&mut s), 0, "steady-state trial {trial} allocated");
        }
    }

    #[test]
    fn a_presized_arena_makes_even_the_first_query_growth_free() {
        let anchors = [p(0.0, 0.0), p(1.0, 1.0), p(2.0, 0.0)];
        let mut s = DistanceScratch::with_capacity(64, anchors.len());
        s.begin(anchors.len());
        for i in 0..64u32 {
            s.push_row(i, false, p(i as f64 * 0.01, 0.5), &anchors);
        }
        let mut stats = QueryStats::default();
        s.resolve(&mut stats);
        s.begin_traversal(64, 2);
        s.fill_spare_mindist(&Rect::from_corners(p(0.0, 0.0), p(1.0, 1.0)), &anchors);
        assert_eq!(
            s.take_allocations(),
            0,
            "pre-sized arena must not grow on its first query"
        );
    }

    #[test]
    fn touch_page_counts_distinct_pages_once() {
        let mut s = DistanceScratch::new();
        s.begin_traversal(40, 4);
        assert!(s.touch_page(0));
        assert!(!s.touch_page(0));
        // Touch every site's page (ten sites a page): each of the
        // remaining pages is new exactly once.
        let fresh = (0..40u32).filter(|i| s.touch_page(i / 10)).count();
        assert_eq!(fresh, 3);
    }

    #[test]
    fn begin_traversal_empties_the_page_set() {
        let mut s = DistanceScratch::new();
        s.begin_traversal(20, 4);
        assert!(s.touch_page(3));
        s.begin_traversal(20, 4);
        assert!(s.touch_page(3), "a new traversal starts with no page read");
        assert!(!s.touch_page(3));
    }

    #[test]
    fn marks_survive_index_size_changes_and_an_epoch_wrap() {
        use crate::index::VoronoiIndex;
        use crate::query::QueryContext;
        use crate::vs2::vs2_kernel;

        let cloud = |n: usize, seed: u64| -> Vec<Point> {
            let mut s = seed;
            let mut next = move || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 11) as f64 / (1u64 << 53) as f64
            };
            (0..n).map(|_| p(next(), next())).collect()
        };
        // One arena across indexes that grow, shrink, and then straddle
        // the wrap: stamped just below it, round 3 leaves marks of
        // `u32::MAX - 1` and `u32::MAX` behind, which round 4's restart
        // from a small epoch must not read as visited.
        let mut shared = DistanceScratch::new();
        for (round, n) in [300usize, 520, 400, 400, 400].into_iter().enumerate() {
            let index = VoronoiIndex::new(&cloud(n, 0xE90C + round as u64)).unwrap();
            if round == 3 {
                shared.epoch = u32::MAX - 3;
            }
            for trial in 0..4u64 {
                let q = cloud(2 + trial as usize, 77 + 10 * round as u64 + trial);
                let ctx = QueryContext::new(&q);
                let want = vs2_kernel(&index, &ctx, &mut DistanceScratch::new());
                let got = vs2_kernel(&index, &ctx, &mut shared);
                assert_eq!(got.skyline, want.skyline, "round {round} trial {trial}");
                assert_eq!(
                    got.stats.node_accesses, want.stats.node_accesses,
                    "round {round} trial {trial}"
                );
            }
            if round == 3 {
                assert!(shared.epoch < 16, "the epoch wrapped and restarted");
            }
        }
    }

    #[test]
    fn pop_row_and_last_dominated_support_incremental_use() {
        let anchors = [p(0.0, 0.0), p(1.0, 0.0)];
        let mut s = DistanceScratch::new();
        s.begin(2);
        s.push_row(0, false, p(0.1, 0.0), &anchors);
        let mut stats = QueryStats::default();
        s.push_row(1, false, p(0.2, 1.0), &anchors); // farther from both
        assert!(s.last_dominated(&mut stats));
        s.pop_row();
        assert_eq!(s.len(), 1);
        s.push_row(2, false, p(0.9, 0.0), &anchors); // closer to anchor 1
        assert!(!s.last_dominated(&mut stats));
        assert_eq!(s.ids_sorted(), &[0, 2]);
    }

    #[test]
    fn last_dominated_counts_like_the_scalar_scan_across_tile_shapes() {
        let anchors = [p(0.0, 0.0), p(7.0, 0.0)];
        // 7 rows (one full tile + a partial): the staged row is
        // dominated first by row 4 (one lane into the second tile), so
        // the scalar scan counts 5 checks.
        let mut s = DistanceScratch::new();
        s.begin(2);
        for i in 0..8u32 {
            // A diagonal staircase: mutually incomparable.
            let x = 0.5 + i as f64 * 0.75;
            s.push_row(i, false, p(x, 0.0), &anchors);
        }
        // Pop rows so only rows 0..=5 can dominate; row 5 sits mid-tile.
        s.pop_row();
        s.pop_row();
        s.push_row(8, false, p(0.5 + 5.0 * 0.75, 3.0), &anchors); // row 5 + offset
        let mut stats = QueryStats::default();
        assert!(s.last_dominated(&mut stats));
        assert_eq!(stats.dominance_checks, 5);
        // Not dominated: counts one check per earlier row.
        s.pop_row();
        s.push_row(9, false, p(-0.1, 0.0), &anchors); // nearest to anchor 0
        let mut stats = QueryStats::default();
        assert!(!s.last_dominated(&mut stats));
        assert_eq!(stats.dominance_checks, 6);
    }
}
