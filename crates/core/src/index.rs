//! The two physical designs of the paper's experiments.
//!
//! §7 evaluates two storage layouts over the same point set:
//!
//! * an **R*-tree** (1 KB pages, ≤ 50 entries/node) used by BBS and B²S²
//!   — wrapped here as [`RTreeIndex`];
//! * a **pre-built Delaunay graph** whose adjacency list is stored in a
//!   flat file paged by Hilbert value, used by VS² and VCS² — wrapped as
//!   [`VoronoiIndex`].
//!
//! Both wrappers own the point set and name a point by its **id**, its
//! position in the input. The R-tree stores its points in that order and
//! counts node reads so the bench harness can report I/O the way the paper
//! does; the Voronoi side stores them along the Hilbert curve (see
//! [`VoronoiIndex`]) and only lays them out on adjacency pages — a
//! traversal counts the distinct pages it reads itself, so a published
//! [`VoronoiIndex`] holds no interior mutability.
//!
//! The same curve order is the Voronoi side's one nearest-site structure:
//! a directory of every 8th site's curve key seeds the greedy walk that
//! finds `NN(q)` for every traversal ([`VoronoiIndex::nearest`]), and that
//! walk plus a search of the answer's Delaunay neighbours locates a point
//! in the Voronoi diagram — the whole answer of a one-anchor query
//! ([`VoronoiIndex::nearest_ties`]).

use ssq_delaunay::paged::PagedAdjacency;
use ssq_delaunay::rows::{Arena, CowChunks};
use ssq_delaunay::voronoi::{incident_triangles, CellTracer};
use ssq_delaunay::{hilbert, DelaunayGraph, DeltaError, Triangulation};
use ssq_geom::{ConvexPolygon, Point, Rect};
use ssq_rtree::{RTree, RTreeConfig};

use crate::delta::{join, DeltaStats, UpdateBatch};

/// The rebuild rule: a delta is rebuilt from scratch instead of repaired
/// once tombstones plus sites appended since the last full build, its own
/// included, exceed `1/DELTA_REBUILD_DENOM` of the index. That bounds the
/// garbage and the layout's decay (a rebuild re-sorts the sites along the
/// curve), and past that size a batch's locate walks and cell
/// recomputation cost more than the bulk path anyway.
const DELTA_REBUILD_DENOM: usize = 8;

/// Sites per entry of the start directory: every `DIRECTORY_STRIDE`-th
/// site along the curve is an entry. Chosen by measurement on clustered
/// points (2-core Xeon, AVX2): 8 seeds the walk 2.5 adjacency reads from
/// the answer (16: 3.1, 32: 3.9), was the fastest `nearest` at 100k
/// points (≈ 365 ns against 470 ns for 16) and level with 4–16 at 200k,
/// for a directory of 1.5 B per point.
const DIRECTORY_STRIDE: usize = 8;

/// Relative width of the band about the minimum squared distance that
/// [`VoronoiIndex::nearest_ties`] searches through. Two equal true
/// distances round to values at most `4 ε` apart (each `dx² + dy²` is
/// within `2 ε` of its true value), so a band of `32 ε` holds every
/// rounding of a tie with room to spare.
const TIE_BAND: f64 = 32.0 * f64::EPSILON;

/// The R*-tree physical design (for BBS and B²S²).
pub struct RTreeIndex {
    points: Vec<Point>,
    tree: RTree<u32>,
}

impl RTreeIndex {
    /// Bulk-loads the index with the paper's default fan-out (50).
    pub fn new(points: &[Point]) -> RTreeIndex {
        Self::with_config(points, RTreeConfig::default())
    }

    /// Bulk-loads with an explicit R-tree configuration.
    pub fn with_config(points: &[Point], config: RTreeConfig) -> RTreeIndex {
        RTreeIndex {
            points: points.to_vec(),
            tree: RTree::<u32>::bulk_load_points(points, config),
        }
    }

    /// The indexed points, in input order.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// The point with index `i`.
    #[inline]
    pub fn point(&self, i: u32) -> Point {
        self.points[i as usize]
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the index is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The underlying tree (the skyline algorithms drive it directly).
    pub fn tree(&self) -> &RTree<u32> {
        &self.tree
    }

    /// The data universe (MBR of all points).
    pub fn universe(&self) -> Rect {
        self.tree.mbr()
    }

    /// Applies a normalized [`UpdateBatch`], producing the next
    /// generation's index under [`UpdateBatch::id_plan`]'s ids. The tree
    /// edits are `O(|batch| log n)` — deletes with reinsertion of underfull
    /// siblings, then every id the plan wrote inserted through the R* path
    /// — and copy only the nodes they write: the tree is cloned by node
    /// pointer, and every node the batch leaves alone stays shared with
    /// `self` ([`RTree::shared_nodes`]). What stays `O(n)` is the pointer
    /// copy itself and the point list, copied flat and patched at the
    /// batch's ids.
    ///
    /// Runs on the calling thread and shares nothing with the Voronoi
    /// half, so `Snapshot::apply_delta` in `ssq-engine` runs it on the
    /// publish helper ([`join`]) beside [`VoronoiIndex::apply_delta`].
    pub fn apply_delta(&self, batch: &UpdateBatch) -> RTreeIndex {
        debug_assert!(batch.is_normalized());
        let plan = batch.id_plan(self.points.len());
        let mut points = self.points.clone();
        plan.patch(&mut points, batch.inserts.iter().copied());
        let mut tree = self.tree.clone();
        for d in batch.deletes.iter().chain(plan.moves.iter().map(|m| &m.0)) {
            let hit = tree.delete(Rect::from_point(self.points[*d as usize]), *d);
            debug_assert!(hit, "id {d} missing from the tree");
        }
        for id in plan.inserted.iter().chain(plan.moves.iter().map(|m| &m.1)) {
            tree.insert(Rect::from_point(points[*id as usize]), *id);
        }
        RTreeIndex { points, tree }
    }
}

/// The Voronoi/Delaunay physical design (for VS² and VCS²).
///
/// Each Voronoi cell is traced at build time, but only its MBR is kept:
/// the paper's "pre-built Delaunay graph" file stores each point's
/// neighbourhood, and the one question a traversal asks of a cell — does
/// it meet the pruning rectangle `B`? — is answered by its box (see
/// [`vs2`](mod@crate::vs2), "The cell gate"). The polygon itself is
/// recomputed on demand by [`VoronoiIndex::voronoi_cell`].
///
/// Callers name a point by its **id** (its position in the input; after a
/// delta, [`UpdateBatch`]'s numbering). Every array in here is stored by
/// **site** — at a full build, the point's rank along the Hilbert curve,
/// ties broken by id — which is the Delaunay insertion order, the memory
/// order and, over the page capacity, the adjacency page, so a traversal
/// reads neighbouring lines for neighbouring points whatever order the
/// dataset arrived in. [`VoronoiIndex::site_of`] / [`VoronoiIndex::id_of`]
/// are the only bridge; traversals run on sites ([`VoronoiIndex::graph`])
/// and translate where an id leaves them.
///
/// A delta ([`VoronoiIndex::apply_delta`]) moves no site. A deleted
/// point's site becomes a *tombstone* — no neighbours, no cell, never a
/// walk seed — and an inserted point is appended as a new site. So
/// [`VoronoiIndex::len`] counts live points (the ids) while
/// [`VoronoiIndex::site_bound`], one past the last site, sizes per-site
/// marks and pages. The per-site tables — neighbour lists
/// ([`Rows`](ssq_delaunay::rows::Rows)) and cell boxes (a fixed-size
/// [`CowChunks`]) — live in `Arc`-shared chunks of
/// [`CHUNK`](ssq_delaunay::rows::CHUNK) sites, and a delta copies only the
/// chunks it writes.
pub struct VoronoiIndex {
    /// Vertex `s` is site `s`. The graph keeps its triangulation, so the
    /// next generation can be produced by local repair instead of a
    /// rebuild.
    graph: DelaunayGraph,
    pages: PagedAdjacency,
    /// Entry `s` is the MBR of site `s`'s cell, clipped to the graph's
    /// default box; [`Rect::EMPTY`] for a tombstone.
    cells: CowChunks<Rect>,
    /// `site_to_id[s]` is the id of site `s` (`u32::MAX` for a tombstone);
    /// `id_to_site` maps the ids back.
    site_to_id: Vec<u32>,
    id_to_site: Vec<u32>,
    /// The start index (paper §4.2: "Φ(|P|) is O(log |P|) if an index
    /// structure is used"): every walk's seed.
    directory: Directory,
    /// Tombstones plus sites appended since the last full build — the
    /// layout decay the rebuild rule bounds.
    decay: usize,
}

/// The start index: the curve keys of every [`DIRECTORY_STRIDE`]-th
/// site. Sites are laid out in key order, so the entries are sorted, and
/// a binary search for a query's key lands between two sites near it on
/// the curve — a walk seed that is usually a few hops from the answer.
/// Seeds only: the greedy walk from any live site is exact.
struct Directory {
    /// The box the keys are taken over: the data MBR at build time.
    /// Queries and later inserts outside it clamp to its boundary.
    bbox: Rect,
    /// Entry keys, ascending; `sites[j]` is the site entry `j` seeds — a
    /// live one.
    keys: Vec<u64>,
    sites: Vec<u32>,
}

impl Directory {
    /// Every [`DIRECTORY_STRIDE`]-th of `points`, which are in curve
    /// order over `bbox`.
    fn build(points: &[Point], bbox: Rect) -> Directory {
        let sites: Vec<u32> = (0..points.len() as u32).step_by(DIRECTORY_STRIDE).collect();
        let keys = sites
            .iter()
            .map(|&s| hilbert::hilbert_index(points[s as usize], &bbox))
            .collect();
        Directory { bbox, keys, sites }
    }

    /// The closer to `q` of the two entries whose keys bracket `q`'s;
    /// `None` when the directory is empty.
    // ssq-analyze: deny-alloc
    fn seed(&self, q: Point, points: &[Point]) -> Option<u32> {
        let last = self.sites.len().checked_sub(1)?;
        let key = hilbert::hilbert_index(q, &self.bbox);
        let at = self.keys.partition_point(|&k| k < key);
        let (lo, hi) = (self.sites[at.saturating_sub(1)], self.sites[at.min(last)]);
        let closer = points[hi as usize].distance_sq(q) < points[lo as usize].distance_sq(q);
        Some(if closer { hi } else { lo })
    }

    /// The directory once the sites `site_to_id` maps to `u32::MAX` are
    /// tombstones: an entry on one keeps its key and moves to a live
    /// neighbour in `old`, the graph it was live in — still a seed near
    /// that point of the curve — or is dropped when it has none.
    fn moved_off(&self, site_to_id: &[u32], old: &DelaunayGraph) -> Directory {
        let live = |s: u32| site_to_id[s as usize] != u32::MAX;
        let mut keys = Vec::with_capacity(self.keys.len());
        let mut sites = Vec::with_capacity(self.sites.len());
        for (&key, &s) in self.keys.iter().zip(&self.sites) {
            let moved = if live(s) {
                Some(s)
            } else {
                old.neighbors(s).iter().copied().find(|&u| live(u))
            };
            if let Some(m) = moved {
                keys.push(key);
                sites.push(m);
            }
        }
        Directory {
            bbox: self.bbox,
            keys,
            sites,
        }
    }
}

impl VoronoiIndex {
    /// Sorts the points along the Hilbert curve (the build's one sort) and
    /// builds the Delaunay graph, the cell boxes and the start directory over
    /// them in that order.
    ///
    /// `per_page` mirrors the paper's 50-entries-per-page R-tree nodes so
    /// the two physical designs report comparable I/O; use
    /// [`VoronoiIndex::new`] for that default.
    pub fn with_page_size(
        points: &[Point],
        per_page: usize,
    ) -> Result<VoronoiIndex, ssq_delaunay::BuildError> {
        use ssq_delaunay::BuildError;
        if let Some(i) = points.iter().position(|p| !p.is_finite()) {
            return Err(BuildError::NonFiniteCoordinate(i));
        }
        let bbox = Rect::bounding(points.iter().copied());
        let site_to_id = hilbert::sort_by_hilbert(points, &bbox);
        let tri = {
            let sites: Vec<Point> = site_to_id.iter().map(|&i| points[i as usize]).collect();
            Triangulation::new(&sites).map_err(|e| match e {
                // Equal points have equal keys, so the two sites are in id
                // order and name the pair the input-order check would.
                BuildError::DuplicatePoint(a, b) => {
                    BuildError::DuplicatePoint(site_to_id[a] as usize, site_to_id[b] as usize)
                }
                e => e,
            })?
        };
        let graph = DelaunayGraph::from_triangulation(tri);
        let cells = {
            let (tri, clip) = (graph.triangulation(), graph.default_clip());
            // Each cell's box, from its traced ring. Fast path: trace
            // cells from circumcenters (O(deg) per site); individual
            // numerically-degenerate cells — and fully collinear inputs —
            // fall back to the bisector half-plane construction.
            let tracer = CellTracer::new(tri, &clip);
            let incident = incident_triangles(tri);
            (0..graph.len() as u32)
                .map(|s| {
                    let traced = tracer
                        .as_ref()
                        .and_then(|t| t.cell(s, incident[s as usize]));
                    traced.unwrap_or_else(|| graph.voronoi_cell(s, &clip)).mbr()
                })
                .collect()
        };
        let mut id_to_site = vec![0; points.len()];
        for (s, &id) in (0u32..).zip(&site_to_id) {
            id_to_site[id as usize] = s;
        }
        Ok(VoronoiIndex {
            pages: PagedAdjacency::new(graph.len(), per_page),
            directory: Directory::build(graph.points(), bbox),
            graph,
            cells,
            id_to_site,
            site_to_id,
            decay: 0,
        })
    }

    /// Builds the index with the default page capacity (50 points/page).
    pub fn new(points: &[Point]) -> Result<VoronoiIndex, ssq_delaunay::BuildError> {
        Self::with_page_size(points, 50)
    }

    /// The underlying Delaunay graph. Its vertices are **sites**:
    /// translate with [`VoronoiIndex::site_of`] / [`VoronoiIndex::id_of`].
    /// A tombstone is a vertex with no neighbours that no list names.
    pub fn graph(&self) -> &DelaunayGraph {
        &self.graph
    }

    /// The site holding the point with id `id`.
    #[inline]
    pub fn site_of(&self, id: u32) -> u32 {
        self.id_to_site[id as usize]
    }

    /// The id of the point stored at `site` (`u32::MAX` for a tombstone).
    #[inline]
    pub fn id_of(&self, site: u32) -> u32 {
        self.site_to_id[site as usize]
    }

    /// The point with id `id`.
    #[inline]
    pub fn point(&self, id: u32) -> Point {
        self.graph.point(self.site_of(id))
    }

    /// Number of indexed points — the live sites; ids are `0..len()`.
    pub fn len(&self) -> usize {
        self.id_to_site.len()
    }

    /// `true` when the index is empty.
    pub fn is_empty(&self) -> bool {
        self.id_to_site.is_empty()
    }

    /// One past the last site, tombstones included: the size of anything
    /// indexed by site, such as a traversal's marks.
    pub fn site_bound(&self) -> usize {
        self.site_to_id.len()
    }

    /// The Voronoi cell of the point with id `id`, clipped to the default
    /// box. Computed on demand from the point's Delaunay neighbours
    /// ([`DelaunayGraph::voronoi_cell`]); the index stores only the
    /// cell's box ([`VoronoiIndex::cell_box`]). An id always names a live
    /// site, never a tombstone.
    pub fn voronoi_cell(&self, id: u32) -> ConvexPolygon {
        let site = self.site_of(id);
        self.graph.voronoi_cell(site, &self.graph.default_clip())
    }

    /// The stored MBR of the Voronoi cell of the point with id `id`: the
    /// box the traversals gate on, traced at build time or by the delta
    /// that last changed the cell.
    pub fn cell_box(&self, id: u32) -> Rect {
        self.cell(self.site_of(id))
    }

    /// Site `s`'s cell box ([`Rect::EMPTY`] for a tombstone).
    #[inline]
    // ssq-analyze: deny-alloc
    fn cell(&self, site: u32) -> Rect {
        self.cells[site]
    }

    /// The walk's cell gate: "does the box of `site`'s Voronoi cell meet
    /// `r`?" — four f64 comparisons. The box contains the cell, so this
    /// never says no where the cell meets `r`; where it says yes and the
    /// cell does not, the traversal enqueues a site it then discards (see
    /// [`vs2`](mod@crate::vs2), "The cell gate"). A tombstone's
    /// [`Rect::EMPTY`] meets nothing.
    #[inline]
    pub(crate) fn cell_meets_rect(&self, site: u32, r: &Rect) -> bool {
        self.cell(site).intersects(r)
    }

    /// The share of chunks — per-site neighbour lists and cells, and the
    /// triangulation's triangle slots — this index holds by pointer from
    /// `prev`, as `(shared, total)`: for a delta-built index and its
    /// predecessor, what the delta did not copy.
    pub fn chunks_shared_with(&self, prev: &VoronoiIndex) -> (usize, usize) {
        let (adj, prev_adj) = (self.graph.rows(), prev.graph.rows());
        let (tri, prev_tri) = (self.graph.triangulation(), prev.graph.triangulation());
        (
            adj.shared_chunks(prev_adj)
                + self.cells.shared_chunks(&prev.cells)
                + tri.shared_chunks(prev_tri),
            adj.chunk_count() + self.cells.chunk_count() + tri.chunk_count(),
        )
    }

    /// The id of the nearest data point to `q`: a greedy Delaunay walk
    /// seeded by the start directory (a binary search over the curve keys
    /// of every 8th site, then usually two or three hops). `_hint` is
    /// ignored: the directory picks every seed.
    ///
    /// The walk — not the seed — is what guarantees exactness (greedy
    /// routing on a Delaunay graph provably reaches the nearest
    /// neighbour), which is why a delta only moves the directory entries
    /// that landed on tombstones: any live site is a correct seed.
    pub fn nearest(&self, q: Point, _hint: u32) -> u32 {
        self.id_of(self.nearest_site_with(q, |_| ()))
    }

    /// [`VoronoiIndex::nearest`] in site space with the caller's page
    /// accounting: `visit(s)` is called for every site whose adjacency
    /// list the walk reads. A directory left with no entry (every one
    /// dropped by deltas) seeds the walk at the site of id 0, so every
    /// walk starts live.
    // ssq-analyze: deny-alloc
    pub(crate) fn nearest_site_with(&self, q: Point, visit: impl FnMut(u32)) -> u32 {
        let start = self
            .directory
            .seed(q, self.graph.points())
            .unwrap_or_else(|| self.id_to_site[0]);
        self.graph.greedy_nearest_with(q, start, visit)
    }

    /// Writes the ids of every point nearest to `q` — each whose
    /// `distance_sq` to `q` compares equal to the minimum — into `out`,
    /// ascending: the spatial skyline of the lone anchor `q` (Lemma 1),
    /// located in the Voronoi diagram this index stores. Empty for an
    /// empty index; allocation-free once `out` holds the ties.
    ///
    /// The walk finds one nearest site. Exact ties lie on the empty circle
    /// about `q` through it, so they bound one Delaunay face and are
    /// connected to it; the search expands from the walk's answer through
    /// neighbours within a few ulps of the minimum, which also reaches a
    /// tie whose path runs through a site that rounded the other way.
    // ssq-analyze: deny-alloc
    pub fn nearest_ties(&self, q: Point, out: &mut Vec<u32>) {
        out.clear();
        if self.is_empty() {
            return;
        }
        let points = self.graph.points();
        let first = self.nearest_site_with(q, |_| ());
        let mut best = points[first as usize].distance_sq(q);
        out.push(first);
        let mut next = 0;
        while let Some(&s) = out.get(next) {
            next += 1;
            for &t in self.graph.neighbors(s) {
                let d = points[t as usize].distance_sq(q);
                if d <= best + best * TIE_BAND && !out.contains(&t) {
                    best = best.min(d);
                    out.push(t);
                }
            }
        }
        out.retain(|&s| points[s as usize].distance_sq(q) == best);
        for s in out.iter_mut() {
            *s = self.site_to_id[*s as usize];
        }
        out.sort_unstable();
    }

    /// The adjacency page holding `site`'s neighbour list. A traversal
    /// counts the distinct pages it reads in its own per-query page set
    /// ([`DistanceScratch::touch_page`](crate::DistanceScratch::touch_page));
    /// the index itself keeps no counters.
    #[inline]
    pub(crate) fn page_of(&self, site: u32) -> u32 {
        self.pages.page_of(site)
    }

    /// Total number of adjacency pages.
    pub fn page_count(&self) -> usize {
        self.pages.page_count() as usize
    }

    /// Applies a validated, normalized [`UpdateBatch`], producing the
    /// next generation's index.
    ///
    /// The incremental path moves no site and shares everything the batch
    /// did not change with `self`. Its cost, besides the local repairs:
    ///
    /// * one clone of the triangulation — its flat point list plus one
    ///   pointer per chunk of triangle slots — repaired in place: removals
    ///   in site order by cavity retriangulation, each leaving a
    ///   tombstone, then the Hilbert-ordered inserts appended as new
    ///   sites, under the ids [`UpdateBatch::id_plan`] gives them; the
    ///   repairs copy only the slot chunks they write;
    /// * one flat `O(n)` copy of each id map, patched only at the batch's
    ///   ids: surviving points keep theirs;
    /// * the written chunks: a neighbour list is re-read off its star and
    ///   a Voronoi cell traced from it, to store its box, for each site a
    ///   repair reported,
    ///   plus — only when the live points' MBR, and with it the clip box,
    ///   moved — every cell not strictly inside both generations' boxes;
    ///   every chunk holding neither is shared;
    /// * one pass over the start directory's `|P| / 8` entries, moving
    ///   those on tombstones to a live neighbour; inserts get no entry of
    ///   their own — the walk reaches them from their neighbours' — and an
    ///   appended site is accounted to its nearest neighbour's page.
    ///
    /// Two steps of the incremental path run on the publish helper thread
    /// ([`join`]): the id maps and the directory pass beside the
    /// triangulation repair, and the second half of the dirty cell boxes
    /// beside the first. The boxes are written in one order whichever
    /// thread traced them, so the chunks a delta copies do not depend on
    /// the split. A panic on the helper falls back to the full rebuild.
    ///
    /// Falls back to a full rebuild — the same points under the same ids,
    /// laid out along the curve afresh, at higher cost — when tombstones
    /// plus sites appended since the last full build, this batch's
    /// included, exceed `1/8` of the points (which bounds both the garbage
    /// and the layout's decay, and covers a batch that large on its own),
    /// when the triangulation is degenerate, or when a local repair cannot
    /// express the operation (reported via [`DeltaStats::incremental`]). A
    /// delta-built index and a rebuilt one answer every id-level question
    /// alike but differ in site order.
    pub fn apply_delta(
        &self,
        batch: &UpdateBatch,
    ) -> Result<(VoronoiIndex, DeltaStats), ssq_delaunay::BuildError> {
        debug_assert!(batch.is_normalized());
        let stats = DeltaStats {
            inserts: batch.inserts.len(),
            deletes: batch.deletes.len(),
            incremental: false,
            dirty_cells: 0,
        };
        let decay = self.decay + batch.op_count();
        if decay * DELTA_REBUILD_DENOM > self.len() || self.graph.triangulation().is_degenerate() {
            return self.delta_full_rebuild(batch, stats);
        }
        match self.delta_incremental(batch, decay) {
            Ok((idx, dirty_cells)) => Ok((
                idx,
                DeltaStats {
                    incremental: true,
                    dirty_cells,
                    ..stats
                },
            )),
            // Local repair refused (shrinking to a degenerate set, stale
            // geometry, coincident insert): rebuild from the point set.
            Err(_) => self.delta_full_rebuild(batch, stats),
        }
    }

    /// Rebuilds over the next generation's points in id order
    /// ([`UpdateBatch::id_plan`]), which re-sorts the sites.
    fn delta_full_rebuild(
        &self,
        batch: &UpdateBatch,
        stats: DeltaStats,
    ) -> Result<(VoronoiIndex, DeltaStats), ssq_delaunay::BuildError> {
        let mut pts: Vec<Point> = (0..self.len() as u32).map(|id| self.point(id)).collect();
        let inserts = batch.inserts.iter().copied();
        batch.id_plan(self.len()).patch(&mut pts, inserts);
        let idx = VoronoiIndex::with_page_size(&pts, self.pages.per_page())?;
        Ok((idx, stats))
    }

    fn delta_incremental(
        &self,
        batch: &UpdateBatch,
        decay: usize,
    ) -> Result<(VoronoiIndex, usize), DeltaError> {
        let mut victims: Vec<u32> = batch.deletes.iter().map(|&d| self.site_of(d)).collect();
        victims.sort_unstable();
        let first = self.site_bound() as u32;
        // Steps 1 and 2 read only `self`, the batch and the victims: the id
        // maps and the start directory are built on the publish helper
        // while this thread repairs the triangulation.
        let (maps, repaired) = join(
            || {
                // 2. Id maps, patched by the batch's id plan: insert `k` is
                //    at site `first + k`, and a moved point keeps its site.
                //    Directory entries on a victim move to a live neighbour.
                let plan = batch.id_plan(self.len());
                let mut id_to_site = self.id_to_site.clone();
                plan.patch(&mut id_to_site, first..);
                let mut site_to_id = [&self.site_to_id[..], &plan.inserted].concat();
                for &s in &victims {
                    site_to_id[s as usize] = u32::MAX;
                }
                for &(from, to) in &plan.moves {
                    site_to_id[self.site_of(from) as usize] = to;
                }
                let directory = self.directory.moved_off(&site_to_id, &self.graph);
                (id_to_site, site_to_id, directory)
            },
            || {
                // 1. Repair a copy of the triangulation: removals in site
                //    order — the curve order, so each locate walk starts
                //    where the previous op ended — then the already
                //    Hilbert-ordered inserts, appended as sites `first..`.
                //    Keep each touched site's latest report, ascending.
                let mut tri = self.graph.triangulation().clone();
                let mut touched = Vec::new();
                for &s in &victims {
                    tri.remove_point(s, &mut touched)?;
                }
                for &p in &batch.inserts {
                    tri.insert_point(p, &mut touched)?;
                }
                touched.reverse();
                touched.sort_by_key(|t| t.vertex);
                touched.dedup_by_key(|t| t.vertex);
                Ok((tri, touched))
            },
        );
        let (tri, touched) = repaired?;
        let (id_to_site, site_to_id, directory) = maps.map_err(|_| DeltaError::NeedsRebuild)?;

        // 3. Adjacency over the live points' MBR (tombstones keep stale
        //    coordinates, which must not count). Inserts only grow it. A
        //    delete on one of its sides shrinks it unless a live neighbour
        //    holds that side — collinear points along a side of the hull
        //    are joined by hull edges, so the next one is a neighbour —
        //    and then it is recomputed over the live points.
        let old_bounds = self.graph.bounds();
        let on_side = |p: Point, side: usize| match side {
            0 => p.x == old_bounds.min.x,
            1 => p.y == old_bounds.min.y,
            2 => p.x == old_bounds.max.x,
            _ => p.y == old_bounds.max.y,
        };
        let live = |s: u32| site_to_id[s as usize] != u32::MAX;
        let shrinks = victims.iter().any(|&s| {
            (0..4).any(|side| {
                on_side(self.graph.point(s), side)
                    && !self
                        .graph
                        .neighbors(s)
                        .iter()
                        .any(|&u| live(u) && on_side(self.graph.point(u), side))
            })
        });
        let bounds = if shrinks {
            let points = tri.points().iter().zip(&site_to_id);
            Rect::bounding(points.filter(|(_, &id)| id != u32::MAX).map(|(&p, _)| p))
        } else {
            let mut grown = old_bounds;
            batch.inserts.iter().for_each(|&p| grown.expand_to(p));
            grown
        };
        let graph = self.graph.patched(tri, &touched, bounds);
        let tri = graph.triangulation();

        // 4. Cell boxes: a touched site's cell is traced from its star, and —
        //    when the clip box moved — every live cell the box may bind,
        //    i.e. not strictly inside both generations' boxes (one strictly
        //    inside both is the true cell in each), is rebuilt from its
        //    neighbours. Any other cell kept its neighbours and its box,
        //    hence its polygon.
        let (clip, old_clip) = (graph.default_clip(), self.graph.default_clip());
        let mut dirty: Vec<(u32, Option<u32>)> =
            touched.iter().map(|t| (t.vertex, t.star)).collect();
        if clip != old_clip {
            dirty.extend((0..first).filter_map(|s| {
                let mbr = self.cell(s);
                let bound = !(strictly_inside(&mbr, &old_clip) && strictly_inside(&mbr, &clip));
                (bound && site_to_id[s as usize] != u32::MAX).then_some((s, None))
            }));
            // A touched site's entry, which names a star, sorts first.
            dirty.sort_unstable_by_key(|&(s, star)| (s, star.is_none()));
            dirty.dedup_by_key(|d| d.0);
        }
        let tracer = CellTracer::new(tri, &clip);
        let trace = |&(s, star): &(u32, Option<u32>)| {
            if site_to_id[s as usize] == u32::MAX {
                Rect::EMPTY
            } else {
                let traced = star.and_then(|t| tracer.as_ref()?.cell(s, t));
                traced.unwrap_or_else(|| graph.voronoi_cell(s, &clip)).mbr()
            }
        };
        // The publish helper traces the second half of the boxes; both
        // halves are written in `dirty` order, so a delta copies the same
        // chunks whichever thread traced a box.
        let (mine, theirs) = dirty.split_at(dirty.len() / 2);
        let (traced, mut cells) = join(
            || theirs.iter().map(trace).collect::<Vec<Rect>>(),
            || {
                let mut cells = self.cells.clone();
                for _ in first..graph.len() as u32 {
                    cells.push(Rect::EMPTY);
                }
                for d in mine {
                    *cells.get_mut(d.0) = trace(d);
                }
                cells
            },
        );
        let traced = traced.map_err(|_| DeltaError::NeedsRebuild)?;
        for (&(s, _), mbr) in theirs.iter().zip(traced) {
            *cells.get_mut(s) = mbr;
        }
        let dirty_cells = dirty.len() - victims.len();

        // 5. Pages: an appended site is accounted to the page of its
        //    nearest neighbour already placed (any site before it) — the
        //    page a file organized by Hilbert value would insert it into —
        //    or, with none, to the last page.
        let mut pages = self.pages.clone();
        for s in first..graph.len() as u32 {
            let p = graph.point(s);
            let nearest = graph
                .neighbors(s)
                .iter()
                .copied()
                .filter(|&u| u < s)
                .min_by(|&a, &b| {
                    graph
                        .point(a)
                        .distance_sq(p)
                        .total_cmp(&graph.point(b).distance_sq(p))
                });
            let last = pages.page_count().saturating_sub(1);
            pages.append(nearest.map_or(last, |u| pages.page_of(u)));
        }

        Ok((
            VoronoiIndex {
                pages,
                directory,
                graph,
                cells,
                site_to_id,
                id_to_site,
                decay,
            },
            dirty_cells,
        ))
    }
}

/// `true` when `r` lies strictly inside `clip` (no shared boundary).
fn strictly_inside(r: &Rect, clip: &Rect) -> bool {
    r.min.x > clip.min.x && r.min.y > clip.min.y && r.max.x < clip.max.x && r.max.y < clip.max.y
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts() -> Vec<Point> {
        let mut v = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                v.push(Point::new(i as f64, j as f64 + 0.1 * i as f64));
            }
        }
        v
    }

    #[test]
    fn rtree_index_roundtrip() {
        let points = pts();
        let idx = RTreeIndex::new(&points);
        assert_eq!(idx.len(), 100);
        assert_eq!(idx.point(7), points[7]);
        assert!(idx.universe().contains(points[50]));
    }

    #[test]
    fn voronoi_index_neighbors_and_cells() {
        let points = pts();
        let idx = VoronoiIndex::new(&points).unwrap();
        assert_eq!(idx.len(), 100);
        assert_eq!(idx.point(7), points[7]);
        let s = idx.site_of(0);
        assert!(!idx.graph().neighbors(s).is_empty());
        assert!((idx.page_of(s) as usize) < idx.page_count());
        let cell = idx.voronoi_cell(0);
        assert!(cell.contains(idx.point(0)));
    }

    /// `inner` lies inside `outer` up to `slack`.
    fn box_contains(outer: &Rect, inner: &Rect, slack: f64) -> bool {
        outer.min.x - slack <= inner.min.x
            && outer.min.y - slack <= inner.min.y
            && inner.max.x <= outer.max.x + slack
            && inner.max.y <= outer.max.y + slack
    }

    #[test]
    fn the_box_gate_never_misses_a_cell_that_meets_the_probe() {
        let (mut extra, mut meets) = (0, 0);
        for points in [pts(), pseudorandom(400, 9)] {
            let idx = VoronoiIndex::new(&points).unwrap();
            let clip = idx.graph().default_clip();
            let slack = 1e-9 * clip.width().max(clip.height());
            let mut probes = vec![
                Rect::from_corners(Point::new(2.2, 2.2), Point::new(2.4, 2.6)),
                Rect::from_corners(Point::new(0.0, 0.0), Point::new(9.0, 10.0)),
                Rect::from_corners(Point::new(40.0, 40.0), Point::new(41.0, 41.0)),
                Rect::from_point(Point::new(5.0, 5.5)),
            ];
            probes.extend(
                pseudorandom(40, 21)
                    .into_iter()
                    .map(|p| Rect::from_corners(p, Point::new(p.x + 3.0, p.y + 1.5))),
            );
            for i in 0..idx.len() as u32 {
                let (cell, stored) = (idx.voronoi_cell(i), idx.cell_box(i));
                assert!(box_contains(&stored, &cell.mbr(), slack), "cell {i}");
                for (k, probe) in probes.iter().enumerate() {
                    let exact = cell.intersects_rect(probe);
                    let gate = idx.cell_meets_rect(idx.site_of(i), probe);
                    assert!(gate || !exact, "probe {k} misses cell {i}");
                    meets += usize::from(exact);
                    extra += usize::from(gate && !exact);
                }
            }
        }
        // The probes reach cells and, past a cell's corner, boxes alone.
        assert!(meets > 0 && extra > 0, "{meets} meets, {extra} extra");
    }

    fn pseudorandom(n: usize, seed: u64) -> Vec<Point> {
        let mut s = seed.max(1);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| Point::new(next() * 100.0, next() * 100.0))
            .collect()
    }

    fn make_batch(pts: &[Point], n_del: usize, n_ins: usize, seed: u64) -> UpdateBatch {
        let mut s = seed.max(1);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut deletes: Vec<u32> = Vec::new();
        while deletes.len() < n_del {
            let d = (next() % pts.len() as u64) as u32;
            if !deletes.contains(&d) {
                deletes.push(d);
            }
        }
        let inserts = pseudorandom(n_ins, seed ^ 0xabcdef);
        let mut batch = UpdateBatch { inserts, deletes };
        batch.validate(pts.len()).unwrap();
        batch.normalize(&Rect::bounding(pts.iter().copied()));
        batch
    }

    /// `pts` after the normalized `batch`: inserts refill the deleted
    /// ids in order, the rest append, surplus holes close by
    /// `swap_remove` from the top.
    fn expected_points(pts: &[Point], batch: &UpdateBatch) -> Vec<Point> {
        let mut out = pts.to_vec();
        let mut inserts = batch.inserts.iter().copied();
        let mut holes = Vec::new();
        for &d in &batch.deletes {
            match inserts.next() {
                Some(p) => out[d as usize] = p,
                None => holes.push(d),
            }
        }
        out.extend(inserts);
        for &h in holes.iter().rev() {
            out.swap_remove(h as usize);
        }
        out
    }

    /// The two id maps are inverse on the live sites, every other site is
    /// a tombstone with no neighbours and no cell, and `point(id)` is
    /// `points[id]`.
    fn assert_maps(idx: &VoronoiIndex, points: &[Point]) {
        assert_eq!(idx.len(), points.len());
        for (id, &p) in (0u32..).zip(points) {
            assert_eq!(idx.id_of(idx.site_of(id)), id);
            assert_eq!(idx.point(id), p, "point {id}");
        }
        let tombstones = (0..idx.site_bound() as u32).filter(|&s| idx.id_of(s) == u32::MAX);
        for s in tombstones {
            assert!(
                idx.graph().neighbors(s).is_empty(),
                "tombstone {s} has neighbours"
            );
            assert_eq!(idx.cell(s), Rect::EMPTY, "tombstone {s} has a cell");
        }
        assert!(
            idx.site_bound() - idx.len() <= idx.decay,
            "tombstones count as decay"
        );
    }

    /// A delta-built index and a rebuild differ in site order, so they are
    /// compared through ids: points, neighbour sets, cells, stored cell
    /// boxes, `nearest`.
    fn assert_same_index(got: &VoronoiIndex, want: &VoronoiIndex) {
        let neighbor_ids = |idx: &VoronoiIndex, id: u32| {
            let mut ns: Vec<u32> = idx
                .graph()
                .neighbors(idx.site_of(id))
                .iter()
                .map(|&s| idx.id_of(s))
                .collect();
            ns.sort_unstable();
            ns
        };
        assert_eq!(got.len(), want.len());
        for i in 0..want.len() as u32 {
            assert_eq!(got.point(i), want.point(i), "point {i}");
            assert_eq!(
                neighbor_ids(got, i),
                neighbor_ids(want, i),
                "adjacency of {i}"
            );
            let (gc, wc) = (got.voronoi_cell(i), want.voronoi_cell(i));
            assert!(
                (gc.area() - wc.area()).abs() <= 1e-9 * wc.area().max(1.0),
                "cell {i} area {} vs {}",
                gc.area(),
                wc.area()
            );
            assert!(gc.contains(got.point(i)));
            let (gb, wb) = (got.cell_box(i), want.cell_box(i));
            let slack = 1e-9 * wb.width().max(wb.height()).max(1.0);
            assert!(
                box_contains(&gb, &wb, slack) && box_contains(&wb, &gb, slack),
                "cell {i} box {gb:?} vs {wb:?}"
            );
        }
        for q in pseudorandom(40, 999) {
            assert_eq!(got.nearest(q, 0), want.nearest(q, 0), "nearest to {q:?}");
        }
    }

    #[test]
    fn rtree_apply_delta_matches_fresh_bulk_load() {
        let pts = pseudorandom(400, 11);
        let idx = RTreeIndex::new(&pts);
        // Net shrinking (surplus holes move top ids), net growing.
        for (n_del, n_ins) in [(30, 25), (25, 30)] {
            let batch = make_batch(&pts, n_del, n_ins, 17);
            let got = idx.apply_delta(&batch);
            let want = RTreeIndex::new(&expected_points(&pts, &batch));
            assert_eq!(got.points(), want.points());
            got.tree().check_invariants();
            for probe in pseudorandom(30, 5) {
                let r = Rect::from_corners(probe, Point::new(probe.x + 9.0, probe.y + 9.0));
                let mut a = got.tree().query_rect(&r);
                let mut b = want.tree().query_rect(&r);
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn voronoi_apply_delta_incremental_matches_full_rebuild() {
        let pts = pseudorandom(600, 3);
        let idx = VoronoiIndex::new(&pts).unwrap();
        for (n_del, n_ins) in [(25, 30), (30, 25)] {
            let batch = make_batch(&pts, n_del, n_ins, 7);
            let (got, stats) = idx.apply_delta(&batch).unwrap();
            assert!(stats.incremental, "small batch must take the delta path");
            assert!(stats.dirty_cells < got.len(), "most cells carried over");
            let expect = expected_points(&pts, &batch);
            assert_maps(&got, &expect);
            // Every surviving point keeps its site; insert `k` is appended
            // as site `site_bound + k`; the deleted points' sites are
            // tombstones.
            for (id, &p) in (0u32..).zip(&expect) {
                let site = got.site_of(id);
                match pts.iter().position(|&q| q == p) {
                    Some(old) => assert_eq!(site, idx.site_of(old as u32), "id {id}"),
                    None => {
                        let k = batch.inserts.iter().position(|&q| q == p).unwrap();
                        assert_eq!(site, (idx.site_bound() + k) as u32, "id {id}");
                    }
                }
            }
            for &d in &batch.deletes {
                assert_eq!(got.id_of(idx.site_of(d)), u32::MAX);
            }
            assert_same_index(&got, &VoronoiIndex::new(&expect).unwrap());
        }
    }

    #[test]
    fn voronoi_apply_delta_oversized_batch_rebuilds() {
        let pts = pseudorandom(100, 29);
        let idx = VoronoiIndex::new(&pts).unwrap();
        let batch = make_batch(&pts, 40, 10, 31);
        let (got, stats) = idx.apply_delta(&batch).unwrap();
        assert!(!stats.incremental);
        let expect = expected_points(&pts, &batch);
        assert_maps(&got, &expect);
        assert_same_index(&got, &VoronoiIndex::new(&expect).unwrap());
    }

    /// `nearest(q, 0)` sits at the brute-force minimum distance.
    fn assert_nearest_exact(idx: &VoronoiIndex, points: &[Point], probes: &[Point]) {
        for &q in probes {
            let best = points
                .iter()
                .map(|p| p.distance_sq(q))
                .fold(f64::INFINITY, f64::min);
            let got = idx.point(idx.nearest(q, 0)).distance_sq(q);
            assert_eq!(got, best, "nearest to {q:?}");
        }
    }

    #[test]
    fn chained_deltas_stay_exact() {
        // Twelve generations on one index. Every batch deletes the points
        // of two directory entries, so incremental deltas must move those
        // entries to live neighbours; round 6's batch alone exceeds 1/8 of
        // the index. Which rounds rebuild is re-derived from the rule:
        // tombstones plus appended sites since the last full build, this
        // batch's included, past 1/8 of the points. After each generation
        // `nearest` must reach the brute-force minimum at fixed probes
        // (two outside the MBR), at every deleted entry's point so far and
        // at the fresh inserts.
        let mut pts = pseudorandom(300, 41);
        let mut idx = VoronoiIndex::new(&pts).unwrap();
        let mut probes = pseudorandom(40, 77);
        probes.extend([Point::new(-50.0, 20.0), Point::new(180.0, 240.0)]);
        let (mut decay, mut rebuilds) = (0, 0);
        for round in 0..12 {
            let (n_del, n_ins) = if round == 6 { (25, 20) } else { (6, 8) };
            let mut batch = make_batch(&pts, n_del, n_ins, 1000 + round as u64);
            let dir = &idx.directory;
            for &s in dir.sites.iter().skip(round).step_by(9).take(2) {
                batch.deletes.push(idx.id_of(s));
                probes.push(idx.graph.point(s));
            }
            batch.normalize(&Rect::bounding(pts.iter().copied()));
            let entries = dir.sites.len();
            let rebuild = (decay + batch.op_count()) * DELTA_REBUILD_DENOM > pts.len();
            decay = if rebuild { 0 } else { decay + batch.op_count() };
            rebuilds += usize::from(rebuild);
            pts = expected_points(&pts, &batch);
            let (next, stats) = idx.apply_delta(&batch).unwrap();
            assert_eq!(stats.incremental, !rebuild, "round {round}");
            idx = next;
            assert_eq!(idx.decay, decay, "round {round}");
            assert_maps(&idx, &pts);
            let dir = &idx.directory;
            assert!(dir.keys.windows(2).all(|w| w[0] <= w[1]));
            assert!(
                dir.sites.iter().all(|&s| idx.id_of(s) != u32::MAX),
                "a dead seed"
            );
            if !rebuild {
                assert_eq!(dir.sites.len(), entries, "an entry was dropped");
            }
            assert_nearest_exact(&idx, &pts, &probes);
            assert_nearest_exact(&idx, &pts, &batch.inserts);
        }
        assert!((2..12).contains(&rebuilds), "{rebuilds} rebuilds");
        let want = VoronoiIndex::new(&pts).unwrap();
        assert_same_index(&idx, &want);
    }

    #[test]
    fn an_entry_whose_neighbourhood_is_deleted_is_dropped() {
        // One incremental batch deletes a directory entry's site and every
        // Delaunay neighbour of it: the entry has no live site to move to,
        // so it must go, or a probe at the deleted point would seed its
        // walk on a tombstone.
        let pts = pseudorandom(400, 53);
        let idx = VoronoiIndex::new(&pts).unwrap();
        let dir = &idx.directory;
        let at = (0..dir.sites.len())
            .find(|&j| {
                let around = idx.graph.neighbors(dir.sites[j]);
                around.len() == 6 && around.iter().all(|u| !dir.sites.contains(u))
            })
            .expect("an entry of degree 6 with no entry beside it");
        let site = dir.sites[at];
        let mut batch = UpdateBatch {
            inserts: Vec::new(),
            deletes: [site]
                .iter()
                .chain(idx.graph.neighbors(site))
                .map(|&s| idx.id_of(s))
                .collect(),
        };
        batch.normalize(&Rect::bounding(pts.iter().copied()));
        let (next, stats) = idx.apply_delta(&batch).unwrap();
        assert!(stats.incremental && batch.op_count() == 7);
        let moved = &next.directory;
        assert_eq!(moved.sites.len(), dir.sites.len() - 1);
        assert!(!moved.keys.contains(&dir.keys[at]), "the entry was kept");
        assert!(
            moved.sites.iter().all(|&s| next.id_of(s) != u32::MAX),
            "a dead seed"
        );
        let expect = expected_points(&pts, &batch);
        let mut probes = pseudorandom(30, 55);
        probes.extend(batch.deletes.iter().map(|&id| pts[id as usize]));
        assert_nearest_exact(&next, &expect, &probes);
        let mut ties = Vec::new();
        for &q in &probes {
            next.nearest_ties(q, &mut ties);
            assert_eq!(ties, brute_ties(&expect, q));
        }
    }

    /// Every id at the minimum `distance_sq` to `q`, ascending.
    fn brute_ties(points: &[Point], q: Point) -> Vec<u32> {
        let best = points
            .iter()
            .map(|p| p.distance_sq(q))
            .fold(f64::INFINITY, f64::min);
        (0u32..)
            .zip(points)
            .filter(|(_, p)| p.distance_sq(q) == best)
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn nearest_ties_match_a_brute_force_scan_on_tie_hostile_inputs() {
        let p = Point::new;
        let square = vec![p(0.0, 0.0), p(2.0, 0.0), p(0.0, 2.0), p(2.0, 2.0)];
        // Eight lattice points at squared distance exactly 25 from
        // (10, 10), framed by points farther out.
        let mut ring = Vec::new();
        for (dx, dy) in [(3.0, 4.0), (4.0, 3.0)] {
            for (sx, sy) in [(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)] {
                ring.push(p(10.0 + sx * dx, 10.0 + sy * dy));
            }
        }
        ring.extend([
            p(0.0, 0.0),
            p(20.0, 0.0),
            p(0.0, 20.0),
            p(20.0, 20.0),
            p(10.0, -2.0),
            p(-2.0, 10.0),
        ]);
        let lattice: Vec<Point> = (0..144)
            .map(|k| p((k % 12) as f64, (k / 12) as f64))
            .collect();
        let collinear: Vec<Point> = (0..20).map(|i| p(i as f64, 0.5 * i as f64)).collect();
        let datasets = [
            square,
            ring,
            lattice,
            collinear,
            vec![p(3.0, 7.0)],
            vec![p(1.0, 1.0), p(4.0, 5.0)],
            pseudorandom(200, 5),
        ];
        let mut palette = vec![
            p(1.0, 1.0),   // the square's centre: 4 ties
            p(10.0, 10.0), // the ring's centre: 8 ties
            p(2.5, 3.0),   // equidistant from the pair
            p(1.5, 0.75),  // between two collinear points, on the line
            p(1.0, 1.75),  // between the same two, off the line
            p(-1e3, 50.0),
            p(1e4, 1e4),
            p(50.0, -1e5),
        ];
        // Lattice cell centres (4 ties) and edge midpoints (2 ties).
        for k in 0..11 * 11 {
            let (x, y) = ((k % 11) as f64, (k / 11) as f64);
            palette.extend([p(x + 0.5, y + 0.5), p(x + 0.5, y)]);
        }
        palette.extend(pseudorandom(30, 6));
        let mut ties = Vec::new();
        for points in &datasets {
            let probes: Vec<Point> = palette.iter().chain(points).copied().collect();
            let idx = VoronoiIndex::new(points).unwrap();
            for &q in &probes {
                idx.nearest_ties(q, &mut ties);
                assert_eq!(
                    ties,
                    brute_ties(points, q),
                    "{} points, q {q:?}",
                    points.len()
                );
            }
        }
        VoronoiIndex::new(&[])
            .unwrap()
            .nearest_ties(p(0.0, 0.0), &mut ties);
        assert!(ties.is_empty());
    }

    #[test]
    fn voronoi_index_nearest() {
        let points = pts();
        let idx = VoronoiIndex::new(&points).unwrap();
        let nn = idx.nearest(Point::new(5.05, 5.55), 0);
        let brute = (0..100u32)
            .min_by(|&a, &b| {
                idx.point(a)
                    .distance_sq(Point::new(5.05, 5.55))
                    .total_cmp(&idx.point(b).distance_sq(Point::new(5.05, 5.55)))
            })
            .unwrap();
        assert_eq!(nn, brute);
    }
}
