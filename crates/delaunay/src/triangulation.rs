//! Incremental Delaunay triangulation (Bowyer–Watson with a ghost vertex).
//!
//! # Design
//!
//! The triangulation is built by inserting points one at a time: locate the
//! triangle whose circumdisk contains the new point (a *visibility walk*,
//! which always terminates on a Delaunay triangulation), grow the *cavity*
//! of all triangles whose circumdisks contain the point, delete it and
//! re-triangulate its boundary as a fan around the new point.
//!
//! Instead of the classic "super-triangle" (whose finite coordinates make
//! hull handling subtly wrong for skinny boundary triangles), the region
//! outside the convex hull is covered by **ghost triangles**: for every CCW
//! hull edge `a → b` there is a triangle `(b, a, GHOST)` with a symbolic
//! vertex at infinity. The in-circumdisk test for a ghost triangle
//! degenerates to an orientation test, so the exact predicates of
//! `ssq-geom` keep the whole structure exact for any finite `f64` input.
//!
//! Points are inserted in Hilbert-curve order, which keeps the locate walks
//! short and makes construction effectively linear time in practice.
//! [`Triangulation::curve_order`] computes that order and finds duplicate
//! points inside its runs of equal keys; [`Triangulation::from_curve_order`]
//! builds over points a caller already laid out along it, without sorting
//! again. Insertions and removals keep their working sets — the cavity and
//! its boundary, a removal's ring and ear plan, the edges waiting to be
//! stitched — in one [`EditScratch`] that a build, or a batch of edits,
//! passes to each, so once its buffers have grown no edit allocates them.
//!
//! # Edits keep slots
//!
//! After construction the triangulation can be edited one point at a time
//! ([`Triangulation::insert_point`], [`Triangulation::remove_point`]).
//! Vertex ids never move: a removed vertex stays in its slot as a
//! *tombstone* — its stale coordinates kept, no triangle referring to it —
//! and an inserted point is appended. Dead triangle slots go on a free
//! list that the next allocation reuses, so the arena holds exactly the
//! live triangles (`2·v − 2` over `v` live vertices, ghosts included) plus
//! whatever a removal just freed. Each edit reports the vertices whose
//! star it changed ([`Touched`]), which is how a caller keeping per-vertex
//! data learns what to rewrite without comparing every vertex.
//!
//! # Clones share triangle chunks
//!
//! A built triangulation keeps its triangle slots in a [`CowChunks`]:
//! `Arc`-shared chunks of [`CHUNK`](crate::rows::CHUNK) slots. Cloning
//! copies the vertex coordinates (one flat `Vec`, read on every query
//! path) and one pointer per chunk; an edit copies a chunk only when it
//! writes one the original still holds. Reads never write — the locate
//! walk takes `&self`, and the cavity stamps are set only on triangles
//! the edit replaces — so an edited clone shares every chunk its edits
//! did not touch ([`Triangulation::shared_chunks`]). A build allocates
//! every chunk it will fill up front (it ends with exactly `2n − 2`
//! slots) and borrows each one `&mut` once (`rows::BuildChunks`), so its
//! inner loop pays no copy-on-write check: through `Arc::make_mut` on
//! every write, the same build measured ≈ 45 % slower.

use ssq_geom::predicates::{incircle_sign, orient2d_sign};
use ssq_geom::{Point, Rect};

use crate::hilbert;
use crate::rows::{Arena, CowChunks};

/// The symbolic vertex at infinity used by ghost triangles.
pub const GHOST: u32 = u32::MAX;

/// Errors reported by [`Triangulation::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// Two input points are exactly identical; the Delaunay diagram of a
    /// multiset is ill-defined. The payload carries the two input indices.
    DuplicatePoint(usize, usize),
    /// A coordinate was NaN or infinite.
    NonFiniteCoordinate(usize),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::DuplicatePoint(i, j) => {
                write!(f, "input points {i} and {j} are identical")
            }
            BuildError::NonFiniteCoordinate(i) => {
                write!(f, "input point {i} has a NaN/infinite coordinate")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Errors reported by the incremental maintenance entry points
/// ([`Triangulation::insert_point`] / [`Triangulation::remove_point`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaError {
    /// The inserted point exactly coincides with an existing vertex.
    Duplicate,
    /// The inserted point has a NaN/infinite coordinate.
    NonFinite,
    /// The operation cannot be applied incrementally (degenerate input or
    /// a hole with no valid retriangulation); the caller must rebuild from
    /// scratch. The triangulation is left unchanged.
    NeedsRebuild,
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::Duplicate => write!(f, "point duplicates an existing vertex"),
            DeltaError::NonFinite => write!(f, "point has a NaN/infinite coordinate"),
            DeltaError::NeedsRebuild => write!(f, "delta not applicable; full rebuild required"),
        }
    }
}

impl std::error::Error for DeltaError {}

/// A vertex whose star an edit changed: the ring of a removed vertex, the
/// cavity boundary of an inserted one, the inserted vertex itself — and
/// the removed vertex, whose star became empty.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Touched {
    /// The vertex.
    pub vertex: u32,
    /// One live triangle of its new star (possibly a ghost), from which
    /// [`Triangulation::star`] reads its neighbours; `None` for a removed
    /// vertex. The latest report of a vertex stays valid through later
    /// edits: an edit that frees a triangle reports every vertex it had.
    pub star: Option<u32>,
}

/// A triangle record: vertex indices (CCW for finite triangles; ghost
/// triangles keep `GHOST` in slot 2) and the neighbour opposite each
/// vertex. 28 bytes: a dead slot is marked by `GHOST` in slot 0, which
/// no live triangle holds.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Tri {
    v: [u32; 3],
    /// `nbr[i]` is the triangle sharing the edge opposite `v[i]`;
    /// `u32::MAX` means "none" (only during construction).
    nbr: [u32; 3],
    /// Cavity-search stamp (epoch marking instead of clearing a bitmap).
    stamp: u32,
}

impl Tri {
    #[inline]
    fn alive(&self) -> bool {
        self.v[0] != GHOST
    }
}

const NO_TRI: u32 = u32::MAX;

/// What a build's chunks hold before it writes them.
const UNUSED: Tri = Tri {
    v: [GHOST; 3],
    nbr: [NO_TRI; 3],
    stamp: 0,
};

/// A directed cavity boundary edge `x → y` (the cavity, hence the new
/// point, on its left) and the triangle outside it, whose edge
/// `outside_edge` faces the cavity.
#[derive(Clone, Copy, Debug)]
struct Boundary {
    x: u32,
    y: u32,
    outside: u32,
    outside_edge: usize,
}

/// An edge of a new triangle waiting for its twin: undirected key,
/// triangle, and the edge's index there.
type Open = ((u32, u32), u32, usize);

/// The working buffers of the Bowyer–Watson edits. A build reuses one
/// across all its insertions; a batch of edits passes one to every
/// [`Triangulation::insert_point_with`] and
/// [`Triangulation::remove_point_with`] call, so once the buffers have
/// grown to the largest cavity or hole no edit allocates. Nothing in it
/// outlives an edit.
#[derive(Debug, Default)]
pub struct EditScratch {
    cavity: Vec<u32>,
    stack: Vec<u32>,
    boundary: Vec<Boundary>,
    /// Half-stitched edges, scanned linearly: a fan or a hole holds a
    /// handful at a time, and a hash map would cost more to build than
    /// the scan.
    open: Vec<Open>,
    ring: Vec<u32>,
    outs: Vec<(u32, usize)>,
    incident: Vec<u32>,
    hole: Vec<u32>,
    planned: Vec<[u32; 3]>,
    made: Vec<u32>,
}

/// A Delaunay triangulation of a set of distinct points.
///
/// For inputs whose points are all collinear (or fewer than 3 points) no
/// triangle exists; [`Triangulation::is_degenerate`] reports this and
/// [`Triangulation::triangles`] is empty. [`crate::DelaunayGraph`] handles
/// that case with a path graph, so SSQ algorithms never need to care.
///
/// A clone costs the vertex list plus one pointer per chunk of
/// [`CHUNK`](crate::rows::CHUNK) triangle slots; see the module docs.
#[derive(Clone, Debug)]
pub struct Triangulation {
    mesh: Mesh<CowChunks<Tri>>,
    /// True when the input was collinear/too small to triangulate.
    degenerate: bool,
}

/// The vertices and triangles of a triangulation, over arena `A`.
#[derive(Clone, Debug)]
struct Mesh<A> {
    points: Vec<Point>,
    tris: A,
    /// Dead slots of `tris`, reused last-freed first.
    free: Vec<u32>,
    /// Some alive triangle, used as the default walk start.
    seed: u32,
    epoch: u32,
}

impl<A> Mesh<A> {
    /// The same mesh over the arena `f` makes of this one's.
    fn map_tris<B>(self, f: impl FnOnce(A) -> B) -> Mesh<B> {
        Mesh {
            points: self.points,
            tris: f(self.tris),
            free: self.free,
            seed: self.seed,
            epoch: self.epoch,
        }
    }
}

impl Triangulation {
    /// Builds the Delaunay triangulation of `points`, inserting them along
    /// their curve order ([`Triangulation::curve_order`], which also
    /// rejects exact duplicates and non-finite coordinates).
    ///
    /// `O(n log n)` for the Hilbert sort plus effectively linear insertion.
    pub fn new(points: &[Point]) -> Result<Triangulation, BuildError> {
        let order = Self::curve_order(points)?;
        Ok(Self::build(points.to_vec(), order.iter().copied()))
    }

    /// Builds the Delaunay triangulation of `sites`, inserting them in the
    /// order given: for points already laid out along the curve — such as
    /// `points` gathered through [`Triangulation::curve_order`], which
    /// checked them — this is [`Triangulation::new`] without its sort.
    /// The sites must be finite and distinct; any order is correct, the
    /// curve's keeps the locate walks short.
    pub fn from_curve_order(sites: Vec<Point>) -> Triangulation {
        let n = sites.len() as u32;
        Self::build(sites, 0..n)
    }

    /// The indices of `points` along the Hilbert curve over their MBR,
    /// ties broken by index ([`hilbert::sort_keyed`]) — a build's insertion
    /// order — once every coordinate is finite and no two points are
    /// equal.
    ///
    /// Equal points have equal keys, so a duplicate lies inside one run of
    /// equal keys, and only those runs are sorted lexicographically. The
    /// error names what one lexicographic sort of all the points would
    /// find first: the least duplicated point's two lowest indices.
    pub fn curve_order(points: &[Point]) -> Result<Vec<u32>, BuildError> {
        if let Some(i) = points.iter().position(|p| !p.is_finite()) {
            return Err(BuildError::NonFiniteCoordinate(i));
        }
        let keyed = hilbert::sort_keyed(points, &Rect::bounding(points.iter().copied()));
        let pt = |i: u32| points[i as usize];
        let mut duplicate: Option<(u32, u32)> = None;
        let mut run = Vec::new();
        for group in keyed.chunk_by(|a, b| a.0 == b.0).filter(|g| g.len() > 1) {
            run.clear();
            run.extend(group.iter().map(|&(_, i)| i));
            // Stable: equal points stay in index order.
            run.sort_by(|&i, &j| pt(i).lex_cmp(&pt(j)));
            if let Some(w) = run.windows(2).find(|w| pt(w[0]) == pt(w[1])) {
                if duplicate.is_none_or(|(a, _)| pt(w[0]).lex_cmp(&pt(a)).is_lt()) {
                    duplicate = Some((w[0], w[1]));
                }
            }
        }
        if let Some((a, b)) = duplicate {
            return Err(BuildError::DuplicatePoint(a as usize, b as usize));
        }
        Ok(keyed.into_iter().map(|(_, i)| i).collect())
    }

    /// Triangulates `points`, inserting them in `order`.
    fn build(points: Vec<Point>, order: impl Iterator<Item = u32> + Clone) -> Triangulation {
        // The build fills `2n − 2` slots (ghosts included) and never more:
        // each insertion frees its cavity and takes two slots beyond it.
        let mut tris = CowChunks::filled(2 * points.len(), UNUSED);
        let mut mesh = Mesh {
            points,
            tris: tris.build(),
            free: Vec::new(),
            seed: NO_TRI,
            epoch: 0,
        };
        let degenerate = !mesh.triangulate(order);
        let mesh = mesh.map_tris(|b| b.len());
        Triangulation {
            mesh: mesh.map_tris(|len| {
                tris.truncate(len);
                tris
            }),
            degenerate,
        }
    }

    /// The vertices' coordinates by id: the input points in the order they
    /// were given, then the inserted ones. A removed vertex keeps its
    /// stale coordinates.
    pub fn points(&self) -> &[Point] {
        &self.mesh.points
    }

    /// Number of triangle slots, dead ones included (construction leaves
    /// none dead; a removal frees two).
    pub fn slot_count(&self) -> usize {
        self.mesh.tris.len()
    }

    /// `true` when the input had no non-collinear triple.
    pub fn is_degenerate(&self) -> bool {
        self.degenerate
    }

    /// Number of chunks of [`CHUNK`](crate::rows::CHUNK) triangle slots.
    pub fn chunk_count(&self) -> usize {
        self.mesh.tris.chunk_count()
    }

    /// Triangle chunks `self` shares with `other` — the same allocation
    /// at the same position, not equal contents: for an edited clone and
    /// its original, the chunks the edits did not write.
    pub fn shared_chunks(&self, other: &Triangulation) -> usize {
        self.mesh.tris.shared_chunks(&other.mesh.tris)
    }

    /// Iterates over the finite triangles as CCW vertex-index triples.
    pub fn triangles(&self) -> impl Iterator<Item = [u32; 3]> + '_ {
        self.mesh
            .tris
            .iter()
            .filter(|t| t.alive() && t.v[2] != GHOST)
            .map(|t| t.v)
    }

    /// Collects the undirected Delaunay edges (each reported once, with
    /// `a < b`).
    pub fn edges(&self) -> Vec<(u32, u32)> {
        let mut edges = Vec::new();
        for t in self.mesh.tris.iter().filter(|t| t.alive()) {
            for k in 0..3 {
                let a = t.v[k];
                let b = t.v[(k + 1) % 3];
                if a == GHOST || b == GHOST {
                    continue;
                }
                if a < b {
                    edges.push((a, b));
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        edges
    }

    /// Calls `f(a, b)` for every finite *directed* Delaunay edge `a → b`.
    ///
    /// Each directed edge is visited exactly once: the triangle on its left
    /// contributes `a → b` and the triangle on its right (a ghost, for hull
    /// edges) contributes `b → a`. This lets callers build adjacency
    /// structures in `O(|edges|)` without a global sort.
    pub fn for_each_directed_edge(&self, mut f: impl FnMut(u32, u32)) {
        for t in self.mesh.tris.iter().filter(|t| t.alive()) {
            for k in 0..3 {
                let a = t.v[k];
                let b = t.v[(k + 1) % 3];
                if a != GHOST && b != GHOST {
                    f(a, b);
                }
            }
        }
    }

    // -- incremental maintenance -------------------------------------------

    /// Appends `p` as a new vertex and inserts it into the triangulation
    /// (visibility-walk locate + Bowyer–Watson cavity). Returns the new
    /// vertex id. `O(log n)` expected for well-distributed inserts.
    /// Pushes the new vertex and the cavity boundary onto `touched`.
    ///
    /// Fails with [`DeltaError::NeedsRebuild`] on a degenerate
    /// triangulation (the caller rebuilds from the full point set, which
    /// also resolves a formerly-collinear set gaining an off-line point).
    pub fn insert_point(
        &mut self,
        p: Point,
        touched: &mut Vec<Touched>,
    ) -> Result<u32, DeltaError> {
        self.insert_point_with(p, touched, &mut EditScratch::default())
    }

    /// [`Triangulation::insert_point`] with the caller's buffers, which a
    /// batch of edits reuses.
    pub fn insert_point_with(
        &mut self,
        p: Point,
        touched: &mut Vec<Touched>,
        scratch: &mut EditScratch,
    ) -> Result<u32, DeltaError> {
        if !p.is_finite() {
            return Err(DeltaError::NonFinite);
        }
        if self.degenerate {
            return Err(DeltaError::NeedsRebuild);
        }
        // Duplicate check: a coinciding vertex must be a corner of the
        // located (closed-containing) triangle. A point strictly outside
        // the hull lands on a ghost and cannot coincide with anything.
        let t = self.mesh.locate(p, self.mesh.seed);
        for &v in &self.mesh.tris[t].v {
            if v != GHOST && self.mesh.pt(v) == p {
                return Err(DeltaError::Duplicate);
            }
        }
        let pi = self.mesh.points.len() as u32;
        self.mesh.points.push(p);
        self.mesh.insert(pi, Some(touched), scratch);
        Ok(pi)
    }

    /// Removes vertex `vi`, retriangulating the star-shaped hole left by
    /// its incident triangles (cavity retriangulation by Delaunay ear
    /// clipping; hull vertices are handled through their ghost ring).
    /// Pushes `vi` (with no star) and its link ring onto `touched`.
    ///
    /// The vertex becomes a tombstone: its slot and stale coordinates stay,
    /// and no other vertex moves. Fails with [`DeltaError::NeedsRebuild`] —
    /// leaving the triangulation unchanged — when `vi` is not a live
    /// vertex or the hole admits no valid ear (collinear residue). Callers
    /// must keep at least three finite vertices with a non-collinear
    /// triple; batches shrinking the set below that must rebuild instead.
    pub fn remove_point(&mut self, vi: u32, touched: &mut Vec<Touched>) -> Result<(), DeltaError> {
        self.remove_point_with(vi, touched, &mut EditScratch::default())
    }

    /// [`Triangulation::remove_point`] with the caller's buffers, which a
    /// batch of edits reuses.
    pub fn remove_point_with(
        &mut self,
        vi: u32,
        touched: &mut Vec<Touched>,
        scratch: &mut EditScratch,
    ) -> Result<(), DeltaError> {
        if self.degenerate {
            return Err(DeltaError::NeedsRebuild);
        }
        self.mesh.remove(vi, touched, scratch)
    }
}

/// The Bowyer–Watson machinery, over either arena: a build runs it on
/// the `BuildChunks` borrow of its slots, the
/// edits of a built triangulation on its [`CowChunks`].
impl<A: Arena<Tri>> Mesh<A> {
    /// [`Triangulation::remove_point`] on a non-degenerate triangulation.
    fn remove(
        &mut self,
        vi: u32,
        touched: &mut Vec<Touched>,
        scratch: &mut EditScratch,
    ) -> Result<(), DeltaError> {
        let start = self.locate(self.pt(vi), self.seed);
        if self.is_ghost(start) || !self.tris[start].v.contains(&vi) {
            // `vi` is not a vertex of the triangulation (stale id).
            return Err(DeltaError::NeedsRebuild);
        }
        let EditScratch {
            ring,
            outs,
            incident,
            hole,
            planned,
            made,
            open,
            ..
        } = scratch;
        ring.clear();
        outs.clear();
        incident.clear();

        // Collect the link ring around `vi` by rotating through the
        // neighbour links: incident triangle i is (vi, ring[i], ring[i+1])
        // cyclically, and outs[i] is the neighbour across the ring edge
        // (ring[i], ring[i+1]). With ghosts every vertex has a closed
        // ring; GHOST appears at most once (exactly once for hull
        // vertices).
        let mut cur = start;
        loop {
            let t = self.tris[cur];
            let Some(k) = (0..3).find(|&j| t.v[j] == vi) else {
                return Err(DeltaError::NeedsRebuild);
            };
            let a = t.v[(k + 1) % 3];
            let out = t.nbr[k];
            #[expect(
                clippy::expect_used,
                reason = "neighbour links are symmetric by construction; asymmetry is structural corruption where fail-fast beats silent miscounting"
            )]
            let out_edge = (0..3)
                .find(|&j| self.tris[out].nbr[j] == cur)
                .expect("neighbour links must be symmetric");
            ring.push(a);
            outs.push((out, out_edge));
            incident.push(cur);
            cur = t.nbr[(k + 1) % 3];
            if cur == start {
                break;
            }
        }
        let m = ring.len();
        debug_assert!(m >= 3, "every vertex has degree >= 3 counting GHOST");

        // Phase 1 (read-only): plan the retriangulation by ear clipping a
        // scratch copy of the ring. A finite ear must be CCW with a
        // circumdisk empty of the remaining ring vertices; an ear
        // containing GHOST is a prospective hull edge whose outer
        // half-plane (the ghost "disk") must be empty of them. Aborting
        // here leaves the triangulation untouched.
        hole.clear();
        hole.extend_from_slice(ring);
        planned.clear();
        while hole.len() > 3 {
            let len = hole.len();
            let mut clipped = None;
            for i in 0..len {
                let x = hole[(i + len - 1) % len];
                let y = hole[i];
                let z = hole[(i + 1) % len];
                let valid = if x != GHOST && y != GHOST && z != GHOST {
                    orient2d_sign(self.pt(x), self.pt(y), self.pt(z)) == 1
                        && hole.iter().all(|&d| {
                            d == x
                                || d == y
                                || d == z
                                || d == GHOST
                                || incircle_sign(self.pt(x), self.pt(y), self.pt(z), self.pt(d))
                                    <= 0
                        })
                } else {
                    // Rotating the ghost into slot 2 turns the ear into
                    // the ghost triangle (u, w, GHOST) of hull edge w->u.
                    let (u, w) = if x == GHOST {
                        (y, z)
                    } else if y == GHOST {
                        (z, x)
                    } else {
                        (x, y)
                    };
                    hole.iter().all(|&d| {
                        d == u
                            || d == w
                            || d == GHOST
                            || !self.ghost_disk_contains(u, w, self.pt(d))
                    })
                };
                if valid {
                    clipped = Some(i);
                    break;
                }
            }
            let Some(i) = clipped else {
                return Err(DeltaError::NeedsRebuild);
            };
            let len = hole.len();
            planned.push([hole[(i + len - 1) % len], hole[i], hole[(i + 1) % len]]);
            hole.remove(i);
        }
        let (x, y, z) = (hole[0], hole[1], hole[2]);
        if x != GHOST
            && y != GHOST
            && z != GHOST
            && orient2d_sign(self.pt(x), self.pt(y), self.pt(z)) != 1
        {
            return Err(DeltaError::NeedsRebuild);
        }
        planned.push([x, y, z]);

        // Phase 2: delete the star and materialise the plan, stitching
        // neighbour links through the open undirected edges, seeded with
        // the ring boundary (the same scheme the insertion cavity uses).
        for &t in incident.iter() {
            self.kill(t);
        }
        open.clear();
        for i in 0..m {
            let a = ring[i];
            let b = ring[(i + 1) % m];
            open.push(((a.min(b), a.max(b)), outs[i].0, outs[i].1));
        }
        let mut new_seed = NO_TRI;
        made.clear();
        for &[x, y, z] in planned.iter() {
            let (v, rot) = if x == GHOST {
                ([y, z, GHOST], 1)
            } else if y == GHOST {
                ([z, x, GHOST], 2)
            } else {
                ([x, y, z], 0)
            };
            let nt = self.alloc(v);
            made.push(nt);
            if new_seed == NO_TRI || v[2] != GHOST {
                new_seed = nt;
            }
            let opp = |orig: usize| (orig + 3 - rot) % 3;
            for (orig_idx, ea, eb) in [(0usize, y, z), (1, z, x), (2, x, y)] {
                self.stitch(open, (ea.min(eb), ea.max(eb)), nt, opp(orig_idx));
            }
        }
        debug_assert!(open.is_empty(), "hole stitching must close");
        self.seed = new_seed;
        touched.push(Touched {
            vertex: vi,
            star: None,
        });
        for &r in ring.iter().filter(|&&r| r != GHOST) {
            // The hole's triangulation uses every ring vertex.
            let star = made.iter().copied().find(|&t| self.tris[t].v.contains(&r));
            debug_assert!(star.is_some(), "ring vertex {r} left out of the hole");
            touched.push(Touched { vertex: r, star });
        }
        Ok(())
    }

    /// Links edge `edge` of new triangle `t` to the open edge under `key`
    /// and closes that one, or leaves it open when it has no twin yet.
    /// Every key of a fan or a hole comes exactly twice.
    fn stitch(&mut self, open: &mut Vec<Open>, key: (u32, u32), t: u32, edge: usize) {
        match open.iter().position(|o| o.0 == key) {
            Some(j) => {
                let (_, other, other_edge) = open.swap_remove(j);
                self.tris.get_mut(t).nbr[edge] = other;
                self.tris.get_mut(other).nbr[other_edge] = t;
            }
            None => open.push((key, t, edge)),
        }
    }

    // -- construction internals --------------------------------------------

    /// Triangulates `self.points` from an empty arena, inserting them in
    /// `order` (which names each once); `false` when they have no
    /// non-collinear triple (no triangle is made).
    fn triangulate(&mut self, order: impl Iterator<Item = u32> + Clone) -> bool {
        if self.points.len() < 3 {
            return false;
        }
        // Seed with the first two points and the first point off their
        // line, in insertion order.
        let mut seeds = order.clone();
        let (Some(i0), Some(i1)) = (seeds.next(), seeds.next()) else {
            return false;
        };
        let (a, b) = (self.pt(i0), self.pt(i1));
        let Some(i2) = seeds.find(|&i| orient2d_sign(a, b, self.pt(i)) != 0) else {
            return false; // all points collinear
        };
        self.init_first_triangle(i0, i1, i2);
        let mut scratch = EditScratch::default();
        for i in order.skip(1) {
            if i == i1 || i == i2 {
                continue;
            }
            self.insert(i, None, &mut scratch);
        }
        true
    }

    fn init_first_triangle(&mut self, i0: u32, i1: u32, i2: u32) {
        let (a, b, c) = (
            self.points[i0 as usize],
            self.points[i1 as usize],
            self.points[i2 as usize],
        );
        let (i0, i1, i2) = if orient2d_sign(a, b, c) > 0 {
            (i0, i1, i2)
        } else {
            (i0, i2, i1)
        };
        // Finite triangle 0 plus ghosts 1..=3, one per CCW hull edge.
        // Hull edge (v[k+1] -> v[k+2]) is opposite vertex k; its ghost is
        // stored reversed: (v[k+2], v[k+1], GHOST).
        let f = self.alloc([i0, i1, i2]);
        let v = [i0, i1, i2];
        let mut ghosts = [NO_TRI; 3];
        for (k, g) in ghosts.iter_mut().enumerate() {
            let a = v[(k + 1) % 3];
            let b = v[(k + 2) % 3];
            *g = self.alloc([b, a, GHOST]);
        }
        for k in 0..3 {
            self.tris.get_mut(f).nbr[k] = ghosts[k];
            self.tris.get_mut(ghosts[k]).nbr[2] = f;
            // Ghost (b, a, GHOST) for hull edge a->b:
            //  - edge opposite v0=b is (a, GHOST): shared with the ghost of
            //    the previous CCW hull edge (the one ending at a);
            //  - edge opposite v1=a is (GHOST, b): shared with the ghost of
            //    the next CCW hull edge (the one starting at b).
            // Hull edge k goes v[k+1] -> v[k+2]; the previous edge is k-1
            // (ends at v[k+1]), the next is k+1 (starts at v[k+2]).
            self.tris.get_mut(ghosts[k]).nbr[0] = ghosts[(k + 2) % 3];
            self.tris.get_mut(ghosts[k]).nbr[1] = ghosts[(k + 1) % 3];
        }
        self.seed = f;
    }

    /// A slot for a new triangle `v`: the last one freed, else a new one.
    fn alloc(&mut self, v: [u32; 3]) -> u32 {
        let tri = Tri {
            v,
            nbr: [NO_TRI; 3],
            stamp: 0,
        };
        match self.free.pop() {
            Some(id) => {
                *self.tris.get_mut(id) = tri;
                id
            }
            None => self.tris.push(tri),
        }
    }

    /// Frees slot `t` for reuse.
    fn kill(&mut self, t: u32) {
        self.tris.get_mut(t).v[0] = GHOST;
        self.free.push(t);
    }

    #[inline]
    fn pt(&self, i: u32) -> Point {
        self.points[i as usize]
    }

    #[inline]
    fn is_ghost(&self, t: u32) -> bool {
        self.tris[t].v[2] == GHOST
    }

    /// Is `p` inside the (open, plus the degenerate boundary cases discussed
    /// in the module docs) circumdisk of triangle `t`?
    fn in_disk(&self, t: u32, p: Point) -> bool {
        let tri = &self.tris[t];
        if tri.v[2] == GHOST {
            // Ghost (u, w, GHOST) for CCW hull edge w -> u: its "disk" is
            // the open half-plane strictly left of u -> w (strictly outside
            // the hull edge), plus — for points exactly on the supporting
            // line — the open edge segment itself, so a point splitting a
            // hull edge swallows the ghost instead of creating a degenerate
            // finite triangle. A collinear point *beyond* the segment must
            // NOT enter this ghost's cavity: it belongs to the adjacent
            // hull edge's ghost, and including this one would fan a
            // zero-area triangle.
            self.ghost_disk_contains(tri.v[0], tri.v[1], p)
        } else {
            incircle_sign(self.pt(tri.v[0]), self.pt(tri.v[1]), self.pt(tri.v[2]), p) > 0
        }
    }

    /// The symbolic circumdisk test of ghost triangle `(u, w, GHOST)`: the
    /// open half-plane strictly left of `u -> w`, plus the open hull-edge
    /// segment itself (see [`Triangulation::in_disk`] for the rationale).
    fn ghost_disk_contains(&self, u: u32, w: u32, p: Point) -> bool {
        let pu = self.pt(u);
        let pw = self.pt(w);
        match orient2d_sign(pu, pw, p) {
            1 => true,
            0 => {
                let t = (p - pu).dot(pw - pu);
                t > 0.0 && t < (pw - pu).norm_sq()
            }
            _ => false,
        }
    }

    /// Visibility walk from `start` to the triangle containing `p` (or a
    /// ghost triangle when `p` is outside the hull). Always terminates on a
    /// Delaunay triangulation.
    fn locate(&self, p: Point, start: u32) -> u32 {
        let mut cur = if self.is_ghost(start) {
            self.tris[start].nbr[2]
        } else {
            start
        };
        let mut prev = NO_TRI;
        loop {
            let tri = &self.tris[cur];
            debug_assert!(tri.alive());
            let mut next = NO_TRI;
            for k in 0..3 {
                let a = tri.v[(k + 1) % 3];
                let b = tri.v[(k + 2) % 3];
                if orient2d_sign(self.pt(a), self.pt(b), p) < 0 {
                    let n = tri.nbr[k];
                    if n != prev {
                        next = n;
                        break;
                    }
                    // Don't walk straight back; try another crossing edge.
                    if next == NO_TRI {
                        next = n;
                    }
                }
            }
            if next == NO_TRI {
                return cur; // inside (or on the boundary of) cur
            }
            if self.is_ghost(next) {
                return next; // p is outside the hull, beyond this hull edge
            }
            prev = cur;
            cur = next;
        }
    }

    /// Inserts point index `pi` (which must not duplicate an existing
    /// vertex), pushing it and the cavity boundary onto `touched` if given.
    fn insert(
        &mut self,
        pi: u32,
        mut touched: Option<&mut Vec<Touched>>,
        scratch: &mut EditScratch,
    ) {
        let p = self.pt(pi);
        let seed = self.locate(p, self.seed);
        debug_assert!(
            self.in_disk(seed, p),
            "locate returned a non-containing triangle"
        );
        let EditScratch {
            cavity,
            stack,
            boundary,
            open,
            ..
        } = scratch;

        // Grow the cavity: DFS over triangles whose circumdisk contains p.
        self.epoch += 1;
        let epoch = self.epoch;
        cavity.clear();
        stack.clear();
        stack.push(seed);
        self.tris.get_mut(seed).stamp = epoch;
        while let Some(t) = stack.pop() {
            cavity.push(t);
            for k in 0..3 {
                let n = self.tris[t].nbr[k];
                if n == NO_TRI || self.tris[n].stamp == epoch {
                    continue;
                }
                if self.in_disk(n, p) {
                    self.tris.get_mut(n).stamp = epoch;
                    stack.push(n);
                }
            }
        }

        // Collect the directed boundary edges (x, y): edges of cavity
        // triangles whose opposite neighbour is outside the cavity, directed
        // so the cavity (hence p) lies to the left.
        boundary.clear();
        for &t in cavity.iter() {
            let tri = self.tris[t];
            for k in 0..3 {
                let n = tri.nbr[k];
                debug_assert_ne!(n, NO_TRI, "triangulation boundary is closed by ghosts");
                if self.tris[n].stamp == epoch {
                    continue; // internal cavity edge
                }
                let x = tri.v[(k + 1) % 3];
                let y = tri.v[(k + 2) % 3];
                // Which edge of `n` faces back to the cavity?
                let ntri = &self.tris[n];
                #[expect(
                    clippy::expect_used,
                    reason = "neighbour links are symmetric by construction; asymmetry is structural corruption where fail-fast beats silent miscounting"
                )]
                let outside_edge = (0..3)
                    .find(|&j| ntri.nbr[j] == t)
                    .expect("neighbour links must be symmetric");
                boundary.push(Boundary {
                    x,
                    y,
                    outside: n,
                    outside_edge,
                });
            }
        }

        // Delete the cavity and fan new triangles (x, y, p) around p.
        for &t in cavity.iter() {
            self.kill(t);
        }
        open.clear();
        let mut first_new = NO_TRI;
        for b in boundary.iter() {
            // Rotate so a GHOST vertex (if any) sits in slot 2. The rotation
            // permutes edges consistently: rotating vertices left by one
            // also rotates the "opposite" indexing left by one.
            let (v, rot) = if b.x == GHOST {
                ([b.y, pi, GHOST], 1) // (x,y,p) rotated left once
            } else if b.y == GHOST {
                ([pi, b.x, GHOST], 2) // rotated left twice
            } else {
                ([b.x, b.y, pi], 0)
            };
            let nt = self.alloc(v);
            if first_new == NO_TRI {
                first_new = nt;
            }
            // Each boundary vertex starts exactly one boundary edge.
            if let Some(touched) = touched.as_deref_mut().filter(|_| b.x != GHOST) {
                touched.push(Touched {
                    vertex: b.x,
                    star: Some(nt),
                });
            }
            // In (x, y, p) coordinates: edge opposite p (index 2) borders
            // `outside`; edge opposite x (index 0) is (y, p); edge opposite
            // y (index 1) is (p, x). Map through the rotation.
            let opp = |orig: usize| (orig + 3 - rot) % 3;
            self.tris.get_mut(nt).nbr[opp(2)] = b.outside;
            self.tris.get_mut(b.outside).nbr[b.outside_edge] = nt;
            // Stitch the p-incident edges via the shared non-p endpoint,
            // keyed by undirected (min, max).
            for (orig_idx, shared) in [(0usize, b.y), (1usize, b.x)] {
                self.stitch(open, (shared.min(pi), shared.max(pi)), nt, opp(orig_idx));
            }
        }
        debug_assert!(first_new != NO_TRI);
        debug_assert!(open.is_empty(), "fan stitching must close");
        self.seed = first_new;
        if let Some(touched) = touched {
            touched.push(Touched {
                vertex: pi,
                star: Some(first_new),
            });
        }
    }
}

impl Triangulation {
    /// Appends the neighbours of vertex `v` to `out`, in rotational order,
    /// reading them off its star from `t`, one of its live triangles (a
    /// [`Touched::star`]). `O(deg v)`.
    pub fn star(&self, v: u32, t: u32, out: &mut Vec<u32>) {
        let mut cur = t;
        loop {
            let tri = &self.mesh.tris[cur];
            debug_assert!(
                tri.alive() && tri.v.contains(&v),
                "{cur} is not in the star of {v}"
            );
            let Some(k) = (0..3).find(|&j| tri.v[j] == v) else {
                return;
            };
            let a = tri.v[(k + 1) % 3];
            if a != GHOST {
                out.push(a);
            }
            cur = tri.nbr[(k + 1) % 3];
            if cur == t {
                return;
            }
        }
    }

    // -- crate-internal accessors (used by the Voronoi extraction) ---------

    /// Is slot `t` an alive triangle?
    pub(crate) fn slot_alive(&self, t: u32) -> bool {
        self.mesh.tris[t].alive()
    }

    /// Vertex indices of slot `t` (slot 2 is `GHOST` for ghost triangles).
    pub(crate) fn slot_verts(&self, t: u32) -> [u32; 3] {
        self.mesh.tris[t].v
    }

    /// Neighbour of slot `t` opposite its vertex `k`.
    pub(crate) fn slot_nbr(&self, t: u32, k: usize) -> u32 {
        self.mesh.tris[t].nbr[k]
    }

    /// Every triangle slot in order as `(vertices, neighbours)`; a dead
    /// slot names `GHOST` as its first vertex. Used by tests that pin a
    /// build's output.
    #[doc(hidden)]
    pub fn slots(&self) -> impl Iterator<Item = ([u32; 3], [u32; 3])> + '_ {
        self.mesh.tris.iter().map(|t| (t.v, t.nbr))
    }

    /// Checks the structural invariants (symmetric neighbour links, CCW
    /// finite triangles, closed ghost ring). Used by tests.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        if self.degenerate {
            return;
        }
        for (id, t) in self.mesh.tris.iter().enumerate() {
            if !t.alive() {
                continue;
            }
            if t.v[2] != GHOST {
                assert_eq!(
                    orient2d_sign(
                        self.mesh.pt(t.v[0]),
                        self.mesh.pt(t.v[1]),
                        self.mesh.pt(t.v[2])
                    ),
                    1,
                    "finite triangle {id} must be CCW"
                );
            }
            for k in 0..3 {
                let n = t.nbr[k];
                assert_ne!(n, NO_TRI, "triangle {id} missing neighbour {k}");
                let nt = &self.mesh.tris[n];
                assert!(nt.alive(), "triangle {id} points at dead neighbour {n}");
                assert!(
                    (0..3).any(|j| nt.nbr[j] == id as u32),
                    "neighbour link {id} -> {n} is not symmetric"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    /// Brute-force Delaunay check: no point lies strictly inside any
    /// triangle's circumcircle.
    fn assert_delaunay(t: &Triangulation) {
        t.check_invariants();
        let pts = t.points();
        for tri in t.triangles() {
            let (a, b, c) = (
                pts[tri[0] as usize],
                pts[tri[1] as usize],
                pts[tri[2] as usize],
            );
            for (i, &d) in pts.iter().enumerate() {
                if tri.contains(&(i as u32)) {
                    continue;
                }
                assert!(
                    incircle_sign(a, b, c, d) <= 0,
                    "point {i} {d:?} violates the empty-circumcircle property of {tri:?}"
                );
            }
        }
    }

    /// Euler check: for a triangulation of n points with h points on the
    /// hull *boundary* (corner vertices plus collinear boundary points),
    /// #triangles = 2n - h - 2 and #edges = 3n - h - 3.
    fn assert_euler(t: &Triangulation) {
        assert_euler_sparse(t, &[]);
    }

    /// Like `assert_euler` over the vertices not in `removed`; the arena
    /// holds the live triangles plus what the last removal freed.
    fn assert_euler_sparse(t: &Triangulation, removed: &[u32]) {
        let live: Vec<Point> = (0u32..)
            .zip(t.points())
            .filter(|(i, _)| !removed.contains(i))
            .map(|(_, &p)| p)
            .collect();
        let n = live.len();
        let hull = ssq_geom::convex_hull(&live);
        let h = live
            .iter()
            .filter(|&&p| hull.contains(p) && !hull.contains_strict(p))
            .count();
        let tri_count = t.triangles().count();
        let edge_count = t.edges().len();
        assert_eq!(tri_count, 2 * n - h - 2, "triangle count (n={n}, h={h})");
        assert_eq!(edge_count, 3 * n - h - 3, "edge count (n={n}, h={h})");
        assert!(t.slot_count() <= 2 * (n + removed.len()) - 2, "arena");
    }

    #[test]
    fn single_triangle() {
        let t = Triangulation::new(&[p(0.0, 0.0), p(1.0, 0.0), p(0.0, 1.0)]).unwrap();
        assert!(!t.is_degenerate());
        assert_eq!(t.triangles().count(), 1);
        assert_delaunay(&t);
        assert_euler(&t);
    }

    #[test]
    fn square_produces_two_triangles() {
        let t = Triangulation::new(&[p(0.0, 0.0), p(1.0, 0.0), p(1.0, 1.0), p(0.0, 1.0)]).unwrap();
        assert_eq!(t.triangles().count(), 2);
        assert_delaunay(&t);
        assert_euler(&t);
    }

    #[test]
    fn interior_point() {
        let t = Triangulation::new(&[
            p(0.0, 0.0),
            p(4.0, 0.0),
            p(4.0, 4.0),
            p(0.0, 4.0),
            p(2.0, 2.0),
        ])
        .unwrap();
        assert_eq!(t.triangles().count(), 4);
        assert_delaunay(&t);
        assert_euler(&t);
    }

    #[test]
    fn point_outside_hull_extends_it() {
        let t = Triangulation::new(&[p(0.0, 0.0), p(1.0, 0.0), p(0.0, 1.0), p(3.0, 3.0)]).unwrap();
        assert_delaunay(&t);
        assert_euler(&t);
    }

    #[test]
    fn collinear_point_on_hull_edge_line() {
        // (2,0) is collinear with hull edge (0,0)-(1,0) and beyond it.
        let t = Triangulation::new(&[p(0.0, 0.0), p(1.0, 0.0), p(0.0, 1.0), p(2.0, 0.0)]).unwrap();
        assert_delaunay(&t);
        assert_euler(&t);
        // Splitting point exactly ON a hull edge.
        let t = Triangulation::new(&[p(0.0, 0.0), p(2.0, 0.0), p(0.0, 2.0), p(1.0, 0.0)]).unwrap();
        assert_delaunay(&t);
        assert_euler(&t);
    }

    #[test]
    fn cocircular_points() {
        // Four cocircular points: either diagonal is a valid Delaunay
        // triangulation; both must satisfy the (non-strict) empty-circle
        // property and the invariants.
        let t =
            Triangulation::new(&[p(1.0, 0.0), p(0.0, 1.0), p(-1.0, 0.0), p(0.0, -1.0)]).unwrap();
        assert_eq!(t.triangles().count(), 2);
        assert_delaunay(&t);
        assert_euler(&t);
    }

    #[test]
    fn grid_with_many_cocircular_quads() {
        let mut pts = Vec::new();
        for i in 0..6 {
            for j in 0..6 {
                pts.push(p(i as f64, j as f64));
            }
        }
        let t = Triangulation::new(&pts).unwrap();
        assert_delaunay(&t);
        assert_euler(&t);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(Triangulation::new(&[]).unwrap().is_degenerate());
        assert!(Triangulation::new(&[p(1.0, 2.0)]).unwrap().is_degenerate());
        assert!(Triangulation::new(&[p(0.0, 0.0), p(1.0, 1.0)])
            .unwrap()
            .is_degenerate());
        let collinear =
            Triangulation::new(&[p(0.0, 0.0), p(1.0, 1.0), p(2.0, 2.0), p(5.0, 5.0)]).unwrap();
        assert!(collinear.is_degenerate());
        assert_eq!(collinear.triangles().count(), 0);
    }

    #[test]
    fn duplicate_points_rejected() {
        let err = Triangulation::new(&[p(0.0, 0.0), p(1.0, 0.0), p(0.0, 0.0)]).unwrap_err();
        assert_eq!(err, BuildError::DuplicatePoint(0, 2));
    }

    #[test]
    fn curve_order_reports_the_pair_one_lexicographic_sort_finds_first() {
        // What a stable lexicographic sort of every index finds first.
        let lex_first = |pts: &[Point]| {
            let mut order: Vec<u32> = (0..pts.len() as u32).collect();
            order.sort_by(|&i, &j| pts[i as usize].lex_cmp(&pts[j as usize]));
            order
                .windows(2)
                .find(|w| pts[w[0] as usize] == pts[w[1] as usize])
                .map(|w| BuildError::DuplicatePoint(w[0] as usize, w[1] as usize))
        };
        let mut seed = 0xD0B1Eu64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for trial in 0..40 {
            // A coarse grid, so some points repeat and many share a key.
            let n = 5 + trial * 3;
            let pts: Vec<Point> = (0..n)
                .map(|_| p((next() % 9) as f64, (next() % 9) as f64 * 0.5))
                .collect();
            let got = Triangulation::curve_order(&pts).err();
            assert_eq!(got, lex_first(&pts), "trial {trial}");
        }
        // One point five times: one run of equal keys.
        let same = vec![p(2.0, 3.0); 5];
        assert_eq!(
            Triangulation::curve_order(&same),
            Err(BuildError::DuplicatePoint(0, 1))
        );
        let distinct = [p(0.0, 0.0), p(1.0, 0.0), p(0.0, 1.0)];
        let order = Triangulation::curve_order(&distinct).unwrap();
        assert_eq!(order.len(), 3);
    }

    #[test]
    fn non_finite_rejected() {
        let err = Triangulation::new(&[p(0.0, 0.0), p(f64::NAN, 0.0)]).unwrap_err();
        assert_eq!(err, BuildError::NonFiniteCoordinate(1));
    }

    #[test]
    fn pseudorandom_sets_are_delaunay() {
        let mut seed = 0xDEADBEEFu64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        for trial in 0..20 {
            let n = 4 + trial * 7;
            let pts: Vec<Point> = (0..n).map(|_| p(next() * 100.0, next() * 100.0)).collect();
            let t = Triangulation::new(&pts).unwrap();
            assert_delaunay(&t);
            assert_euler(&t);
        }
    }

    #[test]
    fn insert_point_extends_the_triangulation() {
        let mut t = Triangulation::new(&[p(0.0, 0.0), p(4.0, 0.0), p(0.0, 4.0)]).unwrap();
        let mut touched = Vec::new();
        // Interior, on-edge, outside-hull, and collinear-beyond inserts.
        for q in [p(1.0, 1.0), p(2.0, 0.0), p(5.0, 5.0), p(8.0, 0.0)] {
            touched.clear();
            let id = t.insert_point(q, &mut touched).unwrap();
            assert_eq!(t.points()[id as usize], q);
            assert_delaunay(&t);
            assert_euler(&t);
            // The new vertex is reported with a triangle of its star.
            let new = touched.iter().find(|r| r.vertex == id).unwrap();
            let mut star = Vec::new();
            t.star(id, new.star.unwrap(), &mut star);
            assert!(!star.is_empty() && star.iter().all(|&v| v < id));
        }
        assert_eq!(
            t.insert_point(p(1.0, 1.0), &mut touched),
            Err(DeltaError::Duplicate)
        );
        assert_eq!(
            t.insert_point(p(f64::NAN, 0.0), &mut touched),
            Err(DeltaError::NonFinite)
        );
    }

    #[test]
    fn remove_interior_point() {
        let mut t = Triangulation::new(&[
            p(0.0, 0.0),
            p(4.0, 0.0),
            p(4.0, 4.0),
            p(0.0, 4.0),
            p(2.0, 2.0),
        ])
        .unwrap();
        let mut touched = Vec::new();
        t.remove_point(4, &mut touched).unwrap();
        assert_delaunay_sparse(&t, &[4]);
        assert_euler_sparse(&t, &[4]);
        assert_eq!(t.triangles().count(), 2);
        // The removed vertex and its four-vertex ring.
        assert_eq!(touched.len(), 5);
        assert_eq!(
            touched[0],
            Touched {
                vertex: 4,
                star: None
            }
        );
        // A removed vertex is gone for good.
        assert_eq!(
            t.remove_point(4, &mut touched),
            Err(DeltaError::NeedsRebuild)
        );
    }

    #[test]
    fn remove_hull_vertex() {
        let mut t = Triangulation::new(&[
            p(0.0, 0.0),
            p(4.0, 0.0),
            p(4.0, 4.0),
            p(0.0, 4.0),
            p(2.0, 2.0),
        ])
        .unwrap();
        t.remove_point(0, &mut Vec::new()).unwrap();
        assert_delaunay_sparse(&t, &[0]);
        assert_euler_sparse(&t, &[0]);
        // 4 remaining points, all on the hull boundary of the residue
        // ((2,2) sits exactly on the new hull edge (0,4)-(4,0)).
        assert_eq!(t.triangles().count(), 2);
    }

    #[test]
    fn removals_keep_slots_and_delaunay() {
        let mut pts = Vec::new();
        let mut seed = 0x5EEDu64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..60 {
            pts.push(p(next() * 100.0, next() * 100.0));
        }
        let mut t = Triangulation::new(&pts).unwrap();
        assert_eq!(t.slot_count(), 2 * 60 - 2, "construction leaves no garbage");
        let deleted: Vec<u32> = vec![3, 17, 18, 30, 44, 59];
        for (applied, &d) in deleted.iter().enumerate() {
            t.remove_point(d, &mut Vec::new()).unwrap();
            assert_delaunay_sparse(&t, &deleted[..=applied]);
        }
        // Every vertex kept its slot; the removed ones their coordinates.
        assert_eq!(t.points(), pts.as_slice());
        assert_euler_sparse(&t, &deleted);
    }

    /// Like `assert_delaunay` but skips deleted (stale) point slots.
    fn assert_delaunay_sparse(t: &Triangulation, deleted: &[u32]) {
        t.check_invariants();
        let pts = t.points();
        for tri in t.triangles() {
            assert!(!tri.iter().any(|v| deleted.contains(v)));
            let (a, b, c) = (
                pts[tri[0] as usize],
                pts[tri[1] as usize],
                pts[tri[2] as usize],
            );
            for (i, &d) in pts.iter().enumerate() {
                if tri.contains(&(i as u32)) || deleted.contains(&(i as u32)) {
                    continue;
                }
                assert!(
                    incircle_sign(a, b, c, d) <= 0,
                    "point {i} violates empty-circumcircle after deletion"
                );
            }
        }
    }

    #[test]
    fn interleaved_insert_remove_matches_fresh_build() {
        let mut seed = 0xACE1u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        let pts: Vec<Point> = (0..50).map(|_| p(next() * 100.0, next() * 100.0)).collect();
        let mut t = Triangulation::new(&pts).unwrap();

        // Delete 12 scattered old ids, insert 15 new points.
        let deleted: Vec<u32> = vec![0, 4, 9, 13, 21, 22, 23, 30, 38, 44, 48, 49];
        let mut touched = Vec::new();
        for &d in &deleted {
            t.remove_point(d, &mut touched).unwrap();
        }
        let mut inserts = Vec::new();
        for _ in 0..15 {
            let q = p(next() * 100.0, next() * 100.0);
            let id = t.insert_point(q, &mut touched).unwrap();
            assert_eq!(id as usize, pts.len() + inserts.len(), "inserts append");
            inserts.push(q);
        }
        assert_delaunay_sparse(&t, &deleted);
        assert_euler_sparse(&t, &deleted);

        // Same edge set as a fresh build over the live points (no exact
        // cocircularities in random data, so the Delaunay triangulation is
        // unique), through the live ids.
        let live: Vec<u32> = (0..t.points().len() as u32)
            .filter(|i| !deleted.contains(i))
            .collect();
        let expect: Vec<Point> = live.iter().map(|&i| t.points()[i as usize]).collect();
        let fresh = Triangulation::new(&expect).unwrap();
        let mut fresh_edges: Vec<(u32, u32)> = fresh
            .edges()
            .into_iter()
            .map(|(a, b)| (live[a as usize], live[b as usize]))
            .collect();
        fresh_edges.sort_unstable();
        assert_eq!(t.edges(), fresh_edges);
    }

    #[test]
    fn grid_deletions_with_cocircular_ties() {
        let mut pts = Vec::new();
        for i in 0..6 {
            for j in 0..6 {
                pts.push(p(i as f64, j as f64));
            }
        }
        let mut t = Triangulation::new(&pts).unwrap();
        // Corner (hull), edge-midpoint (hull), and center (interior).
        let deleted = vec![0u32, 3, 14, 21, 35];
        for &d in &deleted {
            t.remove_point(d, &mut Vec::new()).unwrap();
        }
        assert_delaunay_sparse(&t, &deleted);
        assert_euler_sparse(&t, &deleted);
    }

    #[test]
    fn degenerate_states_demand_rebuild() {
        let mut t = Triangulation::new(&[p(0.0, 0.0), p(1.0, 1.0), p(2.0, 2.0)]).unwrap();
        assert!(t.is_degenerate());
        let mut touched = Vec::new();
        assert_eq!(
            t.insert_point(p(1.0, 0.0), &mut touched),
            Err(DeltaError::NeedsRebuild)
        );
        assert_eq!(
            t.remove_point(0, &mut touched),
            Err(DeltaError::NeedsRebuild)
        );
        assert!(touched.is_empty());
    }

    #[test]
    fn clustered_points_with_near_degeneracies() {
        // Tight clusters plus points on a shared circle: stresses both the
        // exact predicates and the ghost machinery.
        let mut pts = Vec::new();
        for k in 0..12 {
            let a = k as f64 * std::f64::consts::TAU / 12.0;
            pts.push(p(a.cos() * 10.0, a.sin() * 10.0));
        }
        for k in 0..8 {
            pts.push(p(1e-7 * k as f64, 2e-7 * (k as f64).powi(2)));
        }
        let t = Triangulation::new(&pts).unwrap();
        assert_delaunay(&t);
        assert_euler(&t);
    }

    /// Each vertex's star, read from the first live slot naming it.
    fn stars(t: &Triangulation) -> Vec<Vec<u32>> {
        let mut first = vec![NO_TRI; t.points().len()];
        for (id, tri) in (0u32..).zip(t.mesh.tris.iter()) {
            for &v in tri.v.iter().filter(|&&v| tri.alive() && v != GHOST) {
                if first[v as usize] == NO_TRI {
                    first[v as usize] = id;
                }
            }
        }
        (0u32..)
            .zip(&first)
            .map(|(v, &f)| {
                let mut star = Vec::new();
                if f != NO_TRI {
                    t.star(v, f, &mut star);
                }
                star
            })
            .collect()
    }

    #[test]
    fn edits_on_a_clone_never_write_the_original() {
        let mut seed = 0xC0FFEEu64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        let pts: Vec<Point> = (0..600)
            .map(|_| p(next() * 100.0, next() * 100.0))
            .collect();
        let t = Triangulation::new(&pts).unwrap();
        let (slots, before) = (t.mesh.tris.iter().copied().collect::<Vec<_>>(), stars(&t));
        let mut c = t.clone();
        assert_eq!(c.shared_chunks(&t), t.chunk_count());

        // Remove and insert 10 % of the points.
        let mut touched = Vec::new();
        let removed: Vec<u32> = (0..600).step_by(10).collect();
        for &v in &removed {
            c.remove_point(v, &mut touched).unwrap();
        }
        for _ in 0..60 {
            c.insert_point(p(next() * 100.0, next() * 100.0), &mut touched)
                .unwrap();
        }
        assert_delaunay_sparse(&c, &removed);
        t.check_invariants();
        assert!(t.mesh.tris.iter().copied().eq(slots), "a slot changed");
        assert_eq!(stars(&t), before, "a star of the original changed");
        assert!(
            c.shared_chunks(&t) < t.chunk_count(),
            "the clone copied what it wrote"
        );
    }
}
