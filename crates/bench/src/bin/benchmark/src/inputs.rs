//! Everything a workload feeds the system, made from `--seed`: the dataset,
//! the stratified query sets with their oracle answers, the request order,
//! the delta batches and the motion streams. The same seed gives the same
//! inputs, byte for byte; the system under test receives only these.

use crate::spec::{SetShape, SizeClass, BATCH_OPS, NAIVE_SPOT_CHECKS};
use ssq_core::{
    b2s2_kernel, naive_sorted_kernel, vs2_kernel, DistanceScratch, QueryContext, RTreeIndex,
    UpdateBatch, VoronoiIndex,
};
use ssq_engine::ContextCache;
use ssq_geom::Point;
use ssq_workload::motion::Update;
use ssq_workload::rng::Xoshiro256;
use ssq_workload::usgs::{synthetic_usgs_points, universe};
use ssq_workload::{random_query_set, MotionConfig, MovingQuerySet, QueryConfig, UsgsConfig};

/// Which input a derived seed feeds, so the streams are independent.
#[derive(Clone, Copy)]
pub enum Stream {
    /// The dataset.
    Dataset = 1,
    /// Candidate query sets.
    Sets = 2,
    /// The order in which a client picks sets.
    Order = 3,
    /// Delta batches.
    Batches = 4,
    /// Session start positions and motion.
    Motion = 5,
}

/// A seed for sub-stream `index` of `stream` (SplitMix64 finalizer over
/// the three mixed together).
pub fn derive(seed: u64, stream: Stream, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add((stream as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The dataset: the paper's USGS regime, 40 Gaussian clusters plus 15 %
/// uniform background.
pub fn dataset(points: usize, seed: u64) -> Vec<Point> {
    synthetic_usgs_points(&UsgsConfig {
        n: points,
        seed: derive(seed, Stream::Dataset, 0),
        ..UsgsConfig::default()
    })
}

/// Candidate query set `j` of a shape.
pub fn candidate_set(shape: &SetShape, seed: u64, j: u64) -> Vec<Point> {
    let mut q = random_query_set(&QueryConfig {
        count: shape.min_points + (j as usize) % shape.span,
        mbr_area_fraction: shape.mbr_area_fraction,
        universe: universe(),
        seed: derive(seed, Stream::Sets, j),
    });
    if shape.snap {
        for p in &mut q {
            *p = snap(*p);
        }
    }
    q
}

/// `p` moved onto the grid of the engine's cache quantum, so that the
/// canonical key of a set of snapped points stands for exactly them.
pub fn snap(p: Point) -> Point {
    let quantum = ContextCache::DEFAULT_QUANTUM;
    Point::new(
        (p.x / quantum).round() * quantum,
        (p.y / quantum).round() * quantum,
    )
}

/// The motion stream of candidate session `j`: `3 + j % 5` objects in a
/// 3 % start box, steps of at most 0.2 % of the universe side.
fn candidate_motion(shape: &SetShape, seed: u64, j: u64) -> MovingQuerySet {
    MovingQuerySet::new(MotionConfig {
        count: shape.min_points + (j as usize) % shape.span,
        step: 0.002,
        universe: universe(),
        start_box: 0.03,
        seed: derive(seed, Stream::Motion, j),
    })
}

/// A session's motion: a seeded path of [`PACE_STEPS`] single-object moves
/// that the session walks forward, then back, then forward again.
///
/// A free random walk lets the objects of a session drift apart, `MBR(Q)`
/// and with it `|S(Q)|` grow several-fold within a window, and one session
/// that wanders into a cluster core then decides the run. Pacing keeps
/// every move a small step of the seeded stream while the session stays in
/// the size class it was selected for.
#[derive(Clone, Debug)]
pub struct Pacer {
    /// `(object, where it moves to, where it was)` per step of the path.
    steps: Vec<(usize, Point, Point)>,
    positions: Vec<Point>,
    /// Steps of the path already walked in the current direction.
    walked: usize,
    forward: bool,
}

/// Moves in a [`Pacer`]'s path before it turns around.
pub const PACE_STEPS: usize = 128;

impl Pacer {
    /// The pacer of candidate session `j`.
    pub fn new(shape: &SetShape, seed: u64, j: u64) -> Pacer {
        let mut motion = candidate_motion(shape, seed, j);
        let positions = motion.positions().to_vec();
        let mut at = positions.clone();
        let steps = (0..PACE_STEPS)
            .map(|_| {
                let step = motion.next_update();
                let from = std::mem::replace(&mut at[step.index], step.location);
                (step.index, step.location, from)
            })
            .collect();
        Pacer {
            steps,
            positions,
            walked: 0,
            forward: true,
        }
    }

    /// Where the session's objects are now.
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// Where they start, and where they are after each quarter of the
    /// path.
    pub fn checkpoints(mut self) -> (Vec<Point>, Vec<Vec<Point>>) {
        let start = self.positions.clone();
        let mut later = Vec::new();
        for _ in 0..4 {
            for _ in 0..self.steps.len() / 4 {
                self.next_update();
            }
            later.push(self.positions.clone());
        }
        (start, later)
    }

    /// Moves one object one step along the path and returns the move.
    pub fn next_update(&mut self) -> Update {
        if self.walked == self.steps.len() {
            self.walked = 0;
            self.forward = !self.forward;
        }
        let (index, to, from) = if self.forward {
            self.steps[self.walked]
        } else {
            self.steps[self.steps.len() - 1 - self.walked]
        };
        self.walked += 1;
        let location = if self.forward { to } else { from };
        self.positions[index] = location;
        Update { index, location }
    }
}

/// The distinct query sets of a workload, grouped by size class, with the
/// exact skyline of each.
#[derive(Debug, PartialEq)]
pub struct QuerySets {
    /// The sets, class after class.
    pub sets: Vec<Vec<Point>>,
    /// The candidate index each set was drawn as.
    pub drawn_as: Vec<u64>,
    /// The exact skyline ids of each set on the generation-0 dataset,
    /// ascending.
    pub answers: Vec<Vec<u32>>,
    /// `class_start[c]..class_start[c + 1]` are the sets of class `c`.
    class_start: Vec<usize>,
    /// Cumulative request share up to and including each class.
    cumulative_share: Vec<f64>,
    /// Candidates examined to fill every class.
    pub candidates: u64,
}

/// A kept candidate: the index it was drawn as, its points, its skyline.
type Kept = (u64, Vec<Point>, Vec<u32>);

impl QuerySets {
    /// Draws candidates `0, 1, 2, …` from `make`, answers each with B²S²,
    /// and keeps a candidate when the class its skyline size falls in
    /// still has room, until every class is full. A candidate may bring
    /// further point sets (where a session will be later on its path);
    /// it is kept only if their skylines fall in the same class. Every
    /// kept set is then answered again with VS², which must agree, and
    /// the first [`NAIVE_SPOT_CHECKS`] also with the naive kernel.
    pub fn select(
        classes: &[SizeClass],
        rtree: &RTreeIndex,
        voronoi: &VoronoiIndex,
        mut make: impl FnMut(u64) -> (Vec<Point>, Vec<Vec<Point>>),
    ) -> Result<QuerySets, String> {
        let mut scratch = DistanceScratch::new();
        let mut kept: Vec<Vec<Kept>> = vec![Vec::new(); classes.len()];
        let wanted: usize = classes.iter().map(|c| c.sets).sum();
        let mut have = 0usize;
        let mut j = 0u64;
        let budget = 400 * wanted as u64;
        while have < wanted {
            if j >= budget {
                return Err(format!(
                    "only {have} of {wanted} query sets found in {budget} candidates"
                ));
            }
            let (q, later) = make(j);
            let mut answer_of =
                |q: &[Point]| b2s2_kernel(rtree, &QueryContext::new(q), &mut scratch).skyline;
            let class_of = |size: usize| classes.iter().position(|c| c.lo <= size && size < c.hi);
            let answer = answer_of(&q);
            if let Some(c) = class_of(answer.len()) {
                if kept[c].len() < classes[c].sets
                    && later
                        .iter()
                        .all(|q| class_of(answer_of(q).len()) == Some(c))
                {
                    kept[c].push((j, q, answer));
                    have += 1;
                }
            }
            j += 1;
        }

        let mut out = QuerySets {
            sets: Vec::with_capacity(wanted),
            drawn_as: Vec::with_capacity(wanted),
            answers: Vec::with_capacity(wanted),
            class_start: vec![0],
            cumulative_share: Vec::with_capacity(classes.len()),
            candidates: j,
        };
        let mut share = 0.0;
        for (class, members) in classes.iter().zip(kept) {
            for (drawn_as, q, answer) in members {
                out.sets.push(q);
                out.drawn_as.push(drawn_as);
                out.answers.push(answer);
            }
            out.class_start.push(out.sets.len());
            share += class.share;
            out.cumulative_share.push(share);
        }

        for (i, (q, answer)) in out.sets.iter().zip(&out.answers).enumerate() {
            let ctx = QueryContext::new(q);
            if vs2_kernel(voronoi, &ctx, &mut scratch).skyline != *answer {
                return Err(format!("oracle: VS2 and B2S2 disagree on query set {i}"));
            }
            if i < NAIVE_SPOT_CHECKS
                && naive_sorted_kernel(rtree.points(), &ctx, &mut scratch).skyline != *answer
            {
                return Err(format!("oracle: naive and B2S2 disagree on query set {i}"));
            }
        }
        Ok(out)
    }

    /// The next set a client requests: a class by request share, then a
    /// set of that class uniformly.
    pub fn pick(&self, rng: &mut Xoshiro256) -> usize {
        let u = rng.f64() * self.cumulative_share.last().copied().unwrap_or(1.0);
        let c = self
            .cumulative_share
            .iter()
            .position(|&s| u < s)
            .unwrap_or(self.cumulative_share.len() - 1);
        let (lo, hi) = (self.class_start[c], self.class_start[c + 1]);
        lo + rng.range_usize(hi - lo)
    }

    /// Number of distinct sets.
    pub fn len(&self) -> usize {
        self.sets.len()
    }
}

/// The generator behind the request order of `client`.
pub fn order_rng(seed: u64, client: usize) -> Xoshiro256 {
    Xoshiro256::seed_from_u64(derive(seed, Stream::Order, client as u64))
}

/// The first `n` requests of `client`, as indices into `sets`.
pub fn request_order(sets: &QuerySets, seed: u64, client: usize, n: usize) -> Vec<usize> {
    let mut rng = order_rng(seed, client);
    (0..n).map(|_| sets.pick(&mut rng)).collect()
}

/// `count` delta batches for a dataset of `points` points: half of
/// [`BATCH_OPS`] uniform inserts plus as many distinct random deletes, so
/// the cardinality never drifts and every delete id stays valid whichever
/// generation the batch reaches.
pub fn update_batches(seed: u64, points: usize, count: usize) -> Vec<UpdateBatch> {
    let half = (BATCH_OPS / 2).min(points / 4).max(1);
    (0..count)
        .map(|b| {
            let mut rng = Xoshiro256::seed_from_u64(derive(seed, Stream::Batches, b as u64));
            let inserts = (0..half)
                .map(|_| Point::new(rng.f64(), rng.f64()))
                .collect();
            let mut deletes: Vec<u32> = Vec::with_capacity(half);
            while deletes.len() < half {
                let id = rng.range_usize(points) as u32;
                if !deletes.contains(&id) {
                    deletes.push(id);
                }
            }
            UpdateBatch { inserts, deletes }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Workload;

    fn bits(points: &[Point]) -> Vec<(u64, u64)> {
        points
            .iter()
            .map(|p| (p.x.to_bits(), p.y.to_bits()))
            .collect()
    }

    fn smoke_sets(name: &str, seed: u64) -> QuerySets {
        let w = Workload::find(name, true).expect("workload");
        let points = dataset(w.points, seed);
        let rtree = RTreeIndex::new(&points);
        let voronoi = VoronoiIndex::new(&points).expect("voronoi");
        QuerySets::select(&w.classes, &rtree, &voronoi, |j| {
            (candidate_set(&w.shape, seed, j), Vec::new())
        })
        .expect("sets")
    }

    #[test]
    fn same_seed_same_dataset_other_seed_differs() {
        assert_eq!(bits(&dataset(2000, 42)), bits(&dataset(2000, 42)));
        assert_ne!(bits(&dataset(2000, 42)), bits(&dataset(2000, 43)));
    }

    #[test]
    fn same_seed_same_query_sets_and_request_order() {
        let (a, b, c) = (
            smoke_sets("direct-full", 42),
            smoke_sets("direct-full", 42),
            smoke_sets("direct-full", 43),
        );
        assert_eq!(a, b);
        let flat = |s: &QuerySets| s.sets.iter().flat_map(|q| bits(q)).collect::<Vec<_>>();
        assert_eq!(flat(&a), flat(&b));
        assert_ne!(flat(&a), flat(&c));
        assert_eq!(request_order(&a, 42, 0, 500), request_order(&b, 42, 0, 500));
        assert_ne!(request_order(&a, 42, 0, 500), request_order(&a, 42, 1, 500));
        assert_ne!(request_order(&a, 42, 0, 500), request_order(&a, 43, 0, 500));
    }

    #[test]
    fn fleet_replays_the_direct_full_stream() {
        let (direct, fleet) = (smoke_sets("direct-full", 7), smoke_sets("fleet", 7));
        assert_eq!(direct, fleet);
        assert_eq!(
            request_order(&direct, 7, 1, 200),
            request_order(&fleet, 7, 1, 200)
        );
    }

    #[test]
    fn hot_shapes_sit_on_the_cache_quantum() {
        let w = Workload::find("wire-hot", true).expect("workload");
        let quantum = ContextCache::DEFAULT_QUANTUM;
        for j in 0..30 {
            let q = candidate_set(&w.shape, 42, j);
            assert_eq!(q.len(), 1 + (j as usize) % 3);
            let key = ssq_engine::QueryKey::canonical(&q, quantum);
            let mut back = bits(&key.representative_points(quantum));
            let mut own = bits(&q);
            back.sort_unstable();
            own.sort_unstable();
            assert_eq!(back, own, "shape {j} is not its own representative");
        }
    }

    #[test]
    fn same_seed_same_update_batches() {
        let flat = |seed| {
            update_batches(seed, 4000, 5)
                .into_iter()
                .map(|b| (bits(&b.inserts), b.deletes))
                .collect::<Vec<_>>()
        };
        assert_eq!(flat(42), flat(42));
        assert_ne!(flat(42), flat(43));
        for batch in update_batches(42, 4000, 5) {
            assert_eq!(batch.inserts.len(), BATCH_OPS / 2);
            assert!(batch.validate(4000).is_ok());
        }
    }

    #[test]
    fn same_seed_same_motion_stream() {
        let w = Workload::find("moving", true).expect("workload");
        let run = |seed| {
            let mut m = Pacer::new(&w.shape, seed, 3);
            let start = bits(m.positions());
            let moves: Vec<(usize, u64, u64)> = (0..2 * PACE_STEPS)
                .map(|_| m.next_update())
                .map(|u| (u.index, u.location.x.to_bits(), u.location.y.to_bits()))
                .collect();
            // Forward then back along the path brings every object home.
            assert_eq!(bits(m.positions()), start);
            (start, moves)
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }
}
