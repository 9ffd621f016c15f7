//! The LRU query-context cache.
//!
//! Building a [`QueryContext`] means computing `CH(Q)` and its anchor
//! list; a serving engine sees the same handful of query sets over and
//! over (the same team of friends re-asking as one member drives around),
//! so contexts are worth caching. The interesting part is the key.
//!
//! # Cache-key semantics
//!
//! Theorem 2 of the paper: the spatial skyline depends **only on the
//! vertices of `CH(Q)`** — interior query points are irrelevant. The key
//! is therefore the canonicalized hull of `Q`:
//!
//! 1. compute the convex hull of the query set,
//! 2. quantize each vertex coordinate to a grid (default `1e-9`),
//! 3. sort the quantized vertices lexicographically.
//!
//! Since the engine serves a *versioned* dataset (see
//! [`snapshot`](crate::snapshot)), every entry is additionally scoped by
//! the snapshot **generation** it was computed against: the full key is
//! `(generation, QueryKey)`. A reindex therefore needs no global cache
//! flush — entries of retired generations simply stop being looked up
//! and die by LRU eviction as new-generation traffic displaces them.
//!
//! Consequences, by construction:
//!
//! * permuting `Q` hits the same entry;
//! * duplicating query points hits the same entry;
//! * adding or moving *interior* query points hits the same entry — the
//!   cached context's `query()` may differ from the submitted `Q`, but
//!   every algorithm's result only depends on `anchors()`, which agree;
//! * two query sets whose hull vertices differ by less than the quantum
//!   collide; the entry built first wins. The default quantum (`1e-9` of
//!   a coordinate unit) only merges hulls that are equal up to
//!   floating-point noise. A coarser quantum trades exactness for hit
//!   rate — that is a deliberate knob, not an accident.

use crate::sync::{RankedMutex, RANK_CONTEXT_CACHE};
use ssq_core::{KeyScratch, QueryContext};
use ssq_geom::Point;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

// The key lives in `ssq-core` (see its module docs) so the skyline
// diagram can index materialized cells by it without a dependency cycle;
// it is re-exported here because this cache is where its semantics are
// load-bearing.
pub use ssq_core::QueryKey;

/// The full cache key: which dataset generation the context was built
/// for, plus the canonicalized query key.
///
/// A [`QueryContext`] is derived from `Q` alone today, but scoping
/// entries by generation makes the dataset lifetime part of the cache
/// contract: contexts belonging to retired generations stop being hit
/// the moment a new snapshot is published, and are reclaimed by normal
/// LRU pressure rather than an explicit flush.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey {
    /// Snapshot generation the entry is scoped to.
    pub generation: u64,
    /// Canonicalized query key within that generation.
    pub query: QueryKey,
}

struct Slot {
    ctx: Arc<QueryContext>,
    /// Tick of the most recent touch; also the slot's key into `order`.
    tick: u64,
}

struct Inner {
    map: HashMap<CacheKey, Slot>,
    /// Recency index: tick → key. The smallest tick is the LRU victim.
    order: BTreeMap<u64, CacheKey>,
    tick: u64,
}

impl Inner {
    /// Refreshes `key`'s recency and returns its context, or `None` when
    /// the key is absent.
    fn touch(&mut self, key: &CacheKey) -> Option<Arc<QueryContext>> {
        let slot = self.map.get_mut(key)?;
        self.tick += 1;
        self.order.remove(&slot.tick);
        slot.tick = self.tick;
        self.order.insert(self.tick, key.clone());
        Some(Arc::clone(&slot.ctx))
    }
}

/// A thread-safe LRU cache of [`QueryContext`]s keyed by
/// `(generation, QueryKey)`.
pub struct ContextCache {
    capacity: usize,
    quantum: f64,
    inner: RankedMutex<Inner>,
}

impl ContextCache {
    /// Default coordinate quantum: merges only floating-point noise.
    pub const DEFAULT_QUANTUM: f64 = 1e-9;

    /// A cache holding at most `capacity` contexts (capacity ≥ 1).
    pub fn new(capacity: usize, quantum: f64) -> ContextCache {
        assert!(capacity > 0, "cache capacity must be nonzero");
        assert!(quantum > 0.0, "quantum must be positive");
        ContextCache {
            capacity,
            quantum,
            inner: RankedMutex::new(
                "engine.cache",
                RANK_CONTEXT_CACHE,
                Inner {
                    map: HashMap::new(),
                    order: BTreeMap::new(),
                    tick: 0,
                },
            ),
        }
    }

    /// The cache lock's `(name, rank)`, for lock-order assertions.
    pub fn lock_info(&self) -> (&'static str, u32) {
        (self.inner.name(), self.inner.rank())
    }

    /// The cached context for `q` under snapshot `generation`, building
    /// and inserting it on a miss.
    ///
    /// Returns `(context, hit)`; `hit` is `true` when the context came
    /// from the cache. The miss path builds the context *outside* the
    /// lock candidate-free: the hull pass needed for the key is the same
    /// work, so a duplicate build on a racing miss is possible but
    /// harmless (last writer wins, both callers get a valid context).
    /// Entries of other generations never match; after a snapshot swap
    /// they age out through LRU eviction as the new generation's
    /// working set fills the cache.
    ///
    /// A query with a hull vertex off the key grid (a quantized
    /// coordinate outside `i64`) has no key: its context is built
    /// uncached and returned with `hit = false`, and the cache is left as
    /// it was.
    pub fn get_or_build(&self, generation: u64, q: &[Point]) -> (Arc<QueryContext>, bool) {
        let Some(key) = self.key(generation, q) else {
            return (Arc::new(QueryContext::new(q)), false);
        };
        {
            let mut inner = self.inner.lock();
            if let Some(ctx) = inner.touch(&key) {
                return (ctx, true);
            }
        }
        let ctx = Arc::new(QueryContext::new(q));
        let mut inner = self.inner.lock();
        if let Some(ctx) = inner.touch(&key) {
            // A racing thread inserted the same key first; keep its entry.
            return (ctx, true);
        }
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.insert(
            key.clone(),
            Slot {
                ctx: Arc::clone(&ctx),
                tick,
            },
        );
        inner.order.insert(tick, key);
        while inner.map.len() > self.capacity {
            let Some((&victim_tick, _)) = inner.order.iter().next() else {
                break; // order empty: nothing left to evict
            };
            if let Some(victim) = inner.order.remove(&victim_tick) {
                inner.map.remove(&victim);
            }
        }
        (ctx, false)
    }

    /// `true` when `q`'s canonical key is cached for `generation` (never
    /// for a query off the key grid). Does not touch recency.
    pub fn contains(&self, generation: u64, q: &[Point]) -> bool {
        self.key(generation, q)
            .is_some_and(|key| self.inner.lock().map.contains_key(&key))
    }

    /// `q`'s full key under `generation`; `None` when a hull vertex of
    /// `q` lies off the key grid.
    fn key(&self, generation: u64, q: &[Point]) -> Option<CacheKey> {
        let mut scratch = KeyScratch::new();
        let cells = QueryKey::canonical_cells_into(q, self.quantum, &mut scratch)?;
        Some(CacheKey {
            generation,
            query: QueryKey::from_cells(cells.to_vec()),
        })
    }

    /// Number of cached contexts scoped to `generation` — how much of
    /// the cache a given dataset generation still occupies.
    pub fn len_for_generation(&self, generation: u64) -> usize {
        self.inner
            .lock()
            .map
            .keys()
            .filter(|k| k.generation == generation)
            .count()
    }

    /// Number of cached contexts.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured coordinate quantum.
    pub fn quantum(&self) -> f64 {
        self.quantum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(pts: &[(f64, f64)]) -> Vec<Point> {
        pts.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    #[test]
    fn permuted_query_sets_share_a_key() {
        let quantum = ContextCache::DEFAULT_QUANTUM;
        let a = QueryKey::canonical(&q(&[(0.0, 0.0), (1.0, 0.0), (0.5, 1.0)]), quantum);
        let b = QueryKey::canonical(&q(&[(0.5, 1.0), (0.0, 0.0), (1.0, 0.0)]), quantum);
        assert_eq!(a, b);
    }

    #[test]
    fn interior_query_points_do_not_change_the_key() {
        // Theorem 2: the skyline ignores interior query points, so the
        // cache may too.
        let quantum = ContextCache::DEFAULT_QUANTUM;
        let hull_only = q(&[(0.0, 0.0), (1.0, 0.0), (0.5, 1.0)]);
        let with_interior = q(&[(0.0, 0.0), (1.0, 0.0), (0.5, 1.0), (0.5, 0.3), (0.4, 0.2)]);
        assert_eq!(
            QueryKey::canonical(&hull_only, quantum),
            QueryKey::canonical(&with_interior, quantum)
        );
    }

    #[test]
    fn duplicate_query_points_do_not_change_the_key() {
        let quantum = ContextCache::DEFAULT_QUANTUM;
        let once = q(&[(0.0, 0.0), (1.0, 1.0)]);
        let twice = q(&[(0.0, 0.0), (1.0, 1.0), (0.0, 0.0)]);
        assert_eq!(
            QueryKey::canonical(&once, quantum),
            QueryKey::canonical(&twice, quantum)
        );
    }

    #[test]
    fn distinct_hulls_get_distinct_keys() {
        let quantum = ContextCache::DEFAULT_QUANTUM;
        let a = QueryKey::canonical(&q(&[(0.0, 0.0), (1.0, 0.0), (0.5, 1.0)]), quantum);
        let b = QueryKey::canonical(&q(&[(0.0, 0.0), (1.0, 0.0), (0.5, 2.0)]), quantum);
        assert_ne!(a, b);
    }

    #[test]
    fn quantization_merges_noise_but_not_structure() {
        let a = QueryKey::canonical(&q(&[(0.0, 0.0), (1.0, 1.0)]), 1e-6);
        let noisy = QueryKey::canonical(&q(&[(1e-9, -1e-9), (1.0 + 1e-9, 1.0)]), 1e-6);
        let moved = QueryKey::canonical(&q(&[(0.0, 0.0), (1.0, 1.001)]), 1e-6);
        assert_eq!(a, noisy);
        assert_ne!(a, moved);
    }

    #[test]
    fn hit_and_miss_are_reported() {
        let cache = ContextCache::new(8, ContextCache::DEFAULT_QUANTUM);
        let qa = q(&[(0.0, 0.0), (1.0, 0.0), (0.5, 1.0)]);
        let (_, hit) = cache.get_or_build(0, &qa);
        assert!(!hit, "first lookup must miss");
        let (_, hit) = cache.get_or_build(0, &qa);
        assert!(hit, "second lookup must hit");
        // A permutation with an extra interior point is still a hit.
        let qb = q(&[(0.5, 1.0), (0.5, 0.3), (1.0, 0.0), (0.0, 0.0)]);
        let (ctx, hit) = cache.get_or_build(0, &qb);
        assert!(hit, "canonically-equal query must hit");
        // The cached context is the one built from the FIRST query seen
        // for this key — anchors agree, raw query() may not.
        assert_eq!(ctx.query().len(), 3);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn a_query_off_the_key_grid_is_built_uncached() {
        let cache = ContextCache::new(4, ContextCache::DEFAULT_QUANTUM);
        let qa = q(&[(0.0, 0.0), (1.0, 0.0), (0.5, 1.0)]);
        cache.get_or_build(0, &qa);
        let far = q(&[(-1e300, 0.0), (1e300, 0.0)]);
        for _ in 0..2 {
            let (ctx, hit) = cache.get_or_build(0, &far);
            assert!(!hit);
            assert_eq!(ctx.anchors().len(), 2);
        }
        assert!(!cache.contains(0, &far));
        assert_eq!(cache.len(), 1);
        assert!(cache.get_or_build(0, &qa).1, "the LRU was disturbed");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = ContextCache::new(2, ContextCache::DEFAULT_QUANTUM);
        let qa = q(&[(0.0, 0.0), (1.0, 0.0)]);
        let qb = q(&[(0.0, 0.0), (2.0, 0.0)]);
        let qc = q(&[(0.0, 0.0), (3.0, 0.0)]);
        cache.get_or_build(0, &qa);
        cache.get_or_build(0, &qb);
        // Touch A so B becomes the LRU victim.
        assert!(cache.get_or_build(0, &qa).1);
        cache.get_or_build(0, &qc);
        assert_eq!(cache.len(), 2);
        assert!(cache.contains(0, &qa), "recently-touched entry evicted");
        assert!(!cache.contains(0, &qb), "LRU entry survived eviction");
        assert!(cache.contains(0, &qc));
    }

    #[test]
    fn capacity_one_still_works() {
        let cache = ContextCache::new(1, ContextCache::DEFAULT_QUANTUM);
        let qa = q(&[(0.0, 0.0), (1.0, 0.0)]);
        let qb = q(&[(0.0, 0.0), (2.0, 0.0)]);
        assert!(!cache.get_or_build(0, &qa).1);
        assert!(cache.get_or_build(0, &qa).1);
        assert!(!cache.get_or_build(0, &qb).1);
        assert!(!cache.contains(0, &qa));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn generations_scope_entries() {
        let cache = ContextCache::new(8, ContextCache::DEFAULT_QUANTUM);
        let qa = q(&[(0.0, 0.0), (1.0, 0.0), (0.5, 1.0)]);
        assert!(!cache.get_or_build(0, &qa).1);
        // The same query under a newer generation is a MISS: contexts do
        // not leak across snapshot swaps.
        assert!(!cache.get_or_build(1, &qa).1);
        assert!(cache.get_or_build(1, &qa).1);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.len_for_generation(0), 1);
        assert_eq!(cache.len_for_generation(1), 1);
        assert!(cache.contains(0, &qa));
        assert!(cache.contains(1, &qa));
        assert!(!cache.contains(2, &qa));
    }

    #[test]
    fn old_generation_entries_die_by_lru_pressure() {
        let cache = ContextCache::new(4, ContextCache::DEFAULT_QUANTUM);
        let sets: Vec<Vec<Point>> = (0..4)
            .map(|i| q(&[(0.0, 0.0), (1.0 + i as f64, 0.0), (0.5, 1.0)]))
            .collect();
        for s in &sets {
            cache.get_or_build(0, s);
        }
        assert_eq!(cache.len_for_generation(0), 4);
        // A "swap": the same working set now arrives under generation 1.
        // Without any explicit flush, the old generation's entries are
        // displaced one by one until none remain.
        for s in &sets {
            cache.get_or_build(1, s);
        }
        assert_eq!(cache.len(), 4, "capacity must be respected");
        assert_eq!(
            cache.len_for_generation(0),
            0,
            "stale generation survived LRU pressure"
        );
        assert_eq!(cache.len_for_generation(1), 4);
    }
}
