//! Counting-allocator proof of the zero-allocation claim.
//!
//! This integration test binary installs a `#[global_allocator]` that
//! counts every heap allocation, warms a `DistanceScratch` arena on a
//! workload, and then asserts that steady-state queries through the
//! allocation-free core (`naive_sorted_into`) perform **zero** heap
//! allocations — not "few", zero. The scope is the kernel itself: the
//! wrapper entry points (`naive_sorted_kernel` etc.) still materialize
//! one `Vec<u32>` for the returned skyline, which is API surface, not
//! kernel cost, and is covered by the per-query `allocations` counter
//! elsewhere.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

// Per thread, so the tests of this binary can run side by side without
// counting each other's allocations. `const` initializers and no
// destructors: reading these never allocates or registers anything.
thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Largest single request (bytes) since the last `reset_largest`.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn record(size: usize) {
    ALLOCS.with(|c| c.set(c.get() + 1));
    LARGEST.with(|c| c.set(c.get().max(size)));
}

// SAFETY: delegates every operation to `System`, which upholds the
// `GlobalAlloc` contract; the counter updates have no effect on
// allocation semantics.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds the `GlobalAlloc::alloc` contract
    // (non-zero-sized layout); forwarded verbatim to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    // SAFETY: caller passes a pointer previously returned by `alloc`
    // with the same layout, which is exactly `System::dealloc`'s
    // contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: caller upholds the `GlobalAlloc::realloc` contract;
    // forwarded verbatim to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn heap_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn reset_largest() {
    LARGEST.with(|c| c.set(0));
}

fn largest_request() -> usize {
    LARGEST.with(Cell::get)
}

use ssq_core::{
    naive_sorted_into, ContinuousSkyline, DistanceScratch, QueryContext, QueryStats, UpdateOutcome,
    VoronoiIndex,
};
use ssq_geom::Point;
use ssq_workload::motion::{MotionConfig, MovingQuerySet, Update};
use ssq_workload::usgs::uniform_points;

struct XorShift(u64);

impl XorShift {
    fn next_f64(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[test]
fn warm_kernel_core_performs_zero_heap_allocations() {
    let mut rng = XorShift(0xDECAF | 1);
    let points: Vec<Point> = (0..500)
        .map(|_| Point::new(rng.next_f64() * 100.0, rng.next_f64() * 100.0))
        .collect();
    let queries: Vec<Vec<Point>> = (0..6)
        .map(|i| {
            (0..(1 + i % 3) * 2 + 1)
                .map(|_| Point::new(10.0 + rng.next_f64() * 80.0, 10.0 + rng.next_f64() * 80.0))
                .collect()
        })
        .collect();
    // Contexts are built up front: context construction (hull, anchor
    // copies) is per-query-set setup the engine also does once and
    // caches, not per-candidate kernel work.
    let ctxs: Vec<QueryContext> = queries.iter().map(|q| QueryContext::new(q)).collect();

    let mut scratch = DistanceScratch::new();
    let mut stats = QueryStats::default();

    // Warm-up: grow the arena to the workload's widest shape.
    for ctx in &ctxs {
        naive_sorted_into(&points, ctx, &mut scratch, &mut stats);
    }

    // Steady state: three full passes, zero heap traffic allowed.
    let before = heap_allocs();
    let mut total = 0usize;
    for _ in 0..3 {
        for ctx in &ctxs {
            total += naive_sorted_into(&points, ctx, &mut scratch, &mut stats);
        }
    }
    let after = heap_allocs();
    assert!(total > 0, "queries must produce skylines");
    assert_eq!(
        after - before,
        0,
        "warm kernel core must not touch the heap ({} allocations in {} queries)",
        after - before,
        ctxs.len() * 3
    );
    assert_eq!(
        scratch.take_allocations(),
        0,
        "arena must not regrow when warm"
    );
}

#[test]
fn warm_session_makes_no_point_count_sized_allocation() {
    // The point of VCS² is that an update costs what the move disturbs,
    // not `|P|`: the session's marks, heap and rows live in its own arena
    // and are reused, so once warm no single request reaches `|P|` bytes
    // (one `bool` per site) — recomputations included.
    let n = 20_000;
    let index = VoronoiIndex::new(&uniform_points(n, 17)).expect("distinct points");
    // Steps of 10 % of the universe, as in
    // `tests/continuous.rs::large_steps_force_recomputations`: complex
    // hull changes, hence `Recomputed` outcomes, are common.
    let mut team = MovingQuerySet::new(MotionConfig {
        count: 4,
        step: 0.1,
        start_box: 0.2,
        seed: 3,
        ..MotionConfig::default()
    });
    let mut session = ContinuousSkyline::new(&index, team.positions());
    let start: Vec<Point> = team.positions().to_vec();
    let script: Vec<Update> = (0..60).map(|_| team.next_update()).collect();
    let play = |session: &mut ContinuousSkyline<&VoronoiIndex>| {
        let outcomes: Vec<UpdateOutcome> = script
            .iter()
            .map(|up| session.update(up.index, up.location).0)
            .collect();
        // Back to the opening positions, so the next pass replays the
        // same states.
        for (obj, &loc) in start.iter().enumerate() {
            session.update(obj, loc);
        }
        outcomes
    };

    // Warm-up: the arena grows to the script's high-water mark.
    play(&mut session);

    reset_largest();
    let outcomes = play(&mut session);
    let largest = largest_request();
    assert!(
        outcomes.contains(&UpdateOutcome::Recomputed)
            && outcomes.contains(&UpdateOutcome::Incremental),
        "the script must exercise both non-trivial paths: {outcomes:?}"
    );
    assert!(
        largest < n,
        "a warm session requested {largest} bytes at once on {n} points"
    );
}
