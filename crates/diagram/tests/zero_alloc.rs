//! Counting-allocator proof that warm diagram lookups never touch the
//! heap — the property the `ssq-analyze` deny-alloc gate pins
//! statically, pinned here dynamically. Both halves of the served
//! diagram are covered: key cells ([`DiagramConfig::key_cells`], then
//! [`SkylineDiagram::lookup`]) and the single-anchor point location of
//! the Voronoi index ([`VoronoiIndex::nearest_ties`]). One warm-up lookup
//! per query shape sizes the scratch buffers; after that, every hit and
//! every miss must perform zero allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System`, which upholds the
// `GlobalAlloc` contract; the counter increment has no effect on
// allocation semantics.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds the `GlobalAlloc::alloc` contract
    // (non-zero-sized layout); forwarded verbatim to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
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
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn heap_allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

use ssq_core::{naive_full, KeyScratch, QueryContext, VoronoiIndex};
use ssq_diagram::{DiagramConfig, SkylineDiagram};
use ssq_geom::Point;

const QUANTUM: f64 = 1e-9;

#[test]
fn warm_lookups_perform_zero_heap_allocations() {
    let points: Vec<Point> = (0..300)
        .map(|i| {
            Point::new(
                (i % 17) as f64 + 1e-4 * i as f64,
                (i / 17) as f64 + 3e-5 * i as f64,
            )
        })
        .collect();
    let hot: Vec<Vec<Point>> = vec![
        vec![Point::new(3.1, 2.2), Point::new(7.4, 5.9)],
        vec![
            Point::new(1.3, 1.7),
            Point::new(9.2, 3.4),
            Point::new(5.5, 8.1),
        ],
    ];
    let config = DiagramConfig::default();
    let mut diagram = SkylineDiagram::new(&config);
    let mut scratch = KeyScratch::new();
    for q in &hot {
        let cells = config.key_cells(q, QUANTUM, &mut scratch).unwrap();
        let skyline = naive_full(&points, &QueryContext::new(q)).skyline;
        assert!(diagram.admit(0, cells, &skyline));
    }
    let index = VoronoiIndex::new(&points).unwrap();

    let singles: Vec<Vec<Point>> = (0..5)
        .map(|i| vec![Point::new(1.0 + 2.9 * i as f64, 0.5 + 2.7 * i as f64)])
        .collect();
    let miss = vec![Point::new(0.25, 0.75), Point::new(12.5, 9.25)];

    // One key-cell probe, as the engine runs it: canonicalize, then look
    // the key up for the pinned generation.
    let mut probe = |q: &[Point], generation: u64, scratch: &mut KeyScratch| {
        let cells = config.key_cells(q, QUANTUM, scratch)?;
        diagram.lookup(generation, cells).map(<[u32]>::len)
    };

    // Warm-up: one lookup per shape grows the scratch (canonical key
    // cells) and the tie buffer to their high-water marks.
    let mut ties: Vec<u32> = Vec::new();
    for q in &hot {
        assert!(probe(q, 0, &mut scratch).is_some(), "{q:?} missed");
    }
    for q in &singles {
        assert!(probe(q, 0, &mut scratch).is_none());
        index.nearest_ties(q[0], &mut ties);
    }
    assert!(probe(&miss, 0, &mut scratch).is_none());

    // Steady state: key-cell hits, stale-generation misses, cold-key
    // misses and single-anchor hits — zero heap traffic allowed.
    let before = heap_allocs();
    let mut served = 0usize;
    for _ in 0..3 {
        for q in &hot {
            served += probe(q, 0, &mut scratch).unwrap_or(0);
            assert!(probe(q, 1, &mut scratch).is_none());
        }
        for q in &singles {
            assert!(probe(q, 0, &mut scratch).is_none());
            index.nearest_ties(q[0], &mut ties);
            assert!(!ties.is_empty());
            served += ties.len();
        }
        assert!(probe(&miss, 0, &mut scratch).is_none());
    }
    let after = heap_allocs();
    assert!(served > 0, "lookups must produce skylines");
    assert_eq!(
        after - before,
        0,
        "warm diagram lookups must not touch the heap ({} allocations)",
        after - before
    );
}
