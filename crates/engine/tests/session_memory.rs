//! Live-heap proof that an open session costs what its query set and its
//! answer cost, not what the dataset costs.
//!
//! This test binary installs a `#[global_allocator]` that keeps a running
//! count of live heap bytes (allocations add, deallocations subtract),
//! opens 64 continuous sessions on a warm engine, moves every one of them
//! through VS² reruns, and bounds what the open sessions still hold. A
//! session that kept an arena of its own would hold at least one `u32`
//! traversal mark per site, `64 × 4 × site_bound` bytes in all; sessions
//! that borrow the draining worker's arena hold their query sets, hulls,
//! answers and queues.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

struct LiveBytes;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: delegates every operation to `System`, which upholds the
// `GlobalAlloc` contract; the counter updates have no effect on
// allocation semantics.
unsafe impl GlobalAlloc for LiveBytes {
    // SAFETY: caller upholds the `GlobalAlloc::alloc` contract
    // (non-zero-sized layout); forwarded verbatim to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: caller passes a pointer previously returned by `alloc`
    // with the same layout, which is exactly `System::dealloc`'s
    // contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    // SAFETY: caller upholds the `GlobalAlloc::realloc` contract;
    // forwarded verbatim to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

fn live_bytes() -> isize {
    LIVE.load(Ordering::Relaxed)
}

use ssq_core::UpdateOutcome;
use ssq_engine::{Engine, EngineConfig, SessionId};
use ssq_workload::motion::{MotionConfig, MovingQuerySet};
use ssq_workload::usgs::uniform_points;

const SESSIONS: usize = 64;

/// What 64 open sessions, each moved ten times, may still hold: 512 KiB,
/// 8 KiB a session. The per-site marks alone of 64 session-owned arenas
/// are ten times that at 20 000 points.
const BOUND: isize = 512 * 1024;

#[test]
fn sixty_four_open_sessions_hold_no_per_site_arena() {
    let engine = Engine::new(
        &uniform_points(20_000, 17),
        EngineConfig::default().with_workers(2),
    )
    .expect("distinct points");
    let site_bound = engine.snapshot().voronoi().site_bound();
    // Steps of 10 % of the universe, as in `zero_alloc.rs`'s session
    // test: both `Incremental` and `Recomputed` reruns are common.
    let team = |seed: u64| {
        MovingQuerySet::new(MotionConfig {
            count: 4,
            step: 0.1,
            start_box: 0.2,
            seed,
            ..MotionConfig::default()
        })
    };
    let drive = |id: SessionId, motion: &mut MovingQuerySet, outcomes: &mut Vec<_>| {
        for _ in 0..10 {
            let up = motion.next_update();
            let update = engine.update_session(id, up.index, up.location);
            outcomes.push(update.expect("session open").wait().outcome);
        }
    };

    // Warm-up: a session's reruns grow the draining workers' arenas to
    // this index's site bound; the workers keep them.
    let mut outcomes = Vec::new();
    for seed in 1000..1004 {
        let mut motion = team(seed);
        let id = engine.open_session(motion.positions());
        drive(id, &mut motion, &mut outcomes);
        assert!(engine.close_session(id));
    }

    let before = live_bytes();
    let mut sessions: Vec<(SessionId, MovingQuerySet)> = (0..SESSIONS as u64)
        .map(|seed| {
            let motion = team(seed);
            (engine.open_session(motion.positions()), motion)
        })
        .collect();
    outcomes.clear();
    for (id, motion) in &mut sessions {
        drive(*id, motion, &mut outcomes);
    }
    let held = live_bytes() - before;

    assert!(
        outcomes.contains(&UpdateOutcome::Recomputed)
            && outcomes.contains(&UpdateOutcome::Incremental),
        "the moves must exercise both kinds of rerun"
    );
    let owned_marks = (SESSIONS * 4 * site_bound) as isize;
    assert!(
        held < BOUND,
        "{SESSIONS} open sessions hold {held} heap bytes (bound {BOUND}; \
         session-owned marks alone would be {owned_marks})"
    );
    for (id, _) in sessions {
        assert!(engine.close_session(id));
    }
}
