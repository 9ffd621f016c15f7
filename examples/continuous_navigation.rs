//! Continuous SSQ over moving query points (paper §5).
//!
//! The motivating scenario "becomes even more challenging when the team
//! members are mobile and change location over time": each GPS report
//! moves one team member, and the list of interesting meeting places must
//! be maintained on the fly. `ContinuousSkyline` classifies each movement
//! by how it changes the convex hull of the team (patterns I–V): a move
//! that leaves the hull alone is free (Theorem 2), any other re-runs VS²
//! on the session's warm arena.
//!
//! Run with: `cargo run --example continuous_navigation`

use spatial_skyline::prelude::*;
use spatial_skyline::workload::motion::{MotionConfig, MovingQuerySet};
use spatial_skyline::workload::usgs::{synthetic_usgs_points, UsgsConfig};

fn main() {
    // The city's restaurants.
    let restaurants = synthetic_usgs_points(&UsgsConfig {
        n: 5000,
        seed: 99,
        ..UsgsConfig::default()
    });
    let index = VoronoiIndex::new(&restaurants).expect("distinct restaurant locations");

    // Five mobile team members streaming GPS updates.
    let mut team = MovingQuerySet::new(MotionConfig {
        count: 5,
        step: 0.008,
        start_box: 0.06,
        seed: 2026,
        ..MotionConfig::default()
    });

    let mut cont = ContinuousSkyline::new(&index, team.positions());
    println!(
        "initial skyline: {} interesting restaurants for the team",
        cont.skyline().len()
    );

    let mut total_stats = QueryStats::default();
    let updates = 500;
    for step in 0..updates {
        let up = team.next_update();
        let (outcome, stats) = cont.update(up.index, up.location);
        total_stats.absorb(&stats);
        if step % 100 == 99 {
            println!(
                "after {:>3} updates: skyline size {:>3}, last outcome {:?}",
                step + 1,
                cont.skyline().len(),
                outcome
            );
        }
    }

    let counts = cont.counts();
    let pct = |x: u64| 100.0 * x as f64 / counts.total() as f64;
    println!(
        "\nprocessed {} single-member location updates:",
        counts.total()
    );
    println!(
        "  pattern I  (hull unchanged, free):        {:>4}  ({:.1}%)",
        counts.unchanged,
        pct(counts.unchanged)
    );
    println!(
        "  patterns II-V (simple change, VS² run):   {:>4}  ({:.1}%)",
        counts.incremental,
        pct(counts.incremental)
    );
    println!(
        "  complex hull change (VS² run):            {:>4}  ({:.1}%)",
        counts.recomputed,
        pct(counts.recomputed)
    );
    println!(
        "\ntotal maintenance work: {} dominance checks, {} graph vertices visited",
        total_stats.dominance_checks, total_stats.entries_visited
    );

    // Verify the maintained skyline against a fresh from-scratch run.
    let fresh = vs2(&index, &QueryContext::new(team.positions()));
    assert_eq!(cont.skyline(), fresh.skyline);
    println!("\nmaintained skyline verified against a fresh VS² recomputation ✓");
}
