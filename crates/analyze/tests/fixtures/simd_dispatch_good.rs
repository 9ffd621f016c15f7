// Fixture: must NOT trigger `simd-dispatch-guard`. The kernel is
// reached only through the wrapper installed in a `Dispatch` table
// (the table install is the proof the runtime capability check gates
// it), and kernels may call same-family kernels freely — including a
// range kernel that loops over tiles and calls the per-tile kernel, the
// shape of `first_dominator_avx2`. Not compiled; lexed only.

// SAFETY: reachable only through the AVX2 dispatch table, installed
// after `is_x86_feature_detected!("avx2")`.
#[target_feature(enable = "avx2")]
unsafe fn sum_lanes_avx2(xs: &[f64]) -> f64 {
    // SAFETY: same feature family; already behind the capability check.
    unsafe { pair_sum_avx2(xs) }
}

// SAFETY: only called from `sum_lanes_avx2`, which the dispatch table
// gates behind the AVX2 capability check.
#[target_feature(enable = "avx2")]
unsafe fn pair_sum_avx2(xs: &[f64]) -> f64 {
    let mut acc = 0.0;
    for x in xs {
        acc += *x;
    }
    acc
}

fn sum_avx2(xs: &[f64]) -> f64 {
    // SAFETY: this wrapper is installed in the AVX2 dispatch table,
    // selected only after `is_x86_feature_detected!("avx2")`.
    unsafe { sum_lanes_avx2(xs) }
}

// SAFETY: reachable only through the AVX2 dispatch table, installed
// after `is_x86_feature_detected!("avx2")`.
#[target_feature(enable = "avx2")]
unsafe fn first_positive_lanes_avx2(width: usize, tiles: &[f64]) -> Option<usize> {
    for (t, tile) in tiles.chunks_exact(width).enumerate() {
        // SAFETY: same feature family; already behind the capability check.
        if unsafe { sum_lanes_avx2(tile) } > 0.0 {
            return Some(t);
        }
    }
    None
}

fn first_positive_avx2(width: usize, tiles: &[f64]) -> Option<usize> {
    // SAFETY: this wrapper is installed in the AVX2 dispatch table,
    // selected only after `is_x86_feature_detected!("avx2")`.
    unsafe { first_positive_lanes_avx2(width, tiles) }
}

static AVX2: Dispatch = Dispatch {
    path: KernelPath::Avx2,
    sum: sum_avx2,
    first_positive: first_positive_avx2,
};
