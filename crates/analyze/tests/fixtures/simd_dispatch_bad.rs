// Fixture: MUST trigger `simd-dispatch-guard`. The caller even wrote a
// SAFETY comment, so the local `safety-comment` rule is satisfied —
// but nothing proved the CPU capability, and the kernel is not reached
// through a dispatch table. A range kernel (tile loop inside the
// `#[target_feature]` body) is no different: its inner same-family call
// is fine, the undispatched call into it is the second violation.
// Not compiled; lexed only.

// SAFETY: caller proved AVX2 via the dispatch-table capability check.
#[target_feature(enable = "avx2")]
unsafe fn sum_lanes_avx2(xs: &[f64]) -> f64 {
    let mut acc = 0.0;
    for x in xs {
        acc += *x;
    }
    acc
}

pub fn sum(xs: &[f64]) -> f64 {
    // SAFETY: (wrong) nothing checked AVX2 on this path — this call is
    // UB on CPUs without the feature; exactly what the rule flags.
    unsafe { sum_lanes_avx2(xs) }
}

// SAFETY: caller proved AVX2 via the dispatch-table capability check.
#[target_feature(enable = "avx2")]
unsafe fn first_positive_lanes_avx2(width: usize, tiles: &[f64]) -> Option<usize> {
    for (t, tile) in tiles.chunks_exact(width).enumerate() {
        // SAFETY: same feature family; already behind the caller's proof.
        if unsafe { sum_lanes_avx2(tile) } > 0.0 {
            return Some(t);
        }
    }
    None
}

pub fn first_positive(width: usize, tiles: &[f64]) -> Option<usize> {
    // SAFETY: (wrong) no table installs this caller, so nothing checked
    // AVX2 before the whole tile loop runs.
    unsafe { first_positive_lanes_avx2(width, tiles) }
}
