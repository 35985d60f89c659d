//! Order statistics over the samples a run keeps.

/// Median of `v` (sorts it).
pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_unstable_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The exact `q`-quantile of sorted whole-nanosecond samples. The
/// clock truncates, so a sample read as `v` took some time in
/// `[v, v + 1)`; samples tied at `v` are taken as spread evenly over
/// it, which places the quantile inside the tie instead of on its edge.
pub fn quantile(sorted: &[u32], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).clamp(1.0, sorted.len() as f64);
    let v = sorted[rank.ceil() as usize - 1];
    let below = sorted.partition_point(|&x| x < v);
    let through = sorted.partition_point(|&x| x <= v);
    f64::from(v) + (rank - below as f64) / (through - below) as f64
}
