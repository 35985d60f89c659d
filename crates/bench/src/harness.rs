//! Shared measurement utilities.

use std::time::Instant;

/// Common experiment parameters.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Keys per dataset (the paper uses 200M; default here is 2M).
    pub keys: usize,
    /// Lookup queries per measurement.
    pub queries: usize,
    /// RNG seed for data + workload.
    pub seed: u64,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self {
            keys: 2_000_000,
            queries: 200_000,
            seed: 42,
        }
    }
}

impl BenchConfig {
    /// A configuration scaled for quick smoke runs and unit tests.
    pub fn smoke() -> Self {
        Self {
            keys: 50_000,
            queries: 10_000,
            seed: 42,
        }
    }
}

/// Time `f(q)` over every query, returning mean nanoseconds per call.
/// A short warm-up precedes the measured pass; the accumulated result is
/// black-boxed so the compiler cannot elide the work.
pub fn time_batch_ns<Q: Copy>(queries: &[Q], mut f: impl FnMut(Q) -> usize) -> f64 {
    assert!(!queries.is_empty());
    let mut acc = 0usize;
    for &q in queries.iter().take((queries.len() / 10).max(1)) {
        acc = acc.wrapping_add(f(q));
    }
    let t0 = Instant::now();
    for &q in queries {
        acc = acc.wrapping_add(f(q));
    }
    let elapsed = t0.elapsed();
    std::hint::black_box(acc);
    elapsed.as_nanos() as f64 / queries.len() as f64
}

/// Time a *batched* lookup path: `f(chunk, out)` is called once per
/// `chunk_size` slice of the queries with a matching output buffer, and
/// the mean nanoseconds **per query** (not per call) is returned — the
/// same unit as [`time_batch_ns`], so scalar-vs-batched columns compare
/// directly. A short warm-up precedes the measured pass; results are
/// black-boxed so the work cannot be elided.
pub fn time_batch_chunked_ns(
    queries: &[u64],
    chunk_size: usize,
    mut f: impl FnMut(&[u64], &mut [usize]),
) -> f64 {
    assert!(!queries.is_empty());
    let chunk_size = chunk_size.max(1);
    let mut out = vec![0usize; chunk_size];
    // Warm-up over ~10% of the workload.
    for chunk in queries
        .chunks(chunk_size)
        .take((queries.len() / (10 * chunk_size)).max(1))
    {
        f(chunk, &mut out[..chunk.len()]);
    }
    let t0 = Instant::now();
    for chunk in queries.chunks(chunk_size) {
        f(chunk, &mut out[..chunk.len()]);
    }
    let elapsed = t0.elapsed();
    std::hint::black_box(&out);
    elapsed.as_nanos() as f64 / queries.len() as f64
}

/// Same, for borrowed (non-`Copy`) queries such as strings.
pub fn time_batch_ref_ns<Q>(queries: &[Q], mut f: impl FnMut(&Q) -> usize) -> f64 {
    assert!(!queries.is_empty());
    let mut acc = 0usize;
    for q in queries.iter().take((queries.len() / 10).max(1)) {
        acc = acc.wrapping_add(f(q));
    }
    let t0 = Instant::now();
    for q in queries {
        acc = acc.wrapping_add(f(q));
    }
    let elapsed = t0.elapsed();
    std::hint::black_box(acc);
    elapsed.as_nanos() as f64 / queries.len() as f64
}

/// Format a byte count as MB with 2 decimals (the paper's size unit).
pub fn mb(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_batch_returns_positive_ns() {
        let queries: Vec<u64> = (0..1000).collect();
        let ns = time_batch_ns(&queries, |q| q as usize * 2);
        assert!(ns > 0.0 && ns < 1e6, "{ns}");
    }

    #[test]
    fn chunked_batch_visits_every_query_once() {
        let queries: Vec<u64> = (0..1000).collect();
        let mut visited = 0usize;
        let ns = time_batch_chunked_ns(&queries, 128, |chunk, out| {
            visited += chunk.len();
            for (o, &q) in out.iter_mut().zip(chunk) {
                *o = q as usize;
            }
        });
        assert!(ns > 0.0);
        // Measured pass covers every query once; warm-up adds at most
        // one more full pass.
        assert!(visited >= queries.len() && visited <= 2 * queries.len());
    }

    #[test]
    fn ref_variant_works_for_strings() {
        let queries: Vec<String> = (0..100).map(|i| format!("{i}")).collect();
        let ns = time_batch_ref_ns(&queries, |q| q.len());
        assert!(ns > 0.0);
    }

    #[test]
    fn mb_conversion() {
        assert!((mb(1024 * 1024) - 1.0).abs() < 1e-12);
    }
}
