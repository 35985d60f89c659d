//! Shared measurement utilities.

use li_obs::{Histogram, HistogramSnapshot};
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

/// Mean/p50/p99 summary of a per-operation latency series, derived
/// from an [`li_obs::Histogram`] snapshot — the single quantile engine
/// shared by every latency-reporting experiment (`repro wal`,
/// `repro stats`), replacing per-bench sort-based
/// percentile code. Quantile estimates inherit the histogram's error
/// bound: each lands in the same bucket as the true rank-order sample
/// (within ~3.2% above 64 ns, exact below).
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencySummary {
    /// Samples recorded.
    pub count: u64,
    /// Arithmetic mean in nanoseconds (0.0 when empty).
    pub mean_ns: f64,
    /// Median in nanoseconds.
    pub p50_ns: u64,
    /// 99th percentile in nanoseconds.
    pub p99_ns: u64,
}

impl LatencySummary {
    /// Summarize a frozen snapshot.
    pub fn from_snapshot(s: &HistogramSnapshot) -> Self {
        LatencySummary {
            count: s.count(),
            mean_ns: s.mean(),
            p50_ns: s.value_at_quantile(0.5),
            p99_ns: s.value_at_quantile(0.99),
        }
    }

    /// Snapshot and summarize a live histogram.
    pub fn of(hist: &Histogram) -> Self {
        Self::from_snapshot(&hist.snapshot())
    }
}

/// Time `f(q)` per *call* (not per batch): each call's nanoseconds are
/// recorded into an li-obs histogram and the mean/p50/p99 summary is
/// returned — the same ns units as [`time_batch_ns`]. Use this when
/// the latency *distribution* matters (tail behaviour under
/// contention); use `time_batch_ns` when only the mean does, since the
/// per-call `Instant` reads here add a few ns to every operation. A
/// short warm-up precedes the measured pass; the accumulated result is
/// black-boxed so the compiler cannot elide the work.
pub fn time_each_ns<Q: Copy>(queries: &[Q], mut f: impl FnMut(Q) -> usize) -> LatencySummary {
    assert!(!queries.is_empty());
    let hist = Histogram::new();
    let mut acc = 0usize;
    for &q in queries.iter().take((queries.len() / 10).max(1)) {
        acc = acc.wrapping_add(f(q));
    }
    for &q in queries {
        let t0 = Instant::now();
        acc = acc.wrapping_add(f(q));
        hist.record_since(t0);
    }
    std::hint::black_box(acc);
    LatencySummary::of(&hist)
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

    #[test]
    fn per_op_timing_summarizes_every_query() {
        let queries: Vec<u64> = (0..1000).collect();
        let s = time_each_ns(&queries, |q| q as usize * 2);
        assert_eq!(s.count, queries.len() as u64, "one sample per query");
        assert!(s.mean_ns > 0.0, "{s:?}");
        // Quantiles are monotone in q by construction.
        assert!(s.p50_ns <= s.p99_ns, "{s:?}");
    }

    #[test]
    fn latency_summary_of_known_samples() {
        let h = Histogram::new();
        for v in [10u64, 20, 30, 40] {
            h.record(v);
        }
        let s = LatencySummary::of(&h);
        assert_eq!(s.count, 4);
        assert!((s.mean_ns - 25.0).abs() < 1e-12);
        // Values below 64 recover exactly from the histogram.
        assert_eq!(s.p50_ns, 20);
        assert_eq!(s.p99_ns, 40);
        let empty = LatencySummary::of(&Histogram::new());
        assert_eq!((empty.count, empty.p99_ns), (0, 0));
    }
}
