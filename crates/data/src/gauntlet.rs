//! SOSD-style adversarial key distributions: the gauntlet every learned
//! shard is oracle-checked over.
//!
//! "SOSD: A Benchmark for Learned Indexes" (PAPERS.md) showed that the
//! real-world datasets which break naive learned indexes share a few
//! structural signatures: heavy-tailed gap distributions (`books`),
//! hierarchically clustered IDs with huge empty spans (`osm`), dense
//! regions poisoned by extreme outliers (`fb`), and CDFs that are
//! staircases rather than curves. This module generates deterministic
//! stand-ins for each signature, plus a duplicate-heavy multiset (the
//! one shape [`crate::KeySet`] cannot carry, since it deduplicates):
//!
//! * [`books_like`] — Pareto-distributed gaps: long dense runs broken
//!   by occasionally enormous jumps, like cumulative sales ranks.
//! * [`osm_like`] — clustered cell IDs: a few thousand clusters of
//!   wildly varying width and population over a mostly empty 2⁴⁸
//!   domain.
//! * [`fb_like`] — a dense near-uniform ID block with a sprinkle of
//!   extreme outliers that wreck any global (or coarse per-leaf)
//!   linear fit.
//! * [`stepped`] — a pure staircase: long arithmetic runs separated by
//!   huge constant jumps, the worst case for interpolation between
//!   run boundaries.
//! * [`heavy_dup`] — a sorted **multiset**: few distinct values, each
//!   repeated with power-law multiplicity (returned as a raw sorted
//!   `Vec<u64>`, duplicates preserved).
//!
//! Every generator takes `(n, seed)` and is a pure function of both —
//! no ambient RNG state anywhere (the regression tests in this module
//! pin fingerprints so a determinism regression fails loudly). All
//! keys stay below 2⁵³ so `f64` model training is lossless.

use crate::keyset::KeySet;
use li_models::rng::SplitMix64;

/// Keys stay strictly below this bound (2⁵², well under `f64`'s 2⁵³
/// integer-exactness limit, with headroom for probe queries above the
/// last key).
pub const KEY_CEILING: u64 = 1 << 52;

/// Cumulative Pareto(α≈0.85) gaps: most adjacent keys are 1–4 apart,
/// but the heavy tail regularly produces gaps thousands of times the
/// median — the `books` signature (popularity counts). Unique, sorted.
pub fn books_like(n: usize, seed: u64) -> KeySet {
    assert!(n > 0);
    let mut rng = SplitMix64::new(seed ^ 0xB00C_5EED);
    let alpha_inv = 1.0 / 0.85;
    let mut keys = Vec::with_capacity(n);
    let mut cur = 0u64;
    for _ in 0..n {
        // Inverse-CDF Pareto sample, clamped so the running sum stays
        // far below the ceiling even at huge n.
        let u = (1.0 - rng.next_f64()).max(1e-12);
        let gap = u.powf(-alpha_inv).min(1e7) as u64 + 1;
        cur = (cur + gap).min(KEY_CEILING - 1);
        keys.push(cur);
    }
    // The clamp can only saturate at absurd n; dedup defends anyway.
    keys.dedup();
    top_up_unique(keys, n, &mut rng)
}

/// Clustered cell IDs over a mostly empty domain: `≈ n/1024 + 3`
/// cluster centers spread over `[0, 2⁴⁸)`, each holding a
/// power-law-sized population inside a log-uniform width — some
/// clusters are dense arithmetic runs, others sparse sprays. The `osm`
/// signature. Unique, sorted.
pub fn osm_like(n: usize, seed: u64) -> KeySet {
    assert!(n > 0);
    let mut rng = SplitMix64::new(seed ^ 0x05A1_CE11);
    let clusters = (n / 1024 + 3).min(4096);
    let domain = 1u64 << 48;
    let mut keys: Vec<u64> = Vec::with_capacity(n * 2);
    while keys.len() < n {
        for _ in 0..clusters {
            let center = rng.next_u64() % domain;
            // Width log-uniform over [2^4, 2^28).
            let width = 1u64 << (4 + rng.below(24) as u32);
            // Population power-law: a few clusters hold most keys.
            let pop = ((n as f64 / clusters as f64)
                * (1.0 - rng.next_f64()).max(1e-9).powf(-0.5).min(16.0))
            .ceil() as usize;
            for _ in 0..pop.max(1) {
                keys.push((center + rng.next_u64() % width) % domain);
            }
            if keys.len() >= n * 2 {
                break;
            }
        }
        keys.sort_unstable();
        keys.dedup();
    }
    keys.sort_unstable();
    keys.dedup();
    thin_to_exact(keys, n)
}

/// A dense near-uniform ID block (97% of keys in `[0, 8n)`) poisoned
/// by extreme outliers (3% spread over the full `[0, 2⁵⁰)` domain) —
/// the `fb` signature, which collapses any fit that must span the
/// outliers. Unique, sorted.
pub fn fb_like(n: usize, seed: u64) -> KeySet {
    assert!(n > 0);
    let mut rng = SplitMix64::new(seed ^ 0xFB1D_FB1D);
    let dense_span = (8 * n as u64).max(16);
    let outlier_span = 1u64 << 50;
    let mut keys: Vec<u64> = Vec::with_capacity(n * 2);
    while keys.len() < n {
        let missing = n - keys.len();
        for _ in 0..missing + missing / 4 + 8 {
            if rng.next_f64() < 0.03 {
                keys.push(rng.next_u64() % outlier_span);
            } else {
                keys.push(rng.next_u64() % dense_span);
            }
        }
        keys.sort_unstable();
        keys.dedup();
    }
    thin_to_exact(keys, n)
}

/// A pure staircase: `≈ √n` arithmetic runs (stride 1–4) separated by
/// jumps of ~2³⁵ with jitter. The CDF is a flight of steps — between
/// run boundaries a linear model's error is the full run length.
/// Unique, sorted.
pub fn stepped(n: usize, seed: u64) -> KeySet {
    assert!(n > 0);
    let mut rng = SplitMix64::new(seed ^ 0x57E9_57E9);
    let runs = ((n as f64).sqrt().ceil() as usize).clamp(1, n);
    let run_len = n.div_ceil(runs);
    let mut keys = Vec::with_capacity(n);
    let mut cur = rng.next_u64() % (1 << 30);
    while keys.len() < n {
        let stride = 1 + rng.below(4) as u64;
        let len = run_len.min(n - keys.len());
        for _ in 0..len {
            keys.push(cur);
            cur += stride;
        }
        // Huge jump to the next step, jittered so steps never collide.
        cur += (1u64 << 35) + rng.next_u64() % (1 << 34);
    }
    KeySet::from_sorted(keys)
}

/// A sorted **multiset**: `max(n/16, 1)` distinct values, each
/// repeated with power-law multiplicity until `n` keys exist. The only
/// gauntlet shape with duplicates — callers get the raw sorted vector
/// because [`KeySet`] would deduplicate it.
pub fn heavy_dup(n: usize, seed: u64) -> Vec<u64> {
    assert!(n > 0);
    let mut rng = SplitMix64::new(seed ^ 0xD0_D0D0);
    let distinct = (n / 16).max(1);
    let values = crate::keyset::uniform_keys(distinct, KEY_CEILING, seed ^ 0xD1_D1D1);
    let mut keys = Vec::with_capacity(n);
    'fill: loop {
        for &v in values.keys() {
            // Power-law run length: most values appear a few times,
            // a handful appear hundreds of times.
            let reps = ((1.0 - rng.next_f64()).max(1e-9).powf(-0.7).min(512.0)).ceil() as usize;
            for _ in 0..reps {
                keys.push(v);
                if keys.len() == n {
                    break 'fill;
                }
            }
        }
    }
    keys.sort_unstable();
    keys
}

/// Pad a sorted-unique key vector up to exactly `n` keys by appending
/// fresh keys above the current maximum (used when dedup undershot).
fn top_up_unique(mut keys: Vec<u64>, n: usize, rng: &mut SplitMix64) -> KeySet {
    while keys.len() < n {
        let last = keys.last().copied().unwrap_or(0);
        keys.push((last + 1 + rng.below(7) as u64).min(KEY_CEILING - 1));
        keys.dedup();
    }
    KeySet::from_sorted(keys)
}

/// Evenly thin a sorted-unique key vector down to exactly `n` keys
/// (the maps.rs idiom: preserves the distribution's shape).
fn thin_to_exact(keys: Vec<u64>, n: usize) -> KeySet {
    if keys.len() == n {
        return KeySet::from_sorted(keys);
    }
    let len = keys.len();
    let thinned: Vec<u64> = (0..n).map(|i| keys[i * len / n]).collect();
    KeySet::from_sorted(thinned)
}

/// The gauntlet distributions, by name — the adversarial coverage
/// matrix `tests/prop_gauntlet.rs` runs the sharded index and the store
/// over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gauntlet {
    /// Pareto-gap cumulative keys (`books` signature).
    BooksLike,
    /// Clustered cell IDs over an empty domain (`osm` signature).
    OsmLike,
    /// Dense block + extreme outliers (`fb` signature).
    FbLike,
    /// Staircase CDF of arithmetic runs and huge jumps.
    Stepped,
    /// Duplicate-heavy sorted multiset.
    HeavyDup,
}

impl Gauntlet {
    /// Every gauntlet distribution, in display order.
    pub const ALL: [Gauntlet; 5] = [
        Gauntlet::BooksLike,
        Gauntlet::OsmLike,
        Gauntlet::FbLike,
        Gauntlet::Stepped,
        Gauntlet::HeavyDup,
    ];

    /// Display name (SOSD-style lowercase).
    pub fn name(&self) -> &'static str {
        match self {
            Gauntlet::BooksLike => "books-like",
            Gauntlet::OsmLike => "osm-like",
            Gauntlet::FbLike => "fb-like",
            Gauntlet::Stepped => "stepped",
            Gauntlet::HeavyDup => "heavy-dup",
        }
    }

    /// Whether the distribution is a multiset (contains duplicates).
    pub fn is_multiset(&self) -> bool {
        matches!(self, Gauntlet::HeavyDup)
    }

    /// Generate exactly `n` sorted keys with the given seed. Every
    /// distribution except [`Gauntlet::HeavyDup`] is duplicate-free.
    pub fn generate(&self, n: usize, seed: u64) -> Vec<u64> {
        match self {
            Gauntlet::BooksLike => books_like(n, seed).keys().to_vec(),
            Gauntlet::OsmLike => osm_like(n, seed).keys().to_vec(),
            Gauntlet::FbLike => fb_like(n, seed).keys().to_vec(),
            Gauntlet::Stepped => stepped(n, seed).keys().to_vec(),
            Gauntlet::HeavyDup => heavy_dup(n, seed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_distribution_generates_exact_sorted_keys() {
        for g in Gauntlet::ALL {
            for n in [1usize, 2, 17, 1000, 20_000] {
                let keys = g.generate(n, 42);
                assert_eq!(keys.len(), n, "{} n={n}", g.name());
                assert!(
                    keys.windows(2).all(|w| w[0] <= w[1]),
                    "{} n={n}: unsorted",
                    g.name()
                );
                if !g.is_multiset() {
                    assert!(
                        keys.windows(2).all(|w| w[0] < w[1]),
                        "{} n={n}: duplicates in a unique distribution",
                        g.name()
                    );
                }
                assert!(
                    keys.iter().all(|&k| k < KEY_CEILING),
                    "{} n={n}: key above the f64-safe ceiling",
                    g.name()
                );
            }
        }
    }

    #[test]
    fn heavy_dup_really_is_a_multiset() {
        let keys = heavy_dup(10_000, 3);
        let distinct: std::collections::BTreeSet<u64> = keys.iter().copied().collect();
        assert!(
            distinct.len() * 2 < keys.len(),
            "only {} distinct of {}",
            distinct.len(),
            keys.len()
        );
        // And it contains at least one long duplicate run.
        let longest = keys
            .chunk_by(|a, b| a == b)
            .map(<[u64]>::len)
            .max()
            .unwrap();
        assert!(longest >= 16, "longest duplicate run {longest}");
    }

    #[test]
    fn stepped_has_staircase_structure() {
        let keys = stepped(10_000, 5).keys().to_vec();
        let big_jumps = keys.windows(2).filter(|w| w[1] - w[0] > (1 << 34)).count();
        let small_steps = keys.windows(2).filter(|w| w[1] - w[0] <= 4).count();
        assert!(big_jumps >= 50, "only {big_jumps} jumps");
        assert!(small_steps > keys.len() * 9 / 10, "{small_steps} steps");
    }

    #[test]
    fn fb_like_mixes_dense_block_and_outliers() {
        let n = 20_000;
        let keys = fb_like(n, 9).keys().to_vec();
        let dense = keys.iter().filter(|&&k| k < 8 * n as u64).count();
        let out = keys.len() - dense;
        assert!(dense > n * 8 / 10, "dense {dense}");
        assert!(out > n / 100, "outliers {out}");
        assert!(*keys.last().unwrap() > 1 << 40, "no extreme outlier");
    }

    #[test]
    fn books_like_gaps_are_heavy_tailed() {
        let keys = books_like(20_000, 11).keys().to_vec();
        let gaps: Vec<u64> = keys.windows(2).map(|w| w[1] - w[0]).collect();
        let small = gaps.iter().filter(|&&g| g <= 4).count();
        let huge = gaps.iter().filter(|&&g| g > 1000).count();
        assert!(small > gaps.len() / 2, "small {small}");
        assert!(huge > 10, "huge {huge}");
    }

    #[test]
    fn osm_like_is_clustered_over_an_empty_domain() {
        let keys = osm_like(20_000, 13).keys().to_vec();
        // Span is huge relative to the key count (mostly empty domain)…
        let span = keys.last().unwrap() - keys.first().unwrap();
        assert!(span > 1 << 40, "span {span}");
        // …but a large share of adjacent gaps are tiny (clustering).
        let tight = keys.windows(2).filter(|w| w[1] - w[0] < (1 << 20)).count();
        assert!(tight > keys.len() / 2, "tight {tight}");
    }

    /// Regression pin: every generator is a pure function of `(n,
    /// seed)` — two calls agree element-for-element, different seeds
    /// differ, and a fingerprint of the canonical `(n=4096, seed=42)`
    /// row is pinned so any drift in the generation algorithm (or a
    /// sneaky ambient-RNG regression) fails this test rather than
    /// silently changing every gauntlet measurement in EXPERIMENTS.md.
    #[test]
    fn generation_is_deterministic_and_pinned() {
        fn fingerprint(keys: &[u64]) -> u64 {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for &k in keys {
                h ^= k;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            h
        }
        for g in Gauntlet::ALL {
            let a = g.generate(4096, 42);
            let b = g.generate(4096, 42);
            assert_eq!(a, b, "{}: same (n, seed) must agree", g.name());
            let c = g.generate(4096, 43);
            assert_ne!(a, c, "{}: different seeds must differ", g.name());
        }
        let pins: Vec<(&str, u64)> = Gauntlet::ALL
            .iter()
            .map(|g| (g.name(), fingerprint(&g.generate(4096, 42))))
            .collect();
        let expect = [
            ("books-like", 0x591c_4a3a_88d2_dd59u64),
            ("osm-like", 0x6d1c_1b33_d0c4_8480),
            ("fb-like", 0x4980_e34f_0016_d02f),
            ("stepped", 0x05fd_25db_2011_7d25),
            ("heavy-dup", 0xfabc_2871_7cf8_3fd8),
        ];
        // The pinned values are asserted one by one so a failure names
        // the drifted distribution.
        for ((name, got), (pin_name, pin)) in pins.iter().zip(expect.iter()) {
            assert_eq!(name, pin_name);
            assert_eq!(
                got, pin,
                "{name}: fingerprint drifted (got {got:#x}, pinned {pin:#x})"
            );
        }
    }
}
