//! Property suite: the adversarial gauntlet. A `ShardedIndex` of
//! retuned ε-corridor shards over a unique keyset — and of B-Tree
//! shards over a multiset, which the RMI's unique-key contract excludes
//! — must be observationally identical to a flat sorted array. The
//! store (`ShardedWritable`, whose every base is the ε-corridor) runs
//! the same distributions against a `BTreeSet` oracle through the
//! merges and splits an insert stream provokes. Runs every gauntlet
//! distribution (`li_data::gauntlet`) × shard counts {1, 4, 8}, plus
//! the degenerate keysets (empty, single, all-duplicate, `u64::MAX`).
//! Every test keeps its `auto_` name from when a per-shard selector
//! (the retired `Auto` backend) picked each shard's backend; the
//! corridor beat every backend it could pick at benchmark shard scale,
//! so it went.
//!
//! `PROPTEST_CASES` deepens the sweep (CI runs a 256-case pass).

use std::collections::BTreeSet;

use learned_indexes::data::Gauntlet;
use learned_indexes::serve::{
    BTreeShardBuilder, RangeIndex, RebalanceConfig, RetunePolicy, RmiShardBuilder, ShardBuilder,
    ShardedIndex, ShardedWritable, ShardedWritableConfig,
};
use proptest::prelude::*;

const SHARD_COUNTS: [usize; 3] = [1, 4, 8];

/// The shard builder for a keyset: the retuned ε-corridor over unique
/// keys, a page-128 B-Tree over a multiset.
fn shard_builder(multiset: bool) -> Box<dyn ShardBuilder> {
    if multiset {
        Box::new(BTreeShardBuilder::new(128))
    } else {
        Box::new(RmiShardBuilder::new().with_retune(RetunePolicy::default()))
    }
}

fn oracle_lower_bound(data: &[u64], q: u64) -> usize {
    data.partition_point(|&k| k < q)
}

/// Probe keys that stress boundaries: every 7th key ± 1, the global
/// extremes, and shard-boundary neighborhoods.
fn probes(data: &[u64]) -> Vec<u64> {
    let mut qs = vec![0u64, 1, u64::MAX, u64::MAX - 1];
    for &k in data.iter().step_by(7) {
        qs.extend_from_slice(&[k.saturating_sub(1), k, k.saturating_add(1)]);
    }
    if let (Some(&first), Some(&last)) = (data.first(), data.last()) {
        qs.extend_from_slice(&[first, last, last.saturating_add(1)]);
    }
    qs
}

fn assert_index_matches_oracle(
    idx: &ShardedIndex,
    data: &[u64],
    ctx: &str,
) -> Result<(), TestCaseError> {
    for q in probes(data) {
        prop_assert_eq!(
            idx.lower_bound(q),
            oracle_lower_bound(data, q),
            "{} q={}",
            ctx,
            q
        );
    }
    Ok(())
}

/// A write-path config with low thresholds, so inserts trigger merges,
/// splits and (tiered) compactions — each of which rebuilds a base over
/// the distribution's keys.
fn write_config() -> ShardedWritableConfig {
    ShardedWritableConfig {
        merge_threshold: 32,
        leaf_fraction: 1.0 / 16.0,
        check_interval: 64,
        rebalance: RebalanceConfig {
            max_shard_len: 4096,
            merge_max_len: 16,
            max_shards: 12,
        },
        ..ShardedWritableConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Read tier: a `ShardedIndex` over every gauntlet distribution
    /// answers `lower_bound` exactly like the flat sorted array, at
    /// every shard count.
    #[test]
    fn auto_sharded_index_matches_the_flat_oracle(
        seed in any::<u64>(),
        n in 1usize..3000,
    ) {
        for dist in Gauntlet::ALL {
            let data = dist.generate(n, seed);
            let builder = shard_builder(dist.is_multiset());
            for shards in SHARD_COUNTS {
                let idx = ShardedIndex::build(data.clone(), shards, builder.as_ref());
                assert_index_matches_oracle(
                    &idx,
                    &data,
                    &format!("{} n={n} shards={shards} seed={seed}", dist.name()),
                )?;
            }
        }
    }

    /// Write tier: a `ShardedWritable` seeded from a gauntlet
    /// distribution and fed a fresh insert stream answers
    /// `contains`/`rank`/`len` exactly like a `BTreeSet`, at every
    /// shard count — across the merges/splits the stream provokes
    /// (each of which trains a new ε-corridor base).
    #[test]
    fn auto_sharded_writable_matches_a_btreeset_oracle(
        seed in any::<u64>(),
        n in 1usize..600,
        inserts in prop::collection::vec(any::<u64>(), 0..150),
    ) {
        for dist in Gauntlet::ALL {
            // The write tier is a set: dedup the seed keyset.
            let mut data = dist.generate(n, seed);
            data.dedup();
            for shards in SHARD_COUNTS {
                let sw = ShardedWritable::new(data.clone(), shards, write_config());
                let mut oracle: BTreeSet<u64> = data.iter().copied().collect();
                for &k in &inserts {
                    prop_assert_eq!(sw.insert(k), oracle.insert(k), "insert {}", k);
                }
                prop_assert_eq!(sw.len(), oracle.len());
                for q in probes(&data).into_iter().chain(inserts.iter().copied()) {
                    prop_assert_eq!(
                        sw.contains(q),
                        oracle.contains(&q),
                        "{} contains {} shards={} seed={}", dist.name(), q, shards, seed
                    );
                    prop_assert_eq!(
                        sw.rank(q),
                        oracle.range(..q).count(),
                        "{} rank {} shards={} seed={}", dist.name(), q, shards, seed
                    );
                }
            }
        }
    }
}

/// Degenerate keysets a `ShardedIndex` must survive at every shard
/// count: empty, single key, all-duplicate, and `u64::MAX`-adjacent.
#[test]
fn auto_handles_degenerate_keysets() {
    let cases: Vec<(&str, Vec<u64>)> = vec![
        ("empty", vec![]),
        ("single", vec![42]),
        ("single-max", vec![u64::MAX]),
        ("all-duplicate", vec![7; 500]),
        ("max-adjacent", vec![0, 1, u64::MAX - 1, u64::MAX]),
        (
            "dup-run-and-max",
            (0..300u64)
                .map(|i| (i / 50) * 1000)
                .chain([u64::MAX])
                .collect(),
        ),
    ];
    for (name, data) in &cases {
        let builder = shard_builder(data.windows(2).any(|w| w[0] == w[1]));
        for shards in SHARD_COUNTS {
            let idx = ShardedIndex::build(data.clone(), shards, builder.as_ref());
            for q in probes(data) {
                assert_eq!(
                    idx.lower_bound(q),
                    oracle_lower_bound(data, q),
                    "{name} shards={shards} q={q}"
                );
            }
        }
    }
}

/// The write tier's degenerate cases (unique keysets only — it is a
/// set): growth from empty through the store's whole lifecycle.
#[test]
fn auto_writable_grows_from_degenerate_seeds() {
    for seed_keys in [vec![], vec![42], vec![0, u64::MAX]] {
        for shards in SHARD_COUNTS {
            let sw = ShardedWritable::new(seed_keys.clone(), shards, write_config());
            let mut oracle: BTreeSet<u64> = seed_keys.iter().copied().collect();
            // A stream long enough to trip merges (threshold 32).
            for i in 0..200u64 {
                let k = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                assert_eq!(sw.insert(k), oracle.insert(k), "insert {k}");
            }
            assert_eq!(sw.len(), oracle.len());
            for &k in oracle.iter().step_by(3) {
                assert!(sw.contains(k), "lost {k} shards={shards}");
            }
        }
    }
}
