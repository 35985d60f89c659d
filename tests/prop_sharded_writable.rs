//! Property suite: `ShardedWritable` must be observationally identical
//! to a `BTreeSet<u64>` oracle under arbitrary interleavings of
//! inserts, lookups and range scans — across shard counts and through
//! rebalance triggers (load-driven splits and cold-neighbor merges).
//! Sharding, delta buffers, retraining and topology changes are all
//! implementation details; the observable semantics are a sorted set.
//!
//! The aggressive configuration (tiny `max_shard_len`, tiny merge
//! threshold, per-insert scan cadence) makes rebalancing *routine*
//! inside the property run rather than a rare event, so every oracle
//! comparison in the deep CI pass (`PROPTEST_CASES=256`) exercises
//! lookups and scans straddling freshly moved shard boundaries. Fixed
//! deterministic tests below pin the required split ≥ 1 / merge ≥ 1
//! coverage and the edge keysets (empty, single, all-duplicate,
//! `u64::MAX`).

use std::collections::BTreeSet;

use learned_indexes::serve::{
    RebalanceConfig, ShardedSnapshot, ShardedWritable, ShardedWritableConfig,
};
use proptest::prelude::*;

const SHARD_COUNTS: [usize; 3] = [1, 2, 5];

/// An aggressive configuration: rebalancing is routine, not rare.
fn aggressive_cfg() -> ShardedWritableConfig {
    ShardedWritableConfig {
        merge_threshold: 4,
        leaf_fraction: 1.0 / 8.0,
        check_interval: 8,
        rebalance: RebalanceConfig {
            max_shard_len: 24,
            merge_max_len: 8,
            max_mean_err: Some(16.0),
            max_shards: 12,
        },
        ..ShardedWritableConfig::default()
    }
}

fn sorted_unique(mut keys: Vec<u64>) -> Vec<u64> {
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// Full equivalence check of one live structure + one snapshot against
/// the oracle, probing around every oracle key and the domain extremes.
fn assert_oracle_equivalence(
    sw: &ShardedWritable,
    oracle: &BTreeSet<u64>,
) -> Result<(), TestCaseError> {
    let snap = sw.snapshot();
    prop_assert_eq!(sw.len(), oracle.len());
    prop_assert_eq!(snap.len(), oracle.len());

    // The full dump must be exactly the oracle's sorted contents, read
    // from the snapshot and in place from the live shards.
    let dump = snap.range_keys(0, u64::MAX);
    let mut want: Vec<u64> = oracle.iter().copied().collect();
    let max_present = want.last() == Some(&u64::MAX);
    if max_present {
        want.pop(); // range_keys' hi bound is exclusive
    }
    prop_assert_eq!(sw.range_keys(0, u64::MAX), want.clone());
    prop_assert_eq!(dump, want);
    prop_assert_eq!(snap.contains(u64::MAX), max_present);

    let mut probes: Vec<u64> = vec![0, 1, u64::MAX - 1, u64::MAX];
    probes.extend(
        oracle
            .iter()
            .flat_map(|&k| [k.saturating_sub(1), k, k.saturating_add(1)]),
    );
    for q in probes {
        prop_assert_eq!(sw.contains(q), oracle.contains(&q), "live contains q={}", q);
        prop_assert_eq!(
            snap.contains(q),
            oracle.contains(&q),
            "snap contains q={}",
            q
        );
        let rank = oracle.range(..q).count();
        prop_assert_eq!(sw.rank(q), rank, "live rank q={}", q);
        prop_assert_eq!(snap.rank(q), rank, "snap rank q={}", q);
    }
    assert_bound_windows(sw, &snap, oracle)?;
    assert_snapshot_internally_consistent(&snap)?;
    Ok(())
}

/// Structural invariants every snapshot must satisfy regardless of the
/// oracle: prefix bookkeeping sums to the total, and each shard's view
/// holds only keys inside its ownership range.
fn assert_snapshot_internally_consistent(snap: &ShardedSnapshot) -> Result<(), TestCaseError> {
    let total = snap.rank(u64::MAX) + usize::from(snap.contains(u64::MAX));
    prop_assert_eq!(total, snap.len(), "torn snapshot length");
    let bounds = snap.router().boundaries();
    prop_assert_eq!(snap.shard_count(), bounds.len() + 1);
    let per_shard: usize = snap.shard_snapshots().iter().map(|s| s.len()).sum();
    prop_assert_eq!(per_shard, snap.len());
    for (s, shard) in snap.shard_snapshots().iter().enumerate() {
        let lo = if s == 0 { 0 } else { bounds[s - 1] };
        // Keys below the ownership range: none.
        prop_assert_eq!(shard.rank(lo), 0, "shard {} holds keys below its range", s);
        // Keys at/above the next bound: none — the upper bound belongs
        // to the next shard.
        if s < bounds.len() {
            let hi = bounds[s];
            prop_assert!(!shard.contains(hi), "shard {} holds its upper bound", s);
            prop_assert_eq!(
                shard.rank(hi),
                shard.len(),
                "shard {} holds keys above its upper bound",
                s
            );
        }
    }
    Ok(())
}

/// Drive an op sequence against both structure and oracle.
fn apply_ops(
    sw: &ShardedWritable,
    oracle: &mut BTreeSet<u64>,
    ops: &[(u8, u64, u64)],
) -> Result<(), TestCaseError> {
    for &(op, a, b) in ops {
        match op % 4 {
            0 | 1 => {
                // Insert dominates the mix: it is what moves topology.
                prop_assert_eq!(sw.insert(a), oracle.insert(a), "insert {}", a);
            }
            2 => {
                prop_assert_eq!(sw.contains(a), oracle.contains(&a), "contains {}", a);
                prop_assert_eq!(sw.rank(a), oracle.range(..a).count(), "rank {}", a);
            }
            _ => {
                let (lo, hi) = (a.min(b), a.max(b));
                let got = sw.range_keys(lo, hi);
                let want: Vec<u64> = oracle.range(lo..hi).copied().collect();
                prop_assert_eq!(got, want, "range [{}, {})", lo, hi);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary interleavings over a small key domain (dense
    /// collisions, duplicate inserts, boundary-straddling ranges) at
    /// every shard count, with rebalancing running hot.
    #[test]
    fn interleaved_ops_match_btreeset_small_domain(
        initial in prop::collection::vec(0u64..512, 0..64),
        ops in prop::collection::vec((any::<u8>(), 0u64..512, 0u64..512), 1..150),
    ) {
        let init = sorted_unique(initial);
        for shards in SHARD_COUNTS {
            let sw = ShardedWritable::new(init.clone(), shards, aggressive_cfg());
            let mut oracle: BTreeSet<u64> = init.iter().copied().collect();
            apply_ops(&sw, &mut oracle, &ops)?;
            assert_oracle_equivalence(&sw, &oracle)?;
        }
    }

    /// Full-domain keys (extreme spreads, u64::MAX neighborhoods).
    #[test]
    fn interleaved_ops_match_btreeset_full_domain(
        initial in prop::collection::vec(any::<u64>(), 0..48),
        ops in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..100),
    ) {
        let init = sorted_unique(initial);
        for shards in [1usize, 3] {
            let sw = ShardedWritable::new(init.clone(), shards, aggressive_cfg());
            let mut oracle: BTreeSet<u64> = init.iter().copied().collect();
            apply_ops(&sw, &mut oracle, &ops)?;
            assert_oracle_equivalence(&sw, &oracle)?;
        }
    }

    /// `insert_batch` must be observationally identical to N scalar
    /// `insert` calls in input order: the same per-key newly-inserted
    /// flags, and the same final snapshot — across shard counts, with
    /// the aggressive configuration keeping rebalance triggers routine
    /// mid-stream (batches land before, between, and after splits and
    /// merges). Intra-batch duplicates and cross-batch duplicates are
    /// both exercised by the small key domain.
    #[test]
    fn insert_batch_equals_scalar_inserts(
        initial in prop::collection::vec(0u64..400, 0..48),
        batches in prop::collection::vec(
            prop::collection::vec(0u64..400, 0..40), 1..12),
    ) {
        let init = sorted_unique(initial);
        for shards in SHARD_COUNTS {
            let batched = ShardedWritable::new(init.clone(), shards, aggressive_cfg());
            let scalar = ShardedWritable::new(init.clone(), shards, aggressive_cfg());
            for batch in &batches {
                let got = batched.insert_batch(batch);
                let want: Vec<bool> = batch.iter().map(|&k| scalar.insert(k)).collect();
                prop_assert_eq!(got, want, "shards={}", shards);
            }
            // Same final snapshot, bit for bit.
            let bs = batched.snapshot();
            let ss = scalar.snapshot();
            prop_assert_eq!(bs.len(), ss.len());
            prop_assert_eq!(
                bs.range_keys(0, u64::MAX),
                ss.range_keys(0, u64::MAX)
            );
            prop_assert_eq!(bs.contains(u64::MAX), ss.contains(u64::MAX));
            assert_snapshot_internally_consistent(&bs)?;
            assert_snapshot_internally_consistent(&ss)?;
        }
    }

    /// Full-domain batch ≡ scalar (extreme spreads, `u64::MAX`
    /// neighborhoods, huge ownership gaps).
    #[test]
    fn insert_batch_equals_scalar_inserts_full_domain(
        initial in prop::collection::vec(any::<u64>(), 0..32),
        batches in prop::collection::vec(
            prop::collection::vec(any::<u64>(), 0..24), 1..8),
    ) {
        let init = sorted_unique(initial);
        let batched = ShardedWritable::new(init.clone(), 3, aggressive_cfg());
        let scalar = ShardedWritable::new(init, 3, aggressive_cfg());
        for batch in &batches {
            let got = batched.insert_batch(batch);
            let want: Vec<bool> = batch.iter().map(|&k| scalar.insert(k)).collect();
            prop_assert_eq!(got, want);
        }
        let bs = batched.snapshot();
        let ss = scalar.snapshot();
        prop_assert_eq!(bs.len(), ss.len());
        prop_assert_eq!(bs.range_keys(0, u64::MAX), ss.range_keys(0, u64::MAX));
        prop_assert_eq!(bs.contains(u64::MAX), ss.contains(u64::MAX));
    }

    /// Explicit rebalance calls interleaved with ops never change
    /// semantics, and the topology stays within its configured budget.
    #[test]
    fn explicit_rebalance_is_semantically_invisible(
        initial in prop::collection::vec(0u64..100_000, 0..80),
        ops in prop::collection::vec((any::<u8>(), 0u64..100_000, 0u64..100_000), 1..80),
    ) {
        let init = sorted_unique(initial);
        let cfg = aggressive_cfg();
        let sw = ShardedWritable::new(init.clone(), 4, cfg.clone());
        let mut oracle: BTreeSet<u64> = init.iter().copied().collect();
        for chunk in ops.chunks(16) {
            apply_ops(&sw, &mut oracle, chunk)?;
            sw.rebalance();
            prop_assert!(sw.shard_count() <= cfg.rebalance.max_shards);
        }
        assert_oracle_equivalence(&sw, &oracle)?;
    }
}

// ---- range_keys boundary semantics: live vs snapshot vs oracle ----

/// One window checked on the live structure (which reads the owning
/// shards in place) AND a snapshot against the oracle, including the
/// degenerate shapes: `lo == hi` and `lo > hi` are empty (the bound is
/// `[lo, hi)`, hi-exclusive), never a panic and never a wrapped-around
/// scan. The ranks of both ends are checked the same three ways.
fn assert_window(
    sw: &ShardedWritable,
    snap: &ShardedSnapshot,
    oracle: &BTreeSet<u64>,
    lo: u64,
    hi: u64,
) -> Result<(), TestCaseError> {
    let want: Vec<u64> = if lo < hi {
        oracle.range(lo..hi).copied().collect()
    } else {
        Vec::new()
    };
    prop_assert_eq!(sw.range_keys(lo, hi), want.clone(), "live [{}, {})", lo, hi);
    prop_assert_eq!(snap.range_keys(lo, hi), want, "snap [{}, {})", lo, hi);
    for q in [lo, hi] {
        let rank = oracle.range(..q).count();
        prop_assert_eq!(sw.rank(q), rank, "live rank {}", q);
        prop_assert_eq!(snap.rank(q), rank, "snap rank {}", q);
    }
    Ok(())
}

/// Windows laid on a topology's actual ownership bounds: every
/// `[bounds[i], bounds[j])` for `i <= j` (empty, exactly one shard,
/// two shards, three and more, starting and ending exactly on a bound),
/// the same windows widened by one key on each side, and a window
/// strictly inside each shard.
fn assert_bound_windows(
    sw: &ShardedWritable,
    snap: &ShardedSnapshot,
    oracle: &BTreeSet<u64>,
) -> Result<(), TestCaseError> {
    let bounds = sw.bounds();
    for (i, &b) in bounds.iter().enumerate() {
        for &c in &bounds[i..] {
            assert_window(sw, snap, oracle, b, c)?;
            assert_window(sw, snap, oracle, b.saturating_sub(1), c.saturating_add(1))?;
        }
        assert_window(sw, snap, oracle, 0, b)?;
        assert_window(sw, snap, oracle, b, u64::MAX)?;
    }
    let mut starts = vec![0u64];
    starts.extend(&bounds);
    for (s, &start) in starts.iter().enumerate() {
        let end = bounds.get(s).copied().unwrap_or(u64::MAX);
        let inside = (
            start.saturating_add(1),
            start.saturating_add(1 + (end - start) / 2),
        );
        assert_window(sw, snap, oracle, inside.0, inside.1)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary (unnormalized!) windows over full-domain keysets:
    /// empty windows, inverted windows, windows clamped at the domain
    /// extremes, windows straddling every shard boundary. Live and
    /// snapshot scans must agree with the oracle bit for bit.
    #[test]
    fn range_keys_windows_match_the_oracle(
        initial in prop::collection::vec(any::<u64>(), 0..48),
        windows in prop::collection::vec((any::<u64>(), any::<u64>()), 1..24),
    ) {
        let init = sorted_unique(initial);
        for shards in [1usize, 3, 5] {
            let sw = ShardedWritable::new(init.clone(), shards, aggressive_cfg());
            let oracle: BTreeSet<u64> = init.iter().copied().collect();
            let snap = sw.snapshot();
            for &(a, b) in &windows {
                // As given (possibly inverted), normalized, degenerate,
                // and pinned to the domain extremes.
                assert_window(&sw, &snap, &oracle, a, b)?;
                assert_window(&sw, &snap, &oracle, a.min(b), a.max(b))?;
                assert_window(&sw, &snap, &oracle, a, a)?;
                assert_window(&sw, &snap, &oracle, 0, a)?;
                assert_window(&sw, &snap, &oracle, a, u64::MAX)?;
            }
            assert_bound_windows(&sw, &snap, &oracle)?;
        }
    }
}

/// Windows pinned to the *actual* ownership bounds of a multi-shard
/// topology, with the bound keys themselves present (inserted more than
/// once — duplicate inserts must not change scan semantics). A bound
/// key belongs to the shard above it; a window ending exactly at a
/// bound must not leak it, a window starting at one must yield it.
#[test]
fn range_keys_straddling_live_shard_boundaries() {
    let init: Vec<u64> = (0..120u64).map(|i| i * 9).collect();
    let sw = ShardedWritable::new(init.clone(), 5, aggressive_cfg());
    let mut oracle: BTreeSet<u64> = init.iter().copied().collect();
    let bounds = sw.bounds();
    assert!(bounds.len() >= 3, "need windows spanning three shards");
    // Make every boundary key present, twice (the duplicate is a no-op).
    for &b in &bounds {
        let newly = oracle.insert(b);
        assert_eq!(sw.insert(b), newly, "bound {b}");
        assert!(!sw.insert(b), "duplicate bound insert must be a no-op");
    }
    let snap = sw.snapshot();
    for &b in &bounds {
        for (lo, hi) in [
            (b, b),                                       // empty at the boundary
            (b.saturating_sub(1), b),                     // ends at the bound: excludes it
            (b, b.saturating_add(1)),                     // starts at the bound: includes it
            (b.saturating_sub(20), b.saturating_add(20)), // straddles the shard seam
            (b.saturating_add(1), b.saturating_sub(1)),   // inverted: empty
        ] {
            assert_window(&sw, &snap, &oracle, lo, hi).unwrap();
        }
        let starts_at = snap.range_keys(b, b.saturating_add(1));
        assert_eq!(starts_at, vec![b], "bound {b} must open its own window");
        assert!(
            !snap.range_keys(b.saturating_sub(1), b).contains(&b),
            "hi must stay exclusive at the shard seam"
        );
    }
    // Windows inside one shard and spanning two, three and four.
    assert_bound_windows(&sw, &snap, &oracle).unwrap();
}

/// The top of the domain: `hi == u64::MAX` is still exclusive, so
/// `u64::MAX` itself is reachable only via `contains`/`len` — a scan
/// can never return it. The suite's equivalence helper relies on this;
/// pin it explicitly.
#[test]
fn range_keys_at_the_top_of_the_domain() {
    let init = vec![0u64, 1, 1 << 40, u64::MAX - 1, u64::MAX];
    let sw = ShardedWritable::new(init.clone(), 3, aggressive_cfg());
    let oracle: BTreeSet<u64> = init.iter().copied().collect();
    let snap = sw.snapshot();
    for (lo, hi) in [
        (0, u64::MAX),            // everything except MAX itself
        (u64::MAX - 1, u64::MAX), // exactly one key
        (u64::MAX, u64::MAX),     // empty: lo == hi at the top
        (u64::MAX, 0),            // inverted at the extremes
        (u64::MAX - 2, u64::MAX),
    ] {
        assert_window(&sw, &snap, &oracle, lo, hi).unwrap();
    }
    assert!(sw.contains(u64::MAX), "MAX is present, just not scannable");
    assert_eq!(
        sw.range_keys(0, u64::MAX).len(),
        sw.len() - 1,
        "a full scan misses exactly the MAX key"
    );
}

// ---- Deterministic rebalance-trigger and edge-keyset coverage ----

/// The acceptance-criteria run: one structure driven through at least
/// one load-triggered split AND at least one shard merge, equivalent to
/// the oracle at every stage, with snapshot bookkeeping intact.
#[test]
fn equivalence_through_a_split_and_a_merge() {
    // Phase 1 — many cold shards over sparse data (3 keys each, so an
    // adjacent pair fits the merge budget): the first rebalance merges
    // neighbors.
    let init: Vec<u64> = (0..24u64).map(|i| i * 1000).collect();
    let sw = ShardedWritable::new(init.clone(), 8, aggressive_cfg());
    let mut oracle: BTreeSet<u64> = init.iter().copied().collect();
    assert_eq!(sw.shard_count(), 8);
    sw.rebalance();
    assert!(sw.shard_merges() >= 1, "cold topology must merge");
    assert_oracle_equivalence(&sw, &oracle).unwrap();

    // Phase 2 — heavy inserts: load-triggered splits.
    for k in 0..300u64 {
        let key = k * 137 % 40_000;
        assert_eq!(sw.insert(key), oracle.insert(key), "insert {key}");
    }
    assert!(sw.splits() >= 1, "insert load must split");
    assert_oracle_equivalence(&sw, &oracle).unwrap();

    // The topology actually changed and stayed paired with its router.
    assert_eq!(
        sw.generation(),
        (sw.splits() + sw.shard_merges()) as u64,
        "every rebalance action published exactly one topology"
    );
}

/// One oversized batch must drive the topology through splits (the
/// post-batch rebalance loops until stable) and still agree with the
/// oracle key for key — the batched path's per-shard bucketing and the
/// rebalancer compose.
#[test]
fn one_big_batch_drives_splits_and_matches_the_oracle() {
    let init: Vec<u64> = (0..16u64).map(|i| i * 100).collect();
    let sw = ShardedWritable::new(init.clone(), 2, aggressive_cfg());
    let mut oracle: BTreeSet<u64> = init.iter().copied().collect();
    let batch: Vec<u64> = (0..500u64).map(|i| (i * 7) % 1600).collect();
    let flags = sw.insert_batch(&batch);
    let want: Vec<bool> = batch.iter().map(|&k| oracle.insert(k)).collect();
    assert_eq!(flags, want);
    assert!(sw.splits() >= 1, "an oversized batch must split");
    assert_oracle_equivalence(&sw, &oracle).unwrap();
}

/// An empty store is one empty shard: live scans and ranks over it, and
/// the snapshot's, must match the empty oracle before any insert.
#[test]
fn empty_initial_keyset() {
    let sw = ShardedWritable::new(Vec::<u64>::new(), 4, aggressive_cfg());
    let mut oracle = BTreeSet::new();
    assert!(sw.is_empty());
    assert_oracle_equivalence(&sw, &oracle).unwrap();
    for k in [5u64, 0, u64::MAX, 5, 1 << 40] {
        assert_eq!(sw.insert(k), oracle.insert(k));
    }
    assert_oracle_equivalence(&sw, &oracle).unwrap();
}

#[test]
fn single_key_and_all_duplicate_inserts() {
    let sw = ShardedWritable::new(vec![7u64], 3, aggressive_cfg());
    let mut oracle = BTreeSet::from([7u64]);
    for _ in 0..100 {
        assert!(!sw.insert(7), "duplicate of the single key");
    }
    assert_eq!(sw.len(), 1);
    assert_eq!(sw.splits(), 0, "duplicates must not build up load");
    assert_oracle_equivalence(&sw, &oracle).unwrap();
    assert!(sw.insert(8) && oracle.insert(8));
    assert_oracle_equivalence(&sw, &oracle).unwrap();
}

#[test]
fn max_key_saturated_keyset() {
    let init = vec![0u64, 1, u64::MAX - 2, u64::MAX - 1, u64::MAX];
    let sw = ShardedWritable::new(init.clone(), 5, aggressive_cfg());
    let mut oracle: BTreeSet<u64> = init.into_iter().collect();
    assert_oracle_equivalence(&sw, &oracle).unwrap();
    for k in (0..60u64).map(|i| u64::MAX - i) {
        assert_eq!(sw.insert(k), oracle.insert(k), "insert {k}");
    }
    assert_oracle_equivalence(&sw, &oracle).unwrap();
    let snap = sw.snapshot();
    assert_eq!(snap.range_keys(u64::MAX - 5, u64::MAX).len(), 5);
}

/// Snapshots taken before topology changes keep serving their frozen
/// state while the live structure moves on.
#[test]
fn old_snapshots_survive_rebalances_frozen() {
    let init: Vec<u64> = (0..64u64).map(|i| i * 4).collect();
    let sw = ShardedWritable::new(init, 2, aggressive_cfg());
    let before = sw.snapshot();
    for k in 0..200u64 {
        sw.insert(k * 4 + 1);
    }
    assert!(sw.splits() >= 1);
    assert_eq!(before.len(), 64, "frozen");
    assert!(!before.contains(1));
    assert_snapshot_internally_consistent(&before).unwrap();
    let after = sw.snapshot();
    assert_eq!(after.len(), 264);
    assert_snapshot_internally_consistent(&after).unwrap();
}
