//! Property suite for the LSM-style tiered write path of Appendix D.1:
//! a `DeltaIndex` must agree with a `BTreeSet` oracle across every tier
//! state the insert/compact lifecycle can produce — empty run stacks,
//! partially filled stacks, stacks at the compaction bound, freshly
//! compacted bases — duplicate inserts must never take buffer space, and
//! snapshots cut mid-stream (including mid-compaction) must stay frozen
//! and internally consistent while the live index keeps sealing and
//! compacting. Edge cases pinned deterministically: all-duplicate
//! streams (no seal ever fires) and `u64::MAX` keys in every tier.
//!
//! ε-corridor bases have a suite of their own at the end: a fold keeps
//! the base's ε while the merged keys fit its leaf count, and no base
//! of a store cuts more segments than its leaf count through folds,
//! splits and merges.
//!
//! Run merging has suites of its own: bases of at least
//! `RUN_TIER_RATIO × threshold × max_runs` keys, so a full run stack is
//! merged into one run several times before the run tier holds a
//! sixteenth of the base and folds — smaller bases fold every stack and
//! never reach the merge path.

use std::collections::BTreeSet;

use learned_indexes::rmi::delta::RUN_TIER_RATIO;
use learned_indexes::rmi::{train_count, DeltaIndex, Rmi, RmiConfig, TopModel};
use learned_indexes::serve::{
    RebalanceConfig, RetunePolicy, ShardedWritable, ShardedWritableConfig, WritableShard,
};
use learned_indexes::RangeIndex;
use proptest::prelude::*;

fn cfg() -> RmiConfig {
    RmiConfig::two_stage(TopModel::Linear, 32)
}

fn sorted_unique(mut keys: Vec<u64>) -> Vec<u64> {
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// Probe points: around every 5th oracle key plus domain extremes.
fn probes(oracle: &BTreeSet<u64>) -> Vec<u64> {
    let mut qs = vec![0u64, 1, u64::MAX - 1, u64::MAX];
    for &k in oracle.iter().step_by(5) {
        qs.extend_from_slice(&[k.saturating_sub(1), k, k.saturating_add(1)]);
    }
    qs
}

/// The reads the oracle checks, on a live index or on a snapshot.
trait Reads {
    fn len(&self) -> usize;
    fn rank(&self, key: u64) -> usize;
    fn contains(&self, key: u64) -> bool;
    fn range_keys(&self, lo: u64, hi: u64) -> Vec<u64>;
}

macro_rules! reads {
    ($t:ty) => {
        impl Reads for $t {
            fn len(&self) -> usize {
                <$t>::len(self)
            }
            fn rank(&self, key: u64) -> usize {
                <$t>::rank(self, key)
            }
            fn contains(&self, key: u64) -> bool {
                <$t>::contains(self, key)
            }
            fn range_keys(&self, lo: u64, hi: u64) -> Vec<u64> {
                <$t>::range_keys(self, lo, hi)
            }
        }
    };
}
reads!(DeltaIndex);
reads!(learned_indexes::rmi::DeltaSnapshot);
reads!(ShardedWritable);

fn assert_reads_match(
    view: &impl Reads,
    oracle: &BTreeSet<u64>,
    ctx: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(view.len(), oracle.len(), "{}: len", ctx);
    let qs = probes(oracle);
    for &q in &qs {
        prop_assert_eq!(
            view.rank(q),
            oracle.range(..q).count(),
            "{}: rank({})",
            ctx,
            q
        );
        prop_assert_eq!(
            view.contains(q),
            oracle.contains(&q),
            "{}: contains({})",
            ctx,
            q
        );
    }
    for w in qs.windows(2) {
        let (lo, hi) = (w[0].min(w[1]), w[0].max(w[1]));
        let want: Vec<u64> = oracle.range(lo..hi).copied().collect();
        prop_assert_eq!(
            view.range_keys(lo, hi),
            want,
            "{}: range [{},{})",
            ctx,
            lo,
            hi
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Appendix D.1 as a standalone user drives it: an arbitrary
    /// initial keyset, an arbitrary insert stream (with natural
    /// duplicates) at arbitrary buffer thresholds, and a fold whenever
    /// `needs_compaction()` says so. The view tracks the set oracle
    /// exactly, duplicate inserts never occupy buffer space, seals are a
    /// pure function of the unique inserts, and re-inserting every key
    /// is a complete no-op.
    #[test]
    fn delta_index_tracks_btreeset_oracle(
        initial in prop::collection::vec(any::<u64>(), 0..200),
        inserts in prop::collection::vec(any::<u64>(), 0..120),
        threshold in 1usize..64,
    ) {
        let initial = sorted_unique(initial);
        let mut oracle: BTreeSet<u64> = initial.iter().copied().collect();
        let mut idx = DeltaIndex::new(initial, cfg(), threshold);

        let mut unique_new = 0usize;
        let mut folds = 0usize;
        for (step, &k) in inserts.iter().enumerate() {
            let fresh = oracle.insert(k);
            unique_new += usize::from(fresh);
            prop_assert_eq!(idx.insert(k), fresh, "insert {}", k);
            // Duplicate inserts must not occupy buffer slots.
            prop_assert!(idx.pending() < threshold);
            if idx.needs_compaction() {
                idx.compact();
                folds += 1;
            }
            if step % 17 == 0 {
                assert_reads_match(&idx, &oracle, &format!("step {step}"))?;
            }
        }
        assert_reads_match(&idx, &oracle, "final")?;

        // Seal and fold cadence is a pure function of the unique inserts.
        prop_assert_eq!(idx.seals(), unique_new / threshold, "seal count");
        prop_assert_eq!(idx.compactions(), folds, "fold count");

        // Re-inserting every key is a complete no-op.
        let (len0, pending0, seals0) = (idx.len(), idx.pending(), idx.seals());
        for &k in oracle.iter().take(50) {
            prop_assert!(!idx.insert(k), "re-insert of {}", k);
        }
        prop_assert_eq!((idx.len(), idx.pending(), idx.seals()), (len0, pending0, seals0));
        assert_reads_match(&idx, &oracle, "after re-inserts")?;
    }

    /// Interleaved inserts and owner-driven compactions track the
    /// oracle through every tier transition, and the tier counters
    /// obey the lifecycle: seals are `unique_inserts / threshold`, and
    /// the run stack only exceeds the bound until the owner compacts it.
    #[test]
    fn tiered_index_tracks_oracle_through_seal_and_compact_cycles(
        initial in prop::collection::vec(any::<u64>(), 0..120),
        ops in prop::collection::vec((any::<u64>(), 0usize..12), 0..150),
        threshold in 2usize..10,
        max_runs in 1usize..5,
    ) {
        let init = sorted_unique(initial);
        let mut idx = DeltaIndex::new(init.clone(), cfg(), threshold).with_tiering(max_runs);
        let mut oracle: BTreeSet<u64> = init.iter().copied().collect();

        let mut compaction_events = 0usize;
        for (step, &(key, gate)) in ops.iter().enumerate() {
            prop_assert_eq!(idx.insert(key), oracle.insert(key), "insert {}", key);
            // The owner compacts at arbitrary moments (gate == 0), not
            // only exactly at the bound — mirroring a worker that may
            // run late (stack above bound) or early (partial or empty
            // stack). Compaction always folds the ENTIRE current stack
            // (one retrain), or nothing when there are no runs.
            if gate == 0 || idx.needs_compaction() {
                let runs = idx.run_count();
                if idx.needs_compaction() {
                    prop_assert!(runs >= max_runs);
                }
                let folded = idx.compact();
                prop_assert_eq!(folded, runs, "compaction folds the whole stack");
                prop_assert_eq!(idx.run_count(), 0);
                prop_assert!(!idx.needs_compaction());
                compaction_events += usize::from(folded > 0);
            }
            if step % 29 == 0 {
                assert_reads_match(&idx, &oracle, &format!("step {step}"))?;
            }
        }
        assert_reads_match(&idx, &oracle, "final")?;
        // Lifecycle accounting: exactly one seal per `threshold` fresh
        // keys, and every compaction event counted exactly once.
        let unique_inserts = oracle.len() - init.len();
        prop_assert_eq!(idx.seals(), unique_inserts / threshold);
        prop_assert_eq!(idx.compactions(), compaction_events);
        // The tiers partition the keyset: whatever was sealed and not
        // yet compacted, plus the pending buffer, is exactly what the
        // base does not hold.
        let base_len = idx.len() - idx.sealed_keys() - idx.pending();
        prop_assert!(base_len >= init.len());
    }

    /// Invariant 7 (tier partition) pinned on the insert path: a
    /// duplicate insert of a key currently living **only in a sealed
    /// run** (not the buffer — sealing emptied it; not the base — the
    /// key was fresh) must be reported as a duplicate and must not
    /// create cross-tier duplication. The run probe sits between the
    /// buffer probe and the base lookup in `DeltaIndex::insert`; this
    /// is the property that keeps it honest.
    #[test]
    fn reinserting_a_sealed_run_resident_key_is_a_duplicate(
        initial in prop::collection::vec(any::<u64>(), 0..80),
        stream in prop::collection::vec(any::<u64>(), 1..100),
        threshold in 2usize..8,
        max_runs in 2usize..5,
    ) {
        let init = sorted_unique(initial);
        let mut idx = DeltaIndex::new(init.clone(), cfg(), threshold).with_tiering(max_runs);
        let mut oracle: BTreeSet<u64> = init.iter().copied().collect();
        for &k in &stream {
            prop_assert_eq!(idx.insert(k), oracle.insert(k));
        }
        // Every key currently sealed in a run lives in NO other tier
        // (partition invariant), so re-inserting it must be a pure
        // duplicate: flag false, nothing moves, no tier grows.
        let snap = idx.snapshot();
        let sealed: Vec<u64> = snap.runs().iter().flat_map(|r| r.as_slice().iter().copied()).collect();
        let (len0, pend0, runs0, sealed0) =
            (idx.len(), idx.pending(), idx.run_count(), idx.sealed_keys());
        for &k in &sealed {
            prop_assert!(!idx.insert(k), "sealed key {} re-reported as new", k);
            prop_assert!(!idx.insert_batch(&[k])[0], "batched re-insert of sealed key {}", k);
        }
        prop_assert_eq!(idx.len(), len0);
        prop_assert_eq!(idx.pending(), pend0, "duplicates must not enter the buffer");
        prop_assert_eq!(idx.run_count(), runs0);
        prop_assert_eq!(idx.sealed_keys(), sealed0);
        // No cross-tier duplication anywhere: the exported merge of
        // all tiers is strictly sorted (a duplicated key would show up
        // as an equal adjacent pair).
        let exported = idx.export_keys();
        prop_assert!(exported.windows(2).all(|w| w[0] < w[1]), "export not strictly sorted");
        prop_assert_eq!(exported.len(), oracle.len());
    }

    /// The same partition pin one level up: a `ShardedWritable`
    /// routes the duplicate to the owner shard, whose
    /// sealed run must answer it — across shard boundaries, batched
    /// and scalar.
    #[test]
    fn sharded_reinsert_of_sealed_keys_never_duplicates(
        stream in prop::collection::vec(any::<u64>(), 8..80),
        shards in 1usize..4,
    ) {
        let config = ShardedWritableConfig {
            merge_threshold: 4,
            max_runs: 3,
            check_interval: 0,
            ..ShardedWritableConfig::default()
        };
        let sw = ShardedWritable::new((0..50u64).map(|i| i * 1000).collect::<Vec<_>>(), shards, config);
        let mut oracle: BTreeSet<u64> = (0..50u64).map(|i| i * 1000).collect();
        for &k in &stream {
            prop_assert_eq!(sw.insert(k), oracle.insert(k));
        }
        let len0 = sw.len();
        // Re-insert the entire stream (every key now lives in exactly
        // one tier of its owner shard): all duplicates, nothing grows.
        for &k in &stream {
            prop_assert!(!sw.insert(k), "key {} re-reported as new", k);
        }
        let flags = sw.insert_batch(&stream);
        prop_assert!(flags.iter().all(|&f| !f), "batched re-insert reported a new key");
        prop_assert_eq!(sw.len(), len0);
        let all = sw.range_keys(0, u64::MAX);
        prop_assert!(all.windows(2).all(|w| w[0] < w[1]), "global scan not strictly sorted");
    }

    /// A snapshot cut at an arbitrary point — including with a full
    /// run stack about to compact — is frozen: later inserts, seals
    /// and compactions on the live index never leak into it.
    #[test]
    fn snapshots_stay_frozen_across_later_seals_and_compactions(
        initial in prop::collection::vec(any::<u64>(), 1..80),
        before in prop::collection::vec(any::<u64>(), 0..60),
        after in prop::collection::vec(any::<u64>(), 1..60),
        threshold in 2usize..8,
        max_runs in 1usize..4,
    ) {
        let init = sorted_unique(initial);
        let mut idx = DeltaIndex::new(init.clone(), cfg(), threshold).with_tiering(max_runs);
        let mut oracle: BTreeSet<u64> = init.iter().copied().collect();
        for &k in &before {
            idx.insert(k);
            oracle.insert(k);
        }
        let cut = idx.snapshot();
        let frozen: Vec<u64> = oracle.iter().copied().collect();
        let frozen_runs = cut.runs().len();

        // Drive the live index through more seals and at least one
        // compaction opportunity.
        for &k in &after {
            idx.insert(k);
            if idx.needs_compaction() {
                idx.compact();
            }
        }
        idx.compact();

        // The cut is byte-for-byte the pre-mutation state.
        prop_assert_eq!(cut.len(), frozen.len());
        prop_assert_eq!(cut.runs().len(), frozen_runs, "runs grew into the snapshot");
        let hi = frozen.last().map_or(0, |&k| k.saturating_add(1));
        let visible: Vec<u64> = cut.range_keys(0, hi);
        let want: Vec<u64> = frozen.iter().copied().filter(|&k| k < hi).collect();
        prop_assert_eq!(visible, want);
        for (i, &k) in frozen.iter().enumerate() {
            prop_assert!(cut.contains(k), "snapshot lost {}", k);
            prop_assert_eq!(cut.rank(k), i, "rank {}", k);
        }
    }

    /// A forced fold at an arbitrary point — seal the half-full buffer,
    /// then fold every run — never changes the observable set, and a
    /// snapshot taken before it keeps answering from the pre-fold state.
    #[test]
    fn forced_folds_and_snapshots_preserve_the_view(
        initial in prop::collection::vec(any::<u64>(), 1..150),
        inserts in prop::collection::vec(any::<u64>(), 1..60),
        threshold in 8usize..64,
    ) {
        let init = sorted_unique(initial);
        let mut oracle: BTreeSet<u64> = init.iter().copied().collect();
        let mut idx = DeltaIndex::new(init, cfg(), threshold);

        let mid = inserts.len() / 2;
        for &k in &inserts[..mid] {
            prop_assert_eq!(idx.insert(k), oracle.insert(k));
        }
        let snap = idx.snapshot();
        let snap_oracle = oracle.clone();

        idx.seal();
        idx.compact();
        prop_assert_eq!((idx.pending(), idx.run_count()), (0, 0));
        assert_reads_match(&idx, &oracle, "after forced fold")?;

        for &k in &inserts[mid..] {
            prop_assert_eq!(idx.insert(k), oracle.insert(k));
        }
        assert_reads_match(&idx, &oracle, "after second half")?;
        assert_reads_match(&snap, &snap_oracle, "the pre-fold snapshot")?;
    }
}

/// All-duplicate streams never seal: every insert resolves in the
/// membership probe (buffer, runs, or base) and the tier state is
/// inert.
#[test]
fn all_duplicate_streams_never_seal_or_compact() {
    let data: Vec<u64> = (0..50u64).map(|i| i * 3).collect();
    let mut idx = DeltaIndex::new(data.clone(), cfg(), 4).with_tiering(2);
    for _round in 0..5 {
        for &k in &data {
            assert!(!idx.insert(k), "duplicate {k} must be a no-op");
        }
    }
    assert_eq!(idx.len(), 50);
    assert_eq!(idx.seals(), 0);
    assert_eq!(idx.run_count(), 0);
    assert_eq!(idx.compactions(), 0);
    assert_eq!(idx.pending(), 0);

    // Duplicates of keys already *sealed into runs* are no-ops too.
    for k in 0..8u64 {
        assert!(idx.insert(k * 3 + 1));
    }
    assert_eq!(idx.run_count(), 2);
    for k in 0..8u64 {
        assert!(!idx.insert(k * 3 + 1), "run-resident duplicate");
    }
    assert_eq!(idx.run_count(), 2, "duplicates never seal");
    assert_eq!(idx.len(), 58);
}

/// `u64::MAX` (and neighbors) behave in every tier: base, sealed run,
/// pending buffer — through a compaction.
#[test]
fn extreme_keys_work_in_every_tier() {
    let mut idx = DeltaIndex::new(vec![0u64, u64::MAX - 2], cfg(), 2).with_tiering(2);
    let mut oracle: BTreeSet<u64> = [0u64, u64::MAX - 2].into_iter().collect();
    for k in [u64::MAX, 1u64, u64::MAX - 1, 2, 3, 4] {
        assert_eq!(idx.insert(k), oracle.insert(k), "k={k}");
    }
    assert!(idx.run_count() > 0, "the stream must have sealed");
    for &q in &[0u64, 1, 2, 3, 4, 5, u64::MAX - 2, u64::MAX - 1, u64::MAX] {
        assert_eq!(idx.contains(q), oracle.contains(&q), "q={q}");
        assert_eq!(idx.rank(q), oracle.range(..q).count(), "rank q={q}");
    }
    while !idx.needs_compaction() {
        let next = idx.len() as u64 * 1000;
        idx.insert(next);
        oracle.insert(next);
    }
    assert!(idx.compact() > 0);
    assert_eq!(idx.len(), oracle.len());
    for &q in &[u64::MAX - 1, u64::MAX] {
        assert_eq!(idx.contains(q), oracle.contains(&q), "post-compact q={q}");
    }
}

/// The full-stack state itself (needs_compaction == true, owner not
/// yet run) serves reads exactly — the stack being "overdue" is a
/// scheduling fact, never a correctness state.
#[test]
fn reads_at_the_compaction_bound_are_exact() {
    let mut idx =
        DeltaIndex::new((0..20u64).map(|i| i * 10).collect::<Vec<_>>(), cfg(), 3).with_tiering(2);
    let mut oracle: BTreeSet<u64> = (0..20u64).map(|i| i * 10).collect();
    let mut k = 1u64;
    while !idx.needs_compaction() {
        assert_eq!(idx.insert(k), oracle.insert(k));
        k += 2;
    }
    assert_eq!(idx.run_count(), 2);
    assert_eq!(idx.len(), oracle.len());
    for q in 0..=200u64 {
        assert_eq!(idx.contains(q), oracle.contains(&q), "q={q}");
        assert_eq!(idx.rank(q), oracle.range(..q).count(), "q={q}");
    }
}

// ----------------------------------------------------------------------
// Run merging: bases big enough that full stacks merge before they fold.
// ----------------------------------------------------------------------

/// Twice the smallest base on which a full run stack merges instead of
/// folding: `2 × RUN_TIER_RATIO × threshold × max_runs` keys, spread over
/// the whole domain so random keys land between them (and in every shard
/// of a sharded store).
fn merge_base(threshold: usize, max_runs: usize) -> Vec<u64> {
    let n = 2 * RUN_TIER_RATIO * threshold * max_runs;
    let gap = u64::MAX / n as u64;
    (0..n as u64).map(|i| i * gap).collect()
}

/// What one maintenance step did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Merge,
    Fold,
}

/// The owner's maintenance policy on a shard whose stack is full, with
/// its bookkeeping checked: a run merge leaves one run and trains
/// nothing, a fold leaves none and trains once.
fn maintain(shard: &WritableShard) -> Result<Option<Step>, TestCaseError> {
    if !shard.needs_compaction() {
        return Ok(None);
    }
    let (runs, sealed, trains) = (shard.run_count(), shard.sealed_keys(), train_count());
    let (merges, folds) = (shard.run_merges(), shard.compactions());
    if shard.fold_due() {
        prop_assert_eq!(shard.compact(), runs);
        prop_assert_eq!(shard.compactions(), folds + 1);
        prop_assert_eq!(train_count(), trains + 1, "a fold trains once");
        prop_assert_eq!((shard.run_count(), shard.sealed_keys()), (0, 0));
        Ok(Some(Step::Fold))
    } else {
        prop_assert_eq!(shard.merge_runs(), runs);
        prop_assert_eq!(shard.run_merges(), merges + 1);
        prop_assert_eq!(train_count(), trains, "a run merge trains nothing");
        prop_assert_eq!((shard.run_count(), shard.sealed_keys()), (1, sealed));
        Ok(Some(Step::Merge))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A `WritableShard` whose owner merges full stacks until the run
    /// tier holds a sixteenth of the base, then folds, stays a
    /// `BTreeSet` through every merge → merge → fold cycle; the stack
    /// never exceeds `max_runs`, and only folds train.
    #[test]
    fn writable_shard_tracks_oracle_through_merge_and_fold_cycles(
        stream in prop::collection::vec(any::<u64>(), 0..300),
        threshold in 2usize..6,
        max_runs in 2usize..5,
    ) {
        let base = merge_base(threshold, max_runs);
        let shard = WritableShard::tiered(base.clone(), cfg(), threshold, max_runs);
        let mut oracle: BTreeSet<u64> = base.into_iter().collect();
        for (i, &k) in stream.iter().enumerate() {
            prop_assert_eq!(shard.insert(k), oracle.insert(k), "insert {}", k);
            prop_assert!(shard.run_count() <= max_runs);
            maintain(&shard)?;
            prop_assert!(shard.run_count() < max_runs, "maintenance left a full stack");
            if i % 41 == 0 {
                assert_reads_match(&shard.snapshot(), &oracle, &format!("step {i}"))?;
            }
        }
        assert_reads_match(&shard.snapshot(), &oracle, "final")?;
    }

    /// The same policy one level up, run by the store itself on every
    /// insert: each shard merges or folds inline, the store stays a
    /// `BTreeSet` read live, and no shard is left with a full stack.
    #[test]
    fn sharded_writable_tracks_oracle_through_run_merges(
        stream in prop::collection::vec(any::<u64>(), 0..300),
        shards in 1usize..4,
        threshold in 2usize..6,
        max_runs in 2usize..5,
    ) {
        let base: Vec<u64> = merge_base(threshold, max_runs * shards);
        let config = ShardedWritableConfig {
            merge_threshold: threshold,
            max_runs,
            check_interval: 0,
            ..ShardedWritableConfig::default()
        };
        let sw = ShardedWritable::new(base.clone(), shards, config);
        let mut oracle: BTreeSet<u64> = base.into_iter().collect();
        for (i, &k) in stream.iter().enumerate() {
            prop_assert_eq!(sw.insert(k), oracle.insert(k), "insert {}", k);
            prop_assert!(sw.run_count() <= (max_runs - 1) * sw.shard_count());
            if i % 41 == 0 {
                assert_reads_match(&sw, &oracle, &format!("step {i}"))?;
            }
        }
        assert_reads_match(&sw, &oracle, "final")?;
        prop_assert_eq!(
            sw.metrics().counter("li_run_merges_total"),
            Some(sw.run_merges() as u64)
        );
    }

    /// A run merge races the owner: between its cut and its install the
    /// live index takes more keys and then, by `race`, does nothing
    /// else, folds, or merges its runs itself. The install lands exactly
    /// when the captured runs are still the bottom of the stack, trains
    /// nothing, and the live index stays the oracle; the cut keeps
    /// answering from its own frozen tiers either way.
    #[test]
    fn run_merge_cuts_install_only_while_current_and_stay_frozen(
        before in prop::collection::vec(any::<u64>(), 0..60),
        after in prop::collection::vec(any::<u64>(), 0..40),
        threshold in 2usize..6,
        max_runs in 2usize..5,
        race in 0usize..3,
    ) {
        let base = merge_base(threshold, max_runs);
        let mut idx = DeltaIndex::new(base.clone(), cfg(), threshold).with_tiering(max_runs);
        let mut oracle: BTreeSet<u64> = base.into_iter().collect();
        for &k in &before {
            prop_assert_eq!(idx.insert(k), oracle.insert(k));
        }
        let mut fresh = 1u64;
        while idx.run_count() < 2 {
            if oracle.insert(fresh) {
                prop_assert!(idx.insert(fresh));
            }
            fresh += 2;
        }
        let cut = idx.snapshot();
        let frozen: BTreeSet<u64> = oracle.clone();
        let merged = cut.merge_runs().unwrap();
        let mut want: Vec<u64> = cut.runs().iter().flat_map(|r| r.as_slice().iter().copied()).collect();
        want.sort_unstable();
        prop_assert_eq!(merged.as_slice(), &want[..], "the merged run is the captured runs' union");

        for &k in &after {
            prop_assert_eq!(idx.insert(k), oracle.insert(k));
        }
        let raced = match race {
            1 => idx.compact() > 0,
            2 => {
                let rival = idx.snapshot();
                let run = rival.merge_runs().unwrap();
                idx.install_merged_runs(&rival, run).is_some()
            }
            _ => false,
        };
        let (trains, runs, sealed) = (train_count(), idx.run_count(), idx.sealed_keys());
        let installed = idx.install_merged_runs(&cut, merged);
        prop_assert_eq!(train_count(), trains, "installing a run merge trains nothing");
        prop_assert_eq!(installed.is_some(), !raced);
        match installed {
            Some(k) => {
                prop_assert_eq!(k, cut.runs().len());
                prop_assert_eq!(idx.run_count(), runs + 1 - k);
            }
            None => prop_assert_eq!(idx.run_count(), runs, "a stale cut installed something"),
        }
        prop_assert_eq!(idx.sealed_keys(), sealed);
        assert_reads_match(&idx, &oracle, "live after the install")?;
        assert_reads_match(&cut, &frozen, "the cut")?;
    }
}

/// The cycle itself, pinned: on a base of twice the merge-only size,
/// full stacks of `max_runs` go merge, merge, fold — and again — with
/// exactly one retrain per fold, while a store built the same way does
/// the same inline and reports it in its registry and event ring.
#[test]
fn full_stacks_merge_twice_then_fold() {
    let (threshold, max_runs) = (4usize, 3usize);
    let base = merge_base(threshold, max_runs);
    let shard = WritableShard::tiered(base.clone(), cfg(), threshold, max_runs);
    let mut oracle: BTreeSet<u64> = base.iter().copied().collect();
    let mut steps = Vec::new();
    let mut key = 1u64;
    while steps.len() < 6 {
        assert!(shard.insert(key));
        oracle.insert(key);
        key += 2;
        if let Some(step) = maintain(&shard).unwrap() {
            steps.push(step);
        }
    }
    use Step::{Fold, Merge};
    assert_eq!(steps, [Merge, Merge, Fold, Merge, Merge, Fold]);
    assert_reads_match(&shard.snapshot(), &oracle, "after two cycles").unwrap();

    let config = ShardedWritableConfig {
        merge_threshold: threshold,
        max_runs,
        check_interval: 0,
        ..ShardedWritableConfig::default()
    };
    let sw = ShardedWritable::new(base, 1, config);
    let trains = train_count();
    for k in (1..key).step_by(2) {
        assert!(sw.insert(k));
    }
    assert_eq!((sw.run_merges(), sw.compactions()), (4, 2));
    assert_eq!(
        train_count(),
        trains + 2,
        "one retrain per fold, none per merge"
    );
    let snap = sw.metrics();
    assert_eq!(snap.counter("li_run_merges_total"), Some(4));
    assert_eq!(snap.counter("li_compactions_total"), Some(2));
    let events = snap.ring("li_events").unwrap();
    assert_eq!(events.iter().filter(|e| e.name == "run_merge").count(), 4);
    assert_eq!(
        events.iter().filter(|e| e.name == "compact_fold").count(),
        2
    );
    assert_eq!(
        snap.histogram("li_run_merge_ns").map(|h| h.count()),
        Some(4)
    );
    assert_reads_match(&sw, &oracle, "store after two cycles").unwrap();
}

// ----------------------------------------------------------------------
// ε-corridor bases: the leaf count is a budget every build keeps.
// ----------------------------------------------------------------------

/// The segment budget `ShardedWritable` gives a shard built over `len`
/// keys with retuning off: its leaf count.
fn leaf_budget(len: usize, leaf_fraction: f64) -> usize {
    ((len as f64 * leaf_fraction).round() as usize).clamp(1, len.max(1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A fold of an ε-corridor base climbs the ladder from the base's ε:
    /// ε never falls, the fold never cuts more segments than the leaf
    /// count, and whenever a fresh build (which climbs from ε = 1) lands
    /// at or above the base's ε — so every rung below its answer fails —
    /// the fold lands on the same rung. A fresh build that lands exactly
    /// on the base's ε is a fold that keeps it.
    #[test]
    fn corridor_folds_keep_the_base_eps_while_the_keys_fit(
        initial in prop::collection::vec(any::<u64>(), 1..300),
        stream in prop::collection::vec(any::<u64>(), 0..300),
        leaves in 1usize..24,
    ) {
        let config = RmiConfig::corridor(leaves);
        let init = sorted_unique(initial);
        let mut idx = DeltaIndex::new(init.clone(), config.clone(), 8).with_tiering(4);
        let mut oracle: BTreeSet<u64> = init.into_iter().collect();
        for (i, &k) in stream.iter().enumerate() {
            prop_assert_eq!(idx.insert(k), oracle.insert(k));
            if i % 24 != 23 || idx.run_count() == 0 {
                continue;
            }
            let eps = idx.base_stats().eps.expect("a corridor base");
            let fresh = Rmi::build(idx.snapshot().merged_keys(), &config)
                .stats()
                .eps
                .expect("a corridor");
            idx.compact();
            let stats = idx.base_stats();
            prop_assert!(stats.leaves <= leaves, "{} segments for {} leaves", stats.leaves, leaves);
            let folded = stats.eps.expect("a corridor base");
            prop_assert!(folded >= eps, "ε {} fell below the base's {}", folded, eps);
            if fresh >= eps {
                prop_assert_eq!(folded, fresh, "the fold skipped a rung that fits (base ε {})", eps);
            }
        }
        assert_reads_match(&idx, &oracle, "after corridor folds")?;
    }

    /// A `Backend::Rmi` store's bases are ε-corridors of at most their
    /// leaf count of segments through folds, splits and merges. With
    /// retuning off the leaf count is `leaf_fraction` of the keys a base
    /// was built over, which is never more than that fraction of the
    /// keys it holds now.
    #[test]
    fn corridor_bases_keep_their_leaf_budget_through_folds_splits_and_merges(
        initial in prop::collection::vec(any::<u64>(), 32..120),
        stream in prop::collection::vec(any::<u64>(), 540..700),
    ) {
        // Eight shards of at most 15 keys: the first scan merges cold
        // pairs, and 540 more keys cannot fit eight shards of 64.
        let leaf_fraction = 1.0 / 16.0;
        let config = ShardedWritableConfig {
            merge_threshold: 16,
            leaf_fraction,
            retune: RetunePolicy {
                max_rounds: 0,
                ..RetunePolicy::default()
            },
            check_interval: 16,
            max_runs: 2,
            rebalance: RebalanceConfig {
                max_shard_len: 64,
                merge_max_len: 40,
                max_shards: 16,
            },
            ..ShardedWritableConfig::default()
        };
        let init = sorted_unique(initial);
        let sw = ShardedWritable::new(init.clone(), 8, config);
        let mut oracle: BTreeSet<u64> = init.into_iter().collect();
        for (i, &k) in stream.iter().enumerate() {
            prop_assert_eq!(sw.insert(k), oracle.insert(k));
            if i % 16 != 15 {
                continue;
            }
            for (s, shard) in sw.snapshot().shard_snapshots().iter().enumerate() {
                let base = shard.base_index();
                let stats = base.stats();
                prop_assert!(stats.eps.is_some(), "shard {} base is not a corridor", s);
                let budget = leaf_budget(base.data().len(), leaf_fraction);
                prop_assert!(stats.leaves <= budget,
                    "shard {}: {} segments over a leaf count of {}", s, stats.leaves, budget);
            }
        }
        prop_assert!(sw.compactions() > 0 && sw.splits() > 0 && sw.shard_merges() > 0,
            "folds {}, splits {}, merges {}", sw.compactions(), sw.splits(), sw.shard_merges());
        assert_reads_match(&sw, &oracle, "after folds, splits and merges")?;
    }
}
