//! Delta-buffered inserts for learned indexes (Appendix D.1), with an
//! optional LSM-style tiered write path.
//!
//! "There always exists a much simpler alternative to handling inserts
//! by building a delta-index \[60\]. All inserts are kept in buffer and
//! from time to time merged with a potential retraining of the model.
//! This approach is already widely used, for example in Bigtable."
//!
//! [`DeltaIndex`] wraps an [`Rmi`] with a sorted insert buffer. In the
//! classic (untiered) configuration, lookups consult both sides and a
//! full buffer is merged into the base with a retrain — the paper's D.1
//! design verbatim. In **tiered** mode ([`DeltaIndex::with_tiering`]),
//! a full buffer is instead *sealed* into an immutable [`SortedRun`]
//! with its own O(run) linear mini-model, and the stack of runs is only
//! folded into the base — ONE retrain for many sealed buffers — by an
//! explicit [`DeltaIndex::compact`] call, which the serving layer
//! schedules on its background `RebalanceWorker`. That breaks the
//! merge-threshold / retrain-cost tradeoff the same way LSM-trees do:
//! the hot insert path never pays a base retrain.
//!
//! The base RMI and every sealed run live behind `Arc`s, so both merges
//! and compactions are *whole-tier swaps*: readers holding a
//! [`DeltaSnapshot`] keep the old trained model, runs and zero-copy
//! [`KeyStore`] alive for as long as they need them, which is what makes
//! the `li-serve` write path's snapshot-consistent concurrent reads
//! possible — even mid-compaction.

use std::sync::Arc;

use crate::merge::{splice_merge_arc, splice_merge_vec};
use crate::rmi::{Rmi, RmiConfig};
use crate::run::SortedRun;
use li_index::{KeyStore, RangeIndex};

/// The base's keys, then every run's (oldest first), then `delta`: the
/// tiers as the merge primitive takes them.
fn tier_slices<'a>(
    base: &'a [u64],
    runs: &'a [Arc<SortedRun>],
    delta: &'a [u64],
) -> Vec<&'a [u64]> {
    let mut slices = Vec::with_capacity(runs.len() + 2);
    slices.push(base);
    slices.extend(runs.iter().map(|r| r.as_slice()));
    slices.push(delta);
    slices
}

/// One merged key array for a new base, written once into the
/// allocation the returned store owns.
fn merged_store(base: &[u64], runs: &[Arc<SortedRun>], delta: &[u64]) -> KeyStore {
    let merged = splice_merge_arc(&tier_slices(base, runs, delta));
    // All tiers must be mutually disjoint (the insert-path duplicate
    // probe checks upper tiers first — see `DeltaIndex::insert`); any
    // overlap would double-count in `len`/`rank` and show up here as an
    // equal adjacent pair.
    debug_assert!(
        merged.windows(2).all(|w| w[0] < w[1]),
        "tiers must be mutually disjoint"
    );
    merged.into()
}

/// An updatable learned index: RMI base + sorted delta buffer, plus (in
/// tiered mode) a bounded stack of immutable sorted runs between them.
///
/// The base keys live in the RMI's shared [`KeyStore`]; only the (small,
/// bounded) insert buffer is owned, mutable storage. The trained base and
/// every sealed run sit behind `Arc`s so [`DeltaIndex::snapshot`] is
/// O(pending): it clones the `Arc`s and freezes the buffer, never the
/// keys or the models.
///
/// Reads fan across the tiers newest-first — buffer, then runs (newest
/// sealed first), then base — and the tiers are mutually disjoint at all
/// times, so each tier's contribution to `len`/`rank` simply adds up.
#[derive(Debug)]
pub struct DeltaIndex {
    base: Arc<Rmi>,
    config: RmiConfig,
    delta: Vec<u64>,
    /// Sealed immutable runs, oldest first ([`DeltaIndex::seal`] pushes).
    runs: Vec<Arc<SortedRun>>,
    /// Cached total key count across `runs` (kept in sync by
    /// seal/compact/merge so `len` is O(1)).
    sealed: usize,
    merge_threshold: usize,
    /// `0` = untiered (classic merge-at-threshold); `> 0` = seal at the
    /// threshold and report [`DeltaIndex::needs_compaction`] once this
    /// many runs have stacked up.
    max_runs: usize,
    merges: usize,
    seals: usize,
    compactions: usize,
    base_probes: u64,
}

impl DeltaIndex {
    /// Build over initial `data` (sorted, unique); buffer up to
    /// `merge_threshold` inserts between retrains.
    pub fn new(data: impl Into<KeyStore>, config: RmiConfig, merge_threshold: usize) -> Self {
        Self::from_trained(Rmi::build(data, &config), config, merge_threshold)
    }

    /// Wrap an already-trained base RMI (no retraining) — for callers
    /// that tune the model before handing it over, e.g. the sharded
    /// write path's per-shard retune loop. `config` is what future
    /// merge+retrain cycles rebuild with, so pass the configuration the
    /// base was actually trained under.
    pub fn from_trained(base: Rmi, config: RmiConfig, merge_threshold: usize) -> Self {
        assert!(merge_threshold > 0);
        Self {
            base: Arc::new(base),
            config,
            delta: Vec::new(),
            runs: Vec::new(),
            sealed: 0,
            merge_threshold,
            max_runs: 0,
            merges: 0,
            seals: 0,
            compactions: 0,
            base_probes: 0,
        }
    }

    /// Switch this index to the LSM-style tiered write path: a full
    /// buffer is sealed into an immutable [`SortedRun`] (O(buffer), no
    /// base retrain) instead of merged, and once `max_runs` runs have
    /// stacked up [`DeltaIndex::needs_compaction`] turns true so the
    /// owner can fold them into the base with ONE retrain — inline via
    /// [`DeltaIndex::compact`], or off-thread the way `li-serve`'s
    /// background worker does.
    ///
    /// `max_runs == 0` keeps the classic untiered merge-at-threshold
    /// behavior. The index itself never compacts on its own in tiered
    /// mode: the run stack only shrinks when the owner asks, which is
    /// what lets a serving layer prove that compaction runs *only* on
    /// its background worker.
    ///
    /// # Examples
    /// ```
    /// use li_core::delta::DeltaIndex;
    /// use li_core::rmi::RmiConfig;
    ///
    /// let mut idx = DeltaIndex::new(vec![100u64, 200], RmiConfig::default(), 4).with_tiering(2);
    /// let before = li_core::train_count();
    /// for k in 0..8u64 {
    ///     idx.insert(k); // two buffers' worth: two seals, zero retrains
    /// }
    /// assert_eq!(idx.seals(), 2);
    /// assert_eq!(li_core::train_count(), before, "sealing never retrains");
    /// assert!(idx.needs_compaction());
    /// assert_eq!(idx.compact(), 2); // both runs folded, ONE retrain
    /// assert_eq!(idx.len(), 10);
    /// ```
    pub fn with_tiering(mut self, max_runs: usize) -> Self {
        self.max_runs = max_runs;
        self
    }

    /// Insert a key, returning whether it was newly inserted (`false`
    /// for duplicates of existing keys, which are ignored to keep the
    /// unique-sorted-key invariant). At the merge threshold the full
    /// buffer is merged+retrained (untiered) or sealed into a run
    /// (tiered).
    ///
    /// The duplicate check fans across the tiers newest-first: the
    /// O(log pending) sorted-buffer probe runs first and short-circuits,
    /// then the sealed runs (newest first, mini-model windows), and the
    /// full learned lookup against the base only runs when everything
    /// above missed. The buffer probe doubles as the insertion position,
    /// so bulk loads do one buffer search per insert, not two. The
    /// tiers-before-base order is safe because all tiers are mutually
    /// disjoint at all times: a key only enters the buffer after missing
    /// *every* probe, sealing moves the whole buffer into a run
    /// verbatim, and merge/compaction move whole tiers into the base
    /// atomically (under `&mut self`), so no tier can ever hold a key
    /// another tier has. [`DeltaIndex::merge`] re-checks the invariant
    /// with a strict sortedness assertion on the merged array in debug
    /// builds.
    pub fn insert(&mut self, key: u64) -> bool {
        let pos = self.delta.partition_point(|&k| k < key);
        if self.delta.get(pos).is_some_and(|&k| k == key) || self.in_runs(key) {
            return false;
        }
        self.base_probes += 1;
        if self.base.lookup(key).is_some() {
            return false;
        }
        self.delta.insert(pos, key);
        if self.delta.len() >= self.merge_threshold {
            self.overflow();
        }
        true
    }

    /// Insert a whole batch of keys in one pass over the sorted buffer,
    /// returning one newly-inserted flag per key *in input order*
    /// (`false` for keys already present in any tier, and for the second
    /// and later occurrences of a key duplicated within the batch).
    ///
    /// Observationally identical to calling [`DeltaIndex::insert`] once
    /// per key in input order — same final contents, same flags — but
    /// the buffer is rebuilt with a single linear merge instead of one
    /// `Vec::insert` memmove per key, and the overflow check runs once
    /// at the end instead of per key, so a batch triggers at most one
    /// retrain (untiered) or seal (tiered).
    ///
    /// Keys resolved by the pending-buffer or run probes are excluded
    /// from the base `lower_bound_batch` membership pass entirely — the
    /// base only ever sees keys no upper tier could answer (observable
    /// via [`DeltaIndex::base_probes`]).
    ///
    /// # Examples
    /// ```
    /// use li_core::delta::DeltaIndex;
    /// use li_core::rmi::RmiConfig;
    ///
    /// let mut idx = DeltaIndex::new(vec![10u64, 20, 30], RmiConfig::default(), 64);
    /// // 20 is in the base, the second 15 duplicates the first.
    /// let flags = idx.insert_batch(&[15, 20, 15, 7]);
    /// assert_eq!(flags, vec![true, false, false, true]);
    /// assert_eq!(idx.len(), 5);
    /// ```
    pub fn insert_batch(&mut self, keys: &[u64]) -> Vec<bool> {
        let mut flags = vec![false; keys.len()];
        if keys.is_empty() {
            return flags;
        }
        // Stable sort by key: equal keys keep input order, so for
        // intra-batch duplicates the FIRST occurrence is the one
        // reported as inserted — matching the scalar loop.
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_by_key(|&i| keys[i]);
        // Candidates: not an intra-batch duplicate, not in the buffer,
        // not in any sealed run. Base membership for the survivors is
        // resolved below with the RMI's phase-split batched lookup, so
        // the model/search cache misses of distinct candidates overlap
        // instead of serializing per key.
        let mut cand_keys: Vec<u64> = Vec::with_capacity(keys.len());
        let mut cand_slots: Vec<usize> = Vec::with_capacity(keys.len());
        for &i in &order {
            let k = keys[i];
            if cand_keys.last() == Some(&k) {
                continue; // intra-batch duplicate (equal keys are adjacent)
            }
            if self.delta.binary_search(&k).is_ok() {
                continue; // already buffered
            }
            if self.in_runs(k) {
                continue; // already sealed in a run
            }
            cand_keys.push(k);
            cand_slots.push(i);
        }
        let mut fresh: Vec<u64> = Vec::with_capacity(cand_keys.len());
        if !cand_keys.is_empty() {
            self.base_probes += cand_keys.len() as u64;
            let mut lbs = vec![0usize; cand_keys.len()];
            self.base.lower_bound_batch(&cand_keys, &mut lbs);
            let data = self.base.data();
            for ((&k, &slot), &lb) in cand_keys.iter().zip(&cand_slots).zip(&lbs) {
                if lb < data.len() && data[lb] == k {
                    continue; // already in the base
                }
                fresh.push(k);
                flags[slot] = true;
            }
        }
        if !fresh.is_empty() {
            self.delta = splice_merge_vec(&[&self.delta, &fresh]);
            if self.delta.len() >= self.merge_threshold {
                self.overflow();
            }
        }
        flags
    }

    /// Whether any sealed run holds `key` (probed newest-first: recent
    /// inserts are the likeliest re-insert targets).
    fn in_runs(&self, key: u64) -> bool {
        self.runs.iter().rev().any(|r| r.contains(key))
    }

    /// The full-buffer action: merge+retrain when untiered, seal into a
    /// run when tiered.
    fn overflow(&mut self) {
        if self.max_runs == 0 {
            self.merge();
        } else {
            self.seal();
        }
        // A batch can overfill the buffer far past the threshold (a
        // recovery replays its whole WAL tail as one); keep only the
        // capacity the next fill needs.
        self.delta.shrink_to(self.merge_threshold);
    }

    /// Whether `key` exists in any tier. Probes the small sorted buffer
    /// first, then the sealed runs newest-first; the learned base is
    /// only consulted when every upper tier misses.
    pub fn contains(&self, key: u64) -> bool {
        self.delta.binary_search(&key).is_ok()
            || self.in_runs(key)
            || self.base.lookup(key).is_some()
    }

    /// Number of keys `< key` across all tiers — the global lower-bound
    /// rank in the merged view. Tier disjointness makes this a plain
    /// sum of per-tier ranks.
    pub fn rank(&self, key: u64) -> usize {
        self.base.lower_bound(key)
            + self.runs.iter().map(|r| r.lower_bound(key)).sum::<usize>()
            + self.delta.partition_point(|&k| k < key)
    }

    /// Total keys (base + sealed runs + buffer).
    pub fn len(&self) -> usize {
        self.base.data().len() + self.sealed + self.delta.len()
    }

    /// Whether the index holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Keys currently waiting in the mutable delta buffer (sealed run
    /// keys are counted by [`DeltaIndex::sealed_keys`], not here).
    pub fn pending(&self) -> usize {
        self.delta.len()
    }

    /// How many merge+retrain cycles have run.
    pub fn merges(&self) -> usize {
        self.merges
    }

    /// How many buffers have been sealed into immutable runs.
    pub fn seals(&self) -> usize {
        self.seals
    }

    /// How many compactions (run stacks folded into the base with one
    /// retrain) have run.
    pub fn compactions(&self) -> usize {
        self.compactions
    }

    /// Sealed runs currently stacked between the buffer and the base.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Total keys across all sealed runs.
    pub fn sealed_keys(&self) -> usize {
        self.sealed
    }

    /// The tiering bound this index was built with (`0` = untiered).
    pub fn max_runs(&self) -> usize {
        self.max_runs
    }

    /// Whether the run stack has reached its bound and the owner should
    /// schedule a [`DeltaIndex::compact`]. Always `false` untiered.
    pub fn needs_compaction(&self) -> bool {
        self.max_runs > 0 && self.runs.len() >= self.max_runs
    }

    /// How many keys the write paths have had to check against the
    /// trained base (scalar probes plus batched `lower_bound_batch`
    /// membership candidates). Keys resolved by the pending-buffer or
    /// run probes never reach the base and are not counted — the
    /// regression tests pin that down.
    pub fn base_probes(&self) -> u64 {
        self.base_probes
    }

    /// An immutable, internally consistent view of the index as of now:
    /// the current trained base and sealed runs (shared via `Arc`,
    /// zero-copy) plus a frozen copy of the pending buffer (bounded by
    /// the merge threshold). Later inserts, seals, compactions and
    /// merges never disturb an outstanding snapshot — every structural
    /// change swaps `Arc`s, it never mutates what they point at.
    pub fn snapshot(&self) -> DeltaSnapshot {
        DeltaSnapshot {
            base: Arc::clone(&self.base),
            runs: self.runs.clone(),
            // One copy straight into the Arc allocation (a Vec clone
            // would copy again on the Vec -> Arc<[u64]> conversion).
            delta: Arc::from(self.delta.as_slice()),
        }
    }

    /// Seal the current buffer into an immutable [`SortedRun`] (O(buffer)
    /// linear mini-model fit, **no** base retrain). No-op on an empty
    /// buffer. Normally driven by the overflow path in tiered mode, but
    /// callable directly — e.g. to freeze a half-full buffer before a
    /// planned compaction.
    pub fn seal(&mut self) {
        if self.delta.is_empty() {
            return;
        }
        // Seal FIRST, then mutate: `SortedRun::seal` allocates and can
        // panic, at which point the index must still be its pre-seal
        // self (the serving layer recovers poisoned locks with
        // `into_inner`).
        let run = Arc::new(SortedRun::seal(self.delta.as_slice()));
        self.sealed += run.len();
        self.delta.clear();
        self.runs.push(run);
        self.seals += 1;
    }

    /// Fold every sealed run into the base with ONE retrain, leaving the
    /// mutable buffer untouched. Returns the number of runs folded (0 if
    /// the stack was empty). This is the inline form; a serving layer
    /// that must not block writers trains off-lock from a snapshot via
    /// [`DeltaSnapshot::train_compacted`] and publishes with
    /// [`DeltaIndex::install_compacted`].
    pub fn compact(&mut self) -> usize {
        if self.runs.is_empty() {
            return 0;
        }
        let cut = self.snapshot();
        let rebuilt = cut
            .train_compacted(&self.config)
            .expect("non-empty run stack");
        self.install_compacted(&cut, rebuilt)
            .expect("inline compaction cannot race itself")
    }

    /// Publish an off-lock compaction: install `rebuilt` (trained from
    /// `cut` via [`DeltaSnapshot::train_compacted`]) as the new base and
    /// drop exactly the runs `cut` captured. Returns the number of runs
    /// folded, or `None` — installing nothing — if the base or any
    /// captured run changed since the cut (a concurrent merge or
    /// compaction won the race; the caller simply retries later, exactly
    /// like the rebalancer's `Raced` outcome). Runs sealed *after* the
    /// cut are unaffected and stay stacked.
    ///
    /// # Examples
    /// ```
    /// use li_core::delta::DeltaIndex;
    /// use li_core::rmi::RmiConfig;
    ///
    /// let mut idx = DeltaIndex::new(vec![100u64], RmiConfig::default(), 2).with_tiering(2);
    /// for k in 0..4u64 {
    ///     idx.insert(k);
    /// }
    /// let cut = idx.snapshot();
    /// let rebuilt = cut.train_compacted(idx.config()).unwrap(); // off-lock in real use
    /// assert_eq!(idx.install_compacted(&cut, rebuilt), Some(2));
    /// assert_eq!(idx.run_count(), 0);
    /// assert_eq!(idx.len(), 5);
    /// ```
    pub fn install_compacted(&mut self, cut: &DeltaSnapshot, rebuilt: Rmi) -> Option<usize> {
        if !Arc::ptr_eq(&self.base, &cut.base) {
            return None;
        }
        let k = cut.runs.len();
        if k == 0
            || self.runs.len() < k
            || !self.runs[..k]
                .iter()
                .zip(&cut.runs)
                .all(|(a, b)| Arc::ptr_eq(a, b))
        {
            return None;
        }
        let folded: usize = self.runs[..k].iter().map(|r| r.len()).sum();
        self.base = Arc::new(rebuilt);
        self.runs.drain(..k);
        self.sealed -= folded;
        self.compactions += 1;
        Some(k)
    }

    /// [`DeltaIndex::install_compacted`] plus a configuration swap:
    /// install `rebuilt` — trained from `cut`'s
    /// [`DeltaSnapshot::merged_keys`] under a possibly *different*
    /// configuration than the current base — and make `config` the
    /// index's configuration from now on (future merge retrains use
    /// it). This is how a serving layer's backend re-selection changes
    /// a shard's family at compaction time: same race rules, same
    /// return value, but the decision sticks.
    pub fn install_compacted_with(
        &mut self,
        cut: &DeltaSnapshot,
        rebuilt: Rmi,
        config: RmiConfig,
    ) -> Option<usize> {
        let folded = self.install_compacted(cut, rebuilt)?;
        self.config = config;
        Some(folded)
    }

    /// Force a full collapse now: every sealed run AND the buffer merged
    /// into the base with one retrain. In untiered mode (no runs) this
    /// is exactly the classic D.1 merge.
    pub fn merge(&mut self) {
        if self.delta.is_empty() && self.runs.is_empty() {
            return;
        }
        let merged = merged_store(self.base.data(), &self.runs, &self.delta);
        // Retrain BEFORE touching any field: `Rmi::build` is the one
        // call here that can panic (allocation, model fitting), and at
        // that point the index must still be exactly its pre-merge self
        // — the serving layer recovers poisoned locks with
        // `into_inner`, which is only sound if every panic leaves the
        // guarded value valid. The whole-base Arc swap afterwards also
        // keeps outstanding snapshots of the old base intact.
        let rebuilt = Rmi::build(merged, &self.config);
        self.base = Arc::new(rebuilt);
        self.delta.clear();
        self.runs.clear();
        self.sealed = 0;
        self.merges += 1;
    }

    /// Range scan over the merged view: all keys in `[lo, hi)`, sorted.
    pub fn range_keys(&self, lo: u64, hi: u64) -> Vec<u64> {
        range_keys_of(&self.base, &self.runs, &self.delta, lo, hi)
    }

    /// Export every key (base + runs + buffer) as one sorted unique
    /// vector — the hand-off a sharded write path uses when a shard
    /// splits and gives half its keys to a sibling, or when two cold
    /// shards merge.
    pub fn export_keys(&self) -> Vec<u64> {
        splice_merge_vec(&tier_slices(self.base.data(), &self.runs, &self.delta))
    }

    /// Split the full merged keyset at `pivot`: `(keys < pivot,
    /// keys >= pivot)`, both sorted unique. The right half starts the
    /// sibling shard whose ownership range begins at `pivot`.
    pub fn split_keys(&self, pivot: u64) -> (Vec<u64>, Vec<u64>) {
        let mut all = self.export_keys();
        let at = all.partition_point(|&k| k < pivot);
        let right = all.split_off(at);
        (all, right)
    }

    /// Error statistics of the trained base RMI (the per-shard retuning
    /// and split-on-error signals). Buffered and sealed keys are not
    /// reflected until the next merge or compaction — this reports the
    /// model actually serving the base, which is what retuning
    /// decisions care about.
    pub fn base_stats(&self) -> &crate::rmi::RmiStats {
        self.base.stats()
    }

    /// The merge threshold this index was built with.
    pub fn merge_threshold(&self) -> usize {
        self.merge_threshold
    }

    /// The configuration merge+retrain cycles rebuild with.
    pub fn config(&self) -> &RmiConfig {
        &self.config
    }

    /// Restore an index from persisted state: an already-trained base
    /// plus the delta buffer exactly as it was saved — the warm-restart
    /// "replay deltas on load" path. Nothing is retrained: `pending` is
    /// installed as the buffer verbatim, and because every saved buffer
    /// satisfies `pending.len() < merge_threshold` (an overflow fires
    /// *at* the threshold, so a live index never holds more), installing
    /// it cannot trigger a merge either.
    ///
    /// # Panics
    /// If `merge_threshold == 0`, `pending.len() >= merge_threshold`,
    /// or `pending` is not sorted, unique and disjoint from the base.
    pub fn with_pending(
        base: Rmi,
        config: RmiConfig,
        merge_threshold: usize,
        pending: Vec<u64>,
    ) -> Self {
        Self::with_tiers(base, config, merge_threshold, 0, Vec::new(), pending)
    }

    /// Restore a tiered index from persisted state: an already-trained
    /// base, the sealed run stack (oldest first, mini-models refitted
    /// here in O(run) — **not** a training event), and the pending
    /// buffer verbatim. Nothing retrains the base:
    /// [`crate::rmi::train_count`] is flat across this call.
    ///
    /// # Panics
    /// If `merge_threshold == 0`, `pending.len() >= merge_threshold`,
    /// any run is empty or unsorted, or the tiers (base, runs, pending)
    /// are not mutually disjoint sorted-unique sets.
    pub fn with_tiers(
        base: Rmi,
        config: RmiConfig,
        merge_threshold: usize,
        max_runs: usize,
        runs: Vec<Vec<u64>>,
        pending: Vec<u64>,
    ) -> Self {
        assert!(merge_threshold > 0);
        assert!(
            pending.len() < merge_threshold,
            "a saved delta buffer is always below the merge threshold"
        );
        assert!(
            pending.windows(2).all(|w| w[0] < w[1]),
            "pending must be sorted unique"
        );
        for run in &runs {
            assert!(!run.is_empty(), "sealed runs are never empty");
            assert!(
                run.windows(2).all(|w| w[0] < w[1]),
                "runs must be sorted unique"
            );
        }
        // Mutual disjointness across ALL tiers, without touching more of
        // the (possibly file-mapped) base than the probes read: the
        // upper tiers are disjoint sorted-unique sets iff their merge is
        // strictly sorted (run∩run, run∩pending show up as an equal
        // adjacent pair), and disjoint from the base iff no upper key is
        // found there.
        {
            let mut slices: Vec<&[u64]> = runs.iter().map(Vec::as_slice).collect();
            slices.push(&pending);
            let upper = splice_merge_vec(&slices);
            assert!(
                upper.windows(2).all(|w| w[0] < w[1])
                    && upper.iter().all(|&k| base.lookup(k).is_none()),
                "tiers must be mutually disjoint"
            );
        }
        let sealed = runs.iter().map(Vec::len).sum();
        let runs = runs
            .into_iter()
            .map(|r| Arc::new(SortedRun::seal(r)))
            .collect();
        Self {
            base: Arc::new(base),
            config,
            delta: pending,
            runs,
            sealed,
            merge_threshold,
            max_runs,
            merges: 0,
            seals: 0,
            compactions: 0,
            base_probes: 0,
        }
    }
}

/// An immutable point-in-time view of a [`DeltaIndex`]: the trained base
/// and sealed runs at snapshot time (`Arc`-shared with the live index —
/// zero key copies) plus the then-pending buffer. All reads answered
/// from one snapshot are mutually consistent no matter how many inserts,
/// seals, compactions or retrains the live index runs concurrently.
#[derive(Debug, Clone)]
pub struct DeltaSnapshot {
    base: Arc<Rmi>,
    runs: Vec<Arc<SortedRun>>,
    delta: Arc<[u64]>,
}

impl DeltaSnapshot {
    /// Whether `key` existed when the snapshot was taken.
    pub fn contains(&self, key: u64) -> bool {
        self.delta.binary_search(&key).is_ok()
            || self.runs.iter().rev().any(|r| r.contains(key))
            || self.base.lookup(key).is_some()
    }

    /// Number of keys `< key` in the snapshot (lower-bound rank over the
    /// merged view).
    pub fn rank(&self, key: u64) -> usize {
        self.base.lower_bound(key)
            + self.runs.iter().map(|r| r.lower_bound(key)).sum::<usize>()
            + self.delta.partition_point(|&k| k < key)
    }

    /// Total keys in the snapshot.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.base.data().len() + self.runs.iter().map(|r| r.len()).sum::<usize>() + self.delta.len()
    }

    /// Keys that were pending in the buffer at snapshot time.
    pub fn pending(&self) -> usize {
        self.delta.len()
    }

    /// Range scan over the snapshot's merged view: all keys in
    /// `[lo, hi)`, sorted.
    pub fn range_keys(&self, lo: u64, hi: u64) -> Vec<u64> {
        range_keys_of(&self.base, &self.runs, &self.delta, lo, hi)
    }

    /// The snapshot's base key store (for zero-copy assertions: a
    /// snapshot taken before a merge shares its store with nothing the
    /// live index currently holds, one taken after shares it exactly).
    pub fn base_store(&self) -> &KeyStore {
        self.base.key_store()
    }

    /// The snapshot's trained base index (the persistence layer reads
    /// its coefficients and key array from here at save time).
    pub fn base_index(&self) -> &Rmi {
        &self.base
    }

    /// The sealed runs at snapshot time, oldest first (`Arc`-shared with
    /// the live index — the persistence layer serializes their key
    /// slices from here at save time).
    pub fn runs(&self) -> &[Arc<SortedRun>] {
        &self.runs
    }

    /// The keys that were pending in the buffer at snapshot time
    /// (sorted, unique, disjoint from every other tier — what a snapshot
    /// file records for replay on load).
    pub fn delta_keys(&self) -> &[u64] {
        &self.delta
    }

    /// The keys a compaction of this snapshot would fold into the new
    /// base: base keys plus every captured run, merged sorted unique
    /// (the pending buffer stays live and is excluded), in a store of
    /// their own that the new base can be trained over as is. This is
    /// what a serving layer re-runs backend selection over before
    /// deciding how to train the compacted base.
    pub fn merged_keys(&self) -> KeyStore {
        merged_store(self.base.data(), &self.runs, &[])
    }

    /// Train the compacted base this snapshot implies: base keys plus
    /// every captured run, merged and trained with ONE `Rmi::build`
    /// (leaving out the pending buffer, which stays live). Returns
    /// `None` when the snapshot captured no runs. This is the off-lock
    /// half of background compaction; publish the result with
    /// [`DeltaIndex::install_compacted`].
    pub fn train_compacted(&self, config: &RmiConfig) -> Option<Rmi> {
        if self.runs.is_empty() {
            return None;
        }
        Some(Rmi::build(self.merged_keys(), config))
    }
}

/// Shared range-scan body for the live index and its snapshots.
fn range_keys_of(base: &Rmi, runs: &[Arc<SortedRun>], delta: &[u64], lo: u64, hi: u64) -> Vec<u64> {
    let base_range = base.range(lo, hi);
    let d_lo = delta.partition_point(|&k| k < lo);
    let d_hi = delta.partition_point(|&k| k < hi);
    let mut slices: Vec<&[u64]> = Vec::with_capacity(runs.len() + 2);
    slices.push(&base.data()[base_range]);
    for r in runs {
        slices.push(r.range(lo, hi));
    }
    slices.push(&delta[d_lo..d_hi]);
    splice_merge_vec(&slices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rmi::TopModel;

    fn cfg() -> RmiConfig {
        RmiConfig::two_stage(TopModel::Linear, 64)
    }

    #[test]
    fn insert_then_lookup() {
        let data: Vec<u64> = (0..1000u64).map(|i| i * 10).collect();
        let mut idx = DeltaIndex::new(data, cfg(), 100);
        assert!(idx.contains(10));
        assert!(!idx.contains(11));
        idx.insert(11);
        assert!(idx.contains(11));
        assert_eq!(idx.pending(), 1);
        assert_eq!(idx.len(), 1001);
    }

    #[test]
    fn merge_triggers_at_threshold_and_preserves_keys() {
        let data: Vec<u64> = (0..500u64).map(|i| i * 3).collect();
        let mut idx = DeltaIndex::new(data, cfg(), 10);
        for k in 0..25u64 {
            idx.insert(k * 3 + 1);
        }
        assert!(idx.merges() >= 2, "merges {}", idx.merges());
        assert!(idx.pending() < 10);
        for k in 0..25u64 {
            assert!(idx.contains(k * 3 + 1), "lost {}", k * 3 + 1);
        }
        for k in 0..500u64 {
            assert!(idx.contains(k * 3));
        }
    }

    #[test]
    fn duplicates_are_ignored_and_reported() {
        let mut idx = DeltaIndex::new(vec![1, 5, 9], cfg(), 100);
        assert!(!idx.insert(5), "base duplicate must report false");
        assert!(idx.insert(7), "fresh key must report true");
        assert!(!idx.insert(7), "buffered duplicate must report false");
        assert_eq!(idx.len(), 4);
    }

    #[test]
    fn export_and_split_round_trip() {
        let mut idx = DeltaIndex::new(vec![10u64, 20, 30, 40], cfg(), 100);
        idx.insert(25);
        idx.insert(5);
        assert_eq!(idx.export_keys(), vec![5, 10, 20, 25, 30, 40]);

        let (left, right) = idx.split_keys(25);
        assert_eq!(left, vec![5, 10, 20]);
        assert_eq!(right, vec![25, 30, 40]);
        // Pivot below/above everything: one side empty.
        assert_eq!(idx.split_keys(0).0, Vec::<u64>::new());
        assert_eq!(idx.split_keys(u64::MAX).1, Vec::<u64>::new());
        // Export survives a merge unchanged.
        idx.merge();
        assert_eq!(idx.export_keys(), vec![5, 10, 20, 25, 30, 40]);
    }

    #[test]
    fn base_stats_reflect_the_trained_base() {
        let data: Vec<u64> = (0..2000u64).collect();
        let mut idx = DeltaIndex::new(data, cfg(), 8);
        // Linear data: the base model is near-exact.
        assert!(idx.base_stats().max_abs_err <= 1);
        assert_eq!(idx.merge_threshold(), 8);
        // Stats follow the base across a retrain.
        for k in 0..16u64 {
            idx.insert(5000 + k * 3);
        }
        assert!(idx.merges() >= 1);
        assert!(idx.base_stats().leaves > 0);
    }

    /// Regression for the duplicate-check split: duplicate inserts must
    /// never occupy buffer slots, so they can neither trigger merges nor
    /// perturb the merge cadence of the unique inserts around them.
    #[test]
    fn duplicate_inserts_do_not_affect_merge_counts() {
        let threshold = 8usize;
        let mut idx = DeltaIndex::new(vec![1000, 2000, 3000], cfg(), threshold);

        // Hammer one buffered key: threshold× re-inserts, zero merges.
        idx.insert(5);
        for _ in 0..threshold * 2 {
            idx.insert(5);
        }
        assert_eq!(idx.merges(), 0);
        assert_eq!(idx.pending(), 1);

        // Interleave unique inserts with base and buffer duplicates; the
        // merge count must be exactly what the unique inserts alone give:
        // 16 unique total (incl. the 5 above) at threshold 8 -> 2 merges.
        for k in 0..15u64 {
            idx.insert(k * 2 + 11);
            idx.insert(1000); // base duplicate
            idx.insert(5); // previously inserted key
        }
        assert_eq!(idx.merges(), 2, "pending={}", idx.pending());
        assert_eq!(idx.pending(), 0);
        assert_eq!(idx.len(), 3 + 16);
    }

    /// The duplicate probe checks the buffer before the base. That
    /// order is only sound if base ∩ buffer == ∅ at all times — a key
    /// living on both sides would be reported "duplicate" correctly but
    /// would double-count in `len`/`rank`. This test drives keys through
    /// every membership transition (fresh → buffered → merged-to-base →
    /// re-inserted) and checks the bookkeeping that any overlap would
    /// break; `merge` additionally debug_asserts strict sortedness of
    /// the merged array, which an overlap would violate.
    #[test]
    fn base_and_buffer_stay_disjoint_across_merge_cycles() {
        let threshold = 4usize;
        let mut idx = DeltaIndex::new(vec![100u64, 200, 300], cfg(), threshold);
        let mut oracle: std::collections::BTreeSet<u64> = [100u64, 200, 300].into();

        for round in 0..6u64 {
            // Fresh keys — land in the buffer.
            for k in 0..3u64 {
                let key = round * 10 + k;
                assert_eq!(
                    idx.insert(key),
                    oracle.insert(key),
                    "round {round} key {key}"
                );
            }
            // Re-insert keys that earlier rounds already pushed through
            // a merge (now in the base): the base probe must catch them
            // even though the buffer probe no longer can.
            for k in 0..3u64 {
                let key = round.saturating_sub(1) * 10 + k;
                assert!(
                    !idx.insert(key),
                    "round {round}: merged key {key} re-entered"
                );
            }
            idx.merge();
            assert_eq!(idx.pending(), 0);
            // Any base/buffer overlap double-counts here.
            assert_eq!(idx.len(), oracle.len(), "round {round}");
            assert_eq!(idx.rank(u64::MAX), oracle.len(), "round {round}");
        }
        // Re-run the whole history once more: every key is now in the
        // base, nothing may enter the buffer.
        for round in 0..6u64 {
            for k in 0..3u64 {
                assert!(!idx.insert(round * 10 + k));
            }
        }
        assert_eq!(idx.pending(), 0);
        assert_eq!(idx.len(), oracle.len());
    }

    #[test]
    fn insert_batch_matches_scalar_inserts() {
        // Same stream applied batched and scalar must agree on flags,
        // contents, and rank bookkeeping — through multiple merges.
        let base: Vec<u64> = (0..200u64).map(|i| i * 5).collect();
        let mut batched = DeltaIndex::new(base.clone(), cfg(), 16);
        let mut scalar = DeltaIndex::new(base, cfg(), 16);
        let stream: Vec<u64> = (0..300u64).map(|i| (i * 37) % 1100).collect();
        for chunk in stream.chunks(23) {
            let got = batched.insert_batch(chunk);
            let want: Vec<bool> = chunk.iter().map(|&k| scalar.insert(k)).collect();
            assert_eq!(got, want);
        }
        assert_eq!(batched.len(), scalar.len());
        assert_eq!(
            batched.range_keys(0, u64::MAX),
            scalar.range_keys(0, u64::MAX)
        );
        for q in (0..1200u64).step_by(7) {
            assert_eq!(batched.rank(q), scalar.rank(q), "q={q}");
        }
    }

    #[test]
    fn insert_batch_intra_batch_duplicates_first_occurrence_wins() {
        let mut idx = DeltaIndex::new(vec![50u64], cfg(), 100);
        let flags = idx.insert_batch(&[7, 7, 50, 9, 7, 9]);
        assert_eq!(flags, vec![true, false, false, true, false, false]);
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.pending(), 2);
    }

    #[test]
    fn insert_batch_triggers_at_most_one_merge() {
        let mut idx = DeltaIndex::new(vec![1_000u64], cfg(), 8);
        // 20 fresh keys at threshold 8: scalar would merge twice,
        // batched merges exactly once at the end — same final keyset.
        let keys: Vec<u64> = (0..20u64).collect();
        let flags = idx.insert_batch(&keys);
        assert!(flags.iter().all(|&f| f));
        assert_eq!(idx.merges(), 1);
        assert_eq!(idx.pending(), 0);
        assert_eq!(idx.len(), 21);
    }

    #[test]
    fn insert_batch_empty_and_all_duplicates() {
        let mut idx = DeltaIndex::new(vec![1u64, 2, 3], cfg(), 4);
        assert_eq!(idx.insert_batch(&[]), Vec::<bool>::new());
        let flags = idx.insert_batch(&[1, 2, 3, 1]);
        assert_eq!(flags, vec![false; 4]);
        assert_eq!(idx.pending(), 0, "duplicates must not occupy buffer slots");
        assert_eq!(idx.merges(), 0);
    }

    /// Satellite regression: keys the pending-buffer (or run) probes
    /// already resolved must be excluded from the base
    /// `lower_bound_batch` membership pass — `base_probes` counts
    /// exactly the keys that reach the base.
    #[test]
    fn buffered_keys_skip_the_base_membership_pass() {
        let mut idx = DeltaIndex::new(vec![10u64, 20, 30], cfg(), 64);
        idx.insert_batch(&[1, 2, 3]);
        let after_seed = idx.base_probes();
        assert_eq!(after_seed, 3, "three fresh candidates probe the base");

        // Everything already buffered (plus an intra-batch duplicate):
        // the base pass must see zero candidates.
        idx.insert_batch(&[1, 2, 3, 2]);
        assert_eq!(idx.base_probes(), after_seed);

        // Mixed batch: only the one non-buffered key reaches the base.
        idx.insert_batch(&[1, 4, 2]);
        assert_eq!(idx.base_probes(), after_seed + 1);

        // Scalar path agrees: buffered duplicate short-circuits, fresh
        // key pays one probe.
        idx.insert(4);
        assert_eq!(idx.base_probes(), after_seed + 1);
        idx.insert(5);
        assert_eq!(idx.base_probes(), after_seed + 2);
    }

    /// Keys sealed into runs are resolved by the run probe and likewise
    /// never reach the base membership pass.
    #[test]
    fn sealed_keys_skip_the_base_membership_pass() {
        let mut idx = DeltaIndex::new(vec![1000u64], cfg(), 4).with_tiering(4);
        idx.insert_batch(&[1, 2, 3, 4]); // fills the buffer -> sealed
        assert_eq!(idx.run_count(), 1);
        assert_eq!(idx.pending(), 0);
        let probes = idx.base_probes();

        idx.insert_batch(&[1, 2, 3, 4]); // all in the run now
        assert_eq!(idx.base_probes(), probes, "run-resolved keys hit the base");
        assert!(!idx.insert(3), "scalar re-insert of a sealed key");
        assert_eq!(idx.base_probes(), probes);
    }

    #[test]
    fn reinserting_sealed_run_keys_never_duplicates_across_tiers() {
        // Invariant 7 on the insert path: keys 1..=4 live ONLY in a
        // sealed run (the seal emptied the buffer; they were never in
        // the base). A duplicate insert must bounce off the run probe
        // — not slip past it into the buffer, which would put the same
        // key in two tiers at once.
        let mut idx = DeltaIndex::new(vec![1000u64], cfg(), 4).with_tiering(4);
        idx.insert_batch(&[1, 2, 3, 4]);
        assert_eq!((idx.run_count(), idx.pending()), (1, 0));
        let (len0, sealed0) = (idx.len(), idx.sealed_keys());

        for k in [1u64, 2, 3, 4] {
            assert!(!idx.insert(k), "sealed key {k} re-reported as new");
        }
        assert!(idx.insert_batch(&[4, 3, 2, 1]).iter().all(|&f| !f));
        // Nothing moved: no tier grew, no key crossed tiers.
        assert_eq!(idx.len(), len0);
        assert_eq!(idx.pending(), 0, "duplicates must not enter the buffer");
        assert_eq!(idx.run_count(), 1);
        assert_eq!(idx.sealed_keys(), sealed0);
        let exported = idx.export_keys();
        assert!(
            exported.windows(2).all(|w| w[0] < w[1]),
            "cross-tier duplication: export not strictly sorted: {exported:?}"
        );
        assert_eq!(exported, vec![1, 2, 3, 4, 1000]);
        // Replay idempotence (the recovery path re-applies logged
        // inserts through this exact route): a second full replay is a
        // no-op even when every key is run-resident.
        assert!(idx.insert_batch(&[1, 2, 3, 4]).iter().all(|&f| !f));
        assert_eq!(idx.len(), len0);
    }

    #[test]
    fn rank_counts_across_base_and_delta() {
        let mut idx = DeltaIndex::new(vec![10, 20, 30], cfg(), 100);
        idx.insert(15);
        idx.insert(5);
        // keys < 21: 5, 10, 15, 20.
        assert_eq!(idx.rank(21), 4);
        assert_eq!(idx.rank(0), 0);
        assert_eq!(idx.rank(100), 5);
    }

    #[test]
    fn range_scan_merges_both_sides_sorted() {
        let mut idx = DeltaIndex::new(vec![10, 20, 30, 40], cfg(), 100);
        idx.insert(25);
        idx.insert(35);
        assert_eq!(idx.range_keys(15, 36), vec![20, 25, 30, 35]);
        assert_eq!(idx.range_keys(0, 100), vec![10, 20, 25, 30, 35, 40]);
        assert_eq!(idx.range_keys(36, 36), Vec::<u64>::new());
    }

    #[test]
    fn append_workload_stays_consistent() {
        // The D.1 "appends with increasing timestamps" scenario.
        let data: Vec<u64> = (0..1000u64).collect();
        let mut idx = DeltaIndex::new(data, cfg(), 64);
        for k in 1000..1500u64 {
            idx.insert(k);
        }
        assert_eq!(idx.len(), 1500);
        for k in (0..1500u64).step_by(37) {
            assert!(idx.contains(k));
            assert_eq!(idx.rank(k), k as usize);
        }
    }

    #[test]
    fn forced_merge_is_idempotent() {
        let mut idx = DeltaIndex::new(vec![1, 2, 3], cfg(), 100);
        idx.merge();
        assert_eq!(idx.merges(), 0); // empty buffer: no-op
        idx.insert(10);
        idx.merge();
        assert_eq!(idx.merges(), 1);
        assert_eq!(idx.pending(), 0);
        assert!(idx.contains(10));
    }

    #[test]
    fn snapshot_is_zero_copy_and_unaffected_by_later_writes() {
        let data: Vec<u64> = (0..100u64).map(|i| i * 4).collect();
        let mut idx = DeltaIndex::new(data, cfg(), 8);
        idx.insert(1);
        idx.insert(9);

        let snap = idx.snapshot();
        // Zero-copy: snapshot base shares the live index's allocation.
        assert!(snap.base_store().ptr_eq(idx.base.key_store()));
        assert_eq!(snap.len(), 102);
        assert_eq!(snap.pending(), 2);
        assert!(snap.contains(1) && snap.contains(9) && snap.contains(0));
        assert_eq!(snap.rank(10), 5); // 0, 1, 4, 8, 9

        // Drive the live index through a merge+retrain: the base Arc is
        // swapped, the snapshot keeps the old one intact.
        for k in 0..10u64 {
            idx.insert(k * 4 + 2);
        }
        assert!(idx.merges() >= 1);
        assert!(!snap.base_store().ptr_eq(idx.base.key_store()));
        assert_eq!(snap.len(), 102, "snapshot must not see later inserts");
        assert!(!snap.contains(2));
        assert_eq!(snap.range_keys(0, 10), vec![0, 1, 4, 8, 9]);
    }

    #[test]
    fn snapshot_agrees_with_live_index_at_capture_time() {
        let mut idx = DeltaIndex::new(vec![10, 20, 30], cfg(), 100);
        idx.insert(15);
        let snap = idx.snapshot();
        for q in [0u64, 5, 10, 15, 16, 25, 35, u64::MAX] {
            assert_eq!(snap.rank(q), idx.rank(q), "q={q}");
            assert_eq!(snap.contains(q), idx.contains(q), "q={q}");
        }
        assert_eq!(snap.range_keys(0, u64::MAX), idx.range_keys(0, u64::MAX));
    }

    // ------------------------------------------------------------------
    // Tiered mode.
    // ------------------------------------------------------------------

    #[test]
    fn tiered_overflow_seals_instead_of_merging() {
        let before = crate::rmi::train_count();
        let mut idx = DeltaIndex::new(vec![1000u64, 2000], cfg(), 4).with_tiering(3);
        let built = crate::rmi::train_count(); // DeltaIndex::new trained once
        for k in 0..12u64 {
            idx.insert(k);
        }
        assert_eq!(idx.seals(), 3);
        assert_eq!(idx.merges(), 0);
        assert_eq!(idx.run_count(), 3);
        assert_eq!(idx.sealed_keys(), 12);
        assert_eq!(idx.pending(), 0);
        assert_eq!(idx.len(), 14);
        assert!(idx.needs_compaction());
        assert_eq!(
            crate::rmi::train_count(),
            built,
            "seals must never retrain the base"
        );
        assert!(built > before);

        // Reads see all tiers.
        for k in 0..12u64 {
            assert!(idx.contains(k));
        }
        assert_eq!(idx.rank(u64::MAX), 14);
        assert_eq!(idx.range_keys(0, 6), vec![0, 1, 2, 3, 4, 5]);

        // Compaction folds all runs with exactly one retrain.
        let pre = crate::rmi::train_count();
        assert_eq!(idx.compact(), 3);
        assert_eq!(crate::rmi::train_count(), pre + 1);
        assert_eq!(idx.run_count(), 0);
        assert_eq!(idx.compactions(), 1);
        assert!(!idx.needs_compaction());
        assert_eq!(idx.len(), 14);
        for k in 0..12u64 {
            assert!(idx.contains(k));
        }
    }

    #[test]
    fn tiered_index_tracks_oracle_across_tier_transitions() {
        let mut idx = DeltaIndex::new(vec![5000u64, 6000], cfg(), 8).with_tiering(2);
        let mut oracle: std::collections::BTreeSet<u64> = [5000u64, 6000].into();
        for i in 0..200u64 {
            let k = (i * 97) % 300;
            assert_eq!(idx.insert(k), oracle.insert(k), "key {k}");
            if idx.needs_compaction() {
                idx.compact();
            }
            if i % 17 == 0 {
                assert_eq!(idx.len(), oracle.len());
                assert_eq!(idx.rank(150), oracle.range(..150).count());
            }
        }
        assert_eq!(idx.len(), oracle.len());
        let all: Vec<u64> = oracle.iter().copied().collect();
        assert_eq!(idx.range_keys(0, u64::MAX), all);
        assert_eq!(idx.export_keys(), all);
    }

    #[test]
    fn mid_compaction_snapshot_is_never_torn() {
        let mut idx = DeltaIndex::new(vec![10_000u64], cfg(), 4).with_tiering(2);
        for k in 0..9u64 {
            idx.insert(k * 2);
        }
        assert_eq!(idx.run_count(), 2);
        assert_eq!(idx.pending(), 1);

        // The "cut" a background compactor would take...
        let cut = idx.snapshot();
        let expected: Vec<u64> = cut.range_keys(0, u64::MAX);
        assert_eq!(cut.len(), 10);
        // ...concurrent writers keep going (new buffer entries AND a
        // fresh seal stacked above the cut)...
        for k in 0..4u64 {
            idx.insert(k * 2 + 1);
        }
        assert_eq!(idx.run_count(), 3);
        // ...the rebuilt base lands: exactly the cut runs fold, the
        // post-cut run and buffer survive untouched.
        let rebuilt = cut.train_compacted(idx.config()).unwrap();
        assert_eq!(idx.install_compacted(&cut, rebuilt), Some(2));
        assert_eq!(idx.run_count(), 1);
        assert_eq!(idx.len(), 14);
        // The cut snapshot still answers from its own frozen world.
        assert_eq!(cut.range_keys(0, u64::MAX), expected);
        assert_eq!(cut.len(), 10);
        assert!(!cut.contains(1));
        // And the live index is whole: no torn or duplicated keys.
        let live = idx.range_keys(0, u64::MAX);
        assert!(live.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(live.len(), 14);
    }

    #[test]
    fn stale_compaction_cut_is_rejected() {
        let mut idx = DeltaIndex::new(vec![100u64], cfg(), 2).with_tiering(2);
        for k in 0..4u64 {
            idx.insert(k);
        }
        let cut = idx.snapshot();
        let rebuilt = cut.train_compacted(idx.config()).unwrap();
        // A forced merge swaps the base out from under the cut.
        idx.merge();
        assert_eq!(idx.install_compacted(&cut, rebuilt), None);
        assert_eq!(idx.compactions(), 0);
        assert_eq!(idx.len(), 5);
    }

    #[test]
    fn merge_collapses_all_tiers_in_tiered_mode() {
        let mut idx = DeltaIndex::new(vec![900u64], cfg(), 3).with_tiering(4);
        for k in 0..8u64 {
            idx.insert(k * 3);
        }
        assert!(idx.run_count() >= 2);
        assert!(idx.pending() > 0);
        idx.merge();
        assert_eq!(idx.run_count(), 0);
        assert_eq!(idx.pending(), 0);
        assert_eq!(idx.sealed_keys(), 0);
        assert_eq!(idx.len(), 9);
        assert_eq!(idx.rank(u64::MAX), 9);
    }

    #[test]
    fn with_tiers_restores_without_training() {
        let base = Rmi::build((0..100u64).map(|i| i * 10).collect::<Vec<_>>(), &cfg());
        let before = crate::rmi::train_count();
        let idx = DeltaIndex::with_tiers(
            base,
            cfg(),
            8,
            4,
            vec![vec![1, 11, 21], vec![2, 12, 22]],
            vec![3, 13],
        );
        assert_eq!(crate::rmi::train_count(), before, "restore must not train");
        assert_eq!(idx.run_count(), 2);
        assert_eq!(idx.sealed_keys(), 6);
        assert_eq!(idx.pending(), 2);
        assert_eq!(idx.len(), 108);
        for k in [1u64, 11, 21, 2, 12, 22, 3, 13, 0, 990] {
            assert!(idx.contains(k), "key {k}");
        }
        assert_eq!(idx.rank(u64::MAX), 108);
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn with_tiers_rejects_overlapping_tiers() {
        let base = Rmi::build(vec![10u64, 20], &cfg());
        let _ = DeltaIndex::with_tiers(base, cfg(), 8, 2, vec![vec![5, 20]], Vec::new());
    }
}
