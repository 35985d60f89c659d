//! Delta-buffered inserts for learned indexes (Appendix D.1), as an
//! LSM-style tiered write path.
//!
//! "There always exists a much simpler alternative to handling inserts
//! by building a delta-index \[60\]. All inserts are kept in buffer and
//! from time to time merged with a potential retraining of the model.
//! This approach is already widely used, for example in Bigtable."
//!
//! [`DeltaIndex`] wraps an [`Rmi`] with a sorted insert buffer and a
//! bounded stack of immutable [`SortedRun`]s between them. A full buffer
//! is *sealed* into a run with its own fence index (O(buffer), nothing
//! trained), and the index never shrinks its run stack on its own: once
//! `max_runs` runs have stacked up its owner maintains it, in one of two
//! ways.
//!
//! * **Run merge** ([`DeltaSnapshot::merge_runs`] +
//!   [`DeltaIndex::install_merged_runs`]): the runs become one longer
//!   run — a splice-merge and a fence copy, O(run tier), no retrain.
//! * **Fold** ([`DeltaIndex::compact`], or off-lock via
//!   [`DeltaSnapshot::train_compacted`] +
//!   [`DeltaIndex::install_compacted`]): the runs go into the base with
//!   ONE retrain, O(base).
//!
//! With `max_runs = 1` this is the paper's cycle verbatim: every full
//! buffer is sealed and then folded into the base with one retrain.
//! With more runs, a fold rewrites the whole base, so it waits until the
//! run tier holds at least 1/[`RUN_TIER_RATIO`] of the base's keys
//! ([`DeltaIndex::fold_due`]); until then full stacks are merged. The
//! run *count* stays bounded by `max_runs`; only run *size* grows, up to
//! a sixteenth of the base. That breaks the merge-threshold /
//! retrain-cost tradeoff the way LSM-trees do: the insert path never
//! pays a base retrain, and the base is rebuilt once per
//! `base / RUN_TIER_RATIO` inserts instead of once per stack.
//!
//! The base RMI and every sealed run live behind `Arc`s, so seals, run
//! merges and folds are all *whole-tier swaps*: readers holding a
//! [`DeltaSnapshot`] keep the old trained model, runs and zero-copy
//! [`KeyStore`] alive for as long as they need them, which is what makes
//! the `li-serve` write path's snapshot-consistent concurrent reads
//! possible — even mid-compaction.

use std::sync::Arc;

use crate::merge::{count_past, splice_merge_arc, splice_merge_vec};
use crate::rmi::{Rmi, RmiConfig, RmiParams};
use crate::run::SortedRun;
use li_index::{KeyStore, RangeIndex};

/// How many base keys one run key may stand for before a full run stack
/// is folded into the base: a fold is due once `sealed_keys ×
/// RUN_TIER_RATIO ≥ base keys`, and a full stack short of that is
/// merged into one run instead. A fold costs O(base) (rewrite + retrain)
/// and a run merge O(run tier), so the base is rebuilt once per
/// `base / RUN_TIER_RATIO` inserts; the price is run probes over runs
/// up to a sixteenth of the base.
pub const RUN_TIER_RATIO: usize = 16;

/// The run-stack bound a [`DeltaIndex`] gets unless
/// [`DeltaIndex::with_tiering`] sets another.
pub const DEFAULT_MAX_RUNS: usize = 4;

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
    debug_assert!(increasing(&merged), "tiers must be mutually disjoint");
    merged.into()
}

/// An updatable learned index: RMI base + sorted delta buffer, plus a
/// bounded stack of immutable sorted runs between them.
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
    /// seal/compact so `len` is O(1)).
    sealed: usize,
    merge_threshold: usize,
    /// Report [`DeltaIndex::needs_compaction`] once this many runs
    /// (≥ 1) have stacked up.
    max_runs: usize,
    seals: usize,
    compactions: usize,
    run_merges: usize,
    base_probes: u64,
}

impl DeltaIndex {
    /// Build over initial `data` (sorted, unique); seal every
    /// `merge_threshold` inserts into a run, and ask for maintenance
    /// once [`DEFAULT_MAX_RUNS`] runs have stacked up.
    pub fn new(data: impl Into<KeyStore>, config: RmiConfig, merge_threshold: usize) -> Self {
        Self::from_trained(Rmi::build(data, &config), config, merge_threshold)
    }

    /// Wrap an already-trained base RMI (no retraining) — for callers
    /// that tune the model before handing it over, e.g. the sharded
    /// write path's per-shard retune loop. `config` is what future
    /// folds retrain with, so pass the configuration the base was
    /// actually trained under.
    pub fn from_trained(base: Rmi, config: RmiConfig, merge_threshold: usize) -> Self {
        assert!(merge_threshold > 0);
        Self {
            base: Arc::new(base),
            config,
            delta: Vec::new(),
            runs: Vec::new(),
            sealed: 0,
            merge_threshold,
            max_runs: DEFAULT_MAX_RUNS,
            seals: 0,
            compactions: 0,
            run_merges: 0,
            base_probes: 0,
        }
    }

    /// Set the run-stack bound (≥ 1; [`DEFAULT_MAX_RUNS`] otherwise):
    /// once `max_runs` sealed runs have stacked up
    /// [`DeltaIndex::needs_compaction`] turns true so the owner can
    /// shrink the stack: fold it into the base with ONE retrain
    /// ([`DeltaIndex::compact`]) when [`DeltaIndex::fold_due`],
    /// otherwise merge it into one run
    /// ([`DeltaIndex::install_merged_runs`]) — inline, or off-thread the
    /// way `li-serve`'s background worker does.
    ///
    /// The index itself never maintains its stack: it only shrinks when
    /// the owner asks, which is what lets a serving layer prove that
    /// maintenance runs *only* on its background worker.
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
        assert!(max_runs >= 1, "max_runs must be >= 1");
        self.max_runs = max_runs;
        self
    }

    /// Insert a key, returning whether it was newly inserted (`false`
    /// for duplicates of existing keys, which are ignored to keep the
    /// unique-sorted-key invariant). At the merge threshold the full
    /// buffer is sealed into a run.
    ///
    /// The duplicate check fans across the tiers newest-first: the
    /// O(log pending) sorted-buffer probe runs first and short-circuits,
    /// then the sealed runs (newest first, fenced windows), and the
    /// full learned lookup against the base only runs when everything
    /// above missed. The buffer probe doubles as the insertion position,
    /// so bulk loads do one buffer search per insert, not two. The
    /// tiers-before-base order is safe because all tiers are mutually
    /// disjoint at all times: a key only enters the buffer after missing
    /// *every* probe, sealing moves the whole buffer into a run
    /// verbatim, and run merges and folds move whole tiers atomically
    /// (under `&mut self`), so no tier can ever hold a key another tier
    /// has. A fold re-checks the invariant with a strict sortedness
    /// assertion on the merged array in debug builds.
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
    /// seal.
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

    /// The full-buffer action: seal it into a run.
    fn overflow(&mut self) {
        self.seal();
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

    /// How many buffers have been sealed into immutable runs.
    pub fn seals(&self) -> usize {
        self.seals
    }

    /// How many compactions (run stacks folded into the base with one
    /// retrain) have run.
    pub fn compactions(&self) -> usize {
        self.compactions
    }

    /// How many run stacks have been merged into one run (no retrain).
    pub fn run_merges(&self) -> usize {
        self.run_merges
    }

    /// Sealed runs currently stacked between the buffer and the base.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Total keys across all sealed runs.
    pub fn sealed_keys(&self) -> usize {
        self.sealed
    }

    /// The run-stack bound this index was built with.
    pub fn max_runs(&self) -> usize {
        self.max_runs
    }

    /// Whether the run stack has reached its bound and the owner should
    /// shrink it: with a [`DeltaIndex::compact`] when
    /// [`DeltaIndex::fold_due`], with a run merge otherwise.
    pub fn needs_compaction(&self) -> bool {
        self.runs.len() >= self.max_runs
    }

    /// Whether a full run stack should be folded into the base rather
    /// than merged into one run: the runs hold at least
    /// 1/[`RUN_TIER_RATIO`] of the base's keys, or the stack is bounded
    /// at one run, which a run merge cannot shrink.
    ///
    /// # Examples
    /// ```
    /// use li_core::delta::{DeltaIndex, RUN_TIER_RATIO};
    /// use li_core::rmi::RmiConfig;
    ///
    /// let base: Vec<u64> = (0..(RUN_TIER_RATIO as u64) * 8).map(|k| k * 2).collect();
    /// let mut idx = DeltaIndex::new(base, RmiConfig::default(), 2).with_tiering(2);
    /// for k in 0..4u64 {
    ///     idx.insert(k * 2 + 1); // two runs, 4 keys: under a sixteenth of 128
    /// }
    /// assert!(idx.needs_compaction() && !idx.fold_due());
    /// for k in 4..8u64 {
    ///     idx.insert(k * 2 + 1);
    /// }
    /// assert!(idx.fold_due(), "8 run keys × 16 ≥ 128 base keys");
    /// ```
    pub fn fold_due(&self) -> bool {
        self.max_runs < 2 || self.sealed.saturating_mul(RUN_TIER_RATIO) >= self.base.data().len()
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
    /// the merge threshold). Later inserts, seals, run merges and folds
    /// never disturb an outstanding snapshot — every structural
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

    /// The tiers as the index holds them: the trained base and the
    /// sealed runs (oldest first), which only change by whole-`Arc`
    /// swaps, and the mutable buffer. A serving layer that caches the
    /// immutable tiers clones the `Arc`s from here without copying the
    /// buffer the way [`DeltaIndex::snapshot`] does.
    pub fn tiers(&self) -> (&Arc<Rmi>, &[Arc<SortedRun>], &[u64]) {
        (&self.base, &self.runs, &self.delta)
    }

    /// Seal the current buffer into an immutable [`SortedRun`] (O(buffer)
    /// copy plus fences, **no** base retrain). No-op on an empty
    /// buffer. Normally driven by the overflow path, but callable
    /// directly — e.g. to freeze a half-full buffer before a planned
    /// compaction.
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
    /// mutable buffer untouched — whatever [`DeltaIndex::fold_due`]
    /// says: choosing between a fold and a run merge is the owner's
    /// policy, this is the fold. Returns the number of runs folded (0
    /// if the stack was empty). This is the inline form; a serving
    /// layer that must not block writers trains off-lock from a
    /// snapshot via [`DeltaSnapshot::train_compacted`] and publishes
    /// with [`DeltaIndex::install_compacted`].
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
    /// captured run changed since the cut (a concurrent run merge or
    /// fold won the race; the caller simply retries later, exactly
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
        let k = self.captured_runs(cut)?;
        let folded: usize = self.runs[..k].iter().map(|r| r.len()).sum();
        self.base = Arc::new(rebuilt);
        self.runs.drain(..k);
        self.sealed -= folded;
        self.compactions += 1;
        Some(k)
    }

    /// Publish an off-lock run merge: replace exactly the runs `cut`
    /// captured with `merged` (built from `cut` via
    /// [`DeltaSnapshot::merge_runs`]) at the bottom of the stack, under
    /// the same race rule as [`DeltaIndex::install_compacted`]: `None`
    /// — installing nothing — if the base or any captured run changed
    /// since the cut. Runs sealed after the cut stay above it. The key
    /// count in runs does not change and nothing is retrained. Returns
    /// the number of runs merged.
    ///
    /// # Examples
    /// ```
    /// use li_core::delta::DeltaIndex;
    /// use li_core::rmi::RmiConfig;
    ///
    /// let mut idx = DeltaIndex::new(vec![100u64], RmiConfig::default(), 2).with_tiering(2);
    /// for k in 0..5u64 {
    ///     idx.insert(k);
    /// }
    /// let cut = idx.snapshot();
    /// let merged = cut.merge_runs().unwrap(); // off-lock in real use
    /// let before = li_core::train_count();
    /// assert_eq!(idx.install_merged_runs(&cut, merged), Some(2));
    /// assert_eq!(li_core::train_count(), before, "a run merge never retrains");
    /// assert_eq!((idx.run_count(), idx.sealed_keys(), idx.len()), (1, 4, 6));
    /// ```
    pub fn install_merged_runs(&mut self, cut: &DeltaSnapshot, merged: SortedRun) -> Option<usize> {
        let k = self.captured_runs(cut)?;
        debug_assert_eq!(
            merged.len(),
            self.runs[..k].iter().map(|r| r.len()).sum::<usize>(),
            "a merged run holds exactly the captured runs' keys"
        );
        self.runs.splice(..k, [Arc::new(merged)]);
        self.run_merges += 1;
        Some(k)
    }

    /// The number of runs `cut` captured, if they are still the bottom
    /// of the stack over the same base (a concurrent fold or merge
    /// makes a cut stale); `None` for a stale cut or one with no runs.
    fn captured_runs(&self, cut: &DeltaSnapshot) -> Option<usize> {
        let k = cut.runs.len();
        let current = Arc::ptr_eq(&self.base, &cut.base)
            && k > 0
            && self.runs.len() >= k
            && self.runs[..k]
                .iter()
                .zip(&cut.runs)
                .all(|(a, b)| Arc::ptr_eq(a, b));
        current.then_some(k)
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

    /// Error statistics of the trained base RMI. Buffered and sealed
    /// keys are not reflected until the next fold — this reports the
    /// model actually serving the base.
    pub fn base_stats(&self) -> &crate::rmi::RmiStats {
        self.base.stats()
    }

    /// The merge threshold this index was built with.
    pub fn merge_threshold(&self) -> usize {
        self.merge_threshold
    }

    /// The configuration folds retrain with.
    pub fn config(&self) -> &RmiConfig {
        &self.config
    }

    /// Restore a tiered index from persisted state — the warm-restart
    /// path: the base's keys plus the parameters it was trained with
    /// (assembled by [`Rmi::from_params`], never retrained), the sealed
    /// run stack (oldest first, fences rebuilt here in O(run) — **not**
    /// a training event), and the pending buffer verbatim:
    /// [`crate::rmi::train_count`] is flat across this call.
    ///
    /// The parts come from outside the process, so every invariant of a
    /// live index is proven — before a model is assembled over the keys
    /// — with an error instead of a panic: the buffer is below the
    /// threshold, runs are non-empty, and base, runs and buffer are
    /// strictly increasing and mutually disjoint. The proof is linear:
    /// the runs and buffer are splice-merged and the result must be
    /// strictly increasing, then one forward walk checks the base's
    /// order chunk by chunk and searches each chunk, while it is still
    /// in cache, for the run and buffer keys that fall inside it.
    ///
    /// # Examples
    /// ```
    /// use li_core::delta::{DeltaIndex, RestoreError};
    /// use li_core::rmi::{Rmi, RmiConfig};
    /// use li_core::KeyStore;
    ///
    /// let cfg = RmiConfig::default();
    /// let keys = KeyStore::new((0..100u64).map(|k| k * 10).collect::<Vec<_>>());
    /// let params = Rmi::build(keys.clone(), &cfg).to_params().unwrap();
    /// let ok = DeltaIndex::restore(keys.clone(), &params, cfg.clone(), 8, 4, vec![vec![5, 15]], vec![7]);
    /// assert_eq!(ok.unwrap().len(), 103);
    /// let clash = DeltaIndex::restore(keys, &params, cfg, 8, 4, vec![vec![5, 990]], vec![]);
    /// assert_eq!(clash.unwrap_err(), RestoreError::Overlap);
    /// ```
    pub fn restore(
        base_keys: KeyStore,
        params: &RmiParams,
        config: RmiConfig,
        merge_threshold: usize,
        max_runs: usize,
        runs: Vec<Vec<u64>>,
        pending: Vec<u64>,
    ) -> Result<Self, RestoreError> {
        assert!(max_runs >= 1, "max_runs must be >= 1");
        check_tiers(base_keys.as_slice(), merge_threshold, &runs, &pending)?;
        let base = Rmi::from_params(base_keys, params).ok_or(RestoreError::Params)?;
        let sealed = runs.iter().map(Vec::len).sum();
        let runs = runs
            .into_iter()
            .map(|r| Arc::new(SortedRun::seal(r)))
            .collect();
        Ok(Self {
            base: Arc::new(base),
            config,
            delta: pending,
            runs,
            sealed,
            merge_threshold,
            max_runs,
            seals: 0,
            compactions: 0,
            run_merges: 0,
            base_probes: 0,
        })
    }
}

/// Why restored parts cannot form a [`DeltaIndex`]
/// ([`DeltaIndex::restore`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestoreError {
    /// The buffer holds `merge_threshold` keys or more; a live index
    /// seals it when it reaches the threshold.
    FullBuffer,
    /// A sealed run holds no key.
    EmptyRun,
    /// The named tier is not strictly increasing.
    Unsorted(&'static str),
    /// A key is in two tiers.
    Overlap,
    /// The base parameters do not describe an index over the base keys.
    Params,
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::FullBuffer => {
                f.write_str("a saved delta buffer is always below the merge threshold")
            }
            Self::EmptyRun => f.write_str("sealed runs are never empty"),
            Self::Unsorted(tier) => write!(f, "{tier} must be sorted and unique"),
            Self::Overlap => f.write_str("tiers must be mutually disjoint"),
            Self::Params => f.write_str("base parameters inconsistent with its key range"),
        }
    }
}

impl std::error::Error for RestoreError {}

/// Whether `keys` is strictly increasing. Branch-free, with no early
/// exit, so the compare loop vectorizes: a load's order proof then
/// costs the same wherever the linker places it, where an early-exit
/// loop's speed, and so restart time, moved 10–20 % with layout alone.
fn increasing(keys: &[u64]) -> bool {
    let next = keys.get(1..).unwrap_or_default();
    keys.iter().zip(next).fold(true, |ok, (a, b)| ok & (a < b))
}

/// The restore proof (see [`DeltaIndex::restore`]).
fn check_tiers(
    base: &[u64],
    merge_threshold: usize,
    runs: &[Vec<u64>],
    pending: &[u64],
) -> Result<(), RestoreError> {
    if pending.len() >= merge_threshold {
        return Err(RestoreError::FullBuffer);
    }
    if runs.iter().any(Vec::is_empty) {
        return Err(RestoreError::EmptyRun);
    }
    if !increasing(pending) {
        return Err(RestoreError::Unsorted("the delta buffer"));
    }
    if !runs.iter().all(|r| increasing(r)) {
        return Err(RestoreError::Unsorted("a sealed run"));
    }
    // Each upper tier is increasing, so their merge is too unless two
    // of them share a key, which shows up as an equal adjacent pair.
    let mut slices: Vec<&[u64]> = runs.iter().map(Vec::as_slice).collect();
    slices.push(pending);
    let upper = splice_merge_vec(&slices);
    if !increasing(&upper) {
        return Err(RestoreError::Overlap);
    }
    check_base(base, &upper)
}

/// Check that `base` is strictly increasing and holds none of the keys
/// of increasing `upper`, in one forward pass over `base`. Each chunk
/// is searched for the upper keys in its range right after its order
/// check has read it, while it is in L1. Each key gets a binary search
/// of its own rather than a walk on from the previous key's position:
/// independent searches overlap in the CPU, and measured about half the
/// cost of a forward walk or gallop.
fn check_base(base: &[u64], mut upper: &[u64]) -> Result<(), RestoreError> {
    const CHUNK: usize = 1024;
    let mut prev_top: Option<u64> = None;
    for chunk in base.chunks(CHUNK) {
        if prev_top.is_some_and(|top| top >= chunk[0]) || !increasing(chunk) {
            return Err(RestoreError::Unsorted("the base"));
        }
        let top = chunk[chunk.len() - 1];
        prev_top = Some(top);
        let (inside, above) = upper.split_at(count_past(upper, top));
        if inside.iter().any(|k| chunk.binary_search(k).is_ok()) {
            return Err(RestoreError::Overlap);
        }
        upper = above;
    }
    Ok(())
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
    /// snapshot taken before a fold shares its store with nothing the
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
    /// their own that the new base can be trained over as is: what
    /// [`DeltaSnapshot::train_compacted`] trains.
    pub fn merged_keys(&self) -> KeyStore {
        merged_store(self.base.data(), &self.runs, &[])
    }

    /// Train the compacted base this snapshot implies: base keys plus
    /// every captured run, merged and trained with ONE `Rmi::build`
    /// (leaving out the pending buffer, which stays live). An ε-corridor
    /// `config` climbs its ladder from the captured base's ε, so the
    /// fold keeps that ε whenever the merged keys still fit the leaf
    /// count and costs one greedy pass then. Returns `None` when the
    /// snapshot captured no runs. This is the off-lock half of
    /// background compaction; publish the result with
    /// [`DeltaIndex::install_compacted`].
    pub fn train_compacted(&self, config: &RmiConfig) -> Option<Rmi> {
        if self.runs.is_empty() {
            return None;
        }
        let from_eps = self.base.stats().eps.unwrap_or(1);
        Some(Rmi::build_from(self.merged_keys(), config, from_eps))
    }

    /// Merge every captured run into one sealed run: one splice-merge
    /// written straight into the run's allocation, one fence copy, no
    /// retrain and no base key touched. Returns `None` when the snapshot
    /// captured fewer than two runs. This is the off-lock half of a run
    /// merge; publish the result with [`DeltaIndex::install_merged_runs`].
    pub fn merge_runs(&self) -> Option<SortedRun> {
        if self.runs.len() < 2 {
            return None;
        }
        let slices: Vec<&[u64]> = self.runs.iter().map(|r| r.as_slice()).collect();
        Some(SortedRun::seal(splice_merge_arc(&slices)))
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

    /// `max_runs = 1` is the paper's D.1 cycle: every full buffer is
    /// sealed, and its owner folds it into the base at once.
    #[test]
    fn one_run_stacks_fold_every_full_buffer_and_keep_keys() {
        let data: Vec<u64> = (0..500u64).map(|i| i * 3).collect();
        let mut idx = DeltaIndex::new(data, cfg(), 10).with_tiering(1);
        for k in 0..25u64 {
            idx.insert(k * 3 + 1);
            if idx.needs_compaction() {
                assert!(idx.fold_due());
                assert_eq!(idx.compact(), 1);
            }
        }
        assert_eq!((idx.seals(), idx.compactions()), (2, 2));
        assert_eq!((idx.run_count(), idx.pending()), (0, 5));
        for k in 0..25u64 {
            assert!(idx.contains(k * 3 + 1), "lost {}", k * 3 + 1);
        }
        for k in 0..500u64 {
            assert!(idx.contains(k * 3));
        }
    }

    /// A corridor fold climbs the ladder from its base's ε: it keeps that
    /// ε exactly when the merged keys fit the leaf count at it, and lands
    /// on the first higher rung that fits otherwise.
    #[test]
    fn a_corridor_fold_keeps_the_base_eps_while_the_merged_keys_fit() {
        let config = RmiConfig::corridor(16);
        let data: Vec<u64> = (0..4_000u64).map(|i| i * i).collect();
        let mut idx = DeltaIndex::new(data, config.clone(), 64).with_tiering(1);
        let (mut kept, mut raised) = (0, 0);
        for k in 0..3_000u64 {
            idx.insert(k.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 16_000_000);
            if !idx.needs_compaction() {
                continue;
            }
            let eps = idx.base_stats().eps.expect("a corridor base");
            let at_eps = Rmi::build_from(idx.snapshot().merged_keys(), &config, eps);
            assert_eq!(idx.compact(), 1);
            let folded = idx.base_stats();
            assert!(folded.leaves <= 16);
            assert_eq!(folded.eps, at_eps.stats().eps);
            if folded.eps == Some(eps) {
                kept += 1;
            } else {
                raised += 1;
            }
        }
        assert!(kept > 0 && raised > 0, "kept {kept}, raised {raised}");

        // The ladder never descends: merged keys that would now fit ε = 1
        // keep the base's ε.
        let squares: Vec<u64> = (0..=100u64).map(|i| i * i).collect();
        let mut idx = DeltaIndex::new(squares, RmiConfig::corridor(1), 20_000);
        let eps = idx.base_stats().eps.expect("a corridor base");
        assert!(eps > 1, "squares need more than ε = 1 in one segment");
        for k in 0..=10_000u64 {
            idx.insert(k);
        }
        idx.seal();
        let fresh = Rmi::build(idx.snapshot().merged_keys(), &RmiConfig::corridor(1));
        assert_eq!(fresh.stats().eps, Some(1));
        assert_eq!(idx.compact(), 1);
        assert_eq!(idx.base_stats().eps, Some(eps));
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
    fn export_round_trips_through_a_fold() {
        let mut idx = DeltaIndex::new(vec![10u64, 20, 30, 40], cfg(), 100);
        idx.insert(25);
        idx.insert(5);
        assert_eq!(idx.export_keys(), vec![5, 10, 20, 25, 30, 40]);
        idx.seal();
        assert_eq!(idx.compact(), 1);
        assert_eq!(idx.export_keys(), vec![5, 10, 20, 25, 30, 40]);
    }

    #[test]
    fn base_stats_reflect_the_trained_base() {
        let data: Vec<u64> = (0..2000u64).collect();
        let mut idx = DeltaIndex::new(data, cfg(), 8).with_tiering(1);
        // Linear data: the base model is near-exact.
        assert!(idx.base_stats().max_abs_err <= 1);
        assert_eq!(idx.merge_threshold(), 8);
        // Stats follow the base across a retrain.
        for k in 0..16u64 {
            idx.insert(5000 + k * 3);
            if idx.needs_compaction() {
                idx.compact();
            }
        }
        assert!(idx.compactions() >= 1);
        assert!(idx.base_stats().leaves > 0);
    }

    /// Regression for the duplicate-check split: duplicate inserts must
    /// never occupy buffer slots, so they can neither trigger seals nor
    /// perturb the seal cadence of the unique inserts around them.
    #[test]
    fn duplicate_inserts_do_not_affect_seal_counts() {
        let threshold = 8usize;
        let mut idx = DeltaIndex::new(vec![1000, 2000, 3000], cfg(), threshold);

        // Hammer one buffered key: threshold× re-inserts, zero seals.
        idx.insert(5);
        for _ in 0..threshold * 2 {
            idx.insert(5);
        }
        assert_eq!(idx.seals(), 0);
        assert_eq!(idx.pending(), 1);

        // Interleave unique inserts with base and buffer duplicates; the
        // seal count must be exactly what the unique inserts alone give:
        // 16 unique total (incl. the 5 above) at threshold 8 -> 2 seals.
        for k in 0..15u64 {
            idx.insert(k * 2 + 11);
            idx.insert(1000); // base duplicate
            idx.insert(5); // previously inserted key
        }
        assert_eq!(idx.seals(), 2, "pending={}", idx.pending());
        assert_eq!(idx.pending(), 0);
        assert_eq!(idx.len(), 3 + 16);
    }

    /// The duplicate probe checks the buffer before the base. That
    /// order is only sound if base ∩ buffer == ∅ at all times — a key
    /// living on both sides would be reported "duplicate" correctly but
    /// would double-count in `len`/`rank`. This test drives keys through
    /// every membership transition (fresh → buffered → folded-to-base →
    /// re-inserted) and checks the bookkeeping that any overlap would
    /// break; a fold additionally debug_asserts strict sortedness of
    /// the merged array, which an overlap would violate.
    #[test]
    fn base_and_buffer_stay_disjoint_across_fold_cycles() {
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
            // a fold (now in the base): the base probe must catch them
            // even though the buffer probe no longer can.
            for k in 0..3u64 {
                let key = round.saturating_sub(1) * 10 + k;
                assert!(
                    !idx.insert(key),
                    "round {round}: folded key {key} re-entered"
                );
            }
            idx.seal();
            idx.compact();
            assert_eq!((idx.pending(), idx.run_count()), (0, 0));
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
        // contents, and rank bookkeeping — through multiple seals.
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
    fn insert_batch_triggers_at_most_one_seal() {
        let mut idx = DeltaIndex::new(vec![1_000u64], cfg(), 8);
        // 20 fresh keys at threshold 8: scalar would seal twice,
        // batched seals exactly once at the end — same final keyset.
        let keys: Vec<u64> = (0..20u64).collect();
        let flags = idx.insert_batch(&keys);
        assert!(flags.iter().all(|&f| f));
        assert_eq!(
            (idx.seals(), idx.run_count(), idx.sealed_keys()),
            (1, 1, 20)
        );
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
        assert_eq!(idx.seals(), 0);
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
    fn forced_fold_is_idempotent() {
        let mut idx = DeltaIndex::new(vec![1, 2, 3], cfg(), 100);
        idx.seal();
        assert_eq!(idx.compact(), 0); // empty buffer and stack: no-op
        assert_eq!((idx.seals(), idx.compactions()), (0, 0));
        idx.insert(10);
        idx.seal();
        assert_eq!(idx.compact(), 1);
        assert_eq!(idx.compact(), 0);
        assert_eq!(idx.compactions(), 1);
        assert_eq!((idx.pending(), idx.run_count()), (0, 0));
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

        // Drive the live index through a seal and a fold: the base Arc
        // is swapped, the snapshot keeps the old one intact.
        for k in 0..10u64 {
            idx.insert(k * 4 + 2);
        }
        assert_eq!(idx.compact(), 1);
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
    // Run stacks.
    // ------------------------------------------------------------------

    #[test]
    fn overflow_seals_without_retraining() {
        let before = crate::rmi::train_count();
        let mut idx = DeltaIndex::new(vec![1000u64, 2000], cfg(), 4).with_tiering(3);
        let built = crate::rmi::train_count(); // DeltaIndex::new trained once
        for k in 0..12u64 {
            idx.insert(k);
        }
        assert_eq!(idx.seals(), 3);
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
        // An inline fold swaps the base out from under the cut.
        assert_eq!(idx.compact(), 2);
        assert_eq!(idx.install_compacted(&cut, rebuilt), None);
        assert_eq!(idx.compactions(), 1);
        assert_eq!(idx.len(), 5);
    }

    #[test]
    fn check_tiers_names_every_broken_invariant() {
        let base: Vec<u64> = (0..5000u64).map(|k| k * 10).collect();
        let check =
            |base: &[u64], runs: &[Vec<u64>], pending: &[u64]| check_tiers(base, 4, runs, pending);
        assert_eq!(check(&base, &[vec![5, 15]], &[25]), Ok(()));
        assert_eq!(
            check(&base, &[], &[1, 2, 3, 4]),
            Err(RestoreError::FullBuffer)
        );
        assert_eq!(check(&base, &[vec![]], &[]), Err(RestoreError::EmptyRun));
        assert_eq!(
            check(&base, &[vec![15, 5]], &[]),
            Err(RestoreError::Unsorted("a sealed run"))
        );
        assert_eq!(
            check(&base, &[], &[7, 7]),
            Err(RestoreError::Unsorted("the delta buffer"))
        );
        assert_eq!(
            check(&base, &[vec![5, 15]], &[15]),
            Err(RestoreError::Overlap)
        );
        // Every chunk boundary of the base walk, and both ends: a base
        // key in a run is found wherever it sits.
        for at in [0usize, 1, 1023, 1024, 1025, 2047, 2048, 4999] {
            let mut run = vec![3, base[at], 49_995];
            run.sort_unstable();
            assert_eq!(
                check(&base, &[run], &[]),
                Err(RestoreError::Overlap),
                "base[{at}]"
            );
        }
        // A disorder anywhere in the base, inside a chunk or across two.
        for at in [1usize, 1023, 1024, 4999] {
            let mut bad = base.clone();
            bad.swap(at - 1, at);
            assert_eq!(
                check(&bad, &[], &[]),
                Err(RestoreError::Unsorted("the base")),
                "swap at {at}"
            );
        }
        assert_eq!(check(&[], &[vec![1]], &[2]), Ok(()));
    }

    #[test]
    fn restore_proves_before_it_assembles() {
        let keys = KeyStore::new((0..300u64).map(|k| k * 2).collect::<Vec<_>>());
        let params = Rmi::build(keys.clone(), &cfg()).to_params().unwrap();
        let before = crate::rmi::train_count();
        let idx = DeltaIndex::restore(
            keys.clone(),
            &params,
            cfg(),
            8,
            4,
            vec![vec![1, 3], vec![5]],
            vec![7],
        )
        .unwrap();
        assert_eq!(crate::rmi::train_count(), before, "restore must not train");
        assert_eq!((idx.len(), idx.run_count(), idx.sealed_keys()), (304, 2, 3));
        let unsorted = KeyStore::new(vec![4u64, 2]);
        assert_eq!(
            DeltaIndex::restore(unsorted, &params, cfg(), 8, 4, vec![], vec![]).unwrap_err(),
            RestoreError::Unsorted("the base")
        );
    }

    #[test]
    fn fold_is_due_at_a_sixteenth_of_the_base() {
        let base: Vec<u64> = (0..1600u64).map(|k| k * 4).collect();
        let mut idx = DeltaIndex::new(base, cfg(), 25).with_tiering(4);
        let mut k = 1u64;
        let mut insert_until_full = |idx: &mut DeltaIndex| {
            while !idx.needs_compaction() {
                assert!(idx.insert(k));
                k += 4;
            }
        };
        insert_until_full(&mut idx);
        // 4 runs × 25 = 100 run keys: 1600 / 16 exactly.
        assert_eq!(idx.sealed_keys() * RUN_TIER_RATIO, 1600);
        assert!(idx.fold_due());
        idx.compact();
        insert_until_full(&mut idx);
        // The base grew by 100: the same stack is now short of a fold.
        assert!(!idx.fold_due());
        // A stack bounded at one run always folds.
        let one = DeltaIndex::new(vec![1u64 << 40], cfg(), 4).with_tiering(1);
        assert!(one.fold_due());
    }

    #[test]
    fn run_merge_keeps_every_key_and_retrains_nothing() {
        let mut idx = DeltaIndex::new(vec![10_000u64], cfg(), 4).with_tiering(3);
        let mut oracle: std::collections::BTreeSet<u64> = [10_000u64].into();
        for k in 0..13u64 {
            idx.insert(k * 7);
            oracle.insert(k * 7);
        }
        assert_eq!((idx.run_count(), idx.pending()), (3, 1));
        let cut = idx.snapshot();
        let merged = cut.merge_runs().unwrap();
        assert_eq!(merged.len(), 12);
        // A writer seals one more run between the cut and the install.
        for k in 13..16u64 {
            idx.insert(k * 7);
            oracle.insert(k * 7);
        }
        let trains = crate::rmi::train_count();
        assert_eq!(idx.install_merged_runs(&cut, merged), Some(3));
        assert_eq!(crate::rmi::train_count(), trains);
        assert_eq!(idx.run_merges(), 1);
        assert_eq!(idx.compactions(), 0);
        // The merged run at the bottom, the post-cut run above it.
        assert_eq!(idx.run_count(), 2);
        assert_eq!(idx.sealed_keys(), 16);
        let all: Vec<u64> = oracle.iter().copied().collect();
        assert_eq!(idx.export_keys(), all);
        for q in 0..120u64 {
            assert_eq!(idx.contains(q), oracle.contains(&q), "q={q}");
            assert_eq!(idx.rank(q), oracle.range(..q).count(), "q={q}");
        }
        // The cut still answers from its own frozen tiers.
        assert_eq!(cut.runs().len(), 3);
        assert_eq!(cut.len(), 14);
        // A cut made stale by that merge installs nothing...
        assert_eq!(
            idx.install_merged_runs(&cut, cut.merge_runs().unwrap()),
            None
        );
        // ...and so does one made stale by a fold.
        let cut = idx.snapshot();
        let merged = cut.merge_runs().unwrap();
        idx.compact();
        assert_eq!(idx.install_merged_runs(&cut, merged), None);
        assert_eq!(idx.run_merges(), 1);
        assert_eq!(idx.export_keys(), all);
    }
}
