//! The write path: a shard that accepts concurrent inserts while
//! serving snapshot-consistent reads.
//!
//! [`WritableShard`] wraps a [`DeltaIndex`] (Appendix D.1's
//! buffer-and-retrain insert path) behind an `RwLock`. Writers take the
//! write lock per insert. Point reads (`contains`, `len`) answer under
//! the read lock. The sharded store's live `rank` and `range_keys` also
//! answer under it, in place: they hold the read locks of the shards
//! they need for the length of one query and copy nothing. A reader
//! that wants many queries against one frozen state clones a
//! [`DeltaSnapshot`] instead — an `Arc` bump for the trained base plus
//! a copy of the (threshold-bounded) pending buffer — and then runs
//! them with **no** lock held.
//!
//! Merge+retrain inside the `DeltaIndex` is a whole-base swap (the base
//! RMI lives behind an `Arc`), so a snapshot taken before a merge keeps
//! serving the exact pre-merge state: reads are never torn across a
//! retrain, which is what the concurrent stress suite asserts.
//!
//! In **tiered** mode ([`WritableShard::tiered`]) the shard also carries
//! a stack of immutable sorted runs between the buffer and the base.
//! [`WritableShard::compact`] folds them into the base and
//! [`WritableShard::merge_runs`] merges them into one run, both with the
//! work running **off-lock**: writers are only excluded for the final
//! pointer-swap publish, never for the `Rmi::build` or the merge — the
//! same observe / rebuild-off-lock / publish discipline the background
//! rebalancer uses for topology changes.

use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

use li_core::delta::{DeltaIndex, DeltaSnapshot};
use li_core::rmi::{Rmi, RmiConfig, RmiStats};
use li_index::KeyStore;

use crate::builder::RetunePolicy;
use crate::obs::{events, ServeMetrics};
use crate::select::{train_selected, BackendChoice};

/// A concurrently writable shard: `DeltaIndex` behind an `RwLock`,
/// reads served from lock-free snapshots.
#[derive(Debug)]
pub struct WritableShard {
    inner: RwLock<DeltaIndex>,
    /// The owning structure's observability bundle, attached once at
    /// build/load time (standalone shards stay unattached — they pay
    /// one `OnceLock` load per write and record nothing). Seals,
    /// buffer merges and compaction phases report here.
    obs: OnceLock<Arc<ServeMetrics>>,
}

impl WritableShard {
    /// Build over initial sorted unique `data`; buffer up to
    /// `merge_threshold` inserts between retrains.
    pub fn new(data: impl Into<KeyStore>, config: RmiConfig, merge_threshold: usize) -> Self {
        Self {
            inner: RwLock::new(DeltaIndex::new(data, config, merge_threshold)),
            obs: OnceLock::new(),
        }
    }

    /// Wrap an already-trained base RMI (no retraining); `config` is
    /// what future merge+retrain cycles rebuild with.
    pub fn from_trained(base: Rmi, config: RmiConfig, merge_threshold: usize) -> Self {
        Self {
            inner: RwLock::new(DeltaIndex::from_trained(base, config, merge_threshold)),
            obs: OnceLock::new(),
        }
    }

    /// Build a **tiered** shard: a full buffer is sealed into an
    /// immutable sorted run (O(buffer), no base retrain) instead of
    /// merged, and once `max_runs` runs have stacked up
    /// [`WritableShard::needs_compaction`] turns true so the owner can
    /// fold them with one [`WritableShard::compact`] call — or, while
    /// [`WritableShard::fold_due`] is false, merge them into one run
    /// with [`WritableShard::merge_runs`].
    /// `max_runs == 0` is the classic untiered shard.
    ///
    /// # Examples
    /// ```
    /// use li_core::rmi::RmiConfig;
    /// use li_serve::WritableShard;
    ///
    /// let shard = WritableShard::tiered(vec![100u64, 200], RmiConfig::default(), 4, 2);
    /// for k in 0..8u64 {
    ///     shard.insert(k); // two seals, zero base retrains
    /// }
    /// assert_eq!(shard.run_count(), 2);
    /// assert!(shard.needs_compaction());
    /// assert_eq!(shard.compact(), 2); // one retrain folds both runs
    /// assert_eq!(shard.len(), 10);
    /// ```
    pub fn tiered(
        data: impl Into<KeyStore>,
        config: RmiConfig,
        merge_threshold: usize,
        max_runs: usize,
    ) -> Self {
        Self {
            inner: RwLock::new(
                DeltaIndex::new(data, config, merge_threshold).with_tiering(max_runs),
            ),
            obs: OnceLock::new(),
        }
    }

    /// Insert a key, returning whether it was newly inserted (`false`
    /// for duplicates, which are no-ops). May trigger a merge + retrain,
    /// which swaps the shard's base wholesale; outstanding snapshots are
    /// unaffected.
    pub fn insert(&self, key: u64) -> bool {
        self.write_lock().insert(key)
    }

    /// Insert a whole batch under **one** write-lock acquisition,
    /// returning one newly-inserted flag per key in input order (see
    /// [`DeltaIndex::insert_batch`](li_core::delta::DeltaIndex::insert_batch)
    /// for the flag semantics). One lock handoff and at most one
    /// merge+retrain for the whole batch, instead of one of each per
    /// key.
    ///
    /// # Examples
    /// ```
    /// use li_core::rmi::RmiConfig;
    /// use li_serve::WritableShard;
    ///
    /// let shard = WritableShard::new(vec![10u64, 20], RmiConfig::default(), 64);
    /// let flags = shard.insert_batch(&[15, 20, 15]);
    /// assert_eq!(flags, vec![true, false, false]);
    /// assert_eq!(shard.len(), 3);
    /// ```
    pub fn insert_batch(&self, keys: &[u64]) -> Vec<bool> {
        self.write_lock().insert_batch(keys)
    }

    /// Attach the owning structure's observability bundle. First caller
    /// wins; later calls are no-ops (a shard never changes owners).
    pub(crate) fn attach_obs(&self, obs: Arc<ServeMetrics>) {
        let _ = self.obs.set(obs);
    }

    /// Force a full collapse + retrain now (sealed runs and the buffer
    /// both fold into the base).
    pub fn merge(&self) {
        let mut guard = self.write_lock();
        // Forced merges always arm the watch's timer: there is no
        // buffer-fullness precondition to infer it from.
        let watch = self.obs.get().map(|obs| TierWatch::armed(obs, &guard));
        guard.merge();
        if let Some(watch) = watch {
            watch.finish(&guard);
        }
    }

    /// Fold every sealed run into the base with one retrain, training
    /// **off-lock**: the run stack and base are captured under a brief
    /// read lock, `Rmi::build` runs with no lock held (writers keep
    /// inserting, even sealing new runs), and the result is published
    /// under the write lock only if the captured tiers are still
    /// current — otherwise nothing is installed and the caller retries
    /// later, exactly like the background rebalancer's `Raced` outcome.
    /// Returns the number of runs folded (0 = nothing to do or raced).
    pub fn compact(&self) -> usize {
        let (cut, cfg) = {
            let guard = self.read_lock();
            if guard.run_count() == 0 {
                return 0;
            }
            (guard.snapshot(), guard.config().clone())
        };
        // Compaction is cold (one retrain per K sealed runs), so both
        // phases are timed unconditionally when a bundle is attached:
        // the off-lock retrain vs. the under-write-lock install is
        // exactly the split the histograms exist to show.
        let obs = self.obs.get();
        let t_train = Instant::now();
        let Some(rebuilt) = cut.train_compacted(&cfg) else {
            return 0;
        };
        if let Some(obs) = obs {
            obs.compact_train_ns.record_since(t_train);
        }
        let t_install = Instant::now();
        let folded = self
            .write_lock()
            .install_compacted(&cut, rebuilt)
            .unwrap_or(0);
        if let Some(obs) = obs {
            obs.compact_install_ns.record_since(t_install);
        }
        folded
    }

    /// Merge every sealed run into one run, with no retrain: the stack
    /// is captured under a brief read lock, merged with no lock held,
    /// and installed under the write lock only if the captured runs are
    /// still current (same race rule as [`WritableShard::compact`]).
    /// Returns the number of runs merged (0 = fewer than two runs, or
    /// raced).
    ///
    /// # Examples
    /// ```
    /// use li_core::rmi::RmiConfig;
    /// use li_serve::WritableShard;
    ///
    /// let shard = WritableShard::tiered((0..1000u64).collect::<Vec<_>>(), RmiConfig::default(), 4, 2);
    /// for k in 1000..1008u64 {
    ///     shard.insert(k); // two runs: 8 keys against 1000 in the base
    /// }
    /// assert!(shard.needs_compaction() && !shard.fold_due());
    /// let before = li_core::train_count();
    /// assert_eq!(shard.merge_runs(), 2);
    /// assert_eq!(li_core::train_count(), before, "a run merge never retrains");
    /// assert_eq!((shard.run_count(), shard.sealed_keys(), shard.len()), (1, 8, 1008));
    /// ```
    pub fn merge_runs(&self) -> usize {
        let t = Instant::now();
        let cut = self.read_lock().snapshot();
        let Some(merged) = cut.merge_runs() else {
            return 0;
        };
        let runs = self
            .write_lock()
            .install_merged_runs(&cut, merged)
            .unwrap_or(0);
        if let Some(obs) = self.obs.get() {
            obs.run_merge_ns.record_since(t);
        }
        runs
    }

    /// [`WritableShard::compact`] with backend **re-selection**: before
    /// training the compacted base, re-run the adaptive grid search
    /// (`crate::select`) over the keys the fold will produce, and
    /// install the winner's configuration alongside the rebuilt base —
    /// so a shard that drifted hard-to-learn since its last build
    /// silently becomes an all-B-Tree-leaf hybrid, and one that
    /// smoothed out becomes a plain RMI again. Same off-lock discipline
    /// and race rules as [`WritableShard::compact`].
    ///
    /// Returns `(runs folded, selection)`; `selection` is `None` when
    /// nothing was folded (empty stack or raced), otherwise the choice
    /// plus whether it *switched* the shard's backend family.
    pub(crate) fn compact_selected(
        &self,
        leaf_fraction: f64,
        retune: &RetunePolicy,
    ) -> (usize, Option<(BackendChoice, bool)>) {
        let (cut, was_hybrid) = {
            let guard = self.read_lock();
            if guard.run_count() == 0 {
                return (0, None);
            }
            (guard.snapshot(), guard.config().hybrid_threshold.is_some())
        };
        let obs = self.obs.get();
        let t_train = Instant::now();
        let keys = cut.merged_keys();
        let (rebuilt, cfg, choice) = train_selected(&keys, leaf_fraction, retune);
        if let Some(obs) = obs {
            obs.compact_train_ns.record_since(t_train);
        }
        let t_install = Instant::now();
        let folded = self
            .write_lock()
            .install_compacted_with(&cut, rebuilt, cfg)
            .unwrap_or(0);
        if let Some(obs) = obs {
            obs.compact_install_ns.record_since(t_install);
        }
        if folded == 0 {
            return (0, None);
        }
        let switched = was_hybrid != (choice != BackendChoice::Rmi);
        (folded, Some((choice, switched)))
    }

    /// Whether the trained base is currently an all-B-Tree-leaf hybrid
    /// (the write tier's "tree family") rather than a plain RMI — i.e.
    /// what the adaptive selector last decided for this shard.
    pub fn is_hybrid(&self) -> bool {
        self.read_lock().config().hybrid_threshold.is_some()
    }

    /// Whether the run stack has reached its tiering bound (always
    /// `false` for untiered shards).
    pub fn needs_compaction(&self) -> bool {
        self.read_lock().needs_compaction()
    }

    /// Whether a full run stack should be folded into the base rather
    /// than merged into one run (see
    /// [`DeltaIndex::fold_due`](li_core::delta::DeltaIndex::fold_due)).
    pub fn fold_due(&self) -> bool {
        self.read_lock().fold_due()
    }

    /// How many run stacks have been merged into one run.
    pub fn run_merges(&self) -> usize {
        self.read_lock().run_merges()
    }

    /// Sealed runs currently stacked between the buffer and the base.
    pub fn run_count(&self) -> usize {
        self.read_lock().run_count()
    }

    /// How many buffers have been sealed into immutable runs.
    pub fn seals(&self) -> usize {
        self.read_lock().seals()
    }

    /// How many compactions (run stacks folded into the base) have run.
    pub fn compactions(&self) -> usize {
        self.read_lock().compactions()
    }

    /// Keys held in sealed runs (between the buffer and the base).
    pub fn sealed_keys(&self) -> usize {
        self.read_lock().sealed_keys()
    }

    /// A point-in-time view for lock-free reading. O(pending) — an
    /// `Arc` clone of the trained base plus a copy of the bounded
    /// buffer — so readers hold the read lock only momentarily.
    pub fn snapshot(&self) -> DeltaSnapshot {
        self.read_lock().snapshot()
    }

    /// Whether `key` currently exists (takes the read lock).
    pub fn contains(&self, key: u64) -> bool {
        self.read_lock().contains(key)
    }

    /// Total keys currently stored.
    pub fn len(&self) -> usize {
        self.read_lock().len()
    }

    /// Whether the shard holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many merge+retrain cycles have run.
    pub fn merges(&self) -> usize {
        self.read_lock().merges()
    }

    /// Keys waiting in the delta buffer.
    pub fn pending(&self) -> usize {
        self.read_lock().pending()
    }

    /// Error statistics of the currently trained base RMI (clone of the
    /// cached stats — the rebalancer's split-on-error signal).
    pub fn base_stats(&self) -> RmiStats {
        self.read_lock().base_stats().clone()
    }

    /// Export every key (base + buffer) as one sorted unique vector —
    /// the hand-off when this shard splits or merges with a sibling.
    pub fn export_keys(&self) -> Vec<u64> {
        self.read_lock().export_keys()
    }

    /// Split the merged keyset at `pivot`: `(keys < pivot, keys >=
    /// pivot)`, both sorted unique.
    pub fn split_keys(&self, pivot: u64) -> (Vec<u64>, Vec<u64>) {
        self.read_lock().split_keys(pivot)
    }

    /// Wrap a fully reconstructed [`DeltaIndex`] — the persistence
    /// layer's load path, where the base RMI was rebuilt from saved
    /// parameters and the delta buffer replayed, with no retraining.
    pub(crate) fn from_delta(delta: DeltaIndex) -> Self {
        Self {
            inner: RwLock::new(delta),
            obs: OnceLock::new(),
        }
    }

    /// Insert plus the post-insert observations the sharded write path
    /// needs, all under ONE write-lock acquisition (a separate `len()`
    /// call would pay a second lock handoff per insert).
    pub(crate) fn insert_observed(&self, key: u64) -> InsertObs {
        let mut guard = self.write_lock();
        let watch = self.obs.get().map(|obs| TierWatch::begin(obs, &guard, 1));
        let inserted = guard.insert(key);
        let out = InsertObs {
            inserted,
            len: guard.len(),
            needs_compaction: guard.needs_compaction(),
        };
        if let Some(watch) = watch {
            watch.finish(&guard);
        }
        out
    }

    /// Batched [`WritableShard::insert_observed`]: flags in input order
    /// plus the shard observations, one lock acquisition.
    pub(crate) fn insert_batch_observed(&self, keys: &[u64]) -> (Vec<bool>, InsertObs) {
        let mut guard = self.write_lock();
        let watch = self
            .obs
            .get()
            .map(|obs| TierWatch::begin(obs, &guard, keys.len()));
        let flags = guard.insert_batch(keys);
        let inserted = flags.iter().any(|&f| f);
        let out = InsertObs {
            inserted,
            len: guard.len(),
            needs_compaction: guard.needs_compaction(),
        };
        if let Some(watch) = watch {
            watch.finish(&guard);
        }
        (flags, out)
    }

    /// The base snapshot, retrain configuration and merge threshold,
    /// captured atomically under one read guard — everything the
    /// persistence layer needs to describe this shard at save time.
    pub(crate) fn persist_state(&self) -> (DeltaSnapshot, RmiConfig, usize) {
        let guard = self.read_lock();
        (
            guard.snapshot(),
            guard.config().clone(),
            guard.merge_threshold(),
        )
    }

    // Poison recovery: a panic in a previous lock holder marks the lock
    // poisoned, but the guarded `DeltaIndex` is still valid — every
    // `&mut` entry point leaves it consistent at all panic points
    // (`insert`/`insert_batch` mutate the buffer with single
    // completed-or-not `Vec` operations, and `merge` builds the new
    // base *before* touching any field — see `DeltaIndex::merge`). So a
    // panicking writer must not condemn every later reader and writer:
    // recover the guard with `into_inner` and keep serving.

    /// The shard's read guard, for queries the sharded store answers in
    /// place across several shards (its callers hold at most the
    /// topology read guard and other shards' read guards, taken in
    /// ascending shard order; see `ShardedWritable::range_keys`).
    pub(crate) fn read_lock(&self) -> std::sync::RwLockReadGuard<'_, DeltaIndex> {
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write_lock(&self) -> std::sync::RwLockWriteGuard<'_, DeltaIndex> {
        self.inner.write().unwrap_or_else(|e| e.into_inner())
    }
}

/// Captures a shard's tier counters under the write lock *before* a
/// write, so the seal or buffer merge the write may trigger can be
/// detected — and its duration attributed — *after* it, all within the
/// same critical section. Detection is by counter diff (the `DeltaIndex`
/// already counts its own seals and merges), so no tiering logic is
/// duplicated here.
struct TierWatch<'a> {
    obs: &'a Arc<ServeMetrics>,
    seals0: usize,
    merges0: usize,
    threshold: usize,
    /// Armed only when the buffer can actually fill during this write —
    /// the plain buffered-insert fast path never pays a clock read.
    started: Option<Instant>,
}

impl<'a> TierWatch<'a> {
    fn begin(obs: &'a Arc<ServeMetrics>, guard: &DeltaIndex, incoming: usize) -> Self {
        let threshold = guard.merge_threshold();
        let armed = guard.pending().saturating_add(incoming) >= threshold;
        Self {
            obs,
            seals0: guard.seals(),
            merges0: guard.merges(),
            threshold,
            started: armed.then(Instant::now),
        }
    }

    /// A watch whose timer is unconditionally running (forced merges).
    fn armed(obs: &'a Arc<ServeMetrics>, guard: &DeltaIndex) -> Self {
        Self {
            started: Some(Instant::now()),
            ..Self::begin(obs, guard, 0)
        }
    }

    fn finish(self, guard: &DeltaIndex) {
        let seals = guard.seals() - self.seals0;
        let merges = guard.merges() - self.merges0;
        if seals > 0 {
            self.obs.buffer_seals.add(seals as u64);
            // A run is sealed exactly when the buffer hits capacity, so
            // the run length is the threshold.
            self.obs.event(
                events::BUFFER_SEAL,
                self.threshold as u64,
                guard.run_count() as u64,
            );
        }
        if merges > 0 {
            self.obs.buffer_merges.add(merges as u64);
            if let Some(t) = self.started {
                self.obs.merge_ns.record_since(t);
            }
            self.obs.event(
                events::BUFFER_MERGE,
                self.threshold as u64,
                guard.len() as u64,
            );
        }
    }
}

/// What an insert observed about its shard, captured under the same
/// write lock as the insert itself.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InsertObs {
    /// Whether any key was newly inserted.
    pub inserted: bool,
    /// Shard length right after the insert.
    pub len: usize,
    /// Whether the run stack is at its tiering bound.
    pub needs_compaction: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use li_core::rmi::TopModel;

    fn cfg() -> RmiConfig {
        RmiConfig::two_stage(TopModel::Linear, 32)
    }

    #[test]
    fn shared_reference_inserts_and_reads() {
        let shard = WritableShard::new((0..100u64).map(|i| i * 2).collect::<Vec<_>>(), cfg(), 16);
        assert_eq!(shard.len(), 100);
        assert!(shard.insert(1));
        assert!(!shard.insert(1), "duplicate insert must report false");
        assert!(shard.contains(1));
        assert_eq!(shard.len(), 101);
    }

    #[test]
    fn stats_and_export_pass_through() {
        let shard = WritableShard::new((0..500u64).collect::<Vec<_>>(), cfg(), 8);
        assert!(shard.base_stats().max_abs_err <= 1, "linear base is tight");
        shard.insert(1000);
        let all = shard.export_keys();
        assert_eq!(all.len(), 501);
        assert!(all.windows(2).all(|w| w[0] < w[1]));
        let (left, right) = shard.split_keys(250);
        assert_eq!(left.len(), 250);
        assert_eq!(right.first(), Some(&250));
    }

    #[test]
    fn snapshots_survive_merges() {
        let shard = WritableShard::new(vec![10u64, 20, 30], cfg(), 4);
        shard.insert(15);
        let snap = shard.snapshot();
        assert_eq!(snap.len(), 4);
        // Push through a merge cycle.
        for k in [11u64, 12, 13, 14, 16, 17] {
            shard.insert(k);
        }
        assert!(shard.merges() >= 1);
        assert_eq!(snap.len(), 4, "snapshot must keep its pre-merge view");
        assert!(snap.contains(15) && !snap.contains(11));
        assert_eq!(shard.len(), 10);
    }

    #[test]
    fn writer_panic_does_not_take_down_readers() {
        let shard = WritableShard::new(vec![10u64, 20, 30], cfg(), 16);
        shard.insert(15);
        // A "writer" dies while holding the write lock — the classic
        // poisoning scenario. The DeltaIndex under the lock is
        // untouched mid-panic (see the poison-recovery note on
        // `read_lock`), so nothing was actually corrupted.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = shard.inner.write().unwrap();
            panic!("writer dies mid-critical-section");
        }));
        assert!(result.is_err());
        assert!(shard.inner.is_poisoned(), "the lock really was poisoned");

        // Readers keep answering, writers keep writing.
        assert!(shard.contains(15));
        assert_eq!(shard.len(), 4);
        assert!(shard.insert(25));
        assert!(shard.contains(25));
        let snap = shard.snapshot();
        assert_eq!(snap.len(), 5);
        assert_eq!(snap.range_keys(0, u64::MAX), vec![10, 15, 20, 25, 30]);
    }

    #[test]
    fn concurrent_inserts_from_scoped_threads() {
        let shard = WritableShard::new((0..1000u64).map(|i| i * 10).collect::<Vec<_>>(), cfg(), 64);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let shard = &shard;
                scope.spawn(move || {
                    for i in 0..250u64 {
                        shard.insert((t * 250 + i) * 10 + 1);
                    }
                });
            }
        });
        assert_eq!(shard.len(), 2000);
        assert!(shard.merges() >= 2);
        for k in (0..1000u64).step_by(97) {
            assert!(shard.contains(k * 10 + 1));
        }
    }
}
