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
//! # Gets without the lock
//!
//! The sharded store's `contains` skips the shard lock when it can. Two
//! atomics beside the lock make that safe:
//!
//! * `gen`, bumped under the write lock whenever the immutable tiers
//!   change: a seal (new run), a run merge and a fold;
//! * a filter over the mutable buffer: one 64-bit word per key slot,
//!   [`FILTER_PROBES`] bits set in it per key, [`FILTER_BITS_PER_KEY`]
//!   bits per key of the merge threshold. Every write path marks the
//!   keys it buffered and a load marks the buffer it restores, so the
//!   filter always holds every buffered key.
//!
//! A reader keeps its own copy of the base and run `Arc`s with the
//! `gen` they were read at (`CachedTiers`). It loads `gen`, and if its
//! copy is current and the key's bits are not all set in the filter,
//! the key is not buffered: after an acquire fence and a second `gen`
//! load that still matches, it answers from its copy. Only a seal takes
//! keys out of the buffer, and it bumps `gen`, fences, and only then
//! clears and re-marks the filter, so a reader that saw a cleared word
//! also sees the new `gen` and falls back to the lock. Any other
//! outcome — stale copy, possibly buffered key, moved `gen` — takes the
//! read lock and refreshes the copy under it.
//!
//! A full buffer is sealed into an immutable sorted run, and the shard
//! carries a stack of them between the buffer and the base.
//! [`WritableShard::compact`] folds them into the base and
//! [`WritableShard::merge_runs`] merges them into one run, both with the
//! work running **off-lock**: writers are only excluded for the final
//! pointer-swap publish, never for the `Rmi::build` or the merge — the
//! same observe / rebuild-off-lock / publish discipline the rebalancer
//! uses for topology changes. Every publish is a whole-tier `Arc` swap,
//! so a snapshot taken before a fold keeps serving the exact pre-fold
//! state: reads are never torn across a retrain, which is what the
//! concurrent stress suite asserts.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

use li_core::delta::{DeltaIndex, DeltaSnapshot};
use li_core::rmi::{Rmi, RmiConfig};
use li_core::SortedRun;
use li_index::KeyStore;

use crate::obs::{events, ServeMetrics};

/// Filter bits per key of a shard's merge threshold (the buffer's
/// capacity). At 16 bits and [`FILTER_PROBES`] probes, a full buffer
/// answers "maybe" for about 0.5 % of absent keys.
pub const FILTER_BITS_PER_KEY: usize = 16;

/// Bits a key sets in its filter word.
pub const FILTER_PROBES: u32 = 4;

/// The buffer filter: one 64-bit word per key slot (a power of two of
/// them), [`FILTER_PROBES`] bits per key inside its word, so a probe is
/// one load. Written only under the shard's write lock; read by
/// lock-free gets.
#[derive(Debug)]
struct BufferFilter {
    words: Box<[AtomicU64]>,
}

impl BufferFilter {
    /// A filter sized for `capacity` buffered keys.
    fn new(capacity: usize) -> Self {
        let words = capacity
            .saturating_mul(FILTER_BITS_PER_KEY)
            .div_ceil(64)
            .next_power_of_two();
        Self {
            words: (0..words).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// The word `key` lives in and the bits it sets there: the word
    /// from the mixed hash's high half, one bit from each of
    /// [`FILTER_PROBES`] 6-bit fields of its low half.
    #[inline]
    fn slot(&self, key: u64) -> (&AtomicU64, u64) {
        let h = mix64(key);
        let word = (h >> 32) as usize & (self.words.len() - 1);
        let mut mask = 0u64;
        for i in 0..FILTER_PROBES {
            mask |= 1 << ((h >> (6 * i)) & 63);
        }
        (&self.words[word], mask)
    }

    /// Set `key`'s bits. Callers hold the shard's write lock, so a plain
    /// load and store cannot lose another writer's bits. The store
    /// releases: a get that reads a word marked after a seal cleared it
    /// must also see that seal's `gen` bump, and only a read-modify-write
    /// would carry the clear's release on its own.
    fn mark(&self, key: u64) {
        let (word, mask) = self.slot(key);
        word.store(word.load(Ordering::Relaxed) | mask, Ordering::Release);
    }

    /// Whether `key` may be buffered (`false`: certainly not).
    #[inline]
    fn may_hold(&self, key: u64) -> bool {
        let (word, mask) = self.slot(key);
        word.load(Ordering::Relaxed) & mask == mask
    }

    /// Forget every key. Callers hold the write lock and have bumped
    /// the shard's `gen` and fenced first.
    fn clear(&self) {
        for word in self.words.iter() {
            word.store(0, Ordering::Relaxed);
        }
    }
}

/// MurmurHash3's 64-bit finalizer: every input bit moves every output
/// bit, so sequential or strided keys spread over the filter.
#[inline]
fn mix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// One thread's copy of a shard's immutable tiers — the base and the
/// sealed runs, oldest first — valid while the shard's `gen` still
/// equals the one they were read at.
#[derive(Debug)]
pub(crate) struct CachedTiers {
    gen: u64,
    base: Option<Arc<Rmi>>,
    runs: Vec<Arc<SortedRun>>,
}

impl CachedTiers {
    /// A copy that matches no `gen` (a shard's `gen` never reaches
    /// `u64::MAX`).
    pub(crate) fn empty() -> Self {
        Self {
            gen: u64::MAX,
            base: None,
            runs: Vec::new(),
        }
    }

    /// Whether the copied runs or base hold `key` (runs newest-first,
    /// like [`DeltaIndex::contains`]). The base lookup is started
    /// before the runs are probed and finished after them, so the fetch
    /// of its cache line overlaps the run probes; a run hit answers
    /// first, as before.
    #[inline]
    fn contains(&self, key: u64) -> bool {
        // A copy is filled with its base and runs together, so no base
        // means no runs either.
        let Some(base) = &self.base else {
            return false;
        };
        let started = base.start(key);
        self.runs.iter().rev().any(|r| r.contains(key))
            || base.finish_lookup(key, started).is_some()
    }
}

/// A concurrently writable shard: `DeltaIndex` behind an `RwLock`,
/// reads served from lock-free snapshots, and gets that skip the lock
/// when a per-thread copy of the immutable tiers is current and the
/// buffer filter rules the key out (see the module docs).
#[derive(Debug)]
pub struct WritableShard {
    inner: RwLock<DeltaIndex>,
    /// Bumped under the write lock whenever the immutable tiers change
    /// (seal, run merge, fold); a seal bumps it before it clears the
    /// filter.
    gen: AtomicU64,
    /// Holds every buffered key (and a few more).
    filter: BufferFilter,
    /// The owning structure's observability bundle, attached once at
    /// build/load time (standalone shards stay unattached — they pay
    /// one `OnceLock` load per write and record nothing). Seals and
    /// compaction phases report here.
    obs: OnceLock<Arc<ServeMetrics>>,
}

impl WritableShard {
    /// Build over initial sorted unique `data`; seal every
    /// `merge_threshold` inserts into a run, with the default run-stack
    /// bound ([`li_core::delta::DEFAULT_MAX_RUNS`]).
    pub fn new(data: impl Into<KeyStore>, config: RmiConfig, merge_threshold: usize) -> Self {
        Self::from_delta(DeltaIndex::new(data, config, merge_threshold))
    }

    /// Wrap an already-trained base RMI (no retraining); `config` is
    /// what future folds retrain with.
    pub fn from_trained(base: Rmi, config: RmiConfig, merge_threshold: usize) -> Self {
        Self::from_delta(DeltaIndex::from_trained(base, config, merge_threshold))
    }

    /// Build a shard with run-stack bound `max_runs` (≥ 1): a full
    /// buffer is sealed into an immutable sorted run (O(buffer), no base
    /// retrain), and once `max_runs` runs have stacked up
    /// [`WritableShard::needs_compaction`] turns true so the owner can
    /// fold them with one [`WritableShard::compact`] call — or, while
    /// [`WritableShard::fold_due`] is false, merge them into one run
    /// with [`WritableShard::merge_runs`].
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
        Self::from_delta(DeltaIndex::new(data, config, merge_threshold).with_tiering(max_runs))
    }

    /// Insert a key, returning whether it was newly inserted (`false`
    /// for duplicates, which are no-ops). May seal the buffer into a
    /// run; outstanding snapshots are unaffected.
    pub fn insert(&self, key: u64) -> bool {
        self.insert_observed(key).inserted
    }

    /// Insert a whole batch under **one** write-lock acquisition,
    /// returning one newly-inserted flag per key in input order (see
    /// [`DeltaIndex::insert_batch`](li_core::delta::DeltaIndex::insert_batch)
    /// for the flag semantics). One lock handoff and at most one seal
    /// for the whole batch, instead of one of each per key.
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
        self.insert_batch_observed(keys).0
    }

    /// Keep the filter a superset of the buffer after a write under
    /// `guard` that buffered `keys`. A write that sealed (the seal count
    /// moved past `seals_before`) emptied the buffer into a run: `gen`
    /// is bumped, then fenced, and only then is the filter cleared and
    /// re-marked with what the buffer holds now — the order lock-free
    /// gets rely on. Otherwise the new keys are marked.
    fn track_buffer(
        &self,
        guard: &DeltaIndex,
        seals_before: usize,
        keys: impl IntoIterator<Item = u64>,
    ) {
        if guard.seals() == seals_before {
            for key in keys {
                self.filter.mark(key);
            }
            return;
        }
        self.gen.fetch_add(1, Ordering::Relaxed);
        fence(Ordering::Release);
        self.filter.clear();
        for &key in guard.tiers().2 {
            self.filter.mark(key);
        }
    }

    /// The lock-free get: `Some(answer)` when `cached` is current and
    /// the filter rules `key` out of the buffer, so the copied runs and
    /// base hold it if the shard does; `None` sends the caller to
    /// [`WritableShard::contains_refreshing`].
    ///
    /// A seqlock read: a seal bumps `gen` before it clears the filter,
    /// with a release fence between, so reading a cleared word here
    /// makes the second `gen` load see the bump.
    #[inline]
    pub(crate) fn contains_cached(&self, key: u64, cached: &CachedTiers) -> Option<bool> {
        let gen = self.gen.load(Ordering::Acquire);
        if cached.gen != gen || self.filter.may_hold(key) {
            return None;
        }
        fence(Ordering::Acquire);
        if self.gen.load(Ordering::Relaxed) != gen {
            return None;
        }
        Some(cached.contains(key))
    }

    /// The locked get: whether `key` exists, read under the read lock,
    /// and under the same lock `cached` refreshed if it is stale.
    /// Returns the answer and whether `cached` was refreshed.
    pub(crate) fn contains_refreshing(&self, key: u64, cached: &mut CachedTiers) -> (bool, bool) {
        let guard = self.read_lock();
        let found = guard.contains(key);
        // Bumps happen under the write lock, so `gen` holds still here.
        let gen = self.gen.load(Ordering::Relaxed);
        if cached.gen == gen {
            return (found, false);
        }
        let (base, runs, _) = guard.tiers();
        cached.gen = gen;
        cached.base = Some(Arc::clone(base));
        cached.runs.clear();
        cached.runs.extend(runs.iter().cloned());
        (found, true)
    }

    /// Attach the owning structure's observability bundle. First caller
    /// wins; later calls are no-ops (a shard never changes owners).
    pub(crate) fn attach_obs(&self, obs: Arc<ServeMetrics>) {
        let _ = self.obs.set(obs);
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
        let folded = self.install(|d| d.install_compacted(&cut, rebuilt));
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
        let runs = self.install(|d| d.install_merged_runs(&cut, merged));
        if let Some(obs) = self.obs.get() {
            obs.run_merge_ns.record_since(t);
        }
        runs
    }

    /// Run a fold or run-merge install under the write lock: the runs it
    /// replaced (0 when the cut was stale and nothing was installed). An
    /// install bumps `gen` so cached copies of the replaced tiers are
    /// let go; the buffer keeps its keys, so the filter stays as it is.
    fn install(&self, install: impl FnOnce(&mut DeltaIndex) -> Option<usize>) -> usize {
        let mut guard = self.write_lock();
        let replaced = install(&mut guard).unwrap_or(0);
        if replaced > 0 {
            self.gen.fetch_add(1, Ordering::Release);
        }
        replaced
    }

    /// Whether the run stack has reached its bound.
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

    /// Keys waiting in the delta buffer.
    pub fn pending(&self) -> usize {
        self.read_lock().pending()
    }

    /// Export every key (base + runs + buffer) as one sorted unique
    /// vector — the hand-off when this shard splits or merges with a
    /// sibling.
    pub fn export_keys(&self) -> Vec<u64> {
        self.read_lock().export_keys()
    }

    /// Wrap a [`DeltaIndex`] — also the persistence layer's load path,
    /// where the base RMI was rebuilt from saved parameters and the runs
    /// and buffer restored, with no retraining. The filter is sized from
    /// the merge threshold and marked with the restored buffer.
    pub(crate) fn from_delta(delta: DeltaIndex) -> Self {
        let filter = BufferFilter::new(delta.merge_threshold());
        for &key in delta.tiers().2 {
            filter.mark(key);
        }
        Self {
            inner: RwLock::new(delta),
            gen: AtomicU64::new(0),
            filter,
            obs: OnceLock::new(),
        }
    }

    /// Insert plus the post-insert observations the sharded write path
    /// needs, all under ONE write-lock acquisition (a separate `len()`
    /// call would pay a second lock handoff per insert).
    pub(crate) fn insert_observed(&self, key: u64) -> InsertObs {
        let mut guard = self.write_lock();
        let seals = guard.seals();
        let inserted = guard.insert(key);
        self.track_buffer(&guard, seals, inserted.then_some(key));
        self.note_seals(&guard, seals);
        InsertObs {
            inserted,
            len: guard.len(),
            needs_compaction: guard.needs_compaction(),
        }
    }

    /// Batched [`WritableShard::insert_observed`]: flags in input order
    /// plus the shard observations, one lock acquisition.
    pub(crate) fn insert_batch_observed(&self, keys: &[u64]) -> (Vec<bool>, InsertObs) {
        let mut guard = self.write_lock();
        let seals = guard.seals();
        let flags = guard.insert_batch(keys);
        self.track_buffer(&guard, seals, buffered(keys, &flags));
        self.note_seals(&guard, seals);
        let out = InsertObs {
            inserted: flags.iter().any(|&f| f),
            len: guard.len(),
            needs_compaction: guard.needs_compaction(),
        };
        (flags, out)
    }

    /// Report the seals a write just made (the index counts its own, so
    /// `before` is the count taken under the same write lock before the
    /// write) to the attached bundle, if any.
    fn note_seals(&self, guard: &DeltaIndex, before: usize) {
        let sealed = guard.seals() - before;
        if sealed == 0 {
            return;
        }
        if let Some(obs) = self.obs.get() {
            obs.buffer_seals.add(sealed as u64);
            // A run is sealed exactly when the buffer hits capacity, so
            // the run length is the threshold.
            obs.event(
                events::BUFFER_SEAL,
                guard.merge_threshold() as u64,
                guard.run_count() as u64,
            );
        }
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
    // completed-or-not `Vec` operations, a seal builds its run *before*
    // touching any field — see `DeltaIndex::seal` — and folds and run
    // merges are trained off-lock and installed by `Arc` swaps). So a
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

/// The keys of a batch its flags mark newly inserted.
fn buffered<'a>(keys: &'a [u64], flags: &'a [bool]) -> impl Iterator<Item = u64> + 'a {
    keys.iter().zip(flags).filter(|(_, &f)| f).map(|(&k, _)| k)
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
    use std::collections::BTreeSet;

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
        let stats = shard.read_lock().base_stats().clone();
        assert!(stats.max_abs_err <= 1, "linear base is tight");
        shard.insert(1000);
        let all = shard.export_keys();
        assert_eq!(all.len(), 501);
        assert!(all.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn snapshots_survive_folds() {
        let shard = WritableShard::tiered(vec![10u64, 20, 30], cfg(), 4, 1);
        shard.insert(15);
        let snap = shard.snapshot();
        assert_eq!(snap.len(), 4);
        // Push through a seal and a fold.
        for k in [11u64, 12, 13, 14, 16, 17] {
            shard.insert(k);
        }
        assert!(shard.needs_compaction());
        assert_eq!(shard.compact(), 1);
        assert_eq!(snap.len(), 4, "snapshot must keep its pre-fold view");
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

    /// Every buffered key's bits are set: the invariant lock-free gets
    /// rest on.
    fn assert_filter_holds_buffer(shard: &WritableShard, step: &str) {
        let guard = shard.read_lock();
        for &key in guard.tiers().2 {
            assert!(
                shard.filter.may_hold(key),
                "{step}: buffered {key} not in the filter"
            );
        }
    }

    #[test]
    fn the_filter_holds_the_buffer_after_every_write_path() {
        let base: Vec<u64> = (0..4096u64).map(|k| k * 4).collect();
        let shard = WritableShard::tiered(base, cfg(), 16, 8);
        let gen = |s: &WritableShard| s.gen.load(Ordering::Relaxed);

        assert!(shard.insert(1));
        assert_filter_holds_buffer(&shard, "insert");
        assert_eq!(
            shard.insert_batch(&[5, 9, 5, 4]),
            vec![true, true, false, false]
        );
        assert_filter_holds_buffer(&shard, "insert_batch");
        assert!(shard.insert_observed(13).inserted);
        assert_filter_holds_buffer(&shard, "insert_observed");
        let (flags, _) = shard.insert_batch_observed(&[17, 21]);
        assert_eq!(flags, vec![true, true]);
        assert_filter_holds_buffer(&shard, "insert_batch_observed");
        assert_eq!(
            (shard.pending(), gen(&shard)),
            (6, 0),
            "no seal yet, no bump"
        );

        // A batch that overfills the buffer seals it whole: `gen` moves
        // and the filter is rebuilt from the (now empty) buffer.
        let overfill: Vec<u64> = (0..40u64).map(|k| k * 4 + 2).collect();
        shard.insert_batch(&overfill);
        assert_eq!((shard.pending(), shard.seals(), gen(&shard)), (0, 1, 1));
        assert!(shard
            .filter
            .words
            .iter()
            .all(|w| w.load(Ordering::Relaxed) == 0));
        for k in (0..20u64).map(|k| k * 4 + 3) {
            shard.insert(k);
            assert_filter_holds_buffer(&shard, "insert after the seal");
        }
        assert_eq!(
            (shard.seals(), gen(&shard)),
            (2, 2),
            "the 16th insert sealed"
        );

        // Run merges and folds replace tiers, so they bump `gen` too,
        // and leave the buffer and its filter alone.
        shard.insert_batch(&[1001, 1005]);
        assert_eq!(shard.merge_runs(), 2);
        assert_eq!(gen(&shard), 3);
        assert_filter_holds_buffer(&shard, "merge_runs");
        assert_eq!(shard.compact(), 1);
        assert_eq!(gen(&shard), 4);
        assert_filter_holds_buffer(&shard, "compact");
        assert_eq!(shard.pending(), 6);

        // A load restores a buffer: the filter starts out holding it.
        let keys = KeyStore::new((0..100u64).map(|k| k * 10).collect::<Vec<_>>());
        let corridor = RmiConfig::corridor(8);
        let params = Rmi::build(keys.clone(), &corridor).to_params().unwrap();
        let delta = DeltaIndex::restore(
            keys,
            &params,
            corridor,
            8,
            4,
            vec![vec![5, 15]],
            vec![7, 33, 71],
        )
        .unwrap();
        let loaded = WritableShard::from_delta(delta);
        assert_eq!(loaded.pending(), 3);
        assert_filter_holds_buffer(&loaded, "load");
    }

    /// Every way of asking a shard whether it holds `key`, against the
    /// oracle: the lock-free get (where the filter lets it answer), the
    /// locked get, `DeltaIndex::contains` and `DeltaSnapshot::contains`.
    fn assert_every_get_agrees(shard: &WritableShard, oracle: &BTreeSet<u64>, queries: &[u64]) {
        let mut cached = CachedTiers::empty();
        shard.contains_refreshing(0, &mut cached);
        let snap = shard.snapshot();
        let buffered = shard.read_lock().tiers().2.to_vec();
        let mut lock_free = 0;
        for &key in queries {
            let want = oracle.contains(&key);
            match shard.contains_cached(key, &cached) {
                Some(found) => {
                    assert!(!buffered.contains(&key), "buffered {key} skipped the lock");
                    assert_eq!(found, want, "lock-free get of {key}");
                    lock_free += 1;
                }
                None => assert!(shard.filter.may_hold(key), "{key} left a current copy"),
            }
            assert_eq!(
                shard.contains_refreshing(key, &mut cached).0,
                want,
                "locked get of {key}"
            );
            assert_eq!(shard.read_lock().contains(key), want, "DeltaIndex {key}");
            assert_eq!(snap.contains(key), want, "DeltaSnapshot {key}");
        }
        assert!(lock_free > queries.len() / 2, "the lock-free path ran");
    }

    #[test]
    fn every_probe_agrees_tier_by_tier() {
        // The base lookup is started before the upper tiers are probed
        // and finished after them; no answer may change with it, in any
        // tier, for present keys or absent ones at the array's edges.
        for config in [cfg(), RmiConfig::corridor(8)] {
            let base: Vec<u64> = (0..2000u64).map(|k| k * 10 + 100).collect();
            let shard = WritableShard::tiered(base.clone(), config, 8, 4);
            let run_keys: Vec<u64> = (0..16u64).map(|k| k * 1000 + 105).collect();
            let buffer_keys = [3_007u64, 11_013, 19_999];
            for &key in run_keys.iter().chain(&buffer_keys) {
                assert!(shard.insert(key));
            }
            assert_eq!((shard.run_count(), shard.pending()), (2, 3));
            let mut oracle: BTreeSet<u64> = base.iter().copied().collect();
            oracle.extend(run_keys.iter().chain(&buffer_keys));

            let absent = [0, 99, 1_003, 20_091, 1 << 40, u64::MAX];
            let mut queries: Vec<u64> = oracle.iter().copied().collect();
            queries.extend(absent);
            assert_every_get_agrees(&shard, &oracle, &queries);

            // A duplicate in each tier is refused. Only the base
            // duplicate finishes a base search; the others are answered
            // by an upper tier and leave `base_probes` alone.
            let probes = || shard.read_lock().base_probes();
            for (key, finishes) in [(base[0], 1), (base[1999], 1), (run_keys[0], 0)]
                .into_iter()
                .chain([(run_keys[15], 0), (buffer_keys[1], 0)])
            {
                let before = probes();
                assert!(!shard.insert(key), "duplicate {key}");
                assert_eq!(probes(), before + finishes, "base probes for {key}");
            }
            assert_eq!(shard.len(), oracle.len());

            // A new key goes in once, whatever tier the filling buffer
            // then seals it into.
            for key in absent {
                let before = probes();
                assert!(shard.insert(key), "first insert of {key}");
                assert_eq!(probes(), before + 1, "a new key finishes one base search");
                assert!(!shard.insert(key), "second insert of {key}");
                oracle.insert(key);
            }
            assert_eq!(shard.len(), oracle.len());
            assert_eq!(shard.run_count(), 3, "the fifth new key filled the buffer");
            assert_every_get_agrees(&shard, &oracle, &queries);
        }
    }

    #[test]
    fn plain_inserts_that_seal_are_counted_and_traced() {
        // The store's straggler drain re-inserts through `insert`, so its
        // seals must reach the attached bundle like any other write's.
        let shard = WritableShard::tiered(vec![1_000u64, 2_000], cfg(), 4, 8);
        let obs = Arc::new(ServeMetrics::new());
        shard.attach_obs(Arc::clone(&obs));
        for k in 0..4u64 {
            assert!(shard.insert(k));
        }
        assert_eq!(shard.seals(), 1, "the 4th insert sealed");
        assert_eq!(obs.buffer_seals.value(), 1);
        shard.insert_batch(&[10, 11, 12, 13, 14]);
        assert!(shard.seals() >= 2, "the batch sealed");
        assert_eq!(obs.buffer_seals.value(), shard.seals() as u64);
        let snap = obs.registry().snapshot();
        let traced = snap
            .ring("li_events")
            .unwrap()
            .iter()
            .filter(|e| e.name == "buffer_seal")
            .count();
        assert_eq!(traced, 2, "one buffer_seal event per sealing write");
    }

    #[test]
    fn a_full_buffer_of_random_keys_keeps_false_positives_under_two_percent() {
        let shard = WritableShard::new(vec![0u64], cfg(), 1024);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            mix64(x)
        };
        let buffered: Vec<u64> = (0..1023).map(|_| next()).collect();
        shard.insert_batch(&buffered);
        assert_eq!(shard.pending(), 1023, "one key short of a seal");
        let probes = 200_000;
        let maybe = (0..probes)
            .map(|_| next())
            .filter(|&k| shard.filter.may_hold(k))
            .count();
        let rate = maybe as f64 / probes as f64;
        // Expected about 0.5 %: 4 keys per word, 4 bits per key.
        assert!(rate < 0.02, "false-positive rate {rate}");
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
                        if shard.needs_compaction() {
                            shard.compact();
                        }
                    }
                });
            }
        });
        assert_eq!(shard.len(), 2000);
        assert_eq!(shard.seals(), 1000 / 64);
        assert!(shard.compactions() >= 2);
        for k in (0..1000u64).step_by(97) {
            assert!(shard.contains(k * 10 + 1));
        }
    }
}
