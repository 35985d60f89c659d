//! The write path: scalar and batched inserts, their WAL appends, and
//! the accounting that decides when a maintenance pass is due.

use std::convert::Infallible;
use std::sync::atomic::Ordering;
use std::time::Instant;

use crate::persist::PersistError;
use crate::wal::{Wal, WalError};

use super::ShardedWritable;

impl ShardedWritable {
    /// Insert a key, returning whether it was newly inserted (`false`
    /// for duplicates). Routes to the owner shard under the topology
    /// read lock — concurrent inserts to different shards proceed in
    /// parallel. When the owner's run stack fills, it runs hot or the
    /// periodic scan comes due, either runs a maintenance pass inline
    /// or (with a [`crate::RebalanceWorker`] attached) signals the
    /// background worker.
    ///
    /// With a WAL attached the key is logged **before** it touches the
    /// in-memory tiers. This signature stays infallible: a WAL I/O
    /// failure is *latched* (the write is still applied and
    /// acknowledged in memory, but is no longer durable) and surfaces
    /// on the next [`ShardedWritable::try_insert`],
    /// [`ShardedWritable::wal_sync`] or via
    /// [`ShardedWritable::wal_failure`] — the same window group commit
    /// already leaves open between sync points. Durable pipelines that
    /// must not acknowledge non-durable writes use
    /// [`ShardedWritable::try_insert`].
    pub fn insert(&self, key: u64) -> bool {
        // Observability: count every insert and decide the 1-in-N
        // latency sample with ONE relaxed striped add (`incr_sampled`),
        // so the two `Instant::now` calls never dominate the hot path
        // (see `crate::obs`).
        if self.config.observe && self.obs.inserts.incr_sampled(crate::obs::INSERT_SAMPLE) {
            let t = Instant::now();
            let r = self.insert_logged(key);
            self.obs.insert_ns.record_since(t);
            return r;
        }
        self.insert_logged(key)
    }

    /// The WAL-then-memory insert body behind [`ShardedWritable::insert`].
    fn insert_logged(&self, key: u64) -> bool {
        // A failed append is latched inside the Wal; see the doc above.
        let append = latched(|w| w.append_insert(key));
        let Ok(inserted) = self.logged(1, append, || self.insert_unlogged(key));
        inserted
    }

    /// [`ShardedWritable::insert`] with WAL errors surfaced instead of
    /// latched: the write is applied (and acknowledged) only after its
    /// record is accepted by the log, so an `Err` means the key was
    /// **not** inserted. Identical to `insert` when no WAL is attached.
    pub fn try_insert(&self, key: u64) -> Result<bool, PersistError> {
        if self.config.observe {
            self.obs.inserts.incr();
        }
        Ok(self.logged(1, |w| w.append_insert(key), || self.insert_unlogged(key))?)
    }

    /// The WAL-then-memory order of every logged write path: with a WAL
    /// attached, `append` logs the write of `keys` keys and `apply` runs
    /// under the same WAL mutex, so the log order is the apply order. An
    /// `Err` from `append` skips `apply`.
    fn logged<T, E>(
        &self,
        keys: usize,
        append: impl FnOnce(&mut Wal) -> Result<u64, E>,
        apply: impl FnOnce() -> T,
    ) -> Result<T, E> {
        if self.durable.load(Ordering::Acquire) {
            let mut slot = self.wal.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(w) = slot.as_mut() {
                append(w)?;
                if self.config.observe {
                    self.obs.durable_inserts.add(keys as u64);
                }
                return Ok(apply());
            }
        }
        Ok(apply())
    }

    /// The WAL-free insert body shared by the scalar write paths.
    fn insert_unlogged(&self, key: u64) -> bool {
        let obs = {
            // The read *guard* (not just the topology Arc) must live
            // across the shard insert: it is what excludes a concurrent
            // rebalance from exporting this shard's keys and publishing
            // a replacement topology while the key lands in the old,
            // about-to-be-discarded shard — a silently lost insert.
            let guard = self.topo_guard();
            let s = guard.router.route_owner(key);
            guard.shards[s].insert_observed(key)
            // Guard drops here, before an inline maintenance pass
            // takes further locks.
        };
        if obs.inserted || obs.needs_compaction {
            self.note_inserts(
                usize::from(obs.inserted),
                if obs.inserted { obs.len } else { 0 },
                obs.needs_compaction,
            );
        }
        obs.inserted
    }

    /// Insert a whole batch, returning one newly-inserted flag per key
    /// in input order (`false` for keys already present and for the
    /// second and later occurrences of a key duplicated within the
    /// batch — exactly the flags N scalar [`ShardedWritable::insert`]
    /// calls would return).
    ///
    /// The batch is bucketed per owner shard (mirroring the read path's
    /// `lower_bound_batch` plan): the topology read lock is taken
    /// **once** for the whole batch, and each touched shard gets **one**
    /// write-lock handoff and at most one seal, instead of one of each
    /// per key. The batch is accounted once at the end, so it triggers
    /// at most one inline maintenance pass (or one worker signal).
    ///
    /// With a WAL attached the whole batch is logged as **one atomic
    /// record** before any key touches the in-memory tiers (same
    /// latched-failure semantics as [`ShardedWritable::insert`];
    /// [`ShardedWritable::try_insert_batch`] surfaces errors instead).
    ///
    /// # Examples
    /// ```
    /// use li_serve::{ShardedWritable, ShardedWritableConfig};
    ///
    /// let sw = ShardedWritable::new(vec![10u64, 20, 30], 2, ShardedWritableConfig::default());
    /// let flags = sw.insert_batch(&[5, 20, 25, 5]);
    /// assert_eq!(flags, vec![true, false, true, false]);
    /// assert_eq!(sw.len(), 5);
    /// ```
    pub fn insert_batch(&self, keys: &[u64]) -> Vec<bool> {
        // One timer pair amortized over the whole batch: count every
        // key, record the per-key average latency.
        if self.config.observe && !keys.is_empty() {
            self.obs.batch_inserts.add(keys.len() as u64);
            let t = Instant::now();
            let flags = self.insert_batch_logged(keys);
            let per_key = t.elapsed().as_nanos() as u64 / keys.len() as u64;
            self.obs.batch_insert_ns.record(per_key);
            return flags;
        }
        self.insert_batch_logged(keys)
    }

    /// The WAL-then-memory batch body behind
    /// [`ShardedWritable::insert_batch`].
    fn insert_batch_logged(&self, keys: &[u64]) -> Vec<bool> {
        if keys.is_empty() {
            return Vec::new();
        }
        let append = latched(|w| w.append_batch(keys));
        let Ok(flags) = self.logged(keys.len(), append, || self.insert_batch_unlogged(keys));
        flags
    }

    /// [`ShardedWritable::insert_batch`] with WAL errors surfaced
    /// instead of latched: on `Err` **no key of the batch** was
    /// applied (the batch record is all-or-nothing in the log, so the
    /// in-memory apply is too). Identical to `insert_batch` when no
    /// WAL is attached.
    pub fn try_insert_batch(&self, keys: &[u64]) -> Result<Vec<bool>, PersistError> {
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        if self.config.observe {
            self.obs.batch_inserts.add(keys.len() as u64);
        }
        let append = |w: &mut Wal| w.append_batch(keys);
        Ok(self.logged(keys.len(), append, || self.insert_batch_unlogged(keys))?)
    }

    /// The WAL-free batch body shared by every write path: apply the
    /// batch, then account for it.
    fn insert_batch_unlogged(&self, keys: &[u64]) -> Vec<bool> {
        let (flags, newly, max_owner_len, compaction_due) = self.apply_batch(keys);
        if newly > 0 || compaction_due {
            self.note_inserts(newly, max_owner_len, compaction_due);
        }
        flags
    }

    /// Insert `keys` through one `insert_batch` per owner shard, with
    /// no WAL append and no accounting: no insert is counted and no
    /// maintenance runs (recovery's replay calls only this). Returns
    /// the flags in input order, the keys newly inserted, the largest
    /// receiving owner's length and whether any owner's stack is full.
    pub(super) fn apply_batch(&self, keys: &[u64]) -> (Vec<bool>, usize, usize, bool) {
        let mut flags = vec![false; keys.len()];
        if keys.is_empty() {
            return (flags, 0, 0, false);
        }
        // Same guard discipline as `insert`: hold the read lock across
        // every shard handoff so no rebalance can swap the topology
        // mid-batch.
        let guard = self.topo_guard();
        let n = guard.shards.len();
        let mut newly = 0usize;
        let mut max_owner_len = 0usize;
        let mut compaction_due = false;
        if n == 1 {
            let (shard_flags, obs) = guard.shards[0].insert_batch_observed(keys);
            flags = shard_flags;
            newly = flags.iter().filter(|&&f| f).count();
            if newly > 0 {
                max_owner_len = obs.len;
            }
            compaction_due = obs.needs_compaction;
        } else {
            // Bucket per owner shard, remembering each key's slot so
            // the flags scatter back in input order.
            let mut bucket_keys: Vec<Vec<u64>> = vec![Vec::new(); n];
            let mut bucket_slots: Vec<Vec<usize>> = vec![Vec::new(); n];
            for (slot, &k) in keys.iter().enumerate() {
                let s = guard.router.route_owner(k);
                bucket_keys[s].push(k);
                bucket_slots[s].push(slot);
            }
            for ((bkeys, bslots), shard) in bucket_keys
                .iter()
                .zip(&bucket_slots)
                .zip(guard.shards.iter())
            {
                if bkeys.is_empty() {
                    continue;
                }
                let (shard_flags, obs) = shard.insert_batch_observed(bkeys);
                let added = shard_flags.iter().filter(|&&f| f).count();
                if added > 0 {
                    newly += added;
                    max_owner_len = max_owner_len.max(obs.len);
                }
                compaction_due |= obs.needs_compaction;
                for (&slot, &f) in bslots.iter().zip(&shard_flags) {
                    flags[slot] = f;
                }
            }
        }
        (flags, newly, max_owner_len, compaction_due)
    }

    /// Shared post-insert accounting for the scalar and batched write
    /// paths: bump the global insert counter, and when a shard ran hot,
    /// a run stack filled or the periodic scan cadence was crossed,
    /// either signal the attached background worker or run the
    /// maintenance pass inline.
    fn note_inserts(&self, newly: usize, max_owner_len: usize, compaction_due: bool) {
        let before = self.inserts.fetch_add(newly, Ordering::Relaxed);
        let after = before + newly;
        let owner_hot = max_owner_len > self.config.rebalance.max_shard_len;
        let periodic = self.config.check_interval > 0
            && before / self.config.check_interval != after / self.config.check_interval;
        if !(owner_hot || periodic || compaction_due) {
            return;
        }
        // Poison-tolerant: the slot is a plain Option pointer, valid
        // even if a panicking thread died while holding the lock.
        if let Some(link) = self
            .worker
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
        {
            link.signal();
            return;
        }
        self.maintenance_pass();
    }
}

/// An append whose failure is latched inside the [`Wal`] (surfacing at
/// the next sync or `try_*` write) instead of returned: the write is
/// applied either way, as [`ShardedWritable::insert`] documents.
fn latched(
    append: impl FnOnce(&mut Wal) -> Result<u64, WalError>,
) -> impl FnOnce(&mut Wal) -> Result<u64, Infallible> {
    |w| Ok(append(w).unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded_writable::tests::small_cfg;

    #[test]
    fn inserts_route_to_owner_shards_and_preserve_order() {
        let data: Vec<u64> = (0..100u64).map(|i| i * 10).collect();
        let sw = ShardedWritable::new(data, 5, small_cfg());
        assert!(sw.insert(501));
        assert!(!sw.insert(501), "duplicate reports false");
        assert!(!sw.insert(500), "existing key reports false");
        assert!(sw.contains(501));
        // The full scan is globally sorted (ownership invariant).
        let all = sw.range_keys(0, u64::MAX);
        assert!(all.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(all.len(), 101);
    }

    #[test]
    fn boundary_keys_have_exactly_one_home() {
        let data: Vec<u64> = (0..90u64).collect();
        let sw = ShardedWritable::new(data, 3, small_cfg());
        for b in sw.bounds() {
            assert!(!sw.insert(b), "boundary key {b} already owned exactly once");
        }
        assert_eq!(sw.len(), 90, "no duplicate slipped across a boundary");
    }

    #[test]
    fn concurrent_inserts_across_threads_settle_exactly() {
        let data: Vec<u64> = (0..2000u64).map(|i| i * 10).collect();
        let sw = ShardedWritable::new(data, 4, small_cfg());
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let sw = &sw;
                scope.spawn(move || {
                    for i in 0..500u64 {
                        sw.insert((t * 500 + i) * 10 + 3);
                    }
                });
            }
        });
        assert_eq!(sw.len(), 4000);
        assert!(sw.splits() >= 1, "inserts must have driven splits");
        let all = sw.range_keys(0, u64::MAX);
        assert!(all.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(all.len(), 4000);
    }
}
