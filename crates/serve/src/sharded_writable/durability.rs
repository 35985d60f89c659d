//! Durability: WAL attachment, sync points and crash recovery.

use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use crate::obs::events;
use crate::persist::PersistError;
use crate::wal::{self, Wal, WalOp, WalSyncPolicy};

use super::{ShardedWritable, ShardedWritableConfig};

impl ShardedWritable {
    // -----------------------------------------------------------------
    // Durability: WAL attachment, checkpointing, recovery
    // -----------------------------------------------------------------

    /// The WAL slot, for the persistence layer's checkpoint protocol
    /// ([`ShardedWritable::save`] holds it across cut + publish +
    /// truncate).
    pub(crate) fn wal_slot(&self) -> &Mutex<Option<Wal>> {
        &self.wal
    }

    /// Attach a fresh write-ahead log at `wal_path`: every subsequent
    /// [`ShardedWritable::insert`] / [`ShardedWritable::insert_batch`]
    /// is logged **before** it touches the in-memory tiers, made
    /// durable per `policy`, and the log is truncated at every
    /// [`ShardedWritable::save`].
    ///
    /// The log starts empty and covers only writes made *after* this
    /// call — state already in memory is not logged. Callers with
    /// pre-existing state must therefore [`ShardedWritable::save`] a
    /// snapshot right after enabling (or build via
    /// [`ShardedWritable::recover`], which composes the two), or a
    /// crash before the first save recovers only the logged suffix.
    ///
    /// Errors if a WAL is already attached.
    pub fn enable_wal(
        &self,
        wal_path: impl AsRef<Path>,
        policy: WalSyncPolicy,
    ) -> Result<(), PersistError> {
        let mut slot = self.wal.lock().unwrap_or_else(|e| e.into_inner());
        if slot.is_some() {
            return Err(PersistError::Format(
                "a WAL is already attached to this ShardedWritable".into(),
            ));
        }
        let mut w = Wal::create(wal_path, policy)?;
        w.set_obs(Arc::clone(&self.obs));
        *slot = Some(w);
        self.durable.store(true, Ordering::Release);
        Ok(())
    }

    /// Whether a WAL is attached (writes are being logged).
    pub fn wal_attached(&self) -> bool {
        self.durable.load(Ordering::Acquire)
    }

    /// Force a WAL sync point now: every write acknowledged so far
    /// becomes durable. A no-op without a WAL. Surfaces any latched
    /// append failure (see [`ShardedWritable::insert`]).
    pub fn wal_sync(&self) -> Result<(), PersistError> {
        let mut slot = self.wal.lock().unwrap_or_else(|e| e.into_inner());
        match slot.as_mut() {
            Some(w) => Ok(w.sync()?),
            None => Ok(()),
        }
    }

    /// The WAL's latched failure, if an append or sync has failed
    /// since the last snapshot truncation (`None` = healthy or no WAL
    /// attached).
    pub fn wal_failure(&self) -> Option<String> {
        self.wal
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
            .and_then(|w| w.failure().map(str::to_owned))
    }

    /// Highest LSN the WAL has assigned (0 without a WAL or before the
    /// first logged write).
    pub fn wal_last_lsn(&self) -> u64 {
        self.wal
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
            .map_or(0, |w| w.last_lsn())
    }

    /// Number of `fsync` sync points the WAL has issued (0 without a
    /// WAL) — the group-commit diagnostic, one count per sync point of
    /// the active [`WalSyncPolicy`].
    pub fn wal_sync_count(&self) -> u64 {
        self.wal
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
            .map_or(0, |w| w.sync_count())
    }

    /// Recover a durable structure from its snapshot + WAL pair with
    /// the default configuration for first boots; see
    /// [`ShardedWritable::recover_with_config`] (which also returns
    /// the [`RecoveryReport`]) for the full contract.
    pub fn recover(
        snapshot_path: impl AsRef<Path>,
        wal_path: impl AsRef<Path>,
        policy: WalSyncPolicy,
    ) -> Result<Self, PersistError> {
        Self::recover_with_config(
            snapshot_path,
            wal_path,
            policy,
            ShardedWritableConfig::default(),
        )
        .map(|(sw, _report)| sw)
    }

    /// Recover a durable structure after a crash (or a clean
    /// shutdown — the protocol does not distinguish):
    ///
    /// 1. **Load the snapshot** at `snapshot_path` if one exists
    ///    (zero training, exactly [`ShardedWritable::load`]) and read
    ///    the snapshot LSN from its header. With no snapshot (first
    ///    boot, or a crash before the first save) start empty with
    ///    `config` — the passed `config` is used *only* in that case;
    ///    an existing snapshot carries its own.
    /// 2. **Scan the WAL** at `wal_path`: decode records up to the
    ///    first torn or checksum-failing one and truncate the invalid
    ///    tail (a missing file scans as an empty log).
    /// 3. **Replay** the keys of every record with `lsn > snapshot_lsn`
    ///    as ONE unlogged batch (replay must not re-append) through the
    ///    routed per-shard batch path: one `insert_batch` per owner
    ///    shard, so each shard seals at most once — a shard whose
    ///    replayed keys overflow its buffer keeps them as one sealed
    ///    run, any other keeps them buffered. Then replay stops: it
    ///    counts no insert, runs no maintenance and trains nothing, so
    ///    every base stays the loaded one. A stack the replay filled to
    ///    `max_runs`, or a shard it pushed past `max_shard_len`, is
    ///    maintained by the first insert that lands in that shard, as
    ///    any full stack is. The log holds only inserts, so replay is a
    ///    set union: batching cannot change the result, and records the
    ///    snapshot already covers (impossible by the LSN bound) or a
    ///    previous half-finished recovery already applied (possible —
    ///    replay mutates only memory) are harmless duplicates.
    /// 4. **Re-attach** the WAL for appending, positioned after the
    ///    valid prefix, with LSNs continuing from the last valid one.
    ///
    /// The result: exactly the acknowledged-durable write prefix
    /// survives. Recovery never panics on garbage log bytes and is
    /// idempotent — killed mid-replay and re-run, it produces the same
    /// state, because the only file mutation is the tail truncation
    /// (which only removes bytes the scan already refused to decode).
    pub fn recover_with_config(
        snapshot_path: impl AsRef<Path>,
        wal_path: impl AsRef<Path>,
        policy: WalSyncPolicy,
        config: ShardedWritableConfig,
    ) -> Result<(Self, RecoveryReport), PersistError> {
        let trains = li_core::train_count();
        let snapshot_path = snapshot_path.as_ref();
        let (sw, snapshot_lsn, snapshot_loaded) = if snapshot_path.exists() {
            let (sw, lsn) = Self::load_with_lsn(snapshot_path)?;
            sw.obs.event(events::SNAPSHOT_LOAD, sw.len() as u64, lsn);
            (sw, lsn, true)
        } else {
            (Self::new(Vec::new(), 1, config), 0, false)
        };

        let mut found = wal::scan(wal_path.as_ref())?;
        let truncated_bytes = found.torn_bytes();
        let mut keys = Vec::new();
        let mut replayed = 0usize;
        let mut skipped = 0usize;
        for record in std::mem::take(&mut found.records) {
            if record.lsn <= snapshot_lsn {
                skipped += 1;
                continue;
            }
            match record.op {
                WalOp::Insert(key) => keys.push(key),
                WalOp::InsertBatch(batch) => keys.extend(batch),
            }
            replayed += 1;
        }
        sw.apply_batch(&keys);

        let mut wal = Wal::open_after_recovery(wal_path.as_ref(), policy, &found, snapshot_lsn)?;
        wal.set_obs(Arc::clone(&sw.obs));
        sw.obs.wal_replayed.add(replayed as u64);
        sw.obs
            .event(events::RECOVERY_REPLAY, replayed as u64, truncated_bytes);
        let report = RecoveryReport {
            snapshot_loaded,
            snapshot_lsn,
            replayed,
            skipped,
            truncated_bytes,
            last_lsn: found.last_lsn.max(snapshot_lsn),
            trained: li_core::train_count() - trains,
        };
        *sw.wal.lock().unwrap_or_else(|e| e.into_inner()) = Some(wal);
        sw.durable.store(true, Ordering::Release);
        Ok((sw, report))
    }
}

/// What [`ShardedWritable::recover_with_config`] found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whether a snapshot file existed and was loaded (false = first
    /// boot or crash-before-first-save: recovery started empty).
    pub snapshot_loaded: bool,
    /// The snapshot's LSN watermark — WAL records at or below it were
    /// already covered by the snapshot and skipped.
    pub snapshot_lsn: u64,
    /// Valid WAL records replayed into memory.
    pub replayed: usize,
    /// Valid WAL records skipped as already covered by the snapshot.
    pub skipped: usize,
    /// Torn/corrupt tail bytes truncated off the log.
    pub truncated_bytes: u64,
    /// The LSN the re-attached log continues from.
    pub last_lsn: u64,
    /// Base models the recovery trained ([`li_core::train_count`]
    /// across it — exact, because recovery runs on the caller's
    /// thread). 0 whenever a snapshot loaded, however long the replayed
    /// tail; 1 on a first boot, for its empty base.
    pub trained: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded_writable::tests::small_cfg;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("li-serve-swdur-{}-{name}", std::process::id()))
    }

    struct Cleanup(std::path::PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn durable_writes_recover_after_a_simulated_crash() {
        let snap = tmp("crash.lidx");
        let wal_path = tmp("crash.wal");
        let (_g1, _g2) = (Cleanup(snap.clone()), Cleanup(wal_path.clone()));
        let sw = ShardedWritable::new(
            (0..100u64).map(|i| i * 4).collect::<Vec<_>>(),
            2,
            small_cfg(),
        );
        sw.enable_wal(&wal_path, WalSyncPolicy::PerRecord).unwrap();
        sw.save(&snap).unwrap(); // checkpoint the pre-WAL state
        assert!(sw.insert(1001));
        assert!(sw.insert(1003));
        assert_eq!(
            sw.insert_batch(&[1005, 1003, 1007]),
            vec![true, false, true]
        );
        assert_eq!(sw.wal_last_lsn(), 3);
        assert!(sw.wal_failure().is_none());
        // Crash: drop without saving. Memory is gone; files survive.
        drop(sw);

        let (rec, report) = ShardedWritable::recover_with_config(
            &snap,
            &wal_path,
            WalSyncPolicy::PerRecord,
            small_cfg(),
        )
        .unwrap();
        assert!(report.snapshot_loaded);
        assert_eq!(report.replayed, 3);
        assert_eq!(report.skipped, 0);
        assert_eq!(report.truncated_bytes, 0);
        assert_eq!(rec.len(), 104);
        for k in [1001u64, 1003, 1005, 1007] {
            assert!(rec.contains(k), "lost durable write {k}");
        }
        // The recovered structure keeps logging: a second crash cycle
        // (including a save, which truncates the log and re-stamps the
        // LSN watermark) still loses nothing.
        assert!(rec.insert(2001));
        rec.save(&snap).unwrap();
        assert!(rec.insert(2003));
        drop(rec);
        let again = ShardedWritable::recover(&snap, &wal_path, WalSyncPolicy::PerRecord).unwrap();
        assert!(again.contains(2001), "covered by the second snapshot");
        assert!(again.contains(2003), "replayed from the post-save log");
        assert_eq!(again.len(), 106);
    }

    #[test]
    fn recover_without_snapshot_replays_the_whole_log() {
        let snap = tmp("firstboot.lidx");
        let wal_path = tmp("firstboot.wal");
        let (_g1, _g2) = (Cleanup(snap.clone()), Cleanup(wal_path.clone()));
        let sw = ShardedWritable::new(Vec::new(), 1, small_cfg());
        sw.enable_wal(&wal_path, WalSyncPolicy::EveryN(1)).unwrap();
        for k in 0..20u64 {
            assert!(sw.try_insert(k * 3).unwrap());
        }
        drop(sw); // crash before the first save

        let (rec, report) = ShardedWritable::recover_with_config(
            &snap,
            &wal_path,
            WalSyncPolicy::EveryN(1),
            small_cfg(),
        )
        .unwrap();
        assert!(!report.snapshot_loaded);
        assert_eq!((report.replayed, report.trained), (20, 1), "one empty base");
        assert_eq!(rec.len(), 20);
        assert_eq!(
            rec.range_keys(0, u64::MAX),
            (0..20u64).map(|k| k * 3).collect::<Vec<_>>()
        );
    }

    #[test]
    fn a_stack_the_replay_fills_is_maintained_by_the_next_insert() {
        let (snap, wal_path) = (tmp("deferred.lidx"), tmp("deferred.wal"));
        let (_g1, _g2) = (Cleanup(snap.clone()), Cleanup(wal_path.clone()));
        let cfg = ShardedWritableConfig {
            max_runs: 2,
            ..small_cfg()
        };
        let keys = |n: u64, d: u64| (0..n).map(|i| i * 100 + d).collect::<Vec<_>>();
        let sw = ShardedWritable::new(keys(40, 0), 1, cfg.clone());
        sw.enable_wal(&wal_path, WalSyncPolicy::PerRecord).unwrap();
        sw.insert_batch(&keys(8, 1)); // seals the first run
        sw.save(&snap).unwrap();
        sw.insert_batch(&keys(8, 2)); // only the log holds the second
        drop(sw);

        let (rec, report) =
            ShardedWritable::recover_with_config(&snap, &wal_path, WalSyncPolicy::PerRecord, cfg)
                .unwrap();
        let shard = Arc::clone(&rec.topo_guard().shards[0]);
        assert_eq!(
            (report.trained, rec.compactions(), rec.run_merges()),
            (0, 0, 0)
        );
        assert!(
            shard.needs_compaction(),
            "the replay's seal fills the stack"
        );
        let fold = shard.fold_due();
        assert!(rec.insert(3));
        assert!(shard.run_count() < 2, "the insert maintains the stack");
        let moved = (rec.compactions(), rec.run_merges());
        assert_eq!(moved, (usize::from(fold), usize::from(!fold)));
        let oracle: std::collections::BTreeSet<u64> =
            [keys(40, 0), keys(8, 1), keys(8, 2), vec![3]]
                .concat()
                .into_iter()
                .collect();
        assert_eq!(rec.range_keys(0, u64::MAX), Vec::from_iter(oracle));
    }

    /// On a healthy WAL, `try_insert_batch` returns the flags
    /// `insert_batch` returns, appends one record per non-empty batch
    /// and none for an empty one, and recovery replays those records.
    #[test]
    fn try_insert_batch_logs_one_record_per_batch_and_replays() {
        let (snap, wal_path) = (tmp("trybatch.lidx"), tmp("trybatch.wal"));
        let (_g1, _g2) = (Cleanup(snap.clone()), Cleanup(wal_path.clone()));
        let base = || (0..100u64).map(|i| i * 4).collect::<Vec<_>>();
        let sw = ShardedWritable::new(base(), 2, small_cfg());
        let plain = ShardedWritable::new(base(), 2, small_cfg());
        sw.enable_wal(&wal_path, WalSyncPolicy::PerRecord).unwrap();
        sw.save(&snap).unwrap();
        // Duplicates within a batch, and keys already present (0, 8).
        let batches: [&[u64]; 3] = [&[1001, 0, 1003, 1001, 8], &[], &[1003, 1005, 2001, 2001]];
        let mut lsn = sw.wal_last_lsn();
        for batch in batches {
            let flags = sw.try_insert_batch(batch).unwrap();
            assert_eq!(flags, plain.insert_batch(batch), "{batch:?}");
            lsn += u64::from(!batch.is_empty());
            assert_eq!(sw.wal_last_lsn(), lsn, "{batch:?}");
        }
        assert!(sw.wal_failure().is_none());
        drop(sw);

        let (rec, report) = ShardedWritable::recover_with_config(
            &snap,
            &wal_path,
            WalSyncPolicy::PerRecord,
            small_cfg(),
        )
        .unwrap();
        assert_eq!((report.replayed, report.skipped), (2, 0));
        assert_eq!(rec.range_keys(0, u64::MAX), plain.range_keys(0, u64::MAX));
    }

    #[test]
    fn enabling_a_second_wal_is_refused() {
        let wal_path = tmp("double.wal");
        let _g = Cleanup(wal_path.clone());
        let sw = ShardedWritable::new(vec![1u64], 1, small_cfg());
        assert!(!sw.wal_attached());
        sw.enable_wal(&wal_path, WalSyncPolicy::default()).unwrap();
        assert!(sw.wal_attached());
        assert!(sw.enable_wal(&wal_path, WalSyncPolicy::default()).is_err());
        sw.wal_sync().unwrap();
    }
}
