//! Property suite: WAL crash injection. The durability contract under
//! test is exact-prefix semantics — after a crash that tears or
//! corrupts the log at *any* byte, recovery yields precisely the
//! prefix of appended records up to the damage (BTreeSet oracle
//! equivalence), never a gap, never a partial record, never a panic.
//! Recovery loads the snapshot and replays the tail without training a
//! single model (`train_count` flat) or running any maintenance, even
//! where the tail overflows buffers, and is idempotent: recovering
//! twice from the same files produces the same state and the same
//! report.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;

use learned_indexes::rmi::train_count;
use learned_indexes::serve::wal::{self, Wal, WalOp};
use learned_indexes::serve::{
    RebalanceConfig, ShardedSnapshot, ShardedWritable, ShardedWritableConfig, WalSyncPolicy,
};
use proptest::prelude::*;

fn tmp_path(tag: &str) -> PathBuf {
    // One file per (process, thread): property cases run sequentially
    // within a test thread, so reuse is safe and cleanup is local.
    std::env::temp_dir().join(format!(
        "li-prop-wal-{}-{:?}-{tag}",
        std::process::id(),
        std::thread::current().id()
    ))
}

/// Remove the scratch files when the case ends, pass or fail.
struct Cleanup(Vec<PathBuf>);
impl Drop for Cleanup {
    fn drop(&mut self) {
        for p in &self.0 {
            let _ = fs::remove_file(p);
        }
    }
}

/// One logged operation: the unit of atomicity in the record format
/// (a batch is one record — all of it survives a crash or none).
#[derive(Debug, Clone)]
enum Op {
    One(u64),
    Many(Vec<u64>),
}

impl Op {
    fn matches(&self, logged: &WalOp) -> bool {
        match (self, logged) {
            (Op::One(k), WalOp::Insert(l)) => k == l,
            (Op::Many(ks), WalOp::InsertBatch(ls)) => ks == ls,
            _ => false,
        }
    }
}

/// The vendored proptest shim has no `prop_oneof`/`prop_map`, so ops
/// are generated as raw `(selector, keys)` tuples and decoded here:
/// even selector → scalar insert of the first key, odd → whole-batch
/// insert (keys is always non-empty by the strategy's size range).
type RawOp = (u8, Vec<u64>);

fn decode_ops(raw: Vec<RawOp>) -> Vec<Op> {
    raw.into_iter()
        .map(|(sel, keys)| {
            if sel % 2 == 0 {
                Op::One(keys[0])
            } else {
                Op::Many(keys)
            }
        })
        .collect()
}

fn raw_ops(size: std::ops::Range<usize>) -> impl Strategy<Value = Vec<RawOp>> {
    prop::collection::vec(
        (any::<u8>(), prop::collection::vec(any::<u64>(), 1..8)),
        size,
    )
}

/// A configuration roomy enough that replaying any stream below stays
/// in the delta buffers: no merge fires, so a flat `train_count`
/// across recovery proves the snapshot load *and* the replay train
/// nothing. Rebalance checks are off for the same reason.
fn roomy_cfg() -> ShardedWritableConfig {
    ShardedWritableConfig {
        merge_threshold: 4096,
        leaf_fraction: 1.0 / 8.0,
        check_interval: 0,
        rebalance: RebalanceConfig {
            max_shard_len: usize::MAX,
            merge_max_len: 0,
            max_shards: 8,
        },
        ..ShardedWritableConfig::default()
    }
}

/// A tiered configuration whose 8-key buffers the replayed tails below
/// overflow, so recovery seals runs, some into a full stack. Rebalancing
/// stays off, so shard `i` of the snapshot is shard `i` of the
/// recovered store.
fn tiered_cfg() -> ShardedWritableConfig {
    ShardedWritableConfig {
        merge_threshold: 8,
        max_runs: 2,
        ..roomy_cfg()
    }
}

/// Append `ops` to a fresh WAL at `path`, returning the byte offset of
/// each record's end — the crash-injection cut points.
fn write_log(path: &PathBuf, ops: &[Op]) -> Vec<u64> {
    let mut wal = Wal::create(path, WalSyncPolicy::PerRecord).expect("create wal");
    let mut ends = Vec::with_capacity(ops.len());
    for op in ops {
        match op {
            Op::One(k) => wal.append_insert(*k).expect("append"),
            Op::Many(ks) => wal.append_batch(ks).expect("append batch"),
        };
        ends.push(wal.position());
    }
    ends
}

/// The replay rule, shard by shard against what the snapshot saved
/// (`saved`, holding the keys `at_save`): every base is the loaded one
/// (mapped, same key count, same ε). A shard whose buffer the replayed
/// keys (`now` minus `at_save`) overflowed keeps its saved runs plus
/// exactly one run and an empty buffer; every other shard keeps its
/// saved runs and buffers its saved keys plus the replayed ones. Replay
/// runs no maintenance, so the store counts no fold and no run merge.
fn check_replay_rule(
    rec: &ShardedWritable,
    saved: &ShardedSnapshot,
    at_save: &BTreeSet<u64>,
    now: &BTreeSet<u64>,
    buffer: usize,
) -> Result<(), String> {
    let bounds = rec.bounds();
    let mut replayed = vec![0usize; bounds.len() + 1];
    for &key in now.difference(at_save) {
        replayed[bounds.partition_point(|&b| b <= key)] += 1;
    }
    let recovered = rec.snapshot();
    if recovered.shard_snapshots().len() != saved.shard_snapshots().len() {
        return Err("recovery changed the shard count".into());
    }
    for (i, (shard, was)) in recovered
        .shard_snapshots()
        .iter()
        .zip(saved.shard_snapshots())
        .enumerate()
    {
        let same_base = shard.base_store().len() == was.base_store().len()
            && shard.base_index().stats().eps == was.base_index().stats().eps;
        if !same_base || !shard.base_store().is_mapped() {
            return Err(format!("shard {i} replaced its loaded base"));
        }
        let buffered = was.delta_keys().len() + replayed[i];
        let want = if buffered >= buffer {
            (was.runs().len() + 1, 0)
        } else {
            (was.runs().len(), buffered)
        };
        let got = (shard.runs().len(), shard.delta_keys().len());
        if got != want {
            let n = replayed[i];
            return Err(format!(
                "shard {i} replayed {n} keys: (runs, buffered) {got:?}, want {want:?}"
            ));
        }
    }
    let maintained = (rec.compactions(), rec.run_merges());
    if maintained != (0, 0) {
        return Err(format!(
            "replay ran maintenance: (folds, run merges) {maintained:?}"
        ));
    }
    Ok(())
}

/// Number of ops whose record ends at or before byte `cut`.
fn prefix_len(ends: &[u64], cut: u64) -> usize {
    ends.iter().take_while(|&&e| e <= cut).count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Scan-level exact-prefix semantics, exhaustively: truncate the
    /// log at EVERY byte offset (every record boundary and every
    /// mid-record position) — the scan must decode exactly the ops
    /// whose records fit in the prefix, report the torn remainder,
    /// and keep LSNs strictly increasing. Never a panic on any cut.
    #[test]
    fn truncation_at_every_byte_yields_the_exact_record_prefix(
        raw in raw_ops(1..12),
    ) {
        let ops = decode_ops(raw);
        let log = tmp_path("scan-log");
        let cut_copy = tmp_path("scan-cut");
        let _guard = Cleanup(vec![log.clone(), cut_copy.clone()]);
        let ends = write_log(&log, &ops);
        let full = fs::read(&log).map_err(|e| TestCaseError::fail(e.to_string()))?;

        for cut in 0..=full.len() as u64 {
            fs::write(&cut_copy, &full[..cut as usize])
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            let found = wal::scan(&cut_copy).map_err(|e| TestCaseError::fail(e.to_string()))?;
            let want = prefix_len(&ends, cut);
            prop_assert_eq!(found.records.len(), want, "cut={}", cut);
            for (op, rec) in ops.iter().zip(&found.records) {
                prop_assert!(op.matches(&rec.op), "cut={} lsn={}", cut, rec.lsn);
            }
            prop_assert!(
                found.records.windows(2).all(|w| w[0].lsn < w[1].lsn),
                "LSNs not strictly increasing at cut={}", cut
            );
            let valid_end = if want == 0 { 0 } else { ends[want - 1] };
            prop_assert_eq!(found.valid_len, valid_end, "cut={}", cut);
            prop_assert_eq!(found.torn_bytes(), cut - valid_end, "cut={}", cut);
        }
    }

    /// Scan-level corruption: flip one bit of any byte — the scan must
    /// stop at the record containing the flip (checksum refusal) and
    /// return exactly the ops before it. Records AFTER the corrupt one
    /// are never resurrected: a gap in the middle of the replayed
    /// prefix would reorder history.
    #[test]
    fn a_byte_flip_cuts_the_prefix_at_the_damaged_record(
        raw in raw_ops(1..12),
        pos_seed in any::<usize>(),
        bit in 0u8..8,
    ) {
        let ops = decode_ops(raw);
        let log = tmp_path("flip-log");
        let flip_copy = tmp_path("flip-cut");
        let _guard = Cleanup(vec![log.clone(), flip_copy.clone()]);
        let ends = write_log(&log, &ops);
        let mut bytes = fs::read(&log).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let pos = pos_seed % bytes.len();
        bytes[pos] ^= 1 << bit;
        fs::write(&flip_copy, &bytes).map_err(|e| TestCaseError::fail(e.to_string()))?;

        let found = wal::scan(&flip_copy).map_err(|e| TestCaseError::fail(e.to_string()))?;
        // The flipped byte lives inside the first record whose end
        // offset exceeds `pos`; everything before it must survive
        // untouched, nothing at or past it may decode.
        let want = prefix_len(&ends, pos as u64);
        prop_assert_eq!(
            found.records.len(), want,
            "flip at byte {} bit {}", pos, bit
        );
        for (op, rec) in ops.iter().zip(&found.records) {
            prop_assert!(op.matches(&rec.op));
        }
    }

    /// End-to-end crash recovery against a BTreeSet oracle, at every
    /// record boundary and one mid-record cut per record: build →
    /// durable writes → save (checkpoint truncates the log) → more
    /// durable writes → crash (truncate the log copy at the cut) →
    /// recover. The recovered structure must equal snapshot state plus
    /// exactly the replayed record prefix; the report must account for
    /// every record and byte. Under either configuration the snapshot
    /// load and replay must not train a single model; under the tiered
    /// one the tails overflow buffers, and under both every shard must
    /// obey the replay rule (`check_replay_rule`).
    #[test]
    fn recovery_replays_the_exact_durable_prefix(
        initial in prop::collection::vec(any::<u64>(), 1..100),
        raw_before in raw_ops(0..6),
        raw_after in raw_ops(1..10),
        shards in 1usize..4,
        tiered in any::<bool>(),
    ) {
        let before_save = decode_ops(raw_before);
        let after_save = decode_ops(raw_after);
        let snap = tmp_path("e2e-snap");
        let live_wal = tmp_path("e2e-wal");
        let crash_wal = tmp_path("e2e-crash");
        let _guard = Cleanup(vec![snap.clone(), live_wal.clone(), crash_wal.clone()]);

        let cfg = if tiered { tiered_cfg() } else { roomy_cfg() };
        let mut data: Vec<u64> = initial;
        data.sort_unstable();
        data.dedup();
        let sw = ShardedWritable::new(data.clone(), shards, cfg.clone());
        sw.enable_wal(&live_wal, WalSyncPolicy::PerRecord)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;

        let mut oracle: BTreeSet<u64> = data.into_iter().collect();
        let apply = |sw: &ShardedWritable, oracle: &mut BTreeSet<u64>, op: &Op| match op {
            Op::One(k) => {
                sw.insert(*k);
                oracle.insert(*k);
            }
            Op::Many(ks) => {
                sw.insert_batch(ks);
                oracle.extend(ks.iter().copied());
            }
        };
        for op in &before_save {
            apply(&sw, &mut oracle, op);
        }
        sw.save(&snap).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let snapshot_lsn = sw.wal_last_lsn();
        let saved = sw.snapshot();

        // Phase B: acknowledged-durable writes the snapshot does NOT
        // cover — only the WAL stands between them and the crash.
        let mut ends = Vec::with_capacity(after_save.len());
        let mut prefix_oracles = Vec::with_capacity(after_save.len() + 1);
        prefix_oracles.push(oracle.clone());
        for op in &after_save {
            apply(&sw, &mut oracle, op);
            ends.push(fs::metadata(&live_wal)
                .map_err(|e| TestCaseError::fail(e.to_string()))?
                .len());
            prefix_oracles.push(oracle.clone());
        }
        drop(sw); // the crash: in-memory tiers gone, files remain

        let full = fs::read(&live_wal).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let mut cuts: Vec<u64> = vec![0];
        for (i, &e) in ends.iter().enumerate() {
            let start = if i == 0 { 0 } else { ends[i - 1] };
            if e > start + 1 {
                cuts.push(start + (e - start) / 2); // mid-record tear
            }
            cuts.push(e); // clean boundary
        }
        for cut in cuts {
            fs::write(&crash_wal, &full[..cut as usize])
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            let trains = train_count();
            let (rec, report) = ShardedWritable::recover_with_config(
                &snap, &crash_wal, WalSyncPolicy::PerRecord, cfg.clone(),
            ).map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(train_count() - trains, report.trained, "cut={}", cut);
            prop_assert_eq!(report.trained, 0, "recovery trained at cut={}", cut);

            let k = prefix_len(&ends, cut);
            let want = &prefix_oracles[k];
            check_replay_rule(&rec, &saved, &prefix_oracles[0], want, cfg.merge_threshold)
                .map_err(|m| TestCaseError::fail(format!("{m} at cut={cut}")))?;
            prop_assert_eq!(rec.len(), want.len(), "cut={}", cut);
            for &key in want {
                prop_assert!(rec.contains(key), "lost key {} at cut={}", key, cut);
            }
            prop_assert!(report.snapshot_loaded);
            prop_assert_eq!(report.snapshot_lsn, snapshot_lsn);
            prop_assert_eq!(report.replayed, k, "cut={}", cut);
            prop_assert_eq!(report.skipped, 0, "checkpoint left covered records behind");
            let valid_end = if k == 0 { 0 } else { ends[k - 1] };
            prop_assert_eq!(report.truncated_bytes, cut - valid_end, "cut={}", cut);
            prop_assert_eq!(report.last_lsn, snapshot_lsn + k as u64, "cut={}", cut);
            prop_assert!(rec.wal_attached(), "recovery must re-arm the log");
        }
    }

    /// Recovery is idempotent: a recovery that itself "crashes" (its
    /// in-memory result is dropped) changes nothing on disk that a
    /// second recovery would miss — same keys, same report, and the
    /// second scan sees zero torn bytes (the first already truncated
    /// the tail). Under the tiered configuration the replay also seals,
    /// and must still land on the same state.
    #[test]
    fn recovering_twice_from_the_same_files_is_identical(
        initial in prop::collection::vec(any::<u64>(), 1..60),
        raw in raw_ops(1..10),
        torn_tail in prop::collection::vec(any::<u8>(), 0..20),
        tiered in any::<bool>(),
    ) {
        let ops = decode_ops(raw);
        let snap = tmp_path("twice-snap");
        let wal_path = tmp_path("twice-wal");
        let _guard = Cleanup(vec![snap.clone(), wal_path.clone()]);

        let cfg = if tiered { tiered_cfg() } else { roomy_cfg() };
        let mut data: Vec<u64> = initial;
        data.sort_unstable();
        data.dedup();
        let sw = ShardedWritable::new(data, 2, cfg.clone());
        sw.save(&snap).map_err(|e| TestCaseError::fail(e.to_string()))?;
        sw.enable_wal(&wal_path, WalSyncPolicy::EveryN(4))
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        for op in &ops {
            match op {
                Op::One(k) => { sw.insert(*k); }
                Op::Many(ks) => { sw.insert_batch(ks); }
            }
        }
        sw.wal_sync().map_err(|e| TestCaseError::fail(e.to_string()))?;
        drop(sw);
        // Smear a torn tail onto the log: a crash mid-append.
        use std::io::Write;
        fs::OpenOptions::new()
            .append(true)
            .open(&wal_path)
            .and_then(|mut f| f.write_all(&torn_tail))
            .map_err(|e| TestCaseError::fail(e.to_string()))?;

        let (first, report1) = ShardedWritable::recover_with_config(
            &snap, &wal_path, WalSyncPolicy::EveryN(4), cfg.clone(),
        ).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let keys1 = first.range_keys(0, u64::MAX);
        drop(first); // recovery itself crashes before serving

        let (second, report2) = ShardedWritable::recover_with_config(
            &snap, &wal_path, WalSyncPolicy::EveryN(4), cfg,
        ).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(second.range_keys(0, u64::MAX), keys1);
        prop_assert_eq!(report2.replayed, report1.replayed);
        prop_assert_eq!(report2.trained, report1.trained);
        prop_assert_eq!(report2.last_lsn, report1.last_lsn);
        prop_assert_eq!(
            report2.truncated_bytes, 0,
            "first recovery must have truncated the torn tail"
        );
    }
}
