//! Property suite: persistence round trips. For arbitrary keysets and
//! pending-insert streams, `save → drop → load` must yield a structure
//! observationally identical to the original (oracle equivalence for
//! `contains`/`rank`/`range_keys` and `lower_bound`), with the load
//! provably *not* retraining any model (`train_count` is flat) and every
//! shard base serving its keys zero-copy from the mapped snapshot.
//! Corrupt files are rejected with an error — never a panic, never a
//! silently wrong structure.

use std::collections::BTreeSet;

use learned_indexes::rmi::{train_count, RmiParams};
use learned_indexes::serve::{
    PersistError, RebalanceConfig, ShardedWritable, ShardedWritableConfig,
};
use proptest::prelude::*;

fn tmp_path(tag: &str) -> std::path::PathBuf {
    // One file per (process, thread): property cases run sequentially
    // within a test thread, so reuse is safe and cleanup is local.
    std::env::temp_dir().join(format!(
        "li-prop-persist-{}-{:?}-{tag}.lidx",
        std::process::id(),
        std::thread::current().id()
    ))
}

/// Remove the snapshot file when the case ends, pass or fail.
struct Cleanup(std::path::PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Every shard base's parameters, in shard order.
fn base_params(sw: &ShardedWritable) -> Vec<Option<RmiParams>> {
    sw.snapshot()
        .shard_snapshots()
        .iter()
        .map(|shard| shard.base_index().to_params())
        .collect()
}

/// Every shard base's ε (`None` for a cascade), in shard order.
fn base_eps(sw: &ShardedWritable) -> Vec<Option<u32>> {
    sw.snapshot()
        .shard_snapshots()
        .iter()
        .map(|shard| shard.base_index().stats().eps)
        .collect()
}

/// Recompute the key-payload, manifest and header checksums of a
/// snapshot's `bytes` with XXH64, so a deliberately changed field
/// reaches the decoder instead of failing a checksum.
fn reseal(bytes: &mut [u8]) {
    const HEADER_LEN: usize = 4096;
    let n_keys = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
    let keys_end = HEADER_LEN + n_keys * 8;
    let keys_sum = xxh64(&bytes[HEADER_LEN..keys_end]);
    bytes[32..40].copy_from_slice(&keys_sum.to_le_bytes());
    let manifest_sum = xxh64(&bytes[keys_end..]);
    bytes[40..48].copy_from_slice(&manifest_sum.to_le_bytes());
    let header_sum = xxh64(&bytes[0..56]);
    bytes[56..64].copy_from_slice(&header_sum.to_le_bytes());
}

fn sorted_unique(mut keys: Vec<u64>) -> Vec<u64> {
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// A write-path configuration with a merge threshold high enough that
/// the pending stream below stays buffered — the round trip must carry
/// live delta state, not only trained bases.
fn cfg_with_pending_room() -> ShardedWritableConfig {
    ShardedWritableConfig {
        merge_threshold: 64,
        leaf_fraction: 1.0 / 8.0,
        check_interval: 32,
        rebalance: RebalanceConfig {
            max_shard_len: 256,
            merge_max_len: 64,
            max_mean_err: None,
            max_shards: 12,
        },
        ..ShardedWritableConfig::default()
    }
}

/// A tiered write-path configuration: small buffers seal quickly, the
/// run-stack bound is roomy enough that streams below leave sealed runs
/// *pending* at save time, and rebalancing is quiet (nothing may fold
/// the tiers behind the test's back).
fn tiered_cfg() -> ShardedWritableConfig {
    ShardedWritableConfig {
        merge_threshold: 16,
        leaf_fraction: 1.0 / 8.0,
        check_interval: 0,
        max_runs: 4,
        rebalance: RebalanceConfig {
            max_shard_len: 4096,
            merge_max_len: 64,
            max_mean_err: None,
            max_shards: 12,
        },
        ..ShardedWritableConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Write tier: build → insert (some pending) → save → drop → load ≡
    /// oracle, zero training, every base mapped zero-copy; pending deltas
    /// survive; the loaded structure keeps accepting writes.
    #[test]
    fn sharded_writable_round_trip_is_oracle_equivalent(
        initial in prop::collection::vec(any::<u64>(), 0..200),
        pending in prop::collection::vec(any::<u64>(), 0..48),
        post in prop::collection::vec(any::<u64>(), 0..32),
        shards in 1usize..5,
    ) {
        let path = tmp_path("sw");
        let _guard = Cleanup(path.clone());
        let init = sorted_unique(initial);
        let sw = ShardedWritable::new(init.clone(), shards, cfg_with_pending_room());
        let mut oracle: BTreeSet<u64> = init.iter().copied().collect();
        for &k in &pending {
            prop_assert_eq!(sw.insert(k), oracle.insert(k));
        }
        let saved = base_params(&sw);
        prop_assert!(
            saved.iter().all(|p| matches!(p, Some(RmiParams::Corridor(_)))),
            "every Backend::Rmi base is an ε-corridor"
        );
        sw.save(&path).map_err(|e| TestCaseError::fail(e.to_string()))?;
        drop(sw);

        let before = train_count();
        let loaded = ShardedWritable::load(&path).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(train_count(), before, "load must not train");
        prop_assert_eq!(base_params(&loaded), saved, "segments, ε and window round-trip");

        // Zero-copy witness: every shard base serves from the mapped file.
        for (s, shard) in loaded.snapshot().shard_snapshots().iter().enumerate() {
            prop_assert!(shard.base_store().is_mapped(), "shard {} base was copied", s);
        }

        prop_assert_eq!(loaded.len(), oracle.len());
        let mut want: Vec<u64> = oracle.iter().copied().collect();
        let max_present = want.last() == Some(&u64::MAX);
        if max_present {
            want.pop(); // range_keys is hi-exclusive
        }
        prop_assert_eq!(loaded.range_keys(0, u64::MAX), want);
        prop_assert_eq!(loaded.contains(u64::MAX), max_present);
        let snap = loaded.snapshot();
        for &k in oracle.iter() {
            prop_assert!(loaded.contains(k), "lost k={}", k);
            prop_assert_eq!(snap.rank(k), oracle.range(..k).count(), "rank k={}", k);
        }

        // Still live: post-load inserts behave exactly like the oracle.
        for &k in &post {
            prop_assert_eq!(loaded.insert(k), oracle.insert(k), "post-load insert {}", k);
        }
        prop_assert_eq!(loaded.len(), oracle.len());
    }

    /// Tiered write tier: whatever tier state the random stream leaves
    /// behind (pending buffers, sealed runs, freshly compacted bases —
    /// in any per-shard mixture), `save → drop → load` preserves it
    /// exactly: same key set, same run/sealed accounting, zero
    /// training, and the loaded structure keeps sealing on new writes.
    #[test]
    fn tiered_round_trip_preserves_arbitrary_tier_states(
        initial in prop::collection::vec(any::<u64>(), 0..200),
        stream in prop::collection::vec(any::<u64>(), 0..120),
        shards in 1usize..4,
    ) {
        let path = tmp_path("sw-tiered");
        let _guard = Cleanup(path.clone());
        let init = sorted_unique(initial);
        let sw = ShardedWritable::new(init.clone(), shards, tiered_cfg());
        let mut oracle: BTreeSet<u64> = init.iter().copied().collect();
        for &k in &stream {
            prop_assert_eq!(sw.insert(k), oracle.insert(k));
        }
        let (runs_before, sealed_before, pending_before) =
            (sw.run_count(), sw.sealed_keys(), sw.pending());
        sw.save(&path).map_err(|e| TestCaseError::fail(e.to_string()))?;
        drop(sw);

        let before = train_count();
        let loaded = ShardedWritable::load(&path).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(train_count(), before, "load must not train");

        // Tier-for-tier identical, not merely key-equivalent: sealed
        // runs come back as sealed runs, pending stays pending.
        prop_assert_eq!(loaded.run_count(), runs_before);
        prop_assert_eq!(loaded.sealed_keys(), sealed_before);
        prop_assert_eq!(loaded.pending(), pending_before);
        prop_assert_eq!(loaded.len(), oracle.len());
        for &k in oracle.iter() {
            prop_assert!(loaded.contains(k), "lost k={}", k);
        }

        // Still live and still tiered: post-load writes behave like the
        // oracle (and, with 64 fresh keys against a 16-key buffer, keep
        // sealing/compacting without breaking it).
        for k in 0..64u64 {
            let key = k.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            prop_assert_eq!(loaded.insert(key), oracle.insert(key), "post-load insert {}", key);
        }
        prop_assert_eq!(loaded.len(), oracle.len());
    }

    /// Corruption: flipping any single byte of a valid snapshot — one
    /// whose shards hold a base, sealed runs and pending keys — makes
    /// `load` return an error (checksums, magic, or structural checks):
    /// it must never panic and never produce a structure silently.
    #[test]
    fn corrupting_any_byte_is_rejected_not_misloaded(
        flip_seed in any::<u64>(),
    ) {
        let path = tmp_path("corrupt");
        let _guard = Cleanup(path.clone());
        let sw = ShardedWritable::new((0..256u64).map(|i| i * 3).collect::<Vec<_>>(), 2, tiered_cfg());
        // 40 keys into shard 0's 16-key buffer: two sealed runs, 8 pending.
        for i in 0..40u64 {
            prop_assert!(sw.insert(i * 3 + 1));
        }
        prop_assert_eq!((sw.run_count(), sw.pending()), (2, 8));
        sw.save(&path).map_err(|e| TestCaseError::fail(e.to_string()))?;

        let mut bytes = std::fs::read(&path).unwrap();
        let pos = (flip_seed as usize) % bytes.len();
        let bit = 1u8 << ((flip_seed >> 32) % 8);
        bytes[pos] ^= bit;
        std::fs::write(&path, &bytes).unwrap();

        match ShardedWritable::load(&path) {
            Err(_) => {} // rejected: good
            Ok(loaded) => {
                // The only survivable flips are inside the header's
                // zero padding (bytes 64..4096 are reserved; bytes 0..56
                // are checksummed into bytes 56..64); anywhere else must
                // have been caught by a checksum.
                prop_assert!(
                    (64..4096).contains(&pos),
                    "a flip at byte {} (outside the reserved padding) loaded successfully",
                    pos
                );
                // And even then the structure must answer correctly.
                prop_assert_eq!(
                    (loaded.run_count(), loaded.pending()),
                    (sw.run_count(), sw.pending())
                );
                prop_assert_eq!(loaded.range_keys(0, u64::MAX), sw.range_keys(0, u64::MAX));
                prop_assert_eq!(loaded.rank(300), sw.rank(300));
            }
        }
    }
}

/// A snapshot with a guaranteed NON-empty run stack round-trips: the
/// sealed runs come back as sealed runs (not merged into the base, not
/// dropped), `train_count` stays flat across the load, and reads are
/// identical.
#[test]
fn nonempty_run_stacks_round_trip_identically() {
    let path = tmp_path("run-stack");
    let _guard = Cleanup(path.clone());
    // One shard, threshold 16, max_runs 4: 40 fresh odd keys → two
    // sealed runs + 8 pending, stack below the compaction bound.
    let init: Vec<u64> = (0..100u64).map(|i| i * 2).collect();
    let sw = ShardedWritable::new(init.clone(), 1, tiered_cfg());
    for k in 0..40u64 {
        assert!(sw.insert(k * 2 + 1));
    }
    assert_eq!(sw.run_count(), 2, "the setup must leave sealed runs");
    assert_eq!(sw.sealed_keys(), 32);
    assert_eq!(sw.pending(), 8);
    assert_eq!(sw.compactions(), 0);
    sw.save(&path).unwrap();

    let before = train_count();
    let loaded = ShardedWritable::load(&path).unwrap();
    assert_eq!(
        train_count(),
        before,
        "rebuilding run fences is not a training event"
    );
    assert_eq!(loaded.run_count(), 2);
    assert_eq!(loaded.sealed_keys(), 32);
    assert_eq!(loaded.pending(), 8);
    assert_eq!(loaded.len(), sw.len());
    assert_eq!(loaded.range_keys(0, u64::MAX), sw.range_keys(0, u64::MAX));
    for q in 0..=240u64 {
        assert_eq!(loaded.contains(q), sw.contains(q), "q={q}");
        assert_eq!(loaded.rank(q), sw.rank(q), "q={q}");
    }
}

/// Flipping a byte inside a saved run's key payload (which lives in
/// the manifest, at the tail of the file) must surface as a typed
/// [`PersistError`] — the manifest checksum catches it before any
/// structural check runs.
#[test]
fn corrupt_run_payload_is_rejected_with_a_typed_error() {
    let path = tmp_path("run-corrupt");
    let _guard = Cleanup(path.clone());
    let sw = ShardedWritable::new(
        (0..100u64).map(|i| i * 2).collect::<Vec<_>>(),
        1,
        tiered_cfg(),
    );
    for k in 0..40u64 {
        sw.insert(k * 2 + 1);
    }
    assert!(sw.run_count() >= 1, "the setup must leave sealed runs");
    sw.save(&path).unwrap();

    // The run stacks are the last per-shard manifest section, so the
    // file's tail bytes are run keys; corrupt one.
    let mut bytes = std::fs::read(&path).unwrap();
    let at = bytes.len() - 12;
    bytes[at] ^= 0x20;
    std::fs::write(&path, &bytes).unwrap();
    match ShardedWritable::load(&path) {
        Err(PersistError::Format(msg)) => {
            assert!(msg.contains("checksum"), "unexpected rejection: {msg}")
        }
        Err(e) => panic!("unexpected error variant: {e}"),
        Ok(_) => panic!("corrupt run payload must be rejected"),
    }
}

/// Loading garbage, a file that is not a snapshot, or a missing file is
/// an error — and the error variants are the documented ones.
#[test]
fn malformed_files_yield_typed_errors() {
    let path = tmp_path("malformed");
    let _guard = Cleanup(path.clone());

    assert!(matches!(
        ShardedWritable::load(&path),
        Err(PersistError::Io(_))
    ));

    std::fs::write(&path, b"short").unwrap();
    assert!(matches!(
        ShardedWritable::load(&path),
        Err(PersistError::Format(_))
    ));

    let sw = ShardedWritable::new((0..128u64).collect::<Vec<_>>(), 2, tiered_cfg());
    sw.save(&path).unwrap();
    // A full-size file whose magic is wrong is not a snapshot.
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[0] ^= 0x20;
    std::fs::write(&path, &bytes).unwrap();
    match ShardedWritable::load(&path) {
        Err(PersistError::Format(msg)) => assert!(msg.contains("magic"), "{msg}"),
        other => panic!("bad magic must be a Format error, got {:?}", other.err()),
    }
}

/// A store snapshot whose header `kind` is set to 1 — the read-only
/// index's snapshot kind of an earlier format — and re-sealed with valid
/// checksums is refused by the kind check with a typed `Format` error:
/// the store's snapshot is the one kind there is.
#[test]
fn a_kind_1_snapshot_is_a_typed_format_error() {
    let path = tmp_path("kind-1");
    let _guard = Cleanup(path.clone());
    let sw = ShardedWritable::new((0..256u64).collect::<Vec<_>>(), 2, tiered_cfg());
    sw.save(&path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    assert_eq!(u32::from_le_bytes(bytes[12..16].try_into().unwrap()), 2);
    bytes[12..16].copy_from_slice(&1u32.to_le_bytes());
    reseal(&mut bytes);
    std::fs::write(&path, &bytes).unwrap();
    match ShardedWritable::load(&path) {
        Err(PersistError::Format(msg)) => assert!(msg.contains("kind 1"), "{msg}"),
        other => panic!("kind 1 must be a Format error, got {:?}", other.err()),
    }
}

/// The store builds one base, tag 1 (`Backend::Rmi`), so a snapshot
/// whose configuration carries any other backend byte — the retired
/// selector (0), the retired pinned trees (2, 3, 4) or a byte no build
/// ever wrote (5, 255), patched into a fresh save and re-sealed — is
/// refused with a typed `Format` error, never loaded under a mode that
/// does not exist.
#[test]
fn a_retired_backend_tag_is_a_typed_format_error() {
    let path = tmp_path("retired-backend");
    let _guard = Cleanup(path.clone());
    let base: Vec<u64> = (0..1_000u64).map(|i| i * 3).collect();
    let sw = ShardedWritable::new(base.clone(), 2, tiered_cfg());
    sw.save(&path).unwrap();

    // The manifest opens with the store's configuration: eight 8-byte
    // fields, the error-split flag byte and value, `max_shards`,
    // `max_runs`, then the backend tag byte.
    let saved = std::fs::read(&path).unwrap();
    let at = 4096 + base.len() * 8 + 8 * 8 + 1 + 8 + 8 + 8;
    assert_eq!(saved[at], 1, "the Rmi tag");
    for retired in [0u8, 2, 3, 4, 5, 255] {
        let mut bytes = saved.clone();
        bytes[at] = retired;
        reseal(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();
        match ShardedWritable::load(&path) {
            Err(PersistError::Format(msg)) => {
                assert!(msg.contains("backend tag"), "tag {retired}: {msg}")
            }
            other => panic!(
                "tag {retired} must be a Format error, got {:?}",
                other.err()
            ),
        }
    }
}

/// XXH64 (seed 0), the snapshot checksum of formats v4 and v5 — this
/// suite's own copy, pinned by the published vectors in
/// `xxh64_copy_matches_the_published_vectors`. Used below to re-seal a
/// file after a *semantic* corruption, so the load failure proves the
/// typed validation path, not the checksum.
fn xxh64(bytes: &[u8]) -> u64 {
    const P1: u64 = 0x9E37_79B1_85EB_CA87;
    const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
    const P3: u64 = 0x1656_67B1_9E37_79F9;
    const P4: u64 = 0x85EB_CA77_C2B2_AE63;
    const P5: u64 = 0x27D4_EB2F_1656_67C5;
    let round = |acc: u64, lane: u64| {
        acc.wrapping_add(lane.wrapping_mul(P2))
            .rotate_left(31)
            .wrapping_mul(P1)
    };
    let le64 = |b: &[u8]| u64::from_le_bytes(b[..8].try_into().unwrap());
    let mut rest = bytes;
    let mut h = if bytes.len() >= 32 {
        let mut v = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        while rest.len() >= 32 {
            for (i, acc) in v.iter_mut().enumerate() {
                *acc = round(*acc, le64(&rest[8 * i..]));
            }
            rest = &rest[32..];
        }
        let mut h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        for acc in v {
            h = (h ^ round(0, acc)).wrapping_mul(P1).wrapping_add(P4);
        }
        h
    } else {
        P5
    };
    h = h.wrapping_add(bytes.len() as u64);
    while rest.len() >= 8 {
        h = (h ^ round(0, le64(rest)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
        rest = &rest[8..];
    }
    if rest.len() >= 4 {
        let word = u32::from_le_bytes(rest[..4].try_into().unwrap());
        h = (h ^ u64::from(word).wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        rest = &rest[4..];
    }
    for &b in rest {
        h = (h ^ u64::from(b).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

#[test]
fn xxh64_copy_matches_the_published_vectors() {
    assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
    assert_eq!(xxh64(b"a"), 0xD24E_C4F1_A98C_6E5B);
    assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
    assert_eq!(
        xxh64(b"Nobody inspects the spammish repetition"),
        0xFBCE_A83C_8A37_8BF1
    );
}

/// The store behind `tests/fixtures/snapshot_v3_tiered.lidx`: three
/// shards over 3 000 base keys, 16-key buffers, `max_runs` 4, and 120
/// inserts (40 per shard: two sealed runs and 8 pending keys each).
/// The fixture was written once by this function's store with a WAL
/// attached before the inserts (so its snapshot LSN is 120) and then
/// `save`d, built at commit 13e7744 — the last commit that wrote format
/// v3, whose checksums are FNV-1a.
fn v3_fixture_store() -> ShardedWritable {
    let cfg = ShardedWritableConfig {
        merge_threshold: 16,
        leaf_fraction: 1.0 / 8.0,
        check_interval: 0,
        max_runs: 4,
        rebalance: RebalanceConfig {
            max_shard_len: 1 << 20,
            merge_max_len: 64,
            max_mean_err: None,
            max_shards: 12,
        },
        ..ShardedWritableConfig::default()
    };
    let sw = ShardedWritable::new((0..3000u64).map(|i| i * 4).collect::<Vec<_>>(), 3, cfg);
    for i in 0..120u64 {
        assert!(sw.insert(i * 100 + 1));
    }
    sw
}

/// A store checkpointed in format v3 still loads — tier for tier and key
/// for key, training nothing — and recovers from its LSN watermark; a
/// save from it writes v5. The same file stamped v2 or v6 is refused as
/// `Unsupported`.
#[test]
fn v3_snapshots_load_and_older_versions_are_refused() {
    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("snapshot_v3_tiered.lidx");
    let bytes = std::fs::read(&fixture).unwrap();
    let version = |b: &[u8]| u32::from_le_bytes(b[8..12].try_into().unwrap());
    assert_eq!(version(&bytes), 3, "the fixture is a format-v3 file");
    let want = v3_fixture_store();

    let before = train_count();
    let loaded = ShardedWritable::load(&fixture).unwrap();
    assert_eq!(train_count(), before, "a v3 load must not train");
    assert_eq!(loaded.bounds(), want.bounds());
    assert_eq!(loaded.run_count(), 6);
    assert_eq!(
        (loaded.run_count(), loaded.sealed_keys(), loaded.pending()),
        (want.run_count(), want.sealed_keys(), want.pending())
    );
    assert_eq!(loaded.range_keys(0, u64::MAX), want.range_keys(0, u64::MAX));
    for q in 0..12_100u64 {
        assert_eq!(loaded.contains(q), want.contains(q), "q={q}");
        assert_eq!(loaded.rank(q), want.rank(q), "q={q}");
    }

    let wal = tmp_path("v3-wal");
    let _wal_guard = Cleanup(wal.clone());
    let (rec, report) = ShardedWritable::recover_with_config(
        &fixture,
        &wal,
        learned_indexes::serve::WalSyncPolicy::PerRecord,
        ShardedWritableConfig::default(),
    )
    .unwrap();
    assert_eq!(report.snapshot_lsn, 120);
    assert_eq!(report.trained, 0);
    assert_eq!(rec.len(), want.len());

    let resaved = tmp_path("v3-resaved");
    let _resaved_guard = Cleanup(resaved.clone());
    loaded.save(&resaved).unwrap();
    assert_eq!(version(&std::fs::read(&resaved).unwrap()), 5);
    let reloaded = ShardedWritable::load(&resaved).unwrap();
    assert_eq!(
        reloaded.range_keys(0, u64::MAX),
        want.range_keys(0, u64::MAX)
    );
    assert_eq!(reloaded.run_count(), 6);

    let stamped = tmp_path("v3-stamped");
    let _stamped_guard = Cleanup(stamped.clone());
    for v in [2u32, 6] {
        let mut b = bytes.clone();
        b[8..12].copy_from_slice(&v.to_le_bytes());
        std::fs::write(&stamped, &b).unwrap();
        match ShardedWritable::load(&stamped) {
            Err(PersistError::Unsupported(msg)) => {
                assert!(msg.contains(&format!("version {v}")), "{msg}")
            }
            Err(e) => panic!("version {v}: expected Unsupported, got {e}"),
            Ok(_) => panic!("version {v} must not load"),
        }
    }
}

/// A file saved when `max_runs = 0` meant "merge every full buffer into
/// the base with a retrain" — made here by patching the field of a fresh
/// save and re-sealing it — loads key for key, training nothing, with a
/// one-run stack: the same policy, so its next full buffer is sealed and
/// folded exactly once.
#[test]
fn a_zero_run_bound_loads_as_one_run_that_folds_every_buffer() {
    let path = tmp_path("zero-runs");
    let _guard = Cleanup(path.clone());
    let base: Vec<u64> = (0..3_000u64).map(|i| i * 4).collect();
    let sw = ShardedWritable::new(base.clone(), 1, tiered_cfg());
    for k in 0..8u64 {
        assert!(sw.insert(k * 40 + 1));
    }
    assert_eq!((sw.run_count(), sw.pending()), (0, 8));
    sw.save(&path).unwrap();

    // The manifest opens with the store's configuration: eight 8-byte
    // fields, the error-split flag byte and value, `max_shards`, then
    // `max_runs`.
    let mut bytes = std::fs::read(&path).unwrap();
    const HEADER_LEN: usize = 4096;
    let keys_end = HEADER_LEN + base.len() * 8;
    let at = keys_end + 8 * 8 + 1 + 8 + 8;
    assert_eq!(u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()), 4);
    bytes[at..at + 8].copy_from_slice(&0u64.to_le_bytes());
    let manifest_sum = xxh64(&bytes[keys_end..]);
    bytes[40..48].copy_from_slice(&manifest_sum.to_le_bytes());
    let header_sum = xxh64(&bytes[0..56]);
    bytes[56..64].copy_from_slice(&header_sum.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();

    let trains = train_count();
    let loaded = ShardedWritable::load(&path).unwrap();
    assert_eq!(train_count(), trains, "load must not train");
    assert_eq!(loaded.range_keys(0, u64::MAX), sw.range_keys(0, u64::MAX));
    assert_eq!(loaded.pending(), 8);

    for k in 8..16u64 {
        assert!(loaded.insert(k * 40 + 1));
    }
    assert_eq!(
        (loaded.compactions(), loaded.run_merges()),
        (1, 0),
        "the full buffer folds once"
    );
    assert_eq!((loaded.run_count(), loaded.pending()), (0, 0));
    assert_eq!(train_count(), trains + 1, "one fold, one retrain");
    assert_eq!(loaded.len(), base.len() + 16);
}

/// Tiered stores whose base is large enough that full run stacks are
/// merged into one run instead of folded (a sixteenth of the base is
/// more than one stack).
fn merging_cfg() -> ShardedWritableConfig {
    let cfg = tiered_cfg();
    ShardedWritableConfig {
        rebalance: RebalanceConfig {
            max_shard_len: 1 << 20,
            ..cfg.rebalance
        },
        ..cfg
    }
}

/// A store whose shards hold merged runs — runs far longer than the
/// merge threshold — round-trips key for key, rank for rank and tier
/// for tier, and the load trains nothing.
#[test]
fn merged_runs_round_trip_key_for_key() {
    let path = tmp_path("merged-runs");
    let _guard = Cleanup(path.clone());
    let init: Vec<u64> = (0..12_000u64).map(|i| i * 8).collect();
    let sw = ShardedWritable::new(init, 3, merging_cfg());
    for k in 0..1_200u64 {
        assert!(sw.insert(k * 80 + 3));
    }
    assert!(sw.run_merges() >= 3, "the stream must merge run stacks");
    let longest = |s: &ShardedWritable| {
        s.snapshot()
            .shard_snapshots()
            .iter()
            .flat_map(|shard| shard.runs().iter().map(|r| r.len()))
            .max()
            .unwrap_or(0)
    };
    assert!(longest(&sw) > 16 * 4, "a merged run longer than a stack");
    sw.save(&path).unwrap();

    let before = train_count();
    let loaded = ShardedWritable::load(&path).unwrap();
    assert_eq!(train_count(), before, "load must not train");
    assert_eq!(
        (loaded.run_count(), loaded.sealed_keys(), loaded.pending()),
        (sw.run_count(), sw.sealed_keys(), sw.pending())
    );
    assert_eq!(longest(&loaded), longest(&sw));
    assert_eq!(loaded.range_keys(0, u64::MAX), sw.range_keys(0, u64::MAX));
    for q in (0..96_010u64).step_by(3) {
        assert_eq!(loaded.contains(q), sw.contains(q), "q={q}");
        assert_eq!(loaded.rank(q), sw.rank(q), "q={q}");
    }
}

/// A run key that is also a base key — far from every other run and
/// buffer key, so only the walk of the upper tiers against the base
/// can see it — is rejected with a typed `Format` error once the file
/// is re-sealed with valid checksums, never a panic or a store that
/// counts the key twice.
#[test]
fn a_run_key_in_the_base_is_a_typed_format_error() {
    let path = tmp_path("run-in-base");
    let _guard = Cleanup(path.clone());
    // One shard. The base ends far above every inserted key, and the
    // stream leaves sealed runs and an empty buffer.
    let mut init: Vec<u64> = (0..4_000u64).map(|i| i * 8).collect();
    init.push(1 << 40);
    let sw = ShardedWritable::new(init, 1, merging_cfg());
    for k in 0..160u64 {
        assert!(sw.insert(k * 16 + 3));
    }
    assert!(sw.run_count() >= 1 && sw.pending() == 0, "runs, no buffer");
    sw.save(&path).unwrap();

    // The run stack closes the manifest, so the file's last 8 bytes are
    // the newest run's largest key. Raising it to the base's largest key
    // keeps the run and the upper tiers strictly increasing.
    let mut bytes = std::fs::read(&path).unwrap();
    let at = bytes.len() - 8;
    assert_eq!(
        u64::from_le_bytes(bytes[at..].try_into().unwrap()),
        159 * 16 + 3
    );
    bytes[at..].copy_from_slice(&(1u64 << 40).to_le_bytes());
    const HEADER_LEN: usize = 4096;
    let keys_end = HEADER_LEN + 4_001 * 8;
    let manifest_sum = xxh64(&bytes[keys_end..]);
    bytes[40..48].copy_from_slice(&manifest_sum.to_le_bytes());
    let header_sum = xxh64(&bytes[0..56]);
    bytes[56..64].copy_from_slice(&header_sum.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();

    match ShardedWritable::load(&path) {
        Err(PersistError::Format(msg)) => {
            assert!(msg.contains("disjoint"), "unexpected rejection: {msg}")
        }
        Err(e) => panic!("expected a Format error, got {e}"),
        Ok(_) => panic!("a run key that is also a base key must not load"),
    }
}

/// Snapshots from before format v5 hold cascade bases. The v3 fixture,
/// and the same store as v4 wrote it (v3's layout re-sealed with XXH64),
/// load key for key with zero training and keep their cascades; the
/// next fold of a shard trains exactly once and leaves an ε-corridor,
/// while the other shards keep their cascades.
#[test]
fn pre_v5_cascades_serve_until_one_fold_turns_them_into_corridors() {
    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("snapshot_v3_tiered.lidx");
    let v3 = std::fs::read(&fixture).unwrap();
    let mut v4 = v3.clone();
    v4[8..12].copy_from_slice(&4u32.to_le_bytes());
    reseal(&mut v4);
    let want = v3_fixture_store();
    let path = tmp_path("pre-v5");
    let _guard = Cleanup(path.clone());
    for (version, bytes) in [(3, v3), (4, v4)] {
        std::fs::write(&path, &bytes).unwrap();
        let before = train_count();
        let loaded = ShardedWritable::load(&path).unwrap();
        assert_eq!(train_count(), before, "v{version}: a load must not train");
        assert_eq!(
            base_eps(&loaded),
            [None; 3],
            "v{version}: cascades load as cascades"
        );
        assert_eq!(loaded.range_keys(0, u64::MAX), want.range_keys(0, u64::MAX));
        for q in 0..12_100u64 {
            assert_eq!(loaded.contains(q), want.contains(q), "v{version}: q={q}");
        }

        // Shard 0 holds two sealed runs and 8 pending keys; 24 fresh
        // keys fill its stack to four runs, which holds 1/16 of its base.
        for i in 0..24u64 {
            assert!(loaded.insert(i * 100 + 3));
        }
        assert_eq!(loaded.compactions(), 1, "v{version}: one fold");
        assert_eq!(
            train_count(),
            before + 1,
            "v{version}: one fold, one training run"
        );
        let eps = base_eps(&loaded);
        assert!(
            eps[0].is_some(),
            "v{version}: the folded base is an ε-corridor"
        );
        assert_eq!(
            eps[1..],
            [None; 2],
            "v{version}: unfolded shards keep cascades"
        );
        for q in 0..12_100u64 {
            let inserted = q % 100 == 3 && q < 2_400;
            assert_eq!(
                loaded.contains(q),
                want.contains(q) || inserted,
                "v{version}: q={q}"
            );
        }
    }
}

/// A v5 file whose ε-corridor parameters were changed and re-sealed
/// with valid checksums is refused with a typed `Format` error by the
/// load's O(segments) check: a segment start that does not increase, a
/// start at or past the key count, or ε = 0.
#[test]
fn malformed_corridor_segments_are_typed_format_errors() {
    let path = tmp_path("bad-corridor");
    let _guard = Cleanup(path.clone());
    // One shard, no pending keys and no runs, so the manifest ends with
    // the base's segments and then two zero counts (buffer, runs).
    let base: Vec<u64> = (0..4_000u64).map(|i| i * i).collect();
    let sw = ShardedWritable::new(base.clone(), 1, tiered_cfg());
    sw.save(&path).unwrap();
    let segments = sw.snapshot().shard_snapshots()[0]
        .base_index()
        .stats()
        .leaves;
    assert!(
        segments >= 3,
        "the keys need several segments, got {segments}"
    );
    let good = std::fs::read(&path).unwrap();
    let begin = good.len() - 16 - 16 * segments;
    let u64_at = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
    assert_eq!(
        u64_at(&good, begin - 8),
        segments as u64,
        "segment count where computed"
    );
    assert_eq!(u64_at(&good, begin), 0, "segment 0's first key");

    let start_at = |j: usize| begin + 16 * j + 8;
    let n = base.len() as u32;
    let patches: [(&str, usize, u32); 3] = [
        ("non-increasing start", start_at(2), 0),
        ("start past the keys", start_at(segments - 1), n),
        ("zero ε", begin - 12, 0),
    ];
    for (what, at, value) in patches {
        let mut bytes = good.clone();
        bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
        reseal(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();
        match ShardedWritable::load(&path) {
            Err(PersistError::Format(msg)) => {
                assert!(
                    msg.contains("parameters"),
                    "{what}: unexpected rejection: {msg}"
                )
            }
            Err(e) => panic!("{what}: expected a Format error, got {e}"),
            Ok(_) => panic!("{what}: must not load"),
        }
    }
    std::fs::write(&path, &good).unwrap();
    assert!(
        ShardedWritable::load(&path).is_ok(),
        "the untouched file loads"
    );
}
