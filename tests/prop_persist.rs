//! Property suite: persistence round trips. For arbitrary keysets and
//! pending-insert streams, `save → drop → load` must yield a structure
//! observationally identical to the original (oracle equivalence for
//! `contains`/`rank`/`range_keys` and `lower_bound`), with the load
//! provably *not* retraining any model (`train_count` is flat) and every
//! shard base serving its keys zero-copy from the mapped snapshot.
//! Corrupt files are rejected with an error — never a panic, never a
//! silently wrong structure.

use std::collections::BTreeSet;

use learned_indexes::rmi::{train_count, CorridorParams};
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

/// Every shard base's parameters (`None` for a cascade), in shard order.
fn base_params(sw: &ShardedWritable) -> Vec<Option<CorridorParams>> {
    sw.snapshot()
        .shard_snapshots()
        .iter()
        .map(|shard| shard.base_index().to_params())
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
            saved.iter().all(Option::is_some),
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
/// an error — and the error variants are the documented ones. So is a
/// fresh save with one field patched and the file re-sealed: a header
/// version other than 5 is `Unsupported`; a wrong magic, a `max_runs`
/// of 0, any value but the ε-corridor's in a shard configuration's fixed
/// slots, or the cascade's parameter layout tag (0) is a `Format` error.
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

    // One shard, so its configuration sits at a fixed manifest offset:
    // the store configuration (90 bytes, `max_runs` at 81), the shard
    // count, the base's offset and length, then the shard configuration
    // (top tag, stage count, leaf count, search tag, hybrid flag and
    // threshold, page size, layout), the merge threshold and the base's
    // parameters, which open with their layout tag.
    let sw = ShardedWritable::new((0..128u64).collect::<Vec<_>>(), 1, tiered_cfg());
    sw.save(&path).unwrap();
    let saved = std::fs::read(&path).unwrap();
    let m = 4096 + 128 * 8;
    let cfg = m + 90 + 8 + 16;
    let u64_at = |at: usize| u64::from_le_bytes(saved[at..at + 8].try_into().unwrap());
    assert_eq!(saved[8..12], 5u32.to_le_bytes(), "format v5");
    assert_eq!(u64_at(m + 81), 4, "max_runs");
    assert_eq!(
        (saved[cfg], u64_at(cfg + 1)),
        (0, 1),
        "linear top, one stage"
    );
    assert_eq!(saved[cfg + 17], 2, "the gallop's search tag");
    assert_eq!(saved[cfg + 18..cfg + 23], [0u8; 5], "no hybrid leaves");
    assert_eq!(u64_at(cfg + 23), 128, "page size");
    assert_eq!(
        (saved[cfg + 31], saved[cfg + 40]),
        (1, 1),
        "corridor layouts"
    );

    let load_patched = |at: usize, patch: &[u8], reseal_it: bool| {
        let mut bytes = saved.clone();
        bytes[at..at + patch.len()].copy_from_slice(patch);
        if reseal_it {
            reseal(&mut bytes);
        }
        std::fs::write(&path, &bytes).unwrap();
        ShardedWritable::load(&path)
    };
    // A full-size file whose magic is wrong is not a snapshot.
    match load_patched(0, &[saved[0] ^ 0x20], false) {
        Err(PersistError::Format(msg)) => assert!(msg.contains("magic"), "{msg}"),
        other => panic!("bad magic must be a Format error, got {:?}", other.err()),
    }
    for v in [2u32, 3, 4, 6] {
        match load_patched(8, &v.to_le_bytes(), true) {
            Err(PersistError::Unsupported(msg)) => {
                assert!(msg.contains(&format!("version {v}")), "{msg}")
            }
            other => panic!("version {v} must be Unsupported, got {:?}", other.err()),
        }
    }
    let patches: [(&str, usize, &[u8], &str); 10] = [
        ("max_runs 0", m + 81, &0u64.to_le_bytes(), "max_runs"),
        ("MLP top", cfg, &[3], "top-model tag"),
        ("two stages", cfg + 1, &2u64.to_le_bytes(), "stage count"),
        ("zero leaves", cfg + 9, &0u64.to_le_bytes(), "leaf count"),
        ("biased binary search", cfg + 17, &[0], "search tag"),
        ("hybrid leaves", cfg + 18, &[1], "hybrid flag"),
        (
            "hybrid threshold",
            cfg + 19,
            &8u32.to_le_bytes(),
            "threshold",
        ),
        ("page size", cfg + 23, &64u64.to_le_bytes(), "page size"),
        ("cascade config", cfg + 31, &[0], "leaf layout"),
        ("cascade params", cfg + 40, &[0], "leaf layout tag 0"),
    ];
    for (what, at, patch, needle) in patches {
        match load_patched(at, patch, true) {
            Err(PersistError::Format(msg)) => assert!(msg.contains(needle), "{what}: {msg}"),
            other => panic!("{what} must be a Format error, got {:?}", other.err()),
        }
    }
    assert!(load_patched(0, &saved[..0], true).is_ok(), "the file loads");
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

/// The v5 configuration keeps the retired error-split slot, a flag byte
/// and an 8-byte threshold; a fresh save writes flag 0 and `0.0`. Patched
/// into a fresh save and re-sealed, flag 1 with a finite, non-negative
/// threshold (what a store with the trigger on wrote) loads key for key
/// with the threshold discarded; any other flag, or flag 1 with a
/// threshold that is negative or not finite, is a typed `Format` error.
#[test]
fn the_retired_error_split_slot_loads_flag_1_and_refuses_flag_2() {
    let path = tmp_path("retired-error-split");
    let _guard = Cleanup(path.clone());
    let base: Vec<u64> = (0..1_000u64).map(|i| i * 3).collect();
    let sw = ShardedWritable::new(base.clone(), 2, tiered_cfg());
    sw.save(&path).unwrap();

    // The manifest opens with the store's configuration: eight 8-byte
    // fields, then the slot's flag byte and threshold.
    let saved = std::fs::read(&path).unwrap();
    let at = 4096 + base.len() * 8 + 8 * 8;
    assert_eq!(saved[at..at + 9], [0u8; 9], "flag 0, threshold 0.0");
    let load_patched = |flag: u8, threshold: f64| {
        let mut bytes = saved.clone();
        bytes[at] = flag;
        bytes[at + 1..at + 9].copy_from_slice(&threshold.to_le_bytes());
        reseal(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();
        ShardedWritable::load(&path)
    };
    for threshold in [0.0, 16.0] {
        let trains = train_count();
        let loaded = load_patched(1, threshold).expect("flag 1 loads");
        assert_eq!(train_count(), trains, "load must not train");
        assert_eq!(loaded.range_keys(0, u64::MAX), base);
    }
    for (flag, threshold) in [
        (2u8, 0.0),
        (255, 16.0),
        (1, -1.0),
        (1, f64::NAN),
        (1, f64::INFINITY),
    ] {
        match load_patched(flag, threshold) {
            Err(PersistError::Format(msg)) => {
                assert!(msg.contains("error-split"), "flag {flag}: {msg}")
            }
            other => panic!(
                "flag {flag}, threshold {threshold} must be a Format error, got {:?}",
                other.err()
            ),
        }
    }
}

/// XXH64 (seed 0), the snapshot checksum since format v4 — this
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
