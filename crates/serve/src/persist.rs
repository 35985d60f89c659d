//! Persistence: save a [`ShardedWritable`] store to one snapshot file
//! and map it back in — a warm restart that never retrains.
//!
//! The paper's cost model (§3.1) splits a learned index into the *key
//! array* (big, dumb bytes) and the *model parameters* (a few
//! coefficients per stage). This module persists them in exactly that
//! shape:
//!
//! ```text
//!  ┌────────────────────────────┐ 0
//!  │ header (4096 B, page-      │   magic · version · kind ·
//!  │ aligned)                   │   n_keys · manifest_len ·
//!  │                            │   keys checksum · manifest checksum ·
//!  │                            │   snapshot LSN · header checksum
//!  │                            │   (checksums: XXH64, seed 0)
//!  ├────────────────────────────┤ 4096
//!  │ key payload                │   n_keys × u64, little-endian,
//!  │                            │   globally sorted
//!  ├────────────────────────────┤ 4096 + 8·n_keys
//!  │ manifest                   │   store config + ownership bounds +
//!  │                            │   per-shard model coefficients,
//!  └────────────────────────────┘   delta buffer and sealed run stack
//! ```
//!
//! * **Save** serializes coefficients ([`li_core::CorridorParams`]) — never
//!   pickled objects — and publishes atomically: write to a `.tmp`
//!   sibling, `fsync` the file, `rename`, then `fsync` the parent
//!   directory (without the directory sync, a crash *after* the rename
//!   could still resurrect the old snapshot — or leave none — because
//!   the rename itself only lived in the directory's page cache). A
//!   crash mid-save leaves the previous snapshot untouched; a reader
//!   never observes a torn file.
//! * **Load** maps the key payload (4096-byte alignment makes the u64
//!   region directly reinterpretable — [`KeyStore::from_mapped`] is
//!   zero-copy on 64-bit little-endian unix, decoded-copy elsewhere),
//!   verifies all three checksums, rebuilds each shard's base RMI from its
//!   saved coefficients, and restores the saved delta buffer and sealed
//!   run stack into a fresh [`DeltaIndex`] ([`DeltaIndex::restore`],
//!   which proves every tier sorted and the tiers disjoint in one
//!   linear pass before it assembles anything). Run fences are rebuilt
//!   on load (like the B-Tree leaves they are structure, not trained
//!   models); the base RMI is never refit: [`li_core::train_count`] is
//!   the witness.
//!
//! Verifying a snapshot reads every byte of it once, so the checksum
//! sets the load's speed: XXH64 (four independent 64-bit lanes, ≈ 10×
//! the throughput of byte-serial FNV-1a) makes a load cost about one
//! pass over the key bytes at memory bandwidth.
//!
//! Format v5 is the one version written and read; a file of any other
//! version is a [`PersistError::Unsupported`]. The store's snapshot is
//! the one kind (header `kind` 2; any other kind is a
//! [`PersistError::Format`]). Every shard persists its [`RmiConfig`]
//! next to its base's coefficients, plus its delta buffer and sealed run
//! stack. Every shard base is an ε-corridor: its parameters open with
//! the corridor's leaf-layout tag and store ε, its measured window and
//! its 16-byte segments. Its configuration is [`RmiConfig::corridor`] at
//! its leaf count, so every slot but the leaf count holds a fixed value,
//! and the store configuration's backend tag is 1
//! ([`crate::Backend::Rmi`]). A load refuses any other byte in those
//! slots, or another layout tag, with a [`PersistError::Format`].
//! The header also stamps the **snapshot LSN** —
//! the last [`crate::wal::Wal`] record the snapshot covers — into the
//! header, so [`ShardedWritable::recover`] knows exactly which log
//! suffix is still live (see `crate::wal` and ARCHITECTURE.md
//! "Durability & recovery").

use std::fs::{self, File};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

use li_core::delta::DeltaIndex;
use li_core::rmi::{CorridorParams, RmiConfig, Segment};
use li_core::SearchStrategy;
use li_index::{KeyStore, MappedFile, RangeIndex};

use crate::builder::RetunePolicy;
use crate::rebalance::RebalanceConfig;
use crate::sharded_writable::{Backend, ShardedWritable, ShardedWritableConfig};
use crate::writable::WritableShard;

/// Header size; also the key payload's file offset. One page, so the
/// mapped u64 region is alignment-compatible on every mainstream ABI.
pub const HEADER_LEN: usize = 4096;

/// File magic: ASCII tag + a non-ASCII byte + version-1 marker + CRLF
/// (catches text-mode mangling, like the PNG magic does).
const MAGIC: [u8; 8] = *b"LIDX\xF0\x01\r\n";

/// Format version written and read by this module, the only one. v2
/// added the sharded-writable tiering fields (`max_runs` + per-shard
/// sealed run stacks); v3 added the snapshot LSN and a header checksum
/// (bytes 48..64) for WAL-coordinated recovery; v4 changed the three
/// checksums from FNV-1a to XXH64; v5 added the leaf layout to RMI
/// parameters and configurations. Every other version is refused with
/// [`PersistError::Unsupported`].
const VERSION: u32 = 5;

/// `kind` field: a [`ShardedWritable`] snapshot (bases + delta buffers),
/// the one kind written and read. Kind 1, a read-only index's snapshot
/// in an earlier format, fails the kind check.
const KIND: u32 = 2;

/// Why a save or load failed.
#[derive(Debug)]
pub enum PersistError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// The file is not a valid snapshot (bad magic, truncated,
    /// checksum mismatch, inconsistent topology…).
    Format(String),
    /// The structure (or file) uses a feature the snapshot format
    /// cannot carry, e.g. a multivariate/MLP top model, or a format
    /// version this build does not read.
    Unsupported(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "persist: io error: {e}"),
            PersistError::Format(m) => write!(f, "persist: malformed snapshot: {m}"),
            PersistError::Unsupported(m) => write!(f, "persist: unsupported: {m}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<crate::wal::WalError> for PersistError {
    fn from(e: crate::wal::WalError) -> Self {
        match e {
            crate::wal::WalError::Io(io) => PersistError::Io(io),
            other => PersistError::Format(other.to_string()),
        }
    }
}

fn format_err(msg: impl Into<String>) -> PersistError {
    PersistError::Format(msg.into())
}

const XXH_P1: u64 = 0x9E37_79B1_85EB_CA87;
const XXH_P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const XXH_P3: u64 = 0x1656_67B1_9E37_79F9;
const XXH_P4: u64 = 0x85EB_CA77_C2B2_AE63;
const XXH_P5: u64 = 0x27D4_EB2F_1656_67C5;

fn xxh_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(XXH_P2))
        .rotate_left(31)
        .wrapping_mul(XXH_P1)
}

/// XXH64 with seed 0, the checksum of every snapshot region: an
/// integrity check against truncation and bit-rot, not a MAC. Four
/// accumulators consume independent 8-byte lanes of each 32-byte
/// stripe, so the multiplies overlap instead of forming FNV-1a's one
/// dependent chain per byte.
fn xxh64(bytes: &[u8]) -> u64 {
    let (stripes, tail) = bytes.as_chunks::<32>();
    let mut h = if stripes.is_empty() {
        XXH_P5
    } else {
        let mut acc = [
            XXH_P1.wrapping_add(XXH_P2),
            XXH_P2,
            0,
            XXH_P1.wrapping_neg(),
        ];
        for stripe in stripes {
            for (a, lane) in acc.iter_mut().zip(stripe.as_chunks::<8>().0) {
                *a = xxh_round(*a, u64::from_le_bytes(*lane));
            }
        }
        let mut h = acc[0]
            .rotate_left(1)
            .wrapping_add(acc[1].rotate_left(7))
            .wrapping_add(acc[2].rotate_left(12))
            .wrapping_add(acc[3].rotate_left(18));
        for a in acc {
            h = (h ^ xxh_round(0, a))
                .wrapping_mul(XXH_P1)
                .wrapping_add(XXH_P4);
        }
        h
    };
    h = h.wrapping_add(bytes.len() as u64);
    let (words, rest) = tail.as_chunks::<8>();
    for word in words {
        h = (h ^ xxh_round(0, u64::from_le_bytes(*word)))
            .rotate_left(27)
            .wrapping_mul(XXH_P1)
            .wrapping_add(XXH_P4);
    }
    let (half, rest) = rest.as_chunks::<4>();
    for word in half {
        h = (h ^ u64::from(u32::from_le_bytes(*word)).wrapping_mul(XXH_P1))
            .rotate_left(23)
            .wrapping_mul(XXH_P2)
            .wrapping_add(XXH_P3);
    }
    for &b in rest {
        h = (h ^ u64::from(b).wrapping_mul(XXH_P5))
            .rotate_left(11)
            .wrapping_mul(XXH_P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(XXH_P2);
    h ^= h >> 29;
    h = h.wrapping_mul(XXH_P3);
    h ^ (h >> 32)
}

// ---------------------------------------------------------------------
// Little-endian encode / decode
// ---------------------------------------------------------------------

/// Append-only little-endian encoder for the manifest.
#[derive(Default)]
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    /// A key array: its length, then the keys.
    fn keys(&mut self, keys: &[u64]) {
        self.usize(keys.len());
        self.buf.reserve(keys.len() * 8);
        for &k in keys {
            self.u64(k);
        }
    }
}

/// Bounds-checked little-endian decoder: every read can fail with a
/// [`PersistError::Format`], so a truncated or corrupt manifest is an
/// error, never a panic.
struct Dec<'a> {
    bytes: &'a [u8],
}

impl<'a> Dec<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.bytes.len() < n {
            return Err(format_err("manifest truncated"));
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Ok(head)
    }
    fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn usize(&mut self) -> Result<usize, PersistError> {
        usize::try_from(self.u64()?).map_err(|_| format_err("count overflows usize"))
    }
    /// A length-prefixed count that is about to size an allocation:
    /// reject anything the remaining manifest could not possibly hold
    /// (each counted item is at least `min_item_bytes`), so a corrupt
    /// length cannot trigger a huge `Vec::with_capacity`.
    fn count(&mut self, min_item_bytes: usize) -> Result<usize, PersistError> {
        let n = self.usize()?;
        if n.checked_mul(min_item_bytes.max(1))
            .is_none_or(|need| need > self.bytes.len())
        {
            return Err(format_err("count exceeds manifest size"));
        }
        Ok(n)
    }
    /// A length-prefixed key array ([`Enc::keys`]), decoded in one pass.
    fn keys(&mut self) -> Result<Vec<u64>, PersistError> {
        let n = self.count(8)?;
        Ok(self
            .take(n * 8)?
            .chunks_exact(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
            .collect())
    }
    fn finish(self) -> Result<(), PersistError> {
        if self.bytes.is_empty() {
            Ok(())
        } else {
            Err(format_err("trailing bytes after manifest"))
        }
    }
}

// ---------------------------------------------------------------------
// Component encodings
// ---------------------------------------------------------------------

/// The leaf-layout tag that opens a base's parameters and closes its
/// shard's configuration: the ε-corridor
/// ([`LeafLayout::Corridor`](li_core::rmi::LeafLayout::Corridor)).
/// Tag 0 named the cascade that formats before v5 carried; a load
/// refuses it, as any other byte.
const LAYOUT_CORRIDOR: u8 = 1;

/// An ε-corridor: the layout tag, its window, search and ε, then the
/// segment count and the segments as `first · start · slope` (16 bytes
/// each).
fn encode_corridor_params(enc: &mut Enc, p: &CorridorParams) {
    enc.u8(LAYOUT_CORRIDOR);
    enc.u64(p.below);
    enc.u64(p.above);
    enc.f64(p.rms);
    enc.u8(p.search.to_tag());
    enc.u32(p.eps);
    enc.usize(p.segments.len());
    enc.buf.reserve(p.segments.len() * 16);
    for seg in &p.segments {
        enc.u64(seg.first);
        enc.u32(seg.start);
        enc.u32(seg.slope.to_bits());
    }
}

fn decode_corridor_params(dec: &mut Dec<'_>) -> Result<CorridorParams, PersistError> {
    let layout = dec.u8()?;
    if layout != LAYOUT_CORRIDOR {
        return Err(format_err(format!(
            "leaf layout tag {layout}: only the ε-corridor ({LAYOUT_CORRIDOR}) is read"
        )));
    }
    let below = dec.u64()?;
    let above = dec.u64()?;
    let rms = dec.f64()?;
    let search = decode_search(dec)?;
    let eps = dec.u32()?;
    let n = dec.count(16)?;
    let mut segments = Vec::with_capacity(n);
    for _ in 0..n {
        segments.push(Segment {
            first: dec.u64()?,
            start: dec.u32()?,
            slope: f32::from_bits(dec.u32()?),
        });
    }
    Ok(CorridorParams {
        eps,
        segments,
        below,
        above,
        rms,
        search,
    })
}

fn decode_search(dec: &mut Dec<'_>) -> Result<SearchStrategy, PersistError> {
    let tag = dec.u8()?;
    SearchStrategy::from_tag(tag).ok_or_else(|| format_err(format!("unknown search tag {tag}")))
}

/// A store shard's configuration is always [`RmiConfig::corridor`] at
/// its leaf count. v5 keeps the slots a cascade's configuration filled,
/// written as the corridor's values: top-model tag (0, linear), stage
/// count (1), leaf count, search tag, hybrid flag and threshold (0 and
/// 0), hybrid page size and leaf layout ([`LAYOUT_CORRIDOR`]). A load
/// reads the leaf count and refuses any other value in the fixed slots.
fn encode_shard_config(enc: &mut Enc, leaves: usize) {
    let corridor = RmiConfig::corridor(leaves);
    enc.u8(0);
    enc.usize(1);
    enc.usize(leaves);
    enc.u8(corridor.search.to_tag());
    enc.u8(0);
    enc.u32(0);
    enc.usize(corridor.hybrid_page_size);
    enc.u8(LAYOUT_CORRIDOR);
}

fn decode_shard_config(dec: &mut Dec<'_>) -> Result<RmiConfig, PersistError> {
    let fixed = |what: &str, got: u64, want: u64| {
        if got == want {
            Ok(())
        } else {
            Err(format_err(format!(
                "shard configuration {what} {got}: only {want} is read"
            )))
        }
    };
    let corridor = RmiConfig::corridor(1);
    fixed("top-model tag", dec.u8()?.into(), 0)?;
    fixed("stage count", dec.u64()?, 1)?;
    let leaves = dec.usize()?;
    if leaves == 0 {
        return Err(format_err("shard configuration leaf count 0"));
    }
    fixed(
        "search tag",
        dec.u8()?.into(),
        corridor.search.to_tag().into(),
    )?;
    fixed("hybrid flag", dec.u8()?.into(), 0)?;
    fixed("hybrid threshold", dec.u32()?.into(), 0)?;
    fixed(
        "hybrid page size",
        dec.u64()?,
        corridor.hybrid_page_size as u64,
    )?;
    fixed("leaf layout", dec.u8()?.into(), LAYOUT_CORRIDOR.into())?;
    Ok(RmiConfig::corridor(leaves))
}

/// The store configuration's retired retune max-error slot: v5 keeps
/// its 8 bytes, written as the value that disabled the trigger, and
/// reads no other.
const RETIRED_MAX_ABS_ERR: u64 = u64::MAX;

/// The store configuration's retired error-split slot: v5 keeps its
/// flag byte and 8-byte value, written as flag 0 and `0.0` — the bytes
/// a disabled trigger wrote. A load reads flag 0, or flag 1 with a
/// finite, non-negative value it discards, and refuses anything else.
const RETIRED_ERROR_SPLIT_FLAG: u8 = 0;

/// The store configuration's backend tag: [`Backend::Rmi`], the one
/// base, is 1, and no other byte is read. Tags 0 and 2–4 named the
/// retired selector and pinned trees.
const BACKEND_TAG_RMI: u8 = 1;

fn encode_sw_config(enc: &mut Enc, cfg: &ShardedWritableConfig) {
    enc.usize(cfg.merge_threshold);
    enc.f64(cfg.leaf_fraction);
    enc.f64(cfg.retune.max_mean_err);
    enc.u64(RETIRED_MAX_ABS_ERR);
    enc.usize(cfg.retune.max_rounds);
    enc.usize(cfg.check_interval);
    enc.usize(cfg.rebalance.max_shard_len);
    enc.usize(cfg.rebalance.merge_max_len);
    enc.u8(RETIRED_ERROR_SPLIT_FLAG);
    enc.f64(0.0);
    enc.usize(cfg.rebalance.max_shards);
    enc.usize(cfg.max_runs);
    enc.u8(BACKEND_TAG_RMI);
}

fn decode_sw_config(dec: &mut Dec<'_>) -> Result<ShardedWritableConfig, PersistError> {
    let merge_threshold = dec.usize()?;
    let leaf_fraction = dec.f64()?;
    let retune_mean_err = dec.f64()?;
    let max_abs_err = dec.u64()?;
    if max_abs_err != RETIRED_MAX_ABS_ERR {
        return Err(format_err(format!(
            "retune max_abs_err {max_abs_err}: only the disabled value is read"
        )));
    }
    let retune = RetunePolicy {
        max_mean_err: retune_mean_err,
        max_rounds: dec.usize()?,
    };
    let check_interval = dec.usize()?;
    let max_shard_len = dec.usize()?;
    let merge_max_len = dec.usize()?;
    let (flag, threshold) = (dec.u8()?, dec.f64()?);
    match flag {
        RETIRED_ERROR_SPLIT_FLAG => {}
        1 if threshold >= 0.0 && threshold.is_finite() => {}
        _ => {
            return Err(format_err(format!(
                "retired error-split slot: flag {flag}, threshold {threshold}"
            )))
        }
    }
    let max_shards = dec.usize()?;
    let max_runs = dec.usize()?;
    let backend_tag = dec.u8()?;
    if backend_tag != BACKEND_TAG_RMI {
        return Err(format_err(format!(
            "backend tag {backend_tag} is not the store's one base, Rmi ({BACKEND_TAG_RMI})"
        )));
    }
    let cfg = ShardedWritableConfig {
        merge_threshold,
        leaf_fraction,
        retune,
        check_interval,
        max_runs,
        backend: Backend::Rmi,
        // Runtime-only knob, deliberately not persisted: a reloaded
        // structure observes by default like a fresh one.
        observe: true,
        rebalance: RebalanceConfig {
            max_shard_len,
            merge_max_len,
            max_shards,
        },
    };
    // A corrupt file is refused here, by the rules construction
    // asserts, rather than panicking deep in a constructor.
    cfg.validate()
        .map_err(|rule| format_err(format!("invalid sharded-writable configuration: {rule}")))?;
    Ok(cfg)
}

// ---------------------------------------------------------------------
// File-level write / read
// ---------------------------------------------------------------------

fn le_key_bytes(chunks: &[&[u64]]) -> Vec<u8> {
    let total: usize = chunks.iter().map(|c| c.len()).sum();
    let mut out = Vec::with_capacity(total * 8);
    for chunk in chunks {
        for &k in *chunk {
            out.extend_from_slice(&k.to_le_bytes());
        }
    }
    out
}

/// Write the snapshot atomically: `.tmp` sibling, `fsync` the file,
/// `rename`, `fsync` the parent directory. A reader (or a crash)
/// therefore sees either the complete previous file or the complete
/// new one — never a partial write. The directory sync is load-bearing:
/// `rename` only updates the directory's page cache, so without it a
/// power cut *after* a successful-looking publish could come back up
/// with the old snapshot (or, for a first save, none at all).
///
/// `lsn` is the snapshot LSN stamped into the header (bytes 48..56):
/// the last WAL record this snapshot covers, `0` for structures with
/// no WAL attached. Header bytes 0..56 are themselves checksummed
/// (bytes 56..64), so a flipped LSN byte is rejected, not replayed
/// around.
fn publish(path: &Path, lsn: u64, key_bytes: &[u8], manifest: &[u8]) -> Result<(), PersistError> {
    debug_assert!(key_bytes.len().is_multiple_of(8));
    let mut header = vec![0u8; HEADER_LEN];
    header[0..8].copy_from_slice(&MAGIC);
    header[8..12].copy_from_slice(&VERSION.to_le_bytes());
    header[12..16].copy_from_slice(&KIND.to_le_bytes());
    header[16..24].copy_from_slice(&((key_bytes.len() / 8) as u64).to_le_bytes());
    header[24..32].copy_from_slice(&(manifest.len() as u64).to_le_bytes());
    header[32..40].copy_from_slice(&xxh64(key_bytes).to_le_bytes());
    header[40..48].copy_from_slice(&xxh64(manifest).to_le_bytes());
    header[48..56].copy_from_slice(&lsn.to_le_bytes());
    let header_sum = xxh64(&header[0..56]);
    header[56..64].copy_from_slice(&header_sum.to_le_bytes());

    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let result = (|| -> Result<(), PersistError> {
        let mut f = File::create(&tmp)?;
        f.write_all(&header)?;
        f.write_all(key_bytes)?;
        f.write_all(manifest)?;
        f.sync_all()?;
        fs::rename(&tmp, path)?;
        crate::wal::sync_parent_dir(path)?;
        Ok(())
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// A snapshot whose header and checksums verified.
struct Verified {
    region: Arc<MappedFile>,
    n_keys: usize,
    /// The manifest's byte range within the region.
    manifest: std::ops::Range<usize>,
    lsn: u64,
}

impl Verified {
    /// A decoder over the manifest.
    fn manifest(&self) -> Dec<'_> {
        Dec::new(&self.region.bytes()[self.manifest.clone()])
    }
}

/// Open a snapshot and verify every header field and all three
/// checksums (header, key payload, manifest).
fn open_verified(path: &Path) -> Result<Verified, PersistError> {
    let region = Arc::new(MappedFile::open(path)?);
    let bytes = region.bytes();
    if bytes.len() < HEADER_LEN {
        return Err(format_err("file shorter than the header"));
    }
    if bytes[0..8] != MAGIC {
        return Err(format_err("bad magic (not a snapshot file)"));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != VERSION {
        return Err(PersistError::Unsupported(format!(
            "snapshot format version {version} (this build reads {VERSION} only)"
        )));
    }
    let header_sum = u64::from_le_bytes(bytes[56..64].try_into().unwrap());
    if xxh64(&bytes[0..56]) != header_sum {
        return Err(format_err("header checksum mismatch"));
    }
    let kind = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
    if kind != KIND {
        return Err(format_err(format!("snapshot kind {kind}, expected {KIND}")));
    }
    let n_keys = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    let manifest_len = u64::from_le_bytes(bytes[24..32].try_into().unwrap());
    let keys_sum = u64::from_le_bytes(bytes[32..40].try_into().unwrap());
    let manifest_sum = u64::from_le_bytes(bytes[40..48].try_into().unwrap());
    let snapshot_lsn = u64::from_le_bytes(bytes[48..56].try_into().unwrap());
    let n_keys = usize::try_from(n_keys).map_err(|_| format_err("key count overflows usize"))?;
    let manifest_len =
        usize::try_from(manifest_len).map_err(|_| format_err("manifest length overflows usize"))?;
    let keys_end = n_keys
        .checked_mul(8)
        .and_then(|b| b.checked_add(HEADER_LEN))
        .ok_or_else(|| format_err("key payload size overflows"))?;
    let total = keys_end
        .checked_add(manifest_len)
        .ok_or_else(|| format_err("file size overflows"))?;
    if bytes.len() != total {
        return Err(format_err(format!(
            "file is {} bytes, header declares {total}",
            bytes.len()
        )));
    }
    if xxh64(&bytes[HEADER_LEN..keys_end]) != keys_sum {
        return Err(format_err("key payload checksum mismatch"));
    }
    if xxh64(&bytes[keys_end..total]) != manifest_sum {
        return Err(format_err("manifest checksum mismatch"));
    }
    Ok(Verified {
        region,
        n_keys,
        manifest: keys_end..total,
        lsn: snapshot_lsn,
    })
}

fn check_sorted_unique(keys: &[u64], what: &str) -> Result<(), PersistError> {
    if keys.windows(2).all(|w| w[0] < w[1]) {
        Ok(())
    } else {
        Err(format_err(format!("{what} must be sorted and unique")))
    }
}

// ---------------------------------------------------------------------
// ShardedWritable save / load
// ---------------------------------------------------------------------

impl ShardedWritable {
    /// Save a snapshot of this structure to `path` (atomic: tmp +
    /// file fsync + rename + directory fsync). The snapshot captures,
    /// per shard, the trained base's keys and coefficients **plus the
    /// pending delta buffer and sealed run stack**, all under one
    /// topology read guard — a consistent point-in-time cut even while
    /// concurrent inserts keep flowing afterwards.
    ///
    /// With a WAL attached ([`ShardedWritable::enable_wal`] /
    /// [`ShardedWritable::recover`]), the save additionally runs the
    /// checkpoint protocol: the WAL mutex is held across the cut and
    /// the publish (excluding concurrent durable writers, so the
    /// stamped LSN provably covers everything in the cut), the last
    /// assigned LSN is stamped into the header, and the log is
    /// truncated once the snapshot is durably published — the write
    /// history it logged is now fully covered by the snapshot.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        let mut wal_guard = self.wal_slot().lock().unwrap_or_else(|e| e.into_inner());
        let lsn = wal_guard.as_ref().map_or(0, |w| w.last_lsn());
        self.save_snapshot(path.as_ref(), lsn)?;
        self.metrics_handle()
            .event(crate::obs::events::SNAPSHOT_SAVE, self.len() as u64, lsn);
        if let Some(wal) = wal_guard.as_mut() {
            wal.truncate_after_snapshot()?;
        }
        Ok(())
    }

    /// The cut-and-publish half of [`ShardedWritable::save`]: capture
    /// a consistent per-shard state under one topology read guard and
    /// publish it with `lsn` stamped in the header. The caller owns
    /// WAL coordination (holding the WAL mutex so no durable write can
    /// slip between the LSN capture and the cut).
    pub(crate) fn save_snapshot(&self, path: &Path, lsn: u64) -> Result<(), PersistError> {
        let (bounds, states) = self.persist_parts();
        let mut enc = Enc::default();
        encode_sw_config(&mut enc, self.config());
        enc.usize(states.len());
        for &b in &bounds {
            enc.u64(b);
        }
        let mut base_offset = 0usize;
        let mut chunks: Vec<&[u64]> = Vec::with_capacity(states.len());
        for (snap, cfg, threshold) in &states {
            let base = snap.base_index();
            let base_keys = base.key_store().as_slice();
            enc.usize(base_offset);
            enc.usize(base_keys.len());
            encode_shard_config(&mut enc, cfg.leaf_count());
            enc.usize(*threshold);
            let params = base.to_params().ok_or_else(|| {
                PersistError::Unsupported(
                    "a shard base is a cascade; the snapshot format persists ε-corridors only"
                        .into(),
                )
            })?;
            encode_corridor_params(&mut enc, &params);
            enc.keys(snap.delta_keys());
            // Sealed run stack, oldest first. Only the keys go in the
            // file: run fences are structure, rebuilt on load.
            let runs = snap.runs();
            enc.usize(runs.len());
            for run in runs {
                enc.keys(run.as_slice());
            }
            chunks.push(base_keys);
            base_offset += base_keys.len();
        }
        publish(path, lsn, &le_key_bytes(&chunks), &enc.buf)
    }

    /// Load a snapshot saved by [`ShardedWritable::save`]: map the key
    /// payload, rebuild every shard base from its saved coefficients
    /// ([`li_core::rmi::Rmi::from_params`] — no retraining), and
    /// **replay each saved delta buffer and sealed run stack** into a
    /// fresh `DeltaIndex`,
    /// so pending inserts survive the restart without having been
    /// merged or compacted. Run fences are rebuilt in O(run) —
    /// [`li_core::train_count`] stays flat across a load.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, PersistError> {
        Self::load_with_lsn(path.as_ref()).map(|(sw, _lsn)| sw)
    }

    /// [`ShardedWritable::load`] plus the snapshot LSN from the header
    /// — the recovery path needs it to know which WAL records the
    /// snapshot already covers.
    pub(crate) fn load_with_lsn(path: &Path) -> Result<(Self, u64), PersistError> {
        let file = open_verified(path)?;
        let n_keys = file.n_keys;
        let mut dec = file.manifest();
        let config = decode_sw_config(&mut dec)?;
        let shard_count = dec.count(8)?;
        if shard_count == 0 {
            return Err(format_err("snapshot declares zero shards"));
        }
        let mut bounds = Vec::with_capacity(shard_count - 1);
        for _ in 1..shard_count {
            bounds.push(dec.u64()?);
        }
        check_sorted_unique(&bounds, "ownership bounds")?;
        let mut shards = Vec::with_capacity(shard_count);
        let mut expected_offset = 0usize;
        for s in 0..shard_count {
            let base_offset = dec.usize()?;
            let base_len = dec.usize()?;
            if base_offset != expected_offset {
                return Err(format_err(format!("shard {s} base is not contiguous")));
            }
            expected_offset = base_offset
                .checked_add(base_len)
                .ok_or_else(|| format_err("base range overflows"))?;
            if expected_offset > n_keys {
                return Err(format_err(format!("shard {s} base exceeds the payload")));
            }
            let cfg = decode_shard_config(&mut dec)?;
            let threshold = dec.usize()?;
            let params = decode_corridor_params(&mut dec)?;
            let delta = dec.keys()?;
            let n_runs = dec.count(16)?;
            let runs = (0..n_runs)
                .map(|_| dec.keys())
                .collect::<Result<Vec<_>, _>>()?;
            // Order, bounds and cross-tier disjointness are proven once,
            // in one linear pass, by the index they describe.
            let store =
                KeyStore::from_mapped(&file.region, HEADER_LEN + base_offset * 8, base_len)?;
            let di =
                DeltaIndex::restore(store, &params, cfg, threshold, config.max_runs, runs, delta)
                    .map_err(|e| format_err(format!("shard {s}: {e}")))?;
            shards.push(Arc::new(WritableShard::from_delta(di)));
        }
        if expected_offset != n_keys {
            return Err(format_err("shard bases do not cover the key payload"));
        }
        dec.finish()?;
        Ok((
            ShardedWritable::from_loaded(bounds, shards, config),
            file.lsn,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use li_core::train_count;

    fn tmp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("li-serve-persist-{}-{name}", std::process::id()))
    }

    struct Cleanup(std::path::PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = fs::remove_file(&self.0);
        }
    }

    #[test]
    fn xxh64_matches_the_published_vectors() {
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
        // 39 bytes: one stripe, then an 8-, a 4- and three 1-byte steps.
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition"),
            0xFBCE_A83C_8A37_8BF1
        );
    }

    /// Lengths either side of the 32-byte stripe, so the lane loop and
    /// every tail step run. Bytes are `i * 7 + 3`; the expected values
    /// were cross-checked against LLVM's `llvm::xxHash64`.
    #[test]
    fn xxh64_covers_the_lane_loop_and_every_tail() {
        for (len, want) in [
            (31usize, 0xA2AA_5F33_CC4A_6119u64),
            (32, 0x23C3_C17E_F790_FD97),
            (33, 0x50A7_CFC7_BA58_8784),
            (63, 0x5E3E_54B4_31C7_493C),
        ] {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            assert_eq!(xxh64(&bytes), want, "len {len}");
        }
    }

    #[test]
    fn sharded_writable_round_trips_with_pending_deltas() {
        let path = tmp_path("sw-roundtrip.lidx");
        let _guard = Cleanup(path.clone());
        let sw = ShardedWritable::new(
            (0..4000u64).map(|i| i * 5).collect::<Vec<_>>(),
            4,
            ShardedWritableConfig::default(),
        );
        // Leave some inserts *pending* (default threshold 1024, so
        // these stay in the buffers) — the snapshot must carry them.
        for k in 0..100u64 {
            sw.insert(k * 5 + 1);
        }
        sw.save(&path).unwrap();

        let before = train_count();
        let loaded = ShardedWritable::load(&path).unwrap();
        assert_eq!(train_count(), before, "load must not train any model");

        assert_eq!(loaded.len(), sw.len());
        let want = sw.range_keys(0, u64::MAX);
        assert_eq!(loaded.range_keys(0, u64::MAX), want);
        for &k in want.iter().step_by(37) {
            assert!(loaded.contains(k), "k={k}");
        }
        // The loaded structure is live: writes keep working.
        assert!(loaded.insert(3));
        assert!(!loaded.insert(3));
        assert_eq!(loaded.len(), sw.len() + 1);
    }

    /// The v5 configuration keeps the retired retune max-error slot:
    /// `save` writes the disabled value there and `load` reads no other.
    #[test]
    fn the_retired_max_abs_err_slot_reads_only_the_disabled_value() {
        let cfg = ShardedWritableConfig::default();
        let mut enc = Enc::default();
        encode_sw_config(&mut enc, &cfg);
        // merge_threshold, leaf_fraction, retune.max_mean_err, then the slot.
        let slot = 24..32;
        assert_eq!(enc.buf[slot.clone()], u64::MAX.to_le_bytes());
        let mut dec = Dec::new(&enc.buf);
        let back = decode_sw_config(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(back.retune.max_rounds, cfg.retune.max_rounds);

        for patched in [0u64, 64, u64::MAX - 1] {
            let mut bytes = enc.buf.clone();
            bytes[slot.clone()].copy_from_slice(&patched.to_le_bytes());
            match decode_sw_config(&mut Dec::new(&bytes)) {
                Err(PersistError::Format(msg)) => assert!(msg.contains("max_abs_err"), "{msg}"),
                other => panic!(
                    "slot {patched} must be a Format error, got {:?}",
                    other.err()
                ),
            }
        }
    }

    #[test]
    fn corrupt_and_mismatched_files_are_rejected() {
        let path = tmp_path("corrupt.lidx");
        let _guard = Cleanup(path.clone());
        let sw = ShardedWritable::new(
            (0..512u64).map(|i| i * 2).collect::<Vec<_>>(),
            2,
            ShardedWritableConfig::default(),
        );
        sw.insert(1);
        sw.save(&path).unwrap();

        // Flip one key byte: the checksum must catch it.
        let mut bytes = fs::read(&path).unwrap();
        bytes[HEADER_LEN + 100] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            ShardedWritable::load(&path),
            Err(PersistError::Format(_))
        ));

        // Truncation.
        bytes.truncate(bytes.len() - 9);
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            ShardedWritable::load(&path),
            Err(PersistError::Format(_))
        ));

        // Not a snapshot at all.
        fs::write(&path, b"hello world, definitely not an index").unwrap();
        assert!(matches!(
            ShardedWritable::load(&path),
            Err(PersistError::Format(_))
        ));
    }
}
