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
//! * **Save** serializes coefficients ([`li_core::RmiParams`]) — never
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
//! sets the load's speed: formats v4 and v5 use XXH64 (four independent
//! 64-bit lanes, ≈ 10× the throughput of byte-serial FNV-1a), which
//! makes a load cost about one pass over the key bytes at memory
//! bandwidth. Format v5 adds the leaf layout: every RMI's parameters
//! and every write-tier shard's [`RmiConfig`] open with a layout tag,
//! and an ε-corridor base stores ε, its measured window and its
//! 16-byte segments. Format v4 files (cascades only) and v3 files
//! (identical layout to v4, FNV-1a checksums) still load, so a store
//! checkpointed before an upgrade recovers after it: its cascade bases
//! serve until their shard's next fold, which builds an ε-corridor at
//! the same leaf count. `save` always writes v5.
//!
//! The store's snapshot is the one kind this module writes and reads
//! (header `kind` 2; any other kind is a [`PersistError::Format`]).
//! Every shard persists its [`RmiConfig`] next to its base's
//! coefficients, plus its delta buffer and sealed run stack. The store
//! builds one base, so its configuration's backend tag must be 1
//! ([`crate::Backend::Rmi`]); any other byte is a
//! [`PersistError::Format`]. The cascade codec still carries hybrid
//! B-Tree leaves (offset, length and page size, rebuilt from the mapped
//! keys) for the files that hold them. A multivariate or MLP top
//! gets a [`PersistError::Unsupported`], never a silently lossy file.
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
use li_core::rmi::{
    CascadeParams, CorridorParams, LeafLayout, LeafModelParams, LeafParams, RmiConfig, RmiParams,
    Segment, TopModel,
};
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

/// Format version written by this module. v2 added the
/// sharded-writable tiering fields (`max_runs` + per-shard sealed run
/// stacks); v3 added the snapshot LSN and a header checksum (bytes
/// 48..64) for WAL-coordinated recovery; v4 changed the three
/// checksums from FNV-1a to XXH64 and nothing else; v5 added the leaf
/// layout to RMI parameters and configurations. Versions before [`V3`]
/// are refused with [`PersistError::Unsupported`] rather than loaded
/// with silently dropped tiers or a silently ignored WAL tail.
const VERSION: u32 = 5;

/// The oldest version still read: v4's layout with FNV-1a checksums.
/// Never written.
const V3: u32 = 3;

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

/// FNV-1a (64-bit): the v3 snapshot checksum. The WAL's record
/// checksum is the same function and stays so — a log written before
/// v4 must still scan.
use crate::wal::fnv1a;

/// The checksum of a snapshot region in format `version` — the one
/// place the choice is made. Both are integrity checks against
/// truncation and bit-rot, not MACs.
fn checksum(version: u32, bytes: &[u8]) -> u64 {
    match version {
        V3 => fnv1a(bytes),
        _ => xxh64(bytes),
    }
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

/// XXH64 with seed 0. Four accumulators consume independent 8-byte
/// lanes of each 32-byte stripe, so the multiplies overlap instead of
/// forming FNV-1a's one dependent chain per byte.
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
    fn i64(&mut self, v: i64) {
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
    /// The file's format version: what a pre-v5 manifest leaves out.
    version: u32,
}

impl<'a> Dec<'a> {
    fn new(bytes: &'a [u8], version: u32) -> Self {
        Self { bytes, version }
    }
    /// Whether the manifest carries leaf-layout tags (v5 on).
    fn has_layouts(&self) -> bool {
        self.version >= VERSION
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
    fn i64(&mut self) -> Result<i64, PersistError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
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

/// Leaf-layout tags (v5): [`LeafLayout::Cascade`] and
/// [`LeafLayout::Corridor`], for RMI parameters and configurations.
const LAYOUT_CASCADE: u8 = 0;
const LAYOUT_CORRIDOR: u8 = 1;

fn encode_rmi_params(enc: &mut Enc, p: &RmiParams) {
    match p {
        RmiParams::Cascade(p) => {
            enc.u8(LAYOUT_CASCADE);
            encode_cascade_params(enc, p);
        }
        RmiParams::Corridor(p) => {
            enc.u8(LAYOUT_CORRIDOR);
            encode_corridor_params(enc, p);
        }
    }
}

fn decode_rmi_params(dec: &mut Dec<'_>) -> Result<RmiParams, PersistError> {
    let layout = if dec.has_layouts() {
        dec.u8()?
    } else {
        LAYOUT_CASCADE
    };
    match layout {
        LAYOUT_CASCADE => decode_cascade_params(dec).map(RmiParams::Cascade),
        LAYOUT_CORRIDOR => decode_corridor_params(dec).map(RmiParams::Corridor),
        t => Err(format_err(format!("unknown leaf layout tag {t}"))),
    }
}

/// An ε-corridor: its window, search and ε, then the segment count and
/// the segments as `first · start · slope` (16 bytes each).
fn encode_corridor_params(enc: &mut Enc, p: &CorridorParams) {
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

fn encode_cascade_params(enc: &mut Enc, p: &CascadeParams) {
    enc.f64(p.top.0);
    enc.f64(p.top.1);
    enc.usize(p.mids.len());
    for stage in &p.mids {
        enc.usize(stage.len());
        for &(slope, intercept) in stage {
            enc.f64(slope);
            enc.f64(intercept);
        }
    }
    enc.usize(p.leaves.len());
    for leaf in &p.leaves {
        match leaf.model {
            LeafModelParams::Linear { slope, intercept } => {
                enc.u8(0);
                enc.f64(slope);
                enc.f64(intercept);
            }
            LeafModelParams::BTree {
                offset,
                len,
                page_size,
            } => {
                enc.u8(1);
                enc.u64(offset);
                enc.u64(len);
                enc.u64(page_size);
            }
        }
        enc.i64(leaf.min_err);
        enc.i64(leaf.max_err);
        enc.f64(leaf.std_err);
        enc.u64(leaf.n_keys);
    }
    enc.u8(p.search.to_tag());
}

fn decode_cascade_params(dec: &mut Dec<'_>) -> Result<CascadeParams, PersistError> {
    let top = (dec.f64()?, dec.f64()?);
    let n_mids = dec.count(8)?;
    let mut mids = Vec::with_capacity(n_mids);
    for _ in 0..n_mids {
        let n = dec.count(16)?;
        let mut stage = Vec::with_capacity(n);
        for _ in 0..n {
            stage.push((dec.f64()?, dec.f64()?));
        }
        mids.push(stage);
    }
    let n_leaves = dec.count(1 + 16 + 8 + 8 + 8 + 8)?;
    let mut leaves = Vec::with_capacity(n_leaves);
    for _ in 0..n_leaves {
        let model = match dec.u8()? {
            0 => LeafModelParams::Linear {
                slope: dec.f64()?,
                intercept: dec.f64()?,
            },
            1 => LeafModelParams::BTree {
                offset: dec.u64()?,
                len: dec.u64()?,
                page_size: dec.u64()?,
            },
            t => return Err(format_err(format!("unknown leaf model tag {t}"))),
        };
        leaves.push(LeafParams {
            model,
            min_err: dec.i64()?,
            max_err: dec.i64()?,
            std_err: dec.f64()?,
            n_keys: dec.u64()?,
        });
    }
    let search = decode_search(dec)?;
    Ok(CascadeParams {
        top,
        mids,
        leaves,
        search,
    })
}

fn decode_search(dec: &mut Dec<'_>) -> Result<SearchStrategy, PersistError> {
    let tag = dec.u8()?;
    SearchStrategy::from_tag(tag).ok_or_else(|| format_err(format!("unknown search tag {tag}")))
}

fn encode_rmi_config(enc: &mut Enc, cfg: &RmiConfig) -> Result<(), PersistError> {
    match cfg.top {
        TopModel::Linear => enc.u8(0),
        _ => {
            return Err(PersistError::Unsupported(
                "the snapshot format persists linear-top RMI configurations only".into(),
            ))
        }
    }
    enc.usize(cfg.stages.len());
    for &s in &cfg.stages {
        enc.usize(s);
    }
    enc.u8(cfg.search.to_tag());
    match cfg.hybrid_threshold {
        Some(t) => {
            enc.u8(1);
            enc.u32(t);
        }
        None => {
            enc.u8(0);
            enc.u32(0);
        }
    }
    enc.usize(cfg.hybrid_page_size);
    enc.u8(match cfg.layout {
        LeafLayout::Cascade => LAYOUT_CASCADE,
        LeafLayout::Corridor => LAYOUT_CORRIDOR,
    });
    Ok(())
}

fn decode_rmi_config(dec: &mut Dec<'_>) -> Result<RmiConfig, PersistError> {
    let top = match dec.u8()? {
        0 => TopModel::Linear,
        t => return Err(format_err(format!("unknown top model tag {t}"))),
    };
    let n_stages = dec.count(8)?;
    let mut stages = Vec::with_capacity(n_stages);
    for _ in 0..n_stages {
        stages.push(dec.usize()?);
    }
    let search = decode_search(dec)?;
    let has_hybrid = dec.u8()?;
    let threshold = dec.u32()?;
    let hybrid_threshold = match has_hybrid {
        0 => None,
        1 => Some(threshold),
        t => return Err(format_err(format!("bad hybrid flag {t}"))),
    };
    let hybrid_page_size = dec.usize()?;
    let layout = if dec.has_layouts() {
        match dec.u8()? {
            LAYOUT_CASCADE => LeafLayout::Cascade,
            LAYOUT_CORRIDOR => LeafLayout::Corridor,
            t => return Err(format_err(format!("bad leaf layout {t}"))),
        }
    } else {
        LeafLayout::Cascade
    };
    if stages.is_empty() || stages.contains(&0) {
        return Err(format_err("rmi config stages must be non-empty and > 0"));
    }
    if hybrid_page_size < 2 {
        return Err(format_err("hybrid_page_size must be >= 2"));
    }
    Ok(RmiConfig {
        top,
        stages,
        layout,
        search,
        hybrid_threshold,
        hybrid_page_size,
    })
}

/// The store configuration's retired retune max-error slot: v5 keeps
/// its 8 bytes, written as the value that disabled the trigger, and
/// reads no other.
const RETIRED_MAX_ABS_ERR: u64 = u64::MAX;

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
    match cfg.rebalance.max_mean_err {
        Some(v) => {
            enc.u8(1);
            enc.f64(v);
        }
        None => {
            enc.u8(0);
            enc.f64(0.0);
        }
    }
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
    let has_mme = dec.u8()?;
    let mme = dec.f64()?;
    let max_mean_err = match has_mme {
        0 => None,
        1 => Some(mme),
        t => return Err(format_err(format!("bad max_mean_err flag {t}"))),
    };
    let max_shards = dec.usize()?;
    // A file saved when `max_runs = 0` meant "merge every full buffer
    // into the base with a retrain" loads with a one-run stack, which
    // folds every full buffer with one retrain: the same policy.
    let max_runs = dec.usize()?.max(1);
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
            max_mean_err,
            max_shards,
        },
    };
    // Mirror `ShardedWritableConfig::validate` as *errors*: a corrupt
    // file must be rejected, not allowed to panic deep in a
    // constructor.
    if cfg.merge_threshold == 0
        || !(cfg.leaf_fraction > 0.0 && cfg.leaf_fraction.is_finite())
        || !(cfg.retune.max_mean_err >= 0.0 && cfg.retune.max_mean_err.is_finite())
        || cfg.rebalance.max_shard_len < 2
        || cfg.rebalance.merge_max_len >= cfg.rebalance.max_shard_len
        || cfg.rebalance.max_shards < 1
        || cfg
            .rebalance
            .max_mean_err
            .is_some_and(|t| !(t >= 0.0 && t.is_finite()))
    {
        return Err(format_err("invalid sharded-writable configuration"));
    }
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
    header[32..40].copy_from_slice(&checksum(VERSION, key_bytes).to_le_bytes());
    header[40..48].copy_from_slice(&checksum(VERSION, manifest).to_le_bytes());
    header[48..56].copy_from_slice(&lsn.to_le_bytes());
    let header_sum = checksum(VERSION, &header[0..56]);
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
    version: u32,
}

impl Verified {
    /// A decoder over the manifest.
    fn manifest(&self) -> Dec<'_> {
        Dec::new(&self.region.bytes()[self.manifest.clone()], self.version)
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
    if !(V3..=VERSION).contains(&version) {
        return Err(PersistError::Unsupported(format!(
            "snapshot format version {version} (this build reads {V3} to {VERSION})"
        )));
    }
    let header_sum = u64::from_le_bytes(bytes[56..64].try_into().unwrap());
    if checksum(version, &bytes[0..56]) != header_sum {
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
    if checksum(version, &bytes[HEADER_LEN..keys_end]) != keys_sum {
        return Err(format_err("key payload checksum mismatch"));
    }
    if checksum(version, &bytes[keys_end..total]) != manifest_sum {
        return Err(format_err("manifest checksum mismatch"));
    }
    Ok(Verified {
        region,
        n_keys,
        manifest: keys_end..total,
        lsn: snapshot_lsn,
        version,
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
            encode_rmi_config(&mut enc, cfg)?;
            enc.usize(*threshold);
            encode_rmi_params(
                &mut enc,
                &base.to_params().ok_or_else(|| {
                    PersistError::Unsupported(
                    "a shard base uses a multivariate/MLP top; the snapshot format persists linear tops only"
                        .into(),
                )
                })?,
            );
            enc.keys(snap.delta_keys());
            // Sealed run stack, oldest first. Only the keys go in the
            // file: run fences are rebuilt on load exactly like hybrid
            // B-Tree leaf structure.
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
            let mut cfg = decode_rmi_config(&mut dec)?;
            if !dec.has_layouts() {
                // Before v5 a store shard was a cascade. Its base serves
                // until the shard's next fold, which builds the
                // ε-corridor every shard has now, at the same leaf count.
                cfg = RmiConfig::corridor(cfg.leaf_count());
            }
            let threshold = dec.usize()?;
            let params = decode_rmi_params(&mut dec)?;
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
        let mut dec = Dec::new(&enc.buf, VERSION);
        let back = decode_sw_config(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(back.retune.max_rounds, cfg.retune.max_rounds);

        for patched in [0u64, 64, u64::MAX - 1] {
            let mut bytes = enc.buf.clone();
            bytes[slot.clone()].copy_from_slice(&patched.to_le_bytes());
            match decode_sw_config(&mut Dec::new(&bytes, VERSION)) {
                Err(PersistError::Format(msg)) => assert!(msg.contains("max_abs_err"), "{msg}"),
                other => panic!(
                    "slot {patched} must be a Format error, got {:?}",
                    other.err()
                ),
            }
        }
    }

    /// The cascade codec's B-Tree-leaf arm: an all-B-Tree-leaf hybrid
    /// cascade's parameters come back equal through the v5 codec (and
    /// through the untagged pre-v5 one), and the index rebuilt from
    /// them finds every key without training.
    #[test]
    fn hybrid_cascade_params_round_trip_through_the_codec() {
        use li_core::rmi::Rmi;

        let keys = KeyStore::new(li_data::Gauntlet::Stepped.generate(20_000, 7));
        let cfg = RmiConfig::two_stage(TopModel::Linear, 40).with_hybrid(0);
        let params = Rmi::build(keys.clone(), &cfg).to_params().unwrap();
        let RmiParams::Cascade(cascade) = &params else {
            panic!("a hybrid is a cascade");
        };
        assert!(cascade
            .leaves
            .iter()
            .all(|l| matches!(l.model, LeafModelParams::BTree { .. })));

        let mut enc = Enc::default();
        encode_rmi_params(&mut enc, &params);
        let mut dec = Dec::new(&enc.buf, VERSION);
        let back = decode_rmi_params(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(back, params);

        let mut pre_v5 = Enc::default();
        encode_cascade_params(&mut pre_v5, cascade);
        let mut dec = Dec::new(&pre_v5.buf, V3);
        assert_eq!(decode_rmi_params(&mut dec).unwrap(), params);
        dec.finish().unwrap();

        let before = train_count();
        let rebuilt = Rmi::from_params(keys.clone(), &back).unwrap();
        assert_eq!(train_count(), before, "from_params must not train");
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(rebuilt.lower_bound(k), i, "k={k}");
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
