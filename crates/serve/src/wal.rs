//! Write-ahead logging for the sharded write path: the durability half
//! that snapshots alone cannot provide.
//!
//! [`crate::persist`] makes restarts warm — but every write
//! acknowledged *since* the last snapshot used to die with the
//! process. A [`Wal`] closes that gap with the classic discipline:
//! append a checksummed record **before** the write touches the
//! in-memory tiers, group-commit `fsync` per a [`WalSyncPolicy`], and
//! truncate the log whenever a snapshot publishes (the snapshot's
//! header carries the last LSN it covers, so recovery knows exactly
//! which log suffix is still live).
//!
//! # Record format
//!
//! Every record is length-prefixed and individually checksummed:
//!
//! ```text
//!  ┌──────────┬──────────────────────────────┬──────────────┐
//!  │ len: u32 │ payload (len bytes)          │ fnv1a: u64   │
//!  └──────────┴──────────────────────────────┴──────────────┘
//!              payload = lsn: u64 · kind: u8 · body
//!              kind 1 (insert):       body = key: u64
//!              kind 2 (insert_batch): body = count: u32 · count × u64
//! ```
//!
//! All integers are little-endian; the checksum covers the payload
//! (everything between the length prefix and the checksum itself). A
//! crash mid-append leaves a *torn tail*: either too few bytes for the
//! declared length, or a checksum that no longer matches. [`scan`]
//! stops at the first invalid record and reports the byte offset of
//! the last valid one, so recovery can truncate the tail and end up
//! with **exactly the prefix of appended records** — never a gap,
//! never a partial record, never a panic on garbage bytes.
//!
//! # Durability semantics
//!
//! A record is *durable* once it has been `fsync`ed — under
//! [`WalSyncPolicy::PerRecord`] that is every append; under the
//! group-commit policies ([`WalSyncPolicy::EveryN`],
//! [`WalSyncPolicy::EveryInterval`]) appends between sync points are
//! buffered in the OS page cache and a crash may lose the *unsynced
//! suffix* (and only that suffix — the synced prefix always survives).
//! [`Wal::sync`] forces a sync point; callers that need a hard
//! durability guarantee for a specific write call it (or use
//! `PerRecord`).
//!
//! # Error latching
//!
//! A failed append (or sync) latches the error: the [`Wal`] refuses
//! every subsequent append with [`WalError::Failed`] so a partial
//! record can never be followed by valid ones (which recovery's
//! stop-at-first-invalid scan would otherwise silently drop). The
//! latch clears when the log is truncated at a snapshot publish —
//! the snapshot has durably captured everything the log was for.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::obs::{events, ServeMetrics};

/// Record kind: a single [`crate::ShardedWritable::insert`].
const KIND_INSERT: u8 = 1;
/// Record kind: an [`crate::ShardedWritable::insert_batch`].
const KIND_BATCH: u8 = 2;

/// Smallest possible payload: lsn (8) + kind (1).
const MIN_PAYLOAD: usize = 9;
/// Refuse batch records whose declared length is absurd — a corrupt
/// length prefix must not drive a huge allocation before the checksum
/// gets a chance to reject it.
const MAX_PAYLOAD: usize = 64 << 20;

/// FNV-1a (64-bit): tiny, dependency-free, catches truncation and
/// bit-rot. The record checksum stays FNV-1a although snapshots moved
/// to XXH64 in format v4: a log written by an earlier build must still
/// scan, or an upgrade would drop its acknowledged tail.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// When the WAL `fsync`s — the group-commit knob. Looser policies
/// amortize the sync over more records; a crash loses at most the
/// records appended since the last sync point (the *unsynced suffix*).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WalSyncPolicy {
    /// `fsync` after every record: nothing acknowledged is ever lost,
    /// at one sync per write.
    PerRecord,
    /// `fsync` once per `n` appended records (classic group commit).
    /// `EveryN(1)` is equivalent to [`WalSyncPolicy::PerRecord`].
    EveryN(usize),
    /// `fsync` on the first append after this much time has passed
    /// since the previous sync point.
    EveryInterval(Duration),
}

impl Default for WalSyncPolicy {
    /// Group commit every 64 records.
    fn default() -> Self {
        WalSyncPolicy::EveryN(64)
    }
}

/// Why a WAL append or sync failed.
#[derive(Debug)]
pub enum WalError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// A previous append or sync failed; the log refuses further
    /// appends until it is truncated at a snapshot publish (see the
    /// module docs on error latching).
    Failed(String),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal: io error: {e}"),
            WalError::Failed(m) => write!(f, "wal: log failed earlier: {m}"),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            WalError::Failed(_) => None,
        }
    }
}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// One decoded log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Log sequence number — strictly increasing across the log.
    pub lsn: u64,
    /// The logged operation.
    pub op: WalOp,
}

/// The operation a [`WalRecord`] carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// A scalar insert of one key.
    Insert(u64),
    /// A batched insert (the batch is one atomic record: either the
    /// whole batch is in the durable prefix or none of it is).
    InsertBatch(Vec<u64>),
}

/// What a [`scan`] found in a log file.
#[derive(Debug)]
pub struct WalScan {
    /// Every valid record, in append order.
    pub records: Vec<WalRecord>,
    /// Byte offset one past the last valid record — the length the
    /// file should be truncated to if `valid_len < file_len`.
    pub valid_len: u64,
    /// Actual file length (≥ `valid_len`; the difference is the torn
    /// or corrupt tail).
    pub file_len: u64,
    /// Highest LSN among the valid records (0 when the log is empty).
    pub last_lsn: u64,
}

impl WalScan {
    /// Bytes of torn / corrupt tail the scan stopped at.
    pub fn torn_bytes(&self) -> u64 {
        self.file_len - self.valid_len
    }
}

/// Scan a log file: decode records until the first torn or
/// checksum-failing one, and report where the valid prefix ends. A
/// missing file scans as an empty log. Never panics on garbage —
/// every read is bounds-checked and every record checksummed.
pub fn scan(path: impl AsRef<Path>) -> Result<WalScan, WalError> {
    let mut bytes = Vec::new();
    match File::open(path.as_ref()) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(e.into()),
    }
    let file_len = bytes.len() as u64;
    let mut records = Vec::new();
    let mut at = 0usize;
    let mut last_lsn = 0u64;
    while let Some((record, next)) = decode_at(&bytes, at) {
        // LSNs must be strictly increasing; a stale or duplicated
        // record (e.g. from a misdirected write) ends the valid prefix
        // exactly like a checksum failure would.
        if record.lsn <= last_lsn {
            break;
        }
        last_lsn = record.lsn;
        records.push(record);
        at = next;
    }
    Ok(WalScan {
        records,
        valid_len: at as u64,
        file_len,
        last_lsn,
    })
}

/// Decode the record starting at `at`, returning it and the offset of
/// the next record — or `None` when the bytes there are torn, corrupt,
/// or simply absent (end of log).
fn decode_at(bytes: &[u8], at: usize) -> Option<(WalRecord, usize)> {
    let rest = bytes.get(at..)?;
    if rest.len() < 4 {
        return None; // torn length prefix (or clean end of log)
    }
    let len = u32::from_le_bytes(rest[0..4].try_into().ok()?) as usize;
    if !(MIN_PAYLOAD..=MAX_PAYLOAD).contains(&len) || rest.len() < 4 + len + 8 {
        return None; // absurd length or torn payload/checksum
    }
    let payload = &rest[4..4 + len];
    let sum = u64::from_le_bytes(rest[4 + len..4 + len + 8].try_into().ok()?);
    if fnv1a(payload) != sum {
        return None; // bit-rot or a torn overwrite
    }
    let lsn = u64::from_le_bytes(payload[0..8].try_into().ok()?);
    let op = match payload[8] {
        KIND_INSERT => {
            if payload.len() != MIN_PAYLOAD + 8 {
                return None;
            }
            WalOp::Insert(u64::from_le_bytes(payload[9..17].try_into().ok()?))
        }
        KIND_BATCH => {
            if payload.len() < MIN_PAYLOAD + 4 {
                return None;
            }
            let count = u32::from_le_bytes(payload[9..13].try_into().ok()?) as usize;
            let body = &payload[13..];
            if body.len() != count * 8 {
                return None;
            }
            WalOp::InsertBatch(
                body.chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact(8)")))
                    .collect(),
            )
        }
        _ => return None, // unknown kind: treat as corruption
    };
    Some((WalRecord { lsn, op }, at + 4 + len + 8))
}

fn encode(lsn: u64, op_kind: u8, body: &dyn Fn(&mut Vec<u8>)) -> Vec<u8> {
    let mut payload = Vec::with_capacity(MIN_PAYLOAD + 16);
    payload.extend_from_slice(&lsn.to_le_bytes());
    payload.push(op_kind);
    body(&mut payload);
    let mut out = Vec::with_capacity(4 + payload.len() + 8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    out
}

/// `fsync` the directory containing `path`, so a just-created,
/// just-renamed or just-truncated entry survives a power cut. On
/// non-unix targets directory handles cannot be opened; the rename
/// itself is the best available barrier there.
pub(crate) fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        File::open(parent)?.sync_all()?;
    }
    #[cfg(not(unix))]
    {
        let _ = path;
    }
    Ok(())
}

/// An append-only write-ahead log. One lives inside each durable
/// [`crate::ShardedWritable`] (behind its WAL mutex); it can also be
/// driven directly, as the crash-injection suite does.
///
/// # Examples
/// ```
/// use li_serve::wal::{scan, Wal, WalOp, WalSyncPolicy};
///
/// let path = std::env::temp_dir().join(format!("wal-doc-{}", std::process::id()));
/// let mut wal = Wal::create(&path, WalSyncPolicy::PerRecord).unwrap();
/// wal.append_insert(7).unwrap();
/// wal.append_batch(&[8, 9]).unwrap();
/// drop(wal);
///
/// let found = scan(&path).unwrap();
/// assert_eq!(found.records.len(), 2);
/// assert_eq!(found.records[1].op, WalOp::InsertBatch(vec![8, 9]));
/// assert_eq!(found.torn_bytes(), 0);
/// # std::fs::remove_file(&path).unwrap();
/// ```
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    policy: WalSyncPolicy,
    /// Next LSN to assign (strictly increasing, never reused — even
    /// across truncations, so a snapshot LSN always partitions the
    /// history into covered/uncovered).
    next_lsn: u64,
    /// Bytes appended so far (the file length, absent torn tails).
    len: u64,
    /// Records appended since the last sync point.
    unsynced: usize,
    last_sync: Instant,
    /// Syncs issued (diagnostics; [`Wal::sync_count`]).
    syncs: u64,
    /// Latched failure: once an append or sync fails, every later
    /// append refuses until the log is truncated (see module docs).
    failed: Option<String>,
    /// The owning structure's observability bundle ([`Wal::set_obs`]);
    /// standalone logs (crash-injection suite, doctests) record
    /// nothing.
    obs: Option<Arc<ServeMetrics>>,
}

impl Wal {
    /// Create a fresh, empty log at `path`, truncating anything that
    /// was there, and `fsync` the parent directory so the file's
    /// existence is itself durable.
    pub fn create(path: impl AsRef<Path>, policy: WalSyncPolicy) -> Result<Self, WalError> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)?;
        file.sync_all()?;
        sync_parent_dir(&path)?;
        Ok(Self {
            file,
            path,
            policy,
            next_lsn: 1,
            len: 0,
            unsynced: 0,
            last_sync: Instant::now(),
            syncs: 0,
            failed: None,
            obs: None,
        })
    }

    /// Open an existing log for appending after recovery: the caller
    /// (normally [`crate::ShardedWritable::recover`]) has already
    /// scanned it and knows the highest valid LSN; any torn tail is
    /// truncated here. New records continue from
    /// `max(scan.last_lsn, lsn_floor) + 1` — the floor matters when
    /// the log was truncated at a snapshot publish (the scan then sees
    /// an empty log, but LSNs must stay above the snapshot's
    /// watermark, or the *next* recovery would skip fresh records as
    /// already covered).
    pub fn open_after_recovery(
        path: impl AsRef<Path>,
        policy: WalSyncPolicy,
        scan: &WalScan,
        lsn_floor: u64,
    ) -> Result<Self, WalError> {
        let path = path.as_ref().to_path_buf();
        // `truncate(false)`: the valid prefix must survive; only the
        // torn tail (if any) is cut below via `set_len`.
        let file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(&path)?;
        if scan.valid_len < scan.file_len {
            file.set_len(scan.valid_len)?;
            file.sync_all()?;
        }
        let mut wal = Self {
            file,
            path,
            policy,
            next_lsn: scan.last_lsn.max(lsn_floor) + 1,
            len: scan.valid_len,
            unsynced: 0,
            last_sync: Instant::now(),
            syncs: 0,
            failed: None,
            obs: None,
        };
        // Appends go after the valid prefix, not wherever the cursor
        // happened to land.
        wal.file
            .seek_write_position(scan.valid_len)
            .map_err(WalError::Io)?;
        Ok(wal)
    }

    /// Append a scalar-insert record, returning its LSN. Durable at
    /// the next sync point per the policy (immediately, under
    /// [`WalSyncPolicy::PerRecord`]).
    pub fn append_insert(&mut self, key: u64) -> Result<u64, WalError> {
        self.append(KIND_INSERT, &|buf: &mut Vec<u8>| {
            buf.extend_from_slice(&key.to_le_bytes())
        })
    }

    /// Append a batch-insert record (one atomic record for the whole
    /// batch), returning its LSN.
    pub fn append_batch(&mut self, keys: &[u64]) -> Result<u64, WalError> {
        self.append(KIND_BATCH, &|buf: &mut Vec<u8>| {
            buf.extend_from_slice(&(keys.len() as u32).to_le_bytes());
            for &k in keys {
                buf.extend_from_slice(&k.to_le_bytes());
            }
        })
    }

    fn append(&mut self, kind: u8, body: &dyn Fn(&mut Vec<u8>)) -> Result<u64, WalError> {
        if let Some(why) = &self.failed {
            return Err(WalError::Failed(why.clone()));
        }
        // Timed only with a bundle attached: the append is an encode +
        // buffered write (the fsync is accounted separately in sync()),
        // so the clock-read pair is a modest fixed overhead against it.
        let t = self.obs.as_ref().map(|_| Instant::now());
        let lsn = self.next_lsn;
        let bytes = encode(lsn, kind, body);
        if let Err(e) = self.file.write_all(&bytes) {
            // The file may now hold a partial record; latch so nothing
            // valid can ever be appended after it.
            self.failed = Some(e.to_string());
            self.note_latch();
            return Err(e.into());
        }
        self.next_lsn += 1;
        self.len += bytes.len() as u64;
        self.unsynced += 1;
        if let (Some(obs), Some(t)) = (&self.obs, t) {
            obs.wal_appends.incr();
            obs.wal_append_ns.record_since(t);
        }
        let due = match self.policy {
            WalSyncPolicy::PerRecord => true,
            WalSyncPolicy::EveryN(n) => self.unsynced >= n.max(1),
            WalSyncPolicy::EveryInterval(d) => self.last_sync.elapsed() >= d,
        };
        if due {
            self.sync()?;
        }
        Ok(lsn)
    }

    /// Force a sync point now: everything appended so far becomes
    /// durable. A no-op when nothing is unsynced.
    pub fn sync(&mut self) -> Result<(), WalError> {
        if let Some(why) = &self.failed {
            return Err(WalError::Failed(why.clone()));
        }
        if self.unsynced == 0 {
            return Ok(());
        }
        let t = self.obs.as_ref().map(|_| Instant::now());
        if let Err(e) = self.file.sync_data() {
            self.failed = Some(e.to_string());
            self.note_latch();
            return Err(e.into());
        }
        self.unsynced = 0;
        self.last_sync = Instant::now();
        self.syncs += 1;
        if let (Some(obs), Some(t)) = (&self.obs, t) {
            obs.wal_syncs.incr();
            obs.wal_sync_ns.record_since(t);
        }
        Ok(())
    }

    /// Truncate the log to empty — called when a snapshot publish has
    /// durably captured everything logged so far. LSNs keep counting
    /// from where they were (they index the *history*, not the file),
    /// and a latched failure clears: whatever append the failure
    /// interrupted is now covered by the snapshot.
    pub fn truncate_after_snapshot(&mut self) -> Result<(), WalError> {
        let discarded = self.len;
        self.file.set_len(0)?;
        self.file.seek_write_position(0)?;
        self.file.sync_data()?;
        self.len = 0;
        self.unsynced = 0;
        self.last_sync = Instant::now();
        self.failed = None;
        if let Some(obs) = &self.obs {
            obs.wal_truncates.incr();
            obs.event(events::WAL_TRUNCATE, self.last_lsn(), discarded);
        }
        Ok(())
    }

    /// Highest LSN assigned so far (0 when nothing was ever appended).
    pub fn last_lsn(&self) -> u64 {
        self.next_lsn - 1
    }

    /// Bytes appended (the valid file length).
    pub fn position(&self) -> u64 {
        self.len
    }

    /// Sync points issued so far.
    pub fn sync_count(&self) -> u64 {
        self.syncs
    }

    /// The latched failure, if an append or sync has failed since the
    /// last truncation.
    pub fn failure(&self) -> Option<&str> {
        self.failed.as_deref()
    }

    /// The log's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The sync policy in force.
    pub fn policy(&self) -> WalSyncPolicy {
        self.policy
    }

    /// Attach the owning structure's observability bundle: appends,
    /// syncs and truncations report into its registry from here on.
    pub(crate) fn set_obs(&mut self, obs: Arc<ServeMetrics>) {
        self.obs = Some(obs);
    }

    /// Trace a latch transition. The latch itself (`failure()`) is the
    /// state of record — the ring event is for the post-mortem tail.
    fn note_latch(&self) {
        if let Some(obs) = &self.obs {
            obs.event(events::WAL_LATCH, self.next_lsn, 0);
        }
    }
}

/// `File::seek` without importing `Seek` into every caller — and the
/// one place that documents *why* we seek: append-only positioning
/// after recovery truncation.
trait SeekWrite {
    fn seek_write_position(&mut self, pos: u64) -> std::io::Result<()>;
}

impl SeekWrite for File {
    fn seek_write_position(&mut self, pos: u64) -> std::io::Result<()> {
        use std::io::{Seek, SeekFrom};
        self.seek(SeekFrom::Start(pos))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("li-serve-wal-{}-{name}", std::process::id()))
    }

    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn appends_scan_back_in_order_with_increasing_lsns() {
        let path = tmp("roundtrip");
        let _g = Cleanup(path.clone());
        let mut wal = Wal::create(&path, WalSyncPolicy::EveryN(2)).unwrap();
        assert_eq!(wal.append_insert(10).unwrap(), 1);
        assert_eq!(wal.append_batch(&[20, 30, 40]).unwrap(), 2);
        assert_eq!(wal.append_insert(50).unwrap(), 3);
        wal.sync().unwrap();
        assert_eq!(wal.last_lsn(), 3);

        let found = scan(&path).unwrap();
        assert_eq!(found.torn_bytes(), 0);
        assert_eq!(found.last_lsn, 3);
        assert_eq!(
            found.records,
            vec![
                WalRecord {
                    lsn: 1,
                    op: WalOp::Insert(10)
                },
                WalRecord {
                    lsn: 2,
                    op: WalOp::InsertBatch(vec![20, 30, 40])
                },
                WalRecord {
                    lsn: 3,
                    op: WalOp::Insert(50)
                },
            ]
        );
    }

    #[test]
    fn missing_file_scans_as_empty() {
        let found = scan(tmp("never-created")).unwrap();
        assert!(found.records.is_empty());
        assert_eq!(found.valid_len, 0);
        assert_eq!(found.last_lsn, 0);
    }

    #[test]
    fn torn_tail_is_detected_at_every_cut_point() {
        let path = tmp("torn");
        let _g = Cleanup(path.clone());
        let mut wal = Wal::create(&path, WalSyncPolicy::PerRecord).unwrap();
        let mut boundaries = vec![0u64];
        for i in 0..5u64 {
            wal.append_insert(i * 7).unwrap();
            boundaries.push(wal.position());
        }
        drop(wal);
        let full = std::fs::read(&path).unwrap();

        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let found = scan(&path).unwrap();
            // Valid records = boundaries at or before the cut.
            let want = boundaries.iter().filter(|&&b| b <= cut as u64).count() - 1;
            assert_eq!(found.records.len(), want, "cut at {cut}");
            assert_eq!(found.valid_len, boundaries[want], "cut at {cut}");
            assert_eq!(found.file_len, cut as u64);
        }
    }

    #[test]
    fn corrupt_byte_ends_the_valid_prefix_there() {
        let path = tmp("flip");
        let _g = Cleanup(path.clone());
        let mut wal = Wal::create(&path, WalSyncPolicy::PerRecord).unwrap();
        let mut boundaries = vec![0u64];
        for i in 0..4u64 {
            wal.append_insert(i + 100).unwrap();
            boundaries.push(wal.position());
        }
        drop(wal);
        let full = std::fs::read(&path).unwrap();

        for pos in 0..full.len() {
            let mut bytes = full.clone();
            bytes[pos] ^= 0x10;
            std::fs::write(&path, &bytes).unwrap();
            let found = scan(&path).unwrap();
            // The flipped byte lives in record r: every record before r
            // must survive, r and everything after must be dropped.
            let r = boundaries.iter().filter(|&&b| b <= pos as u64).count() - 1;
            assert_eq!(found.records.len(), r, "flip at {pos}");
            assert_eq!(found.valid_len, boundaries[r], "flip at {pos}");
            for (i, rec) in found.records.iter().enumerate() {
                assert_eq!(rec.op, WalOp::Insert(i as u64 + 100));
            }
        }
    }

    #[test]
    fn recovery_open_truncates_the_tail_and_continues_lsns() {
        let path = tmp("reopen");
        let _g = Cleanup(path.clone());
        let mut wal = Wal::create(&path, WalSyncPolicy::PerRecord).unwrap();
        for i in 0..3u64 {
            wal.append_insert(i).unwrap();
        }
        drop(wal);
        // Tear the tail mid-record.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 3);
        std::fs::write(&path, &bytes).unwrap();

        let found = scan(&path).unwrap();
        assert_eq!(found.records.len(), 2);
        assert!(found.torn_bytes() > 0);
        let mut wal = Wal::open_after_recovery(&path, WalSyncPolicy::PerRecord, &found, 0).unwrap();
        assert_eq!(wal.last_lsn(), 2);
        assert_eq!(wal.append_insert(99).unwrap(), 3, "LSNs continue");
        drop(wal);

        let found = scan(&path).unwrap();
        assert_eq!(found.torn_bytes(), 0, "tail was truncated on reopen");
        assert_eq!(found.records.len(), 3);
        assert_eq!(found.records[2].op, WalOp::Insert(99));
    }

    #[test]
    fn truncate_after_snapshot_empties_but_keeps_counting() {
        let path = tmp("truncate");
        let _g = Cleanup(path.clone());
        let mut wal = Wal::create(&path, WalSyncPolicy::PerRecord).unwrap();
        wal.append_insert(1).unwrap();
        wal.append_insert(2).unwrap();
        wal.truncate_after_snapshot().unwrap();
        assert_eq!(wal.position(), 0);
        assert_eq!(wal.last_lsn(), 2, "history survives truncation");
        wal.append_insert(3).unwrap();
        drop(wal);
        let found = scan(&path).unwrap();
        assert_eq!(found.records.len(), 1);
        assert_eq!(found.records[0].lsn, 3);
    }

    #[test]
    fn every_n_policy_syncs_once_per_group() {
        let path = tmp("groups");
        let _g = Cleanup(path.clone());
        let mut wal = Wal::create(&path, WalSyncPolicy::EveryN(4)).unwrap();
        for i in 0..8u64 {
            wal.append_insert(i).unwrap();
        }
        assert_eq!(wal.sync_count(), 2, "8 records / groups of 4");
        wal.append_insert(8).unwrap();
        wal.sync().unwrap();
        assert_eq!(wal.sync_count(), 3);
        wal.sync().unwrap();
        assert_eq!(wal.sync_count(), 3, "sync with nothing unsynced is a no-op");

        // PerRecord is the group of one: exactly one sync per record,
        // a batch record included.
        let path = tmp("per-record");
        let _g = Cleanup(path.clone());
        let mut wal = Wal::create(&path, WalSyncPolicy::PerRecord).unwrap();
        for i in 0..5u64 {
            wal.append_insert(i).unwrap();
            assert_eq!(wal.sync_count(), i + 1);
        }
        wal.append_batch(&[10, 11, 12]).unwrap();
        assert_eq!(wal.sync_count(), 6, "a batch is one record");
    }

    #[test]
    fn zero_length_batches_round_trip() {
        let path = tmp("empty-batch");
        let _g = Cleanup(path.clone());
        let mut wal = Wal::create(&path, WalSyncPolicy::PerRecord).unwrap();
        wal.append_batch(&[]).unwrap();
        drop(wal);
        let found = scan(&path).unwrap();
        assert_eq!(found.records.len(), 1);
        assert_eq!(found.records[0].op, WalOp::InsertBatch(vec![]));
    }
}
