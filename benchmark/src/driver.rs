//! One pass of one workload: set-up, measured phase, restart.
//!
//! Closed loop, one client thread (this one) and no other: the store
//! compacts and rebalances inline, on the client's time.

use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use li_core::search::search_with_widening;
use li_index::RangeIndex;
use li_serve::{PersistError, RecoveryReport, ShardedSnapshot, ShardedWritable, WalSyncPolicy};

use crate::host::{self, Scratch};
use crate::trace::{ns32, Name, Trace, ROOT};
use crate::workload::{
    Inputs, Spec, GET, OP_MASK, PRESENT, PUT, SAMPLED, SCAN, SCAN_KEYS, TRACED, WAL_SYNC_EVERY,
};

/// Sampled latencies (ns) and the failure count of the ops run so far.
pub struct Recorder {
    pub get: Vec<u32>,
    pub put: Vec<u32>,
    pub scan: Vec<u32>,
    pub attempted: u64,
    pub failed: u64,
}

impl Recorder {
    /// Buffers for every sampled op of `inp`, allocated and touched now
    /// so the measured phase neither allocates nor page-faults for them.
    pub fn for_inputs(inp: &Inputs) -> Self {
        let sampled = |kind: u8| {
            let n = inp
                .kind
                .iter()
                .filter(|&&k| k & OP_MASK == kind && k & SAMPLED != 0)
                .count();
            // Filled, not zeroed: zeroed pages are mapped lazily.
            let mut v = vec![1u32; n];
            v.clear();
            v
        };
        Self {
            get: sampled(GET),
            put: sampled(PUT),
            scan: sampled(SCAN),
            attempted: 0,
            failed: 0,
        }
    }

    fn reset(&mut self) {
        self.get.clear();
        self.put.clear();
        self.scan.clear();
    }

    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// State of a traced run: the span buffer, the snapshot the traced gets
/// walk, and the counts taken at the layer boundaries.
pub struct Tracing {
    pub trace: Trace,
    snap: ShardedSnapshot,
    marks: Vec<(Name, Instant)>,
    /// Σ (hi − lo) of the predicted windows, over `base_walks` walks
    /// that reached the base.
    pub window_keys: u64,
    pub base_walks: u64,
    /// Walks whose answer lay outside the predicted window.
    pub widened: u64,
    /// Deepest run stack seen at a snapshot refresh.
    pub max_run_depth: usize,
}

/// Traced gets walk a snapshot this many ops old at most. A snapshot
/// shares the base and the runs with the live store but copies the
/// router and the pending buffers, and a copy left unread for thousands
/// of ops falls out of L2: at 4096 the walk paid ~130 ns of misses the
/// live lookup does not. At 256 the copies stay as warm as the
/// originals, for ~1.5 % of the run spent in `snapshot()`.
const SNAPSHOT_EVERY: usize = 256;

impl Tracing {
    fn new(store: &ShardedWritable, inp: &Inputs) -> Self {
        let sampled = inp.kind.iter().filter(|&&k| k & SAMPLED != 0).count();
        let traced = inp.kind.iter().filter(|&&k| k & TRACED != 0).count();
        Self {
            // A walk records its root span, four layers and each run probed.
            trace: Trace::with_capacity(sampled + traced * 12),
            snap: store.snapshot(),
            marks: Vec::with_capacity(64),
            window_keys: 0,
            base_walks: 0,
            widened: 0,
            max_run_depth: 0,
        }
    }

    fn refresh(&mut self, store: &ShardedWritable) {
        self.snap = store.snapshot();
        let depth = self
            .snap
            .shard_snapshots()
            .iter()
            .map(|s| s.runs().len())
            .max()
            .unwrap_or(0);
        self.max_run_depth = self.max_run_depth.max(depth);
    }
}

/// What `contains` does below the store's locks, layer by layer, with a
/// clock read at each boundary (`marks`). Returns the answer and, when
/// the base was searched, the predicted window and the position found.
pub fn walk(
    snap: &ShardedSnapshot,
    key: u64,
    marks: &mut Vec<(Name, Instant)>,
) -> (bool, Option<(usize, usize, usize)>) {
    marks.clear();
    marks.push((Name::Walk, Instant::now()));
    let shard = &snap.shard_snapshots()[snap.router().route_owner(key)];
    marks.push((Name::Route, Instant::now()));
    let buffered = shard.delta_keys().binary_search(&key).is_ok();
    marks.push((Name::Buffer, Instant::now()));
    if buffered {
        return (true, None);
    }
    for run in shard.runs().iter().rev() {
        let hit = run.contains(key);
        marks.push((Name::Run, Instant::now()));
        if hit {
            return (true, None);
        }
    }
    let base = shard.base_index();
    let p = base.predict(key);
    marks.push((Name::Predict, Instant::now()));
    let data = base.data();
    // σ only steers the quaternary strategy, which no shard here uses.
    let at = search_with_widening(data, key, base.search_strategy(), p.pos, 1, p.lo, p.hi);
    marks.push((Name::LastMile, Instant::now()));
    (data.get(at) == Some(&key), Some((p.lo, p.hi, at)))
}

/// Snapshot and WAL files of one store, and what was written to them.
pub struct Disk {
    pub snap: PathBuf,
    /// The WAL, for a durable workload.
    pub wal: Option<PathBuf>,
    save_every: usize,
    /// Puts logged since the last checkpoint truncated the WAL.
    pub puts_since_save: usize,
    pub keys_at_save: usize,
    /// Every `save`'s duration, set-up's first.
    pub save_s: Vec<f64>,
    /// Size of the snapshot last published.
    pub snapshot_bytes: u64,
    /// Every published snapshot's size, summed.
    pub snapshots_bytes: u64,
    /// WAL bytes appended, counted as each checkpoint truncates them.
    pub wal_bytes: u64,
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

impl Disk {
    /// Publish a snapshot (a checkpoint when a WAL is attached: `save`
    /// truncates it).
    pub fn save(&mut self, store: &ShardedWritable, keys_now: usize) {
        if let Some(wal) = &self.wal {
            self.wal_bytes += file_len(wal);
        }
        let t = Instant::now();
        store.save(&self.snap).expect("snapshot save");
        self.save_s.push(t.elapsed().as_secs_f64());
        self.snapshot_bytes = file_len(&self.snap);
        self.snapshots_bytes += self.snapshot_bytes;
        self.keys_at_save = keys_now;
        self.puts_since_save = 0;
    }
}

/// A store that is set up and warm.
pub struct Live {
    pub store: Arc<ShardedWritable>,
    pub disk: Disk,
}

/// Peak resident set over the samples taken, above a baseline. The
/// heap is trimmed before every reading: what glibc keeps of freed
/// compaction buffers (tens of MB, another amount in every run) is the
/// allocator's memory, not the store's.
pub struct RssPeak {
    baseline_mb: f64,
    peak_mb: f64,
}

impl RssPeak {
    pub fn from_now() -> Self {
        host::trim_heap();
        let now = host::rss_mb();
        Self {
            baseline_mb: now,
            peak_mb: now,
        }
    }

    pub fn sample(&mut self) {
        host::trim_heap();
        self.peak_mb = self.peak_mb.max(host::rss_mb());
    }

    pub fn above_baseline_mb(&self) -> f64 {
        self.peak_mb - self.baseline_mb
    }
}

/// Run `op`; for a sampled op, time it into `samples` and, in a traced
/// run, into a root span. An op that is not sampled reads no clock.
#[inline(always)]
fn timed<const TRACE: bool, R>(
    sampled: bool,
    samples: &mut Vec<u32>,
    tracing: &mut Option<&mut Tracing>,
    name: Name,
    i: usize,
    op: impl FnOnce() -> R,
) -> R {
    if !sampled {
        return op();
    }
    let start = Instant::now();
    let out = op();
    let end = Instant::now();
    samples.push(ns32(start, end));
    if TRACE {
        tracing
            .as_deref_mut()
            .expect("traced run")
            .trace
            .push(name, i as u32, ROOT, start, end);
    }
    out
}

/// Run ops `range` of the stream against the store, timing the sampled
/// ones and checking every answer. Returns the wall time, which
/// includes inline maintenance and checkpoints.
pub fn run_ops<const TRACE: bool>(
    live: &mut Live,
    inp: &Inputs,
    range: Range<usize>,
    rec: &mut Recorder,
    mut tracing: Option<&mut Tracing>,
) -> f64 {
    let store = Arc::clone(&live.store);
    let mut scan_at = inp.count_before(range.start, SCAN);
    let mut keys_now = inp.base.len() + inp.count_before(range.start, PUT);
    let started = Instant::now();
    for i in range {
        let kind = inp.kind[i];
        let key = inp.key[i];
        let sampled = kind & SAMPLED != 0;
        match kind & OP_MASK {
            GET if TRACE && kind & TRACED != 0 => {
                // Answered from a snapshot up to SNAPSHOT_EVERY ops old,
                // so the answer is checked in --check mode only.
                let t = tracing.as_deref_mut().expect("traced run");
                let (got, searched) = walk(&t.snap, key, &mut t.marks);
                std::hint::black_box(got);
                let (start, end) = (t.marks[0].1, t.marks[t.marks.len() - 1].1);
                let root = t.trace.push(Name::Walk, i as u32, ROOT, start, end);
                for pair in t.marks.windows(2) {
                    t.trace
                        .push(pair[1].0, i as u32, root, pair[0].1, pair[1].1);
                }
                if let Some((lo, hi, at)) = searched {
                    t.base_walks += 1;
                    t.window_keys += (hi - lo) as u64;
                    t.widened += u64::from(at < lo || at > hi);
                }
                rec.attempted += 1;
            }
            GET => {
                let got =
                    timed::<TRACE, _>(sampled, &mut rec.get, &mut tracing, Name::Get, i, || {
                        store.contains(key)
                    });
                rec.check(got == (kind & PRESENT != 0));
            }
            PUT => {
                let fresh =
                    timed::<TRACE, _>(sampled, &mut rec.put, &mut tracing, Name::Put, i, || {
                        store.insert(key)
                    });
                rec.check(fresh);
                keys_now += 1;
                live.disk.puts_since_save += 1;
                if live.disk.puts_since_save >= live.disk.save_every {
                    live.disk.save(&store, keys_now);
                }
            }
            _ => {
                let hi = inp.scan_hi[scan_at];
                scan_at += 1;
                let found =
                    timed::<TRACE, _>(sampled, &mut rec.scan, &mut tracing, Name::Scan, i, || {
                        store.range_keys(key, hi)
                    });
                // The range spans SCAN_KEYS base keys, plus any put keys
                // that fell inside it.
                rec.check(
                    found.len() >= SCAN_KEYS
                        && found[0] == key
                        && found[found.len() - 1] < hi
                        && found.windows(2).all(|w| w[0] < w[1]),
                );
            }
        }
        if TRACE && i % SNAPSHOT_EVERY == 0 {
            tracing.as_deref_mut().expect("traced run").refresh(&store);
        }
    }
    started.elapsed().as_secs_f64()
}

/// Build the store the workload asks for: `ShardedWritable::new`, and
/// the WAL and a first snapshot where durable.
pub fn build(spec: &Spec, inp: &Inputs, dir: &Scratch) -> Live {
    let store = Arc::new(ShardedWritable::new(
        inp.base.clone(),
        spec.shards,
        spec.config(true),
    ));
    let mut disk = Disk {
        snap: dir.path("store.snap"),
        wal: None,
        save_every: spec.save_every,
        puts_since_save: 0,
        keys_at_save: 0,
        save_s: Vec::new(),
        snapshot_bytes: 0,
        snapshots_bytes: 0,
        wal_bytes: 0,
    };
    if spec.durable {
        let wal = dir.path("store.wal");
        store
            .enable_wal(&wal, WalSyncPolicy::EveryN(WAL_SYNC_EVERY))
            .expect("attach WAL");
        disk.wal = Some(wal);
        // The WAL covers writes from here on; the snapshot, what is
        // already in memory.
        disk.save(&store, inp.base.len());
    }
    Live { store, disk }
}

/// `build`, then the first 5 % of the stream as warm-up. This whole
/// function is what `setup_s` times.
fn set_up(spec: &Spec, inp: &Inputs, dir: &Scratch, rec: &mut Recorder) -> Live {
    let mut live = build(spec, inp, dir);
    run_ops::<false>(&mut live, inp, 0..inp.warm, rec, None);
    live
}

/// Set-up repetitions of an untraced pass: until 2 s of set-up time
/// have accumulated, at most 3.
fn enough_setups(times: &[f64]) -> bool {
    times.len() >= 3 || times.iter().sum::<f64>() >= 2.0
}

/// What one pass measured.
pub struct Pass {
    pub setup_s: Vec<f64>,
    pub measured_s: f64,
    pub measured_ops: usize,
    pub rec: Recorder,
    pub tracing: Option<Tracing>,
    /// Every repetition of the restart.
    pub restart_s: Vec<f64>,
    /// WAL records each crash recovery replayed (durable only).
    pub replayed: usize,
    pub live_keys: usize,
    /// Σ per-shard base `RmiStats.size_bytes`, and the base keys under them.
    pub rmi_bytes: usize,
    pub base_keys: usize,
    pub router_bytes: usize,
    pub rss_peak_mb: f64,
    /// `write` system calls during the measured phase.
    pub write_syscalls: u64,
    pub measured_puts: usize,
    /// Puts of the whole stream, warm-up included.
    pub puts: usize,
    /// The store, for what is timed after the measured phase.
    pub live: Live,
}

impl Pass {
    pub fn ops_per_s(&self) -> f64 {
        self.measured_ops as f64 / self.measured_s
    }
}

/// One pass: set-up (repeated over fresh stores when `repeat_setup`, all
/// but the last thrown away), the measured phase, restart,
/// verification.
pub fn run_pass(
    spec: &Spec,
    inp: &Inputs,
    dir: &Scratch,
    repeat_setup: bool,
    traced: bool,
) -> Pass {
    let mut rec = Recorder::for_inputs(inp);
    let mut rss = RssPeak::from_now();

    let mut setup_s = Vec::new();
    let mut live = loop {
        rec.reset();
        let t = Instant::now();
        let live = set_up(spec, inp, dir, &mut rec);
        setup_s.push(t.elapsed().as_secs_f64());
        if !repeat_setup || enough_setups(&setup_s) {
            break live;
        }
    };
    rec.reset();

    let measured = inp.warm..inp.ops();
    let writes_before = host::write_syscalls();
    let mut tracing = traced.then(|| Tracing::new(&live.store, inp));
    let measured_s = if traced {
        run_ops::<true>(&mut live, inp, measured.clone(), &mut rec, tracing.as_mut())
    } else {
        run_ops::<false>(&mut live, inp, measured.clone(), &mut rec, None)
    };
    let write_syscalls = host::write_syscalls() - writes_before;

    rss.sample();

    let puts = inp.count_before(inp.ops(), PUT);
    let snapshot = live.store.snapshot();
    let live_keys = snapshot.len();
    rec.check(live_keys == inp.base.len() + puts && live.store.len() == live_keys);
    let shards = snapshot.shard_snapshots();
    let rmi_bytes = shards
        .iter()
        .map(|s| s.base_index().stats().size_bytes)
        .sum();
    let base_keys = shards.iter().map(|s| s.base_index().data().len()).sum();
    let router_bytes = snapshot.router().size_bytes();
    drop(snapshot);

    let (restart_s, replayed) = restart(spec, inp, dir, &mut live, live_keys, &mut rec, &mut rss);

    Pass {
        setup_s,
        measured_s,
        measured_ops: measured.len(),
        rec,
        tracing,
        restart_s,
        replayed,
        live_keys,
        rmi_bytes,
        base_keys,
        router_bytes,
        rss_peak_mb: rss.above_baseline_mb(),
        write_syscalls,
        measured_puts: puts - inp.count_before(inp.warm, PUT),
        puts,
        live,
    }
}

/// Restart repetitions: at least 5 and 2 s of restart time, at most 200.
fn enough_restarts(times: &[f64]) -> bool {
    times.len() >= 200 || (times.len() >= 5 && times.iter().sum::<f64>() >= 2.0)
}

/// Keys of the stream spot-checked in a restarted store.
const RESTART_PROBES: usize = 4096;

/// A simulated crash of a durable store. The OS cache still holds what
/// was appended after the last `fsync`; a crash would not, so recovery
/// runs on a copy of the WAL cut at the last fsynced byte. Group commit
/// syncs every `WAL_SYNC_EVERY` records since the checkpoint, and every
/// record is one put, all of one size.
pub struct Crash {
    wal: PathBuf,
    copy: PathBuf,
    /// Records the cut log holds: the acknowledged-durable puts.
    pub durable: usize,
    durable_bytes: u64,
    /// Whether the log's length is a whole number of records.
    pub whole_records: bool,
}

impl Crash {
    /// `None` for a store without a WAL. Adds the WAL's tail to the
    /// bytes `disk` has counted.
    pub fn of(disk: &mut Disk, dir: &Scratch) -> Option<Self> {
        let wal = disk.wal.clone()?;
        let logged = disk.puts_since_save;
        let wal_len = file_len(&wal);
        disk.wal_bytes += wal_len;
        let durable = logged / WAL_SYNC_EVERY * WAL_SYNC_EVERY;
        Some(Self {
            wal,
            copy: dir.path("crash.wal"),
            durable,
            durable_bytes: wal_len / logged.max(1) as u64 * durable as u64,
            whole_records: logged > 0 && wal_len.is_multiple_of(logged as u64),
        })
    }

    /// Cut a fresh copy of the log and recover from it and the
    /// snapshot; returns the seconds `recover_with_config` took.
    pub fn recover(
        &self,
        spec: &Spec,
        snap: &Path,
    ) -> (f64, Result<(ShardedWritable, RecoveryReport), PersistError>) {
        std::fs::copy(&self.wal, &self.copy).expect("copy WAL");
        let cut = std::fs::OpenOptions::new()
            .write(true)
            .open(&self.copy)
            .expect("open WAL copy");
        cut.set_len(self.durable_bytes).expect("cut WAL copy");
        drop(cut);
        let t = Instant::now();
        let recovered = ShardedWritable::recover_with_config(
            snap,
            &self.copy,
            WalSyncPolicy::EveryN(WAL_SYNC_EVERY),
            spec.config(true),
        );
        (t.elapsed().as_secs_f64(), recovered)
    }
}

/// Restart the store from its files, repeatedly, and spot-check what
/// comes back. Without a WAL: a final `save`, then `load`. With one: a
/// crash. Returns every repetition's time and the records replayed.
fn restart(
    spec: &Spec,
    inp: &Inputs,
    dir: &Scratch,
    live: &mut Live,
    live_keys: usize,
    rec: &mut Recorder,
    rss: &mut RssPeak,
) -> (Vec<f64>, usize) {
    let mut times = Vec::new();
    let put_keys = inp.put_keys();
    let step = (put_keys.len() / RESTART_PROBES).max(1);

    let Some(crash) = Crash::of(&mut live.disk, dir) else {
        live.disk.save(&live.store, live_keys);
        while !enough_restarts(&times) {
            let t = Instant::now();
            let loaded = ShardedWritable::load(&live.disk.snap);
            times.push(t.elapsed().as_secs_f64());
            rss.sample();
            rec.check(loaded.is_ok_and(|s| {
                s.len() == live_keys
                    && put_keys.iter().step_by(step).all(|&k| s.contains(k))
                    && inp
                        .base
                        .iter()
                        .step_by(inp.base.len() / RESTART_PROBES + 1)
                        .all(|&k| s.contains(k))
            }));
        }
        return (times, 0);
    };

    rec.check(crash.whole_records);
    let first_logged = put_keys.len() - live.disk.puts_since_save;
    while !enough_restarts(&times) {
        let (seconds, recovered) = crash.recover(spec, &live.disk.snap);
        times.push(seconds);
        rss.sample();
        // Exactly the fsynced prefix: every acknowledged-durable put,
        // and not the first put after it.
        rec.check(recovered.is_ok_and(|(s, report)| {
            report.replayed == crash.durable
                && report.truncated_bytes == 0
                && s.len() == live.disk.keys_at_save + crash.durable
                && put_keys[first_logged..first_logged + crash.durable]
                    .iter()
                    .all(|&k| s.contains(k))
                && put_keys[..first_logged]
                    .iter()
                    .step_by(step)
                    .all(|&k| s.contains(k))
                && put_keys
                    .get(first_logged + crash.durable)
                    .is_none_or(|&k| !s.contains(k))
        }));
    }
    (times, crash.durable)
}
