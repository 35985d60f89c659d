//! Background maintenance: shard rebuilds and run-stack folds off the
//! insert path.
//!
//! With no worker attached, the insert that fills a run stack, pushes a
//! shard over its threshold or crosses the periodic scan cadence runs
//! the structure's maintenance pass itself, on its own thread. Rebuilds
//! run off the topology lock, so other writers keep going, but that one
//! insert pays the whole pass. Both *Benchmarking Learned Indexes*
//! (Marcus et al.) and Google's disk-based learned-index deployment
//! report exactly this shape of problem: background reorganization, not
//! steady-state lookup, is where write-heavy deployments spend their
//! tail latency.
//!
//! [`RebalanceWorker`] runs the **same pass** on a dedicated thread:
//!
//! ```text
//!  insert(k) ──▶ owner shard           (topology READ lock only)
//!      │
//!      ├─ record(len watermark, hot)──▶ WorkerLink   (lock-free atomics)
//!      └─ due? ──────────────────────▶ signal()      (mpsc wake, collapsed
//!                                          │          to one in-flight msg)
//!                                          ▼
//!                                   rebalance worker thread
//!                                   per wake, one maintenance pass:
//!                                     0. maintain full run stacks (K
//!                                        sealed runs → one run, or →
//!                                        base with ONE retrain once
//!                                        they hold 1/16 of it; no
//!                                        topology lock)
//!                                   then per step, until stable:
//!                                     1. observe + plan      (read lock)
//!                                     2. export + retrain    (NO lock —
//!                                        inserts keep flowing into the
//!                                        old shards)
//!                                     3. publish + drain     (brief write
//!                                        lock: re-route the writes that
//!                                        raced in by the NEW bounds, swap
//!                                        the Arc<Topology>)
//! ```
//!
//! The worker owns maintenance while attached: inserts never run the
//! pass inline, they only record pressure into the link's lock-free
//! counters and (rarely — when a run stack fills, a shard runs hot or
//! the periodic cadence is crossed) send one wake message. Dropping the
//! worker detaches the link, joins the thread, and returns the
//! structure to inline maintenance.
//!
//! Snapshot consistency is the same whichever thread runs the pass: a
//! topology is published as one `Arc` swap under the write lock, so a
//! reader observes a pre- or post-rebalance topology, never a torn
//! mixture, and the write lock is held only for the straggler drain —
//! O(1) length checks when nothing raced in (the common case), a linear
//! diff of the touched shard otherwise — never for the retrain. What
//! the worker changes is *who waits*: no insert pays for a pass.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::sharded_writable::ShardedWritable;

/// Wake-channel message from inserters (or the handle) to the worker.
enum Wake {
    /// Pressure was recorded; run a rebalance pass.
    Work,
    /// The handle is shutting down; exit the loop.
    Shutdown,
}

/// The lock-free pressure board + wake channel linking a
/// [`ShardedWritable`]'s inserters to the background worker.
///
/// Inserters touch only atomics on the hot path ([`WorkerLink::record`])
/// and send at most one wake message per worker pass
/// ([`WorkerLink::signal`] collapses signal storms with a flag swap).
#[derive(Debug)]
pub(crate) struct WorkerLink {
    /// Set when an inserter observes its owner shard above the split
    /// threshold; cleared when the worker begins a pass.
    hot: AtomicBool,
    /// Successful (key-adding) inserts since the worker's last pass.
    since_pass: AtomicUsize,
    /// Shard-length high-watermark observed by inserters since the
    /// worker's last pass.
    max_len_seen: AtomicUsize,
    /// Whether a wake message is already in flight (collapses storms).
    signaled: AtomicBool,
    /// Set once, when the worker thread exits (shutdown or panic).
    /// `wait_idle` checks it so nobody blocks on a worker that will
    /// never finish another pass.
    dead: AtomicBool,
    /// Test hook: make the worker panic at the start of its next pass.
    #[cfg(test)]
    pub(crate) fail_next_pass: AtomicBool,
    tx: Sender<Wake>,
    /// Worker idleness: true iff the worker finished a pass and no new
    /// signal has arrived since. Guarded by `idle`'s mutex together
    /// with the `signaled` flag (see `signal`/`finish_pass`).
    idle: Mutex<bool>,
    idle_cv: Condvar,
}

impl WorkerLink {
    fn new(tx: Sender<Wake>) -> Self {
        Self {
            hot: AtomicBool::new(false),
            since_pass: AtomicUsize::new(0),
            max_len_seen: AtomicUsize::new(0),
            signaled: AtomicBool::new(false),
            dead: AtomicBool::new(false),
            #[cfg(test)]
            fail_next_pass: AtomicBool::new(false),
            tx,
            idle: Mutex::new(true),
            idle_cv: Condvar::new(),
        }
    }

    /// Record insert pressure — called on every successful insert (or
    /// batch) while a worker is attached. Lock-free: three atomic ops.
    pub(crate) fn record(&self, newly: usize, owner_len: usize, owner_hot: bool) {
        self.since_pass.fetch_add(newly, Ordering::Relaxed);
        self.max_len_seen.fetch_max(owner_len, Ordering::Relaxed);
        if owner_hot {
            self.hot.store(true, Ordering::Relaxed);
        }
    }

    /// Wake the worker. At most one message is in flight at a time: the
    /// first signaler after a pass starts sends, the rest see the flag
    /// already set and return immediately.
    pub(crate) fn signal(&self) {
        if !self.signaled.swap(true, Ordering::AcqRel) {
            // Order matters: mark not-idle BEFORE sending, so a
            // `wait_until_stable` caller can never observe idle=true
            // while a wake message is queued.
            *self.idle_lock() = false;
            // A send error means the worker already exited (handle
            // dropped mid-signal); pressure is then simply dropped —
            // future inserts run maintenance inline again.
            let _ = self.tx.send(Wake::Work);
        }
    }

    /// Worker-side: start a pass. Re-arms the signal flag (signals
    /// arriving from here on send a fresh wake message, so pressure
    /// recorded *during* the pass is never lost) and drains the board.
    fn begin_pass(&self) -> Pressure {
        self.signaled.store(false, Ordering::Release);
        Pressure {
            hot: self.hot.swap(false, Ordering::Relaxed),
            inserts: self.since_pass.swap(0, Ordering::Relaxed),
            max_len_seen: self.max_len_seen.swap(0, Ordering::Relaxed),
        }
    }

    /// Worker-side: end a pass. Marks the link idle unless a new signal
    /// arrived while the pass ran (checked under the idle mutex, which
    /// `signal` also takes — so the flag and the mutex agree).
    fn finish_pass(&self) {
        let mut idle = self.idle_lock();
        if !self.signaled.load(Ordering::Acquire) {
            *idle = true;
            self.idle_cv.notify_all();
        }
    }

    /// Worker-side: the thread is exiting (shutdown or panic). Every
    /// current and future `wait_idle` caller must return instead of
    /// blocking on a pass that will never finish. Taken under the idle
    /// mutex so a waiter between its flag check and its `cv.wait` can't
    /// miss the wake-up.
    pub(crate) fn mark_dead(&self) {
        let _idle = self.idle_lock();
        self.dead.store(true, Ordering::Release);
        self.idle_cv.notify_all();
    }

    /// Block until the worker is idle (pass finished, no signal
    /// pending) or the deadline passes. Returns whether it became idle;
    /// returns `false` immediately if the worker thread is dead (it
    /// will never become idle again).
    fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut idle = self.idle_lock();
        while !*idle {
            if self.dead.load(Ordering::Acquire) {
                return false;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .idle_cv
                .wait_timeout(idle, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            idle = guard;
        }
        true
    }

    // Poison tolerance: the idle mutex guards a single `bool`, which
    // cannot be left in a torn state by a panicking holder — every
    // critical section is one load/store. A panic elsewhere on the
    // worker thread (caught in `worker_loop`'s catch_unwind) must not
    // turn every later `signal`/`wait_idle` into a second panic.
    fn idle_lock(&self) -> std::sync::MutexGuard<'_, bool> {
        self.idle.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Pressure drained from the board at the start of a worker pass
/// (diagnostics; the worker re-observes exact lens itself).
#[derive(Debug, Clone, Copy)]
struct Pressure {
    hot: bool,
    inserts: usize,
    max_len_seen: usize,
}

/// Counters the worker thread publishes for the handle (and tests).
///
/// Structural totals (splits, merges, compactions, runs folded) are
/// deliberately **absent**: those live in the structure's
/// [`ServeMetrics`](crate::ServeMetrics) registry — the single source
/// of truth — and the handle's accessors read them from there against
/// an attach-time baseline. Only worker-private bookkeeping (passes,
/// races, drained pressure) is tracked here.
#[derive(Debug, Default)]
struct WorkerStats {
    passes: AtomicUsize,
    races: AtomicUsize,
    /// Cumulative inserts drained off the pressure board.
    pressure_inserts: AtomicUsize,
    /// Passes whose drained pressure included a hot-shard observation.
    hot_wakes: AtomicUsize,
    /// High-watermark of shard lengths reported by inserters.
    max_len_seen: AtomicUsize,
    /// Set if the worker thread panicked (the panic is contained: the
    /// worker detaches itself so the structure returns to inline
    /// maintenance, and waiters are woken instead of hanging).
    panicked: AtomicBool,
}

/// A dedicated background rebalance thread for a [`ShardedWritable`].
///
/// While the worker is attached, it **owns** maintenance: inserts only
/// record pressure into lock-free counters and signal the worker over
/// a channel; the worker runs the structure's maintenance pass — run
/// merges, folds, and split/merge rebuilds published with an
/// incremental hand-off (writes that raced into a shard mid-rebuild are
/// re-routed by the new topology's ownership bounds) — *off* the insert
/// path. Dropping the handle shuts the thread down, joins it, and
/// re-enables inline maintenance.
///
/// # Examples
/// ```
/// use std::sync::Arc;
/// use std::time::Duration;
/// use li_serve::{RebalanceWorker, ShardedWritable, ShardedWritableConfig};
///
/// let sw = Arc::new(ShardedWritable::new(
///     (0..256u64).collect::<Vec<_>>(),
///     2,
///     ShardedWritableConfig::default(),
/// ));
/// let worker = RebalanceWorker::spawn(Arc::clone(&sw));
/// assert!(sw.has_background_worker());
///
/// for k in 256..1024u64 {
///     sw.insert(k); // records pressure; signals the worker as needed
/// }
/// worker.kick(); // force a scan now rather than waiting for a trigger
/// assert!(worker.wait_until_stable(Duration::from_secs(10)));
///
/// drop(worker); // detach: maintenance is inline again
/// assert!(!sw.has_background_worker());
/// ```
#[derive(Debug)]
pub struct RebalanceWorker {
    sw: Arc<ShardedWritable>,
    link: Arc<WorkerLink>,
    stats: Arc<WorkerStats>,
    /// Registry totals at attach time. The structural accessors
    /// (`splits()`, `merges()`, `compactions()`, `runs_compacted()`)
    /// are thin reads of the structure's metrics registry minus these
    /// baselines — the registry is the single source of truth, so the
    /// worker's view and [`ShardedWritable::splits`] & friends can
    /// never drift apart.
    base: Baseline,
    handle: Option<JoinHandle<()>>,
}

/// Structural-counter totals captured from the registry at attach
/// time, so the handle reports only actions applied while attached.
#[derive(Debug, Clone, Copy)]
struct Baseline {
    splits: u64,
    merges: u64,
    compactions: u64,
    runs_compacted: u64,
    run_merges: u64,
}

impl RebalanceWorker {
    /// Spawn the worker thread and attach it to `sw`. From this moment
    /// until the handle is dropped, inserts on `sw` never run
    /// maintenance inline.
    ///
    /// # Panics
    /// If another worker is already attached to `sw`.
    pub fn spawn(sw: Arc<ShardedWritable>) -> Self {
        let (tx, rx) = mpsc::channel();
        let link = Arc::new(WorkerLink::new(tx));
        // Baseline the structural counters before attaching: everything
        // the registry accrues from here on happened on our watch.
        let obs = sw.metrics_handle();
        let base = Baseline {
            splits: obs.splits.value(),
            merges: obs.shard_merges.value(),
            compactions: obs.compactions.value(),
            runs_compacted: obs.runs_compacted.value(),
            run_merges: obs.run_merges.value(),
        };
        sw.attach_worker(Arc::clone(&link));
        let stats = Arc::new(WorkerStats::default());
        let spawned = {
            let sw = Arc::clone(&sw);
            let link = Arc::clone(&link);
            let stats = Arc::clone(&stats);
            std::thread::Builder::new()
                .name("li-rebalance".into())
                .spawn(move || {
                    // Contain panics to this thread: a worker that dies
                    // mid-pass must hand maintenance back to the insert
                    // path (self-detach) and wake anyone blocked in
                    // `wait_until_stable` (mark_dead) — never strand
                    // the structure with a phantom worker attached.
                    // AssertUnwindSafe is sound here: the structures
                    // the closure borrows are the lock-protected
                    // `ShardedWritable` (whose guards recover from
                    // poison because every critical section leaves the
                    // data valid) and atomics.
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        worker_loop(&sw, &link, &rx, &stats);
                    }));
                    if result.is_err() {
                        stats.panicked.store(true, Ordering::Release);
                        sw.detach_worker();
                    }
                    link.mark_dead();
                })
        };
        let handle = match spawned {
            Ok(handle) => handle,
            Err(e) => {
                // Detach before unwinding: otherwise the structure
                // would signal a worker that never existed and neither
                // rebalance mode would ever run again.
                sw.detach_worker();
                panic!("failed to spawn the rebalance worker thread: {e}");
            }
        };
        Self {
            sw,
            link,
            stats,
            base,
            handle: Some(handle),
        }
    }

    /// Signal the worker to run a pass now, without waiting for an
    /// insert to trigger one (e.g. to drain a cold initial topology).
    pub fn kick(&self) {
        self.link.signal();
    }

    /// Block until the worker has finished a pass with no signal
    /// pending (the topology was stable when it last looked), or the
    /// timeout expires. Returns whether it quiesced in time — `false`
    /// immediately (no hang) if the worker thread has died.
    pub fn wait_until_stable(&self, timeout: Duration) -> bool {
        self.link.wait_idle(timeout)
    }

    /// Whether the worker thread panicked. A panicked worker has
    /// already detached itself — inserts run maintenance inline again —
    /// and [`wait_until_stable`](Self::wait_until_stable) returns
    /// `false` rather than blocking on it.
    pub fn panicked(&self) -> bool {
        self.stats.panicked.load(Ordering::Acquire)
    }

    /// Shard splits applied since this worker attached.
    ///
    /// A thin read of the registry's `li_shard_splits_total` counter
    /// against the attach-time baseline — the same counter
    /// [`ShardedWritable::splits`](crate::ShardedWritable::splits)
    /// reports, so the two can never drift. While attached, the worker
    /// owns maintenance, so this is exactly the worker's own tally
    /// (plus what any manual [`ShardedWritable::rebalance`]
    /// (crate::ShardedWritable::rebalance) calls applied between its
    /// passes).
    pub fn splits(&self) -> usize {
        (self.sw.metrics_handle().splits.value()).saturating_sub(self.base.splits) as usize
    }

    /// Shard merges applied since this worker attached (thin read of
    /// `li_shard_merges_total`; see [`RebalanceWorker::splits`]).
    pub fn merges(&self) -> usize {
        (self.sw.metrics_handle().shard_merges.value()).saturating_sub(self.base.merges) as usize
    }

    /// Run-stack compactions applied since this worker attached
    /// (shards whose sealed runs were folded into the base with one
    /// retrain). While attached, the worker is the *only* compactor, so
    /// this equals the structure's own
    /// [`ShardedWritable::compactions`](crate::ShardedWritable::compactions)
    /// counter — both are thin reads of `li_compactions_total`.
    pub fn compactions(&self) -> usize {
        (self.sw.metrics_handle().compactions.value()).saturating_sub(self.base.compactions)
            as usize
    }

    /// Sealed runs folded since this worker attached (thin read of
    /// `li_runs_compacted_total`).
    pub fn runs_compacted(&self) -> usize {
        (self.sw.metrics_handle().runs_compacted.value()).saturating_sub(self.base.runs_compacted)
            as usize
    }

    /// Run stacks merged into one run since this worker attached. The
    /// worker is the only maintainer while attached, so this equals
    /// [`ShardedWritable::run_merges`](crate::ShardedWritable::run_merges)
    /// — both are thin reads of `li_run_merges_total`.
    pub fn run_merges(&self) -> usize {
        (self.sw.metrics_handle().run_merges.value()).saturating_sub(self.base.run_merges) as usize
    }

    /// Rebalance passes the worker has completed (one per wake).
    pub fn passes(&self) -> usize {
        self.stats.passes.load(Ordering::Relaxed)
    }

    /// Rebuilds discarded because the topology changed between observe
    /// and publish (the worker re-planned from the fresh topology).
    /// Passes are serialized, so this stays 0 unless that guard ever
    /// fires.
    pub fn races(&self) -> usize {
        self.stats.races.load(Ordering::Relaxed)
    }

    /// Cumulative successful inserts drained off the pressure board
    /// (how much write traffic the worker has accounted for).
    pub fn pressure_inserts(&self) -> usize {
        self.stats.pressure_inserts.load(Ordering::Relaxed)
    }

    /// Passes that began with a hot-shard observation on the board
    /// (as opposed to periodic-cadence or manual kicks).
    pub fn hot_wakes(&self) -> usize {
        self.stats.hot_wakes.load(Ordering::Relaxed)
    }

    /// High-watermark of owner-shard lengths reported by inserters
    /// since the worker started.
    pub fn max_len_seen(&self) -> usize {
        self.stats.max_len_seen.load(Ordering::Relaxed)
    }

    /// The structure this worker rebalances.
    pub fn target(&self) -> &Arc<ShardedWritable> {
        &self.sw
    }
}

impl Drop for RebalanceWorker {
    fn drop(&mut self) {
        // Detach first: inserts fall back to inline maintenance and no
        // new Work messages are produced; then unblock the thread. A
        // panicked worker already detached itself — `detach_worker` is
        // a plain slot clear, so the second call is a no-op.
        self.sw.detach_worker();
        let _ = self.link.tx.send(Wake::Shutdown);
        if let Some(handle) = self.handle.take() {
            // A join error means the thread panicked outside the
            // pass-level catch_unwind (it shouldn't — the whole loop is
            // wrapped — but belt and braces). Record it; never
            // propagate a panic out of Drop, which would abort the
            // process if the handle is itself dropped during a panic.
            if handle.join().is_err() {
                self.stats.panicked.store(true, Ordering::Release);
            }
        }
    }
}

/// The worker thread body: sleep on the channel, and per wake run one
/// maintenance pass — the same pass an insert runs inline when no
/// worker is attached.
fn worker_loop(sw: &ShardedWritable, link: &WorkerLink, rx: &Receiver<Wake>, stats: &WorkerStats) {
    while let Ok(Wake::Work) = rx.recv() {
        let pressure = link.begin_pass();
        #[cfg(test)]
        if link.fail_next_pass.swap(false, Ordering::Relaxed) {
            panic!("injected rebalance-worker panic (test)");
        }
        stats
            .pressure_inserts
            .fetch_add(pressure.inserts, Ordering::Relaxed);
        if pressure.hot {
            stats.hot_wakes.fetch_add(1, Ordering::Relaxed);
        }
        // The watermark is diagnostic; the pass re-observes exact lens
        // under the read lock before planning.
        stats
            .max_len_seen
            .fetch_max(pressure.max_len_seen, Ordering::Relaxed);
        // Inserters never run a pass while we are attached (they only
        // signal); its folds, merges and splits land in the structure's
        // metrics registry, which the handle's accessors read back.
        let pass = sw.maintenance_pass();
        stats.races.fetch_add(pass.races, Ordering::Relaxed);
        stats.passes.fetch_add(1, Ordering::Relaxed);
        if !pass.stable {
            // The step bound ran out with work remaining (a giant
            // backlog): re-signal ourselves so the backlog resumes on
            // the next wake instead of stranding an over-budget topology
            // as "idle" until some future insert happens to signal.
            // Each resumed pass applies real actions, so this converges
            // — it is a continuation, not a spin.
            link.signal();
        }
        link.finish_pass();
    }
    // Shutdown (or every sender gone): fall off and let the thread end.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rebalance::RebalanceConfig;
    use crate::sharded_writable::ShardedWritableConfig;

    fn small_cfg() -> ShardedWritableConfig {
        ShardedWritableConfig {
            merge_threshold: 8,
            leaf_fraction: 1.0 / 16.0,
            check_interval: 16,
            rebalance: RebalanceConfig {
                max_shard_len: 64,
                merge_max_len: 16,
                max_mean_err: None,
                max_shards: 16,
            },
            ..ShardedWritableConfig::default()
        }
    }

    #[test]
    fn worker_splits_hot_shards_off_the_insert_path() {
        let sw = Arc::new(ShardedWritable::new(vec![0u64], 1, small_cfg()));
        let worker = RebalanceWorker::spawn(Arc::clone(&sw));
        for k in 1..=400u64 {
            sw.insert(k * 3);
        }
        assert!(worker.wait_until_stable(Duration::from_secs(30)));
        assert!(worker.splits() >= 1, "worker must have split");
        // In background mode ONLY the worker rebalances: the global
        // counters are exactly the worker's.
        assert_eq!(worker.splits(), sw.splits());
        assert_eq!(worker.merges(), sw.shard_merges());
        // Stability means every shard is within budget.
        for len in sw.shard_lens() {
            assert!(len <= small_cfg().rebalance.max_shard_len, "len {len}");
        }
        assert_eq!(sw.len(), 401);
    }

    #[test]
    fn worker_merges_cold_topologies_on_kick() {
        let data: Vec<u64> = (0..16u64).map(|i| i * 7).collect();
        let sw = Arc::new(ShardedWritable::new(data.clone(), 8, small_cfg()));
        let worker = RebalanceWorker::spawn(Arc::clone(&sw));
        worker.kick();
        assert!(worker.wait_until_stable(Duration::from_secs(30)));
        assert!(worker.merges() >= 1, "cold neighbors must merge");
        assert!(sw.shard_count() < 8);
        assert_eq!(sw.range_keys(0, u64::MAX), data);
    }

    #[test]
    fn drop_detaches_and_restores_inline_maintenance() {
        let sw = Arc::new(ShardedWritable::new(vec![0u64], 1, small_cfg()));
        {
            let worker = RebalanceWorker::spawn(Arc::clone(&sw));
            assert!(sw.has_background_worker());
            worker.kick();
            assert!(worker.wait_until_stable(Duration::from_secs(30)));
        }
        assert!(!sw.has_background_worker());
        // Inline again: this load rebalances on the inserting thread.
        for k in 1..=300u64 {
            sw.insert(k * 2);
        }
        assert!(sw.splits() >= 1);
    }

    #[test]
    #[should_panic(expected = "already attached")]
    fn double_attach_panics() {
        let sw = Arc::new(ShardedWritable::new(vec![0u64], 1, small_cfg()));
        let _a = RebalanceWorker::spawn(Arc::clone(&sw));
        let _b = RebalanceWorker::spawn(Arc::clone(&sw));
    }

    #[test]
    fn manual_rebalance_takes_turns_with_the_worker() {
        // A manual rebalance() call while the worker runs waits for the
        // worker's pass (and vice versa): no rebuild is ever discarded,
        // and every publication is accounted for exactly once.
        let sw = Arc::new(ShardedWritable::new(vec![0u64], 1, small_cfg()));
        let worker = RebalanceWorker::spawn(Arc::clone(&sw));
        std::thread::scope(|scope| {
            let sw_ref = &sw;
            scope.spawn(move || {
                for k in 1..=500u64 {
                    sw_ref.insert(k * 5);
                    if k.is_multiple_of(100) {
                        // Deliberately compete with the worker.
                        sw_ref.rebalance();
                    }
                }
            });
        });
        assert!(worker.wait_until_stable(Duration::from_secs(30)));
        // Exact contents survived the races.
        assert_eq!(sw.len(), 501);
        let all = sw.range_keys(0, u64::MAX);
        assert!(all.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(all.len(), 501);
        // Every publication is accounted for exactly once, and every
        // rebuild was published.
        assert_eq!(
            sw.generation(),
            (sw.splits() + sw.shard_merges()) as u64,
            "torn generation accounting"
        );
        assert_eq!(worker.races(), 0, "serialized passes never race");
        assert_eq!(
            sw.metrics()
                .histogram("li_pass_retrain_ns")
                .map(|h| h.count()),
            Some(sw.generation())
        );
    }

    #[test]
    fn worker_panic_is_contained_and_restores_inline_maintenance() {
        let sw = Arc::new(ShardedWritable::new(
            (0..64u64).map(|i| i * 3).collect::<Vec<_>>(),
            2,
            small_cfg(),
        ));
        let worker = RebalanceWorker::spawn(Arc::clone(&sw));
        assert!(!worker.panicked());

        // Arm the injection and wake the worker: its next pass dies.
        worker.link.fail_next_pass.store(true, Ordering::Relaxed);
        worker.kick();

        // A dead worker must make this RETURN false, not hang forever.
        assert!(
            !worker.wait_until_stable(Duration::from_secs(30)),
            "wait_until_stable must report failure for a dead worker"
        );
        assert!(worker.panicked());
        // The dying worker detached itself: maintenance is inline again
        // even though the handle is still alive.
        assert!(!sw.has_background_worker());

        // The structure itself is unharmed and rebalances inline.
        for k in 0..=300u64 {
            sw.insert(k * 2 + 1);
        }
        assert!(sw.splits() >= 1, "inline splitting must have resumed");
        assert!(sw.contains(601));
        for len in sw.shard_lens() {
            assert!(len <= small_cfg().rebalance.max_shard_len, "len {len}");
        }

        // Dropping the handle after the panic must also be safe.
        drop(worker);
        assert!(!sw.has_background_worker());
    }

    #[test]
    fn dead_link_unblocks_waiters() {
        let (tx, _rx) = mpsc::channel();
        let link = WorkerLink::new(tx);
        // Pretend a pass started (idle=false) and the worker then died
        // without finishing it.
        link.signal();
        link.mark_dead();
        let start = Instant::now();
        assert!(!link.wait_idle(Duration::from_secs(30)));
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "dead flag must short-circuit the wait, not ride out the timeout"
        );
    }

    #[test]
    fn pressure_board_records_and_drains() {
        let (tx, _rx) = mpsc::channel();
        let link = WorkerLink::new(tx);
        link.record(3, 100, false);
        link.record(2, 400, true);
        let p = link.begin_pass();
        assert_eq!(p.inserts, 5);
        assert_eq!(p.max_len_seen, 400);
        assert!(p.hot);
        let p2 = link.begin_pass();
        assert_eq!(p2.inserts, 0);
        assert!(!p2.hot);
    }
}
