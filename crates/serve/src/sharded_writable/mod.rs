//! The sharded concurrent write path: N [`WritableShard`]s behind an
//! `Arc`-swapped topology, with dynamic rebalancing.
//!
//! # Architecture
//!
//! A [`ShardedWritable`] owns an immutable **topology** — the ownership
//! boundary keys, a [`ShardRouter`] over them, and one
//! [`WritableShard`] per ownership range — behind
//! `RwLock<Arc<Topology>>`:
//!
//! * **Inserts** take the topology *read* lock (so many writers run
//!   concurrently), route the key to its owner shard with
//!   [`ShardRouter::route_owner`], and insert there; each shard
//!   serializes its own writes and seals its own full buffers into
//!   runs independently.
//! * **Gets** ([`ShardedWritable::contains`]) take no lock on their
//!   common path. Each thread caches the published topology and, per
//!   shard, the immutable tiers (base and runs) as `Arc`s. A get checks
//!   the cached topology against `published`, an atomic copy of the
//!   topology generation, and the cached tiers against the shard's
//!   `gen`; if both match and the shard's buffer filter rules the key
//!   out of the buffer, it answers from the cached tiers. Otherwise it
//!   answers under the topology and shard read locks and refreshes the
//!   cache there (see [`crate::writable`] for the shard's half of the
//!   protocol, and `ARCHITECTURE.md`, "Lock-free gets", for the
//!   argument).
//! * **Snapshots** ([`ShardedWritable::snapshot`]) also take the read
//!   lock, clone the router and capture one [`DeltaSnapshot`] per shard
//!   — a consistent router + snapshot-vector *pair* from a single
//!   topology. All subsequent reads on the [`ShardedSnapshot`] are
//!   lock-free.
//! * **Live scans and ranks** ([`ShardedWritable::range_keys`],
//!   [`ShardedWritable::rank`]) take no snapshot: under the same read
//!   guard they read-lock only the shards the answer needs, all at once
//!   and in ascending shard order, and answer from them in place.
//! * **Rebalancing** is one step function: observe and plan under the
//!   read lock, rebuild off-lock — a hot shard is split at its balanced
//!   [`li_index::partition::split_point`] (handing the upper half of
//!   its keys to a new sibling), or two cold neighbors are merged — and
//!   publish under a brief *write* lock: writes that raced in are
//!   re-routed, the boundary vector updated, the router rebuilt, and
//!   the whole topology published as one new `Arc`. A snapshot
//!   therefore always observes a *pre-* or *post-*rebalance topology,
//!   never a torn mixture — the property the stress and property
//!   suites pin down.
//!
//! # Ownership invariant
//!
//! Shard `s` holds exactly the keys in `[bounds[s-1], bounds[s])` (see
//! `li_index::partition::route_owner_binary` for the composition
//! proof). Inserts preserve it because routing picks the owner; splits
//! and merges preserve it because they only subdivide or concatenate
//! ownership ranges. It is what makes every global query — `contains`,
//! `rank`, `range_keys` — a one-shard (plus O(1) bookkeeping) affair,
//! and what keeps cross-shard concatenation globally sorted.
//!
//! # Tiered write path and maintenance
//!
//! Every shard runs the LSM-style tiered cycle: a full buffer is
//! *sealed* into an immutable [`li_core::SortedRun`] (O(buffer), no
//! base retrain), and once [`ShardedWritableConfig::max_runs`] runs
//! stack up the shard is maintained: its runs are *merged* into one run
//! (no retrain) until they hold 1/[`li_core::delta::RUN_TIER_RATIO`] of
//! the base's keys, and then *compacted* — all runs folded into the
//! base with ONE retrain.
//!
//! Run maintenance and rebalancing are one **maintenance pass**: fold
//! or merge every full run stack, then run rebalance steps until the
//! topology is stable. Two kinds of thread run it. With a
//! [`crate::RebalanceWorker`] attached, the insert that fills a run
//! stack, runs a shard hot or crosses the periodic scan cadence only
//! signals, and the worker runs the pass off the insert path; with no
//! worker, that insert runs the same pass on its own thread and pays
//! its latency. Passes are serialized on one mutex, whoever drives them.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard};

use li_core::delta::{DeltaIndex, DeltaSnapshot};
use li_core::rmi::RmiConfig;
use li_index::partition::{boundaries, even_offsets};
use li_index::KeyStore;
use li_obs::MetricsSnapshot;

use crate::obs::ServeMetrics;
use crate::rebalance_worker::WorkerLink;
use crate::router::ShardRouter;
use crate::wal::Wal;
use crate::writable::WritableShard;

mod config;
mod durability;
mod get;
mod maintenance;
mod snapshot;
mod write;

pub use config::{Backend, ShardedWritableConfig};
pub use durability::RecoveryReport;
pub use snapshot::ShardedSnapshot;

use maintenance::build_retuned_shard;
/// One immutable shard topology: the router over the ownership bounds,
/// and the shard handles. Published atomically as a whole — readers and
/// writers always see a router and shards that agree.
#[derive(Debug)]
struct Topology {
    /// Its boundaries are the ownership-range lower bounds of shards
    /// `1..N` (sorted).
    router: ShardRouter,
    shards: Vec<Arc<WritableShard>>,
    /// Bumped on every rebalance publication.
    generation: u64,
}

/// Source of [`ShardedWritable`] ids: a thread's get cache names its
/// store by id, never by address, so a store allocated where a dropped
/// one lived cannot match that one's cache entry.
static NEXT_STORE_ID: AtomicU64 = AtomicU64::new(0);

/// A fully sharded concurrent write path: concurrent inserts routed by
/// key ownership, lock-free snapshot reads, and dynamic shard
/// rebalancing with per-shard model retuning. See the module docs (and
/// `ARCHITECTURE.md` at the repository root) for the architecture and
/// for where maintenance runs.
///
/// # Examples
/// ```
/// use li_serve::{ShardedWritable, ShardedWritableConfig};
///
/// let data: Vec<u64> = (0..1000u64).collect();
/// let sw = ShardedWritable::new(data, 4, ShardedWritableConfig::default());
/// assert!(sw.insert(5000));
///
/// // The batched write path: one topology-lock acquisition, one lock
/// // handoff per touched shard, per-key newly-inserted flags back.
/// let flags = sw.insert_batch(&[5000, 6000, 6000]);
/// assert_eq!(flags, vec![false, true, false]);
///
/// // Reads compose over a consistent lock-free snapshot.
/// let snap = sw.snapshot();
/// assert_eq!(snap.len(), 1002);
/// assert!(snap.contains(6000));
/// assert_eq!(snap.rank(1000), 1000);
/// ```
#[derive(Debug)]
pub struct ShardedWritable {
    /// This store's id in the thread-local get caches.
    id: u64,
    topo: RwLock<Arc<Topology>>,
    /// The published topology's generation, stored under the topology
    /// write lock at every publication, so a get can check its cached
    /// topology without the lock.
    published: AtomicU64,
    config: ShardedWritableConfig,
    /// Successful (key-adding) inserts, for the periodic rebalance
    /// scan. Kept as a plain global atomic (not an `li-obs` striped
    /// counter) because the scan trigger needs an exact before/after
    /// pair from one `fetch_add` — control logic, not telemetry.
    inserts: AtomicUsize,
    /// The observability bundle: op counters, latency histograms, the
    /// structural-event ring, and the **single source of truth** for
    /// the split/merge/compaction counters behind
    /// [`ShardedWritable::splits`] and friends. Shared (via `Arc`
    /// clones) with every shard, the WAL and the background worker.
    obs: Arc<ServeMetrics>,
    /// Link to an attached background rebalance worker. `None` (the
    /// default) means inserts run maintenance inline; `Some` means
    /// inserts only signal — the worker owns maintenance.
    worker: RwLock<Option<Arc<WorkerLink>>>,
    /// Serializes maintenance passes: N writers that see the same hot
    /// shard run one split between them, not N rebuilds of which all
    /// but one lose the publish race.
    maintenance: Mutex<()>,
    /// The attached write-ahead log, when this structure is durable
    /// (see [`ShardedWritable::enable_wal`] /
    /// [`ShardedWritable::recover`]). Writers hold this mutex across
    /// *append + in-memory apply* and `save` holds it across *cut +
    /// publish + truncate*, so the snapshot LSN provably bounds the
    /// cut — the lock order (WAL mutex, then topology lock) is the
    /// same everywhere.
    wal: Mutex<Option<Wal>>,
    /// Fast-path flag mirroring `wal.is_some()`: the non-durable
    /// insert path stays exactly as lock-free as before a WAL existed
    /// (one relaxed-ish atomic load, no mutex touched).
    durable: AtomicBool,
}

impl ShardedWritable {
    /// Build over initial sorted unique `data`, range-partitioned into
    /// `shards` balanced shards (clamped to at least 1 and at most one
    /// shard per key; the rebalancer grows the topology as load
    /// arrives). The initial partition is zero-copy: every shard's base
    /// is a [`KeyStore::slice`] of the caller's allocation.
    pub fn new(data: impl Into<KeyStore>, shards: usize, config: ShardedWritableConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|rule| panic!("invalid ShardedWritableConfig: {rule}"));
        let obs = Arc::new(ServeMetrics::new());
        let store: KeyStore = data.into();
        let n = shards.clamp(1, store.len().max(1));
        let offsets = even_offsets(store.len(), n);
        let shard_vec: Vec<Arc<WritableShard>> = offsets
            .windows(2)
            .map(|w| Arc::new(build_retuned_shard(store.slice(w[0]..w[1]), &config, &obs)))
            .collect();
        let router = ShardRouter::new(boundaries(&store, &offsets));
        Self {
            id: NEXT_STORE_ID.fetch_add(1, Ordering::Relaxed),
            topo: RwLock::new(Arc::new(Topology {
                router,
                shards: shard_vec,
                generation: 0,
            })),
            published: AtomicU64::new(0),
            config,
            inserts: AtomicUsize::new(0),
            obs,
            worker: RwLock::new(None),
            maintenance: Mutex::new(()),
            wal: Mutex::new(None),
            durable: AtomicBool::new(false),
        }
    }

    /// Total keys across all shards. Each shard's count is read
    /// consistently; under concurrent inserts the sum is a moment-close
    /// approximation — take a [`ShardedWritable::snapshot`] for a
    /// single-topology consistent view.
    pub fn len(&self) -> usize {
        self.topo_guard().shards.iter().map(|s| s.len()).sum()
    }

    /// Whether the structure holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of keys `< key`: the lengths of the shards below the
    /// owner of `key` plus the owner's own rank. Those shards are
    /// read-locked together (see [`ShardedWritable::range_keys`]), so
    /// the answer describes one instant; nothing is copied, and only
    /// writers to shards `0..=owner` wait on it.
    pub fn rank(&self, key: u64) -> usize {
        let topo = self.topo_guard();
        let owner = topo.router.route_owner(key);
        let mut rank = 0;
        let mut s = 0;
        read_locked(&topo.shards[..=owner], &mut |shard| {
            rank += if s == owner {
                shard.rank(key)
            } else {
                shard.len()
            };
            s += 1;
        });
        rank
    }

    /// All keys in `[lo, hi)`, sorted, read in place from the shards
    /// that own the range: under the topology read guard, the owners of
    /// `lo` and of `hi - 1` and every shard between them are read-locked
    /// together, in ascending shard order, and their scans concatenated
    /// (globally sorted by the ownership invariant). No snapshot is
    /// taken and no buffer copied; only writers to those shards wait on
    /// the scan. The answer describes one instant of the store.
    pub fn range_keys(&self, lo: u64, hi: u64) -> Vec<u64> {
        if hi <= lo {
            return Vec::new();
        }
        let topo = self.topo_guard();
        let first = topo.router.route_owner(lo);
        let last = topo.router.route_owner(hi - 1);
        let mut out = Vec::new();
        read_locked(&topo.shards[first..=last], &mut |shard| {
            let keys = shard.range_keys(lo, hi);
            if out.is_empty() {
                out = keys;
            } else {
                out.extend(keys);
            }
        });
        out
    }

    /// Current shard count.
    pub fn shard_count(&self) -> usize {
        self.topo_guard().shards.len()
    }

    /// Current per-shard key counts (diagnostics and tests).
    pub fn shard_lens(&self) -> Vec<usize> {
        self.topo_guard().shards.iter().map(|s| s.len()).collect()
    }

    /// Current ownership boundary keys (one per shard beyond the
    /// first).
    pub fn bounds(&self) -> Vec<u64> {
        self.topo_guard().router.boundaries().to_vec()
    }

    /// Topology generation: bumped on every published rebalance.
    pub fn generation(&self) -> u64 {
        self.topo_guard().generation
    }

    /// The structure's observability bundle — shared (by `Arc` clone)
    /// with its shards, WAL and background worker. Walk it for typed
    /// access to individual counters and histograms.
    pub fn metrics_handle(&self) -> &Arc<ServeMetrics> {
        &self.obs
    }

    /// A consistent point-in-time [`MetricsSnapshot`] of every op
    /// counter, latency histogram, gauge and the structural-event tail.
    ///
    /// The per-shard gauge sets (`li_shard_len{shard="i"}`,
    /// `li_shard_runs`, `li_shard_pending`) and the topology gauges are
    /// refreshed under the topology read lock, and the registry is
    /// snapshotted **while that guard is held** — so the gauges always
    /// describe the same topology generation the snapshot reports.
    ///
    /// # Examples
    /// ```
    /// use li_serve::{ShardedWritable, ShardedWritableConfig};
    ///
    /// let sw = ShardedWritable::new(vec![1u64, 2, 3], 2, ShardedWritableConfig::default());
    /// sw.insert(10);
    /// sw.insert_batch(&[20, 30, 40]);
    /// let snap = sw.metrics();
    /// // Scalar inserts and batch keys are counted apart, every key once.
    /// assert_eq!(snap.counter("li_inserts_total"), Some(1));
    /// assert_eq!(snap.counter("li_batch_insert_keys_total"), Some(3));
    /// assert_eq!(snap.histogram("li_batch_insert_ns").map(|h| h.count()), Some(1));
    /// assert_eq!(snap.gauge("li_shard_count"), Some(2));
    /// assert!(snap.render_text().contains("li_shard_len{shard=\"0\"}"));
    /// ```
    pub fn metrics(&self) -> MetricsSnapshot {
        let guard = self.topo_guard();
        let lens: Vec<u64> = guard.shards.iter().map(|s| s.len() as u64).collect();
        let runs: Vec<u64> = guard.shards.iter().map(|s| s.run_count() as u64).collect();
        let pending: Vec<u64> = guard.shards.iter().map(|s| s.pending() as u64).collect();
        self.obs.shard_len.set_all(&lens);
        self.obs.shard_runs.set_all(&runs);
        self.obs.shard_pending.set_all(&pending);
        self.obs.shard_count.set(guard.shards.len() as i64);
        self.obs.generation.set(guard.generation as i64);
        self.obs.registry().snapshot()
    }

    /// The Prometheus-style text exposition of
    /// [`ShardedWritable::metrics`] (counters, gauges, summary
    /// quantiles per histogram, and the event tail as comments).
    pub fn render_text(&self) -> String {
        self.metrics().render_text()
    }

    /// How many shard splits have been applied. A thin read of the
    /// metrics registry's `li_shard_splits_total` counter — the single
    /// source of truth both this accessor and
    /// [`ShardedWritable::metrics`] report from, so they can never
    /// drift apart.
    pub fn splits(&self) -> usize {
        self.obs.splits.value() as usize
    }

    /// How many shard merges have been applied (thin read of
    /// `li_shard_merges_total`; see [`ShardedWritable::splits`]).
    pub fn shard_merges(&self) -> usize {
        self.obs.shard_merges.value() as usize
    }

    /// How many run-stack compactions have been applied (shards whose
    /// sealed runs were folded into the base with one retrain; run
    /// merges are not counted here). While a [`crate::RebalanceWorker`]
    /// is attached, every compaction happens on the worker, so this
    /// equals the worker's own compaction counter. (Thin read of
    /// `li_compactions_total`; see [`ShardedWritable::splits`].)
    pub fn compactions(&self) -> usize {
        self.obs.compactions.value() as usize
    }

    /// How many full run stacks have been merged into one run instead
    /// of folded (no retrain). Like [`ShardedWritable::compactions`],
    /// this equals the worker's own count while one is attached. (Thin
    /// read of `li_run_merges_total`.)
    pub fn run_merges(&self) -> usize {
        self.obs.run_merges.value() as usize
    }

    /// Sealed runs currently stacked across all shards, between the
    /// buffers and the bases.
    pub fn run_count(&self) -> usize {
        self.topo_guard().shards.iter().map(|s| s.run_count()).sum()
    }

    /// Keys held in sealed runs across all shards (between the mutable
    /// buffers and the learned bases).
    pub fn sealed_keys(&self) -> usize {
        self.topo_guard()
            .shards
            .iter()
            .map(|s| s.sealed_keys())
            .sum()
    }

    /// Keys waiting in delta buffers across all shards.
    pub fn pending(&self) -> usize {
        self.topo_guard().shards.iter().map(|s| s.pending()).sum()
    }

    // Poison recovery (all `self.topo` lock sites): the only mutation
    // any code performs under the topology write lock is the final
    // `*guard = Arc::new(next)` — a pointer-sized swap of a *fully
    // constructed* replacement topology. Every fallible step (planning,
    // key export, shard retraining) runs before that assignment, so at
    // every possible panic point the published `Arc<Topology>` is
    // internally consistent. A poisoned flag therefore carries no
    // information about data validity here; recovering with
    // `into_inner` keeps readers and writers alive instead of turning
    // one panicking thread into a process-wide outage. (The `worker`
    // slot makes the same argument for its plain `Option` pointer.)
    //
    // Lock order: WAL mutex → maintenance mutex → topology → shards in
    // ascending index. Nothing that holds a shard lock ever waits on the
    // topology, nothing that holds either waits on the maintenance
    // mutex, and a thread holding this guard must never take it again:
    // `std`'s RwLock queues new readers behind a waiting rebalance
    // writer.
    fn topo_guard(&self) -> RwLockReadGuard<'_, Arc<Topology>> {
        self.topo.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Everything the persistence layer needs, captured under one read
    /// guard so a concurrent rebalance cannot tear it: the ownership
    /// bounds plus each shard's (snapshot, retrain config, merge
    /// threshold) triple.
    pub(crate) fn persist_parts(&self) -> (Vec<u64>, Vec<(DeltaSnapshot, RmiConfig, usize)>) {
        let guard = self.topo_guard();
        let states = guard.shards.iter().map(|s| s.persist_state()).collect();
        (guard.router.boundaries().to_vec(), states)
    }

    /// Reassemble a structure from loaded state: per-shard
    /// [`WritableShard`]s already populated with their trained bases
    /// and replayed deltas, plus the ownership bounds they were saved
    /// under. The router is built over the bounds (no model is
    /// trained); counters restart at zero and the generation at 0,
    /// matching a fresh build.
    pub(crate) fn from_loaded(
        bounds: Vec<u64>,
        shards: Vec<Arc<WritableShard>>,
        config: ShardedWritableConfig,
    ) -> Self {
        config
            .validate()
            .unwrap_or_else(|rule| panic!("invalid ShardedWritableConfig: {rule}"));
        assert_eq!(bounds.len() + 1, shards.len(), "one bound per extra shard");
        let obs = Arc::new(ServeMetrics::new());
        for shard in &shards {
            shard.attach_obs(Arc::clone(&obs));
        }
        Self {
            id: NEXT_STORE_ID.fetch_add(1, Ordering::Relaxed),
            topo: RwLock::new(Arc::new(Topology {
                router: ShardRouter::new(bounds),
                shards,
                generation: 0,
            })),
            published: AtomicU64::new(0),
            config,
            inserts: AtomicUsize::new(0),
            obs,
            worker: RwLock::new(None),
            maintenance: Mutex::new(()),
            wal: Mutex::new(None),
            durable: AtomicBool::new(false),
        }
    }

    /// The configuration this structure was built with.
    pub(crate) fn config(&self) -> &ShardedWritableConfig {
        &self.config
    }
}

/// Call `visit` on each of `shards` in ascending order, taking each
/// shard's read lock before its visit and releasing none until the last
/// visit returns. Every guard is held at the moment the last one is
/// taken, and no shard can change while its guard is held, so the
/// visits together read one instant of all the shards: no writer lands
/// between two of them. Recursion instead of a vector of guards keeps
/// the read allocation-free; its depth is the shard count.
fn read_locked(shards: &[Arc<WritableShard>], visit: &mut impl FnMut(&DeltaIndex)) {
    if let Some((first, rest)) = shards.split_first() {
        let guard = first.read_lock();
        visit(&guard);
        read_locked(rest, visit);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::rebalance::RebalanceConfig;

    /// A small store: 8-key buffers, splits past 64 keys, merges at 16.
    pub(crate) fn small_cfg() -> ShardedWritableConfig {
        ShardedWritableConfig {
            merge_threshold: 8,
            leaf_fraction: 1.0 / 16.0,
            check_interval: 16,
            rebalance: RebalanceConfig {
                max_shard_len: 64,
                merge_max_len: 16,
                max_shards: 16,
            },
            ..ShardedWritableConfig::default()
        }
    }

    #[test]
    fn builds_and_serves_like_the_oracle() {
        let data: Vec<u64> = (0..200u64).map(|i| i * 3).collect();
        let sw = ShardedWritable::new(data.clone(), 4, small_cfg());
        assert_eq!(sw.shard_count(), 4);
        assert_eq!(sw.len(), 200);
        for q in [0u64, 1, 3, 299, 300, 597, 600, u64::MAX] {
            assert_eq!(sw.contains(q), data.binary_search(&q).is_ok(), "q={q}");
            assert_eq!(sw.rank(q), data.partition_point(|&k| k < q), "q={q}");
        }
    }

    #[test]
    fn empty_and_tiny_initial_sets() {
        let cfg = small_cfg();
        let empty = ShardedWritable::new(Vec::<u64>::new(), 4, cfg.clone());
        assert_eq!(empty.shard_count(), 1, "clamped");
        assert!(empty.is_empty());
        assert!(!empty.contains(0));
        assert!(empty.insert(42));
        assert_eq!(empty.len(), 1);
        assert_eq!(empty.rank(u64::MAX), 1);

        let single = ShardedWritable::new(vec![9u64], 4, cfg);
        assert_eq!(single.shard_count(), 1);
        assert!(single.contains(9));
        assert_eq!(single.rank(9), 0);
        assert_eq!(single.rank(10), 1);
    }

    #[test]
    fn max_key_round_trips() {
        let sw = ShardedWritable::new(vec![0u64, 5, u64::MAX - 1], 3, small_cfg());
        assert!(sw.insert(u64::MAX));
        assert!(sw.contains(u64::MAX));
        assert!(!sw.insert(u64::MAX));
        let snap = sw.snapshot();
        assert_eq!(snap.rank(u64::MAX), 3);
        assert_eq!(snap.len(), 4);
        assert_eq!(snap.range_keys(u64::MAX - 1, u64::MAX), vec![u64::MAX - 1]);
    }

    #[test]
    fn initial_partition_is_zero_copy() {
        let store = KeyStore::new((0..1000u64).collect());
        let sw = ShardedWritable::new(store.clone(), 8, ShardedWritableConfig::default());
        // 1 caller handle + at least one per shard base.
        assert!(store.strong_count() >= 9, "count {}", store.strong_count());
        drop(sw);
        assert_eq!(store.strong_count(), 1);
    }

    #[test]
    fn topology_poison_does_not_take_down_readers_or_writers() {
        let data: Vec<u64> = (0..200u64).map(|i| i * 5).collect();
        let sw = ShardedWritable::new(data, 3, small_cfg());
        // A thread dies holding the topology write lock *before* any
        // mutation — exactly the state every real panic site leaves
        // behind (the only write under this lock is the final
        // fully-built `Arc` swap; see the poison-recovery note on
        // `topo_guard`).
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = sw.topo.write().unwrap();
            panic!("rebalancer dies mid-critical-section");
        }));
        assert!(result.is_err());
        assert!(sw.topo.is_poisoned(), "the lock really was poisoned");

        // Reads, writes, snapshots and rebalancing all keep working.
        assert!(sw.contains(5));
        assert!(sw.insert(7));
        assert!(sw.contains(7));
        let snap = sw.snapshot();
        assert_eq!(snap.len(), 201);
        assert_eq!(sw.range_keys(0, 11), vec![0, 5, 7, 10]);
        sw.rebalance();
        assert!(sw.insert(8));
        assert_eq!(sw.len(), 202);
    }
}
