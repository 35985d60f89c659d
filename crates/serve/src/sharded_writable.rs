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
//! worker, that insert runs the same pass on its own thread. Passes are
//! serialized on one mutex, whoever drives them.
//!
//! # Per-shard retuning
//!
//! Every shard (re)build sizes its RMI leaf count from the shard's
//! actual key count (`leaf_fraction`), then *retunes* through the same
//! loop the read path's `RmiShardBuilder::with_retune` uses: while the
//! trained base's error stats exceed the configured
//! [`RetunePolicy`], the build retries with doubled leaf density — so
//! a skewed key region gets a denser model instead of a permanently
//! mispredicting one. Under [`Backend::Rmi`] the leaf count is an
//! ε-corridor's segment budget: the base takes the smallest ε that fits
//! it, and a fold starts at the shard's current ε. Between rebuilds, a
//! shard whose region turned hot anyway is caught by the
//! error-triggered split in [`crate::rebalance::plan`].

use std::cell::RefCell;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard};
use std::time::Instant;

use li_core::delta::{DeltaIndex, DeltaSnapshot, DEFAULT_MAX_RUNS};
use li_core::rmi::{RmiConfig, TopModel};
use li_index::partition::{boundaries, even_offsets, split_point};
use li_index::KeyStore;
use li_obs::MetricsSnapshot;

use crate::builder::{retune_rmi, RetunePolicy};
use crate::obs::{events, ServeMetrics};
use crate::persist::PersistError;
use crate::rebalance::{plan, RebalanceAction, RebalanceConfig};
use crate::rebalance_worker::WorkerLink;
use crate::router::ShardRouter;
use crate::select::{train_selected, Backend};
use crate::wal::{self, Wal, WalOp, WalSyncPolicy};
use crate::writable::{CachedTiers, WritableShard};

/// Configuration of a [`ShardedWritable`].
///
/// # Examples
/// ```
/// use li_serve::{RebalanceConfig, ShardedWritable, ShardedWritableConfig};
///
/// let config = ShardedWritableConfig {
///     merge_threshold: 256, // buffered inserts per shard between seals
///     check_interval: 512,  // periodic rebalance scan cadence
///     rebalance: RebalanceConfig {
///         max_shard_len: 4096, // split a shard beyond this
///         merge_max_len: 1024, // merge neighbors at/below this combined
///         ..RebalanceConfig::default()
///     },
///     ..ShardedWritableConfig::default()
/// };
/// let sw = ShardedWritable::new((0..10_000u64).collect::<Vec<_>>(), 4, config);
/// assert_eq!(sw.shard_count(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct ShardedWritableConfig {
    /// Per-shard delta-buffer capacity: a full buffer is sealed into a
    /// run.
    pub merge_threshold: usize,
    /// RMI leaf models per key when (re)building a shard (min 1 leaf);
    /// under [`Backend::Rmi`], the most ε-corridor segments per key.
    pub leaf_fraction: f64,
    /// Per-shard retuning on every shard (re)build — the same policy
    /// vocabulary (and the same loop) as
    /// [`crate::builder::RmiShardBuilder::with_retune`].
    pub retune: RetunePolicy,
    /// Run a full rebalance scan every this many successful inserts
    /// (in addition to the immediate check when an insert pushes its
    /// shard over the split threshold). `0` disables periodic scans.
    pub check_interval: usize,
    /// Run-stack bound, at least 1 (default
    /// [`li_core::delta::DEFAULT_MAX_RUNS`] = 4): once this many sealed
    /// runs have stacked up in a shard, the next maintenance pass either
    /// merges them into one run or — when they hold 1/16 of the base
    /// ([`li_core::delta::RUN_TIER_RATIO`]), or the bound is 1 — folds
    /// them into the base with ONE retrain. `1` is the paper's D.1
    /// cycle: every full buffer is folded. The pass runs on the attached
    /// [`crate::RebalanceWorker`] when there is one, inline otherwise.
    pub max_runs: usize,
    /// How every shard (re)build trains its base (default
    /// [`Backend::Rmi`] — a retuned ε-corridor RMI). [`Backend::Auto`]
    /// re-runs the adaptive grid search (`crate::select`) on every
    /// shard build, split, merge and compaction, so each shard's
    /// backend family follows its own drifting key distribution;
    /// [`Backend::BTree`] pins every shard
    /// to the all-B-Tree-leaf hybrid. The write tier's delta base must
    /// stay an RMI structurally, so `Interp`/`Fast` are rejected by
    /// validation here (they remain read-tier backends).
    pub backend: Backend,
    /// Hot-path observability (default `true`): count every insert and
    /// latency-sample 1-in-N of them into the structure's
    /// [`ServeMetrics`]. `false` strips the per-op instrumentation from
    /// the insert fast path (one branch remains) — the benchmark's
    /// `obs.insert_overhead_ratio` layer compares the two. Structural metrics (splits,
    /// merges, compactions, WAL and worker activity) record regardless:
    /// they are cold-path and double as the structure's own counters.
    pub observe: bool,
    /// Split/merge thresholds.
    pub rebalance: RebalanceConfig,
}

impl Default for ShardedWritableConfig {
    fn default() -> Self {
        Self {
            merge_threshold: 1024,
            leaf_fraction: 1.0 / 200.0,
            retune: RetunePolicy::default(),
            check_interval: 1024,
            max_runs: DEFAULT_MAX_RUNS,
            backend: Backend::Rmi,
            observe: true,
            rebalance: RebalanceConfig::default(),
        }
    }
}

impl ShardedWritableConfig {
    fn validate(&self) {
        assert!(self.merge_threshold > 0, "merge_threshold must be > 0");
        assert!(self.max_runs >= 1, "max_runs must be >= 1");
        assert!(
            self.leaf_fraction > 0.0 && self.leaf_fraction.is_finite(),
            "leaf_fraction must be positive and finite"
        );
        assert!(
            self.retune.max_mean_err >= 0.0 && self.retune.max_mean_err.is_finite(),
            "retune.max_mean_err must be finite and >= 0"
        );
        assert!(
            matches!(self.backend, Backend::Auto | Backend::Rmi | Backend::BTree),
            "the write tier's delta base must be an RMI (plain or hybrid): \
             backend must be Auto, Rmi or BTree"
        );
        self.rebalance.validate();
    }
}

/// One immutable shard topology: ownership bounds, the router over
/// them, and the shard handles. Published atomically as a whole —
/// readers and writers always see bounds, router and shards that agree.
#[derive(Debug)]
struct Topology {
    /// Ownership-range lower bounds of shards `1..N` (sorted).
    bounds: Vec<u64>,
    router: ShardRouter,
    shards: Vec<Arc<WritableShard>>,
    /// Bumped on every rebalance publication.
    generation: u64,
}

/// Source of [`ShardedWritable`] ids: a thread's get cache names its
/// store by id, never by address, so a store allocated where a dropped
/// one lived cannot match that one's cache entry.
static NEXT_STORE_ID: AtomicU64 = AtomicU64::new(0);

/// One thread's get cache: the topology of the store it last read, and a
/// copy of each of that topology's shards' immutable tiers.
struct GetCache {
    store: u64,
    generation: u64,
    topo: Arc<Topology>,
    shards: Vec<CachedTiers>,
}

impl GetCache {
    fn new(store: u64, topo: &Arc<Topology>) -> Self {
        Self {
            store,
            generation: topo.generation,
            topo: Arc::clone(topo),
            shards: topo.shards.iter().map(|_| CachedTiers::empty()).collect(),
        }
    }

    /// Whether this entry describes `store` at topology `generation`.
    fn describes(&self, store: u64, generation: u64) -> bool {
        self.store == store && self.generation == generation
    }
}

thread_local! {
    /// One entry per thread: a thread that alternates between stores
    /// re-reads each under its locks, and stays exact.
    static GET_CACHE: RefCell<Option<GetCache>> = const { RefCell::new(None) };
}

/// A fully sharded concurrent write path: concurrent inserts routed by
/// key ownership, lock-free snapshot reads, and dynamic shard
/// rebalancing with per-shard model retuning. See the module docs (and
/// `ARCHITECTURE.md` at the repository root) for the architecture.
///
/// Maintenance — run merges, folds, splits and shard merges — is one
/// pass, run in one of two places:
///
/// * **Inline** (the default): the insert that fills a run stack, pushes
///   a shard over its threshold or crosses the periodic scan cadence
///   runs the pass on its own thread, paying its latency. Other writers
///   keep going: rebuilds run with no topology lock held, and only the
///   publish takes the write lock briefly.
/// * **Background**: with a [`crate::RebalanceWorker`] attached,
///   inserts only record pressure into lock-free counters and signal
///   the worker, which runs the same pass off the insert path.
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
    /// inserts only record pressure and signal — the worker owns it.
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
        config.validate();
        let obs = Arc::new(ServeMetrics::new());
        let store: KeyStore = data.into();
        let n = shards.clamp(1, store.len().max(1));
        let offsets = even_offsets(store.len(), n);
        let bounds = boundaries(&store, &offsets);
        let shard_vec: Vec<Arc<WritableShard>> = offsets
            .windows(2)
            .map(|w| Arc::new(build_retuned_shard(store.slice(w[0]..w[1]), &config, &obs)))
            .collect();
        let router = ShardRouter::new(bounds.clone());
        Self {
            id: NEXT_STORE_ID.fetch_add(1, Ordering::Relaxed),
            topo: RwLock::new(Arc::new(Topology {
                bounds,
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

    /// Insert a key, returning whether it was newly inserted (`false`
    /// for duplicates). Routes to the owner shard under the topology
    /// read lock — concurrent inserts to different shards proceed in
    /// parallel. When the owner's run stack fills, it runs hot or the
    /// periodic scan comes due, either runs a maintenance pass inline
    /// or (with a [`crate::RebalanceWorker`] attached) signals the
    /// background worker.
    ///
    /// With a WAL attached the key is logged **before** it touches the
    /// in-memory tiers. This signature stays infallible: a WAL I/O
    /// failure is *latched* (the write is still applied and
    /// acknowledged in memory, but is no longer durable) and surfaces
    /// on the next [`ShardedWritable::try_insert`],
    /// [`ShardedWritable::wal_sync`] or via
    /// [`ShardedWritable::wal_failure`] — the same window group commit
    /// already leaves open between sync points. Durable pipelines that
    /// must not acknowledge non-durable writes use
    /// [`ShardedWritable::try_insert`].
    pub fn insert(&self, key: u64) -> bool {
        // Observability: count every insert and decide the 1-in-N
        // latency sample with ONE relaxed striped add (`incr_sampled`),
        // so the two `Instant::now` calls never dominate the hot path
        // (see `crate::obs`).
        if self.config.observe && self.obs.inserts.incr_sampled(crate::obs::INSERT_SAMPLE) {
            let t = Instant::now();
            let r = self.insert_logged(key);
            self.obs.insert_ns.record_since(t);
            return r;
        }
        self.insert_logged(key)
    }

    /// The WAL-then-memory insert body behind [`ShardedWritable::insert`].
    fn insert_logged(&self, key: u64) -> bool {
        if self.durable.load(Ordering::Acquire) {
            let mut slot = self.wal.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(w) = slot.as_mut() {
                // Failure latched inside the Wal; see the doc above.
                let _ = w.append_insert(key);
                if self.config.observe {
                    self.obs.durable_inserts.incr();
                }
                return self.insert_unlogged(key);
            }
        }
        self.insert_unlogged(key)
    }

    /// [`ShardedWritable::insert`] with WAL errors surfaced instead of
    /// latched: the write is applied (and acknowledged) only after its
    /// record is accepted by the log, so an `Err` means the key was
    /// **not** inserted. Identical to `insert` when no WAL is attached.
    pub fn try_insert(&self, key: u64) -> Result<bool, PersistError> {
        if self.config.observe {
            self.obs.inserts.incr();
        }
        if self.durable.load(Ordering::Acquire) {
            let mut slot = self.wal.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(w) = slot.as_mut() {
                w.append_insert(key)?;
                if self.config.observe {
                    self.obs.durable_inserts.incr();
                }
                return Ok(self.insert_unlogged(key));
            }
        }
        Ok(self.insert_unlogged(key))
    }

    /// The WAL-free insert body shared by the scalar write paths.
    fn insert_unlogged(&self, key: u64) -> bool {
        let obs = {
            // The read *guard* (not just the topology Arc) must live
            // across the shard insert: it is what excludes a concurrent
            // rebalance from exporting this shard's keys and publishing
            // a replacement topology while the key lands in the old,
            // about-to-be-discarded shard — a silently lost insert.
            let guard = self.topo_guard();
            let s = guard.router.route_owner(key);
            guard.shards[s].insert_observed(key)
            // Guard drops here, before an inline maintenance pass
            // takes further locks.
        };
        if obs.inserted || obs.needs_compaction {
            self.note_inserts(
                usize::from(obs.inserted),
                if obs.inserted { obs.len } else { 0 },
                obs.needs_compaction,
            );
        }
        obs.inserted
    }

    /// Insert a whole batch, returning one newly-inserted flag per key
    /// in input order (`false` for keys already present and for the
    /// second and later occurrences of a key duplicated within the
    /// batch — exactly the flags N scalar [`ShardedWritable::insert`]
    /// calls would return).
    ///
    /// The batch is bucketed per owner shard (mirroring the read path's
    /// `lower_bound_batch` plan): the topology read lock is taken
    /// **once** for the whole batch, and each touched shard gets **one**
    /// write-lock handoff and at most one seal, instead of one of each
    /// per key. Maintenance pressure is accounted once at the end, so a
    /// batch triggers at most one inline maintenance pass (or one
    /// worker signal).
    ///
    /// With a WAL attached the whole batch is logged as **one atomic
    /// record** before any key touches the in-memory tiers (same
    /// latched-failure semantics as [`ShardedWritable::insert`];
    /// [`ShardedWritable::try_insert_batch`] surfaces errors instead).
    ///
    /// # Examples
    /// ```
    /// use li_serve::{ShardedWritable, ShardedWritableConfig};
    ///
    /// let sw = ShardedWritable::new(vec![10u64, 20, 30], 2, ShardedWritableConfig::default());
    /// let flags = sw.insert_batch(&[5, 20, 25, 5]);
    /// assert_eq!(flags, vec![true, false, true, false]);
    /// assert_eq!(sw.len(), 5);
    /// ```
    pub fn insert_batch(&self, keys: &[u64]) -> Vec<bool> {
        // One timer pair amortized over the whole batch: count every
        // key, record the per-key average latency.
        if self.config.observe && !keys.is_empty() {
            self.obs.batch_inserts.add(keys.len() as u64);
            let t = Instant::now();
            let flags = self.insert_batch_logged(keys);
            let per_key = t.elapsed().as_nanos() as u64 / keys.len() as u64;
            self.obs.batch_insert_ns.record(per_key);
            return flags;
        }
        self.insert_batch_logged(keys)
    }

    /// The WAL-then-memory batch body behind
    /// [`ShardedWritable::insert_batch`].
    fn insert_batch_logged(&self, keys: &[u64]) -> Vec<bool> {
        if self.durable.load(Ordering::Acquire) && !keys.is_empty() {
            let mut slot = self.wal.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(w) = slot.as_mut() {
                let _ = w.append_batch(keys); // failure latched inside
                if self.config.observe {
                    self.obs.durable_inserts.add(keys.len() as u64);
                }
                return self.insert_batch_unlogged(keys);
            }
        }
        self.insert_batch_unlogged(keys)
    }

    /// [`ShardedWritable::insert_batch`] with WAL errors surfaced
    /// instead of latched: on `Err` **no key of the batch** was
    /// applied (the batch record is all-or-nothing in the log, so the
    /// in-memory apply is too). Identical to `insert_batch` when no
    /// WAL is attached.
    pub fn try_insert_batch(&self, keys: &[u64]) -> Result<Vec<bool>, PersistError> {
        if self.config.observe && !keys.is_empty() {
            self.obs.batch_inserts.add(keys.len() as u64);
        }
        if self.durable.load(Ordering::Acquire) && !keys.is_empty() {
            let mut slot = self.wal.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(w) = slot.as_mut() {
                w.append_batch(keys)?;
                if self.config.observe {
                    self.obs.durable_inserts.add(keys.len() as u64);
                }
                return Ok(self.insert_batch_unlogged(keys));
            }
        }
        Ok(self.insert_batch_unlogged(keys))
    }

    /// The WAL-free batch body shared by every write path (recovery
    /// replay uses it directly — replayed records must not re-log).
    fn insert_batch_unlogged(&self, keys: &[u64]) -> Vec<bool> {
        let mut flags = vec![false; keys.len()];
        if keys.is_empty() {
            return flags;
        }
        let (newly, max_owner_len, compaction_due) = {
            // Same guard discipline as `insert`: hold the read lock
            // across every shard handoff so no rebalance can swap the
            // topology mid-batch.
            let guard = self.topo_guard();
            let n = guard.shards.len();
            let mut newly = 0usize;
            let mut max_owner_len = 0usize;
            let mut compaction_due = false;
            if n == 1 {
                let (shard_flags, obs) = guard.shards[0].insert_batch_observed(keys);
                flags = shard_flags;
                newly = flags.iter().filter(|&&f| f).count();
                if newly > 0 {
                    max_owner_len = obs.len;
                }
                compaction_due = obs.needs_compaction;
            } else {
                // Bucket per owner shard, remembering each key's slot
                // so the flags scatter back in input order.
                let mut bucket_keys: Vec<Vec<u64>> = vec![Vec::new(); n];
                let mut bucket_slots: Vec<Vec<usize>> = vec![Vec::new(); n];
                for (slot, &k) in keys.iter().enumerate() {
                    let s = guard.router.route_owner(k);
                    bucket_keys[s].push(k);
                    bucket_slots[s].push(slot);
                }
                for ((bkeys, bslots), shard) in bucket_keys
                    .iter()
                    .zip(&bucket_slots)
                    .zip(guard.shards.iter())
                {
                    if bkeys.is_empty() {
                        continue;
                    }
                    let (shard_flags, obs) = shard.insert_batch_observed(bkeys);
                    let added = shard_flags.iter().filter(|&&f| f).count();
                    if added > 0 {
                        newly += added;
                        max_owner_len = max_owner_len.max(obs.len);
                    }
                    compaction_due |= obs.needs_compaction;
                    for (&slot, &f) in bslots.iter().zip(&shard_flags) {
                        flags[slot] = f;
                    }
                }
            }
            (newly, max_owner_len, compaction_due)
        };
        if newly > 0 || compaction_due {
            self.note_inserts(newly, max_owner_len, compaction_due);
        }
        flags
    }

    /// Shared post-insert accounting for the scalar and batched write
    /// paths: bump the global insert counter, then either record
    /// pressure on the attached background worker's lock-free board
    /// (signaling it when a shard ran hot, a run stack filled, or the
    /// periodic scan cadence was crossed) or run the maintenance pass
    /// inline for the same triggers.
    fn note_inserts(&self, newly: usize, max_owner_len: usize, compaction_due: bool) {
        let before = self.inserts.fetch_add(newly, Ordering::Relaxed);
        let after = before + newly;
        let owner_hot = max_owner_len > self.config.rebalance.max_shard_len;
        let periodic = self.config.check_interval > 0
            && before / self.config.check_interval != after / self.config.check_interval;
        let due = owner_hot || periodic || compaction_due;
        // Poison-tolerant: the slot is a plain Option pointer, valid
        // even if a panicking thread died while holding the lock.
        if let Some(link) = self
            .worker
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
        {
            link.record(newly, max_owner_len, owner_hot);
            if due {
                link.signal();
            }
            return;
        }
        if due {
            self.maintenance_pass();
        }
    }

    /// One maintenance pass: maintain every full run stack
    /// ([`ShardedWritable::compact_pending`]), then run
    /// [`ShardedWritable::rebalance_step_background`] until the
    /// topology is stable, within `4 × rebalance_budget` steps.
    ///
    /// This is the one body behind all three callers: the attached
    /// [`crate::RebalanceWorker`] runs it per wake, an insert with no
    /// worker attached runs it on its own thread, and
    /// [`ShardedWritable::rebalance`] runs it on the caller's. Passes
    /// are serialized on the maintenance mutex (lock order: WAL mutex →
    /// maintenance mutex → topology → shards; an inline pass may run
    /// under a durable writer's WAL mutex, and nothing holding the
    /// topology or a shard lock ever waits on the maintenance mutex).
    pub(crate) fn maintenance_pass(&self) -> Pass {
        // Poison-tolerant: the mutex guards no data, only turns.
        let _turn = self.maintenance.lock().unwrap_or_else(|e| e.into_inner());
        self.compact_pending(Due::FullStacks);
        let mut pass = Pass::default();
        // The hysteresis in `plan` prevents oscillation; the bound is a
        // backstop so a policy bug cannot spin forever, four budgets
        // deep so a giant backlog still settles in one pass.
        for _ in 0..4 * self.rebalance_budget() {
            match self.rebalance_step_background() {
                BackgroundStep::Applied(action) => pass.applied.push(action),
                BackgroundStep::Raced => pass.races += 1,
                BackgroundStep::Stable => {
                    pass.stable = true;
                    break;
                }
            }
        }
        pass
    }

    /// Maintain the run stack of every shard `due` selects. A shard
    /// whose runs hold 1/[`li_core::delta::RUN_TIER_RATIO`] of its base
    /// ([`WritableShard::fold_due`]), or any shard recovery replayed
    /// into, is **folded**: its base retrained ONCE over base + runs
    /// ([`WritableShard::compact`]). Any other shard with a full stack
    /// gets a **run merge**: its runs become one run, nothing retrained
    /// ([`WritableShard::merge_runs`]). Both run with no topology lock
    /// held (only the shard's own brief read/write locks), so
    /// concurrent inserts and snapshots keep flowing.
    ///
    /// This is the single run-maintenance entry point — every
    /// maintenance pass passes [`Due::FullStacks`], recovery passes
    /// [`Due::Replayed`] — so the global [`ShardedWritable::compactions`]
    /// and [`ShardedWritable::run_merges`] counters and `Backend::Auto`
    /// re-selection account every fold and run merge exactly once.
    pub(crate) fn compact_pending(&self, due: Due) {
        // The Arc (not the guard) suffices: compaction never touches
        // the topology, and a shard orphaned by a concurrent rebalance
        // is merely wasted work, never lost keys. Holding the guard
        // across the retrains would stall every rebalance behind them.
        let topo = Arc::clone(&self.topo_guard());
        for shard in topo.shards.iter() {
            let fold = match due {
                Due::FullStacks if shard.needs_compaction() => shard.fold_due(),
                Due::Replayed if shard.seals() > 0 => true,
                _ => continue,
            };
            if !fold {
                let runs = shard.merge_runs();
                if runs > 0 {
                    self.obs.run_merges.incr();
                    self.obs
                        .event(events::RUN_MERGE, runs as u64, shard.sealed_keys() as u64);
                }
                continue;
            }
            // Under Backend::Auto a fold is also a re-decision point:
            // it retrains the base anyway, so the selector gets to
            // change the shard's backend family for free (drifted-hard
            // shards go hybrid, smoothed-out shards go back to a plain
            // RMI). A run merge trains nothing and selects nothing.
            let (runs, selection) = match self.config.backend {
                Backend::Auto => {
                    shard.compact_selected(self.config.leaf_fraction, &self.config.retune)
                }
                _ => (shard.compact(), None),
            };
            if runs > 0 {
                self.obs.compactions.incr();
                self.obs.runs_compacted.add(runs as u64);
                self.obs
                    .event(events::COMPACT_FOLD, runs as u64, shard.len() as u64);
                if let Some((choice, switched)) = selection {
                    self.obs.backend_selections.incr();
                    self.obs
                        .event(events::BACKEND_SELECT, choice.code(), shard.len() as u64);
                    if switched {
                        self.obs.backend_switches.incr();
                    }
                }
            }
        }
    }

    /// Attach a background worker's link: from now on inserts record
    /// pressure and signal instead of running maintenance inline.
    /// Panics if a worker is already attached.
    pub(crate) fn attach_worker(&self, link: Arc<WorkerLink>) {
        let mut slot = self.worker.write().unwrap_or_else(|e| e.into_inner());
        if slot.is_some() {
            // Release (don't poison) the lock before panicking, so the
            // existing worker's Drop can still detach cleanly.
            drop(slot);
            panic!("a RebalanceWorker is already attached to this ShardedWritable");
        }
        *slot = Some(link);
    }

    /// Detach the background worker's link: inserts run maintenance
    /// inline again. Runs from `RebalanceWorker::drop`, so it must
    /// never panic (poison-tolerant).
    pub(crate) fn detach_worker(&self) {
        *self.worker.write().unwrap_or_else(|e| e.into_inner()) = None;
    }

    /// Whether a background rebalance worker currently owns
    /// maintenance (inserts then only record pressure and signal).
    pub fn has_background_worker(&self) -> bool {
        self.worker
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .is_some()
    }

    /// Whether `key` currently exists (owner-shard probe).
    ///
    /// Takes no lock on its common path: the calling thread's cache holds
    /// the published topology and its copy of each shard's base and runs,
    /// checked against `published` and the shard's `gen`, and the shard's
    /// buffer filter rules the key out of the buffer (see
    /// [`crate::writable`]). Otherwise — a stale cache, a possibly
    /// buffered key, a re-entrant call or a thread being torn down — it
    /// answers under the topology and shard read locks and refreshes the
    /// cache under them.
    pub fn contains(&self, key: u64) -> bool {
        GET_CACHE
            .try_with(|cell| match cell.try_borrow_mut() {
                Ok(mut slot) => self.contains_cached(key, &mut slot),
                Err(_) => self.contains_locked(key, None),
            })
            .unwrap_or_else(|_| self.contains_locked(key, None))
    }

    /// [`ShardedWritable::contains`] with the thread's cache borrowed.
    #[inline]
    fn contains_cached(&self, key: u64, slot: &mut Option<GetCache>) -> bool {
        if let Some(cache) = slot.as_ref() {
            if cache.describes(self.id, self.published.load(Ordering::Acquire)) {
                let s = cache.topo.router.route_owner(key);
                if let Some(found) = cache.topo.shards[s].contains_cached(key, &cache.shards[s]) {
                    return found;
                }
            }
        }
        self.contains_locked(key, Some(slot))
    }

    /// The locked get: route and probe under the topology and shard read
    /// locks, refreshing `slot` (when there is one) under them.
    #[cold]
    fn contains_locked(&self, key: u64, slot: Option<&mut Option<GetCache>>) -> bool {
        self.obs.locked_gets.incr();
        let topo = self.topo_guard();
        let s = topo.router.route_owner(key);
        let Some(slot) = slot else {
            return topo.shards[s].contains(key);
        };
        let current = slot
            .as_ref()
            .is_some_and(|c| c.describes(self.id, topo.generation));
        if !current {
            *slot = None;
        }
        let cache = slot.get_or_insert_with(|| GetCache::new(self.id, &topo));
        let (found, refreshed) = topo.shards[s].contains_refreshing(key, &mut cache.shards[s]);
        if refreshed || !current {
            self.obs.cache_refreshes.incr();
        }
        found
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
        self.topo_guard().bounds.clone()
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

    /// How many adaptive backend selections have run (thin read of
    /// `li_backend_selections_total`). Under [`Backend::Auto`] every
    /// shard (re)build — initial construction, each half of a split,
    /// each merge, each compaction fold — runs exactly one selection;
    /// under a pinned backend this stays 0.
    pub fn backend_selections(&self) -> usize {
        self.obs.backend_selections.value() as usize
    }

    /// How many of those selections *changed* the shard's backend
    /// family from what it was before the rebuild (thin read of
    /// `li_backend_switches_total`).
    pub fn backend_switches(&self) -> usize {
        self.obs.backend_switches.value() as usize
    }

    /// How many shards currently serve from an all-B-Tree-leaf hybrid
    /// base (the write tier's tree family) rather than a plain RMI —
    /// the structural ground truth the selection counters are checked
    /// against in the stress suite.
    pub fn hybrid_shards(&self) -> usize {
        self.topo_guard()
            .shards
            .iter()
            .filter(|s| s.is_hybrid())
            .count()
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

    /// A consistent view: the router and one [`DeltaSnapshot`] per
    /// shard, captured from a *single* topology (the topology read lock
    /// is held across the capture, so a concurrent rebalance can never
    /// hand this snapshot shards from two generations). All reads on
    /// the returned snapshot are lock-free. Each shard's view is one
    /// instant of that shard, but the shards are captured one after
    /// another, so a writer can land between two of them; the live
    /// [`ShardedWritable::range_keys`] and [`ShardedWritable::rank`]
    /// read one instant of every shard they span.
    pub fn snapshot(&self) -> ShardedSnapshot {
        // Hold the read guard (not just the Arc) across the capture:
        // it excludes a concurrent rebalance, so the shard views below
        // all come from the topology the router describes.
        let topo = self.topo_guard();
        let snaps: Vec<DeltaSnapshot> = topo.shards.iter().map(|s| s.snapshot()).collect();
        let mut prefix = Vec::with_capacity(snaps.len() + 1);
        let mut at = 0usize;
        prefix.push(0);
        for s in &snaps {
            at += s.len();
            prefix.push(at);
        }
        ShardedSnapshot {
            router: topo.router.clone(),
            snaps,
            prefix,
            generation: topo.generation,
        }
    }

    /// Run one maintenance pass on the calling thread: fold or merge
    /// every full run stack, then repeatedly ask [`plan`] for the next
    /// action (split the hottest overloaded or mispredicting shard /
    /// merge the coldest adjacent pair), rebuild it off-lock and
    /// publish the new topology atomically, until the topology is
    /// stable. Returns the topology actions applied (empty when already
    /// stable).
    ///
    /// Safe to call from any thread at any time, with or without a
    /// worker attached (passes take turns); inserts never wait for a
    /// rebuild, only for the brief publish.
    pub fn rebalance(&self) -> Vec<RebalanceAction> {
        self.maintenance_pass().applied
    }

    /// One rebalance step — what every maintenance pass repeats — with
    /// the shard rebuild **off** the topology lock, so concurrent
    /// inserts never wait for it:
    ///
    /// 1. **Observe** under the read lock: snapshot lens/error stats,
    ///    ask [`plan`] for the next action, remember the topology
    ///    generation. Inserts keep flowing.
    /// 2. **Rebuild off-lock**: export the affected shard(s) and
    ///    retrain the replacement(s) with *no* topology lock held —
    ///    writes racing into the old shard(s) keep landing there.
    /// 3. **Publish + drain** under a brief write lock: if the
    ///    generation still matches (else [`BackgroundStep::Raced`] —
    ///    the caller re-plans), diff each rebuilt shard's current
    ///    contents against its export and re-route the stragglers into
    ///    the replacement shards by the *new* topology's ownership
    ///    bounds, then swap in the new `Arc<Topology>`.
    ///
    /// The write lock is never held for the rebuild. When no writes
    /// raced in (shard lengths unchanged — the common case), the drain
    /// is a pair of O(1) length checks; otherwise it re-exports the
    /// touched shard for a linear diff plus the buffered straggler
    /// re-inserts.
    pub(crate) fn rebalance_step_background(&self) -> BackgroundStep {
        // Every phase below is timed into its own histogram
        // (`li_pass_*_ns`) unconditionally — this is the cold
        // maintenance path, where a pair of clock reads per phase is
        // noise against an export + retrain, and the phase breakdown is
        // exactly the tail-latency story maintenance has to tell.

        // Phase 1 — observe (read lock, released immediately).
        let t_observe = Instant::now();
        // The Arc, not the guard: phase 3 takes the write lock.
        let topo = Arc::clone(&self.topo_guard());
        let (lens, err_hot) = self.observe(&topo);
        self.obs.pass_observe_ns.record_since(t_observe);
        let t_plan = Instant::now();
        let planned = plan(&lens, &err_hot, &self.config.rebalance);
        self.obs.pass_plan_ns.record_since(t_plan);
        let Some(action) = planned else {
            return BackgroundStep::Stable;
        };
        let gen0 = topo.generation;

        match action {
            RebalanceAction::Split { shard: s } => {
                // Phase 2 — rebuild off-lock. The export is kept for the
                // phase-3 straggler diff; each half gets an allocation
                // of its own, so a half that later folds frees its share
                // of the keys instead of keeping the whole export alive.
                let t_retrain = Instant::now();
                let exported = topo.shards[s].export_keys();
                let Some(m) = split_point(&exported) else {
                    // Fewer than two distinct keys: nothing to split.
                    return BackgroundStep::Stable;
                };
                let boundary = exported[m];
                let was_hybrid = Some(topo.shards[s].is_hybrid());
                let (lower, upper) = exported.split_at(m);
                let left = build_selected_shard(lower, &self.config, &self.obs, was_hybrid);
                let right = build_selected_shard(upper, &self.config, &self.obs, was_hybrid);
                self.obs.pass_retrain_ns.record_since(t_retrain);

                // Phase 3 — publish + drain.
                let t_publish = Instant::now();
                let mut guard = self.topo.write().unwrap_or_else(|e| e.into_inner());
                if guard.generation != gen0 {
                    return BackgroundStep::Raced;
                }
                // Writers are excluded now: whatever raced into the old
                // shard since the export is re-routed by the NEW
                // boundary (left owns [old_lo, boundary), right owns
                // [boundary, old_hi) — both subsets of the old range,
                // so every straggler has exactly one home). Keys are
                // never removed, so an unchanged length means nothing
                // raced in and the O(shard) re-export is skipped.
                if guard.shards[s].len() > exported.len() {
                    let t_drain = Instant::now();
                    for k in straggler_diff(&guard.shards[s].export_keys(), &exported) {
                        let target = if k < boundary { &left } else { &right };
                        target.insert(k);
                    }
                    self.obs.pass_drain_ns.record_since(t_drain);
                }
                let next = split_topology(&guard, s, boundary, Arc::new(left), Arc::new(right));
                *guard = Arc::new(next);
                self.published.store(guard.generation, Ordering::Release);
                self.note_rebalance(&action, &guard);
                self.obs.pass_publish_ns.record_since(t_publish);
                BackgroundStep::Applied(action)
            }
            RebalanceAction::Merge { left: l } => {
                // Phase 2 — rebuild off-lock. Adjacent ownership ranges:
                // the concatenated exports are already globally sorted.
                let t_retrain = Instant::now();
                let mut keys = topo.shards[l].export_keys();
                let left_len = keys.len();
                keys.extend(topo.shards[l + 1].export_keys());
                let exported = KeyStore::new(keys);
                let merged = build_selected_shard(
                    exported.clone(),
                    &self.config,
                    &self.obs,
                    Some(topo.shards[l].is_hybrid()),
                );
                self.obs.pass_retrain_ns.record_since(t_retrain);

                // Phase 3 — publish + drain.
                let t_publish = Instant::now();
                let mut guard = self.topo.write().unwrap_or_else(|e| e.into_inner());
                if guard.generation != gen0 {
                    return BackgroundStep::Raced;
                }
                // Stragglers from either old shard belong to the merged
                // shard's (concatenated) ownership range. Same O(1)
                // unchanged-length skip as the split path, per shard.
                let (left_exp, right_exp) = exported.as_slice().split_at(left_len);
                if guard.shards[l].len() > left_exp.len()
                    || guard.shards[l + 1].len() > right_exp.len()
                {
                    let t_drain = Instant::now();
                    if guard.shards[l].len() > left_exp.len() {
                        for k in straggler_diff(&guard.shards[l].export_keys(), left_exp) {
                            merged.insert(k);
                        }
                    }
                    if guard.shards[l + 1].len() > right_exp.len() {
                        for k in straggler_diff(&guard.shards[l + 1].export_keys(), right_exp) {
                            merged.insert(k);
                        }
                    }
                    self.obs.pass_drain_ns.record_since(t_drain);
                }
                let next = merge_topology(&guard, l, Arc::new(merged));
                *guard = Arc::new(next);
                self.published.store(guard.generation, Ordering::Release);
                self.note_rebalance(&action, &guard);
                self.obs.pass_publish_ns.record_since(t_publish);
                BackgroundStep::Applied(action)
            }
        }
    }

    /// Account a just-published split or merge: bump the registry
    /// counter (the single source of truth behind
    /// [`ShardedWritable::splits`] / [`ShardedWritable::shard_merges`])
    /// and trace the event with the new generation and shard count.
    /// Called with the topology write guard still held, right after the
    /// `Arc` swap, so the payload describes exactly the published
    /// topology.
    fn note_rebalance(&self, action: &RebalanceAction, topo: &Topology) {
        let (generation, n) = (topo.generation, topo.shards.len() as u64);
        match action {
            RebalanceAction::Split { .. } => {
                self.obs.splits.incr();
                self.obs.event(events::SHARD_SPLIT, generation, n);
            }
            RebalanceAction::Merge { .. } => {
                self.obs.shard_merges.incr();
                self.obs.event(events::SHARD_MERGE, generation, n);
            }
        }
    }

    /// Per-shard observations the planner consumes: current lengths
    /// and the error-hot flags (when error splits are enabled).
    fn observe(&self, topo: &Topology) -> (Vec<usize>, Vec<bool>) {
        let lens: Vec<usize> = topo.shards.iter().map(|s| s.len()).collect();
        let err_hot: Vec<bool> = match self.config.rebalance.max_mean_err {
            Some(t) => topo
                .shards
                .iter()
                .map(|s| s.base_stats().mean_abs_err > t)
                .collect(),
            None => vec![false; lens.len()],
        };
        (lens, err_hot)
    }

    /// Backstop step bound for one round of a maintenance pass:
    /// generous enough for any cascade the hysteresis admits, small
    /// enough that a policy bug cannot spin forever.
    fn rebalance_budget(&self) -> usize {
        2 * self.config.rebalance.max_shards + 4
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
        (guard.bounds.clone(), states)
    }

    /// Reassemble a structure from loaded state: per-shard
    /// [`WritableShard`]s already populated with their trained bases
    /// and replayed deltas, plus the ownership bounds they were saved
    /// under. The router is refit over the bounds (a cheap O(shards)
    /// linear fit — not model retraining); counters restart at zero and
    /// the generation at 0, matching a fresh build.
    pub(crate) fn from_loaded(
        bounds: Vec<u64>,
        shards: Vec<Arc<WritableShard>>,
        config: ShardedWritableConfig,
    ) -> Self {
        config.validate();
        assert_eq!(bounds.len() + 1, shards.len(), "one bound per extra shard");
        let obs = Arc::new(ServeMetrics::new());
        for shard in &shards {
            shard.attach_obs(Arc::clone(&obs));
        }
        let router = ShardRouter::new(bounds.clone());
        Self {
            id: NEXT_STORE_ID.fetch_add(1, Ordering::Relaxed),
            topo: RwLock::new(Arc::new(Topology {
                bounds,
                router,
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
    ///    shard, so each shard seals at most once. Then every shard
    ///    whose replayed keys overflowed its buffer — it sealed
    ///    during replay — folds its whole run stack into its base with
    ///    one retrain through the ordinary compaction entry point,
    ///    however small its run tier (a run merge would keep the
    ///    replayed tail in a run the size of the tail). No
    ///    shard folds twice; a shard that got less than a buffer keeps
    ///    the keys buffered and trains nothing. The log holds only
    ///    inserts, so replay is a set union: batching cannot change the
    ///    result, and records the snapshot already covers (impossible
    ///    by the LSN bound) or a previous half-finished recovery
    ///    already applied (possible — replay mutates only memory) are
    ///    harmless duplicates.
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
        sw.insert_batch_unlogged(&keys);
        // A loaded or freshly built shard starts with a seal count of
        // 0, so a non-zero count marks exactly the shards whose
        // replayed keys overflowed the buffer. Those the batch path
        // already folded (stack at `max_runs`) have no runs left and
        // are skipped; those it merged into one run fold here.
        sw.compact_pending(Due::Replayed);

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

impl Drop for ShardedWritable {
    /// Clear the dropping thread's get-cache entry if it is this
    /// store's, so the store's tiers are freed now rather than at the
    /// thread's next get. Other threads release theirs at their next get.
    fn drop(&mut self) {
        let _ = GET_CACHE.try_with(|cell| {
            if let Ok(mut slot) = cell.try_borrow_mut() {
                if slot.as_ref().is_some_and(|c| c.store == self.id) {
                    *slot = None;
                }
            }
        });
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
    /// thread). 0 when a snapshot loaded and every shard's replayed
    /// keys fit in its buffer; otherwise the retrains of the shards
    /// that folded, of any rebalance the replayed keys triggered, and a
    /// first boot's empty base.
    pub trained: u64,
}

/// Which shards one [`ShardedWritable::compact_pending`] pass maintains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Due {
    /// Shards whose run stack is at `max_runs`: each folds when its
    /// runs hold 1/16 of its base, and merges its runs otherwise.
    FullStacks,
    /// Shards that sealed since they were loaded (recovery's replay):
    /// each folds, so a restarted store does not keep a replayed tail
    /// in runs.
    Replayed,
}

/// What one [`ShardedWritable::maintenance_pass`] did.
#[derive(Debug, Default)]
pub(crate) struct Pass {
    /// The splits and shard merges it published, in order.
    pub applied: Vec<RebalanceAction>,
    /// Steps whose rebuild was discarded because the topology moved
    /// between observe and publish.
    pub races: usize,
    /// Whether it ended on a stable topology (`false`: the step bound
    /// ran out with work left).
    pub stable: bool,
}

/// Outcome of one [`ShardedWritable::rebalance_step_background`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BackgroundStep {
    /// An action was applied and a new topology published.
    Applied(RebalanceAction),
    /// The topology generation changed between observe and publish;
    /// the rebuild was discarded — observe again and re-plan. Passes
    /// are serialized and only a step publishes, so this is a guard
    /// that should never fire.
    Raced,
    /// The policy proposes nothing: the topology is stable.
    Stable,
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

/// Keys in `now` but not in `then` — the writes that raced into a shard
/// while the background path was rebuilding it. Both inputs are sorted
/// unique, and `then ⊆ now` because inserts only ever add keys.
fn straggler_diff(now: &[u64], then: &[u64]) -> Vec<u64> {
    debug_assert!(now.len() >= then.len(), "shards never shrink mid-rebuild");
    let mut out = Vec::with_capacity(now.len() - then.len());
    let mut j = 0usize;
    for &k in now {
        if j < then.len() && then[j] == k {
            j += 1;
        } else {
            out.push(k);
        }
    }
    debug_assert_eq!(j, then.len(), "exported keys must persist in the shard");
    out
}

/// The topology after splitting shard `s` at `boundary` into `left` and
/// `right`: boundary vector grown, router rebuilt, generation bumped.
fn split_topology(
    topo: &Topology,
    s: usize,
    boundary: u64,
    left: Arc<WritableShard>,
    right: Arc<WritableShard>,
) -> Topology {
    let mut bounds = topo.bounds.clone();
    bounds.insert(s, boundary);
    let mut shards = topo.shards.clone();
    shards[s] = left;
    shards.insert(s + 1, right);
    Topology {
        router: ShardRouter::new(bounds.clone()),
        bounds,
        shards,
        generation: topo.generation + 1,
    }
}

/// The topology after merging shards `left_idx` and `left_idx + 1` into
/// `merged`: boundary removed, router rebuilt, generation bumped.
fn merge_topology(topo: &Topology, left_idx: usize, merged: Arc<WritableShard>) -> Topology {
    let mut bounds = topo.bounds.clone();
    bounds.remove(left_idx);
    let mut shards = topo.shards.clone();
    shards[left_idx] = merged;
    shards.remove(left_idx + 1);
    Topology {
        router: ShardRouter::new(bounds.clone()),
        bounds,
        shards,
        generation: topo.generation + 1,
    }
}

/// Build a shard over `keys` according to the configured
/// [`ShardedWritableConfig::backend`]:
///
/// * [`Backend::Rmi`] — the shared [`crate::builder::retune_rmi`] loop
///   sizes the leaf budget for this shard's actual keys and densifies
///   it; the base is an ε-corridor ([`RmiConfig::corridor`]) whose ε
///   is the smallest that fits that budget;
/// * [`Backend::Auto`] — the adaptive selector
///   ([`crate::select::train_selected`]) probes, grid-searches and
///   materializes the winner, recording the decision as a
///   `li_backend_selections_total` increment plus a `backend_select`
///   event; when `prev_hybrid` carries the backend family the shard
///   had before this rebuild (splits, merges), a family change also
///   bumps `li_backend_switches_total`;
/// * [`Backend::BTree`] — every shard pinned to the all-B-Tree-leaf
///   hybrid at the reference page size.
///
/// Either way the shard keeps the chosen configuration for its future
/// folds, so the decision sticks until the next rebuild.
fn build_retuned_shard(
    keys: impl Into<KeyStore>,
    config: &ShardedWritableConfig,
    obs: &Arc<ServeMetrics>,
) -> WritableShard {
    build_selected_shard(keys, config, obs, None)
}

/// [`build_retuned_shard`] with the pre-rebuild backend family (`None`
/// = fresh build, nothing to switch *from*).
fn build_selected_shard(
    keys: impl Into<KeyStore>,
    config: &ShardedWritableConfig,
    obs: &Arc<ServeMetrics>,
    prev_hybrid: Option<bool>,
) -> WritableShard {
    let keys: KeyStore = keys.into();
    let (rmi, cfg) = match config.backend {
        Backend::Auto => {
            let (rmi, cfg, choice) = train_selected(&keys, config.leaf_fraction, &config.retune);
            obs.backend_selections.incr();
            obs.event(events::BACKEND_SELECT, choice.code(), keys.len() as u64);
            if prev_hybrid.is_some_and(|was| was != cfg.hybrid_threshold.is_some()) {
                obs.backend_switches.incr();
            }
            (rmi, cfg)
        }
        Backend::BTree => {
            // One leaf per ~4 pages: the leaf models only partition the
            // key space; the pages inside each leaf do the searching.
            let leaves = (keys.len() / 512).clamp(1, keys.len().max(1));
            let cfg = RmiConfig::two_stage(TopModel::Linear, leaves).with_hybrid(0);
            (li_core::rmi::Rmi::build(keys.clone(), &cfg), cfg)
        }
        _ => retune_rmi(
            &keys,
            config.leaf_fraction,
            Some(&config.retune),
            RmiConfig::corridor,
        ),
    };
    let shard = WritableShard::from_delta(
        DeltaIndex::from_trained(rmi, cfg, config.merge_threshold).with_tiering(config.max_runs),
    );
    shard.attach_obs(Arc::clone(obs));
    shard
}

/// A consistent, lock-free point-in-time view of a [`ShardedWritable`]:
/// the router and one [`DeltaSnapshot`] per shard, all captured from
/// one topology generation. Reads compose exactly like the live
/// structure's (ownership routing + per-shard snapshot queries), with
/// no lock taken.
#[derive(Debug, Clone)]
pub struct ShardedSnapshot {
    router: ShardRouter,
    snaps: Vec<DeltaSnapshot>,
    /// `prefix[s]` = keys in shards `0..s` at capture time;
    /// `prefix[shard_count]` = total.
    prefix: Vec<usize>,
    generation: u64,
}

impl ShardedSnapshot {
    /// Whether `key` existed when the snapshot was taken.
    pub fn contains(&self, key: u64) -> bool {
        self.snaps[self.router.route_owner(key)].contains(key)
    }

    /// Number of keys `< key` at capture time (global lower-bound
    /// rank): the owner shard's local rank plus the lengths of every
    /// shard below it (all of whose keys are `< key` by the ownership
    /// invariant).
    pub fn rank(&self, key: u64) -> usize {
        let s = self.router.route_owner(key);
        self.prefix[s] + self.snaps[s].rank(key)
    }

    /// Total keys at capture time.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        // Invariant (constructor-enforced, not an I/O or config state):
        // `snapshot()` seeds `prefix` with an unconditional `push(0)`
        // before appending one entry per shard, so `prefix.len() ==
        // snaps.len() + 1 >= 1` on every constructed value and `last()`
        // cannot be `None`.
        self.prefix.last().copied().unwrap_or(0)
    }

    /// Whether the snapshot holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of shards in the captured topology.
    pub fn shard_count(&self) -> usize {
        self.snaps.len()
    }

    /// Topology generation this snapshot was captured from.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The captured per-shard views (for cross-shard assertions in
    /// tests: each shard's keys must lie inside its ownership range).
    pub fn shard_snapshots(&self) -> &[DeltaSnapshot] {
        &self.snaps
    }

    /// The captured router (its boundaries are the ownership bounds).
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// All keys in `[lo, hi)` at capture time, sorted: per-shard scans
    /// over the owner range of `lo..=hi`, concatenated (globally sorted
    /// by the ownership invariant).
    pub fn range_keys(&self, lo: u64, hi: u64) -> Vec<u64> {
        if hi <= lo {
            return Vec::new();
        }
        let s_lo = self.router.route_owner(lo);
        let s_hi = self.router.route_owner(hi);
        let mut out = Vec::new();
        for s in s_lo..=s_hi {
            out.extend(self.snaps[s].range_keys(lo, hi));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn tiered_inserts_seal_runs_and_compact_inline_without_a_worker() {
        // Threshold 8, max_runs 2: every 8 fresh keys seal a run, every
        // second seal fills the stack — with no worker attached the
        // same insert compacts inline.
        let data: Vec<u64> = (0..64u64).map(|i| i * 100).collect();
        let config = ShardedWritableConfig {
            max_runs: 2,
            ..small_cfg()
        };
        let sw = ShardedWritable::new(data.clone(), 2, config);
        let mut oracle: std::collections::BTreeSet<u64> = data.iter().copied().collect();
        for k in 0..400u64 {
            let key = k * 7 + 1;
            assert_eq!(sw.insert(key), oracle.insert(key), "key {key}");
        }
        assert!(sw.compactions() >= 1, "full stacks must compact inline");
        // Nothing is ever left over-stacked: the insert that fills a
        // stack compacts it before returning.
        assert!(sw.run_count() < 2 * sw.shard_count());
        let want: Vec<u64> = oracle.iter().copied().collect();
        assert_eq!(sw.range_keys(0, u64::MAX), want);
        assert_eq!(sw.len(), want.len());
        for &k in want.iter().step_by(17) {
            assert!(sw.contains(k), "k={k}");
        }
        // Tier accounting: base keys + sealed runs + pending buffers
        // partition the keyset exactly.
        let snap = sw.snapshot();
        let base_total: usize = snap
            .shard_snapshots()
            .iter()
            .map(|s| {
                use li_index::RangeIndex as _;
                s.base_index().key_store().len()
            })
            .sum();
        assert_eq!(base_total + sw.sealed_keys() + sw.pending(), want.len());
    }

    #[test]
    #[should_panic(expected = "max_runs must be >= 1")]
    fn a_zero_run_bound_is_rejected() {
        let config = ShardedWritableConfig {
            max_runs: 0,
            ..small_cfg()
        };
        ShardedWritable::new(vec![1u64], 1, config);
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
    fn inserts_route_to_owner_shards_and_preserve_order() {
        let data: Vec<u64> = (0..100u64).map(|i| i * 10).collect();
        let sw = ShardedWritable::new(data, 5, small_cfg());
        assert!(sw.insert(501));
        assert!(!sw.insert(501), "duplicate reports false");
        assert!(!sw.insert(500), "existing key reports false");
        assert!(sw.contains(501));
        // The full scan is globally sorted (ownership invariant).
        let all = sw.range_keys(0, u64::MAX);
        assert!(all.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(all.len(), 101);
    }

    #[test]
    fn boundary_keys_have_exactly_one_home() {
        let data: Vec<u64> = (0..90u64).collect();
        let sw = ShardedWritable::new(data, 3, small_cfg());
        for b in sw.bounds() {
            assert!(!sw.insert(b), "boundary key {b} already owned exactly once");
        }
        assert_eq!(sw.len(), 90, "no duplicate slipped across a boundary");
    }

    #[test]
    fn load_triggered_split_grows_the_topology() {
        let cfg = small_cfg();
        let sw = ShardedWritable::new(vec![0u64], 1, cfg.clone());
        for k in 1..=300u64 {
            sw.insert(k * 2);
        }
        assert!(sw.splits() >= 1, "expected at least one split");
        assert!(sw.shard_count() > 1);
        assert_eq!(
            sw.generation(),
            sw.splits() as u64 + sw.shard_merges() as u64
        );
        // Every shard within budget after rebalancing settles.
        sw.rebalance();
        for len in sw.shard_lens() {
            assert!(len <= cfg.rebalance.max_shard_len, "shard len {len}");
        }
        assert_eq!(sw.len(), 301);
        for k in (0..=300u64).step_by(13) {
            assert!(sw.contains(k * 2), "lost key {}", k * 2);
        }
    }

    #[test]
    fn cold_neighbors_merge() {
        // 8 tiny shards over 16 keys: every adjacent pair is far below
        // merge_max_len, so rebalance collapses the topology.
        let data: Vec<u64> = (0..16u64).map(|i| i * 5).collect();
        let sw = ShardedWritable::new(data.clone(), 8, small_cfg());
        assert_eq!(sw.shard_count(), 8);
        let actions = sw.rebalance();
        assert!(!actions.is_empty());
        assert!(sw.shard_merges() >= 1);
        assert!(sw.shard_count() < 8);
        // Nothing lost or duplicated.
        assert_eq!(sw.range_keys(0, u64::MAX), data);
    }

    #[test]
    fn snapshots_are_consistent_across_rebalances() {
        let data: Vec<u64> = (0..128u64).map(|i| i * 2).collect();
        let sw = ShardedWritable::new(data, 2, small_cfg());
        let before = sw.snapshot();
        let gen_before = before.generation();
        // Drive splits.
        for k in 0..200u64 {
            sw.insert(k * 2 + 1);
        }
        assert!(sw.splits() >= 1);
        let after = sw.snapshot();
        assert!(after.generation() > gen_before);
        // The old snapshot still serves its pre-rebalance state.
        assert_eq!(before.len(), 128);
        assert!(!before.contains(1));
        assert_eq!(before.rank(u64::MAX), 128);
        // The new one sees everything.
        assert_eq!(after.len(), 328);
        assert!(after.contains(1));
        // Shard/prefix bookkeeping agrees on both.
        for snap in [&before, &after] {
            let total = snap.rank(u64::MAX) + usize::from(snap.contains(u64::MAX));
            assert_eq!(total, snap.len());
            assert_eq!(snap.shard_count(), snap.shard_snapshots().len());
        }
    }

    #[test]
    fn error_triggered_split_fires_on_skewed_regions() {
        // Two regimes: a dense linear run then huge steps — one linear
        // leaf models it badly at coarse density.
        let mut data: Vec<u64> = (0..600u64).collect();
        data.extend((1..=600u64).map(|i| 1_000_000 + i * i * 1000));
        let cfg = ShardedWritableConfig {
            merge_threshold: 64,
            leaf_fraction: 1.0 / 4096.0, // 1 leaf: forced mispredictions
            retune: RetunePolicy {
                max_rounds: 0, // retuning disabled: the error must stay hot
                ..RetunePolicy::default()
            },
            check_interval: 0,
            max_runs: DEFAULT_MAX_RUNS,
            backend: Backend::Rmi,
            observe: true,
            rebalance: RebalanceConfig {
                max_shard_len: 1 << 20, // never length-split
                merge_max_len: 8,
                max_mean_err: Some(4.0),
                max_shards: 32,
            },
        };
        let sw = ShardedWritable::new(data.clone(), 1, cfg);
        assert_eq!(sw.shard_count(), 1);
        let actions = sw.rebalance();
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, RebalanceAction::Split { .. })),
            "error-hot shard must split, got {actions:?}"
        );
        assert_eq!(sw.range_keys(0, u64::MAX), data);
    }

    #[test]
    fn retuning_densifies_skewed_shards() {
        // Step-heavy keys: at the base density the mean error is large;
        // the retune loop must densify until under the threshold (or
        // out of rounds) — asserted via the resulting error.
        let mut data: Vec<u64> = Vec::new();
        let mut v = 0u64;
        for i in 0..4000u64 {
            v += if (i / 100) % 2 == 0 { 1 } else { 100_000 };
            data.push(v);
        }
        let loose = ShardedWritableConfig {
            leaf_fraction: 1.0 / 2000.0,
            retune: RetunePolicy {
                max_mean_err: 4.0,
                max_rounds: 0,
                ..RetunePolicy::default()
            },
            ..ShardedWritableConfig::default()
        };
        let tuned = ShardedWritableConfig {
            retune: RetunePolicy {
                max_rounds: 6,
                ..loose.retune
            },
            ..loose.clone()
        };
        let obs = Arc::new(ServeMetrics::new());
        let coarse = build_retuned_shard(data.clone(), &loose, &obs);
        let dense = build_retuned_shard(data, &tuned, &obs);
        assert!(
            dense.base_stats().mean_abs_err < coarse.base_stats().mean_abs_err,
            "retuned {} vs coarse {}",
            dense.base_stats().mean_abs_err,
            coarse.base_stats().mean_abs_err
        );
        assert!(dense.base_stats().leaves > coarse.base_stats().leaves);
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

    /// The calling thread's get-cache entry: (store id, topology
    /// generation), if it has one.
    fn cache_entry() -> Option<(u64, u64)> {
        GET_CACHE.with(|c| c.borrow().as_ref().map(|e| (e.store, e.generation)))
    }

    fn counter(sw: &ShardedWritable, name: &str) -> u64 {
        sw.metrics().counter(name).unwrap_or(0)
    }

    #[test]
    fn dropping_a_store_clears_this_threads_get_cache_entry() {
        let a = ShardedWritable::new((0..100u64).collect::<Vec<_>>(), 2, small_cfg());
        let b = ShardedWritable::new((0..100u64).collect::<Vec<_>>(), 2, small_cfg());
        assert!(a.contains(5));
        assert_eq!(cache_entry(), Some((a.id, 0)));
        // Dropping another store leaves this entry alone.
        drop(b);
        assert_eq!(cache_entry(), Some((a.id, 0)));
        drop(a);
        assert_eq!(cache_entry(), None, "the dropped store's tiers stay cached");
    }

    #[test]
    fn lock_free_gets_count_nothing_and_stale_caches_refresh() {
        let data: Vec<u64> = (0..400u64).map(|i| i * 4).collect();
        let sw = ShardedWritable::new(data.clone(), 4, small_cfg());
        for &k in &data {
            assert!(sw.contains(k));
        }
        let locked = counter(&sw, "li_locked_gets_total");
        assert!(
            locked <= 4,
            "one locked get per shard warms the cache, got {locked}"
        );
        for &k in &data {
            assert!(sw.contains(k) && !sw.contains(k + 1));
        }
        let refreshes = counter(&sw, "li_get_cache_refreshes_total");
        let false_positives = counter(&sw, "li_locked_gets_total") - locked;
        assert_eq!(
            false_positives, 0,
            "warm gets of unbuffered keys take no lock"
        );
        // A buffered key takes the lock; a seal moves it to a run and
        // the next get refreshes that shard's tiers, then goes lock-free.
        assert!(sw.insert(2));
        assert!(sw.contains(2));
        assert_eq!(counter(&sw, "li_locked_gets_total"), locked + 1);
        for k in 0..8u64 {
            sw.insert(k * 4 + 1);
        }
        assert!(sw.contains(2) && sw.contains(1));
        assert!(counter(&sw, "li_get_cache_refreshes_total") > refreshes);
        let settled = counter(&sw, "li_locked_gets_total");
        assert!(sw.contains(2) && sw.contains(data[0]));
        assert_eq!(counter(&sw, "li_locked_gets_total"), settled);
    }

    #[test]
    fn a_thread_alternating_between_two_stores_stays_exact() {
        let evens: Vec<u64> = (0..300u64).map(|i| i * 2).collect();
        let odds: Vec<u64> = (0..300u64).map(|i| i * 2 + 1).collect();
        let a = ShardedWritable::new(evens, 3, small_cfg());
        let b = ShardedWritable::new(odds, 3, small_cfg());
        for round in 0..3u64 {
            for k in 0..600u64 {
                assert_eq!(a.contains(k), k % 2 == 0, "round {round} a k={k}");
                assert_eq!(b.contains(k), k % 2 == 1, "round {round} b k={k}");
            }
            // Seals, folds and splits between the rounds.
            for i in 0..200u64 {
                a.insert(1000 + round * 1000 + i * 2);
                b.insert(1000 + round * 1000 + i * 2 + 1);
            }
            for i in 0..200u64 {
                let k = 1000 + round * 1000 + i * 2;
                assert!(a.contains(k) && !b.contains(k), "round {round} k={k}");
                assert!(
                    b.contains(k + 1) && !a.contains(k + 1),
                    "round {round} k={}",
                    k + 1
                );
            }
        }
        assert!(a.splits() >= 1 && b.splits() >= 1);
    }

    #[test]
    fn a_reentrant_get_takes_the_locked_path() {
        let sw = ShardedWritable::new((0..100u64).collect::<Vec<_>>(), 2, small_cfg());
        assert!(sw.contains(7));
        let locked = counter(&sw, "li_locked_gets_total");
        let refreshes = counter(&sw, "li_get_cache_refreshes_total");
        GET_CACHE.with(|c| {
            let _held = c.borrow_mut();
            assert!(sw.contains(7));
            assert!(!sw.contains(1000));
        });
        assert_eq!(counter(&sw, "li_locked_gets_total"), locked + 2);
        assert_eq!(counter(&sw, "li_get_cache_refreshes_total"), refreshes);
    }

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
        assert_eq!(report.replayed, 20);
        assert_eq!(rec.len(), 20);
        assert_eq!(
            rec.range_keys(0, u64::MAX),
            (0..20u64).map(|k| k * 3).collect::<Vec<_>>()
        );
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

    #[test]
    fn concurrent_inserts_across_threads_settle_exactly() {
        let data: Vec<u64> = (0..2000u64).map(|i| i * 10).collect();
        let sw = ShardedWritable::new(data, 4, small_cfg());
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let sw = &sw;
                scope.spawn(move || {
                    for i in 0..500u64 {
                        sw.insert((t * 500 + i) * 10 + 3);
                    }
                });
            }
        });
        assert_eq!(sw.len(), 4000);
        assert!(sw.splits() >= 1, "inserts must have driven splits");
        let all = sw.range_keys(0, u64::MAX);
        assert!(all.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(all.len(), 4000);
    }
}
