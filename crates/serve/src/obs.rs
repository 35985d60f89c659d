//! The serving tier's observability surface: one [`ServeMetrics`]
//! bundle of typed `li-obs` handles shared by every subsystem.
//!
//! A [`ShardedWritable`](crate::ShardedWritable) owns one
//! `Arc<ServeMetrics>` and hands clones to its shards, its WAL and its
//! background worker, so every counter, histogram and trace event for
//! one structure lands in **one registry** — and
//! [`ShardedWritable::metrics`](crate::ShardedWritable::metrics) /
//! `render_text` read it all back as a consistent point-in-time
//! snapshot.
//!
//! ## Cost model
//!
//! * Every write is **counted**: one relaxed striped add. A get is
//!   counted only when it leaves the lock-free path
//!   (`li_locked_gets_total`, `li_get_cache_refreshes_total`); the
//!   lock-free path records nothing.
//! * Structural events (split, merge, fold, run merge, seal, WAL
//!   truncation, recovery) are rare; they always record a counter bump
//!   and a ring event regardless of the `observe` config flag — the registry is
//!   the single source of truth for the structure's own accessors
//!   (`splits()`, `compactions()`, …).
//! * Per-insert **latency** is *sampled* (1-in-[`INSERT_SAMPLE`]
//!   scalar inserts): two `Instant::now` calls cost ~50 ns, which
//!   would dominate a ~100–300 ns hot path if paid on every call. The
//!   sampling decision is *fused* into the op counter
//!   ([`li_obs::Counter::incr_sampled`]) so counting + the 1-in-N
//!   choice cost one thread-local stripe lookup and one relaxed
//!   `fetch_add` total. `insert_batch` times the whole batch and
//!   records the per-key average — one timer pair amortized over the
//!   batch.

use std::sync::Arc;

use li_obs::{Counter, Gauge, GaugeSet, Histogram, MetricsRegistry, TraceRing};

/// Latency sampling period for scalar inserts (power of two).
pub const INSERT_SAMPLE: u64 = 8;
/// Structural-event ring capacity.
pub const EVENT_RING_CAPACITY: usize = 256;

/// Structural event kinds recorded into the trace ring.
///
/// Payload conventions (`a`, `b`) are listed per constant; readers get
/// the resolved name via [`event_name`].
pub mod events {
    /// A hot shard split: `a` = new topology generation, `b` = shard
    /// count after the split.
    pub const SHARD_SPLIT: u32 = 1;
    /// Two cold neighbor shards merged: `a` = new generation, `b` =
    /// shard count after the merge.
    pub const SHARD_MERGE: u32 = 2;
    /// A full run stack folded into the learned base: `a` = runs
    /// consumed, `b` = base length after the fold.
    pub const COMPACT_FOLD: u32 = 3;
    /// A write buffer sealed into an immutable sorted run: `a` = run
    /// length, `b` = run-stack depth after the seal.
    pub const BUFFER_SEAL: u32 = 4;
    // Kind 5 is retired (it traced a write buffer merged straight into
    // the base, a mode that no longer exists) and not reused.
    /// The WAL was truncated at a snapshot publish: `a` = LSN
    /// watermark, `b` = log bytes discarded.
    pub const WAL_TRUNCATE: u32 = 6;
    /// The WAL latched an append/sync failure: `a` = next LSN at the
    /// time of failure.
    pub const WAL_LATCH: u32 = 7;
    /// A snapshot was saved: `a` = keys persisted, `b` = WAL LSN
    /// watermark stamped into the header.
    pub const SNAPSHOT_SAVE: u32 = 8;
    /// A snapshot was loaded (zero retraining): `a` = keys loaded.
    pub const SNAPSHOT_LOAD: u32 = 9;
    /// Crash recovery replayed the durable WAL tail: `a` = records
    /// replayed, `b` = torn bytes truncated.
    pub const RECOVERY_REPLAY: u32 = 10;
    /// The backend selector decided a shard's backend at (re)build:
    /// `a` = chosen family code ([`crate::select::BackendChoice::code`]),
    /// `b` = keys in the shard.
    pub const BACKEND_SELECT: u32 = 11;
    /// A full run stack merged into one run (no retrain): `a` = runs
    /// merged, `b` = keys in the shard's runs after the merge.
    pub const RUN_MERGE: u32 = 12;
}

/// Resolve an event kind code to its catalog name.
pub fn event_name(kind: u32) -> &'static str {
    match kind {
        events::SHARD_SPLIT => "shard_split",
        events::SHARD_MERGE => "shard_merge",
        events::COMPACT_FOLD => "compact_fold",
        events::BUFFER_SEAL => "buffer_seal",
        events::WAL_TRUNCATE => "wal_truncate",
        events::WAL_LATCH => "wal_latch",
        events::SNAPSHOT_SAVE => "snapshot_save",
        events::SNAPSHOT_LOAD => "snapshot_load",
        events::RECOVERY_REPLAY => "recovery_replay",
        events::BACKEND_SELECT => "backend_select",
        events::RUN_MERGE => "run_merge",
        _ => "unknown",
    }
}

/// Typed handles into one structure's [`MetricsRegistry`].
///
/// Field docs give the registered metric name; everything is reachable
/// generically through [`ServeMetrics::registry`] too.
pub struct ServeMetrics {
    registry: MetricsRegistry,

    // ---- op counters (every op, hot path: one relaxed add) ----
    /// `li_inserts_total`: scalar inserts acknowledged.
    pub inserts: Arc<Counter>,
    /// `li_batch_insert_keys_total`: keys accepted via `insert_batch`.
    pub batch_inserts: Arc<Counter>,
    /// `li_durable_inserts_total`: inserts that went through the WAL.
    pub durable_inserts: Arc<Counter>,
    /// `li_locked_gets_total`: gets answered under the topology and
    /// shard read locks (stale thread cache, a possibly buffered key, or
    /// no cache to use). Lock-free gets are not counted.
    pub locked_gets: Arc<Counter>,
    /// `li_get_cache_refreshes_total`: locked gets that refreshed their
    /// thread's cached topology or a shard's cached tiers.
    pub cache_refreshes: Arc<Counter>,

    // ---- structural counters (single source of truth) ----
    /// `li_shard_splits_total`: topology splits published.
    pub splits: Arc<Counter>,
    /// `li_shard_merges_total`: topology merges published.
    pub shard_merges: Arc<Counter>,
    /// `li_compactions_total`: run-stack folds into the base.
    pub compactions: Arc<Counter>,
    /// `li_runs_compacted_total`: sealed runs consumed by folds.
    pub runs_compacted: Arc<Counter>,
    /// `li_run_merges_total`: run stacks merged into one run.
    pub run_merges: Arc<Counter>,
    /// `li_buffer_seals_total`: buffers sealed into runs.
    pub buffer_seals: Arc<Counter>,
    /// `li_wal_appends_total`: WAL records appended.
    pub wal_appends: Arc<Counter>,
    /// `li_wal_syncs_total`: WAL fsyncs issued.
    pub wal_syncs: Arc<Counter>,
    /// `li_wal_truncates_total`: snapshot-publish log truncations.
    pub wal_truncates: Arc<Counter>,
    /// `li_wal_replayed_total`: records replayed by crash recovery.
    pub wal_replayed: Arc<Counter>,
    /// `li_backend_selections_total`: backend-selector decisions made
    /// at shard (re)build (Auto mode only).
    pub backend_selections: Arc<Counter>,
    /// `li_backend_switches_total`: re-selections that changed a
    /// shard's backend family relative to the shard it was rebuilt
    /// from (Auto mode only).
    pub backend_switches: Arc<Counter>,

    // ---- gauges ----
    /// `li_shard_count`: live shard count.
    pub shard_count: Arc<Gauge>,
    /// `li_generation`: topology generation (splits + merges).
    pub generation: Arc<Gauge>,
    /// `li_shard_len{shard="i"}`: per-shard key depth.
    pub shard_len: Arc<GaugeSet>,
    /// `li_shard_runs{shard="i"}`: per-shard sealed-run count.
    pub shard_runs: Arc<GaugeSet>,
    /// `li_shard_pending{shard="i"}`: per-shard write-buffer fill.
    pub shard_pending: Arc<GaugeSet>,

    // ---- latency histograms (ns) ----
    /// `li_insert_ns`: sampled scalar insert latency.
    pub insert_ns: Arc<Histogram>,
    /// `li_batch_insert_ns`: per-key average over each insert batch.
    pub batch_insert_ns: Arc<Histogram>,
    /// `li_compact_train_ns`: off-lock fold retrain duration.
    pub compact_train_ns: Arc<Histogram>,
    /// `li_compact_install_ns`: under-write-lock fold install duration.
    pub compact_install_ns: Arc<Histogram>,
    /// `li_run_merge_ns`: run merge duration (cut, off-lock merge,
    /// install).
    pub run_merge_ns: Arc<Histogram>,
    // The `li_pass_*` phases time every rebalance step, whichever
    // thread runs the pass: the worker, an inserter that ran it inline,
    // or an explicit `rebalance()`.
    /// `li_pass_observe_ns`: rebalance step — under-read-lock observe.
    pub pass_observe_ns: Arc<Histogram>,
    /// `li_pass_plan_ns`: rebalance step — split/merge planning.
    pub pass_plan_ns: Arc<Histogram>,
    /// `li_pass_retrain_ns`: rebalance step — off-lock shard rebuild
    /// (one sample per split or shard merge built).
    pub pass_retrain_ns: Arc<Histogram>,
    /// `li_pass_publish_ns`: rebalance step — write-lock topology
    /// publish.
    pub pass_publish_ns: Arc<Histogram>,
    /// `li_pass_drain_ns`: rebalance step — straggler drain inside the
    /// publish critical section.
    pub pass_drain_ns: Arc<Histogram>,
    /// `li_wal_append_ns`: WAL record append (write + bookkeeping).
    pub wal_append_ns: Arc<Histogram>,
    /// `li_wal_sync_ns`: WAL fsync duration.
    pub wal_sync_ns: Arc<Histogram>,

    // ---- events ----
    /// `li_events`: the structural-event trace ring.
    pub events: Arc<TraceRing>,
}

impl ServeMetrics {
    /// A fresh bundle with every metric registered under its
    /// `li_`-prefixed name.
    pub fn new() -> Self {
        let registry = MetricsRegistry::new();
        let c = |n: &str| registry.counter(n);
        let h = |n: &str| registry.histogram(n);
        ServeMetrics {
            inserts: c("li_inserts_total"),
            batch_inserts: c("li_batch_insert_keys_total"),
            durable_inserts: c("li_durable_inserts_total"),
            locked_gets: c("li_locked_gets_total"),
            cache_refreshes: c("li_get_cache_refreshes_total"),
            splits: c("li_shard_splits_total"),
            shard_merges: c("li_shard_merges_total"),
            compactions: c("li_compactions_total"),
            runs_compacted: c("li_runs_compacted_total"),
            run_merges: c("li_run_merges_total"),
            buffer_seals: c("li_buffer_seals_total"),
            wal_appends: c("li_wal_appends_total"),
            wal_syncs: c("li_wal_syncs_total"),
            wal_truncates: c("li_wal_truncates_total"),
            wal_replayed: c("li_wal_replayed_total"),
            backend_selections: c("li_backend_selections_total"),
            backend_switches: c("li_backend_switches_total"),
            shard_count: registry.gauge("li_shard_count"),
            generation: registry.gauge("li_generation"),
            shard_len: registry.gauge_set("li_shard_len", "shard"),
            shard_runs: registry.gauge_set("li_shard_runs", "shard"),
            shard_pending: registry.gauge_set("li_shard_pending", "shard"),
            insert_ns: h("li_insert_ns"),
            batch_insert_ns: h("li_batch_insert_ns"),
            compact_train_ns: h("li_compact_train_ns"),
            compact_install_ns: h("li_compact_install_ns"),
            run_merge_ns: h("li_run_merge_ns"),
            pass_observe_ns: h("li_pass_observe_ns"),
            pass_plan_ns: h("li_pass_plan_ns"),
            pass_retrain_ns: h("li_pass_retrain_ns"),
            pass_publish_ns: h("li_pass_publish_ns"),
            pass_drain_ns: h("li_pass_drain_ns"),
            wal_append_ns: h("li_wal_append_ns"),
            wal_sync_ns: h("li_wal_sync_ns"),
            events: registry.ring("li_events", EVENT_RING_CAPACITY, event_name),
            registry,
        }
    }

    /// The underlying registry (for snapshots and generic access).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Record a structural event (counterpart counters are the
    /// caller's responsibility — they are the source of truth).
    #[inline]
    pub fn event(&self, kind: u32, a: u64, b: u64) {
        self.events.record(kind, a, b);
    }
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for ServeMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeMetrics")
            .field("registry", &self.registry)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_registers_under_one_registry() {
        let m = ServeMetrics::new();
        m.inserts.add(3);
        m.insert_ns.record(120);
        m.event(events::SHARD_SPLIT, 1, 5);
        let snap = m.registry().snapshot();
        assert_eq!(snap.counter("li_inserts_total"), Some(3));
        assert_eq!(snap.histogram("li_insert_ns").unwrap().count(), 1);
        let tail = snap.ring("li_events").unwrap();
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].name, "shard_split");
    }

    #[test]
    fn every_kind_has_a_catalog_name() {
        for k in (1..=12u32).filter(|&k| k != 5) {
            assert_ne!(event_name(k), "unknown", "kind {k}");
        }
        assert_eq!(event_name(0), "unknown");
        assert_eq!(event_name(5), "unknown", "retired");
    }
}
