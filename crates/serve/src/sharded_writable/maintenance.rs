//! The maintenance pass: run-stack folds and merges, then rebalance
//! steps (split or merge, rebuilt off-lock, published atomically).

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use li_core::delta::DeltaIndex;
use li_index::partition::split_point;
use li_index::KeyStore;

use crate::builder::retune_rmi;
use crate::obs::{events, ServeMetrics};
use crate::rebalance::{plan, RebalanceAction};
use crate::rebalance_worker::WorkerLink;
use crate::router::ShardRouter;
use crate::writable::WritableShard;

use super::{ShardedWritable, ShardedWritableConfig, Topology};

impl ShardedWritable {
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
        self.compact_pending();
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

    /// Maintain every full run stack. A shard whose runs hold
    /// 1/[`li_core::delta::RUN_TIER_RATIO`] of its base
    /// ([`WritableShard::fold_due`]) is **folded**: its base retrained
    /// ONCE over base + runs ([`WritableShard::compact`]). Any other
    /// shard with a full stack gets a **run merge**: its runs become
    /// one run, nothing retrained ([`WritableShard::merge_runs`]). Both
    /// run with no topology lock held (only the shard's own brief
    /// read/write locks), so concurrent inserts and snapshots keep
    /// flowing.
    ///
    /// This is the single run-maintenance entry point, so the global
    /// [`ShardedWritable::compactions`] and
    /// [`ShardedWritable::run_merges`] counters account every fold and
    /// run merge exactly once.
    fn compact_pending(&self) {
        // The Arc (not the guard) suffices: compaction never touches
        // the topology, and a shard orphaned by a concurrent rebalance
        // is merely wasted work, never lost keys. Holding the guard
        // across the retrains would stall every rebalance behind them.
        let topo = Arc::clone(&self.topo_guard());
        for shard in topo.shards.iter().filter(|s| s.needs_compaction()) {
            if !shard.fold_due() {
                let runs = shard.merge_runs();
                if runs > 0 {
                    self.obs.run_merges.incr();
                    self.obs
                        .event(events::RUN_MERGE, runs as u64, shard.sealed_keys() as u64);
                }
                continue;
            }
            let runs = shard.compact();
            if runs > 0 {
                self.obs.compactions.incr();
                self.obs.runs_compacted.add(runs as u64);
                self.obs
                    .event(events::COMPACT_FOLD, runs as u64, shard.len() as u64);
            }
        }
    }

    /// Attach a background worker's link: from now on inserts signal
    /// the worker instead of running maintenance inline.
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
    /// maintenance (inserts then only signal it).
    pub fn has_background_worker(&self) -> bool {
        self.worker
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .is_some()
    }

    /// Run one maintenance pass on the calling thread: fold or merge
    /// every full run stack, then repeatedly ask [`plan`] for the next
    /// action (split the longest overloaded shard / merge the coldest
    /// adjacent pair), rebuild it off-lock and
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
    /// 1. **Observe** under the read lock: read the shard lengths, ask
    ///    [`plan`] for the next action, remember the topology
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
    fn rebalance_step_background(&self) -> BackgroundStep {
        // Every phase below is timed into its own histogram
        // (`li_pass_*_ns`) unconditionally — this is the cold
        // maintenance path, where a pair of clock reads per phase is
        // noise against an export + retrain, and the phase breakdown is
        // exactly the tail-latency story maintenance has to tell.

        // Phase 1 — observe (read lock, released immediately).
        let t_observe = Instant::now();
        // The Arc, not the guard: phase 3 takes the write lock.
        let topo = Arc::clone(&self.topo_guard());
        let lens: Vec<usize> = topo.shards.iter().map(|s| s.len()).collect();
        self.obs.pass_observe_ns.record_since(t_observe);
        let t_plan = Instant::now();
        let planned = plan(&lens, &self.config.rebalance);
        self.obs.pass_plan_ns.record_since(t_plan);
        let Some(action) = planned else {
            return BackgroundStep::Stable;
        };
        let gen0 = topo.generation;

        let (t_publish, mut guard, next) = match action {
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
                let (lower, upper) = exported.split_at(m);
                let left = build_retuned_shard(lower, &self.config, &self.obs);
                let right = build_retuned_shard(upper, &self.config, &self.obs);
                self.obs.pass_retrain_ns.record_since(t_retrain);

                // Phase 3 — publish + drain.
                let t_publish = Instant::now();
                let guard = self.topo.write().unwrap_or_else(|e| e.into_inner());
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
                (t_publish, guard, next)
            }
            RebalanceAction::Merge { left: l } => {
                // Phase 2 — rebuild off-lock. Adjacent ownership ranges:
                // the concatenated exports are already globally sorted.
                let t_retrain = Instant::now();
                let mut keys = topo.shards[l].export_keys();
                let left_len = keys.len();
                keys.extend(topo.shards[l + 1].export_keys());
                let exported = KeyStore::new(keys);
                let merged = build_retuned_shard(exported.clone(), &self.config, &self.obs);
                self.obs.pass_retrain_ns.record_since(t_retrain);

                // Phase 3 — publish + drain.
                let t_publish = Instant::now();
                let guard = self.topo.write().unwrap_or_else(|e| e.into_inner());
                if guard.generation != gen0 {
                    return BackgroundStep::Raced;
                }
                // Stragglers from either old shard belong to the merged
                // shard's (concatenated) ownership range. Same O(1)
                // unchanged-length skip as the split path, per shard.
                let (left_exp, right_exp) = exported.as_slice().split_at(left_len);
                let pairs = [
                    (&guard.shards[l], left_exp),
                    (&guard.shards[l + 1], right_exp),
                ];
                if pairs.iter().any(|(shard, exp)| shard.len() > exp.len()) {
                    let t_drain = Instant::now();
                    for (shard, exp) in pairs.into_iter().filter(|(s, e)| s.len() > e.len()) {
                        for k in straggler_diff(&shard.export_keys(), exp) {
                            merged.insert(k);
                        }
                    }
                    self.obs.pass_drain_ns.record_since(t_drain);
                }
                let next = merge_topology(&guard, l, Arc::new(merged));
                (t_publish, guard, next)
            }
        };
        *guard = Arc::new(next);
        self.published.store(guard.generation, Ordering::Release);
        // Account the publication with the write guard still held, so the
        // traced generation and shard count describe exactly the published
        // topology. The registry counter is the single source of truth
        // behind [`ShardedWritable::splits`] / [`ShardedWritable::shard_merges`].
        let (counter, event) = match action {
            RebalanceAction::Split { .. } => (&self.obs.splits, events::SHARD_SPLIT),
            RebalanceAction::Merge { .. } => (&self.obs.shard_merges, events::SHARD_MERGE),
        };
        counter.incr();
        self.obs
            .event(event, guard.generation, guard.shards.len() as u64);
        self.obs.pass_publish_ns.record_since(t_publish);
        BackgroundStep::Applied(action)
    }

    /// Backstop step bound for one round of a maintenance pass:
    /// generous enough for any cascade the hysteresis admits, small
    /// enough that a policy bug cannot spin forever.
    fn rebalance_budget(&self) -> usize {
        2 * self.config.rebalance.max_shards + 4
    }
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
enum BackgroundStep {
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
    let mut bounds = topo.router.boundaries().to_vec();
    bounds.insert(s, boundary);
    let mut shards = topo.shards.clone();
    shards[s] = left;
    shards.insert(s + 1, right);
    Topology {
        router: ShardRouter::new(bounds),
        shards,
        generation: topo.generation + 1,
    }
}

/// The topology after merging shards `left_idx` and `left_idx + 1` into
/// `merged`: boundary removed, router rebuilt, generation bumped.
fn merge_topology(topo: &Topology, left_idx: usize, merged: Arc<WritableShard>) -> Topology {
    let mut bounds = topo.router.boundaries().to_vec();
    bounds.remove(left_idx);
    let mut shards = topo.shards.clone();
    shards[left_idx] = merged;
    shards.remove(left_idx + 1);
    Topology {
        router: ShardRouter::new(bounds),
        shards,
        generation: topo.generation + 1,
    }
}

/// Build a shard over `keys`: the shared [`crate::builder::retune_rmi`]
/// loop sizes the leaf budget for this shard's actual keys and densifies
/// it, and the base is an ε-corridor
/// ([`RmiConfig::corridor`](li_core::rmi::RmiConfig::corridor)) whose ε
/// is the smallest that fits that budget. The shard keeps the
/// configuration for its future folds.
pub(super) fn build_retuned_shard(
    keys: impl Into<KeyStore>,
    config: &ShardedWritableConfig,
    obs: &Arc<ServeMetrics>,
) -> WritableShard {
    let (rmi, cfg) = retune_rmi(&keys.into(), config.leaf_fraction, Some(&config.retune));
    let shard = WritableShard::from_delta(
        DeltaIndex::from_trained(rmi, cfg, config.merge_threshold).with_tiering(config.max_runs),
    );
    shard.attach_obs(Arc::clone(obs));
    shard
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::RetunePolicy;
    use crate::sharded_writable::tests::small_cfg;

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
        let stats = |config| {
            let shard = build_retuned_shard(data.clone(), config, &obs);
            let stats = shard.read_lock().base_stats().clone();
            stats
        };
        let (coarse, dense) = (stats(&loose), stats(&tuned));
        assert!(
            dense.mean_abs_err < coarse.mean_abs_err,
            "retuned {} vs coarse {}",
            dense.mean_abs_err,
            coarse.mean_abs_err
        );
        assert!(dense.leaves > coarse.leaves);
    }
}
