//! Consistent point-in-time views of the store.

use li_core::delta::DeltaSnapshot;

use crate::router::ShardRouter;

use super::ShardedWritable;

impl ShardedWritable {
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
