//! The store's configuration and its validity rules.

use li_core::delta::DEFAULT_MAX_RUNS;

use crate::builder::RetunePolicy;
use crate::rebalance::RebalanceConfig;

/// The base every [`ShardedWritable`](super::ShardedWritable) shard
/// builds, folds, splits, merges and saves: the retuned ε-corridor RMI
/// ([`RmiConfig::corridor`](li_core::rmi::RmiConfig::corridor)). It has
/// one variant; the store selects nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Retuned ε-corridor RMI on every shard.
    #[default]
    Rmi,
}

/// Configuration of a [`ShardedWritable`](super::ShardedWritable).
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
    /// The most ε-corridor segments per key when (re)building a shard
    /// (min 1).
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
    /// The shard base, [`Backend::Rmi`]: every shard build, split,
    /// merge and fold trains the same retuned ε-corridor.
    pub backend: Backend,
    /// Hot-path observability (default `true`): count every insert and
    /// latency-sample 1-in-N of them into the structure's
    /// [`ServeMetrics`](crate::ServeMetrics). `false` strips the per-op
    /// instrumentation from the insert fast path (one branch remains) —
    /// the benchmark's `obs.insert_overhead_ratio` layer compares the
    /// two. Structural metrics (splits, merges, compactions, WAL and
    /// worker activity) record regardless: they are cold-path and double
    /// as the structure's own counters.
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
    /// The configuration's validity rules, naming the first one broken.
    /// Construction panics on an `Err`; the snapshot loader turns it
    /// into a [`PersistError::Format`](crate::PersistError::Format).
    pub(crate) fn validate(&self) -> Result<(), &'static str> {
        if self.merge_threshold == 0 {
            return Err("merge_threshold must be > 0");
        }
        if self.max_runs < 1 {
            return Err("max_runs must be >= 1");
        }
        if !(self.leaf_fraction > 0.0 && self.leaf_fraction.is_finite()) {
            return Err("leaf_fraction must be positive and finite");
        }
        if !(self.retune.max_mean_err >= 0.0 && self.retune.max_mean_err.is_finite()) {
            return Err("retune.max_mean_err must be finite and >= 0");
        }
        self.rebalance.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded_writable::tests::small_cfg;
    use crate::sharded_writable::ShardedWritable;

    #[test]
    #[should_panic(expected = "max_runs must be >= 1")]
    fn a_zero_run_bound_is_rejected() {
        let config = ShardedWritableConfig {
            max_runs: 0,
            ..small_cfg()
        };
        ShardedWritable::new(vec![1u64], 1, config);
    }
}
