//! Pluggable per-shard index construction.
//!
//! A [`ShardBuilder`] turns one zero-copy shard slice of the shared
//! [`KeyStore`] into whatever [`RangeIndex`] backend should serve that
//! shard. Builders for the paper's main structures are provided (RMI,
//! B-Tree, interpolation B-Tree, FAST-style tree); anything else only
//! has to implement the one-method trait.

use li_btree::{BTreeIndex, FastTree, InterpBTree};
use li_core::rmi::{Rmi, RmiConfig};
use li_index::{KeyStore, RangeIndex};

/// Builds the per-shard index backend over one shard's key slice.
///
/// Implementations must be `Send + Sync` so one builder can construct
/// shards from multiple threads and live inside shared serving state.
pub trait ShardBuilder: Send + Sync {
    /// Build the backend over `shard` — a zero-copy slice of the full
    /// key store (implementations must hand the store to the index
    /// as-is to preserve the shared allocation).
    fn build(&self, shard: KeyStore) -> Box<dyn RangeIndex>;

    /// Human-readable backend name, e.g. `"rmi"` or `"btree(page=128)"`.
    fn name(&self) -> String;
}

/// Per-shard retuning policy: rebuild a shard at doubled segment budget
/// while its error statistics stay hot.
///
/// A round doubles the ε-corridor's segment budget while
/// `RmiStats::mean_abs_err` (an RMS) is above `max_mean_err`, so the
/// build may take a smaller ε.
///
/// # Examples
/// ```
/// use li_serve::{RetunePolicy, RmiShardBuilder, ShardBuilder};
///
/// // Densify any shard whose mean (RMS) error exceeds 8 positions,
/// // doubling the leaf count up to 4 times.
/// let builder = RmiShardBuilder::new().with_retune(RetunePolicy {
///     max_mean_err: 8.0,
///     max_rounds: 4,
/// });
/// let idx = builder.build((0..5_000u64).map(|i| i * 3).collect::<Vec<_>>().into());
/// assert_eq!(idx.lower_bound(3 * 1234), 1234);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct RetunePolicy {
    /// Retrain while the shard's `RmiStats::mean_abs_err` exceeds this.
    /// That statistic is the key-weighted mean of the leaves' RMS
    /// errors (see its documentation), so the threshold is in RMS
    /// positions — somewhat above the mean absolute error of the same
    /// model.
    pub max_mean_err: f64,
    /// Maximum rebuilds per shard.
    pub max_rounds: usize,
}

impl Default for RetunePolicy {
    fn default() -> Self {
        Self {
            max_mean_err: 32.0,
            max_rounds: 3,
        }
    }
}

/// Per-shard Recursive Model Index: the same ε-corridor
/// ([`RmiConfig::corridor`]) a `Backend::Rmi` store shard's base is. The
/// segment budget scales with the shard size (`leaf_fraction` segments
/// per key, min 1) so every shard gets the same model density regardless
/// of shard count; an optional [`RetunePolicy`] doubles the budget of
/// individual shards whose key region turns out hard to model, so they
/// may take a smaller ε.
#[derive(Debug, Clone)]
pub struct RmiShardBuilder {
    leaf_fraction: f64,
    retune: Option<RetunePolicy>,
}

impl RmiShardBuilder {
    /// ε-corridor with the workspace's default model density (a budget
    /// of 1 segment per ~200 keys, matching the fig4 sweet spot).
    pub fn new() -> Self {
        Self {
            leaf_fraction: 1.0 / 200.0,
            retune: None,
        }
    }

    /// Override the model density (segments per key).
    pub fn with_leaf_fraction(mut self, fraction: f64) -> Self {
        assert!(fraction > 0.0 && fraction.is_finite());
        self.leaf_fraction = fraction;
        self
    }

    /// Enable per-shard retuning: shards whose trained mean (RMS) error
    /// exceeds the policy's threshold retrain at doubled leaf density,
    /// up to `max_rounds` times.
    pub fn with_retune(mut self, policy: RetunePolicy) -> Self {
        assert!(
            policy.max_mean_err >= 0.0 && policy.max_mean_err.is_finite(),
            "max_mean_err must be finite and >= 0"
        );
        self.retune = Some(policy);
        self
    }

    /// Build the concrete RMI for one shard, applying the retune loop.
    fn build_rmi(&self, shard: KeyStore) -> Rmi {
        retune_rmi(&shard, self.leaf_fraction, self.retune.as_ref()).0
    }
}

/// The one retune loop both the read path ([`RmiShardBuilder`]) and the
/// write path (`ShardedWritable` shard rebuilds) share: train an
/// ε-corridor ([`RmiConfig::corridor`]) over `keys` with a budget of
/// `leaf_fraction` segments per key, doubling the density while the
/// trained mean (RMS) error exceeds the policy's threshold (up to
/// `max_rounds` retries; the budget saturates at one per key). Returns
/// the trained RMI and the configuration it was built with, so callers
/// that retrain later (delta merges) reuse the chosen density.
pub(crate) fn retune_rmi(
    keys: &KeyStore,
    leaf_fraction: f64,
    policy: Option<&RetunePolicy>,
) -> (Rmi, RmiConfig) {
    let rounds = policy.map_or(0, |p| p.max_rounds);
    let mut fraction = leaf_fraction;
    // Structured so the hot path cannot panic: every round *returns* a
    // trained model (no `Option` + `expect` to get wrong), and the
    // round counter bounds the loop exactly like `0..=rounds` did.
    let mut round = 0usize;
    loop {
        let leaves = ((keys.len() as f64 * fraction).round() as usize).clamp(1, keys.len().max(1));
        let cfg = RmiConfig::corridor(leaves);
        let rmi = Rmi::build(keys.clone(), &cfg);
        let hot = policy.is_some_and(|p| rmi.stats().mean_abs_err > p.max_mean_err);
        let saturated = leaves >= keys.len().max(1);
        if !hot || saturated || round >= rounds {
            return (rmi, cfg);
        }
        round += 1;
        fraction *= 2.0;
    }
}

impl Default for RmiShardBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardBuilder for RmiShardBuilder {
    fn build(&self, shard: KeyStore) -> Box<dyn RangeIndex> {
        Box::new(self.build_rmi(shard))
    }

    fn name(&self) -> String {
        format!(
            "rmi(leaf_fraction={}{})",
            self.leaf_fraction,
            if self.retune.is_some() { ",retune" } else { "" }
        )
    }
}

/// Per-shard cache-optimized B-Tree at a fixed page size.
#[derive(Debug, Clone)]
pub struct BTreeShardBuilder {
    page_size: usize,
}

impl BTreeShardBuilder {
    /// B-Tree shards with the given page size (the paper's reference
    /// configuration is 128).
    pub fn new(page_size: usize) -> Self {
        Self { page_size }
    }
}

impl ShardBuilder for BTreeShardBuilder {
    fn build(&self, shard: KeyStore) -> Box<dyn RangeIndex> {
        Box::new(BTreeIndex::new(shard, self.page_size))
    }

    fn name(&self) -> String {
        format!("btree(page={})", self.page_size)
    }
}

/// Per-shard fixed-budget interpolation B-Tree (Figure 5 baseline).
#[derive(Debug, Clone)]
pub struct InterpShardBuilder {
    budget_bytes: usize,
}

impl InterpShardBuilder {
    /// Interpolation B-Tree shards, each fitted into `budget_bytes` of
    /// index overhead.
    pub fn new(budget_bytes: usize) -> Self {
        Self { budget_bytes }
    }
}

impl ShardBuilder for InterpShardBuilder {
    fn build(&self, shard: KeyStore) -> Box<dyn RangeIndex> {
        Box::new(InterpBTree::with_budget(shard, self.budget_bytes))
    }

    fn name(&self) -> String {
        format!("interp(budget={})", self.budget_bytes)
    }
}

/// Per-shard FAST-style implicit tree — exact on duplicate-heavy
/// keysets, which makes it the oracle-faithful backend for multiset
/// workloads.
#[derive(Debug, Clone, Default)]
pub struct FastShardBuilder;

impl ShardBuilder for FastShardBuilder {
    fn build(&self, shard: KeyStore) -> Box<dyn RangeIndex> {
        Box::new(FastTree::new(shard))
    }

    fn name(&self) -> String {
        "fast".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_preserve_the_shared_allocation() {
        let store = KeyStore::new((0..2000u64).map(|i| i * 2).collect());
        let builders: Vec<Box<dyn ShardBuilder>> = vec![
            Box::new(RmiShardBuilder::new()),
            Box::new(BTreeShardBuilder::new(64)),
            Box::new(InterpShardBuilder::new(2048)),
            Box::new(FastShardBuilder),
        ];
        for b in &builders {
            let idx = b.build(store.slice(100..900));
            assert!(idx.key_store().ptr_eq(&store), "{}", b.name());
            assert_eq!(idx.data().len(), 800, "{}", b.name());
            assert_eq!(idx.lower_bound(store[100]), 0, "{}", b.name());
        }
    }

    #[test]
    fn retune_densifies_a_skewed_shard() {
        // A skewed shard: dense linear run, then huge jumps — a coarse
        // per-leaf linear fit mispredicts badly.
        let mut keys: Vec<u64> = (0..3000u64).collect();
        keys.extend((1..=3000u64).map(|i| 10_000_000 + i * i * 500));
        let store = KeyStore::new(keys);

        let coarse = RmiShardBuilder::new().with_leaf_fraction(1.0 / 3000.0);
        let tuned = coarse.clone().with_retune(RetunePolicy {
            max_mean_err: 8.0,
            max_rounds: 6,
        });
        let base = coarse.build_rmi(store.clone());
        let dense = tuned.build_rmi(store.clone());
        assert!(
            base.stats().mean_abs_err > 8.0,
            "precondition: the skewed shard must be hot at coarse density, got {}",
            base.stats().mean_abs_err
        );
        assert!(
            dense.stats().mean_abs_err < base.stats().mean_abs_err,
            "retuned {} vs coarse {}",
            dense.stats().mean_abs_err,
            base.stats().mean_abs_err
        );
        assert!(dense.stats().leaves > base.stats().leaves);
        // Retuning never changes answers, only error envelopes.
        for q in (0..6000u64).step_by(97) {
            assert_eq!(dense.lower_bound(q), base.lower_bound(q), "q={q}");
        }
        // Zero-copy preserved through the retune loop.
        assert!(dense.key_store().ptr_eq(&store));
    }

    #[test]
    fn retune_leaves_easy_shards_alone() {
        // Near-linear keys are already under any sane threshold: the
        // retuned build must match the plain build's density.
        let store = KeyStore::new((0..5000u64).map(|i| i * 7).collect());
        let plain = RmiShardBuilder::new();
        let tuned = plain.clone().with_retune(RetunePolicy::default());
        let a = plain.build_rmi(store.clone());
        let b = tuned.build_rmi(store);
        assert_eq!(a.stats().leaves, b.stats().leaves);
    }

    #[test]
    fn rmi_builder_scales_leaves_with_shard_size() {
        let store = KeyStore::new((0..10_000u64).collect());
        let b = RmiShardBuilder::new().with_leaf_fraction(1.0 / 100.0);
        let idx = b.build(store.clone());
        // 10k keys at 1/100 density: the build must succeed and stay
        // exact; leaf count is internal, correctness is the contract.
        assert_eq!(idx.lower_bound(5000), 5000);
        let tiny = b.build(store.slice(0..3));
        assert_eq!(tiny.lower_bound(2), 2);
    }
}
