//! Adaptive per-shard backend selection.
//!
//! The paper's Learned Index Framework "automatically chooses the best
//! index configuration" per workload (§3.1); this module applies that
//! idea *per shard*: instead of one global backend for every shard,
//! each shard's own trained statistics decide what serves it. The
//! pipeline is
//!
//! 1. **probe** — train a cheap probe RMI over the shard (through the
//!    shared retune loop, so a hard shard gets its densification
//!    chances first) and read its [`RmiStats`]: key count, model error,
//!    model density, size;
//! 2. **grid-search** — [`choose`] scores every candidate backend ×
//!    tuning (RMI as probed; B-Trees at pages 64/128/256; interpolation
//!    B-Tree; FAST-style tree) with a branch-and-cache cost model over
//!    those stats and picks the cheapest, ties broken by fixed
//!    candidate order so the decision is deterministic;
//! 3. **build** — construct the winner over the same zero-copy shard
//!    slice.
//!
//! [`choose`] is a *pure function of the stats*: same `RmiStats` in,
//! same [`BackendChoice`] out, no ambient state. That makes every
//! decision replayable and lets the selection-pinning tests freeze the
//! policy.
//!
//! Keysets with duplicate keys never reach the probe: the RMI input
//! contract is sorted *unique* keys, so [`Backend::Auto`] scans for
//! adjacent duplicates first and routes multiset shards straight to the
//! FAST-style tree — the one backend that is exact on duplicates.
//!
//! Selection is the read-only [`crate::ShardedIndex`]'s: a
//! `ShardedWritable` builds every base as the ε-corridor of
//! [`Backend::Rmi`] and selects nothing.

use li_btree::{BTreeIndex, FastTree, InterpBTree};
use li_core::rmi::{RmiConfig, RmiStats, TopModel};
use li_index::{KeyStore, RangeIndex};

use crate::builder::{retune_rmi, RetunePolicy, ShardBuilder};

/// The backend (plus tuning) selected for one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendChoice {
    /// Keep the probe RMI (it already won the grid search).
    Rmi,
    /// Cache-optimized B-Tree at this page size.
    BTree {
        /// Keys per node.
        page_size: usize,
    },
    /// Interpolation B-Tree at this page size.
    Interp {
        /// Keys per data page.
        page_size: usize,
    },
    /// FAST-style branch-free implicit tree (also the forced choice for
    /// multiset shards — it is exact on duplicates).
    Fast,
}

impl BackendChoice {
    /// Backend family name, without tuning parameters.
    pub fn family(&self) -> &'static str {
        match self {
            BackendChoice::Rmi => "rmi",
            BackendChoice::BTree { .. } => "btree",
            BackendChoice::Interp { .. } => "interp",
            BackendChoice::Fast => "fast",
        }
    }
}

/// Cost-model constants, in arbitrary "nanosecond-ish" units. Absolute
/// values don't matter — only the ratios do. Fitted against measured
/// mean lookup latencies of every backend over every gauntlet
/// distribution at shard scale (10k–100k keys; the numbers in
/// EXPERIMENTS.md): the auto pick must land within 1.1× of the best
/// hand-picked backend on every gauntlet distribution.
mod cost {
    /// Evaluating the two linear models of a probe RMI.
    pub const RMI_EVAL: f64 = 25.0;
    /// One step of the RMI's model-biased last-mile binary search over
    /// the *mean* error window.
    pub const RMI_SEARCH_STEP: f64 = 4.5;
    /// Per-step weight for the *worst-case* window — a shard whose max
    /// error dwarfs its mean still pays tail latency.
    pub const RMI_TAIL_STEP: f64 = 1.2;
    /// Linear penalty per position of mean error: huge windows spill
    /// out of cache, so the cost must eventually outgrow every tree's.
    pub const RMI_WINDOW_LINEAR: f64 = 0.018;
    /// Entering one B-Tree node (the pointer-chase).
    pub const NODE_MISS: f64 = 14.0;
    /// One compare step inside an already-resident B-Tree node.
    pub const NODE_STEP: f64 = 1.5;
    /// Entering one interpolation level. Interpolation convergence is
    /// distribution-dependent and the probe stats can't see it, so the
    /// level cost is deliberately conservative (measured: the
    /// interpolation B-Tree loses on every gauntlet distribution).
    pub const INTERP_MISS: f64 = 40.0;
    /// Per-compare factor inside an interpolation level.
    pub const INTERP_STEP: f64 = 2.0;
    /// Floor cost of one FAST-tree level (fully cache-resident tree).
    pub const FAST_LEVEL_MIN: f64 = 2.0;
    /// FAST's per-level cost grows with the tree: every level of an
    /// Eytzinger descent is a dependent load, and once the padded tree
    /// outgrows L2 those loads miss. Modeled as `lg(n) − FAST_RESIDENT`
    /// per level, floored at [`FAST_LEVEL_MIN`].
    pub const FAST_RESIDENT: f64 = 12.0;
}

/// `log2(x)` clamped below at 0 — window/level arithmetic helper.
fn lg(x: f64) -> f64 {
    x.max(1.0).log2()
}

/// Predicted mean lookup cost of keeping the probe RMI.
fn cost_rmi(stats: &RmiStats) -> f64 {
    let mean_window = 2.0 * stats.mean_abs_err + 2.0;
    let max_window = 2.0 * stats.max_abs_err as f64 + 2.0;
    cost::RMI_EVAL
        + cost::RMI_SEARCH_STEP * lg(mean_window)
        + cost::RMI_TAIL_STEP * lg(max_window)
        + cost::RMI_WINDOW_LINEAR * stats.mean_abs_err
}

/// Tree height of an n-key tree with the given fanout (≥ 1 level).
fn levels(n: usize, fanout: usize) -> f64 {
    (lg(n as f64) / lg(fanout as f64)).ceil().max(1.0)
}

/// Predicted mean lookup cost of a B-Tree at `page_size`.
fn cost_btree(n: usize, page_size: usize) -> f64 {
    levels(n, page_size) * (cost::NODE_MISS + cost::NODE_STEP * lg(page_size as f64))
}

/// Predicted mean lookup cost of an interpolation B-Tree at
/// `page_size`. Two interpolation levels (separators, then the page).
fn cost_interp(page_size: usize) -> f64 {
    2.0 * (cost::INTERP_MISS + cost::INTERP_STEP * lg(page_size as f64))
}

/// Predicted mean lookup cost of the FAST-style tree.
fn cost_fast(n: usize) -> f64 {
    let per_level = (lg(n as f64) - cost::FAST_RESIDENT).max(cost::FAST_LEVEL_MIN);
    lg(n as f64) * per_level
}

/// Pick the backend for a shard from its probe-RMI statistics.
///
/// Pure and deterministic: the choice is a function of `stats` alone,
/// with ties broken by fixed candidate order (RMI, then B-Trees by
/// ascending page size, then interpolation, then FAST).
///
/// # Examples
/// ```
/// use li_core::rmi::{Rmi, RmiConfig, TopModel};
/// use li_serve::select::{choose, BackendChoice};
///
/// // A near-linear shard trains to tiny error: the RMI keeps the job.
/// let keys: Vec<u64> = (0..50_000u64).map(|i| i * 7 + 3).collect();
/// let rmi = Rmi::build(keys, &RmiConfig::two_stage(TopModel::Linear, 256));
/// assert_eq!(choose(rmi.stats()), BackendChoice::Rmi);
/// ```
pub fn choose(stats: &RmiStats) -> BackendChoice {
    let mut candidates = vec![(cost_rmi(stats), BackendChoice::Rmi)];
    candidates.extend(tree_candidates(stats.keys));
    cheapest(&candidates)
}

/// The duplicate-safe slice of the grid: B-Trees by ascending page
/// size, interpolation, FAST. Shared between [`choose`] and the
/// multiset path (which has no probe stats — the RMI input contract is
/// unique keys — so it grid-searches the trees over key count alone).
fn tree_candidates(n: usize) -> Vec<(f64, BackendChoice)> {
    let mut candidates = Vec::with_capacity(5);
    for page_size in [64usize, 128, 256] {
        candidates.push((cost_btree(n, page_size), BackendChoice::BTree { page_size }));
    }
    candidates.push((cost_interp(256), BackendChoice::Interp { page_size: 256 }));
    candidates.push((cost_fast(n), BackendChoice::Fast));
    candidates
}

/// Backend for a multiset shard of `n` keys: the cheapest
/// duplicate-safe tree. Pure in `n`, same tie-break rule as [`choose`].
pub fn choose_multiset(n: usize) -> BackendChoice {
    cheapest(&tree_candidates(n))
}

/// Min-by-cost with strict `<`: ties keep the earliest candidate, so
/// the decision is deterministic even across float-equal costs.
fn cheapest(candidates: &[(f64, BackendChoice)]) -> BackendChoice {
    let mut best = candidates[0];
    for c in &candidates[1..] {
        if c.0 < best.0 {
            best = *c;
        }
    }
    best.1
}

/// The probe's configuration: Algorithm 1's cascade, which the cost
/// model's constants were fitted on.
fn cascade(leaves: usize) -> RmiConfig {
    RmiConfig::two_stage(TopModel::Linear, leaves)
}

/// [`Backend::Auto`]'s build: probe the shard with a retuned RMI at the
/// workspace's default density (1 leaf per ~200 keys), grid-search the
/// backend candidates over the probe's statistics, and build the winner.
/// Multiset shards (adjacent duplicate keys) skip the probe — the RMI
/// contract is unique keys — and go to the cheapest duplicate-safe tree.
fn build_auto(shard: KeyStore) -> Box<dyn RangeIndex> {
    let choice = if shard.windows(2).any(|w| w[0] == w[1]) {
        choose_multiset(shard.len())
    } else {
        let (rmi, _) = retune_rmi(&shard, 1.0 / 200.0, Some(&RetunePolicy::default()), cascade);
        match choose(rmi.stats()) {
            // Reuse the probe: it already owns the shard slice.
            BackendChoice::Rmi => return Box::new(rmi),
            tree => tree,
        }
    };
    match choice {
        BackendChoice::BTree { page_size } => Box::new(BTreeIndex::new(shard, page_size)),
        BackendChoice::Interp { page_size } => {
            Box::new(InterpBTree::with_page_size(shard, page_size))
        }
        BackendChoice::Rmi | BackendChoice::Fast => Box::new(FastTree::new(shard)),
    }
}

/// Named backend handle: the one-stop way to say how a [`ShardedIndex`]
/// should build its shards. A `ShardedWritable` accepts only
/// [`Backend::Rmi`], the one base it builds.
///
/// [`Backend::Auto`] is the adaptive selector; the rest pin one backend
/// at its reference tuning. `Backend` implements [`ShardBuilder`], so
/// it drops into every construction path that takes one:
///
/// ```
/// use li_serve::{Backend, RangeIndex, ShardedIndex};
///
/// let keys: Vec<u64> = (0..40_000u64).map(|i| i * 3).collect();
/// let idx = ShardedIndex::build(keys, 4, &Backend::Auto);
/// assert_eq!(idx.lower_bound(3 * 777), 777);
/// ```
///
/// [`ShardedIndex`]: crate::ShardedIndex
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Per-shard adaptive selection (probe → grid-search → build).
    Auto,
    /// Retuned ε-corridor RMI on every shard, in a `ShardedIndex` and
    /// as a `ShardedWritable`'s base alike.
    #[default]
    Rmi,
    /// Cache-optimized B-Tree, page size 128, on every shard.
    BTree,
    /// Interpolation B-Tree, page size 256, on every shard.
    Interp,
    /// FAST-style branch-free tree on every shard.
    Fast,
}

impl Backend {
    /// All pinnable (non-auto) backends, in grid order.
    pub const HAND_PICKED: [Backend; 4] =
        [Backend::Rmi, Backend::BTree, Backend::Interp, Backend::Fast];

    /// Stable tag byte for snapshot encoding
    /// (0 = auto, 1 = rmi, 2 = btree, 3 = interp, 4 = fast).
    pub fn tag(&self) -> u8 {
        match self {
            Backend::Auto => 0,
            Backend::Rmi => 1,
            Backend::BTree => 2,
            Backend::Interp => 3,
            Backend::Fast => 4,
        }
    }

    /// Inverse of [`Backend::tag`].
    pub fn from_tag(tag: u8) -> Option<Backend> {
        match tag {
            0 => Some(Backend::Auto),
            1 => Some(Backend::Rmi),
            2 => Some(Backend::BTree),
            3 => Some(Backend::Interp),
            4 => Some(Backend::Fast),
            _ => None,
        }
    }
}

impl ShardBuilder for Backend {
    fn build(&self, shard: KeyStore) -> Box<dyn RangeIndex> {
        match self {
            Backend::Auto => build_auto(shard),
            Backend::Rmi => crate::builder::RmiShardBuilder::new()
                .with_retune(RetunePolicy::default())
                .build(shard),
            Backend::BTree => crate::builder::BTreeShardBuilder::new(128).build(shard),
            Backend::Interp => Box::new(InterpBTree::with_page_size(shard, 256)),
            Backend::Fast => crate::builder::FastShardBuilder.build(shard),
        }
    }

    fn name(&self) -> String {
        match self {
            Backend::Auto => "auto".to_string(),
            Backend::Rmi => "rmi".to_string(),
            Backend::BTree => "btree(page=128)".to_string(),
            Backend::Interp => "interp-btree(page=256)".to_string(),
            Backend::Fast => "fast".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use li_data::Gauntlet;

    fn probe_stats(keys: &[u64]) -> RmiStats {
        let store = KeyStore::new(keys.to_vec());
        let (rmi, _) = retune_rmi(&store, 1.0 / 200.0, Some(&RetunePolicy::default()), cascade);
        rmi.stats().clone()
    }

    #[test]
    fn near_linear_shard_selects_rmi() {
        // Arithmetic keys: the probe trains to ~zero error, and no tree
        // can beat a two-multiply exact predictor.
        let keys: Vec<u64> = (0..50_000u64).map(|i| i * 13 + 5).collect();
        assert_eq!(choose(&probe_stats(&keys)), BackendChoice::Rmi);
    }

    #[test]
    fn stepped_shard_selects_a_tree_family() {
        // The stepped gauntlet: arithmetic runs split by 2^35 jumps.
        // At this size the leaf models straddle jumps and mispredict by
        // dozens of positions, so the grid search must abandon the RMI
        // for one of the tree backends.
        let keys = Gauntlet::Stepped.generate(20_000, 7);
        let choice = choose(&probe_stats(&keys));
        assert_ne!(choice, BackendChoice::Rmi, "stepped must not keep the RMI");
    }

    #[test]
    fn clustered_osm_like_shard_selects_a_btree() {
        // A big clustered shard: too much model error to keep the RMI,
        // too many keys for the cache-resident FAST tree — the paged
        // B-Tree is the only backend left standing.
        let keys = Gauntlet::OsmLike.generate(50_000, 7);
        let choice = choose(&probe_stats(&keys));
        assert!(
            matches!(choice, BackendChoice::BTree { .. }),
            "osm-like@50k should pick a B-Tree, got {choice:?}"
        );
    }

    #[test]
    fn selection_is_a_pure_function_of_stats() {
        // Same stats in, same choice out — byte-identical decisions,
        // no ambient state. Probe twice and cross-check both orders.
        for g in Gauntlet::ALL {
            if g.is_multiset() {
                continue;
            }
            let keys = g.generate(10_000, 3);
            let (a, b) = (probe_stats(&keys), probe_stats(&keys));
            assert_eq!(choose(&a), choose(&b), "{}", g.name());
            assert_eq!(choose(&a), choose(&a), "{}", g.name());
        }
    }

    #[test]
    fn duplicate_shards_route_to_fast_without_probing() {
        let keys = Gauntlet::HeavyDup.generate(5_000, 9);
        assert_eq!(choose_multiset(keys.len()), BackendChoice::Fast);
        let before = li_core::train_count();
        let idx = Backend::Auto.build(KeyStore::new(keys));
        // No probe RMI was trained for the multiset shard.
        assert_eq!(li_core::train_count(), before);
        assert_eq!(idx.name(), "fast");
    }

    #[test]
    fn backend_tags_round_trip() {
        for b in [
            Backend::Auto,
            Backend::Rmi,
            Backend::BTree,
            Backend::Interp,
            Backend::Fast,
        ] {
            assert_eq!(Backend::from_tag(b.tag()), Some(b));
        }
        assert_eq!(Backend::from_tag(5), None);
    }

    #[test]
    fn every_backend_builds_a_working_shard() {
        let store = KeyStore::new((0..4_000u64).map(|i| i * 2).collect());
        for b in [
            Backend::Auto,
            Backend::Rmi,
            Backend::BTree,
            Backend::Interp,
            Backend::Fast,
        ] {
            let idx = b.build(store.slice(100..3_900));
            assert!(idx.key_store().ptr_eq(&store), "{}", b.name());
            assert_eq!(idx.lower_bound(store[100]), 0, "{}", b.name());
            assert_eq!(idx.lower_bound(store[2000]), 1900, "{}", b.name());
        }
    }
}
