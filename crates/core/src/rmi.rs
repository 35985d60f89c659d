//! The Recursive Model Index (§3.2) with hybrid training (Algorithm 1).
//!
//! An RMI is "a hierarchy of models, where at each stage the model takes
//! the key as an input and based on it picks another model, until the
//! final stage predicts the position". Stage 0 is one model (linear,
//! multivariate, or a small ReLU net); inner stages and leaves are simple
//! linear models — §3.7.1 found "for the second stage, simple, linear
//! models, had the best performance".
//!
//! Training is stage-wise, exactly Algorithm 1 of the paper:
//!
//! 1. train the stage-0 model on all `(key, position)` pairs;
//! 2. route every key through the *trained* prefix of stages —
//!    `model = ⌊M · f(x) / N⌋` — collecting per-model training subsets;
//! 3. train each next-stage model on its subset;
//! 4. at the last stage, record each model's min-, max- and standard
//!    error over its keys, and (hybrid mode) replace any model whose
//!    absolute error exceeds `threshold` with a B-Tree over its range.
//!
//! Lookups run the model cascade (no search between stages — "the output
//! of Model 1.1 is directly used to pick the model in the next stage"),
//! then do a §3.4 last-mile search inside `[pos + min_err, pos +
//! max_err]`, with automatic window widening so non-monotonic models are
//! still exact for every query.
//!
//! The leaf stage has a second layout, [`LeafLayout::Corridor`]: greedy
//! ε-bounded segments found by a binary search over their first keys
//! (see `corridor.rs`). The cascade's window is whatever error envelope
//! its leaves came out with; the corridor's holds at most 2ε + 2 keys by
//! construction, with ε the smallest that fits the same leaf budget.

mod corridor;

use crate::search::{search_with_widening, SearchStrategy};
use corridor::{Corridor, SEGMENT_BYTES};
pub use corridor::{CorridorParams, Segment};
use li_btree::BTreeIndex;
use li_index::{KeyStore, Prediction, RangeIndex};
use li_models::{
    clamp_position, FeatureMap, LinearFit, LinearModel, Mlp, MlpConfig, Model, MultivariateLinear,
};

/// Stage-0 model family (§3.3's model zoo).
#[derive(Debug, Clone, PartialEq)]
pub enum TopModel {
    /// Simple linear regression (a 0-hidden-layer NN).
    Linear,
    /// Multivariate linear regression over engineered features
    /// (key, log key, key², √key) — the Figure-5 configuration.
    Multivariate(FeatureMap),
    /// Multivariate linear regression with automatic feature selection.
    MultivariateAuto,
    /// Fully-connected ReLU net with `hidden` hidden layers of `width`
    /// neurons (§3.3: 0–2 layers, width ≤ 32).
    Mlp {
        /// Hidden layer count (1 or 2; use `Linear` for 0).
        hidden: usize,
        /// Neurons per hidden layer.
        width: usize,
    },
}

impl TopModel {
    /// Train the stage-0 model on every `(key, position)` pair. The
    /// linear top is fitted straight off the `u64` slice; the other
    /// families take their keys as one `f64` array.
    fn fit(&self, keys: &[u64]) -> TrainedTop {
        let as_f64 = || -> Vec<f64> { keys.iter().map(|&k| k as f64).collect() };
        match *self {
            TopModel::Linear => TrainedTop::Linear(LinearModel::fit(
                keys.iter().enumerate().map(|(i, &k)| (k as f64, i as f64)),
            )),
            TopModel::Multivariate(fm) => {
                TrainedTop::Multivariate(Box::new(MultivariateLinear::fit_keys(fm, &as_f64())))
            }
            TopModel::MultivariateAuto => {
                let ys: Vec<f64> = (0..keys.len()).map(|i| i as f64).collect();
                TrainedTop::Multivariate(Box::new(MultivariateLinear::fit_select(&as_f64(), &ys)))
            }
            TopModel::Mlp { hidden, width } => {
                let cfg = MlpConfig::new(hidden, width);
                TrainedTop::Mlp(Box::new(Mlp::fit_keys(&cfg, &as_f64())))
            }
        }
    }

    /// Short display name, e.g. `"mlp(2x16)"`.
    pub fn name(&self) -> String {
        match self {
            TopModel::Linear => "linear".into(),
            TopModel::Multivariate(_) => "multivariate".into(),
            TopModel::MultivariateAuto => "multivariate-auto".into(),
            TopModel::Mlp { hidden, width } => format!("mlp({hidden}x{width})"),
        }
    }
}

/// A trained stage-0 model.
#[derive(Debug, Clone)]
enum TrainedTop {
    Linear(LinearModel),
    Multivariate(Box<MultivariateLinear>),
    Mlp(Box<Mlp>),
}

impl TrainedTop {
    #[inline]
    fn predict(&self, x: f64) -> f64 {
        match self {
            TrainedTop::Linear(m) => m.predict(x),
            TrainedTop::Multivariate(m) => m.predict(x),
            TrainedTop::Mlp(m) => m.predict(x),
        }
    }

    fn size_bytes(&self) -> usize {
        // Deployment accounting: f32 weights, as LIF code-generation
        // would emit (§3.1). Stored training form is f64.
        (match self {
            TrainedTop::Linear(m) => m.size_bytes(),
            TrainedTop::Multivariate(m) => m.size_bytes(),
            TrainedTop::Mlp(m) => m.size_bytes(),
        }) / 2
    }

    fn op_count(&self) -> usize {
        match self {
            TrainedTop::Linear(m) => m.op_count(),
            TrainedTop::Multivariate(m) => m.op_count(),
            TrainedTop::Mlp(m) => m.op_count(),
        }
    }
}

/// How an [`Rmi`]'s leaf stage is laid out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LeafLayout {
    /// Algorithm 1: stage 0 and any intermediate stages route each key
    /// to one of the leaf count's linear leaves; the window is the
    /// leaf's error envelope.
    #[default]
    Cascade,
    /// ε-bounded segments, at most the leaf count of them, found by a
    /// binary search over their first keys. ε is derived, not set: it is
    /// the smallest rung on the ladder 1, 2, 3, 4, 6, 8, 12, 16, 24, …
    /// whose segment count fits the leaf count, and the window holds at
    /// most 2ε + 2 keys. A fold climbs the ladder from its base's ε
    /// ([`crate::delta::DeltaSnapshot::train_compacted`]), so a shard's ε
    /// never falls while its leaf count stays. `top`, intermediate
    /// stages and the hybrid settings are unused.
    Corridor,
}

/// Configuration of an [`Rmi`].
#[derive(Debug, Clone)]
pub struct RmiConfig {
    /// Stage-0 model.
    pub top: TopModel,
    /// Models per stage after stage 0. The last entry is the leaf count
    /// (the paper's "second stage size": 10k–200k) — for
    /// [`LeafLayout::Corridor`], the most segments the build may cut;
    /// earlier entries are optional intermediate linear stages.
    pub stages: Vec<usize>,
    /// The leaf stage's layout (default [`LeafLayout::Cascade`]).
    pub layout: LeafLayout,
    /// Last-mile search strategy (§3.4).
    pub search: SearchStrategy,
    /// Hybrid threshold (Algorithm 1 line 13): replace a leaf with a
    /// B-Tree when its max absolute error exceeds this. `None` disables
    /// hybrid mode.
    pub hybrid_threshold: Option<u32>,
    /// Page size for hybrid B-Tree leaves.
    pub hybrid_page_size: usize,
}

impl Default for RmiConfig {
    fn default() -> Self {
        Self {
            top: TopModel::Linear,
            stages: vec![1024],
            layout: LeafLayout::Cascade,
            search: SearchStrategy::ModelBiasedBinary,
            hybrid_threshold: None,
            hybrid_page_size: 128,
        }
    }
}

impl RmiConfig {
    /// Two-stage RMI with `leaves` linear leaf models — the paper's
    /// work-horse configuration.
    pub fn two_stage(top: TopModel, leaves: usize) -> Self {
        Self {
            top,
            stages: vec![leaves],
            ..Self::default()
        }
    }

    /// An ε-corridor leaf stage of at most `leaves` segments, searched
    /// by galloping from the prediction ([`SearchStrategy::Exponential`]).
    /// Every answer lies in the window, within ε + 2 positions of the
    /// prediction, so the gallop brackets it in O(log ε) probes; unlike a
    /// binary search over the whole window, it reads only the cache lines
    /// the error actually spans.
    pub fn corridor(leaves: usize) -> Self {
        Self {
            stages: vec![leaves],
            layout: LeafLayout::Corridor,
            search: SearchStrategy::Exponential,
            ..Self::default()
        }
    }

    /// The leaf count: the last entry of `stages`.
    pub fn leaf_count(&self) -> usize {
        self.stages.last().copied().unwrap_or(0)
    }

    /// Set the search strategy.
    pub fn with_search(mut self, s: SearchStrategy) -> Self {
        self.search = s;
        self
    }

    /// Enable hybrid B-Tree fallback at the given error threshold.
    pub fn with_hybrid(mut self, threshold: u32) -> Self {
        self.hybrid_threshold = Some(threshold);
        self
    }
}

/// A last-stage model (Algorithm 1's `index[M][j]`).
#[derive(Debug, Clone)]
pub enum LeafKind {
    /// Simple linear regression over the leaf's keys.
    Linear(LinearModel),
    /// Hybrid fallback: a B-Tree over the leaf's key range, used when
    /// the linear model's error exceeded the threshold.
    BTree {
        /// Global position of the first key covered by this leaf.
        offset: usize,
        /// B-Tree over `data[offset .. offset + len]`.
        tree: Box<BTreeIndex>,
    },
}

/// A trained leaf with its error envelope.
#[derive(Debug, Clone)]
pub struct Leaf {
    /// The model (or B-Tree fallback).
    pub kind: LeafKind,
    /// Worst under-prediction: `min(position − prediction)` over the
    /// leaf's keys.
    pub min_err: i64,
    /// Worst over-prediction: `max(position − prediction)`.
    pub max_err: i64,
    /// Standard deviation of the prediction error (drives the σ of
    /// biased quaternary search).
    pub std_err: f64,
    /// Number of keys routed to this leaf at training time.
    pub n_keys: usize,
}

/// Summary statistics of a trained RMI.
#[derive(Debug, Clone)]
pub struct RmiStats {
    /// Keys the index was trained over.
    pub keys: usize,
    /// Leaf-model count (the "2nd stage size"); for an ε-corridor, the
    /// segment count, which never exceeds the configured leaf count.
    pub leaves: usize,
    /// Leaves replaced by B-Trees (hybrid mode).
    pub btree_leaves: usize,
    /// Key-weighted mean of the leaves' root-mean-square prediction
    /// errors: `Σ_leaf std_err · n_keys / keys`, with `std_err =
    /// √(Σe² / n_keys)` over the leaf's own keys. Despite the field's
    /// name this is an RMS figure, not a mean of `|e|`: it is never
    /// below the mean absolute error and equals it only when every key
    /// of a leaf misses by the same distance. `RetunePolicy`'s and the
    /// rebalancer's error thresholds in `li-serve` are tuned against
    /// the value as computed here. For an ε-corridor it is the RMS of
    /// every key's error.
    pub mean_abs_err: f64,
    /// Largest absolute prediction error over all keys.
    pub max_abs_err: u64,
    /// Index size in bytes (deployment accounting; excludes data). An
    /// ε-corridor segment is 16 bytes: its first key, start and slope.
    pub size_bytes: usize,
    /// Arithmetic ops for one stage-0 + leaf prediction (an ε-corridor's
    /// one multiply-add after its segment search).
    pub op_count: usize,
    /// The ε-corridor's ε: every key's window holds at most 2ε + 2
    /// keys. `None` for the cascade.
    pub eps: Option<u32>,
}

/// Deployment bytes accounted per linear leaf: two f32 parameters, the
/// error pair packed as two i16s, and an f32 σ — the compact form a LIF
/// code generator emits. (10k leaves ≈ 0.16MB, matching Figure 4's
/// "2nd stage models: 10k → 0.15MB" row.)
const LEAF_DEPLOY_BYTES: usize = 4 + 4 + 2 + 2 + 4;

thread_local! {
    /// Per-thread count of RMI training runs ([`Rmi::build`] calls).
    /// Exists so persistence tests can *prove* that a warm load rebuilds
    /// structure without retraining: take the count, load, take it
    /// again, assert equal. Per thread, so a build on another thread
    /// (a sibling test, a rebalance worker) cannot move the reading.
    static TRAIN_EVENTS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The number of RMI training runs ([`Rmi::build`] calls) the
/// **calling thread** has executed so far; builds on other threads are
/// not counted. [`Rmi::from_params`] does not bump it — that is the
/// warm-restart guarantee the persistence suite asserts, on the thread
/// that runs the load.
pub fn train_count() -> u64 {
    TRAIN_EVENTS.with(std::cell::Cell::get)
}

/// The Recursive Model Index over a sorted `u64` array.
#[derive(Debug, Clone)]
pub struct Rmi {
    data: KeyStore,
    stages: Stages,
    search: SearchStrategy,
    stats_cache: RmiStats,
}

/// A lookup begun by [`Rmi::start`]: the last-mile search plan, with
/// the fetch of its first cache line already under way. Hand it to
/// [`Rmi::finish`] or [`Rmi::finish_lookup`] of the same index with the
/// same key.
#[derive(Debug, Clone, Copy, Default)]
pub struct Started {
    pos: usize,
    lo: usize,
    hi: usize,
    sigma: usize,
}

/// What an [`Rmi`] predicts with, one variant per [`LeafLayout`].
#[derive(Debug, Clone)]
enum Stages {
    Cascade {
        top: TrainedTop,
        /// Intermediate linear stages (usually empty; the paper's
        /// default is two stages total).
        mids: Vec<Vec<LinearModel>>,
        leaves: Vec<Leaf>,
    },
    Corridor(Corridor),
}

impl Rmi {
    /// Train an RMI over `data` (sorted ascending, unique) — Algorithm 1.
    /// Accepts anything convertible to a [`KeyStore`]; pass a `KeyStore`
    /// clone to train over an array shared with other indexes at zero
    /// copy.
    ///
    /// Training streams over the key array and allocates nothing of its
    /// size: one pass fits the stage-0 model (line 6, i = 1), one pass
    /// per later stage routes every key through the trained prefix and
    /// feeds it to that stage's member fit (lines 4–10; the "training
    /// subsets" are never materialised — a member's running sums are its
    /// subset), and a last pass over the leaf stage's runs records each
    /// leaf's error envelope (lines 11–12) and applies the hybrid rule
    /// (lines 13–14). With a linear stage 0 and two stages that is three
    /// reads of the array. The result is bit-identical to fitting each
    /// member with [`LinearModel::fit`] over its keys in position order.
    ///
    /// A [`LeafLayout::Corridor`] build is one greedy pass per ladder
    /// rung tried instead, each abandoned once its segments outnumber
    /// the leaf count; it is counted as one training run all the same.
    pub fn build(data: impl Into<KeyStore>, config: &RmiConfig) -> Self {
        Self::build_from(data, config, 1)
    }

    /// [`Rmi::build`], with a [`LeafLayout::Corridor`] ladder that starts
    /// at rung `from_eps` instead of 1 (a cascade ignores it). A fold
    /// passes its base's ε, so it keeps that ε whenever the merged keys
    /// still fit the leaf count.
    pub(crate) fn build_from(data: impl Into<KeyStore>, config: &RmiConfig, from_eps: u32) -> Self {
        TRAIN_EVENTS.with(|n| n.set(n.get() + 1));
        let data: KeyStore = data.into();
        let (&leaf_count, inner_stages) = config
            .stages
            .split_last()
            .expect("need at least one stage after stage 0");
        assert!(config.stages.iter().all(|&m| m > 0));
        debug_assert!(
            data.windows(2).all(|w| w[0] < w[1]),
            "data must be sorted unique"
        );
        if config.layout == LeafLayout::Corridor {
            let corridor = Corridor::build(&data, from_eps, leaf_count);
            return Self::assemble(data, Stages::Corridor(corridor), config.search);
        }
        let n = data.len();

        let top = config.top.fit(&data);
        let mut mids: Vec<Vec<LinearModel>> = Vec::with_capacity(inner_stages.len());
        for &m in inner_stages {
            let (members, _) = fit_stage(&data, m, |x| predict_through(&top, &mids, x, n));
            mids.push(members.iter().map(|member| member.fit.finish()).collect());
        }
        let (members, runs) = fit_stage(&data, leaf_count, |x| predict_through(&top, &mids, x, n));

        // The error envelope of each leaf model over its own keys. The
        // run list replays the routing of the pass above, so no key is
        // routed twice; a leaf's keys are visited in position order, as
        // they were fitted.
        let models: Vec<LinearModel> = members.iter().map(|member| member.fit.finish()).collect();
        let mut envelopes = vec![(i64::MAX, i64::MIN, 0.0f64); leaf_count];
        let mut start = 0usize;
        for &(leaf, end) in &runs {
            let model = models[leaf];
            let (mut min_err, mut max_err, mut sum_sq) = envelopes[leaf];
            for (i, &k) in (start..end).zip(&data[start..end]) {
                let p = clamp_position(model.predict(k as f64), n) as i64;
                let e = i as i64 - p;
                min_err = min_err.min(e);
                max_err = max_err.max(e);
                sum_sq += (e as f64) * (e as f64);
            }
            envelopes[leaf] = (min_err, max_err, sum_sq);
            start = end;
        }

        let mut leaves = Vec::with_capacity(leaf_count);
        // Empty leaves predict the boundary position of the nearest
        // preceding non-empty leaf, so predictions stay roughly monotone
        // across leaves and mis-routed queries widen minimally.
        let mut boundary = 0usize;
        for ((member, model), (min_err, max_err, sum_sq)) in
            members.iter().zip(models).zip(envelopes)
        {
            let n_keys = member.fit.len();
            if n_keys == 0 {
                leaves.push(Leaf {
                    kind: LeafKind::Linear(LinearModel::constant(boundary as f64)),
                    min_err: 0,
                    max_err: 0,
                    std_err: 0.0,
                    n_keys: 0,
                });
                continue;
            }
            boundary = member.last + 1;
            // Hybrid replacement (lines 13-14).
            let abs_err = min_err.unsigned_abs().max(max_err.unsigned_abs());
            let kind = match config.hybrid_threshold {
                // Zero-copy: the leaf B-Tree indexes a slice *view* of
                // the shared key array, not a copy of it.
                Some(t) if abs_err > t as u64 => LeafKind::BTree {
                    offset: member.first,
                    tree: Box::new(BTreeIndex::new(
                        data.slice(member.first..boundary),
                        config.hybrid_page_size,
                    )),
                },
                _ => LeafKind::Linear(model),
            };
            leaves.push(Leaf {
                kind,
                min_err,
                max_err,
                std_err: (sum_sq / n_keys as f64).sqrt(),
                n_keys,
            });
        }

        Self::assemble(data, Stages::Cascade { top, mids, leaves }, config.search)
    }

    /// Put trained parts together and compute the summary statistics.
    fn assemble(data: KeyStore, stages: Stages, search: SearchStrategy) -> Self {
        let stats_cache = compute_stats(&stages, data.len());
        Self {
            data,
            stages,
            search,
            stats_cache,
        }
    }

    /// The full per-query model phase: cascade + leaf prediction +
    /// error-window arithmetic — or segment search + one multiply —
    /// producing the last-mile search plan `(pos, lo, hi, sigma)`.
    /// Shared by the scalar path, `predict`, and the phase-split batched
    /// path. Requires a non-empty key array.
    #[inline]
    fn plan(&self, key: u64) -> (usize, usize, usize, usize) {
        let n = self.data.len();
        let x = key as f64;
        let leaf = match &self.stages {
            Stages::Cascade { top, mids, leaves } => cascade_leaf(top, mids, leaves, x, n),
            Stages::Corridor(c) => {
                let (pos, lo, hi) = c.plan(key, n);
                return (pos, lo, hi, c.sigma);
            }
        };
        match &leaf.kind {
            LeafKind::Linear(m) => {
                let pos = clamp_position(m.predict(x), n);
                let lo = pos.saturating_add_signed(leaf.min_err as isize).min(n);
                let hi = (pos.saturating_add_signed(leaf.max_err as isize) + 1).min(n);
                let sigma = (leaf.std_err.ceil() as usize).max(1);
                (pos, lo, hi, sigma)
            }
            LeafKind::BTree { offset, tree } => {
                // The leaf B-Tree answers exactly for keys inside its
                // range; boundary results are certified globally by the
                // widening search (handles keys mis-routed to this leaf).
                let pos = (offset + tree.lower_bound(key)).min(n);
                (pos, pos, pos, 1)
            }
        }
    }

    /// Begin a lookup of `key`: run the model phase (what
    /// [`RangeIndex::predict`] times) and ask the CPU for the cache line
    /// holding the predicted position, then return without touching the
    /// key array. A caller with other work to do — the write path's
    /// buffer and run probes — does it before [`Rmi::finish`], and the
    /// array's DRAM fetch overlaps that work instead of following it.
    /// One line only: the last-mile search starts at the prediction,
    /// and fetching the whole error window costs more than it hides.
    ///
    /// `self.finish(key, self.start(key)) == self.lower_bound(key)`.
    ///
    /// # Examples
    /// ```
    /// use li_core::rmi::{Rmi, RmiConfig};
    /// use li_core::RangeIndex;
    ///
    /// let rmi = Rmi::build((0..1000u64).map(|k| k * 3).collect::<Vec<_>>(), &RmiConfig::default());
    /// let started = rmi.start(301);
    /// // ... other probes run here while the line arrives ...
    /// assert_eq!(rmi.finish(301, started), rmi.lower_bound(301));
    /// assert_eq!(rmi.finish_lookup(300, rmi.start(300)), Some(100));
    /// ```
    #[inline]
    pub fn start(&self, key: u64) -> Started {
        if self.data.is_empty() {
            return Started::default();
        }
        let (pos, lo, hi, sigma) = self.plan(key);
        li_index::prefetch(&self.data, pos);
        Started { pos, lo, hi, sigma }
    }

    /// End a lookup begun by [`Rmi::start`] for the same `key`: the
    /// last-mile search, returning the position of the first key
    /// `>= key`.
    #[inline]
    pub fn finish(&self, key: u64, started: Started) -> usize {
        if self.data.is_empty() {
            return 0;
        }
        let Started { pos, lo, hi, sigma } = started;
        search_with_widening(&self.data, key, self.search, pos, sigma, lo, hi)
    }

    /// [`Rmi::finish`] as a membership test: the position of `key` if
    /// it is stored (what [`RangeIndex::lookup`] answers).
    #[inline]
    pub fn finish_lookup(&self, key: u64, started: Started) -> Option<usize> {
        let lb = self.finish(key, started);
        (self.data.get(lb) == Some(&key)).then_some(lb)
    }

    /// Summary statistics.
    pub fn stats(&self) -> &RmiStats {
        &self.stats_cache
    }

    /// The configured search strategy.
    pub fn search_strategy(&self) -> SearchStrategy {
        self.search
    }

    /// Extract the serializable parameters of this trained index (for
    /// the persistence layer): `Some` for an ε-corridor, `None` for a
    /// cascade, which the snapshot format does not carry.
    pub fn to_params(&self) -> Option<CorridorParams> {
        match &self.stages {
            Stages::Corridor(c) => Some(c.to_params(self.search)),
            Stages::Cascade { .. } => None,
        }
    }

    /// Reassemble a trained ε-corridor from its serialized parameters
    /// and the key array it was trained over — the warm-restart path.
    /// No model is fitted (the calling thread's [`train_count`] does not
    /// move).
    ///
    /// Returns `None` when the parameters cannot describe a corridor
    /// over `data`, which its O(segments) check refuses: ε = 0, a
    /// segment start that does not increase or is not below the key
    /// count, first keys out of order, a negative or non-finite slope.
    pub fn from_params(data: impl Into<KeyStore>, params: &CorridorParams) -> Option<Self> {
        let data: KeyStore = data.into();
        let corridor = Corridor::from_params(params, data.len())?;
        Some(Self::assemble(
            data,
            Stages::Corridor(corridor),
            params.search,
        ))
    }
}

/// The summary statistics of `model` over `n` keys.
fn compute_stats(stages: &Stages, n: usize) -> RmiStats {
    let (top, mids, leaves) = match stages {
        Stages::Cascade { top, mids, leaves } => (top, mids, leaves),
        Stages::Corridor(c) => {
            return RmiStats {
                keys: n,
                leaves: c.len(),
                btree_leaves: 0,
                mean_abs_err: c.rms,
                max_abs_err: c.below.max(c.above) as u64,
                size_bytes: c.len() * SEGMENT_BYTES,
                op_count: 2,
                eps: Some(c.eps),
            }
        }
    };
    let mut sum_abs = 0.0f64;
    let mut max_abs = 0u64;
    let mut btree_leaves = 0usize;
    for leaf in leaves {
        if matches!(leaf.kind, LeafKind::BTree { .. }) {
            btree_leaves += 1;
        }
        let worst = leaf.min_err.unsigned_abs().max(leaf.max_err.unsigned_abs());
        max_abs = max_abs.max(worst);
        sum_abs += leaf.std_err * leaf.n_keys as f64;
    }
    let size_bytes = top.size_bytes()
        + mids.iter().map(|s| s.len() * (4 + 4)).sum::<usize>()
        + leaves
            .iter()
            .map(|l| match &l.kind {
                LeafKind::Linear(_) => LEAF_DEPLOY_BYTES,
                LeafKind::BTree { tree, .. } => LEAF_DEPLOY_BYTES + tree.size_bytes(),
            })
            .sum::<usize>();
    RmiStats {
        keys: n,
        leaves: leaves.len(),
        btree_leaves,
        mean_abs_err: if n == 0 { 0.0 } else { sum_abs / n as f64 },
        max_abs_err: max_abs,
        size_bytes,
        op_count: top.op_count() + 2 + mids.len() * 4,
        eps: None,
    }
}

/// What one pass of [`fit_stage`] knows about one member of a stage:
/// the running least-squares sums over the keys routed to it, and the
/// first and last position among them.
#[derive(Clone, Copy, Default)]
struct StageMember {
    fit: LinearFit,
    first: usize,
    last: usize,
}

/// One streaming pass of Algorithm 1's inner loop for a stage of `m`
/// members: route every key with `cascade` (the trained prefix of
/// stages) and add `(key, position)` to the fit of the member it lands
/// on. The sums of the member being fed ride in registers for as long as
/// consecutive keys route to it and are parked in the member table when
/// the route changes — once per member under a monotone prefix, more
/// often under a non-monotone one, by the same code.
///
/// Also returns those runs as `(member, end position)`, in order, so a
/// later pass can revisit each member's keys without routing again.
fn fit_stage(
    keys: &[u64],
    m: usize,
    cascade: impl Fn(f64) -> f64,
) -> (Vec<StageMember>, Vec<(usize, usize)>) {
    let n = keys.len();
    let mut members = vec![StageMember::default(); m];
    let mut runs: Vec<(usize, usize)> = Vec::new();
    let Some(&first_key) = keys.first() else {
        return (members, runs);
    };
    let mut park = |members: &mut [StageMember], at: usize, fit: LinearFit, run: (usize, usize)| {
        let member = &mut members[at];
        if member.fit.is_empty() {
            member.first = run.0;
        }
        member.fit = fit;
        member.last = run.1 - 1;
        runs.push((at, run.1));
    };
    let mut at = route(cascade(first_key as f64), m, n);
    let mut fit = LinearFit::new();
    let mut start = 0usize;
    for (i, &k) in keys.iter().enumerate() {
        let x = k as f64;
        let to = route(cascade(x), m, n);
        if to != at {
            park(&mut members, at, fit, (start, i));
            (at, fit, start) = (to, members[to].fit, i);
        }
        fit.push(x, i as f64);
    }
    park(&mut members, at, fit, (start, n));
    (members, runs)
}

/// Run the trained model cascade down to (but excluding) the leaf stage.
#[inline]
fn predict_through(top: &TrainedTop, mids: &[Vec<LinearModel>], x: f64, n: usize) -> f64 {
    let mut pred = top.predict(x);
    for stage in mids {
        let idx = route(pred, stage.len(), n);
        pred = stage[idx].predict(x);
    }
    pred
}

/// The leaf of a cascade over `n` keys that `x` routes to.
#[inline]
fn cascade_leaf<'a>(
    top: &TrainedTop,
    mids: &[Vec<LinearModel>],
    leaves: &'a [Leaf],
    x: f64,
    n: usize,
) -> &'a Leaf {
    &leaves[route(predict_through(top, mids, x, n), leaves.len(), n)]
}

/// Algorithm 1 line 9: `⌊M · f(x) / N⌋`, clamped into `[0, M)`.
#[inline]
fn route(pred: f64, m: usize, n: usize) -> usize {
    if n == 0 || m == 0 {
        return 0;
    }
    let scaled = pred * (m as f64) / (n as f64);
    clamp_position(scaled, m)
}

impl RangeIndex for Rmi {
    fn key_store(&self) -> &KeyStore {
        &self.data
    }

    #[inline]
    fn predict(&self, key: u64) -> Prediction {
        if self.data.is_empty() {
            return Prediction {
                pos: 0,
                lo: 0,
                hi: 0,
            };
        }
        let (pos, lo, hi, _) = self.plan(key);
        Prediction { pos, lo, hi }
    }

    #[inline]
    fn lower_bound(&self, key: u64) -> usize {
        self.finish(key, self.start(key))
    }

    /// Phase-split batched lookup: run the model cascade for *every*
    /// query first (pure arithmetic over the small model tables), then
    /// resolve every last-mile search against the data array. The
    /// loop fission keeps the data-array cache misses of different
    /// queries independent, so the hardware can overlap them instead of
    /// waiting out predict→search serially per query.
    fn lower_bound_batch(&self, queries: &[u64], out: &mut [usize]) {
        assert_eq!(
            queries.len(),
            out.len(),
            "lower_bound_batch: queries and out must have equal length"
        );
        if self.data.is_empty() {
            out.fill(0);
            return;
        }
        // Phase 1: model execution for all queries.
        let plans: Vec<(usize, usize, usize, usize)> =
            queries.iter().map(|&q| self.plan(q)).collect();
        // Phase 2: all last-mile searches.
        for ((o, &q), &(pos, lo, hi, sigma)) in out.iter_mut().zip(queries).zip(&plans) {
            *o = search_with_widening(&self.data, q, self.search, pos, sigma, lo, hi);
        }
    }

    fn size_bytes(&self) -> usize {
        self.stats_cache.size_bytes
    }

    fn name(&self) -> String {
        let stats = &self.stats_cache;
        let top = match &self.stages {
            Stages::Corridor(c) => {
                return format!(
                    "rmi(corridor,eps={},segments={},{})",
                    c.eps,
                    c.len(),
                    self.search.name()
                )
            }
            Stages::Cascade { top, .. } => top,
        };
        let hybrid = if stats.btree_leaves > 0 {
            format!(",hybrid={}", stats.btree_leaves)
        } else {
            String::new()
        };
        format!(
            "rmi({},leaves={}{hybrid},{})",
            match top {
                TrainedTop::Linear(_) => "linear".to_string(),
                TrainedTop::Multivariate(_) => "multivariate".to_string(),
                TrainedTop::Mlp(m) => format!("mlp({}h)", m.hidden_layers()),
            },
            stats.leaves,
            self.search.name(),
        )
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle(data: &[u64], key: u64) -> usize {
        data.partition_point(|&k| k < key)
    }

    fn check_exact(data: Vec<u64>, cfg: &RmiConfig) {
        let rmi = Rmi::build(data.clone(), cfg);
        let mut queries: Vec<u64> = vec![0, 1, u64::MAX];
        for &k in data.iter().step_by(3) {
            queries.extend_from_slice(&[k.saturating_sub(1), k, k.saturating_add(1)]);
        }
        for q in queries {
            assert_eq!(rmi.lower_bound(q), oracle(&data, q), "{} q={q}", rmi.name());
        }
    }

    fn cascade_leaves(rmi: &Rmi) -> &[Leaf] {
        match &rmi.stages {
            Stages::Cascade { leaves, .. } => leaves,
            Stages::Corridor(_) => panic!("not a cascade"),
        }
    }

    fn linear_data(n: u64) -> Vec<u64> {
        (0..n).map(|i| 1_000_000 + i).collect()
    }

    fn quadratic_data(n: u64) -> Vec<u64> {
        (0..n).map(|i| i * i + 7).collect()
    }

    #[test]
    fn exact_on_linear_data_all_strategies() {
        for s in SearchStrategy::ALL {
            check_exact(
                linear_data(2000),
                &RmiConfig::two_stage(TopModel::Linear, 64).with_search(s),
            );
        }
    }

    #[test]
    fn exact_on_quadratic_data() {
        check_exact(
            quadratic_data(3000),
            &RmiConfig::two_stage(TopModel::Linear, 128),
        );
    }

    #[test]
    fn exact_with_multivariate_top() {
        check_exact(
            quadratic_data(2000),
            &RmiConfig::two_stage(TopModel::Multivariate(FeatureMap::FULL), 64),
        );
    }

    #[test]
    fn exact_with_mlp_top() {
        check_exact(
            quadratic_data(1500),
            &RmiConfig::two_stage(
                TopModel::Mlp {
                    hidden: 1,
                    width: 8,
                },
                32,
            ),
        );
    }

    #[test]
    fn exact_with_three_stages() {
        let cfg = RmiConfig {
            top: TopModel::Linear,
            stages: vec![16, 256],
            ..Default::default()
        };
        check_exact(quadratic_data(2500), &cfg);
    }

    #[test]
    fn tiny_inputs() {
        check_exact(vec![], &RmiConfig::default());
        check_exact(vec![5], &RmiConfig::default());
        check_exact(vec![5, 9], &RmiConfig::two_stage(TopModel::Linear, 4));
    }

    #[test]
    fn linear_data_has_near_zero_error() {
        // §2's promise: a linear pattern is learned perfectly.
        let rmi = Rmi::build(
            linear_data(10_000),
            &RmiConfig::two_stage(TopModel::Linear, 16),
        );
        assert!(
            rmi.stats().max_abs_err <= 1,
            "max err {}",
            rmi.stats().max_abs_err
        );
    }

    #[test]
    fn more_leaves_shrink_error() {
        let data = quadratic_data(20_000);
        let small = Rmi::build(data.clone(), &RmiConfig::two_stage(TopModel::Linear, 16));
        let large = Rmi::build(data, &RmiConfig::two_stage(TopModel::Linear, 1024));
        assert!(
            large.stats().mean_abs_err < small.stats().mean_abs_err / 2.0,
            "large {} small {}",
            large.stats().mean_abs_err,
            small.stats().mean_abs_err
        );
    }

    #[test]
    fn hybrid_replaces_bad_leaves_with_btrees() {
        // A step-heavy distribution defeats per-leaf linear models at a
        // coarse leaf count, triggering hybrid replacement.
        let mut data: Vec<u64> = Vec::new();
        let mut v = 0u64;
        for i in 0..5000u64 {
            v += if (i / 100) % 2 == 0 { 1 } else { 10_000 };
            data.push(v);
        }
        let cfg = RmiConfig::two_stage(TopModel::Linear, 8).with_hybrid(10);
        let rmi = Rmi::build(data.clone(), &cfg);
        assert!(rmi.stats().btree_leaves > 0, "expected hybrid leaves");
        // Still exact everywhere.
        for &k in data.iter().step_by(7) {
            assert_eq!(rmi.lower_bound(k), oracle(&data, k));
        }
        for q in (0..60_000u64).step_by(101) {
            assert_eq!(rmi.lower_bound(q), oracle(&data, q));
        }
    }

    #[test]
    fn hybrid_threshold_zero_degenerates_to_all_btrees() {
        // §3.3: "in the case of an extremely difficult to learn data
        // distribution, all models would be automatically replaced by
        // B-Trees, making it virtually an entire B-Tree."
        let data = quadratic_data(2000);
        let cfg = RmiConfig::two_stage(TopModel::Linear, 4).with_hybrid(0);
        let rmi = Rmi::build(data.clone(), &cfg);
        let nonempty = cascade_leaves(&rmi).iter().filter(|l| l.n_keys > 0).count();
        assert_eq!(rmi.stats().btree_leaves, nonempty);
        check_exact(data, &cfg);
    }

    #[test]
    fn error_envelope_contains_all_stored_keys() {
        let data = quadratic_data(5000);
        let rmi = Rmi::build(data.clone(), &RmiConfig::two_stage(TopModel::Linear, 64));
        for (i, &k) in data.iter().enumerate() {
            let p = rmi.predict(k);
            assert!(
                (p.lo..p.hi.max(p.lo + 1)).contains(&i),
                "key {k} at {i} outside window {}..{}",
                p.lo,
                p.hi
            );
        }
    }

    #[test]
    fn size_accounting_matches_paper_scale() {
        // Figure 4: 10k second-stage models ≈ 0.15MB.
        let data = linear_data(50_000);
        let rmi = Rmi::build(data, &RmiConfig::two_stage(TopModel::Linear, 10_000));
        let mb = rmi.size_bytes() as f64 / (1024.0 * 1024.0);
        assert!((0.1..0.25).contains(&mb), "size {mb} MB");
    }

    #[test]
    fn stats_and_name_are_consistent() {
        let rmi = Rmi::build(
            linear_data(1000),
            &RmiConfig::two_stage(TopModel::Linear, 32),
        );
        assert_eq!(rmi.stats().leaves, 32);
        assert!(rmi.name().contains("leaves=32"));
        assert_eq!(rmi.search_strategy(), SearchStrategy::ModelBiasedBinary);
    }

    #[test]
    fn batched_lookup_matches_scalar_for_all_strategies() {
        let data = quadratic_data(3000);
        let queries: Vec<u64> = (0..4000u64).map(|i| i * i / 2 + 3).collect();
        for s in SearchStrategy::ALL {
            let rmi = Rmi::build(
                data.clone(),
                &RmiConfig::two_stage(TopModel::Linear, 64).with_search(s),
            );
            let mut out = vec![0usize; queries.len()];
            rmi.lower_bound_batch(&queries, &mut out);
            for (&q, &got) in queries.iter().zip(&out) {
                assert_eq!(got, rmi.lower_bound(q), "{} q={q}", s.name());
            }
        }
    }

    #[test]
    fn batched_lookup_matches_scalar_with_hybrid_leaves() {
        let mut data: Vec<u64> = Vec::new();
        let mut v = 0u64;
        for i in 0..3000u64 {
            v += if (i / 100) % 2 == 0 { 1 } else { 10_000 };
            data.push(v);
        }
        let rmi = Rmi::build(
            data.clone(),
            &RmiConfig::two_stage(TopModel::Linear, 8).with_hybrid(10),
        );
        assert!(rmi.stats().btree_leaves > 0);
        let queries: Vec<u64> = (0..50_000u64).step_by(17).collect();
        let mut out = vec![0usize; queries.len()];
        rmi.lower_bound_batch(&queries, &mut out);
        for (&q, &got) in queries.iter().zip(&out) {
            assert_eq!(got, rmi.lower_bound(q), "q={q}");
        }
    }

    #[test]
    fn hybrid_leaves_share_the_key_store() {
        // The B-Tree fallback leaves must be views into the RMI's own
        // key array, not per-leaf copies.
        let mut data: Vec<u64> = Vec::new();
        let mut v = 0u64;
        for i in 0..3000u64 {
            v += if (i / 100) % 2 == 0 { 1 } else { 10_000 };
            data.push(v);
        }
        let store = KeyStore::new(data);
        let rmi = Rmi::build(
            store.clone(),
            &RmiConfig::two_stage(TopModel::Linear, 8).with_hybrid(10),
        );
        assert!(rmi.key_store().ptr_eq(&store));
        let mut hybrid_seen = 0usize;
        for leaf in cascade_leaves(&rmi) {
            if let LeafKind::BTree { tree, .. } = &leaf.kind {
                hybrid_seen += 1;
                assert!(tree.key_store().ptr_eq(&store), "leaf copied the keys");
            }
        }
        assert!(hybrid_seen > 0);
    }

    #[test]
    fn params_round_trip_is_exact_and_trains_nothing() {
        let data = quadratic_data(3000);
        let store = KeyStore::new(data.clone());
        let rmi = Rmi::build(store.clone(), &RmiConfig::corridor(32));
        let params = rmi.to_params().expect("a corridor is serializable");

        let before = crate::rmi::train_count();
        let back = Rmi::from_params(store.clone(), &params).expect("valid params");
        assert_eq!(
            crate::rmi::train_count(),
            before,
            "from_params must not train"
        );
        assert!(back.key_store().ptr_eq(&store), "rebuild shares the store");
        assert_eq!(back.to_params().as_ref(), Some(&params), "exact round trip");
        assert_eq!(back.stats().eps, rmi.stats().eps);
        for q in data.iter().flat_map(|&k| [k - 1, k, k + 1]) {
            assert_eq!(back.lower_bound(q), rmi.lower_bound(q), "q={q}");
        }
    }

    #[test]
    fn params_cover_corridors_only_and_reject_bad_segments() {
        let data = linear_data(500);
        let cascade = Rmi::build(data.clone(), &RmiConfig::two_stage(TopModel::Linear, 8));
        assert!(cascade.to_params().is_none(), "a cascade has no params");

        let params = Rmi::build(data.clone(), &RmiConfig::corridor(8))
            .to_params()
            .unwrap();
        let mut bad = params.clone();
        bad.eps = 0;
        assert!(Rmi::from_params(data.clone(), &bad).is_none(), "zero ε");
        let mut bad = params.clone();
        bad.segments[0].start = 1;
        assert!(Rmi::from_params(data.clone(), &bad).is_none(), "start ≠ 0");
        let mut bad = params.clone();
        bad.segments.clear();
        assert!(
            Rmi::from_params(data.clone(), &bad).is_none(),
            "no segments"
        );
    }
}
