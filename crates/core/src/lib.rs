//! # li-core — the Recursive Model Index and the Learning Index Framework
//!
//! This crate is the paper's primary contribution, implemented in full:
//!
//! * [`Rmi`] — the Recursive Model Index of §3.2: a hierarchy of models
//!   where "at each stage the model takes the key as an input and based
//!   on it picks another model, until the final stage predicts the
//!   position", trained stage-wise exactly as Algorithm 1, with per-leaf
//!   min-/max-/std-error bookkeeping.
//! * [`RmiConfig`]/[`TopModel`] — the §3.3 model zoo for stage 0 (linear,
//!   multivariate with feature engineering, 0–2-hidden-layer ReLU nets)
//!   over linear inner/leaf stages.
//! * **Hybrid indexes** (§3.3, Algorithm 1 lines 11–14): leaves whose
//!   absolute error exceeds a threshold are replaced by B-Tree leaves, so
//!   "in the case of an extremely difficult to learn data distribution"
//!   the index degrades gracefully into "virtually an entire B-Tree".
//! * [`search`] — the §3.4 search strategies: model-biased binary search,
//!   biased quaternary search, exponential search, plus the automatic
//!   search-area widening that makes lookups exact even for
//!   non-monotonic models.
//! * [`StringRmi`] (§3.5) — fixed-N tokenization of strings into ℝᴺ and
//!   an RMI over vector-input models.
//! * [`Lif`] (§3.1) — the Learning Index Framework: grid-search index
//!   synthesis over configurations, choosing by measured lookup cost.
//! * [`DeltaIndex`] (Appendix D.1) — delta-buffered inserts as an
//!   LSM-style tiered write path: full buffers seal into immutable
//!   [`SortedRun`]s (fence-indexed), full run stacks merge into one run,
//!   and compaction folds the run tier into the base with one retrain
//!   once it holds a sixteenth of it.
//! * [`merge`] — the one splice-merge every tier operation (compaction,
//!   export, split, range scan) goes through: small sorted slices into a
//!   large one, written once.
//! * [`learned_sort`] (§7 "Beyond Indexing") — CDF-model distribution
//!   sort with insertion-sort fixup.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod delta;
pub mod lif;
pub mod merge;
pub mod multidim;
pub mod paging;
pub mod rmi;
pub mod run;
pub mod search;
pub mod sort;
pub mod string_rmi;

pub use delta::{DeltaIndex, DeltaSnapshot};
pub use lif::{Lif, LifCandidate, LifReport, LifSpec};
// The shared vocabulary comes straight from the foundation crate —
// li-core no longer reaches through its own baseline for it.
pub use li_index::{KeyStore, Prediction, RangeIndex};
pub use multidim::ZOrderRmi;
pub use paging::{PagedRmi, PagedStore};
pub use rmi::{
    train_count, Leaf, LeafKind, LeafModelParams, LeafParams, Rmi, RmiConfig, RmiParams, RmiStats,
    TopModel,
};
pub use run::SortedRun;
pub use search::SearchStrategy;
pub use sort::learned_sort;
pub use string_rmi::{tokenize, StringRmi, StringRmiConfig};
