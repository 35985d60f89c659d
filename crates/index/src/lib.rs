//! # li-index — the foundation of the learned-index workspace
//!
//! The paper's central claim (§3) is that B-Trees, lookup tables and
//! learned models are all *interchangeable models over one sorted
//! array*. This crate is that claim as a dependency graph: it holds the
//! shared vocabulary every index implementation speaks, with no
//! dependency on any particular implementation.
//!
//! * [`KeyStore`] — the shared, zero-copy sorted key array. Every index
//!   in the workspace (baseline or learned) is built over a `KeyStore`
//!   clone, so LIF synthesis can build N candidates over one allocation.
//! * [`Prediction`] — a candidate region produced by an index's predict
//!   phase (for a B-Tree: the page; for a model: position ± error).
//! * [`RangeIndex`] — the common trait, split into *predict* and
//!   *search* phases so the benchmark harness can report the paper's
//!   "Model (ns)" column, plus [`RangeIndex::lower_bound_batch`]: the
//!   batched execution path that lets phase-split implementations
//!   overlap the cache misses of many queries (the SOSD-style
//!   memory-level-parallelism measurement).
//! * [`partition`] — the range-partitioning arithmetic shared by the
//!   sharded serving layer (`li-serve`): balanced shard offsets, shard
//!   boundary keys, and the reference routing rule with its
//!   duplicates-safe correctness argument.
//!
//! The workspace dependency graph is `li-index → li-btree → li-core →
//! {li-serve, li-hash} → {li-bloom, li-bench}`; `li-btree` and
//! `li-core` re-export these types for backward compatibility, and
//! `li-serve` builds its sharded serving layer on [`partition`].

// `deny` rather than `forbid`: the `mapped` module is the workspace's
// single, audited `unsafe` island (file and huge-page mappings,
// pointer-to-slice views, the prefetch intrinsic) and opts out locally.
// Everything else stays unsafe-free and the lint keeps it that way; the
// clippy lint makes every unsafe block there say why it is sound.
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod keystore;
pub mod mapped;
pub mod partition;

pub use keystore::KeyStore;
pub use mapped::{prefetch, MappedFile};

/// A candidate region produced by an index's predict phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// The position estimate (for a B-Tree: start of the page; for a
    /// learned index: the model output).
    pub pos: usize,
    /// Inclusive lower bound of the region guaranteed to contain the
    /// lower-bound position of the key.
    pub lo: usize,
    /// Exclusive upper bound of that region.
    pub hi: usize,
}

/// A read-only range index over a sorted `u64` key array.
///
/// Semantics follow §3.4 of the paper: `lower_bound(q)` returns the
/// position of the first stored key `>= q` (i.e. `data.len()` when every
/// key is smaller), exactly like `slice::partition_point(|k| k < q)` on
/// the underlying sorted array. Keys may contain duplicates unless an
/// implementation documents a stricter contract.
pub trait RangeIndex: Send + Sync {
    /// The shared key store the index was built over. All stored keys —
    /// `data()` is a view into exactly this store, so callers can verify
    /// zero-copy sharing across indexes with [`KeyStore::ptr_eq`].
    fn key_store(&self) -> &KeyStore;

    /// The sorted key array the index was built over.
    fn data(&self) -> &[u64] {
        self.key_store().as_slice()
    }

    /// Predict phase: narrow the key to a candidate region. The paper's
    /// "Model (ns)" column times exactly this.
    fn predict(&self, key: u64) -> Prediction;

    /// Full lookup: position of the first key `>= key`.
    fn lower_bound(&self, key: u64) -> usize;

    /// Batched lookup: for every `queries[i]`, store the position of the
    /// first key `>= queries[i]` into `out[i]`.
    ///
    /// The default is the scalar loop. Implementations with a separable
    /// predict phase ([`crate::RangeIndex::predict`]) override this with
    /// a *phase-split* plan: run every model/traversal prediction first,
    /// then resolve every local search — loop fission that exposes the
    /// independent cache misses of different queries to the hardware at
    /// once instead of serializing predict→search per query.
    ///
    /// # Panics
    /// If `queries.len() != out.len()`.
    fn lower_bound_batch(&self, queries: &[u64], out: &mut [usize]) {
        assert_eq!(
            queries.len(),
            out.len(),
            "lower_bound_batch: queries and out must have equal length"
        );
        for (o, &q) in out.iter_mut().zip(queries) {
            *o = self.lower_bound(q);
        }
    }

    /// Position of the first key `> key`.
    ///
    /// Correct for duplicate keysets: every key equal to `key` is
    /// skipped with a `partition_point` scan over the (contiguous) run
    /// of equal keys, not just one.
    fn upper_bound(&self, key: u64) -> usize {
        let lb = self.lower_bound(key);
        let data = self.data();
        // data[lb..] starts at the first key >= `key`; equal keys form a
        // contiguous prefix of that tail.
        lb + data[lb..].partition_point(|&k| k == key)
    }

    /// Position of `key` if present (the first occurrence, for
    /// duplicate keysets).
    fn lookup(&self, key: u64) -> Option<usize> {
        let lb = self.lower_bound(key);
        let data = self.data();
        (lb < data.len() && data[lb] == key).then_some(lb)
    }

    /// All positions whose keys fall in `[lo, hi)` — the range scan the
    /// sorted layout exists to serve (§2.2).
    fn range(&self, lo: u64, hi: u64) -> std::ops::Range<usize> {
        if hi <= lo {
            return 0..0;
        }
        let start = self.lower_bound(lo);
        let end = self.lower_bound(hi);
        start..end
    }

    /// Index overhead in bytes, **excluding** the data array itself (the
    /// paper's "Size (MB)" column counts only the index).
    fn size_bytes(&self) -> usize;

    /// Human-readable name including configuration, e.g.
    /// `"btree(page=128)"`.
    fn name(&self) -> String;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal reference implementation: plain binary search over the
    /// store. Exercises every *provided* trait method exactly as written.
    struct BinarySearchIndex {
        keys: KeyStore,
    }

    impl BinarySearchIndex {
        fn new(data: Vec<u64>) -> Self {
            Self {
                keys: KeyStore::new(data),
            }
        }
    }

    impl RangeIndex for BinarySearchIndex {
        fn key_store(&self) -> &KeyStore {
            &self.keys
        }

        fn predict(&self, key: u64) -> Prediction {
            let pos = self.lower_bound(key);
            Prediction {
                pos,
                lo: pos,
                hi: pos,
            }
        }

        fn lower_bound(&self, key: u64) -> usize {
            self.keys.partition_point(|&k| k < key)
        }

        fn size_bytes(&self) -> usize {
            0
        }

        fn name(&self) -> String {
            "binary-search".into()
        }
    }

    fn upper_oracle(data: &[u64], key: u64) -> usize {
        data.partition_point(|&k| k <= key)
    }

    #[test]
    fn provided_methods_agree_with_semantics() {
        let idx = BinarySearchIndex::new(vec![10, 20, 30, 40]);
        assert_eq!(idx.lookup(20), Some(1));
        assert_eq!(idx.lookup(25), None);
        assert_eq!(idx.upper_bound(20), 2);
        assert_eq!(idx.upper_bound(25), 2);
        assert_eq!(idx.range(15, 35), 1..3);
        assert_eq!(idx.range(35, 15), 0..0);
        assert_eq!(idx.range(0, 100), 0..4);
    }

    #[test]
    fn upper_bound_skips_entire_duplicate_runs() {
        // Regression: the old default assumed unique keys and skipped at
        // most one equal key, silently under-counting on duplicates.
        let data = vec![1u64, 5, 5, 5, 5, 9, 9, 12];
        let idx = BinarySearchIndex::new(data.clone());
        for q in [0u64, 1, 2, 5, 6, 9, 10, 12, 13, u64::MAX] {
            assert_eq!(idx.upper_bound(q), upper_oracle(&data, q), "q={q}");
        }
        // The run the old implementation got wrong: upper_bound(5) must
        // land after all four 5s, not after the first.
        assert_eq!(idx.upper_bound(5), 5);
        assert_eq!(idx.upper_bound(9), 7);
    }

    #[test]
    fn upper_bound_on_all_equal_keys() {
        for n in [1usize, 2, 7, 100] {
            let idx = BinarySearchIndex::new(vec![42u64; n]);
            assert_eq!(idx.upper_bound(42), n);
            assert_eq!(idx.upper_bound(41), 0);
            assert_eq!(idx.upper_bound(43), n);
            assert_eq!(idx.lookup(42), Some(0));
        }
    }

    #[test]
    fn upper_bound_handles_max_key_duplicates() {
        let idx = BinarySearchIndex::new(vec![7, u64::MAX, u64::MAX, u64::MAX]);
        assert_eq!(idx.upper_bound(u64::MAX), 4);
        assert_eq!(idx.lower_bound(u64::MAX), 1);
    }

    #[test]
    fn lookup_returns_first_occurrence() {
        let idx = BinarySearchIndex::new(vec![3, 3, 3, 8, 8]);
        assert_eq!(idx.lookup(3), Some(0));
        assert_eq!(idx.lookup(8), Some(3));
        assert_eq!(idx.range(3, 8), 0..3);
    }

    #[test]
    fn default_batch_matches_scalar() {
        let data: Vec<u64> = (0..500u64).map(|i| i * 3).collect();
        let idx = BinarySearchIndex::new(data);
        let queries: Vec<u64> = (0..600u64).map(|i| i * 7 % 1600).collect();
        let mut out = vec![0usize; queries.len()];
        idx.lower_bound_batch(&queries, &mut out);
        for (&q, &got) in queries.iter().zip(&out) {
            assert_eq!(got, idx.lower_bound(q), "q={q}");
        }
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn batch_length_mismatch_panics() {
        let idx = BinarySearchIndex::new(vec![1]);
        let mut out = vec![0usize; 2];
        idx.lower_bound_batch(&[1, 2, 3], &mut out);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let idx = BinarySearchIndex::new(vec![]);
        let mut out: Vec<usize> = vec![];
        idx.lower_bound_batch(&[], &mut out);
        assert!(out.is_empty());
    }
}
