//! The read-optimized static B-Tree baseline of §3.7.1.
//!
//! The paper's baseline is "a production quality B-Tree implementation
//! which is similar to the stx::btree but with further cache-line
//! optimization, dense pages (i.e., fill factor of 100%), and very
//! competitive performance". For a read-only sorted array the
//! state-of-the-art layout is a CSS-tree: all separator keys of one level
//! stored in a single flat array, children addressed by offset arithmetic
//! instead of pointers. That is what we build here:
//!
//! * the data array is logically split into pages of `page_size` keys
//!   (the paper's page size "indicates the number of keys per page");
//! * level 0 of the index holds the first key of every page ("it is
//!   common not to index every single key … rather only the key of every
//!   n-th record, i.e., the first key of a page", §2);
//! * each higher level holds the first key of every `page_size`-chunk of
//!   the level below, until a level fits in one node.
//!
//! Lookup descends the levels with one in-node binary search each — the
//! paper's "model" phase — and finishes with a binary search inside the
//! data page — the "last mile". 100% fill, no pointers, no padding.

use crate::search::lower_bound;
use crate::{KeyStore, Prediction, RangeIndex};

/// Static dense-page B-Tree over a sorted `u64` array.
#[derive(Debug, Clone)]
pub struct BTreeIndex {
    data: KeyStore,
    /// Separator levels, bottom (largest) last. `levels[0]` is the root
    /// level (≤ `page_size` keys); each key is the first key of a chunk
    /// of the level below (or of a data page, for the last level).
    levels: Vec<Vec<u64>>,
    page_size: usize,
}

impl BTreeIndex {
    /// Build over `data` (must be sorted ascending; checked in debug
    /// builds) with `page_size` keys per page. Accepts anything
    /// convertible to a [`KeyStore`] — pass a `KeyStore` clone to share
    /// the key array with other indexes at zero copy.
    pub fn new(data: impl Into<KeyStore>, page_size: usize) -> Self {
        let data: KeyStore = data.into();
        assert!(page_size >= 2, "page size must be at least 2");
        debug_assert!(data.windows(2).all(|w| w[0] <= w[1]), "data must be sorted");

        // Bottom-up: leaf separator level = first key of each data page.
        let mut levels: Vec<Vec<u64>> = Vec::new();
        if data.len() > page_size {
            let mut level: Vec<u64> = data.iter().step_by(page_size).copied().collect();
            while level.len() > page_size {
                let upper: Vec<u64> = level.iter().step_by(page_size).copied().collect();
                levels.push(level);
                level = upper;
            }
            levels.push(level);
            levels.reverse(); // root first
        }
        Self {
            data,
            levels,
            page_size,
        }
    }

    /// Keys per page.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of index levels (tree height minus the data level).
    pub fn height(&self) -> usize {
        self.levels.len()
    }

    /// Descend the separator levels to the data-page index containing
    /// the key. This is the B-Tree's "model execution" (§2: a B-Tree
    /// "maps a key to a position with a min-error of 0 and a max-error
    /// of the page-size").
    #[inline]
    fn find_page(&self, key: u64) -> usize {
        // `child` = index of the current node within its level.
        let mut child = 0usize;
        for level in &self.levels {
            let start = child * self.page_size;
            let end = (start + self.page_size).min(level.len());
            // Position of the last separator strictly < key within this
            // node (first separator is a lower fence). Routing on `<`
            // rather than `<=` keeps duplicate runs that span page
            // boundaries correct: a run of `key`s starting in an earlier
            // page must not be skipped by an equal separator here — if
            // the routed page holds only smaller keys, the answer is its
            // end, which is exactly where the run starts.
            let in_node = level[start..end].partition_point(|&k| k < key);
            child = start + in_node.saturating_sub(1);
        }
        child
    }
}

impl RangeIndex for BTreeIndex {
    fn key_store(&self) -> &KeyStore {
        &self.data
    }

    #[inline]
    fn predict(&self, key: u64) -> Prediction {
        if self.levels.is_empty() {
            return Prediction {
                pos: 0,
                lo: 0,
                hi: self.data.len(),
            };
        }
        let page = self.find_page(key);
        let lo = page * self.page_size;
        let hi = (lo + self.page_size).min(self.data.len());
        Prediction { pos: lo, lo, hi }
    }

    #[inline]
    fn lower_bound(&self, key: u64) -> usize {
        let p = self.predict(key);
        // If every key in the page is smaller, the answer is the start of
        // the next page, which `lower_bound` returns as `p.hi` — correct
        // because the next page's first key is >= key (separator
        // property under strict-< routing), and when it is == key it is
        // the first occurrence of a duplicate run.
        lower_bound(&self.data, key, p.lo, p.hi)
    }

    /// Phase-split batched lookup: descend the separator levels for
    /// *every* query first, then run all page-local binary searches.
    /// The traversal loop touches only the (small, cache-resident)
    /// separator arrays while the search loop touches the (large) data
    /// array, so the data-page cache misses of different queries are
    /// independent and the hardware can overlap them.
    fn lower_bound_batch(&self, queries: &[u64], out: &mut [usize]) {
        assert_eq!(
            queries.len(),
            out.len(),
            "lower_bound_batch: queries and out must have equal length"
        );
        // Phase 1: predict (separator traversal) for all queries.
        let preds: Vec<Prediction> = queries.iter().map(|&q| self.predict(q)).collect();
        // Phase 2: resolve all page-local searches.
        for ((o, &q), p) in out.iter_mut().zip(queries).zip(&preds) {
            *o = lower_bound(&self.data, q, p.lo, p.hi);
        }
    }

    fn size_bytes(&self) -> usize {
        self.levels
            .iter()
            .map(|l| l.len() * std::mem::size_of::<u64>())
            .sum()
    }

    fn name(&self) -> String {
        format!("btree(page={})", self.page_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle(data: &[u64], key: u64) -> usize {
        data.partition_point(|&k| k < key)
    }

    fn check_against_oracle(data: Vec<u64>, page_size: usize) {
        let idx = BTreeIndex::new(data.clone(), page_size);
        let mut queries = vec![0u64, u64::MAX];
        for &k in &data {
            queries.extend_from_slice(&[k.saturating_sub(1), k, k.saturating_add(1)]);
        }
        for q in queries {
            assert_eq!(
                idx.lower_bound(q),
                oracle(&data, q),
                "page={page_size} q={q}"
            );
        }
    }

    #[test]
    fn matches_oracle_across_page_sizes() {
        let data: Vec<u64> = (0..2000u64).map(|i| i * 7 + 3).collect();
        for page in [2, 3, 16, 32, 128, 512, 4096] {
            check_against_oracle(data.clone(), page);
        }
    }

    #[test]
    fn tiny_and_empty_inputs() {
        check_against_oracle(vec![], 16);
        check_against_oracle(vec![42], 16);
        check_against_oracle(vec![1, 2], 2);
    }

    #[test]
    fn multi_level_height_grows_logarithmically() {
        let data: Vec<u64> = (0..100_000u64).collect();
        let idx = BTreeIndex::new(data, 10);
        // 100k keys / page 10 → 10k separators → 1k → 100 → 10: 4 levels.
        assert_eq!(idx.height(), 4);
    }

    #[test]
    fn size_counts_only_separators() {
        let data: Vec<u64> = (0..10_000u64).collect();
        let idx = BTreeIndex::new(data, 100);
        // level0: 100 separators, root: 1 chunk of them → one level of
        // 100 within node budget → exactly 100 u64 = 800 bytes.
        assert_eq!(idx.size_bytes(), 100 * 8);
        // Bigger pages → smaller index (the paper's size column).
        let big = BTreeIndex::new((0..10_000u64).collect::<Vec<_>>(), 500);
        assert!(big.size_bytes() < idx.size_bytes());
    }

    #[test]
    fn predict_region_always_contains_answer() {
        let data: Vec<u64> = (0..5000u64).map(|i| i * 11).collect();
        let idx = BTreeIndex::new(data.clone(), 64);
        for q in (0..60_000u64).step_by(37) {
            let p = idx.predict(q);
            let ans = oracle(&data, q);
            assert!(
                (p.lo..=p.hi).contains(&ans),
                "q={q} ans={ans} region {}..{}",
                p.lo,
                p.hi
            );
        }
    }

    #[test]
    fn data_smaller_than_one_page_has_no_index() {
        let idx = BTreeIndex::new((0..50u64).collect::<Vec<_>>(), 128);
        assert_eq!(idx.size_bytes(), 0);
        assert_eq!(idx.height(), 0);
        assert_eq!(idx.lower_bound(25), 25);
    }

    #[test]
    fn batched_lookup_matches_scalar() {
        let data: Vec<u64> = (0..3000u64).map(|i| i * 5 + 1).collect();
        for page in [2usize, 16, 128] {
            let idx = BTreeIndex::new(data.clone(), page);
            let queries: Vec<u64> = (0..4000u64).map(|i| i * 4).collect();
            let mut out = vec![0usize; queries.len()];
            idx.lower_bound_batch(&queries, &mut out);
            for (&q, &got) in queries.iter().zip(&out) {
                assert_eq!(got, idx.lower_bound(q), "page={page} q={q}");
            }
        }
    }

    #[test]
    fn shares_key_store_without_copying() {
        let store = KeyStore::new((0..100u64).collect());
        let a = BTreeIndex::new(store.clone(), 16);
        let b = BTreeIndex::new(store.clone(), 32);
        assert!(a.key_store().ptr_eq(b.key_store()));
        assert!(a.key_store().ptr_eq(&store));
    }

    #[test]
    fn range_scan_is_correct() {
        let data: Vec<u64> = (0..1000u64).map(|i| i * 2).collect();
        let idx = BTreeIndex::new(data, 32);
        assert_eq!(idx.range(10, 20), 5..10);
        assert_eq!(idx.range(11, 13), 6..7); // only key 12
    }

    /// Duplicate runs spanning page boundaries: lower_bound must return
    /// the run's *first* occurrence even when a later page's separator
    /// equals the key (regression: `<=` routing skipped to that page).
    #[test]
    fn duplicate_runs_resolve_to_first_occurrence() {
        // Runs of 7 equal keys over small pages so runs straddle pages
        // at every alignment, across multiple tree heights.
        let data: Vec<u64> = (0..700u64).map(|i| (i / 7) * 3).collect();
        for page in [2usize, 3, 4, 8, 16] {
            check_against_oracle(data.clone(), page);
        }
        // All-equal input: every separator is the key.
        check_against_oracle(vec![42; 257], 4);
    }
}
