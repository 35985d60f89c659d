//! Fixed-size B-Tree with interpolation search (Figure 5 baseline).
//!
//! §3.7.1: *"as proposed in a recent blog post \[1\] we created a
//! fixed-height B-Tree with interpolation search. The B-Tree height is
//! set, so that the total size of the tree is 1.5MB, similar to our
//! learned model."* (Reference \[1\] is the "database architects" blog's
//! reply to the learned-index paper.)
//!
//! Given a byte budget, we choose the page size so that the separator
//! array fits the budget, producing a two-level structure (one separator
//! array over large data pages). Both the separator array and the final
//! page are searched with interpolation search — the whole point of the
//! baseline is that interpolation exploits the data distribution much
//! like a linear model does, one step at a time.

use crate::search::interpolation_search;
use crate::{KeyStore, Prediction, RangeIndex};

/// Fixed-budget B-Tree using interpolation search inside nodes.
#[derive(Debug, Clone)]
pub struct InterpBTree {
    data: KeyStore,
    /// First key of every page.
    separators: Vec<u64>,
    page_size: usize,
}

impl InterpBTree {
    /// Build over `data` (sorted ascending; shared via [`KeyStore`]) so
    /// that the index occupies at most `budget_bytes`.
    pub fn with_budget(data: impl Into<KeyStore>, budget_bytes: usize) -> Self {
        let data: KeyStore = data.into();
        let n = data.len();
        let max_separators = (budget_bytes / std::mem::size_of::<u64>()).max(1);
        // page_size = ceil(n / max_separators), at least 2.
        let page_size = n.div_ceil(max_separators).max(2);
        Self::with_page_size(data, page_size)
    }

    /// Build with an explicit page size.
    pub fn with_page_size(data: impl Into<KeyStore>, page_size: usize) -> Self {
        let data: KeyStore = data.into();
        assert!(page_size >= 2);
        debug_assert!(data.windows(2).all(|w| w[0] <= w[1]));
        let separators = data.iter().step_by(page_size).copied().collect();
        Self {
            data,
            separators,
            page_size,
        }
    }
}

impl RangeIndex for InterpBTree {
    fn key_store(&self) -> &KeyStore {
        &self.data
    }

    #[inline]
    fn predict(&self, key: u64) -> Prediction {
        if self.separators.is_empty() {
            return Prediction {
                pos: 0,
                lo: 0,
                hi: self.data.len(),
            };
        }
        // Interpolation search over the separators: first separator
        // >= key, minus one, names the page — i.e. route on the last
        // separator strictly < key, so a duplicate run spanning a page
        // boundary resolves to its first occurrence (the page-local
        // search returns the page end when every key is smaller, which
        // is where such a run starts).
        let idx = interpolation_search(&self.separators, key, 0, self.separators.len());
        let page = idx.saturating_sub(1);
        let lo = page * self.page_size;
        let hi = (lo + self.page_size).min(self.data.len());
        Prediction { pos: lo, lo, hi }
    }

    #[inline]
    fn lower_bound(&self, key: u64) -> usize {
        let p = self.predict(key);
        interpolation_search(&self.data, key, p.lo, p.hi)
    }

    fn size_bytes(&self) -> usize {
        self.separators.len() * std::mem::size_of::<u64>()
    }

    fn name(&self) -> String {
        format!("interp-btree(page={})", self.page_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle(data: &[u64], key: u64) -> usize {
        data.partition_point(|&k| k < key)
    }

    fn check(data: Vec<u64>, budget: usize) {
        let idx = InterpBTree::with_budget(data.clone(), budget);
        let mut queries = vec![0u64, 1, u64::MAX];
        for &k in data.iter().step_by(13) {
            queries.extend_from_slice(&[k.saturating_sub(1), k, k.saturating_add(1)]);
        }
        for q in queries {
            assert_eq!(idx.lower_bound(q), oracle(&data, q), "q={q}");
        }
    }

    #[test]
    fn matches_oracle_on_uniform_keys() {
        check((0..10_000u64).map(|i| i * 17).collect(), 1024);
    }

    #[test]
    fn matches_oracle_on_skewed_keys() {
        // Quadratic growth — the adversarial case for interpolation.
        let mut data: Vec<u64> = (0..5000u64).map(|i| i * i).collect();
        data.dedup();
        check(data, 2048);
    }

    #[test]
    fn budget_is_respected() {
        let data: Vec<u64> = (0..100_000u64).collect();
        for budget in [512usize, 4096, 65_536] {
            let idx = InterpBTree::with_budget(data.clone(), budget);
            assert!(
                idx.size_bytes() <= budget,
                "budget {budget} size {}",
                idx.size_bytes()
            );
        }
    }

    #[test]
    fn tiny_inputs() {
        check(vec![], 64);
        check(vec![7], 64);
        check(vec![7, 9], 64);
    }

    /// Duplicate runs spanning page boundaries must resolve to the
    /// run's first occurrence (regression: routing on the first
    /// separator > key landed past earlier occurrences).
    #[test]
    fn duplicate_runs_resolve_to_first_occurrence() {
        let data: Vec<u64> = (0..700u64).map(|i| (i / 7) * 3).collect();
        for page in [2usize, 3, 8, 32] {
            let idx = InterpBTree::with_page_size(data.clone(), page);
            for &k in data.iter().step_by(5) {
                for q in [k.saturating_sub(1), k, k + 1] {
                    assert_eq!(idx.lower_bound(q), oracle(&data, q), "page={page} q={q}");
                }
            }
        }
        let all_equal = vec![42u64; 257];
        let idx = InterpBTree::with_page_size(all_equal.clone(), 4);
        assert_eq!(idx.lower_bound(42), 0);
        assert_eq!(idx.lower_bound(41), 0);
        assert_eq!(idx.lower_bound(43), 257);
    }

    #[test]
    fn uses_larger_pages_for_smaller_budgets() {
        let data: Vec<u64> = (0..100_000u64).collect();
        let small = InterpBTree::with_budget(data.clone(), 1024);
        let large = InterpBTree::with_budget(data, 64 * 1024);
        // One separator per page: larger pages, fewer separators.
        assert!(small.size_bytes() < large.size_bytes());
    }
}
