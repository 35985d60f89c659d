//! FAST-like branch-free implicit search tree.
//!
//! FAST [Kim et al., SIGMOD 2010] lays a binary search tree out in
//! hierarchically blocked implicit form and traverses it without data-
//! dependent branches, using SIMD compares. The paper uses it as a
//! baseline (Figure 5) and notes two properties we reproduce:
//!
//! 1. *branch-free traversal*: our descent is a fixed-length loop whose
//!    only data dependence is an arithmetic select (compiles to cmov/
//!    setcc, no mispredictions) — "they can only transform control
//!    dependencies to memory dependencies" (§2.1 fn. 3);
//! 2. *power-of-2 memory blow-up*: "FAST always requires to allocate
//!    memory in the power of 2 … which can lead to significantly larger
//!    indexes" — Figure 5 shows 1024MB vs 16.3MB for the lookup table.
//!    We pad the tree to `2^h − 1` slots and count the padding.
//!
//! The layout is an Eytzinger (BFS-order) complete tree. Because the
//! tree is complete, the sorted *rank* can be reconstructed during the
//! descent from known subtree sizes — no per-node rank storage needed.

use crate::{KeyStore, Prediction, RangeIndex};

/// Branch-free implicit complete binary search tree over sorted keys.
#[derive(Debug, Clone)]
pub struct FastTree {
    data: KeyStore,
    /// Eytzinger-ordered complete tree of `2^height − 1` slots; absent
    /// slots are padded with `u64::MAX`.
    tree: Vec<u64>,
    height: u32,
}

impl FastTree {
    /// Build over `data` (sorted ascending; shared via [`KeyStore`]).
    pub fn new(data: impl Into<KeyStore>) -> Self {
        let data: KeyStore = data.into();
        debug_assert!(data.windows(2).all(|w| w[0] <= w[1]));
        let n = data.len();
        // Smallest complete tree with at least n slots.
        let height = (usize::BITS - n.leading_zeros()).max(1);
        let slots = (1usize << height) - 1;
        let mut tree = vec![u64::MAX; slots];
        // In-order fill of the Eytzinger layout = sorted order.
        fn fill(tree: &mut [u64], data: &[u64], node: usize, next: &mut usize) {
            if node >= tree.len() {
                return;
            }
            fill(tree, data, 2 * node + 1, next);
            if *next < data.len() {
                tree[node] = data[*next];
                *next += 1;
            }
            fill(tree, data, 2 * node + 2, next);
        }
        let mut next = 0usize;
        fill(&mut tree, &data, 0, &mut next);
        Self { data, tree, height }
    }

    /// Branch-free descent returning the rank of the first key `>= key`.
    #[inline]
    fn rank(&self, key: u64) -> usize {
        let mut node = 0usize;
        let mut rank = 0usize;
        // At depth d the subtree below each child has 2^(height-d-1) − 1
        // nodes; going right skips the left subtree plus the node itself.
        let mut skip = 1usize << (self.height - 1); // left subtree + self
        for _ in 0..self.height {
            // Padded slots hold u64::MAX which never compares < key for
            // real keys, so padding never sends us right past real data.
            let go_right = usize::from(self.tree[node] < key);
            rank += go_right * skip;
            node = 2 * node + 1 + go_right;
            skip /= 2;
        }
        rank.min(self.data.len())
    }
}

impl RangeIndex for FastTree {
    fn key_store(&self) -> &KeyStore {
        &self.data
    }

    #[inline]
    fn predict(&self, key: u64) -> Prediction {
        // FAST resolves to the exact position; predict == search.
        let pos = self.rank(key);
        Prediction {
            pos,
            lo: pos,
            hi: pos,
        }
    }

    #[inline]
    fn lower_bound(&self, key: u64) -> usize {
        self.rank(key)
    }

    fn size_bytes(&self) -> usize {
        // The padded tree is the index; the blow-up is intentional.
        self.tree.len() * std::mem::size_of::<u64>()
    }

    fn name(&self) -> String {
        "fast".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle(data: &[u64], key: u64) -> usize {
        data.partition_point(|&k| k < key)
    }

    fn check(data: Vec<u64>) {
        let idx = FastTree::new(data.clone());
        let mut queries = vec![0u64, 1, u64::MAX];
        for &k in &data {
            queries.extend_from_slice(&[k.saturating_sub(1), k, k.saturating_add(1)]);
        }
        for q in queries {
            assert_eq!(idx.lower_bound(q), oracle(&data, q), "{data:?} q={q}");
        }
    }

    #[test]
    fn matches_oracle_at_many_sizes() {
        for n in [0usize, 1, 2, 3, 7, 8, 9, 100, 1023, 1024, 1025] {
            check((0..n as u64).map(|i| i * 5 + 2).collect());
        }
    }

    #[test]
    fn power_of_two_padding_blows_up_size() {
        // 1025 keys pad to 2047 slots: almost 2× the raw keys — the
        // Figure-5 phenomenon.
        let idx = FastTree::new((0..1025u64).collect::<Vec<_>>());
        assert_eq!(idx.size_bytes(), 2047 * 8);
        let exact = FastTree::new((0..1023u64).collect::<Vec<_>>());
        assert_eq!(exact.size_bytes(), 1023 * 8);
    }

    #[test]
    fn max_key_queries_are_correct() {
        // u64::MAX as a query must not be confused by MAX padding.
        let data = vec![1u64, 2, 3];
        let idx = FastTree::new(data.clone());
        assert_eq!(idx.lower_bound(u64::MAX), 3);
        assert_eq!(idx.lookup(u64::MAX), None);
    }

    #[test]
    fn max_key_as_data_still_found() {
        let data = vec![1u64, u64::MAX];
        let idx = FastTree::new(data);
        assert_eq!(idx.lookup(u64::MAX), Some(1));
        assert_eq!(idx.lookup(1), Some(0));
    }

    #[test]
    fn lognormal_style_keys_roundtrip() {
        // Clustered keys exercise deep right/left descents.
        let mut data: Vec<u64> = (0..2000u64).map(|i| i * i * 31 % 1_000_003).collect();
        data.sort_unstable();
        data.dedup();
        check(data);
    }
}
