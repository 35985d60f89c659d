//! Property-based tests: `lower_bound_batch` must be observationally
//! identical to per-query `lower_bound` for **every** `RangeIndex`
//! implementation — including the phase-split specializations of `Rmi`
//! and `BTreeIndex` — over arbitrary keysets (empty, single-key,
//! duplicate-heavy) and probe points up to `u64::MAX`.

use learned_indexes::btree::{BTreeIndex, FastTree, InterpBTree, LookupTable};
use learned_indexes::rmi::{Rmi, RmiConfig, SearchStrategy, TopModel};
use learned_indexes::{KeyStore, RangeIndex};
use proptest::prelude::*;

fn sorted(mut keys: Vec<u64>) -> Vec<u64> {
    keys.sort_unstable();
    keys
}

fn sorted_unique(keys: Vec<u64>) -> Vec<u64> {
    let mut k = sorted(keys);
    k.dedup();
    k
}

/// Probe set: the raw queries plus domain extremes, so every run covers
/// the `u64::MAX` boundary regardless of what the generator drew.
fn probes(queries: &[u64]) -> Vec<u64> {
    let mut qs = queries.to_vec();
    qs.extend_from_slice(&[0, 1, u64::MAX - 1, u64::MAX]);
    qs
}

fn assert_batch_matches_scalar(idx: &dyn RangeIndex, queries: &[u64]) -> Result<(), TestCaseError> {
    let qs = probes(queries);
    let mut out = vec![usize::MAX; qs.len()];
    idx.lower_bound_batch(&qs, &mut out);
    for (&q, &got) in qs.iter().zip(&out) {
        prop_assert_eq!(got, idx.lower_bound(q), "{} q={}", idx.name(), q);
    }
    // Empty batches must be accepted too.
    idx.lower_bound_batch(&[], &mut []);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Baseline structures accept duplicate-free keysets of any size
    /// (covers empty and single-key via the 0.. lower bound).
    #[test]
    fn baselines_batch_equals_scalar(
        keys in prop::collection::vec(any::<u64>(), 0..400),
        queries in prop::collection::vec(any::<u64>(), 1..60),
        page in 2usize..64,
        budget in 64usize..2048,
    ) {
        let store = KeyStore::new(sorted_unique(keys));
        let indexes: Vec<Box<dyn RangeIndex>> = vec![
            Box::new(BTreeIndex::new(store.clone(), page)),
            Box::new(FastTree::new(store.clone())),
            Box::new(LookupTable::new(store.clone())),
            Box::new(InterpBTree::with_budget(store.clone(), budget)),
        ];
        for idx in &indexes {
            // The shared-store migration is part of the contract.
            prop_assert!(idx.key_store().ptr_eq(&store), "{}", idx.name());
            assert_batch_matches_scalar(idx.as_ref(), &queries)?;
        }
    }

    /// Duplicate-heavy multisets (keys drawn from a tiny domain so runs
    /// are long). Batch ≡ scalar must hold whatever each structure
    /// answers; additionally FastTree — which is exact on duplicates —
    /// must match the oracle, and the default `upper_bound` must skip
    /// whole duplicate runs.
    #[test]
    fn duplicates_batch_equals_scalar(
        keys in prop::collection::vec(0u64..16, 0..300),
        queries in prop::collection::vec(any::<u64>(), 1..40),
        page in 2usize..16,
    ) {
        let data = sorted(keys);
        let store = KeyStore::new(data.clone());
        let btree = BTreeIndex::new(store.clone(), page);
        let fast = FastTree::new(store.clone());
        assert_batch_matches_scalar(&btree, &queries)?;
        assert_batch_matches_scalar(&fast, &queries)?;
        for q in probes(&queries) {
            prop_assert_eq!(fast.lower_bound(q), data.partition_point(|&k| k < q));
            prop_assert_eq!(fast.upper_bound(q), data.partition_point(|&k| k <= q));
        }
    }

    /// The RMI (documented contract: sorted unique keys) across every
    /// search strategy, exercising its phase-split batch specialization.
    #[test]
    fn rmi_batch_equals_scalar(
        keys in prop::collection::vec(any::<u64>(), 0..400),
        queries in prop::collection::vec(any::<u64>(), 1..40),
        leaves in 1usize..48,
        strategy_idx in 0usize..4,
    ) {
        let store = KeyStore::new(sorted_unique(keys));
        let cfg = RmiConfig::two_stage(TopModel::Linear, leaves)
            .with_search(SearchStrategy::ALL[strategy_idx]);
        let rmi = Rmi::build(store.clone(), &cfg);
        prop_assert!(rmi.key_store().ptr_eq(&store));
        assert_batch_matches_scalar(&rmi, &queries)?;

        // The ε-corridor's plan goes through the same phase split.
        let cfg = RmiConfig::corridor(leaves).with_search(SearchStrategy::ALL[strategy_idx]);
        let corridor = Rmi::build(store.clone(), &cfg);
        prop_assert!(corridor.key_store().ptr_eq(&store));
        assert_batch_matches_scalar(&corridor, &queries)?;
    }

    /// Hybrid RMIs (B-Tree fallback leaves) go through a different plan
    /// branch; batch must stay identical to scalar there too.
    #[test]
    fn hybrid_rmi_batch_equals_scalar(
        keys in prop::collection::vec(any::<u64>(), 0..300),
        queries in prop::collection::vec(any::<u64>(), 1..40),
        threshold in 0u32..8,
    ) {
        let store = KeyStore::new(sorted_unique(keys));
        let cfg = RmiConfig::two_stage(TopModel::Linear, 8).with_hybrid(threshold);
        let rmi = Rmi::build(store.clone(), &cfg);
        assert_batch_matches_scalar(&rmi, &queries)?;
    }
}
