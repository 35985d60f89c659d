//! Property-based tests: range-index correctness over arbitrary key
//! multisets and query points.

use learned_indexes::btree::{
    BTreeIndex, FastTree, InterpBTree, LookupTable, PagedIndex, RangeIndex,
};
use learned_indexes::data::Gauntlet;
use learned_indexes::index::prefetch;
use learned_indexes::rmi::{learned_sort, Rmi, RmiConfig, SearchStrategy, TopModel};
use proptest::prelude::*;

fn sorted_unique(keys: Vec<u64>) -> Vec<u64> {
    let mut k = keys;
    k.sort_unstable();
    k.dedup();
    k
}

fn oracle(data: &[u64], q: u64) -> usize {
    data.partition_point(|&k| k < q)
}

/// A lookup split in two — `start` (model plus prefetch), then
/// `finish` (the last-mile search) — answers what `lower_bound` and the
/// sorted-array oracle answer, on every key, both its neighbours and
/// both ends of the domain, whether a cascade or a corridor built it.
fn assert_start_finish_exact(data: &[u64], leaves: usize) -> Result<(), TestCaseError> {
    for cfg in [
        RmiConfig::two_stage(TopModel::Linear, leaves),
        RmiConfig::corridor(leaves),
    ] {
        let rmi = Rmi::build(data.to_vec(), &cfg);
        let gaps = data
            .iter()
            .flat_map(|&k| [k.saturating_sub(1), k, k.saturating_add(1)]);
        for q in gaps.chain([0, u64::MAX]) {
            let answer = oracle(data, q);
            prop_assert_eq!(
                rmi.finish(q, rmi.start(q)),
                answer,
                "{} q {}",
                rmi.name(),
                q
            );
            prop_assert_eq!(rmi.lower_bound(q), answer, "{} q {}", rmi.name(), q);
            let stored = data.get(answer) == Some(&q);
            prop_assert_eq!(rmi.finish_lookup(q, rmi.start(q)), stored.then_some(answer));
        }
    }
    Ok(())
}

#[test]
fn start_finish_on_empty_and_one_key_arrays() {
    for data in [vec![], vec![0], vec![42], vec![u64::MAX]] {
        assert_start_finish_exact(&data, 1).unwrap();
        assert_start_finish_exact(&data, 8).unwrap();
    }
}

#[test]
fn prefetch_at_len_and_beyond_is_a_no_op() {
    let data: Vec<u64> = Gauntlet::OsmLike.generate(1000, 7);
    let before = data.clone();
    for index in [data.len() - 1, data.len(), data.len() + 1, usize::MAX] {
        prefetch(&data, index);
    }
    prefetch::<u64>(&[], 0);
    prefetch::<u64>(&[], usize::MAX);
    prefetch::<String>(&[], 3);
    assert_eq!(data, before);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn btree_matches_oracle(
        keys in prop::collection::vec(any::<u64>(), 0..300),
        queries in prop::collection::vec(any::<u64>(), 1..50),
        page in 2usize..64,
    ) {
        let data = sorted_unique(keys);
        let idx = BTreeIndex::new(data.clone(), page);
        for q in queries {
            prop_assert_eq!(idx.lower_bound(q), oracle(&data, q));
        }
    }

    #[test]
    fn fast_tree_matches_oracle(
        keys in prop::collection::vec(any::<u64>(), 0..300),
        queries in prop::collection::vec(any::<u64>(), 1..50),
    ) {
        let data = sorted_unique(keys);
        let idx = FastTree::new(data.clone());
        for q in queries {
            prop_assert_eq!(idx.lower_bound(q), oracle(&data, q));
        }
    }

    #[test]
    fn lookup_table_matches_oracle(
        keys in prop::collection::vec(any::<u64>(), 0..500),
        queries in prop::collection::vec(any::<u64>(), 1..50),
    ) {
        let data = sorted_unique(keys);
        let idx = LookupTable::new(data.clone());
        for q in queries {
            prop_assert_eq!(idx.lower_bound(q), oracle(&data, q));
        }
    }

    #[test]
    fn interp_btree_matches_oracle(
        keys in prop::collection::vec(any::<u64>(), 0..300),
        queries in prop::collection::vec(any::<u64>(), 1..50),
        budget in 64usize..4096,
    ) {
        let data = sorted_unique(keys);
        let idx = InterpBTree::with_budget(data.clone(), budget);
        for q in queries {
            prop_assert_eq!(idx.lower_bound(q), oracle(&data, q));
        }
    }

    #[test]
    fn rmi_matches_oracle_for_all_strategies(
        keys in prop::collection::vec(any::<u64>(), 0..400),
        queries in prop::collection::vec(any::<u64>(), 1..40),
        leaves in 1usize..64,
        strategy_idx in 0usize..4,
    ) {
        let data = sorted_unique(keys);
        let cfg = RmiConfig::two_stage(TopModel::Linear, leaves)
            .with_search(SearchStrategy::ALL[strategy_idx]);
        let rmi = Rmi::build(data.clone(), &cfg);
        // Both arbitrary probes and exact stored keys.
        for q in queries.iter().copied().chain(data.iter().copied()) {
            prop_assert_eq!(rmi.lower_bound(q), oracle(&data, q));
        }

        // The ε-corridor at the same leaf budget, over the same keys plus
        // both ends of the domain: arbitrary u64 gaps run far past 2⁵³,
        // where `(key − first) as f64` drops integer bits.
        let mut ends = data;
        ends.extend([0, u64::MAX]);
        let ends = sorted_unique(ends);
        let cfg = RmiConfig::corridor(leaves).with_search(SearchStrategy::ALL[strategy_idx]);
        let corridor = Rmi::build(ends.clone(), &cfg);
        prop_assert!(corridor.stats().leaves <= leaves);
        let gaps = ends.iter().flat_map(|&k| [k.saturating_sub(1), k, k.saturating_add(1)]);
        for q in queries.iter().copied().chain(gaps) {
            prop_assert_eq!(corridor.lower_bound(q), oracle(&ends, q), "{}", corridor.name());
        }
    }

    #[test]
    fn hybrid_rmi_matches_oracle(
        keys in prop::collection::vec(any::<u64>(), 0..300),
        queries in prop::collection::vec(any::<u64>(), 1..40),
        threshold in 0u32..16,
    ) {
        let data = sorted_unique(keys);
        let cfg = RmiConfig::two_stage(TopModel::Linear, 8).with_hybrid(threshold);
        let rmi = Rmi::build(data.clone(), &cfg);
        for q in queries {
            prop_assert_eq!(rmi.lower_bound(q), oracle(&data, q));
        }
    }

    #[test]
    fn paged_index_generic_matches_specialized(
        keys in prop::collection::vec(any::<u64>(), 0..300),
        queries in prop::collection::vec(any::<u64>(), 1..30),
        page in 2usize..32,
    ) {
        let data = sorted_unique(keys);
        let paged = PagedIndex::new(data.clone(), page);
        let btree = BTreeIndex::new(data.clone(), page);
        for q in queries {
            prop_assert_eq!(paged.lower_bound(&q), btree.lower_bound(q));
        }
    }

    #[test]
    fn learned_sort_is_a_sorting_function(
        keys in prop::collection::vec(any::<u64>(), 0..2000),
    ) {
        use learned_indexes::rmi::sort::SortModel;
        let sorted = learned_sort(&keys, SortModel::Linear);
        let mut expect = keys.clone();
        expect.sort_unstable();
        prop_assert_eq!(sorted, expect);
    }

    #[test]
    fn start_then_finish_matches_lower_bound_on_every_gauntlet(
        n in 1usize..400,
        seed in any::<u64>(),
        leaves in 1usize..32,
    ) {
        for dist in Gauntlet::ALL {
            // The RMI indexes sets: the multiset distribution is deduped.
            let data = sorted_unique(dist.generate(n, seed));
            assert_start_finish_exact(&data, leaves)?;
        }
    }

    #[test]
    fn rmi_error_envelope_contains_stored_keys(
        keys in prop::collection::vec(any::<u64>(), 2..400),
        leaves in 1usize..32,
        offsets in prop::collection::vec(any::<u64>(), 0..6),
        steps in prop::collection::vec(1u64..64, 0..200),
    ) {
        let data = sorted_unique(keys);
        prop_assume!(data.len() >= 2);
        let rmi = Rmi::build(data.clone(), &RmiConfig::two_stage(TopModel::Linear, leaves));
        for (i, &k) in data.iter().enumerate() {
            let p = rmi.predict(k);
            prop_assert!(p.lo <= i && i < p.hi.max(p.lo + 1),
                "key {} at {} outside {}..{}", k, i, p.lo, p.hi);
        }

        // The ε-corridor's window holds at most 2ε + 2 keys and the
        // answer of every stored key and every gap, so it never widens.
        // Its keys add dense clusters of small steps at arbitrary offsets,
        // so one segment's keys can sit beyond 2⁵³ of its first key while
        // neighbors differ by one.
        let mut clustered = data;
        for (c, &at) in offsets.iter().enumerate() {
            let mut k = at;
            for &step in steps.iter().skip(c * 7) {
                k = k.saturating_add(step);
                clustered.push(k);
            }
        }
        let data = sorted_unique(clustered);
        let corridor = Rmi::build(data.clone(), &RmiConfig::corridor(leaves));
        let eps = corridor.stats().eps.unwrap() as usize;
        prop_assert!(corridor.stats().leaves <= leaves);
        let gaps = data.iter().flat_map(|&k| [k.saturating_sub(1), k, k.saturating_add(1)]);
        for q in gaps.chain([0, u64::MAX]) {
            let (p, answer) = (corridor.predict(q), oracle(&data, q));
            prop_assert!(p.hi - p.lo <= 2 * eps + 2,
                "window {}..{} wider than 2ε + 2, ε = {}", p.lo, p.hi, eps);
            prop_assert!(p.lo <= answer && answer <= p.hi,
                "q {} answer {} outside {}..={}", q, answer, p.lo, p.hi);
            prop_assert_eq!(corridor.lower_bound(q), answer);
        }
    }

}
