//! Edge-case sweep for the RMI search strategies, mirroring the oracle
//! discipline of `range_index_oracle.rs`: empty keysets, single keys,
//! all-duplicate inputs, and queries at the top of the `u64` domain.

use learned_indexes::rmi::search::search_with_widening;
use learned_indexes::rmi::{RangeIndex, Rmi, RmiConfig, SearchStrategy, TopModel};

fn oracle(data: &[u64], q: u64) -> usize {
    data.partition_point(|&k| k < q)
}

fn sorted_unique(mut keys: Vec<u64>) -> Vec<u64> {
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// Build an RMI per (strategy × leaf count × leaf layout) and compare
/// `lower_bound` and `lookup` against the sorted-array oracle on every
/// query.
fn check_all_strategies(data: &[u64], queries: &[u64]) {
    for strategy in SearchStrategy::ALL {
        for leaves in [1usize, 2, 8] {
            for cfg in [
                RmiConfig::two_stage(TopModel::Linear, leaves),
                RmiConfig::corridor(leaves),
            ] {
                let rmi = Rmi::build(data.to_vec(), &cfg.with_search(strategy));
                for &q in queries {
                    assert_eq!(
                        rmi.lower_bound(q),
                        oracle(data, q),
                        "lower_bound, {} leaves={leaves} q={q}",
                        rmi.name()
                    );
                    assert_eq!(
                        rmi.lookup(q),
                        data.binary_search(&q).ok(),
                        "lookup, {} leaves={leaves} q={q}",
                        rmi.name()
                    );
                }
            }
        }
    }
}

#[test]
fn empty_keyset() {
    check_all_strategies(&[], &[0, 1, 42, u64::MAX - 1, u64::MAX]);
}

#[test]
fn single_key() {
    for k in [0u64, 1, 7, u64::MAX - 1, u64::MAX] {
        let queries = [
            0,
            1,
            k.saturating_sub(1),
            k,
            k.saturating_add(1),
            u64::MAX - 1,
            u64::MAX,
        ];
        check_all_strategies(&[k], &queries);
    }
}

#[test]
fn two_extreme_keys() {
    // The widest possible key span stresses slope computation.
    let data = [0u64, u64::MAX];
    check_all_strategies(&data, &[0, 1, u64::MAX / 2, u64::MAX - 1, u64::MAX]);
}

#[test]
fn all_duplicate_keys_collapse_through_dedup() {
    // `Rmi::build` requires sorted-unique data (the documented input
    // contract, enforced by a debug assertion); an all-duplicate keyset
    // enters through the same dedup every caller applies and must then
    // answer like the one-element oracle.
    for v in [0u64, 123, u64::MAX] {
        let data = sorted_unique(vec![v; 1000]);
        assert_eq!(data.len(), 1);
        let queries = [0, v.saturating_sub(1), v, v.saturating_add(1), u64::MAX];
        check_all_strategies(&data, &queries);
    }
}

#[test]
fn search_layer_handles_duplicate_runs() {
    // Below the RMI, the raw search strategies must stay exact on data
    // containing long duplicate runs, for any prediction and window.
    let mut data = vec![5u64; 64];
    data.extend_from_slice(&[9; 32]);
    data.extend_from_slice(&[u64::MAX; 16]);
    let n = data.len();
    for strategy in SearchStrategy::ALL {
        for q in [0u64, 4, 5, 6, 9, 10, u64::MAX - 1, u64::MAX] {
            for pos in [0usize, 1, n / 2, n - 1, n] {
                for (lo, hi) in [(0, n), (0, 1), (n / 2, n / 2 + 1), (n - 1, n), (n, n)] {
                    let got = search_with_widening(&data, q, strategy, pos, 4, lo, hi);
                    assert_eq!(
                        got,
                        oracle(&data, q),
                        "strategy={} q={q} pos={pos} window={lo}..{hi}",
                        strategy.name()
                    );
                }
            }
        }
    }
}

#[test]
fn max_domain_queries_on_a_dense_top_end() {
    // Keys packed against u64::MAX: predictions saturate, windows clip
    // at n, and lower_bound/lookup must still be exact.
    let data: Vec<u64> = (0..512u64).map(|i| u64::MAX - 2 * i).rev().collect();
    let mut queries = vec![0u64, 1];
    for &k in data.iter().step_by(31) {
        queries.extend_from_slice(&[k - 1, k, k.saturating_add(1)]);
    }
    queries.extend_from_slice(&[u64::MAX - 1, u64::MAX]);
    check_all_strategies(&data, &queries);
}
