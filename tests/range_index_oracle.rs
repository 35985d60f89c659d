//! Cross-crate integration: every range index (learned and baseline)
//! must agree with the sorted-array oracle on every dataset.

use learned_indexes::btree::{BTreeIndex, FastTree, InterpBTree, LookupTable, RangeIndex};
use learned_indexes::data::Dataset;
use learned_indexes::models::FeatureMap;
use learned_indexes::rmi::{Rmi, RmiConfig, SearchStrategy, TopModel};

const N: usize = 30_000;

fn oracle(data: &[u64], q: u64) -> usize {
    data.partition_point(|&k| k < q)
}

fn queries(data: &[u64]) -> Vec<u64> {
    let mut qs = vec![0u64, 1, u64::MAX, u64::MAX - 1];
    for &k in data.iter().step_by(41) {
        qs.extend_from_slice(&[k.saturating_sub(1), k, k.saturating_add(1)]);
    }
    qs
}

fn check(idx: &dyn RangeIndex, data: &[u64], label: &str) {
    for q in queries(data) {
        assert_eq!(idx.lower_bound(q), oracle(data, q), "{label} q={q}");
    }
}

#[test]
fn all_structures_agree_on_all_datasets() {
    for ds in Dataset::ALL {
        let keyset = ds.generate(N, 123);
        let data = keyset.keys().to_vec();

        let structures: Vec<Box<dyn RangeIndex>> = vec![
            Box::new(BTreeIndex::new(data.clone(), 128)),
            Box::new(BTreeIndex::new(data.clone(), 32)),
            Box::new(FastTree::new(data.clone())),
            Box::new(LookupTable::new(data.clone())),
            Box::new(InterpBTree::with_budget(data.clone(), 16 * 1024)),
            Box::new(Rmi::build(
                data.clone(),
                &RmiConfig::two_stage(TopModel::Linear, 512),
            )),
            Box::new(Rmi::build(
                data.clone(),
                &RmiConfig::two_stage(TopModel::Multivariate(FeatureMap::FULL), 512),
            )),
            Box::new(Rmi::build(data.clone(), &RmiConfig::corridor(N / 200))),
        ];
        for s in &structures {
            check(s.as_ref(), &data, &format!("{} on {}", s.name(), ds.name()));
        }
    }
}

#[test]
fn rmi_all_search_strategies_agree_on_weblogs() {
    let keyset = Dataset::Weblogs.generate(N, 7);
    let data = keyset.keys().to_vec();
    for s in SearchStrategy::ALL {
        let rmi = Rmi::build(
            data.clone(),
            &RmiConfig::two_stage(TopModel::Linear, 256).with_search(s),
        );
        check(&rmi, &data, s.name());
    }
}

#[test]
fn hybrid_rmi_agrees_on_the_hardest_dataset() {
    let keyset = Dataset::Weblogs.generate(N, 9);
    let data = keyset.keys().to_vec();
    let rmi = Rmi::build(
        data.clone(),
        &RmiConfig::two_stage(TopModel::Linear, 64).with_hybrid(32),
    );
    assert!(
        rmi.stats().btree_leaves > 0,
        "weblogs at 64 leaves must trigger hybrid fallback"
    );
    check(&rmi, &data, "hybrid rmi");
}

#[test]
fn range_scans_match_across_structures() {
    let keyset = Dataset::Lognormal.generate(N, 3);
    let data = keyset.keys().to_vec();
    let rmi = Rmi::build(data.clone(), &RmiConfig::two_stage(TopModel::Linear, 256));
    let btree = BTreeIndex::new(data.clone(), 64);
    for i in (0..data.len() - 100).step_by(997) {
        let (lo, hi) = (data[i], data[i + 37]);
        assert_eq!(rmi.range(lo, hi), btree.range(lo, hi));
        assert_eq!(rmi.range(lo, hi), i..i + 37);
    }
}

#[test]
fn predict_windows_contain_the_answer_for_stored_keys() {
    let keyset = Dataset::Maps.generate(N, 17);
    let data = keyset.keys().to_vec();
    let rmi = Rmi::build(data.clone(), &RmiConfig::two_stage(TopModel::Linear, 512));
    for (i, &k) in data.iter().enumerate().step_by(13) {
        let p = rmi.predict(k);
        assert!(
            p.lo <= i && i < p.hi.max(p.lo + 1),
            "stored key {k} at {i} outside window {}..{}",
            p.lo,
            p.hi
        );
    }

    // The ε-corridor's window is a build invariant, on every dataset: at
    // most 2ε + 2 keys, holding the answer of every stored key and every
    // gap (`lo ≤ answer ≤ hi`), so the search never widens.
    for ds in Dataset::ALL {
        let keyset = ds.generate(N, 17);
        let data = keyset.keys().to_vec();
        let rmi = Rmi::build(data.clone(), &RmiConfig::corridor(N / 200));
        let eps = rmi.stats().eps.expect("a corridor has an ε") as usize;
        assert!(rmi.stats().leaves <= N / 200, "{}", ds.name());
        let mut qs = vec![0u64, u64::MAX];
        qs.extend(
            data.iter()
                .flat_map(|&k| [k.saturating_sub(1), k, k.saturating_add(1)]),
        );
        for q in qs {
            let (p, answer) = (rmi.predict(q), oracle(&data, q));
            assert!(
                p.hi - p.lo <= 2 * eps + 2,
                "{}: window {}..{} wider than 2ε + 2, ε = {eps}",
                ds.name(),
                p.lo,
                p.hi
            );
            assert!(
                p.lo <= answer && answer <= p.hi,
                "{}: q={q} answer {answer} outside window {}..={} (would widen)",
                ds.name(),
                p.lo,
                p.hi
            );
        }
    }
}
