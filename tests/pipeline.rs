//! End-to-end cross-crate pipelines: the workflows a downstream user of
//! the library would actually run.

use learned_indexes::bloom::{empirical_fpr, LearnedBloom};
use learned_indexes::data::strings::UrlGenerator;
use learned_indexes::data::{Dataset, Record20};
use learned_indexes::hash::{CdfHasher, ChainedHashMap, KeyHasher, MurmurHasher};
use learned_indexes::models::NgramLogReg;
use learned_indexes::rmi::{
    DeltaIndex, Lif, LifSpec, RangeIndex, Rmi, RmiConfig, SearchStrategy, StringRmi,
    StringRmiConfig, TopModel,
};

#[test]
fn lif_synthesis_end_to_end() {
    // Synthesize for sequential data: a learned config must beat B-Trees
    // (the §2 "keys 1 to 100M" argument), and the winner must be exact.
    let keyset = learned_indexes::data::keyset::sequential_keys(100_000, 1_000_000, 1);
    let spec = LifSpec {
        leaf_counts: vec![256],
        top_models: vec![TopModel::Linear],
        searches: vec![SearchStrategy::ModelBiasedBinary],
        btree_pages: vec![128],
        size_budget: None,
        probe_queries: 20_000,
        seed: 2,
    };
    let report = Lif::synthesize(keyset.keys(), &spec);
    // Every candidate (whichever wins the timing race at this scale)
    // must answer exactly; the learned candidate must be competitive in
    // speed (§2's O(1) argument) and far smaller than the B-Tree.
    for &k in keyset.keys().iter().step_by(977) {
        assert_eq!(
            report.best().index.lookup(k),
            keyset.keys().binary_search(&k).ok()
        );
    }
    let rmi = report
        .candidates
        .iter()
        .find(|c| c.name.starts_with("rmi"))
        .expect("learned candidate present");
    let btree = report
        .candidates
        .iter()
        .find(|c| c.name.starts_with("btree"))
        .expect("btree candidate present");
    assert!(
        rmi.lookup_ns < btree.lookup_ns * 2.0,
        "rmi {} vs btree {}",
        rmi.lookup_ns,
        btree.lookup_ns
    );
    assert!(
        rmi.size_bytes < btree.size_bytes,
        "rmi {} vs btree {}",
        rmi.size_bytes,
        btree.size_bytes
    );
}

#[test]
fn learned_hashmap_pipeline_on_every_dataset() {
    for ds in Dataset::ALL {
        let keyset = ds.generate(30_000, 5);
        let keys = keyset.keys();
        let hasher = CdfHasher::train(keys, keys.len() / 500);
        let mut map: ChainedHashMap<Record20, _> = ChainedHashMap::new(keys.len(), hasher);
        for &k in keys {
            map.insert(k, Record20::from_key(k));
        }
        assert_eq!(map.len(), keys.len());
        for &k in keys.iter().step_by(313) {
            assert_eq!(map.get(k).map(|r| r.key), Some(k), "{}", ds.name());
        }
        for &m in keyset.sample_missing(100, 8).iter() {
            assert!(map.get(m).is_none());
        }
    }
}

#[test]
fn phishing_blacklist_pipeline() {
    let mut gen = UrlGenerator::new(77);
    let (keys, mut negs) = gen.dataset(3_000, 6_000, 0.5);
    let test = negs.split_off(3_000);
    let validation = negs;
    let kb: Vec<&[u8]> = keys.iter().map(|s| s.as_bytes()).collect();
    let vb: Vec<&[u8]> = validation.iter().map(|s| s.as_bytes()).collect();
    let clf = NgramLogReg::train(12, 6, 0.1, &kb, &vb, 5);
    let filter = LearnedBloom::build(clf, &kb, &vb, 0.02, None);

    // Contract 1: zero false negatives.
    for k in &kb {
        assert!(filter.contains(k));
    }
    // Contract 2: held-out FPR within a small factor of target.
    let fpr = empirical_fpr(|x| filter.contains(x), test.iter().map(|s| s.as_bytes()));
    assert!(fpr < 0.08, "fpr {fpr}");
}

#[test]
fn string_secondary_index_pipeline() {
    let docs = learned_indexes::data::strings::doc_ids(8_000, 3);
    let rmi = StringRmi::build(
        docs.clone(),
        &StringRmiConfig {
            leaves: 512,
            hybrid_threshold: Some(128),
            ..Default::default()
        },
    );
    for (i, d) in docs.iter().enumerate().step_by(111) {
        assert_eq!(rmi.lookup(d), Some(i));
    }
    assert_eq!(rmi.lookup("not-a-doc-id"), None);
}

#[test]
fn updatable_index_pipeline() {
    // Start from weblog history, stream appends, verify rank stability.
    let keyset = Dataset::Weblogs.generate(20_000, 9);
    let mut idx = DeltaIndex::new(
        keyset.keys().to_vec(),
        RmiConfig::two_stage(TopModel::Linear, 128),
        500,
    );
    let last = *keyset.keys().last().unwrap();
    for i in 0..5_000u64 {
        idx.insert(last + 1 + i);
        if idx.needs_compaction() {
            idx.compact();
        }
    }
    assert_eq!(idx.len(), 25_000);
    assert_eq!((idx.seals(), idx.compactions()), (10, 2));
    assert_eq!(idx.rank(last + 1), 20_000);
    assert_eq!(idx.rank(u64::MAX), 25_000);
}

#[test]
fn learned_hash_beats_murmur_on_maps_at_scale() {
    // The Figure-8 claim as an integration-level guarantee.
    use learned_indexes::hash::conflict_stats;
    let keyset = Dataset::Maps.generate(60_000, 21);
    let keys = keyset.keys();
    let learned = CdfHasher::train(keys, keys.len() / 1000);
    let murmur = MurmurHasher::new(4);
    let lc = conflict_stats(keys, &learned, keys.len());
    let rc = conflict_stats(keys, &murmur, keys.len());
    assert!(
        lc.conflict_rate() < rc.conflict_rate() * 0.7,
        "learned {} vs murmur {}",
        lc.conflict_rate(),
        rc.conflict_rate()
    );
}

#[test]
fn facade_reexports_compile_and_work() {
    // The README's four-line pitch must actually work via the facade.
    let keys: Vec<u64> = (0..10_000u64).map(|i| i * 3).collect();
    let rmi = Rmi::build(keys, &RmiConfig::default());
    assert_eq!(rmi.lookup(3 * 777), Some(777));
    let h = MurmurHasher::new(0);
    assert!(h.slot(42, 7) < 7);
}
