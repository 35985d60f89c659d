//! Quickstart: build a Recursive Model Index, look up keys, scan a range.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use learned_indexes::data::Dataset;
use learned_indexes::rmi::{Rmi, RmiConfig, SearchStrategy, TopModel};
use learned_indexes::{KeyStore, RangeIndex};

fn main() {
    run(learned_indexes::scale::keys_from_env(200_000));
}

/// The example body, parameterized by key count so the example smoke
/// tests (`tests/examples_smoke.rs`) can run it at tiny scale.
pub fn run(n: usize) {
    // 1. Get a sorted key set into a shared KeyStore. (Any sorted
    //    unique Vec<u64> works; this one reproduces the paper's
    //    Lognormal benchmark data.) Every index built over a clone of
    //    the store shares one key allocation — no copies.
    let keyset = Dataset::Lognormal.generate(n, 42);
    let keys = KeyStore::from(keyset.keys());
    println!("dataset: {} unique lognormal keys", keys.len());

    // 2. Train a two-stage RMI: one model on top, ~n/200 linear leaf
    //    models below, model-biased binary search for the last mile.
    let config = RmiConfig::two_stage(TopModel::Linear, (n / 200).max(1))
        .with_search(SearchStrategy::ModelBiasedBinary);
    let rmi = Rmi::build(keys.clone(), &config);

    let stats = rmi.stats();
    println!(
        "trained: {} leaves, {:.1} mean abs error, max {} — {:.1} KB index",
        stats.leaves,
        stats.mean_abs_err,
        stats.max_abs_err,
        stats.size_bytes as f64 / 1024.0
    );

    // 3. Point lookups.
    let probe = keys[keys.len() / 2];
    let pos = rmi.lookup(probe).expect("stored key must be found");
    println!("lookup({probe}) -> position {pos}");
    assert_eq!(keys[pos], probe);

    let missing = keyset.sample_missing(1, 7)[0];
    println!(
        "lookup({missing}) -> {:?} (not stored)",
        rmi.lookup(missing)
    );
    assert_eq!(rmi.lookup(missing), None);

    // 4. Range scan: all keys in [lo, hi).
    let a = keys.len() / 4;
    let b = (a + 20).min(keys.len().saturating_sub(1)).max(a);
    let (lo, hi) = (keys[a], keys[b]);
    let range = rmi.range(lo, hi);
    println!(
        "range [{lo}, {hi}) covers positions {range:?} = {} keys",
        range.len()
    );
    assert_eq!(range, a..b);

    // 5. lower_bound / upper_bound semantics match the sorted array.
    let q = keys[keys.len() / 8] + 1;
    assert_eq!(rmi.lower_bound(q), keyset.lower_bound(q));
    assert_eq!(rmi.upper_bound(q), keyset.upper_bound(q));
    println!("lower/upper bound verified against the sorted-array oracle");

    // 6. Compare against a read-optimized B-Tree — built over the same
    //    KeyStore, so both indexes read one shared key array.
    let btree = learned_indexes::btree::BTreeIndex::new(keys.clone(), 128);
    assert!(btree.key_store().ptr_eq(&keys));
    println!(
        "index sizes: rmi {:.1} KB vs btree(page=128) {:.1} KB",
        rmi.size_bytes() as f64 / 1024.0,
        btree.size_bytes() as f64 / 1024.0
    );

    // 7. Batched lookups: hand a whole query slice to the index and let
    //    the phase-split implementation run every model prediction
    //    before any last-mile search — on large datasets this overlaps
    //    the cache misses of independent queries. Results are
    //    position-for-position identical to scalar lower_bound.
    let batch: Vec<u64> = keys
        .iter()
        .step_by((keys.len() / 8).max(1))
        .copied()
        .collect();
    let mut positions = vec![0usize; batch.len()];
    rmi.lower_bound_batch(&batch, &mut positions);
    for (&q, &p) in batch.iter().zip(&positions) {
        assert_eq!(p, rmi.lower_bound(q));
    }
    println!(
        "batched lookup of {} keys verified against scalar",
        batch.len()
    );

    // 8. Scale out: range-partition the same store into 4 zero-copy
    //    shards, each served by its own RMI, routed by a binary search
    //    over the shard boundaries — and fan a batch across threads. ShardedIndex is a
    //    RangeIndex too, so everything above works on it unchanged.
    let sharded = learned_indexes::serve::ShardedIndex::build(
        keys.clone(),
        4,
        &learned_indexes::serve::RmiShardBuilder::new(),
    );
    assert!(sharded.key_store().ptr_eq(&keys), "sharding copies no keys");
    let mut parallel = vec![0usize; batch.len()];
    sharded.lower_bound_batch_parallel(&batch, &mut parallel, 4);
    assert_eq!(parallel, positions, "sharded ≡ flat, thread-for-thread");
    println!(
        "sharded serving: {} over {} shards agrees with the flat index",
        sharded.name(),
        sharded.shard_count()
    );

    // 9. Accept writes: the sharded write path routes concurrent
    //    inserts to owner shards, each buffering and retraining
    //    independently (Appendix D.1), splitting/merging shards as the
    //    load shifts. Readers take consistent cross-shard snapshots and
    //    read with no lock held.
    let writable = learned_indexes::serve::ShardedWritable::new(
        keys.clone(),
        4,
        learned_indexes::serve::ShardedWritableConfig::default(),
    );
    let fresh = keyset.sample_missing(100, 11);
    let before = writable.snapshot();
    let mut new_keys = 0usize;
    for &k in &fresh {
        new_keys += usize::from(writable.insert(k));
    }
    let after = writable.snapshot();
    assert_eq!(after.len(), keys.len() + new_keys);
    assert_eq!(before.len(), keys.len(), "old snapshot stays frozen");
    assert!(after.contains(fresh[0]) && !before.contains(fresh[0]));
    println!(
        "sharded writes: {new_keys} inserts over {} shards; snapshots stay consistent",
        writable.shard_count()
    );
}
