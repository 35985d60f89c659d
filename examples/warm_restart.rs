//! Warm restart: persist a trained store and map it back in without
//! retraining a single model.
//!
//! ```sh
//! cargo run --release --example warm_restart
//! ```
//!
//! A learned index is expensive to *train* and cheap to *evaluate*.
//! This example shows the operational payoff of splitting the two: the
//! store saves its key payload, model coefficients and pending writes to
//! one page-aligned snapshot file, and a restarting process maps the keys
//! (zero-copy on 64-bit little-endian unix) and rebuilds every model
//! from its saved coefficients — `train_count` proves nothing was
//! refit.

use std::time::Instant;

use learned_indexes::data::Dataset;
use learned_indexes::rmi::train_count;
use learned_indexes::serve::{ShardedWritable, ShardedWritableConfig};

fn main() {
    run(learned_indexes::scale::keys_from_env(200_000));
}

/// The example body, parameterized by key count so the example smoke
/// tests (`tests/examples_smoke.rs`) can run it at tiny scale.
pub fn run(n: usize) {
    let path = std::env::temp_dir().join(format!("li-example-warm-{}.lidx", std::process::id()));

    let keyset = Dataset::Lognormal.generate(n, 42);
    let keys = keyset.keys();
    println!("dataset: {} unique lognormal keys", keys.len());

    // 1. Cold-build the store (this trains every shard's base) and leave
    //    some inserts pending in the shards' delta buffers…
    let t0 = Instant::now();
    let cold = ShardedWritable::new(keys.to_vec(), 8, ShardedWritableConfig::default());
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    let fresh = keyset.sample_missing(64, 11);
    for &k in &fresh {
        cold.insert(k);
    }

    // …and save one snapshot file: 4096-byte header, the key payload,
    // then a manifest of model coefficients and pending keys. Published
    // atomically (tmp + rename), so a crash mid-save can never corrupt
    // an existing snapshot.
    cold.save(&path).expect("save failed");
    let file_kb = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0) / 1024;
    println!("cold build: {cold_ms:.1} ms; snapshot: {file_kb} KiB");

    // 2. "Restart": load the snapshot. The keys are mapped, the models
    //    deserialized — nothing trains, and the counter proves it.
    let trained_before = train_count();
    let t0 = Instant::now();
    let warm = ShardedWritable::load(&path).expect("load failed");
    let warm_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        train_count(),
        trained_before,
        "warm load must train nothing"
    );
    let mapped = warm
        .snapshot()
        .shard_snapshots()
        .iter()
        .all(|shard| shard.base_store().is_mapped());
    assert!(
        mapped || cfg!(target_endian = "big"),
        "bases serve from the snapshot"
    );
    println!(
        "warm load: {warm_ms:.2} ms ({:.0}x faster), trained 0 models, bases mapped: {mapped}",
        cold_ms / warm_ms.max(1e-9),
    );

    // 3. The pending buffers survive un-merged, and the loaded store
    //    answers exactly like the original.
    assert_eq!(warm.pending(), cold.pending());
    assert_eq!(warm.len(), cold.len());
    for &q in keyset.sample_existing(200, 7).iter().chain(&fresh) {
        assert!(warm.contains(q));
        assert_eq!(warm.rank(q), cold.rank(q));
    }
    println!(
        "parity verified on 200 sampled keys and {} pending inserts ({} still buffered)",
        fresh.len(),
        warm.pending()
    );

    // 4. The loaded store is live: it keeps accepting writes.
    assert!(warm.insert(fresh[0] ^ 1) || warm.contains(fresh[0] ^ 1));
    println!("{} keys after one more write", warm.len());

    let _ = std::fs::remove_file(&path);
}
