//! The paper's introduction scenario: a secondary index over the request
//! timestamps of a university web server, answering time-window queries.
//!
//! Compares a learned index against the read-optimized B-Tree on the
//! hardest of the three integer datasets ("almost a worst-case scenario
//! for the learned index"), and demonstrates delta-buffered appends
//! (Appendix D.1) — new log entries arrive with increasing timestamps.
//!
//! ```sh
//! cargo run --release --example weblog_index
//! ```

use learned_indexes::btree::BTreeIndex;
use learned_indexes::data::Dataset;
use learned_indexes::rmi::{DeltaIndex, Rmi, RmiConfig, TopModel};
use learned_indexes::{KeyStore, RangeIndex};
use std::time::Instant;

fn main() {
    run(learned_indexes::scale::keys_from_env(500_000));
}

/// The example body, parameterized by key count so the example smoke
/// tests (`tests/examples_smoke.rs`) can run it at tiny scale.
pub fn run(n: usize) {
    let keyset = Dataset::Weblogs.generate(n, 7);
    // One shared KeyStore: the RMI, the B-Tree and the delta index's
    // base all read the same allocation.
    let keys = KeyStore::from(keyset.keys());
    println!("web log: {n} unique request timestamps over ~4 years");

    // Learned index: the weblog CDF needs a nonlinear top model.
    let t0 = Instant::now();
    let rmi = Rmi::build(
        keys.clone(),
        &RmiConfig::two_stage(
            TopModel::Mlp {
                hidden: 2,
                width: 16,
            },
            (n / 200).max(1),
        ),
    );
    println!(
        "rmi trained in {:.0} ms — {:.0} KB, mean abs err {:.1}",
        t0.elapsed().as_secs_f64() * 1e3,
        rmi.size_bytes() as f64 / 1024.0,
        rmi.stats().mean_abs_err
    );

    let btree = BTreeIndex::new(keys.clone(), 128);
    println!(
        "btree(page=128) — {:.0} KB",
        btree.size_bytes() as f64 / 1024.0
    );

    // Time-window query: "all requests in a 6-hour window".
    let day_micros = 86_400_000_000u64;
    let start = keys[n / 3] / day_micros * day_micros + 12 * 3_600_000_000; // noon
    let end = start + 6 * 3_600_000_000;
    let learned_range = rmi.range(start, end);
    let btree_range = btree.range(start, end);
    assert_eq!(learned_range, btree_range, "both indexes must agree");
    println!(
        "requests in the 6h window: {} (positions {learned_range:?})",
        learned_range.len()
    );

    // Throughput comparison on point lookups.
    let queries = keyset.sample_existing((n / 2).max(100), 99);
    let time = |f: &mut dyn FnMut(u64) -> usize| {
        let t = Instant::now();
        let mut acc = 0usize;
        for &q in &queries {
            acc = acc.wrapping_add(f(q));
        }
        std::hint::black_box(acc);
        t.elapsed().as_nanos() as f64 / queries.len() as f64
    };
    let rmi_ns = time(&mut |q| rmi.lower_bound(q));
    let btree_ns = time(&mut |q| btree.lower_bound(q));
    println!(
        "lookup latency: rmi {rmi_ns:.0} ns vs btree {btree_ns:.0} ns ({:.2}x)",
        btree_ns / rmi_ns
    );

    // Appendix D.1: appends with increasing timestamps via a delta index
    // whose one-run stack folds every full buffer into the base with a
    // retrain.
    let mut live = DeltaIndex::new(
        keys.clone(),
        RmiConfig::two_stage(TopModel::Linear, (n / 500).max(1)),
        (n / 10).max(1),
    )
    .with_tiering(1);
    let last = *keys.last().expect("non-empty");
    let t0 = Instant::now();
    let appended = (n / 5) as u64;
    for i in 0..appended {
        live.insert(last + 1 + i * 1_000); // new requests, 1ms apart
        if live.needs_compaction() {
            live.compact();
        }
    }
    println!(
        "appended {appended} new entries in {:.0} ms ({} folds, {} pending)",
        t0.elapsed().as_secs_f64() * 1e3,
        live.compactions(),
        live.pending()
    );
    assert_eq!(live.len(), n + appended as usize);
    assert!(live.contains(last + 1));
}
