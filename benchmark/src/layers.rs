//! Per-layer timings taken after the measured phase, on standalone
//! structures built from the final snapshot's keys and keys the stream
//! never used. Every call is timed from outside, through the layer's
//! public functions.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use li_btree::BTreeIndex;
use li_core::delta::DeltaIndex;
use li_core::rmi::{Rmi, RmiConfig, TopModel};
use li_core::run::SortedRun;
use li_index::{KeyStore, RangeIndex};
use li_models::rng::SplitMix64;
use li_serve::wal::{self, Wal};
use li_serve::{
    RebalanceWorker, RetunePolicy, RmiShardBuilder, ShardedIndex, ShardedWritable, WalSyncPolicy,
    WritableShard,
};

use crate::driver::Pass;
use crate::host::Scratch;
use crate::stats::{median, quantile};
use crate::trace::ns32;
use crate::workload::{Inputs, Spec, WAL_SYNC_EVERY};

/// Metric name → value.
pub type Values = BTreeMap<&'static str, f64>;

const THRESHOLD: usize = 1024;
const MAX_RUNS: usize = 4;
/// Fresh keys that fill a run stack: four sealed buffers.
const STACK: usize = THRESHOLD * MAX_RUNS;
const QUERIES: usize = 1 << 16;
const BATCH: usize = 256;
/// Records in the standalone WAL.
const WAL_RECORDS: usize = 1 << 16;

/// Time `f` on each item, one call at a time, into `ns`.
fn time_each<T: Copy>(items: &[T], ns: &mut Vec<u32>, mut f: impl FnMut(T)) {
    for &item in items {
        let start = Instant::now();
        f(item);
        ns.push(ns32(start, Instant::now()));
    }
}

fn p50(mut ns: Vec<u32>) -> f64 {
    ns.sort_unstable();
    quantile(&ns, 0.5)
}

/// Median ns of `f`, each call timed on its own.
fn each_ns<T: Copy>(items: &[T], f: impl FnMut(T)) -> f64 {
    let mut ns = Vec::with_capacity(items.len());
    time_each(items, &mut ns, f);
    p50(ns)
}

fn secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

fn sample(keys: &[u64], n: usize, rng: &mut SplitMix64) -> Vec<u64> {
    (0..n).map(|_| keys[rng.below(keys.len())]).collect()
}

/// Run every standalone timing; `pass` holds the quiesced store.
pub fn measure(spec: &Spec, inp: &Inputs, dir: &Scratch, pass: &Pass, seed: u64) -> Values {
    let mut out = Values::new();
    let mut rng = SplitMix64::new(seed ^ 0x001A_7E55);
    let store = &pass.live.store;
    let snapshot = store.snapshot();

    // One shard of the final store, rebuilt standalone, and the unused
    // keys its range owns.
    let s = snapshot.shard_count() / 2;
    let shard_keys = snapshot.shard_snapshots()[s].range_keys(0, u64::MAX);
    let bounds = snapshot.router().boundaries();
    let lo = if s == 0 { 0 } else { bounds[s - 1] };
    let hi = bounds.get(s).copied().unwrap_or(u64::MAX);
    let fresh: Vec<u64> = inp
        .spare
        .iter()
        .copied()
        .filter(|k| (lo..hi).contains(k))
        .collect();
    assert!(
        fresh.len() >= 2 * STACK + THRESHOLD / 2,
        "too few unused keys in shard {s}: {}",
        fresh.len()
    );
    let hits = sample(&shard_keys, QUERIES, &mut rng);
    let config = RmiConfig::two_stage(TopModel::Linear, (shard_keys.len() / 200).max(1));
    let shard_store = KeyStore::new(shard_keys);

    // li_core::rmi — build cost.
    let mut rmi = None;
    let build_s = secs(|| rmi = Some(Rmi::build(shard_store.clone(), &config)));
    out.insert(
        "rmi.build_s_per_mkey",
        build_s / (shard_store.len() as f64 / 1e6),
    );
    let rmi = rmi.expect("built");

    // li_core::run.
    let mut seal_ns = Vec::new();
    let mut run = None;
    for chunk in fresh.chunks_exact(THRESHOLD) {
        let mut sorted = chunk.to_vec();
        sorted.sort_unstable();
        let t = Instant::now();
        let sealed = SortedRun::seal(sorted);
        seal_ns.push(t.elapsed().as_nanos() as f64 / THRESHOLD as f64);
        run = Some(sealed);
    }
    out.insert("run.seal_ns_per_key", median(&mut seal_ns));
    let run = run.expect("at least one run");
    // Half the probes hit the run, half miss it.
    let probes: Vec<u64> = (0..QUERIES)
        .map(|i| {
            if i % 2 == 0 {
                run.as_slice()[rng.below(run.len())]
            } else {
                hits[i]
            }
        })
        .collect();
    out.insert(
        "run.contains_ns",
        each_ns(&probes, |k| {
            black_box(run.contains(k));
        }),
    );

    // li_core::delta.
    let mut delta = DeltaIndex::from_trained(rmi, config.clone(), THRESHOLD).with_tiering(MAX_RUNS);
    out.insert(
        "delta.contains_runs0_ns",
        each_ns(&hits, |k| {
            black_box(delta.contains(k));
        }),
    );
    let mut compact_ms = Vec::new();
    let mut insert_ns = Vec::new();
    for stack in fresh.chunks_exact(STACK).take(2) {
        insert_ns.push(each_ns(stack, |k| {
            black_box(delta.insert(k));
        }));
        assert_eq!(delta.run_count(), MAX_RUNS);
        if compact_ms.is_empty() {
            out.insert(
                "delta.contains_runs4_ns",
                each_ns(&hits, |k| {
                    black_box(delta.contains(k));
                }),
            );
        }
        compact_ms.push(
            secs(|| {
                black_box(delta.compact());
            }) * 1e3,
        );
    }
    out.insert("delta.insert_ns", median(&mut insert_ns));
    out.insert("delta.compact_ms", median(&mut compact_ms));
    for &k in &fresh[2 * STACK..2 * STACK + THRESHOLD / 2] {
        delta.insert(k);
    }
    out.insert(
        "delta.snapshot_ns",
        each_ns(&hits[..4096], |_| {
            black_box(delta.snapshot());
        }),
    );
    drop(delta);

    // li_serve::writable — the same work behind the shard's lock.
    let shard = WritableShard::tiered(shard_store.clone(), config.clone(), THRESHOLD, MAX_RUNS);
    out.insert(
        "shard.contains_ns",
        each_ns(&hits, |k| {
            black_box(shard.contains(k));
        }),
    );
    out.insert(
        "shard.insert_ns",
        each_ns(&fresh[..STACK], |k| {
            black_box(shard.insert(k));
        }),
    );
    out.insert(
        "shard.compact_ms",
        secs(|| {
            black_box(shard.compact());
        }) * 1e3,
    );
    drop(shard);

    // li_obs — what counting and sampling cost an insert: two stores
    // that differ in `observe` only, fed the same keys in turns. Until
    // its first compaction each reads the one shared base array, so
    // whoever goes second finds it warm: they swap order every turn.
    let [observed, bare] = [true, false]
        .map(|observe| ShardedWritable::new(shard_store.clone(), 1, spec.config(observe)));
    let (mut observed_ns, mut bare_ns) = (Vec::new(), Vec::new());
    for (turn, keys) in fresh[..2 * STACK].chunks(THRESHOLD / 2).enumerate() {
        let mut pair = [(&observed, &mut observed_ns), (&bare, &mut bare_ns)];
        if turn % 2 == 1 {
            pair.reverse();
        }
        for (one, ns) in pair {
            time_each(keys, ns, |k| {
                black_box(one.insert(k));
            });
        }
    }
    out.insert("obs.insert_overhead_ratio", p50(observed_ns) / p50(bare_ns));
    drop((observed, bare));

    // li_serve::rebalance_worker — the workloads compact inline; here
    // the same shard takes its unused keys with a worker attached, and
    // the worker is left to go quiet.
    let backed = Arc::new(ShardedWritable::new(
        shard_store.clone(),
        1,
        spec.config(true),
    ));
    let worker = RebalanceWorker::spawn(Arc::clone(&backed));
    for &k in &fresh {
        backed.insert(k);
    }
    worker.kick();
    assert!(
        worker.wait_until_stable(Duration::from_secs(60)) && !worker.panicked(),
        "worker goes quiet"
    );
    assert_eq!(backed.len(), shard_store.len() + fresh.len());
    out.insert("worker.passes", worker.passes() as f64);
    out.insert("worker.compactions", worker.compactions() as f64);
    out.insert("worker.runs_compacted", worker.runs_compacted() as f64);
    out.insert("worker.races", worker.races() as f64);
    // Everything the worker's passes and compactions timed themselves.
    let obs = backed.metrics_handle();
    let mut retrain = obs.compact_train_ns.snapshot();
    retrain.merge(&obs.pass_retrain_ns.snapshot());
    let busy_ns: u64 = [
        &obs.pass_observe_ns,
        &obs.pass_plan_ns,
        &obs.pass_retrain_ns,
        &obs.pass_publish_ns,
        &obs.compact_train_ns,
        &obs.compact_install_ns,
    ]
    .iter()
    .map(|h| h.snapshot().sum())
    .sum();
    out.insert("worker.busy_s", busy_ns as f64 / 1e9);
    out.insert(
        "worker.retrain_ms_p50",
        retrain.value_at_quantile(0.5) as f64 / 1e6,
    );
    drop(worker);
    drop(backed);
    drop(shard_store);

    // The paper's reference and the read-only index, over every key of
    // the final store, on the same queries.
    let all = KeyStore::new(snapshot.range_keys(0, u64::MAX));
    drop(snapshot);
    let queries = sample(&all, QUERIES, &mut rng);
    let btree = BTreeIndex::new(all.clone(), 128);
    out.insert(
        "btree.lower_bound_ns",
        each_ns(&queries, |k| {
            black_box(btree.lower_bound(k));
        }),
    );
    drop(btree);
    let builder = RmiShardBuilder::new().with_retune(RetunePolicy::default());
    let index = ShardedIndex::build(all.clone(), spec.shards, &builder);
    out.insert(
        "index.lower_bound_ns",
        each_ns(&queries, |k| {
            black_box(index.lower_bound(k));
        }),
    );
    let mut positions = vec![0usize; QUERIES];
    let batches: Vec<usize> = (0..QUERIES / BATCH).collect();
    out.insert(
        "index.batch_ns_per_key",
        each_ns(&batches, |b| {
            let at = b * BATCH..(b + 1) * BATCH;
            index.lower_bound_batch(&queries[at.clone()], &mut positions[at]);
        }) / BATCH as f64,
    );
    out.insert(
        "index.parallel2_ns_per_key",
        each_ns(&[(); 9], |()| {
            index.lower_bound_batch_parallel(&queries, &mut positions, 2);
        }) / QUERIES as f64,
    );
    black_box(&positions);
    drop(index);
    drop(all);

    // li_serve::wal — a log of its own, group commit as the durable
    // workload has it, each append and each sync timed.
    let wal_path = dir.path("layer.wal");
    let mut log = Wal::create(&wal_path, WalSyncPolicy::EveryN(usize::MAX)).expect("create WAL");
    let mut append_ns = Vec::new();
    let mut sync_us = Vec::new();
    for group in inp.spare[..WAL_RECORDS].chunks(WAL_SYNC_EVERY) {
        append_ns.push(each_ns(group, |k| {
            log.append_insert(k).expect("append");
        }));
        sync_us.push(secs(|| log.sync().expect("sync")) * 1e6);
    }
    drop(log);
    out.insert("wal.append_ns", median(&mut append_ns));
    out.insert("wal.sync_us", median(&mut sync_us));
    let mut scanned = 0;
    let scan_s = secs(|| scanned = wal::scan(&wal_path).expect("scan WAL").records.len());
    assert_eq!(scanned, WAL_RECORDS);
    out.insert("wal.scan_ns_per_record", scan_s * 1e9 / WAL_RECORDS as f64);

    // li_serve::persist — load alone; the rest of a crash recovery is
    // replay, per record. Without a WAL nothing replays: 0.
    let mut load_s: Vec<f64> = (0..3)
        .map(|_| {
            secs(|| {
                drop(black_box(
                    ShardedWritable::load(&pass.live.disk.snap).expect("load"),
                ))
            })
        })
        .collect();
    let load_s = median(&mut load_s);
    out.insert("persist.load_s", load_s);
    let replay_s = (median(&mut pass.restart_s.clone()) - load_s).max(0.0);
    out.insert(
        "persist.replay_us_per_record",
        if pass.replayed == 0 {
            0.0
        } else {
            replay_s * 1e6 / pass.replayed as f64
        },
    );

    // li_serve::sharded_writable — calls the client loop does not make.
    let live_hits = sample(&inp.base, 4096, &mut rng);
    out.insert(
        "store.rank_ns",
        each_ns(&live_hits, |k| {
            black_box(store.rank(k));
        }),
    );
    out.insert(
        "store.snapshot_ns",
        each_ns(&live_hits, |_| {
            black_box(store.snapshot());
        }),
    );
    let batches: Vec<&[u64]> = inp.spare[..16 * BATCH].chunks(BATCH).collect();
    out.insert(
        "store.insert_batch_ns_per_key",
        each_ns(&batches, |keys| {
            black_box(store.insert_batch(keys));
        }) / BATCH as f64,
    );
    out
}
