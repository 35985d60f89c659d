//! Multi-threaded stress: concurrent readers must always observe a
//! consistent snapshot while writers drive inserts through multiple
//! seal/fold cycles.
//!
//! Two pressure points:
//!
//! 1. **Read path** — many threads hammer one `ShardedIndex` (scalar,
//!    batched and parallel-batched) while comparing every answer to the
//!    flat sorted-array oracle. The index is immutable, so any torn
//!    answer would be a `Send`/`Sync` violation in a backend.
//! 2. **Write path** — a writer drives `WritableShard::insert` through
//!    at least two seal+fold cycles while readers take
//!    `DeltaSnapshot`s and check internal consistency with no lock
//!    held: ranks monotone in the key, no torn rank (base swapped
//!    mid-read would break `rank(∞) == len`), and the initial keyset
//!    permanently visible.
//! 3. **Sharded write path** — concurrent writers drive a
//!    `ShardedWritable` through at least one shard *merge* and one
//!    shard *split* while readers take cross-shard snapshots and
//!    verify they are never torn: router and shard vector always pair
//!    (each shard's keys inside its ownership range), lengths
//!    monotone, the initial keyset permanently visible, and every
//!    snapshot's bookkeeping exactly self-consistent.
//! 4. **Tiered write path** — with a worker attached, writers seal runs
//!    while the worker compacts full stacks into the base. Readers
//!    validate the three-tier bookkeeping of every
//!    snapshot (base + sealed runs + pending buffer partition the
//!    keyset) with no lock held; compaction is proven worker-only by
//!    counter equality.
//! 5. **Metrics recording** — writers storm inserts while reader
//!    threads continuously take `metrics()` snapshots and render the
//!    text exposition. Every observed counter and histogram total
//!    must be monotone non-decreasing across successive snapshots
//!    (never torn backwards), the per-shard gauge family must always
//!    pair with the shard-count gauge taken under the same topology
//!    read, and the final totals must equal the exact op oracle.
//! 6. **Worker rebuilds under storm** — with a worker attached, a
//!    writer storm concentrated on one shard drives it through splits
//!    and compactions while readers check snapshots and live reads;
//!    the worker runs every run merge, the final contents are exact,
//!    and every rebuilt base is still an ε-corridor.
//! 7. **Live scans and ranks** — `ShardedWritable::range_keys` and
//!    `rank` read the owning shards in place under their read locks
//!    (topology guard first, then shards in ascending order). The
//!    readers of cases 3, 4 and 6 call them too, racing writers, splits,
//!    merges, compactions and the worker's publishes: every scan must
//!    come back sorted, unique and inside `[lo, hi)`, and the
//!    worker-attached cases must finish (a lock-order cycle would hang
//!    them). A two-shard case witnesses that one live scan reads one
//!    instant of both shards.
//! 8. **Inline maintenance under concurrent writers** — with no worker,
//!    several writers each run the maintenance pass on their own thread
//!    when they fill a run stack or run a shard hot. Through shard
//!    merges, splits and folds the contents stay exact, and every
//!    rebuild the passes timed was published: serialized passes never
//!    rebuild the same shard twice.
//! 9. **Lock-free gets** — `ShardedWritable::contains` answers from a
//!    per-thread copy of the topology and the shards' immutable tiers
//!    when a shard's buffer filter rules the key out. Writers publish an
//!    acknowledged watermark after each insert returns, and readers
//!    assert every acknowledged key is found and no never-inserted key
//!    is, while tiny thresholds drive seals, run merges, folds, splits
//!    and shard merges — once inline, once on a `RebalanceWorker`. A
//!    seal that cleared the filter before bumping the shard's `gen`, or
//!    a get that skipped its second `gen` check, would miss a key that
//!    moved from the buffer into a run.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use learned_indexes::rmi::{RmiConfig, TopModel};
use learned_indexes::serve::{
    RebalanceConfig, RebalanceWorker, RmiShardBuilder, ShardedIndex, ShardedWritable,
    ShardedWritableConfig, WritableShard,
};
use learned_indexes::{KeyStore, RangeIndex};

fn cfg() -> RmiConfig {
    RmiConfig::two_stage(TopModel::Linear, 64)
}

/// One round of live reads racing the storm: `rank(lo)`, then the scan
/// of `[lo, hi)`, then `rank(hi)`. The scan must be strictly sorted
/// (so unique), inside the window, and hold every initial key in it.
/// Keys are only ever added, so counts taken in that order cannot
/// shrink: `rank(lo) + scan.len() <= rank(hi)`.
fn check_live_reads(sw: &ShardedWritable, initial: &[u64], lo: u64, hi: u64, t: usize) {
    let rank_lo = sw.rank(lo);
    let scan = sw.range_keys(lo, hi);
    let rank_hi = sw.rank(hi);
    assert!(
        scan.windows(2).all(|w| w[0] < w[1]),
        "t={t}: live scan unsorted or duplicated"
    );
    assert!(
        scan.iter().all(|k| (lo..hi).contains(k)),
        "t={t}: live scan outside [{lo}, {hi})"
    );
    for k in initial.iter().filter(|k| (lo..hi).contains(k)) {
        assert!(
            scan.binary_search(k).is_ok(),
            "t={t}: live scan lost initial key {k}"
        );
    }
    assert!(
        rank_lo + scan.len() <= rank_hi,
        "t={t}: rank({lo}) {rank_lo} + scan {} > rank({hi}) {rank_hi}",
        scan.len()
    );
}

#[test]
fn concurrent_readers_agree_with_the_oracle() {
    let data: Vec<u64> = (0..60_000u64).map(|i| i * 3).collect();
    let store = KeyStore::new(data.clone());
    let idx = ShardedIndex::build(store, 8, &RmiShardBuilder::new());

    let readers = 4;
    std::thread::scope(|scope| {
        for t in 0..readers {
            let idx = &idx;
            let data = &data;
            scope.spawn(move || {
                // Each reader probes a different stride so the threads
                // cover different shards at the same time.
                let queries: Vec<u64> = (0..4000u64)
                    .map(|i| (i * 37 + t as u64 * 13) % 200_000)
                    .collect();
                let mut batch = vec![0usize; queries.len()];
                idx.lower_bound_batch(&queries, &mut batch);
                for (&q, &got) in queries.iter().zip(&batch) {
                    assert_eq!(got, data.partition_point(|&k| k < q), "t={t} q={q}");
                    assert_eq!(idx.lower_bound(q), got, "t={t} q={q}");
                }
            });
        }
        // Main thread runs the parallel path concurrently with the
        // scalar/batched readers above.
        let queries: Vec<u64> = (0..8000u64).map(|i| i * 23 % 200_000).collect();
        let mut out = vec![0usize; queries.len()];
        idx.lower_bound_batch_parallel(&queries, &mut out, 4);
        for (&q, &got) in queries.iter().zip(&out) {
            assert_eq!(got, data.partition_point(|&k| k < q), "parallel q={q}");
        }
    });
}

#[test]
fn writer_through_merge_cycles_never_tears_reader_snapshots() {
    // Initial keys: even numbers. The writer inserts odd keys, so any
    // even key's membership is an invariant of every snapshot.
    let initial = 20_000usize;
    let inserts = 4_000u64;
    let threshold = 512usize; // ~3_500 distinct keys / 512 -> 6 folds
    let base: Vec<u64> = (0..initial as u64).map(|i| i * 2).collect();
    // A one-run stack: the writer folds every full buffer (the paper's
    // D.1 cycle).
    let shard = WritableShard::tiered(base, cfg(), threshold, 1);

    let done = AtomicBool::new(false);
    let snapshots_checked = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        let shard_ref = &shard;
        let done_ref = &done;
        let checked_ref = &snapshots_checked;

        // Readers: grab a snapshot, verify internal consistency with no
        // lock held, repeat until the writer finishes.
        for t in 0..3 {
            scope.spawn(move || {
                let mut last_len = 0usize;
                loop {
                    let finished = done_ref.load(Ordering::Acquire);
                    let snap = shard_ref.snapshot();

                    // No torn length: rank over the whole domain plus
                    // the MAX-key membership must equal len() exactly —
                    // a base swap observed halfway would break this.
                    let total = snap.rank(u64::MAX) + usize::from(snap.contains(u64::MAX));
                    assert_eq!(total, snap.len(), "t={t}: torn snapshot length");

                    // Snapshot lengths are monotone per reader (inserts
                    // only ever add keys).
                    assert!(
                        snap.len() >= last_len,
                        "t={t}: len went backwards {last_len} -> {}",
                        snap.len()
                    );
                    assert!(
                        snap.len() <= initial + inserts as usize,
                        "t={t}: impossible len {}",
                        snap.len()
                    );
                    last_len = snap.len();

                    // Monotone lower-bound ranks across the key space,
                    // and rank deltas bounded by key-range population.
                    let mut prev = 0usize;
                    for q in (0..initial as u64 * 2 + 4).step_by(997) {
                        let r = snap.rank(q);
                        assert!(
                            r >= prev,
                            "t={t}: rank not monotone at q={q}: {prev} -> {r}"
                        );
                        prev = r;
                    }

                    // The initial (even) keys are permanently visible.
                    for k in (0..initial as u64).step_by(1013) {
                        assert!(snap.contains(k * 2), "t={t}: lost initial key {}", k * 2);
                    }

                    // Range scans come back sorted and in-bounds.
                    let lo = 1000u64;
                    let hi = 3000u64;
                    let scan = snap.range_keys(lo, hi);
                    assert!(
                        scan.windows(2).all(|w| w[0] <= w[1]),
                        "t={t}: unsorted scan"
                    );
                    assert!(
                        scan.iter().all(|&k| (lo..hi).contains(&k)),
                        "t={t}: scan out of bounds"
                    );

                    checked_ref.fetch_add(1, Ordering::Relaxed);
                    if finished {
                        break;
                    }
                    std::thread::yield_now();
                }
            });
        }

        // Writer: odd keys, spread over the domain, through >= 2 fold
        // cycles (asserted below).
        scope.spawn(move || {
            for i in 0..inserts {
                shard_ref.insert((i * 13 % (initial as u64 * 2)) | 1);
                if shard_ref.needs_compaction() {
                    shard_ref.compact();
                }
            }
            done_ref.store(true, Ordering::Release);
        });
    });

    assert!(
        shard.compactions() >= 2,
        "writer must run through at least two fold cycles, got {}",
        shard.compactions()
    );
    assert!(
        snapshots_checked.load(Ordering::Relaxed) > 0,
        "readers must have validated at least one snapshot"
    );

    // Final state: every initial key plus every distinct odd insert.
    let distinct_odd: std::collections::BTreeSet<u64> = (0..inserts)
        .map(|i| (i * 13 % (initial as u64 * 2)) | 1)
        .collect();
    assert_eq!(shard.len(), initial + distinct_odd.len());
    assert_eq!(shard.run_count(), 0, "every full buffer was folded");
    for &k in distinct_odd.iter().step_by(97) {
        assert!(shard.contains(k), "lost inserted key {k}");
    }
}

/// The sharded write path under concurrent writers + snapshot readers,
/// across at least one shard merge cycle and at least one shard split
/// cycle. Readers validate every snapshot with no lock held; any torn
/// topology (router from one generation, shards from another) would
/// break the per-shard ownership checks or the length bookkeeping.
#[test]
fn sharded_writers_through_split_and_merge_cycles_never_tear_snapshots() {
    // Start with a deliberately cold 8-shard topology (4 keys per
    // shard, adjacent pairs inside the merge budget) so the first
    // rebalance *merges*; then concurrent writers push the keyspace
    // past the split threshold so later rebalances *split*.
    let initial: Vec<u64> = (0..32u64).map(|i| i * 1024).collect();
    let writers = 4u64;
    let per_writer = 600u64;
    let config = ShardedWritableConfig {
        merge_threshold: 32,
        leaf_fraction: 1.0 / 32.0,
        check_interval: 64,
        rebalance: RebalanceConfig {
            max_shard_len: 256,
            merge_max_len: 16,
            max_shards: 24,
        },
        ..ShardedWritableConfig::default()
    };
    let sw = ShardedWritable::new(initial.clone(), 8, config);
    assert_eq!(sw.shard_count(), 8);

    // Provoke the merge cycle before the writers heat the topology up.
    sw.rebalance();
    assert!(sw.shard_merges() >= 1, "cold topology must merge first");

    let done = AtomicBool::new(false);
    let snapshots_checked = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        let sw_ref = &sw;
        let done_ref = &done;
        let checked_ref = &snapshots_checked;
        let initial_ref = &initial;

        // Readers: take a cross-shard snapshot, validate it lock-free.
        for t in 0..3 {
            scope.spawn(move || {
                let mut last_len = 0usize;
                loop {
                    let finished = done_ref.load(Ordering::Acquire);
                    let snap = sw_ref.snapshot();

                    // Router ↔ shard-vector pairing from one topology.
                    let bounds = snap.router().boundaries();
                    assert_eq!(
                        snap.shard_count(),
                        bounds.len() + 1,
                        "t={t}: router paired with a different shard vector"
                    );
                    assert!(
                        bounds.windows(2).all(|w| w[0] <= w[1]),
                        "t={t}: unsorted bounds"
                    );

                    // No torn length: per-shard sums, prefix
                    // bookkeeping and rank(∞) must all agree.
                    let per_shard: usize = snap.shard_snapshots().iter().map(|s| s.len()).sum();
                    assert_eq!(per_shard, snap.len(), "t={t}: torn shard lengths");
                    let total = snap.rank(u64::MAX) + usize::from(snap.contains(u64::MAX));
                    assert_eq!(total, snap.len(), "t={t}: torn rank bookkeeping");

                    // Ownership: every shard's keys inside its range —
                    // a mixed-generation snapshot would misplace whole
                    // key runs.
                    for (s, shard) in snap.shard_snapshots().iter().enumerate() {
                        let lo = if s == 0 { 0 } else { bounds[s - 1] };
                        assert_eq!(
                            shard.rank(lo),
                            0,
                            "t={t}: shard {s} holds keys below its range"
                        );
                        if s < bounds.len() {
                            assert_eq!(
                                shard.rank(bounds[s]),
                                shard.len(),
                                "t={t}: shard {s} holds keys above its range"
                            );
                        }
                    }

                    // Monotone growth, initial keys permanently there.
                    assert!(
                        snap.len() >= last_len,
                        "t={t}: len went backwards {last_len} -> {}",
                        snap.len()
                    );
                    last_len = snap.len();
                    for &k in initial_ref.iter().step_by(7) {
                        assert!(snap.contains(k), "t={t}: lost initial key {k}");
                    }

                    // Scans sorted, in-bounds, rank-consistent.
                    let scan = snap.range_keys(1000, 20_000);
                    assert!(scan.windows(2).all(|w| w[0] < w[1]), "t={t}: bad scan");
                    assert!(scan.iter().all(|&k| (1000..20_000).contains(&k)));
                    assert_eq!(scan.len(), snap.rank(20_000) - snap.rank(1000));
                    // The same window read live, in place.
                    check_live_reads(sw_ref, initial_ref, 1000, 20_000, t);

                    checked_ref.fetch_add(1, Ordering::Relaxed);
                    if finished {
                        break;
                    }
                    std::thread::yield_now();
                }
            });
        }

        // Writers: disjoint key stripes spread over (and past) the
        // initial domain, enough to force splits.
        scope.spawn(move || {
            std::thread::scope(|inner| {
                for w in 0..writers {
                    inner.spawn(move || {
                        for i in 0..per_writer {
                            sw_ref.insert((w * per_writer + i) * 37 + 1);
                        }
                    });
                }
            });
            done_ref.store(true, Ordering::Release);
        });
    });

    assert!(
        sw.splits() >= 1,
        "writer load must run through at least one split cycle, got {}",
        sw.splits()
    );
    assert!(
        snapshots_checked.load(Ordering::Relaxed) > 0,
        "readers must have validated at least one snapshot"
    );

    // Final exact state: initial keys + every distinct insert.
    let mut expect: std::collections::BTreeSet<u64> = initial.into_iter().collect();
    for w in 0..writers {
        for i in 0..per_writer {
            expect.insert((w * per_writer + i) * 37 + 1);
        }
    }
    assert_eq!(sw.len(), expect.len());
    let dump = sw.range_keys(0, u64::MAX);
    assert_eq!(dump.len(), expect.len());
    assert!(dump.iter().eq(expect.iter()), "final contents diverged");
    // The generation trail accounts for every topology publication.
    assert_eq!(sw.generation(), (sw.splits() + sw.shard_merges()) as u64);
}

/// Case 8: inline maintenance under concurrent writers, no worker. The
/// cold eight-shard start merges on the first periodic pass; four
/// writers then pile fresh keys past the last bound, so the top shard
/// folds its run stacks and splits again and again, each pass run by
/// whichever writer's insert called for it. While one writer rebuilds
/// the hot shard the others keep inserting into it and see it hot too;
/// passes take turns on one mutex, so they find it already split
/// instead of rebuilding it again. Every rebuild a pass timed
/// (`li_pass_retrain_ns`) was therefore published: the count equals
/// splits + shard merges, which overlapping passes break by discarding
/// the rebuilds that lose the publish race.
#[test]
fn inline_passes_from_concurrent_writers_take_turns() {
    let initial: Vec<u64> = (0..32u64).map(|i| i * 1024).collect();
    let writers = 4u64;
    let per_writer = 600u64;
    let config = ShardedWritableConfig {
        merge_threshold: 32,
        leaf_fraction: 1.0 / 32.0,
        check_interval: 64,
        rebalance: RebalanceConfig {
            max_shard_len: 256,
            merge_max_len: 16,
            max_shards: 24,
        },
        ..ShardedWritableConfig::default()
    };
    let sw = ShardedWritable::new(initial.clone(), 8, config);
    // Above every initial key: all of it lands in the last shard.
    let top = 1u64 << 20;
    let key = |j: u64| top + j * 3;
    std::thread::scope(|scope| {
        for w in 0..writers {
            let sw = &sw;
            scope.spawn(move || {
                for i in 0..per_writer {
                    assert!(sw.insert(key(i * writers + w)));
                }
            });
        }
    });

    assert!(!sw.has_background_worker());
    assert!(sw.shard_merges() >= 1, "the cold start must merge");
    assert!(sw.splits() >= 1, "the hot top shard must split");
    assert!(sw.compactions() >= 1, "full run stacks must fold");
    assert_eq!(sw.generation(), (sw.splits() + sw.shard_merges()) as u64);
    let retrains = sw
        .metrics()
        .histogram("li_pass_retrain_ns")
        .map(|h| h.count());
    assert_eq!(
        retrains,
        Some(sw.generation()),
        "a rebuild was thrown away: two passes overlapped"
    );

    let mut expect: std::collections::BTreeSet<u64> = initial.into_iter().collect();
    expect.extend((0..writers * per_writer).map(key));
    assert_eq!(sw.len(), expect.len());
    let dump = sw.range_keys(0, u64::MAX);
    assert!(dump.iter().eq(expect.iter()), "final contents diverged");
}

/// Case 7's witness that one live scan reads one instant of every shard
/// it spans. A writer inserts `a_i` into shard 0 and then `b_i` into
/// shard 1, for `i = 0, 1, 2, …`, so at any instant the `b`s present
/// are a prefix no longer than the prefix of `a`s present. Readers scan
/// both shards whole, live, meanwhile: a scan holding `b_i` without
/// `a_i` read shard 1 at a later instant than shard 0. A
/// per-shard-sequential scan (lock shard 0, read, unlock, lock shard 1,
/// read) shows that tear here within a few scans, because reading shard
/// 0's keys gives the writer time to land pairs in between. This is a
/// witness, not a proof: the proof is the lock-order argument in
/// ARCHITECTURE.md ("Snapshot-consistency invariants", invariant 4).
#[test]
fn live_scans_read_one_instant_of_every_shard_they_span() {
    let per_shard = 40_000u64;
    let pairs = 20_000u64;
    let bound = 1u64 << 40;
    let mut initial: Vec<u64> = (0..per_shard).map(|i| i * 4).collect();
    initial.extend((0..per_shard).map(|i| bound + i * 4));
    let config = ShardedWritableConfig {
        merge_threshold: 256,
        max_runs: 2,
        check_interval: 0,
        rebalance: RebalanceConfig {
            max_shard_len: 1_000_000,
            merge_max_len: 0,
            max_shards: 8,
        },
        ..ShardedWritableConfig::default()
    };
    let sw = ShardedWritable::new(initial, 2, config);
    assert_eq!(sw.bounds(), vec![bound], "a_i in shard 0, b_i in shard 1");
    let a = |i: u64| i * 4 + 1;
    let b = |i: u64| bound + i * 4 + 1;

    let done = AtomicBool::new(false);
    let scans = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let (sw, done, scans) = (&sw, &done, &scans);
        for t in 0..2 {
            scope.spawn(move || loop {
                let finished = done.load(Ordering::Acquire);
                let scan = sw.range_keys(0, u64::MAX);
                let (mut na, mut nb) = (0u64, 0u64);
                for &k in &scan {
                    if k < bound && k % 4 == 1 {
                        assert_eq!(k, a(na), "t={t}: a keys are not a prefix");
                        na += 1;
                    } else if k >= bound && (k - bound) % 4 == 1 {
                        assert_eq!(k, b(nb), "t={t}: b keys are not a prefix");
                        nb += 1;
                    }
                }
                assert!(
                    nb <= na,
                    "t={t}: torn scan: holds b_{} but only {na} a keys",
                    nb - 1
                );
                scans.fetch_add(1, Ordering::Relaxed);
                if finished {
                    break;
                }
            });
        }
        scope.spawn(move || {
            for i in 0..pairs {
                assert!(sw.insert(a(i)));
                assert!(sw.insert(b(i)));
            }
            done.store(true, Ordering::Release);
        });
    });
    assert!(
        scans.load(Ordering::Relaxed) > 2,
        "readers must have scanned"
    );
    assert_eq!(sw.len() as u64, 2 * (per_shard + pairs));
    assert_eq!(
        sw.splits() + sw.shard_merges(),
        0,
        "the two shards stayed put"
    );
}

/// The writer-storm scenario for **background** rebalancing: with a
/// `RebalanceWorker` attached, inserting threads never rebalance — they
/// only signal. The storm must drive at least one shard
/// *merge* and at least one shard *split*, and both must be executed by
/// the worker thread (asserted by matching the worker's counters
/// against the structure's — in background mode nobody else may
/// publish a topology). Readers validate cross-shard snapshots
/// lock-free throughout: a torn topology — or a key lost in the
/// worker's off-lock rebuild / straggler hand-off — fails loudly.
#[test]
fn writer_storm_is_rebalanced_by_the_background_worker_only() {
    // Cold 12-shard start (3-ish keys per shard, adjacent pairs inside
    // the merge budget) so the worker's first pass merges; the storm
    // then pushes the keyspace far past the split threshold.
    let initial: Vec<u64> = (0..40u64).map(|i| i * 1024).collect();
    let writers = 4u64;
    let per_writer = 700u64;
    let config = ShardedWritableConfig {
        merge_threshold: 32,
        leaf_fraction: 1.0 / 32.0,
        check_interval: 64,
        rebalance: RebalanceConfig {
            max_shard_len: 256,
            merge_max_len: 16,
            max_shards: 24,
        },
        ..ShardedWritableConfig::default()
    };
    let sw = Arc::new(ShardedWritable::new(initial.clone(), 12, config));
    assert_eq!(sw.shard_count(), 12);
    let worker = RebalanceWorker::spawn(Arc::clone(&sw));

    // Drain the cold topology first: merges happen on the worker
    // thread (nothing else is allowed to rebalance in this mode).
    worker.kick();
    assert!(
        worker.wait_until_stable(Duration::from_secs(60)),
        "worker failed to quiesce the cold topology"
    );
    assert!(worker.merges() >= 1, "cold neighbors must merge");

    let done = AtomicBool::new(false);
    let snapshots_checked = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        let sw_ref = &*sw;
        let done_ref = &done;
        let checked_ref = &snapshots_checked;
        let initial_ref = &initial;

        // Readers: cross-shard snapshots validated with no lock held,
        // racing the writers AND the worker's topology publications.
        for t in 0..2 {
            scope.spawn(move || {
                let mut last_len = 0usize;
                loop {
                    let finished = done_ref.load(Ordering::Acquire);
                    let snap = sw_ref.snapshot();

                    // Router ↔ shard vector pairing from one topology.
                    let bounds = snap.router().boundaries();
                    assert_eq!(snap.shard_count(), bounds.len() + 1, "t={t}: torn topology");

                    // Length bookkeeping: per-shard sums, prefix and
                    // rank(∞) must all agree.
                    let per_shard: usize = snap.shard_snapshots().iter().map(|s| s.len()).sum();
                    assert_eq!(per_shard, snap.len(), "t={t}: torn shard lengths");
                    let total = snap.rank(u64::MAX) + usize::from(snap.contains(u64::MAX));
                    assert_eq!(total, snap.len(), "t={t}: torn rank bookkeeping");

                    // Ownership: every shard's keys inside its range.
                    for (s, shard) in snap.shard_snapshots().iter().enumerate() {
                        let lo = if s == 0 { 0 } else { bounds[s - 1] };
                        assert_eq!(shard.rank(lo), 0, "t={t}: shard {s} leaks low");
                        if s < bounds.len() {
                            assert_eq!(
                                shard.rank(bounds[s]),
                                shard.len(),
                                "t={t}: shard {s} leaks high"
                            );
                        }
                    }

                    // Monotone growth; the initial keys never vanish
                    // (an off-lock rebuild that dropped stragglers or
                    // lost a racing insert would break these).
                    assert!(snap.len() >= last_len, "t={t}: len went backwards");
                    last_len = snap.len();
                    for &k in initial_ref.iter().step_by(7) {
                        assert!(snap.contains(k), "t={t}: lost initial key {k}");
                    }

                    // Live reads over several shards, racing the
                    // worker's off-lock rebuilds and publishes.
                    check_live_reads(sw_ref, initial_ref, 1000, 60_000, t);

                    checked_ref.fetch_add(1, Ordering::Relaxed);
                    if finished {
                        break;
                    }
                    std::thread::yield_now();
                }
            });
        }

        // The storm: disjoint writer stripes spread over (and past) the
        // initial domain — with scalar AND batched inserts in the mix,
        // both of which only signal the worker in background mode.
        // Stripe keys are odd by construction (74k + 1) while the
        // initial keys are even (i * 1024), so every stripe key is
        // fresh — the all-true flag assertion below relies on it.
        scope.spawn(move || {
            std::thread::scope(|inner| {
                for w in 0..writers {
                    inner.spawn(move || {
                        let keys: Vec<u64> = (0..per_writer)
                            .map(|i| (w * per_writer + i) * 74 + 1)
                            .collect();
                        // Half the stripe scalar, half batched.
                        let half = keys.len() / 2;
                        for &k in &keys[..half] {
                            sw_ref.insert(k);
                        }
                        for chunk in keys[half..].chunks(64) {
                            let flags = sw_ref.insert_batch(chunk);
                            assert!(flags.iter().all(|&f| f), "w={w}: stripe keys are fresh");
                        }
                    });
                }
            });
            done_ref.store(true, Ordering::Release);
        });
    });

    assert!(
        worker.wait_until_stable(Duration::from_secs(60)),
        "worker failed to quiesce after the storm"
    );
    assert!(
        worker.splits() >= 1,
        "storm must drive at least one background split, got {}",
        worker.splits()
    );
    assert!(snapshots_checked.load(Ordering::Relaxed) > 0);

    // EVERY topology change was executed by the worker thread: the
    // inserting threads only signaled. (Any inline pass
    // would make the structure's counters exceed the worker's.)
    assert_eq!(worker.splits(), sw.splits(), "a non-worker thread split");
    assert_eq!(
        worker.merges(),
        sw.shard_merges(),
        "a non-worker thread merged"
    );
    assert_eq!(sw.generation(), (sw.splits() + sw.shard_merges()) as u64);

    // Quiesced means within budget.
    for len in sw.shard_lens() {
        assert!(len <= 256, "unsplit hot shard survived: len {len}");
    }

    // Exact final contents: initial keys + every distinct storm key.
    let mut expect: std::collections::BTreeSet<u64> = initial.into_iter().collect();
    for w in 0..writers {
        for i in 0..per_writer {
            expect.insert((w * per_writer + i) * 74 + 1);
        }
    }
    assert_eq!(sw.len(), expect.len());
    let dump = sw.range_keys(0, u64::MAX);
    assert_eq!(dump.len(), expect.len());
    assert!(dump.iter().eq(expect.iter()), "final contents diverged");
}

/// The tiered write path under a writer storm with a background
/// worker attached: inserting threads seal runs (cheap fence copies)
/// but never maintain them — the worker merges full run stacks into
/// one run, and folds the runs into the learned base once they hold a
/// sixteenth of it (375 keys on these 6 000-key shards); how many of
/// each it does depends on how far it lags the writers. Readers
/// validate cross-shard snapshots lock-free throughout, including the
/// three-tier bookkeeping: in any snapshot each shard's base, sealed
/// runs and pending buffer partition that shard's keyset exactly, every
/// run is sorted-unique, and `rank`/`contains` stay coherent
/// mid-compaction and mid-merge. Worker-only maintenance is proven by
/// counter equality (`worker.compactions() == sw.compactions()` and the
/// same for run merges — an inline fold or merge would break it), and
/// with `max_runs = 2` every fold must consume at least two runs.
#[test]
fn writer_storm_compactions_run_on_the_worker_and_never_tear_snapshots() {
    // Rebalance thresholds set far out of reach so the only background
    // activity is run maintenance: seals every 8 fresh keys per shard,
    // a full stack at 2 runs, a fold once a shard's runs hold 375 keys.
    let initial: Vec<u64> = (0..24_000u64).map(|i| i * 4).collect();
    let writers = 4u64;
    let per_writer = 800u64;
    let config = ShardedWritableConfig {
        merge_threshold: 8,
        check_interval: 0,
        max_runs: 2,
        rebalance: RebalanceConfig {
            max_shard_len: 1_000_000,
            merge_max_len: 0,
            max_shards: 8,
        },
        ..ShardedWritableConfig::default()
    };
    let sw = Arc::new(ShardedWritable::new(initial.clone(), 4, config));
    let worker = RebalanceWorker::spawn(Arc::clone(&sw));

    let done = AtomicBool::new(false);
    let snapshots_checked = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        let sw_ref = &*sw;
        let done_ref = &done;
        let checked_ref = &snapshots_checked;
        let initial_ref = &initial;

        // Readers: validate the tier bookkeeping of every snapshot
        // while the writers seal and the worker compacts.
        for t in 0..2 {
            scope.spawn(move || {
                let mut last_len = 0usize;
                loop {
                    let finished = done_ref.load(Ordering::Acquire);
                    let snap = sw_ref.snapshot();

                    // No torn length: per-shard sums and rank(∞) agree.
                    let per_shard: usize = snap.shard_snapshots().iter().map(|s| s.len()).sum();
                    assert_eq!(per_shard, snap.len(), "t={t}: torn shard lengths");
                    let total = snap.rank(u64::MAX) + usize::from(snap.contains(u64::MAX));
                    assert_eq!(total, snap.len(), "t={t}: torn rank bookkeeping");

                    // Three-tier accounting: base + sealed runs +
                    // pending buffer partition each shard's keyset. A
                    // compaction observed halfway (runs folded into the
                    // base but still counted, or vice versa) breaks the
                    // sum; a torn run vector breaks the sortedness.
                    for (s, shard) in snap.shard_snapshots().iter().enumerate() {
                        let base_len = shard.base_index().key_store().len();
                        let run_keys: usize = shard.runs().iter().map(|r| r.len()).sum();
                        assert_eq!(
                            base_len + run_keys + shard.delta_keys().len(),
                            shard.len(),
                            "t={t}: shard {s} tiers do not partition the keyset"
                        );
                        for run in shard.runs() {
                            assert!(!run.is_empty(), "t={t}: shard {s} empty sealed run");
                            assert!(
                                run.as_slice().windows(2).all(|w| w[0] < w[1]),
                                "t={t}: shard {s} torn run"
                            );
                        }
                    }

                    // Monotone growth; initial keys permanently there.
                    assert!(snap.len() >= last_len, "t={t}: len went backwards");
                    last_len = snap.len();
                    for &k in initial_ref.iter().step_by(131) {
                        assert!(snap.contains(k), "t={t}: lost initial key {k}");
                    }

                    // Scans sorted, deduplicated, rank-consistent even
                    // when the window spans all three tiers.
                    let scan = snap.range_keys(5_000, 40_000);
                    assert!(scan.windows(2).all(|w| w[0] < w[1]), "t={t}: bad scan");
                    assert_eq!(scan.len(), snap.rank(40_000) - snap.rank(5_000));
                    // Live, racing the worker's compaction installs;
                    // the second window spans all four shards.
                    check_live_reads(sw_ref, initial_ref, 5_000, 40_000, t);
                    check_live_reads(sw_ref, initial_ref, 0, u64::MAX, t);

                    checked_ref.fetch_add(1, Ordering::Relaxed);
                    if finished {
                        break;
                    }
                    std::thread::yield_now();
                }
            });
        }

        // Writers: disjoint stripes of fresh odd keys (initial keys
        // are even) driving seal after seal in every shard.
        scope.spawn(move || {
            std::thread::scope(|inner| {
                for w in 0..writers {
                    inner.spawn(move || {
                        for i in 0..per_writer {
                            sw_ref.insert((w * per_writer + i) * 37 + 1);
                        }
                    });
                }
            });
            done_ref.store(true, Ordering::Release);
        });
    });

    assert!(
        worker.wait_until_stable(Duration::from_secs(60)),
        "worker failed to quiesce after the storm"
    );
    assert!(snapshots_checked.load(Ordering::Relaxed) > 0);

    // The storm sealed far more runs than one stack: the worker must
    // have compacted, and every fold consumed a full (>= max_runs)
    // stack in ONE retrain.
    assert!(
        worker.compactions() >= 1,
        "storm must drive at least one background compaction"
    );
    assert!(
        worker.runs_compacted() >= 2 * worker.compactions(),
        "each fold must consume at least max_runs = 2 runs, got {} runs over {} folds",
        worker.runs_compacted(),
        worker.compactions()
    );

    // EVERY compaction and run merge was executed by the worker thread
    // — while a worker is attached the inserting threads only signal,
    // so the structure's counters and the
    // worker's must match exactly.
    assert_eq!(
        worker.compactions(),
        sw.compactions(),
        "a non-worker thread compacted"
    );
    assert_eq!(
        worker.run_merges(),
        sw.run_merges(),
        "a non-worker thread merged runs"
    );
    // And compaction is not a topology event: the quiet rebalance
    // thresholds mean no split or merge ever published.
    assert_eq!(sw.splits(), 0);
    assert_eq!(sw.shard_merges(), 0);
    assert_eq!(sw.generation(), 0);

    // Quiesced means no shard still owes a fold.
    assert!(
        sw.run_count() < 2 * sw.shard_count(),
        "a full run stack survived quiescence"
    );

    // Exact final contents: initial keys + every distinct storm key.
    let mut expect: std::collections::BTreeSet<u64> = initial.into_iter().collect();
    for w in 0..writers {
        for i in 0..per_writer {
            expect.insert((w * per_writer + i) * 37 + 1);
        }
    }
    assert_eq!(sw.len(), expect.len());
    let dump = sw.range_keys(0, u64::MAX);
    assert_eq!(dump.len(), expect.len());
    assert!(dump.iter().eq(expect.iter()), "final contents diverged");
}

/// Case 5: metrics readers vs writer storm. Renderers scrape
/// `metrics()` / `render_text()` lock-free while three writers flood
/// inserts through splits and merges; every scraped total must be
/// monotone, internally consistent, and exact once the storm settles.
#[test]
fn metrics_snapshots_stay_monotone_and_untorn_under_writer_storm() {
    let initial: Vec<u64> = (0..4_000u64).map(|i| i * 8).collect();
    let writers = 3usize;
    let per_writer = 6_000u64;
    let sw = Arc::new(ShardedWritable::new(
        initial.clone(),
        2,
        ShardedWritableConfig {
            merge_threshold: 256,
            check_interval: 64,
            rebalance: RebalanceConfig {
                max_shard_len: 4_000,
                merge_max_len: 500,
                ..RebalanceConfig::default()
            },
            ..ShardedWritableConfig::default()
        },
    ));

    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for w in 0..writers {
            let sw = Arc::clone(&sw);
            scope.spawn(move || {
                // Disjoint fresh keys per writer: every insert is a
                // key-adding op, so the oracle is exact.
                for i in 0..per_writer {
                    sw.insert((w as u64 * per_writer + i) * 8 + 1 + w as u64);
                }
            });
        }
        for _ in 0..2 {
            let sw = Arc::clone(&sw);
            let done = &done;
            scope.spawn(move || {
                let mut last_inserts = 0u64;
                let mut last_splits = 0u64;
                let mut last_hist = 0u64;
                let mut last_seq = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let snap = sw.metrics();
                    // Counters only ever grow: a torn read (or a
                    // snapshot served from a half-reset registry)
                    // would run one of these backwards.
                    let inserts = snap.counter("li_inserts_total").expect("registered");
                    let splits = snap.counter("li_shard_splits_total").expect("registered");
                    let hist = snap.histogram("li_insert_ns").expect("registered").count();
                    assert!(inserts >= last_inserts, "{inserts} < {last_inserts}");
                    assert!(splits >= last_splits, "{splits} < {last_splits}");
                    assert!(hist >= last_hist, "{hist} < {last_hist}");
                    (last_inserts, last_splits, last_hist) = (inserts, splits, hist);
                    // Gauges are refreshed under one topology read:
                    // every per-shard family matches the shard count.
                    let shards = snap.gauge("li_shard_count").expect("registered") as usize;
                    for fam in ["li_shard_len", "li_shard_runs", "li_shard_pending"] {
                        assert_eq!(
                            snap.gauge_set(fam).map(<[u64]>::len),
                            Some(shards),
                            "{fam} torn vs shard count"
                        );
                    }
                    // The event tail is whole and ordered; rendering
                    // the exposition never panics mid-storm.
                    let events = snap.ring("li_events").expect("registered");
                    assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
                    if let Some(e) = events.last() {
                        assert!(e.seq >= last_seq);
                        last_seq = e.seq;
                    }
                    let text = snap.render_text();
                    assert!(text.contains(&format!("li_inserts_total {inserts}")));
                    std::thread::yield_now();
                }
            });
        }
        // Writer threads join when the non-reader spawns finish; flip
        // the flag from a watchdog scope instead: simplest is to wait
        // for the writers by joining them via a nested scope.
        scope.spawn({
            let sw = Arc::clone(&sw);
            let done = &done;
            let total = initial.len() + writers * per_writer as usize;
            move || {
                // Watchdog: writers are done exactly when every key
                // landed. Bounded by the suite timeout.
                while sw.len() < total {
                    std::thread::sleep(Duration::from_millis(1));
                }
                done.store(true, Ordering::Relaxed);
            }
        });
    });

    // Exact final accounting: every scalar insert was counted once.
    let snap = sw.metrics();
    let expected = (writers * per_writer as usize) as u64;
    assert_eq!(snap.counter("li_inserts_total"), Some(expected));
    // The storm provoked structure: splits recorded as both counter
    // and ring events, and the accessors are thin reads of the same
    // registry the snapshot came from.
    assert_eq!(
        snap.counter("li_shard_splits_total"),
        Some(sw.splits() as u64)
    );
    assert!(sw.splits() >= 1, "storm must split");
    let events = snap.ring("li_events").expect("registered");
    assert!(events.iter().any(|e| e.name == "shard_split"), "{events:?}");
    // Sampled latency saw roughly 1-in-8 inserts (exact per stripe;
    // allow generous slack for stripe boundaries).
    let sampled = snap.histogram("li_insert_ns").expect("registered").count();
    assert!(
        sampled >= expected / 16 && sampled <= expected,
        "sampled {sampled} of {expected}"
    );
}

#[test]
fn snapshot_taken_before_merges_serves_the_old_state_forever() {
    let shard = WritableShard::tiered(
        (0..1000u64).map(|i| i * 2).collect::<Vec<_>>(),
        cfg(),
        64,
        1,
    );
    let before = shard.snapshot();
    assert_eq!(before.len(), 1000);

    // Three seal + fold cycles after the snapshot.
    for k in 0..200u64 {
        shard.insert(k * 2 + 1);
        if shard.needs_compaction() {
            shard.compact();
        }
    }
    assert_eq!(shard.compactions(), 3);

    assert_eq!(before.len(), 1000, "snapshot must be frozen");
    assert!(!before.contains(1));
    assert_eq!(before.rank(u64::MAX), 1000);
    assert_eq!(shard.len(), 1200);
}

/// Case 6: worker rebuilds under a writer storm. The structure starts
/// with four dense near-linear shards, and the storm lands entirely in
/// shard 0's range, driving it through sealed runs, compactions and at
/// least one split, all on the worker. Readers keep checking snapshots
/// and live reads while shard 0 is rebuilt underneath them; afterwards
/// the contents are exact and every base, rebuilt or not, is the
/// store's one ε-corridor base.
#[test]
fn writer_storm_splits_and_folds_on_worker_rebuilds() {
    // 4 × 24_000 dense keys on a stride-64 grid.
    let initial: Vec<u64> = (0..96_000u64).map(|i| i * 64).collect();
    // 4 800 storm keys: the split comes after ~2 000 of them, and a
    // split half (~13 000 keys) folds once its runs hold a sixteenth of
    // its base, ~1 000 sealed keys. However the worker's passes fall,
    // the shard folds before the split or ~2 800 keys after it.
    let writers = 4u64;
    let per_writer = 1_200u64;
    let config = ShardedWritableConfig {
        merge_threshold: 256, // seal every 256 fresh keys per shard
        check_interval: 0,
        max_runs: 2, // a full stack at 2 sealed runs
        rebalance: RebalanceConfig {
            max_shard_len: 26_000, // shard 0 starts at 24_000: in reach
            merge_max_len: 0,      // merges off — splits only
            max_shards: 16,
        },
        ..ShardedWritableConfig::default()
    };
    let sw = Arc::new(ShardedWritable::new(initial.clone(), 4, config));
    let worker = RebalanceWorker::spawn(Arc::clone(&sw));

    let done = AtomicBool::new(false);
    let snapshots_checked = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        let sw_ref = &*sw;
        let done_ref = &done;
        let checked_ref = &snapshots_checked;
        let initial_ref = &initial;

        // Readers: every snapshot stays consistent while shard 0 is
        // split and folded underneath them.
        for t in 0..2 {
            scope.spawn(move || {
                let mut last_len = 0usize;
                loop {
                    let finished = done_ref.load(Ordering::Acquire);
                    let snap = sw_ref.snapshot();

                    let per_shard: usize = snap.shard_snapshots().iter().map(|s| s.len()).sum();
                    assert_eq!(per_shard, snap.len(), "t={t}: torn shard lengths");
                    let total = snap.rank(u64::MAX) + usize::from(snap.contains(u64::MAX));
                    assert_eq!(total, snap.len(), "t={t}: torn rank bookkeeping");

                    assert!(snap.len() >= last_len, "t={t}: len went backwards");
                    last_len = snap.len();
                    for &k in initial_ref.iter().step_by(7919) {
                        assert!(snap.contains(k), "t={t}: lost initial key {k}");
                    }

                    let scan = snap.range_keys(1_000, 60_000);
                    assert!(scan.windows(2).all(|w| w[0] < w[1]), "t={t}: bad scan");
                    assert_eq!(scan.len(), snap.rank(60_000) - snap.rank(1_000));
                    // Live, across shard 0's splits and folds.
                    check_live_reads(sw_ref, initial_ref, 1_000, 60_000, t);

                    checked_ref.fetch_add(1, Ordering::Relaxed);
                    if finished {
                        break;
                    }
                    std::thread::yield_now();
                }
            });
        }

        // Writers: disjoint stripes of fresh odd keys interleaving the
        // stride-64 grid inside shard 0's range only (max key
        // 4800·64+1 ≪ shard 0's initial upper bound 24_000·64).
        scope.spawn(move || {
            std::thread::scope(|inner| {
                for w in 0..writers {
                    inner.spawn(move || {
                        for i in 0..per_writer {
                            sw_ref.insert((w * per_writer + i) * 64 + 1);
                        }
                    });
                }
            });
            done_ref.store(true, Ordering::Release);
        });
    });

    assert!(
        worker.wait_until_stable(Duration::from_secs(60)),
        "worker failed to quiesce after the storm"
    );
    assert!(snapshots_checked.load(Ordering::Relaxed) > 0);

    // The storm must have driven shard 0 over its split threshold and
    // through at least one full run stack.
    assert!(worker.splits() >= 1, "storm must split shard 0");
    assert!(
        worker.compactions() >= 1,
        "storm must drive at least one compaction"
    );
    assert_eq!(sw.shard_merges(), 0, "merges are disabled");

    // Run merges retrain nothing; the worker ran all of them.
    assert_eq!(worker.run_merges(), sw.run_merges());
    // Every base, the rebuilt hot region's and the three untouched
    // shards' alike, is the ε-corridor.
    let snap = sw.snapshot();
    assert!(
        snap.shard_snapshots()
            .iter()
            .all(|shard| shard.base_index().stats().eps.is_some()),
        "every base must be an ε-corridor"
    );

    // Exact final contents: initial keys + every storm key.
    let mut expect: std::collections::BTreeSet<u64> = initial.into_iter().collect();
    for w in 0..writers {
        for i in 0..per_writer {
            expect.insert((w * per_writer + i) * 64 + 1);
        }
    }
    assert_eq!(sw.len(), expect.len());
    let dump = sw.range_keys(0, u64::MAX);
    assert!(dump.iter().eq(expect.iter()), "final contents diverged");
}

/// Case 9: no acknowledged key is ever missed by a lock-free get.
///
/// Two writers insert disjoint streams of odd keys spread over the
/// initial range and publish, after each insert returns, how many of
/// their keys are acknowledged. Two readers loop over each writer's
/// eight newest acknowledged keys (the likeliest to sit in a buffer
/// that is being sealed), a random older one, an initial key and a key
/// no one inserts. Buffers of 4 keys and stacks of 2 runs seal every few
/// inserts, merge runs while they are small against the base and fold
/// them after; 16 cold shards merge in pairs first, and the grown ones
/// split. With a worker, the readers start before the worker's first
/// pass, which merges the cold shards under them, and the writers start
/// once it is done.
fn acknowledged_keys_are_never_missed(with_worker: bool) {
    const WRITERS: u64 = 2;
    const PER_WRITER: u64 = 6000;
    const SLOTS: u64 = 1 << 17; // odd keys below 2^18, the initial range
    let initial: Vec<u64> = (0..65_536u64).map(|i| i * 4).collect();
    // Writer w's i-th key: an odd number, a bijection of (w, i) onto
    // the slots, so the streams are disjoint and spread out.
    let key = |w: u64, i: u64| ((i * WRITERS + w).wrapping_mul(0x9e37_79b1) % SLOTS) * 2 + 1;
    let config = ShardedWritableConfig {
        merge_threshold: 4,
        leaf_fraction: 1.0 / 32.0,
        check_interval: 256,
        max_runs: 2,
        rebalance: RebalanceConfig {
            // 16 × 4096 keys merge into 8 × 8192, which the storm grows
            // by about 1500 each, past the split threshold. Runs fold once
            // they hold 512 keys of a shard, well before a shard splits,
            // so even a worker that lags behind the writers merges small
            // stacks first and folds them later.
            max_shard_len: 9400,
            merge_max_len: 8500,
            max_shards: 32,
        },
        ..ShardedWritableConfig::default()
    };
    let sw = Arc::new(ShardedWritable::new(initial.clone(), 16, config));
    let worker = with_worker.then(|| RebalanceWorker::spawn(Arc::clone(&sw)));
    let acked: Vec<AtomicUsize> = (0..WRITERS).map(|_| AtomicUsize::new(0)).collect();
    let writing = AtomicUsize::new(WRITERS as usize);
    let checks = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for t in 0..2u64 {
            let (sw, acked, writing, checks, initial) = (&*sw, &acked, &writing, &checks, &initial);
            scope.spawn(move || {
                let mut x = 0x2545_f491_4f6c_dd1du64 ^ t;
                let mut next = move || {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                };
                while writing.load(Ordering::Acquire) > 0 {
                    for w in 0..WRITERS {
                        let n = acked[w as usize].load(Ordering::Acquire) as u64;
                        if n == 0 {
                            continue;
                        }
                        for i in n.saturating_sub(8)..n {
                            let recent = key(w, i);
                            assert!(sw.contains(recent), "t={t}: acknowledged {recent} missed");
                        }
                        let older = key(w, next() % n);
                        assert!(sw.contains(older), "t={t}: acknowledged {older} missed");
                    }
                    let base = initial[(next() % initial.len() as u64) as usize];
                    assert!(sw.contains(base), "t={t}: initial {base} missed");
                    let absent = (next() % 65_536) * 4 + 2;
                    assert!(!sw.contains(absent), "t={t}: never-inserted {absent} found");
                    checks.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        if let Some(worker) = &worker {
            worker.kick();
            assert!(worker.wait_until_stable(Duration::from_secs(60)));
            assert!(sw.shard_merges() >= 1, "the worker's first pass must merge");
        }
        for w in 0..WRITERS {
            let (sw, acked, writing) = (&*sw, &acked, &writing);
            scope.spawn(move || {
                for i in 0..PER_WRITER {
                    assert!(sw.insert(key(w, i)), "writer {w}: key {i} inserted twice");
                    acked[w as usize].store(i as usize + 1, Ordering::Release);
                }
                writing.fetch_sub(1, Ordering::Release);
            });
        }
    });

    if let Some(worker) = &worker {
        worker.kick();
        assert!(worker.wait_until_stable(Duration::from_secs(60)));
    }
    assert!(checks.load(Ordering::Relaxed) > 0, "the readers never ran");
    assert!(sw.run_merges() >= 1, "small run stacks must merge");
    assert!(sw.compactions() >= 1, "grown run stacks must fold");
    assert!(sw.shard_merges() >= 1, "the cold start must merge");
    assert!(sw.splits() >= 1, "grown shards must split");
    assert_eq!(sw.len(), initial.len() + (WRITERS * PER_WRITER) as usize);
    for w in 0..WRITERS {
        for i in 0..PER_WRITER {
            assert!(sw.contains(key(w, i)), "key {} lost", key(w, i));
        }
    }
}

#[test]
fn acknowledged_keys_are_never_missed_inline() {
    acknowledged_keys_are_never_missed(false);
}

#[test]
fn acknowledged_keys_are_never_missed_with_a_worker() {
    acknowledged_keys_are_never_missed(true);
}
