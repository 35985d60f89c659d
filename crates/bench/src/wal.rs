//! Durability economics: what a write-ahead log costs on the insert
//! path, per group-commit policy — beyond the paper.
//!
//! The persistence experiment ([`crate::persist`]) prices the *warm
//! restart*; this one prices the half snapshots cannot provide —
//! keeping every acknowledged live write crash-safe between saves. A
//! fresh-key stream is driven through [`ShardedWritable::insert`] four
//! times over identical structures:
//!
//! 1. **no-wal** — the inline scalar write path, the baseline every
//!    policy is priced against;
//! 2. **per-record** — `fsync` after every append: the zero-loss
//!    policy, and the price of paying the disk for every write;
//! 3. **every-64** — classic group commit ([`WalSyncPolicy::EveryN`],
//!    the default): one `fsync` amortized over 64 appends, a crash
//!    loses at most the unsynced suffix;
//! 4. **every-1ms** — time-based group commit
//!    ([`WalSyncPolicy::EveryInterval`]).
//!
//! After the group-commit run the harness *crashes* the structure
//! (drops it without saving) and measures
//! [`ShardedWritable::recover`]: scan + replay wall-clock and a full
//! membership sweep proving no acknowledged-durable write was lost.
//!
//! Numbers to expect: `fsync` latency dominates per-record (orders of
//! magnitude over the baseline on real disks; tmpfs hides most of it),
//! while group commit amortizes the sync down to a small constant
//! factor — the acceptance bar is ≤2× the inline baseline at
//! every-64. On a single-core host writer and (in recovery) replay
//! share the CPU; EXPERIMENTS.md records the caveat.

use crate::harness::{BenchConfig, LatencySummary};
use crate::table::Table;
use li_data::Dataset;
use li_obs::Histogram;
use li_serve::{ShardedWritable, ShardedWritableConfig, WalSyncPolicy};
use std::time::{Duration, Instant};

/// Shard count for every measured structure.
pub const WAL_SHARDS: usize = 8;

/// The group-commit window of the default policy (the acceptance-bar
/// row of the table).
pub const GROUP_COMMIT_N: usize = 64;

/// One policy's measured insert leg.
#[derive(Debug, Clone)]
pub struct WalRow {
    /// Policy name ("no-wal" is the baseline row).
    pub policy: &'static str,
    /// Insert operations driven (the identical stream for every
    /// policy).
    pub inserted: usize,
    /// Wall-clock for the insert leg, milliseconds.
    pub wall_ms: f64,
    /// Inserts per second sustained.
    pub inserts_per_sec: f64,
    /// Wall-clock multiple of the no-wal baseline (1.0 for the
    /// baseline itself).
    pub overhead: f64,
    /// `fsync` sync points the policy issued.
    pub syncs: u64,
    /// Mean per-insert latency in ns (li-obs histogram over every
    /// insert in the leg).
    pub mean_insert_ns: f64,
    /// p99 per-insert latency in ns — group commit shows up here: the
    /// 1-in-64 insert that pays the fsync lives in the tail, not the
    /// mean.
    pub p99_insert_ns: u64,
    /// Final log size in MiB.
    pub log_mib: f64,
}

/// The crash-recovery leg run after the group-commit policy.
#[derive(Debug, Clone)]
pub struct WalRecoveryRow {
    /// Records replayed from the log (every insert: the crash happened
    /// after a final sync, so the whole log is the durable prefix).
    pub replayed: usize,
    /// Wall-clock to scan + replay + re-arm, milliseconds.
    pub recover_ms: f64,
    /// Replayed inserts per second.
    pub replays_per_sec: f64,
    /// Keys verified present after recovery (base + every logged key).
    pub verified: usize,
    /// Models trained during recovery ([`li_serve::RecoveryReport`]'s
    /// `trained`). The snapshot load trains zero; the replayed tail is
    /// applied as one batch, so each shard whose buffer it overflows
    /// retrains once (plus any rebalance the batch triggers) — at small
    /// scales (below the merge threshold per shard) this is 0.
    pub trained: u64,
}

fn tmp_wal(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("li-bench-wal-{}-{tag}.wal", std::process::id()))
}

/// Drive `fresh` through scalar durable inserts under one policy
/// (`None` = the no-wal baseline) and measure the leg.
fn run_policy(
    base: &[u64],
    fresh: &[u64],
    policy: Option<(&'static str, WalSyncPolicy)>,
    baseline_ms: Option<f64>,
) -> WalRow {
    let sw = ShardedWritable::new(base.to_vec(), WAL_SHARDS, ShardedWritableConfig::default());
    let (name, path) = match policy {
        Some((name, p)) => {
            let path = tmp_wal(name);
            sw.enable_wal(&path, p).expect("enable_wal");
            (name, Some(path))
        }
        None => ("no-wal", None),
    };

    // Per-insert latency lands in an li-obs histogram; every row
    // (baseline included) pays the same two clock reads per insert, so
    // the wall-clock overhead ratio stays an apples-to-apples compare.
    let hist = Histogram::new();
    let t0 = Instant::now();
    for &k in fresh {
        let ti = Instant::now();
        sw.insert(k);
        hist.record_since(ti);
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(sw.wal_failure().is_none(), "WAL latched a failure: {name}");
    let lat = LatencySummary::of(&hist);

    let log_mib = path
        .as_ref()
        .and_then(|p| std::fs::metadata(p).ok())
        .map_or(0.0, |m| m.len() as f64 / (1024.0 * 1024.0));
    let row = WalRow {
        policy: name,
        inserted: fresh.len(),
        wall_ms,
        inserts_per_sec: fresh.len() as f64 / (wall_ms / 1e3).max(1e-9),
        overhead: baseline_ms.map_or(1.0, |b| wall_ms / b.max(1e-9)),
        syncs: sw.wal_sync_count(),
        mean_insert_ns: lat.mean_ns,
        p99_insert_ns: lat.p99_ns,
        log_mib,
    };
    if let Some(p) = path {
        let _ = std::fs::remove_file(p);
    }
    row
}

/// The crash + recover leg: durable inserts under the default group
/// commit, a hard sync, a crash (drop), then [`ShardedWritable::recover`]
/// with a full membership verification.
fn run_recovery(base: &[u64], fresh: &[u64]) -> WalRecoveryRow {
    let wal_path = tmp_wal("recover");
    let snap_path = tmp_wal("recover-snap"); // never written: crash before first save
    let policy = WalSyncPolicy::EveryN(GROUP_COMMIT_N);

    let sw = ShardedWritable::new(base.to_vec(), WAL_SHARDS, ShardedWritableConfig::default());
    sw.enable_wal(&wal_path, policy).expect("enable_wal");
    for &k in fresh {
        sw.insert(k);
    }
    // Make the tail durable so the whole stream is the acknowledged
    // prefix recovery must reproduce, then crash.
    sw.wal_sync().expect("wal_sync");
    let expected = sw.len();
    drop(sw);

    // No snapshot exists, so recovery boots empty (that boot trains
    // one trivial model — measured out) and replays the entire log
    // into the base-less structure... which would lose `base`. The
    // honest benchmark therefore replays over the same starting state:
    // rebuild the base first, exactly what an operator restoring from
    // the last snapshot does — here the "snapshot" is the cold build.
    let cold = ShardedWritable::new(base.to_vec(), WAL_SHARDS, ShardedWritableConfig::default());
    cold.save(&snap_path).expect("save snapshot");
    drop(cold);

    let t0 = Instant::now();
    let (rec, report) = ShardedWritable::recover_with_config(
        &snap_path,
        &wal_path,
        policy,
        ShardedWritableConfig::default(),
    )
    .expect("recover");
    let recover_ms = t0.elapsed().as_secs_f64() * 1e3;

    assert_eq!(rec.len(), expected, "recovery lost or invented keys");
    let mut verified = 0usize;
    for &k in fresh.iter().chain(base.iter()) {
        assert!(rec.contains(k), "lost key {k} across the crash");
        verified += 1;
    }
    let row = WalRecoveryRow {
        replayed: report.replayed,
        recover_ms,
        replays_per_sec: report.replayed as f64 / (recover_ms / 1e3).max(1e-9),
        verified,
        trained: report.trained,
    };
    let _ = std::fs::remove_file(&wal_path);
    let _ = std::fs::remove_file(&snap_path);
    row
}

/// Run the WAL experiment on the Lognormal dataset: `cfg.keys` base
/// keys, one fresh odd key inserted per 8 base keys (bounded so debug
/// runs stay fast).
pub fn run(cfg: &BenchConfig) -> (Vec<WalRow>, WalRecoveryRow) {
    let keyset = Dataset::Lognormal.generate(cfg.keys, cfg.seed);
    let base = keyset.keys();
    // Mostly-fresh keys (an odd twin per 8th base key; the rare
    // collision with an odd base key is a duplicate insert, which the
    // WAL logs and replays like any other acknowledged write).
    let fresh: Vec<u64> = base
        .iter()
        .step_by(8)
        .map(|&k| k | 1)
        .take(100_000)
        .collect();

    let baseline = run_policy(base, &fresh, None, None);
    let b = baseline.wall_ms;
    let rows = vec![
        baseline,
        run_policy(
            base,
            &fresh,
            Some(("per-record", WalSyncPolicy::PerRecord)),
            Some(b),
        ),
        run_policy(
            base,
            &fresh,
            Some(("every-64", WalSyncPolicy::EveryN(GROUP_COMMIT_N))),
            Some(b),
        ),
        run_policy(
            base,
            &fresh,
            Some((
                "every-1ms",
                WalSyncPolicy::EveryInterval(Duration::from_millis(1)),
            )),
            Some(b),
        ),
    ];
    let recovery = run_recovery(base, &fresh);
    (rows, recovery)
}

/// Render the WAL tables.
pub fn print(results: &(Vec<WalRow>, WalRecoveryRow), keys: usize) {
    let (rows, rec) = results;
    let mut t = Table::new(
        &format!(
            "WAL — durable insert overhead per sync policy on Lognormal ({keys} base keys, {WAL_SHARDS} shards)"
        ),
        &[
            "Policy",
            "Inserted",
            "Wall (ms)",
            "Inserts/s",
            "Overhead",
            "Syncs",
            "Mean ins (ns)",
            "p99 ins (ns)",
            "Log (MiB)",
        ],
    );
    for r in rows {
        t.row(&[
            r.policy.to_string(),
            r.inserted.to_string(),
            format!("{:.1}", r.wall_ms),
            format!("{:.0}", r.inserts_per_sec),
            format!("{:.2}x", r.overhead),
            r.syncs.to_string(),
            format!("{:.0}", r.mean_insert_ns),
            r.p99_insert_ns.to_string(),
            format!("{:.2}", r.log_mib),
        ]);
    }
    t.note("every policy drives the same fresh-key stream through the scalar durable insert path; overhead is wall-clock over the no-wal baseline");
    t.note("mean/p99 ins come from an li-obs histogram over every insert — group commit's 1-in-64 fsync lives in the p99 tail, not the mean");
    t.note("per-record pays one fsync per insert (zero loss); the group-commit rows may lose only the unsynced suffix on a crash — the acceptance bar is <=2x at every-64");
    t.print();
    println!();

    let mut t = Table::new(
        "WAL — crash recovery (group commit every-64, final sync, crash before save)",
        &[
            "Replayed",
            "Recover (ms)",
            "Replays/s",
            "Verified keys",
            "Trained",
        ],
    );
    t.row(&[
        rec.replayed.to_string(),
        format!("{:.1}", rec.recover_ms),
        format!("{:.0}", rec.replays_per_sec),
        rec.verified.to_string(),
        rec.trained.to_string(),
    ]);
    t.note("recovery = load the snapshot (zero training) + scan the log + replay the keys of every record with lsn > snapshot lsn as one routed unlogged batch: each shard whose buffer it overflows retrains once, plus any rebalance it triggers");
    t.note("verified sweeps every base and every logged key through contains() on the recovered structure");
    t.print();
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_measures_all_policies_and_recovers() {
        let (rows, rec) = run(&BenchConfig {
            keys: 20_000,
            queries: 100,
            seed: 7,
        });
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].policy, "no-wal");
        assert_eq!(rows[0].syncs, 0, "baseline must not sync");
        assert!((rows[0].overhead - 1.0).abs() < f64::EPSILON);
        let n = rows[0].inserted;
        for r in &rows {
            assert_eq!(r.inserted, n, "all policies drive the same stream: {r:?}");
            assert!(r.wall_ms > 0.0, "{r:?}");
            // Every leg records a per-insert latency distribution.
            assert!(r.mean_insert_ns > 0.0 && r.p99_insert_ns > 0, "{r:?}");
        }
        // Group commit must amortize: strictly fewer syncs than
        // per-record, and per-record syncs once per insert.
        assert_eq!(rows[1].syncs, n as u64, "{:?}", rows[1]);
        assert!(rows[2].syncs < rows[1].syncs, "{:?}", rows[2]);
        assert!(rows[2].syncs >= (n / GROUP_COMMIT_N) as u64);
        // The durable rows wrote a real log.
        for r in &rows[1..] {
            assert!(r.log_mib > 0.0, "{r:?}");
        }
        assert_eq!(rec.replayed, n, "the whole stream is the durable prefix");
        assert_eq!(rec.verified, n + 20_000);
        assert_eq!(rec.trained, 0, "recovery must not train: {rec:?}");
        assert!(rec.recover_ms > 0.0);
    }
}
