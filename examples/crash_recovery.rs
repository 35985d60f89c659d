//! Crash recovery: kill a process mid-write-burst and get every
//! acknowledged-durable write back.
//!
//! ```sh
//! cargo run --release --example crash_recovery
//! ```
//!
//! Snapshots make restarts warm (`warm_restart.rs` is that example),
//! but every write acknowledged *since* the last snapshot used to die
//! with the process. The WAL closes the gap, and this example proves
//! it the blunt way — with a real crash:
//!
//! 1. the parent re-executes itself as a **child** process;
//! 2. the child builds the serving tier, attaches a WAL
//!    (per-record `fsync`: every acknowledged write is durable),
//!    inserts a first burst, **saves a snapshot** (which truncates the
//!    log and stamps the snapshot LSN), inserts a second burst that
//!    only the log protects, as one batch that overflows every shard's
//!    buffer — then calls `std::process::abort()`;
//! 3. the parent observes the abnormal exit, runs
//!    `ShardedWritable::recover` on the dead child's files, and
//!    verifies every key from both bursts survived, and that replaying
//!    the overflowing tail trained nothing and folded nothing.
//!
//! The smoke-test entry point ([`run`]) exercises the same protocol
//! in-process (drop instead of abort, plus an injected torn tail), so
//! the example cannot rot.

use std::collections::BTreeSet;

use learned_indexes::data::{Dataset, SplitMix64};
use learned_indexes::serve::{ShardedWritable, ShardedWritableConfig, WalSyncPolicy};

const ROLE_VAR: &str = "LI_CRASH_ROLE";
const KEYS_VAR: &str = "LI_CRASH_KEYS";
const DIR_VAR: &str = "LI_CRASH_DIR";

/// The burst sizes around the snapshot: `BURST` acknowledged writes
/// land before the save (covered by the snapshot) and `TAIL` after
/// (covered only by the log): one batch, so `PerRecord` pays one
/// `fsync`, and twice the four shards' 1 024-key buffers.
const BURST: usize = 500;
const TAIL: usize = 8192;

fn paths(dir: &std::path::Path) -> (std::path::PathBuf, std::path::PathBuf) {
    (dir.join("crash.lidx"), dir.join("crash.wal"))
}

/// The deterministic workload both processes can reconstruct: one
/// shuffled lognormal keyset, whose first keys are the two insert
/// bursts (so each spreads over the shards as the base does) and whose
/// rest, sorted, is the base.
fn workload(n: usize) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    let all = Dataset::Lognormal.generate(n + BURST + TAIL, 42);
    let mut keys = all.keys().to_vec();
    SplitMix64::new(11).shuffle(&mut keys);
    let mut base = keys.split_off(BURST + TAIL);
    base.sort_unstable();
    let after = keys.split_off(BURST);
    (base, keys, after)
}

/// Build, write durably, snapshot, write more: the store a crash
/// kills, and the files it leaves in `dir`.
fn write_bursts(n: usize, dir: &std::path::Path) -> ShardedWritable {
    let (base, before, after) = workload(n);
    let (snap, wal) = paths(dir);
    let sw = ShardedWritable::new(base, 4, ShardedWritableConfig::default());
    sw.enable_wal(&wal, WalSyncPolicy::PerRecord)
        .expect("enable_wal");
    for &k in &before {
        sw.insert(k);
    }
    // The checkpoint: the snapshot now covers the first burst, and the
    // log is truncated under the same lock — no record is covered
    // twice, none is dropped.
    sw.save(&snap).expect("save");
    sw.insert_batch(&after);
    sw
}

/// Child role: write both bursts, then crash hard.
fn child(n: usize, dir: &std::path::Path) -> ! {
    let _live = write_bursts(n, dir);
    // No shutdown hook gets to run: SIGABRT, the process is gone.
    std::process::abort();
}

/// Parent role: crash the child, then recover from its files.
fn parent(n: usize) {
    let dir = std::env::temp_dir().join(format!("li-crash-recovery-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");

    let exe = std::env::current_exe().expect("current_exe");
    println!("spawning child to crash mid-burst ({n} base keys, {BURST}+{TAIL} writes)...");
    let status = std::process::Command::new(exe)
        .env(ROLE_VAR, "child")
        .env(KEYS_VAR, n.to_string())
        .env(DIR_VAR, &dir)
        .status()
        .expect("spawn child");
    assert!(
        !status.success(),
        "the child is supposed to abort, got {status}"
    );
    println!("child died: {status}");

    let (base, before, after) = workload(n);
    let (snap, wal) = paths(&dir);
    verify_recovery(&snap, &wal, &base, &before, &after);

    let _ = std::fs::remove_dir_all(&dir);
    println!("OK: no acknowledged-durable write was lost.");
}

/// Recover from `snap` + `wal` and check both bursts survived.
fn verify_recovery(
    snap: &std::path::Path,
    wal: &std::path::Path,
    base: &[u64],
    before: &[u64],
    after: &[u64],
) {
    let t0 = std::time::Instant::now();
    let (rec, report) = ShardedWritable::recover_with_config(
        snap,
        wal,
        WalSyncPolicy::PerRecord,
        ShardedWritableConfig::default(),
    )
    .expect("recover");
    println!(
        "recovered in {:.1} ms: snapshot(lsn={}) + {} replayed records ({} torn bytes truncated, {} models trained)",
        t0.elapsed().as_secs_f64() * 1e3,
        report.snapshot_lsn,
        report.replayed,
        report.truncated_bytes,
        report.trained,
    );
    assert!(report.snapshot_loaded, "the child saved a snapshot");
    assert_eq!(
        report.skipped, 0,
        "the checkpoint truncation left covered records in the log"
    );
    // Each shard's share of the tail (about 2 000 keys) overflows its
    // 1 024-key buffer into one sealed run; replay stops there.
    assert_eq!(
        (rec.run_count(), report.trained, rec.compactions()),
        (rec.shard_count(), 0, 0),
        "every shard seals its tail; replay must not train or fold"
    );

    let expected: BTreeSet<u64> = base
        .iter()
        .chain(before.iter())
        .chain(after.iter())
        .copied()
        .collect();
    assert_eq!(rec.len(), expected.len(), "cardinality mismatch");
    for &k in before.iter().chain(after.iter()) {
        assert!(rec.contains(k), "acknowledged write {k} lost in the crash");
    }
    println!(
        "verified: all {} base keys + {} acknowledged writes present",
        base.len(),
        before.len() + after.len()
    );

    // The recovered structure is live: the re-armed log keeps
    // accepting durable writes with LSNs above everything replayed.
    let lsn_before = rec.wal_last_lsn();
    rec.insert(u64::MAX - 1);
    assert!(rec.wal_last_lsn() > lsn_before, "log did not re-arm");
}

fn main() {
    if std::env::var_os(ROLE_VAR).is_some() {
        let n: usize = std::env::var(KEYS_VAR)
            .expect("child needs LI_CRASH_KEYS")
            .parse()
            .expect("LI_CRASH_KEYS must be a number");
        let dir = std::env::var_os(DIR_VAR).expect("child needs LI_CRASH_DIR");
        child(n, std::path::Path::new(&dir));
    }
    parent(learned_indexes::scale::keys_from_env(200_000));
}

/// The example body, parameterized by key count so the example smoke
/// tests (`tests/examples_smoke.rs`) can run it at tiny scale. Same
/// protocol, in-process: the "crash" is dropping the structure without
/// shutdown, plus a torn half-record smeared onto the log tail (the
/// disk state an abort mid-`write(2)` leaves behind).
pub fn run(n: usize) {
    let dir = std::env::temp_dir().join(format!(
        "li-crash-recovery-inproc-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    drop(write_bursts(n, &dir)); // the crash
    let (base, before, after) = workload(n);
    let (snap, wal) = paths(&dir);

    // A torn tail: the first half of a record whose append never
    // finished. Recovery must truncate it, not choke on it.
    use std::io::Write;
    std::fs::OpenOptions::new()
        .append(true)
        .open(&wal)
        .and_then(|mut f| f.write_all(&21u32.to_le_bytes()))
        .expect("smear torn tail");

    verify_recovery(&snap, &wal, &base, &before, &after);
    let _ = std::fs::remove_dir_all(&dir);
}
