//! `--check`: replay a workload op by op against a `BTreeSet` oracle.
//!
//! Every get and put answer, every scan's contents, the layered walk's
//! answer against `snapshot.contains`, the final contents, and what a
//! restart brings back — for a durable store, exactly the snapshot plus
//! the fsynced prefix of the WAL.

use std::collections::BTreeSet;

use li_serve::ShardedWritable;

use crate::driver::{build, walk, Crash};
use crate::host::Scratch;
use crate::workload::{generate, Spec, GET, OP_MASK, PRESENT, PUT, TRACED};

/// Returns (checks made, mismatches).
pub fn check(spec: &Spec, seed: u64, dir: &Scratch) -> (u64, u64) {
    let inp = generate(spec, seed);
    let mut live = build(spec, &inp, dir);
    let store = live.store.clone();
    let mut oracle: BTreeSet<u64> = inp.base.iter().copied().collect();
    let mut at_save = oracle.clone();
    let (mut checks, mut wrong) = (0u64, 0u64);
    let mut expect = |ok: bool, what: &str, op: usize| {
        checks += 1;
        if !ok {
            wrong += 1;
            eprintln!("{}: mismatch at op {op}: {what}", spec.name);
        }
    };
    let mut marks = Vec::new();
    let mut scan_at = 0;

    for i in 0..inp.ops() {
        let (kind, key) = (inp.kind[i], inp.key[i]);
        match kind & OP_MASK {
            GET => {
                let want = oracle.contains(&key);
                expect(want == (kind & PRESENT != 0), "generated answer", i);
                expect(store.contains(key) == want, "contains", i);
                if kind & TRACED != 0 {
                    let snap = store.snapshot();
                    expect(snap.contains(key) == want, "snapshot.contains", i);
                    expect(walk(&snap, key, &mut marks).0 == want, "layered walk", i);
                }
            }
            PUT => {
                expect(store.insert(key) == oracle.insert(key), "insert", i);
                live.disk.puts_since_save += 1;
                if live.disk.puts_since_save >= spec.save_every {
                    live.disk.save(&store, oracle.len());
                    at_save = oracle.clone();
                }
            }
            _ => {
                let hi = inp.scan_hi[scan_at];
                scan_at += 1;
                let want: Vec<u64> = oracle.range(key..hi).copied().collect();
                expect(store.range_keys(key, hi) == want, "range_keys", i);
            }
        }
    }

    let everything = |s: &ShardedWritable| s.snapshot().range_keys(0, u64::MAX);
    let want: Vec<u64> = oracle.iter().copied().collect();
    expect(
        everything(&store) == want && store.len() == want.len(),
        "final contents",
        inp.ops(),
    );

    match Crash::of(&mut live.disk, dir) {
        None => {
            live.disk.save(&store, want.len());
            let loaded = ShardedWritable::load(&live.disk.snap);
            expect(
                loaded.is_ok_and(|s| everything(&s) == want),
                "contents after load",
                inp.ops(),
            );
        }
        Some(crash) => {
            let put_keys = inp.put_keys();
            let first_logged = put_keys.len() - live.disk.puts_since_save;
            at_save.extend(&put_keys[first_logged..first_logged + crash.durable]);
            let want: Vec<u64> = at_save.into_iter().collect();
            let (_, recovered) = crash.recover(spec, &live.disk.snap);
            expect(crash.whole_records, "WAL is whole records", inp.ops());
            expect(
                recovered.is_ok_and(|(s, report)| {
                    report.replayed == crash.durable && everything(&s) == want
                }),
                "recovery returns exactly the fsynced prefix",
                inp.ops(),
            );
        }
    }
    (checks, wrong)
}
