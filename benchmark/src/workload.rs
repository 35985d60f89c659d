//! The four workloads and their seeded inputs.
//!
//! Every input — base keys, put keys, the whole operation stream with
//! its expected answers — is generated before any clock starts: the key
//! population from a fixed seed, the stream over it from `--seed`. The
//! store only ever sees generated inputs.

use li_data::Gauntlet;
use li_index::KeyStore;
use li_models::rng::SplitMix64;
use li_serve::{Backend, RebalanceConfig, RetunePolicy, ShardedWritableConfig};

/// Operation kind, the low two bits of an op's flag byte.
pub const OP_MASK: u8 = 3;
pub const GET: u8 = 0;
pub const PUT: u8 = 1;
pub const SCAN: u8 = 2;
/// A get whose key is present when the op runs.
pub const PRESENT: u8 = 4;
/// 1 op in 8: timed with `Instant`.
pub const SAMPLED: u8 = 8;
/// 1 get in 64 (always a sampled one): in a traced run the driver walks
/// the layers itself instead of calling `contains`.
pub const TRACED: u8 = 16;

/// Base keys a scan spans.
pub const SCAN_KEYS: usize = 100;
/// Gets on "recent" keys target the last this many put keys.
const RECENT_WINDOW: usize = 65_536;
/// Keys kept aside for the per-layer timings that need fresh keys, at
/// every scale: one shard's share must fill two run stacks.
const SPARE_KEYS: usize = 1 << 18;
/// The op counts below are sized so the measured phase lasts about
/// this many seconds on the reference host; `--seconds` scales them.
pub const NOMINAL_SECONDS: f64 = 15.0;

/// How gets choose their keys.
#[derive(Clone, Copy, PartialEq)]
pub enum Skew {
    /// Uniform over the base keys.
    Uniform,
    /// 25 % of gets on the last 65 536 put keys; of the base-key gets,
    /// 80 % on a scattered 1 % hot set.
    HotAndRecent,
}

/// One workload. The names and sizes are the contract later changes
/// cite; see README.md for why each exists. `all` gives the sizes at
/// scale 1 and `--seconds 15`, `scaled` the ones a run uses.
#[derive(Clone)]
pub struct Spec {
    pub name: &'static str,
    pub dist: Gauntlet,
    /// Base keys.
    pub keys: usize,
    /// Ops: 5 % warm-up + 95 % measured.
    pub ops: usize,
    pub shards: usize,
    /// Percent of ops that are gets and puts; the rest are scans.
    pub get_pct: u32,
    pub put_pct: u32,
    pub skew: Skew,
    /// WAL + periodic checkpoints + crash recovery.
    pub durable: bool,
    /// Split / merge thresholds.
    pub max_shard_len: usize,
    pub merge_max_len: usize,
    /// Whether a rebuilt shard is retuned (`RetunePolicy::default()`) or
    /// keeps the leaf density it was given.
    pub retune: bool,
    /// A durable store checkpoints (`save`) every this many puts.
    pub save_every: usize,
}

/// Group commit: `fsync` once per this many WAL records.
pub const WAL_SYNC_EVERY: usize = 512;

pub fn all() -> Vec<Spec> {
    let default = RebalanceConfig::default();
    vec![
        Spec {
            name: "read_large",
            dist: Gauntlet::OsmLike,
            keys: 16_000_000,
            ops: 17_000_000,
            shards: 16,
            get_pct: 98,
            put_pct: 1,
            skew: Skew::Uniform,
            durable: false,
            max_shard_len: default.max_shard_len,
            merge_max_len: default.merge_max_len,
            retune: true,
            save_every: usize::MAX,
        },
        Spec {
            name: "read_cached",
            dist: Gauntlet::BooksLike,
            keys: 256 * 1024,
            ops: 50_000_000,
            shards: 4,
            get_pct: 98,
            put_pct: 1,
            skew: Skew::Uniform,
            durable: false,
            max_shard_len: default.max_shard_len,
            // The default (1 << 18) would merge the four 64 k-key shards
            // into one at the first rebalance scan, and the router would
            // route nothing.
            merge_max_len: 1 << 16,
            retune: true,
            save_every: usize::MAX,
        },
        Spec {
            name: "mixed_tiered",
            dist: Gauntlet::BooksLike,
            keys: 2_000_000,
            ops: 7_000_000,
            shards: 8,
            get_pct: 45,
            put_pct: 50,
            skew: Skew::HotAndRecent,
            durable: false,
            // 2 M → 5.5 M keys over 8 shards crosses this once per shard:
            // exactly one generation of splits mid-run.
            max_shard_len: 1 << 19,
            merge_max_len: 1 << 17,
            // Where a split cuts a shard depends on the order of the
            // puts, and these shards' mean error (34-60) sits at the
            // retune threshold (32): whether a child doubles its leaf
            // count flipped from seed to seed, and the index size with
            // it (3.5 % over ten seeds).
            retune: false,
            save_every: usize::MAX,
        },
        Spec {
            name: "durable_ingest",
            dist: Gauntlet::BooksLike,
            keys: 2_000_000,
            ops: 3_000_000,
            shards: 8,
            get_pct: 20,
            put_pct: 75,
            skew: Skew::Uniform,
            durable: true,
            max_shard_len: default.max_shard_len,
            merge_max_len: default.merge_max_len,
            retune: true,
            // Four checkpoints, and a 100 k-record WAL tail at the end
            // of the stream's 2.25 M puts.
            save_every: 537_500,
        },
    ]
}

impl Spec {
    /// The workload with key and op counts scaled by `scale`, op counts
    /// and the checkpoint interval also by `seconds` over the nominal
    /// 15, and the thresholds that count keys scaled along.
    pub fn scaled(&self, scale: f64, seconds: f64) -> Spec {
        let by = |n: usize, factor: f64| (n as f64 * factor) as usize;
        let stream = scale * seconds / NOMINAL_SECONDS;
        let max_shard_len = by(self.max_shard_len, scale).max(64);
        Spec {
            keys: by(self.keys, scale).max(4 * SCAN_KEYS),
            ops: by(self.ops, stream).max(1000),
            max_shard_len,
            merge_max_len: by(self.merge_max_len, scale).min(max_shard_len / 2),
            save_every: if self.durable {
                by(self.save_every, stream).max(WAL_SYNC_EVERY)
            } else {
                usize::MAX
            },
            ..self.clone()
        }
    }

    pub fn config(&self, observe: bool) -> ShardedWritableConfig {
        ShardedWritableConfig {
            merge_threshold: 1024,
            max_runs: 4,
            backend: Backend::Rmi,
            retune: RetunePolicy {
                max_rounds: if self.retune {
                    RetunePolicy::default().max_rounds
                } else {
                    0
                },
                ..RetunePolicy::default()
            },
            observe,
            rebalance: RebalanceConfig {
                max_shard_len: self.max_shard_len,
                merge_max_len: self.merge_max_len,
                ..RebalanceConfig::default()
            },
            ..ShardedWritableConfig::default()
        }
    }
}

/// Everything one run of a workload consumes.
pub struct Inputs {
    /// The initial sorted keys. The store gets an O(1) clone.
    pub base: KeyStore,
    /// Flag byte per op (`OP_MASK`, `PRESENT`, `SAMPLED`, `TRACED`).
    pub kind: Vec<u8>,
    /// Get key, put key or scan lower bound per op.
    pub key: Vec<u64>,
    /// Exclusive upper bound per scan, in stream order.
    pub scan_hi: Vec<u64>,
    /// Unique keys absent from base and put stream, in random order.
    pub spare: Vec<u64>,
    /// Ops in the warm-up slice (the first 5 %).
    pub warm: usize,
}

impl Inputs {
    pub fn ops(&self) -> usize {
        self.kind.len()
    }

    /// The put keys, in stream order.
    pub fn put_keys(&self) -> Vec<u64> {
        self.kind
            .iter()
            .zip(&self.key)
            .filter(|(&k, _)| k & OP_MASK == PUT)
            .map(|(_, &key)| key)
            .collect()
    }

    /// How many ops of `kind` precede op `at`.
    pub fn count_before(&self, at: usize, kind: u8) -> usize {
        self.kind[..at]
            .iter()
            .filter(|&&k| k & OP_MASK == kind)
            .count()
    }
}

/// Seed of the key population. The keys — which are base, which are
/// put, which are spare — are the same on every run of a workload, as
/// SOSD fixes its datasets: `OsmLike` drawn from another seed is another
/// dataset, with other error windows and another index size (across ten
/// seeds `index_bytes_per_key` spread 6–70 %), and two runs would differ
/// by their data, not by the store. `--seed` decides the order of the
/// puts, every query, and which ops are timed.
const DATA_SEED: u64 = 42;

pub fn generate(spec: &Spec, seed: u64) -> Inputs {
    let (n, ops) = (spec.keys, spec.ops);
    let gets = ops * spec.get_pct as usize / 100;
    let puts = ops * spec.put_pct as usize / 100;

    // n + puts + spare unique keys; a partial shuffle picks which of
    // them are put and spare, the rest stay sorted as the base.
    let total = n + puts + SPARE_KEYS;
    let all = spec.dist.generate(total, DATA_SEED);
    assert!(
        all.windows(2).all(|w| w[0] < w[1]),
        "generator must give sorted unique keys"
    );
    let mut data_rng = SplitMix64::new(DATA_SEED ^ 0xDA7A);
    let mut order: Vec<u32> = (0..total as u32).collect();
    for j in 0..puts + SPARE_KEYS {
        let pick = j + data_rng.below(total - j);
        order.swap(j, pick);
    }
    let mut taken = vec![false; total];
    for &i in &order[..puts + SPARE_KEYS] {
        taken[i as usize] = true;
    }
    let mut put_keys: Vec<u64> = order[..puts].iter().map(|&i| all[i as usize]).collect();
    let spare: Vec<u64> = order[puts..puts + SPARE_KEYS]
        .iter()
        .map(|&i| all[i as usize])
        .collect();
    drop(order);
    let base: Vec<u64> = all
        .iter()
        .zip(&taken)
        .filter(|(_, &t)| !t)
        .map(|(&k, _)| k)
        .collect();
    drop(taken);
    assert_eq!(base.len(), n);

    // The stream: exact counts of each kind, in seeded order.
    let mut rng = SplitMix64::new(seed ^ 0x5EED_0B5E);
    let mut kind = vec![SCAN; ops];
    kind[..gets].fill(GET);
    kind[gets..gets + puts].fill(PUT);
    rng.shuffle(&mut kind);
    rng.shuffle(&mut put_keys);

    let hot: Vec<u32> = match spec.skew {
        Skew::Uniform => Vec::new(),
        Skew::HotAndRecent => (0..(n / 100).max(1)).map(|_| rng.below(n) as u32).collect(),
    };

    let mut key = Vec::with_capacity(ops);
    let mut scan_hi = Vec::new();
    let mut put_at = 0usize;
    for k in kind.iter_mut() {
        match *k {
            PUT => {
                key.push(put_keys[put_at]);
                put_at += 1;
            }
            SCAN => {
                let i = rng.below(n - SCAN_KEYS);
                key.push(base[i]);
                scan_hi.push(base[i + SCAN_KEYS]);
            }
            _ => {
                let r = rng.next_f64();
                if r < 0.10 {
                    // Absent: the successor of a key whose gap to the
                    // next of *all* generated keys is more than 1.
                    key.push(loop {
                        let j = rng.below(total - 1);
                        if all[j + 1] - all[j] > 1 {
                            break all[j] + 1;
                        }
                    });
                } else {
                    *k |= PRESENT;
                    let recent = spec.skew == Skew::HotAndRecent && r < 0.35 && put_at > 0;
                    key.push(if recent {
                        let window = put_at.min(RECENT_WINDOW);
                        put_keys[put_at - 1 - rng.below(window)]
                    } else if !hot.is_empty() && rng.below(100) < 80 {
                        base[hot[rng.below(hot.len())] as usize]
                    } else {
                        base[rng.below(n)]
                    });
                }
            }
        }
        if rng.below(8) == 0 {
            *k |= SAMPLED;
            if *k & OP_MASK == GET && rng.below(8) == 0 {
                *k |= TRACED;
            }
        }
    }

    Inputs {
        base: KeyStore::new(base),
        kind,
        key,
        scan_hi,
        spare,
        warm: ops / 20,
    }
}
