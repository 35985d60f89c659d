//! The sharded serving index: N zero-copy shard slices, one router.
//!
//! Range-partitions one shared [`KeyStore`] into contiguous shards
//! (`KeyStore::slice` — no key is ever copied), builds a pluggable
//! [`ShardBuilder`] backend per shard, and routes every query through a
//! binary-search [`ShardRouter`]. `ShardedIndex` itself
//! implements [`RangeIndex`], so every harness, property suite and
//! figure in the workspace runs against it unchanged — sharding is an
//! implementation detail behind the same trait.

use crate::builder::ShardBuilder;
use crate::router::ShardRouter;
use li_index::partition::{boundaries, even_offsets};
use li_index::{KeyStore, Prediction, RangeIndex};

/// A range-partitioned index over one shared key array.
///
/// * **Zero-copy**: every shard's backend is built over a
///   `KeyStore::slice` of the same allocation (`ptr_eq` holds across
///   all shards).
/// * **Routing**: a query goes to the shard whose position range
///   contains its global lower bound (one `partition_point` over the
///   shard boundary keys; see `li_index::partition::route_binary` for the proof, duplicates
///   included).
/// * **Batched**: `lower_bound_batch` buckets the queries per shard and
///   hands each shard its bucket in one call, so phase-split backends
///   keep their memory-level parallelism within each shard.
/// * **Parallel**: [`ShardedIndex::lower_bound_batch_parallel`] fans
///   contiguous sub-batches out across scoped threads.
pub struct ShardedIndex {
    store: KeyStore,
    /// `shard_count + 1` split positions into `store`.
    offsets: Vec<usize>,
    router: ShardRouter,
    shards: Vec<Box<dyn RangeIndex>>,
    backend_name: String,
}

impl ShardedIndex {
    /// Partition `data` into `shards` balanced range shards (clamped to
    /// at least 1 and at most one shard per key) and build a backend
    /// per shard with `builder`.
    pub fn build(data: impl Into<KeyStore>, shards: usize, builder: &dyn ShardBuilder) -> Self {
        let store: KeyStore = data.into();
        let n = shards.clamp(1, store.len().max(1));
        let offsets = even_offsets(store.len(), n);
        let shard_indexes: Vec<Box<dyn RangeIndex>> = offsets
            .windows(2)
            .map(|w| builder.build(store.slice(w[0]..w[1])))
            .collect();
        let router = ShardRouter::new(boundaries(&store, &offsets));
        Self {
            store,
            offsets,
            router,
            shards: shard_indexes,
            backend_name: builder.name(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The backend serving shard `i`.
    pub fn shard(&self, i: usize) -> &dyn RangeIndex {
        self.shards[i].as_ref()
    }

    /// The position where shard `i` starts in the full array.
    pub fn shard_offset(&self, i: usize) -> usize {
        self.offsets[i]
    }

    /// The router (its boundaries are the shards' first keys).
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Batched lookup fanned out across `threads` scoped threads, each
    /// running the bucketed [`RangeIndex::lower_bound_batch`] on a
    /// contiguous sub-batch. Results are identical to the sequential
    /// path; only the wall-clock differs. `threads` is clamped to
    /// `1..=queries.len()`.
    ///
    /// # Panics
    /// If `queries.len() != out.len()`.
    pub fn lower_bound_batch_parallel(&self, queries: &[u64], out: &mut [usize], threads: usize) {
        assert_eq!(
            queries.len(),
            out.len(),
            "lower_bound_batch_parallel: queries and out must have equal length"
        );
        if queries.is_empty() {
            return;
        }
        let threads = threads.clamp(1, queries.len());
        if threads == 1 {
            self.lower_bound_batch(queries, out);
            return;
        }
        let chunk = queries.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for (qs, os) in queries.chunks(chunk).zip(out.chunks_mut(chunk)) {
                scope.spawn(move || self.lower_bound_batch(qs, os));
            }
        });
    }
}

impl RangeIndex for ShardedIndex {
    fn key_store(&self) -> &KeyStore {
        &self.store
    }

    fn predict(&self, key: u64) -> Prediction {
        let s = self.router.route(key);
        let p = self.shards[s].predict(key);
        let o = self.offsets[s];
        Prediction {
            pos: o + p.pos,
            lo: o + p.lo,
            hi: o + p.hi,
        }
    }

    fn lower_bound(&self, key: u64) -> usize {
        let s = self.router.route(key);
        self.offsets[s] + self.shards[s].lower_bound(key)
    }

    fn lower_bound_batch(&self, queries: &[u64], out: &mut [usize]) {
        assert_eq!(
            queries.len(),
            out.len(),
            "lower_bound_batch: queries and out must have equal length"
        );
        if self.shards.len() == 1 {
            self.shards[0].lower_bound_batch(queries, out);
            return;
        }
        // Bucket queries per shard so each backend sees its whole
        // sub-batch at once (keeping phase-split plans effective), then
        // scatter the offset-translated answers back.
        let n = self.shards.len();
        let mut bucket_queries: Vec<Vec<u64>> = vec![Vec::new(); n];
        let mut bucket_slots: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (slot, &q) in queries.iter().enumerate() {
            let s = self.router.route(q);
            bucket_queries[s].push(q);
            bucket_slots[s].push(slot);
        }
        let mut local = Vec::new();
        for s in 0..n {
            if bucket_queries[s].is_empty() {
                continue;
            }
            local.clear();
            local.resize(bucket_queries[s].len(), 0);
            self.shards[s].lower_bound_batch(&bucket_queries[s], &mut local);
            let o = self.offsets[s];
            for (&slot, &r) in bucket_slots[s].iter().zip(&local) {
                out[slot] = o + r;
            }
        }
    }

    fn size_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.size_bytes()).sum::<usize>()
            + self.router.size_bytes()
            + self.offsets.len() * std::mem::size_of::<usize>()
    }

    fn name(&self) -> String {
        format!(
            "sharded(n={}, backend={})",
            self.shards.len(),
            self.backend_name
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{BTreeShardBuilder, FastShardBuilder, RetunePolicy, RmiShardBuilder};

    fn oracle(data: &[u64], q: u64) -> usize {
        data.partition_point(|&k| k < q)
    }

    fn probes(data: &[u64]) -> Vec<u64> {
        let mut qs = vec![0u64, 1, u64::MAX - 1, u64::MAX];
        for &k in data.iter().step_by(7) {
            qs.extend_from_slice(&[k.saturating_sub(1), k, k.saturating_add(1)]);
        }
        qs
    }

    #[test]
    fn sharded_matches_oracle_across_shard_counts() {
        let data: Vec<u64> = (0..5000u64).map(|i| i * 3 + (i % 2)).collect();
        for shards in [1usize, 2, 5, 16, 64] {
            let idx = ShardedIndex::build(data.clone(), shards, &RmiShardBuilder::new());
            assert_eq!(idx.shard_count(), shards);
            for q in probes(&data) {
                assert_eq!(
                    idx.lower_bound(q),
                    oracle(&data, q),
                    "shards={shards} q={q}"
                );
            }
        }
    }

    #[test]
    fn all_shards_share_one_allocation() {
        let store = KeyStore::new((0..1000u64).collect());
        let idx = ShardedIndex::build(store.clone(), 8, &BTreeShardBuilder::new(32));
        assert!(idx.key_store().ptr_eq(&store));
        for s in 0..idx.shard_count() {
            assert!(idx.shard(s).key_store().ptr_eq(&store), "shard {s}");
        }
        // 1 caller handle + 1 in the ShardedIndex + >= 1 per shard.
        assert!(store.strong_count() >= idx.shard_count() + 2);
    }

    #[test]
    fn batch_and_parallel_match_scalar() {
        let data: Vec<u64> = (0..3000u64).map(|i| i * 5).collect();
        let idx = ShardedIndex::build(data.clone(), 7, &RmiShardBuilder::new());
        let queries = probes(&data);
        let mut batch = vec![0usize; queries.len()];
        idx.lower_bound_batch(&queries, &mut batch);
        for threads in [1usize, 2, 4, 8] {
            let mut par = vec![usize::MAX; queries.len()];
            idx.lower_bound_batch_parallel(&queries, &mut par, threads);
            assert_eq!(par, batch, "threads={threads}");
        }
        for (&q, &got) in queries.iter().zip(&batch) {
            assert_eq!(got, oracle(&data, q), "q={q}");
        }
    }

    #[test]
    fn empty_and_tiny_stores_work() {
        for shards in [1usize, 3, 7] {
            let empty = ShardedIndex::build(Vec::<u64>::new(), shards, &FastShardBuilder);
            assert_eq!(empty.shard_count(), 1, "clamped to one shard");
            assert_eq!(empty.lower_bound(42), 0);
            empty.lower_bound_batch(&[], &mut []);

            let single = ShardedIndex::build(vec![9u64], shards, &FastShardBuilder);
            assert_eq!(single.shard_count(), 1);
            assert_eq!(single.lower_bound(8), 0);
            assert_eq!(single.lower_bound(9), 0);
            assert_eq!(single.lower_bound(10), 1);
        }
        // Two keys, clamp 7 -> 2 shards.
        let two = ShardedIndex::build(vec![3u64, 8], 7, &FastShardBuilder);
        assert_eq!(two.shard_count(), 2);
        assert_eq!(two.lower_bound(5), 1);
    }

    #[test]
    fn duplicate_runs_spanning_shards_find_first_occurrence() {
        // 30 copies of each value: runs straddle every shard boundary.
        let data: Vec<u64> = (0..300u64).map(|i| i / 30).collect();
        for shards in [1usize, 3, 7] {
            let idx = ShardedIndex::build(data.clone(), shards, &FastShardBuilder);
            for q in probes(&data) {
                assert_eq!(
                    idx.lower_bound(q),
                    oracle(&data, q),
                    "shards={shards} q={q}"
                );
                assert_eq!(idx.upper_bound(q), data.partition_point(|&k| k <= q));
            }
        }
    }

    #[test]
    fn predict_region_brackets_the_answer() {
        let data: Vec<u64> = (0..2000u64).map(|i| i * 2).collect();
        let idx = ShardedIndex::build(data.clone(), 5, &BTreeShardBuilder::new(64));
        for q in probes(&data) {
            let p = idx.predict(q);
            let lb = idx.lower_bound(q);
            assert!(p.lo <= lb && lb <= p.hi, "q={q} p={p:?} lb={lb}");
        }
    }

    #[test]
    fn name_and_size_reflect_the_configuration() {
        let idx = ShardedIndex::build(
            (0..10_000u64).collect::<Vec<_>>(),
            4,
            &RmiShardBuilder::new(),
        );
        assert!(idx.name().starts_with("sharded(n=4, backend=rmi"));
        assert!(idx.size_bytes() > 0);
        // Size excludes the key data (RangeIndex contract).
        assert!(idx.size_bytes() < 10_000 * 8);
    }

    #[test]
    fn rmi_backend_shards_are_corridors() {
        let data: Vec<u64> = (0..20_000u64).map(|i| i * i).collect();
        let builder = RmiShardBuilder::new().with_retune(RetunePolicy::default());
        let idx = ShardedIndex::build(data.clone(), 4, &builder);
        for s in 0..idx.shard_count() {
            let name = idx.shard(s).name();
            assert!(name.starts_with("rmi(corridor"), "shard {s}: {name}");
        }
        for q in probes(&data) {
            assert_eq!(idx.lower_bound(q), oracle(&data, q), "q={q}");
        }
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn parallel_length_mismatch_panics() {
        let idx = ShardedIndex::build(vec![1u64, 2, 3], 2, &FastShardBuilder);
        let mut out = vec![0usize; 2];
        idx.lower_bound_batch_parallel(&[1, 2, 3], &mut out, 2);
    }
}
