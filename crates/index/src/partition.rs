//! Range-partitioning helpers for sharded serving.
//!
//! A sharded index splits one sorted key array into N contiguous
//! position ranges ("shards") and routes each query to the shard that
//! must contain its lower-bound position. These helpers hold the
//! arithmetic both the router and the partitioner share, so `li-serve`
//! and any future partitioned structure agree on the exact semantics:
//!
//! * [`even_offsets`] — N+1 split points over `len` positions, balanced
//!   to within one key.
//! * [`boundaries`] — the first key of every shard except shard 0: the
//!   router's decision keys.
//! * [`route_binary`] — the reference routing rule. For a globally
//!   sorted array the lower-bound position of `q` always falls inside
//!   shard `partition_point(boundaries, |b| b < q)` (proof in the
//!   function docs); `li-serve`'s router is exactly that one
//!   `partition_point`.
//! * [`route_owner_binary`] — the *ownership* routing rule for writable
//!   sharding: shard `i` owns the half-open key range
//!   `[boundaries[i-1], boundaries[i])`, so a key has exactly one home
//!   shard no matter how shard contents evolve under inserts.
//! * [`split_point`] — where a hot shard hands the upper half of its
//!   keys to a new sibling: the balanced split index that never tears a
//!   duplicate run across the new boundary.

/// Split `len` positions into `shards` contiguous ranges, returning the
/// `shards + 1` offsets (offset `i`..offset `i+1` is shard `i`). The
/// first `len % shards` shards get one extra key, so sizes differ by at
/// most one.
///
/// # Panics
/// If `shards == 0`.
pub fn even_offsets(len: usize, shards: usize) -> Vec<usize> {
    assert!(shards > 0, "even_offsets: shards must be > 0");
    let base = len / shards;
    let extra = len % shards;
    let mut offsets = Vec::with_capacity(shards + 1);
    let mut at = 0usize;
    offsets.push(0);
    for i in 0..shards {
        at += base + usize::from(i < extra);
        offsets.push(at);
    }
    debug_assert_eq!(*offsets.last().unwrap(), len);
    offsets
}

/// The routing keys for a partition of `keys` at `offsets` (as produced
/// by [`even_offsets`]): the first key of each shard `1..N`. Shard 0
/// needs no boundary — every query smaller than all boundaries routes
/// there.
///
/// Empty shards (which [`even_offsets`] only produces as a suffix, when
/// `shards > len`) get boundary `u64::MAX`: since `u64::MAX < q` never
/// holds, [`route_binary`] never selects them and every query stops at
/// the last non-empty shard instead.
pub fn boundaries(keys: &[u64], offsets: &[usize]) -> Vec<u64> {
    let n = offsets.len().saturating_sub(1);
    offsets[1..n.max(1)]
        .iter()
        .map(|&o| keys.get(o).copied().unwrap_or(u64::MAX))
        .collect()
}

/// Reference routing rule: the shard whose position range contains
/// `lower_bound(q)` over the full array.
///
/// Why `partition_point(|b| b < q)` is correct, duplicates included:
/// let `s` be the returned shard. Every shard `j > s` has first key
/// `>= q`, so the global lower bound is at or before shard `s+1`'s
/// start. Every key in shards `< s` is `<=` shard `s`'s first key
/// (global sort order), which is `< q`, so the global lower bound is at
/// or after shard `s`'s start. Hence it lies in
/// `[offsets[s], offsets[s+1]]`, and a shard-local `lower_bound`
/// (which returns the shard length when every shard key is `< q`)
/// lands exactly on it.
#[inline]
pub fn route_binary(boundaries: &[u64], q: u64) -> usize {
    boundaries.partition_point(|&b| b < q)
}

/// Ownership routing rule for *writable* sharding: the shard whose
/// half-open key range `[boundaries[s-1], boundaries[s])` contains `k`
/// (shard 0 owns everything below `boundaries[0]`, the last shard owns
/// everything from the last boundary up).
///
/// This differs from [`route_binary`] exactly on boundary keys:
/// `partition_point(|b| b <= k)` sends `k == boundaries[i]` to shard
/// `i + 1` — the shard that *starts* at that key — while the read rule
/// may stop one earlier (both are correct for a read, because the two
/// candidate positions coincide at the shard edge). For writes the
/// distinction matters: inserts must have exactly **one** home shard,
/// or a key could be duplicated across shards and membership/rank
/// queries would consult the wrong one.
///
/// Why ownership composes with per-shard queries: if every shard `s`
/// holds only keys in its owned range, then for any `k` with owner `s`,
/// every key in shards `< s` is `< boundaries[s-1] <= k` and every key
/// in shards `> s` is `>= boundaries[s] > k`. Hence
/// `contains(k) == shard_s.contains(k)` and
/// `rank(k) == len(shard_0..s) + shard_s.rank(k)` — each global query
/// touches exactly one shard plus O(1) bookkeeping.
#[inline]
pub fn route_owner_binary(boundaries: &[u64], k: u64) -> usize {
    boundaries.partition_point(|&b| b <= k)
}

/// The balanced split index for handing the upper half of a hot shard's
/// keys to a new sibling: an index `m` with `0 < m < len` and
/// `keys[m-1] < keys[m]`, as close to `len / 2` as possible.
///
/// The strict-inequality requirement keeps ownership sound: the new
/// boundary is `keys[m]`, and a duplicate run straddling `m` would put
/// equal keys on both sides of a boundary — the left copies outside
/// their owner's range. `None` when no such index exists (fewer than
/// two keys, or all keys equal), in which case the shard cannot split.
pub fn split_point(keys: &[u64]) -> Option<usize> {
    let n = keys.len();
    if n < 2 {
        return None;
    }
    let mid = n / 2;
    // Scan outward from the middle for the nearest run edge.
    for d in 0..n {
        let lo = mid.checked_sub(d).filter(|&m| m > 0);
        if let Some(m) = lo {
            if keys[m - 1] < keys[m] {
                return Some(m);
            }
        }
        let hi = mid + d;
        if hi > mid && hi < n && keys[hi - 1] < keys[hi] {
            return Some(hi);
        }
        if lo.is_none() && hi >= n {
            break;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_are_balanced_and_cover() {
        for len in [0usize, 1, 2, 7, 10, 100, 101] {
            for shards in [1usize, 2, 3, 7, 16] {
                let o = even_offsets(len, shards);
                assert_eq!(o.len(), shards + 1);
                assert_eq!(o[0], 0);
                assert_eq!(*o.last().unwrap(), len);
                let sizes: Vec<usize> = o.windows(2).map(|w| w[1] - w[0]).collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "len={len} shards={shards} sizes={sizes:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "shards must be > 0")]
    fn zero_shards_panics() {
        even_offsets(10, 0);
    }

    #[test]
    fn boundaries_are_first_keys() {
        let keys: Vec<u64> = (0..10u64).map(|i| i * 5).collect();
        let offsets = even_offsets(keys.len(), 3); // [0, 4, 7, 10]
        assert_eq!(boundaries(&keys, &offsets), vec![keys[4], keys[7]]);
        // Single shard: no boundaries.
        assert_eq!(boundaries(&keys, &even_offsets(keys.len(), 1)), vec![]);
        // Empty keyset, single shard.
        assert_eq!(boundaries(&[], &even_offsets(0, 1)), vec![]);
    }

    /// Ownership routing gives every key exactly one home shard, and
    /// boundary keys belong to the shard that *starts* at them.
    #[test]
    fn owner_routing_sends_boundary_keys_to_the_starting_shard() {
        let bounds = vec![10u64, 20, 30];
        assert_eq!(route_owner_binary(&bounds, 0), 0);
        assert_eq!(route_owner_binary(&bounds, 9), 0);
        assert_eq!(
            route_owner_binary(&bounds, 10),
            1,
            "boundary key owned by the shard starting at it"
        );
        assert_eq!(route_owner_binary(&bounds, 19), 1);
        assert_eq!(route_owner_binary(&bounds, 20), 2);
        assert_eq!(route_owner_binary(&bounds, 30), 3);
        assert_eq!(route_owner_binary(&bounds, u64::MAX), 3);
        assert_eq!(
            route_owner_binary(&[], 42),
            0,
            "single shard owns everything"
        );
    }

    /// The composition argument in the `route_owner_binary` docs,
    /// checked mechanically: partition a keyset by owner, then verify
    /// per-shard contains/rank reconstruct the global answers.
    #[test]
    fn owner_routing_composes_with_per_shard_queries() {
        let keys: Vec<u64> = (0..120u64).map(|i| i * 7 % 256).collect();
        let mut keys = keys;
        keys.sort_unstable();
        keys.dedup();
        let bounds = vec![40u64, 99, 200];
        let shards: Vec<Vec<u64>> = (0..=bounds.len())
            .map(|s| {
                keys.iter()
                    .copied()
                    .filter(|&k| route_owner_binary(&bounds, k) == s)
                    .collect()
            })
            .collect();
        // Partition respects global order: concatenation == original.
        let concat: Vec<u64> = shards.iter().flatten().copied().collect();
        assert_eq!(concat, keys);
        for q in [0u64, 39, 40, 41, 98, 99, 150, 200, 255, u64::MAX] {
            let s = route_owner_binary(&bounds, q);
            let prefix: usize = shards[..s].iter().map(Vec::len).sum();
            let local = shards[s].partition_point(|&k| k < q);
            assert_eq!(prefix + local, keys.partition_point(|&k| k < q), "q={q}");
            assert_eq!(
                shards[s].binary_search(&q).is_ok(),
                keys.binary_search(&q).is_ok(),
                "q={q}"
            );
        }
    }

    #[test]
    fn split_point_is_balanced_and_never_tears_runs() {
        // Unique keys: exact middle.
        let unique: Vec<u64> = (0..10u64).collect();
        assert_eq!(split_point(&unique), Some(5));
        // Odd length: middle-ish.
        assert_eq!(split_point(&[1, 2, 3]), Some(1));
        // A duplicate run across the middle is skipped, not torn.
        let run = vec![1u64, 5, 5, 5, 5, 5, 5, 9];
        let m = split_point(&run).unwrap();
        assert!(m > 0 && m < run.len());
        assert!(run[m - 1] < run[m], "torn run at {m}: {run:?}");
        // Unsplittable: too small or all-equal.
        assert_eq!(split_point(&[]), None);
        assert_eq!(split_point(&[7]), None);
        assert_eq!(split_point(&[7, 7, 7, 7]), None);
        // Splittable only at one edge.
        assert_eq!(split_point(&[1, 9, 9, 9]), Some(1));
        assert_eq!(split_point(&[9, 9, 9, 12]), Some(3));
    }

    /// Splitting at `split_point` yields two non-empty halves whose
    /// boundary key re-routes every key to the correct half.
    #[test]
    fn split_point_halves_agree_with_owner_routing() {
        let keysets: Vec<Vec<u64>> = vec![
            (0..101u64).map(|i| i * 3).collect(),
            vec![0, 1, 1, 2, 2, 2, 3, u64::MAX],
            vec![5, 6],
        ];
        for keys in keysets {
            let m = split_point(&keys).unwrap();
            let boundary = keys[m];
            for (i, &k) in keys.iter().enumerate() {
                let side = usize::from(route_owner_binary(&[boundary], k) == 1);
                assert_eq!(side, usize::from(i >= m), "keys={keys:?} m={m} k={k}");
            }
        }
    }

    /// Routing must place the global lower bound inside the chosen
    /// shard's position range, for unique and duplicate-heavy keysets.
    #[test]
    fn routed_shard_contains_the_global_lower_bound() {
        let keysets: Vec<Vec<u64>> = vec![
            (0..100u64).map(|i| i * 3).collect(),
            vec![7; 50],
            vec![1, 1, 1, 5, 5, 9, 9, 9, 9, 12],
            vec![0, u64::MAX - 1, u64::MAX, u64::MAX],
        ];
        for keys in keysets {
            for shards in [1usize, 2, 3, 7] {
                let offsets = even_offsets(keys.len(), shards);
                let bounds = boundaries(&keys, &offsets);
                let mut probes = vec![0u64, 1, u64::MAX - 1, u64::MAX];
                probes.extend(
                    keys.iter()
                        .flat_map(|&k| [k.saturating_sub(1), k, k.saturating_add(1)]),
                );
                for q in probes {
                    let s = route_binary(&bounds, q);
                    let global = keys.partition_point(|&k| k < q);
                    let local = keys[offsets[s]..offsets[s + 1]].partition_point(|&k| k < q);
                    assert_eq!(
                        offsets[s] + local,
                        global,
                        "keys={keys:?} shards={shards} q={q} -> shard {s}"
                    );
                }
            }
        }
    }
}
