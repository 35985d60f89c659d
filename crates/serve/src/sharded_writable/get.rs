//! Lock-free gets: the thread-local cache of the published topology
//! and each shard's immutable tiers, and the locked fallback.

use std::cell::RefCell;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::writable::CachedTiers;

use super::{ShardedWritable, Topology};

/// One thread's get cache: the topology of the store it last read, and a
/// copy of each of that topology's shards' immutable tiers.
struct GetCache {
    store: u64,
    generation: u64,
    topo: Arc<Topology>,
    shards: Vec<CachedTiers>,
}

impl GetCache {
    fn new(store: u64, topo: &Arc<Topology>) -> Self {
        Self {
            store,
            generation: topo.generation,
            topo: Arc::clone(topo),
            shards: topo.shards.iter().map(|_| CachedTiers::empty()).collect(),
        }
    }

    /// Whether this entry describes `store` at topology `generation`.
    fn describes(&self, store: u64, generation: u64) -> bool {
        self.store == store && self.generation == generation
    }
}

thread_local! {
    /// One entry per thread: a thread that alternates between stores
    /// re-reads each under its locks, and stays exact.
    static GET_CACHE: RefCell<Option<GetCache>> = const { RefCell::new(None) };
}

impl ShardedWritable {
    /// Whether `key` currently exists (owner-shard probe).
    ///
    /// Takes no lock on its common path: the calling thread's cache holds
    /// the published topology and its copy of each shard's base and runs,
    /// checked against `published` and the shard's `gen`, and the shard's
    /// buffer filter rules the key out of the buffer (see
    /// [`crate::writable`]). Otherwise — a stale cache, a possibly
    /// buffered key, a re-entrant call or a thread being torn down — it
    /// answers under the topology and shard read locks and refreshes the
    /// cache under them.
    pub fn contains(&self, key: u64) -> bool {
        GET_CACHE
            .try_with(|cell| match cell.try_borrow_mut() {
                Ok(mut slot) => self.contains_cached(key, &mut slot),
                Err(_) => self.contains_locked(key, None),
            })
            .unwrap_or_else(|_| self.contains_locked(key, None))
    }

    /// [`ShardedWritable::contains`] with the thread's cache borrowed.
    #[inline]
    fn contains_cached(&self, key: u64, slot: &mut Option<GetCache>) -> bool {
        if let Some(cache) = slot.as_ref() {
            if cache.describes(self.id, self.published.load(Ordering::Acquire)) {
                let s = cache.topo.router.route_owner(key);
                if let Some(found) = cache.topo.shards[s].contains_cached(key, &cache.shards[s]) {
                    return found;
                }
            }
        }
        self.contains_locked(key, Some(slot))
    }

    /// The locked get: route and probe under the topology and shard read
    /// locks, refreshing `slot` (when there is one) under them.
    #[cold]
    fn contains_locked(&self, key: u64, slot: Option<&mut Option<GetCache>>) -> bool {
        self.obs.locked_gets.incr();
        let topo = self.topo_guard();
        let s = topo.router.route_owner(key);
        let Some(slot) = slot else {
            return topo.shards[s].contains(key);
        };
        let current = slot
            .as_ref()
            .is_some_and(|c| c.describes(self.id, topo.generation));
        if !current {
            *slot = None;
        }
        let cache = slot.get_or_insert_with(|| GetCache::new(self.id, &topo));
        let (found, refreshed) = topo.shards[s].contains_refreshing(key, &mut cache.shards[s]);
        if refreshed || !current {
            self.obs.cache_refreshes.incr();
        }
        found
    }
}

impl Drop for ShardedWritable {
    /// Clear the dropping thread's get-cache entry if it is this
    /// store's, so the store's tiers are freed now rather than at the
    /// thread's next get. Other threads release theirs at their next get.
    fn drop(&mut self) {
        let _ = GET_CACHE.try_with(|cell| {
            if let Ok(mut slot) = cell.try_borrow_mut() {
                if slot.as_ref().is_some_and(|c| c.store == self.id) {
                    *slot = None;
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded_writable::tests::small_cfg;

    /// The calling thread's get-cache entry: (store id, topology
    /// generation), if it has one.
    fn cache_entry() -> Option<(u64, u64)> {
        GET_CACHE.with(|c| c.borrow().as_ref().map(|e| (e.store, e.generation)))
    }

    fn counter(sw: &ShardedWritable, name: &str) -> u64 {
        sw.metrics().counter(name).unwrap_or(0)
    }

    #[test]
    fn dropping_a_store_clears_this_threads_get_cache_entry() {
        let a = ShardedWritable::new((0..100u64).collect::<Vec<_>>(), 2, small_cfg());
        let b = ShardedWritable::new((0..100u64).collect::<Vec<_>>(), 2, small_cfg());
        assert!(a.contains(5));
        assert_eq!(cache_entry(), Some((a.id, 0)));
        // Dropping another store leaves this entry alone.
        drop(b);
        assert_eq!(cache_entry(), Some((a.id, 0)));
        drop(a);
        assert_eq!(cache_entry(), None, "the dropped store's tiers stay cached");
    }

    #[test]
    fn lock_free_gets_count_nothing_and_stale_caches_refresh() {
        let data: Vec<u64> = (0..400u64).map(|i| i * 4).collect();
        let sw = ShardedWritable::new(data.clone(), 4, small_cfg());
        for &k in &data {
            assert!(sw.contains(k));
        }
        let locked = counter(&sw, "li_locked_gets_total");
        assert!(
            locked <= 4,
            "one locked get per shard warms the cache, got {locked}"
        );
        for &k in &data {
            assert!(sw.contains(k) && !sw.contains(k + 1));
        }
        let refreshes = counter(&sw, "li_get_cache_refreshes_total");
        let false_positives = counter(&sw, "li_locked_gets_total") - locked;
        assert_eq!(
            false_positives, 0,
            "warm gets of unbuffered keys take no lock"
        );
        // A buffered key takes the lock; a seal moves it to a run and
        // the next get refreshes that shard's tiers, then goes lock-free.
        assert!(sw.insert(2));
        assert!(sw.contains(2));
        assert_eq!(counter(&sw, "li_locked_gets_total"), locked + 1);
        for k in 0..8u64 {
            sw.insert(k * 4 + 1);
        }
        assert!(sw.contains(2) && sw.contains(1));
        assert!(counter(&sw, "li_get_cache_refreshes_total") > refreshes);
        let settled = counter(&sw, "li_locked_gets_total");
        assert!(sw.contains(2) && sw.contains(data[0]));
        assert_eq!(counter(&sw, "li_locked_gets_total"), settled);
    }

    #[test]
    fn a_thread_alternating_between_two_stores_stays_exact() {
        let evens: Vec<u64> = (0..300u64).map(|i| i * 2).collect();
        let odds: Vec<u64> = (0..300u64).map(|i| i * 2 + 1).collect();
        let a = ShardedWritable::new(evens, 3, small_cfg());
        let b = ShardedWritable::new(odds, 3, small_cfg());
        for round in 0..3u64 {
            for k in 0..600u64 {
                assert_eq!(a.contains(k), k % 2 == 0, "round {round} a k={k}");
                assert_eq!(b.contains(k), k % 2 == 1, "round {round} b k={k}");
            }
            // Seals, folds and splits between the rounds.
            for i in 0..200u64 {
                a.insert(1000 + round * 1000 + i * 2);
                b.insert(1000 + round * 1000 + i * 2 + 1);
            }
            for i in 0..200u64 {
                let k = 1000 + round * 1000 + i * 2;
                assert!(a.contains(k) && !b.contains(k), "round {round} k={k}");
                assert!(
                    b.contains(k + 1) && !a.contains(k + 1),
                    "round {round} k={}",
                    k + 1
                );
            }
        }
        assert!(a.splits() >= 1 && b.splits() >= 1);
    }

    #[test]
    fn a_reentrant_get_takes_the_locked_path() {
        let sw = ShardedWritable::new((0..100u64).collect::<Vec<_>>(), 2, small_cfg());
        assert!(sw.contains(7));
        let locked = counter(&sw, "li_locked_gets_total");
        let refreshes = counter(&sw, "li_get_cache_refreshes_total");
        GET_CACHE.with(|c| {
            let _held = c.borrow_mut();
            assert!(sw.contains(7));
            assert!(!sw.contains(1000));
        });
        assert_eq!(counter(&sw, "li_locked_gets_total"), locked + 2);
        assert_eq!(counter(&sw, "li_get_cache_refreshes_total"), refreshes);
    }
}
