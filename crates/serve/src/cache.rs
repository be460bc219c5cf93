//! The LRU behind both result caches: partition results under
//! [`CacheKey`], session repartition steps under `(base_fp, chain_fp)`.
//!
//! A [`CacheKey`] is `(input fingerprint, method, parts, ranks, seed)` — everything
//! that determines the partitioner's output bit-for-bit (the simulated
//! rank count participates because recursive bisection splits rank groups,
//! which changes sub-bisection seeds' machines and hence results). A hit
//! returns the exact `Arc` stored at insert time, so repeated identical
//! requests receive bit-identical labels without re-running anything.
//!
//! Recency is tracked with a monotone stamp per entry; eviction scans for
//! the minimum stamp. That is O(capacity) per insert-when-full, which is
//! deliberate: capacities are small (default 64, entries are whole label
//! vectors), and the scan is branch-predictable — simpler and cheaper at
//! this scale than an intrusive list.

use scalapart::Method;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// Everything that determines a job's output bit-for-bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// [`fingerprint_input`](crate::fingerprint::fingerprint_input) of the
    /// graph and any request coordinates.
    pub input: u64,
    pub method: Method,
    pub parts: usize,
    pub ranks: usize,
    pub seed: u64,
}

pub struct LruCache<K, V> {
    capacity: usize,
    stamp: u64,
    map: HashMap<K, (u64, Arc<V>)>,
}

impl<K: Copy + Eq + Hash, V> LruCache<K, V> {
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            stamp: 0,
            map: HashMap::with_capacity(capacity.min(1024)),
        }
    }

    /// Look up and refresh recency.
    pub fn get(&mut self, key: &K) -> Option<Arc<V>> {
        self.stamp += 1;
        let stamp = self.stamp;
        self.map.get_mut(key).map(|(s, v)| {
            *s = stamp;
            v.clone()
        })
    }

    /// Insert (or refresh) an entry, evicting the least recently used
    /// entry if the cache is full. Returns the evicted key, if any, so
    /// the caller can count evictions. A zero-capacity cache stores
    /// nothing (and evicts nothing).
    pub fn insert(&mut self, key: K, value: Arc<V>) -> Option<K> {
        if self.capacity == 0 {
            return None;
        }
        self.stamp += 1;
        let mut evicted = None;
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, (s, _))| *s)
                .map(|(k, _)| *k)
            {
                self.map.remove(&oldest);
                evicted = Some(oldest);
            }
        }
        self.map.insert(key, (self.stamp, value));
        evicted
    }

    /// Up to `limit` entries, hottest (most recently used) first — the
    /// donor side of cache warming streams these to a joining shard.
    /// Does not touch recency stamps.
    pub fn dump(&self, limit: usize) -> Vec<(K, Arc<V>)> {
        let mut entries: Vec<(u64, K, Arc<V>)> = self
            .map
            .iter()
            .map(|(k, (s, v))| (*s, *k, v.clone()))
            .collect();
        entries.sort_by_key(|e| std::cmp::Reverse(e.0));
        entries.truncate(limit);
        entries.into_iter().map(|(_, k, v)| (k, v)).collect()
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(input: u64, seed: u64) -> CacheKey {
        CacheKey {
            input,
            method: Method::ScalaPart,
            parts: 4,
            ranks: 8,
            seed,
        }
    }

    #[test]
    fn hit_returns_the_stored_arc() {
        let mut c: LruCache<CacheKey, Vec<u32>> = LruCache::new(4);
        let v = Arc::new(vec![1, 2, 3]);
        c.insert(key(1, 0), v.clone());
        let got = c.get(&key(1, 0)).unwrap();
        assert!(
            Arc::ptr_eq(&got, &v),
            "hit must be bit-identical (same allocation)"
        );
        assert!(c.get(&key(2, 0)).is_none());
        assert!(c.get(&key(1, 1)).is_none(), "seed is part of the key");
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c: LruCache<CacheKey, u32> = LruCache::new(2);
        assert_eq!(c.insert(key(1, 0), Arc::new(10)), None);
        assert_eq!(c.insert(key(2, 0), Arc::new(20)), None);
        c.get(&key(1, 0)); // refresh 1 → 2 is now oldest
        let evicted = c.insert(key(3, 0), Arc::new(30));
        assert_eq!(evicted, Some(key(2, 0)), "eviction is reported");
        assert!(c.get(&key(1, 0)).is_some());
        assert!(c.get(&key(2, 0)).is_none(), "LRU entry evicted");
        assert!(c.get(&key(3, 0)).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinsert_refreshes_without_growth() {
        let mut c: LruCache<CacheKey, u32> = LruCache::new(2);
        c.insert(key(1, 0), Arc::new(10));
        c.insert(key(1, 0), Arc::new(11));
        assert_eq!(c.len(), 1);
        assert_eq!(*c.get(&key(1, 0)).unwrap(), 11);
        let z: LruCache<CacheKey, u32> = {
            let mut z = LruCache::new(0);
            z.insert(key(1, 0), Arc::new(1));
            z
        };
        assert!(z.is_empty());
    }

    #[test]
    fn dump_returns_hottest_first_without_touching_recency() {
        let mut c: LruCache<CacheKey, u32> = LruCache::new(8);
        c.insert(key(1, 0), Arc::new(1));
        c.insert(key(2, 0), Arc::new(2));
        c.insert(key(3, 0), Arc::new(3));
        c.get(&key(1, 0)); // 1 is now hottest
        let d = c.dump(2);
        assert_eq!(d.len(), 2);
        assert_eq!((d[0].0, *d[0].1), (key(1, 0), 1));
        assert_eq!((d[1].0, *d[1].1), (key(3, 0), 3));
        assert_eq!(c.dump(100).len(), 3, "limit caps, never pads");
        // dump() is read-only: 2 is still the LRU entry.
        c.insert(key(4, 0), Arc::new(4));
        c.insert(key(5, 0), Arc::new(5));
        assert!(c.get(&key(2, 0)).is_some(), "capacity 8: nothing evicted");
    }

    #[test]
    fn distinct_methods_and_parts_are_distinct_entries() {
        let mut c: LruCache<CacheKey, u32> = LruCache::new(8);
        let base = key(7, 3);
        c.insert(base, Arc::new(1));
        c.insert(
            CacheKey {
                method: Method::Rcb,
                ..base
            },
            Arc::new(2),
        );
        c.insert(CacheKey { parts: 8, ..base }, Arc::new(3));
        c.insert(CacheKey { ranks: 16, ..base }, Arc::new(4));
        assert_eq!(c.len(), 4);
    }
}
