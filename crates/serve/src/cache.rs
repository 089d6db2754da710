//! A sharded LRU cache for decision responses.
//!
//! Decisions are pure functions of the request, so the service caches the
//! *rendered response body* keyed by the request's canonical JSON (see
//! `DecisionRequest::canonical_key` — key order and omitted defaults never
//! split a cache line, while any semantic change, including a different
//! `ClusterHealth`, lands on a different key). The server's key is an
//! [`espresso::ContentKey`] over that text: lookups hash its FNV-1a 64
//! fingerprint and then compare the full text, so two requests whose
//! texts collide under FNV — which a client can arrange on purpose — are
//! two entries, never each other's answer. The cache is split into
//! independently locked shards so concurrent workers rarely contend;
//! eviction within a shard is exact least-recently-used.

use std::borrow::Borrow;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash};
use std::sync::{Arc, Mutex};

/// 64-bit FNV-1a: a stable, dependency-free hash for cache keys. Unlike
/// `DefaultHasher` it is identical across processes and releases, so keys
/// can be logged, compared, and tested deterministically. The
/// implementation lives in `espresso-json` (the checkpoint layer shares
/// it); re-exported here so existing users keep their import path.
pub use espresso_json::fnv1a64;

/// Aggregated counters across all shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Live entries right now.
    pub entries: usize,
}

impl CacheStats {
    /// Fraction of lookups that hit, in `[0, 1]` (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    value: Arc<Vec<u8>>,
    last_used: u64,
}

struct Shard<K> {
    entries: HashMap<K, Entry>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// The sharded LRU cache. Entries are found by `K`'s hash and confirmed
/// by `K`'s equality, so a key type that hashes a digest but compares the
/// full text (as the server's does) turns a digest collision into a miss.
pub struct ShardedLru<K = u64> {
    shards: Vec<Mutex<Shard<K>>>,
    per_shard_capacity: usize,
}

impl<K: Hash + Eq + Clone> ShardedLru<K> {
    /// A cache holding about `capacity` entries across `shards` shards
    /// (both clamped to at least 1).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let per_shard_capacity = (capacity.max(1)).div_ceil(shards);
        let shard = || Shard { entries: HashMap::new(), tick: 0, hits: 0, misses: 0, evictions: 0 };
        let shards = (0..shards).map(|_| Mutex::new(shard())).collect();
        Self { shards, per_shard_capacity }
    }

    /// Which shard a key lives in: a fixed-seed SipHash of the key, so
    /// keys whose digests' low bits correlate still spread.
    pub fn shard_of(&self, key: &K) -> usize {
        let hash = BuildHasherDefault::<DefaultHasher>::default().hash_one(key);
        (hash % self.shards.len() as u64) as usize
    }

    fn shard(&self, key: &K) -> std::sync::MutexGuard<'_, Shard<K>> {
        let idx = self.shard_of(key);
        self.shards[idx].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks up `key`, bumping its recency on a hit.
    pub fn get(&self, key: impl Borrow<K>) -> Option<Arc<Vec<u8>>> {
        let key = key.borrow();
        let mut shard = self.shard(key);
        shard.tick += 1;
        let tick = shard.tick;
        match shard.entries.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                let value = Arc::clone(&entry.value);
                shard.hits += 1;
                Some(value)
            }
            None => {
                shard.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) `key`, evicting the shard's least recently
    /// used entry if it is full.
    pub fn insert(&self, key: K, value: Arc<Vec<u8>>) {
        let capacity = self.per_shard_capacity;
        let mut shard = self.shard(&key);
        shard.tick += 1;
        let tick = shard.tick;
        if let Some(entry) = shard.entries.get_mut(&key) {
            entry.value = value;
            entry.last_used = tick;
            return;
        }
        if shard.entries.len() >= capacity {
            // Exact LRU via a full scan: shards are small (capacity /
            // shard count), so this stays cheap and needs no intrusive
            // list.
            if let Some(lru) = shard
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                shard.entries.remove(&lru);
                shard.evictions += 1;
            }
        }
        shard.entries.insert(
            key,
            Entry {
                value,
                last_used: tick,
            },
        );
    }

    /// Counters summed over every shard.
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats::default();
        for shard in &self.shards {
            let shard = shard.lock().unwrap_or_else(|e| e.into_inner());
            stats.hits += shard.hits;
            stats.misses += shard.misses;
            stats.evictions += shard.evictions;
            stats.entries += shard.entries.len();
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn val(s: &str) -> Arc<Vec<u8>> {
        Arc::new(s.as_bytes().to_vec())
    }

    #[test]
    fn eviction_follows_recency_order() {
        // Single shard so the whole capacity is one LRU domain.
        let cache: ShardedLru = ShardedLru::new(3, 1);
        cache.insert(1, val("a"));
        cache.insert(2, val("b"));
        cache.insert(3, val("c"));
        // Touch 1 so 2 becomes the least recently used.
        assert!(cache.get(1).is_some());
        cache.insert(4, val("d"));
        assert!(cache.get(2).is_none(), "2 was LRU and must be evicted");
        assert!(cache.get(1).is_some());
        assert!(cache.get(3).is_some());
        assert!(cache.get(4).is_some());
        // Next eviction removes 1? No: recency is now 2 < 3 < 4 ... with 1
        // touched before 3; inserting 5 must evict 1 (oldest touch).
        cache.insert(5, val("e"));
        assert!(cache.get(1).is_none(), "1 was LRU after the later touches");
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn reinserting_refreshes_instead_of_evicting() {
        let cache: ShardedLru = ShardedLru::new(2, 1);
        cache.insert(1, val("a"));
        cache.insert(2, val("b"));
        cache.insert(1, val("a2"));
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(&*cache.get(1).unwrap(), b"a2");
        assert!(cache.get(2).is_some(), "refresh must not evict");
    }

    #[test]
    fn hit_and_miss_accounting() {
        let cache: ShardedLru = ShardedLru::new(8, 2);
        assert!(cache.get(7).is_none());
        cache.insert(7, val("x"));
        assert!(cache.get(7).is_some());
        assert!(cache.get(7).is_some());
        assert!(cache.get(8).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 2));
        assert_eq!(stats.entries, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn keys_spread_across_shards() {
        let cache: ShardedLru = ShardedLru::new(1024, 8);
        let mut per_shard = [0usize; 8];
        for i in 0..1000 {
            let key = fnv1a64(format!("request-{i}").as_bytes());
            per_shard[cache.shard_of(&key)] += 1;
        }
        for (i, count) in per_shard.iter().enumerate() {
            assert!(*count > 0, "shard {i} never used");
            assert!(*count < 500, "shard {i} got {count} of 1000 keys");
        }
    }

    /// Two distinct request texts forced onto one hash: the second must
    /// miss rather than be served the first one's body.
    #[test]
    fn a_hash_collision_is_a_miss_not_a_cross_served_body() {
        use std::hash::Hasher;
        #[derive(Clone, PartialEq, Eq)]
        struct Forced(&'static str);
        impl Hash for Forced {
            fn hash<H: Hasher>(&self, state: &mut H) {
                state.write_u64(0xdead_beef);
            }
        }
        let cache = ShardedLru::new(8, 2);
        cache.insert(Forced("request a"), val("a"));
        assert!(cache.get(Forced("request b")).is_none());
        cache.insert(Forced("request b"), val("b"));
        assert_eq!(&*cache.get(Forced("request a")).unwrap(), b"a");
        assert_eq!(&*cache.get(Forced("request b")).unwrap(), b"b");
        assert_eq!(cache.stats().entries, 2);

        // The server's key type behaves the same way: its hash is the
        // text's FNV-1a fingerprint, its equality the whole text.
        let cache = ShardedLru::new(8, 2);
        let a = espresso::ContentKey::from_bytes(b"request a".to_vec());
        cache.insert(a.clone(), val("a"));
        assert!(cache.get(espresso::ContentKey::from_bytes(b"request b".to_vec())).is_none());
        assert_eq!(&*cache.get(&a).unwrap(), b"a");
    }

    #[test]
    fn fnv_is_stable_and_input_sensitive() {
        // Pinned value: the key must never change across releases, or
        // every deployed cache would silently cold-start.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
        assert_ne!(fnv1a64(b"ab"), fnv1a64(b"ba"));
    }
}
