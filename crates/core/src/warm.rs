//! The planner's selection memo: one content-addressed store.
//!
//! A nominal selection is a pure function of the [`Job`]; a robust one of
//! `(job, health, faults)`. [`WarmStartCache`] keys completed selections
//! ([`Strategy`] + [`Report`], or a [`RobustSelection`]) by exactly those
//! inputs and replays them on a match, byte-identical to a cold plan by
//! construction. Per-request results (fault replays, a re-plan's
//! `changed`) are recomputed by the caller; the [`Report`]'s wall-clock
//! fields are outside the equality contract. A [`crate::Planner`] owns
//! the memo and fixes the one `SimConfig`, so keys do not cover it.
//!
//! **Key format.** A [`ContentKey`] is a canonical byte encoding plus its
//! FNV-1a 64 fingerprint. The encoding is a kind tag; for robust keys the
//! state of both fabrics and the fault spec text; then the job: cluster
//! and links, algorithm, per-tensor plan, batch size, forward time and
//! each tensor's `(elems, compute_time)`. Integers are little-endian
//! `u64`s, floats their `to_bits` (`+0.0` and `-0.0` differ), and every
//! variable-length part is length-prefixed, so the encoding is injective.
//! Names and the model kind are labels no planner stage reads; leaving
//! them out keeps a ResNet101 key near 5 KB, not 31 KB of debug text.
//!
//! **Exhaustive destructuring.** The encoder names every field of `Job`,
//! `ModelProfile`, `TensorProfile`, `Cluster`, `Link` and `ClusterHealth`
//! (no `..`) and every variant of `GcAlgorithm` and `LinkState`: a field
//! added later fails to compile here instead of aliasing two jobs.
//!
//! **Full-key verification.** A lookup hashes the fingerprint, then
//! compares the whole encoding: a collision is a miss, never wrong bytes.
//!
//! `ESPRESSO_WARM_STARTS=0` disables the memo: it stores and returns
//! nothing, so every plan is cold.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use espresso_cluster::{Cluster, ClusterHealth, Link, LinkState};
use espresso_gc::GcAlgorithm;
use espresso_json::fnv1a64;
use espresso_models::{ModelProfile, TensorProfile};
use espresso_sim::Job;
use espresso_strategy::Strategy;

use crate::espresso::Report;
use crate::robust::RobustSelection;

/// A content-addressed key: a canonical byte encoding and its FNV-1a 64
/// fingerprint. [`Hash`] feeds the fingerprint only; equality compares
/// the full encoding, so two keys whose fingerprints collide stay two
/// keys. The decision server keys its body cache by the same type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContentKey {
    fingerprint: u64,
    bytes: Box<[u8]>,
}

impl Hash for ContentKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.fingerprint);
    }
}

impl ContentKey {
    /// The key of `bytes`, which must already be a canonical encoding.
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        Self {
            fingerprint: fnv1a64(&bytes),
            bytes: bytes.into_boxed_slice(),
        }
    }
}

/// The kind tags that open every memo key.
const NOMINAL: u8 = 0;
const ROBUST: u8 = 1;

/// Appends the canonical encoding of planner inputs to a byte buffer.
struct Encoder(Vec<u8>);

impl Encoder {
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// A variant tag and its payload word, fixed width so the encoding
    /// stays injective.
    fn variant(&mut self, tag: u8, word: u64) {
        self.0.push(tag);
        self.u64(word);
    }

    fn health(&mut self, health: &ClusterHealth) {
        let ClusterHealth { intra, inter } = health;
        for state in [intra, inter] {
            match *state {
                LinkState::Nominal => self.variant(0, 0),
                LinkState::Degraded { factor } => self.variant(1, factor.to_bits()),
                LinkState::Down => self.variant(2, 0),
            }
        }
    }

    fn algo(&mut self, algo: &GcAlgorithm) {
        match *algo {
            GcAlgorithm::RandomK { density } => self.variant(0, density.to_bits()),
            GcAlgorithm::Dgc { density } => self.variant(1, density.to_bits()),
            GcAlgorithm::EfSignSgd => self.variant(2, 0),
            GcAlgorithm::Qsgd { levels } => self.variant(3, u64::from(levels)),
            GcAlgorithm::TernGrad => self.variant(4, 0),
            GcAlgorithm::Fp16 => self.variant(5, 0),
            GcAlgorithm::Natural => self.variant(6, 0),
        }
    }

    /// The job, cluster first: it differs between most jobs of one model.
    fn job(&mut self, job: &Job) {
        let Job { model, cluster, algo, tensor_algos } = job;
        let Cluster { machines, gpus_per_machine, intra, inter, staging_shares_intra } = *cluster;
        for word in [machines as u64, gpus_per_machine as u64, u64::from(staging_shares_intra)] {
            self.u64(word);
        }
        for Link { bandwidth, alpha } in [intra, inter] {
            self.u64(bandwidth.to_bits());
            self.u64(alpha.to_bits());
        }
        self.algo(algo);
        let plan = tensor_algos.as_deref().unwrap_or_default();
        self.variant(u8::from(tensor_algos.is_some()), plan.len() as u64);
        for a in plan {
            self.algo(a);
        }
        // `name` and `kind` label the profile; no planner stage reads them.
        let ModelProfile { name: _, kind: _, batch_size, forward_time, tensors } = model;
        self.u64(*batch_size as u64);
        self.u64(forward_time.to_bits());
        self.u64(tensors.len() as u64);
        for TensorProfile { name: _, elems, compute_time } in tensors {
            self.u64(*elems as u64);
            self.u64(compute_time.to_bits());
        }
    }
}

/// One cached selection artifact.
#[derive(Debug, Clone)]
enum WarmEntry {
    /// A completed nominal Espresso selection.
    Nominal(Arc<(Strategy, Report)>),
    /// A completed robust selection.
    Robust(Arc<RobustSelection>),
}

/// One shard: the entries, each stamped with its insertion tick for
/// first-in-first-out eviction.
#[derive(Debug, Default)]
struct Shard {
    entries: HashMap<ContentKey, (u64, WarmEntry)>,
    tick: u64,
}

/// A sharded, capacity-bounded memo of completed planner selections,
/// shared across requests and threads. See the module docs for the key
/// format and the soundness argument.
#[derive(Debug)]
pub struct WarmStartCache {
    shards: Vec<Mutex<Shard>>,
    per_shard: usize,
    enabled: bool,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl WarmStartCache {
    /// A memo holding at most `capacity` selections across `shards`
    /// shards (both clamped to at least 1), enabled unless
    /// `ESPRESSO_WARM_STARTS=0` is set in the environment at construction
    /// time.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let enabled = std::env::var("ESPRESSO_WARM_STARTS").map_or(true, |v| v != "0");
        Self::with_enabled(capacity, shards, enabled)
    }

    /// As [`WarmStartCache::new`] with the enable switch pinned — the
    /// audit layer and the cold oracle use this to fix the regime
    /// regardless of the environment.
    pub fn with_enabled(capacity: usize, shards: usize, enabled: bool) -> Self {
        let shards = shards.clamp(1, capacity.max(1));
        let per_shard = capacity.max(1).div_ceil(shards);
        Self {
            shards: (0..shards).map(|_| Mutex::default()).collect(),
            per_shard,
            enabled,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The key of `job`'s nominal selection.
    pub fn nominal_key(job: &Job) -> ContentKey {
        let mut e = Encoder(Vec::with_capacity(128 + 16 * job.model.tensors.len()));
        e.variant(NOMINAL, 0);
        e.job(job);
        ContentKey::from_bytes(e.0)
    }

    /// The key of the robust selection for `(job, health, faults)`.
    /// `faults` is the *spec text* of the fault plan (seeded parsing is
    /// deterministic, so the spec determines the plan).
    pub fn robust_key(job: &Job, health: &ClusterHealth, faults: Option<&str>) -> ContentKey {
        let spec = faults.unwrap_or_default();
        let mut e = Encoder(Vec::with_capacity(160 + spec.len() + 16 * job.model.tensors.len()));
        e.variant(ROBUST, 0);
        e.health(health);
        e.variant(u8::from(faults.is_some()), spec.len() as u64);
        e.0.extend_from_slice(spec.as_bytes());
        e.job(job);
        ContentKey::from_bytes(e.0)
    }

    fn shard(&self, key: &ContentKey) -> MutexGuard<'_, Shard> {
        let shard = &self.shards[(key.fingerprint % self.shards.len() as u64) as usize];
        shard.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn get(&self, key: &ContentKey) -> Option<WarmEntry> {
        if !self.enabled {
            return None;
        }
        let found = self.shard(key).entries.get(key).map(|(_, e)| e.clone());
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    fn insert(&self, key: ContentKey, entry: WarmEntry) {
        if !self.enabled {
            return;
        }
        let mut shard = self.shard(&key);
        if shard.entries.contains_key(&key) {
            return; // A racing planner stored the identical artifact.
        }
        if shard.entries.len() >= self.per_shard {
            // FIFO: evict the shard's oldest entry. Shards are small, so
            // a scan beats keeping a second ordered index.
            let oldest = shard.entries.values().map(|(tick, _)| *tick).min();
            shard.entries.retain(|_, (tick, _)| Some(*tick) != oldest);
        }
        shard.tick += 1;
        let tick = shard.tick;
        shard.entries.insert(key, (tick, entry));
    }

    /// The cached nominal selection under `key`, if present.
    pub fn get_nominal(&self, key: &ContentKey) -> Option<Arc<(Strategy, Report)>> {
        let WarmEntry::Nominal(sel) = self.get(key)? else { return None };
        Some(sel)
    }

    /// Stores a completed nominal selection under `key`.
    pub fn insert_nominal(&self, key: ContentKey, selection: (Strategy, Report)) {
        self.insert(key, WarmEntry::Nominal(Arc::new(selection)));
    }

    /// The cached robust selection under `key`, if present.
    pub fn get_robust(&self, key: &ContentKey) -> Option<Arc<RobustSelection>> {
        let WarmEntry::Robust(sel) = self.get(key)? else { return None };
        Some(sel)
    }

    /// Stores a completed robust selection under `key`.
    pub fn insert_robust(&self, key: ContentKey, selection: RobustSelection) {
        self.insert(key, WarmEntry::Robust(Arc::new(selection)));
    }

    /// Lookups answered from the memo so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that fell through to a cold plan so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::espresso::Espresso;
    use espresso_models::Model;

    fn small_job() -> Job {
        Job::new(
            Model::Lstm.profile(),
            Cluster::pcie_25g(2, 4),
            GcAlgorithm::EfSignSgd,
        )
    }

    fn len(cache: &WarmStartCache) -> usize {
        cache.shards.iter().map(|s| s.lock().unwrap().entries.len()).sum()
    }

    /// A distinct nominal key per `i`: the batch size is part of the key.
    fn key(i: usize) -> ContentKey {
        let mut job = small_job();
        job.model.batch_size = i;
        WarmStartCache::nominal_key(&job)
    }

    #[test]
    fn nominal_hits_replay_the_stored_selection() {
        let cache = WarmStartCache::with_enabled(8, 2, true);
        let key = WarmStartCache::nominal_key(&small_job());
        assert!(cache.get_nominal(&key).is_none());
        let cold = Espresso::new(small_job()).select_strategy();
        cache.insert_nominal(key.clone(), cold.clone());
        let warm = cache.get_nominal(&key).expect("stored entry must hit");
        assert_eq!(warm.0, cold.0);
        assert_eq!(warm.1.iteration_time, cold.1.iteration_time);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn keys_separate_health_faults_and_entry_kinds() {
        let job = small_job();
        let nominal = WarmStartCache::nominal_key(&job);
        let degraded = WarmStartCache::robust_key(
            &job,
            &ClusterHealth::inter_degraded(2.0),
            None,
        );
        let degraded_more = WarmStartCache::robust_key(
            &job,
            &ClusterHealth::inter_degraded(3.0),
            None,
        );
        let faulted = WarmStartCache::robust_key(
            &job,
            &ClusterHealth::inter_degraded(2.0),
            Some("seed=7"),
        );
        let keys = [&nominal, &degraded, &degraded_more, &faulted];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
        }
        // A nominal entry never answers a robust lookup of the same key
        // (and vice versa) even if the keys were to collide.
        let cache = WarmStartCache::with_enabled(8, 1, true);
        let cold = Espresso::new(small_job()).select_strategy();
        cache.insert_nominal(degraded.clone(), cold);
        assert!(cache.get_robust(&degraded).is_none());
    }

    #[test]
    fn a_fingerprint_collision_is_a_miss_not_a_wrong_answer() {
        let cache = WarmStartCache::with_enabled(8, 1, true);
        let stored = key(1);
        cache.insert_nominal(stored.clone(), Espresso::new(small_job()).select_strategy());
        // Same fingerprint, different encoding: what an FNV collision
        // between two jobs would look like.
        let forged = ContentKey {
            fingerprint: stored.fingerprint,
            bytes: key(2).bytes,
        };
        assert_ne!(forged, stored);
        assert!(cache.get_nominal(&forged).is_none());
        assert!(cache.get_nominal(&stored).is_some());
    }

    #[test]
    fn capacity_bounds_hold_with_fifo_eviction() {
        let cache = WarmStartCache::with_enabled(4, 1, true);
        let cold = Espresso::new(small_job()).select_strategy();
        for i in 0..10 {
            cache.insert_nominal(key(i), cold.clone());
        }
        assert_eq!(len(&cache), 4);
        assert!(cache.get_nominal(&key(0)).is_none(), "oldest entries evicted");
        assert!(cache.get_nominal(&key(9)).is_some(), "newest entries kept");
    }

    #[test]
    fn disabled_cache_never_stores_or_hits() {
        let cache = WarmStartCache::with_enabled(8, 2, false);
        let cold = Espresso::new(small_job()).select_strategy();
        cache.insert_nominal(key(0), cold);
        assert!(cache.get_nominal(&key(0)).is_none());
        assert_eq!(len(&cache), 0);
        assert_eq!(cache.hits() + cache.misses(), 0);
    }
}
