//! The sharded LRU hull cache.
//!
//! Keys are fully structural — machine parameters by exact bits,
//! condition by quantized fingerprint — so equal keys mean "the model
//! would build the identical hull". Shards are independently locked
//! `HashMap`s with a per-shard LRU tick; a warm [`HullCache::get`] is
//! one hash, one short critical section, one `Arc` clone.

use crate::hull::PlanHull;
use mce_model::{ConditionFingerprint, MachineParams};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Multiply-rotate hasher in the rustc-hash mold. The cache probes on
/// every warm query, keys are a handful of machine-word writes (the
/// condition contributes only its precomputed digest), and SipHash's
/// DoS resistance buys nothing against keys the process itself builds
/// — so a two-instruction mix per word is the right trade.
#[derive(Default)]
struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A [`MachineParams`] reduced to a hashable identity: every float by
/// its exact IEEE-754 bits plus the two discrete knobs. The
/// human-readable `name` is deliberately excluded — two differently
/// labelled but identically timed machines share hulls.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MachineKey {
    lambda: u64,
    lambda_zero: u64,
    tau: u64,
    delta: u64,
    rho: u64,
    barrier_per_dim: u64,
    pairwise_sync: bool,
    unforced_threshold: usize,
}

impl MachineKey {
    /// The identity of `p`.
    pub fn of(p: &MachineParams) -> MachineKey {
        MachineKey {
            lambda: p.lambda.to_bits(),
            lambda_zero: p.lambda_zero.to_bits(),
            tau: p.tau.to_bits(),
            delta: p.delta.to_bits(),
            rho: p.rho.to_bits(),
            barrier_per_dim: p.barrier_per_dim.to_bits(),
            pairwise_sync: p.pairwise_sync,
            unforced_threshold: p.unforced_threshold,
        }
    }
}

/// Full cache key: one hull per `(machine, d, switching, condition
/// fingerprint)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Machine identity.
    pub machine: MachineKey,
    /// Cube dimension.
    pub d: u32,
    /// Store-and-forward pricing (circuit otherwise).
    pub saf: bool,
    /// Quantized condition.
    pub fingerprint: ConditionFingerprint,
}

struct Entry {
    hull: Arc<PlanHull>,
    last_used: u64,
}

struct Shard {
    map: HashMap<CacheKey, Entry, FxBuildHasher>,
    tick: u64,
}

/// Sharded LRU map from [`CacheKey`] to precomputed [`PlanHull`]s.
pub struct HullCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    evictions: AtomicU64,
}

impl HullCache {
    /// `shards` independently locked shards of `per_shard_capacity`
    /// hulls each (both clamped to ≥ 1).
    pub fn new(shards: usize, per_shard_capacity: usize) -> HullCache {
        let shards = shards.max(1);
        HullCache {
            shards: (0..shards)
                .map(|_| Mutex::new(Shard { map: HashMap::default(), tick: 0 }))
                .collect(),
            per_shard_capacity: per_shard_capacity.max(1),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<Shard> {
        let mut h = FxHasher::default();
        key.hash(&mut h);
        // Rotate so shard choice and in-map bucket use different bits.
        &self.shards[(h.finish().rotate_left(17) % self.shards.len() as u64) as usize]
    }

    /// Lock a shard, recovering it if a thread panicked while holding
    /// it. A shard is consistent between any two statements of the
    /// critical sections below (at worst one entry over capacity, which
    /// the next insert evicts), so a poisoned shard keeps serving
    /// instead of panicking every later query that hashes to it.
    fn lock(shard: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
        shard.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Fetch the hull for `key`, bumping its recency.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<PlanHull>> {
        let mut shard = Self::lock(self.shard(key));
        shard.tick += 1;
        let tick = shard.tick;
        shard.map.get_mut(key).map(|e| {
            e.last_used = tick;
            Arc::clone(&e.hull)
        })
    }

    /// Insert a hull, evicting the shard's least-recently-used entry
    /// when over capacity. Concurrent builders of the same key both
    /// insert; last write wins (the hulls are identical — keys are
    /// structural — so this only wastes the duplicate build).
    pub fn insert(&self, key: CacheKey, hull: Arc<PlanHull>) {
        let mut shard = Self::lock(self.shard(&key));
        shard.tick += 1;
        let tick = shard.tick;
        shard.map.insert(key, Entry { hull, last_used: tick });
        if shard.map.len() > self.per_shard_capacity {
            // O(shard) victim scan: capacities are tens of entries and
            // evictions only happen on (rare, expensive) builds.
            if let Some(victim) =
                shard.map.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k.clone())
            {
                shard.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Total cached hulls across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| Self::lock(s).map.len()).sum()
    }

    /// Whether no hull is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Evictions since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Poison every shard: a thread takes each lock and panics.
    #[cfg(test)]
    pub(crate) fn poison_shards(&self) {
        for shard in &self.shards {
            let poisoner = std::thread::scope(|s| {
                s.spawn(|| {
                    let _held = shard.lock();
                    panic!("poisoning a cache shard on purpose");
                })
                .join()
            });
            assert!(poisoner.is_err() && shard.is_poisoned());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mce_model::ConditionSummary;
    use mce_simnet::config::SwitchingMode;

    fn key(d: u32, level: u32) -> CacheKey {
        let mut cond = ConditionSummary::noop(d);
        for _ in 0..level {
            cond.add_stream((1 << d) - 1, 314.0, 600.0);
        }
        CacheKey {
            machine: MachineKey::of(&MachineParams::ipsc860()),
            d,
            saf: false,
            fingerprint: cond.fingerprint(),
        }
    }

    fn hull(d: u32) -> Arc<PlanHull> {
        Arc::new(PlanHull::build(
            &MachineParams::ipsc860(),
            SwitchingMode::Circuit,
            d,
            &ConditionSummary::noop(d),
        ))
    }

    #[test]
    fn machine_key_ignores_name_only() {
        let a = MachineParams::ipsc860();
        let mut renamed = a.clone();
        renamed.name = "same silicon, new sticker".into();
        assert_eq!(MachineKey::of(&a), MachineKey::of(&renamed));
        let mut slower = a.clone();
        slower.tau += 0.001;
        assert_ne!(MachineKey::of(&a), MachineKey::of(&slower));
    }

    #[test]
    fn lru_evicts_the_stalest_key() {
        let cache = HullCache::new(1, 2);
        let h = hull(4);
        cache.insert(key(4, 0), Arc::clone(&h));
        cache.insert(key(4, 1), Arc::clone(&h));
        // Touch the first key so the second is the LRU victim.
        assert!(cache.get(&key(4, 0)).is_some());
        cache.insert(key(4, 2), Arc::clone(&h));
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key(4, 0)).is_some(), "recently used survives");
        assert!(cache.get(&key(4, 1)).is_none(), "LRU evicted");
        assert!(cache.get(&key(4, 2)).is_some());
    }
}
