//! The in-memory stores: the null store and the sharded lock-striped
//! LRU.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::{PlanSet, PlanStore, PlanStoreStats, TierStats};

/// An MRU-ordered lane of entries: front is most recently used, the
/// tail is the eviction victim.
type LruLane = Vec<(u64, Arc<PlanSet>)>;

/// Looks up `key` in an MRU-front lane, moving it to the front on hit.
fn lane_get(lane: &mut LruLane, key: u64) -> Option<Arc<PlanSet>> {
    let pos = lane.iter().position(|(k, _)| *k == key)?;
    let entry = lane.remove(pos);
    let value = entry.1.clone();
    lane.insert(0, entry);
    Some(value)
}

/// Inserts or refreshes `key` at the front of an MRU-front lane and
/// returns whether the put grew the lane (false when it replaced an
/// existing entry).
fn lane_put(lane: &mut LruLane, key: u64, value: Arc<PlanSet>) -> bool {
    let grew = match lane.iter().position(|(k, _)| *k == key) {
        Some(pos) => {
            lane.remove(pos);
            false
        }
        None => true,
    };
    lane.insert(0, (key, value));
    grew
}

// ---------------------------------------------------------------------
// none
// ---------------------------------------------------------------------

/// The null store: never hits, never retains, counts nothing. The
/// explicit way to opt a session out of plan reuse entirely.
#[derive(Debug, Default)]
pub struct NoneStore;

impl PlanStore for NoneStore {
    fn name(&self) -> &'static str {
        "none"
    }

    fn spec_string(&self) -> String {
        "none".to_string()
    }

    fn get(&self, _key: u64) -> Option<Arc<PlanSet>> {
        None
    }

    fn put(&self, _key: u64, _value: Arc<PlanSet>) {}

    fn stats(&self) -> PlanStoreStats {
        PlanStoreStats::from_tier(TierStats {
            tier: "none".to_string(),
            ..TierStats::default()
        })
    }
}

// ---------------------------------------------------------------------
// memory:<shards>x<cap>
// ---------------------------------------------------------------------

/// One lock stripe of a [`MemoryStore`].
#[derive(Debug, Default)]
struct MemoryShard {
    lane: Mutex<LruLane>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// Sharded, lock-striped LRU (`memory:<shards>x<cap>`): keys stripe
/// across `shards` independent mutexes, each guarding an LRU lane of
/// up to `cap` entries, so concurrent engines contend only when their
/// keys collide on a stripe.
#[derive(Debug)]
pub struct MemoryStore {
    shards: Vec<MemoryShard>,
    cap: usize,
}

impl MemoryStore {
    /// A store of `shards` stripes holding up to `cap` entries each.
    pub fn new(shards: usize, cap: usize) -> Self {
        MemoryStore {
            shards: (0..shards.max(1)).map(|_| MemoryShard::default()).collect(),
            cap: cap.max(1),
        }
    }

    fn shard(&self, key: u64) -> &MemoryShard {
        &self.shards[(key % self.shards.len() as u64) as usize]
    }
}

impl PlanStore for MemoryStore {
    fn name(&self) -> &'static str {
        "memory"
    }

    fn spec_string(&self) -> String {
        format!("memory:{}x{}", self.shards.len(), self.cap)
    }

    fn get(&self, key: u64) -> Option<Arc<PlanSet>> {
        let shard = self.shard(key);
        let found = lane_get(
            &mut shard.lane.lock().expect("plan store shard poisoned"),
            key,
        );
        match &found {
            Some(_) => shard.hits.fetch_add(1, Ordering::Relaxed),
            None => shard.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    fn put(&self, key: u64, value: Arc<PlanSet>) {
        let shard = self.shard(key);
        let mut lane = shard.lane.lock().expect("plan store shard poisoned");
        if lane_put(&mut lane, key, value) && lane.len() > self.cap {
            lane.pop();
            shard.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn stats(&self) -> PlanStoreStats {
        let mut row = TierStats {
            tier: self.spec_string(),
            ..TierStats::default()
        };
        for shard in &self.shards {
            row.hits += shard.hits.load(Ordering::Relaxed);
            row.misses += shard.misses.load(Ordering::Relaxed);
            row.evictions += shard.evictions.load(Ordering::Relaxed);
            row.entries += shard.lane.lock().expect("plan store shard poisoned").len() as u64;
        }
        PlanStoreStats::from_tier(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::sample_set;

    #[test]
    fn none_store_never_retains() {
        let store = NoneStore;
        store.put(1, sample_set(1));
        assert!(store.get(1).is_none());
        let stats = store.stats();
        assert_eq!(stats.tiers.len(), 1);
        assert_eq!(stats.tiers[0].tier, "none");
        assert_eq!(stats.tiers[0].entries, 0);
    }

    #[test]
    fn lru_evicts_in_recency_order_under_capacity_one() {
        let store = MemoryStore::new(1, 1);
        store.put(1, sample_set(1));
        store.put(2, sample_set(2));
        // Capacity 1: the second put evicts the first.
        assert!(store.get(1).is_none());
        assert!(store.get(2).is_some());
        let stats = store.stats();
        assert_eq!(stats.tiers[0].evictions, 1);
        assert_eq!(stats.tiers[0].entries, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses(), 1);
    }

    #[test]
    fn lru_get_refreshes_recency() {
        let store = MemoryStore::new(1, 2);
        store.put(1, sample_set(1));
        store.put(2, sample_set(2));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(store.get(1).is_some());
        store.put(3, sample_set(3));
        assert!(store.get(2).is_none(), "2 was least recently used");
        assert!(store.get(1).is_some());
        assert!(store.get(3).is_some());
    }

    #[test]
    fn put_of_an_existing_key_replaces_without_eviction() {
        let store = MemoryStore::new(1, 1);
        store.put(1, sample_set(1));
        store.put(1, sample_set(9));
        let stats = store.stats();
        assert_eq!(stats.tiers[0].evictions, 0);
        assert_eq!(stats.tiers[0].entries, 1);
        assert_eq!(store.get(1).unwrap().guard.policy_spec, "skp-exact#9");
    }

    #[test]
    fn memory_store_stripes_keys_across_shards() {
        let store = MemoryStore::new(2, 1);
        // Keys 0 and 1 land on different stripes: both survive cap 1.
        store.put(0, sample_set(0));
        store.put(1, sample_set(1));
        assert!(store.get(0).is_some());
        assert!(store.get(1).is_some());
        assert_eq!(store.stats().tiers[0].entries, 2);
        assert_eq!(store.spec_string(), "memory:2x1");
    }

    /// What `hot:<cap>` builds: one stripe, shared by every thread that
    /// holds the store, so a daemon worker sees what another put.
    #[test]
    fn one_stripe_store_is_shared_across_threads() {
        let store = Arc::new(MemoryStore::new(1, 4));
        store.put(1, sample_set(1));
        let remote = {
            let store = store.clone();
            std::thread::spawn(move || store.get(1).is_some())
                .join()
                .expect("thread runs")
        };
        assert!(remote, "another thread sees the entry");
        assert_eq!(store.stats().hits, 1);
    }
}
