//! Plan store: cross-run, cross-client caching of solved per-state
//! prefetch plans behind a pluggable KV seam.
//!
//! A population run solves one prefetch plan per Markov state; the
//! registry policies are pure functions of the scenario, so the
//! `(policy spec, chain, catalog)` triple fully determines every plan.
//! [`population_plan_key`] folds that triple into a 64-bit FNV-1a
//! content key, and a [`PlanStore`] maps the key to the solved
//! [`PlanSet`] — across runs, across engines, and (with the `file:`
//! store) across process restarts.
//!
//! This crate holds the store types; the facade's registry builds them
//! from string specs (`speculative_prefetch::build_plan_store`):
//!
//! | spec | store |
//! |------|-------|
//! | `none` | the null store: never hits, never retains |
//! | `memory:<shards>x<cap>` | sharded, lock-striped LRU (cap per shard) |
//! | `hot:<cap>` | shorthand for `memory:1x<cap>` |
//! | `file:<dir>` | persistent one-file-per-key store, bit-exact across restarts |
//!
//! ```
//! use planstore::{MemoryStore, PlanGuard, PlanSet, PlanStore};
//! use std::sync::Arc;
//!
//! // The store `memory:2x64` builds.
//! let store = MemoryStore::new(2, 64);
//! let set = Arc::new(PlanSet {
//!     plans: vec![Some(vec![0, 2]), None],
//!     guard: PlanGuard { policy_spec: "skp-exact".into(), catalog: vec![3.0, 5.0] },
//! });
//! store.put(7, set.clone());
//! assert_eq!(store.get(7).as_deref(), Some(&*set));
//! assert_eq!(store.stats().hits, 1);
//! assert_eq!(store.spec_string(), "memory:2x64");
//! ```
//!
//! Because the key is a non-cryptographic 64-bit hash, stored values
//! carry a [`PlanGuard`] echo of the inputs they were solved from;
//! consumers verify the guard on every hit ([`PlanSet::matches`])
//! before trusting the entry, so a key collision or a corrupted file
//! degrades to a miss, never to a wrong plan.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod file;
mod tiers;

pub use file::FileStore;
pub use tiers::{MemoryStore, NoneStore};

use std::sync::Arc;

use access_model::MarkovChain;

/// Echo of the inputs a [`PlanSet`] was solved from, stored alongside
/// the plans. [`population_plan_key`] is a non-cryptographic 64-bit
/// hash, so a hit is only trusted after the guard is re-checked
/// against the live inputs ([`PlanSet::matches`]): collisions and
/// on-disk corruption degrade to misses.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanGuard {
    /// Registry spec of the policy that solved the plans.
    pub policy_spec: String,
    /// The catalog slice the scenarios were built from (compared
    /// bit-for-bit, so the `file:` tier must round-trip `f64`s
    /// exactly).
    pub catalog: Vec<f64>,
}

/// One store value: the solved per-state plans of a population
/// (`None` for states never visited, so never solved) plus the
/// [`PlanGuard`] echo they are valid for.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSet {
    /// Per-state plans, indexed by Markov state.
    pub plans: Vec<Option<Vec<usize>>>,
    /// Input echo verified on every hit.
    pub guard: PlanGuard,
}

impl PlanSet {
    /// Number of states with a solved plan.
    pub fn solved(&self) -> usize {
        self.plans.iter().filter(|p| p.is_some()).count()
    }

    /// Whether this set was solved from exactly these inputs: the
    /// guard's policy spec matches and the catalog is bit-identical.
    pub fn matches(&self, policy_spec: &str, catalog: &[f64]) -> bool {
        self.guard.policy_spec == policy_spec
            && self.guard.catalog.len() == catalog.len()
            && self
                .guard
                .catalog
                .iter()
                .zip(catalog)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

/// Counters of one tier of a store. Every store reports exactly one
/// row.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TierStats {
    /// The tier's canonical spec string (e.g. `memory:8x1024`).
    pub tier: String,
    /// Lookups answered by this tier.
    pub hits: u64,
    /// Lookups this tier could not answer.
    pub misses: u64,
    /// Entries evicted to respect the tier's capacity.
    pub evictions: u64,
    /// Values currently resident in the tier.
    pub entries: u64,
}

/// Store-wide counters: aggregate lookups/hits plus the per-tier
/// breakdown. Snapshot into every `RunReport`; cheap to clone.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanStoreStats {
    /// Total [`PlanStore::get`] calls.
    pub lookups: u64,
    /// Lookups answered by any tier.
    pub hits: u64,
    /// Per-tier counter rows.
    pub tiers: Vec<TierStats>,
}

impl PlanStoreStats {
    /// Lookups no tier could answer.
    pub fn misses(&self) -> u64 {
        self.lookups - self.hits
    }

    /// Fraction of lookups answered (`0.0` when there were none).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }

    /// Stats of a single-tier store: the aggregate view is the tier's
    /// own row.
    pub fn from_tier(tier: TierStats) -> Self {
        PlanStoreStats {
            lookups: tier.hits + tier.misses,
            hits: tier.hits,
            tiers: vec![tier],
        }
    }
}

/// A key-value store of solved population plans, content-addressed by
/// [`population_plan_key`]. Implementations use interior mutability:
/// `get`/`put` take `&self` so one store can be shared across engines
/// and worker threads behind an `Arc`.
///
/// The contract mirrors a read-through cache, not a database: `put`
/// is best-effort (a full or failing store may drop the value), `get`
/// must never fabricate — a corrupt or mismatched entry is a miss.
/// Values travel as `Arc<PlanSet>` so a hit never copies the plans.
pub trait PlanStore: Send + Sync {
    /// The registry name of this store kind (e.g. `"memory"`).
    fn name(&self) -> &'static str;

    /// Canonical spec string (reparses to an equivalent store through
    /// the facade's plan-store registry).
    fn spec_string(&self) -> String;

    /// Looks up a plan set by content key.
    fn get(&self, key: u64) -> Option<Arc<PlanSet>>;

    /// Stores a plan set under a content key (best-effort).
    fn put(&self, key: u64, value: Arc<PlanSet>);

    /// Snapshot of the store's counters.
    fn stats(&self) -> PlanStoreStats;
}

/// FNV-1a over the population inputs that determine every per-state
/// plan: the policy spec, the chain's viewing times and transition
/// rows, and the catalog slice the scenarios are built from.
///
/// Custom policies installed as instances (rather than registry
/// specs) have no spec to key on and an unknowable purity, so they
/// bypass the store entirely — the caller simply has no key to offer.
pub fn population_plan_key(spec: &str, chain: &MarkovChain, retrievals: &[f64]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(PRIME);
        }
    };
    eat(spec.as_bytes());
    let n = chain.n_states();
    eat(&(n as u64).to_le_bytes());
    for i in 0..n {
        eat(&chain.viewing(i).to_bits().to_le_bytes());
        for &(j, p) in chain.successors(i) {
            eat(&(j as u64).to_le_bytes());
            eat(&p.to_bits().to_le_bytes());
        }
    }
    for &r in &retrievals[..n.min(retrievals.len())] {
        eat(&r.to_bits().to_le_bytes());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_set(tag: u64) -> Arc<PlanSet> {
        Arc::new(PlanSet {
            plans: vec![Some(vec![tag as usize, 2]), None, Some(vec![])],
            guard: PlanGuard {
                policy_spec: format!("skp-exact#{tag}"),
                catalog: vec![3.5, 0.1 + 0.2, 1.0 / 3.0],
            },
        })
    }

    #[test]
    fn guard_matching_is_bitwise_on_the_catalog() {
        let set = sample_set(1);
        assert!(set.matches("skp-exact#1", &[3.5, 0.1 + 0.2, 1.0 / 3.0]));
        // 0.3 is not bit-identical to 0.1 + 0.2: the guard must notice.
        assert!(!set.matches("skp-exact#1", &[3.5, 0.3, 1.0 / 3.0]));
        assert!(!set.matches("skp-exact#2", &[3.5, 0.1 + 0.2, 1.0 / 3.0]));
        assert!(!set.matches("skp-exact#1", &[3.5, 0.1 + 0.2]));
        assert_eq!(set.solved(), 2);
    }

    #[test]
    fn stats_helpers_cover_the_empty_store() {
        let empty = PlanStoreStats::default();
        assert_eq!(empty.misses(), 0);
        assert_eq!(empty.hit_rate(), 0.0);
        let one = PlanStoreStats::from_tier(TierStats {
            tier: "memory:1x8".into(),
            hits: 3,
            misses: 1,
            ..TierStats::default()
        });
        assert_eq!(one.lookups, 4);
        assert_eq!(one.misses(), 1);
        assert!((one.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn content_key_separates_every_input() {
        let chain = MarkovChain::random(6, 2, 4, 5, 20, 3).unwrap();
        let other = MarkovChain::random(6, 2, 4, 5, 20, 4).unwrap();
        let cat: Vec<f64> = (0..6).map(|i| 2.0 + i as f64).collect();
        let base = population_plan_key("skp-exact", &chain, &cat);
        assert_eq!(base, population_plan_key("skp-exact", &chain, &cat));
        assert_ne!(base, population_plan_key("greedy", &chain, &cat));
        assert_ne!(base, population_plan_key("skp-exact", &other, &cat));
        let mut bumped = cat.clone();
        bumped[5] += 1e-9;
        assert_ne!(base, population_plan_key("skp-exact", &chain, &bumped));
    }
}
