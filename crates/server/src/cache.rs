//! The spec-keyed prebuilt-state cache.
//!
//! Topology construction dominates job setup (a million-node
//! random-regular wiring takes orders of magnitude longer than a small
//! job's trials), and the per-engine derived state — the Walker–Vose
//! alias table over node rates, the dense per-directed-CSR-slot failure
//! edge table — is likewise a pure function of the spec.  The cache
//! builds each once, under a key derived from exactly the spec fields
//! the artifact depends on, and hands out `Arc`s so worker threads
//! share them concurrently.  Sharing cannot change trajectories: the
//! cached values are bit-identical to what a fresh engine would build
//! (pinned by `tests/server_roundtrip.rs`).

use crate::spec::JobSpec;
use plurality_gossip::{FailureModel, GossipEngine, RatedActivation};
use plurality_topology::Topology;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Outcome of one cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lookup {
    /// Whether the artifact was already present.
    pub hit: bool,
    /// Nanoseconds spent building it (0 on a hit).
    pub build_ns: u64,
}

/// Cumulative cache counters (for the `stats` op and the bench report).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that had to build one.
    pub misses: u64,
    /// Total nanoseconds spent building entries.
    pub build_ns: u64,
    /// Entries currently resident (all three maps).
    pub entries: u64,
}

/// Per-edge `(loss, delay)` parameters, one entry per directed CSR slot.
pub type EdgeTable = Arc<[(f64, f64)]>;

/// Shared node-rate state: the rate vector and its alias sampler.
pub struct RatesEntry {
    /// One activation rate per node.
    pub rates: Arc<[f64]>,
    /// The Walker–Vose sampler built over `rates`.
    pub rated: Arc<RatedActivation>,
}

/// Lock one of the cache maps.  A map changes only by one `insert` after
/// a build succeeded, so a build that panicked under the lock left it
/// valid: a poisoned map is used as is, and one bad spec cannot fail
/// every later job.
fn lock<T>(map: &Mutex<T>) -> MutexGuard<'_, T> {
    map.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Spec-keyed cache of prebuilt engine state.
#[derive(Default)]
pub struct StateCache {
    topologies: Mutex<HashMap<String, Arc<dyn Topology>>>,
    rates: Mutex<HashMap<String, Arc<RatesEntry>>>,
    edge_tables: Mutex<HashMap<String, EdgeTable>>,
    hits: AtomicU64,
    misses: AtomicU64,
    build_ns: AtomicU64,
}

impl StateCache {
    /// Empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn note(&self, lookup: Lookup) -> Lookup {
        if lookup.hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.build_ns.fetch_add(lookup.build_ns, Ordering::Relaxed);
        }
        lookup
    }

    /// The topology for `spec`, building (and retaining) it on first
    /// use.  The map lock is held across a build, so concurrent jobs
    /// needing the same key build it exactly once.
    pub fn topology(&self, spec: &JobSpec) -> Result<(Arc<dyn Topology>, Lookup), String> {
        let key = spec.topology_key();
        let mut map = lock(&self.topologies);
        if let Some(t) = map.get(&key) {
            return Ok((
                Arc::clone(t),
                self.note(Lookup {
                    hit: true,
                    build_ns: 0,
                }),
            ));
        }
        let start = Instant::now();
        let built: Arc<dyn Topology> =
            Arc::from(spec.topology_spec()?.build(spec.n as usize, spec.seed)?);
        let build_ns = start.elapsed().as_nanos() as u64;
        map.insert(key, Arc::clone(&built));
        Ok((
            built,
            self.note(Lookup {
                hit: false,
                build_ns,
            }),
        ))
    }

    /// The node-rate vector + alias sampler for `spec`, when it has one.
    pub fn node_rates(&self, spec: &JobSpec) -> Option<(Arc<RatesEntry>, Lookup)> {
        let key = spec.rates_key()?;
        let mut map = lock(&self.rates);
        if let Some(e) = map.get(&key) {
            return Some((
                Arc::clone(e),
                self.note(Lookup {
                    hit: true,
                    build_ns: 0,
                }),
            ));
        }
        let start = Instant::now();
        let fast = spec.fast_nodes();
        let rates: Arc<[f64]> = (0..spec.n as usize)
            .map(|v| if v < fast { spec.fast_rate } else { 1.0 })
            .collect();
        let rated = Arc::new(RatedActivation::new(&rates));
        let entry = Arc::new(RatesEntry { rates, rated });
        let build_ns = start.elapsed().as_nanos() as u64;
        map.insert(key, Arc::clone(&entry));
        Some((
            entry,
            self.note(Lookup {
                hit: false,
                build_ns,
            }),
        ))
    }

    /// The per-edge `(loss, delay)` table for `model` on `spec`'s
    /// topology, when the model needs one (per-edge parameters on a CSR
    /// topology — see [`GossipEngine::build_edge_table`]).
    pub fn edge_table(
        &self,
        spec: &JobSpec,
        model: &FailureModel,
        topology: &dyn Topology,
    ) -> Option<(EdgeTable, Lookup)> {
        let key = spec.edge_table_key(model);
        let mut map = lock(&self.edge_tables);
        if let Some(t) = map.get(&key) {
            return Some((
                Arc::clone(t),
                self.note(Lookup {
                    hit: true,
                    build_ns: 0,
                }),
            ));
        }
        let start = Instant::now();
        let table: EdgeTable = Arc::from(GossipEngine::build_edge_table(model, topology)?);
        let build_ns = start.elapsed().as_nanos() as u64;
        map.insert(key, Arc::clone(&table));
        Some((
            table,
            self.note(Lookup {
                hit: false,
                build_ns,
            }),
        ))
    }

    /// Cumulative counters.
    pub fn stats(&self) -> CacheStats {
        let entries =
            lock(&self.topologies).len() + lock(&self.rates).len() + lock(&self.edge_tables).len();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            build_ns: self.build_ns.load(Ordering::Relaxed),
            entries: entries as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_lookups_hit_and_share() {
        let cache = StateCache::new();
        let spec = JobSpec {
            topology: "random-regular".into(),
            n: 200,
            degree: 4,
            ..JobSpec::default()
        };
        let (a, first) = cache.topology(&spec).unwrap();
        assert!(!first.hit);
        let (b, second) = cache.topology(&spec).unwrap();
        assert!(second.hit);
        assert_eq!(second.build_ns, 0);
        assert!(Arc::ptr_eq(&a, &b), "warm lookup must share the same graph");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));

        let mut other_seed = spec.clone();
        other_seed.seed = 77;
        let (_, third) = cache.topology(&other_seed).unwrap();
        assert!(!third.hit, "random-regular wiring depends on the seed");
    }

    #[test]
    fn a_panic_under_the_lock_leaves_the_cache_usable() {
        let cache = StateCache::new();
        // Poison the map as a build panicking under the lock would.  No
        // job spec reaches a panicking builder, so panic here directly.
        let poisoned = std::panic::catch_unwind(|| {
            let _map = cache.topologies.lock().expect("fresh lock");
            panic!("a build panicked under the lock");
        });
        assert!(poisoned.is_err());
        assert!(cache.topologies.is_poisoned());
        let empty = JobSpec {
            n: 0,
            ..JobSpec::default()
        };
        assert!(
            cache.topology(&empty).is_err(),
            "a zero-node clique is an Err"
        );
        let (_, lookup) = cache.topology(&JobSpec::default()).unwrap();
        assert!(!lookup.hit);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn rates_cache_matches_cli_layout() {
        let cache = StateCache::new();
        let spec = JobSpec {
            n: 100,
            fast_frac: 0.25,
            fast_rate: 8.0,
            ..JobSpec::default()
        };
        let (entry, l) = cache.node_rates(&spec).unwrap();
        assert!(!l.hit);
        assert_eq!(entry.rates.len(), 100);
        assert_eq!(entry.rates[24], 8.0);
        assert_eq!(entry.rates[25], 1.0);
        assert!(cache.node_rates(&JobSpec::default()).is_none());
    }
}
