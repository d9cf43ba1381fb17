//! Memoized view cache (paper §VI: views are re-requested constantly as
//! the user flips between top-down / bottom-up / flat or re-opens a
//! tab, usually over the *same* profile).
//!
//! The cache maps a [`view_key`] — an [`FxHasher`] chain over the
//! profile's structural fingerprint, the metric, and the transform
//! chain descriptor — to an `Arc`'d computed view. It is LRU-bounded,
//! coalesces identical in-flight requests, and counts hits, misses and
//! coalesces so the CLI (`easyview stats`) and the EVP server can
//! surface cache effectiveness.
//!
//! Keys hash profile *content* (tree shape, frames and their strings,
//! metadata, metric schema, links and values), so neither a mutated
//! profile nor another profile with the same shape aliases a stale
//! entry; the fingerprint walk is linear and orders of magnitude
//! cheaper than the layouts it memoizes.

use ev_core::fast_hash::FxHasher;
use ev_core::{MetricId, Profile};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

/// Cached handles for the global `cache.*` counters. Per-instance
/// [`CacheStats`] stay authoritative for a single cache; these feed the
/// process-wide metrics registry behind `easyview stats`.
fn hit_counter() -> &'static ev_trace::Counter {
    static HANDLE: OnceLock<&'static ev_trace::Counter> = OnceLock::new();
    HANDLE.get_or_init(|| ev_trace::counter("cache.hit"))
}

fn miss_counter() -> &'static ev_trace::Counter {
    static HANDLE: OnceLock<&'static ev_trace::Counter> = OnceLock::new();
    HANDLE.get_or_init(|| ev_trace::counter("cache.miss"))
}

fn evict_counter() -> &'static ev_trace::Counter {
    static HANDLE: OnceLock<&'static ev_trace::Counter> = OnceLock::new();
    HANDLE.get_or_init(|| ev_trace::counter("cache.evict"))
}

fn coalesced_counter() -> &'static ev_trace::Counter {
    static HANDLE: OnceLock<&'static ev_trace::Counter> = OnceLock::new();
    HANDLE.get_or_init(|| ev_trace::counter("cache.coalesced"))
}

fn fingerprint_counter() -> &'static ev_trace::Counter {
    static HANDLE: OnceLock<&'static ev_trace::Counter> = OnceLock::new();
    HANDLE.get_or_init(|| ev_trace::counter("cache.fingerprint"))
}

/// Default number of memoized views kept per cache.
pub const DEFAULT_CACHE_CAPACITY: usize = 32;

/// Hit/miss/coalesce counters and occupancy of a [`ViewCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that computed a new view.
    pub misses: u64,
    /// Lookups that waited on an identical in-flight computation.
    pub coalesced: u64,
    /// Entries currently resident.
    pub len: usize,
    /// Maximum resident entries.
    pub capacity: usize,
}

struct Entry<V> {
    value: Arc<V>,
    last_used: u64,
}

/// The cache's state behind its one mutex: an LRU-bounded memo table,
/// the gates of its in-flight computations, and its counters. Eviction
/// scans for the least-recently-used entry — linear, but a cache holds
/// only a few dozen views.
struct Lru<V> {
    entries: HashMap<u64, Entry<V>, BuildHasherDefault<FxHasher>>,
    pending: HashMap<u64, Arc<Gate<V>>, BuildHasherDefault<FxHasher>>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    coalesced: u64,
}

impl<V> Lru<V> {
    /// Returns the view under `key` if resident, refreshing its LRU
    /// position and recording a hit. A `None` records nothing — the
    /// caller decides whether the lookup becomes a miss or is
    /// coalesced onto an in-flight computation.
    fn lookup(&mut self, key: u64) -> Option<Arc<V>> {
        self.tick += 1;
        let entry = self.entries.get_mut(&key)?;
        entry.last_used = self.tick;
        self.hits += 1;
        hit_counter().inc();
        Some(Arc::clone(&entry.value))
    }

    /// Inserts `value` under `key` as the most recently used entry,
    /// evicting the least-recently-used one when full.
    fn insert(&mut self, key: u64, value: Arc<V>) {
        self.tick += 1;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            if let Some(&oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k)
            {
                self.entries.remove(&oldest);
                evict_counter().inc();
            }
        }
        self.entries.insert(
            key,
            Entry {
                value,
                last_used: self.tick,
            },
        );
    }
}

/// What happened to an in-flight computation, as seen by coalesced
/// waiters parked on its gate.
enum GateState<V> {
    /// The owner is still computing.
    Waiting,
    /// The owner finished; the shared result.
    Ready(Arc<V>),
    /// The owner's build panicked; waiters recompute for themselves.
    Failed,
}

/// A rendezvous for one in-flight computation: the first requester of a
/// missing key installs a gate, later requesters of the same key wait
/// on it instead of recomputing.
struct Gate<V> {
    state: Mutex<GateState<V>>,
    ready: Condvar,
}

/// Removes the gate and marks it failed if the owner's build unwinds,
/// so coalesced waiters recompute instead of blocking forever.
struct GateGuard<'a, V> {
    shared: &'a ViewCache<V>,
    key: u64,
    gate: &'a Arc<Gate<V>>,
    armed: bool,
}

impl<V> Drop for GateGuard<'_, V> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        self.shared.lock().pending.remove(&self.key);
        *self.gate.state.lock().unwrap() = GateState::Failed;
        self.gate.ready.notify_all();
    }
}

/// An LRU-bounded memo table from [`view_key`]s to computed views, with
/// request coalescing.
///
/// Values are returned as `Arc<V>` so callers can hold a view while the
/// cache evicts it. Looks up and inserts through `&self`, so one
/// instance can sit in front of the expensive view computations of a
/// server shared by many threads. One mutex guards the table, and
/// `capacity` bounds it as a whole; the lock is held only to look up,
/// insert or count, never while a view is built, so a slow layout
/// never blocks other keys.
///
/// Identical in-flight requests coalesce: the first requester of a
/// missing key installs a *gate* and computes; later requesters of the
/// same key park on the gate and share the `Arc`'d result when it
/// lands (counted by `cache.coalesced` and [`CacheStats::coalesced`]).
/// If the owning build panics, the gate is marked failed and each
/// waiter recomputes for itself — coalescing is an optimization, never
/// a correctness dependency.
pub struct ViewCache<V> {
    lru: Mutex<Lru<V>>,
}

impl<V> ViewCache<V> {
    /// A cache holding at most `capacity` views (at least one).
    pub fn new(capacity: usize) -> ViewCache<V> {
        ViewCache {
            lru: Mutex::new(Lru {
                entries: HashMap::default(),
                pending: HashMap::default(),
                capacity: capacity.max(1),
                tick: 0,
                hits: 0,
                misses: 0,
                coalesced: 0,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Lru<V>> {
        self.lru.lock().unwrap()
    }

    /// Returns the view under `key`, computing it with `build` on a
    /// miss. Concurrent requests for the same key while the build is in
    /// flight wait for it and share the result instead of recomputing.
    pub fn get_or_insert_with(&self, key: u64, build: impl FnOnce() -> V) -> Arc<V> {
        let gate = {
            let mut lru = self.lock();
            if let Some(value) = lru.lookup(key) {
                return value;
            }
            if let Some(gate) = lru.pending.get(&key).cloned() {
                // Join the in-flight computation. Counted *before*
                // parking so tests (and the CI smoke) can
                // deterministically release an owner that waits for a
                // waiter to arrive.
                lru.coalesced += 1;
                coalesced_counter().inc();
                gate
            } else {
                lru.misses += 1;
                miss_counter().inc();
                let gate = Arc::new(Gate {
                    state: Mutex::new(GateState::Waiting),
                    ready: Condvar::new(),
                });
                lru.pending.insert(key, Arc::clone(&gate));
                drop(lru);
                return self.build_and_publish(key, &gate, build);
            }
        };
        let mut state = gate.state.lock().unwrap();
        loop {
            match &*state {
                GateState::Waiting => state = gate.ready.wait(state).unwrap(),
                GateState::Ready(value) => return Arc::clone(value),
                GateState::Failed => {
                    // The owner panicked; compute for ourselves without
                    // re-gating (the value is still cached for later
                    // requests).
                    drop(state);
                    let value = Arc::new(build());
                    self.lock().insert(key, Arc::clone(&value));
                    return value;
                }
            }
        }
    }

    /// Runs `build` (no locks held), publishes the result to the cache
    /// and to waiters parked on `gate`.
    fn build_and_publish(&self, key: u64, gate: &Arc<Gate<V>>, build: impl FnOnce() -> V) -> Arc<V> {
        let mut guard = GateGuard {
            shared: self,
            key,
            gate,
            armed: true,
        };
        let value = Arc::new(build());
        guard.armed = false;
        let mut lru = self.lock();
        lru.insert(key, Arc::clone(&value));
        lru.pending.remove(&key);
        drop(lru);
        *gate.state.lock().unwrap() = GateState::Ready(Arc::clone(&value));
        gate.ready.notify_all();
        value
    }

    /// Hit/miss/coalesce counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        let lru = self.lock();
        CacheStats {
            hits: lru.hits,
            misses: lru.misses,
            coalesced: lru.coalesced,
            len: lru.entries.len(),
            capacity: lru.capacity,
        }
    }

    /// Drops every resident entry (counters are kept; in-flight
    /// computations still publish).
    pub fn clear(&self) {
        self.lock().entries.clear();
    }
}

impl<V> Default for ViewCache<V> {
    fn default() -> ViewCache<V> {
        ViewCache::new(DEFAULT_CACHE_CAPACITY)
    }
}

impl<V> fmt::Debug for ViewCache<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        f.debug_struct("ViewCache")
            .field("len", &stats.len)
            .field("capacity", &stats.capacity)
            .finish()
    }
}

/// A content fingerprint of a profile: everything a cached view can
/// print. That is the tree shape, the frames and the strings they name
/// (the string table in id order), the profile's name and profiler,
/// the metric schema with units, the links, and every stored value.
/// Two profiles with the same content fingerprint alike; any mutation
/// (new sample, renamed metric, added node) changes it. Each call bumps
/// the `cache.fingerprint` counter: the sweep is linear in the profile,
/// so a caller holding a fingerprint per profile version should never
/// need to repeat it.
pub fn profile_fingerprint(profile: &Profile) -> u64 {
    fingerprint_counter().inc();
    let mut h = FxHasher::default();
    profile.meta().name.hash(&mut h);
    profile.meta().profiler.hash(&mut h);
    profile.strings().len().hash(&mut h);
    for s in profile.strings().iter() {
        s.hash(&mut h);
    }
    profile.node_count().hash(&mut h);
    for m in profile.metrics() {
        m.name.hash(&mut h);
        m.unit.hash(&mut h);
        (m.kind as u8).hash(&mut h);
    }
    for id in profile.node_ids() {
        let node = profile.node(id);
        let f = node.frame();
        (f.kind as u8).hash(&mut h);
        f.name.index().hash(&mut h);
        f.module.index().hash(&mut h);
        f.file.index().hash(&mut h);
        f.line.hash(&mut h);
        f.address.hash(&mut h);
        node.parent().map(|p| p.index()).hash(&mut h);
        for (metric, value) in node.values() {
            metric.index().hash(&mut h);
            value.to_bits().hash(&mut h);
        }
    }
    profile.links().len().hash(&mut h);
    for link in profile.links() {
        link.kind().hash(&mut h);
        link.endpoints().len().hash(&mut h);
        for node in link.endpoints() {
            node.index().hash(&mut h);
        }
        link.values().len().hash(&mut h);
        for (metric, value) in link.values() {
            metric.index().hash(&mut h);
            value.to_bits().hash(&mut h);
        }
    }
    h.finish()
}

/// The cache key for a view request: the profile fingerprint chained
/// with the metric and an ordered transform-chain descriptor (e.g.
/// `["bottom_up", "flame"]` or `["prune:0.01", "top_down"]`).
pub fn view_key(profile: &Profile, metric: MetricId, transforms: &[&str]) -> u64 {
    fingerprint_view_key(profile_fingerprint(profile), metric, transforms)
}

/// [`view_key`] for a profile whose [`profile_fingerprint`] is already
/// known — the form for callers that fingerprint each profile version
/// once and key many requests with it.
pub fn fingerprint_view_key(fingerprint: u64, metric: MetricId, transforms: &[&str]) -> u64 {
    let mut h = FxHasher::default();
    fingerprint.hash(&mut h);
    metric.index().hash(&mut h);
    transforms.len().hash(&mut h);
    for t in transforms {
        t.hash(&mut h);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_core::{Frame, MetricDescriptor, MetricKind, MetricUnit};
    use std::sync::atomic::{AtomicBool, Ordering};

    fn profile(v: f64) -> Profile {
        let mut p = Profile::new("t");
        let m = p.add_metric(MetricDescriptor::new(
            "cpu",
            MetricUnit::Count,
            MetricKind::Exclusive,
        ));
        p.add_sample(&[Frame::function("main"), Frame::function("f")], &[(m, v)]);
        p
    }

    #[test]
    fn repeated_requests_hit() {
        let p = profile(5.0);
        let m = p.metric_by_name("cpu").unwrap();
        let cache: ViewCache<usize> = ViewCache::new(8);
        let key = view_key(&p, m, &["top_down"]);
        let a = cache.get_or_insert_with(key, || 41);
        let b = cache.get_or_insert_with(key, || 42);
        assert_eq!(*a, 41);
        assert_eq!(*b, 41, "second request served from cache");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (1, 1, 1));
    }

    #[test]
    fn different_transform_chain_misses() {
        let p = profile(5.0);
        let m = p.metric_by_name("cpu").unwrap();
        assert_ne!(
            view_key(&p, m, &["top_down"]),
            view_key(&p, m, &["bottom_up"])
        );
        assert_ne!(view_key(&p, m, &["a", "b"]), view_key(&p, m, &["ab"]));
    }

    #[test]
    fn mutated_profile_changes_fingerprint() {
        let p1 = profile(5.0);
        let p2 = profile(6.0);
        assert_ne!(profile_fingerprint(&p1), profile_fingerprint(&p2));
        let mut p3 = profile(5.0);
        assert_eq!(profile_fingerprint(&p1), profile_fingerprint(&p3));
        let m = p3.metric_by_name("cpu").unwrap();
        p3.add_sample(&[Frame::function("g")], &[(m, 1.0)]);
        assert_ne!(profile_fingerprint(&p1), profile_fingerprint(&p3));
    }

    #[test]
    fn lru_evicts_oldest() {
        let cache: ViewCache<u64> = ViewCache::new(2);
        cache.get_or_insert_with(1, || 1);
        cache.get_or_insert_with(9, || 2);
        cache.get_or_insert_with(1, || 99); // touch 1 so 9 is LRU
        cache.get_or_insert_with(17, || 3); // evicts 9
        assert_eq!(cache.stats().len, 2);
        let v = cache.get_or_insert_with(1, || 11);
        assert_eq!(*v, 1, "1 survived");
        let v = cache.get_or_insert_with(9, || 22);
        assert_eq!(*v, 22, "9 was evicted and rebuilt");
    }

    #[test]
    fn registry_counters_track_cache_activity() {
        // Counters are process-global and monotone, so assert on deltas
        // with >= (other tests in this binary may bump them too).
        let hits = ev_trace::counter_value("cache.hit");
        let misses = ev_trace::counter_value("cache.miss");
        let evicts = ev_trace::counter_value("cache.evict");
        let cache: ViewCache<u64> = ViewCache::new(1);
        cache.get_or_insert_with(10, || 1); // miss
        cache.get_or_insert_with(10, || 1); // hit
        cache.get_or_insert_with(18, || 2); // miss + evict
        assert!(ev_trace::counter_value("cache.hit") > hits);
        assert!(ev_trace::counter_value("cache.miss") >= misses + 2);
        assert!(ev_trace::counter_value("cache.evict") > evicts);
    }

    #[test]
    fn arc_keeps_evicted_views_alive() {
        let cache: ViewCache<String> = ViewCache::new(1);
        let held = cache.get_or_insert_with(1, || "kept".to_owned());
        cache.get_or_insert_with(9, || "evictor".to_owned());
        assert_eq!(held.as_str(), "kept");
    }

    #[test]
    fn shared_cache_hits_and_misses_like_the_plain_one() {
        let cache: ViewCache<u64> = ViewCache::new(16);
        let a = cache.get_or_insert_with(1, || 41);
        let b = cache.get_or_insert_with(1, || 42);
        assert_eq!((*a, *b), (41, 41), "second request served from cache");
        cache.get_or_insert_with(2, || 2);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (1, 2, 2));
        assert_eq!(stats.coalesced, 0);
        cache.clear();
        assert_eq!(cache.stats().len, 0);
    }

    #[test]
    fn shared_cache_coalesces_identical_inflight_requests() {
        let cache: ViewCache<u64> = ViewCache::new(16);
        let building = AtomicBool::new(false);
        let (cache, building) = (&cache, &building);
        let value = std::thread::scope(|s| {
            let owner = s.spawn(move || {
                cache.get_or_insert_with(7, || {
                    // Deterministic overlap: the waiter starts only once
                    // this build is in flight, and the build stays open
                    // until the waiter has registered as coalesced.
                    // Waiters bump the counter *before* parking, so this
                    // terminates.
                    building.store(true, Ordering::SeqCst);
                    while cache.stats().coalesced == 0 {
                        std::thread::yield_now();
                    }
                    77
                })
            });
            let waiter = s.spawn(move || {
                while !building.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                cache.get_or_insert_with(7, || panic!("waiter must coalesce, not recompute"))
            });
            let a = owner.join().unwrap();
            let b = waiter.join().unwrap();
            assert!(Arc::ptr_eq(&a, &b), "one shared result");
            *a
        });
        assert_eq!(value, 77);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "computed once");
        assert_eq!(stats.coalesced, 1);
        assert!(ev_trace::counter_value("cache.coalesced") >= 1);
    }

    #[test]
    fn failed_build_releases_waiters_to_recompute() {
        let cache: ViewCache<u64> = ViewCache::new(16);
        let building = AtomicBool::new(false);
        let (cache, building) = (&cache, &building);
        std::thread::scope(|s| {
            let owner = s.spawn(move || {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    cache.get_or_insert_with(9, || {
                        building.store(true, Ordering::SeqCst);
                        while cache.stats().coalesced == 0 {
                            std::thread::yield_now();
                        }
                        panic!("build failed");
                    })
                }));
                assert!(result.is_err(), "the owner's panic propagates");
            });
            let waiter = s.spawn(move || {
                while !building.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                cache.get_or_insert_with(9, || 99)
            });
            owner.join().unwrap();
            assert_eq!(*waiter.join().unwrap(), 99, "waiter recomputed");
        });
        // The recomputed value is cached; no gate is left behind.
        assert_eq!(*cache.get_or_insert_with(9, || 0), 99);
    }

    #[test]
    fn capacity_bounds_keys_that_share_their_low_bits() {
        let n = 9u64;
        let cache: ViewCache<u64> = ViewCache::new(n as usize);
        // Keys 0x10, 0x20, ... agree in their low bits.
        let key = |i: u64| (i + 1) << 4;
        for i in 0..n {
            cache.get_or_insert_with(key(i), || i);
        }
        for i in 0..n {
            assert_eq!(
                *cache.get_or_insert_with(key(i), || 99),
                i,
                "key {i} is resident"
            );
        }
        // Key 0 was touched least recently: key n evicts it alone.
        cache.get_or_insert_with(key(n), || n);
        let stats = cache.stats();
        assert_eq!((stats.len, stats.capacity), (n as usize, n as usize));
        for i in 1..=n {
            assert_eq!(
                *cache.get_or_insert_with(key(i), || 99),
                i,
                "key {i} survived"
            );
        }
        assert_eq!(
            *cache.get_or_insert_with(key(0), || 99),
            99,
            "key 0 was evicted"
        );
    }
}
