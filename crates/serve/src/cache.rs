//! The content-addressed serving cache.
//!
//! Entries are keyed by the canonical [`fingerprint`](crate::fingerprint)
//! of a request's join graph and hold the MILP→BILP→QUBO formulation,
//! built from the *canonical bucketed* query so it is byte-identical
//! across the whole fingerprint class.
//!
//! Minor-embeddings live in an embedding store the cache owns, keyed
//! by the formulation's [`SourceGraph`] rather than by class: the
//! embedder's result is a pure function of that graph, classes that
//! differ only in cardinalities share it, and it outlives the eviction of
//! the classes that embedded it. A cold embed is the dominant serving
//! cost (about 0.3 s at p50 in the serve smoke, and about a minute for
//! its one graph that exhausts every try, against ~0.07 ms to
//! formulate), so the store keeps failures too: a graph that could not
//! embed is not tried again while it stays in the store.
//!
//! Both maps are LRU with the cache's capacity. Every lookup lands in the
//! `serve.cache.{hit,miss,evict,embed_hit,embed_miss,embed_neg_hit}`
//! counters, which flow into the run manifest like any other metric.
//!
//! The serving path passes its one canonicalisation to the
//! canonical-keyed cores; `lookup` and `peek` canonicalise first.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use qjo_anneal::{AnnealError, Embedding, SourceGraph};
use qjo_core::{JoEncoder, JoQubo, Query};

use crate::fingerprint::{canonicalize, CanonicalQuery, FingerprintConfig};

/// Point-in-time counter values for one cache instance.
///
/// The global `serve.cache.*` counters aggregate every cache in the
/// process (tests included); these tallies belong to a single
/// [`FormulationCache`], so per-request deltas taken around a solve are
/// attributable even when other services share the process. Embedding
/// requests answered with a stored failure are tallied apart, by
/// [`FormulationCache::embed_neg_hits`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Formulation lookups answered from the cache.
    pub hits: u64,
    /// Formulation lookups that built a fresh entry.
    pub misses: u64,
    /// Entries dropped to make room (LRU victims).
    pub evictions: u64,
    /// Embedding requests answered from a resident embedding.
    pub embed_hits: u64,
    /// Embedding requests that ran the embedder.
    pub embed_misses: u64,
}

/// Shared atomic tallies behind [`CacheCounters`]; one per cache, with a
/// handle in its embedding store so embedding traffic lands in the
/// owning cache's tallies.
#[derive(Debug, Default)]
struct CacheTallies {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    embed_hits: AtomicU64,
    embed_misses: AtomicU64,
    embed_neg_hits: AtomicU64,
}

impl CacheTallies {
    fn snapshot(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            embed_hits: self.embed_hits.load(Ordering::Relaxed),
            embed_misses: self.embed_misses.load(Ordering::Relaxed),
        }
    }
}

/// What the embedder returned for one source graph.
type Outcome = Result<Embedding, AnnealError>;
/// One source graph's outcome, filled by the first request to embed it.
type Slot = Arc<Mutex<Option<Outcome>>>;

/// Embedding outcomes keyed by source graph, LRU-bounded.
///
/// The map lock is held only to fetch or insert a slot; a slot's own lock
/// is held for the whole embed, so concurrent requests for one graph wait
/// for the first to finish while different graphs embed in parallel.
struct EmbeddingStore {
    capacity: usize,
    state: Mutex<StoreState>,
    tallies: Arc<CacheTallies>,
}

struct StoreState {
    slots: HashMap<SourceGraph, (Slot, u64)>,
    /// Monotonic access clock for LRU ordering.
    clock: u64,
}

impl EmbeddingStore {
    /// The slot of `graph`, inserted empty (evicting the stalest graph
    /// when full) if absent; refreshes its LRU stamp either way.
    fn slot(&self, graph: &SourceGraph) -> Slot {
        let mut state = self.state.lock().expect("store lock");
        state.clock += 1;
        let now = state.clock;
        if let Some((slot, stamp)) = state.slots.get_mut(graph) {
            *stamp = now;
            return slot.clone();
        }
        if state.slots.len() >= self.capacity {
            let victim = state
                .slots
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(g, _)| g.clone())
                .expect("capacity >= 1 and the store is full");
            state.slots.remove(&victim);
        }
        let slot = Slot::default();
        state.slots.insert(graph.clone(), (slot.clone(), now));
        slot
    }

    /// The resident slot of `graph`, without inserting or refreshing.
    fn peek(&self, graph: &SourceGraph) -> Option<Slot> {
        let state = self.state.lock().expect("store lock");
        state.slots.get(graph).map(|(slot, _)| slot.clone())
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.state.lock().expect("store lock").slots.len()
    }
}

/// A cached formulation class: the canonical query and its formulation,
/// with access to the minor-embedding outcome of its source graph.
pub struct CacheEntry {
    /// The canonical bucketed query the formulation was built from.
    pub canonical_query: Query,
    /// The full formulation bundle (QUBO + registry + intermediates).
    pub formulation: JoQubo,
    /// The source graph of `formulation.qubo`, built on first use.
    graph: OnceLock<SourceGraph>,
    /// The owning cache's embedding store.
    store: Arc<EmbeddingStore>,
}

impl CacheEntry {
    /// Returns the stored embedding of this entry's source graph, or
    /// computes and stores it via `embed`. The hit/miss counters are
    /// embedding-specific so the latency win of an embedding reuse is
    /// separately attributable.
    pub fn embedding_or_insert(
        &self,
        embed: impl FnOnce(&JoQubo) -> Outcome,
    ) -> Result<Embedding, AnnealError> {
        self.embedding_with_status(embed).map(|(e, _)| e)
    }

    /// Like [`embedding_or_insert`](Self::embedding_or_insert), but also
    /// reports what *actually* happened under the lock (`"hit"` reused,
    /// `"cold"` built fresh) — the status the caller should attribute
    /// telemetry to, which can differ from any earlier prediction when
    /// concurrent traffic or an eviction changed the cache in between.
    ///
    /// A failed embed is stored like a success: later calls for the same
    /// source graph return the stored error without calling `embed`, and
    /// count `serve.cache.embed_neg_hit` instead of an embed hit.
    pub fn embedding_with_status(
        &self,
        embed: impl FnOnce(&JoQubo) -> Outcome,
    ) -> Result<(Embedding, &'static str), AnnealError> {
        let tallies = &self.store.tallies;
        let slot = self.store.slot(self.source_graph());
        let mut outcome = slot.lock().expect("embedding lock");
        match outcome.as_ref() {
            Some(Ok(e)) => {
                qjo_obs::counter!("serve.cache.embed_hit").incr();
                tallies.embed_hits.fetch_add(1, Ordering::Relaxed);
                return Ok((e.clone(), "hit"));
            }
            Some(Err(err)) => {
                qjo_obs::counter!("serve.cache.embed_neg_hit").incr();
                tallies.embed_neg_hits.fetch_add(1, Ordering::Relaxed);
                return Err(err.clone());
            }
            None => {}
        }
        qjo_obs::counter!("serve.cache.embed_miss").incr();
        tallies.embed_misses.fetch_add(1, Ordering::Relaxed);
        let fresh = embed(&self.formulation);
        *outcome = Some(fresh.clone());
        fresh.map(|e| (e, "cold"))
    }

    /// True when an embedding of this entry's source graph is stored
    /// (used by pre-checks to predict the cost of an annealer request
    /// deterministically). Neither counts nor refreshes LRU order.
    pub fn has_embedding(&self) -> bool {
        self.store
            .peek(self.source_graph())
            .is_some_and(|slot| matches!(*slot.lock().expect("embedding lock"), Some(Ok(_))))
    }

    fn source_graph(&self) -> &SourceGraph {
        self.graph.get_or_init(|| SourceGraph::of(&self.formulation.qubo))
    }
}

/// Whether a lookup was answered from the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// Formulation reused.
    Hit,
    /// Formulation built fresh on this lookup.
    Miss,
}

impl CacheStatus {
    /// Stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
        }
    }
}

/// LRU formulation cache keyed by canonical fingerprint, with the
/// embedding store its entries share.
pub struct FormulationCache {
    encoder: JoEncoder,
    fingerprint: FingerprintConfig,
    capacity: usize,
    state: Mutex<CacheState>,
    tallies: Arc<CacheTallies>,
    store: Arc<EmbeddingStore>,
}

struct CacheState {
    entries: HashMap<String, (Arc<CacheEntry>, u64)>,
    /// Monotonic access clock for LRU ordering.
    clock: u64,
}

impl FormulationCache {
    /// A cache that formulates with `encoder` and canonicalises with the
    /// given fingerprint config. Capacity is in fingerprint classes, and
    /// bounds the embedding store's source graphs too.
    pub fn new(encoder: JoEncoder, fingerprint: FingerprintConfig, capacity: usize) -> Self {
        assert!(capacity >= 1, "a zero-capacity cache cannot serve");
        let tallies = Arc::new(CacheTallies::default());
        let store = EmbeddingStore {
            capacity,
            state: Mutex::new(StoreState { slots: HashMap::new(), clock: 0 }),
            tallies: tallies.clone(),
        };
        FormulationCache {
            encoder,
            fingerprint,
            capacity,
            state: Mutex::new(CacheState { entries: HashMap::new(), clock: 0 }),
            tallies,
            store: Arc::new(store),
        }
    }

    /// The encoder formulations are built with.
    pub fn encoder(&self) -> &JoEncoder {
        &self.encoder
    }

    /// Capacity in fingerprint classes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// This cache's own counters (a consistent point-in-time copy).
    pub fn stats(&self) -> CacheCounters {
        self.tallies.snapshot()
    }

    /// Embedding requests answered with a stored failure.
    pub fn embed_neg_hits(&self) -> u64 {
        self.tallies.embed_neg_hits.load(Ordering::Relaxed)
    }

    /// Canonicalises a request without touching the cache.
    pub fn canonicalize(&self, query: &Query) -> CanonicalQuery {
        canonicalize(query, &self.fingerprint)
    }

    /// Looks up (or builds) the formulation class for a request. Returns
    /// the canonicalisation, the shared entry, and the hit/miss status.
    pub fn lookup(&self, query: &Query) -> (CanonicalQuery, Arc<CacheEntry>, CacheStatus) {
        let canon = self.canonicalize(query);
        let (entry, status) = self.lookup_canonical(&canon);
        (canon, entry, status)
    }

    /// [`lookup`](Self::lookup) for a request already canonicalised by
    /// [`canonicalize`](Self::canonicalize): the serving path's core,
    /// which never canonicalises a second time.
    pub fn lookup_canonical(&self, canon: &CanonicalQuery) -> (Arc<CacheEntry>, CacheStatus) {
        let mut state = self.state.lock().expect("cache lock");
        state.clock += 1;
        let now = state.clock;
        if let Some((entry, stamp)) = state.entries.get_mut(&canon.fingerprint) {
            *stamp = now;
            qjo_obs::counter!("serve.cache.hit").incr();
            self.tallies.hits.fetch_add(1, Ordering::Relaxed);
            return (entry.clone(), CacheStatus::Hit);
        }
        qjo_obs::counter!("serve.cache.miss").incr();
        self.tallies.misses.fetch_add(1, Ordering::Relaxed);
        // Build outside the map borrow but inside the lock: a concurrent
        // builder for the same class would duplicate work, and the serve
        // loop is request-ordered anyway.
        let formulation = {
            let _span = qjo_obs::span!("serve.formulate");
            self.encoder.encode(&canon.query)
        };
        let entry = Arc::new(CacheEntry {
            canonical_query: canon.query.clone(),
            formulation,
            graph: OnceLock::new(),
            store: self.store.clone(),
        });
        if state.entries.len() >= self.capacity {
            let victim = state
                .entries
                .iter()
                .min_by_key(|(fp, (_, stamp))| (*stamp, (*fp).clone()))
                .map(|(fp, _)| fp.clone())
                .expect("capacity >= 1 and the map is full");
            state.entries.remove(&victim);
            qjo_obs::counter!("serve.cache.evict").incr();
            self.tallies.evictions.fetch_add(1, Ordering::Relaxed);
        }
        state.entries.insert(canon.fingerprint.clone(), (entry.clone(), now));
        (entry, CacheStatus::Miss)
    }

    /// Checks residency without inserting, counting, or refreshing LRU
    /// order. Pre-checks use this to predict request cost (a stored
    /// embedding turns a cold annealer request into milliseconds)
    /// without perturbing cache behaviour.
    pub fn peek(&self, query: &Query) -> (CanonicalQuery, Option<Arc<CacheEntry>>) {
        let canon = self.canonicalize(query);
        let entry = self.peek_canonical(&canon);
        (canon, entry)
    }

    /// [`peek`](Self::peek) for a request already canonicalised.
    pub fn peek_canonical(&self, canon: &CanonicalQuery) -> Option<Arc<CacheEntry>> {
        let state = self.state.lock().expect("cache lock");
        state.entries.get(&canon.fingerprint).map(|(e, _)| e.clone())
    }

    /// Number of resident classes.
    pub fn len(&self) -> usize {
        self.state.lock().expect("cache lock").entries.len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qjo_core::{QueryGenerator, QueryGraph};

    fn cache(capacity: usize) -> FormulationCache {
        FormulationCache::new(JoEncoder::default(), FingerprintConfig::default(), capacity)
    }

    #[test]
    fn second_lookup_hits_and_shares_the_entry() {
        let c = cache(8);
        let q = QueryGenerator::paper_defaults(QueryGraph::Chain, 4).generate(0);
        let (_, first, s1) = c.lookup(&q);
        let (_, second, s2) = c.lookup(&q);
        assert_eq!((s1, s2), (CacheStatus::Miss, CacheStatus::Hit));
        assert!(Arc::ptr_eq(&first, &second));
        let stats = c.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn lru_eviction_drops_the_stalest_class() {
        let c = cache(2);
        let gen = QueryGenerator::paper_defaults(QueryGraph::Chain, 3);
        // Three queries with distinct cardinality profiles -> 3 classes.
        let queries: Vec<Query> =
            (0..20).map(|s| gen.generate(s)).collect::<Vec<_>>().into_iter().collect();
        let mut distinct = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        for q in queries {
            if seen.insert(c.canonicalize(&q).fingerprint) {
                distinct.push(q);
            }
            if distinct.len() == 3 {
                break;
            }
        }
        assert_eq!(distinct.len(), 3, "generator produced too few classes");
        c.lookup(&distinct[0]);
        c.lookup(&distinct[1]);
        c.lookup(&distinct[0]); // refresh 0; 1 is now stalest
        c.lookup(&distinct[2]); // evicts 1
        assert_eq!(c.len(), 2);
        let (_, _, s0) = c.lookup(&distinct[0]);
        assert_eq!(s0, CacheStatus::Hit);
        // Re-requesting 1 must rebuild (it was evicted).
        let (_, _, s1) = c.lookup(&distinct[1]);
        assert_eq!(s1, CacheStatus::Miss);
        assert_eq!(c.stats().evictions, 2); // 1 evicted, then 2 or 0
    }

    #[test]
    fn embedding_is_computed_once_per_entry() {
        let c = cache(4);
        let q = QueryGenerator::paper_defaults(QueryGraph::Chain, 3).generate(1);
        let (_, entry, _) = c.lookup(&q);
        let topology = qjo_anneal::hardware::pegasus_like(4);
        let sampler = qjo_anneal::AnnealerSampler::new(topology);
        let mut builds = 0;
        for _ in 0..3 {
            let e = entry
                .embedding_or_insert(|f| {
                    builds += 1;
                    sampler.embed(&f.qubo)
                })
                .expect("embeds");
            assert!(e.num_physical_qubits() > 0);
        }
        assert_eq!(builds, 1);
        assert!(entry.has_embedding());
    }

    /// Two queries in distinct fingerprint classes whose formulations
    /// share one source graph (they differ only in cardinalities).
    fn same_graph_pair(c: &FormulationCache) -> (Query, Query) {
        let gen = QueryGenerator::paper_defaults(QueryGraph::Chain, 3);
        let mut first_of_graph: HashMap<SourceGraph, (String, Query)> = HashMap::new();
        for seed in 0..64 {
            let q = gen.generate(seed);
            let canon = c.canonicalize(&q);
            let graph = SourceGraph::of(&JoEncoder::default().encode(&canon.query).qubo);
            match first_of_graph.get(&graph) {
                Some((fp, first)) if *fp != canon.fingerprint => return (first.clone(), q),
                Some(_) => {}
                None => {
                    first_of_graph.insert(graph, (canon.fingerprint, q));
                }
            }
        }
        panic!("no two classes share a source graph");
    }

    fn sampler() -> qjo_anneal::AnnealerSampler {
        qjo_anneal::AnnealerSampler::new(qjo_anneal::hardware::pegasus_like(4))
    }

    #[test]
    fn classes_with_one_source_graph_share_one_embedding() {
        let c = cache(8);
        let (a, b) = same_graph_pair(&c);
        let sampler = sampler();
        let mut builds = 0;
        let mut embed = |q: &Query| {
            let (_, entry, status) = c.lookup(q);
            assert_eq!(status, CacheStatus::Miss);
            entry
                .embedding_with_status(|f| {
                    builds += 1;
                    sampler.embed(&f.qubo)
                })
                .expect("embeds")
        };
        let (_, first) = embed(&a);
        let (shared, second) = embed(&b);
        assert_eq!((first, second), ("cold", "hit"));
        assert_eq!(builds, 1);
        let (_, entry, _) = c.lookup(&b);
        let fresh = sampler.embed(&entry.formulation.qubo).expect("embeds");
        assert_eq!(shared.chains, fresh.chains);
        assert_eq!((c.stats().embed_misses, c.stats().embed_hits), (1, 1));
        assert_eq!(c.store.len(), 1);
    }

    #[test]
    fn an_embedding_outlives_the_eviction_of_its_class() {
        let c = cache(1);
        let (a, b) = same_graph_pair(&c);
        let sampler = sampler();
        let embed = |q: &Query| {
            let (_, entry, status) = c.lookup(q);
            let (_, embed) = entry.embedding_with_status(|f| sampler.embed(&f.qubo)).unwrap();
            (status, embed)
        };
        assert_eq!(embed(&a), (CacheStatus::Miss, "cold"));
        assert_eq!(embed(&b), (CacheStatus::Miss, "hit"));
        // B evicted A's formulation; A's embedding is still stored.
        assert_eq!(embed(&a), (CacheStatus::Miss, "hit"));
        let stats = c.stats();
        assert_eq!((stats.evictions, stats.embed_misses, stats.embed_hits), (2, 1, 2));
    }

    #[test]
    fn a_failed_embed_is_stored_and_never_retried() {
        let c = cache(4);
        let q = QueryGenerator::paper_defaults(QueryGraph::Chain, 4).generate(0);
        let (_, entry, _) = c.lookup(&q);
        let sampler = qjo_anneal::AnnealerSampler::new(qjo_anneal::hardware::chimera(1));
        let mut builds = 0;
        let outcomes: Vec<_> = (0..3)
            .map(|_| {
                entry.embedding_with_status(|f| {
                    builds += 1;
                    sampler.embed(&f.qubo)
                })
            })
            .collect();
        assert!(outcomes[0].is_err(), "a t = 4 query cannot embed onto 8 qubits");
        assert!(outcomes.iter().all(|o| *o == outcomes[0]));
        assert_eq!(builds, 1);
        assert_eq!(c.embed_neg_hits(), 2);
        let stats = c.stats();
        assert_eq!((stats.embed_misses, stats.embed_hits), (1, 0));
        assert!(!entry.has_embedding());
    }

    #[test]
    fn the_store_holds_at_most_capacity_graphs() {
        let c = cache(2);
        let sampler = sampler();
        let mut graphs = std::collections::HashSet::new();
        let gen = QueryGenerator::paper_defaults(QueryGraph::Chain, 3);
        for q in (0..64).map(|seed| gen.generate(seed)) {
            let (_, entry, _) = c.lookup(&q);
            if graphs.insert(SourceGraph::of(&entry.formulation.qubo)) {
                entry.embedding_or_insert(|f| sampler.embed(&f.qubo)).expect("embeds");
                assert!(c.store.len() <= c.capacity());
            }
        }
        assert!(graphs.len() > 2, "only {} distinct source graphs", graphs.len());
        assert_eq!(c.store.len(), 2);
    }

    #[test]
    fn local_counters_track_only_this_cache() {
        let c = cache(4);
        let other = cache(4);
        let q = QueryGenerator::paper_defaults(QueryGraph::Chain, 3).generate(1);
        c.lookup(&q);
        c.lookup(&q);
        other.lookup(&q); // a different cache must not pollute `c`
        let (_, entry, _) = c.lookup(&q);
        let topology = qjo_anneal::hardware::pegasus_like(4);
        let sampler = qjo_anneal::AnnealerSampler::new(topology);
        entry.embedding_or_insert(|f| sampler.embed(&f.qubo)).expect("embeds");
        entry.embedding_or_insert(|f| sampler.embed(&f.qubo)).expect("embeds");
        let stats = c.stats();
        assert_eq!(
            stats,
            CacheCounters { hits: 2, misses: 1, evictions: 0, embed_hits: 1, embed_misses: 1 }
        );
        assert_eq!(other.stats(), CacheCounters { misses: 1, ..CacheCounters::default() });
        assert_eq!(c.capacity(), 4);
    }

    #[test]
    fn formulation_matches_a_fresh_build_byte_for_byte() {
        let c = cache(4);
        let q = QueryGenerator::paper_defaults(QueryGraph::Cycle, 4).generate(3);
        let (canon, entry, _) = c.lookup(&q);
        let fresh = JoEncoder::default().encode(&canon.query);
        assert_eq!(
            qjo_qubo::io::to_text(&entry.formulation.qubo),
            qjo_qubo::io::to_text(&fresh.qubo)
        );
        assert_eq!(entry.formulation.log_thresholds, fresh.log_thresholds);
        assert_eq!(entry.formulation.penalty_a, fresh.penalty_a);
    }
}
