//! The ingress embed plane — embed a template once, serve it forever.
//!
//! Cloud workloads are overwhelmingly templated: the same statement
//! shape arrives again and again with only literals varying. The embed
//! plane exploits that at manager ingress: every query is fingerprinted
//! (`querc_sql::fingerprint`, literals stripped) and looked up in a
//! **sharded, bounded LRU cache** `fingerprint → Arc<Vec<f32>>`. A hit
//! attaches the cached vector to the [`EnrichedQuery`] for free; misses
//! are embedded in one [`Embedder::embed_batch`] call (deduplicated by
//! fingerprint within the batch) and inserted. Downstream, every app
//! shard reads the `Arc` instead of re-embedding — the hot path goes
//! from `O(apps × embed)` to `O(~0)` per repeated template.
//!
//! Cache keys are namespaced by [`Embedder::cache_namespace`] (embedder
//! family + dims + model state), so `bow`, `doc2vec`, and `lstm`
//! vectors — or two separately-trained models of one family — never
//! collide. Hit/miss/eviction counters are lock-free and readable while
//! serving.
//!
//! ```
//! use querc::embed_plane::{EmbedPlane, EmbedPlaneConfig};
//! use querc::EnrichedQuery;
//! use querc_embed::{BagOfTokens, Embedder};
//!
//! let plane = EmbedPlane::new(&EmbedPlaneConfig::default());
//! let bow = BagOfTokens::new(32, true);
//! let mut batch = vec![
//!     EnrichedQuery::from_sql("select v from kv where k = 1"),
//!     EnrichedQuery::from_sql("select v from kv where k = 2"), // same template
//! ];
//! plane.enrich_batch(&bow, &mut batch);
//! let stats = plane.stats();
//! assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
//! assert_eq!(
//!     **batch[0].vector_for(bow.cache_namespace()).unwrap(),
//!     bow.embed(batch[0].tokens())
//! );
//! ```

use crate::enriched::EnrichedQuery;
use parking_lot::Mutex;
use querc_embed::Embedder;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Sizing knobs for the shared vector cache.
///
/// Capacity is counted in **entries** (distinct `(embedder, template)`
/// pairs); one entry costs roughly `dim × 4` bytes plus key overhead, so
/// the default (64 Ki entries of a 128-dim embedder) is ~32 MiB. Size it
/// to the *template* cardinality of the workload — templates, not raw
/// queries, are what the fingerprint collapses — with headroom per
/// embedder namespace in play; `WorkloadManagerConfig` documents the
/// serving-side guidance.
#[derive(Debug, Clone)]
pub struct EmbedPlaneConfig {
    /// Maximum cached vectors across all shards (≥ 1 enforced; shard
    /// capacities sum to exactly this, so the global bound is hard). A
    /// hash-skewed hot shard can evict before the plane is globally
    /// full — size with headroom if the workload's templates are few
    /// and the shard count high.
    pub capacity: usize,
    /// Lock shards (≥ 1 enforced). More shards means less contention
    /// between ingress threads; 16 is plenty below ~32 producers.
    pub shards: usize,
}

impl Default for EmbedPlaneConfig {
    fn default() -> Self {
        EmbedPlaneConfig {
            capacity: 65_536,
            shards: 16,
        }
    }
}

/// Point-in-time cache counters (live — readable while serving).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EmbedCacheStats {
    /// Lookups served from the cache (including batch-local reuse of a
    /// fingerprint embedded earlier in the same batch).
    pub hits: u64,
    /// Lookups that had to embed.
    pub misses: u64,
    /// Entries displaced by the capacity bound.
    pub evictions: u64,
    /// Vectors currently cached.
    pub entries: u64,
}

impl EmbedCacheStats {
    /// Hits over total lookups, `0.0` when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

const NIL: usize = usize::MAX;

struct Slot {
    key: (u64, u64),
    value: Arc<Vec<f32>>,
    prev: usize,
    next: usize,
}

/// One lock shard: a hash map into an intrusive doubly-linked list of
/// slots ordered by recency. All operations are O(1).
struct LruShard {
    map: HashMap<(u64, u64), usize>,
    slots: Vec<Slot>,
    head: usize,
    tail: usize,
    capacity: usize,
}

impl LruShard {
    fn new(capacity: usize) -> LruShard {
        LruShard {
            map: HashMap::with_capacity(capacity.min(1024)),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn get(&mut self, key: (u64, u64)) -> Option<Arc<Vec<f32>>> {
        let i = *self.map.get(&key)?;
        self.unlink(i);
        self.push_front(i);
        Some(Arc::clone(&self.slots[i].value))
    }

    /// Insert (or refresh) an entry; returns `true` when an older entry
    /// was evicted to make room.
    fn insert(&mut self, key: (u64, u64), value: Arc<Vec<f32>>) -> bool {
        if let Some(&i) = self.map.get(&key) {
            self.slots[i].value = value;
            self.unlink(i);
            self.push_front(i);
            return false;
        }
        if self.map.len() >= self.capacity {
            // Evict the least-recently-used slot and reuse it in place.
            let victim = self.tail;
            self.unlink(victim);
            self.map.remove(&self.slots[victim].key);
            self.slots[victim].key = key;
            self.slots[victim].value = value;
            self.push_front(victim);
            self.map.insert(key, victim);
            return true;
        }
        let i = self.slots.len();
        self.slots.push(Slot {
            key,
            value,
            prev: NIL,
            next: NIL,
        });
        self.push_front(i);
        self.map.insert(key, i);
        false
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// The shared, sharded template→vector cache. One instance serves every
/// app registered with a [`crate::service::WorkloadManager`]; it is also
/// usable standalone (see the module example).
pub struct EmbedPlane {
    shards: Vec<Mutex<LruShard>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl EmbedPlane {
    /// An empty plane sized per `cfg`. Capacity is distributed across
    /// the lock shards so the **global bound holds exactly**: shard
    /// capacities sum to `cfg.capacity`, and the shard count is clamped
    /// to the capacity so every shard can hold at least one entry.
    pub fn new(cfg: &EmbedPlaneConfig) -> EmbedPlane {
        let capacity = cfg.capacity.max(1);
        let shards = cfg.shards.max(1).min(capacity);
        let base = capacity / shards;
        let extra = capacity % shards;
        EmbedPlane {
            shards: (0..shards)
                .map(|i| Mutex::new(LruShard::new(base + usize::from(i < extra))))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, namespace: u64, fingerprint: u64) -> &Mutex<LruShard> {
        // Both halves are FNV outputs (well mixed); fold them so one
        // namespace doesn't pin itself to one shard.
        let h = fingerprint ^ namespace.rotate_left(17);
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    /// Look up the vector of `fingerprint` under `namespace`, counting a
    /// hit or miss and refreshing recency on hit.
    pub fn get(&self, namespace: u64, fingerprint: u64) -> Option<Arc<Vec<f32>>> {
        let found = self
            .shard_of(namespace, fingerprint)
            .lock()
            .get((namespace, fingerprint));
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Insert (or refresh) a vector, counting any eviction it causes.
    pub fn insert(&self, namespace: u64, fingerprint: u64, vector: Arc<Vec<f32>>) {
        let evicted = self
            .shard_of(namespace, fingerprint)
            .lock()
            .insert((namespace, fingerprint), vector);
        if evicted {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The ingress entry point: attach a vector under `embedder`'s
    /// namespace to every query in `batch` that doesn't have one yet.
    /// Cache hits are free; misses are **deduplicated by fingerprint**
    /// and embedded in a single [`Embedder::embed_batch`] call, then
    /// inserted for the next arrival of the template. Returns
    /// `(hits, misses)` for this batch (global counters are updated
    /// too), so callers can attribute traffic per app.
    pub fn enrich_batch(&self, embedder: &dyn Embedder, batch: &mut [EnrichedQuery]) -> (u64, u64) {
        let ns = embedder.cache_namespace();
        let mut hits = 0u64;
        // fingerprint → (position in `docs`, indices awaiting the vector)
        let mut pending: HashMap<u64, usize> = HashMap::new();
        let mut to_embed: Vec<(u64, Vec<usize>)> = Vec::new();
        for (i, q) in batch.iter_mut().enumerate() {
            if q.vector_for(ns).is_some() {
                continue; // already enriched upstream; not a lookup
            }
            let fp = q.fingerprint();
            if let Some(&p) = pending.get(&fp) {
                // Same template earlier in this batch: it will share the
                // one embedding — a hit as far as work avoided goes.
                hits += 1;
                to_embed[p].1.push(i);
                continue;
            }
            match self.shard_of(ns, fp).lock().get((ns, fp)) {
                Some(v) => {
                    hits += 1;
                    q.set_vector(ns, v);
                }
                None => {
                    pending.insert(fp, to_embed.len());
                    to_embed.push((fp, vec![i]));
                }
            }
        }
        let misses = to_embed.len() as u64;
        if !to_embed.is_empty() {
            let docs: Vec<Vec<String>> = to_embed
                .iter()
                .map(|(_, idxs)| batch[idxs[0]].tokens().to_vec())
                .collect();
            for ((fp, idxs), v) in to_embed.iter().zip(embedder.embed_batch(&docs)) {
                let vector = Arc::new(v);
                self.insert(ns, *fp, Arc::clone(&vector));
                for &i in idxs {
                    batch[i].set_vector(ns, Arc::clone(&vector));
                }
            }
        }
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
        (hits, misses)
    }

    /// Vectors currently cached, across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Export every cached entry as `(namespace, fingerprint, vector)`
    /// triples — the persistence plane's checkpoint source. Within each
    /// shard entries come out **coldest first**, so feeding the list back
    /// through [`EmbedPlane::preload`] (which inserts in order) rebuilds
    /// the same per-shard recency: the hottest entries end up most
    /// recently inserted and survive any subsequent eviction pressure.
    pub fn export(&self) -> Vec<(u64, u64, Vec<f32>)> {
        let mut out = Vec::with_capacity(self.len());
        for shard in &self.shards {
            let s = shard.lock();
            let mut i = s.tail;
            while i != NIL {
                let slot = &s.slots[i];
                out.push((slot.key.0, slot.key.1, slot.value.as_ref().clone()));
                i = slot.prev;
            }
        }
        out
    }

    /// Insert exported entries in order (restore path). Takes the
    /// entries by value so each restored vector moves into its cache
    /// `Arc` instead of being re-cloned (the warm set is tens of MB).
    /// Counts neither hits nor misses, so post-restore hit-rate
    /// measurements start clean; evictions (a smaller cache than the
    /// one exported) still count.
    pub fn preload(&self, entries: Vec<(u64, u64, Vec<f32>)>) {
        for (ns, fp, v) in entries {
            self.insert(ns, fp, Arc::new(v));
        }
    }

    /// Live counters plus the current entry count.
    pub fn stats(&self) -> EmbedCacheStats {
        EmbedCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use querc_embed::BagOfTokens;

    fn plane(capacity: usize, shards: usize) -> EmbedPlane {
        EmbedPlane::new(&EmbedPlaneConfig { capacity, shards })
    }

    #[test]
    fn get_insert_roundtrip_and_counters() {
        let p = plane(8, 2);
        assert!(p.get(1, 42).is_none());
        p.insert(1, 42, Arc::new(vec![1.0]));
        let v = p.get(1, 42).expect("cached");
        assert_eq!(*v, vec![1.0]);
        // Same fingerprint, different namespace: miss.
        assert!(p.get(2, 42).is_none());
        let stats = p.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 1));
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn capacity_is_bounded_and_lru_evicts_the_coldest() {
        // One shard so the recency order is globally observable.
        let p = plane(3, 1);
        for fp in 0..3u64 {
            p.insert(7, fp, Arc::new(vec![fp as f32]));
        }
        // Touch 0 so 1 becomes the coldest, then overflow.
        assert!(p.get(7, 0).is_some());
        p.insert(7, 3, Arc::new(vec![3.0]));
        assert_eq!(p.len(), 3, "capacity bound holds");
        assert_eq!(p.stats().evictions, 1);
        assert!(p.get(7, 1).is_none(), "coldest entry evicted");
        assert!(p.get(7, 0).is_some());
        assert!(p.get(7, 2).is_some());
        assert!(p.get(7, 3).is_some());
    }

    #[test]
    fn global_capacity_bound_holds_exactly() {
        // 20 entries over 16 shards used to round up to 32; the bound
        // must be global, not per-shard.
        let p = plane(20, 16);
        for fp in 0..500u64 {
            p.insert(1, fp, Arc::new(vec![fp as f32]));
        }
        assert!(p.len() <= 20, "configured bound exceeded: {}", p.len());
        // More shards than capacity: shard count clamps, nothing panics.
        let tiny = plane(3, 16);
        for fp in 0..50u64 {
            tiny.insert(1, fp, Arc::new(vec![0.0]));
        }
        assert!(tiny.len() <= 3);
        assert!(tiny.stats().evictions > 0);
    }

    #[test]
    fn reinsert_refreshes_without_eviction() {
        let p = plane(2, 1);
        p.insert(1, 1, Arc::new(vec![1.0]));
        p.insert(1, 2, Arc::new(vec![2.0]));
        p.insert(1, 1, Arc::new(vec![1.5])); // refresh, no eviction
        assert_eq!(p.stats().evictions, 0);
        assert_eq!(*p.get(1, 1).unwrap(), vec![1.5]);
        // Now 2 is coldest; overflow evicts it.
        p.insert(1, 3, Arc::new(vec![3.0]));
        assert!(p.get(1, 2).is_none());
    }

    #[test]
    fn enrich_batch_dedups_templates_within_a_batch() {
        /// Counts embed_batch *documents* to prove dedup.
        struct Counting {
            inner: BagOfTokens,
            embedded: std::sync::atomic::AtomicU64,
        }
        impl Embedder for Counting {
            fn dim(&self) -> usize {
                self.inner.dim()
            }
            fn embed(&self, tokens: &[String]) -> Vec<f32> {
                self.embedded.fetch_add(1, Ordering::Relaxed);
                self.inner.embed(tokens)
            }
            fn name(&self) -> &'static str {
                "counting-bow"
            }
            fn embed_batch(&self, docs: &[Vec<String>]) -> Vec<Vec<f32>> {
                self.embedded
                    .fetch_add(docs.len() as u64, Ordering::Relaxed);
                self.inner.embed_batch(docs)
            }
        }
        let e = Counting {
            inner: BagOfTokens::new(16, true),
            embedded: std::sync::atomic::AtomicU64::new(0),
        };
        let p = plane(64, 4);
        // Four queries, two templates.
        let mut batch: Vec<EnrichedQuery> = [
            "select v from kv where k = 1",
            "select v from kv where k = 2",
            "insert into logs values (3)",
            "SELECT V FROM KV WHERE K = 4",
        ]
        .iter()
        .map(|s| EnrichedQuery::from_sql(*s))
        .collect();
        let (hits, misses) = p.enrich_batch(&e, &mut batch);
        assert_eq!((hits, misses), (2, 2));
        assert_eq!(
            e.embedded.load(Ordering::Relaxed),
            2,
            "one embed per template"
        );
        let ns = e.cache_namespace();
        for q in &batch {
            assert_eq!(**q.vector_for(ns).unwrap(), e.inner.embed(q.tokens()));
        }
        // The same templates again: all hits, no new embeds.
        let mut again: Vec<EnrichedQuery> = [
            "select v from kv where k = 99",
            "insert into logs values (0)",
        ]
        .iter()
        .map(|s| EnrichedQuery::from_sql(*s))
        .collect();
        let (hits, misses) = p.enrich_batch(&e, &mut again);
        assert_eq!((hits, misses), (2, 0));
        assert_eq!(e.embedded.load(Ordering::Relaxed), 2);
        assert_eq!(p.stats().entries, 2);
    }

    #[test]
    fn warm_hits_scan_once_and_build_no_tokens() {
        let bow = BagOfTokens::new(16, true);
        let ns = bow.cache_namespace();
        let p = plane(64, 4);
        let from = |sqls: &[&str]| -> Vec<EnrichedQuery> {
            sqls.iter().map(|s| EnrichedQuery::from_sql(*s)).collect()
        };
        let mut cold = from(&[
            "select v from kv where k = 1",
            "insert into logs values (3)",
        ]);
        let before = querc_sql::lex_calls_this_thread();
        assert_eq!(p.enrich_batch(&bow, &mut cold), (0, 2));
        assert_eq!(
            querc_sql::lex_calls_this_thread() - before,
            4,
            "a miss scans twice: fingerprint, then tokens for embed_batch"
        );
        assert!(cold.iter().all(EnrichedQuery::tokens_built));

        let mut warm = from(&[
            "SELECT V FROM KV WHERE K = 77",
            "insert into logs values (9)",
            "select v from kv where k = 5 -- again",
        ]);
        let before = querc_sql::lex_calls_this_thread();
        assert_eq!(p.enrich_batch(&bow, &mut warm), (3, 0));
        assert_eq!(
            querc_sql::lex_calls_this_thread() - before,
            3,
            "a hit scans once"
        );
        for q in &warm {
            assert!(!q.tokens_built(), "{:?}: a hit built tokens", q.sql());
            let tokens = querc_embed::sql_tokens(q.sql());
            assert_eq!(q.fingerprint(), querc_sql::fingerprint_tokens(&tokens));
            assert_eq!(**q.vector_for(ns).unwrap(), bow.embed(&tokens));
        }
    }

    #[test]
    fn enrich_batch_skips_already_enriched_queries() {
        let bow = BagOfTokens::new(8, false);
        let p = plane(8, 1);
        let mut batch = vec![EnrichedQuery::from_sql("select 1")];
        let sentinel = Arc::new(vec![5.0f32; 8]);
        batch[0].set_vector(bow.cache_namespace(), Arc::clone(&sentinel));
        let (hits, misses) = p.enrich_batch(&bow, &mut batch);
        assert_eq!((hits, misses), (0, 0));
        assert!(Arc::ptr_eq(
            batch[0].vector_for(bow.cache_namespace()).unwrap(),
            &sentinel
        ));
    }

    #[test]
    fn export_preload_round_trips_entries_and_recency() {
        // One shard so the recency order is globally observable.
        let p = plane(3, 1);
        for fp in 0..3u64 {
            p.insert(9, fp, Arc::new(vec![fp as f32, 0.5]));
        }
        p.get(9, 0); // 0 hottest; coldest is now 1.
        let dump = p.export();
        assert_eq!(dump.len(), 3);
        assert_eq!(dump[0].1, 1, "coldest first");
        assert_eq!(dump[2].1, 0, "hottest last");

        let fresh = plane(3, 1);
        fresh.preload(dump.clone());
        assert_eq!(fresh.len(), 3);
        for fp in 0..3u64 {
            assert_eq!(*fresh.get(9, fp).unwrap(), vec![fp as f32, 0.5]);
        }
        // Preload itself counted no lookups (the three gets above did).
        assert_eq!(fresh.stats().misses, 0);

        // Restoring into a smaller cache keeps the *hottest* entries.
        let small = plane(2, 1);
        small.preload(dump);
        assert_eq!(small.len(), 2);
        assert!(small.get(9, 1).is_none(), "coldest dropped");
        assert!(small.get(9, 0).is_some());
        assert!(small.get(9, 2).is_some());
    }

    #[test]
    fn concurrent_enrichment_is_consistent() {
        let bow = Arc::new(BagOfTokens::new(32, true));
        let p = Arc::new(plane(256, 8));
        let mut handles = Vec::new();
        for t in 0..4 {
            let p = Arc::clone(&p);
            let bow = Arc::clone(&bow);
            handles.push(std::thread::spawn(move || {
                for i in 0..200 {
                    let mut batch = vec![EnrichedQuery::from_sql(format!(
                        "select c{} from t where x = {i}",
                        i % 10
                    ))];
                    p.enrich_batch(bow.as_ref(), &mut batch);
                    let v = batch[0].vector_for(bow.cache_namespace()).unwrap();
                    assert_eq!(**v, bow.embed(batch[0].tokens()), "thread {t}");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = p.stats();
        assert_eq!(stats.hits + stats.misses, 800);
        assert_eq!(stats.entries, 10, "ten distinct templates");
    }
}
