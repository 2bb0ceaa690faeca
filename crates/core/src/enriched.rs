//! The enriched query — the hot-path envelope around [`LabeledQuery`].
//!
//! The paper's premise is that *one* learned representation serves every
//! workload-management app, yet a plain [`LabeledQuery`] forces each
//! consumer to re-derive that representation: every classifier and every
//! app re-lexed the SQL and re-embedded the tokens. An
//! [`EnrichedQuery`] carries the derived artifacts alongside the query:
//!
//! * the **normalized token stream**, built at most once
//!   ([`std::sync::OnceLock`]-memoized — the "tokenize once per query"
//!   invariant is regression-tested against the lexer's call counter);
//! * the **template fingerprint** (`querc_sql::fingerprint`): hashed
//!   from the memoized tokens when they exist, otherwise by one
//!   allocation-free streaming scan of the SQL that builds no tokens;
//! * zero or more **embedding vectors**, each tagged with the
//!   [`Embedder::cache_namespace`] that produced it, shared by `Arc` so
//!   a vector computed once at manager ingress fans out to every app
//!   shard for free.
//!
//! The ingress cost follows from that. An embed-plane **hit** needs
//! only the fingerprint: the SQL is scanned once and no token is
//! allocated. A **miss** scans twice — once to fingerprint, once to
//! build the tokens `embed_batch` consumes — and every later consumer
//! reads the memoized tokens.
//!
//! Components that only understand labels keep receiving
//! [`LabeledQuery`] — [`EnrichedQuery::into_labeled`] unwraps at the
//! pipeline edge (database sink, training mirror).

use crate::labeled::LabeledQuery;
use querc_embed::Embedder;
use std::sync::{Arc, OnceLock};

/// A [`LabeledQuery`] plus memoized derived artifacts (tokens, template
/// fingerprint, embedding vectors). See the module docs.
///
/// The SQL text is treated as immutable once any artifact has been
/// derived; labels remain freely mutable through
/// [`EnrichedQuery::set`].
#[derive(Debug)]
pub struct EnrichedQuery {
    query: LabeledQuery,
    tokens: OnceLock<Vec<String>>,
    fingerprint: OnceLock<u64>,
    /// `(cache namespace, vector)` pairs — at most a handful (one per
    /// embedder that has seen this query), so a flat vec beats a map.
    vectors: Vec<(u64, Arc<Vec<f32>>)>,
}

impl EnrichedQuery {
    /// Wrap a labeled query; artifacts are derived lazily.
    pub fn new(query: LabeledQuery) -> EnrichedQuery {
        EnrichedQuery {
            query,
            tokens: OnceLock::new(),
            fingerprint: OnceLock::new(),
            vectors: Vec::new(),
        }
    }

    /// A fresh, unlabeled query from SQL text.
    pub fn from_sql(sql: impl Into<String>) -> EnrichedQuery {
        EnrichedQuery::new(LabeledQuery::new(sql))
    }

    /// The raw SQL text.
    pub fn sql(&self) -> &str {
        &self.query.sql
    }

    /// First value of a label, if attached.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.query.get(name)
    }

    /// Attach or replace a label.
    pub fn set(&mut self, name: impl Into<String>, value: impl Into<String>) {
        self.query.set(name, value);
    }

    /// Borrow the wrapped labeled query.
    pub fn labeled(&self) -> &LabeledQuery {
        &self.query
    }

    /// Mutably borrow the wrapped labeled query (e.g. to apply an
    /// [`crate::apps::AppOutput`]). Labels are free to change; the SQL
    /// text must not be replaced once tokens/fingerprint/vectors have
    /// been derived, or the memoized artifacts go stale.
    pub fn labeled_mut(&mut self) -> &mut LabeledQuery {
        &mut self.query
    }

    /// Unwrap into the plain labeled query (pipeline edge: database
    /// sink, training mirror), dropping the derived artifacts.
    pub fn into_labeled(self) -> LabeledQuery {
        self.query
    }

    /// The normalized token stream, lexed on first use and memoized —
    /// every later consumer (fingerprint, classifiers, apps) reads the
    /// same buffer instead of re-parsing the SQL.
    pub fn tokens(&self) -> &[String] {
        self.tokens
            .get_or_init(|| querc_embed::sql_tokens(&self.query.sql))
    }

    /// The template fingerprint (literals stripped, case folded) — the
    /// embed plane's cache key. Hashes the memoized tokens if they were
    /// built; otherwise streams the SQL through the lexer once and
    /// leaves the tokens unbuilt, so a cache hit never materializes
    /// them. Both ways give the same value.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| match self.tokens.get() {
            Some(tokens) => querc_sql::fingerprint_tokens(tokens),
            None => querc_embed::sql_fingerprint(&self.query.sql),
        })
    }

    /// Whether the token stream has been built (tests of the no-token
    /// hit path).
    #[cfg(test)]
    pub(crate) fn tokens_built(&self) -> bool {
        self.tokens.get().is_some()
    }

    /// The vector computed under `namespace`
    /// ([`Embedder::cache_namespace`]), if any.
    pub fn vector_for(&self, namespace: u64) -> Option<&Arc<Vec<f32>>> {
        self.vectors
            .iter()
            .find(|(ns, _)| *ns == namespace)
            .map(|(_, v)| v)
    }

    /// Whether any embedding vector has been attached (diagnostics).
    pub fn has_vector(&self) -> bool {
        !self.vectors.is_empty()
    }

    /// Attach the vector computed under `namespace`, replacing any
    /// previous vector for the same namespace.
    pub fn set_vector(&mut self, namespace: u64, vector: Arc<Vec<f32>>) {
        match self.vectors.iter_mut().find(|(ns, _)| *ns == namespace) {
            Some(slot) => slot.1 = vector,
            None => self.vectors.push((namespace, vector)),
        }
    }

    /// Vectors for a whole chunk under `embedder`: cached vectors are
    /// reused, the rest are embedded in **one**
    /// [`Embedder::embed_batch`] call from the memoized token streams.
    /// `out[i]` is the vector of `batch[i]`, bit-identical to
    /// `embedder.embed(batch[i].tokens())`.
    pub fn vectors(batch: &[EnrichedQuery], embedder: &dyn Embedder) -> Vec<Arc<Vec<f32>>> {
        let ns = embedder.cache_namespace();
        let mut out: Vec<Option<Arc<Vec<f32>>>> =
            batch.iter().map(|q| q.vector_for(ns).cloned()).collect();
        let missing: Vec<usize> = (0..batch.len()).filter(|&i| out[i].is_none()).collect();
        if !missing.is_empty() {
            let docs: Vec<Vec<String>> = missing
                .iter()
                .map(|&i| batch[i].tokens().to_vec())
                .collect();
            for (&i, v) in missing.iter().zip(embedder.embed_batch(&docs)) {
                out[i] = Some(Arc::new(v));
            }
        }
        out.into_iter().map(|v| v.expect("filled above")).collect()
    }

    /// [`EnrichedQuery::vectors`], but newly-computed vectors are also
    /// attached back onto the queries, so a later consumer sharing the
    /// same embedder namespace (another classifier, the app) reuses them
    /// instead of re-embedding.
    pub fn vectors_memo(
        batch: &mut [EnrichedQuery],
        embedder: &dyn Embedder,
    ) -> Vec<Arc<Vec<f32>>> {
        let ns = embedder.cache_namespace();
        let vectors = Self::vectors(batch, embedder);
        for (q, v) in batch.iter_mut().zip(&vectors) {
            if q.vector_for(ns).is_none() {
                q.set_vector(ns, Arc::clone(v));
            }
        }
        vectors
    }
}

impl From<LabeledQuery> for EnrichedQuery {
    fn from(query: LabeledQuery) -> EnrichedQuery {
        EnrichedQuery::new(query)
    }
}

impl Clone for EnrichedQuery {
    fn clone(&self) -> EnrichedQuery {
        let tokens = OnceLock::new();
        if let Some(t) = self.tokens.get() {
            let _ = tokens.set(t.clone());
        }
        let fingerprint = OnceLock::new();
        if let Some(f) = self.fingerprint.get() {
            let _ = fingerprint.set(*f);
        }
        EnrichedQuery {
            query: self.query.clone(),
            tokens,
            fingerprint,
            vectors: self.vectors.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use querc_embed::BagOfTokens;

    #[test]
    fn tokens_are_lexed_exactly_once() {
        let q = EnrichedQuery::from_sql("SELECT X FROM T WHERE y = 5");
        let before = querc_sql::lex_calls_this_thread();
        assert_eq!(
            q.tokens(),
            ["select", "x", "from", "t", "where", "y", "=", "<num>"]
        );
        let _ = q.tokens();
        let _ = q.fingerprint();
        let _ = q.fingerprint();
        assert_eq!(
            querc_sql::lex_calls_this_thread() - before,
            1,
            "tokens + fingerprint must share a single lex"
        );
    }

    #[test]
    fn fingerprint_alone_builds_no_tokens() {
        let q = EnrichedQuery::from_sql("SELECT \"Quoted\"\"Id\" FROM T WHERE y = 5 -- hi");
        let before = querc_sql::lex_calls_this_thread();
        let fp = q.fingerprint();
        assert!(!q.tokens_built(), "fingerprint must not materialize tokens");
        assert_eq!(querc_sql::lex_calls_this_thread() - before, 1, "one scan");
        assert_eq!(fp, querc_sql::fingerprint_tokens(q.tokens()));
        assert!(q.tokens_built());
    }

    #[test]
    fn fingerprint_matches_the_sql_level_entry_point() {
        let q = EnrichedQuery::from_sql("select a from t where x = 99");
        assert_eq!(
            q.fingerprint(),
            querc_sql::template_fingerprint(
                "select a from t where x = 1",
                querc_sql::Dialect::Generic
            )
        );
    }

    #[test]
    fn vectors_reuse_cached_namespaces_and_embed_the_rest() {
        let bow = BagOfTokens::new(32, true);
        let ns = bow.cache_namespace();
        let mut a = EnrichedQuery::from_sql("select a from t");
        let b = EnrichedQuery::from_sql("select b from u");
        // Pre-attach a sentinel vector for `a`: it must be served as-is.
        let sentinel = Arc::new(vec![9.0f32; 32]);
        a.set_vector(ns, Arc::clone(&sentinel));
        let batch = [a, b];
        let vectors = EnrichedQuery::vectors(&batch, &bow);
        assert!(Arc::ptr_eq(&vectors[0], &sentinel));
        assert_eq!(*vectors[1], bow.embed(batch[1].tokens()));
    }

    #[test]
    fn vectors_memo_attaches_computed_vectors() {
        let bow = BagOfTokens::new(16, false);
        let ns = bow.cache_namespace();
        let mut batch = vec![EnrichedQuery::from_sql("select 1")];
        assert!(batch[0].vector_for(ns).is_none());
        let first = EnrichedQuery::vectors_memo(&mut batch, &bow);
        let cached = batch[0].vector_for(ns).expect("memoized");
        assert!(Arc::ptr_eq(cached, &first[0]));
        // A second pass serves the memoized Arc.
        let second = EnrichedQuery::vectors(&batch, &bow);
        assert!(Arc::ptr_eq(&second[0], &first[0]));
    }

    #[test]
    fn namespaces_do_not_bleed_into_each_other() {
        let uni = BagOfTokens::new(16, false);
        let bi = BagOfTokens::new(16, true);
        let mut batch = vec![EnrichedQuery::from_sql("select a from t join u on a = b")];
        let vu = EnrichedQuery::vectors_memo(&mut batch, &uni);
        let vb = EnrichedQuery::vectors_memo(&mut batch, &bi);
        assert_ne!(*vu[0], *vb[0], "different configs embed differently");
        assert!(Arc::ptr_eq(
            batch[0].vector_for(uni.cache_namespace()).unwrap(),
            &vu[0]
        ));
        assert!(Arc::ptr_eq(
            batch[0].vector_for(bi.cache_namespace()).unwrap(),
            &vb[0]
        ));
    }

    #[test]
    fn clone_preserves_artifacts_and_labels() {
        let mut q = EnrichedQuery::from_sql("select 1");
        q.set("user", "alice");
        let _ = q.fingerprint();
        let c = q.clone();
        assert_eq!(c.get("user"), Some("alice"));
        assert_eq!(c.fingerprint(), q.fingerprint());
        assert_eq!(c.tokens(), q.tokens());
        let lq = c.into_labeled();
        assert_eq!(lq.get("user"), Some("alice"));
    }
}
