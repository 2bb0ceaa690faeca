//! The snapshot format of a [`WorkloadManager`]: the checkpoint, delta
//! and restore paths behind its public `checkpoint`,
//! `checkpoint_delta` and `restore`, the section payloads stored inside
//! a `querc-persist` snapshot, and the shared validation helpers
//! restore paths use. Every section name is spelled in this module.
//!
//! QUERCSNAP v4 sections (see ARCHITECTURE.md for the table):
//!
//! * `manifest`, `registry`, `app:<name>`, `qos` — small JSON documents;
//! * `embedder:<ns-hex>` — one per distinct
//!   [`Embedder::cache_namespace`], raw text: the family tag, a newline,
//!   the `export_spec` payload. Apps and deployments name their
//!   embedder by namespace, so six apps on one model ship it once;
//! * `app:<name>:model` — the `save_model` payload, raw text; the four
//!   [`crate::apps::LabelApp`] configurations write one shape,
//!   `{labeler: LabelerState, trained_queries}` (v3 — v2 gave
//!   `errors`, `resources` and `routing` their own), and the two
//!   [`crate::apps::ClusterApp`] configurations another,
//!   `{dim, centroids, table, trained_queries}` (v4 — v3 gave
//!   `recommend` and `summarize` their own);
//! * `embed_cache`, `embed_cache_delta` — little-endian binary records.
//!
//! The container guarantees sections arrive byte-identical or not at
//! all (per-section CRCs); everything *inside* a section is still
//! untrusted once parsed — a stale or hand-edited snapshot can carry
//! shapes the serving hot paths would index-panic on. Every restore
//! helper here therefore validates against the live configuration
//! (embedder dims, arena bounds, matrix shapes) and reports
//! [`QuercError::Corrupt`] instead.

use crate::apps::{
    AuditApp, DynWorkloadApp, ErrorsApp, RecommendApp, ResourcesApp, RoutingApp, SummarizeApp,
};
use crate::classifier::LabelerState;
use crate::error::{QuercError, Result};
use crate::qos::TenantPolicy;
use crate::registry::RegistryEvent;
use crate::service::{FittedApp, WorkloadManager, WorkloadManagerConfig};
use querc_embed::Embedder;
use querc_learn::{ClassifierState, ForestState, TreeState};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// Build a [`QuercError::Corrupt`] with a formatted detail message.
pub(crate) fn corrupt(detail: impl Into<String>) -> QuercError {
    QuercError::Corrupt {
        detail: detail.into(),
    }
}

/// Serialize a section payload. `None` only if the shim serializer
/// fails, which no exported state does.
pub(crate) fn to_json<T: serde::Serialize>(value: &T) -> Option<String> {
    serde_json::to_string(value).ok()
}

/// Parse a JSON payload, mapping any schema mismatch to
/// [`QuercError::Corrupt`] tagged with what was being read.
pub(crate) fn from_json<T: serde::de::DeserializeOwned>(json: &str, what: &str) -> Result<T> {
    serde_json::from_str(json).map_err(|e| corrupt(format!("{what}: {e}")))
}

/// Fixed part of one embed-cache record: `ns u64, fp u64, dim u32`,
/// little-endian, followed by `dim` little-endian `f32`s.
const CACHE_RECORD_HEAD: usize = 8 + 8 + 4;

/// Encode cache entries as the `embed_cache` / `embed_cache_delta`
/// payload: records back to back until the section ends, no count
/// prefix. Bit-exact for every `f32`, NaN payloads and `-0.0` included.
pub(crate) fn encode_embed_cache(entries: &[(u64, u64, Vec<f32>)]) -> Vec<u8> {
    let floats: usize = entries.iter().map(|(_, _, v)| v.len()).sum();
    let mut out = Vec::with_capacity(entries.len() * CACHE_RECORD_HEAD + floats * 4);
    for (ns, fp, v) in entries {
        let dim = u32::try_from(v.len()).expect("an embedding has fewer than 2^32 dims");
        out.extend_from_slice(&ns.to_le_bytes());
        out.extend_from_slice(&fp.to_le_bytes());
        out.extend_from_slice(&dim.to_le_bytes());
        for x in v {
            out.extend_from_slice(&x.to_le_bytes());
        }
    }
    out
}

/// Decode an embed-cache payload onto the end of `out`. Every length is
/// checked against the bytes that remain **before** anything is
/// allocated for it, so a forged `dim` costs an error, not memory.
pub(crate) fn decode_embed_cache(
    mut bytes: &[u8],
    what: &str,
    out: &mut Vec<(u64, u64, Vec<f32>)>,
) -> Result<()> {
    let le_u64 = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("an 8-byte slice"));
    while !bytes.is_empty() {
        if bytes.len() < CACHE_RECORD_HEAD {
            return Err(corrupt(format!(
                "{what}: {} trailing bytes are not a record",
                bytes.len()
            )));
        }
        let (head, rest) = bytes.split_at(CACHE_RECORD_HEAD);
        let dim = u32::from_le_bytes(head[16..].try_into().expect("a 4-byte slice"));
        let body = usize::try_from(dim)
            .ok()
            .and_then(|d| d.checked_mul(4))
            .filter(|&n| n <= rest.len())
            .ok_or_else(|| {
                corrupt(format!(
                    "{what}: record claims {dim} floats with {} bytes left",
                    rest.len()
                ))
            })?;
        let (floats, rest) = rest.split_at(body);
        let v = floats
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes(b.try_into().expect("a 4-byte chunk")))
            .collect();
        out.push((le_u64(&head[..8]), le_u64(&head[8..16]), v));
        bytes = rest;
    }
    Ok(())
}

/// Decode a text section's bytes as UTF-8.
fn utf8<'a>(bytes: &'a [u8], what: &str) -> Result<&'a str> {
    std::str::from_utf8(bytes).map_err(|_| corrupt(format!("{what}: payload is not UTF-8")))
}

/// The raw text of a section the snapshot must have.
pub(crate) fn section_text<'a>(
    reader: &'a querc_persist::SnapshotReader,
    section: &str,
) -> Result<&'a str> {
    let bytes = reader
        .section(section)
        .ok_or_else(|| corrupt(format!("section {section:?} is missing")))?;
    utf8(bytes, section)
}

/// Parse the JSON section `section`; `None` when the snapshot has none.
pub(crate) fn json_section<T: serde::de::DeserializeOwned>(
    reader: &querc_persist::SnapshotReader,
    section: &str,
) -> Result<Option<T>> {
    reader
        .section(section)
        .map(|bytes| from_json(utf8(bytes, section)?, section))
        .transpose()
}

/// Reject any tree that splits on a feature column past `dim` — the
/// inference path indexes `v[feature]` unchecked.
pub(crate) fn check_tree(tree: &TreeState, dim: usize) -> Result<()> {
    match tree.split_features().find(|&feature| feature >= dim) {
        Some(feature) => Err(corrupt(format!(
            "tree splits on feature {feature} but vectors have dim {dim}"
        ))),
        None => Ok(()),
    }
}

/// [`check_tree`] over every tree of a forest.
pub(crate) fn check_forest(forest: &ForestState, dim: usize) -> Result<()> {
    forest.trees.iter().try_for_each(|t| check_tree(t, dim))
}

/// Validate a classifier snapshot against the dimensionality its owner
/// will feed it. (Shape *consistency* — weight lengths, arena indices —
/// is `querc-learn`'s job on `from_state`; this checks the one thing
/// only the owner knows: the input width.)
pub(crate) fn check_classifier_dim(state: &ClassifierState, dim: usize) -> Result<()> {
    match state {
        ClassifierState::Forest(f) => check_forest(f, dim),
        ClassifierState::Tree(t) => check_tree(t, dim),
        ClassifierState::Knn(k) => {
            // dim == 0 marks an empty training set: nothing to scan, any
            // probe width is safely answered by the majority class.
            if k.dim == 0 || k.dim == dim {
                Ok(())
            } else {
                Err(corrupt(format!(
                    "knn trained at dim {} but vectors have dim {dim}",
                    k.dim
                )))
            }
        }
        ClassifierState::Softmax(s) => {
            if s.cols == dim + 1 {
                Ok(())
            } else {
                Err(corrupt(format!(
                    "softmax has {} columns but vectors have dim {dim} (want dim+1)",
                    s.cols
                )))
            }
        }
    }
}

/// The `manifest` section: what the snapshot claims to contain, used to
/// detect sections lost to truncation-with-a-rewritten-footer.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub(crate) struct ManifestState {
    /// Names of the `app:<name>` sections written.
    pub(crate) apps: Vec<String>,
    /// Names of the registry deployments serialized.
    pub(crate) classifiers: Vec<String>,
}

/// One serialized registry deployment.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub(crate) struct DeploymentState {
    /// Registry key.
    pub(crate) name: String,
    /// Pinned version number at checkpoint time.
    pub(crate) version: u64,
    /// The label this classifier attaches.
    pub(crate) label_name: String,
    /// Cache namespace of its embedder — names the `embedder:` section.
    pub(crate) embedder: u64,
    /// The labeler half.
    pub(crate) labeler: LabelerState,
}

/// The `registry` section: deployments plus the event history.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub(crate) struct RegistryState {
    /// Serializable deployments (non-persistable ones are skipped).
    pub(crate) deployments: Vec<DeploymentState>,
    /// Full deploy/undeploy history, oldest first.
    pub(crate) events: Vec<RegistryEvent>,
}

/// One `app:<name>` section: the header of a persisted app. Its fitted
/// model ([`crate::apps::WorkloadApp::save_model`] output, opaque to
/// this layer) is the raw payload of the [`model_section`] beside it.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub(crate) struct AppState {
    /// Registration key; must match the section's name suffix.
    pub(crate) app: String,
    /// Cache namespace of its embedder — names the `embedder:` section.
    pub(crate) embedder: u64,
}

/// Name of the section holding app `name`'s model payload. Under the
/// `app:` prefix, so tools that total "app bytes" by prefix count it.
pub(crate) fn model_section(name: &str) -> String {
    format!("app:{name}:model")
}

/// Name of the section holding the embedder of cache namespace `ns`.
fn embedder_section(ns: u64) -> String {
    format!("embedder:{ns:016x}")
}

/// Checkpoint side of the one-section-per-namespace rule: exports each
/// distinct embedder once, however many apps and deployments share it.
#[derive(Default)]
pub(crate) struct EmbedderSections {
    /// Namespace → whether that embedder serializes at all.
    exported: HashMap<u64, bool>,
}

impl EmbedderSections {
    /// Make sure `embedder` has its section in `snap`; returns the
    /// namespace to reference it by, or `None` for an embedder that
    /// opts out of persistence.
    pub(crate) fn add(
        &mut self,
        snap: &mut querc_persist::Snapshot,
        embedder: &dyn Embedder,
    ) -> Option<u64> {
        let ns = embedder.cache_namespace();
        let exported = *self.exported.entry(ns).or_insert_with(|| {
            let Some((kind, spec)) = embedder.export_spec() else {
                return false;
            };
            let payload = [kind.as_bytes(), b"\n", spec.as_bytes()].concat();
            snap.add_section(&embedder_section(ns), payload);
            true
        });
        exported.then_some(ns)
    }
}

/// One persisted per-tenant QoS policy override (see
/// [`crate::qos::TenantPolicy`]); `rate_per_sec`/`burst` are both
/// `None` for a tenant with no rate limit.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub(crate) struct QosPolicyState {
    /// Routing key the policy applies to.
    pub(crate) tenant: String,
    /// DRR weight.
    pub(crate) weight: u32,
    /// Token-bucket sustained rate, if rate-limited.
    pub(crate) rate_per_sec: Option<f64>,
    /// Token-bucket burst capacity, if rate-limited.
    pub(crate) burst: Option<f64>,
}

/// The `qos` section: the tenant policy overrides installed at
/// checkpoint time. Written only when QoS is enabled; a snapshot
/// without it restores with no overrides.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub(crate) struct QosSectionState {
    /// Explicit per-tenant overrides, sorted by tenant.
    pub(crate) policies: Vec<QosPolicyState>,
}

/// Restore side of the rule: each `embedder:` section is parsed once,
/// so apps and classifiers that shared one embedder at checkpoint time
/// share one `Arc` (and one cache namespace's memory) after restore.
#[derive(Default)]
pub(crate) struct EmbedderCache {
    map: HashMap<u64, Arc<dyn Embedder>>,
}

impl EmbedderCache {
    pub(crate) fn restore(
        &mut self,
        reader: &querc_persist::SnapshotReader,
        ns: u64,
    ) -> Result<Arc<dyn Embedder>> {
        if let Some(e) = self.map.get(&ns) {
            return Ok(Arc::clone(e));
        }
        let section = embedder_section(ns);
        let (kind, spec) = section_text(reader, &section)?
            .split_once('\n')
            .ok_or_else(|| corrupt(format!("{section:?}: no family line")))?;
        let e = querc_embed::io::restore_embedder(kind, spec)
            .map_err(|err| corrupt(format!("{section:?} ({kind}): {err}")))?;
        // Warm cache entries are keyed by namespace: an embedder that
        // restores to a different function must not inherit them.
        if e.cache_namespace() != ns {
            return Err(corrupt(format!(
                "{section:?} restores to namespace {:016x}",
                e.cache_namespace()
            )));
        }
        self.map.insert(ns, Arc::clone(&e));
        Ok(e)
    }
}

/// Rebuild the app *configuration* for a snapshot section. Label-time
/// knobs (audit thresholds, routing confidence floors) live inside the
/// serialized **model**, so the default-constructed app is behaviorally
/// complete once `load_model` runs; fit-only knobs (tree counts, k)
/// don't matter to a restored model and stay at their defaults.
pub(crate) fn restore_app(
    name: &str,
    embedder: Arc<dyn Embedder>,
) -> Result<Box<dyn DynWorkloadApp>> {
    Ok(match name {
        "audit" => Box::new(AuditApp::new(embedder)),
        "errors" => Box::new(ErrorsApp::new(embedder)),
        "recommend" => Box::new(RecommendApp::new(embedder)),
        "resources" => Box::new(ResourcesApp::new(embedder)),
        "routing" => Box::new(RoutingApp::new(embedder)),
        "summarize" => Box::new(SummarizeApp::new(embedder)),
        other => return Err(corrupt(format!("unknown app in snapshot: {other:?}"))),
    })
}

/// The bodies behind [`WorkloadManager::checkpoint`],
/// [`WorkloadManager::checkpoint_delta`] and [`WorkloadManager::restore`].
impl WorkloadManager {
    pub(crate) fn write_checkpoint(&self, path: impl AsRef<Path>) -> Result<()> {
        use crate::persist::{self, AppState, DeploymentState, ManifestState, RegistryState};
        let encode_failed = || persist::corrupt("snapshot payload failed to serialize");

        let mut snap = querc_persist::Snapshot::new();
        // Each distinct embedder is exported once, into a section of its
        // own that apps and deployments name by cache namespace.
        let mut embedders = persist::EmbedderSections::default();

        let mut deployments = Vec::new();
        for name in self.registry.names() {
            let Some(classifier) = self.registry.get(&name) else {
                continue;
            };
            let Some(version) = self.registry.version(&name) else {
                continue;
            };
            let Some(labeler) = classifier.labeler().export_state() else {
                continue;
            };
            let Some(embedder) = embedders.add(&mut snap, classifier.embedder().as_ref()) else {
                continue;
            };
            deployments.push(DeploymentState {
                name,
                version,
                label_name: classifier.label_name.clone(),
                embedder,
                labeler,
            });
        }
        let registry = RegistryState {
            events: self.registry.history(),
            deployments,
        };

        let mut app_names = Vec::new();
        for (name, entry) in &self.apps {
            let Some(embedder) = &entry.embedder else {
                continue;
            };
            let Some(model) = entry.fitted.save_model() else {
                continue;
            };
            let Some(embedder) = embedders.add(&mut snap, embedder.as_ref()) else {
                continue;
            };
            let header = AppState {
                app: name.clone(),
                embedder,
            };
            snap.add_section(
                &format!("app:{name}"),
                persist::to_json(&header).ok_or_else(encode_failed)?,
            );
            // The model is opaque text: stored as the section's bytes,
            // not escaped into the header's JSON.
            snap.add_section(&persist::model_section(name), model);
            app_names.push(name.clone());
        }

        let manifest = ManifestState {
            apps: app_names,
            classifiers: registry
                .deployments
                .iter()
                .map(|d| d.name.clone())
                .collect(),
        };
        snap.add_section(
            "manifest",
            persist::to_json(&manifest).ok_or_else(encode_failed)?,
        );
        snap.add_section(
            "registry",
            persist::to_json(&registry).ok_or_else(encode_failed)?,
        );

        let cache_entries = self.plane.as_ref().map(|p| p.export()).unwrap_or_default();
        snap.add_section("embed_cache", persist::encode_embed_cache(&cache_entries));

        // Tenant policy overrides, written only when QoS is live; a
        // snapshot without the section restores with none to apply.
        if let Some(qos) = &self.qos {
            let state = persist::QosSectionState {
                policies: qos
                    .policies()
                    .into_iter()
                    .map(|(tenant, p)| persist::QosPolicyState {
                        tenant,
                        weight: p.weight,
                        rate_per_sec: p.rate.map(|r| r.rate_per_sec),
                        burst: p.rate.map(|r| r.burst),
                    })
                    .collect(),
            };
            snap.add_section("qos", persist::to_json(&state).ok_or_else(encode_failed)?);
        }
        snap.write_to(path)?;

        // A full snapshot resets the delta baseline: only keys cached
        // after this point belong in the next checkpoint_delta.
        let mut keys = self.persisted_keys.lock();
        keys.clear();
        keys.extend(cache_entries.iter().map(|(ns, fp, _)| (*ns, *fp)));
        Ok(())
    }

    pub(crate) fn append_checkpoint_delta(&self, path: impl AsRef<Path>) -> Result<()> {
        use crate::persist;
        let mut keys = self.persisted_keys.lock();
        let fresh: Vec<(u64, u64, Vec<f32>)> = self
            .plane
            .as_ref()
            .map(|p| p.export())
            .unwrap_or_default()
            .into_iter()
            .filter(|(ns, fp, _)| !keys.contains(&(*ns, *fp)))
            .collect();
        if fresh.is_empty() {
            return Ok(());
        }
        querc_persist::append_to(
            path,
            &[(
                "embed_cache_delta".to_string(),
                persist::encode_embed_cache(&fresh),
            )],
        )?;
        keys.extend(fresh.iter().map(|(ns, fp, _)| (*ns, *fp)));
        Ok(())
    }

    pub(crate) fn restore_checkpoint(
        path: impl AsRef<Path>,
        cfg: WorkloadManagerConfig,
    ) -> Result<WorkloadManager> {
        use crate::classifier::{QueryClassifier, TrainedLabeler};
        use crate::persist::{self, AppState, EmbedderCache, ManifestState, RegistryState};

        let reader = querc_persist::SnapshotReader::open(path)?;
        let manifest: ManifestState = persist::json_section(&reader, "manifest")?
            .ok_or_else(|| persist::corrupt("snapshot has no manifest section"))?;

        let mut mgr = WorkloadManager::new(cfg);
        let mut embedders = EmbedderCache::default();

        // Tenant QoS policies, when the new process runs with QoS on and
        // the snapshot carries the section. A snapshot written with QoS
        // off simply has none to apply; a QoS snapshot restored into a
        // QoS-disabled config ignores them — both directions interop.
        let policies: Option<persist::QosSectionState> = persist::json_section(&reader, "qos")?;
        if let (Some(qos), Some(state)) = (&mgr.qos, policies) {
            for p in state.policies {
                let rate = match (p.rate_per_sec, p.burst) {
                    (Some(rate_per_sec), Some(burst)) => Some(crate::qos::RateLimit {
                        rate_per_sec,
                        burst,
                    }),
                    (None, None) => None,
                    _ => {
                        return Err(persist::corrupt(format!(
                            "qos policy for {:?} has half a rate limit",
                            p.tenant
                        )))
                    }
                };
                qos.set_policy(
                    &p.tenant,
                    TenantPolicy {
                        weight: p.weight,
                        rate,
                    },
                );
            }
        }

        // Registry first: register_fitted validates `attach_labels`
        // against it, so deployments must be live before any app is.
        let registry: Option<RegistryState> = persist::json_section(&reader, "registry")?;
        if let Some(state) = registry {
            for d in state.deployments {
                let embedder = embedders.restore(&reader, d.embedder)?;
                let labeler = TrainedLabeler::from_state(d.labeler)?;
                if labeler.dim() != embedder.dim() {
                    return Err(persist::corrupt(format!(
                        "classifier {:?}: labeler dim {} but embedder dim {}",
                        d.name,
                        labeler.dim(),
                        embedder.dim()
                    )));
                }
                let classifier = QueryClassifier::new(d.label_name, embedder, labeler);
                mgr.registry
                    .restore_deployment(&d.name, d.version, classifier);
            }
            mgr.registry.restore_history(state.events);
        }

        for name in &manifest.apps {
            let section = format!("app:{name}");
            let state: AppState = persist::json_section(&reader, &section)?.ok_or_else(|| {
                persist::corrupt(format!(
                    "manifest lists {section:?} but the section is missing"
                ))
            })?;
            if state.app != *name {
                return Err(persist::corrupt(format!(
                    "section {section:?} claims to be app {:?}",
                    state.app
                )));
            }
            let embedder = embedders.restore(&reader, state.embedder)?;
            let app = persist::restore_app(name, embedder)?;
            let model = persist::section_text(&reader, &persist::model_section(name))?;
            let model = app.load_model_dyn(model)?;
            mgr.register_fitted(Arc::new(FittedApp::from_parts(app, model)))?;
        }

        // Cache warming last: full-snapshot entries first, then deltas
        // in append order, so insertion order reproduces recency and an
        // undersized new cache keeps the hottest tail.
        if let Some(plane) = &mgr.plane {
            let mut restored: Vec<(u64, u64, Vec<f32>)> = Vec::new();
            for name in ["embed_cache", "embed_cache_delta"] {
                for bytes in reader.sections(name) {
                    persist::decode_embed_cache(bytes, name, &mut restored)?;
                }
            }
            {
                let mut keys = mgr.persisted_keys.lock();
                keys.extend(restored.iter().map(|(ns, fp, _)| (*ns, *fp)));
            }
            plane.preload(restored);
        }
        Ok(mgr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use querc_linalg::Pcg32;

    fn decode(bytes: &[u8]) -> Result<Vec<(u64, u64, Vec<f32>)>> {
        let mut out = Vec::new();
        decode_embed_cache(bytes, "t", &mut out).map(|()| out)
    }

    fn sample() -> Vec<(u64, u64, Vec<f32>)> {
        vec![
            (1, 2, vec![0.0, -0.0, 1.5, -3.25e-7, f32::MIN, f32::MAX]),
            (u64::MAX, 0, vec![]),
            (42, 7, (0..64).map(|i| (i as f32 * 0.1).sin()).collect()),
        ]
    }

    #[test]
    fn embed_cache_records_round_trip_every_bit_pattern() {
        assert!(decode(&encode_embed_cache(&[])).unwrap().is_empty());
        let odd = f32::from_bits(0x7fc0_1234); // NaN with a payload
        let mut entries = sample();
        entries.push((
            9,
            9,
            vec![
                f32::INFINITY,
                f32::NEG_INFINITY,
                odd,
                -0.0,
                f32::MIN_POSITIVE / 2.0,
            ],
        ));
        let bytes = encode_embed_cache(&entries);
        assert_eq!(
            bytes.len(),
            entries
                .iter()
                .map(|(_, _, v)| 20 + 4 * v.len())
                .sum::<usize>()
        );
        let back = decode(&bytes).unwrap();
        assert_eq!(back.len(), entries.len());
        for ((ns, fp, v), (bns, bfp, bv)) in entries.iter().zip(&back) {
            assert_eq!((ns, fp), (bns, bfp));
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
            assert_eq!(bits(v), bits(bv));
        }
    }

    /// Each reader branch by name: a short head, a `dim` that overruns
    /// the section by one float, the largest `dim` there is, and a body
    /// cut mid-float — all errors, none an allocation of `dim` floats.
    #[test]
    fn forged_cache_records_are_corrupt_not_allocations() {
        let good = encode_embed_cache(&sample());
        let corrupt = |bytes: &[u8]| matches!(decode(bytes), Err(QuercError::Corrupt { .. }));
        assert!(corrupt(&good[..CACHE_RECORD_HEAD - 1]), "short head");
        assert!(corrupt(&good[..good.len() - 1]), "body cut mid-float");
        let mut one_over = good.clone();
        one_over[16..20].copy_from_slice(&7u32.to_le_bytes()); // first record holds 6
        assert!(
            corrupt(&one_over[..CACHE_RECORD_HEAD + 6 * 4]),
            "dim one past the end"
        );
        let mut huge = good.clone();
        huge[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(corrupt(&huge), "dim u32::MAX");
    }

    #[test]
    fn fuzzed_cache_payloads_never_panic_or_outgrow_their_bytes() {
        let good = encode_embed_cache(&sample());
        // Where each record's `dim` field starts.
        let dims: Vec<usize> = sample()
            .iter()
            .scan(0, |at, (_, _, v)| {
                let dim_at = *at + 16;
                *at += CACHE_RECORD_HEAD + 4 * v.len();
                Some(dim_at)
            })
            .collect();
        let mut rng = Pcg32::new(0x5eed_cac4e);
        let (mut accepted, mut rejected) = (0, 0);
        for case in 0..4000 {
            let mut evil = good.clone();
            for _ in 0..1 + rng.below(4) {
                // Half the cases aim at a `dim` field, where a hit matters.
                let at = if case % 2 == 0 {
                    dims[rng.below_usize(dims.len())] + rng.below_usize(4)
                } else {
                    rng.below_usize(evil.len())
                };
                evil[at] = rng.next_u32() as u8;
            }
            if case % 4 == 0 {
                evil.truncate(rng.below_usize(evil.len() + 1));
            }
            match decode(&evil) {
                // A forged dim that still fits re-frames the rest; the
                // records it yields tile the payload, byte for byte.
                Ok(entries) => {
                    accepted += 1;
                    let tiled: usize = entries
                        .iter()
                        .map(|(_, _, v)| CACHE_RECORD_HEAD + 4 * v.len())
                        .sum();
                    assert_eq!(tiled, evil.len(), "case {case}");
                }
                Err(e) => {
                    rejected += 1;
                    assert!(
                        matches!(e, QuercError::Corrupt { .. }),
                        "case {case}: {e:?}"
                    );
                }
            }
        }
        assert!(accepted > 100 && rejected > 100, "{accepted} / {rejected}");
    }
}
