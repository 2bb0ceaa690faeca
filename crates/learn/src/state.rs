//! Serializable snapshots of trained classifiers — the `Persist`
//! capability of the learn crate.
//!
//! Each labeler exposes `to_state`/`from_state` converting between its
//! private in-memory representation and a flat, derive-friendly state
//! struct; [`ClassifierState`] is the type-erased union the snapshot
//! layer stores. Restoration **validates** everything the inference
//! path would otherwise trust blindly — child indices inside the tree
//! arena, label ranges, matrix shapes — so a corrupt-but-parseable
//! state surfaces [`crate::LearnError::BadState`] instead of an index
//! panic (or an infinite traversal loop) at label time.
//!
//! Restored models are inference-ready clones of the originals: they
//! produce bit-identical predictions, but carry default *build*
//! hyperparameters (split strategy, tree depth, SGD schedule), since
//! those only matter to `fit` and snapshots exist to avoid refitting.

use crate::forest::RandomForest;
use crate::knn::Knn;
use crate::linear::SoftmaxRegression;
use crate::tree::DecisionTree;
use crate::LearnError;
use serde::{json, Deserialize, Serialize};

/// Snapshot of a [`DecisionTree`], one **column** per node field instead
/// of one object per node: the four split columns hold an entry per
/// arena node, root first. A node is a leaf iff its `left` entry is `0`
/// — children always lie strictly after their parent, so `0` is never a
/// child — and a leaf's other three entries are `0` too. Leaf
/// histograms are concatenated in node order in `counts`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TreeState {
    /// Number of classes the tree was fitted with.
    pub n_classes: usize,
    /// Split: feature column compared at this node.
    pub feature: Vec<usize>,
    /// Split: go left iff `x[feature] <= threshold`.
    pub threshold: Vec<f32>,
    /// Split: arena index of the left child; `0` marks a leaf.
    pub left: Vec<usize>,
    /// Split: arena index of the right child.
    pub right: Vec<usize>,
    /// Per-class sample counts, `n_classes` per leaf, in node order.
    pub counts: Vec<u32>,
}

impl TreeState {
    /// The feature column of every split node, in node order — what an
    /// owner checks against the width of the vectors it will feed.
    pub fn split_features(&self) -> impl Iterator<Item = usize> + '_ {
        self.left
            .iter()
            .zip(&self.feature)
            .filter(|(&left, _)| left != 0)
            .map(|(_, &feature)| feature)
    }
}

/// Snapshot of a [`RandomForest`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ForestState {
    /// Number of classes the forest was fitted with.
    pub n_classes: usize,
    /// Per-tree snapshots.
    pub trees: Vec<TreeState>,
}

/// Snapshot of a [`Knn`] classifier (training set + index layout).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KnnState {
    /// Neighborhood size.
    pub k: usize,
    /// `true` = cosine metric, `false` = squared Euclidean.
    pub cosine: bool,
    /// Number of classes.
    pub n_classes: usize,
    /// Training labels, one per stored row.
    pub y: Vec<u32>,
    /// Row dimensionality (`0` only when the training set is empty).
    pub dim: usize,
    /// Training vectors, row-major (`y.len() * dim` floats). Empty for
    /// an SQ8 backend persisted without a re-rank store (`sq8` true,
    /// `rerank == 0`): the codes then carry the whole training set.
    pub rows: Vec<f32>,
    /// `true` = a coarse IVF layer exists (`nprobe`/`centroids`/`lists`
    /// valid) — over f32 rows ([`crate::KnnBackend::Ivf`]) or over SQ8
    /// codes when `sq8` is also set. `false` = single-partition scan.
    pub ivf: bool,
    /// Coarse layer: lists probed per query.
    pub nprobe: usize,
    /// Coarse layer: centroids, row-major (`dim` floats each).
    pub centroids: Vec<f32>,
    /// Coarse layer: `lists[c]` = row ids assigned to centroid `c`.
    pub lists: Vec<Vec<u32>>,
    /// `true` = SQ8 quantized backend ([`crate::KnnBackend::Sq8`]):
    /// `qmin`/`qstep`/`codes` valid.
    pub sq8: bool,
    /// SQ8: exact re-rank breadth (`0` = ADC-only, no f32 rows kept).
    pub rerank: usize,
    /// SQ8: per-dimension quantizer offsets (`dim` floats).
    pub qmin: Vec<f32>,
    /// SQ8: per-dimension quantizer steps (`dim` floats).
    pub qstep: Vec<f32>,
    /// SQ8: codes in original row order (`y.len() * dim` bytes).
    pub codes: Vec<u8>,
}

/// Snapshot of a [`SoftmaxRegression`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SoftmaxState {
    /// Weight-matrix rows (classes).
    pub rows: usize,
    /// Weight-matrix columns (`d + 1`; last column is the bias).
    pub cols: usize,
    /// Weights, row-major (`rows * cols` floats).
    pub w: Vec<f32>,
    /// SGD epochs (refit hyperparameter, round-tripped for fidelity).
    pub epochs: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// L2 regularization strength.
    pub l2: f32,
}

/// Type-erased classifier snapshot — what the persistence plane stores
/// for each fitted labeler.
///
/// Serialized as `{"kind": "...", "state": {...}}` (manual impl; the
/// derive shim has no data-carrying enums).
#[derive(Debug, Clone, PartialEq)]
pub enum ClassifierState {
    /// A [`RandomForest`].
    Forest(ForestState),
    /// A single [`DecisionTree`].
    Tree(TreeState),
    /// A [`Knn`].
    Knn(KnnState),
    /// A [`SoftmaxRegression`].
    Softmax(SoftmaxState),
}

impl ClassifierState {
    /// The `kind` tag used on the wire.
    pub fn kind(&self) -> &'static str {
        match self {
            ClassifierState::Forest(_) => "forest",
            ClassifierState::Tree(_) => "tree",
            ClassifierState::Knn(_) => "knn",
            ClassifierState::Softmax(_) => "softmax",
        }
    }

    /// Rebuild a boxed [`crate::Classifier`] from this snapshot,
    /// validating every index and shape (see module docs).
    pub fn into_classifier(self) -> Result<Box<dyn crate::Classifier>, LearnError> {
        Ok(match self {
            ClassifierState::Forest(s) => Box::new(RandomForest::from_state(s)?),
            ClassifierState::Tree(s) => Box::new(DecisionTree::from_state(s)?),
            ClassifierState::Knn(s) => Box::new(Knn::from_state(s)?),
            ClassifierState::Softmax(s) => Box::new(SoftmaxRegression::from_state(s)?),
        })
    }
}

impl Serialize for ClassifierState {
    fn serialize_json(&self, out: &mut String) {
        out.push_str("{\"kind\":\"");
        out.push_str(self.kind());
        out.push_str("\",\"state\":");
        match self {
            ClassifierState::Forest(s) => s.serialize_json(out),
            ClassifierState::Tree(s) => s.serialize_json(out),
            ClassifierState::Knn(s) => s.serialize_json(out),
            ClassifierState::Softmax(s) => s.serialize_json(out),
        }
        out.push('}');
    }
}

impl Deserialize for ClassifierState {
    fn deserialize_json(v: &json::Value) -> Result<Self, json::Error> {
        let kind = v.field("kind")?.as_str()?;
        let state = v.field("state")?;
        match kind {
            "forest" => Ok(ClassifierState::Forest(ForestState::deserialize_json(
                state,
            )?)),
            "tree" => Ok(ClassifierState::Tree(TreeState::deserialize_json(state)?)),
            "knn" => Ok(ClassifierState::Knn(KnnState::deserialize_json(state)?)),
            "softmax" => Ok(ClassifierState::Softmax(SoftmaxState::deserialize_json(
                state,
            )?)),
            other => Err(json::Error::msg(format!(
                "unknown classifier kind: {other:?}"
            ))),
        }
    }
}

/// Shared helper: reject a bad state with a formatted detail message.
pub(crate) fn bad_state(detail: impl Into<String>) -> LearnError {
    LearnError::BadState {
        detail: detail.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Classifier, ForestConfig, KnnBackend, KnnMetric, TreeConfig};
    use querc_linalg::Pcg32;

    fn blobs(seed: u64, n_per: usize) -> (Vec<Vec<f32>>, Vec<u32>) {
        let mut rng = Pcg32::new(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for (c, &(cx, cy)) in [(0.0f32, 0.0f32), (4.0, 4.0), (0.0, 4.0)]
            .iter()
            .enumerate()
        {
            for _ in 0..n_per {
                x.push(vec![cx + rng.normal() * 0.6, cy + rng.normal() * 0.6]);
                y.push(c as u32);
            }
        }
        (x, y)
    }

    fn probes() -> Vec<Vec<f32>> {
        let mut rng = Pcg32::new(99);
        (0..40)
            .map(|_| vec![rng.range_f32(-1.0, 5.0), rng.range_f32(-1.0, 5.0)])
            .collect()
    }

    /// Round-trip through JSON text, the way the snapshot layer does it.
    fn json_round_trip(state: &ClassifierState) -> ClassifierState {
        let mut s = String::new();
        state.serialize_json(&mut s);
        let v = json::parse(&s).expect("state serializes to valid JSON");
        ClassifierState::deserialize_json(&v).expect("state deserializes")
    }

    #[test]
    fn forest_round_trips_bit_identically() {
        let (x, y) = blobs(1, 40);
        let mut f = RandomForest::new(ForestConfig::extra_trees(12));
        f.fit(&x, &y, 3, &mut Pcg32::new(2));
        let state = ClassifierState::Forest(f.to_state());
        let restored = json_round_trip(&state).into_classifier().unwrap();
        for p in probes() {
            assert_eq!(f.predict(&p), restored.predict(&p));
            assert_eq!(f.predict_proba(&p, 3), restored.predict_proba(&p, 3));
        }
    }

    #[test]
    fn tree_round_trips_bit_identically() {
        let (x, y) = blobs(3, 40);
        let mut t = DecisionTree::new(TreeConfig::default());
        t.fit(&x, &y, 3, &mut Pcg32::new(4));
        let restored = json_round_trip(&ClassifierState::Tree(t.to_state()))
            .into_classifier()
            .unwrap();
        for p in probes() {
            assert_eq!(t.predict(&p), restored.predict(&p));
        }
    }

    #[test]
    fn knn_round_trips_both_backends() {
        let (x, y) = blobs(5, 30);
        for backend in [
            KnnBackend::Exact,
            KnnBackend::Ivf {
                nlist: 3,
                nprobe: 2,
            },
            KnnBackend::Sq8 {
                nlist: 0,
                nprobe: 1,
                rerank_factor: 4,
            },
            KnnBackend::Sq8 {
                nlist: 3,
                nprobe: 2,
                rerank_factor: 0,
            },
        ] {
            let mut knn = Knn::new(3, KnnMetric::Euclidean).with_backend(backend);
            knn.fit(&x, &y, 3, &mut Pcg32::new(6));
            let restored = json_round_trip(&ClassifierState::Knn(knn.to_state()))
                .into_classifier()
                .unwrap();
            for p in probes() {
                assert_eq!(knn.predict(&p), restored.predict(&p), "{backend:?}");
            }
        }
    }

    #[test]
    fn sq8_knn_state_round_trips_codes_and_quantizer_exactly() {
        let (x, y) = blobs(11, 30);
        let mut knn = Knn::new(3, KnnMetric::Euclidean).with_backend(KnnBackend::Sq8 {
            nlist: 3,
            nprobe: 3,
            rerank_factor: 2,
        });
        knn.fit(&x, &y, 3, &mut Pcg32::new(12));
        let state = knn.to_state();
        let round = json_round_trip(&ClassifierState::Knn(state.clone()));
        let ClassifierState::Knn(restored) = round else {
            panic!("expected knn state");
        };
        // f32 JSON text is shortest-round-trip, so the quantizer params
        // and codes come back bit-for-bit.
        assert_eq!(state, restored);
        assert!(restored.sq8 && restored.ivf);
        assert_eq!(restored.codes.len(), restored.y.len() * restored.dim);
    }

    #[test]
    fn softmax_round_trips_bit_identically() {
        let (x, y) = blobs(7, 40);
        let mut m = SoftmaxRegression::default();
        m.fit(&x, &y, 3, &mut Pcg32::new(8));
        let restored = json_round_trip(&ClassifierState::Softmax(m.to_state()))
            .into_classifier()
            .unwrap();
        for p in probes() {
            assert_eq!(m.predict_proba(&p, 3), restored.predict_proba(&p, 3));
        }
    }

    #[test]
    fn export_state_via_trait_object() {
        let (x, y) = blobs(9, 20);
        let mut f = RandomForest::new(ForestConfig::extra_trees(4));
        f.fit(&x, &y, 3, &mut Pcg32::new(10));
        let boxed: Box<dyn Classifier> = Box::new(f);
        let state = boxed.export_state().expect("forests are persistable");
        assert_eq!(state.kind(), "forest");
    }

    /// A one-split, two-leaf tree over two classes.
    fn stump() -> TreeState {
        TreeState {
            n_classes: 2,
            feature: vec![1, 0, 0],
            threshold: vec![0.5, 0.0, 0.0],
            left: vec![1, 0, 0],
            right: vec![2, 0, 0],
            counts: vec![3, 0, 0, 4],
        }
    }

    #[test]
    fn columnar_tree_state_round_trips_and_lists_its_split_features() {
        let tree = DecisionTree::from_state(stump()).unwrap();
        assert_eq!(tree.predict(&[9.0, 0.1]), 0);
        assert_eq!(tree.predict(&[9.0, 0.9]), 1);
        assert_eq!(tree.to_state(), stump());
        assert_eq!(stump().split_features().collect::<Vec<_>>(), [1]);
    }

    #[test]
    fn corrupt_tree_columns_are_rejected_not_looping_or_indexing() {
        let bad = |edit: fn(&mut TreeState)| {
            let mut state = stump();
            edit(&mut state);
            matches!(
                DecisionTree::from_state(state),
                Err(LearnError::BadState { .. })
            )
        };
        // A self-referential split would make `proba` loop forever.
        assert!(bad(|s| s.right[0] = 0));
        assert!(bad(|s| s.left[1] = 1));
        // Children outside the arena.
        assert!(bad(|s| s.right[0] = 7));
        // Columns of different lengths would index out of bounds.
        assert!(bad(|s| s.threshold.truncate(2)));
        assert!(bad(|s| s.feature.push(0)));
        assert!(bad(|s| {
            s.right.pop();
        }));
        // Leaf histograms that do not tile `counts` exactly.
        assert!(bad(|s| s.counts.push(1)));
        assert!(bad(|s| s.counts.truncate(3)));
        assert!(bad(|s| s.n_classes = 3));
    }

    #[test]
    fn corrupt_knn_labels_and_shapes_are_rejected() {
        let base = KnnState {
            k: 1,
            cosine: false,
            n_classes: 2,
            y: vec![0, 1],
            dim: 2,
            rows: vec![0.0; 4],
            ivf: false,
            nprobe: 0,
            centroids: Vec::new(),
            lists: Vec::new(),
            sq8: false,
            rerank: 0,
            qmin: Vec::new(),
            qstep: Vec::new(),
            codes: Vec::new(),
        };
        let mut label_oob = base.clone();
        label_oob.y[1] = 9; // would index past the vote histogram
        assert!(matches!(
            Knn::from_state(label_oob),
            Err(LearnError::BadState { .. })
        ));
        let mut ragged = base.clone();
        ragged.rows.pop();
        assert!(matches!(
            Knn::from_state(ragged),
            Err(LearnError::BadState { .. })
        ));
        let mut zero_k = base;
        zero_k.k = 0;
        assert!(matches!(
            Knn::from_state(zero_k),
            Err(LearnError::InvalidK { .. })
        ));
    }

    #[test]
    fn corrupt_softmax_shape_is_rejected() {
        let evil = SoftmaxState {
            rows: 3,
            cols: 4,
            w: vec![0.0; 5], // != 12
            epochs: 1,
            lr: 0.1,
            l2: 0.0,
        };
        assert!(matches!(
            SoftmaxRegression::from_state(evil),
            Err(LearnError::BadState { .. })
        ));
    }

    #[test]
    fn unknown_kind_is_a_parse_error() {
        let v = json::parse(r#"{"kind":"magic","state":{}}"#).unwrap();
        assert!(ClassifierState::deserialize_json(&v).is_err());
    }

    #[test]
    fn empty_models_round_trip() {
        let mut f = RandomForest::new(ForestConfig::extra_trees(3));
        f.fit(&[], &[], 2, &mut Pcg32::new(1));
        let r = json_round_trip(&ClassifierState::Forest(f.to_state()))
            .into_classifier()
            .unwrap();
        assert_eq!(r.predict(&[1.0, 2.0]), 0);

        let mut knn = Knn::new(3, KnnMetric::Cosine);
        knn.fit(&[], &[], 2, &mut Pcg32::new(2));
        let r = json_round_trip(&ClassifierState::Knn(knn.to_state()))
            .into_classifier()
            .unwrap();
        assert_eq!(r.predict(&[1.0]), 0);
    }
}
