//! CART-style decision trees with exact or randomized (extra-trees) splits.

use crate::state::{bad_state, ClassifierState, TreeState};
use crate::{Classifier, LearnError};
use querc_linalg::Pcg32;

/// How split thresholds are chosen at each node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitStrategy {
    /// Exact CART: scan sorted feature values for the best Gini split.
    Best,
    /// Extra-trees: draw one uniform threshold per candidate feature
    /// between its min and max at the node. Much faster, and the variant
    /// behind the "randomized decision trees" the paper's §5.2 uses (the
    /// randomness washes out across a forest).
    Random,
}

/// Decision-tree hyperparameters.
#[derive(Debug, Clone)]
pub struct TreeConfig {
    pub max_depth: usize,
    /// Number of candidate features per node; `None` = all features.
    pub max_features: Option<usize>,
    pub strategy: SplitStrategy,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 24,
            max_features: None,
            strategy: SplitStrategy::Best,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        /// Class-count histogram at the leaf, normalized lazily.
        counts: Vec<u32>,
    },
    Split {
        feature: usize,
        threshold: f32,
        /// Index of the left child in the node arena.
        left: usize,
        /// Index of the right child in the node arena.
        right: usize,
    },
}

/// A trained decision tree (arena representation — no recursion on drop,
/// cache-friendly traversal).
#[derive(Debug, Clone)]
pub struct DecisionTree {
    cfg: TreeConfig,
    nodes: Vec<Node>,
    n_classes: usize,
}

impl DecisionTree {
    pub fn new(cfg: TreeConfig) -> Self {
        DecisionTree {
            cfg,
            nodes: Vec::new(),
            n_classes: 0,
        }
    }

    /// Number of nodes (diagnostic).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Class-probability distribution for one sample.
    pub fn proba(&self, x: &[f32]) -> Vec<f32> {
        if self.nodes.is_empty() {
            return vec![0.0; self.n_classes.max(1)];
        }
        let mut idx = 0usize;
        loop {
            match &self.nodes[idx] {
                Node::Leaf { counts } => {
                    let total: u32 = counts.iter().sum();
                    return if total == 0 {
                        vec![1.0 / counts.len().max(1) as f32; counts.len()]
                    } else {
                        counts.iter().map(|&c| c as f32 / total as f32).collect()
                    };
                }
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    idx = if x.get(*feature).copied().unwrap_or(0.0) <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Snapshot the fitted arena as a columnar [`TreeState`].
    pub fn to_state(&self) -> TreeState {
        let n = self.nodes.len();
        let mut state = TreeState {
            n_classes: self.n_classes,
            feature: vec![0; n],
            threshold: vec![0.0; n],
            left: vec![0; n],
            right: vec![0; n],
            counts: Vec::new(),
        };
        for (i, node) in self.nodes.iter().enumerate() {
            match node {
                Node::Leaf { counts } => state.counts.extend_from_slice(counts),
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    state.feature[i] = *feature;
                    state.threshold[i] = *threshold;
                    state.left[i] = *left;
                    state.right[i] = *right;
                }
            }
        }
        state
    }

    /// Rebuild an inference-ready tree from a snapshot, validating the
    /// arena so traversal can neither index out of bounds nor loop:
    /// the columns must agree in length, every split's children must
    /// point strictly forward (the invariant `build` produces) and the
    /// leaf histograms must be exactly `n_classes` wide each. Restored
    /// trees carry a default [`TreeConfig`] (only `fit` reads it).
    pub fn from_state(state: TreeState) -> Result<DecisionTree, LearnError> {
        let n = state.left.len();
        if [
            state.feature.len(),
            state.threshold.len(),
            state.right.len(),
        ] != [n; 3]
        {
            return Err(bad_state(format!(
                "tree columns disagree: {} features, {} thresholds, {n} left and {} right children",
                state.feature.len(),
                state.threshold.len(),
                state.right.len()
            )));
        }
        let leaves = state.left.iter().filter(|&&left| left == 0).count();
        if leaves.checked_mul(state.n_classes) != Some(state.counts.len()) {
            return Err(bad_state(format!(
                "{leaves} leaves of {} classes need {} counts, found {}",
                state.n_classes,
                leaves.saturating_mul(state.n_classes),
                state.counts.len()
            )));
        }
        let mut histograms = state.counts.chunks_exact(state.n_classes.max(1));
        let nodes = (0..n)
            .map(|i| {
                let (left, right) = (state.left[i], state.right[i]);
                if left == 0 {
                    let counts = histograms.next().map_or_else(Vec::new, <[u32]>::to_vec);
                    return Ok(Node::Leaf { counts });
                }
                // Children strictly after the parent ⇒ acyclic and
                // in-bounds, so `proba`'s loop always terminates.
                if left <= i || right <= i || left >= n || right >= n {
                    return Err(bad_state(format!(
                        "split {i}: children ({left}, {right}) outside the forward arena of {n}"
                    )));
                }
                Ok(Node::Split {
                    feature: state.feature[i],
                    threshold: state.threshold[i],
                    left,
                    right,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(DecisionTree {
            cfg: TreeConfig::default(),
            nodes,
            n_classes: state.n_classes,
        })
    }

    fn build(
        &mut self,
        x: &[Vec<f32>],
        y: &[u32],
        indices: &mut [usize],
        depth: usize,
        rng: &mut Pcg32,
    ) -> usize {
        let counts = class_counts(y, indices, self.n_classes);
        let n = indices.len();
        // A node of fewer than two samples is pure, so it always ends here.
        let pure = counts.iter().filter(|&&c| c > 0).count() <= 1;
        if pure || depth >= self.cfg.max_depth {
            self.nodes.push(Node::Leaf { counts });
            return self.nodes.len() - 1;
        }
        let Some((feature, threshold)) = self.find_split(x, y, indices, &counts, rng) else {
            self.nodes.push(Node::Leaf { counts });
            return self.nodes.len() - 1;
        };
        // Partition indices in place.
        let mid = partition(indices, |&i| x[i][feature] <= threshold);
        if mid == 0 || mid == n {
            self.nodes.push(Node::Leaf { counts });
            return self.nodes.len() - 1;
        }
        let node_idx = self.nodes.len();
        self.nodes.push(Node::Split {
            feature,
            threshold,
            left: usize::MAX,
            right: usize::MAX,
        });
        let (left_ids, right_ids) = indices.split_at_mut(mid);
        let left = self.build(x, y, left_ids, depth + 1, rng);
        let right = self.build(x, y, right_ids, depth + 1, rng);
        if let Node::Split {
            left: l, right: r, ..
        } = &mut self.nodes[node_idx]
        {
            *l = left;
            *r = right;
        }
        node_idx
    }

    fn find_split(
        &self,
        x: &[Vec<f32>],
        y: &[u32],
        indices: &[usize],
        parent_counts: &[u32],
        rng: &mut Pcg32,
    ) -> Option<(usize, f32)> {
        let n_features = x.first().map_or(0, Vec::len);
        if n_features == 0 {
            return None;
        }
        let k = self
            .cfg
            .max_features
            .unwrap_or(n_features)
            .clamp(1, n_features);
        let candidates: Vec<usize> = if k == n_features {
            (0..n_features).collect()
        } else {
            rng.sample_indices(n_features, k)
        };
        let parent_gini = gini(parent_counts, indices.len() as f32);
        let mut best: Option<(f32, usize, f32)> = None; // (impurity, feat, thresh)
        for &f in &candidates {
            let split = match self.cfg.strategy {
                SplitStrategy::Random => random_threshold(x, indices, f, rng)
                    .map(|t| (weighted_gini(x, y, indices, f, t, self.n_classes), t)),
                SplitStrategy::Best => best_threshold(x, y, indices, f, self.n_classes),
            };
            if let Some((impurity, thresh)) = split {
                if impurity < parent_gini - 1e-7 && best.is_none_or(|(bi, _, _)| impurity < bi) {
                    best = Some((impurity, f, thresh));
                }
            }
        }
        best.map(|(_, f, t)| (f, t))
    }
}

impl Classifier for DecisionTree {
    fn fit(&mut self, x: &[Vec<f32>], y: &[u32], n_classes: usize, rng: &mut Pcg32) {
        assert_eq!(x.len(), y.len());
        assert!(n_classes > 0);
        self.nodes.clear();
        self.n_classes = n_classes;
        if x.is_empty() {
            self.nodes.push(Node::Leaf {
                counts: vec![0; n_classes],
            });
            return;
        }
        let mut indices: Vec<usize> = (0..x.len()).collect();
        self.build(x, y, &mut indices, 0, rng);
    }

    fn predict(&self, x: &[f32]) -> u32 {
        let p = self.proba(x);
        querc_linalg::stats::argmax(&p).unwrap_or(0) as u32
    }

    fn predict_proba(&self, x: &[f32], n_classes: usize) -> Vec<f32> {
        let mut p = self.proba(x);
        p.resize(n_classes, 0.0);
        p
    }

    fn export_state(&self) -> Option<ClassifierState> {
        Some(ClassifierState::Tree(self.to_state()))
    }
}

fn class_counts(y: &[u32], indices: &[usize], n_classes: usize) -> Vec<u32> {
    let mut counts = vec![0u32; n_classes];
    for &i in indices {
        counts[y[i] as usize] += 1;
    }
    counts
}

fn gini(counts: &[u32], total: f32) -> f32 {
    if total <= 0.0 {
        return 0.0;
    }
    let mut g = 1.0;
    for &c in counts {
        let p = c as f32 / total;
        g -= p * p;
    }
    g
}

/// Uniform random threshold between the feature's min and max at the node.
fn random_threshold(x: &[Vec<f32>], indices: &[usize], f: usize, rng: &mut Pcg32) -> Option<f32> {
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for &i in indices {
        let v = x[i][f];
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if hi <= lo {
        return None;
    }
    Some(rng.range_f32(lo, hi))
}

/// Weighted Gini impurity of the two children induced by `thresh`.
fn weighted_gini(
    x: &[Vec<f32>],
    y: &[u32],
    indices: &[usize],
    f: usize,
    thresh: f32,
    n_classes: usize,
) -> f32 {
    let mut left = vec![0u32; n_classes];
    let mut right = vec![0u32; n_classes];
    for &i in indices {
        if x[i][f] <= thresh {
            left[y[i] as usize] += 1;
        } else {
            right[y[i] as usize] += 1;
        }
    }
    let nl: u32 = left.iter().sum();
    let nr: u32 = right.iter().sum();
    let total = (nl + nr) as f32;
    (nl as f32 / total) * gini(&left, nl as f32) + (nr as f32 / total) * gini(&right, nr as f32)
}

/// Exact best split on one feature via a sorted sweep.
fn best_threshold(
    x: &[Vec<f32>],
    y: &[u32],
    indices: &[usize],
    f: usize,
    n_classes: usize,
) -> Option<(f32, f32)> {
    let mut vals: Vec<(f32, u32)> = indices.iter().map(|&i| (x[i][f], y[i])).collect();
    vals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let n = vals.len();
    let mut right = vec![0u32; n_classes];
    for &(_, c) in &vals {
        right[c as usize] += 1;
    }
    let mut left = vec![0u32; n_classes];
    let mut best: Option<(f32, f32)> = None;
    for k in 0..n - 1 {
        let c = vals[k].1 as usize;
        left[c] += 1;
        right[c] -= 1;
        if vals[k].0 == vals[k + 1].0 {
            continue; // can't split between equal values
        }
        let nl = (k + 1) as f32;
        let nr = (n - k - 1) as f32;
        let impurity = (nl / n as f32) * gini(&left, nl) + (nr / n as f32) * gini(&right, nr);
        let thresh = 0.5 * (vals[k].0 + vals[k + 1].0);
        if best.is_none_or(|(bi, _)| impurity < bi) {
            best = Some((impurity, thresh));
        }
    }
    best
}

/// In-place stable-ish partition; returns the count of elements matching
/// the predicate (which end up first).
fn partition<T, F: Fn(&T) -> bool>(items: &mut [T], pred: F) -> usize {
    let mut mid = 0;
    for i in 0..items.len() {
        if pred(&items[i]) {
            items.swap(i, mid);
            mid += 1;
        }
    }
    mid
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_data() -> (Vec<Vec<f32>>, Vec<u32>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        let mut rng = Pcg32::new(1);
        for _ in 0..200 {
            let a = rng.f32();
            let b = rng.f32();
            x.push(vec![a, b]);
            y.push(((a > 0.5) ^ (b > 0.5)) as u32);
        }
        (x, y)
    }

    #[test]
    fn learns_xor_with_best_splits() {
        let (x, y) = xor_data();
        let mut tree = DecisionTree::new(TreeConfig::default());
        let mut rng = Pcg32::new(2);
        tree.fit(&x, &y, 2, &mut rng);
        let preds = tree.predict_batch(&x);
        let acc = preds.iter().zip(&y).filter(|(p, t)| p == t).count() as f32 / y.len() as f32;
        assert!(acc > 0.95, "xor training accuracy {acc}");
    }

    #[test]
    fn random_splits_also_learn_xor() {
        let (x, y) = xor_data();
        let mut tree = DecisionTree::new(TreeConfig {
            strategy: SplitStrategy::Random,
            ..Default::default()
        });
        let mut rng = Pcg32::new(3);
        tree.fit(&x, &y, 2, &mut rng);
        let preds = tree.predict_batch(&x);
        let acc = preds.iter().zip(&y).filter(|(p, t)| p == t).count() as f32 / y.len() as f32;
        assert!(acc > 0.9, "xor training accuracy {acc}");
    }

    #[test]
    fn max_depth_limits_tree() {
        let (x, y) = xor_data();
        let mut stump = DecisionTree::new(TreeConfig {
            max_depth: 1,
            ..Default::default()
        });
        let mut rng = Pcg32::new(4);
        stump.fit(&x, &y, 2, &mut rng);
        assert!(stump.node_count() <= 3, "depth-1 tree has ≤ 3 nodes");
    }

    #[test]
    fn pure_node_becomes_leaf_immediately() {
        let x = vec![vec![0.0], vec![1.0], vec![2.0]];
        let y = vec![1, 1, 1];
        let mut tree = DecisionTree::new(TreeConfig::default());
        let mut rng = Pcg32::new(5);
        tree.fit(&x, &y, 2, &mut rng);
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.predict(&[0.5]), 1);
    }

    #[test]
    fn proba_sums_to_one() {
        let (x, y) = xor_data();
        let mut tree = DecisionTree::new(TreeConfig {
            max_depth: 3,
            ..Default::default()
        });
        let mut rng = Pcg32::new(6);
        tree.fit(&x, &y, 2, &mut rng);
        let p = tree.proba(&[0.3, 0.8]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn constant_features_give_single_leaf() {
        let x = vec![vec![1.0, 1.0]; 10];
        let y = vec![0, 1, 0, 1, 0, 1, 0, 1, 0, 1];
        let mut tree = DecisionTree::new(TreeConfig::default());
        let mut rng = Pcg32::new(7);
        tree.fit(&x, &y, 2, &mut rng);
        assert_eq!(tree.node_count(), 1, "no split possible on constants");
    }

    #[test]
    fn deterministic_under_seed() {
        let (x, y) = xor_data();
        let cfg = TreeConfig {
            strategy: SplitStrategy::Random,
            max_features: Some(1),
            ..Default::default()
        };
        let mut t1 = DecisionTree::new(cfg.clone());
        let mut t2 = DecisionTree::new(cfg);
        t1.fit(&x, &y, 2, &mut Pcg32::new(9));
        t2.fit(&x, &y, 2, &mut Pcg32::new(9));
        for probe in [[0.1, 0.9], [0.6, 0.2], [0.5, 0.5]] {
            assert_eq!(t1.predict(&probe), t2.predict(&probe));
        }
    }

    #[test]
    fn multiclass_blobs() {
        let mut rng = Pcg32::new(11);
        let mut x = Vec::new();
        let mut y = Vec::new();
        let centers = [(0.0f32, 0.0f32), (5.0, 5.0), (0.0, 5.0)];
        for (c, &(cx, cy)) in centers.iter().enumerate() {
            for _ in 0..50 {
                x.push(vec![cx + rng.normal() * 0.5, cy + rng.normal() * 0.5]);
                y.push(c as u32);
            }
        }
        let mut tree = DecisionTree::new(TreeConfig::default());
        tree.fit(&x, &y, 3, &mut rng);
        assert_eq!(tree.predict(&[0.0, 0.0]), 0);
        assert_eq!(tree.predict(&[5.0, 5.0]), 1);
        assert_eq!(tree.predict(&[0.0, 5.0]), 2);
    }
}
