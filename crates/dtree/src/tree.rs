use crate::Dataset;

/// One condition along a root→leaf path: the feature at `feature` must have
/// the value `value`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PathLiteral {
    /// Index of the feature tested by the decision node.
    pub feature: usize,
    /// Required value of the feature along this path.
    pub value: bool,
}

/// Maximum tree depth (number of decision nodes on a path). Below it the
/// tree is grown until every leaf is pure or no feature separates its rows.
const MAX_DEPTH: usize = 16;

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf {
        label: bool,
    },
    Split {
        feature: usize,
        /// Subtree for `feature == false`.
        low: Box<Node>,
        /// Subtree for `feature == true`.
        high: Box<Node>,
    },
}

/// A learned binary decision tree.
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    root: Node,
    num_features: usize,
}

impl DecisionTree {
    /// Learns a tree from `dataset` using the ID3 procedure with the Gini
    /// impurity measure (the configuration used by the Manthan3 paper).
    ///
    /// The tree is grown to purity: a node is split until its rows agree on
    /// the label, no feature separates them, or its path is 16 decisions
    /// deep. Every split leaves rows on both sides, so a tree learned from
    /// `n` rows has at most `n - 1` splits.
    ///
    /// An empty dataset produces a single all-`false` leaf.
    pub fn learn(dataset: &Dataset) -> Self {
        let rows: Vec<usize> = (0..dataset.num_rows()).collect();
        let root = Self::build(dataset, &rows, 0);
        DecisionTree {
            root,
            num_features: dataset.num_features(),
        }
    }

    fn majority_label(dataset: &Dataset, rows: &[usize]) -> bool {
        let pos = rows.iter().filter(|&&i| dataset.label(i)).count();
        2 * pos >= rows.len().max(1) && !rows.is_empty() && pos * 2 >= rows.len()
    }

    fn build(dataset: &Dataset, rows: &[usize], depth: usize) -> Node {
        let label = Self::majority_label(dataset, rows);
        if rows.is_empty() || depth >= MAX_DEPTH || dataset.gini(rows) == 0.0 {
            return Node::Leaf { label };
        }
        // Pick the feature with the best Gini gain.
        let parent_impurity = dataset.gini(rows);
        let mut best: Option<(usize, f64, Vec<usize>, Vec<usize>)> = None;
        for feature in 0..dataset.num_features() {
            let (low, high): (Vec<usize>, Vec<usize>) =
                rows.iter().partition(|&&i| !dataset.features(i)[feature]);
            if low.is_empty() || high.is_empty() {
                continue;
            }
            let n = rows.len() as f64;
            let weighted = dataset.gini(&low) * low.len() as f64 / n
                + dataset.gini(&high) * high.len() as f64 / n;
            // Gini is concave, so the gain is always >= 0; like CART we keep
            // the best split even when the gain is zero (needed e.g. to learn
            // XOR, where no single split reduces the impurity at the root).
            let gain = parent_impurity - weighted;
            if best.as_ref().is_none_or(|(_, g, _, _)| gain > *g + 1e-12) {
                best = Some((feature, gain, low, high));
            }
        }
        match best {
            None => Node::Leaf { label },
            Some((feature, _gain, low, high)) => {
                let low_node = Self::build(dataset, &low, depth + 1);
                let high_node = Self::build(dataset, &high, depth + 1);
                Node::Split {
                    feature,
                    low: Box::new(low_node),
                    high: Box::new(high_node),
                }
            }
        }
    }

    /// Number of features the tree was trained on.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Predicts the label of a feature vector.
    ///
    /// Missing features (indices beyond `features.len()`) are treated as
    /// `false`.
    pub fn predict(&self, features: &[bool]) -> bool {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { label } => return *label,
                Node::Split { feature, low, high } => {
                    let v = features.get(*feature).copied().unwrap_or(false);
                    node = if v { high } else { low };
                }
            }
        }
    }

    /// Fraction of training rows the tree classifies correctly.
    pub fn training_accuracy(&self, dataset: &Dataset) -> f64 {
        if dataset.is_empty() {
            return 1.0;
        }
        let correct = (0..dataset.num_rows())
            .filter(|&i| self.predict(dataset.features(i)) == dataset.label(i))
            .count();
        correct as f64 / dataset.num_rows() as f64
    }

    /// Number of decision (split) nodes.
    pub fn num_splits(&self) -> usize {
        fn count(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 0,
                Node::Split { low, high, .. } => 1 + count(low) + count(high),
            }
        }
        count(&self.root)
    }

    /// Depth of the tree (0 for a single leaf).
    pub fn depth(&self) -> usize {
        fn depth(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 0,
                Node::Split { low, high, .. } => 1 + depth(low).max(depth(high)),
            }
        }
        depth(&self.root)
    }

    /// Returns every root→leaf path whose leaf carries the label `label`,
    /// as a list of conjunctions of [`PathLiteral`]s.
    ///
    /// This is the "disjunction over all paths with class label 1" operation
    /// that Manthan3 uses to turn a learned tree into a candidate Boolean
    /// function: `f = ⋁_{paths to 1} ⋀ PathLiteral`.
    ///
    /// A tree that is a single leaf with the requested label yields one empty
    /// path (the constant-true cube).
    pub fn paths_to(&self, label: bool) -> Vec<Vec<PathLiteral>> {
        let mut out = Vec::new();
        let mut prefix = Vec::new();
        fn walk(
            node: &Node,
            target: bool,
            prefix: &mut Vec<PathLiteral>,
            out: &mut Vec<Vec<PathLiteral>>,
        ) {
            match node {
                Node::Leaf { label } => {
                    if *label == target {
                        out.push(prefix.clone());
                    }
                }
                Node::Split { feature, low, high } => {
                    prefix.push(PathLiteral {
                        feature: *feature,
                        value: false,
                    });
                    walk(low, target, prefix, out);
                    prefix.pop();
                    prefix.push(PathLiteral {
                        feature: *feature,
                        value: true,
                    });
                    walk(high, target, prefix, out);
                    prefix.pop();
                }
            }
        }
        walk(&self.root, label, &mut prefix, &mut out);
        out
    }

    /// Set of feature indices used by some decision node.
    pub fn used_features(&self) -> Vec<usize> {
        fn collect(n: &Node, out: &mut Vec<usize>) {
            if let Node::Split { feature, low, high } = n {
                out.push(*feature);
                collect(low, out);
                collect(high, out);
            }
        }
        let mut out = Vec::new();
        collect(&self.root, &mut out);
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_dataset() -> Dataset {
        Dataset::from_rows(vec![
            (vec![false, false], false),
            (vec![false, true], true),
            (vec![true, false], true),
            (vec![true, true], false),
        ])
    }

    #[test]
    fn learns_xor_exactly() {
        let d = xor_dataset();
        let t = DecisionTree::learn(&d);
        assert_eq!(t.training_accuracy(&d), 1.0);
        assert_eq!(t.depth(), 2);
        assert_eq!(t.used_features(), vec![0, 1]);
    }

    #[test]
    fn learns_constant_function() {
        let d = Dataset::from_rows(vec![(vec![false], true), (vec![true], true)]);
        let t = DecisionTree::learn(&d);
        assert_eq!(t.num_splits(), 0);
        assert!(t.predict(&[false]));
        assert!(t.predict(&[true]));
        // A constant-true leaf yields a single empty path (the "true" cube).
        assert_eq!(t.paths_to(true), vec![Vec::<PathLiteral>::new()]);
        assert!(t.paths_to(false).is_empty());
    }

    #[test]
    fn empty_dataset_defaults_to_false() {
        let d = Dataset::new(3);
        let t = DecisionTree::learn(&d);
        assert!(!t.predict(&[true, true, true]));
        assert!(t.paths_to(true).is_empty());
    }

    #[test]
    fn depth_limit_is_respected() {
        // The conjunction of 17 features: every feature separates the one
        // positive row from one negative row, so a pure tree needs depth 17.
        let n = MAX_DEPTH + 1;
        let mut rows = vec![(vec![true; n], true)];
        for i in 0..n {
            let mut features = vec![true; n];
            features[i] = false;
            rows.push((features, false));
        }
        let d = Dataset::from_rows(rows);
        let t = DecisionTree::learn(&d);
        assert_eq!(t.depth(), MAX_DEPTH);
        assert!(t.training_accuracy(&d) < 1.0);
    }

    #[test]
    fn paths_reconstruct_the_function() {
        let d = xor_dataset();
        let t = DecisionTree::learn(&d);
        let paths = t.paths_to(true);
        // Evaluate the DNF given by the paths and compare with predict().
        let eval_dnf = |features: &[bool]| {
            paths
                .iter()
                .any(|path| path.iter().all(|pl| features[pl.feature] == pl.value))
        };
        for bits in 0..4u32 {
            let f = vec![bits & 1 == 1, bits & 2 == 2];
            assert_eq!(eval_dnf(&f), t.predict(&f));
            assert_eq!(t.predict(&f), f[0] ^ f[1]);
        }
    }

    #[test]
    fn irrelevant_features_are_ignored() {
        // Label depends only on feature 1.
        let rows = (0..16u32)
            .map(|bits| {
                let f: Vec<bool> = (0..4).map(|i| bits >> i & 1 == 1).collect();
                let label = f[1];
                (f, label)
            })
            .collect();
        let d = Dataset::from_rows(rows);
        let t = DecisionTree::learn(&d);
        assert_eq!(t.used_features(), vec![1]);
        assert_eq!(t.training_accuracy(&d), 1.0);
    }

    #[test]
    fn majority_vote_on_noisy_leaf() {
        // Three positive rows, one negative row, no features to split on.
        let d = Dataset::from_rows(vec![
            (vec![], true),
            (vec![], true),
            (vec![], true),
            (vec![], false),
        ]);
        let t = DecisionTree::learn(&d);
        assert!(t.predict(&[]));
        assert_eq!(t.training_accuracy(&d), 0.75);
    }
}
