//! A binary decision-tree learner (ID3 with the Gini impurity measure).
//!
//! This crate plays the role of scikit-learn's `DecisionTreeClassifier` in
//! the original Manthan3 toolchain. Manthan3 learns, for every existentially
//! quantified variable, a decision tree whose features are the valuations of
//! the variable's Henkin dependencies (and of compatible `Y` variables) in
//! the sampled data, and whose labels are the valuations of the variable
//! itself. The candidate function is then the disjunction of all root→leaf
//! paths that end in a leaf labelled `1`
//! ([`DecisionTree::paths_to`]).
//!
//! # Examples
//!
//! ```
//! use manthan3_dtree::{Dataset, DecisionTree};
//!
//! // Label is the XOR of the two features.
//! let rows = vec![
//!     (vec![false, false], false),
//!     (vec![false, true], true),
//!     (vec![true, false], true),
//!     (vec![true, true], false),
//! ];
//! let dataset = Dataset::from_rows(rows);
//! let tree = DecisionTree::learn(&dataset);
//! assert!(tree.predict(&[true, false]));
//! assert!(!tree.predict(&[true, true]));
//! assert_eq!(tree.training_accuracy(&dataset), 1.0);
//! ```

#![warn(missing_docs)]

mod dataset;
mod tree;

pub use dataset::Dataset;
pub use tree::{DecisionTree, PathLiteral};
