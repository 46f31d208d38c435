//! `CandidateHkF`: learning candidate functions from samples
//! (Algorithm 2 of the paper).

use crate::config::Manthan3Config;
use crate::order::DependencyState;
use manthan3_aig::AigRef;
use manthan3_cnf::{Assignment, Var};
use manthan3_dqbf::{Dqbf, HenkinVector};
use manthan3_dtree::{Dataset, DecisionTree};
use std::fmt;

/// A training sample did not cover a variable the learner needs.
///
/// The sampler→learn boundary contract is that every training assignment is
/// at least as wide as the matrix, so each feature and each label variable
/// has a real valuation. Silently defaulting a missing variable to `false`
/// would mislabel training rows (and thereby bias every candidate learned
/// from the batch), so the learner refuses the batch instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NarrowSampleError {
    /// Index of the offending sample in the training batch.
    pub sample_index: usize,
    /// The variable the sample does not cover.
    pub missing: Var,
    /// The sample's actual width (number of variables it assigns).
    pub width: usize,
}

impl fmt::Display for NarrowSampleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "training sample {} is too narrow: it assigns {} variables but the learner \
             needs a valuation for {:?}",
            self.sample_index, self.width, self.missing
        )
    }
}

impl std::error::Error for NarrowSampleError {}

/// The result of learning one candidate function.
#[derive(Debug, Clone)]
pub struct LearnedCandidate {
    /// The candidate function (over the features actually used by the tree).
    pub function: AigRef,
    /// Existential variables that appear in the candidate; the caller must
    /// record them in the dependency state (Algorithm 2, lines 11–12).
    pub used_existentials: Vec<Var>,
    /// Number of decision nodes of the learned tree (diagnostics).
    pub tree_splits: usize,
}

/// Computes the feature set for learning `f_y`: the Henkin dependencies of
/// `y` plus — when enabled — every other existential `y_j` with `H_j ⊆ H_y`
/// that does not already depend on `y` (Algorithm 2, lines 1–4).
pub fn feature_set(
    dqbf: &Dqbf,
    y: Var,
    dependency_state: &DependencyState,
    config: &Manthan3Config,
) -> Vec<Var> {
    let deps = dqbf.dependencies(y);
    let mut features: Vec<Var> = deps.iter().copied().collect();
    if config.use_y_features {
        for &other in dqbf.existentials() {
            if other == y {
                continue;
            }
            if dqbf.dependencies(other).is_subset(deps)
                && dependency_state.allowed_as_feature(y, other)
            {
                features.push(other);
            }
        }
    }
    features
}

/// Learns a candidate function for `y` from the sampled assignments
/// (Algorithm 2).
///
/// The candidate is built into `vector`'s shared AIG as the disjunction of
/// all decision-tree paths ending in a leaf labelled 1; the AIG inputs are
/// labelled with the indices of the corresponding formula variables.
///
/// # Errors
///
/// Returns [`NarrowSampleError`] when a sample does not assign every feature
/// variable or the label `y` — a violation of the sampler→learn boundary
/// contract that would otherwise silently mislabel training rows.
pub fn learn_candidate(
    dqbf: &Dqbf,
    samples: &[Assignment],
    y: Var,
    dependency_state: &DependencyState,
    vector: &mut HenkinVector,
    config: &Manthan3Config,
) -> Result<LearnedCandidate, NarrowSampleError> {
    let features = feature_set(dqbf, y, dependency_state, config);
    let mut dataset = Dataset::new(features.len());
    for (sample_index, sample) in samples.iter().enumerate() {
        let require = |v: Var| {
            sample.get(v).ok_or(NarrowSampleError {
                sample_index,
                missing: v,
                width: sample.len(),
            })
        };
        let row: Vec<bool> = features
            .iter()
            .map(|&v| require(v))
            .collect::<Result<_, _>>()?;
        let label = require(y)?;
        dataset.push(row, label);
    }
    let tree = DecisionTree::learn(&dataset);

    // Disjunction over all paths to label 1 (Algorithm 2, lines 7–10).
    let mut cubes = Vec::new();
    for path in tree.paths_to(true) {
        let cube = path.iter().map(|pl| features[pl.feature].lit(pl.value));
        cubes.push(vector.cube(cube));
    }
    let function = vector.aig_mut().or_list(&cubes);

    let used_existentials: Vec<Var> = tree
        .used_features()
        .into_iter()
        .map(|i| features[i])
        .filter(|v| dqbf.is_existential(*v))
        .collect();

    Ok(LearnedCandidate {
        function,
        used_existentials,
        tree_splits: tree.num_splits(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples_from_bits(num_vars: usize, rows: &[u32]) -> Vec<Assignment> {
        rows.iter()
            .map(|&bits| {
                Assignment::from_values((0..num_vars).map(|i| bits >> i & 1 == 1).collect())
            })
            .collect()
    }

    #[test]
    fn feature_set_respects_henkin_dependencies() {
        let dqbf = Dqbf::paper_example();
        let config = Manthan3Config::default();
        let state = DependencyState::new(dqbf.existentials());
        // y1 (var 3) may only see x1 (var 0); y2/y3 have incomparable or
        // superset dependency sets, so none of them is added for y1.
        let f1 = feature_set(&dqbf, Var::new(3), &state, &config);
        assert_eq!(f1, vec![Var::new(0)]);
        // y2 (var 4) sees {x1, x2} and y1 (H1 ⊂ H2).
        let f2 = feature_set(&dqbf, Var::new(4), &state, &config);
        assert!(f2.contains(&Var::new(0)));
        assert!(f2.contains(&Var::new(1)));
        assert!(f2.contains(&Var::new(3)));
        assert!(!f2.contains(&Var::new(5)));
    }

    #[test]
    fn feature_set_excludes_cyclic_candidates() {
        let dqbf = Dqbf::xor_limitation_example();
        let config = Manthan3Config::default();
        let mut state = DependencyState::new(dqbf.existentials());
        // Suppose y2 (var 4) already depends on y1 (var 3): then y1's feature
        // set may not include y2 — and since H1 != H2 anyway, neither
        // includes the other here.
        state.record_dependency(Var::new(4), Var::new(3));
        let f1 = feature_set(&dqbf, Var::new(3), &state, &config);
        assert!(!f1.contains(&Var::new(4)));
    }

    #[test]
    fn disabling_y_features_restricts_to_dependencies() {
        let dqbf = Dqbf::paper_example();
        let config = Manthan3Config {
            use_y_features: false,
            ..Manthan3Config::default()
        };
        let state = DependencyState::new(dqbf.existentials());
        let f2 = feature_set(&dqbf, Var::new(4), &state, &config);
        assert_eq!(f2, vec![Var::new(0), Var::new(1)]);
    }

    #[test]
    fn learns_the_paper_example_candidates() {
        // Samples from Figure 2 of the paper (variables x1..x3, y1..y3).
        let dqbf = Dqbf::paper_example();
        let config = Manthan3Config::default();
        let state = DependencyState::new(dqbf.existentials());
        // rows: (x1,x2,x3,y1,y2,y3) = (0,0,0,1,1,0), (0,0,1,1,1,1), (1,1,0,0,0,1)
        let samples = samples_from_bits(6, &[0b011000, 0b111100, 0b100011]);
        let mut vector = HenkinVector::new();

        let c1 = learn_candidate(&dqbf, &samples, Var::new(3), &state, &mut vector, &config)
            .expect("full-width samples");
        vector.set(Var::new(3), c1.function);
        // f1 = ¬x1 on these samples.
        assert_eq!(
            vector.eval_one(Var::new(3), &[false, false, false]),
            Some(true)
        );
        assert_eq!(
            vector.eval_one(Var::new(3), &[true, false, false]),
            Some(false)
        );

        let c3 = learn_candidate(&dqbf, &samples, Var::new(5), &state, &mut vector, &config)
            .expect("full-width samples");
        vector.set(Var::new(5), c3.function);
        // f3 = x2 ∨ x3 on these samples.
        for bits in 0..8u32 {
            let values: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(
                vector.eval_one(Var::new(5), &values),
                Some(values[1] || values[2])
            );
        }
        assert!(c3.used_existentials.is_empty());
    }

    #[test]
    fn used_existentials_are_reported() {
        // Make y2's value equal y1 in every sample so the tree uses y1.
        let dqbf = Dqbf::paper_example();
        let config = Manthan3Config::default();
        let state = DependencyState::new(dqbf.existentials());
        let samples = samples_from_bits(6, &[0b011000, 0b111100, 0b000011, 0b100111]);
        let mut vector = HenkinVector::new();
        let c2 = learn_candidate(&dqbf, &samples, Var::new(4), &state, &mut vector, &config)
            .expect("full-width samples");
        // The candidate may or may not use y1, but any reported existential
        // must come from the allowed feature set.
        for v in &c2.used_existentials {
            assert_eq!(*v, Var::new(3));
        }
    }

    #[test]
    fn narrow_samples_are_a_hard_error_not_a_false_default() {
        // A sample covering only the universals (width 3) must not be
        // silently extended with `false` for the label y1 (var 3): the
        // learner refuses the batch with a diagnostic instead.
        let dqbf = Dqbf::paper_example();
        let config = Manthan3Config::default();
        let state = DependencyState::new(dqbf.existentials());
        let mut samples = samples_from_bits(6, &[0b011000, 0b111100]);
        samples.push(Assignment::from_values(vec![true, false, true]));
        let mut vector = HenkinVector::new();
        let err = learn_candidate(&dqbf, &samples, Var::new(3), &state, &mut vector, &config)
            .expect_err("narrow sample must be rejected");
        assert_eq!(err.sample_index, 2);
        assert_eq!(err.missing, Var::new(3));
        assert_eq!(err.width, 3);
        assert!(err.to_string().contains("too narrow"));
    }

    #[test]
    fn constant_labels_give_constant_candidates() {
        let dqbf = Dqbf::paper_example();
        let config = Manthan3Config::default();
        let state = DependencyState::new(dqbf.existentials());
        // y3 is 1 in every sample.
        let samples = samples_from_bits(6, &[0b100000, 0b100001, 0b100010]);
        let mut vector = HenkinVector::new();
        let c = learn_candidate(&dqbf, &samples, Var::new(5), &state, &mut vector, &config)
            .expect("full-width samples");
        vector.set(Var::new(5), c.function);
        assert_eq!(vector.eval_one(Var::new(5), &[false; 6]), Some(true));
        assert_eq!(c.tree_splits, 0);
    }
}
