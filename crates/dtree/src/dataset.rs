/// A supervised binary dataset: rows of Boolean feature vectors with Boolean
/// labels.
///
/// All rows must have the same number of features.
///
/// # Examples
///
/// ```
/// use manthan3_dtree::Dataset;
/// let d = Dataset::from_rows(vec![(vec![true, false], true), (vec![false, false], false)]);
/// assert_eq!(d.num_rows(), 2);
/// assert_eq!(d.num_features(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Dataset {
    features: Vec<Vec<bool>>,
    labels: Vec<bool>,
}

impl Dataset {
    /// Creates an empty dataset with the given number of features.
    pub fn new(num_features: usize) -> Self {
        let _ = num_features;
        Dataset {
            features: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// Builds a dataset from `(features, label)` rows.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent feature counts.
    pub fn from_rows(rows: Vec<(Vec<bool>, bool)>) -> Self {
        let mut d = Dataset::default();
        for (f, l) in rows {
            d.push(f, l);
        }
        d
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if `features` has a different length from earlier rows.
    pub fn push(&mut self, features: Vec<bool>, label: bool) {
        if let Some(first) = self.features.first() {
            assert_eq!(
                first.len(),
                features.len(),
                "inconsistent feature count in dataset"
            );
        }
        self.features.push(features);
        self.labels.push(label);
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.features.len()
    }

    /// Returns `true` if the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Number of features per row (0 for an empty dataset).
    pub fn num_features(&self) -> usize {
        self.features.first().map_or(0, |f| f.len())
    }

    /// Feature vector of row `i`.
    pub fn features(&self, i: usize) -> &[bool] {
        &self.features[i]
    }

    /// Label of row `i`.
    pub fn label(&self, i: usize) -> bool {
        self.labels[i]
    }

    /// Gini impurity of the label distribution of the rows indexed by `rows`.
    pub fn gini(&self, rows: &[usize]) -> f64 {
        if rows.is_empty() {
            return 0.0;
        }
        let pos = rows.iter().filter(|&&i| self.labels[i]).count() as f64;
        let n = rows.len() as f64;
        let p = pos / n;
        2.0 * p * (1.0 - p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_access() {
        let mut d = Dataset::new(2);
        d.push(vec![true, false], true);
        d.push(vec![false, false], false);
        assert_eq!(d.num_rows(), 2);
        assert_eq!(d.num_features(), 2);
        assert_eq!(d.features(0), &[true, false]);
        assert!(d.label(0));
    }

    #[test]
    #[should_panic(expected = "inconsistent feature count")]
    fn inconsistent_rows_panic() {
        let mut d = Dataset::new(2);
        d.push(vec![true, false], true);
        d.push(vec![true], false);
    }

    #[test]
    fn gini_extremes() {
        let d = Dataset::from_rows(vec![
            (vec![true], true),
            (vec![false], true),
            (vec![true], false),
            (vec![false], false),
        ]);
        let all: Vec<usize> = (0..4).collect();
        assert!((d.gini(&all) - 0.5).abs() < 1e-9);
        assert_eq!(d.gini(&[0, 1]), 0.0);
        assert_eq!(d.gini(&[]), 0.0);
    }
}
