//! k-nearest-neighbour classification of page-load fingerprints.
//!
//! The paper frames fingerprinting as reducing the search space for
//! what the victim did; a small k-NN over burst features is the
//! standard baseline classifier for that framing.

use crate::features::{feature_scales, FeatureVector, FEATURE_DIM};

/// One labelled training observation.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledVisit {
    /// Site label.
    pub label: String,
    /// Observed features.
    pub features: FeatureVector,
}

/// A trained k-NN fingerprint classifier.
#[derive(Debug, Clone)]
pub struct Classifier {
    k: usize,
    training: Vec<LabeledVisit>,
    scales: [f64; FEATURE_DIM],
}

impl Classifier {
    /// Trains (memorises) on the labelled visits.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or there are fewer than `k` visits.
    pub fn train(training: Vec<LabeledVisit>, k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        assert!(training.len() >= k, "need at least k training visits");
        let features: Vec<FeatureVector> = training.iter().map(|v| v.features).collect();
        let scales = feature_scales(&features);
        Classifier { k, training, scales }
    }

    /// Classifies an observation: majority label among the k nearest
    /// training visits (ties broken toward the nearer neighbour).
    pub fn classify(&self, observation: &FeatureVector) -> &str {
        let mut by_distance: Vec<(f64, &str)> = self
            .training
            .iter()
            .map(|v| (observation.distance(&v.features, &self.scales), v.label.as_str()))
            .collect();
        by_distance.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        let neighbours = &by_distance[..self.k.min(by_distance.len())];
        // Majority vote; first-encountered (nearest) wins ties.
        let mut best: (&str, usize) = ("", 0);
        for &(_, label) in neighbours {
            let votes = neighbours.iter().filter(|(_, l)| *l == label).count();
            if votes > best.1 {
                best = (label, votes);
            }
        }
        best.0
    }
}

/// Leave-one-out accuracy over a labelled set — the standard small-
/// sample evaluation.
pub fn leave_one_out_accuracy(visits: &[LabeledVisit], k: usize) -> f64 {
    leave_one_out(visits, k).accuracy()
}

/// A (true label, predicted label) count matrix from leave-one-out
/// evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Confusion {
    /// Distinct labels, in first-seen order.
    pub labels: Vec<String>,
    /// `counts[t][p]`: visits of true label `t` predicted as `p`.
    pub counts: Vec<Vec<usize>>,
}

impl Confusion {
    /// Overall accuracy: trace over total.
    pub fn accuracy(&self) -> f64 {
        let total: usize = self.counts.iter().flatten().sum();
        if total == 0 {
            return 0.0;
        }
        let correct: usize = (0..self.labels.len()).map(|i| self.counts[i][i]).sum();
        correct as f64 / total as f64
    }

    /// Renders the matrix as a compact text table.
    pub fn render(&self) -> String {
        let mut out = String::from("true \\ predicted\n");
        for (i, l) in self.labels.iter().enumerate() {
            out.push_str(&format!("{:<14}", l));
            for c in &self.counts[i] {
                out.push_str(&format!(" {c:>3}"));
            }
            out.push('\n');
        }
        out
    }
}

/// Leave-one-out evaluation returning the full confusion matrix.
pub fn leave_one_out(visits: &[LabeledVisit], k: usize) -> Confusion {
    let mut labels: Vec<String> = Vec::new();
    for v in visits {
        if !labels.contains(&v.label) {
            labels.push(v.label.clone());
        }
    }
    let n = labels.len();
    let mut counts = vec![vec![0usize; n]; n];
    if visits.len() >= 2 {
        for i in 0..visits.len() {
            let mut training: Vec<LabeledVisit> = visits.to_vec();
            let held_out = training.remove(i);
            let classifier = Classifier::train(training, k.min(visits.len() - 1));
            let predicted = classifier.classify(&held_out.features).to_string();
            let t = labels.iter().position(|l| *l == held_out.label).expect("seen label");
            if let Some(p) = labels.iter().position(|l| *l == predicted) {
                counts[t][p] += 1;
            }
        }
    }
    Confusion { labels, counts }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn visit(label: &str, v: [f64; FEATURE_DIM]) -> LabeledVisit {
        LabeledVisit { label: label.into(), features: FeatureVector { values: v } }
    }

    fn clustered_set() -> Vec<LabeledVisit> {
        let mut out = Vec::new();
        for i in 0..5 {
            let d = i as f64 * 0.01;
            out.push(visit("a", [1.0 + d, 2.0, 3.0, 0.5, 0.2, 0.1]));
            out.push(visit("b", [5.0 + d, 1.0, 1.0, 1.5, 0.9, 0.8]));
            out.push(visit("c", [0.2 + d, 8.0, 6.0, 0.1, 0.05, 1.5]));
        }
        out
    }

    #[test]
    fn classifies_cluster_members_correctly() {
        let set = clustered_set();
        let classifier = Classifier::train(set.clone(), 3);
        let probe = FeatureVector { values: [1.02, 2.0, 3.0, 0.5, 0.2, 0.1] };
        assert_eq!(classifier.classify(&probe), "a");
        let probe_b = FeatureVector { values: [5.03, 1.0, 1.0, 1.5, 0.9, 0.8] };
        assert_eq!(classifier.classify(&probe_b), "b");
    }

    #[test]
    fn leave_one_out_on_separable_clusters_is_perfect() {
        let acc = leave_one_out_accuracy(&clustered_set(), 3);
        assert!((acc - 1.0).abs() < 1e-12, "accuracy {acc}");
    }

    #[test]
    fn leave_one_out_on_identical_features_is_chance() {
        // All sites look the same ⇒ accuracy collapses toward 1/classes.
        let mut set = Vec::new();
        for i in 0..12 {
            let label = ["a", "b", "c"][i % 3];
            set.push(visit(label, [1.0, 1.0, 1.0, 1.0, 1.0, 1.0]));
        }
        let acc = leave_one_out_accuracy(&set, 3);
        assert!(acc < 0.7, "accuracy {acc} suspiciously high for identical features");
    }

    #[test]
    fn confusion_matrix_diagonal_for_separable_clusters() {
        let c = leave_one_out(&clustered_set(), 3);
        assert_eq!(c.labels.len(), 3);
        assert!((c.accuracy() - 1.0).abs() < 1e-12);
        let text = c.render();
        assert!(text.contains('a') && text.contains("predicted"));
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        Classifier::train(clustered_set(), 0);
    }
}
