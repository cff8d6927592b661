//! AdaBoost (multiclass SAMME) over depth-2 decision trees.

use crate::tree::DecisionTree;
use crate::Classifier;

/// SAMME AdaBoost ensemble.
#[derive(Debug, Clone)]
pub struct AdaBoost {
    n_estimators: usize,
    seed: u64,
    stumps: Vec<(DecisionTree, f64)>,
    n_classes: usize,
}

impl AdaBoost {
    /// Boost `n_estimators` shallow trees.
    pub fn new(n_estimators: usize, seed: u64) -> Self {
        AdaBoost {
            n_estimators: n_estimators.max(1),
            seed,
            stumps: Vec::new(),
            n_classes: 0,
        }
    }
}

impl Classifier for AdaBoost {
    fn name(&self) -> &'static str {
        "AdaBoost"
    }

    fn fit(&mut self, x: &[Vec<f64>], y: &[usize], n_classes: usize) {
        assert!(!x.is_empty());
        self.n_classes = n_classes;
        self.stumps.clear();
        let n = x.len();
        let mut w = vec![1.0 / n as f64; n];
        let k = n_classes.max(2) as f64;
        for t in 0..self.n_estimators {
            let mut stump = DecisionTree::with_feature_subsample(
                2,
                usize::MAX, // all features; depth is the weak-learner knob
                self.seed ^ (t as u64).wrapping_mul(0x2545f4914f6cdd1d) | 1,
            );
            stump.fit_weighted(x, y, &w, n_classes);
            let pred: Vec<usize> = x.iter().map(|xi| stump.predict_one(xi)).collect();
            let err: f64 = w
                .iter()
                .zip(pred.iter().zip(y))
                .filter(|(_, (p, t))| p != t)
                .map(|(wi, _)| wi)
                .sum();
            let err = err.clamp(1e-10, 1.0 - 1e-10);
            // SAMME weight; a learner no better than chance is dropped and
            // the loop stops (weights would stop being informative).
            let alpha = ((1.0 - err) / err).ln() + (k - 1.0).ln();
            if alpha <= 0.0 {
                break;
            }
            for (wi, (p, t)) in w.iter_mut().zip(pred.iter().zip(y)) {
                if p != t {
                    *wi *= alpha.exp().min(1e6);
                }
            }
            let total: f64 = w.iter().sum();
            for wi in &mut w {
                *wi /= total;
            }
            self.stumps.push((stump, alpha));
        }
        if self.stumps.is_empty() {
            // Degenerate data: keep one unweighted stump as fallback.
            let mut stump = DecisionTree::new(2);
            stump.fit(x, y, n_classes);
            self.stumps.push((stump, 1.0));
        }
    }

    fn predict_one(&self, x: &[f64]) -> usize {
        assert!(!self.stumps.is_empty(), "fit before predict");
        let mut scores = vec![0.0; self.n_classes.max(1)];
        for (stump, alpha) in &self.stumps {
            scores[stump.predict_one(x)] += alpha;
        }
        scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map_or(0, |(c, _)| c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;
    use lf_sparse::Pcg32;

    #[test]
    fn boosting_beats_single_stump() {
        // Nested intervals: one depth-2 tree can't fit; boosting can.
        let mut rng = Pcg32::seed_from_u64(1);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..400 {
            let v = rng.f64_in(-4.0, 4.0);
            let label = usize::from(v.abs() > 1.0 && v.abs() < 3.0);
            x.push(vec![v]);
            y.push(label);
        }
        let mut single = DecisionTree::new(2);
        single.fit(&x, &y, 2);
        let acc_single = accuracy(&y, &single.predict(&x));
        let mut boost = AdaBoost::new(60, 2);
        boost.fit(&x, &y, 2);
        let acc_boost = accuracy(&y, &boost.predict(&x));
        assert!(
            acc_boost > acc_single + 0.03,
            "boosting should help: {acc_single} -> {acc_boost}"
        );
        assert!(acc_boost > 0.9, "boosted accuracy {acc_boost}");
    }

    #[test]
    fn perfect_weak_learner_short_circuits() {
        let x: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let y: Vec<usize> = (0..50).map(|i| usize::from(i >= 25)).collect();
        let mut boost = AdaBoost::new(40, 3);
        boost.fit(&x, &y, 2);
        assert_eq!(accuracy(&y, &boost.predict(&x)), 1.0);
    }

    #[test]
    fn multiclass_samme() {
        let mut rng = Pcg32::seed_from_u64(4);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..300 {
            let label = i % 3;
            x.push(vec![label as f64 * 3.0 + rng.normal() * 0.4]);
            y.push(label);
        }
        let mut boost = AdaBoost::new(30, 5);
        boost.fit(&x, &y, 3);
        assert!(accuracy(&y, &boost.predict(&x)) > 0.95);
    }
}
