//! Multinomial logistic-regression classifier (the finetuned-model stand-in).
//!
//! Trained with mini-batch SGD + L2 regularization on the engineered feature
//! vectors of [`crate::features`]. Deterministic given the seed. This is the
//! substitute for the paper's finetuned GPT-3.5 / CANINE classifiers; the
//! `+TG` variants correspond to [`FeatureConfig::default`] (tagging features
//! on) and the plain variants to [`FeatureConfig::without_tagging`].

use crate::category::Naturalness;
use crate::features::{featurize, FeatureConfig};
use crate::{Classifier, LabeledIdentifier};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Training hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Number of passes over the training data.
    pub epochs: usize,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// L2 regularization strength.
    pub l2: f64,
    /// Shuffle seed.
    pub seed: u64,
    /// Feature configuration.
    pub features: FeatureConfig,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 60,
            learning_rate: 0.15,
            l2: 1e-4,
            seed: 7,
            features: FeatureConfig::default(),
        }
    }
}

/// A trained softmax classifier: one weight vector per class.
#[derive(Debug, Clone)]
pub struct SoftmaxClassifier {
    name: String,
    weights: [Vec<f64>; 3],
    features: FeatureConfig,
}

fn softmax3(logits: [f64; 3]) -> [f64; 3] {
    let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let exps = logits.map(|l| (l - max).exp());
    let sum: f64 = exps.iter().sum();
    exps.map(|e| e / sum)
}

impl SoftmaxClassifier {
    /// Train on labeled identifiers.
    pub fn train(name: &str, data: &[LabeledIdentifier], config: TrainConfig) -> Self {
        let examples: Vec<(Vec<f64>, usize)> = data
            .iter()
            .map(|l| (featurize(&l.text, config.features), l.label.index()))
            .collect();
        let dim = examples.first().map_or(1, |(f, _)| f.len());
        let mut weights = [vec![0.0; dim], vec![0.0; dim], vec![0.0; dim]];
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut order: Vec<usize> = (0..examples.len()).collect();

        for epoch in 0..config.epochs {
            order.shuffle(&mut rng);
            // Simple learning-rate decay.
            let lr = config.learning_rate / (1.0 + 0.05 * epoch as f64);
            for &i in &order {
                let (x, y) = &examples[i];
                let logits = [
                    dot(&weights[0], x),
                    dot(&weights[1], x),
                    dot(&weights[2], x),
                ];
                let probs = softmax3(logits);
                for (k, w) in weights.iter_mut().enumerate() {
                    let err = probs[k] - if k == *y { 1.0 } else { 0.0 };
                    for (wj, xj) in w.iter_mut().zip(x.iter()) {
                        *wj -= lr * (err * xj + config.l2 * *wj);
                    }
                }
            }
        }
        SoftmaxClassifier { name: name.to_owned(), weights, features: config.features }
    }

    /// Class probabilities for an identifier, ordered `[Regular, Low, Least]`.
    pub fn probabilities(&self, identifier: &str) -> [f64; 3] {
        let x = featurize(identifier, self.features);
        softmax3([
            dot(&self.weights[0], &x),
            dot(&self.weights[1], &x),
            dot(&self.weights[2], &x),
        ])
    }

    /// Learned weights (per class) for inspection.
    pub fn weights(&self) -> &[Vec<f64>; 3] {
        &self.weights
    }
}

fn dot(w: &[f64], x: &[f64]) -> f64 {
    w.iter().zip(x).map(|(a, b)| a * b).sum()
}

impl Classifier for SoftmaxClassifier {
    fn name(&self) -> &str {
        &self.name
    }

    fn classify(&self, identifier: &str) -> Naturalness {
        let probs = self.probabilities(identifier);
        let mut best = 0;
        for k in 1..3 {
            if probs[k] > probs[best] {
                best = k;
            }
        }
        Naturalness::from_index(best).expect("index < 3")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_data() -> Vec<LabeledIdentifier> {
        let regular = [
            "vegetation_height", "service_name", "airbag", "ModelYear", "common_name",
            "water_temperature", "school_district", "employee_count", "species", "location",
            "observation_date", "teacher_name", "crash_severity", "invoice_total",
        ];
        let low = [
            "veg_ht_avg", "svc_nm", "AccountChk", "RecvAsst", "obs_cnt", "sch_dist",
            "emp_no", "loc_cd", "tchr_nm", "inv_tot", "Coord_Syst", "tbl_MicroHabitat",
            "wtr_temp", "crash_sev",
        ];
        let least = [
            "VgHt", "AdCtTxIRWT", "COGM_Act", "DfltSlp", "FNDAbs", "JKWGT12", "EMSGCSEYE",
            "XQZR", "KLMN2", "TTRB", "ZzKp", "QRSN", "WXYB", "PQRM",
        ];
        let mut data = Vec::new();
        for r in regular {
            data.push(LabeledIdentifier::new(r, Naturalness::Regular));
        }
        for l in low {
            data.push(LabeledIdentifier::new(l, Naturalness::Low));
        }
        for l in least {
            data.push(LabeledIdentifier::new(l, Naturalness::Least));
        }
        data
    }

    #[test]
    fn learns_toy_separation() {
        let data = toy_data();
        let clf = SoftmaxClassifier::train("test", &data, TrainConfig::default());
        let correct = data
            .iter()
            .filter(|l| clf.classify(&l.text) == l.label)
            .count();
        assert!(
            correct as f64 / data.len() as f64 > 0.8,
            "train accuracy {correct}/{}",
            data.len()
        );
    }

    #[test]
    fn generalizes_to_unseen() {
        let clf = SoftmaxClassifier::train("test", &toy_data(), TrainConfig::default());
        assert_eq!(clf.classify("student_count"), Naturalness::Regular);
        assert_eq!(clf.classify("XjQw"), Naturalness::Least);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let clf = SoftmaxClassifier::train("test", &toy_data(), TrainConfig::default());
        for id in ["vegetation", "VgHt", "obs_cnt", ""] {
            let p = clf.probabilities(id);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = SoftmaxClassifier::train("a", &toy_data(), TrainConfig::default());
        let b = SoftmaxClassifier::train("b", &toy_data(), TrainConfig::default());
        assert_eq!(a.weights(), b.weights());
    }

    #[test]
    fn empty_training_data_is_safe() {
        let clf = SoftmaxClassifier::train("empty", &[], TrainConfig::default());
        // Untrained weights → uniform prediction, but no panic.
        let _ = clf.classify("anything");
    }

    #[test]
    fn softmax3_is_normalized() {
        let p = softmax3([1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }
}
