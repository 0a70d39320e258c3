//! Visualization recognition (§III): a binary classifier that decides
//! whether a candidate visualization node is good or bad. The paper
//! compares decision trees, naive Bayes, and SVM, and adopts the decision
//! tree.

use crate::node::VisNode;
use crate::provenance::{ClassifierEvidence, Outcome, Provenance, TreeStep};
use deepeye_ml::{Dataset, DecisionTree, GaussianNb, LinearSvm, SvmParams, TreeParams};

/// Which classifier backs the recognizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClassifierKind {
    DecisionTree,
    NaiveBayes,
    Svm,
}

impl ClassifierKind {
    pub const ALL: [ClassifierKind; 3] = [
        ClassifierKind::DecisionTree,
        ClassifierKind::NaiveBayes,
        ClassifierKind::Svm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            ClassifierKind::DecisionTree => "DT",
            ClassifierKind::NaiveBayes => "Bayes",
            ClassifierKind::Svm => "SVM",
        }
    }
}

/// A labeled recognition example: the 14-feature vector of a candidate
/// visualization and whether annotators judged it good.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledExample {
    pub features: Vec<f64>,
    pub good: bool,
}

impl LabeledExample {
    pub fn from_node(node: &VisNode, good: bool) -> Self {
        LabeledExample {
            features: node.feature_vector(),
            good,
        }
    }
}

#[derive(Debug, Clone)]
enum Model {
    Tree(DecisionTree),
    Bayes(GaussianNb),
    Svm(LinearSvm),
}

/// A trained visualization recognizer.
#[derive(Debug, Clone)]
pub struct Recognizer {
    kind: ClassifierKind,
    model: Model,
}

impl Recognizer {
    /// Train the chosen classifier on labeled examples.
    pub fn train(kind: ClassifierKind, examples: &[LabeledExample]) -> Self {
        let data = Dataset::new(
            examples.iter().map(|e| e.features.clone()).collect(),
            examples.iter().map(|e| e.good).collect(),
        );
        let model = match kind {
            ClassifierKind::DecisionTree => Model::Tree(DecisionTree::train(
                &data,
                // Conservative leaves: recognition features include raw
                // value magnitudes that vary wildly across datasets, and
                // deep splits on them memorize the training tables.
                TreeParams {
                    max_depth: 12,
                    min_samples_split: 40,
                    min_samples_leaf: 20,
                    min_gain: 1e-6,
                },
            )),
            ClassifierKind::NaiveBayes => Model::Bayes(GaussianNb::fit(&data)),
            ClassifierKind::Svm => Model::Svm(LinearSvm::train(&data, SvmParams::default())),
        };
        Recognizer { kind, model }
    }

    pub fn kind(&self) -> ClassifierKind {
        self.kind
    }

    /// Classify a raw feature vector.
    pub fn predict(&self, features: &[f64]) -> bool {
        match &self.model {
            Model::Tree(m) => m.predict(features),
            Model::Bayes(m) => m.predict(features),
            Model::Svm(m) => m.predict(features),
        }
    }

    /// Is this visualization node good?
    pub fn is_good(&self, node: &VisNode) -> bool {
        self.predict(&node.feature_vector())
    }

    /// The evidence behind [`Recognizer::predict`] for one feature
    /// vector: the CART decision path, the SVM margin, or the Bayes
    /// per-class log-likelihoods.
    pub fn evidence(&self, features: &[f64]) -> ClassifierEvidence {
        match &self.model {
            Model::Tree(m) => {
                let (path, leaf_value) = m.decision_path(features);
                ClassifierEvidence::Tree {
                    path: path
                        .iter()
                        .map(|s| TreeStep {
                            feature: s.feature,
                            threshold: s.threshold,
                            value: s.value,
                            went_left: s.went_left,
                        })
                        .collect(),
                    leaf_value,
                }
            }
            Model::Bayes(m) => {
                let (log_likelihood_good, log_likelihood_bad) = m.log_likelihoods(features);
                ClassifierEvidence::Bayes {
                    log_likelihood_good,
                    log_likelihood_bad,
                }
            }
            Model::Svm(m) => ClassifierEvidence::Svm {
                margin: m.decision(features),
            },
        }
    }

    /// Filter a candidate set down to the nodes judged good.
    pub fn filter_good(&self, nodes: Vec<VisNode>) -> Vec<VisNode> {
        nodes.into_iter().filter(|n| self.is_good(n)).collect()
    }

    /// [`Recognizer::filter_good`] under a `pipeline.recognize` span,
    /// counting `recognize.kept` / `recognize.rejected`, that additionally
    /// records a per-candidate provenance verdict (kept with evidence, or a
    /// classifier-rejected record). With provenance disabled it only
    /// filters and counts, so the hot path stays allocation-free.
    pub fn filter_good_explained(
        &self,
        nodes: Vec<VisNode>,
        obs: &deepeye_obs::Observer,
        prov: &Provenance,
    ) -> Vec<VisNode> {
        let _span = obs.span("pipeline.recognize");
        if !prov.is_enabled() {
            let total = nodes.len() as u64;
            let kept = self.filter_good(nodes);
            obs.incr("recognize.kept", kept.len() as u64);
            obs.incr("recognize.rejected", total - kept.len() as u64);
            return kept;
        }
        let mut kept = Vec::with_capacity(nodes.len());
        let mut rejected = 0u64;
        for node in nodes {
            let features = node.feature_vector();
            let id = node.id();
            let evidence = self.evidence(&features);
            if self.predict(&features) {
                prov.record(&id, |e| {
                    e.outcome = Outcome::Kept;
                    e.classifier = Some(evidence);
                });
                kept.push(node);
            } else {
                prov.record_rejected(&id, Outcome::ClassifierRejected, |e| {
                    e.classifier = Some(evidence);
                });
                rejected += 1;
            }
        }
        let kept_n = kept.len() as u64;
        prov.bump(|c| {
            c.classifier_kept += kept_n;
            c.classifier_rejected += rejected;
        });
        obs.incr("recognize.kept", kept_n);
        obs.incr("recognize.rejected", rejected);
        kept
    }

    /// Serialize the trained recognizer (see `deepeye_ml::persist`).
    pub fn to_text(&self) -> String {
        let (tag, body) = match &self.model {
            Model::Tree(m) => ("dt", m.to_text()),
            Model::Bayes(m) => ("bayes", m.to_text()),
            Model::Svm(m) => ("svm", m.to_text()),
        };
        format!("deepeye-recognizer {tag} v1\n{body}")
    }

    /// Decode a recognizer saved by [`Recognizer::to_text`].
    pub fn from_text(text: &str) -> Result<Self, deepeye_ml::PersistError> {
        let (header, body) = text
            .split_once('\n')
            .ok_or_else(|| deepeye_ml::PersistError {
                message: "missing recognizer header".to_owned(),
            })?;
        match header.trim() {
            "deepeye-recognizer dt v1" => Ok(Recognizer {
                kind: ClassifierKind::DecisionTree,
                model: Model::Tree(DecisionTree::from_text(body)?),
            }),
            "deepeye-recognizer bayes v1" => Ok(Recognizer {
                kind: ClassifierKind::NaiveBayes,
                model: Model::Bayes(GaussianNb::from_text(body)?),
            }),
            "deepeye-recognizer svm v1" => Ok(Recognizer {
                kind: ClassifierKind::Svm,
                model: Model::Svm(LinearSvm::from_text(body)?),
            }),
            other => Err(deepeye_ml::PersistError {
                message: format!("unknown recognizer header {other:?}"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FEATURE_DIM;

    /// Synthetic rule-shaped labels: good iff x-distinct in [2, 20] and the
    /// chart code matches the x-type code parity — axis-aligned like the
    /// §V-A rules.
    fn rule_examples(n: usize) -> Vec<LabeledExample> {
        (0..n)
            .map(|i| {
                let mut features = vec![0.0; FEATURE_DIM];
                features[0] = (i % 40) as f64; // d(X)
                features[5] = (i % 3) as f64; // x type code
                features[13] = (i % 4) as f64; // chart code
                let good = features[0] >= 2.0 && features[0] <= 20.0 && features[13] <= 1.0;
                LabeledExample { features, good }
            })
            .collect()
    }

    #[test]
    fn all_kinds_train_and_predict() {
        let examples = rule_examples(200);
        for kind in ClassifierKind::ALL {
            let r = Recognizer::train(kind, &examples);
            assert_eq!(r.kind(), kind);
            let _ = r.predict(&examples[0].features);
        }
    }

    #[test]
    fn tree_fits_rule_shaped_labels_best() {
        let examples = rule_examples(400);
        let accuracy = |kind| {
            let r = Recognizer::train(kind, &examples);
            let correct = examples
                .iter()
                .filter(|e| r.predict(&e.features) == e.good)
                .count();
            correct as f64 / examples.len() as f64
        };
        let dt = accuracy(ClassifierKind::DecisionTree);
        let nb = accuracy(ClassifierKind::NaiveBayes);
        let svm = accuracy(ClassifierKind::Svm);
        // The paper's key finding, reproduced mechanically: rule-shaped
        // labels are axis-aligned, which a tree recovers and linear /
        // Gaussian models cannot.
        assert!(dt > 0.99, "DT accuracy {dt}");
        assert!(dt > nb, "DT {dt} should beat Bayes {nb}");
        assert!(dt > svm, "DT {dt} should beat SVM {svm}");
    }

    #[test]
    fn names() {
        assert_eq!(ClassifierKind::DecisionTree.name(), "DT");
        assert_eq!(ClassifierKind::NaiveBayes.name(), "Bayes");
        assert_eq!(ClassifierKind::Svm.name(), "SVM");
    }
}
