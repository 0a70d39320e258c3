//! Miniature versions of the paper's headline experimental claims, run as
//! integration tests so `cargo test` proves the reproduction's *shape*
//! without the full harness cost (the `deepeye-bench` binaries run the
//! real thing).

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use deepeye::core::{rank_by_partial_order, ClassifierKind, LtrRanker, Recognizer};
use deepeye::datagen::{
    candidate_nodes, combo_crowd_ranking_examples, combo_evaluation_nodes,
    combo_recognition_examples, combos_of, test_tables, training_tables, PerceptionOracle,
};
use deepeye::ml::{ndcg, Confusion};

const SCALE: f64 = 0.08;

fn f_measure(kind: ClassifierKind, oracle: &PerceptionOracle) -> f64 {
    // Combo granularity (column pair × chart type), like the paper.
    let train = training_tables(SCALE);
    let examples = combo_recognition_examples(&train, oracle);
    let recognizer = Recognizer::train(kind, &examples);
    let test = test_tables(SCALE);
    let mut preds = Vec::new();
    let mut gold = Vec::new();
    for table in &test {
        for combo in combo_evaluation_nodes(table, oracle) {
            preds.push(recognizer.predict(&combo.features));
            gold.push(combo.good);
        }
    }
    Confusion::from_predictions(&preds, &gold).f_measure()
}

#[test]
fn figure_10_shape_dt_wins() {
    let oracle = PerceptionOracle::default();
    let dt = f_measure(ClassifierKind::DecisionTree, &oracle);
    let svm = f_measure(ClassifierKind::Svm, &oracle);
    let bayes = f_measure(ClassifierKind::NaiveBayes, &oracle);
    // The paper's order: DT > SVM > Bayes.
    assert!(
        dt > svm && svm > bayes,
        "DT {dt:.3} vs SVM {svm:.3} vs Bayes {bayes:.3}"
    );
    // The paper-scale harness asserts DT ≈ 95%; at this tiny smoke scale we
    // only require a clearly-working classifier.
    assert!(dt > 0.6, "DT should work even at tiny scale: {dt:.3}");
}

#[test]
fn figure_11_shape_partial_order_beats_ltr() {
    let oracle = PerceptionOracle::default();
    let train = training_tables(SCALE);
    let examples = combo_recognition_examples(&train, &oracle);
    let recognizer = Recognizer::train(ClassifierKind::DecisionTree, &examples);
    let ltr = LtrRanker::fit(&combo_crowd_ranking_examples(&train, &oracle));
    let test = test_tables(SCALE);
    let mut po_total = 0.0;
    let mut ltr_total = 0.0;
    for table in &test {
        // §IV-C: rankers order the classifier-validated charts, judged at
        // combo granularity with the paper's transform-blind features.
        let all = candidate_nodes(table);
        let mut combo_feat = vec![Vec::new(); all.len()];
        for combo in combos_of(table, &all) {
            for &i in &combo.node_indices {
                combo_feat[i] = combo.features.clone();
            }
        }
        let keep: Vec<usize> = (0..all.len())
            .filter(|&i| recognizer.predict(&combo_feat[i]))
            .collect();
        let (nodes, feats): (Vec<_>, Vec<_>) = if keep.len() >= 2 {
            (
                keep.iter().map(|&i| all[i].clone()).collect(),
                keep.iter().map(|&i| combo_feat[i].clone()).collect(),
            )
        } else {
            (all.clone(), combo_feat)
        };
        let rel = deepeye::datagen::dense_relevance(&nodes, &oracle);
        let po_rel: Vec<f64> = rank_by_partial_order(&nodes)
            .iter()
            .map(|&i| rel[i])
            .collect();
        let ltr_rel: Vec<f64> = ltr.rank_features(&feats).iter().map(|&i| rel[i]).collect();
        po_total += ndcg(&po_rel);
        ltr_total += ndcg(&ltr_rel);
    }
    let (po, ltr_score) = (po_total / test.len() as f64, ltr_total / test.len() as f64);
    assert!(
        po > ltr_score,
        "partial order {po:.3} should beat learning-to-rank {ltr_score:.3}"
    );
}

#[test]
fn figure_12_shape_rules_prune_candidates() {
    use deepeye::core::{DeepEye, DeepEyeConfig, EnumerationMode};
    let table = deepeye::datagen::flight_table(9, 400);
    let exhaustive = DeepEye::new(DeepEyeConfig {
        enumeration: EnumerationMode::Exhaustive,
        ..Default::default()
    })
    .candidates(&table)
    .len();
    let ruled = DeepEye::with_defaults().candidates(&table).len();
    assert!(
        ruled * 3 < exhaustive,
        "rules should prune most of the space: {ruled} vs {exhaustive}"
    );
}
