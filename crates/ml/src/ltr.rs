//! LambdaMART learning-to-rank (§III of the paper, citing Burges et al.).
//!
//! A gradient-boosted ensemble of regression trees trained with lambda
//! gradients: for every pair of documents in a query where one out-ranks
//! the other, the model receives a push proportional to the NDCG change of
//! swapping them. Leaf outputs use the Newton step
//! `Σλ / Σw` as in the reference implementation.

use crate::tree::{RegressionTree, TreeParams};

/// One ranking "query": a list of candidates (feature vectors) with graded
/// relevance labels. In DeepEye a query is one dataset's candidate
/// visualizations and the grades come from the human (here: oracle) ranking.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryGroup {
    pub features: Vec<Vec<f64>>,
    pub relevance: Vec<f64>,
}

impl QueryGroup {
    pub fn new(features: Vec<Vec<f64>>, relevance: Vec<f64>) -> Self {
        assert_eq!(
            features.len(),
            relevance.len(),
            "feature/relevance mismatch"
        );
        QueryGroup {
            features,
            relevance,
        }
    }

    pub fn len(&self) -> usize {
        self.relevance.len()
    }

    pub fn is_empty(&self) -> bool {
        self.relevance.is_empty()
    }
}

/// LambdaMART hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LambdaMartParams {
    /// Number of boosting rounds (trees).
    pub trees: usize,
    /// Shrinkage applied to each tree's output.
    pub learning_rate: f64,
    /// Weak-learner shape.
    pub tree: TreeParams,
}

impl Default for LambdaMartParams {
    fn default() -> Self {
        LambdaMartParams {
            trees: 60,
            learning_rate: 0.1,
            tree: TreeParams {
                max_depth: 4,
                min_samples_split: 4,
                min_samples_leaf: 2,
                min_gain: 1e-9,
            },
        }
    }
}

/// A trained LambdaMART ranker.
#[derive(Debug, Clone, PartialEq)]
pub struct LambdaMart {
    trees: Vec<RegressionTree>,
}

/// Position discount `1 / log2(pos + 2)` for 0-based positions.
fn discount(pos: usize) -> f64 {
    1.0 / (pos as f64 + 2.0).log2()
}

fn gain(rel: f64) -> f64 {
    2f64.powf(rel) - 1.0
}

/// Max DCG of a group (ideal ordering); 0 when nothing is relevant.
fn max_dcg(relevance: &[f64]) -> f64 {
    let mut sorted: Vec<f64> = relevance.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    sorted
        .iter()
        .enumerate()
        .map(|(i, &r)| gain(r) * discount(i))
        .sum()
}

impl LambdaMart {
    /// Train on the given query groups.
    pub fn train(groups: &[QueryGroup], params: LambdaMartParams) -> Self {
        let total_docs: usize = groups.iter().map(QueryGroup::len).sum();
        // Flatten features once; remember each group's offset.
        let mut flat_features: Vec<Vec<f64>> = Vec::with_capacity(total_docs);
        let mut offsets = Vec::with_capacity(groups.len());
        for g in groups {
            offsets.push(flat_features.len());
            flat_features.extend(g.features.iter().cloned());
        }
        let max_dcgs: Vec<f64> = groups.iter().map(|g| max_dcg(&g.relevance)).collect();

        let mut scores = vec![0.0f64; total_docs];
        let mut trees = Vec::with_capacity(params.trees);
        let mut lambdas = vec![0.0f64; total_docs];
        let mut weights = vec![0.0f64; total_docs];

        for _ in 0..params.trees {
            lambdas.iter_mut().for_each(|l| *l = 0.0);
            weights.iter_mut().for_each(|w| *w = 0.0);

            for (gi, g) in groups.iter().enumerate() {
                if max_dcgs[gi] <= 0.0 || g.len() < 2 {
                    continue;
                }
                let base = offsets[gi];
                // Rank positions under the current scores (descending).
                let mut order: Vec<usize> = (0..g.len()).collect();
                order.sort_by(|&a, &b| scores[base + b].total_cmp(&scores[base + a]));
                let mut position = vec![0usize; g.len()];
                for (pos, &doc) in order.iter().enumerate() {
                    position[doc] = pos;
                }
                // Group documents by relevance level so only the pairs
                // with rel_i > rel_j are ever touched — in visualization
                // ranking most candidates share the lowest grade, which
                // makes this far cheaper than the naive n² double loop.
                let mut levels: Vec<(f64, Vec<usize>)> = Vec::new();
                for (doc, &rel) in g.relevance.iter().enumerate() {
                    match levels.iter_mut().find(|(r, _)| *r == rel) {
                        Some((_, docs)) => docs.push(doc),
                        None => levels.push((rel, vec![doc])),
                    }
                }
                levels.sort_by(|a, b| b.0.total_cmp(&a.0));
                for (ai, (rel_a, docs_a)) in levels.iter().enumerate() {
                    for (rel_b, docs_b) in levels.iter().skip(ai + 1) {
                        let gain_diff = gain(*rel_a) - gain(*rel_b);
                        for &i in docs_a {
                            for &j in docs_b {
                                let (hi, lo) = (base + i, base + j);
                                let rho = 1.0 / (1.0 + (scores[hi] - scores[lo]).exp());
                                let delta = (gain_diff
                                    * (discount(position[i]) - discount(position[j])))
                                .abs()
                                    / max_dcgs[gi];
                                lambdas[hi] += rho * delta;
                                lambdas[lo] -= rho * delta;
                                let w = rho * (1.0 - rho) * delta;
                                weights[hi] += w;
                                weights[lo] += w;
                            }
                        }
                    }
                }
            }

            let mut tree = RegressionTree::train(&flat_features, &lambdas, params.tree);
            // Newton leaf re-estimation: value = Σλ / Σw per leaf.
            let assignment = tree.training_leaves().to_vec();
            let mut leaf_lambda: std::collections::HashMap<usize, (f64, f64)> =
                std::collections::HashMap::new();
            for (doc, &leaf) in assignment.iter().enumerate() {
                let e = leaf_lambda.entry(leaf).or_insert((0.0, 0.0));
                e.0 += lambdas[doc];
                e.1 += weights[doc];
            }
            for (leaf, (lsum, wsum)) in &leaf_lambda {
                let value = if *wsum > 1e-12 { lsum / wsum } else { 0.0 };
                tree.set_leaf_value(*leaf, value * params.learning_rate);
            }
            for (doc, row) in flat_features.iter().enumerate() {
                scores[doc] += tree.predict(row);
            }
            trees.push(tree);
        }
        LambdaMart { trees }
    }

    /// Train with default parameters.
    pub fn fit(groups: &[QueryGroup]) -> Self {
        Self::train(groups, LambdaMartParams::default())
    }

    /// Ranking score of a candidate (higher = better).
    pub fn score(&self, row: &[f64]) -> f64 {
        self.trees.iter().map(|t| t.predict(row)).sum()
    }

    /// Rank a list of candidates: returns indices sorted best-first.
    pub fn rank(&self, rows: &[Vec<f64>]) -> Vec<usize> {
        let scores: Vec<f64> = rows.iter().map(|r| self.score(r)).collect();
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));
        order
    }

    pub fn tree_count(&self) -> usize {
        self.trees.len()
    }

    pub(crate) fn persist_trees(&self) -> &[RegressionTree] {
        &self.trees
    }

    pub(crate) fn from_persist_trees(trees: Vec<RegressionTree>) -> Self {
        LambdaMart { trees }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ndcg;

    /// Relevance is a simple monotone function of one feature.
    fn synthetic_groups(n_groups: usize, docs: usize) -> Vec<QueryGroup> {
        (0..n_groups)
            .map(|g| {
                let features: Vec<Vec<f64>> = (0..docs)
                    .map(|d| {
                        let x = ((d * 7 + g * 13) % docs) as f64;
                        vec![x, (x * 0.5).sin(), g as f64]
                    })
                    .collect();
                let relevance: Vec<f64> = features
                    .iter()
                    .map(|f| (f[0] / docs as f64 * 3.0).floor())
                    .collect();
                QueryGroup::new(features, relevance)
            })
            .collect()
    }

    fn ranked_relevance(model: &LambdaMart, g: &QueryGroup) -> Vec<f64> {
        model
            .rank(&g.features)
            .into_iter()
            .map(|i| g.relevance[i])
            .collect()
    }

    #[test]
    fn learns_monotone_relevance() {
        let groups = synthetic_groups(6, 20);
        let model = LambdaMart::fit(&groups);
        for g in &groups {
            let n = ndcg(&ranked_relevance(&model, g));
            assert!(n > 0.95, "train NDCG {n}");
        }
    }

    #[test]
    fn generalizes_to_unseen_group() {
        let groups = synthetic_groups(8, 24);
        let (train, test) = groups.split_at(6);
        let model = LambdaMart::fit(train);
        for g in test {
            let n = ndcg(&ranked_relevance(&model, g));
            assert!(n > 0.9, "test NDCG {n}");
        }
    }

    #[test]
    fn more_trees_never_hurt_training_ndcg_substantially() {
        let groups = synthetic_groups(4, 16);
        let small = LambdaMart::train(
            &groups,
            LambdaMartParams {
                trees: 5,
                ..Default::default()
            },
        );
        let large = LambdaMart::train(
            &groups,
            LambdaMartParams {
                trees: 60,
                ..Default::default()
            },
        );
        let avg = |m: &LambdaMart| {
            groups
                .iter()
                .map(|g| ndcg(&ranked_relevance(m, g)))
                .sum::<f64>()
                / groups.len() as f64
        };
        assert!(avg(&large) + 1e-9 >= avg(&small) - 0.05);
        assert_eq!(large.tree_count(), 60);
    }

    #[test]
    fn training_is_deterministic() {
        let groups = synthetic_groups(3, 12);
        let a = LambdaMart::fit(&groups);
        let b = LambdaMart::fit(&groups);
        let row = &groups[0].features[0];
        assert_eq!(a.score(row), b.score(row));
    }

    #[test]
    fn degenerate_groups_handled() {
        // Uniform relevance (no pairs) and a singleton group.
        let groups = vec![
            QueryGroup::new(vec![vec![1.0], vec![2.0]], vec![1.0, 1.0]),
            QueryGroup::new(vec![vec![3.0]], vec![2.0]),
        ];
        let model = LambdaMart::fit(&groups);
        assert!(model.score(&[1.0]).is_finite());
    }

    #[test]
    fn empty_training_gives_constant_scores() {
        let model = LambdaMart::fit(&[]);
        assert_eq!(model.score(&[1.0, 2.0]), 0.0);
    }

    #[test]
    fn rank_orders_best_first() {
        let groups = synthetic_groups(5, 20);
        let model = LambdaMart::fit(&groups);
        let g = &groups[0];
        let order = model.rank(&g.features);
        let scores: Vec<f64> = order.iter().map(|&i| model.score(&g.features[i])).collect();
        assert!(scores.windows(2).all(|w| w[0] >= w[1]));
    }
}
