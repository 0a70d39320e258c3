//! Cross-crate integration tests: CSV → type detection → enumeration →
//! recognition → ranking → selection, exercised through the public facade.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use deepeye::core::{exhaustive_top_k, ProgressiveSelector, ScoredNode};
use deepeye::datagen::{flight_table, recognition_examples, PerceptionOracle};
use deepeye::prelude::*;
use deepeye::query::{execute_with, UdfRegistry};
use proptest::prelude::*;

#[path = "support/csv_text.rs"]
mod csv_text;
use csv_text::csv_text;

const CSV: &str = "\
when,store,sales,footfall
2015-01-03 09:15,downtown,120,340
2015-01-03 13:40,downtown,190,520
2015-01-03 18:05,downtown,240,610
2015-01-04 09:30,airport,90,210
2015-01-04 14:10,airport,150,380
2015-01-04 19:45,airport,210,540
2015-01-05 10:00,downtown,130,360
2015-01-05 15:30,downtown,200,545
2015-01-05 20:15,airport,230,580
2015-01-06 09:45,airport,95,225
2015-01-06 13:00,downtown,185,500
2015-01-06 19:30,downtown,250,640
";

#[test]
fn csv_to_recommendations() {
    let table = table_from_csv_str("stores", CSV).unwrap();
    assert_eq!(
        table.column_by_name("when").unwrap().data_type(),
        DataType::Temporal
    );
    assert_eq!(
        table.column_by_name("store").unwrap().data_type(),
        DataType::Categorical
    );
    assert_eq!(
        table.column_by_name("sales").unwrap().data_type(),
        DataType::Numerical
    );

    let eye = DeepEye::with_defaults();
    let recs = eye.recommend(&table, 5);
    assert!(!recs.is_empty());
    assert!(recs.len() <= 5);
    // Ranks are 1-based and contiguous.
    for (i, r) in recs.iter().enumerate() {
        assert_eq!(r.rank, i + 1);
        assert!(!r.node.data.series.is_empty());
        assert!(r.spec().contains("\"mark\""));
    }
    // sales/footfall are strongly correlated → a scatter appears somewhere
    // in the candidate set.
    let candidates = eye.candidates(&table);
    assert!(candidates
        .iter()
        .any(|n| n.chart_type() == ChartType::Scatter));
}

#[test]
fn language_round_trip_through_engine() {
    let table = table_from_csv_str("stores", CSV).unwrap();
    let text =
        "VISUALIZE line\nSELECT when, AVG(sales)\nFROM stores\nBIN when BY HOUR\nORDER BY when";
    let parsed = parse_query(text).unwrap();
    let chart = execute(&table, &parsed.query).unwrap();
    // Hour-of-day bins: 09:00..20:00 → at most 24 buckets.
    assert!(chart.series.len() <= 24);
    // Rendering the query back parses to the same query.
    let rendered = parsed.query.to_language("stores");
    assert_eq!(parse_query(&rendered).unwrap().query, parsed.query);
}

#[test]
fn trained_pipeline_end_to_end() {
    // Train a recognizer on oracle labels from one table, apply to another.
    let oracle = PerceptionOracle::default();
    let train_table = flight_table(1, 800);
    let examples = recognition_examples(std::slice::from_ref(&train_table), &oracle);
    assert!(examples.len() > 50);
    let recognizer = Recognizer::train(ClassifierKind::DecisionTree, &examples);

    let test_table = flight_table(2, 600);
    let eye = DeepEye::new(DeepEyeConfig {
        enumeration: EnumerationMode::RuleBased,
        recognizer: Some(recognizer),
        ranking: RankingMethod::PartialOrder,
        ..Default::default()
    });
    let all = DeepEye::with_defaults().candidates(&test_table).len();
    let kept = eye.candidates(&test_table).len();
    assert!(
        kept < all,
        "recognizer should filter something ({kept} of {all})"
    );
    let recs = eye.recommend(&test_table, 3);
    assert!(recs.len() <= 3);
}

#[test]
fn deterministic_recommendations() {
    let t1 = flight_table(7, 500);
    let t2 = flight_table(7, 500);
    let eye = DeepEye::with_defaults();
    let ids1: Vec<String> = eye.recommend(&t1, 8).iter().map(|r| r.node.id()).collect();
    let ids2: Vec<String> = eye.recommend(&t2, 8).iter().map(|r| r.node.id()).collect();
    assert_eq!(ids1, ids2);
}

#[test]
fn progressive_and_graph_agree_on_quality() {
    // The two selectors use different scoring, but both should surface
    // charts the oracle likes: mean oracle score of their top-3 must beat
    // the mean over all candidates.
    let table = flight_table(3, 1_000);
    let oracle = PerceptionOracle::default();
    let eye = DeepEye::with_defaults();

    let all: Vec<f64> = eye
        .candidates(&table)
        .iter()
        .map(|n| oracle.score(n))
        .collect();
    let baseline = all.iter().sum::<f64>() / all.len() as f64;

    let graph_top: Vec<f64> = eye
        .recommend(&table, 3)
        .iter()
        .map(|r| oracle.score(&r.node))
        .collect();
    let prog_top: Vec<f64> = eye
        .recommend_progressive(&table, 3)
        .iter()
        .map(|r| oracle.score(&r.node))
        .collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    assert!(
        mean(&graph_top) > baseline,
        "graph top-3 {:.1} should beat baseline {baseline:.1}",
        mean(&graph_top)
    );
    assert!(
        mean(&prog_top) > baseline,
        "progressive top-3 {:.1} should beat baseline {baseline:.1}",
        mean(&prog_top)
    );
}

#[test]
fn multi_column_extension_runs() {
    use deepeye::query::{execute_xyz, XyzQuery};
    let table = flight_table(4, 800);
    let q = XyzQuery {
        chart: ChartType::Bar,
        series_column: "destination".into(),
        x: "scheduled".into(),
        x_transform: Transform::Bin(BinStrategy::Unit(deepeye::data::TimeUnit::Month)),
        z: "passengers".into(),
        aggregate: Aggregate::Sum,
    };
    let chart = execute_xyz(&table, &q, &UdfRegistry::default()).unwrap();
    assert!(chart.series.len() >= 2, "multiple destination series");
    assert!(
        chart.series.iter().all(|(_, pts)| pts.len() <= 12),
        "month-of-year bins"
    );
}

/// A top-10 as node ids and factor bits.
type Top10 = Vec<(String, [u64; 3])>;

/// The top-10s of `recommend` and of `recommend_progressive`, with the
/// given worker mode.
fn top_10(table: &Table, parallel: bool) -> (Top10, Top10) {
    let eye = DeepEye::new(DeepEyeConfig {
        parallel,
        ..Default::default()
    });
    let bits = |recs: Vec<Recommendation>| -> Top10 {
        recs.iter()
            .map(|r| {
                let f = &r.factors;
                (r.node.id(), [f.m.to_bits(), f.q.to_bits(), f.w.to_bits()])
            })
            .collect()
    };
    (
        bits(eye.recommend(table, 10)),
        bits(eye.recommend_progressive(table, 10)),
    )
}

/// Every chart's series equals executing its query on the table, one
/// candidate at a time.
fn charts_equal_direct_execution(
    table: &Table,
    recs: &[Recommendation],
) -> Result<(), TestCaseError> {
    let udfs = UdfRegistry::default();
    for r in recs {
        let direct = execute_with(table, &r.node.query, &udfs);
        prop_assert!(
            direct.is_ok_and(|chart| chart.series == r.node.data.series),
            "rank {}: {} differs from direct execution",
            r.rank,
            r.query_text(table.name())
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `recommend` never panics on a table the CSV reader accepts,
    /// serial and parallel execution return the same charts with
    /// bit-identical factors, in the same order, for `recommend` and for
    /// `recommend_progressive`, and every chart equals the direct
    /// execution of its query.
    #[test]
    fn recommend_is_total_and_independent_of_worker_count(text in csv_text()) {
        if let Ok(table) = table_from_csv_str("generated", &text) {
            prop_assert_eq!(top_10(&table, false), top_10(&table, true));
            let recs = DeepEye::with_defaults().recommend(&table, 10);
            charts_equal_direct_execution(&table, &recs)?;
        }
    }

    /// The progressive tournament returns the exhaustive top-k at every
    /// k: the same node ids with bit-identical scores, in the same order;
    /// every chart `recommend_progressive` returns equals the direct
    /// execution of its query; and `recommend` returns nothing at k = 0.
    #[test]
    fn progressive_top_k_equals_exhaustive(text in csv_text()) {
        if let Ok(table) = table_from_csv_str("generated", &text) {
            let udfs = UdfRegistry::default();
            let selector = ProgressiveSelector::new(&table, &udfs);
            let ids = |top: &[ScoredNode]| -> Vec<(String, u64)> {
                top.iter().map(|s| (s.node.id(), s.score.to_bits())).collect()
            };
            for k in [0usize, 1, 3, 10] {
                let (progressive, _) = selector.top_k(k);
                let (exhaustive, _) = exhaustive_top_k(&table, &udfs, k);
                prop_assert_eq!(ids(&progressive), ids(&exhaustive), "k = {}", k);
            }
            let eye = DeepEye::with_defaults();
            charts_equal_direct_execution(&table, &eye.recommend_progressive(&table, 10))?;
            prop_assert!(eye.recommend(&table, 0).is_empty());
        }
    }
}

/// `build_nodes` splits work across workers only at 32 or more
/// candidates, ingest only from 1,000 rows and the tournament only from
/// 2,000 rows; this table reaches all three.
#[test]
fn parallel_recommend_equals_serial_on_a_split_workload() {
    let mut text = String::from("day,region,product,sales,units,price\n");
    for i in 0..2_000u32 {
        let region = ["north", "south", "east", "west"][i as usize % 4];
        let product = ["tea", "coffee", "cocoa"][i as usize % 3];
        text.push_str(&format!(
            "2015-{:02}-{:02},{region},{product},{},{},{}.{}\n",
            i / 28 % 12 + 1,
            i % 28 + 1,
            100 + (i * 37) % 250,
            1 + (i * 7) % 40,
            2 + i % 9,
            (i * 3) % 10
        ));
    }
    let table = table_from_csv_str("split", &text).unwrap();
    assert_eq!((table.row_count(), table.column_count()), (2_000, 6));
    let candidates = DeepEye::with_defaults().candidates(&table).len();
    assert!(candidates >= 32, "only {candidates} candidates");
    let serial = top_10(&table, false);
    assert_eq!((serial.0.len(), serial.1.len()), (10, 10));
    assert_eq!(serial, top_10(&table, true));
}

/// Charts are told apart by value: a `|` in a column name no longer makes
/// `line a vs b|c` and `line a|b vs c` one chart. Every distinct executable
/// query builds one node, every distinct chart is one canonical candidate,
/// and the tournament still returns the exhaustive top-k.
#[test]
fn pipes_in_column_names_keep_charts_apart() {
    use deepeye::core::{build_nodes_parallel, canonical_candidates, rules, VisNode};
    use std::collections::HashSet;
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/pipe_in_names.csv");
    let table = deepeye::data::table_from_csv_path(path).unwrap();
    let udfs = UdfRegistry::default();
    let queries = rules::rule_based_queries(&table);
    let distinct: HashSet<&VisQuery> = queries.iter().collect();
    let executable = distinct
        .iter()
        .filter(|q| execute_with(&table, q, &udfs).is_ok())
        .count();
    let nodes = build_nodes_parallel(&table, queries.clone(), &udfs, false);
    assert_eq!(nodes.len(), executable);
    let ids: HashSet<String> = nodes.iter().map(VisNode::id).collect();
    assert_eq!(ids.len(), nodes.len(), "node ids are unique");

    let chart = |q: &VisQuery| {
        (
            q.chart,
            q.x.clone(),
            q.y.clone(),
            q.transform.clone(),
            q.aggregate,
        )
    };
    let charts: HashSet<_> = queries.iter().map(chart).collect();
    let candidates = canonical_candidates(&table);
    assert_eq!(candidates.len(), charts.len());
    assert_eq!(candidates.iter().map(chart).collect::<HashSet<_>>(), charts);

    let selector = ProgressiveSelector::new(&table, &udfs);
    let ids = |top: &[ScoredNode]| -> Vec<(String, u64)> {
        top.iter()
            .map(|s| (s.node.id(), s.score.to_bits()))
            .collect()
    };
    for k in [1, 5, 10, usize::MAX] {
        let (progressive, _) = selector.top_k(k);
        let (exhaustive, _) = exhaustive_top_k(&table, &udfs, k);
        assert_eq!(ids(&progressive), ids(&exhaustive), "k = {k}");
    }
}
