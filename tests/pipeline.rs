//! Cross-crate integration tests: CSV → type detection → enumeration →
//! recognition → ranking → selection, exercised through the public facade.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use deepeye::core::{exhaustive_top_k, ProgressiveSelector};
use deepeye::datagen::{flight_table, recognition_examples, PerceptionOracle};
use deepeye::prelude::*;
use deepeye::query::UdfRegistry;
use proptest::prelude::*;

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

/// One generated cell: a kind (0 number, 1 ISO date, 2 short category,
/// 3 any of the three), an empty-cell draw, and a value seed.
fn cell(kind: u8, empty: u8, v: u32) -> String {
    const CATEGORIES: [&str; 6] = ["a", "b", "c", "dd", "east", "west"];
    let kind = if kind == 3 { (v % 3) as u8 } else { kind };
    match (empty, kind) {
        (0, _) => String::new(),
        (_, 0) => format!("{}.{}", v as i64 / 10 - 40, v % 10),
        (_, 1) => format!("2015-{:02}-{:02}", v % 12 + 1, v % 28 + 1),
        _ => CATEGORIES[v as usize % CATEGORIES.len()].to_owned(),
    }
}

/// CSV text of 1–60 rows and 4–6 columns of numbers, ISO dates, short
/// categories and empty cells.
fn csv_text() -> impl Strategy<Value = String> {
    (1usize..61, 4usize..7).prop_flat_map(|(rows, cols)| {
        let kinds = proptest::collection::vec(0u8..4, cols);
        let cells = proptest::collection::vec((0u8..10, 0u32..1000), rows * cols);
        (kinds, cells).prop_map(move |(kinds, cells)| {
            let header: Vec<String> = (0..cols).map(|c| format!("c{c}")).collect();
            let mut text = header.join(",") + "\n";
            for row in cells.chunks(cols) {
                let line: Vec<String> = row
                    .iter()
                    .zip(&kinds)
                    .map(|(&(empty, v), &kind)| cell(kind, empty, v))
                    .collect();
                text.push_str(&line.join(","));
                text.push('\n');
            }
            text
        })
    })
}

/// The top-10 as query texts and factor bits, with the given worker mode.
fn top_10(table: &Table, parallel: bool) -> Vec<(String, [u64; 3])> {
    let eye = DeepEye::new(DeepEyeConfig {
        parallel,
        ..Default::default()
    });
    eye.recommend(table, 10)
        .iter()
        .map(|r| {
            let f = &r.factors;
            let bits = [f.m.to_bits(), f.q.to_bits(), f.w.to_bits()];
            (r.query_text(table.name()), bits)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `recommend` never panics on a table the CSV reader accepts, and
    /// serial and parallel execution return the same charts with
    /// bit-identical factors, in the same order.
    #[test]
    fn recommend_is_total_and_independent_of_worker_count(text in csv_text()) {
        if let Ok(table) = table_from_csv_str("generated", &text) {
            prop_assert_eq!(top_10(&table, false), top_10(&table, true));
        }
    }

    /// The progressive tournament returns the exhaustive top-k: as many
    /// nodes, with scores within 1e-12, at every k; and `recommend`
    /// returns nothing at k = 0.
    #[test]
    fn progressive_top_k_equals_exhaustive(text in csv_text()) {
        if let Ok(table) = table_from_csv_str("generated", &text) {
            let udfs = UdfRegistry::default();
            let selector = ProgressiveSelector::new(&table, &udfs);
            for k in [0usize, 1, 3, 10] {
                let (progressive, _) = selector.top_k(k);
                let (exhaustive, _) = exhaustive_top_k(&table, &udfs, k);
                prop_assert_eq!(progressive.len(), exhaustive.len(), "k = {}", k);
                for (p, e) in progressive.iter().zip(&exhaustive) {
                    prop_assert!((p.score - e.score).abs() < 1e-12, "k = {}: {} vs {}", k, p.score, e.score);
                }
            }
            prop_assert!(DeepEye::with_defaults().recommend(&table, 0).is_empty());
        }
    }
}

/// `build_nodes` splits work across workers only at 32 or more
/// candidates; this table is sure to reach that.
#[test]
fn parallel_recommend_equals_serial_on_a_split_workload() {
    let mut text = String::from("day,region,product,sales,units,price\n");
    for i in 0..60u32 {
        let region = ["north", "south", "east", "west"][i as usize % 4];
        let product = ["tea", "coffee", "cocoa"][i as usize % 3];
        text.push_str(&format!(
            "2015-{:02}-{:02},{region},{product},{},{},{}.{}\n",
            i / 28 + 1,
            i % 28 + 1,
            100 + (i * 37) % 250,
            1 + (i * 7) % 40,
            2 + i % 9,
            (i * 3) % 10
        ));
    }
    let table = table_from_csv_str("split", &text).unwrap();
    assert_eq!((table.row_count(), table.column_count()), (60, 6));
    let candidates = DeepEye::with_defaults().candidates(&table).len();
    assert!(candidates >= 32, "only {candidates} candidates");
    let serial = top_10(&table, false);
    assert_eq!(serial.len(), 10);
    assert_eq!(serial, top_10(&table, true));
}
