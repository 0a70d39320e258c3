//! Acceptance tests for the decision-provenance layer: a provenance-enabled
//! run must produce (a) an `Explanation` for every enumerated candidate,
//! with tallies that reconcile record-for-record against the observer's
//! counters, (b) hybrid scores that recompute exactly from their recorded
//! parts (`l_v + α·p_v`), (c) tournament leaf accounting that matches
//! `SelectionStats`, (d) dominance summaries that a brute-force pass over
//! the ranked factors reproduces — and collection must never change what
//! gets recommended.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use deepeye::core::provenance::TOP_N;
use deepeye::core::{
    canonical_candidates, query_id, validate_provenance_json, Factors, Outcome, ProgressiveSelector,
};
use deepeye::data::Column;
use deepeye::datagen::{
    flight_table, ranking_examples, recognition_examples, year_start, PerceptionOracle, Synth,
};
use deepeye::prelude::*;
use deepeye::query::UdfRegistry;
use std::collections::HashSet;

fn sales_table() -> Table {
    let mut region = Vec::new();
    let mut revenue = Vec::new();
    let mut units = Vec::new();
    for m in 0..12 {
        for (r, base) in [("North", 100.0), ("South", 80.0), ("East", 60.0)] {
            region.push(r.to_owned());
            revenue.push(base + m as f64 * 5.0);
            units.push((m * 2 + 1) as f64);
        }
    }
    TableBuilder::new("sales")
        .text("region", region)
        .numeric("revenue", revenue)
        .numeric("units", units)
        .build()
        .unwrap()
}

/// 1,700 rows × 16 mixed columns: more than 4,000 candidates reach the
/// ranker under the default configuration.
fn wide_table() -> Table {
    let rows = 1_700;
    let mut synth = Synth::new(7);
    let mut columns: Vec<Column> = vec![
        synth.categorical_generic("region", rows, 4, 1.0),
        synth.categorical_generic("product", rows, 12, 1.2),
        synth.categorical_generic("channel", rows, 7, 0.8),
        synth.temporal("day", rows, year_start(2015), 86_400, 21_600),
    ];
    for i in 0..12 {
        let name = format!("metric_{i}");
        columns.push(match i % 4 {
            0 => synth.trending(&name, rows, 10.0, 0.1 * (i + 1) as f64, 2.0),
            1 => synth.seasonal(&name, rows, 50.0, 10.0, 30.0 + i as f64, 1.0),
            2 => synth.gaussian(&name, rows, 60.0, 5.0 + i as f64),
            _ => synth.lognormal(&name, rows, 2.0, 0.6),
        });
    }
    Table::new("wide", columns).unwrap()
}

fn trained_recognizer() -> Recognizer {
    let oracle = PerceptionOracle::default();
    let train = flight_table(1, 600);
    let examples = recognition_examples(std::slice::from_ref(&train), &oracle);
    Recognizer::train(ClassifierKind::DecisionTree, &examples)
}

#[test]
fn every_candidate_has_an_explanation_and_counts_reconcile() {
    let obs = Observer::enabled();
    let prov = Provenance::enabled();
    let eye = DeepEye::new(DeepEyeConfig {
        enumeration: EnumerationMode::Exhaustive,
        recognizer: Some(trained_recognizer()),
        observer: obs.clone(),
        provenance: prov.clone(),
        ..Default::default()
    });
    let recs = eye.recommend(&sales_table(), 5);
    assert!(!recs.is_empty());

    let log = prov.snapshot();
    let c = log.counts;
    // The tallies reconcile with the observer's stage counters.
    assert_eq!(c.enumerated, obs.counter("enumerate.candidates"));
    assert_eq!(c.sema_rejected, obs.counter("sema.rejected"));
    assert_eq!(c.classifier_kept, obs.counter("recognize.kept"));
    assert_eq!(c.classifier_rejected, obs.counter("recognize.rejected"));
    assert_eq!(c.exec_failed, obs.counter("exec.err"));

    // One record per enumerated candidate — admitted or sema-rejected —
    // and none were silently dropped.
    assert_eq!(c.dropped_records, 0);
    assert_eq!(log.records.len() as u64, c.enumerated + c.sema_rejected);

    // Per-record outcomes re-derive the tallies: candidate-for-candidate,
    // not just in aggregate.
    let count = |kind: &str| {
        log.records
            .iter()
            .filter(|e| e.outcome.kind() == kind)
            .count() as u64
    };
    assert_eq!(count("sema_rejected"), c.sema_rejected);
    assert_eq!(count("exec_failed"), c.exec_failed);
    assert_eq!(count("classifier_rejected"), c.classifier_rejected);
    assert_eq!(count("single_mark"), c.single_mark);
    assert_eq!(count("ranked"), c.ranked);
    assert_eq!(count("ranked"), recs.len() as u64);

    // The ranked records line up with the returned recommendations.
    for rec in &recs {
        let e = log.find(&rec.node.id()).expect("ranked record exists");
        assert_eq!(e.outcome, Outcome::Ranked(rec.rank));
        let f = e.factors.expect("ranked record has factors");
        assert_eq!(f.m, rec.factors.m);
        assert_eq!(f.q, rec.factors.q);
        assert_eq!(f.w, rec.factors.w);
        // Every kept candidate carries its classifier evidence.
        assert!(e.classifier.is_some(), "no evidence for {}", e.id);
    }

    // The export round-trips through the validator.
    let summary = validate_provenance_json(&prov.to_json()).expect("export validates");
    assert_eq!(summary.records, log.records.len());
    assert_eq!(summary.ranked, recs.len());
}

#[test]
fn hybrid_scores_recompute_from_recorded_parts() {
    let oracle = PerceptionOracle::default();
    let train = flight_table(2, 600);
    let ltr = LtrRanker::fit(&ranking_examples(std::slice::from_ref(&train), &oracle));
    let alpha = 0.7;
    let prov = Provenance::enabled();
    let eye = DeepEye::new(DeepEyeConfig {
        ranking: RankingMethod::Hybrid(ltr, HybridRanker::new(alpha)),
        provenance: prov.clone(),
        ..Default::default()
    });
    let recs = eye.recommend(&sales_table(), 5);
    assert!(!recs.is_empty());

    let log = prov.snapshot();
    for rec in &recs {
        let e = log.find(&rec.node.id()).expect("ranked record");
        let r = e.rank.as_ref().expect("rank breakdown recorded");
        let h = r.hybrid.expect("hybrid parts recorded");
        // Golden invariant: the recorded combined score IS l_v + α·p_v,
        // recomputed here from the recorded parts.
        assert_eq!(h.alpha, alpha);
        assert_eq!(h.combined, h.l_pos as f64 + alpha * h.p_pos as f64);
        assert_eq!(
            h.combined,
            HybridRanker::new(alpha).combined_score(h.l_pos, h.p_pos)
        );
        // The component orders were recorded alongside.
        assert_eq!(r.ltr_pos, Some(h.l_pos));
        assert_eq!(r.po_pos, Some(h.p_pos));
        assert!(r.ltr_score.is_some() && r.po_log_score.is_some());
    }
    // The validator re-checks the same identity on the JSON side.
    validate_provenance_json(&prov.to_json()).expect("hybrid export validates");
}

#[test]
fn progressive_tournament_accounting_matches_selection_stats() {
    let table = flight_table(3, 800);
    let prov = Provenance::enabled();
    let eye = DeepEye::new(DeepEyeConfig {
        provenance: prov.clone(),
        ..Default::default()
    });
    let recs = eye.recommend_progressive(&table, 3);
    assert!(!recs.is_empty());

    // Reference run of the same tournament, unexplained.
    let udfs = UdfRegistry::default();
    let (_, stats) = ProgressiveSelector::new(&table, &udfs).top_k(3);

    let log = prov.snapshot();
    let c = log.counts;
    assert_eq!(c.leaves_materialized, stats.leaves_materialized as u64);
    assert_eq!(c.leaves_pruned, stats.leaves_pruned as u64);
    assert_eq!(c.leaves_total, stats.leaves_total as u64);
    assert_eq!(c.leaves_materialized + c.leaves_pruned, c.leaves_total);

    // Leaf records, one per (column, transform) and named after both,
    // re-derive the same split.
    let leaf_ids = |kind: &str| {
        log.records
            .iter()
            .filter(|e| e.outcome.kind() == kind)
            .map(|e| e.id.clone())
            .collect::<HashSet<String>>()
    };
    let (materialized, pruned) = (leaf_ids("leaf_materialized"), leaf_ids("leaf_pruned"));
    assert_eq!(materialized.len() as u64, c.leaves_materialized);
    assert_eq!(pruned.len() as u64, c.leaves_pruned);
    let expected: HashSet<String> = canonical_candidates(&table)
        .iter()
        .map(|q| format!("column:{}|{:?}", q.x, q.transform))
        .collect();
    assert_eq!(
        &materialized | &pruned,
        expected,
        "one leaf record per (column, transform)"
    );
    assert!(
        c.leaves_pruned > 0,
        "expected the bound to prune some columns: {stats:?}"
    );

    // The winners carry their tournament rank and score.
    for rec in &recs {
        let e = log.find(&rec.node.id()).expect("winner record");
        assert_eq!(e.outcome, Outcome::TournamentRanked(rec.rank));
        assert!(e.tournament_score.is_some());
    }

    validate_provenance_json(&prov.to_json()).expect("tournament export validates");
}

#[test]
fn provenance_collection_never_changes_recommendations() {
    let table = sales_table();
    let configs: Vec<fn() -> DeepEyeConfig> = vec![DeepEyeConfig::default, || DeepEyeConfig {
        enumeration: EnumerationMode::Exhaustive,
        recognizer: Some(trained_recognizer()),
        ..Default::default()
    }];
    for make in configs {
        let plain_obs = Observer::enabled();
        let plain = DeepEye::new(DeepEyeConfig {
            observer: plain_obs.clone(),
            ..make()
        });
        let explained_obs = Observer::enabled();
        let explained = DeepEye::new(DeepEyeConfig {
            observer: explained_obs.clone(),
            provenance: Provenance::enabled(),
            ..make()
        });
        let ids = |recs: Vec<Recommendation>| -> Vec<String> {
            recs.iter().map(|r| r.node.id()).collect()
        };
        assert_eq!(
            ids(plain.recommend(&table, 6)),
            ids(explained.recommend(&table, 6)),
            "recommend() must be provenance-invariant"
        );
        assert_eq!(
            ids(plain.recommend_progressive(&table, 3)),
            ids(explained.recommend_progressive(&table, 3)),
            "recommend_progressive() must be provenance-invariant"
        );
        // The enumeration counters are provenance-invariant too.
        let counters = |obs: &Observer| {
            ["enumerate.raw", "enumerate.candidates", "sema.rejected"].map(|c| obs.counter(c))
        };
        let [raw, candidates, rejected] = counters(&plain_obs);
        assert_eq!(counters(&explained_obs), [raw, candidates, rejected]);
        assert!(candidates > 0);
        if make().enumeration == EnumerationMode::Exhaustive {
            assert!(rejected > 0, "the exhaustive space holds ill-typed queries");
            assert_eq!(raw, candidates + rejected);
        }
    }
}

#[test]
fn recommendation_explain_is_a_view_over_the_record() {
    let table = sales_table();
    let eye = DeepEye::with_defaults();
    let recs = eye.recommend(&table, 3);
    assert!(!recs.is_empty());
    for rec in &recs {
        let text = rec.explain();
        assert!(text.contains(&format!("Ranked #{}", rec.rank)), "{text}");
        for factor in ["M = ", "Q = ", "W = "] {
            assert!(text.contains(factor), "missing {factor}: {text}");
        }
        // The view and the record agree.
        assert_eq!(text, rec.explanation().render());
        assert_eq!(rec.explanation().id, rec.node.id());
    }
}

#[test]
fn sema_rejections_carry_their_diagnostic_codes() {
    let prov = Provenance::enabled();
    let eye = DeepEye::new(DeepEyeConfig {
        enumeration: EnumerationMode::Exhaustive,
        provenance: prov.clone(),
        ..Default::default()
    });
    let _ = eye.recommend(&sales_table(), 3);
    let log = prov.snapshot();
    let rejected: Vec<_> = log
        .records
        .iter()
        .filter(|e| e.outcome == Outcome::SemaRejected)
        .collect();
    assert!(
        !rejected.is_empty(),
        "exhaustive space has ill-typed queries"
    );
    // The detailed sample carries the sema code that killed the candidate.
    assert!(
        rejected
            .iter()
            .any(|e| e.sema.iter().any(|(code, _)| code.starts_with('E'))),
        "no diagnostic codes recorded"
    );
}

#[test]
fn query_id_is_the_shared_id_space() {
    let table = sales_table();
    let eye = DeepEye::with_defaults();
    for node in eye.candidates(&table) {
        assert_eq!(node.id(), query_id(&node.query));
    }
}

/// The recorded heaviest edge has the largest weight among `edges`, and
/// names a node that reaches it.
fn check_strongest(recorded: &Option<(String, f64)>, edges: &[(&str, f64)], id: &str) {
    let heaviest = edges.iter().map(|&(_, w)| w).reduce(f64::max);
    match (recorded, heaviest) {
        (None, None) => {}
        (Some((other, w)), Some(max)) => {
            assert_eq!(*w, max, "{id}: heaviest edge weight");
            assert!(
                edges.iter().any(|&(o, ew)| o == other && ew == max),
                "{id}: {other} is not at the heaviest edge"
            );
        }
        _ => panic!("{id}: recorded {recorded:?}, brute force {heaviest:?}"),
    }
}

/// Recompute every recorded dominance summary by brute force over the
/// factors of the ranked set (the records that carry a rank breakdown);
/// returns the ranked-set size and the number of summaries checked.
fn check_dominance_summaries(log: &ProvenanceLog) -> (usize, usize) {
    let ranked: Vec<(&str, Factors)> = log
        .records
        .iter()
        .filter(|e| e.rank.is_some())
        .map(|e| (e.id.as_str(), e.factors.expect("ranked record").factors()))
        .collect();
    let mut checked = 0;
    for e in &log.records {
        let Some(d) = &e.dominance else { continue };
        let f = e.factors.expect("summarized record has factors").factors();
        let out: Vec<(&str, f64)> = ranked
            .iter()
            .filter(|(_, g)| f.strictly_dominates(g))
            .map(|&(id, g)| (id, f.edge_weight(&g)))
            .collect();
        let into: Vec<(&str, f64)> = ranked
            .iter()
            .filter(|(_, g)| g.strictly_dominates(&f))
            .map(|&(id, g)| (id, g.edge_weight(&f)))
            .collect();
        assert_eq!(d.dominates, out.len(), "{}: dominates", e.id);
        assert_eq!(d.dominated_by, into.len(), "{}: dominated_by", e.id);
        check_strongest(&d.strongest_out, &out, &e.id);
        check_strongest(&d.strongest_in, &into, &e.id);
        checked += 1;
    }
    (ranked.len(), checked)
}

#[test]
fn dominance_summaries_match_brute_force() {
    let prov = Provenance::enabled();
    let eye = DeepEye::new(DeepEyeConfig {
        provenance: prov.clone(),
        ..Default::default()
    });
    assert!(!eye.recommend(&sales_table(), 5).is_empty());
    let (ranked, checked) = check_dominance_summaries(&prov.snapshot());
    assert_eq!(checked, ranked.min(TOP_N));
    assert!(checked > 0);

    // A ranked set above 4,000 nodes gets the same summaries.
    let prov = Provenance::enabled();
    let eye = DeepEye::new(DeepEyeConfig {
        provenance: prov.clone(),
        ..Default::default()
    });
    assert!(!eye.recommend(&wide_table(), 5).is_empty());
    let (ranked, checked) = check_dominance_summaries(&prov.snapshot());
    assert!(ranked > 4_000, "only {ranked} ranked nodes");
    assert_eq!(checked, TOP_N);
}
