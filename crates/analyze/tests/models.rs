//! Model-checker integration tests.
//!
//! The positive models mirror the repo's real concurrency — observer
//! counter merging, cross-thread span parenting, `SelectionStats`
//! merging in `exhaustive_top_k_parallel`, progressive leaf accounting
//! — and must hold under ≥ 1000 explored interleavings. The negative
//! models seed the bugs the checker exists to catch (a `SeqCst` merge
//! demoted to a plain read-modify-write, publication through a relaxed
//! flag, ABBA lock inversion) and prove it fires.

use deepeye_analyze::model::{demo, explore, explore_at_least, Options, Report, Sim};
use deepeye_core::SelectionStats;

const TARGET: usize = demo::INTERLEAVING_TARGET;

fn assert_clean(report: &Report) {
    assert!(
        report.ok(),
        "{report}\nraces: {:?}\nfailures: {:?}",
        report.races,
        report
            .failures
            .iter()
            .map(|f| &f.message)
            .collect::<Vec<_>>()
    );
    assert!(
        report.executions >= TARGET,
        "only {} interleavings explored (need >= {TARGET})",
        report.executions
    );
}

fn worker_stats(i: usize) -> SelectionStats {
    SelectionStats {
        leaves_materialized: i + 1,
        leaves_pruned: 2 * i,
        leaves_total: 3 * i + 1,
        nodes_generated: 5 * i + 2,
        shared_scans: i,
    }
}

#[test]
fn observer_counter_merge_is_race_free() {
    assert_clean(&explore_at_least(
        "observer_counter_merge",
        TARGET,
        demo::counter_merge,
    ));
}

#[test]
fn span_under_parenting_is_race_free() {
    assert_clean(&explore_at_least(
        "span_under_parenting",
        TARGET,
        demo::span_parenting,
    ));
}

#[test]
fn top_k_partition_merge_is_race_free() {
    assert_clean(&explore_at_least(
        "top_k_partition_merge",
        TARGET,
        demo::partition_merge,
    ));
}

/// `SelectionStats::merge` is order-independent. `exhaustive_top_k_parallel`
/// merges worker-local stats as it joins the workers, in spawn order;
/// folding them into a shared block under a lock, in whatever order the
/// workers arrive, must equal the sequential fold under **every**
/// interleaving.
#[test]
fn selection_stats_merge_matches_sequential_under_all_interleavings() {
    let mut expected = SelectionStats::default();
    for i in 0..3 {
        expected += worker_stats(i);
    }
    let report = explore_at_least("selection_stats_merge", TARGET, move |sim: &mut Sim| {
        let stats = sim.cell("stats", SelectionStats::default());
        let m = sim.mutex("stats.lock");
        for i in 0..3usize {
            let (stats, m) = (stats.clone(), m.clone());
            sim.spawn(move |ctx| {
                let local = worker_stats(i);
                m.lock(ctx);
                let mut merged = stats.load(ctx);
                merged.merge(&local);
                stats.store(ctx, merged);
                m.unlock(ctx);
            });
        }
        if sim.run() {
            assert_eq!(
                stats.final_value(),
                expected,
                "merge lost a worker's counters"
            );
        }
    });
    assert_clean(&report);
}

/// Merge order must not matter (workers join in scheduler order, which
/// the interleavings permute): commutativity and associativity checked
/// directly on the real type.
#[test]
fn selection_stats_merge_is_commutative_and_associative() {
    let vals: Vec<SelectionStats> = (0..4).map(worker_stats).collect();
    for a in &vals {
        for b in &vals {
            let mut ab = *a;
            ab.merge(b);
            let mut ba = *b;
            ba.merge(a);
            assert_eq!(ab, ba, "merge must commute");
            for c in &vals {
                let mut ab_c = ab;
                ab_c.merge(c);
                let mut bc = *b;
                bc.merge(c);
                let mut a_bc = *a;
                a_bc.merge(&bc);
                assert_eq!(ab_c, a_bc, "merge must associate");
            }
        }
    }
}

/// Progressive leaf accounting: every leaf a worker claims ends up
/// counted exactly once as materialized or pruned, and
/// `materialized + pruned == total` holds in the merged block under
/// every interleaving — the invariant `top_k_observed` exports to the
/// `progressive.*` counters.
#[test]
fn leaf_accounting_balances_under_all_interleavings() {
    // Worker i owns 2 leaves; even leaves materialize, odd ones prune.
    let leaves_per_worker = 2usize;
    let workers = 3usize;
    let report = explore_at_least("leaf_accounting", TARGET, move |sim: &mut Sim| {
        let stats = sim.cell("stats", SelectionStats::default());
        let m = sim.mutex("stats.lock");
        for w in 0..workers {
            let (stats, m) = (stats.clone(), m.clone());
            sim.spawn(move |ctx| {
                let mut local = SelectionStats::default();
                for leaf in 0..leaves_per_worker {
                    let id = w * leaves_per_worker + leaf;
                    local.leaves_total += 1;
                    if id.is_multiple_of(2) {
                        local.leaves_materialized += 1;
                        local.shared_scans += 1;
                    } else {
                        local.leaves_pruned += 1;
                    }
                }
                m.lock(ctx);
                let mut merged = stats.load(ctx);
                merged += local;
                stats.store(ctx, merged);
                m.unlock(ctx);
            });
        }
        if sim.run() {
            let s = stats.final_value();
            assert_eq!(s.leaves_total, workers * leaves_per_worker);
            assert_eq!(
                s.leaves_materialized + s.leaves_pruned,
                s.leaves_total,
                "a leaf was double-counted or dropped"
            );
            assert_eq!(s.shared_scans, s.leaves_materialized);
        }
    });
    assert_clean(&report);
}

/// The real functions agree with what the model asserts: parallel
/// selection reports the same merged stats as the sequential fold.
#[test]
fn real_parallel_top_k_stats_match_sequential() {
    use deepeye_core::{exhaustive_top_k, exhaustive_top_k_parallel};
    use deepeye_query::UdfRegistry;

    let mut builder = deepeye_data::TableBuilder::new("t");
    for c in 0..6usize {
        let vals: Vec<f64> = (0..40)
            .map(|r: usize| ((r * (c + 3)) % 11) as f64)
            .collect();
        builder = builder.numeric(format!("c{c}"), vals);
    }
    let table = builder.build().expect("table builds");
    let udfs = UdfRegistry::default();
    let (seq_top, seq_stats) = exhaustive_top_k(&table, &udfs, 5);
    let (par_top, par_stats) = exhaustive_top_k_parallel(&table, &udfs, 5);
    assert_eq!(seq_stats, par_stats, "merged stats diverge from sequential");
    let seq_scores: Vec<_> = seq_top.iter().map(|n| n.score).collect();
    let par_scores: Vec<_> = par_top.iter().map(|n| n.score).collect();
    assert_eq!(seq_scores, par_scores);
}

// ---------------------------------------------------------------------------
// Negatives: the checker must catch the seeded bugs.

/// Acceptance criterion: the `SeqCst` merge demoted to a non-atomic
/// read-modify-write is caught as a data race (and loses updates on
/// some schedules).
#[test]
fn seeded_nonatomic_rmw_bug_is_caught() {
    let report = explore(
        "seeded_rmw_bug",
        &Options::exhaustive(2000),
        demo::seeded_rmw_bug,
    );
    assert!(report.complete, "tiny model should be fully enumerable");
    assert!(
        report
            .races
            .iter()
            .any(|r| r.contains("merge.count") && r.contains("write")),
        "demoted RMW must be reported as a race: {:?}",
        report.races
    );
    // The correct twin (fetch_add SeqCst) in counter_merge is clean, so
    // the detector separates the bug from the fix.
}

#[test]
fn relaxed_publication_is_caught_and_release_twin_is_clean() {
    let bad = explore(
        "relaxed_publish_bug",
        &Options::exhaustive(2000),
        demo::relaxed_publish_bug,
    );
    assert!(bad.complete);
    assert!(
        bad.races.iter().any(|r| r.contains("publish.data")),
        "relaxed-flag publication must race: {:?}",
        bad.races
    );
    let good = explore(
        "release_publish_ok",
        &Options::exhaustive(2000),
        demo::release_publish_ok,
    );
    assert!(good.complete);
    assert!(
        good.ok(),
        "release-ordered twin must be clean: {:?}",
        good.races
    );
}

#[test]
fn abba_lock_inversion_deadlocks_are_found() {
    let report = explore(
        "abba_deadlock",
        &Options::exhaustive(2000),
        demo::abba_deadlock,
    );
    assert!(report.complete);
    assert!(report.deadlocks > 0, "ABBA must deadlock on some schedule");
    assert!(report.races.is_empty(), "deadlock, not a data race");
}

/// A failed post-run assertion is reported with the schedule that
/// produced it, not swallowed.
#[test]
fn assertion_failures_carry_their_schedule() {
    let report = explore(
        "lost_update_assert",
        &Options::exhaustive(2000),
        |sim: &mut Sim| {
            let count = sim.cell("count", 0u64);
            for _ in 0..2 {
                let count = count.clone();
                sim.spawn(move |ctx| {
                    let v = count.load(ctx);
                    count.store(ctx, v + 1);
                });
            }
            if sim.run() {
                assert_eq!(count.final_value(), 2, "lost update");
            }
        },
    );
    assert!(
        report
            .failures
            .iter()
            .any(|f| f.message.contains("lost update")),
        "some interleaving loses an update: {:?}",
        report
            .failures
            .iter()
            .map(|f| &f.message)
            .collect::<Vec<_>>()
    );
    assert!(
        report.failures.iter().all(|f| !f.schedule.is_empty()),
        "failures must carry a replayable schedule"
    );
}

/// Random mode explores with a seed and is reproducible.
#[test]
fn random_mode_is_deterministic_per_seed() {
    let runs = || {
        explore(
            "counter_merge_random",
            &Options::random(42, 200),
            demo::counter_merge,
        )
    };
    let a = runs();
    let b = runs();
    assert_eq!(a.executions, 200);
    assert_eq!(a.max_steps, b.max_steps, "same seed, same schedules");
    assert!(a.ok());
}
