//! Property-based tests for the observability layer: histogram merge
//! semantics, allocation-attribution reconciliation across threads, and
//! the executor cost collector's flush-order invariance and exactness
//! invariant.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use deepeye_obs::{
    validate_cost_json, CandidateCost, CostAcc, CostCollector, Histogram, Observer, Op, OpCosts,
};
use proptest::prelude::*;

/// A synthetic candidate whose rollup dimensions are a pure function of
/// its id — merging the same id across flushes must see consistent
/// dimensions, exactly as `query_id`-keyed candidates do in production.
fn cost_candidate(id_idx: u64, counts: &[u64], builds: u64) -> CandidateCost {
    const CHARTS: [&str; 3] = ["bar", "line", "pie"];
    const TRANSFORMS: [&str; 3] = ["none", "group", "bin"];
    const SIGNATURES: [&str; 3] = ["categorical*numerical", "temporal*numerical", "categorical"];
    let mut costs = OpCosts::default();
    for (op, &n) in Op::ALL.into_iter().zip(counts) {
        costs.add(op, n);
    }
    CandidateCost {
        id: format!("q{id_idx}"),
        chart: CHARTS[(id_idx % 3) as usize].to_owned(),
        transform: TRANSFORMS[((id_idx / 3) % 3) as usize].to_owned(),
        signature: SIGNATURES[((id_idx / 9) % 3) as usize].to_owned(),
        builds,
        costs,
    }
}

/// Deterministic Fisher–Yates driven by a seed (no `rand` dependency).
fn shuffled<T>(mut items: Vec<T>, mut seed: u64) -> Vec<T> {
    for i in (1..items.len()).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        items.swap(i, (seed >> 33) as usize % (i + 1));
    }
    items
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merging shard histograms is indistinguishable from recording every
    /// sample into one histogram — the exact invariant the observer
    /// relies on when it folds per-thread data into the shared sink.
    #[test]
    fn merge_then_quantile_equals_record_all(
        a_samples in proptest::collection::vec(0u64..1_000_000_000_000, 0..120),
        b_samples in proptest::collection::vec(0u64..1_000_000_000_000, 0..120),
    ) {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut all = Histogram::default();
        for &v in &a_samples {
            a.record(v);
            all.record(v);
        }
        for &v in &b_samples {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        prop_assert_eq!(a.summary(), all.summary());
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            prop_assert_eq!(a.quantile(q), all.quantile(q), "quantile {} diverged", q);
        }
    }

    /// Quantiles stay monotone in `q` and inside the recorded range, for
    /// any sample set — merged or not.
    #[test]
    fn quantiles_are_monotone_and_bounded(
        samples in proptest::collection::vec(0u64..u64::MAX / 2, 1..200),
    ) {
        let mut h = Histogram::default();
        for &v in &samples {
            h.record(v);
        }
        let qs: Vec<u64> = [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]
            .iter()
            .map(|&q| h.quantile(q))
            .collect();
        for w in qs.windows(2) {
            prop_assert!(w[0] <= w[1], "quantiles must be monotone: {:?}", qs);
        }
        prop_assert!(qs[0] >= h.min());
        prop_assert!(qs[qs.len() - 1] <= h.max());
    }

    /// Allocation charges from concurrent scoped-thread worker spans
    /// reconcile: the parent's inclusive aggregate equals the total of
    /// every worker's charges (children never exceed the parent), and
    /// peak never exceeds total bytes.
    #[test]
    fn alloc_counters_reconcile_across_threads(
        workers in proptest::collection::vec(
            proptest::collection::vec((1u64..5, 0u64..10_000), 0..12),
            1..6,
        ),
    ) {
        let obs = Observer::enabled();
        let parent = obs.span("prop.parent");
        let parent_id = parent.id();
        std::thread::scope(|scope| {
            for charges in &workers {
                let obs = obs.clone();
                scope.spawn(move || {
                    let _worker = obs.span_under("prop.worker", parent_id);
                    for &(count, bytes) in charges {
                        obs.alloc_many(count, bytes);
                    }
                });
            }
        });
        drop(parent);

        let total_count: u64 = workers.iter().flatten().map(|&(c, _)| c).sum();
        let total_bytes: u64 = workers.iter().flatten().map(|&(_, b)| b).sum();
        let snapshot = obs.snapshot();
        let parent_agg = snapshot.stage("prop.parent").expect("parent stage");
        let child_agg = snapshot.stage("prop.worker");

        // Inclusive parent aggregate == everything charged below it.
        prop_assert_eq!(parent_agg.alloc_count, total_count);
        prop_assert_eq!(parent_agg.alloc_bytes, total_bytes);
        // Children sum to at most the parent (equality here: the parent
        // charges nothing itself).
        let (child_count, child_bytes) =
            child_agg.map_or((0, 0), |a| (a.alloc_count, a.alloc_bytes));
        prop_assert!(child_count <= parent_agg.alloc_count);
        prop_assert_eq!(child_bytes, total_bytes);
        // Peak is a sum of per-span live peaks: bounded by total bytes.
        prop_assert!(parent_agg.alloc_peak <= parent_agg.alloc_bytes);
        // The metrics document stays self-consistent under any charge mix.
        deepeye_obs::validate_metrics_json(&snapshot.metrics_json())
            .expect("metrics validate");
    }

    /// Worker flush order never changes what the cost collector reports:
    /// candidates, rollup groups, and grand totals are identical under
    /// any permutation and chunking of the same candidate stream, and
    /// both documents satisfy the exactness invariant the validator
    /// enforces. (This is exactly the guarantee the parallel executor
    /// leans on — worker chunks land in nondeterministic order.)
    #[test]
    fn cost_report_is_flush_order_invariant(
        cands in proptest::collection::vec(
            (0u64..12, proptest::collection::vec(0u64..10_000, 7), 1u64..4),
            1..24,
        ),
        chunk_a in 1usize..5,
        chunk_b in 1usize..5,
        seed in 0u64..u64::MAX,
    ) {
        let ordered: Vec<CandidateCost> = cands
            .iter()
            .map(|(id, counts, builds)| cost_candidate(*id, counts, *builds))
            .collect();
        let permuted = shuffled(ordered.clone(), seed);

        let a = CostCollector::enabled();
        for chunk in ordered.chunks(chunk_a) {
            a.record_worker(chunk.to_vec());
        }
        let b = CostCollector::enabled();
        for chunk in permuted.chunks(chunk_b) {
            b.record_worker(chunk.to_vec());
        }

        let ra = a.report();
        let rb = b.report();
        prop_assert_eq!(&ra.candidates, &rb.candidates);
        prop_assert_eq!(&ra.groups, &rb.groups);
        prop_assert_eq!(ra.totals, rb.totals);
        // Worker flush totals differ in shape but sum identically.
        let sum = |workers: &[OpCosts]| {
            let mut t = OpCosts::default();
            for w in workers {
                t.merge(w);
            }
            t
        };
        prop_assert_eq!(sum(&ra.workers), ra.totals);
        prop_assert_eq!(sum(&rb.workers), rb.totals);
        // Both documents pass the full exactness validation.
        let sa = validate_cost_json(&ra.to_json()).expect("order A validates");
        let sb = validate_cost_json(&rb.to_json()).expect("order B validates");
        prop_assert_eq!(sa.candidates, sb.candidates);
        prop_assert_eq!(sa.groups, sb.groups);
        prop_assert_eq!(sa.total_ops, sb.total_ops);
    }

    /// A disabled collector is absent, not zero: it accepts any flush
    /// without recording, its report is empty (and still a valid
    /// document), and the `NoCost` accumulator stays inert for any
    /// operation sequence.
    #[test]
    fn disabled_cost_collection_is_absent(
        cands in proptest::collection::vec(
            (0u64..12, proptest::collection::vec(0u64..10_000, 7), 1u64..4),
            0..16,
        ),
    ) {
        let costs = CostCollector::disabled();
        prop_assert!(!costs.is_enabled());
        for (id, counts, builds) in &cands {
            costs.record_worker(vec![cost_candidate(*id, counts, *builds)]);
        }
        let report = costs.report();
        prop_assert!(report.candidates.is_empty());
        prop_assert!(report.workers.is_empty());
        prop_assert!(report.groups.is_empty());
        prop_assert!(report.totals.is_zero());
        let summary = validate_cost_json(&report.to_json()).expect("empty doc validates");
        prop_assert_eq!(summary.candidates, 0);
        prop_assert_eq!(summary.total_ops, 0);

        let mut sink = deepeye_obs::NoCost;
        for (_, counts, _) in &cands {
            for (op, &n) in Op::ALL.into_iter().zip(counts) {
                sink.add(op, n);
            }
        }
        prop_assert_eq!(std::mem::size_of_val(&sink), 0);
    }
}
