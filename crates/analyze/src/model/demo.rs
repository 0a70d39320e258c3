//! Checked-in models of this repo's concurrency patterns.
//!
//! Each function is a model the checker explores. The positive models
//! mirror merges in `deepeye-obs` / `deepeye-core` (each says which
//! synchronization the real code uses) and must stay race-, deadlock-,
//! and failure-free under every explored interleaving; the negative models seed the exact bug class the
//! positives rule out and exist so the tests can prove the checker
//! *would* catch a regression (a detector nobody has seen fire is
//! untested).

use super::{explore_at_least, MemOrd, Report, Sim};

/// Floor on interleavings per checked-in model (acceptance criterion).
pub const INTERLEAVING_TARGET: usize = 1000;

/// Three threads merge into shared counters: a total bumped with a
/// `SeqCst` atomic and a log vector guarded by a mutex. The log half
/// mirrors `Observer::incr` and the span-sink push, which both take the
/// observer's state mutex; the atomic half is the lock-free variant of
/// the same merge. Neither may lose an update under any schedule.
pub fn counter_merge(sim: &mut Sim) {
    let total = sim.atomic_u64("counters.total", 0);
    let log = sim.cell("counters.log", Vec::<u64>::new());
    let m = sim.mutex("counters.lock");
    for t in 0..3u64 {
        let (total, log, m) = (total.clone(), log.clone(), m.clone());
        sim.spawn(move |ctx| {
            total.fetch_add(ctx, 1, MemOrd::SeqCst);
            m.lock(ctx);
            let mut v = log.load(ctx);
            v.push(t);
            log.store(ctx, v);
            m.unlock(ctx);
        });
    }
    if sim.run() {
        assert_eq!(total.final_value(), 3, "lost counter increment");
        let mut v = log.final_value();
        v.sort_unstable();
        assert_eq!(v, vec![0, 1, 2], "lost or duplicated log entry");
    }
}

/// Mirrors cross-thread `span_under` parenting: a stage span id is
/// published before a `Release`-ordered ready flag; workers that see
/// the flag must see the id, and every record they emit must parent to
/// it (or to the root when the flag was not yet visible).
pub fn span_parenting(sim: &mut Sim) {
    const STAGE_ID: u64 = 7;
    let stage = sim.atomic_u64("span.stage_id", 0);
    let ready = sim.atomic_u64("span.ready", 0);
    let recs = sim.cell("span.records", Vec::<(u64, Option<u64>)>::new());
    let m = sim.mutex("span.sink");
    {
        let (stage, ready) = (stage.clone(), ready.clone());
        sim.spawn(move |ctx| {
            stage.store(ctx, STAGE_ID, MemOrd::Relaxed);
            ready.store(ctx, 1, MemOrd::Release);
        });
    }
    for t in 1..3u64 {
        let (stage, ready, recs, m) = (stage.clone(), ready.clone(), recs.clone(), m.clone());
        sim.spawn(move |ctx| {
            let parent = if ready.load(ctx, MemOrd::Acquire) == 1 {
                Some(stage.load(ctx, MemOrd::Relaxed))
            } else {
                None
            };
            m.lock(ctx);
            let mut v = recs.load(ctx);
            v.push((t, parent));
            recs.store(ctx, v);
            m.unlock(ctx);
        });
    }
    if sim.run() {
        let recs = recs.final_value();
        assert_eq!(recs.len(), 2, "lost span record");
        for (_, parent) in recs {
            if let Some(p) = parent {
                assert_eq!(p, STAGE_ID, "record parented to a stale stage id");
            }
        }
    }
}

/// The work partition of `exhaustive_top_k_parallel`: workers fold
/// disjoint chunks. There each worker returns its partial and the caller
/// merges them as it joins the workers; this model merges them through a
/// `SeqCst` atomic instead, in whatever order the workers finish. The
/// merged total must equal the sequential fold.
pub fn partition_merge(sim: &mut Sim) {
    let data: Vec<u64> = (1..=9).collect();
    let expected: u64 = data.iter().sum();
    let sum = sim.atomic_u64("partition.sum", 0);
    let done = sim.atomic_u64("partition.done", 0);
    for w in 0..3usize {
        let (sum, done) = (sum.clone(), done.clone());
        let chunk: Vec<u64> = data[w * 3..(w + 1) * 3].to_vec();
        sim.spawn(move |ctx| {
            let partial: u64 = chunk.iter().sum();
            sum.fetch_add(ctx, partial, MemOrd::SeqCst);
            done.fetch_add(ctx, 1, MemOrd::SeqCst);
        });
    }
    if sim.run() {
        assert_eq!(done.final_value(), 3);
        assert_eq!(
            sum.final_value(),
            expected,
            "partition merge lost a partial"
        );
    }
}

/// **Negative.** The acceptance-criteria seeded bug: the `SeqCst`
/// counter merge demoted to a plain load/add/store. Every interleaving
/// is a data race, and some lose an update.
pub fn seeded_rmw_bug(sim: &mut Sim) {
    let count = sim.cell("merge.count", 0u64);
    for _ in 0..2 {
        let count = count.clone();
        sim.spawn(move |ctx| {
            let v = count.load(ctx);
            count.store(ctx, v + 1);
        });
    }
    sim.run();
}

fn publish(sim: &mut Sim, flag_order: MemOrd) {
    let data = sim.cell("publish.data", 0u64);
    let flag = sim.atomic_u64("publish.flag", 0);
    {
        let (data, flag) = (data.clone(), flag.clone());
        sim.spawn(move |ctx| {
            data.store(ctx, 42);
            flag.store(ctx, 1, flag_order);
        });
    }
    {
        let (data, flag) = (data.clone(), flag.clone());
        sim.spawn(move |ctx| {
            if flag.load(ctx, MemOrd::Acquire) == 1 {
                let v = data.load(ctx);
                assert_eq!(v, 42);
            }
        });
    }
    sim.run();
}

/// **Negative.** Publication through a `Relaxed` flag: the reader can
/// observe the flag without inheriting the writer's clock, so the data
/// read is a race.
pub fn relaxed_publish_bug(sim: &mut Sim) {
    publish(sim, MemOrd::Relaxed);
}

/// Positive twin of [`relaxed_publish_bug`]: a `Release` store on the
/// flag makes the same pattern race-free.
pub fn release_publish_ok(sim: &mut Sim) {
    publish(sim, MemOrd::Release);
}

/// **Negative.** Classic ABBA lock-order inversion; some schedules
/// deadlock and the checker must say so.
pub fn abba_deadlock(sim: &mut Sim) {
    let a = sim.mutex("lock.a");
    let b = sim.mutex("lock.b");
    {
        let (a, b) = (a.clone(), b.clone());
        sim.spawn(move |ctx| {
            a.lock(ctx);
            b.lock(ctx);
            b.unlock(ctx);
            a.unlock(ctx);
        });
    }
    {
        let (a, b) = (a.clone(), b.clone());
        sim.spawn(move |ctx| {
            b.lock(ctx);
            a.lock(ctx);
            a.unlock(ctx);
            b.unlock(ctx);
        });
    }
    sim.run();
}

/// The positive models `analyze --models` runs and prints.
pub fn demo_reports() -> Vec<Report> {
    vec![
        explore_at_least("observer_counter_merge", INTERLEAVING_TARGET, counter_merge),
        explore_at_least("span_under_parenting", INTERLEAVING_TARGET, span_parenting),
        explore_at_least(
            "top_k_partition_merge",
            INTERLEAVING_TARGET,
            partition_merge,
        ),
    ]
}
