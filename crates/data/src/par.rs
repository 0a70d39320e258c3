//! One work-pulling parallel map, behind every parallel site of the
//! pipeline: ingest infers each column as one unit, the progressive
//! tournament materializes a batch of leaves, and `build_nodes` runs its
//! contiguous chunks.
//!
//! The calling thread and `workers − 1` scoped threads each take the next
//! unclaimed index from one atomic counter, so a slow unit never leaves a
//! thread idle while others remain. Results come back in input order,
//! which is what keeps every output independent of the worker count.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker threads for `units` independent units of work: the available
/// parallelism, capped by the units, and at least 1.
pub fn workers(units: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    hw.min(units).max(1)
}

/// `items.iter().map(f).collect()` on up to `workers` threads, the caller
/// included. With one worker (or one item) it runs inline and spawns
/// nothing. A panic in `f` reaches the caller, as it would on one thread.
pub fn map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    // The counter publishes nothing but the index it hands out; each
    // result reaches the caller through its thread's join, with its index.
    let next = AtomicUsize::new(0);
    let pull = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return done;
            };
            done.push((i, f(item)));
        }
    };
    let mut all: Vec<(usize, R)> = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(pull)).collect();
        let mut all = pull();
        for helper in helpers {
            match helper.join() {
                Ok(done) => all.extend(done),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        all
    });
    all.sort_unstable_by_key(|&(i, _)| i);
    all.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_input_order_and_visits_each_item_once() {
        for workers in 1..=8 {
            for n in 0..=20 {
                let items: Vec<usize> = (0..n).collect();
                let visits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let got = map(&items, workers, |&i| {
                    visits[i].fetch_add(1, Ordering::Relaxed);
                    i * 10
                });
                let want: Vec<usize> = items.iter().map(|i| i * 10).collect();
                assert_eq!(got, want, "{workers} workers, {n} items");
                assert!(
                    visits.iter().all(|v| v.load(Ordering::Relaxed) == 1),
                    "{workers} workers, {n} items"
                );
            }
        }
    }

    #[test]
    fn a_panicking_item_reaches_the_caller() {
        let items: Vec<usize> = (0..12).collect();
        for workers in 1..=4 {
            for bad in [0, 5, 11] {
                let result = std::panic::catch_unwind(|| {
                    map(&items, workers, |&i| {
                        assert_ne!(i, bad, "item {bad} fails");
                        i
                    })
                });
                let payload = result.expect_err("the panic must reach the caller");
                let message = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .unwrap_or_default();
                assert!(message.contains(&format!("item {bad} fails")), "{message}");
            }
        }
    }

    #[test]
    fn workers_are_capped_by_units_and_at_least_one() {
        assert_eq!(workers(0), 1);
        assert_eq!(workers(1), 1);
        assert!(workers(usize::MAX) >= 1);
        assert!(workers(3) <= 3);
    }
}
