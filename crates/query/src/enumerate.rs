//! Search-space enumeration (§II-B, Figure 3).
//!
//! For two columns the space is every ordered column pair × 11 transforms
//! (identity, group, 9 bins) × 4 aggregates × 3 orderings × 4 chart types —
//! `528·m(m−1)` visualizations for an m-column table. One-column queries
//! add `264·m` more. These iterators generate that space lazily so the
//! progressive selector (§V-B) never has to materialize it.

use crate::ast::{Aggregate, ChartType, SortOrder, Transform, VisQuery};
use crate::bins::UdfRegistry;
use crate::sema;
use deepeye_data::Table;

/// Number of candidate two-column visualizations for `m` columns:
/// `m(m-1) × 44 × 4 × 3 = 528·m(m−1)`.
pub fn two_column_space_size(m: usize) -> usize {
    if m < 2 {
        return 0;
    }
    m * (m - 1) * 11 * 4 * 4 * 3
}

/// Number of candidate one-column visualizations for `m` columns:
/// `m × 22 × 4 × 3 = 264·m` (transform cases pair with {identity, CNT}).
pub fn one_column_space_size(m: usize) -> usize {
    m * 11 * 2 * 4 * 3
}

/// Lazily enumerate the full (unfiltered) two-column query space of a table.
///
/// This is the paper's raw search space: many of these queries are
/// ill-typed (e.g. binning a categorical column) and will fail execution or
/// be pruned by the rules of §V-A; the exhaustive enumeration mode of the
/// efficiency experiment needs them generated regardless.
pub fn two_column_queries(table: &Table) -> impl Iterator<Item = VisQuery> + '_ {
    let names: Vec<String> = table
        .columns()
        .iter()
        .map(|c| c.name().to_owned())
        .collect();
    ordered_pairs(names).flat_map(|(x, y)| {
        Transform::enumerable().into_iter().flat_map(move |t| {
            let (x, y) = (x.clone(), y.clone());
            Aggregate::ALL.into_iter().flat_map(move |agg| {
                let (x, y, t) = (x.clone(), y.clone(), t.clone());
                SortOrder::ALL.into_iter().flat_map(move |order| {
                    let (x, y, t) = (x.clone(), y.clone(), t.clone());
                    ChartType::ALL.into_iter().map(move |chart| VisQuery {
                        chart,
                        x: x.clone(),
                        y: Some(y.clone()),
                        transform: t.clone(),
                        aggregate: agg,
                        order,
                    })
                })
            })
        })
    })
}

/// Lazily enumerate the one-column query space of a table.
pub fn one_column_queries(table: &Table) -> impl Iterator<Item = VisQuery> + '_ {
    let names: Vec<String> = table
        .columns()
        .iter()
        .map(|c| c.name().to_owned())
        .collect();
    names.into_iter().flat_map(|x| {
        Transform::enumerable().into_iter().flat_map(move |t| {
            let x = x.clone();
            [Aggregate::Raw, Aggregate::Cnt]
                .into_iter()
                .flat_map(move |agg| {
                    let (x, t) = (x.clone(), t.clone());
                    SortOrder::ALL.into_iter().flat_map(move |order| {
                        let (x, t) = (x.clone(), t.clone());
                        ChartType::ALL.into_iter().map(move |chart| VisQuery {
                            chart,
                            x: x.clone(),
                            y: None,
                            transform: t.clone(),
                            aggregate: agg,
                            order,
                        })
                    })
                })
        })
    })
}

/// The complete raw space: one-column plus two-column queries.
pub fn all_queries(table: &Table) -> impl Iterator<Item = VisQuery> + '_ {
    one_column_queries(table).chain(two_column_queries(table))
}

/// The executable subset of the raw space: [`all_queries`] filtered through
/// [`sema::check_executable`], so every yielded query is guaranteed to run
/// (it may still produce [`crate::QueryError::EmptyResult`] on all-null
/// data, the one failure sema cannot see statically).
///
/// Exhaustive-enumeration consumers should prefer this over `all_queries`:
/// it skips the statically ill-typed bulk of the space without executing
/// (and erroring on) each candidate.
pub fn valid_queries<'a>(
    table: &'a Table,
    udfs: &'a UdfRegistry,
) -> impl Iterator<Item = VisQuery> + 'a {
    all_queries(table).filter(move |q| {
        let executable = sema::check_executable(table, q, udfs).is_ok();
        debug_assert!(
            !executable || !sema::analyze(table, q, udfs).iter().any(|d| d.is_error()),
            "sema invariant violated: check_executable passed a query that analyze rejects: {q:?}"
        );
        executable
    })
}

/// [`all_queries`] with each candidate's sema verdict attached: `None`
/// for statically executable queries, `Some(diagnostic)` (the first
/// fatal diagnostic, exactly what [`sema::check_executable`] reports)
/// for rejected ones. The provenance layer walks this instead of
/// [`valid_queries`] so it can record *why* each candidate was admitted
/// or rejected while keeping identical admit/reject counts.
pub fn queries_with_verdict<'a>(
    table: &'a Table,
    udfs: &'a UdfRegistry,
) -> impl Iterator<Item = (VisQuery, Option<sema::Diagnostic>)> + 'a {
    all_queries(table).map(move |q| {
        let verdict = sema::check_executable(table, &q, udfs).err();
        (q, verdict)
    })
}

/// All ordered pairs (x ≠ y) of the given names.
fn ordered_pairs(names: Vec<String>) -> impl Iterator<Item = (String, String)> {
    let n = names.len();
    (0..n).flat_map(move |i| {
        let names = names.clone();
        (0..n)
            .filter(move |&j| j != i)
            .map(move |j| (names[i].clone(), names[j].clone()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepeye_data::TableBuilder;

    fn table(m: usize) -> Table {
        let mut b = TableBuilder::new("t");
        for i in 0..m {
            b = b.numeric(format!("c{i}"), [1.0, 2.0, 3.0]);
        }
        b.build().unwrap()
    }

    #[test]
    fn two_column_count_matches_paper_formula() {
        // 528·m(m−1) from §II-B.
        for m in [2usize, 3, 5] {
            let t = table(m);
            let count = two_column_queries(&t).count();
            assert_eq!(count, 528 * m * (m - 1));
            assert_eq!(count, two_column_space_size(m));
        }
    }

    #[test]
    fn one_column_count_matches_paper_formula() {
        // 264·m from §II-B.
        for m in [1usize, 2, 4] {
            let t = table(m);
            let count = one_column_queries(&t).count();
            assert_eq!(count, 264 * m);
            assert_eq!(count, one_column_space_size(m));
        }
    }

    #[test]
    fn degenerate_tables() {
        assert_eq!(two_column_space_size(0), 0);
        assert_eq!(two_column_space_size(1), 0);
        let t = table(1);
        assert_eq!(two_column_queries(&t).count(), 0);
        assert_eq!(one_column_queries(&t).count(), 264);
    }

    #[test]
    fn all_queries_is_union() {
        let t = table(3);
        assert_eq!(
            all_queries(&t).count(),
            two_column_space_size(3) + one_column_space_size(3)
        );
    }

    #[test]
    fn queries_are_distinct() {
        let t = table(2);
        let qs: Vec<VisQuery> = two_column_queries(&t).collect();
        let mut seen = std::collections::HashSet::new();
        for q in &qs {
            assert!(seen.insert(format!("{q:?}")), "duplicate query {q:?}");
        }
    }

    #[test]
    fn valid_queries_all_execute() {
        // Every sema-approved query must actually run; every rejected one
        // must actually fail. This pins check_executable to the executor.
        let t = table(2);
        let udfs = UdfRegistry::default();
        let valid: std::collections::HashSet<String> =
            valid_queries(&t, &udfs).map(|q| format!("{q:?}")).collect();
        for q in all_queries(&t) {
            let ran = crate::exec::execute_with(&t, &q, &udfs);
            let approved = valid.contains(&format!("{q:?}"));
            match ran {
                Ok(_) => assert!(approved, "executed fine but sema rejected: {q:?}"),
                Err(crate::exec::QueryError::EmptyResult) => {
                    assert!(
                        approved,
                        "EmptyResult is data-dependent, sema must pass: {q:?}"
                    );
                }
                Err(e) => assert!(!approved, "sema approved a failing query: {q:?} → {e}"),
            }
        }
        assert!(!valid.is_empty());
        assert!(valid.len() < all_queries(&t).count());
    }

    #[test]
    fn pairs_are_ordered_and_irreflexive() {
        let t = table(3);
        let qs: Vec<VisQuery> = two_column_queries(&t).collect();
        assert!(qs.iter().all(|q| Some(&q.x) != q.y.as_ref()));
        // Both (c0, c1) and (c1, c0) appear: XY and YX are different.
        assert!(qs
            .iter()
            .any(|q| q.x == "c0" && q.y.as_deref() == Some("c1")));
        assert!(qs
            .iter()
            .any(|q| q.x == "c1" && q.y.as_deref() == Some("c0")));
    }
}
