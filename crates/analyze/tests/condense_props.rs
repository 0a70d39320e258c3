//! Property test for the call graph's SCC condensation: the Tarjan
//! components and their ascending reachable-sets sweep agree with a
//! brute-force transitive closure on random graphs. Every
//! interprocedural rule reads reachability and the effect summaries'
//! bottom-up order from this condensation.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use deepeye_analyze::callgraph::condense;
use proptest::prelude::*;

/// Brute-force reflexive-transitive closure over `n` nodes.
fn closure(n: usize, edges: &[(usize, usize)]) -> Vec<Vec<bool>> {
    let mut r = vec![vec![false; n]; n];
    for (i, row) in r.iter_mut().enumerate() {
        row[i] = true;
    }
    for &(a, b) in edges {
        r[a % n][b % n] = true;
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                r[i][j] = r[i][j] || (r[i][k] && r[k][j]);
            }
        }
    }
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// SCC condensation + the ascending reachable-sets sweep computes
    /// exactly the brute-force reflexive-transitive closure.
    #[test]
    fn scc_condensation_matches_brute_force_reachability(
        n in 1usize..10,
        edges in proptest::collection::vec((0usize..10, 0usize..10), 0..30),
    ) {
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(a, b) in &edges {
            succs[a % n].push(b % n);
        }
        let scc = condense(n, &succs);
        let reach = scc.reachable_sets();
        let truth = closure(n, &edges);
        for (i, row) in truth.iter().enumerate() {
            for (j, &expected) in row.iter().enumerate() {
                let got = reach[scc.comp_of[i]].contains(scc.comp_of[j]);
                prop_assert_eq!(
                    got, expected,
                    "reachability({}, {}) disagrees with the closure", i, j
                );
            }
        }
        // Members of one component reach each other both ways.
        for comp in &scc.comps {
            for &a in comp {
                for &b in comp {
                    prop_assert!(truth[a][b] && truth[b][a], "SCC {:?} is not strongly connected", comp);
                }
            }
        }
    }
}
