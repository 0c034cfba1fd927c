//! Property tests for the graph substrate: reachability, SCCs and the
//! transitive closure must agree with each other on random graphs.

// Index-based loops intentionally mirror the dense-id indexing the
// assertions compare; iterators would obscure the parallel access.
#![allow(clippy::needless_range_loop)]

use stcfa_devkit::prelude::*;
use stcfa_graph::{BitSet, DiGraph, DomTree};

fn arb_graph() -> impl Strategy<Value = DiGraph> {
    (
        2usize..40,
        collection::vec((0usize..40, 0usize..40), 0..120),
    )
        .prop_map(|(n, edges)| {
            let mut g = DiGraph::with_nodes(n);
            for (u, v) in edges {
                g.add_edge(u % n, v % n);
            }
            g
        })
}

/// A graph rooted at node 0. Random edges land on the entry and on
/// their own source often enough to cover both, leave some nodes
/// unreachable, and form irreducible loops; the flag additionally
/// plants the two-entry loop `0 → 1 ⇄ 2 ← 0` so every run sees one.
fn arb_rooted_graph() -> impl Strategy<Value = DiGraph> {
    (
        1usize..24,
        collection::vec((0usize..24, 0usize..24), 0..60),
        any::<bool>(),
    )
        .prop_map(|(n, edges, irreducible)| {
            let mut g = DiGraph::with_nodes(n);
            for (u, v) in edges {
                g.add_edge(u % n, v % n);
            }
            if irreducible && n >= 3 {
                for (u, v) in [(0, 1), (0, 2), (1, 2), (2, 1)] {
                    g.add_edge(u, v);
                }
            }
            g
        })
}

/// The nodes the entry 0 reaches in `g` when `avoid` is deleted.
fn reach_avoiding(g: &DiGraph, avoid: Option<usize>) -> BitSet {
    let mut seen = BitSet::new(g.node_count());
    if avoid == Some(0) {
        return seen;
    }
    seen.insert(0);
    let mut stack = vec![0usize];
    while let Some(u) = stack.pop() {
        for &v in g.succs(u) {
            let v = v as usize;
            if Some(v) != avoid && seen.insert(v) {
                stack.push(v);
            }
        }
    }
    seen
}

proptest! {
    #[test]
    fn closure_equals_reachability(g in arb_graph()) {
        let tc = g.transitive_closure();
        for u in 0..g.node_count() {
            let direct = g.reachable_from(u);
            prop_assert_eq!(
                tc[u].iter().collect::<Vec<_>>(),
                direct.iter().collect::<Vec<_>>(),
                "node {}", u
            );
        }
    }

    #[test]
    fn same_scc_iff_mutually_reachable(g in arb_graph()) {
        let (comp, _) = g.sccs();
        let tc = g.transitive_closure();
        for u in 0..g.node_count() {
            for v in 0..g.node_count() {
                let mutual = tc[u].contains(v) && tc[v].contains(u);
                prop_assert_eq!(comp[u] == comp[v], mutual, "nodes {} {}", u, v);
            }
        }
    }

    #[test]
    fn scc_numbering_is_reverse_topological(g in arb_graph()) {
        let (comp, _) = g.sccs();
        for u in 0..g.node_count() {
            for &v in g.succs(u) {
                // An edge can only go to an equal-or-smaller component id.
                prop_assert!(comp[u] >= comp[v as usize]);
            }
        }
    }

    #[test]
    fn reverse_preserves_edge_count_and_flips(g in arb_graph()) {
        let r = g.reverse();
        prop_assert_eq!(g.edge_count(), r.edge_count());
        for u in 0..g.node_count() {
            for &v in g.succs(u) {
                prop_assert!(r.has_edge(v as usize, u));
            }
        }
    }

    #[test]
    fn postorder_is_a_permutation(g in arb_graph()) {
        let order = g.postorder();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..g.node_count()).collect::<Vec<_>>());
    }

    #[test]
    fn bitset_union_is_idempotent_and_monotone(
        a in collection::vec(0usize..256, 0..64),
        b in collection::vec(0usize..256, 0..64),
    ) {
        let mut x = BitSet::new(256);
        for &i in &a { x.insert(i); }
        let mut y = BitSet::new(256);
        for &i in &b { y.insert(i); }
        let before = x.len();
        x.union_with(&y);
        prop_assert!(x.len() >= before);
        prop_assert!(x.len() >= y.len().max(before));
        let snapshot: Vec<usize> = x.iter().collect();
        prop_assert!(!x.union_with(&y), "second union must be a no-op");
        prop_assert_eq!(snapshot, x.iter().collect::<Vec<usize>>());
        for &i in a.iter().chain(&b) {
            prop_assert!(x.contains(i));
        }
    }
}

proptest! {
    /// `d` dominates `n` iff `n` is reachable from the entry, but not
    /// once `d` is deleted; the tree's interval checks, immediate
    /// dominators and sorted lists must all say exactly that.
    #[test]
    fn dominator_tree_matches_deletion_oracle(g in arb_rooted_graph()) {
        let n = g.node_count();
        let tree = DomTree::build(n, 0, |u| g.succs(u));
        let reach = reach_avoiding(&g, None);
        let mut doms: Vec<Vec<u32>> = vec![Vec::new(); n];
        for d in 0..n {
            let without = reach_avoiding(&g, Some(d));
            for v in 0..n {
                let want = reach.contains(v) && !without.contains(v);
                prop_assert_eq!(tree.dominates(d, v), want, "dominates({}, {})", d, v);
                prop_assert_eq!(tree.strictly_dominates(d, v), want && d != v);
                if want {
                    doms[v].push(d as u32);
                }
            }
        }
        for v in 0..n {
            prop_assert_eq!(tree.is_reachable(v), reach.contains(v), "node {}", v);
            prop_assert_eq!(&tree.doms_of(v), &doms[v], "doms_of({})", v);
            // The immediate dominator is the closest strict dominator:
            // every other strict dominator dominates it.
            match tree.idom(v) {
                Some(i) => {
                    prop_assert!(tree.strictly_dominates(i, v));
                    for &d in &doms[v] {
                        let d = d as usize;
                        prop_assert!(d == v || tree.dominates(d, i), "{} above idom {}", d, i);
                    }
                }
                None => prop_assert!(v == 0 || !reach.contains(v), "node {}", v),
            }
        }
    }
}
