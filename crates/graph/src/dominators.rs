//! Dominator trees of rooted directed graphs.
//!
//! Node `d` *dominates* `n` when every path from the entry to `n` passes
//! through `d`. The relation is quadratic if written out pair by pair,
//! but it is a tree: every reachable node other than the entry has one
//! *immediate* dominator, and the dominators of `n` are exactly the
//! ancestors of `n` in that tree. [`DomTree`] keeps the tree (one
//! parent per node) plus preorder entry/exit numbers of a walk over it,
//! so "does `d` dominate `n`?" is an interval check.
//!
//! The tree is computed by the iterative algorithm of Cooper, Harvey
//! and Kennedy ("A Simple, Fast Dominance Algorithm", 2001): nodes are
//! visited in reverse postorder of a DFS from the entry, and each
//! node's immediate dominator is the nearest common ancestor, in the
//! current tree, of its already-processed predecessors, until nothing
//! changes. Both depth-first walks are iterative, so deep graphs cannot
//! overflow the stack.
//!
//! ```
//! use stcfa_graph::DomTree;
//!
//! // 0 → 1 → 3, 0 → 2 → 3: only the entry dominates the join.
//! let succs: [&[u32]; 4] = [&[1, 2], &[3], &[3], &[]];
//! let tree = DomTree::build(4, 0, |u| succs[u]);
//! assert_eq!(tree.idom(3), Some(0));
//! assert!(tree.dominates(0, 3) && !tree.dominates(1, 3));
//! assert_eq!(tree.doms_of(3), vec![0, 3]);
//! ```

use crate::bitset::BitSet;
use crate::csr::Csr;

/// "No such node": unreachable nodes carry it in every array.
const NONE: u32 = u32::MAX;

/// The dominator tree of a graph rooted at an entry node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DomTree {
    entry: usize,
    /// Node → immediate dominator. The entry maps to itself.
    idom: Vec<u32>,
    /// Node → preorder number in a walk of the dominator tree.
    enter: Vec<u32>,
    /// Node → the largest preorder number in its dominator subtree.
    exit: Vec<u32>,
}

impl DomTree {
    /// Builds the dominator tree of the graph over nodes `0..n` with
    /// successor lists `succs`, rooted at `entry`. Edges into the entry,
    /// self-loops, duplicate edges and irreducible loops are all
    /// allowed; nodes the entry cannot reach are left out of the tree.
    ///
    /// # Panics
    ///
    /// Panics if `entry >= n` or a successor is out of range.
    pub fn build<'a>(n: usize, entry: usize, succs: impl Fn(usize) -> &'a [u32]) -> DomTree {
        assert!(entry < n, "entry {entry} out of range {n}");
        let graph = Csr::from_succs(n, succs);
        graph.audit().expect("successor out of range");
        let preds = graph.reverse();

        // Postorder of the nodes reachable from the entry.
        let mut po_of = vec![NONE; n];
        let mut order: Vec<u32> = Vec::new();
        let mut seen = BitSet::new(n);
        seen.insert(entry);
        let mut stack: Vec<(u32, u32)> = vec![(entry as u32, 0)];
        while let Some(top) = stack.last_mut() {
            let (u, next) = *top;
            match graph.succs(u as usize).get(next as usize) {
                Some(&v) => {
                    top.1 += 1;
                    if seen.insert(v as usize) {
                        stack.push((v, 0));
                    }
                }
                None => {
                    po_of[u as usize] = order.len() as u32;
                    order.push(u);
                    stack.pop();
                }
            }
        }

        // Immediate dominators by postorder number; the entry finishes
        // last, so it has the largest number, as does every ancestor in
        // the tree relative to its descendants.
        let root = order.len() as u32 - 1;
        let mut doms = vec![NONE; order.len()];
        doms[root as usize] = root;
        let mut changed = true;
        while changed {
            changed = false;
            for b in (0..root).rev() {
                let mut new = NONE;
                for &p in preds.succs(order[b as usize] as usize) {
                    let p = po_of[p as usize];
                    if p == NONE || doms[p as usize] == NONE {
                        continue;
                    }
                    new = if new == NONE {
                        p
                    } else {
                        intersect(&doms, p, new)
                    };
                }
                if doms[b as usize] != new {
                    doms[b as usize] = new;
                    changed = true;
                }
            }
        }

        let mut idom = vec![NONE; n];
        let mut tree_edges = Vec::with_capacity(order.len() - 1);
        for (b, &node) in order.iter().enumerate() {
            let parent = order[doms[b] as usize];
            idom[node as usize] = parent;
            if node != parent {
                tree_edges.push((parent, node));
            }
        }

        // Entry/exit numbers from a preorder walk of the tree.
        let children = Csr::from_edges(n, &tree_edges);
        let mut enter = vec![NONE; n];
        let mut exit = vec![NONE; n];
        enter[entry] = 0;
        let mut clock = 1u32;
        let mut stack: Vec<(u32, u32)> = vec![(entry as u32, 0)];
        while let Some(top) = stack.last_mut() {
            let (u, next) = *top;
            match children.succs(u as usize).get(next as usize) {
                Some(&c) => {
                    top.1 += 1;
                    enter[c as usize] = clock;
                    clock += 1;
                    stack.push((c, 0));
                }
                None => {
                    exit[u as usize] = clock - 1;
                    stack.pop();
                }
            }
        }

        DomTree {
            entry,
            idom,
            enter,
            exit,
        }
    }

    /// The entry node.
    pub fn entry(&self) -> usize {
        self.entry
    }

    /// Whether the entry reaches `n`.
    pub fn is_reachable(&self, n: usize) -> bool {
        self.enter[n] != NONE
    }

    /// The immediate dominator of `n`: `None` for the entry and for
    /// unreachable nodes.
    pub fn idom(&self, n: usize) -> Option<usize> {
        let d = self.idom[n];
        (d != NONE && n != self.entry).then_some(d as usize)
    }

    /// Whether `d` dominates `n` (reflexive on reachable nodes; false
    /// whenever either node is unreachable). `O(1)`.
    pub fn dominates(&self, d: usize, n: usize) -> bool {
        let at = self.enter[n];
        at != NONE && self.enter[d] <= at && at <= self.exit[d]
    }

    /// Whether `d` dominates `n` and `d != n`.
    pub fn strictly_dominates(&self, d: usize, n: usize) -> bool {
        d != n && self.dominates(d, n)
    }

    /// The dominators of `n` in increasing order, `n` itself included;
    /// empty for unreachable nodes. Walks the tree from `n` to the
    /// entry, so it costs the depth of `n`.
    pub fn doms_of(&self, n: usize) -> Vec<u32> {
        let mut out = Vec::new();
        if !self.is_reachable(n) {
            return out;
        }
        let mut at = n;
        loop {
            out.push(at as u32);
            if at == self.entry {
                break;
            }
            at = self.idom[at] as usize;
        }
        out.sort_unstable();
        out
    }
}

/// The nearest common ancestor of two processed nodes (postorder
/// numbers) in the current approximation of the tree.
fn intersect(doms: &[u32], mut a: u32, mut b: u32) -> u32 {
    while a != b {
        while a < b {
            a = doms[a as usize];
        }
        while b < a {
            b = doms[b as usize];
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(n: usize, edges: &[(u32, u32)]) -> DomTree {
        let g = Csr::from_edges(n, edges);
        DomTree::build(n, 0, |u| g.succs(u))
    }

    #[test]
    fn chain_nests_every_node() {
        let t = tree(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(t.doms_of(3), vec![0, 1, 2, 3]);
        assert_eq!(t.idom(3), Some(2));
        assert_eq!(t.idom(0), None);
        assert!(t.strictly_dominates(1, 3));
        assert!(!t.strictly_dominates(3, 3));
        assert!(!t.dominates(3, 1));
    }

    #[test]
    fn irreducible_loop_is_dominated_by_the_entry_only() {
        // {1, 2} is a loop with two entries, 0 → 1 and 0 → 2.
        let t = tree(4, &[(0, 1), (0, 2), (1, 2), (2, 1), (2, 3)]);
        assert_eq!(t.idom(1), Some(0));
        assert_eq!(t.idom(2), Some(0));
        assert_eq!(t.idom(3), Some(2));
        assert_eq!(t.doms_of(3), vec![0, 2, 3]);
    }

    #[test]
    fn self_loops_and_edges_into_the_entry_change_nothing() {
        let t = tree(3, &[(0, 0), (0, 1), (1, 1), (1, 0), (1, 2), (2, 0)]);
        assert_eq!(t.doms_of(0), vec![0]);
        assert_eq!(t.doms_of(2), vec![0, 1, 2]);
    }

    #[test]
    fn unreachable_nodes_are_outside_the_tree() {
        // 2 is unreachable, though it has an edge into the graph.
        let t = tree(4, &[(0, 1), (2, 1), (2, 3)]);
        for n in [2, 3] {
            assert!(!t.is_reachable(n));
            assert!(t.doms_of(n).is_empty());
            assert_eq!(t.idom(n), None);
            assert!(!t.dominates(n, n));
            assert!(!t.dominates(0, n) && !t.dominates(n, 1));
        }
        assert_eq!(t.doms_of(1), vec![0, 1]);
    }

    #[test]
    fn entry_need_not_be_node_zero() {
        let g = Csr::from_edges(3, &[(2, 0), (0, 1)]);
        let t = DomTree::build(3, 2, |u| g.succs(u));
        assert_eq!(t.entry(), 2);
        assert_eq!(t.doms_of(1), vec![0, 1, 2]);
    }

    #[test]
    fn deep_chains_do_not_recurse() {
        let n = 200_000;
        let edges: Vec<(u32, u32)> = (1..n as u32).map(|v| (v - 1, v)).collect();
        let t = tree(n, &edges);
        assert!(t.strictly_dominates(0, n - 1));
        assert!(t.strictly_dominates(n / 2, n - 1));
        assert_eq!(t.idom(n - 1), Some(n - 2));
    }
}
