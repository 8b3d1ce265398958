//! Shared-prefix trie over rule itemsets, frozen into a CSR layout.
//!
//! The pruning stage (§III-D) repeatedly asks one question: *which other
//! rules in this group have a varying side that properly contains — or is
//! properly contained by — this rule's?* A flat `Vec<Rule>` answers it
//! with O(g²) pairwise subset tests per group. This module stores the
//! varying sides along shared-prefix paths instead (the trie-of-rules
//! structure from "Exploring the Trie of Rules", arXiv 2310.17355), so
//! one *subset walk* and one *superset walk* enumerate exactly the nested
//! partners a condition can compare.
//!
//! Like the Apriori candidate trie (PR 6), construction goes through a
//! flat edge map and is then **frozen** into compressed sparse rows:
//! per-node child slices sorted by item, per-node entry slices holding
//! the indices of the rules that terminate there. Walks touch only
//! `Vec`-contiguous memory and never hash.
//!
//! Two walks:
//!
//! * [`RuleTrie::proper_subsets_of`] — descend only edges labelled with
//!   query items; every visited node holds subsets of the query, and a
//!   two-pointer merge over (sorted children, remaining query) bounds
//!   branching at `min(children, |rest|)` per node.
//! * [`RuleTrie::proper_supersets_of`] — edges labelled `< q[next]` are
//!   free items a superset may contain (descended only when the
//!   subtree's max item can still reach `q[next]`, see `subtree_max`);
//!   an edge `== q[next]` advances the query. Once the query is
//!   exhausted, the whole remaining subtree is supersets.
//!
//! The trie is prune's nested-pair index only: an exact
//! `(antecedent, consequent)` lookup is a binary search over the
//! generated rule order ([`crate::find_rule`]).

use irma_mine::ItemId;
use std::collections::HashMap;

/// A frozen shared-prefix trie over one side of a rule set.
///
/// Nodes are implicit (indices); node 0 is the root (the empty set).
/// `child_start[n]..child_start[n + 1]` delimits node `n`'s edges in
/// `child_items` / `child_nodes` (sorted by item), and
/// `entry_start[n]..entry_start[n + 1]` delimits the indices (into the
/// rule slice the trie was built from) of rules whose keyed side is
/// exactly the path to `n`, in ascending index order.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleTrie {
    child_start: Vec<u32>,
    child_items: Vec<ItemId>,
    child_nodes: Vec<u32>,
    entry_start: Vec<u32>,
    entry_rules: Vec<u32>,
    /// `subtree_max[n]` = largest item on any path through `n` (the item
    /// of `n`'s own incoming edge included); lets the superset walk skip
    /// subtrees that cannot contain the next query item.
    subtree_max: Vec<ItemId>,
}

impl RuleTrie {
    /// Builds a trie from raw sorted item slices; entry `k` of the
    /// iterator is indexed as rule `k`.
    pub fn from_sides<'a>(sides: impl Iterator<Item = &'a [ItemId]>) -> RuleTrie {
        let mut edges: HashMap<(u32, ItemId), u32> = HashMap::new();
        let mut item_of: Vec<ItemId> = vec![0]; // incoming-edge label per node
        let mut terminals: Vec<(u32, u32)> = Vec::new(); // (node, rule index)
        for (idx, side) in sides.enumerate() {
            let mut node = 0u32;
            for &item in side {
                let next_free = item_of.len() as u32;
                let next = *edges.entry((node, item)).or_insert(next_free);
                if next == next_free {
                    item_of.push(item);
                }
                node = next;
            }
            terminals.push((node, idx as u32));
        }
        let n_nodes = item_of.len();

        // Freeze: sorting by (node, item) yields per-node child slices
        // already ordered by item, exactly what the merge walks need.
        let mut triples: Vec<(u32, ItemId, u32)> = edges
            .into_iter()
            .map(|((node, item), child)| (node, item, child))
            .collect();
        triples.sort_unstable();
        let mut child_start = vec![0u32; n_nodes + 1];
        for &(node, _, _) in &triples {
            child_start[node as usize + 1] += 1;
        }
        for i in 1..child_start.len() {
            child_start[i] += child_start[i - 1];
        }
        let child_items: Vec<ItemId> = triples.iter().map(|&(_, item, _)| item).collect();
        let child_nodes: Vec<u32> = triples.iter().map(|&(_, _, child)| child).collect();

        terminals.sort_unstable();
        let mut entry_start = vec![0u32; n_nodes + 1];
        for &(node, _) in &terminals {
            entry_start[node as usize + 1] += 1;
        }
        for i in 1..entry_start.len() {
            entry_start[i] += entry_start[i - 1];
        }
        let entry_rules: Vec<u32> = terminals.iter().map(|&(_, rule)| rule).collect();

        // Children are always created after their parent, so a reverse
        // index sweep sees every child's subtree_max before its parent.
        let mut subtree_max = item_of;
        for node in (0..n_nodes).rev() {
            let (start, end) = (child_start[node] as usize, child_start[node + 1] as usize);
            for &child in &child_nodes[start..end] {
                subtree_max[node] = subtree_max[node].max(subtree_max[child as usize]);
            }
        }

        RuleTrie {
            child_start,
            child_items,
            child_nodes,
            entry_start,
            entry_rules,
            subtree_max,
        }
    }

    fn children(&self, node: u32) -> (&[ItemId], &[u32]) {
        let start = self.child_start[node as usize] as usize;
        let end = self.child_start[node as usize + 1] as usize;
        (&self.child_items[start..end], &self.child_nodes[start..end])
    }

    fn entries(&self, node: u32) -> &[u32] {
        let start = self.entry_start[node as usize] as usize;
        let end = self.entry_start[node as usize + 1] as usize;
        &self.entry_rules[start..end]
    }

    /// Appends the indices of all rules whose keyed side is a **proper
    /// subset** of `query` (sorted ascending) to `out`, in no particular
    /// order.
    pub fn proper_subsets_of(&self, query: &[ItemId], out: &mut Vec<u32>) {
        self.subsets_from(0, query, query.len(), out);
    }

    fn subsets_from(&self, node: u32, rest: &[ItemId], missing: usize, out: &mut Vec<u32>) {
        // `missing` = query items not yet matched on this path; zero
        // would mean the node's set equals the query — proper only.
        if missing > 0 {
            out.extend_from_slice(self.entries(node));
        }
        let (items, nodes) = self.children(node);
        // Only query-labelled edges are descended; each query item is
        // located in the (sorted) child slice by binary search from the
        // previous match, so a node with thousands of children — the root
        // of a many-family rule set — costs O(|rest| log children), not a
        // linear merge over every child.
        let mut lo = 0;
        for (qi, &q) in rest.iter().enumerate() {
            if lo >= items.len() {
                break;
            }
            let pos = lo + items[lo..].partition_point(|&item| item < q);
            if pos >= items.len() {
                break;
            }
            if items[pos] == q {
                self.subsets_from(nodes[pos], &rest[qi + 1..], missing - 1, out);
                lo = pos + 1;
            } else {
                lo = pos;
            }
        }
    }

    /// Appends the indices of all rules whose keyed side is a **proper
    /// superset** of `query` (sorted ascending) to `out`, in no
    /// particular order.
    pub fn proper_supersets_of(&self, query: &[ItemId], out: &mut Vec<u32>) {
        self.supersets_from(0, query, false, out);
    }

    fn supersets_from(&self, node: u32, rest: &[ItemId], strict: bool, out: &mut Vec<u32>) {
        let Some(&next) = rest.first() else {
            // Query exhausted: everything at or below this node is a
            // superset; the node itself equals the query unless the path
            // already took a non-query item.
            if strict {
                out.extend_from_slice(self.entries(node));
            }
            let (_, nodes) = self.children(node);
            for &child in nodes {
                self.collect_subtree(child, out);
            }
            return;
        };
        let (items, nodes) = self.children(node);
        for (ci, &item) in items.iter().enumerate() {
            if item < next {
                // A free item a superset may contain — but only worth
                // descending if the subtree can still produce `next`.
                if self.subtree_max[nodes[ci] as usize] >= next {
                    self.supersets_from(nodes[ci], rest, true, out);
                }
            } else if item == next {
                self.supersets_from(nodes[ci], &rest[1..], strict, out);
            } else {
                // Children are sorted; anything further can never match
                // `next`, and paths are ascending so `next` cannot appear
                // deeper either.
                break;
            }
        }
    }

    fn collect_subtree(&self, node: u32, out: &mut Vec<u32>) {
        out.extend_from_slice(self.entries(node));
        let (_, nodes) = self.children(node);
        for &child in nodes {
            self.collect_subtree(child, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irma_mine::is_sorted_subset;

    fn sides() -> Vec<Vec<ItemId>> {
        vec![
            vec![1],
            vec![1, 2],
            vec![1, 2, 3],
            vec![1, 3],
            vec![2],
            vec![2, 3],
            vec![1, 2], // duplicate side: both entries must surface
            vec![4],
        ]
    }

    fn build(sides: &[Vec<ItemId>]) -> RuleTrie {
        RuleTrie::from_sides(sides.iter().map(|s| s.as_slice()))
    }

    fn brute_subsets(sides: &[Vec<ItemId>], q: &[ItemId]) -> Vec<u32> {
        let mut out: Vec<u32> = (0..sides.len() as u32)
            .filter(|&i| {
                let s = &sides[i as usize];
                s.len() < q.len() && is_sorted_subset(s, q)
            })
            .collect();
        out.sort_unstable();
        out
    }

    fn brute_supersets(sides: &[Vec<ItemId>], q: &[ItemId]) -> Vec<u32> {
        let mut out: Vec<u32> = (0..sides.len() as u32)
            .filter(|&i| {
                let s = &sides[i as usize];
                s.len() > q.len() && is_sorted_subset(q, s)
            })
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn subset_walk_matches_brute_force() {
        let sides = sides();
        let trie = build(&sides);
        for q in [
            vec![1, 2, 3],
            vec![1, 2],
            vec![1],
            vec![2, 3],
            vec![1, 2, 3, 4],
            vec![5],
            vec![],
        ] {
            let mut got = Vec::new();
            trie.proper_subsets_of(&q, &mut got);
            got.sort_unstable();
            assert_eq!(got, brute_subsets(&sides, &q), "query {q:?}");
        }
    }

    #[test]
    fn superset_walk_matches_brute_force() {
        let sides = sides();
        let trie = build(&sides);
        for q in [
            vec![1],
            vec![2],
            vec![3],
            vec![1, 2],
            vec![1, 3],
            vec![2, 3],
            vec![1, 2, 3],
            vec![4],
            vec![5],
            vec![],
        ] {
            let mut got = Vec::new();
            trie.proper_supersets_of(&q, &mut got);
            got.sort_unstable();
            assert_eq!(got, brute_supersets(&sides, &q), "query {q:?}");
        }
    }

    #[test]
    fn equal_sets_are_excluded_from_both_walks() {
        let sides = vec![vec![1, 2], vec![1, 2]];
        let trie = build(&sides);
        let mut subs = Vec::new();
        let mut sups = Vec::new();
        trie.proper_subsets_of(&[1, 2], &mut subs);
        trie.proper_supersets_of(&[1, 2], &mut sups);
        assert!(subs.is_empty(), "{subs:?}");
        assert!(sups.is_empty(), "{sups:?}");
    }

    #[test]
    fn empty_trie_walks_are_empty() {
        let trie = RuleTrie::from_sides(std::iter::empty());
        let mut out = Vec::new();
        trie.proper_subsets_of(&[1, 2], &mut out);
        trie.proper_supersets_of(&[1], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn superset_walk_prunes_by_subtree_max() {
        // Families with disjoint low/high item blocks: querying a
        // high-block item must not enumerate the low-block subtrees.
        // (Behavioural check only — the walk must still be exact.)
        let sides = vec![vec![1, 2], vec![1, 3], vec![10, 11], vec![10, 12]];
        let trie = build(&sides);
        let mut got = Vec::new();
        trie.proper_supersets_of(&[11], &mut got);
        assert_eq!(got, vec![2]);
    }
}
