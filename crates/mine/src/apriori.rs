//! Apriori frequent-itemset mining (Agrawal & Srikant, VLDB 1994).
//!
//! Implemented as the baseline the paper compares FP-Growth against
//! (§III-C): level-wise candidate generation with the F(k-1) × F(k-1)
//! prefix join, subset-based pruning, and trie-accelerated support counting
//! (the trie plays the role of the original paper's hash tree). Support
//! counting is parallelised over deduplicated, multiplicity-weighted
//! transactions with rayon, and candidate generation is parallelised over
//! prefix-join runs; both merge per-worker results at the level barrier in
//! a fixed order, so output is byte-identical at every pool width.

use std::collections::HashMap;

use rayon::prelude::*;

use crate::budget::{BudgetGuard, MineError};
use crate::counts::{FrequentItemsets, MinerConfig};
use crate::db::TransactionDb;
use crate::item::{ItemId, Itemset};

/// Fibonacci-multiplicative hasher for the trie's packed `(node, item)`
/// edge keys: one `wrapping_mul` per lookup instead of SipHash's full
/// permutation rounds. Safe here because the keys are program-generated
/// dense indices, not attacker-controlled input.
#[derive(Debug, Default)]
struct EdgeHasher(u64);

impl std::hash::Hasher for EdgeHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (unused by the u64 edge keys).
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

#[derive(Debug, Default, Clone)]
struct EdgeHasherBuilder;

impl std::hash::BuildHasher for EdgeHasherBuilder {
    type Hasher = EdgeHasher;

    fn build_hasher(&self) -> EdgeHasher {
        EdgeHasher::default()
    }
}

/// A candidate-counting trie: one level per itemset position.
///
/// Each candidate of length k is a root-to-leaf path; counting walks every
/// transaction through the trie, advancing only along items present in the
/// transaction, so a transaction of length m visits at most C(m, k) paths —
/// and far fewer in practice because the trie is sparse.
///
/// Construction keeps edges in ONE flat hash map keyed by the prefix hash
/// `(node << 32) | item` (no per-node allocation, cheap multiplicative
/// hash). The build map is *not* what counting walks, though: support
/// counting used to re-hash an edge key per (node, transaction item) pair,
/// and at 10k jobs × C(m, k) paths per transaction those probes were the
/// entire level cost — ~170× slower than FP-Growth for identical output.
/// [`CandidateTrie::freeze`] therefore compiles the map into a [`FrozenTrie`]
/// (CSR adjacency, children sorted by item), whose walk advances a
/// two-pointer merge over the sorted transaction and the sorted child
/// slice: no hashing at all in the hot loop.
#[derive(Debug, Default)]
struct CandidateTrie {
    /// `(node << 32) | item` -> child node index.
    edges: HashMap<u64, u32, EdgeHasherBuilder>,
    /// `leaf[n]` = candidate index if node `n` terminates a candidate.
    leaf: Vec<Option<u32>>,
}

impl CandidateTrie {
    fn new() -> CandidateTrie {
        CandidateTrie {
            edges: HashMap::default(),
            leaf: vec![None],
        }
    }

    fn edge_key(node: u32, item: ItemId) -> u64 {
        (u64::from(node) << 32) | u64::from(item)
    }

    /// Inserts a candidate (sorted items) with its dense index.
    fn insert(&mut self, items: &[ItemId], candidate_idx: u32) {
        let mut node = 0u32;
        for &item in items {
            let next_free = self.leaf.len() as u32;
            let next = *self
                .edges
                .entry(Self::edge_key(node, item))
                .or_insert(next_free);
            if next == next_free {
                self.leaf.push(None);
            }
            node = next;
        }
        self.leaf[node as usize] = Some(candidate_idx);
    }

    /// Compiles the edge map into the CSR form counting walks.
    fn freeze(self) -> FrozenTrie {
        let n_nodes = self.leaf.len();
        let mut triples: Vec<(u32, ItemId, u32)> = self
            .edges
            .iter()
            .map(|(&key, &child)| ((key >> 32) as u32, key as ItemId, child))
            .collect();
        // Sorting by (node, item) yields per-node child slices already
        // ordered by item — what the merge walk needs.
        triples.sort_unstable();
        let mut child_start = vec![0u32; n_nodes + 1];
        for &(node, _, _) in &triples {
            child_start[node as usize + 1] += 1;
        }
        for i in 1..child_start.len() {
            child_start[i] += child_start[i - 1];
        }
        FrozenTrie {
            child_start,
            child_items: triples.iter().map(|&(_, item, _)| item).collect(),
            child_nodes: triples.iter().map(|&(_, _, child)| child).collect(),
            leaf: self.leaf,
        }
    }
}

/// The compiled, read-only form of a level's candidate trie: CSR
/// adjacency with children sorted by item. See [`CandidateTrie`] for why
/// this exists.
#[derive(Debug)]
struct FrozenTrie {
    /// Node `n`'s children live at `child_start[n]..child_start[n + 1]`.
    child_start: Vec<u32>,
    /// Edge labels, sorted within each node's slice.
    child_items: Vec<ItemId>,
    /// Child node index per edge (parallel to `child_items`).
    child_nodes: Vec<u32>,
    /// `leaf[n]` = candidate index if node `n` terminates a candidate.
    leaf: Vec<Option<u32>>,
}

impl FrozenTrie {
    /// Adds `weight` to `counts[c]` for every candidate `c` ⊆ `txn`.
    fn count_into(&self, txn: &[ItemId], weight: u64, counts: &mut [u64]) {
        self.walk(0, txn, weight, counts);
    }

    /// Rough heap-footprint estimate for budget accounting: per-node
    /// leaf slot + start offset, ~8 bytes per edge (label + child).
    fn estimated_bytes(&self) -> u64 {
        let per_node = std::mem::size_of::<Option<u32>>() + std::mem::size_of::<u32>();
        (self.leaf.len() * per_node + self.child_items.len() * 8) as u64
    }

    fn walk(&self, node: u32, txn: &[ItemId], weight: u64, counts: &mut [u64]) {
        if let Some(idx) = self.leaf[node as usize] {
            counts[idx as usize] += weight;
        }
        let start = self.child_start[node as usize] as usize;
        let end = self.child_start[node as usize + 1] as usize;
        if start == end {
            return;
        }
        let items = &self.child_items[start..end];
        let nodes = &self.child_nodes[start..end];
        // Two-pointer merge: both the transaction and the child slice
        // are sorted, so each matching edge is found without hashing.
        let (mut ci, mut ti) = (0, 0);
        while ci < items.len() && ti < txn.len() {
            match items[ci].cmp(&txn[ti]) {
                std::cmp::Ordering::Less => ci += 1,
                std::cmp::Ordering::Greater => ti += 1,
                std::cmp::Ordering::Equal => {
                    self.walk(nodes[ci], &txn[ti + 1..], weight, counts);
                    ci += 1;
                    ti += 1;
                }
            }
        }
    }
}

/// Joins one prefix run `frequent_k[start..end]` (all sharing a length-k-1
/// prefix) into its length-(k+1) candidates, pruning any candidate with an
/// infrequent k-subset. Subset lookups binary-search the sorted
/// `frequent_k` directly — no hash set, and the only allocation per probe
/// is one reused scratch buffer.
fn join_run(frequent_k: &[Itemset], start: usize, end: usize) -> Vec<Itemset> {
    let mut out = Vec::new();
    let mut sub: Vec<ItemId> = Vec::new();
    for i in start..end {
        for j in (i + 1)..end {
            let a = &frequent_k[i];
            let b = &frequent_k[j];
            let candidate = a.with_item(*b.items().last().expect("non-empty"));
            // Prune: every k-subset must be frequent.
            let all_frequent = candidate.items().iter().all(|&drop| {
                sub.clear();
                sub.extend(candidate.items().iter().copied().filter(|&x| x != drop));
                frequent_k
                    .binary_search_by(|probe| probe.items().cmp(&sub))
                    .is_ok()
            });
            if all_frequent {
                out.push(candidate);
            }
        }
    }
    out
}

/// Generates length-(k+1) candidates from frequent length-k itemsets using
/// the prefix join, then prunes candidates with an infrequent k-subset.
/// `frequent_k` must be sorted. With `parallel`, runs are joined
/// concurrently and concatenated in run order, so the candidate list is
/// identical to the sequential one.
fn generate_candidates(frequent_k: &[Itemset], parallel: bool) -> Vec<Itemset> {
    // frequent_k is sorted lexicographically, so joinable prefixes are
    // adjacent runs.
    let mut runs: Vec<(usize, usize)> = Vec::new();
    let mut start = 0;
    while start < frequent_k.len() {
        let prefix_len = frequent_k[start].len() - 1;
        let prefix = &frequent_k[start].items()[..prefix_len];
        let mut end = start + 1;
        while end < frequent_k.len() && &frequent_k[end].items()[..prefix_len] == prefix {
            end += 1;
        }
        runs.push((start, end));
        start = end;
    }
    if parallel && runs.len() > 1 {
        let per_run: Vec<Vec<Itemset>> = (0..runs.len())
            .into_par_iter()
            .map(|r| join_run(frequent_k, runs[r].0, runs[r].1))
            .collect();
        per_run.into_iter().flatten().collect()
    } else {
        runs.iter()
            .flat_map(|&(s, e)| join_run(frequent_k, s, e))
            .collect()
    }
}

/// Collapses the database to unique transactions with multiplicity
/// weights: `(representative transaction index, copies)`. Identical rows
/// drive identical trie walks, so counting each unique row once and
/// adding its weight yields the same totals while skipping every
/// duplicate walk — a large win on categorical trace encodings where many
/// jobs share an identical attribute row.
fn dedup_transactions(db: &TransactionDb) -> Vec<(u32, u64)> {
    let mut order: Vec<u32> = (0..db.len() as u32).collect();
    order.sort_unstable_by_key(|&t| db.transaction(t as usize));
    let mut uniques: Vec<(u32, u64)> = Vec::new();
    for &t in &order {
        match uniques.last_mut() {
            Some(last) if db.transaction(last.0 as usize) == db.transaction(t as usize) => {
                last.1 += 1;
            }
            _ => uniques.push((t, 1)),
        }
    }
    uniques
}

/// Mines all frequent itemsets with the Apriori algorithm.
///
/// Output-equivalent to [`crate::fpgrowth`]; kept as the performance
/// baseline and as a cross-check oracle in property tests. Itemset and
/// deadline budgets are checked once per level (level-wise search has no
/// deep recursion to interleave checks into) and per emitted itemset, and
/// a cancelled token makes the parallel counting fold skip its remaining
/// transactions.
pub fn apriori(
    db: &TransactionDb,
    config: &MinerConfig,
    guard: &BudgetGuard,
) -> Result<FrequentItemsets, MineError> {
    config.validate().map_err(MineError::InvalidConfig)?;
    let min_count = config.min_count(db.len());
    guard.checkpoint_now()?;
    let mut all: Vec<(Itemset, u64)> = Vec::new();

    // L1.
    let counts = db.item_counts();
    let mut frequent_k: Vec<Itemset> = counts
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c >= min_count)
        .map(|(i, _)| Itemset::singleton(i as ItemId))
        .collect();
    for set in &frequent_k {
        guard.charge_itemsets(1)?;
        all.push((set.clone(), counts[set.items()[0] as usize]));
    }

    let mut k = 1;
    let uniques = if !frequent_k.is_empty() && config.max_len > 1 {
        dedup_transactions(db)
    } else {
        Vec::new()
    };
    while !frequent_k.is_empty() && k < config.max_len {
        guard.checkpoint_now()?;
        frequent_k.sort_unstable();
        let candidates = generate_candidates(&frequent_k, config.parallel);
        if candidates.is_empty() {
            break;
        }
        let mut trie = CandidateTrie::new();
        for (idx, c) in candidates.iter().enumerate() {
            trie.insert(c.items(), idx as u32);
        }
        let trie = trie.freeze();
        guard.charge_tree_bytes(trie.estimated_bytes())?;

        // Parallel support counting over the unique rows: per-worker local
        // count vectors, merged at the level barrier. The fold cannot
        // early-exit, so on cancellation it degrades to a no-op per
        // transaction and the post-level checkpoint reports the breach.
        let token = guard.token();
        let n = candidates.len();
        let chunk_counts: Vec<Vec<u64>> = (0..uniques.len())
            .into_par_iter()
            .fold(
                || vec![0u64; n],
                |mut local, u| {
                    if !token.is_cancelled() {
                        let (t, weight) = uniques[u];
                        trie.count_into(db.transaction(t as usize), weight, &mut local);
                    }
                    local
                },
            )
            .collect();
        guard.checkpoint_now()?;
        let mut totals = vec![0u64; n];
        for local in chunk_counts {
            for (t, l) in totals.iter_mut().zip(local) {
                *t += l;
            }
        }

        frequent_k = Vec::new();
        for (candidate, count) in candidates.into_iter().zip(totals) {
            if count >= min_count {
                guard.charge_itemsets(1)?;
                all.push((candidate.clone(), count));
                frequent_k.push(candidate);
            }
        }
        k += 1;
    }

    Ok(FrequentItemsets::new(all, db.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fpgrowth::fpgrowth;
    use irma_obs::Metrics;

    fn textbook_db() -> TransactionDb {
        TransactionDb::from_transactions(vec![
            vec![0, 1],
            vec![1, 2, 3],
            vec![0, 2, 3, 4],
            vec![0, 3, 4],
            vec![0, 1, 2],
            vec![0, 1, 2, 3],
            vec![0],
            vec![0, 1, 2],
            vec![0, 1, 3],
            vec![1, 2, 4],
        ])
    }

    #[test]
    fn matches_fpgrowth_exactly() {
        let db = textbook_db();
        for min_support in [0.1, 0.2, 0.3, 0.5, 0.8] {
            let config = MinerConfig {
                min_support,
                max_len: 5,
                parallel: false,
            };
            let a = apriori(&db, &config, &BudgetGuard::unlimited()).unwrap();
            let f = fpgrowth(
                &db,
                &config,
                &Metrics::disabled(),
                &BudgetGuard::unlimited(),
            )
            .unwrap();
            assert_eq!(a.as_slice(), f.as_slice(), "support {min_support}");
        }
    }

    #[test]
    fn counts_match_brute_force() {
        let db = textbook_db();
        let fi = apriori(
            &db,
            &MinerConfig::with_min_support(0.2),
            &BudgetGuard::unlimited(),
        )
        .unwrap();
        for (set, count) in fi.iter() {
            assert_eq!(*count, db.support_count(set), "wrong count for {set}");
        }
    }

    #[test]
    fn candidate_generation_prefix_join() {
        // {0,1}, {0,2}, {1,2} -> {0,1,2}; {1,3} alone cannot join further.
        let frequent = vec![
            Itemset::from_items([0, 1]),
            Itemset::from_items([0, 2]),
            Itemset::from_items([1, 2]),
            Itemset::from_items([1, 3]),
        ];
        let candidates = generate_candidates(&frequent, false);
        assert_eq!(candidates, vec![Itemset::from_items([0, 1, 2])]);
    }

    #[test]
    fn candidate_pruning_drops_unsupported_subsets() {
        // {0,1} and {0,2} join to {0,1,2} but {1,2} is not frequent.
        let frequent = vec![Itemset::from_items([0, 1]), Itemset::from_items([0, 2])];
        let candidates = generate_candidates(&frequent, false);
        assert!(candidates.is_empty());
    }

    #[test]
    fn max_len_respected() {
        let db = textbook_db();
        let config = MinerConfig {
            min_support: 0.1,
            max_len: 2,
            parallel: false,
        };
        let fi = apriori(&db, &config, &BudgetGuard::unlimited()).unwrap();
        assert!(fi.iter().all(|(s, _)| s.len() <= 2));
    }

    #[test]
    fn trie_counts_subsets() {
        let mut trie = CandidateTrie::new();
        trie.insert(&[1, 3], 0);
        trie.insert(&[1, 4], 1);
        trie.insert(&[2, 3], 2);
        let trie = trie.freeze();
        let mut counts = vec![0u64; 3];
        trie.count_into(&[1, 2, 3], 2, &mut counts);
        assert_eq!(counts, vec![2, 0, 2]);
    }

    #[test]
    fn parallel_candidate_generation_matches_sequential() {
        // Several disjoint prefix runs at k = 2.
        let mut frequent: Vec<Itemset> = Vec::new();
        for a in 0..8u32 {
            for b in (a + 1)..8 {
                frequent.push(Itemset::from_items([a, b]));
            }
        }
        frequent.sort_unstable();
        let sequential = generate_candidates(&frequent, false);
        let parallel = generate_candidates(&frequent, true);
        assert!(!sequential.is_empty());
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn dedup_weights_sum_to_db_len() {
        let db = TransactionDb::from_transactions(vec![
            vec![0, 1],
            vec![0, 1],
            vec![2],
            vec![0, 1],
            vec![2],
            vec![3, 4],
        ]);
        let uniques = dedup_transactions(&db);
        assert_eq!(uniques.len(), 3);
        assert_eq!(
            uniques.iter().map(|&(_, w)| w).sum::<u64>(),
            db.len() as u64
        );
    }
}
