//! Eclat frequent-itemset mining (Zaki, IEEE TKDE 2000).
//!
//! A second independent baseline: vertical layout (per-item transaction-id
//! lists), depth-first prefix extension by tid-list intersection. Having a
//! third miner with a completely different data layout makes the
//! cross-miner equivalence property tests a strong oracle for all three.
//!
//! Tid-lists are density-adaptive ([`TidSet`]): above one set transaction
//! in [`DENSE_CUTOVER_FACTOR`] they switch to packed `u64` bitset words,
//! where intersection is a word-wise AND + popcount instead of a sorted
//! merge — the classic diffset-era optimization for the dense top of the
//! lattice, while the sparse deep prefixes keep compact sorted lists.

use rayon::prelude::*;

use crate::budget::{BudgetBreach, BudgetGuard, MineError};
use crate::counts::{FrequentItemsets, MinerConfig};
use crate::db::TransactionDb;
use crate::item::{ItemId, Itemset};

/// Representation cutover: a tid-set covering at least `1 /
/// DENSE_CUTOVER_FACTOR` of all transactions is stored dense. At 32, the
/// dense words (`n_txns / 8` bytes) never exceed the sparse list they
/// replace (`4 * count` bytes).
const DENSE_CUTOVER_FACTOR: u64 = 32;

/// Intersection of two sorted tid-lists.
fn intersect(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// A transaction-id set with a density-adaptive representation.
#[derive(Debug, Clone)]
enum TidSet {
    /// Sorted tid list (low density).
    Sparse(Vec<u32>),
    /// Packed bitset over the transaction universe, with the set-bit
    /// count cached (popcounted once at construction).
    Dense { words: Vec<u64>, count: u64 },
}

impl TidSet {
    /// Wraps a sorted tid list, densifying above the cutover.
    fn from_sparse(tids: Vec<u32>, n_txns: usize) -> TidSet {
        if !tids.is_empty() && tids.len() as u64 * DENSE_CUTOVER_FACTOR >= n_txns as u64 {
            let mut words = vec![0u64; n_txns.div_ceil(64)];
            for &tid in &tids {
                words[(tid / 64) as usize] |= 1u64 << (tid % 64);
            }
            TidSet::Dense {
                words,
                count: tids.len() as u64,
            }
        } else {
            TidSet::Sparse(tids)
        }
    }

    /// Support count.
    fn len(&self) -> u64 {
        match self {
            TidSet::Sparse(tids) => tids.len() as u64,
            TidSet::Dense { count, .. } => *count,
        }
    }

    /// Set intersection, picking the cheapest strategy per operand pair
    /// and re-deciding the result's representation by density.
    fn intersect(&self, other: &TidSet, n_txns: usize) -> TidSet {
        match (self, other) {
            (TidSet::Sparse(a), TidSet::Sparse(b)) => TidSet::Sparse(intersect(a, b)),
            (TidSet::Dense { words: a, .. }, TidSet::Dense { words: b, .. }) => {
                // Chunked u64×4 AND + popcount (differentially tested
                // against the scalar loop in `crate::simd`).
                let (words, count) = crate::simd::and_popcount(a, b);
                if count * DENSE_CUTOVER_FACTOR >= n_txns as u64 {
                    TidSet::Dense { words, count }
                } else {
                    // The result fell below the cutover: decode the set
                    // bits back into a sorted list so deeper levels pay
                    // sparse-merge costs, not full-universe word scans.
                    let mut tids = Vec::with_capacity(count as usize);
                    for (index, &word) in words.iter().enumerate() {
                        let mut word = word;
                        while word != 0 {
                            tids.push(index as u32 * 64 + word.trailing_zeros());
                            word &= word - 1;
                        }
                    }
                    TidSet::Sparse(tids)
                }
            }
            (TidSet::Sparse(tids), TidSet::Dense { words, .. })
            | (TidSet::Dense { words, .. }, TidSet::Sparse(tids)) => {
                // Probe each sparse tid against the bitset. The result is
                // no larger than the sparse operand, which was already
                // below the cutover — so it stays sparse.
                let out: Vec<u32> = tids
                    .iter()
                    .copied()
                    .filter(|&tid| words[(tid / 64) as usize] & (1u64 << (tid % 64)) != 0)
                    .collect();
                TidSet::Sparse(out)
            }
        }
    }
}

/// Prefix subtrees narrower than this run sequentially: below it the
/// fork bookkeeping (a deque push/pop per split) costs more than the
/// work a thief could take.
const PAR_SPLIT_MIN: usize = 8;

/// Depth-first extension of `prefix` by items from positions `lo..hi`
/// of `tail`.
///
/// In parallel mode a fat position range splits in two via
/// [`rayon::join`] — *inside* the recursion, not only at the top-level
/// singleton fan-out, so one skewed prefix subtree (a fat lattice
/// branch) keeps forking stealable halves instead of serializing a
/// worker. Note the whole `tail` travels to both halves: position `p`'s
/// conditional tail draws from `tail[p + 1..]`, which crosses the split
/// point.
///
/// Determinism: halves emit into their own buffers, merged left-then-
/// right, so output order equals the sequential DFS order at any width;
/// on concurrent failures the lowest-position error wins.
///
/// Budget-aware: checkpoints the guard at every recursion entry (the DFS
/// is the hot loop, so this is where a deadline is noticed) and charges
/// one itemset per emission.
#[allow(clippy::too_many_arguments)]
fn extend(
    prefix: &[ItemId],
    tail: &[(ItemId, TidSet)],
    lo: usize,
    hi: usize,
    n_txns: usize,
    min_count: u64,
    max_len: usize,
    parallel: bool,
    out: &mut Vec<(Itemset, u64)>,
    guard: &BudgetGuard,
) -> Result<(), BudgetBreach> {
    guard.checkpoint()?;
    if parallel && hi - lo >= PAR_SPLIT_MIN {
        let mid = lo + (hi - lo) / 2;
        let run_half = |from: usize, to: usize| {
            let mut half = Vec::new();
            let result = extend(
                prefix, tail, from, to, n_txns, min_count, max_len, parallel, &mut half, guard,
            );
            (result, half)
        };
        let ((left, left_out), (right, right_out)) =
            rayon::join(|| run_half(lo, mid), || run_half(mid, hi));
        left?;
        right?;
        out.extend(left_out);
        out.extend(right_out);
        return Ok(());
    }
    for pos in lo..hi {
        let (item, tids) = &tail[pos];
        let mut itemset: Vec<ItemId> = prefix.to_vec();
        itemset.push(*item);
        guard.charge_itemsets(1)?;
        out.push((Itemset::from_items(itemset.clone()), tids.len()));
        if itemset.len() >= max_len {
            continue;
        }
        // Conditional tail: remaining items intersected with this prefix.
        let mut next_tail: Vec<(ItemId, TidSet)> = Vec::new();
        for (other, other_tids) in &tail[pos + 1..] {
            let joined = tids.intersect(other_tids, n_txns);
            if joined.len() >= min_count {
                next_tail.push((*other, joined));
            }
        }
        if !next_tail.is_empty() {
            let end = next_tail.len();
            extend(
                &itemset, &next_tail, 0, end, n_txns, min_count, max_len, parallel, out, guard,
            )?;
        }
    }
    Ok(())
}

/// Mines all frequent itemsets with the Eclat algorithm.
///
/// Budget breaches come back as [`MineError::Budget`]. In the parallel
/// fan-out each prefix subtree returns its own `Result`; the
/// lowest-position error wins so the reported breach is deterministic.
pub fn eclat(
    db: &TransactionDb,
    config: &MinerConfig,
    guard: &BudgetGuard,
) -> Result<FrequentItemsets, MineError> {
    config.validate().map_err(MineError::InvalidConfig)?;
    let min_count = config.min_count(db.len());
    let n_txns = db.len();
    guard.checkpoint_now()?;

    // Vertical layout: tid-list per item, densified above the cutover.
    let mut tidlists: Vec<Vec<u32>> = vec![Vec::new(); db.n_items()];
    for (tid, txn) in db.iter().enumerate() {
        for &item in txn {
            tidlists[item as usize].push(tid as u32);
        }
    }
    let frequent: Vec<(ItemId, TidSet)> = tidlists
        .into_iter()
        .enumerate()
        .filter(|(_, tids)| tids.len() as u64 >= min_count)
        .map(|(item, tids)| (item as ItemId, TidSet::from_sparse(tids, n_txns)))
        .collect();

    let out: Vec<(Itemset, u64)> = if config.parallel {
        let chunks: Vec<Result<Vec<(Itemset, u64)>, BudgetBreach>> = (0..frequent.len())
            .into_par_iter()
            .map(|pos| {
                let (item, tids) = &frequent[pos];
                let mut local = Vec::new();
                guard.charge_itemsets(1)?;
                local.push((Itemset::singleton(*item), tids.len()));
                if config.max_len > 1 {
                    let mut tail: Vec<(ItemId, TidSet)> = Vec::new();
                    for (other, other_tids) in &frequent[pos + 1..] {
                        let joined = tids.intersect(other_tids, n_txns);
                        if joined.len() >= min_count {
                            tail.push((*other, joined));
                        }
                    }
                    if !tail.is_empty() {
                        let end = tail.len();
                        extend(
                            &[*item],
                            &tail,
                            0,
                            end,
                            n_txns,
                            min_count,
                            config.max_len,
                            true,
                            &mut local,
                            guard,
                        )?;
                    }
                }
                Ok(local)
            })
            .collect();
        let mut out = Vec::new();
        for chunk in chunks {
            out.extend(chunk?);
        }
        out
    } else {
        let mut out = Vec::new();
        let end = frequent.len();
        extend(
            &[],
            &frequent,
            0,
            end,
            n_txns,
            min_count,
            config.max_len,
            false,
            &mut out,
            guard,
        )?;
        out
    };

    Ok(FrequentItemsets::new(out, db.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apriori::apriori;
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
    fn intersect_sorted_lists() {
        assert_eq!(intersect(&[1, 3, 5, 7], &[2, 3, 5, 9]), vec![3, 5]);
        assert_eq!(intersect(&[], &[1]), Vec::<u32>::new());
        assert_eq!(intersect(&[4], &[4]), vec![4]);
    }

    /// Every representation pairing (sparse/sparse, dense/dense, mixed)
    /// must agree with the sorted-merge reference on the same sets.
    #[test]
    fn tidset_intersections_match_sparse_reference() {
        // 128 transactions; a = multiples of 2, b = multiples of 3.
        let n_txns = 128usize;
        let a: Vec<u32> = (0..n_txns as u32).filter(|t| t % 2 == 0).collect();
        let b: Vec<u32> = (0..n_txns as u32).filter(|t| t % 3 == 0).collect();
        let expected = intersect(&a, &b);

        let sparse_a = TidSet::Sparse(a.clone());
        let sparse_b = TidSet::Sparse(b.clone());
        let dense_a = TidSet::from_sparse(a.clone(), n_txns);
        let dense_b = TidSet::from_sparse(b.clone(), n_txns);
        assert!(matches!(dense_a, TidSet::Dense { .. }), "a is dense");
        assert!(matches!(dense_b, TidSet::Dense { .. }), "b is dense");

        for (x, y) in [
            (&sparse_a, &sparse_b),
            (&dense_a, &dense_b),
            (&sparse_a, &dense_b),
            (&dense_a, &sparse_b),
        ] {
            let joined = x.intersect(y, n_txns);
            assert_eq!(joined.len(), expected.len() as u64);
            let decoded: Vec<u32> = match joined {
                TidSet::Sparse(tids) => tids,
                TidSet::Dense { words, .. } => {
                    let mut tids = Vec::new();
                    for (index, &word) in words.iter().enumerate() {
                        let mut word = word;
                        while word != 0 {
                            tids.push(index as u32 * 64 + word.trailing_zeros());
                            word &= word - 1;
                        }
                    }
                    tids
                }
            };
            assert_eq!(decoded, expected);
        }
    }

    /// A dense-by-construction set must sparsify once an intersection
    /// drops it below the cutover, and never lose counts either way.
    #[test]
    fn dense_results_sparsify_below_cutover() {
        let n_txns = 4096usize;
        let all: Vec<u32> = (0..n_txns as u32).collect();
        let few: Vec<u32> = (0..n_txns as u32).step_by(512).collect();
        let dense = TidSet::from_sparse(all, n_txns);
        let dense_few = {
            // Force a dense/dense intersection whose result is tiny.
            let mut words = vec![0u64; n_txns.div_ceil(64)];
            for &tid in &few {
                words[(tid / 64) as usize] |= 1u64 << (tid % 64);
            }
            TidSet::Dense {
                words,
                count: few.len() as u64,
            }
        };
        let joined = dense.intersect(&dense_few, n_txns);
        assert_eq!(joined.len(), few.len() as u64);
        assert!(
            matches!(joined, TidSet::Sparse(ref tids) if *tids == few),
            "below-cutover result must decode to a sorted sparse list"
        );
    }

    #[test]
    fn matches_other_miners() {
        let db = textbook_db();
        for min_support in [0.1, 0.2, 0.4, 0.7] {
            for parallel in [false, true] {
                let config = MinerConfig {
                    min_support,
                    max_len: 5,
                    parallel,
                };
                let e = eclat(&db, &config, &BudgetGuard::unlimited()).unwrap();
                let f = fpgrowth(
                    &db,
                    &config,
                    &Metrics::disabled(),
                    &BudgetGuard::unlimited(),
                )
                .unwrap();
                let a = apriori(&db, &config, &BudgetGuard::unlimited()).unwrap();
                assert_eq!(e.as_slice(), f.as_slice());
                assert_eq!(e.as_slice(), a.as_slice());
            }
        }
    }

    #[test]
    fn counts_match_brute_force() {
        let db = textbook_db();
        let fi = eclat(
            &db,
            &MinerConfig::with_min_support(0.2),
            &BudgetGuard::unlimited(),
        )
        .unwrap();
        for (set, count) in fi.iter() {
            assert_eq!(*count, db.support_count(set));
        }
    }

    #[test]
    fn max_len_respected() {
        let db = textbook_db();
        let config = MinerConfig {
            min_support: 0.1,
            max_len: 3,
            parallel: false,
        };
        let fi = eclat(&db, &config, &BudgetGuard::unlimited()).unwrap();
        assert!(fi.iter().all(|(s, _)| s.len() <= 3));
        assert!(fi.iter().any(|(s, _)| s.len() == 3));
    }
}
