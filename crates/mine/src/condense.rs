//! Condensed representations: closed and maximal frequent itemsets.
//!
//! The full frequent-itemset family is heavily redundant (the paper mines
//! ~232k itemsets from PAI at 5% support). Two standard lossless /
//! lossy condensations:
//!
//! * an itemset is **closed** if no proper superset has the *same*
//!   support — the closed family plus counts reconstructs every frequent
//!   itemset's support exactly;
//! * an itemset is **maximal** if no proper superset is frequent at all —
//!   the smallest family that still determines *which* itemsets are
//!   frequent (but not their supports).
//!
//! These power the itemset-family diagnostics in the experiments output
//! and give downstream users a compact artifact to store.

use crate::counts::FrequentItemsets;
use crate::item::Itemset;

/// Closed frequent itemsets (with their support counts), canonical order.
///
/// Closure is evaluated *within the mined family*: with a `max_len` cap a
/// same-support superset longer than the cap is invisible, which is the
/// right notion for downstream consumers of the capped family.
///
/// Checks each itemset's one-item extensions (support monotonicity makes
/// an equal-support superset imply an equal-support immediate extension)
/// instead of all pairs.
pub fn closed_itemsets(frequent: &FrequentItemsets) -> Vec<(Itemset, u64)> {
    frequent
        .iter()
        .filter(|(set, count)| {
            // Closed iff no one-item extension keeps the same support.
            // (Support is monotone, so any same-support superset implies a
            // same-support immediate extension on a path towards it.)
            !one_item_extensions(frequent, set).any(|(_, ext_count)| ext_count == *count)
        })
        .cloned()
        .collect()
}

/// Maximal frequent itemsets, canonical order.
pub fn maximal_itemsets(frequent: &FrequentItemsets) -> Vec<(Itemset, u64)> {
    frequent
        .iter()
        .filter(|(set, _)| one_item_extensions(frequent, set).next().is_none())
        .cloned()
        .collect()
}

/// Iterates the frequent one-item extensions of `set`.
fn one_item_extensions<'a>(
    frequent: &'a FrequentItemsets,
    set: &'a Itemset,
) -> impl Iterator<Item = (Itemset, u64)> + 'a {
    // Extend with every item seen in any length-1 frequent itemset.
    frequent.of_len(1).filter_map(move |(single, _)| {
        let item = single.items()[0];
        if set.contains(item) {
            return None;
        }
        let extended = set.with_item(item);
        frequent.count(&extended).map(|c| (extended, c))
    })
}

/// Reconstructs the support of any frequent itemset from the closed
/// family: it equals the maximum count among closed supersets.
///
/// Returns `None` when the itemset is not frequent (no closed superset).
pub fn support_from_closed(closed: &[(Itemset, u64)], itemset: &Itemset) -> Option<u64> {
    closed
        .iter()
        .filter(|(c, _)| itemset.is_subset_of(c))
        .map(|(_, count)| *count)
        .max()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::BudgetGuard;
    use crate::counts::MinerConfig;
    use crate::db::TransactionDb;
    use crate::fpgrowth::fpgrowth;
    use irma_obs::Metrics;

    fn db() -> TransactionDb {
        TransactionDb::from_transactions(vec![
            vec![0, 1, 2],
            vec![0, 1, 2],
            vec![0, 1],
            vec![0, 2],
            vec![2],
        ])
    }

    fn mined() -> FrequentItemsets {
        let config = MinerConfig::with_min_support(0.2);
        fpgrowth(
            &db(),
            &config,
            &Metrics::disabled(),
            &BudgetGuard::unlimited(),
        )
        .unwrap()
    }

    #[test]
    fn closed_sets_identified() {
        let frequent = mined();
        let closed = closed_itemsets(&frequent);
        // {1} has support 3 but {0,1} also has support 3 -> {1} not closed.
        assert!(!closed.iter().any(|(s, _)| s == &Itemset::from_items([1])));
        // {0} has support 4, no superset reaches 4 -> closed.
        assert!(closed.iter().any(|(s, _)| s == &Itemset::from_items([0])));
        // The top itemset is always closed.
        assert!(closed
            .iter()
            .any(|(s, _)| s == &Itemset::from_items([0, 1, 2])));
    }

    #[test]
    fn maximal_is_subset_of_closed() {
        let frequent = mined();
        let closed = closed_itemsets(&frequent);
        let maximal = maximal_itemsets(&frequent);
        assert!(!maximal.is_empty());
        for m in &maximal {
            assert!(closed.contains(m), "maximal {m:?} must be closed");
        }
        assert!(maximal.len() <= closed.len());
        assert!(closed.len() <= frequent.len());
    }

    #[test]
    fn closed_family_reconstructs_all_supports() {
        let frequent = mined();
        let closed = closed_itemsets(&frequent);
        for (set, count) in frequent.iter() {
            assert_eq!(
                support_from_closed(&closed, set),
                Some(*count),
                "support of {set} lost by closure"
            );
        }
    }

    #[test]
    fn infrequent_itemset_not_reconstructable() {
        let frequent = mined();
        let closed = closed_itemsets(&frequent);
        assert_eq!(
            support_from_closed(&closed, &Itemset::from_items([0, 1, 2, 3])),
            None
        );
    }

    #[test]
    fn empty_family() {
        let frequent = FrequentItemsets::new(Vec::new(), 10);
        assert!(closed_itemsets(&frequent).is_empty());
        assert!(maximal_itemsets(&frequent).is_empty());
    }
}
