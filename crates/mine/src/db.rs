//! Transaction database: one itemset per job record.

use crate::item::{is_sorted_subset, ItemId, Itemset};

/// An immutable database of transactions over a dense item universe.
///
/// Transactions are stored as sorted, deduplicated `ItemId` slices packed
/// into one flat buffer (offsets + data) so that scans are cache-friendly
/// and the database can be shared across rayon workers without cloning.
#[derive(Debug, Clone, Default)]
pub struct TransactionDb {
    offsets: Vec<u32>,
    items: Vec<ItemId>,
    n_items: usize,
}

impl TransactionDb {
    /// Builds a database from per-transaction item lists.
    ///
    /// Each transaction is sorted and deduplicated; `n_items` is inferred as
    /// `max(item)+1` unless a larger universe is given via
    /// [`TransactionDb::with_universe`].
    pub fn from_transactions<I, T>(transactions: I) -> TransactionDb
    where
        I: IntoIterator<Item = T>,
        T: IntoIterator<Item = ItemId>,
    {
        let mut offsets = vec![0u32];
        let mut items: Vec<ItemId> = Vec::new();
        let mut max_item: Option<ItemId> = None;
        // One scratch buffer serves every transaction.
        let mut t: Vec<ItemId> = Vec::new();
        for txn in transactions {
            t.clear();
            t.extend(txn);
            t.sort_unstable();
            t.dedup();
            if let Some(&last) = t.last() {
                max_item = Some(max_item.map_or(last, |m| m.max(last)));
            }
            items.extend_from_slice(&t);
            offsets.push(items.len() as u32);
        }
        TransactionDb {
            offsets,
            items,
            n_items: max_item.map_or(0, |m| m as usize + 1),
        }
    }

    /// Overrides the item-universe size (ids in `0..n_items`).
    pub fn with_universe(mut self, n_items: usize) -> TransactionDb {
        assert!(n_items >= self.n_items, "universe smaller than max item id");
        self.n_items = n_items;
        self
    }

    /// Number of transactions.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when the database has no transactions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size of the item universe (`ids < n_items`).
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// The sorted item slice of transaction `idx`.
    pub fn transaction(&self, idx: usize) -> &[ItemId] {
        let start = self.offsets[idx] as usize;
        let end = self.offsets[idx + 1] as usize;
        &self.items[start..end]
    }

    /// Iterates all transactions as sorted slices.
    pub fn iter(&self) -> impl Iterator<Item = &[ItemId]> + Clone + '_ {
        (0..self.len()).map(move |i| self.transaction(i))
    }

    /// Per-item support counts over the whole database.
    pub fn item_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.n_items];
        for &item in &self.items {
            counts[item as usize] += 1;
        }
        counts
    }

    /// Exact support count of an arbitrary itemset (full scan).
    ///
    /// Only used by tests and small verification paths; the miners never
    /// call this in their hot loops.
    pub fn support_count(&self, itemset: &Itemset) -> u64 {
        self.iter()
            .filter(|txn| is_sorted_subset(itemset.items(), txn))
            .count() as u64
    }

    /// Support fraction of an itemset in `[0, 1]`.
    pub fn support(&self, itemset: &Itemset) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.support_count(itemset) as f64 / self.len() as f64
        }
    }

    /// Total number of stored item occurrences (sum of transaction lengths).
    pub fn total_items(&self) -> usize {
        self.items.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> TransactionDb {
        TransactionDb::from_transactions(vec![
            vec![0, 1, 2],
            vec![1, 2],
            vec![0, 2],
            vec![2, 2, 0], // dup + unsorted on purpose
        ])
    }

    #[test]
    fn construction_canonicalizes() {
        let d = db();
        assert_eq!(d.len(), 4);
        assert_eq!(d.n_items(), 3);
        assert_eq!(d.transaction(3), &[0, 2]);
        assert_eq!(d.total_items(), 9);
    }

    #[test]
    fn item_counts() {
        let d = db();
        assert_eq!(d.item_counts(), vec![3, 2, 4]);
    }

    #[test]
    fn support_counting() {
        let d = db();
        assert_eq!(d.support_count(&Itemset::from_items([0, 2])), 3);
        assert_eq!(d.support_count(&Itemset::from_items([1])), 2);
        assert_eq!(d.support_count(&Itemset::from_items([0, 1, 2])), 1);
        assert_eq!(d.support_count(&Itemset::empty()), 4);
        assert!((d.support(&Itemset::from_items([0, 2])) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_db() {
        let d = TransactionDb::from_transactions(Vec::<Vec<ItemId>>::new());
        assert!(d.is_empty());
        assert_eq!(d.support(&Itemset::singleton(0)), 0.0);
    }

    #[test]
    fn with_universe_expands() {
        let d = db().with_universe(10);
        assert_eq!(d.n_items(), 10);
        assert_eq!(d.item_counts().len(), 10);
    }

    #[test]
    #[should_panic(expected = "universe smaller")]
    fn with_universe_rejects_shrink() {
        let _ = db().with_universe(1);
    }
}
