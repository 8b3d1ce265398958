//! Miner configuration and the frequent-itemset result type.

use std::collections::HashMap;

use crate::item::Itemset;

/// Parameters shared by every miner.
#[derive(Debug, Clone, PartialEq)]
pub struct MinerConfig {
    /// Minimum support as a fraction of transactions, in `(0, 1]`.
    ///
    /// The paper uses 0.05 ("5% of the total number of jobs in the trace").
    pub min_support: f64,
    /// Maximum itemset length. The paper caps this at 5 to keep generated
    /// rules from becoming over-specific (§III-D).
    pub max_len: usize,
    /// Whether FP-Growth partitions the header table across rayon workers.
    pub parallel: bool,
}

impl Default for MinerConfig {
    fn default() -> MinerConfig {
        MinerConfig {
            min_support: 0.05,
            max_len: 5,
            parallel: true,
        }
    }
}

impl MinerConfig {
    /// A sequential config with the given support threshold.
    pub fn with_min_support(min_support: f64) -> MinerConfig {
        MinerConfig {
            min_support,
            ..MinerConfig::default()
        }
    }

    /// The absolute support count implied by `min_support` over `n_txns`
    /// transactions. At least 1 so that "frequent" always means "observed".
    ///
    /// The ceiling is epsilon-robust: `min_support` values written as
    /// decimal fractions are not exactly representable in binary, so the
    /// naive product can land a few ulps *above* the intended threshold
    /// (`0.07 * 100 == 7.000000000000001`) and a plain `ceil` would then
    /// silently exclude items sitting exactly at the threshold. An
    /// 8-ulp-scaled margin absorbs the representation and multiplication
    /// rounding (at most ~3 ulps) while staying far below the 1-count
    /// granularity that separates genuinely distinct thresholds.
    pub fn min_count(&self, n_txns: usize) -> u64 {
        let raw = self.min_support * n_txns as f64;
        let margin = 8.0 * f64::EPSILON * raw;
        ((raw - margin).ceil() as u64).max(1)
    }

    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.min_support > 0.0 && self.min_support <= 1.0) {
            return Err(format!(
                "min_support must be in (0, 1], got {}",
                self.min_support
            ));
        }
        if self.max_len == 0 {
            return Err("max_len must be at least 1".to_string());
        }
        Ok(())
    }
}

/// The family of frequent itemsets found by a miner, with support counts.
///
/// Stored both as a vector (deterministic order: by length, then
/// lexicographically) and as a hash map for O(1) support lookup during rule
/// generation — every subset of a frequent itemset is itself frequent, so
/// rule confidence is always resolvable from this map.
#[derive(Debug, Clone, Default)]
pub struct FrequentItemsets {
    sets: Vec<(Itemset, u64)>,
    lookup: HashMap<Itemset, u64>,
    n_transactions: usize,
}

impl FrequentItemsets {
    /// Builds the result from raw `(itemset, count)` pairs.
    ///
    /// Pairs are sorted into canonical order; duplicate itemsets are a
    /// miner bug and panic in debug builds.
    pub fn new(mut sets: Vec<(Itemset, u64)>, n_transactions: usize) -> FrequentItemsets {
        sets.sort_unstable_by(|a, b| a.0.len().cmp(&b.0.len()).then_with(|| a.0.cmp(&b.0)));
        debug_assert!(
            sets.windows(2).all(|w| w[0].0 != w[1].0),
            "duplicate itemset emitted by miner"
        );
        let lookup = sets.iter().cloned().collect();
        FrequentItemsets {
            sets,
            lookup,
            n_transactions,
        }
    }

    /// All frequent itemsets in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = &(Itemset, u64)> + '_ {
        self.sets.iter()
    }

    /// Number of frequent itemsets.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// True when no itemset met the support threshold.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// Number of transactions the supports are relative to.
    pub fn n_transactions(&self) -> usize {
        self.n_transactions
    }

    /// Support count of a frequent itemset, if it is frequent.
    pub fn count(&self, itemset: &Itemset) -> Option<u64> {
        self.lookup.get(itemset).copied()
    }

    /// Support fraction of a frequent itemset, if it is frequent.
    pub fn support(&self, itemset: &Itemset) -> Option<f64> {
        self.count(itemset)
            .map(|c| c as f64 / self.n_transactions.max(1) as f64)
    }

    /// Itemsets of exactly length `k` in canonical order.
    pub fn of_len(&self, k: usize) -> impl Iterator<Item = &(Itemset, u64)> + '_ {
        self.sets.iter().filter(move |(s, _)| s.len() == k)
    }

    /// Largest itemset length present.
    pub fn max_len(&self) -> usize {
        self.sets.iter().map(|(s, _)| s.len()).max().unwrap_or(0)
    }

    /// The canonical `(itemset, count)` slice.
    pub fn as_slice(&self) -> &[(Itemset, u64)] {
        &self.sets
    }

    /// The `k` most frequent itemsets (count-descending, canonical order
    /// as tie-break). Returns fewer when the family is smaller.
    pub fn top_k(&self, k: usize) -> Vec<(Itemset, u64)> {
        let mut ranked: Vec<(Itemset, u64)> = self.sets.clone();
        ranked.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then_with(|| a.0.len().cmp(&b.0.len()))
                .then_with(|| a.0.cmp(&b.0))
        });
        ranked.truncate(k);
        ranked
    }
}

/// Mines the `k` most frequent itemsets by dynamic support raising:
/// start from a high threshold and halve it until at least `k` itemsets
/// qualify (or the floor of one transaction is reached), then keep the
/// top `k`. Avoids low-support blowup when only the head is wanted.
pub fn mine_top_k(
    db: &crate::db::TransactionDb,
    k: usize,
    max_len: usize,
    mine: impl Fn(&crate::db::TransactionDb, &MinerConfig) -> FrequentItemsets,
) -> Vec<(Itemset, u64)> {
    if db.is_empty() || k == 0 {
        return Vec::new();
    }
    let mut min_support = 0.5f64;
    loop {
        let config = MinerConfig {
            min_support,
            max_len,
            parallel: true,
        };
        let frequent = mine(db, &config);
        let floor_reached = config.min_count(db.len()) <= 1;
        if frequent.len() >= k || floor_reached {
            return frequent.top_k(k);
        }
        min_support /= 2.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::Itemset;

    #[test]
    fn min_count_rounds_up_and_floors_at_one() {
        let c = MinerConfig::with_min_support(0.05);
        assert_eq!(c.min_count(100), 5);
        assert_eq!(c.min_count(101), 6);
        assert_eq!(c.min_count(3), 1);
        assert_eq!(c.min_count(0), 1);
    }

    #[test]
    fn min_count_exact_at_threshold() {
        // Regression: 0.07 * 100 evaluates to 7.000000000000001, and the
        // pre-fix plain ceil returned 8, silently excluding items sitting
        // exactly at the support threshold.
        assert_eq!(MinerConfig::with_min_support(0.07).min_count(100), 7);
        assert_eq!(MinerConfig::with_min_support(0.29).min_count(100), 29);
        assert_eq!(MinerConfig::with_min_support(0.58).min_count(400), 232);
    }

    #[test]
    fn min_count_matches_exact_integer_arithmetic_on_grid() {
        // Sweep every percentage threshold against every database size up
        // to 2000 and compare with exact integer arithmetic:
        // ceil(s * n / 100) == (s * n + 99) / 100. The pre-fix float path
        // disagreed on 290 of these pairs.
        let mut checked = 0u64;
        for s in 1..=100u64 {
            let config = MinerConfig::with_min_support(s as f64 / 100.0);
            for n in 0..=2000u64 {
                let expected = ((s * n).div_ceil(100)).max(1);
                let got = config.min_count(n as usize);
                assert_eq!(got, expected, "support {s}% over {n} txns");
                checked += 1;
            }
        }
        assert_eq!(checked, 100 * 2001);
    }

    #[test]
    fn validate_ranges() {
        assert!(MinerConfig::with_min_support(0.05).validate().is_ok());
        assert!(MinerConfig::with_min_support(0.0).validate().is_err());
        assert!(MinerConfig::with_min_support(1.5).validate().is_err());
        let c = MinerConfig {
            max_len: 0,
            ..MinerConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn top_k_orders_by_count() {
        let sets = vec![
            (Itemset::from_items([0]), 7),
            (Itemset::from_items([1]), 9),
            (Itemset::from_items([0, 1]), 5),
        ];
        let fi = FrequentItemsets::new(sets, 10);
        let top = fi.top_k(2);
        assert_eq!(top[0].1, 9);
        assert_eq!(top[1].1, 7);
        assert_eq!(fi.top_k(10).len(), 3);
        assert!(fi.top_k(0).is_empty());
    }

    #[test]
    fn mine_top_k_raises_support_dynamically() {
        use crate::budget::BudgetGuard;
        use crate::fpgrowth::fpgrowth;
        let fpgrowth = |db: &crate::db::TransactionDb, config: &MinerConfig| {
            fpgrowth(
                db,
                config,
                &irma_obs::Metrics::disabled(),
                &BudgetGuard::unlimited(),
            )
            .unwrap()
        };
        // 0 in every txn; 1 in half; 2 rare.
        let txns: Vec<Vec<u32>> = (0..64)
            .map(|i| {
                let mut t = vec![0u32];
                if i % 2 == 0 {
                    t.push(1);
                }
                if i % 16 == 0 {
                    t.push(2);
                }
                t
            })
            .collect();
        let db = crate::db::TransactionDb::from_transactions(txns);
        let top = mine_top_k(&db, 3, 5, fpgrowth);
        assert_eq!(top.len(), 3);
        assert_eq!(top[0], (Itemset::from_items([0]), 64));
        assert_eq!(top[1].1, 32);
        // Asking for more than exists returns the full family.
        let all = mine_top_k(&db, 1000, 5, fpgrowth);
        assert!(all.len() >= 5 && all.len() < 1000);
        // Degenerate inputs.
        assert!(mine_top_k(&db, 0, 5, fpgrowth).is_empty());
        let empty = crate::db::TransactionDb::from_transactions(Vec::<Vec<u32>>::new());
        assert!(mine_top_k(&empty, 3, 5, fpgrowth).is_empty());
    }

    #[test]
    fn result_sorted_and_queryable() {
        let sets = vec![
            (Itemset::from_items([2]), 5),
            (Itemset::from_items([0, 1]), 3),
            (Itemset::from_items([0]), 7),
        ];
        let fi = FrequentItemsets::new(sets, 10);
        assert_eq!(fi.len(), 3);
        let order: Vec<usize> = fi.iter().map(|(s, _)| s.len()).collect();
        assert_eq!(order, vec![1, 1, 2]);
        assert_eq!(fi.count(&Itemset::from_items([0, 1])), Some(3));
        assert_eq!(fi.support(&Itemset::from_items([2])), Some(0.5));
        assert_eq!(fi.count(&Itemset::from_items([9])), None);
        assert_eq!(fi.of_len(1).count(), 2);
        assert_eq!(fi.max_len(), 2);
    }
}
