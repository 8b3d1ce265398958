//! Sliding-window mining over a job stream.
//!
//! The paper's workflow is batch, but its related-work discussion (§VI)
//! notes that the pruning stage composes with streaming miners because it
//! runs after rule generation. This module provides that substrate: a
//! bounded sliding window over arriving transactions with cheap
//! always-current single-item counts, an item-frequency *drift* signal to
//! decide when re-mining is worthwhile, and on-demand full mining of the
//! current window with [`eclat`], the batch pipeline's miner.
//!
//! A push costs O(|txn|) regardless of window size: it updates the item
//! counts and the L1 drift against the last-mine baseline term-wise over
//! the arriving∪evicted item union, so monitors polling
//! [`SlidingWindowMiner::drift`] per arrival never pay a full
//! item-universe rescan. A re-mine lays the window out as a
//! [`TransactionDb`] and runs Eclat over it: at the daemon's window sizes
//! that is cheaper than keeping any mining structure current per push
//! (DESIGN.md §10 has the measurements).

use std::collections::VecDeque;

use irma_obs::Metrics;

use crate::budget::{BudgetGuard, MineError};
use crate::counts::{FrequentItemsets, MinerConfig};
use crate::db::TransactionDb;
use crate::eclat::eclat;
use crate::item::ItemId;

/// A bounded sliding window of transactions with incremental item counts.
#[derive(Debug, Clone)]
pub struct SlidingWindowMiner {
    capacity: usize,
    window: VecDeque<Vec<ItemId>>,
    item_counts: Vec<u64>,
    /// Item counts at the time of the last successful mine (drift
    /// baseline).
    baseline: Option<(usize, Vec<u64>)>,
    /// Incrementally-maintained L1 drift against `baseline`; only valid
    /// while `drift_dirty` is false.
    drift_cache: f64,
    /// Set when the window length changed since the last mine (every
    /// per-item term shifts, so the cache cannot be patched term-wise).
    drift_dirty: bool,
    config: MinerConfig,
    metrics: Metrics,
}

impl SlidingWindowMiner {
    /// Creates a miner over a window of at most `capacity` transactions.
    pub fn new(capacity: usize, config: MinerConfig) -> SlidingWindowMiner {
        assert!(capacity > 0, "window capacity must be positive");
        config.validate().expect("invalid miner config");
        SlidingWindowMiner {
            capacity,
            window: VecDeque::with_capacity(capacity),
            item_counts: Vec::new(),
            baseline: None,
            drift_cache: 0.0,
            drift_dirty: false,
            config,
            metrics: Metrics::disabled(),
        }
    }

    /// Attaches a metrics sink: every [`SlidingWindowMiner::mine`] call
    /// then emits a `stream.remine` stage event (window size, itemsets
    /// out, drift at the moment of re-mining in milli-units) and updates
    /// the `stream.evictions` counter as the window slides.
    pub fn with_metrics(mut self, metrics: Metrics) -> SlidingWindowMiner {
        self.metrics = metrics;
        self
    }

    /// Pushes one transaction, evicting the oldest when full. Returns the
    /// evicted transaction, if any.
    pub fn push<I: IntoIterator<Item = ItemId>>(&mut self, txn: I) -> Option<Vec<ItemId>> {
        let mut t: Vec<ItemId> = txn.into_iter().collect();
        t.sort_unstable();
        t.dedup();
        if let Some(&max) = t.last() {
            if max as usize >= self.item_counts.len() {
                self.item_counts.resize(max as usize + 1, 0);
            }
        }
        let evicting = self.window.len() == self.capacity;
        // Retire the stale drift terms of every item this push touches
        // while the counts still hold their pre-push values; the matching
        // fresh terms are added back after the counts settle. Only an
        // at-capacity push keeps the window length (and thus every other
        // item's term) unchanged — a growing window invalidates the whole
        // cache instead.
        if !self.drift_dirty {
            if let Some(baseline) = &self.baseline {
                if evicting {
                    let n = self.capacity as f64;
                    let old = self.window.front().expect("window full");
                    let stale = union_drift_terms(&t, old, &self.item_counts, baseline, n);
                    self.drift_cache -= stale;
                } else {
                    self.drift_dirty = true;
                }
            }
        }
        for &item in &t {
            self.item_counts[item as usize] += 1;
        }
        let evicted = if evicting {
            let old = self.window.pop_front().expect("window full");
            for &item in &old {
                self.item_counts[item as usize] -= 1;
            }
            self.metrics.incr("stream.evictions", 1);
            Some(old)
        } else {
            None
        };
        if !self.drift_dirty {
            if let (Some(baseline), Some(old)) = (&self.baseline, &evicted) {
                let n = self.capacity as f64;
                let fresh = union_drift_terms(&t, old, &self.item_counts, baseline, n);
                self.drift_cache += fresh;
            }
        }
        self.window.push_back(t);
        evicted
    }

    /// Number of transactions currently in the window.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// True when the window is empty.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Current support count of a single item (O(1)).
    pub fn item_count(&self, item: ItemId) -> u64 {
        self.item_counts.get(item as usize).copied().unwrap_or(0)
    }

    /// Items currently above the configured support threshold (O(items)).
    pub fn hot_items(&self) -> Vec<ItemId> {
        let min_count = self.config.min_count(self.window.len());
        self.item_counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c >= min_count)
            .map(|(i, _)| i as ItemId)
            .collect()
    }

    /// L1 distance between the current item-frequency distribution and the
    /// one at the last successful mine, normalized to `[0, 2]`.
    ///
    /// 0 means unchanged; callers typically re-mine when drift exceeds a
    /// small threshold instead of on every arrival. In the steady state
    /// (window at capacity since the last mine) this reads a cached value
    /// maintained in O(|txn|) per push; only a window that grew since the
    /// last mine falls back to the full rescan.
    pub fn drift(&self) -> f64 {
        let Some((base_n, base)) = &self.baseline else {
            return f64::INFINITY;
        };
        if !self.drift_dirty {
            return self.drift_cache;
        }
        let n = self.window.len().max(1) as f64;
        let bn = (*base_n).max(1) as f64;
        let len = self.item_counts.len().max(base.len());
        (0..len)
            .map(|i| {
                let cur = self.item_counts.get(i).copied().unwrap_or(0) as f64 / n;
                let old = base.get(i).copied().unwrap_or(0) as f64 / bn;
                (cur - old).abs()
            })
            .sum()
    }

    /// Mines the current window with Eclat under `config` and `guard`
    /// and resets the drift baseline. `config` overrides the miner's own
    /// (the degradation ladder relaxes the knobs without mutating the
    /// miner). A breach comes back as [`MineError::Budget`] with the drift
    /// baseline — and therefore the caller's re-mine triggering — left
    /// exactly as it was, so a failed attempt neither masks the drift that
    /// prompted it nor double-counts it on retry.
    pub fn mine(
        &mut self,
        config: &MinerConfig,
        guard: &BudgetGuard,
    ) -> Result<FrequentItemsets, MineError> {
        let drift = self.drift();
        let mut span = self.metrics.span("stream.remine");
        let result = eclat(&self.snapshot(), config, &self.metrics, guard);
        span.field("window", self.window.len() as u64);
        match &result {
            Ok(frequent) => {
                // Baseline (and the cached drift it anchors) commits only
                // on success: a budget-tripped attempt must leave the
                // drift signal untouched.
                self.baseline = Some((self.window.len(), self.item_counts.clone()));
                self.drift_cache = 0.0;
                self.drift_dirty = false;
                span.field("itemsets_out", frequent.len() as u64);
                // Drift is a float in [0, 2] (infinite before the first
                // mine); record it as milli-units in the event and
                // exactly as a gauge.
                if drift.is_finite() {
                    span.field("drift_milli", (drift * 1000.0) as u64);
                    self.metrics.gauge("stream.drift_at_remine", drift);
                }
                self.metrics.incr("stream.remines", 1);
            }
            Err(_) => {
                self.metrics.incr("stream.remine_failures", 1);
            }
        }
        drop(span);
        result
    }

    /// The current window as a [`TransactionDb`], in arrival order: what
    /// [`SlidingWindowMiner::mine`] mines.
    pub fn snapshot(&self) -> TransactionDb {
        TransactionDb::from_transactions(self.window.iter().map(|t| t.iter().copied()))
            .with_universe(self.item_counts.len().max(1))
    }
}

/// Sum of per-item drift terms `|count(i)/n - base(i)/base_n|` over the
/// *distinct* union of two canonical (sorted, deduped) item slices — the
/// items whose terms a push invalidates (arrivals ∪ evictions).
fn union_drift_terms(
    a: &[ItemId],
    b: &[ItemId],
    counts: &[u64],
    baseline: &(usize, Vec<u64>),
    n: f64,
) -> f64 {
    let (base_n, base) = baseline;
    let n = n.max(1.0);
    let bn = (*base_n).max(1) as f64;
    let mut i = 0;
    let mut j = 0;
    let mut sum = 0.0;
    loop {
        let item = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) => {
                if x == y {
                    i += 1;
                    j += 1;
                    x
                } else if x < y {
                    i += 1;
                    x
                } else {
                    j += 1;
                    y
                }
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (None, Some(&y)) => {
                j += 1;
                y
            }
            (None, None) => break,
        };
        let cur = counts.get(item as usize).copied().unwrap_or(0) as f64 / n;
        let old = base.get(item as usize).copied().unwrap_or(0) as f64 / bn;
        sum += (cur - old).abs();
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::ExecBudget;
    use crate::fpgrowth::fpgrowth;
    use crate::item::Itemset;

    fn config() -> MinerConfig {
        MinerConfig::with_min_support(0.5)
    }

    fn miner(capacity: usize) -> SlidingWindowMiner {
        SlidingWindowMiner::new(capacity, config())
    }

    fn remine(m: &mut SlidingWindowMiner) -> FrequentItemsets {
        m.mine(&config(), &BudgetGuard::unlimited()).unwrap()
    }

    fn batch(db: &TransactionDb) -> FrequentItemsets {
        fpgrowth(
            db,
            &config(),
            &Metrics::disabled(),
            &BudgetGuard::unlimited(),
        )
        .unwrap()
    }

    #[test]
    fn push_and_evict_maintain_counts() {
        let mut m = miner(3);
        assert!(m.push([0, 1]).is_none());
        assert!(m.push([0]).is_none());
        assert!(m.push([1, 2]).is_none());
        assert_eq!(m.len(), 3);
        assert_eq!(m.item_count(0), 2);
        // Fourth push evicts the first transaction.
        let evicted = m.push([2]).expect("window full");
        assert_eq!(evicted, vec![0, 1]);
        assert_eq!(m.len(), 3);
        assert_eq!(m.item_count(0), 1);
        assert_eq!(m.item_count(1), 1);
        assert_eq!(m.item_count(2), 2);
    }

    #[test]
    fn incremental_counts_match_snapshot() {
        let mut m = miner(5);
        for i in 0..20u32 {
            m.push([i % 3, (i + 1) % 3]);
        }
        let db = m.snapshot();
        let full = db.item_counts();
        for (item, &count) in full.iter().enumerate() {
            assert_eq!(m.item_count(item as ItemId), count);
        }
    }

    #[test]
    fn mine_matches_batch_on_window() {
        let mut m = miner(4);
        for txn in [vec![0, 1], vec![0, 1], vec![0, 2], vec![1, 2], vec![0, 1]] {
            m.push(txn);
        }
        // Window holds the last four transactions.
        let frequent = remine(&mut m);
        assert_eq!(frequent.as_slice(), batch(&m.snapshot()).as_slice());
        assert_eq!(frequent.count(&Itemset::from_items([0, 1])), Some(2));
    }

    #[test]
    fn drift_zero_after_mine_grows_with_change() {
        let mut m = miner(8);
        for _ in 0..8 {
            m.push([0, 1]);
        }
        assert!(m.drift().is_infinite(), "no baseline yet");
        remine(&mut m);
        assert_eq!(m.drift(), 0.0);
        // Same distribution keeps drift at zero.
        m.push([0, 1]);
        assert!(m.drift() < 1e-9);
        // A regime change raises it.
        for _ in 0..8 {
            m.push([2, 3]);
        }
        assert!(m.drift() > 1.5, "drift {}", m.drift());
    }

    #[test]
    fn incremental_drift_matches_rescan() {
        // The cache must track the from-scratch recomputation across a
        // mixed push/evict/mine schedule (window at capacity throughout,
        // so the incremental path is the one exercised).
        let mut m = miner(6);
        for i in 0..6u32 {
            m.push([i % 4, (i * 3) % 4]);
        }
        remine(&mut m);
        for i in 0..40u32 {
            m.push([i % 5, (i * 7 + 1) % 5]);
            if i % 11 == 0 {
                remine(&mut m);
            }
            let cached = m.drift();
            let recomputed = {
                let (base_n, base) = m.baseline.as_ref().unwrap();
                let n = m.len().max(1) as f64;
                let bn = (*base_n).max(1) as f64;
                (0..m.item_counts.len().max(base.len()))
                    .map(|j| {
                        let cur = m.item_counts.get(j).copied().unwrap_or(0) as f64 / n;
                        let old = base.get(j).copied().unwrap_or(0) as f64 / bn;
                        (cur - old).abs()
                    })
                    .sum::<f64>()
            };
            assert!(
                (cached - recomputed).abs() < 1e-9,
                "step {i}: cached {cached} != recomputed {recomputed}"
            );
        }
    }

    #[test]
    fn budget_trip_leaves_baseline_and_drift_unchanged() {
        let mut m = miner(4);
        for txn in [vec![0, 1], vec![0, 1], vec![0, 2], vec![1, 2]] {
            m.push(txn);
        }
        remine(&mut m);
        m.push([3, 4]);
        let drift_before = m.drift();
        assert!(drift_before > 0.0);
        // A 0-itemset budget trips on the first emission.
        let budget = ExecBudget {
            max_itemsets: Some(0),
            ..ExecBudget::default()
        };
        let err = m.mine(&config(), &BudgetGuard::new(&budget)).unwrap_err();
        assert!(matches!(err, MineError::Budget { .. }), "{err}");
        // Baseline untouched: drift still reports the same pending change,
        // and a successful retry mines the identical window.
        assert_eq!(m.drift(), drift_before);
        let frequent = remine(&mut m);
        assert_eq!(frequent.as_slice(), batch(&m.snapshot()).as_slice());
        assert_eq!(m.drift(), 0.0);
    }

    #[test]
    fn hot_items_track_threshold() {
        let mut m = miner(4);
        m.push([0, 1]);
        m.push([0, 1]);
        m.push([0]);
        m.push([2]);
        // min_count = ceil(0.5 * 4) = 2.
        assert_eq!(m.hot_items(), vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "window capacity must be positive")]
    fn zero_capacity_rejected() {
        miner(0);
    }

    #[test]
    fn metrics_record_remines_and_evictions() {
        let metrics = Metrics::enabled();
        let mut m = miner(2).with_metrics(metrics.clone());
        m.push([0, 1]);
        m.push([0, 1]);
        remine(&mut m); // first mine: no finite drift yet
        m.push([2, 3]); // evicts one transaction
        remine(&mut m);
        let snap = metrics.snapshot();
        assert!(snap.counters.contains(&("stream.evictions".to_string(), 1)));
        assert!(snap.counters.contains(&("stream.remines".to_string(), 2)));
        let remines: Vec<_> = snap
            .stages
            .iter()
            .filter(|e| e.stage == "stream.remine")
            .collect();
        assert_eq!(remines.len(), 2);
        assert_eq!(remines[0].field("window"), Some(2));
        assert_eq!(remines[0].field("drift_milli"), None, "no baseline yet");
        assert!(remines[1].field("drift_milli").unwrap() > 0);
        assert!(snap
            .gauges
            .iter()
            .any(|(name, value)| name == "stream.drift_at_remine" && *value > 0.0));
        // The budgeted path nests the miner's own stages under the
        // remine span, so streaming traces show the build/mine split.
        let remine_id = remines[0].id;
        assert!(snap
            .stages
            .iter()
            .any(|e| e.stage == "mine.tree_build" && e.parent == Some(remine_id)));
    }

    #[test]
    fn failed_remine_counts_but_does_not_increment_remines() {
        let metrics = Metrics::enabled();
        let mut m = miner(2).with_metrics(metrics.clone());
        m.push([0, 1]);
        m.push([0, 1]);
        let budget = ExecBudget {
            max_itemsets: Some(0),
            ..ExecBudget::default()
        };
        assert!(m.mine(&config(), &BudgetGuard::new(&budget)).is_err());
        let snap = metrics.snapshot();
        assert!(snap
            .counters
            .contains(&("stream.remine_failures".to_string(), 1)));
        assert!(snap.counters.iter().all(|(n, _)| n != "stream.remines"));
    }
}
