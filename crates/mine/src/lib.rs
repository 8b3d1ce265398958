//! # irma-mine — frequent-itemset mining
//!
//! Hand-rolled implementations of the three classic frequent-itemset
//! miners for the IRMA reproduction:
//!
//! * [`fpgrowth`] — the paper's miner of choice (§III-C): FP-tree with
//!   conditional-pattern-base recursion, single-prefix-path shortcut, and
//!   optional rayon fan-out over the header table;
//! * [`apriori`] — the level-wise baseline FP-Growth is compared against;
//! * [`eclat`] — a vertical (tid-list) miner used as a third independent
//!   oracle in the equivalence property tests.
//!
//! All three take a [`TransactionDb`], a [`MinerConfig`] and a
//! [`BudgetGuard`] and return the identical [`FrequentItemsets`] family
//! (property-tested) or a typed [`MineError`], so downstream rule
//! generation is miner-agnostic.
//!
//! ```
//! use irma_mine::{fpgrowth, BudgetGuard, Itemset, MinerConfig, TransactionDb};
//! use irma_obs::Metrics;
//!
//! let db = TransactionDb::from_transactions(vec![
//!     vec![0, 1, 2],
//!     vec![0, 1],
//!     vec![0, 2],
//! ]);
//! let config = MinerConfig::with_min_support(0.6);
//! let frequent = fpgrowth(&db, &config, &Metrics::disabled(), &BudgetGuard::unlimited())?;
//! assert_eq!(frequent.count(&Itemset::from_items([0, 1])), Some(2));
//! # Ok::<(), irma_mine::MineError>(())
//! ```

#![warn(missing_docs)]

mod apriori;
mod budget;
mod condense;
mod counts;
mod db;
mod eclat;
mod fpgrowth;
mod incremental;
mod item;
pub mod simd;
mod stream;

pub use apriori::apriori;
pub use budget::{BudgetBreach, BudgetGuard, CancelToken, ExecBudget, MineError};
pub use condense::{closed_itemsets, maximal_itemsets, support_from_closed};
pub use counts::{mine_top_k, FrequentItemsets, MinerConfig};
pub use db::TransactionDb;
pub use eclat::eclat;
pub use fpgrowth::{fpgrowth, fpgrowth_paths};
pub use incremental::IncrementalFpTree;
pub use item::{is_sorted_subset, ItemCatalog, ItemId, Itemset};
pub use stream::SlidingWindowMiner;

/// Which mining algorithm a pipeline should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Algorithm {
    /// FP-Growth (default; the paper's choice).
    #[default]
    FpGrowth,
    /// Apriori baseline.
    Apriori,
    /// Eclat baseline.
    Eclat,
}

impl Algorithm {
    /// Runs the selected miner under `guard`, so budget breaches, invalid
    /// configs, and (for FP-Growth's fan-out) contained worker panics come
    /// back as a typed [`MineError`] instead of unwinding. FP-Growth
    /// reports its tree-build/mine split into `metrics`; the baselines emit
    /// a single `mine.mine` stage event with the input/output
    /// cardinalities.
    pub fn mine(
        self,
        db: &TransactionDb,
        config: &MinerConfig,
        metrics: &irma_obs::Metrics,
        guard: &BudgetGuard,
    ) -> Result<FrequentItemsets, MineError> {
        match self {
            Algorithm::FpGrowth => fpgrowth(db, config, metrics, guard),
            Algorithm::Apriori | Algorithm::Eclat => {
                let mut span = metrics.span("mine.mine");
                let frequent = match self {
                    Algorithm::Apriori => apriori(db, config, guard)?,
                    _ => eclat(db, config, guard)?,
                };
                span.field("transactions_in", db.len() as u64);
                span.field("itemsets_out", frequent.len() as u64);
                Ok(frequent)
            }
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::FpGrowth => "fpgrowth",
            Algorithm::Apriori => "apriori",
            Algorithm::Eclat => "eclat",
        }
    }

    /// All available algorithms.
    pub fn all() -> [Algorithm; 3] {
        [Algorithm::FpGrowth, Algorithm::Apriori, Algorithm::Eclat]
    }
}
