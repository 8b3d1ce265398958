//! # irma-mine — frequent-itemset mining
//!
//! Hand-rolled implementations of the three classic frequent-itemset
//! miners for the IRMA reproduction:
//!
//! * [`eclat`] — the default miner: vertical bitset tid-sets intersected
//!   depth-first, which suits the narrow, dense encoded traces. It mines
//!   both the batch pipeline and the [`SlidingWindowMiner`]'s window;
//! * [`fpgrowth`] — the paper's miner (§III-C): FP-tree with
//!   conditional-pattern-base recursion, single-prefix-path shortcut, and
//!   optional rayon fan-out over the header table;
//! * [`apriori`] — the level-wise baseline both are compared against.
//!
//! All three take a [`TransactionDb`], a [`MinerConfig`] and a
//! [`BudgetGuard`] and return the identical [`FrequentItemsets`] family
//! (property-tested) or a typed [`MineError`], so downstream rule
//! generation is miner-agnostic.
//!
//! ```
//! use irma_mine::{eclat, BudgetGuard, Itemset, MinerConfig, TransactionDb};
//! use irma_obs::Metrics;
//!
//! let db = TransactionDb::from_transactions(vec![
//!     vec![0, 1, 2],
//!     vec![0, 1],
//!     vec![0, 2],
//! ]);
//! let config = MinerConfig::with_min_support(0.6);
//! let frequent = eclat(&db, &config, &Metrics::disabled(), &BudgetGuard::unlimited())?;
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
mod item;
pub mod simd;
mod stream;

pub use apriori::apriori;
pub use budget::{BudgetBreach, BudgetGuard, CancelToken, ExecBudget, MineError};
pub use condense::{closed_itemsets, maximal_itemsets, support_from_closed};
pub use counts::{mine_top_k, FrequentItemsets, MinerConfig};
pub use db::TransactionDb;
pub use eclat::eclat;
pub use fpgrowth::fpgrowth;
pub use item::{is_sorted_subset, ItemCatalog, ItemId, Itemset};
pub use stream::SlidingWindowMiner;

/// Which mining algorithm a pipeline should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Algorithm {
    /// FP-Growth (the paper's choice).
    FpGrowth,
    /// Apriori baseline.
    Apriori,
    /// Eclat over bitset tid-sets (default; same output, faster on the
    /// encoded traces).
    #[default]
    Eclat,
}

impl Algorithm {
    /// Runs the selected miner under `guard`, so budget breaches, invalid
    /// configs, and (for the FP-Growth and Eclat fan-outs) contained
    /// worker panics come back as a typed [`MineError`] instead of
    /// unwinding. FP-Growth and Eclat report their tree-build/mine split
    /// into `metrics`; Apriori emits a single `mine.mine` stage event with
    /// the input/output cardinalities.
    pub fn mine(
        self,
        db: &TransactionDb,
        config: &MinerConfig,
        metrics: &irma_obs::Metrics,
        guard: &BudgetGuard,
    ) -> Result<FrequentItemsets, MineError> {
        match self {
            Algorithm::FpGrowth => fpgrowth(db, config, metrics, guard),
            Algorithm::Eclat => eclat(db, config, metrics, guard),
            Algorithm::Apriori => {
                let mut span = metrics.span("mine.mine");
                let frequent = apriori(db, config, guard)?;
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
