//! # irma-mine — frequent-itemset mining
//!
//! Hand-rolled implementations of the three classic frequent-itemset
//! miners for the IRMA reproduction:
//!
//! * [`eclat`] — the pipeline's miner: vertical bitset tid-sets
//!   intersected depth-first, which suits the narrow, dense encoded
//!   traces. It mines both the batch pipeline and the
//!   [`SlidingWindowMiner`]'s window;
//! * [`fpgrowth`] — the paper's miner (§III-C): FP-tree with
//!   conditional-pattern-base recursion, single-prefix-path shortcut, and
//!   rayon fan-out over the header table;
//! * [`apriori`] — the level-wise baseline both are compared against.
//!
//! All three take a [`TransactionDb`] and a [`MinerConfig`] and return the
//! identical [`FrequentItemsets`] family (property-tested), so downstream
//! rule generation is miner-agnostic. Only [`eclat`] also takes a
//! [`BudgetGuard`] and a metrics registry: it alone runs behind the
//! pipeline and the service, so it alone is budgeted, observed, and
//! contains worker panics as a typed [`MineError`]. The two baselines
//! are plain reference miners whose only error is an invalid config.
//! Each miner forks only on a rayon pool wider than one worker, so the
//! pool width is the one parallelism switch.
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
mod counts;
mod db;
mod eclat;
mod fpgrowth;
mod item;
pub mod simd;
mod stream;

pub use apriori::apriori;
pub use budget::{BudgetBreach, BudgetGuard, CancelToken, ExecBudget, MineError};
pub use counts::{FrequentItemsets, MinerConfig};
pub use db::TransactionDb;
pub use eclat::eclat;
pub use fpgrowth::fpgrowth;
pub use item::{is_sorted_subset, ItemCatalog, ItemId, Itemset};
pub use stream::SlidingWindowMiner;

/// The three exact miners, for the suites and benches that run each of
/// them on the same input. The pipeline itself always runs [`eclat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// FP-Growth (the paper's choice).
    FpGrowth,
    /// Apriori baseline.
    Apriori,
    /// Eclat over bitset tid-sets (the pipeline's miner).
    Eclat,
}

impl Algorithm {
    /// Runs the selected miner. Eclat runs unbudgeted and unobserved, so
    /// all three answer the same call: the error is an invalid config, or
    /// under Eclat alone a contained worker panic.
    pub fn mine(
        self,
        db: &TransactionDb,
        config: &MinerConfig,
    ) -> Result<FrequentItemsets, MineError> {
        match self {
            Algorithm::FpGrowth => fpgrowth(db, config),
            Algorithm::Apriori => apriori(db, config),
            Algorithm::Eclat => eclat(
                db,
                config,
                &irma_obs::Metrics::disabled(),
                &BudgetGuard::unlimited(),
            ),
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
