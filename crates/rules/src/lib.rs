//! # irma-rules — association rules, metrics, and keyword pruning
//!
//! The interpretable half of the IRMA workflow: turn a mined
//! frequent-itemset family into association rules
//! ([`generate_rules`]), then apply the paper's four keyword-centric
//! pruning conditions ([`prune_rules`]) and split survivors into cause /
//! characteristic tables ([`KeywordAnalysis`]).
//!
//! ```
//! use irma_mine::{fpgrowth, BudgetGuard, ItemCatalog, MinerConfig, TransactionDb};
//! use irma_obs::{Metrics, Provenance};
//! use irma_rules::{generate_rules, KeywordAnalysis, PruneParams, RuleConfig};
//!
//! let mut catalog = ItemCatalog::new();
//! let idle = catalog.intern("SM Util = 0%");
//! let debug = catalog.intern("Runtime = Bin1");
//! // 6 of 8 jobs with short runtime are idle; base idle rate is 50%.
//! let txns: Vec<Vec<u32>> = (0..16)
//!     .map(|i| match i % 16 {
//!         0..=5 => vec![idle, debug],
//!         6..=7 => vec![debug],
//!         8..=9 => vec![idle],
//!         _ => vec![],
//!     })
//!     .collect();
//! let db = TransactionDb::from_transactions(txns).with_universe(catalog.len());
//! let (metrics, provenance) = (Metrics::disabled(), Provenance::disabled());
//! let config = MinerConfig::with_min_support(0.05);
//! let frequent = fpgrowth(&db, &config, &metrics, &BudgetGuard::unlimited())?;
//! let rules = generate_rules(&frequent, &RuleConfig::with_min_lift(1.2), &metrics, &provenance);
//! let params = PruneParams::default();
//! let analysis = KeywordAnalysis::run(&rules, idle, &params, &metrics, &provenance)?;
//! assert_eq!(analysis.causes[0].antecedent.items(), &[debug]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod analysis;
mod classify;
mod compare;
mod generate;
mod prune;
mod rule;
mod trie;

pub use analysis::KeywordAnalysis;
pub use classify::{Evaluation, RuleClassifier};
pub use compare::{compare_rules, label_rules, LabeledRule, RuleComparison};
pub use generate::{generate_rules, RuleConfig};
pub use prune::{
    prune_rules, InvalidPruneParams, PruneCondition, PruneOutcome, PruneParams, PruneRecord,
};
pub use rule::{Rule, RuleRole};
pub use trie::RuleTrie;
