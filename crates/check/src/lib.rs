//! # irma-check — property-based differential testing harness
//!
//! Every later perf or sharding PR regresses against this crate: it pits
//! the fast implementations (FP-Growth, Apriori, Eclat, the sliding-window
//! miner) against brute-force reference oracles on thousands of random
//! inputs, and checks the algebraic invariants of rule metrics, pruning,
//! binning, and the CSV reader and writer.
//!
//! The harness is organized as:
//!
//! * [`generators`] — shrinkable random-input strategies (transaction
//!   databases, miner configs, exact-threshold boundary cases, frames)
//!   shared by all suites;
//! * [`oracle`] — brute-force reference implementations, deliberately
//!   written in the most obvious way possible (enumerate every itemset
//!   mask, count by scanning);
//! * [`flat_prune`] — the original all-pairs pruning implementation,
//!   preserved as the byte-identical oracle for the production prune
//!   (`irma_rules::prune_rules`, which finds nested pairs by subset
//!   lookup);
//! * [`fault`] — seeded fault-injection plans ([`fault::FaultPlan`]) for
//!   the chaos suite: corrupted CSV text, injected stage panics, forced
//!   budget trips, and failing trace-log writers;
//! * `tests/` — the property suites themselves: `differential` (miners vs
//!   oracle vs each other), `rule_invariants`, `prune_invariants`,
//!   `rule_trie` (the production prune vs the flat oracle,
//!   byte-identical),
//!   `binning_invariants`, `roundtrip` (CSV), `regressions`
//!   (deterministic locks on previously found bugs), and `chaos` (the
//!   fault-tolerance contract of `irma_core::try_analyze`).
//!
//! ## Corpus replay
//!
//! Failing inputs are minimized by the proptest shim's choice-sequence
//! shrinker and persisted under `tests/corpus/<test_name>/<hash>.seed` at
//! the workspace root. Every run replays the stored corpus *before*
//! generating fresh cases, so each once-found bug stays locked in as a
//! deterministic regression. Seeds are plain text (one decimal `u64` draw
//! per line) and are committed to the repository.
//!
//! Case count defaults to 256 per property and can be raised via the
//! `PROPTEST_CASES` environment variable; `PROPTEST_SEED` perturbs the
//! per-test base seed for soak runs.

#![warn(missing_docs)]

pub mod fault;
pub mod flat_prune;
pub mod generators;
pub mod oracle;

use std::path::PathBuf;

use proptest::ProptestConfig;

/// The workspace-root corpus directory (`tests/corpus`).
pub fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus")
}

/// The harness-wide property config: default case count (256, env
/// overridable) with corpus persistence + replay enabled.
pub fn config() -> ProptestConfig {
    ProptestConfig::default().with_corpus(corpus_dir())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_points_at_workspace_corpus() {
        let c = config();
        assert!(c.cases >= 1);
        let dir = c.corpus_dir.expect("corpus enabled");
        assert!(dir.ends_with("tests/corpus"));
    }
}
