//! Dataset fingerprints and normalized config cache keys.
//!
//! The serving layer (`irma-serve`) caches analysis results keyed by
//! *(dataset fingerprint, normalized config)*. Both halves live here so
//! the CLI, the server, and the chaos harness agree on them:
//!
//! * [`dataset_fingerprint`] hashes the raw CSV bytes (FNV-1a 64) into a
//!   16-hex-digit handle a client can replay (`fp:<hex>` bodies) instead
//!   of re-uploading the dataset.
//! * [`config_cache_key`] renders the analysis knobs that *change the
//!   output* into a canonical string. Knobs that provably do not are
//!   deliberately excluded, so a client retrying with a longer deadline
//!   or another miner still hits the cache:
//!   - the miner (`AnalysisConfig::algorithm`): every exact miner returns
//!     the same itemsets, pinned by the differential harness, and the
//!     response does not echo it;
//!   - `MinerConfig::parallel`: byte-identical output at any width, also
//!     pinned by the differential harness;
//!   - the whole [`irma_mine::ExecBudget`]: cached entries are
//!     full-fidelity, never degraded, so the budget that produced them is
//!     irrelevant.
//!
//! Floats are keyed by their exact bit pattern ([`f64::to_bits`]): no
//! formatting round-trip, no false sharing between configs that differ
//! in a late decimal.

use crate::workflow::AnalysisConfig;

/// Fingerprints a dataset's raw bytes: FNV-1a 64, rendered as 16 lowercase
/// hex digits. Stable across runs and platforms.
pub fn dataset_fingerprint(bytes: &[u8]) -> String {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(PRIME);
    }
    format!("{hash:016x}")
}

/// Renders the output-affecting analysis knobs into a canonical cache-key
/// string. `keyword` is the optional keyword-analysis target (a column
/// label); `top` caps how many rules/causes the caller renders and is
/// *included* because it changes the response body.
pub fn config_cache_key(config: &AnalysisConfig, keyword: Option<&str>, top: usize) -> String {
    format!(
        "ms={:016x};ml={};rl={:016x};rc={:016x};rs={:016x};cl={:016x};cs={:016x};kw={};top={}",
        config.miner.min_support.to_bits(),
        config.miner.max_len,
        config.rules.min_lift.to_bits(),
        config.rules.min_confidence.to_bits(),
        config.rules.min_support.to_bits(),
        config.prune.c_lift.to_bits(),
        config.prune.c_supp.to_bits(),
        keyword.unwrap_or(""),
        top,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use irma_mine::{Algorithm, ExecBudget};

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        let a = dataset_fingerprint(b"runtime,sm\n1,2\n");
        assert_eq!(a.len(), 16);
        assert_eq!(a, dataset_fingerprint(b"runtime,sm\n1,2\n"));
        assert_ne!(a, dataset_fingerprint(b"runtime,sm\n1,3\n"));
        // Pinned value: clients may persist fingerprints across versions.
        assert_eq!(dataset_fingerprint(b""), "cbf29ce484222325");
    }

    #[test]
    fn cache_key_ignores_parallel_and_budget() {
        let base = AnalysisConfig::default();
        let mut parallel_off = base.clone();
        parallel_off.miner.parallel = !base.miner.parallel;
        let mut budgeted = base.clone();
        budgeted.budget = ExecBudget {
            max_itemsets: Some(10),
            ..ExecBudget::default()
        };
        let key = config_cache_key(&base, None, 10);
        assert_eq!(key, config_cache_key(&parallel_off, None, 10));
        assert_eq!(key, config_cache_key(&budgeted, None, 10));
        for algorithm in Algorithm::all() {
            let mut mined_by = base.clone();
            mined_by.algorithm = algorithm;
            assert_eq!(key, config_cache_key(&mined_by, None, 10));
        }
    }

    #[test]
    fn cache_key_sees_output_affecting_knobs() {
        let base = AnalysisConfig::default();
        let key = config_cache_key(&base, None, 10);
        let mut support = base.clone();
        support.miner.min_support += 1e-9;
        assert_ne!(key, config_cache_key(&support, None, 10));
        let mut lift = base.clone();
        lift.rules.min_lift = 2.0;
        assert_ne!(key, config_cache_key(&lift, None, 10));
        assert_ne!(key, config_cache_key(&base, Some("State=Failed"), 10));
        assert_ne!(key, config_cache_key(&base, None, 5));
    }
}
