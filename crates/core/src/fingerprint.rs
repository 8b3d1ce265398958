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
//!   output* into a canonical string. The one knob that does not, the
//!   whole [`irma_mine::ExecBudget`], is deliberately excluded, so a
//!   client retrying with a longer deadline still hits the cache: cached
//!   entries are full-fidelity, never degraded, so the budget that
//!   produced them is irrelevant.
//!
//! Floats are keyed by their exact bit pattern ([`f64::to_bits`]): no
//! formatting round-trip, no false sharing between configs that differ
//! in a late decimal.

use crate::traces::Trace;
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
/// string. `trace` is the profile whose encoder spec the analysis uses
/// (`None`: the spec is inferred from the data); `keyword` is the
/// optional keyword-analysis target (a column label); `top` caps how many
/// rules/causes the caller renders and is *included* because it changes
/// the response body.
pub fn config_cache_key(
    config: &AnalysisConfig,
    trace: Option<Trace>,
    keyword: Option<&str>,
    top: usize,
) -> String {
    format!(
        "spec={};ms={:016x};ml={};rl={:016x};rc={:016x};cl={:016x};cs={:016x};kw={};top={}",
        trace.map_or("inferred", Trace::name),
        config.miner.min_support.to_bits(),
        config.miner.max_len,
        config.rules.min_lift.to_bits(),
        config.rules.min_confidence.to_bits(),
        config.prune.c_lift.to_bits(),
        config.prune.c_supp.to_bits(),
        keyword.unwrap_or(""),
        top,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use irma_mine::ExecBudget;

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
    fn cache_key_ignores_budget() {
        let base = AnalysisConfig::default();
        let mut budgeted = base.clone();
        budgeted.budget = ExecBudget {
            max_itemsets: Some(10),
            ..ExecBudget::default()
        };
        assert_eq!(
            config_cache_key(&base, None, None, 10),
            config_cache_key(&budgeted, None, None, 10)
        );
    }

    #[test]
    fn cache_key_sees_output_affecting_knobs() {
        let base = AnalysisConfig::default();
        let key = config_cache_key(&base, None, None, 10);
        let mut support = base.clone();
        support.miner.min_support += 1e-9;
        assert_ne!(key, config_cache_key(&support, None, None, 10));
        let mut lift = base.clone();
        lift.rules.min_lift = 2.0;
        assert_ne!(key, config_cache_key(&lift, None, None, 10));
        assert_ne!(key, config_cache_key(&base, None, Some("State=Failed"), 10));
        assert_ne!(key, config_cache_key(&base, None, None, 5));
        // The encoder spec changes the items, so every trace keys apart.
        let pai = config_cache_key(&base, Some(Trace::Pai), None, 10);
        assert_ne!(key, pai);
        assert_ne!(pai, config_cache_key(&base, Some(Trace::Philly), None, 10));
    }
}
