//! Cross-miner equivalence on *real* encoded traces (not just synthetic
//! micro-databases): FP-Growth, Apriori, and Eclat must produce the same
//! frequent-itemset family — and therefore the same rules — on the actual
//! workload the paper mines.

use irma::core::{philly_spec, supercloud_spec, Metrics};
use irma::mine::{Algorithm, BudgetGuard, FrequentItemsets, MinerConfig, TransactionDb};
use irma::prep::encode;
use irma::synth::{philly, supercloud, TraceConfig};

/// Runs `algorithm` unbudgeted and unobserved.
fn mine(algorithm: Algorithm, db: &TransactionDb, config: &MinerConfig) -> FrequentItemsets {
    algorithm
        .mine(db, config, &Metrics::disabled(), &BudgetGuard::unlimited())
        .expect("valid config")
}

#[test]
fn miners_agree_on_supercloud_trace() {
    let bundle = supercloud(&TraceConfig {
        n_jobs: 3_000,
        seed: 99,
        max_monitor_samples: 32,
    });
    let encoded = encode(&bundle.merged(), &supercloud_spec(), &Metrics::disabled());
    for min_support in [0.05, 0.1, 0.25] {
        let config = MinerConfig {
            min_support,
            max_len: 5,
            parallel: true,
        };
        let f = mine(Algorithm::FpGrowth, &encoded.db, &config);
        let a = mine(Algorithm::Apriori, &encoded.db, &config);
        let e = mine(Algorithm::Eclat, &encoded.db, &config);
        assert_eq!(f.as_slice(), a.as_slice(), "support {min_support}");
        assert_eq!(f.as_slice(), e.as_slice(), "support {min_support}");
        assert!(!f.is_empty());
    }
}

#[test]
fn miners_agree_on_philly_trace_with_length_caps() {
    let bundle = philly(&TraceConfig {
        n_jobs: 3_000,
        seed: 98,
        max_monitor_samples: 32,
    });
    let encoded = encode(&bundle.merged(), &philly_spec(), &Metrics::disabled());
    for max_len in [1, 2, 3, 5] {
        let config = MinerConfig {
            min_support: 0.05,
            max_len,
            parallel: false,
        };
        let f = mine(Algorithm::FpGrowth, &encoded.db, &config);
        let a = mine(Algorithm::Apriori, &encoded.db, &config);
        let e = mine(Algorithm::Eclat, &encoded.db, &config);
        assert_eq!(f.as_slice(), a.as_slice(), "max_len {max_len}");
        assert_eq!(f.as_slice(), e.as_slice(), "max_len {max_len}");
        assert!(f.iter().all(|(s, _)| s.len() <= max_len));
    }
}

#[test]
fn spot_check_supports_against_brute_force() {
    let bundle = supercloud(&TraceConfig {
        n_jobs: 2_000,
        seed: 97,
        max_monitor_samples: 32,
    });
    let encoded = encode(&bundle.merged(), &supercloud_spec(), &Metrics::disabled());
    let frequent = mine(
        Algorithm::FpGrowth,
        &encoded.db,
        &MinerConfig::with_min_support(0.1),
    );
    // Verify every 10th itemset by full scan (all would be slow in debug).
    for (set, count) in frequent.iter().step_by(10) {
        assert_eq!(*count, encoded.db.support_count(set), "itemset {set}");
    }
}
