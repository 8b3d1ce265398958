//! Streaming rule monitoring over an arriving job feed.
//!
//! ```text
//! cargo run --release --example streaming_monitor
//! ```
//!
//! The paper's workflow is batch, but its §VI discussion points out that
//! the pruning stage composes with streaming miners. This example runs
//! that setup: jobs from the SuperCloud profile arrive one at a time into
//! a sliding window; when the item-frequency *drift* since the last mine
//! exceeds a threshold, the window is re-mined and the failure rules are
//! re-derived. Halfway through, the feed switches to a failure-wave
//! regime (a bad node draining jobs) and the monitor picks up the new
//! rules within a window's worth of arrivals.
//!
//! The window's item counts and drift signal are maintained
//! incrementally (O(|txn|) per arrival, no full-window rescans), and the
//! re-mine (Eclat over the window) runs under an execution budget, so a
//! pathological window degrades an emission instead of killing the
//! monitor. The
//! productionized version of this loop — bounded ring ingest, adaptive
//! sampling, OpenMetrics deltas — is `irma watch` (see DESIGN.md §10).

use irma::core::{supercloud_spec, KW_FAILED};
use irma::mine::{BudgetGuard, ExecBudget, MinerConfig, SlidingWindowMiner};
use irma::obs::{Metrics, Provenance};
use irma::prep::fit;
use irma::rules::{generate_rules, InvalidPruneParams, KeywordAnalysis, PruneParams, RuleConfig};
use irma::synth::{supercloud, TraceConfig};

const WINDOW: usize = 2_000;
const DRIFT_THRESHOLD: f64 = 0.35;

fn main() -> Result<(), InvalidPruneParams> {
    // Two regimes: normal operation, then a failure wave. Both encoded
    // with the preparation frozen on the normal regime (an operator's
    // dashboards don't re-bin on every arrival either).
    let normal = supercloud(&TraceConfig {
        n_jobs: 6_000,
        seed: 0x57,
        max_monitor_samples: 64,
    });
    // The "wave": a different seed re-weighted towards failures by
    // dropping most healthy training jobs.
    let wave_src = supercloud(&TraceConfig {
        n_jobs: 12_000,
        seed: 0x58,
        max_monitor_samples: 64,
    });
    let normal_frame = normal.merged();
    let fitted = fit(&normal_frame, &supercloud_spec());
    let normal_db = fitted.transform(&normal_frame);

    let wave_frame = wave_src.merged();
    let wave_all = fitted.transform(&wave_frame);
    let failed_item = fitted.catalog().id(KW_FAILED).expect("Failed item");
    // Keep failures and every 4th healthy job -> a failure-heavy stream.
    let wave: Vec<Vec<u32>> = (0..wave_all.len())
        .filter(|&i| wave_all.transaction(i).binary_search(&failed_item).is_ok() || i % 4 == 0)
        .map(|i| wave_all.transaction(i).to_vec())
        .collect();

    let config = MinerConfig::with_min_support(0.05);
    let mut miner = SlidingWindowMiner::new(WINDOW, config.clone());
    let (metrics, provenance) = (Metrics::disabled(), Provenance::disabled());
    let params = PruneParams::default();
    let budget = ExecBudget {
        deadline: Some(std::time::Duration::from_secs(5)),
        ..ExecBudget::default()
    };
    let mut arrivals = 0usize;
    let mut remines = 0usize;

    let mut feed: Vec<Vec<u32>> = (0..normal_db.len())
        .map(|i| normal_db.transaction(i).to_vec())
        .collect();
    feed.extend(wave);

    for (i, txn) in feed.iter().enumerate() {
        miner.push(txn.iter().copied());
        arrivals += 1;
        if miner.len() < WINDOW / 2 || miner.drift() < DRIFT_THRESHOLD {
            continue;
        }
        // Budgeted mining: a breach skips this emission (the daemon's
        // degradation ladder would relax knobs and retry) but the monitor
        // itself keeps running either way.
        let frequent = match miner.mine(&config, &BudgetGuard::new(&budget)) {
            Ok(frequent) => frequent,
            Err(e) => {
                println!("arrival {i:>5}: re-mine skipped ({e})");
                continue;
            }
        };
        remines += 1;
        let rules = generate_rules(&frequent, &RuleConfig::with_min_lift(1.5), &metrics);
        let analysis = KeywordAnalysis::run(&rules, failed_item, &params, &metrics, &provenance)?;
        let failure_share = miner.item_count(failed_item) as f64 / miner.len() as f64;
        println!(
            "arrival {i:>5}: re-mined (drift trigger) | window failure rate {:.0}% | {} failure rules",
            failure_share * 100.0,
            analysis.n_kept()
        );
        if let Some(top) = analysis.causes.first() {
            println!("    top cause: {}", top.render(fitted.catalog()));
        }
        if remines > 12 {
            println!("    ... (suppressing further re-mine logs)");
            break;
        }
    }
    println!(
        "\n{arrivals} arrivals processed, {remines} drift-triggered re-mines \
         (threshold {DRIFT_THRESHOLD})"
    );
    println!("The failure-wave regime shows up as a jump in the window failure");
    println!("rate and a larger failure-rule set; between regime shifts the");
    println!("drift signal stays quiet and no mining work happens at all.");
    Ok(())
}
