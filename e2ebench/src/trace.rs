//! Per-layer numbers for the traced run, read from the program's own
//! spans (`prep.*`, `mine.*`, `rules.*`, `core.analyze`) plus the
//! scheduler counters and heap attribution.

use std::time::Duration;

use irma_obs::{Metrics, StageEvent};

use crate::alloc::{Attribution, Layer};
use crate::child::{sample, sample_ms, sample_secs};

/// The closed spans of one traced pass.
pub struct Stages(pub Vec<StageEvent>);

impl Stages {
    pub fn of(metrics: &Metrics) -> Stages {
        Stages(metrics.snapshot().stages)
    }

    /// Each `rules.prune` call: (wall, kept, pruned).
    pub fn prunes(&self) -> Vec<(Duration, u64, u64)> {
        self.0
            .iter()
            .filter(|e| e.stage == "rules.prune")
            .map(|e| {
                let kept = e.field("kept").unwrap_or(0);
                let total = e.field("rules_in").unwrap_or(0);
                (e.wall, kept, total.saturating_sub(kept))
            })
            .collect()
    }

    /// One breakdown per `core.analyze` root span, in close order.
    pub fn analyses(&self) -> Vec<Analyze> {
        self.0
            .iter()
            .filter(|e| e.stage == "core.analyze")
            .map(|root| {
                let child = |stage: &str| {
                    self.0
                        .iter()
                        .find(|e| e.parent == Some(root.id) && e.stage == stage)
                };
                let wall = |stage: &str| child(stage).map_or(Duration::ZERO, |e| e.wall);
                let parts = [
                    wall("prep.fit"),
                    wall("prep.transform"),
                    wall("mine.tree_build"),
                    wall("mine.mine"),
                    wall("rules.generate"),
                ];
                Analyze {
                    wall: root.wall,
                    fit: parts[0],
                    transform: parts[1],
                    tree_build: parts[2],
                    mine: parts[3],
                    generate: parts[4],
                    self_time: root.wall.saturating_sub(parts.iter().sum()),
                    itemsets: child("mine.mine").and_then(|e| e.field("itemsets_out")),
                    rules: child("rules.generate").and_then(|e| e.field("rules_out")),
                }
            })
            .collect()
    }
}

/// Stage walls of one `core.analyze` run.
pub struct Analyze {
    pub wall: Duration,
    pub fit: Duration,
    pub transform: Duration,
    pub tree_build: Duration,
    pub mine: Duration,
    pub generate: Duration,
    /// `core.analyze` minus its stage children: the rule-trie build.
    pub self_time: Duration,
    pub itemsets: Option<u64>,
    pub rules: Option<u64>,
}

impl Analyze {
    pub fn emit(&self) {
        sample_secs("prep.fit_s", self.fit);
        sample_secs("prep.transform_s", self.transform);
        sample_secs("mine.tree_build_s", self.tree_build);
        sample_secs("mine.mine_s", self.mine);
        sample_secs("rules.generate_s", self.generate);
        sample_secs("rules.trie_build_s", self.self_time);
        if let Some(n) = self.itemsets {
            sample("mine.itemsets", n as f64);
        }
        if let Some(n) = self.rules {
            sample("rules.generated", n as f64);
        }
    }
}

/// Emits per-call prune times and the pass's kept/pruned totals.
pub fn emit_prunes(prunes: &[(Duration, u64, u64)]) {
    for &(wall, _, _) in prunes {
        sample_ms("rules.prune_ms", wall);
    }
    sample("rules.kept", prunes.iter().map(|p| p.1).sum::<u64>() as f64);
    sample(
        "rules.pruned",
        prunes.iter().map(|p| p.2).sum::<u64>() as f64,
    );
}

pub fn emit_heap(attribution: &Attribution) {
    for (layer, allocated, peak) in attribution.totals() {
        sample(&format!("alloc.{}_mb", layer.name()), allocated);
        if layer != Layer::Serve {
            sample(&format!("heap.{}_peak_mb", layer.name()), peak);
        }
    }
}

/// Work-stealing pool counters, summed over workers.
#[derive(Clone, Copy)]
pub struct Sched {
    jobs: u64,
    steals: u64,
    parks: u64,
}

impl Sched {
    pub fn now() -> Sched {
        let snap = rayon::sched_stats();
        Sched {
            jobs: snap.workers.iter().map(|w| w.jobs_executed).sum(),
            steals: snap.workers.iter().map(|w| w.steal_successes).sum(),
            parks: snap.workers.iter().map(|w| w.parks).sum(),
        }
    }

    /// Emits the counters' growth since `self`.
    pub fn emit_since(self) {
        let now = Sched::now();
        sample("sched.jobs", now.jobs.saturating_sub(self.jobs) as f64);
        sample(
            "sched.steals",
            now.steals.saturating_sub(self.steals) as f64,
        );
        sample("sched.parks", now.parks.saturating_sub(self.parks) as f64);
    }
}

/// A recording registry whose span events also drive heap attribution.
pub fn traced_metrics(attribution: &Attribution) -> Metrics {
    Metrics::enabled().with_event_sink(attribution.sink())
}

/// Runs `f` in a benchmark-side span when the pass is traced.
pub fn within<T>(attribution: Option<&Attribution>, layer: Layer, f: impl FnOnce() -> T) -> T {
    match attribution {
        Some(a) => a.around(layer, f),
        None => f(),
    }
}
