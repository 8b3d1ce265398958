//! Generator configuration and the output bundle shared by all profiles.

use std::path::Path;

use irma_data::{inner_join, read_csv_str, write_csv_path, Frame};
use irma_obs::Metrics;

/// Scale and determinism knobs for a trace profile.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Number of jobs to generate.
    pub n_jobs: usize,
    /// RNG seed; the same seed reproduces the same trace bit-for-bit.
    pub seed: u64,
    /// Cap on monitoring samples generated per job (the reductions
    /// converge quickly; see [`crate::monitor`]).
    pub max_monitor_samples: usize,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            n_jobs: 50_000,
            seed: 0x1234_5678,
            max_monitor_samples: 256,
        }
    }
}

impl TraceConfig {
    /// Config with a given job count (default seed).
    pub fn with_jobs(n_jobs: usize) -> TraceConfig {
        TraceConfig {
            n_jobs,
            ..TraceConfig::default()
        }
    }

    /// Same config with another seed.
    pub fn seeded(mut self, seed: u64) -> TraceConfig {
        self.seed = seed;
        self
    }
}

/// Paper-reported scale of each trace (Table I), for full-scale runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaperScale {
    /// Jobs in the original trace.
    pub jobs: usize,
    /// Users in the original trace.
    pub users: usize,
    /// GPUs in the original cluster.
    pub gpus: usize,
}

/// Table I row for PAI.
pub const PAI_SCALE: PaperScale = PaperScale {
    jobs: 850_000,
    users: 1_242,
    gpus: 6_000,
};
/// Table I row for SuperCloud.
pub const SUPERCLOUD_SCALE: PaperScale = PaperScale {
    jobs: 98_000,
    users: 310,
    gpus: 450,
};
/// Table I row for Philly.
pub const PHILLY_SCALE: PaperScale = PaperScale {
    jobs: 100_000,
    users: 319,
    gpus: 2_500,
};

/// A generated trace: the two collection-level files plus ground truth.
///
/// `scheduler` and `monitoring` deliberately mirror the paper's "features
/// of a job are scattered across different files" situation; [`Self::merged`]
/// performs the paper's first preprocessing step (join on `job_id`).
#[derive(Debug, Clone)]
pub struct TraceBundle {
    /// Trace name (`"pai"`, `"supercloud"`, `"philly"`).
    pub name: &'static str,
    /// Scheduler-level log: submission info, exit status, runtime.
    pub scheduler: Frame,
    /// Node-level monitoring reductions keyed by job id.
    pub monitoring: Frame,
    /// Ground-truth archetype label per job (generation order; used only by
    /// tests and diagnostics — the mining pipeline never sees it).
    pub truth: Vec<&'static str>,
}

impl TraceBundle {
    /// Joins the scheduler and monitoring files into the per-job analysis
    /// frame (inner join on `job_id`).
    pub fn merged(&self) -> Frame {
        inner_join(&self.scheduler, &self.monitoring, "job_id")
            .expect("generated frames always share job_id")
    }

    /// Number of jobs.
    pub fn n_jobs(&self) -> usize {
        self.scheduler.n_rows()
    }

    /// Writes the two collection-level files as
    /// `<dir>/<name>_scheduler.csv` and `<dir>/<name>_monitoring.csv`,
    /// returning both paths. Ground-truth labels are deliberately *not*
    /// persisted — on-disk traces look exactly like production exports.
    pub fn write_csv_dir<P: AsRef<Path>>(
        &self,
        dir: P,
    ) -> irma_data::Result<(std::path::PathBuf, std::path::PathBuf)> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(irma_data::DataError::from)?;
        let sched = dir.join(format!("{}_scheduler.csv", self.name));
        let mon = dir.join(format!("{}_monitoring.csv", self.name));
        write_csv_path(&self.scheduler, &sched)?;
        write_csv_path(&self.monitoring, &mon)?;
        Ok((sched, mon))
    }
}

/// Reads a trace previously written by [`TraceBundle::write_csv_dir`] and
/// re-joins it into the analysis frame. Each file read is a
/// `data.parse_csv` span (fields `bytes`, `rows`) and the merge a
/// `data.join` span (field `rows`) in `metrics`.
pub fn read_merged_csv_dir<P: AsRef<Path>>(
    dir: P,
    name: &str,
    metrics: &Metrics,
) -> irma_data::Result<Frame> {
    let dir = dir.as_ref();
    let read = |level: &str| -> irma_data::Result<Frame> {
        let mut span = metrics.span("data.parse_csv");
        let text = std::fs::read_to_string(dir.join(format!("{name}_{level}.csv")))?;
        let frame = read_csv_str(&text)?;
        span.field("bytes", text.len() as u64);
        span.field("rows", frame.n_rows() as u64);
        Ok(frame)
    };
    let scheduler = read("scheduler")?;
    let monitoring = read("monitoring")?;
    let mut span = metrics.span("data.join");
    let merged = inner_join(&scheduler, &monitoring, "job_id")?;
    span.field("rows", merged.n_rows() as u64);
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supercloud;

    #[test]
    fn bundle_csv_dir_round_trip() {
        let bundle = supercloud(&TraceConfig {
            n_jobs: 200,
            seed: 3,
            max_monitor_samples: 16,
        });
        let dir = std::env::temp_dir().join(format!("irma_bundle_{}", std::process::id()));
        let (sched, mon) = bundle.write_csv_dir(&dir).unwrap();
        assert!(sched.exists() && mon.exists());
        let metrics = Metrics::enabled();
        let merged = read_merged_csv_dir(&dir, "supercloud", &metrics).unwrap();
        assert_eq!(merged.n_rows(), bundle.n_jobs());
        let snapshot = metrics.snapshot();
        let parse = snapshot.stage("data.parse_csv").expect("parse span");
        assert_eq!(parse.field("rows"), Some(bundle.n_jobs() as u64));
        assert!(parse.field("bytes").is_some_and(|b| b > 0));
        let join = snapshot.stage("data.join").expect("join span");
        assert_eq!(join.field("rows"), Some(bundle.n_jobs() as u64));
        assert_eq!(merged.n_cols(), bundle.merged().n_cols());
        std::fs::remove_dir_all(&dir).ok();
    }
}
