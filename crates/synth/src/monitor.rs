//! Node-level GPU monitoring simulator.
//!
//! SuperCloud samples `nvidia-smi` every 100 ms; Philly's Ganglia deployment
//! samples every minute (§II). The paper's features — mean / min / max SM
//! utilization, utilization *variance*, memory-bandwidth utilization, memory
//! used, board power — are reductions over those series. This module
//! generates a per-job time series from a latent behaviour pattern and
//! computes the same reductions, so derived features carry the same
//! dependence structure as real monitoring data (e.g. an idle GPU draws
//! near-idle power; a bursty inference job has zero *min* SM but nonzero
//! mean).

use rand::rngs::SmallRng;
use rand::Rng;

use crate::rng::{clamp, normal};

/// Latent GPU usage pattern of a job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GpuBehavior {
    /// GPU requested but never touched (the paper's `SM Util = 0%` jobs).
    Idle,
    /// Model resident in memory, compute only in short bursts (inference
    /// serving): near-zero mean SM, held memory, visible SM variance.
    BurstyInference {
        /// Fraction of samples inside a burst.
        duty: f64,
        /// SM utilization during a burst (percent).
        burst_level: f64,
        /// Memory held while serving (GB).
        mem_gb: f64,
    },
    /// Steady training at a target utilization.
    SteadyTraining {
        /// Mean SM utilization (percent).
        level: f64,
        /// Sample-to-sample jitter (percent).
        jitter: f64,
        /// Working-set memory (GB).
        mem_gb: f64,
    },
}

/// One sampled monitoring series for a job's GPU.
#[derive(Debug, Clone, Default)]
pub struct GpuSeries {
    /// SM (streaming multiprocessor) utilization per sample, percent.
    pub sm_util: Vec<f64>,
    /// Memory-bandwidth utilization per sample, percent.
    pub mem_bw_util: Vec<f64>,
    /// Memory used per sample, GB.
    pub mem_used_gb: Vec<f64>,
    /// Board power per sample, watts.
    pub power_w: Vec<f64>,
}

/// Reduction of a series into the paper's per-job features.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GpuStats {
    /// Mean SM utilization (percent).
    pub sm_mean: f64,
    /// Minimum SM utilization (percent).
    pub sm_min: f64,
    /// Maximum SM utilization (percent).
    pub sm_max: f64,
    /// Variance of SM utilization.
    pub sm_var: f64,
    /// Mean memory-bandwidth utilization (percent).
    pub mem_bw_mean: f64,
    /// Variance of memory-bandwidth utilization.
    pub mem_bw_var: f64,
    /// Mean memory used (GB).
    pub mem_used_mean_gb: f64,
    /// Mean board power (watts).
    pub power_mean_w: f64,
}

/// Hardware envelope used to translate utilization into power.
#[derive(Debug, Clone, Copy)]
pub struct GpuEnvelope {
    /// Power at 0% utilization (watts).
    pub idle_power_w: f64,
    /// Additional power at 100% utilization (watts).
    pub dynamic_power_w: f64,
    /// Total board memory (GB).
    pub memory_gb: f64,
}

/// NVIDIA V100-32GB-like envelope (SuperCloud nodes).
pub const V100: GpuEnvelope = GpuEnvelope {
    idle_power_w: 55.0,
    dynamic_power_w: 245.0,
    memory_gb: 32.0,
};

/// Caps the number of generated samples per job.
///
/// A week-long job at 100 ms would be ~6M samples; statistically the
/// reductions converge long before that, so the simulator spreads at most
/// this many samples across the job's runtime.
pub const MAX_SAMPLES: usize = 1_024;

/// Generates a monitoring series for one job.
///
/// `runtime_s` and `interval_s` determine the sample count (capped at
/// [`MAX_SAMPLES`]); at least one sample is always produced.
pub fn simulate_gpu(
    rng: &mut SmallRng,
    behavior: GpuBehavior,
    envelope: &GpuEnvelope,
    runtime_s: f64,
    interval_s: f64,
) -> GpuSeries {
    let raw = (runtime_s / interval_s.max(1e-9)).ceil() as usize;
    let n = raw.clamp(1, MAX_SAMPLES);
    let mut series = GpuSeries {
        sm_util: Vec::with_capacity(n),
        mem_bw_util: Vec::with_capacity(n),
        mem_used_gb: Vec::with_capacity(n),
        power_w: Vec::with_capacity(n),
    };
    for _ in 0..n {
        let (sm, mem_bw, mem_used) = match behavior {
            GpuBehavior::Idle => (0.0, 0.0, clamp(normal(rng, 0.3, 0.2), 0.0, 1.0)),
            GpuBehavior::BurstyInference {
                duty,
                burst_level,
                mem_gb,
            } => {
                if rng.gen::<f64>() < duty {
                    let sm = clamp(normal(rng, burst_level, 8.0), 1.0, 100.0);
                    (sm, sm * 0.5, mem_gb)
                } else {
                    (0.0, 0.0, mem_gb)
                }
            }
            GpuBehavior::SteadyTraining {
                level,
                jitter,
                mem_gb,
            } => {
                let sm = clamp(normal(rng, level, jitter), 0.0, 100.0);
                let bw = clamp(sm * 0.6 + normal(rng, 0.0, 4.0), 0.0, 100.0);
                let mem = clamp(mem_gb + normal(rng, 0.0, 0.3), 0.1, envelope.memory_gb);
                (sm, bw, mem)
            }
        };
        let power =
            envelope.idle_power_w + envelope.dynamic_power_w * (sm / 100.0) + normal(rng, 0.0, 3.0);
        series.sm_util.push(sm);
        series.mem_bw_util.push(mem_bw);
        series
            .mem_used_gb
            .push(clamp(mem_used, 0.0, envelope.memory_gb));
        series.power_w.push(power.max(0.0));
    }
    series
}

/// Mean of a slice (0 for empty).
fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population variance of a slice (0 for empty).
fn variance(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64
}

impl GpuSeries {
    /// Reduces the series into per-job features.
    pub fn stats(&self) -> GpuStats {
        GpuStats {
            sm_mean: mean(&self.sm_util),
            sm_min: self.sm_util.iter().copied().fold(f64::INFINITY, f64::min),
            sm_max: self
                .sm_util
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max),
            sm_var: variance(&self.sm_util),
            mem_bw_mean: mean(&self.mem_bw_util),
            mem_bw_var: variance(&self.mem_bw_util),
            mem_used_mean_gb: mean(&self.mem_used_gb),
            power_mean_w: mean(&self.power_w),
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sm_util.len()
    }

    /// True when no samples were generated (never happens via
    /// [`simulate_gpu`]).
    pub fn is_empty(&self) -> bool {
        self.sm_util.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    #[test]
    fn idle_gpu_draws_idle_power() {
        let mut rng = seeded_rng(1);
        let s = simulate_gpu(&mut rng, GpuBehavior::Idle, &V100, 600.0, 0.1).stats();
        assert_eq!(s.sm_mean, 0.0);
        assert_eq!(s.sm_max, 0.0);
        assert_eq!(s.sm_var, 0.0);
        assert!((s.power_mean_w - V100.idle_power_w).abs() < 5.0);
        assert!(s.mem_used_mean_gb < 1.0);
    }

    #[test]
    fn training_gpu_hits_target_level() {
        let mut rng = seeded_rng(2);
        let s = simulate_gpu(
            &mut rng,
            GpuBehavior::SteadyTraining {
                level: 80.0,
                jitter: 5.0,
                mem_gb: 16.0,
            },
            &V100,
            3600.0,
            0.1,
        )
        .stats();
        assert!((s.sm_mean - 80.0).abs() < 3.0, "sm {}", s.sm_mean);
        assert!((s.mem_used_mean_gb - 16.0).abs() < 1.0);
        assert!(s.power_mean_w > 200.0);
        assert!(s.sm_var < 100.0);
    }

    #[test]
    fn bursty_inference_holds_memory_but_not_compute() {
        let mut rng = seeded_rng(3);
        let s = simulate_gpu(
            &mut rng,
            GpuBehavior::BurstyInference {
                duty: 0.05,
                burst_level: 60.0,
                mem_gb: 10.0,
            },
            &V100,
            3600.0,
            0.1,
        )
        .stats();
        assert!(s.sm_mean < 10.0, "mean {}", s.sm_mean);
        assert_eq!(s.sm_min, 0.0);
        assert!(s.sm_max > 30.0);
        assert!(s.sm_var > 10.0, "bursts must show up in variance");
        assert!((s.mem_used_mean_gb - 10.0).abs() < 0.5);
    }

    #[test]
    fn sample_count_capped_and_floored() {
        let mut rng = seeded_rng(4);
        let long = simulate_gpu(&mut rng, GpuBehavior::Idle, &V100, 1e7, 0.1);
        assert_eq!(long.len(), MAX_SAMPLES);
        let tiny = simulate_gpu(&mut rng, GpuBehavior::Idle, &V100, 0.01, 60.0);
        assert_eq!(tiny.len(), 1);
    }

    #[test]
    fn variance_zero_for_constant_series() {
        let s = GpuSeries {
            sm_util: vec![5.0; 10],
            mem_bw_util: vec![1.0; 10],
            mem_used_gb: vec![2.0; 10],
            power_w: vec![60.0; 10],
        };
        let st = s.stats();
        assert_eq!(st.sm_var, 0.0);
        assert_eq!(st.sm_min, 5.0);
        assert_eq!(st.sm_max, 5.0);
    }
}
