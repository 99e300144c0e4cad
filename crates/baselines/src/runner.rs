//! Unified experiment runner: build → transform → autodiff → simulate.

use crate::{
    deepspeed, raf, tutel_degree_graphs, DEEPSPEED_MEMORY_OVERHEAD, DEFAULT_MEMORY_OVERHEAD,
    PYTORCH_COMPUTE_OVERHEAD,
};
use lancet_core::{Lancet, LancetOptions};
use lancet_cost::{ClusterKind, ClusterSpec, CommModel, ComputeModel};
use lancet_ir::{BackwardOptions, Result};
use lancet_models::{build_forward, GptMoeConfig};
use lancet_sim::{SimConfig, SimReport, Simulator};
use std::time::Duration;

/// The systems compared throughout the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum System {
    /// DeepSpeed: no overlap, PyTorch overheads, highest memory.
    DeepSpeed,
    /// Tutel: all-to-all/expert overlap, degree searched over {1,2,4,8}.
    Tutel,
    /// RAF: the compiler substrate without Lancet passes.
    Raf,
    /// Lancet with both passes.
    Lancet,
    /// Ablation: dW scheduling only (paper Fig. 16).
    LancetDwOnly,
    /// Ablation: operator partitioning only (paper Fig. 16).
    LancetPartitionOnly,
}

impl System {
    /// Display name used in figures.
    pub fn name(self) -> &'static str {
        match self {
            System::DeepSpeed => "DeepSpeed",
            System::Tutel => "Tutel",
            System::Raf => "RAF",
            System::Lancet => "Lancet",
            System::LancetDwOnly => "Lancet (dW only)",
            System::LancetPartitionOnly => "Lancet (partition only)",
        }
    }

    /// The full comparison set of paper Figs. 11–13.
    pub fn headline() -> [System; 4] {
        [System::DeepSpeed, System::Tutel, System::Raf, System::Lancet]
    }
}

impl std::fmt::Display for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Result of running one (system, model, cluster) combination.
#[derive(Debug)]
pub struct RunOutcome {
    /// Which system ran.
    pub system: System,
    /// Simulator measurement.
    pub report: SimReport,
    /// The compiler's predicted iteration time (Lancet variants only).
    pub predicted: Option<f64>,
    /// Optimization wall-clock time (Lancet variants only).
    pub opt_time: Option<Duration>,
    /// The overlap degree Tutel's search selected.
    pub tutel_degree: Option<usize>,
}

fn simulator(spec: &ClusterSpec, cfg: &GptMoeConfig, compute_overhead: f64, memory_overhead: f64) -> Simulator {
    let sim_cfg = SimConfig {
        capacity_factor: cfg.capacity_factor,
        seed: 0x1a5ce7 ^ cfg.gpus as u64,
        compute_overhead,
        memory_overhead,
        ..SimConfig::new(cfg.gpus)
    };
    Simulator::new(ComputeModel::new(spec.device.clone()), CommModel::new(spec.clone()), sim_cfg)
}

/// Builds, transforms, differentiates, and simulates one configuration.
///
/// # Errors
///
/// Propagates graph-construction and pass failures.
pub fn run_system(system: System, cfg: &GptMoeConfig, kind: ClusterKind) -> Result<RunOutcome> {
    let nodes = cfg.gpus.div_ceil(8).max(1);
    let spec = ClusterSpec::of(kind, nodes);
    let backward = BackwardOptions::default();
    let forward = build_forward(cfg)?.graph;

    match system {
        System::DeepSpeed => {
            let graph = deepspeed(forward, &backward)?;
            let sim = simulator(&spec, cfg, PYTORCH_COMPUTE_OVERHEAD, DEEPSPEED_MEMORY_OVERHEAD);
            Ok(RunOutcome {
                system,
                report: sim.simulate(&graph),
                predicted: None,
                opt_time: None,
                tutel_degree: None,
            })
        }
        System::Raf => {
            let graph = raf(forward, &backward)?;
            let sim = simulator(&spec, cfg, 1.0, DEFAULT_MEMORY_OVERHEAD);
            Ok(RunOutcome {
                system,
                report: sim.simulate(&graph),
                predicted: None,
                opt_time: None,
                tutel_degree: None,
            })
        }
        System::Tutel => {
            // Search the overlap degree as the paper does: run each and
            // keep the best iteration time.
            let sim = simulator(&spec, cfg, PYTORCH_COMPUTE_OVERHEAD, DEFAULT_MEMORY_OVERHEAD);
            let mut best: Option<(usize, SimReport)> = None;
            for (degree, fwd) in tutel_degree_graphs(&forward)? {
                let mut graph = fwd;
                lancet_ir::build_backward(&mut graph, &backward)?;
                let report = sim.simulate(&graph);
                let better = match &best {
                    Some((_, b)) => report.iteration_time < b.iteration_time,
                    None => true,
                };
                if better {
                    best = Some((degree, report));
                }
            }
            let (degree, report) = best.expect("at least one degree evaluated");
            Ok(RunOutcome { system, report, predicted: None, opt_time: None, tutel_degree: Some(degree) })
        }
        System::Lancet | System::LancetDwOnly | System::LancetPartitionOnly => {
            let options = LancetOptions {
                disable_dw_schedule: system == System::LancetPartitionOnly,
                disable_partition: system == System::LancetDwOnly,
                backward,
                ..LancetOptions::default()
            };
            let lancet = Lancet::new(spec.clone(), cfg.gpus, options);
            let outcome = lancet.optimize(forward)?;
            let sim = simulator(&spec, cfg, 1.0, DEFAULT_MEMORY_OVERHEAD);
            Ok(RunOutcome {
                system,
                report: sim.simulate(&outcome.graph),
                predicted: Some(outcome.predicted_time),
                opt_time: Some(outcome.optimization_time),
                tutel_degree: None,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lancet_ir::GateKind;

    fn cfg() -> GptMoeConfig {
        GptMoeConfig::gpt2_s_moe(16, GateKind::Switch).with_layers(4).with_batch(8)
    }

    #[test]
    fn all_systems_run() {
        for system in System::headline() {
            let out = run_system(system, &cfg(), ClusterKind::V100).unwrap();
            assert!(out.report.iteration_time > 0.0, "{system}");
        }
    }

    #[test]
    fn lancet_beats_all_baselines() {
        let lancet = run_system(System::Lancet, &cfg(), ClusterKind::V100).unwrap();
        for baseline in [System::DeepSpeed, System::Tutel, System::Raf] {
            let out = run_system(baseline, &cfg(), ClusterKind::V100).unwrap();
            assert!(
                lancet.report.iteration_time < out.report.iteration_time,
                "Lancet {} !< {} {}",
                lancet.report.iteration_time,
                baseline,
                out.report.iteration_time
            );
        }
    }

    #[test]
    fn tutel_beats_deepspeed_and_reports_degree() {
        let tutel = run_system(System::Tutel, &cfg(), ClusterKind::V100).unwrap();
        let ds = run_system(System::DeepSpeed, &cfg(), ClusterKind::V100).unwrap();
        assert!(tutel.report.iteration_time < ds.report.iteration_time);
        assert!(tutel.tutel_degree.is_some());
    }

    #[test]
    fn ablations_bracket_full_lancet() {
        let full = run_system(System::Lancet, &cfg(), ClusterKind::V100).unwrap();
        let dw = run_system(System::LancetDwOnly, &cfg(), ClusterKind::V100).unwrap();
        let part = run_system(System::LancetPartitionOnly, &cfg(), ClusterKind::V100).unwrap();
        let raf = run_system(System::Raf, &cfg(), ClusterKind::V100).unwrap();
        assert!(full.report.iteration_time <= dw.report.iteration_time + 1e-9);
        assert!(full.report.iteration_time <= part.report.iteration_time + 1e-9);
        assert!(dw.report.iteration_time < raf.report.iteration_time);
        assert!(part.report.iteration_time < raf.report.iteration_time);
    }

    #[test]
    fn lancet_reduces_exposed_communication() {
        let lancet = run_system(System::Lancet, &cfg(), ClusterKind::V100).unwrap();
        let raf = run_system(System::Raf, &cfg(), ClusterKind::V100).unwrap();
        assert!(
            lancet.report.exposed_comm() < raf.report.exposed_comm(),
            "exposed comm {} !< {}",
            lancet.report.exposed_comm(),
            raf.report.exposed_comm()
        );
    }
}
