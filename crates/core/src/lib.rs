//! The Lancet compiler passes — the paper's primary contribution.
//!
//! Two optimization passes transform a training-iteration graph so that
//! all-to-all communication overlaps with computation across the *whole*
//! training graph:
//!
//! * [`schedule_weight_gradients`] (paper §4) reorders backward-pass
//!   weight-gradient (dW) instructions to execute while all-to-alls are in
//!   flight, using dependency labelling plus a best-fit greedy assignment
//!   (paper Alg. 1).
//! * [`partition_pass`] (paper §5) partitions forward-pass operators —
//!   including non-MoE computation — into a computation-communication
//!   pipeline: a dynamic program selects the optimal partition ranges and
//!   counts (§5.1), a constraint solver infers per-tensor partition axes
//!   (§5.2), and a pipeline scheduler prices each candidate (§5.3).
//!
//! The [`Lancet`] facade runs the whole flow. One deviation from the
//! paper's pass ordering (documented in DESIGN.md): we partition the
//! *forward* graph first and then differentiate it, so the backward pass
//! of a partitioned layer is generated consistently by autodiff — which
//! both preserves numerical equivalence (verified by executor tests) and
//! makes the partitioned backward all-to-alls schedulable by the dW pass.
//!
//! # Example
//!
//! ```no_run
//! use lancet_core::{Lancet, LancetOptions};
//! use lancet_cost::ClusterSpec;
//! use lancet_ir::GateKind;
//! use lancet_models::{build_forward, GptMoeConfig};
//!
//! let cfg = GptMoeConfig::gpt2_s_moe(16, GateKind::Switch);
//! let model = build_forward(&cfg)?;
//! let lancet = Lancet::new(ClusterSpec::a100(2), 16, LancetOptions::default());
//! let optimized = lancet.optimize(model.graph)?;
//! println!("predicted iteration time: {:.1} ms", optimized.predicted_time * 1e3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod dw;
mod estimate;
mod lancet;
mod partition;
mod prefetch;
mod recompute;

pub use dw::{schedule_weight_gradients, DwScheduleReport};
pub use estimate::{EstimateReport, TimeEstimator};
pub use lancet::{
    Lancet, LancetOptions, OptimizeOutcome, OptimizerStats, PlacementOutcome, PlacementSearch,
};
pub use prefetch::{prefetch_allgathers, PrefetchReport};
pub use recompute::{recompute_segments, RecomputeReport};
pub use partition::{
    apply_partitions, infer_axes, partition_pass, partition_pass_with, AxisSolution, PartAxis,
    PartitionMemo, PartitionOptions, PartitionReport, PartitionSpec,
};
