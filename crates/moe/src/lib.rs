//! Mixture-of-Experts data plane for the Lancet reproduction.
//!
//! Everything in this crate operates on *actual data*: token routing with
//! expert capacity and token dropping, dispatch/gather between token order
//! and expert buffers, and the two-phase irregular all-to-all of paper
//! Fig. 10. It is the ground truth against which the compiler passes'
//! mathematical-equivalence claims are tested.
//!
//! The centerpiece is **capacity-passing partitioned gating** (paper
//! Fig. 5c): [`route`] accepts an optional [`CapacityState`] so that a
//! batch split into micro-batches drops *exactly* the tokens the
//! unpartitioned gate would drop — unlike direct micro-batching
//! (paper Fig. 5b), which this crate also implements for comparison.
//!
//! # Example
//!
//! ```
//! use lancet_moe::{expert_capacity, route, CapacityState, Routing};
//! use lancet_ir::GateKind;
//! use lancet_tensor::TensorRng;
//!
//! let mut rng = TensorRng::seed(0);
//! let logits = rng.uniform(vec![16, 4], -1.0, 1.0); // 16 tokens, 4 experts
//! let cap = expert_capacity(16, 4, 1.25);
//!
//! // Unpartitioned routing …
//! let full = route(GateKind::Switch, &logits, cap, None)?;
//!
//! // … equals chunked routing with capacity passing.
//! let mut state = CapacityState::new(4);
//! let first = route(GateKind::Switch, &logits.slice_axis(0, 0, 8)?, cap, Some(&mut state))?;
//! let second = route(GateKind::Switch, &logits.slice_axis(0, 8, 16)?, cap, Some(&mut state))?;
//! assert_eq!(full, Routing::concat(&[first, second]));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod alltoall;
mod capacity;
mod dispatch;
mod error;
mod histogram;
mod routing;
mod workload;

pub use alltoall::{
    all_reduce_sum, all_to_all_hierarchical, all_to_all_irregular, all_to_all_uniform, reduce_sum,
    HierarchicalStats, IrregularStats,
};
pub use capacity::{expert_capacity, CapacityState};
pub use dispatch::{
    dispatch_dense, dispatch_irregular, gather_dense, gather_irregular, DispatchedChunk,
};
pub use error::MoeError;
pub use histogram::RoutingHistogram;
pub use routing::{route, route_direct_microbatch, Routing};
pub use workload::Workload;

/// Result alias for fallible MoE data-plane operations.
pub type Result<T> = std::result::Result<T, MoeError>;
