//! The four workloads. Each sets up, measures for the requested time,
//! checks its outputs, and (in a traced run) attributes time to layers.

pub mod decode;
pub mod plan;
pub mod serve;
pub mod train;

use std::time::{Duration, Instant};

use lancet_core::OptimizeOutcome;
use lancet_ir::Role;

use crate::metrics::Outcome;
use crate::replay::{OpClass, ReplayStats};
use crate::trace::Tracer;

/// Set-up is repeated this many times per run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// What a workload gets from the command line.
#[derive(Debug)]
pub struct Ctx {
    /// Seed for every generated input.
    pub seed: u64,
    /// Measurement time, seconds.
    pub seconds: f64,
    /// A traced run: the timed phase is split into an untraced half and
    /// a traced half, and per-layer attribution runs afterwards.
    pub trace: bool,
    /// Span recorder (disabled outside the traced half and set-up of a
    /// traced run).
    pub tracer: Tracer,
}

impl Ctx {
    /// A context; the tracer starts enabled in traced runs so set-up
    /// calls are attributed.
    pub fn new(seed: u64, seconds: f64, trace: bool) -> Self {
        Ctx { seed, seconds, trace, tracer: Tracer::new(trace) }
    }

    /// The timed phases as `(traced, seconds)`.
    pub fn phases(&self) -> Vec<(bool, f64)> {
        if self.trace {
            vec![(false, self.seconds / 2.0), (true, self.seconds / 2.0)]
        } else {
            vec![(false, self.seconds)]
        }
    }
}

/// Runs one workload by name.
///
/// # Errors
///
/// An unknown workload name, or a failure that stopped the run.
pub fn run(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match name {
        "train-step" => train::run(ctx),
        "plan-paper" => plan::run(ctx),
        "serve-open" => serve::run(ctx),
        "decode-stream" => decode::run(ctx),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["train-step", "plan-paper", "serve-open", "decode-stream"];

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Repeats `op` until `seconds` have passed and at least `min` calls
/// ran; returns each call's duration (ms).
pub fn timed<E>(seconds: f64, min: usize, mut op: impl FnMut() -> Result<(), E>) -> Result<Vec<f64>, E> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut out = Vec::new();
    while out.len() < min || Instant::now() < deadline {
        let t = Instant::now();
        op()?;
        out.push(ms_since(t));
    }
    Ok(out)
}

/// The seeded 64-bit mix used to derive per-purpose seeds.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `core.*` values an `OptimizeOutcome` reports.
pub fn core_layers(opt: &OptimizeOutcome, o: &mut Outcome) {
    o.layer("core.optimize_ms", opt.optimization_time.as_secs_f64() * 1e3);
    o.layer("core.partition_ms", opt.stats.partition_time.as_secs_f64() * 1e3);
    o.layer("core.partition_evaluated", opt.stats.candidates_evaluated as f64);
    o.layer("core.partition_memo_hit_frac", opt.stats.cache_ratio());
    o.layer("core.backward_ms", opt.stats.backward_time.as_secs_f64() * 1e3);
    o.layer("core.dw_ms", opt.stats.dw_time.as_secs_f64() * 1e3);
    o.layer("core.partition_ranges", opt.partition.as_ref().map_or(0, |r| r.ranges.len()) as f64);
    o.layer("core.dw_overlap_frac", opt.dw.as_ref().map_or(0.0, |d| d.overlap_fraction()));
    o.layer("core.plan_instrs", opt.graph.instrs().len() as f64);
}

/// The `exec.*`, `tensor.*` and `moe.*` values of one replay.
pub fn exec_layers(s: &ReplayStats, o: &mut Outcome) {
    o.layer("exec.forward_ms", s.role(Role::Forward));
    o.layer("exec.dx_ms", s.role(Role::ActGrad));
    o.layer("exec.dw_ms", s.role(Role::WeightGrad));
    o.layer("exec.comm_ms", s.role(Role::Comm));
    o.layer("exec.optimizer_ms", s.role(Role::Optimizer));
    o.layer("exec.loss_head_ms", s.class(OpClass::Loss));
    o.layer("tensor.gemm_ms", s.class(OpClass::Gemm));
    o.layer("tensor.gemm_gflop", s.gemm_flop / 1e9);
    o.layer("tensor.attention_ms", s.class(OpClass::Attention));
    o.layer("tensor.elementwise_ms", s.class(OpClass::Elementwise));
    o.layer("moe.gate_ms", s.class(OpClass::Gate));
    o.layer("moe.dispatch_ms", s.class(OpClass::Dispatch));
    o.layer("moe.a2a_ms", s.class(OpClass::AllToAll));
    o.layer("moe.a2a_mb", s.a2a_bytes / 1e6);
    o.layer("moe.allreduce_ms", s.class(OpClass::AllReduce));
    o.layer("moe.allreduce_mb", s.allreduce_bytes / 1e6);
}
