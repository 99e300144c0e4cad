//! Op-level replay: interprets an executed graph one instruction at a
//! time through the program's public kernels (`lancet_exec::eval_op_packed`)
//! and collectives (`lancet_moe`), timing each instruction as a span tagged
//! with its `Role` and op class. The replay must reproduce
//! `Executor::run` bit for bit; [`bit_identical`] checks that.

use std::time::Instant;

use lancet_exec::{eval_op_packed, Bindings};
use lancet_ir::{Graph, Instr, Op, Role};
use lancet_moe::DispatchedChunk;
use lancet_tensor::Tensor;

use crate::trace::Tracer;

/// What an instruction spends its time on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// Dense and batched matrix products (forward and gradient).
    Gemm,
    /// Attention scores, context, and their softmax.
    Attention,
    /// MoE gating (router matmul + softmax + top-k) and its gradients.
    Gate,
    /// Token dispatch/gather into and out of expert buffers.
    Dispatch,
    /// Uniform and irregular all-to-all.
    AllToAll,
    /// Gradient all-reduce.
    AllReduce,
    /// Other collectives (all-gather, reduce-scatter).
    OtherComm,
    /// The cross-entropy loss head and its gradient.
    Loss,
    /// Parameter updates.
    Optimizer,
    /// Everything else: element-wise, normalization, embedding, layout.
    Elementwise,
}

impl OpClass {
    /// Every class, in report order.
    pub const ALL: [OpClass; 10] = [
        OpClass::Gemm,
        OpClass::Attention,
        OpClass::Gate,
        OpClass::Dispatch,
        OpClass::AllToAll,
        OpClass::AllReduce,
        OpClass::OtherComm,
        OpClass::Loss,
        OpClass::Optimizer,
        OpClass::Elementwise,
    ];

    /// Short name used as the span category.
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Gemm => "gemm",
            OpClass::Attention => "attention",
            OpClass::Gate => "gate",
            OpClass::Dispatch => "dispatch",
            OpClass::AllToAll => "a2a",
            OpClass::AllReduce => "allreduce",
            OpClass::OtherComm => "comm-other",
            OpClass::Loss => "loss",
            OpClass::Optimizer => "optimizer",
            OpClass::Elementwise => "elementwise",
        }
    }

    fn index(self) -> usize {
        OpClass::ALL.iter().position(|&c| c == self).expect("listed")
    }
}

/// Classifies an op.
pub fn classify(op: &Op) -> OpClass {
    match op {
        Op::MatMul { .. } | Op::MatMulDw | Op::BatchedMatMul { .. } | Op::BatchedMatMulDw => OpClass::Gemm,
        Op::AttnScores { .. }
        | Op::AttnScoresGradQ { .. }
        | Op::AttnScoresGradK { .. }
        | Op::AttnContext { .. }
        | Op::AttnContextGradP { .. }
        | Op::AttnContextGradV { .. }
        | Op::Softmax
        | Op::SoftmaxGrad => OpClass::Attention,
        Op::Gate { .. } | Op::GateChunk { .. } | Op::GateGradX { .. } | Op::GateGradW { .. } => OpClass::Gate,
        Op::MoeDispatch { .. }
        | Op::MoeDispatchGrad { .. }
        | Op::MoeGather { .. }
        | Op::MoeGatherGradBuf { .. }
        | Op::MoeGatherGradScale { .. }
        | Op::MoeDispatchIrr { .. }
        | Op::MoeDispatchIrrGrad { .. }
        | Op::MoeGatherIrr { .. }
        | Op::MoeGatherIrrGradBuf { .. }
        | Op::ExpertsLayout { .. }
        | Op::ExpertsLayoutInv { .. } => OpClass::Dispatch,
        Op::AllToAll | Op::AllToAllIrr => OpClass::AllToAll,
        Op::AllReduce => OpClass::AllReduce,
        Op::AllGather { .. } | Op::ReduceScatter { .. } => OpClass::OtherComm,
        Op::CrossEntropy | Op::CrossEntropyGrad => OpClass::Loss,
        Op::SgdUpdate { .. } | Op::SgdMomentumUpdate { .. } | Op::AdamUpdate { .. } => OpClass::Optimizer,
        _ => OpClass::Elementwise,
    }
}

/// Floating-point operations of one matrix-product evaluation on one
/// device (2·M·N·K), from its input shapes; 0 for other ops.
pub fn gemm_flops(op: &Op, ins: &[&[usize]]) -> f64 {
    let vol = |s: &[usize]| s.iter().product::<usize>() as f64;
    let last = |s: &[usize]| *s.last().unwrap_or(&1) as f64;
    match op {
        Op::MatMul { transpose_b } => {
            let (x, w) = (ins[0], ins[1]);
            let k = last(x);
            let n = if *transpose_b { w[0] as f64 } else { last(w) };
            2.0 * (vol(x) / k) * k * n
        }
        // (R,K)^T (R,N): R·K·N multiply-adds.
        Op::MatMulDw => 2.0 * vol(ins[0]) * last(ins[1]),
        Op::BatchedMatMul { transpose_b } => {
            let (x, w) = (ins[0], ins[1]);
            let n = if *transpose_b { w[1] as f64 } else { last(w) };
            2.0 * vol(x) * n
        }
        Op::BatchedMatMulDw => 2.0 * vol(ins[0]) * last(ins[1]),
        _ => 0.0,
    }
}

/// Role index in [`ReplayStats::role_ms`].
fn role_index(role: Role) -> usize {
    match role {
        Role::Forward => 0,
        Role::ActGrad => 1,
        Role::WeightGrad => 2,
        Role::Comm => 3,
        Role::Optimizer => 4,
    }
}

/// Aggregates of one replay.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplayStats {
    /// Time per `Role`: forward, dX, dW, comm, optimizer (ms).
    pub role_ms: [f64; 5],
    /// Time per [`OpClass`], indexed like [`OpClass::ALL`] (ms).
    pub class_ms: [f64; 10],
    /// Sum of every instruction's span (ms).
    pub op_ms: f64,
    /// Matrix-product work over all devices (flop).
    pub gemm_flop: f64,
    /// Bytes entering all-to-alls, summed over devices.
    pub a2a_bytes: f64,
    /// Bytes entering all-reduces, summed over devices.
    pub allreduce_bytes: f64,
}

impl ReplayStats {
    /// Time spent in one op class (ms).
    pub fn class(&self, c: OpClass) -> f64 {
        self.class_ms[c.index()]
    }

    /// Time spent in one role (ms).
    pub fn role(&self, r: Role) -> f64 {
        self.role_ms[role_index(r)]
    }
}

fn bound<'b>(b: &'b Bindings, graph: &Graph, d: usize, t: lancet_ir::TensorId) -> Result<&'b Tensor, String> {
    b.get(d, t).ok_or_else(|| format!("replay: `{}` unbound on device {d}", graph.tensor(t).name))
}

fn bytes(t: &Tensor) -> f64 {
    (t.volume() * std::mem::size_of::<f32>()) as f64
}

/// Replays `graph` over `bindings` on `devices` devices, recording one
/// span per instruction on `tracer`, and returns the extended bindings.
///
/// # Errors
///
/// Describes the first instruction that fails.
pub fn replay(
    graph: &Graph,
    mut b: Bindings,
    devices: usize,
    tracer: &Tracer,
) -> Result<(Bindings, ReplayStats), String> {
    let mut stats = ReplayStats::default();
    for (pos, instr) in graph.instrs().iter().enumerate() {
        let class = classify(&instr.op);
        let started = Instant::now();
        if instr.op.is_comm() {
            collective(graph, instr, &mut b, devices, &mut stats)?;
        } else {
            for d in 0..devices {
                let outs = {
                    let ins: Vec<&Tensor> =
                        instr.inputs.iter().map(|&t| bound(&b, graph, d, t)).collect::<Result<_, _>>()?;
                    let packed = match &instr.op {
                        Op::MatMul { .. }
                        | Op::BatchedMatMul { .. }
                        | Op::Gate { .. }
                        | Op::GateChunk { .. } => instr.inputs.get(1).and_then(|&t| b.packed(d, t)),
                        _ => None,
                    };
                    if class == OpClass::Gemm {
                        let shapes: Vec<&[usize]> = ins.iter().map(|t| t.shape()).collect();
                        stats.gemm_flop += gemm_flops(&instr.op, &shapes);
                    }
                    eval_op_packed(&instr.op, &ins, packed).map_err(|e| format!("replay #{pos}: {e}"))?
                };
                for (&t, v) in instr.outputs.iter().zip(outs) {
                    b.set(d, t, v);
                }
            }
        }
        let ended = Instant::now();
        let ms = ended.duration_since(started).as_secs_f64() * 1e3;
        stats.role_ms[role_index(instr.role)] += ms;
        stats.class_ms[class.index()] += ms;
        stats.op_ms += ms;
        tracer.record(
            instr.op.name(),
            class.name(),
            started,
            ended,
            vec![("role".into(), format!("{:?}", instr.role)), ("position".into(), pos.to_string())],
        );
    }
    Ok((b, stats))
}

fn collective(
    graph: &Graph,
    instr: &Instr,
    b: &mut Bindings,
    devices: usize,
    stats: &mut ReplayStats,
) -> Result<(), String> {
    let gather = |t, b: &Bindings| -> Result<Vec<Tensor>, String> {
        (0..devices).map(|d| bound(b, graph, d, t).cloned()).collect()
    };
    let moe = |e: lancet_moe::MoeError| format!("replay {}: {e}", instr.op.name());
    match &instr.op {
        Op::AllToAll => {
            let bufs = gather(instr.inputs[0], b)?;
            stats.a2a_bytes += bufs.iter().map(bytes).sum::<f64>();
            for (d, v) in lancet_moe::all_to_all_uniform(&bufs).map_err(moe)?.into_iter().enumerate() {
                b.set(d, instr.outputs[0], v);
            }
        }
        Op::AllToAllIrr => {
            let bufs = gather(instr.inputs[0], b)?;
            let counts = gather(instr.inputs[1], b)?;
            stats.a2a_bytes += bufs.iter().map(bytes).sum::<f64>();
            let chunks: Vec<DispatchedChunk> = bufs
                .into_iter()
                .zip(counts)
                .map(|(buf, c)| DispatchedChunk { buf, counts: c.data().iter().map(|&x| x as u32).collect() })
                .collect();
            let (out, _) = lancet_moe::all_to_all_irregular(&chunks).map_err(moe)?;
            for (d, chunk) in out.into_iter().enumerate() {
                let counts = Tensor::from_vec(
                    vec![chunk.counts.len()],
                    chunk.counts.iter().map(|&c| c as f32).collect(),
                )
                .map_err(|e| e.to_string())?;
                b.set(d, instr.outputs[0], chunk.buf);
                b.set(d, instr.outputs[1], counts);
            }
        }
        Op::AllReduce => {
            let vals = gather(instr.inputs[0], b)?;
            stats.allreduce_bytes += vals.iter().map(bytes).sum::<f64>();
            for (d, v) in lancet_moe::all_reduce_sum(&vals).map_err(moe)?.into_iter().enumerate() {
                b.set(d, instr.outputs[0], v);
            }
        }
        other => return Err(format!("replay does not implement collective {other}")),
    }
    Ok(())
}

/// Checks that `a` and `b` bind bit-identical values (same shapes, same
/// f32 bit patterns) for every tensor of `graph` on every device.
///
/// # Errors
///
/// Names the first tensor that differs.
pub fn bit_identical(graph: &Graph, a: &Bindings, b: &Bindings, devices: usize) -> Result<(), String> {
    for t in graph.tensors() {
        for d in 0..devices {
            match (a.get(d, t.id), b.get(d, t.id)) {
                (None, None) => {}
                (Some(x), Some(y)) if x.shape() == y.shape() && same_bits(x.data(), y.data()) => {}
                _ => return Err(format!("tensor `{}` differs on device {d}", t.name)),
            }
        }
    }
    Ok(())
}

/// Whether two slices hold the same f32 bit patterns.
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Bytes bound for `graph`'s tensors across devices, from tensor sizes
/// (a value shared by several devices counts once per device).
pub fn live_bytes(graph: &Graph, b: &Bindings, devices: usize) -> f64 {
    graph.tensors().iter().map(|t| (0..devices).filter_map(|d| b.get(d, t.id)).map(bytes).sum::<f64>()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lancet_exec::Executor;
    use lancet_ir::GateKind;
    use lancet_models::{build_forward, GptMoeConfig};

    fn tiny_bound() -> (Graph, Bindings) {
        let cfg = GptMoeConfig::tiny(2, GateKind::Switch);
        let g = build_forward(&cfg).unwrap().graph;
        let mut b = lancet_exec::init_weights(&g, 2, 3);
        for t in g.inputs() {
            let n = g.tensor(t).shape.volume();
            let v =
                Tensor::from_vec(g.tensor(t).shape.dims().to_vec(), (0..n).map(|i| (i % 5) as f32).collect())
                    .unwrap();
            b.set_all(t, v);
        }
        (g, b)
    }

    #[test]
    fn replay_matches_executor_bit_for_bit() {
        let (g, b) = tiny_bound();
        let ran = Executor::new(&g, 2).unwrap().run(b.clone()).unwrap();
        let tracer = Tracer::new(true);
        let (replayed, stats) = replay(&g, b, 2, &tracer).unwrap();
        bit_identical(&g, &ran, &replayed, 2).unwrap();
        assert_eq!(tracer.spans().len(), g.instrs().len());
        assert!(stats.gemm_flop > 0.0 && stats.a2a_bytes > 0.0);
        assert!((stats.role_ms.iter().sum::<f64>() - stats.op_ms).abs() < 1e-9);
    }

    #[test]
    fn a_corrupted_value_is_detected() {
        let (g, b) = tiny_bound();
        let ran = Executor::new(&g, 2).unwrap().run(b.clone()).unwrap();
        let mut bad = ran.clone();
        let loss = g.instrs().iter().find(|i| matches!(i.op, Op::CrossEntropy)).unwrap().outputs[0];
        let mut v = ran.get(1, loss).unwrap().clone();
        v.data_mut()[0] = f32::from_bits(v.data()[0].to_bits() ^ 1);
        bad.set(1, loss, v);
        assert!(bit_identical(&g, &ran, &bad, 2).is_err());
    }

    #[test]
    fn gemm_flops_from_shapes() {
        let mm = Op::MatMul { transpose_b: false };
        assert_eq!(gemm_flops(&mm, &[&[2, 3, 4], &[4, 5]]), 2.0 * 6.0 * 4.0 * 5.0);
        let mmt = Op::MatMul { transpose_b: true };
        assert_eq!(gemm_flops(&mmt, &[&[6, 4], &[5, 4]]), 2.0 * 6.0 * 4.0 * 5.0);
        assert_eq!(gemm_flops(&Op::MatMulDw, &[&[6, 4], &[6, 5]]), 2.0 * 6.0 * 4.0 * 5.0);
        assert_eq!(
            gemm_flops(&Op::BatchedMatMul { transpose_b: false }, &[&[2, 3, 4], &[2, 4, 5]]),
            2.0 * 2.0 * 3.0 * 4.0 * 5.0
        );
        assert_eq!(gemm_flops(&Op::Relu, &[&[4]]), 0.0);
    }
}
