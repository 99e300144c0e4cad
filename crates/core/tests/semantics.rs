//! End-to-end semantics preservation: a full Lancet optimization
//! (partition pass → autodiff → dW scheduling) must leave training
//! mathematics untouched. We execute the optimized and unoptimized
//! training graphs of a tiny GPT-MoE on the numerical executor with
//! identical (name-keyed) weights and inputs, then compare the loss
//! (bit-exact: the pipelined forward computes identical values) and the
//! SGD-updated weights (tolerance: gradient accumulation order differs).

use lancet_core::{Lancet, LancetOptions, PartitionOptions};
use lancet_cost::ClusterSpec;
use lancet_exec::{Bindings, Executor};
use lancet_ir::{BackwardOptions, GateKind, Graph, Op, TensorId, TensorKind};
use lancet_models::{build_forward, GptMoeConfig};
use lancet_tensor::{Tensor, TensorRng};
use std::collections::HashMap;

fn name_seed(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
    })
}

/// Binds weights deterministically by *name* (stable across graph
/// rewrites that renumber tensor ids) and inputs per device.
fn bind(graph: &Graph, devices: usize) -> Bindings {
    let mut b = Bindings::new(devices);
    for t in graph.tensors() {
        match t.kind {
            TensorKind::Weight => {
                let fan_in = if t.shape.rank() >= 2 { t.shape.dim(t.shape.rank() - 2) } else { 4 };
                let std = 1.0 / (fan_in as f32).sqrt();
                if t.name.contains("expert") {
                    for d in 0..devices {
                        let mut rng = TensorRng::seed(name_seed(&t.name) ^ (d as u64 + 1));
                        b.set(d, t.id, rng.normal(t.shape.clone(), std));
                    }
                } else {
                    let mut rng = TensorRng::seed(name_seed(&t.name));
                    b.set_all(t.id, rng.normal(t.shape.clone(), std));
                }
            }
            TensorKind::Input => {
                for d in 0..devices {
                    let mut rng = TensorRng::seed(name_seed(&t.name) ^ (0x9000 + d as u64));
                    let vals: Vec<f32> =
                        (0..t.shape.volume()).map(|_| (rng.below(7)) as f32).collect();
                    b.set(d, t.id, Tensor::from_vec(t.shape.clone(), vals).unwrap());
                }
            }
            _ => {}
        }
    }
    b
}

/// Runs a training graph and returns (loss per device, updated weight per
/// (name, device)).
fn run(graph: &Graph, devices: usize) -> (Vec<f32>, HashMap<(String, usize), Tensor>) {
    let bindings = bind(graph, devices);
    let out = Executor::new(graph, devices).unwrap().run(bindings).unwrap();
    let loss_tensor: TensorId = graph
        .instrs()
        .iter()
        .find(|i| matches!(i.op, Op::CrossEntropy))
        .map(|i| i.outputs[0])
        .unwrap();
    let losses: Vec<f32> = (0..devices)
        .map(|d| out.get(d, loss_tensor).unwrap().data()[0])
        .collect();
    let mut updated = HashMap::new();
    for instr in graph.instrs() {
        if matches!(instr.op, Op::SgdUpdate { .. }) {
            let wname = graph.tensor(instr.inputs[0]).name.clone();
            for d in 0..devices {
                updated.insert((wname.clone(), d), out.get(d, instr.outputs[0]).unwrap().clone());
            }
        }
    }
    (losses, updated)
}

fn options() -> LancetOptions {
    LancetOptions {
        partition: PartitionOptions {
            max_partitions: 2,
            groups_per_gap: 3,
            max_range_groups: 24,
            ..Default::default()
        },
        backward: BackwardOptions { sgd_lr: Some(0.05), optimizer: Default::default(), allreduce_grads: false },
        ..LancetOptions::default()
    }
}

/// Builds the optimized training graph with the MoE pipeline *forcibly*
/// partitioned (at toy scale the DP would rightly decline — partition
/// overhead exceeds the benefit — but the semantics test must exercise
/// the transformed pipeline), plus the unoptimized baseline.
fn optimized_and_baseline(gate: GateKind, gpus: usize) -> (Graph, Graph) {
    use lancet_core::{apply_partitions, infer_axes, schedule_weight_gradients, PartitionSpec};
    use lancet_ir::build_backward;

    let cfg = GptMoeConfig::tiny(gpus, gate);
    let fwd = build_forward(&cfg).unwrap().graph;

    // Locate the MoE pipeline: gate (or dispatch, for BPR) … gather.
    let start_op = |i: &lancet_ir::Instr| match gate {
        GateKind::BatchPrioritized => matches!(i.op, Op::MoeDispatch { .. }),
        _ => matches!(i.op, Op::Gate { .. }),
    };
    let start = fwd.instrs().iter().position(start_op).unwrap();
    let end = fwd
        .instrs()
        .iter()
        .position(|i| matches!(i.op, Op::MoeGather { .. }))
        .unwrap()
        + 1;
    let axes = infer_axes(&fwd, start..end).expect("MoE pipeline must be partitionable");
    let spec = PartitionSpec { range: start..end, parts: 2, axes };
    let mut opt = apply_partitions(&fwd, &[spec]).unwrap();
    let backward = BackwardOptions { sgd_lr: Some(0.05), optimizer: Default::default(), allreduce_grads: false };
    build_backward(&mut opt, &backward).unwrap();
    let lancet = Lancet::new(ClusterSpec::v100(1), gpus, options());
    schedule_weight_gradients(&mut opt, lancet.estimator()).unwrap();

    let mut base = fwd;
    build_backward(&mut base, &backward).unwrap();
    (opt, base)
}

#[test]
fn optimized_training_graph_preserves_loss_and_updates_switch() {
    let (opt, base) = optimized_and_baseline(GateKind::Switch, 2);
    let (loss_opt, w_opt) = run(&opt, 2);
    let (loss_base, w_base) = run(&base, 2);
    assert_eq!(loss_opt, loss_base, "forward loss must be bit-identical");
    assert_eq!(w_opt.len(), w_base.len());
    for (key, a) in &w_opt {
        let b = &w_base[key];
        assert!(
            a.allclose_with(b, 1e-4, 1e-3),
            "updated weight {key:?} differs: max diff {:?}",
            a.max_abs_diff(b)
        );
    }
}

#[test]
fn optimized_training_graph_preserves_loss_and_updates_bpr() {
    let (opt, base) = optimized_and_baseline(GateKind::BatchPrioritized, 2);
    let (loss_opt, w_opt) = run(&opt, 2);
    let (loss_base, w_base) = run(&base, 2);
    assert_eq!(loss_opt, loss_base);
    for (key, a) in &w_opt {
        assert!(a.allclose_with(&w_base[key], 1e-4, 1e-3), "weight {key:?} differs");
    }
}

#[test]
fn optimized_training_graph_preserves_loss_and_updates_topk() {
    // GShard-style top-2 routing through the full optimization pipeline.
    let (opt, base) = optimized_and_baseline(GateKind::TopK { k: 2 }, 2);
    let (loss_opt, w_opt) = run(&opt, 2);
    let (loss_base, w_base) = run(&base, 2);
    assert_eq!(loss_opt, loss_base, "top-2 forward loss must be bit-identical");
    for (key, a) in &w_opt {
        assert!(a.allclose_with(&w_base[key], 1e-4, 1e-3), "weight {key:?} differs");
    }
}

#[test]
fn dw_schedule_alone_is_bit_exact() {
    // Pure reordering cannot change any numerics at all.
    let cfg = GptMoeConfig::tiny(2, GateKind::Switch);
    let fwd = build_forward(&cfg).unwrap().graph;
    let mut opts = options();
    opts.disable_partition = true;
    let lancet = Lancet::new(ClusterSpec::v100(1), 2, opts);
    let opt = lancet.optimize(fwd.clone()).unwrap();
    let base = lancet.baseline(fwd).unwrap();
    let (loss_opt, w_opt) = run(&opt.graph, 2);
    let (loss_base, w_base) = run(&base.graph, 2);
    assert_eq!(loss_opt, loss_base);
    for (key, a) in &w_opt {
        assert_eq!(a, &w_base[key], "reordering changed weight {key:?}");
    }
}

#[test]
fn partitioning_actually_happened() {
    // Guard against the semantics tests passing vacuously: the optimized
    // graph must really contain the pipelined (irregular) MoE layer, and
    // its backward must contain the irregular all-to-all adjoints.
    let (opt, _) = optimized_and_baseline(GateKind::Switch, 2);
    let n_irr = opt.instrs().iter().filter(|i| matches!(i.op, Op::AllToAllIrr)).count();
    // 2 chunks × 2 forward a2as + their backward adjoints = 8.
    assert_eq!(n_irr, 8, "expected fully partitioned forward+backward");
    assert!(opt.instrs().iter().any(|i| matches!(i.op, Op::GateChunk { .. })));
}
