//! The fused optimizer kernels and the zero-copy all-reduce are pure
//! implementation changes: SGD and SGD-with-momentum must reproduce the
//! unfused `sub(scale(..))` chains bit for bit, and the executor's
//! all-reduce must produce `lancet_moe::all_reduce_sum`'s values while
//! binding one shared buffer on every device.

use lancet_exec::{eval_op, Bindings, Executor};
use lancet_ir::{Graph, Op, Role};
use lancet_tensor::{Tensor, TensorRng};

fn same_bits(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape() && a.data().iter().zip(b.data()).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Operands with a wide dynamic range, so a changed rounding would show.
fn operand(len: usize, seed: u64) -> Tensor {
    let mut t = TensorRng::seed(seed).uniform(vec![len], -3.0, 3.0);
    for (i, x) in t.data_mut().iter_mut().enumerate() {
        *x *= [1.0, 1e-4, 1e4, 0.3][i % 4];
    }
    t
}

// Below and above the elementwise kernels' parallel threshold.
const LENS: [usize; 3] = [1, 37, 40_000];

#[test]
fn fused_sgd_matches_sub_of_scale_bit_for_bit() {
    for len in LENS {
        for lr in [0.1f32, 3e-4, 1.7] {
            let (w, dw) = (operand(len, 1), operand(len, 2));
            let fused = eval_op(&Op::SgdUpdate { lr }, &[&w, &dw]).unwrap();
            let unfused = w.sub(&dw.scale(lr)).unwrap();
            assert!(same_bits(&fused[0], &unfused), "len {len} lr {lr}");
        }
    }
}

#[test]
fn fused_momentum_matches_sub_of_scale_bit_for_bit() {
    for len in LENS {
        for (lr, momentum) in [(0.1f32, 0.9f32), (3e-4, 0.99), (1.7, 0.5)] {
            let (w, dw, vel) = (operand(len, 3), operand(len, 4), operand(len, 5));
            let fused = eval_op(&Op::SgdMomentumUpdate { lr, momentum }, &[&w, &dw, &vel]).unwrap();
            let vel_next = vel.scale(momentum).add(&dw).unwrap();
            let w_next = w.sub(&vel_next.scale(lr)).unwrap();
            assert!(same_bits(&fused[0], &w_next), "weight: len {len} lr {lr} momentum {momentum}");
            assert!(same_bits(&fused[1], &vel_next), "velocity: len {len} lr {lr} momentum {momentum}");
        }
    }
}

/// `x` bound per device, then all-reduced.
fn all_reduce_graph() -> (Graph, lancet_ir::TensorId, lancet_ir::TensorId) {
    let mut g = Graph::new();
    let x = g.input("x", vec![6, 7]);
    let y = g.emit(Op::AllReduce, &[x], Role::Comm).unwrap();
    (g, x, y)
}

#[test]
fn executor_all_reduce_matches_all_reduce_sum() {
    for devices in [1, 2, 3, 4] {
        let (g, x, y) = all_reduce_graph();
        let mut b = Bindings::new(devices);
        let vals: Vec<Tensor> = (0..devices).map(|d| operand(42, 10 + d as u64).reshape(vec![6, 7]).unwrap()).collect();
        for (d, v) in vals.iter().enumerate() {
            b.set(d, x, v.clone());
        }
        let out = Executor::new(&g, devices).unwrap().run(b).unwrap();
        let expected = lancet_moe::all_reduce_sum(&vals).unwrap();
        for (d, e) in expected.iter().enumerate() {
            assert!(same_bits(out.get(d, y).unwrap(), e), "devices {devices} device {d}");
        }
    }
}

#[test]
fn all_reduce_output_is_one_buffer_shared_across_devices() {
    let devices = 3;
    let (g, x, y) = all_reduce_graph();
    let mut b = Bindings::new(devices);
    for d in 0..devices {
        b.set(d, x, operand(42, 20 + d as u64).reshape(vec![6, 7]).unwrap());
    }
    let out = Executor::new(&g, devices).unwrap().run(b).unwrap();
    // Every device binds the same allocation, not an equal copy.
    let first = out.get(0, y).unwrap();
    for d in 1..devices {
        assert!(std::ptr::eq(first, out.get(d, y).unwrap()), "device {d} holds a copy");
    }
    // And clones keep sharing it on every device.
    let cloned = out.clone();
    for d in 0..devices {
        assert!(out.shares_value(&cloned, d, y), "device {d}");
    }
}
