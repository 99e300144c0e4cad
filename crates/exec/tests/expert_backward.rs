//! The expert backward kernels against their explicit formulations.
//!
//! `BatchedMatMul { transpose_b: true }` (expert dX against the forward
//! weights) resolves the per-expert transpose while packing panels, and
//! `BatchedMatMulDw` (expert dW) transposes the small activation. Both must
//! equal materializing the transpose with `permute` and multiplying, bit
//! for bit, and must equal the per-expert rank-2 products with the
//! transpose folded into `matmul_t`.

use lancet_exec::eval_op;
use lancet_ir::Op;
use lancet_tensor::{Tensor, TensorRng};

/// `(experts, rows, k, n)`: ragged tile edges, a `k` past one `KC` panel,
/// a problem under the small-GEMM cutoff, and GPT2-S-like expert widths.
const SHAPES: [(usize, usize, usize, usize); 4] =
    [(3, 17, 70, 45), (2, 33, 300, 40), (2, 5, 6, 7), (2, 64, 192, 768)];

/// Slice `s` of a contiguous rank-3 tensor as a rank-2 tensor.
fn slice(t: &Tensor, s: usize) -> Tensor {
    let (r, c) = (t.shape()[1], t.shape()[2]);
    Tensor::from_vec(vec![r, c], t.data()[s * r * c..(s + 1) * r * c].to_vec()).unwrap()
}

fn per_expert(e: usize, f: impl Fn(usize) -> Tensor) -> Vec<f32> {
    (0..e).flat_map(|s| f(s).data().to_vec()).collect()
}

#[test]
fn transposed_batched_matmul_matches_permute_then_multiply() {
    let mut rng = TensorRng::seed(41);
    for (e, m, k, n) in SHAPES {
        let dy = rng.uniform(vec![e, m, k], -1.0, 1.0);
        // The forward weight, stored (E, N, K); dX multiplies by its
        // per-expert transpose.
        let w = rng.uniform(vec![e, n, k], -1.0, 1.0);
        let dx = eval_op(&Op::BatchedMatMul { transpose_b: true }, &[&dy, &w]).unwrap().remove(0);
        assert_eq!(dx.shape(), &[e, m, n]);
        let explicit = dy.batched_matmul(&w.permute(&[0, 2, 1]).unwrap()).unwrap();
        assert!(dx.data() == explicit.data(), "permute formulation: {:?}", (e, m, k, n));
        let rank2 = per_expert(e, |s| slice(&dy, s).matmul_t(&slice(&w, s), false, true).unwrap());
        assert!(dx.data() == rank2.as_slice(), "rank-2 formulation: {:?}", (e, m, k, n));
    }
}

#[test]
fn batched_matmul_dw_matches_permute_then_multiply() {
    let mut rng = TensorRng::seed(42);
    for (e, c, k, n) in SHAPES {
        let x = rng.uniform(vec![e, c, k], -1.0, 1.0);
        let dy = rng.uniform(vec![e, c, n], -1.0, 1.0);
        let dw = eval_op(&Op::BatchedMatMulDw, &[&x, &dy]).unwrap().remove(0);
        assert_eq!(dw.shape(), &[e, k, n]);
        let explicit = x.permute(&[0, 2, 1]).unwrap().batched_matmul(&dy).unwrap();
        assert!(dw.data() == explicit.data(), "permute formulation: {:?}", (e, c, k, n));
        let rank2 = per_expert(e, |s| slice(&x, s).matmul_t(&slice(&dy, s), true, false).unwrap());
        assert!(dw.data() == rank2.as_slice(), "rank-2 formulation: {:?}", (e, c, k, n));
    }
}
