//! Property tests for the packed GEMM backend's determinism contract.
//!
//! The tiled engine ([`lancet_tensor::gemm`]) must be **bit-identical** to
//! the retained naive reference kernel — not merely close — for every
//! shape, operand transpose, and worker count. These tests sample random
//! problems whose dimensions straddle the blocking constants
//! (`MR`/`NR`/`MC`/`KC`/`NC`), so packed-edge and full-tile code paths are
//! both exercised, and compare `Tensor::data()` exactly.

use lancet_tensor::{gemm, BlockSpec, PackedTensor, Tensor, TensorRng};
use proptest::prelude::*;

/// Worker counts the contract quantifies over: sequential, two-way, auto.
const WORKER_COUNTS: [usize; 3] = [1, 2, 0];

fn random_tensor(shape: Vec<usize>, seed: u64) -> Tensor {
    TensorRng::seed(seed).uniform(shape, -2.0, 2.0)
}

proptest! {
    #![proptest_config(ProptestConfig::env_cases(24))]
    /// Tiled output equals the reference bit for bit across random shapes
    /// spanning the micro/macro tile edges, both transposes, and all
    /// worker counts.
    #[test]
    fn tiled_matmul_is_bit_identical(
        dims in (1usize..80, 1usize..300, 1usize..560),
        ta in any::<bool>(),
        tb in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (m, k, n) = dims;
        let a = if ta {
            random_tensor(vec![k, m], seed)
        } else {
            random_tensor(vec![m, k], seed)
        };
        let b = if tb {
            random_tensor(vec![n, k], seed ^ 0x9E37_79B9)
        } else {
            random_tensor(vec![k, n], seed ^ 0x9E37_79B9)
        };
        let reference = gemm::matmul_reference(&a, &b, ta, tb).unwrap();
        for workers in WORKER_COUNTS {
            let tiled = gemm::matmul_tiled(&a, &b, ta, tb, workers).unwrap();
            prop_assert_eq!(reference.shape(), tiled.shape());
            prop_assert!(
                reference.data() == tiled.data(),
                "matmul diverged from reference: m={m} k={k} n={n} ta={ta} tb={tb} workers={workers}"
            );
        }
    }

    /// The batched (per-expert) engine is bit-identical to the reference
    /// for every expert count and worker count.
    #[test]
    fn tiled_batched_matmul_is_bit_identical(
        dims in (1usize..5, 1usize..40, 1usize..70, 1usize..90),
        seed in any::<u64>(),
    ) {
        let (e, m, k, n) = dims;
        let a = random_tensor(vec![e, m, k], seed);
        let b = random_tensor(vec![e, k, n], seed ^ 0x5EED);
        let reference = gemm::batched_matmul_reference(&a, &b).unwrap();
        for workers in WORKER_COUNTS {
            let tiled = gemm::batched_matmul_tiled(&a, &b, workers).unwrap();
            prop_assert!(
                reference.data() == tiled.data(),
                "batched_matmul diverged from reference: e={e} m={m} k={k} n={n} workers={workers}"
            );
        }
    }

    /// The batched engine's virtual `B` transpose (the expert dX product
    /// against forward weights) equals a per-slice rank-2
    /// `matmul_reference(.., false, true)` bit for bit, on both sides of
    /// the small-problem cutoff, across `MR`/`NR`/`KC` edge tiles, and at
    /// worker counts 1–4; the reference and public entry points agree.
    #[test]
    fn tiled_batched_transpose_b_is_bit_identical(
        dims in (1usize..4, 1usize..70, 1usize..300, 1usize..100),
        seed in any::<u64>(),
    ) {
        let (e, m, k, n) = dims;
        let a = random_tensor(vec![e, m, k], seed);
        let b = random_tensor(vec![e, n, k], seed ^ 0x7B5E);
        let mut expected = Vec::with_capacity(e * m * n);
        for s in 0..e {
            let a_s = Tensor::from_vec(vec![m, k], a.data()[s * m * k..(s + 1) * m * k].to_vec()).unwrap();
            let b_s = Tensor::from_vec(vec![n, k], b.data()[s * n * k..(s + 1) * n * k].to_vec()).unwrap();
            expected.extend_from_slice(gemm::matmul_reference(&a_s, &b_s, false, true).unwrap().data());
        }
        let reference = gemm::batched_matmul_reference_t(&a, &b, true).unwrap();
        prop_assert!(reference.data() == expected.as_slice(), "reference: e={e} m={m} k={k} n={n}");
        for workers in 1..=4 {
            let tiled = gemm::batched_matmul_tiled_t(&a, &b, true, workers).unwrap();
            prop_assert_eq!(tiled.shape(), &[e, m, n][..]);
            prop_assert!(
                tiled.data() == expected.as_slice(),
                "transposed batched matmul diverged: e={e} m={m} k={k} n={n} workers={workers}"
            );
        }
        prop_assert!(a.batched_matmul_t(&b, true).unwrap().data() == expected.as_slice());
    }

    /// Prepacked weight panels are a pure layout change: a matmul through
    /// a resident [`PackedTensor`] equals the reference bit for bit across
    /// ragged shapes, both `B` transposes, and all worker counts.
    #[test]
    fn prepacked_matmul_is_bit_identical(
        dims in (1usize..80, 1usize..300, 1usize..560),
        tb in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (m, k, n) = dims;
        let a = random_tensor(vec![m, k], seed);
        let b = if tb {
            random_tensor(vec![n, k], seed ^ 0x9E37_79B9)
        } else {
            random_tensor(vec![k, n], seed ^ 0x9E37_79B9)
        };
        let reference = gemm::matmul_reference(&a, &b, false, tb).unwrap();
        let packed = PackedTensor::pack(&b, tb).unwrap();
        for workers in WORKER_COUNTS {
            let fast = gemm::matmul_packed(&a, &packed, false, workers).unwrap();
            prop_assert_eq!(reference.shape(), fast.shape());
            prop_assert!(
                reference.data() == fast.data(),
                "prepacked matmul diverged: m={m} k={k} n={n} tb={tb} workers={workers}"
            );
        }
    }

    /// Prepacking under a non-default (tuned) blocking still matches the
    /// reference exactly — any `BlockSpec` a tuned table could load only
    /// changes traversal order, never the per-element accumulation order.
    #[test]
    fn prepacked_matmul_with_tuned_spec_is_bit_identical(
        dims in (1usize..60, 1usize..200, 1usize..300),
        spec_idx in 0usize..4,
        seed in any::<u64>(),
    ) {
        let (m, k, n) = dims;
        let specs = [
            BlockSpec { mc: 32, kc: 128, nc: 256 },
            BlockSpec { mc: 128, kc: 512, nc: 1024 },
            BlockSpec { mc: 4, kc: 16, nc: 16 },
            BlockSpec { mc: 33, kc: 17, nc: 23 },
        ];
        let a = random_tensor(vec![m, k], seed);
        let b = random_tensor(vec![k, n], seed ^ 0xB10C);
        let reference = gemm::matmul_reference(&a, &b, false, false).unwrap();
        let packed = PackedTensor::pack_with(&b, false, specs[spec_idx], 1).unwrap();
        for workers in WORKER_COUNTS {
            let fast = gemm::matmul_packed(&a, &packed, false, workers).unwrap();
            prop_assert!(
                reference.data() == fast.data(),
                "tuned-spec prepacked matmul diverged: m={m} k={k} n={n} spec={:?} workers={workers}",
                specs[spec_idx]
            );
        }
    }

    /// The batched prepacked engine matches the reference for per-expert
    /// stacks and for a shared (batch = 1) `B` broadcast across slices,
    /// including worker counts far beyond the expert count (the parallel
    /// per-slice packing regression).
    #[test]
    fn prepacked_batched_matmul_is_bit_identical(
        dims in (1usize..5, 1usize..40, 1usize..70, 1usize..90),
        shared in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (e, m, k, n) = dims;
        let a = random_tensor(vec![e, m, k], seed);
        let b = random_tensor(vec![if shared { 1 } else { e }, k, n], seed ^ 0x5EED);
        // The reference has no broadcast; materialize the shared operand.
        let b_full = if shared {
            Tensor::from_vec(vec![e, k, n], b.data().repeat(e)).unwrap()
        } else {
            b.clone()
        };
        let reference = gemm::batched_matmul_reference(&a, &b_full).unwrap();
        let packed = PackedTensor::pack_batched(&b).unwrap();
        for workers in [1, 2, 7, 16, 0] {
            let fast = gemm::batched_matmul_packed(&a, &packed, workers).unwrap();
            prop_assert!(
                reference.data() == fast.data(),
                "prepacked batched matmul diverged: e={e} m={m} k={k} n={n} shared={shared} workers={workers}"
            );
        }
    }

    /// The `(slice, row block, NR column strip)` task grid: products with
    /// a single `mc` row block split their columns across workers, so a
    /// strip split must never change a bit. Covers `N` below `NR`, ragged
    /// `N`, `N` spanning several default panels, blockings whose `nc` is
    /// not a multiple of `NR`, both transposes, worker counts 1–4, and the
    /// batched paths with fewer slices than workers.
    #[test]
    fn small_m_task_grid_is_bit_identical(
        m in 1usize..=64,
        k in 1usize..160,
        n_class in 0usize..3,
        n_off in 0usize..16,
        ta in any::<bool>(),
        tb in any::<bool>(),
        bt in 1usize..4,
        seed in any::<u64>(),
    ) {
        let n = match n_class {
            0 => 1 + n_off % 15,
            1 => 16 * (1 + n_off) + 1 + n_off % 15,
            _ => 2 * 512 + 1 + 7 * n_off,
        };
        let a = if ta { random_tensor(vec![k, m], seed) } else { random_tensor(vec![m, k], seed) };
        let b = if tb {
            random_tensor(vec![n, k], seed ^ 0x51DE)
        } else {
            random_tensor(vec![k, n], seed ^ 0x51DE)
        };
        let reference = gemm::matmul_reference(&a, &b, ta, tb).unwrap();
        let packed = PackedTensor::pack(&b, tb).unwrap();
        // Panels wider and narrower than one strip, neither a multiple of NR.
        let [wide, narrow] = [40, 7].map(|nc| BlockSpec { mc: 64, kc: 37, nc });
        for workers in 1..=4 {
            let paths = [
                ("matmul_tiled", gemm::matmul_tiled(&a, &b, ta, tb, workers).unwrap()),
                ("matmul_tiled_with nc=40", gemm::matmul_tiled_with(&a, &b, ta, tb, workers, wide).unwrap()),
                ("matmul_tiled_with nc=7", gemm::matmul_tiled_with(&a, &b, ta, tb, workers, narrow).unwrap()),
                ("matmul_packed", gemm::matmul_packed(&a, &packed, ta, workers).unwrap()),
            ];
            for (path, y) in paths {
                prop_assert!(
                    y.data() == reference.data(),
                    "{path} diverged: m={m} k={k} n={n} ta={ta} tb={tb} workers={workers}"
                );
            }
        }

        // Batched: `bt` slices of (m, k) against per-slice `B`.
        let a3 = random_tensor(vec![bt, m, k], seed ^ 0xA3);
        let b3 = random_tensor(if tb { vec![bt, n, k] } else { vec![bt, k, n] }, seed ^ 0xB3);
        let expected = gemm::batched_matmul_reference_t(&a3, &b3, tb).unwrap();
        let b3kn = if tb { b3.permute(&[0, 2, 1]).unwrap() } else { b3.clone() };
        let packed3 = PackedTensor::pack_batched(&b3kn).unwrap();
        for workers in 1..=4 {
            let tiled = gemm::batched_matmul_tiled_t(&a3, &b3, tb, workers).unwrap();
            prop_assert!(
                tiled.data() == expected.data(),
                "batched_matmul_tiled_t diverged: bt={bt} m={m} k={k} n={n} tb={tb} workers={workers}"
            );
            let fast = gemm::batched_matmul_packed(&a3, &packed3, workers).unwrap();
            prop_assert!(
                fast.data() == expected.data(),
                "batched_matmul_packed diverged: bt={bt} m={m} k={k} n={n} workers={workers}"
            );
        }
    }

    /// The public `Tensor::matmul_t` API routes through the tiled engine
    /// and therefore also matches the reference exactly.
    #[test]
    fn public_matmul_api_matches_reference(
        dims in (1usize..40, 1usize..40, 1usize..40),
        ta in any::<bool>(),
        tb in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (m, k, n) = dims;
        let a_shape = if ta { vec![k, m] } else { vec![m, k] };
        let b_shape = if tb { vec![n, k] } else { vec![k, n] };
        let a = random_tensor(a_shape, seed);
        let b = random_tensor(b_shape, seed.wrapping_add(1));
        let reference = gemm::matmul_reference(&a, &b, ta, tb).unwrap();
        let api = a.matmul_t(&b, ta, tb).unwrap();
        prop_assert!(reference.data() == api.data());
    }
}

/// Regression test for the IEEE-754 zero-skip bug: a kernel that skips
/// `a == 0.0` terms silently converts `0 · inf` and `0 · NaN` (which are
/// NaN) into `0`. Non-finite values must propagate identically through
/// the reference and the tiled engine at every worker count.
#[test]
fn non_finite_operands_propagate_through_all_paths() {
    let m = 9;
    let k = 70; // crosses MR and NR edges with a remainder
    let n = 33;
    let mut a = random_tensor(vec![m, k], 7);
    let mut b = random_tensor(vec![k, n], 8);
    // A zero in A facing an inf and a NaN in B: the products are NaN and
    // must not be skipped.
    a.data_mut()[3 * k + 5] = 0.0;
    b.data_mut()[5 * n + 2] = f32::INFINITY;
    b.data_mut()[5 * n + 7] = f32::NAN;
    let reference = gemm::matmul_reference(&a, &b, false, false).unwrap();
    assert!(reference.data()[3 * n + 2].is_nan(), "0 * inf must be NaN");
    assert!(reference.data()[3 * n + 7].is_nan(), "0 * NaN must be NaN");
    for workers in WORKER_COUNTS {
        let tiled = gemm::matmul_tiled(&a, &b, false, false, workers).unwrap();
        for (i, (r, t)) in reference.data().iter().zip(tiled.data()).enumerate() {
            assert!(
                r.to_bits() == t.to_bits(),
                "element {i}: reference {r:?} vs tiled {t:?} (workers={workers})"
            );
        }
    }
    // The batched engine with a virtual `B` transpose: the same operands
    // stored as one `(1, N, K)` slice must propagate the same NaNs.
    let a3 = Tensor::from_vec(vec![1, m, k], a.data().to_vec()).unwrap();
    let bt = b.permute(&[1, 0]).unwrap();
    let b3 = Tensor::from_vec(vec![1, n, k], bt.data().to_vec()).unwrap();
    let batched = std::iter::once(gemm::batched_matmul_reference_t(&a3, &b3, true).unwrap())
        .chain(WORKER_COUNTS.map(|w| gemm::batched_matmul_tiled_t(&a3, &b3, true, w).unwrap()));
    for (path, y) in batched.enumerate() {
        for (i, (r, t)) in reference.data().iter().zip(y.data()).enumerate() {
            assert!(
                r.to_bits() == t.to_bits(),
                "element {i}: reference {r:?} vs transposed batched path {path}: {t:?}"
            );
        }
    }
}
