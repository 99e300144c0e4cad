//! The packed, cache-blocked matmul engine behind [`Tensor::matmul`],
//! [`Tensor::matmul_t`], [`Tensor::batched_matmul`] and
//! [`Tensor::batched_matmul_t`].
//!
//! # Why packing
//!
//! The seed kernel walked `a_at`/`b_at` index closures per element — a
//! branch and a strided load per multiply, and no cache reuse: each output
//! row re-streamed the whole `B` matrix from memory. This module instead
//! follows the classic GotoBLAS/BLIS structure:
//!
//! 1. **Pack `B` once** into `kc × nc` panels of `NR`-wide column strips.
//!    A virtual transpose of `B` — of the rank-2 operand, or of every slice
//!    of a batched `(B, N, K)` operand such as the expert weights an
//!    expert dX product reads — is resolved during packing, so no
//!    transposed copy is ever materialized and the micro-kernel only
//!    streams contiguous data.
//! 2. **Pack `A`** per `mc × kc` block into a worker-local buffer,
//!    interleaved in `MR`-row groups.
//! 3. A **register-tiled micro-kernel** updates an `MR × NR` output tile
//!    with the accumulators held in registers across the whole `kc`
//!    depth — one output load and one store per tile instead of one per
//!    `k` step. On x86-64 an AVX-512 or AVX2-compiled copy of the kernel
//!    is selected at runtime (vectorizing across *independent* output
//!    elements only, so lane width never changes results; no FMA
//!    contraction is used).
//!
//! The cache blocking `mc/kc/nc` is a runtime [`BlockSpec`]: fixed
//! constants by default, optionally specialized per shape class and ISA by
//! the [`crate::tune`] autotuner. Weights that never change between calls
//! can skip step 1 entirely by being packed once into a
//! [`PackedTensor`] and multiplied via
//! [`matmul_packed`] / [`batched_matmul_packed`].
//!
//! # Determinism contract
//!
//! Every kernel in this module accumulates each output element in **the
//! same order: `k` ascending** (`kc` blocks ascending, offsets ascending
//! inside a block — exactly the reference kernel's order). Workers split
//! the *output* over one `(slice, mc row block, NR column strip)` task
//! grid, each task taking a contiguous run of units, so a product with a
//! single row block (every GEMM with at most `mc` rows) still spreads its
//! columns over every worker. Each element is written by exactly one
//! task, through a column window of its own tile rows; where the grid is
//! cut only decides which task owns an element, never the order its `k`
//! terms are added in.
//! The blocking parameters only change how the iteration space is *cut*,
//! never the per-element accumulation order: the accumulator tile is
//! loaded from and stored back to `out` per `kc` block, so the adds stay
//! left-associated and `k`-ascending for any `BlockSpec`. Consequently
//! [`matmul_tiled`], [`matmul_tiled_with`] (any valid spec) and
//! [`matmul_packed`] are all bit-identical to [`matmul_reference`], and
//! [`batched_matmul_tiled_t`] to [`batched_matmul_reference_t`], for
//! every shape, transpose combination, worker count, and SIMD path —
//! enforced by `tests/backend_props.rs` and relied on by the fig05
//! equivalence harness.
//!
//! Unlike the seed kernel, no `a == 0.0` short-circuit is applied: skipping
//! a zero multiplicand silently dropped `0 · ∞` and `0 · NaN`
//! contributions, diverging from IEEE semantics on non-finite inputs.

use std::ops::Range;

use crate::pack::PackedTensor;
use crate::pool::{self, SharedSliceMut};
use crate::{Result, Tensor, TensorError};

/// Default rows per packed `A` block (output rows processed per task step).
pub const MC: usize = 64;
/// Default depth of a packed panel (the `k`-blocking factor).
pub const KC: usize = 256;
/// Default columns per packed `B` panel.
pub const NC: usize = 512;
/// Output rows per register tile.
const MR: usize = 4;
/// Output columns per register tile (the width of a packed `B` strip).
/// `MR × NR` accumulators fit the 16 AVX2 vector registers; with AVX-512
/// each row is a single 16-lane register.
const NR: usize = 16;

/// Problems smaller than this many multiply-adds skip packing and run the
/// reference kernel directly (identical bits, less setup).
const SMALL_GEMM: usize = 32 * 32 * 32;

/// Runtime cache-blocking parameters for the packed engine.
///
/// `MR`/`NR` (the register tile) stay compile-time constants — the
/// micro-kernel holds its accumulators in fixed-size arrays — but the
/// cache blocking is data: [`BlockSpec::DEFAULT`] reproduces the fixed
/// constants, and the [`crate::tune`] module can substitute per-shape,
/// per-ISA tuned values. Any valid spec produces bit-identical results
/// (see the module docs); only wall-clock changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockSpec {
    /// Rows per packed `A` block.
    pub mc: usize,
    /// Depth of a packed `B` panel (`k`-blocking factor).
    pub kc: usize,
    /// Columns per packed `B` panel.
    pub nc: usize,
}

impl BlockSpec {
    /// The compiled-in blocking ([`MC`], [`KC`], [`NC`]) — the default and
    /// the fallback whenever no tuned entry applies.
    pub const DEFAULT: BlockSpec = BlockSpec { mc: MC, kc: KC, nc: NC };

    /// Bounds-checks a spec (e.g. one parsed from a tuned table on disk)
    /// so corrupt input cannot request absurd pack buffers or a zero
    /// blocking factor. Entry points silently substitute
    /// [`BlockSpec::DEFAULT`] for invalid specs, per the repo-wide
    /// "garbage degrades to the default" configuration rule.
    pub fn is_valid(&self) -> bool {
        (1..=8192).contains(&self.mc)
            && (1..=8192).contains(&self.kc)
            && (1..=8192).contains(&self.nc)
    }

    /// `self` if valid, otherwise the default blocking.
    fn sanitized(self) -> BlockSpec {
        if self.is_valid() {
            self
        } else {
            BlockSpec::DEFAULT
        }
    }
}

impl Default for BlockSpec {
    fn default() -> Self {
        BlockSpec::DEFAULT
    }
}

/// Validates rank-2 shapes and resolves virtual transposes to `(m, k, n)`.
fn matmul_dims(a: &Tensor, b: &Tensor, ta: bool, tb: bool) -> Result<(usize, usize, usize)> {
    if a.rank() != 2 {
        return Err(TensorError::RankMismatch { op: "matmul", expected: 2, actual: a.rank() });
    }
    if b.rank() != 2 {
        return Err(TensorError::RankMismatch { op: "matmul", expected: 2, actual: b.rank() });
    }
    let (ar, ac) = (a.shape()[0], a.shape()[1]);
    let (br, bc) = (b.shape()[0], b.shape()[1]);
    let (m, ka) = if ta { (ac, ar) } else { (ar, ac) };
    let (kb, n) = if tb { (bc, br) } else { (br, bc) };
    if ka != kb {
        return Err(TensorError::ShapeMismatch {
            op: "matmul",
            lhs: a.shape().to_vec(),
            rhs: b.shape().to_vec(),
        });
    }
    Ok((m, ka, n))
}

/// The retained naive kernel: a per-element triple loop over index
/// closures, kept as the executable specification the tiled engine is
/// tested against (and as the benchmark baseline).
///
/// Accumulation order per output element is `k` ascending. No zero
/// short-circuit: `0 · ∞ = NaN` propagates per IEEE 754.
///
/// # Errors
///
/// Same conditions as [`Tensor::matmul_t`].
pub fn matmul_reference(a: &Tensor, b: &Tensor, ta: bool, tb: bool) -> Result<Tensor> {
    let (m, k, n) = matmul_dims(a, b, ta, tb)?;
    let mut out = vec![0.0f32; m * n];
    reference_into(m, k, n, a.data(), a.shape()[1], ta, b.data(), b.shape()[1], tb, &mut out);
    Tensor::from_vec(vec![m, n], out)
}

#[allow(clippy::too_many_arguments)] // flat slice+stride kernel signature
fn reference_into(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    ac: usize,
    ta: bool,
    b: &[f32],
    bc: usize,
    tb: bool,
    out: &mut [f32],
) {
    let a_at = |i: usize, p: usize| if ta { a[p * ac + i] } else { a[i * ac + p] };
    let b_at = |p: usize, j: usize| if tb { b[j * bc + p] } else { b[p * bc + j] };
    for i in 0..m {
        for p in 0..k {
            let av = a_at(i, p);
            for j in 0..n {
                out[i * n + j] += av * b_at(p, j);
            }
        }
    }
}

/// The packed, cache-blocked, multi-threaded matmul.
///
/// `workers = 0` auto-sizes from the shared pool
/// ([`pool::default_workers`]); `workers = 1` runs sequentially on the
/// calling thread. Blocking comes from the active tuned table
/// ([`crate::tune::spec_for`]), falling back to [`BlockSpec::DEFAULT`].
/// Any value of either knob is bit-identical to [`matmul_reference`].
///
/// # Errors
///
/// Same conditions as [`Tensor::matmul_t`].
pub fn matmul_tiled(a: &Tensor, b: &Tensor, ta: bool, tb: bool, workers: usize) -> Result<Tensor> {
    let (m, k, n) = matmul_dims(a, b, ta, tb)?;
    if m * k * n <= SMALL_GEMM {
        return matmul_reference(a, b, ta, tb);
    }
    matmul_tiled_spec(a, b, ta, tb, workers, crate::tune::spec_for(m, k, n))
}

/// [`matmul_tiled`] with an explicit [`BlockSpec`] and no small-problem
/// cutoff — the autotuner's measurement entry point, also used by tests to
/// pin non-default blockings. Invalid specs degrade to the default.
///
/// # Errors
///
/// Same conditions as [`Tensor::matmul_t`].
pub fn matmul_tiled_with(
    a: &Tensor,
    b: &Tensor,
    ta: bool,
    tb: bool,
    workers: usize,
    spec: BlockSpec,
) -> Result<Tensor> {
    matmul_tiled_spec(a, b, ta, tb, workers, spec.sanitized())
}

fn matmul_tiled_spec(
    a: &Tensor,
    b: &Tensor,
    ta: bool,
    tb: bool,
    workers: usize,
    spec: BlockSpec,
) -> Result<Tensor> {
    let (m, k, n) = matmul_dims(a, b, ta, tb)?;
    let mut out = vec![0.0f32; m * n];
    let w = pool::resolve_workers(workers);
    let bpack = pack_b(spec, k, n, b.data(), b.shape()[1], tb, w);
    gemm_packed(spec, m, k, n, a.data(), a.shape()[1], ta, &bpack, &mut out, w);
    Tensor::from_vec(vec![m, n], out)
}

/// Matmul against a weight already resident in panel layout: the
/// steady-state serving fast path, skipping `pack_b` entirely.
///
/// Uses the blocking the panels were packed with, so the result is
/// bit-identical to [`matmul_reference`] (and to the repacking paths)
/// regardless of which spec that was. The packed operand must be rank-2
/// (`batch == 1`).
///
/// # Errors
///
/// [`TensorError::RankMismatch`] for a non-rank-2 `a`;
/// [`TensorError::ShapeMismatch`] when `a`'s inner dimension disagrees
/// with the packed `k` or the packed operand is batched.
pub fn matmul_packed(a: &Tensor, b: &PackedTensor, ta: bool, workers: usize) -> Result<Tensor> {
    if a.rank() != 2 {
        return Err(TensorError::RankMismatch { op: "matmul", expected: 2, actual: a.rank() });
    }
    let (ar, ac) = (a.shape()[0], a.shape()[1]);
    let (m, k) = if ta { (ac, ar) } else { (ar, ac) };
    if b.batch() != 1 || k != b.k() {
        return Err(TensorError::ShapeMismatch {
            op: "matmul",
            lhs: a.shape().to_vec(),
            rhs: b.src_shape().to_vec(),
        });
    }
    let n = b.n();
    let mut out = vec![0.0f32; m * n];
    let w = pool::resolve_workers(workers);
    gemm_packed(b.spec(), m, k, n, a.data(), ac, ta, b.panels(0), &mut out, w);
    Tensor::from_vec(vec![m, n], out)
}

/// Reference batched matmul `(B, M, K) x (B, K, N)`: the naive loop, one
/// expert at a time, no zero short-circuit.
///
/// # Errors
///
/// Same conditions as [`Tensor::batched_matmul`].
pub fn batched_matmul_reference(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    batched_matmul_reference_t(a, b, false)
}

/// [`batched_matmul_reference`] with an optional virtual transpose of
/// every `B` slice: with `tb`, `b` is stored `(B, N, K)` and each slice is
/// read as its transpose, exactly like [`matmul_reference`]'s `tb`.
///
/// # Errors
///
/// Same conditions as [`Tensor::batched_matmul_t`].
pub fn batched_matmul_reference_t(a: &Tensor, b: &Tensor, tb: bool) -> Result<Tensor> {
    let (bt, m, k, n) = batched_dims(a, b, tb)?;
    let bc = b.shape()[2];
    let mut out = vec![0.0f32; bt * m * n];
    for bi in 0..bt {
        reference_into(
            m,
            k,
            n,
            &a.data()[bi * m * k..(bi + 1) * m * k],
            k,
            false,
            &b.data()[bi * k * n..(bi + 1) * k * n],
            bc,
            tb,
            &mut out[bi * m * n..(bi + 1) * m * n],
        );
    }
    Tensor::from_vec(vec![bt, m, n], out)
}

/// Tiled batched matmul. Packs every expert's panels in parallel over the
/// shared pool, then splits the `(expert, row block, column strip)` grid
/// across workers — so parallelism does not collapse when `bt` is smaller
/// than the worker count or each expert has a single row block, and
/// packing is not serialized per expert.
///
/// Per-element accumulation order is unchanged, so results are
/// bit-identical to [`batched_matmul_reference`] for any `workers`
/// (`0` = auto).
///
/// # Errors
///
/// Same conditions as [`Tensor::batched_matmul`].
pub fn batched_matmul_tiled(a: &Tensor, b: &Tensor, workers: usize) -> Result<Tensor> {
    batched_matmul_tiled_t(a, b, false, workers)
}

/// [`batched_matmul_tiled`] with an optional virtual transpose of every
/// `B` slice, resolved while packing panels — no transposed copy of `b` is
/// ever materialized. Bit-identical to [`batched_matmul_reference_t`] (and
/// to permuting `b` then calling [`batched_matmul_tiled`]) for any
/// `workers`.
///
/// # Errors
///
/// Same conditions as [`Tensor::batched_matmul_t`].
pub fn batched_matmul_tiled_t(a: &Tensor, b: &Tensor, tb: bool, workers: usize) -> Result<Tensor> {
    let (bt, m, k, n) = batched_dims(a, b, tb)?;
    if bt == 0 || m * k * n <= SMALL_GEMM {
        return batched_matmul_reference_t(a, b, tb);
    }
    let spec = crate::tune::spec_for(m, k, n);
    let mut out = vec![0.0f32; bt * m * n];
    let w = pool::resolve_workers(workers);
    let bpack = pack_b_batched(spec, bt, k, n, b.data(), b.shape()[2], tb, w);
    batched_gemm_packed(spec, bt, m, k, n, a.data(), &bpack, false, &mut out, w);
    Tensor::from_vec(vec![bt, m, n], out)
}

/// Batched matmul against prepacked per-expert (or shared) weight panels:
/// `(B, M, K) x packed (B, K, N) -> (B, M, N)`.
///
/// A packed operand with `batch == 1` is broadcast across the batch axis —
/// the shared-`B` case packs (and stores) one panel set instead of `B`
/// copies. Bit-identical to [`batched_matmul_reference`] against the
/// equivalent materialized operand.
///
/// # Errors
///
/// [`TensorError::RankMismatch`] for a non-rank-3 `a`;
/// [`TensorError::ShapeMismatch`] when the batch axes disagree (and the
/// packed operand is not broadcastable) or the inner dimensions disagree.
pub fn batched_matmul_packed(a: &Tensor, b: &PackedTensor, workers: usize) -> Result<Tensor> {
    if a.rank() != 3 {
        return Err(TensorError::RankMismatch {
            op: "batched_matmul",
            expected: 3,
            actual: a.rank(),
        });
    }
    let (bt, m, k) = (a.shape()[0], a.shape()[1], a.shape()[2]);
    if (b.batch() != bt && b.batch() != 1) || k != b.k() {
        return Err(TensorError::ShapeMismatch {
            op: "batched_matmul",
            lhs: a.shape().to_vec(),
            rhs: b.src_shape().to_vec(),
        });
    }
    let n = b.n();
    let mut out = vec![0.0f32; bt * m * n];
    let w = pool::resolve_workers(workers);
    batched_gemm_packed(b.spec(), bt, m, k, n, a.data(), b.buf(), b.batch() == 1, &mut out, w);
    Tensor::from_vec(vec![bt, m, n], out)
}

/// Validates rank-3 shapes and resolves a virtual transpose of each `B`
/// slice to `(bt, m, k, n)`.
fn batched_dims(a: &Tensor, b: &Tensor, tb: bool) -> Result<(usize, usize, usize, usize)> {
    if a.rank() != 3 || b.rank() != 3 {
        return Err(TensorError::RankMismatch {
            op: "batched_matmul",
            expected: 3,
            actual: if a.rank() != 3 { a.rank() } else { b.rank() },
        });
    }
    let (bt, m, k) = (a.shape()[0], a.shape()[1], a.shape()[2]);
    let (b2, br, bc) = (b.shape()[0], b.shape()[1], b.shape()[2]);
    let (k2, n) = if tb { (bc, br) } else { (br, bc) };
    if bt != b2 || k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "batched_matmul",
            lhs: a.shape().to_vec(),
            rhs: b.shape().to_vec(),
        });
    }
    Ok((bt, m, k, n))
}

/// Elements one matrix occupies in panel layout under `spec` (`kc × nc`
/// slots, edge panels padded to full size so panel addressing stays a
/// multiplication).
pub(crate) fn packed_len(spec: BlockSpec, k: usize, n: usize) -> usize {
    k.div_ceil(spec.kc) * n.div_ceil(spec.nc) * spec.kc * spec.nc
}

/// Resolves panel index `panel` to its geometry: `(p0, j0, kcb, ncb)`.
fn panel_dims(
    spec: BlockSpec,
    k: usize,
    n: usize,
    panel: usize,
    num_nc: usize,
) -> (usize, usize, usize, usize) {
    let (kci, nci) = (panel / num_nc, panel % num_nc);
    let (p0, j0) = (kci * spec.kc, nci * spec.nc);
    (p0, j0, spec.kc.min(k - p0), spec.nc.min(n - j0))
}

/// Fills `dst` (length `kcb * ncb`) with panel `panel` of `B`, resolving a
/// virtual transpose. Within a panel, columns are grouped into `NR`-wide
/// strips; strip `s` starts at `s * kcb * NR`, is `pp`-major and
/// contiguous, so the micro-kernel streams `B` linearly while sweeping `k`.
#[allow(clippy::too_many_arguments)] // flat slice+stride kernel signature
fn pack_panel(
    spec: BlockSpec,
    k: usize,
    n: usize,
    b: &[f32],
    bc: usize,
    tb: bool,
    panel: usize,
    num_nc: usize,
    dst: &mut [f32],
) {
    let (p0, j0, kcb, ncb) = panel_dims(spec, k, n, panel, num_nc);
    for (s, strip) in dst[..kcb * ncb].chunks_mut(kcb * NR).enumerate() {
        let c0 = s * NR;
        let w = NR.min(ncb - c0);
        for pp in 0..kcb {
            let row = &mut strip[pp * w..pp * w + w];
            if tb {
                for (c, x) in row.iter_mut().enumerate() {
                    *x = b[(j0 + c0 + c) * bc + (p0 + pp)];
                }
            } else {
                let src = (p0 + pp) * bc + j0 + c0;
                row.copy_from_slice(&b[src..src + w]);
            }
        }
    }
}

/// Packs `B` (resolving a virtual transpose) into `kc × nc` panels laid
/// out panel-major: panel `(kci, nci)` starts at `(kci * num_nc + nci) *
/// kc * nc`. Panels pack in parallel over the shared pool.
pub(crate) fn pack_b(
    spec: BlockSpec,
    k: usize,
    n: usize,
    b: &[f32],
    bc: usize,
    tb: bool,
    workers: usize,
) -> Vec<f32> {
    let num_nc = n.div_ceil(spec.nc);
    let panels = k.div_ceil(spec.kc) * num_nc;
    let mut pack = vec![0.0f32; panels * spec.kc * spec.nc];
    let view = SharedSliceMut::new(&mut pack);
    pool::par_ranges(panels, workers, |range| {
        for panel in range {
            let (_, _, kcb, ncb) = panel_dims(spec, k, n, panel, num_nc);
            let base = panel * spec.kc * spec.nc;
            // SAFETY: panel ranges are disjoint across tasks.
            let dst = unsafe { view.range_mut(base..base + kcb * ncb) };
            pack_panel(spec, k, n, b, bc, tb, panel, num_nc, dst);
        }
    });
    pack
}

/// Packs every slice of a contiguous `(B, K, N)` operand — or, with `tb`,
/// of a `(B, N, K)` operand read as its per-slice transpose (`bc` is the
/// stored column count) — into panel layout, parallelizing over the full
/// `(slice, panel)` grid. This is the builder behind
/// [`PackedTensor::pack_batched`](crate::PackedTensor::pack_batched).
#[allow(clippy::too_many_arguments)] // flat slice+stride kernel signature
pub(crate) fn pack_b_batched(
    spec: BlockSpec,
    bt: usize,
    k: usize,
    n: usize,
    b: &[f32],
    bc: usize,
    tb: bool,
    workers: usize,
) -> Vec<f32> {
    let num_nc = n.div_ceil(spec.nc);
    let per = k.div_ceil(spec.kc) * num_nc;
    let plen = packed_len(spec, k, n);
    let mut pack = vec![0.0f32; bt * plen];
    let view = SharedSliceMut::new(&mut pack);
    pool::par_ranges(bt * per, workers, |units| {
        for u in units {
            let (bi, panel) = (u / per, u % per);
            let (_, _, kcb, ncb) = panel_dims(spec, k, n, panel, num_nc);
            let base = bi * plen + panel * spec.kc * spec.nc;
            // SAFETY: (slice, panel) ranges are disjoint across tasks.
            let dst = unsafe { view.range_mut(base..base + kcb * ncb) };
            let slice = &b[bi * k * n..(bi + 1) * k * n];
            pack_panel(spec, k, n, slice, bc, tb, panel, num_nc, dst);
        }
    });
    pack
}

/// Runs the packed kernel over `out` for one product. See
/// [`gemm_grid`] for how the work is split.
#[allow(clippy::too_many_arguments)] // flat slice+stride kernel signature
fn gemm_packed(
    spec: BlockSpec,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    ac: usize,
    ta: bool,
    bpack: &[f32],
    out: &mut [f32],
    workers: usize,
) {
    gemm_grid(spec, 1, m, k, n, (a, 0, ac, ta), (bpack, 0), out, workers);
}

/// Runs the packed kernel for every slice of a batched product over one
/// shared task grid. `shared_b` broadcasts a single panel set across the
/// batch axis.
#[allow(clippy::too_many_arguments)] // flat slice+stride kernel signature
fn batched_gemm_packed(
    spec: BlockSpec,
    bt: usize,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    bpack: &[f32],
    shared_b: bool,
    out: &mut [f32],
    workers: usize,
) {
    let b_step = if shared_b { 0 } else { packed_len(spec, k, n) };
    gemm_grid(spec, bt, m, k, n, (a, m * k, k, false), (bpack, b_step), out, workers);
}

/// Arguments threaded through the blocked kernels: a stack of `bt`
/// products that share `m`, `k`, `n` and the blocking.
struct Gemm<'a> {
    spec: BlockSpec,
    m: usize,
    k: usize,
    n: usize,
    /// `A` of every slice; slice `bi` starts at `bi * a_step`.
    a: &'a [f32],
    a_step: usize,
    /// Stored column count of `a` (stride between stored rows).
    ac: usize,
    ta: bool,
    /// Panels of every slice; slice `bi` starts at `bi * b_step` (`0`
    /// broadcasts one panel set).
    bpack: &'a [f32],
    b_step: usize,
    num_mc: usize,
    num_nc: usize,
    /// `NR` strips in a full `nc` panel.
    panel_strips: usize,
    /// `NR` strips across all `n` columns (every panel's, ragged ones
    /// included).
    strips: usize,
    /// The `(bt, m, n)` output; tasks only touch it through per-tile-row
    /// column windows.
    out: SharedSliceMut<'a>,
}

/// The engine's one parallel loop: splits the `(slice, mc row block, NR
/// column strip)` grid into at most `workers` contiguous runs of units,
/// strip fastest. A product with a single row block — every GEMM with at
/// most `mc` rows — therefore splits its columns evenly across workers.
/// Strips are `NR`-aligned rather than panel-aligned, so `n = 768` splits
/// 384/384, not 512/256.
///
/// `a` is `(data, slice step, stored column count, transposed)`; `b` is
/// `(panels, slice step)`.
#[allow(clippy::too_many_arguments)] // flat slice+stride kernel signature
fn gemm_grid(
    spec: BlockSpec,
    bt: usize,
    m: usize,
    k: usize,
    n: usize,
    (a, a_step, ac, ta): (&[f32], usize, usize, bool),
    (bpack, b_step): (&[f32], usize),
    out: &mut [f32],
    workers: usize,
) {
    if bt == 0 || m == 0 || n == 0 || k == 0 {
        return;
    }
    let num_nc = n.div_ceil(spec.nc);
    let panel_strips = spec.nc.div_ceil(NR);
    let last_panel = n - (num_nc - 1) * spec.nc;
    let g = Gemm {
        spec,
        m,
        k,
        n,
        a,
        a_step,
        ac,
        ta,
        bpack,
        b_step,
        num_mc: m.div_ceil(spec.mc),
        num_nc,
        panel_strips,
        strips: (num_nc - 1) * panel_strips + last_panel.div_ceil(NR),
        out: SharedSliceMut::new(out),
    };
    pool::par_ranges(bt * g.num_mc * g.strips, workers, |units| compute_units(&g, units));
}

#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
enum Isa {
    Avx512,
    Avx2,
    Portable,
}

#[cfg(target_arch = "x86_64")]
fn isa() -> Isa {
    use std::sync::OnceLock;
    static ISA: OnceLock<Isa> = OnceLock::new();
    *ISA.get_or_init(|| {
        if std::arch::is_x86_feature_detected!("avx512f") {
            Isa::Avx512
        } else if std::arch::is_x86_feature_detected!("avx2") {
            Isa::Avx2
        } else {
            Isa::Portable
        }
    })
}

/// The SIMD path the micro-kernel dispatches to on this machine:
/// `"avx512"`, `"avx2"`, or `"portable"`. Tuned tables are keyed by this
/// string so a table recorded on one ISA never steers another.
pub fn detected_isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        match isa() {
            Isa::Avx512 => "avx512",
            Isa::Avx2 => "avx2",
            Isa::Portable => "portable",
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "portable"
    }
}

/// Dispatches a run of grid units to the widest kernel the CPU supports.
/// The AVX-512/AVX2 copies differ only in codegen (16/8-lane
/// vectorization of the same loops, across independent output elements)
/// — results are bit-identical.
fn compute_units(g: &Gemm<'_>, units: Range<usize>) {
    #[cfg(target_arch = "x86_64")]
    {
        match isa() {
            // SAFETY: the matching CPU feature was verified at runtime.
            Isa::Avx512 => return unsafe { compute_units_avx512(g, units) },
            // SAFETY: as above.
            Isa::Avx2 => return unsafe { compute_units_avx2(g, units) },
            Isa::Portable => {}
        }
    }
    compute_units_portable(g, units);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn compute_units_avx512(g: &Gemm<'_>, units: Range<usize>) {
    compute_units_impl(g, units);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn compute_units_avx2(g: &Gemm<'_>, units: Range<usize>) {
    compute_units_impl(g, units);
}

fn compute_units_portable(g: &Gemm<'_>, units: Range<usize>) {
    compute_units_impl(g, units);
}

/// The blocked loop nest for a contiguous run of `(slice, row block,
/// strip)` units. The run is cut at row-block boundaries; for each piece
/// the task packs `A` once per `(row block, kc)` block and sweeps only its
/// own strips of each `B` panel. Every output element belongs to exactly
/// one unit and accumulates its `kc` blocks in ascending order, so any cut
/// of the grid is bit-identical to [`matmul_reference`].
/// `#[inline(always)]` so each dispatch wrapper compiles its own copy
/// with its own target features.
#[inline(always)]
fn compute_units_impl(g: &Gemm<'_>, units: Range<usize>) {
    let (mc, kc, nc) = (g.spec.mc, g.spec.kc, g.spec.nc);
    let mut apack = vec![0.0f32; mc.min(g.m) * kc.min(g.k)];
    let mut u = units.start;
    while u < units.end {
        let row = u / g.strips;
        let end = ((row + 1) * g.strips).min(units.end);
        let strips = (u - row * g.strips)..(end - row * g.strips);
        u = end;
        let (bi, blk) = (row / g.num_mc, row % g.num_mc);
        let i0 = blk * mc;
        let mcb = mc.min(g.m - i0);
        let a = &g.a[bi * g.a_step..];
        let bpack = &g.bpack[bi * g.b_step..];
        let o0 = (bi * g.m + i0) * g.n;
        let panels = strips.start / g.panel_strips..(strips.end - 1) / g.panel_strips + 1;
        for kci in 0..g.k.div_ceil(kc) {
            let p0 = kci * kc;
            let kcb = kc.min(g.k - p0);
            pack_a(a, g.ac, g.ta, i0, mcb, p0, kcb, &mut apack);
            for nci in panels.clone() {
                let j0 = nci * nc;
                let ncb = nc.min(g.n - j0);
                let base = (kci * g.num_nc + nci) * (kc * nc);
                let panel = &bpack[base..base + kcb * ncb];
                let first = nci * g.panel_strips;
                let mine = strips.start.max(first) - first..strips.end.min(first + g.panel_strips) - first;
                let tile = Tile { out: g.out, n: g.n, o0: o0 + j0, mcb, kcb, ncb };
                macro_tile(&tile, mine, &apack[..mcb * kcb], panel);
            }
        }
    }
}

/// Copies the `mcb × kcb` block of `A` at `(i0, p0)` into `apack`,
/// resolving a virtual transpose (`ac` is the stored column count).
/// Rows are interleaved in `MR`-row groups: group `g` starts at
/// `g * MR * kcb`, is `pp`-major with its `rows` values contiguous per
/// `k` step, matching the micro-kernel's broadcast order.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // flat slice+stride kernel signature
fn pack_a(a: &[f32], ac: usize, ta: bool, i0: usize, mcb: usize, p0: usize, kcb: usize, apack: &mut [f32]) {
    for (grp, chunk) in apack[..mcb * kcb].chunks_mut(MR * kcb).enumerate() {
        let r0 = grp * MR;
        let rows = MR.min(mcb - r0);
        for pp in 0..kcb {
            for r in 0..rows {
                let (i, p) = (i0 + r0 + r, p0 + pp);
                chunk[pp * rows + r] = if ta { a[p * ac + i] } else { a[i * ac + p] };
            }
        }
    }
}

/// Where one `(row block, kc block, panel)` step writes: the output
/// view, its row stride `n`, the offset `o0` of the block's top-left
/// element (row `i0`, column `j0`), and the block's extent.
struct Tile<'a> {
    out: SharedSliceMut<'a>,
    n: usize,
    o0: usize,
    mcb: usize,
    kcb: usize,
    ncb: usize,
}

impl Tile<'_> {
    /// The `w` output elements of tile row `r` starting at `off`.
    ///
    /// # Safety
    ///
    /// The caller's task must own that window: every `(row, strip)`
    /// window of the output belongs to exactly one grid unit, and a task
    /// holds at most one window at a time.
    #[inline(always)]
    #[allow(clippy::mut_from_ref)]
    unsafe fn row(&self, off: usize, r: usize, w: usize) -> &mut [f32] {
        let start = off + r * self.n;
        unsafe { self.out.range_mut(start..start + w) }
    }
}

/// Accumulates strips `strips` of one panel into the output as a grid
/// of `MR × NR` register tiles; edge tiles (row or column remainders)
/// take an order-identical path with runtime widths.
#[inline(always)]
fn macro_tile(t: &Tile<'_>, strips: Range<usize>, apack: &[f32], panel: &[f32]) {
    let kcb = t.kcb;
    for (grp, astrip) in apack.chunks(MR * kcb).enumerate() {
        let r0 = grp * MR;
        let rows = MR.min(t.mcb - r0);
        for s in strips.clone() {
            let c0 = s * NR;
            let w = NR.min(t.ncb - c0);
            let bstrip = &panel[c0 * kcb..(c0 + w) * kcb];
            let off = t.o0 + r0 * t.n + c0;
            if rows == MR && w == NR {
                tile_full(t, off, astrip, bstrip);
            } else {
                tile_edge(t, off, rows, w, astrip, bstrip);
            }
        }
    }
}

/// The register-tiled inner kernel: an `MR × NR` accumulator grid loaded
/// once, swept over the whole `kcb` depth (`k` ascending, left-associated
/// adds — the reference accumulation order), stored once. The fixed-size
/// `NR` loops vectorize across independent output elements; there is no
/// reduction, so lane width cannot change results.
#[inline(always)]
fn tile_full(t: &Tile<'_>, off: usize, astrip: &[f32], bstrip: &[f32]) {
    let mut acc = [[0.0f32; NR]; MR];
    for (r, accr) in acc.iter_mut().enumerate() {
        // SAFETY: this unit owns the tile's row windows (see `Tile::row`).
        accr.copy_from_slice(unsafe { t.row(off, r, NR) });
    }
    for pp in 0..t.kcb {
        let b: &[f32; NR] = bstrip[pp * NR..pp * NR + NR].try_into().expect("strip width");
        let a = &astrip[pp * MR..pp * MR + MR];
        for (r, accr) in acc.iter_mut().enumerate() {
            let ar = a[r];
            for (o, &bv) in accr.iter_mut().zip(b) {
                *o += ar * bv;
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        // SAFETY: as above.
        unsafe { t.row(off, r, NR) }.copy_from_slice(accr);
    }
}

/// Remainder tiles (< `MR` rows or < `NR` columns): one row at a time,
/// held in a register-width accumulator across the `kcb` depth, with the
/// same `k`-ascending per-element order and operand widths from the
/// packed layouts.
#[inline(always)]
fn tile_edge(t: &Tile<'_>, off: usize, rows: usize, w: usize, astrip: &[f32], bstrip: &[f32]) {
    for r in 0..rows {
        // SAFETY: this unit owns the tile's row windows (see `Tile::row`).
        let orow = unsafe { t.row(off, r, w) };
        let mut acc = [0.0f32; NR];
        acc[..w].copy_from_slice(orow);
        for pp in 0..t.kcb {
            let av = astrip[pp * rows + r];
            for (o, &bv) in acc[..w].iter_mut().zip(&bstrip[pp * w..pp * w + w]) {
                *o += av * bv;
            }
        }
        orow.copy_from_slice(&acc[..w]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TensorRng;

    fn close(a: &Tensor, b: &Tensor) {
        assert_eq!(a.shape(), b.shape());
        assert_eq!(a.data(), b.data(), "tiled must be bit-identical to reference");
    }

    #[test]
    fn tiled_matches_reference_beyond_block_bounds() {
        let mut rng = TensorRng::seed(11);
        // Shapes straddling MC/KC/NC boundaries, including remainders.
        for (m, k, n) in [(1, 1, 1), (5, 7, 3), (64, 256, 512), (65, 257, 513), (130, 300, 70)] {
            let a = rng.uniform(vec![m, k], -1.0, 1.0);
            let b = rng.uniform(vec![k, n], -1.0, 1.0);
            let reference = matmul_reference(&a, &b, false, false).unwrap();
            for workers in [1, 2, 0] {
                close(&matmul_tiled(&a, &b, false, false, workers).unwrap(), &reference);
            }
        }
    }

    #[test]
    fn transposed_operands_match_reference() {
        let mut rng = TensorRng::seed(12);
        let (m, k, n) = (70, 90, 110);
        for (ta, tb) in [(false, true), (true, false), (true, true)] {
            let a_dims = if ta { vec![k, m] } else { vec![m, k] };
            let b_dims = if tb { vec![n, k] } else { vec![k, n] };
            let a = rng.uniform(a_dims, -1.0, 1.0);
            let b = rng.uniform(b_dims, -1.0, 1.0);
            let reference = matmul_reference(&a, &b, ta, tb).unwrap();
            close(&matmul_tiled(&a, &b, ta, tb, 0).unwrap(), &reference);
        }
    }

    #[test]
    fn batched_matches_reference() {
        let mut rng = TensorRng::seed(13);
        for (bt, m, k, n) in [(1, 40, 50, 60), (3, 33, 65, 40), (8, 16, 64, 48)] {
            let a = rng.uniform(vec![bt, m, k], -1.0, 1.0);
            let b = rng.uniform(vec![bt, k, n], -1.0, 1.0);
            let reference = batched_matmul_reference(&a, &b).unwrap();
            for workers in [1, 2, 0] {
                close(&batched_matmul_tiled(&a, &b, workers).unwrap(), &reference);
            }
        }
    }

    #[test]
    fn batched_parallel_packing_is_bit_identical_beyond_expert_count() {
        // Regression for the old path that packed each expert's panels
        // with `workers: 1` inside a per-expert task: the rebuilt kernel
        // parallelizes the (expert, panel) and (expert, row-block) grids,
        // so worker counts far beyond `bt` must still be bit-identical.
        let mut rng = TensorRng::seed(14);
        let (bt, m, k, n) = (2, 130, 257, 100);
        let a = rng.uniform(vec![bt, m, k], -1.0, 1.0);
        let b = rng.uniform(vec![bt, k, n], -1.0, 1.0);
        let reference = batched_matmul_reference(&a, &b).unwrap();
        for workers in [1, 2, 3, 7, 16, 0] {
            close(&batched_matmul_tiled(&a, &b, workers).unwrap(), &reference);
        }
    }

    #[test]
    fn batched_transpose_b_packs_panel_edges_bit_identically() {
        // `tb` is resolved per slice inside `pack_panel`: ragged `kc`/`nc`
        // panels in both the `k` and `n` directions must read the stored
        // `(B, N, K)` slice exactly like the materialized transpose.
        let mut rng = TensorRng::seed(17);
        let (bt, m, k, n) = (3, 37, 130, 90);
        let a = rng.uniform(vec![bt, m, k], -1.0, 1.0);
        let b = rng.uniform(vec![bt, n, k], -1.0, 1.0);
        let bkn = b.permute(&[0, 2, 1]).unwrap();
        let reference = batched_matmul_reference(&a, &bkn).unwrap();
        close(&batched_matmul_reference_t(&a, &b, true).unwrap(), &reference);
        let specs = [BlockSpec::DEFAULT, BlockSpec { mc: 4, kc: 1, nc: 16 }, BlockSpec { mc: 33, kc: 17, nc: 23 }];
        for spec in specs {
            for workers in [1, 3] {
                let bpack = pack_b_batched(spec, bt, k, n, b.data(), k, true, workers);
                let mut out = vec![0.0f32; bt * m * n];
                batched_gemm_packed(spec, bt, m, k, n, a.data(), &bpack, false, &mut out, workers);
                assert_eq!(out, reference.data(), "spec {spec:?} workers {workers}");
            }
        }
    }

    #[test]
    fn explicit_blockings_are_bit_identical() {
        // Runtime mc/kc/nc only re-cut the iteration space; the
        // accumulation order per element is pinned, so every valid spec
        // must reproduce the reference bits exactly.
        let mut rng = TensorRng::seed(15);
        let (m, k, n) = (70, 130, 90);
        let a = rng.uniform(vec![m, k], -1.0, 1.0);
        let b = rng.uniform(vec![k, n], -1.0, 1.0);
        let reference = matmul_reference(&a, &b, false, false).unwrap();
        for spec in [
            BlockSpec::DEFAULT,
            BlockSpec { mc: 4, kc: 1, nc: 16 },
            BlockSpec { mc: 32, kc: 128, nc: 256 },
            BlockSpec { mc: 128, kc: 512, nc: 1024 },
            BlockSpec { mc: 33, kc: 17, nc: 23 },
        ] {
            for workers in [1, 3] {
                close(&matmul_tiled_with(&a, &b, false, false, workers, spec).unwrap(), &reference);
            }
        }
    }

    #[test]
    fn invalid_spec_degrades_to_default() {
        let mut rng = TensorRng::seed(16);
        let a = rng.uniform(vec![40, 50], -1.0, 1.0);
        let b = rng.uniform(vec![50, 60], -1.0, 1.0);
        let reference = matmul_reference(&a, &b, false, false).unwrap();
        let bad = BlockSpec { mc: 0, kc: 0, nc: 0 };
        assert!(!bad.is_valid());
        close(&matmul_tiled_with(&a, &b, false, false, 1, bad).unwrap(), &reference);
    }

    #[test]
    fn non_finite_inputs_propagate() {
        // 0 · ∞ must be NaN (the seed kernel's zero short-circuit dropped it).
        let a = Tensor::from_vec(vec![1, 2], vec![0.0, 1.0]).unwrap();
        let b = Tensor::from_vec(vec![2, 1], vec![f32::INFINITY, 2.0]).unwrap();
        let y = matmul_reference(&a, &b, false, false).unwrap();
        assert!(y.data()[0].is_nan(), "0·∞ + 1·2 must be NaN, got {}", y.data()[0]);
        let yt = matmul_tiled(&a, &b, false, false, 0).unwrap();
        assert!(yt.data()[0].is_nan());
    }

    #[test]
    fn shape_errors_match_api() {
        let a = Tensor::zeros(vec![2, 3]);
        let b = Tensor::zeros(vec![2, 3]);
        assert!(matmul_tiled(&a, &b, false, false, 0).is_err());
        assert!(matmul_tiled(&a, &b, false, true, 0).is_ok());
        assert!(matmul_reference(&a, &Tensor::zeros(vec![3]), false, false).is_err());
    }
}
