//! Data-plane collectives: uniform and two-phase irregular all-to-all.
//!
//! These functions exchange *real data* between simulated device buffers.
//! The irregular variant implements the paper's Fig. 10 protocol: a first
//! exchange communicates per-destination sizes, a second exchange moves
//! only the actual payload — padding is never put on the wire. Payloads
//! travel as owned byte messages so the byte accounting matches what a
//! real transport would see.

use crate::{DispatchedChunk, MoeError, Result};
use lancet_tensor::Tensor;

/// Byte-level accounting of one irregular all-to-all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IrregularStats {
    /// Bytes moved in the size-exchange phase (4 bytes per (src, expert)).
    pub size_exchange_bytes: u64,
    /// Bytes of actual token payload moved in the second phase.
    pub payload_bytes: u64,
    /// Bytes a capacity-padded (uniform) all-to-all would have moved.
    pub padded_bytes: u64,
}

impl IrregularStats {
    /// Fraction of the padded volume actually transmitted (≤ 1).
    pub fn utilization(&self) -> f64 {
        if self.padded_bytes == 0 {
            1.0
        } else {
            self.payload_bytes as f64 / self.padded_bytes as f64
        }
    }
}

fn check_topology(shapes: &[&[usize]]) -> Result<(usize, usize, usize, usize)> {
    let g = shapes.len();
    if g == 0 {
        return Err(MoeError::BadTopology { detail: "no devices".into() });
    }
    let first = shapes[0];
    if first.len() != 3 {
        return Err(MoeError::BadTopology { detail: format!("buffer rank {} != 3", first.len()) });
    }
    for s in shapes {
        if *s != first {
            return Err(MoeError::BadTopology { detail: format!("buffer shapes differ: {s:?} vs {first:?}") });
        }
    }
    let (e, c, m) = (first[0], first[1], first[2]);
    if e % g != 0 {
        return Err(MoeError::BadTopology { detail: format!("experts {e} not divisible by devices {g}") });
    }
    Ok((g, e, c, m))
}

/// Uniform (capacity-padded) all-to-all across `G` devices.
///
/// `bufs[d]` is device `d`'s `(E, C, M)` send buffer, laid out so that
/// global expert `e = g·E_l + l` lives on device `g`. On return, device
/// `d` holds, at leading index `s·E_l + l`, the tokens device `s` sent to
/// `d`'s local expert `l`. Applying the exchange twice restores the input
/// (the collective is an involution).
///
/// # Errors
///
/// Returns [`MoeError::BadTopology`] on inconsistent buffers.
///
/// # Example
///
/// ```
/// use lancet_moe::all_to_all_uniform;
/// use lancet_tensor::Tensor;
///
/// // Two devices, one expert each, capacity 1, width 1.
/// let dev0 = Tensor::from_vec(vec![2, 1, 1], vec![10.0, 11.0])?;
/// let dev1 = Tensor::from_vec(vec![2, 1, 1], vec![20.0, 21.0])?;
/// let out = all_to_all_uniform(&[dev0, dev1])?;
/// // Device 0 hosts expert 0 and receives its rows from both senders.
/// assert_eq!(out[0].data(), &[10.0, 20.0]);
/// assert_eq!(out[1].data(), &[11.0, 21.0]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[allow(clippy::needless_range_loop)] // explicit device/rank index math
pub fn all_to_all_uniform(bufs: &[Tensor]) -> Result<Vec<Tensor>> {
    let shapes: Vec<&[usize]> = bufs.iter().map(|b| b.shape()).collect();
    let (g, e, c, m) = check_topology(&shapes)?;
    let el = e / g;
    let row = c * m;
    let mut out = vec![Tensor::zeros(vec![e, c, m]); g];
    for d in 0..g {
        for s in 0..g {
            for l in 0..el {
                let src = (d * el + l) * row;
                let dst = (s * el + l) * row;
                let data = &bufs[s].data()[src..src + row];
                out[d].data_mut()[dst..dst + row].copy_from_slice(data);
            }
        }
    }
    Ok(out)
}

/// Two-phase irregular all-to-all (paper Fig. 10).
///
/// `chunks[d]` holds device `d`'s densely packed `(E, C, M)` buffer and
/// actual per-expert counts. Phase one exchanges the counts; phase two
/// moves only `counts` rows per (source, expert) pair as byte
/// messages. Returns the received buffers (same indexing as
/// [`all_to_all_uniform`]) and the byte accounting.
///
/// # Errors
///
/// Returns [`MoeError::BadTopology`] on inconsistent buffers, or
/// [`MoeError::SizeMismatch`] when counts disagree with buffer extents.
#[allow(clippy::needless_range_loop)] // explicit device/rank index math
pub fn all_to_all_irregular(chunks: &[DispatchedChunk]) -> Result<(Vec<DispatchedChunk>, IrregularStats)> {
    let shapes: Vec<&[usize]> = chunks.iter().map(|ch| ch.buf.shape()).collect();
    let (g, e, c, m) = check_topology(&shapes)?;
    let el = e / g;
    let row = c * m;
    for ch in chunks {
        if ch.counts.len() != e {
            return Err(MoeError::SizeMismatch { what: "counts", expected: e, actual: ch.counts.len() });
        }
        if let Some(&over) = ch.counts.iter().find(|&&n| n as usize > c) {
            return Err(MoeError::SizeMismatch { what: "count exceeds capacity", expected: c, actual: over as usize });
        }
    }
    let mut stats = IrregularStats::default();

    // Phase 1: every device tells every other device how many rows it will
    // send for each of its local experts (one u32 per (src, expert)).
    let mut recv_counts = vec![vec![0u32; e]; g];
    for d in 0..g {
        for s in 0..g {
            for l in 0..el {
                recv_counts[d][s * el + l] = chunks[s].counts[d * el + l];
                stats.size_exchange_bytes += 4;
            }
        }
    }

    // Phase 2: move only the actual rows, packaged as byte messages.
    let mut out: Vec<DispatchedChunk> = (0..g)
        .map(|d| DispatchedChunk { buf: Tensor::zeros(vec![e, c, m]), counts: recv_counts[d].clone() })
        .collect();
    for d in 0..g {
        for s in 0..g {
            for l in 0..el {
                let n = recv_counts[d][s * el + l] as usize;
                if n == 0 {
                    continue;
                }
                let src = (d * el + l) * row;
                let payload: &[f32] = &chunks[s].buf.data()[src..src + n * m];
                // Serialize to a wire message, as NCCL send/recv would.
                let msg: Vec<u8> = as_wire_bytes(payload).to_vec();
                stats.payload_bytes += msg.len() as u64;
                let dst = (s * el + l) * row;
                let floats = from_wire_bytes(&msg);
                out[d].buf.data_mut()[dst..dst + n * m].copy_from_slice(&floats);
            }
        }
    }
    stats.padded_bytes = (g * e * c * m * 4) as u64;
    Ok((out, stats))
}

fn as_wire_bytes(v: &[f32]) -> &[u8] {
    // Safety: f32 has no padding bytes and u8 has alignment 1.
    unsafe { std::slice::from_raw_parts(v.as_ptr().cast::<u8>(), v.len() * 4) }
}

fn from_wire_bytes(b: &[u8]) -> Vec<f32> {
    assert_eq!(b.len() % 4, 0, "payload must be whole f32s");
    b.chunks_exact(4)
        .map(|c| f32::from_ne_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

/// Statistics of one hierarchical all-to-all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HierarchicalStats {
    /// Bytes moved over intra-node links (stage 1).
    pub intra_bytes: u64,
    /// Bytes moved over inter-node links (stage 2).
    pub inter_bytes: u64,
}

/// Hierarchical (two-stage) all-to-all: stage 1 re-buckets data within
/// each node so that the GPU with local rank `r` holds everything its
/// node sends to rank-`r` GPUs anywhere; stage 2 exchanges those buckets
/// between same-rank GPUs across nodes. The result is identical to
/// [`all_to_all_uniform`], but inter-node messages are `gpus_per_node`
/// times larger — the aggregation that makes small-message all-to-alls
/// efficient (the "better communication implementations" of paper §8).
///
/// # Errors
///
/// Returns [`MoeError::BadTopology`] on inconsistent buffers or when the
/// device count is not a multiple of `gpus_per_node`.
#[allow(clippy::needless_range_loop)] // explicit device/rank index math
pub fn all_to_all_hierarchical(
    bufs: &[Tensor],
    gpus_per_node: usize,
) -> Result<(Vec<Tensor>, HierarchicalStats)> {
    let shapes: Vec<&[usize]> = bufs.iter().map(|b| b.shape()).collect();
    let (g, e, c, m) = check_topology(&shapes)?;
    if gpus_per_node == 0 || g % gpus_per_node != 0 {
        return Err(MoeError::BadTopology {
            detail: format!("{g} devices not divisible into nodes of {gpus_per_node}"),
        });
    }
    let nodes = g / gpus_per_node;
    let el = e / g;
    let row = c * m;
    let mut stats = HierarchicalStats::default();

    // Stage 1 (intra-node): device (node n, rank j) sends to (n, r) every
    // chunk destined for a rank-r device of any node. After this stage,
    // staged[n][r] holds chunks indexed by (source rank j, dest node m,
    // local expert l).
    let mut staged: Vec<Vec<Tensor>> =
        vec![vec![Tensor::zeros(vec![gpus_per_node * nodes * el, c, m]); gpus_per_node]; nodes];
    for n in 0..nodes {
        for j in 0..gpus_per_node {
            let src_dev = n * gpus_per_node + j;
            for dest in 0..g {
                let (dm, dr) = (dest / gpus_per_node, dest % gpus_per_node);
                for l in 0..el {
                    let src_off = (dest * el + l) * row;
                    // Bucket layout on (n, dr): [j][dm][l].
                    let dst_off = ((j * nodes + dm) * el + l) * row;
                    let data = bufs[src_dev].data()[src_off..src_off + row].to_vec();
                    staged[n][dr].data_mut()[dst_off..dst_off + row].copy_from_slice(&data);
                    if j != dr {
                        stats.intra_bytes += (row * 4) as u64;
                    }
                }
            }
        }
    }

    // Stage 2 (inter-node): same-rank devices exchange node buckets; the
    // receiver reassembles the uniform output layout
    // out[dest][src_global · el + l].
    let mut out = vec![Tensor::zeros(vec![e, c, m]); g];
    for dm in 0..nodes {
        for r in 0..gpus_per_node {
            let dest_dev = dm * gpus_per_node + r;
            for sn in 0..nodes {
                for j in 0..gpus_per_node {
                    let src_global = sn * gpus_per_node + j;
                    for l in 0..el {
                        let src_off = ((j * nodes + dm) * el + l) * row;
                        let dst_off = (src_global * el + l) * row;
                        let data = staged[sn][r].data()[src_off..src_off + row].to_vec();
                        out[dest_dev].data_mut()[dst_off..dst_off + row].copy_from_slice(&data);
                        if sn != dm {
                            stats.inter_bytes += (row * 4) as u64;
                        }
                    }
                }
            }
        }
    }
    Ok((out, stats))
}

/// Sum all-reduce: every device receives the element-wise sum.
///
/// # Errors
///
/// Returns [`MoeError::BadTopology`] when shapes differ, or an empty
/// device list is given.
pub fn all_reduce_sum(tensors: &[Tensor]) -> Result<Vec<Tensor>> {
    let refs: Vec<&Tensor> = tensors.iter().collect();
    Ok(vec![reduce_sum(&refs)?; tensors.len()])
}

/// The element-wise sum of every device's tensor, computed once as a left
/// fold in device order — the value [`all_reduce_sum`] hands each device.
/// Borrows its operands, so a caller that shares one result across
/// devices copies nothing.
///
/// # Errors
///
/// Returns [`MoeError::BadTopology`] for an empty device list and
/// [`MoeError::Tensor`] when shapes differ.
pub fn reduce_sum(tensors: &[&Tensor]) -> Result<Tensor> {
    let (first, rest) =
        tensors.split_first().ok_or_else(|| MoeError::BadTopology { detail: "no devices".into() })?;
    let Some((second, rest)) = rest.split_first() else { return Ok((*first).clone()) };
    let mut sum = first.add(second)?;
    for t in rest {
        sum = sum.add(t)?;
    }
    Ok(sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_buf(g: usize, el: usize, c: usize, m: usize, dev: usize) -> Tensor {
        let e = g * el;
        let mut t = Tensor::zeros(vec![e, c, m]);
        for i in 0..t.volume() {
            t.data_mut()[i] = (dev * 1000 + i) as f32;
        }
        t
    }

    #[test]
    fn uniform_is_involution() {
        let g = 4;
        let bufs: Vec<Tensor> = (0..g).map(|d| mk_buf(g, 2, 3, 2, d)).collect();
        let once = all_to_all_uniform(&bufs).unwrap();
        let twice = all_to_all_uniform(&once).unwrap();
        assert_eq!(twice, bufs);
    }

    #[test]
    fn uniform_routes_rows_to_expert_owner() {
        // 2 devices, 1 expert each, capacity 1, width 1.
        let b0 = Tensor::from_vec(vec![2, 1, 1], vec![10.0, 11.0]).unwrap();
        let b1 = Tensor::from_vec(vec![2, 1, 1], vec![20.0, 21.0]).unwrap();
        let out = all_to_all_uniform(&[b0, b1]).unwrap();
        // Device 0 hosts expert 0: receives row for expert 0 from both.
        assert_eq!(out[0].data(), &[10.0, 20.0]);
        // Device 1 hosts expert 1: rows destined to expert 1.
        assert_eq!(out[1].data(), &[11.0, 21.0]);
    }

    #[test]
    fn topology_errors() {
        assert!(all_to_all_uniform(&[]).is_err());
        let a = Tensor::zeros(vec![2, 1, 1]);
        let b = Tensor::zeros(vec![2, 2, 1]);
        assert!(all_to_all_uniform(&[a.clone(), b]).is_err());
        // 3 experts on 2 devices does not divide.
        let c = Tensor::zeros(vec![3, 1, 1]);
        assert!(all_to_all_uniform(&[c.clone(), c]).is_err());
    }

    #[test]
    fn irregular_matches_uniform_on_valid_rows() {
        let g = 2;
        let (e, c, m) = (4, 3, 2);
        let mut chunks = Vec::new();
        for d in 0..g {
            let buf = mk_buf(g, e / g, c, m, d);
            // Pretend 2 valid rows for even experts, 1 for odd.
            let counts: Vec<u32> = (0..e).map(|i| if i % 2 == 0 { 2 } else { 1 }).collect();
            chunks.push(DispatchedChunk { buf, counts });
        }
        let bufs: Vec<Tensor> = chunks.iter().map(|ch| ch.buf.clone()).collect();
        let uniform = all_to_all_uniform(&bufs).unwrap();
        let (irr, stats) = all_to_all_irregular(&chunks).unwrap();
        // Valid region matches; counts arrive with the data.
        for d in 0..g {
            for idx in 0..e {
                let n = irr[d].counts[idx] as usize;
                let off = idx * c * m;
                assert_eq!(
                    &irr[d].buf.data()[off..off + n * m],
                    &uniform[d].data()[off..off + n * m]
                );
                // Beyond the count the irregular buffer is zero.
                assert!(irr[d].buf.data()[off + n * m..off + c * m].iter().all(|&x| x == 0.0));
            }
        }
        assert!(stats.payload_bytes < stats.padded_bytes);
        assert_eq!(stats.size_exchange_bytes, (g * g * (e / g) * 4) as u64);
        assert!(stats.utilization() < 1.0);
    }

    #[test]
    fn irregular_rejects_overflow_counts() {
        let buf = Tensor::zeros(vec![2, 2, 1]);
        let chunk = DispatchedChunk { buf, counts: vec![3, 0] };
        assert!(all_to_all_irregular(&[chunk.clone(), chunk]).is_err());
    }

    #[test]
    fn irregular_transmits_nothing_when_empty() {
        let buf = Tensor::zeros(vec![2, 2, 1]);
        let chunk = DispatchedChunk { buf, counts: vec![0, 0] };
        let (_, stats) = all_to_all_irregular(&[chunk.clone(), chunk]).unwrap();
        assert_eq!(stats.payload_bytes, 0);
        assert_eq!(stats.utilization(), 0.0);
    }

    #[test]
    fn hierarchical_equals_uniform() {
        for (nodes, gpn, el, c, m) in [(2usize, 2usize, 1usize, 2usize, 3usize), (2, 4, 2, 1, 2), (3, 2, 1, 2, 1)] {
            let g = nodes * gpn;
            let bufs: Vec<Tensor> = (0..g).map(|d| mk_buf(g, el, c, m, d)).collect();
            let uniform = all_to_all_uniform(&bufs).unwrap();
            let (hier, stats) = all_to_all_hierarchical(&bufs, gpn).unwrap();
            assert_eq!(hier, uniform, "nodes {nodes} gpn {gpn}");
            assert!(stats.inter_bytes > 0);
            assert!(stats.intra_bytes > 0);
        }
    }

    #[test]
    fn hierarchical_single_node_moves_nothing_internode() {
        let bufs: Vec<Tensor> = (0..4).map(|d| mk_buf(4, 2, 2, 2, d)).collect();
        let (hier, stats) = all_to_all_hierarchical(&bufs, 4).unwrap();
        assert_eq!(hier, all_to_all_uniform(&bufs).unwrap());
        assert_eq!(stats.inter_bytes, 0);
    }

    #[test]
    fn hierarchical_rejects_bad_node_size() {
        let bufs: Vec<Tensor> = (0..4).map(|d| mk_buf(4, 1, 1, 1, d)).collect();
        assert!(all_to_all_hierarchical(&bufs, 3).is_err());
        assert!(all_to_all_hierarchical(&bufs, 0).is_err());
    }

    #[test]
    fn all_reduce_sums() {
        let a = Tensor::from_vec(vec![2], vec![1.0, 2.0]).unwrap();
        let b = Tensor::from_vec(vec![2], vec![10.0, 20.0]).unwrap();
        let out = all_reduce_sum(&[a, b]).unwrap();
        assert_eq!(out[0].data(), &[11.0, 22.0]);
        assert_eq!(out[0], out[1]);
        assert!(all_reduce_sum(&[]).is_err());
    }
}
