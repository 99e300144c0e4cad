//! Differential conformance suite for tile-granular overlap.
//!
//! The tile scheduler (`lancet_core::apply_tile_schedule`) promises that
//! splitting uniform all-to-all → expert-FFN → all-to-all segments into
//! capacity tiles changes *scheduling only*: for every zoo model, the
//! tile-scheduled plan's executed forward must be **bit-identical** to
//! the partition-level plan's, at every tile count and worker count, and
//! `tiles = 1` must degenerate to the exact partition-level schedule —
//! op-order equality of the printed graph, not just equal numerics.
//!
//! Weights and inputs are bound by *name* (FNV-1a of the tensor name
//! seeds the RNG), because the tile rewrite renumbers tensor ids and the
//! two plans must still receive identical values.

use lancet_repro::core::{Lancet, LancetOptions, TileSchedule};
use lancet_repro::cost::ClusterSpec;
use lancet_repro::exec::{Bindings, Executor};
use lancet_repro::ir::{to_text, GateKind, Graph, TensorKind};
use lancet_repro::models::{build_forward, GptMoeConfig};
use lancet_repro::store::format::fnv1a;
use lancet_repro::tensor::{Tensor, TensorRng};

/// Model zoo: every architectural axis the scheduler touches — switch,
/// top-k and batch-prioritized routing, shared experts, SwiGLU experts
/// (mixtral), multi-device expert parallelism.
fn zoo() -> Vec<(&'static str, GptMoeConfig)> {
    vec![
        ("tiny-switch", GptMoeConfig::tiny(2, GateKind::Switch)),
        ("tiny-top2-shared", GptMoeConfig::tiny(2, GateKind::TopK { k: 2 }).with_shared_expert(true)),
        ("tiny-bpr", GptMoeConfig::tiny(2, GateKind::BatchPrioritized)),
        ("mixtral-tiny", GptMoeConfig::mixtral_tiny(2)),
    ]
}

/// Name-keyed deterministic binding: identical tensor values regardless
/// of how a rewrite renumbered ids. Mirrors `init_weights`' layout
/// conventions (expert weights per-device, everything else replicated);
/// inputs get small non-negative values valid as token/target ids.
fn bind(graph: &Graph, devices: usize, seed: u64) -> Bindings {
    let mut b = Bindings::new(devices);
    for t in graph.tensors() {
        let h = fnv1a(t.name.as_bytes());
        match t.kind {
            TensorKind::Weight => {
                let rank = t.shape.rank();
                let fan_in =
                    if rank >= 2 { t.shape.dim(rank - 2) } else { t.shape.volume().max(1) };
                let std = 1.0 / (fan_in as f32).sqrt();
                if t.name.contains("expert") {
                    for d in 0..devices {
                        let salt = (d as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        let mut rng = TensorRng::seed(seed ^ h ^ salt);
                        b.set(d, t.id, rng.normal(t.shape.clone(), std));
                    }
                } else {
                    let mut rng = TensorRng::seed(seed ^ h);
                    b.set_all(t.id, rng.normal(t.shape.clone(), std));
                }
            }
            TensorKind::Input => {
                let n = t.shape.volume();
                let vals: Vec<f32> =
                    (0..n).map(|i| ((i as u64 * 7919 + seed * 31 + h) % 11) as f32).collect();
                b.set_all(t.id, Tensor::from_vec(t.shape.dims().to_vec(), vals).unwrap());
            }
            _ => {}
        }
    }
    b
}

/// Executes the graph's forward pass and returns the final instruction's
/// outputs on every device as raw f32 bits.
fn run_forward(g: &Graph, devices: usize, seed: u64) -> Vec<Vec<u32>> {
    let bindings = bind(g, devices, seed);
    let out = Executor::new(g, devices).unwrap().run(bindings).unwrap();
    let last = g.instrs().last().expect("non-empty graph");
    let mut result = Vec::new();
    for d in 0..devices {
        for &o in &last.outputs {
            result.push(out.get(d, o).unwrap().data().iter().map(|x| x.to_bits()).collect());
        }
    }
    result
}

fn optimizer(cfg: &GptMoeConfig, tile: Option<TileSchedule>, workers: usize) -> Lancet {
    let mut options = LancetOptions { tile, ..LancetOptions::default() };
    options.partition.workers = workers;
    Lancet::new(ClusterSpec::v100(2), cfg.gpus, options)
}

fn forward_graph(cfg: &GptMoeConfig) -> Graph {
    build_forward(cfg).expect("zoo model builds").graph
}

/// The headline differential contract: executed forward outputs are
/// bit-identical between partition-level and tile-scheduled plans, for
/// every zoo model at every tile count. Also asserts the sweep is not
/// vacuous — at least one (model, K) pair must actually tile a segment.
#[test]
fn tile_schedule_is_bit_identical_across_zoo_and_tile_counts() {
    let mut tiled_somewhere = 0usize;
    for (name, cfg) in zoo() {
        let base = optimizer(&cfg, None, 0)
            .optimize_forward(forward_graph(&cfg))
            .expect("partition-level plan");
        assert!(base.tile.is_none(), "{name}: no tile report without a schedule");
        let reference = run_forward(&base.graph, cfg.gpus, 0xD1FF);
        for k in [1usize, 2, 4, 8] {
            let tiled = optimizer(&cfg, Some(TileSchedule::new(k)), 0)
                .optimize_forward(forward_graph(&cfg))
                .expect("tile-scheduled plan");
            let report = tiled.tile.expect("tile report present when scheduled");
            if report.segments > 0 {
                tiled_somewhere += 1;
            }
            let got = run_forward(&tiled.graph, cfg.gpus, 0xD1FF);
            assert_eq!(reference, got, "{name}: K={k} changed executed forward bits");
        }
    }
    assert!(tiled_somewhere > 0, "sweep vacuous: no zoo plan had a tileable segment");
}

/// `tiles = 1` must be the *exact* partition-level schedule: the printed
/// op order is equal, not merely the numerics.
#[test]
fn tiles_one_degenerates_to_partition_level_schedule() {
    for (name, cfg) in zoo() {
        let base = optimizer(&cfg, None, 0).optimize_forward(forward_graph(&cfg)).unwrap();
        let one = optimizer(&cfg, Some(TileSchedule::new(1)), 0)
            .optimize_forward(forward_graph(&cfg))
            .unwrap();
        assert_eq!(
            to_text(&base.graph),
            to_text(&one.graph),
            "{name}: K=1 must emit the partition-level op order exactly"
        );
        let report = one.tile.unwrap();
        assert_eq!(report.segments, 0, "{name}");
        assert_eq!(report.ops_added, 0, "{name}");
    }
}

/// Tile-scheduled plans are identical at every DP worker count (the
/// parallel partition search is deterministic, and the tile rewrite sits
/// on top of it deterministically).
#[test]
fn tiled_plans_identical_across_worker_counts() {
    for (name, cfg) in zoo() {
        let reference = optimizer(&cfg, Some(TileSchedule::new(4)), 1)
            .optimize_forward(forward_graph(&cfg))
            .unwrap();
        for workers in [2usize, 4] {
            let got = optimizer(&cfg, Some(TileSchedule::new(4)), workers)
                .optimize_forward(forward_graph(&cfg))
                .unwrap();
            assert_eq!(
                to_text(&reference.graph),
                to_text(&got.graph),
                "{name}: workers={workers} changed the tiled plan"
            );
        }
    }
}

/// The option plumbing: the default keeps partition-level scheduling
/// (when `LANCET_TILE_COUNT` is not exported — guaranteed in tests), and
/// decode-serving options force tiling off for tensor-id stability.
#[test]
fn option_defaults_keep_partition_level() {
    if std::env::var("LANCET_TILE_COUNT").is_err() {
        assert!(LancetOptions::default().tile.is_none());
    }
    assert!(LancetOptions::decode_serving().tile.is_none());
}
