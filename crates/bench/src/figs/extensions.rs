//! Extension studies beyond the paper's figures, following its §8
//! discussion: shared-expert architectures, capacity-factor sensitivity,
//! optimizer hyper-parameters (ρ, γ, ι), and gradient all-reduce
//! interference.

use crate::{ms, paper_config, print_table, Model, Record};
use lancet_baselines::{run_system, System};
use lancet_core::{Lancet, LancetOptions, PartitionOptions};
use lancet_cost::{ClusterKind, ClusterSpec, CommModel, ComputeModel};
use lancet_ir::{BackwardOptions, GateKind};
use lancet_models::{build_forward, GptMoeConfig};
use lancet_sim::{SimConfig, SimReport, Simulator};

fn simulate(spec: &ClusterSpec, cfg: &GptMoeConfig, graph: &lancet_ir::Graph) -> SimReport {
    let sim = Simulator::new(
        ComputeModel::new(spec.device.clone()),
        CommModel::new(spec.clone()),
        SimConfig {
            capacity_factor: cfg.capacity_factor,
            memory_overhead: 1.1,
            ..SimConfig::new(cfg.gpus)
        },
    );
    sim.simulate(graph)
}

/// Shared-expert architectures (DeepSeek-MoE / PR-MoE, paper §8): the
/// shared branch's compute overlaps the all-to-all even without Lancet,
/// and Lancet stacks on top.
pub fn shared_expert(quick: bool) -> Vec<Record> {
    let gpus = if quick { 16 } else { 32 };
    let spec = ClusterSpec::v100(gpus / 8);
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for shared in [false, true] {
        let cfg = paper_config(Model::S, ClusterKind::V100, gpus, GateKind::Switch)
            .with_shared_expert(shared);
        for optimized in [false, true] {
            let fwd = build_forward(&cfg).expect("build").graph;
            let lancet = Lancet::new(spec.clone(), gpus, LancetOptions::default());
            let graph = if optimized {
                lancet.optimize(fwd).expect("optimize").graph
            } else {
                lancet.baseline(fwd).expect("baseline").graph
            };
            let report = simulate(&spec, &cfg, &graph);
            rows.push(vec![
                if shared { "shared expert" } else { "standard" }.into(),
                if optimized { "Lancet" } else { "RAF" }.into(),
                ms(report.iteration_time),
                ms(report.exposed_comm()),
                format!("{:.0}%", report.overlap_ratio() * 100.0),
            ]);
            let mut r = Record::new("ext_shared_expert").with_report(&report);
            r.model = cfg.name.clone();
            r.cluster = "V100".into();
            r.gpus = gpus;
            r.system = format!(
                "{}{}",
                if optimized { "Lancet" } else { "RAF" },
                if shared { "+shared" } else { "" }
            );
            records.push(r);
        }
    }
    print_table(
        &format!("Extension — shared-expert overlap (GPT2-S, {gpus} V100 GPUs)"),
        &["Architecture", "System", "Iteration (ms)", "Exposed comm (ms)", "Comm hidden"],
        &rows,
    );
    println!(
        "\nReading: the shared branch alone already hides part of the all-to-all \
         (paper §8: PR-MoE/DeepSeek-MoE architectures facilitate overlapping); \
         Lancet's whole-graph overlap stacks on top."
    );
    records
}

/// Capacity-factor sensitivity: higher factors pad the uniform all-to-all
/// more, widening the advantage of Lancet's no-padding irregular variant.
pub fn capacity_factor(quick: bool) -> Vec<Record> {
    let gpus = if quick { 16 } else { 32 };
    let factors = if quick { vec![1.25, 2.0] } else { vec![1.0, 1.25, 1.5, 2.0] };
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for cf in factors {
        let mut cfg = paper_config(Model::S, ClusterKind::V100, gpus, GateKind::Switch);
        cfg.capacity_factor = cf;
        let lancet = run_system(System::Lancet, &cfg, ClusterKind::V100).expect("run");
        let raf = run_system(System::Raf, &cfg, ClusterKind::V100).expect("run");
        let speedup = raf.report.iteration_time / lancet.report.iteration_time;
        rows.push(vec![
            format!("{cf:.2}"),
            ms(raf.report.iteration_time),
            ms(lancet.report.iteration_time),
            format!("{speedup:.3}x"),
        ]);
        let mut r = Record::new("ext_capacity_factor").with_report(&lancet.report);
        r.model = cfg.name.clone();
        r.cluster = "V100".into();
        r.gpus = gpus;
        r.system = "Lancet".into();
        r.extra = Some(cf);
        records.push(r);
    }
    print_table(
        &format!("Extension — capacity-factor sensitivity (GPT2-S, {gpus} V100 GPUs)"),
        &["Capacity factor", "RAF (ms)", "Lancet (ms)", "Speedup"],
        &rows,
    );
    records
}

/// Optimization hyper-parameters ρ / γ / ι (paper §6): quality vs
/// optimization-time tradeoff.
pub fn hyperparams(quick: bool) -> Vec<Record> {
    let gpus = 16;
    let spec = ClusterSpec::v100(2);
    let cfg = paper_config(Model::S, ClusterKind::V100, gpus, GateKind::Switch);
    let grid: Vec<(usize, usize, usize)> = if quick {
        vec![(8, 5, 24), (2, 5, 24)]
    } else {
        vec![
            (8, 5, 24), // defaults
            (2, 5, 24),
            (4, 5, 24),
            (8, 2, 24),
            (8, 10, 24),
            (8, 5, 8),
            (8, 5, 48),
        ]
    };
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for (rho, gamma, iota) in grid {
        let options = LancetOptions {
            partition: PartitionOptions {
                max_partitions: rho,
                groups_per_gap: gamma,
                max_range_groups: iota,
                ..Default::default()
            },
            ..LancetOptions::default()
        };
        let lancet = Lancet::new(spec.clone(), gpus, options);
        let fwd = build_forward(&cfg).expect("build").graph;
        let outcome = lancet.optimize(fwd).expect("optimize");
        let report = simulate(&spec, &cfg, &outcome.graph);
        rows.push(vec![
            format!("ρ={rho} γ={gamma} ι={iota}"),
            format!("{:.2}", outcome.optimization_time.as_secs_f64()),
            format!("{}", outcome.partition.as_ref().map(|p| p.evaluations).unwrap_or(0)),
            ms(report.iteration_time),
        ]);
        let mut r = Record::new("ext_hyperparams").with_report(&report);
        r.model = cfg.name.clone();
        r.cluster = "V100".into();
        r.gpus = gpus;
        r.system = format!("rho{rho}_gamma{gamma}_iota{iota}");
        r.opt_time_s = Some(outcome.optimization_time.as_secs_f64());
        records.push(r);
    }
    print_table(
        "Extension — optimizer hyper-parameters (GPT2-S, 16 V100 GPUs)",
        &["Hyper-parameters", "Opt time (s)", "P(i,n,k) evals", "Iteration (ms)"],
        &rows,
    );
    println!(
        "\nReading: larger ρ/ι explore more pipelines (higher optimization time) \
         with diminishing iteration-time returns — why the paper caps them."
    );
    records
}

/// Gradient all-reduce interference (paper §8): data-parallel gradient
/// synchronization shares the communication stream with all-to-alls —
/// unless it is arranged onto a separate channel, as the paper suggests
/// for tensor/sequence-parallel traffic.
pub fn allreduce_interference(quick: bool) -> Vec<Record> {
    let gpus = if quick { 16 } else { 32 };
    let spec = ClusterSpec::v100(gpus / 8);
    let cfg = paper_config(Model::S, ClusterKind::V100, gpus, GateKind::Switch);
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for (allreduce, dual) in [(false, false), (true, false), (true, true)] {
        let backward = BackwardOptions { sgd_lr: None, optimizer: Default::default(), allreduce_grads: allreduce };
        for optimized in [false, true] {
            let options = LancetOptions { backward: backward.clone(), ..LancetOptions::default() };
            let lancet = Lancet::new(spec.clone(), gpus, options);
            let fwd = build_forward(&cfg).expect("build").graph;
            let graph = if optimized {
                lancet.optimize(fwd).expect("optimize").graph
            } else {
                lancet.baseline(fwd).expect("baseline").graph
            };
            let sim = lancet_sim::Simulator::new(
                ComputeModel::new(spec.device.clone()),
                CommModel::new(spec.clone()),
                lancet_sim::SimConfig {
                    separate_collective_channel: dual,
                    capacity_factor: cfg.capacity_factor,
                    ..lancet_sim::SimConfig::new(gpus)
                },
            );
            let report = sim.simulate(&graph);
            let sync_label = match (allreduce, dual) {
                (false, _) => "expert-only",
                (true, false) => "all-reduce, shared channel",
                (true, true) => "all-reduce, separate channel",
            };
            rows.push(vec![
                sync_label.into(),
                if optimized { "Lancet" } else { "RAF" }.into(),
                ms(report.iteration_time),
                ms(report.comm_busy),
                ms(report.exposed_comm()),
            ]);
            let mut r = Record::new("ext_allreduce").with_report(&report);
            r.model = cfg.name.clone();
            r.cluster = "V100".into();
            r.gpus = gpus;
            r.system = format!(
                "{}{}{}",
                if optimized { "Lancet" } else { "RAF" },
                if allreduce { "+allreduce" } else { "" },
                if dual { "+dualchannel" } else { "" }
            );
            records.push(r);
        }
    }
    print_table(
        &format!("Extension — gradient all-reduce interference (GPT2-S, {gpus} V100 GPUs)"),
        &["Gradient sync", "System", "Iteration (ms)", "Comm busy (ms)", "Exposed comm (ms)"],
        &rows,
    );
    println!(
        "\nReading: data-parallel all-reduce contends with all-to-alls on a shared \
         stream (paper §8); moving it to a separate channel lets it run \
         concurrently with the MoE traffic, and Lancet's passes deliver their \
         gains in every arrangement."
    );
    records
}

/// FSDP/ZeRO-3 study (paper §8): weight sharding inserts forward
/// all-gathers; bounded-lookahead prefetch scheduling hides them behind
/// the previous block's compute, and Lancet's MoE overlap still applies.
pub fn fsdp(quick: bool) -> Vec<Record> {
    use lancet_core::prefetch_allgathers;
    use lancet_ir::build_backward;
    // The A100 cluster: its 4×100 Gb/s NICs leave scheduling headroom —
    // on the V100 cluster FSDP gather traffic saturates the single NIC
    // and no schedule can recover it (bandwidth-, not scheduling-bound).
    let gpus = if quick { 16 } else { 32 };
    let spec = ClusterSpec::a100(gpus / 8);
    let cfg = paper_config(Model::S, ClusterKind::A100, gpus, GateKind::Switch).with_fsdp(true);
    let mut rows = Vec::new();
    let mut records = Vec::new();

    // Replicated reference.
    let plain_cfg = paper_config(Model::S, ClusterKind::A100, gpus, GateKind::Switch);
    let lancet = Lancet::new(spec.clone(), gpus, LancetOptions::default());
    let replicated = lancet.baseline(build_forward(&plain_cfg).expect("build").graph).expect("baseline");
    let rep = simulate(&spec, &plain_cfg, &replicated.graph);
    rows.push(vec![
        "replicated".into(),
        "RAF".into(),
        ms(rep.iteration_time),
        ms(rep.exposed_comm()),
        format!("{:.1} GB", rep.peak_memory as f64 / 1e9),
    ]);

    // A transformer block gathers ~6 sharded weights, so a lookahead of
    // one *block* is L≈6 gathers.
    for (label, lookahead, optimize) in [
        ("FSDP, no prefetch", 0usize, false),
        ("FSDP, prefetch L=1", 1, false),
        ("FSDP, prefetch L=6 (1 block)", 6, false),
        ("FSDP, prefetch L=12 (2 blocks)", 12, false),
        ("FSDP, prefetch L=6 + Lancet", 6, true),
    ] {
        let graph = if optimize {
            let options = LancetOptions { prefetch_lookahead: lookahead, ..Default::default() };
            let lancet = Lancet::new(spec.clone(), gpus, options);
            lancet.optimize(build_forward(&cfg).expect("build").graph).expect("optimize").graph
        } else {
            let mut g = build_forward(&cfg).expect("build").graph;
            build_backward(&mut g, &BackwardOptions::default()).expect("autodiff");
            prefetch_allgathers(&mut g, lookahead).expect("prefetch");
            g
        };
        let report = simulate(&spec, &cfg, &graph);
        rows.push(vec![
            label.into(),
            if optimize { "Lancet".into() } else { "RAF".into() },
            ms(report.iteration_time),
            ms(report.exposed_comm()),
            format!("{:.1} GB", report.peak_memory as f64 / 1e9),
        ]);
        let mut r = Record::new("ext_fsdp").with_report(&report);
        r.model = cfg.name.clone();
        r.cluster = "A100".into();
        r.gpus = gpus;
        r.system = label.into();
        records.push(r);
    }
    print_table(
        &format!("Extension — FSDP weight sharding + prefetch scheduling (GPT2-S, {gpus} A100 GPUs)"),
        &["Configuration", "Passes", "Iteration (ms)", "Exposed comm (ms)", "Peak memory"],
        &rows,
    );
    println!(
        "\nReading: FSDP adds all-gather traffic on the all-to-all's stream \
         (paper §8); bounded-lookahead prefetching hides most of it, and \
         Lancet's passes stack on top. Sharding also cuts parameter memory."
    );
    records
}

/// Hierarchical all-to-all study (paper §8: better communication
/// implementations): node-aggregated two-stage exchange vs naive per-peer
/// exchange, across message sizes and end-to-end.
pub fn hierarchical_a2a(quick: bool) -> Vec<Record> {
    use lancet_cost::CommModel;
    let gpus = if quick { 32 } else { 64 };
    let spec = ClusterSpec::v100(gpus / 8);
    let comm = CommModel::new(spec.clone());
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for bytes_pow in [16u32, 18, 20, 22, 24, 26] {
        let bytes = 1u64 << bytes_pow;
        let naive = comm.all_to_all_time(bytes, gpus);
        let hier = comm.hierarchical_all_to_all_time(bytes, gpus);
        rows.push(vec![
            format!("{} KiB", bytes >> 10),
            format!("{:.3}", naive * 1e3),
            format!("{:.3}", hier * 1e3),
            format!("{:.2}x", naive / hier),
        ]);
        let mut r = Record::new("ext_hier_a2a");
        r.cluster = "V100".into();
        r.gpus = gpus;
        r.system = "hierarchical".into();
        r.extra = Some(bytes as f64);
        r.iteration_ms = Some(hier * 1e3);
        records.push(r);
    }
    print_table(
        &format!("Extension — hierarchical vs naive all-to-all latency ({gpus} V100 GPUs)"),
        &["Buffer / device", "Naive (ms)", "Hierarchical (ms)", "Speedup"],
        &rows,
    );

    // End-to-end: a small-batch configuration where per-peer messages are
    // tiny and aggregation pays off.
    let cfg = paper_config(Model::L, ClusterKind::V100, gpus, GateKind::Switch).with_batch(2);
    let lancet = Lancet::new(spec.clone(), gpus, LancetOptions::default());
    let graph = lancet.baseline(build_forward(&cfg).expect("build").graph).expect("baseline").graph;
    let mut rows = Vec::new();
    for hier in [false, true] {
        let sim = lancet_sim::Simulator::new(
            ComputeModel::new(spec.device.clone()),
            CommModel::new(spec.clone()),
            lancet_sim::SimConfig { hierarchical_a2a: hier, ..lancet_sim::SimConfig::new(gpus) },
        );
        let report = sim.simulate(&graph);
        rows.push(vec![
            if hier { "hierarchical" } else { "naive" }.into(),
            ms(report.iteration_time),
            ms(report.comm_busy),
        ]);
        let mut r = Record::new("ext_hier_a2a").with_report(&report);
        r.model = cfg.name.clone();
        r.cluster = "V100".into();
        r.gpus = gpus;
        r.system = if hier { "e2e-hierarchical" } else { "e2e-naive" }.into();
        records.push(r);
    }
    print_table(
        &format!("Extension — end-to-end with hierarchical all-to-all (GPT2-L, batch 2, {gpus} V100 GPUs)"),
        &["All-to-all implementation", "Iteration (ms)", "Comm busy (ms)"],
        &rows,
    );
    println!(
        "\nReading: aggregating inter-node messages by node pays off exactly when \
         per-peer transfers are small (many GPUs, small buffers) — the regime the \
         paper's §8 flags for future communication work."
    );
    records
}

/// Activation recomputation (gradient checkpointing): memory/time
/// tradeoff, and its interaction with Lancet's overlap (recomputed MoE
/// layers re-run their all-to-alls).
pub fn recompute(quick: bool) -> Vec<Record> {
    use lancet_core::recompute_segments;
    use lancet_ir::build_backward;
    use lancet_models::block_boundaries;
    let gpus = if quick { 16 } else { 32 };
    let spec = ClusterSpec::a100(gpus / 8);
    let cfg = paper_config(Model::L, ClusterKind::A100, gpus, GateKind::Switch);
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for (label, ckpt, optimize) in [
        ("no checkpointing", false, false),
        ("checkpoint every block", true, false),
        ("checkpoint + Lancet", true, true),
    ] {
        let lancet = Lancet::new(spec.clone(), gpus, LancetOptions::default());
        let fwd = build_forward(&cfg).expect("build").graph;
        let mut graph = if optimize {
            lancet.optimize(fwd).expect("optimize").graph
        } else {
            let mut g = fwd;
            build_backward(&mut g, &BackwardOptions::default()).expect("autodiff");
            g
        };
        if ckpt {
            let segments = block_boundaries(&graph);
            recompute_segments(&mut graph, &segments).expect("recompute");
        }
        let report = simulate(&spec, &cfg, &graph);
        rows.push(vec![
            label.into(),
            ms(report.iteration_time),
            ms(report.compute_busy),
            format!("{:.1} GB", report.peak_memory as f64 / 1e9),
        ]);
        let mut r = Record::new("ext_recompute").with_report(&report);
        r.model = cfg.name.clone();
        r.cluster = "A100".into();
        r.gpus = gpus;
        r.system = label.into();
        records.push(r);
    }
    print_table(
        &format!("Extension — activation recomputation (GPT2-L, {gpus} A100 GPUs)"),
        &["Configuration", "Iteration (ms)", "Compute busy (ms)", "Peak memory"],
        &rows,
    );
    println!(
        "\nReading: checkpointing trades ~forward-sized extra compute for a large \
         activation-memory cut; the re-run MoE all-to-alls give Lancet extra \
         communication to hide, so the overlap passes compose with it."
    );
    records
}

/// Mixtral-style architecture (paper §8 cites Mixtral): every-layer MoE,
/// top-2 routing, RMSNorm, SwiGLU experts — twice the all-to-all traffic
/// per layer of the GPT-2 variants.
pub fn mixtral(quick: bool) -> Vec<Record> {
    let gpus = if quick { 16 } else { 32 };
    let mut records = Vec::new();
    let mut rows = Vec::new();
    let cfg = GptMoeConfig::mixtral_moe(gpus).with_batch(8);
    for system in System::headline() {
        let out = run_system(system, &cfg, ClusterKind::V100).expect("run");
        rows.push(vec![
            system.name().into(),
            ms(out.report.iteration_time),
            ms(out.report.compute_busy),
            ms(out.report.exposed_comm()),
            format!("{:.0}%", out.report.overlap_ratio() * 100.0),
        ]);
        let mut r = Record::new("ext_mixtral").with_report(&out.report);
        r.model = cfg.name.clone();
        r.cluster = "V100".into();
        r.gpus = gpus;
        r.system = system.name().into();
        records.push(r);
    }
    print_table(
        &format!("Extension — Mixtral-style model ({} layers, every-layer top-2 MoE, {gpus} V100 GPUs)", cfg.layers),
        &["System", "Iteration (ms)", "Compute busy (ms)", "Exposed comm (ms)", "Comm hidden"],
        &rows,
    );
    println!(
        "\nReading: with an MoE layer in *every* block and top-2 routing, the \
         all-to-all volume doubles twice over — exactly the regime where \
         whole-graph overlap matters most (paper §8 names Mixtral as a target). \
         (The Mixtral DP favours Tutel-style capacity slicing: the paper's \
         static-shape cost approximation prices irregular and capacity \
         pipelines identically, and with an MoE in every block there is \
         little non-MoE compute to justify batch pipelines.)"
    );

    // MegaBlocks-style block-sparse expert kernels (paper §8), measured
    // on GPT2-S where Lancet's chosen plans contain irregular pipelines.
    let cfg = paper_config(Model::S, ClusterKind::V100, gpus, GateKind::Switch);
    let spec = ClusterSpec::v100(gpus / 8);
    let lancet = Lancet::new(spec.clone(), gpus, LancetOptions::default());
    let graph = lancet.optimize(build_forward(&cfg).expect("build").graph).expect("optimize").graph;
    let mut rows = Vec::new();
    for sparse in [false, true] {
        let sim = lancet_sim::Simulator::new(
            ComputeModel::new(spec.device.clone()),
            CommModel::new(spec.clone()),
            lancet_sim::SimConfig {
                block_sparse_experts: sparse,
                capacity_factor: cfg.capacity_factor,
                ..lancet_sim::SimConfig::new(gpus)
            },
        );
        let report = sim.simulate(&graph);
        rows.push(vec![
            if sparse { "Lancet + block-sparse experts" } else { "Lancet (padded experts)" }.into(),
            ms(report.iteration_time),
            ms(report.compute_busy),
            ms(report.exposed_comm()),
        ]);
        let mut r = Record::new("ext_megablocks").with_report(&report);
        r.model = cfg.name.clone();
        r.cluster = "V100".into();
        r.gpus = gpus;
        r.system = if sparse { "Lancet+megablocks" } else { "Lancet" }.into();
        records.push(r);
    }
    print_table(
        &format!("Extension — MegaBlocks-style expert kernels (GPT2-S, {gpus} V100 GPUs)"),
        &["Kernels", "Iteration (ms)", "Compute busy (ms)", "Exposed comm (ms)"],
        &rows,
    );
    records
}
