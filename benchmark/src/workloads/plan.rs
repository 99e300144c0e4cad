//! `plan-paper`: compile only, at paper scale — GPT2-L-MoE with a Switch
//! gate on 32 V100s (4 nodes, NIC-bound). Each timed repeat builds the
//! forward graph, optimizes it with a fresh `Lancet` (cold partition
//! memo), and simulates the plan. No tensor is executed.

use std::time::Instant;

use lancet_core::{Lancet, LancetOptions, OptimizeOutcome};
use lancet_cost::{ClusterKind, ClusterSpec, CommModel, ComputeModel};
use lancet_ir::GateKind;
use lancet_models::{build_forward, GptMoeConfig};
use lancet_sim::{to_chrome_trace, SimConfig, SimReport, Simulator};

use super::{core_layers, mix, timed, Ctx, SETUP_REPEATS};
use crate::checks::{self, PlanResult};
use crate::err;
use crate::json::Json;
use crate::metrics::Outcome;
use crate::stats::{median, tail};

/// Devices of the simulated cluster.
pub const GPUS: usize = 32;

fn spec() -> ClusterSpec {
    ClusterSpec::of(ClusterKind::V100, GPUS.div_ceil(8))
}

fn config() -> GptMoeConfig {
    GptMoeConfig::gpt2_l_moe(GPUS, GateKind::Switch)
}

/// The simulator; the seed drives its sampled MoE loads.
fn simulator(seed: u64) -> Simulator {
    let spec = spec();
    Simulator::new(
        ComputeModel::new(spec.device.clone()),
        CommModel::new(spec),
        SimConfig::new(GPUS).with_seed(mix(seed, 7)),
    )
}

/// Set-up: the simulator, the unoptimized baseline plan every compile
/// is checked against, and one warm-up compile (the cold compile a
/// one-shot `lancet optimize` pays). Returns the baseline's simulated
/// iteration time.
fn setup(ctx: &Ctx) -> Result<(Simulator, f64), String> {
    let sim = simulator(ctx.seed);
    let lancet = Lancet::new(spec(), GPUS, LancetOptions::default());
    let forward = build_forward(&config()).map_err(err)?.graph;
    let base = lancet.baseline(forward).map_err(err)?;
    let iter = sim.simulate(&base.graph).iteration_time;
    ctx.tracer.span("plan.warm_up", "bench", || compile(&Ctx::new(ctx.seed, ctx.seconds, false), &sim))?;
    Ok((sim, iter))
}

fn compile(ctx: &Ctx, sim: &Simulator) -> Result<(OptimizeOutcome, SimReport), String> {
    let forward =
        ctx.tracer.span("models.build_forward", "models", || build_forward(&config())).map_err(err)?.graph;
    let lancet =
        ctx.tracer.span("cost.comm_model", "cost", || Lancet::new(spec(), GPUS, LancetOptions::default()));
    let opt = ctx.tracer.span("core.optimize", "core", || lancet.optimize(forward)).map_err(err)?;
    let report = ctx.tracer.span("sim.simulate", "sim", || sim.simulate(&opt.graph));
    Ok((opt, report))
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        drop(prepared.take());
        let t = Instant::now();
        prepared = Some(setup(ctx)?);
        o.setup_s.push(t.elapsed().as_secs_f64());
    }
    let (sim, baseline_iter) = prepared.expect("set up at least once");

    let mut results = Vec::new();
    let mut last = None;
    for (traced, seconds) in ctx.phases() {
        ctx.tracer.set_enabled(traced);
        let ms = timed(seconds, 2, || {
            let (opt, report) = compile(ctx, &sim)?;
            results.push(PlanResult { valid: true, oom: report.oom, iter_s: report.iteration_time });
            last = Some((opt, report));
            Ok::<_, String>(())
        })?;
        if traced {
            o.traced_op_ms = ms;
        } else {
            o.throughput_per_s = ms.len() as f64 / (ms.iter().sum::<f64>() / 1e3);
            o.op_ms = ms;
        }
    }
    ctx.tracer.set_enabled(ctx.trace);
    let (opt, report) = last.expect("compiled at least once");
    if let Some(r) = results.last_mut() {
        r.valid = opt.graph.validate().is_ok();
    }
    o.attempted = results.len() as u64;
    o.check = checks::plan(&results, baseline_iter);
    o.note("compiles", Json::Int(o.op_ms.len() as i64));
    o.note("plan_p90_ms", tail(&o.op_ms, 0.9).map_or(Json::Null, Json::Num));
    o.note("sim_iter_ms", Json::Num(report.iteration_time * 1e3));
    o.note("sim_exposed_comm_ms", Json::Num(report.exposed_comm() * 1e3));
    o.note("baseline_sim_iter_ms", Json::Num(baseline_iter * 1e3));

    if ctx.trace {
        let med = |name: &str| median(&ctx.tracer.durations_ms(name)).unwrap_or(0.0);
        o.layer("models.build_forward_ms", med("models.build_forward"));
        o.layer("cost.comm_model_ms", med("cost.comm_model"));
        o.layer("sim.simulate_ms", med("sim.simulate"));
        core_layers(&opt, &mut o);
        let sim_s = report.iteration_time;
        o.layer("core.predict_error_pct", (opt.predicted_time - sim_s).abs() / sim_s * 100.0);
        o.layer("sim.iter_ms", sim_s * 1e3);
        o.layer("sim.exposed_comm_ms", report.exposed_comm() * 1e3);
        o.layer("sim.comm_busy_ms", report.comm_busy * 1e3);
        o.layer("sim.overlap_frac", report.overlap_ratio());
        o.sim_trace = Some(to_chrome_trace(&report));
    }
    Ok(o)
}
