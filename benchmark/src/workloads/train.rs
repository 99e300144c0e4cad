//! `train-step`: GPT2-S-MoE geometry cut to one dense and one MoE block,
//! compiled once by `Lancet::optimize` (autodiff with gradient
//! all-reduce and SGD), then iterated through `Executor::run` with the
//! updated weights fed back each step. Closed loop, one caller.

use std::time::Instant;

use lancet_core::{Lancet, LancetOptions, OptimizeOutcome};
use lancet_cost::{ClusterKind, ClusterSpec};
use lancet_exec::{init_weights, Bindings, Executor};
use lancet_ir::{BackwardOptions, GateKind, Graph, Op, TensorId};
use lancet_models::{build_forward, GptMoeConfig};
use lancet_tensor::{Tensor, TensorRng};

use super::{core_layers, exec_layers, mix, timed, Ctx, SETUP_REPEATS};
use crate::json::Json;
use crate::metrics::Outcome;
use crate::replay::{bit_identical, live_bytes, replay};
use crate::stats::{median, tail};
use crate::{checks, err};

/// Expert-parallel devices.
pub const DEVICES: usize = 2;
/// SGD learning rate.
const LR: f32 = 0.05;

/// The model: GPT2-S-MoE widths (hidden 768, 12 heads, FFN 3072, Switch
/// gate, 2 experts per device) with 2 blocks, seq 16, vocab 256, batch 4
/// per device.
pub fn config() -> GptMoeConfig {
    GptMoeConfig::gpt2_s_moe(DEVICES, GateKind::Switch)
        .with_layers(2)
        .with_seq(16)
        .with_vocab(256)
        .with_batch(4)
}

fn options() -> LancetOptions {
    LancetOptions {
        backward: BackwardOptions { sgd_lr: Some(LR), allreduce_grads: true, ..BackwardOptions::default() },
        ..LancetOptions::default()
    }
}

/// A compiled, bound training program.
struct Program {
    forward: Graph,
    lancet: Lancet,
    opt: OptimizeOutcome,
    /// Weights and this run's fixed batch, before the first step.
    initial: Bindings,
    loss: TensorId,
    /// `(weight, updated weight)` pairs written by the SGD instructions.
    updates: Vec<(TensorId, TensorId)>,
}

/// Binds seeded weights and a seeded batch of token ids and targets.
fn bind(graph: &Graph, seed: u64, vocab: usize) -> Bindings {
    let mut b = init_weights(graph, DEVICES, mix(seed, 1));
    for t in graph.inputs() {
        let def = graph.tensor(t);
        for d in 0..DEVICES {
            let mut rng = TensorRng::seed(mix(seed, 2 + t.0 as u64 * 8 + d as u64));
            let vals = (0..def.shape.volume()).map(|_| rng.below(vocab) as f32).collect();
            b.set(d, t, Tensor::from_vec(def.shape.dims().to_vec(), vals).expect("volume matches"));
        }
    }
    b
}

fn compile(ctx: &Ctx) -> Result<Program, String> {
    let cfg = config();
    let forward =
        ctx.tracer.span("models.build_forward", "models", || build_forward(&cfg)).map_err(err)?.graph;
    let lancet = ctx.tracer.span("cost.comm_model", "cost", || {
        Lancet::new(ClusterSpec::of(ClusterKind::V100, 1), DEVICES, options())
    });
    let opt = ctx.tracer.span("core.optimize", "core", || lancet.optimize(forward.clone())).map_err(err)?;
    ctx.tracer
        .span("exec.validate", "exec", || Executor::new(&opt.graph, DEVICES).map(|_| ()))
        .map_err(err)?;
    let initial = ctx.tracer.span("exec.bind", "exec", || bind(&opt.graph, ctx.seed, cfg.vocab));
    let graph = &opt.graph;
    let loss = graph
        .instrs()
        .iter()
        .find(|i| matches!(i.op, Op::CrossEntropy))
        .map(|i| i.outputs[0])
        .ok_or("training graph has no loss")?;
    let updates = graph
        .instrs()
        .iter()
        .filter(|i| matches!(i.op, Op::SgdUpdate { .. }))
        .map(|i| (i.inputs[0], i.outputs[0]))
        .collect();
    Ok(Program { forward, lancet, opt, initial, loss, updates })
}

impl Program {
    /// One training step from `state`: returns the next state and the loss.
    fn step(&self, ctx: &Ctx, exec: &Executor<'_>, state: &Bindings) -> Result<(Bindings, f32), String> {
        let out = ctx.tracer.span("exec.run", "exec", || exec.run(state.clone())).map_err(err)?;
        let loss = out.get(0, self.loss).ok_or("loss not produced")?.data()[0];
        let next = ctx.tracer.span("train.feed_back", "bench", || {
            let mut next = state.clone();
            for &(w, new) in &self.updates {
                for d in 0..DEVICES {
                    next.set(d, w, out.get(d, new).expect("SGD output produced").clone());
                }
            }
            next
        });
        Ok((next, loss))
    }

    /// The first-step loss of the unoptimized (`Lancet::baseline`) graph
    /// on the same weights and batch, bound by tensor name.
    fn baseline_loss(&self) -> Result<f32, String> {
        let base = self.lancet.baseline(self.forward.clone()).map_err(err)?.graph;
        let by_name = |name: &str| self.opt.graph.tensors().iter().find(|t| t.name == name).map(|t| t.id);
        let mut b = Bindings::new(DEVICES);
        for t in base.weights().into_iter().chain(base.inputs()) {
            let name = &base.tensor(t).name;
            let src = by_name(name).ok_or_else(|| format!("optimized graph has no `{name}`"))?;
            for d in 0..DEVICES {
                b.set(d, t, self.initial.get(d, src).ok_or("unbound initial value")?.clone());
            }
        }
        let out = Executor::new(&base, DEVICES).and_then(|e| e.run(b)).map_err(err)?;
        let loss =
            base.instrs().iter().find(|i| matches!(i.op, Op::CrossEntropy)).ok_or("no loss")?.outputs[0];
        Ok(out.get(0, loss).ok_or("baseline loss not produced")?.data()[0])
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let mut program = None;
    for _ in 0..SETUP_REPEATS {
        drop(program.take());
        let t = Instant::now();
        program = Some(compile(ctx)?);
        o.setup_s.push(t.elapsed().as_secs_f64());
    }
    let p = program.expect("set up at least once");
    let exec = Executor::new_prevalidated(&p.opt.graph, DEVICES);
    let cfg = config();
    let tokens_per_step = (cfg.batch * cfg.seq * DEVICES) as f64;

    let mut state = p.initial.clone();
    let mut losses = Vec::new();
    for (traced, seconds) in ctx.phases() {
        ctx.tracer.set_enabled(traced);
        let ms = timed(seconds, 2, || {
            let (next, loss) = p.step(ctx, &exec, &state)?;
            state = next;
            losses.push(loss);
            Ok::<_, String>(())
        })?;
        if traced {
            o.traced_op_ms = ms;
        } else {
            o.throughput_per_s = tokens_per_step * ms.len() as f64 / (ms.iter().sum::<f64>() / 1e3);
            o.op_ms = ms;
        }
    }
    ctx.tracer.set_enabled(ctx.trace);
    o.attempted = losses.len() as u64;
    let baseline = p.baseline_loss()?;
    o.check = checks::train(&losses, baseline);
    o.note("steps", Json::Int(o.op_ms.len() as i64));
    o.note("step_p90_ms", tail(&o.op_ms, 0.9).map_or(Json::Null, Json::Num));
    o.note("tokens_per_step", Json::Num(tokens_per_step));
    o.note("loss_first", Json::Num(f64::from(losses[0])));
    o.note("loss_last", Json::Num(f64::from(*losses.last().expect("steps ran"))));
    o.note("baseline_loss_first", Json::Num(f64::from(baseline)));
    o.note("partition_ranges", Json::Int(p.opt.partition.as_ref().map_or(0, |r| r.ranges.len()) as i64));

    if ctx.trace {
        attribute(ctx, &p, &exec, &state, &mut o);
    }
    Ok(o)
}

/// Per-layer numbers: set-up spans, the optimizer's own statistics, and
/// an op-level replay of one more step checked against `Executor::run`.
fn attribute(ctx: &Ctx, p: &Program, exec: &Executor<'_>, state: &Bindings, o: &mut Outcome) {
    let med = |name: &str| median(&ctx.tracer.durations_ms(name)).unwrap_or(0.0);
    o.layer("models.build_forward_ms", med("models.build_forward"));
    o.layer("cost.comm_model_ms", med("cost.comm_model"));
    o.layer("exec.validate_ms", med("exec.validate"));
    o.layer("exec.run_ms", med("exec.run"));
    core_layers(&p.opt, o);

    let reference = match exec.run(state.clone()) {
        Ok(r) => r,
        Err(e) => return o.check = Err(format!("reference step for the replay failed: {e}")),
    };
    let replayed =
        ctx.tracer.span("replay.step", "bench", || replay(&p.opt.graph, state.clone(), DEVICES, &ctx.tracer));
    match replayed {
        Ok((out, stats)) => {
            if let Err(e) = bit_identical(&p.opt.graph, &reference, &out, DEVICES) {
                o.check = Err(format!("op replay diverged from Executor::run: {e}"));
            }
            exec_layers(&stats, o);
            o.layer("exec.overhead_ms", med("exec.run") - stats.op_ms);
            o.layer("exec.live_mb_end", live_bytes(&p.opt.graph, &reference, DEVICES) / 1e6);
        }
        Err(e) => o.check = Err(e),
    }
}
