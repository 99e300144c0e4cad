//! `serve-open`: serving-scaled GPT2-S (4 layers, hidden 768, seq 8,
//! vocab 256) behind `ServeRuntime` with the partition pass on and
//! micro-batches of up to 4. Poisson arrivals at a fixed rate (open
//! loop, timed from each request's due time), then fixed-size bursts
//! drained back to back; capacity is their median drain rate.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use lancet_cost::ClusterKind;
use lancet_exec::{Bindings, Executor};
use lancet_ir::{GateKind, Op};
use lancet_models::GptMoeConfig;
use lancet_serve::{
    canonical_weights, open_loop_trace, Plan, PlanKey, ServeConfig, ServeError, ServeRuntime, Ticket,
};
use lancet_tensor::Tensor;

use super::{exec_layers, mix, timed, Ctx, SETUP_REPEATS};
use crate::checks::{self, Tally};
use crate::json::Json;
use crate::metrics::Outcome;
use crate::replay::{bit_identical, live_bytes, replay, same_bits};
use crate::stats::{median, tail, Arrival};
use crate::{err, workloads::ms_since};

/// Open-loop arrival rate, requests/s. On a 2-core AVX-512 host a lone
/// request executes in about 32 ms (about 31/s at batch 1) and full
/// batches drain about 52/s. At 8/s the executor is busy about a quarter
/// of the time, so the latency median tracks service time rather than
/// queueing, and stays so when a shared host slows the CPUs by half.
pub const RATE_HZ: f64 = 8.0;
/// Largest micro-batch.
pub const MAX_BATCH: usize = 4;
/// Requests in one capacity burst.
pub const BURST: usize = 32;
/// Share of the measurement time spent on open-loop arrivals; the rest
/// drains bursts, and capacity is their median rate.
const OPEN_SHARE: f64 = 0.7;
/// Responses compared against a batch-1 execution.
const SAMPLES: usize = 16;

/// The served model.
pub fn config() -> GptMoeConfig {
    GptMoeConfig::gpt2_s_moe(1, GateKind::Switch).with_layers(4).with_seq(8).with_vocab(256)
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        cluster: ClusterKind::A100,
        queue_depth: 4096,
        max_batch: MAX_BATCH,
        batch_window: Duration::from_millis(2),
        // One exec worker keeps responses in submission order, so the
        // in-order collector times every response when it lands.
        exec_workers: 1,
        partition: true,
        ..ServeConfig::default()
    }
}

fn key(bucket: usize) -> PlanKey {
    let cfg = config();
    PlanKey { model: cfg.name.clone(), bucket, seq: cfg.seq, cluster: ClusterKind::A100, gpus: cfg.gpus }
}

fn setup(ctx: &Ctx, ids: &[f32]) -> Result<std::sync::Arc<ServeRuntime>, String> {
    let cfg = config();
    let rt = ctx.tracer.span("serve.start", "serve", || ServeRuntime::start(serve_config()));
    ctx.tracer.span("serve.register_model", "serve", || rt.register_model(cfg.clone())).map_err(err)?;
    ctx.tracer.span("serve.warm_model", "serve", || rt.warm_model(&cfg.name)).map_err(err)?;
    // First executions of the smallest and largest bucket.
    for n in [1, MAX_BATCH] {
        let tickets: Vec<Ticket> =
            (0..n).map(|_| rt.submit(&cfg.name, ids.to_vec())).collect::<Result<_, _>>().map_err(err)?;
        for t in tickets {
            t.wait().map_err(err)?;
        }
    }
    Ok(rt)
}

/// What one open-loop phase observed.
#[derive(Default)]
struct Phase {
    arrivals: Vec<Arrival>,
    tally: Tally,
    /// `(ids, response)` of sampled successful requests.
    sampled: Vec<(Vec<f32>, Tensor)>,
}

/// Replays `n` Poisson arrivals against `rt`: this thread submits each
/// request when due, a collector thread awaits responses in order.
fn open_loop(ctx: &Ctx, rt: &ServeRuntime, n: usize, seed: u64) -> Phase {
    let cfg = config();
    let trace = open_loop_trace(n, RATE_HZ, cfg.seq, cfg.vocab, seed);
    let every = (n / SAMPLES).max(1);
    let (tx, rx) = mpsc::channel::<(usize, Result<Ticket, ServeError>, f64, f64)>();
    let start = Instant::now();
    std::thread::scope(|s| {
        let collector = s.spawn(|| {
            let mut phase = Phase::default();
            for (i, submitted, due, sent) in rx {
                let result = submitted.and_then(|t| ctx.tracer.span("serve.wait", "serve", || t.wait()));
                let done = start.elapsed().as_secs_f64();
                phase.tally.submitted += 1;
                match result {
                    Ok(logits) => {
                        phase.tally.ok += 1;
                        phase.arrivals.push(Arrival { due, sent, done });
                        if i % every == 0 {
                            phase.sampled.push((trace[i].ids.clone(), logits));
                        }
                    }
                    Err(ServeError::Overloaded { .. }) => phase.tally.rejected += 1,
                    Err(ServeError::DeadlineExceeded { .. }) => phase.tally.shed += 1,
                    Err(_) => phase.tally.failed += 1,
                }
            }
            phase
        });
        for (i, request) in trace.iter().enumerate() {
            if let Some(gap) = request.at.checked_sub(start.elapsed()) {
                std::thread::sleep(gap);
            }
            let sent = start.elapsed().as_secs_f64();
            let submitted =
                ctx.tracer.span("serve.submit", "serve", || rt.submit(&cfg.name, request.ids.clone()));
            tx.send((i, submitted, request.at.as_secs_f64(), sent)).expect("collector alive");
        }
        drop(tx);
        collector.join().expect("collector panicked")
    })
}

/// Submits `BURST` requests at once and returns requests/s to drain them.
fn burst(rt: &ServeRuntime, seed: u64) -> Result<f64, String> {
    let cfg = config();
    let trace = open_loop_trace(BURST, 1.0, cfg.seq, cfg.vocab, seed);
    let start = Instant::now();
    let tickets: Vec<Ticket> =
        trace.iter().map(|r| rt.submit(&cfg.name, r.ids.clone())).collect::<Result<_, _>>().map_err(err)?;
    for t in tickets {
        t.wait().map_err(err)?;
    }
    Ok(BURST as f64 / start.elapsed().as_secs_f64())
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let cfg = config();
    let warm_ids: Vec<f32> = open_loop_trace(1, 1.0, cfg.seq, cfg.vocab, mix(ctx.seed, 30))[0].ids.clone();
    let mut o = Outcome::default();
    let mut runtime: Option<std::sync::Arc<ServeRuntime>> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(rt) = runtime.take() {
            rt.shutdown();
        }
        let t = Instant::now();
        runtime = Some(setup(ctx, &warm_ids)?);
        o.setup_s.push(t.elapsed().as_secs_f64());
    }
    let rt = runtime.expect("set up at least once");

    let mut tally = Tally::default();
    let mut lags = Vec::new();
    let mut sampled = Vec::new();
    for (traced, seconds) in ctx.phases() {
        ctx.tracer.set_enabled(traced);
        let n = (RATE_HZ * seconds * OPEN_SHARE).ceil() as usize;
        let phase = open_loop(ctx, &rt, n, mix(ctx.seed, 40));
        let latencies: Vec<f64> = phase.arrivals.iter().map(Arrival::latency_ms).collect();
        lags.extend(phase.arrivals.iter().map(Arrival::lag_ms));
        tally.submitted += phase.tally.submitted;
        tally.ok += phase.tally.ok;
        tally.rejected += phase.tally.rejected;
        tally.shed += phase.tally.shed;
        tally.failed += phase.tally.failed;
        sampled.extend(phase.sampled);
        if traced {
            o.traced_op_ms = latencies;
        } else {
            o.op_ms = latencies;
        }
    }
    ctx.tracer.set_enabled(false);
    let mut rates = Vec::new();
    let bursts = timed(ctx.seconds * (1.0 - OPEN_SHARE), 3, || {
        rates.push(burst(&rt, mix(ctx.seed, 50 + rates.len() as u64))?);
        Ok::<_, String>(())
    })?;
    o.throughput_per_s = median(&rates).expect("three bursts or more");
    tally.submitted += BURST * bursts.len();
    tally.ok += BURST * bursts.len();
    let stats = rt.stats();
    ctx.tracer.set_enabled(ctx.trace);

    // Sampled responses against a batch-1 execution of the same ids.
    let solo_plan = rt.plan_cache().get(&key(1)).ok_or("no batch-1 plan cached")?;
    let mut pairs = Vec::new();
    for (ids, served) in &sampled {
        let input = Tensor::from_vec(vec![1, cfg.seq], ids.clone()).map_err(err)?;
        let solo = solo_plan.execute(&input).map_err(err)?;
        pairs.push((served.data().to_vec(), solo_plan.response(&solo, 0).data().to_vec()));
    }
    o.attempted = tally.submitted as u64;
    o.failed = (tally.rejected + tally.shed + tally.failed) as u64;
    o.check = checks::serve(tally, &pairs);
    o.note("requests", Json::Int(o.op_ms.len() as i64));
    o.note("rate_hz", Json::Num(RATE_HZ));
    o.note("bursts", Json::Int(rates.len() as i64));
    o.note("latency_p90_ms", tail(&o.op_ms, 0.9).map_or(Json::Null, Json::Num));
    o.note("latency_p99_ms", tail(&o.op_ms, 0.99).map_or(Json::Null, Json::Num));
    o.note("generator_lag_max_ms", Json::Num(lags.iter().copied().fold(0.0, f64::max)));
    o.note("rejected", Json::Int(tally.rejected as i64));
    o.note("shed", Json::Int(tally.shed as i64));
    o.note("mean_batch", Json::Num(stats.mean_batch));

    if ctx.trace {
        let plans: Vec<_> = [1, 2, MAX_BATCH].iter().filter_map(|&b| rt.plan_cache().get(&key(b))).collect();
        o.layer("serve.plan_build_ms", plans.iter().map(|p| p.build_time.as_secs_f64() * 1e3).sum());
        o.layer("serve.mean_batch", stats.mean_batch);
        o.layer("serve.plan_hit_frac", stats.cache_hit_rate());
        o.layer("serve.packed_mb", stats.cache.packed_bytes as f64 / 1e6);
        o.layer("serve.generator_lag_ms", lags.iter().copied().fold(0.0, f64::max));
        let top = rt.plan_cache().get(&key(MAX_BATCH)).ok_or("no top-bucket plan cached")?;
        o.layer("serve.exec_b1_ms", execute_ms(&solo_plan, &warm_ids)?);
        o.layer("serve.exec_b4_ms", execute_ms(&top, &warm_ids)?);
        o.layer("core.partition_ms", top.stats.partition_time.as_secs_f64() * 1e3);
        o.layer("core.partition_evaluated", top.stats.candidates_evaluated as f64);
        o.layer("core.partition_memo_hit_frac", top.stats.cache_ratio());
        o.layer("core.plan_instrs", top.graph().instrs().len() as f64);
        if let Err(e) = attribute_plan(ctx, &top, &warm_ids, &mut o) {
            o.check = Err(e);
        }
    }
    rt.shutdown();
    Ok(o)
}

/// Median wall time of `Plan::execute` on a full bucket of `ids` rows.
fn execute_ms(plan: &Plan, ids: &[f32]) -> Result<f64, String> {
    let rows: Vec<f32> = (0..plan.bucket()).flat_map(|_| ids.iter().copied()).collect();
    let input = Tensor::from_vec(vec![plan.bucket(), ids.len()], rows).map_err(err)?;
    let mut ms = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        plan.execute(&input).map_err(err)?;
        ms.push(ms_since(t));
    }
    Ok(median(&ms).expect("five samples"))
}

/// Replays the plan graph op by op from canonical weights and checks it
/// against both `Executor::run` and `Plan::execute`.
fn attribute_plan(ctx: &Ctx, plan: &Plan, ids: &[f32], o: &mut Outcome) -> Result<(), String> {
    let cfg = config();
    let normalized = cfg.clone().with_capacity_factor(cfg.experts() as f64);
    let canonical = canonical_weights(&normalized, serve_config().seed).map_err(err)?;
    let graph = plan.graph();
    let mut b = Bindings::new(cfg.gpus);
    for t in graph.weights() {
        let name = &graph.tensor(t).name;
        for (d, map) in canonical.iter().enumerate() {
            b.set(d, t, map.get(name).ok_or_else(|| format!("no canonical `{name}`"))?.clone());
        }
    }
    let rows: Vec<f32> = (0..plan.bucket()).flat_map(|_| ids.iter().copied()).collect();
    let input = Tensor::from_vec(vec![plan.bucket(), cfg.seq], rows).map_err(err)?;
    for t in graph.inputs() {
        let def = graph.tensor(t);
        let v = if def.name == "ids" { input.clone() } else { Tensor::zeros(def.shape.dims().to_vec()) };
        b.set_all(t, v);
    }
    b.prepack_weights(graph);
    let exec = ctx.tracer.span("exec.validate", "exec", || Executor::new(graph, cfg.gpus)).map_err(err)?;
    let mut reference = None;
    for _ in 0..3 {
        reference = Some(ctx.tracer.span("exec.run", "exec", || exec.run(b.clone())).map_err(err)?);
    }
    let reference = reference.expect("ran");
    let (out, stats) = ctx.tracer.span("replay.plan", "bench", || replay(graph, b, cfg.gpus, &ctx.tracer))?;
    bit_identical(graph, &reference, &out, cfg.gpus)
        .map_err(|e| format!("op replay diverged from Executor::run: {e}"))?;
    let logits =
        graph.instrs().iter().find(|i| matches!(i.op, Op::CrossEntropy)).ok_or("no loss head")?.inputs[0];
    let served = plan.execute(&input).map_err(err)?;
    if !same_bits(out.get(0, logits).ok_or("no logits")?.data(), served.data()) {
        return Err("op replay diverged from Plan::execute".into());
    }
    let run_ms = median(&ctx.tracer.durations_ms("exec.run")).unwrap_or(0.0);
    o.layer("exec.validate_ms", median(&ctx.tracer.durations_ms("exec.validate")).unwrap_or(0.0));
    o.layer("exec.run_ms", run_ms);
    o.layer("exec.overhead_ms", run_ms - stats.op_ms);
    o.layer("exec.live_mb_end", live_bytes(graph, &reference, cfg.gpus) / 1e6);
    exec_layers(&stats, o);
    Ok(())
}
