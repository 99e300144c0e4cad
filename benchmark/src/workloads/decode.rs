//! `decode-stream`: closed loop with one client per core. Each client
//! submits a prompt to `DecodeRuntime` (continuous batching) and reads
//! its `StreamTicket` token by token; prompt and generation lengths are
//! drawn from ranges. Same reduced GPT2-S geometry as `serve-open`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lancet_decode::{BatchMode, DecodeConfig, DecodeModel, DecodeRuntime, DecodeSession};
use lancet_serve::{canonical_weights, Lcg};

use super::{mix, Ctx, SETUP_REPEATS};
use crate::checks::{self, Stream};
use crate::json::Json;
use crate::metrics::Outcome;
use crate::stats::{median, tail};
use crate::{err, workloads::serve};

/// Prompt lengths, inclusive; they fall in prefill buckets 4 and 8.
const PROMPT: (usize, usize) = (3, 8);
/// Generated tokens per request, inclusive.
const GEN: (usize, usize) = (8, 24);
/// Streams re-run solo to check their tokens.
const SAMPLES: usize = 3;

fn decode_config() -> DecodeConfig {
    DecodeConfig {
        mode: BatchMode::Continuous,
        max_inflight: 8,
        kv_capacity_tokens: 4096,
        step_deadline: Some(Duration::ZERO),
        queue_depth: 256,
        ..DecodeConfig::default()
    }
}

/// Closed-loop clients: one per core.
pub fn clients() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn setup(ctx: &Ctx) -> Result<DecodeRuntime, String> {
    let cfg = serve::config();
    let rt = ctx.tracer.span("decode.start", "decode", || DecodeRuntime::start(decode_config()));
    ctx.tracer.span("decode.register_model", "decode", || rt.register_model(cfg.clone())).map_err(err)?;
    // Build and run the prefill plan of each prompt-length bucket once.
    for len in [4, 8] {
        let prompt: Vec<u32> = (0..len as u32).collect();
        rt.submit(&cfg.name, &prompt, 2).and_then(|t| t.collect()).map_err(err)?;
    }
    Ok(rt)
}

/// One client's requests and timings.
#[derive(Default)]
struct ClientLog {
    prompts: Vec<Vec<u32>>,
    streams: Vec<Stream>,
    ttft_ms: Vec<f64>,
    itl_ms: Vec<f64>,
    failed: usize,
}

fn client(ctx: &Ctx, rt: &DecodeRuntime, seed: u64, deadline: Instant) -> ClientLog {
    let cfg = serve::config();
    let mut rng = Lcg::new(seed);
    let mut log = ClientLog::default();
    let draw = |rng: &mut Lcg, (lo, hi): (usize, usize)| lo + rng.next_below((hi - lo + 1) as u64) as usize;
    while Instant::now() < deadline {
        let plen = draw(&mut rng, PROMPT);
        let max_new = draw(&mut rng, GEN);
        let prompt: Vec<u32> = (0..plen).map(|_| rng.next_below(cfg.vocab as u64) as u32).collect();
        let submitted = Instant::now();
        let ticket =
            match ctx.tracer.span("decode.submit", "decode", || rt.submit(&cfg.name, &prompt, max_new)) {
                Ok(t) => t,
                Err(_) => {
                    log.failed += 1;
                    continue;
                }
            };
        let mut stream = Stream { max_new, finished: true, ..Stream::default() };
        let mut last = submitted;
        while let Some(event) = ctx.tracer.span("decode.next", "decode", || ticket.next()) {
            let now = Instant::now();
            match event {
                Ok(tok) => {
                    let gap = now.duration_since(last).as_secs_f64() * 1e3;
                    if stream.indices.is_empty() {
                        log.ttft_ms.push(gap);
                    } else {
                        log.itl_ms.push(gap);
                    }
                    last = now;
                    stream.indices.push(tok.index);
                    stream.tokens.push(tok.token);
                }
                Err(_) => stream.finished = false,
            }
        }
        if !stream.finished {
            log.failed += 1;
        }
        log.prompts.push(prompt);
        log.streams.push(stream);
    }
    log
}

/// Greedy tokens of a solo (unbatched) session on the same weights.
fn solo(model: &Arc<DecodeModel>, prompt: &[u32], max_new: usize) -> Result<Vec<u32>, String> {
    let mut session = DecodeSession::new(Arc::clone(model), prompt.len() + max_new);
    let mut tokens = vec![session.prefill(prompt).map_err(err)?];
    while tokens.len() < max_new {
        let next = session.step(*tokens.last().expect("nonempty")).map_err(err)?;
        tokens.push(next);
    }
    Ok(tokens)
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let mut runtime: Option<DecodeRuntime> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(rt) = runtime.take() {
            rt.shutdown();
        }
        let t = Instant::now();
        runtime = Some(setup(ctx)?);
        o.setup_s.push(t.elapsed().as_secs_f64());
    }
    let rt = runtime.expect("set up at least once");

    let mut all = ClientLog::default();
    let mut ttft_untraced = Vec::new();
    for (traced, seconds) in ctx.phases() {
        ctx.tracer.set_enabled(traced);
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let logs: Vec<ClientLog> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients())
                .map(|c| {
                    let rt = &rt;
                    s.spawn(move || client(ctx, rt, mix(ctx.seed, 60 + c as u64), deadline))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client panicked")).collect()
        });
        let wall = start.elapsed().as_secs_f64();
        let mut itl = Vec::new();
        let mut tokens = 0usize;
        for log in logs {
            tokens += log.streams.iter().map(|s| s.tokens.len()).sum::<usize>();
            itl.extend_from_slice(&log.itl_ms);
            if !traced {
                ttft_untraced.extend_from_slice(&log.ttft_ms);
            }
            all.prompts.extend(log.prompts);
            all.streams.extend(log.streams);
            all.ttft_ms.extend(log.ttft_ms);
            all.failed += log.failed;
        }
        if traced {
            o.traced_op_ms = itl;
        } else {
            o.throughput_per_s = tokens as f64 / wall;
            o.op_ms = itl;
        }
    }
    ctx.tracer.set_enabled(ctx.trace);
    let stats = rt.stats();
    // Stop the runtime before the solo reference model is built, so the
    // peak resident set is the workload's own.
    rt.shutdown();
    drop(rt);

    let cfg = serve::config();
    let normalized = cfg.clone().with_capacity_factor(cfg.experts() as f64);
    let canonical = canonical_weights(&normalized, decode_config().seed).map_err(err)?;
    let model = Arc::new(DecodeModel::new(&normalized, &canonical).map_err(err)?);
    let n = all.streams.len();
    let mut samples = Vec::new();
    for i in (0..SAMPLES).map(|k| k * n / SAMPLES).filter(|&i| i < n) {
        samples.push((i, solo(&model, &all.prompts[i], all.streams[i].max_new)?));
    }
    o.attempted = n as u64;
    o.failed = all.failed as u64;
    o.check = checks::decode(&all.streams, &samples);
    o.note("streams", Json::Int(n as i64));
    o.note("clients", Json::Int(clients() as i64));
    o.note("itl_samples", Json::Int(o.op_ms.len() as i64));
    o.note("itl_p90_ms", tail(&o.op_ms, 0.9).map_or(Json::Null, Json::Num));
    o.note("ttft_samples", Json::Int(ttft_untraced.len() as i64));
    o.note("ttft_p50_ms", median(&ttft_untraced).map_or(Json::Null, Json::Num));
    o.note("ttft_p90_ms", tail(&ttft_untraced, 0.9).map_or(Json::Null, Json::Num));
    o.note("mean_batch", Json::Num(stats.mean_batch));

    if ctx.trace {
        o.layer(
            "decode.register_ms",
            median(&ctx.tracer.durations_ms("decode.register_model")).unwrap_or(0.0),
        );
        o.layer("decode.mean_batch", stats.mean_batch);
        o.layer("decode.plan_hit_frac", stats.cache_hit_rate());
    }
    Ok(o)
}
