//! Benchmark entry point. Normally started through `benchmark/run.py`,
//! which builds this binary and passes the host's compiler version and
//! source revision; see `benchmark/README.md`.
//!
//! ```text
//! lancet-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                  [--out <dir>] [--rustc <version>] [--revision <rev>]
//! ```
//!
//! The last line of standard output is the result object; the lines
//! before it print every metric with its unit.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use lancet_benchmark::json::Json;
use lancet_benchmark::metrics::{Outcome, END_TO_END, PER_LAYER};
use lancet_benchmark::stats::median;
use lancet_benchmark::workloads::{self, Ctx};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    rustc: String,
    revision: String,
}

const USAGE: &str = "usage: lancet-benchmark --workload <train-step|plan-paper|serve-open|decode-stream> \
                     --seed <n> --seconds <s> --trace <0|1> [--out <dir>] [--rustc <v>] [--revision <r>]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        out: PathBuf::from("benchmark/out"),
        rustc: "unknown".into(),
        revision: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    let (mut seen_seed, mut seen_seconds, mut seen_trace) = (false, false, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => (args.seed, seen_seed) = (value.parse().map_err(|_| bad())?, true),
            "--seconds" => {
                args.seconds =
                    value.parse().ok().filter(|s: &f64| *s > 0.0 && s.is_finite()).ok_or_else(bad)?;
                seen_seconds = true;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
                seen_trace = true;
            }
            "--out" => args.out = PathBuf::from(value),
            "--rustc" => args.rustc = value,
            "--revision" => args.revision = value,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    if !(seen_seed && seen_seconds && seen_trace) {
        return Err("--seed, --seconds and --trace are required".into());
    }
    Ok(args)
}

/// Host-wide CPU ticks from `/proc/stat`: `(busy, stolen)`. Steal is
/// time the hypervisor ran something else while this VM wanted a CPU; a
/// run with high steal measured a contended host, not the program.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).map(|f| f.parse().ok()).collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal ...
    let busy = fields.first()? + fields.get(1)? + fields.get(2)? + fields.get(5)? + fields.get(6)?;
    Some((busy, *fields.get(7)?))
}

/// The process's peak resident set (VmHWM), MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn stamp(args: &Args) -> Json {
    Json::obj([
        ("workload", Json::str(args.workload.clone())),
        ("seed", Json::Int(args.seed as i64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("nproc", Json::Int(std::thread::available_parallelism().map_or(1, |n| n.get()) as i64)),
        ("isa", Json::str(lancet_tensor::gemm::detected_isa())),
        ("rustc", Json::str(args.rustc.clone())),
        ("revision", Json::str(args.revision.clone())),
        ("lancet_workers", Json::Int(lancet_tensor::pool::resolve_workers(0) as i64)),
    ])
}

/// The metrics this run reports: end-to-end untraced, per-layer traced.
fn metrics(args: &Args, o: &Outcome) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    if !args.trace {
        let need = |v: Option<f64>, what: &str| v.ok_or_else(|| format!("no {what} measured"));
        let values = [
            need(median(&o.setup_s), "set-up")?,
            need(peak_rss_mb(), "peak RSS")?,
            need(median(&o.op_ms), "timed operation")?,
            o.throughput_per_s,
        ];
        return Ok(END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n, u, v)).collect());
    }
    let overhead = match (median(&o.traced_op_ms), median(&o.op_ms)) {
        (Some(t), Some(u)) if u > 0.0 => (t / u - 1.0) * 100.0,
        _ => 0.0,
    };
    Ok(PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = if name == "trace.overhead_pct" {
                overhead
            } else {
                o.layers.iter().rev().find(|(n, _)| *n == name).map_or(0.0, |&(_, v)| v)
            };
            (name, unit, v)
        })
        .collect())
}

fn write_artifacts(args: &Args, ctx: &Ctx, o: &Outcome, result: &Json, stamp: &Json) -> std::io::Result<()> {
    std::fs::create_dir_all(&args.out)?;
    let base = format!("{}-s{}", args.workload, args.seed);
    let record = Json::obj([
        ("stamp", stamp.clone()),
        ("result", result.clone()),
        ("check", o.check.as_ref().err().map_or(Json::str("ok"), |e| Json::str(e.clone()))),
        ("setup_s_samples", Json::Arr(o.setup_s.iter().map(|&v| Json::Num(v)).collect())),
        ("op_ms_samples", Json::Arr(o.op_ms.iter().map(|&v| Json::Num(v)).collect())),
        ("notes", Json::Obj(o.notes.clone())),
    ])
    .render();
    std::fs::write(args.out.join(format!("{base}-t{}.json", u8::from(args.trace))), format!("{record}\n"))?;
    let mut history =
        std::fs::OpenOptions::new().create(true).append(true).open(args.out.join("history.jsonl"))?;
    writeln!(history, "{record}")?;
    if args.trace {
        std::fs::write(args.out.join(format!("{base}.trace.json")), ctx.tracer.to_chrome_trace())?;
        if let Some(sim) = &o.sim_trace {
            std::fs::write(args.out.join(format!("{base}.sim.trace.json")), sim)?;
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let stamp = stamp(&args);
    println!("stamp {}", stamp.render());
    let ctx = Ctx::new(args.seed, args.seconds, args.trace);
    let ticks_before = cpu_ticks();
    let mut outcome = match workloads::run(&args.workload, &ctx) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    if let (Some((b0, s0)), Some((b1, s1))) = (ticks_before, cpu_ticks()) {
        let (busy, stolen) = (b1.saturating_sub(b0), s1.saturating_sub(s0));
        let pct = if busy + stolen == 0 { 0.0 } else { stolen as f64 / (busy + stolen) as f64 * 100.0 };
        outcome.note("host_steal_pct", Json::Num(pct));
    }
    let values = match metrics(&args, &outcome) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    for (name, unit, value) in &values {
        println!("metric {name} = {value} {unit}");
    }
    for (key, value) in &outcome.notes {
        println!("note {key} = {}", value.render());
    }
    let correct = outcome.check.is_ok();
    match &outcome.check {
        Ok(()) => println!("check ok"),
        Err(e) => println!("check FAILED: {e}"),
    }
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(outcome.attempted as i64)),
        ("failed", Json::Int(outcome.failed as i64)),
        (
            "metrics",
            Json::Obj(
                values
                    .iter()
                    .map(|&(n, u, v)| {
                        (n.to_string(), Json::obj([("value", Json::Num(v)), ("unit", Json::str(u))]))
                    })
                    .collect(),
            ),
        ),
    ]);
    if let Err(e) = write_artifacts(&args, &ctx, &outcome, &result, &stamp) {
        eprintln!("warning: could not write result files under {}: {e}", args.out.display());
    }
    println!("{}", result.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
