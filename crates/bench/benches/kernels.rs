//! Naive-vs-tiled-vs-threaded comparison of the tensor compute backend.
//!
//! Benchmarks the packed GEMM engine (`lancet_tensor::gemm`) against the
//! retained naive reference kernel on GPT2-S-MoE-sized operands (hidden
//! 768, FFN 3072), asserts the engines are bit-identical on the benched
//! operands, and records the measured speedups to
//! `results/BENCH_kernels.json` so the comparison is a tracked artifact
//! (like the fig15 engine table). The table is reproduced and discussed
//! in EXPERIMENTS.md.
//!
//! Run modes:
//!
//! * `cargo bench -p lancet-bench --bench kernels` — full run, writes the
//!   JSON artifact.
//! * `cargo bench -p lancet-bench --bench kernels -- --quick` — smoke run
//!   for `scripts/verify.sh`: fewer samples, no artifact, but the
//!   bit-identity checks and a conservative speedup floor still apply.

use criterion::Criterion;
use lancet_tensor::gemm;
use lancet_tensor::pool::default_workers;
use lancet_tensor::{PackedTensor, TensorRng};

/// GPT2-S-MoE FFN shapes: token rows × hidden, hidden × FFN.
const TOKENS: usize = 512;
const HIDDEN: usize = 768;
const FFN: usize = 3072;
/// Decode-step token rows: a handful of single-token sequences, the
/// steady-state serving shape where per-call weight packing dominates.
const STEP_TOKENS: usize = 8;
/// Expert-parallel batched shapes: experts × capacity × hidden.
const EXPERTS: usize = 8;
const CAPACITY: usize = 64;

/// Speedup floor enforced in both modes; the recorded full-run number is
/// expected to be well above this (see EXPERIMENTS.md).
const MIN_SPEEDUP: f64 = 3.0;
/// Floor for prepacked weight panels at the decode-step shape: reusing a
/// resident pack must beat repacking `B` on every call. At `m = 8` the
/// pack traverses `k·n` elements while the multiply does only `8·k·n`
/// MACs, so skipping it is a large, core-count-independent win; the floor
/// is set conservatively for noisy CI machines.
const MIN_PREPACK_SPEEDUP: f64 = 1.15;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // Ignore criterion-style filter args the harness does not implement.
    let mut c = Criterion::default();
    c.sample_size(if quick { 3 } else { 10 });

    let mut rng = TensorRng::seed(42);
    let a = rng.uniform(vec![TOKENS, HIDDEN], -1.0, 1.0);
    let b = rng.uniform(vec![HIDDEN, FFN], -1.0, 1.0);
    let xe = rng.uniform(vec![EXPERTS, CAPACITY, HIDDEN], -1.0, 1.0);
    let we = rng.uniform(vec![EXPERTS, HIDDEN, FFN], -1.0, 1.0);

    // The determinism contract, checked on the exact benched operands:
    // tiled and threaded results must equal the naive reference bit for
    // bit, for any worker count.
    let naive = gemm::matmul_reference(&a, &b, false, false).unwrap();
    for workers in [1, 2, 0] {
        let tiled = gemm::matmul_tiled(&a, &b, false, false, workers).unwrap();
        assert_eq!(naive.data(), tiled.data(), "matmul not bit-identical (workers={workers})");
    }
    let naive_batched = gemm::batched_matmul_reference(&xe, &we).unwrap();
    for workers in [1, 2, 0] {
        let tiled = gemm::batched_matmul_tiled(&xe, &we, workers).unwrap();
        assert_eq!(
            naive_batched.data(),
            tiled.data(),
            "batched_matmul not bit-identical (workers={workers})"
        );
    }
    // Prepacked weight panels must also be bit-identical — packing moves
    // elements, never reassociates the accumulation.
    let a_step = rng.uniform(vec![STEP_TOKENS, HIDDEN], -1.0, 1.0);
    let packed_b = PackedTensor::pack(&b, false).unwrap();
    let packed_we = PackedTensor::pack_batched(&we).unwrap();
    let step_ref = gemm::matmul_reference(&a_step, &b, false, false).unwrap();
    // The step shape is a single row block, so workers split its column
    // strips: every worker count must still reproduce the reference.
    for workers in [1, 2, 0] {
        assert_eq!(
            step_ref.data(),
            gemm::matmul_tiled(&a_step, &b, false, false, workers).unwrap().data(),
            "step matmul not bit-identical (workers={workers})"
        );
        assert_eq!(
            step_ref.data(),
            gemm::matmul_packed(&a_step, &packed_b, false, workers).unwrap().data(),
            "prepacked step matmul not bit-identical (workers={workers})"
        );
    }
    assert_eq!(
        naive.data(),
        gemm::matmul_packed(&a, &packed_b, false, 1).unwrap().data(),
        "prepacked batch matmul not bit-identical"
    );
    assert_eq!(
        naive_batched.data(),
        gemm::batched_matmul_packed(&xe, &packed_we, 1).unwrap().data(),
        "prepacked batched matmul not bit-identical"
    );
    println!("bit-identity: naive == tiled == threaded == prepacked (workers 1, 2, auto; step shape too)\n");

    let mut group = c.benchmark_group("matmul_gpt2s_moe");
    group.bench_function("naive", |bench| {
        bench.iter(|| gemm::matmul_reference(&a, &b, false, false).unwrap())
    });
    group.bench_function("tiled", |bench| {
        bench.iter(|| gemm::matmul_tiled(&a, &b, false, false, 1).unwrap())
    });
    group.bench_function("threaded", |bench| {
        bench.iter(|| gemm::matmul_tiled(&a, &b, false, false, 0).unwrap())
    });
    group.finish();

    let mut group = c.benchmark_group("batched_matmul_experts");
    group.bench_function("naive", |bench| {
        bench.iter(|| gemm::batched_matmul_reference(&xe, &we).unwrap())
    });
    group.bench_function("tiled", |bench| {
        bench.iter(|| gemm::batched_matmul_tiled(&xe, &we, 1).unwrap())
    });
    group.bench_function("threaded", |bench| {
        bench.iter(|| gemm::batched_matmul_tiled(&xe, &we, 0).unwrap())
    });
    group.finish();

    // Prepacked panels vs repack-per-call, at the decode-step shape (the
    // steady-state serving hot path, where packing dominates), the full
    // batch shape, and the batched expert stack.
    let mut group = c.benchmark_group("matmul_step_prepack");
    group.bench_function("repack", |bench| {
        bench.iter(|| gemm::matmul_tiled(&a_step, &b, false, false, 1).unwrap())
    });
    group.bench_function("prepacked", |bench| {
        bench.iter(|| gemm::matmul_packed(&a_step, &packed_b, false, 1).unwrap())
    });
    group.bench_function("prepacked_threaded", |bench| {
        bench.iter(|| gemm::matmul_packed(&a_step, &packed_b, false, 0).unwrap())
    });
    group.finish();

    let mut group = c.benchmark_group("matmul_batch_prepack");
    group.bench_function("repack", |bench| {
        bench.iter(|| gemm::matmul_tiled(&a, &b, false, false, 1).unwrap())
    });
    group.bench_function("prepacked", |bench| {
        bench.iter(|| gemm::matmul_packed(&a, &packed_b, false, 1).unwrap())
    });
    group.finish();

    let mut group = c.benchmark_group("batched_experts_prepack");
    group.bench_function("repack", |bench| {
        bench.iter(|| gemm::batched_matmul_tiled(&xe, &we, 1).unwrap())
    });
    group.bench_function("prepacked", |bench| {
        bench.iter(|| gemm::batched_matmul_packed(&xe, &packed_we, 1).unwrap())
    });
    group.finish();

    // Chunk-parallel reduction op, for the where-does-the-time-go story.
    let scores = rng.uniform(vec![TOKENS * 12, TOKENS], -4.0, 4.0);
    c.bench_function("softmax_attention_sized", |bench| bench.iter(|| scores.softmax_last()));

    let speedup = |num: &str, den: &str| -> f64 {
        let n = c.summary(num).expect("ran").min_ns;
        let d = c.summary(den).expect("ran").min_ns;
        n / d.max(1.0)
    };
    let tiled_vs_naive = speedup("matmul_gpt2s_moe/naive", "matmul_gpt2s_moe/tiled");
    let threaded_vs_naive = speedup("matmul_gpt2s_moe/naive", "matmul_gpt2s_moe/threaded");
    let batched_tiled = speedup("batched_matmul_experts/naive", "batched_matmul_experts/tiled");
    let batched_threaded =
        speedup("batched_matmul_experts/naive", "batched_matmul_experts/threaded");
    let prepack_step = speedup("matmul_step_prepack/repack", "matmul_step_prepack/prepacked");
    let step_threaded =
        speedup("matmul_step_prepack/prepacked", "matmul_step_prepack/prepacked_threaded");
    let prepack_batch = speedup("matmul_batch_prepack/repack", "matmul_batch_prepack/prepacked");
    let prepack_experts =
        speedup("batched_experts_prepack/repack", "batched_experts_prepack/prepacked");

    println!();
    println!("speedup over naive (min-of-samples):");
    println!("  matmul  tiled    {tiled_vs_naive:>7.2}x");
    println!("  matmul  threaded {threaded_vs_naive:>7.2}x");
    println!("  batched tiled    {batched_tiled:>7.2}x");
    println!("  batched threaded {batched_threaded:>7.2}x");
    println!("speedup of prepacked panels over repack-per-call:");
    println!("  step  (m={STEP_TOKENS:<3})   {prepack_step:>7.2}x");
    println!("  batch (m={TOKENS:<3})   {prepack_batch:>7.2}x");
    println!("  experts (bt={EXPERTS})  {prepack_experts:>7.2}x");
    println!("speedup of threaded over one-worker prepacked (column strips):");
    println!("  step  (m={STEP_TOKENS:<3})   {step_threaded:>7.2}x");
    println!("  workers (auto)   {:>7}", default_workers());

    let best = tiled_vs_naive.max(threaded_vs_naive);
    assert!(
        best >= MIN_SPEEDUP,
        "kernel regression: best matmul speedup {best:.2}x < {MIN_SPEEDUP}x floor"
    );
    assert!(
        prepack_step >= MIN_PREPACK_SPEEDUP,
        "prepack regression: step-shape prepacked speedup {prepack_step:.2}x < \
         {MIN_PREPACK_SPEEDUP}x floor"
    );

    if !quick {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_kernels.json");
        write_artifact(
            path,
            &c,
            &[
                ("matmul_tiled_vs_naive", tiled_vs_naive),
                ("matmul_threaded_vs_naive", threaded_vs_naive),
                ("batched_tiled_vs_naive", batched_tiled),
                ("batched_threaded_vs_naive", batched_threaded),
                ("prepacked_vs_repack_step", prepack_step),
                ("prepacked_vs_repack_batch", prepack_batch),
                ("prepacked_vs_repack_experts", prepack_experts),
                ("prepacked_threaded_vs_prepacked_step", step_threaded),
            ],
        );
        println!("\nwrote {path}");
    }
}

/// Hand-rolled JSON (no serde in the sandbox), matching the repo's other
/// machine-readable artifacts.
fn write_artifact(path: &str, c: &Criterion, speedups: &[(&str, f64)]) {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"kernels\",\n");
    out.push_str(&format!(
        "  \"shapes\": {{\"matmul\": [{TOKENS}, {HIDDEN}, {FFN}], \"step\": [{STEP_TOKENS}, {HIDDEN}, {FFN}], \"batched\": [{EXPERTS}, {CAPACITY}, {HIDDEN}, {FFN}]}},\n"
    ));
    out.push_str(&format!("  \"workers_auto\": {},\n", default_workers()));
    out.push_str(&format!(
        "  \"avx2\": {},\n",
        std::arch::is_x86_feature_detected!("avx2")
    ));
    out.push_str("  \"results\": [\n");
    let rows: Vec<String> = c
        .summaries()
        .iter()
        .map(|s| {
            format!(
                "    {{\"name\": \"{}\", \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \"samples\": {}}}",
                s.name, s.mean_ns, s.min_ns, s.samples
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n");
    out.push_str("  \"speedups_min_over_min\": {\n");
    let sp: Vec<String> =
        speedups.iter().map(|(k, v)| format!("    \"{k}\": {v:.2}")).collect();
    out.push_str(&sp.join(",\n"));
    out.push_str("\n  }\n}\n");
    std::fs::write(path, out).expect("write BENCH_kernels.json");
}
