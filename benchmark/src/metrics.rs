//! The benchmark's metric sets and what a workload run hands back.

use crate::json::Json;

/// End-to-end metrics, printed by every untraced run (`--trace 0`):
/// `(name, unit)`. Each workload fills them with its own unit of work;
/// see `benchmark/README.md`.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("peak_rss_mb", "MB"), ("op_p50_ms", "ms"), ("throughput_per_s", "1/s")];

/// Per-layer metrics, printed by every traced run (`--trace 1`):
/// `(name, unit)`. A layer the workload never calls reads 0.
/// `sim_ms` marks simulated (not measured) milliseconds.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("models.build_forward_ms", "ms"),
    ("cost.comm_model_ms", "ms"),
    ("core.optimize_ms", "ms"),
    ("core.partition_ms", "ms"),
    ("core.partition_evaluated", "count"),
    ("core.partition_memo_hit_frac", "frac"),
    ("core.backward_ms", "ms"),
    ("core.dw_ms", "ms"),
    ("core.partition_ranges", "count"),
    ("core.dw_overlap_frac", "frac"),
    ("core.plan_instrs", "count"),
    ("core.predict_error_pct", "%"),
    ("sim.simulate_ms", "ms"),
    ("sim.iter_ms", "sim_ms"),
    ("sim.exposed_comm_ms", "sim_ms"),
    ("sim.comm_busy_ms", "sim_ms"),
    ("sim.overlap_frac", "frac"),
    ("exec.validate_ms", "ms"),
    ("exec.run_ms", "ms"),
    ("exec.forward_ms", "ms"),
    ("exec.dx_ms", "ms"),
    ("exec.dw_ms", "ms"),
    ("exec.comm_ms", "ms"),
    ("exec.optimizer_ms", "ms"),
    ("exec.overhead_ms", "ms"),
    ("exec.live_mb_end", "MB"),
    ("exec.loss_head_ms", "ms"),
    ("tensor.gemm_ms", "ms"),
    ("tensor.gemm_gflop", "GFLOP"),
    ("tensor.attention_ms", "ms"),
    ("tensor.elementwise_ms", "ms"),
    ("moe.gate_ms", "ms"),
    ("moe.dispatch_ms", "ms"),
    ("moe.a2a_ms", "ms"),
    ("moe.a2a_mb", "MB"),
    ("moe.allreduce_ms", "ms"),
    ("moe.allreduce_mb", "MB"),
    ("serve.plan_build_ms", "ms"),
    ("serve.exec_b1_ms", "ms"),
    ("serve.exec_b4_ms", "ms"),
    ("serve.mean_batch", "count"),
    ("serve.plan_hit_frac", "frac"),
    ("serve.packed_mb", "MB"),
    ("serve.generator_lag_ms", "ms"),
    ("decode.register_ms", "ms"),
    ("decode.mean_batch", "count"),
    ("decode.plan_hit_frac", "frac"),
    ("trace.overhead_pct", "%"),
];

/// Whether `name` is a valid metric or workload name: starts with a
/// letter or digit, at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64 && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()) && name.chars().all(ok)
}

/// Whether `unit` is a valid unit: at most 16 letters, digits, `_`,
/// `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

/// What one workload run measured and checked.
#[derive(Debug)]
pub struct Outcome {
    /// Duration of each set-up repeat, seconds.
    pub setup_s: Vec<f64>,
    /// Untraced timed operations, ms each.
    pub op_ms: Vec<f64>,
    /// Timed operations of the traced phase (traced runs only), ms each.
    pub traced_op_ms: Vec<f64>,
    /// Units of work per second in the untraced phase.
    pub throughput_per_s: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The output-correctness verdict.
    pub check: Result<(), String>,
    /// Per-layer values by name (traced runs).
    pub layers: Vec<(&'static str, f64)>,
    /// Further facts worth keeping in the result file: sample counts,
    /// tail percentiles, tallies.
    pub notes: Vec<(String, Json)>,
    /// A simulated timeline (Chrome trace JSON), when the workload has one.
    pub sim_trace: Option<String>,
}

impl Default for Outcome {
    fn default() -> Self {
        Outcome {
            setup_s: Vec::new(),
            op_ms: Vec::new(),
            traced_op_ms: Vec::new(),
            throughput_per_s: 0.0,
            attempted: 0,
            failed: 0,
            check: Err("not checked".into()),
            layers: Vec::new(),
            notes: Vec::new(),
            sim_trace: None,
        }
    }
}

impl Outcome {
    /// Records a per-layer value.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unknown per-layer metric {name}");
        self.layers.push((name, value));
    }

    /// Records a note.
    pub fn note(&mut self, key: &str, value: Json) {
        self.notes.push((key.to_string(), value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_and_unit_is_valid_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| *n).collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad name {name}");
            assert!(valid_unit(unit), "bad unit {unit} for {name}");
            assert_eq!(all.iter().filter(|n| *n == name).count(), 1, "{name} listed twice");
        }
        assert!(END_TO_END.contains(&("setup_s", "s")));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
    }

    #[test]
    fn name_rules() {
        assert!(valid_name("exec.run_ms"));
        assert!(valid_name("0day"));
        assert!(!valid_name("_lead"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("sim_ms"));
        assert!(!valid_unit("") && !valid_unit("m s") && !valid_unit(&"u".repeat(17)));
    }
}
