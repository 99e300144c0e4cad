//! Output-correctness checks, one per workload. Each takes the outputs
//! a run produced and returns `Err` with a reason when they are wrong;
//! any failure makes the run report `"correct": false` and exit non-zero.

use crate::replay::same_bits;

/// Relative tolerance for "equal to rounding" between two schedules of
/// the same training step (the dW pass reorders instructions).
pub const LOSS_RTOL: f32 = 1e-5;

/// train-step: every loss is finite, the loss falls over the run, and
/// the first step's loss equals the unoptimized baseline graph's.
pub fn train(losses: &[f32], baseline_first: f32) -> Result<(), String> {
    let (Some(&first), Some(&last)) = (losses.first(), losses.last()) else {
        return Err("no training step ran".into());
    };
    if let Some((i, l)) = losses.iter().enumerate().find(|(_, l)| !l.is_finite()) {
        return Err(format!("step {i} loss is {l}"));
    }
    if losses.len() < 2 || last >= first {
        return Err(format!("loss did not fall: first {first}, last {last} over {} steps", losses.len()));
    }
    if !baseline_first.is_finite()
        || (first - baseline_first).abs() > LOSS_RTOL * baseline_first.abs().max(1.0)
    {
        return Err(format!("step-1 loss {first} differs from the baseline graph's {baseline_first}"));
    }
    Ok(())
}

/// What one plan-paper compile produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanResult {
    /// The optimized graph validated.
    pub valid: bool,
    /// The simulator reported out-of-memory.
    pub oom: bool,
    /// Simulated iteration time, seconds.
    pub iter_s: f64,
}

/// plan-paper: every plan validates, fits in memory, simulates faster
/// than the baseline, and every repeat of the same compile simulates to
/// the same time.
pub fn plan(results: &[PlanResult], baseline_iter_s: f64) -> Result<(), String> {
    let Some(first) = results.first() else { return Err("no compile ran".into()) };
    for (i, r) in results.iter().enumerate() {
        if !r.valid {
            return Err(format!("compile {i}: the optimized graph does not validate"));
        }
        if r.oom {
            return Err(format!("compile {i}: the plan runs out of memory"));
        }
        if !(r.iter_s.is_finite() && r.iter_s > 0.0 && r.iter_s < baseline_iter_s) {
            return Err(format!(
                "compile {i}: simulated {} s, not faster than baseline {baseline_iter_s} s",
                r.iter_s
            ));
        }
        if r.iter_s.to_bits() != first.iter_s.to_bits() {
            return Err(format!("compile {i}: simulated {} s, compile 0 gave {} s", r.iter_s, first.iter_s));
        }
    }
    Ok(())
}

/// Where every submitted serve request ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Tally {
    /// Requests handed to the runtime.
    pub submitted: usize,
    /// Answered with logits.
    pub ok: usize,
    /// Rejected at admission.
    pub rejected: usize,
    /// Shed past their deadline.
    pub shed: usize,
    /// Answered with any other error.
    pub failed: usize,
}

/// serve-open: no response is lost, and every sampled response is
/// bit-identical to a batch-1 execution of the same ids.
pub fn serve(tally: Tally, samples: &[(Vec<f32>, Vec<f32>)]) -> Result<(), String> {
    let answered = tally.ok + tally.rejected + tally.shed + tally.failed;
    if answered != tally.submitted {
        return Err(format!(
            "{} of {} requests got no answer",
            tally.submitted.abs_diff(answered),
            tally.submitted
        ));
    }
    if samples.is_empty() {
        return Err("no response was sampled".into());
    }
    for (i, (served, solo)) in samples.iter().enumerate() {
        if !same_bits(served, solo) {
            return Err(format!("sampled response {i} differs from its batch-1 execution"));
        }
    }
    Ok(())
}

/// One received decode stream.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Stream {
    /// Token indices as received.
    pub indices: Vec<usize>,
    /// Token ids as received.
    pub tokens: Vec<u32>,
    /// Tokens requested.
    pub max_new: usize,
    /// The stream ended normally (no terminal error).
    pub finished: bool,
}

/// decode-stream: every stream is gapless and complete, and every
/// sampled stream's tokens equal a solo run of the same prompt.
pub fn decode(streams: &[Stream], samples: &[(usize, Vec<u32>)]) -> Result<(), String> {
    for (i, s) in streams.iter().enumerate() {
        if !s.finished {
            return Err(format!("stream {i} ended with an error"));
        }
        if let Some(pos) = s.indices.iter().enumerate().position(|(k, &idx)| idx != k) {
            return Err(format!("stream {i} has a gap or repeat at token {pos}"));
        }
        if s.indices.len() != s.max_new || s.tokens.len() != s.max_new {
            return Err(format!("stream {i} delivered {} of {} tokens", s.indices.len(), s.max_new));
        }
    }
    if samples.is_empty() {
        return Err("no stream was sampled".into());
    }
    for (i, solo) in samples {
        let got = &streams.get(*i).ok_or_else(|| format!("no stream {i}"))?.tokens;
        if got != solo {
            return Err(format!("stream {i} tokens {got:?} differ from a solo run {solo:?}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn train_accepts_a_falling_finite_loss_matching_baseline() {
        assert!(train(&[5.5, 5.0, 4.2], 5.5).is_ok());
    }

    #[test]
    fn train_rejects_corrupted_losses() {
        assert!(train(&[5.5, f32::NAN, 4.2], 5.5).is_err(), "non-finite");
        assert!(train(&[5.5, 5.6, 5.7], 5.5).is_err(), "not falling");
        assert!(train(&[5.5, 5.0], 5.6).is_err(), "baseline mismatch");
        assert!(train(&[5.5], 5.5).is_err(), "one step cannot fall");
        assert!(train(&[], 5.5).is_err());
    }

    fn good_plan() -> PlanResult {
        PlanResult { valid: true, oom: false, iter_s: 0.69 }
    }

    #[test]
    fn plan_accepts_valid_fast_deterministic_plans() {
        assert!(plan(&[good_plan(), good_plan()], 0.8).is_ok());
    }

    #[test]
    fn plan_rejects_corrupted_results() {
        assert!(plan(&[PlanResult { valid: false, ..good_plan() }], 0.8).is_err());
        assert!(plan(&[PlanResult { oom: true, ..good_plan() }], 0.8).is_err());
        assert!(plan(&[good_plan()], 0.6).is_err(), "slower than baseline");
        assert!(
            plan(&[good_plan(), PlanResult { iter_s: 0.691, ..good_plan() }], 0.8).is_err(),
            "nondeterministic"
        );
        assert!(plan(&[], 0.8).is_err());
    }

    #[test]
    fn serve_rejects_lost_or_corrupted_responses() {
        let tally = Tally { submitted: 3, ok: 3, ..Tally::default() };
        let good = vec![(vec![1.0, 2.0], vec![1.0, 2.0])];
        assert!(serve(tally, &good).is_ok());
        assert!(serve(Tally { ok: 2, ..tally }, &good).is_err(), "lost response");
        let flipped = vec![(vec![1.0, f32::from_bits(2.0f32.to_bits() ^ 1)], vec![1.0, 2.0])];
        assert!(serve(tally, &flipped).is_err(), "one bit off");
        assert!(serve(tally, &[]).is_err());
    }

    fn stream(tokens: &[u32]) -> Stream {
        Stream {
            indices: (0..tokens.len()).collect(),
            tokens: tokens.to_vec(),
            max_new: tokens.len(),
            finished: true,
        }
    }

    #[test]
    fn decode_accepts_gapless_matching_streams() {
        assert!(decode(&[stream(&[4, 5, 6])], &[(0, vec![4, 5, 6])]).is_ok());
    }

    #[test]
    fn decode_rejects_corrupted_streams() {
        let mut gap = stream(&[4, 5, 6]);
        gap.indices = vec![0, 2, 3];
        assert!(decode(&[gap], &[(0, vec![4, 5, 6])]).is_err(), "gap");
        let mut short = stream(&[4, 5]);
        short.max_new = 3;
        assert!(decode(&[short], &[(0, vec![4, 5])]).is_err(), "truncated");
        let mut failed = stream(&[4, 5, 6]);
        failed.finished = false;
        assert!(decode(&[failed], &[(0, vec![4, 5, 6])]).is_err(), "errored");
        assert!(decode(&[stream(&[4, 5, 7])], &[(0, vec![4, 5, 6])]).is_err(), "token differs from solo");
        assert!(decode(&[stream(&[4])], &[]).is_err(), "nothing sampled");
    }
}
