//! Simulation results: timeline and the Fig. 13 decomposition.

use crate::FaultSummary;

/// Which hardware stream an event executed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stream {
    /// The compute stream.
    Compute,
    /// The (primary) communication stream carrying all-to-alls.
    Comm,
    /// The secondary communication channel (all-reduce / all-gather /
    /// reduce-scatter) when `separate_collective_channel` is enabled.
    CommAux,
}

/// One executed instruction on the timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineEvent {
    /// Position of the instruction in the simulated program.
    pub position: usize,
    /// Operator name.
    pub op: &'static str,
    /// Stream the instruction ran on.
    pub stream: Stream,
    /// Start time, seconds from iteration start.
    pub start: f64,
    /// End time, seconds.
    pub end: f64,
}

impl TimelineEvent {
    /// Event duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// The outcome of simulating one training iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// End-to-end iteration time, seconds.
    pub iteration_time: f64,
    /// Total busy time of the compute stream.
    pub compute_busy: f64,
    /// Total busy time of the communication stream.
    pub comm_busy: f64,
    /// Time during which both streams were busy (the overlap the paper
    /// maximizes).
    pub overlapped: f64,
    /// Estimated peak device memory in bytes.
    pub peak_memory: u64,
    /// Whether the estimate exceeds device memory.
    pub oom: bool,
    /// What the injected [`FaultPlan`](crate::FaultPlan) actually did to
    /// this iteration (all zero on a healthy run).
    pub faults: FaultSummary,
    /// Full event timeline (program order).
    pub timeline: Vec<TimelineEvent>,
}

impl SimReport {
    /// Communication time not hidden behind compute (Fig. 13's
    /// "Non-overlapped Communication").
    pub fn exposed_comm(&self) -> f64 {
        (self.comm_busy - self.overlapped).max(0.0)
    }

    /// Compute time not overlapped with communication.
    pub fn exposed_compute(&self) -> f64 {
        (self.compute_busy - self.overlapped).max(0.0)
    }

    /// Fraction of communication hidden behind compute, in `[0, 1]`.
    pub fn overlap_ratio(&self) -> f64 {
        if self.comm_busy <= 0.0 {
            1.0
        } else {
            (self.overlapped / self.comm_busy).min(1.0)
        }
    }

    /// Throughput in iterations/second.
    pub fn throughput(&self) -> f64 {
        1.0 / self.iteration_time
    }

    /// Total busy time per operator name, descending — the raw material
    /// of breakdown figures.
    pub fn time_by_op(&self) -> Vec<(&'static str, f64)> {
        let mut acc: std::collections::HashMap<&'static str, f64> = Default::default();
        for e in &self.timeline {
            *acc.entry(e.op).or_insert(0.0) += e.duration();
        }
        let mut v: Vec<(&'static str, f64)> = acc.into_iter().collect();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite durations"));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        SimReport {
            iteration_time: 10.0,
            compute_busy: 7.0,
            comm_busy: 5.0,
            overlapped: 2.0,
            peak_memory: 1000,
            oom: false,
            faults: FaultSummary::default(),
            timeline: vec![TimelineEvent { position: 0, op: "matmul", stream: Stream::Compute, start: 0.0, end: 7.0 }],
        }
    }

    #[test]
    fn decomposition_arithmetic() {
        let r = report();
        assert_eq!(r.exposed_comm(), 3.0);
        assert_eq!(r.exposed_compute(), 5.0);
        assert!((r.overlap_ratio() - 0.4).abs() < 1e-12);
        assert!((r.throughput() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn event_duration() {
        let r = report();
        assert_eq!(r.timeline[0].duration(), 7.0);
    }

    #[test]
    fn time_by_op_aggregates_and_sorts() {
        let mut r = report();
        r.timeline.push(TimelineEvent {
            position: 1,
            op: "all_to_all",
            stream: Stream::Comm,
            start: 7.0,
            end: 10.0,
        });
        r.timeline.push(TimelineEvent {
            position: 2,
            op: "matmul",
            stream: Stream::Compute,
            start: 10.0,
            end: 11.0,
        });
        let by_op = r.time_by_op();
        assert_eq!(by_op[0], ("matmul", 8.0));
        assert_eq!(by_op[1], ("all_to_all", 3.0));
    }

    #[test]
    fn zero_comm_is_fully_overlapped() {
        let mut r = report();
        r.comm_busy = 0.0;
        r.overlapped = 0.0;
        assert_eq!(r.overlap_ratio(), 1.0);
    }
}
