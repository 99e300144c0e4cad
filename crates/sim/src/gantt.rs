//! ASCII Gantt rendering of simulated timelines — a terminal-friendly
//! complement to the Chrome-trace export for eyeballing overlap.

use crate::{SimReport, Stream};

/// Renders the two streams as fixed-width ASCII tracks.
///
/// Each column is `iteration_time / width`; compute cells draw `#`,
/// communication cells `=`, idle `.`. A cell is marked when any
/// instruction of that stream is active within its time slice. When the
/// report carries injected faults, a trailing line summarizes what fired
/// (stretched compute, degraded collectives, retransmissions).
///
/// # Example
///
/// ```
/// use lancet_sim::{render_gantt, FaultSummary, SimReport, Stream, TimelineEvent};
///
/// let report = SimReport {
///     iteration_time: 4.0,
///     compute_busy: 2.0,
///     comm_busy: 2.0,
///     overlapped: 0.0,
///     peak_memory: 0,
///     oom: false,
///     faults: FaultSummary::default(),
///     timeline: vec![
///         TimelineEvent { position: 0, op: "matmul", stream: Stream::Compute, start: 0.0, end: 2.0 },
///         TimelineEvent { position: 1, op: "all_to_all", stream: Stream::Comm, start: 2.0, end: 4.0 },
///     ],
/// };
/// let chart = render_gantt(&report, 8);
/// assert!(chart.contains("compute |####....|"));
/// assert!(chart.contains("comm    |....====|"));
/// ```
#[allow(clippy::needless_range_loop)] // column index maps to a time slice
pub fn render_gantt(report: &SimReport, width: usize) -> String {
    let width = width.max(1);
    let total = report.iteration_time.max(f64::MIN_POSITIVE);
    let cell = total / width as f64;
    let mut rows = [vec![false; width], vec![false; width]];
    for e in &report.timeline {
        let idx = match e.stream {
            Stream::Compute => 0,
            Stream::Comm | Stream::CommAux => 1,
        };
        if e.end <= e.start {
            continue;
        }
        let first = ((e.start / cell).floor() as usize).min(width - 1);
        let last = (((e.end / cell).ceil() as usize).max(first + 1)).min(width);
        for c in first..last {
            rows[idx][c] = true;
        }
    }
    let draw = |cells: &[bool], mark: char| -> String {
        cells.iter().map(|&b| if b { mark } else { '.' }).collect()
    };
    let mut chart = format!(
        "compute |{}|\ncomm    |{}|\n{:>9} {:.1} ms, {:.0}% of comm hidden\n",
        draw(&rows[0], '#'),
        draw(&rows[1], '='),
        "total",
        report.iteration_time * 1e3,
        report.overlap_ratio() * 100.0
    );
    if report.faults.any() {
        chart.push_str(&format!(
            "{:>9} {} compute op(s) slowed, {} collective(s) degraded, {} drop(s), +{:.1} ms injected\n",
            "faults",
            report.faults.compute_slowed,
            report.faults.comm_degraded,
            report.faults.link_drops,
            report.faults.injected_delay * 1e3
        ));
    }
    chart
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TimelineEvent;

    fn overlapping_report() -> SimReport {
        SimReport {
            iteration_time: 4.0,
            compute_busy: 3.0,
            comm_busy: 2.0,
            overlapped: 1.0,
            peak_memory: 0,
            oom: false,
            faults: crate::FaultSummary::default(),
            timeline: vec![
                TimelineEvent { position: 0, op: "matmul", stream: Stream::Compute, start: 0.0, end: 3.0 },
                TimelineEvent { position: 1, op: "all_to_all", stream: Stream::Comm, start: 2.0, end: 4.0 },
            ],
        }
    }

    #[test]
    fn overlap_visible_in_chart() {
        let chart = render_gantt(&overlapping_report(), 8);
        let lines: Vec<&str> = chart.lines().collect();
        assert_eq!(lines[0], "compute |######..|");
        assert_eq!(lines[1], "comm    |....====|");
        // Columns 4–5 busy on both streams: the overlap region.
        assert!(lines[2].contains("50% of comm hidden"));
    }

    #[test]
    fn zero_width_clamped() {
        let chart = render_gantt(&overlapping_report(), 0);
        assert!(chart.contains("compute |#|"));
    }

    #[test]
    fn empty_timeline_draws_idle() {
        let mut r = overlapping_report();
        r.timeline.clear();
        let chart = render_gantt(&r, 4);
        assert!(chart.contains("compute |....|"));
    }

    #[test]
    fn faults_render_a_summary_line() {
        let mut r = overlapping_report();
        assert!(
            !render_gantt(&r, 8).contains("faults"),
            "healthy charts stay fault-line free"
        );
        r.faults = crate::FaultSummary {
            compute_slowed: 2,
            comm_degraded: 1,
            link_drops: 1,
            injected_delay: 0.0042,
        };
        let chart = render_gantt(&r, 8);
        assert!(
            chart.contains("faults 2 compute op(s) slowed, 1 collective(s) degraded, 1 drop(s), +4.2 ms injected"),
            "{chart}"
        );
    }
}
