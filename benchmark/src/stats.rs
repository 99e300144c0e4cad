//! Sample statistics and open-loop latency accounting.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The median: the middle sample, or the mean of the two middle ones.
/// `None` for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The nearest-rank `p`-quantile (`0 < p < 1`), reported only when at
/// least [`MIN_BEYOND`] samples lie beyond it; otherwise `None`.
pub fn tail(samples: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    let rank = nearest_rank(n, p)?;
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// 1-based nearest rank of the `p`-quantile among `n` samples.
fn nearest_rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 || !(0.0..1.0).contains(&p) {
        return None;
    }
    Some(((p * n as f64).ceil() as usize).clamp(1, n))
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// One open-loop request's timestamps, in seconds from the start of the
/// schedule: when it was due, when the generator actually submitted it,
/// and when its response arrived.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Scheduled send time.
    pub due: f64,
    /// Actual send time (never earlier than `due`).
    pub sent: f64,
    /// Response time.
    pub done: f64,
}

impl Arrival {
    /// Latency counted from the due time, in ms: a generator that falls
    /// behind makes every late request's latency include the delay, as a
    /// user on that schedule would see it.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }

    /// How late the generator sent the request, in ms.
    pub fn lag_ms(&self) -> f64 {
        (self.sent - self.due).max(0.0) * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p90_needs_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&hundred, 0.9), Some(90.0), "rank 90 leaves exactly 10 beyond");
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail(&ninety_nine, 0.9), None, "only 9 samples beyond rank 90");
        assert_eq!(tail(&[1.0; 5], 0.9), None);
        assert_eq!(tail(&[], 0.9), None);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&s, 0.99), Some(990.0));
        assert_eq!(tail(&s[..999], 0.99), None);
    }

    #[test]
    fn late_generator_shows_as_latency_and_lag() {
        // Service takes 5 ms. The first request goes out on time; the
        // generator then stalls and sends the second 100 ms late.
        let on_time = Arrival { due: 1.0, sent: 1.0, done: 1.005 };
        let late = Arrival { due: 1.010, sent: 1.110, done: 1.115 };
        assert!((on_time.latency_ms() - 5.0).abs() < 1e-9);
        assert!(on_time.lag_ms().abs() < 1e-9);
        // Counted from its send time the late request would read 5 ms;
        // counted from its due time it reads 105 ms, and the lag explains it.
        assert!((late.latency_ms() - 105.0).abs() < 1e-9);
        assert!((late.lag_ms() - 100.0).abs() < 1e-9);
    }
}
